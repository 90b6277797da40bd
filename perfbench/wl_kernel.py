"""``kernel_table2``: the paper's kernel batch on the three vendor ports.

Each pass runs ``run_schedule`` with k = (21, 33, 55, 77) over the
Table II-shaped pinned batch of ``BENCH_engine.json``'s full scale
(256 contigs, 0.5% error, 10% low-quality reads) on CUDA/A100 (32-lane
warps), HIP/MI250X (64) and SYCL/Max1550 (16 lanes). The engine phases
do nearly all the work here, and each port runs the collision protocol
differently.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import time

from common import DEFAULT_SEED, ROOT, Outcome, median, percentile
from tracer import Tracer

#: (registry name, device) of the three vendor ports, CUDA first: its
#: counters are the ones ``BENCH_engine.json`` pins.
PORTS = (("cuda", "A100"), ("hip", "MI250X"), ("sycl", "MAX1550"))


def setup(seed: int, seconds: float, smoke: bool, trace: bool):
    """Inputs and kernels: the batch for ``seed`` and one kernel per port."""
    from repro.analysis.bench import FULL, SMOKE, bench_contigs
    from repro.core.extension import PRODUCTION_POLICY
    from repro.kernels import create_backend
    from repro.simt.device import device_by_name

    scale = dataclasses.replace(SMOKE if smoke else FULL, seed=seed)
    contigs = bench_contigs(scale)
    kernels = {name: create_backend(name, device=device_by_name(dev),
                                    policy=PRODUCTION_POLICY)
               for name, dev in PORTS}
    return scale, contigs, kernels


def inputs_digest(contigs) -> str:
    from repro.genomics.io import dumps_dat

    return hashlib.sha256(dumps_dat(contigs).encode()).hexdigest()[:16]


def _counters(res) -> dict:
    """``BENCH_engine.json``'s counter block, without the event counts."""
    from repro.resilience.checkpoint import profile_to_dict

    hist: dict = {}
    for side in (res.right, res.left):
        for _, state in side:
            hist[state.value] = hist.get(state.value, 0) + 1
    return {
        "k": res.k,
        "degraded": list(res.degraded),
        "retried": list(res.retried),
        "right_bases": int(sum(len(b) for b, _ in res.right)),
        "left_bases": int(sum(len(b) for b, _ in res.left)),
        "states": sorted(f"{s}:{n}" for s, n in hist.items()),
        "profile": profile_to_dict(res.profile),
    }


def port_counts(profile, device, k: int) -> dict:
    """The paper's Tables IV-VII quantities of one profiled run."""
    import repro.perfmodel as pm

    prof = copy.deepcopy(profile)
    timing = pm.apply_timing(prof, device)
    return {"intops": int(prof.intops), "hbm_bytes": float(prof.hbm_bytes),
            "ii": prof.intop_intensity,
            "arch_efficiency": pm.architectural_efficiency(prof, device),
            "alg_efficiency": pm.algorithm_efficiency(prof, k),
            "predicted_kernel_s": timing.total}


def run(seed: int, seconds: float, smoke: bool, tracer: Tracer,
        setup_state) -> Outcome:
    import repro.perfmodel as pm
    from repro.analysis.bench import EventCounter

    scale, contigs, kernels = setup_state
    ks = scale.k_schedule
    out = Outcome()
    baseline = want = None
    if seed == DEFAULT_SEED:
        doc = json.loads((ROOT / "BENCH_engine.json").read_text())
        baseline = doc["scales"][scale.name]["counters"]
        want = {k: v for k, v in baseline.items() if k != "events"}

    pass_walls: list[float] = []
    port_walls: list[float] = []
    first_counts = None
    t_end = time.perf_counter() + seconds
    n_pass = 0
    while not pass_walls or time.perf_counter() < t_end:
        results = {}
        t_pass = time.perf_counter()
        for name, _ in PORTS:
            with tracer.span("kernel.port", trace_id=f"p{n_pass}.{name}"):
                t0 = time.perf_counter()
                results[name] = kernels[name].run_schedule(contigs, ks)
                port_walls.append(time.perf_counter() - t0)
        pass_walls.append(time.perf_counter() - t_pass)
        ref = results["cuda"]
        counts = {name: port_counts(results[name].profile,
                                    kernels[name].device, results[name].k)
                  for name, _ in PORTS}
        counts["pp_arch"] = pm.pennycook(
            [counts[n]["arch_efficiency"] for n, _ in PORTS])
        counts["pp_alg"] = pm.pennycook(
            [counts[n]["alg_efficiency"] for n, _ in PORTS])
        if first_counts is None:
            first_counts = counts
        for name, _ in PORTS:
            res = results[name]
            wrong = []
            if name != "cuda" and (res.right != ref.right
                                   or res.left != ref.left):
                wrong.append("extensions differ from cuda")
            if name == "cuda" and want is not None \
                    and _counters(res) != want:
                wrong.append("counters differ from BENCH_engine.json "
                             f"scales.{scale.name}")
            if counts[name] != first_counts[name]:
                wrong.append("exact-count block changed between passes")
            out.check(not wrong, f"pass {n_pass} {name}: {'; '.join(wrong)}")
        n_pass += 1

    if baseline is not None:
        # the event stream is only counted with every event forced on,
        # so it gets one extra, untimed and untraced CUDA pass at the
        # pinned seed
        tracer.restore()
        from repro.core.extension import PRODUCTION_POLICY
        from repro.kernels import create_backend

        kern = create_backend("cuda", device=kernels["cuda"].device,
                              policy=PRODUCTION_POLICY)
        counter = kern.add_subscriber(EventCounter())
        kern.run_schedule(contigs, ks)
        out.check(dict(sorted(counter.counts.items())) == baseline["events"],
                  "cuda event counts differ from BENCH_engine.json")

    work = len(contigs) * len(PORTS)
    out.end_to_end = {
        "throughput_per_s": median(work / w for w in pass_walls),
        "latency_p50_ms": percentile(port_walls, 50) * 1e3,
        "latency_p75_ms": percentile(port_walls, 75) * 1e3,
    }
    out.counts = first_counts
    out.per_layer = {
        **{f"engine.{f}.{n}": first_counts[n][f]
           for n, _ in PORTS for f in ("intops", "hbm_bytes")},
        **{f"perfmodel.{f}.{n}": first_counts[n][f]
           for n, _ in PORTS for f in ("ii", "arch_efficiency",
                                       "alg_efficiency")},
        "perfmodel.pp_arch": first_counts["pp_arch"],
        "perfmodel.pp_alg": first_counts["pp_alg"],
    }
    out.report = {"inputs_digest": inputs_digest(contigs),
                  "passes": len(pass_walls), "pass_walls_s": pass_walls,
                  "port_walls_s": port_walls, "contigs": len(contigs),
                  "k_schedule": list(ks), "scale": scale.name}
    return out
