"""The repository's benchmark: one command, three workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload kernel_table2 --seed 2024 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``kernel_table2`` — the Table II-shaped kernel batch on three ports;
* ``serve_open_loop`` — the coalescing service under open-loop load;
* ``assemble_golden`` — the five-stage assembler on six scenarios.

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
repeats the workload with spans around every call into the program's
layers and reports the per-layer metrics, a self-time table, the tracing
overhead against the last untraced run of the same seed and code, and a
Chrome trace-event file. Every run checks the program's outputs and
counts a wrong one as a failed operation. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). Detail goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import wl_assemble  # noqa: E402
import wl_kernel  # noqa: E402
import wl_serve  # noqa: E402
from common import OUT, ROOT, check_counts_repeat, code_digest, \
    ensure_program, median, peak_rss_mb, stamp  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = {"kernel_table2": wl_kernel, "serve_open_loop": wl_serve,
             "assemble_golden": wl_assemble}
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _import_program() -> None:
    ensure_program()
    import numpy  # noqa: F401

    import repro.kernels  # noqa: F401
    import repro.metahipmer.pipeline  # noqa: F401
    import repro.perfmodel  # noqa: F401
    import repro.serve  # noqa: F401


def _setup(mod, args):
    """(state, median set-up seconds): set up SETUP_REPEATS times, keep the
    last set-up and discard the others."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(mod, "discard"):
            mod.discard(state)
        t0 = time.perf_counter()
        state = mod.setup(args.seed, args.seconds, args.smoke,
                          bool(args.trace))
        times.append(time.perf_counter() - t0)
    return state, median(times)


def _install(tracer) -> None:
    layers.install_engine(tracer)
    layers.install_perfmodel(tracer)
    layers.install_checkpoint(tracer)
    layers.install_metahipmer(tracer)


def _per_layer(names, tracer, outcome) -> dict:
    """Every per-layer metric; 0 for a layer the workload never called."""
    values = dict.fromkeys(names, 0)
    values.update(layers.engine_metrics(tracer))
    values.update(layers.checkpoint_metrics(tracer))
    values.update(layers.metahipmer_metrics(tracer))
    values.update(outcome.per_layer)
    return values


def _overhead(workload: str, seed: int, variant: str, traced: dict) -> list:
    """Traced minus untraced end-to-end results, when an untraced result
    of the same workload, seed and code exists."""
    path = OUT / f"{workload}-{variant}-seed{seed}-trace0.json"
    if not path.is_file():
        return [f"tracing overhead: no untraced result in {path.name}; "
                f"run with --trace 0 first"]
    base = json.loads(path.read_text())
    if base.get("code") != code_digest():
        return ["tracing overhead: the untraced result is of other code"]
    lines = ["tracing overhead (traced - untraced):"]
    for name, value in traced.items():
        ref = base["end_to_end"].get(name)
        if ref:
            lines.append(f"  {name}: {value - ref:+.6g} "
                         f"({(value - ref) / ref:+.1%})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small kernel batch (the self-tests)")
    args = parser.parse_args(argv)
    args.seed %= 2**32  # NumPy seeds must be non-negative
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    t_import = time.perf_counter() - T_START
    mod = WORKLOADS[args.workload]
    state, t_setup = _setup(mod, args)
    tracer = Tracer(enabled=bool(args.trace))
    try:
        if hasattr(mod, "prepare"):
            mod.prepare(state)
        if args.trace:
            _install(tracer)
        outcome = mod.run(args.seed, args.seconds, args.smoke, tracer, state)
    finally:
        tracer.restore()
        if hasattr(mod, "discard"):
            mod.discard(state)
    variant = f"{'smoke' if args.smoke else 'full'}-{args.seconds:g}s"
    check_counts_repeat(outcome, args.workload, args.seed, variant)

    e2e = {"setup_s": t_import + t_setup, "peak_rss_mb": peak_rss_mb(),
           "ok_ratio": (outcome.attempted - outcome.failed)
           / max(outcome.attempted, 1)}
    e2e.update(outcome.end_to_end)
    per_layer = _per_layer([m["name"] for m in spec["per_layer"]], tracer,
                           outcome)
    section = "per_layer" if args.trace else "end_to_end"
    chosen = per_layer if args.trace else e2e
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(chosen) != set(units):
        raise SystemExit(f"perfbench: metric set mismatch for {section}: "
                         f"{sorted(set(chosen) ^ set(units))}")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{variant}-seed{args.seed}-trace{args.trace}"
    st = stamp(args.seed)
    record = {"workload": args.workload, "stamp": st, "code": code_digest(),
              "seconds": args.seconds, "end_to_end": e2e,
              "per_layer": per_layer, "counts": outcome.counts,
              "report": outcome.report, "attempted": outcome.attempted,
              "failed": outcome.failed, "problems": outcome.problems}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1,
                                                default=str))
    print(f"perfbench {args.workload}: stamp {json.dumps(st)}")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g}")
    if args.trace:
        trace_path = OUT / f"trace-{tag}.json"
        trace_path.write_text(json.dumps(
            {"traceEvents": tracer.chrome_trace(),
             "displayTimeUnit": "ms"}))
        print(f"spans: {len(tracer.spans)} written to {trace_path.name}")
        print("\n".join(layers.self_time_table(tracer)))
        print("\n".join(_overhead(args.workload, args.seed, variant, e2e)))
    for problem in outcome.problems[:10]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": chosen[n], "unit": units[n]}
                    for n in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
