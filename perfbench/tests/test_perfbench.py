"""Smoke-sized self-tests of the benchmark.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import common
import wl_assemble
import wl_kernel
import wl_serve
from common import OUT, ROOT, Outcome, check_counts_repeat
from tracer import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = {"kernel_table2": "1", "serve_open_loop": "2",
           "assemble_golden": "0.1"}
#: Span names a traced run of each workload must record.
LAYERS = {
    "kernel_table2": {"engine.prepare", "hashing.murmur", "engine.construct",
                      "engine.walk", "engine.driver.run",
                      "engine.driver.run_schedule", "perfmodel"},
    "serve_open_loop": {"serve.service", "serve.queue", "serve.batcher",
                        "serve.supervisor", "serve.worker", "serve.journal",
                        "engine.coalesce", "engine.prepare",
                        "engine.construct", "engine.walk",
                        "resilience.checkpoint.save",
                        "resilience.checkpoint.load"},
    "assemble_golden": {"metahipmer.assemble", "metahipmer.restore",
                        "metahipmer.stage.kmers", "metahipmer.stage.contigs",
                        "metahipmer.stage.align", "metahipmer.stage.extend",
                        "metahipmer.stage.merge", "engine.driver.run",
                        "resilience.checkpoint.save",
                        "resilience.checkpoint.load"},
}


def _run(workload: str, seed: int, trace: int, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS[workload], "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    res = _result(_run(workload, common.DEFAULT_SEED, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} \
        == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], (int, float))
               for m in res["metrics"].values())
    if trace:
        tag = f"{workload}-smoke-{SECONDS[workload]}s-seed" \
              f"{common.DEFAULT_SEED}-trace1"
        events = json.loads((OUT / f"trace-{tag}.json").read_text())
        names = {e["name"] for e in events["traceEvents"]}
        assert LAYERS[workload] <= names


def test_seed_changes_inputs_not_metric_names():
    a = wl_kernel.inputs_digest(wl_kernel.setup(2024, 0.1, True, False)[1])
    b = wl_kernel.inputs_digest(wl_kernel.setup(2025, 0.1, True, False)[1])
    assert a != b
    assert wl_serve.make_plan(1, 2).digest() \
        != wl_serve.make_plan(2, 2).digest()
    assert wl_assemble.inputs_digest(
        wl_assemble.setup(2024, 0.1, True, False)) \
        != wl_assemble.inputs_digest(wl_assemble.setup(7, 0.1, True, False))
    names = [set(_result(_run("kernel_table2", seed, 0))["metrics"])
             for seed in (2024, 2025)]
    assert names[0] == names[1]


def test_corrupted_kernel_output_is_a_failed_operation():
    state = wl_kernel.setup(2024, 0.1, True, False)
    hip = state[2]["hip"]
    original = hip.run_schedule

    def corrupted(*args, **kwargs):
        res = original(*args, **kwargs)
        bases, walk_state = res.right[0]
        res.right[0] = (bases + "A", walk_state)
        return res

    hip.run_schedule = corrupted
    out = wl_kernel.run(2024, 0.1, True, Tracer(enabled=False), state)
    assert out.failed >= 1 and out.failed < out.attempted
    assert any("hip" in p for p in out.problems)


def test_corrupted_assembly_output_is_a_failed_operation():
    jobs = wl_assemble.setup(2024, 0.1, True, False)
    name, _, asm = jobs[0]
    original = asm.assemble
    calls = []

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:  # the resumed run
            result.contigs = result.contigs[:-1]
        return result

    asm.assemble = corrupted
    out = wl_assemble.run(2024, 0.1, True, Tracer(enabled=False), jobs)
    assert out.failed == 1
    assert out.problems[0].startswith(name)


def test_corrupted_serve_output_is_a_failed_operation():
    state = wl_serve.setup(3, 2, True, False)
    wl_serve.prepare(state)
    plan = state[0]
    plan.oracle[0] = {**plan.oracle[0], "k": -1}
    out = wl_serve.run(3, 2, True, Tracer(enabled=False), state)
    uses = sum(1 for j in plan.jobs if j.dataset == 0)
    assert out.failed == uses and out.attempted == len(plan.jobs)


def test_exact_count_block_repeats(tmp_path, monkeypatch):
    blocks = [wl_kernel.run(2024, 0.1, True, Tracer(enabled=False),
                            wl_kernel.setup(2024, 0.1, True, False)).counts
              for _ in range(2)]
    assert blocks[0] == blocks[1]

    monkeypatch.setattr(common, "OUT", tmp_path)
    for counts, failed in ((blocks[0], 0), (blocks[1], 0),
                           ({**blocks[0], "pp_alg": 0.5}, 1)):
        out = Outcome(counts=counts)
        check_counts_repeat(out, "kernel_table2", 2024, "test")
        assert out.failed == failed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("kernel_table2", 2024, 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
