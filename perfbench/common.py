"""Shared plumbing: paths, the machine stamp, statistics, result files."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes: result files, traces, scratch directories.
OUT = ROOT / ".perfbench_out"

#: The workload seed at which outputs are also compared with the
#: committed baselines (``BENCH_engine.json`` ``scales.full`` is pinned to
#: it, and the assembler scenarios then use their golden preset seeds).
DEFAULT_SEED = 2024


def ensure_program() -> None:
    """Put the program's sources on the import path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child Python process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def stamp(seed: int) -> dict:
    """What absolute numbers depend on; compare results only on one stamp."""
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources: runs of the
    same code share it."""
    h = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    for path in sorted([*(SRC / "repro").rglob("*.py"), *bench.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    if pos == lo or xs[hi] == xs[lo]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``end_to_end`` and ``per_layer`` map metric names to values; the
    ``counts`` block holds the deterministic quantities that must repeat
    exactly across runs of the same code; ``report`` is free-form detail
    (sample counts, per-phase numbers) written to the result file.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; a wrong output counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def check_counts_repeat(out: Outcome, workload: str, seed: int,
                        variant: str) -> None:
    """The exact-count block must equal every earlier run of this code.

    The first run of a (workload, seed, code) stores the block; later
    runs, traced or not, compare against it and count a difference as a
    failed operation.
    """
    digest = code_digest()
    path = OUT / "counts" / f"{workload}-{variant}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    canon = json.loads(json.dumps(out.counts, sort_keys=True))
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored.get("code") == digest:
            out.check(stored["counts"] == canon,
                      f"exact-count block differs from the earlier run "
                      f"recorded in {path.name}")
            return
    path.write_text(json.dumps({"code": digest, "counts": canon},
                               sort_keys=True, indent=1))
