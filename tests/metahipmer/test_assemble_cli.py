"""The ``repro assemble`` CLI: real subprocesses, real kills.

The acceptance property of the resumable pipeline: a run killed after
any stage checkpoint, re-invoked with ``--resume``, produces final
contigs and per-round statistics byte-identical to an uninterrupted run.
The kill is a hard ``os._exit`` inside the process (via the
``REPRO_ASSEMBLE_CRASH_AFTER`` hook), not a polite exception.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")
SCENARIO = "fork_resolution"  # smallest preset: ~77 reads, 2 rounds


def run_cli(args, tmp, crash_after=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_ASSEMBLE_CRASH_AFTER", None)
    if crash_after is not None:
        env["REPRO_ASSEMBLE_CRASH_AFTER"] = crash_after
    return subprocess.run(
        [sys.executable, "-m", "repro", "assemble", *args],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=120)


def assemble_args(tmp, tag, checkpoint=None, resume=False):
    args = ["--scenario", SCENARIO,
            "--output", f"{tag}.fa", "--stats", f"{tag}.json"]
    if checkpoint:
        args += ["--checkpoint-dir", checkpoint]
    if resume:
        args += ["--resume"]
    return args


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted run; its outputs are the reference bytes."""
    tmp = tmp_path_factory.mktemp("baseline")
    proc = run_cli(assemble_args(tmp, "ref"), tmp)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return ((tmp / "ref.fa").read_bytes(), (tmp / "ref.json").read_bytes(),
            proc.stdout)


class TestResumeEqualsUninterrupted:
    @pytest.mark.parametrize("crash_after", [
        "21:kmers",    # earliest possible interruption
        "21:merge",    # round boundary: carried contigs must survive
        "33:align",    # mid-round, after expensive stages
        "33:extend",   # one stage before the finish line
    ])
    def test_kill_then_resume_is_byte_identical(self, tmp_path, baseline,
                                                crash_after):
        ref_fa, ref_json, _ = baseline
        crashed = run_cli(assemble_args(tmp_path, "out", checkpoint="ck"),
                          tmp_path, crash_after=crash_after)
        assert crashed.returncode == 137, crashed.stdout + crashed.stderr
        assert "injected crash" in crashed.stderr
        assert not (tmp_path / "out.fa").exists()  # died before output

        resumed = run_cli(
            assemble_args(tmp_path, "out", checkpoint="ck", resume=True),
            tmp_path)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        k, stage = crash_after.split(":")
        assert f"[assemble] k={k} {stage}: resumed" in resumed.stdout
        assert (tmp_path / "out.fa").read_bytes() == ref_fa
        assert (tmp_path / "out.json").read_bytes() == ref_json

    def test_resume_skips_all_completed_stages(self, tmp_path, baseline):
        ref_fa, _, ref_stdout = baseline
        first = run_cli(assemble_args(tmp_path, "a", checkpoint="ck"),
                        tmp_path)
        assert first.returncode == 0
        again = run_cli(assemble_args(tmp_path, "b", checkpoint="ck",
                                      resume=True), tmp_path)
        assert again.returncode == 0
        assert again.stdout.count(": resumed") == ref_stdout.count(": done")
        assert (tmp_path / "b.fa").read_bytes() == ref_fa


class TestMetagenomeAcceptance:
    def test_metagenome_kill_resume_byte_identical(self, tmp_path):
        """The issue's acceptance run, verbatim: the metagenome preset,
        killed mid-run, resumed, compared byte-for-byte."""
        args = ["--scenario", "metagenome", "--output", "out.fa",
                "--stats", "out.json"]
        ref = run_cli(args, tmp_path)
        assert ref.returncode == 0, ref.stdout + ref.stderr
        ref_fa = (tmp_path / "out.fa").read_bytes()
        ref_json = (tmp_path / "out.json").read_bytes()

        ck_args = args + ["--checkpoint-dir", "ck"]
        crashed = run_cli(ck_args, tmp_path, crash_after="33:contigs")
        assert crashed.returncode == 137
        resumed = run_cli(ck_args + ["--resume"], tmp_path)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "[assemble] k=33 contigs: resumed" in resumed.stdout
        assert (tmp_path / "out.fa").read_bytes() == ref_fa
        assert (tmp_path / "out.json").read_bytes() == ref_json


class TestCliContract:
    def test_resume_requires_checkpoint_dir(self, tmp_path):
        proc = run_cli(["--scenario", SCENARIO, "--resume"], tmp_path)
        assert proc.returncode == 2
        assert "--checkpoint-dir" in proc.stderr

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path, baseline):
        """Without --resume an existing checkpoint dir is cleared, not
        silently reused."""
        ref_fa, _, _ = baseline
        run_cli(assemble_args(tmp_path, "a", checkpoint="ck"), tmp_path)
        fresh = run_cli(assemble_args(tmp_path, "b", checkpoint="ck"),
                        tmp_path)
        assert fresh.returncode == 0
        assert ": resumed" not in fresh.stdout
        assert (tmp_path / "b.fa").read_bytes() == ref_fa

    def test_min_count_zero_is_rejected(self, tmp_path):
        """--min-count 0 would traverse edges no read supports."""
        proc = run_cli(["--scenario", SCENARIO, "--min-count", "0",
                        "--output", "out.fa"], tmp_path)
        assert proc.returncode != 0
        assert "min_count must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.fa").exists()

    def test_missing_fastq_is_a_one_line_error(self, tmp_path):
        proc = run_cli(["--reads", "missing.fastq"], tmp_path)
        assert proc.returncode == 1
        assert "cannot read missing.fastq" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fastq_input_roundtrip(self, tmp_path):
        """--reads consumes a FASTQ written from the same scenario and
        reaches the same assembly."""
        sys.path.insert(0, SRC)
        try:
            from repro.datasets.scenarios import get_scenario
            from repro.genomics.io import write_fastq
        finally:
            sys.path.pop(0)
        sc = get_scenario(SCENARIO)
        write_fastq(sc.build().reads, tmp_path / "in.fastq")
        proc = run_cli(["--reads", "in.fastq", "--min-count", "1",
                        "--output", "out.fa", "--stats", "out.json"],
                       tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "-> 1 contigs" in proc.stdout
