"""``serve_open_loop``: the coalescing service under open-loop arrivals.

The service runs in its own process (``serve_host.py``: ``workers=1``,
the default 10 ms window, journal and checkpoint directory on — the
crash-safe setup). One generator process drives it over HTTP with two
connections (one submits, one polls), the machine's core count. Jobs are
small 4-contig error-free datasets with the default k-schedule; every
fourth submission repeats an earlier job's dataset, so the checkpoint
resume path carries about a quarter of the load.

Arrivals are seeded Poisson at each rung of a fixed rate ladder, low
rung first; the generator waits for the backlog to drain between rungs.
Each job is timed from when it was due, not when it was sent, so a
generator that falls behind still charges the wait to the service, and
the generator's own lateness is reported.

This is the only workload that exercises admission, wave formation,
per-job replay, journal fsync and checkpoint writes and reads; its engine
launches are small.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import layers
from common import OUT, Outcome, child_env, median, percentile
from tracer import Tracer

#: The rate ladder (jobs/s), low to high, and the share of ``--seconds``
#: over which each rung's arrivals are spread. The seed code clearly
#: serves the two lower rungs and clearly fails the top one; the rate it
#: sustains at the top rung, with its queue never empty, is reported too.
#: The reference rate, where the latency metrics are taken, is the low
#: rung with most of the time: on a 2-core machine whose speed drifts,
#: queueing at higher load amplifies every slow spell into the tail.
LADDER = ((4.0, 0.85), (8.0, 0.08), (32.0, 0.08))
REFERENCE_RATE = 4.0
#: p90 latency limit (due to done) a rung must meet to count as served.
LIMIT_S = 1.0
#: Every REPEAT_EVERY-th submission repeats an earlier dataset, chosen
#: among jobs at least REPEAT_DISTANCE submissions back when possible.
REPEAT_EVERY = 4
REPEAT_DISTANCE = 40
#: Shape of one job: 4 contigs, error-free reads.
N_CONTIGS = 4
POLL_S = 0.01
#: How long the generator waits for a rung's backlog to drain.
DRAIN_S = 20.0
HOST = "127.0.0.1"


@dataclass
class Job:
    index: int
    rate: float
    offset: float          #: due time relative to its rung's start
    dataset: int           #: index into the distinct datasets
    repeat_of: int | None  #: index of the job whose dataset this repeats
    due: float = 0.0
    sent: float = 0.0
    acked: float = 0.0
    done: float = 0.0
    status: int = 0
    job_id: str = ""
    state: str = ""
    resumed: bool = False
    payload: dict | None = None


@dataclass
class Plan:
    jobs: list[Job]
    datasets: list[str]
    oracle: list[dict] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(f"{job.rate}:{job.offset!r}:{job.dataset}\n".encode())
        for dat in self.datasets:
            h.update(dat.encode())
        return h.hexdigest()[:16]


def make_plan(seed: int, seconds: float) -> Plan:
    """Arrival schedule and job payloads, all from ``seed``."""
    from repro.genomics.io import dumps_dat
    from repro.genomics.simulate import ErrorProfile, ScenarioSpec, \
        simulate_batch

    rng = np.random.default_rng([seed, 0])
    spec = ScenarioSpec(contig_length=150, flank_length=60, read_length=80,
                        depth=6, seed_window=40)
    errors = ErrorProfile(error_rate=0.0, lo_quality_fraction=0.0)
    jobs: list[Job] = []
    datasets: list[str] = []
    for rate, share in LADDER:
        n = max(4, round(rate * seconds * share))
        offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
        offsets -= offsets[0]
        for off in offsets:
            i = len(jobs)
            if i % REPEAT_EVERY == REPEAT_EVERY - 1:
                firsts = [j for j in jobs if j.repeat_of is None]
                far = [j for j in firsts if j.index <= i - REPEAT_DISTANCE]
                src = (far or firsts)[int(rng.integers(len(far or firsts)))]
                jobs.append(Job(i, rate, float(off), src.dataset, src.index))
                continue
            ds_rng = np.random.default_rng([seed, 1, len(datasets)])
            contigs = [sc.contig for sc in
                       simulate_batch(N_CONTIGS, spec, ds_rng, errors)]
            datasets.append(dumps_dat(contigs))
            jobs.append(Job(i, rate, float(off), len(datasets) - 1, None))
    return Plan(jobs, datasets)


def _strip_cache_counts(result: dict) -> dict:
    """A job result without the prepare-cache counters.

    Those count what the worker's shared cache held when the job ran: a
    repeat that arrives before its first run's checkpoint exists is
    recomputed against a warm cache, and its checkpoint then replaces the
    first run's, so later resumes report the warm counts.
    """
    profile = {k: v for k, v in result["profile"].items()
               if not k.startswith("prep_cache_")}
    return {**result, "profile": profile}


def compute_oracle(plan: Plan) -> None:
    """Solo ``run_schedule`` of every distinct dataset (the reference)."""
    from repro.core.extension import PRODUCTION_POLICY
    from repro.genomics.io import loads_dat
    from repro.kernels import backend_for_device
    from repro.resilience.checkpoint import result_to_dict
    from repro.serve import DEFAULT_K_SCHEDULE
    from repro.simt.device import device_by_name

    kernel = backend_for_device(device_by_name("A100"),
                                policy=PRODUCTION_POLICY,
                                overflow_policy="drop-contig")
    plan.oracle = [
        _strip_cache_counts(result_to_dict(
            kernel.run_schedule(loads_dat(dat), DEFAULT_K_SCHEDULE)))
        for dat in plan.datasets]


# ----------------------------------------------------------------------
# the service process


class Service:
    """One ``serve_host.py`` process with its own journal and checkpoints."""

    def __init__(self, trace: bool) -> None:
        self.dir = OUT / "tmp" / f"serve-{os.getpid()}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.report_path = self.dir / "report.json"
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__),
                                            "serve_host.py"),
               "--journal", str(self.dir / "journal.wal"),
               "--checkpoint-dir", str(self.dir / "ckpt"),
               "--report", str(self.report_path)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=child_env())
        self.report: dict | None = None
        self.port = self._wait_listening(timeout_s=60.0)

    def _wait_listening(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                m = re.search(r"listening on http://[^:]+:(\d+)", line)
                if m:
                    return int(m.group(1))
        self.stop()
        raise RuntimeError("service process did not start listening")

    def stop(self) -> dict:
        """Graceful stop (SIGTERM drains); returns the host's report.
        Stopping again returns the same report."""
        if self.report is not None:
            return self.report
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.report = {}
        if self.report_path.is_file():
            self.report = json.loads(self.report_path.read_text())
        shutil.rmtree(self.dir, ignore_errors=True)
        return self.report


# ----------------------------------------------------------------------
# the open-loop generator


class _Http:
    """One keep-alive HTTP/1.1 connection speaking the service's JSON."""

    async def open(self, port: int) -> "_Http":
        self.reader, self.writer = await asyncio.open_connection(HOST, port)
        return self

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def request(self, method: str, path: str,
                      payload: dict | None = None) -> tuple[int, dict]:
        body = json.dumps(payload).encode() if payload is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("service closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self.reader.readexactly(length) if length else b""
        return status, json.loads(data or b"{}")


async def _drive(port: int, plan: Plan) -> dict:
    """Submit every rung on schedule, poll to completion, fetch results."""
    loop = asyncio.get_running_loop()
    submit = await _Http().open(port)
    poll = await _Http().open(port)
    pending: deque[Job] = deque()
    wake = asyncio.Event()
    submitting = True
    phases = []

    async def poller() -> None:
        while submitting or pending:
            if not pending:
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), 0.05)
                except asyncio.TimeoutError:
                    pass
                continue
            job = pending[0]
            _, body = await poll.request("GET", f"/v1/jobs/{job.job_id}")
            if body.get("status") in ("done", "failed"):
                job.done = loop.time()
                job.state = body["status"]
                pending.popleft()
                continue
            await asyncio.sleep(POLL_S)

    poll_task = loop.create_task(poller())
    try:
        for rate, _ in LADDER:
            rung = [j for j in plan.jobs if j.rate == rate]
            t0 = loop.time() + 0.05
            for job in rung:
                job.due = t0 + job.offset
                delay = job.due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                job.sent = loop.time()
                job.status, body = await submit.request(
                    "POST", "/v1/jobs", {"dat": plan.datasets[job.dataset]})
                job.acked = loop.time()
                if job.status != 202:
                    job.done, job.state = job.acked, "refused"
                    continue
                job.job_id = body["job_id"]
                job.resumed = bool(body.get("resumed"))
                if body.get("status") in ("done", "failed"):
                    job.done, job.state = job.acked, body["status"]
                else:
                    pending.append(job)
                    wake.set()
            backlog = sum(1 for j in rung if not j.done)
            deadline = loop.time() + DRAIN_S
            while any(not j.done for j in rung) and loop.time() < deadline:
                if poll_task.done():
                    poll_task.result()  # surfaces a poller failure
                    break
                await asyncio.sleep(0.01)
            phases.append({"rate": rate, "backlog_end": backlog})
        submitting = False
        wake.set()
        try:
            await asyncio.wait_for(poll_task, DRAIN_S)
        except asyncio.TimeoutError:
            pass  # jobs still pending count as lost
        for job in plan.jobs:
            if job.job_id:
                status, job.payload = await poll.request(
                    "GET", f"/v1/jobs/{job.job_id}/result")
                if status != 200:
                    job.payload = None
        _, stats = await poll.request("GET", "/v1/stats")
    finally:
        submitting = False
        wake.set()
        if not poll_task.done():
            poll_task.cancel()
        await asyncio.gather(poll_task, return_exceptions=True)
        await submit.close()
        await poll.close()
    return {"phases": phases, "stats": stats}


def saturated_rate(done: list[float], trim: float = 0.1) -> float:
    """Jobs computed per second while the top rung keeps the queue full.

    ``done`` are the sorted completion times of the top rung's computed
    (not resumed) jobs; the first and last ``trim`` of them are dropped,
    so the rate spans only completions the backlog kept back to back.
    """
    lo = int(len(done) * trim)
    hi = len(done) - 1 - lo
    if hi <= lo or done[hi] == done[lo]:
        return 0.0
    return (hi - lo) / (done[hi] - done[lo])


def _latencies(jobs: list[Job], missed: float) -> list[float]:
    """Due-to-done seconds. A failed, refused or lost job counts as
    ``missed``, the whole run's duration, which exceeds any real one."""
    return [j.done - j.due if j.state == "done" else missed for j in jobs]


def setup(seed: int, seconds: float, smoke: bool, trace: bool):
    """The job plan and a listening service process."""
    plan = make_plan(seed, seconds)
    return plan, Service(trace)


def discard(state) -> None:
    state[1].stop()


def prepare(state) -> None:
    """The reference results; kept out of the timed set-up."""
    compute_oracle(state[0])


def run(seed: int, seconds: float, smoke: bool, tracer: Tracer,
        state) -> Outcome:
    plan, service = state
    try:
        driven = asyncio.run(_drive(service.port, plan))
    finally:
        host = service.stop()
    out = Outcome()
    first_result: dict[int, dict] = {}
    for job in plan.jobs:
        ok = job.status == 202 and job.state == "done" \
            and job.payload is not None and job.payload.get("ok")
        wrong = "" if ok else f"status {job.status} {job.state or 'lost'}"
        if ok:
            result = job.payload["result"]
            if _strip_cache_counts(result) != plan.oracle[job.dataset]:
                wrong = "result differs from a solo run_schedule"
            elif job.repeat_of is None:
                first_result[job.index] = result
            elif job.resumed and (
                    job.repeat_of not in first_result
                    or _strip_cache_counts(result)
                    != _strip_cache_counts(first_result[job.repeat_of])):
                wrong = "resumed result differs from its first run"
        out.check(not wrong, f"job {job.index}: {wrong}")

    wall = max(max(j.acked, j.done) for j in plan.jobs) \
        - min(j.due for j in plan.jobs)
    rungs = []
    for phase in driven["phases"]:
        rate = phase["rate"]
        jobs = [j for j in plan.jobs if j.rate == rate]
        lat = _latencies(jobs, wall)
        p90 = percentile(lat, 90)
        served = p90 <= LIMIT_S and all(j.state == "done" for j in jobs) \
            and phase["backlog_end"] <= rate * LIMIT_S
        rungs.append({**phase, "jobs": len(lat), "p50_s": percentile(lat, 50),
                      "p90_s": p90, "served": served})
    capacity = max((r["rate"] for r in rungs if r["served"]), default=0.0)
    ref = _latencies([j for j in plan.jobs if j.rate == REFERENCE_RATE],
                     wall)
    computed = sorted(j.done for j in plan.jobs
                      if j.rate == LADDER[-1][0] and j.state == "done"
                      and not j.resumed)

    out.end_to_end = {
        "throughput_per_s": capacity,
        "latency_p50_ms": percentile(ref, 50) * 1e3,
        "latency_p75_ms": percentile(ref, 75) * 1e3,
        "peak_rss_mb": host.get("peak_rss_kb", 0) / 1024.0,
    }
    stats = driven["stats"]
    batcher = stats["batcher"]
    sup = stats["supervisor"]
    repeats = [j for j in plan.jobs if j.repeat_of is not None]
    out.per_layer = {
        "serve.saturated_jobs_per_s": saturated_rate(computed),
        **{f"serve.ladder.{int(r['rate'])}jps.p90_ms": r["p90_s"] * 1e3
           for r in rungs},
        **{f"serve.ladder.{int(r['rate'])}jps.backlog_end": r["backlog_end"]
           for r in rungs},
        "serve.generator.lag_ms_max":
            max(j.sent - j.due for j in plan.jobs) * 1e3,
        "serve.service.submit_rtt_ms_p50":
            median(j.acked - j.sent for j in plan.jobs) * 1e3,
        "serve.batcher.jobs_per_wave":
            batcher["jobs_waved"] / batcher["waves"] if batcher["waves"]
            else 0.0,
        "serve.queue.refused": stats["admission"]["rejected"]
            + sum(1 for j in plan.jobs if j.status in (429, 503)),
        "serve.supervisor.retries": sup["transient_retries"],
        "serve.supervisor.bisections": sup["bisections"],
        "serve.supervisor.timeouts": sup["waves_timed_out"],
        "serve.checkpoint.resumed_ratio":
            sum(1 for j in repeats if j.resumed) / len(repeats)
            if repeats else 0.0,
        "resilience.checkpoint.quarantined":
            stats.get("checkpoints", {}).get("quarantined", 0),
    }
    if host.get("spans"):
        tracer.add_spans(host["spans"])
        out.per_layer.update(layers.serve_span_metrics(tracer, wall))
    out.report = {"inputs_digest": plan.digest(),
                  "rungs": rungs, "jobs": len(plan.jobs),
                  "timeline": [[j.rate, j.due, j.sent, j.acked, j.done,
                                j.resumed] for j in plan.jobs],
                  "distinct_datasets": len(plan.datasets),
                  "repeats": len(repeats), "wall_s": wall,
                  "reference_jobs": len(ref), "stats": stats}
    out.counts = {
        "jobs": len(plan.jobs), "distinct_datasets": len(plan.datasets),
        "oracle_intops": sum(r["profile"]["intops"] for r in plan.oracle),
        "oracle_extension_bases":
            sum(r["profile"]["extension_bases"] for r in plan.oracle),
    }
    return out
