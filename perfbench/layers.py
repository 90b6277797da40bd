"""Where the traced run hooks into each layer, and what it derives.

Every hook wraps a public function or method of the program, from this
file, with a :class:`~tracer.Tracer` span; nothing under ``src/`` is
edited. Span names are ``<layer>`` or ``<layer>.<call>`` so the
self-time table groups by this repository's modules:

=========================  ==============================================
``engine.prepare``         ``BatchPreparer.prepare``
``hashing.murmur``         ``murmur2_stream`` / ``murmur2_words`` as
                           ``repro.kernels.engine.prepare`` calls them
``engine.construct``       ``ConstructPhase.run``
``engine.walk``            ``WalkPhase.run``
``engine.driver.*``        ``LocalAssemblyKernel.run`` / ``run_schedule``
``engine.coalesce``        ``run_schedule_coalesced`` as the worker calls it
``perfmodel``              the ``repro.perfmodel`` calls of the count block
``serve.*``                queue, batcher, supervisor, worker, journal,
                           service (see :func:`install_serve`)
``resilience.checkpoint``  ``CheckpointStore`` save/load calls
``metahipmer.*``           ``STAGES[name].run`` / ``restore``,
                           ``DeNovoAssembler.assemble``
=========================  ==============================================
"""

from __future__ import annotations

from tracer import Span, Tracer

from common import percentile

_PROFILE_COUNTS = ("inserts", "insert_probe_iterations", "lookups",
                   "lookup_probe_iterations", "prep_cache_hits",
                   "prep_cache_misses")


def _profile_attrs(span: Span, profiles) -> None:
    for name in _PROFILE_COUNTS:
        span.attrs[name] = span.attrs.get(name, 0) + sum(
            int(getattr(p, name)) for p in profiles)


def install_engine(tracer: Tracer) -> None:
    """Hook the engine phases, hashing and the solo driver."""
    import repro.kernels.engine.prepare as prepare_mod
    from repro.kernels.engine import (
        BatchPreparer,
        ConstructPhase,
        LocalAssemblyKernel,
        WalkPhase,
    )

    tracer.wrap(BatchPreparer, "prepare", "engine.prepare")
    tracer.wrap(prepare_mod, "murmur2_stream", "hashing.murmur")
    tracer.wrap(prepare_mod, "murmur2_words", "hashing.murmur")
    tracer.wrap(ConstructPhase, "run", "engine.construct",
                on_result=lambda s, r, a, k: s.attrs.update(waves=r.waves))
    tracer.wrap(WalkPhase, "run", "engine.walk",
                on_result=lambda s, r, a, k: s.attrs.update(steps=r.steps))
    tracer.wrap(LocalAssemblyKernel, "run", "engine.driver.run",
                on_result=lambda s, r, a, k: _profile_attrs(s, [r.profile]))
    tracer.wrap(LocalAssemblyKernel, "run_schedule",
                "engine.driver.run_schedule",
                on_result=lambda s, r, a, k: _profile_attrs(s, [r.profile]))


def install_perfmodel(tracer: Tracer) -> None:
    import repro.perfmodel as pm

    for name in ("apply_timing", "architectural_efficiency",
                 "algorithm_efficiency", "pennycook"):
        tracer.wrap(pm, name, "perfmodel")


def install_checkpoint(tracer: Tracer) -> None:
    from repro.resilience.checkpoint import CheckpointStore

    for name in ("save", "save_payload"):
        tracer.wrap(CheckpointStore, name, "resilience.checkpoint.save")
    for name in ("load_named", "load_payload"):
        tracer.wrap(CheckpointStore, name, "resilience.checkpoint.load",
                    on_result=lambda s, r, a, k: s.attrs.update(
                        hit=r is not None))


def install_serve(tracer: Tracer) -> None:
    """Hook the service's layers and the coalescing engine driver it
    calls (runs inside the service process)."""
    import repro.serve.service as service_mod
    import repro.serve.worker as worker_mod
    from repro.serve.batcher import CoalescingBatcher
    from repro.serve.journal import JobJournal
    from repro.serve.queue import AdmissionControl
    from repro.serve.supervisor import WaveSupervisor

    def route_done(span, result, args, kwargs):
        status, body = result
        span.attrs["status"] = status
        if args[1] == "POST" and isinstance(body, dict) \
                and "job_id" in body:
            span.trace_id = body["job_id"]
            span.attrs["submit"] = True

    def coalesced(span, outcomes, args, kwargs):
        _profile_attrs(span, [o.result.profile for o in outcomes
                              if o.result is not None])

    tracer.wrap(worker_mod, "run_schedule_coalesced", "engine.coalesce",
                on_result=coalesced)
    tracer.wrap(service_mod.AssemblyService, "_route", "serve.service",
                on_result=route_done)
    tracer.wrap(AdmissionControl, "try_admit", "serve.queue",
                on_result=lambda s, r, a, k: s.attrs.update(
                    admitted=r, in_flight=a[0].in_flight))
    tracer.wrap(CoalescingBatcher, "submit", "serve.batcher",
                trace_id=lambda a, k: a[1].job_id)
    tracer.wrap(WaveSupervisor, "run", "serve.supervisor",
                trace_id=lambda a, k: a[2][0].job_id)
    tracer.wrap(service_mod, "run_wave", "serve.worker",
                trace_id=lambda a, k: a[0]["jobs"][0]["job_id"],
                on_result=lambda s, r, a, k: s.attrs.update(
                    job_ids=[j["job_id"] for j in a[0]["jobs"]]))
    tracer.wrap(JobJournal, "append", "serve.journal",
                trace_id=lambda a, k: k.get("job_id"))


def install_metahipmer(tracer: Tracer) -> None:
    from repro.metahipmer.pipeline import DeNovoAssembler
    from repro.metahipmer.stages import STAGES

    for name, stage in STAGES.items():
        tracer.wrap(type(stage), "run", f"metahipmer.stage.{name}")
        tracer.wrap(type(stage), "restore", "metahipmer.restore")
    tracer.wrap(DeNovoAssembler, "assemble", "metahipmer.assemble")


# ----------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _attr_sum(spans, key: str) -> int:
    return sum(s.attrs.get(key, 0) for s in spans)


def engine_metrics(tracer: Tracer) -> dict:
    """Engine-layer numbers from the spans (0 where a layer never ran)."""
    selfs = tracer.self_times()
    construct = tracer.by_name("engine.construct")
    walk = tracer.by_name("engine.walk")
    runs = tracer.by_name("engine.driver.run") \
        + tracer.by_name("engine.coalesce")
    cached = tracer.by_name("engine.driver.run_schedule") \
        + tracer.by_name("engine.coalesce")
    waves = _attr_sum(construct, "waves")
    busy_construct = tracer.busy_s("engine.construct")
    hits = _attr_sum(cached, "prep_cache_hits")
    lookups = hits + _attr_sum(cached, "prep_cache_misses")
    driver_self = sum(selfs.get(n, {}).get("self_s", 0.0)
                      for n in ("engine.driver.run",
                                "engine.driver.run_schedule"))
    return {
        "engine.prepare.busy_s": tracer.busy_s("engine.prepare"),
        "engine.prepare.calls": len(tracer.by_name("engine.prepare")),
        "hashing.murmur.busy_s": tracer.busy_s("hashing.murmur"),
        "engine.prepare.cache_hit_ratio": _ratio(hits, lookups),
        "engine.construct.busy_s": busy_construct,
        "engine.construct.waves": waves,
        "engine.construct.s_per_wave": _ratio(busy_construct, waves),
        "engine.construct.insert_ratio": _ratio(
            _attr_sum(runs, "inserts"),
            _attr_sum(runs, "insert_probe_iterations")),
        "engine.walk.busy_s": tracer.busy_s("engine.walk"),
        "engine.walk.steps": _attr_sum(walk, "steps"),
        "engine.walk.lookup_ratio": _ratio(
            _attr_sum(runs, "lookups"),
            _attr_sum(runs, "lookup_probe_iterations")),
        "engine.driver.self_s": driver_self,
        "engine.schedule.ks_run": len(tracer.by_name("engine.driver.run")),
        "engine.coalesce.busy_s": tracer.busy_s("engine.coalesce"),
        "engine.coalesce.replay_self_s":
            selfs.get("engine.coalesce", {}).get("self_s", 0.0),
        "perfmodel.busy_s": tracer.busy_s("perfmodel"),
    }


def checkpoint_metrics(tracer: Tracer) -> dict:
    return {
        "resilience.checkpoint.save_s":
            tracer.busy_s("resilience.checkpoint.save"),
        "resilience.checkpoint.saves":
            len(tracer.by_name("resilience.checkpoint.save")),
        "resilience.checkpoint.load_s":
            tracer.busy_s("resilience.checkpoint.load"),
        "resilience.checkpoint.loads":
            len(tracer.by_name("resilience.checkpoint.load")),
    }


def metahipmer_metrics(tracer: Tracer) -> dict:
    from repro.metahipmer.stages import STAGE_ORDER

    return {f"metahipmer.stage.{n}_s": tracer.busy_s(f"metahipmer.stage.{n}")
            for n in STAGE_ORDER}


def serve_span_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Service-side numbers from the spans the service process wrote."""
    acks = {s.trace_id: s.end_ns for s in tracer.by_name("serve.service")
            if s.attrs.get("submit")}
    starts: dict[str, int] = {}
    for s in tracer.by_name("serve.worker"):
        for job in s.attrs.get("job_ids", ()):
            starts[job] = min(starts.get(job, s.start_ns), s.start_ns)
    waits = [(starts[j] - acks[j]) / 1e6 for j in starts if j in acks]
    journal = [s.seconds * 1e3 for s in tracer.by_name("serve.journal")]
    busy = tracer.busy_s("serve.worker")
    return {
        "serve.worker.busy_s": busy,
        "serve.worker.utilization": _ratio(busy, wall_s),
        "serve.batcher.queue_wait_ms_p50":
            percentile(waits, 50) if waits else 0.0,
        "serve.batcher.queue_wait_ms_p90":
            percentile(waits, 90) if waits else 0.0,
        "serve.journal.appends": len(journal),
        "serve.journal.append_ms_p50":
            percentile(journal, 50) if journal else 0.0,
        "serve.queue.in_flight_max": max(
            (s.attrs.get("in_flight", 0)
             for s in tracer.by_name("serve.queue")), default=0),
    }


def self_time_table(tracer: Tracer) -> list[str]:
    """Printable per-layer self-time table, busiest layer first."""
    rows = tracer.self_times()
    width = max((len(n) for n in rows), default=10)
    lines = [f"{'span':<{width}}  {'calls':>7}  {'total_s':>9}  "
             f"{'self_s':>9}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<{width}}  {row['calls']:>7}  "
                     f"{row['total_s']:>9.4f}  {row['self_s']:>9.4f}")
    return lines
