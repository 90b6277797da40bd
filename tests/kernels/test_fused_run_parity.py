"""Fused solo runs against the one-launch-per-plan scalar oracle.

:meth:`LocalAssemblyKernel.run` packs the small launch plans of one k
(every bin, both ends) into fused lockstep launches and replays each
plan's solo event stream from them (DESIGN.md decision 21). Nothing
observable may change: these tests drive the production kernels and
:func:`~repro.kernels.engine.oracle_kernel_cls` — which launches every
plan alone through the pre-refactor scalar phases — over the same
inputs and require identical extensions, profiles, overflow sets,
traces, replay stats, sanitizer findings and the *full* event stream,
event by event and array by array. Under the ``raise`` policy both must
raise the same error after the same events.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.engine.coalesce as coalesce
from repro.core.binning import Bin
from repro.core.extension import PRODUCTION_POLICY
from repro.errors import HashTableFullError
from repro.genomics.contig import End
from repro.genomics.simulate import ErrorProfile, ScenarioSpec, simulate_batch
from repro.kernels import (
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    SyclLocalAssemblyKernel,
)
from repro.kernels.engine import BatchPreparer, oracle_kernel_cls
from repro.kernels.engine.oracle import OracleBatchPreparer
from repro.kernels.engine.schedule import LaunchPlan
from repro.resilience.checkpoint import profile_to_dict
from repro.simt.device import A100, MAX1550, MI250X

PORTS = [(CudaLocalAssemblyKernel, A100), (HipLocalAssemblyKernel, MI250X),
         (SyclLocalAssemblyKernel, MAX1550)]


def _canon(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_canon(v) for v in value)
    return value


class EventLog:
    """Records every event with all its fields; declares no
    ``handled_events``, so every gated event is emitted."""

    def __init__(self):
        self.events = []
        self._fields = {}

    def handle(self, event, bus):
        t = type(event)
        names = self._fields.get(t)
        if names is None:
            names = self._fields[t] = [f.name for f in dataclasses.fields(t)]
        self.events.append((t.__name__, tuple(
            _canon(getattr(event, n)) for n in names)))


class ChunkPolicy:
    """``n_bins`` consecutive contig chunks, each launched per end."""

    def __init__(self, n_bins):
        self.n_bins = n_bins

    def plan(self, contigs, k, config):
        chunks = np.array_split(np.arange(len(contigs)), self.n_bins)
        return [LaunchPlan(bin=Bin(contig_indices=c.tolist()), end=end, k=k)
                for c in chunks if c.size
                for end in (End.RIGHT, End.LEFT)]


def _starved(preparer_cls, cap):
    class Starved(preparer_cls):
        def prepare(self, contigs, bin_, end, k, cache=None):
            batch = super().prepare(contigs, bin_, end, k, cache=cache)
            return dataclasses.replace(
                batch, capacities=np.minimum(batch.capacities, cap))
    return Starved


def _kernels(kernel_cls, cap):
    """(production, oracle) classes, both starved to ``cap`` if set."""
    prod, oracle = kernel_cls, oracle_kernel_cls(kernel_cls)
    if cap is None:
        return prod, oracle
    prod = type("StarvedProd", (prod,),
                {"preparer_cls": _starved(BatchPreparer, cap)})
    oracle = type("StarvedOracle", (oracle,),
                  {"preparer_cls": _starved(OracleBatchPreparer, cap)})
    return prod, oracle


def _contigs(n, seed, error_rate):
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(contig_length=120, flank_length=50, read_length=70,
                        depth=int(rng.integers(3, 9)), seed_window=35)
    errors = ErrorProfile(error_rate=error_rate,
                          lo_quality_fraction=0.1 if error_rate else 0.0)
    return [sc.contig for sc in simulate_batch(n, spec, rng, errors)]


def _drive(kernel, method, contigs, arg):
    log = kernel.add_subscriber(EventLog())
    try:
        res = getattr(kernel, method)(contigs, arg)
    except HashTableFullError as exc:
        return dict(err=exc, events=log.events)
    return dict(err=None, events=log.events, res=res,
                trace=list(kernel.last_trace),
                replay=list(kernel.last_replay),
                report=kernel.last_sanitizer_report)


def assert_same(fused, oracle):
    assert fused["events"] == oracle["events"]
    if oracle["err"] is not None:
        a, b = fused["err"], oracle["err"]
        assert a is not None
        assert (str(a), a.contig_id, a.k, a.capacity, a.probes) \
            == (str(b), b.contig_id, b.k, b.capacity, b.probes)
        return
    assert fused["err"] is None
    r, o = fused["res"], oracle["res"]
    assert (r.right, r.left, r.k, r.degraded, r.retried) \
        == (o.right, o.left, o.k, o.degraded, o.retried)
    assert profile_to_dict(r.profile) == profile_to_dict(o.profile)
    assert _canon(fused["trace"]) == _canon(oracle["trace"])
    assert fused["replay"] == oracle["replay"]
    if oracle["report"] is not None:
        assert fused["report"].findings == oracle["report"].findings


def run_both(port, contigs, method, arg, *, n_bins, cap=None, **opts):
    kernel_cls, device = port
    prod_cls, oracle_cls = _kernels(kernel_cls, cap)
    record = opts.pop("record_trace", False)
    out = []
    for cls in (prod_cls, oracle_cls):
        kern = cls(device, policy=PRODUCTION_POLICY,
                   launch_policy=ChunkPolicy(n_bins), **opts)
        kern.record_trace = record
        out.append(_drive(kern, method, contigs, arg))
    assert_same(*out)
    return out[0]


@pytest.fixture
def count_fused(monkeypatch):
    """Counts fused (multi-plan) launches."""
    calls = []
    original = coalesce.LaunchExecutor._run_fused

    def spy(self, pack):
        calls.append(len(pack))
        return original(self, pack)

    monkeypatch.setattr(coalesce.LaunchExecutor, "_run_fused", spy)
    return calls


class TestFusedRunParity:
    @settings(max_examples=15, deadline=None)
    @given(port=st.sampled_from(PORTS), n=st.integers(1, 7),
           n_bins=st.integers(1, 6), seed=st.integers(0, 2**16),
           err=st.sampled_from([0.0, 0.01, 0.03]),
           method=st.sampled_from(["run", "run_schedule"]),
           max_walk_len=st.sampled_from([4, 30, 300]))
    def test_hypothesis_parity(self, port, n, n_bins, seed, err, method,
                               max_walk_len):
        contigs = _contigs(n, seed, err)
        arg = 21 if method == "run" else (21, 33)
        run_both(port, contigs, method, arg, n_bins=n_bins,
                 max_walk_len=max_walk_len)

    @settings(max_examples=8, deadline=None)
    @given(port=st.sampled_from(PORTS), n_bins=st.integers(1, 4),
           seed=st.integers(0, 2**16), cap=st.integers(16, 48),
           policy=st.sampled_from(["drop-contig", "grow-retry", "raise"]))
    def test_overflow_parity(self, port, n_bins, seed, cap, policy):
        contigs = _contigs(4, seed, 0.02)
        run_both(port, contigs, "run_schedule", (21, 33), n_bins=n_bins,
                 cap=cap, overflow_policy=policy)

    @settings(max_examples=4, deadline=None)
    @given(port=st.sampled_from(PORTS), n_bins=st.integers(2, 4),
           seed=st.integers(0, 2**16),
           cap=st.sampled_from([None, 20, 40]),
           policy=st.sampled_from(["drop-contig", "grow-retry", "raise"]))
    def test_instrumented_parity(self, port, n_bins, seed, cap, policy):
        """sanitize="all", the trace memory model and recorded traces."""
        contigs = _contigs(4, seed, 0.01)
        run_both(port, contigs, "run_schedule", (21, 33), n_bins=n_bins,
                 cap=cap, overflow_policy=policy, sanitize="all",
                 memory_model="trace", record_trace=True)

    def test_small_runs_fuse(self, count_fused):
        """The parity above covers the fused path: small plans fuse."""
        contigs = _contigs(6, 3, 0.01)
        run_both(PORTS[0], contigs, "run", 21, n_bins=3)
        assert count_fused == [6]

    def test_walks_cut_at_max_walk_len(self, count_fused):
        """Walks alive at the length cap take one more (event-less) step."""
        contigs = _contigs(6, 3, 0.0)
        out = run_both(PORTS[0], contigs, "run", 21, n_bins=3, max_walk_len=3)
        assert count_fused == [6]
        assert any(s.name == "MAX_LEN" for _, s in out["res"].right)

    def test_raise_reruns_the_overflowing_plan_alone(self, count_fused):
        contigs = _contigs(6, 5, 0.02)
        out = run_both(PORTS[0], contigs, "run", 21, n_bins=3, cap=20,
                       overflow_policy="raise")
        assert out["err"] is not None and count_fused == [6]


class TestPacking:
    """Plans straddling the insertion budget pack differently but give
    the same results and events as one launch per plan."""

    def _plan_sizes(self, contigs, n_bins):
        kern = CudaLocalAssemblyKernel(A100, launch_policy=ChunkPolicy(n_bins))
        return [kern.preparer.prepare(contigs, p.bin, p.end, 21).ins_warp.size
                for p in kern.launch_policy.plan(contigs, 21, None)]

    @pytest.mark.parametrize("policy", ["drop-contig", "grow-retry"])
    def test_budget_boundaries(self, monkeypatch, count_fused, policy):
        contigs = _contigs(6, 11, 0.02)
        sizes = self._plan_sizes(contigs, 3)
        prefix = np.cumsum(sizes).tolist()
        # a plan exactly at the budget, a pair one insertion over it,
        # three plans exactly at it, and everything in one launch
        budgets = sorted({0, sizes[0], prefix[1] - 1, prefix[2], 1 << 18})

        def drive(budget):
            monkeypatch.setattr(coalesce, "_FUSE_INSERTIONS", budget)
            prod_cls, _ = _kernels(CudaLocalAssemblyKernel, 40)
            kern = prod_cls(A100, policy=PRODUCTION_POLICY,
                            launch_policy=ChunkPolicy(3),
                            overflow_policy=policy)
            return _drive(kern, "run", contigs, 21)

        alone = drive(0)
        assert count_fused == []
        for budget in budgets[1:]:
            del count_fused[:]
            fused = drive(budget)
            # greedy consecutive packing in plan order
            packs, cur, cur_n = [], 0, 0
            for n in sizes:
                if cur and cur_n + n > budget:
                    packs.append(cur)
                    cur, cur_n = 0, 0
                cur, cur_n = cur + 1, cur_n + n
                if cur_n >= budget:
                    packs.append(cur)
                    cur, cur_n = 0, 0
            if cur:
                packs.append(cur)
            assert count_fused == [p for p in packs if p > 1]
            assert_same(fused, alone)


class TestRecorderBound:
    def test_buffer_never_exceeds_bound(self, monkeypatch, count_fused):
        bound = 48
        monkeypatch.setattr(coalesce, "_REDUCE_ELEMENTS", bound)
        seen = []
        original = coalesce._FusionRecorder.handle

        def handle(self, event, bus):
            original(self, event, bus)
            seen.append(self._buffered)
            assert self._buffered <= bound

        monkeypatch.setattr(coalesce._FusionRecorder, "handle", handle)
        contigs = _contigs(6, 17, 0.02)
        run_both(PORTS[1], contigs, "run_schedule", (21, 33), n_bins=4,
                 sanitize="all", record_trace=True)
        assert count_fused and max(seen) > 0
