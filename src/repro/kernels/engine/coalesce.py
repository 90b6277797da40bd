"""Launch fusion: many small launch plans as one lockstep launch.

Warps are fully independent in this engine (each owns a disjoint slot
region of the fused :class:`~repro.kernels.vectortable.WarpHashTables`,
and every phase decision is warp-local), so the per-warp behaviour of a
fused launch is *bit-identical* to the same warp running solo. Both
drivers exploit that fusion invariance through one executor,
:class:`LaunchExecutor`:

* :meth:`LocalAssemblyKernel.run <repro.kernels.engine.simt.\
LocalAssemblyKernel.run>` feeds it the launch plans of one k (every
  bin, both ends) of one run;
* :func:`run_schedule_coalesced` feeds it the plans of N service jobs.

1. **Pack**: consecutive plans, in plan order, share a launch while it
   holds at most :data:`_FUSE_INSERTIONS` insertions. A launch holding
   one plan runs the phases directly on that plan's bus — no recorder,
   no attribution events, no replay.
2. **Execute fused**: the plans of a multi-plan launch are concatenated
   with :func:`~repro.kernels.engine.prepare.concat_batches` and run
   through construct + walk **once**, with ``defer_overflow`` on and the
   phases' attribution events enabled.
3. **Record by reduction**: :class:`_FusionRecorder` buffers the raw
   attribution warp arrays and turns them into per-segment count
   matrices in one vectorised pass (``searchsorted`` of every warp
   against the segment boundaries, then one ``bincount``) whenever the
   buffer passes :data:`_REDUCE_ELEMENTS`, and at the end of the launch.
   Evidence events (slot traces, sanitizer writes/reads/barriers) keep
   their arrays plus per-segment split points.
4. **Replay per plan**: each plan's solo event stream is re-emitted, in
   plan order, onto its own bus, visiting only the tokens in which the
   plan has lanes or evidence — so profiles, traffic, traces, replay
   stats and sanitizer verdicts are byte-identical to one launch per
   plan *by construction*. ``tests/kernels/test_fused_run_parity.py``
   and ``tests/kernels/test_coalesce_parity.py`` are the drift guards.

Overflow semantics per plan match the kernel's policy exactly:
``drop-contig`` and ``grow-retry`` settle each attempt with the same
bookkeeping as a direct launch (fused retry launches re-fuse only the
failing plans); under ``raise`` an overflowing plan is re-run alone on
its bus, so the identical :class:`~repro.errors.HashTableFullError` and
partial event stream come from the one-plan path. A coalesced job keeps
that error as :attr:`CoalescedJobResult.error`; its co-tenants are
unaffected.

Fault injection on coalesced runs is supported for the *wave-scoped,
fingerprint-scoped* kinds only (``worker-crash``, ``wave-stall``,
``launch-failure``): faults attributed to a job fingerprint fire
identically no matter how the wave was fused, bisected, or
re-dispatched, so chaos runs stay replayable. Kinds that mutate a
prepared batch or a finished profile (``table-pressure``,
``read-corruption``, ``degenerate-profile``) and launch-ordinal-scoped
specs are rejected with a clear :class:`~repro.errors.KernelError` —
fusion changes launch ordinals and batch layouts, so those faults could
not replay deterministically. (A solo run with an injector launches
every plan alone instead.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.extension import WALK_STATE_CODES, WalkState
from repro.errors import HashTableFullError, KernelError
from repro.genomics.contig import Contig, End
from repro.genomics.dna import decode_matrix, reverse_complement_matrix
from repro.hashing.opcount import hash_intops
from repro.kernels.engine.backend import KernelRunResult
from repro.kernels.engine.events import (
    BarrierSync,
    ContigDropped,
    ContigRetried,
    EventBus,
    LaunchDone,
    LaunchStarted,
    ProbeIteration,
    ProbeWarps,
    SlotAccess,
    SlotRead,
    SlotWrite,
    WalkStep,
    WalkStepWarps,
    WaveExecuted,
    WaveWarps,
)
from repro.kernels.engine.prepare import (
    Batch,
    PrepareCache,
    concat_batches,
    segmented_arange,
    subset_batch,
)
from repro.kernels.engine.schedule import (
    MISSING_CODE,
    LaunchConfig,
    SideArrays,
    merge_k_side,
    validate_k_schedule,
)
from repro.kernels.vectortable import SLOT_BYTES, WarpHashTables
from repro.resilience.policy import OverflowPolicy
from repro.simt.counters import KernelProfile

_MAX_LEN_CODE = np.int8(WALK_STATE_CODES[WalkState.MAX_LEN])

#: Consecutive plans share a launch while it holds at most this many
#: insertions. Above it a launch's per-element work dwarfs the fixed
#: per-wave and per-step cost that fusion amortizes, and fusing would
#: only hold more batches and tables in host memory at once.
_FUSE_INSERTIONS = 1 << 18

#: Attribution warp elements the recorder buffers before reducing them.
_REDUCE_ELEMENTS = 1 << 15


@dataclass
class CoalescedJobResult:
    """One job's outcome of a coalesced wave.

    Exactly one of ``result`` / ``error`` is set. When ``result`` is
    set, it — and ``replay`` / ``trace`` / ``sanitizer_report`` — are
    byte-identical to what a solo ``kernel.run_schedule`` call (and its
    ``last_replay`` / ``last_trace`` / ``last_sanitizer_report``
    attributes) would have produced for the same contigs.
    """

    result: KernelRunResult | None
    replay: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    sanitizer_report: object | None = None
    error: HashTableFullError | None = None


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------

# Token kinds of a fused launch's log. Count tokens own consecutive rows
# of the launch's count matrix; row 0 is the lane/walker count that
# decides whether a segment saw the event at all. Evidence tokens own
# one row: the segment's element count.
_CITER, _WAVE, _WITER, _WSTEP, _SLOTS, _SWRITE, _SREAD, _BARRIER = range(8)
_N_ROWS = np.array([7, 2, 2, 3, 1, 1, 1, 1], dtype=np.int64)
#: Count rows holding distinct warps rather than elements.
_DISTINCT_ROW = {_CITER: 1, _WAVE: 1}


class _LaunchRecord:
    """Everything one fused launch recorded, shared by its segments."""

    __slots__ = ("warp_base", "slot_base", "kinds", "rows", "counts",
                 "evidence")

    def __init__(self, warp_base: np.ndarray, slot_base: np.ndarray,
                 kinds: list[int], rows: list[int], counts: np.ndarray,
                 evidence: dict) -> None:
        self.warp_base = warp_base      # (n_segs + 1) fused warp offsets
        self.slot_base = slot_base      # (n_segs + 1) fused slot offsets
        self.kinds = np.asarray(kinds, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)  # first count row
        self.counts = counts            # (n_rows, n_segs) per-segment counts
        self.evidence = evidence        # token -> (event, split points)


class _FusionRecorder:
    """Subscriber turning a fused launch's events into per-segment counts.

    Count-bearing attribution events only append their warp arrays to a
    buffer; :meth:`_reduce` maps every buffered warp to its segment with
    one ``searchsorted`` against the segment warp boundaries and counts
    them with one ``bincount``, so the buffer never holds more than
    :data:`_REDUCE_ELEMENTS` elements. Evidence events keep the event
    and its per-segment split points; replay slices and rebases them to
    segment-local warp/slot numbering (a subtraction, because every
    segment owns contiguous warp and slot ranges). Which evidence classes
    are recorded follows what the replay buses want (``handled_events``
    is built accordingly — the phases' ``bus.wants`` gating then skips
    unrecorded evidence in the fused run too).
    """

    def __init__(self, want_slots: bool, want_writes: bool,
                 want_reads: bool, want_sync: bool) -> None:
        handled = [WaveWarps, ProbeWarps, WalkStepWarps]
        if want_slots:
            handled.append(SlotAccess)
        if want_writes:
            handled.append(SlotWrite)
        if want_reads:
            handled.append(SlotRead)
        if want_sync:
            handled.append(BarrierSync)
        self.handled_events = tuple(handled)
        self._warp_base: np.ndarray | None = None
        self._buffered = 0

    def begin_launch(self, warp_base: np.ndarray,
                     tables: WarpHashTables) -> None:
        self._warp_base = warp_base
        self._slot_base = tables.offsets[warp_base]
        self._kinds: list[int] = []
        self._rows: list[int] = []
        self._n_rows = 0
        self._reduced_rows = 0
        self._parts: list[tuple] = []   # (chunk row, warp array)
        self._runs: list[tuple] = []
        self._buffered = 0
        self._leads: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._evidence: dict = {}

    def end_launch(self) -> _LaunchRecord:
        if self._warp_base is None:
            raise KernelError("end_launch without a matching begin_launch")
        self._reduce()
        n_segs = self._warp_base.size - 1
        counts = (np.concatenate(self._chunks) if self._chunks
                  else np.zeros((0, n_segs), dtype=np.int64))
        rec = _LaunchRecord(self._warp_base, self._slot_base, self._kinds,
                            self._rows, counts, self._evidence)
        self._warp_base = None
        self._chunks, self._evidence = [], {}
        return rec

    # -- buffering -----------------------------------------------------

    def _token(self, kind: int) -> int:
        row = self._n_rows
        self._kinds.append(kind)
        self._rows.append(row)
        self._n_rows += int(_N_ROWS[kind])
        return row

    def _count(self, kind: int, arrays: tuple) -> None:
        n = sum(a.size for a in arrays)
        if self._buffered + n > _REDUCE_ELEMENTS:
            self._reduce()
        row = self._token(kind) - self._reduced_rows
        runs = _DISTINCT_ROW.get(kind, -1)
        for j, a in enumerate(arrays):
            if a.size:
                (self._runs if j == runs else self._parts).append((row + j, a))
        self._buffered += n
        if self._buffered > _REDUCE_ELEMENTS:  # one oversized event
            self._reduce()

    def _evidence_split(self, kind: int, event, ptr: np.ndarray) -> None:
        row = self._token(kind)
        self._evidence[len(self._kinds) - 1] = (event, ptr)
        self._leads.append((row - self._reduced_rows, np.diff(ptr)))

    def _reduce(self) -> None:
        """Fold the buffer into one (rows, segments) count chunk.

        ``_parts`` count every element; ``_runs`` are warp-sorted arrays
        whose rows count distinct warps, so only each run's first
        element counts.
        """
        lo, hi = self._reduced_rows, self._n_rows
        n_segs = self._warp_base.size - 1
        keys = []
        for parts, runs in ((self._parts, False), (self._runs, True)):
            if not parts:
                continue
            warps = np.concatenate([a for _, a in parts])
            rows = np.repeat(np.asarray([r for r, _ in parts], dtype=np.int64),
                             [a.size for _, a in parts])
            if runs:
                first = np.ones(warps.size, dtype=bool)
                first[1:] = (warps[1:] != warps[:-1]) | (rows[1:] != rows[:-1])
                warps, rows = warps[first], rows[first]
            seg = np.searchsorted(self._warp_base, warps, side="right") - 1
            keys.append(rows * n_segs + seg)
        flat = np.bincount(np.concatenate(keys) if keys
                           else np.empty(0, dtype=np.int64),
                           minlength=(hi - lo) * n_segs)
        chunk = flat.reshape(hi - lo, n_segs)
        for row, lead in self._leads:
            chunk[row] = lead
        self._chunks.append(chunk)
        self._reduced_rows = hi
        self._parts, self._runs, self._leads = [], [], []
        self._buffered = 0

    def handle(self, event, bus) -> None:
        if self._warp_base is None:
            return
        t = type(event)
        if t is ProbeWarps:
            if event.phase == "construct":
                self._count(_CITER, (
                    event.pending_warps, event.pending_warps,
                    event.compare_warps, event.cas_warps,
                    event.matched_warps, event.claimed_warps,
                    event.merged_warps))
            else:
                self._count(_WITER, (event.pending_warps,
                                     event.compare_warps))
        elif t is WaveWarps:
            self._count(_WAVE, (event.lane_warps, event.lane_warps))
        elif t is WalkStepWarps:
            self._count(_WSTEP, (event.walker_warps, event.vote_read_warps,
                                 event.commit_warps))
        elif t is SlotAccess:
            # Not globally sorted (a warp's slots arrive in probe order),
            # but every segment boundary partitions the array, so
            # per-boundary binary search is exact.
            self._evidence_split(_SLOTS, event, np.searchsorted(
                event.slots, self._slot_base))
        elif t is SlotWrite or t is SlotRead or t is BarrierSync:
            kind = (_SWRITE if t is SlotWrite
                    else _SREAD if t is SlotRead else _BARRIER)
            self._evidence_split(kind, event, np.searchsorted(
                event.warps, self._warp_base))


def _replay_events(launch: _LaunchRecord, s: int, bus: EventBus,
                   state_codes: np.ndarray) -> LaunchDone:
    """Re-emit segment ``s``'s solo event stream from a fused token log.

    Visits only the tokens in which the segment has lanes or evidence —
    exactly the events the solo loops would have emitted — and returns
    the segment's ``LaunchDone``.
    """
    counts = launch.counts
    vis = np.nonzero(counts[launch.rows, s])[0]
    kinds = launch.kinds[vis]
    n_rows = _N_ROWS[kinds]
    vals = counts[np.repeat(launch.rows[vis], n_rows)
                  + segmented_arange(n_rows), s].tolist()
    wb, sb = int(launch.warp_base[s]), int(launch.slot_base[s])
    waves = citers = wsteps = witers = 0
    i = 0
    for tok, kind in zip(vis.tolist(), kinds.tolist()):
        if kind == _CITER:
            lanes, warps, compares, cas, matched, claimed, merged = \
                vals[i:i + 7]
            bus.emit(ProbeIteration(
                phase="construct", lanes=lanes, warps=warps,
                key_compares=compares, cas_attempts=cas,
                votes_matched=matched, votes_claimed=claimed,
                votes_merged=merged))
            citers += 1
        elif kind == _WAVE:
            bus.emit(WaveExecuted(lanes=vals[i], warps=vals[i + 1]))
            waves += 1
        elif kind == _WITER:
            bus.emit(ProbeIteration(phase="walk", lanes=vals[i],
                                    warps=vals[i],
                                    key_compares=vals[i + 1]))
            witers += 1
        elif kind == _WSTEP:
            bus.emit(WalkStep(walkers=vals[i], vote_reads=vals[i + 1],
                              bases_committed=vals[i + 2]))
            wsteps += 1
        else:
            ev, ptr = launch.evidence[tok]
            sl = slice(ptr[s], ptr[s + 1])
            if kind == _SLOTS:
                bus.emit(SlotAccess(slots=ev.slots[sl] - sb, kind=ev.kind))
            elif kind == _SWRITE:
                bus.emit(SlotWrite(
                    phase=ev.phase, kind=ev.kind, slots=ev.slots[sl] - sb,
                    warps=ev.warps[sl] - wb,
                    lanes=ev.lanes[sl] if ev.lanes is not None else None,
                    atomic=ev.atomic))
            elif kind == _SREAD:
                bus.emit(SlotRead(phase=ev.phase, kind=ev.kind,
                                  slots=ev.slots[sl] - sb,
                                  warps=ev.warps[sl] - wb))
            else:
                bus.emit(BarrierSync(phase=ev.phase, warps=ev.warps[sl] - wb,
                                     mask_lanes=ev.mask_lanes[sl],
                                     active_lanes=ev.active_lanes[sl]))
        i += int(_N_ROWS[kind])
    # The max_walk_len cutoff step runs without emitting a WalkStep
    # (the solo loop breaks first) but still counts as a walk step; any
    # MAX_LEN terminal in this segment proves it had walkers alive at
    # the cutoff.
    if bool((state_codes == _MAX_LEN_CODE).any()):
        wsteps += 1
    return LaunchDone(waves=waves, construct_iterations=citers,
                      walk_steps=wsteps, walk_iterations=witers)


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------


@dataclass
class LaunchTarget:
    """Where one run's plans land: its bus and its result arrays.

    A solo :meth:`run` has one target; a coalesced k-run has one per job.
    ``error`` is set only when the executor captures overflow errors
    (coalesced jobs); a target with an error takes no further plans.
    """

    bus: EventBus
    right: SideArrays
    left: SideArrays
    degraded: set = field(default_factory=set)
    retried: set = field(default_factory=set)
    error: HashTableFullError | None = None


@dataclass
class _Attempt:
    """One plan's share of one fused launch (one overflow attempt)."""

    sub: Batch                      # the plan's batch for this attempt
    launch: _LaunchRecord           # shared token log of the fused launch
    pos: int                        # this plan's segment in the launch
    attempt: int                    # 0-based attempt index
    base_codes: np.ndarray          # walk output slices for the scatter
    base_lens: np.ndarray
    state_codes: np.ndarray
    failed: list[int]               # overflowed warps, plan-local, sorted
    retry: tuple | None             # (grown capacities, retry batch)


@dataclass
class _Plan:
    """One prepared launch plan queued for execution."""

    target: LaunchTarget
    end: End
    sub: Batch
    attempts: list[_Attempt] = field(default_factory=list)


class LaunchExecutor:
    """Packs prepared plans into launches and settles them on their targets.

    Plans are :meth:`add` -ed in plan order and packed greedily: a plan
    joins the open launch while the launch holds at most
    :data:`_FUSE_INSERTIONS` insertions (``fuse=False`` gives every plan
    its own launch). :meth:`flush` runs what is still open. Every plan
    reaches its target's bus as the event stream, scatter and
    drop/retry bookkeeping of one direct launch, whether it ran alone
    or fused. ``capture_errors`` keeps a ``raise``-policy overflow on the
    plan's target instead of raising it.
    """

    def __init__(self, kernel, k: int, wants_bus: EventBus, *,
                 capture_errors: bool = False, fuse: bool = True) -> None:
        self.kernel = kernel
        self.k = k
        self.ops = hash_intops(k)
        self.with_ids = bool(kernel.sanitize_checks)
        self.capture_errors = capture_errors
        self.budget = _FUSE_INSERTIONS if fuse else 0
        self.overflow_policy = kernel.overflow_policy
        defer = self.overflow_policy is not OverflowPolicy.RAISE
        self.construct = kernel.construct_cls(kernel.protocol,
                                              kernel.warp_size,
                                              defer_overflow=defer)
        self.walker = kernel.walk_cls(kernel.policy, kernel.max_walk_len,
                                      kernel.seed, defer_overflow=defer)
        self._wants_bus = wants_bus
        self._fused: tuple | None = None
        self._pack: list[_Plan] = []
        self._pack_ins = 0

    def add(self, target: LaunchTarget, end: End, sub: Batch) -> None:
        """Queue one prepared plan; runs the open launch when it is full."""
        n = int(sub.ins_warp.size)
        if self._pack and self._pack_ins + n > self.budget:
            self.flush()
        self._pack.append(_Plan(target, end, sub))
        self._pack_ins += n
        if self._pack_ins >= self.budget:
            self.flush()

    def flush(self) -> None:
        """Run the open launch."""
        pack = [p for p in self._pack if p.target.error is None]
        self._pack, self._pack_ins = [], 0
        if len(pack) == 1:
            self._run_direct(pack[0])
        elif pack:
            self._run_fused(pack)

    # ------------------------------------------------------------------

    def _context(self, sub: Batch) -> LaunchStarted:
        """The LaunchStarted of a direct launch of ``sub``."""
        total_slots = int(sub.capacities.sum())
        return LaunchStarted(
            k=self.k, hash_ops=self.ops, n_warps=sub.n_warps,
            mean_table_bytes=float(np.mean(sub.capacities)) * SLOT_BYTES,
            mean_read_bytes=float(np.mean(sub.read_bytes_per_warp)),
            cold_footprint_bytes=total_slots * SLOT_BYTES + 2 * sub.codes.size,
            total_slots=total_slots,
            contig_ids=(tuple(int(ci) for ci in sub.contig_ids)
                        if self.with_ids else ()),
        )

    def _retry(self, sub: Batch, failed: list[int], attempt: int):
        """``(grown capacities, retry batch)`` if grow-retry applies."""
        kernel = self.kernel
        if (self.overflow_policy is not OverflowPolicy.GROW_RETRY
                or attempt >= kernel.max_grow_attempts):
            return None
        caps = sub.capacities[failed]
        grown = np.maximum(caps + 1,
                           np.ceil(caps * kernel.grow_factor).astype(np.int64))
        return grown, subset_batch(sub, failed, grown)

    def _settle(self, plan: _Plan, sub: Batch, attempt: int,
                base_codes: np.ndarray, base_lens: np.ndarray,
                state_codes: np.ndarray, failed: list[int],
                retry) -> None:
        """Scatter one attempt's accepted walks; retry or drop its failures.

        The left end's walks reverse-complement as one matrix gather and
        every accepted walk decodes in one batched call.
        """
        t = plan.target
        arr = t.right if plan.end is End.RIGHT else t.left
        ok = np.ones(sub.n_warps, dtype=bool)
        if failed:
            ok[failed] = False
        cis = np.asarray(sub.contig_ids, dtype=np.int64)[ok]
        if cis.size:
            lens = base_lens[ok]
            mat = base_codes[ok]
            if plan.end is not End.RIGHT:
                mat = reverse_complement_matrix(mat, lens)
            arr.text[cis] = decode_matrix(mat, lens)
            arr.lens[cis] = lens
            arr.state_codes[cis] = state_codes[ok]
        if not failed:
            return
        bus = t.bus
        if retry is not None:
            for w, cap in zip(failed, retry[0]):
                bus.emit(ContigRetried(contig_id=sub.contig_ids[w], k=self.k,
                                       attempt=attempt + 1,
                                       capacity=int(cap)))
                t.retried.add(sub.contig_ids[w])
            return
        end_name = "right" if plan.end is End.RIGHT else "left"
        for w in failed:
            ci = sub.contig_ids[w]
            bus.emit(ContigDropped(contig_id=ci, k=self.k, end=end_name,
                                   capacity=int(sub.capacities[w])))
            t.degraded.add(ci)
            arr.text[ci] = ""
            arr.lens[ci] = 0
            arr.state_codes[ci] = MISSING_CODE

    def _run_direct(self, plan: _Plan) -> None:
        """Launch one plan (and its grow-retries) straight on its bus."""
        bus = plan.target.bus
        sub = plan.sub
        attempt = 0
        while sub is not None:
            tables = WarpHashTables(sub.capacities, self.k)
            bus.emit(self._context(sub))
            try:
                cres = self.construct.run(sub, tables, bus)
                wres = self.walker.run(sub, tables, bus)
            except HashTableFullError as exc:
                if not self.capture_errors:
                    raise
                plan.target.error = exc
                return
            bus.emit(LaunchDone(
                waves=cres.waves, construct_iterations=cres.iterations,
                walk_steps=wres.steps, walk_iterations=wres.iterations,
            ))
            failed = sorted(set(cres.overflowed) | set(wres.overflowed))
            retry = self._retry(sub, failed, attempt) if failed else None
            self._settle(plan, sub, attempt, wres.base_codes, wres.base_lens,
                         wres.state_codes, failed, retry)
            sub = retry[1] if retry is not None else None
            attempt += 1

    def _fused_stack(self) -> tuple:
        if self._fused is None:
            kernel, wants = self.kernel, self._wants_bus
            recorder = _FusionRecorder(
                want_slots=wants.wants(SlotAccess),
                want_writes=wants.wants(SlotWrite),
                want_reads=wants.wants(SlotRead),
                want_sync=wants.wants(BarrierSync),
            )
            bus = EventBus()
            bus.subscribe(recorder)
            self._fused = (
                kernel.construct_cls(kernel.protocol, kernel.warp_size,
                                     defer_overflow=True, attribution=True),
                kernel.walk_cls(kernel.policy, kernel.max_walk_len,
                                kernel.seed, defer_overflow=True,
                                attribution=True),
                recorder, bus)
        return self._fused

    def _run_fused(self, pack: list[_Plan]) -> None:
        """Run a multi-plan launch once, then replay every plan in order."""
        construct, walker, recorder, fbus = self._fused_stack()
        raising = self.overflow_policy is OverflowPolicy.RAISE
        live = pack
        attempt = 0
        while live:
            fused, warp_base = concat_batches([p.sub for p in live])
            tables = WarpHashTables(fused.capacities, self.k)
            recorder.begin_launch(warp_base, tables)
            cres = construct.run(fused, tables, fbus)
            wres = walker.run(fused, tables, fbus)
            launch = recorder.end_launch()
            over = np.union1d(np.asarray(cres.overflowed, dtype=np.int64),
                              np.asarray(wres.overflowed, dtype=np.int64))
            owner = np.searchsorted(warp_base, over, side="right") - 1
            retrying: list[_Plan] = []
            for pos, p in enumerate(live):
                lo, hi = int(warp_base[pos]), int(warp_base[pos + 1])
                failed = (over[owner == pos] - lo).tolist()
                retry = (self._retry(p.sub, failed, attempt)
                         if failed and not raising else None)
                p.attempts.append(_Attempt(
                    sub=p.sub, launch=launch, pos=pos, attempt=attempt,
                    base_codes=wres.base_codes[lo:hi],
                    base_lens=wres.base_lens[lo:hi],
                    state_codes=wres.state_codes[lo:hi],
                    failed=failed, retry=retry))
                if retry is not None:
                    p.sub = retry[1]
                    retrying.append(p)
            live = retrying
            attempt += 1
        for p in pack:
            attempts, p.attempts = p.attempts, []
            if p.target.error is not None:
                continue
            if raising and attempts[0].failed:
                # the one-plan path raises the solo error after the
                # solo partial stream
                self._run_direct(p)
                continue
            for a in attempts:
                bus = p.target.bus
                bus.emit(self._context(a.sub))
                bus.emit(_replay_events(a.launch, a.pos, bus, a.state_codes))
                self._settle(p, a.sub, a.attempt, a.base_codes, a.base_lens,
                             a.state_codes, a.failed, a.retry)


# ----------------------------------------------------------------------
# multi-tenant driver
# ----------------------------------------------------------------------


class _JobState:
    """Accumulated schedule state of one coalesced job."""

    def __init__(self, contigs: list[Contig], cache: PrepareCache,
                 first_k: int) -> None:
        self.contigs = contigs
        self.n = len(contigs)
        self.cache = cache
        self.best_r = SideArrays.empty(self.n)
        self.best_l = SideArrays.empty(self.n)
        self.settled_r = np.zeros(self.n, dtype=bool)
        self.settled_l = np.zeros(self.n, dtype=bool)
        # every field of an empty profile is an identity for ``merge``
        self.merged_profile = KernelProfile()
        self.degraded: set[int] = set()
        self.retried: set[int] = set()
        self.replay: list = []
        self.traces: list = []
        self.reports: list = []
        self.error: HashTableFullError | None = None
        self.last_k = first_k

    @property
    def done(self) -> bool:
        return (self.error is not None
                or (bool(self.settled_r.all()) and bool(self.settled_l.all())))


#: Fault kinds whose effects depend on launch ordinals or batch layout —
#: both change under fusion, so these cannot replay deterministically.
_COALESCE_UNSUPPORTED_FAULTS = frozenset({
    "table-pressure", "read-corruption", "degenerate-profile",
})


def _validate_coalesced_injector(injector, n_jobs: int,
                                 fingerprints: list[str] | None) -> None:
    """Reject fault plans that cannot fire deterministically under fusion."""
    unsupported = sorted({
        spec.kind.value for spec in injector.plan.faults
        if spec.kind.value in _COALESCE_UNSUPPORTED_FAULTS})
    if unsupported:
        raise KernelError(
            "coalesced execution does not support fault kinds "
            f"{unsupported}: they mutate batch layouts or profiles that "
            "fusion rearranges; scope chaos by job fingerprint with "
            "worker-crash / wave-stall / launch-failure instead")
    if any(spec.launch is not None for spec in injector.plan.faults):
        raise KernelError(
            "launch-ordinal-scoped faults are not replayable under "
            "fusion (ordinals depend on how jobs were coalesced); "
            "scope the spec by job fingerprint instead")
    if fingerprints is not None and len(fingerprints) != n_jobs:
        raise KernelError("fingerprints must align with jobs")


def run_schedule_coalesced(
    kernel,
    jobs: list[list[Contig]],
    k_schedule: tuple[int, ...] = (21, 33, 55, 77),
    parallel_scale: float = 1.0,
    prep_caches: list | None = None,
    fingerprints: list[str] | None = None,
) -> list[CoalescedJobResult]:
    """Run N jobs' k-schedules as fused multi-tenant launch waves.

    Results (outputs, profiles, overflow sets, traces, sanitizer
    verdicts) are byte-identical to ``kernel.run_schedule(job, ...)``
    run per job. ``prep_caches`` optionally supplies one prepare cache
    per job (e.g. :meth:`PrepareCache.scoped` views of a store shared
    across service requests); the default is a fresh solo-equivalent
    cache per job. ``fingerprints`` optionally names each job (the
    serve tier passes request fingerprints) so a seeded
    :class:`~repro.resilience.FaultInjector` on the kernel can attribute
    wave-scoped faults per job; an injector whose plan contains kinds
    that cannot replay under fusion is rejected up front.
    """
    if not jobs:
        raise KernelError("run_schedule_coalesced needs at least one job")
    for j, contigs in enumerate(jobs):
        if not contigs:
            raise KernelError(f"coalesced job {j} has no contigs")
    if prep_caches is not None and len(prep_caches) != len(jobs):
        raise KernelError("prep_caches must align with jobs")
    if kernel.fault_injector is not None:
        _validate_coalesced_injector(kernel.fault_injector, len(jobs),
                                     fingerprints)
        # may raise InjectedCrashError (fatal) or BackendLaunchError
        # (transient) before any launch — whole-wave faults, attributed
        # by fingerprint, absorbed by the serve supervisor's bisection
        kernel.fault_injector.begin_wave(list(fingerprints or []))
    validate_k_schedule(k_schedule)
    if parallel_scale <= 0 or parallel_scale > 1:
        raise KernelError(
            f"parallel_scale must be in (0, 1], got {parallel_scale}")

    states = [
        _JobState(contigs,
                  prep_caches[j] if prep_caches is not None else PrepareCache(),
                  k_schedule[0])
        for j, contigs in enumerate(jobs)
    ]
    # reserve at most ~25% of HBM for tables in one launch (solo default)
    max_batch_insertions = int(
        kernel.device.hbm_bytes * 0.25 * kernel.load_factor / SLOT_BYTES)
    config = LaunchConfig(depth_ratio=2.0,
                          max_batch_insertions=max_batch_insertions,
                          load_factor=kernel.load_factor)

    for k in k_schedule:
        active = [s for s in states if not s.done]
        if not active:
            break
        runs = []
        for s in active:
            s.last_k = k
            profile = KernelProfile(warp_size=kernel.warp_size)
            profile.walk_issue_width = (1 if kernel.lane_parallel_walks
                                        else kernel.warp_size)
            profile.contigs = s.n
            bus, _, tracer, replayer, sanitizer = kernel._build_bus(
                profile, parallel_scale)
            target = LaunchTarget(bus, SideArrays.empty(s.n),
                                  SideArrays.empty(s.n))
            runs.append((s, target, profile, tracer, replayer, sanitizer))
        # every job's bus is built alike, so any one decides what the
        # fused launches must record
        executor = LaunchExecutor(kernel, k, runs[0][1].bus,
                                  capture_errors=True)
        for s, target, *_ in runs:
            for plan in kernel.launch_policy.plan(s.contigs, k, config):
                if target.error is not None:
                    break
                sub = kernel.preparer.prepare(s.contigs, plan.bin, plan.end,
                                              k, cache=s.cache)
                executor.add(target, plan.end, sub)
        executor.flush()
        for s, target, profile, tracer, replayer, sanitizer in runs:
            if target.error is not None:
                s.error = target.error
                continue
            s.merged_profile.merge(profile)
            merge_k_side(target.right, s.best_r, s.settled_r)
            merge_k_side(target.left, s.best_l, s.settled_l)
            s.degraded |= target.degraded
            s.retried |= target.retried
            if tracer is not None:
                s.traces = tracer.traces
            if replayer is not None:
                s.replay.extend(replayer.launches)
            if sanitizer is not None:
                s.reports.append(sanitizer.report)

    results: list[CoalescedJobResult] = []
    for s in states:
        if s.error is not None:
            results.append(CoalescedJobResult(result=None, error=s.error))
            continue
        merged = s.merged_profile
        merged.contigs = s.n
        merged.prep_cache_hits = s.cache.hits
        merged.prep_cache_misses = s.cache.misses
        merged.prep_cache_evictions = s.cache.evictions
        report = None
        if kernel.sanitize_checks and s.reports:
            from repro.sanitize.report import SanitizerReport
            report = SanitizerReport(max_findings=s.reports[0].max_findings)
            for rep in s.reports:
                report.extend(rep)
        res = KernelRunResult(device=kernel.device, k=s.last_k,
                              profile=merged,
                              right=s.best_r.to_side(),
                              left=s.best_l.to_side(),
                              degraded=sorted(s.degraded),
                              retried=sorted(s.retried))
        results.append(CoalescedJobResult(result=res, replay=s.replay,
                                          trace=s.traces,
                                          sanitizer_report=report))
    return results
