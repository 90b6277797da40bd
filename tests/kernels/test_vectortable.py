"""Tests for the vectorized per-warp hash tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashTableFullError, KernelError
from repro.genomics.simulate import ScenarioSpec, simulate_batch
from repro.kernels import CudaLocalAssemblyKernel
from repro.kernels.engine import EventBus
from repro.kernels.engine.schedule import LaunchConfig
from repro.kernels.vectortable import SLOT_BYTES, WarpHashTables
from repro.simt.device import A100


def _tables(caps=(8, 16), k=4):
    return WarpHashTables(np.array(caps, dtype=np.int64), k)


class TestLayout:
    def test_offsets(self):
        t = _tables((8, 16, 4))
        np.testing.assert_array_equal(t.offsets, [0, 8, 24, 28])
        assert t.total_slots == 28
        assert t.n_warps == 3

    def test_total_bytes(self):
        assert _tables((10,)).total_bytes == 10 * SLOT_BYTES

    def test_rejects_empty(self):
        with pytest.raises(KernelError):
            WarpHashTables(np.array([], dtype=np.int64), 4)

    def test_rejects_zero_capacity(self):
        with pytest.raises(KernelError):
            _tables((8, 0))

    def test_slot_of_wraps_modulo(self):
        t = _tables((8, 16))
        slots = t.slot_of(np.array([0, 1]), np.array([9, 17]), np.array([0, 0]))
        np.testing.assert_array_equal(slots, [1, 8 + 1])

    def test_slot_of_full_probe_raises(self):
        t = _tables((8,))
        with pytest.raises(HashTableFullError):
            t.slot_of(np.array([0]), np.array([0]), np.array([8]))


class TestOperations:
    def test_claim_and_inspect(self):
        t = _tables((8,))
        winners = t.claim(np.array([3, 3, 5]), np.array([11, 12, 13], dtype=np.uint64))
        np.testing.assert_array_equal(winners, [True, False, True])
        occ, fp = t.inspect(np.array([3, 5, 0]))
        np.testing.assert_array_equal(occ, [True, True, False])
        assert fp[0] == 11 and fp[1] == 13

    def test_vote_accumulates(self):
        t = _tables((8,))
        t.claim(np.array([2]), np.array([9], dtype=np.uint64))
        t.vote(np.array([2, 2, 2]), np.array([0, 0, 3], dtype=np.uint8),
               np.array([True, False, True]))
        hi, lo = t.votes_at(np.array([2]))
        assert hi[0, 0] == 1 and lo[0, 0] == 1 and hi[0, 3] == 1
        assert int(hi.sum() + lo.sum()) == 3

    def test_occupancy(self):
        t = _tables((4,))
        assert t.occupancy() == 0.0
        t.claim(np.array([0, 1]), np.array([1, 2], dtype=np.uint64))
        assert t.occupancy() == pytest.approx(0.5)

    def test_keys_per_warp(self):
        t = _tables((4, 4))
        t.claim(np.array([0, 1, 5]), np.array([1, 2, 3], dtype=np.uint64))
        np.testing.assert_array_equal(t.keys_per_warp(), [2, 1])

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
    def test_claims_are_exclusive(self, slots):
        """Property: a slot is claimed exactly once, first claimer wins."""
        t = _tables((8,))
        arr = np.array(slots)
        fps = np.arange(1, len(slots) + 1, dtype=np.uint64)
        winners = t.claim(arr, fps)
        for s in set(slots):
            first = slots.index(s)
            assert winners[first]
            assert t.fp[s] == fps[first]


class _DenseVotes:
    """Reference vote store: dense per-slot (hi_q, low_q) matrices."""

    def __init__(self, total):
        self.hi_q = np.zeros((total, 4), dtype=np.int64)
        self.low_q = np.zeros((total, 4), dtype=np.int64)

    def vote(self, slots, exts, hi):
        np.add.at(self.hi_q, (slots[hi], exts[hi]), 1)
        np.add.at(self.low_q, (slots[~hi], exts[~hi]), 1)


_vote_call = st.lists(
    st.tuples(st.integers(0, 39), st.integers(0, 3), st.booleans()),
    max_size=25)


class TestCompactVotes:
    """The compact vote store against a dense per-slot reference."""

    @staticmethod
    def _arrays(call):
        slots = np.array([c[0] for c in call], dtype=np.int64)
        exts = np.array([c[1] for c in call], dtype=np.uint8)
        his = np.array([c[2] for c in call], dtype=bool)
        return slots, exts, his

    @staticmethod
    def _check(t, ref):
        every = np.arange(t.total_slots)
        hi, lo = t.votes_at(every)
        np.testing.assert_array_equal(hi, ref.hi_q)
        np.testing.assert_array_equal(lo, ref.low_q)
        voted = np.flatnonzero(ref.hi_q.sum(1) + ref.low_q.sum(1))
        # one row per voted slot plus the shared zero row, which stays zero
        assert t.votes.shape == (voted.size + 1, 2, 4)
        assert not t.votes[0].any()
        assert np.unique(t.vote_row[voted]).size == voted.size
        assert not t.vote_row[np.setdiff1d(every, voted)].any()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_vote_call, max_size=12))
    def test_incremental_votes_match_dense(self, calls):
        """Many small ``vote`` calls (the oracle and demo path)."""
        t = _tables((8, 16, 16))
        ref = _DenseVotes(t.total_slots)
        for call in calls:
            slots, exts, his = self._arrays(call)
            t.vote(slots, exts, his)
            ref.vote(slots, exts, his)
            self._check(t, ref)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_vote_call, max_size=12))
    def test_one_flush_matches_incremental(self, calls):
        """One launch-sized flush lands the same totals as the calls."""
        t = _tables((8, 16, 16))
        ref = _DenseVotes(t.total_slots)
        parts = [self._arrays(call) for call in calls]
        if parts:
            t.vote(*(np.concatenate(a) for a in zip(*parts)))
        for slots, exts, his in parts:
            ref.vote(slots, exts, his)
        self._check(t, ref)

    def test_unvoted_slots_read_zeros(self):
        t = _tables((8,))
        t.claim(np.array([1]), np.array([5], dtype=np.uint64))
        hi, lo = t.votes_at(np.array([1, 3, 7]))
        assert hi.shape == lo.shape == (3, 4)
        assert not hi.any() and not lo.any()

    def test_empty_vote_is_a_no_op(self):
        t = _tables((8,))
        t.vote(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
               np.empty(0, dtype=bool))
        assert t.votes.shape == (1, 2, 4)
        assert not t.vote_row.any()

    def test_rows_follow_first_vote_order(self):
        t = _tables((8,))
        t.vote(np.array([6, 6]), np.array([1, 2], dtype=np.uint8),
               np.array([True, False]))
        t.vote(np.array([2, 6]), np.array([3, 1], dtype=np.uint8),
               np.array([False, True]))
        assert t.vote_row[6] == 1 and t.vote_row[2] == 2
        np.testing.assert_array_equal(t.votes[1], [[0, 0, 1, 0], [0, 2, 0, 0]])
        np.testing.assert_array_equal(t.votes[2], [[0, 0, 0, 1], [0, 0, 0, 0]])

    def test_launch_footprint(self):
        """After a real construct phase the tables hold at most 13 bytes
        per slot (fingerprint, occupied flag, vote row index), 32 bytes
        per voted slot, and the shared zero row."""
        spec = ScenarioSpec(contig_length=200, flank_length=60,
                            read_length=90, depth=8, seed_window=50)
        rng = np.random.default_rng(5)
        contigs = [sc.contig for sc in simulate_batch(8, spec, rng)]
        kernel = CudaLocalAssemblyKernel(A100)
        plan = kernel.launch_policy.plan(contigs, 21, LaunchConfig(
            depth_ratio=2.0, max_batch_insertions=1 << 30,
            load_factor=kernel.load_factor))[0]
        batch = kernel.preparer.prepare(contigs, plan.bin, plan.end, 21)
        tables = WarpHashTables(batch.capacities, 21)
        kernel.construct_cls(kernel.protocol, kernel.warp_size).run(
            batch, tables, EventBus())
        voted = int(np.count_nonzero(tables.vote_row))
        assert voted == int(tables.occupied.sum()) > 0
        # the vote buffer itself, growth slack included
        held = (tables.fp.nbytes + tables.occupied.nbytes
                + tables.vote_row.nbytes + tables._votes.nbytes)
        assert held <= 13 * tables.total_slots + 32 * voted + 32
        # the modeled device footprint is unchanged
        assert tables.total_bytes == SLOT_BYTES * tables.total_slots
