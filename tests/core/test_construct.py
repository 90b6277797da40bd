"""Tests for Algorithm 1 (hash-table construction) and table sizing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct import (
    build_table,
    build_table_for_contig,
    estimate_table_slots,
    insertions_for,
)
from repro.genomics.contig import Contig
from repro.genomics.dna import encode
from repro.genomics.reads import Read, ReadSet


def _reads(*seqs):
    return ReadSet([Read.from_strings(f"r{i}", s) for i, s in enumerate(seqs)])


class TestInsertionCount:
    def test_single_read(self):
        # L - k insertions (each inserted k-mer needs a following base)
        assert insertions_for(_reads("ACGTACGT"), 4) == 4

    def test_read_shorter_than_k(self):
        assert insertions_for(_reads("ACG"), 4) == 0

    def test_read_length_exactly_k(self):
        assert insertions_for(_reads("ACGT"), 4) == 0  # no extension base

    def test_table2_relation(self):
        """Table II consistency: reads of length L give ~L-k insertions each."""
        rs = _reads(*("ACGT" * 40 for _ in range(10)))  # 10 reads of 160
        assert insertions_for(rs, 21) == 10 * (160 - 21)

    @given(st.integers(1, 50), st.integers(1, 60))
    def test_formula(self, k, length):
        rs = _reads("A" * length)
        assert insertions_for(rs, k) == max(0, length - k)

    @given(st.lists(st.integers(0, 120), max_size=40),
           st.lists(st.integers(0, 120), max_size=5), st.integers(1, 80))
    def test_matches_generator_sum_across_appends(self, lengths, more, k):
        """The length-array count equals the per-read generator sum, and
        ``append`` invalidates the cached lengths."""
        rs = _reads(*("C" * n for n in lengths))
        assert insertions_for(rs, k) == sum(max(0, len(r) - k) for r in rs)
        for i, n in enumerate(more):
            rs.append(Read.from_strings(f"m{i}", "G" * n))
            assert insertions_for(rs, k) == sum(max(0, len(r) - k)
                                                for r in rs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 90), max_size=12), min_size=1,
                    max_size=20),
           st.integers(10, 60), st.sampled_from([None, 200, 1000]))
    def test_bins_match_generator_planner(self, per_contig, k, cap):
        import repro.core.binning as binning

        contigs = [Contig.from_string(f"c{i}", "ACGT" * 10,
                                      _reads(*("T" * n for n in lens)))
                   for i, lens in enumerate(per_contig)]
        got = binning.bin_contigs(contigs, k, max_batch_insertions=cap)
        original = binning.insertions_for
        binning.insertions_for = lambda reads, k: sum(
            max(0, len(r) - k) for r in reads)
        try:
            want = binning.bin_contigs(contigs, k, max_batch_insertions=cap)
        finally:
            binning.insertions_for = original
        assert got == want


class TestSizing:
    def test_estimate_monotone(self):
        assert estimate_table_slots(100) >= estimate_table_slots(10)

    def test_floor(self):
        assert estimate_table_slots(0) == 16

    def test_load_factor_headroom(self):
        n = 1000
        assert estimate_table_slots(n, load_factor=0.5) >= 2 * n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate_table_slots(-1)
        with pytest.raises(ValueError):
            estimate_table_slots(10, load_factor=0.0)
        with pytest.raises(ValueError):
            estimate_table_slots(10, load_factor=1.5)


class TestBuild:
    def test_votes_recorded_with_quality_split(self):
        r = Read.from_strings("r", "AACGT", quals=None)
        r.quals = np.array([40, 40, 40, 40, 5], dtype=np.uint8)
        table = build_table(ReadSet([r]), 2)
        # k-mer "AA" -> next base C (qual 40, hi)
        slot = table.lookup(encode("AA"))
        assert slot.votes.hi_q[1] == 1
        # k-mer "CG" -> next base T (qual 5, low)
        slot = table.lookup(encode("CG"))
        assert slot.votes.low_q[3] == 1

    def test_all_eligible_kmers_inserted(self):
        rs = _reads("ACGTACGTAC")
        table = build_table(rs, 4)
        assert table.stats.inserts == insertions_for(rs, 4)
        for m in ("ACGT", "CGTA", "GTAC", "TACG"):
            assert table.lookup(encode(m)) is not None

    def test_last_kmer_not_inserted(self):
        table = build_table(_reads("ACGTA"), 4)
        # GTAC... the final 4-mer "CGTA" has a next base? "ACGTA": kmers with
        # next base: ACGT->A only. CGTA has no following base.
        assert table.lookup(encode("ACGT")) is not None
        assert table.lookup(encode("CGTA")) is None

    def test_capacity_estimated_when_omitted(self):
        rs = _reads(*("ACGTACGTACGTACGT" for _ in range(3)))
        table = build_table(rs, 4)
        assert table.capacity >= insertions_for(rs, 4)

    def test_explicit_capacity_respected(self):
        table = build_table(_reads("ACGTAC"), 4, capacity=99)
        assert table.capacity == 99

    def test_build_for_contig(self):
        c = Contig.from_string("c", "ACGTACGT")
        c.reads = _reads("ACGTACGTT")
        t = build_table_for_contig(c, 4)
        assert len(t) > 0

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.text(alphabet="ACGT", min_size=8, max_size=40),
                    min_size=1, max_size=8))
    def test_matches_reference_dict(self, seqs):
        """Differential: optimized table == naive dict table."""
        from repro.core.reference import reference_table

        rs = _reads(*seqs)
        k = 5
        table = build_table(rs, k)
        ref = reference_table(rs, k)
        assert sorted(table.keys()) == sorted(ref)
        for kmer_s, votes in ref.items():
            slot = table.lookup(encode(kmer_s))
            np.testing.assert_array_equal(slot.votes.hi_q, votes.hi_q)
            np.testing.assert_array_equal(slot.votes.low_q, votes.low_q)
