"""Tests for the loc_ht open-addressing hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashtable import LocalHashTable
from repro.errors import HashTableFullError, KmerError
from repro.genomics.dna import encode
from repro.genomics.kmer import kmers_of


def _key(s):
    return encode(s)


class TestBasics:
    def test_insert_and_lookup(self):
        t = LocalHashTable(capacity=16, k=4)
        t.insert(_key("ACGT"), 2, 30)
        slot = t.lookup(_key("ACGT"))
        assert slot is not None
        assert slot.kmer == "ACGT"
        assert slot.votes.hi_q[2] == 1

    def test_lookup_missing(self):
        t = LocalHashTable(capacity=16, k=4)
        assert t.lookup(_key("ACGT")) is None

    def test_duplicate_keys_merge(self):
        t = LocalHashTable(capacity=16, k=4)
        t.insert(_key("ACGT"), 0, 30)
        t.insert(_key("ACGT"), 0, 10)
        t.insert(_key("ACGT"), 3, 30)
        assert len(t) == 1
        slot = t.lookup(_key("ACGT"))
        assert slot.votes.hi_q[0] == 1
        assert slot.votes.low_q[0] == 1
        assert slot.votes.hi_q[3] == 1
        assert slot.votes.count == 3

    def test_contains(self):
        t = LocalHashTable(capacity=16, k=4)
        t.insert(_key("ACGT"), 0, 30)
        assert _key("ACGT") in t
        assert _key("TTTT") not in t

    def test_contains_does_not_change_stats(self):
        t = LocalHashTable(capacity=16, k=4)
        t.insert(_key("ACGT"), 0, 30)
        before = (t.stats.lookups, t.stats.probes)
        _ = _key("ACGT") in t
        assert (t.stats.lookups, t.stats.probes) == before

    def test_wrong_key_length_rejected(self):
        t = LocalHashTable(capacity=16, k=4)
        with pytest.raises(KmerError):
            t.insert(_key("ACG"), 0, 30)
        with pytest.raises(KmerError):
            t.lookup(_key("ACGTA"))

    def test_bad_construction(self):
        with pytest.raises(KmerError):
            LocalHashTable(capacity=0, k=4)
        with pytest.raises(KmerError):
            LocalHashTable(capacity=8, k=0)


class TestCollisions:
    def test_full_table_raises(self):
        t = LocalHashTable(capacity=4, k=3)
        inserted = 0
        with pytest.raises(HashTableFullError):
            for m in kmers_of("ACGTACGTAAACCCGGGTTTACG", 3):
                t.insert(_key(m), 0, 30)
                inserted += 1
        assert inserted >= 4  # filled every slot before failing

    def test_full_table_error_names_the_wrapped_probe(self):
        t = LocalHashTable(capacity=4, k=3)
        for s in ["AAA", "CCC", "GGG", "TTT"]:
            t.insert(_key(s), 0, 30)
        with pytest.raises(HashTableFullError) as exc:
            t.insert(_key("ACG"), 0, 30)
        assert exc.value.capacity == 4 and exc.value.probes == 4
        assert len(t) == 4 and t.lookup(_key("ACG")) is None
        # a key already present still merges into the full table
        assert t.insert(_key("GGG"), 2, 30).votes.count == 2

    def test_linear_probing_preserves_all_keys(self):
        # tiny capacity forces probe chains; all distinct keys must survive
        t = LocalHashTable(capacity=11, k=3)
        keys = ["AAA", "CCC", "GGG", "TTT", "ACG", "CGT", "GTA", "TAC"]
        for s in keys:
            t.insert(_key(s), 1, 30)
        assert len(t) == 8
        for s in keys:
            assert t.lookup(_key(s)).kmer == s

    def test_collision_stats_tracked(self):
        t = LocalHashTable(capacity=4, k=3)
        for s in ["AAA", "CCC", "GGG", "TTT"]:
            t.insert(_key(s), 0, 30)
        # 4 keys into 4 slots must have probed at least 4 times total
        assert t.stats.inserts == 4
        assert t.stats.probes >= 4
        assert t.stats.mean_probe_length >= 1.0

    def test_load_factor(self):
        t = LocalHashTable(capacity=10, k=3)
        t.insert(_key("AAA"), 0, 30)
        t.insert(_key("CCC"), 0, 30)
        assert t.load_factor == pytest.approx(0.2)


class TestBulk:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.text(alphabet="ACGT", min_size=5, max_size=5),
                    min_size=1, max_size=60))
    def test_semantics_match_dict(self, keys):
        """Property: the table behaves exactly like a dict of vote counts."""
        t = LocalHashTable(capacity=256, k=5)
        expected: dict[str, int] = {}
        for s in keys:
            t.insert(_key(s), 0, 30)
            expected[s] = expected.get(s, 0) + 1
        assert len(t) == len(expected)
        for s, n in expected.items():
            slot = t.lookup(_key(s))
            assert slot is not None and slot.votes.count == n
        assert sorted(t.keys()) == sorted(expected)

    def test_seed_changes_layout_not_content(self):
        keys = kmers_of("ACGTACGTAACCGGTT", 4)
        t0 = LocalHashTable(capacity=64, k=4, seed=0)
        t1 = LocalHashTable(capacity=64, k=4, seed=99)
        for m in keys:
            t0.insert(_key(m), 0, 30)
            t1.insert(_key(m), 0, 30)
        assert sorted(t0.keys()) == sorted(t1.keys())
