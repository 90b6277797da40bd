"""The array-backed global graph against the dict-of-nodes oracle.

:class:`~repro.metahipmer.global_graph.GlobalDeBruijnGraph` must build
the same nodes, in the same (first-occurrence) order, with the same
occurrence and extension counts, and :func:`generate_contigs` must emit
the same contig list, order included, as the per-k-mer implementation
kept in :mod:`tests.metahipmer.graph_oracle`. Cases cover odd and even k
(palindromic k-mers), multi-word keys (k > 32 and k > 64), tandem
repeats (cycles), read errors, reads shorter than k, an empty read set,
runs with and without a spectrum, and edge thresholds 1-3.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.genomics.dna import decode, encode
from repro.genomics.reads import Read, ReadSet
from repro.metahipmer.global_graph import GlobalDeBruijnGraph, generate_contigs
from repro.metahipmer.kmer_analysis import count_kmers_filtered
from tests.metahipmer.graph_oracle import DictDeBruijnGraph, generate_contigs_dict

#: Repeat units; "AT" and "ACGT" make every even-k window a palindrome.
UNITS = ["AT", "ACGT", "CG", "AAC", "ACGTTGCA", "GATTACA"]


def _reads(kind: str, k: int, seed: int) -> ReadSet:
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return ReadSet()
    if kind == "tandem":
        unit = UNITS[int(rng.integers(len(UNITS)))]
        genome = encode(unit * (3 * k // len(unit) + 4))
    else:
        genome = rng.integers(0, 4, size=int(rng.integers(k + 2, 4 * k + 40)),
                              dtype=np.uint8)
    reads = ReadSet()
    for i in range(int(rng.integers(1, 25))):
        # some reads are shorter than k and must be skipped
        length = int(rng.integers(max(1, k - 3), len(genome) + 1))
        start = int(rng.integers(0, len(genome) - length + 1))
        codes = genome[start:start + length].copy()
        if rng.random() < 0.3:  # a sequencing error
            codes[int(rng.integers(length))] = rng.integers(0, 4)
        for copy in range(int(rng.integers(1, 4))):
            reads.append(Read.from_strings(f"r{i}/{copy}", decode(codes)))
    return reads


@st.composite
def cases(draw):
    k = draw(st.one_of(st.integers(2, 24),
                       st.sampled_from([31, 32, 33, 40, 63, 64, 65, 70])))
    kind = draw(st.sampled_from(["random", "tandem", "empty"]))
    seed = draw(st.integers(0, 2**32 - 1))
    spectrum_min = draw(st.sampled_from([None, 1, 2, 3]))
    min_edge_count = draw(st.integers(1, 3))
    return k, _reads(kind, k, seed), spectrum_min, min_edge_count


def _graphs(k, reads, spectrum_min, min_edge_count):
    spectrum = (None if spectrum_min is None
                else count_kmers_filtered(reads, k, min_count=spectrum_min))
    new = GlobalDeBruijnGraph(k, spectrum, min_edge_count=min_edge_count)
    new.add_reads(reads)
    old = DictDeBruijnGraph(k, spectrum, min_edge_count=min_edge_count)
    old.add_reads(reads)
    return new, old


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=(4, _reads("tandem", 4, 1), None, 1))
@example(case=(65, _reads("random", 65, 2), 2, 2))
@example(case=(21, ReadSet(), 2, 2))
@given(case=cases())
def test_graph_and_contigs_match_oracle(case):
    k, reads, spectrum_min, min_edge_count = case
    new, old = _graphs(k, reads, spectrum_min, min_edge_count)
    kmers = list(old._nodes)
    assert [new.kmer(i) for i in range(len(new))] == kmers
    assert new.count.tolist() == [node.count for node in old._nodes.values()]
    assert new.exts.tolist() == [node.exts.tolist()
                                 for node in old._nodes.values()]
    for min_length in (0, k + 2):
        assert (generate_contigs(new, min_length=min_length)
                == generate_contigs_dict(old, min_length=min_length))


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_string_api_matches_oracle(case):
    k, reads, spectrum_min, min_edge_count = case
    new, old = _graphs(k, reads, spectrum_min, min_edge_count)
    for kmer in list(old._nodes)[:30]:
        assert kmer in new
        assert new.successors(kmer) == old.successors(kmer)
        assert new.predecessors(kmer) == old.predecessors(kmer)
        assert new.unique_successor(kmer) == old.unique_successor(kmer)
        assert new.walk_unitig(kmer) == old.walk_unitig(kmer)
    assert ("A" * k in new) == ("A" * k in old._nodes)
