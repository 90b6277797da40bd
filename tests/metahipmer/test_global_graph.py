"""Tests for the global de Bruijn graph and unitig generation."""

import numpy as np
import pytest

from repro.errors import KmerError
from repro.genomics.dna import decode, reverse_complement
from repro.genomics.reads import Read, ReadSet
from repro.genomics.simulate import PERFECT_READS, sequence_read, simulate_genome
from repro.metahipmer.global_graph import GlobalDeBruijnGraph, generate_contigs
from repro.metahipmer.kmer_analysis import count_kmers_filtered

K = 15


def _coverage_reads(genome, rng, depth=8, length=60):
    n = int(len(genome) * depth / length)
    reads = ReadSet()
    for i in range(n):
        s = int(rng.integers(0, len(genome) - length + 1))
        reads.append(sequence_read(genome, s, length, rng, PERFECT_READS,
                                   name=f"r{i}"))
    return reads


@pytest.fixture
def genome_and_graph():
    rng = np.random.default_rng(5)
    genome = simulate_genome(700, rng)
    reads = _coverage_reads(genome, rng)
    spectrum = count_kmers_filtered(reads, K)
    graph = GlobalDeBruijnGraph(K, spectrum)
    graph.add_reads(reads)
    return genome, reads, graph


class TestGraph:
    def test_both_orientations_present(self, genome_and_graph):
        genome, _, graph = genome_and_graph
        kmer = decode(genome[100 : 100 + K])
        rc = reverse_complement(kmer)
        assert kmer in graph and rc in graph

    def test_successor_matches_genome(self, genome_and_graph):
        genome, _, graph = genome_and_graph
        kmer = decode(genome[100 : 100 + K])
        succ = graph.successors(kmer)
        assert decode(genome[100 + K : 101 + K]) in succ

    def test_predecessor_matches_genome(self, genome_and_graph):
        genome, _, graph = genome_and_graph
        kmer = decode(genome[100 : 100 + K])
        preds = graph.predecessors(kmer)
        assert decode(genome[99:100]) in preds

    def test_unique_successor_in_unique_region(self, genome_and_graph):
        genome, _, graph = genome_and_graph
        kmer = decode(genome[300 : 300 + K])
        assert graph.unique_successor(kmer) == decode(genome[300 + K : 301 + K])

    def test_walk_follows_genome(self, genome_and_graph):
        genome, _, graph = genome_and_graph
        start = decode(genome[200 : 200 + K])
        ext = graph.walk_unitig(start)
        recovered = start + ext
        assert recovered in decode(genome)

    def test_spectrum_k_mismatch_rejected(self):
        spec = count_kmers_filtered(ReadSet(), 21)
        with pytest.raises(KmerError):
            GlobalDeBruijnGraph(15, spec)

    def test_rejects_bad_k(self):
        with pytest.raises(KmerError):
            GlobalDeBruijnGraph(0)

    @pytest.mark.parametrize("min_edge_count", [0, -2])
    def test_rejects_min_edge_count_below_one(self, min_edge_count):
        with pytest.raises(KmerError, match="min_edge_count must be at least 1"):
            GlobalDeBruijnGraph(K, min_edge_count=min_edge_count)

    def test_fork_ends_unique_successor(self):
        """Two sequences sharing a k-mer but diverging after it -> no
        unique successor at the shared k-mer (the Figure 1 fork)."""
        shared = "ACGTACGTACGTACG"  # 15 bases
        a = "T" * 6 + shared + "AAAAAA"
        b = "G" * 6 + shared + "CCCCCC"
        reads = ReadSet([Read.from_strings(f"{s}{i}", s)
                         for s in (a, b) for i in range(2)])
        graph = GlobalDeBruijnGraph(K)
        graph.add_reads(reads)
        assert len(graph.successors(shared)) == 2
        assert graph.unique_successor(shared) is None


class TestContigGeneration:
    def test_single_genome_reconstructed(self, genome_and_graph):
        genome, _, graph = genome_and_graph
        contigs = generate_contigs(graph)
        gs = decode(genome)
        assert contigs, "expected at least one contig"
        longest = max(contigs, key=len)
        assert longest in gs or str(reverse_complement(longest)) in gs
        assert len(longest) > 0.8 * len(genome)

    def test_contigs_strand_deduplicated(self, genome_and_graph):
        _, _, graph = genome_and_graph
        contigs = generate_contigs(graph)
        canon = set()
        for c in contigs:
            rc = reverse_complement(c)
            key = min(c, rc)
            assert key not in canon, "same contig emitted on both strands"
            canon.add(key)

    def test_min_length_respected(self, genome_and_graph):
        _, _, graph = genome_and_graph
        for c in generate_contigs(graph, min_length=100):
            assert len(c) >= 100

    def test_two_genomes_two_contigs(self):
        rng = np.random.default_rng(8)
        g1, g2 = simulate_genome(400, rng), simulate_genome(400, rng)
        reads = _coverage_reads(g1, rng)
        for r in _coverage_reads(g2, rng):
            reads.append(r)
        spectrum = count_kmers_filtered(reads, K)
        graph = GlobalDeBruijnGraph(K, spectrum)
        graph.add_reads(reads)
        contigs = [c for c in generate_contigs(graph) if len(c) > 200]
        assert len(contigs) == 2
        sources = set()
        for c in contigs:
            for name, g in (("g1", g1), ("g2", g2)):
                gs = decode(g)
                if c in gs or str(reverse_complement(c)) in gs:
                    sources.add(name)
        assert sources == {"g1", "g2"}
