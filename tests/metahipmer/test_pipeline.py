"""End-to-end tests for the de novo assembly pipeline."""

import numpy as np
import pytest

from repro.errors import KmerError
from repro.genomics.dna import decode, reverse_complement
from repro.genomics.reads import ReadSet
from repro.genomics.simulate import ErrorProfile, PERFECT_READS, sequence_read, simulate_genome
from repro.metahipmer.pipeline import DeNovoAssembler, n50


class TestN50:
    def test_single(self):
        assert n50([100]) == 100

    def test_empty(self):
        assert n50([]) == 0

    def test_standard_example(self):
        # total 100; half = 50; cumulative 40, 70 -> N50 = 30
        assert n50([40, 30, 20, 10]) == 30

    def test_order_independent(self):
        assert n50([10, 40, 20, 30]) == n50([40, 30, 20, 10])


def _metagenome_reads(rng, genome_lens=(1200, 800), depth=8, read_len=100,
                      profile=PERFECT_READS):
    genomes = [simulate_genome(n, rng) for n in genome_lens]
    reads = ReadSet()
    i = 0
    for g in genomes:
        for _ in range(int(len(g) * depth / read_len)):
            s = int(rng.integers(0, len(g) - read_len + 1))
            reads.append(sequence_read(g, s, read_len, rng, profile,
                                       name=f"r{i}"))
            i += 1
    return genomes, reads


class TestDeNovoAssembler:
    def test_rejects_bad_schedule(self):
        with pytest.raises(KmerError):
            DeNovoAssembler(k_schedule=())
        with pytest.raises(KmerError):
            DeNovoAssembler(k_schedule=(33, 21))

    @pytest.mark.parametrize("min_count", [0, -1])
    def test_rejects_min_count_below_one(self, min_count):
        with pytest.raises(KmerError, match="min_count must be at least 1"):
            DeNovoAssembler(min_count=min_count)

    def test_perfect_reads_reconstruct_genomes(self):
        rng = np.random.default_rng(1)
        genomes, reads = _metagenome_reads(rng)
        result = DeNovoAssembler(k_schedule=(21,)).assemble(reads)
        assert result.rounds
        truth = [decode(g) for g in genomes]
        for c in result.contigs:
            seq = c.extended_sequence()
            rc = reverse_complement(seq)
            assert any(seq in t or rc in t for t in truth)
        # most of each genome recovered
        assert sum(len(c) for c in result.contigs) > 0.8 * sum(map(len, genomes))

    def test_local_assembly_extends_contigs(self):
        rng = np.random.default_rng(2)
        _, reads = _metagenome_reads(rng)
        result = DeNovoAssembler(k_schedule=(21,)).assemble(reads)
        assert result.rounds[-1].extension_bases > 0
        assert result.final_n50 >= result.rounds[-1].n50

    def test_noisy_reads_still_assemble(self):
        rng = np.random.default_rng(3)
        genomes, reads = _metagenome_reads(
            rng, profile=ErrorProfile(error_rate=0.003))
        result = DeNovoAssembler(k_schedule=(21,)).assemble(reads)
        assert result.contigs
        truth = [decode(g) for g in genomes]

        # Final contigs fold local-assembly extensions in, and with noisy
        # reads an extension can carry an error base — so require that the
        # bulk of each contig is an exact match to some genome rather than
        # the whole merged sequence.
        from difflib import SequenceMatcher

        def match_fraction(seq):
            best = 0
            for cand in (seq, str(reverse_complement(seq))):
                for t in truth:
                    m = SequenceMatcher(None, cand, t, autojunk=False)
                    best = max(best, m.find_longest_match().size)
            return best / len(seq)

        matching = sum(1 for c in result.contigs
                       if match_fraction(c.sequence) >= 0.9)
        assert matching >= 0.7 * len(result.contigs)

    def test_iterative_schedule_records_rounds(self):
        rng = np.random.default_rng(4)
        _, reads = _metagenome_reads(rng, genome_lens=(600,))
        result = DeNovoAssembler(k_schedule=(21, 33)).assemble(reads)
        assert [r.k for r in result.rounds] == [21, 33]
        for r in result.rounds:
            assert r.solid_kmers > 0
            assert r.mean_contig_length > 0

    def test_gpu_kernel_backend(self):
        """The pipeline can run its local-assembly phase on a simulated GPU."""
        from repro.core.extension import PRODUCTION_POLICY
        from repro.kernels import HipLocalAssemblyKernel
        from repro.simt.device import MI250X

        rng = np.random.default_rng(5)
        genomes, reads = _metagenome_reads(rng, genome_lens=(700,))
        kern = HipLocalAssemblyKernel(MI250X, policy=PRODUCTION_POLICY)
        result = DeNovoAssembler(k_schedule=(21,), kernel=kern).assemble(reads)
        assert result.contigs
        truth = decode(genomes[0])
        for c in result.contigs:
            seq = c.extended_sequence()
            assert seq in truth or str(reverse_complement(seq)) in truth
