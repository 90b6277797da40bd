"""The batched aligner against the per-read oracle.

:meth:`~repro.metahipmer.alignment.ReadAligner.align_all` must return,
for every read, the same hit as the dict-indexed per-read loop kept in
:mod:`tests.metahipmer.align_oracle` — including which of several
equally scored candidates wins — and
:func:`~repro.metahipmer.alignment.assign_reads_to_ends` must attach the
same reads with the same hints. Cases cover both strands, substitutions,
unrelated reads, reads shorter than the seed, repeated contigs (several
index entries per seed), multi-word seeds (``seed_len > 32``), an empty
read set and an empty contig list.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.scenarios import SCENARIOS
from repro.genomics.contig import Contig
from repro.genomics.dna import reverse_complement
from repro.genomics.reads import Read, ReadSet
from repro.metahipmer.alignment import ReadAligner, assign_reads_to_ends
from repro.metahipmer.global_graph import GlobalDeBruijnGraph, generate_contigs
from tests.metahipmer.align_oracle import (
    ScalarReadAligner,
    assign_reads_to_ends_scalar,
)


def _case(seed: int, seed_len: int):
    rng = np.random.default_rng(seed)
    genome = rng.integers(0, 4, size=int(rng.integers(40, 500)),
                          dtype=np.uint8)
    contigs = []
    for i in range(int(rng.integers(0, 5))):
        length = int(rng.integers(5, min(400, genome.size) + 1))
        start = int(rng.integers(0, genome.size - length + 1))
        contigs.append(Contig(name=f"c{i}",
                              codes=genome[start:start + length].copy()))
    if contigs and rng.random() < 0.3:  # a repeated contig
        contigs.append(Contig(name="dup", codes=contigs[0].codes.copy()))
    reads = ReadSet()
    err = float(rng.choice([0.0, 0.02, 0.08, 0.15]))
    for i in range(int(rng.integers(0, 30))):
        length = int(rng.integers(5, min(160, genome.size) + 1))
        if rng.random() < 0.1:  # unrelated read
            codes = rng.integers(0, 4, size=length, dtype=np.uint8)
        else:
            start = int(rng.integers(0, genome.size - length + 1))
            codes = genome[start:start + length].copy()
        flip = rng.random(length) < err
        codes[flip] = (codes[flip] + rng.integers(1, 4, size=int(flip.sum()),
                                                  dtype=np.uint8)) % 4
        if rng.random() < 0.5:
            codes = reverse_complement(codes)
        reads.append(Read(name=f"r{i}", codes=codes,
                          quals=rng.integers(2, 41, size=length,
                                             dtype=np.uint8)))
    return contigs, reads


def _assignment(contigs):
    return [([(r.name, r.sequence, r.quality_string) for r in c.reads],
             list(c.read_end_hints)) for c in contigs]


class TestAlignParity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           seed_len=st.one_of(st.integers(5, 31),
                              st.sampled_from([32, 33, 40, 64, 70])),
           max_seeds=st.sampled_from([1, 3, 8]))
    def test_hits_match_oracle(self, seed, seed_len, max_seeds):
        contigs, reads = _case(seed, seed_len)
        got = ReadAligner(contigs, seed_len=seed_len).align_all(reads,
                                                                max_seeds)
        want = ScalarReadAligner(contigs, seed_len=seed_len).align_all(
            reads, max_seeds)
        assert got == want

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), seed_len=st.integers(5, 40))
    def test_assignment_matches_oracle(self, seed, seed_len):
        contigs, reads = _case(seed, seed_len)
        twins = [Contig(name=c.name, codes=c.codes.copy()) for c in contigs]
        stats = assign_reads_to_ends(contigs, reads, seed_len=seed_len)
        want = assign_reads_to_ends_scalar(twins, reads, seed_len=seed_len)
        assert stats == want
        assert _assignment(contigs) == _assignment(twins)

    def test_scenario_assignment_matches_oracle(self):
        """Assembler-shaped input: every scenario's raw reads against the
        unitigs of its first-k graph."""
        for sc in SCENARIOS.values():
            reads = sc.build(seed=sc.seed).reads
            k = sc.k_schedule[0]
            graph = GlobalDeBruijnGraph(k, min_edge_count=sc.min_count)
            graph.add_reads(reads)
            seqs = generate_contigs(graph, min_length=k + 2)
            contigs = [Contig.from_string(f"c{i}", q)
                       for i, q in enumerate(seqs)]
            twins = [Contig.from_string(f"c{i}", q)
                     for i, q in enumerate(seqs)]
            assert contigs
            assert (assign_reads_to_ends(contigs, reads)
                    == assign_reads_to_ends_scalar(twins, reads))
            assert _assignment(contigs) == _assignment(twins)

    def test_reads_shorter_than_seed(self):
        contigs, _ = _case(5, 17)
        contig = Contig(name="c", codes=np.arange(60, dtype=np.uint8) % 4)
        short = Read(name="s", codes=contig.codes[:16].copy(),
                     quals=np.full(16, 30, dtype=np.uint8))
        exact = Read(name="e", codes=contig.codes[:17].copy(),
                     quals=np.full(17, 30, dtype=np.uint8))
        hits = ReadAligner([contig]).align_all([short, exact, short])
        assert hits[0] is None and hits[2] is None
        assert hits[1] is not None and hits[1].overlap == 17
        assert hits == ScalarReadAligner([contig]).align_all(
            [short, exact, short])

    def test_empty_read_set(self):
        contigs, _ = _case(7, 17)
        assert ReadAligner(contigs).align_all([]) == []
        assert ReadAligner(contigs).align_all(ReadSet()) == []

    def test_empty_contig_list(self):
        _, reads = _case(9, 17)
        assert ReadAligner([]).align_all(reads) == [None] * len(reads)
        stats = assign_reads_to_ends([], reads)
        assert stats == assign_reads_to_ends_scalar([], reads)
        assert stats["unaligned"] == len(reads)
