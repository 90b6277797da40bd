"""Reference per-read aligner (parity oracle).

The seed-and-extend aligner :mod:`repro.metahipmer.alignment` had before
it became array code: a dict index from seed bytes to ``(contig,
position)`` lists and one Python loop per read over strands, seed
offsets and index entries. Kept here only so the tests can require the
batched aligner to return the same hit for every read and
:func:`~repro.metahipmer.alignment.assign_reads_to_ends` to produce the
same per-contig reads, hints and statistics.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.genomics.contig import Contig
from repro.genomics.dna import reverse_complement
from repro.genomics.reads import Read, ReadSet
from repro.metahipmer.alignment import (
    DEFAULT_END_WINDOW,
    DEFAULT_MAX_MISMATCH_FRAC,
    DEFAULT_SEED_LEN,
    AlignmentHit,
    ReadAligner,
)


class ScalarReadAligner(ReadAligner):
    """The dict-indexed, one-read-at-a-time aligner."""

    def __init__(self, contigs: list[Contig], seed_len: int = DEFAULT_SEED_LEN,
                 max_mismatch_frac: float = DEFAULT_MAX_MISMATCH_FRAC) -> None:
        super().__init__(contigs, seed_len, max_mismatch_frac)
        self._index: dict[bytes, list[tuple[int, int]]] = defaultdict(list)
        for ci, contig in enumerate(contigs):
            codes = contig.codes
            for i in range(0, max(0, len(codes) - seed_len + 1)):
                self._index[codes[i:i + seed_len].tobytes()].append((ci, i))

    def _extend(self, read_codes: np.ndarray, ci: int, pos: int,
                reverse: bool) -> AlignmentHit | None:
        contig_codes = self.contigs[ci].codes
        lo = max(0, pos)
        hi = min(len(contig_codes), pos + len(read_codes))
        overlap = hi - lo
        if overlap < self.seed_len:
            return None
        mism = int(np.count_nonzero(
            read_codes[lo - pos:hi - pos] != contig_codes[lo:hi]))
        if mism > self.max_mismatch_frac * overlap:
            return None
        return AlignmentHit(contig_index=ci, position=pos, reverse=reverse,
                            mismatches=mism, overlap=overlap)

    def align(self, read: Read, max_seeds: int = 8) -> AlignmentHit | None:
        best: AlignmentHit | None = None
        for reverse in (False, True):
            codes = read.codes if not reverse else reverse_complement(read.codes)
            n_seeds = max(1, min(max_seeds, (len(codes) - self.seed_len + 1)
                                 // self.seed_len + 1))
            if len(codes) < self.seed_len:
                continue
            offsets = np.unique(np.linspace(
                0, len(codes) - self.seed_len, n_seeds, dtype=np.int64))
            tried: set[tuple[int, int]] = set()
            for off in offsets:
                seed = codes[off:off + self.seed_len].tobytes()
                for ci, cpos in self._index.get(seed, ()):
                    key = (ci, int(cpos) - int(off))
                    if key in tried:
                        continue
                    tried.add(key)
                    hit = self._extend(codes, ci, cpos - int(off), reverse)
                    if hit and (best is None
                                or (hit.overlap - 3 * hit.mismatches)
                                > (best.overlap - 3 * best.mismatches)):
                        best = hit
        return best

    def align_all(self, reads, max_seeds: int = 8):
        return [self.align(r, max_seeds) for r in reads]


def assign_reads_to_ends_scalar(contigs: list[Contig], reads: ReadSet,
                                seed_len: int = DEFAULT_SEED_LEN,
                                end_window: int = DEFAULT_END_WINDOW,
                                ) -> dict[str, int]:
    """The per-read assignment loop over :class:`ScalarReadAligner`."""
    aligner = ScalarReadAligner(contigs, seed_len=seed_len)
    for c in contigs:
        c.reads = ReadSet()
        c.read_end_hints = []
    stats = {"aligned": 0, "unaligned": 0, "interior": 0, "assigned": 0}
    for read in reads:
        hit = aligner.align(read)
        if hit is None:
            stats["unaligned"] += 1
            continue
        stats["aligned"] += 1
        end = aligner.classify_end(hit, len(read), end_window)
        if end is None:
            stats["interior"] += 1
            continue
        contig = contigs[hit.contig_index]
        if hit.reverse:
            read = Read(name=read.name + "/rc",
                        codes=reverse_complement(read.codes),
                        quals=read.quals[::-1].copy())
        contig.reads.append(read)
        contig.read_end_hints.append(end)
        stats["assigned"] += 1
    return stats
