"""Read-to-contig alignment and read-to-end assignment (Figure 2, stage 4).

After contig generation, MetaHipMer aligns the reads back to the contigs;
reads that align to (or overhang) a contig *end* are handed to local
assembly. This module implements the single-node equivalent:

* a seed index over contig k-mers,
* gapless seed-and-extend alignment (substitutions only — matching the
  Illumina-style error model used throughout),
* end classification with overhang detection, producing exactly the
  ``(contig.reads, contig.read_end_hints)`` structure the local-assembly
  kernels consume.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SequenceError
from repro.genomics.contig import Contig, End
from repro.genomics.dna import reverse_complement
from repro.genomics.kmer import pack_windows
from repro.genomics.reads import Read, ReadSet
from repro.kernels.engine.prepare import segmented_arange

#: Seed length for the contig k-mer index.
DEFAULT_SEED_LEN = 17

#: Maximum mismatch fraction for an accepted alignment.
DEFAULT_MAX_MISMATCH_FRAC = 0.1

#: Reads whose alignment starts/ends within this many bases of a contig
#: boundary (or overhangs it) are assigned to that end.
DEFAULT_END_WINDOW = 100


@dataclass(frozen=True)
class AlignmentHit:
    """One read-to-contig alignment.

    Attributes:
        contig_index: which contig.
        position: contig coordinate of the read's first base (may be
            negative: the read overhangs the left end).
        reverse: read aligned as its reverse complement.
        mismatches: substitutions in the overlapping region.
        overlap: aligned bases (read ∩ contig).
    """

    contig_index: int
    position: int
    reverse: bool
    mismatches: int
    overlap: int

    @property
    def identity(self) -> float:
        return 1.0 - self.mismatches / self.overlap if self.overlap else 0.0


#: Reads aligned per vectorised block of :meth:`ReadAligner.align_all`
#: (bounds the candidate and compare arrays on large read sets).
_ALIGN_BLOCK_READS = 1024


def _seed_keys(codes: np.ndarray, starts: np.ndarray,
               seed_len: int) -> np.ndarray:
    """Exact sortable keys of the ``seed_len``-windows at ``starts``.

    Two bits per base (:func:`~repro.genomics.kmer.pack_windows`): one
    ``uint64`` per key up to 32 bases, otherwise the words' big-endian
    bytes, which sort and compare in word order. Equal keys are equal
    seeds; there is no hashing.
    """
    words = pack_windows(codes, starts, seed_len)
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words.astype(">u8")).view(
        f"S{8 * words.shape[1]}").ravel()


class ReadAligner:
    """Seed-and-extend aligner over a fixed contig set.

    The seed index is one array of exactly packed contig seed keys,
    sorted stably so equal seeds keep contig-then-position order, with
    the contig index and position of every entry alongside.

    Args:
        contigs: target contigs (indexed once, at construction).
        seed_len: exact-match seed length.
        max_mismatch_frac: acceptance threshold on the extended alignment.
    """

    def __init__(
        self,
        contigs: list[Contig],
        seed_len: int = DEFAULT_SEED_LEN,
        max_mismatch_frac: float = DEFAULT_MAX_MISMATCH_FRAC,
    ) -> None:
        if seed_len <= 0:
            raise SequenceError(f"seed_len must be positive, got {seed_len}")
        self.contigs = contigs
        self.seed_len = seed_len
        self.max_mismatch_frac = max_mismatch_frac
        lens = np.fromiter((len(c) for c in contigs), dtype=np.int64,
                           count=len(contigs))
        self._ctg_lens = lens
        self._ctg_off = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=self._ctg_off[1:])
        self._ctg_codes = (np.concatenate([c.codes for c in contigs])
                           if contigs else np.empty(0, dtype=np.uint8))
        n_win = np.maximum(lens - seed_len + 1, 0)
        pos = segmented_arange(n_win)
        ci = np.repeat(np.arange(lens.size, dtype=np.int64), n_win)
        keys = _seed_keys(self._ctg_codes, self._ctg_off[ci] + pos, seed_len)
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._entry_ci = ci[order]
        self._entry_pos = pos[order]
        self._seed_offsets: dict[tuple[int, int], np.ndarray] = {}

    def _offsets(self, read_len: int, max_seeds: int) -> np.ndarray:
        """Seed offsets sampled across a read of ``read_len`` bases."""
        key = (read_len, max_seeds)
        offs = self._seed_offsets.get(key)
        if offs is None:
            n_seeds = max(1, min(max_seeds, (read_len - self.seed_len + 1)
                                 // self.seed_len + 1))
            offs = np.unique(np.linspace(0, read_len - self.seed_len, n_seeds,
                                         dtype=np.int64))
            self._seed_offsets[key] = offs
        return offs

    def align(self, read: Read, max_seeds: int = 8) -> AlignmentHit | None:
        """Best alignment of ``read`` (either strand) or None."""
        return self.align_all([read], max_seeds)[0]

    def align_all(self, reads: Sequence[Read],
                  max_seeds: int = 8) -> list[AlignmentHit | None]:
        """Best alignment of every read (either strand), or None each.

        Up to ``max_seeds`` seeds are sampled across each strand of a
        read and looked up in the seed index; each distinct (strand,
        contig, diagonal) candidate is extended gaplessly, and among the
        accepted ones the first with the highest ``overlap - 3 *
        mismatches`` wins, in the order forward strand then reverse,
        seed offset, then index order.
        """
        reads = list(reads)
        hits: list[AlignmentHit | None] = []
        for lo in range(0, len(reads), _ALIGN_BLOCK_READS):
            hits.extend(self._align_block(reads[lo:lo + _ALIGN_BLOCK_READS],
                                          max_seeds))
        return hits

    def _align_block(self, reads: list[Read],
                     max_seeds: int) -> list[AlignmentHit | None]:
        S = self.seed_len
        n = len(reads)
        hits: list[AlignmentHit | None] = [None] * n
        lens = np.fromiter((len(r) for r in reads), dtype=np.int64, count=n)
        if not n or not self._keys.size or int(lens.max()) < S:
            return hits
        codes = np.concatenate([r.codes for r in reads])
        read_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=read_off[1:])

        # seeds in scalar order: read, strand, offset
        seeded = np.nonzero(lens >= S)[0]
        per_read = [self._offsets(int(lens[r]), max_seeds) for r in seeded]
        n_off = np.fromiter((o.size for o in per_read), dtype=np.int64,
                            count=seeded.size)
        seed_read = np.repeat(seeded, 2 * n_off)
        seed_rev = np.repeat(np.tile([False, True], seeded.size),
                             np.repeat(n_off, 2))
        seed_off = np.concatenate([o for o in per_read for _ in (0, 1)])
        # a reverse-strand seed at offset o is the reverse complement of
        # the forward bases [L - o - S, L - o)
        rl = lens[seed_read]
        fwd_start = read_off[seed_read] + np.where(seed_rev,
                                                   rl - seed_off - S, seed_off)
        win = codes[fwd_start[:, None] + np.arange(S, dtype=np.int64)]
        win[seed_rev] = 3 - win[seed_rev, ::-1]
        keys = _seed_keys(win.ravel(), np.arange(win.shape[0],
                                                 dtype=np.int64) * S, S)
        first = np.searchsorted(self._keys, keys, side="left")
        count = np.searchsorted(self._keys, keys, side="right") - first
        if not count.any():
            return hits

        # candidates, deduplicated per (read, strand, contig, diagonal)
        cand_seed = np.repeat(np.arange(keys.size, dtype=np.int64), count)
        entry = np.repeat(first, count) + segmented_arange(count)
        c_read = seed_read[cand_seed]
        c_rev = seed_rev[cand_seed]
        c_ci = self._entry_ci[entry]
        c_pos = self._entry_pos[entry] - seed_off[cand_seed]
        order = np.lexsort((c_pos, c_ci, c_rev, c_read))
        new = np.ones(order.size, dtype=bool)
        sr, sv, sc, sp = c_read[order], c_rev[order], c_ci[order], c_pos[order]
        new[1:] = ((sr[1:] != sr[:-1]) | (sv[1:] != sv[:-1])
                   | (sc[1:] != sc[:-1]) | (sp[1:] != sp[:-1]))
        keep = np.zeros(order.size, dtype=bool)
        keep[order[new]] = True
        c_read, c_rev, c_ci, c_pos = (c_read[keep], c_rev[keep], c_ci[keep],
                                      c_pos[keep])

        # gapless extension: overlap, then one segmented compare
        c_len = lens[c_read]
        lo = np.maximum(c_pos, 0)
        overlap = np.minimum(self._ctg_lens[c_ci], c_pos + c_len) - lo
        ok = overlap >= S
        c_read, c_rev, c_ci, c_pos, c_len, lo, overlap = (
            c_read[ok], c_rev[ok], c_ci[ok], c_pos[ok], c_len[ok], lo[ok],
            overlap[ok])
        seg = np.repeat(np.arange(overlap.size, dtype=np.int64), overlap)
        j = segmented_arange(overlap)
        ri = (lo - c_pos)[seg] + j           # index into the strand's read
        rev = c_rev[seg]
        base = read_off[c_read][seg]
        read_base = codes[np.where(rev, base + c_len[seg] - 1 - ri, base + ri)]
        read_base = np.where(rev, 3 - read_base, read_base)
        ctg_base = self._ctg_codes[self._ctg_off[c_ci][seg] + lo[seg] + j]
        mism = np.bincount(seg, weights=read_base != ctg_base,
                           minlength=overlap.size).astype(np.int64)
        ok = ~(mism > self.max_mismatch_frac * overlap)
        c_read, c_rev, c_ci, c_pos, mism, overlap = (
            c_read[ok], c_rev[ok], c_ci[ok], c_pos[ok], mism[ok], overlap[ok])
        if not c_read.size:
            return hits

        # per read, the first candidate with the best score
        score = overlap - 3 * mism
        best = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(best, c_read, score)
        top = np.nonzero(score == best[c_read])[0]
        _, pick = np.unique(c_read[top], return_index=True)
        for i in top[pick].tolist():
            hits[int(c_read[i])] = AlignmentHit(
                contig_index=int(c_ci[i]), position=int(c_pos[i]),
                reverse=bool(c_rev[i]), mismatches=int(mism[i]),
                overlap=int(overlap[i]))
        return hits

    def classify_end(self, hit: AlignmentHit, read_len: int,
                     end_window: int = DEFAULT_END_WINDOW) -> End | None:
        """Which contig end (if any) the aligned read belongs to.

        A read belongs to the LEFT end if it overhangs or starts within
        ``end_window`` of position 0; to the RIGHT end symmetrically. Ties
        (short contigs) go to the nearer end.
        """
        contig_len = len(self.contigs[hit.contig_index])
        start = hit.position
        end_pos = hit.position + read_len
        near_left = start < end_window
        near_right = end_pos > contig_len - end_window
        if near_left and near_right:
            return End.LEFT if start + (end_pos - contig_len) < 0 else End.RIGHT
        if near_left:
            return End.LEFT
        if near_right:
            return End.RIGHT
        return None


def assign_reads_to_ends(
    contigs: list[Contig],
    reads: ReadSet,
    seed_len: int = DEFAULT_SEED_LEN,
    end_window: int = DEFAULT_END_WINDOW,
) -> dict[str, int]:
    """Align every read and attach end-assigned reads to their contigs.

    Populates each contig's ``reads`` / ``read_end_hints`` in place
    (replacing any previous assignment). Reads are stored in their
    contig-forward orientation so the local-assembly kernels never see
    strand. Returns assignment statistics.
    """
    aligner = ReadAligner(contigs, seed_len=seed_len)
    for c in contigs:
        c.reads = ReadSet()
        c.read_end_hints = []
    stats = {"aligned": 0, "unaligned": 0, "interior": 0, "assigned": 0}
    for read, hit in zip(reads, aligner.align_all(reads)):
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
