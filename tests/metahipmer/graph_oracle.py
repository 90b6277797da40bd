"""Reference dict-of-nodes global de Bruijn graph (parity oracle).

The per-k-mer implementation :mod:`repro.metahipmer.global_graph` had
before it became array code: one dict entry per k-mer string, each with
its own 4-element extension-count array, built one window at a time and
traversed by string. Kept here only so the tests can require the array
graph to produce the same nodes, counts, extension counts and contig list
(order included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import KmerError
from repro.genomics.dna import (
    BASES,
    complement,
    decode,
    reverse_complement,
    reverse_complement_str,
)
from repro.genomics.kmer import canonical_kmer, kmer_fingerprints, kmer_matrix
from repro.genomics.reads import ReadSet
from repro.metahipmer.global_graph import (
    DEFAULT_MIN_CONTIG_LEN,
    DEFAULT_MIN_EDGE_COUNT,
)
from repro.metahipmer.kmer_analysis import KmerSpectrum


@dataclass
class _Node:
    """One k-mer node: counts of observed next bases (forward direction)."""

    exts: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    count: int = 0


class DictDeBruijnGraph:
    """The whole-dataset de Bruijn graph over solid k-mers, one dict entry
    per k-mer.

    Args:
        k: k-mer size.
        spectrum: output of k-mer analysis; only k-mers whose canonical
            fingerprint is solid become nodes (error filtering).
        min_edge_count: reads required to support a traversable edge.
    """

    def __init__(self, k: int, spectrum: KmerSpectrum | None = None,
                 min_edge_count: int = DEFAULT_MIN_EDGE_COUNT) -> None:
        if k <= 0:
            raise KmerError(f"k must be positive, got {k}")
        if spectrum is not None and spectrum.k != k:
            raise KmerError(f"spectrum is for k={spectrum.k}, graph wants k={k}")
        self.k = k
        self.spectrum = spectrum
        self.min_edge_count = min_edge_count
        self._nodes: dict[str, _Node] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, kmer: str) -> bool:
        return kmer in self._nodes

    def node(self, kmer: str) -> _Node | None:
        return self._nodes.get(kmer)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _solid_mask(self, codes: np.ndarray) -> np.ndarray:
        """Per-position solidity of every k-mer of ``codes``, vectorized.

        Canonical fingerprints for the whole sequence are computed in two
        rolling passes (same identity as k-mer analysis) instead of
        re-fingerprinting each window — the membership test is the only
        per-position Python work left.
        """
        n = len(codes) - self.k + 1
        if self.spectrum is None:
            return np.ones(n, dtype=bool)
        fwd = kmer_fingerprints(codes, self.k)
        rc = complement(codes)[::-1]
        rcf = kmer_fingerprints(np.ascontiguousarray(rc), self.k)[::-1]
        canon = np.minimum(fwd, rcf)
        counts = self.spectrum.counts
        return np.fromiter((int(f) in counts for f in canon),
                           dtype=bool, count=n)

    def add_reads(self, reads: ReadSet) -> None:
        """Insert every (solid) k-mer of every read, in both orientations."""
        for r in reads:
            for codes in (r.codes, reverse_complement(r.codes)):
                if len(codes) < self.k:
                    continue
                mat = kmer_matrix(codes, self.k)
                solid = self._solid_mask(codes)
                for i in np.nonzero(solid)[0]:
                    kmer = decode(mat[i])
                    node = self._nodes.setdefault(kmer, _Node())
                    node.count += 1
                    if i + self.k < len(codes):
                        node.exts[int(codes[i + self.k])] += 1

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def successors(self, kmer: str) -> list[str]:
        """Bases extending ``kmer`` with enough read support."""
        node = self._nodes.get(kmer)
        if node is None:
            return []
        return [BASES[i] for i in range(4)
                if node.exts[i] >= self.min_edge_count
                and (kmer[1:] + BASES[i]) in self._nodes]

    def predecessors(self, kmer: str) -> list[str]:
        """Bases preceding ``kmer`` (via the reverse-complement node)."""
        succ = self.successors(reverse_complement_str(kmer))
        return [reverse_complement_str(b) for b in succ]

    def unique_successor(self, kmer: str) -> str | None:
        """The unitig-extension base: a sole successor whose own sole
        predecessor is ``kmer`` (the standard unambiguous-path rule)."""
        succ = self.successors(kmer)
        if len(succ) != 1:
            return None
        nxt = kmer[1:] + succ[0]
        preds = self.predecessors(nxt)
        if len(preds) != 1 or (preds[0] + nxt[:-1]) != kmer:
            return None
        return succ[0]

    def walk_unitig(self, start: str, max_len: int = 1_000_000) -> str:
        """Maximal unambiguous extension of ``start`` to the right."""
        out: list[str] = []
        cur = start
        seen = {cur}
        while len(out) < max_len:
            base = self.unique_successor(cur)
            if base is None:
                break
            cur = cur[1:] + base
            if cur in seen:
                break
            seen.add(cur)
            out.append(base)
        return "".join(out)


def generate_contigs_dict(
    graph: DictDeBruijnGraph,
    min_length: int = DEFAULT_MIN_CONTIG_LEN,
) -> list[str]:
    """Emit every unitig of the graph once (strand-deduplicated).

    For each unvisited node, extend maximally right and (via the reverse
    complement) left; mark all covered k-mers, canonical-side, visited.
    """
    visited: set[str] = set()
    contigs: list[str] = []
    for kmer in list(graph._nodes):
        if canonical_kmer(kmer) in visited:
            continue
        right = graph.walk_unitig(kmer)
        left_rc = graph.walk_unitig(reverse_complement_str(kmer))
        left = reverse_complement_str(left_rc)
        seq = left + kmer + right
        for i in range(len(seq) - graph.k + 1):
            visited.add(canonical_kmer(seq[i : i + graph.k]))
        if len(seq) >= min_length:
            contigs.append(seq)
    return contigs
