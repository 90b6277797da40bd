"""The global de Bruijn graph and contig generation (Figure 2, stage 2-3).

Nodes are the *solid* k-mers from k-mer analysis (both orientations are
materialized, so all walks read left-to-right); edges are (k+1)-mer
observations in the reads. Contigs are unitigs: maximal paths along which
every node has a unique successor whose predecessor is also unique —
the unambiguous regions of the graph. Sequencing error and inter-organism
homology create forks that end unitigs early; that is precisely what the
local-assembly phase later repairs with read-local graphs.

The graph is built in bulk, as MetaHipMer and MEGAHIT do, from one
two-strand window stream (:func:`~repro.genomics.kmer.strand_windows`):
nodes get dense integer ids numbered by first occurrence in that stream,
keyed by their exact packed k-mer (never by fingerprint), and every
per-node table — occurrence and extension counts, the successor on the
unique path, the reverse-complement node — is an array indexed by id.
Only contig emission loops in Python, over integer ids.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import KmerError, SequenceError
from repro.genomics.dna import BASES, complement, decode, encode
from repro.genomics.kmer import pack_windows, strand_windows
from repro.genomics.reads import ReadSet
from repro.metahipmer.kmer_analysis import KmerSpectrum

#: Minimum reads supporting an edge for the walk to traverse it.
DEFAULT_MIN_EDGE_COUNT = 2

#: Contigs shorter than this are discarded (k + a few extensions).
DEFAULT_MIN_CONTIG_LEN = 50


def _first_occurrence_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for the rows of a ``(n, words)`` key matrix.

    Returns ``(ids, first)``: ``ids[i]`` is row ``i``'s id, ids are
    numbered in order of first occurrence, and ``first[j]`` is the row
    where id ``j`` first occurs. Multi-word keys are re-ranked one word
    at a time with 1-D :func:`numpy.unique` (``axis=0`` is far slower).
    """
    combined = keys[:, 0]
    for t in range(1, keys.shape[1]):
        _, prev = np.unique(combined, return_inverse=True)
        _, word = np.unique(keys[:, t], return_inverse=True)
        combined = prev * (int(word.max(initial=0)) + 1) + word
    _, first, inverse = np.unique(combined, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank_to_id = np.empty(order.size, dtype=np.int64)
    rank_to_id[order] = np.arange(order.size, dtype=np.int64)
    return rank_to_id[inverse], first[order]


class GlobalDeBruijnGraph:
    """The whole-dataset de Bruijn graph over solid k-mers.

    After :meth:`add_reads`, node ``i`` (``0 <= i < len(graph)``, in order
    of first occurrence) has ``count[i]`` occurrences and ``exts[i, b]``
    occurrences followed by base code ``b``. The string methods
    (``in``, :meth:`successors`, :meth:`predecessors`,
    :meth:`unique_successor`, :meth:`walk_unitig`) are thin lookups over
    those arrays.

    Args:
        k: k-mer size.
        spectrum: output of k-mer analysis; only k-mers whose canonical
            fingerprint is solid become nodes (error filtering).
        min_edge_count: reads required to support a traversable edge
            (at least 1: an edge no read supports is never traversed).
    """

    def __init__(self, k: int, spectrum: KmerSpectrum | None = None,
                 min_edge_count: int = DEFAULT_MIN_EDGE_COUNT) -> None:
        if k <= 0:
            raise KmerError(f"k must be positive, got {k}")
        if spectrum is not None and spectrum.k != k:
            raise KmerError(f"spectrum is for k={spectrum.k}, graph wants k={k}")
        if min_edge_count < 1:
            raise KmerError(
                f"min_edge_count must be at least 1, got {min_edge_count}")
        self.k = k
        self.spectrum = spectrum
        self.min_edge_count = min_edge_count
        self._seqs: list[np.ndarray] = []
        self._build()

    def __len__(self) -> int:
        return self.count.size

    def __contains__(self, kmer: str) -> bool:
        return self._lookup(kmer) >= 0

    def kmer(self, node: int) -> str:
        """The k-mer string of node id ``node``."""
        start = int(self._starts[node])
        return decode(self._codes[start:start + self.k])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_reads(self, reads: ReadSet) -> None:
        """Insert every (solid) k-mer of every read, in both orientations.

        Repeated calls accumulate: the graph is rebuilt over all reads
        added so far, in the order they were added.
        """
        self._seqs.extend(r.codes for r in reads)
        self._build()

    def _build(self) -> None:
        k = self.k
        win = strand_windows(self._seqs, k)
        if self.spectrum is None:
            solid = np.arange(win.starts.size, dtype=np.int64)
        else:
            solid_fps = np.fromiter(self.spectrum.counts, dtype=np.uint64,
                                    count=len(self.spectrum.counts))
            solid = np.flatnonzero(np.isin(win.canonical, solid_fps))
        packed = pack_windows(win.codes, win.starts[solid], k)
        ids, first = _first_occurrence_ids(packed)
        n = first.size
        node_of = np.full(win.starts.size, -1, dtype=np.int64)
        node_of[solid] = ids

        # a window and its successor window are one (k+1)-mer
        # observation; solidity is a property of the canonical k-mer, so
        # every occurrence of an edge names the same successor node (or
        # -1, not a node) and the last write below is as good as any
        edged = solid[win.has_next[solid]]
        slot = node_of[edged] * 4 + win.codes[win.starts[edged] + k]
        self.count = np.bincount(ids, minlength=n)
        self.exts = np.bincount(slot, minlength=4 * n).reshape(n, 4)
        succ = np.full(4 * n, -1, dtype=np.int64)
        succ[slot] = node_of[edged + 1]
        self._rc = np.empty(n, dtype=np.int64)
        self._rc[ids] = node_of[win.partner[solid]]

        # the unitig rule: exactly one traversable successor, whose
        # reverse complement's only successor is this node's reverse
        # complement (i.e. the successor's only predecessor is this node)
        self._traversable = ((self.exts >= self.min_edge_count)
                             & (succ.reshape(n, 4) >= 0))
        self._base = np.argmax(self._traversable, axis=1).astype(np.uint8)
        single = np.where(self._traversable.sum(axis=1) == 1,
                          succ[np.arange(n) * 4 + self._base], -1)
        back = single[self._rc[np.maximum(single, 0)]]
        self._next = np.where((single >= 0) & (back == self._rc), single, -1)

        self._codes = win.codes
        self._starts = win.starts[solid[first]]
        self._keys = packed[first]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def _lookup(self, kmer: str) -> int:
        """Node id of ``kmer``, or -1 when it is not a node."""
        if len(kmer) != self.k:
            return -1
        try:
            codes = encode(kmer)
        except SequenceError:
            return -1
        key = pack_windows(codes, np.zeros(1, dtype=np.int64), self.k)
        hit = np.flatnonzero((self._keys == key).all(axis=1))
        return int(hit[0]) if hit.size else -1

    def successors(self, kmer: str) -> list[str]:
        """Bases extending ``kmer`` with enough read support."""
        node = self._lookup(kmer)
        if node < 0:
            return []
        return [BASES[b] for b in np.flatnonzero(self._traversable[node])]

    def predecessors(self, kmer: str) -> list[str]:
        """Bases preceding ``kmer`` (via the reverse-complement node)."""
        node = self._lookup(kmer)
        if node < 0:
            return []
        rc = self._rc[node]
        return [BASES[3 - b] for b in np.flatnonzero(self._traversable[rc])]

    def unique_successor(self, kmer: str) -> str | None:
        """The unitig-extension base: a sole successor whose own sole
        predecessor is ``kmer`` (the standard unambiguous-path rule)."""
        node = self._lookup(kmer)
        if node < 0 or self._next[node] < 0:
            return None
        return BASES[self._base[node]]

    def walk_unitig(self, start: str, max_len: int = 1_000_000) -> str:
        """Maximal unambiguous extension of ``start`` to the right."""
        node = self._lookup(start)
        if node < 0:
            return ""
        _, bases = _walk(node, self._next, self._base, max_len)
        return "".join(BASES[b] for b in bases)


def _walk(start: int, nxt: Sequence[int] | np.ndarray,
          base: Sequence[int] | np.ndarray,
          max_len: int = 1_000_000) -> tuple[list[int], list[int]]:
    """Follow unique successors from node ``start``.

    ``nxt[i]`` is node ``i``'s unique-path successor (-1 for none) and
    ``base[i]`` the base code that steps to it; lists index fastest when
    every node is walked, arrays avoid converting for a single walk.

    Returns the nodes entered and the base codes appended, stopping at
    the first node without a unique successor, on re-entering a node
    already on this walk (a cycle), or after ``max_len`` bases.
    """
    nodes: list[int] = []
    bases: list[int] = []
    seen = {start}
    cur = start
    while len(bases) < max_len:
        step = nxt[cur]
        if step < 0 or step in seen:
            break
        seen.add(step)
        nodes.append(step)
        bases.append(base[cur])
        cur = step
    return nodes, bases


def generate_contigs(
    graph: GlobalDeBruijnGraph,
    min_length: int = DEFAULT_MIN_CONTIG_LEN,
) -> list[str]:
    """Emit every unitig of the graph once (strand-deduplicated).

    For each unvisited node, in node order, extend maximally right and
    (via the reverse complement) left; mark every covered node's
    canonical pair (the node and its reverse complement) visited.
    """
    n = len(graph)
    nxt = graph._next.tolist()
    base = graph._base.tolist()
    rc = graph._rc.tolist()
    pair = np.minimum(np.arange(n), graph._rc).tolist()
    visited = bytearray(n)
    contigs: list[str] = []
    for node in range(n):
        if visited[pair[node]]:
            continue
        right_nodes, right = _walk(node, nxt, base)
        left_nodes, left_rc = _walk(rc[node], nxt, base)
        visited[pair[node]] = 1
        for other in right_nodes + left_nodes:
            visited[pair[other]] = 1
        if len(left_rc) + graph.k + len(right) >= min_length:
            start = int(graph._starts[node])
            seq = np.concatenate([
                complement(np.array(left_rc[::-1], dtype=np.uint8)),
                graph._codes[start:start + graph.k],
                np.array(right, dtype=np.uint8),
            ])
            contigs.append(decode(seq))
    return contigs
