"""Vectorized per-warp hash tables (the device-memory ``loc_ht`` arrays).

Every warp of a launch owns one open-addressing table; all tables live in
flat structure-of-arrays storage so that one NumPy operation services a
probe iteration across *every* pending lane of *every* warp — the
warp-synchronous vectorized execution style DESIGN.md decision #1 calls
out (per the HPC-Python guides: the hot loop is over probe iterations,
never over lanes).

Keys are identified by 64-bit fingerprints (see
:mod:`repro.genomics.kmer`); byte-level key comparison cost is still
charged by the memory model, the fingerprint only replaces *storage* of
the key bytes, like the GPU struct's ``start_ptr`` indirection.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashTableFullError, KernelError
from repro.simt.intrinsics import elect_one_per_slot

#: Bytes of the slot struct read by a probe (key tag: ptr + length).
SLOT_TAG_BYTES = 16

#: Bytes of the vote/value region written by an insertion
#: (hi_q_exts + low_q_exts + ext + count, as in the GPU struct).
SLOT_VALUE_BYTES = 16

#: Full slot footprint in device memory.
SLOT_BYTES = SLOT_TAG_BYTES + SLOT_VALUE_BYTES


class WarpHashTables:
    """All per-warp hash tables of one kernel launch.

    Host storage is lean: per slot only the fingerprint, the occupied
    flag and an int32 ``vote_row``; vote counts live in ``votes`` rows
    that exist only for slots that received votes (about one slot in
    seven at the engine's load factor). The modeled device struct —
    :data:`SLOT_BYTES` per slot, behind ``total_bytes`` — is unchanged.

    Args:
        capacities: per-warp slot counts (int array, one per warp).
        k: key length in bases.
    """

    def __init__(self, capacities: np.ndarray, k: int) -> None:
        capacities = np.asarray(capacities, dtype=np.int64)
        if capacities.ndim != 1 or capacities.size == 0:
            raise KernelError("capacities must be a non-empty 1-D array")
        if (capacities <= 0).any():
            raise KernelError("all table capacities must be positive")
        self.capacities = capacities
        self.k = int(k)
        self.offsets = np.zeros(capacities.size + 1, dtype=np.int64)
        np.cumsum(capacities, out=self.offsets[1:])
        total = int(self.offsets[-1])
        self.fp = np.zeros(total, dtype=np.uint64)
        self.occupied = np.zeros(total, dtype=bool)
        #: Vote row of each slot; row 0 is the shared all-zero row of
        #: every slot nobody has voted for.
        self.vote_row = np.zeros(total, dtype=np.int32)
        # Vote rows ``(rows, 2, 4)``: ``[row, hi, ext]`` counts, appended
        # in first-vote order into an amortized-growth buffer.
        self._votes = np.zeros((1, 2, 4), dtype=np.int32)
        self._n_rows = 1

    @property
    def n_warps(self) -> int:
        return self.capacities.size

    @property
    def total_slots(self) -> int:
        return int(self.offsets[-1])

    @property
    def total_bytes(self) -> int:
        """Device-memory footprint of all tables (cold-miss floor)."""
        return self.total_slots * SLOT_BYTES

    def slot_of(self, warps: np.ndarray, homes: np.ndarray,
                probes: np.ndarray) -> np.ndarray:
        """Global slot index for (warp, home hash, probe offset) triples."""
        caps = self.capacities[warps]
        wrapped = np.asarray(probes) >= caps
        if wrapped.any():
            j = int(np.argmax(wrapped))
            raise HashTableFullError(
                "probe offset wrapped a full table",
                capacity=int(np.ravel(caps)[j]),
                probes=int(np.ravel(probes)[j]),
            )
        return self.offsets[warps] + (homes.astype(np.int64) + probes) % caps

    def inspect(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read (occupied, fingerprint) for each slot — one probe load."""
        return self.occupied[slots], self.fp[slots]

    def claim(self, slots: np.ndarray, fps: np.ndarray) -> np.ndarray:
        """atomicCAS claim of empty slots; returns the winner mask.

        Callers pass only slots observed empty this iteration. Exactly one
        lane per distinct slot wins; winners' fingerprints are installed.
        """
        winners = elect_one_per_slot(slots)
        ws = slots[winners]
        self.occupied[ws] = True
        self.fp[ws] = fps[winners]
        return winners

    @property
    def votes(self) -> np.ndarray:
        """Vote rows in use, ``(rows, 2, 4)``: ``[vote_row[slot], hi, ext]``."""
        return self._votes[: self._n_rows]

    def vote(self, slots: np.ndarray, exts: np.ndarray, hi_mask: np.ndarray) -> None:
        """Atomic vote accumulation (atomicAdd on the value region).

        Only slots that receive votes get a vote row. One ``unique`` over
        the packed cell key ``slot<<3 | hi<<2 | ext`` yields duplicate-free
        cells with their add counts; first-voted slots are appended rows,
        and the adds land as one duplicate-free scatter into the rows
        (integer addition is order-free, so the totals equal
        ``np.add.at``).
        """
        if slots.size == 0:
            return
        sub = exts.astype(np.uint8)
        sub |= np.asarray(hi_mask, dtype=np.uint8) << np.uint8(2)
        if self.vote_row.size * 8 <= np.iinfo(np.int32).max:
            key = slots.astype(np.int32)  # narrow first: halves sort traffic
            key <<= np.int32(3)
        else:
            key = slots << np.int64(3)
        key |= sub
        cell, add = np.unique(key, return_counts=True)
        slot = cell >> 3
        rows = self.vote_row[slot]
        fresh = rows == 0
        if fresh.any():
            # cells are slot-sorted: a slot's first cell opens its row
            first = fresh.copy()
            first[1:] &= slot[1:] != slot[:-1]
            new = slot[first]
            base = self._n_rows
            self._grow(base + new.size)
            self.vote_row[new] = np.arange(base, self._n_rows, dtype=np.int32)
            rows[fresh] = self.vote_row[slot[fresh]]
        flat = rows.astype(np.int64) << 3
        flat |= cell & 7
        self._votes.reshape(-1)[flat] += add.astype(np.int32)

    def _grow(self, n_rows: int) -> None:
        """Make room for ``n_rows`` vote rows.

        The first flush sizes the buffer exactly (a launch-sized flush
        then holds no slack); later growth doubles, so many small
        ``vote`` calls stay amortized O(1) per row.
        """
        if n_rows > self._votes.shape[0]:
            cap = max(n_rows, 2 * self._votes.shape[0])
            grown = np.zeros((cap, 2, 4), dtype=np.int32)
            grown[: self._n_rows] = self._votes[: self._n_rows]
            self._votes = grown
        self._n_rows = n_rows

    def votes_at(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather (hi_q, low_q) count rows for walk-step resolution.

        Slots nobody voted for read the all-zero row 0, as a
        never-written value region would.
        """
        rows = self._votes[self.vote_row[slots]]
        return rows[:, 1], rows[:, 0]

    def occupancy(self) -> float:
        """Fraction of slots holding a key (post-construction check)."""
        return float(self.occupied.mean()) if self.total_slots else 0.0

    def keys_per_warp(self) -> np.ndarray:
        """Distinct keys stored per warp (for invariant tests)."""
        out = np.zeros(self.n_warps, dtype=np.int64)
        warp_of_slot = np.repeat(np.arange(self.n_warps), self.capacities)
        np.add.at(out, warp_of_slot[self.occupied], 1)
        return out
