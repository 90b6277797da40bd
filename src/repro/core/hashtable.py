"""The ``loc_ht`` open-addressing k-mer hash table (CPU reference form).

Faithful to the GPU data structure the paper describes: fixed-capacity
array of slots, MurmurHashAligned2 of the k-mer bytes for the home slot,
linear probing for hash collisions, and per-slot extension votes. The GPU
resolves *thread* collisions with ``atomicCAS``; the CPU form is serial so
identical k-mers simply merge votes into the same slot.

Probe statistics are tracked because the performance model charges one
hash-table memory transaction per probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import HashTableFullError, KmerError
from repro.core.extension import ExtensionVotes
from repro.genomics.dna import decode
from repro.hashing.murmur import murmur_aligned2

#: Sentinel meaning "slot unoccupied" (mirrors the GPU's EMPTY key.length).
EMPTY_SLOT = -1


@dataclass
class Slot:
    """One occupied hash-table slot: the key k-mer plus its votes."""

    key: np.ndarray
    votes: ExtensionVotes = field(default_factory=ExtensionVotes)

    @property
    def kmer(self) -> str:
        return decode(self.key)


@dataclass
class ProbeStats:
    """Memory-access accounting for the performance model."""

    inserts: int = 0
    lookups: int = 0
    probes: int = 0
    collisions: int = 0  # probes beyond the home slot

    @property
    def mean_probe_length(self) -> float:
        ops = self.inserts + self.lookups
        return self.probes / ops if ops else 0.0


class LocalHashTable:
    """Open-addressing k-mer hash table with linear probing.

    Args:
        capacity: number of slots; must exceed the number of distinct keys
            or :class:`HashTableFullError` is raised on overflow.
        k: key length in bases (all keys must have exactly this length).
        seed: Murmur seed.
    """

    def __init__(self, capacity: int, k: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise KmerError(f"capacity must be positive, got {capacity}")
        if k <= 0:
            raise KmerError(f"k must be positive, got {k}")
        self.capacity = int(capacity)
        self.k = int(k)
        self.seed = seed
        self._slots: list[Slot | None] = [None] * self.capacity
        self._occupied = 0
        self.stats = ProbeStats()

    def __len__(self) -> int:
        return self._occupied

    @property
    def load_factor(self) -> float:
        return self._occupied / self.capacity

    def _home_slot(self, key: np.ndarray) -> int:
        return murmur_aligned2(key, self.seed) % self.capacity

    def _check_key(self, key: np.ndarray) -> np.ndarray:
        key = np.asarray(key, dtype=np.uint8)
        if key.shape != (self.k,):
            raise KmerError(f"key length {key.shape} != (k={self.k},)")
        return key

    def _probe(self, key: np.ndarray) -> int | None:
        """Linear probe: the key's slot, else the first empty slot.

        Returns None when the probe wraps all the way around a full
        table without finding the key.
        """
        idx = self._home_slot(key)
        start = idx
        probes = 0
        while True:
            probes += 1
            slot = self._slots[idx]
            if slot is None or np.array_equal(slot.key, key):
                break
            idx = (idx + 1) % self.capacity
            if idx == start:
                idx = None
                break
        self.stats.probes += probes
        self.stats.collisions += probes - 1
        return idx

    def insert(self, key: np.ndarray, ext_code: int, qual: int) -> Slot:
        """Insert (or merge into) ``key`` a vote for next-base ``ext_code``.

        Raises :class:`HashTableFullError` when the table is full and the
        key absent (the GPU prints ``*hashtable full*``).
        """
        key = self._check_key(key)
        self.stats.inserts += 1
        idx = self._probe(key)
        if idx is None:
            raise HashTableFullError(
                "hash table full", k=self.k,
                capacity=self.capacity, probes=self.capacity,
            )
        slot = self._slots[idx]
        if slot is None:
            slot = Slot(key=key.copy())
            self._slots[idx] = slot
            self._occupied += 1
        slot.votes.vote(int(ext_code), int(qual))
        return slot

    def lookup(self, key: np.ndarray) -> Slot | None:
        """Find the slot for ``key`` or None if absent."""
        key = self._check_key(key)
        self.stats.lookups += 1
        idx = self._probe(key)
        return self._slots[idx] if idx is not None else None

    def __contains__(self, key: np.ndarray) -> bool:
        saved = (self.stats.lookups, self.stats.probes, self.stats.collisions)
        found = self.lookup(np.asarray(key, dtype=np.uint8)) is not None
        self.stats.lookups, self.stats.probes, self.stats.collisions = saved
        return found

    def slots(self) -> list[Slot]:
        """All occupied slots (order is table order, not insertion order)."""
        return [s for s in self._slots if s is not None]

    def keys(self) -> list[str]:
        return [s.kmer for s in self.slots()]
