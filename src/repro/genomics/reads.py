"""Sequencing reads with per-base phred quality scores.

The local-assembly kernel consumes, for each contig, the set of reads that
aligned to one of its ends. Each read carries a phred-scaled quality
string; the kernel splits extension votes into *high-quality* and
*low-quality* buckets using a quality threshold (MetaHipMer uses Q20).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SequenceError
from repro.genomics.dna import decode, encode

#: Phred threshold separating high-quality from low-quality base calls.
DEFAULT_QUAL_THRESHOLD = 20

#: Offset used when rendering qualities as FASTQ ASCII (Sanger encoding).
PHRED_ASCII_OFFSET = 33

#: Highest phred score we model (Illumina-style cap).
MAX_PHRED = 41


@dataclass
class Read:
    """A single sequencing read.

    Attributes:
        name: read identifier (free-form).
        codes: encoded bases, ``uint8`` values ``0..3``.
        quals: phred quality per base, ``uint8`` (same length as ``codes``).
    """

    name: str
    codes: np.ndarray
    quals: np.ndarray

    def __post_init__(self) -> None:
        self.codes = encode(self.codes) if self.codes.dtype != np.uint8 else self.codes
        self.quals = np.asarray(self.quals, dtype=np.uint8)
        if len(self.codes) != len(self.quals):
            raise SequenceError(
                f"read {self.name!r}: {len(self.codes)} bases but {len(self.quals)} quals"
            )

    @classmethod
    def from_strings(cls, name: str, seq: str, quals: str | np.ndarray | None = None) -> "Read":
        """Build a read from a base string and FASTQ-style quality string."""
        codes = encode(seq)
        if quals is None:
            q = np.full(len(codes), MAX_PHRED, dtype=np.uint8)
        elif isinstance(quals, str):
            raw = np.frombuffer(quals.encode("ascii"), dtype=np.uint8)
            if raw.size and (raw.min(initial=255) < PHRED_ASCII_OFFSET):
                raise SequenceError(f"read {name!r}: quality character below '!'")
            q = (raw - PHRED_ASCII_OFFSET).astype(np.uint8)
        else:
            q = np.asarray(quals, dtype=np.uint8)
        return cls(name=name, codes=codes, quals=q)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def sequence(self) -> str:
        """The bases as an ``ACGT`` string."""
        return decode(self.codes)

    @property
    def quality_string(self) -> str:
        """FASTQ (Sanger) rendering of the quality scores."""
        return (self.quals + PHRED_ASCII_OFFSET).astype(np.uint8).tobytes().decode("ascii")

    def high_quality_mask(self, threshold: int = DEFAULT_QUAL_THRESHOLD) -> np.ndarray:
        """Boolean mask of bases whose phred score is >= ``threshold``."""
        return self.quals >= threshold


@dataclass
class ReadSet:
    """An ordered collection of reads, with bulk (vectorized) accessors.

    Bulk accessors return ragged data as flat arrays plus offsets, the
    layout the SIMT kernels consume directly (structure-of-arrays instead
    of per-read Python objects in the hot path).
    """

    reads: list[Read] = field(default_factory=list)
    _lengths: np.ndarray | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def append(self, read: Read) -> None:
        self.reads.append(read)
        self._lengths = None

    def lengths(self) -> np.ndarray:
        """int64 length of every read, cached until the next :meth:`append`."""
        if self._lengths is None or self._lengths.size != len(self.reads):
            self._lengths = np.fromiter((len(r) for r in self.reads),
                                        dtype=np.int64, count=len(self.reads))
        return self._lengths

    def __len__(self) -> int:
        return len(self.reads)

    def __iter__(self):
        return iter(self.reads)

    def __getitem__(self, i: int) -> Read:
        return self.reads[i]

    @property
    def total_bases(self) -> int:
        return sum(len(r) for r in self.reads)

    @property
    def mean_length(self) -> float:
        return self.total_bases / len(self.reads) if self.reads else 0.0

    def flatten(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate all reads into ``(codes, quals, offsets)``.

        ``offsets`` has ``len(self)+1`` entries; read ``i`` occupies
        ``codes[offsets[i]:offsets[i+1]]``.
        """
        lengths = np.fromiter((len(r) for r in self.reads), dtype=np.int64, count=len(self.reads))
        offsets = np.zeros(len(self.reads) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if self.reads:
            codes = np.concatenate([r.codes for r in self.reads])
            quals = np.concatenate([r.quals for r in self.reads])
        else:
            codes = np.empty(0, dtype=np.uint8)
            quals = np.empty(0, dtype=np.uint8)
        return codes, quals, offsets

    def kmer_count(self, k: int) -> int:
        """Total number of k-mers across all reads (reads shorter than k give 0)."""
        return sum(max(0, len(r) - k + 1) for r in self.reads)
