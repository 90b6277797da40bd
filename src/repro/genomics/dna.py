"""2-bit DNA encoding and elementary sequence operations.

The local-assembly kernel operates on the four-letter alphabet
``A, C, G, T``. Internally every sequence is represented as a
``numpy.uint8`` array with values ``0..3`` (the *code* representation);
strings appear only at API boundaries. This mirrors the byte-level layout
the GPU kernel uses and keeps every hot path vectorizable, following the
"vectorize the bottleneck, strings at the edges" idiom from the HPC Python
guides.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SequenceError

#: The DNA alphabet in code order. ``BASES[code]`` decodes a 2-bit code.
BASES = "ACGT"

#: Number of symbols in the DNA alphabet.
ALPHABET_SIZE = 4

# Lookup table: ASCII byte -> 2-bit code (255 marks an invalid character).
_ENCODE_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _ENCODE_LUT[ord(_b)] = _i
    _ENCODE_LUT[ord(_b.lower())] = _i

# Lookup table: 2-bit code -> ASCII byte.
_DECODE_LUT = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8).copy()

# Complement in code space: A<->T (0<->3), C<->G (1<->2) i.e. 3 - code.
_COMPLEMENT_LUT = np.array([3, 2, 1, 0], dtype=np.uint8)


def encode(seq: str | bytes | np.ndarray) -> np.ndarray:
    """Encode a DNA sequence into a ``uint8`` code array (A=0,C=1,G=2,T=3).

    Accepts a ``str``, ``bytes``, or an already-encoded ``uint8`` array
    (returned unchanged after validation). Lower-case bases are accepted.

    Raises:
        SequenceError: if the sequence contains characters outside
            ``ACGTacgt`` (including ambiguity codes such as ``N``).
    """
    if isinstance(seq, np.ndarray):
        if seq.dtype != np.uint8:
            raise SequenceError(f"encoded sequences must be uint8, got {seq.dtype}")
        if seq.size and int(seq.max(initial=0)) > 3:
            raise SequenceError("encoded sequence contains codes > 3")
        return seq
    if isinstance(seq, str):
        raw = np.frombuffer(seq.encode("ascii", errors="replace"), dtype=np.uint8)
    else:
        raw = np.frombuffer(bytes(seq), dtype=np.uint8)
    codes = _ENCODE_LUT[raw]
    if codes.size and int(codes.max(initial=0)) == 255:
        bad = chr(int(raw[np.argmax(codes == 255)]))
        raise SequenceError(f"invalid DNA base {bad!r}; expected one of {BASES}")
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode a ``uint8`` code array back into an ``ACGT`` string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and int(codes.max(initial=0)) > 3:
        raise SequenceError("code array contains values > 3")
    return _DECODE_LUT[codes].tobytes().decode("ascii")


def is_valid_sequence(seq: str) -> bool:
    """Return True if ``seq`` consists only of ``ACGT`` (case-insensitive)."""
    try:
        encode(seq)
    except SequenceError:
        return False
    return True


def complement(codes: np.ndarray) -> np.ndarray:
    """Complement of an encoded sequence (A<->T, C<->G), vectorized."""
    return _COMPLEMENT_LUT[np.asarray(codes, dtype=np.uint8)]


def reverse_complement(seq: str | np.ndarray) -> str | np.ndarray:
    """Reverse complement; returns the same type it was given.

    Strings come back as strings, encoded arrays come back encoded. The
    mer-walk uses this to turn a left extension into a right extension
    problem on the reverse-complemented contig.
    """
    if isinstance(seq, str):
        return reverse_complement_str(seq)
    return complement(seq)[::-1]


def reverse_complement_str(seq: str) -> str:
    """String-only :func:`reverse_complement`, typed ``str -> str``.

    For callers that hold a string and need a string back without
    narrowing the union return type of :func:`reverse_complement`.
    """
    return decode(complement(encode(seq))[::-1])


def decode_matrix(codes: np.ndarray, lengths: np.ndarray) -> list[str]:
    """Decode a padded ``(n, L)`` code matrix into per-row strings.

    Row ``i`` decodes to its first ``lengths[i]`` codes; padding beyond
    the row length is ignored (and may hold any value 0..3). The LUT
    translation runs once over the whole matrix — only the final string
    slicing is per row, which is the "strings at the edges" boundary.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise SequenceError(f"expected a (n, L) code matrix, got {codes.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (codes.shape[0],):
        raise SequenceError(
            f"lengths shape {lengths.shape} does not match {codes.shape[0]} rows")
    n, width = codes.shape
    if lengths.size and (int(lengths.min(initial=0)) < 0
                         or int(lengths.max(initial=0)) > width):
        raise SequenceError(f"row lengths must lie in [0, {width}]")
    if codes.size and int(codes.max(initial=0)) > 3:
        raise SequenceError("code matrix contains values > 3")
    flat = _DECODE_LUT[codes].tobytes()
    return [flat[i * width:i * width + int(lengths[i])].decode("ascii")
            for i in range(n)]


def reverse_complement_matrix(codes: np.ndarray,
                              lengths: np.ndarray) -> np.ndarray:
    """Reverse-complement every row of a padded ``(n, L)`` code matrix.

    Row ``i`` holds a sequence in its first ``lengths[i]`` columns; the
    result keeps the same layout (sequence left-aligned, padding zeroed).
    One vectorized gather + LUT services the whole batch — this is the
    batched form of :func:`reverse_complement` the kernel driver uses to
    flip a launch's accepted left-end walks in one array operation.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise SequenceError(f"expected a (n, L) code matrix, got {codes.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (codes.shape[0],):
        raise SequenceError(
            f"lengths shape {lengths.shape} does not match {codes.shape[0]} rows")
    n, width = codes.shape
    if width == 0:
        return np.zeros((n, 0), dtype=np.uint8)
    if lengths.size and (int(lengths.min(initial=0)) < 0
                         or int(lengths.max(initial=0)) > width):
        raise SequenceError(f"row lengths must lie in [0, {width}]")
    cols = np.arange(width, dtype=np.int64)
    src = lengths[:, None] - 1 - cols
    valid = cols < lengths[:, None]
    gathered = codes[np.arange(n)[:, None], np.where(valid, src, 0)]
    return np.where(valid, _COMPLEMENT_LUT[gathered], 0).astype(np.uint8)


def random_sequence(length: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random encoded DNA sequence of ``length`` bases."""
    if length < 0:
        raise SequenceError(f"sequence length must be >= 0, got {length}")
    return rng.integers(0, ALPHABET_SIZE, size=length, dtype=np.uint8)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of mismatching positions between two equal-length sequences."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise SequenceError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))
