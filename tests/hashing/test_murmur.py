"""Tests for the MurmurHash2 implementation.

Reference digests were computed from Austin Appleby's C MurmurHash2
(SMHasher) semantics: h = seed ^ len; per-4-byte little-endian mix with
m=0x5bd1e995, r=24; tail bytes; final avalanche.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import murmur


def _reference_murmur2(data: bytes, seed: int = 0) -> int:
    """Independent straight-line transcription of the C code."""
    m, r = 0x5BD1E995, 24
    mask = 0xFFFFFFFF
    n = len(data)
    h = (seed ^ n) & mask
    i = 0
    while n - i >= 4:
        k = data[i] | data[i + 1] << 8 | data[i + 2] << 16 | data[i + 3] << 24
        k = (k * m) & mask
        k ^= k >> r
        k = (k * m) & mask
        h = (h * m) & mask
        h ^= k
        i += 4
    rem = n - i
    if rem == 3:
        h ^= data[i + 2] << 16
    if rem >= 2:
        h ^= data[i + 1] << 8
    if rem >= 1:
        h ^= data[i]
        h = (h * m) & mask
    h ^= h >> 13
    h = (h * m) & mask
    h ^= h >> 15
    return h


class TestScalar:
    def test_empty(self):
        assert murmur.murmur2(b"") == _reference_murmur2(b"")

    def test_known_lengths(self):
        for n in range(0, 20):
            data = bytes(range(n))
            assert murmur.murmur2(data) == _reference_murmur2(data), n

    def test_seed_changes_digest(self):
        assert murmur.murmur2(b"ACGTACGT", seed=1) != murmur.murmur2(b"ACGTACGT", seed=2)

    def test_accepts_uint8_array(self):
        arr = np.array([0, 1, 2, 3], dtype=np.uint8)
        assert murmur.murmur2(arr) == murmur.murmur2(bytes([0, 1, 2, 3]))

    def test_aligned_equals_plain(self):
        for n in (4, 8, 21, 33, 55, 77):
            data = bytes((i * 37) % 256 for i in range(n))
            assert murmur.murmur_aligned2(data) == murmur.murmur2(data)

    @given(st.binary(min_size=0, max_size=128), st.integers(0, 2**32 - 1))
    def test_matches_reference(self, data, seed):
        assert murmur.murmur2(data, seed) == _reference_murmur2(data, seed)

    def test_range_is_uint32(self):
        for n in range(40):
            assert 0 <= murmur.murmur2(bytes(n)) <= 0xFFFFFFFF


class TestBatch:
    def test_matches_scalar_all_kmer_sizes(self):
        rng = np.random.default_rng(0)
        for k in (21, 33, 55, 77):
            keys = rng.integers(0, 4, size=(50, k), dtype=np.uint8)
            digests = murmur.murmur2_batch(keys, seed=17)
            for i in range(keys.shape[0]):
                assert int(digests[i]) == murmur.murmur2(keys[i].tobytes(), seed=17)

    def test_empty_batch(self):
        out = murmur.murmur2_batch(np.empty((0, 21), dtype=np.uint8))
        assert out.shape == (0,)
        assert out.dtype == np.uint32

    def test_rejects_1d(self):
        import pytest

        with pytest.raises(ValueError):
            murmur.murmur2_batch(np.zeros(4, dtype=np.uint8))

    @settings(max_examples=20)
    @given(st.integers(1, 16), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batch_property(self, n, length, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 256, size=(n, length), dtype=np.uint8)
        digests = murmur.murmur2_batch(keys, seed=seed)
        assert int(digests[0]) == murmur.murmur2(keys[0].tobytes(), seed=seed)
        assert int(digests[-1]) == murmur.murmur2(keys[-1].tobytes(), seed=seed)

    def test_distribution_roughly_uniform(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 4, size=(20000, 21), dtype=np.uint8)
        digests = murmur.murmur2_batch(keys)
        buckets = np.bincount(digests % np.uint32(16), minlength=16)
        assert buckets.min() > 20000 / 16 * 0.8
        assert buckets.max() < 20000 / 16 * 1.2


class TestStream:
    """murmur2_stream must equal murmur2_batch over gathered windows —
    the identity the batch preparer's per-k hashing relies on."""

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 255))
    def test_matches_batch_on_all_windows(self, seed, length, hseed):
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, 256, size=length + 60, dtype=np.uint8)
        starts = np.arange(stream.size - length + 1, dtype=np.int64)
        windows = stream[starts[:, None] + np.arange(length)]
        np.testing.assert_array_equal(
            murmur.murmur2_stream(stream, starts, length, seed=hseed),
            murmur.murmur2_batch(windows, seed=hseed))

    def test_precomputed_words_identical(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 256, size=300, dtype=np.uint8)
        starts = np.arange(0, 260, 7, dtype=np.int64)
        words = murmur.murmur2_words(stream)
        np.testing.assert_array_equal(
            murmur.murmur2_stream(stream, starts, 33, words=words),
            murmur.murmur2_stream(stream, starts, 33))

    def test_words_are_little_endian(self):
        stream = np.array([1, 2, 3, 4, 5], dtype=np.uint8)
        words = murmur.murmur2_words(stream)
        assert words.dtype == np.uint32
        assert words.tolist() == [0x04030201, 0x05040302]
        assert murmur.murmur2_words(stream[:3]).size == 0

    def test_words_at_every_offset(self):
        rng = np.random.default_rng(8)
        for size in range(0, 13):
            stream = rng.integers(0, 256, size=size, dtype=np.uint8)
            expect = [int.from_bytes(stream[i:i + 4].tobytes(), "little")
                      for i in range(size - 3)]
            assert murmur.murmur2_words(stream).tolist() == expect, size

    def test_empty_starts(self):
        for length in (3, 4, 21):
            out = murmur.murmur2_stream(np.zeros(30, dtype=np.uint8),
                                        np.empty(0, dtype=np.int64), length)
            assert out.shape == (0,) and out.dtype == np.uint32

    def test_out_of_bounds_window_rejected(self):
        import pytest

        stream = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            murmur.murmur2_stream(stream, np.array([8]), 4)
        with pytest.raises(ValueError):
            murmur.murmur2_stream(stream, np.array([-1]), 4)
        with pytest.raises(ValueError):
            murmur.murmur2_stream(stream, np.array([0]), 0)


class TestStreamBlocks:
    """Blocked murmur2_stream equals murmur2_batch and the scalar murmur2
    across block boundaries, every tail length and short windows."""

    B = murmur._STREAM_BLOCK

    @staticmethod
    def _check(stream, starts, length, seed=11, words=None):
        got = murmur.murmur2_stream(stream, starts, length, seed=seed,
                                    words=words)
        windows = stream[starts[:, None] + np.arange(length)]
        np.testing.assert_array_equal(
            got, murmur.murmur2_batch(windows, seed=seed))
        # the scalar reference at both edges of every block
        edges = {0, starts.size - 1}
        for b in range(TestStreamBlocks.B, starts.size,
                       TestStreamBlocks.B):
            edges |= {b - 1, b}
        for i in sorted(e for e in edges if 0 <= e < starts.size):
            assert int(got[i]) == murmur.murmur2(windows[i].tobytes(),
                                                 seed=seed), i

    def test_start_counts_around_the_block_size(self):
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 4, size=3 * self.B + 64, dtype=np.uint8)
        for n in (self.B - 1, self.B, self.B + 1, 3 * self.B + 5):
            starts = rng.integers(0, stream.size - 23, size=n)
            self._check(stream, starts, 23)

    def test_every_tail_length(self):
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 256, size=self.B + 200, dtype=np.uint8)
        for length in (20, 21, 22, 23):  # length % 4 = 0, 1, 2, 3
            starts = np.arange(self.B + 3, dtype=np.int64)
            self._check(stream, starts, length)

    def test_windows_shorter_than_a_word(self):
        rng = np.random.default_rng(6)
        stream = rng.integers(0, 256, size=self.B + 10, dtype=np.uint8)
        for length in (1, 2, 3):
            starts = np.arange(self.B + 2, dtype=np.int64)
            self._check(stream, starts, length)

    def test_supplied_words(self):
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 4, size=2 * self.B + 100, dtype=np.uint8)
        starts = rng.integers(0, stream.size - 33, size=2 * self.B + 9)
        self._check(stream, starts, 33, words=murmur.murmur2_words(stream))
