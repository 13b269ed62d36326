"""Tests for SC2 statistical compression."""

import heapq
import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CompressionError
from repro.compression.sc2 import (
    _huffman_code_lengths,
    codebook_bits,
    DEFAULT_CODEBOOK_SIZE,
    MAX_CODE_BITS,
    SC2Compressor,
)

lines = st.binary(min_size=64, max_size=64)


def words(*values):
    return struct.pack("<16I", *[v & 0xFFFFFFFF for v in values])


class TestHuffman:
    def test_single_symbol(self):
        assert _huffman_code_lengths({7: 100}) == {7: 1}

    def test_two_symbols(self):
        lengths = _huffman_code_lengths({1: 10, 2: 1})
        assert lengths == {1: 1, 2: 1}

    def test_skewed_distribution_gives_short_codes_to_frequent(self):
        lengths = _huffman_code_lengths({1: 1000, 2: 10, 3: 10, 4: 1})
        assert lengths[1] < lengths[4]

    def test_kraft_inequality(self):
        freqs = {i: (i + 1) ** 2 for i in range(20)}
        lengths = _huffman_code_lengths(freqs)
        assert sum(2 ** -n for n in lengths.values()) <= 1.0 + 1e-9

    def test_empty(self):
        assert _huffman_code_lengths({}) == {}

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 2**32 - 1),
            # A small weight range forces many equal-weight ties.
            st.integers(1, 6) | st.integers(1, 10**6),
            max_size=300,
        )
    )
    def test_matches_frozen_dict_merging_builder(self, freqs):
        assert _huffman_code_lengths(freqs) == _frozen_huffman_code_lengths(freqs)


class TestCodebookBits:
    def test_zero_stays_encodable_when_absent(self):
        assert codebook_bits({5: 3, 6: 1}) == {5: 1, 6: 1, 0: MAX_CODE_BITS}

    def test_zero_keeps_its_huffman_length_when_present(self):
        assert codebook_bits({0: 10, 6: 1}) == {0: 1, 6: 1}

    def test_lengths_are_capped(self):
        # Fibonacci weights give the deepest possible Huffman tree.
        fib = [1, 1]
        while len(fib) < 24:
            fib.append(fib[-1] + fib[-2])
        deep = _huffman_code_lengths(dict(enumerate(fib, start=1)))
        assert max(deep.values()) > MAX_CODE_BITS
        bits = codebook_bits(dict(enumerate(fib, start=1)))
        assert max(bits.values()) == MAX_CODE_BITS

    def test_train_uses_it(self):
        sample = [words(*range(16)), words(*([3] * 16))]
        compressor = SC2Compressor()
        compressor.train(sample)
        counts = {3: 17, **{v: 1 for v in range(16) if v != 3}}
        ordered = dict(sorted(counts.items(), key=lambda kv: -kv[1]))
        assert compressor.codebook == codebook_bits(ordered)


def _frozen_huffman_code_lengths(frequencies):
    """The original dict-merging Huffman build, frozen as the reference."""
    if not frequencies:
        return {}
    if len(frequencies) == 1:
        return {symbol: 1 for symbol in frequencies}
    counter = itertools.count()
    heap = [
        (freq, next(counter), {symbol: 0})
        for symbol, freq in frequencies.items()
    ]
    heapq.heapify(heap)
    while len(heap) > 1:
        freq_a, _, lengths_a = heapq.heappop(heap)
        freq_b, _, lengths_b = heapq.heappop(heap)
        merged = {s: n + 1 for s, n in lengths_a.items()}
        merged.update({s: n + 1 for s, n in lengths_b.items()})
        heapq.heappush(heap, (freq_a + freq_b, next(counter), merged))
    return heap[0][2]


class TestTraining:
    def test_untrained_knows_zero(self):
        sc2 = SC2Compressor()
        block = sc2.compress(b"\x00" * 64)
        assert block.is_compressed
        assert block.size_bytes <= 2  # 16 one-bit codes

    def test_training_compresses_sampled_values(self):
        sc2 = SC2Compressor()
        hot = words(*([0xDEADBEEF] * 16))
        before = sc2.compressed_size(hot)
        sc2.train([hot] * 10 + [b"\x00" * 64] * 10)
        after = sc2.compressed_size(hot)
        assert after < before

    def test_unsampled_values_escape(self):
        sc2 = SC2Compressor()
        sc2.train([b"\x00" * 64])
        cold = words(*range(0x10000, 0x10010))
        block = sc2.compress(cold)
        # 16 escapes of 36 bits each = 72 bytes > 64: falls back.
        assert block.encoding == "uncompressed"

    def test_codebook_is_bounded(self):
        sc2 = SC2Compressor(codebook_size=8)
        samples = [words(*(i * 16 + j for j in range(16))) for i in range(20)]
        sc2.train(samples)
        assert len(sc2.codebook) <= 8 + 1  # + the always-present zero

    def test_code_lengths_capped(self):
        sc2 = SC2Compressor()
        samples = [words(*(i * 16 + j for j in range(16))) for i in range(16)]
        sc2.train(samples)
        assert all(n <= MAX_CODE_BITS for n in sc2.codebook.values())

    def test_train_on_empty_rejected(self):
        with pytest.raises(CompressionError):
            SC2Compressor().train([])

    def test_bad_codebook_size_rejected(self):
        with pytest.raises(CompressionError):
            SC2Compressor(codebook_size=0)

    def test_default_codebook_size(self):
        assert SC2Compressor().codebook_size == DEFAULT_CODEBOOK_SIZE


class TestRoundTrip:
    @given(lines)
    @settings(max_examples=200)
    def test_untrained_roundtrip(self, data):
        sc2 = SC2Compressor()
        assert sc2.decompress(sc2.compress(data)) == data

    @given(st.lists(st.sampled_from([0, 1, 0xFF, 0xDEAD, 0xBEEF0000]), min_size=16, max_size=16))
    def test_trained_roundtrip(self, values):
        sc2 = SC2Compressor()
        sc2.train([words(*([v] * 16)) for v in (0, 1, 0xFF, 0xDEAD, 0xBEEF0000)])
        data = words(*values)
        block = sc2.compress(data)
        assert sc2.decompress(block) == data
        assert block.is_compressed

    def test_rejects_foreign_block(self):
        from repro.compression.bdi import BDICompressor

        with pytest.raises(CompressionError):
            SC2Compressor().decompress(BDICompressor().compress(b"\x00" * 64))
