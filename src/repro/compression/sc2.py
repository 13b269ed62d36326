"""SC2: statistical cache compression with Huffman coding.

Implements the scheme of Arelakis and Stenstrom, "SC2: A Statistical
Compression Cache Scheme" (ISCA 2014), cited by the Base-Victim paper as
related work (Section VII).  SC2 samples the value distribution of cache
data, builds a Huffman code over the most frequent 32-bit words, and
encodes each word either with its Huffman code or with an escape prefix
followed by the verbatim word.

The hardware scheme trains periodically on cache contents; this
implementation exposes the same life cycle:

* :meth:`SC2Compressor.train` — build the codebook from sample lines,
* :meth:`SC2Compressor.compress` / :meth:`SC2Compressor.decompress` —
  use the current codebook (an untrained compressor knows only the
  always-present zero symbol).

Code lengths follow a canonical Huffman construction over observed
frequencies, capped at :data:`MAX_CODE_BITS` as real designs do.
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.compression.base import (
    CompressedBlock,
    CompressionAlgorithm,
    CompressionError,
)

_WORD_BYTES = 4

#: Number of frequent values the codebook may hold (SC2 uses O(water) —
#: a few hundred entries in the paper's design).
DEFAULT_CODEBOOK_SIZE = 256

#: Hardware decoders bound code length; longer codes are escape-coded.
MAX_CODE_BITS = 14

#: Escape prefix bits preceding a verbatim 32-bit word.
ESCAPE_BITS = 4

#: Bits one escaped word costs: the prefix plus the verbatim word.
ESCAPE_WORD_BITS = ESCAPE_BITS + 8 * _WORD_BYTES


def _huffman_code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Code length per symbol of a Huffman code over ``frequencies``.

    The heap orders equal weights by node age: leaves in the dict's
    order, then merged nodes in the order they were made.  Each merge
    only records its two children's parent, so a symbol's code length is
    its leaf's depth, found in one pass from the root down.
    """
    if not frequencies:
        return {}
    symbols = list(frequencies)
    if len(symbols) == 1:
        return {symbols[0]: 1}
    heap = [(freq, node) for node, freq in enumerate(frequencies.values())]
    heapq.heapify(heap)
    parent = [0] * (2 * len(symbols) - 1)
    node = len(symbols)
    while len(heap) > 1:
        freq_a, a = heapq.heappop(heap)
        freq_b, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (freq_a + freq_b, node))
        node += 1
    # A parent is always made after its children, so walking the nodes
    # from the root (the last one made) down sees every parent first.
    depth = [0] * node
    for child in range(node - 2, -1, -1):
        depth[child] = depth[parent[child]] + 1
    return {symbol: depth[leaf] for leaf, symbol in enumerate(symbols)}


def codebook_bits(frequent: dict[int, int]) -> dict[int, int]:
    """Word -> code bits of a codebook over ``frequent`` (word -> count).

    Huffman lengths in the dict's order, capped at :data:`MAX_CODE_BITS`;
    zero always stays encodable even if absent from ``frequent``.
    """
    bits = {
        word: min(length, MAX_CODE_BITS)
        for word, length in _huffman_code_lengths(frequent).items()
    }
    bits.setdefault(0, MAX_CODE_BITS)
    return bits


class SC2Compressor(CompressionAlgorithm):
    """Huffman-based statistical compressor with explicit training."""

    name = "sc2"
    decompression_cycles = 8

    def __init__(
        self,
        line_size: int = 64,
        codebook_size: int = DEFAULT_CODEBOOK_SIZE,
    ) -> None:
        super().__init__(line_size)
        if codebook_size <= 0:
            raise CompressionError(
                f"codebook_size must be positive, got {codebook_size}"
            )
        self.codebook_size = codebook_size
        #: word -> code length in bits.  Untrained: zero is 1 bit (the
        #: overwhelmingly frequent value in any cache).
        self._code_bits: dict[int, int] = {0: 1}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, sample_lines: list[bytes]) -> None:
        """Rebuild the codebook from sampled cache lines."""
        counts: Counter[int] = Counter()
        for line in sample_lines:
            self._check_line(line)
            for i in range(0, self.line_size, _WORD_BYTES):
                counts[int.from_bytes(line[i : i + _WORD_BYTES], "little")] += 1
        if not counts:
            raise CompressionError("cannot train on an empty sample")
        self._code_bits = codebook_bits(dict(counts.most_common(self.codebook_size)))

    @property
    def codebook(self) -> dict[int, int]:
        """Current word -> code-length table (copied)."""
        return dict(self._code_bits)

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------

    def compress(self, data: bytes) -> CompressedBlock:
        """Compress one cache line of raw bytes."""
        self._check_line(data)
        data = bytes(data)
        words = [
            int.from_bytes(data[i : i + _WORD_BYTES], "little")
            for i in range(0, self.line_size, _WORD_BYTES)
        ]
        bits = 0
        for word in words:
            code = self._code_bits.get(word)
            if code is not None:
                bits += code
            else:
                bits += ESCAPE_WORD_BITS
        size = -(-bits // 8)
        if size >= self.line_size:
            return self._uncompressed(data)
        encoding = "zeros" if data == b"\x00" * self.line_size else "sc2"
        return CompressedBlock(self.name, encoding, size, tuple(words))

    def decompress(self, block: CompressedBlock) -> bytes:
        """Reconstruct the original line bytes."""
        if block.algorithm != self.name:
            raise CompressionError(
                f"block was produced by {block.algorithm!r}, not {self.name!r}"
            )
        if block.encoding == "uncompressed":
            payload = block.payload
            if not isinstance(payload, bytes) or len(payload) != self.line_size:
                raise CompressionError("uncompressed payload must be the raw line")
            return payload
        words = block.payload
        if not isinstance(words, tuple):
            raise CompressionError(f"unknown SC2 encoding {block.encoding!r}")
        return b"".join(word.to_bytes(_WORD_BYTES, "little") for word in words)
