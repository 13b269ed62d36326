"""Performance microbenchmarks of the simulator's hot kernels.

Unlike the figure benches (which reproduce the paper and run their
workload once), these time the library's inner loops with repeated
rounds, so performance regressions in the simulator itself are caught:

* BDI compression/decompression throughput,
* codec size computation, scalar vs vectorised, per codec,
* LLC access throughput per architecture,
* DRAM model request rate,
* end-to-end hierarchy access rate.
"""

import struct

import pytest

from repro.cache.config import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.replacement import NRUPolicy, make_victim_policy
from repro.compression import kernels, make_compressor
from repro.compression.bdi import BDICompressor
from repro.core.basevictim import BaseVictimLLC
from repro.core.interfaces import AccessKind
from repro.core.uncompressed import UncompressedLLC
from repro.memory.dram import DRAMModel


def _sample_lines() -> list[bytes]:
    base = 0x3FF0_0000_0000_0000
    return [
        b"\x00" * 64,
        struct.pack("<8Q", *(base + i * 3 for i in range(8))),
        struct.pack("<16i", *(i - 8 for i in range(16))),
        bytes((i * 37 + 11) % 256 for i in range(64)),
    ]


def test_perf_bdi_compress(benchmark):
    bdi = BDICompressor()
    lines = _sample_lines()

    def kernel():
        for line in lines:
            bdi.compress(line)

    benchmark(kernel)


def test_perf_bdi_roundtrip(benchmark):
    bdi = BDICompressor()
    blocks = [bdi.compress(line) for line in _sample_lines()]

    def kernel():
        for block in blocks:
            bdi.decompress(block)

    benchmark(kernel)


def _codec_lines(n=256):
    """Deterministic 64B lines spanning the compressibility spectrum."""
    lines = []
    state = 12345
    for i in range(n):
        kind = i % 4
        if kind == 0:
            lines.append(b"\x00" * 64)
        elif kind == 1:
            base = 0x1000 + i * 97
            lines.append(struct.pack("<8Q", *(base + j * (i % 5) for j in range(8))))
        elif kind == 2:
            lines.append(
                struct.pack("<16i", *((j - 8) * (i % 7 + 1) for j in range(16)))
            )
        else:
            out = bytearray()
            for _ in range(64):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                out.append(state & 0xFF)
            lines.append(bytes(out))
    return lines


@pytest.mark.parametrize("codec", sorted(kernels.SIZE_KERNELS))
def test_perf_codec_size_scalar(benchmark, codec):
    """Scalar baseline: one compress() call per line, sizes only."""
    compressor = make_compressor(codec)
    lines = _codec_lines()

    def kernel():
        return [compressor.compress(line).size_bytes for line in lines]

    benchmark(kernel)


@pytest.mark.parametrize("codec", sorted(kernels.SIZE_KERNELS))
def test_perf_codec_size_vectorized(benchmark, codec):
    """One kernel pass over the whole line matrix (the load-time path)."""
    lines = _codec_lines()
    matrix = kernels.lines_matrix(lines)
    size_kernel = kernels.SIZE_KERNELS[codec]

    # The two rows must time identical work, or a regression in either
    # path could hide behind a semantic drift between them.
    compressor = make_compressor(codec)
    scalar = [compressor.compress(line).size_bytes for line in lines]
    assert size_kernel(matrix).tolist() == scalar

    benchmark(lambda: size_kernel(matrix))


def _address_stream(n=2048, footprint=4096):
    addr = 1
    out = []
    for i in range(n):
        addr = (addr * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(addr % footprint)
    return out


def test_perf_uncompressed_llc_access(benchmark):
    llc = UncompressedLLC(CacheGeometry(256 * 1024, 16), NRUPolicy())
    addrs = _address_stream()

    def kernel():
        for addr in addrs:
            llc.access(addr, AccessKind.READ, 16)

    benchmark(kernel)


def test_perf_base_victim_llc_access(benchmark):
    llc = BaseVictimLLC(
        CacheGeometry(256 * 1024, 16), NRUPolicy(), make_victim_policy("ecm")
    )
    addrs = _address_stream()

    def kernel():
        for i, addr in enumerate(addrs):
            llc.access(addr, AccessKind.READ, 4 + (i & 7))

    benchmark(kernel)


def test_perf_dram_requests(benchmark):
    dram = DRAMModel()
    addrs = _address_stream(n=1024, footprint=1 << 20)

    def kernel():
        now = 0.0
        for addr in addrs:
            now += 40.0
            dram.read(addr, now)

    benchmark(kernel)


def test_perf_full_hierarchy_access(benchmark):
    llc = BaseVictimLLC(
        CacheGeometry(256 * 1024, 16), NRUPolicy(), make_victim_policy("ecm")
    )
    hierarchy = CacheHierarchy(
        llc,
        size_fn=lambda addr: 4 + (addr & 7),
        config=HierarchyConfig(
            l1_geometry=CacheGeometry(4 * 1024, 8),
            l2_geometry=CacheGeometry(32 * 1024, 8),
        ),
        memory=DRAMModel(),
    )
    addrs = _address_stream()

    def kernel():
        for i, addr in enumerate(addrs):
            hierarchy.now += 30.0
            hierarchy.access(addr, i & 7 == 0)

    benchmark(kernel)
