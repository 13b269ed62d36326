"""Tests for the columnar v3 trace format and the migration path.

Three properties are load-bearing:

* **round-trip** — a v3 file reads back exactly what was written, both
  through the scalar :func:`read_trace` loader and the memory-mapped
  :func:`open_trace_columns` column views;
* **migration losslessness** — ``repro trace migrate`` of a v2 (or v1)
  file yields a v3 file whose records and metadata are identical to what
  the scalar loader read from the original, and the rewrite is atomic
  and idempotent;
* **corruption detection** — truncation, bit flips in header or body,
  and trailing garbage all raise a structured :class:`TraceFormatError`
  instead of silently simulating a different workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.workloads.suite import TraceSuite
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta
from repro.workloads.traceio import (
    migrate_trace,
    open_trace_columns,
    read_trace,
    trace_file_version,
    TraceFormatError,
    write_trace,
    write_trace_v2,
)


def small_trace(records: int = 100) -> Trace:
    meta = TraceMeta(
        name="t3",
        category="ispec",
        seed=11,
        footprint_lines=64,
        comp_class="friendly",
        cache_sensitive=True,
        mlp_memory=2.5,
    )
    trace = Trace(meta)
    for i in range(records):
        trace.append(STORE if i % 3 == 0 else LOAD, (i * 7919) % (1 << 44), 1 + i % 5)
    return trace


def assert_same_trace(a: Trace, b: Trace) -> None:
    assert a.meta == b.meta
    assert list(a.kinds) == list(b.kinds)
    assert list(a.addrs) == list(b.addrs)
    assert list(a.deltas) == list(b.deltas)


class TestRoundTrip:
    def test_scalar_loader_roundtrip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        assert trace_file_version(path) == 3
        assert_same_trace(read_trace(path), trace)

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = Trace(small_trace().meta)
        path = tmp_path / "empty.rptr"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert len(loaded) == 0
        assert loaded.meta == trace.meta

    def test_generated_suite_trace_roundtrip(self, tmp_path):
        suite = TraceSuite(512, 2000)
        trace = suite.trace("mcf.1")
        path = tmp_path / "mcf1.rptr"
        write_trace(trace, path)
        assert_same_trace(read_trace(path), trace)

    def test_column_sections_are_aligned(self, tmp_path):
        """Every column section starts on a 64-byte boundary, so the
        mmap views hand out naturally aligned buffers."""
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        _, columns = open_trace_columns(path)
        for view in columns.values():
            offset = view.offset  # np.memmap records its file offset
            assert offset % 64 == 0

    def test_mmap_columns_match_scalar_loader(self, tmp_path):
        trace = small_trace(257)  # not a multiple of anything relevant
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        meta, columns = open_trace_columns(path)
        assert meta == trace.meta
        assert columns["kinds"].dtype == np.int8
        assert columns["addrs"].dtype == np.int64
        assert columns["deltas"].dtype == np.int32
        assert columns["addrs"].tolist() == list(trace.addrs)
        assert columns["kinds"].tolist() == list(trace.kinds)
        assert columns["deltas"].tolist() == list(trace.deltas)

    def test_mmap_requires_v3(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "old.rptr"
        write_trace_v2(trace, path)
        with pytest.raises(TraceFormatError, match="migrate"):
            open_trace_columns(path)


class TestMigration:
    def test_v2_migration_is_lossless(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace_v2(trace, path)
        before = read_trace(path)  # the scalar loader's view of the v2 file
        report = migrate_trace(path)
        assert report.migrated
        assert report.from_version == 2
        assert report.records == len(trace)
        assert trace_file_version(path) == 3
        assert_same_trace(read_trace(path), before)

    def test_migration_is_idempotent(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace_v2(trace, path)
        assert migrate_trace(path).migrated
        first = path.read_bytes()
        report = migrate_trace(path)
        assert not report.migrated
        assert path.read_bytes() == first

    def test_corrupt_file_is_never_replaced(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace_v2(trace, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            migrate_trace(path)
        assert path.read_bytes() == bytes(data)  # original left untouched
        assert not list(tmp_path.glob("*.tmp"))  # no temp droppings

    def test_cli_migrates_and_reports(self, tmp_path, capsys):
        a = tmp_path / "a.rptr"
        b = tmp_path / "b.rptr"
        write_trace_v2(small_trace(), a)
        write_trace(small_trace(), b)
        assert main(["trace", "migrate", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert f"{a}: v2 -> v3 (100 records)" in out
        assert f"{b}: already v3 (100 records)" in out
        assert trace_file_version(a) == 3

    def test_cli_structured_error_on_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "bad.rptr"
        path.write_bytes(b"RPTR" + b"\x00" * 40)
        assert main(["trace", "migrate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_structured_error_on_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.rptr"
        assert main(["trace", "migrate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(path) in err


class TestCorruptionFuzz:
    def test_truncation_at_every_offset_is_detected(self, tmp_path):
        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = path.read_bytes()
        victim = tmp_path / "cut.rptr"
        for cut in range(len(data)):
            victim.write_bytes(data[:cut])
            with pytest.raises(TraceFormatError):
                read_trace(victim)

    def test_flipped_bit_anywhere_is_detected(self, tmp_path):
        """Single-bit rot at any offset — header, TOC, checksum fields,
        inter-section padding or column data — must raise."""
        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        victim = tmp_path / "flip.rptr"
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 0x10
            victim.write_bytes(bytes(flipped))
            with pytest.raises(TraceFormatError):
                read_trace(victim)

    def test_flipped_body_bit_detected_by_mmap_reader_too(self, tmp_path):
        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # inside the deltas section
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="checksum"):
            open_trace_columns(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(path)

    def test_concatenated_file_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data + data)
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(path)

    def test_inconsistent_record_count_rejected(self, tmp_path):
        """A header whose record count disagrees with the TOC section
        sizes is rejected even when its CRC is made self-consistent
        again (i.e. the structural check is not just the checksum)."""
        import struct
        import zlib

        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        (meta_len,) = struct.unpack("<I", data[6:10])
        count_offset = 10 + meta_len
        struct.pack_into("<Q", data, count_offset, 41)
        header_len = count_offset + 8 + 3 * 20 + 4
        crc = zlib.crc32(bytes(data[: header_len - 4])) & 0xFFFFFFFF
        struct.pack_into("<I", data, header_len - 4, crc)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="expected"):
            read_trace(path)
