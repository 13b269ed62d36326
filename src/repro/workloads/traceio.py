"""Binary trace file formats (columnar v3, legacy v1/v2).

Lets users persist generated traces or bring their own (e.g. converted
from a Pin/DynamoRIO capture).  The current format, **v3**, is a
columnar layout: each of the three record columns lands in its own
contiguous, 64-byte-aligned, individually checksummed section, so a
reader can load or map any column directly without parsing past the
header.

v3 layout, all fixed-width fields little-endian::

    magic  b"RPTR"
    u16    format version (3)
    u32    metadata length
    ...    JSON metadata block (TraceMeta fields)
    u64    record count
    TOC    3 x (u64 offset, u64 nbytes, u32 crc32) — kinds, addrs, deltas
    u32    header CRC32 over every preceding byte
    ...    zero padding to each section's aligned offset
    ...    column sections: kinds (i8), addrs (i64), deltas (i32)

The header CRC makes the *structure* trustworthy before any section is
touched; each section's CRC makes the *data* trustworthy independently.
The file must end exactly at the last section's end and inter-section
padding must be zero — trailing garbage (a concatenated second file, a
partially overwritten longer file) raises :class:`TraceFormatError`
rather than being ignored.

Legacy v1/v2 files (header + three back-to-back arrays, v2 with one
whole-file CRC footer) are read transparently; :func:`write_trace_v2`
still writes them for tools pinned to the old format, and
:func:`migrate_trace` upgrades any readable file to v3 atomically
(``repro trace migrate`` is the CLI front end).
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import NamedTuple

from repro.workloads.trace import Trace, TraceMeta

_MAGIC = b"RPTR"
#: Current format version (v3 = columnar, per-section checksums).
_VERSION = 3
#: Last whole-file-CRC version (still written by :func:`write_trace_v2`).
_V2 = 2
#: Oldest version still readable (no checksums at all).
_LEGACY_VERSION = 1
_LITTLE = sys.byteorder == "little"

#: Column sections in on-disk order: (attribute, array typecode).
_COLUMNS = (("kinds", "b"), ("addrs", "q"), ("deltas", "i"))

#: Section alignment: one cache line / the common mmap-friendly unit.
_ALIGN = 64

_TOC_ENTRY = struct.Struct("<QQI")
_HEADER_TAIL = struct.Struct("<I")


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or unsupported."""


class MigrationReport(NamedTuple):
    """Outcome of one :func:`migrate_trace` call."""

    path: Path
    from_version: int
    records: int
    migrated: bool


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _le_bytes(column: array) -> bytes:
    """The column's little-endian on-disk bytes."""
    if _LITTLE:
        return column.tobytes()
    return _byteswapped(column).tobytes()


def write_trace(trace: Trace, path: str | Path) -> None:
    """Serialise a trace to ``path`` in the current (v3, columnar) format."""
    meta_json = json.dumps(trace.meta.__dict__).encode("utf-8")
    payloads = [_le_bytes(getattr(trace, name)) for name, _ in _COLUMNS]

    header_len = (
        len(_MAGIC)
        + 6  # u16 version + u32 metadata length
        + len(meta_json)
        + 8  # u64 record count
        + len(_COLUMNS) * _TOC_ENTRY.size
        + _HEADER_TAIL.size
    )
    toc: list[tuple[int, int, int]] = []
    offset = header_len
    for payload in payloads:
        offset = _aligned(offset)
        toc.append((offset, len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        offset += len(payload)

    header = bytearray()
    header += _MAGIC
    header += struct.pack("<HI", _VERSION, len(meta_json))
    header += meta_json
    header += struct.pack("<Q", len(trace))
    for entry in toc:
        header += _TOC_ENTRY.pack(*entry)
    header += _HEADER_TAIL.pack(zlib.crc32(bytes(header)) & 0xFFFFFFFF)
    assert len(header) == header_len

    with open(path, "wb") as handle:
        handle.write(header)
        position = header_len
        for (section_offset, _, _), payload in zip(toc, payloads):
            handle.write(b"\x00" * (section_offset - position))
            handle.write(payload)
            position = section_offset + len(payload)


def write_trace_v2(trace: Trace, path: str | Path) -> None:
    """Serialise a trace in the legacy v2 format (whole-file CRC footer).

    Kept for tools pinned to the old row-ish layout and as the fixture
    writer for the migration tests; new files should use
    :func:`write_trace`.
    """
    meta_json = json.dumps(trace.meta.__dict__).encode("utf-8")
    with open(path, "wb") as handle:
        out = _CrcWriter(handle)
        out.write(_MAGIC)
        out.write(struct.pack("<HI", _V2, len(meta_json)))
        out.write(meta_json)
        out.write(struct.pack("<Q", len(trace)))
        for name, _ in _COLUMNS:
            out.write(_le_bytes(getattr(trace, name)))
        handle.write(struct.pack("<I", out.crc & 0xFFFFFFFF))


class _CrcWriter:
    """File-handle wrapper that CRCs every byte it forwards."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.crc = 0

    def write(self, data: bytes) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self._handle.write(data)


def trace_file_version(path: str | Path) -> int:
    """The format version of a trace file (magic + version field only)."""
    with open(path, "rb") as handle:
        head = handle.read(6)
    if len(head) < 6 or head[:4] != _MAGIC:
        raise TraceFormatError(f"{path}: not a trace file (magic {head[:4]!r})")
    (version,) = struct.unpack("<H", head[4:6])
    return version


def trace_fingerprint(path: str | Path) -> tuple[int, int]:
    """``(format_version, checksum)`` identifying a trace file's contents.

    For v3 files the checksum is the stored header CRC: it covers the
    section table's per-column CRCs, so it pins the payload bytes
    transitively without reading past the header.  The header CRC is
    recomputed and verified here, so a fingerprint never vouches for a
    file whose header is corrupt.  Legacy (v1/v2) files have no such
    summary and are CRC'd in full.  Used by
    :mod:`repro.workloads.tracecache` as the cache-key component that
    makes in-place file rewrites miss.
    """
    with open(path, "rb") as handle:
        head = handle.read(10)
        if len(head) < 6 or head[:4] != _MAGIC:
            raise TraceFormatError(
                f"{path}: not a trace file (magic {head[:4]!r})"
            )
        (version,) = struct.unpack("<H", head[4:6])
        if version == _VERSION:
            if len(head) < 10:
                raise TraceFormatError(f"{path}: truncated header")
            (meta_len,) = struct.unpack("<I", head[6:10])
            rest_len = (
                meta_len
                + 8  # u64 record count
                + len(_COLUMNS) * _TOC_ENTRY.size
                + _HEADER_TAIL.size
            )
            rest = handle.read(rest_len)
            if len(rest) != rest_len:
                raise TraceFormatError(f"{path}: truncated header")
            (stored,) = _HEADER_TAIL.unpack(rest[-_HEADER_TAIL.size :])
            computed = (
                zlib.crc32(head + rest[: -_HEADER_TAIL.size]) & 0xFFFFFFFF
            )
            if stored != computed:
                raise TraceFormatError(
                    f"{path}: header checksum mismatch (stored {stored:08x}, "
                    f"computed {computed:08x}); the file is corrupt"
                )
            return version, stored
        if version not in (_LEGACY_VERSION, _V2):
            raise TraceFormatError(
                f"{path}: unsupported version {version} (expected <= {_VERSION})"
            )
        crc = zlib.crc32(head)
        while chunk := handle.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
        return version, crc & 0xFFFFFFFF


def read_trace(path: str | Path) -> Trace:
    """Load a trace written by any supported format version (v1-v3).

    Truncation anywhere, trailing bytes past the end of the format, and
    any checksum mismatch all raise :class:`TraceFormatError`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != _MAGIC:
        raise TraceFormatError(f"{path}: not a trace file (magic {data[:4]!r})")
    if len(data) < 6:
        raise TraceFormatError(f"{path}: truncated header")
    (version,) = struct.unpack("<H", data[4:6])
    if version == _VERSION:
        return _read_v3(path, data)
    if version in (_LEGACY_VERSION, _V2):
        return _read_legacy(path, data, version)
    raise TraceFormatError(
        f"{path}: unsupported version {version} (expected <= {_VERSION})"
    )


def _parse_v3_header(path: str | Path, data: bytes):
    """Validate a v3 header; returns (meta, count, toc, header_len).

    ``data`` is the whole file: the section extents are checked against
    its length.
    """
    file_size = len(data)

    def take(count: int, what: str) -> bytes:
        nonlocal offset
        chunk = data[offset : offset + count]
        if len(chunk) != count:
            raise TraceFormatError(f"{path}: truncated {what}")
        offset += count
        return chunk

    offset = 4
    (meta_len,) = struct.unpack("<I", take(6, "header")[2:])
    meta_json = take(meta_len, "metadata")
    (count,) = struct.unpack("<Q", take(8, "record count"))
    toc = [
        _TOC_ENTRY.unpack(take(_TOC_ENTRY.size, "section table"))
        for _ in _COLUMNS
    ]
    (stored,) = _HEADER_TAIL.unpack(take(_HEADER_TAIL.size, "header checksum"))
    header_len = offset
    computed = zlib.crc32(data[: header_len - _HEADER_TAIL.size]) & 0xFFFFFFFF
    if stored != computed:
        raise TraceFormatError(
            f"{path}: header checksum mismatch (stored {stored:08x}, "
            f"computed {computed:08x}); the file is corrupt"
        )
    try:
        meta = TraceMeta(**json.loads(meta_json))
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: bad metadata: {exc}") from exc

    position = header_len
    for (name, typecode), (section_offset, nbytes, _) in zip(_COLUMNS, toc):
        expected = count * array(typecode).itemsize
        if nbytes != expected:
            raise TraceFormatError(
                f"{path}: {name} section holds {nbytes} bytes, expected "
                f"{expected} for {count} records"
            )
        if section_offset % _ALIGN or section_offset < position:
            raise TraceFormatError(
                f"{path}: {name} section offset {section_offset} is "
                f"misaligned or overlaps the previous section"
            )
        position = section_offset + nbytes
    if position > file_size:
        raise TraceFormatError(f"{path}: truncated records")
    if position < file_size:
        raise TraceFormatError(
            f"{path}: {file_size - position} trailing byte(s) after the "
            "trace payload; refusing a file the format does not account for"
        )
    return meta, count, toc, header_len


def _read_v3(path: str | Path, data: bytes) -> Trace:
    meta, count, toc, header_len = _parse_v3_header(path, data)
    columns: dict[str, array] = {}
    position = header_len
    for (name, typecode), (section_offset, nbytes, stored) in zip(_COLUMNS, toc):
        if data[position:section_offset].count(0) != section_offset - position:
            raise TraceFormatError(
                f"{path}: nonzero padding before the {name} section"
            )
        payload = data[section_offset : section_offset + nbytes]
        computed = zlib.crc32(payload) & 0xFFFFFFFF
        if stored != computed:
            raise TraceFormatError(
                f"{path}: {name} section checksum mismatch (stored "
                f"{stored:08x}, computed {computed:08x}); the file is corrupt"
            )
        column = array(typecode)
        column.frombytes(payload)
        if not _LITTLE:
            column = _byteswapped(column)
        columns[name] = column
        position = section_offset + nbytes
    return Trace(meta, **columns)


def _read_legacy(path: str | Path, data: bytes, version: int) -> Trace:
    """v1/v2 reader: back-to-back arrays, v2 with a whole-file CRC."""
    crc = 0

    def take(count: int, what: str) -> bytes:
        nonlocal offset, crc
        chunk = data[offset : offset + count]
        if len(chunk) != count:
            raise TraceFormatError(f"{path}: truncated {what}")
        offset += count
        crc = zlib.crc32(chunk, crc)
        return chunk

    offset = 0
    take(4, "magic")
    _, meta_len = struct.unpack("<HI", take(6, "header"))
    meta_json = take(meta_len, "metadata")
    try:
        meta = TraceMeta(**json.loads(meta_json))
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: bad metadata: {exc}") from exc
    (count,) = struct.unpack("<Q", take(8, "record count"))

    columns: dict[str, array] = {}
    for name, typecode in _COLUMNS:
        column = array(typecode)
        column.frombytes(take(count * column.itemsize, "records"))
        if not _LITTLE:
            column = _byteswapped(column)
        columns[name] = column
    if version >= _V2:
        footer = data[offset : offset + 4]
        if len(footer) != 4:
            raise TraceFormatError(f"{path}: truncated checksum footer")
        (stored,) = struct.unpack("<I", footer)
        if stored != (crc & 0xFFFFFFFF):
            raise TraceFormatError(
                f"{path}: checksum mismatch (stored {stored:08x}, "
                f"computed {crc & 0xFFFFFFFF:08x}); the file is corrupt"
            )
        offset += 4
    if offset != len(data):
        raise TraceFormatError(
            f"{path}: {len(data) - offset} trailing byte(s) after the "
            "trace payload; refusing a file the format does not account for"
        )
    return Trace(meta, **columns)


def migrate_trace(path: str | Path) -> MigrationReport:
    """Upgrade one trace file to v3 in place, atomically.

    The file is fully read and verified under its own format first, the
    v3 replacement is written next to it and swapped in with
    ``os.replace``, so a crash mid-migration leaves the original intact.
    Already-v3 files are left untouched (``migrated=False``).
    """
    path = Path(path)
    version = trace_file_version(path)
    trace = read_trace(path)  # verifies the file under its own format
    if version == _VERSION:
        return MigrationReport(path, version, len(trace), migrated=False)
    tmp = path.with_name(path.name + ".migrate.tmp")
    try:
        write_trace(trace, tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return MigrationReport(path, version, len(trace), migrated=True)


def _byteswapped(data: array) -> array:
    swapped = array(data.typecode, data)
    swapped.byteswap()
    return swapped
