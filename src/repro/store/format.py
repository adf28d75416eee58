"""The binary trace-segment format (``.trace.bin``), versions 1, 2 and 3.

The writer emits version 3 only.  Versions 1 and 2 come from older
stores: the reader transcodes them to v3 once, at open
(:func:`repro.store.reader.transcode`), so only the v3 layout is ever
parsed, the store's segment cache holds v3 copies, and
``TraceStore.convert_legacy(upgrade=True)`` rewrites them as v3 on disk.

One file stores one run's complete trace in a struct-packed *columnar*
layout: a fixed header, a string table (probe names, process names,
payload strings), the PID map, then one section per event stream where
every field lives in its own contiguous fixed-width column.  Columnar
storage is what makes the readers cheap: selecting a PID range scans a
single ``int32`` column, and a consumer that only needs timestamps
never touches anything else.

Common layout (all integers little-endian)::

    header     magic "RPROSEG1", version u16, flags u16,
               n_strings u32, n_pids u32,
               n_ros u64, n_sched u64, n_wakeup u64,
               start_ts i64, stop_ts i64
    pid_map    n_pids x (pid i32, name byte-length i32 [-1 = None],
               UTF-8 bytes) -- self-contained and first
    strings    n_strings x (u32 byte-length + UTF-8 bytes), id = position
    ...        per-version payload sections (below)
    ros        per-version columns (below)
    sched      columns  ts i64 | cpu i32 | prev_pid i32 | prev_comm u32
               | prev_prio i32 | prev_state u32 | next_pid i32
               | next_comm u32 | next_prio i32
    wakeup     columns  ts i64 | cpu i32 | pid i32 | comm u32 | prio i32

**Version 1** stores event payloads (``TraceEvent.data``) as canonical
compact JSON interned in the string table::

    ros        columns  ts i64 | pid i32 | probe u32 | data u32

where ``data`` is the string id of the payload JSON (``NONE_ID`` for the
empty payload).  Every payload read costs a JSON parse, and a segment
full of distinct payloads (per-message ``src_ts``) stores one JSON
string per event.

**Version 2** stores payloads whose values fit the closed schema the
domain actually uses -- ints, floats, bools, strings, ``None`` -- as
*typed per-field columns*, grouped by **shape**.  A shape
is the ordered tuple of ``(field name, field type)`` pairs of a payload
dict; every payload of the same shape appends one value per field to
that shape's columns.  Between the string table and the ros section v2
adds::

    shapes     n_shapes u32; per shape:
                   n_rows u64, n_fields u32,
                   n_fields x (name string-id u32, type u8)
    columns    per shape (id order), per non-NONE field (shape order):
                   one column of n_rows values
    ros        columns  ts i64 | pid i32 | probe u32 | shape u32 | vidx u32

Field types: ``FIELD_INT`` (i64), ``FIELD_FLOAT`` (f64), ``FIELD_STR``
(u32 interned string id), ``FIELD_BOOL`` (i8), ``FIELD_NONE`` (the
value is always ``None``; no column is stored).  A row's ``shape``
column holds its shape id, ``vidx`` its position in that shape's
columns.  ``shape == NONE_ID`` marks the empty payload; ``shape ==
SHAPE_JSON`` marks a row whose payload does not fit the schema (nested
containers, out-of-range ints, non-string keys) -- ``vidx`` is then the
string id of its canonical-JSON encoding, exactly the v1
representation, so arbitrary payloads still round-trip losslessly.

Because a shape pins the type of every field, columns never need
null sentinels, dict reconstruction preserves the original key order,
and the Alg. 1 hot path resolves ``cb_id``/``topic``/``src_ts``
straight from int/string-id columns with no JSON scan.

Strings are deduplicated; ``NONE_ID`` marks absent strings; ``NONE_CPU``
marks a wakeup without a CPU.  On big-endian hosts columns are
byteswapped on the way in/out; the on-disk format is always
little-endian.

In v1/v2, with ``FLAG_ZLIB_BODY`` set (how compressed segments were
written) everything after the header is one zlib stream.  A v2 body is
exactly the v3 sections below, raw, in file order; a v1 body lacks the
shape directory and the ``shape`` column, which the transcoder derives
(an empty directory; ``NONE_ID`` or ``SHAPE_JSON`` per row).

**Version 3** (the format the writer emits) keeps the v2 payload encoding but
replaces the single body stream with *per-section compression*: every
section -- the pid_map, the string table, the shape directory, each
payload column, and each individual ros/sched/wakeup column -- is its
own independently-deflated stream, addressed by a **section directory**
that sits uncompressed right after the header::

    directory  n_sections u32; per section:
                   kind u8, comp u8, index u16,
                   offset u64, comp_len u64, raw_len u64
    sections   concatenated streams; ``offset`` is relative to the end
               of the directory, ``comp`` is 0 (raw) or 1 (zlib)

Section kinds: ``SECTION_PID_MAP`` / ``SECTION_STRINGS`` /
``SECTION_SHAPES`` (the shape directory) carry ``index`` 0;
``SECTION_PAYLOAD`` columns are numbered flat in shape-id order, field
order (FIELD_NONE fields store no column); ``SECTION_ROS`` /
``SECTION_SCHED`` / ``SECTION_WAKEUP`` columns are numbered by their
position in the v2 column tuples.  The writer deflates each section
independently and keeps the raw bytes whenever deflate does not shrink
them (tiny sections), so every stream stays self-describing.

What the directory buys readers is *section-selective I/O*:
``peek_header`` still reads the fixed header only, opening a reader
inflates only the pid_map, string table and shape directory, and the
Alg. 1 walk (``walk_fastpath``, resolved once per run for the trace
index and the latency index) touches the ros columns and only the
payload columns of the shapes it actually dereferences -- sched columns
beyond ``(ts, prev_pid, next_pid)`` and the wakeup section never
inflate during synthesis.  An uncompressed v3 segment
(``comp`` 0 everywhere) is the mmap-friendly layout the store's
segment cache materializes: every column is a zero-copy
``memoryview.cast`` straight out of the page cache.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Iterable, List, NamedTuple, Sequence, Tuple

#: File suffix of binary trace segments, the store's one run format.
SEGMENT_SUFFIX = ".trace.bin"

MAGIC = b"RPROSEG1"
#: The first bytes of a gzip stream: a gzip-JSON trace
#: (:mod:`repro.tracing.storage`), which only ``repro convert`` reads.
GZIP_MAGIC = b"\x1f\x8b"
#: The version the writer emits (v2 payload encoding + per-section
#: streams).
VERSION = 3
#: Version byte of the JSON-interned-payload format.
VERSION_V1 = 1
#: Version byte of the whole-body-stream field-columnar format.
VERSION_V2 = 2
#: Versions this tree can read.
SUPPORTED_VERSIONS = (1, 2, 3)

#: Header flag (v1/v2): the body after the header is one zlib stream.
#: v3 bodies are per-section streams; the flag is never set there.
FLAG_ZLIB_BODY = 1
#: zlib level used by the writer (measured knee: ~gzip-JSON size at
#: sub-millisecond inflate on evaluation-sized segments).
ZLIB_LEVEL = 3

#: String id marking "no string" (``None``); also the shape id of the
#: empty payload in v2 segments.
NONE_ID = 0xFFFFFFFF
#: v2 shape-column sentinel: the row's payload is stored as interned
#: canonical JSON (the v1 representation); ``vidx`` is the string id.
SHAPE_JSON = 0xFFFFFFFE
#: Largest usable shape id (everything above is a sentinel).
MAX_SHAPES = SHAPE_JSON
#: CPU column sentinel for ``SchedWakeup.cpu is None``.
NONE_CPU = -(1 << 31)

#: v2 payload field types (the closed ``TraceEvent.data`` value schema).
FIELD_NONE = 0
FIELD_INT = 1
FIELD_FLOAT = 2
FIELD_STR = 3
FIELD_BOOL = 4

#: array typecode per field type (``FIELD_NONE`` stores no column).
FIELD_TYPECODES = {
    FIELD_INT: "q",
    FIELD_FLOAT: "d",
    FIELD_STR: "I",
    FIELD_BOOL: "b",
}

#: Header: magic, version, flags, n_strings, n_pids, n_ros, n_sched,
#: n_wakeup, start_ts, stop_ts.
HEADER = struct.Struct("<8sHHIIQQQqq")

#: One pid_map entry prefix: pid, name byte length (-1 = None).
PID_ENTRY = struct.Struct("<ii")

#: v3 section kinds (the ``kind`` byte of a directory entry).
SECTION_PID_MAP = 1
SECTION_STRINGS = 2
SECTION_SHAPES = 3
SECTION_PAYLOAD = 4
SECTION_ROS = 5
SECTION_SCHED = 6
SECTION_WAKEUP = 7

#: Human-readable section names for diagnostics and ``store-info``.
SECTION_NAMES = {
    SECTION_PID_MAP: "pid_map",
    SECTION_STRINGS: "string table",
    SECTION_SHAPES: "shape directory",
    SECTION_PAYLOAD: "payload column",
    SECTION_ROS: "ros column",
    SECTION_SCHED: "sched column",
    SECTION_WAKEUP: "wakeup column",
}

#: v3 section compression codes (the ``comp`` byte).
SECTION_COMP_RAW = 0
SECTION_COMP_ZLIB = 1

#: One v3 directory entry: kind u8, comp u8, index u16, offset u64,
#: comp_len u64, raw_len u64.  ``offset`` is relative to the end of the
#: directory (the body start).
SECTION_ENTRY = struct.Struct("<BBHQQQ")
#: Directory prefix: the section count.
SECTION_COUNT = struct.Struct("<I")

#: One shape-directory prefix: n_rows, n_fields.
SHAPE_ENTRY = struct.Struct("<QI")
#: One shape field: name string id, field type.
SHAPE_FIELD = struct.Struct("<IB")

#: (array typecode, itemsize) per column, section by section.  ``q`` is
#: i64, ``i`` is i32, ``I`` is u32.
ROS_COLUMNS: Tuple[str, ...] = ("q", "i", "I", "I")
ROS_COLUMNS_V2: Tuple[str, ...] = ("q", "i", "I", "I", "I")
SCHED_COLUMNS: Tuple[str, ...] = ("q", "i", "i", "I", "i", "I", "i", "I", "i")
WAKEUP_COLUMNS: Tuple[str, ...] = ("q", "i", "i", "I", "i")

_BIG_ENDIAN = sys.byteorder == "big"


class StoreFormatError(ValueError):
    """Raised when a segment file is not a readable ``.trace.bin``."""


def column_bytes(column: array) -> bytes:
    """Serialize one column little-endian (byteswapping if needed)."""
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def column_from_bytes(typecode: str, raw: bytes) -> array:
    """Deserialize one little-endian column into a native array."""
    column = array(typecode)
    column.frombytes(raw)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


class IncompletePrefix(ValueError):
    """Internal: a streaming parse ran past the bytes available so far."""


class SectionEntry(NamedTuple):
    """One v3 section-directory entry."""

    kind: int
    comp: int
    index: int
    offset: int
    comp_len: int
    raw_len: int

    @property
    def name(self) -> str:
        """Diagnostic name: kind label plus column index where one
        distinguishes sections (``"ros column 2"``)."""
        label = SECTION_NAMES.get(self.kind, f"section kind {self.kind}")
        if self.kind in (SECTION_PID_MAP, SECTION_STRINGS, SECTION_SHAPES):
            return label
        return f"{label} {self.index}"


def pack_section_dir(entries: Sequence[SectionEntry]) -> bytes:
    """Serialize the v3 section directory (uncompressed, after header)."""
    parts: List[bytes] = [SECTION_COUNT.pack(len(entries))]
    for entry in entries:
        parts.append(
            SECTION_ENTRY.pack(
                entry.kind, entry.comp, entry.index,
                entry.offset, entry.comp_len, entry.raw_len,
            )
        )
    return b"".join(parts)


def pack_sections(
    header: bytes, blobs: Iterable[Tuple[int, int, bytes]], compress: bool
) -> List[bytes]:
    """A v3 segment's byte parts: ``header``, the section directory,
    one stream per ``(kind, index, raw bytes)`` blob.  ``compress``
    deflates each section on its own, keeping raw any it does not
    shrink (``comp`` 0)."""
    entries: List[SectionEntry] = []
    streams: List[bytes] = []
    offset = 0
    for kind, index, raw in blobs:
        comp = SECTION_COMP_RAW
        data = raw
        if compress and raw:
            deflated = zlib.compress(raw, ZLIB_LEVEL)
            if len(deflated) < len(raw):
                comp = SECTION_COMP_ZLIB
                data = deflated
        entries.append(SectionEntry(kind, comp, index, offset, len(data), len(raw)))
        streams.append(data)
        offset += len(data)
    return [header, pack_section_dir(entries), *streams]


def unpack_section_dir(
    raw, offset: int
) -> Tuple[List[SectionEntry], int]:
    """Decode the v3 section directory at ``offset``; returns
    (entries, offset past the directory -- the body start)."""
    if offset + SECTION_COUNT.size > len(raw):
        raise StoreFormatError(
            f"truncated section directory (count cut off at offset {offset})"
        )
    (count,) = SECTION_COUNT.unpack_from(raw, offset)
    offset += SECTION_COUNT.size
    if count > 0xFFFF:
        raise StoreFormatError(f"implausible section count {count}")
    entries: List[SectionEntry] = []
    for position in range(count):
        if offset + SECTION_ENTRY.size > len(raw):
            raise StoreFormatError(
                f"truncated section directory (entry {position} cut off "
                f"at offset {offset})"
            )
        kind, comp, index, body_offset, comp_len, raw_len = (
            SECTION_ENTRY.unpack_from(raw, offset)
        )
        if comp not in (SECTION_COMP_RAW, SECTION_COMP_ZLIB):
            raise StoreFormatError(
                f"unknown compression code {comp} for section "
                f"{SECTION_NAMES.get(kind, kind)} (directory entry {position})"
            )
        if comp == SECTION_COMP_RAW and comp_len != raw_len:
            raise StoreFormatError(
                f"raw section {SECTION_NAMES.get(kind, kind)} with "
                f"comp_len {comp_len} != raw_len {raw_len}"
            )
        entries.append(
            SectionEntry(kind, comp, index, body_offset, comp_len, raw_len)
        )
        offset += SECTION_ENTRY.size
    return entries, offset


def pack_pid_map(pid_map) -> bytes:
    """Serialize the PID -> node-name map (self-contained section)."""
    parts: List[bytes] = []
    for pid in sorted(pid_map):
        name = pid_map[pid]
        if name is None:
            parts.append(PID_ENTRY.pack(pid, -1))
        else:
            encoded = name.encode("utf-8")
            parts.append(PID_ENTRY.pack(pid, len(encoded)))
            parts.append(encoded)
    return b"".join(parts)


def unpack_pid_map(raw, offset: int, count: int):
    """Decode ``count`` pid_map entries; returns (pid_map, next offset).

    Raises :class:`IncompletePrefix` when ``raw`` ends mid-section, so
    streaming consumers can feed more bytes and retry.
    """
    pid_map = {}
    for _ in range(count):
        if offset + PID_ENTRY.size > len(raw):
            raise IncompletePrefix("pid_map entry header past buffer end")
        pid, length = PID_ENTRY.unpack_from(raw, offset)
        offset += PID_ENTRY.size
        if length < 0:
            pid_map[pid] = None
        else:
            if offset + length > len(raw):
                raise IncompletePrefix("pid_map name past buffer end")
            pid_map[pid] = bytes(raw[offset:offset + length]).decode("utf-8")
            offset += length
    return pid_map, offset


def pack_strings(strings: Sequence[str]) -> bytes:
    """Serialize the string table (length-prefixed UTF-8)."""
    parts: List[bytes] = []
    for text in strings:
        encoded = text.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def unpack_strings(raw, offset: int, count: int) -> Tuple[List[str], int]:
    """Decode ``count`` strings starting at ``offset`` of a bytes-like
    buffer; returns (strings, offset past the table)."""
    strings: List[str] = []
    unpack_len = struct.Struct("<I").unpack_from
    for _ in range(count):
        (length,) = unpack_len(raw, offset)
        offset += 4
        strings.append(bytes(raw[offset:offset + length]).decode("utf-8"))
        offset += length
    return strings, offset


def pack_shape_dir(
    shapes: Sequence[Tuple[Sequence[Tuple[int, int]], int]]
) -> bytes:
    """Serialize the v2 shape directory.

    ``shapes`` holds ``(fields, n_rows)`` per shape in id order, where
    ``fields`` is the ordered ``(name string id, field type)`` tuple.
    """
    parts: List[bytes] = [struct.pack("<I", len(shapes))]
    for fields, n_rows in shapes:
        parts.append(SHAPE_ENTRY.pack(n_rows, len(fields)))
        for name_id, field_type in fields:
            parts.append(SHAPE_FIELD.pack(name_id, field_type))
    return b"".join(parts)


def unpack_shape_dir(
    raw, offset: int
) -> Tuple[List[Tuple[List[Tuple[int, int]], int]], int]:
    """Decode the v2 shape directory; returns (shapes, next offset) with
    the same ``(fields, n_rows)`` structure :func:`pack_shape_dir` takes."""
    if offset + 4 > len(raw):
        raise StoreFormatError("truncated shape directory (count cut off)")
    (n_shapes,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if n_shapes >= MAX_SHAPES:
        raise StoreFormatError(f"implausible shape count {n_shapes}")
    shapes: List[Tuple[List[Tuple[int, int]], int]] = []
    for _ in range(n_shapes):
        if offset + SHAPE_ENTRY.size > len(raw):
            raise StoreFormatError("truncated shape directory (entry cut off)")
        n_rows, n_fields = SHAPE_ENTRY.unpack_from(raw, offset)
        offset += SHAPE_ENTRY.size
        fields: List[Tuple[int, int]] = []
        for _ in range(n_fields):
            if offset + SHAPE_FIELD.size > len(raw):
                raise StoreFormatError("truncated shape directory (field cut off)")
            name_id, field_type = SHAPE_FIELD.unpack_from(raw, offset)
            if field_type != FIELD_NONE and field_type not in FIELD_TYPECODES:
                raise StoreFormatError(f"unknown payload field type {field_type}")
            fields.append((name_id, field_type))
            offset += SHAPE_FIELD.size
        shapes.append((fields, n_rows))
    return shapes, offset


def pack_header(
    n_strings: int,
    n_pids: int,
    n_ros: int,
    n_sched: int,
    n_wakeup: int,
    start_ts: int,
    stop_ts: int,
    flags: int = 0,
    version: int = VERSION,
) -> bytes:
    return HEADER.pack(
        MAGIC, version, flags, n_strings, n_pids, n_ros, n_sched, n_wakeup,
        start_ts, stop_ts,
    )


def unpack_header(
    raw: bytes, source: str = "segment"
) -> Tuple[int, int, int, int, int, int, int, int, int]:
    """Validate magic and version; returns (version, flags, n_strings,
    n_pids, n_ros, n_sched, n_wakeup, start_ts, stop_ts).

    ``source`` names the bytes in diagnostics (a file path, usually).
    A gzip-JSON trace is diagnosed as such, whatever its length: every
    reader, header peek and ingest validation meets one here.
    """
    if raw[:2] == GZIP_MAGIC:
        raise StoreFormatError(
            f"{source}: gzip-JSON trace, not a segment; "
            "run `repro convert` on its store directory first"
        )
    if len(raw) < HEADER.size:
        raise StoreFormatError(
            f"{source}: truncated segment: {len(raw)} bytes < "
            f"{HEADER.size}-byte header"
        )
    magic, version, flags, n_strings, n_pids, n_ros, n_sched, n_wakeup, start, stop = (
        HEADER.unpack_from(raw, 0)
    )
    if magic != MAGIC:
        raise StoreFormatError(
            f"{source}: bad magic {magic!r} at offset 0; not a "
            f"{SEGMENT_SUFFIX} file"
        )
    if version not in SUPPORTED_VERSIONS:
        raise StoreFormatError(
            f"{source}: unsupported segment version {version} at offset 8 "
            f"(this reader supports {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    return version, flags, n_strings, n_pids, n_ros, n_sched, n_wakeup, start, stop
