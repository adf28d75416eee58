"""Reading binary trace segments without materializing events.

:class:`SegmentReader` parses a ``.trace.bin`` file into column *views*
(`memoryview.cast` on little-endian hosts -- no copy of the event
sections) plus the decoded string table.  It parses one layout, v3:
a v1/v2 file is transcoded to v3 once, at open (:func:`transcode`, the
only code that knows the older layouts), and the store's segment cache
holds that transcoding, so cached opens of old stores parse v3 too.
Event objects are constructed lazily, per iteration, and only for the
rows a consumer asks for: ``iter_ros(pids=...)`` scans the int32 PID
column and skips everything else, so selecting one node out of a
50-run merged store never builds the other nodes' events.

Reads are *section-selective*: every column is its own stream behind
the section directory, materialized (and inflated) only on first touch
through :class:`_LazyColumns`.  A synthesis pass over a compressed v3
store therefore never inflates the wakeup section, the six sched
columns beyond ``(ts, prev_pid, next_pid)``, or the payload columns of
shapes Alg. 1 never dereferences.  ``bytes_inflated`` counts the raw
bytes actually run through zlib (vs ``body_bytes``, the segment's
total raw body size) -- the observable behind the selective-read CI
assertion and the ``store.selective_read`` bench section; an
uncompressed cache copy reads at zero inflation.

Payloads live in typed per-field columns grouped by shape
(:class:`_Shape`): the first access to a shape bulk-decodes its columns
-- string ids resolve through the table once per *column*, ints/floats
come straight out of the fixed-width views -- and every row of the
shape then costs a list index, with no JSON anywhere.  The Alg. 1
walk reads no payload dict at all: it takes each shape's field tuples
(:meth:`_Shape.project`), zipped straight from the columns.  Rows
written through the JSON fallback (payloads outside the closed schema, and
every row of a transcoded v1 segment) are interned JSON strings,
decoded through a bound C scanner and cached per string id.

Parse errors surface as :class:`~repro.store.format.StoreFormatError`
carrying the file path and the failing section/offset -- truncated
files, corrupt zlib bodies, unknown version bytes and ids that point
outside their tables never leak raw ``struct.error`` / ``zlib.error`` /
``IndexError``.

:func:`merge_ros_streams` / :func:`merge_sched_streams` k-way merge
many stored runs chronologically (ties keep run order, exactly like
:meth:`repro.tracing.session.Trace.merge`), again yielding events one
at a time.  :class:`InMemorySegment` adapts an already-loaded
:class:`~repro.tracing.session.Trace` to the same interface, columns
included, so the in-memory pipeline and legacy gzip-JSON runs feed the
one trace index exactly like stored segments.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from heapq import merge as _heap_merge
from itertools import repeat
from json.decoder import JSONDecoder
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

import numpy as np

from ..core.index import (
    PAYLOAD_FIELDS,
    cb_start_type_table,
    payload_fields,
    probe_code_table,
)
from ..core.exec_time import column, sched_columns, ts_ordered
from ..sim.scheduler import SchedSwitch, SchedWakeup
from ..tracing.events import TraceEvent, payload_dicts
from ..tracing.session import Trace
from .format import (
    FIELD_BOOL,
    FIELD_NONE,
    FIELD_STR,
    FIELD_TYPECODES,
    FLAG_ZLIB_BODY,
    HEADER,
    NONE_CPU,
    NONE_ID,
    ROS_COLUMNS,
    ROS_COLUMNS_V2,
    SCHED_COLUMNS,
    SECTION_COMP_ZLIB,
    SECTION_ENTRY,
    SECTION_PAYLOAD,
    SECTION_PID_MAP,
    SECTION_ROS,
    SECTION_SCHED,
    SECTION_SHAPES,
    SECTION_STRINGS,
    SECTION_WAKEUP,
    SHAPE_JSON,
    SectionEntry,
    StoreFormatError,
    VERSION,
    VERSION_V1,
    WAKEUP_COLUMNS,
    column_from_bytes,
    pack_header,
    pack_sections,
    pack_shape_dir,
    unpack_header,
    unpack_pid_map,
    unpack_section_dir,
    unpack_shape_dir,
    unpack_strings,
)

_BIG_ENDIAN = sys.byteorder == "big"
_ITEMSIZE = {"q": 8, "i": 4, "I": 4, "d": 8, "b": 1}

#: Bound C JSON scanner for payload decode (see ``_payload``).
_SCAN_PAYLOAD = JSONDecoder().scan_once

_TS_KEY = lambda event: event[0]  # noqa: E731 - ts field of every record


class _Shape:
    """One payload shape: ordered field names/types + column loaders.

    ``rows()`` bulk-decodes the shape on first use into one dict per
    row (string ids resolved once per column, key order preserved);
    repeated access is a list index.  ``project(vidxs)`` hands the walk
    the field tuples of the given rows (see
    :data:`~repro.core.index.PAYLOAD_FIELDS`) from one ``zip`` over the
    field columns, building no dict.  A column's section is sliced (and
    inflated) only then, so shapes nothing dereferences never inflate
    their streams.  Payload dicts are shared by the ``TraceEvent``
    immutability contract, like the JSON payload cache.
    """

    __slots__ = ("keys", "types", "count", "_loaders", "_strings", "_rows")

    def __init__(
        self,
        keys: Tuple[str, ...],
        types: Tuple[int, ...],
        count: int,
        loaders: Sequence[Optional[Callable[[], Sequence]]],
        strings: Sequence[str],
    ):
        self.keys = keys
        self.types = types
        self.count = count
        self._loaders = loaders  # None for FIELD_NONE (no column)
        self._strings = strings
        self._rows: Optional[List[Dict[str, Any]]] = None

    def _column(self, position: int) -> Iterable:
        """The values of field ``position``, one per row, as the Python
        objects a decoded payload holds."""
        ftype = self.types[position]
        if ftype == FIELD_NONE:
            return repeat(None, self.count)
        values = self._loaders[position]()
        if ftype == FIELD_STR:
            return map(self._strings.__getitem__, values)
        if ftype == FIELD_BOOL:
            return map(bool, values)
        return values

    def rows(self) -> List[Dict[str, Any]]:
        rows = self._rows
        if rows is None:
            if self.keys:
                columns = map(self._column, range(len(self.keys)))
                rows = payload_dicts(self.keys, zip(*columns))
            else:  # degenerate: a shape with no fields (hand-built file)
                rows = [{} for _ in range(self.count)]
            self._rows = rows
        return rows

    def project(self, vidxs: List[int]) -> Iterator[Tuple]:
        """The field tuples of rows ``vidxs``."""
        keys = self.keys
        fields = list(zip(*(
            self._column(keys.index(key)) if key in keys
            else repeat(None, self.count)
            for key in PAYLOAD_FIELDS
        )))
        return map(fields.__getitem__, vidxs)


class _Sections:
    """A v3 segment's section streams: the file bytes, the section
    directory and the inflated sections, cached.

    Split out of :class:`SegmentReader` so the lazy handles that load
    columns on first touch (:class:`_LazyColumns`, the payload column
    loaders of each :class:`_Shape`) reference the sections, not the
    reader that holds them: a reader owns no reference cycle, so
    dropping it frees its inflated sections at once, by reference
    counting alone.
    """

    __slots__ = ("_source", "_data", "_body_start", "_entries", "_cache",
                 "body_bytes", "bytes_inflated")

    def __init__(self, data, source: str):
        self._source = source
        try:
            entries, body_start = unpack_section_dir(data, HEADER.size)
        except StoreFormatError as error:
            raise StoreFormatError(f"{source}: {error}") from None
        self._data = memoryview(data)
        self._body_start = body_start
        self._entries: Dict[Tuple[int, int], SectionEntry] = {
            (entry.kind, entry.index): entry for entry in entries
        }
        self._cache: Dict[Tuple[int, int], Sequence] = {}
        self.body_bytes = sum(entry.raw_len for entry in entries)
        self.bytes_inflated = 0
        end = body_start + max(
            (entry.offset + entry.comp_len for entry in entries), default=0
        )
        if end > len(data):
            raise StoreFormatError(
                f"{source}: truncated segment: section directory "
                f"addresses {end} bytes, file has {len(data)}"
            )

    def raw(self, kind: int, index: int):
        """One section's raw bytes (sliced, inflated if deflated,
        cached); parse failures surface as :class:`StoreFormatError`
        naming the file, the section and its offset."""
        key = (kind, index)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        entry = self._entries.get(key)
        if entry is None:
            raise StoreFormatError(
                f"{self._source}: missing section "
                f"{SectionEntry(kind, 0, index, 0, 0, 0).name} "
                "(absent from the section directory)"
            )
        start = self._body_start + entry.offset
        raw = self._data[start:start + entry.comp_len]
        if len(raw) != entry.comp_len:
            raise StoreFormatError(
                f"{self._source}: truncated section {entry.name} "
                f"(at file offset {start}): need {entry.comp_len} bytes, "
                f"have {len(raw)}"
            )
        if entry.comp == SECTION_COMP_ZLIB:
            try:
                raw = zlib.decompress(raw)
            except zlib.error as error:
                raise StoreFormatError(
                    f"{self._source}: corrupt section {entry.name} "
                    f"(at file offset {start}): {error}"
                ) from None
            if len(raw) != entry.raw_len:
                raise StoreFormatError(
                    f"{self._source}: corrupt section {entry.name} "
                    f"(at file offset {start}): inflated to {len(raw)} "
                    f"bytes, directory says {entry.raw_len}"
                )
        self._cache[key] = raw
        if entry.comp == SECTION_COMP_ZLIB:
            self.bytes_inflated += entry.raw_len
        return raw

    def column(
        self, typecode: str, count: int, kind: int, index: int
    ) -> Sequence:
        """One column as a typed view over its section stream."""
        raw = self.raw(kind, index)
        expected = _ITEMSIZE[typecode] * count
        if len(raw) != expected:
            entry = self._entries[(kind, index)]
            raise StoreFormatError(
                f"{self._source}: corrupt section {entry.name} "
                f"(at file offset {self._body_start + entry.offset}): "
                f"{len(raw)} bytes for {count} {typecode!r} values "
                f"(expected {expected})"
            )
        if _BIG_ENDIAN:  # pragma: no cover - LE containers
            return column_from_bytes(typecode, bytes(raw))
        view = raw if isinstance(raw, memoryview) else memoryview(raw)
        return view.cast(typecode)

    def loader(self, typecode: str, count: int, index: int):
        """A zero-argument handle materializing one payload column."""
        return lambda: self.column(typecode, count, SECTION_PAYLOAD, index)


class _LazyColumns:
    """One v3 event section as per-column lazy handles.

    Quacks like a column tuple -- indexing, iteration, unpacking --
    but a column's stream is only sliced (and
    inflated, when deflated) on its first access, then cached.  That is
    what lets ``sched_pid_columns()`` read three of nine sched columns and
    ``ros_ts_range()`` a single ros column.
    """

    __slots__ = ("_sections", "_kind", "_typecodes", "_count", "_loaded")

    def __init__(
        self, sections: _Sections, kind: int,
        typecodes: Sequence[str], count: int,
    ):
        self._sections = sections
        self._kind = kind
        self._typecodes = typecodes
        self._count = count
        self._loaded: List[Optional[Sequence]] = [None] * len(typecodes)

    def __len__(self) -> int:
        return len(self._typecodes)

    def __getitem__(self, index: int) -> Sequence:
        column = self._loaded[index]
        if column is None:
            column = self._loaded[index] = self._sections.column(
                self._typecodes[index], self._count, self._kind, index
            )
        return column

    def __iter__(self):
        return (self[index] for index in range(len(self._typecodes)))


def transcode(data, source: str = "<segment bytes>") -> Tuple[bytes, int]:
    """A segment of any version as a v3 segment with raw sections, and
    the bytes inflated on the way -- the one code that knows the older
    layouts.  The reader calls it at open for v1/v2; the segment cache
    stores its output for every version.

    v3 sections are inflated.  A v2 body (inflated, when compressed)
    already is the v3 sections in file order, so it is cut at the
    offsets its pid_map, string table and shape directory imply.  A v1
    body is cut the same way; its payloads are all interned JSON, so
    its ``data`` column becomes the ``vidx`` of JSON-fallback rows
    beside a derived ``shape`` column, behind an empty shape directory.
    Values are never re-encoded."""
    (
        version, flags, n_strings, n_pids, n_ros, n_sched, n_wakeup,
        start, stop,
    ) = unpack_header(data, source=source)
    header = pack_header(n_strings, n_pids, n_ros, n_sched, n_wakeup, start, stop)
    if version == VERSION:
        sections = _Sections(data, source)
        blobs = [
            (kind, index, sections.raw(kind, index))
            for kind, index in sections._entries
        ]
        return (
            b"".join(pack_sections(header, blobs, compress=False)),
            sections.bytes_inflated,
        )
    inflated = 0
    if flags & FLAG_ZLIB_BODY:
        try:
            body = memoryview(zlib.decompress(data[HEADER.size:]))
        except zlib.error as error:
            raise StoreFormatError(
                f"{source}: corrupt zlib body "
                f"(at file offset {HEADER.size}): {error}"
            ) from None
        inflated = len(body)
    else:
        body = memoryview(data)[HEADER.size:]
    section = "pid_map"
    try:
        _, strings_at = unpack_pid_map(body, 0, n_pids)
        section = "string table"
        _, offset = unpack_strings(body, strings_at, n_strings)
        blobs = [
            (SECTION_PID_MAP, 0, body[:strings_at]),
            (SECTION_STRINGS, 0, body[strings_at:offset]),
        ]
        columns: List[Tuple[int, int, str, int]] = []  # kind, index, code, count
        if version == VERSION_V1:
            blobs.append((SECTION_SHAPES, 0, pack_shape_dir([])))
            # (ts, pid, probe, data): data becomes vidx, column 4.
            ros = zip((0, 1, 2, 4), ROS_COLUMNS)
        else:
            section = "shape directory"
            shape_dir, end = unpack_shape_dir(body, offset)
            blobs.append((SECTION_SHAPES, 0, body[offset:end]))
            offset = end
            stored = [
                (FIELD_TYPECODES[ftype], count)
                for fields, count in shape_dir
                for _, ftype in fields if ftype != FIELD_NONE
            ]
            columns += [
                (SECTION_PAYLOAD, index, code, count)
                for index, (code, count) in enumerate(stored)
            ]
            ros = enumerate(ROS_COLUMNS_V2)
        columns += [(SECTION_ROS, index, code, n_ros) for index, code in ros]
        for kind, codes, count in (
            (SECTION_SCHED, SCHED_COLUMNS, n_sched),
            (SECTION_WAKEUP, WAKEUP_COLUMNS, n_wakeup),
        ):
            columns += [(kind, index, code, count) for index, code in enumerate(codes)]
        for kind, index, code, count in columns:
            end = offset + _ITEMSIZE[code] * count
            blobs.append((kind, index, body[offset:end]))
            offset = end
        if offset > len(body):
            raise StoreFormatError(
                f"truncated segment body: need {offset} bytes, "
                f"have {len(body)}"
            )
    except StoreFormatError as error:
        raise StoreFormatError(f"{source}: {error}") from None
    except (ValueError, TypeError, struct.error, IndexError) as error:
        # A cut anywhere (pid_map, string table, shape directory)
        # surfaces as one clear diagnosis, never a low-level error.
        raise StoreFormatError(
            f"{source}: corrupt or truncated segment (in {section}): {error}"
        ) from None
    if version == VERSION_V1:
        position = 6  # pid_map, strings, shapes, ts, pid, probe | data
        data_ids = np.frombuffer(blobs[position][2], dtype="<u4")
        shape = np.where(data_ids == NONE_ID, data_ids, SHAPE_JSON)
        blobs.insert(position, (SECTION_ROS, 3, shape.astype("<u4").tobytes()))
    return b"".join(pack_sections(header, blobs, compress=False)), inflated


class SegmentFile(NamedTuple):
    """A segment file's path and its bytes, read whole: what
    :meth:`SegmentReader.open` parses in place of reading ``path``
    again."""

    path: str
    data: bytes

    def __fspath__(self) -> str:
        return self.path


class SegmentReader:
    """One stored run, decoded lazily from its packed columns.
    ``version`` is the file's format-version byte; a v1/v2 file is
    transcoded to v3 at open (:func:`transcode`), then parsed as v3.

    ``bytes_inflated`` counts the raw bytes run through zlib so far (v3
    counts per touched section; a compressed v1/v2 body counts fully,
    at open; uncompressed data counts nothing); ``body_bytes`` is the
    v3 segment's total raw body size, so ``bytes_inflated < body_bytes``
    on a compressed v3 segment demonstrates a selective read.

    A reader owns no reference cycle: the lazy column handles hold the
    segment's :class:`_Sections`, never the reader.  The bulk builds
    that read segments run with the cyclic collector paused
    (:class:`~repro.core.gcpause.paused_gc`), so a dropped reader and
    its inflated sections are freed by reference counting alone."""

    def __init__(self, data, path: Optional[str] = None):
        self.path = path
        self._source = source = path if path is not None else "<segment bytes>"
        self.size_bytes = len(data)
        (
            version, _, n_strings, n_pids, n_ros, n_sched, n_wakeup,
            start, stop,
        ) = unpack_header(data, source=source)
        self.version = version
        self.start_ts = start
        self.stop_ts = stop
        self.num_ros_events = n_ros
        self.num_sched_events = n_sched
        self.num_wakeup_events = n_wakeup
        inflated = 0
        if version < VERSION:
            data, inflated = transcode(data, source)
        # Eager: the directory and the small sections; event and payload
        # columns stay lazy per-stream handles.
        self._sections = sections = _Sections(data, source)
        sections.bytes_inflated = inflated  # a transcoded compressed body
        self.body_bytes = sections.body_bytes
        self._shapes: List[_Shape] = []
        section = "pid_map"
        try:
            raw = sections.raw(SECTION_PID_MAP, 0)
            self.pid_map, _ = unpack_pid_map(raw, 0, n_pids)
            section = "string table"
            raw = sections.raw(SECTION_STRINGS, 0)
            self._strings, _ = unpack_strings(raw, 0, n_strings)
            section = "shape directory"
            raw = sections.raw(SECTION_SHAPES, 0)
            shape_dir, _ = unpack_shape_dir(raw, 0)
            strings = self._strings
            payload_index = 0
            for fields, count in shape_dir:
                if count > n_ros:  # every shape row is one ROS row
                    raise StoreFormatError(
                        f"shape of {count} rows in a segment of {n_ros} "
                        "ROS events"
                    )
                keys = tuple(strings[name_id] for name_id, _ in fields)
                types = tuple(ftype for _, ftype in fields)
                loaders: List[Optional[Callable[[], Sequence]]] = []
                for ftype in types:
                    if ftype == FIELD_NONE:
                        loaders.append(None)
                    else:
                        loaders.append(sections.loader(
                            FIELD_TYPECODES[ftype], count, payload_index
                        ))
                        payload_index += 1
                self._shapes.append(_Shape(keys, types, count, loaders, strings))
        except StoreFormatError as error:
            message = str(error)
            if not message.startswith(source):
                message = f"{source}: {message}"
            raise StoreFormatError(message) from None
        except (ValueError, TypeError, struct.error, IndexError) as error:
            raise StoreFormatError(
                f"{source}: corrupt or truncated segment "
                f"(in {section}): {error}"
            ) from None
        self._ros = _LazyColumns(sections, SECTION_ROS, ROS_COLUMNS_V2, n_ros)
        self._sched = _LazyColumns(sections, SECTION_SCHED, SCHED_COLUMNS, n_sched)
        self._wakeup = _LazyColumns(
            sections, SECTION_WAKEUP, WAKEUP_COLUMNS, n_wakeup
        )
        #: payload string id -> decoded mapping, shared across events
        #: (payloads are immutable by the TraceEvent contract); every
        #: JSON-fallback row (all rows of a v1 segment) decodes
        #: through this.
        self._payload_cache: Dict[int, Dict[str, Any]] = {}
        #: per-string-id probe-code / CB-type tables, built on the
        #: first :meth:`walk_fastpath`.
        self._code_table: Optional[bytearray] = None
        self._start_types: Optional[List[Optional[str]]] = None

    @property
    def bytes_inflated(self) -> int:
        return self._sections.bytes_inflated

    @classmethod
    def open(
        cls, path: Union[str, SegmentFile], use_mmap: bool = False
    ) -> "SegmentReader":
        """Read (or, with ``use_mmap``, map) ``path`` into a reader; a
        :class:`SegmentFile` is parsed from the bytes it holds, so a
        file read once (to key a run's fragment by its bytes) is never
        read again.  Every store reader is constructed here.

        ``use_mmap`` avoids the up-front file read: section slices come
        straight from the page cache, which is the point of the store's
        uncompressed segment cache -- repeated synthesis over the same
        store re-reads only the pages it touches.
        """
        if isinstance(path, SegmentFile):
            return cls(path.data, path=path.path)
        if use_mmap:
            import mmap as _mmap

            with open(path, "rb") as handle:
                mapped = _mmap.mmap(
                    handle.fileno(), 0, access=_mmap.ACCESS_READ
                )
            return cls(mapped, path=path)
        with open(path, "rb") as handle:
            return cls(handle.read(), path=path)

    def _corrupt(self, where: str, error: Exception) -> StoreFormatError:
        return StoreFormatError(
            f"{self._source}: corrupt segment (in {where}): {error}"
        )

    # -- decoding ----------------------------------------------------------

    def _payload(self, data_id: int) -> Dict[str, Any]:
        if data_id == NONE_ID:
            return {}
        payload = self._payload_cache.get(data_id)
        if payload is None:
            # Payloads are canonical compact JSON by the writer contract
            # (no leading whitespace, no trailing bytes), so the bound C
            # scanner replaces json.loads' per-call dispatch -- ~2.4x
            # cheaper on the store's small payload documents.
            try:
                payload = _SCAN_PAYLOAD(self._strings[data_id], 0)[0]
            except (ValueError, StopIteration):  # no JSON value at 0
                payload = None
            if type(payload) is not dict:
                raise StoreFormatError(
                    f"{self._source}: corrupt segment: payload string "
                    f"{data_id} is not a JSON object"
                )
            self._payload_cache[data_id] = payload
        return payload

    def _payload_at(self, sid: int, vidx: int) -> Dict[str, Any]:
        """One row's payload from its (shape, vidx) coordinates."""
        if sid == NONE_ID:
            return {}
        if sid == SHAPE_JSON:
            return self._payload(vidx)
        return self._shapes[sid].rows()[vidx]

    def iter_ros(self, pids: Optional[Iterable[int]] = None) -> Iterator[TraceEvent]:
        """The run's ROS events, chronological; ``pids`` selects rows by
        scanning the PID column only."""
        strings = self._strings
        wanted = None
        if pids is not None:
            wanted = pids if isinstance(pids, frozenset) else frozenset(pids)
        ts_col, pid_col, probe_col, shape_col, vidx_col = self._ros
        payload = self._payload_at
        try:
            for i in range(self.num_ros_events):
                if wanted is None or pid_col[i] in wanted:
                    yield TraceEvent(
                        ts_col[i], pid_col[i], strings[probe_col[i]],
                        payload(shape_col[i], vidx_col[i]),
                    )
        except IndexError as error:  # a string, shape or row id past its table
            raise self._corrupt("ros columns", error) from None

    def ros_ts_range(self) -> Optional[Tuple[int, int]]:
        """(first, last) ROS timestamp, or None for an eventless run --
        how the columnar merge detects time-disjoint stored runs."""
        ts_col = self._ros[0]
        if not self.num_ros_events:
            return None
        return ts_col[0], ts_col[self.num_ros_events - 1]

    def walk_fastpath(self) -> Tuple:
        """The columnar Alg. 1 input, resolved in bulk by
        :func:`~repro.store.index._resolve` for the trace index and the
        latency index alike: the ``(ts, pid, probe, shape, vidx)``
        columns (v1 segments arrive transcoded to this layout), the
        per-string-id code/CB-type tables, the :class:`_Shape` list
        (typed payload columns, projected per shape to field tuples)
        and the bound JSON decoder for fallback rows.
        """
        if self._code_table is None:
            self._code_table = probe_code_table(self._strings)
            self._start_types = cb_start_type_table(self._strings)
        return (
            *self._ros, self._code_table, self._start_types, self._shapes,
            self._payload,
        )

    def sched_pid_columns(self) -> Tuple[Sequence, Sequence, Sequence]:
        """The ``(ts, prev_pid, next_pid)`` sched_switch columns -- no
        :class:`SchedSwitch` objects -- which
        :class:`~repro.store.index.StoreTraceIndex` buckets in bulk
        into per-PID :class:`~repro.core.exec_time.SchedIndex`
        buckets.  Only those three of the nine sched streams inflate."""
        return self._sched[0], self._sched[2], self._sched[6]

    def wakeup_pid_columns(self) -> Tuple[Sequence, Sequence]:
        """The ``(ts, pid)`` sched_wakeup columns -- no
        :class:`SchedWakeup` objects, and the only wakeup fields
        :class:`~repro.analysis.latency.LatencyIndex` consumes.  The
        other three wakeup streams never inflate."""
        return self._wakeup[0], self._wakeup[2]

    def iter_sched(self) -> Iterator[SchedSwitch]:
        ts, cpu, prev_pid, prev_comm, prev_prio, prev_state, next_pid, next_comm, next_prio = self._sched
        strings = self._strings
        try:
            for i in range(self.num_sched_events):
                yield SchedSwitch(
                    ts[i], cpu[i], prev_pid[i], strings[prev_comm[i]],
                    prev_prio[i], strings[prev_state[i]], next_pid[i],
                    strings[next_comm[i]], next_prio[i],
                )
        except IndexError as error:
            raise self._corrupt("sched columns", error) from None

    def iter_wakeups(self) -> Iterator[SchedWakeup]:
        ts, cpu, pid, comm, prio = self._wakeup
        strings = self._strings
        try:
            for i in range(self.num_wakeup_events):
                cpu_value = cpu[i]
                yield SchedWakeup(
                    ts[i], None if cpu_value == NONE_CPU else cpu_value,
                    pid[i], strings[comm[i]], prio[i],
                )
        except IndexError as error:
            raise self._corrupt("wakeup columns", error) from None

    # -- aggregate views ---------------------------------------------------

    def ros_pids(self) -> List[int]:
        """Distinct PIDs appearing in the ROS stream (column scan --
        no events are materialized)."""
        return sorted(set(self._ros[1]))

    def pids(self) -> List[int]:
        """PIDs of the run's PID map (the traced nodes)."""
        return sorted(self.pid_map)

    def to_trace(self) -> Trace:
        """Materialize the full run (lossless round trip)."""
        return Trace(
            ros_events=list(self.iter_ros()),
            sched_events=list(self.iter_sched()),
            wakeup_events=list(self.iter_wakeups()),
            pid_map=dict(self.pid_map),
            start_ts=self.start_ts,
            stop_ts=self.stop_ts,
        )


def peek_header(path: str) -> Tuple[int, int, int, int, int, int, int, int, int]:
    """Header fields of a segment file from its first bytes only:
    (version, flags, n_strings, n_pids, n_ros, n_sched, n_wakeup,
    start_ts, stop_ts).  The cheap introspection behind
    ``repro store-info``."""
    with open(path, "rb") as handle:
        return unpack_header(handle.read(HEADER.size), source=path)


def peek_sections(path: str) -> List[SectionEntry]:
    """The section directory of a v3 segment (header + directory bytes
    only -- no event stream is touched); empty for v1/v2 segments,
    whose body is one undifferentiated stream.  Feeds the per-section
    size breakdown of ``repro store-info --json``.  A file shorter than
    the directory's extent (the body start plus the largest ``offset +
    comp_len``) raises :class:`StoreFormatError`."""
    with open(path, "rb") as handle:
        head = handle.read(HEADER.size)
        version, *_ = unpack_header(head, source=path)
        if version < 3:
            return []
        prefix = handle.read(4)
        if len(prefix) < 4:
            raise StoreFormatError(
                f"{path}: truncated segment: section directory cut off"
            )
        (count,) = struct.unpack("<I", prefix)
        raw = head + prefix + handle.read(count * SECTION_ENTRY.size)
        try:
            entries, body = unpack_section_dir(raw, HEADER.size)
        except StoreFormatError as error:
            raise StoreFormatError(f"{path}: {error}") from None
        size = os.fstat(handle.fileno()).st_size
    extent = body + max((e.offset + e.comp_len for e in entries), default=0)
    if size < extent:
        raise StoreFormatError(f"{path}: truncated segment: {size} of {extent} bytes")
    return entries


class _PayloadShape:
    """The single pseudo-shape of an :class:`InMemorySegment`: every
    row's already-decoded payload, indexed by row (``vidx``)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: List[Dict[str, Any]]):
        self._rows = rows

    def rows(self) -> List[Dict[str, Any]]:
        return self._rows

    def project(self, vidxs: List[int]) -> List[Tuple]:
        """The field tuples of rows ``vidxs``."""
        return payload_fields(map(self._rows.__getitem__, vidxs))


class InMemorySegment:
    """A loaded :class:`Trace` behind the reader interface: the in-memory
    pipeline's input and legacy gzip-JSON runs.

    Every view presents the ROS and sched streams in stable timestamp
    order -- the trace contract -- sorting a copy once when the loaded
    lists are out of order; the trace's own lists are never mutated.
    :meth:`walk_fastpath` builds the same column tuple a
    :class:`SegmentReader` returns, once per segment: per-field columns,
    an interned probe-string table, and one payload pseudo-shape whose
    ``vidx`` is the row number, so the store index consumes a loaded
    trace exactly like a stored one.
    """

    def __init__(self, trace: Trace, path: Optional[str] = None):
        self._trace = trace
        self.path = path
        self.pid_map = trace.pid_map
        self.start_ts = trace.start_ts
        self.stop_ts = trace.stop_ts
        self.num_ros_events = len(trace.ros_events)
        self.num_sched_events = len(trace.sched_events)
        self.num_wakeup_events = len(trace.wakeup_events)
        self._ros: Optional[Tuple[List[TraceEvent], np.ndarray]] = None
        self._fastpath: Optional[Tuple] = None
        self._sched: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _ros_in_order(self) -> Tuple[List[TraceEvent], np.ndarray]:
        """The ROS events in stable ts order and their ts column."""
        if self._ros is None:
            self._ros = ts_ordered(self._trace.ros_events)
        return self._ros

    def iter_ros(self, pids: Optional[Iterable[int]] = None) -> Iterator[TraceEvent]:
        events = self._ros_in_order()[0]
        if pids is None:
            return iter(events)
        wanted = pids if isinstance(pids, frozenset) else frozenset(pids)
        return (e for e in events if e.pid in wanted)

    def walk_fastpath(self) -> Tuple:
        """:meth:`SegmentReader.walk_fastpath` of the loaded trace."""
        if self._fastpath is None:
            events, times = self._ros_in_order()
            probes = list(map(itemgetter(2), events))
            strings = list(dict.fromkeys(probes))
            string_id = {text: i for i, text in enumerate(strings)}
            n = len(events)
            self._fastpath = (
                times,
                column(events, 1, np.int32),
                np.fromiter(map(string_id.__getitem__, probes), np.uint32, n),
                bytes(4 * n),  # shape 0 for every row
                np.arange(n, dtype=np.uint32),
                probe_code_table(strings),
                cb_start_type_table(strings),
                [_PayloadShape(list(map(itemgetter(3), events)))],
                None,  # no JSON-fallback rows
            )
        return self._fastpath

    def ros_ts_range(self) -> Optional[Tuple[int, int]]:
        times = self._ros_in_order()[1]
        if not len(times):
            return None
        return int(times[0]), int(times[-1])

    def sched_pid_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`SegmentReader.sched_pid_columns` packed from the
        loaded events, in stable ts order."""
        if self._sched is None:
            self._sched = sched_columns(self._trace.sched_events)
        return self._sched

    def wakeup_pid_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`SegmentReader.wakeup_pid_columns` packed from the
        loaded events, in list order."""
        events = self._trace.wakeup_events
        return column(events, 0, np.int64), column(events, 2, np.int32)

    def iter_sched(self) -> Iterator[SchedSwitch]:
        return iter(ts_ordered(self._trace.sched_events)[0])

    def iter_wakeups(self) -> Iterator[SchedWakeup]:
        return iter(self._trace.wakeup_events)

    def pids(self) -> List[int]:
        return sorted(self.pid_map)

    def to_trace(self) -> Trace:
        return self._trace


def merge_ros_streams(
    readers: Sequence[Any], pids: Optional[Iterable[int]] = None
) -> Iterator[TraceEvent]:
    """Chronological k-way merge of many runs' ROS streams.

    Stored streams are sorted by the trace contract, so the heap merge
    yields the exact sequence ``Trace.merge`` would produce (ties keep
    reader order), one event at a time.
    """
    wanted = None if pids is None else frozenset(pids)
    return _heap_merge(*(r.iter_ros(pids=wanted) for r in readers), key=_TS_KEY)


def merge_sched_streams(readers: Sequence[Any]) -> Iterator[SchedSwitch]:
    return _heap_merge(*(r.iter_sched() for r in readers), key=_TS_KEY)


def merge_wakeup_streams(readers: Sequence[Any]) -> Iterator[SchedWakeup]:
    return _heap_merge(*(r.iter_wakeups() for r in readers), key=_TS_KEY)
