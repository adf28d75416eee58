"""Reading binary trace segments without materializing events.

:class:`SegmentReader` parses a ``.trace.bin`` file -- format v1, v2 or
v3 -- into column *views* (`memoryview.cast` on little-endian hosts --
no copy of the event sections) plus the decoded string table.  Event
objects are constructed lazily, per iteration, and only for the rows a
consumer asks for: ``iter_ros(pids=...)`` scans the int32 PID column
and skips everything else, so selecting one node out of a 50-run merged
store never builds the other nodes' events.

v3 segments add *section-selective I/O*: every column is its own
stream behind the section directory, materialized (and inflated) only
on first touch through :class:`_LazyColumns`.  A synthesis pass over a
v3 store therefore never inflates the wakeup section, the six sched
columns beyond ``(ts, prev_pid, next_pid)``, or the payload columns of
shapes Alg. 1 never dereferences.  ``bytes_inflated`` counts the raw
bytes actually run through zlib (vs ``body_bytes``, the segment's
total raw body size) -- the observable behind the selective-read CI
assertion and the ``store.selective_read`` bench section; an
uncompressed cache copy reads at zero inflation.

Every format reads through one column layout, ``(ts, pid, probe,
shape, vidx)``.  v2/v3 payloads live in typed per-field columns grouped
by shape (:class:`_Shape`): the first access to a shape bulk-decodes
its columns -- string ids resolve through the table once per *column*,
ints/floats come straight out of the fixed-width views -- and every row
of the shape then costs a list index, with no JSON anywhere.  Rows
written through the JSON fallback (payloads outside the closed schema)
are interned JSON strings, decoded through a bound C scanner and cached
per string id.  A v1 segment's ``data`` column is normalized into that
layout on open: v1 payloads are interned JSON, so every v1 row reads as
a JSON-fallback row of the v2 layout.

Parse errors surface as :class:`~repro.store.format.StoreFormatError`
carrying the file path and the failing section/offset -- truncated
files, corrupt zlib bodies and unknown version bytes never leak raw
``struct.error`` / ``zlib.error``.

:func:`merge_ros_streams` / :func:`merge_sched_streams` k-way merge
many stored runs chronologically (ties keep run order, exactly like
:meth:`repro.tracing.session.Trace.merge`), again yielding events one
at a time.  :class:`InMemorySegment` adapts an already-loaded
:class:`~repro.tracing.session.Trace` to the same interface, columns
included, so the in-memory pipeline and legacy gzip-JSON runs feed the
one trace index exactly like stored segments.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from heapq import merge as _heap_merge
from json.decoder import JSONDecoder
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.index import cb_start_type_table, probe_code_table
from ..core.exec_time import column, sched_columns, ts_ordered
from ..sim.scheduler import SchedSwitch, SchedWakeup
from ..tracing.events import TraceEvent
from ..tracing.session import Trace
from .format import (
    FIELD_BOOL,
    FIELD_NONE,
    FIELD_STR,
    FIELD_TYPECODES,
    FLAG_ZLIB_BODY,
    HEADER,
    IncompletePrefix,
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
    WAKEUP_COLUMNS,
    column_from_bytes,
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

#: keys tuple -> compiled row-building listcomp (see ``_row_builder``).
_ROW_BUILDERS: Dict[Tuple[str, ...], Any] = {}


def _row_builder(keys: Tuple[str, ...]):
    """A compiled ``[{key: v0, ...} for (v0, ...) in _rows]`` for one
    shape's key tuple (namedtuple-style codegen, cached per key set).

    A dict display builds ~3x faster than ``dict(zip(keys, values))``,
    and shape-row materialization is the hottest allocation in a store
    read; keys are embedded as ``repr`` string literals, so arbitrary
    payload key text stays data, never code.
    """
    code = _ROW_BUILDERS.get(keys)
    if code is None:
        names = [f"v{i}" for i in range(len(keys))]
        item = "{" + ", ".join(
            f"{key!r}: {name}" for key, name in zip(keys, names)
        ) + "}"
        target = "(" + ", ".join(names) + ("," if len(names) == 1 else "") + ")"
        code = _ROW_BUILDERS[keys] = compile(
            f"[{item} for {target} in _rows]", "<shape rows>", "eval"
        )
    return code


def _v1_ros_as_v2(columns: Sequence[Sequence[int]]) -> List[Sequence[int]]:
    """v1 ROS columns ``(ts, pid, probe, data)`` in the v2 layout.

    v1 payloads are interned JSON strings, so every v1 row is a v2
    JSON-fallback row: shape ``SHAPE_JSON`` with the data id as its
    vidx, or ``NONE_ID`` for an empty payload.  One vectorized pass at
    open time leaves every reader path a single (v2/v3) column layout.
    """
    ts_col, pid_col, probe_col, data_col = columns
    data = np.frombuffer(data_col, dtype=np.uint32)
    shape = np.where(data == NONE_ID, NONE_ID, SHAPE_JSON).astype(np.uint32)
    return [ts_col, pid_col, probe_col, array("I", shape.tobytes()), data_col]


class _Shape:
    """One v2 payload shape: ordered field names/types + column views.

    ``rows()`` bulk-decodes the shape on first use into one dict per
    row (string ids resolved once per column, key order preserved);
    repeated access is a list index.  Payload dicts are shared by the
    ``TraceEvent`` immutability contract, like the JSON payload cache.
    """

    __slots__ = ("keys", "types", "count", "_columns", "_strings", "_rows")

    def __init__(
        self,
        keys: Tuple[str, ...],
        types: Tuple[int, ...],
        count: int,
        columns: Sequence[Optional[Sequence]],
        strings: Sequence[str],
    ):
        self.keys = keys
        self.types = types
        self.count = count
        self._columns = columns
        self._strings = strings
        self._rows: Optional[List[Dict[str, Any]]] = None

    def rows(self) -> List[Dict[str, Any]]:
        rows = self._rows
        if rows is None:
            strings = self._strings
            seqs: List[Sequence] = []
            for ftype, column in zip(self.types, self._columns):
                if callable(column):
                    # v3: the column is a lazy section handle; shapes
                    # nothing dereferences never inflate their streams.
                    column = column()
                if ftype == FIELD_NONE:
                    seqs.append([None] * self.count)
                elif ftype == FIELD_STR:
                    seqs.append([strings[i] for i in column])
                elif ftype == FIELD_BOOL:
                    seqs.append([bool(v) for v in column])
                else:
                    seqs.append(column)
            if seqs:
                rows = eval(  # compiled dict-display listcomp, data-only
                    _row_builder(self.keys), {"_rows": zip(*seqs)}
                )
            else:  # degenerate: a shape with no fields (hand-built file)
                rows = [{} for _ in range(self.count)]
            self._rows = rows
        return rows


class _LazyColumns:
    """One v3 event section as per-column lazy handles.

    Quacks like the column tuple the eager reader builds -- indexing,
    iteration, unpacking -- but a column's stream is only sliced (and
    inflated, when deflated) on its first access, then cached.  That is
    what lets ``sched_pid_columns()`` read three of nine sched columns and
    ``ros_ts_range()`` a single ros column.
    """

    __slots__ = ("_reader", "_kind", "_typecodes", "_count", "_loaded")

    def __init__(
        self, reader: "SegmentReader", kind: int,
        typecodes: Sequence[str], count: int,
    ):
        self._reader = reader
        self._kind = kind
        self._typecodes = typecodes
        self._count = count
        self._loaded: List[Optional[Sequence]] = [None] * len(typecodes)

    def __len__(self) -> int:
        return len(self._typecodes)

    def __getitem__(self, index: int) -> Sequence:
        column = self._loaded[index]
        if column is None:
            column = self._loaded[index] = self._reader._section_column(
                self._typecodes[index], self._count, self._kind, index
            )
        return column

    def __iter__(self):
        return (self[index] for index in range(len(self._typecodes)))


class SegmentReader:
    """One stored run (format v1, v2 or v3), decoded lazily from its
    packed columns.  ``version`` exposes the file's format-version byte.

    ``bytes_inflated`` counts the raw bytes run through zlib so far (v3
    counts per touched section; a compressed v1/v2 body counts fully up
    front; uncompressed data counts nothing); ``body_bytes`` is the
    segment's total raw body size, so ``bytes_inflated < body_bytes``
    on a compressed segment demonstrates a selective read."""

    def __init__(self, data, path: Optional[str] = None):
        self.path = path
        self._source = path if path is not None else "<segment bytes>"
        self.size_bytes = len(data)
        (
            version, flags, n_strings, n_pids, n_ros, n_sched, n_wakeup,
            start, stop,
        ) = unpack_header(data, source=self._source)
        self.version = version
        self.start_ts = start
        self.stop_ts = stop
        self.num_ros_events = n_ros
        self.num_sched_events = n_sched
        self.num_wakeup_events = n_wakeup
        self._shapes: List[_Shape] = []
        self.bytes_inflated = 0
        if version >= 3:
            self._init_v3(data, n_strings, n_pids, n_ros, n_sched, n_wakeup)
        else:
            self._init_body(data, flags, n_strings, n_pids, n_ros, n_sched,
                            n_wakeup)
        #: payload string id -> decoded mapping, shared across events
        #: (payloads are immutable by the TraceEvent contract); every
        #: JSON-fallback row (all rows of a v1 segment) decodes
        #: through this.
        self._payload_cache: Dict[int, Dict[str, Any]] = {}
        #: per-string-id probe-code / CB-type tables, built on the
        #: first :meth:`walk_fastpath`.
        self._code_table: Optional[bytearray] = None
        self._start_types: Optional[List[Optional[str]]] = None

    def _init_body(
        self, data, flags: int, n_strings: int, n_pids: int,
        n_ros: int, n_sched: int, n_wakeup: int,
    ) -> None:
        """v1/v2 parse: one (possibly deflated) body, eager sections;
        v1 ROS columns are normalized to the v2 layout."""
        if flags & FLAG_ZLIB_BODY:
            try:
                body: bytes = zlib.decompress(data[HEADER.size:])
            except zlib.error as error:
                raise StoreFormatError(
                    f"{self._source}: corrupt zlib body "
                    f"(at file offset {HEADER.size}): {error}"
                ) from None
        else:
            body = memoryview(data)[HEADER.size:]
        self._body = body
        self.body_bytes = len(body)
        if flags & FLAG_ZLIB_BODY:
            self.bytes_inflated = len(body)
        section = "pid_map"
        offset = 0
        try:
            self.pid_map, offset = unpack_pid_map(body, 0, n_pids)
            section = "string table"
            self._strings, offset = unpack_strings(body, offset, n_strings)
            if self.version >= 2:
                section = "shape directory"
                shape_dir, offset = unpack_shape_dir(body, offset)
                section = "payload columns"
                offset = self._read_shapes(shape_dir, offset)
                ros_columns = ROS_COLUMNS_V2
            else:
                ros_columns = ROS_COLUMNS
            section = "ros columns"
            self._ros = self._read_section(ros_columns, n_ros, offset)
            offset += sum(_ITEMSIZE[c] for c in ros_columns) * n_ros
            section = "sched columns"
            self._sched = self._read_section(SCHED_COLUMNS, n_sched, offset)
            offset += sum(_ITEMSIZE[c] for c in SCHED_COLUMNS) * n_sched
            section = "wakeup columns"
            self._wakeup = self._read_section(WAKEUP_COLUMNS, n_wakeup, offset)
            offset += sum(_ITEMSIZE[c] for c in WAKEUP_COLUMNS) * n_wakeup
            if offset > len(body):
                raise StoreFormatError(
                    f"truncated segment body: need {offset} bytes, "
                    f"have {len(body)}"
                )
        except StoreFormatError as error:
            message = str(error)
            if not message.startswith(self._source):
                message = f"{self._source}: {message}"
            raise StoreFormatError(message) from None
        except IncompletePrefix as error:
            raise StoreFormatError(
                f"{self._source}: truncated segment "
                f"(in {section}, body offset {offset}): {error}"
            ) from None
        except (ValueError, TypeError, struct.error, IndexError) as error:
            # A cut anywhere (string table, column cast) surfaces as the
            # same clear diagnosis instead of a low-level parse error.
            raise StoreFormatError(
                f"{self._source}: corrupt or truncated segment "
                f"(in {section}, body offset {offset}): {error}"
            ) from None
        if self.version < 2:
            self._ros = _v1_ros_as_v2(self._ros)

    def _init_v3(
        self, data, n_strings: int, n_pids: int,
        n_ros: int, n_sched: int, n_wakeup: int,
    ) -> None:
        """v3 parse: section directory + small eager sections; event
        and payload columns stay lazy per-stream handles."""
        try:
            entries, body_start = unpack_section_dir(data, HEADER.size)
        except StoreFormatError as error:
            raise StoreFormatError(f"{self._source}: {error}") from None
        self._data = memoryview(data)
        self._body_start = body_start
        self._sections: Dict[Tuple[int, int], SectionEntry] = {
            (entry.kind, entry.index): entry for entry in entries
        }
        self._section_cache: Dict[Tuple[int, int], Sequence] = {}
        self.body_bytes = sum(entry.raw_len for entry in entries)
        end = body_start + max(
            (entry.offset + entry.comp_len for entry in entries), default=0
        )
        if end > len(data):
            raise StoreFormatError(
                f"{self._source}: truncated segment: section directory "
                f"addresses {end} bytes, file has {len(data)}"
            )
        section = "pid_map"
        try:
            raw = self._section_bytes(SECTION_PID_MAP, 0)
            self.pid_map, _ = unpack_pid_map(raw, 0, n_pids)
            section = "string table"
            raw = self._section_bytes(SECTION_STRINGS, 0)
            self._strings, _ = unpack_strings(raw, 0, n_strings)
            section = "shape directory"
            raw = self._section_bytes(SECTION_SHAPES, 0)
            shape_dir, _ = unpack_shape_dir(raw, 0)
        except StoreFormatError as error:
            message = str(error)
            if not message.startswith(self._source):
                message = f"{self._source}: {message}"
            raise StoreFormatError(message) from None
        except (IncompletePrefix, ValueError, TypeError, struct.error,
                IndexError) as error:
            raise StoreFormatError(
                f"{self._source}: corrupt or truncated segment "
                f"(in {section}): {error}"
            ) from None
        strings = self._strings
        payload_index = 0
        for fields, count in shape_dir:
            keys = tuple(strings[name_id] for name_id, _ in fields)
            types = tuple(ftype for _, ftype in fields)
            columns: List[Any] = []
            for ftype in types:
                if ftype == FIELD_NONE:
                    columns.append(None)
                else:
                    columns.append(self._payload_loader(
                        FIELD_TYPECODES[ftype], count, payload_index
                    ))
                    payload_index += 1
            self._shapes.append(_Shape(keys, types, count, columns, strings))
        self._ros = _LazyColumns(self, SECTION_ROS, ROS_COLUMNS_V2, n_ros)
        self._sched = _LazyColumns(self, SECTION_SCHED, SCHED_COLUMNS, n_sched)
        self._wakeup = _LazyColumns(
            self, SECTION_WAKEUP, WAKEUP_COLUMNS, n_wakeup
        )

    def _payload_loader(self, typecode: str, count: int, index: int):
        """A zero-argument handle materializing one payload column."""
        return lambda: self._section_column(
            typecode, count, SECTION_PAYLOAD, index
        )

    def _section_bytes(self, kind: int, index: int):
        """One v3 section's raw bytes (sliced, inflated if deflated,
        cached); parse failures surface as :class:`StoreFormatError`
        naming the file, the section and its offset."""
        key = (kind, index)
        cached = self._section_cache.get(key)
        if cached is not None:
            return cached
        entry = self._sections.get(key)
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
        self._section_cache[key] = raw
        if entry.comp == SECTION_COMP_ZLIB:
            self.bytes_inflated += entry.raw_len
        return raw

    def _section_column(
        self, typecode: str, count: int, kind: int, index: int
    ) -> Sequence:
        """One v3 column as a typed view over its section stream."""
        raw = self._section_bytes(kind, index)
        expected = _ITEMSIZE[typecode] * count
        if len(raw) != expected:
            entry = self._sections[(kind, index)]
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

    @classmethod
    def open(cls, path: str, use_mmap: bool = False) -> "SegmentReader":
        """Read (or, with ``use_mmap``, map) ``path`` into a reader.

        ``use_mmap`` avoids the up-front file read: section slices come
        straight from the page cache, which is the point of the store's
        uncompressed segment cache -- repeated synthesis over the same
        store re-reads only the pages it touches.
        """
        if use_mmap:
            import mmap as _mmap

            with open(path, "rb") as handle:
                mapped = _mmap.mmap(
                    handle.fileno(), 0, access=_mmap.ACCESS_READ
                )
            return cls(mapped, path=path)
        with open(path, "rb") as handle:
            return cls(handle.read(), path=path)

    def _read_section(
        self, typecodes: Sequence[str], count: int, offset: int
    ) -> List[Sequence[int]]:
        """Column views for one section (zero-copy casts on LE hosts)."""
        columns: List[Sequence[int]] = []
        view = memoryview(self._body)
        for code in typecodes:
            size = _ITEMSIZE[code] * count
            raw = view[offset:offset + size]
            if _BIG_ENDIAN:  # pragma: no cover - LE containers
                columns.append(column_from_bytes(code, bytes(raw)))
            else:
                columns.append(raw.cast(code))
            offset += size
        return columns

    def _read_shapes(self, shape_dir, offset: int) -> int:
        """Build the :class:`_Shape` views of a v2 segment; returns the
        offset past the payload columns."""
        strings = self._strings
        for fields, count in shape_dir:
            keys = tuple(strings[name_id] for name_id, _ in fields)
            types = tuple(ftype for _, ftype in fields)
            stored = [t for t in types if t != FIELD_NONE]
            views = iter(
                self._read_section(
                    [FIELD_TYPECODES[t] for t in stored], count, offset
                )
            )
            offset += sum(_ITEMSIZE[FIELD_TYPECODES[t]] for t in stored) * count
            columns: List[Optional[Sequence]] = [
                None if t == FIELD_NONE else next(views) for t in types
            ]
            self._shapes.append(_Shape(keys, types, count, columns, strings))
        return offset

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
            payload = _SCAN_PAYLOAD(self._strings[data_id], 0)[0]
            self._payload_cache[data_id] = payload
        return payload

    def _payload_at(self, sid: int, vidx: int) -> Dict[str, Any]:
        """One v2 row's payload from its (shape, vidx) coordinates."""
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
        for i in range(self.num_ros_events):
            if wanted is None or pid_col[i] in wanted:
                yield TraceEvent(
                    ts_col[i], pid_col[i], strings[probe_col[i]],
                    payload(shape_col[i], vidx_col[i]),
                )

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
        columns (v1 segments arrive normalized to this layout), the
        per-string-id code/CB-type tables, the :class:`_Shape` list
        (bulk typed-column payload rows, materialized lazily per shape)
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
        buckets.  On v3 segments only those three of the nine sched
        streams inflate."""
        return self._sched[0], self._sched[2], self._sched[6]

    def wakeup_pid_columns(self) -> Tuple[Sequence, Sequence]:
        """The ``(ts, pid)`` sched_wakeup columns -- no
        :class:`SchedWakeup` objects, and the only wakeup fields
        :class:`~repro.analysis.latency.LatencyIndex` consumes.  On v3
        segments the other three wakeup streams never inflate."""
        return self._wakeup[0], self._wakeup[2]

    def iter_sched(self) -> Iterator[SchedSwitch]:
        ts, cpu, prev_pid, prev_comm, prev_prio, prev_state, next_pid, next_comm, next_prio = self._sched
        strings = self._strings
        for i in range(self.num_sched_events):
            yield SchedSwitch(
                ts[i], cpu[i], prev_pid[i], strings[prev_comm[i]], prev_prio[i],
                strings[prev_state[i]], next_pid[i], strings[next_comm[i]],
                next_prio[i],
            )

    def iter_wakeups(self) -> Iterator[SchedWakeup]:
        ts, cpu, pid, comm, prio = self._wakeup
        strings = self._strings
        for i in range(self.num_wakeup_events):
            cpu_value = cpu[i]
            yield SchedWakeup(
                ts[i], None if cpu_value == NONE_CPU else cpu_value, pid[i],
                strings[comm[i]], prio[i],
            )

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


def _read_section_dir(
    handle, head: bytes, path: str
) -> Tuple[List[SectionEntry], int]:
    """The section directory of a v3 segment file whose ``head``er
    bytes were just read from ``handle``: ``(entries, body start)``,
    reading only the directory bytes."""
    prefix = handle.read(4)
    if len(prefix) < 4:
        raise StoreFormatError(
            f"{path}: truncated segment: section directory cut off"
        )
    (count,) = struct.unpack("<I", prefix)
    raw = head + prefix + handle.read(count * SECTION_ENTRY.size)
    try:
        return unpack_section_dir(raw, HEADER.size)
    except StoreFormatError as error:
        raise StoreFormatError(f"{path}: {error}") from None


def peek_sections(path: str) -> List[SectionEntry]:
    """The section directory of a v3 segment (header + directory bytes
    only -- no event stream is touched); empty for v1/v2 segments,
    whose body is one undifferentiated stream.  Feeds the per-section
    size breakdown of ``repro store-info --json``."""
    with open(path, "rb") as handle:
        head = handle.read(HEADER.size)
        version, *_ = unpack_header(head, source=path)
        if version < 3:
            return []
        entries, _ = _read_section_dir(handle, head, path)
        return entries


def read_pid_map(path: str) -> Dict[int, Optional[str]]:
    """The PID -> node-name map of a segment, from a file prefix.

    The pid_map section leads the body in every format version, so
    reading a run's node names decodes a few KB (one inflate window for
    compressed segments) instead of every event column.  v3 segments do even less: seek to the pid_map
    stream named by the section directory and inflate exactly that.
    """
    with open(path, "rb") as handle:
        head = handle.read(HEADER.size)
        version, flags, _, n_pids, _, _, _, _, _ = unpack_header(
            head, source=path
        )
        if version >= 3:
            entries, body_start = _read_section_dir(handle, head, path)
            entry = next(
                (e for e in entries if e.kind == SECTION_PID_MAP), None
            )
            if entry is None:
                raise StoreFormatError(
                    f"{path}: missing section pid_map "
                    "(absent from the section directory)"
                )
            handle.seek(body_start + entry.offset)
            raw_section = handle.read(entry.comp_len)
            if len(raw_section) != entry.comp_len:
                raise StoreFormatError(
                    f"{path}: truncated section pid_map (at file offset "
                    f"{body_start + entry.offset}): need {entry.comp_len} "
                    f"bytes, have {len(raw_section)}"
                )
            if entry.comp == SECTION_COMP_ZLIB:
                try:
                    raw_section = zlib.decompress(raw_section)
                except zlib.error as error:
                    raise StoreFormatError(
                        f"{path}: corrupt section pid_map (at file offset "
                        f"{body_start + entry.offset}): {error}"
                    ) from None
            try:
                pid_map, _ = unpack_pid_map(raw_section, 0, n_pids)
            except (IncompletePrefix, ValueError, struct.error) as error:
                raise StoreFormatError(
                    f"{path}: corrupt section pid_map: {error}"
                ) from None
            return pid_map
        inflater = zlib.decompressobj() if flags & FLAG_ZLIB_BODY else None
        buffer = b""
        while True:
            try:
                pid_map, _ = unpack_pid_map(buffer, 0, n_pids)
                return pid_map
            except IncompletePrefix:
                pass
            chunk = handle.read(1 << 16)
            if not chunk:
                raise StoreFormatError(f"truncated segment {path!r}: pid_map cut off")
            try:
                buffer += inflater.decompress(chunk) if inflater else chunk
            except zlib.error as error:
                raise StoreFormatError(
                    f"{path}: corrupt zlib body: {error}"
                ) from None


class _PayloadShape:
    """The single pseudo-shape of an :class:`InMemorySegment`: every
    row's already-decoded payload, indexed by row (``vidx``)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: List[Dict[str, Any]]):
        self._rows = rows

    def rows(self) -> List[Dict[str, Any]]:
        return self._rows


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
