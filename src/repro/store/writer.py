"""Writing binary trace segments: in-memory traces and spooled runs.

Two producers share the same encoder core (:class:`SegmentSpool`):

* :func:`write_segment` / :func:`encode_trace` pack an in-memory
  :class:`~repro.tracing.session.Trace` in one shot;
* a :class:`SegmentSpool` fed incrementally -- one
  :class:`~repro.tracing.session.TraceSegment` per buffer rotation --
  is the *spooling tracepoint sink*: events leave Python-object form at
  every rotation (their lists are dropped after packing), so a long
  simulation never holds more than one rotation window of event objects
  plus the compact columns.  :mod:`repro.store.record` drives this
  against live scenario runs.

Both go through one bulk encoder, a rotation (or a whole trace) at a
time.  The ROS rows are transposed into columns and grouped by payload
key set.  Each group's value types are checked a column at a time
against a *plan*: the shape accumulator, built once per spool for each
payload signature ``(keys, value types)``.  Then every field packs with
one ``array`` conversion.  Strings the table does not know yet (after
the first rotation, usually none) are interned in one pass, in the
order a row-at-a-time writer would meet them, so the bytes do not
depend on how the stream was cut into calls.  Every new column is
packed and checked before any spool column grows, so an append that
raises leaves the spool as it was.

The writer emits format v3 only (see :mod:`repro.store.format`).  v1
and v2 segments from older stores are transcoded to v3 when a reader
opens them, :func:`decompress_segment` writes that v3 transcoding as
the segment cache's copy, and ``TraceStore.convert_legacy(upgrade=True)``
rewrites them as v3 on disk.  Payloads
are schema-inferred during spooling: each payload dict whose values fit
the closed scalar schema is classified into a *shape* -- the ordered
``(key, type)`` tuple -- and its values append to that shape's typed
per-field columns (ints/floats/bools/interned strings; always-``None``
fields store nothing).  Rows that do not fit (nested containers, ints
outside int64, non-string keys) fall back to canonical JSON interned in
the string table.  The empty payload is the reserved shape ``NONE_ID``,
so the dominant payload-less sched events and bare probes stay cheap.
:meth:`SegmentSpool.finish` deflates every section independently
behind a section directory.
"""

from __future__ import annotations

import json
import os
from array import array
from itertools import chain, compress, count, filterfalse, repeat
from operator import is_, itemgetter, not_
from typing import IO, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.exec_time import ts_ordered
from ..sim.scheduler import SchedSwitch, SchedWakeup
from ..tracing.events import TraceEvent
from ..tracing.session import Trace, TraceSegment
from .format import (
    FIELD_BOOL,
    FIELD_FLOAT,
    FIELD_INT,
    FIELD_NONE,
    FIELD_STR,
    FIELD_TYPECODES,
    NONE_CPU,
    NONE_ID,
    ROS_COLUMNS_V2,
    SCHED_COLUMNS,
    SECTION_PAYLOAD,
    SECTION_PID_MAP,
    SECTION_ROS,
    SECTION_SCHED,
    SECTION_SHAPES,
    SECTION_STRINGS,
    SECTION_WAKEUP,
    SHAPE_JSON,
    WAKEUP_COLUMNS,
    column_bytes,
    pack_header,
    pack_pid_map,
    pack_sections,
    pack_shape_dir,
    pack_strings,
)
from .reader import transcode

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Plan of the payloads that take the JSON fallback; every other
#: non-empty payload's plan is a :class:`_ShapeAcc`.
_JSON = object()


def _encode_payload(data: Mapping[str, Any]) -> str:
    """Canonical compact JSON for a ``TraceEvent.data`` mapping."""
    return json.dumps(dict(data), separators=(",", ":"), ensure_ascii=False)


def _json_texts(probes: Sequence[str], datas: Sequence[Mapping], rows: List[int]) -> List[str]:
    """Canonical JSON of the fallback payloads ``datas[rows]``.

    A value JSON cannot encode either (``np.int64``, an arbitrary
    object) raises ``ValueError`` naming the row's probe, the key and the
    value type.
    """
    try:
        return list(map(_encode_payload, map(datas.__getitem__, rows)))
    except (TypeError, ValueError) as exc:
        for row in rows:
            for key, value in datas[row].items():
                try:
                    _encode_payload({key: value})
                except (TypeError, ValueError):
                    raise ValueError(
                        f"cannot spool the payload of probe {probes[row]!r}: "
                        f"key {key!r} holds a {type(value).__name__} value, "
                        "which neither the typed columns nor JSON encode"
                    ) from exc
        raise


def _group_rows(datas: Sequence[Mapping]) -> Dict[tuple, List[int]]:
    """Rows of the non-empty payloads per key tuple; key tuples and
    rows in first-seen order."""
    groups: Dict[tuple, List[int]] = {}
    for row in compress(range(len(datas)), datas):
        keys = tuple(datas[row])
        rows = groups.get(keys)
        if rows is None:
            rows = groups[keys] = []
        rows.append(row)
    return groups


def _field_type(value_type: type) -> Optional[int]:
    """Field type of payload values of ``value_type``, or ``None`` when
    they do not fit the closed schema (-> the row falls back to JSON).

    The schema's ``isinstance`` rules, decided once per type: ``bool``
    before ``int``, and subclasses (``IntEnum``, ``np.float64``) keep
    their base's field.  Whether an int fits int64 is a per-value check
    (:meth:`_ShapeAcc.stage`).
    """
    if value_type is type(None):
        return FIELD_NONE
    for base, ftype in (
        (bool, FIELD_BOOL), (int, FIELD_INT), (str, FIELD_STR), (float, FIELD_FLOAT),
    ):
        if issubclass(value_type, base):
            return ftype
    return None


class StringTable:
    """Interning writer-side string table (id = first-seen order)."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def intern(self, text: str) -> int:
        table_id = self._ids.get(text)
        if table_id is None:
            table_id = self._ids[text] = len(self.strings)
            self.strings.append(text)
        return table_id

    def knows(self, *columns: Iterable[str]) -> bool:
        """Whether every string of ``columns`` is interned already."""
        return self._ids.keys() >= set().union(*columns)

    def intern_all(self, texts: Iterable[str]) -> None:
        """Intern ``texts`` in order -- the ids one :meth:`intern` call
        per string would assign -- adding only the strings not yet known."""
        new = list(filterfalse(self._ids.__contains__, dict.fromkeys(texts)))
        self._ids.update(zip(new, count(len(self.strings))))
        self.strings.extend(new)

    def ids(self, texts: Sequence[str]) -> array:
        """The ids of interned ``texts``, as a u32 column."""
        if len(texts) < 2:  # itemgetter of one key returns it bare
            return array("I", map(self._ids.__getitem__, texts))
        return array("I", itemgetter(*texts)(self._ids))

    def __len__(self) -> int:
        return len(self.strings)


class _ShapeAcc:
    """Writer-side plan and accumulator for one payload shape.

    Built once per spool, the first time a payload signature maps to
    this shape; every signature of the same shape shares it.  ``index``
    stays -1 until a spooled row registers the shape, so shape ids
    follow first-seen row order.
    """

    __slots__ = ("index", "fields", "columns", "count", "str_fields")

    def __init__(self, fields: Tuple[Tuple[str, int], ...]):
        self.index = -1
        self.fields = fields
        #: one array per field; ``None`` for FIELD_NONE fields.
        self.columns: Tuple[Optional[array], ...] = tuple([
            array(FIELD_TYPECODES[ftype]) if ftype != FIELD_NONE else None
            for _, ftype in fields
        ])
        self.count = 0
        #: positions of the FIELD_STR fields (interned in field order).
        self.str_fields = tuple([
            position for position, (_, ftype) in enumerate(fields)
            if ftype == FIELD_STR
        ])

    def stage(self, rows: List[int], values: List[tuple]):
        """Pack one group of this shape's payloads column by column.

        ``values`` holds the group's field values, one tuple per field.
        Returns ``(rows, staged, dropped)``: ``staged`` holds one entry
        per field (a packed array, or the raw values of string and
        ``None`` fields), ``dropped`` the rows whose ints overflow int64
        -- those fall back to JSON whole, and ``rows`` keeps the rest.
        """
        try:
            staged = [
                column if ftype in (FIELD_STR, FIELD_NONE)
                else array(FIELD_TYPECODES[ftype], column)
                for (_, ftype), column in zip(self.fields, values)
            ]
        except OverflowError:
            ints = [
                column for (_, ftype), column in zip(self.fields, values)
                if ftype == FIELD_INT
            ]
            fits = [
                all(_INT64_MIN <= value <= _INT64_MAX for value in row)
                for row in zip(*ints)
            ]
            kept, staged, _ = self.stage(
                list(compress(rows, fits)),
                [tuple(compress(column, fits)) for column in values],
            )
            return kept, staged, list(compress(rows, map(not_, fits)))
        return rows, staged, []


class SegmentSpool:
    """Columnar accumulator for one run's trace.

    Append events a rotation at a time (:meth:`add_segment`,
    :meth:`add_trace`, or one stream through :meth:`add_ros`,
    :meth:`add_sched`, :meth:`add_wakeups`), then :meth:`finish` to emit
    the packed bytes.  Between appends the spool holds only
    native-typed arrays and the string table -- no event objects --
    which is what bounds memory for streamed collection.  Each append
    packs every new column before any column grows, so one that raises
    leaves the spool as it was.
    """

    def __init__(self) -> None:
        self.strings = StringTable()
        self._ros = tuple(array(code) for code in ROS_COLUMNS_V2)
        self._sched = tuple(array(code) for code in SCHED_COLUMNS)
        self._wakeup = tuple(array(code) for code in WAKEUP_COLUMNS)
        #: payload signature ``(keys, value types)`` -> plan (``_JSON``
        #: or a shape accumulator).
        self._plans: Dict[Tuple[tuple, tuple], Any] = {}
        #: shape key (ordered (key, type) tuple) -> accumulator, whether
        #: registered or not.
        self._accs: Dict[Tuple[Tuple[str, int], ...], _ShapeAcc] = {}
        #: the registered shapes, in first-seen order (the shape-id
        #: order of the directory).
        self._shapes: Dict[Tuple[Tuple[str, int], ...], _ShapeAcc] = {}

    # -- appending --------------------------------------------------------

    def _plan(self, signature: Tuple[tuple, tuple]) -> Any:
        """The plan of one non-empty payload signature ``(keys, value
        types)``, built once per spool: ``_JSON`` when the payload does
        not fit the closed schema (a non-``str`` key or an unsupported
        value type), else its shape's accumulator."""
        plan = self._plans.get(signature)
        if plan is not None:
            return plan
        keys, types = signature
        ftypes = tuple(map(_field_type, types))
        if not all(map(isinstance, keys, repeat(str))) or None in ftypes:
            plan = _JSON
        else:
            fields = tuple(zip(keys, ftypes))
            plan = self._accs.get(fields)
            if plan is None:
                plan = self._accs[fields] = _ShapeAcc(fields)
        self._plans[signature] = plan
        return plan

    def _planned_groups(self, keys: tuple, rows: List[int], values: List[tuple]):
        """Split the rows of one key set by plan: ``(plan, rows, values)``
        per plan, rows ascending.  Value types are checked a column at a
        time; only a key set whose types vary across rows is split row
        by row."""
        column_types = list(map(set, map(map, repeat(type), values)))
        if sum(map(len, column_types)) == len(column_types):  # one type each
            types = tuple(map(set.pop, column_types))
            return [(self._plan((keys, types)), rows, values)]
        row_types = list(zip(*[list(map(type, column)) for column in values]))
        plans = {
            types: self._plan((keys, types)) for types in dict.fromkeys(row_types)
        }
        row_plans = list(map(plans.__getitem__, row_types))
        groups = []
        for plan in dict.fromkeys(row_plans):
            mask = list(map(is_, row_plans, repeat(plan)))
            groups.append((
                plan,
                list(compress(rows, mask)),
                [tuple(compress(column, mask)) for column in values],
            ))
        return groups

    def add_ros(self, events: Iterable[TraceEvent]) -> None:
        """Spool ROS events in bulk.

        Rows group by payload key set, each group's values transpose
        into one tuple per field, and each field packs into one array.
        Strings intern in the order a row-at-a-time writer meets them
        -- the probe, then the row's string values in field order (or
        its JSON) -- so segments do not depend on how the stream was cut
        into calls.
        """
        columns = tuple(zip(*events))
        if not columns:
            return
        ts, pids, probes, datas = columns
        n = len(ts)
        ts_column = array("q", ts)
        pid_column = array("i", pids)

        typed = []  # (shape accumulator, rows, staged field columns)
        json_rows: List[int] = []
        for keys, rows in _group_rows(datas).items():
            payloads = list(map(datas.__getitem__, rows))
            values = [tuple(map(itemgetter(key), payloads)) for key in keys]
            for plan, plan_rows, plan_values in self._planned_groups(keys, rows, values):
                if plan is _JSON:
                    json_rows += plan_rows
                    continue
                plan_rows, staged, dropped = plan.stage(plan_rows, plan_values)
                json_rows += dropped
                if plan_rows:
                    typed.append((plan, plan_rows, staged))
        json_rows.sort()
        texts = _json_texts(probes, datas, json_rows)

        # Everything is packed and valid; from here on the spool grows.
        table = self.strings
        payload_strings = [
            staged[field] for acc, _, staged in typed for field in acc.str_fields
        ]
        if not table.knows(probes, texts, *payload_strings):
            row_strings = list(zip(probes))
            for acc, rows, staged in typed:
                if acc.str_fields:
                    strings = zip(*[staged[field] for field in acc.str_fields])
                    for row, row_values in zip(rows, strings):
                        row_strings[row] += row_values
            for row, text in zip(json_rows, texts):
                row_strings[row] += (text,)
            table.intern_all(chain.from_iterable(row_strings))

        typed.sort(key=itemgetter(1))  # by first row: shape ids in row order
        shapes = [NONE_ID] * n  # an empty payload is shape NONE_ID, vidx 0
        vidx = [0] * n
        for acc, rows, staged in typed:
            if acc.index < 0:
                acc.index = len(self._shapes)
                self._shapes[acc.fields] = acc
            shape = acc.index
            for row, index in zip(rows, range(acc.count, acc.count + len(rows))):
                shapes[row] = shape
                vidx[row] = index
            acc.count += len(rows)
            for (_, ftype), column, values in zip(acc.fields, acc.columns, staged):
                if column is not None:
                    column.extend(table.ids(values) if ftype == FIELD_STR else values)
        for row, text_id in zip(json_rows, table.ids(texts)):
            shapes[row] = SHAPE_JSON
            vidx[row] = text_id
        for column, values in zip(
            self._ros,
            (ts_column, pid_column, table.ids(probes),
             array("I", shapes), array("I", vidx)),
        ):
            column.extend(values)

    def _add_records(
        self, section: Tuple[array, ...], columns: tuple, string_fields: Tuple[int, ...]
    ) -> None:
        """Append record columns to ``section``: each is packed before
        any grows, and strings intern row by row in field order."""
        if not columns:
            return
        packed = [
            None if field in string_fields else array(column.typecode, values)
            for field, (column, values) in enumerate(zip(section, columns))
        ]
        strings = [columns[field] for field in string_fields]
        table = self.strings
        if not table.knows(*strings):
            table.intern_all(chain.from_iterable(zip(*strings)))
        for field, values in zip(string_fields, strings):
            packed[field] = table.ids(values)
        for column, values in zip(section, packed):
            column.extend(values)

    def add_sched(self, events: Iterable[SchedSwitch]) -> None:
        """Spool ``sched_switch`` records in bulk."""
        self._add_records(self._sched, tuple(zip(*events)), (3, 5, 7))

    def add_wakeups(self, events: Iterable[SchedWakeup]) -> None:
        """Spool ``sched_wakeup`` records in bulk (``cpu=None`` is
        stored as ``NONE_CPU``)."""
        columns = tuple(zip(*events))
        if columns:
            ts, cpus, pids, comms, prios = columns
            cpus = [NONE_CPU if cpu is None else cpu for cpu in cpus]
            self._add_records(self._wakeup, (ts, cpus, pids, comms, prios), (3,))

    def add_segment(self, segment: TraceSegment) -> None:
        """Spool one buffer rotation (the streaming entry point)."""
        self.add_ros(segment.ros_events)
        self.add_sched(segment.sched_events)
        self.add_wakeups(segment.wakeup_events)

    def add_trace(self, trace: Trace) -> None:
        """Spool a whole in-memory trace, each stream in stable
        timestamp order (``Trace.sort``'s order; the trace itself is not
        mutated): readers reject a segment whose ts columns are out of
        order."""
        self.add_ros(ts_ordered(trace.ros_events)[0])
        self.add_sched(ts_ordered(trace.sched_events)[0])
        self.add_wakeups(ts_ordered(trace.wakeup_events)[0])

    @property
    def num_ros(self) -> int:
        return len(self._ros[0])

    @property
    def num_sched(self) -> int:
        return len(self._sched[0])

    @property
    def num_wakeups(self) -> int:
        return len(self._wakeup[0])

    # -- finishing --------------------------------------------------------

    def _section_blobs(self, pid_map: Mapping[int, Optional[str]]):
        """The v3 sections in file order: ``(kind, index, raw bytes)``."""
        intern = self.strings.intern
        shapes = sorted(self._shapes.values(), key=lambda acc: acc.index)
        directory = [
            ([(intern(key), ftype) for key, ftype in acc.fields], acc.count)
            for acc in shapes
        ]
        # Interning the field names may grow the string table, so the
        # strings blob is packed only after the shape directory exists.
        blobs: List[Tuple[int, int, bytes]] = [
            (SECTION_PID_MAP, 0, pack_pid_map(pid_map)),
            (SECTION_STRINGS, 0, pack_strings(self.strings.strings)),
            (SECTION_SHAPES, 0, pack_shape_dir(directory)),
        ]
        payload_index = 0
        for acc in shapes:
            for column in acc.columns:
                if column is not None:
                    blobs.append(
                        (SECTION_PAYLOAD, payload_index, column_bytes(column))
                    )
                    payload_index += 1
        for kind, section in (
            (SECTION_ROS, self._ros),
            (SECTION_SCHED, self._sched),
            (SECTION_WAKEUP, self._wakeup),
        ):
            for column_index, column in enumerate(section):
                blobs.append((kind, column_index, column_bytes(column)))
        return blobs

    def finish(
        self,
        handle: IO[bytes],
        pid_map: Mapping[int, Optional[str]],
        start_ts: int,
        stop_ts: int,
        compress: bool = True,
    ) -> int:
        """Write the packed segment to ``handle``; returns bytes written.

        Header, section directory, then one stream per section (see
        :func:`~repro.store.format.pack_sections`).  ``compress``
        (default) deflates each section independently, so readers
        inflate only what they touch; ``False`` keeps every section raw
        for zero-copy readers.
        """
        # The blobs first: interning the shape field names may grow the
        # string table the header counts.
        blobs = self._section_blobs(pid_map)
        header = pack_header(
            len(self.strings),
            len(pid_map),
            len(self._ros[0]),
            len(self._sched[0]),
            len(self._wakeup[0]),
            start_ts,
            stop_ts,
        )
        return sum(map(handle.write, pack_sections(header, blobs, compress)))

    def finish_path(
        self,
        path: str,
        pid_map: Mapping[int, Optional[str]],
        start_ts: int,
        stop_ts: int,
        compress: bool = True,
    ) -> int:
        """Write the packed segment at ``path`` via a same-directory
        staging file + atomic rename, so a crashed or killed writer can
        never leave a truncated segment at the final name -- concurrent
        store readers (``TraceStore(strict=True)``, the live ingest
        service) see either the complete file or nothing."""
        staging = f"{path}.{os.getpid()}.tmp"
        try:
            with open(staging, "wb") as handle:
                written = self.finish(
                    handle, pid_map, start_ts, stop_ts, compress=compress
                )
            os.replace(staging, path)
        finally:
            if os.path.exists(staging):
                try:
                    os.remove(staging)
                except OSError:  # pragma: no cover - cleanup best effort
                    pass
        return written


def write_segment(trace: Trace, path: str, compress: bool = True) -> int:
    """Pack one in-memory trace into ``path``; returns bytes written."""
    spool = SegmentSpool()
    spool.add_trace(trace)
    return spool.finish_path(
        path, trace.pid_map, trace.start_ts, trace.stop_ts, compress=compress
    )


def encode_trace(trace: Trace, compress: bool = True) -> bytes:
    """The segment bytes for one trace (in-memory variant)."""
    import io

    spool = SegmentSpool()
    spool.add_trace(trace)
    buffer = io.BytesIO()
    spool.finish(
        buffer, trace.pid_map, trace.start_ts, trace.stop_ts, compress=compress
    )
    return buffer.getvalue()


def decompress_segment(src: str, dst: str) -> int:
    """Rewrite segment ``src`` as an uncompressed v3 copy at ``dst``;
    returns bytes written.

    The copy is :func:`~repro.store.reader.transcode`'s output:
    value-preserving by construction (v3 sections are the inflated
    originals, v1/v2 bodies are cut into the same sections, never
    re-encoded), so a reader over the copy sees the exact columns of
    the source.  This is the materialization step of the store's
    mmap-backed segment cache: an uncompressed segment's columns are
    zero-copy ``memoryview`` casts, so repeated synthesis over the same
    store reads straight from the page cache, and every cache entry
    parses as v3 whatever the source's version.
    """
    with open(src, "rb") as handle:
        payload, _ = transcode(handle.read(), src)
    # Per-process staging name: processes opening one cached store may
    # race to materialize the same cache entry, and the atomic replace
    # makes the last finisher win with a complete file either way.
    staging = f"{dst}.{os.getpid()}.tmp"
    with open(staging, "wb") as handle:
        written = handle.write(payload)
    os.replace(staging, dst)
    return written


def spool_session_segment(spool: SegmentSpool, session) -> TraceSegment:
    """Rotate ``session`` and spool the drained segment out-of-core.

    The rotated segment is packed into ``spool`` and *removed* from the
    session's segment list, dropping the event objects -- the step that
    keeps a streamed recording's footprint bounded by one rotation
    window.  Returns the (already spooled) segment for inspection.
    """
    segment = session.rotate()
    spool.add_segment(segment)
    # The session accumulates rotated segments for Trace assembly; a
    # spooled run never calls session.trace(), so release them.
    if session.segments and session.segments[-1] is segment:
        session.segments.pop()
    segment.ros_events = []
    segment.sched_events = []
    segment.wakeup_events = []
    return segment


def segment_path(directory: str, run_id: str) -> str:
    from .format import SEGMENT_SUFFIX

    return os.path.join(directory, f"{run_id}{SEGMENT_SUFFIX}")
