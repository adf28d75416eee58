"""The trace index: Alg. 1 walk columns and cross-node tables, built
from reader columns.

:class:`StoreTraceIndex` is the one trace index.  Stored segments
(:class:`~repro.store.reader.SegmentReader`) and loaded traces
(:class:`~repro.store.reader.InMemorySegment` -- the in-memory
pipeline's input) hand it the same ``walk_fastpath`` column
tuple, and it builds per-PID walk columns, the cross-node association
tables (positional: keyed by a row's position in the merged stream)
and columnar :class:`~repro.core.exec_time.SchedIndex` buckets without
constructing a :class:`~repro.tracing.events.TraceEvent`.

A build has one path, whatever the runs' clocks:

* :func:`_resolve` turns each run's columns into whole-column arrays:
  probe codes through one numpy gather over a per-reader table keyed
  by the probe-string id, and an aux column holding the CB-type label
  of CB starts and, for the ID-carrying rows Alg. 1 dereferences
  (publish / take / response keys), the payload's *field tuple*
  ``(cb_id, topic, src_ts, kind, will_dispatch)``
  (:data:`~repro.core.index.PAYLOAD_FIELDS`, ``None`` where a key is
  absent), read by position everywhere downstream.  The tuples come
  in bulk per payload shape, zipped straight from the shape's field
  columns -- no payload dict is built -- so CB start/end and kernel
  probe rows, the bulk of a trace, are never decoded, and only
  JSON-fallback rows (all rows of a v1 segment) see the JSON scanner.
  A garbled column -- an id past its table, a truncated column, a ts
  column out of order or too wide for Alg. 2 -- raises
  :class:`~repro.store.format.StoreFormatError` naming the segment's
  file;
* :func:`_merged_columns` makes the runs' resolved columns one
  chronological stream: concatenated in run order and reordered by one
  stable sort on ts, so ties keep ``(run, row)`` order exactly like
  ``Trace.merge`` (time-ordered runs come out concatenated);
* :meth:`StoreTraceIndex._consume` cuts that stream's walk columns per
  PID in bulk and runs the association state machine over the rows
  the tables read.  Each run's ``sched_switch`` rows feed
  :func:`~repro.core.exec_time.sched_buckets` from three int columns
  -- only for the ``wanted_pids`` a ``--pids`` synthesis will query --
  and fold into the kept buckets: appended when they start at or after
  the tail, else stably 2-way merged, a left fold that equals the n-way
  merge (ties prefer the earlier run).

One build serves the in-memory pipeline, batch synthesis, the
``merge_dags`` per-run builds and the live service's per-run
fragments.  An index is immutable once built: the service never grows
or shrinks one, it builds one per arriving run
(:mod:`repro.service.live`).

Equivalence with the frozen pre-index pipeline in :mod:`repro._legacy`
is byte-exact and pinned by ``tests/test_perf_equivalence.py`` and the
store suites: every ordering is a stable chronological merge, per-PID
walk columns carry the values the event objects would, and bucket
contents match because a PID's bucket in the merged stream equals the
stable ts-merge of its per-run buckets.
"""

from __future__ import annotations

from array import array
from heapq import merge as _heap_merge
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.exec_time import SchedIndex, distinct, sched_buckets
from ..core.index import (
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE_RESPONSE,
    CODE_TAKE_TYPE_ERASED,
    CODE_TIMER_CALL,
    F_CB_ID,
    F_KIND,
    F_SRC_TS,
    F_TOPIC,
    F_WILL_DISPATCH,
    NO_FIELDS,
    TopicKey,
    payload_fields,
    probe_code_lut,
)
from .format import SHAPE_JSON, StoreFormatError

#: One PID's walk columns: timestamps, probe codes, and the per-row aux
#: slot (CB-type label / payload field tuple / None) -- parallel sequences
#: consumed by :func:`~repro.core.extraction._extract_pid_walk`.
WalkColumns = Tuple[List[int], bytearray, List[Any]]

_EMPTY_WALK: WalkColumns = ([], bytearray(), [])

#: Alg. 2 lays every queried sched bucket out on one int64 key axis of
#: this width (:func:`~repro.core.exec_time._window_bounds`).
_TS_AXIS = 2**61


def _spans_are_ordered(spans: Iterable[Optional[Tuple[int, int]]]) -> bool:
    """True when the ``(first, last)`` ts spans (None for an empty
    stream) are disjoint in the given order, i.e. chronological merge ==
    concatenation.  A shared boundary timestamp stays ordered: merge
    ties keep run order, which is concatenation order."""
    last: Optional[int] = None
    for span in spans:
        if span is None:
            continue
        if last is not None and span[0] < last:
            return False
        last = span[1]
    return True


def _runs_are_time_ordered(readers: Sequence[Any]) -> bool:
    """:func:`_spans_are_ordered` over the runs' ROS streams."""
    return _spans_are_ordered(reader.ros_ts_range() for reader in readers)


def _check_ts(ts: np.ndarray, stream: str, buckets: int = 1) -> None:
    """ValueError unless the ``stream`` ts column is nondecreasing and
    ``buckets`` spans of it fit Alg. 2's key axis -- what the walk's
    windows (end at or after start) and
    :meth:`~repro.core.exec_time.SchedIndex.exec_times` rely on."""
    if not len(ts):
        return
    late = np.flatnonzero(ts[1:] < ts[:-1])
    if len(late):
        row = int(late[0]) + 1
        raise ValueError(
            f"{stream} ts column out of order at row {row}: "
            f"{int(ts[row])} after {int(ts[row - 1])}"
        )
    first, last = int(ts[0]), int(ts[-1])
    if not (
        -_TS_AXIS < first and last < _TS_AXIS
        and buckets * (last - first + 3) < _TS_AXIS
    ):
        raise ValueError(
            f"{stream} timestamps [{first}, {last}] span more than "
            "2**61 ns"
        )


def _resolve(
    reader: Any,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A reader's :meth:`~repro.store.reader.SegmentReader.walk_fastpath`
    columns as whole-column arrays: ``(ts, pid, code, aux)``.

    The per-string-id code table becomes a ``uint8`` lookup array and
    one gather yields every row's probe code.  The per-row aux slot
    (``None``-initialized object array) holds the payload's field tuple
    (:data:`~repro.core.index.PAYLOAD_FIELDS`) for the ID-carrying
    codes -- projected in bulk, one ``zip`` per referenced payload
    shape, with JSON-fallback and loaded-trace rows through
    :func:`~repro.core.index.payload_fields` -- and the CB-type label
    for CB starts; every other row's payload is never touched.

    A garbled column (an id past its table, a truncated column, a ts
    column out of order or wider than Alg. 2's axis) raises
    :class:`~repro.store.format.StoreFormatError` naming the reader's
    file."""
    try:
        return _resolve_columns(reader.walk_fastpath())
    except StoreFormatError:
        raise
    except (IndexError, ValueError) as error:
        raise _corrupt(reader, error) from None


def _corrupt(reader: Any, error: Exception) -> StoreFormatError:
    return StoreFormatError(
        f"{reader.path or '<segment>'}: corrupt segment: {error}"
    )


def _resolve_columns(
    columns: Tuple,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_resolve` over the ``walk_fastpath`` column tuple."""
    (
        ts_col, pid_col, probe_col, shape_col, vidx_col,
        codes, start_types, shapes, json_payload,
    ) = columns
    ts_np = np.frombuffer(ts_col, dtype=np.int64)
    _check_ts(ts_np, "ROS")
    probe_np = np.frombuffer(probe_col, dtype=np.uint32)
    row_codes = probe_code_lut(codes)[probe_np]
    aux_row = np.empty(len(probe_np), dtype=object)

    def assign(rows: np.ndarray, values: Iterable) -> None:
        # fromiter builds the object column without numpy peering into
        # the tuple/str values.
        aux_row[rows] = np.fromiter(values, dtype=object, count=len(rows))

    id_rows = np.nonzero(
        (row_codes >= CODE_TIMER_CALL) & (row_codes <= CODE_TAKE_TYPE_ERASED)
    )[0]
    if len(id_rows):
        sid_np = np.frombuffer(shape_col, dtype=np.uint32)[id_rows]
        vidx_np = np.frombuffer(vidx_col, dtype=np.uint32)[id_rows]
        for sid in distinct(sid_np):
            sel = sid_np == sid
            vidxs = vidx_np[sel].tolist()
            if sid < len(shapes):
                values = shapes[sid].project(vidxs)
            elif sid == SHAPE_JSON:
                values = payload_fields(map(json_payload, vidxs))
            else:  # NONE_ID: ID-carrying probes without payload
                values = repeat(NO_FIELDS, len(vidxs))
            assign(id_rows[sel], values)
    cb_rows = np.nonzero(row_codes == CODE_CB_START)[0]
    assign(cb_rows, map(start_types.__getitem__, probe_np[cb_rows].tolist()))
    return (
        ts_np,
        np.frombuffer(pid_col, dtype=np.int32),
        row_codes,
        aux_row,
    )


def _sched_columns(
    reader: Any, pids: Optional[Sequence[int]] = None
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], Sequence[int]]:
    """A reader's ``(ts, prev_pid, next_pid)`` sched columns and the
    PIDs they name (sorted, 0 included), the columns checked as
    :func:`_check_ts` does for the per-PID buckets Alg. 2 will lay out
    (one per PID); a garbled column raises
    :class:`~repro.store.format.StoreFormatError` naming the file.
    ``pids``, when given, are the PIDs a :func:`resolve_run` of the
    reader found, checking the columns: neither is done again."""
    try:
        ts_col, prev_col, next_col = reader.sched_pid_columns()
        ts_np = np.frombuffer(ts_col, dtype=np.int64)
        prev_np = np.frombuffer(prev_col, dtype=np.int32)
        next_np = np.frombuffer(next_col, dtype=np.int32)
        if pids is None:
            pids = distinct(np.concatenate((prev_np, next_np)))
            _check_ts(ts_np, "sched", len(pids))
    except StoreFormatError:
        raise
    except (IndexError, ValueError) as error:
        raise _corrupt(reader, error) from None
    return (ts_np, prev_np, next_np), pids


class ResolvedRun(NamedTuple):
    """One run's reader with its ROS columns resolved (see
    :func:`_resolve`) -- the input of the run's
    :class:`StoreTraceIndex` and of its
    :class:`~repro.analysis.latency.LatencyIndex` fragment alike."""

    reader: Any
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    #: the PIDs the run's sched columns name, sorted (0 included); None
    #: when only the ROS columns were resolved.
    sched_pids: Optional[Tuple[int, ...]] = None

    @property
    def events(self) -> int:
        """The run's ROS, sched and wakeup event count."""
        reader = self.reader
        return (
            reader.num_ros_events + reader.num_sched_events
            + reader.num_wakeup_events
        )


def resolve_run(reader: Any) -> ResolvedRun:
    """Decode every section an index build over the run reads -- the
    resolved ROS columns with the payload rows they reference
    (:func:`_resolve`), the checked sched columns and the PIDs they
    name (:func:`_sched_columns`), and the wakeup PID columns -- so a
    corrupt segment fails here, before an index or a service changes
    any state.  The reader caches what it inflated, so later reads of
    those sections inflate nothing.

    Raises :class:`~repro.store.format.StoreFormatError` for a corrupt
    section, including an uncompressed one whose ids point outside
    their tables or whose ts columns are out of order."""
    columns = _resolve(reader)
    _, sched_pids = _sched_columns(reader)
    try:
        reader.wakeup_pid_columns()
    except StoreFormatError:
        raise
    except (IndexError, ValueError) as error:
        raise _corrupt(reader, error) from None
    return ResolvedRun(reader, columns, tuple(sched_pids))


def _merged_columns(
    readers: Sequence[Any], columns: Optional[Sequence[Tuple]] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The runs' resolved columns (see :func:`_resolve`; a reader's
    entry of ``columns`` when the caller has it) as one chronological
    stream: concatenated in run order and reordered by one stable sort
    on ts, so ties keep ``(run, row)`` order exactly like
    ``Trace.merge``.  One run's columns, and time-ordered runs' columns
    concatenated, are that stream already (:func:`_resolve` checks each
    run's order), so the sort, the identity there, is skipped."""
    columns = [
        _resolve(reader) if resolved is None else resolved
        for reader, resolved in zip(
            readers, repeat(None) if columns is None else columns
        )
    ]
    if len(columns) == 1:
        return columns[0]
    ts_np, pid_np, row_codes, aux_row = (
        np.concatenate(column) for column in zip(*columns)
    )
    if not (ts_np[1:] < ts_np[:-1]).any():
        return ts_np, pid_np, row_codes, aux_row  # time-ordered runs
    order = np.argsort(ts_np, kind="stable")
    return ts_np[order], pid_np[order], row_codes[order], aux_row[order]


class StoreTraceIndex:
    """Alg. 1 lookup structures built from stored segment columns.

    Parameters
    ----------
    readers:
        Segment readers in run-id order (the merge order), from
        :meth:`~repro.store.database.TraceStore.readers`.
    wanted_pids:
        PIDs whose walk columns and sched buckets to build (a
        ``--pids`` subset); the cross-node tables always cover the full
        stream -- FindCaller/FindClient reach across nodes by design.
        ``None`` builds every PID.
    resolved:
        Each reader's :func:`resolve_run`, when the caller has it
        already: its columns are indexed and its sched PIDs are not
        found again.  ``None`` resolves the readers here.

    :class:`~repro.core.extraction.EventIndex` reads the cross-node
    tables (``writes`` / ``writer_cb`` / ``take_responses`` /
    ``dispatch_after``); their entries pair a stream position with the
    row's payload field tuple.
    """

    __slots__ = (
        "pid_map",
        "sched",
        "_by_pid",
        "writes",
        "writer_cb",
        "take_responses",
        "dispatch_after",
    )

    def __init__(
        self,
        readers: Sequence[Any],
        wanted_pids: Optional[Iterable[int]] = None,
        resolved: Optional[Sequence[ResolvedRun]] = None,
    ):
        wanted = None if wanted_pids is None else frozenset(wanted_pids)
        self.pid_map: Dict[int, Optional[str]] = {}
        self._by_pid: Dict[int, WalkColumns] = {}
        #: (topic, src_ts) -> [(position, payload fields)] of the
        #: service *request* writes, FIFO order: FindCaller's table.
        self.writes: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        #: dds_write position -> CB id active in the writer at write time.
        self.writer_cb: Dict[int, Optional[str]] = {}
        #: (topic, src_ts) -> [(position, payload fields)] of
        #: take_response rows.
        self.take_responses: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        #: take_response position -> will_dispatch of the next P14 in
        #: the same PID (absent when no P14 follows).
        self.dispatch_after: Dict[int, bool] = {}
        runs = resolved or [ResolvedRun(reader, None) for reader in readers]
        if readers:
            columns = [run.columns for run in runs]
            self._consume(*_merged_columns(readers, columns), wanted)
        buckets: Dict[int, Tuple[array, bytearray]] = {}
        for reader, run in zip(readers, runs):
            self.pid_map.update(reader.pid_map)
            _fold_sched(buckets, *_sched_columns(reader, run.sched_pids), wanted)
        self.sched = SchedIndex.from_buckets(buckets)

    # -- ROS stream: walk columns + cross-node tables ----------------------

    def _consume(
        self,
        ts_np: np.ndarray,
        pid_np: np.ndarray,
        row_codes: np.ndarray,
        aux_row: np.ndarray,
        wanted: Optional[frozenset],
    ) -> None:
        """Walk columns and association tables from the chronological
        stream of resolved columns (see :func:`_resolve`).

        Walk rows (``code != 0`` -- code-0 rows are no-ops to the Alg. 1
        walk and are dropped) are grouped per PID by one stable sort and
        extracted in bulk with ``.tolist()`` / ``.tobytes()`` (Python
        ints, so downstream byte-identity is untouched), then sliced per
        PID.  The association loop then visits only the rows the
        cross-node tables read."""
        by_pid = self._by_pid
        rows = np.flatnonzero(row_codes != 0)
        rows = rows[np.argsort(pid_np[rows], kind="stable")]
        row_pids = pid_np[rows]
        cuts = (np.flatnonzero(row_pids[1:] != row_pids[:-1]) + 1).tolist()
        bounds = [0, *cuts, len(rows)] if len(rows) else [0]
        times = ts_np[rows].tolist()
        codes = row_codes[rows].tobytes()
        auxes = aux_row[rows].tolist()
        for pid, lo, hi in zip(row_pids[bounds[:-1]].tolist(), bounds, bounds[1:]):
            if wanted is None or pid in wanted:
                by_pid[pid] = (times[lo:hi], bytearray(codes[lo:hi]), auxes[lo:hi])

        # The association state machine, in stream order over the rows
        # it reads (CB starts and the ID-carrying codes): each write
        # reads the ``current_cb`` state of its PID's last setter.
        writes = self.writes
        writer_cb = self.writer_cb
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        current_cb: Dict[int, Optional[str]] = {}
        pending_p13: Dict[int, List[int]] = {}
        rows = np.nonzero(
            (row_codes >= CODE_CB_START) & (row_codes <= CODE_TAKE_TYPE_ERASED)
        )[0]
        for position, pid, code, aux in zip(
            rows.tolist(),
            pid_np[rows].tolist(),
            row_codes[rows].tolist(),
            aux_row[rows].tolist(),
        ):
            if code == CODE_DDS_WRITE:
                writer_cb[position] = current_cb.get(pid)
                if aux[F_KIND] == "request":  # what FindCaller reads
                    key = (aux[F_TOPIC], aux[F_SRC_TS])
                    writes.setdefault(key, []).append((position, aux))
            elif code == CODE_CB_START:
                current_cb[pid] = None
            elif code <= CODE_TAKE_RESPONSE:
                current_cb[pid] = aux[F_CB_ID]
                if code == CODE_TAKE_RESPONSE:
                    pending_p13.setdefault(pid, []).append(position)
                    key = (aux[F_TOPIC], aux[F_SRC_TS])
                    take_responses.setdefault(key, []).append((position, aux))
            else:  # CODE_TAKE_TYPE_ERASED
                will_dispatch = bool(aux[F_WILL_DISPATCH])
                for p13_index in pending_p13.pop(pid, ()):
                    dispatch_after[p13_index] = will_dispatch

    # -- views -------------------------------------------------------------

    def pids(self) -> List[int]:
        """PIDs with walk columns (the wanted subset), ascending."""
        return sorted(self._by_pid)

    def walk_for_pid(self, pid: int) -> WalkColumns:
        """The PID's parallel (timestamps, codes, aux) walk columns."""
        return self._by_pid.get(pid, _EMPTY_WALK)


def _fold_sched(
    buckets: Dict[int, Tuple[array, bytearray]],
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray],
    pids: Sequence[int],
    wanted: Optional[frozenset],
) -> None:
    """Fold one run's per-PID sched buckets (from its checked
    ``columns``, which name ``pids``) into ``buckets``: append when the
    arriving bucket starts at-or-after the existing tail (ties append
    after, matching merge tie order), else a stable 2-way timestamp
    merge -- the left fold of which equals the n-way merge of every
    run's bucket, i.e. the bucket :class:`SchedIndex` builds from the
    merged event stream."""
    if wanted is None:
        wanted = pids
    for pid, bucket in sched_buckets(*columns, wanted=wanted).items():
        existing = buckets.get(pid)
        if existing is None:
            buckets[pid] = bucket
        elif not existing[0] or bucket[0][0] >= existing[0][-1]:
            buckets[pid] = (existing[0] + bucket[0], existing[1] + bucket[1])
        else:
            times = array("q")
            flags = bytearray()
            for ts, flag in _heap_merge(
                zip(*existing), zip(*bucket), key=itemgetter(0)
            ):
                times.append(ts)
                flags.append(flag)
            buckets[pid] = (times, flags)
