"""The trace index: Alg. 1 walk columns and cross-node tables, built
from reader columns.

:class:`StoreTraceIndex` is the one trace index.  Stored segments
(:class:`~repro.store.reader.SegmentReader`) and loaded traces
(:class:`~repro.store.reader.InMemorySegment` -- the in-memory pipeline
and legacy gzip-JSON runs) hand it the same ``walk_fastpath`` column
tuple, and it builds per-PID walk columns, the cross-node association
tables (positional: keyed by a row's position in the merged stream)
and columnar :class:`~repro.core.exec_time.SchedIndex` buckets without
constructing a :class:`~repro.tracing.events.TraceEvent`.

A run's columns go through two steps:

* :func:`_resolve` turns them into whole-column arrays: probe codes
  through one numpy gather over a per-reader table keyed by the
  probe-string id, and an aux column holding the CB-type label of CB
  starts and, for the ID-carrying rows Alg. 1 dereferences (publish /
  take / response keys), the payload's *field tuple*
  ``(cb_id, topic, src_ts, kind, will_dispatch)``
  (:data:`~repro.core.index.PAYLOAD_FIELDS`, ``None`` where a key is
  absent), read by position everywhere downstream.  The tuples come
  in bulk per payload shape, zipped straight from the shape's field
  columns -- no payload dict is built -- so CB start/end and kernel
  probe rows, the bulk of a trace, are never decoded, and only
  JSON-fallback rows (all rows of a v1 segment) see the JSON scanner.
  A garbled column raises :class:`~repro.store.format.StoreFormatError`
  naming the segment's file;
* :meth:`StoreTraceIndex._consume`, the one consumer, cuts walk
  columns per PID in bulk and runs the association state machine over
  the rows the tables read.  ``sched_switch`` rows feed
  :func:`~repro.core.exec_time.sched_buckets` from three int columns --
  only for the ``wanted_pids`` a ``--pids`` synthesis will query.

One build path serves the in-memory pipeline, batch synthesis, the
``merge_dags`` per-run builds and the live service.  Runs that are time-ordered (run ids
ascending, ROS time ranges disjoint in that order -- seeded batch runs
stagger their clock bases) merge chronologically by concatenation, so
the constructor consumes them one at a time, exactly as
:meth:`StoreTraceIndex.extend` consumes a run that arrives later: the
association state (``current_cb``, pending P13 rows, the running stream
position) persists on the index between runs, and each run's sched
buckets fold into the kept ones -- appended when they start at or after
the tail, else stably 2-way merged, a left fold that equals the n-way
merge (ties prefer the earlier run).

Every appended run records what it contributed (a :class:`_RunExtent`),
so :meth:`StoreTraceIndex.evict_oldest` drops the oldest run in place
and leaves the index equal to a build over the remaining runs.  Stream
positions stay absolute -- they are only lookup keys and FIFO order, so
an offset changes no result.

A rebuild, i.e. a new index over the retained readers, is still needed
in two cases.  Runs that overlap in time are merged as columns: every
run's resolved columns are concatenated in run order and reordered by
one stable sort on ts, so ties keep ``(run, row)`` order exactly like
``Trace.merge``; that index can neither grow nor evict (``can_append``
is False).  And an eviction refuses when one of the oldest run's sched
buckets was merged with a later run's, because a merged bucket
interleaves the runs.

Equivalence with the frozen pre-index pipeline in :mod:`repro._legacy`
is byte-exact and pinned by ``tests/test_perf_equivalence.py`` and the
store suites: every ordering is a stable chronological merge, per-PID
walk columns carry the values the event objects would, and bucket
contents match because a PID's bucket in the merged stream equals the
stable ts-merge of its per-run buckets.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from heapq import merge as _heap_merge
from itertools import islice, repeat, takewhile
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

    A garbled column (an id past its table, a truncated column) raises
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
        np.frombuffer(ts_col, dtype=np.int64),
        np.frombuffer(pid_col, dtype=np.int32),
        row_codes,
        aux_row,
    )


class ResolvedRun(NamedTuple):
    """One run's reader with its ROS columns resolved (see
    :func:`_resolve`) -- the input of
    :meth:`StoreTraceIndex.extend` and of the run's
    :class:`~repro.analysis.latency.LatencyIndex` fragment alike."""

    reader: Any
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def events(self) -> int:
        """The run's ROS, sched and wakeup event count."""
        reader = self.reader
        return (
            reader.num_ros_events + reader.num_sched_events
            + reader.num_wakeup_events
        )


def resolve_run(reader: Any) -> ResolvedRun:
    """Decode every section an append of the run reads -- the resolved
    ROS columns with the payload rows they reference (:func:`_resolve`),
    the sched and the wakeup PID columns -- so a corrupt segment fails
    here, before an index or a service changes any state.  The reader
    caches what it inflated, so later reads of those sections inflate
    nothing.

    Raises :class:`~repro.store.format.StoreFormatError` for a corrupt
    section, including an uncompressed one whose ids point outside
    their tables."""
    columns = _resolve(reader)
    try:
        reader.sched_pid_columns()
        reader.wakeup_pid_columns()
    except StoreFormatError:
        raise
    except (IndexError, ValueError) as error:
        raise _corrupt(reader, error) from None
    return ResolvedRun(reader, columns)


def _merged_columns(
    readers: Sequence[Any], columns: Optional[Sequence[Tuple]] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Time-overlapping runs' resolved columns (see :func:`_resolve`;
    ``columns`` when the caller has them) as one chronological stream:
    concatenated in run order and reordered by one stable sort on ts,
    so ties keep ``(run, row)`` order exactly like ``Trace.merge``."""
    if columns is None:
        columns = [_resolve(reader) for reader in readers]
    ts_np, pid_np, row_codes, aux_row = (
        np.concatenate(column) for column in zip(*columns)
    )
    order = np.argsort(ts_np, kind="stable")
    return ts_np[order], pid_np[order], row_codes[order], aux_row[order]


class _RunExtent:
    """What one appended run contributed to a :class:`StoreTraceIndex`,
    kept so the run can later be dropped in place."""

    __slots__ = (
        "start", "stop", "pid_map", "ros_end", "walk_rows", "sched_rows",
        "keys", "carried", "setters",
    )

    def __init__(self, start: int, pid_map: Dict[int, Optional[str]]):
        #: stream positions [start, stop) of the run's ROS rows.
        self.start = start
        self.stop = start
        self.pid_map = pid_map
        self.ros_end: Optional[int] = None
        #: pid -> rows appended to the PID's walk columns / sched bucket.
        self.walk_rows: Dict[int, int] = {}
        self.sched_rows: Dict[int, int] = {}
        #: (writes keys, take_responses keys) whose first entry lies in
        #: this run.
        self.keys: Tuple[List[Any], List[Any]] = ([], [])
        #: pid -> positions of the run's writes that read the
        #: ``current_cb`` value carried in from earlier runs.
        self.carried: Dict[int, List[int]] = {}
        #: PIDs with a ``current_cb`` setter row in this run.
        self.setters: set = set()


class StoreTraceIndex:
    """Alg. 1 lookup structures built from stored segment columns.

    Parameters
    ----------
    readers:
        Segment readers in run-id order (the merge order), from
        :meth:`~repro.store.database.TraceStore.readers`; empty for an
        index that :meth:`extend` grows one run at a time.
    wanted_pids:
        PIDs whose walk columns and sched buckets to build (a
        ``--pids`` subset); the cross-node tables always cover the full
        stream -- FindCaller/FindClient reach across nodes by design.
        ``None`` builds every PID.
    columns:
        Each reader's resolved columns (:func:`resolve_run`), when the
        caller has them already; ``None`` resolves them here.

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
        "_wanted",
        "_current_cb",
        "_pending_p13",
        "_next_index",
        "_last_ros_end",
        "_ordered",
        "_sched_buckets",
        "_merged_sched",
        "_runs",
    )

    def __init__(
        self,
        readers: Sequence[Any] = (),
        wanted_pids: Optional[Iterable[int]] = None,
        columns: Optional[Sequence[Tuple]] = None,
    ):
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
        self._wanted = None if wanted_pids is None else frozenset(wanted_pids)
        # The association state machine's mutable state, carried from
        # one run into the next.
        self._current_cb: Dict[int, Optional[str]] = {}
        self._pending_p13: Dict[int, List[int]] = {}
        self._next_index = 0
        #: ROS ts upper bound of the last appended run with any ROS
        #: events -- the rolling bound _runs_are_time_ordered tracks.
        self._last_ros_end: Optional[int] = None
        #: False when built over time-overlapping runs (sort-merged
        #: positions are not resumable: no extend, no eviction).
        self._ordered = _runs_are_time_ordered(readers)
        self._sched_buckets: Dict[int, Tuple[array, bytearray]] = {}
        #: PIDs whose sched bucket interleaves several runs' entries
        #: (built by the 2-way merge): no run prefix can be cut from it.
        self._merged_sched: set = set()
        #: the appended runs, oldest first (empty when not _ordered).
        self._runs: List[_RunExtent] = []
        if self._ordered:
            for reader, resolved in zip(
                readers, columns if columns is not None else repeat(None)
            ):
                self._append(reader, resolved)
        else:
            # Overlapping runs: one stable ts merge of every run's
            # resolved columns.  The extent is not kept: no eviction.
            merged = _RunExtent(0, {})
            self._consume(*_merged_columns(readers, columns), merged)
            for reader in readers:
                self.pid_map.update(reader.pid_map)
                self._fold_sched(reader, merged)
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    # -- growing -----------------------------------------------------------

    def can_append(self, reader: Any) -> bool:
        """True when ``reader``'s stream may extend this index in place
        (the caller has already established run-id order): the index
        was never sort-merged, and the reader's ROS span starts at or
        after the last consumed span's end -- the incremental form of
        :func:`_runs_are_time_ordered` (a shared boundary timestamp
        stays appendable, merge ties keep run order)."""
        if not self._ordered:
            return False
        span = reader.ros_ts_range()
        if span is None or self._last_ros_end is None:
            return True
        return span[0] >= self._last_ros_end

    def extend(self, reader: Any, columns: Optional[Tuple] = None) -> None:
        """Consume one more segment as the next run of the merge order;
        ``columns`` are the reader's resolved columns when the caller
        already has them (:func:`resolve_run`).

        Caller contract: ``can_append(reader)`` holds and the reader's
        run id sorts after every previously consumed run.
        """
        self._append(reader, columns)
        # from_buckets copies only the dict (the column arrays are
        # shared), so regenerating the SchedIndex view per commit is
        # O(pids), not O(rows).
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    def _append(self, reader: Any, columns: Optional[Tuple] = None) -> None:
        """One reader as the next run of a time-ordered merge, noting in
        a new :class:`_RunExtent` what it added."""
        if columns is None:
            columns = _resolve(reader)
        run = _RunExtent(self._next_index, reader.pid_map)
        self.pid_map.update(reader.pid_map)
        writes, responses = self.writes, self.take_responses
        before = (len(writes), len(responses))
        self._consume(*columns, run)
        run.stop = self._next_index
        # Tables only ever gain keys here, so the run's new keys are the
        # dicts' insertion tails.
        for table, count, keys in zip((writes, responses), before, run.keys):
            keys.extend(islice(reversed(table), len(table) - count))
        span = reader.ros_ts_range()
        if span is not None:
            self._last_ros_end = run.ros_end = span[1]
        self._fold_sched(reader, run)
        self._runs.append(run)

    # -- ROS stream: walk columns + cross-node tables ----------------------

    def _consume(
        self,
        ts_np: np.ndarray,
        pid_np: np.ndarray,
        row_codes: np.ndarray,
        aux_row: np.ndarray,
        run: _RunExtent,
    ) -> None:
        """Walk columns and association tables from one chronological
        stretch of resolved columns (see :func:`_resolve`).

        Walk rows (``code != 0`` -- code-0 rows are no-ops to the Alg. 1
        walk and are dropped) are grouped per PID by one stable sort and
        extracted in bulk with ``.tolist()`` / ``.tobytes()`` (Python
        ints, so downstream byte-identity is untouched), then sliced per
        PID.  The association loop
        then visits only the rows the cross-node tables read, resuming
        the state the previous stretch left (``current_cb``, pending
        P13 rows, the stream position); the run's walk rows, carried
        writes and setters are recorded in ``run``."""
        n = len(row_codes)
        index = self._next_index
        current_cb = self._current_cb
        by_pid = self._by_pid
        wanted = self._wanted
        all_wanted = wanted is None

        rows = np.flatnonzero(row_codes != 0)
        rows = rows[np.argsort(pid_np[rows], kind="stable")]
        row_pids = pid_np[rows]
        cuts = (np.flatnonzero(row_pids[1:] != row_pids[:-1]) + 1).tolist()
        bounds = [0, *cuts, len(rows)] if len(rows) else [0]
        times = ts_np[rows].tolist()
        codes = row_codes[rows].tobytes()
        auxes = aux_row[rows].tolist()
        for pid, lo, hi in zip(row_pids[bounds[:-1]].tolist(), bounds, bounds[1:]):
            if not (all_wanted or pid in wanted):
                continue
            run.walk_rows[pid] = hi - lo
            walk = by_pid.get(pid)
            if walk is None:
                walk = by_pid[pid] = ([], bytearray(), [])
            walk[0].extend(times[lo:hi])
            walk[1].extend(codes[lo:hi])
            walk[2].extend(auxes[lo:hi])

        # The association state machine, in stream order over the rows
        # it reads (CB starts and the ID-carrying codes): each write
        # reads the ``current_cb`` state of its PID's last setter, which
        # a previous stretch may have left -- a carried write when this
        # run has not set the PID yet.
        writes = self.writes
        writer_cb = self.writer_cb
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        pending_p13 = self._pending_p13
        setters = run.setters
        rows = np.nonzero(
            (row_codes >= CODE_CB_START) & (row_codes <= CODE_TAKE_TYPE_ERASED)
        )[0]
        for position, pid, code, aux in zip(
            (index + rows).tolist(),
            pid_np[rows].tolist(),
            row_codes[rows].tolist(),
            aux_row[rows].tolist(),
        ):
            if code == CODE_DDS_WRITE:
                writer_cb[position] = current_cb.get(pid)
                if pid in current_cb and pid not in setters:
                    run.carried.setdefault(pid, []).append(position)
                if aux[F_KIND] == "request":  # what FindCaller reads
                    key = (aux[F_TOPIC], aux[F_SRC_TS])
                    writes.setdefault(key, []).append((position, aux))
            elif code == CODE_CB_START:
                current_cb[pid] = None
                setters.add(pid)
            elif code <= CODE_TAKE_RESPONSE:
                current_cb[pid] = aux[F_CB_ID]
                setters.add(pid)
                if code == CODE_TAKE_RESPONSE:
                    pending_p13.setdefault(pid, []).append(position)
                    key = (aux[F_TOPIC], aux[F_SRC_TS])
                    take_responses.setdefault(key, []).append((position, aux))
            else:  # CODE_TAKE_TYPE_ERASED
                will_dispatch = bool(aux[F_WILL_DISPATCH])
                for p13_index in pending_p13.pop(pid, ()):
                    dispatch_after[p13_index] = will_dispatch
        self._next_index = index + n

    # -- sched stream: per-PID columnar buckets ----------------------------

    def _fold_sched(self, reader: Any, run: _RunExtent) -> None:
        """Fold one reader's per-PID sched buckets into the kept ones:
        append when the arriving bucket starts at-or-after the existing
        tail (ties append after, matching merge tie order), else a
        stable 2-way timestamp merge -- the left fold of which equals
        the n-way merge of every run's bucket, i.e. the bucket
        :class:`SchedIndex` builds from the merged event stream.

        Kept columns are replaced, never resized: a :class:`SchedIndex`
        handed out earlier may hold numpy views on them, which forbid
        resizing."""
        buckets = self._sched_buckets
        columns = reader.sched_pid_columns()
        for pid, bucket in sched_buckets(*columns, wanted=self._wanted).items():
            run.sched_rows[pid] = len(bucket[0])
            existing = buckets.get(pid)
            if existing is None:
                buckets[pid] = bucket
            elif not existing[0] or bucket[0][0] >= existing[0][-1]:
                buckets[pid] = (existing[0] + bucket[0], existing[1] + bucket[1])
            else:
                self._merged_sched.add(pid)
                times = array("q")
                flags = bytearray()
                for ts, flag in _heap_merge(
                    zip(*existing), zip(*bucket), key=itemgetter(0)
                ):
                    times.append(ts)
                    flags.append(flag)
                buckets[pid] = (times, flags)

    # -- evicting ----------------------------------------------------------

    def evict_oldest(self) -> bool:
        """Drop the oldest run in place, leaving the index equal to a
        from-scratch build over the remaining runs (positions offset).

        Returns False, with the index untouched, when that cannot be
        done in place -- the index was sort-merged over overlapping
        runs, or one of the run's sched buckets was merged with a
        later run's -- and the caller must rebuild.
        """
        if not self._ordered or not self._runs:
            return False
        run = self._runs[0]
        if not self._merged_sched.isdisjoint(run.sched_rows):
            return False
        del self._runs[0]
        cut = run.stop
        by_pid = self._by_pid
        for pid, count in run.walk_rows.items():
            walk = by_pid[pid]
            if count == len(walk[0]):
                del by_pid[pid]
            else:
                for column in walk:
                    del column[:count]
        buckets = self._sched_buckets
        for pid, count in run.sched_rows.items():
            times, flags = buckets[pid]
            if count == len(times):
                del buckets[pid]
            else:
                buckets[pid] = (times[count:], flags[count:])
        self.sched = SchedIndex.from_buckets(buckets)
        # writer_cb fills in stream order: the evicted run's writes lead.
        writer_cb = self.writer_cb
        for position in list(takewhile(cut.__gt__, writer_cb)):
            del writer_cb[position]
        self._drop_entries(self.writes, run.keys[0], 0, cut)
        self._drop_entries(
            self.take_responses, run.keys[1], 1, cut, self.dispatch_after
        )
        pending = self._pending_p13
        for pid, positions in list(pending.items()):
            kept = [position for position in positions if position >= cut]
            if kept:
                pending[pid] = kept
            else:
                del pending[pid]
        # A write that read a current_cb value set in the evicted run
        # reads None in a from-scratch build: every write of the PID up
        # to the PID's first setter in the remaining runs.
        for pid in run.setters:
            for later in self._runs:
                for position in later.carried.get(pid, ()):
                    self.writer_cb[position] = None
                if pid in later.setters:
                    break
            else:
                self._current_cb.pop(pid, None)
        pid_map: Dict[int, Optional[str]] = {}
        for later in self._runs:
            pid_map.update(later.pid_map)
        self.pid_map = pid_map
        self._last_ros_end = next(
            (
                later.ros_end for later in reversed(self._runs)
                if later.ros_end is not None
            ),
            None,
        )
        return True

    def _drop_entries(
        self,
        table: Dict[Any, List[Tuple[int, Any]]],
        keys: List[Any],
        slot: int,
        cut: int,
        by_position: Optional[Dict[int, Any]] = None,
    ) -> None:
        """Remove the entries below position ``cut`` under the evicted
        run's ``keys``, with their ``by_position`` entries.  A key that
        keeps later entries passes to the run holding its new first
        entry."""
        starts = [later.start for later in self._runs]
        for key in keys:
            entries = table[key]
            dropped = 0
            for position, _aux in entries:
                if position >= cut:
                    break
                if by_position is not None:
                    by_position.pop(position, None)
                dropped += 1
            if dropped == len(entries):
                del table[key]
            else:
                del entries[:dropped]
                owner = self._runs[bisect_right(starts, entries[0][0]) - 1]
                owner.keys[slot].append(key)

    # -- views -------------------------------------------------------------

    def runs(self) -> List[_RunExtent]:
        """The appended runs' extents, oldest first -- empty for an index
        sort-merged over overlapping runs, which keeps none.  Read-only:
        callers must not mutate the extents."""
        return list(self._runs)

    def pids(self) -> List[int]:
        """PIDs with walk columns (the wanted subset), ascending."""
        return sorted(self._by_pid)

    def walk_for_pid(self, pid: int) -> WalkColumns:
        """The PID's parallel (timestamps, codes, aux) walk columns."""
        return self._by_pid.get(pid, _EMPTY_WALK)
