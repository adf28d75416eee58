"""Columnar Alg. 1 indexing straight over stored segments.

:class:`StoreTraceIndex` is the store-native sibling of
:class:`~repro.core.index.TraceIndex`: the same per-PID walk views and
cross-node association tables, built by consuming
:class:`~repro.store.reader.SegmentReader` columns directly instead of
a merged list of :class:`~repro.tracing.events.TraceEvent` objects.

What makes it cheap:

* every binary segment (format v1, v2 or v3 -- the reader normalizes v1
  columns on open) goes through one vectorized consumer: probe codes
  resolve with one numpy gather through a per-segment table keyed by
  the stored probe-string id, and walk columns are cut per PID in bulk;
* payloads are touched only for the ID-carrying rows Alg. 1
  dereferences (publish / take / response keys --
  :data:`~repro.core.index.PAYLOAD_CODES`); CB start/end and kernel
  probe rows -- the bulk of a trace -- never construct an event object.
  ``cb_id``/``topic``/``src_ts`` resolve from the segment's typed
  per-field columns, bulk-decoded once per payload shape, and only
  JSON-fallback rows (all rows of a v1 segment) see the JSON scanner;
* ``sched_switch`` rows feed shard-local
  :class:`~repro.core.exec_time.SchedIndex` buckets built from three
  int columns -- only the ``wanted_pids`` a worker will actually query
  get buckets, so a sharded worker no longer indexes the full merged
  sched stream.

One build path serves batch synthesis, shard workers and the live
service.  Runs that are time-ordered (run ids ascending, ROS time
ranges disjoint in that order -- seeded batch runs stagger their clock
bases) merge chronologically by plain concatenation, so the constructor
appends them one at a time, exactly as :meth:`StoreTraceIndex.extend`
appends a run that arrives later: the association state (``current_cb``,
pending P13 rows, the running stream position) persists on the index
between runs, and each run's sched buckets fold into the kept ones --
appended when they start at or after the tail, else stably 2-way
merged, a left fold that equals the n-way merge (ties prefer the
earlier run).

Every appended run records what it contributed (a :class:`_RunExtent`),
so :meth:`StoreTraceIndex.evict_oldest` drops the oldest run in place
and leaves the index equal to a build over the remaining runs.  Stream
positions stay absolute -- they are only lookup keys and FIFO order, so
an offset changes no result.

A rebuild, i.e. a new index over the retained readers, is still needed
in two cases.  Runs that overlap in time are k-way merged row by row
(the ``(ts, run, row)`` int prefixes keep ties in run order, exactly
like ``Trace.merge``), and that index can neither grow nor evict
(``can_append`` is False).  And an eviction refuses when one of the
oldest run's sched buckets was merged with a later run's, because a
merged bucket interleaves the runs.

Equivalence with the in-memory pipeline is byte-exact and pinned by
``tests/test_store_synthesis.py``: all orderings are the stable
chronological merges ``TraceIndex`` sees, per-PID walk columns carry the
same values the event objects would, and bucket contents match because a
PID's bucket in the merged stream equals the stable ts-merge of its
per-run buckets.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from heapq import merge as _heap_merge
from itertools import islice
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exec_time import _CLOSES, _OPENS, SchedIndex
from ..core.index import (
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE_RESPONSE,
    CODE_TAKE_TYPE_ERASED,
    CODE_TIMER_CALL,
    TopicKey,
    probe_code_lut,
)
from .format import SHAPE_JSON

#: One PID's walk columns: timestamps, probe codes, and the per-row aux
#: slot (CB-type label / decoded payload / None) -- parallel sequences
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
        PIDs whose walk columns and sched buckets to build (a worker's
        shard); the cross-node tables always cover the full stream --
        FindCaller/FindClient reach across shards by design.  ``None``
        builds every PID (the serial path).

    The attribute surface matches what
    :class:`~repro.core.extraction.EventIndex` consumes from
    :class:`~repro.core.index.TraceIndex` (``writes`` / ``writer_cb`` /
    ``take_responses`` / ``dispatch_after``), with payload mappings in
    the table slots where ``TraceIndex`` stores events -- both expose
    ``.get``, which is all the lookups use.
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
        "_appenders",
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
    ):
        self.pid_map: Dict[int, Optional[str]] = {}
        self._by_pid: Dict[int, WalkColumns] = {}
        self.writes: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        self.writer_cb: Dict[int, Optional[str]] = {}
        self.take_responses: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        self.dispatch_after: Dict[int, bool] = {}
        self._wanted = None if wanted_pids is None else frozenset(wanted_pids)
        # The association state machine's mutable state, carried from
        # one run into the next.
        self._current_cb: Dict[int, Optional[str]] = {}
        self._pending_p13: Dict[int, List[int]] = {}
        #: pid -> bound (ts, code, aux) append methods of the pid's walk
        #: columns, so the per-row hot loop skips attribute lookups.
        self._appenders: Dict[int, tuple] = {}
        self._next_index = 0
        #: ROS ts upper bound of the last appended run with any ROS
        #: events -- the rolling bound _runs_are_time_ordered tracks.
        self._last_ros_end: Optional[int] = None
        #: False when built over time-overlapping runs (heap-merged
        #: positions are not resumable: no extend, no eviction).
        self._ordered = _runs_are_time_ordered(readers)
        self._sched_buckets: Dict[int, Tuple[array, bytearray]] = {}
        #: PIDs whose sched bucket interleaves several runs' entries
        #: (built by the 2-way merge): no run prefix can be cut from it.
        self._merged_sched: set = set()
        #: the appended runs, oldest first (empty when not _ordered).
        self._runs: List[_RunExtent] = []
        if self._ordered:
            for reader in readers:
                self._append(reader)
        else:
            # Overlapping runs: k-way merge of per-reader row streams.
            # The (ts, order, row) int prefixes are unique, so plain
            # tuple comparison merges chronologically with ties in run
            # order and the aux slot is never compared.
            for reader in readers:
                self.pid_map.update(reader.pid_map)
            self._consume_rows(
                _heap_merge(*(
                    reader.walk_rows(order)
                    for order, reader in enumerate(readers)
                ))
            )
            for reader in readers:
                self._fold_sched(reader, None)
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    # -- growing -----------------------------------------------------------

    def can_append(self, reader: Any) -> bool:
        """True when ``reader``'s stream may extend this index in place
        (the caller has already established run-id order): the index
        was never heap-merged, and the reader's ROS span starts at or
        after the last consumed span's end -- the incremental form of
        :func:`_runs_are_time_ordered` (a shared boundary timestamp
        stays appendable, merge ties keep run order)."""
        if not self._ordered:
            return False
        span = reader.ros_ts_range()
        if span is None or self._last_ros_end is None:
            return True
        return span[0] >= self._last_ros_end

    def extend(self, reader: Any) -> None:
        """Consume one more segment as the next run of the merge order.

        Caller contract: ``can_append(reader)`` holds and the reader's
        run id sorts after every previously consumed run.
        """
        self._append(reader)
        # from_buckets copies only the dict (the column arrays are
        # shared), so regenerating the SchedIndex view per commit is
        # O(pids), not O(rows).
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    def _append(self, reader: Any) -> None:
        """One reader as the next run of a time-ordered merge, noting in
        a new :class:`_RunExtent` what it added."""
        run = _RunExtent(self._next_index, reader.pid_map)
        self.pid_map.update(reader.pid_map)
        writes, responses = self.writes, self.take_responses
        before = (len(writes), len(responses))
        fastpath = getattr(reader, "walk_fastpath", None)
        if fastpath is None:
            # An in-memory run: its rows one by one.
            self._consume_rows(reader.walk_rows(0), run)
        else:
            self._consume_columns(fastpath(), run)
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

    # The two _consume_* bodies are the same association state machine
    # as TraceIndex._build (positional indices of the merged stream):
    # _consume_columns over a time-ordered segment's whole columns,
    # _consume_rows over pre-assembled row tuples (heap-merged
    # overlapping runs, in-memory legacy runs).  Both resume the state
    # the previous run left and advance _next_index; given the run's
    # _RunExtent they record its walk rows, carried writes and setters.
    # The store equivalence suites pin both against the in-memory
    # pipeline.

    def _walk_appender(self, pid: int) -> tuple:
        """First-row setup of a PID's walk columns + bound appends.

        Reuses columns an earlier column-consumer pass already created
        for the PID -- a store mixing binary and in-memory runs
        interleaves both consumers, which must extend the same
        columns."""
        walk = self._by_pid.get(pid)
        if walk is None:
            walk = self._by_pid[pid] = ([], bytearray(), [])
        bound = self._appenders[pid] = (
            walk[0].append, walk[1].append, walk[2].append,
        )
        return bound

    def _consume_columns(self, columns: Tuple, run: _RunExtent) -> None:
        """One segment's :meth:`~repro.store.reader.SegmentReader.walk_fastpath`
        columns, with the per-row dispatch hoisted into whole-column
        numpy operations.

        The per-string-id code table becomes a ``uint8`` lookup array,
        one gather yields every row's code, and boolean masks split the
        stream into walk rows (``code != 0`` -- code-0 rows are no-ops
        to the Alg. 1 walk and are dropped, exactly like
        :meth:`_consume_rows`) and *interesting* rows (CB starts + the
        ID-carrying payload codes) that the association state machine
        must still see in order.  Aux values resolve in bulk, one
        ``map`` per referenced payload shape, into a whole-column object
        array; walk columns then build per PID with bulk ``.tolist()``
        / ``.tobytes()`` extraction (Python ints, so downstream
        byte-identity is untouched); and the sequential state machine --
        reduced to the association-table bookkeeping only -- runs over
        just the interesting rows with every aux already in hand."""
        (
            ts_col, pid_col, probe_col, shape_col, vidx_col,
            codes, start_types, shapes, json_payload,
        ) = columns
        probe_np = np.frombuffer(probe_col, dtype=np.uint32)
        lut = probe_code_lut(codes)
        row_codes = lut[probe_np]
        pid_np = np.frombuffer(pid_col, dtype=np.int32)
        ts_np = np.frombuffer(ts_col, dtype=np.int64)
        n = len(probe_np)
        index = self._next_index
        current_cb = self._current_cb
        by_pid = self._by_pid
        wanted = self._wanted
        all_wanted = wanted is None
        n_shapes = len(shapes)

        #: per-row aux value (``None``-initialized): payload dicts for
        #: the ID-carrying codes, CB-type labels for CB starts.
        aux_row = np.empty(n, dtype=object)

        def assign(rows, values: List) -> None:
            # Elementwise object assignment: staging through an object
            # array keeps numpy from peering into dict/str values.
            staged = np.empty(len(values), dtype=object)
            staged[:] = values
            aux_row[rows] = staged

        id_rows = np.nonzero(
            (row_codes >= CODE_TIMER_CALL)
            & (row_codes <= CODE_TAKE_TYPE_ERASED)
        )[0]
        if len(id_rows):
            sid_np = np.frombuffer(shape_col, dtype=np.uint32)[id_rows]
            vidx_np = np.frombuffer(vidx_col, dtype=np.uint32)[id_rows]
            for sid in np.unique(sid_np).tolist():
                sel = id_rows[sid_np == sid]
                vidxs = vidx_np[sid_np == sid].tolist()
                if sid < n_shapes:
                    payload_rows = shapes[sid].rows()
                    assign(sel, list(map(payload_rows.__getitem__, vidxs)))
                elif sid == SHAPE_JSON:
                    assign(sel, list(map(json_payload, vidxs)))
                else:  # NONE_ID: ID-carrying probes without payload
                    assign(sel, [{} for _ in vidxs])
        cb_rows = np.nonzero(row_codes == CODE_CB_START)[0]
        if len(cb_rows):
            assign(
                cb_rows,
                list(map(start_types.__getitem__, probe_np[cb_rows].tolist())),
            )

        nonzero = row_codes != 0
        for pid in np.unique(pid_np[nonzero]).tolist():
            if not (all_wanted or pid in wanted):
                continue
            rows = np.nonzero(nonzero & (pid_np == pid))[0]
            run.walk_rows[pid] = len(rows)
            walk = by_pid.get(pid)
            if walk is None:
                walk = by_pid[pid] = ([], bytearray(), [])
            walk[0].extend(ts_np[rows].tolist())
            walk[1].extend(row_codes[rows].tobytes())
            walk[2].extend(aux_row[rows].tolist())

        # The dds_write -> active-writer-CB association, vectorized.
        # The row consumer threads ``current_cb`` through every
        # CB-start and ID-carrying row; but each write only reads the
        # state of the *last preceding setter in its PID*, which one
        # searchsorted per PID locates directly -- so the sequential
        # loop below shrinks to the three table-append codes.  A write
        # with no setter before it in this segment (position < 0) reads
        # the state a previous segment's consumer left in
        # ``current_cb``: a carried write when the PID has one.
        writer_cb = self.writer_cb
        setter_rows = np.nonzero(
            (row_codes >= CODE_CB_START) & (row_codes <= CODE_TAKE_RESPONSE)
        )[0]
        write_rows = np.nonzero(row_codes == CODE_DDS_WRITE)[0]
        if len(setter_rows) or len(write_rows):
            setter_pids = pid_np[setter_rows]
            write_pids = pid_np[write_rows]
            pids = np.unique(np.concatenate((setter_pids, write_pids)))
            for pid in pids.tolist():
                setters = setter_rows[setter_pids == pid]
                pid_writes = write_rows[write_pids == pid]
                if len(pid_writes):
                    pos = np.searchsorted(setters, pid_writes, "left") - 1
                    cb_at = {}
                    for p in np.unique(pos).tolist():
                        if p < 0:
                            cb_at[p] = current_cb.get(pid)
                        else:
                            row = int(setters[p])
                            cb_at[p] = (
                                None
                                if row_codes[row] == CODE_CB_START
                                else aux_row[row].get("cb_id")
                            )
                    for row, p in zip(pid_writes.tolist(), pos.tolist()):
                        writer_cb[index + row] = cb_at[p]
                    if pos[0] < 0 and pid in current_cb:
                        run.carried[pid] = (
                            index + pid_writes[pos < 0]
                        ).tolist()
                if len(setters):
                    run.setters.add(pid)
                    last = int(setters[-1])
                    current_cb[pid] = (
                        None
                        if row_codes[last] == CODE_CB_START
                        else aux_row[last].get("cb_id")
                    )

        table_rows = np.nonzero(
            (row_codes >= CODE_TAKE_RESPONSE)
            & (row_codes <= CODE_TAKE_TYPE_ERASED)
        )[0]
        writes = self.writes
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        pending_p13 = self._pending_p13
        for row, pid, code, aux in zip(
            table_rows.tolist(),
            pid_np[table_rows].tolist(),
            row_codes[table_rows].tolist(),
            aux_row[table_rows].tolist(),
        ):
            if code == CODE_DDS_WRITE:
                key = (aux.get("topic"), aux.get("src_ts"))
                writes.setdefault(key, []).append((index + row, aux))
            elif code == CODE_TAKE_RESPONSE:
                pending_p13.setdefault(pid, []).append(index + row)
                key = (aux.get("topic"), aux.get("src_ts"))
                take_responses.setdefault(key, []).append((index + row, aux))
            else:  # CODE_TAKE_TYPE_ERASED
                will_dispatch = bool(aux.get("will_dispatch"))
                for p13_index in pending_p13.pop(pid, ()):
                    dispatch_after[p13_index] = will_dispatch
        self._next_index = index + n

    def _consume_rows(
        self, rows: Iterable[tuple], run: Optional[_RunExtent] = None
    ) -> None:
        writes = self.writes
        writer_cb = self.writer_cb
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        current_cb = self._current_cb
        pending_p13 = self._pending_p13
        appenders = self._appenders
        wanted = self._wanted
        all_wanted = wanted is None
        index = self._next_index
        for ts, _order, _row, pid, code, aux in rows:
            if code and (all_wanted or pid in wanted):
                try:
                    append_ts, append_code, append_aux = appenders[pid]
                except KeyError:
                    append_ts, append_code, append_aux = self._walk_appender(pid)
                append_ts(ts)
                append_code(code)
                append_aux(aux)
                if run is not None:
                    run.walk_rows[pid] = run.walk_rows.get(pid, 0) + 1
            if code >= CODE_TIMER_CALL:
                if code <= CODE_TAKE_RESPONSE:
                    current_cb[pid] = aux.get("cb_id")
                    if run is not None:
                        run.setters.add(pid)
                    if code == CODE_TAKE_RESPONSE:
                        pending_p13.setdefault(pid, []).append(index)
                        key = (aux.get("topic"), aux.get("src_ts"))
                        take_responses.setdefault(key, []).append((index, aux))
                elif code == CODE_DDS_WRITE:
                    writer_cb[index] = current_cb.get(pid)
                    if (
                        run is not None
                        and pid in current_cb
                        and pid not in run.setters
                    ):
                        run.carried.setdefault(pid, []).append(index)
                    key = (aux.get("topic"), aux.get("src_ts"))
                    writes.setdefault(key, []).append((index, aux))
                elif code == CODE_TAKE_TYPE_ERASED:
                    will_dispatch = bool(aux.get("will_dispatch"))
                    for p13_index in pending_p13.pop(pid, ()):
                        dispatch_after[p13_index] = will_dispatch
            elif code == CODE_CB_START:
                current_cb[pid] = None
                if run is not None:
                    run.setters.add(pid)
            index += 1
        self._next_index = index

    # -- sched stream: shard-local columnar buckets ------------------------

    def _fold_sched(self, reader: Any, run: Optional[_RunExtent]) -> None:
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
        for pid, bucket in self._reader_sched_buckets(reader, self._wanted).items():
            if run is not None:
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

    @staticmethod
    def _reader_sched_buckets(
        reader: Any, wanted: Optional[frozenset]
    ) -> Dict[int, Tuple[array, bytearray]]:
        """One reader's per-PID sched buckets from its whole
        ``(ts, prev_pid, next_pid)`` columns.

        Per PID, three boolean masks decide the flags: ``prev == pid``
        closes (self-switches ``next == prev`` close *and* open in one
        entry), ``next == pid`` alone opens.  The row sets are selected
        in stream order, so each bucket is the PID's subsequence of the
        reader's sched stream, exactly as :class:`SchedIndex` buckets
        the event stream."""
        ts_col, prev_col, next_col = reader.sched_pid_columns()
        ts_np = np.frombuffer(ts_col, dtype=np.int64)
        prev_np = np.frombuffer(prev_col, dtype=np.int32)
        next_np = np.frombuffer(next_col, dtype=np.int32)
        if wanted is None:
            pids = np.unique(np.concatenate((prev_np, next_np))).tolist()
        else:
            pids = sorted(wanted)
        local: Dict[int, Tuple[array, bytearray]] = {}
        both = _CLOSES | _OPENS
        for pid in pids:
            if pid == 0:
                continue
            closes = prev_np == pid
            rows = np.nonzero(closes | (next_np == pid))[0]
            if not len(rows):
                continue
            flags = np.where(
                closes[rows],
                np.where(next_np[rows] == pid, both, _CLOSES),
                _OPENS,
            ).astype(np.uint8)
            times = array("q")
            times.frombytes(ts_np[rows].tobytes())
            local[pid] = (times, bytearray(flags.tobytes()))
        return local

    # -- evicting ----------------------------------------------------------

    def evict_oldest(self) -> bool:
        """Drop the oldest run in place, leaving the index equal to a
        from-scratch build over the remaining runs (positions offset).

        Returns False, with the index untouched, when that cannot be
        done in place -- the index was heap-merged over overlapping
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
                self._appenders.pop(pid, None)
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
        self._drop_entries(self.writes, run.keys[0], 0, cut, self.writer_cb)
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
        by_position: Dict[int, Any],
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
                by_position.pop(position, None)
                dropped += 1
            if dropped == len(entries):
                del table[key]
            else:
                del entries[:dropped]
                owner = self._runs[bisect_right(starts, entries[0][0]) - 1]
                owner.keys[slot].append(key)

    # -- views -------------------------------------------------------------

    def pids(self) -> List[int]:
        """PIDs with walk columns (the wanted subset), ascending."""
        return sorted(self._by_pid)

    def walk_for_pid(self, pid: int) -> WalkColumns:
        """The PID's parallel (timestamps, codes, aux) walk columns."""
        return self._by_pid.get(pid, _EMPTY_WALK)
