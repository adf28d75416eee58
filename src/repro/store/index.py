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
* the k-way merge across time-overlapping runs orders ``(ts, run,
  row)`` int prefixes, so ties keep run order (exactly like
  ``Trace.merge``) without a heap key function;
* ``sched_switch`` rows feed shard-local
  :class:`~repro.core.exec_time.SchedIndex` buckets built from three
  int columns -- only the ``wanted_pids`` a worker will actually query
  get buckets, so a sharded worker no longer indexes the full merged
  sched stream.

Equivalence with the in-memory pipeline is byte-exact and pinned by
``tests/test_store_synthesis.py``: all orderings are the stable
chronological merges ``TraceIndex`` sees, per-PID walk columns carry the
same values the event objects would, and bucket contents match because a
PID's bucket in the merged stream equals the stable ts-merge of its
per-run buckets.
"""

from __future__ import annotations

from array import array
from heapq import merge as _heap_merge
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


class StoreTraceIndex:
    """Alg. 1 lookup structures built from stored segment columns.

    Parameters
    ----------
    readers:
        Segment readers in run-id order (the merge order), from
        :meth:`~repro.store.database.TraceStore.readers`.
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
    )

    def __init__(
        self,
        readers: Sequence[Any],
        wanted_pids: Optional[Iterable[int]] = None,
    ):
        pid_map: Dict[int, Optional[str]] = {}
        for reader in readers:
            pid_map.update(reader.pid_map)
        self.pid_map = pid_map
        wanted = None if wanted_pids is None else frozenset(wanted_pids)
        self._build_ros(readers, wanted)
        self.sched = self._build_sched(readers, wanted)

    # -- ROS stream: walk columns + cross-node tables ----------------------

    def _build_ros(
        self, readers: Sequence[Any], wanted: Optional[frozenset]
    ) -> None:
        self._by_pid: Dict[int, WalkColumns] = {}
        self.writes: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        self.writer_cb: Dict[int, Optional[str]] = {}
        self.take_responses: Dict[TopicKey, List[Tuple[int, Any]]] = {}
        self.dispatch_after: Dict[int, bool] = {}
        if not readers:
            return

        current_cb: Dict[int, Optional[str]] = {}
        pending_p13: Dict[int, List[int]] = {}
        #: pid -> bound (ts, code, aux) append methods of the pid's walk
        #: columns, so the per-row hot loops skip attribute lookups.
        appenders: Dict[int, tuple] = {}
        if _runs_are_time_ordered(readers):
            # The common case: seeded batch runs stagger their clock
            # bases, so run streams are time-disjoint in run-id order
            # and the chronological merge is plain concatenation --
            # each segment's columns are consumed in bulk with no heap
            # and no per-row generator frames or tuples.
            index = 0
            for reader in readers:
                index = self._consume_reader(
                    reader, wanted, index, current_cb, pending_p13, appenders
                )
        else:
            # Overlapping runs: k-way merge of per-reader row streams.
            # The (ts, order, row) int prefixes are unique, so plain
            # tuple comparison merges chronologically with ties in run
            # order and the aux slot is never compared.
            streams = [
                reader.walk_rows(order) for order, reader in enumerate(readers)
            ]
            rows = streams[0] if len(streams) == 1 else _heap_merge(*streams)
            self._consume_rows(rows, wanted, 0, current_cb, pending_p13, appenders)

    # The two _consume_* bodies are the same association state machine
    # as TraceIndex._build (positional indices of the merged stream):
    # _consume_columns over a time-ordered segment's whole columns,
    # _consume_rows over pre-assembled row tuples (heap-merged
    # overlapping runs, in-memory legacy runs).  The store equivalence
    # suites pin both against the in-memory pipeline.

    def _consume_reader(
        self,
        reader: Any,
        wanted: Optional[frozenset],
        index: int,
        current_cb: Dict[int, Optional[str]],
        pending_p13: Dict[int, List[int]],
        appenders: Dict[int, tuple],
    ) -> int:
        """One reader as the next run of a time-ordered merge: a
        segment's columns in bulk, an in-memory run's rows one by
        one."""
        fastpath = getattr(reader, "walk_fastpath", None)
        if fastpath is None:
            return self._consume_rows(
                reader.walk_rows(0), wanted, index, current_cb, pending_p13,
                appenders,
            )
        return self._consume_columns(
            fastpath(), wanted, index, current_cb, pending_p13
        )

    def _walk_appender(self, appenders: Dict[int, tuple], pid: int) -> tuple:
        """First-row setup of a PID's walk columns + bound appends.

        Reuses columns an earlier column-consumer pass already created
        for the PID -- a store mixing binary and in-memory runs
        interleaves both consumers, which must extend the same
        columns."""
        walk = self._by_pid.get(pid)
        if walk is None:
            walk = self._by_pid[pid] = ([], bytearray(), [])
        bound = appenders[pid] = (
            walk[0].append, walk[1].append, walk[2].append,
        )
        return bound

    def _consume_columns(
        self,
        columns: Tuple,
        wanted: Optional[frozenset],
        index: int,
        current_cb: Dict[int, Optional[str]],
        pending_p13: Dict[int, List[int]],
    ) -> int:
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
        by_pid = self._by_pid
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
        # with no setter before it in this segment reads the state a
        # previous segment's consumer left in ``current_cb``.
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
                if len(setters):
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
        return index + n

    def _consume_rows(
        self,
        rows: Iterable[tuple],
        wanted: Optional[frozenset],
        index: int,
        current_cb: Dict[int, Optional[str]],
        pending_p13: Dict[int, List[int]],
        appenders: Dict[int, tuple],
    ) -> int:
        writes = self.writes
        writer_cb = self.writer_cb
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        all_wanted = wanted is None
        for ts, _order, _row, pid, code, aux in rows:
            if code and (all_wanted or pid in wanted):
                try:
                    append_ts, append_code, append_aux = appenders[pid]
                except KeyError:
                    append_ts, append_code, append_aux = self._walk_appender(
                        appenders, pid
                    )
                append_ts(ts)
                append_code(code)
                append_aux(aux)
            if code >= CODE_TIMER_CALL:
                if code <= CODE_TAKE_RESPONSE:
                    current_cb[pid] = aux.get("cb_id")
                    if code == CODE_TAKE_RESPONSE:
                        pending_p13.setdefault(pid, []).append(index)
                        key = (aux.get("topic"), aux.get("src_ts"))
                        take_responses.setdefault(key, []).append((index, aux))
                elif code == CODE_DDS_WRITE:
                    writer_cb[index] = current_cb.get(pid)
                    key = (aux.get("topic"), aux.get("src_ts"))
                    writes.setdefault(key, []).append((index, aux))
                elif code == CODE_TAKE_TYPE_ERASED:
                    will_dispatch = bool(aux.get("will_dispatch"))
                    for p13_index in pending_p13.pop(pid, ()):
                        dispatch_after[p13_index] = will_dispatch
            elif code == CODE_CB_START:
                current_cb[pid] = None
            index += 1
        return index

    # -- sched stream: shard-local columnar buckets ------------------------

    @staticmethod
    def _build_sched(
        readers: Sequence[Any], wanted: Optional[frozenset]
    ) -> SchedIndex:
        """Per-PID (timestamps, flags) buckets from the int columns.

        Bucketing per reader then stably ts-merging per PID yields the
        exact buckets :class:`SchedIndex` builds from the merged event
        stream, because a PID's merged-stream subsequence is ordered by
        the same ``(ts, run order, row order)`` comparator.
        """
        partials: Dict[int, List[Tuple[array, bytearray]]] = {}
        for reader in readers:
            local = StoreTraceIndex._reader_sched_buckets(reader, wanted)
            for pid, bucket in local.items():
                partials.setdefault(pid, []).append(bucket)

        buckets: Dict[int, Tuple[array, bytearray]] = {}
        for pid, parts in partials.items():
            if len(parts) == 1:
                buckets[pid] = parts[0]
            else:
                times = array("q")
                flags = bytearray()
                for ts, flag in _heap_merge(
                    *(zip(*part) for part in parts), key=itemgetter(0)
                ):
                    times.append(ts)
                    flags.append(flag)
                buckets[pid] = (times, flags)
        return SchedIndex.from_buckets(buckets)

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

    # -- views -------------------------------------------------------------

    def pids(self) -> List[int]:
        """PIDs with walk columns (the wanted subset), ascending."""
        return sorted(self._by_pid)

    def walk_for_pid(self, pid: int) -> WalkColumns:
        """The PID's parallel (timestamps, codes, aux) walk columns."""
        return self._by_pid.get(pid, _EMPTY_WALK)
