"""Incremental model maintenance: the append-aware store index.

The batch pipeline rebuilds :class:`~repro.store.index.StoreTraceIndex`
from every stored segment on each synthesis.  The live service instead
maintains one :class:`LiveStoreIndex` across segment arrivals:
``extend(reader)`` consumes exactly one more segment's columns with the
association state machine's mutable state (`current_cb`, pending P13
rows, the running stream position, bound walk-column appenders)
persisted between calls -- so consuming segments one at a time *is* the
batch build's per-reader loop, just spread over time, and the resulting
walk columns, cross-node tables and sched buckets are byte-identical to
a from-scratch build at every commit point.

``extend`` is only valid while arrivals keep the batch fast-path
invariant (run ids ascending, ROS time-ranges disjoint in that order --
:func:`~repro.store.index._runs_are_time_ordered` evaluated
incrementally).  An out-of-order or time-overlapping arrival, and any
retention-window eviction, falls back to a full rebuild over the
retained readers (:meth:`LiveStoreIndex.from_readers` -- the exact
batch constructor path, including the k-way heap merge for overlapping
runs).  :class:`LiveSynthesizer` makes that policy decision per
arriving segment and tracks the observability counters.

Sched buckets are always extendable regardless of ROS ordering: the
per-reader buckets fold left with a stable 2-way timestamp merge, which
yields the same sequences as the batch n-way ``heapq.merge`` (ties
prefer the earlier reader in both), with a cheap append fast path when
the arriving bucket starts at-or-after the existing tail.
"""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass
from heapq import merge as _heap_merge
from operator import itemgetter
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.dag import TimingDag
from ..core.exec_time import SchedIndex
from ..core.extraction import EventIndex, _extract_pid_walk
from ..core.synthesis import synthesize_dag
from ..store.database import TraceStore
from ..store.index import StoreTraceIndex, _runs_are_time_ordered


class LiveStoreIndex(StoreTraceIndex):
    """A :class:`StoreTraceIndex` that grows one segment at a time.

    Starts empty; :meth:`extend` appends one reader's stream as the next
    run of the merge order.  All consumption goes through the parent's
    ``_consume_*`` bodies, so the maintained structures match the batch
    build bit for bit -- the property the service equivalence suite
    pins for every registry scenario.
    """

    __slots__ = (
        "_current_cb",
        "_pending_p13",
        "_appenders",
        "_next_index",
        "_last_ros_end",
        "_ordered",
        "_sched_buckets",
    )

    def __init__(self):  # pylint: disable=super-init-not-called
        # Deliberately does not call the batch constructor: a live index
        # starts with zero readers and accretes them via extend().
        self.pid_map: Dict[int, Optional[str]] = {}
        self._by_pid: Dict[int, Tuple[List[int], bytearray, List[Any]]] = {}
        self.writes: Dict[Any, List[Tuple[int, Any]]] = {}
        self.writer_cb: Dict[int, Optional[str]] = {}
        self.take_responses: Dict[Any, List[Tuple[int, Any]]] = {}
        self.dispatch_after: Dict[int, bool] = {}
        # Association state threaded through the batch build's
        # per-reader loop, persisted here between extends.
        self._current_cb: Dict[int, Optional[str]] = {}
        self._pending_p13: Dict[int, List[int]] = {}
        self._appenders: Dict[int, tuple] = {}
        self._next_index = 0
        #: ROS ts upper bound of the last extended segment with any ROS
        #: events -- the rolling bound _runs_are_time_ordered tracks.
        self._last_ros_end: Optional[int] = None
        #: False once built over time-overlapping runs (heap-merged
        #: positions are not resumable, so every later arrival rebuilds).
        self._ordered = True
        self._sched_buckets: Dict[int, Tuple[array, bytearray]] = {}
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    @classmethod
    def from_readers(cls, readers: Sequence[Any]) -> "LiveStoreIndex":
        """Full (re)build over ``readers`` in run-id order -- the batch
        constructor path, landing in a resumable live index when the
        runs keep the time-ordered invariant."""
        index = cls()
        for reader in readers:
            index.pid_map.update(reader.pid_map)
        if _runs_are_time_ordered(readers):
            for reader in readers:
                index._extend_ros(reader)
        else:
            index._ordered = False
            streams = [
                reader.walk_rows(order) for order, reader in enumerate(readers)
            ]
            rows = streams[0] if len(streams) == 1 else _heap_merge(*streams)
            index._next_index = index._consume_rows(
                rows, None, 0, index._current_cb, index._pending_p13,
                index._appenders,
            )
        for reader in readers:
            index._extend_sched_buckets(reader)
        index.sched = SchedIndex.from_buckets(index._sched_buckets)
        return index

    # -- appending ---------------------------------------------------------

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
        run id sorts after every previously extended run.
        """
        self.pid_map.update(reader.pid_map)
        self._extend_ros(reader)
        self._extend_sched_buckets(reader)
        # from_buckets copies only the dict (the column arrays are
        # shared), so regenerating the SchedIndex view per commit is
        # O(pids), not O(rows).
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    def _extend_ros(self, reader: Any) -> None:
        """One reader through the batch fast path, resuming the
        persisted association state."""
        self._next_index = self._consume_reader(
            reader, None, self._next_index, self._current_cb,
            self._pending_p13, self._appenders,
        )
        span = reader.ros_ts_range()
        if span is not None:
            self._last_ros_end = span[1]

    def _extend_sched_buckets(self, reader: Any) -> None:
        """Fold one reader's per-PID sched buckets into the maintained
        ones: plain append when the arriving bucket starts at-or-after
        the existing tail (ties append after, matching merge tie order),
        else a stable 2-way timestamp merge -- the left fold of which
        equals the batch n-way merge."""
        local = self._reader_sched_buckets(reader, None)
        buckets = self._sched_buckets
        for pid, bucket in local.items():
            existing = buckets.get(pid)
            if existing is None:
                buckets[pid] = bucket
            elif not existing[0] or bucket[0][0] >= existing[0][-1]:
                existing[0].extend(bucket[0])
                existing[1].extend(bucket[1])
            else:
                times = array("q")
                flags = bytearray()
                for ts, flag in _heap_merge(
                    zip(*existing), zip(*bucket), key=itemgetter(0)
                ):
                    times.append(ts)
                    flags.append(flag)
                buckets[pid] = (times, flags)


@dataclass
class ServiceCounters:
    """Observability counters of one live service (``status`` query,
    ``repro perf``'s ``service.ingest`` section)."""

    segments_ingested: int = 0
    events_indexed: int = 0
    rows_evicted: int = 0
    runs_evicted: int = 0
    extends: int = 0
    rebuilds: int = 0
    segments_rejected: int = 0
    queries_served: int = 0
    #: requests that failed with an unexpected exception (answered
    #: ``{"ok": false, "kind": "internal"}``).
    internal_errors: int = 0
    extend_s: float = 0.0
    rebuild_s: float = 0.0
    #: estimated wall-clock the incremental extends saved vs rebuilding
    #: the index from scratch at each of those commits (rebuild rate
    #: measured, or extrapolated from the extends' own per-event cost).
    saved_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "segments_ingested": self.segments_ingested,
            "events_indexed": self.events_indexed,
            "rows_evicted": self.rows_evicted,
            "runs_evicted": self.runs_evicted,
            "extends": self.extends,
            "rebuilds": self.rebuilds,
            "segments_rejected": self.segments_rejected,
            "queries_served": self.queries_served,
            "internal_errors": self.internal_errors,
            "extend_s": round(self.extend_s, 6),
            "rebuild_s": round(self.rebuild_s, 6),
            "saved_s": round(self.saved_s, 6),
        }


class LiveSynthesizer:
    """Incrementally maintained store synthesis.

    Owns a :class:`LiveStoreIndex` over the runs of ``store`` consumed
    so far and decides, per arriving run, between the in-place
    ``extend`` (arrival keeps run-id + time order) and a full rebuild
    (out-of-order arrival, time overlap, or retention eviction).
    :meth:`model` then runs the serial extraction + synthesis exactly
    as ``synthesize_from_store(store, jobs=1)`` would over the retained
    runs -- the byte-identity contract the service tests pin at every
    commit point.

    ``retain_window`` keeps only the newest N runs (run-id order) in
    the model for unbounded streams; evicted runs stay on disk but
    leave the index (a rebuild over the retained readers -- prefix
    rows cannot be dropped in place, later rows' association state and
    stream positions depend on them).
    """

    def __init__(
        self,
        store: Any,
        retain_window: Optional[int] = None,
        split_services: bool = True,
        model_sync: bool = True,
        counters: Optional[ServiceCounters] = None,
    ):
        if retain_window is not None and retain_window < 1:
            raise ValueError("retain_window must be positive")
        self.store = (
            store
            if isinstance(store, TraceStore)
            else TraceStore(store, allow_empty=True)
        )
        self.retain_window = retain_window
        self.split_services = split_services
        self.model_sync = model_sync
        self.counters = counters if counters is not None else ServiceCounters()
        #: retained run ids, ascending (the synthesis merge order).
        self._consumed: List[str] = []
        #: every run id ever ingested, including since-evicted ones --
        #: refresh() must not re-ingest an evicted run's on-disk file.
        self._seen: set = set()
        self._events_by_run: Dict[str, int] = {}
        self._index = LiveStoreIndex()
        self._dag: Optional[TimingDag] = None
        #: measured full-build seconds per event (updated by rebuilds).
        self._build_rate: Optional[float] = None

    @property
    def run_ids(self) -> List[str]:
        """Retained run ids, ascending."""
        return list(self._consumed)

    @property
    def index(self) -> LiveStoreIndex:
        return self._index

    def refresh(self) -> List[str]:
        """Pick up and ingest runs that appeared in the store directory
        since the last look (second writer processes, the drop-dir
        committer); returns the newly ingested run ids."""
        self.store.refresh()
        new = [r for r in self.store.run_ids() if r not in self._seen]
        for run_id in new:
            self.ingest(run_id)
        return new

    def ingest(self, run_id: str) -> None:
        """Fold one stored run into the maintained model."""
        if run_id in self._seen:
            raise ValueError(f"run {run_id!r} already ingested")
        if run_id not in self.store:
            raise ValueError(
                f"run {run_id!r} is not in store {self.store.directory!r}"
            )
        counters = self.counters
        events = self.store.run_info(run_id).events
        in_order = not self._consumed or run_id > self._consumed[-1]
        if in_order:
            self._consumed.append(run_id)
        else:
            insort(self._consumed, run_id)
        self._seen.add(run_id)
        self._events_by_run[run_id] = events

        evicted: List[str] = []
        if (
            self.retain_window is not None
            and len(self._consumed) > self.retain_window
        ):
            evicted = self._consumed[: len(self._consumed) - self.retain_window]
            self._consumed = self._consumed[len(evicted):]
            for old in evicted:
                counters.rows_evicted += self._events_by_run.pop(old)
            counters.runs_evicted += len(evicted)

        reader = self.store.open(run_id) if run_id in self._consumed else None
        if (
            reader is not None
            and not evicted
            and in_order
            and self._index.can_append(reader)
        ):
            started = perf_counter()
            self._index.extend(reader)
            elapsed = perf_counter() - started
            counters.extends += 1
            counters.extend_s += elapsed
            total = sum(self._events_by_run.values())
            rate = self._build_rate
            if rate is None:
                # No rebuild measured yet: extrapolate from the extends'
                # own per-event cost (a from-scratch build consumes the
                # same columns through the same loops).
                processed = counters.events_indexed + events
                rate = counters.extend_s / processed if processed else 0.0
            counters.saved_s += max(0.0, rate * total - elapsed)
        else:
            self._rebuild()
        counters.segments_ingested += 1
        counters.events_indexed += events
        self._dag = None

    def _rebuild(self) -> None:
        counters = self.counters
        started = perf_counter()
        readers = [self.store.open(run_id) for run_id in self._consumed]
        self._index = LiveStoreIndex.from_readers(readers)
        elapsed = perf_counter() - started
        counters.rebuilds += 1
        counters.rebuild_s += elapsed
        total = sum(self._events_by_run.values())
        if total:
            self._build_rate = elapsed / total

    def model(self) -> TimingDag:
        """The timing DAG over the retained runs -- byte-identical to
        ``synthesize_from_store(store_of_retained_runs, jobs=1)``.
        Cached until the next ingest."""
        if self._dag is None:
            index = self._index
            wanted = sorted(index.pid_map)
            event_index = EventIndex(trace_index=index)
            pid_map = index.pid_map
            cblists = []
            for pid in wanted:
                timestamps, codes, aux = index.walk_for_pid(pid)
                cblists.append(
                    _extract_pid_walk(
                        pid, timestamps, codes, aux, index.sched, event_index,
                        pid_map.get(pid, ""),
                    )
                )
            self._dag = synthesize_dag(
                cblists,
                split_services=self.split_services,
                model_sync=self.model_sync,
            )
        return self._dag
