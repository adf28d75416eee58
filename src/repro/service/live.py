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

A retention-window eviction drops the oldest run in place
(``evict_oldest``), so a steady windowed stream costs one run of work
per arrival, not one window.  Each extend notes what its run added:
per-PID walk and sched row counts, the table keys it introduced, the
writes that read a ``current_cb`` value carried in from earlier runs,
and which PIDs set ``current_cb``.  Eviction cuts those prefixes,
removes table and pending-P13 entries below the cut position, rebuilds
``pid_map`` from the retained runs, and resets to None every carried
``current_cb`` value a from-scratch build would not have seen.  Stream
positions stay absolute -- they are only lookup keys and FIFO order, so
an offset changes no result.

``extend`` is only valid while arrivals keep the batch fast-path
invariant (run ids ascending, ROS time-ranges disjoint in that order --
:func:`~repro.store.index._runs_are_time_ordered` evaluated
incrementally).  A full rebuild over the retained readers
(:meth:`LiveStoreIndex.from_readers` -- the exact batch constructor
path, including the k-way heap merge for overlapping runs) still
happens for an out-of-order arrival, a time-overlapping arrival (and
every arrival after one, until a rebuild finds the window ordered
again), and an eviction whose run shares a merged sched bucket with a
later run.  :class:`LiveSynthesizer` makes that policy decision per
arriving segment and tracks the observability counters.

Sched buckets are always extendable regardless of ROS ordering: the
per-reader buckets fold left with a stable 2-way timestamp merge, which
yields the same sequences as the batch n-way ``heapq.merge`` (ties
prefer the earlier reader in both), with a cheap append fast path when
the arriving bucket starts at-or-after the existing tail.  A bucket the
merge built interleaves runs, so its prefix cannot be cut in place.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass
from heapq import merge as _heap_merge
from itertools import islice
from operator import itemgetter
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.latency import LatencyIndex
from ..core.dag import TimingDag
from ..core.exec_time import SchedIndex
from ..core.extraction import EventIndex, _extract_pid_walk
from ..core.synthesis import synthesize_dag
from ..store.database import TraceStore
from ..store.index import StoreTraceIndex, _runs_are_time_ordered


class _Carried:
    """Stand-in for a PID's ``current_cb`` value carried into a run, so
    the writes that read it can be found after the run is consumed."""

    __slots__ = ("pid", "value")

    def __init__(self, pid: int, value: Optional[str]):
        self.pid = pid
        self.value = value


class _RunExtent:
    """What one extended run contributed to a :class:`LiveStoreIndex`,
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


class LiveStoreIndex(StoreTraceIndex):
    """A :class:`StoreTraceIndex` that grows one segment at a time and
    drops its oldest run in place.

    Starts empty; :meth:`extend` appends one reader's stream as the next
    run of the merge order and :meth:`evict_oldest` removes the first.
    All consumption goes through the parent's ``_consume_*`` bodies, so
    the maintained structures match the batch build over the retained
    runs bit for bit -- the property the service equivalence suite
    pins for every registry scenario -- except that stream positions
    stay absolute: after an eviction they are offset by the evicted
    rows, which no lookup can observe (positions are only table keys
    and FIFO order).
    """

    __slots__ = (
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
        #: PIDs whose sched bucket interleaves several runs' entries
        #: (built by the 2-way merge): no run prefix can be cut from it.
        self._merged_sched: set = set()
        #: the extended runs, oldest first (empty when not _ordered).
        self._runs: List[_RunExtent] = []
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    @classmethod
    def from_readers(cls, readers: Sequence[Any]) -> "LiveStoreIndex":
        """Full (re)build over ``readers`` in run-id order -- the batch
        constructor path, landing in a resumable live index when the
        runs keep the time-ordered invariant."""
        index = cls()
        if _runs_are_time_ordered(readers):
            for reader in readers:
                index.extend(reader)
            return index
        index._ordered = False
        for reader in readers:
            index.pid_map.update(reader.pid_map)
        streams = [
            reader.walk_rows(order) for order, reader in enumerate(readers)
        ]
        rows = streams[0] if len(streams) == 1 else _heap_merge(*streams)
        index._next_index = index._consume_rows(
            rows, None, 0, index._current_cb, index._pending_p13,
            index._appenders,
        )
        for reader in readers:
            index._extend_sched_buckets(reader, None)
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
        run = _RunExtent(self._next_index, reader.pid_map)
        self.pid_map.update(reader.pid_map)
        self._extend_ros(reader, run)
        self._extend_sched_buckets(reader, run)
        self._runs.append(run)
        # from_buckets copies only the dict (the column arrays are
        # shared), so regenerating the SchedIndex view per commit is
        # O(pids), not O(rows).
        self.sched = SchedIndex.from_buckets(self._sched_buckets)

    def _extend_ros(self, reader: Any, run: _RunExtent) -> None:
        """One reader through the batch fast path, resuming the
        persisted association state, and noting in ``run`` what the
        reader added."""
        by_pid = self._by_pid
        walk_before = {pid: len(walk[0]) for pid, walk in by_pid.items()}
        writes, responses, writer_cb = (
            self.writes, self.take_responses, self.writer_cb,
        )
        tables_before = (len(writes), len(responses), len(writer_cb))
        current_cb = self._current_cb
        for pid, value in current_cb.items():
            current_cb[pid] = _Carried(pid, value)
        self._next_index = self._consume_reader(
            reader, None, self._next_index, current_cb,
            self._pending_p13, self._appenders,
        )
        run.stop = self._next_index
        run.walk_rows = {
            pid: len(walk[0]) - walk_before.get(pid, 0)
            for pid, walk in by_pid.items()
            if len(walk[0]) != walk_before.get(pid, 0)
        }
        # Tables only ever gain keys here, so the run's new keys (and
        # its writer_cb positions) are the dicts' insertion tails.
        for table, before, keys in zip(
            (writes, responses), tables_before, run.keys
        ):
            keys.extend(islice(reversed(table), len(table) - before))
        carried = [
            (position, value)
            for position, value in islice(
                reversed(writer_cb.items()), len(writer_cb) - tables_before[2]
            )
            if type(value) is _Carried
        ]
        for position, value in carried:
            run.carried.setdefault(value.pid, []).append(position)
            writer_cb[position] = value.value
        for pid, value in current_cb.items():
            if type(value) is _Carried:
                current_cb[pid] = value.value
            else:
                run.setters.add(pid)
        span = reader.ros_ts_range()
        if span is not None:
            self._last_ros_end = run.ros_end = span[1]

    def _extend_sched_buckets(
        self, reader: Any, run: Optional[_RunExtent]
    ) -> None:
        """Fold one reader's per-PID sched buckets into the maintained
        ones: append when the arriving bucket starts at-or-after the
        existing tail (ties append after, matching merge tie order),
        else a stable 2-way timestamp merge -- the left fold of which
        equals the batch n-way merge.

        Maintained columns are replaced, never resized: a
        :class:`SchedIndex` handed out earlier may hold numpy views on
        them, which forbid resizing."""
        local = self._reader_sched_buckets(reader, None)
        buckets = self._sched_buckets
        for pid, bucket in local.items():
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
    #: per-run latency fragments built by ``latency`` queries and kept
    #: for later queries (one per retained run while the cache holds).
    latency_fragments_built: int = 0
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
            "latency_fragments_built": self.latency_fragments_built,
            "extend_s": round(self.extend_s, 6),
            "rebuild_s": round(self.rebuild_s, 6),
            "saved_s": round(self.saved_s, 6),
        }


class LiveSynthesizer:
    """Incrementally maintained store synthesis.

    Owns a :class:`LiveStoreIndex` over the runs of ``store`` consumed
    so far and decides, per arriving run, between the in-place
    ``extend`` (arrival keeps run-id + time order) and a full rebuild
    (out-of-order arrival, time overlap, or a retention eviction the
    index cannot make in place because the evicted run's sched buckets
    were merged with a later run's).
    :meth:`model` then runs the serial extraction + synthesis exactly
    as ``synthesize_from_store(store, jobs=1)`` would over the retained
    runs -- the byte-identity contract the service tests pin at every
    commit point.

    ``retain_window`` keeps only the newest N runs (run-id order) in
    the model for unbounded streams; evicted runs stay on disk but
    leave the index (dropped in place by
    :meth:`LiveStoreIndex.evict_oldest`).  A run arriving older than
    the whole full window is evicted on arrival and leaves the index
    untouched.

    The synthesizer also holds the per-run latency fragments queries
    have built for retained runs (:meth:`latency_fragments`); a
    fragment leaves with its run's eviction.
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
        #: retained run id -> its complete latency fragment.
        self._fragments: Dict[str, LatencyIndex] = {}

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
        self._seen.add(run_id)
        counters.segments_ingested += 1
        counters.events_indexed += events
        consumed = self._consumed
        window = self.retain_window
        if window is not None and len(consumed) >= window and run_id < consumed[0]:
            # Older than the whole full window: evicted on arrival, so
            # the retained runs -- and the index -- stay as they are.
            counters.runs_evicted += 1
            counters.rows_evicted += events
            return
        in_order = not consumed or run_id > consumed[-1]
        if in_order:
            consumed.append(run_id)
        else:
            insort(consumed, run_id)
        self._events_by_run[run_id] = events
        evicted: List[str] = []
        if window is not None and len(consumed) > window:
            evicted = consumed[: len(consumed) - window]
            del consumed[: len(evicted)]
            for old in evicted:
                counters.rows_evicted += self._events_by_run.pop(old)
                self._fragments.pop(old, None)
            counters.runs_evicted += len(evicted)
        self._dag = None

        reader = self.store.open(run_id)
        if not (in_order and self._index.can_append(reader)):
            self._rebuild()
            return
        started = perf_counter()
        for _ in evicted:
            if not self._index.evict_oldest():
                self._rebuild()
                return
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
            processed = counters.events_indexed
            rate = counters.extend_s / processed if processed else 0.0
        counters.saved_s += max(0.0, rate * total - elapsed)

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

    def latency_fragments(self) -> Dict[str, LatencyIndex]:
        """A copy of the cached latency fragments of the retained runs,
        for a query snapshot to complete outside the service lock (see
        :func:`~repro.analysis.store.latency_index_from_store`)."""
        return dict(self._fragments)

    def keep_latency_fragments(self, fragments: Dict[str, LatencyIndex]) -> None:
        """Cache the complete fragments a query built, for the runs that
        are still retained."""
        cache = self._fragments
        retained = set(self._consumed)
        for run_id, fragment in fragments.items():
            if run_id in retained and run_id not in cache:
                cache[run_id] = fragment
                self.counters.latency_fragments_built += 1

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
