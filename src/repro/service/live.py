"""Incremental model maintenance for the live service.

The batch pipeline builds a :class:`~repro.store.index.StoreTraceIndex`
over every stored segment on each synthesis.  :class:`LiveSynthesizer`
instead keeps one such index across segment arrivals and grows it with
``extend(reader)`` -- the same per-run append the batch constructor runs
for time-ordered runs, just spread over time -- so the walk columns,
cross-node tables and sched buckets are byte-identical to a
from-scratch build at every commit point.  A retention-window eviction
drops the oldest run in place (``evict_oldest``), so a steady windowed
stream costs one run of work per arrival, not one window.

A full rebuild over the retained readers (``StoreTraceIndex(readers)``)
still happens for an out-of-order arrival, a time-overlapping arrival
(and every arrival after one, until a rebuild finds the window ordered
again), and an eviction the index refuses because the evicted run
shares a merged sched bucket with a later run.  :class:`LiveSynthesizer`
makes that decision per arriving segment and tracks the
:class:`ServiceCounters`.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..analysis.latency import LatencyIndex
from ..core.dag import TimingDag
from ..core.synthesis import synthesize_dag
from ..store.database import TraceStore
from ..store.index import StoreTraceIndex
from ..store.synthesis import _extract_index_cblists


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

    Owns a :class:`~repro.store.index.StoreTraceIndex` over the runs of
    ``store`` consumed so far and decides, per arriving run, between the in-place
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
    :meth:`~repro.store.index.StoreTraceIndex.evict_oldest`).  A run arriving older than
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
        self._index = StoreTraceIndex()
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
    def index(self) -> StoreTraceIndex:
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
        self._index = StoreTraceIndex(readers)
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
            self._dag = synthesize_dag(
                _extract_index_cblists(index, sorted(index.pid_map)),
                split_services=self.split_services,
                model_sync=self.model_sync,
            )
        return self._dag
