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

The Alg. 1/2 walk is kept per run too: after an in-place extend, only
the new run's PIDs are walked, and the run's CBLists are cached as its
walk fragment until the run leaves the window, beside the fragment's
records folded per vertex key
(:func:`~repro.core.synthesis.fold_records`) and, once a model JSON
query has asked for them, its sample lists rendered as model JSON
(:func:`~repro.core.export.render_samples`).
A fragment is only valid while nothing another retained run added
reaches it (the rule of :class:`_WalkFragments`: no shared stateful
PID, no shared service key); while any two retained runs share, the
model re-walks every retained PID over the index instead, exactly as
batch synthesis does.  Recorded streams never share -- each run has
its own PIDs, above the previous run's, and its own clock -- so there
the model merges the runs' folds and runs only DAG synthesis's
structural pass over the window
(:func:`~repro.core.synthesis.dag_from_fold`), and a model JSON query
joins the runs' rendered sample lists: an arrival walks, folds and
(for JSON) renders one run.

A full rebuild over the retained readers (``StoreTraceIndex(readers)``)
still happens for an out-of-order arrival, a time-overlapping arrival
(and every arrival after one, until a rebuild finds the window ordered
again), and an eviction the index refuses because the evicted run
shares a merged sched bucket with a later run.  A rebuild drops every
walk fragment; the next model walks each retained run once.
:class:`LiveSynthesizer` makes these decisions per arriving segment and
tracks the :class:`ServiceCounters`.

Each arriving run is decoded once, before any state changes
(:func:`~repro.store.index.resolve_run`: the resolved ROS columns, the
payload rows they reference, the sched and wakeup columns), so a
corrupt segment is rejected whole.  The same resolved columns feed the
index extend and the run's
:class:`~repro.analysis.latency.LatencyIndex` fragment, which is built
at ingest and kept while the run is retained -- a rebuild keeps it,
since it depends on its run only.  A latency query follows chains over
those fragments and opens no segment; the journeys of the last-queried
chain are cached per run, so after an arrival only the new run's
writes are followed (:func:`~repro.analysis.latency.chain_latencies`).
The check that no journey crosses runs (C-level set operations over
the window) runs on the first query after an arrival; what stays
O(window) per query is joining the runs' journeys.  A window that
fails the check is concatenated and followed whole, and a
time-overlapping window needs one index over the runs' merged
columns, built from the segments on the first query after an arrival.
A query takes its inputs as a :class:`LatencyView` under the service
lock and does that work outside it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, fields
from operator import attrgetter
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..analysis.latency import ChainLatency, LatencyIndex, fragments_are_separable
from ..analysis.store import _merged_latency_index
from ..core.dag import TimingDag
from ..core.export import RenderedSamples, render_samples
from ..core.gcpause import paused_gc
from ..core.index import CODE_DDS_WRITE, CODE_TAKE_REQUEST, TopicKey
from ..core.records import CBList
from ..core.synthesis import (
    CallbackFold,
    dag_from_fold,
    fold_records,
    merge_folds,
    synthesize_dag,
)
from ..store.database import TraceStore
from ..store.format import StoreFormatError
from ..store.index import (
    ResolvedRun,
    StoreTraceIndex,
    _spans_are_ordered,
    resolve_run,
)
from ..store.synthesis import _extract_index_cblists
from .state import MODEL_JSON_INDENT


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
    #: per-run latency fragments, built at ingest: one per run that
    #: enters the window.
    latency_fragments_built: int = 0
    #: per-run Alg. 1 walk fragments built (one per in-order arrival
    #: while no retained runs share state).
    walk_fragments_built: int = 0
    #: walk fragments whose sample lists a model JSON query rendered:
    #: at most one per walk fragment built, none per repeated query.
    model_runs_rendered: int = 0
    #: PIDs walked by full re-walks, taken while retained runs share a
    #: stateful PID or a service key.
    pids_rewalked: int = 0
    #: segments whose columns the service resolved: one per ingested
    #: run, plus every retained run at a rebuild and at a latency query
    #: over a time-overlapping window.
    segments_decoded: int = 0
    extend_s: float = 0.0
    rebuild_s: float = 0.0
    #: estimated wall-clock the incremental extends saved vs rebuilding
    #: the index from scratch at each of those commits (rebuild rate
    #: measured, or extrapolated from the extends' own per-event cost).
    saved_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        for field in fields(self):
            value = getattr(self, field.name)
            values[field.name] = (
                round(value, 6) if isinstance(value, float) else value
            )
        return values


#: ``kind`` of the writes FindCaller and FindClient match.
_SERVICE_WRITES = ("request", "response")


def _service_keys(
    index: StoreTraceIndex, extent: Any, starts: Dict[int, int]
) -> Set[TopicKey]:
    """The ``(topic, src_ts)`` keys of one run's service rows -- request
    and response takes and writes, the keys FindCaller and FindClient
    match.  ``starts`` maps a PID to the run's first row in the PID's
    walk columns (0 when absent) and is advanced past the run."""
    keys: Set[TopicKey] = set()
    for pid, count in extent.walk_rows.items():
        _ts, codes, aux = index.walk_for_pid(pid)
        start = starts.get(pid, 0)
        starts[pid] = stop = start + count
        for code, data in zip(codes[start:stop], aux[start:stop]):
            if CODE_TAKE_REQUEST <= code <= CODE_DDS_WRITE and (
                code != CODE_DDS_WRITE or data.get("kind") in _SERVICE_WRITES
            ):
                keys.add((data.get("topic"), data.get("src_ts")))
    return keys


class _WalkFragments:
    """One cached Alg. 1 walk fragment per retained run -- the CBLists
    of the PIDs the run names, ascending, with their records folded per
    vertex key and, once asked for, their sample lists rendered as
    model JSON -- and the rule that says when the fragments add up to a
    full walk over the window.

    A run's fragment is its share of the full walk as long as nothing
    another retained run added reaches it.  Two runs *share* when

    (a) a stateful PID of one -- a PID it names (Alg. 1 reads the PID's
        walk columns and sched bucket) or sets ``current_cb`` for (the
        state later runs' writes carry and eviction rewrites, and the
        P13 rows a later P14 pairs with) -- has rows in the other; or
    (b) both hold service rows under one ``(topic, src_ts)`` key:
        FindCaller's FIFO cursor is shared per key across one walk, and
        FindClient reads every take of the key.

    A shared run's fragment is dropped, and none is built until its
    partners have left.  PIDs that only write plain topics (publishers
    outside the traced nodes, all under one PID) never share.
    """

    def __init__(self) -> None:
        #: retained run id -> CBLists of its named PIDs, ascending.
        self.fragments: Dict[str, List[CBList]] = {}
        #: retained run id -> its fragment's records, folded.
        self.folds: Dict[str, CallbackFold] = {}
        #: retained run id -> its fold's rendered sample lists, once a
        #: model JSON query asked for them.
        self.samples: Dict[str, RenderedSamples] = {}
        #: retained run id -> its named PIDs, ascending.
        self.pids: Dict[str, List[int]] = {}
        #: retained run id -> its ("touch" | "state" | "key", value)
        #: entries.
        self._entries: Dict[str, List[Tuple[str, Any]]] = {}
        #: entry -> retained runs holding it.
        self._holders: Dict[Tuple[str, Any], Set[str]] = {}
        #: retained run id -> retained runs it shares with.
        self._shares: Dict[str, Set[str]] = {}

    def add(self, run_id: str, extent: Any, keys: Set[TopicKey]) -> bool:
        """Track one more retained run (``extent`` is its
        :class:`~repro.store.index.StoreTraceIndex` run extent); returns
        True when it shares with no other run."""
        stateful = set(extent.pid_map).union(extent.setters)
        touched = stateful.union(extent.walk_rows, extent.sched_rows)
        holders = self._holders
        partners: Set[str] = set()
        for pid in touched:
            partners.update(holders.get(("state", pid), ()))
        for pid in stateful:
            partners.update(holders.get(("touch", pid), ()))
        for key in keys:
            partners.update(holders.get(("key", key), ()))
        entries = [("touch", pid) for pid in touched]
        entries += [("state", pid) for pid in stateful]
        entries += [("key", key) for key in keys]
        for entry in entries:
            holders.setdefault(entry, set()).add(run_id)
        self._entries[run_id] = entries
        self.pids[run_id] = sorted(extent.pid_map)
        self._shares[run_id] = partners
        for other in partners:
            self._shares[other].add(run_id)
            self._forget(other)
        return not partners

    def _forget(self, run_id: str) -> None:
        self.fragments.pop(run_id, None)
        self.folds.pop(run_id, None)
        self.samples.pop(run_id, None)

    def drop(self, run_id: str) -> None:
        """Forget a run that left the window, with its fragment."""
        holders = self._holders
        for entry in self._entries.pop(run_id):
            runs = holders[entry]
            runs.discard(run_id)
            if not runs:
                del holders[entry]
        for other in self._shares.pop(run_id):
            self._shares[other].discard(run_id)
        self._forget(run_id)
        del self.pids[run_id]

    def complete(self) -> bool:
        """True when no two retained runs share: every fragment, cached
        or still to build, is valid."""
        return not any(self._shares.values())

    def ascending(self, run_ids: Sequence[str]) -> bool:
        """True when each of ``run_ids``' runs names only PIDs above the
        previous runs': the runs' fragments, concatenated in order, are
        then in sorted-PID order."""
        highest = None
        for run_id in run_ids:
            pids = self.pids[run_id]
            if pids:
                if highest is not None and pids[0] <= highest:
                    return False
                highest = pids[-1]
        return True


class LiveSynthesizer:
    """Incrementally maintained store synthesis.

    Owns a :class:`~repro.store.index.StoreTraceIndex` over the runs of
    ``store`` consumed so far and decides, per arriving run, between the in-place
    ``extend`` (arrival keeps run-id + time order) and a full rebuild
    (out-of-order arrival, time overlap, or a retention eviction the
    index cannot make in place because the evicted run's sched buckets
    were merged with a later run's).
    :meth:`model` then produces exactly the DAG
    ``synthesize_from_store(store, jobs=1)`` would over the retained
    runs -- the byte-identity contract the service tests pin at every
    commit point.

    The walk is cached per run: an in-place extend walks the new run's
    PIDs into a walk fragment (``walk_fragments_built``), and
    :meth:`model` assembles the retained runs' fragments, walking only
    runs that have none (after a rebuild).  While two retained runs
    share a stateful PID or a service key (:class:`_WalkFragments`), or
    the index is sort-merged over overlapping runs, :meth:`model`
    re-walks every retained PID over the index instead
    (``pids_rewalked``).

    ``retain_window`` keeps only the newest N runs (run-id order) in
    the model for unbounded streams; evicted runs stay on disk but
    leave the index (dropped in place by
    :meth:`~repro.store.index.StoreTraceIndex.evict_oldest`) and take
    their walk fragment along.  A run arriving older than the whole
    full window is evicted on arrival and leaves the index untouched.

    A run whose segment cannot be read is rejected before any state
    changes: :meth:`ingest` raises, and :meth:`refresh` skips it for
    good (``segments_rejected``) and ingests the runs after it.

    Each retained run also has its latency fragment, built at ingest
    from the run's resolved columns, and the journeys of the
    last-queried chain through it (:meth:`latency_view`,
    :meth:`keep_latency`); both leave with the run's eviction.

    :meth:`ingest`, :meth:`refresh`, :meth:`model` and
    :meth:`model_samples` run with the cyclic collector paused
    (:class:`~repro.core.gcpause.paused_gc`): they make no reference
    cycles, so a collection during one would only re-scan the retained
    index, fragments and folds.
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
        #: every run id ever ingested or rejected, including since-evicted
        #: ones -- refresh() must not re-ingest an evicted run's on-disk
        #: file.
        self._seen: set = set()
        self._events_by_run: Dict[str, int] = {}
        self._index = StoreTraceIndex()
        self._dag: Optional[TimingDag] = None
        #: True when ``_dag`` was merged from the runs' folds.
        self._merged = False
        #: measured full-build seconds per event (updated by rebuilds).
        self._build_rate: Optional[float] = None
        #: retained run id -> its latency fragment.
        self._latency: Dict[str, LatencyIndex] = {}
        #: one index over a time-overlapping window's merged columns,
        #: built on the first latency query after an arrival.
        self._merged_latency: Optional[LatencyIndex] = None
        #: fragments_are_separable over the window's latency fragments,
        #: found by the first latency query after an arrival.
        self._separable: Optional[bool] = None
        #: the last-queried chain, and its journeys per retained run's
        #: latency fragment.
        self._journey_topics: Tuple[str, ...] = ()
        self._journeys: Dict[LatencyIndex, List[ChainLatency]] = {}
        #: the retained runs' walk fragments; None while the index is
        #: sort-merged (it keeps no run extents to check sharing with).
        self._walks: Optional[_WalkFragments] = _WalkFragments()

    @property
    def run_ids(self) -> List[str]:
        """Retained run ids, ascending."""
        return list(self._consumed)

    @property
    def index(self) -> StoreTraceIndex:
        return self._index

    @paused_gc()
    def refresh(self) -> List[str]:
        """Pick up and ingest runs that appeared in the store directory
        since the last look (second writer processes, the drop-dir
        committer); returns the newly ingested run ids.  A run whose
        segment cannot be read is counted in ``segments_rejected`` and
        never looked at again."""
        self.store.refresh()
        ingested = []
        for run_id in self.store.run_ids():
            if run_id in self._seen:
                continue
            try:
                resolved = resolve_run(self.store.open(run_id))
            except StoreFormatError:
                self._seen.add(run_id)
                self.counters.segments_rejected += 1
                continue
            self._fold(run_id, resolved)
            ingested.append(run_id)
        return ingested

    @paused_gc()
    def ingest(self, run_id: str, resolved: Optional[ResolvedRun] = None) -> None:
        """Fold one stored run into the maintained model.  ``resolved``
        is the run's segment as its validation decoded it
        (:attr:`~repro.service.ingest.IngestResult.resolved`); without
        it the run is opened and decoded here, and a segment that
        cannot be read raises
        :class:`~repro.store.format.StoreFormatError` with nothing
        changed."""
        if run_id in self._seen:
            raise ValueError(f"run {run_id!r} already ingested")
        if run_id not in self.store:
            raise ValueError(
                f"run {run_id!r} is not in store {self.store.directory!r}"
            )
        if resolved is None:
            resolved = resolve_run(self.store.open(run_id))
        self._fold(run_id, resolved)

    def _fold(self, run_id: str, resolved: ResolvedRun) -> None:
        counters = self.counters
        reader = resolved.reader
        events = resolved.events
        self._seen.add(run_id)
        counters.segments_ingested += 1
        counters.segments_decoded += 1
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
        self._latency[run_id] = LatencyIndex(
            resolved.columns, reader.wakeup_pid_columns()
        )
        counters.latency_fragments_built += 1
        evicted: List[str] = []
        if window is not None and len(consumed) > window:
            evicted = consumed[: len(consumed) - window]
            del consumed[: len(evicted)]
            for old in evicted:
                counters.rows_evicted += self._events_by_run.pop(old)
                self._journeys.pop(self._latency.pop(old), None)
                if self._walks is not None:
                    self._walks.drop(old)
            counters.runs_evicted += len(evicted)
        self._dag = None
        self._merged_latency = None
        self._separable = None

        if not (in_order and self._index.can_append(reader)):
            self._rebuild(run_id, reader)
            return
        started = perf_counter()
        for _ in evicted:
            if not self._index.evict_oldest():
                self._rebuild(run_id, reader)
                return
        self._index.extend(reader, resolved.columns)
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

        # An in-place extend keeps the index ordered, so _walks is set.
        # The new run's rows are the tails of its PIDs' walk columns.
        index = self._index
        extent = index.runs()[-1]
        starts = {
            pid: len(index.walk_for_pid(pid)[0]) - count
            for pid, count in extent.walk_rows.items()
        }
        if self._walks.add(run_id, extent, _service_keys(index, extent, starts)):
            self._walk(run_id)

    def _rebuild(self, run_id: str, reader: Any) -> None:
        """A new index over the retained runs; ``reader`` is the arriving
        run ``run_id``'s, whose sections are already inflated."""
        counters = self.counters
        started = perf_counter()
        readers = [
            reader if retained == run_id else self.store.open(retained)
            for retained in self._consumed
        ]
        self._index = StoreTraceIndex(readers)
        counters.segments_decoded += len(readers)
        elapsed = perf_counter() - started
        counters.rebuilds += 1
        counters.rebuild_s += elapsed
        total = sum(self._events_by_run.values())
        if total:
            self._build_rate = elapsed / total
        # Every fragment goes; model() walks each retained run once.
        extents = self._index.runs()
        if len(extents) != len(self._consumed):
            self._walks = None  # sort-merged: no run extents
            return
        self._walks = walks = _WalkFragments()
        starts: Dict[int, int] = {}
        for run_id, extent in zip(self._consumed, extents):
            walks.add(run_id, extent, _service_keys(self._index, extent, starts))

    def _walk(self, run_id: str) -> None:
        """Walk one retained run's PIDs into its fragment (a fresh
        :class:`~repro.core.extraction.EventIndex` per walk) and fold
        its records."""
        walks = self._walks
        cblists = _extract_index_cblists(self._index, walks.pids[run_id])
        walks.fragments[run_id] = cblists
        walks.folds[run_id] = fold_records(cblists, self.split_services)
        self.counters.walk_fragments_built += 1

    def latency_view(self, topics: Sequence[str]) -> "LatencyView":
        """What a latency query over ``topics`` follows, taken under the
        service lock and followed outside it; hand it back to
        :meth:`keep_latency` afterwards.  Only the last-queried chain's
        journeys are kept: another chain starts an empty cache."""
        topics = tuple(topics)
        if topics != self._journey_topics:
            self._journey_topics = topics
            self._journeys = {}
        return LatencyView(self, topics)

    def keep_latency(self, view: "LatencyView") -> None:
        """Keep what following ``view`` built: its merged index and
        separability while the window is unchanged, and the journeys of
        still-retained runs while its chain is the last-queried one."""
        self.counters.segments_decoded += view.decoded
        if view.run_ids == tuple(self._consumed):
            self._merged_latency = view.merged
            self._separable = view.separable
        if view.topics == self._journey_topics:
            retained = set(self._latency.values())
            self._journeys.update(
                (fragment, part)
                for fragment, part in view.journeys.items()
                if fragment in retained
            )

    def _fragments_complete(self) -> bool:
        """True when the retained runs' walk fragments add up to the
        full walk; walks the runs that have none yet."""
        walks = self._walks
        if walks is None or not walks.complete():
            return False
        for run_id in self._consumed:
            if run_id not in walks.fragments:
                self._walk(run_id)
        return True

    def _cblists(self) -> List[CBList]:
        """The CBLists of every retained PID, ascending -- the retained
        runs' walk fragments while they are all valid, else one full
        walk over the index."""
        if not self._fragments_complete():
            pids = sorted(self._index.pid_map)
            self.counters.pids_rewalked += len(pids)
            return _extract_index_cblists(self._index, pids)
        fragments = self._walks.fragments
        return sorted(
            (
                cblist
                for run_id in self._consumed
                for cblist in fragments[run_id]
            ),
            key=attrgetter("pid"),
        )

    @paused_gc()
    def model(self) -> TimingDag:
        """The timing DAG over the retained runs -- byte-identical to
        ``synthesize_from_store(store_of_retained_runs, jobs=1)``, down
        to the vertex and edge insertion order.  Cached until the next
        ingest.

        While the fragments are complete and each run's PIDs lie above
        the previous run's, the runs' folds merged in run order are the
        fold of the sorted-PID walk, so only the structural pass runs
        over the window; otherwise the walk is synthesized whole."""
        if self._dag is None:
            consumed = self._consumed
            walks = self._walks
            self._merged = self._fragments_complete() and walks.ascending(
                consumed
            )
            if self._merged:
                self._dag = dag_from_fold(
                    merge_folds([walks.folds[run_id] for run_id in consumed]),
                    model_sync=self.model_sync,
                )
            else:
                self._dag = synthesize_dag(
                    self._cblists(),
                    split_services=self.split_services,
                    model_sync=self.model_sync,
                )
        return self._dag

    @paused_gc()
    def model_samples(self) -> Optional[Tuple[RenderedSamples, ...]]:
        """The sample lists of the retained runs :meth:`model` was merged
        from, rendered for ``dag_to_json(model, MODEL_JSON_INDENT,
        samples=...)``, in run order; None when the model was
        synthesized whole.  A run is rendered on the first call that
        needs it and kept with its fold (``model_runs_rendered``).
        Each run's rendering is immutable, so the tuple is a
        snapshot."""
        self.model()
        if not self._merged:
            return None
        walks = self._walks
        for run_id in self._consumed:
            if run_id not in walks.samples:
                walks.samples[run_id] = render_samples(
                    walks.folds[run_id].vertices.values(), indent=MODEL_JSON_INDENT
                )
                self.counters.model_runs_rendered += 1
        return tuple(walks.samples[run_id] for run_id in self._consumed)


class LatencyView:
    """One latency query's inputs, taken from a :class:`LiveSynthesizer`
    under the service lock so the query can follow them outside it.

    The retained runs' latency fragments are immutable, and
    ``journeys`` is a copy of the chain's per-run journey cache: the
    query fills the copy, and :meth:`LiveSynthesizer.keep_latency`
    folds it back.  Ingestion and other queries are not held up while
    a query concatenates the window (a journey may cross runs) or
    builds the merged index of a time-overlapping window."""

    def __init__(self, live: LiveSynthesizer, topics: Tuple[str, ...]):
        self.topics = topics
        self.run_ids = tuple(live._consumed)
        self.fragments = [live._latency[run_id] for run_id in self.run_ids]
        #: the window's merged index, once built.
        self.merged = live._merged_latency
        #: fragments_are_separable(fragments), once known.
        self.separable = live._separable
        self.journeys = dict(live._journeys)
        #: segments this view decoded (for ``segments_decoded``).
        self.decoded = 0
        self._store = live.store

    def index(self) -> Union[List[LatencyIndex], LatencyIndex]:
        """The fragments in run order when their spans are time-ordered,
        else one index over the runs' merged columns, built from the
        segments (which are immutable) on the window's first query.
        :func:`~repro.analysis.latency.chain_latencies` takes either;
        over the fragments, it follows :attr:`separable`, checked here
        on the window's first query."""
        if self.separable is None:
            self.separable = fragments_are_separable(self.fragments)
        if self.separable or _spans_are_ordered(
            fragment.span for fragment in self.fragments
        ):
            return self.fragments
        if self.merged is None:
            readers = [self._store.open(run_id) for run_id in self.run_ids]
            self.merged = _merged_latency_index(readers, None)
            self.decoded = len(readers)
        return self.merged
