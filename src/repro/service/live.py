"""Incremental model maintenance for the live service.

:class:`LiveSynthesizer` keeps one fragment per retained run, built at
ingest from that run's segment alone by the fragment code it shares
with batch analysis (:mod:`repro.analysis.fragments`,
:func:`~repro.analysis.fragments._run_fragments`): a one-run
:class:`~repro.store.index.StoreTraceIndex`, dropped once the run's
PIDs are walked; the walk's records folded per vertex key
(:func:`~repro.core.synthesis.fold_records`); the run's
:class:`~repro.analysis.latency.LatencyIndex` fragment; its span, PID
and key sets (:class:`~repro.analysis.fragments._Sharing`); and, once
a model JSON query has asked for them, its sample lists rendered as
model JSON
(:meth:`~repro.analysis.fragments._RunFragment.rendered_samples`, the
cache ``StoreAnalysis`` exports join too).  A fragment depends on its
own run only, so it is never invalidated or walked again: an arrival
builds one fragment and an eviction drops one.  The service builds
its fragments from the runs it ingests and never reads or fills
:class:`~repro.analysis.store.StoreAnalysis`'s process-wide fragment
cache (:data:`~repro.analysis.fragments.FRAGMENTS`).

The model merges the retained runs' folds and runs only DAG
synthesis's structural pass over the window
(:attr:`~repro.analysis.fragments.FragmentWindow.dag`) when the folds add up to
batch synthesis's walk over those runs: their ROS spans are
time-ordered in run-id order, no two of them share walk state (the
rule of :func:`~repro.analysis.fragments._assembles`, the one
:class:`~repro.analysis.store.StoreAnalysis` applies), and each run
names only PIDs above the previous runs'.  Recorded streams meet all
three -- each run has its own PIDs, above the previous run's, and its
own clock -- so there an arrival walks, folds and (for a model JSON
query) renders one run, and a model JSON query joins the runs'
rendered sample lists.  Any other
window's model *is* the batch synthesis:
:func:`~repro.store.synthesis._synthesize_readers` over the retained
runs' segments, run by the first model query after an arrival and
cached until the next one.

Each arriving run is decoded once, before any state changes
(:func:`~repro.store.index.resolve_run`: the resolved ROS columns, the
payload rows they reference, the sched and wakeup columns), so a
corrupt segment is rejected whole.  The same resolved columns feed the
run's index and its latency fragment.

The model and latency queries read the retained fragments as one
:class:`~repro.analysis.fragments.FragmentWindow`, the code
:class:`~repro.analysis.store.StoreAnalysis` answers with too.  It is
built on the first query after an arrival or eviction, decides once
whether the folds assemble the model and whether a journey can cross
runs, and follows a chain through each run's journey slot, so after an
arrival only the new run's writes are followed and a latency query
opens no segment.  A window that fails the check is followed as one
index, and a time-overlapping window's index is built over the runs'
merged columns, from their segments, on the window's first query.  A
query takes the window under the service lock and follows it outside
it.
"""

from __future__ import annotations

import threading
from bisect import insort
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.fragments import FragmentWindow, _RunFragment, _run_fragments, _sharing
from ..core.dag import TimingDag
from ..core.export import RenderedSamples
from ..core.gcpause import paused_gc
from ..store.database import TraceStore
from ..store.format import StoreFormatError
from ..store.index import ResolvedRun, resolve_run
from ..store.synthesis import _synthesize_readers
from .state import MODEL_JSON_INDENT


@dataclass
class ServiceCounters:
    """Observability counters of one live service (``status`` query,
    ``repro perf``'s ``service.ingest`` section)."""

    segments_ingested: int = 0
    events_indexed: int = 0
    rows_evicted: int = 0
    runs_evicted: int = 0
    #: models synthesized whole over the retained runs' segments: one
    #: per model query after an arrival whose window the runs' folds
    #: cannot assemble.
    rebuilds: int = 0
    segments_rejected: int = 0
    queries_served: int = 0
    #: requests that failed with an unexpected exception (answered
    #: ``{"ok": false, "kind": "internal"}``).
    internal_errors: int = 0
    #: per-run latency fragments, built at ingest: one per run that
    #: enters the window.
    latency_fragments_built: int = 0
    #: per-run Alg. 1 walk fragments, built at ingest: one per run that
    #: enters the window.
    walk_fragments_built: int = 0
    #: walk fragments whose sample lists a model JSON query rendered:
    #: at most one per walk fragment built, none per repeated query.
    model_runs_rendered: int = 0
    #: PIDs walked by the whole syntheses counted in ``rebuilds``.
    pids_rewalked: int = 0
    #: segments whose columns the service resolved: one per ingested
    #: run, plus every retained run at a whole synthesis and at a
    #: latency query over a time-overlapping window.
    segments_decoded: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _open_runs(
    store: TraceStore, counters: ServiceCounters, lock: Any, run_ids: Sequence[str]
) -> List[Any]:
    """The runs' readers, counted in ``segments_decoded`` under ``lock``."""
    readers = [store.open(run_id) for run_id in run_ids]
    with lock:
        counters.segments_decoded += len(readers)
    return readers


class LiveSynthesizer:
    """Incrementally maintained store synthesis.

    Keeps one :class:`~repro.analysis.fragments._RunFragment` per
    retained run of ``store``, built at ingest from the run alone
    (``walk_fragments_built``, ``latency_fragments_built``).
    :meth:`model` then produces exactly
    the DAG ``synthesize_from_store(store, jobs=1)`` would over the
    retained runs -- the byte-identity contract the service tests pin
    at every commit point: the runs' folds merged when they assemble
    the window (:attr:`~repro.analysis.fragments.FragmentWindow.dag`), else
    :func:`~repro.store.synthesis._synthesize_readers` over the
    retained runs' segments (``rebuilds``, ``pids_rewalked``).

    ``retain_window`` keeps only the newest N runs (run-id order) in
    the model for unbounded streams; evicted runs stay on disk and
    leave the window with their fragment.  A run arriving older than
    the whole full window is evicted on arrival, and no fragment is
    built for it.

    A run whose segment cannot be read is rejected before any state
    changes: :meth:`ingest` raises, and :meth:`refresh` skips it for
    good (``segments_rejected``) and ingests the runs after it.

    The model and latency queries read the retained fragments as one
    :meth:`window`; a run's journeys stay with its fragment, so they
    leave with the run's eviction.  ``lock`` is the lock a caller that
    serves several threads holds around every call but a window's
    latency queries, whose segment decodes count under it.

    :meth:`ingest`, :meth:`refresh`, :meth:`model` and
    :meth:`model_samples` run with the cyclic collector paused
    (:class:`~repro.core.gcpause.paused_gc`): they make no reference
    cycles, so a collection during one would only re-scan the retained
    fragments.
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
        self.lock = threading.RLock()
        #: retained run id -> its fragment.
        self._fragments: Dict[str, _RunFragment] = {}
        #: the retained fragments as one window, once asked for.
        self._window: Optional[FragmentWindow] = None
        self._dag: Optional[TimingDag] = None

    @property
    def run_ids(self) -> List[str]:
        """Retained run ids, ascending."""
        return list(self._consumed)

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
        events = resolved.events
        self._seen.add(run_id)
        counters.segments_ingested += 1
        counters.segments_decoded += 1
        counters.events_indexed += events
        consumed = self._consumed
        window = self.retain_window
        if window is not None and len(consumed) >= window and run_id < consumed[0]:
            # Older than the whole full window: evicted on arrival, so
            # the retained runs stay as they are.
            counters.runs_evicted += 1
            counters.rows_evicted += events
            return
        [fragment] = _run_fragments(
            [resolved], [_sharing(resolved)], self.split_services
        )
        counters.walk_fragments_built += 1
        counters.latency_fragments_built += 1
        insort(consumed, run_id)
        self._fragments[run_id] = fragment
        if window is not None and len(consumed) > window:
            evicted = consumed[: len(consumed) - window]
            del consumed[: len(evicted)]
            for old in evicted:
                counters.rows_evicted += self._fragments.pop(old).events
            counters.runs_evicted += len(evicted)
        self._window = None
        self._dag = None

    def window(self) -> FragmentWindow:
        """The retained runs' fragments, in run order, as one window;
        built on first use after a run entered or left.  A window whose
        runs overlap in time opens their segments for its merged
        latency index (``segments_decoded``)."""
        if self._window is None:
            run_ids = tuple(self._consumed)
            self._window = FragmentWindow(
                [self._fragments[run_id] for run_id in run_ids],
                self.model_sync,
                # Not a bound method, which would make a reference cycle.
                readers=partial(
                    _open_runs, self.store, self.counters, self.lock, run_ids
                ),
            )
        return self._window

    @paused_gc()
    def model(self) -> TimingDag:
        """The timing DAG over the retained runs -- byte-identical to
        ``synthesize_from_store(store_of_retained_runs, jobs=1)``, down
        to the vertex and edge insertion order.  Cached until the next
        ingest.

        When the runs' folds assemble the window, they are merged in
        run order and only the structural pass runs over the window;
        otherwise the retained runs are synthesized whole, by the batch
        function."""
        if self._dag is None:
            window = self.window()
            self._dag = window.dag
            if self._dag is None:
                counters = self.counters
                readers = _open_runs(
                    self.store, counters, self.lock, self._consumed
                )
                counters.rebuilds += 1
                counters.pids_rewalked += len(set().union(
                    *(fragment.sharing.pids for fragment in window.fragments)
                ))
                self._dag = _synthesize_readers(
                    readers, None, self.split_services, self.model_sync
                )
        return self._dag

    @paused_gc()
    def model_samples(self) -> Optional[Tuple[RenderedSamples, ...]]:
        """Render the sample lists of the retained runs :meth:`model`
        was merged from at ``MODEL_JSON_INDENT``, the ones no earlier
        call rendered (``model_runs_rendered``), so the model's JSON
        export joins them
        (:meth:`~repro.analysis.fragments._RunFragment.rendered_samples`);
        returns them in run order, or None when the model was
        synthesized whole."""
        self.model()
        window = self.window()
        if not window.assembles:
            return None
        fragments = window.fragments
        self.counters.model_runs_rendered += sum(
            MODEL_JSON_INDENT not in fragment.samples for fragment in fragments
        )
        return tuple(
            fragment.rendered_samples(MODEL_JSON_INDENT) for fragment in fragments
        )
