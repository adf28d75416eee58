"""Out-of-core analysis straight from a trace store.

The store-backed sibling of the in-memory analysis entry points: every
report the ``analysis`` package computes over a single materialized
:class:`~repro.tracing.session.Trace` or synthesized model is available
here over a :class:`~repro.store.database.TraceStore`, the way PRs 3-5
made synthesis itself stream out-of-core.

Two data paths, mirroring the pipeline split:

* **Model-based analyses** (chains, activation/jitter models, loads,
  response bounds) consume the timing DAG, so the store path is the
  store synthesis (:mod:`repro.store.synthesis`) followed by the
  unchanged in-memory analysis.  The synthesized model is pinned
  byte-identical to the in-memory pipeline, so these reports are too.
* **Trace-based analyses** (chain latency, waiting time, per-topic DDS
  latency) consume raw events.  :func:`latency_index_from_store` builds
  :class:`~repro.analysis.latency.LatencyIndex` from the resolved
  columns the Alg. 1 store index consumes
  (:func:`~repro.store.index._resolve`): time-disjoint runs are indexed
  one fragment per run and the fragments concatenated, overlapping runs
  go through one build over their columns merged by the store index's
  stable ts sort (:func:`~repro.store.index._merged_columns`) -- so no
  merged :class:`Trace` and no
  :class:`~repro.tracing.events.TraceEvent` objects are ever
  materialized, and the row order equals ``Trace.merge`` order, making
  results value-identical to the in-memory analyses
  (``tests/test_analysis_store.py`` pins all 7 registry scenarios).

:class:`StoreAnalysis` bundles both paths behind one lazily-caching
handle (one synthesis, one latency index, any number of reports) -- the
engine behind ``repro analyze``.  It opens each run's reader at most
once, resolves each one's columns at most once
(:func:`~repro.store.index.resolve_run`) and hands both to the
synthesis and to the latency index alike, so each segment is inflated
and resolved at most once.  A whole-store ``merge_traces`` handle over
stored runs that share nothing builds from per-run fragments
(:mod:`repro.analysis.fragments`, the code the live service builds its
fragments with) once it shares a run with the previous handle in the
process.  It reads each run's segment file once and looks the run up
in a process-wide cache keyed by the sha256 of those bytes
(:meth:`~repro.store.database.TraceStore.read`).  A hit opens no
reader; only the misses are parsed (from the bytes already read) and
resolved, one walk over them builds their fragments, and the handle
answers from the fragments' window
(:class:`~repro.analysis.fragments.FragmentWindow`, the window code
the live service answers with): the model is the fragments' merged
folds, and chain latencies follow the per-run fragments one at a time
when no journey can cross a run, each fragment keeping the
last-queried chain's journeys through its run, so a run is followed
once per chain.  A handle over a window that shares all but
one run with the previous handle thus opens, resolves, walks and
follows that run alone, and its model's JSON export renders that
run's sample lists alone (the fragments keep theirs).  A handle that
shares no run with the previous one -- a store's first, ``repro
analyze``'s one per process, a one-shot front end's below -- builds in
batch and keeps no fragment, since none would be looked up again.

``strict=False`` on the store skips a run that fails its open or the
resolve of its columns
(:meth:`~repro.store.database.TraceStore.resolve_runs`), with a
warning, in :class:`StoreAnalysis` and :func:`latency_index_from_store`
alike.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..core.dag import TimingDag
from ..core.gcpause import paused_gc
from ..core.pipeline import STRATEGY_MERGE_DAGS, STRATEGY_MERGE_TRACES
from ..store.database import StoreLike, as_store
from ..store.reader import SegmentFile
from ..store.index import ResolvedRun, _resolve, _runs_are_time_ordered, resolve_run
from ..store.synthesis import _merge_run_dags, _synthesize_readers
from .chains import Chain, enumerate_chains
from .fragments import (
    FRAGMENTS,
    FragmentKey,
    FragmentWindow,
    _assembles,
    _merged_latency_index,
    _run_fragments,
    _RunFragment,
    _sharing,
    fragment_key,
)
from .jitter import ActivationModel, activation_models
from .latency import (
    ChainLatency,
    LatencyIndex,
    WaitingTime,
    chain_latencies,
    topic_latencies,
    waiting_times,
)
from .load import CallbackLoad, callback_loads, node_loads


def latency_fragment(
    reader, pids: Optional[frozenset] = None, columns: Optional[Tuple] = None
) -> LatencyIndex:
    """One run's :class:`LatencyIndex` -- the piece
    :func:`latency_index_from_store` concatenates over time-ordered
    runs; ``columns`` are the reader's resolved columns when the caller
    has them.  Its :attr:`~LatencyIndex.span` is the run's ROS ts range
    when ``pids`` is None."""
    if columns is None:
        columns = _resolve(reader)
    return LatencyIndex(columns, reader.wakeup_pid_columns(), pids)


def _latency_fragments(
    readers: Sequence,
    pids: Optional[frozenset],
    columns: Optional[Sequence[Tuple]] = None,
) -> Optional[List[LatencyIndex]]:
    """One fragment per run when the runs (in run-id order) are
    time-ordered, else None: they need one merged build."""
    if not _runs_are_time_ordered(readers):
        return None
    if columns is None:
        columns = [None] * len(readers)
    return [
        latency_fragment(reader, pids, resolved)
        for reader, resolved in zip(readers, columns)
    ]


def _resolve_ros(reader) -> ResolvedRun:
    """A run's ROS columns (:func:`~repro.store.index._resolve`): all a
    latency index reads, so damage elsewhere does not stop one."""
    return ResolvedRun(reader, _resolve(reader))


@paused_gc()
def latency_index_from_store(
    store: StoreLike, pids: Optional[Iterable[int]] = None
) -> LatencyIndex:
    """Build a :class:`LatencyIndex` from a store's segments.

    ``pids`` restricts the analysis to those nodes' events (takes,
    writes and windows of other PIDs are then invisible, exactly as if
    the in-memory trace had been filtered before indexing).

    Time-disjoint runs (the usual case) are indexed one
    :func:`latency_fragment` per run and concatenated; overlapping runs
    go through one build over their merged columns.  A run whose
    columns fail to resolve is skipped when the store is not strict.
    """
    resolved = as_store(store).resolve_runs(resolve=_resolve_ros).values()
    readers = [run.reader for run in resolved]
    columns = [run.columns for run in resolved]
    wanted = None if pids is None else frozenset(pids)
    fragments = _latency_fragments(readers, wanted, columns)
    if fragments is None:
        return _merged_latency_index(readers, wanted, columns)
    return LatencyIndex.concat(fragments)


class _Runs(NamedTuple):
    """A :class:`StoreAnalysis` handle's runs, in run-id order."""

    ids: List[str]
    #: each run's reader; None for a run whose fragment came from the
    #: cache (opened when a batch build needs it:
    #: :attr:`StoreAnalysis._readers`).
    readers: List[Optional[Any]]
    #: run id -> the run's segment file as read, for the handles that
    #: key fragments by it.
    files: Dict[str, SegmentFile]
    #: each run's :func:`~repro.store.index.resolve_run`; None where
    #: the handle builds from fragments, and for a run whose fragment
    #: came from the cache (resolved when a batch build needs it).
    resolved: List[Optional[ResolvedRun]]
    #: the runs' fragments, which assemble the window, or None when the
    #: handle builds in batch.
    window: Optional[FragmentWindow]


class StoreAnalysis:
    """One analysis handle over a trace store: synthesize once, index
    the raw events once, answer any number of analysis queries.

    Parameters mirror
    :func:`~repro.store.synthesis.synthesize_from_store`.  The store's
    readers are opened once, each run is resolved at most once, and
    both are shared by the synthesis (either strategy) and the latency
    index.  ``strict=False`` on the store skips a run that fails its
    open or its resolve, with a warning.

    A ``merge_traces`` handle over the whole store (no ``pids``) looks
    its runs up in the process-wide fragment
    cache (:mod:`repro.analysis.fragments`) by the sha256 of their
    segment files, read once.  When it shares a run with the previous
    handle to look the cache up and its runs share no walk state, it
    builds from per-run fragments: only the misses are opened and
    resolved, one walk over them builds their fragments, and
    :attr:`dag`, :attr:`index` and :meth:`chain_latencies` ask the
    fragments' :class:`~repro.analysis.fragments.FragmentWindow`: the
    model is the fragments' merged folds, the latency index their
    latency fragments, and a chain's journeys through a run come from
    the run's fragment once any handle followed that chain there.  A hit
    run's reader is opened only if a batch build needs it.  A handle that
    shares no run with the previous one builds in batch and keeps no
    fragment; one whose runs overlap in time or share walk state builds
    in batch and keeps the fragments it found.  ``pids=`` and
    ``merge_dags`` build in batch and leave the cache alone.

    The builds and queries (:attr:`dag`, :attr:`index`,
    :meth:`chain_latencies`, :meth:`waiting_times`,
    :meth:`communication_latencies`) run with the cyclic collector
    paused (:class:`~repro.core.gcpause.paused_gc`): they make no
    reference cycles, so a collection during one would only re-scan
    the readers' columns, the index and the model it is building.
    """

    def __init__(
        self,
        store: StoreLike,
        pids: Optional[Iterable[int]] = None,
        split_services: bool = True,
        model_sync: bool = True,
        strategy: str = STRATEGY_MERGE_TRACES,
    ):
        self.store = as_store(store)
        self.pids = None if pids is None else sorted(pids)
        self._wanted = None if pids is None else frozenset(self.pids)
        self.split_services = split_services
        self.model_sync = model_sync
        self.strategy = strategy
        self._dag: Optional[TimingDag] = None
        self._index: Optional[LatencyIndex] = None

    @cached_property
    def _runs(self) -> _Runs:
        """The store's runs, read and (for misses) opened and resolved
        on first use, with their fragments when the handle builds from
        them."""
        store = self.store
        files: Dict[str, SegmentFile] = {}
        keys: Dict[str, FragmentKey] = {}
        if self.pids is None and self.strategy == STRATEGY_MERGE_TRACES:
            files = {run_id: store.read(run_id) for run_id in store.run_ids()}
            keys = {
                run_id: fragment_key(read.data, self.split_services)
                for run_id, read in files.items()
            }
        cached = None
        if keys:
            cached = FRAGMENTS.lookup(keys.values())
        if cached is None:
            resolved = store.resolve_runs(store.open_runs(files or None))
            return _Runs(
                list(resolved),
                [run.reader for run in resolved.values()],
                files,
                list(resolved.values()),
                None,
            )
        resolved = store.resolve_runs(store.open_runs({
            run_id: read for run_id, read in files.items()
            if keys[run_id] not in cached
        }))
        ids = [
            run_id for run_id in files
            if keys[run_id] in cached or run_id in resolved
        ]
        found = [resolved.get(run_id) for run_id in ids]
        readers = [None if run is None else run.reader for run in found]
        sharings = [
            _sharing(resolved[run_id]) if run_id in resolved
            else cached[keys[run_id]].sharing
            for run_id in ids
        ]
        if not _assembles(sharings):
            FRAGMENTS.keep(cached)
            return _Runs(ids, readers, files, found, None)
        # The misses assemble too (any part of an assembling window
        # does): one walk builds them all, each distinct segment once.
        missing: Dict[FragmentKey, Tuple] = {}
        for run_id, sharing in zip(ids, sharings):
            key = keys[run_id]
            if key not in cached and key not in missing:
                missing[key] = (resolved[run_id], sharing)
        built: Dict[FragmentKey, _RunFragment] = dict(cached)
        if missing:
            runs, parts = zip(*missing.values())
            fragments = _run_fragments(runs, parts, self.split_services)
            built.update(zip(missing, fragments))
        FRAGMENTS.keep(built)
        # The fragments are all the handle reads: the columns go now.
        window = FragmentWindow(
            [built[keys[run_id]] for run_id in ids], self.model_sync, True
        )
        return _Runs(ids, readers, files, [None] * len(ids), window)

    @cached_property
    def _readers(self) -> List:
        """Each run's reader, for the batch builds: a run whose fragment
        came from the cache is opened here, once, from the bytes its
        key was computed from."""
        runs = self._runs
        return [
            self.store.open(run_id, runs.files[run_id]) if reader is None
            else reader
            for run_id, reader in zip(runs.ids, runs.readers)
        ]

    @cached_property
    def _resolved(self) -> List[ResolvedRun]:
        """Each run's :func:`~repro.store.index.resolve_run`, shared by
        the batch synthesis and the latency index: a run whose fragment
        came from the cache is resolved here, once."""
        return [
            resolve_run(reader) if run is None else run
            for reader, run in zip(self._readers, self._runs.resolved)
        ]

    @cached_property
    def _fragments(self) -> Optional[List[LatencyIndex]]:
        """A batch handle's per-run latency fragments over the same
        readers, or None when the runs overlap in time."""
        return _latency_fragments(
            self._readers, self._wanted, [run.columns for run in self._resolved]
        )

    @property
    @paused_gc()
    def dag(self) -> TimingDag:
        """The synthesized timing model (computed once, out-of-core)."""
        if self._dag is None:
            if self.strategy == STRATEGY_MERGE_TRACES:
                synthesize = _synthesize_readers
            elif self.strategy == STRATEGY_MERGE_DAGS:
                synthesize = _merge_run_dags
            else:
                raise ValueError(
                    f"unknown strategy {self.strategy!r}; expected "
                    f"{STRATEGY_MERGE_TRACES!r} or {STRATEGY_MERGE_DAGS!r}"
                )
            window = self._runs.window
            if window is not None:
                self._dag = window.dag
            else:
                self._dag = synthesize(
                    self._readers,
                    self.pids,
                    split_services=self.split_services,
                    model_sync=self.model_sync,
                    resolved=self._resolved,
                )
        return self._dag

    @property
    @paused_gc()
    def index(self) -> LatencyIndex:
        """The latency index over the same readers (built once)."""
        window = self._runs.window
        if window is not None:
            return window.index
        if self._index is None:
            fragments = self._fragments
            if fragments is None:
                self._index = _merged_latency_index(
                    self._readers, self._wanted,
                    [run.columns for run in self._resolved],
                )
            else:
                self._index = LatencyIndex.concat(fragments)
        return self._index

    # -- model-based analyses ---------------------------------------------

    def chains(
        self,
        sources: Optional[Sequence[str]] = None,
        sinks: Optional[Sequence[str]] = None,
        max_chains: int = 10_000,
    ) -> List[Chain]:
        return enumerate_chains(
            self.dag, sources=sources, sinks=sinks, max_chains=max_chains
        )

    def activation_models(self) -> List[ActivationModel]:
        return activation_models(self.dag)

    def callback_loads(self) -> List[CallbackLoad]:
        return callback_loads(self.dag)

    def node_loads(self) -> Dict[str, float]:
        return node_loads(self.dag)

    # -- trace-based analyses ---------------------------------------------

    @paused_gc()
    def chain_latencies(
        self, topics: Sequence[str], max_instances: Optional[int] = None
    ) -> List[ChainLatency]:
        """Per run when the runs' journeys stay inside them (see
        :func:`~repro.analysis.latency.chain_latencies`), so the
        fragments need no concatenation.  A handle built from fragments
        asks its window
        (:meth:`~repro.analysis.fragments.FragmentWindow.chain_latencies`),
        which keeps each run's journeys with the run's fragment: a run
        shared with the previous handle is followed once per chain."""
        window = self._runs.window
        if window is not None:
            return window.chain_latencies(topics, max_instances)
        fragments = self._fragments
        return chain_latencies(
            self.index if fragments is None else fragments, topics, max_instances
        )

    @paused_gc()
    def waiting_times(self, pid: int) -> List[WaitingTime]:
        return waiting_times(self.index, pid)

    @paused_gc()
    def communication_latencies(self, topic: str) -> List[int]:
        return topic_latencies(self.index, topic)


# -- one-shot functional front ends ---------------------------------------


def enumerate_chains_from_store(
    store: StoreLike,
    sources: Optional[Sequence[str]] = None,
    sinks: Optional[Sequence[str]] = None,
    pids: Optional[Iterable[int]] = None,
) -> List[Chain]:
    return StoreAnalysis(store, pids=pids).chains(
        sources=sources, sinks=sinks
    )


def activation_models_from_store(
    store: StoreLike, pids: Optional[Iterable[int]] = None
) -> List[ActivationModel]:
    return StoreAnalysis(store, pids=pids).activation_models()


def callback_loads_from_store(
    store: StoreLike, pids: Optional[Iterable[int]] = None
) -> List[CallbackLoad]:
    return StoreAnalysis(store, pids=pids).callback_loads()


def node_loads_from_store(
    store: StoreLike, pids: Optional[Iterable[int]] = None
) -> Dict[str, float]:
    return StoreAnalysis(store, pids=pids).node_loads()


def measure_chain_latencies_from_store(
    store: StoreLike,
    topics: Sequence[str],
    max_instances: Optional[int] = None,
    pids: Optional[Iterable[int]] = None,
) -> List[ChainLatency]:
    return chain_latencies(
        latency_index_from_store(store, pids=pids), topics, max_instances
    )


def measure_waiting_times_from_store(
    store: StoreLike, pid: int
) -> List[WaitingTime]:
    return waiting_times(latency_index_from_store(store), pid)


def communication_latencies_from_store(store: StoreLike, topic: str) -> List[int]:
    return topic_latencies(latency_index_from_store(store), topic)
