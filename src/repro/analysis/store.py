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
engine behind ``repro analyze``.  It opens the store's readers once,
resolves each one's columns once
(:func:`~repro.store.index.resolve_run`) and hands both to the
``merge_traces`` synthesis and to the latency index alike, so each
segment is inflated and resolved once.  Chain latencies follow the
per-run fragments one at a time when no journey can cross a run
(:func:`~repro.analysis.latency.chain_latencies`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dag import TimingDag
from ..core.gcpause import paused_gc
from ..core.pipeline import STRATEGY_MERGE_DAGS, STRATEGY_MERGE_TRACES
from ..store.database import StoreLike, as_store
from ..store.index import (
    _merged_columns,
    _resolve,
    _runs_are_time_ordered,
    resolve_run,
)
from ..store.synthesis import _merge_run_dags, _synthesize_readers
from .chains import Chain, enumerate_chains
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
        columns = _resolve(reader.walk_fastpath())
    return LatencyIndex(columns, reader.wakeup_pid_columns(), pids)


def _merged_latency_index(
    readers: Sequence,
    pids: Optional[frozenset],
    columns: Optional[Sequence[Tuple]] = None,
) -> LatencyIndex:
    """One build over time-overlapping runs: the store index's merged
    columns (ties keep ``(run, row)`` order, so the order equals
    ``Trace.merge`` order) and every run's wakeup columns, concatenated
    in run order -- the index sorts wakeups stably by ts per PID, so
    ties keep run order as the object merge does."""
    wakeups = zip(*(reader.wakeup_pid_columns() for reader in readers))
    return LatencyIndex(
        _merged_columns(readers, columns),
        tuple(np.concatenate(column) for column in wakeups),
        pids,
    )


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
    go through one build over their merged columns.
    """
    readers = as_store(store).readers()
    wanted = None if pids is None else frozenset(pids)
    fragments = _latency_fragments(readers, wanted)
    if fragments is None:
        return _merged_latency_index(readers, wanted)
    return LatencyIndex.concat(fragments)


class StoreAnalysis:
    """One analysis handle over a trace store: synthesize once, index
    the raw events once, answer any number of analysis queries.

    Parameters mirror
    :func:`~repro.store.synthesis.synthesize_from_store`.  The store's
    readers are opened and resolved once, and shared by the synthesis
    (either strategy) and the latency index.

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
    def _readers(self) -> List:
        """The store's readers, opened on first use."""
        return self.store.readers()

    @cached_property
    def _columns(self) -> List[Tuple]:
        """Each reader's resolved columns (:func:`resolve_run`), shared
        by the synthesis and the latency index."""
        return [resolve_run(reader).columns for reader in self._readers]

    @cached_property
    def _fragments(self) -> Optional[List[LatencyIndex]]:
        """Per-run latency fragments over the same readers, or None when
        the runs overlap in time."""
        return _latency_fragments(self._readers, self._wanted, self._columns)

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
            self._dag = synthesize(
                self._readers,
                self.pids,
                split_services=self.split_services,
                model_sync=self.model_sync,
                columns=self._columns,
            )
        return self._dag

    @property
    @paused_gc()
    def index(self) -> LatencyIndex:
        """The latency index over the same readers (built once)."""
        if self._index is None:
            fragments = self._fragments
            if fragments is None:
                self._index = _merged_latency_index(
                    self._readers, self._wanted, self._columns
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
        fragments need no concatenation."""
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
