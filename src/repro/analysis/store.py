"""Out-of-core analysis straight from a trace store.

The store-backed sibling of the in-memory analysis entry points: every
report the ``analysis`` package computes over a single materialized
:class:`~repro.tracing.session.Trace` or synthesized model is available
here over a :class:`~repro.store.database.TraceStore`, the way PRs 3-5
made synthesis itself stream out-of-core.

Two data paths, mirroring the pipeline split:

* **Model-based analyses** (chains, activation/jitter models, loads,
  response bounds) consume the timing DAG, so the store path is
  :func:`~repro.store.synthesis.synthesize_from_store` -- including its
  PID-shard planning and multi-process fan-out (``jobs``) -- followed by
  the unchanged in-memory analysis.  The synthesized model is pinned
  byte-identical to the in-memory pipeline, so these reports are too.
* **Trace-based analyses** (chain latency, waiting time, per-topic DDS
  latency) consume raw events.  :func:`latency_index_from_store` feeds
  :class:`~repro.analysis.latency.LatencyIndex` from the same columnar
  ``walk_rows`` streams the Alg. 1 store walk uses -- time-disjoint runs
  are indexed one fragment per run and the fragments concatenated,
  overlapping runs k-way merge on the ``(ts, run, row)`` int prefix --
  so no merged :class:`Trace` and no
  :class:`~repro.tracing.events.TraceEvent` objects are ever
  materialized, and the row order equals ``Trace.merge`` order, making
  results value-identical to the in-memory analyses
  (``tests/test_analysis_store.py`` pins all 7 registry scenarios).

:class:`StoreAnalysis` bundles both paths behind one lazily-caching
handle (one synthesis, one latency index, any number of reports) -- the
engine behind ``repro analyze``.
"""

from __future__ import annotations

from heapq import merge as _heap_merge
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.dag import TimingDag
from ..core.pipeline import STRATEGY_MERGE_TRACES
from ..store.database import StoreLike, as_store
from ..store.index import _runs_are_time_ordered, _spans_are_ordered
from ..store.synthesis import synthesize_from_store
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


def _reader_rows(
    reader, pids: Optional[frozenset]
) -> Iterator[Tuple[int, int, int, Optional[dict]]]:
    """One run's ``(ts, pid, code, payload)`` rows from its columnar
    ``walk_rows`` (payloads decode only for the ID-carrying rows)."""
    for ts, _order, _row, pid, code, aux in reader.walk_rows(0):
        if pids is None or pid in pids:
            yield ts, pid, code, aux


def _reader_wakeups(
    reader, pids: Optional[frozenset]
) -> Iterator[Tuple[int, int]]:
    # Two int columns per segment instead of SchedWakeup objects (on v3
    # the other three wakeup streams never inflate).
    for ts, pid in reader.wakeup_ts_pid_rows():
        if pids is None or pid in pids:
            yield ts, pid


def latency_fragment(reader, pids: Optional[frozenset] = None) -> LatencyIndex:
    """One run's :class:`LatencyIndex` -- the piece
    :func:`latency_index_from_store` concatenates over time-ordered
    runs, and the live service caches per retained run.  Its
    :attr:`~LatencyIndex.span` is the run's ROS ts range when ``pids``
    is None."""
    return LatencyIndex(_reader_rows(reader, pids), _reader_wakeups(reader, pids))


def _merged_latency_index(
    readers: Sequence, pids: Optional[frozenset]
) -> LatencyIndex:
    """The single pass over time-overlapping runs: rows k-way merged on
    the ``(ts, run, row)`` int prefix, so the order equals
    ``Trace.merge`` order (ties keep run-id order), and wakeups merged
    by ts (``heapq.merge`` breaks ties in iterator order, as the object
    merge does)."""
    streams = [reader.walk_rows(order) for order, reader in enumerate(readers)]
    merged = streams[0] if len(streams) == 1 else _heap_merge(*streams)
    rows = (
        (ts, pid, code, aux)
        for ts, _order, _row, pid, code, aux in merged
        if pids is None or pid in pids
    )
    wakeups = _heap_merge(
        *(_reader_wakeups(reader, pids) for reader in readers),
        key=itemgetter(0),
    )
    return LatencyIndex(rows, wakeups)


def latency_index_from_store(
    store: StoreLike,
    pids: Optional[Iterable[int]] = None,
    run_ids: Optional[Sequence[str]] = None,
    fragments: Optional[Dict[str, LatencyIndex]] = None,
) -> LatencyIndex:
    """Build a :class:`LatencyIndex` by streaming a store's segments.

    ``pids`` restricts the analysis to those nodes' events (takes,
    writes and windows of other PIDs are then invisible, exactly as if
    the in-memory trace had been filtered before indexing).  ``run_ids``
    restricts it to a frozen run list in the given order -- how a live
    service snapshot analyzes exactly its retained runs while newer
    segments keep landing in the same directory.

    Time-disjoint runs (the usual case) are indexed one
    :func:`latency_fragment` per run and concatenated; overlapping runs
    go through one pass over their merged rows.  ``fragments`` is a
    per-run cache of unfiltered fragments, consulted together with
    ``run_ids`` and ``pids=None``: cached runs are not read again, and
    the fragments built here are added to it.
    """
    resolved = as_store(store)
    wanted = None if pids is None else frozenset(pids)
    if run_ids is None:
        readers = resolved.readers()
        if _runs_are_time_ordered(readers):
            return LatencyIndex.concat(
                [latency_fragment(reader, wanted) for reader in readers]
            )
        return _merged_latency_index(readers, wanted)
    cache = fragments if fragments is not None and wanted is None else {}
    readers = {
        run_id: resolved.open(run_id) for run_id in run_ids if run_id not in cache
    }
    spans = (
        readers[run_id].ros_ts_range() if run_id in readers
        else cache[run_id].span
        for run_id in run_ids
    )
    if not _spans_are_ordered(spans):
        return _merged_latency_index(
            [
                readers[run_id] if run_id in readers else resolved.open(run_id)
                for run_id in run_ids
            ],
            wanted,
        )
    for run_id, reader in readers.items():
        cache[run_id] = latency_fragment(reader, wanted)
    return LatencyIndex.concat([cache[run_id] for run_id in run_ids])


class StoreAnalysis:
    """One analysis handle over a trace store: synthesize once, stream
    the raw events once, answer any number of analysis queries.

    Parameters mirror :func:`synthesize_from_store`; ``jobs`` shards
    the synthesis across worker processes with the store layer's
    PID-shard planning.
    """

    def __init__(
        self,
        store: StoreLike,
        pids: Optional[Iterable[int]] = None,
        jobs: int = 1,
        split_services: bool = True,
        model_sync: bool = True,
        strategy: str = STRATEGY_MERGE_TRACES,
    ):
        self.store = as_store(store)
        self.pids = None if pids is None else sorted(pids)
        self.jobs = jobs
        self.split_services = split_services
        self.model_sync = model_sync
        self.strategy = strategy
        self._dag: Optional[TimingDag] = None
        self._index: Optional[LatencyIndex] = None

    @property
    def dag(self) -> TimingDag:
        """The synthesized timing model (computed once, out-of-core)."""
        if self._dag is None:
            self._dag = synthesize_from_store(
                self.store,
                pids=self.pids,
                jobs=self.jobs,
                split_services=self.split_services,
                model_sync=self.model_sync,
                strategy=self.strategy,
            )
        return self._dag

    @property
    def index(self) -> LatencyIndex:
        """The streamed latency index (built once)."""
        if self._index is None:
            self._index = latency_index_from_store(self.store, pids=self.pids)
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

    def chain_latencies(
        self, topics: Sequence[str], max_instances: Optional[int] = None
    ) -> List[ChainLatency]:
        return chain_latencies(self.index, topics, max_instances)

    def waiting_times(self, pid: int) -> List[WaitingTime]:
        return waiting_times(self.index, pid)

    def communication_latencies(self, topic: str) -> List[int]:
        return topic_latencies(self.index, topic)


# -- one-shot functional front ends ---------------------------------------


def enumerate_chains_from_store(
    store: StoreLike,
    sources: Optional[Sequence[str]] = None,
    sinks: Optional[Sequence[str]] = None,
    pids: Optional[Iterable[int]] = None,
    jobs: int = 1,
) -> List[Chain]:
    return StoreAnalysis(store, pids=pids, jobs=jobs).chains(
        sources=sources, sinks=sinks
    )


def activation_models_from_store(
    store: StoreLike, pids: Optional[Iterable[int]] = None, jobs: int = 1
) -> List[ActivationModel]:
    return StoreAnalysis(store, pids=pids, jobs=jobs).activation_models()


def callback_loads_from_store(
    store: StoreLike, pids: Optional[Iterable[int]] = None, jobs: int = 1
) -> List[CallbackLoad]:
    return StoreAnalysis(store, pids=pids, jobs=jobs).callback_loads()


def node_loads_from_store(
    store: StoreLike, pids: Optional[Iterable[int]] = None, jobs: int = 1
) -> Dict[str, float]:
    return StoreAnalysis(store, pids=pids, jobs=jobs).node_loads()


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
