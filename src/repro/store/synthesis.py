"""Out-of-core model synthesis straight from a trace store.

``synthesize_from_store`` reproduces the two multi-run strategies of
Sec. V without an in-memory :class:`TraceDatabase`:

* **merge_traces** (default): the stored runs' columns feed one
  :class:`~repro.store.index.StoreTraceIndex` -- consumed run by run
  when the runs are time-ordered, merged as columns by one stable ts
  sort when they overlap -- and :func:`_extract_index_cblists` runs the
  columnar Alg. 1 walk over it.  This is the same index and walk the
  in-memory pipeline (:func:`~repro.core.extraction.extract_all`) and
  the live service run.  Extraction partitions the traced PIDs into
  shards and fans out over a ``ProcessPoolExecutor``.  Workers re-open
  the store themselves (the task payload is ``(directory, pid
  shard)``, never pickled traces), build walk columns and sched buckets
  *for their shard's PIDs only*, and return per-PID CBlists, which
  reduce in sorted-PID order into the same DAG the in-memory pipeline
  synthesizes -- **byte-identical for any ``jobs`` value**, the same
  determinism discipline as :mod:`repro.experiments.batch`.
* **merge_dags**: one DAG per stored run (sharded by run), merged with
  :func:`~repro.core.merge.merge_dags`.

Sharding discipline: per-PID extraction only shares the *immutable*
index tables; the single mutable piece of extraction state -- the FIFO
caller cursors of :class:`~repro.core.extraction.EventIndex` -- is
keyed by ``(topic, src_ts)``, and every take of such a key happens in
the one PID hosting that service, so per-shard cursors see exactly the
lookup sequence the sequential pass saw.  The equivalence suite pins
this byte-for-byte against ``synthesize_from_trace`` for every registry
scenario at several job counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.dag import TimingDag
from ..core.extraction import EventIndex, _extract_pid_walk
from ..experiments.batch import _shard
from ..core.merge import merge_dags
from ..core.pipeline import (
    STRATEGY_MERGE_DAGS,
    STRATEGY_MERGE_TRACES,
    synthesize_from_trace,
)
from ..core.records import CBList
from ..core.synthesis import synthesize_dag
from .database import StoreLike, TraceStore, as_store
from .index import StoreTraceIndex


def _extract_index_cblists(
    index: StoreTraceIndex, pids: Iterable[int]
) -> List[CBList]:
    """The columnar Alg. 1 walk over a built index: one CBList per PID,
    in ``pids`` order (the extraction of the in-memory pipeline, the
    batch build and the live service)."""
    event_index = EventIndex(index)
    pid_map = index.pid_map
    return [
        _extract_pid_walk(
            pid, *index.walk_for_pid(pid), index.sched, event_index,
            pid_map.get(pid, ""),
        )
        for pid in pids
    ]


def _extract_store_cblists(
    readers: Sequence,
    wanted: Sequence[int],
    build_all: bool = False,
    columns: Optional[Sequence[Tuple]] = None,
) -> List[CBList]:
    """Alg. 1 over ``wanted`` PIDs straight from segment columns.

    One :class:`StoreTraceIndex` pass builds walk columns and sched
    buckets for ``wanted`` only (the cross-node tables still span the
    whole stream), then the columnar walk extracts per PID -- no merged
    event list, no :class:`TraceEvent` construction for non-ID rows.
    ``build_all`` skips the per-row PID filter when ``wanted`` is known
    to cover every traced PID (the serial unfiltered path).  ``columns``
    are the readers' resolved columns when the caller has them.
    """
    index = StoreTraceIndex(
        readers, wanted_pids=None if build_all else wanted, columns=columns
    )
    return _extract_index_cblists(index, wanted)


def _extract_shard(
    args: Tuple[str, Tuple[int, ...], bool, Optional[str]],
) -> List[CBList]:
    """Worker body: open the store, extract this shard's PIDs with the
    columnar walk -- shard-local walk columns and sched buckets, never
    the full merged index (module-level for pickling).  The parent
    store's ``strict`` flag and ``cache_dir`` ride along so a lenient
    handle skips the same unreadable runs in every worker and a cached
    store mmaps the same uncompressed copies instead of inflating the
    segments once per worker."""
    directory, shard, strict, cache_dir = args
    readers = TraceStore(directory, strict=strict, cache_dir=cache_dir).readers()
    return _extract_store_cblists(readers, list(shard))


def _synthesize_run_shard(
    args: Tuple[str, Tuple[str, ...], Optional[Tuple[int, ...]], bool, bool],
) -> List[TimingDag]:
    """Worker body for the merge_dags strategy: one DAG per stored run."""
    directory, run_ids, pids, split_services, model_sync = args
    store = as_store(directory)
    return [
        synthesize_from_trace(
            store.load(run_id),
            pids=pids,
            split_services=split_services,
            model_sync=model_sync,
        )
        for run_id in run_ids
    ]


def _synthesize_readers(
    readers: Sequence,
    pids: Optional[Iterable[int]],
    split_services: bool,
    model_sync: bool,
    columns: Optional[Sequence[Tuple]] = None,
) -> TimingDag:
    """Serial ``merge_traces`` synthesis over open readers (each
    segment decoded once; the readers carry the union pid_map, so no
    planning prefix-read is needed).  ``columns`` are the readers'
    resolved columns when the caller has them."""
    if pids is not None:
        wanted = sorted(pids)
        cblists = _extract_store_cblists(readers, wanted, columns=columns)
    else:
        union: Dict[int, Optional[str]] = {}
        for reader in readers:
            union.update(reader.pid_map)
        wanted = sorted(union)
        cblists = _extract_store_cblists(
            readers, wanted, build_all=True, columns=columns
        )
    return synthesize_dag(
        cblists, split_services=split_services, model_sync=model_sync
    )


def synthesize_from_store(
    store: StoreLike,
    pids: Optional[Iterable[int]] = None,
    jobs: int = 1,
    split_services: bool = True,
    model_sync: bool = True,
    strategy: str = STRATEGY_MERGE_TRACES,
) -> TimingDag:
    """Trace store -> timing DAG, optionally sharded across processes.

    ``jobs=1`` stays in-process.  Results are byte-identical for any
    ``jobs`` value; only wall-clock changes.
    """
    if jobs < 1:
        raise ValueError("need at least one job")
    store = as_store(store)

    if strategy == STRATEGY_MERGE_DAGS:
        return _synthesize_merge_dags(store, pids, jobs, split_services, model_sync)
    if strategy != STRATEGY_MERGE_TRACES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected "
            f"{STRATEGY_MERGE_TRACES!r} or {STRATEGY_MERGE_DAGS!r}"
        )

    if jobs == 1:
        return _synthesize_readers(
            store.readers(), pids, split_services, model_sync
        )

    # Sharded: plan from the cheap pid_map prefixes, decode in workers.
    if pids is not None:
        wanted = sorted(pids)
    else:
        wanted = sorted(store.union_pid_map())
    jobs = min(jobs, len(wanted)) if wanted else 1
    if jobs == 1:
        cblists = _extract_store_cblists(store.readers(), wanted)
    else:
        shards = _shard(wanted, jobs)
        by_pid: Dict[int, CBList] = {}
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            for shard_lists in pool.map(
                _extract_shard,
                [
                    (store.directory, tuple(shard), store.strict,
                     store.cache_dir)
                    for shard in shards
                ],
            ):
                for cblist in shard_lists:
                    by_pid[cblist.pid] = cblist
        cblists = [by_pid[pid] for pid in wanted]
    return synthesize_dag(
        cblists, split_services=split_services, model_sync=model_sync
    )


def _synthesize_merge_dags(
    store,
    pids: Optional[Iterable[int]],
    jobs: int,
    split_services: bool,
    model_sync: bool,
) -> TimingDag:
    run_ids = store.run_ids()
    if not run_ids:
        raise ValueError(f"trace store {store.directory!r} holds no runs")
    pids_key = tuple(sorted(pids)) if pids is not None else None
    jobs = min(jobs, len(run_ids))
    if jobs == 1:
        dags = _synthesize_run_shard(
            (store.directory, tuple(run_ids), pids_key, split_services, model_sync)
        )
    else:
        shards = _shard(run_ids, jobs)
        by_run: Dict[str, TimingDag] = {}
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            for shard, shard_dags in zip(
                shards,
                pool.map(
                    _synthesize_run_shard,
                    [
                        (store.directory, tuple(shard), pids_key,
                         split_services, model_sync)
                        for shard in shards
                    ],
                ),
            ):
                by_run.update(zip(shard, shard_dags))
        dags = [by_run[run_id] for run_id in run_ids]
    return merge_dags(dags)
