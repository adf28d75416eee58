"""Out-of-core model synthesis straight from a trace store.

``synthesize_from_store`` reproduces the two multi-run strategies of
Sec. V without an in-memory :class:`TraceDatabase`; both run
:func:`_synthesize_readers` over the store's own readers:

* **merge_traces** (default): the stored runs' columns feed one
  :class:`~repro.store.index.StoreTraceIndex` -- consumed run by run
  when the runs are time-ordered, merged as columns by one stable ts
  sort when they overlap -- and :func:`_extract_index_cblists` runs the
  columnar Alg. 1 walk over it.  This is the same index and walk the
  in-memory pipeline (:func:`~repro.core.extraction.extract_all`) and
  the live service run.  It runs in one process.
* **merge_dags**: one DAG per stored run, each synthesized from that
  run's reader alone, merged with :func:`~repro.core.merge.merge_dags`.
  Runs are independent, so ``jobs > 1`` fans them out over worker
  processes (:func:`~repro.experiments.batch._fan_out`); each worker
  re-opens the store with the parent's ``strict`` flag and
  ``cache_dir`` and synthesizes only runs the parent's readers
  accepted.  The DAGs merge in run-id order, so the model is
  byte-identical for any ``jobs`` value.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.dag import TimingDag
from ..core.extraction import EventIndex, _extract_pid_walk
from ..core.merge import merge_dags
from ..core.pipeline import STRATEGY_MERGE_DAGS, STRATEGY_MERGE_TRACES
from ..core.records import CBList
from ..core.synthesis import synthesize_dag
from ..experiments.batch import _fan_out
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


def _synthesize_readers(
    readers: Sequence,
    pids: Optional[Iterable[int]],
    split_services: bool,
    model_sync: bool,
    columns: Optional[Sequence[Tuple]] = None,
) -> TimingDag:
    """Alg. 1 + DAG synthesis over open readers, straight from segment
    columns: one :class:`StoreTraceIndex` pass, then the columnar walk
    per PID -- no merged event list, no :class:`TraceEvent`
    construction for non-ID rows, each segment decoded once.

    Without ``pids`` the model covers every PID of the readers'
    pid_maps and the index keeps every row; with ``pids`` the index
    builds walk columns and sched buckets for those PIDs only (the
    cross-node tables still span the whole stream).  ``columns`` are
    the readers' resolved columns when the caller has them.
    """
    if pids is None:
        wanted = sorted(set().union(*(reader.pid_map for reader in readers)))
        index = StoreTraceIndex(readers, columns=columns)
    else:
        wanted = sorted(pids)
        index = StoreTraceIndex(readers, wanted_pids=wanted, columns=columns)
    return synthesize_dag(
        _extract_index_cblists(index, wanted),
        split_services=split_services,
        model_sync=model_sync,
    )


def _synthesize_run(
    run_id: str,
    store: TraceStore,
    pids: Optional[List[int]],
    split_services: bool,
    model_sync: bool,
) -> TimingDag:
    """One stored run's DAG, the ``merge_dags`` unit (module-level for
    pickling: a worker receives ``store`` as a re-opened handle)."""
    return _synthesize_readers(
        [store.open(run_id)], pids, split_services, model_sync
    )


def synthesize_from_store(
    store: StoreLike,
    pids: Optional[Iterable[int]] = None,
    jobs: int = 1,
    split_services: bool = True,
    model_sync: bool = True,
    strategy: str = STRATEGY_MERGE_TRACES,
) -> TimingDag:
    """Trace store -> timing DAG.

    ``merge_traces`` synthesizes in this process; ``jobs`` applies to
    ``merge_dags`` only, whose per-run DAGs fan out over ``jobs``
    worker processes with byte-identical results for any value.
    """
    store = as_store(store)
    pids = None if pids is None else sorted(pids)
    if strategy == STRATEGY_MERGE_DAGS:
        run_ids = list(store.open_runs())
        if not run_ids:
            raise ValueError(f"trace store {store.directory!r} holds no runs")
        return merge_dags(_fan_out(
            partial(
                _synthesize_run, store=store, pids=pids,
                split_services=split_services, model_sync=model_sync,
            ),
            run_ids,
            jobs,
        ))
    if strategy != STRATEGY_MERGE_TRACES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected "
            f"{STRATEGY_MERGE_TRACES!r} or {STRATEGY_MERGE_DAGS!r}"
        )
    if jobs != 1:
        raise ValueError(
            f"{STRATEGY_MERGE_TRACES!r} synthesizes in one process "
            f"(jobs={jobs}); only {STRATEGY_MERGE_DAGS!r} fans runs out "
            "over worker processes"
        )
    return _synthesize_readers(store.readers(), pids, split_services, model_sync)
