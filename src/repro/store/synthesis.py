"""Out-of-core model synthesis straight from a trace store.

``synthesize_from_store`` reproduces the two multi-run strategies of
Sec. V without an in-memory :class:`TraceDatabase`; both run
:func:`_synthesize_readers` over the store's own readers:

* **merge_traces** (default): the stored runs' columns feed one
  :class:`~repro.store.index.StoreTraceIndex` -- merged as columns into
  one chronological stream by one stable ts sort -- and
  :func:`_extract_index_cblists` runs the columnar Alg. 1 walk over it.
  This is the same index and walk the in-memory pipeline
  (:func:`~repro.core.extraction.extract_all`) and the live service's
  per-run fragments run; it is also the service's model for a window
  the runs' folds cannot assemble.  It runs in one process.
* **merge_dags**: one DAG per stored run, each synthesized from that
  run's reader alone, merged with :func:`~repro.core.merge.merge_dags`.
  In one process, the runs are synthesized from the readers that
  validated the store, resolved once by
  :meth:`~repro.store.database.TraceStore.resolve_runs`.  Runs are
  independent, so ``jobs > 1`` fans them out over worker processes
  (:func:`~repro.experiments.batch._fan_out`); each worker re-opens
  the store with the parent's ``strict`` flag and ``cache_dir`` and
  opens and resolves only its own runs among those the parent's
  readers accepted.  The DAGs merge in run-id order, so the model is
  byte-identical for any ``jobs`` value.

Both run with the cyclic collector paused
(:class:`~repro.core.gcpause.paused_gc`): a synthesis makes no
reference cycles, so a collection during one would only re-scan the
index, the walk's records and the DAG it is building.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dag import TimingDag
from ..core.exec_time import SchedIndex
from ..core.extraction import EventIndex, _extract_pid_walk, fill_exec_times
from ..core.gcpause import paused_gc
from ..core.merge import merge_dags
from ..core.pipeline import STRATEGY_MERGE_DAGS, STRATEGY_MERGE_TRACES
from ..core.records import CBList
from ..core.synthesis import synthesize_dag
from ..experiments.batch import _fan_out
from .database import StoreLike, TraceStore, as_store
from .index import StoreTraceIndex


def _extract_index_cblists(
    index: StoreTraceIndex,
    pids: Iterable[int],
    sched: Optional[SchedIndex] = None,
) -> List[CBList]:
    """Alg. 1 + Alg. 2 over a built index: one CBList per PID, in
    ``pids`` order -- the one walk of the in-memory pipeline, the batch
    build and the live service.

    The Alg. 1 walk runs PID by PID and collects every callback
    instance's window; one :meth:`SchedIndex.exec_times` call over the
    index's sched buckets (or ``sched``) then measures them all, and
    the samples are filled in walk order."""
    pids = list(pids)
    event_index = EventIndex(index)
    pid_map = index.pid_map
    starts = array("q")
    ends = array("q")
    counts: List[int] = []
    cblists = []
    for pid in pids:
        before = len(starts)
        cblists.append(_extract_pid_walk(
            pid, *index.walk_for_pid(pid), event_index, pid_map.get(pid, ""),
            starts, ends,
        ))
        counts.append(len(starts) - before)
    sched = index.sched if sched is None else sched
    window_pids = np.repeat(np.asarray(pids, dtype=np.int64), counts)
    fill_exec_times(cblists, sched.exec_times(window_pids, starts, ends).tolist())
    return cblists


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


def _merge_run_dags(
    readers: Sequence,
    pids: Optional[Iterable[int]],
    split_services: bool,
    model_sync: bool,
    columns: Optional[Sequence[Tuple]] = None,
) -> TimingDag:
    """``merge_dags`` in this process over open readers: one DAG per
    run, merged in reader order; ``columns`` are the readers' resolved
    columns when the caller has them."""
    if columns is None:
        columns = [None] * len(readers)
    return merge_dags([
        _synthesize_readers(
            [reader], pids, split_services, model_sync, columns=[resolved]
        )
        for reader, resolved in zip(readers, columns)
    ])


def _synthesize_run(
    run_id: str,
    store: TraceStore,
    pids: Optional[List[int]],
    split_services: bool,
    model_sync: bool,
) -> Optional[TimingDag]:
    """One stored run's DAG, the ``merge_dags`` unit of a worker process
    (module-level for pickling: the worker receives ``store`` as a
    re-opened handle and opens only its own runs).  None when the
    resolve diagnoses the run and the store, opened with
    ``strict=False``, skips it (warning in the worker)."""
    resolved = store.resolve_runs({run_id: store.open(run_id)})
    if not resolved:
        return None
    [run] = resolved.values()
    return _synthesize_readers(
        [run.reader], pids, split_services, model_sync, columns=[run.columns]
    )


@paused_gc()
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
    worker processes with byte-identical results for any value.  Each
    run is opened once per process: in-process synthesis reuses the
    readers that validated the store, and a worker opens only its own
    runs.  Each strategy resolves each run once, in the process that
    synthesizes it (:meth:`~repro.store.database.TraceStore.resolve_runs`),
    so a store opened with ``strict=False`` skips a run diagnosed there
    too.
    """
    store = as_store(store)
    pids = None if pids is None else sorted(pids)
    if strategy == STRATEGY_MERGE_DAGS:
        opened = store.open_runs()
        if not opened:
            raise ValueError(f"trace store {store.directory!r} holds no runs")
        if min(jobs, len(opened)) == 1:
            resolved = store.resolve_runs(opened).values()
            return _merge_run_dags(
                [run.reader for run in resolved], pids, split_services,
                model_sync, columns=[run.columns for run in resolved],
            )
        dags = _fan_out(
            partial(
                _synthesize_run, store=store, pids=pids,
                split_services=split_services, model_sync=model_sync,
            ),
            list(opened),
            jobs,
        )
        return merge_dags(dag for dag in dags if dag is not None)
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
    resolved = store.resolve_runs().values()
    return _synthesize_readers(
        [run.reader for run in resolved], pids, split_services, model_sync,
        columns=[run.columns for run in resolved],
    )
