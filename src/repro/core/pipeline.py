"""End-to-end convenience: traces -> timing model.

The highest-level entry points of the library:

* :func:`synthesize_from_trace` -- one trace, one DAG;
* :func:`synthesize_from_database` -- many runs with a merging strategy.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..tracing.session import Trace, TraceDatabase
from .dag import TimingDag
from .extraction import extract_all
from .merge import dag_from_merged_traces, dag_from_runs
from .synthesis import synthesize_dag

#: Merging strategies for multi-run synthesis (Sec. V).
STRATEGY_MERGE_TRACES = "merge_traces"
STRATEGY_MERGE_DAGS = "merge_dags"


def synthesize_from_trace(
    trace: Trace,
    pids: Optional[Iterable[int]] = None,
    split_services: bool = True,
    model_sync: bool = True,
) -> TimingDag:
    """Alg. 1 per node + DAG synthesis for one trace.

    ``pids`` restricts the model to the given nodes (e.g. only the AVP
    application when SYN runs concurrently); default: every node the
    ROS2-INIT tracer discovered.  ``split_services`` / ``model_sync``
    are ablation switches (see :mod:`repro.core.synthesis`).
    """
    return synthesize_dag(
        extract_all(trace, pids=pids),
        split_services=split_services,
        model_sync=model_sync,
    )


def synthesize_from_database(
    database: TraceDatabase,
    strategy: str = STRATEGY_MERGE_DAGS,
    pids: Optional[Iterable[int]] = None,
) -> TimingDag:
    """Synthesize across all runs stored in a trace database."""
    traces = database.traces()
    if strategy == STRATEGY_MERGE_DAGS:
        return dag_from_runs(traces, pids=pids)
    if strategy == STRATEGY_MERGE_TRACES:
        return dag_from_merged_traces(traces, pids=pids)
    raise ValueError(
        f"unknown strategy {strategy!r}; expected "
        f"{STRATEGY_MERGE_DAGS!r} or {STRATEGY_MERGE_TRACES!r}"
    )
