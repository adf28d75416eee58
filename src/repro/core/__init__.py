"""Timing-model synthesis: the paper's primary contribution.

Alg. 1 (callback extraction), Alg. 2 (execution-time measurement), DAG
synthesis with service replication and AND/OR junctions, multi-run and
multi-mode merging, statistics and exporters.
"""

from .dag import DagEdge, DagValidationError, DagVertex, TimingDag
from .diff import (
    DagDiff,
    NoDataDrift,
    PercentileGate,
    StatDrift,
    diff_dags,
    percentile_gates,
)
from .exec_time import SchedIndex, get_exec_time
from .export import (
    dag_from_dict,
    dag_from_json,
    dag_to_dict,
    dag_to_json,
    format_edges,
    format_exec_table,
    to_dot,
)
from .extraction import EventIndex, TOPIC_ID_SEPARATOR, cat, extract_all, extract_callbacks
from .merge import (
    MultiModeDag,
    dag_from_merged_traces,
    dag_from_runs,
    dag_per_trace,
    merge_dags,
)
from .pipeline import (
    STRATEGY_MERGE_DAGS,
    STRATEGY_MERGE_TRACES,
    synthesize_from_database,
    synthesize_from_trace,
)
from .records import CallbackInstance, CallbackRecord, CBList
from .stats import ExecStats, ExecStatsMs, estimate_period, prefix_stats, utilization
from .synthesis import junction_key, synthesize_dag, vertex_key

__all__ = [
    "DagDiff",
    "NoDataDrift",
    "PercentileGate",
    "StatDrift",
    "diff_dags",
    "percentile_gates",
    "DagEdge",
    "DagValidationError",
    "DagVertex",
    "TimingDag",
    "SchedIndex",
    "get_exec_time",
    "dag_from_dict",
    "dag_from_json",
    "dag_to_dict",
    "dag_to_json",
    "format_edges",
    "format_exec_table",
    "to_dot",
    "EventIndex",
    "TOPIC_ID_SEPARATOR",
    "cat",
    "extract_all",
    "extract_callbacks",
    "MultiModeDag",
    "dag_from_merged_traces",
    "dag_from_runs",
    "dag_per_trace",
    "merge_dags",
    "STRATEGY_MERGE_DAGS",
    "STRATEGY_MERGE_TRACES",
    "synthesize_from_database",
    "synthesize_from_trace",
    "CallbackInstance",
    "CallbackRecord",
    "CBList",
    "ExecStats",
    "ExecStatsMs",
    "estimate_period",
    "prefix_stats",
    "utilization",
    "junction_key",
    "synthesize_dag",
    "vertex_key",
]
