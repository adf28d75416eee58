"""The api side of the service's api/worker split.

A :class:`ServiceState` is taken under the service lock at query time
and then answers without it: the run-id list is frozen, the timing DAG
is the maintainer's already-built (cached) model, and store reads go
against committed segment files, which are immutable -- the ingest
worker only ever *adds* runs via atomic rename.  So a large ``model``
export never blocks ingestion, and a segment that commits mid-query
does not shear the answer.  ``model --format json`` renders with
:func:`~repro.core.export.dag_to_json`, which writes the JSON schema
with C-level string and int encoding, and joins the sample lists of
the retained runs the model was merged from, each rendered once and
kept with the run's fragment (the first JSON query after the run
entered the window renders it under the lock:
:meth:`~repro.service.live.LiveSynthesizer.model_samples`), so a query
renders no sample rendered before.

``latency`` reads no segment: :func:`latency_summary` follows the
chain over the retained runs' window
(:meth:`~repro.analysis.fragments.FragmentWindow.chain_latencies`),
taken under the service lock and followed outside it: each run's
latency fragment, built at ingest, through the run's journey slot, so
after an arrival only the new run's writes are followed.  Once per
window the fragments are checked for a journey that could cross runs,
and a window that fails the check is followed as one index (over its
runs' merged columns when they overlap in time).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.chains import Chain, enumerate_chains, format_chains
from ..analysis.fragments import FragmentWindow
from ..core.dag import TimingDag
from ..core.export import (
    dag_to_json,
    format_edges,
    format_exec_table,
    to_dot,
)
from ..store.database import TraceStore

#: ``model`` query output formats.
MODEL_FORMATS = ("dot", "json", "edges", "exec")
#: The indent ``model --format json`` renders with.
MODEL_JSON_INDENT = 2


def latency_summary(
    topics: Sequence[str], window: FragmentWindow
) -> Dict[str, Any]:
    """Chain-latency stats for a topic chain (ns, like the analysis
    CLI) over a live service's window of retained runs."""
    values = [
        latency.latency_ns for latency in window.chain_latencies(topics)
    ]
    summary: Dict[str, Any] = {"topics": list(topics), "count": len(values)}
    if values:
        summary.update(
            min_ns=min(values),
            max_ns=max(values),
            mean_ns=sum(values) / len(values),
        )
    return summary


class ServiceState:
    """One consistent snapshot of the live service."""

    def __init__(
        self,
        directory: str,
        run_ids: Sequence[str],
        dag: TimingDag,
        counters: Dict[str, Any],
        retain_window: Optional[int],
        endpoint: Optional[str] = None,
        uptime_s: float = 0.0,
    ):
        self.directory = directory
        self.run_ids = list(run_ids)
        self._dag = dag
        self.counters = dict(counters)
        self.retain_window = retain_window
        self.endpoint = endpoint
        self.uptime_s = uptime_s

    # -- model -------------------------------------------------------------

    def model(self) -> TimingDag:
        return self._dag

    def model_text(self, fmt: str = "dot") -> str:
        """The model rendered as ``dot`` / ``json`` / ``edges`` /
        ``exec`` -- the same renderers ``repro synthesize`` writes, so a
        served model diffs byte-for-byte against batch artifacts."""
        if fmt == "dot":
            return to_dot(self._dag)
        if fmt == "json":
            return dag_to_json(self._dag, indent=MODEL_JSON_INDENT)
        if fmt == "edges":
            return format_edges(self._dag)
        if fmt == "exec":
            return format_exec_table(self._dag)
        raise ValueError(
            f"unknown model format {fmt!r}; expected one of "
            f"{', '.join(MODEL_FORMATS)}"
        )

    # -- analyses ----------------------------------------------------------

    def chains(
        self,
        sources: Optional[Sequence[str]] = None,
        sinks: Optional[Sequence[str]] = None,
    ) -> List[Chain]:
        return enumerate_chains(self._dag, sources=sources, sinks=sinks)

    def chains_text(
        self,
        sources: Optional[Sequence[str]] = None,
        sinks: Optional[Sequence[str]] = None,
    ) -> str:
        return format_chains(self._dag, self.chains(sources, sinks))

    # -- inspection ---------------------------------------------------------

    def store_info(self) -> Dict[str, Any]:
        """Per-run metadata of the retained runs (the served sibling of
        ``repro store-info --json``)."""
        store = TraceStore(self.directory, allow_empty=True)
        runs = []
        for run_id in self.run_ids:
            info = store.run_info(run_id)
            runs.append(
                {
                    "run_id": info.run_id,
                    "format_version": info.format_version,
                    "size_bytes": info.size_bytes,
                    "events": info.events,
                    "ros_events": info.ros_events,
                    "sched_events": info.sched_events,
                    "wakeup_events": info.wakeup_events,
                    "pids": info.pids,
                }
            )
        return {
            "directory": self.directory,
            "runs": runs,
            "total_events": sum(run["events"] for run in runs),
            "total_bytes": sum(run["size_bytes"] for run in runs),
        }

    def status(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "endpoint": self.endpoint,
            "retained_runs": self.run_ids,
            "retain_window": self.retain_window,
            "uptime_s": round(self.uptime_s, 3),
            "counters": dict(self.counters),
        }
