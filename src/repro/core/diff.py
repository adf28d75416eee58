"""Timing-model diffing and regression gates.

Synthesized models are most useful when tracked over time: a new
software version, a different deployment, or a new operating mode can
add/remove callbacks, rewire topics, or shift execution-time profiles.
``diff_dags`` compares two models structurally and statistically --
the regression-checking workflow the paper's "debugging and
optimization" outlook (Sec. VII) implies -- and ``percentile_gates``
adds tail-latency exec-time gates (p95/p99-style) on top of the
mean/worst drift thresholds.  ``repro diff`` exposes both with CI
exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .dag import TimingDag


@dataclass(frozen=True)
class StatDrift:
    """Execution-time drift of one callback between two models."""

    key: str
    old_mwcet: int
    new_mwcet: int
    old_macet: float
    new_macet: float

    @property
    def mwcet_ratio(self) -> float:
        if self.old_mwcet == 0:
            return float("inf") if self.new_mwcet else 1.0
        return self.new_mwcet / self.old_mwcet


@dataclass(frozen=True)
class NoDataDrift:
    """A shared callback measured on only one side.

    A callback whose ``exec_stats.count`` dropped to zero stopped
    executing entirely -- the most important drift of all -- so it is
    reported here instead of being silently skipped by the ratio-based
    drift check (which has nothing to divide by).
    """

    key: str
    old_count: int
    new_count: int

    @property
    def vanished(self) -> bool:
        """True when the callback executed in *old* but not in *new*."""
        return self.new_count == 0


@dataclass
class DagDiff:
    """Structural + statistical difference between two timing models."""

    added_vertices: List[str] = field(default_factory=list)
    removed_vertices: List[str] = field(default_factory=list)
    added_edges: List[Tuple[str, str, str]] = field(default_factory=list)
    removed_edges: List[Tuple[str, str, str]] = field(default_factory=list)
    drifted: List[StatDrift] = field(default_factory=list)
    no_data: List[NoDataDrift] = field(default_factory=list)

    @property
    def structurally_equal(self) -> bool:
        return not (
            self.added_vertices
            or self.removed_vertices
            or self.added_edges
            or self.removed_edges
        )

    @property
    def is_empty(self) -> bool:
        return self.structurally_equal and not self.drifted and not self.no_data

    def summary(self) -> str:
        if self.is_empty:
            return "models are identical (structure and statistics)"
        lines: List[str] = []
        for key in self.added_vertices:
            lines.append(f"+ vertex {key}")
        for key in self.removed_vertices:
            lines.append(f"- vertex {key}")
        for src, dst, topic in self.added_edges:
            lines.append(f"+ edge {src} --[{topic}]--> {dst}")
        for src, dst, topic in self.removed_edges:
            lines.append(f"- edge {src} --[{topic}]--> {dst}")
        for gap in self.no_data:
            lines.append(
                f"! {gap.key}: "
                + (
                    f"stopped executing (count {gap.old_count} -> 0)"
                    if gap.vanished
                    else f"started executing (count 0 -> {gap.new_count})"
                )
            )
        for drift in self.drifted:
            lines.append(
                f"~ {drift.key}: mWCET {drift.old_mwcet / 1e6:.2f} -> "
                f"{drift.new_mwcet / 1e6:.2f} ms ({drift.mwcet_ratio:.2f}x), "
                f"mACET {drift.old_macet / 1e6:.2f} -> "
                f"{drift.new_macet / 1e6:.2f} ms"
            )
        return "\n".join(lines)


def diff_dags(
    old: TimingDag, new: TimingDag, drift_threshold: float = 0.10
) -> DagDiff:
    """Compare two timing models.

    A shared callback is reported as *drifted* when its mWCET or mACET
    moved by more than ``drift_threshold`` (relative).  A shared
    callback with execution samples on exactly one side lands in
    ``no_data`` (there is no ratio to threshold, but a callback that
    stopped -- or started -- executing is a structural-grade change).
    """
    if drift_threshold < 0:
        raise ValueError("drift_threshold must be >= 0")
    old_keys = {v.key for v in old.vertices()}
    new_keys = {v.key for v in new.vertices()}
    old_edges = {(e.src, e.dst, e.topic) for e in old.edges()}
    new_edges = {(e.src, e.dst, e.topic) for e in new.edges()}

    diff = DagDiff(
        added_vertices=sorted(new_keys - old_keys),
        removed_vertices=sorted(old_keys - new_keys),
        added_edges=sorted(new_edges - old_edges),
        removed_edges=sorted(old_edges - new_edges),
    )

    def moved(a: float, b: float) -> bool:
        if a == 0 and b == 0:
            return False
        base = max(abs(a), 1e-12)
        return abs(b - a) / base > drift_threshold

    for key in sorted(old_keys & new_keys):
        old_stats = old.vertex(key).exec_stats
        new_stats = new.vertex(key).exec_stats
        if old_stats.count == 0 and new_stats.count == 0:
            continue  # never measured on either side: nothing to compare
        if old_stats.count == 0 or new_stats.count == 0:
            diff.no_data.append(
                NoDataDrift(
                    key=key,
                    old_count=old_stats.count,
                    new_count=new_stats.count,
                )
            )
            continue
        if moved(old_stats.mwcet, new_stats.mwcet) or moved(
            old_stats.macet, new_stats.macet
        ):
            diff.drifted.append(
                StatDrift(
                    key=key,
                    old_mwcet=old_stats.mwcet,
                    new_mwcet=new_stats.mwcet,
                    old_macet=old_stats.macet,
                    new_macet=new_stats.macet,
                )
            )
    return diff


@dataclass(frozen=True)
class PercentileGate:
    """One callback's exec-time percentile compared across two models."""

    key: str
    percentile: float
    old_ns: float
    new_ns: float
    max_ratio: float

    @property
    def ratio(self) -> float:
        if self.old_ns == 0:
            return float("inf") if self.new_ns else 1.0
        return self.new_ns / self.old_ns

    @property
    def exceeded(self) -> bool:
        return self.ratio > self.max_ratio

    def describe(self) -> str:
        status = "FAIL" if self.exceeded else "ok"
        return (
            f"[{status}] {self.key}: p{self.percentile:g} exec "
            f"{self.old_ns / 1e6:.3f} -> {self.new_ns / 1e6:.3f} ms "
            f"({self.ratio:.2f}x, limit {self.max_ratio:.2f}x)"
        )


def percentile_gates(
    old: TimingDag,
    new: TimingDag,
    percentile: float = 99.0,
    max_ratio: float = 1.2,
) -> List[PercentileGate]:
    """Tail exec-time gates over the shared, measured callbacks.

    For each callback with execution samples in *both* models, compares
    the ``percentile``-th percentile of the raw per-instance execution
    times and flags it (``exceeded``) when the new tail grew beyond
    ``max_ratio`` times the old one.  Callbacks measured on one side
    only are ``diff_dags``'s ``no_data`` findings, not gates.
    """
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if max_ratio <= 0:
        raise ValueError("max_ratio must be > 0")
    gates: List[PercentileGate] = []
    new_keys = {v.key for v in new.vertices()}
    for vertex in sorted(old.vertices(), key=lambda v: v.key):
        if vertex.key not in new_keys or not vertex.exec_times:
            continue
        new_times = new.vertex(vertex.key).exec_times
        if not new_times:
            continue
        gates.append(
            PercentileGate(
                key=vertex.key,
                percentile=percentile,
                old_ns=float(
                    np.percentile(np.asarray(vertex.exec_times, dtype=np.int64), percentile)
                ),
                new_ns=float(
                    np.percentile(np.asarray(new_times, dtype=np.int64), percentile)
                ),
                max_ratio=max_ratio,
            )
        )
    return gates
