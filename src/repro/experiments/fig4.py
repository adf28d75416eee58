"""Experiment E-F4: estimate evolution with the number of runs (Fig. 4).

The paper merges DAGs over growing run prefixes and plots mWCET, mACET
and mBCET of four AVP callbacks (localizer cb6, filter_front cb2,
filter_rear cb1, voxel_grid cb5) against the number of runs: the
averages stabilise almost immediately while the measured WCET keeps
growing (about +10 % for cb2 by run ~23) before plateauing -- evidence
that modeling accuracy improves with more traces.

This module turns the per-run DAGs of the Table II experiment into
those series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.dag import TimingDag
from ..core.stats import ExecStats, prefix_stats
from .table2 import Table2Config, Table2Result, run_table2

#: Callbacks shown in Fig. 4.
FIG4_CALLBACKS = ("cb1", "cb2", "cb5", "cb6")


@dataclass
class Fig4Series:
    """One callback's estimate evolution over run prefixes."""

    cb: str
    stats: List[ExecStats]

    @property
    def runs(self) -> int:
        return len(self.stats)

    def mwcet_growth(self) -> float:
        """Relative growth of the WCET estimate from run 1 to the end."""
        first, last = self.stats[0].mwcet, self.stats[-1].mwcet
        if first <= 0:
            return 0.0
        return (last - first) / first

    def runs_to_converge(self) -> int:
        """First run index (1-based) at which mWCET reaches its final value."""
        final = self.stats[-1].mwcet
        for index, stat in enumerate(self.stats):
            if stat.mwcet == final:
                return index + 1
        return len(self.stats)


@dataclass
class Fig4Result:
    series: Dict[str, Fig4Series]

    def table(self) -> str:
        """Text rendering: one row per run milestone, one column set per CB."""
        cbs = sorted(self.series)
        runs = max(s.runs for s in self.series.values())
        milestones = sorted({1, 2, 3, 5, 10, 15, 20, 25, 30, 40, runs} & set(range(1, runs + 1)))
        header = "runs  " + "  ".join(
            f"{cb}:[mBCET mACET mWCET]" for cb in cbs
        )
        lines = [header, "-" * len(header)]
        for milestone in milestones:
            cells = []
            for cb in cbs:
                stat = self.series[cb].stats[milestone - 1]
                m = stat.ms()
                cells.append(f"{m.mbcet:6.2f} {m.macet:6.2f} {m.mwcet:6.2f}")
            lines.append(f"{milestone:>4}  " + "   ".join(cells))
        return "\n".join(lines)


def fig4_from_dags(
    per_run_dags: Sequence[TimingDag],
    cb_keys: Dict[str, str],
    callbacks: Sequence[str] = FIG4_CALLBACKS,
) -> Fig4Result:
    """Build the Fig. 4 series from per-run DAGs (prefix merging)."""
    series: Dict[str, Fig4Series] = {}
    for cb in callbacks:
        key = cb_keys[cb]
        per_run_samples: List[List[int]] = []
        for dag in per_run_dags:
            if dag.has_vertex(key):
                per_run_samples.append(list(dag.vertex(key).exec_times))
            else:
                per_run_samples.append([])
        series[cb] = Fig4Series(cb=cb, stats=prefix_stats(per_run_samples))
    return Fig4Result(series=series)


def run_fig4(config: Table2Config = Table2Config()) -> Fig4Result:
    """Convenience: run the Table II experiment and derive Fig. 4."""
    table2 = run_table2(config)
    return fig4_from_table2(table2)


def fig4_from_table2(table2: Table2Result) -> Fig4Result:
    return fig4_from_dags(table2.per_run_dags, table2.cb_keys)
