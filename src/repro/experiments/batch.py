"""Parallel batch runner: shard N seeded scenario runs across CPU cores.

The paper's multi-run experiments (Table II, Fig. 4) need 50+
independent simulated runs; each run is a self-contained simulation, so
the set parallelises perfectly.  :func:`run_batch` executes any
registered scenario ``runs`` times with per-run seeds, sharding the run
indices over a :class:`concurrent.futures.ProcessPoolExecutor`, and
collects per-run synthesized DAGs, the merged DAG (strategy 2 of
Sec. V) and, optionally, every trace in a
:class:`~repro.tracing.session.TraceDatabase`.

Determinism is independent of the worker count: a run's seed, clock
base and PID base derive only from its ``run_index`` (exactly as in
:class:`~repro.experiments.runner.RunConfig`), workers rebuild the
scenario spec from ``(name, params, run_index)`` rather than receiving
live objects, and results are re-sorted by run index before merging.
``--jobs 1`` therefore produces byte-identical artefacts to ``--jobs
4``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.dag import TimingDag
from ..core.export import format_exec_table
from ..core.merge import merge_dags
from ..core.pipeline import synthesize_from_trace
from ..scenarios.registry import build_scenario_spec
from ..sim.kernel import MSEC
from ..tracing.session import Trace, TraceDatabase
from .runner import RunConfig, run_once


@dataclass
class BatchConfig:
    """Machine/tracing knobs shared by all runs of a batch.

    Fields mirror :class:`~repro.experiments.runner.RunConfig`;
    ``duration_ns`` / ``num_cpus`` default to the scenario spec's own
    values when left ``None``.  ``scenario_params`` is forwarded to the
    scenario factory (it must contain only picklable values).
    """

    duration_ns: Optional[int] = None
    num_cpus: Optional[int] = None
    base_seed: int = 1000
    warmup_ns: int = 2 * MSEC
    timeslice_ns: int = 4 * MSEC
    dds_latency_ns: int = 50_000
    kernel_filter: bool = True
    segment_every_ns: Optional[int] = None
    #: Keep every run's trace in the result database.  Off by default:
    #: most callers (Table II, Fig. 4, the CLI) only need the DAGs, and
    #: pickling full traces back from worker processes inflates the IPC
    #: payload by orders of magnitude on 50-run batches.  Enable
    #: explicitly when the traces themselves are the product.
    collect_traces: bool = False
    #: Scheduling-policy override for every run (None: the scenario
    #: spec's own policy, which defaults to ``"priority"``).
    sched_policy: Optional[str] = None
    scenario_params: Dict[str, Any] = field(default_factory=dict)

    def run_config(
        self, duration_ns: int, num_cpus: int, sched_policy: Optional[str] = None
    ) -> RunConfig:
        return RunConfig(
            duration_ns=duration_ns,
            warmup_ns=self.warmup_ns,
            num_cpus=num_cpus,
            timeslice_ns=self.timeslice_ns,
            base_seed=self.base_seed,
            kernel_filter=self.kernel_filter,
            segment_every_ns=self.segment_every_ns,
            dds_latency_ns=self.dds_latency_ns,
            sched_policy=sched_policy,
        )


@dataclass
class BatchResult:
    """Everything produced by one batch."""

    scenario: str
    runs: int
    jobs: int
    spec: Any  # ScenarioSpec of run 0 (reporting/ground-truth handle)
    per_run_dags: List[TimingDag]
    merged_dag: TimingDag
    database: TraceDatabase

    def table(self) -> str:
        """Table II-style exec-time table over the merged model."""
        return format_exec_table(self.merged_dag)


def _run_setup(
    scenario: str, run_index: int, runs: int, config: BatchConfig
) -> Tuple[Any, RunConfig]:
    """One run's scenario spec and machine config: duration, CPU count
    and scheduling policy come from ``config`` when it sets them, else
    from the spec.  Shared by batch runs and ``repro record``."""
    spec = build_scenario_spec(
        scenario,
        run_index=run_index,
        runs=runs,
        duration_ns=config.duration_ns,
        policy=config.sched_policy,
        **config.scenario_params,
    )
    duration = config.duration_ns if config.duration_ns is not None else spec.duration_ns
    num_cpus = config.num_cpus if config.num_cpus is not None else spec.num_cpus
    # "priority" maps to None (the scheduler's default) so default-policy
    # batches keep working with injected legacy scheduler classes.
    policy = spec.policy if spec.policy != "priority" else None
    return spec, config.run_config(duration, num_cpus, sched_policy=policy)


def _execute_run(
    scenario: str, run_index: int, runs: int, config: BatchConfig
) -> Tuple[int, TimingDag, Optional[Trace]]:
    """One seeded, traced, synthesized scenario run (worker body)."""
    spec, run_config = _run_setup(scenario, run_index, runs, config)
    result = run_once(lambda world, i: spec.build(world), run_config, run_index=run_index)
    dag = synthesize_from_trace(result.trace, pids=result.apps.pids)
    return (run_index, dag, result.trace if config.collect_traces else None)


def _execute_shard(
    args: Tuple[str, List[int], int, BatchConfig],
) -> List[Tuple[int, TimingDag, Optional[Trace]]]:
    """Run a shard of run indices (module-level for pickling)."""
    scenario, run_indices, runs, config = args
    return [_execute_run(scenario, i, runs, config) for i in run_indices]


def _shard(run_indices: List[int], jobs: int) -> List[List[int]]:
    """Round-robin split, so long batches balance across workers.

    Also the single balancing rule for the store subsystem's sharded
    recording and synthesis (``repro.store``) -- one implementation
    backs every jobs-determinism guarantee.
    """
    shards: List[List[int]] = [[] for _ in range(jobs)]
    for position, run_index in enumerate(run_indices):
        shards[position % jobs].append(run_index)
    return [shard for shard in shards if shard]


def run_batch(
    scenario: str,
    runs: int,
    jobs: int = 1,
    config: Optional[BatchConfig] = None,
) -> BatchResult:
    """Execute ``runs`` seeded runs of ``scenario`` on ``jobs`` workers.

    Results are identical for any ``jobs`` value; only wall-clock time
    changes.  ``jobs=1`` stays in-process (no executor), which is also
    the fallback to use under interpreters without ``fork``/pickling
    support for worker dispatch.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if jobs < 1:
        raise ValueError("need at least one job")
    config = config if config is not None else BatchConfig()
    if config.duration_ns is not None and config.duration_ns <= 0:
        raise ValueError("duration must be positive")
    # Built once up-front: validates the name/params before forking and
    # gives the caller a spec handle for ground-truth/report use.
    spec = build_scenario_spec(
        scenario,
        run_index=0,
        runs=runs,
        duration_ns=config.duration_ns,
        policy=config.sched_policy,
        **config.scenario_params,
    )

    run_indices = list(range(runs))
    jobs = min(jobs, runs)
    if jobs == 1:
        outcomes = _execute_shard((scenario, run_indices, runs, config))
    else:
        shards = _shard(run_indices, jobs)
        outcomes = []
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            for shard_result in pool.map(
                _execute_shard,
                [(scenario, shard, runs, config) for shard in shards],
            ):
                outcomes.extend(shard_result)

    outcomes.sort(key=lambda outcome: outcome[0])
    per_run_dags = [dag for _, dag, _ in outcomes]
    database = TraceDatabase()
    for run_index, _, trace in outcomes:
        if trace is not None:
            database.add(f"run{run_index:03d}", trace)
    return BatchResult(
        scenario=scenario,
        runs=runs,
        jobs=jobs,
        spec=spec,
        per_run_dags=per_run_dags,
        merged_dag=merge_dags(per_run_dags),
        database=database,
    )
