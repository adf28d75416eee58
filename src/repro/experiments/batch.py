"""Parallel batch runner: shard N seeded scenario runs across CPU cores.

The paper's multi-run experiments (Table II, Fig. 4) need 50+
independent simulated runs; each run is a self-contained simulation, so
the set parallelises perfectly.  :func:`run_batch` executes any
registered scenario ``runs`` times with per-run seeds, fanning the run
indices out with :func:`_fan_out`, and collects per-run synthesized
DAGs, the merged DAG (strategy 2 of Sec. V) and, optionally, every
trace in a :class:`~repro.tracing.session.TraceDatabase`.

:func:`_fan_out` is the one process pool of the codebase: recording
(``repro.store.record``), the scenario fuzzer and ``merge_dags`` store
synthesis call it too.  Pools shard independent runs (or samples),
never the PIDs of one run.

Determinism is independent of the worker count: a run's seed, clock
base and PID base derive only from its ``run_index`` (exactly as in
:class:`~repro.experiments.runner.RunConfig`), workers rebuild the
scenario spec from ``(name, params, run_index)`` rather than receiving
live objects, and results are re-sorted by run index before merging.
``--jobs 1`` therefore produces byte-identical artefacts to ``--jobs
4``.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.dag import TimingDag
from ..core.export import format_exec_table
from ..core.merge import merge_dags
from ..core.pipeline import synthesize_from_trace
from ..scenarios.registry import build_scenario_spec
from ..sim.kernel import MSEC
from ..tracing.session import Trace, TraceDatabase
from .runner import RunConfig, run_id_for, run_once


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
) -> Tuple[TimingDag, Optional[Trace]]:
    """One seeded, traced, synthesized scenario run (worker body)."""
    spec, run_config = _run_setup(scenario, run_index, runs, config)
    result = run_once(lambda world, i: spec.build(world), run_config, run_index=run_index)
    dag = synthesize_from_trace(result.trace, pids=result.apps.pids)
    return dag, result.trace if config.collect_traces else None


def _shard(items: List[int], jobs: int) -> List[List[int]]:
    """Round-robin split, so long batches balance across workers."""
    shards: List[List[int]] = [[] for _ in range(jobs)]
    for position, item in enumerate(items):
        shards[position % jobs].append(item)
    return [shard for shard in shards if shard]


def _apply(task: Tuple[Callable, List]) -> List:
    """Worker body of :func:`_fan_out`: one shard of items through its
    function (module-level for pickling)."""
    fn, items = task
    return [fn(item) for item in items]


def _fan_out(fn: Callable, items: Sequence, jobs: int) -> List:
    """``[fn(item) for item in items]`` on up to ``jobs`` worker
    processes: one result per item, in item order.

    Items are independent units of work (runs, fuzz samples), split
    round-robin by :func:`_shard`, so results are identical for any
    ``jobs`` value; only wall-clock time changes.  ``jobs=1`` (or a
    single item) stays in-process with no executor, which is also the
    fallback under interpreters without ``fork``/pickling support.
    ``fn`` must pickle: a module-level function or a
    :func:`functools.partial` of one over picklable arguments.
    """
    if jobs < 1:
        raise ValueError("need at least one job")
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return _apply((fn, items))
    shards = _shard(list(range(len(items))), jobs)
    results: List = [None] * len(items)
    tasks = [(fn, [items[i] for i in shard]) for shard in shards]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for shard, shard_results in zip(shards, pool.map(_apply, tasks)):
            for position, result in zip(shard, shard_results):
                results[position] = result
    return results


def run_batch(
    scenario: str,
    runs: int,
    jobs: int = 1,
    config: Optional[BatchConfig] = None,
) -> BatchResult:
    """Execute ``runs`` seeded runs of ``scenario`` on ``jobs`` workers
    (:func:`_fan_out`: results are identical for any ``jobs`` value)."""
    if runs < 1:
        raise ValueError("need at least one run")
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

    outcomes = _fan_out(
        partial(_execute_run, scenario, runs=runs, config=config),
        range(runs),
        jobs,
    )
    per_run_dags = [dag for dag, _ in outcomes]
    database = TraceDatabase()
    for run_index, (_, trace) in enumerate(outcomes):
        if trace is not None:
            database.add(run_id_for(run_index), trace)
    return BatchResult(
        scenario=scenario,
        runs=runs,
        jobs=min(jobs, runs),
        spec=spec,
        per_run_dags=per_run_dags,
        merged_dag=merge_dags(per_run_dags),
        database=database,
    )
