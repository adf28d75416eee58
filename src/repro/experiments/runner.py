"""Experiment runner: build, trace and run applications on fresh worlds.

All evaluation experiments share the same shape: build application(s) on
a fresh :class:`~repro.world.World`, attach the tracers in the Fig. 2
order (TR-IN before launch, TR-RT/TR-KN after initialization), advance
simulated time, and collect the trace.  Multi-run experiments repeat
this with per-run seeds and build parameters and store every trace in a
:class:`~repro.tracing.session.TraceDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.kernel import MSEC, SEC
from ..tracing.session import Trace, TraceDatabase, TracingSession
from ..world import World

#: Builder signature: build(world, run_index) -> arbitrary app handle(s).
Builder = Callable[[World, int], Any]


@dataclass
class RunResult:
    """Everything produced by one traced run."""

    run_index: int
    world: World
    session: TracingSession
    trace: Trace
    apps: Any

    @property
    def pid_map(self) -> Dict[int, str]:
        return self.trace.pid_map


@dataclass
class RunConfig:
    """Machine + tracing configuration shared by the runs."""

    duration_ns: int = 10 * SEC
    warmup_ns: int = 2 * MSEC
    num_cpus: int = 4
    timeslice_ns: int = 4 * MSEC
    base_seed: int = 1000
    kernel_filter: bool = True
    segment_every_ns: Optional[int] = None
    dds_latency_ns: int = 50_000
    #: Give each run a disjoint clock and PID base (as successive runs on
    #: a real machine have), so traces from different runs can be merged
    #: into one stream (Fig. 2's "merge traces" strategy).
    stagger_runs: bool = True
    pid_stride: int = 10_000
    #: Scheduling policy name for the world's scheduler (None selects
    #: the default priority/RR policy).
    sched_policy: Optional[str] = None

    def seed_for(self, run_index: int) -> int:
        return self.base_seed + run_index

    def time_base_for(self, run_index: int) -> int:
        if not self.stagger_runs:
            return 0
        return run_index * (self.duration_ns + self.warmup_ns + SEC)

    def pid_base_for(self, run_index: int) -> int:
        if not self.stagger_runs:
            return 1
        return 1 + run_index * self.pid_stride


def bring_up(
    builder: Builder, config: RunConfig, run_index: int = 0
) -> Tuple[World, TracingSession, Any]:
    """A traced run up to the start of runtime tracing: a fresh seeded
    world, the application(s) built on it, and the init phase traced
    (TR-IN) over launch and warm-up.  Returns ``(world, session, apps)``.
    """
    world = World(
        num_cpus=config.num_cpus,
        seed=config.seed_for(run_index),
        timeslice=config.timeslice_ns,
        dds_latency_ns=config.dds_latency_ns,
        start_time_ns=config.time_base_for(run_index),
        first_pid=config.pid_base_for(run_index),
        sched_policy=config.sched_policy,
    )
    apps = builder(world, run_index)
    session = TracingSession(world, kernel_filter=config.kernel_filter)
    session.start_init()
    world.launch()
    world.run(for_ns=config.warmup_ns)
    session.stop_init()
    return world, session, apps


def run_once(
    builder: Builder,
    config: RunConfig = RunConfig(),
    run_index: int = 0,
) -> RunResult:
    """One traced application run following the Fig. 2 deployment."""
    world, session, apps = bring_up(builder, config, run_index)
    session.start_runtime()
    if config.segment_every_ns:
        remaining = config.duration_ns
        while remaining > 0:
            step = min(config.segment_every_ns, remaining)
            world.run(for_ns=step)
            session.rotate()
            remaining -= step
    else:
        world.run(for_ns=config.duration_ns)
    session.stop_runtime()
    return RunResult(
        run_index=run_index,
        world=world,
        session=session,
        trace=session.trace(),
        apps=apps,
    )


def run_many(
    builder: Builder,
    runs: int,
    config: RunConfig = RunConfig(),
) -> List[RunResult]:
    """Repeat :func:`run_once` with per-run seeds (fresh world each run)."""
    if runs < 1:
        raise ValueError("need at least one run")
    return [run_once(builder, config, run_index=i) for i in range(runs)]


def run_id_for(run_index: int) -> str:
    """The id of the ``run_index``-th run: ``run000`` to ``run999``,
    then ``runa1000`` to ``runa9999``, ``runb10000`` and so on -- the
    letter counts the digits past three, so run-id order (the order a
    database or store merges its runs in) is run order for any
    index."""
    digits = str(run_index)
    if len(digits) <= 3:
        return f"run{run_index:03d}"
    return f"run{chr(ord('a') + len(digits) - 4)}{digits}"


def collect_database(results: List[RunResult]) -> TraceDatabase:
    """Store each run's trace under :func:`run_id_for` of its index (the
    Fig. 2 server)."""
    database = TraceDatabase()
    for result in results:
        database.add(run_id_for(result.run_index), result.trace)
    return database
