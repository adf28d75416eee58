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
    #: Scheduling policy name for the world's scheduler (None keeps the
    #: default priority/RR policy and stays compatible with injected
    #: legacy scheduler classes that predate the policy parameter).
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


def collect_database(results: List[RunResult]) -> TraceDatabase:
    """Store each run's trace under ``run<index>`` (the Fig. 2 server)."""
    database = TraceDatabase()
    for result in results:
        database.add(f"run{result.run_index:03d}", result.trace)
    return database
