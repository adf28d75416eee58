"""Record scenario runs straight into a trace store (``repro record``).

The Fig. 2 collection workflow, ending at the database server: run a
registered scenario N times with per-run seeds and write every run as a
binary segment.  Each run streams through a
:class:`~repro.store.writer.SegmentSpool` -- the tracing session is
rotated every ``segment_every_ns`` (default one simulated second) and
each drained rotation is packed immediately, so the recorder's
footprint is one rotation window of perf-buffer rows plus the growing
columns, never the whole trace (and no event object per row).

Determinism mirrors :mod:`repro.experiments.batch` (whose
:func:`~repro.experiments.batch._fan_out` pool runs the workers): a
run's seed, clock base and PID base derive only from its
``run_index``; workers rebuild the scenario spec from ``(name, params,
run_index)`` and write disjoint files, so the store contents are
byte-identical for any ``jobs`` value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

from ..core.gcpause import paused_gc
from ..experiments.batch import BatchConfig, _fan_out, _run_setup
from ..experiments.runner import bring_up, run_id_for
from ..scenarios.registry import build_scenario_spec
from ..sim.kernel import SEC
from .database import TraceStore
from .writer import SegmentSpool, segment_path, spool_session_segment

#: Default rotation interval for spooled recording.
DEFAULT_SPOOL_NS = 1 * SEC


@dataclass
class RecordedRun:
    """Metadata of one stored run (the trace itself stays on disk)."""

    run_index: int
    run_id: str
    path: str
    ros_events: int
    sched_events: int
    bytes_written: int
    pushed: bool = False


@dataclass
class RecordResult:
    """Everything ``record_batch`` produced."""

    scenario: str
    directory: str
    runs: List[RecordedRun]
    jobs: int

    @property
    def run_ids(self) -> List[str]:
        return [run.run_id for run in self.runs]

    @property
    def total_events(self) -> int:
        return sum(run.ros_events + run.sched_events for run in self.runs)

    @property
    def total_bytes(self) -> int:
        return sum(run.bytes_written for run in self.runs)


@paused_gc()
def record_run(
    scenario: str,
    run_index: int,
    runs: int,
    config: BatchConfig,
    directory: str,
    push_to: Optional[str] = None,
) -> RecordedRun:
    """One seeded, traced, spooled scenario run -> one binary segment.

    The run is the one :func:`~repro.experiments.batch.run_batch` makes
    for ``run_index`` (same spec, scheduling policy, world and init
    phase), so the segment decodes to that run's trace.

    ``push_to`` additionally streams the finished segment to a running
    ``repro serve`` endpoint as soon as it commits locally -- the
    recorder side of the live-ingestion workflow.

    Runs with the cyclic collector paused
    (:class:`~repro.core.gcpause.paused_gc`): the simulated world and
    the growing spool live until the run ends, and the simulator
    makes no reference cycles per event, so a collection during the
    run would only re-scan them.  Once the segment is written the
    world is torn down (:meth:`~repro.world.World.close`), so reference
    counting frees it on return, with no cycle left for a collection.
    """
    spec, run_config = _run_setup(scenario, run_index, runs, config)
    world, session, _ = bring_up(
        lambda world, i: spec.build(world), run_config, run_index
    )

    spool = SegmentSpool()
    # Init events (P1 discovery) precede every runtime segment
    # chronologically, so spooling them first keeps the stored stream
    # sorted -- the same order session.trace() would produce.
    spool.add_ros(session.init_events())

    session.start_runtime()
    start_ts = world.now
    spool_every = config.segment_every_ns or DEFAULT_SPOOL_NS
    if spool_every <= 0:
        raise ValueError("segment_every_ns must be positive")
    remaining = run_config.duration_ns
    while remaining > 0:
        step = min(spool_every, remaining)
        world.run(for_ns=step)
        spool_session_segment(spool, session)
        remaining -= step
    session.stop_runtime()
    for segment in session.segments:  # final rotation from stop_runtime
        spool.add_segment(segment)
    session.segments.clear()
    stop_ts = world.now

    run_id = run_id_for(run_index)
    os.makedirs(directory, exist_ok=True)
    path = segment_path(directory, run_id)
    ros_events = spool.num_ros
    sched_events = spool.num_sched
    written = spool.finish_path(path, session.pid_map(), start_ts, stop_ts)
    world.close()
    pushed = False
    if push_to is not None:
        from ..service.client import ServiceClient

        ServiceClient(push_to).push_file(path, run_id=run_id)
        pushed = True
    return RecordedRun(
        run_index=run_index,
        run_id=run_id,
        path=path,
        ros_events=ros_events,
        sched_events=sched_events,
        bytes_written=written,
        pushed=pushed,
    )


def record_batch(
    scenario: str,
    runs: int,
    directory: str,
    jobs: int = 1,
    config: Optional[BatchConfig] = None,
    force: bool = False,
    push_to: Optional[str] = None,
) -> RecordResult:
    """Record ``runs`` seeded runs of ``scenario`` into ``directory``.

    Store contents are identical for any ``jobs`` value; workers write
    disjoint segment files, so nothing is pickled back but metadata.

    Recording refuses to overwrite runs an earlier recording left in
    ``directory`` (the error names the colliding run ids).  ``force``
    overwrites exactly the colliding run ids and nothing else: stored
    runs outside ``run000..runNNN`` (e.g. the tail of an earlier,
    larger recording) are left in place and will merge into any later
    synthesis over the directory -- delete the directory first when a
    fresh store is wanted.

    ``push_to`` streams every finished segment to a ``repro serve``
    endpoint right after its local commit; with ``jobs > 1`` each
    worker pushes its own runs, so segments arrive roughly in
    completion order, not run order (the service handles either).
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if not force and os.path.isdir(directory):
        existing = TraceStore(directory, allow_empty=True)
        colliding = sorted(
            run_id for run_id in (run_id_for(i) for i in range(runs))
            if run_id in existing
        )
        if colliding:
            raise ValueError(
                f"store {directory!r} already holds run(s) "
                f"{', '.join(colliding)}; recording would overwrite them "
                "(pass force=True / --force to do so)"
            )
    config = config if config is not None else BatchConfig()
    if config.duration_ns is not None and config.duration_ns <= 0:
        raise ValueError("duration must be positive")
    if config.segment_every_ns is not None and config.segment_every_ns <= 0:
        raise ValueError("segment_every_ns must be positive")
    build_scenario_spec(  # validate name/params before forking
        scenario,
        run_index=0,
        runs=runs,
        duration_ns=config.duration_ns,
        policy=config.sched_policy,
        **config.scenario_params,
    )
    # Every record_run creates ``directory`` itself before writing.
    recorded = _fan_out(
        partial(
            record_run, scenario, runs=runs, config=config,
            directory=directory, push_to=push_to,
        ),
        range(runs),
        jobs,
    )
    return RecordResult(
        scenario=scenario, directory=directory, runs=recorded,
        jobs=min(jobs, runs),
    )
