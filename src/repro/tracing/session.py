"""Tracing sessions, trace segments and the trace database (Fig. 2).

Deployment workflow reproduced from the paper:

1. ``start_init()`` before the applications launch; TR-IN discovers the
   node -> PID mapping and can be stopped after initialization.
2. ``start_runtime()`` activates TR-RT and TR-KN.
3. For long runs, ``rotate()`` drains the (bounded) trace buffers into a
   :class:`TraceSegment` and restarts collection with empty buffers --
   the segmented collection of Fig. 2 (as perf-buffer rows).
4. ``stop_runtime()`` performs a final rotation; :meth:`trace` merges
   everything into a single chronologically-sorted :class:`Trace`.

Multiple runs accumulate in a :class:`TraceDatabase`, the "database
server" of Fig. 2, which the model-synthesis stage consumes either as a
merged trace or run-by-run (DAG-per-trace, then DAG merge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional

from ..sim.scheduler import SchedSwitch, SchedWakeup
from .bpf import Bpf
from .events import P1_CREATE_NODE, RowGroup, TraceEvent, events_from_rows
from .tracers import KernelTracer, Ros2InitTracer, Ros2RtTracer


_BY_TS = attrgetter("ts")


def _sort_if_needed(events: List[Any]) -> None:
    """Stable in-place sort, skipped after an O(N) monotonicity check.

    Traces are sorted by contract, so rotation/persistence round trips
    hit the check and never pay the re-sort the pre-TraceIndex code
    performed unconditionally.
    """
    previous = None
    for event in events:
        ts = event.ts
        if previous is not None and ts < previous:
            events.sort(key=_BY_TS)
            return
        previous = ts


def _merge_sorted(streams: List[List[Any]]) -> List[Any]:
    """K-way merge of per-trace streams into one chronological list.

    Inputs that honour the sorted-trace contract merge in O(N log k)
    without re-sorting; ties keep input-stream order, matching what the
    old extend-then-stable-sort produced byte for byte.  An unsorted
    input falls back to the stable full sort.
    """
    populated = [stream for stream in streams if stream]
    if not populated:
        return []
    if len(populated) == 1:
        return list(populated[0])
    if all(
        all(s[i].ts <= s[i + 1].ts for i in range(len(s) - 1))
        for s in populated
    ):
        return list(_heap_merge(*populated, key=_BY_TS))
    flat: List[Any] = []
    for stream in populated:
        flat.extend(stream)
    flat.sort(key=_BY_TS)
    return flat


@dataclass
class TraceSegment:
    """Events collected in one buffer rotation: the RT perf buffer's
    rows (``ros_rows``) and the groups its drain built (``ros_groups``),
    or, for a hand-assembled rotation, ``events`` as given
    (``ros_rows=None``); ``ros_events`` builds row events only when
    asked."""

    index: int
    start_ts: int
    stop_ts: int
    events: List[TraceEvent] = field(default_factory=list)
    sched_events: List[SchedSwitch] = field(default_factory=list)
    wakeup_events: List[SchedWakeup] = field(default_factory=list)
    ros_rows: Optional[List[tuple]] = None
    ros_groups: Optional[List[RowGroup]] = None

    @property
    def ros_events(self) -> List[TraceEvent]:
        if self.ros_rows is None:
            return self.events
        return events_from_rows(self.ros_rows, self.ros_groups)


@dataclass
class Trace:
    """A complete trace of one application run.

    ``pid_map`` carries TR-IN's discovery (PID -> node name); both event
    lists are chronologically sorted.
    """

    ros_events: List[TraceEvent] = field(default_factory=list)
    sched_events: List[SchedSwitch] = field(default_factory=list)
    wakeup_events: List[SchedWakeup] = field(default_factory=list)
    pid_map: Dict[int, str] = field(default_factory=dict)
    start_ts: int = 0
    stop_ts: int = 0

    def sort(self) -> "Trace":
        _sort_if_needed(self.ros_events)
        _sort_if_needed(self.sched_events)
        _sort_if_needed(self.wakeup_events)
        return self

    def events_for_pid(self, pid: int) -> List[TraceEvent]:
        return [e for e in self.ros_events if e.pid == pid]

    def pids(self) -> List[int]:
        return sorted(self.pid_map)

    @property
    def duration_ns(self) -> int:
        return max(0, self.stop_ts - self.start_ts)

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start_ts": self.start_ts,
            "stop_ts": self.stop_ts,
            "pid_map": {str(k): v for k, v in self.pid_map.items()},
            "ros_events": [e.to_dict() for e in self.ros_events],
            "sched_events": [e._asdict() for e in self.sched_events],
            "wakeup_events": [e._asdict() for e in self.wakeup_events],
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "Trace":
        return Trace(
            ros_events=[TraceEvent.from_dict(e) for e in raw["ros_events"]],
            sched_events=[SchedSwitch(**e) for e in raw["sched_events"]],
            wakeup_events=[SchedWakeup(**e) for e in raw.get("wakeup_events", [])],
            pid_map={int(k): v for k, v in raw["pid_map"].items()},
            start_ts=int(raw["start_ts"]),
            stop_ts=int(raw["stop_ts"]),
        ).sort()

    @staticmethod
    def merge(traces: Iterable["Trace"]) -> "Trace":
        """Merge traces into one (Fig. 2's "merge traces" path).

        Per-trace streams are chronologically sorted by contract, so a
        k-way merge assembles the combined streams without the full
        re-sort the pre-TraceIndex implementation performed.
        """
        traces = list(traces)
        if not traces:
            raise ValueError("nothing to merge")
        merged = Trace(
            ros_events=_merge_sorted([t.ros_events for t in traces]),
            sched_events=_merge_sorted([t.sched_events for t in traces]),
            wakeup_events=_merge_sorted([t.wakeup_events for t in traces]),
        )
        for trace in traces:
            merged.pid_map.update(trace.pid_map)
        merged.start_ts = min(t.start_ts for t in traces)
        merged.stop_ts = max(t.stop_ts for t in traces)
        return merged


class TracingSession:
    """Drives the three tracers against one :class:`~repro.world.World`."""

    def __init__(
        self,
        world,
        kernel_filter: bool = True,
        rt_buffer_capacity: int = 1 << 20,
        kernel_buffer_capacity: int = 1 << 21,
        record_wakeups: bool = False,
    ):
        self.world = world
        self.bpf = Bpf(world.symbols, world.tracepoints)
        self.init_tracer = Ros2InitTracer(self.bpf)
        self.rt_tracer = Ros2RtTracer(self.bpf, buffer_capacity=rt_buffer_capacity)
        self.kernel_tracer = KernelTracer(
            self.bpf,
            filtered=kernel_filter,
            buffer_capacity=kernel_buffer_capacity,
            record_wakeups=record_wakeups,
        )
        self.segments: List[TraceSegment] = []
        self._init_events: List[TraceEvent] = []
        self._segment_start: Optional[int] = None
        self._runtime_started_ts: Optional[int] = None

    # -- TR-IN ------------------------------------------------------------

    def start_init(self) -> None:
        self.init_tracer.start()

    def _poll_init(self) -> None:
        self._init_events.extend(events_from_rows(self.init_tracer.poll()))

    def stop_init(self) -> None:
        self._poll_init()
        self.init_tracer.stop()

    # -- TR-RT + TR-KN ------------------------------------------------------

    def start_runtime(self) -> None:
        self.rt_tracer.start()
        self.kernel_tracer.start()
        self._segment_start = self.world.now
        if self._runtime_started_ts is None:
            self._runtime_started_ts = self.world.now

    def rotate(self) -> TraceSegment:
        """Save the current buffers as a segment; keep collecting."""
        if self._segment_start is None:
            raise RuntimeError("runtime tracers not started")
        rows, groups = self.rt_tracer.buffer.drain()
        segment = TraceSegment(
            index=len(self.segments),
            start_ts=self._segment_start,
            stop_ts=self.world.now,
            sched_events=self.kernel_tracer.poll(),
            wakeup_events=self.kernel_tracer.poll_wakeups(),
            ros_rows=rows,
            ros_groups=groups,
        )
        self.segments.append(segment)
        self._segment_start = self.world.now
        return segment

    def stop_runtime(self) -> None:
        if self._segment_start is not None:
            self.rotate()
            self._segment_start = None
        self.rt_tracer.stop()
        self.kernel_tracer.stop()

    # -- results ----------------------------------------------------------

    def init_events(self) -> List[TraceEvent]:
        """TR-IN's collected events (chronologically first in a trace);
        consumers that stream segments out-of-core spool these before
        the runtime rotations."""
        self._poll_init()
        return list(self._init_events)

    def pid_map(self) -> Dict[int, str]:
        self._poll_init()
        return {
            e.pid: e.get("node")
            for e in self._init_events
            if e.probe == P1_CREATE_NODE
        }

    def trace(self) -> Trace:
        """Merge the init events and all segments into one trace."""
        trace = Trace(pid_map=self.pid_map())
        trace.ros_events.extend(self._init_events)
        for segment in self.segments:
            trace.ros_events.extend(segment.ros_events)
            trace.sched_events.extend(segment.sched_events)
            trace.wakeup_events.extend(segment.wakeup_events)
        if self.segments:
            trace.start_ts = self.segments[0].start_ts
            trace.stop_ts = self.segments[-1].stop_ts
        return trace.sort()


class TraceDatabase:
    """Stores traces from many runs/sessions (the Fig. 2 database)."""

    def __init__(self) -> None:
        self._traces: Dict[str, Trace] = {}

    def add(self, run_id: str, trace: Trace) -> None:
        if run_id in self._traces:
            raise ValueError(f"run {run_id!r} already stored")
        self._traces[run_id] = trace

    def get(self, run_id: str) -> Trace:
        return self._traces[run_id]

    def run_ids(self) -> List[str]:
        return sorted(self._traces)

    def traces(self) -> List[Trace]:
        return [self._traces[k] for k in self.run_ids()]

    def merged(self) -> Trace:
        return Trace.merge(self.traces())

    def __len__(self) -> int:
        return len(self._traces)

    def to_dict(self) -> Dict[str, Any]:
        return {run_id: trace.to_dict() for run_id, trace in self._traces.items()}

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "TraceDatabase":
        db = TraceDatabase()
        for run_id, trace_raw in raw.items():
            db.add(run_id, Trace.from_dict(trace_raw))
        return db
