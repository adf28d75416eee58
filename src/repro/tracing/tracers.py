"""The three tracers of the proposed framework (Fig. 1).

* :class:`Ros2InitTracer` (TR-IN) -- attaches P1 and records node
  creation, discovering the node-name -> PID mapping.  It publishes the
  discovered PIDs into the ``ros2_pids`` BPF map consumed by the kernel
  tracer's in-kernel filter.
* :class:`Ros2RtTracer` (TR-RT) -- attaches P2..P16 and records the
  runtime ROS2 events.
* :class:`KernelTracer` (TR-KN) -- attaches to ``sched:sched_switch``
  and records only events involving ROS2 PIDs (unless filtering is
  disabled, the configuration used by the filtering ablation; the paper
  reports that PID filtering cuts the kernel-trace footprint by 3x or
  more).

Tracers attach on ``start`` and detach on ``stop``; their perf buffers
can be drained (``poll``) any number of times in between, which is what
the segmented collection of Fig. 2 builds on.
"""

from __future__ import annotations

from typing import Any, List

from .bpf import DEFAULT_TRACEPOINT_COST_NS, Bpf, BpfProgram, PerfBuffer
from .events import TraceEvent
from .overhead import SCHED_EVENT_BYTES
from .probes import ROS2_PIDS_MAP, InitProbes, RuntimeProbes


class _TracerBase:
    """Attach/detach lifecycle shared by all tracers."""

    def __init__(self) -> None:
        self._programs: List[BpfProgram] = []
        self.running = False

    def start(self) -> None:
        if self.running:
            raise RuntimeError(f"{type(self).__name__} already running")
        self.running = True
        self._attach()

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        for program in self._programs:
            if program._detach is not None:
                program._detach()
                program._detach = None
        self._programs.clear()

    def _attach(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class Ros2InitTracer(_TracerBase):
    """TR-IN: node-initialization tracer (probe P1)."""

    def __init__(self, bpf: Bpf, buffer_capacity: int = 1 << 12):
        super().__init__()
        self.bpf = bpf
        self.buffer: PerfBuffer = bpf.open_perf_buffer("ros2_init", buffer_capacity)
        self._probes = InitProbes(bpf, self.buffer)

    def _attach(self) -> None:
        before = len(self.bpf.programs)
        self._probes.attach()
        self._programs = self.bpf.programs[before:]

    def poll(self) -> List[TraceEvent]:
        return self.buffer.poll()


class Ros2RtTracer(_TracerBase):
    """TR-RT: runtime ROS2 tracer (probes P2..P16)."""

    def __init__(self, bpf: Bpf, buffer_capacity: int = 1 << 20):
        super().__init__()
        self.bpf = bpf
        self.buffer: PerfBuffer = bpf.open_perf_buffer("ros2_rt", buffer_capacity)
        self._probes = RuntimeProbes(bpf, self.buffer)

    def _attach(self) -> None:
        before = len(self.bpf.programs)
        self._probes.attach()
        self._programs = self.bpf.programs[before:]

    def poll(self) -> List[TraceEvent]:
        return self.buffer.poll()


class KernelTracer(_TracerBase):
    """TR-KN: sched_switch tracer with in-kernel PID filtering."""

    def __init__(
        self,
        bpf: Bpf,
        filtered: bool = True,
        buffer_capacity: int = 1 << 21,
        record_wakeups: bool = False,
    ):
        super().__init__()
        self.bpf = bpf
        self.filtered = filtered
        self.record_wakeups = record_wakeups
        self.buffer: PerfBuffer = bpf.open_perf_buffer("sched", buffer_capacity)
        self.wakeup_buffer: PerfBuffer = bpf.open_perf_buffer(
            "sched_wakeup", buffer_capacity
        )
        self.pid_map = bpf.get_table(ROS2_PIDS_MAP)
        #: The in-kernel filter reads the map's backing dict directly
        #: (one ``in`` per pid instead of two ``BpfMap.__contains__``
        #: frames per switch).  ``_data`` is never rebound, so the
        #: alias stays live across ``update``/``clear``.
        self._pids = self.pid_map._data
        #: All tracepoint firings, including filtered-out ones -- the
        #: denominator of the footprint-reduction ablation.
        self.seen = 0
        #: Accounting target of ``_on_switch`` (the handler bumps
        #: ``run_cnt`` itself: it attaches through ``load_tracepoint``,
        #: skipping the per-firing trampoline).  A placeholder program
        #: until ``start`` attaches the real one, so the handler is
        #: callable stand-alone (unit tests drive it directly).
        self._switch_program = BpfProgram(
            name="TRKN.sched_switch",
            kind="tracepoint",
            target="sched:sched_switch",
            cost_ns=DEFAULT_TRACEPOINT_COST_NS,
        )

    def _attach(self) -> None:
        def factory(program: BpfProgram):
            # Fused copy of _on_switch (which stays as the reference
            # implementation for stand-alone/unit use; keep in sync):
            # captures the program, pid dict and buffer once, so the
            # per-switch firing does no tracer attribute lookups.
            self._switch_program = program
            tracer = self
            pids = self._pids
            buffer = self.buffer
            filtered = self.filtered
            capacity = buffer.capacity

            def on_switch(record: Any) -> None:
                program.run_cnt += 1
                tracer.seen += 1
                if filtered and record[2] not in pids and record[6] not in pids:
                    return
                buffer.submitted += 1
                events = buffer._events
                if len(events) >= capacity:
                    buffer.lost += 1
                    return
                events.append(record)
                buffer.bytes_submitted += SCHED_EVENT_BYTES

            return on_switch

        program = self.bpf.load_tracepoint(
            "sched:sched_switch", factory, name="TRKN.sched_switch"
        )
        self._programs = [program]
        if self.record_wakeups:
            # The paper's proposed extension (Sec. VII): trace
            # sched_wakeup to measure callback waiting times.
            self._programs.append(
                self.bpf.attach_tracepoint(
                    "sched:sched_wakeup", self._on_wakeup, name="TRKN.sched_wakeup"
                )
            )

    def _on_switch(self, record: Any) -> None:
        self._switch_program.run_cnt += 1
        self.seen += 1
        if self.filtered:
            pids = self._pids
            if record[2] not in pids and record[6] not in pids:
                return  # record[2]/[6]: SchedSwitch prev_pid/next_pid
        # Inlined copy of PerfBuffer.submit (hot: one firing per context
        # switch); keep in sync with it and with probes._submit.
        buffer = self.buffer
        buffer.submitted += 1
        events = buffer._events
        if len(events) >= buffer.capacity:
            buffer.lost += 1
            return
        events.append(record)
        buffer.bytes_submitted += SCHED_EVENT_BYTES

    def _on_wakeup(self, record: Any) -> None:
        if self.filtered and record.pid not in self.pid_map:
            return
        self.wakeup_buffer.submit(record, size=SCHED_EVENT_BYTES)

    def poll(self) -> List[Any]:
        return self.buffer.poll()

    def poll_wakeups(self) -> List[Any]:
        return self.wakeup_buffer.poll()
