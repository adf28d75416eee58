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

Tracers attach on ``start`` and detach on ``stop``; their perf buffers'
rows can be drained (``poll``) any number of times in between, which is
what the segmented collection of Fig. 2 builds on.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .bpf import Bpf, BpfProgram, PerfBuffer
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


class _RosTracer(_TracerBase):
    """A tracer whose probes submit ROS rows into its own buffer."""

    buffer_name = ""
    probes_class: Any = None
    default_capacity = 0

    def __init__(self, bpf: Bpf, buffer_capacity: Optional[int] = None):
        super().__init__()
        self.bpf = bpf
        self.buffer: PerfBuffer = bpf.open_perf_buffer(
            self.buffer_name,
            self.default_capacity if buffer_capacity is None else buffer_capacity,
            record_bytes=None,
        )
        self._probes = self.probes_class(bpf, self.buffer)

    def _attach(self) -> None:
        before = len(self.bpf.programs)
        self._probes.attach()
        self._programs = self.bpf.programs[before:]

    def poll(self) -> List[tuple]:
        return self.buffer.poll()


class Ros2InitTracer(_RosTracer):
    """TR-IN: node-initialization tracer (probe P1)."""

    buffer_name, probes_class, default_capacity = "ros2_init", InitProbes, 1 << 12


class Ros2RtTracer(_RosTracer):
    """TR-RT: runtime ROS2 tracer (probes P2..P16)."""

    buffer_name, probes_class, default_capacity = "ros2_rt", RuntimeProbes, 1 << 20


class KernelTracer(_TracerBase):
    """TR-KN: sched_switch tracer with in-kernel PID filtering.

    The switch handler is a fused closure (as the runtime probes') that
    submits the tracepoint record itself as the row.
    """

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
        self.buffer: PerfBuffer = bpf.open_perf_buffer(
            "sched", buffer_capacity, record_bytes=SCHED_EVENT_BYTES
        )
        self.wakeup_buffer: PerfBuffer = bpf.open_perf_buffer(
            "sched_wakeup", buffer_capacity, record_bytes=SCHED_EVENT_BYTES
        )
        self.pid_map = bpf.get_table(ROS2_PIDS_MAP)
        #: The in-kernel filter reads the map's backing dict directly
        #: (one ``in`` per pid instead of two ``BpfMap.__contains__``
        #: frames per switch).  ``_data`` is never rebound, so the
        #: alias stays live across ``update``/``clear``.
        self._pids = self.pid_map._data
        #: Every ``sched_switch`` program this tracer attached.
        self._switch_programs: List[BpfProgram] = []

    @property
    def seen(self) -> int:
        """All tracepoint firings, including filtered-out ones -- the
        denominator of the footprint-reduction ablation."""
        return sum(program.run_cnt for program in self._switch_programs)

    def _attach(self) -> None:
        def factory(program: BpfProgram):
            # Captures the program, pid dict and row list once, so the
            # per-switch firing does no attribute lookups.
            self._switch_programs.append(program)
            pids = self._pids
            buffer = self.buffer
            rows = buffer.rows  # never rebound
            append = rows.append
            filtered = self.filtered
            capacity = buffer.capacity

            def on_switch(record: Any) -> None:
                program.run_cnt += 1
                # record[2]/[6]: SchedSwitch prev_pid/next_pid
                if filtered and record[2] not in pids and record[6] not in pids:
                    return
                if len(rows) < capacity:
                    append(record)
                else:
                    buffer.lost += 1

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

    def _on_wakeup(self, record: Any) -> None:
        if self.filtered and record.pid not in self.pid_map:
            return
        self.wakeup_buffer.submit(record)

    def poll(self) -> List[Any]:
        return self.buffer.poll()

    def poll_wakeups(self) -> List[Any]:
        return self.wakeup_buffer.poll()
