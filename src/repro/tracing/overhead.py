"""Tracing-overhead accounting (trace size and probe CPU usage).

The paper reports two overhead figures for a 60 s SYN+AVP run: ~9 MB of
trace data, and probe CPU usage of 0.008 cores (from ``bpftool``), i.e.
~0.3 % of the application load.  This module computes the equivalents:

* per-event encoded sizes (fixed header + payload fields) summed over
  the perf-buffer traffic,
* probe CPU cores from the per-program ``run_time_ns`` counters divided
  by elapsed time,
* application load from the scheduler's per-thread CPU accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

#: Fixed per-event header: timestamp (8) + pid (4) + probe id (4) +
#: perf record framing (~16), mirroring compact binary trace encodings.
EVENT_HEADER_BYTES = 32

#: Encoded size of a sched_switch record (two pids, prios, states, comms).
SCHED_EVENT_BYTES = 60


def event_size_bytes(event: Any) -> int:
    """Encoded size of a userspace :class:`TraceEvent`: the header,
    plus ``len + 1`` per ``str`` payload value and 8 per other value
    (the rule :func:`~repro.tracing.bpf.rows_bytes` applies to rows)."""
    size = EVENT_HEADER_BYTES
    data = event.data
    if data:
        for value in data.values():
            size += len(value) + 1 if type(value) is str else 8
    return size


@dataclass(frozen=True)
class OverheadReport:
    """Overhead of one tracing run, in the units the paper reports."""

    elapsed_ns: int
    trace_bytes: int
    probe_run_cnt: int
    probe_time_ns: int
    app_cpu_ns: int

    @property
    def trace_mb(self) -> float:
        return self.trace_bytes / 1e6

    @property
    def probe_cores(self) -> float:
        """Average CPU cores consumed by the probes (bpftool's view)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.probe_time_ns / self.elapsed_ns

    @property
    def app_cores(self) -> float:
        """Average CPU cores consumed by the traced applications."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.app_cpu_ns / self.elapsed_ns

    @property
    def probe_share_of_app(self) -> float:
        """Probe load relative to application load (the paper's 0.3 %)."""
        if self.app_cpu_ns <= 0:
            return 0.0
        return self.probe_time_ns / self.app_cpu_ns

    def summary(self) -> str:
        return (
            f"elapsed {self.elapsed_ns / 1e9:.1f}s: "
            f"{self.trace_mb:.2f} MB trace data, "
            f"{self.probe_run_cnt} probe firings using "
            f"{self.probe_cores:.4f} CPU cores "
            f"({100 * self.probe_share_of_app:.2f}% of app load "
            f"{self.app_cores:.3f} cores)"
        )


def measure_overhead(
    bpfs: Iterable[Any],
    world,
    elapsed_ns: int,
    app_pids: Optional[Iterable[int]] = None,
    extra_trace_bytes: int = 0,
) -> OverheadReport:
    """Build an :class:`OverheadReport` from BPF front ends and the world.

    Parameters
    ----------
    bpfs:
        The :class:`~repro.tracing.bpf.Bpf` instances whose programs and
        perf buffers took part in the run.
    world:
        The simulated machine (for per-thread CPU accounting).
    elapsed_ns:
        Traced wall-clock duration.
    app_pids:
        PIDs counted as application load; default: every spawned thread.
    extra_trace_bytes:
        Additional stored bytes (e.g. kernel trace encoded separately).
    """
    bpfs = list(bpfs)
    trace_bytes = extra_trace_bytes + sum(
        buffer.bytes_submitted for bpf in bpfs for buffer in bpf.perf_buffers.values()
    )
    probe_run_cnt = sum(bpf.total_run_cnt() for bpf in bpfs)
    probe_time_ns = sum(bpf.total_run_time_ns() for bpf in bpfs)
    threads = world.scheduler.threads()
    if app_pids is not None:
        wanted = set(app_pids)
        threads = [t for t in threads if t.pid in wanted]
    app_cpu_ns = sum(t.cpu_time for t in threads)
    return OverheadReport(
        elapsed_ns=elapsed_ns,
        trace_bytes=trace_bytes,
        probe_run_cnt=probe_run_cnt,
        probe_time_ns=probe_time_ns,
        app_cpu_ns=app_cpu_ns,
    )
