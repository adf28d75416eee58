"""eBPF-based tracing substrate and the paper's three tracers.

Reproduces the observability stack of Fig. 1: a BCC-style BPF front end
(programs, maps, perf buffers), uprobe/uretprobe attachment to middleware
symbols, kernel tracepoints, the P1..P16 probe suite of Table I, and the
ROS2-INIT / ROS2-RT / Kernel tracers with segmented trace collection.
"""

from .bpf import (
    Bpf,
    BpfError,
    BpfMap,
    BpfProgram,
    DEFAULT_TRACEPOINT_COST_NS,
    DEFAULT_UPROBE_COST_NS,
    PerfBuffer,
)
from .events import (
    CB_END_PROBES,
    CB_START_PROBES,
    CB_TYPE_BY_START,
    P1_CREATE_NODE,
    P2_TIMER_START,
    P3_TIMER_CALL,
    P4_TIMER_END,
    P5_SUB_START,
    P6_TAKE,
    P7_SYNC_OP,
    P8_SUB_END,
    P9_SERVICE_START,
    P10_TAKE_REQUEST,
    P11_SERVICE_END,
    P12_CLIENT_START,
    P13_TAKE_RESPONSE,
    P14_TAKE_TYPE_ERASED,
    P15_CLIENT_END,
    P16_DDS_WRITE,
    PROBE_TABLE,
    TAKE_PROBES,
    TraceEvent,
)
from .overhead import (
    EVENT_HEADER_BYTES,
    OverheadReport,
    SCHED_EVENT_BYTES,
    event_size_bytes,
    measure_overhead,
)
from .probes import InitProbes, ROS2_PIDS_MAP, RuntimeProbes, SRCTS_STASH_MAP
from .session import Trace, TraceDatabase, TraceSegment, TracingSession
from .storage import TRACE_SUFFIX, load_trace, save_trace
from .symbols import ProbeContext, Symbol, SymbolLookupError, SymbolTable
from .tracers import KernelTracer, Ros2InitTracer, Ros2RtTracer

__all__ = [
    "Bpf",
    "BpfError",
    "BpfMap",
    "BpfProgram",
    "DEFAULT_TRACEPOINT_COST_NS",
    "DEFAULT_UPROBE_COST_NS",
    "PerfBuffer",
    "CB_END_PROBES",
    "CB_START_PROBES",
    "CB_TYPE_BY_START",
    "P1_CREATE_NODE",
    "P2_TIMER_START",
    "P3_TIMER_CALL",
    "P4_TIMER_END",
    "P5_SUB_START",
    "P6_TAKE",
    "P7_SYNC_OP",
    "P8_SUB_END",
    "P9_SERVICE_START",
    "P10_TAKE_REQUEST",
    "P11_SERVICE_END",
    "P12_CLIENT_START",
    "P13_TAKE_RESPONSE",
    "P14_TAKE_TYPE_ERASED",
    "P15_CLIENT_END",
    "P16_DDS_WRITE",
    "PROBE_TABLE",
    "TAKE_PROBES",
    "TraceEvent",
    "EVENT_HEADER_BYTES",
    "OverheadReport",
    "SCHED_EVENT_BYTES",
    "event_size_bytes",
    "measure_overhead",
    "InitProbes",
    "ROS2_PIDS_MAP",
    "RuntimeProbes",
    "SRCTS_STASH_MAP",
    "Trace",
    "TraceDatabase",
    "TRACE_SUFFIX",
    "load_trace",
    "save_trace",
    "TraceSegment",
    "TracingSession",
    "ProbeContext",
    "Symbol",
    "SymbolLookupError",
    "SymbolTable",
    "KernelTracer",
    "Ros2InitTracer",
    "Ros2RtTracer",
]
