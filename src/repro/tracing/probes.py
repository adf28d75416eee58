"""The paper's probe suite: Table I (P1..P16) as eBPF programs.

Each probe is an entry/exit handler attached to a middleware symbol; it
traverses the probed function's argument structures (node, timer,
subscription, service, client, writer objects) to extract exactly the
fields Table I lists, then submits one flat row ``(ts, pid, probe,
*values)`` -- the values in the probe's payload-schema order,
:data:`~repro.tracing.events.PAYLOAD_KEYS` -- into a perf buffer.

The srcTS technique of Sec. III-A is reproduced literally for
``rmw_take_int`` / ``rmw_take_request`` / ``rmw_take_response``: the
source timestamp is written *by reference* into the ``rmw_message_info``
out-parameter and is unknown at function entry, so the entry probe
stashes the reference in a BPF map keyed by PID and the exit probe reads
the value through the stashed reference before submitting the event.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Tuple

from .bpf import Bpf, BpfMap, BpfProgram, PerfBuffer
from .events import (
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
)
from .symbols import ProbeContext

#: Name of the BPF map sharing discovered ROS2 PIDs between the
#: ROS2-INIT tracer and the kernel tracer (Sec. III-B).
ROS2_PIDS_MAP = "ros2_pids"

#: Name of the BPF map used by the srcTS entry/exit pointer stash.
SRCTS_STASH_MAP = "srcts_stash"


class InitProbes:
    """P1: node-creation probe used by the ROS2-INIT tracer."""

    def __init__(self, bpf: Bpf, buffer: PerfBuffer):
        self.bpf = bpf
        self.buffer = buffer
        self.pid_map: BpfMap = bpf.get_table(ROS2_PIDS_MAP)

    def attach(self) -> None:
        self.bpf.attach_uprobe(
            "rmw_cyclonedds_cpp:rmw_create_node", self._on_create_node, name="P1"
        )

    def _on_create_node(self, ctx: ProbeContext, args: Tuple[Any, ...]) -> None:
        # Share the PID with the kernel tracer through the BPF map.
        self.pid_map.update(ctx.pid, 1)
        self.buffer.submit((ctx[0], ctx[1], P1_CREATE_NODE, args[0].name))


class RuntimeProbes:
    """P2..P16: the runtime probes used by the ROS2-RT tracer.

    The handlers are *fused closures* (see
    :meth:`~repro.tracing.bpf.Bpf.load_uprobe`), one call frame per
    firing: bump the program's ``run_cnt``, check the buffer's capacity
    (a full buffer counts the event in ``lost`` before its fields are
    read), append one flat tuple ``(ts, pid, probe, *values)`` to the
    buffer's row list.  No event object is built and nothing else is
    counted per firing: the buffer derives ``submitted`` and
    ``bytes_submitted`` from its rows.  The srcTS stash uses the
    :class:`BpfMap`'s backing dict (keyed by PID, far below capacity,
    non-LRU: plain dict ops suffice).
    """

    def __init__(self, bpf: Bpf, buffer: PerfBuffer):
        self.bpf = bpf
        self.buffer = buffer
        self.srcts_stash: BpfMap = bpf.get_table(SRCTS_STASH_MAP)

    def attach(self) -> None:
        bpf = self.bpf
        buffer = self.buffer
        stash = self.srcts_stash._data
        rows = buffer.rows  # never rebound
        append = rows.append
        capacity = buffer.capacity  # fixed at construction

        def simple(probe: str):
            """Factory-maker for the payload-free execute_* edges."""

            def factory(program: BpfProgram):
                def fire(ctx, args, ret=None):
                    program.run_cnt += 1
                    if len(rows) < capacity:
                        append((ctx[0], ctx[1], probe))
                    else:
                        buffer.lost += 1

                return fire

            return factory

        def take_entry(program: BpfProgram):
            """Entry of any rmw_take_*: the srcTS out-parameter is not
            filled yet; stash its address (here: the object reference),
            keyed by PID."""

            def fire(ctx, args):
                program.run_cnt += 1
                stash[ctx[1]] = args[-1]

            return fire

        def callback_id(probe: str):
            """Factory-maker for the probes whose payload is the first
            argument's callback id (P3, P7)."""

            def factory(program: BpfProgram):
                def fire(ctx, args):
                    program.run_cnt += 1
                    if len(rows) < capacity:
                        append((ctx[0], ctx[1], probe, args[0].cb_id))
                    else:
                        buffer.lost += 1

                return fire

            return factory

        def take_int_exit(program: BpfProgram):
            def fire(ctx, args, ret):
                program.run_cnt += 1
                msg_info = stash.pop(ctx[1], None)
                if len(rows) < capacity:
                    sub = args[0]
                    append((
                        ctx[0], ctx[1], P6_TAKE, sub.cb_id, sub.topic,
                        None if msg_info is None else msg_info.src_ts,
                    ))
                else:
                    buffer.lost += 1

            return fire

        def take_service_exit(probe: str, topic_of, name_of):
            """Factory-maker for the service/client take exits (P10,
            P13): callback id, topic, service name, srcTS."""

            def factory(program: BpfProgram):
                def fire(ctx, args, ret):
                    program.run_cnt += 1
                    msg_info = stash.pop(ctx[1], None)
                    if len(rows) < capacity:
                        endpoint = args[0]
                        append((
                            ctx[0], ctx[1], probe, endpoint.cb_id,
                            topic_of(endpoint), name_of(endpoint),
                            None if msg_info is None else msg_info.src_ts,
                        ))
                    else:
                        buffer.lost += 1

                return fire

            return factory

        def take_type_erased_exit(program: BpfProgram):
            def fire(ctx, args, ret):
                program.run_cnt += 1
                if len(rows) < capacity:
                    append((ctx[0], ctx[1], P14_TAKE_TYPE_ERASED, int(bool(ret))))
                else:
                    buffer.lost += 1

            return fire

        def dds_write(program: BpfProgram):
            def fire(ctx, args):
                program.run_cnt += 1
                if len(rows) < capacity:
                    writer = args[0]
                    append((
                        ctx[0], ctx[1], P16_DDS_WRITE, writer.topic.name,
                        args[2], writer.kind,
                    ))
                else:
                    buffer.lost += 1

            return fire

        load_u = bpf.load_uprobe
        load_r = bpf.load_uretprobe
        # Timer callbacks: P2 (start), P3 (ID), P4 (end).
        load_u("rclcpp:execute_timer", simple(P2_TIMER_START), name="P2")
        load_u("rcl:rcl_timer_call", callback_id(P3_TIMER_CALL), name="P3")
        load_r("rclcpp:execute_timer", simple(P4_TIMER_END), name="P4")
        # Subscriber callbacks: P5 (start), P6 (take), P7 (sync), P8 (end).
        load_u("rclcpp:execute_subscription", simple(P5_SUB_START), name="P5")
        load_u("rmw_cyclonedds_cpp:rmw_take_int", take_entry, name="P6.entry")
        load_r("rmw_cyclonedds_cpp:rmw_take_int", take_int_exit, name="P6")
        load_u("message_filters:operator()", callback_id(P7_SYNC_OP), name="P7")
        load_r("rclcpp:execute_subscription", simple(P8_SUB_END), name="P8")
        # Service callbacks: P9 (start), P10 (take request), P11 (end).
        load_u("rclcpp:execute_service", simple(P9_SERVICE_START), name="P9")
        load_u("rmw_cyclonedds_cpp:rmw_take_request", take_entry, name="P10.entry")
        load_r(
            "rmw_cyclonedds_cpp:rmw_take_request",
            take_service_exit(
                P10_TAKE_REQUEST, attrgetter("request_topic"), attrgetter("name")
            ),
            name="P10",
        )
        load_r("rclcpp:execute_service", simple(P11_SERVICE_END), name="P11")
        # Client callbacks: P12 (start), P13 (take response), P14
        # (dispatch decision), P15 (end).
        load_u("rclcpp:execute_client", simple(P12_CLIENT_START), name="P12")
        load_u("rmw_cyclonedds_cpp:rmw_take_response", take_entry, name="P13.entry")
        load_r(
            "rmw_cyclonedds_cpp:rmw_take_response",
            take_service_exit(
                P13_TAKE_RESPONSE,
                attrgetter("reader.topic.name"),
                attrgetter("service_name"),
            ),
            name="P13",
        )
        load_r("rclcpp:take_type_erased_response", take_type_erased_exit, name="P14")
        load_r("rclcpp:execute_client", simple(P15_CLIENT_END), name="P15")
        # DDS writes: P16.
        load_u("cyclonedds:dds_write_impl", dds_write, name="P16")
