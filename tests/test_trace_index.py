"""Unit tests for the one trace index over in-memory traces.

``StoreTraceIndex([InMemorySegment(trace)])`` is how the in-memory
pipeline indexes a loaded trace: these tests pin its ordering contract
(stable timestamp order, the caller's lists untouched), its per-PID
walk columns, the positional cross-node tables and the columnar Alg. 2
buckets.
"""

import random

import pytest

from repro._legacy import legacy_extract_all
from repro.core import SchedIndex, dag_to_json, synthesize_dag, synthesize_from_trace
from repro.core.extraction import EventIndex
from repro.core.index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE,
    PROBE_CODES,
    payload_fields,
)
from repro.experiments.runner import RunConfig, run_once
from repro.scenarios import build_scenario_spec
from repro.sim import SEC, SchedSwitch
from repro.store import InMemorySegment, StoreTraceIndex
from repro.tracing.events import (
    P2_TIMER_START,
    P3_TIMER_CALL,
    P4_TIMER_END,
    P6_TAKE,
    P16_DDS_WRITE,
    TraceEvent,
)
from repro.tracing.session import Trace


def ev(ts, pid, probe, **data):
    return TraceEvent(ts, pid, probe, data)


def index_of(events=(), sched=()):
    """The trace index over hand-built ROS / sched streams."""
    trace = Trace(ros_events=list(events), sched_events=list(sched))
    return StoreTraceIndex([InMemorySegment(trace)])


def walk_ts(index, pid):
    return index.walk_for_pid(pid)[0]


@pytest.fixture(scope="module")
def syn_trace():
    duration_ns = int(0.5 * SEC)
    spec = build_scenario_spec("syn", run_index=0, runs=1, duration_ns=duration_ns)
    config = RunConfig(duration_ns=duration_ns, num_cpus=spec.num_cpus)
    return run_once(lambda world, i: spec.build(world), config).trace


def shuffled(events, seed):
    """A permutation of ``events`` that is out of timestamp order."""
    out = list(events)
    random.Random(seed).shuffle(out)
    return out


def stable_sorted(events):
    return sorted(events, key=lambda e: e.ts)


class TestSingleSortInvariant:
    def test_sorted_input_is_not_copied_out_of_order(self):
        events = [ev(10, 1, P2_TIMER_START), ev(20, 1, P4_TIMER_END)]
        segment = InMemorySegment(Trace(ros_events=events))
        assert list(segment.iter_ros()) == events
        assert segment.ros_ts_range() == (10, 20)
        assert walk_ts(StoreTraceIndex([segment]), 1) == [10, 20]

    def test_unsorted_input_sorted_once(self, syn_trace):
        """Unsorted ROS and sched input yields the DAG of its stable
        sort -- the frozen legacy pipeline's DAG for the sorted trace."""
        ros = shuffled(syn_trace.ros_events, 1)
        sched = shuffled(syn_trace.sched_events, 2)
        assert ros != syn_trace.ros_events and sched != syn_trace.sched_events
        pid_map = syn_trace.pid_map
        unsorted = Trace(ros_events=ros, sched_events=sched, pid_map=pid_map)
        ordered = Trace(
            ros_events=stable_sorted(ros),
            sched_events=stable_sorted(sched),
            pid_map=pid_map,
        )
        expected = dag_to_json(synthesize_dag(legacy_extract_all(ordered)))
        assert dag_to_json(synthesize_from_trace(unsorted)) == expected
        assert dag_to_json(synthesize_from_trace(ordered)) == expected
        segment = InMemorySegment(unsorted)
        assert list(segment.iter_ros()) == ordered.ros_events
        assert list(segment.iter_sched()) == ordered.sched_events
        assert segment.ros_ts_range() == (
            ordered.ros_events[0].ts, ordered.ros_events[-1].ts
        )

    def test_equal_timestamps_keep_input_order(self):
        start, call = ev(10, 1, P2_TIMER_START), ev(10, 1, P3_TIMER_CALL, cb_id="T")
        end = ev(10, 1, P4_TIMER_END)
        late = ev(20, 1, P2_TIMER_START)
        forward = index_of([late, start, call, end])
        assert forward.walk_for_pid(1)[1] == bytearray(
            [CODE_CB_START, PROBE_CODES[P3_TIMER_CALL], CODE_CB_END, CODE_CB_START]
        )
        backward = index_of([late, end, call, start])
        assert backward.walk_for_pid(1)[1] == bytearray(
            [CODE_CB_END, PROBE_CODES[P3_TIMER_CALL], CODE_CB_START, CODE_CB_START]
        )
        # Ties in the sched stream fold in input order too.
        a, b = switch(10, 1, 2), switch(10, 2, 1)
        assert index_of(sched=[a, b]).sched.exec_time(0, 30, 1) == 30
        assert index_of(sched=[b, a]).sched.exec_time(0, 30, 1) == 10

    def test_input_list_not_mutated(self):
        events = [ev(20, 1, P4_TIMER_END), ev(10, 1, P2_TIMER_START)]
        sched = [switch(20, 1, 2), switch(10, 2, 1)]
        trace = Trace(ros_events=events, sched_events=sched, pid_map={1: "n"})
        synthesize_from_trace(trace)
        assert trace.ros_events is events and trace.sched_events is sched
        assert [e.ts for e in events] == [20, 10]
        assert [e.ts for e in sched] == [20, 10]


class TestPerPidViews:
    def test_views_partition_the_stream(self):
        events = [
            ev(10, 1, P2_TIMER_START),
            ev(11, 2, P2_TIMER_START),
            ev(12, 1, P4_TIMER_END),
            ev(13, 2, P4_TIMER_END),
        ]
        index = index_of(events)
        assert index.pids() == [1, 2]
        assert walk_ts(index, 1) == [10, 12]
        assert walk_ts(index, 2) == [11, 13]
        assert walk_ts(index, 99) == []

    def test_walk_codes_parallel_to_events(self):
        take = {"cb_id": "S1", "topic": "t"}
        write = {"topic": "u", "src_ts": 12, "kind": "data"}
        events = [
            ev(10, 1, P2_TIMER_START),
            ev(11, 1, P6_TAKE, **take),
            ev(12, 1, P16_DDS_WRITE, **write),
            ev(13, 1, P4_TIMER_END),
            ev(14, 1, "unknown_probe"),  # code 0: no-op, not walked
        ]
        timestamps, codes, aux = index_of(events).walk_for_pid(1)
        assert timestamps == [10, 11, 12, 13]
        assert list(codes) == [CODE_CB_START, CODE_TAKE, CODE_DDS_WRITE, CODE_CB_END]
        assert aux == ["timer", *payload_fields([take, write]), None]

    def test_walk_for_unknown_pid_empty(self):
        timestamps, codes, aux = index_of().walk_for_pid(5)
        assert timestamps == [] and len(codes) == 0 and aux == []

    def test_probe_code_table_covers_every_table1_alg1_probe(self):
        from repro.tracing.events import PROBE_TABLE, P1_CREATE_NODE

        for probe in PROBE_TABLE:
            if probe == P1_CREATE_NODE:
                continue  # P1 is TR-IN only; Alg. 1 ignores it
            assert probe in PROBE_CODES


class TestCrossNodeTables:
    def test_write_association_is_positional(self):
        # Two identical write events (equal by value) must keep distinct
        # writer-CB associations: the tables key by stream position.
        events = [
            ev(10, 1, P6_TAKE, cb_id="A", topic="t"),
            ev(20, 1, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
            ev(20, 1, P2_TIMER_START),
            ev(20, 1, P6_TAKE, cb_id="B", topic="t"),
            ev(20, 1, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
        ]
        index = index_of(events)
        (i1, e1), (i2, e2) = index.writes[("u", 1)]
        assert (i1, i2) == (1, 4)
        assert e1 == e2  # value-identical payloads...
        assert index.writer_cb[i1] == "A"  # ...with distinct associations
        assert index.writer_cb[i2] == "B"

    def test_event_index_cursors_are_per_instance(self):
        events = [
            ev(10, 1, P6_TAKE, cb_id="A", topic="t"),
            ev(11, 1, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
            ev(13, 2, P6_TAKE, cb_id="B", topic="t"),
            ev(14, 2, P16_DDS_WRITE, topic="u", src_ts=1, kind="request"),
        ]
        index = index_of(events)
        [take] = payload_fields([{"topic": "u", "src_ts": 1}])
        first = EventIndex(index)
        assert first.find_caller(take) == "A"
        assert first.find_caller(take) == "B"  # cursor advanced
        # A fresh EventIndex over the same trace index starts over.
        assert EventIndex(index).find_caller(take) == "A"


def switch(ts, prev_pid, next_pid):
    return SchedSwitch(ts, 0, prev_pid, f"p{prev_pid}", 0, "R",
                       next_pid, f"p{next_pid}", 0)


class TestColumnarSchedIndex:
    def test_buckets_are_stably_ts_sorted(self):
        events = [switch(30, 1, 2), switch(10, 2, 1), switch(20, 1, 3)]
        index = SchedIndex(events)
        times, flags = index._buckets[1]
        assert list(times) == [10, 20, 30]
        assert 42 not in index.pids()

    def test_sched_index_shared_through_trace_index(self):
        index = index_of(sched=[switch(10, 1, 2), switch(20, 2, 1)])
        assert index.sched.exec_time(0, 30, 1) == 20  # 0-10 and 20-30

    def test_unsorted_sched_events_sorted_per_bucket(self):
        events = [switch(20, 1, 2), switch(10, 2, 1)]
        index = SchedIndex(events)
        assert index.exec_time(0, 30, 1) == 20


class TestInlinedSubmitCopies:
    """The fused probe and switch handlers inline the capacity check of
    :meth:`PerfBuffer.submit` and append rows, and the buffer derives
    its counters from the rows; both must equal the out-of-line submit
    and the per-firing accounting the rows replace (``submitted`` += 1
    per firing, ``lost`` past capacity, ``bytes_submitted`` += the
    encoded size of each accepted event)."""

    def _events(self):
        return [
            ev(i, 1, P6_TAKE, cb_id="A", topic="t" * (i % 3), src_ts=None)
            for i in range(8)
        ] + [ev(9, 1, P2_TIMER_START)]

    def test_probes_submit_matches_perf_buffer_submit(self):
        from types import SimpleNamespace

        from repro.tracing.bpf import Bpf, PerfBuffer
        from repro.tracing.events import events_from_rows
        from repro.tracing.overhead import event_size_bytes
        from repro.tracing.probes import RuntimeProbes

        handlers = {}

        class Symbols:
            def attach_entry(self, symbol, handler):
                handlers["entry", symbol] = handler
                return lambda: None

            def attach_exit(self, symbol, handler):
                handlers["exit", symbol] = handler
                return lambda: None

        events = self._events()
        reference = PerfBuffer("ref", capacity=6, record_bytes=None)
        for event in events:
            reference.submit((event.ts, event.pid, event.probe, *event.data.values()))

        bpf = Bpf(Symbols())
        fused = bpf.open_perf_buffer("inl", capacity=6, record_bytes=None)
        RuntimeProbes(bpf, fused).attach()
        take = handlers["exit", "rmw_cyclonedds_cpp:rmw_take_int"]
        start = handlers["entry", "rclcpp:execute_timer"]
        for event in events:
            ctx = (event.ts, event.pid, 0, "comm")
            if event.probe == P6_TAKE:
                sub = SimpleNamespace(cb_id=event.data["cb_id"], topic=event.data["topic"])
                take(ctx, (sub, None), True)
            else:
                start(ctx, ())

        accepted = events[:6]
        for buffer in (fused, reference):
            assert buffer.submitted == len(events)
            assert buffer.lost == len(events) - len(accepted)
            assert buffer.bytes_submitted == sum(map(event_size_bytes, accepted))
        assert fused.submitted == reference.submitted
        assert fused.lost == reference.lost
        assert fused.bytes_submitted == reference.bytes_submitted
        rows = fused.poll()
        assert rows == reference.poll()
        assert events_from_rows(rows) == accepted
        # Drained rows keep counting; nothing is pending.
        assert fused.submitted == len(events) and len(fused) == 0
        assert fused.bytes_submitted == sum(map(event_size_bytes, accepted))

    def test_tracer_on_switch_matches_perf_buffer_submit(self):
        from repro.tracing.bpf import Bpf, PerfBuffer
        from repro.tracing.overhead import SCHED_EVENT_BYTES
        from repro.tracing.tracers import KernelTracer

        records = [switch(i, 1, 2) for i in range(8)]
        reference = PerfBuffer("ref", capacity=6, record_bytes=SCHED_EVENT_BYTES)
        for record in records:
            reference.submit(record)

        handlers = []

        def attach(handler):
            handlers.append(handler)
            return lambda: None

        bpf = Bpf(symbols=None, tracepoints={"sched:sched_switch": attach})
        tracer = KernelTracer(bpf, filtered=False, buffer_capacity=6)
        tracer.start()
        (on_switch,) = handlers
        for record in records:
            on_switch(record)
        assert tracer.buffer.submitted == reference.submitted == len(records)
        assert tracer.buffer.lost == reference.lost == 2
        assert tracer.buffer.bytes_submitted == reference.bytes_submitted
        assert reference.bytes_submitted == 6 * SCHED_EVENT_BYTES
        assert tracer.buffer.poll() == reference.poll() == records[:6]
        assert tracer.seen == len(records)


class TestKernelCompaction:
    def test_cancelled_majority_is_compacted(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handles = [kernel.schedule_at(i + 1, lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        # Once cancellations exceeded half the queue the heap was
        # rebuilt, shedding the dead entries present at that point.
        assert len(kernel._queue) < 200
        assert kernel.pending_count() == 50

    def test_compaction_preserves_firing_order(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        fired = []
        keep = []
        for i in range(200):
            handle = kernel.schedule_at(
                i + 1, lambda i=i: fired.append(i)
            )
            if i % 4 == 0:
                keep.append(i)
            else:
                handle.cancel()
        kernel.run()
        assert fired == keep

    def test_compaction_keeps_cancelled_counter_exact(self):
        """Regression: the entry whose cancel triggers a compaction must
        be dropped by that compaction, or the counter drifts negative."""
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handles = [kernel.schedule_at(i + 1, lambda: None) for i in range(200)]
        for handle in handles[:101]:  # 101st cancel triggers the rebuild
            handle.cancel()
        # Slab representation: a heap entry (time, prio, seq, slot) is
        # live iff the slot still holds its sequence number.
        assert all(kernel._slot_seq[e[3]] == e[2] for e in kernel._queue)
        assert kernel._cancelled_in_queue == 0
        kernel.run()
        assert kernel._cancelled_in_queue == 0

    def test_cancel_after_fire_is_noop(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handle = kernel.schedule_at(1, lambda: None)
        kernel.run()
        handle.cancel()  # must not underflow the cancelled counter
        assert kernel.pending_count() == 0
        kernel.schedule_at(kernel.now + 1, lambda: None)
        assert kernel.pending_count() == 1

    def test_small_queues_not_compacted(self):
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        handles = [kernel.schedule_at(i + 1, lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        # Below the compaction floor the entries drain lazily instead.
        assert len(kernel._queue) == 10
        assert kernel.pending_count() == 0
