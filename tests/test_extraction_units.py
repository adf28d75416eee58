"""Unit tests for Alg. 1 on hand-built event streams.

These tests exercise the extraction logic without a simulator run:
partial instances at trace boundaries, non-dispatched client callbacks,
caller/client resolution, sync marking, and the per-caller service
splitting.
"""

import pytest

from repro.core import CBList, EventIndex, SchedIndex, cat, extract_callbacks
from repro.core.index import payload_fields
from repro.store import InMemorySegment, StoreTraceIndex
from repro.tracing import (
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
    TraceEvent,
)
from repro.tracing.session import Trace

EMPTY_SCHED = SchedIndex([])


def trace_index(events):
    """The trace index over a hand-built ROS stream."""
    return StoreTraceIndex([InMemorySegment(Trace(ros_events=events))])


def ev(ts, pid, probe, **data):
    return TraceEvent(ts=ts, pid=pid, probe=probe, data=data)


def timer_instance(ts, pid, cb_id, duration=10, writes=()):
    events = [
        ev(ts, pid, P2_TIMER_START),
        ev(ts + 1, pid, P3_TIMER_CALL, cb_id=cb_id),
    ]
    t = ts + 2
    for topic, kind, src_ts in writes:
        events.append(ev(t, pid, P16_DDS_WRITE, topic=topic, kind=kind, src_ts=src_ts))
        t += 1
    events.append(ev(ts + duration, pid, P4_TIMER_END))
    return events


class TestTimerExtraction:
    def test_single_timer(self):
        events = timer_instance(100, 1, "T1") + timer_instance(200, 1, "T1")
        cblist = extract_callbacks(1, events, EMPTY_SCHED)
        assert len(cblist) == 1
        record = cblist.get("T1")
        assert record.cb_type == "timer"
        assert record.start_times == [100, 200]
        assert record.exec_times == [10, 10]

    def test_two_timers_distinguished(self):
        events = timer_instance(100, 1, "T1") + timer_instance(200, 1, "T2")
        cblist = extract_callbacks(1, events, EMPTY_SCHED)
        assert len(cblist) == 2

    def test_published_topics_recorded(self):
        events = timer_instance(100, 1, "T1", writes=[("/a", "data", 105), ("/b", "data", 106)])
        record = extract_callbacks(1, events, EMPTY_SCHED).get("T1")
        assert record.outtopics == ["/a", "/b"]


class TestBoundaryArtifacts:
    def test_end_without_start_ignored(self):
        events = [ev(50, 1, P4_TIMER_END)] + timer_instance(100, 1, "T1")
        cblist = extract_callbacks(1, events, EMPTY_SCHED)
        assert len(cblist) == 1
        assert cblist.get("T1").start_times == [100]

    def test_start_without_end_dropped(self):
        events = timer_instance(100, 1, "T1") + [
            ev(300, 1, P2_TIMER_START),
            ev(301, 1, P3_TIMER_CALL, cb_id="T1"),
        ]
        cblist = extract_callbacks(1, events, EMPTY_SCHED)
        assert cblist.get("T1").start_times == [100]

    def test_instance_without_id_dropped(self):
        events = [ev(100, 1, P2_TIMER_START), ev(110, 1, P4_TIMER_END)]
        cblist = extract_callbacks(1, events, EMPTY_SCHED)
        assert len(cblist) == 0

    def test_events_of_other_pids_ignored(self):
        events = timer_instance(100, 1, "T1") + timer_instance(100, 2, "T9")
        cblist = extract_callbacks(1, events, EMPTY_SCHED)
        assert len(cblist) == 1
        assert cblist.get("T1").cb_id == "T1"


class TestSubscriberExtraction:
    def test_take_sets_id_and_topic(self):
        events = [
            ev(100, 1, P5_SUB_START),
            ev(101, 1, P6_TAKE, cb_id="SC", topic="/data", src_ts=90),
            ev(120, 1, P8_SUB_END),
        ]
        record = extract_callbacks(1, events, EMPTY_SCHED).get("SC")
        assert record.cb_type == "subscriber"
        assert record.intopic == "/data"

    def test_sync_flag_set_by_p7(self):
        events = [
            ev(100, 1, P5_SUB_START),
            ev(101, 1, P6_TAKE, cb_id="SC", topic="/data", src_ts=90),
            ev(102, 1, P7_SYNC_OP, cb_id="SC"),
            ev(120, 1, P8_SUB_END),
        ]
        assert extract_callbacks(1, events, EMPTY_SCHED).get("SC").is_sync_subscriber


class TestClientDispatchGating:
    def _client_events(self, pid, dispatch):
        return [
            ev(100, pid, P12_CLIENT_START),
            ev(101, pid, P13_TAKE_RESPONSE, cb_id="CL", topic="/svReply",
               service="/sv", src_ts=90),
            ev(102, pid, P14_TAKE_TYPE_ERASED, will_dispatch=int(dispatch)),
            ev(120, pid, P15_CLIENT_END),
        ]

    def test_dispatched_client_recorded(self):
        cblist = extract_callbacks(1, self._client_events(1, True), EMPTY_SCHED)
        record = cblist.get("CL")
        assert record.cb_type == "client"
        assert record.intopic == cat("/svReply", "CL")

    def test_non_dispatched_client_discarded(self):
        cblist = extract_callbacks(1, self._client_events(1, False), EMPTY_SCHED)
        assert len(cblist) == 0


def service_round_trip_events(caller_pid=1, server_pid=2, client_pid=None,
                              caller_id="T1", client_id="CL"):
    """A full timer -> request -> service -> response -> client journey."""
    client_pid = caller_pid if client_pid is None else client_pid
    return [
        # Caller timer writes the request (srcTS 110).
        ev(100, caller_pid, P2_TIMER_START),
        ev(101, caller_pid, P3_TIMER_CALL, cb_id=caller_id),
        ev(110, caller_pid, P16_DDS_WRITE, topic="/svRequest", kind="request", src_ts=110),
        ev(115, caller_pid, P4_TIMER_END),
        # Server takes the request, writes the response (srcTS 230).
        ev(200, server_pid, P9_SERVICE_START),
        ev(201, server_pid, P10_TAKE_REQUEST, cb_id="SV", topic="/svRequest",
           service="/sv", src_ts=110),
        ev(230, server_pid, P16_DDS_WRITE, topic="/svReply", kind="response", src_ts=230),
        ev(235, server_pid, P11_SERVICE_END),
        # Client takes the response and dispatches.
        ev(300, client_pid, P12_CLIENT_START),
        ev(301, client_pid, P13_TAKE_RESPONSE, cb_id=client_id, topic="/svReply",
           service="/sv", src_ts=230),
        ev(302, client_pid, P14_TAKE_TYPE_ERASED, will_dispatch=1),
        ev(320, client_pid, P15_CLIENT_END),
    ]


class TestServiceResolution:
    def test_find_caller_qualifies_service_intopic(self):
        events = service_round_trip_events()
        cblist = extract_callbacks(2, events, EMPTY_SCHED)
        record = cblist.get("SV")
        assert record.intopic == cat("/svRequest", "T1")

    def test_find_client_qualifies_response_topic(self):
        events = service_round_trip_events()
        record = extract_callbacks(2, events, EMPTY_SCHED).get("SV")
        assert record.outtopics == [cat("/svReply", "CL")]

    def test_caller_out_topic_qualified_by_own_id(self):
        events = service_round_trip_events()
        record = extract_callbacks(1, events, EMPTY_SCHED).get("T1")
        assert record.outtopics == [cat("/svRequest", "T1")]

    def test_two_callers_two_service_records(self):
        first = service_round_trip_events(caller_pid=1, server_pid=2,
                                          caller_id="A", client_id="CA")
        second = [
            TraceEvent(ts=e.ts + 1000, pid=e.pid + 10 if e.pid != 2 else 2,
                       probe=e.probe, data=dict(e.data))
            for e in service_round_trip_events(caller_pid=1, server_pid=2,
                                               caller_id="B", client_id="CB")
        ]
        # Fix srcTS keys shifted by the timestamp translation.
        second = [
            TraceEvent(ts=e.ts, pid=e.pid, probe=e.probe,
                       data={**e.data, "src_ts": e.data["src_ts"] + 1000}
                       if "src_ts" in e.data else dict(e.data))
            for e in second
        ]
        events = first + second
        cblist = extract_callbacks(2, events, EMPTY_SCHED)
        records = [r for r in cblist if r.cb_id == "SV"]
        assert len(records) == 2
        intopics = {r.intopic for r in records}
        assert intopics == {cat("/svRequest", "A"), cat("/svRequest", "B")}

    def test_unknown_caller_yields_question_mark(self):
        # take_request without any matching dds_write in the trace.
        events = [
            ev(200, 2, P9_SERVICE_START),
            ev(201, 2, P10_TAKE_REQUEST, cb_id="SV", topic="/svRequest",
               service="/sv", src_ts=42),
            ev(230, 2, P11_SERVICE_END),
        ]
        record = extract_callbacks(2, events, EMPTY_SCHED).get("SV")
        assert record.intopic == cat("/svRequest", None)


class TestEventIndex:
    def test_find_caller_same_key_collision_fifo(self):
        """Two same-(topic, srcTS) requests resolve in write order."""
        events = []
        for pid, caller in ((1, "A"), (3, "B")):
            events += [
                ev(100, pid, P2_TIMER_START),
                ev(101, pid, P3_TIMER_CALL, cb_id=caller),
                ev(110, pid, P16_DDS_WRITE, topic="/svRequest", kind="request", src_ts=110),
                ev(115, pid, P4_TIMER_END),
            ]
        index = EventIndex(trace_index(events))
        [take] = payload_fields([ev(200, 2, P10_TAKE_REQUEST, cb_id="SV",
                                    topic="/svRequest", service="/sv",
                                    src_ts=110).data])
        assert index.find_caller(take) == "A"
        assert index.find_caller(take) == "B"

    def test_find_client_skips_non_dispatching(self):
        events = [
            # Response broadcast to two client nodes; only pid 5 dispatches.
            ev(300, 4, P13_TAKE_RESPONSE, cb_id="CL_X", topic="/svReply", src_ts=230),
            ev(301, 4, P14_TAKE_TYPE_ERASED, will_dispatch=0),
            ev(300, 5, P13_TAKE_RESPONSE, cb_id="CL_Y", topic="/svReply", src_ts=230),
            ev(301, 5, P14_TAKE_TYPE_ERASED, will_dispatch=1),
        ]
        index = EventIndex(trace_index(events))
        [write] = payload_fields([ev(230, 2, P16_DDS_WRITE, topic="/svReply",
                                     kind="response", src_ts=230).data])
        assert index.find_client(write) == "CL_Y"
