"""Single-pass trace indexing: the ``TraceIndex`` layer.

Everything downstream of a :class:`~repro.tracing.session.Trace` --
Alg. 1 extraction, the cross-node :class:`~repro.core.extraction.EventIndex`
lookups, Alg. 2 exec-time queries -- needs the same two things: ROS
events in chronological order grouped by PID, and ``sched_switch``
events bucketed per PID.  Before this layer each consumer re-derived
them independently: ``extract_callbacks`` filtered and re-sorted the
full event stream once *per PID* (O(P·N log N) overall), ``EventIndex``
sorted the stream a second time, and ``Trace.merge`` / ``from_dict``
re-sorted wholesale even when every input was already ordered.

``TraceIndex`` replaces all of that with **one finalization pass**:

* the ROS stream is sorted at most once -- an O(N) monotonicity check
  skips the sort entirely for the (typical) already-sorted trace; this
  is the *single-sort invariant*: after construction no consumer may
  sort ROS events again, they all share :attr:`ros_events` and the
  per-PID views sliced out of it;
* one enumeration of the sorted stream simultaneously builds the
  per-PID event views **and** the cross-node association tables
  (dds_write -> active writer CB, take_response -> dispatch flag) that
  ``EventIndex`` previously rebuilt with a second full scan keyed by
  ``id(event)`` -- here associations are positional (the event's index
  in the sorted stream), which survives pickling and needs no identity
  tricks;
* ``sched_switch`` events go into the columnar
  :class:`~repro.core.exec_time.SchedIndex` (``array('q')`` timestamp /
  flag columns), built once and shared by every per-PID extraction.

Equality with the pre-index pipeline is bit-exact: all sorts involved
are stable with the same key, so same-timestamp events keep their
relative order in both the global stream and every per-PID view.  The
golden tests in ``tests/test_perf_equivalence.py`` pin this against the
frozen implementation in :mod:`repro._legacy`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..tracing.events import (
    CB_END_PROBES,
    CB_START_PROBES,
    P3_TIMER_CALL,
    P6_TAKE,
    P7_SYNC_OP,
    P10_TAKE_REQUEST,
    P13_TAKE_RESPONSE,
    P14_TAKE_TYPE_ERASED,
    P16_DDS_WRITE,
    TraceEvent,
)
from .exec_time import SchedIndex

#: Probes that carry the callback id Alg. 1 associates with the running
#: callback instance.
ID_EVENT_PROBES = frozenset(
    {P3_TIMER_CALL, P6_TAKE, P10_TAKE_REQUEST, P13_TAKE_RESPONSE}
)

#: (topic, source timestamp) -- the paper's cross-node correlation key.
TopicKey = Tuple[Optional[str], Optional[int]]

# Integer probe codes: computed once per event during the indexing pass
# and stored alongside each per-PID view, so the Alg. 1 walk dispatches
# on a small int instead of re-testing probe-name membership per event.
CODE_OTHER = 0
CODE_CB_START = 1
CODE_TIMER_CALL = 2
CODE_TAKE = 3
CODE_TAKE_REQUEST = 4
CODE_TAKE_RESPONSE = 5
CODE_DDS_WRITE = 6
CODE_TAKE_TYPE_ERASED = 7
CODE_SYNC_OP = 8
CODE_CB_END = 9

PROBE_CODES: Dict[str, int] = {p: CODE_CB_START for p in CB_START_PROBES}
PROBE_CODES.update({p: CODE_CB_END for p in CB_END_PROBES})
PROBE_CODES[P3_TIMER_CALL] = CODE_TIMER_CALL
PROBE_CODES[P6_TAKE] = CODE_TAKE
PROBE_CODES[P10_TAKE_REQUEST] = CODE_TAKE_REQUEST
PROBE_CODES[P13_TAKE_RESPONSE] = CODE_TAKE_RESPONSE
PROBE_CODES[P16_DDS_WRITE] = CODE_DDS_WRITE
PROBE_CODES[P14_TAKE_TYPE_ERASED] = CODE_TAKE_TYPE_ERASED
PROBE_CODES[P7_SYNC_OP] = CODE_SYNC_OP

#: Codes whose payload Alg. 1 (or the cross-node table build)
#: dereferences.  They are contiguous -- ``CODE_TIMER_CALL <= code <=
#: CODE_TAKE_TYPE_ERASED`` is the hot-path test -- so a columnar walk
#: can skip payload JSON decode for every other row.
PAYLOAD_CODES = frozenset(
    {
        CODE_TIMER_CALL,
        CODE_TAKE,
        CODE_TAKE_REQUEST,
        CODE_TAKE_RESPONSE,
        CODE_DDS_WRITE,
        CODE_TAKE_TYPE_ERASED,
    }
)


def probe_code_table(strings: Sequence[str]) -> bytearray:
    """Probe code per string-table id (``CODE_OTHER`` for non-probes).

    A stored segment references probe names by string id, so resolving
    the code once per *table entry* replaces a per-event dict lookup on
    the probe string with a bytearray index on the stored id.
    """
    code_of = PROBE_CODES.get
    return bytearray(code_of(text, CODE_OTHER) for text in strings)


def probe_code_lut(code_table: Sequence[int]) -> np.ndarray:
    """The per-string-id code table as a numpy ``uint8`` lookup array:
    one fancy-index turns a segment's whole probe-id column into
    per-row codes (see ``store.index.StoreTraceIndex``)."""
    return np.frombuffer(bytes(code_table), dtype=np.uint8)


def cb_start_type_table(strings: Sequence[str]) -> List[Optional[str]]:
    """Callback-type label per string-table id (None for non-start
    probes) -- the columnar counterpart of :meth:`TraceEvent.cb_type`."""
    from ..tracing.events import CB_TYPE_BY_START

    return [CB_TYPE_BY_START.get(text) for text in strings]


def is_sorted_by_ts(events: Sequence[Any]) -> bool:
    """O(N) monotonicity check backing the single-sort invariant."""
    return all(
        events[i].ts <= events[i + 1].ts for i in range(len(events) - 1)
    )


class TraceIndex:
    """All per-trace lookup structures, built in one pass.

    Parameters
    ----------
    ros_events:
        The trace's ROS event stream, in any order (sorted at most once).
    sched_events:
        The trace's ``sched_switch`` stream; indexed columnar per PID.
    pid_map:
        TR-IN's PID -> node-name discovery, carried through for
        extraction convenience.

    Attributes
    ----------
    ros_events:
        The chronologically sorted ROS stream.  Positions in this list
        are the event indices used by the cross-node tables.
    sched:
        The shared columnar :class:`SchedIndex`.
    """

    __slots__ = (
        "ros_events",
        "sched",
        "pid_map",
        "_by_pid",
        "writes",
        "writer_cb",
        "take_responses",
        "dispatch_after",
    )

    def __init__(
        self,
        ros_events: Sequence[TraceEvent],
        sched_events: Iterable[Any] = (),
        pid_map: Optional[Dict[int, str]] = None,
    ):
        events = list(ros_events)
        self.ros_events: List[TraceEvent] = events
        self.sched = SchedIndex(sched_events)
        self.pid_map: Dict[int, str] = dict(pid_map) if pid_map else {}
        if not self._build(events, check_sorted=True):
            # Out-of-order input: sort once (stable, same key as the
            # monotonicity check) and redo the single pass.
            events.sort(key=lambda e: e.ts)
            self._build(events, check_sorted=False)

    def _build(self, events: List[TraceEvent], check_sorted: bool) -> bool:
        """The single finalization pass.  Returns False (aborting early)
        when ``check_sorted`` detects out-of-order timestamps."""
        #: pid -> (that PID's events, probe code per event), both in
        #: chronological order and parallel to each other.
        self._by_pid: Dict[int, Tuple[List[TraceEvent], bytearray]] = {}
        #: (topic, src_ts) -> [(index, dds_write event)], FIFO order.
        self.writes: Dict[TopicKey, List[Tuple[int, TraceEvent]]] = {}
        #: dds_write event index -> CB id active in the writer at write time.
        self.writer_cb: Dict[int, Optional[str]] = {}
        #: (topic, src_ts) -> [(index, take_response event)].
        self.take_responses: Dict[TopicKey, List[Tuple[int, TraceEvent]]] = {}
        #: take_response event index -> will_dispatch of the next P14
        #: in the same PID (absent when no P14 follows).
        self.dispatch_after: Dict[int, bool] = {}

        by_pid = self._by_pid
        writes = self.writes
        writer_cb = self.writer_cb
        take_responses = self.take_responses
        dispatch_after = self.dispatch_after
        code_of = PROBE_CODES.get
        current_cb: Dict[int, Optional[str]] = {}
        pending_p13: Dict[int, List[int]] = {}
        prev_ts = None
        # TraceEvent is a NamedTuple: positional access (ts=0, pid=1,
        # probe=2, data=3) skips the attribute descriptors in this
        # per-event loop.
        for index, event in enumerate(events):
            ts = event[0]
            pid = event[1]
            if check_sorted:
                if prev_ts is not None and ts < prev_ts:
                    return False
                prev_ts = ts
            code = code_of(event[2], CODE_OTHER)
            pair = by_pid.get(pid)
            if pair is None:
                pair = by_pid[pid] = ([], bytearray())
            pair[0].append(event)
            pair[1].append(code)
            if code == CODE_CB_START:
                current_cb[pid] = None
            elif CODE_TIMER_CALL <= code <= CODE_TAKE_RESPONSE:
                data = event[3]
                current_cb[pid] = data.get("cb_id")
                if code == CODE_TAKE_RESPONSE:
                    pending_p13.setdefault(pid, []).append(index)
                    key = (data.get("topic"), data.get("src_ts"))
                    take_responses.setdefault(key, []).append((index, event))
            elif code == CODE_DDS_WRITE:
                writer_cb[index] = current_cb.get(pid)
                data = event[3]
                key = (data.get("topic"), data.get("src_ts"))
                writes.setdefault(key, []).append((index, event))
            elif code == CODE_TAKE_TYPE_ERASED:
                will_dispatch = bool(event[3].get("will_dispatch"))
                for p13_index in pending_p13.pop(pid, ()):
                    dispatch_after[p13_index] = will_dispatch
        return True

    @classmethod
    def from_trace(cls, trace: Any) -> "TraceIndex":
        """Index a :class:`~repro.tracing.session.Trace`."""
        return cls(
            trace.ros_events,
            trace.sched_events,
            pid_map=trace.pid_map,
        )

    # -- views -------------------------------------------------------------

    def pids(self) -> List[int]:
        """PIDs observed in the ROS stream, ascending."""
        return sorted(self._by_pid)

    def ros_for_pid(self, pid: int) -> List[TraceEvent]:
        """The PID's ROS events in chronological order (shared view --
        callers must not mutate)."""
        pair = self._by_pid.get(pid)
        return pair[0] if pair is not None else []

    def walk_for_pid(self, pid: int) -> Tuple[List[TraceEvent], bytearray]:
        """The PID's chronological events plus their probe codes.

        The two sequences are parallel; the codes let Alg. 1 dispatch on
        an int per event instead of probe-name membership tests.
        """
        pair = self._by_pid.get(pid)
        if pair is None:
            return [], bytearray()
        return pair

    def __len__(self) -> int:
        return len(self.ros_events)
