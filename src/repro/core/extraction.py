"""Alg. 1: extract callback attributes for each ROS2 node from traces.

The algorithm exploits the single-threaded executor model: within one
PID, every event between a CB-start and the next CB-end describes one
execution of one callback.  :func:`_extract_pid_walk` walks the node's
events in chronological order, assembling callback instances and
folding them into a :class:`CBList`.

The walk consumes per-PID *columns* -- timestamps, probe codes and one
aux slot per row -- from :class:`~repro.store.index.StoreTraceIndex`,
the one trace index: stored segments and in-memory traces (through
:class:`~repro.store.reader.InMemorySegment`) build it alike, so
:func:`extract_all` and the store and service pipelines share the same
index, walk and Alg. 2 buckets.  The aux slot of a payload-carrying
row is the payload's field tuple
(:data:`~repro.core.index.PAYLOAD_FIELDS`), read by position.  The
index's cross-node association tables key by an event's *position* in
the merged stream.

One walk (``store.synthesis._extract_index_cblists``, which
:func:`extract_all` and :func:`extract_callbacks` call too) runs
:func:`_extract_pid_walk` PID by PID, collecting each callback
instance's window, then measures every window with one Alg. 2 call
(:meth:`~repro.core.exec_time.SchedIndex.exec_times`) and fills the
samples in (:func:`fill_exec_times`).

Cross-node lookups follow the paper:

* **FindCaller** (service requests) -- the ``dds_write`` event with the
  same topic and source timestamp as the ``take_request`` identifies the
  caller's PID; the ``timer_call``/``take`` event preceding that write
  (and following the caller's last CB start) provides the caller CB's ID.
* **FindClient** (service responses) -- the ``take_response`` events
  with the same topic and source timestamp as the ``dds_write`` locate
  the candidate clients; the chronologically next
  ``take_type_erased_response`` per candidate PID tells which client
  actually dispatched.

Topic names on service request/response paths are qualified with the
caller/client CB ID (the paper's concatenation), which is what later
splits a shared service into per-caller vertices.
"""

from __future__ import annotations

from typing import Any, Iterable, List, MutableSequence, Optional, Sequence, Tuple

from ..tracing.events import TraceEvent
from ..tracing.session import Trace
from .exec_time import SchedIndex
from .index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_SYNC_OP,
    CODE_TAKE,
    CODE_TAKE_REQUEST,
    CODE_TAKE_RESPONSE,
    CODE_TAKE_TYPE_ERASED,
    CODE_TIMER_CALL,
    F_CB_ID,
    F_KIND,
    F_SRC_TS,
    F_TOPIC,
    F_WILL_DISPATCH,
)
from .records import CBList

#: Separator used when qualifying a service topic with a CB id.
TOPIC_ID_SEPARATOR = "#"


def cat(topic: str, cb_id: Optional[str]) -> str:
    """The paper's topic-name concatenation (unknown ids stay visible)."""
    return f"{topic}{TOPIC_ID_SEPARATOR}{cb_id if cb_id is not None else '?'}"


class EventIndex:
    """Cross-node lookup cursors shared by all per-PID extractions.

    The immutable association tables live in the trace index (a
    :class:`~repro.store.index.StoreTraceIndex`); this class adds the
    per-extraction FIFO cursors, so two extraction passes over the same
    index never observe each other's state.  Payloads are field tuples
    (:data:`~repro.core.index.PAYLOAD_FIELDS`), read by position.
    """

    def __init__(self, trace_index: Any):
        self._index = trace_index
        #: Cursor per (topic, src_ts) key: two periodic callers can write
        #: the same request topic at the same nanosecond, so the k-th
        #: take of a key is matched with the k-th write (FIFO delivery).
        self._caller_cursor: dict = {}

    def find_caller(self, take_request: Tuple) -> Optional[str]:
        """ID of the caller CB that produced this service request.

        ``take_request`` is the take's payload field tuple.  When
        several writes share (topic, src_ts) -- periodic callers
        phase-aligning on the simulator's discrete clock -- successive
        lookups consume successive writes, preserving FIFO order.
        """
        key = (take_request[F_TOPIC], take_request[F_SRC_TS])
        writes = self._index.writes.get(key)
        if not writes:
            return None
        cursor = self._caller_cursor.get(key, 0)
        write_index = writes[min(cursor, len(writes) - 1)][0]
        self._caller_cursor[key] = cursor + 1
        return self._index.writer_cb.get(write_index)

    def find_client(self, write: Tuple) -> Optional[str]:
        """ID of the client CB that will dispatch this service response
        (``write`` is the response write's payload field tuple)."""
        key = (write[F_TOPIC], write[F_SRC_TS])
        dispatch_after = self._index.dispatch_after
        for take_index, take in self._index.take_responses.get(key, ()):
            if dispatch_after.get(take_index):
                return take[F_CB_ID]
        return None


def _extract_pid_walk(
    pid: int,
    timestamps: Sequence[int],
    codes: Sequence[int],
    aux: Sequence[object],
    index: EventIndex,
    node_name: str,
    starts: MutableSequence[int],
    ends: MutableSequence[int],
) -> CBList:
    """Alg. 1's per-node walk over the PID's chronological columns.

    Three parallel per-PID columns: timestamps, probe codes, and an
    ``aux`` slot per row -- the callback-type label for CB-start rows,
    the payload field tuple (:data:`~repro.core.index.PAYLOAD_FIELDS`)
    for the ID-carrying rows Alg. 1 dereferences (codes
    ``CODE_TIMER_CALL`` .. ``CODE_TAKE_TYPE_ERASED``), ``None`` for
    everything else.  Rows never materialize a :class:`TraceEvent`, and
    a stored payload is only projected where an ``aux`` entry exists.
    The index drops ``CODE_OTHER`` rows when building these columns --
    such rows are no-ops to this state machine (they match no branch
    while active and fall to ``continue`` otherwise), so the walk loops
    only over rows that can change state.  The codes are distinct, so
    the branches test them in order of frequency in ROS2 traces.

    Alg. 2 runs after the walk, over every PID's instances at once: each
    instance's window is appended to ``starts``/``ends``, and its record
    sample in ``exec_times`` holds the window's position there until
    :func:`fill_exec_times` replaces it with the measured time.
    Byte-for-byte equivalence with the frozen event-object walk in
    :mod:`repro._legacy` is pinned by the golden tests.
    """
    cblist = CBList(pid, node_name)
    add_values = cblist.add_values
    add_start = starts.append
    add_end = ends.append
    active = False
    cb_type = ""
    cb_id: Optional[str] = None
    intopic: Optional[str] = None
    outtopics: Optional[List[str]] = None
    is_sync = False
    start = 0
    for ts, code, data in zip(timestamps, codes, aux):
        if code == CODE_CB_START:
            active = True
            cb_type = data
            start = ts
            cb_id = None
            intopic = None
            outtopics = None
            is_sync = False
        elif not active:
            # Only the P14 no-dispatch probe acts outside an instance,
            # and it is a no-op when there is nothing to drop.
            continue
        elif code == CODE_CB_END:
            if cb_id is not None:
                add_values(
                    cb_type, cb_id, intopic, outtopics, is_sync, start, ts,
                    len(starts),
                )
                add_start(start)
                add_end(ts)
            active = False
        elif code == CODE_DDS_WRITE:
            kind = data[F_KIND]
            if kind == "request":
                top_out = cat(data[F_TOPIC], cb_id)
            elif kind == "response":
                top_out = cat(data[F_TOPIC], index.find_client(data))
            else:
                top_out = data[F_TOPIC]
            if outtopics is None:
                outtopics = [top_out]
            else:
                outtopics.append(top_out)
        elif code == CODE_TAKE:
            cb_id = data[F_CB_ID]
            intopic = data[F_TOPIC]
        elif code == CODE_TAKE_RESPONSE:
            cb_id = data[F_CB_ID]
            intopic = cat(data[F_TOPIC], cb_id)
        elif code == CODE_TAKE_TYPE_ERASED:
            if not data[F_WILL_DISPATCH]:
                # Client CB will not dispatch here: drop the instance.
                active = False
        elif code == CODE_SYNC_OP:
            is_sync = True
        elif code == CODE_TAKE_REQUEST:
            cb_id = data[F_CB_ID]
            intopic = cat(data[F_TOPIC], index.find_caller(data))
        elif code == CODE_TIMER_CALL:
            cb_id = data[F_CB_ID]
    return cblist


def fill_exec_times(cblists: Iterable[CBList], exec_times: List[int]) -> None:
    """Replace each record sample's window position (see
    :func:`_extract_pid_walk`) with the window's measured execution
    time: one C-level ``map`` per record."""
    for cblist in cblists:
        for record in cblist:
            record.exec_times[:] = map(exec_times.__getitem__, record.exec_times)


def _in_memory_index(
    trace: Trace, wanted_pids: Optional[Iterable[int]] = None
) -> Any:
    """The trace index over a loaded trace."""
    # Imported here: the store package imports core.pipeline.
    from ..store.index import StoreTraceIndex
    from ..store.reader import InMemorySegment

    return StoreTraceIndex([InMemorySegment(trace)], wanted_pids=wanted_pids)


def extract_callbacks(
    pid: int,
    ros_events: Sequence[TraceEvent],
    sched_index: SchedIndex,
    node_name: str = "",
) -> CBList:
    """Alg. 1 for one ROS2 node.

    Parameters
    ----------
    pid:
        PID of the node's executor thread.
    ros_events:
        All ROS2 events of the trace, in any order (the algorithm
        filters by PID, but FindCaller / FindClient need the full
        stream).
    sched_index:
        Indexed ``sched_switch`` events for Alg. 2.
    node_name:
        Name from the ROS2-INIT trace (cosmetic; PIDs are the identity).
    """
    from ..store.synthesis import _extract_index_cblists

    trace = Trace(ros_events=list(ros_events), pid_map={pid: node_name})
    [cblist] = _extract_index_cblists(
        _in_memory_index(trace, (pid,)), [pid], sched_index
    )
    return cblist


def extract_all(trace: Trace, pids: Optional[Iterable[int]] = None) -> List[CBList]:
    """Run Alg. 1 for every (or the given) node PIDs of a trace: one
    trace-index build, then the per-PID walk the store pipeline runs."""
    from ..store.synthesis import _extract_index_cblists

    wanted = sorted(pids) if pids is not None else trace.pids()
    return _extract_index_cblists(_in_memory_index(trace, wanted), wanted)
