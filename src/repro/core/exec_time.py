"""Alg. 2: execution-time measurement from ``sched_switch`` folding.

A callback's start/end timestamps (from ROS2 events) bound a window in
which the executor thread may be preempted or migrated.  Alg. 2 walks
the ``sched_switch`` stream and sums only the *execution segments* --
intervals in which the thread actually owns a CPU:

* the window opens with the thread running (the CB-start probe fired in
  its context), so the first segment starts at ``start``;
* ``prev_pid == PID`` closes a segment, ``next_pid == PID`` opens one;
* the window closes with the thread running, so the last segment ends
  at ``end``.

Boundary refinement over the paper's pseudocode: the paper iterates
events with ``start < t < end`` strictly and unconditionally closes the
final segment at ``end``.  On a discrete-time simulator a dispatch can
coincide *exactly* with the CB-end probe (the thread resumes and
finishes the callback at the same nanosecond), which would leave a
stale segment start and over-count.  Both implementations therefore
track an explicit running flag with inclusive boundaries; on real
traces (where probe instructions always execute strictly after the
dispatch) the two formulations are identical.

:func:`get_exec_time` is the direct one-shot translation;
:class:`SchedIndex` is the production fast path.  It stores *columnar*
per-PID buckets -- an ``array('q')`` of timestamps and a parallel
``bytearray`` of open/close flags -- so a window query binary-searches
plain integers and folds without touching a single
:class:`SchedSwitch` object.  Equivalence with the literal algorithm
(and with the frozen pre-columnar index in :mod:`repro._legacy`) is
enforced by property-based tests.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..sim.scheduler import SchedSwitch

#: Flag bits of the columnar bucket: the event closes an execution
#: segment of the bucket's PID (``prev_pid == pid``) and/or opens one
#: (``next_pid == pid``).
_CLOSES = 1
_OPENS = 2

#: Window sizes below this stay on the bisect fold: the numpy call
#: overhead only amortizes over larger slices (measured on the perf
#: harness; correctness does not depend on the value, but it must stay
#: >= 1 -- the vectorized integral needs a non-empty window).
MIN_VECTOR_ROWS = 64


def _fold_segments(
    start: int, end: int, pid: int, events: Iterable[SchedSwitch]
) -> int:
    """Shared folding core: sum execution segments inside [start, end].

    ``events`` must be time-ordered and may contain unrelated PIDs.
    """
    exec_time = 0
    last_start = start
    running = True  # the CB-start probe fired in the thread's context
    for event in events:
        if event.ts < start:
            continue
        if event.ts > end:
            break
        if event.prev_pid == pid and running:
            exec_time += event.ts - last_start
            running = False
        elif event.next_pid == pid and not running:
            last_start = event.ts
            running = True
    if running:
        exec_time += end - last_start
    return exec_time


def get_exec_time(
    start: int, end: int, pid: int, sched_events: Sequence[SchedSwitch]
) -> int:
    """Alg. 2 over a raw event list (sorted internally, as the paper's
    line 3 does)."""
    if end < start:
        raise ValueError(f"end {end} precedes start {start}")
    return _fold_segments(
        start, end, pid, sorted(sched_events, key=lambda e: e.ts)
    )


def _is_nondecreasing(values: Sequence[int]) -> bool:
    return all(values[i] <= values[i + 1] for i in range(len(values) - 1))


class SchedIndex:
    """Columnar per-PID index over sched_switch events for Alg. 2.

    For every PID mentioned by the stream the index keeps two parallel
    columns: event timestamps (``array('q')``) and open/close flag bits
    (``bytearray``).  A window query binary-searches the timestamp
    column and folds over machine integers, making per-instance cost
    O(log n + segments) with none of the per-event attribute lookups of
    the object-walking variant.

    Bucket order matches the pre-columnar implementation exactly: events
    are bucketed in input order and stable-sorted by timestamp, so
    same-timestamp events fold in the same order and every query returns
    a bit-identical result.

    The input list is referenced, not copied (lists pass through
    unduplicated); callers must treat the stream as finalized --
    appending to it after indexing would desynchronize
    :meth:`events_for` from the frozen columnar buckets.
    """

    def __init__(self, sched_events: Iterable[SchedSwitch]):
        self._events: List[SchedSwitch] = (
            sched_events
            if isinstance(sched_events, list)
            else list(sched_events)
        )
        #: pid -> (timestamps, flags), ts-sorted, parallel columns.
        self._buckets: Dict[int, Tuple[array, bytearray]] = {}
        raw: Dict[int, Tuple[array, bytearray]] = {}
        # SchedSwitch is a NamedTuple: positional access (ts=0,
        # prev_pid=2, next_pid=6) skips the attribute descriptors in
        # this per-event loop.
        for event in self._events:
            prev_pid = event[2]
            next_pid = event[6]
            if prev_pid != 0:
                bucket = raw.get(prev_pid)
                if bucket is None:
                    bucket = raw[prev_pid] = (array("q"), bytearray())
                bucket[0].append(event[0])
                bucket[1].append(
                    _CLOSES | _OPENS if next_pid == prev_pid else _CLOSES
                )
            if next_pid != 0 and next_pid != prev_pid:
                bucket = raw.get(next_pid)
                if bucket is None:
                    bucket = raw[next_pid] = (array("q"), bytearray())
                bucket[0].append(event[0])
                bucket[1].append(_OPENS)
        for pid, (times, flags) in raw.items():
            if not _is_nondecreasing(times):
                order = sorted(range(len(times)), key=times.__getitem__)
                times = array("q", (times[i] for i in order))
                flags = bytearray(flags[i] for i in order)
            self._buckets[pid] = (times, flags)
        #: pid -> zero-copy numpy views of the (frozen) bucket columns,
        #: built lazily on the first large-window query.
        self._np_views: Dict[int, Tuple] = {}

    @classmethod
    def from_buckets(
        cls,
        buckets: Dict[int, Tuple[array, bytearray]],
        events: Iterable[SchedSwitch] = (),
    ) -> "SchedIndex":
        """Wrap pre-built columnar buckets without an event pass.

        The caller guarantees the invariant ``__init__`` establishes:
        every bucket's timestamps are nondecreasing and same-timestamp
        entries appear in merged-stream order.  ``events`` backs
        :meth:`events_for` only; the store-backed index passes none, so
        object reconstruction is unavailable there (the columnar fast
        path never needs it).
        """
        index = cls.__new__(cls)
        index._events = list(events)
        index._buckets = dict(buckets)
        index._np_views = {}
        return index

    def pids(self) -> List[int]:
        return sorted(self._buckets)

    def events_for(self, pid: int) -> List[SchedSwitch]:
        """The PID's events, ts-sorted (reconstructed on demand; the
        columnar fast path never touches event objects)."""
        if pid not in self._buckets:
            return []
        selected = [
            e for e in self._events if e.prev_pid == pid or e.next_pid == pid
        ]
        selected.sort(key=lambda e: e.ts)  # stable: bucket order
        return selected

    def exec_time(self, start: int, end: int, pid: int) -> int:
        """Alg. 2 over the indexed window (identical result, fast)."""
        if end < start:
            raise ValueError(f"end {end} precedes start {start}")
        bucket = self._buckets.get(pid)
        if bucket is None:
            return end - start
        times, flags = bucket
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        # Typical callback windows span a handful of switches, where the
        # scalar fold wins; wide windows (long-running callbacks, the
        # analysis reports) amortize the vectorized integral below.
        if hi - lo >= MIN_VECTOR_ROWS:
            return self._exec_time_np(start, end, pid, lo, hi)
        exec_time = 0
        last_start = start
        running = True  # the CB-start probe fired in the thread's context
        for i in range(lo, hi):
            flag = flags[i]
            if running:
                if flag & _CLOSES:
                    exec_time += times[i] - last_start
                    running = False
            elif flag & _OPENS:
                last_start = times[i]
                running = True
        if running:
            exec_time += end - last_start
        return exec_time

    def _exec_time_np(self, start: int, end: int, pid: int, lo: int, hi: int) -> int:
        """The fold as a vectorized integral of the running state.

        The scalar fold's state after each event is forced by close-only
        events (False) and open-only events (True), and *toggled* by
        close+open self-switches (running -> closed -> the next one
        reopens); this holds for arbitrary flag sequences, not just
        well-formed ones, so the rewrite is exactly the fold.  The
        summed execution time equals the integral of that
        piecewise-constant state over [start, end] with the initial
        state running=True -- three numpy scans (last forced event,
        toggle parity, masked diff sum) instead of a Python loop over
        the window.
        """
        views = self._np_views.get(pid)
        if views is None:
            times, flags = self._buckets[pid]
            views = self._np_views[pid] = (
                np.frombuffer(times, dtype=np.int64),
                np.frombuffer(flags, dtype=np.uint8),
            )
        window_ts = views[0][lo:hi]
        window_flags = views[1][lo:hi]
        n = hi - lo
        toggles = window_flags == (_CLOSES | _OPENS)
        last_forced = np.maximum.accumulate(
            np.where(toggles, -1, np.arange(n))
        )
        toggle_count = np.cumsum(toggles)
        anchor = np.maximum(last_forced, 0)
        has_anchor = last_forced >= 0
        base = np.where(has_anchor, window_flags[anchor] == _OPENS, True)
        toggles_since = toggle_count - np.where(
            has_anchor, toggle_count[anchor], 0
        )
        state = base ^ (toggles_since & 1).astype(bool)
        total = int(window_ts[0]) - start
        if n > 1:
            total += int(
                ((window_ts[1:] - window_ts[:-1])[state[:-1]]).sum()
            )
        if state[n - 1]:
            total += end - int(window_ts[n - 1])
        return total

    def preemption_time(self, start: int, end: int, pid: int) -> int:
        """Time inside the window the thread did *not* run."""
        return (end - start) - self.exec_time(start, end, pid)
