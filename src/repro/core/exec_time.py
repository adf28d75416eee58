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
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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


def column(records: Sequence[Any], field: int, dtype: Any) -> np.ndarray:
    """One integer field of a list of records as a numpy column."""
    return np.fromiter(
        map(itemgetter(field), records), dtype=dtype, count=len(records)
    )


def distinct(values: np.ndarray) -> List[int]:
    """The sorted distinct values of a 1-D integer array, as Python
    ints: one sort and a neighbour mask.  ``np.unique`` does the same
    but imports ``numpy.ma`` on its first call (~12 ms per process)."""
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep].tolist()


def ts_ordered(events: List[Any]) -> Tuple[List[Any], np.ndarray]:
    """``events`` in stable timestamp order, with its int64 ts column.
    The list comes back as is when already sorted (the trace contract),
    else as a stably sorted copy: the caller's list is never mutated."""
    times = column(events, 0, np.int64)
    if len(times) > 1 and (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        events = list(map(events.__getitem__, order.tolist()))
        times = times[order]
    return events, times


def sched_columns(
    sched_events: Iterable[SchedSwitch],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(ts, prev_pid, next_pid)`` columns of a ``sched_switch``
    stream in stable ts order -- what :func:`sched_buckets` consumes."""
    events, times = ts_ordered(list(sched_events))
    return times, column(events, 2, np.int32), column(events, 6, np.int32)


def sched_buckets(
    ts_col: Sequence[int],
    prev_col: Sequence[int],
    next_col: Sequence[int],
    wanted: Optional[Iterable[int]] = None,
) -> Dict[int, Tuple[array, bytearray]]:
    """Per-PID columnar buckets from a ts-ordered stream's whole
    ``(ts, prev_pid, next_pid)`` columns (any buffers: arrays, memory
    views or numpy columns), for every PID or only the ``wanted`` ones.

    Per PID, three boolean masks decide the flags: ``prev == pid``
    closes (self-switches ``next == prev`` close *and* open in one
    entry), ``next == pid`` alone opens.  The row sets are selected in
    stream order, so each bucket is the PID's subsequence of the stream
    and same-timestamp entries keep stream order."""
    ts_np = np.frombuffer(ts_col, dtype=np.int64)
    prev_np = np.frombuffer(prev_col, dtype=np.int32)
    next_np = np.frombuffer(next_col, dtype=np.int32)
    if wanted is None:
        pids = distinct(np.concatenate((prev_np, next_np)))
    else:
        pids = sorted(wanted)
    buckets: Dict[int, Tuple[array, bytearray]] = {}
    both = _CLOSES | _OPENS
    for pid in pids:
        if pid == 0:
            continue
        closes = prev_np == pid
        rows = np.nonzero(closes | (next_np == pid))[0]
        if not len(rows):
            continue
        flags = np.where(
            closes[rows],
            np.where(next_np[rows] == pid, both, _CLOSES),
            _OPENS,
        ).astype(np.uint8)
        times = array("q")
        times.frombytes(ts_np[rows].tobytes())
        buckets[pid] = (times, bytearray(flags.tobytes()))
    return buckets


class SchedIndex:
    """Columnar per-PID index over sched_switch events for Alg. 2.

    For every PID mentioned by the stream the index keeps two parallel
    columns: event timestamps (``array('q')``) and open/close flag bits
    (``bytearray``).  A window query binary-searches the timestamp
    column and folds over machine integers, making per-instance cost
    O(log n + segments) with none of the per-event attribute lookups of
    the object-walking variant.

    Bucket order matches the pre-columnar implementation exactly: the
    stream is stable-sorted by timestamp and bucketed by
    :func:`sched_buckets` -- the bucketer the store index runs over
    segment columns -- so same-timestamp events fold in input order and
    every query returns a bit-identical result.
    """

    def __init__(self, sched_events: Iterable[SchedSwitch]):
        #: pid -> (timestamps, flags), ts-sorted, parallel columns.
        self._buckets: Dict[int, Tuple[array, bytearray]] = sched_buckets(
            *sched_columns(sched_events)
        )
        #: pid -> zero-copy numpy views of the (frozen) bucket columns,
        #: built lazily on the first large-window query.
        self._np_views: Dict[int, Tuple] = {}

    @classmethod
    def from_buckets(
        cls, buckets: Dict[int, Tuple[array, bytearray]]
    ) -> "SchedIndex":
        """Wrap pre-built columnar buckets without an event pass.

        The caller guarantees the invariant :func:`sched_buckets`
        establishes: every bucket's timestamps are nondecreasing and
        same-timestamp entries appear in merged-stream order.
        """
        index = cls.__new__(cls)
        index._buckets = dict(buckets)
        index._np_views = {}
        return index

    def pids(self) -> List[int]:
        return sorted(self._buckets)

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
