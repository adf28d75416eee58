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
stale segment start and over-count.  Alg. 2 here therefore tracks an
explicit running flag with inclusive boundaries; on real traces (where
probe instructions always execute strictly after the dispatch) the two
formulations are identical.

Alg. 2 has one implementation, :meth:`SchedIndex.exec_times`: every
callback window of a walk in one vectorized call over *columnar*
per-PID buckets -- an ``array('q')`` of timestamps and a parallel
``bytearray`` of open/close flags -- that never touches a
:class:`SchedSwitch` object.  :meth:`SchedIndex.exec_time` is its
one-window call.  :func:`get_exec_time` is the paper's algorithm
translated line by line over a raw event list: the oracle the
property tests hold the batched pass (and the frozen pre-columnar
index in :mod:`repro._legacy`) to.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.scheduler import SchedSwitch

#: Flag bits of the columnar bucket: the event closes an execution
#: segment of the bucket's PID (``prev_pid == pid``) and/or opens one
#: (``next_pid == pid``).
_CLOSES = 1
_OPENS = 2


def get_exec_time(
    start: int, end: int, pid: int, sched_events: Sequence[SchedSwitch]
) -> int:
    """Alg. 2 over a raw event list (sorted internally, as the paper's
    line 3 does): sum the execution segments inside [start, end]."""
    if end < start:
        raise ValueError(f"end {end} precedes start {start}")
    exec_time = 0
    last_start = start
    running = True  # the CB-start probe fired in the thread's context
    for event in sorted(sched_events, key=lambda e: e.ts):
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


def _prefix_sum(values: np.ndarray) -> np.ndarray:
    """``out[k]`` = the sum of ``values[:k]``."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def _window_bounds(
    ts: np.ndarray,
    sizes: np.ndarray,
    rank: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each window's event bounds ``[lo, hi)`` in ``ts``, the
    concatenated buckets of ``sizes`` events each; window ``i`` reads
    bucket ``rank[i]``.

    Every bucket is shifted onto its own stretch of one ascending int64
    key axis -- its events and its windows' bounds, clipped to just
    outside the bucket, alike -- so one ``searchsorted`` pair bounds
    every window.  The stretches add up to the buckets' time spans:
    ValueError when they would not fit the axis (more than 2**61 ns,
    73 years, of scheduling)."""
    first = np.cumsum(sizes) - sizes
    low, high = ts[first], ts[first + sizes - 1]
    width = float(np.sum(high.astype(float) - low.astype(float) + 3))
    if not (width < 2.0**61 and -2.0**61 < low.min() and high.max() < 2.0**61):
        raise ValueError(
            "sched timestamps span more than 2**61 ns: "
            f"[{int(low.min())}, {int(high.max())}]"
        )
    spans = high - low + 3
    base = (np.cumsum(spans) - spans + 1) - low
    keys = ts + np.repeat(base, sizes)
    low, high, base = low[rank], high[rank], base[rank]
    lo = np.searchsorted(keys, np.clip(starts, low - 1, high + 1) + base, "left")
    hi = np.searchsorted(keys, np.clip(ends, low - 1, high + 1) + base, "right")
    return lo, hi


class SchedIndex:
    """Columnar per-PID index over sched_switch events for Alg. 2.

    For every PID mentioned by the stream the index keeps two parallel
    columns: event timestamps (``array('q')``) and open/close flag bits
    (``bytearray``).  :meth:`exec_times` measures any number of windows
    in one pass over the queried PIDs' columns.

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
        return index

    def pids(self) -> List[int]:
        return sorted(self._buckets)

    def exec_time(self, start: int, end: int, pid: int) -> int:
        """Alg. 2 over one window: :meth:`exec_times` of that window."""
        return int(self.exec_times((pid,), (start,), (end,))[0])

    def exec_times(
        self,
        pids: Sequence[int],
        starts: Sequence[int],
        ends: Sequence[int],
    ) -> np.ndarray:
        """Alg. 2 over many windows at once: the execution time of PID
        ``pids[i]`` inside ``[starts[i], ends[i]]``, for every ``i``, as
        an int64 array.  Windows may come in any order, overlap, share
        bounds or be empty; a PID without a bucket ran throughout.

        The queried PIDs' buckets are copied into one event sequence
        ordered by ``(pid, ts)`` (a copy, so no bucket stays pinned),
        and one ``searchsorted`` pair bounds every window in it (see
        :func:`_window_bounds`).  The running state after each event is
        then *forced* by close-only (False) and open-only (True) events
        and *toggled* by close+open self-switches, as in the literal
        fold.  A window starts running,
        so until its first forced event its state alternates with each
        toggle, and from that event on it equals the state anchored at
        the last forced event, which no window changes.  Prefix sums of
        the inter-event gaps -- per state, and per index parity for the
        alternating stretch -- turn every window's integral into a few
        gathers.
        """
        pid_np = np.asarray(pids, dtype=np.int64)
        start_np = np.asarray(starts, dtype=np.int64)
        end_np = np.asarray(ends, dtype=np.int64)
        late = np.flatnonzero(end_np < start_np)
        if len(late):
            first = late[0]
            raise ValueError(
                f"end {int(end_np[first])} precedes start {int(start_np[first])}"
            )
        result = end_np - start_np  # no events inside: running throughout
        buckets = self._buckets
        queried = [
            pid for pid in distinct(pid_np) if pid in buckets and buckets[pid][0]
        ]
        if not queried:
            return result
        # The queried buckets, ordered by (pid, ts), copied by one join
        # each: no view on a bucket outlives the call.
        columns = [buckets[pid] for pid in queried]
        ts = np.frombuffer(b"".join([column[0] for column in columns]), np.int64)
        flags = np.frombuffer(b"".join([column[1] for column in columns]), np.uint8)
        sizes = np.fromiter(
            (len(times) for times, _ in columns), np.int64, len(columns)
        )
        queried_np = np.asarray(queried, dtype=np.int64)
        rank = np.minimum(np.searchsorted(queried_np, pid_np), len(queried) - 1)
        in_bucket = np.flatnonzero(queried_np[rank] == pid_np)
        lo, hi = _window_bounds(
            ts, sizes, rank[in_bucket], start_np[in_bucket], end_np[in_bucket]
        )
        inside = hi > lo
        lo, hi, inside = lo[inside], hi[inside], in_bucket[inside]
        if not len(inside):
            return result
        n = len(ts)
        positions = np.arange(n)
        toggles = flags == (_CLOSES | _OPENS)
        anchor = np.maximum.accumulate(np.where(toggles, 0, positions))
        next_forced = np.minimum.accumulate(
            np.where(toggles, n, positions)[::-1]
        )[::-1]
        toggle_count = np.cumsum(toggles)
        # The state after each event as anchored at the last forced one
        # (valid from a window's first forced event on).
        anchored = (flags[anchor] == _OPENS) ^ (
            (toggle_count - toggle_count[anchor]) & 1
        ).astype(bool)
        gaps = np.diff(ts)  # gaps[j]: event j to event j + 1
        odd = (positions[:-1] & 1).astype(bool)
        anchored_sum = _prefix_sum(np.where(anchored[:-1], gaps, 0))
        even_sum = _prefix_sum(np.where(odd, 0, gaps))
        odd_sum = _prefix_sum(np.where(odd, gaps, 0))
        last = hi - 1
        forced = np.minimum(next_forced[lo], last)
        # The alternating stretch [lo, forced) runs after an odd number
        # of toggles: on the gaps from events of the other parity than lo.
        total = ts[lo] - start_np[inside] + np.where(
            lo & 1, even_sum[forced] - even_sum[lo], odd_sum[forced] - odd_sum[lo]
        )
        total += anchored_sum[last] - anchored_sum[forced]
        final = np.where(
            next_forced[lo] <= last, anchored[last], ((last - lo) & 1).astype(bool)
        )
        total += np.where(final, end_np[inside] - ts[last], 0)
        result[inside] = total
        return result

    def preemption_time(self, start: int, end: int, pid: int) -> int:
        """Time inside the window the thread did *not* run."""
        return (end - start) - self.exec_time(start, end, pid)
