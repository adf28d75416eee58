"""End-to-end latency and waiting-time measurement from traces.

Implements the extensions sketched in the paper's Sec. VII:

* **Data-flow latency** -- the framework logs source timestamps on both
  the publisher (P16) and subscriber (P6) side, so a datum can be
  followed through a computation chain: each hop matches a ``dds_write``
  to the ``take`` with the same (topic, srcTS), then follows the
  consuming callback instance to its next write.  The end-to-end latency
  of a chain instance is the time from the initial write to the end of
  the final callback.
* **Waiting time** -- with ``sched_wakeup`` recording enabled
  (``TracingSession(record_wakeups=True)``), the time between a node
  thread's wakeup and the start of the dispatched callback.

All three analyses run off one :class:`LatencyIndex`, built from the
resolved ``(ts, pid, code, aux)`` columns the Alg. 1 store index
consumes (:func:`repro.store.index._resolve`) plus ``(ts, pid)``
wakeup columns.  Stored runs enter through their segment readers
(:mod:`repro.analysis.store`), a loaded trace through
:class:`~repro.store.reader.InMemorySegment`
(:meth:`LatencyIndex.from_trace`): both in the same stable ts order.

Indexes over consecutive pieces of one stream concatenate
(:meth:`LatencyIndex.concat`) into the index of the whole stream: each
piece records the callback start it leaves open per PID and the
callback end it opens with per PID, so a window spanning two pieces
pairs up exactly as one build over the whole stream pairs it.  Stores
index one fragment per run.  Chain journeys rarely cross runs: when no
taking PID and no ``(topic, src_ts)`` key spans two fragments
(:func:`fragments_are_separable`), :func:`chain_latencies` follows each
fragment on its own and skips the concatenation.  A window of per-run
fragments (:class:`~repro.analysis.fragments.FragmentWindow`, behind
both the live service and ``StoreAnalysis``) keeps each run's journeys
of the last-queried chain with the run's fragment, so an arrival
follows only the new run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from heapq import merge as _heap_merge
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE,
    F_SRC_TS,
    F_TOPIC,
    TopicKey,
)
from ..store.index import _resolve, _spans_are_ordered
from ..store.reader import InMemorySegment
from ..tracing.session import Trace

#: One hop record: (ts, topic, src_ts) of a dds_write, or (ts, src_ts)
#: in the per-topic views.
_WriteRow = Tuple[int, Optional[str], Optional[int]]


def _split(keys: np.ndarray, values: List[Any]) -> Dict[int, List[Any]]:
    """``values`` cut into one list per key, for ``keys`` grouped (equal
    keys adjacent) and parallel to ``values``."""
    if not len(keys):
        return {}
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    bounds = [0, *cuts, len(values)]
    return {
        key: values[lo:hi]
        for key, lo, hi in zip(keys[bounds[:-1]].tolist(), bounds, bounds[1:])
    }


@dataclass(frozen=True)
class ChainLatency:
    """One traced journey of a datum through a topic chain."""

    start_ts: int  # initial dds_write
    end_ts: int  # end of the final consuming callback
    hops: int

    @property
    def latency_ns(self) -> int:
        return self.end_ts - self.start_ts


class LatencyIndex:
    """Lookup structures behind the latency analyses, built in bulk
    from resolved columns.

    Takes one stream's resolved columns and its wakeup columns,
    optionally restricted to ``pids``, and indexes:

    * per-PID callback-instance windows (CB start/end pairs), with the
      start array precomputed and windows defensively sorted so an
      unsorted input cannot silently break the bisect lookup;
    * per-PID and per-topic ``dds_write`` rows;
    * ``take`` rows keyed by the paper's (topic, srcTS) correlation key
      and grouped per topic -- all in stream order;
    * per-PID ``sched_wakeup`` times in stable ts order;
    * the stream's boundary state (see :meth:`concat`): the ts range of
      its rows, the CB start still open per PID at its end, and per PID
      the first CB end that arrived before any CB start of that PID;
    * what chain journeys over it read (see
      :func:`fragments_are_separable`): the PIDs with CB, write or take
      rows, the PIDs with take rows, and the ``(topic, src_ts)`` keys
      of the writes and takes.

    Callback windows pair per PID: a window is a CB end whose PID's
    previous CB row is a start, so a start followed by another start
    is replaced, and an end with no open start pairs with nothing.

    Lookups return the index's own lists, which an assembled index
    shares with its parts: callers must not modify them.
    """

    __slots__ = (
        "_windows",
        "_starts",
        "_writes",
        "_writes_by_topic",
        "_takes_by_key",
        "_takes_by_topic",
        "_cb_starts",
        "_wakeups",
        "_open_tail",
        "_lead_end",
        "_span",
        "_pids",
        "_takers",
        "_keys",
    )

    def __init__(
        self,
        columns: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        wakeups: Tuple[Sequence[int], Sequence[int]] = ((), ()),
        pids: Optional[Iterable[int]] = None,
    ):
        ts_np, pid_np, code_np, aux = columns
        wake_ts, wake_pid = (np.asarray(c, dtype=np.int64) for c in wakeups)
        if pids is not None:
            wanted = np.fromiter(pids, dtype=np.int64)
            keep = np.isin(pid_np, wanted)
            ts_np, pid_np, code_np, aux = (c[keep] for c in columns)
            keep = np.isin(wake_pid, wanted)
            wake_ts, wake_pid = wake_ts[keep], wake_pid[keep]
        #: (first, last) row timestamp, None for an empty stream.
        self._span = (int(ts_np[0]), int(ts_np[-1])) if len(ts_np) else None

        # CB rows grouped per PID, stream order kept within a PID.
        cb = np.flatnonzero((code_np == CODE_CB_START) | (code_np == CODE_CB_END))
        cb = cb[np.argsort(pid_np[cb], kind="stable")]
        cb_pid, cb_ts = pid_np[cb], ts_np[cb]
        is_start = code_np[cb] == CODE_CB_START
        first = np.ones(len(cb), dtype=bool)  # the PID's first CB row
        first[1:] = cb_pid[1:] != cb_pid[:-1]

        def per_pid(mask: np.ndarray) -> Dict[int, int]:
            return dict(zip(cb_pid[mask].tolist(), cb_ts[mask].tolist()))

        last = np.ones(len(cb), dtype=bool)  # the PID's last CB row
        last[:-1] = first[1:]
        #: pid -> start of the CB instance still open at the stream end.
        self._open_tail = per_pid(last & is_start)
        #: pid -> ts of the first CB end seen before any CB start of the
        #: PID (the end of an instance begun before this stream).
        self._lead_end = per_pid(first & ~is_start)
        self._cb_starts = _split(cb_pid[is_start], cb_ts[is_start].tolist())
        # A window is an end right after a start of its PID; windows go
        # in start order per PID (a stable sort: the defensive one).
        after_start = np.zeros(len(cb), dtype=bool)
        after_start[1:] = is_start[:-1]
        ends = np.flatnonzero(~is_start & ~first & after_start)
        ends = ends[np.lexsort((cb_ts[ends - 1], cb_pid[ends]))]
        starts = cb_ts[ends - 1].tolist()
        self._windows = _split(cb_pid[ends], list(zip(starts, cb_ts[ends].tolist())))
        #: per-PID window start arrays, computed once -- lookups are a
        #: bisect, never a per-call list rebuild.
        self._starts = _split(cb_pid[ends], starts)

        self._writes: Dict[int, List[_WriteRow]] = {}
        self._writes_by_topic: Dict[Optional[str], List[Tuple[int, Optional[int]]]] = {}
        self._takes_by_key: Dict[TopicKey, List[Tuple[int, int]]] = {}
        self._takes_by_topic: Dict[Optional[str], List[Tuple[int, Optional[int]]]] = {}
        rows = np.flatnonzero((code_np == CODE_DDS_WRITE) | (code_np == CODE_TAKE))
        row_ts, row_pid, row_code, payloads = (
            column[rows].tolist() for column in (ts_np, pid_np, code_np, aux)
        )
        topics = list(map(itemgetter(F_TOPIC), payloads))
        hops = list(zip(row_ts, map(itemgetter(F_SRC_TS), payloads)))
        writes = self._writes
        writes_by_topic = self._writes_by_topic
        takes_by_key = self._takes_by_key
        takes_by_topic = self._takes_by_topic
        for pid, code, topic, hop in zip(row_pid, row_code, topics, hops):
            if code == CODE_DDS_WRITE:
                ts, src_ts = hop
                writes.setdefault(pid, []).append((ts, topic, src_ts))
                writes_by_topic.setdefault(topic, []).append(hop)
            else:
                takes_by_key.setdefault((topic, hop[1]), []).append((hop[0], pid))
                takes_by_topic.setdefault(topic, []).append(hop)
        #: PIDs with CB, write or take rows, the PIDs with take rows and
        #: the (topic, src_ts) keys of the writes and takes: what chain
        #: journeys read.
        self._pids = frozenset(cb_pid[first].tolist()).union(row_pid)
        self._takers = frozenset(pid_np[code_np == CODE_TAKE].tolist())
        self._keys = frozenset(zip(topics, map(itemgetter(1), hops)))
        order = np.lexsort((wake_ts, wake_pid))  # per PID, stable ts order
        self._wakeups = _split(wake_pid[order], wake_ts[order].tolist())

    @classmethod
    def concat(cls, parts: Sequence["LatencyIndex"]) -> "LatencyIndex":
        """The index of the concatenated streams of ``parts``.

        Equal, on every slot, to the index built over the parts' columns
        concatenated, with the parts' wakeups merged per PID by
        timestamp (ties keep part order).  The parts are not modified,
        so cached fragments can be assembled again.

        A CB end a part opens with closes the CB start that an earlier
        part left open for the same PID, as one build over the whole
        stream pairs them: through parts with no CB rows for the PID,
        and never past a part that starts a CB of the PID.  The carried
        window goes before the part's own windows, and the one
        defensive sort then runs over the whole window list.
        """
        index = cls.__new__(cls)
        windows, starts, cb_starts = _ListConcat(), _ListConcat(), _ListConcat()
        writes, writes_by_topic = _ListConcat(), _ListConcat()
        takes_by_key, takes_by_topic = _ListConcat(), _ListConcat()
        wakeups: Dict[int, List[int]] = {}
        open_start: Dict[int, int] = {}
        lead_end: Dict[int, int] = {}
        first = last = None
        unsorted = set()
        for part in parts:
            carried = {}
            for pid, end in part._lead_end.items():
                start = open_start.pop(pid, None)
                if start is not None:
                    carried[pid] = [(start, end)]
                elif pid not in cb_starts.lists:
                    lead_end.setdefault(pid, end)
            for part_windows in (carried, part._windows):
                for pid, pid_windows in part_windows.items():
                    existing = windows.lists.get(pid)
                    if existing is not None and pid_windows[0][0] < existing[-1][0]:
                        unsorted.add(pid)
                windows.add(part_windows)
            starts.add(part._starts)
            for pid in part._cb_starts:
                open_start.pop(pid, None)
            open_start.update(part._open_tail)
            cb_starts.add(part._cb_starts)
            writes.add(part._writes)
            writes_by_topic.add(part._writes_by_topic)
            takes_by_key.add(part._takes_by_key)
            takes_by_topic.add(part._takes_by_topic)
            for pid, times in part._wakeups.items():
                existing = wakeups.get(pid)
                if existing is None:
                    wakeups[pid] = list(times)
                elif times[0] >= existing[-1]:
                    existing.extend(times)
                else:
                    wakeups[pid] = list(_heap_merge(existing, times))
            if part._span is not None:
                if first is None:
                    first = part._span[0]
                last = part._span[1]
        # A PID's start array is still the part's own unless its window
        # list was extended or began with a carried window.
        for pid, pid_windows in windows.lists.items():
            if pid in unsorted:
                pid_windows.sort(key=itemgetter(0))
            if windows.extended(pid) or pid not in starts.lists:
                starts.lists[pid] = [w[0] for w in pid_windows]
        index._windows = windows.lists
        index._starts = starts.lists
        index._cb_starts = cb_starts.lists
        index._writes = writes.lists
        index._writes_by_topic = writes_by_topic.lists
        index._takes_by_key = takes_by_key.lists
        index._takes_by_topic = takes_by_topic.lists
        index._wakeups = wakeups
        index._open_tail = open_start
        index._lead_end = lead_end
        index._span = None if first is None else (first, last)
        index._pids = frozenset().union(*(part._pids for part in parts))
        index._takers = frozenset().union(*(part._takers for part in parts))
        index._keys = frozenset().union(*(part._keys for part in parts))
        return index

    @classmethod
    def from_trace(cls, trace: Trace) -> "LatencyIndex":
        segment = InMemorySegment(trace)
        return cls(_resolve(segment), segment.wakeup_pid_columns())

    # -- lookups -----------------------------------------------------------

    @property
    def span(self) -> Optional[Tuple[int, int]]:
        """(first, last) timestamp of the indexed rows, or None when
        there were none."""
        return self._span

    def window_containing(self, pid: int, ts: int) -> Optional[Tuple[int, int]]:
        """The latest-starting callback window of ``pid`` containing
        ``ts`` (None when ``ts`` falls outside it)."""
        starts = self._starts.get(pid)
        if not starts:
            return None
        i = bisect.bisect_right(starts, ts) - 1
        if i >= 0:
            window = self._windows[pid][i]
            if window[0] <= ts <= window[1]:
                return window
        return None

    def writes_in(
        self, pid: int, window: Tuple[int, int], topic: str
    ) -> List[Tuple[int, Optional[int]]]:
        """(ts, src_ts) of the PID's writes on ``topic`` inside ``window``."""
        return [
            (ts, src_ts)
            for ts, write_topic, src_ts in self._writes.get(pid, [])
            if window[0] <= ts <= window[1] and write_topic == topic
        ]

    def writes_on(self, topic: str) -> List[Tuple[int, Optional[int]]]:
        """(ts, src_ts) of every write on ``topic``, in stream order."""
        return self._writes_by_topic.get(topic, [])

    def takes_for(
        self, topic: str, src_ts: Optional[int]
    ) -> List[Tuple[int, int]]:
        """(ts, pid) of the takes matching one (topic, srcTS) key."""
        return self._takes_by_key.get((topic, src_ts), [])

    def takes_on(self, topic: str) -> List[Tuple[int, Optional[int]]]:
        """(ts, src_ts) of every take on ``topic``, in stream order."""
        return self._takes_by_topic.get(topic, [])

    def cb_starts(self, pid: int) -> List[int]:
        """Start timestamps of the PID's callback instances."""
        return self._cb_starts.get(pid, [])

    def wakeups(self, pid: int) -> List[int]:
        """``sched_wakeup`` timestamps of the PID's thread."""
        return self._wakeups.get(pid, [])


class _ListConcat:
    """Per-key list concatenation for :meth:`LatencyIndex.concat`.

    A key met once keeps the part's own list; the first time it must
    be extended, the list is copied and the copy extended.  So parts
    never change, and the common case -- keys (PIDs, correlation keys)
    that no other part repeats -- copies nothing."""

    __slots__ = ("lists", "_copied")

    def __init__(self) -> None:
        self.lists: Dict = {}
        self._copied: set = set()

    def add(self, part: Dict) -> None:
        lists = self.lists
        if lists.keys().isdisjoint(part):
            lists.update(part)
            return
        copied = self._copied
        for key, rows in part.items():
            existing = lists.get(key)
            if existing is None:
                lists[key] = rows
            elif key in copied:
                existing.extend(rows)
            else:
                lists[key] = existing + rows
                copied.add(key)

    def extended(self, key) -> bool:
        """True when ``key``'s list joins several parts' lists."""
        return key in self._copied


def fragments_are_separable(fragments: Sequence[LatencyIndex]) -> bool:
    """True when the chain journeys over the concatenation of
    ``fragments`` are the fragments' own journeys, concatenated.

    That holds when the fragments are time-ordered, no PID that takes
    in one fragment has CB, write or take rows in another, and no
    ``(topic, src_ts)`` key of a write or take (``src_ts`` None
    included) appears in two of them.  A journey follows keys of its
    own fragment's writes to the takes under them, and reads the
    windows and writes of the PIDs that take -- so every row it reads
    lies in the fragment it started in.  A PID that only writes (the
    one PID of the publishers outside the traced nodes writes in every
    run) is read only through its topics' write lists, which
    concatenate in fragment order, so it may recur."""
    if not _spans_are_ordered(fragment.span for fragment in fragments):
        return False
    pids: set = set()
    takers: set = set()
    keys: set = set()
    for fragment in fragments:
        if not (
            pids.isdisjoint(fragment._takers)
            and takers.isdisjoint(fragment._pids)
            and keys.isdisjoint(fragment._keys)
        ):
            return False
        pids |= fragment._pids
        takers |= fragment._takers
        keys |= fragment._keys
    return True


def chain_latencies(
    index: Union[LatencyIndex, Sequence[LatencyIndex]],
    topics: Sequence[str],
    max_instances: Optional[int] = None,
) -> List[ChainLatency]:
    """Follow data through ``topics`` (in order) over a built index, or
    over the time-ordered per-run fragments of one stream.

    ``topics[0]`` is the chain's entry topic; each subsequent topic must
    be published from within the callback consuming the previous one.
    Incomplete journeys (data dropped by QoS, run boundary) are skipped.

    Over fragments, the result equals the result over
    ``LatencyIndex.concat(fragments)``.  When
    :func:`fragments_are_separable` holds, each fragment is followed on
    its own; otherwise the fragments are concatenated and followed as
    one index.
    """
    if not topics:
        raise ValueError("need at least one topic")
    if isinstance(index, LatencyIndex):
        return _chain_latencies(index, topics, max_instances)
    if not fragments_are_separable(index):
        return _chain_latencies(LatencyIndex.concat(index), topics, max_instances)
    latencies: List[ChainLatency] = []
    for fragment in index:
        if max_instances is not None and len(latencies) >= max_instances:
            break
        left = None if max_instances is None else max_instances - len(latencies)
        latencies += _chain_latencies(fragment, topics, left)
    return latencies


def _chain_latencies(
    index: LatencyIndex,
    topics: Sequence[str],
    max_instances: Optional[int],
) -> List[ChainLatency]:
    """:func:`chain_latencies` over one index."""
    latencies: List[ChainLatency] = []
    for write_ts, src_ts in index.writes_on(topics[0]):
        if max_instances is not None and len(latencies) >= max_instances:
            break
        journey_end = _follow(src_ts, topics, 0, index)
        if journey_end is not None:
            latencies.append(
                ChainLatency(start_ts=write_ts, end_ts=journey_end, hops=len(topics))
            )
    return latencies


def measure_chain_latencies(
    trace: Trace, topics: Sequence[str], max_instances: Optional[int] = None
) -> List[ChainLatency]:
    """In-memory front end of :func:`chain_latencies`."""
    return chain_latencies(LatencyIndex.from_trace(trace), topics, max_instances)


def _follow(
    src_ts: Optional[int],
    topics: Sequence[str],
    hop: int,
    index: LatencyIndex,
) -> Optional[int]:
    """Recursive hop: find the take for this write, then the next write
    inside the consuming instance.  Returns the final instance end ts."""
    for take_ts, take_pid in index.takes_for(topics[hop], src_ts):
        window = index.window_containing(take_pid, take_ts)
        if window is None:
            continue
        if hop == len(topics) - 1:
            return window[1]
        for _, next_src_ts in index.writes_in(take_pid, window, topics[hop + 1]):
            result = _follow(next_src_ts, topics, hop + 1, index)
            if result is not None:
                return result
    return None


@dataclass(frozen=True)
class WaitingTime:
    """Wakeup-to-dispatch interval for one callback instance."""

    pid: int
    wakeup_ts: int
    start_ts: int

    @property
    def waiting_ns(self) -> int:
        return self.start_ts - self.wakeup_ts


def waiting_times(index: LatencyIndex, pid: int) -> List[WaitingTime]:
    """Waiting time of each callback instance of a node (Sec. VII).

    Pairs each CB-start event with the most recent preceding
    ``sched_wakeup`` of the node's thread.  Requires the trace to have
    been collected with ``record_wakeups=True``.
    """
    wakeups = index.wakeups(pid)
    if not wakeups:
        return []
    result: List[WaitingTime] = []
    for start_ts in index.cb_starts(pid):
        i = bisect.bisect_right(wakeups, start_ts) - 1
        if i >= 0:
            result.append(
                WaitingTime(pid=pid, wakeup_ts=wakeups[i], start_ts=start_ts)
            )
    return result


def measure_waiting_times(trace: Trace, pid: int) -> List[WaitingTime]:
    """In-memory front end of :func:`waiting_times`."""
    return waiting_times(LatencyIndex.from_trace(trace), pid)


def topic_latencies(index: LatencyIndex, topic: str) -> List[int]:
    """Per-sample DDS latency on one topic: take.ts - write src_ts."""
    written = {src_ts for _, src_ts in index.writes_on(topic)}
    return [
        ts - src_ts
        for ts, src_ts in index.takes_on(topic)
        if src_ts in written
    ]


def communication_latencies(trace: Trace, topic: str) -> List[int]:
    """In-memory front end of :func:`topic_latencies`."""
    return topic_latencies(LatencyIndex.from_trace(trace), topic)
