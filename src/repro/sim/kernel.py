"""Discrete-event simulation kernel.

The kernel is the clock of the simulated machine.  All other substrates
(the CPU scheduler in :mod:`repro.sim.scheduler`, the DDS bus in
:mod:`repro.ros2.dds`, ROS2 timers, ...) schedule work on a single shared
:class:`SimKernel` instance.  Simulated time is an integer number of
nanoseconds, mirroring ``CLOCK_MONOTONIC`` on the Linux box used in the
paper.

Events are plain callables ordered by ``(time, priority, sequence)``.  The
sequence number makes ordering of same-timestamp events deterministic
(FIFO), which in turn makes every experiment in this repository
reproducible bit-for-bit.

:class:`SimKernel` is slab-backed.  Event state lives in
parallel arrays (``_slot_seq`` / ``_slot_fn`` / ``_slot_args``) indexed
by a recycled *slot* number, and the heap holds bare ``(time, priority,
seq, slot)`` integer tuples -- no per-event handle object on the hot
path.  The high-rate producers (scheduler timers, DDS delivery) use the
token API:

* ``token = kernel.post_after(delay, fn, args)`` -- schedule without
  allocating a closure or a handle; ``args`` are stored in the slab and
  splatted at fire time;
* ``kernel.cancel(token)`` -- O(1) cancel.  The token packs ``(seq,
  slot)``; the sequence number doubles as a *generation tag*, so a stale
  token (the event already fired and its slot was recycled) is a
  harmless no-op.  This is the behaviour preemption logic in the
  scheduler relies on.

``schedule_at`` / ``schedule_after`` remain for casual users and return
a slim :class:`EventHandle` view over the same slab.

The simulator's output on every registry scenario under every
scheduling policy is pinned by the sha256 digests in
``tests/data/golden_digests.json``, so a change to event order fails
the suite.

The kernel counts cancellations (dominated by the scheduler's
per-dispatch timeslice timers) and, once cancelled entries exceed half
the queue, compacts the heap in one O(n) pass + heapify instead of
leaking dead weight through pops.  The rebuilt heap holds the same
pending set under the same total order, so event delivery is unchanged
bit for bit.  Queues shorter than ``compact_min_queue`` (a constructor
parameter, default ``_COMPACT_MIN_QUEUE``) are never compacted -- the
O(n) rebuild would cost more than popping the few cancelled entries
lazily.  ``kernel.cancelled`` / ``kernel.compactions`` count both over
the kernel's lifetime.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: One microsecond / millisecond / second expressed in kernel ticks (ns).
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

#: Default compaction floor (see ``compact_min_queue``).
_COMPACT_MIN_QUEUE = 64

#: Token layout: low ``_SLOT_BITS`` bits carry the slot index, the rest
#: the sequence number.  2**20 simultaneously pending events is ~3
#: orders of magnitude above anything the benches reach.
_SLOT_BITS = 20
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_MAX_SLOTS = 1 << _SLOT_BITS


class EventHandle:
    """Cancellation view returned by :meth:`SimKernel.schedule_at` /
    :meth:`SimKernel.schedule_after`.

    A thin ``(kernel, slot, seq)`` triple over the kernel's slab.
    Cancelling twice, or after the event fired, is a harmless no-op.
    """

    __slots__ = ("time", "priority", "seq", "_slot", "_kernel")

    def __init__(self, time: int, priority: int, seq: int, slot: int, kernel: "SimKernel"):
        self.time = time
        self.priority = priority
        self.seq = seq
        self._slot = slot
        self._kernel = kernel

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._kernel._cancel_slot(self._slot, self.seq)

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return self._kernel._slot_seq[self._slot] == self.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if self.pending else "done"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


#: Heap entry: the comparison key inline, the slab slot along for the
#: ride.  ``seq`` is unique so heap sifts never compare the slot.
_Entry = Tuple[int, int, int, int]


class SimKernel:
    """Deterministic discrete-event simulation kernel (slab-backed).

    Parameters
    ----------
    start:
        Initial clock value (ns).
    compact_min_queue:
        Queues shorter than this are never compacted; raise it to trade
        memory for fewer O(n) rebuilds, lower it (>= 0) to compact
        aggressively.

    Example
    -------
    >>> k = SimKernel()
    >>> fired = []
    >>> _ = k.schedule_at(10, lambda: fired.append(k.now))
    >>> _ = k.schedule_after(5, lambda: fired.append(k.now))
    >>> k.run()
    >>> fired
    [5, 10]
    """

    def __init__(self, start: int = 0, compact_min_queue: int = _COMPACT_MIN_QUEUE) -> None:
        if start < 0:
            raise ValueError("start time must be >= 0")
        if compact_min_queue < 0:
            raise ValueError("compact_min_queue must be >= 0")
        self._now = start
        self._queue: List[_Entry] = []
        self._seq = 0
        self._running = False
        self.compact_min_queue = compact_min_queue
        #: Lifetime counters (cancels observed / heap compactions run).
        self.cancelled = 0
        self.compactions = 0
        #: Cancelled-but-unpopped entries currently in the queue.
        self._cancelled_in_queue = 0
        # The slab: parallel arrays indexed by slot.  ``_slot_seq[slot]``
        # is the sequence number of the occupying event, or 0 when the
        # slot is free (real sequence numbers start at 1), which makes
        # the staleness test a single int compare.
        self._slot_seq: List[int] = []
        self._slot_fn: List[Optional[Callable]] = []
        self._slot_args: List[Any] = []
        self._free_slots: List[int] = []

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- slab plumbing -------------------------------------------------------

    def _alloc_slot(self, seq: int, fn: Callable, args: tuple) -> int:
        free = self._free_slots
        if free:
            slot = free.pop()
            self._slot_seq[slot] = seq
            self._slot_fn[slot] = fn
            self._slot_args[slot] = args
        else:
            slot = len(self._slot_seq)
            if slot >= _MAX_SLOTS:
                raise RuntimeError(
                    f"more than {_MAX_SLOTS} events pending at once"
                )
            self._slot_seq.append(seq)
            self._slot_fn.append(fn)
            self._slot_args.append(args)
        return slot

    def _cancel_slot(self, slot: int, seq: int) -> bool:
        """Cancel the event in ``slot`` iff it is still generation ``seq``."""
        slot_seq = self._slot_seq
        if slot_seq[slot] != seq:
            return False  # already fired or cancelled: no-op
        slot_seq[slot] = 0
        self._slot_fn[slot] = None
        self._slot_args[slot] = None
        self._free_slots.append(slot)
        self.cancelled += 1
        self._cancelled_in_queue += 1
        queue = self._queue
        # Compact once dead weight wins.  This runs inside cancel -- any
        # caller holding a binding to the old queue list must rebind.
        if (
            len(queue) >= self.compact_min_queue
            and self._cancelled_in_queue * 2 > len(queue)
        ):
            self._queue = [e for e in queue if slot_seq[e[3]] == e[2]]
            heapify(self._queue)
            self._cancelled_in_queue = 0
            self.compactions += 1
        return True

    # -- scheduling entry points ---------------------------------------------

    def schedule_at(
        self, time: int, fn: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule ``fn`` to run at absolute time ``time``.

        ``priority`` breaks ties between events with equal timestamps;
        lower values run first.  Scheduling in the past raises
        ``ValueError`` -- a kernel never travels backwards.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} (now={self._now}): time is in the past"
            )
        self._seq = seq = self._seq + 1
        slot = self._alloc_slot(seq, fn, ())
        heappush(self._queue, (time, priority, seq, slot))
        return EventHandle(time, priority, seq, slot, self)

    def schedule_after(
        self, delay: int, fn: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self._now + delay
        self._seq = seq = self._seq + 1
        slot = self._alloc_slot(seq, fn, ())
        heappush(self._queue, (time, priority, seq, slot))
        return EventHandle(time, priority, seq, slot, self)

    def post_after(
        self, delay: int, fn: Callable, args: tuple = (), priority: int = 0
    ) -> int:
        """Hot-path scheduling: no closure, no handle object.

        ``fn(*args)`` runs ``delay`` ns from now; the returned int token
        cancels via :meth:`cancel`.  Unlike ``schedule_after`` +
        ``functools.partial`` this allocates nothing but a heap tuple --
        the callable and its arguments park in the slab.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self._now + delay
        self._seq = seq = self._seq + 1
        free = self._free_slots
        if free:
            slot = free.pop()
            self._slot_seq[slot] = seq
            self._slot_fn[slot] = fn
            self._slot_args[slot] = args
        else:
            slot = self._alloc_slot(seq, fn, args)
        heappush(self._queue, (time, priority, seq, slot))
        return (seq << _SLOT_BITS) | slot

    def cancel(self, token: int) -> bool:
        """Cancel the event behind ``token``.

        Returns True if the event was pending.  A token whose event
        already fired (or was cancelled) is detected by the generation
        tag and ignored, even if the slot has been recycled since.
        """
        return self._cancel_slot(token & _SLOT_MASK, token >> _SLOT_BITS)

    # -- introspection -------------------------------------------------------

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        slot_seq = self._slot_seq
        return sum(1 for e in self._queue if slot_seq[e[3]] == e[2])

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        queue = self._queue
        slot_seq = self._slot_seq
        while queue:
            time, _prio, seq, slot = heappop(queue)
            if slot_seq[slot] != seq:
                self._cancelled_in_queue -= 1
                continue
            fn = self._slot_fn[slot]
            args = self._slot_args[slot]
            slot_seq[slot] = 0
            self._slot_fn[slot] = None
            self._slot_args[slot] = None
            self._free_slots.append(slot)
            self._now = time
            if args:
                fn(*args)
            else:
                fn()
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run``
        calls observe a monotonically advancing clock.  Returns the number
        of events that fired.
        """
        if self._running:
            raise RuntimeError("SimKernel.run() is not reentrant")
        self._running = True
        fired = 0
        pop = heappop
        # The slab lists are mutated in place, never rebound: hoist them.
        slot_seq = self._slot_seq
        slot_fn = self._slot_fn
        slot_args = self._slot_args
        free = self._free_slots
        # Open-ended runs use an unreachable horizon so the loop does a
        # single int compare per event instead of a None check + compare.
        limit = until if until is not None else 0x7FFF_FFFF_FFFF_FFFF
        try:
            # Fused peek+step: one pass over the heap head per event.
            # ``fired != max_events`` covers max_events=None (an int
            # never equals None).  The queue binding is refreshed every
            # iteration because a compaction (triggered by a cancel
            # inside ``fn``) replaces the list.
            while fired != max_events:
                queue = self._queue
                while queue:
                    head = queue[0]
                    if slot_seq[head[3]] == head[2]:
                        break
                    pop(queue)
                    self._cancelled_in_queue -= 1
                if not queue:
                    break
                if head[0] > limit:
                    break
                pop(queue)
                slot = head[3]
                fn = slot_fn[slot]
                args = slot_args[slot]
                # Free the slot *before* calling fn: the callback may
                # schedule new events into it, and seq uniqueness keeps
                # any outstanding tokens for this event stale.
                slot_seq[slot] = 0
                slot_fn[slot] = None
                slot_args[slot] = None
                free.append(slot)
                self._now = head[0]
                if args:
                    fn(*args)
                else:
                    fn()
                fired += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimKernel(now={self._now}, pending={self.pending_count()})"
