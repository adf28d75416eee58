"""Pluggable scheduling policies for the simulated CPU scheduler.

The :class:`~repro.sim.scheduler.Scheduler` owns the *mechanism* of
dispatch -- installing threads on CPUs, accounting execution segments,
emitting ``sched_switch`` records -- while a :class:`SchedulingPolicy`
object owns the *policy* decisions:

* ready-queue maintenance (:meth:`SchedulingPolicy.enqueue` /
  :meth:`~SchedulingPolicy.remove` / :meth:`~SchedulingPolicy.pick`),
* placement and preemption-on-wake (:meth:`~SchedulingPolicy.find_cpu`,
  built on the per-policy :meth:`~SchedulingPolicy.preempts` order),
* timeslice policy (:meth:`~SchedulingPolicy.timeslice_for` /
  :meth:`~SchedulingPolicy.should_rotate`).

Four policies ship:

``priority``
    The default: strict priority preemption with round-robin
    timeslicing inside a priority band (FIFO threads run to the next
    blocking point).  This class is a *verbatim extraction* of the
    pre-refactor scheduler internals -- the ready ladder, the
    dirty-CPU victim scan, the rotation test -- and its traces are
    pinned by the committed digests in
    ``tests/data/golden_digests.json``.  Do not "improve" it.
``psjf``
    Preemptive shortest-job-first: the runnable thread with the
    smallest expected remaining compute wins; a waking short job
    preempts a running long one.  Job length is the in-flight
    request's remaining nanoseconds when one exists, else a per-thread
    EWMA of observed Compute requests (seeded from
    ``ThreadSchedParams.expected_ns``).
``edf``
    Earliest-deadline-first: every wakeup arms an absolute deadline
    (wake time + the thread's relative deadline, e.g. its driving
    timer period); the runnable thread with the earliest deadline
    wins and preempts later-deadline threads on wake.
``cfs``
    A CFS/vruntime-style fair scheduler: each thread accrues virtual
    runtime scaled by a priority-derived weight; the minimum-vruntime
    runnable thread wins, wakers preempt only past a granularity
    margin, and the quantum shrinks as the ready queue grows.

All policies break ties by enqueue order (a monotonic sequence
number), so dispatch stays bit-for-bit deterministic for a fixed event
history.  Policy instances hold per-scheduler state and must not be
shared between schedulers.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Type, Union

from .kernel import MSEC
from .threads import SchedPolicy, SimThread

#: Fallback relative deadline (ns) for ``edf`` threads that carry no
#: ``ThreadSchedParams.deadline_ns`` -- generous enough to demote such
#: threads behind any real periodic deadline.
DEFAULT_DEADLINE_NS = 100 * MSEC

#: Fallback expected job length (ns) for ``psjf`` threads with no
#: declared ``expected_ns`` and no observed Compute history yet.
DEFAULT_EXPECTED_NS = MSEC

#: CFS weight of a priority-0 thread (Linux's NICE_0_LOAD).
NICE0_WEIGHT = 1024

#: A waking thread must lead the running one by this much vruntime to
#: preempt it (Linux's wakeup granularity, scaled down to our quanta).
CFS_WAKEUP_GRANULARITY_NS = MSEC

#: Lower bound on the CFS quantum however crowded the ready queue is.
CFS_MIN_GRANULARITY_NS = MSEC


class SchedulingPolicy:
    """Strategy interface consulted by the scheduler at every policy
    decision point.  Subclasses own the ready-queue representation."""

    #: Registry key; also what ``ScenarioSpec.policy`` names.
    name = "abstract"

    def __init__(self) -> None:
        self.scheduler = None  # set by attach()

    def attach(self, scheduler) -> None:
        """Bind to a scheduler and reset all per-run state."""
        if self.scheduler is not None and self.scheduler is not scheduler:
            raise RuntimeError(
                f"policy {self.name!r} is already attached to a scheduler; "
                "create one policy instance per Scheduler"
            )
        self.scheduler = scheduler

    # -- ready queue ---------------------------------------------------

    def enqueue(self, thread: SimThread, front: bool = False, woke: bool = False) -> None:
        """Add a runnable thread.  ``front`` requeues a preempted thread
        ahead of its peers; ``woke`` marks a NEW/BLOCKED -> READY
        transition (policies that re-arm deadlines or clamp vruntime
        hook it)."""
        raise NotImplementedError

    def remove(self, thread: SimThread) -> None:
        """Remove a specific queued thread (it is about to be placed)."""
        raise NotImplementedError

    def pick(self, cpu_id: int) -> Optional[SimThread]:
        """Pop the best runnable thread allowed on ``cpu_id``, or None."""
        raise NotImplementedError

    def placement_order(self) -> List[SimThread]:
        """Snapshot of queued threads in placement priority order, best
        first.  ``Scheduler._resched`` takes a fresh snapshot before
        every ladder sweep."""
        raise NotImplementedError

    # -- placement / preemption-on-wake --------------------------------

    def preempts(self, thread: SimThread, running: SimThread) -> bool:
        """True when a waking/ready ``thread`` should displace
        ``running`` from its CPU."""
        raise NotImplementedError

    def victim_key(self, running: SimThread):
        """Comparable badness of ``running`` as a preemption victim;
        among preemptable CPUs the maximum key loses its CPU."""
        raise NotImplementedError

    def find_cpu(self, thread: SimThread, dirty_only: bool = False):
        """Pick an idle allowed CPU, else the allowed CPU whose current
        thread is the worst victim ``thread`` may preempt.

        ``dirty_only`` restricts the scan to CPUs touched since the
        thread last failed to place (see ``Scheduler._resched``): clean
        CPUs rejected it in an identical state, so filtering them
        preserves the full scan's pick exactly.
        """
        victim = None
        victim_badness = None
        affinity = thread.affinity  # inlined can_run_on: one scan per placement
        for cpu in self.scheduler.cpus:
            if dirty_only and not cpu.dirty:
                continue
            if affinity is not None and cpu.id not in affinity:
                continue
            current = cpu.current
            if current is None:
                return cpu
            if self.preempts(thread, current):
                badness = self.victim_key(current)
                if victim is None or badness > victim_badness:
                    victim = cpu
                    victim_badness = badness
        return victim

    # -- timeslice -----------------------------------------------------

    def timeslice_for(self, thread: SimThread) -> Optional[int]:
        """Quantum (ns) to arm when ``thread`` is installed, or None to
        let it run to its next blocking point."""
        if thread.policy is SchedPolicy.FIFO:
            return None
        return self.scheduler.timeslice

    def should_rotate(self, cpu_id: int, thread: SimThread) -> bool:
        """At quantum expiry: requeue ``thread`` and re-pick?"""
        raise NotImplementedError

    # -- accounting hooks (default: no bookkeeping) --------------------

    def on_run(self, thread: SimThread, elapsed: int) -> None:
        """``thread`` just finished an execution segment of ``elapsed``
        nanoseconds on a CPU."""

    def on_compute(self, thread: SimThread, duration: int) -> None:
        """``thread`` just issued a Compute request of ``duration`` ns."""


class PriorityRoundRobin(SchedulingPolicy):
    """Strict priority preemption + round-robin inside a priority band.

    Verbatim extraction of the pre-refactor scheduler's ready ladder
    and victim scan; its traces are pinned by the committed digests in
    ``tests/data/golden_digests.json``.
    """

    name = "priority"

    def attach(self, scheduler) -> None:
        super().attach(scheduler)
        self._ready: Dict[int, Deque[SimThread]] = {}
        #: Priorities with a non-empty ready deque, kept ascending by
        #: bisect insertion.  Dispatch walks it in reverse instead of
        #: calling ``sorted(self._ready)`` on every pick -- same order,
        #: maintained incrementally.
        self._ready_prios: List[int] = []

    def enqueue(self, thread: SimThread, front: bool = False, woke: bool = False) -> None:
        dq = self._ready.get(thread.priority)
        if dq is None:
            dq = self._ready[thread.priority] = deque()
            insort(self._ready_prios, thread.priority)
        if front:
            dq.appendleft(thread)
        else:
            dq.append(thread)

    def _drop_ready_prio(self, prio: int) -> None:
        """Remove a priority whose deque just drained."""
        del self._ready[prio]
        self._ready_prios.remove(prio)

    def remove(self, thread: SimThread) -> None:
        dq = self._ready.get(thread.priority)
        if dq is not None and thread in dq:
            dq.remove(thread)
            if not dq:
                self._drop_ready_prio(thread.priority)

    def pick(self, cpu_id: int) -> Optional[SimThread]:
        for prio in reversed(self._ready_prios):
            dq = self._ready[prio]
            for thread in dq:
                affinity = thread.affinity  # inlined can_run_on (hot: every dispatch)
                if affinity is None or cpu_id in affinity:
                    dq.remove(thread)
                    if not dq:
                        self._drop_ready_prio(prio)
                    return thread
        return None

    def placement_order(self) -> List[SimThread]:
        order: List[SimThread] = []
        for prio in reversed(self._ready_prios):
            order.extend(self._ready[prio])
        return order

    def preempts(self, thread: SimThread, running: SimThread) -> bool:
        return running.priority < thread.priority

    def victim_key(self, running: SimThread) -> int:
        # The *lowest*-priority current thread is the best victim.
        return -running.priority

    def _best_ready_priority(self, cpu_id: int) -> Optional[int]:
        for prio in reversed(self._ready_prios):
            for t in self._ready[prio]:  # inlined can_run_on (fires per quantum expiry)
                if t.affinity is None or cpu_id in t.affinity:
                    return prio
        return None

    def should_rotate(self, cpu_id: int, thread: SimThread) -> bool:
        competitor = self._best_ready_priority(cpu_id)
        return competitor is not None and competitor >= thread.priority


class _KeyedPolicy(SchedulingPolicy):
    """Shared machinery for policies that order the ready queue by a
    single comparable key (smaller wins): a flat list of
    ``(key, seq, thread)`` entries.

    Keys are computed at enqueue time and are stable while a thread
    stays queued (estimates/deadlines/vruntime only change while a
    thread runs or wakes).  ``seq`` breaks ties deterministically in
    enqueue order; front-enqueues take descending negative sequence
    numbers so a preempted thread outranks equal-key peers, mirroring
    the default policy's ``appendleft``.
    """

    def attach(self, scheduler) -> None:
        super().attach(scheduler)
        self._queue: List[Tuple[int, int, SimThread]] = []
        self._seq = 0
        self._front_seq = 0

    # Subclass surface ------------------------------------------------

    def _key(self, thread: SimThread) -> int:
        """Current ordering key of ``thread`` (smaller runs first)."""
        raise NotImplementedError

    def _on_wake(self, thread: SimThread) -> None:
        """NEW/BLOCKED -> READY hook (re-arm deadline, clamp vruntime)."""

    # Queue machinery -------------------------------------------------

    def enqueue(self, thread: SimThread, front: bool = False, woke: bool = False) -> None:
        if woke:
            self._on_wake(thread)
        if front:
            self._front_seq -= 1
            seq = self._front_seq
        else:
            self._seq += 1
            seq = self._seq
        self._queue.append((self._key(thread), seq, thread))

    def remove(self, thread: SimThread) -> None:
        for i, entry in enumerate(self._queue):
            if entry[2] is thread:
                del self._queue[i]
                return

    def pick(self, cpu_id: int) -> Optional[SimThread]:
        best = None
        for entry in self._queue:
            affinity = entry[2].affinity  # inlined can_run_on
            if (affinity is None or cpu_id in affinity) and (
                best is None or entry[:2] < best[:2]
            ):
                best = entry
        if best is None:
            return None
        self._queue.remove(best)
        self._picked(best[0])
        return best[2]

    def _picked(self, key: int) -> None:
        """Hook: ``key`` just won a CPU (CFS tracks min vruntime here)."""

    def placement_order(self) -> List[SimThread]:
        return [entry[2] for entry in sorted(self._queue, key=lambda e: e[:2])]

    def preempts(self, thread: SimThread, running: SimThread) -> bool:
        return self._key(thread) < self._key(running)

    def victim_key(self, running: SimThread) -> int:
        # The latest-deadline / longest-job / largest-vruntime current
        # thread is the best victim.
        return self._key(running)

    def should_rotate(self, cpu_id: int, thread: SimThread) -> bool:
        for entry in self._queue:  # inlined can_run_on
            affinity = entry[2].affinity
            if affinity is None or cpu_id in affinity:
                return True
        return False


class ShortestJobFirst(_KeyedPolicy):
    """Preemptive shortest-job-first (schedsi's ``PSJF`` shape).

    The job-length estimate is the in-flight Compute request's
    remaining nanoseconds when one exists (the true remaining demand),
    else an EWMA of the thread's past Compute requests, seeded from
    ``ThreadSchedParams.expected_ns``.  No timeslicing: a running job
    yields the CPU only to a strictly shorter waking job.
    """

    name = "psjf"

    def attach(self, scheduler) -> None:
        super().attach(scheduler)
        self._estimate: Dict[int, int] = {}

    def _key(self, thread: SimThread) -> int:
        if thread.remaining > 0:
            return thread.remaining
        estimate = self._estimate.get(thread.pid)
        if estimate is not None:
            return estimate
        params = thread.sched_params
        if params is not None and params.expected_ns is not None:
            return params.expected_ns
        return DEFAULT_EXPECTED_NS

    def on_compute(self, thread: SimThread, duration: int) -> None:
        old = self._estimate.get(thread.pid)
        self._estimate[thread.pid] = duration if old is None else (old + duration) // 2

    def timeslice_for(self, thread: SimThread) -> Optional[int]:
        return None  # run until done/blocked or a shorter job wakes


class EarliestDeadlineFirst(_KeyedPolicy):
    """Earliest-deadline-first with deadlines re-armed on wakeup.

    Each NEW/BLOCKED -> READY transition sets the thread's absolute
    deadline to ``now + relative deadline``; the relative deadline
    comes from ``ThreadSchedParams.deadline_ns`` (scenario specs derive
    it from the node's driving timer period).  No timeslicing: the
    earliest deadline runs until it blocks or an earlier one wakes.
    """

    name = "edf"

    def attach(self, scheduler) -> None:
        super().attach(scheduler)
        self._deadline: Dict[int, int] = {}

    def _relative_deadline(self, thread: SimThread) -> int:
        params = thread.sched_params
        if params is not None and params.deadline_ns is not None:
            return params.deadline_ns
        return DEFAULT_DEADLINE_NS

    def _on_wake(self, thread: SimThread) -> None:
        self._deadline[thread.pid] = self.scheduler.kernel.now + self._relative_deadline(thread)

    def _key(self, thread: SimThread) -> int:
        deadline = self._deadline.get(thread.pid)
        if deadline is None:  # never woken through the queue yet
            deadline = self.scheduler.kernel.now + self._relative_deadline(thread)
            self._deadline[thread.pid] = deadline
        return deadline

    def timeslice_for(self, thread: SimThread) -> Optional[int]:
        return None  # run until done/blocked or an earlier deadline wakes


class CompletelyFair(_KeyedPolicy):
    """CFS/vruntime-style fair scheduler.

    Every execution segment advances the running thread's virtual
    runtime by ``elapsed * NICE0_WEIGHT / weight``, with the weight
    derived from the thread's priority (or pinned via
    ``ThreadSchedParams.weight``); the minimum-vruntime runnable
    thread runs next.  Waking threads are clamped to the queue's
    min-vruntime watermark (sleepers must not hoard credit) and
    preempt only when they lead the running thread by the wakeup
    granularity.  The quantum shrinks as the ready queue grows, with a
    floor at the minimum granularity.
    """

    name = "cfs"

    def attach(self, scheduler) -> None:
        super().attach(scheduler)
        self._vruntime: Dict[int, int] = {}
        self._weights: Dict[int, int] = {}
        self._min_vruntime = 0

    def _weight(self, thread: SimThread) -> int:
        params = thread.sched_params
        if params is not None and params.weight is not None:
            return params.weight
        weight = self._weights.get(thread.priority)
        if weight is None:
            # Linux's ~1.25x-per-nice-level ladder, clamped so the
            # convention of priority 100+rtprio for "real-time" threads
            # yields a huge-but-finite weight.
            step = min(max(thread.priority, -20), 40)
            weight = self._weights[thread.priority] = max(
                1, int(NICE0_WEIGHT * (1.25 ** step))
            )
        return weight

    def _key(self, thread: SimThread) -> int:
        vruntime = self._vruntime.get(thread.pid)
        if vruntime is None:
            vruntime = self._vruntime[thread.pid] = self._min_vruntime
        return vruntime

    def _on_wake(self, thread: SimThread) -> None:
        previous = self._vruntime.get(thread.pid, self._min_vruntime)
        self._vruntime[thread.pid] = max(previous, self._min_vruntime)

    def _picked(self, key: int) -> None:
        if key > self._min_vruntime:
            self._min_vruntime = key

    def on_run(self, thread: SimThread, elapsed: int) -> None:
        self._vruntime[thread.pid] = (
            self._vruntime.get(thread.pid, self._min_vruntime)
            + elapsed * NICE0_WEIGHT // self._weight(thread)
        )

    def preempts(self, thread: SimThread, running: SimThread) -> bool:
        return self._key(thread) + CFS_WAKEUP_GRANULARITY_NS < self._key(running)

    def timeslice_for(self, thread: SimThread) -> Optional[int]:
        if thread.policy is SchedPolicy.FIFO:
            return None
        quantum = self.scheduler.timeslice // (len(self._queue) + 1)
        return max(quantum, CFS_MIN_GRANULARITY_NS)


#: Registry of constructable policies, keyed by ``SchedulingPolicy.name``.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    cls.name: cls
    for cls in (PriorityRoundRobin, ShortestJobFirst, EarliestDeadlineFirst, CompletelyFair)
}

#: Stable, sorted policy-name tuple for CLI ``choices=`` and validation.
POLICY_NAMES = tuple(sorted(POLICIES))


def make_policy(policy: Union[str, SchedulingPolicy, None]) -> SchedulingPolicy:
    """Resolve a policy argument: None -> the default priority/RR
    policy, a name -> a fresh instance, an instance -> itself."""
    if policy is None:
        return PriorityRoundRobin()
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        cls = POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; expected one of {', '.join(POLICY_NAMES)}"
        ) from None
    return cls()
