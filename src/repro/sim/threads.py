"""Simulated threads.

A :class:`SimThread` wraps a Python generator -- its *activity* -- that
yields scheduling requests to the CPU scheduler:

* ``yield Compute(ns)`` -- occupy a CPU for ``ns`` nanoseconds of pure
  execution time.  The scheduler may split the request across several
  *execution segments* if the thread is preempted; the request completes
  once the cumulative CPU time equals ``ns``.
* ``payload = yield Block()`` -- leave the CPU and sleep until another
  party calls :meth:`SimThread.wakeup`.  The payload passed to ``wakeup``
  is delivered as the result of the ``yield``.

Plain Python code executed between two ``yield`` points runs at a single
instant of simulated time *while the thread owns a CPU* -- exactly like
instructions between two preemption points on real hardware.  This is the
property the tracing substrate relies on: a probe firing inside such code
observes the timestamp at which the traced thread is actually running.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Generator, Iterable, Optional, Set


class Compute:
    """Request ``duration`` nanoseconds of CPU time (preemptible)."""

    __slots__ = ("duration",)

    def __init__(self, duration: int):
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration}")
        self.duration = int(duration)

    def __repr__(self) -> str:
        return f"Compute({self.duration})"


class Block:
    """Request to sleep until :meth:`SimThread.wakeup` is called."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Block()"


class YieldCpu:
    """Voluntarily relinquish the CPU but stay runnable (sched_yield)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "YieldCpu()"


Request = Any
Activity = Generator[Request, Any, None]


class ThreadState(enum.Enum):
    """Lifecycle states, mirroring the Linux task states we care about."""

    NEW = "new"
    READY = "ready"  # runnable, waiting for a CPU
    RUNNING = "running"  # currently owns a CPU
    BLOCKED = "blocked"  # sleeping, waiting for a wakeup
    DEAD = "dead"  # activity exhausted

    def sched_char(self) -> str:
        """Single-letter state code as shown by ``sched_switch``."""
        return _SCHED_CHARS[self]


#: Hot-loop lookup for :meth:`ThreadState.sched_char` (one dict, not a
#: dict literal per call -- sched_char fires on every context switch).
_SCHED_CHARS = {
    ThreadState.READY: "R",
    ThreadState.RUNNING: "R",
    ThreadState.BLOCKED: "S",
    ThreadState.DEAD: "X",
    ThreadState.NEW: "R",
}


class SchedPolicy(enum.Enum):
    """Scheduling policies supported by the simulated scheduler."""

    OTHER = "SCHED_OTHER"  # timesliced, priority 0..39 band
    FIFO = "SCHED_FIFO"  # real-time, run-to-completion within priority
    RR = "SCHED_RR"  # real-time, timesliced within priority


@dataclasses.dataclass(frozen=True)
class ThreadSchedParams:
    """Per-thread parameters consumed by the pluggable scheduling
    policies (:mod:`repro.sim.policies`).  All fields are optional --
    a policy falls back to its own defaults for anything unset, so the
    same thread description runs under every policy.

    deadline_ns:
        Relative deadline for ``edf``: each wakeup arms an absolute
        deadline of ``wake time + deadline_ns``.  Scenario specs derive
        it from the node's driving timer period.
    expected_ns:
        Expected compute-request length for ``psjf``, used until the
        policy has observed real requests to average.
    weight:
        Explicit CFS load weight, overriding the priority-derived one.
    """

    deadline_ns: Optional[int] = None
    expected_ns: Optional[int] = None
    weight: Optional[int] = None


class SimThread:
    """A schedulable thread of execution.

    Parameters
    ----------
    pid:
        Unique identifier; also used as the thread's PID/TID in traces.
    activity:
        Generator yielding :class:`Compute` / :class:`Block` requests.
    priority:
        Higher values preempt lower ones.  By convention SCHED_OTHER
        threads use 0..39 and real-time threads use 100 + rtprio, so any
        real-time thread outranks any fair-share thread.
    policy:
        Timeslicing behaviour; see :class:`SchedPolicy`.
    affinity:
        Set of CPU ids the thread may run on.  ``None`` means all CPUs.
    name:
        Human-readable label (``comm`` in Linux parlance).
    sched_params:
        Optional :class:`ThreadSchedParams` consumed by the pluggable
        scheduling policies (deadline, expected job length, weight).
    """

    def __init__(
        self,
        pid: int,
        activity: Activity,
        priority: int = 0,
        policy: SchedPolicy = SchedPolicy.OTHER,
        affinity: Optional[Iterable[int]] = None,
        name: str = "",
        sched_params: Optional[ThreadSchedParams] = None,
    ):
        if pid <= 0:
            raise ValueError("pid must be positive (0 is the idle/swapper pid)")
        self.pid = pid
        self.name = name or f"thread-{pid}"
        self.activity = activity
        self.priority = priority
        self.policy = policy
        self.sched_params = sched_params
        self.affinity: Optional[Set[int]] = set(affinity) if affinity is not None else None
        self.state = ThreadState.NEW

        #: Remaining nanoseconds of the in-flight Compute request.
        self.remaining: int = 0
        #: Payload queued by a wakeup that raced with a not-yet-blocked thread.
        self._pending_wakeup = False
        self._wakeup_payload: Any = None
        #: CPU the thread currently runs on (None unless RUNNING).
        self.cpu: Optional[int] = None
        #: Cumulative CPU time consumed, for accounting/validation.
        self.cpu_time: int = 0
        #: Value delivered to the activity at the next resume (wakeup payload).
        self.resume_value: Any = None
        self._started = False

    def can_run_on(self, cpu_id: int) -> bool:
        """True when the affinity mask allows ``cpu_id``."""
        return self.affinity is None or cpu_id in self.affinity

    def advance(self, value: Any = None) -> Optional[Request]:
        """Resume the activity generator, returning the next request.

        Returns ``None`` when the activity is exhausted (thread exits).
        The started-path returns inside the ``try`` so the common case
        (every resume after the first) is one branch + one ``send``.
        """
        try:
            if self._started:
                return self.activity.send(value)
            self._started = True
            return next(self.activity)
        except StopIteration:
            return None

    def queue_wakeup(self, payload: Any = None) -> None:
        """Record a wakeup; consumed by the scheduler on next Block."""
        self._pending_wakeup = True
        self._wakeup_payload = payload

    def consume_wakeup(self) -> Any:
        """Pop the queued wakeup payload (scheduler internal)."""
        payload = self._wakeup_payload
        self._pending_wakeup = False
        self._wakeup_payload = None
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimThread(pid={self.pid}, name={self.name!r}, "
            f"prio={self.priority}, state={self.state.value})"
        )
