"""The simulated machine: clock, CPUs, middleware symbols and DDS bus.

A :class:`World` is the top-level container every experiment starts from.
It owns:

* the discrete-event kernel (the machine's clock),
* the CPU scheduler (with its ``sched_switch`` / ``sched_wakeup``
  tracepoints),
* the symbol table of the simulated middleware shared objects (the
  attachment surface for uprobes),
* the DDS bus over which all ROS2 communication flows,
* a seeded random generator driving every stochastic model.

Typical use::

    world = World(num_cpus=4, seed=7)
    node = Node(world, "point_cloud_fusion")
    ...
    world.launch()          # spawn executor threads
    world.run(for_ns=80 * SEC)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .sim.kernel import SimKernel
from .sim.scheduler import DEFAULT_TIMESLICE, Scheduler
from .tracing.symbols import ProbeContext, SymbolTable

#: Default one-way DDS delivery latency (intra-host CycloneDDS is in the
#: tens-of-microseconds range for point-cloud-sized payloads).
DEFAULT_DDS_LATENCY_NS = 50_000


class World:
    """A simulated machine hosting ROS2 applications.

    Parameters
    ----------
    num_cpus:
        CPUs of the machine (the paper's testbed is a 12-core Ryzen; the
        evaluation configs pick smaller affinity sets to create
        interference).
    seed:
        Seed for the world-wide random generator.
    timeslice:
        Round-robin quantum of the scheduler.
    dds_latency_ns:
        Constant one-way topic delivery latency.
    start_time_ns / first_pid:
        Clock and PID bases.  Successive runs of a multi-run experiment
        use disjoint bases so their traces can be merged into one stream
        (Fig. 2's "merge traces" strategy) exactly as successive runs on
        a real machine -- whose uptime clock and PID counter both keep
        advancing -- can.
    sched_policy:
        Scheduling policy name (``"priority"``, ``"psjf"``, ``"edf"``,
        ``"cfs"``) or a :class:`~repro.sim.policies.SchedulingPolicy`
        instance.  None keeps the scheduler's default priority/RR
        policy -- and keeps ``scheduler_cls`` injection working for
        substrate classes that predate the policy parameter.
    kernel_cls / scheduler_cls:
        Substrate implementations (defaults: the production kernel and
        scheduler).  The perf harness injects the frozen
        :mod:`repro._legacy` classes here to A/B-measure the hot-loop
        optimizations on otherwise identical machines.
    """

    def __init__(
        self,
        num_cpus: int = 4,
        seed: int = 0,
        timeslice: int = DEFAULT_TIMESLICE,
        dds_latency_ns: int = DEFAULT_DDS_LATENCY_NS,
        start_time_ns: int = 0,
        first_pid: int = 1,
        sched_policy=None,
        kernel_cls: type = SimKernel,
        scheduler_cls: type = Scheduler,
    ):
        self.kernel = kernel_cls(start=start_time_ns)
        sched_kwargs = {} if sched_policy is None else {"policy": sched_policy}
        self.scheduler = scheduler_cls(
            self.kernel,
            num_cpus=num_cpus,
            timeslice=timeslice,
            first_pid=first_pid,
            **sched_kwargs,
        )
        self.rng = np.random.default_rng(seed)
        self._ctx_cache: Optional[ProbeContext] = None
        self.symbols = SymbolTable(self._probe_context)
        #: Kernel tracepoints exposed to the BPF layer.
        self.tracepoints: Dict[str, Callable] = {
            "sched:sched_switch": self.scheduler.on_sched_switch,
            "sched:sched_wakeup": self.scheduler.on_sched_wakeup,
        }
        # DDS bus (import here to avoid a package cycle at import time).
        from .ros2.dds import DdsBus

        self.dds = DdsBus(self, latency_ns=dds_latency_ns)
        #: Nodes registered on this world (populated by Node.__init__).
        self.nodes: List = []
        self._launched = False

    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.kernel.now

    def _probe_context(self) -> ProbeContext:
        # Hot loop (once per probe firing): read the scheduler/kernel
        # internals directly instead of through their properties, and
        # build the context via tuple.__new__ (skips the NamedTuple
        # keyword wrapper).  The last context is cached: a dispatch
        # typically fires several probes at one (instant, thread) --
        # entry, inner take, DDS write -- and contexts are immutable, so
        # re-serving one whose every field still matches is exact.
        thread = self.scheduler._advancing
        now = self.kernel._now
        ctx = self._ctx_cache
        if thread is None:
            # Fired from interrupt/kernel context (e.g. an external
            # publisher): no current task.
            if ctx is not None and ctx[1] == 0 and ctx[0] == now:
                return ctx
            ctx = tuple.__new__(ProbeContext, (now, 0, None, ""))
        else:
            if (
                ctx is not None
                and ctx[0] == now
                and ctx[1] == thread.pid
                and ctx[2] == thread.cpu
            ):
                return ctx
            ctx = tuple.__new__(
                ProbeContext, (now, thread.pid, thread.cpu, thread.name)
            )
        self._ctx_cache = ctx
        return ctx

    # ------------------------------------------------------------------

    def launch(self, start: int = 0) -> None:
        """Spawn one executor thread per registered node.

        Node threads start at ``start`` (plus each node's configured
        extra delay) and immediately announce themselves through
        ``rmw_create_node`` -- the event the ROS2-INIT tracer records.
        """
        if self._launched:
            raise RuntimeError("world already launched")
        self._launched = True
        for node in self.nodes:
            node._spawn(start)

    def run(self, for_ns: Optional[int] = None, until: Optional[int] = None) -> None:
        """Advance simulated time.

        Exactly one of ``for_ns`` / ``until`` must be given.
        """
        if (for_ns is None) == (until is None):
            raise ValueError("specify exactly one of for_ns / until")
        target = self.kernel.now + for_ns if for_ns is not None else until
        self.kernel.run(until=target)

    def close(self) -> None:
        """Tear a finished world down, so that reference counting alone
        frees it once the caller drops it.

        Nodes, executors, DDS endpoints, threads, timers and callback
        closures reference each other and the world, so a finished
        world would otherwise wait for a cyclic garbage collection.
        Every thread's activity is closed (its generator frame let go),
        then the hubs every cycle passes through -- the world, its
        kernel, scheduler, DDS bus and topics, symbol table, threads,
        nodes, executors and the nodes' entities -- drop their
        attributes.  The world can neither run nor be inspected
        afterwards."""
        scheduler = self.scheduler
        threads = list(scheduler._threads.values())
        for thread in threads:
            thread.activity.close()
        hubs = [self, self.kernel, scheduler, self.dds, self.symbols, *threads]
        hubs.extend(self.dds.topics.values())
        for node in self.nodes:
            hubs += (node, node.executor, node.executor._api)
            for entities in (
                node.timers, node.subscriptions, node.services,
                node.clients, node.publishers, node.synchronizers,
            ):
                hubs += entities
        for hub in hubs:
            vars(hub).clear()

    def fresh_rng(self, salt: int) -> np.random.Generator:
        """Derive an independent generator (stable across runs)."""
        return np.random.default_rng(np.random.SeedSequence([salt]))
