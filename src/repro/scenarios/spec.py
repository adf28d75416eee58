"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes a complete ROS2 application -- nodes,
timers, subscriptions, services, clients, data synchronizers, external
(untraced) publishers, workload models and scheduling configuration --
as plain data.  From one spec the subsystem derives, without running
anything:

* a ready-to-trace application on a fresh :class:`~repro.world.World`
  (:meth:`ScenarioSpec.build`),
* the exact set of vertex keys and precedence edges the DAG synthesis
  must recover (:meth:`ScenarioSpec.expected_vertex_keys` /
  :meth:`ScenarioSpec.expected_edge_pairs`), following the Sec. IV
  rules: one service vertex per caller, an ``AND`` junction per
  synchronization group, ``OR`` marking for multi-publisher topics.

That second capability is what makes every registered scenario testable
against ground truth: the declared topology *is* the oracle.

Construction order is deliberately deterministic (nodes, then services,
timers, subscriptions, clients, synchronizers, external publishers, each
in declared order) so that a spec builds the same application -- same
PIDs, same executor polling order, same DDS reader order -- on every
run and in every worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ros2 import ExternalPublisher, Msg, Node
from ..ros2.service import request_topic
from ..sim.policies import POLICY_NAMES
from ..sim.threads import SchedPolicy, ThreadSchedParams
from ..sim.workload import WorkloadModel, ms

#: Default first-tick phase: after the runtime tracers attach (the
#: experiment runner's warmup is 2 ms).
DEFAULT_TIMER_PHASE_NS = ms(5)


class ScenarioError(ValueError):
    """The spec violates a scenario invariant (dangling reference,
    duplicate label, dead callback, ...)."""


@dataclass(frozen=True)
class NodeSpec:
    """One ROS2 node and the scheduling setup of its executor thread.

    ``deadline_ns`` / ``weight`` pin the per-thread parameters consumed
    by the pluggable scheduling policies (EDF relative deadline, CFS
    load weight); left None, :meth:`ScenarioSpec.build` derives a
    deadline from the node's driving timer period and lets the policy
    derive the weight from the priority.
    """

    name: str
    affinity: Optional[Tuple[int, ...]] = None
    priority: int = 0
    policy: SchedPolicy = SchedPolicy.OTHER
    start_delay_ns: int = 0
    deadline_ns: Optional[int] = None
    weight: Optional[int] = None


@dataclass(frozen=True)
class TimerSpec:
    """A timer callback: work, then publish / call."""

    node: str
    label: str
    period_ns: int
    work: WorkloadModel
    publishes: Tuple[str, ...] = ()
    calls: Optional[str] = None  # client label invoked after the work
    phase_ns: int = DEFAULT_TIMER_PHASE_NS


@dataclass(frozen=True)
class SubscriptionSpec:
    """A subscriber callback: work, then publish / call.

    ``propagate_stamp`` republishes the incoming ``header.stamp`` (the
    sensor-pipeline convention, e.g. AVP's filter nodes); otherwise
    outputs are stamped with the publication time.
    """

    node: str
    label: str
    topic: str
    work: WorkloadModel
    publishes: Tuple[str, ...] = ()
    calls: Optional[str] = None
    propagate_stamp: bool = True


@dataclass(frozen=True)
class ServiceSpec:
    """A service handler: work, then reply to the caller."""

    node: str
    label: str
    service: str
    work: WorkloadModel


@dataclass(frozen=True)
class ClientSpec:
    """A client-response callback: work, then publish / chained call."""

    node: str
    label: str
    service: str
    work: WorkloadModel
    publishes: Tuple[str, ...] = ()
    calls: Optional[str] = None


@dataclass(frozen=True)
class SyncInputSpec:
    """One member subscription of a data-synchronization group."""

    label: str
    topic: str
    work: Optional[WorkloadModel] = None  # per-input deserialization cost


@dataclass(frozen=True)
class SynchronizerSpec:
    """A data-synchronization group (message_filters-style AND join).

    The fusion work runs inline in whichever member completes the
    matched set; ``stamp`` selects the output stamp policy: ``"min"``
    keeps the oldest member stamp (sensor pipelines), ``"now"`` stamps
    with the fusion time.
    """

    node: str
    inputs: Tuple[SyncInputSpec, ...]
    publishes: Tuple[str, ...] = ()
    work: Optional[WorkloadModel] = None
    slop_ns: int = 0
    queue_size: int = 10
    stamp: str = "min"  # "min" | "now"


@dataclass(frozen=True)
class ExternalPublisherSpec:
    """An untraced feed (sensor / replay tool) driving the application."""

    topic: str
    period_ns: int
    phase_ns: int = 0
    jitter_ns: int = 0


@dataclass
class ScenarioApp:
    """Handles to a built scenario application."""

    spec: "ScenarioSpec"
    nodes: List[Node]
    node_by_name: Dict[str, Node]
    externals: List[ExternalPublisher]

    @property
    def pids(self) -> List[int]:
        """PIDs to synthesize over (honours ``spec.trace_nodes``)."""
        traced = self.spec.traced_node_names()
        return [n.pid for n in self.nodes if n.name in traced]

    @property
    def all_pids(self) -> List[int]:
        return [n.pid for n in self.nodes]

    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative scenario definition."""

    name: str
    description: str
    nodes: Tuple[NodeSpec, ...]
    services: Tuple[ServiceSpec, ...] = ()
    timers: Tuple[TimerSpec, ...] = ()
    subscriptions: Tuple[SubscriptionSpec, ...] = ()
    clients: Tuple[ClientSpec, ...] = ()
    synchronizers: Tuple[SynchronizerSpec, ...] = ()
    external_publishers: Tuple[ExternalPublisherSpec, ...] = ()
    #: Machine size the scenario is designed for.
    num_cpus: int = 4
    #: Default per-run simulated duration.
    duration_ns: int = 10_000_000_000
    #: Subset of node names the synthesis should model (None: all).
    trace_nodes: Optional[Tuple[str, ...]] = None
    #: Scheduling policy the scenario runs under (a
    #: :data:`repro.sim.policies.POLICY_NAMES` entry).  Ground-truth
    #: derivation is policy-independent -- the topology, and therefore
    #: the expected DAG, never changes with the policy; only the
    #: interleaving (and hence execution times / latencies) does.
    policy: str = "priority"

    # ------------------------------------------------------------------
    # introspection

    def node_names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def traced_node_names(self) -> Tuple[str, ...]:
        return self.trace_nodes if self.trace_nodes is not None else self.node_names()

    def callback_labels(self) -> Tuple[str, ...]:
        """Every callback label, in declaration order."""
        labels: List[str] = [s.label for s in self.services]
        labels += [t.label for t in self.timers]
        labels += [s.label for s in self.subscriptions]
        labels += [c.label for c in self.clients]
        for sync in self.synchronizers:
            labels += [i.label for i in sync.inputs]
        return tuple(labels)

    def _callers(self) -> Dict[str, object]:
        """client label -> the (timer/sub/client) spec that calls it."""
        callers: Dict[str, object] = {}
        for spec in (*self.timers, *self.subscriptions, *self.clients):
            if spec.calls is not None:
                if spec.calls in callers:
                    raise ScenarioError(
                        f"{self.name}: client {spec.calls!r} invoked from more "
                        f"than one callback (a client has one response CB per "
                        f"caller; declare one client per caller)"
                    )
                callers[spec.calls] = spec
        return callers

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ScenarioError(
                f"{self.name}: unknown scheduling policy {self.policy!r}; "
                f"expected one of {', '.join(POLICY_NAMES)}"
            )
        names = [n.name for n in self.nodes]
        if not names:
            raise ScenarioError(f"{self.name}: scenario needs at least one node")
        if len(set(names)) != len(names):
            raise ScenarioError(f"{self.name}: duplicate node names")
        known = set(names)

        labels = self.callback_labels()
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ScenarioError(f"{self.name}: duplicate callback labels {dupes}")

        for spec in (*self.services, *self.timers, *self.subscriptions,
                     *self.clients, *self.synchronizers):
            if spec.node not in known:
                raise ScenarioError(
                    f"{self.name}: component references unknown node {spec.node!r}"
                )

        service_names = [sv.service for sv in self.services]
        if len(set(service_names)) != len(service_names):
            raise ScenarioError(f"{self.name}: duplicate service names")
        services_by_name = {sv.service: sv for sv in self.services}
        client_labels = {c.label for c in self.clients}
        for client in self.clients:
            if client.service not in services_by_name:
                raise ScenarioError(
                    f"{self.name}: client {client.label!r} targets unknown "
                    f"service {client.service!r}"
                )

        callers = self._callers()
        for caller_label, spec in ((lbl, s) for lbl, s in callers.items()):
            if caller_label not in client_labels:
                raise ScenarioError(
                    f"{self.name}: {spec.label!r} calls unknown client "
                    f"{caller_label!r}"
                )
        for client in self.clients:
            if client.label not in callers:
                raise ScenarioError(
                    f"{self.name}: client {client.label!r} is never called "
                    f"(its response callback would be dead)"
                )

        sync_nodes = [sync.node for sync in self.synchronizers]
        if len(set(sync_nodes)) != len(sync_nodes):
            raise ScenarioError(
                f"{self.name}: at most one synchronizer per node (the DAG "
                f"synthesis joins all sync members of a node in one junction)"
            )
        for sync in self.synchronizers:
            if len(sync.inputs) < 2:
                raise ScenarioError(
                    f"{self.name}: synchronizer on {sync.node!r} needs >= 2 inputs"
                )
            if sync.stamp not in ("min", "now"):
                raise ScenarioError(
                    f"{self.name}: synchronizer stamp policy must be 'min' or "
                    f"'now', got {sync.stamp!r}"
                )

        published = {t for spec in (*self.timers, *self.subscriptions, *self.clients)
                     for t in spec.publishes}
        published |= {t for sync in self.synchronizers for t in sync.publishes}
        published |= {e.topic for e in self.external_publishers}
        for sub in self.subscriptions:
            if sub.topic not in published:
                raise ScenarioError(
                    f"{self.name}: subscription {sub.label!r} listens on "
                    f"{sub.topic!r} which nothing publishes"
                )
        for sync in self.synchronizers:
            for member in sync.inputs:
                if member.topic not in published:
                    raise ScenarioError(
                        f"{self.name}: sync input {member.label!r} listens on "
                        f"{member.topic!r} which nothing publishes"
                    )

        if self.trace_nodes is not None:
            unknown = set(self.trace_nodes) - known
            if unknown:
                raise ScenarioError(
                    f"{self.name}: trace_nodes references unknown nodes "
                    f"{sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    # ground truth (the Sec. IV synthesis rules, applied to the spec)

    def _service_replicas(self) -> Dict[str, List[Tuple[str, str]]]:
        """service label -> [(replica vertex key, caller label)]."""
        callers = self._callers()
        services_by_name = {sv.service: sv for sv in self.services}
        replicas: Dict[str, List[Tuple[str, str]]] = {sv.label: [] for sv in self.services}
        for client in self.clients:
            caller = callers[client.label]
            sv = services_by_name[client.service]
            key = (
                f"{sv.node}/{sv.label}@"
                f"{request_topic(sv.service)}#{caller.label}"
            )
            replicas[sv.label].append((key, caller.label))
        return replicas

    def _junction_key(self, node: str) -> str:
        return f"{node}/&"

    def expected_vertex_keys(self) -> Set[str]:
        """Exact vertex-key set the synthesized DAG must contain."""
        traced = set(self.traced_node_names())
        keys: Set[str] = set()
        for spec in (*self.timers, *self.subscriptions, *self.clients):
            if spec.node in traced:
                keys.add(f"{spec.node}/{spec.label}")
        for sync in self.synchronizers:
            if sync.node in traced:
                keys.update(f"{sync.node}/{member.label}" for member in sync.inputs)
                keys.add(self._junction_key(sync.node))
        for sv in self.services:
            if sv.node in traced:
                keys.update(key for key, _ in self._service_replicas()[sv.label])
        return keys

    def expected_edge_pairs(self) -> Set[Tuple[str, str]]:
        """Exact (src key, dst key) edge set of the synthesized DAG."""
        traced = set(self.traced_node_names())

        # topic -> emitting vertex keys (sync members emit through their
        # AND junction, rule 4).
        emitters: Dict[str, List[str]] = {}
        for spec in (*self.timers, *self.subscriptions, *self.clients):
            for topic in spec.publishes:
                emitters.setdefault(topic, []).append(f"{spec.node}/{spec.label}")
        for sync in self.synchronizers:
            for topic in sync.publishes:
                emitters.setdefault(topic, []).append(self._junction_key(sync.node))

        edges: Set[Tuple[str, str]] = set()
        for sub in self.subscriptions:
            dst = f"{sub.node}/{sub.label}"
            for src in emitters.get(sub.topic, ()):
                src_node = src.split("/")[0]
                if sub.node in traced and src_node in traced:
                    edges.add((src, dst))
        for sync in self.synchronizers:
            jkey = self._junction_key(sync.node)
            for member in sync.inputs:
                mkey = f"{sync.node}/{member.label}"
                for src in emitters.get(member.topic, ()):
                    src_node = src.split("/")[0]
                    if sync.node in traced and src_node in traced:
                        edges.add((src, mkey))
                if sync.node in traced:
                    edges.add((mkey, jkey))

        # service call chains: caller -> per-caller service replica ->
        # client response CB (rule 1).
        callers = self._callers()
        services_by_name = {sv.service: sv for sv in self.services}
        for client in self.clients:
            caller = callers[client.label]
            sv = services_by_name[client.service]
            caller_key = f"{caller.node}/{caller.label}"
            sv_key = (
                f"{sv.node}/{sv.label}@{request_topic(sv.service)}#{caller.label}"
            )
            client_key = f"{client.node}/{client.label}"
            if caller.node in traced and sv.node in traced:
                edges.add((caller_key, sv_key))
            if sv.node in traced and client.node in traced:
                edges.add((sv_key, client_key))
        return edges

    def expected_or_junctions(self) -> Set[str]:
        """Vertex keys that must carry the ``OR`` marking (rule 3).

        Synchronizer members subscribe like any other callback, so a
        multi-publisher topic feeding a sync input marks that member
        vertex too.
        """
        emitters: Dict[str, Set[str]] = {}
        for spec in (*self.timers, *self.subscriptions, *self.clients):
            for topic in spec.publishes:
                emitters.setdefault(topic, set()).add(f"{spec.node}/{spec.label}")
        for sync in self.synchronizers:
            for topic in sync.publishes:
                emitters.setdefault(topic, set()).add(self._junction_key(sync.node))
        traced = set(self.traced_node_names())
        marked: Set[str] = set()
        listeners = [(sub.node, sub.label, sub.topic) for sub in self.subscriptions]
        listeners += [
            (sync.node, member.label, member.topic)
            for sync in self.synchronizers
            for member in sync.inputs
        ]
        for node, label, topic in listeners:
            if node in traced and len(emitters.get(topic, ())) > 1:
                marked.add(f"{node}/{label}")
        return marked

    # ------------------------------------------------------------------
    # construction

    def derived_sched_params(self, node_name: str) -> ThreadSchedParams:
        """Per-thread parameters for ``node_name``'s executor thread.

        The EDF relative deadline is the node's smallest driving timer
        period (a periodic chain stage must finish before its next
        input), falling back to the scenario's smallest period anywhere
        (downstream nodes inherit the pipeline rate), then to the run
        duration.  The PSJF seed estimate is the largest known mean
        work of the node's callbacks.  Explicit ``NodeSpec`` overrides
        win.
        """
        node = next(n for n in self.nodes if n.name == node_name)
        deadline = node.deadline_ns
        if deadline is None:
            own = [t.period_ns for t in self.timers if t.node == node_name]
            everywhere = [t.period_ns for t in self.timers]
            everywhere += [e.period_ns for e in self.external_publishers]
            if own:
                deadline = min(own)
            elif everywhere:
                deadline = min(everywhere)
            else:
                deadline = self.duration_ns
        expected: Optional[int] = None
        for spec in (*self.services, *self.timers, *self.subscriptions, *self.clients):
            if spec.node != node_name:
                continue
            lo, hi = spec.work.bounds()
            if lo is not None and hi is not None:
                mid = (lo + hi) // 2
                if expected is None or mid > expected:
                    expected = mid
        return ThreadSchedParams(
            deadline_ns=deadline, expected_ns=expected, weight=node.weight
        )

    def build(self, world) -> ScenarioApp:
        """Instantiate the scenario on ``world`` (deterministic order)."""
        self.validate()
        node_by_name: Dict[str, Node] = {}
        for ns in self.nodes:
            # A spec declared under "priority" gives its threads no
            # params, so a world running another policy schedules them
            # with that policy's defaults: the runs the golden digests
            # pin (every registry spec, under every world policy).
            params = (
                self.derived_sched_params(ns.name)
                if self.policy != "priority"
                else None
            )
            node_by_name[ns.name] = Node(
                world,
                ns.name,
                priority=ns.priority,
                policy=ns.policy,
                affinity=list(ns.affinity) if ns.affinity is not None else None,
                start_delay_ns=ns.start_delay_ns,
                sched_params=params,
            )
        # Late-binding client registry: callbacks resolve the client at
        # call time, so declaration order never constrains call graphs.
        clients_by_label: Dict[str, object] = {}

        for sv in self.services:
            node_by_name[sv.node].create_service(
                sv.service, _service_handler(sv.work), label=sv.label
            )
        for t in self.timers:
            node = node_by_name[t.node]
            pubs = [node.create_publisher(topic) for topic in t.publishes]
            node.create_timer(
                t.period_ns,
                _emitter_callback(t.work, pubs, t.calls, clients_by_label, "now"),
                label=t.label,
                phase_ns=t.phase_ns,
            )
        for s in self.subscriptions:
            node = node_by_name[s.node]
            pubs = [node.create_publisher(topic) for topic in s.publishes]
            stamp = "propagate" if s.propagate_stamp else "now"
            node.create_subscription(
                s.topic,
                _emitter_callback(s.work, pubs, s.calls, clients_by_label, stamp),
                label=s.label,
            )
        for c in self.clients:
            node = node_by_name[c.node]
            pubs = [node.create_publisher(topic) for topic in c.publishes]
            clients_by_label[c.label] = node.create_client(
                c.service,
                _emitter_callback(c.work, pubs, c.calls, clients_by_label, "now"),
                label=c.label,
            )
        for sync in self.synchronizers:
            node = node_by_name[sync.node]
            pubs = [node.create_publisher(topic) for topic in sync.publishes]
            members = [
                node.create_subscription(member.topic, label=member.label)
                for member in sync.inputs
            ]
            per_input = {
                member.label: member.work
                for member in sync.inputs
                if member.work is not None
            }
            node.create_synchronizer(
                members,
                _fusion_callback(sync.work, pubs, sync.stamp),
                slop_ns=sync.slop_ns,
                queue_size=sync.queue_size,
                per_input_work=per_input or None,
            )
        externals: List[ExternalPublisher] = []
        for e in self.external_publishers:
            publisher = ExternalPublisher(
                world, e.topic, e.period_ns, phase_ns=e.phase_ns, jitter_ns=e.jitter_ns
            )
            publisher.start()
            externals.append(publisher)
        return ScenarioApp(
            spec=self,
            nodes=[node_by_name[ns.name] for ns in self.nodes],
            node_by_name=node_by_name,
            externals=externals,
        )

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with some top-level fields replaced."""
        return replace(self, **changes)


# ----------------------------------------------------------------------
# callback factories (plain closures so built apps stay picklable-free)


def _service_handler(work: WorkloadModel):
    def handler(api, request):
        yield api.work(work)
        return request

    return handler


def _emitter_callback(work, pubs, calls, clients_by_label, stamp_mode):
    """The generic timer/subscriber/client body: work, publish, call."""

    def callback(api, msg):
        yield api.work(work)
        if pubs:
            stamp = api.now
            if stamp_mode == "propagate" and isinstance(msg, Msg) and msg.stamp is not None:
                stamp = msg.stamp
            for pub in pubs:
                api.publish(pub, Msg(stamp=stamp))
        if calls is not None:
            api.call(clients_by_label[calls], calls)

    return callback


def _fusion_callback(work, pubs, stamp_mode):
    """The fusion body run by the sync member completing a match."""

    def callback(api, msgs):
        if work is not None:
            yield api.work(work)
        stamps = [m.stamp for m in msgs if isinstance(m, Msg) and m.stamp is not None]
        stamp = min(stamps) if (stamp_mode == "min" and stamps) else api.now
        for pub in pubs:
            api.publish(pub, Msg(stamp=stamp))

    return callback


# ----------------------------------------------------------------------


def combine_specs(
    name: str,
    description: str,
    specs: Sequence[ScenarioSpec],
    num_cpus: Optional[int] = None,
    duration_ns: Optional[int] = None,
    trace_nodes: Optional[Sequence[str]] = None,
    policy: Optional[str] = None,
) -> ScenarioSpec:
    """Concatenate scenarios into one machine-wide deployment.

    Used e.g. to co-locate AVP and SYN for the interference study: the
    combined spec builds both applications on one world, in declaration
    order, and ``trace_nodes`` restricts synthesis to one of them.
    """
    if not specs:
        raise ScenarioError("combine_specs needs at least one spec")
    combined = ScenarioSpec(
        name=name,
        description=description,
        nodes=tuple(n for s in specs for n in s.nodes),
        services=tuple(sv for s in specs for sv in s.services),
        timers=tuple(t for s in specs for t in s.timers),
        subscriptions=tuple(sub for s in specs for sub in s.subscriptions),
        clients=tuple(c for s in specs for c in s.clients),
        synchronizers=tuple(sync for s in specs for sync in s.synchronizers),
        external_publishers=tuple(e for s in specs for e in s.external_publishers),
        num_cpus=num_cpus if num_cpus is not None else max(s.num_cpus for s in specs),
        duration_ns=(
            duration_ns if duration_ns is not None
            else max(s.duration_ns for s in specs)
        ),
        trace_nodes=tuple(trace_nodes) if trace_nodes is not None else None,
        policy=policy if policy is not None else specs[0].policy,
    )
    combined.validate()
    return combined
