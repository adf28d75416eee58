"""ROS2 nodes.

A node groups callbacks (timers, subscriptions, services, clients) and a
single-threaded executor that dispatches them one at a time from start to
end -- the executor model assumed by the paper (Sec. II-A) and by the
analyses it feeds, e.g. Casini et al. [1].

Each node runs on exactly one OS thread whose PID identifies it in every
trace event; the mapping from node name to PID is announced by
``rmw_create_node`` (probe P1) when the executor thread boots.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ..sim.threads import SchedPolicy, ThreadSchedParams
from .client import Client
from .dds import DdsWriter, Msg
from .executor import SingleThreadedExecutor
from .message_filters import TimeSynchronizer
from .qos import DEFAULT_QOS, QoSProfile
from .service import Service
from .subscription import Subscription
from .timer import Timer

#: Middleware functions that live in the simulated shared objects and are
#: therefore probeable.  One entry per distinct symbol of Table I
#: (entry/exit variants attach to the same symbol).
ROS2_SYMBOLS = (
    ("rmw_cyclonedds_cpp", "rmw_create_node"),
    ("rmw_cyclonedds_cpp", "rmw_take_int"),
    ("rmw_cyclonedds_cpp", "rmw_take_request"),
    ("rmw_cyclonedds_cpp", "rmw_take_response"),
    ("rclcpp", "execute_timer"),
    ("rclcpp", "execute_subscription"),
    ("rclcpp", "execute_service"),
    ("rclcpp", "execute_client"),
    ("rclcpp", "take_type_erased_response"),
    ("rcl", "rcl_timer_call"),
    ("message_filters", "operator()"),
)


def register_ros2_symbols(world) -> None:
    """Load the middleware "shared objects" into the world's symbol table."""
    for lib, func in ROS2_SYMBOLS:
        world.symbols.register(lib, func)


class Publisher:
    """Thin rclcpp-style publisher over a DDS writer."""

    def __init__(self, node: "Node", topic: str):
        self.node = node
        self.topic = topic
        self.writer: DdsWriter = node.world.dds.create_writer(topic, kind="data")

    def publish(self, msg: Any = None) -> int:
        """Publish ``msg`` (default: a stamped empty message); returns the
        DDS source timestamp."""
        if msg is None:
            msg = Msg(stamp=self.node.world.now)
        return self.node.world.dds.write(self.writer, msg)


class Node:
    """A ROS2 node: callbacks plus one single-threaded executor.

    Parameters
    ----------
    world:
        The machine this node runs on.
    name:
        Node name (unique per world).
    priority / policy / affinity:
        Scheduling configuration of the executor thread.
    start_delay_ns:
        Extra boot delay relative to ``World.launch``.
    sched_params:
        Optional :class:`~repro.sim.threads.ThreadSchedParams` for the
        executor thread, consumed by the pluggable scheduling policies
        (deadline / expected job length / CFS weight).
    """

    def __init__(
        self,
        world,
        name: str,
        priority: int = 0,
        policy: SchedPolicy = SchedPolicy.OTHER,
        affinity: Optional[Sequence[int]] = None,
        start_delay_ns: int = 0,
        sched_params: Optional[ThreadSchedParams] = None,
    ):
        if any(n.name == name for n in world.nodes):
            raise ValueError(f"duplicate node name {name!r}")
        self.world = world
        self.name = name
        self.priority = priority
        self.policy = policy
        self.affinity = list(affinity) if affinity is not None else None
        self.start_delay_ns = start_delay_ns
        self.sched_params = sched_params
        self.timers: List[Timer] = []
        self.subscriptions: List[Subscription] = []
        self.services: List[Service] = []
        self.clients: List[Client] = []
        self.publishers: List[Publisher] = []
        self.synchronizers: List[TimeSynchronizer] = []
        self.executor = SingleThreadedExecutor(self)
        self.pid: Optional[int] = None
        self._thread = None
        self._cb_counter = 0
        register_ros2_symbols(world)
        world.nodes.append(self)

    # -- factory methods ----------------------------------------------------

    def create_publisher(self, topic: str) -> Publisher:
        publisher = Publisher(self, topic)
        self.publishers.append(publisher)
        return publisher

    def create_timer(
        self,
        period_ns: int,
        callback: Callable,
        label: Optional[str] = None,
        phase_ns: int = 0,
    ) -> Timer:
        timer = Timer(
            self, period_ns, callback, cb_id=self._make_cb_id(label, "timer"), phase_ns=phase_ns
        )
        self.timers.append(timer)
        return timer

    def create_subscription(
        self,
        topic: str,
        callback: Optional[Callable] = None,
        qos: QoSProfile = DEFAULT_QOS,
        label: Optional[str] = None,
    ) -> Subscription:
        subscription = Subscription(
            self, topic, callback, cb_id=self._make_cb_id(label, "sub"), qos=qos
        )
        self.subscriptions.append(subscription)
        return subscription

    def create_service(
        self,
        name: str,
        handler: Callable,
        qos: QoSProfile = DEFAULT_QOS,
        label: Optional[str] = None,
    ) -> Service:
        service = Service(
            self, name, handler, cb_id=self._make_cb_id(label, "srv"), qos=qos
        )
        self.services.append(service)
        return service

    def create_client(
        self,
        service_name: str,
        callback: Optional[Callable] = None,
        qos: QoSProfile = DEFAULT_QOS,
        label: Optional[str] = None,
    ) -> Client:
        client = Client(
            self, service_name, callback, cb_id=self._make_cb_id(label, "cli"), qos=qos
        )
        self.clients.append(client)
        return client

    def create_synchronizer(
        self,
        subscriptions: Sequence[Subscription],
        callback: Callable,
        slop_ns: int = 0,
        queue_size: int = 10,
        per_input_work=None,
    ) -> TimeSynchronizer:
        synchronizer = TimeSynchronizer(
            subscriptions,
            callback,
            queue_size=queue_size,
            slop_ns=slop_ns,
            per_input_work=per_input_work,
        )
        self.synchronizers.append(synchronizer)
        return synchronizer

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, start: int) -> None:
        """Create the executor thread (called by ``World.launch``)."""
        self._thread = self.world.scheduler.spawn(
            self.executor.activity(),
            priority=self.priority,
            policy=self.policy,
            affinity=self.affinity,
            name=self.name,
            start=start + self.start_delay_ns,
            sched_params=self.sched_params,
        )
        self.pid = self._thread.pid

    def _on_data(self, reader) -> None:
        """DDS listener: new sample for one of this node's readers."""
        self.executor.notify()

    def _rmw_create_node(self, node: "Node") -> None:
        """``rmw_create_node`` body; probed as P1."""
        return None

    def _make_cb_id(self, label: Optional[str], kind: str) -> str:
        if label is not None:
            return label
        self._cb_counter += 1
        return f"{self.name}/{kind}{self._cb_counter}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.name!r}, pid={self.pid})"
