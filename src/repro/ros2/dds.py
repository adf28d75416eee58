"""Simulated DDS layer (Eclipse CycloneDDS stand-in).

All ROS2 communication -- topics, service requests and service responses
-- flows through this bus, mirroring the layered architecture described
in Sec. II-A.  The single choke point is ``dds_write_impl``, the function
the paper probes as **P16**: every write is dispatched through the
middleware symbol table so an attached uprobe observes the writer's topic
name, the payload kind (data / service request / service response) and
the source timestamp.

Delivery is asynchronous: samples arrive at reader queues after the
configured one-way latency, then the reader's listener (the owning
node's executor) is notified.  Reader queues honour ``KEEP_LAST`` QoS
depth with oldest-drop semantics.

Hot-loop engineering (the traces it yields are pinned by the committed
digests in ``tests/data/golden_digests.json``):

* one write schedules *one* kernel event regardless of reader count.
  The pre-overhaul bus scheduled one event -- and allocated one
  ``functools.partial`` closure -- per (writer, reader) pair.  All
  deliveries of a write happen at the same instant with consecutive
  sequence numbers and no other event can interleave between them
  (every kernel event in the production stack runs at priority 0, and
  anything scheduled during the fanout gets a larger sequence number
  either way), so collapsing them into one event that fans out over the
  reader list in order is observationally identical: sequence numbers
  are not traced;
* reader queues are ``deque(maxlen=depth)`` rings: the oldest-drop on
  overflow happens inside the C ring instead of an explicit
  length-check + ``popleft``.  The ``dropped`` counter is maintained by
  checking fullness *before* the append, which is equivalent because
  the length never exceeds ``maxlen``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional

from .qos import DEFAULT_QOS, QoSProfile

#: Symbol name of the probed write function (Table I, P16).
DDS_WRITE_SYMBOL = "cyclonedds:dds_write_impl"


@dataclass
class Msg:
    """A ROS2 message.

    ``stamp`` models the ``header.stamp`` field used by ``message_filters``
    to synchronize sensor data; ``data`` is an opaque payload.
    """

    stamp: Optional[int] = None
    data: Any = None


class Sample(NamedTuple):
    """A sample as it travels on the wire (one built per write: a
    ``NamedTuple`` keeps hot-loop construction cheap)."""

    payload: Any
    src_ts: int
    kind: str  # "data" | "request" | "response"
    writer_pid: int


class DdsReader:
    """A DataReader bound to one topic, with a bounded KEEP_LAST queue."""

    def __init__(
        self,
        topic: "DdsTopic",
        qos: QoSProfile,
        listener: Callable[["DdsReader"], None],
        kind: str = "data",
    ):
        self.topic = topic
        self.qos = qos
        self.listener = listener
        self.kind = kind
        # KEEP_LAST ring: the deque's maxlen drops the oldest sample on
        # overflow at C level (QoS depth is always >= 1).
        self.queue: Deque[Sample] = deque(maxlen=qos.depth)
        self._depth = qos.depth
        self.dropped = 0
        self.received = 0

    @property
    def has_data(self) -> bool:
        return bool(self.queue)

    def deliver(self, sample: Sample) -> None:
        self.received += 1
        queue = self.queue
        if len(queue) == self._depth:  # full: the append evicts the oldest
            self.dropped += 1
        queue.append(sample)
        self.listener(self)

    def take(self) -> Sample:
        if not self.queue:
            raise RuntimeError(f"take() on empty reader for {self.topic.name!r}")
        return self.queue.popleft()


def _deliver_fanout(readers: tuple, sample: Sample) -> None:
    """Deliver one write to every reader of a multi-reader topic.

    Module-level (not a closure) so the batched write path allocates
    nothing beyond the reader-snapshot tuple.
    """
    for reader in readers:
        reader.deliver(sample)


class DdsWriter:
    """A DataWriter bound to one topic."""

    def __init__(self, bus: "DdsBus", topic: "DdsTopic", kind: str = "data"):
        self.bus = bus
        self.topic = topic
        self.kind = kind
        self.written = 0


class DdsTopic:
    """A named topic connecting writers to readers."""

    def __init__(self, name: str):
        self.name = name
        self.readers: List[DdsReader] = []
        self.writers: List[DdsWriter] = []


class DdsBus:
    """The machine-wide DDS domain."""

    def __init__(self, world, latency_ns: int = 50_000):
        if latency_ns < 0:
            raise ValueError("latency must be >= 0")
        self.world = world
        self.latency_ns = latency_ns
        self.topics: Dict[str, DdsTopic] = {}
        self.total_writes = 0
        # The probeable symbol of this "shared object".  Cached: write()
        # inlines the probe trampoline around _dds_write_impl, checking
        # the (live, mutated-in-place) probe lists directly instead of
        # routing through SymbolTable.call's frame + name lookup.
        self._write_symbol = world.symbols.register("cyclonedds", "dds_write_impl")

    def topic(self, name: str) -> DdsTopic:
        top = self.topics.get(name)
        if top is None:
            top = DdsTopic(name)
            self.topics[name] = top
        return top

    def create_writer(self, topic_name: str, kind: str = "data") -> DdsWriter:
        topic = self.topic(topic_name)
        writer = DdsWriter(self, topic, kind=kind)
        topic.writers.append(writer)
        return writer

    def create_reader(
        self,
        topic_name: str,
        listener: Callable[[DdsReader], None],
        qos: QoSProfile = DEFAULT_QOS,
        kind: str = "data",
    ) -> DdsReader:
        topic = self.topic(topic_name)
        reader = DdsReader(topic, qos, listener, kind=kind)
        topic.readers.append(reader)
        return reader

    # ------------------------------------------------------------------

    def write(self, writer: DdsWriter, payload: Any) -> int:
        """Publish ``payload`` through the probed ``dds_write_impl``.

        Returns the source timestamp stamped on the sample.  The call is
        routed through the symbol table so an attached P16 uprobe can
        read the writer's topic, kind and the source timestamp from the
        function arguments -- the same struct traversal the paper's
        eBPF program performs.
        """
        world = self.world
        src_ts = world.kernel._now
        # Inlined SymbolTable.call (one write per traced message makes
        # the frame + name lookup measurable): same contract -- one
        # context serves entry and exit, probes fire around the body.
        symbol = self._write_symbol
        entry = symbol.entry_probes
        exits = symbol.exit_probes
        if entry or exits:
            args = (writer, payload, src_ts)
            ctx = world._probe_context()
            for probe in entry:
                probe(ctx, args)
            result = self._dds_write_impl(writer, payload, src_ts)
            for probe in exits:
                probe(ctx, args, result)
        else:
            self._dds_write_impl(writer, payload, src_ts)
        return src_ts

    def _dds_write_impl(self, writer: DdsWriter, payload: Any, src_ts: int) -> None:
        writer.written += 1
        self.total_writes += 1
        thread = self.world.scheduler._advancing
        sample = tuple.__new__(
            Sample,
            (payload, src_ts, writer.kind, thread.pid if thread is not None else 0),
        )
        readers = writer.topic.readers
        if not readers:
            return
        # One kernel event per write (see module docstring for why this
        # is observationally identical to one event per reader).  The
        # single-reader topic -- the overwhelmingly common case -- posts
        # the delivery directly; fanout snapshots the reader list so a
        # reader created between write and delivery is not included.
        if len(readers) == 1:
            self.world.kernel.post_after(self.latency_ns, readers[0].deliver, (sample,))
        else:
            self.world.kernel.post_after(
                self.latency_ns, _deliver_fanout, (tuple(readers), sample)
            )
