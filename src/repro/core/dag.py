"""The timing model: a directed acyclic graph of callbacks.

Vertices are callbacks (tasks) annotated with measured timing attributes;
edges are precedence relations induced by topic communication.  Special
vertex roles follow Sec. IV's DAG-synthesis rules:

* a service invoked by *n* callers appears as *n* vertices (one per
  caller), keeping computation chains disjoint;
* an ``AND`` junction (zero execution time) joins the members of a data
  synchronization group;
* a vertex whose subscribed topic has several publishers is marked as an
  ``OR`` junction: any publisher triggers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .stats import ExecStats, estimate_period


class DagValidationError(ValueError):
    """The graph violates a timing-model invariant (cycle, dangling edge,
    duplicate vertex)."""


@dataclass
class DagVertex:
    """A task in the timing model."""

    key: str
    node: str
    cb_id: str
    cb_type: str  # "timer"|"subscriber"|"service"|"client"|"and_junction"
    intopic: Optional[str] = None
    outtopics: List[str] = field(default_factory=list)
    is_sync_member: bool = False
    is_or_junction: bool = False
    exec_times: List[int] = field(default_factory=list)
    start_times: List[int] = field(default_factory=list)
    response_times: List[int] = field(default_factory=list)

    @property
    def is_and_junction(self) -> bool:
        return self.cb_type == "and_junction"

    @property
    def exec_stats(self) -> ExecStats:
        """Measured execution-time summary; AND junctions are zero-time
        tasks by construction."""
        if not self.exec_times:
            return ExecStats.ZERO
        return ExecStats.from_samples(self.exec_times)

    @property
    def period_ns(self) -> Optional[int]:
        return estimate_period(self.start_times)

    def label(self) -> str:
        if self.is_and_junction:
            return f"{self.node}/&"
        return self.cb_id


@dataclass(frozen=True)
class DagEdge:
    """A precedence relation, annotated with the connecting topic."""

    src: str
    dst: str
    topic: str


class TimingDag:
    """The synthesized timing model of one or more applications."""

    def __init__(self) -> None:
        self._vertices: Dict[str, DagVertex] = {}
        self._edges: Dict[Tuple[str, str, str], DagEdge] = {}
        #: for a model merged from pieces whose sample lists concatenate
        #: into its own, each piece's renderer of them as model JSON
        #: (see :func:`~repro.core.export.dag_to_json`).
        self.sample_parts: Tuple[Callable[[Any], Any], ...] = ()

    # -- construction ---------------------------------------------------

    def add_vertex(self, vertex: DagVertex) -> DagVertex:
        if vertex.key in self._vertices:
            raise DagValidationError(f"duplicate vertex key {vertex.key!r}")
        self._vertices[vertex.key] = vertex
        return vertex

    def add_edge(self, src: str, dst: str, topic: str) -> DagEdge:
        if src not in self._vertices:
            raise DagValidationError(f"edge source {src!r} not in DAG")
        if dst not in self._vertices:
            raise DagValidationError(f"edge target {dst!r} not in DAG")
        edge = DagEdge(src=src, dst=dst, topic=topic)
        self._edges[(src, dst, topic)] = edge
        return edge

    # -- access -----------------------------------------------------------

    def vertices(self) -> List[DagVertex]:
        return list(self._vertices.values())

    def edges(self) -> List[DagEdge]:
        return list(self._edges.values())

    def vertex(self, key: str) -> DagVertex:
        return self._vertices[key]

    def has_vertex(self, key: str) -> bool:
        return key in self._vertices

    def has_edge(self, src: str, dst: str, topic: Optional[str] = None) -> bool:
        if topic is not None:
            return (src, dst, topic) in self._edges
        return any(e.src == src and e.dst == dst for e in self._edges.values())

    def find_vertices(
        self,
        cb_id: Optional[str] = None,
        node: Optional[str] = None,
        cb_type: Optional[str] = None,
    ) -> List[DagVertex]:
        """Filter vertices by any combination of id / node / type."""
        result = []
        for vertex in self._vertices.values():
            if cb_id is not None and vertex.cb_id != cb_id:
                continue
            if node is not None and vertex.node != node:
                continue
            if cb_type is not None and vertex.cb_type != cb_type:
                continue
            result.append(vertex)
        return result

    def successors(self, key: str) -> List[DagVertex]:
        return [self._vertices[e.dst] for e in self._edges.values() if e.src == key]

    def predecessors(self, key: str) -> List[DagVertex]:
        return [self._vertices[e.src] for e in self._edges.values() if e.dst == key]

    def sources(self) -> List[DagVertex]:
        """Vertices with no incoming edges (chain heads, e.g. timers)."""
        targets = {e.dst for e in self._edges.values()}
        return [v for k, v in self._vertices.items() if k not in targets]

    def sinks(self) -> List[DagVertex]:
        origins = {e.src for e in self._edges.values()}
        return [v for k, v in self._vertices.items() if k not in origins]

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    # -- invariants -----------------------------------------------------------

    def topological_order(self) -> List[DagVertex]:
        """Kahn's algorithm; raises :class:`DagValidationError` on cycles."""
        indegree = {k: 0 for k in self._vertices}
        for edge in self._edges.values():
            indegree[edge.dst] += 1
        frontier = sorted(k for k, d in indegree.items() if d == 0)
        order: List[str] = []
        while frontier:
            key = frontier.pop(0)
            order.append(key)
            for edge in sorted(
                (e for e in self._edges.values() if e.src == key),
                key=lambda e: e.dst,
            ):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    frontier.append(edge.dst)
            frontier.sort()
        if len(order) != len(self._vertices):
            cyclic = sorted(set(self._vertices) - set(order))
            raise DagValidationError(f"cycle through vertices: {cyclic}")
        return [self._vertices[k] for k in order]

    def validate(self) -> None:
        """Check timing-model invariants: acyclicity, junction shape."""
        self.topological_order()
        for vertex in self._vertices.values():
            if vertex.is_and_junction:
                if vertex.exec_times and any(t != 0 for t in vertex.exec_times):
                    raise DagValidationError(
                        f"AND junction {vertex.key!r} must have zero execution time"
                    )
                if len(self.predecessors(vertex.key)) < 2:
                    raise DagValidationError(
                        f"AND junction {vertex.key!r} needs >= 2 inputs"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimingDag({self.num_vertices} vertices, {self.num_edges} edges)"
