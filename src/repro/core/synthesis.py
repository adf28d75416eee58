"""DAG synthesis: turn per-node CBlists into the application timing model.

Rules (Sec. IV, "DAG synthesis"):

1. every CBlist entry becomes a vertex -- a service invoked by *n*
   callers has *n* entries (matched on ID + subscribed topic) and hence
   *n* vertices, keeping per-caller chains disjoint;
2. an edge connects ``cb'`` to ``cb`` when a published topic of ``cb'``
   matches the subscribed topic of ``cb`` -- except that publications of
   data-synchronization members are routed through an ``AND`` junction;
3. a vertex whose subscribed topic has more than one publisher is marked
   as an ``OR`` junction (any publisher triggers it);
4. the sync members of a node feed a zero-execution-time ``AND``
   junction vertex whose outgoing edges lead to the subscribers of the
   group's fused output topics.

The ``split_services`` / ``model_sync`` switches disable rules 1 and 4
respectively.  They exist for the ablation benchmarks that reproduce
the paper's motivating counterexamples: a shared service vertex creates
n x n spurious chains, and plain sync edges misrepresent an AND join as
OR triggering.  Production use keeps both switches on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from .dag import DagVertex, TimingDag
from .records import CallbackRecord, CBList


def vertex_key(record: CallbackRecord, split_services: bool = True) -> str:
    """Stable vertex key; services embed the (caller-qualified) intopic."""
    if record.cb_type == "service" and split_services:
        return f"{record.node}/{record.cb_id}@{record.intopic}"
    return f"{record.node}/{record.cb_id}"


def junction_key(node: str) -> str:
    return f"{node}/&"


@dataclass
class CallbackFold:
    """CBlist records folded per vertex key: everything the structural
    pass (:func:`dag_from_fold`) reads.

    The ordered pair sets (dicts with ``None`` values) keep each
    distinct pair at its first occurrence in record order, which is
    all the per-record loops of rules 2-4 depend on: a repeated pair
    adds no edge, publisher or sync member.  Folding CBlists in order
    and merging folds of consecutive CBlist runs (:func:`merge_folds`)
    give the same fold.
    """

    #: vertex key -> its vertex, in first-seen order: the first
    #: record's attributes, the ordered union of the records' outtopics
    #: and their sample lists concatenated.
    vertices: Dict[str, DagVertex] = field(default_factory=dict)
    #: (key, intopic) of the records that subscribe.
    subscriptions: Dict[Tuple[str, str], None] = field(default_factory=dict)
    #: (key, topic) per published topic of each record.
    publications: Dict[Tuple[str, str], None] = field(default_factory=dict)
    #: (node, key) of the data-synchronization subscribers.
    sync_members: Dict[Tuple[str, str], None] = field(default_factory=dict)


def _absorb(vertex: DagVertex, part) -> None:
    """Fold one more record (or vertex) of ``vertex``'s key into it."""
    vertex.exec_times += part.exec_times
    vertex.start_times += part.start_times
    vertex.response_times += part.response_times
    outtopics = vertex.outtopics
    for topic in part.outtopics:
        if topic not in outtopics:
            outtopics.append(topic)


def fold_records(
    cblists: Iterable[CBList], split_services: bool = True
) -> CallbackFold:
    """Fold the records of ``cblists`` (in order) per vertex key."""
    fold = CallbackFold()
    vertices = fold.vertices
    subscriptions = fold.subscriptions
    publications = fold.publications
    for cblist in cblists:
        for record in cblist:
            key = vertex_key(record, split_services)
            vertex = vertices.get(key)
            if vertex is None:
                vertices[key] = DagVertex(
                    key=key,
                    node=record.node,
                    cb_id=record.cb_id,
                    cb_type=record.cb_type,
                    intopic=record.intopic,
                    outtopics=list(record.outtopics),
                    is_sync_member=record.is_sync_subscriber,
                    exec_times=list(record.exec_times),
                    start_times=list(record.start_times),
                    response_times=list(record.response_times),
                )
            else:
                # The key repeats: the same callback in another run's
                # CBlist, or services folded by split_services=False.
                _absorb(vertex, record)
            if record.intopic is not None:
                subscriptions[key, record.intopic] = None
            for topic in record.outtopics:
                publications[key, topic] = None
            if record.is_sync_subscriber:
                fold.sync_members[record.node, key] = None
    return fold


def merge_folds(folds: Sequence[CallbackFold]) -> CallbackFold:
    """The fold of the concatenated records of ``folds``' CBlists, in
    order.  The parts are not modified: the merge owns new vertices."""
    merged = CallbackFold()
    vertices = merged.vertices
    for fold in folds:
        for key, part in fold.vertices.items():
            vertex = vertices.get(key)
            if vertex is None:
                vertices[key] = DagVertex(
                    key=key,
                    node=part.node,
                    cb_id=part.cb_id,
                    cb_type=part.cb_type,
                    intopic=part.intopic,
                    outtopics=list(part.outtopics),
                    is_sync_member=part.is_sync_member,
                    exec_times=list(part.exec_times),
                    start_times=list(part.start_times),
                    response_times=list(part.response_times),
                )
            else:
                _absorb(vertex, part)
        merged.subscriptions.update(fold.subscriptions)
        merged.publications.update(fold.publications)
        merged.sync_members.update(fold.sync_members)
    return merged


def dag_from_fold(fold: CallbackFold, model_sync: bool = True) -> TimingDag:
    """Rules 2-4 over folded records: AND junctions, the publisher map,
    precedence edges and OR marking.  The DAG takes ``fold``'s vertices
    as its own."""
    dag = TimingDag()
    for vertex in fold.vertices.values():
        dag.add_vertex(vertex)

    # -- AND junctions for data-synchronization groups -------------------
    sync_members: Dict[str, List[str]] = {}
    if model_sync:
        for node, key in fold.sync_members:
            sync_members.setdefault(node, []).append(key)
    junction_out: Dict[str, List[str]] = {}
    for node, members in sync_members.items():
        if len(members) < 2:
            continue  # a lone marked subscriber is not a join
        jkey = junction_key(node)
        outtopics: List[str] = []
        for member_key in members:
            for topic in dag.vertex(member_key).outtopics:
                if topic not in outtopics:
                    outtopics.append(topic)
        dag.add_vertex(
            DagVertex(
                key=jkey,
                node=node,
                cb_id=jkey,
                cb_type="and_junction",
                outtopics=outtopics,
            )
        )
        for member_key in members:
            dag.add_edge(member_key, jkey, topic="&")
        junction_out[jkey] = outtopics

    rerouted = {
        m for members in sync_members.values() if len(members) >= 2 for m in members
    }

    # -- publisher map (effective outputs, per record) ---------------------
    publishers: Dict[str, List[str]] = {}
    for key, topic in fold.publications:
        if key not in rerouted:  # outputs flow through the AND junction
            publishers.setdefault(topic, []).append(key)
    for jkey, outtopics in junction_out.items():
        for topic in outtopics:
            sources = publishers.setdefault(topic, [])
            if jkey not in sources:
                sources.append(jkey)

    # -- precedence edges + OR marking ------------------------------------
    for key, intopic in fold.subscriptions:
        sources = publishers.get(intopic, [])
        for src in sources:
            if src != key:
                dag.add_edge(src, key, topic=intopic)
        if len(set(sources) - {key}) > 1:
            dag.vertex(key).is_or_junction = True

    return dag


def synthesize_dag(
    cblists: Iterable[CBList],
    split_services: bool = True,
    model_sync: bool = True,
) -> TimingDag:
    """Build the timing DAG from the CBlists of all traced nodes: fold
    the records per vertex key, then apply rules 2-4."""
    return dag_from_fold(fold_records(cblists, split_services), model_sync)
