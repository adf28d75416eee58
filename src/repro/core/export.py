"""Model export: DOT, JSON, and paper-style text tables.

The DOT output mirrors Fig. 3's visual conventions: one color per node,
``&`` boxes for AND junctions, topic names on edges.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from .dag import DagEdge, DagVertex, TimingDag

_PALETTE = [
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
    "#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd",
]


def to_dot(dag: TimingDag, title: str = "timing_model") -> str:
    """Graphviz DOT rendering of the timing model."""
    nodes = sorted({v.node for v in dag.vertices()})
    color = {node: _PALETTE[i % len(_PALETTE)] for i, node in enumerate(nodes)}
    lines = [f"digraph \"{title}\" {{", "  rankdir=LR;", "  node [style=filled];"]
    for vertex in sorted(dag.vertices(), key=lambda v: v.key):
        shape = "diamond" if vertex.is_and_junction else "box"
        label = vertex.label()
        stats = vertex.exec_stats
        if stats.count:
            m = stats.ms()
            label += f"\\n[{m.mbcet:.2f}/{m.macet:.2f}/{m.mwcet:.2f}] ms"
        if vertex.is_or_junction:
            label += "\\n(OR)"
        lines.append(
            f'  "{vertex.key}" [label="{label}", shape={shape}, '
            f'fillcolor="{color[vertex.node]}"];'
        )
    for edge in sorted(dag.edges(), key=lambda e: (e.src, e.dst, e.topic)):
        lines.append(f'  "{edge.src}" -> "{edge.dst}" [label="{edge.topic}"];')
    lines.append("}")
    return "\n".join(lines)


#: The JSON schema's vertex fields, in document order; the list-valued
#: ones are copied into lists by :func:`dag_to_dict`.
_VERTEX_FIELDS = (
    "key", "node", "cb_id", "cb_type", "intopic", "outtopics",
    "is_sync_member", "is_or_junction",
    "exec_times", "start_times", "response_times",
)
_LIST_FIELDS = frozenset(
    ("outtopics", "exec_times", "start_times", "response_times")
)
_EDGE_FIELDS = ("src", "dst", "topic")


def _sorted_vertices(dag: TimingDag) -> List[DagVertex]:
    return sorted(dag.vertices(), key=lambda v: v.key)


def _sorted_edges(dag: TimingDag) -> List[DagEdge]:
    return sorted(dag.edges(), key=lambda e: (e.src, e.dst, e.topic))


def dag_to_dict(dag: TimingDag) -> Dict[str, Any]:
    """JSON-serializable form of the model (lossless round trip)."""
    return {
        "vertices": [
            {
                name: list(getattr(v, name)) if name in _LIST_FIELDS
                else getattr(v, name)
                for name in _VERTEX_FIELDS
            }
            for v in _sorted_vertices(dag)
        ],
        "edges": [
            {name: getattr(e, name) for name in _EDGE_FIELDS}
            for e in _sorted_edges(dag)
        ],
    }


def dag_from_dict(raw: Dict[str, Any]) -> TimingDag:
    dag = TimingDag()
    for v in raw["vertices"]:
        dag.add_vertex(
            DagVertex(
                key=v["key"],
                node=v["node"],
                cb_id=v["cb_id"],
                cb_type=v["cb_type"],
                intopic=v.get("intopic"),
                outtopics=list(v.get("outtopics", [])),
                is_sync_member=bool(v.get("is_sync_member")),
                is_or_junction=bool(v.get("is_or_junction")),
                exec_times=list(v.get("exec_times", [])),
                start_times=list(v.get("start_times", [])),
                response_times=list(v.get("response_times", [])),
            )
        )
    for e in raw["edges"]:
        dag.add_edge(e["src"], e["dst"], e["topic"])
    return dag


_encode_str = json.encoder.encode_basestring_ascii
#: Any other scalar (None, bools, ints, floats with ``NaN``/``Infinity``)
#: goes through the json module's own encoder.
_encode_other = json.JSONEncoder().encode


def _scalar(value: Any) -> str:
    return _encode_str(value) if type(value) is str else _encode_other(value)


#: (field, its rendered ``"name": `` prefix[, list-valued]).
_VERTEX_KEYS = tuple(
    (name, _encode_str(name) + ": ", name in _LIST_FIELDS)
    for name in _VERTEX_FIELDS
)
_EDGE_KEYS = tuple((name, _encode_str(name) + ": ") for name in _EDGE_FIELDS)


def dag_to_json(dag: TimingDag, indent: Optional[int] = None) -> str:
    """The model as JSON text: byte-identical to
    ``json.dumps(dag_to_dict(dag), indent=indent)``, rendered from the
    fixed schema without the intermediate dict.

    ``json.dumps`` with an ``indent`` falls back to the json module's
    pure-Python encoder, one call per value.  Here every string goes
    through the C ``encode_basestring_ascii``, and a sample list of
    plain ints is one C-level ``join(map(int.__repr__, ...))``; other
    scalars follow the json module's own rules."""
    if indent is None:
        newline = [""] * 5
        item_sep = ", "
    else:
        pad = " " * indent if isinstance(indent, int) else indent
        newline = ["\n" + pad * level for level in range(5)]
        item_sep = ","
    # newline[level] opens a container's items at ``level``; joins[level]
    # separates them.
    joins = [item_sep + line for line in newline]

    def container(items: List[str], level: int, brackets: str) -> str:
        if not items:
            return brackets
        return (
            brackets[0] + newline[level] + joins[level].join(items)
            + newline[level - 1] + brackets[1]
        )

    def array(values: Any) -> str:
        if not values:
            return "[]"
        encode = int.__repr__ if set(map(type, values)) == {int} else _scalar
        return (
            "[" + newline[4] + joins[4].join(map(encode, values))
            + newline[3] + "]"
        )

    vertices = [
        container(
            [
                key + (array if is_list else _scalar)(getattr(vertex, name))
                for name, key, is_list in _VERTEX_KEYS
            ],
            3,
            "{}",
        )
        for vertex in _sorted_vertices(dag)
    ]
    edges = [
        container(
            [key + _scalar(getattr(edge, name)) for name, key in _EDGE_KEYS],
            3,
            "{}",
        )
        for edge in _sorted_edges(dag)
    ]
    return container(
        [
            '"vertices": ' + container(vertices, 2, "[]"),
            '"edges": ' + container(edges, 2, "[]"),
        ],
        1,
        "{}",
    )


def dag_from_json(text: str) -> TimingDag:
    return dag_from_dict(json.loads(text))


def format_exec_table(
    dag: TimingDag,
    order: Optional[Iterable[str]] = None,
    names: Optional[Dict[str, str]] = None,
) -> str:
    """Table II-style text table: CB | node | mBCET | mACET | mWCET (ms).

    ``order`` lists vertex keys to include (default: all, sorted);
    ``names`` optionally maps vertex keys to display names (cb1..cb6).
    """
    keys = list(order) if order is not None else sorted(
        v.key for v in dag.vertices() if not v.is_and_junction
    )
    names = names or {}
    header = f"{'CB':<12} {'Node':<28} {'mBCET':>8} {'mACET':>8} {'mWCET':>8}"
    rows = [header, "-" * len(header)]
    for key in keys:
        vertex = dag.vertex(key)
        stats = vertex.exec_stats.ms()
        rows.append(
            f"{names.get(key, vertex.cb_id):<12} {vertex.node:<28} "
            f"{stats.mbcet:>8.2f} {stats.macet:>8.2f} {stats.mwcet:>8.2f}"
        )
    return "\n".join(rows)


def format_edges(dag: TimingDag) -> str:
    """Human-readable edge list (Fig. 3 in text form)."""
    lines = []
    for edge in sorted(dag.edges(), key=lambda e: (e.src, e.dst)):
        lines.append(f"{edge.src} --[{edge.topic}]--> {edge.dst}")
    return "\n".join(lines)
