"""Model export: DOT, JSON, and paper-style text tables.

The DOT output mirrors Fig. 3's visual conventions: one color per node,
``&`` boxes for AND junctions, topic names on edges.
"""

from __future__ import annotations

import json
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, Union,
)

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
    if type(value) is str:
        return _encode_str(value)
    # The constants the json module writes, without a trip through its
    # encoder (~2 us a call).
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _encode_other(value)


#: (field, its rendered ``"name": `` prefix[, list-valued]).
_VERTEX_KEYS = tuple(
    (name, _encode_str(name) + ": ", name in _LIST_FIELDS)
    for name in _VERTEX_FIELDS
)
_EDGE_KEYS = tuple((name, _encode_str(name) + ": ") for name in _EDGE_FIELDS)
#: The list fields that hold measurement samples.  A merged model's
#: sample lists are its runs' lists concatenated, so they can be
#: rendered per run (:func:`render_samples`) and joined.
_SAMPLE_FIELDS = tuple(
    name for name in _VERTEX_FIELDS if name in _LIST_FIELDS and name != "outtopics"
)

#: Per vertex key, the length and the items text of each of the
#: ``_SAMPLE_FIELDS``: ``(lengths, texts)``.
RenderedSamples = Dict[str, Tuple[Tuple[int, ...], Tuple[str, ...]]]


def _layout(indent: Optional[Union[int, str]]) -> Tuple[List[str], List[str]]:
    """``(newline, joins)``: ``newline[level]`` opens a container's
    items at ``level``, and ``joins[level]`` separates them."""
    if indent is None:
        newline = [""] * 5
        item_sep = ", "
    else:
        pad = " " * indent if isinstance(indent, int) else indent
        newline = ["\n" + pad * level for level in range(5)]
        item_sep = ","
    return newline, [item_sep + line for line in newline]


def _items(values: Any, separator: str) -> str:
    """The items of one JSON array, without brackets: a list of plain
    ints is one C-level ``join(map(int.__repr__, ...))``, other values
    follow the json module's own rules -- which render a plain int as
    ``int.__repr__`` does, so items texts of consecutive pieces of a
    list join into the items text of the whole list."""
    encode = int.__repr__ if set(map(type, values)) == {int} else _scalar
    return separator.join(map(encode, values))


def render_samples(
    vertices: Iterable[DagVertex], indent: Optional[Union[int, str]] = None
) -> RenderedSamples:
    """The items text :func:`dag_to_json` renders at ``indent`` for
    ``vertices``' sample lists, with the lists' lengths: what a
    model's :attr:`~repro.core.dag.TimingDag.sample_parts` return."""
    separator = _layout(indent)[1][4]
    return {
        vertex.key: (
            tuple(len(getattr(vertex, name)) for name in _SAMPLE_FIELDS),
            tuple(_items(getattr(vertex, name), separator) for name in _SAMPLE_FIELDS),
        )
        for vertex in vertices
    }


def dag_to_json(
    dag: TimingDag, indent: Optional[Union[int, str]] = None
) -> str:
    """The model as JSON text: byte-identical to
    ``json.dumps(dag_to_dict(dag), indent=indent)``, rendered from the
    fixed schema without the intermediate dict.

    ``json.dumps`` with an ``indent`` falls back to the json module's
    pure-Python encoder, one call per value.  Here every string goes
    through the C ``encode_basestring_ascii``, and a sample list of
    plain ints is one C-level ``join(map(int.__repr__, ...))``; other
    scalars follow the json module's own rules.

    A model merged from pieces (a window's runs) has
    :attr:`~repro.core.dag.TimingDag.sample_parts`: each piece's
    :func:`render_samples`, rendered once per ``indent`` and kept.  The
    pieces' sample lists concatenate, per vertex key and in order, into
    ``dag``'s, so a vertex joins its pieces' items texts.  A vertex no
    piece holds (an AND junction), or whose list lengths are not its
    pieces' sums (the model changed after the merge), renders its own."""
    newline, joins = _layout(indent)
    parts = [render(indent) for render in dag.sample_parts]
    # The text is one list of pieces, joined once: each intermediate
    # string would copy a large model's samples again.
    out: List[str] = []
    emit = out.append

    def objects(rows: List[Any], write: Callable[[Any], None]) -> None:
        """A list of objects; ``write`` emits one object's fields."""
        if not rows:
            emit("[]")
            return
        emit("[")
        for number, row in enumerate(rows):
            out.extend((joins[2] if number else newline[2], "{"))
            write(row)
            out.extend((newline[2], "}"))
        out.extend((newline[1], "]"))

    def prefixes(keys: Any) -> List[Tuple[str, ...]]:
        """Each field's name, its separator plus ``"name": ``, and the
        rest of its entry in ``keys``."""
        return [
            (name, (joins[3] if position else newline[3]) + key, *rest)
            for position, (name, key, *rest) in enumerate(keys)
        ]

    vertex_keys = prefixes(_VERTEX_KEYS)
    edge_keys = prefixes(_EDGE_KEYS)

    def write_vertex(vertex: DagVertex) -> None:
        joined: Dict[str, str] = {}
        pieces = [part[vertex.key] for part in parts if vertex.key in part]
        if pieces:
            lengths, texts = zip(*pieces)
            if list(map(sum, zip(*lengths))) == [
                len(getattr(vertex, name)) for name in _SAMPLE_FIELDS
            ]:
                joined = {
                    name: joins[4].join(filter(None, items))
                    for name, items in zip(_SAMPLE_FIELDS, zip(*texts))
                }
        for name, prefix, is_list in vertex_keys:
            emit(prefix)
            if not is_list:
                emit(_scalar(getattr(vertex, name)))
                continue
            items = joined.get(name)
            if items is None:
                items = _items(getattr(vertex, name), joins[4])
            if items:
                out.extend(("[", newline[4], items, newline[3], "]"))
            else:
                emit("[]")

    def write_edge(edge: DagEdge) -> None:
        for name, prefix in edge_keys:
            out.extend((prefix, _scalar(getattr(edge, name))))

    out.extend(("{", newline[1], '"vertices": '))
    objects(_sorted_vertices(dag), write_vertex)
    out.extend((joins[1], '"edges": '))
    objects(_sorted_edges(dag), write_edge)
    out.extend((newline[0], "}"))
    return "".join(out)


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
