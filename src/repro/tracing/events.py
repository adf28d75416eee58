"""Trace event records and probe-name vocabulary.

Every userspace probe firing records the three fields the paper
requires (Sec. III-A): a timestamp for chronological ordering, a PID
associating the event with a ROS2 node, and a probe name indicating what
information the event carries, then its probe-specific payload (topic
names, callback ids, source timestamps, ...) -- a perf-buffer row, from
which :func:`events_from_rows` builds :class:`TraceEvent` objects.

The module also defines the probe-name constants for Table I (P1..P16)
and the predicate helpers Alg. 1 switches on.
"""

from __future__ import annotations

from itertools import count, repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# --------------------------------------------------------------------------
# Probe names -- one per row of Table I.  ":entry" / ":exit" suffixes mirror
# uprobe vs uretprobe attachment.
# --------------------------------------------------------------------------

P1_CREATE_NODE = "rmw_create_node"
P2_TIMER_START = "execute_timer:entry"
P3_TIMER_CALL = "rcl_timer_call"
P4_TIMER_END = "execute_timer:exit"
P5_SUB_START = "execute_subscription:entry"
P6_TAKE = "rmw_take_int"
P7_SYNC_OP = "message_filters_operator"
P8_SUB_END = "execute_subscription:exit"
P9_SERVICE_START = "execute_service:entry"
P10_TAKE_REQUEST = "rmw_take_request"
P11_SERVICE_END = "execute_service:exit"
P12_CLIENT_START = "execute_client:entry"
P13_TAKE_RESPONSE = "rmw_take_response"
P14_TAKE_TYPE_ERASED = "take_type_erased_response"
P15_CLIENT_END = "execute_client:exit"
P16_DDS_WRITE = "dds_write_impl"

#: Probe name -> Table I row id, for reports and the Table I bench.
PROBE_TABLE = {
    P1_CREATE_NODE: "P1",
    P2_TIMER_START: "P2",
    P3_TIMER_CALL: "P3",
    P4_TIMER_END: "P4",
    P5_SUB_START: "P5",
    P6_TAKE: "P6",
    P7_SYNC_OP: "P7",
    P8_SUB_END: "P8",
    P9_SERVICE_START: "P9",
    P10_TAKE_REQUEST: "P10",
    P11_SERVICE_END: "P11",
    P12_CLIENT_START: "P12",
    P13_TAKE_RESPONSE: "P13",
    P14_TAKE_TYPE_ERASED: "P14",
    P15_CLIENT_END: "P15",
    P16_DDS_WRITE: "P16",
}

#: Payload keys of each probe with a payload, in the order of its rows'
#: values ``(ts, pid, probe, *values)`` and of its events' ``data``.
PAYLOAD_KEYS: Dict[str, Tuple[str, ...]] = {
    P1_CREATE_NODE: ("node",),
    P3_TIMER_CALL: ("cb_id",),
    P6_TAKE: ("cb_id", "topic", "src_ts"),
    P7_SYNC_OP: ("cb_id",),
    P10_TAKE_REQUEST: ("cb_id", "topic", "service", "src_ts"),
    P13_TAKE_RESPONSE: ("cb_id", "topic", "service", "src_ts"),
    P14_TAKE_TYPE_ERASED: ("will_dispatch",),
    P16_DDS_WRITE: ("topic", "src_ts", "kind"),
}

CB_START_PROBES = frozenset(
    {P2_TIMER_START, P5_SUB_START, P9_SERVICE_START, P12_CLIENT_START}
)
CB_END_PROBES = frozenset({P4_TIMER_END, P8_SUB_END, P11_SERVICE_END, P15_CLIENT_END})
TAKE_PROBES = frozenset({P6_TAKE, P10_TAKE_REQUEST, P13_TAKE_RESPONSE})

#: CB start probe -> callback type label used throughout the timing model.
CB_TYPE_BY_START = {
    P2_TIMER_START: "timer",
    P5_SUB_START: "subscriber",
    P9_SERVICE_START: "service",
    P12_CLIENT_START: "client",
}


#: Shared payload for events without probe-specific data.  TraceEvents
#: are immutable by contract -- nothing may mutate ``data`` -- so one
#: empty mapping can back every payload-less event.
_NO_DATA: Mapping[str, Any] = {}


class TraceEvent(NamedTuple):
    """One userspace probe firing.

    A ``NamedTuple`` rather than a frozen dataclass: traces hold one
    event per probe firing, and tuple construction is severalfold
    cheaper.  The immutability contract is unchanged (``data`` must
    never be mutated -- default instances share one empty mapping).

    Attributes
    ----------
    ts:
        Nanosecond timestamp (kernel clock at firing time).
    pid:
        PID of the traced thread (the ROS2 node's executor thread).
    probe:
        Probe name, one of the ``P*`` constants above.
    data:
        Probe-specific payload; keys used by the synthesis algorithms are
        ``topic``, ``cb_id``, ``src_ts``, ``service``, ``node``,
        ``will_dispatch``, ``timer_id``.
    """

    ts: int
    pid: int
    probe: str
    data: Mapping[str, Any] = _NO_DATA

    @property
    def pnum(self) -> Optional[str]:
        """Table I row id (``"P6"``), or None for non-Table-I probes."""
        return PROBE_TABLE.get(self.probe)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    # -- predicates used by Alg. 1 --------------------------------------

    def is_cb_start(self) -> bool:
        return self.probe in CB_START_PROBES

    def is_cb_end(self) -> bool:
        return self.probe in CB_END_PROBES

    def is_take(self) -> bool:
        return self.probe in TAKE_PROBES

    def cb_type(self) -> str:
        """Callback type for a CB-start event ('timer', 'subscriber', ...)."""
        return CB_TYPE_BY_START[self.probe]

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form (used by the trace database)."""
        return {"ts": self.ts, "pid": self.pid, "probe": self.probe, "data": dict(self.data)}

    @staticmethod
    def from_dict(raw: Mapping[str, Any]) -> "TraceEvent":
        return TraceEvent(
            ts=int(raw["ts"]),
            pid=int(raw["pid"]),
            probe=str(raw["probe"]),
            data=dict(raw.get("data", {})),
        )


#: The distinct payload key sets (the empty one first), and each
#: Table I probe's index into them: rows group by payload schema.
_SCHEMAS: List[Tuple[str, ...]] = [(), *dict.fromkeys(PAYLOAD_KEYS.values())]
_SCHEMA_OF: Dict[str, int] = dict.fromkeys(PROBE_TABLE, 0)
_SCHEMA_OF.update((probe, _SCHEMAS.index(keys)) for probe, keys in PAYLOAD_KEYS.items())


class RowGroup(NamedTuple):
    """The rows of one payload schema (P3 and P7 share one): its keys,
    the row numbers, the values transposed (one tuple per key) and the
    value types of each such column."""

    keys: Tuple[str, ...]
    numbers: List[int]
    values: List[tuple]
    types: List[set]


def split_codes(codes: np.ndarray, size: int) -> List[Tuple[int, List[int]]]:
    """``(code, row numbers)`` per code (below ``size``) present in
    ``codes``, both ascending: one stable argsort cuts the rows."""
    order = codes.argsort(kind="stable").tolist()
    ends = np.bincount(codes, minlength=size).cumsum().tolist()
    return [
        (code, order[start:end])
        for code, start, end in zip(count(), [0, *ends], ends) if end > start
    ]


def group_rows(rows: Sequence[tuple]) -> List[RowGroup]:
    """Perf-buffer rows ``(ts, pid, probe, *values)`` grouped by their
    probe's payload schema, with no Python call per row; each group's
    values transpose a key at a time."""
    try:
        codes = np.fromiter(
            map(_SCHEMA_OF.__getitem__, map(itemgetter(2), rows)), np.intp, len(rows)
        )
    except KeyError as exc:
        raise ValueError(f"no payload schema for probe {exc.args[0]!r}") from None
    groups = []
    for code, numbers in split_codes(codes, len(_SCHEMAS)):
        keys = _SCHEMAS[code]
        values = []
        if keys:
            picked = itemgetter(*numbers)(rows) if len(numbers) > 1 else [rows[numbers[0]]]
            try:
                values = [tuple(map(itemgetter(j), picked)) for j in range(3, 3 + len(keys))]
            except IndexError:
                raise ValueError(f"rows with payload keys {keys} miss values") from None
        groups.append(RowGroup(keys, numbers, values, [set(map(type, v)) for v in values]))
    return groups


#: key tuple -> compiled dict-display listcomp (see :func:`payload_dicts`).
_DICT_BUILDERS: Dict[Tuple[str, ...], Any] = {}


def payload_dicts(keys: Tuple[str, ...], value_rows: Iterable[tuple]) -> List[dict]:
    """One payload dict per tuple of ``value_rows``, from a compiled
    ``[{key: v0, ...} for (v0, ...) in rows]`` cached per key tuple: a
    dict display builds ~3x faster than ``dict(zip(keys, values))``,
    and keys embed as ``repr`` literals, so key text stays data."""
    code = _DICT_BUILDERS.get(keys)
    if code is None:
        names = [f"v{i}" for i in range(len(keys))]
        item = "{" + ", ".join(f"{key!r}: {name}" for key, name in zip(keys, names)) + "}"
        target = "(" + ", ".join(names) + ("," if len(names) == 1 else "") + ")"
        code = _DICT_BUILDERS[keys] = compile(
            f"[{item} for {target} in _rows]", "<payload dicts>", "eval"
        )
    return eval(code, {"_rows": value_rows})  # compiled listcomp, data-only


def events_from_rows(
    rows: Sequence[tuple], groups: Optional[List[RowGroup]] = None
) -> List[TraceEvent]:
    """The :class:`TraceEvent` of each perf-buffer row, in row order,
    with no Python call per row: payloads are built a group at a time
    (``groups``: the rows' :func:`group_rows`), and payload-free rows
    share the empty payload."""
    datas = [_NO_DATA] * len(rows)
    for group in group_rows(rows) if groups is None else groups:
        if group.keys:
            dicts = payload_dicts(group.keys, zip(*group.values))
            for number, data in zip(group.numbers, dicts):
                datas[number] = data
    ts, pids, probes = (map(itemgetter(field), rows) for field in range(3))
    return list(map(tuple.__new__, repeat(TraceEvent), zip(ts, pids, probes, datas)))
