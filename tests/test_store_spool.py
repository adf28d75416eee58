"""The bulk spool encoder (``SegmentSpool.add_ros`` / ``add_sched`` /
``add_wakeups``) against a frozen row-at-a-time writer.

``RowSpool`` keeps the previous per-row append path verbatim
(``append_ros``, ``_typed_payload``, ``_classify``, ``append_sched``,
``append_wakeup``); it lives here only as an oracle.  Every stream the
bulk encoder spools must ``finish`` to the bytes the row writer
produces -- compressed or not -- and every recorded scenario segment
must hash the same.  Also here: an append
that fails leaves the spool untouched, and the number of Python calls
per rotation does not grow with the rotation's length.
"""

import gc
import hashlib
import io
import json
import sys
from array import array
from typing import Any, List, Mapping, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.batch import BatchConfig
from repro.scenarios.registry import scenario_names
from repro.sim import SchedSwitch, SchedWakeup
from repro.sim.kernel import MSEC
from repro.store import SegmentReader
from repro.store import record as record_module
from repro.store.format import (
    FIELD_BOOL,
    FIELD_FLOAT,
    FIELD_INT,
    FIELD_NONE,
    FIELD_STR,
    FIELD_TYPECODES,
    MAX_SHAPES,
    NONE_CPU,
    NONE_ID,
    SHAPE_JSON,
)
from repro.store.record import record_run
from repro.store.writer import SegmentSpool
from repro.tracing.events import TraceEvent
from repro.tracing.session import TraceSegment

# ---------------------------------------------------------------------------
# The oracle: the row-at-a-time writer, frozen
# ---------------------------------------------------------------------------

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _encode_payload(data: Mapping[str, Any]) -> str:
    """Canonical compact JSON for a ``TraceEvent.data`` mapping."""
    return json.dumps(dict(data), separators=(",", ":"), ensure_ascii=False)


class _ShapeAcc:
    """Writer-side accumulator for one payload shape."""

    __slots__ = ("index", "fields", "columns", "count")

    def __init__(self, index: int, fields: Tuple[Tuple[str, int], ...]):
        self.index = index
        self.fields = fields
        #: one array per field; ``None`` for FIELD_NONE fields.
        self.columns: Tuple[Optional[array], ...] = tuple(
            array(FIELD_TYPECODES[ftype]) if ftype != FIELD_NONE else None
            for _, ftype in fields
        )
        self.count = 0


def _classify(value: Any) -> Optional[int]:
    """Field type of one payload value, or ``None`` when it does not fit
    the closed schema (-> whole row falls back to JSON)."""
    if value is None:
        return FIELD_NONE
    if isinstance(value, bool):
        return FIELD_BOOL
    if isinstance(value, int):
        return FIELD_INT if _INT64_MIN <= value <= _INT64_MAX else None
    if isinstance(value, str):
        return FIELD_STR
    if isinstance(value, float):
        return FIELD_FLOAT
    return None


class RowSpool(SegmentSpool):
    """The row-at-a-time spool (appends verbatim; ``finish`` shared)."""

    def _typed_payload(self, data: Mapping[str, Any]) -> Optional[Tuple[int, int]]:
        """Append one payload to its shape's columns; returns (shape id,
        row index) or ``None`` when the payload needs the JSON fallback."""
        items: List[Tuple[str, int, Any]] = []
        for key, value in data.items():
            if not isinstance(key, str):
                return None
            ftype = _classify(value)
            if ftype is None:
                return None
            items.append((key, ftype, value))
        shape_key = tuple((key, ftype) for key, ftype, _ in items)
        acc = self._shapes.get(shape_key)
        if acc is None:
            if len(self._shapes) >= MAX_SHAPES:  # pragma: no cover - 4B shapes
                return None
            acc = self._shapes[shape_key] = _ShapeAcc(len(self._shapes), shape_key)
        intern = self.strings.intern
        for (key, ftype, value), column in zip(items, acc.columns):
            if ftype == FIELD_STR:
                column.append(intern(value))
            elif ftype == FIELD_INT:
                column.append(value)
            elif ftype == FIELD_BOOL:
                column.append(1 if value else 0)
            elif ftype == FIELD_FLOAT:
                column.append(value)
            # FIELD_NONE stores nothing.
        row = acc.count
        acc.count = row + 1
        return acc.index, row

    def append_ros(self, event: TraceEvent) -> None:
        ts_col, pid_col, probe_col, shape_col, vidx_col = self._ros
        ts_col.append(event[0])
        pid_col.append(event[1])
        probe_col.append(self.strings.intern(event[2]))
        data = event[3]
        if not data:
            shape_col.append(NONE_ID)
            vidx_col.append(0)
        else:
            typed = self._typed_payload(data)
            if typed is None:
                shape_col.append(SHAPE_JSON)
                vidx_col.append(self.strings.intern(_encode_payload(data)))
            else:
                shape_col.append(typed[0])
                vidx_col.append(typed[1])

    def append_sched(self, event: SchedSwitch) -> None:
        cols = self._sched
        intern = self.strings.intern
        cols[0].append(event.ts)
        cols[1].append(event.cpu)
        cols[2].append(event.prev_pid)
        cols[3].append(intern(event.prev_comm))
        cols[4].append(event.prev_prio)
        cols[5].append(intern(event.prev_state))
        cols[6].append(event.next_pid)
        cols[7].append(intern(event.next_comm))
        cols[8].append(event.next_prio)

    def append_wakeup(self, event: SchedWakeup) -> None:
        cols = self._wakeup
        cols[0].append(event.ts)
        cols[1].append(NONE_CPU if event.cpu is None else event.cpu)
        cols[2].append(event.pid)
        cols[3].append(self.strings.intern(event.comm))
        cols[4].append(event.prio)

    # The bulk entry points, one row at a time.

    def add_ros(self, events) -> None:
        for event in events:
            self.append_ros(event)

    def add_segment(self, segment) -> None:
        for event in segment.ros_events:
            self.append_ros(event)
        for sched in segment.sched_events:
            self.append_sched(sched)
        for wakeup in segment.wakeup_events:
            self.append_wakeup(wakeup)

    add_trace = add_segment


def _finished(spool: SegmentSpool, compress: bool) -> bytes:
    buffer = io.BytesIO()
    spool.finish(buffer, {1: "node", 2: None}, 10, 99, compress=compress)
    return buffer.getvalue()


def _spooled(cls, rotations, compress: bool) -> bytes:
    spool = cls()
    for segment in rotations:
        spool.add_segment(segment)
    return _finished(spool, compress)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


class Int(int):
    pass


class Str(str):
    pass


#: A small alphabet, so strings recur within and across rotations;
#: ``text()`` adds strings first seen anywhere in the stream.
_WORDS = st.sampled_from(["a", "b", "topic/x", "cb1", "", "ü"])
_STRINGS = st.one_of(_WORDS, st.text(max_size=4), _WORDS.map(Str))
_INTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([_INT64_MIN, _INT64_MAX, 1 << 70, -(1 << 64), _INT64_MAX + 1]),
    st.integers(-5, 5).map(Int),
    st.integers(),
)
_SCALARS = st.one_of(
    _STRINGS,
    _INTS,
    st.floats(allow_nan=False),
    st.floats(width=32).map(np.float64),
    st.booleans(),
    st.none(),
)
_NESTED = st.one_of(
    st.lists(st.one_of(st.integers(), _WORDS), max_size=2),
    st.dictionaries(_WORDS, st.integers(), max_size=2),
)
_VALUES = st.one_of(_SCALARS, _SCALARS, _SCALARS, _NESTED)
#: A few fixed key sets, so one key set recurs with varying value
#: types; a non-str key sends its row to the JSON fallback.
_KEY_SETS = st.sampled_from([
    (), (), ("cb_id",), ("topic", "src_ts"), ("src_ts", "topic"),
    ("cb_id", "topic", "service", "src_ts"), ("x", 7), (None,),
])


@st.composite
def _payloads(draw):
    keys = draw(_KEY_SETS)
    return {key: draw(_VALUES) for key in keys}


_ROS = st.builds(
    TraceEvent,
    st.integers(0, 10**12),
    st.integers(1, 4),
    st.one_of(_WORDS, st.text(max_size=3)),
    _payloads(),
)
_SCHED = st.builds(
    SchedSwitch,
    st.integers(0, 10**12),
    st.integers(0, 3),
    st.integers(0, 5),
    _STRINGS,
    st.integers(0, 140),
    st.sampled_from(["R", "S", "D"]),
    st.integers(0, 5),
    _STRINGS,
    st.integers(0, 140),
)
_WAKEUPS = st.builds(
    SchedWakeup,
    st.integers(0, 10**12),
    st.one_of(st.none(), st.integers(0, 3)),
    st.integers(0, 5),
    _STRINGS,
    st.integers(0, 140),
)
_ROTATIONS = st.lists(
    st.builds(
        TraceSegment,
        st.just(0), st.just(0), st.just(0),
        st.lists(_ROS, max_size=12),
        st.lists(_SCHED, max_size=5),
        st.lists(_WAKEUPS, max_size=4),
    ),
    max_size=4,
)


class TestBulkMatchesRowWriter:
    @settings(max_examples=300, deadline=None)
    @given(rotations=_ROTATIONS)
    def test_random_streams(self, rotations):
        for compress in (True, False):
            expected = _spooled(RowSpool, rotations, compress)
            assert _spooled(SegmentSpool, rotations, compress) == expected, compress

    def test_edge_stream(self):
        """New strings first seen mid-rotation and in later rotations,
        a shape whose first row overflows int64, one key set with
        three value types, empty rotations and payload-less rows."""
        big = 1 << 70
        rotations = [
            TraceSegment(0, 0, 0, [], [], []),
            TraceSegment(0, 0, 0, [
                TraceEvent(1, 1, "p1", {"n": big, "s": "late"}),
                TraceEvent(2, 1, "p2", {"t": "x"}),
                TraceEvent(3, 1, "p1", {"n": 5, "s": "early"}),
                TraceEvent(4, 2, "p3", {}),
                TraceEvent(5, 2, "p2", {"t": Int(3)}),
                TraceEvent(6, 2, "p2", {"t": None}),
                TraceEvent(7, 2, "p2", {"t": 3}),
                TraceEvent(8, 2, "p4", {1: "nonstr"}),
            ], [SchedSwitch(9, 0, 1, "c1", 120, "S", 2, "c2", 120)],
                [SchedWakeup(10, None, 1, "c1", 120)]),
            TraceSegment(0, 0, 0, [], [], []),
            TraceSegment(0, 0, 0, [
                TraceEvent(11, 1, "p5", {"t": Str("brand-new")}),
                TraceEvent(12, 1, "p1", {"n": 6, "s": "early"}),
                TraceEvent(13, 1, "p1", {"n": -big, "s": "x"}),
            ], [SchedSwitch(14, 1, 2, "c3", 120, "R", 1, "c1", 120)], []),
        ]
        for compress in (True, False):
            assert _spooled(SegmentSpool, rotations, compress) == _spooled(
                RowSpool, rotations, compress
            )

    def test_add_trace_and_sliced_add_ros_agree(self):
        """One rotation through ``add_trace`` or in three ``add_ros``
        slices gives the row writer's bytes."""
        events = [
            TraceEvent(ts, ts % 3, f"p{ts % 4}", {"k": f"s{ts % 5}", "v": ts})
            for ts in range(30)
        ]
        segment = TraceSegment(0, 0, 0, events, [], [])
        expected = _spooled(RowSpool, [segment], True)
        whole = SegmentSpool()
        whole.add_trace(segment)
        sliced = SegmentSpool()
        for start, stop in ((0, 7), (7, 19), (19, 30)):
            sliced.add_ros(events[start:stop])
        assert _finished(whole, True) == expected == _finished(sliced, True)


# ---------------------------------------------------------------------------
# Recorded scenarios: every segment hashes like the row writer's
# ---------------------------------------------------------------------------


def _record_digest(scenario: str, directory) -> str:
    run = record_run(
        scenario, 0, 1, BatchConfig(duration_ns=500 * MSEC), str(directory)
    )
    with open(run.path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("scenario", scenario_names())
def test_recorded_scenarios_match_row_writer(scenario, tmp_path, monkeypatch):
    bulk = _record_digest(scenario, tmp_path / "bulk")
    with monkeypatch.context() as patch:
        patch.setattr(record_module, "SegmentSpool", RowSpool)
        row = _record_digest(scenario, tmp_path / "row")
    assert bulk == row, scenario


# ---------------------------------------------------------------------------
# A failed append leaves the spool untouched
# ---------------------------------------------------------------------------


def _state(spool: SegmentSpool):
    return (
        [len(column) for column in spool._ros + spool._sched + spool._wakeup],
        list(spool.strings.strings),
        {key: acc.count for key, acc in spool._shapes.items()},
    )


class TestFailedAppend:
    def test_unencodable_payload_raises_and_keeps_spool(self):
        spool = SegmentSpool()
        spool.add_ros([TraceEvent(1, 1, "p1", {"cb_id": "a", "n": 1})])
        before = _state(spool)
        with pytest.raises(ValueError) as raised:
            spool.add_ros([
                TraceEvent(2, 1, "p1", {"cb_id": "fresh", "n": 2}),
                TraceEvent(3, 1, "p-bad", {"cb_id": "b", "count": np.int64(7)}),
            ])
        message = str(raised.value)
        assert "'p-bad'" in message and "'count'" in message and "int64" in message
        assert _state(spool) == before
        # The next segment is whole and reads back.
        spool.add_ros([TraceEvent(4, 1, "p1", {"cb_id": "c", "n": 3})])
        reader = SegmentReader(_finished(spool, True))
        assert [event.ts for event in reader.iter_ros()] == [1, 4]

    def test_out_of_range_record_keeps_spool(self):
        spool = SegmentSpool()
        spool.add_sched([SchedSwitch(1, 0, 1, "a", 120, "S", 2, "b", 120)])
        before = _state(spool)
        with pytest.raises(OverflowError):
            spool.add_sched([
                SchedSwitch(2, 0, 1, "new-comm", 120, "S", 2, "b", 120),
                SchedSwitch(3, 0, 1 << 40, "a", 120, "S", 2, "b", 120),
            ])
        assert _state(spool) == before
        assert len(SegmentReader(_finished(spool, True)).to_trace().sched_events) == 1


# ---------------------------------------------------------------------------
# Work count: Python calls per rotation do not grow with its length
# ---------------------------------------------------------------------------


def _calls(function) -> int:
    """Python calls ``function()`` makes; the collector stays off, so
    callbacks a garbage collection would run are not counted."""
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call":
            calls[0] += 1

    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls[0]


def test_add_segment_calls_do_not_grow_with_rotation_length(tmp_path, monkeypatch):
    rotations = []
    original = SegmentSpool.add_segment

    def capture(spool, segment):
        rotations.append(TraceSegment(
            0, 0, 0, list(segment.ros_events), list(segment.sched_events),
            list(segment.wakeup_events),
        ))
        original(spool, segment)

    monkeypatch.setattr(SegmentSpool, "add_segment", capture)
    record_run(
        "avp-interference", 0, 1, BatchConfig(duration_ns=500 * MSEC), str(tmp_path)
    )
    monkeypatch.undo()
    rotation = max(rotations, key=lambda segment: len(segment.ros_events))
    assert len(rotation.ros_events) > 100
    doubled = TraceSegment(
        0, 0, 0, rotation.ros_events * 2, rotation.sched_events * 2,
        rotation.wakeup_events * 2,
    )
    for warm in (False, True):  # first rotation, then all strings known
        counts = []
        for segment in (rotation, doubled):
            spool = SegmentSpool()
            if warm:
                spool.add_segment(rotation)
            counts.append(_calls(lambda: spool.add_segment(segment)))
        assert counts[1] <= counts[0], (warm, counts)
