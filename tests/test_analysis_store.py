"""Out-of-core analysis equivalence.

Every analysis the package computes in memory must give value-identical
results when read from a trace store: the DAG-based reports (chains,
activation models, loads) ride on the already-pinned
``synthesize_from_store``, and the trace-based reports (chain latency,
waiting time, per-topic DDS latency) ride on the column-built
:class:`LatencyIndex` -- both checked against the in-memory reference
on all registry scenarios.  Since the store and in-memory paths share
one index constructor, that constructor is also pinned, slot for slot,
against a frozen copy of the row-loop constructor it replaced
(:class:`RowLoopLatencyIndex`): on random streams and on every
scenario, over time-ordered and overlapping stores.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
from itertools import chain
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    LatencyIndex,
    StoreAnalysis,
    activation_models,
    activation_models_from_store,
    callback_loads,
    callback_loads_from_store,
    communication_latencies,
    communication_latencies_from_store,
    enumerate_chains,
    enumerate_chains_from_store,
    latency_index_from_store,
    measure_chain_latencies,
    measure_chain_latencies_from_store,
    measure_waiting_times,
    measure_waiting_times_from_store,
    node_loads,
    node_loads_from_store,
)
from repro.analysis import fragments as fragments_module
from repro.analysis.fragments import (
    FragmentCache, FragmentWindow, _run_fragments, _RunFragment, _sharing,
)
from repro.analysis.latency import chain_latencies, fragments_are_separable
from repro.analysis import latency as latency_module
from repro.analysis import store as analysis_store_module
from repro.analysis.store import latency_fragment
from repro.analysis.latency import waiting_times
from repro.core import (
    dag_to_dict, dag_to_json, format_exec_table, synthesize_from_trace, to_dot,
)
from repro.core.pipeline import STRATEGY_MERGE_DAGS
from repro.cli import main as cli_main
from repro.core.index import (
    CODE_CB_END,
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_OTHER,
    CODE_TAKE,
    CODE_TAKE_RESPONSE,
    CODE_TIMER_CALL,
    PAYLOAD_FIELDS,
    PROBE_CODES,
    payload_fields,
)
from repro.experiments.batch import BatchConfig
from repro.experiments.runner import run_once
from repro.ros2 import Node
from repro.scenarios import build_scenario_spec, scenario_names
from repro.sim.kernel import MSEC, SEC
from repro.store import (
    SegmentReader,
    StoreFormatError,
    TraceStore,
    record_batch,
    write_segment,
)
from repro.store import index as index_module
from repro.store.format import HEADER, SECTION_ENTRY, SECTION_ROS, SEGMENT_SUFFIX
from repro.store.reader import peek_sections
from repro.store.index import (
    StoreTraceIndex, _runs_are_time_ordered, _spans_are_ordered, resolve_run,
)
from repro.store.synthesis import synthesize_from_store
from repro.tracing import TracingSession
from repro.tracing.events import (
    P2_TIMER_START,
    P3_TIMER_CALL,
    P4_TIMER_END,
    P9_SERVICE_START,
    P10_TAKE_REQUEST,
    P11_SERVICE_END,
    P16_DDS_WRITE,
    TraceEvent,
)
from repro.tracing.session import Trace
from repro.world import World
from segment_fixtures import write_as

DURATION_NS = int(1.0 * SEC)
RUNS = 2


class RowLoopLatencyIndex(LatencyIndex):
    """Frozen oracle: the single-pass row-loop constructor
    :class:`LatencyIndex` had before it was built from columns, kept
    verbatim, plus the PIDs and ``(topic, src_ts)`` keys chain journeys
    read (the ``_pids``/``_takers``/``_keys`` slots).  Consumes a chronological
    ``(ts, pid, code, payload)`` row stream and a ``(ts, pid)`` wakeup
    stream, appended in the order given."""

    __slots__ = ()

    def __init__(self, rows, wakeups=()):
        self._windows = {}
        self._writes = {}
        self._writes_by_topic = {}
        self._takes_by_key = {}
        self._takes_by_topic = {}
        self._cb_starts = {}
        pids = set()
        takers = set()
        keys = set()
        open_start = {}
        lead_end = {}
        rows = iter(rows)
        first = next(rows, None)
        ts = None
        if first is not None:
            for ts, pid, code, payload in chain((first,), rows):
                if code in (CODE_CB_START, CODE_CB_END, CODE_DDS_WRITE, CODE_TAKE):
                    pids.add(pid)
                if code in (CODE_DDS_WRITE, CODE_TAKE):
                    keys.add((payload.get("topic"), payload.get("src_ts")))
                if code == CODE_TAKE:
                    takers.add(pid)
                if code == CODE_CB_START:
                    open_start[pid] = ts
                    self._cb_starts.setdefault(pid, []).append(ts)
                elif code == CODE_CB_END:
                    start = open_start.pop(pid, None)
                    if start is not None:
                        self._windows.setdefault(pid, []).append((start, ts))
                    elif pid not in self._cb_starts:
                        lead_end.setdefault(pid, ts)
                elif code == CODE_DDS_WRITE:
                    topic = payload.get("topic")
                    src_ts = payload.get("src_ts")
                    self._writes.setdefault(pid, []).append((ts, topic, src_ts))
                    self._writes_by_topic.setdefault(topic, []).append((ts, src_ts))
                elif code == CODE_TAKE:
                    topic = payload.get("topic")
                    src_ts = payload.get("src_ts")
                    self._takes_by_key.setdefault((topic, src_ts), []).append((ts, pid))
                    self._takes_by_topic.setdefault(topic, []).append((ts, src_ts))
        #: (first, last) row timestamp, None for an empty stream.
        self._span = None if first is None else (first[0], ts)
        #: pid -> start of the CB instance still open at the stream end.
        self._open_tail = open_start
        #: pid -> ts of the first CB end seen before any CB start of the
        #: PID (the end of an instance begun before this stream).
        self._lead_end = lead_end
        #: per-PID window start arrays, computed once -- lookups are a
        #: bisect, never a per-call list rebuild.
        self._starts = {}
        for pid, windows in self._windows.items():
            if any(
                windows[i][0] > windows[i + 1][0]
                for i in range(len(windows) - 1)
            ):
                windows.sort(key=itemgetter(0))
            self._starts[pid] = [w[0] for w in windows]
        self._wakeups = {}
        for ts, pid in wakeups:
            self._wakeups.setdefault(pid, []).append(ts)
        self._pids = frozenset(pids)
        self._takers = frozenset(takers)
        self._keys = frozenset(keys)


def oracle_of_columns(columns, wakeups=((), ()), pids=None):
    """The oracle over resolved columns: the same rows, restricted to
    ``pids``, and the wakeups in stable ts order (the order the column
    constructor keeps per PID; the row loop appended them as given).
    Payload field tuples go back to the dicts the row loop reads."""
    rows = (
        (ts, pid, code, dict(zip(PAYLOAD_FIELDS, aux))
         if isinstance(aux, tuple) else aux)
        for ts, pid, code, aux in zip(*(column.tolist() for column in columns))
    )
    wake = sorted(zip(list(wakeups[0]), list(wakeups[1])), key=itemgetter(0))
    if pids is not None:
        rows = (row for row in rows if row[1] in pids)
        wake = [row for row in wake if row[1] in pids]
    return RowLoopLatencyIndex(rows, wake)


def oracle_of_trace(trace, pids=None):
    """The oracle over a loaded trace's events, in list order."""
    rows = (
        (event.ts, event.pid, PROBE_CODES.get(event.probe, CODE_OTHER), event.data)
        for event in trace.ros_events
        if pids is None or event.pid in pids
    )
    wake = sorted(
        (
            (event.ts, event.pid) for event in trace.wakeup_events
            if pids is None or event.pid in pids
        ),
        key=itemgetter(0),
    )
    return RowLoopLatencyIndex(rows, wake)


def assert_same_slots(index, oracle):
    for slot in LatencyIndex.__slots__:
        assert getattr(index, slot) == getattr(oracle, slot), slot


def columns_of(rows):
    """``(ts, pid, code, aux)`` rows as resolved column arrays, payload
    dicts projected to their field tuples."""
    aux = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows):
        aux[i] = payload_fields([row[3]])[0] if isinstance(row[3], dict) else row[3]
    return (
        np.array([row[0] for row in rows], dtype=np.int64),
        np.array([row[1] for row in rows], dtype=np.int32),
        np.array([row[2] for row in rows], dtype=np.uint8),
        aux,
    )


def _reference_traces(name):
    """The in-memory traces the store contents reproduce (built exactly
    as the record workers build them)."""
    config = BatchConfig(duration_ns=DURATION_NS)
    traces = []
    for run_index in range(RUNS):
        spec = build_scenario_spec(
            name, run_index=run_index, runs=RUNS, duration_ns=DURATION_NS
        )
        run_config = config.run_config(DURATION_NS, spec.num_cpus)
        traces.append(
            run_once(
                lambda world, i, spec=spec: spec.build(world),
                run_config,
                run_index=run_index,
            ).trace
        )
    return traces


def _write_topics(trace):
    """Every topic the merged trace publishes on, in first-seen order."""
    topics = []
    for event in trace.ros_events:
        if PROBE_CODES.get(event.probe) == CODE_DDS_WRITE:
            topic = event.data.get("topic")
            if topic not in topics:
                topics.append(topic)
    return topics


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Recorded store + merged in-memory reference, per scenario."""
    root = tmp_path_factory.mktemp("analysis_stores")
    result = {}
    for name in scenario_names():
        directory = str(root / name)
        record_batch(
            name, runs=RUNS, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        merged = Trace.merge(_reference_traces(name))
        result[name] = (TraceStore(directory), merged)
    return result


class TestModelReportEquivalence:
    """DAG-based analyses: store path == in-memory path, all scenarios."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_chains_identical(self, stores, name):
        store, merged = stores[name]
        expected = enumerate_chains(synthesize_from_trace(merged))
        actual = enumerate_chains_from_store(store)
        assert [c.keys for c in actual] == [c.keys for c in expected], name

    @pytest.mark.parametrize("name", scenario_names())
    def test_activation_models_identical(self, stores, name):
        store, merged = stores[name]
        expected = activation_models(synthesize_from_trace(merged))
        assert activation_models_from_store(store) == expected, name

    @pytest.mark.parametrize("name", scenario_names())
    def test_loads_identical(self, stores, name):
        store, merged = stores[name]
        dag = synthesize_from_trace(merged)
        assert callback_loads_from_store(store) == callback_loads(dag), name
        assert node_loads_from_store(store) == node_loads(dag), name


class TestLatencyEquivalence:
    """Trace-based analyses: the streamed index == the in-memory index,
    value for value, on every published topic of every scenario."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_communication_latencies_identical(self, stores, name):
        store, merged = stores[name]
        topics = _write_topics(merged)
        assert topics, name
        for topic in topics:
            assert communication_latencies_from_store(
                store, topic
            ) == communication_latencies(merged, topic), (name, topic)

    @pytest.mark.parametrize("name", scenario_names())
    def test_single_hop_chain_latencies_identical(self, stores, name):
        store, merged = stores[name]
        for topic in _write_topics(merged):
            expected = measure_chain_latencies(merged, [topic])
            actual = measure_chain_latencies_from_store(store, [topic])
            assert actual == expected, (name, topic)

    @pytest.mark.parametrize("name", scenario_names())
    def test_two_hop_chain_latencies_identical(self, stores, name):
        store, merged = stores[name]
        topics = _write_topics(merged)
        for pair in zip(topics, topics[1:]):
            expected = measure_chain_latencies(merged, list(pair))
            actual = measure_chain_latencies_from_store(store, list(pair))
            assert actual == expected, (name, pair)

    @pytest.mark.parametrize("name", scenario_names())
    def test_index_lookup_structures_identical(self, stores, name):
        """The streamed index's public lookups agree with the in-memory
        index on every topic and PID."""
        store, merged = stores[name]
        streamed = latency_index_from_store(store)
        reference = LatencyIndex.from_trace(merged)
        for topic in _write_topics(merged):
            assert streamed.writes_on(topic) == reference.writes_on(topic)
            assert streamed.takes_on(topic) == reference.takes_on(topic)
        for pid in merged.pid_map:
            assert streamed.cb_starts(pid) == reference.cb_starts(pid), (
                name, pid,
            )

    def test_pid_filter_restricts_index(self, stores):
        store, merged = stores["syn"]
        pids = sorted(merged.pid_map)
        keep, drop = pids[0], pids[-1]
        filtered = latency_index_from_store(store, pids=[keep])
        full = latency_index_from_store(store)
        assert filtered.cb_starts(keep) == full.cb_starts(keep)
        assert filtered.cb_starts(drop) == []
        assert filtered.window_containing(drop, merged.stop_ts // 2) is None


class TestStoreAnalysisHandle:
    def test_reports_share_one_synthesis(self, stores):
        store, merged = stores["syn"]
        analysis = StoreAnalysis(store)
        dag = analysis.dag
        assert analysis.dag is dag  # cached, not re-synthesized
        assert dag_to_json(dag) == dag_to_json(synthesize_from_trace(merged))
        assert [c.keys for c in analysis.chains()] == [
            c.keys for c in enumerate_chains(dag)
        ]

    def test_one_segment_open_per_run(self, stores, monkeypatch, cache):
        """Synthesis and the latency index share one set of readers:
        the model plus latency and waiting-time reports open each
        segment once (a work count, no timing).  From an empty fragment
        cache, so the handle builds in batch: a cache hit opens
        nothing (:class:`TestWarmHandleWork`)."""
        store, merged = stores["syn"]
        opened = []
        original = SegmentReader.open.__func__

        def counting_open(cls, path, use_mmap=False):
            opened.append(path)
            return original(cls, path, use_mmap)

        monkeypatch.setattr(SegmentReader, "open", classmethod(counting_open))
        analysis = StoreAnalysis(store.directory)
        analysis.dag
        analysis.chain_latencies(_write_topics(merged)[:2])
        analysis.waiting_times(sorted(merged.pid_map)[0])
        assert len(opened) == len(store.run_ids()) == RUNS

    @pytest.mark.parametrize("overlapping", [False, True])
    def test_one_resolve_per_run(
        self, stores, overlapping, tmp_path, monkeypatch, cache
    ):
        """Synthesis and the latency index share each run's resolved
        columns: from an empty fragment cache, the model plus latency
        and waiting-time reports resolve each segment once, whether the
        runs are time-ordered or overlap (one merged build), and
        whether the handle builds in batch (the first) or builds every
        run's fragment (the second)."""
        store, merged = stores["syn"]
        if overlapping:
            for run_id in store.run_ids():
                trace = _shifted_to_zero(store.load(run_id))
                write_segment(trace, str(tmp_path / f"{run_id}.trace.bin"))
            store = TraceStore(str(tmp_path))
            assert not _runs_are_time_ordered(store.readers())
        resolved = []
        original = index_module._resolve

        def counting_resolve(columns):
            resolved.append(columns)
            return original(columns)

        monkeypatch.setattr(index_module, "_resolve", counting_resolve)
        monkeypatch.setattr(analysis_store_module, "_resolve", counting_resolve)
        for _ in range(2):
            resolved.clear()
            analysis = StoreAnalysis(store.directory)
            analysis.dag
            analysis.chain_latencies(_write_topics(merged)[:2])
            analysis.waiting_times(sorted(merged.pid_map)[0])
            assert len(resolved) == len(store.run_ids()) == RUNS
        assert len(cache) == (0 if overlapping else RUNS)

    def test_fresh_analysis_never_imports_numpy_ma(self, stores):
        """The builds' distinct-value scans sort and mask instead of
        calling ``np.unique``, which imports ``numpy.ma`` (~12 ms) on
        its first call in a process: a fresh interpreter's model and
        chain-latency report leave it unimported."""
        store, _ = stores["syn"]
        script = "\n".join([
            "import sys",
            "from repro.analysis import StoreAnalysis",
            f"analysis = StoreAnalysis({store.directory!r})",
            "analysis.dag",
            "assert analysis.chain_latencies(['/t1'])",
            "print('numpy.ma' in sys.modules)",
        ])
        result = subprocess.run(
            [sys.executable, "-c", script],
            check=True, capture_output=True, text=True,
        )
        assert result.stdout.strip() == "False"

    def test_accepts_directory_path(self, stores):
        store, _ = stores["syn"]
        by_path = StoreAnalysis(store.directory)
        by_handle = StoreAnalysis(store)
        assert dag_to_json(by_path.dag) == dag_to_json(by_handle.dag)


class TestWaitingTimesFromStore:
    """Wakeup streams survive the store round trip -- including the
    cross-run merge (record_batch itself never records wakeups, so the
    store is built directly from wakeup-recording sessions)."""

    @staticmethod
    def _wakeup_trace(seed):
        world = World(num_cpus=1, seed=seed)
        node = Node(world, "n")
        node.create_timer(
            50 * MSEC, lambda api, msg: (yield api.compute(5 * MSEC))
        )
        rival = Node(world, "rival", priority=10)
        rival.create_timer(
            20 * MSEC, lambda api, msg: (yield api.compute(10 * MSEC))
        )
        session = TracingSession(world, record_wakeups=True)
        session.start_init()
        world.launch()
        world.run(for_ns=MSEC)
        session.stop_init()
        session.start_runtime()
        world.run(for_ns=2 * SEC)
        session.stop_runtime()
        return session.trace(), node.pid

    def test_waiting_times_identical(self, tmp_path):
        trace, pid = self._wakeup_trace(seed=5)
        store = TraceStore.create(str(tmp_path / "wakeups"))
        store.add_trace("run000", trace)
        expected = measure_waiting_times(trace, pid)
        assert expected  # the scenario produces real contention
        assert measure_waiting_times_from_store(store, pid) == expected

    def test_out_of_order_wakeups(self, tmp_path):
        """``waiting_times`` bisects a PID's wakeups: a wakeup list out
        of ts order must give the waiting times of the sorted list, in
        memory and from the store alike."""
        trace, pid = self._wakeup_trace(seed=5)
        wakeups = trace.wakeup_events
        assert len({(w.pid, w.ts) for w in wakeups}) == len(wakeups)
        half = len(wakeups) // 2
        rotated = dataclasses.replace(
            trace, wakeup_events=wakeups[half:] + wakeups[:half]
        )
        expected = measure_waiting_times(trace, pid)
        assert measure_waiting_times(rotated, pid) == expected
        store = TraceStore.create(str(tmp_path / "rotated"))
        store.add_trace("run000", rotated)
        assert measure_waiting_times_from_store(store, pid) == expected

    def test_multi_run_wakeup_merge(self, tmp_path):
        """Two overlapping runs (both start near t=0) force the merged
        build for rows and wakeups alike."""
        t1, pid1 = self._wakeup_trace(seed=5)
        t2, _ = self._wakeup_trace(seed=6)
        store = TraceStore.create(str(tmp_path / "wakeups2"))
        store.add_trace("run000", t1)
        store.add_trace("run001", t2)
        merged = Trace.merge([t1, t2])
        assert measure_waiting_times_from_store(store, pid1) == (
            measure_waiting_times(merged, pid1)
        )
        index = latency_index_from_store(store)
        reference = LatencyIndex.from_trace(merged)
        for pid in merged.pid_map:
            assert index.wakeups(pid) == reference.wakeups(pid)
            assert index.cb_starts(pid) == reference.cb_starts(pid)


# -- the column constructor against the frozen row loop ---------------------

_CODES = (
    CODE_OTHER, CODE_CB_START, CODE_CB_END, CODE_DDS_WRITE, CODE_TAKE,
    CODE_TIMER_CALL,
)

#: payloads with the correlation keys present or missing.
_payloads = st.fixed_dictionaries(
    {},
    optional={
        "topic": st.sampled_from(["/a", "/b"]),
        "src_ts": st.integers(min_value=0, max_value=3),
    },
)


@st.composite
def _streams(draw):
    """A multi-PID row stream on a narrow clock (equal timestamps),
    chronological or in any order, plus an unordered wakeup stream."""
    drawn = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=4),
            st.sampled_from(_CODES),
            _payloads,
        ),
        max_size=40,
    ))
    rows = []
    for ts, pid, code, payload in drawn:
        if code == CODE_CB_START:
            aux = "timer"
        elif code in (CODE_DDS_WRITE, CODE_TAKE, CODE_TIMER_CALL):
            aux = payload
        else:
            aux = None
        rows.append((ts, pid, code, aux))
    if draw(st.booleans()):
        rows.sort(key=itemgetter(0))  # stable: the readers' order
    wakeups = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=12,
    ))
    return rows, wakeups


def _wakeup_columns(wakeups):
    return [ts for ts, _ in wakeups], [pid for _, pid in wakeups]


#: PID 1 starts twice before its end, PID 2 ends before any start, PID 3
#: is left open; the write and take lack their keys.
_EDGE_ROWS = [
    (1, 1, CODE_CB_START, "timer"),
    (1, 2, CODE_CB_END, None),
    (2, 1, CODE_CB_START, "timer"),
    (2, 3, CODE_CB_START, "timer"),
    (3, 1, CODE_DDS_WRITE, {}),
    (3, 2, CODE_TAKE, {"topic": "/a"}),
    (4, 1, CODE_CB_END, None),
    (4, 2, CODE_CB_START, "timer"),
    (5, 2, CODE_CB_END, None),
]
_EDGE_WAKEUPS = [(3, 1), (0, 1), (2, 2)]


class TestColumnsMatchRowLoop:
    """Every slot of the column-built index equals the frozen row loop
    over the same stream (wakeups in stable ts order)."""

    @given(stream=_streams())
    @example(stream=(_EDGE_ROWS, _EDGE_WAKEUPS))
    @settings(max_examples=200, deadline=None)
    def test_whole_stream(self, stream):
        rows, wakeups = stream
        columns = columns_of(rows)
        wake = _wakeup_columns(wakeups)
        assert_same_slots(
            LatencyIndex(columns, wake), oracle_of_columns(columns, wake)
        )

    @given(
        stream=_streams(),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=4),
    )
    @example(stream=(_EDGE_ROWS, _EDGE_WAKEUPS), cuts=[1, 3, 7])
    @example(stream=(_EDGE_ROWS, _EDGE_WAKEUPS), cuts=[8])
    @settings(max_examples=200, deadline=None)
    def test_concat_over_cut_points(self, stream, cuts):
        rows, wakeups = stream
        columns = columns_of(rows)
        wake = _wakeup_columns(wakeups)
        bounds = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
        wake_bounds = [0, *sorted(min(cut, len(wakeups)) for cut in cuts),
                       len(wakeups)]
        parts = [
            LatencyIndex(
                tuple(column[lo:hi] for column in columns),
                (wake[0][wlo:whi], wake[1][wlo:whi]),
            )
            for lo, hi, wlo, whi in zip(
                bounds, bounds[1:], wake_bounds, wake_bounds[1:]
            )
        ]
        assert_same_slots(
            LatencyIndex.concat(parts), oracle_of_columns(columns, wake)
        )

    @given(
        stream=_streams(),
        pids=st.frozensets(st.integers(min_value=1, max_value=5)),
    )
    @example(stream=(_EDGE_ROWS, _EDGE_WAKEUPS), pids=frozenset({1, 2}))
    @settings(max_examples=200, deadline=None)
    def test_pid_filter(self, stream, pids):
        rows, wakeups = stream
        columns = columns_of(rows)
        wake = _wakeup_columns(wakeups)
        assert_same_slots(
            LatencyIndex(columns, wake, pids),
            oracle_of_columns(columns, wake, pids),
        )


def _shifted_to_zero(trace):
    """The run on a clock starting at 0, so runs overlap in time."""
    start = trace.start_ts
    return dataclasses.replace(
        trace,
        ros_events=[e._replace(ts=e.ts - start) for e in trace.ros_events],
        sched_events=[e._replace(ts=e.ts - start) for e in trace.sched_events],
        wakeup_events=[e._replace(ts=e.ts - start) for e in trace.wakeup_events],
        start_ts=0,
        stop_ts=trace.stop_ts - start,
    )


class TestScenariosMatchRowLoop:
    """The store-built index equals the frozen row loop over the merged
    trace on every scenario, whether the runs are time-ordered (per-run
    fragments concatenated) or overlap (one merged build)."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_time_ordered_store(self, stores, name):
        store, merged = stores[name]
        assert _runs_are_time_ordered(store.readers())
        oracle = oracle_of_trace(merged)
        assert_same_slots(latency_index_from_store(store), oracle)
        assert_same_slots(StoreAnalysis(store).index, oracle)

    @pytest.mark.parametrize("name", scenario_names())
    def test_overlapping_store(self, stores, name, tmp_path):
        store, _ = stores[name]
        traces = [_shifted_to_zero(store.load(run_id)) for run_id in store.run_ids()]
        for run_id, trace in zip(store.run_ids(), traces):
            write_segment(trace, str(tmp_path / f"{run_id}.trace.bin"))
        overlapping = TraceStore(str(tmp_path))
        assert not _runs_are_time_ordered(overlapping.readers())
        merged = Trace.merge(traces)
        oracle = oracle_of_trace(merged)
        assert_same_slots(latency_index_from_store(overlapping), oracle)
        assert_same_slots(StoreAnalysis(overlapping).index, oracle)
        keep = frozenset(sorted(merged.pid_map)[::2])
        assert_same_slots(
            latency_index_from_store(overlapping, pids=keep),
            oracle_of_trace(merged, keep),
        )


# -- per-run chain journeys ----------------------------------------------------


def _chains(topics):
    """One-, two- and three-hop chains over consecutive published
    topics."""
    return [
        list(topics[i:i + hops])
        for hops in (1, 2, 3)
        for i in range(len(topics) - hops + 1)
    ]


def _journey_fragment(base, writer, reader, taker, src_ts=None, **flags):
    """One run at clock ``base``: ``writer``'s timer writes ``/a``,
    ``reader`` takes it and writes ``/b``, ``taker`` takes that; PID 0
    (the publishers outside the traced nodes) writes ``/ext`` in every
    run.  ``flags`` break the run apart from its neighbours:
    ``open_take`` leaves ``reader``'s callback open after its take,
    ``lead_end`` opens the run with a ``reader`` callback end, and
    ``take_only`` makes the run a lone ``reader`` take of ``/a``
    stamped ``src_ts``."""
    src = base if src_ts is None else src_ts
    if flags.get("take_only"):
        rows = [
            (base, reader, CODE_CB_START, "sub"),
            (base + 1, reader, CODE_TAKE, {"topic": "/a", "src_ts": src_ts}),
            (base + 2, reader, CODE_CB_END, None),
        ]
    elif flags.get("lead_end"):
        rows = [(base, reader, CODE_CB_END, None)]
    else:
        rows = [
            (base, writer, CODE_CB_START, "timer"),
            (base + 1, writer, CODE_DDS_WRITE, {"topic": "/a", "src_ts": src}),
            (base + 2, writer, CODE_CB_END, None),
            (base + 3, reader, CODE_CB_START, "sub"),
            (base + 4, reader, CODE_TAKE, {"topic": "/a", "src_ts": src}),
        ]
        if not flags.get("open_take"):
            rows += [
                (base + 5, reader, CODE_DDS_WRITE, {"topic": "/b", "src_ts": src + 5}),
                (base + 6, reader, CODE_CB_END, None),
                (base + 7, taker, CODE_CB_START, "sub"),
                (base + 8, taker, CODE_TAKE, {"topic": "/b", "src_ts": src + 5}),
                (base + 9, taker, CODE_CB_END, None),
            ]
    rows.append((base + 10, 0, CODE_DDS_WRITE, {"topic": "/ext", "src_ts": base}))
    return LatencyIndex(columns_of(rows))


def _window_of(fragments):
    """A window over bare latency fragments: its latency queries read
    no other part of a run's fragment."""
    return FragmentWindow(
        [_RunFragment(0, None, fragment, None) for fragment in fragments]
    )


#: Two runs each: apart, then breaking one separability condition.
_FRAGMENT_CASES = {
    "separable": [
        _journey_fragment(0, 1, 2, 3), _journey_fragment(100, 4, 5, 6),
    ],
    # PID 2 takes in run000 inside a callback run001 closes.
    "shared_pid": [
        _journey_fragment(0, 1, 2, 3, open_take=True),
        _journey_fragment(100, 4, 2, 6, lead_end=True),
    ],
    # run001 takes the /a sample run000 wrote.
    "cross_run_key": [
        _journey_fragment(0, 1, 2, 3, open_take=True),
        _journey_fragment(100, 4, 5, 6, src_ts=0, take_only=True),
    ],
    # Samples without a source timestamp share the key (/a, None).
    "none_src_ts": [
        LatencyIndex(columns_of([
            (0, 1, CODE_CB_START, "timer"),
            (1, 1, CODE_DDS_WRITE, {"topic": "/a"}),
            (2, 1, CODE_CB_END, None),
        ])),
        _journey_fragment(100, 4, 5, 6, take_only=True),
    ],
    "overlapping_spans": [
        _journey_fragment(0, 1, 2, 3), _journey_fragment(5, 4, 5, 6),
    ],
}


@st.composite
def _instance_streams(draw):
    """A run of whole callback instances, one after another: each a CB
    start, writes and takes of ``/a`` and ``/b`` keyed by a small
    ``src_ts``, and a CB end unless the instance is left open; the run
    may open with a CB end (an instance begun in an earlier run)."""
    rows = []
    if draw(st.booleans()):
        rows.append((0, draw(st.integers(1, 3)), CODE_CB_END, None))
    ts = 1
    for _ in range(draw(st.integers(0, 5))):
        pid = draw(st.integers(1, 3))
        rows.append((ts, pid, CODE_CB_START, "sub"))
        for code, topic, src_ts in draw(st.lists(
            st.tuples(
                st.sampled_from([CODE_DDS_WRITE, CODE_TAKE]),
                st.sampled_from(["/a", "/b"]),
                st.integers(0, 2),
            ),
            max_size=3,
        )):
            ts += 1
            rows.append((ts, pid, code, {"topic": topic, "src_ts": src_ts}))
        ts += 1
        if draw(st.booleans()) or draw(st.booleans()):
            rows.append((ts, pid, CODE_CB_END, None))
        ts += 1
    return rows


class TestFragmentJourneys:
    """``chain_latencies`` over per-run fragments equals the result over
    their concatenation; it follows each run on its own only when
    ``fragments_are_separable`` holds."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_registry_windows(self, stores, name):
        store, merged = stores[name]
        fragments = [latency_fragment(reader) for reader in store.readers()]
        assert len(fragments) == RUNS
        assert fragments_are_separable(fragments)
        whole = LatencyIndex.concat(fragments)
        analysis = StoreAnalysis(store)
        found = 0
        for chain in _chains(_write_topics(merged)):
            expected = chain_latencies(whole, chain)
            assert chain_latencies(fragments, chain) == expected, chain
            assert chain_latencies(fragments, chain, 2) == expected[:2]
            window = _window_of(fragments)
            for _ in range(2):  # fills the slots, then reads them
                assert window.chain_latencies(chain) == expected
                assert all(
                    run.journeys is not None and run.journeys[0] == tuple(chain)
                    for run in window.fragments
                )
            assert analysis.chain_latencies(chain) == (
                measure_chain_latencies(merged, chain)
            )
            found += len(expected)
        assert found

    @pytest.mark.parametrize("case", sorted(_FRAGMENT_CASES))
    def test_each_condition_takes_the_fallback(self, case):
        fragments = _FRAGMENT_CASES[case]
        assert fragments_are_separable(fragments) == (case == "separable")
        whole = LatencyIndex.concat(fragments)
        for chain in (["/a"], ["/a", "/b"], ["/ext"]):
            expected = chain_latencies(whole, chain)
            assert chain_latencies(fragments, chain) == expected
            window = _window_of(fragments)
            assert window.separable == (case == "separable")
            # A window of runs that overlap in time follows one index
            # over their merged columns, read from their segments: these
            # runs have none.  The fragments' own path is the line above.
            if case != "overlapping_spans":
                assert window.chain_latencies(chain) == expected
            assert any(
                run.journeys is not None for run in window.fragments
            ) == (case == "separable")
        if case in ("shared_pid", "cross_run_key", "none_src_ts"):
            # A journey crosses the runs: run by run would miss it.
            per_run = [
                latency
                for fragment in fragments
                for latency in chain_latencies(fragment, ["/a"])
            ]
            assert per_run != chain_latencies(whole, ["/a"])

    @given(parts=st.lists(
        st.tuples(
            _instance_streams(), st.booleans(), st.booleans(),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=4,
    ))
    @example(parts=[  # PID 2's take sits in a callback the next run ends
        (
            [
                (1, 1, CODE_CB_START, "timer"),
                (2, 1, CODE_DDS_WRITE, {"topic": "/a", "src_ts": 0}),
                (3, 1, CODE_CB_END, None),
                (4, 2, CODE_CB_START, "sub"),
                (5, 2, CODE_TAKE, {"topic": "/a", "src_ts": 0}),
            ],
            False, False, 0,
        ),
        ([(0, 2, CODE_CB_END, None)], False, True, 1),
    ])
    @settings(max_examples=300, deadline=None)
    def test_random_fragments_match_concat(self, parts):
        """Each part is a random run on its own PIDs, keys and clock --
        or sharing them with the other parts -- so both paths run, and
        journeys cross the parts that share."""
        fragments = []
        for k, (rows, own_pids, own_keys, clock) in enumerate(parts):
            moved = []
            for ts, pid, code, aux in rows:
                if own_keys and isinstance(aux, dict):
                    aux = {**aux, "src_ts": aux["src_ts"] + 100 * k}
                moved.append((
                    ts + 50 * k * clock, pid + 10 * k * own_pids, code, aux,
                ))
            fragments.append(LatencyIndex(columns_of(moved)))
        whole = LatencyIndex.concat(fragments)
        # Runs that overlap in time: see test_each_condition_takes_the_fallback.
        ordered = _spans_are_ordered(fragment.span for fragment in fragments)
        for chain in (["/a"], ["/a", "/b"], ["/b", "/a"]):
            expected = chain_latencies(whole, chain)
            assert chain_latencies(fragments, chain) == expected
            if ordered:
                assert _window_of(fragments).chain_latencies(chain) == expected


# ---------------------------------------------------------------------------
# The fragment cache: a fresh handle equals a cache-free build
# ---------------------------------------------------------------------------


POOL_RUNS = 3


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """Three recorded runs per scenario: the arrivals of a sliding
    window."""
    root = tmp_path_factory.mktemp("fragment_pools")
    result = {}
    for name in scenario_names():
        directory = str(root / name)
        record_batch(
            name, runs=POOL_RUNS, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        result[name] = TraceStore(directory)
    return result


def _copy_run(source, run_id, directory, as_id=None):
    shutil.copyfile(
        source.path_of(run_id),
        os.path.join(directory, f"{as_id or run_id}{SEGMENT_SUFFIX}"),
    )


def _queries(store):
    """Chains (every published topic, and consecutive pairs) and PIDs
    the outputs below are taken over."""
    merged = Trace.merge([store.load(run_id) for run_id in store.run_ids()])
    topics = _write_topics(merged)
    chains = [[topic] for topic in topics] + [list(p) for p in zip(topics, topics[1:])]
    return chains, sorted(merged.pid_map)


def _outputs(dag, chain_of, waits_of, chains, pids):
    return (
        dag_to_json(dag, indent=2),
        to_dot(dag),
        format_exec_table(dag),
        [chain_of(chain) for chain in chains],
        [waits_of(pid) for pid in pids],
    )


def _assert_matches_cache_free(directory, expected=None, **options):
    """A fresh :class:`StoreAnalysis` over ``directory`` (a path, or a
    :class:`TraceStore` handle) equals the cache-free batch builds --
    ``synthesize_from_store`` and ``latency_index_from_store`` -- over
    the ``expected`` store (default: the same one) on the DAG JSON,
    DOT, exec table, chain latencies, waiting times and every index
    slot."""
    if expected is None:
        expected = directory
    store = TraceStore(expected) if isinstance(expected, str) else expected
    chains, pids = _queries(store)
    analysis = StoreAnalysis(directory, **options)
    reference_dag = synthesize_from_store(store, **options)
    reference = latency_index_from_store(store, pids=options.get("pids"))
    assert _outputs(
        analysis.dag, analysis.chain_latencies, analysis.waiting_times,
        chains, pids,
    ) == _outputs(
        reference_dag,
        lambda chain: chain_latencies(reference, chain),
        lambda pid: waiting_times(reference, pid),
        chains, pids,
    )
    assert_same_slots(analysis.index, reference)
    return analysis


@pytest.fixture
def cache(monkeypatch):
    """A fresh fragment cache in place of the process-wide one."""
    fresh = FragmentCache()
    monkeypatch.setattr(analysis_store_module, "FRAGMENTS", fresh)
    return fresh


@pytest.fixture
def built(monkeypatch, cache):
    """The fragments each handle builds, from a fresh cache: one entry
    per run a :func:`_run_fragments` call builds, and the walks in
    ``built.walks``."""
    calls = BuiltFragments()
    original = analysis_store_module._run_fragments

    def counting(runs, sharings, split_services):
        calls.extend(run.reader.path for run in runs)
        calls.walks += 1
        return original(runs, sharings, split_services)

    monkeypatch.setattr(analysis_store_module, "_run_fragments", counting)
    return calls


class BuiltFragments(list):
    """The segment paths of the fragments built, and the walks that
    built them."""

    walks = 0


def _segment(directory, run_id):
    return os.path.join(directory, f"{run_id}{SEGMENT_SUFFIX}")


class TestFragmentCache:
    """:class:`StoreAnalysis` builds from cached per-run fragments once
    a handle shares runs with the previous one, and a fresh handle
    always equals a cache-free build."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_sliding_window(self, pools, name, built, tmp_path):
        """Record a run, drop the oldest: each step equals the cache-free
        build.  The first handle builds in batch, the second -- the
        first to share a run with the previous one -- builds both runs'
        fragments, and every later one only the arriving run's."""
        pool = pools[name]
        window = str(tmp_path / "window")
        os.makedirs(window)
        for step, run_id in enumerate(pool.run_ids()):
            _copy_run(pool, run_id, window)
            if step >= 2:
                os.remove(_segment(window, f"run{step - 2:03d}"))
            assert _runs_are_time_ordered(TraceStore(window).readers())
            built.clear()
            _assert_matches_cache_free(window)
            expected = [_segment(window, run_id)]
            if step == 0:
                expected = []
            elif step == 1:
                expected = [_segment(window, "run000"), *expected]
            assert built == expected, (name, step)

    def test_rewritten_run_is_rebuilt(self, pools, built, tmp_path):
        pool = pools["syn"]
        directory = str(tmp_path)
        for run_id in pool.run_ids()[:2]:
            _copy_run(pool, run_id, directory)
        _assert_matches_cache_free(directory)
        _assert_matches_cache_free(directory)
        assert len(built) == 2
        _copy_run(pool, "run002", directory, as_id="run001")
        built.clear()
        _assert_matches_cache_free(directory)
        assert built == [_segment(directory, "run001")]

    def test_one_segment_under_two_run_ids(self, pools, built, tmp_path):
        pool = pools["syn"]
        directory = str(tmp_path)
        _copy_run(pool, "run000", directory)
        _copy_run(pool, "run000", directory, as_id="run001")
        for _ in range(2):
            _assert_matches_cache_free(directory)
        assert built == []  # the runs overlap: batch

    def test_overlapping_store_builds_in_batch(self, pools, built, tmp_path):
        pool = pools["avp"]
        for run_id in pool.run_ids():
            write_segment(
                _shifted_to_zero(pool.load(run_id)),
                _segment(str(tmp_path), run_id),
            )
        assert not _runs_are_time_ordered(TraceStore(str(tmp_path)).readers())
        for _ in range(2):
            _assert_matches_cache_free(str(tmp_path))
        assert built == []

    def test_service_sharing_store_falls_back_to_batch(
        self, built, tmp_path, monkeypatch
    ):
        """run000 and run001 send their request under one ``(topic,
        src_ts)`` key: their fragments cannot assemble the window, so
        a second handle's model is the batch synthesis over its readers
        too, and no fragment is built."""
        store = TraceStore.create(str(tmp_path))
        store.add_trace("run000", _service_run(0, 1, 2, src_ts=5))
        store.add_trace("run001", _service_run(1000, 3, 4, src_ts=5))
        batch = []
        synthesize = analysis_store_module._synthesize_readers

        def counting(*args, **kwargs):
            batch.append(args)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(analysis_store_module, "_synthesize_readers", counting)
        for _ in range(2):
            _assert_matches_cache_free(str(tmp_path))
        assert built == [] and len(batch) == 2

    @pytest.mark.parametrize("options", [
        {"pids": "half"}, {"strategy": STRATEGY_MERGE_DAGS},
    ])
    def test_pids_and_merge_dags_bypass_the_cache(
        self, stores, built, cache, options
    ):
        store, merged = stores["syn"]
        if options.get("pids") == "half":
            options = {"pids": sorted(merged.pid_map)[::2]}
        for _ in range(2):  # the cache now holds the store's runs
            StoreAnalysis(store).dag
        held = len(cache)
        assert held == RUNS
        built.clear()
        _assert_matches_cache_free(store.directory, **options)
        assert built == [] and len(cache) == held
        StoreAnalysis(store).dag  # still the previous handle's runs
        assert built == []

    def test_handle_sharing_no_run_builds_in_batch(
        self, pools, built, cache, capsys
    ):
        """A handle that shares no run with the previous one -- a
        store's first, ``repro analyze``'s, a one-shot front end's --
        builds in batch, keeps no fragment and lets the previous
        handle's fragments go."""
        syn, avp = pools["syn"], pools["avp"]
        assert cli_main(["analyze", syn.directory]) == 0
        assert "== chains" in capsys.readouterr().out
        assert built == [] and len(cache) == 0
        enumerate_chains_from_store(syn)  # the second handle over syn
        assert len(built) == POOL_RUNS and len(cache) == POOL_RUNS
        built.clear()
        activation_models_from_store(avp)
        assert built == [] and len(cache) == 0
        callback_loads_from_store(syn)
        assert built == [] and len(cache) == 0

    def test_threads_analysing_different_stores(self, pools):
        """Threads (more than cores) analysing different stores at once,
        each handle fresh, every build equal to its store's cache-free
        build, with thread switches forced often."""
        names = ("syn", "avp", "service-mesh")
        expected = {}
        for name in names:
            directory = pools[name].directory
            chains, pids = _queries(pools[name])
            dag = synthesize_from_store(pools[name])
            index = latency_index_from_store(pools[name])
            expected[name] = (chains, pids, _outputs(
                dag,
                lambda chain, index=index: chain_latencies(index, chain),
                lambda pid, index=index: waiting_times(index, pid),
                chains, pids,
            ))
        start = threading.Barrier(len(names), timeout=60)
        failures = []

        def analyse(name):
            chains, pids, reference = expected[name]
            start.wait()
            try:
                for _ in range(4):
                    analysis = StoreAnalysis(pools[name].directory)
                    outputs = _outputs(
                        analysis.dag, analysis.chain_latencies,
                        analysis.waiting_times, chains, pids,
                    )
                    if outputs != reference:
                        failures.append(name)
            except Exception as error:  # reported below
                failures.append(repr(error))

        threads = [threading.Thread(target=analyse, args=(n,)) for n in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    @pytest.mark.parametrize("name", scenario_names())
    def test_cold_window_is_one_walk(self, pools, name, built):
        """The first handle to share the window's runs with the previous
        one builds every run's fragment from one walk, and each equals
        the fragment its run alone gives."""
        pool = pools[name]
        _assert_matches_cache_free(pool.directory)
        assert built == []
        analysis = _assert_matches_cache_free(pool.directory)
        assert built == [_segment(pool.directory, run_id) for run_id in pool.run_ids()]
        assert built.walks == 1
        window = analysis._runs.window
        for reader, fragment in zip(analysis._readers, window.fragments):
            resolved = resolve_run(reader)
            [alone] = _run_fragments([resolved], [_sharing(resolved)], True)
            assert fragment.fold == alone.fold
            assert list(fragment.fold.vertices) == list(alone.fold.vertices)
            assert fragment.sharing == alone.sharing
            index = StoreTraceIndex([reader], resolved=[resolved])
            assert fragment.sharing.touched == fragment.sharing.stateful.union(
                index.pids(), index.sched.pids()
            )
            assert_same_slots(fragment.latency, alone.latency)


    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("damage", ["cut", "ts_bit"])
    def test_garbled_run_in_a_warm_window(
        self, pools, built, tmp_path, damage, strict
    ):
        """A run garbled once the window's fragments are cached has new
        bytes, so it is a miss: opened and resolved as a cold build
        opens and resolves it.  A cut fails the open, a flipped bit in
        the ROS ts column the resolve.  ``strict=True`` raises naming
        the run; ``strict=False`` skips it with a warning, and the
        handle equals the cache-free build over the other runs, from
        the cached fragments of those."""
        pool = pools["syn"]
        window = str(tmp_path / "window")
        others = str(tmp_path / "others")
        os.makedirs(window)
        os.makedirs(others)
        for run_id in pool.run_ids():
            _copy_run(pool, run_id, window)
            if run_id != "run001":
                _copy_run(pool, run_id, others)
        for _ in range(2):
            _assert_matches_cache_free(window)
        built.clear()
        path = _segment(window, "run001")
        if damage == "cut":
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(data[: len(data) * 2 // 3])
        else:
            # Bit 62 of row 10 of the ROS ts column, in an uncompressed
            # copy: the open passes, the resolve fails.
            write_segment(pool.load("run001"), path, compress=False)
            entries = peek_sections(path)
            [ros_ts] = [
                entry for entry in entries
                if (entry.kind, entry.index) == (SECTION_ROS, 0)
            ]
            row = (
                HEADER.size + 4 + len(entries) * SECTION_ENTRY.size
                + ros_ts.offset + 8 * 10
            )
            with open(path, "r+b") as handle:
                handle.seek(row)
                (ts,) = struct.unpack("<q", handle.read(8))
                handle.seek(row)
                handle.write(struct.pack("<q", ts ^ (1 << 62)))
            TraceStore(window).open("run001")
        if strict:
            with pytest.raises(StoreFormatError, match="run001"):
                StoreAnalysis(window).dag
            assert built == []
            return
        with pytest.warns(RuntimeWarning, match="run001"):
            _assert_matches_cache_free(
                TraceStore(window, strict=False), expected=others
            )
        assert built == []  # run000 and run002 came from the cache

    def test_cache_dir_keys_on_the_source_file(self, pools, built, tmp_path):
        """With a segment cache directory, misses open the cached
        copies as before, and fragments are keyed by the source files:
        a handle over the same runs without ``cache_dir`` builds
        nothing, and each handle equals the cache-free build."""
        pool = pools["avp"]
        copies = str(tmp_path / "copies")
        window = str(tmp_path / "window")
        reference = str(tmp_path / "reference")
        for directory in (window, reference):
            os.makedirs(directory)
            for run_id in pool.run_ids():
                _copy_run(pool, run_id, directory)
        opened = []
        original = SegmentReader.open.__func__

        def counting_open(cls, path, use_mmap=False):
            if not os.fspath(path).startswith(reference):
                opened.append((os.fspath(path), use_mmap))
            return original(cls, path, use_mmap)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SegmentReader, "open", classmethod(counting_open))
            for _ in range(2):
                _assert_matches_cache_free(
                    TraceStore(window, cache_dir=copies), expected=reference
                )
        # Batch, then every run's fragment: each run's copy opened twice.
        assert len(opened) == 2 * POOL_RUNS and all(
            path.startswith(copies) and use_mmap for path, use_mmap in opened
        )
        assert len(built) == POOL_RUNS
        built.clear()
        _assert_matches_cache_free(window)
        assert built == []

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_format_runs_key_on_their_stored_bytes(
        self, pools, built, cache, tmp_path, version
    ):
        """v1/v2 segments are keyed by their own bytes, not their v3
        transcoding, and a warm handle over them builds nothing; each
        handle equals the cache-free build."""
        pool = pools["syn"]
        window = str(tmp_path / "window")
        os.makedirs(window)
        for run_id in pool.run_ids():
            write_as(pool.load(run_id), _segment(window, run_id), version)
        for _ in range(2):
            _assert_matches_cache_free(window)
        assert len(built) == POOL_RUNS
        built.clear()
        _assert_matches_cache_free(window)
        assert built == []
        keys = set()
        for run_id in pool.run_ids():
            with open(_segment(window, run_id), "rb") as handle:
                keys.add((hashlib.sha256(handle.read()).digest(), True))
        assert set(cache._fragments) == keys

    @pytest.mark.parametrize("name", scenario_names())
    def test_export_joins_the_fragments_samples(
        self, pools, name, cache, tmp_path
    ):
        """Along the sliding window, a handle's model JSON, at indent 2
        and at None, is byte-equal to the cache-free build's; every
        handle after the first is merged from fragments, so its export
        joins their rendered samples."""
        pool = pools[name]
        window = str(tmp_path / "window")
        os.makedirs(window)
        for step, run_id in enumerate(pool.run_ids()):
            _copy_run(pool, run_id, window)
            if step >= 2:
                os.remove(_segment(window, f"run{step - 2:03d}"))
            dag = StoreAnalysis(window).dag
            assert len(dag.sample_parts) == (0 if step == 0 else min(step + 1, 2))
            reference = synthesize_from_store(window)
            for indent in (2, None, 2):
                assert dag_to_json(dag, indent=indent) == dag_to_json(
                    reference, indent=indent
                ), (name, step, indent)

    def test_warm_handle_renders_only_its_new_run(
        self, arrivals, cache, tmp_path, monkeypatch
    ):
        """The export of a handle after one new run renders that run's
        samples alone, and an all-hit handle's renders none."""
        window = str(tmp_path / "window")
        os.makedirs(window)
        for run_id in arrivals.run_ids()[:WINDOW_RUNS]:
            _copy_run(arrivals, run_id, window)
        rendered = []
        render = fragments_module.render_samples

        def counting(vertices, indent=None):
            rendered.append(indent)
            return render(vertices, indent)

        monkeypatch.setattr(fragments_module, "render_samples", counting)

        def renders():
            rendered.clear()
            text = dag_to_json(StoreAnalysis(window).dag, indent=2)
            assert text == dag_to_json(synthesize_from_store(window), indent=2)
            return len(rendered)

        seen = [renders() for _ in range(3)]
        _copy_run(arrivals, arrivals.run_ids()[WINDOW_RUNS], window)
        os.remove(_segment(window, "run000"))
        seen.append(renders())
        assert seen == [0, WINDOW_RUNS, 0, 1]

    @pytest.mark.parametrize("indent", [2, None])
    def test_changed_model_renders_its_own_samples(self, pools, cache, indent):
        """A sample appended to a vertex of a model merged from
        fragments -- before or after its first export -- is exported
        as ``json.dumps`` would, and the fragments' renderings stay
        those of their runs."""
        pool = pools["avp"]
        StoreAnalysis(pool.directory).dag  # batch
        for exported in (False, True):
            dag = StoreAnalysis(pool.directory).dag
            assert dag.sample_parts
            if exported:
                dag_to_json(dag, indent=indent)
            vertex = next(v for v in dag.vertices() if v.exec_times)
            vertex.exec_times.append(12345)
            assert dag_to_json(dag, indent=indent) == json.dumps(
                dag_to_dict(dag), indent=indent
            )
        assert dag_to_json(
            StoreAnalysis(pool.directory).dag, indent=indent
        ) == dag_to_json(synthesize_from_store(pool), indent=indent)

    @pytest.mark.stress
    def test_threads_exporting_over_one_cache(self, pools, cache):
        """Threads exporting fresh handles over one window's shared
        fragments at two indents, in opposite orders, thread switches
        forced often: every export equals the cache-free one."""
        pool = pools["avp"]
        reference = synthesize_from_store(pool)
        expected = {indent: dag_to_json(reference, indent) for indent in (2, None)}
        StoreAnalysis(pool.directory).dag  # batch: the next builds fragments
        failures = []
        start = threading.Barrier(3, timeout=60)

        def export(indents):
            start.wait()
            try:
                for _ in range(4):
                    dag = StoreAnalysis(pool.directory).dag
                    for indent in indents:
                        if dag_to_json(dag, indent=indent) != expected[indent]:
                            failures.append(indent)
            except Exception as error:  # reported below
                failures.append(repr(error))

        orders = [(2, None), (None, 2), (2, None)]
        threads = [threading.Thread(target=export, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        fragments = StoreAnalysis(pool.directory)._runs.window.fragments
        assert fragments and all(
            set(fragment.samples) == {2, None} for fragment in fragments
        )


#: A window of 16 runs, with one more run to arrive.
WINDOW_RUNS = 16

#: The AVP front chain, the chain ``perfbench``'s analyze follows.
AVP_CHAIN = (
    "lidar_front/points_filtered",
    "lidars/points_fused",
    "lidars/points_fused_downsampled",
)


@pytest.fixture(scope="module")
def arrivals(tmp_path_factory):
    """``WINDOW_RUNS + 1`` recorded 1 s ``avp`` runs."""
    directory = str(tmp_path_factory.mktemp("arrivals") / "avp")
    record_batch(
        "avp", runs=WINDOW_RUNS + 1, directory=directory,
        config=BatchConfig(duration_ns=DURATION_NS),
    )
    return TraceStore(directory)


class TestWarmHandleWork:
    """Work counts, not timings: a :class:`StoreAnalysis` handle that
    shares all its runs with the previous one constructs no reader,
    resolves no run and follows no chain, and one that shares all but
    one new run does each once."""

    def test_all_hit_handle_does_no_work(
        self, arrivals, cache, tmp_path, monkeypatch
    ):
        window = str(tmp_path / "window")
        os.makedirs(window)
        for run_id in arrivals.run_ids()[:WINDOW_RUNS]:
            _copy_run(arrivals, run_id, window)
        counts = {"readers": 0, "resolves": 0, "follows": 0}

        def counting(function, key):
            def counted(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            SegmentReader, "__init__",
            counting(SegmentReader.__init__, "readers"),
        )
        resolve = counting(index_module._resolve, "resolves")
        monkeypatch.setattr(index_module, "_resolve", resolve)
        monkeypatch.setattr(analysis_store_module, "_resolve", resolve)
        monkeypatch.setattr(
            latency_module, "_chain_latencies",
            counting(latency_module._chain_latencies, "follows"),
        )
        topics = list(AVP_CHAIN)

        def handle():
            for key in counts:
                counts[key] = 0
            analysis = StoreAnalysis(window)
            latencies = analysis.chain_latencies(topics)
            outputs = (dag_to_json(analysis.dag, indent=2), latencies)
            return dict(counts), outputs

        def cache_free():
            index = latency_index_from_store(window)
            return (
                dag_to_json(synthesize_from_store(window), indent=2),
                chain_latencies(index, topics),
            )

        handle()  # batch
        handle()  # builds every run's fragment
        work, outputs = handle()
        assert work == {"readers": 0, "resolves": 0, "follows": 0}
        expected = cache_free()
        assert outputs == expected and expected[1]
        _copy_run(arrivals, arrivals.run_ids()[WINDOW_RUNS], window)
        os.remove(_segment(window, "run000"))
        work, outputs = handle()
        assert work == {"readers": 1, "resolves": 1, "follows": 1}
        assert outputs == cache_free()

    def test_journey_slots_hold_the_last_chain(self, pools, cache):
        """Each fragment keeps the journeys of the last-queried chain:
        another chain replaces them, a capped query equals the cap of
        the whole result, and every answer equals the cache-free
        one."""
        pool = pools["syn"]
        chains, _ = _queries(pool)
        reference = latency_index_from_store(pool)
        for _ in range(3):
            analysis = StoreAnalysis(pool.directory)
            for chain in chains + chains[::-1]:
                expected = chain_latencies(reference, chain)
                assert analysis.chain_latencies(chain) == expected
                assert analysis.chain_latencies(chain, 3) == expected[:3]
        window = analysis._runs.window
        assert window is not None
        fragments = window.fragments
        last = tuple(chains[0])
        assert all(
            fragment.journeys is not None and fragment.journeys[0] == last
            for fragment in fragments
        )

    @pytest.mark.stress
    def test_threads_racing_on_journey_slots(self, pools, cache):
        """Threads (more than cores) querying different chains over one
        window's shared fragments, thread switches forced often: a slot
        always pairs a chain with its own journeys, so every answer
        equals the cache-free one."""
        pool = pools["avp"]
        chains, _ = _queries(pool)
        reference = latency_index_from_store(pool)
        expected = [chain_latencies(reference, chain) for chain in chains]
        for _ in range(2):  # the second handle builds the fragments
            StoreAnalysis(pool.directory).dag
        failures = []
        start = threading.Barrier(4, timeout=60)

        def query(offset):
            start.wait()
            try:
                for step in range(3 * len(chains)):
                    at = (offset + step) % len(chains)
                    analysis = StoreAnalysis(pool.directory)
                    if analysis.chain_latencies(chains[at]) != expected[at]:
                        failures.append(chains[at])
            except Exception as error:  # reported below
                failures.append(repr(error))

        threads = [
            threading.Thread(target=query, args=(offset,))
            for offset in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        window = StoreAnalysis(pool.directory)._runs.window
        assert window is not None and any(
            fragment.journeys is not None for fragment in window.fragments
        )


def test_sharing_reads_the_resolved_sched_pids(pools):
    """``_sharing`` over the sched PIDs ``resolve_run`` carries equals
    the computation from the reader's sched columns it replaced, on
    every registry scenario."""

    def from_sched_columns(resolved):
        reader, (ts_np, pid_np, codes, _aux) = resolved.reader, resolved.columns
        pids = tuple(sorted(reader.pid_map))
        setters = (codes >= CODE_CB_START) & (codes <= CODE_TAKE_RESPONSE)
        stateful = frozenset(pids).union(pid_np[setters].tolist())
        _ts, prev_col, next_col = reader.sched_pid_columns()
        scheduled = np.concatenate((
            np.frombuffer(prev_col, dtype=np.int32),
            np.frombuffer(next_col, dtype=np.int32),
        ))
        touched = stateful.union(np.concatenate((
            pid_np[codes != 0], scheduled[scheduled != 0]
        )).tolist())
        span = (int(ts_np[0]), int(ts_np[-1])) if len(ts_np) else None
        return span, pids, stateful, touched

    sched_only = 0  # runs whose touched PIDs reach past their stateful ones
    for name in scenario_names():
        for run_id in pools[name].run_ids():
            resolved = resolve_run(pools[name].open(run_id))
            sharing = _sharing(resolved)
            assert (
                sharing.span, sharing.pids, sharing.stateful, sharing.touched
            ) == from_sched_columns(resolved), (name, run_id)
            sched_only += sharing.touched > sharing.stateful
    assert sched_only


def test_sched_pids_are_found_once_per_resolve(pools, cache, monkeypatch):
    """Work counts: each run's sched PIDs are found -- one ``distinct``
    over its sched columns -- by the run's resolve alone, not again by
    the index of a batch build (either strategy) or of a fragment
    build."""
    pool = pools["avp"]
    scheduled = {}
    for run_id in pool.run_ids():
        _ts, prev_col, next_col = pool.open(run_id).sched_pid_columns()
        scheduled[run_id] = np.concatenate((
            np.frombuffer(prev_col, dtype=np.int32),
            np.frombuffer(next_col, dtype=np.int32),
        ))
    found = []
    distinct = index_module.distinct

    def counting(values):
        found.extend(
            run_id for run_id, column in scheduled.items()
            if len(values) == len(column) and np.array_equal(values, column)
        )
        return distinct(values)

    monkeypatch.setattr(index_module, "distinct", counting)
    builds = [
        lambda: synthesize_from_store(pool),
        lambda: synthesize_from_store(pool, strategy=STRATEGY_MERGE_DAGS),
        lambda: StoreAnalysis(pool.directory).dag,  # batch
        lambda: StoreAnalysis(pool.directory).dag,  # fragments
    ]
    for build in builds:
        found.clear()
        build()
        assert found == pool.run_ids()
    assert cache._fragments  # the last build was a fragment build


def _service_run(base, client, server, src_ts):
    """One client/server run at clock ``base``: a timer callback of PID
    ``client`` sends a ``/srv`` request stamped ``src_ts``, and a
    service callback of PID ``server`` takes it."""

    def event(ts, pid, probe, **data):
        return TraceEvent(ts, pid, probe, data)

    ros = [
        event(base + 10, client, P2_TIMER_START),
        event(base + 11, client, P3_TIMER_CALL, cb_id=f"call{client}"),
        event(
            base + 12, client, P16_DDS_WRITE, topic="/srv", src_ts=src_ts,
            kind="request",
        ),
        event(base + 20, client, P4_TIMER_END),
        event(base + 30, server, P9_SERVICE_START),
        event(
            base + 31, server, P10_TAKE_REQUEST, topic="/srv", src_ts=src_ts,
            cb_id="serve",
        ),
        event(base + 40, server, P11_SERVICE_END),
    ]
    return Trace(
        ros_events=ros, sched_events=[],
        pid_map={client: "client", server: "server"},
        start_ts=base, stop_ts=base + 100,
    )
