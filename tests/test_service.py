"""Live synthesis service: incremental maintenance + ingestion pins.

The service's core contract: a :class:`LiveSynthesizer` fed stored
segments one at a time -- in run order or in shuffled arrival orders --
is byte-identical (DAG JSON, exec tables, golden DOT) to a from-scratch
``synthesize_from_store`` over the same committed runs at *every*
commit point, for every registry scenario; with a retention window, it
matches the batch synthesis of the truncated store.  Plus the ingestion
edge: validation, atomic commits, drop-dir hold-then-reject, store
refresh against a second writer process, and the spool's atomic
``finish_path``; and the protocol edge: mistyped or failing requests
are answered over the socket instead of dropping the client.
"""

import dataclasses
import io
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import zlib

import pytest

from repro.analysis import StoreAnalysis
from repro.analysis import fragments as fragments_module
from repro.analysis import latency as latency_module
from repro.analysis.fragments import FragmentWindow
from repro.analysis.latency import LatencyIndex
from repro.analysis.store import latency_fragment, latency_index_from_store
from repro.core import dag_to_json, format_exec_table, to_dot
from repro.core.synthesis import fold_records
from repro.experiments.batch import BatchConfig
from repro.scenarios import scenario_names
from repro.sim.kernel import SEC
from repro.sim.scheduler import SchedSwitch, SchedWakeup
from repro.store import (
    StoreTraceIndex,
    TraceStore,
    record_batch,
    synthesize_from_store,
)
from repro.store import index as index_module
from repro.store import synthesis as store_synthesis_module
from repro.store.format import (
    HEADER,
    SECTION_COMP_ZLIB,
    SECTION_PAYLOAD,
    SECTION_ROS,
    SECTION_SCHED,
    SECTION_WAKEUP,
    SEGMENT_SUFFIX,
    StoreFormatError,
    unpack_section_dir,
)
from repro.store.reader import InMemorySegment, SegmentReader
from repro.store.synthesis import _extract_index_cblists, _synthesize_readers
from repro.store.writer import SegmentSpool, encode_trace
from repro.service import (
    DropDirWatcher,
    IngestError,
    IngestSpool,
    LiveSynthesizer,
    ServiceCounters,
    SynthesisService,
)
from repro.service import live as live_module
from repro.service import server as server_module
from repro.service.state import MODEL_FORMATS, ServiceState, latency_summary
from repro.service.protocol import (
    ProtocolError,
    connect,
    recv_message,
    send_message,
)
from repro.tracing.events import (
    P2_TIMER_START,
    P3_TIMER_CALL,
    P4_TIMER_END,
    P5_SUB_START,
    P6_TAKE,
    P8_SUB_END,
    P9_SERVICE_START,
    P10_TAKE_REQUEST,
    P11_SERVICE_END,
    P16_DDS_WRITE,
    TraceEvent,
)
from repro.tracing.session import Trace

DURATION_NS = int(1.0 * SEC)
RUNS = 3

#: The AVP chain the benchmark's latency query follows.
AVP_CHAIN = (
    "lidar_front/points_filtered",
    "lidars/points_fused",
    "lidars/points_fused_downsampled",
)


def _signature(dag):
    """The three byte-level renderings the equivalence contract pins."""
    return dag_to_json(dag), format_exec_table(dag), to_dot(dag)


def _arrival_orders(name, run_ids):
    """The arrival orders exercised per scenario: run order plus a
    deterministic per-scenario shuffle forced to differ from it
    (crc32-seeded -- ``hash()`` is salted across interpreters)."""
    in_order = sorted(run_ids)
    rng = random.Random(zlib.crc32(name.encode()))
    shuffled = list(in_order)
    while shuffled == in_order:
        rng.shuffle(shuffled)
    return [in_order, shuffled]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """One recorded source store per registry scenario; tests copy its
    segment files into fresh target stores to simulate arrivals."""
    root = tmp_path_factory.mktemp("service_sources")
    result = {}
    for name in scenario_names():
        directory = str(root / name)
        record_batch(
            name, runs=RUNS, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        result[name] = directory
    return result


def _deliver(source_dir, target_dir, run_id):
    """One segment 'arrives': its file appears in the target store."""
    name = run_id + SEGMENT_SUFFIX
    shutil.copy(os.path.join(source_dir, name), os.path.join(target_dir, name))


def _batch_over(source_dir, run_ids, directory):
    """Batch synthesis over a fresh store holding ``run_ids`` of
    ``source_dir`` -- the reference a live model is pinned to."""
    os.makedirs(directory)
    for run_id in run_ids:
        _deliver(source_dir, directory, run_id)
    return synthesize_from_store(TraceStore(directory), jobs=1)


#: Runs in the longer recorded stream (window-scaling and bad-segment
#: tests).
STREAM_RUNS = 14


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    """A longer recorded ``avp-interference`` stream (the benchmark's
    deployment), short runs."""
    directory = str(tmp_path_factory.mktemp("service_stream") / "source")
    record_batch(
        "avp-interference", runs=STREAM_RUNS, directory=directory,
        config=BatchConfig(duration_ns=DURATION_NS // 2),
    )
    return directory


class TestIncrementalEquivalence:
    """Incremental == batch, byte for byte, at every commit point."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_commit_point_matches_batch(self, sources, name, tmp_path):
        run_ids = sorted(TraceStore(sources[name]).run_ids())
        for case, order in enumerate(_arrival_orders(name, run_ids)):
            target = str(tmp_path / f"order{case}")
            live = LiveSynthesizer(TraceStore.create(target))
            for run_id in order:
                _deliver(sources[name], target, run_id)
                assert live.refresh() == [run_id]
                batch = synthesize_from_store(TraceStore(target), jobs=1)
                assert _signature(live.model()) == _signature(batch), (
                    name, order, run_id,
                )

    def test_in_order_arrivals_never_rebuild(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "inorder")
        counters = ServiceCounters()
        live = LiveSynthesizer(TraceStore.create(target), counters=counters)
        for run_id in sorted(TraceStore(source).run_ids()):
            _deliver(source, target, run_id)
            live.refresh()
            live.model()
        assert counters.walk_fragments_built == RUNS
        assert counters.rebuilds == 0
        assert counters.segments_ingested == RUNS
        assert counters.events_indexed > 0

    def test_out_of_order_arrival_keeps_fragments(self, sources, tmp_path):
        """A fragment does not depend on arrival order: run000 arriving
        after run001 slots in before it, the window (run-id order) is
        still time-ordered, and every model is merged from the runs'
        folds -- each run walked once, no whole synthesis."""
        source = sources["syn"]
        target = str(tmp_path / "ooo")
        counters = ServiceCounters()
        live = LiveSynthesizer(TraceStore.create(target), counters=counters)
        for run_id in ["run001", "run000", "run002"]:
            _deliver(source, target, run_id)
            live.refresh()
            batch = synthesize_from_store(TraceStore(target), jobs=1)
            assert _signature(live.model()) == _signature(batch), run_id
            assert live.model_samples() is not None
        assert counters.walk_fragments_built == RUNS
        assert counters.rebuilds == counters.pids_rewalked == 0

    def test_ingest_rejects_duplicates_and_unknown_runs(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "dup")
        live = LiveSynthesizer(TraceStore.create(target))
        _deliver(source, target, "run000")
        live.refresh()
        with pytest.raises(ValueError, match="already ingested"):
            live.ingest("run000")
        with pytest.raises(ValueError, match="not in store"):
            live.ingest("run999")

    def test_counters_as_dict_lists_every_field(self):
        """The ``status`` reply's counters: every field in declaration
        order."""
        counters = ServiceCounters(rebuilds=2, pids_rewalked=5)
        assert list(counters.as_dict().items()) == [
            ("segments_ingested", 0),
            ("events_indexed", 0),
            ("rows_evicted", 0),
            ("runs_evicted", 0),
            ("rebuilds", 2),
            ("segments_rejected", 0),
            ("queries_served", 0),
            ("internal_errors", 0),
            ("latency_fragments_built", 0),
            ("walk_fragments_built", 0),
            ("model_runs_rendered", 0),
            ("pids_rewalked", 5),
            ("segments_decoded", 0),
        ]

    def test_retain_window_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retain_window"):
            LiveSynthesizer(
                TraceStore.create(str(tmp_path / "s")), retain_window=0
            )


#: The cross-node association tables of a :class:`StoreTraceIndex`.
_TABLES = ("writes", "writer_cb", "take_responses", "dispatch_after")


def _index_tables(index):
    """Everything a build leaves in a :class:`StoreTraceIndex`: walk
    columns, sched buckets, pid_map and the association tables."""
    return {
        "walks": {pid: index.walk_for_pid(pid) for pid in index.pids()},
        "sched": {
            pid: (list(times), bytes(flags))
            for pid, (times, flags) in index.sched._buckets.items()
        },
        "pid_map": index.pid_map,
        "tables": [getattr(index, table) for table in _TABLES],
    }


def _stitched(readers, wanted=None):
    """One-run builds over ``readers``, put together in run order with
    each run's stream positions moved past the rows of the runs before
    it: the build a window of time-ordered runs that share no state
    gets, assembled from the service's per-run pieces."""
    state = {"walks": {}, "sched": {}, "pid_map": {}, "tables": [{} for _ in _TABLES]}
    offset = 0
    for reader in readers:
        part = _index_tables(StoreTraceIndex([reader], wanted_pids=wanted))
        for pid, columns in part["walks"].items():
            walk = state["walks"].setdefault(pid, ([], bytearray(), []))
            for kept, column in zip(walk, columns):
                kept.extend(column)
        for pid, (times, flags) in part["sched"].items():
            kept_times, kept_flags = state["sched"].get(pid, ([], b""))
            state["sched"][pid] = (kept_times + times, kept_flags + flags)
        state["pid_map"].update(part["pid_map"])
        for kept, table in zip(state["tables"], part["tables"]):
            for key, value in table.items():
                if isinstance(value, list):  # (position, fields) entries
                    kept.setdefault(key, []).extend(
                        (position + offset, aux) for position, aux in value
                    )
                else:  # keyed by position
                    kept[key + offset] = value
        offset += reader.num_ros_events
    return state


class TestOneBuildPath:
    """One build path: a batch build over a window of recorded runs
    equals the one-run builds the service's fragments walk, put
    together -- for the window grown by a run (an extend) and shrunk by
    its oldest run (an eviction), over the full stream and a
    ``--pids`` subset."""

    @pytest.mark.parametrize("shard", [False, True])
    @pytest.mark.parametrize("name", scenario_names())
    def test_extend_and_evict_equal_batch_builds(self, sources, name, shard):
        store = TraceStore(sources[name])
        runs = [store.open(run_id) for run_id in store.run_ids()]
        assert len(runs) == RUNS
        pids = sorted({pid for reader in runs for pid in reader.pid_map})
        wanted = pids[::2] if shard else None
        for window in (runs[:2], runs, runs[1:]):
            batch = StoreTraceIndex(window, wanted_pids=wanted)
            assert _index_tables(batch) == _stitched(window, wanted)

    def test_overlapping_runs_neither_grow_nor_evict(self, sources, tmp_path):
        """Two runs on the same clock: the build is the chronological
        merge of both streams (``Trace.merge``'s order), not their
        concatenation, and a live window holding both is synthesized
        whole; once a later run evicts one, the folds assemble the
        window again."""
        source = TraceStore(sources["syn"])
        trace = source.load("run000")
        store = TraceStore.create(str(tmp_path / "overlap"))
        for run_id in ["run000", "run001"]:
            store.add_trace(run_id, trace)
        index = StoreTraceIndex(store.readers())
        merged = StoreTraceIndex([InMemorySegment(Trace.merge([trace, trace]))])
        assert _index_tables(index) == _index_tables(merged)
        assert _index_tables(index) != _stitched(store.readers())
        later = source.open("run002")
        assert later.ros_ts_range()[0] > trace.ros_events[-1].ts

        target = str(tmp_path / "served")
        live = LiveSynthesizer(TraceStore.create(target), retain_window=2)
        assembled = []
        for directory, run_id in [
            (store.directory, "run000"),
            (store.directory, "run001"),
            (source.directory, "run002"),
        ]:
            _deliver(directory, target, run_id)
            assert live.refresh() == [run_id]
            _assert_served_equals_batch(live)
            assembled.append(live.model_samples() is not None)
        assert assembled == [True, False, True]
        assert live.counters.rebuilds == 1
        assert live.counters.walk_fragments_built == 3


class TestEvictionWindow:
    """retain_window=N == batch synthesis of the N newest runs; an
    eviction drops the oldest run's fragment, and a recorded stream
    never rebuilds."""

    def test_eviction_matches_truncated_batch_store(self, sources, tmp_path):
        source = sources["syn"]
        run_ids = sorted(TraceStore(source).run_ids())
        target = str(tmp_path / "window")
        counters = ServiceCounters()
        live = LiveSynthesizer(
            TraceStore.create(target), retain_window=2, counters=counters
        )
        for arrived, run_id in enumerate(run_ids, start=1):
            _deliver(source, target, run_id)
            live.refresh()
            retained = run_ids[max(0, arrived - 2):arrived]
            assert live.run_ids == retained
            # The reference store holds exactly the retained runs.
            truncated = str(tmp_path / f"window_ref{arrived}")
            os.makedirs(truncated)
            for keep in retained:
                _deliver(source, truncated, keep)
            batch = synthesize_from_store(TraceStore(truncated), jobs=1)
            assert _signature(live.model()) == _signature(batch), run_id
        assert counters.runs_evicted == 1
        assert counters.rows_evicted > 0
        # The evicted run's file stays on disk and is never re-ingested.
        assert "run000" in TraceStore(target)
        assert live.refresh() == []
        assert live.run_ids == run_ids[-2:]

    @pytest.mark.parametrize("window", [1, 2])
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_commit_point_matches_truncated_batch(
        self, sources, name, window, tmp_path
    ):
        source = sources[name]
        run_ids = sorted(TraceStore(source).run_ids())
        target = str(tmp_path / "window")
        counters = ServiceCounters()
        live = LiveSynthesizer(
            TraceStore.create(target), retain_window=window, counters=counters
        )
        for arrived, run_id in enumerate(run_ids, start=1):
            _deliver(source, target, run_id)
            assert live.refresh() == [run_id]
            retained = run_ids[max(0, arrived - window):arrived]
            assert live.run_ids == retained
            truncated = str(tmp_path / f"ref{arrived}")
            os.makedirs(truncated)
            for keep in retained:
                _deliver(source, truncated, keep)
            batch = synthesize_from_store(TraceStore(truncated), jobs=1)
            assert _signature(live.model()) == _signature(batch), (name, run_id)
            assert counters.rebuilds == 0
            # Recorded runs never share state: one walk fragment per
            # arrival, no full re-walk.
            assert counters.walk_fragments_built == arrived
            assert counters.pids_rewalked == 0
        assert counters.runs_evicted == RUNS - window

    def test_stale_arrival_leaves_the_index_alone(self, sources, tmp_path):
        """A run older than the whole full window is evicted on arrival:
        no fragment is built for it, no rebuild, and the model is still
        the retained runs' model."""
        source = sources["syn"]
        target = str(tmp_path / "stale")
        counters = ServiceCounters()
        live = LiveSynthesizer(
            TraceStore.create(target), retain_window=2, counters=counters
        )
        for run_id in ["run001", "run002", "run000"]:
            _deliver(source, target, run_id)
            assert live.refresh() == [run_id]
        assert live.run_ids == ["run001", "run002"]
        assert counters.runs_evicted == 1
        assert counters.segments_ingested == 3
        truncated = str(tmp_path / "stale_ref")
        os.makedirs(truncated)
        for keep in ["run001", "run002"]:
            _deliver(source, truncated, keep)
        batch = synthesize_from_store(TraceStore(truncated), jobs=1)
        assert _signature(live.model()) == _signature(batch)
        assert counters.rebuilds == 0
        assert counters.walk_fragments_built == counters.latency_fragments_built == 2
        assert live.refresh() == []


    @pytest.mark.parametrize("window", [4, 12])
    def test_each_arrival_walks_only_its_own_pids(
        self, stream, window, tmp_path, monkeypatch
    ):
        """The walk is O(run), not O(window): every in-order arrival walks
        exactly the arriving run's PIDs, once, at any window size."""
        walked = []

        def recording(index, pids):
            walked.append(list(pids))
            return _extract_index_cblists(index, pids)

        # Every walk -- a run's fragment and a whole synthesis -- goes
        # through the store synthesis module's walk.
        monkeypatch.setattr(
            store_synthesis_module, "_extract_index_cblists", recording
        )
        source = TraceStore(stream)
        target = str(tmp_path / "window")
        live = LiveSynthesizer(TraceStore.create(target), retain_window=window)
        counters = live.counters
        for arrived, run_id in enumerate(source.run_ids(), start=1):
            _deliver(stream, target, run_id)
            walked.clear()
            assert live.refresh() == [run_id]
            live.model()
            assert walked == [sorted(source.open(run_id).pid_map)], run_id
            assert counters.walk_fragments_built == arrived
            assert counters.pids_rewalked == 0
        assert counters.runs_evicted == STREAM_RUNS - window
        assert counters.rebuilds == 0
        batch = _batch_over(stream, live.run_ids, str(tmp_path / "reference"))
        assert _signature(live.model()) == _signature(batch)


def _event(ts, pid, probe, **data):
    return TraceEvent(ts, pid, probe, data)


def _switch(ts, prev_pid, next_pid):
    return SchedSwitch(ts, 0, prev_pid, "prev", 0, "R", next_pid, "next", 0)


def _handbuilt_run(
    base, timer=True, leading_write=False, open_at_end=False, leading_end=False,
    leading_call=False,
):
    """One small two-node run at clock ``base``: a timer callback of PID
    1 writes ``/t`` (``timer``), a subscriber callback of PID 2 takes
    it, and PID 1 switches in and out eight times.  The other flags add
    the run-boundary cases: a PID-1 write before any PID-1 setter, a
    PID-1 callback left open at the end, a PID-1 callback end before
    any PID-1 start, or a PID-1 timer call (``cbB``) and write before
    any PID-1 start."""
    ros = []
    if leading_end:
        ros.append(_event(base + 1, 1, P4_TIMER_END))
    if leading_write:
        ros.append(_event(base + 2, 1, P16_DDS_WRITE, topic="/t", src_ts=base + 2))
    if leading_call:
        ros += [
            _event(base + 3, 1, P3_TIMER_CALL, cb_id="cbB"),
            _event(base + 4, 1, P16_DDS_WRITE, topic="/t", src_ts=base + 4),
        ]
    if timer:
        ros += [
            _event(base + 10, 1, P2_TIMER_START),
            _event(base + 11, 1, P3_TIMER_CALL, cb_id="cbA"),
            _event(base + 12, 1, P16_DDS_WRITE, topic="/t", src_ts=base + 12),
            _event(base + 20, 1, P4_TIMER_END),
        ]
    ros += [
        _event(base + 30, 2, P5_SUB_START),
        _event(base + 31, 2, P6_TAKE, topic="/t", src_ts=base + 12),
        _event(base + 40, 2, P8_SUB_END),
    ]
    if open_at_end:
        ros.append(_event(base + 50, 1, P2_TIMER_START))
    sched = [
        _switch(base + 10 + i, 1 if i % 2 else 2, 2 if i % 2 else 1)
        for i in range(8)
    ]
    return Trace(
        ros_events=ros, sched_events=sched, pid_map={1: "n1", 2: "n2"},
        start_ts=base, stop_ts=base + 100,
    )


#: The readers an index is built over: the stored segments, or the
#: loaded traces behind ``InMemorySegment`` (the in-memory pipeline's
#: column producer).
RUN_READERS = pytest.mark.parametrize(
    "in_memory", [False, True], ids=["binary", "memory"]
)


def _run_starts(readers):
    """Each run's first stream position in a build over ``readers``
    (time-ordered: the runs' rows follow one another)."""
    starts, offset = [], 0
    for reader in readers:
        starts.append(offset)
        offset += reader.num_ros_events
    return starts


class TestRunBoundaryCarries:
    """State one run carries into the next, on hand-built two-run
    stores: a build over the runs must carry it, a build without the
    earlier run must not, and concatenation must pair it."""

    @staticmethod
    def _store(directory, traces):
        store = TraceStore.create(directory)
        for number, trace in enumerate(traces):
            store.add_trace(f"run{number:03d}", trace)
        return TraceStore(directory)

    @staticmethod
    def _readers(store, traces, in_memory):
        """The runs' readers: the store's segments, or ``traces``
        behind ``InMemorySegment``."""
        if in_memory:
            return [InMemorySegment(trace) for trace in traces]
        return [store.open(run_id) for run_id in store.run_ids()]

    @RUN_READERS
    def test_evicted_setter_no_longer_feeds_writer_cb(self, tmp_path, in_memory):
        """run001's first PID-1 write precedes every PID-1 setter of
        run001, so it reads run000's cbA in a build over both runs, and
        None in one without run000 -- the build a one-run window's
        model equals once run000 is evicted."""
        traces = [_handbuilt_run(0), _handbuilt_run(1000, leading_write=True)]
        store = self._store(str(tmp_path / "source"), traces)
        first, second = self._readers(store, traces, in_memory)
        carried = _run_starts([first, second])[1]
        assert StoreTraceIndex([first, second]).writer_cb[carried] == "cbA"
        assert StoreTraceIndex([second]).writer_cb[0] is None

        target = str(tmp_path / "target")
        counters = ServiceCounters()
        live = LiveSynthesizer(
            TraceStore.create(target), retain_window=1, counters=counters
        )
        for run_id in ["run000", "run001"]:
            _deliver(store.directory, target, run_id)
            live.refresh()
        reference = str(tmp_path / "reference")
        os.makedirs(reference)
        _deliver(store.directory, reference, "run001")
        batch = synthesize_from_store(TraceStore(reference), jobs=1)
        assert _signature(live.model()) == _signature(batch)
        assert counters.rebuilds == 0

    @RUN_READERS
    def test_carry_skips_runs_without_a_setter(self, tmp_path, in_memory):
        """run001 writes with no PID-1 setter at all, run002 and run003
        write before their first setter.  Without run000, the writes of
        run001 and run002 read None (their value came from run000) but
        run003's still reads cbA (it came from run002); a live window
        of the last three runs shares PID 1, so its model is the batch
        synthesis of those runs."""
        traces = [
            _handbuilt_run(0),
            _handbuilt_run(1000, timer=False, leading_write=True),
            _handbuilt_run(2000, leading_write=True),
            _handbuilt_run(3000, leading_write=True),
        ]
        store = self._store(str(tmp_path / "source"), traces)
        readers = self._readers(store, traces, in_memory)
        index = StoreTraceIndex(readers)
        assert [index.writer_cb[start] for start in _run_starts(readers)[1:]] == [
            "cbA", "cbA", "cbA",
        ]
        index = StoreTraceIndex(readers[1:])
        assert [index.writer_cb[start] for start in _run_starts(readers[1:])] == [
            None, None, "cbA",
        ]

        target = str(tmp_path / "target")
        live = LiveSynthesizer(TraceStore.create(target), retain_window=3)
        for run_id in store.run_ids():
            _deliver(store.directory, target, run_id)
            live.refresh()
        batch = _batch_over(
            store.directory, store.run_ids()[1:], str(tmp_path / "reference")
        )
        assert _signature(live.model()) == _signature(batch)
        assert live.counters.rebuilds == 1

    @RUN_READERS
    def test_setter_without_a_cb_start_is_not_a_carry(self, tmp_path, in_memory):
        """run001's first PID-1 setter is a timer call with no callback
        start before it: the write after it reads run001's own cbB, with
        or without run000 before it."""
        traces = [
            _handbuilt_run(0), _handbuilt_run(1000, timer=False, leading_call=True),
        ]
        store = self._store(str(tmp_path / "source"), traces)
        readers = self._readers(store, traces, in_memory)
        write = _run_starts(readers)[1] + 1
        assert StoreTraceIndex(readers).writer_cb[write] == "cbB"
        assert StoreTraceIndex(readers[1:]).writer_cb[1] == "cbB"

    @pytest.mark.parametrize(
        "middle, window",
        [
            ([], (50, 1001)),
            ([{"timer": False}], (50, 2001)),  # no PID-1 CB rows: carried
            ([{}], None),  # run001's own CB start replaces the open one
        ],
    )
    def test_window_open_across_runs_is_paired(self, tmp_path, middle, window):
        """A PID-1 callback starts at the end of run000; the last run
        opens with a PID-1 callback end.  The concatenated fragments
        pair them exactly as one pass over the merged trace does."""
        traces = [_handbuilt_run(0, open_at_end=True)]
        traces += [
            _handbuilt_run(1000 * number, **flags)
            for number, flags in enumerate(middle, start=1)
        ]
        traces.append(_handbuilt_run(1000 * len(traces), leading_end=True))
        store = self._store(str(tmp_path / "carry"), traces)
        reference = LatencyIndex.from_trace(Trace.merge(traces))
        assert reference.window_containing(1, 55) == window
        target = str(tmp_path / "target")
        live = LiveSynthesizer(TraceStore.create(target))
        for run_id in store.run_ids():
            _deliver(store.directory, target, run_id)
        live.refresh()
        fragments = [run.latency for run in live.window().fragments]
        assert len(fragments) == len(traces)
        for index in (
            latency_index_from_store(store),
            LatencyIndex.concat(fragments),
        ):
            for slot in LatencyIndex.__slots__:
                assert getattr(index, slot) == getattr(reference, slot), slot

    def test_model_between_arrivals_never_pins_sched_columns(self, tmp_path):
        """Batched Alg. 2 reads the sched columns through numpy; a later
        arrival of the same PID must still fold into them."""
        source = str(tmp_path / "source")
        self._store(source, [_handbuilt_run(0), _handbuilt_run(1000)])
        target = str(tmp_path / "target")
        live = LiveSynthesizer(TraceStore.create(target))
        for run_id in ["run000", "run001"]:
            _deliver(source, target, run_id)
            live.refresh()
            live.model()
        assert live.counters.walk_fragments_built == 2
        batch = synthesize_from_store(TraceStore(target), jobs=1)
        assert _signature(live.model()) == _signature(batch)


def _service_run(base, client, server, src_ts):
    """One client/server run at clock ``base``: a timer callback of PID
    ``client`` sends a ``/srv`` request stamped ``src_ts``, and a
    service callback of PID ``server`` takes it."""
    ros = [
        _event(base + 10, client, P2_TIMER_START),
        _event(base + 11, client, P3_TIMER_CALL, cb_id=f"call{client}"),
        _event(
            base + 12, client, P16_DDS_WRITE, topic="/srv", src_ts=src_ts,
            kind="request",
        ),
        _event(base + 20, client, P4_TIMER_END),
        _event(base + 30, server, P9_SERVICE_START),
        _event(
            base + 31, server, P10_TAKE_REQUEST, topic="/srv", src_ts=src_ts,
            cb_id="serve",
        ),
        _event(base + 40, server, P11_SERVICE_END),
    ]
    return Trace(
        ros_events=ros, sched_events=[],
        pid_map={client: "client", server: "server"},
        start_ts=base, stop_ts=base + 100,
    )


class TestWalkFragmentFallback:
    """Every run is walked once, into its own fragment, whatever the
    stream; a window whose runs share walk state or are out of time
    order gets the batch synthesis over its runs, once per arrival,
    and equals batch synthesis at every commit point."""

    @staticmethod
    def _stream(tmp_path, monkeypatch, traces, window):
        """Deliver ``traces`` in order to a live synthesizer with
        ``window``, pinning the model to batch synthesis over the
        retained runs after every arrival; returns the counters and,
        per arrival, how many times the model ran the batch synthesis
        (``_synthesize_readers``)."""
        calls = []
        synthesize = live_module._synthesize_readers

        def counting(*args, **kwargs):
            calls.append(args)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(live_module, "_synthesize_readers", counting)
        source = TestRunBoundaryCarries._store(str(tmp_path / "source"), traces)
        target = str(tmp_path / "target")
        live = LiveSynthesizer(TraceStore.create(target), retain_window=window)
        whole = []
        for run_id in source.run_ids():
            _deliver(source.directory, target, run_id)
            assert live.refresh() == [run_id]
            batch = _batch_over(
                source.directory, live.run_ids, str(tmp_path / f"ref_{run_id}")
            )
            calls.clear()
            for _ in range(2):  # the second model is the cached one
                assert _signature(live.model()) == _signature(batch), run_id
            whole.append(len(calls))
        counters = live.counters
        assert counters.walk_fragments_built == len(traces)
        assert counters.rebuilds == sum(whole)
        return counters, whole

    @pytest.mark.parametrize("window", [2, None])
    def test_recurring_pids_rewalk(self, tmp_path, monkeypatch, window):
        """PIDs 1 and 2 recur in every run, with a callback open across
        the first boundary and writes carried across both: each later
        arrival shares with the runs before it."""
        counters, whole = self._stream(
            tmp_path,
            monkeypatch,
            [
                _handbuilt_run(0, open_at_end=True),
                _handbuilt_run(1000, leading_write=True, leading_end=True),
                _handbuilt_run(2000, timer=False, leading_write=True),
            ],
            window,
        )
        assert whole == [0, 1, 1]
        assert counters.pids_rewalked == 2 + 2

    @pytest.mark.parametrize("window", [2, None])
    def test_shared_service_key_rewalks(self, tmp_path, monkeypatch, window):
        """run000 and run001 have disjoint PIDs but send their request
        under one ``(topic, src_ts)`` key, so FindCaller pairs run001's
        take with run001's own write only in a walk that has consumed
        run000's first.  run002 shares nothing; with a window of two it
        evicts run000, and the folds assemble the window again."""
        counters, whole = self._stream(
            tmp_path,
            monkeypatch,
            [
                _service_run(0, 1, 2, src_ts=5),
                _service_run(1000, 3, 4, src_ts=5),
                _service_run(2000, 5, 6, src_ts=2012),
            ],
            window,
        )
        assert whole == [0, 1, 0 if window else 1]
        assert counters.pids_rewalked == (4 if window else 4 + 6)

    @pytest.mark.parametrize("window", [2, None])
    def test_window_out_of_time_order_synthesizes_whole(
        self, tmp_path, monkeypatch, window
    ):
        """run001's clock lies before run000's: the runs share nothing
        and their PIDs ascend, but in run-id order their streams are
        not time-ordered, so the model is synthesized whole until
        run000 leaves the window."""
        counters, whole = self._stream(
            tmp_path,
            monkeypatch,
            [
                _service_run(1000, 1, 2, src_ts=1012),
                _service_run(0, 3, 4, src_ts=12),
                _service_run(2000, 5, 6, src_ts=2012),
            ],
            window,
        )
        assert whole == [0, 1, 0 if window else 1]
        assert counters.pids_rewalked == (4 if window else 4 + 6)


def _holds_journeys_of(fragments, topics):
    """Which of the run ``fragments`` hold the journeys of ``topics`` in
    their journey slot."""
    return [
        run.journeys is not None and run.journeys[0] == tuple(topics)
        for run in fragments
    ]


def _assert_fragments_of(live, run_ids, topics):
    """``live`` holds one latency fragment per retained run ``run_ids``
    -- each the fragment a fresh build over the run's segment gives --
    and journeys of ``topics`` for each of those fragments."""
    assert live.run_ids == run_ids
    window = live.window()
    fragments = [run.latency for run in window.fragments]
    assert len(fragments) == len(run_ids)
    for run_id, fragment in zip(run_ids, fragments):
        built = latency_fragment(live.store.open(run_id))
        for slot in LatencyIndex.__slots__:
            assert getattr(fragment, slot) == getattr(built, slot), slot
    assert all(_holds_journeys_of(window.fragments, topics))


class TestLatencyFragmentCache:
    """Ingest builds one latency fragment per arriving run, and
    ``latency`` queries answer from the fragments without reading a
    segment."""

    def test_each_arrival_is_decoded_once(self, sources, tmp_path, monkeypatch):
        """Each pushed run is read into exactly one reader and resolved
        exactly once (the reader caches what it inflates), and neither
        a model nor a latency query reads or inflates anything."""
        source = TraceStore(sources["avp-interference"])
        blobs = []
        for run_id in source.run_ids():
            with open(source.path_of(run_id), "rb") as handle:
                blobs.append((run_id, handle.read()))
        readers, resolved = [], []
        init = SegmentReader.__init__

        def counting_init(self, *args, **kwargs):
            readers.append(self)
            init(self, *args, **kwargs)

        resolve = index_module._resolve

        def counting_resolve(columns):
            resolved.append(columns)
            return resolve(columns)

        monkeypatch.setattr(SegmentReader, "__init__", counting_init)
        monkeypatch.setattr(index_module, "_resolve", counting_resolve)
        service = SynthesisService(str(tmp_path / "served"), retain_window=2)
        for arrived, (run_id, blob) in enumerate(blobs, start=1):
            service.ingest_bytes(run_id, blob)
            assert len(readers) == len(resolved) == arrived
            inflated = [reader.bytes_inflated for reader in readers]
            service.handle_request({"cmd": "model", "format": "json"}, b"")
            reply, _ = service.handle_request(
                {"cmd": "latency", "topics": list(AVP_CHAIN)}, b""
            )
            assert reply["count"] > 0
            assert len(readers) == len(resolved) == arrived
            assert [reader.bytes_inflated for reader in readers] == inflated
            assert service.counters.segments_decoded == arrived
            assert service.counters.latency_fragments_built == arrived

    def test_overlapping_window_reads_the_merged_runs(self, sources, tmp_path):
        """Runs on one clock cannot be followed fragment by fragment:
        the first query after an arrival builds one index over the
        runs' merged columns, and later queries reuse it."""
        trace = TraceStore(sources["syn"]).load("run000")
        source = TraceStore.create(str(tmp_path / "source"))
        for run_id in ["run000", "run001"]:
            source.add_trace(run_id, trace)
        service = SynthesisService(str(tmp_path / "served"))
        for run_id in source.run_ids():
            with open(source.path_of(run_id), "rb") as handle:
                service.ingest_bytes(run_id, handle.read())
        counters = service.counters
        decoded = counters.segments_decoded
        expected = StoreAnalysis(source.directory).chain_latencies(["/t1"])
        for _ in range(2):
            reply, _ = service.handle_request(
                {"cmd": "latency", "topics": ["/t1"]}, b""
            )
            assert reply["count"] == len(expected) > 0
            assert reply["min_ns"] == min(item.latency_ns for item in expected)
            assert counters.segments_decoded == decoded + 2
        assert isinstance(service.live.window().index, LatencyIndex)
        assert counters.segments_decoded == decoded + 2

    def test_journeys_follow_only_new_runs(self, sources, tmp_path, monkeypatch):
        """The journey cache holds the last-queried chain only: an
        arrival follows just the new run, another chain starts over,
        and an evicted run's journeys leave with it."""
        followed = []
        follow = latency_module._chain_latencies

        def counting_follow(index, topics, max_instances):
            followed.append(index)
            return follow(index, topics, max_instances)

        monkeypatch.setattr(latency_module, "_chain_latencies", counting_follow)
        source = TraceStore(sources["syn"])
        service = SynthesisService(str(tmp_path / "served"), retain_window=2)
        live = service.live

        def query(topic):
            followed.clear()
            reply, _ = service.handle_request(
                {"cmd": "latency", "topics": [topic]}, b""
            )
            assert reply["count"] > 0
            return list(followed)

        def arrive(run_id):
            with open(source.path_of(run_id), "rb") as handle:
                service.ingest_bytes(run_id, handle.read())

        arrive("run000")
        arrive("run001")
        fragments = [run.latency for run in live.window().fragments]
        assert query("/t1") == fragments
        assert query("/t1") == []
        assert query("/f1") == fragments
        assert query("/t1") == fragments
        arrive("run002")
        window = live.window()
        newest = [run.latency for run in window.fragments]
        assert newest[0] is fragments[1]
        assert _holds_journeys_of(window.fragments, ["/t1"]) == [True, False]
        assert query("/t1") == [newest[1]]
        _assert_fragments_of(live, ["run001", "run002"], ["/t1"])

    def test_separability_is_checked_once_per_window(
        self, sources, tmp_path, monkeypatch
    ):
        """The check that no journey crosses runs is O(window): it runs
        on the first latency query after an arrival, and repeated
        queries over the unchanged window reuse its result."""
        checked = []
        check = latency_module.fragments_are_separable

        def counting_check(fragments):
            checked.append(len(fragments))
            return check(fragments)

        monkeypatch.setattr(
            fragments_module, "fragments_are_separable", counting_check
        )
        monkeypatch.setattr(latency_module, "fragments_are_separable", counting_check)
        source = TraceStore(sources["syn"])
        service = SynthesisService(str(tmp_path / "served"), retain_window=2)

        def query(topic):
            reply, _ = service.handle_request(
                {"cmd": "latency", "topics": [topic]}, b""
            )
            assert reply["count"] > 0
            return reply

        for run_id in sorted(source.run_ids()):
            with open(source.path_of(run_id), "rb") as handle:
                service.ingest_bytes(run_id, handle.read())
            checked.clear()
            first = query("/t1")
            assert query("/t1") == first
            assert query("/f1")["count"] > 0
            assert checked == [len(service.live.run_ids)], run_id

    def test_one_fragment_per_arrival(self, sources, tmp_path):
        source = TraceStore(sources["syn"])
        service = SynthesisService(str(tmp_path / "served"), retain_window=2)
        counters = service.counters
        run_ids = sorted(source.run_ids())
        for arrived, run_id in enumerate(run_ids, start=1):
            with open(source.path_of(run_id), "rb") as handle:
                service.ingest_bytes(run_id, handle.read())
            decoded = counters.segments_decoded
            reply, _ = service.handle_request(
                {"cmd": "latency", "topics": ["/t1"]}, b""
            )
            assert counters.segments_decoded == decoded == arrived
            retained = run_ids[max(0, arrived - 2):arrived]
            truncated = str(tmp_path / f"ref{arrived}")
            os.makedirs(truncated)
            for keep in retained:
                _deliver(sources["syn"], truncated, keep)
            expected = [
                latency.latency_ns
                for latency in StoreAnalysis(truncated).chain_latencies(["/t1"])
            ]
            assert reply["count"] == len(expected) > 0
            assert reply["min_ns"] == min(expected)
            assert reply["max_ns"] == max(expected)
            assert counters.latency_fragments_built == arrived
            service.live.model()
            assert counters.rebuilds == 0
        status, _ = service.handle_request({"cmd": "status"}, b"")
        assert status["counters"]["latency_fragments_built"] == RUNS
        _assert_fragments_of(service.live, run_ids[-2:], ["/t1"])

    @pytest.mark.parametrize("overlapping", [False, True])
    def test_chain_is_followed_outside_the_lock(
        self, sources, tmp_path, monkeypatch, overlapping
    ):
        """While a latency query follows the chain -- and, over a
        time-overlapping window, builds the merged index -- another
        thread can take the service lock."""
        source = TraceStore(sources["syn"])
        if overlapping:  # two runs on one clock
            trace = source.load("run000")
            source = TraceStore.create(str(tmp_path / "source"))
            for run_id in ["run000", "run001"]:
                source.add_trace(run_id, trace)
        service = SynthesisService(str(tmp_path / "served"))
        for run_id in ["run000", "run001"]:
            with open(source.path_of(run_id), "rb") as handle:
                service.ingest_bytes(run_id, handle.read())
        taken = []

        def take_the_lock(function):
            def wrapped(*args, **kwargs):
                other = threading.Thread(
                    target=lambda: taken.append(service.state())
                )
                other.start()
                other.join(timeout=10.0)
                assert not other.is_alive(), "the service lock was held"
                return function(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            FragmentWindow, "chain_latencies",
            take_the_lock(FragmentWindow.chain_latencies),
        )
        monkeypatch.setattr(
            fragments_module, "_merged_latency_index",
            take_the_lock(fragments_module._merged_latency_index),
        )
        reply, _ = service.handle_request(
            {"cmd": "latency", "topics": ["/t1"]}, b""
        )
        assert reply["count"] > 0
        assert len(taken) == (2 if overlapping else 1)

    def test_arrival_during_a_query_keeps_only_retained_journeys(
        self, sources, tmp_path, monkeypatch
    ):
        """A run that arrives while a query follows its window evicts
        the oldest run: of the journeys the query followed, only the
        still-retained runs' stay, and the next query follows the new
        run alone."""
        source = TraceStore(sources["syn"])
        service = SynthesisService(str(tmp_path / "served"), retain_window=2)
        live = service.live

        def arrive(run_id):
            with open(source.path_of(run_id), "rb") as handle:
                service.ingest_bytes(run_id, handle.read())

        arrive("run000")
        arrive("run001")
        window = live.window()
        arrive("run002")
        summary = latency_summary(["/t1"], window)
        assert summary["count"] > 0
        assert all(_holds_journeys_of(window.fragments, ["/t1"]))
        kept = live.window()
        assert kept.fragments[0] is window.fragments[1]
        assert window.fragments[0] not in kept.fragments
        assert _holds_journeys_of(kept.fragments, ["/t1"]) == [True, False]
        followed = []
        follow = latency_module._chain_latencies

        def counting_follow(index, topics, max_instances):
            followed.append(index)
            return follow(index, topics, max_instances)

        monkeypatch.setattr(latency_module, "_chain_latencies", counting_follow)
        reply, _ = service.handle_request(
            {"cmd": "latency", "topics": ["/t1"]}, b""
        )
        assert reply["count"] > 0
        assert followed == [kept.fragments[1].latency]

    @pytest.mark.stress
    def test_concurrent_queries_keep_the_cache_consistent(
        self, sources, tmp_path
    ):
        """Query threads racing the ingest of every run: each answer is
        the answer of some committed window, and the cache ends up
        holding exactly the retained runs' fragments."""
        source = TraceStore(sources["syn"])
        run_ids = sorted(source.run_ids())
        expected = {0}
        for arrived in range(1, len(run_ids) + 1):
            truncated = str(tmp_path / f"ref{arrived}")
            os.makedirs(truncated)
            for keep in run_ids[max(0, arrived - 2):arrived]:
                _deliver(sources["syn"], truncated, keep)
            expected.add(len(StoreAnalysis(truncated).chain_latencies(["/t1"])))
        service = SynthesisService(str(tmp_path / "served"), retain_window=2)
        counts, errors = [], []
        done = threading.Event()

        def query():
            try:
                while not done.is_set():
                    reply, _ = service.handle_request(
                        {"cmd": "latency", "topics": ["/t1"]}, b""
                    )
                    counts.append(reply["count"])
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=query) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for run_id in run_ids:
                with open(source.path_of(run_id), "rb") as handle:
                    service.ingest_bytes(run_id, handle.read())
                time.sleep(0.05)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert counts and set(counts) <= expected
        service.handle_request({"cmd": "latency", "topics": ["/t1"]}, b"")
        _assert_fragments_of(service.live, run_ids[-2:], ["/t1"])
        assert service.counters.latency_fragments_built == len(run_ids)
        service.live.model()
        assert service.counters.rebuilds == 0

    @pytest.mark.stress
    def test_racing_merged_builds_count_every_decode(
        self, sources, tmp_path, monkeypatch
    ):
        """Query threads racing the ingest of runs on one clock: each
        window's merged index is built outside the service lock, by
        whichever queries find it missing, and every segment a build
        opens is counted in ``segments_decoded``."""
        trace = TraceStore(sources["syn"]).load("run000")
        source = TraceStore.create(str(tmp_path / "source"))
        run_ids = [f"run{number:03d}" for number in range(6)]
        for run_id in run_ids:
            source.add_trace(run_id, trace)
        opened = []
        merge = fragments_module._merged_latency_index

        def counting_merge(readers, *args):
            opened.append(len(readers))
            return merge(readers, *args)

        monkeypatch.setattr(
            fragments_module, "_merged_latency_index", counting_merge
        )
        service = SynthesisService(str(tmp_path / "served"), retain_window=3)
        errors = []
        done = threading.Event()

        def query():
            try:
                while not done.is_set():
                    service.handle_request(
                        {"cmd": "latency", "topics": ["/t1"]}, b""
                    )
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=query) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for run_id in run_ids:
                with open(source.path_of(run_id), "rb") as handle:
                    service.ingest_bytes(run_id, handle.read())
                time.sleep(0.05)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(opened) >= 2
        assert service.counters.segments_decoded == len(run_ids) + sum(opened)


#: Runs in the per-scenario streams that feed the served-model windows
#: (the largest window is 16 runs).
MODEL_STREAM_RUNS = 18


@pytest.fixture(scope="module")
def model_streams(tmp_path_factory):
    """One longer recorded stream of short runs per registry scenario."""
    root = tmp_path_factory.mktemp("model_streams")
    result = {}
    for name in scenario_names():
        directory = str(root / name)
        record_batch(
            name, runs=MODEL_STREAM_RUNS, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS // 4),
        )
        result[name] = directory
    return result


def _assert_served_equals_batch(live):
    """``live``'s model is ``synthesize_dag`` over the retained runs'
    CBLists -- vertices and edges in the same insertion order, every
    vertex field equal -- and the service renders it, in every model
    format, byte for byte as it renders that batch model."""
    store = live.store
    run_ids = live.run_ids
    reference = _synthesize_readers(
        [store.open(run_id) for run_id in run_ids],
        None,
        split_services=live.split_services,
        model_sync=live.model_sync,
    )
    dag = live.model()
    assert [vars(vertex) for vertex in dag.vertices()] == [
        vars(vertex) for vertex in reference.vertices()
    ]
    assert dag.edges() == reference.edges()
    live.model_samples()
    served = ServiceState(store.directory, run_ids, dag, {}, live.retain_window)
    batch = ServiceState(store.directory, run_ids, reference, {}, live.retain_window)
    for fmt in MODEL_FORMATS:
        assert served.model_text(fmt) == batch.model_text(fmt), fmt


class TestServedModelEqualsBatch:
    """The served model is assembled from per-run folds and rendered
    sample lists; after every arrival it equals batch synthesis over
    the retained runs, down to insertion order and rendered bytes."""

    @staticmethod
    def _feed(source, target, order, **options):
        """Deliver ``order`` from ``source``, pinning the served model
        to batch synthesis after every arrival; returns the synthesizer."""
        live = LiveSynthesizer(TraceStore.create(target), **options)
        for run_id in order:
            _deliver(source, target, run_id)
            assert live.refresh() == [run_id]
            _assert_served_equals_batch(live)
        return live

    @pytest.mark.parametrize("window", [1, 4, 16])
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_arrival(self, model_streams, name, window, tmp_path):
        """Recorded runs name PIDs above the previous run's, so every
        model is merged from the runs' folds: one fold and rendering
        per arriving run, none per model."""
        source = model_streams[name]
        run_ids = TraceStore(source).run_ids()
        live = self._feed(
            source, str(tmp_path / "served"), run_ids, retain_window=window
        )
        assert live.model_samples() is not None
        counters = live.counters
        assert counters.model_runs_rendered == MODEL_STREAM_RUNS
        assert counters.rebuilds == counters.pids_rewalked == 0

    def test_out_of_order_arrival(self, model_streams, tmp_path):
        """An out-of-order arrival slots its fragment in before the
        later runs': every model is merged, and each run is walked,
        folded and rendered once."""
        source = model_streams["syn"]
        run_ids = TraceStore(source).run_ids()[:6]
        order = [run_ids[1], run_ids[0], *run_ids[2:]]
        live = self._feed(source, str(tmp_path / "served"), order, retain_window=4)
        assert live.model_samples() is not None
        counters = live.counters
        assert counters.rebuilds == counters.pids_rewalked == 0
        assert counters.walk_fragments_built == counters.model_runs_rendered == 6

    @pytest.mark.parametrize("name", scenario_names())
    def test_fragment_folds_are_the_runs_share_of_the_batch_walk(
        self, sources, name, tmp_path
    ):
        """Each run's fragment, walked over the run alone, folds exactly
        the records batch synthesis's walk over the whole store gives
        the run's PIDs, in the same order."""
        store = TraceStore(sources[name])
        run_ids = store.run_ids()
        index = StoreTraceIndex(store.readers())
        target = str(tmp_path / "served")
        live = LiveSynthesizer(TraceStore.create(target))
        for run_id in run_ids:
            _deliver(sources[name], target, run_id)
        assert live.refresh() == run_ids
        for run_id in run_ids:
            share = fold_records(_extract_index_cblists(
                index, sorted(store.open(run_id).pid_map)
            ))
            fold = live._fragments[run_id].fold
            assert fold == share, (name, run_id)
            assert list(fold.vertices) == list(share.vertices)

    def test_json_queries_render_each_run_once(self, model_streams, tmp_path):
        """Sample lists are rendered by the first model JSON query that
        needs them: DOT queries render none, and a repeated JSON query
        renders nothing again."""
        source = TraceStore(model_streams["syn"])
        service = SynthesisService(str(tmp_path / "served"), retain_window=4)
        counters = service.counters

        def query(fmt):
            reply, body = service.handle_request({"cmd": "model", "format": fmt}, b"")
            assert reply["ok"], reply
            return body

        for run_id in source.run_ids()[:6]:
            with open(source.path_of(run_id), "rb") as handle:
                service.ingest_bytes(run_id, handle.read())
            query("dot")
            assert counters.model_runs_rendered == 0
        first = query("json")
        assert counters.model_runs_rendered == 4
        assert query("json") == first
        assert counters.model_runs_rendered == 4
        reference = _batch_over(
            model_streams["syn"], service.live.run_ids, str(tmp_path / "reference")
        )
        assert first.decode() == dag_to_json(reference, indent=2)

    @pytest.mark.parametrize("window", [2, None])
    def test_descending_pids_fall_back(self, tmp_path, window):
        """run001 names PIDs below run000's: the runs share nothing,
        but their folds concatenated are not the sorted-PID walk, so
        the model is synthesized whole until run000 leaves the
        window."""
        source = TestRunBoundaryCarries._store(
            str(tmp_path / "source"),
            [
                _service_run(0, 5, 6, src_ts=5),
                _service_run(1000, 1, 2, src_ts=1012),
                _service_run(2000, 7, 8, src_ts=2012),
            ],
        )
        target = str(tmp_path / "served")
        live = LiveSynthesizer(TraceStore.create(target), retain_window=window)
        merged = []
        for run_id in source.run_ids():
            _deliver(source.directory, target, run_id)
            assert live.refresh() == [run_id]
            _assert_served_equals_batch(live)
            merged.append(live.model_samples() is not None)
        assert merged == [True, False, window == 2]
        # The whole syntheses walk PIDs 5, 6, 1, 2 (and 7, 8 without a
        # window); every run was walked into its fragment once.
        assert live.counters.rebuilds == merged.count(False)
        assert live.counters.pids_rewalked == (4 if window else 4 + 6)
        assert live.counters.walk_fragments_built == 3

    @pytest.mark.parametrize(
        "split_services, model_sync", [(False, True), (True, False)]
    )
    @pytest.mark.parametrize("name", scenario_names())
    def test_ablation_switches(
        self, model_streams, name, split_services, model_sync, tmp_path
    ):
        source = model_streams[name]
        live = self._feed(
            source, str(tmp_path / "served"),
            TraceStore(source).run_ids()[:8],
            retain_window=4,
            split_services=split_services,
            model_sync=model_sync,
        )
        assert live.model_samples() is not None


class TestIngestSpool:
    """Validation and atomic commits of externally produced segments."""

    @pytest.fixture()
    def blob(self, sources):
        path = TraceStore(sources["syn"]).path_of("run000")
        with open(path, "rb") as handle:
            return handle.read()

    def test_commit_lands_and_is_readable(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        result = spool.commit_bytes("pushed", blob)
        assert result.run_id == "pushed"
        assert result.events > 0
        assert result.bytes_written == len(blob)
        assert "pushed" in store
        assert store.open("pushed").ros_ts_range() is not None
        assert spool.committed == 1

    def test_rejects_garbage_truncation_and_bad_magic(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        with pytest.raises(IngestError, match="truncated"):
            spool.validate_bytes("r", b"not a segment")
        with pytest.raises(IngestError):
            spool.validate_bytes("r", b"XXXX" + blob[4:])
        with pytest.raises(IngestError):
            spool.validate_bytes("r", blob[: len(blob) // 2])
        assert "r" not in store

    def test_rejects_duplicates_and_path_escaping_run_ids(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        spool.commit_bytes("run000", blob)
        with pytest.raises(IngestError, match="already stored"):
            spool.commit_bytes("run000", blob)
        for bad in ("../evil", "a/b", "", ".hidden"):
            with pytest.raises(IngestError, match="invalid run id"):
                spool.validate_bytes(bad, blob)

    def test_failed_commits_leave_no_staging_files(self, blob, tmp_path):
        directory = str(tmp_path / "s")
        store = TraceStore.create(directory)
        spool = IngestSpool(store)
        with pytest.raises(IngestError):
            spool.commit_bytes("bad", blob[:100])
        spool.commit_bytes("good", blob)
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []
        assert sorted(store.run_ids()) == ["good"]


class TestDropDirWatcher:
    """Drop-dir files are held one stable poll before rejection."""

    def test_partial_file_held_then_rejected(self, sources, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        drop = str(tmp_path / "drop")
        rejections = []
        watcher = DropDirWatcher(
            IngestSpool(store), drop,
            on_reject=lambda run_id, error: rejections.append(run_id),
        )
        with open(TraceStore(sources["syn"]).path_of("run000"), "rb") as handle:
            blob = handle.read()
        partial = os.path.join(drop, "part" + SEGMENT_SUFFIX)
        with open(partial, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        # First poll: invalid but possibly still being written -- held.
        assert watcher.poll() == []
        assert watcher.rejected == 0 and os.path.exists(partial)
        # Second poll, bytes unchanged: rejected and renamed aside.
        assert watcher.poll() == []
        assert watcher.rejected == 1
        assert rejections == ["part"]
        assert not os.path.exists(partial)
        assert os.path.exists(partial + ".rejected")
        # A valid drop commits and its source is removed.
        whole = os.path.join(drop, "whole" + SEGMENT_SUFFIX)
        with open(whole, "wb") as handle:
            handle.write(blob)
        results = watcher.poll()
        assert [r.run_id for r in results] == ["whole"]
        assert not os.path.exists(whole)
        assert "whole" in store

    def test_growing_file_is_not_rejected(self, sources, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        drop = str(tmp_path / "drop")
        watcher = DropDirWatcher(IngestSpool(store), drop)
        with open(TraceStore(sources["syn"]).path_of("run000"), "rb") as handle:
            blob = handle.read()
        path = os.path.join(drop, "slow" + SEGMENT_SUFFIX)
        with open(path, "wb") as handle:
            handle.write(blob[:100])
        assert watcher.poll() == []
        with open(path, "ab") as handle:  # the producer keeps writing
            handle.write(blob[100 : len(blob) // 2])
        assert watcher.poll() == []
        assert watcher.rejected == 0
        with open(path, "wb") as handle:
            handle.write(blob)
        assert [r.run_id for r in watcher.poll()] == ["slow"]
        assert watcher.rejected == 0


class TestStoreRefresh:
    """TraceStore.refresh picks up runs a second process committed."""

    @pytest.mark.stress
    def test_refresh_sees_second_writer_process(self, tmp_path):
        directory = str(tmp_path / "shared")
        store = TraceStore.create(directory)
        assert store.run_ids() == []
        subprocess.run(
            [sys.executable, "-m", "repro", "record", "syn",
             "--runs", "2", "--duration", "1", "--out", directory],
            check=True, capture_output=True,
        )
        # The handle predates the writes; refresh reconciles it.
        assert store.run_ids() == []
        assert store.refresh() == ["run000", "run001"]
        assert store.refresh() == []
        assert store.run_ids() == ["run000", "run001"]
        assert store.open("run001").ros_ts_range() is not None

    def test_refresh_is_incremental(self, sources, tmp_path):
        directory = str(tmp_path / "inc")
        store = TraceStore.create(directory)
        _deliver(sources["syn"], directory, "run000")
        assert store.refresh() == ["run000"]
        _deliver(sources["syn"], directory, "run001")
        _deliver(sources["syn"], directory, "run002")
        assert store.refresh() == ["run001", "run002"]


class TestUnreadableSegments:
    """A segment that cannot be read is rejected before it changes any
    state: the runs after it still fold in, and the model stays the
    batch model of the readable retained runs."""

    @pytest.mark.parametrize(
        "damage",
        [lambda data: data[: len(data) // 2], lambda data: b"NOTASEG!" + data[8:]],
        ids=["truncated", "bad_magic"],
    )
    def test_bad_segment_is_skipped(self, stream, damage, tmp_path):
        source = TraceStore(stream)
        run_ids = source.run_ids()[:7]
        bad = run_ids[4]
        target = str(tmp_path / "target")
        live = LiveSynthesizer(TraceStore.create(target), retain_window=3)
        readable = []
        for run_id in run_ids:
            if run_id == bad:
                with open(source.path_of(run_id), "rb") as handle:
                    data = damage(handle.read())
                path = os.path.join(target, run_id + SEGMENT_SUFFIX)
                with open(path, "wb") as handle:
                    handle.write(data)
                live.store.refresh()
                before = live.run_ids
                with pytest.raises(StoreFormatError):
                    live.ingest(run_id)
                assert live.run_ids == before
                assert live.refresh() == []
                assert live.counters.segments_rejected == 1
            else:
                _deliver(stream, target, run_id)
                assert live.refresh() == [run_id]
                readable.append(run_id)
            assert live.run_ids == readable[-3:]
            batch = _batch_over(
                stream, readable[-3:], str(tmp_path / f"ref_{run_id}")
            )
            assert _signature(live.model()) == _signature(batch), run_id
        assert live.refresh() == []
        assert live.counters.segments_rejected == 1
        assert live.counters.rebuilds == 0


def _with_wakeups(trace):
    """The trace with a ``sched_wakeup`` for every thread switched in,
    so its wakeup section has content."""
    return dataclasses.replace(trace, wakeup_events=[
        SchedWakeup(event.ts, event.cpu, event.next_pid, event.next_comm,
                    event.next_prio)
        for event in trace.sched_events
    ])


#: Per section kind, the column indexes to damage: sections the live
#: fold reads, none of them the ROS ts column an open already checks.
_FOLD_SECTIONS = {
    "ros": (SECTION_ROS, (4,)),
    "payload": (SECTION_PAYLOAD, None),  # every payload column
    "sched": (SECTION_SCHED, (2,)),
    "wakeup": (SECTION_WAKEUP, (2,)),
}


def _corrupt(data, kind):
    """``data`` with the first 8 bytes of the ``kind`` sections flipped;
    the header and the section directory stay intact."""
    section_kind, indexes = _FOLD_SECTIONS[kind]
    entries, body = unpack_section_dir(data, HEADER.size)
    damaged = bytearray(data)
    hits = 0
    for entry in entries:
        if entry.kind == section_kind and (indexes is None or entry.index in indexes):
            assert entry.comp == SECTION_COMP_ZLIB and entry.comp_len >= 8
            start = body + entry.offset
            for offset in range(start, start + 8):
                damaged[offset] ^= 0xFF
            hits += 1
    assert hits
    return bytes(damaged)


class TestCorruptSections:
    """A segment whose header and section directory read fine but whose
    ROS, payload, sched or wakeup stream is corrupt is rejected before
    it lands and before any service state changes; the next good run
    folds in as if it had never arrived."""

    @pytest.fixture(scope="class")
    def blobs(self, sources):
        source = TraceStore(sources["avp-interference"])
        return {
            run_id: encode_trace(_with_wakeups(source.load(run_id)))
            for run_id in source.run_ids()
        }

    @staticmethod
    def _reference(blobs, run_ids, directory):
        store = TraceStore.create(directory)
        for run_id in run_ids:
            with open(os.path.join(directory, run_id + SEGMENT_SUFFIX), "wb") as handle:
                handle.write(blobs[run_id])
        store.refresh()
        return store

    @pytest.mark.parametrize("kind", sorted(_FOLD_SECTIONS))
    def test_pushed_segment_is_rejected(self, blobs, tmp_path, kind):
        first, bad, last = sorted(blobs)
        directory = str(tmp_path / "served")
        service = SynthesisService(directory)
        service.ingest_bytes(first, blobs[first])
        with pytest.raises(IngestError, match="corrupt"):
            service.ingest_bytes(bad, _corrupt(blobs[bad], kind))
        assert os.listdir(directory) == [first + SEGMENT_SUFFIX]
        assert service.counters.segments_rejected == 1
        assert service.live.run_ids == [first]
        assert service.counters.walk_fragments_built == 1
        service.ingest_bytes(last, blobs[last])
        reference = self._reference(
            blobs, [first, last], str(tmp_path / "reference")
        )
        batch = synthesize_from_store(reference, jobs=1)
        assert _signature(service.live.model()) == _signature(batch)
        reply, _ = service.handle_request(
            {"cmd": "latency", "topics": list(AVP_CHAIN)}, b""
        )
        expected = StoreAnalysis(reference).chain_latencies(list(AVP_CHAIN))
        assert reply["count"] == len(expected) > 0
        assert service.counters.rebuilds == 0

    @pytest.mark.parametrize("kind", sorted(_FOLD_SECTIONS))
    def test_stored_segment_is_skipped(self, blobs, tmp_path, kind):
        """The same damage in a file another process put in the store:
        ``refresh`` skips the run for good."""
        first, bad, last = sorted(blobs)
        directory = str(tmp_path / "store")
        live = LiveSynthesizer(TraceStore.create(directory))
        damaged = dict(blobs, **{bad: _corrupt(blobs[bad], kind)})
        self._reference(damaged, sorted(blobs), directory)
        assert live.refresh() == [first, last]
        assert live.counters.segments_rejected == 1
        assert live.run_ids == [first, last]
        reference = self._reference(
            blobs, [first, last], str(tmp_path / "reference")
        )
        batch = synthesize_from_store(reference, jobs=1)
        assert _signature(live.model()) == _signature(batch)


class TestFinishPathAtomicity:
    """The recorder's spool commit is tmp-file + rename."""

    def test_failed_finish_leaves_nothing(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        path = os.path.join(directory, "run000" + SEGMENT_SUFFIX)
        spool = SegmentSpool()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(SegmentSpool, "finish", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            spool.finish_path(path, {}, 0, 1)
        assert os.listdir(directory) == []

    def test_successful_finish_leaves_only_the_segment(self, tmp_path):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        path = os.path.join(directory, "run000" + SEGMENT_SUFFIX)
        written = SegmentSpool().finish_path(path, {}, 0, 1)
        assert written > 0
        assert os.listdir(directory) == ["run000" + SEGMENT_SUFFIX]


class TestProtocolEdge:
    """Malformed or failing requests over a real socket: every request
    gets an answer, and the client's connection survives it."""

    @pytest.fixture()
    def served(self, tmp_path):
        service = SynthesisService(
            str(tmp_path / "served"), poll_interval=0.05
        )
        bound = threading.Event()
        address = []

        def ready(where):
            address.append(where)
            bound.set()

        thread = threading.Thread(
            target=service.serve_forever,
            args=("127.0.0.1:0",),
            kwargs={"ready": ready, "max_seconds": 60.0},
            daemon=True,
        )
        thread.start()
        assert bound.wait(10.0), "service never bound"
        sock = connect(address[0], timeout=10.0)
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")

        def exchange(payload):
            send_message(wfile, payload)
            message = recv_message(rfile)
            assert message is not None, f"no reply to {payload!r}"
            return message[0]

        try:
            yield service, exchange
        finally:
            sock.close()
            service.request_shutdown()
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"cmd": "latency", "topics": 5}, "topics"),
            ({"cmd": "chains", "sources": 7}, "sources"),
            ({"cmd": "chains", "sinks": ["/t1", 3]}, "sinks"),
        ],
    )
    def test_mistyped_fields_get_a_value_error_reply(
        self, served, payload, field
    ):
        service, exchange = served
        reply = exchange(payload)
        assert reply["ok"] is False
        assert f"{field} must be a list of strings" in reply["error"]
        assert "kind" not in reply
        assert exchange({"cmd": "ping"}) == {"ok": True, "pong": True}
        assert service.counters.internal_errors == 0

    @pytest.mark.parametrize("size", [b"true", b"false"])
    def test_boolean_body_size_is_rejected(self, size):
        """``true`` is an int to ``isinstance``; it must not frame a
        one-byte body (nor ``false`` an empty one)."""
        stream = io.BytesIO(b'{"op":"push","size":' + size + b"}\nXYZ")
        with pytest.raises(ProtocolError, match="bad body size"):
            recv_message(stream)

    def test_stalled_client_thread_gives_up(self, served, monkeypatch):
        """A peer that stops mid-request line loses its connection after
        the client timeout; the service keeps answering."""
        service, exchange = served
        assert exchange({"cmd": "ping"}) == {"ok": True, "pong": True}
        monkeypatch.setattr(server_module, "CLIENT_TIMEOUT_S", 0.2)
        serving = []
        serve_client = service._serve_client

        def recording(conn, peer):
            serving.append(threading.current_thread())
            serve_client(conn, peer)

        monkeypatch.setattr(service, "_serve_client", recording)
        staller = connect(service.endpoint, timeout=10.0)
        try:
            staller.sendall(b'{"cmd": "pi')
            deadline = time.monotonic() + 10.0
            while not serving:
                assert time.monotonic() < deadline, "stalled client never served"
                time.sleep(0.01)
            serving[0].join(timeout=10.0)
            assert not serving[0].is_alive()
            assert staller.recv(1) == b""  # the service closed it
        finally:
            staller.close()
        assert exchange({"cmd": "ping"}) == {"ok": True, "pong": True}

    def test_unexpected_failure_gets_an_internal_reply(self, served):
        service, exchange = served

        def broken_state():
            raise TypeError("snapshot exploded")

        service.state = broken_state
        reply = exchange({"cmd": "status"})
        assert reply["ok"] is False
        assert reply["kind"] == "internal"
        assert "snapshot exploded" in reply["error"]
        assert service.counters.internal_errors == 1
        assert exchange({"cmd": "ping"}) == {"ok": True, "pong": True}
