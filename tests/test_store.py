"""The binary trace store: format round trips, mixed directories,
spooled recording, and the storage-layer error satellite."""

import gzip
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.batch import BatchConfig, run_batch
from repro.experiments.runner import RunConfig, run_once
from repro.scenarios import build_scenario_spec
from repro.sim.kernel import MSEC, SEC
from repro.sim.policies import POLICY_NAMES
from repro.sim.scheduler import SchedSwitch, SchedWakeup
from repro.store import (
    SEGMENT_SUFFIX,
    SegmentReader,
    SegmentSpool,
    StoreDatabase,
    StoreError,
    StoreFormatError,
    TraceStore,
    convert_database,
    encode_trace,
    merge_ros_streams,
    merge_sched_streams,
    merge_wakeup_streams,
    record_batch,
    record_run,
    save_database_binary,
    write_segment,
)
from repro.tracing.events import TraceEvent
from repro.tracing.session import Trace, TraceDatabase
from repro.tracing.storage import TRACE_SUFFIX, load_database, save_database, save_trace

DURATION_NS = int(1.0 * SEC)


def traced_run(name, run_index=0):
    # duration_ns forwarded like the batch/record workers do, so these
    # references are comparable with record_run output.
    spec = build_scenario_spec(
        name, run_index=run_index, runs=3, duration_ns=DURATION_NS
    )
    config = RunConfig(duration_ns=DURATION_NS, num_cpus=spec.num_cpus)
    return run_once(lambda world, i: spec.build(world), config, run_index=run_index)


@pytest.fixture(scope="module")
def sample_traces():
    return {
        name: traced_run(name).trace
        for name in ("syn", "sensor-fusion", "service-mesh")
    }


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("compress", [True, False])
    def test_scenario_traces_round_trip(self, sample_traces, tmp_path, compress):
        for name, trace in sample_traces.items():
            path = str(tmp_path / f"{name}{SEGMENT_SUFFIX}")
            write_segment(trace, path, compress=compress)
            restored = SegmentReader.open(path).to_trace()
            assert restored.to_dict() == trace.to_dict(), name

    def test_binary_json_binary_lossless(self, sample_traces, tmp_path):
        """binary -> Trace -> JSON -> Trace -> binary is a fixed point."""
        trace = sample_traces["syn"]
        first = encode_trace(trace)
        once = SegmentReader(first).to_trace()
        via_json = Trace.from_dict(json.loads(json.dumps(once.to_dict())))
        second = encode_trace(via_json)
        assert first == second
        assert SegmentReader(second).to_trace().to_dict() == trace.to_dict()

    def test_prefix_pid_map_matches_full_decode(self, sample_traces, tmp_path):
        for compress in (True, False):
            path = str(tmp_path / f"pm-{compress}{SEGMENT_SUFFIX}")
            write_segment(sample_traces["service-mesh"], path, compress=compress)
            reader = SegmentReader.open(path)
            assert reader.pid_map == sample_traces["service-mesh"].pid_map

    def test_pid_selection_matches_filter(self, sample_traces):
        trace = sample_traces["sensor-fusion"]
        reader = SegmentReader(encode_trace(trace))
        pids = trace.pids()[:2]
        selected = list(reader.iter_ros(pids=pids))
        expected = [e for e in trace.ros_events if e.pid in set(pids)]
        assert selected == expected

    def test_compression_shrinks_segments(self, sample_traces):
        trace = sample_traces["syn"]
        assert len(encode_trace(trace, compress=True)) < len(
            encode_trace(trace, compress=False)
        )

    def test_ros_pids_scans_the_event_column(self, sample_traces):
        trace = sample_traces["syn"]
        reader = SegmentReader(encode_trace(trace))
        assert reader.ros_pids() == sorted({e.pid for e in trace.ros_events})

    def test_merged_streams_match_trace_merge(self, sample_traces):
        """All three merge_*_streams agree with Trace.merge, per stream."""
        traces = [sample_traces["syn"], sample_traces["sensor-fusion"]]
        readers = [SegmentReader(encode_trace(t)) for t in traces]
        merged = Trace.merge(traces)
        assert list(merge_ros_streams(readers)) == merged.ros_events
        assert list(merge_sched_streams(readers)) == merged.sched_events
        assert list(merge_wakeup_streams(readers)) == merged.wakeup_events


# -- property-style round trips over synthetic traces -----------------------

_payloads = st.dictionaries(
    st.sampled_from(["topic", "cb_id", "src_ts", "kind", "will_dispatch", "x"]),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
        st.text(max_size=8),
    ),
    max_size=4,
)


@st.composite
def synthetic_traces(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    ros = sorted(
        (
            TraceEvent(
                ts=draw(st.integers(min_value=0, max_value=10 ** 12)),
                pid=draw(st.integers(min_value=1, max_value=5)),
                probe=draw(st.sampled_from(["p:a", "p:b", "dds_write_impl"])),
                data=draw(_payloads),
            )
            for _ in range(n)
        ),
        key=lambda e: e.ts,
    )
    m = draw(st.integers(min_value=0, max_value=15))
    sched = sorted(
        (
            SchedSwitch(
                ts=draw(st.integers(min_value=0, max_value=10 ** 12)),
                cpu=draw(st.integers(min_value=0, max_value=3)),
                prev_pid=draw(st.integers(min_value=0, max_value=5)),
                prev_comm=draw(st.text(max_size=6)),
                prev_prio=draw(st.integers(min_value=-1, max_value=99)),
                prev_state=draw(st.sampled_from(["R", "S", "D"])),
                next_pid=draw(st.integers(min_value=0, max_value=5)),
                next_comm=draw(st.text(max_size=6)),
                next_prio=draw(st.integers(min_value=-1, max_value=99)),
            )
            for _ in range(m)
        ),
        key=lambda e: e.ts,
    )
    k = draw(st.integers(min_value=0, max_value=5))
    wakeups = sorted(
        (
            SchedWakeup(
                ts=draw(st.integers(min_value=0, max_value=10 ** 12)),
                cpu=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=3))),
                pid=draw(st.integers(min_value=1, max_value=5)),
                comm=draw(st.text(max_size=6)),
                prio=draw(st.integers(min_value=-1, max_value=99)),
            )
            for _ in range(k)
        ),
        key=lambda e: e.ts,
    )
    pid_map = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=5),
            st.one_of(st.none(), st.text(max_size=10)),
            max_size=5,
        )
    )
    return Trace(
        ros_events=ros,
        sched_events=sched,
        wakeup_events=wakeups,
        pid_map=pid_map,
        start_ts=draw(st.integers(min_value=0, max_value=10 ** 12)),
        stop_ts=draw(st.integers(min_value=0, max_value=10 ** 12)),
    )


class TestPropertyRoundTrip:
    @given(trace=synthetic_traces(), compress=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_traces_round_trip(self, trace, compress):
        restored = SegmentReader(encode_trace(trace, compress=compress)).to_trace()
        assert restored.to_dict() == trace.to_dict()

    @given(trace=synthetic_traces())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_agrees_with_json_storage(self, trace):
        """Binary and the legacy JSON serialization describe one trace."""
        via_binary = SegmentReader(encode_trace(trace)).to_trace()
        via_json = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert via_binary.to_dict() == via_json.to_dict()


# ---------------------------------------------------------------------------
# Store directories: mixed formats, conversion, store-backed database
# ---------------------------------------------------------------------------


class TestTraceStore:
    def test_mixed_directory_loads_both_formats(self, sample_traces, tmp_path):
        directory = str(tmp_path / "mixed")
        os.makedirs(directory)
        legacy = sample_traces["syn"]
        binary = sample_traces["sensor-fusion"]
        save_trace(legacy, os.path.join(directory, f"legacy{TRACE_SUFFIX}"))
        write_segment(binary, os.path.join(directory, f"binary{SEGMENT_SUFFIX}"))
        store = TraceStore(directory)
        assert store.run_ids() == ["binary", "legacy"]
        assert not store.is_binary("legacy")
        assert store.is_binary("binary")
        assert store.load("legacy").to_dict() == legacy.to_dict()
        assert store.load("binary").to_dict() == binary.to_dict()
        merged = store.merged_trace()
        assert merged.to_dict() == Trace.merge([binary, legacy]).to_dict()

    def test_binary_shadows_legacy_same_run(self, sample_traces, tmp_path):
        directory = str(tmp_path / "shadow")
        os.makedirs(directory)
        save_trace(sample_traces["syn"], os.path.join(directory, f"r{TRACE_SUFFIX}"))
        write_segment(
            sample_traces["sensor-fusion"],
            os.path.join(directory, f"r{SEGMENT_SUFFIX}"),
        )
        store = TraceStore(directory)
        assert store.run_ids() == ["r"]
        assert store.is_binary("r")
        assert store.load("r").to_dict() == sample_traces["sensor-fusion"].to_dict()

    def test_empty_store_raises_unless_allowed(self, tmp_path):
        directory = str(tmp_path / "empty")
        os.makedirs(directory)
        with pytest.raises(StoreError):
            TraceStore(directory)
        assert TraceStore(directory, allow_empty=True).run_ids() == []
        with pytest.raises(FileNotFoundError):
            TraceStore(str(tmp_path / "missing"))

    def test_convert_legacy_is_idempotent(self, sample_traces, tmp_path):
        directory = str(tmp_path / "convert")
        database = TraceDatabase()
        database.add("run000", sample_traces["syn"])
        database.add("run001", sample_traces["sensor-fusion"])
        save_database(database, directory)
        written = convert_database(directory)
        assert len(written) == 2
        store = TraceStore(directory)
        assert all(store.is_binary(r) for r in store.run_ids())
        assert store.convert_legacy() == []  # nothing left to convert
        for run_id in database.run_ids():
            assert store.load(run_id).to_dict() == database.get(run_id).to_dict()
        # legacy originals still on disk unless remove=True
        assert any(n.endswith(TRACE_SUFFIX) for n in os.listdir(directory))
        store.convert_legacy(remove=True)  # no-op: already all binary

    def test_save_database_binary(self, sample_traces, tmp_path):
        database = TraceDatabase()
        database.add("a", sample_traces["syn"])
        paths = save_database_binary(database, str(tmp_path / "db"))
        assert len(paths) == 1 and paths[0].endswith(SEGMENT_SUFFIX)
        assert TraceStore(str(tmp_path / "db")).load("a").to_dict() == (
            sample_traces["syn"].to_dict()
        )

    def test_store_database_lazy_and_write_through(self, sample_traces, tmp_path):
        directory = str(tmp_path / "sdb")
        database = StoreDatabase(TraceStore.create(directory))
        database.add("run000", sample_traces["syn"])
        assert os.path.exists(os.path.join(directory, f"run000{SEGMENT_SUFFIX}"))
        with pytest.raises(ValueError):
            database.add("run000", sample_traces["syn"])
        # a fresh handle materializes lazily from disk
        fresh = StoreDatabase(directory)
        assert fresh.run_ids() == ["run000"]
        assert fresh.get("run000").to_dict() == sample_traces["syn"].to_dict()
        assert fresh.merged().to_dict() == Trace.merge(
            [sample_traces["syn"]]
        ).to_dict()
        assert len(fresh) == 1


class TestFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(StoreFormatError):
            SegmentReader(b"NOTASEGM" + b"\x00" * 64)

    def test_truncated_header(self):
        with pytest.raises(StoreFormatError):
            SegmentReader(b"\x00" * 8)

    def test_truncated_body(self, sample_traces):
        raw = encode_trace(sample_traces["syn"], compress=False)
        with pytest.raises(StoreFormatError):
            SegmentReader(raw[: len(raw) // 2])

    def test_bad_version(self, sample_traces):
        raw = bytearray(encode_trace(sample_traces["syn"]))
        raw[8] = 99  # version u16 lives right after the 8-byte magic
        with pytest.raises(StoreFormatError):
            SegmentReader(bytes(raw))


# ---------------------------------------------------------------------------
# Spooled recording == in-memory tracing
# ---------------------------------------------------------------------------


class TestSpooledRecording:
    @pytest.mark.parametrize("name", ["syn", "deep-pipeline"])
    def test_record_run_matches_run_once(self, name, tmp_path):
        config = BatchConfig(duration_ns=DURATION_NS)
        recorded = record_run(name, 0, 3, config, str(tmp_path))
        stored = SegmentReader.open(recorded.path).to_trace()
        reference = traced_run(name).trace
        assert stored.to_dict() == reference.to_dict()
        assert recorded.ros_events == len(reference.ros_events)
        assert recorded.sched_events == len(reference.sched_events)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_record_run_matches_batch_run_under_policy(self, policy, tmp_path):
        """A recorded run is the batch run of the same index, scheduling
        policy included: the segment decodes to the trace ``run_batch``
        collects for it."""
        config = BatchConfig(
            duration_ns=300 * MSEC, sched_policy=policy, collect_traces=True
        )
        recorded = record_run("avp-interference", 0, 1, config, str(tmp_path))
        stored = SegmentReader.open(recorded.path).to_trace()
        batch = run_batch("avp-interference", runs=1, config=config)
        assert stored.to_dict() == batch.database.get("run000").to_dict()

    def test_rotation_interval_does_not_change_the_trace(self, tmp_path):
        fine = record_run(
            "syn", 0, 3,
            BatchConfig(duration_ns=DURATION_NS, segment_every_ns=DURATION_NS // 7),
            str(tmp_path / "fine"),
        )
        coarse = record_run(
            "syn", 0, 3,
            BatchConfig(duration_ns=DURATION_NS),
            str(tmp_path / "coarse"),
        )
        fine_trace = SegmentReader.open(fine.path).to_trace()
        coarse_trace = SegmentReader.open(coarse.path).to_trace()
        assert fine_trace.to_dict() == coarse_trace.to_dict()

    def test_negative_rotation_interval_rejected(self, tmp_path):
        """A negative spool interval must fail fast, not loop forever."""
        from repro.store import record_batch

        config = BatchConfig(duration_ns=DURATION_NS, segment_every_ns=-1)
        with pytest.raises(ValueError, match="segment_every_ns"):
            record_batch("syn", runs=1, directory=str(tmp_path), config=config)
        with pytest.raises(ValueError, match="segment_every_ns"):
            record_run("syn", 0, 1, config, str(tmp_path))

    def test_spool_bounds_live_objects(self, sample_traces):
        """add_segment + the spool never keeps event objects around."""
        spool = SegmentSpool()
        spool.add_trace(sample_traces["syn"])
        assert spool.num_ros == len(sample_traces["syn"].ros_events)
        assert spool.num_sched == len(sample_traces["syn"].sched_events)


# ---------------------------------------------------------------------------
# Satellite: storage.load_database must not silently return empty
# ---------------------------------------------------------------------------


class TestLoadDatabaseEmptySatellite:
    def test_empty_directory_raises(self, tmp_path):
        directory = str(tmp_path / "db")
        os.makedirs(directory)
        with pytest.raises(ValueError, match="no .*traces"):
            load_database(directory)

    def test_allow_empty_escape_hatch(self, tmp_path):
        directory = str(tmp_path / "db")
        os.makedirs(directory)
        assert len(load_database(directory, allow_empty=True)) == 0

    def test_error_hints_at_binary_store(self, sample_traces, tmp_path):
        directory = str(tmp_path / "db")
        os.makedirs(directory)
        write_segment(
            sample_traces["syn"], os.path.join(directory, f"r{SEGMENT_SUFFIX}")
        )
        with pytest.raises(ValueError, match="TraceStore"):
            load_database(directory)

    def test_missing_directory_still_filenotfound(self):
        with pytest.raises(FileNotFoundError):
            load_database("/nonexistent/trace/dir")

    def test_populated_directory_unchanged(self, sample_traces, tmp_path):
        directory = str(tmp_path / "db")
        database = TraceDatabase()
        database.add("run000", sample_traces["syn"])
        save_database(database, directory)
        assert len(load_database(directory)) == 1


# ---------------------------------------------------------------------------
# Run-shadowing satellites: add_trace / record overwrite protection
# ---------------------------------------------------------------------------


class TestRunShadowing:
    def test_add_trace_refuses_existing_binary_run(self, sample_traces, tmp_path):
        store = TraceStore.create(str(tmp_path))
        store.add_trace("run000", sample_traces["syn"])
        with pytest.raises(ValueError, match="run000.*already stored"):
            store.add_trace("run000", sample_traces["sensor-fusion"])

    def test_add_trace_refuses_legacy_only_run(self, sample_traces, tmp_path):
        """A binary add over a legacy-only run would silently shadow the
        JSON content (binary wins name resolution) -- it must raise."""
        save_trace(sample_traces["syn"], str(tmp_path / f"run000{TRACE_SUFFIX}"))
        store = TraceStore(str(tmp_path))
        with pytest.raises(ValueError, match="run000.*already stored"):
            store.add_trace("run000", sample_traces["sensor-fusion"])
        # The legacy content is untouched and still resolves.
        assert store.load("run000").to_dict() == sample_traces["syn"].to_dict()
        assert not (tmp_path / f"run000{SEGMENT_SUFFIX}").exists()

    def test_record_batch_refuses_existing_runs(self, tmp_path):
        directory = str(tmp_path / "store")
        config = BatchConfig(duration_ns=DURATION_NS)
        record_batch("syn", runs=2, directory=directory, config=config)
        before = {
            run_id: TraceStore(directory).load(run_id).to_dict()
            for run_id in TraceStore(directory).run_ids()
        }
        with pytest.raises(ValueError, match="run000, run001"):
            record_batch(
                "syn", runs=2, directory=directory,
                config=BatchConfig(duration_ns=DURATION_NS, base_seed=999),
            )
        after = TraceStore(directory)
        assert {
            run_id: after.load(run_id).to_dict() for run_id in after.run_ids()
        } == before

    def test_record_batch_force_overwrites(self, tmp_path):
        directory = str(tmp_path / "store")
        record_batch(
            "syn", runs=1, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        result = record_batch(
            "syn", runs=2, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS), force=True,
        )
        assert result.run_ids == ["run000", "run001"]
        assert TraceStore(directory).run_ids() == ["run000", "run001"]

    def test_record_batch_into_disjoint_ids_is_allowed(self, sample_traces, tmp_path):
        """Only *colliding* run ids refuse; unrelated stored runs are
        left alone and the store grows."""
        directory = str(tmp_path / "store")
        store = TraceStore.create(directory)
        store.add_trace("run999", sample_traces["service-mesh"])
        record_batch(
            "syn", runs=1, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        assert TraceStore(directory).run_ids() == ["run000", "run999"]


class TestLegacyReaderCache:
    def test_legacy_open_is_cached_per_handle(self, sample_traces, tmp_path):
        save_trace(sample_traces["syn"], str(tmp_path / f"run000{TRACE_SUFFIX}"))
        store = TraceStore(str(tmp_path))
        assert store.open("run000") is store.open("run000")

    def test_union_pid_map_reuses_cached_legacy_reader(self, sample_traces, tmp_path):
        save_trace(sample_traces["syn"], str(tmp_path / f"run000{TRACE_SUFFIX}"))
        write_segment(
            sample_traces["sensor-fusion"],
            str(tmp_path / f"run001{SEGMENT_SUFFIX}"),
        )
        store = TraceStore(str(tmp_path))
        union = {}
        for reader in store.readers():
            union.update(reader.pid_map)
        expected = dict(sample_traces["syn"].pid_map)
        expected.update(sample_traces["sensor-fusion"].pid_map)
        assert union == expected
        # The pass over the readers loaded the legacy run; later opens
        # reuse that instance instead of re-decoding the JSON.
        assert store.readers()[0] is store.open("run000")

    def test_convert_legacy_drops_cached_reader(self, sample_traces, tmp_path):
        save_trace(sample_traces["syn"], str(tmp_path / f"run000{TRACE_SUFFIX}"))
        store = TraceStore(str(tmp_path))
        cached = store.open("run000")
        store.convert_legacy()
        reader = store.open("run000")
        assert reader is not cached
        assert isinstance(reader, SegmentReader)
