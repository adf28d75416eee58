"""Trace format v2 (typed payload columns): round trips, reading v1/v2
segments (made by the test-side fixture writer) and upgrading them,
mixed-version synthesis equivalence, the committed golden v1 and v2
fixtures, format-error diagnostics, and the store-info / usage-error
CLI satellites."""

import os
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import dag_from_runs, dag_to_json, synthesize_from_trace, to_dot
from repro.core.pipeline import STRATEGY_MERGE_DAGS
from repro.experiments.batch import BatchConfig
from repro.experiments.runner import RunConfig, run_once
from repro.scenarios import build_scenario_spec
from repro.sim.kernel import SEC
from repro.store import (
    SEGMENT_SUFFIX,
    SegmentReader,
    StoreFormatError,
    TraceStore,
    encode_trace,
    peek_header,
    record_batch,
    synthesize_from_store,
    write_segment,
)
from repro.store.format import SHAPE_JSON, VERSION_V1, VERSION_V2
from repro.tracing.events import TraceEvent
from repro.tracing.session import Trace
from repro.tracing.storage import TRACE_SUFFIX, load_trace, save_trace
from segment_fixtures import encode_as, write_as

DATA_DIR = Path(__file__).parent / "data"
DURATION_NS = int(1.0 * SEC)


def traced_run(name, run_index=0, runs=3):
    spec = build_scenario_spec(
        name, run_index=run_index, runs=runs, duration_ns=DURATION_NS
    )
    config = RunConfig(duration_ns=DURATION_NS, num_cpus=spec.num_cpus)
    return run_once(
        lambda world, i: spec.build(world), config, run_index=run_index
    ).trace


@pytest.fixture(scope="module")
def syn_trace():
    return traced_run("syn")


@pytest.fixture(scope="module")
def fusion_traces():
    return [traced_run("sensor-fusion", i) for i in range(3)]


# ---------------------------------------------------------------------------
# v2 round trips + encoding properties
# ---------------------------------------------------------------------------


class TestFormatV2:
    def test_v2_still_writable(self, syn_trace, tmp_path):
        """v2 segments, as older stores hold them, read back whole."""
        path = str(tmp_path / f"run{SEGMENT_SUFFIX}")
        write_as(syn_trace, path, 2)
        assert peek_header(path)[0] == VERSION_V2 == 2
        reader = SegmentReader.open(path)
        assert reader.version == 2
        assert reader.to_trace().to_dict() == syn_trace.to_dict()

    def test_v1_escape_hatch_still_writable(self, syn_trace, tmp_path):
        """v1 segments, as older stores hold them, read back whole."""
        path = str(tmp_path / f"run{SEGMENT_SUFFIX}")
        write_as(syn_trace, path, 1)
        assert peek_header(path)[0] == VERSION_V1
        assert SegmentReader.open(path).to_trace().to_dict() == syn_trace.to_dict()

    @pytest.mark.parametrize("compress", [True, False])
    def test_v1_v2_describe_one_trace(self, syn_trace, compress):
        via_v1 = SegmentReader(encode_as(syn_trace, 1, compress=compress)).to_trace()
        via_v2 = SegmentReader(encode_as(syn_trace, 2, compress=compress)).to_trace()
        assert via_v1.to_dict() == via_v2.to_dict() == syn_trace.to_dict()

    def test_v2_scenario_segments_are_smaller(self, syn_trace):
        """Typed columns beat per-row JSON strings on the domain's
        ID-heavy payloads (the whole point of the format)."""
        v1 = len(encode_as(syn_trace, 1))
        v2 = len(encode_as(syn_trace, 2))
        assert v2 < v1

    def test_payload_key_order_preserved(self):
        """Shapes are keyed by ordered (key, type) tuples, so dict
        insertion order survives the round trip exactly."""
        events = [
            TraceEvent(10, 1, "p", {"b": 1, "a": "x"}),
            TraceEvent(20, 1, "p", {"a": "y", "b": 2}),
        ]
        trace = Trace(ros_events=events, pid_map={1: "n"}, start_ts=0, stop_ts=30)
        restored = SegmentReader(encode_trace(trace)).to_trace()
        assert [list(e.data) for e in restored.ros_events] == [["b", "a"], ["a", "b"]]

    def test_schema_fallback_rows_round_trip(self):
        """Payloads outside the closed schema (nested containers, huge
        ints) take the per-row JSON fallback and still round-trip."""
        events = [
            TraceEvent(10, 1, "p", {"nested": {"a": [1, 2]}, "cb_id": "x"}),
            TraceEvent(20, 1, "p", {"big": 1 << 70}),
            TraceEvent(30, 1, "p", {"cb_id": "x", "src_ts": 5}),  # typed row
        ]
        trace = Trace(ros_events=events, pid_map={1: None}, start_ts=0, stop_ts=40)
        raw = encode_trace(trace, compress=False)
        reader = SegmentReader(raw)
        restored = reader.to_trace()
        assert restored.to_dict() == trace.to_dict()
        shape_col = reader._ros[3]
        assert shape_col[0] == SHAPE_JSON and shape_col[1] == SHAPE_JSON
        assert shape_col[2] not in (SHAPE_JSON,)

    def test_typed_values_keep_python_types(self):
        """ints stay int, bools stay bool, floats stay float, None stays
        None -- the closed schema is type-exact, not JSON-coerced."""
        data = {"i": -7, "b": True, "f": 0.25, "n": None, "s": "ü"}
        trace = Trace(
            ros_events=[TraceEvent(1, 1, "p", data)],
            pid_map={1: "n"}, start_ts=0, stop_ts=2,
        )
        restored = SegmentReader(encode_trace(trace)).to_trace()
        out = restored.ros_events[0].data
        assert out == data
        assert isinstance(out["i"], int) and not isinstance(out["i"], bool)
        assert out["b"] is True
        assert isinstance(out["f"], float)
        assert out["n"] is None

    @given(
        payloads=st.lists(
            st.dictionaries(
                st.text(max_size=6),
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
                    st.floats(allow_nan=False),
                    st.text(max_size=8),
                    st.lists(st.integers(), max_size=3),
                ),
                max_size=4,
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_payloads_round_trip(self, payloads):
        events = [
            TraceEvent(ts=10 * i, pid=1 + (i % 3), probe="p:x", data=data)
            for i, data in enumerate(payloads)
        ]
        trace = Trace(
            ros_events=events, pid_map={1: "a", 2: None}, start_ts=0, stop_ts=10,
        )
        for compress in (False, True):
            restored = SegmentReader(
                encode_trace(trace, compress=compress)
            ).to_trace()
            assert restored.to_dict() == trace.to_dict()


# ---------------------------------------------------------------------------
# Conversion + upgrade paths
# ---------------------------------------------------------------------------


class TestUpgradePath:
    def _v1_store(self, traces, directory):
        os.makedirs(directory, exist_ok=True)
        for index, trace in enumerate(traces):
            write_as(
                trace,
                os.path.join(directory, f"run{index:03d}{SEGMENT_SUFFIX}"),
                1,
            )
        return TraceStore(directory)

    def test_upgrade_is_idempotent(self, fusion_traces, tmp_path):
        store = self._v1_store(fusion_traces[:1], str(tmp_path / "s"))
        assert len(store.convert_legacy(upgrade=True)) == 1
        assert store.convert_legacy(upgrade=True) == []
        # and without upgrade, binary runs are never touched
        assert store.convert_legacy() == []

    def test_upgrade_preserves_synthesis_bytes(self, fusion_traces, tmp_path):
        store = self._v1_store(fusion_traces, str(tmp_path / "s"))
        expected = synthesize_from_trace(Trace.merge(fusion_traces))
        before = synthesize_from_store(store, jobs=1)
        store.convert_legacy(upgrade=True)
        after = synthesize_from_store(TraceStore(str(tmp_path / "s")), jobs=1)
        assert dag_to_json(before) == dag_to_json(expected)
        assert dag_to_json(after) == dag_to_json(expected)
        assert to_dot(after) == to_dot(expected)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_v1_v2_legacy_store_synthesis(self, fusion_traces, tmp_path, jobs):
        """A v1 segment, a v2 segment and a gzip-JSON trace in one
        directory: synthesis fails on the gzip-JSON run until
        ``convert_legacy`` imports it, and then, with the v1 and v2
        segments left as they are, stays byte-identical to the
        in-memory pipeline, ``merge_traces`` in one process and
        ``merge_dags`` at any jobs value."""
        directory = str(tmp_path / "mixed")
        os.makedirs(directory)
        write_as(
            fusion_traces[0], os.path.join(directory, f"run000{SEGMENT_SUFFIX}"), 1
        )
        write_as(
            fusion_traces[1], os.path.join(directory, f"run001{SEGMENT_SUFFIX}"), 2
        )
        legacy_path = os.path.join(directory, f"run002{TRACE_SUFFIX}")
        save_trace(fusion_traces[2], legacy_path)
        store = TraceStore(directory)
        with pytest.raises(StoreFormatError, match="repro convert") as excinfo:
            synthesize_from_store(store, jobs=jobs, strategy=STRATEGY_MERGE_DAGS)
        assert legacy_path in str(excinfo.value)
        store.convert_legacy()
        assert [store.format_version(r) for r in store.run_ids()] == [1, 2, 3]
        expected = synthesize_from_trace(Trace.merge(fusion_traces))
        actual = synthesize_from_store(store)
        assert dag_to_json(actual) == dag_to_json(expected)
        assert to_dot(actual) == to_dot(expected)
        expected = dag_from_runs(fusion_traces)
        actual = synthesize_from_store(store, jobs=jobs, strategy=STRATEGY_MERGE_DAGS)
        assert dag_to_json(actual) == dag_to_json(expected)
        assert to_dot(actual) == to_dot(expected)


# ---------------------------------------------------------------------------
# Golden v1/v2 fixtures: reading old formats can never silently regress
# ---------------------------------------------------------------------------


def _golden_trace():
    return load_trace(str(DATA_DIR / "golden_v1.trace.json.gz"))


def _golden_store(tmp_path, version):
    """A store holding the committed golden segment of ``version`` as
    run ``golden``."""
    directory = str(tmp_path / "s")
    os.makedirs(directory)
    shutil.copy(
        DATA_DIR / f"golden_v{version}.trace.bin",
        os.path.join(directory, f"golden{SEGMENT_SUFFIX}"),
    )
    store = TraceStore(directory)
    assert store.format_version("golden") == version
    return store


def _assert_synthesizes_like_companion(store):
    expected = synthesize_from_trace(_golden_trace())
    actual = synthesize_from_store(store, jobs=1)
    assert dag_to_json(actual) == dag_to_json(expected)
    assert to_dot(actual) == to_dot(expected)


def _assert_upgrades_to_committed_v3(store):
    """``upgrade=True`` lifts the run to v3 with the trace unchanged --
    to exactly the committed golden v3 bytes."""
    assert store.convert_legacy(upgrade=True) == [store.path_of("golden")]
    assert store.format_version("golden") == 3
    assert store.load("golden").to_dict() == _golden_trace().to_dict()
    with open(store.path_of("golden"), "rb") as handle:
        assert handle.read() == (DATA_DIR / "golden_v3.trace.bin").read_bytes()


class TestGoldenV1Fixture:
    def test_committed_v1_segment_decodes(self):
        """The committed v1 bytes must stay readable forever; the
        gzip-JSON companion decodes through an independent code path."""
        reader = SegmentReader.open(str(DATA_DIR / "golden_v1.trace.bin"))
        assert reader.version == 1
        assert reader.to_trace().to_dict() == _golden_trace().to_dict()

    def test_committed_v1_segment_synthesizes_like_its_companion(
        self, tmp_path
    ):
        """The v1 columns normalized on open feed the same column
        consumer as v2/v3: the committed v1 bytes must synthesize the
        model of the gzip-JSON companion, byte for byte."""
        _assert_synthesizes_like_companion(_golden_store(tmp_path, 1))

    def test_committed_v1_segment_upgrades(self, tmp_path):
        _assert_upgrades_to_committed_v3(_golden_store(tmp_path, 1))


class TestGoldenV2Fixture:
    def test_committed_v2_segment_decodes(self):
        """The committed v2 bytes (one zlib body stream) must stay
        readable forever; they describe the golden v1 companion trace."""
        reader = SegmentReader.open(str(DATA_DIR / "golden_v2.trace.bin"))
        assert reader.version == 2
        assert reader.to_trace().to_dict() == _golden_trace().to_dict()

    def test_committed_v2_segment_synthesizes_like_its_companion(
        self, tmp_path
    ):
        _assert_synthesizes_like_companion(_golden_store(tmp_path, 2))

    def test_committed_v2_segment_upgrades(self, tmp_path):
        _assert_upgrades_to_committed_v3(_golden_store(tmp_path, 2))


class TestFixtureWriter:
    @pytest.mark.parametrize("version", [1, 2])
    def test_reproduces_committed_segment_bytes(self, version):
        """The test-side v1/v2 encoder makes the committed golden bytes
        byte for byte, so the segments it writes for the read-side
        tests are the formats older stores hold."""
        committed = (DATA_DIR / f"golden_v{version}.trace.bin").read_bytes()
        assert encode_as(_golden_trace(), version) == committed


# ---------------------------------------------------------------------------
# Format-error diagnostics + the strict flag
# ---------------------------------------------------------------------------


class TestFormatErrorDiagnostics:
    def test_truncated_file_names_path(self, syn_trace, tmp_path):
        path = str(tmp_path / f"cut{SEGMENT_SUFFIX}")
        raw = encode_trace(syn_trace, compress=False)
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 3])
        with pytest.raises(StoreFormatError) as excinfo:
            SegmentReader.open(path)
        assert path in str(excinfo.value)

    def test_corrupt_zlib_body_names_path(self, syn_trace, tmp_path):
        path = str(tmp_path / f"zl{SEGMENT_SUFFIX}")
        raw = bytearray(encode_trace(syn_trace, compress=True))
        raw[60:70] = b"\x00" * 10  # stomp inside the deflate stream
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(StoreFormatError) as excinfo:
            SegmentReader.open(path)
        message = str(excinfo.value)
        assert path in message and "zlib" in message

    def test_unknown_version_names_path_and_version(self, syn_trace, tmp_path):
        path = str(tmp_path / f"v9{SEGMENT_SUFFIX}")
        raw = bytearray(encode_trace(syn_trace))
        raw[8] = 99  # version u16 lives right after the 8-byte magic
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(StoreFormatError) as excinfo:
            SegmentReader.open(path)
        message = str(excinfo.value)
        assert path in message and "99" in message

    def test_truncated_header_offset_context(self):
        with pytest.raises(StoreFormatError, match="header"):
            SegmentReader(b"\x00" * 4)

    def _store_with_corruption(self, syn_trace, tmp_path, strict):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        write_segment(syn_trace, os.path.join(directory, f"good{SEGMENT_SUFFIX}"))
        with open(os.path.join(directory, f"bad{SEGMENT_SUFFIX}"), "wb") as handle:
            handle.write(b"garbage-not-a-segment")
        return TraceStore(directory, strict=strict)

    def test_strict_store_raises(self, syn_trace, tmp_path):
        store = self._store_with_corruption(syn_trace, tmp_path, strict=True)
        with pytest.raises(StoreFormatError):
            store.readers()
        with pytest.raises(StoreFormatError):
            store.run_infos()

    def test_lenient_store_skips_with_warning(self, syn_trace, tmp_path):
        store = self._store_with_corruption(syn_trace, tmp_path, strict=False)
        with pytest.warns(RuntimeWarning, match="bad"):
            readers = store.readers()
        assert len(readers) == 1
        assert readers[0].pid_map == syn_trace.pid_map
        with pytest.warns(RuntimeWarning):
            infos = store.run_infos()
        assert [info.run_id for info in infos] == ["good"]
        # per-run open stays loud even on a lenient handle
        with pytest.raises(StoreFormatError):
            store.open("bad")

    def test_lenient_store_skips_in_sharded_workers(self, syn_trace, tmp_path):
        """A lenient store's ``strict`` flag reaches every ``merge_dags``
        run, in-process and in worker processes: a truncated run is
        skipped with a warning, as ``merge_traces`` skips it, instead of
        failing the synthesis."""
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        runs = {"run000": syn_trace, "run001": syn_trace, "run002": traced_run("syn", 2)}
        for run_id, trace in runs.items():
            write_segment(trace, os.path.join(directory, f"{run_id}{SEGMENT_SUFFIX}"))
        good = [runs["run000"], runs["run002"]]
        truncated = os.path.join(directory, f"run001{SEGMENT_SUFFIX}")
        os.truncate(truncated, os.path.getsize(truncated) // 2)
        store = TraceStore(directory, strict=False)
        with pytest.warns(RuntimeWarning, match="run001"):
            merged = synthesize_from_store(store)
        assert dag_to_json(merged) == dag_to_json(
            synthesize_from_trace(Trace.merge(good))
        )
        expected = dag_to_json(dag_from_runs(good))
        for jobs in (1, 2):
            with pytest.warns(RuntimeWarning, match="run001"):
                per_run = synthesize_from_store(
                    store, jobs=jobs, strategy=STRATEGY_MERGE_DAGS
                )
            assert dag_to_json(per_run) == expected, jobs

    def test_corrupt_legacy_json_is_a_format_error(
        self, syn_trace, tmp_path, capsys
    ):
        """A corrupt .trace.json.gz (a bad gzip stream, a cut one) makes
        ``repro convert`` exit 2 naming it and write no segment; reads
        diagnose it like any gzip-JSON run: StoreFormatError with the
        path, skippable under strict=False."""
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        write_segment(syn_trace, os.path.join(directory, f"good{SEGMENT_SUFFIX}"))
        bad_path = os.path.join(directory, f"bad{TRACE_SUFFIX}")
        save_trace(syn_trace, bad_path)
        with open(bad_path, "rb") as handle:
            whole = handle.read()
        for corrupt in (b"\x1f\x8b-not-really-gzip", whole[: len(whole) // 2]):
            with open(bad_path, "wb") as handle:
                handle.write(corrupt)
            assert main(["convert", directory]) == 2
            assert bad_path in capsys.readouterr().err
            assert sorted(os.listdir(directory)) == [
                f"bad{TRACE_SUFFIX}", f"good{SEGMENT_SUFFIX}",
            ]
        with pytest.raises(StoreFormatError) as excinfo:
            TraceStore(directory).readers()
        assert bad_path in str(excinfo.value)
        lenient = TraceStore(directory, strict=False)
        with pytest.warns(RuntimeWarning, match="bad"):
            assert len(lenient.readers()) == 1
        with pytest.warns(RuntimeWarning):
            assert [info.run_id for info in lenient.run_infos()] == ["good"]

    def test_interrupted_upgrade_leaves_original_intact(self, syn_trace, tmp_path, monkeypatch):
        """The v1 -> v3 upgrade writes through a staging file and
        os.replace()s it, so a failed rewrite never truncates the only
        copy of a run and leaves no staging file behind."""
        from repro.store.writer import SegmentSpool

        directory = str(tmp_path / "s")
        os.makedirs(directory)
        path = os.path.join(directory, f"run000{SEGMENT_SUFFIX}")
        write_as(syn_trace, path, 1)
        original = open(path, "rb").read()

        def exploding_finish(spool, handle, *args, **kwargs):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(SegmentSpool, "finish", exploding_finish)
        store = TraceStore(directory)
        with pytest.raises(OSError, match="disk full"):
            store.convert_legacy(upgrade=True)
        assert open(path, "rb").read() == original
        assert SegmentReader.open(path).version == 1
        assert os.listdir(directory) == [f"run000{SEGMENT_SUFFIX}"]


# ---------------------------------------------------------------------------
# CLI satellites: usage errors + store-info
# ---------------------------------------------------------------------------


class TestCliUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "somewhere", "--jobs", "0"],
            ["synthesize", "somewhere", "--jobs", "-3"],
            ["synthesize", "somewhere", "--jobs", "two"],
            ["record", "syn", "--out", "somewhere", "--jobs", "0"],
            # The segment format is not selectable: the flag is gone.
            ["record", "syn", "--out", "somewhere", "--format-version", "3"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestStoreInfoCli:
    def test_mixed_store_listing(self, fusion_traces, tmp_path, capsys):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        write_as(
            fusion_traces[0], os.path.join(directory, f"run000{SEGMENT_SUFFIX}"), 1
        )
        write_as(
            fusion_traces[1], os.path.join(directory, f"run001{SEGMENT_SUFFIX}"), 2
        )
        write_segment(
            fusion_traces[2], os.path.join(directory, f"run002{SEGMENT_SUFFIX}")
        )
        assert main(["store-info", directory]) == 0
        out = capsys.readouterr().out
        assert "3 run(s)" in out
        assert " v1 " in out and " v2 " in out and " v3 " in out
        assert "B/event" in out and "formats: v1, v2, v3" in out

    def test_missing_directory_exits_2(self, capsys):
        assert main(["store-info", "/nonexistent/store"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_strict_skips_corrupt_run(self, syn_trace, tmp_path, capsys):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        write_segment(syn_trace, os.path.join(directory, f"good{SEGMENT_SUFFIX}"))
        with open(os.path.join(directory, f"bad{SEGMENT_SUFFIX}"), "wb") as handle:
            handle.write(b"nope")
        assert main(["store-info", directory]) == 2  # strict default fails
        assert "bad" in capsys.readouterr().err
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["store-info", directory, "--no-strict"]) == 0
        out = capsys.readouterr().out
        assert "good" in out and "1 run(s)" in out


class TestConvertCli:
    def test_convert_upgrade_cli(self, fusion_traces, tmp_path, capsys):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        write_as(
            fusion_traces[0], os.path.join(directory, f"run000{SEGMENT_SUFFIX}"), 1
        )
        save_trace(
            fusion_traces[1], os.path.join(directory, f"run001{TRACE_SUFFIX}")
        )
        assert main(["convert", directory, "--upgrade", "--remove"]) == 0
        out = capsys.readouterr().out
        assert "2 run(s) -> format v3" in out
        store = TraceStore(directory)
        assert [store.format_version(r) for r in store.run_ids()] == [3, 3]
        assert not any(
            name.endswith(TRACE_SUFFIX) for name in os.listdir(directory)
        )
        # idempotent second pass
        assert main(["convert", directory, "--upgrade"]) == 0
        assert "nothing to convert" in capsys.readouterr().out
