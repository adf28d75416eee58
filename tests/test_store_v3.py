"""Trace format v3 (per-section compression): round trips, selective
section I/O counters, the v1/v2 -> v3 upgrade path, the committed
golden v3 fixture, the uncompressed segment cache, per-section error
diagnostics, the ``store-info --json`` satellite, walk_fastpath
equivalence properties, and the vectorized Alg. 2 window floor."""

import hashlib
import json
import multiprocessing
import os
import shutil
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.core import (
    dag_from_runs,
    dag_to_json,
    format_exec_table,
    synthesize_from_trace,
    to_dot,
)
from repro.core.index import payload_fields
from repro.core.pipeline import STRATEGY_MERGE_DAGS, STRATEGY_MERGE_TRACES
from repro.experiments.runner import RunConfig, run_once
from repro.scenarios import build_scenario_spec
from repro.sim.kernel import SEC
from repro.store import (
    SEGMENT_SUFFIX,
    InMemorySegment,
    SegmentReader,
    StoreFormatError,
    StoreTraceIndex,
    TraceStore,
    encode_trace,
    peek_header,
    synthesize_from_store,
    write_segment,
)
from repro.store.format import (
    HEADER,
    SECTION_COMP_ZLIB,
    SECTION_ENTRY,
    SECTION_ROS,
    SECTION_SCHED,
    SHAPE_JSON,
    VERSION,
    VERSION_V1,
    VERSION_V2,
)
from repro.store.index import _resolve, resolve_run
from repro.store.reader import peek_sections, transcode
from repro.sim import SchedSwitch
from repro.tracing.events import (
    CB_END_PROBES,
    CB_START_PROBES,
    P2_TIMER_START,
    P3_TIMER_CALL,
    P4_TIMER_END,
    P5_SUB_START,
    P6_TAKE,
    P7_SYNC_OP,
    P8_SUB_END,
    P9_SERVICE_START,
    P10_TAKE_REQUEST,
    P11_SERVICE_END,
    P12_CLIENT_START,
    P13_TAKE_RESPONSE,
    P14_TAKE_TYPE_ERASED,
    P15_CLIENT_END,
    P16_DDS_WRITE,
    TraceEvent,
)
from repro.tracing.session import Trace
from repro.tracing.storage import TRACE_SUFFIX, load_trace, save_trace
from segment_fixtures import encode_as, write_as

DATA_DIR = Path(__file__).parent / "data"
DURATION_NS = int(1.0 * SEC)


def traced_run(name, run_index=0, runs=4):
    spec = build_scenario_spec(
        name, run_index=run_index, runs=runs, duration_ns=DURATION_NS
    )
    config = RunConfig(duration_ns=DURATION_NS, num_cpus=spec.num_cpus)
    return run_once(
        lambda world, i: spec.build(world), config, run_index=run_index
    ).trace


def _trace_digest(trace):
    return hashlib.sha256(
        json.dumps(trace.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def _decode_through_cache(directory, cache_root, rounds, barrier, results):
    """Stress worker: every round, wait for all peers, then open and
    decode every run through that round's cold cache directory, so the
    peers race to materialize the same entries."""
    try:
        decoded = []
        for round_index in range(rounds):
            store = TraceStore(
                directory, cache_dir=os.path.join(cache_root, str(round_index))
            )
            barrier.wait(timeout=60)
            decoded.append(
                {run_id: _trace_digest(store.load(run_id))
                 for run_id in store.run_ids()}
            )
        results.put(decoded)
    except Exception as error:  # reported to the parent, never swallowed
        barrier.abort()  # release the peers at once
        results.put(repr(error))


@pytest.fixture(scope="module")
def syn_trace():
    return traced_run("syn")


@pytest.fixture(scope="module")
def fusion_traces():
    return [traced_run("sensor-fusion", i) for i in range(4)]


def _body_start(path):
    entries = peek_sections(path)
    return HEADER.size + 4 + len(entries) * SECTION_ENTRY.size, entries


# ---------------------------------------------------------------------------
# v3 round trips + the section directory
# ---------------------------------------------------------------------------


class TestFormatV3:
    def test_default_write_is_v3(self, syn_trace, tmp_path):
        path = str(tmp_path / f"run{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path)
        assert peek_header(path)[0] == VERSION == 3
        reader = SegmentReader.open(path)
        assert reader.version == 3
        assert reader.to_trace().to_dict() == syn_trace.to_dict()

    @pytest.mark.parametrize("compress", [True, False])
    def test_all_versions_describe_one_trace(self, syn_trace, compress):
        dicts = {
            v: SegmentReader(
                encode_as(syn_trace, v, compress=compress)
            ).to_trace().to_dict()
            for v in (1, 2, 3)
        }
        assert dicts[1] == dicts[2] == dicts[3] == syn_trace.to_dict()

    def test_section_directory_covers_the_body(self, syn_trace, tmp_path):
        path = str(tmp_path / f"run{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path)
        body_start, entries = _body_start(path)
        assert entries, "v3 segment must carry a section directory"
        names = {entry.name for entry in entries}
        assert "pid_map" in names and "string table" in names
        assert any(name.startswith("ros column") for name in names)
        # sections tile the body exactly: sorted by offset, no gaps
        ordered = sorted(entries, key=lambda entry: entry.offset)
        expected = 0
        for entry in ordered:
            assert entry.offset == expected
            expected += entry.comp_len
        assert body_start + expected == os.path.getsize(path)

    def test_v1_v2_have_no_section_directory(self, syn_trace, tmp_path):
        for version in (1, 2):
            path = str(tmp_path / f"v{version}{SEGMENT_SUFFIX}")
            write_as(syn_trace, path, version)
            assert peek_sections(path) == []

    def test_writer_keeps_incompressible_sections_raw(self, syn_trace, tmp_path):
        """Uncompressed writes mark every section raw; no stream should
        be stored deflated when deflate does not shrink it."""
        path = str(tmp_path / f"raw{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path, compress=False)
        _, entries = _body_start(path)
        assert all(entry.comp == 0 for entry in entries)
        assert all(entry.comp_len == entry.raw_len for entry in entries)


# ---------------------------------------------------------------------------
# Selective I/O: the bytes_inflated counter
# ---------------------------------------------------------------------------


class TestSelectiveIO:
    def test_read_pid_map_matches_trace_without_body(self, syn_trace, tmp_path):
        path = str(tmp_path / f"run{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path)
        reader = SegmentReader.open(path)
        assert reader.pid_map == syn_trace.pid_map
        assert 0 < reader.bytes_inflated < reader.body_bytes

    def test_partial_reads_inflate_strict_subsets(self, syn_trace, tmp_path):
        path = str(tmp_path / f"run{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path)

        full = SegmentReader.open(path)
        full.to_trace()
        opened = SegmentReader.open(path)
        walk = SegmentReader.open(path)
        _resolve(walk)
        analysis = SegmentReader.open(path)
        analysis.sched_pid_columns()
        analysis.wakeup_pid_columns()

        assert 0 < full.bytes_inflated <= full.body_bytes
        assert opened.bytes_inflated < walk.bytes_inflated < full.bytes_inflated
        assert analysis.bytes_inflated < full.bytes_inflated

    def test_pid_subset_walk_inflates_less_than_full_decode(
        self, syn_trace, tmp_path
    ):
        path = str(tmp_path / f"run{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path)
        pids = sorted(syn_trace.pid_map)
        reader = SegmentReader.open(path)
        StoreTraceIndex([reader], wanted_pids=pids[:1])
        baseline = SegmentReader.open(path)
        baseline.to_trace()
        assert reader.bytes_inflated < baseline.bytes_inflated

    def test_uncompressed_segment_inflates_nothing(self, syn_trace, tmp_path):
        path = str(tmp_path / f"raw{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path, compress=False)
        reader = SegmentReader.open(path)
        assert reader.to_trace().to_dict() == syn_trace.to_dict()
        assert reader.bytes_inflated == 0


# ---------------------------------------------------------------------------
# Upgrade paths + mixed-version stores
# ---------------------------------------------------------------------------


class TestUpgradeToV3:
    def _store(self, traces, directory, version):
        os.makedirs(directory, exist_ok=True)
        for index, trace in enumerate(traces):
            write_as(
                trace,
                os.path.join(directory, f"run{index:03d}{SEGMENT_SUFFIX}"),
                version,
            )
        return TraceStore(directory)

    @pytest.mark.parametrize("source_version", [1, 2])
    def test_upgrade_to_v3_round_trip(
        self, fusion_traces, tmp_path, source_version
    ):
        store = self._store(
            fusion_traces[:3], str(tmp_path / "s"), source_version
        )
        before = {r: store.load(r).to_dict() for r in store.run_ids()}
        written = store.convert_legacy(upgrade=True)
        assert len(written) == 3
        assert all(store.format_version(r) == 3 for r in store.run_ids())
        assert {r: store.load(r).to_dict() for r in store.run_ids()} == before
        # idempotent: v3 segments are current, nothing to do
        assert store.convert_legacy(upgrade=True) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_v1_v2_v3_legacy_store_synthesis(
        self, fusion_traces, tmp_path, capsys, jobs
    ):
        """One run per format in one directory: v1, v2 and v3 segments
        and a gzip-JSON trace.  ``repro convert --upgrade --remove``
        makes it the all-v3 store, file for file, so the DAG JSON, DOT
        and exec table equal the all-v3 store's and the in-memory
        pipeline's, ``merge_traces`` in one process and ``merge_dags``
        at any jobs value.  A second conversion is a no-op, and a
        gzip-JSON leftover beside its segment is neither listed twice
        nor converted again."""
        directory = str(tmp_path / "mixed")
        os.makedirs(directory)
        for index, version in enumerate((1, 2, 3)):
            write_as(
                fusion_traces[index],
                os.path.join(directory, f"run{index:03d}{SEGMENT_SUFFIX}"),
                version,
            )
        legacy_path = os.path.join(directory, f"run003{TRACE_SUFFIX}")
        save_trace(fusion_traces[3], legacy_path)
        binary = TraceStore.create(str(tmp_path / "binary"))
        for index, trace in enumerate(fusion_traces):
            binary.add_trace(f"run{index:03d}", trace)

        assert main(["convert", directory, "--upgrade", "--remove"]) == 0
        assert "3 run(s) -> format v3" in capsys.readouterr().out
        assert sorted(os.listdir(directory)) == sorted(os.listdir(binary.directory))
        store = TraceStore(directory)
        for run_id in store.run_ids():
            assert store.read(run_id).data == binary.read(run_id).data, run_id

        def signature(dag):
            return dag_to_json(dag), to_dot(dag), format_exec_table(dag)

        for strategy, n_jobs, expected in (
            (STRATEGY_MERGE_TRACES, 1, synthesize_from_trace(Trace.merge(fusion_traces))),
            (STRATEGY_MERGE_DAGS, jobs, dag_from_runs(fusion_traces)),
        ):
            actual = signature(
                synthesize_from_store(store, jobs=n_jobs, strategy=strategy)
            )
            assert actual == signature(
                synthesize_from_store(binary, jobs=n_jobs, strategy=strategy)
            )
            assert actual == signature(expected)

        assert main(["convert", directory, "--upgrade", "--remove"]) == 0
        assert "nothing to convert" in capsys.readouterr().out
        save_trace(fusion_traces[3], legacy_path)  # a leftover original
        assert TraceStore(directory).run_ids() == binary.run_ids()
        assert main(["convert", directory, "--upgrade", "--remove"]) == 0
        assert "nothing to convert" in capsys.readouterr().out
        assert os.path.exists(legacy_path)


# ---------------------------------------------------------------------------
# Golden v3 fixture: committed v3 bytes can never silently regress
# ---------------------------------------------------------------------------


class TestGoldenV3Fixture:
    def test_committed_v3_segment_decodes(self):
        """The committed v3 bytes must stay readable forever; they
        describe the same trace as the golden v1 fixture pair, tying
        all committed format generations to one ground truth."""
        reader = SegmentReader.open(str(DATA_DIR / "golden_v3.trace.bin"))
        assert reader.version == 3
        expected = load_trace(str(DATA_DIR / "golden_v1.trace.json.gz"))
        assert reader.to_trace().to_dict() == expected.to_dict()

    def test_writer_reproduces_committed_v3_bytes(self):
        """Encoding the golden trace gives the committed v3 segment
        byte for byte, so a writer change that alters the bytes shows
        up here rather than only in a decode."""
        trace = load_trace(str(DATA_DIR / "golden_v1.trace.json.gz"))
        committed = (DATA_DIR / "golden_v3.trace.bin").read_bytes()
        assert encode_trace(trace) == committed

    def test_committed_v1_segment_upgrades_to_v3(self, tmp_path):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        shutil.copy(
            DATA_DIR / "golden_v1.trace.bin",
            os.path.join(directory, f"golden{SEGMENT_SUFFIX}"),
        )
        store = TraceStore(directory)
        store.convert_legacy(upgrade=True)
        assert store.format_version("golden") == 3
        expected = load_trace(str(DATA_DIR / "golden_v1.trace.json.gz"))
        assert store.load("golden").to_dict() == expected.to_dict()

    def test_committed_v3_sections_stay_selective(self):
        path = str(DATA_DIR / "golden_v3.trace.bin")
        entries = peek_sections(path)
        assert any(entry.comp == SECTION_COMP_ZLIB for entry in entries)
        reader = SegmentReader.open(path)
        _resolve(reader)
        assert 0 < reader.bytes_inflated < reader.body_bytes


# ---------------------------------------------------------------------------
# The uncompressed segment cache
# ---------------------------------------------------------------------------


class TestSegmentCache:
    def _recorded_store(self, traces, directory, cache_dir=None):
        os.makedirs(directory, exist_ok=True)
        for index, trace in enumerate(traces):
            write_segment(
                trace, os.path.join(directory, f"run{index:03d}{SEGMENT_SUFFIX}")
            )
        return TraceStore(directory, cache_dir=cache_dir)

    def test_cached_open_is_equivalent_and_inflates_nothing(
        self, fusion_traces, tmp_path
    ):
        directory = str(tmp_path / "s")
        cache = str(tmp_path / "cache")
        plain = self._recorded_store(fusion_traces[:2], directory)
        cached = TraceStore(directory, cache_dir=cache)
        for run_id in plain.run_ids():
            assert (
                cached.load(run_id).to_dict() == plain.load(run_id).to_dict()
            )
        reader = cached.open(plain.run_ids()[0])
        reader.to_trace()
        assert reader.bytes_inflated == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cached_synthesis_is_byte_identical(
        self, fusion_traces, tmp_path, jobs
    ):
        """Both strategies over a cached store match the in-memory
        pipeline, and ``merge_dags`` opens its runs through the store's
        cache at any jobs value: one cache entry per run."""
        directory = str(tmp_path / "s")
        traces = fusion_traces[:3]
        self._recorded_store(traces, directory)
        dags_cache = tmp_path / "dags-cache"
        actual = synthesize_from_store(
            TraceStore(directory, cache_dir=str(dags_cache)),
            jobs=jobs,
            strategy=STRATEGY_MERGE_DAGS,
        )
        assert len(os.listdir(dags_cache)) == len(traces)
        expected = dag_from_runs(traces)
        assert dag_to_json(actual) == dag_to_json(expected)
        assert to_dot(actual) == to_dot(expected)
        actual = synthesize_from_store(
            TraceStore(directory, cache_dir=str(tmp_path / "traces-cache"))
        )
        expected = synthesize_from_trace(Trace.merge(traces))
        assert dag_to_json(actual) == dag_to_json(expected)
        assert to_dot(actual) == to_dot(expected)

    @pytest.mark.stress
    def test_concurrent_cold_cache_fills_never_tear(self, fusion_traces, tmp_path):
        """Four processes race to fill the same cold cache entries,
        round after round: every decode equals the uncached decode, no
        process sees a torn entry, and each round's cache ends with
        exactly one committed entry per run (no staging leftovers)."""
        processes, rounds = 4, 5
        directory = str(tmp_path / "s")
        store = self._recorded_store(fusion_traces[:3], directory)
        expected = {
            run_id: _trace_digest(store.load(run_id)) for run_id in store.run_ids()
        }
        cache_root = str(tmp_path / "cache")
        context = multiprocessing.get_context()
        barrier = context.Barrier(processes)
        results = context.Queue()
        workers = [
            context.Process(
                target=_decode_through_cache,
                args=(directory, cache_root, rounds, barrier, results),
            )
            for _ in range(processes)
        ]
        for worker in workers:
            worker.start()
        try:
            outcomes = [results.get(timeout=300) for _ in workers]
        finally:
            for worker in workers:
                worker.join(timeout=60)
        assert [worker.exitcode for worker in workers] == [0] * processes
        assert not [o for o in outcomes if isinstance(o, str)]  # worker errors
        assert outcomes == [[expected] * rounds] * processes
        for round_index in range(rounds):
            entries = os.listdir(os.path.join(cache_root, str(round_index)))
            assert len(entries) == len(expected), entries
            assert all(entry.endswith(SEGMENT_SUFFIX) for entry in entries)

    def test_warm_cache_is_idempotent(self, fusion_traces, tmp_path):
        directory = str(tmp_path / "s")
        cache = str(tmp_path / "cache")
        store = self._recorded_store(fusion_traces[:2], directory, cache)
        first = store.warm_cache()
        assert len(first) == 2
        assert sorted(os.listdir(cache)) == sorted(
            os.path.basename(p) for p in first
        )
        assert store.warm_cache() == first  # reuses, no rewrite

    def test_warm_cache_without_cache_dir_raises(self, fusion_traces, tmp_path):
        store = self._recorded_store(fusion_traces[:1], str(tmp_path / "s"))
        with pytest.raises(Exception, match="cache"):
            store.warm_cache()

    def test_stale_cache_entries_are_swept(self, fusion_traces, tmp_path):
        directory = str(tmp_path / "s")
        cache = str(tmp_path / "cache")
        store = self._recorded_store(fusion_traces[:1], directory, cache)
        store.warm_cache()
        (old_entry,) = os.listdir(cache)
        # rewrite the run with different content: size/mtime key changes
        write_segment(
            fusion_traces[1],
            os.path.join(directory, f"run000{SEGMENT_SUFFIX}"),
        )
        fresh = TraceStore(directory, cache_dir=cache)
        assert fresh.load("run000").to_dict() == fusion_traces[1].to_dict()
        entries = os.listdir(cache)
        assert len(entries) == 1 and entries[0] != old_entry

    def test_sweep_spares_a_concurrently_committed_entry(
        self, fusion_traces, tmp_path, monkeypatch
    ):
        """Another worker commits the valid entry between this worker's
        existence check and its stale-entry sweep: the sweep must leave
        that entry alone, since the other worker is about to map it."""
        from repro.store import database

        directory = str(tmp_path / "s")
        cache = str(tmp_path / "cache")
        store = self._recorded_store(fusion_traces[:1], directory, cache)
        (entry,) = (os.path.basename(p) for p in store.warm_cache())
        committed = os.path.join(cache, entry)
        real_exists = os.path.exists
        misses = []

        def exists_missing_once(path):
            if path == committed and not misses:
                misses.append(path)  # the check ran before the commit
                return False
            return real_exists(path)

        real_decompress = database.decompress_segment
        seen_by_peer = []

        def decompress_after_sweep(src, dst):
            # The sweep has run: the committing worker maps its entry.
            seen_by_peer.append(
                SegmentReader.open(committed, use_mmap=True).num_ros_events
            )
            return real_decompress(src, dst)

        monkeypatch.setattr(database.os.path, "exists", exists_missing_once)
        monkeypatch.setattr(
            database, "decompress_segment", decompress_after_sweep
        )
        fresh = TraceStore(directory, cache_dir=cache)
        assert fresh.load("run000").to_dict() == fusion_traces[0].to_dict()
        assert misses == [committed]
        assert seen_by_peer == [len(fusion_traces[0].ros_events)]
        assert os.listdir(cache) == [entry]

    def test_convert_cache_cli(self, fusion_traces, tmp_path, capsys):
        directory = str(tmp_path / "s")
        cache = str(tmp_path / "cache")
        os.makedirs(directory)
        write_as(
            fusion_traces[0],
            os.path.join(directory, f"run000{SEGMENT_SUFFIX}"),
            1,
        )
        assert main(
            ["convert", directory, "--upgrade", "--cache", cache]
        ) == 0
        out = capsys.readouterr().out
        assert "format v3" in out
        assert "cached 1 uncompressed segment(s)" in out
        assert len(os.listdir(cache)) == 1


# ---------------------------------------------------------------------------
# Per-section error diagnostics
# ---------------------------------------------------------------------------


class TestSectionErrorDiagnostics:
    def _write(self, trace, tmp_path, name="seg"):
        path = str(tmp_path / f"{name}{SEGMENT_SUFFIX}")
        write_segment(trace, path)
        return path

    def test_corrupt_section_names_path_section_and_offset(
        self, syn_trace, tmp_path
    ):
        path = self._write(syn_trace, tmp_path)
        body_start, entries = _body_start(path)
        entry = next(
            e for e in entries
            if e.comp == SECTION_COMP_ZLIB and e.comp_len > 20
        )
        with open(path, "r+b") as handle:
            handle.seek(body_start + entry.offset + 5)
            handle.write(b"\x00" * 10)
        with pytest.raises(StoreFormatError) as excinfo:
            SegmentReader.open(path).to_trace()
        message = str(excinfo.value)
        assert path in message
        assert entry.name in message
        assert str(body_start + entry.offset) in message

    def test_truncated_section_names_path_section_and_offset(
        self, syn_trace, tmp_path
    ):
        path = self._write(syn_trace, tmp_path)
        body_start, entries = _body_start(path)
        last = max(
            (entry for entry in entries if entry.comp_len > 0),
            key=lambda entry: entry.offset,
        )
        cut = body_start + last.offset + last.comp_len // 2
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        # the directory-vs-file-size check catches this at open();
        # either way the diagnostic names the path and the truncation
        with pytest.raises(StoreFormatError) as excinfo:
            SegmentReader.open(path).to_trace()
        message = str(excinfo.value)
        assert path in message and "truncated" in message

    def test_section_errors_never_leak_raw_exceptions(self, syn_trace, tmp_path):
        """Stomping any deflated section stream must diagnose as
        StoreFormatError, never a bare zlib.error / struct.error.
        (Raw sections hold plain values -- garbage there is semantic,
        not a stream decode failure, and out of this contract.)"""
        pristine = self._write(syn_trace, tmp_path)
        body_start, entries = _body_start(pristine)
        raw = open(pristine, "rb").read()
        for index, entry in enumerate(entries):
            if entry.comp != SECTION_COMP_ZLIB or entry.comp_len < 4:
                continue
            stomped = bytearray(raw)
            start = body_start + entry.offset
            middle = start + entry.comp_len // 2
            stomped[middle:middle + 4] = b"\xff\x00\xff\x00"
            path = str(tmp_path / f"stomp{index}{SEGMENT_SUFFIX}")
            with open(path, "wb") as handle:
                handle.write(bytes(stomped))
            try:
                reader = SegmentReader.open(path)
                reader.to_trace()
                _resolve(reader)
            except StoreFormatError:
                pass  # the only acceptable failure type
            except (zlib.error, struct.error) as error:  # pragma: no cover
                pytest.fail(
                    f"section {entry.name}: raw {type(error).__name__} leaked"
                )

    def test_corrupt_pid_map_section_diagnoses_in_read_pid_map(
        self, syn_trace, tmp_path
    ):
        path = self._write(syn_trace, tmp_path)
        body_start, entries = _body_start(path)
        entry = next(e for e in entries if e.name == "pid_map")
        with open(path, "r+b") as handle:
            handle.seek(body_start + entry.offset + 2)
            handle.write(b"\xff" * min(8, max(1, entry.comp_len - 2)))
        with pytest.raises(StoreFormatError) as excinfo:
            SegmentReader.open(path)
        assert "pid_map" in str(excinfo.value)


# ---------------------------------------------------------------------------
# v1/v2 -> v3 transcoding at open (the one parse path)
# ---------------------------------------------------------------------------


class TestTranscoder:
    @pytest.mark.parametrize("compress", [False, True])
    def test_v2_transcodes_to_the_uncompressed_v3_bytes(self, syn_trace, compress):
        """A v2 body already is the v3 sections in file order: cutting
        it gives exactly what the writer emits uncompressed."""
        v3, _ = transcode(encode_as(syn_trace, VERSION_V2, compress=compress))
        assert v3 == encode_trace(syn_trace, compress=False)

    @pytest.mark.parametrize("version", [VERSION_V1, VERSION_V2])
    def test_committed_fixtures_transcode_to_v3(self, version):
        data = (DATA_DIR / f"golden_v{version}.trace.bin").read_bytes()
        v3, _ = transcode(data)
        reader = SegmentReader(v3)
        assert reader.version == VERSION
        expected = load_trace(str(DATA_DIR / "golden_v1.trace.json.gz"))
        assert reader.to_trace().to_dict() == expected.to_dict()
        assert SegmentReader(data).version == version  # the on-disk byte

    @pytest.mark.parametrize("version", [VERSION_V1, VERSION_V2])
    @pytest.mark.parametrize("compress", [False, True])
    def test_old_body_counts_as_inflated_at_open(self, syn_trace, version, compress):
        data = encode_as(syn_trace, version, compress=compress)
        reader = SegmentReader(data)
        body = zlib.decompress(data[HEADER.size:]) if compress else b""
        assert reader.bytes_inflated == len(body)
        reader.to_trace()
        assert reader.bytes_inflated == len(body)  # sections are raw

    @pytest.mark.parametrize("version", [VERSION_V1, VERSION_V2])
    @pytest.mark.parametrize("compress", [False, True])
    def test_cache_entry_is_v3_and_synthesizes_like_the_source(
        self, fusion_traces, tmp_path, version, compress
    ):
        directory = tmp_path / "s"
        directory.mkdir()
        for index, trace in enumerate(fusion_traces[:2]):
            write_as(
                trace, str(directory / f"run{index:03d}{SEGMENT_SUFFIX}"),
                version, compress=compress,
            )
        cache = tmp_path / "cache"
        cached = TraceStore(str(directory), cache_dir=str(cache))
        assert all(cached.format_version(r) == version for r in cached.run_ids())
        expected = dag_to_json(synthesize_from_store(TraceStore(str(directory))))
        assert dag_to_json(synthesize_from_store(cached)) == expected
        entries = sorted(cache.iterdir())
        assert len(entries) == 2
        assert all(peek_header(str(entry))[0] == VERSION for entry in entries)
        reader = cached.open("run000")
        assert reader.version == VERSION and reader.bytes_inflated == 0


#: The golden trace in every format, compressed or not (see
#: :func:`_garbled`).
_ENCODED = {}


def _garbled(version, compress, cut, flips):
    """The golden trace's ``version`` encoding with ``flips`` (position,
    byte) applied, then cut to ``cut`` bytes (positions wrap)."""
    key = (version, compress)
    if key not in _ENCODED:
        trace = load_trace(str(DATA_DIR / "golden_v1.trace.json.gz"))
        _ENCODED[key] = encode_as(trace, version, compress=compress)
    data = bytearray(_ENCODED[key])
    for position, value in flips:
        data[position % len(data)] = value
    if cut is not None:
        data = data[:cut % len(data)]
    return bytes(data)


class TestGarbledSegments:
    """Truncated or byte-flipped segments of every format diagnose as
    :class:`StoreFormatError` -- at open, when resolved, and when
    materialized -- and never leak another exception type."""

    @settings(max_examples=400, deadline=None)
    @given(
        version=st.sampled_from([VERSION_V1, VERSION_V2, VERSION]),
        compress=st.booleans(),
        cut=st.none() | st.integers(min_value=0, max_value=4096),
        flips=st.lists(
            st.tuples(st.integers(0, 4095), st.integers(0, 255)), max_size=3
        ),
    )
    # A shape field name id outside the string table (n_strings zeroed).
    @example(version=VERSION, compress=False, cut=None, flips=[(12, 0)])
    # String, shape or row ids outside their tables.
    @example(version=VERSION_V1, compress=False, cut=None, flips=[(20, 0)])
    @example(version=VERSION_V2, compress=True, cut=None, flips=[(20, 0)])
    @example(version=VERSION, compress=True, cut=None, flips=[(152, 0)])
    # A fallback payload that is not JSON, or has no JSON value at all.
    @example(version=VERSION_V1, compress=False, cut=None, flips=[(120, 0)])
    @example(version=VERSION_V1, compress=False, cut=None, flips=[(119, 0)])
    @example(version=VERSION_V2, compress=False, cut=None, flips=[(487, 0)])
    @example(version=VERSION, compress=False, cut=None, flips=[(1443, 0)])
    # A fallback payload that is JSON, but not an object.
    @example(version=VERSION_V1, compress=False, cut=None, flips=[(119, 0x35)])
    def test_only_store_format_errors(self, version, compress, cut, flips):
        data = _garbled(version, compress, cut, flips)
        try:
            reader = SegmentReader(data)
            resolve_run(reader)
            reader.to_trace()
        except StoreFormatError:
            pass  # the only acceptable failure type

    def test_store_builds_name_the_path(self, syn_trace, tmp_path):
        """A probe id past the string table in an uncompressed segment
        passes open, and every store build that resolves the run --
        synthesis and the latency index -- diagnoses it naming the
        file."""
        from repro.analysis import latency_index_from_store

        path = str(tmp_path / f"run000{SEGMENT_SUFFIX}")
        write_segment(syn_trace, path, compress=False)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        entries = peek_sections(path)
        body_start = HEADER.size + 4 + len(entries) * SECTION_ENTRY.size
        [probe] = [
            entry for entry in entries
            if (entry.kind, entry.index) == (SECTION_ROS, 2)
        ]
        data[body_start + probe.offset:body_start + probe.offset + 4] = b"\xff" * 4
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        store = TraceStore(str(tmp_path))
        store.open("run000")  # the open checks pass
        for build in (synthesize_from_store, latency_index_from_store):
            with pytest.raises(StoreFormatError, match="run000"):
                build(TraceStore(str(tmp_path)))

    def test_store_load_names_the_path(self, tmp_path):
        path = str(tmp_path / f"run000{SEGMENT_SUFFIX}")
        with open(path, "wb") as handle:
            handle.write(_garbled(VERSION_V1, False, None, [(120, 0)]))
        store = TraceStore(str(tmp_path))
        for action in (lambda: store.load("run000"), store.merged_trace,
                       lambda: store.convert_legacy(upgrade=True)):
            with pytest.raises(StoreFormatError, match="run000"):
                action()


def _flip_ts_bit(directory, section, choose):
    """An uncompressed 3-run ``syn`` store in ``directory`` whose run001
    has one bit of one timestamp flipped in the ts column (column 0) of
    its ``section`` stream: ``choose(trace)`` names the row and the
    bit."""
    from repro.service import LiveSynthesizer

    traces = [traced_run("syn", index, runs=3) for index in range(3)]
    for index, trace in enumerate(traces):
        write_segment(
            trace, os.path.join(directory, f"run{index:03d}{SEGMENT_SUFFIX}"),
            compress=False,
        )
    path = os.path.join(directory, f"run001{SEGMENT_SUFFIX}")
    body, entries = _body_start(path)
    [column] = [e for e in entries if (e.kind, e.index) == (section, 0)]
    row, bit = choose(traces[1])
    with open(path, "r+b") as handle:
        handle.seek(body + column.offset + 8 * row)
        (ts,) = struct.unpack("<q", handle.read(8))
        handle.seek(body + column.offset + 8 * row)
        handle.write(struct.pack("<q", ts ^ (1 << bit)))
    return TraceStore(directory), LiveSynthesizer(TraceStore(directory))


def _assert_every_build_names(store, live, run_id, sched_only=False):
    """Every store entry point that resolves ``run_id`` diagnoses it as
    :class:`StoreFormatError` naming the run's file -- but for damage in
    the sched stream only (``sched_only``), the latency index, which
    reads no sched column, just builds."""
    from repro.analysis import StoreAnalysis, latency_index_from_store

    builds = [
        synthesize_from_store,
        lambda store: StoreAnalysis(store).chain_latencies(["/t1"]),
        lambda store: live.ingest(run_id),
    ]
    if sched_only:
        latency_index_from_store(store)
    else:
        builds.append(latency_index_from_store)
    for build in builds:
        with pytest.raises(StoreFormatError, match=run_id):
            build(store)


class TestGarbledTimestamps:
    """A flipped bit in a stored ts column passes the open and would
    break Alg. 2 (a window ending before it starts, sched timestamps
    too wide for its key axis): resolving the run diagnoses it."""

    def test_ros_ts_out_of_order(self, tmp_path):
        def choose(trace):
            # A callback end's top bit: the end now precedes its start.
            rows = [
                row for row, event in enumerate(trace.ros_events)
                if event.probe in CB_END_PROBES
            ]
            row = rows[len(rows) // 2]
            return row, trace.ros_events[row].ts.bit_length() - 1

        store, live = _flip_ts_bit(str(tmp_path), SECTION_ROS, choose)
        store.open("run001")  # the open checks pass
        _assert_every_build_names(store, live, "run001")

    def test_sched_ts_too_wide(self, tmp_path):
        def choose(trace):
            # Bit 62 of the last switch of a traced thread.
            row = max(
                row for row, event in enumerate(trace.sched_events)
                if event.prev_pid in trace.pid_map
                or event.next_pid in trace.pid_map
            )
            return row, 62

        store, live = _flip_ts_bit(str(tmp_path), SECTION_SCHED, choose)
        store.open("run001")
        _assert_every_build_names(store, live, "run001", sched_only=True)

    def test_strict_governs_runs_diagnosed_at_resolve(self, tmp_path):
        """Bit 62 of row 10 of run001's ROS ts column passes the open
        and fails the resolve.  ``strict=False`` skips run001 there,
        with the open's warning, so every build equals the same build
        over the other two runs; ``strict=True`` raises naming it."""
        from repro.analysis import StoreAnalysis, latency_index_from_store

        garbled = str(tmp_path / "garbled")
        os.makedirs(garbled)
        store, _ = _flip_ts_bit(garbled, SECTION_ROS, lambda trace: (10, 62))
        store.open("run001")  # the open checks pass
        others = str(tmp_path / "others")
        os.makedirs(others)
        for run_id in ("run000", "run002"):
            shutil.copy(store.path_of(run_id), others)

        def analysis_outputs(store):
            analysis = StoreAnalysis(store)
            return (
                dag_to_json(analysis.dag, indent=2),
                analysis.chain_latencies(["/t1"]),
                analysis.communication_latencies("/t1"),
            )

        def index_slots(store):
            index = latency_index_from_store(store)
            return [getattr(index, slot) for slot in index.__slots__]

        builds = [
            analysis_outputs,
            lambda store: dag_to_json(synthesize_from_store(store)),
            index_slots,
        ]
        for build in builds:
            with pytest.warns(RuntimeWarning, match="run001"):
                skipped = build(TraceStore(garbled, strict=False))
            assert skipped == build(TraceStore(others)), build
            with pytest.raises(StoreFormatError, match="run001"):
                build(TraceStore(garbled))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_merge_dags_skips_runs_diagnosed_at_resolve(self, tmp_path, jobs):
        """The same garbled run001 under ``merge_dags``: ``strict=False``
        skips it, in this process or in the worker that owns it, so the
        model equals the one over the other two runs; ``strict=True``
        raises naming it."""
        garbled = str(tmp_path / "garbled")
        os.makedirs(garbled)
        store, _ = _flip_ts_bit(garbled, SECTION_ROS, lambda trace: (10, 62))
        others = str(tmp_path / "others")
        os.makedirs(others)
        for run_id in ("run000", "run002"):
            shutil.copy(store.path_of(run_id), others)

        def build(store):
            return dag_to_json(synthesize_from_store(
                store, jobs=jobs, strategy=STRATEGY_MERGE_DAGS
            ))

        if jobs == 1:
            with pytest.warns(RuntimeWarning, match="run001"):
                skipped = build(TraceStore(garbled, strict=False))
        else:  # the worker warns on its own stderr
            skipped = build(TraceStore(garbled, strict=False))
        assert skipped == build(TraceStore(others))
        with pytest.raises(StoreFormatError, match="run001"):
            build(TraceStore(garbled))

    def test_unsorted_trace_is_stored_sorted(self, syn_trace, tmp_path):
        """A trace whose lists break the chronological contract is
        written in ``Trace.sort``'s stable order, never rejected, and
        the caller's trace is left as it was."""
        ros = list(reversed(syn_trace.ros_events))
        sched = list(reversed(syn_trace.sched_events))
        shuffled = Trace(
            ros_events=ros, sched_events=sched, pid_map=syn_trace.pid_map,
            start_ts=syn_trace.start_ts, stop_ts=syn_trace.stop_ts,
        )
        store = TraceStore.create(str(tmp_path / "store"))
        store.add_trace("run000", shuffled)
        assert shuffled.ros_events == ros and shuffled.sched_events == sched
        loaded = store.load("run000")
        expected = Trace(
            ros_events=list(ros), sched_events=list(sched),
            pid_map=syn_trace.pid_map,
        ).sort()
        assert loaded.ros_events == expected.ros_events
        assert loaded.sched_events == expected.sched_events
        assert dag_to_json(synthesize_from_store(store)) == dag_to_json(
            synthesize_from_trace(expected)
        )


# ---------------------------------------------------------------------------
# store-info --json
# ---------------------------------------------------------------------------


class TestStoreInfoJson:
    def test_json_document_is_stable_and_sectioned(
        self, fusion_traces, tmp_path, capsys
    ):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        write_segment(
            fusion_traces[0],
            os.path.join(directory, f"run000{SEGMENT_SUFFIX}"),
        )
        write_as(
            fusion_traces[1],
            os.path.join(directory, f"run001{SEGMENT_SUFFIX}"),
            2,
        )
        assert main(["store-info", directory, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == directory
        assert [run["run_id"] for run in payload["runs"]] == ["run000", "run001"]
        v3_run, v2_run = payload["runs"]
        assert v3_run["format_version"] == 3
        assert v3_run["events"] > 0 and v3_run["bytes_per_event"] > 0
        names = [section["name"] for section in v3_run["sections"]]
        assert "pid_map" in names and "string table" in names
        stored = sum(section["stored_bytes"] for section in v3_run["sections"])
        assert stored <= v3_run["size_bytes"]
        assert "sections" not in v2_run  # v1/v2 have no directory
        assert payload["total_events"] == sum(
            run["events"] for run in payload["runs"]
        )


# ---------------------------------------------------------------------------
# walk_fastpath reassembly + InMemorySegment parity (property tests)
# ---------------------------------------------------------------------------


PROBES = st.sampled_from(
    [
        sorted(CB_START_PROBES)[0],
        P3_TIMER_CALL,
        P6_TAKE,
        P16_DDS_WRITE,
        "custom:probe",  # code 0: dropped by walks, kept by round trips
    ]
)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.text(max_size=6),
)

# Association fields ("cb_id", "topic", "src_ts") must stay hashable --
# Alg. 1 keys its write/dispatch tables on them -- so nested containers
# (which force the SHAPE_JSON fallback rows) ride on a neutral key.
PAYLOADS = st.dictionaries(
    st.sampled_from(["cb_id", "topic", "src_ts"]), _SCALARS, max_size=3
).flatmap(
    lambda base: st.one_of(
        st.just(base),
        st.fixed_dictionaries(
            {"odd key": st.lists(st.integers(), max_size=2)}
        ).map(lambda extra: {**base, **extra}),
    )
)


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    single_pid = draw(st.booleans())
    events = []
    ts = 0
    for _ in range(n):
        ts += draw(st.integers(min_value=0, max_value=50))
        pid = 7 if single_pid else draw(st.integers(min_value=1, max_value=3))
        events.append(
            TraceEvent(ts, pid, draw(PROBES), draw(PAYLOADS))
        )
    return Trace(
        ros_events=events,
        pid_map={1: "a", 2: None, 3: "c", 7: "solo"},
        start_ts=0,
        stop_ts=ts + 1,
    )


def _rows_from_events(trace, order):
    """Walk rows ``(ts, order, row, pid, code, aux)`` straight from a
    trace's events in stable ts order: the reference the fastpath
    columns must reassemble to."""
    from repro.core.index import (
        CODE_CB_START,
        CODE_OTHER,
        CODE_TAKE_TYPE_ERASED,
        CODE_TIMER_CALL,
        PROBE_CODES,
    )
    from repro.tracing.events import CB_TYPE_BY_START

    out = []
    events = sorted(trace.ros_events, key=lambda event: event.ts)
    for i, event in enumerate(events):
        code = PROBE_CODES.get(event.probe, CODE_OTHER)
        if CODE_TIMER_CALL <= code <= CODE_TAKE_TYPE_ERASED:
            aux = event.data
        elif code == CODE_CB_START:
            aux = CB_TYPE_BY_START.get(event.probe)
        else:
            aux = None
        out.append((event.ts, order, i, event.pid, code, aux))
    return out


def _rows_from_fastpath(reader, order):
    """Reassemble walk rows from the raw fastpath columns -- an
    independent re-derivation of what the resolved columns hold."""
    from repro.core.index import (
        CODE_CB_START,
        CODE_TAKE_TYPE_ERASED,
        CODE_TIMER_CALL,
    )

    (
        ts_col, pid_col, probe_col, shape_col, vidx_col,
        codes, start_types, shapes, json_payload,
    ) = reader.walk_fastpath()
    n_shapes = len(shapes)
    out = []
    for i in range(len(ts_col)):
        string_id = probe_col[i]
        code = codes[string_id]
        if CODE_TIMER_CALL <= code <= CODE_TAKE_TYPE_ERASED:
            sid = shape_col[i]
            if sid < n_shapes:
                aux = shapes[sid].rows()[vidx_col[i]]
            elif sid == SHAPE_JSON:
                aux = json_payload(vidx_col[i])
            else:
                aux = {}
        elif code == CODE_CB_START:
            aux = start_types[string_id]
        else:
            aux = None
        out.append((ts_col[i], order, i, pid_col[i], code, aux))
    return out


class TestWalkFastpathProperties:
    @given(trace=traces())
    @settings(max_examples=60, deadline=None)
    def test_fastpath_rows_match_trace_events(self, trace):
        """Stored segments of every version and the loaded trace hold
        the trace's walk rows, both reassembled row by row and resolved
        in bulk (:func:`_resolve`, what the trace and latency indexes
        consume)."""
        reference = _rows_from_events(trace, 0)
        resolved = [
            (ts, pid, code, payload_fields([aux])[0] if isinstance(aux, dict) else aux)
            for ts, _, _, pid, code, aux in reference
        ]
        readers = [InMemorySegment(trace)] + [
            SegmentReader(encode_as(trace, version))
            for version in (1, 2, 3)
        ]
        for reader in readers:
            assert _rows_from_fastpath(reader, 0) == reference
            columns = _resolve(reader)
            assert list(zip(*(column.tolist() for column in columns))) == resolved

    @given(trace=traces(), split=st.integers(min_value=0, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_segment_columns_match_in_memory_columns(self, trace, split):
        """Binary segments of any version and size (0 rows included) and
        the loaded trace feed the one column consumer through their
        ``walk_fastpath`` columns, and build the same index -- also
        when the trace is cut into two consecutive segments whose
        association state must carry across the cut."""
        reference = StoreTraceIndex([InMemorySegment(trace)])
        for version in (1, 2, 3):
            for parts in ([trace], _halves(trace, split)):
                index = StoreTraceIndex([
                    SegmentReader(encode_as(part, version))
                    for part in parts
                ])
                assert _index_tables(index) == _index_tables(reference)


def _halves(trace, split, sched_split=0):
    """``trace`` cut into two consecutive runs: ROS events at ``split``,
    sched events at ``sched_split``."""
    cuts = ((0, split, 0, sched_split), (split, None, sched_split, None))
    return [
        Trace(
            ros_events=trace.ros_events[ros_lo:ros_hi],
            sched_events=trace.sched_events[sched_lo:sched_hi],
            pid_map=trace.pid_map,
            start_ts=trace.start_ts,
            stop_ts=trace.stop_ts,
        )
        for ros_lo, ros_hi, sched_lo, sched_hi in cuts
    ]


def _index_tables(index):
    """An index's walk columns, cross-node tables and sched buckets."""
    return {
        "walks": {pid: index.walk_for_pid(pid) for pid in index.pids()},
        "writes": index.writes,
        "writer_cb": index.writer_cb,
        "take_responses": index.take_responses,
        "dispatch_after": index.dispatch_after,
        "sched": {
            pid: (list(times), bytes(flags))
            for pid, (times, flags) in index.sched._buckets.items()
        },
        "pid_map": index.pid_map,
    }


#: Services of the hand-drawn Alg. 1 traces: request/response topics.
_REQUEST, _REPLY = "/svRequest", "/svReply"


@st.composite
def alg1_traces(draw, pids=(1, 2, 3), horizon=400):
    """Whole callback instances of every kind on a few PIDs -- timers,
    (sync) subscribers, services and (non-)dispatching clients, with
    service request/response writes whose (topic, src_ts) keys collide
    -- interleaved by a stable timestamp sort, plus a sched stream over
    the same PIDs.  Timestamps tie often."""
    ros = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        pid = draw(st.sampled_from(pids))
        kind = draw(st.sampled_from(["timer", "sub", "service", "client"]))
        cb_id = f"{kind}{draw(st.integers(min_value=1, max_value=2))}"
        key = draw(st.integers(min_value=0, max_value=2))
        ts = draw(st.integers(min_value=0, max_value=horizon))
        steps = iter(draw(st.lists(
            st.integers(min_value=0, max_value=20), min_size=6, max_size=6
        )))

        def add(probe, **data):
            nonlocal ts
            ros.append(TraceEvent(ts, pid, probe, data))
            ts += next(steps)

        if kind == "timer":
            add(P2_TIMER_START)
            add(P3_TIMER_CALL, cb_id=cb_id)
            add(P16_DDS_WRITE, topic=_REQUEST, kind="request", src_ts=key)
        elif kind == "sub":
            add(P5_SUB_START)
            add(P6_TAKE, cb_id=cb_id, topic="/data", src_ts=key)
            if draw(st.booleans()):
                add(P7_SYNC_OP, cb_id=cb_id)
            add(P16_DDS_WRITE, topic="/out", kind="data", src_ts=key)
        elif kind == "service":
            add(P9_SERVICE_START)
            add(P10_TAKE_REQUEST, cb_id=cb_id, topic=_REQUEST, src_ts=key)
            add(P16_DDS_WRITE, topic=_REPLY, kind="response", src_ts=key)
        else:
            add(P12_CLIENT_START)
            add(P13_TAKE_RESPONSE, cb_id=cb_id, topic=_REPLY, src_ts=key)
            add(P14_TAKE_TYPE_ERASED, will_dispatch=int(draw(st.booleans())))
        end = {
            "timer": P4_TIMER_END, "sub": P8_SUB_END,
            "service": P11_SERVICE_END, "client": P15_CLIENT_END,
        }[kind]
        if draw(st.integers(min_value=0, max_value=5)):  # rarely cut short
            add(end)
    sched = [
        SchedSwitch(ts, 0, prev, f"p{prev}", 0, "R", nxt, f"p{nxt}", 0)
        for ts, prev, nxt in draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=horizon + 100),
                st.sampled_from((0,) + tuple(pids)),
                st.sampled_from((0,) + tuple(pids)),
            ),
            max_size=30,
        ))
    ]
    return Trace(
        ros_events=sorted(ros, key=lambda e: e.ts),
        sched_events=sorted(sched, key=lambda e: e.ts),
        pid_map={pid: f"n{pid}" for pid in pids},
        start_ts=0,
        stop_ts=horizon + 200,
    )


class TestOneIndexOracle:
    @given(
        trace=alg1_traces(),
        split=st.integers(min_value=0, max_value=60),
        sched_split=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_memory_and_segments_match_frozen_pipeline(
        self, trace, split, sched_split
    ):
        """The frozen pre-index pipeline is the oracle: the in-memory
        path and the store index over the trace's encoded halves must
        both give its DAG, byte for byte."""
        from repro._legacy import legacy_extract_all
        from repro.core import synthesize_dag
        from repro.store.synthesis import _extract_index_cblists

        expected = dag_to_json(synthesize_dag(legacy_extract_all(trace)))
        assert dag_to_json(synthesize_from_trace(trace)) == expected
        index = StoreTraceIndex([
            SegmentReader(encode_trace(half))
            for half in _halves(trace, split, sched_split)
        ])
        cblists = _extract_index_cblists(index, trace.pids())
        assert dag_to_json(synthesize_dag(cblists)) == expected

    @given(
        traces=st.lists(alg1_traces(horizon=60), min_size=2, max_size=3),
        loaded=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_overlapping_runs_merge_as_columns(self, traces, loaded):
        """Runs on one clock (overlapping, tied timestamps), one of them
        a loaded trace behind ``InMemorySegment`` among stored segments:
        the merged index equals the index over ``Trace.merge`` of the
        runs."""
        import tempfile

        anchored = [
            Trace(
                ros_events=(
                    [TraceEvent(0, 9, "custom:probe", {})]
                    + trace.ros_events
                    + [TraceEvent(100, 9, "custom:probe", {})]
                ),
                sched_events=trace.sched_events,
                pid_map=trace.pid_map,
                start_ts=trace.start_ts,
                stop_ts=trace.stop_ts,
            )
            for trace in traces
        ]
        reference = StoreTraceIndex([InMemorySegment(Trace.merge(anchored))])
        loaded %= len(anchored)
        with tempfile.TemporaryDirectory() as directory:
            store = TraceStore.create(directory)
            for number, trace in enumerate(anchored):
                store.add_trace(f"run{number:03d}", trace)
            readers = store.readers()
            readers[loaded] = InMemorySegment(anchored[loaded])
            index = StoreTraceIndex(readers)
            assert _index_tables(index) == _index_tables(reference)


class TestExecTimesOnRealStream:
    def test_exec_times_equal_literal_alg2(self, syn_trace):
        """Batched Alg. 2 over a real scenario's sched stream equals the
        literal per-window translation on every window: each PID's whole
        bucket, windows around its middle event, zero-length windows on
        an event, windows sharing a bound, and a PID with no bucket --
        handed over in one call, PIDs interleaved."""
        from repro.core.exec_time import SchedIndex, get_exec_time

        events = syn_trace.sched_events
        index = SchedIndex(events)
        windows = [(10**6, 0, 10**12)]  # no bucket: ran throughout
        for pid in index.pids()[:6]:
            times, _flags = index._buckets[pid]
            mid = times[len(times) // 2]
            windows += [
                (pid, times[0], times[-1]),
                (pid, mid - 1, mid + 1),
                (pid, mid, mid),
                (pid, times[0], mid),
                (pid, mid, times[-1]),
            ]
        windows = windows[::2] + windows[1::2]
        pids, starts, ends = zip(*windows)
        assert index.exec_times(pids, starts, ends).tolist() == [
            get_exec_time(start, end, pid, events) for pid, start, end in windows
        ]
