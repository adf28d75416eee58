"""Store-backed synthesis equivalence: the PR's acceptance pins.

For every registry scenario, ``synthesize_from_store`` over recorded
binary segments must be byte-identical (DAG JSON, exec tables, DOT) to
the in-memory pipeline for both multi-run strategies: ``merge_traces``
in one process, ``merge_dags`` at any worker count (its runs fan out
over worker processes).  Also drives the record -> synthesize CLI end
to end against the in-memory golden DOT.
"""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core import (
    dag_to_json,
    format_exec_table,
    synthesize_from_database,
    synthesize_from_trace,
    to_dot,
)
from repro.core.pipeline import STRATEGY_MERGE_DAGS
from repro.experiments.batch import BatchConfig
from repro.experiments.runner import run_once
from repro.scenarios import build_scenario_spec, scenario_names
from repro.sim.kernel import SEC
from repro.analysis.store import StoreAnalysis
from repro.store import (
    SEGMENT_SUFFIX,
    SegmentReader,
    TraceStore,
    record_batch,
    synthesize_from_store,
)
from repro.tracing.session import Trace, TraceDatabase

DURATION_NS = int(1.0 * SEC)
RUNS = 2


def _assert_same_model(actual, expected, label):
    assert dag_to_json(actual) == dag_to_json(expected), label
    assert to_dot(actual) == to_dot(expected), label
    assert format_exec_table(actual) == format_exec_table(expected), label


def _merged_dags(traces, pids=None):
    """The in-memory ``merge_dags`` model of ``traces`` (one DAG per
    run, merged in run order)."""
    database = TraceDatabase()
    for run_index, trace in enumerate(traces):
        database.add(f"run{run_index:03d}", trace)
    return synthesize_from_database(
        database, strategy=STRATEGY_MERGE_DAGS, pids=pids
    )


def _reference_traces(name):
    """The in-memory traces the store contents must reproduce (specs
    built exactly as the batch/record workers build them -- duration
    forwarded to factories that take it)."""
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


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """One recorded store + reference traces per registry scenario."""
    root = tmp_path_factory.mktemp("stores")
    result = {}
    for name in scenario_names():
        directory = str(root / name)
        record_batch(
            name, runs=RUNS, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        result[name] = (TraceStore(directory), _reference_traces(name))
    return result


class TestStoreSynthesisEquivalence:
    """Store path == in-memory path, byte for byte, every scenario."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_recorded_traces_match_in_memory(self, stores, name):
        store, traces = stores[name]
        for run_index, trace in enumerate(traces):
            stored = store.load(f"run{run_index:03d}")
            assert stored.to_dict() == trace.to_dict(), (name, run_index)

    @pytest.mark.parametrize("name", scenario_names())
    def test_merge_traces_strategy_identical(self, stores, name):
        store, traces = stores[name]
        expected = synthesize_from_trace(Trace.merge(traces))
        actual = synthesize_from_store(store, jobs=1)
        assert dag_to_json(actual) == dag_to_json(expected), name
        assert format_exec_table(actual) == format_exec_table(expected), name
        assert to_dot(actual) == to_dot(expected), name

    @pytest.mark.parametrize("name", scenario_names())
    def test_merge_dags_strategy_identical(self, stores, name):
        store, traces = stores[name]
        database = TraceDatabase()
        for run_index, trace in enumerate(traces):
            database.add(f"run{run_index:03d}", trace)
        expected = synthesize_from_database(database, strategy=STRATEGY_MERGE_DAGS)
        actual = synthesize_from_store(store, jobs=1, strategy=STRATEGY_MERGE_DAGS)
        assert dag_to_json(actual) == dag_to_json(expected), name


class TestShardingDeterminism:
    """``--jobs`` shards runs, never PIDs, and never changes a byte."""

    def test_run_sharded_jobs_identical(self, stores):
        store, _ = stores["avp-interference"]
        serial = synthesize_from_store(store, jobs=1, strategy=STRATEGY_MERGE_DAGS)
        sharded = synthesize_from_store(store, jobs=2, strategy=STRATEGY_MERGE_DAGS)
        assert dag_to_json(serial) == dag_to_json(sharded)
        assert to_dot(serial) == to_dot(sharded)

    def test_merge_dags_opens_each_run_once(self, stores, monkeypatch):
        """In-process ``merge_dags`` synthesizes from the readers that
        validated the store, and ``StoreAnalysis`` from its own: one
        open per run, the model unchanged at jobs 1 and 2."""
        store, traces = stores["avp-interference"]
        expected = _merged_dags(traces)
        opened = []
        init = SegmentReader.__init__

        def counting_init(self, *args, **kwargs):
            opened.append(kwargs.get("path"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(SegmentReader, "__init__", counting_init)
        fresh = TraceStore(store.directory)
        serial = synthesize_from_store(
            fresh, jobs=1, strategy=STRATEGY_MERGE_DAGS
        )
        assert sorted(opened) == [fresh.path_of(r) for r in fresh.run_ids()]
        _assert_same_model(serial, expected, "jobs=1")
        del opened[:]
        analysis = StoreAnalysis(fresh, strategy=STRATEGY_MERGE_DAGS)
        _assert_same_model(analysis.dag, expected, "StoreAnalysis")
        assert len(analysis.chain_latencies(["/none"])) == 0
        assert len(opened) == RUNS
        sharded = synthesize_from_store(
            fresh, jobs=2, strategy=STRATEGY_MERGE_DAGS
        )
        _assert_same_model(sharded, expected, "jobs=2")

    def test_merge_traces_refuses_worker_processes(self, stores):
        store, _ = stores["syn"]
        with pytest.raises(ValueError, match="merge_dags"):
            synthesize_from_store(store, jobs=2)

    def test_recording_jobs_do_not_change_store(self, tmp_path):
        config = BatchConfig(duration_ns=DURATION_NS)
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        record_batch("sensor-fusion", runs=3, directory=serial_dir, jobs=1,
                     config=config)
        record_batch("sensor-fusion", runs=3, directory=parallel_dir, jobs=3,
                     config=config)
        serial = TraceStore(serial_dir)
        parallel = TraceStore(parallel_dir)
        assert serial.run_ids() == parallel.run_ids()
        for run_id in serial.run_ids():
            assert serial.load(run_id).to_dict() == parallel.load(run_id).to_dict()

    def test_pid_filter_matches_in_memory(self, stores):
        store, traces = stores["avp-interference"]
        merged = Trace.merge(traces)
        pids = merged.pids()[: len(merged.pids()) // 2]
        expected = synthesize_from_trace(merged, pids=pids)
        actual = synthesize_from_store(store, pids=pids)
        assert dag_to_json(actual) == dag_to_json(expected)


class TestColumnarWalkEquivalence:
    """The columnar Alg. 1 walk (store-native index, lazy payloads,
    per-PID sched buckets) vs the in-memory pipeline: ``merge_dags``
    over every registry scenario at jobs in {1, 2, 4} (each run
    synthesized from its own reader), plus an explicit --pids subset
    and a PID absent from the store under both strategies."""

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_every_scenario_every_jobs(self, stores, name, jobs):
        store, traces = stores[name]
        actual = synthesize_from_store(
            store, jobs=jobs, strategy=STRATEGY_MERGE_DAGS
        )
        _assert_same_model(actual, _merged_dags(traces), (name, jobs))

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_pid_subset_and_absent_pid(self, stores, jobs):
        store, traces = stores["service-mesh"]
        merged = Trace.merge(traces)
        absent = max(merged.pids()) + 1000
        pids = merged.pids()[::2] + [absent]
        _assert_same_model(
            synthesize_from_store(store, pids=pids),
            synthesize_from_trace(merged, pids=pids),
            "merge_traces",
        )
        _assert_same_model(
            synthesize_from_store(
                store, pids=pids, jobs=jobs, strategy=STRATEGY_MERGE_DAGS
            ),
            _merged_dags(traces, pids=pids),
            ("merge_dags", jobs),
        )

    def test_only_absent_pids_yield_empty_model(self, stores):
        store, traces = stores["syn"]
        absent = [max(Trace.merge(traces).pids()) + 1000]
        expected = synthesize_from_trace(Trace.merge(traces), pids=absent)
        actual = synthesize_from_store(store, pids=absent)
        assert dag_to_json(actual) == dag_to_json(expected)

    def test_overlapping_run_clocks_use_the_merge_path(self, tmp_path):
        """Runs sharing a clock base (time-overlapping streams) must
        take the k-way merge path and still match ``Trace.merge``."""
        from repro.store import write_segment

        store_dir = tmp_path / "overlap"
        store_dir.mkdir()
        traces = _reference_traces("sensor-fusion")
        overlapping = [
            Trace(
                ros_events=[e._replace(ts=e.ts - t.start_ts) for e in t.ros_events],
                sched_events=[e._replace(ts=e.ts - t.start_ts) for e in t.sched_events],
                wakeup_events=[e._replace(ts=e.ts - t.start_ts) for e in t.wakeup_events],
                pid_map=t.pid_map,
                start_ts=0,
                stop_ts=t.stop_ts - t.start_ts,
            )
            for t in traces
        ]
        for run_index, trace in enumerate(overlapping):
            write_segment(trace, str(store_dir / f"run{run_index:03d}.trace.bin"))
        store = TraceStore(str(store_dir))
        expected = synthesize_from_trace(Trace.merge(overlapping))
        actual = synthesize_from_store(store)
        assert dag_to_json(actual) == dag_to_json(expected)

    def test_mixed_binary_and_legacy_store_sharded(self, tmp_path):
        """Synthesis over a mixed store matches the in-memory pipeline
        under both strategies, ``merge_dags`` sharded by run at every
        jobs value.  Trailing 0-row and 1-row segments (v1 and v3) ride
        the time-ordered column consumer at its smallest sizes."""
        from repro.sim.scheduler import SchedSwitch
        from repro.tracing.events import P16_DDS_WRITE, TraceEvent
        from repro.tracing.storage import TRACE_SUFFIX, save_trace
        from segment_fixtures import write_as

        store_dir = str(tmp_path / "mixed")
        record_batch(
            "sensor-fusion", runs=3, directory=store_dir,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        store = TraceStore(store_dir)
        traces = [store.load(run_id) for run_id in store.run_ids()]
        # Demote run001 to legacy-only gzip-JSON.
        os.remove(store.path_of("run001"))
        save_trace(traces[1], os.path.join(store_dir, f"run001{TRACE_SUFFIX}"))
        # Append an eventless and a one-event run per format version.
        pid, name = sorted(traces[-1].pid_map.items())[0]
        ts = traces[-1].stop_ts
        for version in (1, 3):
            ts += 10
            empty = Trace(start_ts=ts, stop_ts=ts + 1)
            ts += 10
            single = Trace(
                ros_events=[
                    TraceEvent(
                        ts, pid, P16_DDS_WRITE, {"topic": "/tail", "src_ts": ts}
                    )
                ],
                sched_events=[
                    SchedSwitch(ts, 0, pid, name, 120, "S", 0, "swapper", 120)
                ],
                pid_map={pid: name},
                start_ts=ts,
                stop_ts=ts + 1,
            )
            for trace in (empty, single):
                write_as(
                    trace,
                    os.path.join(
                        store_dir, f"run{len(traces):03d}{SEGMENT_SUFFIX}"
                    ),
                    version,
                )
                traces.append(trace)
        mixed = TraceStore(store_dir)
        assert not mixed.is_binary("run001")
        assert [mixed.format_version(r) for r in mixed.run_ids()[3:]] == [
            1, 1, 3, 3,
        ]
        _assert_same_model(
            synthesize_from_store(mixed),
            synthesize_from_trace(Trace.merge(traces)),
            "merge_traces",
        )
        expected = _merged_dags(traces)
        for jobs in (1, 2, 4):
            actual = synthesize_from_store(
                mixed, jobs=jobs, strategy=STRATEGY_MERGE_DAGS
            )
            _assert_same_model(actual, expected, jobs)


class TestCliRecordSynthesize:
    def test_cli_round_trip_matches_in_memory_dot(self, tmp_path):
        store_dir = str(tmp_path / "store")
        dot_path = str(tmp_path / "store.dot")
        env_cmd = [sys.executable, "-m", "repro"]
        subprocess.run(
            env_cmd + ["record", "syn", "--runs", str(RUNS), "--out", store_dir,
                       "--duration", "1", "--jobs", "2"],
            check=True, capture_output=True,
        )
        subprocess.run(
            env_cmd + ["synthesize", store_dir, "--dot", dot_path],
            check=True, capture_output=True,
        )
        expected = to_dot(synthesize_from_trace(Trace.merge(_reference_traces("syn"))))
        with open(dot_path) as handle:
            assert handle.read() == expected

    def test_merge_traces_with_jobs_is_a_usage_error(self, stores, tmp_path, capsys):
        store, _ = stores["syn"]
        dot = tmp_path / "never.dot"
        assert main(["synthesize", store.directory, "--jobs", "2",
                     "--dot", str(dot)]) == 2
        assert "--strategy merge-dags" in capsys.readouterr().err
        assert not dot.exists()

    @pytest.mark.parametrize("command", ["analyze", "diff"])
    def test_jobs_is_gone_from_analyze_and_diff(self, stores, command, capsys):
        store, _ = stores["syn"]
        sides = [store.directory] * (2 if command == "diff" else 1)
        with pytest.raises(SystemExit) as excinfo:
            main([command, *sides, "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
