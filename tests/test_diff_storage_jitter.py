"""Tests for model diffing, trace storage, and jitter analysis."""

import os

import pytest

from repro.analysis import (
    activation_model,
    activation_models,
    format_activations,
    response_jitter,
)
from repro.apps import build_avp
from repro.core import (
    DagVertex,
    TimingDag,
    diff_dags,
    percentile_gates,
    synthesize_from_trace,
)
from repro.experiments import RunConfig, collect_database, run_many, run_once
from repro.sim import MSEC, SEC
from repro.store import TraceStore, save_database_binary
from repro.tracing import load_trace, save_trace


def vertex(key, exec_times=(), start_times=(), response_times=(), **kwargs):
    return DagVertex(
        key=key,
        node=key.split("/")[0],
        cb_id=key.split("/")[-1],
        cb_type=kwargs.pop("cb_type", "subscriber"),
        exec_times=list(exec_times),
        start_times=list(start_times),
        response_times=list(response_times),
        **kwargs,
    )


def dag_with(*vertices, edges=()):
    dag = TimingDag()
    for v in vertices:
        dag.add_vertex(v)
    for src, dst, topic in edges:
        dag.add_edge(src, dst, topic)
    return dag


class TestDiff:
    def test_identical_models(self):
        a = dag_with(vertex("n/a", exec_times=[MSEC]))
        b = dag_with(vertex("n/a", exec_times=[MSEC]))
        diff = diff_dags(a, b)
        assert diff.is_empty
        assert "identical" in diff.summary()

    def test_added_and_removed_vertices(self):
        a = dag_with(vertex("n/a"), vertex("n/b"))
        b = dag_with(vertex("n/a"), vertex("n/c"))
        diff = diff_dags(a, b)
        assert diff.added_vertices == ["n/c"]
        assert diff.removed_vertices == ["n/b"]
        assert not diff.structurally_equal

    def test_edge_changes(self):
        a = dag_with(vertex("n/a"), vertex("n/b"), edges=[("n/a", "n/b", "/t")])
        b = dag_with(vertex("n/a"), vertex("n/b"))
        diff = diff_dags(a, b)
        assert diff.removed_edges == [("n/a", "n/b", "/t")]
        assert "- edge" in diff.summary()

    def test_drift_detection(self):
        a = dag_with(vertex("n/a", exec_times=[10 * MSEC] * 5))
        b = dag_with(vertex("n/a", exec_times=[14 * MSEC] * 5))
        diff = diff_dags(a, b, drift_threshold=0.10)
        assert len(diff.drifted) == 1
        assert diff.drifted[0].mwcet_ratio == pytest.approx(1.4)

    def test_small_drift_ignored(self):
        a = dag_with(vertex("n/a", exec_times=[10 * MSEC] * 5))
        b = dag_with(vertex("n/a", exec_times=[int(10.5 * MSEC)] * 5))
        assert diff_dags(a, b, drift_threshold=0.10).is_empty

    def test_unmeasured_vertices_not_drifted(self):
        a = dag_with(vertex("n/a"))
        b = dag_with(vertex("n/a", exec_times=[MSEC]))
        assert not diff_dags(a, b).drifted

    def test_vanished_callback_lands_in_no_data(self):
        """A callback that stopped executing is reported, not silently
        skipped (regression: the zero-count guard used to drop it)."""
        a = dag_with(vertex("n/a", exec_times=[MSEC] * 3))
        b = dag_with(vertex("n/a"))
        diff = diff_dags(a, b)
        assert not diff.is_empty
        assert len(diff.no_data) == 1
        gap = diff.no_data[0]
        assert gap.key == "n/a" and gap.vanished
        assert gap.old_count == 3 and gap.new_count == 0
        assert "stopped executing" in diff.summary()

    def test_appeared_callback_lands_in_no_data(self):
        a = dag_with(vertex("n/a"))
        b = dag_with(vertex("n/a", exec_times=[MSEC] * 2))
        diff = diff_dags(a, b)
        assert len(diff.no_data) == 1
        assert not diff.no_data[0].vanished
        assert "started executing" in diff.summary()

    def test_never_measured_still_ignored(self):
        a = dag_with(vertex("n/a"))
        b = dag_with(vertex("n/a"))
        diff = diff_dags(a, b)
        assert diff.is_empty and not diff.no_data

    def test_invalid_threshold(self):
        a = dag_with(vertex("n/a"))
        with pytest.raises(ValueError):
            diff_dags(a, a, drift_threshold=-1)

    def test_diff_across_real_runs(self):
        """Two seeds of the same app: same structure, some stat drift."""
        config = RunConfig(duration_ns=5 * SEC, base_seed=100, num_cpus=4)
        r1 = run_once(lambda w, i: build_avp(w), config, run_index=0)
        r2 = run_once(lambda w, i: build_avp(w), config, run_index=1)
        d1 = synthesize_from_trace(r1.trace, pids=r1.apps.pids)
        d2 = synthesize_from_trace(r2.trace, pids=r2.apps.pids)
        diff = diff_dags(d1, d2, drift_threshold=0.0)
        assert diff.structurally_equal
        assert diff.drifted  # exec times differ run to run


class TestPercentileGates:
    def test_identical_models_pass(self):
        a = dag_with(vertex("n/a", exec_times=[MSEC, 2 * MSEC, 3 * MSEC]))
        b = dag_with(vertex("n/a", exec_times=[MSEC, 2 * MSEC, 3 * MSEC]))
        gates = percentile_gates(a, b)
        assert len(gates) == 1
        gate = gates[0]
        assert gate.ratio == pytest.approx(1.0)
        assert not gate.exceeded
        assert "[ok]" in gate.describe()

    def test_grown_tail_fails_gate(self):
        a = dag_with(vertex("n/a", exec_times=[MSEC] * 99 + [2 * MSEC]))
        b = dag_with(vertex("n/a", exec_times=[MSEC] * 99 + [10 * MSEC]))
        (gate,) = percentile_gates(a, b, percentile=99.9, max_ratio=1.2)
        assert gate.exceeded
        assert gate.ratio > 4
        assert "[FAIL]" in gate.describe()

    def test_median_gate_ignores_tail(self):
        """The same pair passes at p50: only the tail moved."""
        a = dag_with(vertex("n/a", exec_times=[MSEC] * 99 + [2 * MSEC]))
        b = dag_with(vertex("n/a", exec_times=[MSEC] * 99 + [10 * MSEC]))
        (gate,) = percentile_gates(a, b, percentile=50, max_ratio=1.2)
        assert not gate.exceeded

    def test_unmeasured_vertices_skipped(self):
        a = dag_with(vertex("n/a", exec_times=[MSEC]), vertex("n/b"))
        b = dag_with(vertex("n/a"), vertex("n/b", exec_times=[MSEC]))
        # n/a has no new-side samples, n/b no old-side samples: no gates
        # (those are diff_dags no_data findings).
        assert percentile_gates(a, b) == []

    def test_gates_sorted_by_key(self):
        a = dag_with(
            vertex("n/z", exec_times=[MSEC]), vertex("n/a", exec_times=[MSEC])
        )
        gates = percentile_gates(a, a)
        assert [g.key for g in gates] == ["n/a", "n/z"]

    def test_invalid_parameters(self):
        a = dag_with(vertex("n/a", exec_times=[MSEC]))
        with pytest.raises(ValueError):
            percentile_gates(a, a, percentile=0)
        with pytest.raises(ValueError):
            percentile_gates(a, a, percentile=101)
        with pytest.raises(ValueError):
            percentile_gates(a, a, max_ratio=0)

    def test_gate_on_real_drift(self):
        """Two seeds of the same app: every shared callback gets a gate
        and none explodes past a generous factor."""
        config = RunConfig(duration_ns=3 * SEC, base_seed=300, num_cpus=4)
        r1 = run_once(lambda w, i: build_avp(w), config, run_index=0)
        r2 = run_once(lambda w, i: build_avp(w), config, run_index=1)
        d1 = synthesize_from_trace(r1.trace, pids=r1.apps.pids)
        d2 = synthesize_from_trace(r2.trace, pids=r2.apps.pids)
        gates = percentile_gates(d1, d2, percentile=95, max_ratio=3.0)
        assert gates
        assert not any(g.exceeded for g in gates)


class TestStorage:
    def make_database(self):
        config = RunConfig(duration_ns=2 * SEC, base_seed=55, num_cpus=2)
        results = run_many(lambda w, i: build_avp(w), runs=2, config=config)
        return collect_database(results), results

    def test_trace_round_trip(self, tmp_path):
        database, results = self.make_database()
        path = str(tmp_path / "run.trace.json.gz")
        trace = database.get("run000")
        save_trace(trace, path)
        clone = load_trace(path)
        assert len(clone.ros_events) == len(trace.ros_events)
        assert clone.pid_map == trace.pid_map

    def test_database_round_trip(self, tmp_path):
        database, results = self.make_database()
        directory = str(tmp_path / "traces")
        paths = save_database_binary(database, directory)
        assert len(paths) == 2
        clone = TraceStore(directory).to_database()
        assert clone.run_ids() == database.run_ids()
        # Re-synthesis from the stored traces gives the same model.
        pids = results[0].apps.pids
        original = synthesize_from_trace(database.get("run000"), pids=pids)
        restored = synthesize_from_trace(clone.get("run000"), pids=pids)
        assert diff_dags(original, restored, drift_threshold=0.0).is_empty

    def test_load_missing_directory(self):
        with pytest.raises(FileNotFoundError):
            TraceStore("/nonexistent/trace/dir")

    def test_unrelated_files_ignored(self, tmp_path):
        database, _ = self.make_database()
        directory = str(tmp_path / "traces")
        save_database_binary(database, directory)
        (tmp_path / "traces" / "README.txt").write_text("not a trace")
        assert len(TraceStore(directory).to_database()) == 2


class TestJitter:
    def test_perfect_period_zero_jitter(self):
        v = vertex("n/t", start_times=[0, 100, 200, 300], cb_type="timer")
        model = activation_model(v)
        assert model.period_ns == 100
        assert model.jitter_ns == 0
        assert model.min_gap_ns == model.max_gap_ns == 100

    def test_jitter_measured(self):
        v = vertex("n/t", start_times=[0, 100, 230, 300], cb_type="timer")
        model = activation_model(v)
        assert model.jitter_ns == 30
        assert model.max_gap_ns == 130
        assert model.min_gap_ns == 70

    def test_insufficient_data(self):
        model = activation_model(vertex("n/t", start_times=[5]))
        assert model.period_ns is None
        assert model.relative_jitter is None

    def test_response_jitter(self):
        v = vertex("n/s", response_times=[5, 9, 7])
        rj = response_jitter(v)
        assert rj.best_ns == 5
        assert rj.worst_ns == 9
        assert rj.spread_ns == 4

    def test_response_jitter_none_without_samples(self):
        assert response_jitter(vertex("n/s")) is None

    def test_report_on_real_model(self):
        config = RunConfig(duration_ns=5 * SEC, base_seed=77, num_cpus=4)
        result = run_once(lambda w, i: build_avp(w), config)
        dag = synthesize_from_trace(result.trace, pids=result.apps.pids)
        models = activation_models(dag)
        assert models
        cb1 = next(m for m in models if m.key.endswith("cb1"))
        # 10 Hz LIDAR with 0.5 ms sensor jitter.
        assert cb1.period_ns == pytest.approx(100 * MSEC, rel=0.05)
        assert cb1.relative_jitter < 0.5
        assert "period" in format_activations(dag)
