"""Equivalence pins for the simulator and the Alg. 1/2 pipeline.

Three layers of guarantees:

1. **golden synthesis** -- for every registry scenario, the optimized
   pipeline (one ``StoreTraceIndex`` over the in-memory trace) must
   produce byte-identical DAG JSON, exec-time tables and DOT exports
   to the frozen pre-index Alg. 1/2 oracle in :mod:`repro._legacy`;
2. **full-stack sim** -- every registry scenario under every
   scheduling policy must reproduce the committed sha256 digests in
   ``tests/data/golden_digests.json``: its trace (as canonical JSON)
   and the DAG JSON, exec table and DOT synthesized from it.  The
   digests were checked equal to the frozen simulator stack and the
   handle-per-event reference kernel before those were deleted.
   Regenerate them, only for a change meant to alter the simulated
   output, with ``PYTHONPATH=src python tests/test_perf_equivalence.py``;
3. **Alg. 2 properties** -- the columnar ``SchedIndex`` must agree with
   both the literal ``get_exec_time`` and the frozen object-walking
   index on arbitrary event soups.

Plus the batch determinism re-check: ``--jobs`` must not change results
now that synthesis flows through the one trace index.
"""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro._legacy import LegacySchedIndex, legacy_extract_all
from repro.core import (
    SchedIndex,
    dag_to_json,
    format_exec_table,
    get_exec_time,
    synthesize_dag,
    synthesize_from_trace,
    to_dot,
)
from repro.core.merge import dag_from_merged_traces, merge_dags
from repro.experiments import BatchConfig, RunConfig, run_batch, run_once
from repro.scenarios import build_scenario_spec, scenario_names
from repro.sim import SEC, SchedSwitch
from repro.sim.policies import POLICY_NAMES
from repro.tracing.session import Trace, TracingSession
from repro.world import World

DURATION_NS = int(1.5 * SEC)


def _traced_run(name, run_index=0, **world_kwargs):
    spec = build_scenario_spec(name, run_index=run_index, runs=3)
    config = RunConfig(duration_ns=DURATION_NS, num_cpus=spec.num_cpus)
    world = World(
        num_cpus=config.num_cpus,
        seed=config.seed_for(run_index),
        timeslice=config.timeslice_ns,
        dds_latency_ns=config.dds_latency_ns,
        start_time_ns=config.time_base_for(run_index),
        first_pid=config.pid_base_for(run_index),
        **world_kwargs,
    )
    spec.build(world)
    session = TracingSession(world, kernel_filter=config.kernel_filter)
    session.start_init()
    world.launch()
    world.run(for_ns=config.warmup_ns)
    session.stop_init()
    session.start_runtime()
    world.run(for_ns=DURATION_NS)
    session.stop_runtime()
    return session.trace()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_key(name, policy):
    return f"{name}/{policy}"


def _run_digests(name, policy):
    """The four pins of one scenario x policy run: its trace as
    canonical JSON (not the segment bytes, whose compressed sections
    depend on the zlib version), and the DAG JSON, exec table and DOT
    synthesized from it."""
    trace = _traced_run(name, sched_policy=policy)
    dag = synthesize_from_trace(trace)
    return {
        "trace": _sha256(json.dumps(trace.to_dict(), sort_keys=True)),
        "dag_json": _sha256(dag_to_json(dag)),
        "exec_table": _sha256(format_exec_table(dag)),
        "dot": _sha256(to_dot(dag)),
    }


def golden_digests():
    """Digests of every registry scenario under every policy."""
    return {
        _digest_key(name, policy): _run_digests(name, policy)
        for name in scenario_names()
        for policy in POLICY_NAMES
    }


GOLDEN_DIGESTS = pathlib.Path(__file__).parent / "data" / "golden_digests.json"


@pytest.fixture(scope="module")
def traces_by_scenario():
    return {name: _traced_run(name) for name in scenario_names()}


class TestGoldenSynthesisEquivalence:
    """Optimized pipeline == frozen pre-change pipeline, byte for byte."""

    @pytest.fixture(scope="class", autouse=True)
    def _dags(self, traces_by_scenario):
        type(self).new_dags = {
            name: synthesize_from_trace(trace)
            for name, trace in traces_by_scenario.items()
        }
        type(self).legacy_dags = {
            name: synthesize_dag(legacy_extract_all(trace))
            for name, trace in traces_by_scenario.items()
        }

    @pytest.mark.parametrize("name", scenario_names())
    def test_dag_json_identical(self, name):
        assert dag_to_json(self.new_dags[name]) == dag_to_json(
            self.legacy_dags[name]
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_exec_table_identical(self, name):
        assert format_exec_table(self.new_dags[name]) == format_exec_table(
            self.legacy_dags[name]
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_dot_identical(self, name):
        assert to_dot(self.new_dags[name]) == to_dot(self.legacy_dags[name])


class TestOraclesStayOffProduction:
    def test_production_imports_load_no_oracle(self):
        """:mod:`repro._legacy` is a test oracle: importing the CLI and
        the world, store, service and analysis packages in a fresh
        interpreter loads none of it."""
        script = "\n".join([
            "import sys",
            "import repro.cli, repro.world, repro.store, repro.service, "
            "repro.analysis",
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro._legacy')))",
        ])
        result = subprocess.run(
            [sys.executable, "-c", script],
            check=True, capture_output=True, text=True,
        )
        assert result.stdout.strip() == "[]"


class TestMergedTraceEquivalence:
    """Strategy 1 (merge traces, then synthesize): the O(P*N) path."""

    def test_merged_synthesis_identical(self):
        traces = [_traced_run("avp-interference", run_index=i) for i in range(2)]
        new_dag = dag_from_merged_traces(traces)
        legacy_dag = synthesize_dag(legacy_extract_all(Trace.merge(traces)))
        assert dag_to_json(new_dag) == dag_to_json(legacy_dag)

    def test_trace_merge_round_trips_serialization(self):
        traces = [_traced_run("syn", run_index=i) for i in range(2)]
        merged = Trace.merge(traces)
        restored = Trace.from_dict(
            json.loads(json.dumps(merged.to_dict()))
        )
        assert restored.to_dict() == merged.to_dict()


class TestFullStackSimEquivalence:
    """The traced simulator stack (kernel, scheduler and policy, ROS 2
    layer, tracers) and the synthesis over it reproduce the committed
    golden digests, for every scenario x policy."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads(GOLDEN_DIGESTS.read_text())

    def test_digest_keys_are_scenarios_x_policies(self, committed):
        expected = {
            _digest_key(name, policy)
            for name in scenario_names()
            for policy in POLICY_NAMES
        }
        assert set(committed) == expected, (
            f"golden digests out of step with the scenario x policy matrix: "
            f"missing {sorted(expected - set(committed))}, "
            f"stale {sorted(set(committed) - expected)}"
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_traces_identical(self, name, committed):
        for policy in POLICY_NAMES:
            key = _digest_key(name, policy)
            assert _run_digests(name, policy) == committed[key], key


class TestPolicyMatrixEquivalence:
    def test_default_policy_is_the_legacy_pinned_one(self):
        """``sched_policy="priority"`` == the default-policy stack:
        omitting the policy must keep selecting priority/RR, whose
        digests pin every run that names no policy."""
        explicit = _traced_run("avp-interference", sched_policy="priority")
        default = _traced_run("avp-interference")
        assert explicit.to_dict() == default.to_dict()


class TestBatchDeterminismThroughTraceIndex:
    def test_jobs_do_not_change_results(self):
        config = BatchConfig(duration_ns=DURATION_NS, base_seed=321)
        serial = run_batch("sensor-fusion", runs=2, jobs=1, config=config)
        parallel = run_batch("sensor-fusion", runs=2, jobs=2, config=config)
        assert dag_to_json(serial.merged_dag) == dag_to_json(parallel.merged_dag)
        assert serial.table() == parallel.table()

    def test_golden_exec_table_stability(self, traces_by_scenario):
        """Exec tables are reproducible run-to-run (same seeds)."""
        for name, trace in traces_by_scenario.items():
            again = _traced_run(name)
            assert format_exec_table(
                synthesize_from_trace(again)
            ) == format_exec_table(synthesize_from_trace(trace)), name


def switch(ts, prev_pid, next_pid, cpu=0):
    return SchedSwitch(ts, cpu, prev_pid, f"p{prev_pid}", 0, "R",
                       next_pid, f"p{next_pid}", 0)


@st.composite
def event_soup(draw):
    """Arbitrary-but-causally-plausible switch sequences on one CPU,
    with timestamp ties, sometimes handed over out of order (every
    index sorts its input stably by timestamp)."""
    pids = [1, 2, 3]
    t = 0
    current = draw(st.sampled_from(pids))
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        t += draw(st.integers(min_value=0, max_value=500))
        nxt = draw(st.sampled_from([p for p in pids if p != current]))
        events.append(switch(t, current, nxt))
        current = nxt
    if draw(st.booleans()):
        events = draw(st.permutations(events))
    return events


class TestColumnarSchedIndexProperties:
    @given(
        soup=event_soup(),
        start=st.integers(min_value=0, max_value=5000),
        width=st.integers(min_value=0, max_value=5000),
        pid=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=200)
    def test_columnar_equals_literal(self, soup, start, width, pid):
        end = start + width
        assert SchedIndex(soup).exec_time(start, end, pid) == get_exec_time(
            start, end, pid, soup
        )

    @given(
        soup=event_soup(),
        start=st.integers(min_value=0, max_value=5000),
        width=st.integers(min_value=0, max_value=5000),
        pid=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=200)
    def test_columnar_equals_frozen_object_index(self, soup, start, width, pid):
        end = start + width
        assert SchedIndex(soup).exec_time(start, end, pid) == LegacySchedIndex(
            soup
        ).exec_time(start, end, pid)


class TestMergeSemantics:
    def test_heap_merge_matches_sort(self):
        """K-way merge output == the old extend-then-sort, ties included."""
        a = _traced_run("syn", run_index=0)
        b = _traced_run("syn", run_index=1)
        merged = Trace.merge([a, b])
        flat = sorted(a.ros_events + b.ros_events, key=lambda e: e.ts)
        assert merged.ros_events == flat

    def test_merged_dag_strategies_consistent(self):
        traces = [_traced_run("deep-pipeline", run_index=i) for i in range(2)]
        per_run = [synthesize_from_trace(t) for t in traces]
        merged = merge_dags(per_run)
        assert merged.num_vertices == per_run[0].num_vertices


if __name__ == "__main__":
    # Regenerate the committed digests (only for a change that is meant
    # to alter the simulated output):
    #   PYTHONPATH=src python tests/test_perf_equivalence.py
    GOLDEN_DIGESTS.write_text(
        json.dumps(golden_digests(), indent=2, sort_keys=True) + "\n"
    )
