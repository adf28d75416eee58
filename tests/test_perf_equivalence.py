"""Equivalence pins for the PR-2 performance overhaul.

Three layers of guarantees, each against the frozen pre-change
implementations in :mod:`repro._legacy`:

1. **golden synthesis** -- for every registry scenario, the optimized
   pipeline (one ``StoreTraceIndex`` over the in-memory trace) must
   produce byte-identical DAG JSON, exec-time tables and DOT exports;
2. **full-stack sim** -- the optimized kernel/scheduler/tracer stack
   must emit bit-identical traces;
3. **Alg. 2 properties** -- the columnar ``SchedIndex`` must agree with
   both the literal ``get_exec_time`` and the frozen object-walking
   index on arbitrary event soups.

Plus the batch determinism re-check: ``--jobs`` must not change results
now that synthesis flows through the one trace index.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro._legacy import LegacySchedIndex, legacy_extract_all
from repro._legacy.tracing.session import TracingSession as LegacyTracingSession
from repro._legacy.world import World as LegacyWorld
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
from repro.sim import SEC, HeapKernel, SchedSwitch, SimKernel
from repro.sim.policies import POLICY_NAMES
from repro.tracing.session import Trace, TracingSession
from repro.world import World

DURATION_NS = int(1.5 * SEC)


def _traced_run(
    name,
    run_index=0,
    world_cls=World,
    session_cls=TracingSession,
    **world_kwargs,
):
    spec = build_scenario_spec(name, run_index=run_index, runs=3)
    config = RunConfig(duration_ns=DURATION_NS, num_cpus=spec.num_cpus)
    world = world_cls(
        num_cpus=config.num_cpus,
        seed=config.seed_for(run_index),
        timeslice=config.timeslice_ns,
        dds_latency_ns=config.dds_latency_ns,
        start_time_ns=config.time_base_for(run_index),
        first_pid=config.pid_base_for(run_index),
        **world_kwargs,
    )
    spec.build(world)
    session = session_cls(world, kernel_filter=config.kernel_filter)
    session.start_init()
    world.launch()
    world.run(for_ns=config.warmup_ns)
    session.stop_init()
    session.start_runtime()
    world.run(for_ns=DURATION_NS)
    session.stop_runtime()
    return session.trace()


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
    """New kernel/scheduler/tracing stack == frozen stack, bit for bit."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_traces_identical(self, name, traces_by_scenario):
        legacy_trace = _traced_run(
            name, world_cls=LegacyWorld, session_cls=LegacyTracingSession
        )
        assert traces_by_scenario[name].to_dict() == legacy_trace.to_dict()


class TestPolicyMatrixEquivalence:
    """The slab-kernel fast path stays bit-identical across the PR 9
    policy matrix.

    The frozen legacy stack predates pluggable policies (its default is
    the priority/RR policy pinned against it above), so for the other
    three policies the pin is the flagged reference substrate: the same
    world with ``kernel_cls=HeapKernel`` -- handle objects and
    ``pending``-recheck run loop instead of the slab's parallel arrays
    and generation tags.  Every lazy-arming and token-cancel path in the
    scheduler runs on both kernels here.
    """

    @pytest.mark.parametrize("name", ["avp-interference", "service-mesh"])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_slab_kernel_matches_heap_reference(self, name, policy):
        slab = _traced_run(name, sched_policy=policy, kernel_cls=SimKernel)
        reference = _traced_run(name, sched_policy=policy, kernel_cls=HeapKernel)
        assert slab.to_dict() == reference.to_dict()

    def test_default_policy_is_the_legacy_pinned_one(self):
        """``sched_policy="priority"`` == the default-policy stack that
        the legacy comparison above pins, closing the matrix: priority
        is pinned to legacy, and every policy is pinned to the reference
        kernel."""
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
