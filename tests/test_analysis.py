"""Tests for the analysis layer: chains, latency, load, response time."""

import numpy as np
import pytest

from repro.analysis import (
    AnalysisError,
    LatencyIndex,
    assert_feasible,
    callback_loads,
    callback_response_bound,
    chain_response_bound,
    chain_wcet,
    chains_through,
    check_binding,
    communication_latencies,
    enumerate_chains,
    format_chains,
    format_loads,
    measure_chain_latencies,
    measure_waiting_times,
    node_loads,
    suggest_binding,
    waiting_times,
)
from repro.core.index import CODE_CB_END, CODE_CB_START, payload_fields
from repro.apps import build_avp, build_syn
from repro.core import DagVertex, TimingDag, synthesize_from_trace
from repro.experiments import RunConfig, run_once
from repro.ros2 import Msg, Node
from repro.sim import MSEC, SEC
from repro.tracing import TracingSession
from repro.world import World


@pytest.fixture(scope="module")
def avp_model():
    config = RunConfig(duration_ns=10 * SEC, base_seed=21, num_cpus=4)
    result = run_once(lambda w, i: build_avp(w), config)
    dag = synthesize_from_trace(result.trace, pids=result.apps.pids)
    return dag, result


@pytest.fixture(scope="module")
def syn_model():
    config = RunConfig(duration_ns=10 * SEC, base_seed=22, num_cpus=4)
    result = run_once(lambda w, i: build_syn(w), config)
    dag = synthesize_from_trace(result.trace, pids=result.apps.pids)
    return dag, result


class TestChains:
    def test_avp_single_chain_pair(self, avp_model):
        dag, _ = avp_model
        chains = enumerate_chains(dag)
        # Two sources (cb1, cb2) joining at the AND junction -> 2 chains.
        assert len(chains) == 2
        sinks = {c.sink for c in chains}
        assert sinks == {"p2d_ndt_localizer_node/cb6"}

    def test_chain_wcet_positive(self, avp_model):
        dag, _ = avp_model
        for chain in enumerate_chains(dag):
            assert chain_wcet(dag, chain) > 0

    def test_syn_chains_do_not_cross_service(self, syn_model):
        dag, _ = syn_model
        for vertex in dag.find_vertices(cb_id="SV3"):
            through = chains_through(dag, vertex.key)
            # Each SV3 vertex lies on chains of exactly one caller.
            callers = {c.keys[0] for c in through}
            assert len(callers) == 1

    def test_naive_shared_service_creates_nxn_chains(self):
        """The paper's motivating example: one shared SV3 vertex yields
        2x2 chains; the replicated model yields 2."""
        dag = TimingDag()
        for key in ("A", "B", "SV", "CA", "CB"):
            dag.add_vertex(DagVertex(key=key, node="n", cb_id=key, cb_type="timer"))
        dag.add_edge("A", "SV", "t1")
        dag.add_edge("B", "SV", "t2")
        dag.add_edge("SV", "CA", "r1")
        dag.add_edge("SV", "CB", "r2")
        assert len(enumerate_chains(dag)) == 4  # 2 spurious

    def test_format_chains(self, avp_model):
        dag, _ = avp_model
        text = format_chains(dag, enumerate_chains(dag))
        assert "cb6" in text and "ms" in text

    def test_explicit_sink_terminates_despite_successors(self):
        """``sinks=`` must end the chain at that vertex even when the
        graph continues past it (regression: mid-graph sinks used to be
        walked through, yielding chains that overshot the requested
        analysis horizon)."""
        dag = TimingDag()
        for key in ("A", "M", "Z"):
            dag.add_vertex(DagVertex(key=key, node="n", cb_id=key, cb_type="timer"))
        dag.add_edge("A", "M", "t1")
        dag.add_edge("M", "Z", "t2")
        chains = enumerate_chains(dag, sinks=["M"])
        assert [c.keys for c in chains] == [("A", "M")]

    def test_explicit_sink_on_fanout_vertex(self):
        dag = TimingDag()
        for key in ("A", "B", "SV", "CA", "CB"):
            dag.add_vertex(DagVertex(key=key, node="n", cb_id=key, cb_type="timer"))
        dag.add_edge("A", "SV", "t1")
        dag.add_edge("B", "SV", "t2")
        dag.add_edge("SV", "CA", "r1")
        dag.add_edge("SV", "CB", "r2")
        # Stopping at the shared service: one chain per caller, none of
        # the 2x2 fan-out past it.
        chains = enumerate_chains(dag, sinks=["SV"])
        assert sorted(c.keys for c in chains) == [("A", "SV"), ("B", "SV")]

    def test_graph_sinks_unchanged_by_fix(self, avp_model):
        """Default behavior (no explicit sinks) is untouched."""
        dag, _ = avp_model
        implicit = enumerate_chains(dag)
        explicit = enumerate_chains(dag, sinks=["p2d_ndt_localizer_node/cb6"])
        assert [c.keys for c in implicit] == [c.keys for c in explicit]


class TestLatency:
    def test_avp_end_to_end_latency(self, avp_model):
        dag, result = avp_model
        topics = [
            "lidar_front/points_raw",
            "lidar_front/points_filtered",
            "lidars/points_fused",
            "lidars/points_fused_downsampled",
        ]
        latencies = measure_chain_latencies(result.trace, topics)
        assert len(latencies) > 20
        values_ms = [l.latency_ns / 1e6 for l in latencies]
        # Front path: ~27 ms filter + fusion + ~8.5 ms voxel + ~24 ms NDT.
        assert 40 < min(values_ms)
        assert max(values_ms) < 250

    def test_latency_monotonic_fields(self, avp_model):
        _, result = avp_model
        latencies = measure_chain_latencies(
            result.trace, ["lidar_rear/points_raw", "lidar_rear/points_filtered"]
        )
        assert latencies
        assert all(l.end_ts > l.start_ts for l in latencies)

    def test_unknown_topic_gives_no_latencies(self, avp_model):
        _, result = avp_model
        assert measure_chain_latencies(result.trace, ["/nonexistent"]) == []

    def test_communication_latency_equals_dds_config(self, avp_model):
        _, result = avp_model
        values = communication_latencies(result.trace, "lidars/points_fused")
        assert values
        # One-way DDS latency is 50 us; takes happen at or after delivery.
        assert min(values) >= 50_000

    def test_waiting_times_need_wakeup_recording(self, avp_model):
        _, result = avp_model
        # Default session does not record wakeups.
        pid = result.apps.nodes[0].pid
        assert measure_waiting_times(result.trace, pid) == []

    def test_waiting_times_with_wakeups(self):
        world = World(num_cpus=1, seed=5)
        node = Node(world, "n")
        node.create_timer(50 * MSEC, lambda api, msg: (yield api.compute(5 * MSEC)))
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
        world.run(for_ns=3 * SEC)
        session.stop_runtime()
        trace = session.trace()
        waits = measure_waiting_times(trace, node.pid)
        assert waits
        assert all(w.waiting_ns >= 0 for w in waits)
        # The low-priority node is sometimes kept waiting by the rival.
        assert max(w.waiting_ns for w in waits) > 0
        # The index-based front end is the same computation.
        index = LatencyIndex.from_trace(trace)
        assert waiting_times(index, node.pid) == waits


def columns_of(rows):
    """``(ts, pid, code, aux)`` rows as the resolved column arrays the
    index is built from, payload dicts projected to their field tuples."""
    aux = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows):
        aux[i] = payload_fields([row[3]])[0] if isinstance(row[3], dict) else row[3]
    return (
        np.array([row[0] for row in rows], dtype=np.int64),
        np.array([row[1] for row in rows], dtype=np.int32),
        np.array([row[2] for row in rows], dtype=np.uint8),
        aux,
    )


class TestLatencyIndex:
    """The column-built index behind all latency analyses."""

    @staticmethod
    def window_rows(windows, pid=1):
        rows = []
        for start, end in windows:
            rows.append((start, pid, CODE_CB_START, None))
            rows.append((end, pid, CODE_CB_END, None))
        return rows

    def test_window_containing_basic(self):
        index = LatencyIndex(columns_of(self.window_rows([(10, 20), (30, 40)])))
        assert index.window_containing(1, 15) == (10, 20)
        assert index.window_containing(1, 30) == (30, 40)
        assert index.window_containing(1, 40) == (30, 40)
        assert index.window_containing(1, 25) is None
        assert index.window_containing(1, 5) is None
        assert index.window_containing(99, 15) is None

    def test_unsorted_windows_are_defensively_sorted(self):
        """Windows arriving out of start order (possible when per-run
        streams are concatenated without a merge) must not break the
        bisect lookup."""
        rows = self.window_rows([(100, 200)]) + self.window_rows([(50, 80)])
        index = LatencyIndex(columns_of(rows))
        assert index.window_containing(1, 60) == (50, 80)
        assert index.window_containing(1, 150) == (100, 200)
        assert index.window_containing(1, 90) is None

    def test_window_lookup_matches_linear_scan(self, avp_model):
        """The precomputed-starts bisect agrees with the O(W) reference
        scan on a real trace, at every probe point."""
        _, result = avp_model
        index = LatencyIndex.from_trace(result.trace)
        for pid in result.apps.pids:
            windows = index._windows.get(pid, [])
            for probe in [w[0] for w in windows[:50]] + [
                w[1] + 1 for w in windows[:50]
            ]:
                reference = None
                for window in windows:
                    if window[0] <= probe <= window[1]:
                        reference = window
                assert index.window_containing(pid, probe) == reference

    def test_wakeups_and_cb_starts_recorded(self):
        rows = self.window_rows([(10, 20), (30, 40)])
        index = LatencyIndex(columns_of(rows), wakeups=([8, 28, 5], [1, 1, 2]))
        assert index.cb_starts(1) == [10, 30]
        assert index.wakeups(1) == [8, 28]
        assert index.wakeups(2) == [5]
        waits = waiting_times(index, 1)
        assert [(w.wakeup_ts, w.start_ts) for w in waits] == [(8, 10), (28, 30)]
        assert [w.waiting_ns for w in waits] == [2, 2]

    def test_wakeups_out_of_order_are_sorted_per_pid(self):
        """``waiting_times`` bisects a PID's wakeups, so they are kept in
        stable ts order whatever order the wakeup columns arrive in."""
        rows = self.window_rows([(10, 20), (30, 40)])
        index = LatencyIndex(
            columns_of(rows), wakeups=([28, 5, 8, 29], [1, 2, 1, 3])
        )
        assert index.wakeups(1) == [8, 28]
        waits = waiting_times(index, 1)
        assert [(w.wakeup_ts, w.start_ts) for w in waits] == [(8, 10), (28, 30)]


class TestLoad:
    def test_cb2_load_matches_paper_claim(self, avp_model):
        """Sec. VI: cb2 averages ~27 % of a core at 10 Hz."""
        dag, result = avp_model
        loads = {l.key: l.load for l in callback_loads(dag)}
        cb2 = loads["filter_transform_vlp16_front/cb2"]
        assert cb2 == pytest.approx(0.27, abs=0.03)

    def test_node_loads_aggregate(self, avp_model):
        dag, _ = avp_model
        per_node = node_loads(dag)
        assert per_node["point_cloud_fusion"] > 0
        assert sum(per_node.values()) < 1.5

    def test_suggest_binding_respects_threshold(self, avp_model):
        dag, _ = avp_model
        binding = suggest_binding(dag, num_cpus=2, threshold=0.8)
        per_cpu = check_binding(dag, binding, num_cpus=2, threshold=0.8)
        assert all(load <= 0.8 for load in per_cpu.values())

    def test_binding_infeasible_raises(self, avp_model):
        dag, _ = avp_model
        with pytest.raises(ValueError):
            suggest_binding(dag, num_cpus=1, threshold=0.3)

    def test_check_binding_missing_node_raises(self, avp_model):
        dag, _ = avp_model
        with pytest.raises(ValueError):
            check_binding(dag, {}, num_cpus=4)

    def test_format_loads(self, avp_model):
        dag, _ = avp_model
        assert "%" in format_loads(dag)


class TestResponseTime:
    def test_bounds_exceed_wcet(self, avp_model):
        dag, _ = avp_model
        for vertex in dag.vertices():
            bound = callback_response_bound(dag, vertex.key)
            assert bound.response_bound >= vertex.exec_stats.mwcet

    def test_chain_bound_exceeds_sum_of_wcets(self, avp_model):
        dag, _ = avp_model
        for chain in enumerate_chains(dag):
            bound = chain_response_bound(dag, chain, comm_latency_ns=50_000)
            assert bound >= chain_wcet(dag, chain)

    def test_feasibility_check_passes_for_avp(self, avp_model):
        dag, _ = avp_model
        loads = assert_feasible(dag)
        assert loads

    def test_infeasible_model_raises(self):
        dag = TimingDag()
        dag.add_vertex(
            DagVertex(
                key="n/x",
                node="n",
                cb_id="x",
                cb_type="timer",
                exec_times=[90 * MSEC] * 10,
                start_times=[i * 100 * MSEC for i in range(10)],
            )
        )
        dag.add_vertex(
            DagVertex(
                key="n/y",
                node="n",
                cb_id="y",
                cb_type="timer",
                exec_times=[50 * MSEC] * 10,
                start_times=[i * 100 * MSEC for i in range(10)],
            )
        )
        with pytest.raises(AnalysisError):
            assert_feasible(dag)
