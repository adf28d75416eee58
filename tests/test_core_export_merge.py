"""Unit tests for model export (DOT/JSON) and merging (multi-run,
multi-mode)."""

import json
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DagVertex,
    MultiModeDag,
    TimingDag,
    dag_from_dict,
    dag_from_json,
    dag_to_dict,
    dag_to_json,
    format_edges,
    format_exec_table,
    merge_dags,
    synthesize_from_trace,
    to_dot,
)
from repro.core.export import _SAMPLE_FIELDS, render_samples
from repro.experiments.batch import BatchConfig
from repro.experiments.runner import run_once
from repro.scenarios import build_scenario_spec, scenario_names
from repro.sim import MSEC


def small_dag(exec_base=MSEC):
    dag = TimingDag()
    dag.add_vertex(
        DagVertex(
            key="a/t", node="a", cb_id="t", cb_type="timer",
            outtopics=["/x"], exec_times=[exec_base, 2 * exec_base],
            start_times=[0, 100 * MSEC],
        )
    )
    dag.add_vertex(
        DagVertex(
            key="b/s", node="b", cb_id="s", cb_type="subscriber",
            intopic="/x", exec_times=[3 * exec_base],
            start_times=[5 * MSEC],
        )
    )
    dag.add_edge("a/t", "b/s", topic="/x")
    return dag


class TestDotExport:
    def test_contains_vertices_and_edges(self):
        dot = to_dot(small_dag(), title="test")
        assert 'digraph "test"' in dot
        assert '"a/t"' in dot and '"b/s"' in dot
        assert '"a/t" -> "b/s"' in dot
        assert "/x" in dot

    def test_junction_rendered_as_diamond(self):
        dag = small_dag()
        dag.add_vertex(DagVertex(key="b/&", node="b", cb_id="b/&", cb_type="and_junction"))
        dot = to_dot(dag)
        assert "diamond" in dot

    def test_or_junction_annotated(self):
        dag = small_dag()
        dag.vertex("b/s").is_or_junction = True
        assert "(OR)" in to_dot(dag)


class TestJsonRoundTrip:
    def test_lossless(self):
        dag = small_dag()
        clone = dag_from_json(dag_to_json(dag))
        assert dag_to_dict(clone) == dag_to_dict(dag)

    def test_json_is_valid(self):
        parsed = json.loads(dag_to_json(small_dag(), indent=2))
        assert {"vertices", "edges"} == set(parsed)

    def test_round_trip_preserves_stats(self):
        clone = dag_from_dict(dag_to_dict(small_dag()))
        assert clone.vertex("a/t").exec_stats.mwcet == 2 * MSEC
        assert clone.vertex("a/t").period_ns == 100 * MSEC


#: Strings with non-ASCII and control characters (keys, topics, ids).
_texts = st.text(max_size=6)
#: Samples the JSON schema may hold: ints past 64 bits either way,
#: floats with nan/inf, and the occasional bool or None.
_samples = st.one_of(
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=6),
    st.lists(
        st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
        max_size=6,
    ),
)


@st.composite
def _dags(draw):
    dag = TimingDag()
    keys = draw(st.lists(_texts, unique=True, max_size=5))
    for key in keys:
        dag.add_vertex(
            DagVertex(
                key=key,
                node=draw(_texts),
                cb_id=draw(_texts),
                cb_type=draw(st.sampled_from(["timer", "subscriber", "and_junction"])),
                intopic=draw(st.none() | _texts),
                outtopics=draw(st.lists(_texts, max_size=3)),
                is_sync_member=draw(st.booleans()),
                is_or_junction=draw(st.booleans()),
                exec_times=draw(_samples),
                start_times=draw(_samples),
                response_times=draw(_samples),
            )
        )
    if keys:
        for src, dst, topic in draw(st.lists(
            st.tuples(st.sampled_from(keys), st.sampled_from(keys), _texts),
            max_size=6,
        )):
            dag.add_edge(src, dst, topic)
    return dag


def _edge_dag():
    """Every awkward value at once: unicode and control characters,
    an empty DAG's worth of empty lists, None, big and negative ints,
    nan and infinities."""
    dag = TimingDag()
    dag.add_vertex(
        DagVertex(
            key="k\u00e9\n\x00\"", node="n\u2603", cb_id="\ud83d\ude00",
            cb_type="timer", intopic=None,
            exec_times=[-1, 2**63, -(2**64)],
            start_times=[0.5, float("nan"), float("inf"), float("-inf")],
        )
    )
    dag.add_vertex(DagVertex(key="z", node="z", cb_id="z", cb_type="timer",
                             intopic="/t\t", outtopics=["/\x7f"]))
    dag.add_edge("z", "k\u00e9\n\x00\"", topic="\u00ff")
    return dag


class TestJsonRenderer:
    """``dag_to_json`` renders the ``dag_to_dict`` schema itself; its
    bytes must be ``json.dumps``' for every indent."""

    @pytest.mark.parametrize("indent", [None, 0, 2, 4])
    def test_empty_and_edge_dags(self, indent):
        for dag in (TimingDag(), small_dag(), _edge_dag()):
            assert dag_to_json(dag, indent=indent) == json.dumps(
                dag_to_dict(dag), indent=indent
            )

    @given(dag=_dags())
    @example(dag=_edge_dag())
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, dag):
        expected = dag_to_dict(dag)
        for indent in (None, 0, 2, 4):
            assert dag_to_json(dag, indent=indent) == json.dumps(
                expected, indent=indent
            )

    @staticmethod
    def _assert_chunked(dag, runs, holders, cut):
        """Cut each vertex's sample lists into consecutive pieces, one
        per run in ``holders(vertex)`` (none: the vertex renders its own
        lists, as an AND junction does), render each run's pieces and
        join them: the bytes are ``json.dumps``'."""
        pieces = [dict() for _ in range(runs)]
        for vertex in dag.vertices():
            held = holders(vertex)
            cuts = {}
            for name in _SAMPLE_FIELDS:
                values = getattr(vertex, name)
                bounds = [0, *cut(len(values), len(held) - 1), len(values)]
                cuts[name] = [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            for number, run in enumerate(held):
                pieces[run][vertex.key] = DagVertex(
                    key=vertex.key, node=vertex.node, cb_id=vertex.cb_id,
                    cb_type=vertex.cb_type,
                    **{name: cuts[name][number] for name in _SAMPLE_FIELDS},
                )
        expected = dag_to_dict(dag)
        dag.sample_parts = tuple(
            partial(render_samples, run.values()) for run in pieces
        )
        for indent in (None, 0, 2, 4):
            assert dag_to_json(dag, indent=indent) == json.dumps(
                expected, indent=indent
            )

    def test_chunked_edge_dag(self):
        self._assert_chunked(
            _edge_dag(), 2, lambda vertex: [0, 1],
            lambda size, count: [size // 2] * count,
        )

    @given(dag=_dags(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_chunked_assembly_matches_json_dumps(self, dag, data):
        runs = data.draw(st.integers(1, 4))
        self._assert_chunked(
            dag,
            runs,
            lambda vertex: sorted(data.draw(st.sets(st.integers(0, runs - 1)))),
            lambda size, count: sorted(data.draw(st.lists(
                st.integers(0, size), min_size=max(count, 0),
                max_size=max(count, 0),
            ))),
        )

    @pytest.mark.parametrize("name", scenario_names())
    def test_registry_scenario_models(self, name):
        duration_ns = 500 * MSEC
        spec = build_scenario_spec(
            name, run_index=0, runs=1, duration_ns=duration_ns
        )
        config = BatchConfig(duration_ns=duration_ns).run_config(
            duration_ns, spec.num_cpus
        )
        trace = run_once(
            lambda world, i, spec=spec: spec.build(world), config, run_index=0
        ).trace
        dag = synthesize_from_trace(trace)
        assert dag.vertices()
        for indent in (None, 0, 2, 4):
            assert dag_to_json(dag, indent=indent) == json.dumps(
                dag_to_dict(dag), indent=indent
            )


class TestTables:
    def test_exec_table(self):
        text = format_exec_table(small_dag())
        assert "mWCET" in text and "a" in text

    def test_exec_table_with_names(self):
        text = format_exec_table(small_dag(), order=["a/t"], names={"a/t": "cb9"})
        assert "cb9" in text and "b/s" not in text

    def test_format_edges(self):
        assert "a/t --[/x]--> b/s" in format_edges(small_dag())


class TestMergeDags:
    def test_samples_concatenate(self):
        merged = merge_dags([small_dag(MSEC), small_dag(5 * MSEC)])
        stats = merged.vertex("a/t").exec_stats
        assert stats.count == 4
        assert stats.mbcet == MSEC
        assert stats.mwcet == 10 * MSEC

    def test_union_of_vertices(self):
        a = small_dag()
        b = small_dag()
        b.add_vertex(DagVertex(key="c/x", node="c", cb_id="x", cb_type="subscriber",
                               intopic="/x"))
        b.add_edge("a/t", "c/x", topic="/x")
        merged = merge_dags([a, b])
        assert merged.num_vertices == 3
        assert merged.num_edges == 2

    def test_or_flag_sticky(self):
        a = small_dag()
        b = small_dag()
        b.vertex("b/s").is_or_junction = True
        assert merge_dags([a, b]).vertex("b/s").is_or_junction
        assert merge_dags([b, a]).vertex("b/s").is_or_junction

    def test_type_conflict_rejected(self):
        a = small_dag()
        b = TimingDag()
        b.add_vertex(DagVertex(key="a/t", node="a", cb_id="t", cb_type="service"))
        with pytest.raises(ValueError):
            merge_dags([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_dags([])

    def test_inputs_not_mutated(self):
        a = small_dag()
        before = len(a.vertex("a/t").exec_times)
        merge_dags([a, small_dag()])
        assert len(a.vertex("a/t").exec_times) == before


class TestMultiMode:
    def test_modes_and_union(self):
        multi = MultiModeDag()
        multi.add_mode("city", small_dag(MSEC))
        multi.add_mode("highway", small_dag(4 * MSEC))
        assert multi.modes() == ["city", "highway"]
        assert multi.dag("city").vertex("a/t").exec_stats.mwcet == 2 * MSEC
        union = multi.union()
        assert union.vertex("a/t").exec_stats.mwcet == 8 * MSEC

    def test_duplicate_mode_rejected(self):
        multi = MultiModeDag()
        multi.add_mode("city", small_dag())
        with pytest.raises(ValueError):
            multi.add_mode("city", small_dag())
