"""Unit tests for the DAG-synthesis rules on hand-built CBlists.

The per-key fold (:func:`fold_records`, :func:`merge_folds`) is also
pinned against a frozen copy of the per-record loop
:func:`synthesize_dag` ran before it folded
(:func:`record_loop_synthesis`): vertices and edges in the same
insertion order, every vertex field equal, on random CBlists.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CallbackInstance, CallbackRecord, CBList, synthesize_dag
from repro.core.dag import DagVertex, TimingDag
from repro.core.synthesis import (
    dag_from_fold,
    fold_records,
    junction_key,
    merge_folds,
    vertex_key,
)


def cblist(pid, node, *instances):
    cbl = CBList(pid=pid, node=node)
    for inst in instances:
        cbl.add(inst)
    return cbl


def inst(cb_id, cb_type="subscriber", intopic=None, outtopics=(), sync=False,
         start=0, end=10, exec_time=5):
    return CallbackInstance(
        cb_type=cb_type,
        start=start,
        end=end,
        cb_id=cb_id,
        intopic=intopic,
        outtopics=list(outtopics),
        is_sync_subscriber=sync,
        exec_time=exec_time,
    )


class TestEdgeRules:
    def test_topic_match_creates_edge(self):
        dag = synthesize_dag([
            cblist(1, "a", inst("T", cb_type="timer", outtopics=["/x"])),
            cblist(2, "b", inst("S", intopic="/x")),
        ])
        assert dag.has_edge("a/T", "b/S", "/x")

    def test_no_edge_without_match(self):
        dag = synthesize_dag([
            cblist(1, "a", inst("T", cb_type="timer", outtopics=["/x"])),
            cblist(2, "b", inst("S", intopic="/y")),
        ])
        assert dag.num_edges == 0

    def test_no_self_edge(self):
        dag = synthesize_dag([
            cblist(1, "a", inst("S", intopic="/loop", outtopics=["/loop"])),
        ])
        assert dag.num_edges == 0

    def test_divergence_multiple_outputs(self):
        dag = synthesize_dag([
            cblist(1, "a", inst("T", cb_type="timer", outtopics=["/x", "/y"])),
            cblist(2, "b", inst("S1", intopic="/x"), inst("S2", intopic="/y")),
        ])
        assert dag.has_edge("a/T", "b/S1", "/x")
        assert dag.has_edge("a/T", "b/S2", "/y")


class TestOrJunctionRule:
    def test_two_publishers_mark_or(self):
        dag = synthesize_dag([
            cblist(1, "a", inst("T1", cb_type="timer", outtopics=["/x"])),
            cblist(2, "b", inst("T2", cb_type="timer", outtopics=["/x"])),
            cblist(3, "c", inst("S", intopic="/x")),
        ])
        assert dag.vertex("c/S").is_or_junction
        assert len(dag.predecessors("c/S")) == 2

    def test_single_publisher_no_or(self):
        dag = synthesize_dag([
            cblist(1, "a", inst("T1", cb_type="timer", outtopics=["/x"])),
            cblist(3, "c", inst("S", intopic="/x")),
        ])
        assert not dag.vertex("c/S").is_or_junction


class TestSyncJunctionRule:
    def make_sync_lists(self, include_downstream=True):
        lists = [
            cblist(
                1,
                "fusion",
                inst("M1", intopic="/f1", sync=True, outtopics=["/out"]),
                inst("M2", intopic="/f2", sync=True),
            ),
        ]
        if include_downstream:
            lists.append(cblist(2, "sink", inst("D", intopic="/out")))
        return lists

    def test_junction_inserted(self):
        dag = synthesize_dag(self.make_sync_lists())
        jkey = junction_key("fusion")
        assert dag.has_vertex(jkey)
        assert dag.has_edge("fusion/M1", jkey)
        assert dag.has_edge("fusion/M2", jkey)
        assert dag.has_edge(jkey, "sink/D", "/out")

    def test_member_outputs_rerouted(self):
        dag = synthesize_dag(self.make_sync_lists())
        assert not dag.has_edge("fusion/M1", "sink/D")

    def test_member_never_last_has_no_output(self):
        """A member whose data never arrives last publishes nothing; the
        junction output still comes from the union."""
        dag = synthesize_dag(self.make_sync_lists())
        assert dag.vertex(junction_key("fusion")).outtopics == ["/out"]

    def test_single_sync_member_no_junction(self):
        dag = synthesize_dag([
            cblist(1, "fusion", inst("M1", intopic="/f1", sync=True, outtopics=["/out"])),
            cblist(2, "sink", inst("D", intopic="/out")),
        ])
        assert not dag.has_vertex(junction_key("fusion"))
        assert dag.has_edge("fusion/M1", "sink/D", "/out")

    def test_model_sync_disabled(self):
        dag = synthesize_dag(self.make_sync_lists(), model_sync=False)
        assert not dag.has_vertex(junction_key("fusion"))
        assert dag.has_edge("fusion/M1", "sink/D", "/out")


class TestServiceReplication:
    def make_service_lists(self):
        return [
            cblist(
                1,
                "server",
                inst("SV", cb_type="service", intopic="/rq#A", outtopics=["/rp#CA"]),
                inst("SV", cb_type="service", intopic="/rq#B", outtopics=["/rp#CB"]),
            ),
            cblist(2, "na", inst("A", cb_type="timer", outtopics=["/rq#A"]),
                   inst("CA", cb_type="client", intopic="/rp#CA")),
            cblist(3, "nb", inst("B", cb_type="timer", outtopics=["/rq#B"]),
                   inst("CB", cb_type="client", intopic="/rp#CB")),
        ]

    def test_replicated_vertices_and_disjoint_chains(self):
        dag = synthesize_dag(self.make_service_lists())
        sv = dag.find_vertices(cb_id="SV")
        assert len(sv) == 2
        for vertex in sv:
            preds = dag.predecessors(vertex.key)
            succs = dag.successors(vertex.key)
            assert len(preds) == 1 and len(succs) == 1
            assert (preds[0].cb_id, succs[0].cb_id) in {("A", "CA"), ("B", "CB")}

    def test_naive_mode_folds_vertices(self):
        dag = synthesize_dag(self.make_service_lists(), split_services=False)
        sv = dag.find_vertices(cb_id="SV")
        assert len(sv) == 1
        assert len(dag.predecessors(sv[0].key)) == 2
        assert len(dag.successors(sv[0].key)) == 2

    def test_naive_mode_merges_samples(self):
        dag = synthesize_dag(self.make_service_lists(), split_services=False)
        sv = dag.find_vertices(cb_id="SV")[0]
        assert len(sv.exec_times) == 2

    def test_vertex_key_scheme(self):
        lists = self.make_service_lists()
        records = {r.cb_id: r for r in lists[0]}
        assert "@" in vertex_key(records["SV"])
        assert vertex_key(records["SV"], split_services=False) == "server/SV"


class TestFoldContract:
    """What merging per-run folds relies on: a key's first record
    gives its attributes, its outtopics are the ordered union of its
    records', and its samples concatenate in CBlist (PID) order."""

    def records(self):
        first = CallbackRecord(
            pid=1, node="n", cb_type="subscriber", cb_id="S", intopic="/a",
            outtopics=["/x", "/y"], is_sync_subscriber=False,
            exec_times=[1, 2], start_times=[10, 20], response_times=[3, 4],
        )
        second = CallbackRecord(
            pid=2, node="n", cb_type="timer", cb_id="S", intopic="/b",
            outtopics=["/z", "/x"], is_sync_subscriber=True,
            exec_times=[5], start_times=[30], response_times=[6],
        )
        return first, second

    def test_first_record_wins(self):
        vertex = synthesize_dag([[r] for r in self.records()]).vertex("n/S")
        assert (vertex.cb_type, vertex.intopic, vertex.is_sync_member) == (
            "subscriber", "/a", False,
        )
        assert vertex.outtopics == ["/x", "/y", "/z"]
        assert vertex.exec_times == [1, 2, 5]
        assert vertex.start_times == [10, 20, 30]
        assert vertex.response_times == [3, 4, 6]

    def test_merge_leaves_parts_unchanged(self):
        folds = [fold_records([[r]]) for r in self.records()]
        before = [vars(fold.vertices["n/S"]).copy() for fold in folds]
        merged = dag_from_fold(merge_folds(folds))
        assert merged.vertex("n/S").exec_times == [1, 2, 5]
        assert [vars(fold.vertices["n/S"]) for fold in folds] == before


def record_loop_synthesis(cblists, split_services=True, model_sync=True):
    """Frozen oracle: the per-record loop :func:`synthesize_dag` ran
    before it folded records per key, kept verbatim."""
    dag = TimingDag()
    records = []
    for cblist in cblists:
        for record in cblist:
            key = vertex_key(record, split_services)
            records.append((key, record))
            vertex = DagVertex(
                key=key,
                node=record.node,
                cb_id=record.cb_id,
                cb_type=record.cb_type,
                intopic=record.intopic,
                outtopics=list(record.outtopics),
                is_sync_member=record.is_sync_subscriber,
                exec_times=list(record.exec_times),
                start_times=list(record.start_times),
                response_times=list(record.response_times),
            )
            if dag.has_vertex(key):
                existing = dag.vertex(key)
                existing.exec_times.extend(vertex.exec_times)
                existing.start_times.extend(vertex.start_times)
                existing.response_times.extend(vertex.response_times)
                for topic in vertex.outtopics:
                    if topic not in existing.outtopics:
                        existing.outtopics.append(topic)
            else:
                dag.add_vertex(vertex)
    sync_members = {}
    if model_sync:
        for key, record in records:
            if record.is_sync_subscriber:
                members = sync_members.setdefault(record.node, [])
                if key not in members:
                    members.append(key)
    junction_out = {}
    for node, members in sync_members.items():
        if len(members) < 2:
            continue
        jkey = junction_key(node)
        outtopics = []
        for member_key in members:
            for topic in dag.vertex(member_key).outtopics:
                if topic not in outtopics:
                    outtopics.append(topic)
        dag.add_vertex(
            DagVertex(
                key=jkey, node=node, cb_id=jkey, cb_type="and_junction",
                outtopics=outtopics,
            )
        )
        for member_key in members:
            dag.add_edge(member_key, jkey, topic="&")
        junction_out[jkey] = outtopics
    rerouted = {
        m for members in sync_members.values() if len(members) >= 2 for m in members
    }
    publishers = {}
    for key, record in records:
        if key in rerouted:
            continue
        for topic in record.outtopics:
            sources = publishers.setdefault(topic, [])
            if key not in sources:
                sources.append(key)
    for jkey, outtopics in junction_out.items():
        for topic in outtopics:
            sources = publishers.setdefault(topic, [])
            if jkey not in sources:
                sources.append(jkey)
    for key, record in records:
        intopic = record.intopic
        if intopic is None:
            continue
        sources = publishers.get(intopic, [])
        for src in sources:
            if src != key:
                dag.add_edge(src, key, topic=intopic)
        if len(set(sources) - {key}) > 1:
            dag.vertex(key).is_or_junction = True
    return dag


_names = st.sampled_from(["a", "b", "c"])
_topics = st.sampled_from(["/x", "/y", "/z", "/w"])
_times = st.lists(st.integers(min_value=0, max_value=99), max_size=3)


@st.composite
def _cblists(draw):
    """CBlists whose records repeat keys -- within a list, across lists
    and across callback types -- with random sync flags and topics."""
    cblists = []
    for pid in range(draw(st.integers(min_value=0, max_value=5))):
        node = draw(_names)
        cblists.append([
            CallbackRecord(
                pid=pid,
                node=node,
                cb_type=draw(st.sampled_from(["timer", "subscriber", "service"])),
                cb_id=draw(_names),
                intopic=draw(st.none() | _topics),
                outtopics=draw(st.lists(_topics, max_size=3, unique=True)),
                is_sync_subscriber=draw(st.booleans()),
                exec_times=draw(_times),
                start_times=draw(_times),
                response_times=draw(_times),
            )
            for _ in range(draw(st.integers(min_value=0, max_value=4)))
        ])
    return cblists


def _state(dag):
    return (
        [vars(vertex) for vertex in dag.vertices()],
        [vars(edge) for edge in dag.edges()],
    )


class TestFoldMatchesRecordLoop:
    @given(
        cblists=_cblists(),
        split_services=st.booleans(),
        model_sync=st.booleans(),
        cuts=st.lists(st.integers(min_value=0, max_value=5), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_insertion_order_and_fields(
        self, cblists, split_services, model_sync, cuts
    ):
        """synthesize_dag, and the folds of consecutive CBlist runs
        merged, give the oracle's DAG in its insertion order."""
        expected = _state(
            record_loop_synthesis(cblists, split_services, model_sync)
        )
        assert _state(
            synthesize_dag(cblists, split_services, model_sync)
        ) == expected
        bounds = [0, *sorted(min(cut, len(cblists)) for cut in cuts), len(cblists)]
        folds = [
            fold_records(cblists[lo:hi], split_services)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert _state(dag_from_fold(merge_folds(folds), model_sync)) == expected
        # The parts stay reusable: merging them again gives the same DAG.
        assert _state(dag_from_fold(merge_folds(folds), model_sync)) == expected
