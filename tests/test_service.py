"""Live synthesis service: incremental maintenance + ingestion pins.

The service's core contract: a :class:`LiveSynthesizer` fed stored
segments one at a time -- in run order or in shuffled arrival orders --
is byte-identical (DAG JSON, exec tables, golden DOT) to a from-scratch
``synthesize_from_store`` over the same committed runs at *every*
commit point, for every registry scenario; with a retention window, it
matches the batch synthesis of the truncated store.  Plus the ingestion
edge: validation, atomic commits, drop-dir hold-then-reject, store
refresh against a second writer process, and the spool's atomic
``finish_path``; and the protocol edge: mistyped or failing requests
are answered over the socket instead of dropping the client.
"""

import os
import random
import shutil
import subprocess
import sys
import threading
import zlib

import pytest

from repro.core import dag_to_json, format_exec_table, to_dot
from repro.experiments.batch import BatchConfig
from repro.scenarios import scenario_names
from repro.sim.kernel import SEC
from repro.store import TraceStore, record_batch, synthesize_from_store
from repro.store.format import SEGMENT_SUFFIX
from repro.store.writer import SegmentSpool
from repro.service import (
    DropDirWatcher,
    IngestError,
    IngestSpool,
    LiveSynthesizer,
    ServiceCounters,
    SynthesisService,
)
from repro.service.protocol import connect, recv_message, send_message

DURATION_NS = int(1.0 * SEC)
RUNS = 3


def _signature(dag):
    """The three byte-level renderings the equivalence contract pins."""
    return dag_to_json(dag), format_exec_table(dag), to_dot(dag)


def _arrival_orders(name, run_ids):
    """The arrival orders exercised per scenario: run order plus a
    deterministic per-scenario shuffle forced to differ from it
    (crc32-seeded -- ``hash()`` is salted across interpreters)."""
    in_order = sorted(run_ids)
    rng = random.Random(zlib.crc32(name.encode()))
    shuffled = list(in_order)
    while shuffled == in_order:
        rng.shuffle(shuffled)
    return [in_order, shuffled]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """One recorded source store per registry scenario; tests copy its
    segment files into fresh target stores to simulate arrivals."""
    root = tmp_path_factory.mktemp("service_sources")
    result = {}
    for name in scenario_names():
        directory = str(root / name)
        record_batch(
            name, runs=RUNS, directory=directory,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        result[name] = directory
    return result


def _deliver(source_dir, target_dir, run_id):
    """One segment 'arrives': its file appears in the target store."""
    name = run_id + SEGMENT_SUFFIX
    shutil.copy(os.path.join(source_dir, name), os.path.join(target_dir, name))


class TestIncrementalEquivalence:
    """Incremental == batch, byte for byte, at every commit point."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_commit_point_matches_batch(self, sources, name, tmp_path):
        run_ids = sorted(TraceStore(sources[name]).run_ids())
        for case, order in enumerate(_arrival_orders(name, run_ids)):
            target = str(tmp_path / f"order{case}")
            live = LiveSynthesizer(TraceStore.create(target))
            for run_id in order:
                _deliver(sources[name], target, run_id)
                assert live.refresh() == [run_id]
                batch = synthesize_from_store(TraceStore(target), jobs=1)
                assert _signature(live.model()) == _signature(batch), (
                    name, order, run_id,
                )

    def test_in_order_arrivals_never_rebuild(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "inorder")
        counters = ServiceCounters()
        live = LiveSynthesizer(TraceStore.create(target), counters=counters)
        for run_id in sorted(TraceStore(source).run_ids()):
            _deliver(source, target, run_id)
            live.refresh()
        assert counters.extends == RUNS
        assert counters.rebuilds == 0
        assert counters.segments_ingested == RUNS
        assert counters.events_indexed > 0

    def test_out_of_order_arrival_rebuilds(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "ooo")
        counters = ServiceCounters()
        live = LiveSynthesizer(TraceStore.create(target), counters=counters)
        for run_id in ["run001", "run000", "run002"]:
            _deliver(source, target, run_id)
            live.refresh()
        assert counters.rebuilds >= 1
        batch = synthesize_from_store(TraceStore(target), jobs=1)
        assert _signature(live.model()) == _signature(batch)

    def test_ingest_rejects_duplicates_and_unknown_runs(self, sources, tmp_path):
        source = sources["syn"]
        target = str(tmp_path / "dup")
        live = LiveSynthesizer(TraceStore.create(target))
        _deliver(source, target, "run000")
        live.refresh()
        with pytest.raises(ValueError, match="already ingested"):
            live.ingest("run000")
        with pytest.raises(ValueError, match="not in store"):
            live.ingest("run999")

    def test_retain_window_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retain_window"):
            LiveSynthesizer(
                TraceStore.create(str(tmp_path / "s")), retain_window=0
            )


class TestEvictionWindow:
    """retain_window=N == batch synthesis of the N newest runs."""

    def test_eviction_matches_truncated_batch_store(self, sources, tmp_path):
        source = sources["syn"]
        run_ids = sorted(TraceStore(source).run_ids())
        target = str(tmp_path / "window")
        counters = ServiceCounters()
        live = LiveSynthesizer(
            TraceStore.create(target), retain_window=2, counters=counters
        )
        for arrived, run_id in enumerate(run_ids, start=1):
            _deliver(source, target, run_id)
            live.refresh()
            retained = run_ids[max(0, arrived - 2):arrived]
            assert live.run_ids == retained
            # The reference store holds exactly the retained runs.
            truncated = str(tmp_path / f"window_ref{arrived}")
            os.makedirs(truncated)
            for keep in retained:
                _deliver(source, truncated, keep)
            batch = synthesize_from_store(TraceStore(truncated), jobs=1)
            assert _signature(live.model()) == _signature(batch), run_id
        assert counters.runs_evicted == 1
        assert counters.rows_evicted > 0
        # The evicted run's file stays on disk and is never re-ingested.
        assert "run000" in TraceStore(target)
        assert live.refresh() == []
        assert live.run_ids == run_ids[-2:]


class TestIngestSpool:
    """Validation and atomic commits of externally produced segments."""

    @pytest.fixture()
    def blob(self, sources):
        path = TraceStore(sources["syn"]).path_of("run000")
        with open(path, "rb") as handle:
            return handle.read()

    def test_commit_lands_and_is_readable(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        result = spool.commit_bytes("pushed", blob)
        assert result.run_id == "pushed"
        assert result.events > 0
        assert result.bytes_written == len(blob)
        assert "pushed" in store
        assert store.open("pushed").ros_ts_range() is not None
        assert spool.committed == 1

    def test_rejects_garbage_truncation_and_bad_magic(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        with pytest.raises(IngestError, match="truncated"):
            spool.validate_bytes("r", b"not a segment")
        with pytest.raises(IngestError):
            spool.validate_bytes("r", b"XXXX" + blob[4:])
        with pytest.raises(IngestError):
            spool.validate_bytes("r", blob[: len(blob) // 2])
        assert "r" not in store

    def test_rejects_duplicates_and_path_escaping_run_ids(self, blob, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        spool = IngestSpool(store)
        spool.commit_bytes("run000", blob)
        with pytest.raises(IngestError, match="already stored"):
            spool.commit_bytes("run000", blob)
        for bad in ("../evil", "a/b", "", ".hidden"):
            with pytest.raises(IngestError, match="invalid run id"):
                spool.validate_bytes(bad, blob)

    def test_failed_commits_leave_no_staging_files(self, blob, tmp_path):
        directory = str(tmp_path / "s")
        store = TraceStore.create(directory)
        spool = IngestSpool(store)
        with pytest.raises(IngestError):
            spool.commit_bytes("bad", blob[:100])
        spool.commit_bytes("good", blob)
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []
        assert sorted(store.run_ids()) == ["good"]


class TestDropDirWatcher:
    """Drop-dir files are held one stable poll before rejection."""

    def test_partial_file_held_then_rejected(self, sources, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        drop = str(tmp_path / "drop")
        rejections = []
        watcher = DropDirWatcher(
            IngestSpool(store), drop,
            on_reject=lambda run_id, error: rejections.append(run_id),
        )
        with open(TraceStore(sources["syn"]).path_of("run000"), "rb") as handle:
            blob = handle.read()
        partial = os.path.join(drop, "part" + SEGMENT_SUFFIX)
        with open(partial, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        # First poll: invalid but possibly still being written -- held.
        assert watcher.poll() == []
        assert watcher.rejected == 0 and os.path.exists(partial)
        # Second poll, bytes unchanged: rejected and renamed aside.
        assert watcher.poll() == []
        assert watcher.rejected == 1
        assert rejections == ["part"]
        assert not os.path.exists(partial)
        assert os.path.exists(partial + ".rejected")
        # A valid drop commits and its source is removed.
        whole = os.path.join(drop, "whole" + SEGMENT_SUFFIX)
        with open(whole, "wb") as handle:
            handle.write(blob)
        results = watcher.poll()
        assert [r.run_id for r in results] == ["whole"]
        assert not os.path.exists(whole)
        assert "whole" in store

    def test_growing_file_is_not_rejected(self, sources, tmp_path):
        store = TraceStore.create(str(tmp_path / "s"))
        drop = str(tmp_path / "drop")
        watcher = DropDirWatcher(IngestSpool(store), drop)
        with open(TraceStore(sources["syn"]).path_of("run000"), "rb") as handle:
            blob = handle.read()
        path = os.path.join(drop, "slow" + SEGMENT_SUFFIX)
        with open(path, "wb") as handle:
            handle.write(blob[:100])
        assert watcher.poll() == []
        with open(path, "ab") as handle:  # the producer keeps writing
            handle.write(blob[100 : len(blob) // 2])
        assert watcher.poll() == []
        assert watcher.rejected == 0
        with open(path, "wb") as handle:
            handle.write(blob)
        assert [r.run_id for r in watcher.poll()] == ["slow"]
        assert watcher.rejected == 0


class TestStoreRefresh:
    """TraceStore.refresh picks up runs a second process committed."""

    def test_refresh_sees_second_writer_process(self, tmp_path):
        directory = str(tmp_path / "shared")
        store = TraceStore.create(directory)
        assert store.run_ids() == []
        subprocess.run(
            [sys.executable, "-m", "repro", "record", "syn",
             "--runs", "2", "--duration", "1", "--out", directory],
            check=True, capture_output=True,
        )
        # The handle predates the writes; refresh reconciles it.
        assert store.run_ids() == []
        assert store.refresh() == ["run000", "run001"]
        assert store.refresh() == []
        assert store.run_ids() == ["run000", "run001"]
        assert store.open("run001").ros_ts_range() is not None

    def test_refresh_is_incremental(self, sources, tmp_path):
        directory = str(tmp_path / "inc")
        store = TraceStore.create(directory)
        _deliver(sources["syn"], directory, "run000")
        assert store.refresh() == ["run000"]
        _deliver(sources["syn"], directory, "run001")
        _deliver(sources["syn"], directory, "run002")
        assert store.refresh() == ["run001", "run002"]


class TestFinishPathAtomicity:
    """The recorder's spool commit is tmp-file + rename."""

    def test_failed_finish_leaves_nothing(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        path = os.path.join(directory, "run000" + SEGMENT_SUFFIX)
        spool = SegmentSpool()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(SegmentSpool, "finish", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            spool.finish_path(path, {}, 0, 1)
        assert os.listdir(directory) == []

    def test_successful_finish_leaves_only_the_segment(self, tmp_path):
        directory = str(tmp_path / "s")
        os.makedirs(directory)
        path = os.path.join(directory, "run000" + SEGMENT_SUFFIX)
        written = SegmentSpool().finish_path(path, {}, 0, 1)
        assert written > 0
        assert os.listdir(directory) == ["run000" + SEGMENT_SUFFIX]


class TestProtocolEdge:
    """Malformed or failing requests over a real socket: every request
    gets an answer, and the client's connection survives it."""

    @pytest.fixture()
    def served(self, tmp_path):
        service = SynthesisService(
            str(tmp_path / "served"), poll_interval=0.05
        )
        bound = threading.Event()
        address = []

        def ready(where):
            address.append(where)
            bound.set()

        thread = threading.Thread(
            target=service.serve_forever,
            args=("127.0.0.1:0",),
            kwargs={"ready": ready, "max_seconds": 60.0},
            daemon=True,
        )
        thread.start()
        assert bound.wait(10.0), "service never bound"
        sock = connect(address[0], timeout=10.0)
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")

        def exchange(payload):
            send_message(wfile, payload)
            message = recv_message(rfile)
            assert message is not None, f"no reply to {payload!r}"
            return message[0]

        try:
            yield service, exchange
        finally:
            sock.close()
            service.request_shutdown()
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"cmd": "latency", "topics": 5}, "topics"),
            ({"cmd": "chains", "sources": 7}, "sources"),
            ({"cmd": "chains", "sinks": ["/t1", 3]}, "sinks"),
        ],
    )
    def test_mistyped_fields_get_a_value_error_reply(
        self, served, payload, field
    ):
        service, exchange = served
        reply = exchange(payload)
        assert reply["ok"] is False
        assert f"{field} must be a list of strings" in reply["error"]
        assert "kind" not in reply
        assert exchange({"cmd": "ping"}) == {"ok": True, "pong": True}
        assert service.counters.internal_errors == 0

    def test_unexpected_failure_gets_an_internal_reply(self, served):
        service, exchange = served

        def broken_state():
            raise TypeError("snapshot exploded")

        service.state = broken_state
        reply = exchange({"cmd": "status"})
        assert reply["ok"] is False
        assert reply["kind"] == "internal"
        assert "snapshot exploded" in reply["error"]
        assert service.counters.internal_errors == 1
        assert exchange({"cmd": "ping"}) == {"ok": True, "pong": True}
