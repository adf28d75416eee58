"""Live synthesis service end to end: in-process and via the CLI.

Drives a real :class:`SynthesisService` over a socket -- pushes
recorded segments with :class:`ServiceClient` and through the
``serve`` / ``record --push`` / ``ingest`` / ``query`` subcommands in
separate processes -- and pins the served model byte-identical to the
batch pipeline over the same store.  Also covers ``store-info --watch``
re-printing under a concurrent writer.
"""

import json
import os
import re
import subprocess
import sys
import threading

import pytest

from repro.core import to_dot
from repro.experiments.batch import BatchConfig
from repro.sim.kernel import SEC
from repro.store import TraceStore, record_batch, synthesize_from_store
from repro.service import ServiceClient, ServiceError, SynthesisService

DURATION_NS = int(1.0 * SEC)
RUNS = 3


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """Recorded segments the service tests push around."""
    directory = str(tmp_path_factory.mktemp("service_cli") / "source")
    record_batch(
        "syn", runs=RUNS, directory=directory,
        config=BatchConfig(duration_ns=DURATION_NS),
    )
    return directory


def _segment_bytes(source, run_id):
    with open(TraceStore(source).path_of(run_id), "rb") as handle:
        return handle.read()


class _RunningService:
    """A SynthesisService served from a thread on an ephemeral port."""

    def __init__(self, directory, **kwargs):
        self.service = SynthesisService(directory, **kwargs)
        self._bound = threading.Event()
        self.address = None

        def ready(bound):
            self.address = bound
            self._bound.set()

        self.thread = threading.Thread(
            target=self.service.serve_forever,
            args=("127.0.0.1:0",),
            kwargs={"ready": ready, "max_seconds": 60.0},
            daemon=True,
        )
        self.thread.start()
        assert self._bound.wait(10.0), "service never bound"

    def stop(self):
        ServiceClient(self.address).shutdown()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()


@pytest.mark.stress
class TestServiceEndToEnd:
    """Socket pushes + drop-dir arrivals -> queries, one live service."""

    def test_push_query_and_shutdown(self, source, tmp_path):
        directory = str(tmp_path / "served")
        drop = str(tmp_path / "drop")
        running = _RunningService(
            directory, drop_dir=drop, poll_interval=0.05
        )
        client = ServiceClient(running.address)
        try:
            assert client.ping()
            # Two runs arrive over the socket...
            for run_id in ("run000", "run001"):
                result = client.push_segment(
                    run_id, _segment_bytes(source, run_id)
                )
                assert result["run_id"] == run_id
                assert result["events"] > 0
            # ...and one through the drop directory.
            blob = _segment_bytes(source, "run002")
            staging = os.path.join(drop, "run002.trace.bin.part")
            with open(staging, "wb") as handle:
                handle.write(blob)
            os.replace(staging, os.path.join(drop, "run002.trace.bin"))
            deadline = threading.Event()
            for _ in range(200):
                if client.status()["counters"]["segments_ingested"] == 3:
                    break
                deadline.wait(0.05)
            status = client.status()
            assert status["retained_runs"] == ["run000", "run001", "run002"]
            assert status["counters"]["segments_ingested"] == 3
            assert status["counters"]["walk_fragments_built"] == 3

            # The served model is the batch pipeline's, byte for byte,
            # merged from the runs' fragments.
            batch = synthesize_from_store(TraceStore(directory), jobs=1)
            assert client.model("dot") == to_dot(batch)
            assert client.status()["counters"]["rebuilds"] == 0

            chains = client.chains()
            assert chains and all(chain for chain in chains)
            latency = client.latency(["/t1"])
            assert latency["count"] > 0 and latency["min_ns"] > 0
            info = client.store_info()
            assert [run["run_id"] for run in info["runs"]] == [
                "run000", "run001", "run002",
            ]
            assert info["total_events"] > 0

            # Rejections: a duplicate run and garbage bytes.
            with pytest.raises(ServiceError, match="already stored"):
                client.push_segment("run000", _segment_bytes(source, "run000"))
            with pytest.raises(ServiceError, match="truncated"):
                client.push_segment("junk", b"definitely not a segment")
            assert client.status()["counters"]["segments_rejected"] == 2
        finally:
            running.stop()

    def test_service_catches_up_on_existing_store(self, source, tmp_path):
        # A service over an already-populated store serves it at once.
        running = _RunningService(source)
        client = ServiceClient(running.address)
        try:
            status = client.status()
            assert status["counters"]["segments_ingested"] == RUNS
            batch = synthesize_from_store(TraceStore(source), jobs=1)
            assert client.model("dot") == to_dot(batch)
        finally:
            running.stop()

    def test_retain_window_over_the_wire(self, source, tmp_path):
        directory = str(tmp_path / "window")
        running = _RunningService(directory, retain_window=2)
        client = ServiceClient(running.address)
        try:
            for run_id in ("run000", "run001", "run002"):
                client.push_segment(run_id, _segment_bytes(source, run_id))
            status = client.status()
            assert status["retained_runs"] == ["run001", "run002"]
            assert status["counters"]["runs_evicted"] == 1
            truncated = str(tmp_path / "truncated")
            os.makedirs(truncated)
            for run_id in ("run001", "run002"):
                with open(
                    os.path.join(truncated, run_id + ".trace.bin"), "wb"
                ) as handle:
                    handle.write(_segment_bytes(source, run_id))
            batch = synthesize_from_store(TraceStore(truncated), jobs=1)
            assert client.model("dot") == to_dot(batch)
        finally:
            running.stop()


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, **kwargs,
    )


@pytest.fixture()
def served_cli(tmp_path):
    """`repro serve` in a real subprocess on an ephemeral port."""
    directory = str(tmp_path / "cli_store")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", directory,
         "--socket", "127.0.0.1:0", "--poll-interval", "0.1",
         "--max-seconds", "120"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    address = None
    for _ in range(200):
        line = process.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on (\S+)", line)
        if match:
            address = match.group(1)
            break
    assert address, "serve never reported its address"
    drain = threading.Thread(target=process.stdout.read, daemon=True)
    drain.start()
    yield directory, address, process
    if process.poll() is None:
        _cli("query", address, "shutdown")
        process.wait(timeout=15)


class TestServeLoop:
    def test_finished_client_threads_are_pruned(self, tmp_path):
        """One thread serves each connection; the accept loop keeps only
        the live ones, so 200 pings do not pile up 200 threads."""
        running = _RunningService(str(tmp_path / "served"))
        client = ServiceClient(running.address)
        try:
            for _ in range(200):
                assert client.ping()
            retained = running.service._clients
            idle = threading.Event()
            for _ in range(200):  # the loop turns at least every 0.2 s
                if not retained:
                    break
                idle.wait(0.05)
            assert retained == []
        finally:
            running.stop()


class TestServiceCli:
    """serve / record --push / ingest / query as real processes."""

    @pytest.mark.stress
    def test_record_push_query_roundtrip(self, served_cli, tmp_path):
        directory, address, process = served_cli
        pinged = _cli("query", address, "ping")
        assert pinged.returncode == 0 and "pong" in pinged.stdout

        # Push-only recording: no --out, segments stream to the service.
        recorded = _cli(
            "record", "syn", "--runs", "2", "--duration", "1",
            "--push", address,
        )
        assert recorded.returncode == 0, recorded.stdout + recorded.stderr
        assert "pushed 2 segment(s)" in recorded.stdout

        status = _cli("query", address, "status")
        assert status.returncode == 0
        payload = json.loads(status.stdout)
        assert payload["counters"]["segments_ingested"] == 2
        assert payload["retained_runs"] == ["run000", "run001"]

        # A separately recorded segment goes up via `repro ingest`.
        extra = str(tmp_path / "extra")
        record_batch(
            "syn", runs=3, directory=extra,
            config=BatchConfig(duration_ns=DURATION_NS),
        )
        ingested = _cli(
            "ingest", address, os.path.join(extra, "run002.trace.bin"),
        )
        assert ingested.returncode == 0, ingested.stdout + ingested.stderr
        assert "pushed run002" in ingested.stdout
        duplicate = _cli(
            "ingest", address, os.path.join(extra, "run002.trace.bin"),
        )
        assert duplicate.returncode == 2
        assert "already stored" in duplicate.stderr

        # The served DOT equals the batch pipeline over the same store.
        out = str(tmp_path / "live.dot")
        queried = _cli("query", address, "model", "--format", "dot",
                       "--out", out)
        assert queried.returncode == 0
        with open(out) as handle:
            served_dot = handle.read()
        assert served_dot == to_dot(
            synthesize_from_store(TraceStore(directory), jobs=1)
        )

        chains = _cli("query", address, "chains")
        assert chains.returncode == 0 and "->" in chains.stdout
        latency = _cli("query", address, "latency", "--topics", "/t1")
        assert latency.returncode == 0
        assert json.loads(latency.stdout)["count"] > 0

        shutdown = _cli("query", address, "shutdown")
        assert shutdown.returncode == 0
        assert process.wait(timeout=15) == 0

    def test_record_needs_out_or_push(self):
        result = _cli("record", "syn", "--runs", "1", "--duration", "1")
        assert result.returncode == 2
        assert "--out and/or --push" in result.stderr

    def test_query_errors_cleanly_when_service_is_gone(self):
        result = _cli("query", "127.0.0.1:1", "status")
        assert result.returncode == 2
        assert result.stderr.startswith("error:")


class TestStoreInfoWatch:
    """store-info --watch re-prints as a second process writes."""

    @pytest.mark.stress
    def test_watch_reprints_on_growth(self, tmp_path):
        directory = str(tmp_path / "watched")
        os.makedirs(directory)
        watch = subprocess.Popen(
            [sys.executable, "-m", "repro", "store-info", directory,
             "--watch", "--interval", "0.1", "--watch-count", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        # Kills a hung watcher, which ends the blocking reads below.
        watchdog = threading.Timer(90, watch.kill)
        watchdog.start()
        try:
            # The writer starts only once the empty store is listed (the
            # watcher flushes every listing): a run committed before the
            # watcher's first scan would be its first listing, and the
            # second change it waits for would never come.
            out = ""
            while "0 run(s)" not in out:
                line = watch.stdout.readline()
                assert line, f"watcher ended before its first listing: {out!r}"
                out += line
            writer = subprocess.Popen(
                [sys.executable, "-m", "repro", "record", "syn",
                 "--runs", "1", "--duration", "1", "--out", directory],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            assert writer.wait(timeout=90) == 0
            out += watch.stdout.read()
            assert watch.wait(timeout=90) == 0
        finally:
            watchdog.cancel()
            if watch.poll() is None:
                watch.kill()
            watch.stdout.close()
        assert out.count("trace store") == 2
        assert "0 run(s)" in out and "1 run(s)" in out
        # The watcher never lists an in-flight staging file.
        assert ".tmp" not in out
