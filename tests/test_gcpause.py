"""The cyclic collector is paused over bulk builds, and builds own no
reference cycles.

The helper tests pin :class:`paused_gc`'s contract (nesting,
exceptions, a collector the caller switched off, overlapping pauses on
two threads, a fork inside a pause).  The gates count collections with
``gc.callbacks`` inside the build entry points on a 16-run, 1 s
``avp-interference`` store -- a count, not a timing, so they are
deterministic -- and check that a dropped analysis leaves no cyclic
garbage behind.
"""

import gc
import os
import threading

import pytest

from repro.analysis import store as analysis_store
from repro.analysis.fragments import FragmentCache
from repro.analysis.store import StoreAnalysis
from repro.core.gcpause import paused_gc
from repro.experiments.batch import BatchConfig
from repro.service.live import LiveSynthesizer
from repro.sim.kernel import SEC
from repro.store import TraceStore
from repro.store.record import record_batch, record_run

#: The AVP chain the benchmark's latency query follows.
TOPICS = [
    "lidar_front/points_filtered",
    "lidars/points_fused",
    "lidars/points_fused_downsampled",
]


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts and ends with the collector enabled."""
    assert gc.isenabled()
    yield
    gc.enable()


class TestPausedGC:
    def test_nested_pauses_enable_once_at_the_outermost_exit(self):
        with paused_gc():
            assert not gc.isenabled()
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_decorator_pauses_the_call(self):
        @paused_gc()
        def inside():
            return gc.isenabled()

        assert inside() is False
        assert inside() is False  # reusable
        assert gc.isenabled()

    def test_exception_inside_a_pause_re_enables(self):
        with pytest.raises(RuntimeError, match="boom"):
            with paused_gc():
                with paused_gc():
                    raise RuntimeError("boom")
        assert gc.isenabled()

    def test_collector_disabled_by_the_caller_stays_disabled(self):
        gc.disable()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_overlapping_pauses_on_two_threads(self):
        entered = threading.Event()
        release = threading.Event()
        seen = []

        def other():
            with paused_gc():
                entered.set()
                release.wait(timeout=10)
            seen.append(gc.isenabled())

        thread = threading.Thread(target=other)
        thread.start()
        assert entered.wait(timeout=10)
        with paused_gc():
            release.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            # The other thread's pause ended inside this one.
            assert seen == [False]
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_inside_a_pause_starts_enabled(self):
        read_end, write_end = os.pipe()
        with paused_gc():
            pid = os.fork()
            if pid == 0:  # child: report, then leave without cleanup
                try:
                    enabled = gc.isenabled()
                    with paused_gc():
                        enabled = enabled and not gc.isenabled()
                    enabled = enabled and gc.isenabled()
                    os.write(write_end, b"1" if enabled else b"0")
                finally:
                    os._exit(0)
            os.close(write_end)
            assert not gc.isenabled()
        with os.fdopen(read_end, "rb") as pipe:
            answer = pipe.read()
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert answer == b"1"
        assert gc.isenabled()


# ---------------------------------------------------------------------------
# Gates: no collection inside a bulk build, no cycles left behind
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def avp_store(tmp_path_factory):
    """16 runs of 1 s ``avp-interference``: the benchmark's analyze
    window."""
    directory = str(tmp_path_factory.mktemp("gc") / "avp")
    record_batch(
        "avp-interference", 16, directory, config=BatchConfig(duration_ns=SEC)
    )
    return directory


@pytest.fixture
def fresh_cache(monkeypatch):
    """A fresh fragment cache in place of the process-wide one."""
    cache = FragmentCache()
    monkeypatch.setattr(analysis_store, "FRAGMENTS", cache)
    return cache


def _collections(action):
    """``action()``'s result and the collections that ran inside it,
    counted from a fresh gen0 (so none is due on entry)."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = action()
    finally:
        gc.callbacks.remove(count)
    return result, starts


class TestBulkBuildsAreGCQuiet:
    def test_store_analysis(self, avp_store):
        analysis = StoreAnalysis(avp_store)
        dag, starts = _collections(lambda: analysis.dag)
        assert dag.vertices and starts == []
        latencies, starts = _collections(
            lambda: analysis.chain_latencies(TOPICS)
        )
        assert latencies and starts == []

    def test_cached_store_analysis(self, avp_store, fresh_cache):
        """The second handle over a window, which builds every run's
        fragment, and the third, whose runs' fragments are all cached,
        build without a collection too."""
        StoreAnalysis(avp_store).dag  # the first handle builds in batch
        for held in (0, 16):
            assert len(fresh_cache) == held
            analysis = StoreAnalysis(avp_store)
            dag, starts = _collections(lambda: analysis.dag)
            assert dag.vertices and starts == []
            latencies, starts = _collections(
                lambda: analysis.chain_latencies(TOPICS)
            )
            assert latencies and starts == []

    def test_live_ingest_and_model(self, avp_store):
        live = LiveSynthesizer(TraceStore(avp_store), retain_window=16)
        ingested, starts = _collections(live.refresh)
        assert len(ingested) == 16 and starts == []
        dag, starts = _collections(live.model)
        assert dag.vertices and starts == []

    def test_record_run(self, tmp_path):
        config = BatchConfig(duration_ns=SEC)
        run, starts = _collections(
            lambda: record_run("avp-interference", 0, 1, config, str(tmp_path))
        )
        assert run.ros_events and starts == []

    def test_finished_record_run_leaves_no_cyclic_garbage(self, tmp_path):
        """The recorded world is torn down after its segment is written:
        with the collector off, nothing of it is left in a cycle."""
        config = BatchConfig(duration_ns=SEC)
        record_run("avp-interference", 0, 1, config, str(tmp_path / "warm"))
        gc.collect()
        gc.disable()
        record_run("avp-interference", 0, 1, config, str(tmp_path))
        assert gc.collect() == 0

    def test_dropped_analysis_leaves_no_cyclic_garbage(self, avp_store):
        """With the collector off throughout, whatever a build leaves
        in a reference cycle stays uncollected until the explicit
        ``gc.collect()``: it must find nothing."""
        gc.collect()
        gc.disable()
        analysis = StoreAnalysis(avp_store)
        assert analysis.dag.vertices
        assert analysis.chain_latencies(TOPICS)
        assert analysis.communication_latencies(TOPICS[0])
        del analysis
        assert gc.collect() == 0

    def test_cached_build_leaves_no_cyclic_garbage(self, avp_store, fresh_cache):
        """The build that fills the fragment cache, a build from cached
        fragments, and the fragments the cache keeps make no reference
        cycle."""
        StoreAnalysis(avp_store).dag  # the first handle builds in batch
        gc.collect()
        gc.disable()
        for held in (0, 16):
            assert len(fresh_cache) == held
            analysis = StoreAnalysis(avp_store)
            assert analysis.dag.vertices
            assert analysis.chain_latencies(TOPICS)
            assert gc.collect() == 0
            del analysis
            assert gc.collect() == 0
