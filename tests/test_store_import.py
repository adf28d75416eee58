"""gzip-JSON traces are an import format: a store that holds one
unconverted run gets one diagnosis at every entry point, and ``repro
convert`` is the one boundary that reads it."""

import dataclasses
import os
import shutil

import pytest

from repro.analysis import StoreAnalysis, latency_index_from_store
from repro.analysis.latency import LatencyIndex
from repro.cli import main
from repro.core import dag_to_json, format_exec_table, to_dot
from repro.core.pipeline import STRATEGY_MERGE_DAGS, STRATEGY_MERGE_TRACES
from repro.experiments.batch import BatchConfig
from repro.service import IngestError, LiveSynthesizer, SynthesisService
from repro.sim.kernel import SEC
from repro.store import (
    SEGMENT_SUFFIX,
    StoreFormatError,
    TraceStore,
    record_batch,
    synthesize_from_store,
)
from repro.tracing.storage import TRACE_SUFFIX, save_trace

#: The run left unconverted.
LEGACY = "run001"


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A 3-run ``syn`` store whose run001 is its gzip-JSON copy, and the
    store of the other two runs."""
    root = tmp_path_factory.mktemp("store_import")
    source = str(root / "source")
    record_batch("syn", runs=3, directory=source, config=BatchConfig(duration_ns=SEC))
    mixed, others = str(root / "mixed"), str(root / "others")
    shutil.copytree(source, mixed)
    shutil.copytree(source, others)
    os.remove(os.path.join(mixed, LEGACY + SEGMENT_SUFFIX))
    os.remove(os.path.join(others, LEGACY + SEGMENT_SUFFIX))
    save_trace(
        TraceStore(source).load(LEGACY),
        os.path.join(mixed, LEGACY + TRACE_SUFFIX),
    )
    return mixed, others


def _signature(dag):
    return dag_to_json(dag), to_dot(dag), format_exec_table(dag)


def _latency_slots(index):
    return {slot: getattr(index, slot) for slot in LatencyIndex.__slots__}


def _infos(store):
    """``run_infos`` without the paths, which name the directory."""
    return [dataclasses.replace(info, path="") for info in store.run_infos()]


#: Every library entry point that reads a store's runs, as a function of
#: the store handle, with the comparable form of its answer.
ENTRY_POINTS = {
    "merge_traces": lambda s: _signature(
        synthesize_from_store(s, strategy=STRATEGY_MERGE_TRACES)
    ),
    "merge_dags-jobs1": lambda s: _signature(
        synthesize_from_store(s, jobs=1, strategy=STRATEGY_MERGE_DAGS)
    ),
    "merge_dags-jobs2": lambda s: _signature(
        synthesize_from_store(s, jobs=2, strategy=STRATEGY_MERGE_DAGS)
    ),
    "analysis.dag": lambda s: _signature(StoreAnalysis(s).dag),
    "analysis.dag-merge_dags": lambda s: _signature(
        StoreAnalysis(s, strategy=STRATEGY_MERGE_DAGS).dag
    ),
    "analysis.chain_latencies": lambda s: StoreAnalysis(s).chain_latencies(["/t1"]),
    "latency_index_from_store": lambda s: _latency_slots(latency_index_from_store(s)),
    "run_infos": _infos,
}


class TestUnconvertedRunDiagnosis:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_strict_names_the_file_and_convert(self, stores, entry):
        mixed, _ = stores
        with pytest.raises(StoreFormatError, match="repro convert") as excinfo:
            ENTRY_POINTS[entry](TraceStore(mixed))
        assert os.path.join(mixed, LEGACY + TRACE_SUFFIX) in str(excinfo.value)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_lenient_equals_the_other_runs(self, stores, entry):
        mixed, others = stores
        with pytest.warns(RuntimeWarning, match=LEGACY):
            lenient = ENTRY_POINTS[entry](TraceStore(mixed, strict=False))
        assert lenient == ENTRY_POINTS[entry](TraceStore(others))

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{store}"],
            ["synthesize", "{store}"],
            ["synthesize", "{store}", "--strategy", "merge-dags", "--jobs", "2"],
            ["store-info", "{store}"],
            ["diff", "{store}", "{store}"],
        ],
        ids=["analyze", "synthesize", "synthesize-merge-dags", "store-info", "diff"],
    )
    def test_cli_exits_2_with_the_diagnosis(self, stores, capsys, argv):
        mixed, _ = stores
        assert main([arg.format(store=mixed) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert os.path.join(mixed, LEGACY + TRACE_SUFFIX) in err
        assert "repro convert" in err

    def test_live_refresh_rejects_and_keeps_the_model(self, stores, tmp_path):
        mixed, _ = stores
        target = str(tmp_path / "live")
        live = LiveSynthesizer(TraceStore.create(target))
        shutil.copy(os.path.join(mixed, "run000" + SEGMENT_SUFFIX), target)
        assert live.refresh() == ["run000"]
        before = _signature(live.model())
        shutil.copy(os.path.join(mixed, LEGACY + TRACE_SUFFIX), target)
        live.store.refresh()
        with pytest.raises(StoreFormatError, match="repro convert"):
            live.ingest(LEGACY)
        assert live.refresh() == []
        assert live.counters.segments_rejected == 1
        assert live.run_ids == ["run000"]
        assert _signature(live.model()) == before

    def test_service_push_is_an_ingest_error(self, stores, tmp_path):
        mixed, _ = stores
        with open(os.path.join(mixed, LEGACY + TRACE_SUFFIX), "rb") as handle:
            data = handle.read()
        directory = str(tmp_path / "served")
        service = SynthesisService(directory)
        with pytest.raises(IngestError, match="gzip-JSON.*repro convert"):
            service.ingest_bytes(LEGACY, data)
        assert os.listdir(directory) == []
        assert service.counters.segments_rejected == 1
