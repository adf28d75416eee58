"""The benchmark's workloads: a stream of recorded runs kept modelled.

Every workload is the paper's collection-to-model pipeline driven by a
stream of arriving runs.  One *operation* is one arrival: the
``avp-interference`` deployment (AVP localization next to SYN load, the
Table II set-up) is simulated and traced for a few seconds, recorded as
a store segment, and the timing model over the newest ``window`` runs
is brought up to date and queried for the AVP chain latency.  Callers
wait for each arrival to finish before the next one starts (a closed
loop with one client).  The workloads differ in how the model is
maintained:

* ``record``: long runs, window of one run -- recording (simulation,
  probes, segment encoding) dominates;
* ``analyze``: short runs, window of 16 -- each arrival re-runs
  ``StoreAnalysis`` (store synthesis plus latency analysis) over the
  whole window, as ``repro analyze`` does;
* ``serve``: the same stream pushed to a live ``SynthesisService`` over
  TCP, which keeps the windowed model incrementally and answers
  ``model`` and ``latency`` queries, as ``repro record --push`` plus
  ``repro query`` do.

The seed fixes every simulation seed and each run's SYN load factor
(a stratified draw from the Table II sweep range, so every ``STRATA``
consecutive arrivals carry the same mix of loads), so a seed names the
inputs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.store import StoreAnalysis
from repro.core import export
from repro.core.merge import dag_from_merged_traces
from repro.experiments.batch import BatchConfig
from repro.service import ServiceClient, SynthesisService
from repro.sim.kernel import MSEC
from repro.store import TraceStore
from repro.store.record import RecordedRun, record_run, run_id_for
from repro.store.writer import segment_path

SCENARIO = "avp-interference"

#: The Table II SYN interference sweep, cut into equal strata.
SYN_LOAD_RANGE = (0.5, 2.5)
STRATA = 16

#: The AVP chain the latency query follows (front LIDAR to NDT input).
CHAIN_TOPICS = (
    "lidar_front/points_filtered",
    "lidars/points_fused",
    "lidars/points_fused_downsampled",
)

#: Fig. 3b: the AVP localization DAG every model must contain.
AVP_EDGES = frozenset({
    ("filter_transform_vlp16_front/cb2", "point_cloud_fusion/cb3",
     "lidar_front/points_filtered"),
    ("filter_transform_vlp16_rear/cb1", "point_cloud_fusion/cb4",
     "lidar_rear/points_filtered"),
    ("point_cloud_fusion/cb3", "point_cloud_fusion/&", "&"),
    ("point_cloud_fusion/cb4", "point_cloud_fusion/&", "&"),
    ("point_cloud_fusion/&", "voxel_grid_cloud_node/cb5", "lidars/points_fused"),
    ("voxel_grid_cloud_node/cb5", "p2d_ndt_localizer_node/cb6",
     "lidars/points_fused_downsampled"),
})
AVP_CALLBACKS = tuple(sorted(
    ({src for src, _, _ in AVP_EDGES} | {dst for _, dst, _ in AVP_EDGES})
    - {"point_cloud_fusion/&"}
))


@dataclass(frozen=True)
class Workload:
    name: str
    run_ms: int  # simulated length of one arriving run
    window: int  # runs the model covers
    live: bool  # maintained by the live service instead of batch analysis


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("record", run_ms=4000, window=1, live=False),
        Workload("analyze", run_ms=1000, window=16, live=False),
        Workload("serve", run_ms=1000, window=16, live=True),
    )
}


class CheckError(AssertionError):
    """A model or query answer the program got wrong."""


def check_model(model_json: str, latencies: int) -> None:
    """The model holds the AVP DAG with measured execution times, and
    the chain-latency query found journeys."""
    model = json.loads(model_json)
    edges = {(edge["src"], edge["dst"], edge["topic"]) for edge in model["edges"]}
    missing = AVP_EDGES - edges
    if missing:
        raise CheckError(f"model lacks AVP edges {sorted(missing)}")
    vertices = {vertex["key"]: vertex for vertex in model["vertices"]}
    for key in AVP_CALLBACKS:
        samples = vertices.get(key, {}).get("exec_times")
        if not samples or min(samples) <= 0:
            raise CheckError(f"{key} has no positive execution times")
    if latencies <= 0:
        raise CheckError(f"no latency instances over {' -> '.join(CHAIN_TOPICS)}")


class Pipeline:
    """One workload's stream: a recorder, a window of runs and the
    model over it, under ``directory``."""

    def __init__(self, workload: Workload, seed: int, directory: str):
        self.workload = workload
        self.directory = directory
        self.local = os.path.join(directory, "recorded")
        self.served = os.path.join(directory, "served")
        self._seed = seed
        self._rng = random.Random(seed)
        self.next_index = 0
        self.service: Optional[SynthesisService] = None
        self.client: Optional[ServiceClient] = None
        self._thread: Optional[threading.Thread] = None

    def _load(self, run_index: int) -> float:
        """Stratified draw: run ``i`` falls in stratum ``i % STRATA`` of
        the sweep, so any ``STRATA`` consecutive runs share one mix."""
        low, high = SYN_LOAD_RANGE
        stratum = run_index % STRATA + self._rng.random()
        return low + (high - low) * stratum / STRATA

    # -- set-up and teardown -----------------------------------------------

    def start(self) -> Tuple[RecordedRun, str, int]:
        """Bring the pipeline up: start the service (live workloads),
        record the first window of runs and produce the first model
        (returned as :meth:`arrive` returns it)."""
        os.makedirs(self.local)
        if self.workload.live:
            self.service = SynthesisService(
                self.served, retain_window=self.workload.window
            )
            ready = threading.Event()
            endpoints: List[str] = []

            def on_ready(endpoint: str) -> None:
                endpoints.append(endpoint)
                ready.set()

            self._thread = threading.Thread(
                target=self.service.serve_forever,
                args=("127.0.0.1:0",),
                kwargs={"ready": on_ready},
                name="perfbench-serve",
                daemon=True,
            )
            self._thread.start()
            if not ready.wait(timeout=30.0):
                raise RuntimeError("service did not start listening")
            self.client = ServiceClient(endpoints[0])
        for _ in range(self.workload.window - 1):
            self._record()
        return self.arrive()

    def stop(self) -> None:
        """Shut the service down and wait for its threads."""
        if self.service is not None:
            self.service.request_shutdown()
            self._thread.join(timeout=30.0)
            if self._thread.is_alive():
                raise RuntimeError("service thread did not stop")
            self.service = None
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- one arrival -----------------------------------------------------------

    def _record(self) -> RecordedRun:
        index = self.next_index
        self.next_index += 1
        load = self._load(index)
        config = BatchConfig(
            duration_ns=self.workload.run_ms * MSEC,
            base_seed=self._seed * 1_000_000,
            scenario_params={"syn_load_range": (load, load)},
        )
        endpoint = self.client.address if self.client is not None else None
        run = record_run(SCENARIO, index, 1, config, self.local, push_to=endpoint)
        if endpoint is not None:
            os.remove(run.path)  # pushed: the service store holds it
        else:
            stale = index - self.workload.window
            if stale >= 0:
                os.remove(segment_path(self.local, run_id_for(stale)))
        return run

    def arrive(self) -> Tuple[RecordedRun, str, int]:
        """Record the next run and refresh + query the model over the
        window; returns (the recorded run, model JSON, latency count)."""
        run = self._record()
        if self.client is not None:
            model_json = self.client.model("json")
            latencies = self.client.latency(list(CHAIN_TOPICS))["count"]
        else:
            analysis = StoreAnalysis(self.local)
            # Looked up on the module, so the layer trace's hook sees it.
            model_json = export.dag_to_json(analysis.dag, indent=2)
            latencies = len(analysis.chain_latencies(list(CHAIN_TOPICS)))
        return run, model_json, latencies

    # -- end-of-run check -------------------------------------------------

    def check_window(self, model_json: str) -> None:
        """The last model equals the in-memory pipeline's model over the
        same runs (merge the traces, then Alg. 1/2 + DAG synthesis)."""
        if self.client is not None:
            store = TraceStore(self.served)
            run_ids = self.client.status()["retained_runs"]
        else:
            store = TraceStore(self.local)
            run_ids = store.run_ids()
        expected_ids = [
            run_id_for(index)
            for index in range(self.next_index - self.workload.window, self.next_index)
        ]
        if run_ids != expected_ids:
            raise CheckError(f"window holds {run_ids}, expected {expected_ids}")
        reference = dag_from_merged_traces(store.load(run_id) for run_id in run_ids)
        if export.dag_to_json(reference, indent=2) != model_json:
            raise CheckError("model differs from the in-memory synthesis")
