"""Micro + macro performance benchmarks behind ``repro perf``.

Six benchmarks, each reporting wall-clock and a derived throughput:

* **synthesis micro** -- trace -> DAG synthesis on a merged multi-run
  trace (Sec. V strategy 1, the O(P·N) pathology the one-pass trace
  index, ``StoreTraceIndex``, removes) and on a single-run trace,
  measured against the frozen pre-change pipeline in
  :mod:`repro._legacy`;
* **sim micro** -- full-stack traced simulation events/sec, new kernel /
  scheduler / tracer stack vs the frozen ``repro._legacy`` stack
  (conservative: layers shared by both stacks carry this PR's
  optimizations too);
* **Table II macro** -- wall-clock of the reduced-scale Table II batch
  (``run_batch`` of ``avp-interference``).  When ``baseline_src`` points
  at a pre-change checkout's ``src`` directory, the identical workload
  is timed in a subprocess against that tree -- the honest
  pre-change-code comparison recorded in ``BENCH_2.json``;
* **jobs scaling macro** -- ``run_batch --jobs`` parallel efficiency;
* **store** -- the binary trace store: segment encode/decode MB and
  Mev/s against the legacy gzip-JSON storage, plus store-backed
  synthesis (``synthesize_from_store``) overhead against the inline
  pipeline.  Segments are written in the only format the writer emits
  (v3, per-section compression), and a ``selective_read`` sub-section
  reports how few section bytes that layout inflates for partial reads
  (Alg. 1 walk only, sched/wakeup analysis only, PID subsets) via the
  readers' ``bytes_inflated`` counter;
* **service ingest** -- the live synthesis service's incremental
  maintenance: segments committed one at a time into a
  :class:`~repro.service.live.LiveSynthesizer` (one run walked into
  its fragment + model per commit) against re-running a from-scratch
  ``synthesize_from_store`` at every commit point -- the win the
  ``repro serve`` worker banks on every arrival.

Speedup ratios (new vs frozen legacy, measured in the same process) are
machine-independent and are what the CI regression gate compares;
absolute events/sec document the trajectory on the machine that wrote
the JSON.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .._legacy.extraction import extract_all as legacy_extract_all
from .._legacy.tracing.session import TracingSession as LegacyTracingSession
from .._legacy.world import World as LegacyWorld
from ..core.pipeline import synthesize_from_trace
from ..core.synthesis import synthesize_dag
from ..experiments.batch import BatchConfig, run_batch
from ..experiments.runner import RunConfig
from ..scenarios.registry import build_scenario_spec
from ..sim.kernel import SEC
from ..tracing.session import Trace, TracingSession
from ..world import World

#: Scenario used by every benchmark (the Table II deployment).
BENCH_SCENARIO = "avp-interference"


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes for one harness run."""

    name: str
    #: Runs merged for the multi-run synthesis microbenchmark.
    synthesis_runs: int
    #: Simulated seconds per synthesis-trace run.
    synthesis_duration_s: int
    #: Simulated seconds for the sim microbenchmark.
    sim_duration_s: int
    #: Runs / simulated seconds of the reduced Table II macro batch.
    batch_runs: int
    batch_duration_s: int
    #: Workload and worker count of the jobs-scaling macro benchmark
    #: (larger than the wall-clock batch so pool startup amortizes).
    scaling_runs: int
    scaling_duration_s: int
    scaling_jobs: int
    #: Best-of repetitions per measurement.
    reps: int


SCALES: Dict[str, BenchScale] = {
    "smoke": BenchScale(
        name="smoke",
        synthesis_runs=6,
        synthesis_duration_s=3,
        sim_duration_s=4,
        batch_runs=4,
        batch_duration_s=3,
        scaling_runs=4,
        scaling_duration_s=3,
        scaling_jobs=2,
        reps=2,
    ),
    "default": BenchScale(
        name="default",
        synthesis_runs=16,
        synthesis_duration_s=10,
        sim_duration_s=10,
        batch_runs=6,
        batch_duration_s=5,
        scaling_runs=8,
        scaling_duration_s=10,
        scaling_jobs=2,
        reps=3,
    ),
    "full": BenchScale(
        name="full",
        synthesis_runs=25,
        synthesis_duration_s=10,
        sim_duration_s=20,
        batch_runs=12,
        batch_duration_s=10,
        scaling_runs=16,
        scaling_duration_s=10,
        scaling_jobs=4,
        reps=5,
    ),
}


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _simulate(
    run_index: int,
    duration_ns: int,
    world_cls=World,
    session_cls=TracingSession,
) -> Trace:
    """One traced ``avp-interference`` run on the given substrate."""
    spec = build_scenario_spec(BENCH_SCENARIO, run_index=run_index, runs=50)
    config = RunConfig(duration_ns=duration_ns, num_cpus=spec.num_cpus)
    world = world_cls(
        num_cpus=config.num_cpus,
        seed=config.seed_for(run_index),
        timeslice=config.timeslice_ns,
        dds_latency_ns=config.dds_latency_ns,
        start_time_ns=config.time_base_for(run_index),
        first_pid=config.pid_base_for(run_index),
    )
    spec.build(world)
    session = session_cls(world, kernel_filter=config.kernel_filter)
    session.start_init()
    world.launch()
    world.run(for_ns=config.warmup_ns)
    session.stop_init()
    session.start_runtime()
    world.run(for_ns=duration_ns)
    session.stop_runtime()
    return session.trace()


# ---------------------------------------------------------------------------
# Micro: synthesis
# ---------------------------------------------------------------------------

def bench_synthesis(scale: BenchScale) -> Dict[str, Any]:
    """Trace -> DAG throughput, optimized pipeline vs frozen legacy."""
    duration_ns = scale.synthesis_duration_s * SEC
    traces = [
        _simulate(i, duration_ns) for i in range(scale.synthesis_runs)
    ]
    merged = Trace.merge(traces)
    single = traces[0]

    def events_of(trace: Trace) -> int:
        return len(trace.ros_events) + len(trace.sched_events)

    result: Dict[str, Any] = {}
    for label, trace in (("merged", merged), ("single", single)):
        new_s = _best_of(lambda t=trace: synthesize_from_trace(t), scale.reps)
        legacy_s = _best_of(
            lambda t=trace: synthesize_dag(legacy_extract_all(t)), scale.reps
        )
        result[label] = {
            "events": events_of(trace),
            "pids": len(trace.pid_map),
            "new_s": round(new_s, 6),
            "legacy_s": round(legacy_s, 6),
            "speedup": round(legacy_s / new_s, 3),
            "events_per_sec": round(events_of(trace) / new_s),
        }
    result["runs_merged"] = scale.synthesis_runs
    return result


# ---------------------------------------------------------------------------
# Micro: simulation
# ---------------------------------------------------------------------------

def _count_calls(fn) -> int:
    """Python function calls made by ``fn()``, via ``sys.setprofile``.

    Counts ``call`` events only (C calls excluded): the flattened
    dispatch work of this PR removes Python frames, and that is the
    machine-independent quantity worth pinning.  Run separately from the
    timed reps -- the profile hook itself costs more than the workload.
    """
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(tracer)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def bench_sim(scale: BenchScale) -> Dict[str, Any]:
    """Traced-simulation wall-clock, new stack vs frozen legacy stack.

    Both stacks replay the identical workload and -- pinned by
    ``tests/test_perf_equivalence.py`` -- emit byte-identical traces, so
    one event count serves as the denominator for both sides'
    calls-per-event figures.
    """
    duration_ns = scale.sim_duration_s * SEC
    new_s = _best_of(lambda: _simulate(0, duration_ns), scale.reps)
    legacy_s = _best_of(
        lambda: _simulate(0, duration_ns, LegacyWorld, LegacyTracingSession),
        scale.reps,
    )
    trace = _simulate(0, duration_ns)
    events = len(trace.ros_events) + len(trace.sched_events)
    new_calls = _count_calls(lambda: _simulate(0, duration_ns))
    legacy_calls = _count_calls(
        lambda: _simulate(0, duration_ns, LegacyWorld, LegacyTracingSession)
    )
    return {
        "sim_seconds": scale.sim_duration_s,
        "trace_events": events,
        "new_s": round(new_s, 6),
        "legacy_s": round(legacy_s, 6),
        "speedup_vs_legacy": round(legacy_s / new_s, 3),
        "events_per_sec": round(events / new_s),
        "python_calls": new_calls,
        "legacy_python_calls": legacy_calls,
        "calls_per_event": round(new_calls / max(1, events), 2),
        "legacy_calls_per_event": round(legacy_calls / max(1, events), 2),
        "call_reduction_vs_legacy": round(legacy_calls / max(1, new_calls), 3),
    }


# ---------------------------------------------------------------------------
# Macro: reduced Table II batch
# ---------------------------------------------------------------------------

_BASELINE_SNIPPET = """
import sys, time
from repro.experiments.batch import BatchConfig, run_batch
from repro.sim.kernel import SEC
runs, dur, reps = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
best = float("inf")
for _ in range(reps):
    t0 = time.perf_counter()
    run_batch("avp-interference", runs=runs, jobs=1,
              config=BatchConfig(duration_ns=dur * SEC, num_cpus=4,
                                 base_seed=2000, collect_traces=False,
                                 scenario_params={"syn_load_range": (0.5, 2.5)}))
    best = min(best, time.perf_counter() - t0)
print(best)
"""


def _batch_once(runs: int, duration_s: int, jobs: int) -> None:
    run_batch(
        BENCH_SCENARIO,
        runs=runs,
        jobs=jobs,
        config=BatchConfig(
            duration_ns=duration_s * SEC,
            num_cpus=4,
            base_seed=2000,
            collect_traces=False,
            scenario_params={"syn_load_range": (0.5, 2.5)},
        ),
    )


def measure_baseline_batch(
    baseline_src: str, runs: int, duration_s: int, reps: int
) -> float:
    """Time the identical Table II batch against a pre-change checkout.

    Runs the workload in a subprocess with ``PYTHONPATH`` pointing at
    ``baseline_src`` (the old tree's ``src``).  The batch API is part of
    the pre-change code, so the measured path is exactly what this PR
    replaced.
    """
    completed = subprocess.run(
        [sys.executable, "-c", _BASELINE_SNIPPET,
         str(runs), str(duration_s), str(reps)],
        env={"PYTHONPATH": baseline_src, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        check=True,
    )
    return float(completed.stdout.strip())


def bench_table2_batch(
    scale: BenchScale, baseline_src: Optional[str] = None
) -> Dict[str, Any]:
    """Wall-clock of the reduced-scale Table II batch."""
    runs, duration_s = scale.batch_runs, scale.batch_duration_s
    new_s = _best_of(lambda: _batch_once(runs, duration_s, jobs=1), scale.reps)
    result: Dict[str, Any] = {
        "runs": runs,
        "duration_s": duration_s,
        "jobs": 1,
        "new_s": round(new_s, 6),
    }
    if baseline_src is not None:
        baseline_s = measure_baseline_batch(
            baseline_src, runs, duration_s, scale.reps
        )
        result["baseline_s"] = round(baseline_s, 6)
        result["speedup"] = round(baseline_s / new_s, 3)
    return result


def bench_jobs_scaling(scale: BenchScale) -> Dict[str, Any]:
    """Parallel efficiency of ``run_batch --jobs``."""
    runs, duration_s = scale.scaling_runs, scale.scaling_duration_s
    jobs = scale.scaling_jobs
    serial_s = _best_of(lambda: _batch_once(runs, duration_s, 1), scale.reps)
    parallel_s = _best_of(lambda: _batch_once(runs, duration_s, jobs), scale.reps)
    # With fewer usable CPUs than workers, the ideal speedup is bounded
    # by the CPU count -- report it so efficiency reads correctly on
    # constrained machines (a 1-CPU container cannot beat 1.0x).
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "runs": runs,
        "duration_s": duration_s,
        "jobs": jobs,
        "available_cpus": cpus,
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "speedup": round(serial_s / parallel_s, 3),
        "efficiency": round(serial_s / (jobs * parallel_s), 3),
    }


# ---------------------------------------------------------------------------
# Store: binary segments vs gzip-JSON + store-backed synthesis
# ---------------------------------------------------------------------------

def _measure_selective_read(
    segment_reader, store_trace_index, paths: List[str], scale: BenchScale
) -> Dict[str, Any]:
    """Section-selective I/O of the v3 layout, via ``bytes_inflated``.

    Each access pattern opens fresh readers (section caches are
    per-reader) and reports how many raw bytes were actually run
    through zlib -- deterministic for a fixed workload, so the derived
    fractions transfer across machines like the speedup ratios do.
    """
    from ..store.index import _resolve

    def inflated(consume) -> int:
        total = 0
        for path in paths:
            reader = segment_reader.open(path)
            consume(reader)
            total += reader.bytes_inflated
        return total

    def drain_walk(reader) -> None:
        _resolve(reader)

    def drain_analysis(reader) -> None:
        reader.sched_pid_columns()
        reader.wakeup_pid_columns()

    body_bytes = 0
    all_pids: set = set()
    for path in paths:
        reader = segment_reader.open(path)
        body_bytes += reader.body_bytes
        all_pids.update(reader.pids())
    subset = sorted(all_pids)[: max(1, len(all_pids) // 4)]

    full_bytes = inflated(lambda r: r.to_trace())
    open_bytes = inflated(lambda r: None)
    walk_bytes = inflated(drain_walk)
    analysis_bytes = inflated(drain_analysis)

    subset_readers = [segment_reader.open(p) for p in paths]
    store_trace_index(subset_readers, wanted_pids=subset)
    pid_subset_bytes = sum(r.bytes_inflated for r in subset_readers)

    walk_s = _best_of(
        lambda: [drain_walk(segment_reader.open(p)) for p in paths],
        scale.reps,
    )
    return {
        "body_bytes": body_bytes,
        "full_decode_bytes": full_bytes,
        "open_bytes": open_bytes,
        "walk_bytes": walk_bytes,
        "analysis_bytes": analysis_bytes,
        "pid_subset": len(subset),
        "pids": len(all_pids),
        "pid_subset_bytes": pid_subset_bytes,
        "walk_fraction": round(walk_bytes / max(1, full_bytes), 3),
        "analysis_fraction": round(analysis_bytes / max(1, full_bytes), 3),
        # Gate-friendly ratio (higher is better): how much less a walk
        # inflates than a full decode.
        "walk_inflate_ratio": round(full_bytes / max(1, walk_bytes), 3),
        "walk_s": round(walk_s, 6),
    }


def bench_store(scale: BenchScale) -> Dict[str, Any]:
    """Trace-store throughput: encode/decode vs the legacy gzip-JSON
    storage, and store-backed synthesis against the inline pipeline."""
    import tempfile

    from ..store import (
        SegmentReader,
        StoreTraceIndex,
        TraceStore,
        synthesize_from_store,
        write_segment,
    )
    from ..tracing.storage import TRACE_SUFFIX, load_trace, save_trace

    duration_ns = scale.batch_duration_s * SEC
    runs = scale.batch_runs
    traces = [_simulate(i, duration_ns) for i in range(runs)]
    events = sum(
        len(t.ros_events) + len(t.sched_events) + len(t.wakeup_events)
        for t in traces
    )
    merged = Trace.merge(traces)

    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        bin_dir = os.path.join(tmp, "bin")
        json_dir = os.path.join(tmp, "json")
        os.makedirs(bin_dir)
        os.makedirs(json_dir)
        bin_paths = [
            os.path.join(bin_dir, f"run{i:03d}.trace.bin") for i in range(runs)
        ]
        json_paths = [
            os.path.join(json_dir, f"run{i:03d}{TRACE_SUFFIX}") for i in range(runs)
        ]

        def encode_binary() -> None:
            for trace, path in zip(traces, bin_paths):
                write_segment(trace, path)

        def encode_json() -> None:
            for trace, path in zip(traces, json_paths):
                save_trace(trace, path)

        encode_bin_s = _best_of(encode_binary, scale.reps)
        encode_json_s = _best_of(encode_json, scale.reps)
        bin_bytes = sum(os.path.getsize(p) for p in bin_paths)
        json_bytes = sum(os.path.getsize(p) for p in json_paths)

        decode_bin_s = _best_of(
            lambda: [SegmentReader.open(p).to_trace() for p in bin_paths],
            scale.reps,
        )
        decode_json_s = _best_of(
            lambda: [load_trace(p) for p in json_paths], scale.reps
        )

        store = TraceStore(bin_dir)
        inline_s = _best_of(lambda: synthesize_from_trace(merged), scale.reps)
        store_serial_s = _best_of(lambda: synthesize_from_store(store), scale.reps)
        selective = _measure_selective_read(
            SegmentReader, StoreTraceIndex, bin_paths, scale
        )

    return {
        "runs": runs,
        "duration_s": scale.batch_duration_s,
        "events": events,
        "format_version": 3,
        "selective_read": selective,
        "encode": {
            "binary_s": round(encode_bin_s, 6),
            "json_s": round(encode_json_s, 6),
            "binary_bytes": bin_bytes,
            "json_bytes": json_bytes,
            "binary_mb_per_s": round(bin_bytes / encode_bin_s / 1e6, 3),
            "bytes_per_event": round(bin_bytes / max(1, events), 2),
            "speedup_vs_json": round(encode_json_s / encode_bin_s, 3),
        },
        "decode": {
            "binary_s": round(decode_bin_s, 6),
            "json_s": round(decode_json_s, 6),
            "binary_mb_per_s": round(bin_bytes / decode_bin_s / 1e6, 3),
            "events_per_sec": round(events / decode_bin_s),
            "speedup_vs_json": round(decode_json_s / decode_bin_s, 3),
        },
        "synthesis": {
            "inline_s": round(inline_s, 6),
            "store_serial_s": round(store_serial_s, 6),
            "store_overhead": round(store_serial_s / inline_s, 3),
            # The gate-friendly inverse (higher is better, like every
            # other REGRESSION_METRICS ratio): how close store-backed
            # synthesis runs to the in-memory pipeline.  Both feed one
            # StoreTraceIndex consumer and one walk, so this compares
            # the two column producers (segment decode vs. packing the
            # loaded trace).
            "speedup_vs_inline": round(inline_s / store_serial_s, 3),
        },
    }


# ---------------------------------------------------------------------------
# Service: incremental ingest vs per-commit rebuild
# ---------------------------------------------------------------------------

def bench_service_ingest(scale: BenchScale) -> Dict[str, Any]:
    """Live-service maintenance cost per arriving segment.

    Both sides commit the identical pre-encoded segments one at a time
    and produce a model after every commit; the incremental side walks
    each arrival over a one-run index into its fragment and merges the
    retained runs' folds (:class:`~repro.service.live.LiveSynthesizer`),
    the rebuild side re-runs ``synthesize_from_store`` from scratch
    over every committed run -- what a query-after-every-arrival
    service would cost without the per-run fragments.  The counters
    pin the incremental side's work: one walk fragment per arrival
    (``walk_fragments_built``) and no whole synthesis (``rebuilds``).
    Encoding and simulation stay outside the timed regions.
    """
    import tempfile

    from ..service.live import LiveSynthesizer, ServiceCounters
    from ..store import TraceStore, synthesize_from_store
    from ..store.writer import encode_trace

    duration_ns = scale.batch_duration_s * SEC
    runs = scale.batch_runs
    traces = [_simulate(i, duration_ns) for i in range(runs)]
    events = sum(
        len(t.ros_events) + len(t.sched_events) + len(t.wakeup_events)
        for t in traces
    )
    blobs = [encode_trace(trace) for trace in traces]

    def deliver(directory: str, index: int) -> None:
        path = os.path.join(directory, f"run{index:03d}.trace.bin")
        with open(path, "wb") as handle:
            handle.write(blobs[index])

    def incremental(counters: Optional[ServiceCounters] = None) -> None:
        with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
            live = LiveSynthesizer(TraceStore.create(tmp), counters=counters)
            for index in range(runs):
                deliver(tmp, index)
                live.refresh()
                live.model()

    def rebuild_every_commit() -> None:
        with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
            for index in range(runs):
                deliver(tmp, index)
                synthesize_from_store(TraceStore(tmp))

    incremental_s = _best_of(incremental, scale.reps)
    rebuild_s = _best_of(rebuild_every_commit, scale.reps)
    counters = ServiceCounters()
    incremental(counters)  # one instrumented pass for the counters

    return {
        "runs": runs,
        "duration_s": scale.batch_duration_s,
        "events": events,
        "incremental_s": round(incremental_s, 6),
        "rebuild_s": round(rebuild_s, 6),
        "speedup_vs_rebuild": round(rebuild_s / incremental_s, 3),
        "per_segment_ms": round(incremental_s / runs * 1000, 3),
        "walk_fragments_built": counters.walk_fragments_built,
        "rebuilds": counters.rebuilds,
    }


# ---------------------------------------------------------------------------
# Profiling: repro perf --profile SECTION
# ---------------------------------------------------------------------------

#: Sections accepted by :func:`profile_section` and the CLI's
#: ``--profile`` flag, with what each one profiles.
PROFILE_SECTIONS: Dict[str, str] = {
    "sim": "one traced simulation run on the new stack",
    "sim-legacy": "one traced simulation run on the frozen legacy stack",
    "synthesis": "trace -> DAG synthesis of a merged multi-run trace",
    "batch": "the reduced Table II serial batch",
}


def profile_section(
    section: str,
    scale_name: str = "default",
    out: Optional[str] = None,
    top: int = 25,
) -> str:
    """cProfile one benchmark section and return a top-``top`` report.

    Setup work (building the traces a synthesis profile consumes) runs
    outside the profiled region, so the report shows only the section's
    own frames.  When ``out`` is given the raw stats are dumped there as
    a ``.pstats`` artifact -- loadable with ``pstats.Stats(out)`` or any
    flamegraph converter -- alongside the returned text.
    """
    import cProfile
    import io
    import pstats

    if section not in PROFILE_SECTIONS:
        raise ValueError(
            f"unknown profile section {section!r}; "
            f"choose from {sorted(PROFILE_SECTIONS)}"
        )
    scale = SCALES[scale_name]

    if section == "sim":
        target = lambda: _simulate(0, scale.sim_duration_s * SEC)
    elif section == "sim-legacy":
        target = lambda: _simulate(
            0, scale.sim_duration_s * SEC, LegacyWorld, LegacyTracingSession
        )
    elif section == "synthesis":
        duration_ns = scale.synthesis_duration_s * SEC
        merged = Trace.merge(
            [_simulate(i, duration_ns) for i in range(scale.synthesis_runs)]
        )
        target = lambda: synthesize_from_trace(merged)
    else:  # batch
        target = lambda: _batch_once(
            scale.batch_runs, scale.batch_duration_s, jobs=1
        )

    profiler = cProfile.Profile()
    profiler.enable()
    target()
    profiler.disable()

    if out is not None:
        profiler.dump_stats(out)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(top)
    header = (
        f"profile section={section} scale={scale_name}"
        + (f" pstats={out}" if out else "")
        + f"\n{PROFILE_SECTIONS[section]}\n"
    )
    return header + stream.getvalue()


# ---------------------------------------------------------------------------
# Suite + regression gate
# ---------------------------------------------------------------------------

def run_perf_suite(
    scale_name: str = "default",
    baseline_src: Optional[str] = None,
    baseline_ref: Optional[str] = None,
) -> Dict[str, Any]:
    """Run every benchmark and assemble the ``BENCH_*.json`` payload."""
    scale = SCALES[scale_name]
    payload: Dict[str, Any] = {
        "meta": {
            "benchmark": "perf",
            "scenario": BENCH_SCENARIO,
            "scale": scale.name,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "micro": {
            "synthesis": bench_synthesis(scale),
            "sim": bench_sim(scale),
        },
        "macro": {
            "table2_batch": bench_table2_batch(scale, baseline_src=baseline_src),
            "jobs_scaling": bench_jobs_scaling(scale),
        },
        "store": bench_store(scale),
        "service": {
            "ingest": bench_service_ingest(scale),
        },
    }
    if baseline_ref is not None:
        payload["meta"]["baseline_ref"] = baseline_ref
    return payload


#: In-process speedup metrics compared by the CI regression gate.  These
#: are ratios of two measurements taken on the same machine in the same
#: process, so they transfer across machines (unlike events/sec).
REGRESSION_METRICS = (
    ("micro.synthesis.merged.speedup", "merged-trace synthesis speedup"),
    ("micro.synthesis.single.speedup", "single-trace synthesis speedup"),
    ("micro.sim.speedup_vs_legacy", "sim stack speedup"),
    # Deterministic Python-call ratio, not a timing: the flattened
    # dispatch must keep doing several times fewer frames per trace
    # event than the legacy stack.
    ("micro.sim.call_reduction_vs_legacy", "sim stack call reduction"),
    ("store.encode.speedup_vs_json", "binary store encode speedup"),
    ("store.decode.speedup_vs_json", "binary store decode speedup"),
    ("store.synthesis.speedup_vs_inline", "store synthesis vs inline ratio"),
    # Deterministic bytes ratio, not a timing: v3 selective reads must
    # keep inflating far fewer section bytes than a full decode.
    ("store.selective_read.walk_inflate_ratio", "selective walk read inflation ratio"),
    ("service.ingest.speedup_vs_rebuild", "incremental service ingest vs per-commit rebuild"),
)


def _dig(payload: Dict[str, Any], dotted: str) -> Optional[float]:
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def check_regression(
    current: Dict[str, Any], baseline: Dict[str, Any], factor: float = 2.0
) -> List[str]:
    """Compare speedup ratios against the committed baseline.

    Returns human-readable failure strings for every metric that
    regressed by more than ``factor`` (current worse than baseline /
    factor).  Absolute events/sec are machine-dependent and excluded.
    """
    failures: List[str] = []
    for dotted, label in REGRESSION_METRICS:
        now = _dig(current, dotted)
        then = _dig(baseline, dotted)
        if now is None or then is None:
            # A missing metric must fail loudly: silently skipping it
            # would let a schema rename hollow out the CI gate.
            missing = "current run" if now is None else "committed baseline"
            failures.append(f"{label}: metric {dotted!r} missing from {missing}")
            continue
        floor = then / factor
        if now < floor:
            failures.append(
                f"{label} regressed: {now:.2f}x < {floor:.2f}x "
                f"(committed {then:.2f}x / factor {factor})"
            )
    return failures


def format_report(payload: Dict[str, Any]) -> str:
    """Human-readable summary of a suite payload."""
    synth = payload["micro"]["synthesis"]
    sim = payload["micro"]["sim"]
    batch = payload["macro"]["table2_batch"]
    scaling = payload["macro"]["jobs_scaling"]
    lines = [
        f"perf suite -- scale={payload['meta']['scale']} "
        f"scenario={payload['meta']['scenario']}",
        "",
        f"synthesis merged  ({synth['runs_merged']} runs, "
        f"{synth['merged']['events']} events, {synth['merged']['pids']} pids): "
        f"{synth['merged']['new_s'] * 1000:.1f} ms, "
        f"{synth['merged']['events_per_sec'] / 1e6:.2f} Mev/s, "
        f"{synth['merged']['speedup']:.2f}x vs legacy",
        f"synthesis single  ({synth['single']['events']} events): "
        f"{synth['single']['new_s'] * 1000:.1f} ms, "
        f"{synth['single']['speedup']:.2f}x vs legacy",
        f"sim               ({sim['trace_events']} trace events / "
        f"{sim['sim_seconds']} sim-s): {sim['new_s']:.3f} s, "
        f"{sim['events_per_sec'] / 1e3:.0f} kev/s, "
        f"{sim['speedup_vs_legacy']:.2f}x vs legacy stack, "
        f"{sim['calls_per_event']:.1f} calls/event "
        f"(legacy {sim['legacy_calls_per_event']:.1f}, "
        f"{sim['call_reduction_vs_legacy']:.2f}x fewer)",
        f"table2 batch      ({batch['runs']} x {batch['duration_s']} s): "
        f"{batch['new_s']:.3f} s"
        + (
            f", {batch['speedup']:.2f}x vs pre-change tree"
            if "speedup" in batch
            else ""
        ),
        f"jobs scaling      (jobs={scaling['jobs']}, "
        f"{scaling.get('available_cpus', '?')} usable CPU(s)): "
        f"{scaling['speedup']:.2f}x speedup, "
        f"{scaling['efficiency'] * 100:.0f}% efficiency",
    ]
    store = payload.get("store")
    if store:
        encode, decode, synth = store["encode"], store["decode"], store["synthesis"]
        lines += [
            f"store encode      ({store['runs']} runs, {store['events']} events): "
            f"{encode['binary_s'] * 1000:.1f} ms, "
            f"{encode['binary_mb_per_s']:.1f} MB/s, "
            f"{encode['bytes_per_event']:.1f} B/event, "
            f"{encode['speedup_vs_json']:.2f}x vs gzip-JSON",
            f"store decode      : {decode['binary_s'] * 1000:.1f} ms, "
            f"{decode['events_per_sec'] / 1e6:.2f} Mev/s, "
            f"{decode['speedup_vs_json']:.2f}x vs gzip-JSON",
            f"store synthesis   : {synth['store_overhead']:.2f}x inline overhead",
        ]
        sel = store.get("selective_read")
        if sel:
            lines.append(
                f"store selective   : walk inflates "
                f"{sel['walk_fraction'] * 100:.0f}% of a full decode, "
                f"analysis {sel['analysis_fraction'] * 100:.0f}%, "
                f"pid subset ({sel['pid_subset']}/{sel['pids']} pids) "
                f"{sel['pid_subset_bytes'] / max(1, sel['full_decode_bytes']) * 100:.0f}%"
            )
    ingest = payload.get("service", {}).get("ingest")
    if ingest:
        lines.append(
            f"service ingest    ({ingest['runs']} arrivals, "
            f"{ingest['events']} events): "
            f"{ingest['per_segment_ms']:.1f} ms/segment incremental, "
            f"{ingest['speedup_vs_rebuild']:.2f}x vs per-commit rebuild "
            f"({ingest['walk_fragments_built']} walked, "
            f"{ingest['rebuilds']} rebuild(s))"
        )
    return "\n".join(lines)


def write_payload(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
