"""Perf harness smoke run: the benchmarks behind ``repro perf``.

Runs the full suite at the reduced ``smoke`` scale (a couple of
seconds), prints the report for comparison with the committed
``BENCH_8.smoke.json`` baseline, and sanity-checks the
machine-independent speedup ratios.  CI's perf-smoke job additionally runs
``repro perf --check BENCH_8.smoke.json`` to fail on >2x regressions.

Set ``REPRO_FULL=1`` to run at the ``full`` scale instead, against
``BENCH_8.full.json``.
"""

import json
import os
import pathlib

import pytest

from repro.perf import SCALES, check_regression, format_report, run_perf_suite

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCALE = "full" if os.environ.get("REPRO_FULL", "") == "1" else "smoke"

#: Baselines are per-scale: speedup ratios shrink with trace size, so a
#: run is only comparable to the committed baseline of its own scale.
BASELINES = {
    "smoke": "BENCH_8.smoke.json",
    "default": "BENCH_8.json",
    "full": "BENCH_8.full.json",
}
BASELINE_PATH = REPO_ROOT / BASELINES[SCALE]


@pytest.fixture(scope="module")
def suite():
    return run_perf_suite(SCALE)


def test_report_prints(suite, capsys):
    with capsys.disabled():
        print()
        print(format_report(suite))


def test_synthesis_is_faster_than_legacy(suite):
    """The one-index pipeline must beat the frozen pre-change one."""
    assert suite["micro"]["synthesis"]["merged"]["speedup"] > 1.0


#: Allowed growth of the sim stack's Python calls per trace event over
#: the committed baseline.  One extra Python frame per kernel post adds
#: ~6% (10.49 -> 11.1 at smoke scale), so the margin stays below that.
SIM_CALLS_FACTOR = 1.05


def test_sim_call_counts_are_measured_not_folklore(suite):
    """The flattened dispatch must keep its Python calls per trace
    event within ``SIM_CALLS_FACTOR`` of the committed baseline.  Call
    counts are deterministic for a fixed workload, so the bound is
    tight even at smoke scale: one extra Python frame per kernel post
    already breaks it."""
    sim = suite["micro"]["sim"]
    assert sim["python_calls"] > 0
    committed = json.loads(BASELINE_PATH.read_text())["micro"]["sim"]
    bound = committed["calls_per_event"] * SIM_CALLS_FACTOR
    assert sim["calls_per_event"] <= bound, (
        f"{sim['calls_per_event']} calls/event > {bound:.2f} "
        f"(committed {committed['calls_per_event']} x {SIM_CALLS_FACTOR})"
    )
    assert sim["calls_per_event"] < 30


def test_batch_and_scaling_report_sane_values(suite):
    batch = suite["macro"]["table2_batch"]
    scaling = suite["macro"]["jobs_scaling"]
    assert batch["new_s"] > 0
    assert scaling["serial_s"] > 0 and scaling["parallel_s"] > 0
    assert 0 < scaling["efficiency"] <= 1.5


def test_store_reports_sane_values(suite):
    store = suite["store"]
    assert store["format_version"] == 3
    assert store["decode"]["speedup_vs_json"] > 1.0, "binary decode slower than gzip-JSON"
    assert store["encode"]["binary_bytes"] > 0
    # Store-backed serial synthesis re-reads segments from disk, so it
    # costs more than the in-memory pipeline at smoke scale (decode
    # dominates the tiny synthesis workload); the columnar walk keeps
    # even that within a small factor.
    assert store["synthesis"]["store_overhead"] < 4.0


def test_selective_reads_inflate_a_strict_subset(suite):
    """Deterministic byte counters, not timings: the v3 section layout
    must let partial reads skip most of the body."""
    sel = suite["store"]["selective_read"]
    assert sel["open_bytes"] < sel["walk_bytes"] < sel["full_decode_bytes"]
    assert sel["analysis_bytes"] < sel["full_decode_bytes"] / 2
    assert sel["pid_subset_bytes"] < sel["full_decode_bytes"]
    assert sel["walk_fraction"] < 0.9


def test_service_ingest_beats_per_commit_rebuild(suite):
    """In-order arrivals must each be walked once into their own
    fragment, with no whole synthesis, and the incremental maintenance
    must beat rebuilding from scratch at every commit (only the rebuild
    re-consumes every prior segment's columns)."""
    ingest = suite["service"]["ingest"]
    assert ingest["walk_fragments_built"] == ingest["runs"]
    assert ingest["rebuilds"] == 0
    assert ingest["speedup_vs_rebuild"] > 1.0


def test_no_regression_vs_committed_baseline(suite):
    """The >2x gate CI enforces, exercised in-process as well."""
    if not BASELINE_PATH.exists():
        pytest.skip("no committed BENCH_8 baseline")
    committed = json.loads(BASELINE_PATH.read_text())
    failures = check_regression(suite, committed, factor=2.0)
    assert failures == [], "\n".join(failures)
