"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload record --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` (no install step).  Scratch files live under
``.perfbench_work/`` at the checkout root and are removed on exit.

With ``--trace 0`` the run reports the end-to-end metrics: the time
of one arrival (record a run, bring the model up to date, query it),
trace events handled per second, and the set-up time, each the median
over the run and each scaled to a quiet host by the probe timed right
before it (see ``hostspeed.py``).  ``--trace 1`` repeats the run with
the outside-in layer trace installed and reports per-arrival self time
per layer (wall time, unscaled) plus work counts instead.
The last line of standard output is the result object; progress and
failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPS = 9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _measure(workload, seed, seconds, tracing, work):
    from hostspeed import probe, scaled
    from layers import LAYERS, LayerTrace, count_python_calls
    from pipeline import CheckError, Pipeline, check_model

    setup_s, op_s, events, written = [], [], [], []
    setup_scaled, op_scaled = [], []
    attempted = failed = 0
    correct = False
    pipeline = None
    layer_trace = LayerTrace() if tracing else None
    try:
        # Set up several times, each in a fresh directory; keep the last.
        for rep in range(SETUP_REPS):
            if pipeline is not None:
                pipeline.stop()
            pipeline = Pipeline(workload, seed, os.path.join(work, f"setup{rep}"))
            before = probe()
            started = time.perf_counter()
            _, model_json, latencies = pipeline.start()
            setup_s.append(time.perf_counter() - started)
            setup_scaled.append(scaled(setup_s[-1], (before + probe()) / 2))
            check_model(model_json, latencies)

        if layer_trace is not None:
            layer_trace.install()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            attempted += 1
            probe_s = probe()
            started = time.perf_counter()
            try:
                run, model_json, latencies = pipeline.arrive()
                elapsed = time.perf_counter() - started
                check_model(model_json, latencies)
            except Exception:  # count it and keep the stream going
                failed += 1
                traceback.print_exc()
                continue
            op_s.append(elapsed)
            op_scaled.append(scaled(elapsed, probe_s))
            events.append(run.ros_events + run.sched_events)
            written.append(run.bytes_written)
        if layer_trace is not None:
            layer_trace.uninstall()
            result = []
            calls = count_python_calls(lambda: result.append(pipeline.arrive()))
            run, model_json, latencies = result[0]
            check_model(model_json, latencies)
        pipeline.check_window(model_json)
        correct = failed == 0
    except CheckError:
        traceback.print_exc()
    finally:
        if layer_trace is not None:
            layer_trace.uninstall()
        if pipeline is not None:
            pipeline.stop()

    if not op_s:
        return {"correct": False, "attempted": max(1, attempted),
                "failed": max(1, failed), "metrics": {}}
    ops = len(op_s)
    if not tracing:
        # Medians over the whole run of host-speed-scaled times: the
        # probe cancels the shared host's drift, the median its bursts.
        metrics = {
            "op_ms": _metric(statistics.median(op_scaled) * 1e3, "ms"),
            "events_per_s": _metric(
                statistics.median(n / t for n, t in zip(events, op_scaled)), "1/s"
            ),
            "setup_s": _metric(statistics.median(setup_scaled), "s"),
        }
    else:
        metrics = {
            f"{layer}_ms": _metric(layer_trace.self_s[layer] / ops * 1e3, "ms")
            for layer in LAYERS
        }
        covered = sum(layer_trace.self_s.values())
        metrics["other_ms"] = _metric((sum(op_s) - covered) / ops * 1e3, "ms")
        metrics["bytes_per_event"] = _metric(sum(written) / sum(events), "B")
        metrics["calls_per_event"] = _metric(
            calls / (run.ros_events + run.sched_events), "count"
        )
        if layer_trace.missing:
            print(f"layer hooks not found: {', '.join(layer_trace.missing)}",
                  file=sys.stderr)
    print(
        f"{workload.name}: {ops} arrival(s) in {sum(op_s):.2f} s, "
        f"{failed} failed, set-up {', '.join(f'{s:.3f}' for s in setup_s)} s",
        file=sys.stderr,
    )
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from pipeline import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = _measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
