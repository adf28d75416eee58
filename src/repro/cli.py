"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro table1
    python -m repro fig3a [--duration 12] [--seed 42] [--dot out.dot]
    python -m repro fig3b [--duration 20] [--dot out.dot] [--json out.json]
    python -m repro table2 [--runs 50] [--duration 10] [--jobs 4]
    python -m repro fig4   [--runs 50] [--duration 10] [--jobs 4]
    python -m repro overhead [--duration 60]
    python -m repro scenarios [--json]
    python -m repro batch <scenario> [--runs 8] [--jobs 4] [--duration 10]
                          [--seed 1000] [--policy psjf] [--dot out.dot]
                          [--json out.json]
    python -m repro fuzz  [--seed 0] [--count 100] [--policy edf ...]
                          [--jobs 4] [--duration 1.5] [--fail-dir DIR]
                          [--replay FILE]
    python -m repro record <scenario> [--out DIR] [--push ADDR] [--runs 8]
                          [--jobs 4] [--duration 10] [--seed 1000]
                          [--segment-every 1.0] [--force]
    python -m repro synthesize DIR [--strategy merge-dags --jobs 4]
                          [--pids 1,2,...] [--dot out.dot] [--json out.json]
    python -m repro store-info DIR [--json] [--watch] [--interval 0.5]
                          [--watch-count N]
    python -m repro serve DIR [--socket 127.0.0.1:0] [--drop-dir DIR]
                          [--retain-window N] [--poll-interval 0.5]
                          [--max-seconds S] [--log FILE]
    python -m repro ingest ADDR FILE [FILE ...] [--remove]
    python -m repro query ADDR {status,model,chains,latency,store-info,
                          ping,shutdown} [--format dot] [--out FILE]
                          [--topics a,b] [--sources k1] [--sinks k2]
    python -m repro convert DIR [--remove] [--upgrade] [--cache DIR]
    python -m repro diff OLD NEW [--drift-threshold 0.10] [--percentile 99]
                          [--gate-factor 1.2] [--old-run ID] [--new-run ID]
                          [--fail-on any] [--json out.json]
    python -m repro analyze DIR [--report chains,jitter,load] [--topics a,b]
                          [--pids 1,2,...] [--sources k1,k2]
                          [--sinks k3] [--waiting-pid PID]
    python -m repro perf  [--scale smoke|default|full] [--out BENCH_6.json]
                          [--baseline-src PATH] [--baseline-ref REF]
                          [--check BENCH_6.json] [--factor 2.0]

Durations are in (simulated) seconds.  Every command prints the
regenerated table/figure in the same shape the paper reports;
``scenarios`` lists the registry and ``batch`` runs any entry N times
across worker processes and reports the merged timing model.
``record`` stores seeded scenario runs as binary trace segments (the
Fig. 2 database server) and ``synthesize`` turns a store back into the
timing model (``--strategy merge-dags --jobs N`` synthesizes one DAG
per run on N worker processes) -- the two halves of the
collect-now/synthesize-later workflow.  ``store-info``
summarizes what a (possibly mixed-format) store directory contains
(``--json`` for tooling, including per-section sizes of v3 segments)
and ``convert`` re-encodes legacy gzip-JSON runs -- and, with
``--upgrade``, older binary segments -- into the current segment
format; ``--cache DIR`` additionally materializes the store's
mmap-ready uncompressed segment cache.

``serve`` runs the live synthesis service over a store directory:
segments arriving over the socket (``repro record --push``, ``repro
ingest``) or a watched drop directory fold incrementally into the
maintained timing model, which ``query`` reads back (``model`` /
``chains`` / ``latency`` / ``store-info`` / ``status``) while ingestion
continues.  ``store-info --watch`` re-prints the listing whenever the
directory changes -- in-flight staging files are never listed.

``fuzz`` samples random-but-valid scenario specs from a seeded
generator, runs each under its scheduling policy (all registered
policies in rotation, or the ``--policy`` subset) and self-checks the
synthesized DAG against the spec-derived oracle; failing specs are
dumped as replayable JSON (``--fail-dir``, re-checked via ``--replay``)
and any mismatch exits 1.  ``batch --policy`` runs a registered
scenario under a non-default scheduling policy; ``scenarios --json``
emits the registry as one machine-readable document.

``diff`` compares two timing models -- each side a store directory
(synthesized out-of-core), one recorded run of a store (``--old-run`` /
``--new-run``), or an exported model JSON -- applying the structural
diff, the relative drift threshold, and percentile exec-time gates; it
exits nonzero on regression so it can gate CI.  ``analyze`` streams the
chain / jitter / load / latency reports straight from a store without
materializing the merged trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.export import dag_to_json, format_edges, format_exec_table, to_dot
from .experiments.batch import BatchConfig, run_batch
from .experiments.fig3 import run_fig3a, run_fig3b
from .experiments.fig4 import fig4_from_table2
from .experiments.overhead import run_overhead
from .experiments.table1 import run_table1
from .experiments.table2 import Table2Config, run_table2
from .scenarios import build_scenario_spec, get_scenario, scenario_names
from .sim.kernel import SEC
from .sim.policies import POLICY_NAMES


def _write_artifacts(dag, args) -> List[str]:
    """Write the ``--dot`` / ``--json`` artifacts of ``dag``; returns
    the lines that report them, for the caller to print last.

    Callers write before printing anything: when the reader of stdout
    closes it early (``repro ... | head -1``), a print raises
    :class:`BrokenPipeError`, which :func:`main` turns into the exit
    code, and the files must not be lost with the rest of the output.
    """
    notes = []
    if getattr(args, "dot", None):
        with open(args.dot, "w") as handle:
            handle.write(to_dot(dag))
        notes.append(f"\nwrote {args.dot}")
    if getattr(args, "json", None):
        with open(args.json, "w") as handle:
            handle.write(dag_to_json(dag, indent=2))
        notes.append(f"wrote {args.json}")
    return notes


def _cmd_table1(args) -> int:
    result = run_table1()
    print(result.table())
    if not result.complete:
        print(f"MISSING PROBES: {result.missing}", file=sys.stderr)
        return 1
    return 0


def _cmd_fig3a(args) -> int:
    result = run_fig3a(duration_ns=int(args.duration * SEC), seed=args.seed)
    notes = _write_artifacts(result.dag, args)
    print("Fig. 3a -- SYN callbacks and precedence relations\n")
    print(format_edges(result.dag))
    print()
    for name, ok in result.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    for note in notes:
        print(note)
    return 0 if result.all_passed else 1


def _cmd_fig3b(args) -> int:
    result = run_fig3b(duration_ns=int(args.duration * SEC), seed=args.seed)
    notes = _write_artifacts(result.dag, args)
    print("Fig. 3b -- AVP localization DAG\n")
    print(format_edges(result.dag))
    print()
    print(format_exec_table(result.dag))
    print()
    for name, ok in result.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    for note in notes:
        print(note)
    return 0 if result.all_passed else 1


def _cmd_table2(args) -> int:
    config = Table2Config(
        runs=args.runs, duration_ns=int(args.duration * SEC), jobs=args.jobs
    )
    result = run_table2(config)
    print(f"Table II -- execution times over {args.runs} runs x "
          f"{args.duration:.0f} s\n")
    print(result.table())
    print("\npaper-vs-measured:")
    print(result.comparison())
    return 0


def _cmd_fig4(args) -> int:
    config = Table2Config(
        runs=args.runs, duration_ns=int(args.duration * SEC), jobs=args.jobs
    )
    table2 = run_table2(config)
    result = fig4_from_table2(table2)
    print(f"Fig. 4 -- estimates vs number of runs ({args.runs} runs)\n")
    print(result.table())
    print()
    for cb in sorted(result.series):
        series = result.series[cb]
        print(f"{cb}: mWCET growth {100 * series.mwcet_growth():.1f}%, "
              f"stable from run {series.runs_to_converge()}")
    return 0


def _cmd_scenarios(args) -> int:
    if getattr(args, "as_json", False):
        import json as json_module

        entries = []
        for name in scenario_names():
            entry = get_scenario(name)
            spec = build_scenario_spec(name)
            entries.append({
                "name": name,
                "summary": entry.summary,
                "tags": list(entry.tags),
                "nodes": len(spec.nodes),
                "callbacks": len(spec.callback_labels()),
                "edges": len(spec.expected_edge_pairs()),
                "policy": spec.policy,
                "num_cpus": spec.num_cpus,
                "duration_ns": spec.duration_ns,
            })
        print(json_module.dumps({"scenarios": entries}, indent=2))
        return 0
    print(f"{'scenario':<18} {'nodes':>5} {'CBs':>4} {'edges':>5}  summary")
    print("-" * 78)
    for name in scenario_names():
        entry = get_scenario(name)
        spec = build_scenario_spec(name)
        print(
            f"{name:<18} {len(spec.nodes):>5} "
            f"{len(spec.callback_labels()):>4} "
            f"{len(spec.expected_edge_pairs()):>5}  {entry.summary}"
        )
    return 0


def _cmd_batch(args) -> int:
    duration_ns = int(args.duration * SEC) if args.duration is not None else None
    config = BatchConfig(
        duration_ns=duration_ns,
        num_cpus=args.cpus,
        base_seed=args.seed,
        collect_traces=False,
        sched_policy=args.policy,
    )
    result = run_batch(args.scenario, runs=args.runs, jobs=args.jobs, config=config)
    notes = _write_artifacts(result.merged_dag, args)
    seconds = (duration_ns if duration_ns is not None else result.spec.duration_ns) / SEC
    policy_note = f", policy {args.policy}" if args.policy else ""
    print(
        f"batch {args.scenario} -- {args.runs} runs x {seconds:.0f} s "
        f"on {result.jobs} worker(s){policy_note}\n"
    )
    print(format_edges(result.merged_dag))
    print()
    print(result.table())
    for note in notes:
        print(note)
    return 0


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs`` / ``--runs`` / ``--count``: zero or
    negative counts become a clean usage error (exit code 2), not a deep
    ValueError traceback."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r} (need a positive integer)"
        )
    return value


def _cmd_fuzz(args) -> int:
    import json as json_module
    import os

    from .scenarios.fuzz import (
        DEFAULT_FUZZ_DURATION_NS,
        check_spec,
        run_fuzz,
        spec_from_json,
        world_seed_for,
    )

    if args.replay is not None:
        # Re-check a dumped failing spec (or any spec_to_json document).
        try:
            with open(args.replay) as handle:
                data = json_module.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        dump = data.get("spec", data)  # failure dump or bare spec
        spec = spec_from_json(dump)
        base_seed = data.get(
            "world_seed", world_seed_for(data.get("seed", 0), data.get("index", 0))
        )
        ok, mismatches = check_spec(spec, base_seed=base_seed)
        print(f"replay {spec.name} ({spec.policy}, {spec.num_cpus} CPU(s)): "
              f"{'OK' if ok else 'MISMATCH'}")
        for line in mismatches:
            print(f"  {line}")
        return 0 if ok else 1

    duration_ns = (
        int(args.duration * SEC)
        if args.duration is not None
        else DEFAULT_FUZZ_DURATION_NS
    )
    policies = tuple(args.policy) if args.policy else None
    report = run_fuzz(
        args.seed, args.count, policies=policies, jobs=args.jobs,
        duration_ns=duration_ns,
    )
    print(
        f"fuzz -- seed {report.seed}, {report.count} sampled scenario(s) "
        f"over {', '.join(report.policies)} on {report.jobs} worker(s)\n"
    )
    print(f"{'policy':<10} {'pass':>6} {'fail':>6}")
    for policy, (passed, failed) in sorted(report.by_policy().items()):
        print(f"{policy:<10} {passed:>6} {failed:>6}")
    failures = report.failures
    if failures and args.fail_dir:
        os.makedirs(args.fail_dir, exist_ok=True)
        for verdict in failures:
            path = os.path.join(
                args.fail_dir, f"fuzz-{verdict.seed}-{verdict.index}.json"
            )
            with open(path, "w") as handle:
                json_module.dump({
                    "seed": verdict.seed,
                    "index": verdict.index,
                    "policy": verdict.policy,
                    "world_seed": world_seed_for(verdict.seed, verdict.index),
                    "mismatches": list(verdict.mismatches),
                    "spec": json_module.loads(verdict.spec_json),
                }, handle, indent=2, sort_keys=True)
            print(f"wrote {path}")
    for verdict in failures:
        print(f"\nMISMATCH {verdict.scenario} ({verdict.policy}):")
        for line in verdict.mismatches:
            print(f"  {line}")
    if failures:
        print(f"\n{len(failures)}/{report.count} sampled scenario(s) failed "
              f"their self-check")
        return 1
    print(f"\nall {report.count} sampled scenario(s) passed their self-check")
    return 0


def _cmd_record(args) -> int:
    from .experiments.batch import BatchConfig as _BatchConfig
    from .service.client import ServiceError
    from .store import record_batch

    if args.out is None and args.push is None:
        print("error: record needs --out and/or --push", file=sys.stderr)
        return 2
    duration_ns = int(args.duration * SEC) if args.duration is not None else None
    segment_every = (
        int(args.segment_every * SEC) if args.segment_every is not None else None
    )
    config = _BatchConfig(
        duration_ns=duration_ns,
        num_cpus=args.cpus,
        base_seed=args.seed,
        segment_every_ns=segment_every,
    )
    tempdir = None
    out = args.out
    if out is None:
        # Push-only recording: segments live in the service's store; the
        # local copies are staging only.
        import tempfile

        tempdir = tempfile.TemporaryDirectory(prefix="repro-record-")
        out = tempdir.name
    try:
        try:
            result = record_batch(
                args.scenario, runs=args.runs, directory=out, jobs=args.jobs,
                config=config, force=args.force, push_to=args.push,
            )
        except (ValueError, OSError, ServiceError) as error:
            # E.g. recording over a store that already holds the run ids
            # (--force overrides), or an unreachable --push endpoint: a
            # clear refusal, not a traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2
        destination = args.push if args.out is None else result.directory
        print(
            f"recorded {args.scenario} -- {len(result.runs)} run(s) on "
            f"{result.jobs} worker(s) -> {destination}\n"
        )
        print(f"{'run':<10} {'ros events':>10} {'sched events':>12} {'bytes':>10}")
        for run in result.runs:
            print(
                f"{run.run_id:<10} {run.ros_events:>10} "
                f"{run.sched_events:>12} {run.bytes_written:>10}"
            )
        print(
            f"\ntotal {result.total_events} events, {result.total_bytes} bytes "
            f"({result.total_bytes / max(1, result.total_events):.1f} B/event)"
        )
        if args.push is not None:
            pushed = sum(1 for run in result.runs if run.pushed)
            print(f"pushed {pushed} segment(s) to {args.push}")
        return 0
    finally:
        if tempdir is not None:
            tempdir.cleanup()


def _parse_pids(text: str) -> List[int]:
    """argparse type for ``--pids``: malformed input becomes a clean
    usage error (exit code 2), not a ValueError traceback."""
    pids = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            pids.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid PID {part!r} in {text!r} "
                "(expected comma-separated integers)"
            )
    if not pids:
        raise argparse.ArgumentTypeError(
            f"no PIDs in {text!r} (expected comma-separated integers)"
        )
    return pids


def _cmd_synthesize(args) -> int:
    from .core.pipeline import STRATEGY_MERGE_DAGS, STRATEGY_MERGE_TRACES
    from .store import TraceStore, synthesize_from_store

    # ``choices=`` already rejects unknown names at parse time (exit
    # code 2); this maps the validated CLI spelling to the API constant.
    strategy = {
        "merge-traces": STRATEGY_MERGE_TRACES,
        "merge-dags": STRATEGY_MERGE_DAGS,
    }[args.strategy]
    if args.jobs > 1 and strategy == STRATEGY_MERGE_TRACES:
        print(
            f"error: --jobs {args.jobs} needs --strategy merge-dags "
            "(merge-traces synthesizes in one process; worker processes "
            "shard runs, one DAG per run)",
            file=sys.stderr,
        )
        return 2
    store = TraceStore(args.store)
    dag = synthesize_from_store(
        store, pids=args.pids, jobs=args.jobs, strategy=strategy
    )
    notes = _write_artifacts(dag, args)
    print(
        f"synthesized {len(store)} stored run(s) from {store.directory} "
        f"({args.strategy}, {args.jobs} job(s))\n"
    )
    print(format_edges(dag))
    print()
    print(format_exec_table(dag))
    for note in notes:
        print(note)
    return 0


def _print_store_infos(store, infos) -> None:
    """The human-readable ``store-info`` table (shared by the one-shot
    listing and every ``--watch`` reprint)."""
    print(f"trace store {store.directory} -- {len(infos)} run(s)\n")
    print(
        f"{'run':<12} {'format':>8} {'events':>9} {'ros':>9} {'sched':>9} "
        f"{'pids':>5} {'bytes':>10} {'B/event':>8}"
    )
    totals = {"events": 0, "bytes": 0}
    versions = set()
    for info in infos:
        label = "json" if info.format_version is None else f"v{info.format_version}"
        versions.add(label)
        totals["events"] += info.events
        totals["bytes"] += info.size_bytes
        print(
            f"{info.run_id:<12} {label:>8} {info.events:>9} "
            f"{info.ros_events:>9} {info.sched_events:>9} {info.pids:>5} "
            f"{info.size_bytes:>10} {info.bytes_per_event:>8.1f}"
        )
    if infos:
        print(
            f"\ntotal {totals['events']} events, {totals['bytes']} bytes "
            f"({totals['bytes'] / max(1, totals['events']):.1f} B/event), "
            f"formats: {', '.join(sorted(versions))}"
        )


def _store_info_watch(store, args) -> int:
    """``store-info --watch``: poll the directory and re-print whenever
    the committed run set changes.  Only finished segments participate
    -- writers' in-flight ``*.tmp`` staging files are invisible to the
    store scan, so a listing never reads a half-written run."""
    import time as time_module

    from .store import StoreError, StoreFormatError

    printed = 0
    signature = None
    while True:
        store.refresh()
        try:
            infos = store.run_infos()
        except (StoreError, StoreFormatError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        current = tuple(
            (info.run_id, info.format_version, info.size_bytes)
            for info in infos
        )
        if current != signature:
            signature = current
            if printed:
                print()
            if args.as_json:
                _store_info_json(store, infos)
            else:
                _print_store_infos(store, infos)
            sys.stdout.flush()
            printed += 1
            if args.watch_count is not None and printed >= args.watch_count:
                return 0
        time_module.sleep(args.interval)


def _cmd_store_info(args) -> int:
    from .store import StoreError, StoreFormatError, TraceStore

    try:
        store = TraceStore(args.store, allow_empty=True, strict=args.strict)
        infos = store.run_infos()
    except (FileNotFoundError, StoreError, StoreFormatError) as error:
        # An unreadable run fails the listing under the default strict
        # mode; --no-strict downgrades it to a warning + skip.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.watch:
        try:
            return _store_info_watch(store, args)
        except KeyboardInterrupt:
            return 0
    if args.as_json:
        return _store_info_json(store, infos)
    _print_store_infos(store, infos)
    return 0


def _store_info_json(store, infos) -> int:
    """``store-info --json``: one stable document tooling/CI can assert
    on -- per-run format version, event counts, size, B/event, and the
    per-section byte budget for v3 segments."""
    import json as json_module

    from .store.reader import peek_sections

    runs = []
    for info in infos:
        entry = {
            "run_id": info.run_id,
            "format_version": info.format_version,
            "events": info.events,
            "ros_events": info.ros_events,
            "sched_events": info.sched_events,
            "wakeup_events": info.wakeup_events,
            "pids": info.pids,
            "size_bytes": info.size_bytes,
            "bytes_per_event": round(info.bytes_per_event, 3),
        }
        if info.format_version is not None and info.format_version >= 3:
            entry["sections"] = [
                {
                    "name": section.name,
                    "compressed": section.comp != 0,
                    "stored_bytes": section.comp_len,
                    "raw_bytes": section.raw_len,
                }
                for section in peek_sections(info.path)
            ]
        runs.append(entry)
    total_events = sum(info.events for info in infos)
    total_bytes = sum(info.size_bytes for info in infos)
    print(json_module.dumps({
        "directory": store.directory,
        "runs": runs,
        "total_events": total_events,
        "total_bytes": total_bytes,
        "bytes_per_event": round(total_bytes / max(1, total_events), 3),
    }, indent=2))
    return 0


def _cmd_serve(args) -> int:
    from .service import SynthesisService

    log_handle = open(args.log, "a", buffering=1) if args.log else None

    def log(message: str) -> None:
        print(message, flush=True)
        if log_handle is not None:
            log_handle.write(message + "\n")

    try:
        try:
            service = SynthesisService(
                args.store,
                retain_window=args.retain_window,
                drop_dir=args.drop_dir,
                poll_interval=args.poll_interval,
                log=log,
            )
            counters = service.serve_forever(
                args.socket, max_seconds=args.max_seconds
            )
        except KeyboardInterrupt:
            print("interrupted; shutting down", flush=True)
            return 0
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    finally:
        if log_handle is not None:
            log_handle.close()
    print(
        f"served {counters.queries_served} request(s); "
        f"{counters.segments_ingested} segment(s) ingested "
        f"({counters.walk_fragments_built} walked, "
        f"{counters.rebuilds} rebuild(s)), "
        f"{counters.segments_rejected} rejected, "
        f"{counters.runs_evicted} run(s) evicted"
    )
    return 0


def _cmd_ingest(args) -> int:
    import os

    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.address)
    total_events = 0
    total_bytes = 0
    for path in args.files:
        try:
            result = client.push_file(path)
        except (OSError, ServiceError) as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 2
        total_events += result["events"]
        total_bytes += result["bytes"]
        print(
            f"pushed {result['run_id']} -- {result['events']} events, "
            f"{result['bytes']} bytes"
        )
        if args.remove:
            os.remove(path)
    print(
        f"\n{len(args.files)} segment(s), {total_events} events, "
        f"{total_bytes} bytes -> {args.address}"
    )
    return 0


def _cmd_query(args) -> int:
    import json as json_module

    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.address)
    try:
        if args.query == "ping":
            client.ping()
            print(f"pong from {args.address}")
            return 0
        if args.query == "shutdown":
            client.shutdown()
            print(f"shutdown requested at {args.address}")
            return 0
        if args.query == "status":
            text = json_module.dumps(client.status(), indent=2, sort_keys=True)
        elif args.query == "model":
            text = client.model(args.format)
        elif args.query == "chains":
            text = client.chains_text(sources=args.sources, sinks=args.sinks)
        elif args.query == "latency":
            if not args.topics:
                print("error: query latency needs --topics", file=sys.stderr)
                return 2
            text = json_module.dumps(
                client.latency(args.topics), indent=2, sort_keys=True
            )
        else:  # store-info (choices= rejects anything else at parse time)
            text = json_module.dumps(
                client.store_info(), indent=2, sort_keys=True
            )
    except (OSError, ServiceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_convert(args) -> int:
    from .store import VERSION, StoreError, StoreFormatError, TraceStore

    try:
        store = TraceStore(args.store, cache_dir=args.cache)
        written = store.convert_legacy(remove=args.remove, upgrade=args.upgrade)
        if args.cache is not None:
            cached = store.warm_cache()
            print(f"cached {len(cached)} uncompressed segment(s) in {args.cache}")
    except (FileNotFoundError, StoreError, StoreFormatError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not written:
        print(
            f"nothing to convert in {store.directory} "
            f"(all runs already v{VERSION}"
            + ("" if args.upgrade else " or binary; --upgrade lifts old segments")
            + ")"
        )
        return 0
    for path in written:
        print(f"converted {path}")
    print(f"\n{len(written)} run(s) -> format v{VERSION}")
    return 0


def _load_model(path: str, run: Optional[str]):
    """One ``repro diff`` side -> a :class:`TimingDag`.

    ``path`` is either an exported model JSON file or a trace-store
    directory; a directory synthesizes out-of-core, optionally narrowed
    to one recorded run id.
    """
    import os

    from .core.export import dag_from_json
    from .core.pipeline import synthesize_from_trace
    from .store import TraceStore, synthesize_from_store

    if os.path.isfile(path):
        if run is not None:
            raise ValueError(
                f"{path} is an exported model file; run selection "
                "(--old-run/--new-run) only applies to store directories"
            )
        with open(path) as handle:
            return dag_from_json(handle.read())
    store = TraceStore(path)
    if run is not None:
        if run not in store:
            raise ValueError(
                f"run {run!r} not in {store.directory} "
                f"(has: {', '.join(store.run_ids())})"
            )
        return synthesize_from_trace(store.load(run))
    return synthesize_from_store(store)


def _cmd_diff(args) -> int:
    import json

    from .core.diff import diff_dags, percentile_gates
    from .store import StoreError, StoreFormatError

    try:
        old = _load_model(args.old, args.old_run)
        new = _load_model(args.new, args.new_run)
    except (FileNotFoundError, StoreError, StoreFormatError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    diff = diff_dags(old, new, drift_threshold=args.drift_threshold)
    gates = percentile_gates(
        old, new, percentile=args.percentile, max_ratio=args.gate_factor
    )
    failed_gates = [g for g in gates if g.exceeded]

    print(f"diff {args.old} -> {args.new}\n")
    print(diff.summary())
    if gates:
        print()
        for gate in gates:
            print(gate.describe())

    structure_bad = not diff.is_empty
    gates_bad = bool(failed_gates)
    regression = {
        "any": structure_bad or gates_bad,
        "structure": structure_bad,
        "gates": gates_bad,
        "never": False,
    }[args.fail_on]
    verdict = "REGRESSION" if regression else "OK"
    print(
        f"\n{verdict}: {len(diff.added_vertices) + len(diff.removed_vertices)}"
        f" vertex change(s), {len(diff.added_edges) + len(diff.removed_edges)}"
        f" edge change(s), {len(diff.no_data)} no-data, "
        f"{len(diff.drifted)} drifted, "
        f"{len(failed_gates)}/{len(gates)} gate(s) failed "
        f"(fail-on={args.fail_on})"
    )

    if args.json:
        payload = {
            "old": args.old,
            "new": args.new,
            "drift_threshold": args.drift_threshold,
            "percentile": args.percentile,
            "gate_factor": args.gate_factor,
            "fail_on": args.fail_on,
            "regression": regression,
            "added_vertices": diff.added_vertices,
            "removed_vertices": diff.removed_vertices,
            "added_edges": [list(e) for e in diff.added_edges],
            "removed_edges": [list(e) for e in diff.removed_edges],
            "no_data": [
                {"key": g.key, "old_count": g.old_count, "new_count": g.new_count}
                for g in diff.no_data
            ],
            "drifted": [
                {
                    "key": d.key,
                    "old_mwcet": d.old_mwcet,
                    "new_mwcet": d.new_mwcet,
                    "old_macet": d.old_macet,
                    "new_macet": d.new_macet,
                }
                for d in diff.drifted
            ],
            "gates": [
                {
                    "key": g.key,
                    "percentile": g.percentile,
                    "old_ns": g.old_ns,
                    "new_ns": g.new_ns,
                    "ratio": g.ratio,
                    "exceeded": g.exceeded,
                }
                for g in gates
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    return 1 if regression else 0


_ANALYZE_REPORTS = ("chains", "jitter", "load", "latency", "waiting")


def _parse_reports(text: str) -> List[str]:
    """argparse type for ``--report``: unknown report names become a
    clean usage error (exit code 2)."""
    reports = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in _ANALYZE_REPORTS:
            raise argparse.ArgumentTypeError(
                f"unknown report {part!r} "
                f"(choose from {', '.join(_ANALYZE_REPORTS)})"
            )
        if part not in reports:
            reports.append(part)
    if not reports:
        raise argparse.ArgumentTypeError(f"no reports in {text!r}")
    return reports


def _parse_keys(text: str) -> List[str]:
    keys = [part.strip() for part in text.split(",") if part.strip()]
    if not keys:
        raise argparse.ArgumentTypeError(f"no keys in {text!r}")
    return keys


def _cmd_analyze(args) -> int:
    from .analysis import StoreAnalysis, format_activations, format_chains, format_loads
    from .store import StoreError, StoreFormatError

    reports = list(args.report)
    if args.topics and "latency" not in reports:
        reports.append("latency")
    if args.waiting_pid is not None and "waiting" not in reports:
        reports.append("waiting")
    if "latency" in reports and not args.topics:
        print("error: --report latency needs --topics", file=sys.stderr)
        return 2
    if "waiting" in reports and args.waiting_pid is None:
        print("error: --report waiting needs --waiting-pid", file=sys.stderr)
        return 2

    try:
        analysis = StoreAnalysis(args.store, pids=args.pids)
        analysis.dag  # synthesize up front so store errors exit cleanly
    except (FileNotFoundError, StoreError, StoreFormatError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(
        f"analyze {analysis.store.directory} -- "
        f"{len(analysis.store)} run(s), reports: {', '.join(reports)}\n"
    )
    first = True
    for report in reports:
        if not first:
            print()
        first = False
        if report == "chains":
            chains = analysis.chains(sources=args.sources, sinks=args.sinks)
            print(f"== chains ({len(chains)}) ==")
            print(format_chains(analysis.dag, chains))
        elif report == "jitter":
            models = analysis.activation_models()
            print(f"== activation models ({len(models)}) ==")
            print(format_activations(analysis.dag))
        elif report == "load":
            print("== callback loads ==")
            print(format_loads(analysis.dag))
            print("\nper-node utilization:")
            for node, load in sorted(analysis.node_loads().items()):
                print(f"  {node:<24} {100 * load:6.2f}%")
        elif report == "latency":
            latencies = analysis.chain_latencies(args.topics)
            print(
                f"== chain latency over {' -> '.join(args.topics)} "
                f"({len(latencies)} instance(s)) =="
            )
            if latencies:
                values = sorted(lat.latency_ns for lat in latencies)
                mean = sum(values) / len(values)
                print(
                    f"  min {values[0] / 1e6:.3f} ms, "
                    f"mean {mean / 1e6:.3f} ms, "
                    f"max {values[-1] / 1e6:.3f} ms"
                )
            for topic in args.topics:
                comm = analysis.communication_latencies(topic)
                if comm:
                    print(
                        f"  {topic}: {len(comm)} transfer(s), "
                        f"mean {sum(comm) / len(comm) / 1e6:.3f} ms"
                    )
        elif report == "waiting":
            waits = analysis.waiting_times(args.waiting_pid)
            print(
                f"== waiting times, PID {args.waiting_pid} "
                f"({len(waits)} wakeup(s)) =="
            )
            if waits:
                values = sorted(w.waiting_ns for w in waits)
                mean = sum(values) / len(values)
                print(
                    f"  min {values[0] / 1e6:.3f} ms, "
                    f"mean {mean / 1e6:.3f} ms, "
                    f"max {values[-1] / 1e6:.3f} ms"
                )
    return 0


def _cmd_perf(args) -> int:
    import json

    from .perf import (
        PROFILE_SECTIONS,
        SCALES,
        check_regression,
        format_report,
        profile_section,
        run_perf_suite,
        write_payload,
    )

    if args.scale not in SCALES:
        print(f"unknown scale {args.scale!r}; choose from {sorted(SCALES)}",
              file=sys.stderr)
        return 2
    if args.profile:
        if args.profile not in PROFILE_SECTIONS:
            print(
                f"unknown profile section {args.profile!r}; "
                f"choose from {sorted(PROFILE_SECTIONS)}",
                file=sys.stderr,
            )
            return 2
        out = args.out or f"{args.profile}.pstats"
        print(profile_section(args.profile, args.scale, out=out, top=args.top))
        print(f"wrote {out}")
        return 0
    payload = run_perf_suite(
        args.scale,
        baseline_src=args.baseline_src,
        baseline_ref=args.baseline_ref,
    )
    print(format_report(payload))
    if args.out:
        write_payload(payload, args.out)
        print(f"\nwrote {args.out}")
    if args.check:
        with open(args.check) as handle:
            committed = json.load(handle)
        failures = check_regression(payload, committed, factor=args.factor)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"\nregression gate vs {args.check}: OK (factor {args.factor})")
    return 0


def _cmd_overhead(args) -> int:
    result = run_overhead(duration_ns=int(args.duration * SEC))
    print(f"Tracing overheads over {args.duration:.0f} s of SYN + AVP\n")
    print(result.summary())
    print("\npaper reference: 9 MB / 60 s, 0.008 cores (~0.3% of app load), "
          "filtering >= 3x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: probe inventory")

    fig3a = sub.add_parser("fig3a", help="Fig. 3a: SYN timing model")
    fig3a.add_argument("--duration", type=float, default=12.0)
    fig3a.add_argument("--seed", type=int, default=42)
    fig3a.add_argument("--dot", help="write Graphviz DOT to this path")
    fig3a.add_argument("--json", help="write the model JSON to this path")

    fig3b = sub.add_parser("fig3b", help="Fig. 3b: AVP localization DAG")
    fig3b.add_argument("--duration", type=float, default=20.0)
    fig3b.add_argument("--seed", type=int, default=7)
    fig3b.add_argument("--dot", help="write Graphviz DOT to this path")
    fig3b.add_argument("--json", help="write the model JSON to this path")

    table2 = sub.add_parser("table2", help="Table II: AVP execution times")
    table2.add_argument("--runs", type=int, default=50)
    table2.add_argument("--duration", type=float, default=10.0)
    table2.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the independent runs")

    fig4 = sub.add_parser("fig4", help="Fig. 4: estimates vs runs")
    fig4.add_argument("--runs", type=int, default=50)
    fig4.add_argument("--duration", type=float, default=10.0)
    fig4.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the independent runs")

    overhead = sub.add_parser("overhead", help="tracing overheads")
    overhead.add_argument("--duration", type=float, default=60.0)

    scenarios = sub.add_parser("scenarios", help="list the scenario registry")
    scenarios.add_argument("--json", dest="as_json", action="store_true",
                           help="machine-readable listing: name, summary, "
                                "tags, node/callback/edge counts, scheduling "
                                "policy, CPU count")

    batch = sub.add_parser(
        "batch", help="run a registered scenario N times across workers"
    )
    batch.add_argument("scenario", help="registry name (see `repro scenarios`)")
    batch.add_argument("--runs", type=_positive_int, default=8)
    batch.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (results identical for any value)")
    batch.add_argument("--duration", type=float, default=None,
                       help="seconds per run (default: the scenario's own)")
    batch.add_argument("--seed", type=int, default=1000)
    batch.add_argument("--cpus", type=int, default=None,
                       help="simulated CPUs (default: the scenario's own)")
    batch.add_argument("--policy", default=None, choices=POLICY_NAMES,
                       help="scheduling policy for every run (default: the "
                            "scenario's own, usually 'priority')")
    batch.add_argument("--dot", help="write the merged DAG as Graphviz DOT")
    batch.add_argument("--json", help="write the merged DAG as JSON")

    fuzz = sub.add_parser(
        "fuzz",
        help="sample random scenario specs and self-check each synthesized "
             "DAG against its spec-derived oracle",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzz stream seed (same seed -> byte-identical "
                           "spec sequence and verdicts)")
    fuzz.add_argument("--count", type=_positive_int, default=100,
                      help="number of sampled scenarios (default 100)")
    fuzz.add_argument("--policy", action="append", choices=POLICY_NAMES,
                      default=None, metavar="POLICY",
                      help="restrict the policy rotation (repeatable; "
                           f"choices: {', '.join(POLICY_NAMES)}; default: "
                           "all policies)")
    fuzz.add_argument("--jobs", type=_positive_int, default=1,
                      help="worker processes (verdicts identical for any "
                           "value)")
    fuzz.add_argument("--duration", type=float, default=None,
                      help="simulated seconds per sampled scenario "
                           "(default 1.5)")
    fuzz.add_argument("--fail-dir", default=None,
                      help="dump each failing spec as replayable JSON "
                           "under this directory")
    fuzz.add_argument("--replay", default=None, metavar="FILE",
                      help="re-check one dumped failing spec instead of "
                           "sampling")

    record = sub.add_parser(
        "record",
        help="store seeded scenario runs as binary trace segments",
    )
    record.add_argument("scenario", help="registry name (see `repro scenarios`)")
    record.add_argument("--out", default=None,
                        help="store directory (created if missing); optional "
                             "when --push streams the segments to a live "
                             "service instead")
    record.add_argument("--push", metavar="ADDR", default=None,
                        help="push every finished segment to a `repro serve` "
                             "endpoint (host:port or unix socket path) right "
                             "after its local commit")
    record.add_argument("--runs", type=int, default=8)
    record.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes (store identical for any value)")
    record.add_argument("--duration", type=float, default=None,
                        help="seconds per run (default: the scenario's own)")
    record.add_argument("--seed", type=int, default=1000)
    record.add_argument("--cpus", type=int, default=None,
                        help="simulated CPUs (default: the scenario's own)")
    record.add_argument("--segment-every", type=float, default=None,
                        help="spool rotation interval in simulated seconds "
                             "(default 1.0)")
    record.add_argument("--force", action="store_true",
                        help="overwrite colliding run ids an earlier "
                             "recording left in --out (refused by default; "
                             "non-colliding stored runs stay and will merge "
                             "into later synthesis)")

    synthesize = sub.add_parser(
        "synthesize",
        help="trace store -> timing model",
    )
    synthesize.add_argument("store", help="directory written by `repro record`")
    synthesize.add_argument("--jobs", type=_positive_int, default=1,
                            help="worker processes for --strategy "
                                 "merge-dags, one run per task (results "
                                 "identical for any value)")
    synthesize.add_argument("--strategy", default="merge-traces",
                            choices=["merge-traces", "merge-dags"])
    synthesize.add_argument("--pids", default=None, type=_parse_pids,
                            help="comma-separated PID filter")
    synthesize.add_argument("--dot", help="write Graphviz DOT to this path")
    synthesize.add_argument("--json", help="write the model JSON to this path")

    store_info = sub.add_parser(
        "store-info",
        help="summarize a trace store: per-run format version, events, "
             "bytes, PIDs",
    )
    store_info.add_argument("store", help="store directory to inspect")
    store_info.add_argument("--no-strict", dest="strict", action="store_false",
                            help="skip unreadable runs with a warning "
                                 "instead of failing the listing")
    store_info.add_argument("--json", dest="as_json", action="store_true",
                            help="machine-readable output: per-run format "
                                 "version, event counts, bytes, B/event, and "
                                 "per-section sizes for v3 segments")
    store_info.add_argument("--watch", action="store_true",
                            help="keep polling the directory and re-print "
                                 "the listing whenever the committed run set "
                                 "changes (writers' in-flight *.tmp staging "
                                 "files never appear)")
    store_info.add_argument("--interval", type=float, default=0.5,
                            help="--watch poll interval in seconds "
                                 "(default 0.5)")
    store_info.add_argument("--watch-count", type=_positive_int, default=None,
                            help="stop --watch after this many printed "
                                 "listings (default: watch until ^C)")

    serve = sub.add_parser(
        "serve",
        help="run the live synthesis service over a store directory",
    )
    serve.add_argument("store",
                       help="store directory to serve (created if missing)")
    serve.add_argument("--socket", default="127.0.0.1:0",
                       help="listen address: host:port (port 0 picks an "
                            "ephemeral port, printed as 'listening on ...') "
                            "or a unix socket path (default 127.0.0.1:0)")
    serve.add_argument("--drop-dir", default=None,
                       help="also watch this directory; dropped *.trace.bin "
                            "files are validated, committed into the store "
                            "and removed")
    serve.add_argument("--retain-window", type=_positive_int, default=None,
                       help="keep only the newest N runs in the live model, "
                            "evicting older ones (default: retain everything)")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       help="drop-dir / store re-scan cadence in seconds "
                            "(default 0.5)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="stop serving after this long -- a CI guard "
                            "(default: serve until a shutdown request)")
    serve.add_argument("--log", default=None,
                       help="append the service log to this file as well as "
                            "stdout")

    ingest = sub.add_parser(
        "ingest",
        help="push recorded .trace.bin segments to a live service",
    )
    ingest.add_argument("address",
                        help="service endpoint (host:port or unix socket "
                             "path)")
    ingest.add_argument("files", nargs="+",
                        help=".trace.bin segment files to push (run id = "
                             "file stem)")
    ingest.add_argument("--remove", action="store_true",
                        help="delete each local file after a successful push")

    query = sub.add_parser(
        "query", help="query a running live synthesis service"
    )
    query.add_argument("address",
                       help="service endpoint (host:port or unix socket "
                            "path)")
    query.add_argument("query",
                       choices=["status", "model", "chains", "latency",
                                "store-info", "ping", "shutdown"],
                       help="what to ask the service")
    query.add_argument("--format", default="dot",
                       choices=["dot", "json", "edges", "exec"],
                       help="model rendering for the model query "
                            "(default dot; matches `repro synthesize` "
                            "byte-for-byte)")
    query.add_argument("--out", default=None,
                       help="write the response body to this file instead "
                            "of stdout")
    query.add_argument("--topics", type=_parse_keys, default=None,
                       help="comma-separated topic chain (latency query)")
    query.add_argument("--sources", type=_parse_keys, default=None,
                       help="comma-separated chain source keys (chains "
                            "query)")
    query.add_argument("--sinks", type=_parse_keys, default=None,
                       help="comma-separated chain sink keys (chains query)")

    convert = sub.add_parser(
        "convert",
        help="re-encode legacy gzip-JSON runs (and, with --upgrade, old "
             "binary segments) into the current segment format",
    )
    convert.add_argument("store", help="store directory to convert in place")
    convert.add_argument("--remove", action="store_true",
                         help="delete legacy JSON originals after conversion")
    convert.add_argument("--upgrade", action="store_true",
                         help="also rewrite binary segments older than "
                              "the current format (the v1/v2 -> v3 "
                              "upgrade path)")
    convert.add_argument("--cache", metavar="DIR", default=None,
                         help="also materialize every binary run as an "
                              "uncompressed mmap-ready copy under DIR (the "
                              "segment cache later synthesis can reuse via "
                              "TraceStore(cache_dir=DIR))")

    diff = sub.add_parser(
        "diff",
        help="compare two timing models (stores or exported JSON); "
             "exit 1 on regression",
    )
    diff.add_argument("old", help="baseline: store directory or model JSON")
    diff.add_argument("new", help="candidate: store directory or model JSON")
    diff.add_argument("--old-run", default=None,
                      help="synthesize only this run id of the old store")
    diff.add_argument("--new-run", default=None,
                      help="synthesize only this run id of the new store")
    diff.add_argument("--drift-threshold", type=float, default=0.10,
                      help="relative mWCET/mACET movement flagged as drift "
                           "(default 0.10)")
    diff.add_argument("--percentile", type=float, default=99.0,
                      help="exec-time percentile gated per callback "
                           "(default 99)")
    diff.add_argument("--gate-factor", type=float, default=1.2,
                      help="max allowed new/old percentile ratio "
                           "(default 1.2)")
    diff.add_argument("--fail-on", default="any",
                      choices=["any", "structure", "gates", "never"],
                      help="what counts as a regression (exit code 1); "
                           "'structure' covers vertices/edges/no-data/drift, "
                           "'gates' only the percentile gates")
    diff.add_argument("--json", help="write the full diff report JSON here")

    analyze = sub.add_parser(
        "analyze",
        help="stream chain/jitter/load/latency reports from a trace store",
    )
    analyze.add_argument("store", help="directory written by `repro record`")
    analyze.add_argument("--report", type=_parse_reports,
                         default=["chains", "jitter", "load"],
                         help="comma-separated subset of "
                              f"{{{','.join(_ANALYZE_REPORTS)}}} "
                              "(default chains,jitter,load)")
    analyze.add_argument("--topics", type=_parse_keys, default=None,
                         help="comma-separated topic chain; enables the "
                              "latency report")
    analyze.add_argument("--waiting-pid", type=int, default=None,
                         help="PID for the waiting-time report")
    analyze.add_argument("--sources", type=_parse_keys, default=None,
                         help="comma-separated chain source keys")
    analyze.add_argument("--sinks", type=_parse_keys, default=None,
                         help="comma-separated chain sink keys (chains stop "
                              "here even when successors exist)")
    analyze.add_argument("--pids", default=None, type=_parse_pids,
                         help="comma-separated PID filter")

    perf = sub.add_parser(
        "perf", help="run the perf harness; write/check BENCH_*.json"
    )
    perf.add_argument("--scale", default="default",
                      help="workload size: smoke | default | full")
    perf.add_argument("--out", help="write the suite results to this JSON path")
    perf.add_argument("--baseline-src",
                      help="src/ of a pre-change checkout; measures the "
                           "Table II macro batch against it in a subprocess")
    perf.add_argument("--baseline-ref",
                      help="label (e.g. git ref) recorded for --baseline-src")
    perf.add_argument("--check",
                      help="committed baseline JSON; exit 1 when an "
                           "in-process speedup regressed by more than "
                           "--factor")
    perf.add_argument("--factor", type=float, default=2.0,
                      help="allowed regression factor for --check")
    perf.add_argument("--profile",
                      help="cProfile one section (sim | synthesis | "
                           "batch) instead of running the "
                           "suite; writes a .pstats artifact (--out "
                           "overrides the path)")
    perf.add_argument("--top", type=int, default=25,
                      help="rows of the --profile top-N report")

    return parser


COMMANDS = {
    "table1": _cmd_table1,
    "fig3a": _cmd_fig3a,
    "fig3b": _cmd_fig3b,
    "table2": _cmd_table2,
    "fig4": _cmd_fig4,
    "overhead": _cmd_overhead,
    "scenarios": _cmd_scenarios,
    "batch": _cmd_batch,
    "fuzz": _cmd_fuzz,
    "record": _cmd_record,
    "synthesize": _cmd_synthesize,
    "store-info": _cmd_store_info,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "query": _cmd_query,
    "convert": _cmd_convert,
    "diff": _cmd_diff,
    "analyze": _cmd_analyze,
    "perf": _cmd_perf,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro ... | head`); swallow the
        # dangling-flush noise and exit like a well-behaved filter.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
