"""The record -> store -> synthesize workflow (the Fig. 2 database).

Four stages:

1. record a registered scenario's runs straight into a binary trace
   store -- each run streams through a spooling sink, so memory stays
   bounded no matter how long the runs are;
2. inspect the store: per-run segment readers decode lazily and can
   select single PIDs without materializing anything else;
3. synthesize the timing model out-of-core with both strategies of
   Sec. V -- merged traces in one process, and one DAG per run fanned
   out over worker processes -- each byte-identical to the in-memory
   pipeline;
4. import a gzip-JSON trace: every read rejects it until ``repro
   convert`` (``TraceStore.convert_legacy``) turns it into a segment.

Run with::

    PYTHONPATH=src python examples/record_synthesize.py
"""

import os
import tempfile

from repro.core import (
    dag_to_json,
    format_exec_table,
    synthesize_from_database,
    synthesize_from_trace,
)
from repro.experiments import BatchConfig
from repro.sim import SEC
from repro.store import (
    StoreFormatError,
    TraceStore,
    record_batch,
    synthesize_from_store,
)
from repro.tracing.storage import save_trace

# ----------------------------------------------------------------------
# 1. Record: scenario -> store directory of binary segments.

workdir = tempfile.mkdtemp(prefix="repro-store-example-")
store_dir = os.path.join(workdir, "traces")

result = record_batch(
    "sensor-fusion",
    runs=4,
    directory=store_dir,
    jobs=2,
    config=BatchConfig(duration_ns=2 * SEC),
)
print(f"recorded {len(result.runs)} runs, {result.total_events} events, "
      f"{result.total_bytes / 1024:.0f} KiB "
      f"({result.total_bytes / result.total_events:.1f} B/event)")

# ----------------------------------------------------------------------
# 2. Inspect: lazy per-run readers.

store = TraceStore(store_dir)
reader = store.open(result.run_ids[0])
first_pid = reader.pids()[0]
only_first = sum(1 for _ in reader.iter_ros(pids=[first_pid]))
print(f"run {result.run_ids[0]}: {reader.num_ros_events} ROS events "
      f"from PIDs {reader.ros_pids()}, {only_first} from PID {first_pid} "
      f"({reader.pid_map[first_pid]})")

# ----------------------------------------------------------------------
# 3. Synthesize out-of-core: merged traces, then one DAG per run.

dag = synthesize_from_store(store)
print()
print(format_exec_table(dag))

# Identical to merging in memory:
inline = synthesize_from_trace(store.merged_trace())
assert dag_to_json(dag) == dag_to_json(inline)
print("\nstore-backed model == in-memory model: OK")

# The merge-DAGs strategy shards runs (never PIDs) over two workers:
per_run = synthesize_from_store(store, jobs=2, strategy="merge_dags")
assert dag_to_json(per_run) == dag_to_json(
    synthesize_from_database(store.to_database(), strategy="merge_dags")
)
print("merge_dags over 2 workers == in-memory merge_dags: OK")

# ----------------------------------------------------------------------
# 4. gzip-JSON traces are an import format: convert before any read.

legacy_path = os.path.join(store_dir, "legacy.trace.json.gz")
save_trace(store.load(result.run_ids[0]), legacy_path)
mixed = TraceStore(store_dir)
try:
    synthesize_from_store(mixed)
    raise AssertionError("an unconverted gzip-JSON run must not load")
except StoreFormatError as error:
    print(f"\nbefore convert: {error}")
converted = mixed.convert_legacy(remove=True)
print(f"converted {len(converted)} gzip-JSON run(s); "
      f"store now holds {len(mixed)} runs: {mixed.run_ids()}")
assert dag_to_json(synthesize_from_store(mixed)) == dag_to_json(
    synthesize_from_trace(mixed.merged_trace())
)
