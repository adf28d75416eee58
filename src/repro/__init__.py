"""repro: trace-enabled timing model synthesis for ROS2-based autonomous
applications.

A full-stack reproduction of the DATE 2024 paper by Abaza et al.
(arXiv:2311.13333): a simulated Linux + ROS2 Foxy + CycloneDDS machine,
an eBPF-style tracing substrate implementing the paper's P1..P16 probes
and three tracers, and the timing-model synthesis pipeline (Alg. 1,
Alg. 2, DAG synthesis with service replication and AND/OR junctions).

Quickstart::

    from repro import World, Node, TracingSession, synthesize_from_trace

    world = World(num_cpus=2, seed=1)
    node = Node(world, "ticker")
    node.create_timer(100_000_000, lambda api, msg: (yield api.compute(2_000_000)))

    session = TracingSession(world)
    session.start_init()
    world.launch()
    world.run(for_ns=1_000_000)
    session.stop_init()
    session.start_runtime()
    world.run(for_ns=10_000_000_000)
    session.stop_runtime()

    dag = synthesize_from_trace(session.trace())

Scenario DSL: applications can also be declared as data.  A
:class:`~repro.scenarios.ScenarioSpec` lists nodes, timers,
subscriptions, services, clients, synchronizers and external feeds; it
builds a ready-to-trace world *and* predicts the exact DAG the
synthesis must recover (its own ground truth)::

    from repro import ScenarioSpec, NodeSpec, TimerSpec, SubscriptionSpec
    from repro.sim.workload import Constant, ms

    spec = ScenarioSpec(
        name="demo", description="timer -> subscriber chain",
        nodes=(NodeSpec("producer"), NodeSpec("consumer")),
        timers=(TimerSpec("producer", "SRC", ms(100), Constant(ms(2)),
                          publishes=("/data",)),),
        subscriptions=(SubscriptionSpec("consumer", "SNK", "/data",
                                        Constant(ms(1))),),
    )
    app = spec.build(World(num_cpus=2, seed=1))   # ready to trace
    spec.expected_edge_pairs()                     # ground-truth edges

Named scenarios live in a registry (``repro.scenarios``: the paper's
``avp``/``syn``/``avp-interference`` plus sensor-fusion, service-mesh,
overload and deep-pipeline stressors).  The batch runner executes any
entry N times with per-run seeds, sharded over worker processes, and
merges the per-run DAGs -- results are identical for any job count::

    from repro import run_batch, BatchConfig, scenario_names

    scenario_names()                       # registry listing
    result = run_batch("avp", runs=50, jobs=8,
                       config=BatchConfig(base_seed=2000))
    print(result.table())                  # Table II-style merged stats

From a shell: ``python -m repro scenarios`` and ``python -m repro batch
avp --runs 50 --jobs 8`` (see ``examples/batch_scenarios.py``).

For runs too numerous to hold in memory, ``repro.store`` persists every
run as a compact binary segment (written from a trace or streamed
during simulation) and synthesizes the model straight from disk --
byte-identical to the in-memory pipeline.  Worker processes shard
runs, never PIDs: recording fans runs out, and the ``merge_dags``
strategy synthesizes one DAG per run on ``jobs`` workers::

    from repro import record_batch, synthesize_from_store

    record_batch("avp", runs=50, directory="traces/", jobs=8)
    dag = synthesize_from_store("traces/")              # merge_traces
    dag = synthesize_from_store("traces/", jobs=8, strategy="merge_dags")

(``python -m repro record`` / ``python -m repro synthesize`` from a
shell.)
"""

from .core import (
    ExecStats,
    TimingDag,
    dag_from_runs,
    format_exec_table,
    merge_dags,
    synthesize_from_database,
    synthesize_from_trace,
    to_dot,
)
from .experiments.batch import BatchConfig, BatchResult, run_batch
from .ros2 import ExternalPublisher, Msg, Node
from .scenarios import (
    ClientSpec,
    ExternalPublisherSpec,
    NodeSpec,
    ScenarioSpec,
    ServiceSpec,
    SubscriptionSpec,
    SyncInputSpec,
    SynchronizerSpec,
    TimerSpec,
    build_scenario_spec,
    scenario_names,
)
from .sim import SchedPolicy, ms, us
from .store import (
    StoreDatabase,
    TraceStore,
    record_batch,
    synthesize_from_store,
)
from .tracing import Trace, TraceDatabase, TracingSession, measure_overhead
from .world import World

__version__ = "1.2.0"

__all__ = [
    "ExecStats",
    "TimingDag",
    "dag_from_runs",
    "format_exec_table",
    "merge_dags",
    "synthesize_from_database",
    "synthesize_from_trace",
    "to_dot",
    "BatchConfig",
    "BatchResult",
    "run_batch",
    "ExternalPublisher",
    "Msg",
    "Node",
    "ClientSpec",
    "ExternalPublisherSpec",
    "NodeSpec",
    "ScenarioSpec",
    "ServiceSpec",
    "SubscriptionSpec",
    "SyncInputSpec",
    "SynchronizerSpec",
    "TimerSpec",
    "build_scenario_spec",
    "scenario_names",
    "SchedPolicy",
    "ms",
    "us",
    "StoreDatabase",
    "TraceStore",
    "record_batch",
    "synthesize_from_store",
    "Trace",
    "TraceDatabase",
    "TracingSession",
    "measure_overhead",
    "World",
    "__version__",
]
