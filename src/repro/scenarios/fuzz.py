"""Self-checking scenario fuzzer: seeded sampling over spec space.

Every registered scenario is testable because a :class:`ScenarioSpec`
derives its own ground truth; this module closes the loop by *sampling*
specs instead of hand-writing them.  :func:`sample_spec` draws a random
-- but always valid -- application topology (nodes, timer chains,
service calls, synchronizers, external feeds, CPU count, scheduling
policy) from a seeded generator, and :func:`check_spec` runs it through
the full pipeline (build -> trace -> synthesize) and compares the
synthesized DAG against the spec-derived oracle: exact vertex-key set,
exact edge set, exact OR-junction marking, plus the DAG's own structural
invariants.  A mismatch on any sampled scenario is a synthesis bug (or
an oracle bug) by construction.

Sampling is fully deterministic: sample ``index`` under fuzz seed ``S``
is drawn from ``SeedSequence([FUZZ_SALT, S, index])`` and the run's
world seed derives from ``(S, index)`` only, so the same ``--seed``
reproduces byte-identical spec sequences and verdicts at any ``--jobs``
value (the same convention as the batch runner).  The topology draw
never depends on the policy under test -- policies rotate per index --
so a policy-dependent failure isolates to the scheduler, not the
sampler.

Failing specs serialize to replayable JSON (:func:`spec_to_json` /
:func:`spec_from_json`); ``repro fuzz --replay FILE`` re-checks a dump.

Generation is *constructive*: rather than sampling arbitrary component
sets and rejecting invalid ones, each draw builds publishers before
subscribers, wires every client to exactly one caller, and feeds every
synchronizer from a single dual-topic timer (same-instant, same-stamp
publishes, so exact-stamp matching always fires).  Workloads are kept
light relative to timer periods, so every callback activates many times
within the run window under every policy -- a sampled spec that fails
its check therefore indicts the synthesis, not the sampler.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dag import DagValidationError
from ..core.pipeline import synthesize_from_trace
from ..experiments.runner import RunConfig, run_once
from ..sim.kernel import MSEC
from ..sim.policies import POLICY_NAMES
from ..sim.threads import SchedPolicy
from ..sim.workload import Constant, TruncatedNormal, Uniform, WorkloadModel, ms, us
from .spec import (
    ClientSpec,
    ExternalPublisherSpec,
    NodeSpec,
    ScenarioSpec,
    ServiceSpec,
    SubscriptionSpec,
    SyncInputSpec,
    SynchronizerSpec,
    TimerSpec,
)

#: Domain-separation salt so fuzz streams never collide with the batch
#: runner's seed arithmetic.
FUZZ_SALT = 0x5CED

#: Default simulated duration per sampled scenario: >= 14 activations of
#: the slowest timer in the menu, plenty for edge recovery.
DEFAULT_FUZZ_DURATION_NS = 1_500 * MSEC

#: Timer/external periods the sampler draws from (ms).  All far above
#: the work budget, so utilization stays low and no callback starves
#: under any policy.
_PERIOD_MENU_MS = (20, 25, 40, 50, 80, 100)

#: Node priorities, weighted toward the SCHED_OTHER default.
_PRIORITY_MENU = (0, 0, 0, 1, 2, 5)


# ----------------------------------------------------------------------
# sampling


def _sample_work(rng: np.random.Generator) -> WorkloadModel:
    """A light workload (<= ~1.5 ms mean) from the JSON-serializable
    model subset."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Constant(us(int(rng.integers(50, 1200))))
    if kind == 1:
        low = us(int(rng.integers(50, 500)))
        return Uniform(low, low + us(int(rng.integers(100, 800))))
    mean = us(int(rng.integers(200, 1000)))
    return TruncatedNormal(
        mean=mean,
        std=us(int(rng.integers(20, 200))),
        low=us(50),
        high=mean + us(1000),
    )


def _sample_period(rng: np.random.Generator) -> int:
    return ms(int(_PERIOD_MENU_MS[int(rng.integers(0, len(_PERIOD_MENU_MS)))]))


def sample_spec(
    seed: int,
    index: int,
    policies: Sequence[str] = POLICY_NAMES,
    duration_ns: int = DEFAULT_FUZZ_DURATION_NS,
) -> ScenarioSpec:
    """Draw sampled scenario ``index`` of fuzz stream ``seed``.

    The scheduling policy rotates over ``policies`` by index; every
    other draw comes from a generator keyed by ``(seed, index)`` only,
    so the same index yields the same topology whichever policies are
    requested.
    """
    rng = np.random.default_rng(np.random.SeedSequence([FUZZ_SALT, seed, index]))
    policy = policies[index % len(policies)]

    num_cpus = int(rng.integers(1, 4))
    n_nodes = int(rng.integers(2, 6))
    nodes: List[NodeSpec] = []
    for i in range(n_nodes):
        affinity: Optional[Tuple[int, ...]] = None
        if num_cpus > 1 and rng.random() < 0.25:
            size = int(rng.integers(1, num_cpus))
            affinity = tuple(
                sorted(int(c) for c in rng.choice(num_cpus, size=size, replace=False))
            )
        priority = int(_PRIORITY_MENU[int(rng.integers(0, len(_PRIORITY_MENU)))])
        thread_policy = SchedPolicy.OTHER
        draw = rng.random()
        if draw < 0.10:
            thread_policy = SchedPolicy.FIFO
            priority = 100 + int(rng.integers(0, 3))
        elif draw < 0.20:
            thread_policy = SchedPolicy.RR
        nodes.append(
            NodeSpec(
                name=f"fz{i}",
                affinity=affinity,
                priority=priority,
                policy=thread_policy,
            )
        )

    def any_node() -> str:
        return f"fz{int(rng.integers(0, n_nodes))}"

    timers: List[TimerSpec] = []
    subscriptions: List[SubscriptionSpec] = []
    services: List[ServiceSpec] = []
    clients: List[ClientSpec] = []
    synchronizers: List[SynchronizerSpec] = []
    externals: List[ExternalPublisherSpec] = []
    counters = {"t": 0, "s": 0, "topic": 0}

    def fresh_topic() -> str:
        counters["topic"] += 1
        return f"/fz/{counters['topic']}"

    def add_chain(root_topic: str, depth: int) -> None:
        """``depth`` subscription hops relaying ``root_topic`` onward."""
        topic = root_topic
        for _ in range(depth):
            counters["s"] += 1
            nxt = fresh_topic() if rng.random() < 0.8 else None
            subscriptions.append(
                SubscriptionSpec(
                    node=any_node(),
                    label=f"S{counters['s']}",
                    topic=topic,
                    work=_sample_work(rng),
                    publishes=(nxt,) if nxt else (),
                    propagate_stamp=bool(rng.random() < 0.5),
                )
            )
            if nxt is None:
                return
            topic = nxt
        # Terminal consumer so the last published topic is never dangling.
        counters["s"] += 1
        subscriptions.append(
            SubscriptionSpec(
                node=any_node(),
                label=f"S{counters['s']}",
                topic=topic,
                work=_sample_work(rng),
            )
        )

    # 1..2 root timer chains.
    chain_roots: List[str] = []
    for _ in range(int(rng.integers(1, 3))):
        counters["t"] += 1
        root = fresh_topic()
        chain_roots.append(root)
        timers.append(
            TimerSpec(
                node=any_node(),
                label=f"T{counters['t']}",
                period_ns=_sample_period(rng),
                work=_sample_work(rng),
                publishes=(root,),
                phase_ns=ms(5 + int(rng.integers(0, 10))),
            )
        )
        add_chain(root, depth=int(rng.integers(0, 3)))

    # Occasionally a second publisher into chain 0's root topic: the
    # multi-publisher case that must surface as OR marking downstream.
    if rng.random() < 0.25:
        counters["t"] += 1
        timers.append(
            TimerSpec(
                node=any_node(),
                label=f"T{counters['t']}",
                period_ns=_sample_period(rng),
                work=_sample_work(rng),
                publishes=(chain_roots[0],),
                phase_ns=ms(5 + int(rng.integers(0, 10))),
            )
        )

    # Optional service chain: a fresh timer calls a client whose reply
    # callback may publish a topic consumed by one more subscriber.
    if rng.random() < 0.45:
        service_name = "/fz/svc"
        services.append(
            ServiceSpec(
                node=any_node(),
                label="SV1",
                service=service_name,
                work=_sample_work(rng),
            )
        )
        counters["t"] += 1
        caller_node = any_node()
        timers.append(
            TimerSpec(
                node=caller_node,
                label=f"T{counters['t']}",
                period_ns=_sample_period(rng),
                work=_sample_work(rng),
                calls="CL1",
                phase_ns=ms(5 + int(rng.integers(0, 10))),
            )
        )
        reply_topic = fresh_topic() if rng.random() < 0.5 else None
        clients.append(
            ClientSpec(
                node=caller_node,
                label="CL1",
                service=service_name,
                work=_sample_work(rng),
                publishes=(reply_topic,) if reply_topic else (),
            )
        )
        if reply_topic:
            add_chain(reply_topic, depth=0)

    # Optional synchronizer fed by one dual-topic timer: both inputs are
    # published in the same callback with the same stamp, so exact-stamp
    # matching (slop 0) always completes a set.
    if rng.random() < 0.35:
        left, right = fresh_topic(), fresh_topic()
        counters["t"] += 1
        timers.append(
            TimerSpec(
                node=any_node(),
                label=f"T{counters['t']}",
                period_ns=_sample_period(rng),
                work=_sample_work(rng),
                publishes=(left, right),
                phase_ns=ms(5 + int(rng.integers(0, 10))),
            )
        )
        fused = fresh_topic() if rng.random() < 0.5 else None
        synchronizers.append(
            SynchronizerSpec(
                node=any_node(),
                inputs=(
                    SyncInputSpec(label="J1", topic=left, work=_sample_work(rng)),
                    SyncInputSpec(label="J2", topic=right),
                ),
                publishes=(fused,) if fused else (),
                work=_sample_work(rng),
                slop_ns=0,
                stamp="now" if rng.random() < 0.5 else "min",
            )
        )
        if fused:
            add_chain(fused, depth=0)

    # Optional external (untraced) feed driving one more chain.
    if rng.random() < 0.40:
        feed = fresh_topic()
        externals.append(
            ExternalPublisherSpec(
                topic=feed,
                period_ns=_sample_period(rng),
                phase_ns=ms(5 + int(rng.integers(0, 10))),
                jitter_ns=us(int(rng.integers(0, 500))),
            )
        )
        add_chain(feed, depth=int(rng.integers(0, 2)))

    spec = ScenarioSpec(
        name=f"fuzz-{seed}-{index}",
        description=f"sampled scenario {index} of fuzz stream {seed} ({policy})",
        nodes=tuple(nodes),
        services=tuple(services),
        timers=tuple(timers),
        subscriptions=tuple(subscriptions),
        clients=tuple(clients),
        synchronizers=tuple(synchronizers),
        external_publishers=tuple(externals),
        num_cpus=num_cpus,
        duration_ns=duration_ns,
        policy=policy,
    )
    spec.validate()
    return spec


# ----------------------------------------------------------------------
# the self-check


def world_seed_for(seed: int, index: int) -> int:
    """World base seed of sample ``index`` -- derived from the fuzz
    stream only, never from worker/shard identity."""
    return (seed * 1_000_003 + index) % (2**31)


def check_spec(
    spec: ScenarioSpec, base_seed: int = 0
) -> Tuple[bool, Tuple[str, ...]]:
    """Run ``spec`` through build -> trace -> synthesize and compare the
    DAG against the spec-derived oracle.  Returns ``(ok, mismatches)``.
    """
    config = RunConfig(
        duration_ns=spec.duration_ns,
        num_cpus=spec.num_cpus,
        base_seed=base_seed,
        sched_policy=spec.policy,
    )
    result = run_once(lambda world, i: spec.build(world), config)
    dag = synthesize_from_trace(result.trace, pids=result.apps.pids)

    mismatches: List[str] = []
    try:
        dag.validate()
    except DagValidationError as exc:
        mismatches.append(f"dag invariant: {exc}")

    got_vertices = {v.key for v in dag.vertices()}
    want_vertices = spec.expected_vertex_keys()
    for key in sorted(want_vertices - got_vertices):
        mismatches.append(f"missing vertex: {key}")
    for key in sorted(got_vertices - want_vertices):
        mismatches.append(f"unexpected vertex: {key}")

    got_edges = {(e.src, e.dst) for e in dag.edges()}
    want_edges = spec.expected_edge_pairs()
    for src, dst in sorted(want_edges - got_edges):
        mismatches.append(f"missing edge: {src} -> {dst}")
    for src, dst in sorted(got_edges - want_edges):
        mismatches.append(f"unexpected edge: {src} -> {dst}")

    got_or = {v.key for v in dag.vertices() if v.is_or_junction}
    want_or = spec.expected_or_junctions()
    for key in sorted(want_or ^ got_or):
        mismatches.append(f"OR marking mismatch: {key}")

    return (not mismatches, tuple(mismatches))


# ----------------------------------------------------------------------
# spec <-> JSON (replayable failure dumps)


def _workload_to_json(work: Optional[WorkloadModel]) -> Optional[Dict[str, Any]]:
    if work is None:
        return None
    if isinstance(work, Constant):
        return {"kind": "constant", "duration": work.duration}
    if isinstance(work, Uniform):
        return {"kind": "uniform", "low": work.low, "high": work.high}
    if isinstance(work, TruncatedNormal):
        return {
            "kind": "truncated_normal",
            "mean": work.mean,
            "std": work.std,
            "low": work.low,
            "high": work.high,
        }
    raise ValueError(
        f"workload {work!r} is not JSON-serializable; the fuzzer samples "
        f"only Constant/Uniform/TruncatedNormal"
    )


def _workload_from_json(data: Optional[Dict[str, Any]]) -> Optional[WorkloadModel]:
    if data is None:
        return None
    kind = data["kind"]
    if kind == "constant":
        return Constant(data["duration"])
    if kind == "uniform":
        return Uniform(data["low"], data["high"])
    if kind == "truncated_normal":
        return TruncatedNormal(
            mean=data["mean"], std=data["std"], low=data["low"], high=data["high"]
        )
    raise ValueError(f"unknown workload kind {kind!r}")


def spec_to_json(spec: ScenarioSpec) -> Dict[str, Any]:
    """Serialize a spec to a JSON-compatible dict (workloads restricted
    to the fuzzer's model subset)."""
    data = asdict(spec)
    for node in data["nodes"]:
        node["policy"] = node["policy"].name
    for section in ("services", "timers", "subscriptions", "clients"):
        for item in data[section]:
            item["work"] = _workload_to_json(item["work"])
    for sync in data["synchronizers"]:
        sync["work"] = _workload_to_json(sync["work"])
        for member in sync["inputs"]:
            member["work"] = _workload_to_json(member["work"])
    return data


def spec_from_json(data: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild a spec from :func:`spec_to_json` output."""

    def tup(value):
        return tuple(value) if value is not None else None

    spec = ScenarioSpec(
        name=data["name"],
        description=data["description"],
        nodes=tuple(
            NodeSpec(
                name=n["name"],
                affinity=tup(n["affinity"]),
                priority=n["priority"],
                policy=SchedPolicy[n["policy"]],
                start_delay_ns=n["start_delay_ns"],
                deadline_ns=n.get("deadline_ns"),
                weight=n.get("weight"),
            )
            for n in data["nodes"]
        ),
        services=tuple(
            ServiceSpec(
                node=s["node"],
                label=s["label"],
                service=s["service"],
                work=_workload_from_json(s["work"]),
            )
            for s in data["services"]
        ),
        timers=tuple(
            TimerSpec(
                node=t["node"],
                label=t["label"],
                period_ns=t["period_ns"],
                work=_workload_from_json(t["work"]),
                publishes=tuple(t["publishes"]),
                calls=t["calls"],
                phase_ns=t["phase_ns"],
            )
            for t in data["timers"]
        ),
        subscriptions=tuple(
            SubscriptionSpec(
                node=s["node"],
                label=s["label"],
                topic=s["topic"],
                work=_workload_from_json(s["work"]),
                publishes=tuple(s["publishes"]),
                calls=s["calls"],
                propagate_stamp=s["propagate_stamp"],
            )
            for s in data["subscriptions"]
        ),
        clients=tuple(
            ClientSpec(
                node=c["node"],
                label=c["label"],
                service=c["service"],
                work=_workload_from_json(c["work"]),
                publishes=tuple(c["publishes"]),
                calls=c["calls"],
            )
            for c in data["clients"]
        ),
        synchronizers=tuple(
            SynchronizerSpec(
                node=y["node"],
                inputs=tuple(
                    SyncInputSpec(
                        label=m["label"],
                        topic=m["topic"],
                        work=_workload_from_json(m["work"]),
                    )
                    for m in y["inputs"]
                ),
                publishes=tuple(y["publishes"]),
                work=_workload_from_json(y["work"]),
                slop_ns=y["slop_ns"],
                queue_size=y["queue_size"],
                stamp=y["stamp"],
            )
            for y in data["synchronizers"]
        ),
        external_publishers=tuple(
            ExternalPublisherSpec(
                topic=e["topic"],
                period_ns=e["period_ns"],
                phase_ns=e["phase_ns"],
                jitter_ns=e["jitter_ns"],
            )
            for e in data["external_publishers"]
        ),
        num_cpus=data["num_cpus"],
        duration_ns=data["duration_ns"],
        trace_nodes=tup(data["trace_nodes"]),
        policy=data.get("policy", "priority"),
    )
    spec.validate()
    return spec


# ----------------------------------------------------------------------
# the fuzz campaign


@dataclass(frozen=True)
class FuzzVerdict:
    """Outcome of one sampled scenario's self-check."""

    index: int
    seed: int
    policy: str
    scenario: str
    ok: bool
    mismatches: Tuple[str, ...] = ()
    #: JSON dump of the failing spec (None when the check passed).
    spec_json: Optional[str] = None


@dataclass
class FuzzReport:
    """Everything produced by one fuzz campaign."""

    seed: int
    count: int
    policies: Tuple[str, ...]
    jobs: int
    verdicts: List[FuzzVerdict] = field(default_factory=list)

    @property
    def failures(self) -> List[FuzzVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def by_policy(self) -> Dict[str, Tuple[int, int]]:
        """policy -> (passed, failed) counts."""
        stats: Dict[str, Tuple[int, int]] = {}
        for verdict in self.verdicts:
            passed, failed = stats.get(verdict.policy, (0, 0))
            if verdict.ok:
                passed += 1
            else:
                failed += 1
            stats[verdict.policy] = (passed, failed)
        return stats


def check_sample(
    seed: int,
    index: int,
    policies: Sequence[str] = POLICY_NAMES,
    duration_ns: int = DEFAULT_FUZZ_DURATION_NS,
) -> FuzzVerdict:
    """Sample and self-check one scenario; the worker body."""
    spec = sample_spec(seed, index, policies=policies, duration_ns=duration_ns)
    ok, mismatches = check_spec(spec, base_seed=world_seed_for(seed, index))
    return FuzzVerdict(
        index=index,
        seed=seed,
        policy=spec.policy,
        scenario=spec.name,
        ok=ok,
        mismatches=mismatches,
        spec_json=None if ok else json.dumps(spec_to_json(spec), indent=2, sort_keys=True),
    )


def run_fuzz(
    seed: int,
    count: int,
    policies: Optional[Sequence[str]] = None,
    jobs: int = 1,
    duration_ns: int = DEFAULT_FUZZ_DURATION_NS,
) -> FuzzReport:
    """Sample and self-check ``count`` scenarios under fuzz ``seed``.

    ``policies`` restricts the rotation (default: all registered
    policies).  Verdicts are identical for any ``jobs`` value: sampling
    and world seeds derive from ``(seed, index)`` only, and
    :func:`~repro.experiments.batch._fan_out` returns them in index
    order.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    policies = tuple(policies) if policies else POLICY_NAMES
    unknown = [p for p in policies if p not in POLICY_NAMES]
    if unknown:
        raise ValueError(
            f"unknown policies {unknown}; expected a subset of {', '.join(POLICY_NAMES)}"
        )
    # Imported here: the batch runner imports the scenarios package.
    from ..experiments.batch import _fan_out

    verdicts = _fan_out(
        partial(check_sample, seed, policies=policies, duration_ns=duration_ns),
        range(count),
        jobs,
    )
    return FuzzReport(
        seed=seed, count=count, policies=policies, jobs=min(jobs, count),
        verdicts=verdicts,
    )
