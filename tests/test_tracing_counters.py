"""Counter oracle: the tracing counters of recorded runs, pinned.

For every registry scenario, one 1 s :func:`~repro.store.record.record_run`
is recorded and its tracing counters are compared with
``tests/data/counter_oracle.json``: ``Bpf.program_stats()``, each perf
buffer's ``submitted``/``lost``/``bytes_submitted``, the kernel
tracer's ``seen`` and the :class:`~repro.tracing.overhead.OverheadReport`
fields.  Two overflow cases run a session with small perf buffers
(``lost > 0``), one of them with ``sched_wakeup`` recorded.

The counters are what ``bpftool`` and the overhead experiment report,
so how the tracing path computes them (per firing or derived from the
drained rows) must not change any of them.  Regenerate the file only
in a change meant to alter what is traced::

    PYTHONPATH=src python tests/test_tracing_counters.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import pytest

from repro.experiments.batch import BatchConfig
from repro.scenarios import build_scenario_spec, scenario_names
from repro.sim import MSEC, SEC
from repro.store import record
from repro.tracing.overhead import measure_overhead
from repro.tracing.session import TracingSession
from repro.world import World

COUNTER_ORACLE = pathlib.Path(__file__).parent / "data" / "counter_oracle.json"

DURATION_NS = 1 * SEC


def _counters(session, world, elapsed_ns):
    """Every tracing counter of one finished session, as plain JSON."""
    bpf = session.bpf
    report = measure_overhead([bpf], world, elapsed_ns=elapsed_ns)
    return {
        "programs": bpf.program_stats(),
        "buffers": {
            name: {
                "submitted": buffer.submitted,
                "lost": buffer.lost,
                "bytes_submitted": buffer.bytes_submitted,
            }
            for name, buffer in sorted(bpf.perf_buffers.items())
        },
        "seen": session.kernel_tracer.seen,
        "overhead": {
            "elapsed_ns": report.elapsed_ns,
            "trace_bytes": report.trace_bytes,
            "probe_run_cnt": report.probe_run_cnt,
            "probe_time_ns": report.probe_time_ns,
            "app_cpu_ns": report.app_cpu_ns,
        },
    }


def _recorded_counters(name, directory, monkeypatch):
    """The counters of a 1 s ``record_run`` of scenario ``name``, read
    before the run tears its world down."""
    captured = {}
    bring_up = record.bring_up

    def capture(builder, config, run_index=0):
        world, session, apps = bring_up(builder, config, run_index)

        def close():
            captured["counters"] = _counters(session, world, DURATION_NS)
            World.close(world)

        world.close = close
        return world, session, apps

    monkeypatch.setattr(record, "bring_up", capture)
    record.record_run(name, 0, 1, BatchConfig(duration_ns=DURATION_NS), directory)
    monkeypatch.undo()
    return captured["counters"]


def _overflow_counters(record_wakeups):
    """A session whose perf buffers overflow between rotations."""
    spec = build_scenario_spec("avp-interference", run_index=0, runs=1)
    world = World(num_cpus=spec.num_cpus, seed=11)
    spec.build(world)
    session = TracingSession(
        world,
        rt_buffer_capacity=96,
        kernel_buffer_capacity=24,
        record_wakeups=record_wakeups,
    )
    session.kernel_tracer.wakeup_buffer.capacity = 16
    session.start_init()
    world.launch()
    world.run(for_ns=MSEC)
    session.stop_init()
    session.start_runtime()
    for _ in range(4):
        world.run(for_ns=100 * MSEC)
        session.rotate()
    world.run(for_ns=100 * MSEC)  # counters read with rows still pending
    counters = _counters(session, world, 500 * MSEC)
    session.stop_runtime()
    counters["after_stop"] = _counters(session, world, 500 * MSEC)
    return counters


class _Patch:
    """A minimal ``monkeypatch`` for the generator run outside pytest."""

    def __init__(self):
        self._undo = []

    def setattr(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def counter_oracle():
    """Counters of every registry scenario's recorded run, plus the
    overflow cases."""
    oracle = {}
    with tempfile.TemporaryDirectory() as directory:
        for name in scenario_names():
            oracle[name] = _recorded_counters(name, directory, _Patch())
    oracle["overflow"] = _overflow_counters(record_wakeups=False)
    oracle["overflow+wakeups"] = _overflow_counters(record_wakeups=True)
    return oracle


@pytest.fixture(scope="module")
def oracle():
    return json.loads(COUNTER_ORACLE.read_text())


def test_oracle_covers_every_scenario(oracle):
    assert set(oracle) == set(scenario_names()) | {"overflow", "overflow+wakeups"}


@pytest.mark.parametrize("name", scenario_names())
def test_recorded_run_counters(name, oracle, tmp_path, monkeypatch):
    assert _recorded_counters(name, str(tmp_path), monkeypatch) == oracle[name]


@pytest.mark.parametrize("record_wakeups", [False, True])
def test_overflow_counters(record_wakeups, oracle):
    key = "overflow+wakeups" if record_wakeups else "overflow"
    counters = _overflow_counters(record_wakeups)
    assert counters == oracle[key]
    buffers = counters["after_stop"]["buffers"]
    assert buffers["ros2_rt"]["lost"] > 0 and buffers["sched"]["lost"] > 0
    if record_wakeups:
        assert buffers["sched_wakeup"]["lost"] > 0


if __name__ == "__main__":
    COUNTER_ORACLE.write_text(
        json.dumps(counter_oracle(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {COUNTER_ORACLE}", file=sys.stderr)
