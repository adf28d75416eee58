"""Outside-in layer trace for the benchmark.

The program has no span instrumentation of its own, so the benchmark
records spans from the outside: :class:`LayerTrace` replaces the entry
point of each layer (a module function or a class method of the
``repro`` package) with a timing wrapper while the trace is installed,
and restores the originals afterwards.  Spans nest per thread (the
live service answers requests on its own threads), and each layer is
charged its *self* time: a span's duration minus the time of the
spans it encloses.  Spans are coarse -- one per simulation step,
segment, index build or PID walk, never one per event -- so the wrappers
cost far less than the work they time.

A hook whose target no longer exists is skipped and listed in
:attr:`LayerTrace.missing`, so a renamed function shows up as a layer
that stops reporting time rather than as a crashed benchmark.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: layer -> entry points, as ``module:attribute`` or ``module:Class.method``.
#: Functions imported by name into another module are hooked in each
#: module that calls them.
LAYER_HOOKS: Dict[str, Tuple[str, ...]] = {
    # discrete-event simulation of the ROS2 application, probes included
    "sim": ("repro.world:World.run",),
    # rotation segments packed into columns, segment packed and written
    "encode": (
        "repro.store.writer:SegmentSpool.add_segment",
        "repro.store.writer:SegmentSpool.finish_path",
    ),
    # segment decode and the columnar trace index (batch and live)
    "index": (
        "repro.store.index:StoreTraceIndex.__init__",
        "repro.service.live:LiveStoreIndex.from_readers",
        "repro.service.live:LiveStoreIndex.extend",
    ),
    # Alg. 1 callback walk and Alg. 2 execution-time folding, per PID
    "walk": (
        "repro.store.synthesis:_extract_pid_walk",
        "repro.service.live:_extract_pid_walk",
    ),
    # DAG synthesis from the per-PID callback lists
    "dag": (
        "repro.store.synthesis:synthesize_dag",
        "repro.service.live:synthesize_dag",
    ),
    # chain-latency analysis and model export
    "analysis": (
        "repro.analysis.store:latency_index_from_store",
        "repro.service.state:latency_index_from_store",
        "repro.analysis.store:chain_latencies",
        "repro.service.state:chain_latencies",
        "repro.core.export:dag_to_json",
        "repro.service.state:dag_to_json",
    ),
}

LAYERS = tuple(LAYER_HOOKS)


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class LayerTrace:
    """Self time per layer while installed."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, function: Callable) -> Callable:
        local = self._local
        lock = self._lock
        self_s = self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # time covered by child spans
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    self_s[layer] += elapsed - children

        return span

    def install(self) -> None:
        for layer, targets in LAYER_HOOKS.items():
            for target in targets:
                try:
                    owner, name = _resolve(target)
                    original = vars(owner)[name]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(layer, original.__func__))
                else:
                    wrapped = self._wrap(layer, original)
                setattr(owner, name, wrapped)
                self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def count_python_calls(function: Callable[[], object]) -> int:
    """Python function calls made while ``function()`` runs, on this
    thread and on threads it starts (``call`` events; C calls excluded).
    Run apart from timed work: the profile hook costs more than the
    calls it counts."""
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profiler)
    threading.setprofile(profiler)
    try:
        function()
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    return calls[0]
