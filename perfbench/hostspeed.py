"""Host-speed probe: times the end-to-end figures are scaled by.

The benchmark runs on shared CPUs whose speed drifts by tens of percent
over seconds to minutes as other tenants come and go, so two identical
runs a minute apart can differ by a third in wall time.  To take that
drift out, every timed operation is paired with :func:`probe`, a fixed
batch of interpreter-bound work (heap, dict, sort, struct, zlib and
string formatting, like the program's own mix) that is timed right
before it.  The operation's time divided by the probe's time does not
depend on how fast the host is at that moment; multiplied by
:data:`NOMINAL_S`, the probe's time on a quiet host, it reads as
seconds on that quiet host.

The probe is part of the benchmark, not of the program, so a change to
the program moves the scaled figures exactly as it moves wall time.
"""

from __future__ import annotations

import heapq
import struct
import time
import zlib

#: Probe time on a quiet host (2-vCPU cloud VM, CPython 3), the unit the
#: scaled figures are expressed in.
NOMINAL_S = 0.003

_ITEMS = 400
_BATCH = 5


def _work() -> int:
    heap, table = [], {}
    for i in range(_ITEMS):
        key = (i * 7919) % 1009
        heapq.heappush(heap, (key, i))
        table.setdefault(key % 97, []).append(i)
    packed = []
    while heap:
        key, i = heapq.heappop(heap)
        packed.append(struct.pack("<qq", key, i))
    blob = b"".join(packed)
    rows = sorted(table.items(), key=lambda row: (len(row[1]), row[0]))
    text = sum(len(f"{key}:{values[0]}") for key, values in rows)
    return len(zlib.compress(blob, 1)) + text


def probe() -> float:
    """Seconds one batch of the fixed reference work takes right now."""
    started = time.perf_counter()
    for _ in range(_BATCH):
        _work()
    return time.perf_counter() - started


def scaled(elapsed_s: float, probe_s: float) -> float:
    """``elapsed_s`` as it would read on the quiet host."""
    return elapsed_s / probe_s * NOMINAL_S
