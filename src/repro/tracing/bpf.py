"""eBPF machinery: programs, maps, perf buffers and probe attachment.

This is the simulator's stand-in for BCC (the paper uses BCC 0.26 +
LLVM-clang 10).  It reproduces the pieces of the eBPF runtime the
framework depends on:

* **uprobes / uretprobes** -- attach a handler to the entry or exit of a
  middleware function by symbol name (see :mod:`repro.tracing.symbols`),
* **tracepoints** -- attach to kernel events (``sched:sched_switch``,
  ``sched:sched_wakeup``) exposed by the simulated scheduler,
* **BPF maps** -- bounded key/value stores shared between programs (used
  for the PID filter set and the srcTS pointer stash),
* **perf buffers** -- bounded event channels from "kernel space" to the
  userspace tracer, carrying flat rows, with lost-event accounting and
  the submitted/byte counters derived from the drained rows,
* **program statistics** -- per-program ``run_cnt`` and ``run_time_ns``,
  what ``bpftool prog show`` reports; the paper's overhead numbers
  (0.008 CPU cores) come from exactly these counters.

Handlers run synchronously at the probed call site, i.e. in "kernel
context" at the simulated instant the traced thread executes the probed
function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from operator import is_
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .events import RowGroup, group_rows
from .overhead import EVENT_HEADER_BYTES
from .symbols import ProbeContext, SymbolTable

#: Modeled per-firing probe cost.  Real uprobe round trips cost on the
#: order of a microsecond; tracepoint handlers less.  These feed the
#: run_time_ns counters only (observer effect on the traced application
#: is not simulated, matching the paper's finding that it is negligible).
DEFAULT_UPROBE_COST_NS = 1_200
DEFAULT_TRACEPOINT_COST_NS = 400

#: Encoded size of a row of a perf buffer opened without its own size.
DEFAULT_RECORD_BYTES = 64


class BpfError(RuntimeError):
    """Base error for the BPF substrate (failed attach, bad map use)."""


class BpfMap:
    """A bounded key/value map (``BPF_HASH`` semantics).

    ``update`` on a full map raises unless the map was created with
    ``lru=True``, in which case the least-recently-used entry is evicted
    -- the two behaviours BCC users pick between.
    """

    def __init__(self, name: str, max_entries: int = 10240, lru: bool = False):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries
        self.lru = lru
        self._data: Dict[Any, Any] = {}

    def lookup(self, key: Any, default: Any = None) -> Any:
        if key in self._data:
            value = self._data.pop(key)
            self._data[key] = value  # refresh LRU order
            return value
        return default

    def update(self, key: Any, value: Any) -> None:
        if key not in self._data and len(self._data) >= self.max_entries:
            if not self.lru:
                raise BpfError(f"map {self.name!r} full ({self.max_entries} entries)")
            oldest = next(iter(self._data))
            del self._data[oldest]
        self._data.pop(key, None)
        self._data[key] = value

    def delete(self, key: Any) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> List[Tuple[Any, Any]]:
        return list(self._data.items())


def rows_bytes(groups: Sequence[RowGroup]) -> int:
    """Encoded size of grouped ROS rows: the sum of each row's
    :func:`~repro.tracing.overhead.event_size_bytes`, a payload column
    at a time."""
    total = 0
    for group in groups:
        rows = len(group.numbers)
        total += EVENT_HEADER_BYTES * rows
        for values, types in zip(group.values, group.types):
            if str not in types:
                total += 8 * rows
                continue
            if len(types) > 1:
                values = list(compress(values, map(is_, map(type, values), repeat(str))))
            total += sum(map(len, values)) + len(values) + 8 * (rows - len(values))
    return total


class PerfBuffer:
    """Bounded event channel from probe handlers to the tracer.

    Real perf buffers are per-CPU byte rings; we model a single ring
    with an event-count capacity.  A handler appends one flat row per
    event to :attr:`rows` (never rebound, so fused handlers bind it
    once) -- ``(ts, pid, probe, *payload values)`` for a ROS probe, the
    tracepoint record for a sched event -- if the capacity check
    passes; overflow drops the event and counts it in :attr:`lost`,
    like ``lost_cb`` in BCC.  That is the whole per-firing accounting:
    ``submitted`` and ``bytes_submitted`` are derived from the drained
    rows, plus the pending ones when read.  ``record_bytes`` sizes
    fixed-size records (sched events); ``None`` sizes ROS rows by their
    payload values (:func:`rows_bytes`) from the groups the drain builds
    (:func:`~repro.tracing.events.group_rows`) and hands on with the
    rows.
    """

    def __init__(
        self,
        name: str,
        capacity: int = 1 << 16,
        record_bytes: Optional[int] = DEFAULT_RECORD_BYTES,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.record_bytes = record_bytes
        self.rows: List[Any] = []
        self.lost = 0
        self._drained = 0
        self._drained_bytes = 0

    def submit(self, row: Any) -> bool:
        """Push one row; False if it was dropped.  The out-of-line form
        of the check the fused probe handlers inline."""
        rows = self.rows
        if len(rows) >= self.capacity:
            self.lost += 1
            return False
        rows.append(row)
        return True

    def _bytes(self, rows: List[Any], groups: Optional[List[RowGroup]] = None) -> int:
        if self.record_bytes is not None:
            return self.record_bytes * len(rows)
        return rows_bytes(group_rows(rows) if groups is None else groups)

    def drain(self) -> Tuple[List[Any], Optional[List[RowGroup]]]:
        """Drain all buffered rows: ``(rows, groups)``, ``groups`` being
        the ROS rows' ``group_rows`` (``None`` for fixed-size records),
        built here for the byte count and reusable by the rows'
        consumer."""
        rows = self.rows.copy()
        self.rows.clear()
        groups = None if self.record_bytes is not None else group_rows(rows)
        self._drained += len(rows)
        self._drained_bytes += self._bytes(rows, groups)
        return rows, groups

    def poll(self) -> List[Any]:
        """Drain all buffered rows (the userspace ``perf_buffer_poll``)."""
        return self.drain()[0]

    @property
    def submitted(self) -> int:
        """Submit attempts: rows accepted (drained or pending) and lost."""
        return self._drained + len(self.rows) + self.lost

    @property
    def bytes_submitted(self) -> int:
        """Encoded bytes of the accepted rows."""
        return self._drained_bytes + self._bytes(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class BpfProgram:
    """A loaded eBPF program attached to one probe point."""

    name: str
    kind: str  # "uprobe" | "uretprobe" | "tracepoint"
    target: str  # symbol or tracepoint name
    cost_ns: int
    run_cnt: int = 0
    _detach: Optional[Callable[[], None]] = field(default=None, repr=False)

    @property
    def run_time_ns(self) -> int:
        """Derived, not accumulated: the modeled per-firing cost is a
        constant, so the hot path pays one counter increment per firing
        instead of two."""
        return self.run_cnt * self.cost_ns


def _counted(handler: Callable[..., None]):
    """Factory of a trampoline counting ``handler``'s firings."""

    def factory(program: BpfProgram):
        def trampoline(*args: Any) -> None:
            program.run_cnt += 1
            handler(*args)

        return trampoline

    return factory


class Bpf:
    """The BCC-style front end: owns programs, maps and perf buffers.

    Parameters
    ----------
    symbols:
        Symbol table of the simulated middleware libraries.
    tracepoints:
        Mapping from tracepoint name (``"sched:sched_switch"``) to an
        attach function ``attach(handler) -> detach``.
    """

    def __init__(
        self,
        symbols: SymbolTable,
        tracepoints: Optional[Dict[str, Callable[[Callable[[Any], None]], Callable[[], None]]]] = None,
    ):
        self.symbols = symbols
        self._tracepoints = dict(tracepoints or {})
        self.programs: List[BpfProgram] = []
        self.maps: Dict[str, BpfMap] = {}
        self.perf_buffers: Dict[str, PerfBuffer] = {}

    # -- resources ---------------------------------------------------------

    def get_table(self, name: str, max_entries: int = 10240, lru: bool = False) -> BpfMap:
        """Create or fetch a named BPF map (shared between programs)."""
        table = self.maps.get(name)
        if table is None:
            table = BpfMap(name, max_entries=max_entries, lru=lru)
            self.maps[name] = table
        return table

    def open_perf_buffer(
        self,
        name: str,
        capacity: int = 1 << 16,
        record_bytes: Optional[int] = DEFAULT_RECORD_BYTES,
    ) -> PerfBuffer:
        buffer = self.perf_buffers.get(name)
        if buffer is None:
            buffer = PerfBuffer(name, capacity=capacity, record_bytes=record_bytes)
            self.perf_buffers[name] = buffer
        return buffer

    # -- attachment ----------------------------------------------------------

    def _load(self, kind: str, target: str, name: str, cost_ns: int, attach, factory):
        program = BpfProgram(name=name, kind=kind, target=target, cost_ns=cost_ns)
        program._detach = attach(factory(program))
        self.programs.append(program)
        return program

    def attach_uprobe(
        self,
        symbol: str,
        handler: Callable[[ProbeContext, Tuple[Any, ...]], None],
        name: Optional[str] = None,
        cost_ns: int = DEFAULT_UPROBE_COST_NS,
    ) -> BpfProgram:
        """Attach ``handler`` to the entry of ``symbol`` (``lib:func``),
        behind a trampoline that counts its firings."""
        return self.load_uprobe(symbol, _counted(handler), name, cost_ns)

    def load_uprobe(
        self,
        symbol: str,
        factory: Callable[[BpfProgram], Callable[..., None]],
        name: Optional[str] = None,
        cost_ns: int = DEFAULT_UPROBE_COST_NS,
    ) -> BpfProgram:
        """Fused-attach variant of :meth:`attach_uprobe` for hot probes.

        ``factory(program)`` returns the handler, which is attached
        *directly* (no accounting trampoline, hence one call frame less
        per firing).  The handler itself must bump ``program.run_cnt``
        once per firing -- that is the whole accounting contract, since
        ``run_time_ns`` is derived from the count.
        """
        return self._load(
            "uprobe", symbol, name or f"uprobe__{symbol}", cost_ns,
            partial(self.symbols.attach_entry, symbol), factory,
        )

    def load_uretprobe(
        self,
        symbol: str,
        factory: Callable[[BpfProgram], Callable[..., None]],
        name: Optional[str] = None,
        cost_ns: int = DEFAULT_UPROBE_COST_NS,
    ) -> BpfProgram:
        """Fused-attach uretprobe (see :meth:`load_uprobe`)."""
        return self._load(
            "uretprobe", symbol, name or f"uretprobe__{symbol}", cost_ns,
            partial(self.symbols.attach_exit, symbol), factory,
        )

    def attach_tracepoint(
        self,
        tracepoint: str,
        handler: Callable[[Any], None],
        name: Optional[str] = None,
        cost_ns: int = DEFAULT_TRACEPOINT_COST_NS,
    ) -> BpfProgram:
        """Attach ``handler`` to a kernel tracepoint, behind a
        trampoline that counts its firings."""
        return self.load_tracepoint(tracepoint, _counted(handler), name, cost_ns)

    def load_tracepoint(
        self,
        tracepoint: str,
        factory: Callable[[BpfProgram], Callable[[Any], None]],
        name: Optional[str] = None,
        cost_ns: int = DEFAULT_TRACEPOINT_COST_NS,
    ) -> BpfProgram:
        """Fused-attach tracepoint (see :meth:`load_uprobe`)."""
        try:
            attach = self._tracepoints[tracepoint]
        except KeyError:
            raise BpfError(
                f"unknown tracepoint {tracepoint!r} "
                f"(known: {sorted(self._tracepoints)})"
            ) from None
        return self._load(
            "tracepoint", tracepoint,
            name or f"tracepoint__{tracepoint.replace(':', '__')}", cost_ns,
            attach, factory,
        )

    # -- lifecycle -----------------------------------------------------------

    def detach_all(self) -> None:
        """Detach every program (keeps statistics, like unloading probes)."""
        for program in self.programs:
            if program._detach is not None:
                program._detach()
                program._detach = None

    # -- bpftool-style reporting ----------------------------------------------

    def program_stats(self) -> List[Dict[str, Any]]:
        """Per-program counters as ``bpftool prog show`` reports them."""
        return [
            {
                "name": p.name,
                "kind": p.kind,
                "target": p.target,
                "run_cnt": p.run_cnt,
                "run_time_ns": p.run_time_ns,
            }
            for p in self.programs
        ]

    def total_run_time_ns(self) -> int:
        return sum(p.run_time_ns for p in self.programs)

    def total_run_cnt(self) -> int:
        return sum(p.run_cnt for p in self.programs)
