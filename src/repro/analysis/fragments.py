"""Per-run fragments of the timing model and the latency index.

A run's *fragment* is everything the model and the latency analyses
need from that run alone: the records of its Alg. 1/2 walk, folded per
vertex key (:func:`~repro.core.synthesis.fold_records`); its
:class:`~repro.analysis.latency.LatencyIndex`; and its
:class:`_Sharing`, the span, PID and key sets that say what another
run's walk could share with it.  When the runs of a window share
nothing (:func:`_assembles`), the batch walk over the window is each
run's walk, one after the other, so

* one walk over any number of such runs builds all their fragments
  (:func:`_run_fragments`) at the cost of one batch walk; and
* the window's model is the runs' folds merged
  (:func:`~repro.core.synthesis.merge_folds`) followed by the
  structural pass alone (:attr:`FragmentWindow.dag`).

Two users build fragments, with the same code and the same rule:

* the live service (:mod:`repro.service.live`) keeps one fragment per
  retained run, built at ingest;
* :class:`~repro.analysis.store.StoreAnalysis` looks each run up in
  :data:`FRAGMENTS`, a process-wide cache keyed by the sha256 of the
  run's segment file as stored (:func:`fragment_key`: a v1/v2 file's
  own bytes, not its v3 transcoding; with a segment cache directory,
  the source file, not the cached copy).  The file is read once, to
  compute the key: a hit opens no reader, and only a miss is parsed,
  from the bytes already read.  The misses are built in one walk --
  once a handle shares a run with the previous handle in the process:
  a handle that shares none (a store's first, a one-shot caller's)
  builds in batch and keeps nothing, as its fragments would not be
  looked up again.  The cache holds only the fragments of the most
  recent build, so it is bounded by one window, and a rewritten run
  has new bytes and so a new key: it is never served stale.

Both answer their queries through one :class:`FragmentWindow`.

A fragment's model and latency parts are never modified once built
(merging folds and concatenating latency indexes copy), so one
fragment may serve any number of windows, and it holds no reader and
no reference cycle.  Each fragment also carries two caches of what was
derived from it, so a window that shares all but its new runs with an
earlier one derives only those.  Its *rendered samples*, per indent
(:meth:`_RunFragment.rendered_samples`): a model assembled from
fragments keeps their renderers, and
:func:`~repro.core.export.dag_to_json` joins their texts.  Its
*journey slot*, the last-queried chain's journeys through the run
(:meth:`_RunFragment.chain_latencies`), the only journey cache of
either user.  Each entry is stored by one assignment of a value that
depends on the fragment and its key (indent, topics) alone, so
threads racing on it store equal values.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..core.dag import TimingDag
from ..core.exec_time import distinct
from ..core.export import RenderedSamples, render_samples
from ..core.index import (
    CODE_CB_START,
    CODE_DDS_WRITE,
    CODE_TAKE_REQUEST,
    CODE_TAKE_RESPONSE,
    F_KIND,
    F_SRC_TS,
    F_TOPIC,
    TopicKey,
)
from ..core.synthesis import CallbackFold, dag_from_fold, fold_records, merge_folds
from ..store import synthesis as store_synthesis
from ..store.index import (
    ResolvedRun, StoreTraceIndex, _merged_columns, _spans_are_ordered,
)
from .latency import (
    ChainLatency, LatencyIndex, chain_latencies, fragments_are_separable,
)

#: ``kind`` of the writes FindCaller and FindClient match.
_SERVICE_WRITES = frozenset(("request", "response"))

_KEY_FIELDS = itemgetter(F_TOPIC, F_SRC_TS)


def _service_keys(columns: Tuple) -> Set[TopicKey]:
    """The ``(topic, src_ts)`` keys of one run's service rows -- request
    and response takes and writes, the keys FindCaller and FindClient
    match -- from the run's resolved columns, in C-level maps."""
    _ts, _pid, codes, aux = columns
    takes = aux[(codes == CODE_TAKE_REQUEST) | (codes == CODE_TAKE_RESPONSE)]
    writes = aux[codes == CODE_DDS_WRITE].tolist()
    service = map(_SERVICE_WRITES.__contains__, map(itemgetter(F_KIND), writes))
    keys = set(map(_KEY_FIELDS, takes.tolist()))
    keys.update(map(_KEY_FIELDS, compress(writes, service)))
    return keys


@dataclass(frozen=True)
class _Sharing:
    """What one run's walk could share with another run's (see
    :func:`_assembles`), read from the run's resolved columns alone by
    :func:`_sharing`."""

    #: the run's ROS ts span, None for an eventless run.
    span: Optional[Tuple[int, int]]
    #: the PIDs the run names, ascending.
    pids: Tuple[int, ...]
    #: the PIDs the run names or sets ``current_cb`` for.
    stateful: FrozenSet[int]
    #: those, and every PID with walk rows or a sched bucket.
    touched: FrozenSet[int]
    #: the run's service keys.
    keys: FrozenSet[TopicKey]


def _sharing(resolved: ResolvedRun) -> _Sharing:
    """One run's :class:`_Sharing`, from its resolved columns and the
    PIDs its sched columns name (:func:`~repro.store.index.resolve_run`
    found them)."""
    ts_np, pid_np, codes, _aux = columns = resolved.columns
    pids = tuple(sorted(resolved.reader.pid_map))
    setters = (codes >= CODE_CB_START) & (codes <= CODE_TAKE_RESPONSE)
    stateful = frozenset(pids).union(distinct(pid_np[setters]))
    # Every PID the sched columns name but 0 has a sched bucket.
    touched = stateful.union(
        distinct(pid_np[codes != 0]), filter(None, resolved.sched_pids)
    )
    span = (int(ts_np[0]), int(ts_np[-1])) if len(ts_np) else None
    return _Sharing(
        span, pids, stateful, touched, frozenset(_service_keys(columns))
    )


def _assembles(sharings: Sequence[_Sharing]) -> bool:
    """True when the walks of runs with ``sharings`` (a window's runs,
    in run-id order) are, one after the other, batch synthesis's
    sorted-PID walk over those runs: the runs' ROS spans are
    time-ordered, no two runs share, and each run names only PIDs
    above the previous runs'.  Their folds, merged in that order, are
    then the fold of the batch walk.

    A run's walk is its share of the window's walk as long as nothing
    another run of the window added reaches it.  Two runs *share* when

    (a) a stateful PID of one -- a PID it names (Alg. 1 reads the PID's
        walk columns and sched bucket) or sets ``current_cb`` for (the
        state later runs' writes read, and the P13 rows a later P14
        pairs with) -- has rows in the other (is touched by it); or
    (b) both hold service rows under one ``(topic, src_ts)`` key:
        FindCaller's FIFO cursor is shared per key across one walk, and
        FindClient reads every take of the key.

    PIDs that only write plain topics (publishers outside the traced
    nodes, all under one PID) never share.  Each run is checked against
    the unions of the runs before it, in C-level set operations."""
    if not _spans_are_ordered(sharing.span for sharing in sharings):
        return False
    stateful: Set[int] = set()
    touched: Set[int] = set()
    keys: Set[TopicKey] = set()
    highest = None
    for sharing in sharings:
        if not (
            sharing.stateful.isdisjoint(touched)
            and sharing.touched.isdisjoint(stateful)
            and sharing.keys.isdisjoint(keys)
        ):
            return False
        stateful |= sharing.stateful
        touched |= sharing.touched
        keys |= sharing.keys
        pids = sharing.pids
        if pids:
            if highest is not None and pids[0] <= highest:
                return False
            highest = pids[-1]
    return True


@dataclass(eq=False)
class _RunFragment:
    """One run's share of the model, built by :func:`_run_fragments`."""

    events: int
    #: the records of the run's walk, folded.
    fold: CallbackFold
    latency: LatencyIndex
    sharing: _Sharing
    #: indent -> the fold's sample lists rendered as model JSON at that
    #: indent, once an export asked for them (:meth:`rendered_samples`).
    samples: Dict[Any, RenderedSamples] = field(default_factory=dict)
    #: the last-queried chain's topics and its journeys through the
    #: run's latency fragment alone, once a window's query followed
    #: them (:meth:`chain_latencies`); replaced whole, by one
    #: assignment.
    journeys: Optional[Tuple[Tuple[str, ...], List[ChainLatency]]] = None

    def rendered_samples(self, indent: Any) -> RenderedSamples:
        """The fold's sample lists as model JSON at ``indent``
        (:func:`~repro.core.export.render_samples`), rendered on first
        use and kept: a model assembled from the fragment joins them."""
        samples = self.samples.get(indent)
        if samples is None:
            samples = render_samples(self.fold.vertices.values(), indent)
            self.samples[indent] = samples
        return samples

    def chain_latencies(self, topics: Tuple[str, ...]) -> List[ChainLatency]:
        """The journeys through ``topics`` that start in the run's
        latency fragment, followed in it alone: from the journey slot
        when it holds this chain, else followed here and stored in the
        slot in place of the last chain's."""
        slot = self.journeys  # read once: another thread may replace it
        if slot is None or slot[0] != topics:
            slot = self.journeys = (topics, chain_latencies(self.latency, topics))
        return slot[1]


def _run_fragments(
    runs: Sequence[ResolvedRun],
    sharings: Sequence[_Sharing],
    split_services: bool,
) -> List[_RunFragment]:
    """The fragments of ``runs`` (in run-id order, with ``sharings``
    that assemble -- see :func:`_assembles`) from one Alg. 1/2 walk over
    them: one :class:`~repro.store.index.StoreTraceIndex`, one fresh
    :class:`~repro.core.extraction.EventIndex` and one batched Alg. 2.
    Runs that assemble walk as if each were walked alone, so the walk's
    CBlists, cut at each run's PIDs, are each run's own walk; each run's
    share is folded, and its latency fragment built from its
    columns."""
    index = StoreTraceIndex([run.reader for run in runs], resolved=runs)
    # Looked up on the module, so a hook on the batch walk sees this one.
    cblists = store_synthesis._extract_index_cblists(
        index, [pid for sharing in sharings for pid in sharing.pids]
    )
    fragments = []
    start = 0
    for run, sharing in zip(runs, sharings):
        stop = start + len(sharing.pids)
        fragments.append(_RunFragment(
            run.events,
            fold_records(cblists[start:stop], split_services),
            LatencyIndex(run.columns, run.reader.wakeup_pid_columns()),
            sharing,
        ))
        start = stop
    return fragments


def _merged_latency_index(
    readers: Sequence,
    pids: Optional[frozenset],
    columns: Optional[Sequence[Tuple]] = None,
) -> LatencyIndex:
    """One build over time-overlapping runs: the store index's merged
    columns (ties keep ``(run, row)`` order, so the order equals
    ``Trace.merge`` order) and every run's wakeup columns, concatenated
    in run order -- the index sorts wakeups stably by ts per PID, so
    ties keep run order as the object merge does."""
    wakeups = zip(*(reader.wakeup_pid_columns() for reader in readers))
    return LatencyIndex(
        _merged_columns(readers, columns),
        tuple(np.concatenate(column) for column in wakeups),
        pids,
    )


class FragmentWindow:
    """The fragments of one window's runs, in run-id order, built once
    per window and never changed, and what its queries derive from
    them: each value computed on first use and stored by one
    assignment of a value that depends on the fragments alone, so
    threads racing on it store equal values.

    ``assembles`` is :func:`_assembles` of the fragments when the owner
    already checked it.  ``readers`` opens the runs' segments, in run
    order, for the latency index of runs that overlap in time."""

    def __init__(
        self,
        fragments: Sequence[_RunFragment],
        model_sync: bool = True,
        assembles: Optional[bool] = None,
        readers: Optional[Callable[[], Sequence]] = None,
    ):
        self.fragments = tuple(fragments)
        self.model_sync = model_sync
        self._assembled = assembles
        self._readers = readers
        self._dag: Optional[TimingDag] = None
        self._separable: Optional[bool] = None
        self._index: Optional[LatencyIndex] = None

    @property
    def assembles(self) -> bool:
        """True when the fragments' folds add up to batch synthesis's
        walk over the window (:func:`_assembles`)."""
        if self._assembled is None:
            self._assembled = _assembles(
                [fragment.sharing for fragment in self.fragments]
            )
        return self._assembled

    @property
    def dag(self) -> Optional[TimingDag]:
        """The window's model when the fragments assemble it (else
        None): their folds merged, then the structural pass alone; its
        model JSON joins the fragments' rendered samples."""
        if self._dag is None and self.assembles:
            fragments = self.fragments
            dag = dag_from_fold(
                merge_folds([fragment.fold for fragment in fragments]),
                model_sync=self.model_sync,
            )
            dag.sample_parts = tuple(
                fragment.rendered_samples for fragment in fragments
            )
            self._dag = dag
        return self._dag

    @property
    def separable(self) -> bool:
        """:func:`~repro.analysis.latency.fragments_are_separable` of
        the fragments' latency indexes: no chain journey crosses runs."""
        if self._separable is None:
            self._separable = fragments_are_separable(
                [fragment.latency for fragment in self.fragments]
            )
        return self._separable

    @property
    def index(self) -> LatencyIndex:
        """The window's one latency index: the fragments' concatenated
        when the runs are time-ordered, else one build over the runs'
        merged columns, from the segments ``readers`` opens."""
        if self._index is None:
            latencies = [fragment.latency for fragment in self.fragments]
            if _spans_are_ordered(latency.span for latency in latencies):
                self._index = LatencyIndex.concat(latencies)
            else:
                self._index = _merged_latency_index(self._readers(), None)
        return self._index

    def chain_latencies(
        self, topics: Sequence[str], max_instances: Optional[int] = None
    ) -> List[ChainLatency]:
        """:func:`~repro.analysis.latency.chain_latencies` over the
        window's runs: each run through its fragment's journey slot
        when no journey crosses runs (:attr:`separable`), else over
        :attr:`index`."""
        if not self.separable:
            return chain_latencies(self.index, topics, max_instances)
        topics = tuple(topics)
        latencies: List[ChainLatency] = []
        for fragment in self.fragments:
            if max_instances is not None and len(latencies) >= max_instances:
                break
            latencies += fragment.chain_latencies(topics)
        return latencies[:max_instances]


#: A fragment's cache key: the sha256 of its run's segment file, and
#: ``split_services`` (the fold's vertex keys depend on it).
FragmentKey = Tuple[bytes, bool]


def fragment_key(data: bytes, split_services: bool) -> FragmentKey:
    """The cache key of the fragment of the run whose segment file holds
    ``data`` (the file's bytes as stored, whatever its format version)."""
    return hashlib.sha256(data).digest(), split_services


class FragmentCache:
    """Fragments by :func:`fragment_key` for the runs of the handles
    that look them up, one handle after another.  A handle's runs are
    worth fragments only once they are used again: :meth:`lookup`
    hands a handle the cached fragments of its runs only when the
    previous handle had at least one of them, and the cache holds only
    the fragments the most recent build kept (:meth:`keep`), so it is
    bounded by one window.  Lookups and replacements take one lock;
    builds run outside it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fragments: Dict[FragmentKey, _RunFragment] = {}
        #: the keys the previous handle looked up.
        self._previous: FrozenSet[FragmentKey] = frozenset()

    def lookup(
        self, keys: Iterable[FragmentKey]
    ) -> Optional[Dict[FragmentKey, _RunFragment]]:
        """The cached fragments among ``keys`` (one handle's runs), or
        None when the previous handle had none of ``keys``: then the
        handle builds in batch, and the previous handle's fragments,
        which it cannot use, are let go.  ``keys`` become the previous
        handle's."""
        keys = frozenset(keys)
        with self._lock:
            reused = not keys.isdisjoint(self._previous)
            self._previous = keys
            cached = self._fragments
            if not reused:
                self._fragments = {}
                return None
            return {key: cached[key] for key in keys if key in cached}

    def keep(self, fragments: Dict[FragmentKey, _RunFragment]) -> None:
        """Hold ``fragments`` -- one build's runs' -- in place of the
        last build's."""
        with self._lock:
            self._fragments = dict(fragments)

    def __len__(self) -> int:
        with self._lock:
            return len(self._fragments)


#: The process-wide fragment cache of :class:`~repro.analysis.store.StoreAnalysis`.
FRAGMENTS = FragmentCache()
