"""The on-disk trace store: a directory of per-run segments.

A store directory holds one binary ``.trace.bin`` segment per run (v3
as written, v1/v2 from older stores, transcoded to v3 when opened);
the run id is the file stem.  gzip-JSON traces (``.trace.json.gz``,
:mod:`repro.tracing.storage`) are an import format: they are listed as
runs, so that every read of one fails with a
:class:`~repro.store.format.StoreFormatError` naming the file and
``repro convert`` rather than the run vanishing, and
:meth:`TraceStore.convert_legacy` (``repro convert``) is the one code
that reads them.  A segment of the same run id shadows the gzip-JSON
file that a conversion without ``remove=True`` leaves behind.

:class:`TraceStore` is the directory handle (list, read, open readers,
write, convert, inspect).  :meth:`TraceStore.read` reads a run's
segment file whole, and a reader opened from that read parses those
bytes, so a caller that keys something by a file's bytes (the analysis
fragment cache) reads each file once.  ``strict=False`` makes the
aggregate paths (:meth:`TraceStore.open_runs`, :meth:`TraceStore.readers`,
:meth:`TraceStore.resolve_runs`, :meth:`TraceStore.run_infos`) skip
unreadable runs -- at the open or, for the builds, where their columns
are resolved -- with a warning instead of raising, so one truncated
segment does not strand an otherwise healthy store; per-run
:meth:`TraceStore.open` always raises.

``cache_dir=`` points the handle at a directory of uncompressed v3
segment copies (a v1/v2 run's copy is its v3 transcoding):
:meth:`TraceStore.open` materializes each binary run there once (named
by the source's size + mtime, so an overwritten run re-materializes and
stale copies are swept) and opens the copy through ``mmap``, trading
disk for zero inflation on every synthesis over the same store.  The cache is purely derived state -- deleting it is
always safe.

:class:`StoreDatabase` is the store-backed mode of
:class:`~repro.tracing.session.TraceDatabase`: the same interface the
synthesis pipeline consumes, but runs are materialized lazily from
disk on access and ``add`` writes through to a binary segment, so a
database of hundreds of runs costs directory metadata until a trace is
actually needed.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Union

from ..tracing.session import Trace, TraceDatabase
from ..tracing.storage import TRACE_SUFFIX, load_trace
from .format import SEGMENT_SUFFIX, StoreFormatError, VERSION
from .index import ResolvedRun, resolve_run
from .reader import SegmentFile, SegmentReader, peek_header, peek_sections
from .writer import decompress_segment, write_segment

StoreLike = Union[str, "TraceStore"]


class StoreError(ValueError):
    """Raised for unusable store directories."""


def as_store(store: StoreLike) -> "TraceStore":
    return store if isinstance(store, TraceStore) else TraceStore(store)


def _load_legacy(path: str):
    """``load_trace`` with storage-layer diagnostics: a corrupt
    ``.trace.json.gz`` (bad gzip stream, cut file, malformed JSON)
    surfaces as :class:`StoreFormatError` with the path, like a corrupt
    segment, so ``repro convert`` exits 2 on it."""
    try:
        return load_trace(path)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, KeyError, TypeError, ValueError) as error:
        raise StoreFormatError(
            f"{path}: unreadable gzip-JSON trace: {error}"
        ) from None


@dataclass(frozen=True)
class RunInfo:
    """Cheap per-run metadata (``repro store-info``), from the segment
    header (:meth:`TraceStore.run_info`)."""

    run_id: str
    path: str
    format_version: int
    size_bytes: int
    ros_events: int
    sched_events: int
    wakeup_events: int
    pids: int

    @property
    def events(self) -> int:
        return self.ros_events + self.sched_events + self.wakeup_events

    @property
    def bytes_per_event(self) -> float:
        return self.size_bytes / max(1, self.events)


class TraceStore:
    """Directory of stored runs, one segment each."""

    def __init__(
        self,
        directory: str,
        allow_empty: bool = False,
        strict: bool = True,
        cache_dir: Optional[str] = None,
    ):
        self.directory = os.fspath(directory)
        self.strict = strict
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        if not os.path.isdir(self.directory):
            raise FileNotFoundError(f"no such trace store: {self.directory!r}")
        self._files: Dict[str, str] = self._scan()
        if not self._files and not allow_empty:
            raise StoreError(
                f"trace store {self.directory!r} contains no "
                f"*{SEGMENT_SUFFIX} or *{TRACE_SUFFIX} runs "
                "(pass allow_empty=True to open it anyway)"
            )

    def __reduce__(self):
        """Pickle as a re-open of the same directory with the same
        ``strict`` flag and ``cache_dir``: a worker process lists the
        directory afresh."""
        return (
            type(self), (self.directory, True, self.strict, self.cache_dir)
        )

    def _scan(self) -> Dict[str, str]:
        """Map run id -> file name from one directory listing.  Only
        segments and gzip-JSON traces participate, so writers' in-flight
        staging files (``*.tmp``) are invisible to every listing path."""
        files: Dict[str, str] = {}
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(SEGMENT_SUFFIX):
                run_id = name[: -len(SEGMENT_SUFFIX)]
            elif name.endswith(TRACE_SUFFIX):
                run_id = name[: -len(TRACE_SUFFIX)]
                if run_id in files:
                    continue  # the segment shadows its gzip-JSON original
            else:
                continue
            files[run_id] = name
        return files

    def refresh(self) -> List[str]:
        """Re-list the directory, picking up runs another process added
        (or removed) after this handle was created; returns the newly
        discovered run ids, sorted."""
        files = self._scan()
        added = sorted(run_id for run_id in files if run_id not in self._files)
        self._files = files
        return added

    # -- listing -----------------------------------------------------------

    def run_ids(self) -> List[str]:
        return sorted(self._files)

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._files

    def path_of(self, run_id: str) -> str:
        return os.path.join(self.directory, self._files[run_id])

    def format_version(self, run_id: str) -> int:
        """The run's segment format-version byte (header peek)."""
        return peek_header(self.path_of(run_id))[0]

    def _skip_unreadable(self, run_id: str, error: StoreFormatError) -> None:
        warnings.warn(
            f"skipping unreadable run {run_id!r}: {error}",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- inspection --------------------------------------------------------

    def run_info(self, run_id: str) -> RunInfo:
        """Per-run metadata; a v3 run reads only the segment header and
        the section directory, checked to fit the file.  A v1/v2 run's
        body is one stream with no directory, so it is opened (and
        transcoded, as every open of it is): a cut one fails here."""
        path = self.path_of(run_id)
        version, _, _, n_pids, n_ros, n_sched, n_wakeup, _, _ = peek_header(path)
        if version < VERSION:
            SegmentReader.open(path)
        else:
            peek_sections(path)
        return RunInfo(
            run_id=run_id,
            path=path,
            format_version=version,
            size_bytes=os.path.getsize(path),
            ros_events=n_ros,
            sched_events=n_sched,
            wakeup_events=n_wakeup,
            pids=n_pids,
        )

    def run_infos(self) -> List[RunInfo]:
        """Metadata for every run (``strict=False`` skips unreadable
        runs with a warning)."""
        infos: List[RunInfo] = []
        for run_id in self.run_ids():
            try:
                infos.append(self.run_info(run_id))
            except StoreFormatError as error:
                if self.strict:
                    raise
                self._skip_unreadable(run_id, error)
        return infos

    # -- reading -----------------------------------------------------------

    def _cached_segment(self, run_id: str, path: str) -> str:
        """Materialize ``path`` as an uncompressed v3 copy under
        ``cache_dir`` (once per source size + mtime) and return the
        copy's path.  Stale copies of the same run -- left behind when
        the source segment was rewritten, e.g. by ``convert --upgrade``
        -- are swept as a side effect, so the cache never outgrows one
        copy per live run."""
        assert self.cache_dir is not None
        st = os.stat(path)
        name = f"{run_id}.{st.st_size}.{st.st_mtime_ns}{SEGMENT_SUFFIX}"
        os.makedirs(self.cache_dir, exist_ok=True)
        cached = os.path.join(self.cache_dir, name)
        if not os.path.exists(cached):
            # Never sweep ``name`` itself: a concurrent worker may have
            # committed it since the check above and be about to map it.
            prefix = f"{run_id}."
            for entry in os.listdir(self.cache_dir):
                if (
                    entry != name
                    and entry.startswith(prefix)
                    and entry.endswith(SEGMENT_SUFFIX)
                ):
                    try:
                        os.remove(os.path.join(self.cache_dir, entry))
                    except OSError:
                        pass
            decompress_segment(path, cached)
        return cached

    def warm_cache(self) -> List[str]:
        """Materialize every run into ``cache_dir`` up front; returns
        the cache paths (``strict=False`` skips unreadable runs)."""
        if self.cache_dir is None:
            raise StoreError("warm_cache() needs a store opened with cache_dir=")
        paths: List[str] = []
        for run_id in self.run_ids():
            try:
                paths.append(self._cached_segment(run_id, self.path_of(run_id)))
            except StoreFormatError as error:
                if self.strict:
                    raise
                self._skip_unreadable(run_id, error)
        return paths

    def read(self, run_id: str) -> SegmentFile:
        """The run's segment file, read whole."""
        path = self.path_of(run_id)
        with open(path, "rb") as handle:
            return SegmentFile(path, handle.read())

    def open(
        self, run_id: str, read: Optional[SegmentFile] = None
    ) -> SegmentReader:
        """A lazy reader for one run.  ``read`` is the run's
        :meth:`read`, when the caller has it: the reader parses those
        bytes.  With ``cache_dir`` set, the run opens its mmap-backed
        uncompressed cache copy instead."""
        path = self.path_of(run_id)
        if self.cache_dir is not None:
            return SegmentReader.open(
                self._cached_segment(run_id, path), use_mmap=True
            )
        return SegmentReader.open(path if read is None else read)

    def open_runs(
        self, read: Optional[Mapping[str, Optional[SegmentFile]]] = None
    ) -> Dict[str, SegmentReader]:
        """Run id -> reader for every run, in run-id order (the merge
        order) -- or for the runs of ``read``, each run's :meth:`read`,
        parsed from the bytes it holds.

        ``strict=False`` skips runs whose files fail to parse
        (truncated, corrupt, unknown version) with a warning instead of
        raising, so the rest of the store stays synthesizable.
        """
        if read is None:
            read = dict.fromkeys(self.run_ids())
        opened: Dict[str, SegmentReader] = {}
        for run_id, segment in read.items():
            try:
                opened[run_id] = self.open(run_id, segment)
            except StoreFormatError as error:
                if self.strict:
                    raise
                self._skip_unreadable(run_id, error)
        return opened

    def readers(self) -> List[SegmentReader]:
        """The :meth:`open_runs` readers, in run-id order."""
        return list(self.open_runs().values())

    def resolve_runs(
        self,
        opened: Optional[Dict[str, SegmentReader]] = None,
        resolve: Callable[[SegmentReader], ResolvedRun] = resolve_run,
    ) -> Dict[str, ResolvedRun]:
        """Run id -> the run's reader with its columns resolved, in
        run-id order, for the ``opened`` readers (default:
        :meth:`open_runs`).  ``resolve`` is
        :func:`~repro.store.index.resolve_run` (every section a
        synthesis reads), or a narrower resolve for a build that reads
        fewer sections.

        Resolving diagnoses what the open cannot see (an id past its
        table, a ts column out of order or too wide for Alg. 2), so
        ``strict`` governs it as it governs the open: ``strict=False``
        skips such a run with the same warning."""
        if opened is None:
            opened = self.open_runs()
        resolved: Dict[str, ResolvedRun] = {}
        for run_id, reader in opened.items():
            try:
                resolved[run_id] = resolve(reader)
            except StoreFormatError as error:
                if self.strict:
                    raise
                self._skip_unreadable(run_id, error)
        return resolved

    def load(self, run_id: str) -> Trace:
        return self.open(run_id).to_trace()

    def merged_trace(self) -> Trace:
        """All runs merged chronologically (Fig. 2's merge-traces path)."""
        return Trace.merge([self.load(run_id) for run_id in self.run_ids()])

    def to_database(self) -> TraceDatabase:
        """Materialize everything into an in-memory database."""
        database = TraceDatabase()
        for run_id in self.run_ids():
            database.add(run_id, self.load(run_id))
        return database

    # -- writing -----------------------------------------------------------

    def add_trace(self, run_id: str, trace: Trace) -> str:
        """Write one run as a segment; returns the path.

        Refuses *any* existing run id: writing a segment over an
        unconverted ``.trace.json.gz`` run would shadow it with
        different content (the segment wins name resolution), which is
        data loss in all but name.
        """
        if run_id in self._files:
            raise ValueError(
                f"run {run_id!r} already stored as {self._files[run_id]!r}"
            )
        name = f"{run_id}{SEGMENT_SUFFIX}"
        write_segment(trace, os.path.join(self.directory, name))
        self._files[run_id] = name
        return os.path.join(self.directory, name)

    @classmethod
    def create(cls, directory: str) -> "TraceStore":
        os.makedirs(directory, exist_ok=True)
        return cls(directory, allow_empty=True)

    # -- conversion --------------------------------------------------------

    def convert_legacy(
        self, remove: bool = False, upgrade: bool = False
    ) -> List[str]:
        """Re-encode stored runs into current-format (v3) segments
        (idempotent); returns the written paths.  The one reader of
        gzip-JSON traces.

        By default only ``.trace.json.gz`` runs convert (one that a
        segment of the same id shadows is already converted).
        ``upgrade=True`` additionally re-encodes segments older than the
        current format -- the v1/v2 -> v3 upgrade path (current
        segments are left untouched, so re-running is a no-op).
        ``remove=True`` deletes the gzip-JSON originals after
        conversion.  Every segment is written through
        :func:`write_segment`'s staging file and atomic rename, so an
        interrupted upgrade never truncates the only copy of a run and a
        corrupt gzip-JSON trace leaves no segment behind.
        """
        written: List[str] = []
        for run_id in self.run_ids():
            path = self.path_of(run_id)
            if path.endswith(TRACE_SUFFIX):
                trace = _load_legacy(path)
                name = f"{run_id}{SEGMENT_SUFFIX}"
                segment = os.path.join(self.directory, name)
                write_segment(trace, segment)
                self._files[run_id] = name
                written.append(segment)
                if remove:
                    os.remove(path)
            elif upgrade and peek_header(path)[0] < VERSION:
                write_segment(self.load(run_id), path)
                written.append(path)
        return written


def convert_database(
    directory: str, remove: bool = False, upgrade: bool = False
) -> List[str]:
    """Convert a directory's gzip-JSON traces into segments in place
    (and with ``upgrade=True`` also lift older segments to v3)."""
    return TraceStore(directory).convert_legacy(remove=remove, upgrade=upgrade)


def save_database_binary(database: TraceDatabase, directory: str) -> List[str]:
    """Write every run of an in-memory database as segments: the one way
    to persist a :class:`TraceDatabase` (:meth:`TraceStore.to_database`
    or :class:`StoreDatabase` loads it back)."""
    store = TraceStore.create(directory)
    return [
        store.add_trace(run_id, database.get(run_id))
        for run_id in database.run_ids()
    ]


class StoreDatabase(TraceDatabase):
    """Store-backed :class:`TraceDatabase`: lazy reads, write-through adds.

    ``get``/``traces``/``merged`` materialize runs from the store on
    first use (optionally caching them); ``add`` writes a binary segment
    and keeps nothing in memory unless caching is on.
    """

    def __init__(self, store: StoreLike, cache: bool = True):
        super().__init__()
        self.store = as_store(store)
        self._cache = cache

    def run_ids(self) -> List[str]:
        ids = set(self.store.run_ids())
        ids.update(self._traces)
        return sorted(ids)

    def add(self, run_id: str, trace: Trace) -> None:
        if run_id in self.store:
            raise ValueError(f"run {run_id!r} already stored")
        self.store.add_trace(run_id, trace)
        if self._cache:
            self._traces[run_id] = trace

    def get(self, run_id: str) -> Trace:
        trace = self._traces.get(run_id)
        if trace is None:
            trace = self.store.load(run_id)
            if self._cache:
                self._traces[run_id] = trace
        return trace

    def traces(self) -> List[Trace]:
        return [self.get(run_id) for run_id in self.run_ids()]

    def __len__(self) -> int:
        return len(self.run_ids())

    def to_dict(self) -> Dict[str, dict]:
        return {run_id: self.get(run_id).to_dict() for run_id in self.run_ids()}
