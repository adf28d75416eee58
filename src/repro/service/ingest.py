"""Segment ingestion: validate, commit atomically, watch a drop dir.

:class:`IngestSpool` is the network/queue-facing twin of
:class:`~repro.store.writer.SegmentSpool`: where the spool *produces*
``.trace.bin`` bytes from live simulation events, the ingest spool
*accepts* already-encoded segment bytes from elsewhere (a socket put,
a file dropped by another process) and commits them into a
:class:`~repro.store.database.TraceStore`.  Every commit fully
validates the bytes first: a :class:`~repro.store.reader.SegmentReader`
over them checks the header and the section directory, and
:func:`~repro.store.index.resolve_run` decodes every section the live
fold reads.  The commit lands via a same-directory tmp file +
``os.replace``, so concurrent store readers never observe a partial or
malformed segment, and it hands the decoded run on
(:attr:`IngestResult.resolved`), so the fold inflates nothing again.

:class:`DropDirWatcher` polls a drop directory for ``*.trace.bin``
files.  A file that fails validation is *not* rejected immediately --
it may simply still be mid-write by a non-atomic producer -- it is
rejected (renamed aside with a ``.rejected`` suffix) only once a later
poll sees it unchanged and still invalid.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..store.database import TraceStore
from ..store.format import SEGMENT_SUFFIX, StoreFormatError
from ..store.index import ResolvedRun, resolve_run
from ..store.reader import SegmentReader
from ..store.writer import segment_path


class IngestError(ValueError):
    """A segment that must not be committed (bad bytes, bad run id,
    duplicate run)."""


_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def validate_run_id(run_id: str) -> str:
    """A run id usable as a file stem: no path separators, no leading
    dot, nothing that could escape the store directory."""
    if not isinstance(run_id, str) or not _RUN_ID_RE.match(run_id):
        raise IngestError(
            f"invalid run id {run_id!r}: need a plain file-stem "
            "([A-Za-z0-9._-], not starting with a dot)"
        )
    return run_id


@dataclass(frozen=True)
class IngestResult:
    """One committed segment."""

    run_id: str
    path: str
    events: int
    bytes_written: int
    #: the validated segment, decoded: what the live fold consumes.
    resolved: ResolvedRun = field(repr=False, compare=False)


class IngestSpool:
    """Validating, atomically-committing segment acceptor for a store."""

    def __init__(self, store: TraceStore):
        self.store = store
        self.committed = 0

    def validate_bytes(self, run_id: str, data: bytes) -> ResolvedRun:
        """Full validation: the run id, then every section the live fold
        reads, decoded (:func:`~repro.store.index.resolve_run`).
        Returns the decoded run; raises :class:`IngestError` for
        anything that must not land in the store."""
        validate_run_id(run_id)
        if run_id in self.store:
            raise IngestError(
                f"run {run_id!r} already stored as "
                f"{os.path.basename(self.store.path_of(run_id))!r}"
            )
        try:
            return resolve_run(SegmentReader(data, path=f"<ingest:{run_id}>"))
        except StoreFormatError as error:
            raise IngestError(str(error)) from None

    def commit_bytes(self, run_id: str, data: bytes) -> IngestResult:
        """Validate and atomically land one segment; refreshes the
        store handle so the new run is immediately listable."""
        resolved = self.validate_bytes(run_id, data)
        dst = segment_path(self.store.directory, run_id)
        staging = f"{dst}.{os.getpid()}.ingest.tmp"
        try:
            with open(staging, "wb") as handle:
                handle.write(data)
            os.replace(staging, dst)
        finally:
            if os.path.exists(staging):
                try:
                    os.remove(staging)
                except OSError:  # pragma: no cover - cleanup best effort
                    pass
        self.store.refresh()
        self.committed += 1
        return IngestResult(
            run_id=run_id,
            path=dst,
            events=resolved.events,
            bytes_written=len(data),
            resolved=resolved,
        )

    def commit_file(
        self, path: str, run_id: Optional[str] = None, remove: bool = False
    ) -> IngestResult:
        """Commit a segment file from outside the store (run id defaults
        to the file stem); ``remove=True`` deletes the source after a
        successful commit."""
        if run_id is None:
            name = os.path.basename(path)
            if not name.endswith(SEGMENT_SUFFIX):
                raise IngestError(
                    f"{path!r} does not end in {SEGMENT_SUFFIX!r}; "
                    "pass an explicit run id"
                )
            run_id = name[: -len(SEGMENT_SUFFIX)]
        with open(path, "rb") as handle:
            data = handle.read()
        result = self.commit_bytes(run_id, data)
        if remove:
            os.remove(path)
        return result


class DropDirWatcher:
    """Poll a drop directory and commit arriving segments.

    Committed files are removed from the drop dir.  Invalid files are
    held one poll cycle (a non-atomic writer may still be appending)
    and rejected -- renamed to ``<name>.rejected`` -- only when a later
    poll finds them byte-stable and still invalid.
    """

    def __init__(
        self,
        spool: IngestSpool,
        drop_dir: str,
        on_reject: Optional[Callable[[str, IngestError], None]] = None,
    ):
        self.spool = spool
        self.drop_dir = os.fspath(drop_dir)
        self.on_reject = on_reject
        self.rejected = 0
        #: name -> (size, mtime_ns) of the last *failed* validation, so
        #: a second identical failure distinguishes "corrupt" from
        #: "still being written".
        self._failed: Dict[str, Tuple[int, int]] = {}
        os.makedirs(self.drop_dir, exist_ok=True)

    def poll(self) -> List[IngestResult]:
        results: List[IngestResult] = []
        for name in sorted(os.listdir(self.drop_dir)):
            if not name.endswith(SEGMENT_SUFFIX):
                continue
            path = os.path.join(self.drop_dir, name)
            run_id = name[: -len(SEGMENT_SUFFIX)]
            try:
                stat = os.stat(path)
            except OSError:
                continue  # raced with its producer; next poll sees it
            signature = (stat.st_size, stat.st_mtime_ns)
            try:
                result = self.spool.commit_file(path, run_id=run_id)
            except IngestError as error:
                if self._failed.get(name) == signature:
                    del self._failed[name]
                    os.replace(path, f"{path}.rejected")
                    self.rejected += 1
                    if self.on_reject is not None:
                        self.on_reject(run_id, error)
                else:
                    self._failed[name] = signature
                continue
            except OSError:
                continue  # vanished mid-read; next poll settles it
            self._failed.pop(name, None)
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - already gone
                pass
            results.append(result)
        return results
