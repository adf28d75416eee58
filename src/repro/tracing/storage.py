"""The gzip-JSON trace format: one ``Trace.to_dict`` document per file.

This is an import format.  A trace store keeps its runs as binary
segments (:mod:`repro.store`), and ``repro convert``
(``TraceStore.convert_legacy``) is the one reader of gzip-JSON traces
left in a store directory.  The format round-trips losslessly through
``Trace.to_dict`` / ``Trace.from_dict``; the decode-throughput
comparison of ``repro perf`` still writes and reads it.
"""

from __future__ import annotations

import gzip
import json

from .session import Trace

#: File suffix of gzip-JSON traces.
TRACE_SUFFIX = ".trace.json.gz"


def save_trace(trace: Trace, path: str) -> None:
    """Write one trace to ``path`` (gzip JSON)."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(trace.to_dict(), handle)


def load_trace(path: str) -> Trace:
    """Read one trace back."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return Trace.from_dict(json.load(handle))
