"""``repro.service``: the live synthesis service.

The batch pipeline (record a store, synthesize it from scratch) turned
into a long-running ingest + query system, in four layers:

* **ingestion** (:mod:`~repro.service.ingest`): :class:`IngestSpool`
  validates and atomically commits ``.trace.bin`` segments arriving
  over the socket or a watched drop directory;
* **incremental maintenance** (:mod:`~repro.service.live`):
  :class:`LiveSynthesizer` turns each commit into a fragment of its own
  run -- its walk over a one-run
  :class:`~repro.store.index.StoreTraceIndex`, the index the batch
  pipeline builds, folded, plus its latency fragment -- and merges the
  retained runs' folds into the model, or, for a window they cannot
  assemble, runs the batch synthesis over the retained runs:
  byte-identical to a from-scratch ``synthesize_from_store`` at every
  commit point, and a windowed eviction for unbounded streams just
  drops the oldest run's fragment;
* **api/worker split** (:mod:`~repro.service.server` /
  :mod:`~repro.service.state`): :class:`SynthesisService` runs the
  ingest worker and hands out :class:`ServiceState` snapshots that
  answer ``model`` / ``chains`` / ``latency`` / ``store-info`` queries
  off the lock;
* **observability** (:class:`~repro.service.live.ServiceCounters`):
  ingest/eviction/fragment/rebuild counters behind the ``status``
  query and ``repro perf``'s ``service.ingest`` bench section.

Quickstart::

    repro serve traces/ --socket 127.0.0.1:7317 --drop-dir incoming/
    repro record avp --runs 16 --push 127.0.0.1:7317
    repro query 127.0.0.1:7317 model --format dot --out live.dot
"""

from .client import ServiceClient, ServiceError
from .ingest import DropDirWatcher, IngestError, IngestResult, IngestSpool
from .live import LiveSynthesizer, ServiceCounters
from .protocol import ProtocolError, parse_address
from .server import DEFAULT_POLL_INTERVAL_S, SynthesisService
from .state import MODEL_FORMATS, ServiceState

__all__ = [
    "ServiceClient",
    "ServiceError",
    "DropDirWatcher",
    "IngestError",
    "IngestResult",
    "IngestSpool",
    "LiveSynthesizer",
    "ServiceCounters",
    "ProtocolError",
    "parse_address",
    "DEFAULT_POLL_INTERVAL_S",
    "SynthesisService",
    "MODEL_FORMATS",
    "ServiceState",
]
