"""The ingest worker: a long-running synthesis service over one store.

:class:`SynthesisService` ties the layers together: an
:class:`~repro.service.ingest.IngestSpool` commits arriving segments
(socket ``put`` requests and/or a watched drop directory) into the
store, a :class:`~repro.service.live.LiveSynthesizer` folds each commit
into the incrementally maintained model, and queries are answered from
:class:`~repro.service.state.ServiceState` snapshots taken under the
service lock.  The socket listener is thread-per-connection; ingest
and snapshot-taking serialize on one lock, while snapshot
*consumption* (model rendering, chains, store info) runs outside it.
A latency query takes a :class:`~repro.service.live.LatencyView` under
the lock, follows the chain outside it, and folds the journeys it
followed back in under the lock again.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.gcpause import paused_gc
from ..store.database import TraceStore
from .ingest import DropDirWatcher, IngestError, IngestSpool
from .live import LiveSynthesizer, ServiceCounters
from .protocol import (
    ProtocolError,
    bind_server_socket,
    recv_message,
    send_message,
)
from .state import MODEL_FORMATS, ServiceState, latency_summary

#: Default drop-dir / store re-scan cadence.
DEFAULT_POLL_INTERVAL_S = 0.5

#: Longest a client connection may sit silent mid-exchange before its
#: thread gives up on it.  ``ServiceClient`` opens one connection per
#: request, so only a stalled peer ever waits this long.
CLIENT_TIMEOUT_S = 30.0


def _string_list(payload: Dict[str, Any], key: str) -> Optional[List[str]]:
    """Request field ``key`` as a list of strings (``None`` when absent
    or empty); any other value is a :class:`ValueError` the client is
    told about."""
    value = payload.get(key)
    if value is None or value == []:
        return None
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"{key} must be a list of strings, got {value!r}")
    return value


class SynthesisService:
    """Streaming ingest + incremental synthesis over one trace store."""

    def __init__(
        self,
        directory: str,
        retain_window: Optional[int] = None,
        drop_dir: Optional[str] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL_S,
        split_services: bool = True,
        model_sync: bool = True,
        log: Optional[Callable[[str], None]] = None,
    ):
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.directory = os.fspath(directory)
        self.poll_interval = poll_interval
        self._log = log if log is not None else (lambda message: None)
        self.store = TraceStore.create(self.directory)
        self.counters = ServiceCounters()
        self.live = LiveSynthesizer(
            self.store,
            retain_window=retain_window,
            split_services=split_services,
            model_sync=model_sync,
            counters=self.counters,
        )
        self.spool = IngestSpool(self.store)
        self.watcher = (
            DropDirWatcher(self.spool, drop_dir, on_reject=self._on_reject)
            if drop_dir is not None
            else None
        )
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._started = time.monotonic()
        self.endpoint: Optional[str] = None
        # Catch up on whatever the store already holds before serving.
        with self._lock:
            caught_up = self.live.refresh()
        if caught_up:
            self._log(f"caught up on {len(caught_up)} stored run(s)")

    def _on_reject(self, run_id: str, error: IngestError) -> None:
        self.counters.segments_rejected += 1
        self._log(f"rejected dropped segment {run_id!r}: {error}")

    # -- ingest ------------------------------------------------------------

    @paused_gc()
    def ingest_bytes(self, run_id: str, data: bytes) -> Dict[str, Any]:
        """Commit + fold one pushed segment (the socket ``put`` path),
        its validating decode included, with the cyclic collector
        paused."""
        with self._lock:
            try:
                result = self.spool.commit_bytes(run_id, data)
            except IngestError:
                self.counters.segments_rejected += 1
                raise
            self.live.ingest(run_id, result.resolved)
        self._log(
            f"ingested {run_id!r}: {result.events} events, "
            f"{result.bytes_written} bytes"
        )
        return {
            "run_id": result.run_id,
            "events": result.events,
            "bytes": result.bytes_written,
        }

    def poll_once(self) -> int:
        """One worker-loop turn: drain the drop dir, then pick up runs
        other processes wrote straight into the store directory.
        Returns how many runs were folded in."""
        with self._lock:
            committed = self.watcher.poll() if self.watcher is not None else []
            for result in committed:
                self.live.ingest(result.run_id, result.resolved)
                self._log(
                    f"ingested dropped {result.run_id!r}: "
                    f"{result.events} events"
                )
            external = self.live.refresh()
        for run_id in external:
            self._log(f"ingested external {run_id!r}")
        return len(committed) + len(external)

    # -- queries -----------------------------------------------------------

    def state(self, json_samples: bool = False) -> ServiceState:
        """A consistent snapshot (model built under the lock, consumed
        outside it); ``json_samples`` adds the retained runs' rendered
        sample lists, which a model JSON export joins."""
        with self._lock:
            return ServiceState(
                directory=self.directory,
                run_ids=self.live.run_ids,
                dag=self.live.model(),
                samples=self.live.model_samples() if json_samples else None,
                counters=self.counters.as_dict(),
                retain_window=self.live.retain_window,
                endpoint=self.endpoint,
                uptime_s=time.monotonic() - self._started,
            )

    def latency_summary(self, topics: List[str]) -> Dict[str, Any]:
        """Chain-latency stats over the retained runs.  The lock is held
        only to take the query's view and to keep what it built; the
        chain is followed outside it."""
        with self._lock:
            view = self.live.latency_view(topics)
        summary = latency_summary(
            topics, view.index(), view.journeys, view.separable
        )
        with self._lock:
            self.live.keep_latency(view)
        return summary

    def handle_request(
        self, payload: Dict[str, Any], body: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        """Dispatch one protocol request; returns ``(response, body)``."""
        command = payload.get("cmd")
        with self._lock:
            self.counters.queries_served += 1
        if command == "ping":
            return {"ok": True, "pong": True}, b""
        if command == "put":
            run_id = payload.get("run_id")
            if not run_id:
                raise IngestError("put needs a run_id")
            return {"ok": True, **self.ingest_bytes(run_id, body)}, b""
        if command == "shutdown":
            self.request_shutdown()
            return {"ok": True, "stopping": True}, b""
        if command == "status":
            return {"ok": True, **self.state().status()}, b""
        if command == "model":
            fmt = payload.get("format", "dot")
            if fmt not in MODEL_FORMATS:
                raise ValueError(
                    f"unknown model format {fmt!r}; expected one of "
                    f"{', '.join(MODEL_FORMATS)}"
                )
            text = self.state(json_samples=fmt == "json").model_text(fmt)
            return {"ok": True, "format": fmt}, text.encode()
        if command == "chains":
            sources = _string_list(payload, "sources")
            sinks = _string_list(payload, "sinks")
            state = self.state()
            chains = state.chains(sources=sources, sinks=sinks)
            return (
                {"ok": True, "chains": [list(chain.keys) for chain in chains]},
                state.chains_text(sources=sources, sinks=sinks).encode(),
            )
        if command == "latency":
            topics = _string_list(payload, "topics")
            if not topics:
                raise ValueError("latency needs topics")
            return {"ok": True, **self.latency_summary(topics)}, b""
        if command == "store-info":
            return {"ok": True, **self.state().store_info()}, b""
        raise ValueError(f"unknown command {command!r}")

    # -- lifecycle ---------------------------------------------------------

    def request_shutdown(self) -> None:
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def _serve_client(self, conn: socket.socket, peer: str) -> None:
        conn.settimeout(CLIENT_TIMEOUT_S)
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            while not self._stop.is_set():
                message = recv_message(rfile)
                if message is None:
                    break
                payload, body = message
                try:
                    response, response_body = self.handle_request(payload, body)
                except (IngestError, ValueError) as error:
                    response, response_body = (
                        {"ok": False, "error": str(error)},
                        b"",
                    )
                except Exception as error:  # answer, never drop the peer
                    with self._lock:
                        self.counters.internal_errors += 1
                    self._log(
                        f"client {peer}: internal error in "
                        f"{payload.get('cmd')!r}:\n{traceback.format_exc()}"
                    )
                    response, response_body = (
                        {
                            "ok": False,
                            "kind": "internal",
                            "error": f"internal error: {error!r}",
                        },
                        b"",
                    )
                send_message(wfile, response, response_body)
                if payload.get("cmd") == "shutdown":
                    break
        except socket.timeout:
            self._log(f"client {peer}: stalled for {CLIENT_TIMEOUT_S}s; closed")
        except (ProtocolError, OSError) as error:
            self._log(f"client {peer}: {error}")
        finally:
            for handle in (rfile, wfile, conn):
                try:
                    handle.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.poll_once()
            except Exception as error:  # keep the worker alive
                self._log(f"poll error: {error}")

    def serve_forever(
        self,
        address: str,
        ready: Optional[Callable[[str], None]] = None,
        max_seconds: Optional[float] = None,
    ) -> ServiceCounters:
        """Bind ``address`` and serve until ``shutdown`` (or
        ``max_seconds`` elapses); returns the final counters.

        ``ready`` is called with the actual bound address once the
        socket is listening -- how callers learn an ephemeral port.
        """
        sock, bound = bind_server_socket(address)
        self.endpoint = bound
        self._log(f"listening on {bound}")
        if ready is not None:
            ready(bound)
        poller = threading.Thread(
            target=self._poll_loop, name="repro-serve-poll", daemon=True
        )
        poller.start()
        deadline = (
            time.monotonic() + max_seconds if max_seconds is not None else None
        )
        sock.settimeout(0.2)
        clients = []
        try:
            while not self._stop.is_set():
                if deadline is not None and time.monotonic() >= deadline:
                    self._log(f"max runtime {max_seconds}s reached; stopping")
                    self._stop.set()
                    break
                try:
                    conn, peer = sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_client,
                    args=(conn, str(peer)),
                    name="repro-serve-client",
                    daemon=True,
                )
                thread.start()
                clients.append(thread)
        finally:
            self._stop.set()
            sock.close()
            kind_is_unix = not (
                ":" in bound and bound.rsplit(":", 1)[1].isdigit()
            )
            if kind_is_unix:
                try:
                    os.remove(bound)
                except OSError:  # pragma: no cover - already gone
                    pass
            poller.join(timeout=5.0)
            for thread in clients:
                thread.join(timeout=1.0)
        self._log("shutdown complete")
        return self.counters
