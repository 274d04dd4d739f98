"""Remote-worker fabric backend: many hosts, one byte-identical sweep.

Two halves:

* :class:`WorkerServer` — what ``parole worker serve`` runs.  Listens
  for :class:`RemoteRunner` connections, validates the handshake (env
  fingerprint + source-tree digest; see :mod:`.protocol`), then
  executes ``chunk`` frames through :func:`~.worker.run_chunk` — in a
  single worker thread by default, or its own process pool with
  ``jobs > 1`` (advertised to the client as ``slots`` so the scheduler
  keeps that many chunks in flight).  Heartbeat ``ping`` frames are
  answered while chunks execute.  A dropped client never kills the
  server: it returns to ``accept`` and serves the reconnect.

* :class:`RemoteRunner` — the fabric runner
  (:class:`~.fabric.StealingRunner`) with socket endpoints: one or more
  ``host:port`` workers driven by the same
  :class:`~.scheduler.WorkStealingScheduler` as local pipe workers —
  LPT local queues per endpoint, adaptive chunks, steal-half
  rebalancing, and churn handling: a worker that disconnects or times
  out has its tasks requeued (exactly once) and is reconnected with
  backoff.  Combined with a shared content-addressed
  :class:`~repro.store.ResultStore` (``store=``), many coordinator
  runs on many hosts dedupe against the same cache: the coordinator
  consults the store before dispatch and persists single-winner as
  results arrive — the store's atomic-rename writes were built for
  exactly this.

Determinism: submission-order reassembly + explicit task seeds + the
handshake's refusal of mismatched python/numpy/source mean a sweep's
output is byte-identical no matter which host ran which task
(``tests/parallel/test_remote.py``, ``test_determinism_chaos.py``).
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ParallelError
from ..store import ResultStore
from ..telemetry import get_metrics, get_tracer
from .fabric import StealingRunner, parse_worker_addresses
from .protocol import (
    ConnectionClosed,
    HandshakeRefused,
    ProtocolError,
    decode_entries,
    encode_entries,
    encode_outcomes,
    decode_outcomes,
    fabric_token,
    handshake_mismatch,
    hello_message,
    recv_frame,
    send_frame,
)
from .scheduler import EndpointDied, TaskCostModel, WorkerEndpoint
from .worker import ChunkPayload, ChunkResult, init_worker, run_chunk

__all__ = ["WorkerServer", "RemoteRunner"]

logger = logging.getLogger(__name__)

Address = Tuple[str, int]

_LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1")


def _run_chunk_frame(message: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one decoded ``chunk`` frame; returns the ``result`` frame.

    Module-level so the server's process-pool path can ship it to a
    child under ``spawn`` as well as ``fork``.
    """
    try:
        entries = decode_entries(message["entries"])
    except ProtocolError as exc:
        # A chunk this host *cannot decode* (unimportable function,
        # unknown codec tag) fails the same way on every retry — ship
        # it back as per-task errors so the scheduler records the
        # failure instead of burying the endpoint and retrying forever.
        from .worker import TaskError

        return {
            "type": "result",
            "chunk_id": message["chunk_id"],
            "outcomes": encode_outcomes(
                [
                    (
                        int(item["index"]),
                        None,
                        TaskError(
                            exc_type="ProtocolError",
                            message=str(exc),
                            traceback="",
                        ),
                    )
                    for item in message["entries"]
                ]
            ),
            "task_seconds": [],
            "elapsed_seconds": 0.0,
            "pid": os.getpid(),
            "metrics_state": None,
            "spans": [],
        }
    payload = ChunkPayload(
        tasks=tuple(entries),
        capture_telemetry=bool(message.get("capture", False)),
        span_buffer_size=int(message.get("span_buffer", 4096)),
    )
    result = run_chunk(payload)
    return {
        "type": "result",
        "chunk_id": message["chunk_id"],
        "outcomes": encode_outcomes(result.outcomes),
        "task_seconds": list(result.task_seconds),
        "elapsed_seconds": result.elapsed_seconds,
        "pid": result.pid,
        "metrics_state": result.metrics_state,
        "spans": result.spans,
    }


class WorkerServer:
    """``parole worker serve``: one fabric worker host.

    ``jobs`` sets the host's parallelism (and the advertised ``slots``).
    ``max_chunks_per_connection`` hard-closes a connection after N
    served chunks — the churn-injection hook the determinism tests use
    to prove reassignment is loss-free and single-winner.  ``once``
    stops the server when its first client disconnects (handy for
    bounded CI soaks).  ``token`` (default ``$PAROLE_FABRIC_TOKEN``)
    makes the handshake require that shared secret; without one the
    server should only bind loopback or a trusted network (see the
    trust-model note in :mod:`.protocol`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        max_chunks_per_connection: Optional[int] = None,
        once: bool = False,
        token: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.max_chunks_per_connection = max_chunks_per_connection
        self.once = once
        self.token = token
        self.chunks_served = 0
        self.connections_served = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._executor = None
        #: Guards executor creation and the served counters — both are
        #: touched from per-connection handler threads.
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------

    def _ensure_executor(self):
        with self._lock:
            if self._executor is None:
                if self.jobs > 1:
                    from concurrent.futures import ProcessPoolExecutor

                    self._executor = ProcessPoolExecutor(
                        max_workers=self.jobs, initializer=init_worker
                    )
                else:
                    from concurrent.futures import ThreadPoolExecutor

                    self._executor = ThreadPoolExecutor(max_workers=1)
            return self._executor

    def start(self) -> Address:
        """Bind, listen and serve on a background thread.

        Returns the bound ``(host, port)`` — useful with ``port=0``.
        """
        if self._listener is not None:
            raise ParallelError("worker server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(8)
        listener.settimeout(0.25)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        if (
            self.host not in _LOOPBACK_HOSTS
            and (self.token or fabric_token()) is None
        ):
            logger.warning(
                "fabric worker listening on %s:%s without an "
                "authentication token: any peer with a repo checkout can "
                "submit work; set %s or --token, or bind loopback",
                self.host,
                self.port,
                "PAROLE_FABRIC_TOKEN",
            )
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="parole-worker-accept", daemon=True
        )
        self._accept_thread.start()
        return (self.host, self.port)

    def wait(self) -> None:
        """Block until :meth:`stop` is called (or ``once`` fires)."""
        while not self._stop.wait(0.5):
            pass

    def serve_forever(self) -> None:
        """Blocking entry point for the CLI."""
        self.start()
        try:
            self.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def __enter__(self) -> "WorkerServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- serving -----------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="parole-worker-conn",
                daemon=True,
            )
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            self._serve_connection(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self.connections_served += 1
            if self.once:
                self._stop.set()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        try:
            hello = recv_frame(conn)
        except ProtocolError:
            return
        if hello.get("type") != "hello":
            send_frame(
                conn, {"type": "reject", "reason": "expected hello frame"}
            )
            return
        reason = handshake_mismatch(hello, token=self.token)
        if reason is not None:
            send_frame(conn, {"type": "reject", "reason": reason})
            return
        send_frame(
            conn,
            {"type": "welcome", "slots": self.jobs, "pid": os.getpid()},
        )
        send_lock = threading.Lock()
        served_here = 0
        pending: List[Any] = []

        def _send_result(frame: Dict[str, Any]) -> None:
            with send_lock:
                send_frame(conn, frame)

        while not self._stop.is_set():
            try:
                message = recv_frame(conn)
            except ProtocolError:
                break
            kind = message.get("type")
            if kind == "ping":
                with send_lock:
                    send_frame(conn, {"type": "pong"})
            elif kind == "shutdown":
                break
            elif kind == "chunk":
                served_here += 1
                with self._lock:
                    self.chunks_served += 1
                limit = self.max_chunks_per_connection
                executor = self._ensure_executor()
                if self.jobs > 1:
                    future = executor.submit(_run_chunk_frame, message)
                else:
                    future = executor.submit(self._run_chunk_local, message)
                last = limit is not None and served_here >= limit

                def _done(completed, _last=last):
                    try:
                        frame = completed.result()
                    except BaseException as exc:  # noqa: BLE001
                        frame = {
                            "type": "error",
                            "reason": f"{type(exc).__name__}: {exc}",
                        }
                    try:
                        _send_result(frame)
                    except OSError:
                        return
                    if _last:
                        # Churn hook: hard-close after the final chunk;
                        # the client sees a disconnect and must
                        # reconnect or reassign.
                        try:
                            conn.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass

                future.add_done_callback(_done)
                pending.append(future)
                if last:
                    break
            else:
                with send_lock:
                    send_frame(
                        conn,
                        {
                            "type": "error",
                            "reason": f"unknown frame type {kind!r}",
                        },
                    )
        for future in pending:
            try:
                future.result(timeout=60.0)
            except BaseException:  # noqa: BLE001 - already reported inline
                pass

    @staticmethod
    def _run_chunk_local(message: Dict[str, Any]) -> Dict[str, Any]:
        return _run_chunk_frame(message)


class _RemoteEndpoint(WorkerEndpoint):
    """Client side of one ``parole worker serve`` connection."""

    def __init__(
        self,
        address: Address,
        connect_timeout: float = 10.0,
        heartbeat_interval: float = 15.0,
        heartbeat_timeout: float = 60.0,
        reconnect_attempts: int = 2,
        reconnect_backoff: float = 0.2,
        token: Optional[str] = None,
    ) -> None:
        self.address = address
        self.ident = f"{address[0]}:{address[1]}"
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.reconnect_attempts = max(0, reconnect_attempts)
        self.reconnect_backoff = reconnect_backoff
        self.token = token
        self.slots = 1
        self._sock: Optional[socket.socket] = None
        self._last_rx = 0.0
        self._ping_sent: Optional[float] = None
        self._connect()

    def _connect(self) -> None:
        sock = socket.create_connection(
            self.address, timeout=self.connect_timeout
        )
        try:
            sock.settimeout(self.connect_timeout)
            hello = hello_message()
            if self.token is not None:
                hello["token"] = self.token
            send_frame(sock, hello)
            reply = recv_frame(sock)
            if reply.get("type") == "reject":
                raise HandshakeRefused(
                    f"worker {self.ident} refused the handshake: "
                    f"{reply.get('reason', 'no reason given')}"
                )
            if reply.get("type") != "welcome":
                raise ProtocolError(
                    f"worker {self.ident} answered the handshake with "
                    f"{reply.get('type')!r}"
                )
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        self.slots = max(1, int(reply.get("slots", 1)))
        self._sock = sock
        self._last_rx = time.perf_counter()
        self._ping_sent = None

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def waitable(self):
        return self._sock

    def send_chunk(self, chunk_id, entries, capture_telemetry, span_buffer_size):
        if self._sock is None:
            raise EndpointDied(f"{self.ident}: connection is closed")
        try:
            send_frame(
                self._sock,
                {
                    "type": "chunk",
                    "chunk_id": chunk_id,
                    "entries": encode_entries(entries),
                    "capture": capture_telemetry,
                    "span_buffer": span_buffer_size,
                },
            )
        except OSError as exc:
            raise EndpointDied(f"{self.ident}: {exc}") from exc

    def recv_outcome(self):
        if self._sock is None:
            raise EndpointDied(f"{self.ident}: connection is closed")
        try:
            frame = recv_frame(self._sock)
        except (ConnectionClosed, OSError) as exc:
            raise EndpointDied(f"{self.ident}: {exc}") from exc
        self._last_rx = time.perf_counter()
        self._ping_sent = None
        kind = frame.get("type")
        if kind == "pong":
            return None
        if kind == "error":
            raise EndpointDied(
                f"{self.ident}: worker reported {frame.get('reason')!r}"
            )
        if kind != "result":
            raise EndpointDied(
                f"{self.ident}: unexpected frame type {kind!r}"
            )
        result = ChunkResult(
            outcomes=decode_outcomes(frame["outcomes"]),
            pid=int(frame.get("pid", 0)),
            elapsed_seconds=float(frame.get("elapsed_seconds", 0.0)),
            metrics_state=frame.get("metrics_state"),
            spans=list(frame.get("spans") or []),
            task_seconds=tuple(frame.get("task_seconds") or ()),
        )
        return int(frame["chunk_id"]), result

    def maintain(self, now: float) -> None:
        if self._sock is None:
            raise EndpointDied(f"{self.ident}: connection is closed")
        if self._ping_sent is not None:
            if now - self._ping_sent > self.heartbeat_timeout:
                raise EndpointDied(
                    f"{self.ident}: no heartbeat answer in "
                    f"{self.heartbeat_timeout:.0f}s"
                )
            return
        if now - self._last_rx > self.heartbeat_interval:
            try:
                send_frame(self._sock, {"type": "ping"})
            except OSError as exc:
                raise EndpointDied(f"{self.ident}: {exc}") from exc
            self._ping_sent = now

    def respawn(self) -> bool:
        self.close()
        for attempt in range(self.reconnect_attempts):
            time.sleep(self.reconnect_backoff * (attempt + 1))
            try:
                self._connect()
                return True
            except (OSError, ProtocolError):
                continue
        return False

    def close(self) -> None:
        if self._sock is not None:
            try:
                send_frame(self._sock, {"type": "shutdown"})
            except (OSError, ProtocolError):
                pass
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


class RemoteRunner(StealingRunner):
    """The fabric runner over socket-connected worker hosts.

    ``addresses`` are ``host:port`` specs or ``(host, port)`` pairs
    naming ``parole worker serve`` processes.  This class only opens
    the sockets: with some hosts down at connect time the runner
    degrades to the reachable subset (recorded as
    ``fabric.worker_unreachable``), with none reachable it raises
    :class:`~repro.errors.ParallelError`, and a handshake refusal fails
    it loudly.  Scheduling, endpoint reuse and telemetry merging are
    :class:`~.fabric.StealingRunner`'s.
    """

    name = "remote"

    def __init__(
        self,
        addresses: Sequence[Union[Address, str]],
        store: Optional[ResultStore] = None,
        cost_model: Optional[TaskCostModel] = None,
        connect_timeout: float = 10.0,
        heartbeat_interval: float = 15.0,
        heartbeat_timeout: float = 60.0,
        reconnect_attempts: int = 2,
        chunk_factor: int = 4,
        min_chunk: int = 1,
        tick_seconds: float = 0.5,
        span_buffer_size: int = 4096,
        token: Optional[str] = None,
    ) -> None:
        self.addresses = parse_worker_addresses(addresses)
        super().__init__(
            max_workers=len(self.addresses),
            span_buffer_size=span_buffer_size,
            store=store,
            cost_model=cost_model,
            chunk_factor=chunk_factor,
            min_chunk=min_chunk,
            tick_seconds=tick_seconds,
        )
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.reconnect_attempts = reconnect_attempts
        self.token = token

    def _open_endpoints(self) -> List[WorkerEndpoint]:
        endpoints: List[WorkerEndpoint] = []
        failures: List[str] = []
        for address in self.addresses:
            try:
                endpoints.append(
                    _RemoteEndpoint(
                        address,
                        connect_timeout=self.connect_timeout,
                        heartbeat_interval=self.heartbeat_interval,
                        heartbeat_timeout=self.heartbeat_timeout,
                        reconnect_attempts=self.reconnect_attempts,
                        token=self.token,
                    )
                )
            except HandshakeRefused:
                # A refusal is a *correctness* signal (wrong code or
                # env on the worker); degrading silently would risk
                # non-identical bytes.  Fail the whole runner loudly.
                for endpoint in endpoints:
                    endpoint.close()
                raise
            except (OSError, ProtocolError) as exc:
                failures.append(f"{address[0]}:{address[1]} ({exc})")
                get_metrics().counter("fabric.worker_unreachable").inc()
        if not endpoints:
            raise ParallelError(
                "no remote workers reachable: " + "; ".join(failures)
            )
        if failures:
            get_tracer().event(
                "fabric.workers_degraded", unreachable=len(failures)
            )
        return endpoints
