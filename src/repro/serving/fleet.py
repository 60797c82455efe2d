"""Shared-nothing serving fleet: one serving process per worker.

A single :class:`~repro.serving.ServingEngine` is bounded by one
Python process.  :class:`ServingFleet` scales the tier *out*: it forks
``workers`` processes, each of which loads the **same persisted store
files** into its own :class:`~repro.serving.CircuitStoreService`,
builds its own :class:`ServingEngine` (response cache, quotas,
micro-batcher, optional cold-compile
:class:`~repro.engine.ConfidenceEngine`), and serves its own HTTP
socket.  Nothing is shared after start-up — no locks, no IPC on the
request path — which is exactly the deployment shape the store codec
was built for: stores are name-based and immutable, so N readers are
as safe as one.

Intern-snapshot shipping is reused from :mod:`repro.engine_parallel`:
each worker replays the coordinator's intern-table snapshot before
touching a store (via
:func:`~repro.engine_parallel.build_worker_engine` when a cold-compile
engine is configured), so id-encoded clauses and dense kernel ids mean
the same thing in every process.

HTTP: each worker binds an ephemeral port and reports it to the
coordinator over a pipe.  The server is uvicorn when installed and
requested (``http_server="uvicorn"``/``"auto"``), otherwise a small
stdlib asyncio HTTP/1.1 bridge over the same ASGI app — keep-alive,
content-length framing, nothing fancy — so the fleet, like the rest of
the library, works from the standard library alone.

Routing: :class:`FleetClient` holds one persistent connection per
worker and routes by **lineage affinity** (stable CRC32 of the wire
lineage), so repeated point queries for the same lineage land on the
same worker's warm :class:`~repro.serving.ResponseCache`; requests
without a lineage round-robin.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.variables import (
    InternSnapshot,
    VariableRegistry,
    install_intern_snapshot,
    intern_snapshot,
)
from ..engine import EngineConfig
from .app import _MAX_BODY_BYTES, ServingApp
from .client import _ClientBase, _decode
from .engine import ServingConfig, ServingEngine
from .errors import ServingError
from .store import CircuitStoreService

__all__ = ["FleetClient", "FleetConfig", "ServingFleet"]

PathLike = Union[str, "os.PathLike[str]"]

#: Most bytes one socket read takes.  asyncio's selector transports read
#: into a fresh ``max_size`` buffer (256 KiB by default), and glibc maps
#: every block of 128 KiB or more on its own, so each read would map,
#: fault in and unmap new pages; a 64 KiB buffer comes from the heap.
_READ_BYTES = 64 * 1024


def _small_reads(writer: asyncio.StreamWriter) -> None:
    """Cap the reads of ``writer``'s transport at :data:`_READ_BYTES`."""
    writer.transport.max_size = _READ_BYTES  # type: ignore[attr-defined]


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

@dataclass(frozen=True)
class FleetConfig:
    """Deployment shape of one :class:`ServingFleet`."""

    #: Worker processes (one serving engine + HTTP socket each).
    workers: int = 2
    host: str = "127.0.0.1"
    #: Per-worker serving knobs (response cache, quotas, batching...).
    serving: ServingConfig = field(default_factory=ServingConfig)
    #: Cold-compile engine built in every worker via
    #: ``engine_parallel.build_worker_engine`` (intern snapshot
    #: replayed first); ``None`` serves stores only — cold lineages
    #: become ``unknown-circuit`` errors.
    engine: Optional[EngineConfig] = field(default_factory=EngineConfig)
    #: Forwarded to each worker's CircuitStoreService.
    strict: bool = False
    reload_check_seconds: float = 0.05
    #: ``"auto"`` uses uvicorn when importable, else the stdlib bridge;
    #: ``"uvicorn"`` requires it; ``"stdlib"`` never imports it.
    http_server: str = "auto"
    #: Seconds to wait for every worker to report its bound port.
    startup_timeout_seconds: float = 30.0
    #: How many crashed workers the coordinator will respawn over the
    #: fleet's lifetime (same store set, fresh intern snapshot).  ``0``
    #: restores the reap-only behaviour.
    restart_budget: int = 2
    #: Supervisor poll interval for dead workers.
    restart_check_seconds: float = 0.25


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _fleet_worker_main(
    conn: "multiprocessing.connection.Connection",
    host: str,
    snapshot: InternSnapshot,
    registry: VariableRegistry,
    stores: Dict[str, str],
    serving_config: ServingConfig,
    engine_config: Optional[EngineConfig],
    strict: bool,
    reload_check_seconds: float,
    http_server: str,
) -> None:
    """Entry point of one fleet worker process."""
    # The coordinator owns shutdown (a pipe message / pipe close); a
    # terminal Ctrl-C must not race it by killing workers first.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        if engine_config is not None:
            # Deferred import: repro.serving must stay importable
            # without dragging the full engine stack in.
            from ..engine_parallel import build_worker_engine

            engine = build_worker_engine(snapshot, registry, engine_config)
        else:
            install_intern_snapshot(snapshot)
            engine = None
        service = CircuitStoreService(
            registry,
            stores,
            strict=strict,
            reload_check_seconds=reload_check_seconds,
        )
        serving = ServingEngine(service, engine, serving_config)
        app = ServingApp(serving)
        asyncio.run(_worker_serve(app, conn, host, http_server))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


async def _worker_serve(
    app: ServingApp,
    conn: "multiprocessing.connection.Connection",
    host: str,
    http_server: str,
) -> None:
    """Bind an ephemeral port, report it, serve until the pipe says stop."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    # Any pipe traffic — a stop message or the coordinator closing its
    # end (crash included) — wakes the worker for shutdown.
    loop.add_reader(conn.fileno(), stop.set)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, 0))
    port = sock.getsockname()[1]

    use_uvicorn = False
    if http_server in ("auto", "uvicorn"):
        try:
            import uvicorn  # noqa: F401

            use_uvicorn = True
        except ImportError:
            if http_server == "uvicorn":
                raise RuntimeError(
                    "http_server='uvicorn' but uvicorn is not installed; "
                    "install the repro[serve] extra or use 'stdlib'"
                )
    try:
        if use_uvicorn:
            import uvicorn

            sock.listen(128)
            config = uvicorn.Config(
                app, log_level="warning", lifespan="on"
            )
            server = uvicorn.Server(config)
            conn.send(("ready", port))
            task = asyncio.ensure_future(server.serve(sockets=[sock]))
            await stop.wait()
            server.should_exit = True
            await task
        else:
            bridge = _StdlibBridge(app)
            server = await asyncio.start_server(bridge.handle, sock=sock)
            conn.send(("ready", port))
            await stop.wait()
            server.close()
            await server.wait_closed()
            await bridge.drain()
            await app.engine.close()
    finally:
        loop.remove_reader(conn.fileno())


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, Dict[str, str], int]]:
    """One HTTP/1.1 start line, header block and content length.

    Returns ``None`` at end of stream.  Header names are lower-cased; a
    content length that is not a plain decimal number is a
    ``bad-request`` :class:`ServingError`.
    """
    start_line = await reader.readline()
    if not start_line.strip():
        return None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0") or "0"
    if not (length.isascii() and length.isdigit()):
        raise ServingError(
            "bad-request", f"malformed content-length {length!r}"
        )
    return start_line.decode("latin-1").strip(), headers, int(length)


class _StdlibBridge:
    """Minimal HTTP/1.1 bridge onto :meth:`ServingApp.exchange`.

    Supports exactly what the serving wire protocol needs: JSON bodies
    framed by ``Content-Length``, keep-alive connections, one request
    in flight per connection.  Framing the bridge cannot honour — a
    chunked upload (411), a malformed (400) or over-cap (413) length —
    is answered with a structured error and the connection closes.
    """

    def __init__(self, app: ServingApp) -> None:
        self.app = app
        self._writers: set = set()
        self._handlers: set = set()

    async def drain(self) -> None:
        """Close every live connection so handlers finish on their own.

        Cancelling handler tasks at loop teardown instead would make
        Python 3.11's ``StreamReaderProtocol`` log spurious
        ``CancelledError`` tracebacks (its done-callback predates the
        cancelled-task guard); feeding EOF lets each keep-alive loop
        exit normally.
        """
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            await asyncio.gather(
                *list(self._handlers), return_exceptions=True
            )

    async def handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        _small_reads(writer)
        self._writers.add(writer)
        self._handlers.add(asyncio.current_task())
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServingError as exc:
                    body = json.dumps(exc.to_json()).encode("utf-8")
                    await self._write_response(
                        writer,
                        exc.status,
                        [(b"content-type", b"application/json")],
                        body,
                        False,
                    )
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                status, headers, payload = await self.app.exchange(
                    method, path, body
                )
                await self._write_response(
                    writer, status, headers, payload, keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writers.discard(writer)
            self._handlers.discard(asyncio.current_task())

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        head = await _read_head(reader)
        if head is None:
            return None
        request_line, headers, length = head
        try:
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            return None
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise ServingError(
                "bad-request",
                "chunked request bodies are not supported; send a "
                "content-length",
                status=411,
            )
        if length > _MAX_BODY_BYTES:
            # Answered before reading: the app's cap could never fire
            # on a body the bridge is still waiting to receive.
            raise ServingError(
                "bad-request",
                f"request body exceeds {_MAX_BODY_BYTES} bytes",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
        keep_alive = (
            version.upper() != "HTTP/1.0"
            and headers.get("connection", "").lower() != "close"
        )
        path = target.split("?", 1)[0]
        return method, path, body, keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: List[Tuple[bytes, bytes]],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(status, "Status")
        lines = [f"HTTP/1.1 {status} {reason}".encode("latin-1")]
        has_length = False
        for name, value in headers:
            if name.lower() == b"content-length":
                has_length = True
            lines.append(name + b": " + value)
        if not has_length:
            lines.append(b"content-length: " + str(len(body)).encode())
        lines.append(
            b"connection: keep-alive" if keep_alive else b"connection: close"
        )
        writer.write(b"\r\n".join(lines) + b"\r\n\r\n" + body)
        await writer.drain()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class ServingFleet:
    """Spawns and supervises a shared-nothing fleet of serving workers.

    Usage::

        fleet = ServingFleet(registry, {"main": "store.bin"})
        addresses = fleet.start()          # [(host, port), ...]
        client = FleetClient(addresses)
        ...
        await client.close()
        fleet.close()

    Workers are daemonic; an abandoned fleet dies with its coordinator.
    """

    def __init__(
        self,
        registry: VariableRegistry,
        stores: Mapping[str, PathLike],
        *,
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.registry = registry
        self.stores = {
            name: os.fspath(path) for name, path in stores.items()
        }
        self.config = config or FleetConfig()
        if self.config.workers < 1:
            raise ValueError(
                f"a fleet needs at least 1 worker, got "
                f"{self.config.workers}"
            )
        self.addresses: List[Tuple[str, int]] = []
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._pipes: List["multiprocessing.connection.Connection"] = []
        #: Crashed workers respawned so far (bounded by
        #: ``config.restart_budget``).
        self.restarts = 0
        self._closing = threading.Event()
        self._supervisor: Optional[threading.Thread] = None

    def _spawn(
        self, ctx, snapshot: InternSnapshot
    ) -> Tuple[
        "multiprocessing.process.BaseProcess",
        "multiprocessing.connection.Connection",
    ]:
        cfg = self.config
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_fleet_worker_main,
            args=(
                child_conn,
                cfg.host,
                snapshot,
                self.registry,
                self.stores,
                cfg.serving,
                cfg.engine,
                cfg.strict,
                cfg.reload_check_seconds,
                cfg.http_server,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _context(self):
        # fork (where available) shares the parent's pages — intern
        # tables, registry, loaded modules — making worker start-up
        # cheap; spawn replays the shipped snapshot for real.  Same
        # policy as engine_parallel's process pools.
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context("spawn")  # pragma: no cover

    def start(self) -> List[Tuple[str, int]]:
        """Spawn the workers; returns their ``(host, port)`` addresses."""
        if self._processes:
            return list(self.addresses)
        ctx = self._context()
        snapshot = intern_snapshot()
        cfg = self.config
        for _ in range(cfg.workers):
            process, parent_conn = self._spawn(ctx, snapshot)
            self._processes.append(process)
            self._pipes.append(parent_conn)
        # Real wall time on purpose: worker start-up is OS work, not
        # serving-tier logic, so the fake test clock must not govern it.
        deadline = time.monotonic() + cfg.startup_timeout_seconds
        for index, conn in enumerate(self._pipes):
            remaining = max(0.0, deadline - time.monotonic())
            if not conn.poll(remaining):
                self.close()
                raise RuntimeError(
                    f"fleet worker {index} did not report a port within "
                    f"{cfg.startup_timeout_seconds:.1f}s"
                )
            kind, value = conn.recv()
            if kind == "error":
                self.close()
                raise RuntimeError(
                    f"fleet worker {index} failed to start:\n{value}"
                )
            self.addresses.append((cfg.host, int(value)))
        if cfg.restart_budget > 0:
            self._closing.clear()
            self._supervisor = threading.Thread(
                target=self._supervise, daemon=True,
                name="fleet-supervisor",
            )
            self._supervisor.start()
        return list(self.addresses)

    # -- crash supervision ----------------------------------------------
    def _supervise(self) -> None:
        """Respawn crashed workers until closed or out of budget.

        The coordinator historically only *reaped*: a crashed worker
        left a dead address in the fleet forever.  This loop polls for
        dead processes and restarts each with the same store set — a
        fresh intern snapshot (the tables are append-only, so the new
        snapshot is a superset of the original), a fresh port — bounded
        by ``restart_budget`` so a worker crashing deterministically on
        startup cannot fork-bomb the host.
        """
        check = max(0.01, self.config.restart_check_seconds)
        while not self._closing.wait(check):
            for index, process in enumerate(list(self._processes)):
                if process.is_alive() or self._closing.is_set():
                    continue
                if self.restarts >= self.config.restart_budget:
                    return
                self._respawn(index)

    def _respawn(self, index: int) -> None:
        process = self._processes[index]
        process.join(0.1)
        try:
            self._pipes[index].close()
        except OSError:
            pass
        new_process, conn = self._spawn(self._context(), intern_snapshot())
        self.restarts += 1
        deadline = time.monotonic() + self.config.startup_timeout_seconds
        while not self._closing.is_set():
            if conn.poll(min(0.1, max(0.0, deadline - time.monotonic()))):
                kind, value = conn.recv()
                if kind == "ready":
                    self._processes[index] = new_process
                    self._pipes[index] = conn
                    self.addresses[index] = (self.config.host, int(value))
                    return
                break  # startup error: give up on this respawn
            if time.monotonic() >= deadline:
                break
        # Failed or closing: don't leave a half-started orphan behind.
        try:
            conn.close()
        except OSError:
            pass
        if new_process.is_alive():
            new_process.terminate()
        new_process.join(1.0)

    @property
    def pids(self) -> List[int]:
        """Live worker process ids, in worker order (for crash tests)."""
        return [process.pid or 0 for process in self._processes]

    def close(self, *, timeout_seconds: float = 5.0) -> None:
        """Stop every worker (graceful pipe signal, then terminate)."""
        self._closing.set()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout_seconds)
            self._supervisor = None
        for conn in self._pipes:
            try:
                conn.send(("stop", None))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout_seconds
        for process in self._processes:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        for conn in self._pipes:
            try:
                conn.close()
            except OSError:
                pass
        self._processes.clear()
        self._pipes.clear()
        self.addresses.clear()

    @property
    def alive(self) -> int:
        """How many workers are currently running."""
        return sum(1 for p in self._processes if p.is_alive())

    def __enter__(self) -> "ServingFleet":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServingFleet({len(self.stores)} stores, "
            f"{self.alive}/{self.config.workers} workers up)"
        )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class FleetClient(_ClientBase):
    """Async client over real sockets, one per fleet worker.

    The vocabulary of :class:`~repro.serving.ServingClient` /
    :class:`~repro.serving.ASGIClient`; only the transport differs.
    Requests that carry a lineage hash it (stable CRC32 of the wire
    form — ``hash()`` is salted per process, so it cannot route) to
    pick a worker, which keeps repeated point queries on the same
    worker's warm response cache; everything else round-robins.  A
    one-worker fleet skips the hash: every payload goes to worker 0.
    Status and store-catalog calls fan out to every worker and return
    the per-worker list.

    Connections are persistent (keep-alive) and serialized per worker
    with a lock; a dropped connection is re-dialed once per request.
    """

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        *,
        affinity: bool = True,
        retry_quota: bool = False,
        sleep=None,
    ) -> None:
        if not addresses:
            raise ValueError("FleetClient needs at least one address")
        self.addresses = [(host, int(port)) for host, port in addresses]
        self.affinity = affinity
        #: Opt-in: honor ``Retry-After`` on a 429 quota rejection with
        #: exactly one retry instead of surfacing immediately.
        self.retry_quota = retry_quota
        #: Injectable async sleep (tests pass a fake-clock recorder).
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._connections: List[
            Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        ] = [None] * len(self.addresses)
        self._locks: List[Optional[asyncio.Lock]] = [None] * len(
            self.addresses
        )
        self._rr = 0

    # -- routing ---------------------------------------------------------
    def worker_for(self, payload: Mapping[str, Any]) -> int:
        """Which worker a payload routes to (exposed for tests)."""
        if len(self.addresses) == 1:
            return 0
        lineage = payload.get("lineage")
        if lineage is None:
            lineage = payload.get("lineages")
        if self.affinity and lineage is not None:
            wire = json.dumps(lineage, sort_keys=True, default=str)
            digest = zlib.crc32(wire.encode("utf-8"))
            return digest % len(self.addresses)
        self._rr = (self._rr + 1) % len(self.addresses)
        return self._rr

    # -- transport -------------------------------------------------------
    async def _connect(
        self, worker: int
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        connection = self._connections[worker]
        if connection is not None and not connection[1].is_closing():
            return connection
        host, port = self.addresses[worker]
        reader, writer = await asyncio.open_connection(host, port)
        _small_reads(writer)
        self._connections[worker] = (reader, writer)
        return reader, writer

    def _lock(self, worker: int) -> asyncio.Lock:
        lock = self._locks[worker]
        if lock is None:
            lock = asyncio.Lock()
            self._locks[worker] = lock
        return lock

    async def http(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        worker: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One request/response against ``worker`` (routed by
        :meth:`worker_for` when not given); decoded JSON body."""
        if worker is None:
            worker = self.worker_for(body or {})
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
        host, port = self.addresses[worker]
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"host: {host}:{port}\r\n"
            "content-type: application/json\r\n"
            f"content-length: {len(raw)}\r\n"
            "connection: keep-alive\r\n\r\n"
        ).encode("latin-1") + raw
        async with self._lock(worker):
            for attempt in (0, 1):
                reader, writer = await self._connect(worker)
                try:
                    writer.write(request)
                    await writer.drain()
                    head = await _read_head(reader)
                    if head is None:
                        raise ConnectionResetError(
                            "connection closed by worker"
                        )
                    status_line, _headers, length = head
                    response = (
                        await reader.readexactly(length) if length else b""
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                    OSError,
                ):
                    # Stale keep-alive (worker restarted, idle timeout):
                    # drop the connection and re-dial exactly once.
                    self._connections[worker] = None
                    writer.close()
                    if attempt:
                        raise
        return _decode(int(status_line.split(" ", 2)[1]), response)

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return await super().request(payload)
        except ServingError as exc:
            delay = exc.retry_after_seconds
            if not (
                self.retry_quota and exc.status == 429 and delay is not None
            ):
                raise
            # One Retry-After-guided retry; a second 429 surfaces.
            await self._sleep(float(delay))
            return await super().request(payload)

    async def admin(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> List[Dict[str, Any]]:
        """Status and catalog calls go to **every** worker (the catalog
        is replicated, not partitioned); per-worker results in worker
        order."""
        return [
            await self.http(method, path, body, worker=index)
            for index in range(len(self.addresses))
        ]

    async def aggregate_stats(self) -> Dict[str, float]:
        """Fleet-wide counters summed across workers."""
        totals = {
            "requests_total": 0.0,
            "response_hits": 0.0,
            "response_misses": 0.0,
            "shed": 0.0,
            "quota_rejections": 0.0,
            "batches": 0.0,
            "batched_rows": 0.0,
            "idle_flushes": 0.0,
        }
        summaries = await self.stats()
        for summary in summaries:
            for key in totals:
                totals[key] += float(summary.get(key, 0))
        hits, misses = totals["response_hits"], totals["response_misses"]
        totals["response_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        totals["workers"] = float(len(summaries))
        return totals

    async def close(self) -> None:
        for connection in self._connections:
            if connection is not None:
                connection[1].close()
        self._connections = [None] * len(self.addresses)

    def __repr__(self) -> str:
        live = sum(
            1
            for connection in self._connections
            if connection is not None and not connection[1].is_closing()
        )
        return (
            f"FleetClient({len(self.addresses)} workers, "
            f"{live} live connections)"
        )
