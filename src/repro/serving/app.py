"""Thin ASGI/JSON front-end over a :class:`ServingEngine`.

:class:`ServingApp` is a dependency-free ASGI 3 application (plain
``async def __call__(scope, receive, send)``), so it runs under any
ASGI server.  :meth:`ServingApp.exchange` drives one request/response
cycle in-process with no server at all; the in-process clients
(:class:`~repro.serving.client.ASGIClient`) and the fleet's stdlib
HTTP bridge both go through it.

Routes::

    GET  /healthz           liveness + store names
    GET  /v1/stats          ServingStats summary (latency, occupancy, shed)
    GET  /v1/stores         per-store name/path/version/entry-count
    POST /v1/<op>           evaluate | bounds | gradients | what_if
                            | sweep | top_k — body per repro.serving.codec
    POST /v1/stores/add     {"name", "path", "lazy"?} — register a store
    POST /v1/stores/drop    {"name"} — retire a store
    POST /v1/stores/reload  {"name"} — force a reload from disk
    POST /v1/stores/serve_directory  {"path", "suffix"?} — lazy-serve
                            every circuit file in a directory

Every :class:`~repro.serving.errors.ServingError` maps to its HTTP
status with a structured ``{"error": {code, message, details}}`` body
(quota rejections additionally carry a ``Retry-After`` header); nothing
else is ever surfaced to a client.

:func:`serve` runs the app under uvicorn **if it is installed** (the
``repro[serve]`` extra); the import is gated so the serving tier —
like the rest of the library — works from the standard library alone.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from .engine import ServingConfig, ServingEngine
from .errors import ServingError
from .store import CircuitStoreService

__all__ = ["ServingApp", "serve"]

_MAX_BODY_BYTES = 16 * 1024 * 1024
_POST_OPS = ("evaluate", "bounds", "gradients", "what_if", "sweep", "top_k")


class ServingApp:
    """ASGI 3 application wrapping one :class:`ServingEngine`."""

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine

    # -- ASGI ------------------------------------------------------------
    async def __call__(
        self,
        scope: Dict[str, Any],
        receive: Callable[[], Any],
        send: Callable[[Dict[str, Any]], Any],
    ) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(
                f"unsupported ASGI scope type {scope['type']!r}"
            )
        method = scope["method"]
        path = scope["path"]
        headers: Tuple[Tuple[bytes, bytes], ...] = ()
        try:
            status, payload = await self._route(method, path, receive)
        except ServingError as exc:
            status, payload = exc.status, exc.to_json()
            retry_after = exc.retry_after_seconds
            if retry_after is not None:
                # RFC 9110 Retry-After is integral seconds; round up so
                # a compliant client never retries before the quota
                # bucket actually has a token.
                headers = (
                    (
                        b"retry-after",
                        str(max(1, math.ceil(retry_after))).encode("ascii"),
                    ),
                )
        except Exception as exc:  # pragma: no cover - defensive
            error = ServingError(
                "internal", f"{type(exc).__name__}: {exc}"
            )
            status, payload = error.status, error.to_json()
        await self._send_json(send, status, payload, headers)

    async def exchange(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, List[Tuple[bytes, bytes]], bytes]:
        """One request/response cycle through the ASGI protocol: feeds
        ``body`` as a single ``http.request`` message and returns the
        response's ``(status, headers, body)``."""
        scope = {
            "type": "http",
            "asgi": {"version": "3.0"},
            "http_version": "1.1",
            "method": method,
            "scheme": "http",
            "path": path,
            "raw_path": path.encode("latin-1"),
            "query_string": b"",
            "headers": [(b"content-type", b"application/json")],
        }
        pending: List[Dict[str, Any]] = [
            {"type": "http.request", "body": body, "more_body": False}
        ]
        status = 500
        headers: List[Tuple[bytes, bytes]] = []
        chunks: List[bytes] = []

        async def receive() -> Dict[str, Any]:
            return pending.pop() if pending else {"type": "http.disconnect"}

        async def send(message: Dict[str, Any]) -> None:
            nonlocal status, headers
            if message["type"] == "http.response.start":
                status = message["status"]
                headers = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b""))

        await self(scope, receive, send)
        return status, headers, b"".join(chunks)

    async def _lifespan(
        self,
        receive: Callable[[], Any],
        send: Callable[[Dict[str, Any]], Any],
    ) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await self.engine.close()
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- routing ---------------------------------------------------------
    async def _route(
        self, method: str, path: str, receive: Callable[[], Any]
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "status": "ok",
                    "stores": list(self.engine.stores.names()),
                }
            if path == "/v1/stats":
                return 200, self.engine.stats.summary()
            if path == "/v1/stores":
                return 200, {"stores": self.engine.stores.describe()}
            raise ServingError(
                "bad-request", f"no GET route {path!r}", status=404
            )
        if method == "POST":
            if path.startswith("/v1/stores/"):
                action = path[len("/v1/stores/"):]
                request = await self._read_json(receive)
                return self._catalog(action, request)
            op = path[len("/v1/"):] if path.startswith("/v1/") else ""
            if op not in _POST_OPS:
                raise ServingError(
                    "bad-request", f"no POST route {path!r}", status=404
                )
            request = await self._read_json(receive)
            request["op"] = op
            response = await self.engine.handle(request)
            return 200, response
        raise ServingError(
            "bad-request", f"method {method} not allowed", status=405
        )

    # -- store catalog ----------------------------------------------------
    def _catalog(
        self, action: str, request: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Runtime store-catalog management (``POST /v1/stores/<action>``)."""
        stores = self.engine.stores
        if action == "add":
            name = self._required_str(request, "name")
            path = self._required_str(request, "path")
            lazy = bool(request.get("lazy", False))
            snapshot = stores.add_store(name, path, lazy=lazy)
            return 200, {
                "name": name,
                "loaded": snapshot is not None,
                "stores": list(stores.names()),
            }
        if action == "drop":
            name = self._required_str(request, "name")
            stores.drop_store(name)
            # Eagerly free the dropped store's cached responses; the
            # version embedded in each key already makes them
            # unreachable for correctness purposes.
            self.engine.responses.purge_store(name)
            return 200, {"dropped": name, "stores": list(stores.names())}
        if action == "reload":
            name = self._required_str(request, "name")
            snapshot = stores.reload(name)
            return 200, snapshot.describe()
        if action == "serve_directory":
            path = self._required_str(request, "path")
            suffix = request.get("suffix", ".rcir")
            if not isinstance(suffix, str) or not suffix:
                raise ServingError(
                    "bad-request",
                    f"suffix must be a non-empty string, got {suffix!r}",
                )
            added = stores.serve_directory(path, suffix=suffix)
            return 200, {
                "added": list(added),
                "stores": list(stores.names()),
            }
        raise ServingError(
            "bad-request", f"no store-catalog action {action!r}", status=404
        )

    @staticmethod
    def _required_str(request: Dict[str, Any], field: str) -> str:
        value = request.get(field)
        if not isinstance(value, str) or not value:
            raise ServingError(
                "bad-request",
                f"store-catalog request needs a non-empty {field!r} string",
            )
        return value

    async def _read_json(
        self, receive: Callable[[], Any]
    ) -> Dict[str, Any]:
        chunks = []
        total = 0
        while True:
            message = await receive()
            if message["type"] != "http.request":  # pragma: no cover
                raise ServingError(
                    "bad-request", "unexpected ASGI message"
                )
            body = message.get("body", b"")
            total += len(body)
            if total > _MAX_BODY_BYTES:
                raise ServingError(
                    "bad-request",
                    f"request body exceeds {_MAX_BODY_BYTES} bytes",
                    status=413,
                )
            chunks.append(body)
            if not message.get("more_body", False):
                break
        raw = b"".join(chunks)
        if not raw:
            return {}
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ServingError(
                "bad-request", f"request body is not JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ServingError(
                "bad-request", "request body must be a JSON object"
            )
        return data

    async def _send_json(
        self,
        send: Callable[[Dict[str, Any]], Any],
        status: int,
        payload: Dict[str, Any],
        headers: Tuple[Tuple[bytes, bytes], ...] = (),
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", b"application/json"),
                    (b"content-length", str(len(body)).encode("ascii")),
                    *headers,
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})


def serve(
    stores: CircuitStoreService,
    engine: Optional[object] = None,
    *,
    config: Optional[ServingConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8093,
) -> None:
    """Run the serving app under uvicorn (``pip install repro[serve]``).

    The serving tier itself is stdlib-only; this convenience runner is
    the single place that wants a real HTTP server, so the uvicorn
    import is gated here rather than being a hard dependency.
    """
    try:
        import uvicorn
    except ImportError as exc:  # pragma: no cover - optional extra
        raise RuntimeError(
            "uvicorn is not installed; install the repro[serve] extra, "
            "or drive ServingApp with repro.serving.ASGIClient (tests) "
            "or any other ASGI server"
        ) from exc
    app = ServingApp(ServingEngine(stores, engine, config))
    uvicorn.run(app, host=host, port=port, log_level="warning")
