"""The serving tier's clients: one vocabulary over three transports.

:class:`_ClientBase` owns every call a client can make — the six ops
(``evaluate`` / ``bounds`` / ``gradients`` / ``what_if`` / ``sweep`` /
``top_k``), the generic ``request`` escape hatch (an op payload becomes
``POST /v1/<op>``), the status calls (``stats`` / ``healthz`` /
``stores``) and the store catalog (``add_store`` / ``drop_store`` /
``reload_store`` / ``serve_directory``) — over one abstract ``http``
transport.  A transport only decides where a request goes:

* :class:`ASGIClient` drives a :class:`ServingApp` through the real
  ASGI protocol (:meth:`ServingApp.exchange`) without a socket — what
  an HTTP client would see, minus the network.
* :class:`ServingClient` is the same path built from a bare
  :class:`ServingEngine` (``ServingClient(engine)`` is
  ``ASGIClient(ServingApp(engine))``); ``ProbDB.serving()`` engines
  are usually wrapped this way.
* :class:`~repro.serving.fleet.FleetClient` speaks HTTP/1.1 to a
  fleet of worker sockets.

Every non-2xx response raises :class:`ServingError`, rebuilt from the
structured error body by :meth:`ServingError.from_json`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, Optional, Sequence

from .app import ServingApp
from .codec import dnf_to_json, overrides_to_json, value_to_json
from .engine import ServingEngine
from .errors import ServingError

__all__ = ["ASGIClient", "ServingClient"]


def _encode_lineage(lineage: Any) -> Any:
    """DNF objects become wire clause lists; wire lists pass through."""
    if hasattr(lineage, "sorted_clauses"):
        return dnf_to_json(lineage)
    return lineage


def _decode(status: int, raw: bytes) -> Dict[str, Any]:
    """A response body as JSON; non-2xx statuses raise its error."""
    payload = json.loads(raw or b"{}")
    if status >= 300:
        raise ServingError.from_json(status, payload)
    return payload


class _ClientBase:
    """The client vocabulary over an abstract :meth:`http` transport."""

    async def http(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One request/response cycle; returns the decoded JSON body."""
        raise NotImplementedError

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send an op payload (``{"op": ..., ...}``) to ``/v1/<op>``."""
        body = dict(payload)
        op = body.pop("op")
        return await self.http("POST", f"/v1/{op}", body)

    async def admin(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """The hook every status and store-catalog call goes through."""
        return await self.http(method, path, body)

    async def stats(self) -> Any:
        return await self.admin("GET", "/v1/stats")

    async def healthz(self) -> Any:
        return await self.admin("GET", "/healthz")

    async def stores(self) -> Any:
        return await self.admin("GET", "/v1/stores")

    # -- store catalog ---------------------------------------------------
    async def add_store(
        self, name: str, path: str, *, lazy: bool = False
    ) -> Any:
        body: Dict[str, Any] = {"name": name, "path": path}
        if lazy:
            body["lazy"] = True
        return await self.admin("POST", "/v1/stores/add", body)

    async def drop_store(self, name: str) -> Any:
        return await self.admin("POST", "/v1/stores/drop", {"name": name})

    async def reload_store(self, name: str) -> Any:
        return await self.admin("POST", "/v1/stores/reload", {"name": name})

    async def serve_directory(
        self, path: str, *, suffix: str = ".rcir"
    ) -> Any:
        return await self.admin(
            "POST",
            "/v1/stores/serve_directory",
            {"path": path, "suffix": suffix},
        )

    # -- ops -------------------------------------------------------------
    async def _send(
        self,
        op: str,
        overrides: Optional[Dict[Hashable, Any]] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Build an ``op`` payload (``None`` fields are left out) and
        send it through :meth:`request`."""
        payload: Dict[str, Any] = {"op": op}
        payload.update(
            (key, value) for key, value in fields.items() if value is not None
        )
        if overrides is not None:
            payload["overrides"] = overrides_to_json(overrides)
        return await self.request(payload)

    async def evaluate(
        self,
        lineage: Any,
        *,
        overrides: Optional[Dict[Hashable, Any]] = None,
        store: Optional[str] = None,
        tenant: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        expect_version: Optional[str] = None,
        epsilon: Optional[float] = None,
    ) -> Dict[str, Any]:
        return await self._send(
            "evaluate", overrides, lineage=_encode_lineage(lineage),
            epsilon=epsilon, store=store, tenant=tenant,
            deadline_seconds=deadline_seconds, expect_version=expect_version,
        )

    async def bounds(
        self,
        lineage: Any,
        *,
        overrides: Optional[Dict[Hashable, Any]] = None,
        refine: bool = False,
        target_width: Optional[float] = None,
        store: Optional[str] = None,
        tenant: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        expect_version: Optional[str] = None,
    ) -> Dict[str, Any]:
        return await self._send(
            "bounds", overrides, lineage=_encode_lineage(lineage),
            refine=refine or None, target_width=target_width,
            store=store, tenant=tenant,
            deadline_seconds=deadline_seconds, expect_version=expect_version,
        )

    async def gradients(
        self,
        lineage: Any,
        *,
        overrides: Optional[Dict[Hashable, Any]] = None,
        store: Optional[str] = None,
        tenant: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        expect_version: Optional[str] = None,
    ) -> Dict[str, Any]:
        return await self._send(
            "gradients", overrides, lineage=_encode_lineage(lineage),
            store=store, tenant=tenant,
            deadline_seconds=deadline_seconds, expect_version=expect_version,
        )

    async def what_if(
        self,
        lineage: Any,
        variable: Hashable,
        probabilities: Sequence[float],
        *,
        store: Optional[str] = None,
        tenant: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        expect_version: Optional[str] = None,
    ) -> Dict[str, Any]:
        return await self._send(
            "what_if", lineage=_encode_lineage(lineage),
            variable=value_to_json(variable),
            probabilities=[float(p) for p in probabilities],
            store=store, tenant=tenant,
            deadline_seconds=deadline_seconds, expect_version=expect_version,
        )

    async def sweep(
        self,
        lineage: Any,
        scenarios: Sequence[Optional[Dict[Hashable, Any]]],
        *,
        kind: str = "values",
        refine: bool = False,
        target_width: Optional[float] = None,
        store: Optional[str] = None,
        tenant: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        expect_version: Optional[str] = None,
    ) -> Dict[str, Any]:
        return await self._send(
            "sweep", lineage=_encode_lineage(lineage),
            scenarios=[overrides_to_json(s) for s in scenarios], kind=kind,
            refine=refine or None, target_width=target_width,
            store=store, tenant=tenant,
            deadline_seconds=deadline_seconds, expect_version=expect_version,
        )

    async def top_k(
        self,
        lineages: Sequence[Any],
        k: int,
        *,
        answers: Optional[Sequence[Hashable]] = None,
        overrides: Optional[Dict[Hashable, Any]] = None,
        store: Optional[str] = None,
        tenant: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        expect_version: Optional[str] = None,
    ) -> Dict[str, Any]:
        return await self._send(
            "top_k", overrides,
            lineages=[_encode_lineage(lineage) for lineage in lineages],
            k=k,
            answers=(
                None if answers is None
                else [value_to_json(answer) for answer in answers]
            ),
            store=store, tenant=tenant,
            deadline_seconds=deadline_seconds, expect_version=expect_version,
        )


class ASGIClient(_ClientBase):
    """Drives a :class:`ServingApp` through the ASGI protocol in-process."""

    def __init__(self, app: ServingApp) -> None:
        self.app = app

    async def http(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
        status, _headers, response = await self.app.exchange(
            method, path, raw
        )
        return _decode(status, response)


class ServingClient(ASGIClient):
    """:class:`ASGIClient` over ``ServingApp(engine)``: the wire path
    for a bare :class:`ServingEngine`, without a socket."""

    def __init__(self, engine: ServingEngine) -> None:
        super().__init__(ServingApp(engine))
