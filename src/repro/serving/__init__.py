"""Circuit-serving tier: async evaluation over persisted circuit stores.

The query-time half of the compile-once/evaluate-many story.  One
process (or many) compiles lineage into arithmetic circuits and saves
them with :meth:`CircuitCache.save`; a serving process loads those
stores through a :class:`CircuitStoreService` (immutable snapshots,
stat-based hot reload), and a :class:`ServingEngine` answers
``evaluate`` / ``bounds`` / ``gradients`` / ``what_if`` / ``sweep`` /
``top_k`` requests against them — micro-batching concurrent
same-circuit work into single kernel sweeps (a request with no company
flushes at once instead of waiting out the window), bounding
concurrency per
tenant, enforcing deadlines through :mod:`repro.core.clock`, and
degrading gracefully (cold lineage → attached engine; overload →
shed with a structured ``overloaded`` error).

Front-ends: :class:`ServingApp` (stdlib ASGI 3, JSON wire codec in
:mod:`repro.serving.codec`; :meth:`ServingApp.exchange` is the one
in-process request/response driver) and :func:`serve` (uvicorn,
optional extra).  Three clients share one vocabulary — the six ops,
``stats`` / ``healthz`` / ``stores`` and the four store-catalog calls —
and differ only in transport: :class:`ASGIClient` drives an app
without a socket, :class:`ServingClient` is that path built from a
bare engine, and :class:`FleetClient` speaks HTTP to a fleet.  Every
error reaches a client as a :class:`ServingError`.
:class:`ServingStats` reports latency percentiles, batch occupancy,
idle flushes, store and response-cache hit/miss traffic, shed counts, and quota
rejections.

Fleet scale-out: :class:`ServingFleet` runs one serving worker process
per shard over the same persisted store files (shared-nothing; intern
snapshots shipped at fork like ``engine_parallel``), each behind its
own HTTP socket, with :class:`FleetClient` routing by lineage affinity
so repeated point queries land on a warm :class:`ResponseCache` and
replicating status and catalog calls to every worker.
Per-tenant :class:`~repro.serving.quota.TokenBucket` quotas shed
over-rate tenants with 429 + ``Retry-After``.

This subpackage is imported on demand (``import repro.serving``), not
by ``import repro`` — command-line tools that never serve pay nothing.
"""

from .app import ServingApp, serve
from .client import ASGIClient, ServingClient
from .codec import (
    dnf_from_json,
    dnf_to_json,
    overrides_from_json,
    overrides_to_json,
)
from .engine import ServingConfig, ServingEngine
from .errors import ServingError
from .fleet import FleetClient, FleetConfig, ServingFleet
from .quota import TenantQuotas, TokenBucket
from .response_cache import ResponseCache, canonical_overrides
from .stats import ServingStats
from .store import CircuitStoreService, StoreSnapshot

__all__ = [
    "ASGIClient",
    "CircuitStoreService",
    "FleetClient",
    "FleetConfig",
    "ResponseCache",
    "ServingApp",
    "ServingClient",
    "ServingConfig",
    "ServingEngine",
    "ServingError",
    "ServingFleet",
    "ServingStats",
    "StoreSnapshot",
    "TenantQuotas",
    "TokenBucket",
    "canonical_overrides",
    "dnf_from_json",
    "dnf_to_json",
    "overrides_from_json",
    "overrides_to_json",
    "serve",
]
