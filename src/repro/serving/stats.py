"""Serving metrics: latency, batch occupancy, cache traffic, shedding.

One :class:`ServingStats` lives on each
:class:`~repro.serving.ServingEngine`.  Recording is cheap (counter
bumps and one list append per request) and guarded by a lock so the
engine-fallback worker thread may record too; the benchmark harness
reads :meth:`summary` for its throughput / p50 / p99 columns.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional

__all__ = ["ServingStats", "percentile"]

#: Latency samples kept per op before recording degrades to counting
#: only — bounds memory on long-lived servers; far above any bench run.
_LATENCY_CAPACITY = 200_000


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty list).

    The standard nearest-rank formula: the smallest sample such that at
    least ``fraction`` of the data is at or below it, i.e. the sample
    at rank ``ceil(fraction * n)``.  ``int(round(...))`` would use
    banker's rounding, which lands on the *wrong* sample at exact ``.5``
    ranks (p50 of 4 samples must be the 2nd, not the 2.5th rounded to
    even); ``math.ceil`` never does.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    index = min(len(ordered) - 1, max(0, rank - 1))
    return ordered[index]


class ServingStats:
    """Counters and latency samples for one serving engine."""

    __slots__ = (
        "_lock",
        "requests",
        "errors",
        "tenants",
        "latencies",
        "latency_dropped",
        "batches",
        "batched_rows",
        "idle_flushes",
        "store_hits",
        "overlay_hits",
        "store_misses",
        "response_hits",
        "response_misses",
        "engine_fallbacks",
        "refinements",
        "reloads",
        "shed",
        "quota_rejections",
        "inflight",
        "max_inflight",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: op -> completed request count (successful responses).
        self.requests: Dict[str, int] = {}
        #: error code -> count (every ServingError raised to a client).
        self.errors: Dict[str, int] = {}
        #: tenant -> admitted request count.
        self.tenants: Dict[str, int] = {}
        #: op -> request latency samples, seconds.
        self.latencies: Dict[str, List[float]] = {}
        self.latency_dropped = 0
        #: Kernel flushes and the rows they carried; occupancy =
        #: batched_rows / batches (> 1 means micro-batching coalesced
        #: concurrent requests into shared sweeps).
        self.batches = 0
        self.batched_rows = 0
        #: Flushes the idle rule issued on the next loop iteration
        #: because no other request could join (counted in batches).
        self.idle_flushes = 0
        self.store_hits = 0
        self.overlay_hits = 0
        self.store_misses = 0
        #: Response-cache traffic: hits answered without touching a
        #: circuit, misses counted only for cacheable requests.
        self.response_hits = 0
        self.response_misses = 0
        self.engine_fallbacks = 0
        self.refinements = 0
        self.reloads = 0
        self.shed = 0
        #: Requests rejected by a tenant's token-bucket quota (429).
        self.quota_rejections = 0
        self.inflight = 0
        self.max_inflight = 0

    # -- recording -------------------------------------------------------
    def record_request(self, op: str, seconds: float) -> None:
        with self._lock:
            self.requests[op] = self.requests.get(op, 0) + 1
            samples = self.latencies.setdefault(op, [])
            if len(samples) < _LATENCY_CAPACITY:
                samples.append(seconds)
            else:
                self.latency_dropped += 1

    def record_error(self, code: str) -> None:
        with self._lock:
            self.errors[code] = self.errors.get(code, 0) + 1

    def record_tenant(self, tenant: str) -> None:
        with self._lock:
            self.tenants[tenant] = self.tenants.get(tenant, 0) + 1

    def record_batch(self, rows: int, idle: bool = False) -> None:
        with self._lock:
            self.batches += 1
            self.batched_rows += rows
            if idle:
                self.idle_flushes += 1

    def enter_inflight(self) -> None:
        with self._lock:
            self.inflight += 1
            if self.inflight > self.max_inflight:
                self.max_inflight = self.inflight

    def exit_inflight(self) -> None:
        with self._lock:
            self.inflight -= 1

    # -- derived ---------------------------------------------------------
    def occupancy(self) -> float:
        """Mean rows per kernel flush (0.0 before the first flush)."""
        return self.batched_rows / self.batches if self.batches else 0.0

    def response_hit_ratio(self) -> float:
        """Response-cache hits over cacheable lookups (0.0 when none)."""
        total = self.response_hits + self.response_misses
        return self.response_hits / total if total else 0.0

    def latency_percentiles(
        self, op: Optional[str] = None
    ) -> Dict[str, float]:
        """p50/p99/mean latency in **milliseconds** for ``op`` (or all)."""
        with self._lock:
            if op is None:
                samples = [
                    value
                    for values in self.latencies.values()
                    for value in values
                ]
            else:
                samples = list(self.latencies.get(op, ()))
        mean = sum(samples) / len(samples) if samples else 0.0
        return {
            "p50_ms": percentile(samples, 0.50) * 1000.0,
            "p99_ms": percentile(samples, 0.99) * 1000.0,
            "mean_ms": mean * 1000.0,
            "count": float(len(samples)),
        }

    def summary(self) -> Dict[str, object]:
        """A JSON-ready snapshot (the ``/v1/stats`` payload)."""
        with self._lock:
            requests = dict(self.requests)
            errors = dict(self.errors)
            tenants = dict(self.tenants)
        return {
            "requests": requests,
            "requests_total": sum(requests.values()),
            "errors": errors,
            "tenants": tenants,
            "latency": self.latency_percentiles(),
            "latency_by_op": {
                op: self.latency_percentiles(op) for op in requests
            },
            "batches": self.batches,
            "batched_rows": self.batched_rows,
            "idle_flushes": self.idle_flushes,
            "batch_occupancy": self.occupancy(),
            "store_hits": self.store_hits,
            "overlay_hits": self.overlay_hits,
            "store_misses": self.store_misses,
            "response_hits": self.response_hits,
            "response_misses": self.response_misses,
            "response_hit_ratio": self.response_hit_ratio(),
            "engine_fallbacks": self.engine_fallbacks,
            "refinements": self.refinements,
            "reloads": self.reloads,
            "shed": self.shed,
            "quota_rejections": self.quota_rejections,
            "max_inflight": self.max_inflight,
        }

    def __repr__(self) -> str:
        return (
            f"ServingStats({sum(self.requests.values())} requests, "
            f"occupancy={self.occupancy():.2f}, shed={self.shed})"
        )
