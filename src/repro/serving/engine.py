"""The asyncio serving engine: batched evaluation over store snapshots.

:class:`ServingEngine` is the request dispatcher of the serving tier.
Each request names a store, a lineage, and an operation (``evaluate``,
``bounds``, ``gradients``, ``what_if``, ``sweep``, ``top_k``); the
engine resolves the circuit from the store snapshot (or the warm
overlay of circuits it compiled itself), runs the operation, and
returns a JSON-ready response that always reports which ``strategy``
produced the numbers:

``store``
    served straight from the persisted store snapshot;
``overlay``
    from a circuit this server compiled earlier for a cold lineage;
``engine`` / ``engine-compile``
    graceful degradation — the lineage was not in the store, so the
    attached :class:`~repro.engine.ConfidenceEngine` computed it (or
    compiled a circuit into the overlay): on the event loop when the
    request is alone in the engine, on a worker thread otherwise (see
    :meth:`ServingEngine._with_engine`).

Micro-batching: concurrent single-scenario requests against the *same*
circuit are coalesced — each enqueues a row into a per-``(circuit,
kind)`` bucket that flushes after ``batch_window_seconds`` (or at
``max_batch`` rows) through one :func:`~repro.circuits.sweep_values` /
:func:`~repro.circuits.sweep_bounds` call.  That call runs one kernel
``evaluate_batch`` on the numpy backend once the batch reaches
:data:`~repro.circuits.sweep.KERNEL_MIN_ROWS` rows, and the scalar
per-row :meth:`~repro.circuits.Circuit.evaluate` loop below it, which
is cheaper for a few rows.  Multi-scenario operations
(``what_if``, ``sweep``, ``top_k``) enqueue all their rows at once, so
batch occupancy exceeds 1 even for a single client.  The window only
pays off when company can arrive: when a request parks on its rows
while it is the only request that has been running since the buckets
last drained, every pending bucket flushes on the next event-loop
iteration instead (``ServingStats.idle_flushes``).  A request's rows
share one future: each result lands at its row's index and the future
resolves when the last one does, so a parked request wakes once.
Sweep results are bit-identical to the scalar path by the sweep
module's own contract, so batching is a latency decision, never a
semantics one.  Each row's
overrides are resolved once, on submit: a bad row fails its own
request there, and the sweep reuses the resolution.

Wire lineages are decoded and checked against the registry once: the
engine memoises each lineage's DNF by its JSON text until a registry
atom probability changes (see :meth:`ServingEngine._lineage`), so a
warm request pays a :func:`json.dumps` and a dict lookup instead.

Every op takes one request path: one response-cache lookup, circuit
resolution, batched rows or a ``refine`` round, and one cache
admission.  Only circuit answers (``store``/``overlay``/
``engine-compile``, and ``mixed`` top-k sets of them) are cached; a
direct ``engine`` answer returns before the admission, and a
``refine`` request bypasses the cache.  A circuit that the server
compiles or refines for a lineage the snapshot or overlay already held
shadows the old one, so the store's cached responses go
(:meth:`ServingEngine._to_overlay`).

Backpressure: admission beyond ``max_inflight + queue_limit`` sheds
with a structured ``overloaded`` error; admitted requests wait on a
global and a per-tenant semaphore, and a request's
``deadline_seconds`` (a number in ``[0, inf)``; no deadline when
absent; anything else is ``bad-request``), read through
:mod:`repro.core.clock` so tests can fake time, fails it with
``deadline-exceeded`` rather than letting it queue forever.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..circuits.cache import CircuitCache
from ..circuits.circuit import Circuit, Resolution
from ..circuits.sweep import (
    refine_sweep_bounds,
    sweep_bounds,
    sweep_values,
    what_if_scenarios,
)
from ..core import clock
from ..core.dnf import DNF
from .codec import (
    answers_from_json,
    dnf_from_json,
    gradients_to_json,
    overrides_from_json,
    scenarios_from_json,
    value_from_json,
    value_to_json,
)
from .errors import ServingError
from .quota import TenantQuotas
from .response_cache import ResponseCache, canonical_overrides
from .stats import ServingStats
from .store import CircuitStoreService, StoreSnapshot

__all__ = ["ServingConfig", "ServingEngine"]

_OPS = ("evaluate", "bounds", "gradients", "what_if", "sweep", "top_k")

#: Refinement rounds a ``bounds``/``sweep`` request with ``refine``
#: may run on a partial circuit (engine required).
_REFINE_ROUNDS = 4

#: Circuits the overlay keeps for cold lineages before wholesale
#: eviction (the CircuitCache policy).
_OVERLAY_ENTRIES = 1024

#: Decoded wire lineages :meth:`ServingEngine._lineage` keeps before it
#: clears the memo wholesale (the CircuitCache policy).  Each entry is
#: the lineage's JSON text plus a DNF that the response cache and the
#: overlay usually key on anyway.
_LINEAGE_MEMO_ENTRIES = 1024


def _interval_width(circuit: Circuit) -> float:
    """Root-bound width under base probabilities — the tightness order
    refinement improves, used to pick between two partial circuits for
    the same lineage."""
    low, high = circuit.evaluate_bounds()
    return high - low


def _bounded(
    request: Mapping[str, Any], field: str, upper: float
) -> Optional[float]:
    """``request[field]`` as a number in ``[0, upper)``; None if absent."""
    value = request.get(field)
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0.0 <= value < upper
    ):
        raise ServingError(
            "bad-request",
            f"{field} must be a number in [0, {upper:g}), got {value!r}",
        )
    return float(value)


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for one :class:`ServingEngine`.

    ``max_inflight`` requests run concurrently; up to ``queue_limit``
    more wait; anything beyond is shed immediately.  ``batch_window_
    seconds`` is the most the first row of a micro-batch waits for
    company under concurrency.  A request that has run alone since the
    buckets last drained does not wait: once it parks on its rows they
    flush on the next event-loop iteration.  A window of 0 still
    coalesces the rows one request enqueues in the same tick (a
    ``what_if`` flushes once, not per row).  A flushed batch below
    :data:`~repro.circuits.sweep.KERNEL_MIN_ROWS` rows runs on the
    scalar circuit path, a larger one on the numpy kernel; the numbers
    are bit-identical either way, so ``max_batch`` and the window
    trade latency for throughput, never answers.

    A request runs without a deadline unless it sends
    ``deadline_seconds``.  The ``refine`` round count and the overlay
    size are module constants (:data:`_REFINE_ROUNDS`,
    :data:`_OVERLAY_ENTRIES`), not knobs.
    """

    max_inflight: int = 64
    per_tenant_inflight: int = 16
    queue_limit: int = 256
    batch_window_seconds: float = 0.002
    max_batch: int = 256
    #: Finished responses kept in the LRU response cache (0 disables).
    #: Cached answers are bit-identical by construction: the cached
    #: object is the response computed on the first request, keyed by
    #: store snapshot version + canonicalized arguments.
    response_cache_entries: int = 1024
    #: Per-tenant token-bucket quota in requests/second (None =
    #: unmetered).  A tenant over quota is rejected with
    #: ``quota-exceeded`` (429) and a retry-after; other tenants are
    #: unaffected.
    quota_rps: Optional[float] = None
    #: Bucket capacity (how far a quiet tenant may burst); defaults to
    #: twice the rate.
    quota_burst: Optional[float] = None
    #: Per-tenant rate overrides (``tenant -> rps``; ``None`` exempts
    #: that tenant from metering).
    tenant_quota_rps: Optional[Mapping[str, Optional[float]]] = None


class _Rows:
    """One request's rows: each result lands at its row's index, and the
    request's one future resolves when the last row lands."""

    __slots__ = ("future", "results", "missing")

    def __init__(self, future: "asyncio.Future[List[Any]]", count: int):
        self.future = future
        self.results: List[Any] = [None] * count
        self.missing = count

    def land(self, index: int, result: Any) -> None:
        self.results[index] = result
        self.missing -= 1
        if not self.missing and not self.future.done():
            self.future.set_result(self.results)

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)


class _Bucket:
    """One pending micro-batch: same circuit, same result kind."""

    __slots__ = ("circuit", "kind", "overrides", "resolved", "rows", "handle")

    def __init__(self, circuit: Circuit, kind: str) -> None:
        self.circuit = circuit
        self.kind = kind
        self.overrides: List[Optional[Dict[Any, Any]]] = []
        #: Each row's ``circuit._resolve_overrides`` result, from the
        #: validation in :meth:`_MicroBatcher.submit`.
        self.resolved: List[Resolution] = []
        #: Where each row's result goes: its request and its index there.
        self.rows: List[Tuple[_Rows, int]] = []
        self.handle: Optional[asyncio.TimerHandle] = None


class _MicroBatcher:
    """Coalesces same-circuit rows into single batched sweep calls.

    Besides the buckets it counts the requests running inside the
    engine's semaphores (:meth:`enter` / :meth:`leave`), how many of
    them are parked on their rows (:meth:`wait`), and the most that
    ran at once since the buckets last drained.  When every running
    request is parked and that peak is at most one, no company can
    arrive before the window ends, so the buckets flush on the next
    loop iteration.  A higher peak keeps the timed window: concurrent
    traffic reaches the engine in waves that look idle for a moment.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        stats: ServingStats,
        *,
        window: float,
        max_batch: int,
    ) -> None:
        self.loop = loop
        self.stats = stats
        self.window = window
        self.max_batch = max_batch
        self.buckets: Dict[Tuple[int, str], _Bucket] = {}
        self.running = 0
        self.parked = 0
        self.peak = 0

    def enter(self) -> None:
        self.running += 1
        if self.running > self.peak:
            self.peak = self.running

    def leave(self) -> None:
        self.running -= 1

    @property
    def alone(self) -> bool:
        """Exactly one request has run since the buckets last drained:
        the idle rule's premise, read by a running request."""
        return self.running == 1 and self.peak <= 1

    async def wait(self, rows: "asyncio.Future[Any]") -> Any:
        """Park the calling request on ``rows`` (its :meth:`submit`
        future), scheduling the idle check when it is the last running
        request to park."""
        self.parked += 1
        if self.parked == self.running:
            self.loop.call_soon(self._flush_if_idle)
        try:
            return await rows
        finally:
            self.parked -= 1

    def _flush_if_idle(self) -> None:
        if self.peak <= 1 and self.parked == self.running:
            self.flush_all(idle=True)

    def submit(
        self,
        rows: List[Tuple[Circuit, Optional[Dict[Any, Any]]]],
        kind: str,
    ) -> "asyncio.Future[List[Any]]":
        """Queue one request's ``(circuit, overrides)`` rows; the future
        resolves to their results in row order (at once when there are
        none)."""
        # Validate every row *before* enqueueing any, so a bad scenario
        # fails its own request, never the batch it would share.  The
        # sweep reuses the resolutions.
        try:
            resolutions = [
                circuit._resolve_overrides(overrides)
                for circuit, overrides in rows
            ]
        except Exception as exc:
            raise ServingError(
                "bad-request", f"invalid overrides: {exc}"
            ) from exc
        future: "asyncio.Future[List[Any]]" = self.loop.create_future()
        if not rows:
            future.set_result([])
            return future
        request = _Rows(future, len(rows))
        for index, ((circuit, overrides), resolved) in enumerate(
            zip(rows, resolutions)
        ):
            key = (id(circuit), kind)
            bucket = self.buckets.get(key)
            if bucket is None:
                bucket = _Bucket(circuit, kind)
                self.buckets[key] = bucket
                bucket.handle = self.loop.call_later(
                    self.window, self._flush, key
                )
            bucket.overrides.append(overrides)
            bucket.resolved.append(resolved)
            bucket.rows.append((request, index))
            if len(bucket.rows) >= self.max_batch:
                self._flush(key)
        return future

    def _flush(self, key: Tuple[int, str], idle: bool = False) -> None:
        bucket = self.buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.handle is not None:
            bucket.handle.cancel()
        if not self.buckets:
            self.peak = self.running
        self.stats.record_batch(len(bucket.rows), idle=idle)
        try:
            if bucket.kind == "bounds":
                results: List[Any] = [
                    list(pair)
                    for pair in sweep_bounds(
                        bucket.circuit,
                        bucket.overrides,
                        resolved=bucket.resolved,
                    )
                ]
            else:
                results = sweep_values(
                    bucket.circuit, bucket.overrides, resolved=bucket.resolved
                )
        except Exception as exc:  # pragma: no cover - defensive
            error = ServingError(
                "internal", f"batched sweep failed: {exc}"
            )
            for request, _ in bucket.rows:
                request.fail(error)
            return
        for (request, index), result in zip(bucket.rows, results):
            request.land(index, result)

    def flush_all(self, idle: bool = False) -> None:
        for key in list(self.buckets):
            self._flush(key, idle)


class ServingEngine:
    """Dispatches serving requests against a :class:`CircuitStoreService`.

    ``engine`` is the optional :class:`~repro.engine.ConfidenceEngine`
    used for graceful degradation on cold lineages; without one, a
    lineage missing from every store snapshot is an ``unknown-circuit``
    error.  All engine work runs under a lock (the engine's
    decomposition cache is not thread-safe).  A request alone in the
    engine runs it on the event loop, so a request that arrives
    meanwhile waits for it; under concurrency it runs on a worker
    thread, so the loop keeps serving warm traffic while a cold lineage
    compiles (:meth:`_with_engine`).
    """

    def __init__(
        self,
        stores: CircuitStoreService,
        engine: Optional[object] = None,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.stores = stores
        self.engine = engine
        self.config = config or ServingConfig()
        self.stats = ServingStats()
        #: Warm cache of circuits this server compiled for cold
        #: lineages (partial circuits included — exact_only=False).
        self.overlay = CircuitCache(max_entries=_OVERLAY_ENTRIES)
        #: Finished responses for repeated point queries, keyed by
        #: store snapshot version (purged eagerly on version bumps).
        self.responses = ResponseCache(
            max_entries=self.config.response_cache_entries
        )
        #: Last snapshot version seen per store, for eager purging.
        self._response_versions: Dict[str, str] = {}
        #: Token-bucket rate quotas, layered over the semaphores.
        self.quotas = TenantQuotas(
            self.config.quota_rps,
            burst=self.config.quota_burst,
            tenant_rates=self.config.tenant_quota_rps,
        )
        #: Wire lineage JSON text -> decoded DNF that passed the
        #: registry check, valid for one registry atom-probability
        #: version (see :meth:`_lineage`).
        self._lineages: Dict[str, DNF] = {}
        self._lineages_version = -1
        self._engine_lock = threading.Lock()
        self._pending = 0
        # Loop-bound state, re-created if the engine is reused from a
        # different event loop (tests call asyncio.run repeatedly).
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._global_sem: Optional[asyncio.Semaphore] = None
        self._tenant_sems: Dict[str, asyncio.Semaphore] = {}
        self._batcher: Optional[_MicroBatcher] = None

    # -- public entry ----------------------------------------------------
    async def handle(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Serve one request dict; raises :class:`ServingError`."""
        start = clock.monotonic()
        op = request.get("op")
        if op not in _OPS:
            error = ServingError(
                "bad-request",
                f"unknown op {op!r} (expected one of {', '.join(_OPS)})",
            )
            self.stats.record_error(error.code)
            raise error
        tenant = str(request.get("tenant", "default"))
        limit = self.config.max_inflight + self.config.queue_limit
        if self._pending >= limit:
            self.stats.shed += 1
            self.stats.record_error("overloaded")
            raise ServingError(
                "overloaded",
                f"{self._pending} requests already admitted "
                f"(limit {limit}); retry later",
                details={"inflight": self._pending, "limit": limit},
            )
        # Rate quota after overload shedding, before any queueing: a
        # tenant over its token bucket is rejected immediately (429 +
        # retry-after) and never occupies a semaphore slot, so other
        # tenants see no queueing effect from a hammering neighbour.
        retry_after = self.quotas.try_acquire(tenant)
        if retry_after > 0.0:
            self.stats.quota_rejections += 1
            self.stats.record_error("quota-exceeded")
            raise ServingError(
                "quota-exceeded",
                f"tenant {tenant!r} exceeded its request quota; retry "
                f"in {retry_after:.3f}s",
                details={
                    "tenant": tenant,
                    "retry_after_seconds": retry_after,
                },
            )
        self._ensure_loop_state()
        batcher = self._batcher
        assert self._global_sem is not None and batcher is not None
        self._pending += 1
        self.stats.enter_inflight()
        try:
            async with self._global_sem:
                async with self._tenant_sem(tenant):
                    batcher.enter()
                    try:
                        self.stats.record_tenant(tenant)
                        deadline = self._deadline(request, start)
                        self._check_deadline(deadline, "queued")
                        handler: Callable[..., Any] = getattr(
                            self, f"_op_{op}"
                        )
                        response = await handler(request, deadline)
                    finally:
                        batcher.leave()
            response["op"] = op
            self.stats.record_request(op, clock.monotonic() - start)
            return response
        except ServingError as exc:
            self.stats.record_error(exc.code)
            raise
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.stats.record_error("internal")
            raise ServingError(
                "internal", f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            self._pending -= 1
            self.stats.exit_inflight()

    async def close(self) -> None:
        """Flush any pending micro-batches (idempotent)."""
        if self._batcher is not None:
            self._batcher.flush_all()

    # -- plumbing --------------------------------------------------------
    def _ensure_loop_state(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            self._global_sem = asyncio.Semaphore(self.config.max_inflight)
            self._tenant_sems = {}
            self._batcher = _MicroBatcher(
                loop,
                self.stats,
                window=self.config.batch_window_seconds,
                max_batch=self.config.max_batch,
            )

    def _tenant_sem(self, tenant: str) -> asyncio.Semaphore:
        semaphore = self._tenant_sems.get(tenant)
        if semaphore is None:
            semaphore = asyncio.Semaphore(self.config.per_tenant_inflight)
            self._tenant_sems[tenant] = semaphore
        return semaphore

    def _deadline(
        self, request: Mapping[str, Any], start: float
    ) -> Optional[float]:
        seconds = _bounded(request, "deadline_seconds", math.inf)
        return None if seconds is None else start + seconds

    def _check_deadline(
        self, deadline: Optional[float], stage: str
    ) -> None:
        if deadline is not None and clock.monotonic() >= deadline:
            raise ServingError(
                "deadline-exceeded",
                f"request deadline expired while {stage}",
            )

    def _remaining(self, deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        return max(0.0, deadline - clock.monotonic())

    def _snapshot(self, request: Mapping[str, Any]) -> StoreSnapshot:
        name = request.get("store")
        if name is None:
            names = self.stores.names()
            if len(names) == 1:
                name = names[0]
            else:
                raise ServingError(
                    "bad-request",
                    "request must name a store (available: "
                    f"{', '.join(names) or 'none'})",
                )
        snapshot = self.stores.snapshot(str(name))
        self.stats.reloads = self.stores.reloads
        # Version bump (hot reload / live-cache mutation): stale cached
        # responses are already unreachable — keys embed the version —
        # but purge them eagerly so a reload never pins dead entries.
        last = self._response_versions.get(snapshot.name)
        if last != snapshot.version:
            if last is not None:
                self.responses.purge_store(snapshot.name)
            self._response_versions[snapshot.name] = snapshot.version
        expected = request.get("expect_version")
        if expected is not None and expected != snapshot.version:
            raise ServingError(
                "stale-version",
                f"store {snapshot.name!r} is at version "
                f"{snapshot.version!r}, request expected {expected!r}",
                details={
                    "store": snapshot.name,
                    "current": snapshot.version,
                    "expected": expected,
                },
            )
        return snapshot

    def _lineage(self, data: Any) -> DNF:
        """Decode a lineage and check every atom against the registry.

        Warm traffic names the same few lineages over and over, so the
        decoded DNF is memoised by the lineage's JSON text, which
        :func:`json.dumps` builds in a few µs against ~20–120 µs for the
        decode.  The text identifies the decoded DNF exactly: the codec
        reads a tuple like the array :func:`json.dumps` writes for it,
        and anything else that encodes to an array's text fails to
        decode.  A registry check only changes its verdict when an atom
        probability is written, added or removed, all of which bump
        ``VariableRegistry._atom_probs_version``, so the memo is dropped
        whenever that version moves.  A lineage that fails to decode or
        validate is never stored, so it fails again on every repeat.
        """
        if isinstance(data, DNF):
            return self._checked(data)
        version = self.stores.registry._atom_probs_version
        if version != self._lineages_version:
            self._lineages.clear()
            self._lineages_version = version
        try:
            key = json.dumps(data)
        except (TypeError, ValueError):
            # Not JSON at all: let the decoder name the problem.
            return self._checked(dnf_from_json(data))
        dnf = self._lineages.get(key)
        if dnf is None:
            dnf = self._checked(dnf_from_json(data))
            if len(self._lineages) >= _LINEAGE_MEMO_ENTRIES:
                self._lineages.clear()
            self._lineages[key] = dnf
        return dnf

    def _checked(self, dnf: DNF) -> DNF:
        """``dnf`` itself once every atom is known to the registry."""
        atom_probability = self.stores.registry.atom_probability
        try:
            for clause in dnf:
                for atom_id in clause.atom_ids:
                    atom_probability(atom_id)
        except KeyError as exc:
            raise ServingError(
                "bad-request", f"invalid lineage: {exc.args[0]}"
            ) from None
        return dnf

    async def _with_engine(
        self, deadline: Optional[float], work: Callable[[], Any]
    ) -> Any:
        """Run ``work`` under the engine lock, between two deadline
        checks.

        A request that is alone in the engine (the micro-batcher's idle
        rule, :attr:`_MicroBatcher.alone`) and finds the lock free runs
        ``work`` on the loop thread: no company can be waiting, and the
        worker-thread round trip would cost it more than a small cold
        computation.  A request that arrives meanwhile waits for the
        computation to finish.  Under concurrency, or when the lock is
        held (a thread left behind by a cancelled request), ``work``
        runs on a worker thread so the loop keeps serving.
        """
        self._check_deadline(deadline, "waiting for the engine")
        assert self._batcher is not None
        lock = self._engine_lock
        if self._batcher.alone and lock.acquire(blocking=False):
            try:
                result = work()
            finally:
                lock.release()
        else:

            def locked() -> Any:
                with lock:
                    return work()

            result = await asyncio.to_thread(locked)
        self._check_deadline(deadline, "finishing engine work")
        return result

    async def _circuit_for(
        self,
        snapshot: StoreSnapshot,
        dnf: DNF,
        deadline: Optional[float],
        *,
        compile_cold: bool,
        require_exact: bool = False,
    ) -> Tuple[Optional[Circuit], str]:
        """Resolve a circuit: store snapshot, then overlay, then cold.

        A *partial* store hit defers to the overlay when the overlay
        holds a strictly tighter circuit for the same lineage — that is
        where ``refine`` requests park their expansion progress, and a
        stale snapshot must not shadow it.  With ``require_exact``,
        partial circuits never resolve at all (operations like
        ``evaluate`` and ``gradients`` need exact values, not interval
        midpoints); the lineage degrades to the cold path below, whose
        unbudgeted compile is exact.

        Returns ``(None, "engine")`` for a cold lineage when
        ``compile_cold`` is False — the caller degrades to a direct
        engine computation instead of compiling.
        """
        circuit: Optional[Circuit] = snapshot.get(dnf)
        strategy = "store"
        if circuit is not None and not circuit.is_exact:
            refined = self.overlay.get(dnf)
            if refined is not None and (
                refined.is_exact
                or _interval_width(refined) < _interval_width(circuit)
            ):
                circuit, strategy = refined, "overlay"
        elif circuit is None:
            circuit, strategy = self.overlay.get(dnf), "overlay"
        if require_exact and circuit is not None and not circuit.is_exact:
            circuit = None
        if circuit is not None:
            if strategy == "store":
                self.stats.store_hits += 1
            else:
                self.stats.overlay_hits += 1
            return circuit, strategy
        self.stats.store_misses += 1
        if self.engine is None:
            raise ServingError(
                "unknown-circuit",
                f"lineage not in store {snapshot.name!r} and no engine "
                "is attached for cold computation",
            )
        if not compile_cold:
            return None, "engine"
        engine = self.engine
        circuit = await self._with_engine(
            deadline, lambda: engine.compile_circuit(dnf)  # type: ignore[attr-defined]
        )
        self._to_overlay(snapshot, dnf, circuit)
        self.stats.engine_fallbacks += 1
        return circuit, "engine-compile"

    def _to_overlay(
        self, snapshot: StoreSnapshot, dnf: DNF, circuit: Circuit
    ) -> None:
        """Keep a circuit this server compiled or refined for ``dnf``.

        When the snapshot or the overlay already held a (partial)
        circuit for ``dnf``, the new one shadows it in
        :meth:`_circuit_for`, so responses cached from the old one are
        stale: the store's cached responses go.  (A live-cache
        writeback also bumps the snapshot version, which keys them.)
        """
        if dnf in snapshot or dnf in self.overlay:
            self.responses.purge_store(snapshot.name)
        self.overlay.put(dnf, circuit, exact_only=False)

    async def _rows(
        self,
        rows: List[Tuple[Circuit, Optional[Dict[Any, Any]]]],
        kind: str,
        deadline: Optional[float],
    ) -> List[Any]:
        """Queue ``(circuit, overrides)`` rows on the micro-batcher,
        park on them, then check the deadline."""
        batcher = self._batcher
        assert batcher is not None
        results = await batcher.wait(batcher.submit(rows, kind))
        self._check_deadline(deadline, "awaiting the batched sweep")
        return results

    async def _circuit_rows(
        self,
        snapshot: StoreSnapshot,
        dnf: DNF,
        scenarios: List[Optional[Dict[Any, Any]]],
        kind: str,
        deadline: Optional[float],
        *,
        compile_cold: bool,
        require_exact: bool = False,
        refine: bool = False,
        target_width: Optional[float] = None,
    ) -> Tuple[Optional[Circuit], str, List[Any]]:
        """Resolve the circuit (:meth:`_circuit_for`) and answer one row
        per scenario: a ``refine`` round on a partial circuit when asked
        (strategy ``+refined``), batched rows otherwise.  A ``None``
        circuit (strategy ``engine``) answers no rows; the caller
        degrades to :meth:`_engine_response`."""
        circuit, strategy = await self._circuit_for(
            snapshot,
            dnf,
            deadline,
            compile_cold=compile_cold,
            require_exact=require_exact,
        )
        if circuit is None:
            return None, strategy, []
        if refine and circuit.residuals and self.engine is not None:
            circuit, bounds = await self._refine(
                snapshot, dnf, circuit, scenarios, target_width, deadline
            )
            return circuit, strategy + "+refined", [
                list(pair) for pair in bounds
            ]
        rows = [(circuit, overrides) for overrides in scenarios]
        return circuit, strategy, await self._rows(rows, kind, deadline)

    def _base(
        self, snapshot: StoreSnapshot, strategy: str
    ) -> Dict[str, Any]:
        return {
            "store": snapshot.name,
            "store_version": snapshot.version,
            "strategy": strategy,
        }

    # -- response cache --------------------------------------------------
    def _lookup(
        self,
        snapshot: StoreSnapshot,
        op: str,
        *parts: Any,
        bypass: bool = False,
    ) -> Tuple[Optional[Tuple[Any, ...]], Optional[Dict[str, Any]]]:
        """The request's cache key and its cached response, if any.

        The key is None when the cache is disabled or the request
        ``bypass``-es it (a ``refine`` request mutates the overlay
        circuit between requests).  Besides the snapshot version the
        key carries the registry's atom-probability version: circuits
        evaluate against the live registry, so an in-place probability
        write changes answers without touching the store file.
        """
        if bypass or not self.responses.enabled:
            return None, None
        key = (
            snapshot.name,
            snapshot.version,
            self.stores.registry._atom_probs_version,
            op,
        ) + parts
        response = self.responses.get(key)
        if response is None:
            self.stats.response_misses += 1
            return key, None
        self.stats.response_hits += 1
        response["cached"] = True
        return key, response

    def _admit(
        self,
        key: Optional[Tuple[Any, ...]],
        response: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Cache ``response`` under ``key`` (None: uncacheable); return it."""
        if key is not None:
            self.responses.put(key, response)
        return response

    # -- operations ------------------------------------------------------
    async def _op_evaluate(
        self, request: Mapping[str, Any], deadline: Optional[float]
    ) -> Dict[str, Any]:
        snapshot = self._snapshot(request)
        dnf = self._lineage(request.get("lineage"))
        overrides = overrides_from_json(request.get("overrides"))
        epsilon = _bounded(request, "epsilon", 1.0)
        key, cached = self._lookup(
            snapshot, "evaluate", dnf, canonical_overrides(overrides)
        )
        if cached is not None:
            return cached
        # A cold lineage with overrides needs a circuit (the engine
        # computes base probabilities only), so compile in that case.
        circuit, strategy, values = await self._circuit_rows(
            snapshot,
            dnf,
            [overrides],
            "values",
            deadline,
            compile_cold=overrides is not None,
            require_exact=True,
        )
        if circuit is None:
            return await self._engine_response(
                snapshot, dnf, epsilon, deadline, "value",
                lambda result: result.probability,
            )
        response = self._base(snapshot, strategy)
        response["value"] = values[0]
        response["exact"] = circuit.is_exact
        return self._admit(key, response)

    async def _op_bounds(
        self, request: Mapping[str, Any], deadline: Optional[float]
    ) -> Dict[str, Any]:
        snapshot = self._snapshot(request)
        dnf = self._lineage(request.get("lineage"))
        overrides = overrides_from_json(request.get("overrides"))
        epsilon = _bounded(request, "epsilon", 1.0)
        target_width = _bounded(request, "target_width", math.inf)
        refine = bool(request.get("refine", False))
        key, cached = self._lookup(
            snapshot,
            "bounds",
            dnf,
            canonical_overrides(overrides),
            bypass=refine,
        )
        if cached is not None:
            return cached
        circuit, strategy, results = await self._circuit_rows(
            snapshot,
            dnf,
            [overrides],
            "bounds",
            deadline,
            compile_cold=overrides is not None or refine,
            refine=refine,
            target_width=target_width,
        )
        if circuit is None:
            return await self._engine_response(
                snapshot, dnf, epsilon, deadline, "bounds",
                lambda result: [result.lower, result.upper],
            )
        bounds = results[0]
        response = self._base(snapshot, strategy)
        response["bounds"] = bounds
        response["width"] = bounds[1] - bounds[0]
        return self._admit(key, response)

    async def _op_gradients(
        self, request: Mapping[str, Any], deadline: Optional[float]
    ) -> Dict[str, Any]:
        snapshot = self._snapshot(request)
        dnf = self._lineage(request.get("lineage"))
        overrides = overrides_from_json(request.get("overrides"))
        key, cached = self._lookup(
            snapshot, "gradients", dnf, canonical_overrides(overrides)
        )
        if cached is not None:
            return cached
        circuit, strategy = await self._circuit_for(
            snapshot, dnf, deadline, compile_cold=True, require_exact=True
        )
        assert circuit is not None
        # Scalar on purpose: Circuit.gradients is the bit-exact
        # reference (the kernel's adjoint fold agrees only to ~1e-12).
        try:
            gradients = circuit.gradients(overrides)
        except Exception as exc:
            raise ServingError(
                "bad-request", f"invalid overrides: {exc}"
            ) from exc
        self._check_deadline(deadline, "computing gradients")
        response = self._base(snapshot, strategy)
        response["gradients"] = gradients_to_json(gradients)
        return self._admit(key, response)

    async def _op_what_if(
        self, request: Mapping[str, Any], deadline: Optional[float]
    ) -> Dict[str, Any]:
        snapshot = self._snapshot(request)
        dnf = self._lineage(request.get("lineage"))
        variable = value_from_json(request.get("variable"))
        probabilities = request.get("probabilities")
        if not isinstance(probabilities, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool)
            for p in probabilities
        ):
            raise ServingError(
                "bad-request",
                "what_if needs a numeric probabilities list",
            )
        key, cached = self._lookup(
            snapshot,
            "what_if",
            dnf,
            variable,
            tuple(float(p) for p in probabilities),
        )
        if cached is not None:
            return cached
        _, strategy, values = await self._circuit_rows(
            snapshot,
            dnf,
            list(what_if_scenarios(variable, probabilities)),
            "values",
            deadline,
            compile_cold=True,
            require_exact=True,
        )
        response = self._base(snapshot, strategy)
        response["variable"] = value_to_json(variable)
        response["probabilities"] = [float(p) for p in probabilities]
        response["values"] = values
        return self._admit(key, response)

    async def _op_sweep(
        self, request: Mapping[str, Any], deadline: Optional[float]
    ) -> Dict[str, Any]:
        snapshot = self._snapshot(request)
        dnf = self._lineage(request.get("lineage"))
        scenarios = scenarios_from_json(request.get("scenarios"))
        kind = request.get("kind", "values")
        if kind not in ("values", "bounds"):
            raise ServingError(
                "bad-request",
                f"sweep kind must be 'values' or 'bounds', got {kind!r}",
            )
        refine = bool(request.get("refine", False)) and kind == "bounds"
        target_width = _bounded(request, "target_width", math.inf)
        key, cached = self._lookup(
            snapshot,
            "sweep",
            dnf,
            kind,
            tuple(canonical_overrides(s) for s in scenarios),
            bypass=refine,
        )
        if cached is not None:
            return cached
        _, strategy, results = await self._circuit_rows(
            snapshot,
            dnf,
            scenarios,
            kind,
            deadline,
            compile_cold=True,
            refine=refine,
            target_width=target_width,
        )
        response = self._base(snapshot, strategy)
        response["results"] = results
        response["kind"] = kind
        response["scenario_count"] = len(scenarios)
        return self._admit(key, response)

    async def _op_top_k(
        self, request: Mapping[str, Any], deadline: Optional[float]
    ) -> Dict[str, Any]:
        snapshot = self._snapshot(request)
        lineages_data = request.get("lineages")
        if not isinstance(lineages_data, list) or not lineages_data:
            raise ServingError(
                "bad-request", "top_k needs a non-empty lineages list"
            )
        dnfs = [self._lineage(entry) for entry in lineages_data]
        answers = answers_from_json(request.get("answers"), len(dnfs))
        k = request.get("k", len(dnfs))
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ServingError(
                "bad-request", f"k must be a positive integer, got {k!r}"
            )
        k = min(k, len(dnfs))
        overrides = overrides_from_json(request.get("overrides"))
        key, cached = self._lookup(
            snapshot,
            "top_k",
            tuple(dnfs),
            k,
            canonical_overrides(overrides),
            tuple(answers),
        )
        if cached is not None:
            return cached
        strategies = set()
        rows = []
        for dnf in dnfs:
            circuit, strategy = await self._circuit_for(
                snapshot, dnf, deadline, compile_cold=True,
                require_exact=True,
            )
            assert circuit is not None
            strategies.add(strategy)
            rows.append((circuit, overrides))
        values = await self._rows(rows, "values", deadline)
        ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
        response = self._base(
            snapshot, strategies.pop() if len(strategies) == 1 else "mixed"
        )
        response["k"] = k
        response["answers"] = [
            [value_to_json(answers[i]), values[i]] for i in ranked[:k]
        ]
        return self._admit(key, response)

    # -- degradation helpers ---------------------------------------------
    async def _engine_response(
        self,
        snapshot: StoreSnapshot,
        dnf: DNF,
        epsilon: Optional[float],
        deadline: Optional[float],
        field: str,
        pick: Callable[[Any], Any],
    ) -> Dict[str, Any]:
        """The cold ``engine`` answer: ``pick(result)`` of a direct
        engine computation, its ``converged`` and ``reason``.  Never
        cached: it may have used the (seeded or not) MC rung, and its
        convergence is budget-dependent."""
        engine = self.engine
        assert engine is not None

        def work() -> Any:
            return engine.compute(  # type: ignore[attr-defined]
                dnf,
                epsilon=epsilon,
                deadline_seconds=self._remaining(deadline),
            )

        result = await self._with_engine(deadline, work)
        if getattr(result, "circuit", None) is not None:
            self._to_overlay(snapshot, dnf, result.circuit)
        self.stats.engine_fallbacks += 1
        response = self._base(snapshot, "engine")
        response[field] = pick(result)
        response["converged"] = result.converged
        response["reason"] = result.reason
        return response

    async def _refine(
        self,
        snapshot: StoreSnapshot,
        dnf: DNF,
        circuit: Circuit,
        scenarios: List[Optional[Dict[Any, Any]]],
        target_width: Optional[float],
        deadline: Optional[float],
    ) -> Tuple[Circuit, List[Tuple[float, float]]]:
        """Batched residual refinement across all request scenarios.

        The expanded circuit outlives the request: it always lands in
        the overlay (``_circuit_for`` prefers it over the stale partial
        snapshot), and for live-cache stores it is also written back to
        the backing session cache, whose owner persists it on close
        (``persist_circuits=``) — refinement progress survives requests
        and processes.
        """
        engine = self.engine
        assert engine is not None

        def work() -> Tuple[Circuit, List[Tuple[float, float]]]:
            return refine_sweep_bounds(
                circuit,
                scenarios,
                compile_subcircuit=engine.compile_circuit,  # type: ignore[attr-defined]
                target_width=target_width or 0.0,
                max_rounds=_REFINE_ROUNDS,
            )

        refined, bounds = await self._with_engine(deadline, work)
        if refined is not circuit:
            self._to_overlay(snapshot, dnf, refined)
            self.stores.writeback(snapshot.name, dnf, refined)
            self.stats.refinements += 1
        return refined, bounds

    def __repr__(self) -> str:
        return (
            f"ServingEngine(stores={list(self.stores.names())!r}, "
            f"engine={'attached' if self.engine else 'none'}, "
            f"{self.stats!r})"
        )
