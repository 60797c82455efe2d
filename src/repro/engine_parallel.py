"""Pooled execution of batched confidence computation.

The paper's anytime d-tree decomposition is embarrassingly parallel
across answer tuples: each lineage DNF is an independent computation
against a shared, read-only probability space.  This module is the
pool side of :class:`~repro.engine.BatchComputation`.  A batch with
more than one shard (``shards = min(workers, len(batch))``) hands its
rounds to :class:`PooledRounds`, which deals the round's tuples across
a pool of workers — each running a full
:class:`~repro.engine.ConfidenceEngine` with its own
:class:`~repro.core.memo.DecompositionCache` — and merges the results
deterministically.  Everything else about the batch (budgets,
deadlines, the widest-first schedule, circuit-refine, the monotone
merge) lives once, in :class:`~repro.engine.BatchComputation`.
``workers``/``executor_kind`` on :class:`~repro.engine.EngineConfig`
(or the per-call overrides) select the pool; the default ``workers=1``
keeps every round inline.

Executor kinds
--------------
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Escapes the
    GIL — the only way CPU-bound d-tree work actually scales — at the
    cost of pool start-up and per-task pickling.  The pool initializer
    ships three things **once per worker**, not per task: the
    process-wide intern-table snapshot
    (:func:`~repro.core.variables.intern_snapshot`), the registry, and
    the engine config.  After the snapshot is installed, clauses and
    DNFs cross the boundary as bare integer-id tuples (see
    ``Clause.__reduce__``), which keeps task payloads tiny.
``"thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor` over per-shard
    engines in the current process.  No pickling, no start-up cost, one
    shared intern table — but GIL-bound, so it parallelises nothing
    CPU-heavy.  It exists for cheap differential testing of the sharded
    machinery and for workloads dominated by waiting (deadlines).

Work-stealing refinement schedule
---------------------------------
Refinement proceeds in rounds.  Each round the coordinator collects the
refinable tuples (unconverged, budget headroom left), orders them by
certified interval width — widest, i.e. most ambiguous, first — and
deals the top ``shards`` of them round-robin across the shards.  A tuple
is *not* pinned to the shard that previously refined it: the widest
intervals are rebalanced across the whole pool every round, so one shard
stuck with all the hard tuples sheds them to idle siblings (at the price
of re-warming a different worker's cache, which the decomposition memo
makes cheap).  Within a shard, the dealt tuples are processed in that
same width order.

Determinism
-----------
Shard assignment, round scheduling, and merge order are pure functions
of the input batch — no reliance on pool completion order.  Exact
strategies (trivial / read-once / converged ``ε = 0`` d-tree) therefore
return bit-identical probabilities to inline rounds; anytime runs
return certified bounds that are sound by the same argument as the
inline path's (and are intersected monotonically across rounds).  The
differential suite in ``tests/test_parallel_differential.py`` enforces
both properties.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from contextlib import contextmanager
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .circuits.serialize import (
    decode_circuit,
    encode_cache_slice,
    encode_circuit,
    merge_cache_slice,
)
from .core.dnf import DNF
from .core.events import Clause
from .core.variables import (
    InternSnapshot,
    VariableRegistry,
    install_intern_snapshot,
    intern_snapshot,
    intern_version,
)
from .engine import (
    BatchComputation,
    ConfidenceEngine,
    EngineConfig,
    EngineResult,
    _circuit_max_nodes,
    _compute_round,
)

__all__ = ["PooledRounds", "WorkerPool", "build_worker_engine"]

#: ``(index, dnf, step budget)`` — one unit of shard work.  The process
#: path ships the DNF through the interned-id codec below instead of
#: the (safe but heavier) name-based pickle encoding.
_WorkItem = Tuple[int, object, Optional[int]]

#: A DNF as nested interned-id tuples — one tuple of small ints per
#: clause.  Valid only between snapshot-synchronised processes.
_EncodedDNF = Tuple[Tuple[int, ...], ...]


def _encode_dnf(dnf: DNF) -> _EncodedDNF:
    """Cheap wire form for pool tasks: bare atom-id tuples.

    Public ``pickle`` of a DNF re-interns by variable/value names so it
    is safe anywhere; this codec skips that for the pool's hot path,
    which is sound because every pool worker replayed the coordinator's
    intern snapshot in its initializer.
    """
    return tuple(clause.atom_ids for clause in dnf.sorted_clauses())


def _decode_dnf(encoded: _EncodedDNF) -> DNF:
    return DNF(Clause._from_atom_ids(ids) for ids in encoded)
#: ``(per-item results, cache stats, worker key)`` — one task's report.
_ShardReport = Tuple[List[Tuple[int, EngineResult]], Dict[str, int], object]

#: ``(index, circuit record)`` — one compiled and serialized final
#: answer; a ``None`` record means the worker could not serialize it
#: (coordinator falls back to compiling that index itself).
_CircuitPayload = Tuple[int, Optional[bytes]]
#: ``(circuit payloads, union cache slice, cache stats, worker key)``.
_CompileReport = Tuple[
    List[_CircuitPayload], Optional[bytes], Dict[str, int], object
]

# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: The per-process engine built by :func:`_process_worker_init`.  One per
#: pool worker, owning its own DecompositionCache for the pool's
#: lifetime, so repeated refinement rounds resume instead of restarting.
_WORKER_ENGINE: Optional[ConfidenceEngine] = None


def build_worker_engine(
    snapshot: InternSnapshot,
    registry: VariableRegistry,
    config: EngineConfig,
) -> ConfidenceEngine:
    """Install a coordinator's intern snapshot and build a worker engine.

    The one true recipe for standing up a shard process: replay the
    intern-table snapshot first (so id-encoded clauses deserialise
    correctly and ids stay stable both ways), then build a private
    engine + cache on top.  Used by this module's pool initializer and
    by :mod:`repro.serving.fleet` worker processes, which must agree
    with the pools on intern-id semantics to share persisted stores.
    """
    install_intern_snapshot(snapshot)
    return ConfidenceEngine(registry, config)


def _process_worker_init(
    snapshot: InternSnapshot,
    registry: VariableRegistry,
    config: EngineConfig,
) -> None:
    """Process-pool initializer: runs once per worker process."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = build_worker_engine(snapshot, registry, config)


def _run_items(
    engine: ConfidenceEngine,
    items: Sequence[Tuple[int, DNF, Optional[int]]],
    epsilon: float,
    error_kind: str,
    deadline_remaining: Optional[float],
    worker_key: object,
) -> _ShardReport:
    """One shard task: the shared round body
    (:func:`repro.engine._compute_round`) on one worker engine, plus the
    cache stats and worker key the coordinator keeps."""
    results = _compute_round(
        engine, items, epsilon, error_kind, deadline_remaining
    )
    return results, engine.cache.stats(), worker_key


def _process_run_items(
    items: Sequence[_WorkItem],
    epsilon: float,
    error_kind: str,
    deadline_remaining: Optional[float],
) -> _ShardReport:
    """Process-pool task body: decode the id-encoded DNFs and run them
    on the per-process engine."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker engine missing: initializer did not run")
    decoded = [
        (index, _decode_dnf(encoded), budget)
        for index, encoded, budget in items
    ]
    return _run_items(
        engine, decoded, epsilon, error_kind, deadline_remaining,
        os.getpid(),
    )


def _compile_items(
    engine: ConfidenceEngine,
    items: Sequence[_WorkItem],
    worker_key: object,
) -> _CompileReport:
    """Compile one shard's final-answer circuits and serialize them.

    Runs on the same worker (and cache) that just decomposed the
    lineage, so compilation is a warm replay.  Each circuit ships as a
    name-based :mod:`repro.circuits.serialize` record — valid in any
    process — and the whole shard ships **one union slice** of the
    decomposition-cache cones its compiles walked (shared cones are
    serialized once), so the coordinator can both attach the circuits
    *and* warm its own cache without re-decomposing anything.

    Thread pools run the very same codec even though they could hand
    objects across directly — deliberately: the cheap thread-pool
    differential suites then exercise exactly the wire path the
    process pool uses, and thread pools are the testing/deadline
    executor, not the CPU-throughput one.
    """
    out: List[_CircuitPayload] = []
    compiled: List[DNF] = []
    for index, dnf, max_nodes in items:
        circuit = engine.compile_circuit(dnf, max_nodes=max_nodes)
        try:
            payload = encode_circuit(circuit)
        except Exception:
            # Unserializable variable names (possible on thread pools,
            # which never pickle anything): fall back to a coordinator
            # compile for this index rather than failing the batch.
            out.append((index, None))
            continue
        out.append((index, payload))
        compiled.append(dnf)
    slice_payload: Optional[bytes] = None
    if compiled:
        try:
            slice_payload = encode_cache_slice(engine.cache, *compiled)
        except Exception:
            slice_payload = None  # circuits still ship; cache stays cold
    return out, slice_payload, engine.cache.stats(), worker_key


def _process_compile_items(items: Sequence[_WorkItem]) -> _CompileReport:
    """Process-pool task body for the final circuit-compile round."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker engine missing: initializer did not run")
    decoded = [
        (index, _decode_dnf(encoded), budget)
        for index, encoded, budget in items
    ]
    return _compile_items(engine, decoded, os.getpid())


def _worker_probe(encoded: _EncodedDNF):
    """Decode an id-encoded DNF and report structure *and* ids.

    Test hook for the pickle/snapshot property suite: a spawn-started
    worker (fresh, empty intern tables until the initializer replayed
    the snapshot) decodes bare atom ids and reports what it sees —
    the parent asserts the ids mapped back to the very same variables
    and values, and that re-interning them yields the same ids.
    """
    dnf = _decode_dnf(encoded)
    return [
        (
            clause.atom_ids,
            sorted(clause.items(), key=lambda item: repr(item)),
        )
        for clause in dnf.sorted_clauses()
    ]


# ----------------------------------------------------------------------
# Engine-lifetime worker pools
# ----------------------------------------------------------------------
class WorkerPool:
    """An executor (plus per-worker engines) amortized across batches.

    A :class:`WorkerPool` lives on the
    :class:`~repro.engine.ConfidenceEngine` (``engine._worker_pools``,
    one slot per executor kind) for the engine's lifetime and is shared
    by every pooled batch the engine runs, so a ``workers=N`` session
    serving many small queries pays pool start-up once and its worker
    decomposition caches stay warm.

    Staleness: a process pool ships the intern-table snapshot once per
    worker at start-up, and tasks cross the boundary as bare interned
    ids — valid only while the coordinator's tables match the shipped
    snapshot.  The pool therefore records its snapshot's
    :func:`~repro.core.variables.intern_version`;
    :func:`acquire_worker_pool` compares it per round and rebuilds the
    pool (re-shipping a fresh snapshot) only when new atoms were
    interned since pool start.  Thread pools share the process's
    tables and never go stale; their per-shard engines (and caches)
    persist warm across batches.

    Concurrency: a shared pool serializes *rounds* via
    :attr:`round_lock` — two batches driving one engine from different
    threads interleave whole rounds instead of racing the per-shard
    worker engines (which are single-threaded by design), and a stale
    pool is only ever closed between rounds, never under one.
    """

    __slots__ = (
        "kind",
        "size",
        "registry",
        "config",
        "executor",
        "thread_engines",
        "snapshot_version",
        "round_lock",
        "_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        registry: VariableRegistry,
        config: EngineConfig,
        kind: str,
        size: int,
    ) -> None:
        self.kind = kind
        self.size = size
        self.registry = registry
        self.config = config
        self.thread_engines: Optional[List[ConfidenceEngine]] = None
        self.snapshot_version: Optional[Tuple[int, int]] = None
        self.round_lock = threading.Lock()
        if kind == "thread":
            self.thread_engines = [
                ConfidenceEngine(registry, config) for _ in range(size)
            ]
            executor: Executor = ThreadPoolExecutor(
                max_workers=size,
                thread_name_prefix="repro-shard",
            )
        else:
            try:
                payload = pickle.dumps((registry, config))
            except Exception as exc:
                raise ValueError(
                    "process-pool execution needs a picklable registry "
                    "and EngineConfig; choose_variable closures are the "
                    "usual culprit — use a picklable selector (e.g. "
                    "repro.core.orders.CompositeSelector) or "
                    "executor_kind='thread'"
                ) from exc
            del payload
            mp_context = None
            import multiprocessing

            # fork (where available) shares the parent's pages — intern
            # tables included — making the snapshot install a cheap
            # verification replay; spawn pays a fresh-interpreter start
            # but replays the snapshot for real.
            if "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
            snapshot = intern_snapshot()
            # Version derived from the snapshot itself, so the staleness
            # comparison is exact even if another thread interns between
            # the snapshot and this assignment.
            self.snapshot_version = (len(snapshot[0]), len(snapshot[1]))
            executor = ProcessPoolExecutor(
                max_workers=size,
                mp_context=mp_context,
                initializer=_process_worker_init,
                initargs=(snapshot, registry, config),
            )
        self.executor = executor
        # GC backstop: must capture the executor, never ``self``.
        self._finalizer = weakref.finalize(
            self, _shutdown_executor, executor
        )

    def serves(self, kind: str, shards: int, config: EngineConfig) -> bool:
        """Can this pool run a round of ``shards`` tasks as configured?"""
        if self.kind != kind or self.size < shards:
            return False
        if self.config != config:
            return False
        if self.kind == "process":
            return self.snapshot_version == intern_version()
        return True

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()  # runs _shutdown_executor exactly once
        self.thread_engines = None

    def __repr__(self) -> str:
        return (
            f"WorkerPool({self.size} {self.kind} workers, "
            f"snapshot_version={self.snapshot_version})"
        )


def acquire_worker_pool(
    engine: ConfidenceEngine,
    kind: str,
    shards: int,
    size: int,
    config: EngineConfig,
) -> WorkerPool:
    """The engine's worker pool for ``kind``, (re)built only when it
    cannot serve.

    One slot per executor kind (interleaved thread- and process-pool
    batches don't evict each other); within a kind, reuse requires the
    same shard config, enough workers, and — for process pools — no
    atoms interned since the pool's snapshot was shipped.  On a
    rebuild the old pool is shut down first; ``engine._pool_starts``
    counts builds (observable by tests and benchmarks as the
    amortization measure).
    """
    with engine._pool_lock:
        stale = engine._worker_pools.get(kind)
        if stale is not None and stale.serves(kind, shards, config):
            return stale
        if stale is not None:
            del engine._worker_pools[kind]
        pool = WorkerPool(
            engine.registry, config, kind, max(shards, size)
        )
        engine._worker_pools[kind] = pool
        engine._pool_starts += 1
    if stale is not None:
        # Shut the displaced pool down outside the engine lock, and
        # never mid-round: a concurrent batch may be inside one (it
        # re-acquires per round and heals onto the new pool).  The
        # only lock nesting anywhere is round_lock -> engine lock
        # (_evict_pool), so waiting on round_lock here cannot deadlock.
        with stale.round_lock:
            stale.close()
    return pool


# ----------------------------------------------------------------------
# The coordinator side of a pooled round
# ----------------------------------------------------------------------
class PooledRounds:
    """Where a multi-shard :class:`~repro.engine.BatchComputation` runs
    its rounds.

    Owns everything between the batch and the engine's
    :class:`WorkerPool`: the pool lease (re-validated every round), the
    round lock, eviction of a broken pool, the round-robin deal, and
    the index-ordered merge.  Two kinds of round share that machinery:
    :meth:`compute` (the initial pass and every refinement round) and
    :meth:`compile_circuits` (the final compile-and-ship round).

    The coordinating engine is *never* called for d-tree work here —
    every decomposition runs on a worker engine with its own cache;
    :attr:`worker_stats` keeps each worker's latest cache counters.
    """

    __slots__ = ("engine", "kind", "shards", "size", "config", "pool",
                 "worker_stats")

    def __init__(
        self,
        engine: ConfidenceEngine,
        kind: str,
        shards: int,
        size: int,
    ) -> None:
        self.engine = engine
        self.kind = kind
        self.shards = shards
        self.size = size
        # Workers never recurse into sharding, never sample (MC is
        # finalized on the coordinator, deterministic under rng_seed),
        # and never compile circuits mid-refinement (round results are
        # replaced, and payloads stay small); final-answer circuits
        # are compiled in one dedicated round and shipped back
        # serialized (compile_circuits).
        self.config = engine.config.replace(
            workers=1, mc_fallback=False, max_total_steps=None,
            compile_circuits=False,
        )
        self.pool: Optional[WorkerPool] = None
        #: Latest cache stats per worker (shard id for threads, pid for
        #: processes).
        self.worker_stats: Dict[object, Dict[str, int]] = {}

    def close(self) -> None:
        """Drop the pool lease; the pool itself stays on the engine."""
        self.pool = None

    def _acquire(self) -> WorkerPool:
        self.pool = acquire_worker_pool(
            self.engine, self.kind, self.shards, self.size, self.config
        )
        return self.pool

    @contextmanager
    def _locked_pool(self) -> Iterator[WorkerPool]:
        """The engine's pool, held under its round lock for one round.

        Whole rounds serialize on the pool: concurrent batches on one
        engine interleave rounds instead of racing the single-threaded
        per-shard worker engines.  Between acquisition and locking, a
        concurrent acquire may have displaced (and closed) our pool —
        re-validate under the lock and re-acquire if so, instead of
        submitting on a shut-down executor.
        """
        pool = self._acquire()
        for _attempt in range(8):
            pool.round_lock.acquire()
            if self.engine._worker_pools.get(self.kind) is pool:
                break
            pool.round_lock.release()
            pool = self._acquire()
        else:  # pragma: no cover - displacement storm
            raise RuntimeError(
                "worker pool kept being displaced by concurrent batches"
            )
        try:
            yield pool
        finally:
            pool.round_lock.release()

    def _evict(self) -> None:
        """Drop a broken pool from the engine so the next batch heals.

        A crashed worker (OOM kill, segfault) breaks the executor for
        good; without eviction every later batch on this engine would
        inherit the corpse.  The current batch still surfaces the
        error; the *next* batch simply builds a fresh pool.
        """
        pool = self.pool
        self.pool = None
        if pool is None:
            return
        with self.engine._pool_lock:
            pools = self.engine._worker_pools
            for kind, candidate in list(pools.items()):
                if candidate is pool:
                    del pools[kind]
        # Called from inside our own round (round_lock held), so
        # closing here cannot yank the pool from under another round.
        pool.close()

    def _round(
        self,
        bodies: Tuple[Callable[..., tuple], Callable[..., tuple]],
        items: Sequence[_WorkItem],
        task_args: Callable[[], tuple],
    ) -> List[tuple]:
        """Deal ``items`` round-robin across the shards and run them.

        ``bodies`` is the ``(thread, process)`` task-body pair: a
        thread body takes ``(worker engine, items, *args, shard)``, a
        process body ``(items, *args)`` and runs on the per-process
        engine.  ``task_args`` is evaluated once the round lock is
        held, so a deadline measured there excludes time spent waiting
        out another batch's round.  Returns each shard's report minus
        its trailing ``(cache stats, worker key)``, in shard order —
        independent of pool completion order.
        """
        thread_body, process_body = bodies
        encode = (
            _encode_dnf if self.kind == "process" else (lambda dnf: dnf)
        )
        assignments: List[List[_WorkItem]] = [
            [] for _ in range(self.shards)
        ]
        for position, (index, dnf, budget) in enumerate(items):
            assignments[position % self.shards].append(
                (index, encode(dnf), budget)
            )
        reports: List[tuple] = []
        with self._locked_pool() as pool:
            args = task_args()
            try:
                futures = [
                    pool.executor.submit(
                        thread_body, pool.thread_engines[shard],
                        shard_items, *args, shard,
                    )
                    if self.kind == "thread"
                    else pool.executor.submit(
                        process_body, shard_items, *args
                    )
                    for shard, shard_items in enumerate(assignments)
                    if shard_items
                ]
            except (BrokenExecutor, RuntimeError):
                # submit() raises only when the executor itself is
                # broken or shut down — either way the pool is a
                # corpse: evict it so the next batch builds fresh.
                self._evict()
                raise
            try:
                for future in futures:
                    *report, stats, worker_key = future.result()
                    self.worker_stats[worker_key] = stats
                    reports.append(report)
            except BrokenExecutor:
                # A worker died mid-task (OOM kill, segfault):
                # permanent.  Errors raised *by* worker computation
                # re-raise through result() without this handler — they
                # must not cost a healthy pool its warm caches.
                self._evict()
                raise
        return reports

    def compute(
        self,
        batch: BatchComputation,
        items: Sequence[Tuple[int, DNF, Optional[int]]],
    ) -> List[Tuple[int, EngineResult]]:
        """One round computing ``batch``'s ``(index, dnf, step budget)``
        items.

        ``items`` arrive pre-ordered (by index for the initial pass,
        widest-first for refinement rounds); the results come back
        ordered by tuple index.
        """
        reports = self._round(
            (_run_items, _process_run_items),
            items,
            lambda: (
                batch.epsilon, batch.error_kind, batch.remaining_seconds()
            ),
        )
        merged = [pair for (results,) in reports for pair in results]
        merged.sort(key=lambda pair: pair[0])
        return merged

    def compile_circuits(self, batch: BatchComputation) -> int:
        """One compile round on the warm workers; circuits ship back.

        Every final result still missing a circuit is dealt in index
        order round-robin across the shards — the same deal as the
        initial pass, so in the common case each lineage lands on a
        worker whose cache already replayed it.  The worker compiles
        it (exact or node-budgeted, the engine's attach policy) and
        serializes it with :func:`repro.circuits.serialize.encode_circuit`;
        each shard additionally ships one *union* slice of the
        decomposition-cache cones its compiles walked.  The coordinator
        decodes the circuits onto ``batch.results`` and merges the
        slices into its own cache, so the final answers carry circuits
        with **zero cold decomposition steps on the coordinator**.

        Returns the number of circuits installed.  Indices a worker
        could not serialize are left for the coordinator's fallback
        compile in
        :meth:`~repro.engine.ConfidenceEngine._attach_batch_circuits`.
        """
        items = [
            (index, batch.dnfs[index],
             _circuit_max_nodes(result, batch.dnfs[index]))
            for index, result in enumerate(batch.results)
            if result.circuit is None
        ]
        if not items:
            return 0
        reports = self._round(
            (_compile_items, _process_compile_items), items, tuple
        )
        # Bind first so the merged slices survive the engine's next
        # bind instead of being cleared as foreign-config entries.
        cache = self.engine.bind_cache()
        payloads: List[_CircuitPayload] = []
        for shard_payloads, slice_bytes in reports:
            payloads.extend(shard_payloads)
            if slice_bytes is not None:
                merge_cache_slice(slice_bytes, cache)
        installed = 0
        for index, record in sorted(payloads, key=lambda pair: pair[0]):
            if record is None:
                continue
            circuit, _key = decode_circuit(
                record, self.engine.registry, validate=False
            )
            batch.results[index].circuit = circuit
            installed += 1
        return installed


def _shutdown_executor(executor: Executor) -> None:
    # wait=True: rounds are synchronous, so nothing is ever in flight
    # here, and draining the pool's threads deterministically matters —
    # a stray worker thread would make a later fork() warn on 3.12+.
    executor.shutdown(wait=True, cancel_futures=True)
