"""Unified confidence-computation planner: the :class:`ConfidenceEngine`.

The paper evaluates four ways of computing a tuple's confidence — exact
d-tree compilation, the incremental ε-approximation (Section V), SPROUT's
query-aware extensional plans [Olteanu, Huang, Koch; ICDE 2009], and the
``aconf`` Monte-Carlo baseline — and Section VI maps out exactly when each
is the right tool.  The seed library exposed them as disconnected entry
points the caller had to pick by hand; this module is the planner that
picks for them.

Strategy-selection ladder
-------------------------
:meth:`ConfidenceEngine.compute` walks the ladder top to bottom and stops
at the first strategy that answers the request:

1. ``trivial`` — the DNF is constant false/true: answer immediately.
2. ``read-once`` — the lineage factors into one-occurrence form
   (Section VI.B): exact probability in linear time on the factored form.
   This captures hierarchical-query lineage (Prop. 6.3) without needing
   the query.
3. ``sprout`` — *query level only* (:meth:`compute_query`): hierarchical
   conjunctive queries without self-joins on tuple-independent tables are
   evaluated extensionally, never materialising lineage.  Every other
   query, and any query SPROUT refuses, raises
   :class:`~repro.db.sprout.UnsafeQueryError`; the session
   (:meth:`repro.db.session.QueryResult.confidences`) owns the fallback
   and sends the answers' lineage down this ladder as one batch.
4. ``dtree`` — the incremental ε-approximation with certified bounds (the
   paper's main algorithm; exact when ``ε = 0``), under the engine's
   time/step budget and shared decomposition memo cache.
5. ``mc`` — when the d-tree run exhausts its budget without certifying
   the requested ε and a relative guarantee was asked for, fall back to
   the Karp–Luby/DKLR ``aconf`` estimator; its estimate is clipped into
   the (always sound) d-tree bounds.

Every result reports which rung answered and why, and
:func:`repro.db.explain.explain` surfaces the same decision for a query
before any computation runs.

Configuration is one frozen :class:`EngineConfig` value — the same
dataclass every public path (:class:`~repro.db.session.ProbDB`, the SQL
front-end, top-k, explain, the benchmark harness) accepts, replacing the
per-function kwarg plumbing of earlier revisions.

Batched computation
-------------------
:meth:`ConfidenceEngine.compute_many` answers a *set* of lineage formulas
as one prioritized anytime computation (the MystiQ view of multi-answer
queries), always through :class:`BatchComputation`: under a shared
step budget it round-robins refinement across tuples by certified
interval width, so the widest — most ambiguous — answer is always the
one refined next; without one, every tuple gets its full per-call
budget in a single pass.  Either way every tuple's refinement reuses
the cache entries its siblings just populated, and the MC rung and
circuit compilation run once, on the final answers.  Top-k ranking
(:func:`repro.db.topk.rank_answers`) and the session façade's
``QueryResult.bounds()`` iterator are thin consumers of the same
machinery, and stop refining on the same rule
(:meth:`BatchComputation.spent`).

The engine also owns a :class:`~repro.core.memo.DecompositionCache`
shared across all of its calls: repeated sub-DNFs — ubiquitous in top-k
interval refinement and multi-answer queries over shared tuples — fold
instantly instead of being recompiled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import threading
from concurrent.futures import BrokenExecutor
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine_parallel import PooledRounds, WorkerPool

from .circuits.circuit import Circuit
from .circuits.compiler import CircuitCompilationStats
from .circuits.compiler import compile_circuit as _compile_circuit
from .circuits.kernels import BACKEND_NUMPY, kernel_backend
from .core import clock
from .core.approx import (
    ABSOLUTE,
    RELATIVE,
    ApproximationResult,
    approximate_probability,
    interval_certified,
    interval_estimate,
)
from .core.dnf import DNF
from .core.formulas import Formula
from .core.memo import DecompositionCache
from .core.orders import VariableSelector
from .core.readonce import try_read_once
from .core.variables import VariableRegistry

__all__ = [
    "BatchComputation",
    "ConfidenceEngine",
    "EngineConfig",
    "EngineResult",
    "STRATEGY_LADDER",
    "circuit_hit_result",
]

#: The ladder, in selection order (``sprout`` applies at query level).
STRATEGY_LADDER: Tuple[str, ...] = (
    "trivial",
    "read-once",
    "sprout",
    "dtree",
    "mc",
)

Lineage = Union[DNF, Formula]

#: What the engine's memos carry from one statement (one
#: :meth:`ConfidenceEngine.compute_many` batch) into the next: above
#: these sizes they are cleared when the next batch starts.  Inside a
#: batch the decomposition cache keeps its own, far larger cap.
_CARRY_DECOMPOSITIONS = 256
_CARRY_READ_ONCE = 32


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """One frozen bundle of confidence-computation policy.

    Every public confidence path — :class:`ConfidenceEngine` itself, the
    :class:`~repro.db.session.ProbDB` façade, SQL ``conf()``, top-k, and
    the benchmark harness — honours the same config object; there are no
    other knobs.

    Attributes
    ----------
    epsilon, error_kind:
        Default approximation request (``ε = 0`` asks for exact;
        ``"absolute"`` or ``"relative"``, Definition 5.7).
    choose_variable:
        Shannon pivot selector (e.g. the Lemma 6.8 IQ order).  ``None``
        means *auto*: database-backed constructors wire the database's
        provenance order, bare registries fall back to max-frequency.
    deadline_seconds, max_steps:
        Per-call work budget for the d-tree rung.
    mc_fallback, mc_max_samples:
        Enable the ``aconf`` rung for budget-exhausted relative-error
        requests, and its only work bound (sampling has no wall-clock
        deadline of its own).
    try_read_once:
        Attempt the linear-time 1OF rung first (off forces the d-tree
        path, for ablations).
    allow_closing, sort_buckets, read_once_buckets:
        The Section V heuristic toggles, forwarded to
        :func:`~repro.core.approx.approximate_probability` (ablation
        knobs; the defaults match the paper's configuration).
    initial_steps, step_growth:
        Refinement schedule for batched anytime computation: each round
        the most ambiguous tuple's step budget is multiplied by
        ``step_growth``.
    max_total_steps:
        Shared step budget across a whole :meth:`ConfidenceEngine.compute_many`
        batch.  ``None`` (the default) means every tuple runs to its own
        guarantee; top-k defaults to 200 000 when unset.
    workers, executor_kind:
        Parallel execution policy for batched computation.  A
        :class:`BatchComputation` (behind
        :meth:`ConfidenceEngine.compute_many` /
        :meth:`ConfidenceEngine.refine_many`) runs its rounds inline
        on the engine when ``min(workers, len(batch)) == 1`` — always
        under the default ``workers=1`` — and otherwise on a pool of
        ``"process"`` or ``"thread"`` workers, each with its own engine
        and decomposition cache (see :mod:`repro.engine_parallel`).
        Processes escape the GIL and are the right default for CPU-bound
        d-tree work; threads are cheaper to spin up and share one intern
        table, useful for small batches and differential testing.
    rng_seed:
        Seed for the Monte-Carlo fallback rung.  ``None`` keeps sampling
        nondeterministic; an integer makes every MC estimate a pure
        function of ``(rng_seed, lineage)`` — stable across runs, tuple
        order, and shard assignment.
    compile_circuits:
        Record the d-tree trace of every answer as an arithmetic
        circuit (:mod:`repro.circuits`) on ``EngineResult.circuit``:
        exact rungs compile fully, budgeted ε-runs compile *partial*
        circuits with residual-interval leaves.  Circuits make repeat
        evaluation under changed tuple probabilities an O(|circuit|)
        sweep and power sensitivity / what-if analysis; the session
        layer additionally caches them so warm queries skip the
        engine.  Batched refinement skips per-round compilation
        (intermediate results are replaced); the batch compiles its
        *final* answers once — a cheap cache replay for inline
        rounds, and for pooled ones a final round on the warm
        workers, which compile in parallel and ship the circuits (and
        their decomposition-cache cones) back to the coordinator over
        the :mod:`repro.circuits.serialize` codec, so the coordinator
        never re-decomposes.  Off by default: compilation costs
        roughly one extra decomposition replay per answer.
    """

    epsilon: float = 0.0
    error_kind: str = ABSOLUTE
    choose_variable: Optional[VariableSelector] = None
    deadline_seconds: Optional[float] = None
    max_steps: Optional[int] = None
    mc_fallback: bool = True
    mc_max_samples: int = 100_000
    try_read_once: bool = True
    allow_closing: bool = True
    sort_buckets: bool = True
    read_once_buckets: bool = False
    initial_steps: int = 4
    step_growth: int = 2
    max_total_steps: Optional[int] = None
    workers: int = 1
    executor_kind: str = "process"
    rng_seed: Optional[int] = None
    compile_circuits: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError(
                f"epsilon must be in [0, 1), got {self.epsilon}"
            )
        if self.error_kind not in (ABSOLUTE, RELATIVE):
            raise ValueError(f"unknown error kind {self.error_kind!r}")
        if self.initial_steps < 1:
            raise ValueError(
                f"initial_steps must be >= 1, got {self.initial_steps}"
            )
        if self.step_growth < 2:
            raise ValueError(
                f"step_growth must be >= 2, got {self.step_growth}"
            )
        if self.mc_max_samples < 1:
            raise ValueError(
                f"mc_max_samples must be >= 1, got {self.mc_max_samples}"
            )
        for name in ("max_steps", "max_total_steps"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.executor_kind not in ("process", "thread"):
            raise ValueError(
                "executor_kind must be 'process' or 'thread', got "
                f"{self.executor_kind!r}"
            )

    def replace(self, **changes: object) -> "EngineConfig":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot, for benchmark result rows.

        The pivot selector is rendered by name (``"auto"`` when unset):
        callables don't serialise, but the name pins down which order a
        recorded run used.
        """
        description = dataclasses.asdict(self)
        selector = self.choose_variable
        if selector is None:
            description["choose_variable"] = "auto"
        else:
            description["choose_variable"] = (
                getattr(selector, "__qualname__", None)
                or getattr(selector, "__name__", None)
                or repr(selector)
            )
        # The backend ("numpy" when importable, else "scalar"), so a
        # recorded run pins down which kernel actually executed.
        description["kernel_backend"] = kernel_backend()
        return description


def _atom_fingerprint(variable: Hashable, value: Hashable) -> bytes:
    """Run-stable bytes identifying one atomic event.

    Pickle first (deterministic for the common name types — strings,
    ints, tuples — and free of memory addresses even for plain objects,
    unlike default ``repr``); fall back to ``repr`` for unpicklable
    names, which at least covers anything with a custom stable repr.
    ``hash()`` is never used: string hashing varies with
    ``PYTHONHASHSEED``.
    """
    try:
        return pickle.dumps((variable, value), protocol=4)
    except Exception:
        return repr((variable, value)).encode("utf-8", "backslashreplace")


def _lineage_seed(base: int, dnf: DNF) -> int:
    """A per-lineage MC seed stable across runs and processes.

    Derived by hashing the *canonical structure* of the DNF — sorted
    atom fingerprints per clause, clauses sorted — through blake2b,
    never interned ids (which depend on interning order within a run).
    """
    clauses = sorted(
        b"\x00".join(
            sorted(
                _atom_fingerprint(variable, value)
                for variable, value in clause.items()
            )
        )
        for clause in dnf
    )
    digest = hashlib.blake2b(
        b"\x01".join(clauses), digest_size=8
    ).digest()
    return (base ^ int.from_bytes(digest, "big")) & 0x7FFFFFFFFFFFFFFF


#: Human-readable fragment per MC sampler tag, spliced into the
#: EngineResult reason string by :meth:`ConfidenceEngine._mc_rung`.
_MC_SAMPLER_REASONS = {
    "karp-luby": "Karp–Luby/DKLR aconf estimate",
    "circuit": "vectorized circuit-sampling DKLR estimate",
}


class EngineResult:
    """Outcome of one :meth:`ConfidenceEngine.compute` call.

    Attributes
    ----------
    probability:
        The confidence estimate (midpoint of the certified interval for
        d-tree runs, exact value for read-once/SPROUT, MC estimate for
        the fallback).
    lower, upper:
        Sound probability bounds (point bounds for exact strategies; the
        best d-tree bounds found for budgeted runs).
    strategy:
        The ladder rung that produced the answer.
    reason:
        One line explaining why that rung was chosen.
    converged:
        Whether the requested guarantee was met.
    epsilon, error_kind:
        The request this result answers.
    steps:
        Decomposition steps spent (0 for non-d-tree strategies).
    elapsed_seconds:
        Wall-clock duration of the call.
    details:
        Strategy-specific extras (e.g. the underlying
        :class:`~repro.core.approx.ApproximationResult`).
    circuit:
        The compiled :class:`~repro.circuits.Circuit` of this lineage
        when ``EngineConfig.compile_circuits`` is on (``None``
        otherwise, and on pool workers): exact for exact rungs,
        partial — residual-interval leaves, sound bounds — for
        budgeted ε-runs.
    """

    __slots__ = (
        "probability",
        "lower",
        "upper",
        "strategy",
        "reason",
        "converged",
        "epsilon",
        "error_kind",
        "steps",
        "elapsed_seconds",
        "details",
        "circuit",
    )

    def __init__(
        self,
        probability: float,
        lower: float,
        upper: float,
        strategy: str,
        reason: str,
        converged: bool,
        epsilon: float,
        error_kind: str,
        steps: int = 0,
        elapsed_seconds: float = 0.0,
        details: Optional[Dict[str, object]] = None,
        circuit: Optional[Circuit] = None,
    ) -> None:
        self.probability = probability
        self.lower = lower
        self.upper = upper
        self.strategy = strategy
        self.reason = reason
        self.converged = converged
        self.epsilon = epsilon
        self.error_kind = error_kind
        self.steps = steps
        self.elapsed_seconds = elapsed_seconds
        self.details = details or {}
        self.circuit = circuit

    # ``estimate`` mirrors ApproximationResult for drop-in compatibility.
    @property
    def estimate(self) -> float:
        return self.probability

    def width(self) -> float:
        """Bound interval width ``U − L``."""
        return self.upper - self.lower

    def __repr__(self) -> str:
        return (
            f"EngineResult({self.probability:.6g} via {self.strategy}, "
            f"bounds=[{self.lower:.6g}, {self.upper:.6g}], "
            f"converged={self.converged})"
        )


def circuit_hit_result(
    circuit: "Circuit",
    config: "EngineConfig",
    epsilon: Optional[float] = None,
    error_kind: Optional[str] = None,
) -> "EngineResult":
    """A cached-circuit answer as an :class:`EngineResult`.

    One definition for every warm path that skips the engine — the
    session cache hits (``QueryResult.confidences`` and
    ``ProbDB.confidence``) and the serving tier's store hits — so the
    strategy-"circuit" result shape cannot drift between them.
    """
    value = circuit.evaluate()
    return EngineResult(
        value, value, value, "circuit",
        "session circuit cache hit: O(|circuit|) re-evaluation, "
        "engine skipped",
        True,
        config.epsilon if epsilon is None else epsilon,
        config.error_kind if error_kind is None else error_kind,
        circuit=circuit,
    )


def _circuit_max_nodes(result: "EngineResult", dnf: DNF) -> Optional[int]:
    """Node budget for compiling ``result``'s circuit (``None`` = exact).

    Exact answers — the trivial/read-once rungs, and an ``ε = 0``
    converged d-tree run — compile fully; budgeted answers get a node
    budget proportional to the work the run actually spent, with
    residual-interval leaves standing in for unexpanded sub-DNFs.
    Wherever a circuit is compiled — on the engine or in a pool
    worker's compile round — this decides its size.
    """
    if result.strategy in ("trivial", "read-once") or (
        result.strategy == "dtree"
        and result.converged
        and result.epsilon == 0.0
    ):
        return None
    return ConfidenceEngine._circuit_node_budget(result.steps, dnf)


def _merge_refined(
    previous: "EngineResult", result: "EngineResult"
) -> "EngineResult":
    """Monotone merge of a re-run into the previous certified interval.

    Certified intervals never regress: a re-run cut short (e.g. by an
    expired deadline) may report wider bounds than the previous round
    already proved; keep the intersection, which is sound because both
    intervals contain the true probability.  Every refinement of a
    :class:`BatchComputation` goes through it — inline and pooled
    re-runs alike, and circuit-refine rounds.
    """
    if previous.lower > result.lower:
        result.lower = previous.lower
    if previous.upper < result.upper:
        result.upper = previous.upper
    if result.probability < result.lower:
        result.probability = result.lower
    elif result.probability > result.upper:
        result.probability = result.upper
    return result


def _compute_round(
    engine: "ConfidenceEngine",
    items: Iterable[Tuple[int, DNF, Optional[int]]],
    epsilon: float,
    error_kind: str,
    deadline_seconds: Optional[float],
) -> List[Tuple[int, EngineResult]]:
    """One batch round: compute each ``(index, dnf, step budget)`` item,
    in order, on ``engine``.

    The one body of every round, inline and in pool tasks alike.  The
    MC rung is deferred to the end of the batch
    (:meth:`ConfidenceEngine._finalize_batch`): sampling inside the
    refinement loop would be paid every round, and run once on the
    coordinator a seeded estimate does not depend on shard assignment.
    Circuit compilation likewise: a round's result is replaced next
    round, so consumers that want circuits compile once, from the final
    results.  ``deadline_seconds`` is what is left of the batch
    deadline when the round starts; each item gets the rest of it,
    clamped at 0.
    """
    # The clock matters only against a deadline.
    started = 0.0 if deadline_seconds is None else clock.monotonic()
    out: List[Tuple[int, EngineResult]] = []
    for index, dnf, budget in items:
        remaining = (
            None
            if deadline_seconds is None
            else max(deadline_seconds - (clock.monotonic() - started), 0.0)
        )
        result = engine.compute(
            dnf,
            epsilon=epsilon,
            error_kind=error_kind,
            max_steps=budget,
            deadline_seconds=remaining,
            mc_fallback=False,
            compile_circuits=False,
        )
        out.append((index, result))
    return out


def resumable_circuit(
    engine: "ConfidenceEngine",
    dnf: DNF,
    *candidates: Optional[Circuit],
) -> Optional[Circuit]:
    """The first candidate partial circuit refinement can resume.

    Checks the explicit ``candidates`` first (a batch's own expansion
    progress), then the engine's :attr:`~ConfidenceEngine.circuit_source`
    (the session cache).  A circuit qualifies when it is partial, its
    residual leaves carry their sub-DNFs (``Circuit.refinable`` — true
    for compile-time circuits and format-v2 store reloads, false for
    pre-v2 stores), it lives on this engine's registry, and it is
    unconditioned (the cache keys plain lineage; a conditioned circuit
    answers a different distribution).
    """
    pool = list(candidates)
    source = engine.circuit_source
    if source is not None:
        pool.append(source(dnf))
    for circuit in pool:
        if (
            circuit is not None
            and not circuit.is_exact
            and circuit.refinable
            and circuit.registry is engine.registry
            and not circuit.conditioned
        ):
            return circuit
    return None


def _circuit_refine_result(
    engine: "ConfidenceEngine",
    dnf: DNF,
    circuit: Circuit,
    previous: "EngineResult",
    budget: int,
    epsilon: float,
    error_kind: str,
) -> "EngineResult":
    """One strategy-"circuit-refine" round: expand the widest residual.

    Instead of re-running the ε-approximation from scratch with a
    bigger budget, the cached partial circuit is tightened *in place*:
    the widest refinable residual leaf's sub-DNF is compiled (replaying
    the engine's decomposition cache where it is warm — resuming a
    just-computed batch costs zero cold steps) and spliced in via
    :func:`repro.circuits.expand_residuals`.  The expanded circuit is
    written back through :attr:`ConfidenceEngine.circuit_sink` so
    progress survives the batch (and, with a persisted session store,
    the process).
    """
    from .circuits.compiler import expand_residuals

    slot = circuit.widest_residual()
    if slot is None:  # pragma: no cover - guarded by resumable_circuit
        return _merge_refined(previous, previous)
    sub_dnf = circuit.residual_dnf(slot)
    assert isinstance(sub_dnf, DNF)
    stats = CircuitCompilationStats()
    replacement = engine.compile_circuit(
        sub_dnf,
        max_nodes=engine._circuit_node_budget(budget, sub_dnf),
        stats=stats,
    )
    expanded = expand_residuals(circuit, {slot: replacement})
    low, high = expanded.evaluate_bounds()
    converged = interval_certified(low, high, epsilon, error_kind)
    result = EngineResult(
        interval_estimate(low, high, epsilon, error_kind, converged),
        low,
        high,
        "circuit-refine",
        "resumed the cached partial circuit: widest residual leaf "
        "expanded in place instead of re-running the ε-approximation",
        converged,
        epsilon,
        error_kind,
        steps=previous.steps + stats.cold_steps,
        details={
            "residual_slot": slot,
            "residuals_left": len(expanded.residuals),
            "cold_steps": stats.cold_steps,
        },
        circuit=expanded,
    )
    sink = engine.circuit_sink
    if sink is not None:
        sink(dnf, expanded)
    return _merge_refined(previous, result)


class BatchComputation:
    """Anytime round-robin refinement of many lineages.

    This generalizes the interval-refinement loop that used to be private
    to :mod:`repro.db.topk`: every tuple holds a certified probability
    interval and a per-tuple step budget; :meth:`step` refines the widest
    unconverged interval by re-running it with a ``step_growth``-times
    larger budget.  Consumers drive the loop with their own stopping
    rule: ε-convergence (:meth:`run`, behind
    :meth:`ConfidenceEngine.compute_many`), ranking separation
    (:func:`repro.db.topk.rank_answers`), or the caller's patience
    (``QueryResult.bounds()``).

    The one thing that varies is where a round runs, fixed at
    construction by ``shards = min(workers, len(batch))``:

    * **one shard** — rounds run inline on the engine.  All refinement
      shares its :class:`~repro.core.memo.DecompositionCache`, so a
      re-run resumes almost where the previous round stopped, and
      tuples with shared lineage fold each other's finished subtrees.
    * **several shards** — rounds go to the engine's worker pool
      (:class:`~repro.engine_parallel.PooledRounds`), one engine and
      cache per worker.  A :meth:`step` then refines the ``shards``
      widest tuples at once, dealt widest-first round-robin across the
      shards — the same prioritized schedule saturating the pool.

    Parameters mirror :meth:`ConfidenceEngine.refine_many` (``None``
    falls back to the engine config, except ``max_steps``: the
    refinement cap, ``None`` = uncapped), plus:

    run_to_guarantee:
        The initial pass gives every tuple its *full* per-call budget
        (``max_steps``, else the engine config's) instead of
        ``initial_steps``, and that budget is also the refinement cap,
        so nothing is left to refine — one pass, inline or pooled: the
        unbudgeted :meth:`ConfidenceEngine.compute_many`.

    A pooled batch leases the engine-lifetime worker pool;
    :meth:`close` (or leaving a ``with`` block) drops the lease, and
    ``ConfidenceEngine.close()`` retires the pool itself.
    """

    __slots__ = (
        "engine",
        "epsilon",
        "error_kind",
        "step_growth",
        "max_steps",
        "deadline_seconds",
        "dnfs",
        "budgets",
        "results",
        "total_steps",
        "shards",
        "_started",
        "_rounds",
    )

    def __init__(
        self,
        engine: "ConfidenceEngine",
        lineages: Iterable[Lineage],
        *,
        epsilon: Optional[float] = None,
        error_kind: Optional[str] = None,
        initial_steps: Optional[int] = None,
        step_growth: Optional[int] = None,
        max_steps: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        workers: Optional[int] = None,
        executor_kind: Optional[str] = None,
        run_to_guarantee: bool = False,
    ) -> None:
        config = engine.config
        self.engine = engine
        self.epsilon = config.epsilon if epsilon is None else epsilon
        self.error_kind = (
            config.error_kind if error_kind is None else error_kind
        )
        if initial_steps is None:
            initial_steps = config.initial_steps
        self.step_growth = (
            config.step_growth if step_growth is None else step_growth
        )
        self.deadline_seconds = (
            config.deadline_seconds
            if deadline_seconds is None
            else deadline_seconds
        )
        if workers is None:
            workers = config.workers
        if executor_kind is None:
            executor_kind = config.executor_kind
        if executor_kind not in ("process", "thread"):
            raise ValueError(
                "executor_kind must be 'process' or 'thread', got "
                f"{executor_kind!r}"
            )
        workers = max(1, int(workers))
        if run_to_guarantee:
            # The full per-call budget, resolved the way compute()
            # would.  As first budget *and* refinement cap it leaves
            # nothing to refine.
            if max_steps is None:
                max_steps = config.max_steps
            initial_steps = max_steps
        # Otherwise the refinement cap is the *argument*: the
        # engine-config max_steps applies per compute call, not here.
        self.max_steps = max_steps
        self._started = (
            0.0 if self.deadline_seconds is None else clock.monotonic()
        )
        self.dnfs: List[DNF] = [
            lineage.to_dnf() if isinstance(lineage, Formula) else lineage
            for lineage in lineages
        ]
        self.budgets: List[Optional[int]] = [
            self._capped(initial_steps)
        ] * len(self.dnfs)
        self.shards = min(workers, len(self.dnfs))
        self._rounds: Optional["PooledRounds"] = None
        if self.shards > 1:
            from .engine_parallel import PooledRounds

            self._rounds = PooledRounds(
                engine, executor_kind, self.shards, workers
            )
        self.total_steps = 0
        self.results: List[EngineResult] = []
        self._run_round(range(len(self.dnfs)), initial=True)

    def _capped(self, budget: Optional[int]) -> Optional[int]:
        if budget is not None and self.max_steps is not None:
            return min(budget, self.max_steps)
        return budget

    def remaining_seconds(self) -> Optional[float]:
        """Time left on the whole-batch deadline (``None`` = unbounded)."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - (clock.monotonic() - self._started)

    def out_of_time(self) -> bool:
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0.0

    def spent(self, max_total_steps: Optional[int]) -> bool:
        """The refinement stop rule: is the shared step budget
        (``max_total_steps``, ``None`` = unbounded) used up, or the
        batch deadline past?  :meth:`run`, ``QueryResult.bounds()`` and
        top-k ranking all stop refining on it."""
        return (
            max_total_steps is not None
            and self.total_steps >= max_total_steps
        ) or self.out_of_time()

    def _install(self, index: int, result: EngineResult) -> None:
        """Record a refined result: merged monotonically into the
        previous interval, ``total_steps`` moved by the step delta.

        ``total_steps`` tracks the *latest* run's step count per tuple —
        the shared cache makes a re-run resume rather than repeat, so
        summing across rounds would double-count folded subtrees.
        """
        previous = self.results[index]
        self.results[index] = result = _merge_refined(previous, result)
        self.total_steps += result.steps - previous.steps

    def _run_round(
        self, indices: Iterable[int], *, initial: bool = False
    ) -> None:
        """Compute ``indices`` at their current budgets — inline, one
        after another, or as one pooled round."""
        items = [
            (index, self.dnfs[index], self.budgets[index])
            for index in indices
        ]
        if self._rounds is None:
            computed = _compute_round(
                self.engine,
                items,
                self.epsilon,
                self.error_kind,
                self.remaining_seconds(),
            )
        else:
            computed = self._rounds.compute(self, items)
        for index, result in computed:
            if initial:
                self.results.append(result)
                self.total_steps += result.steps
            else:
                self._install(index, result)

    def _grow(self, index: int) -> None:
        budget = self.budgets[index]
        if budget is not None:
            self.budgets[index] = self._capped(budget * self.step_growth)

    def converged(self) -> bool:
        """Has every tuple certified the requested guarantee?"""
        return all(result.converged for result in self.results)

    def refinable(
        self, indices: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Indices that can still make progress (unconverged, budget
        headroom left)."""
        if indices is None:
            indices = range(len(self.dnfs))
        return [
            index
            for index in indices
            if not self.results[index].converged
            # A None budget already ran unbounded: nothing to grow.
            and self.budgets[index] is not None
            and (
                self.max_steps is None
                or self.budgets[index] < self.max_steps
            )
        ]

    def widest(self, indices: Optional[Sequence[int]] = None) -> Optional[int]:
        """The refinable tuple with the widest certified interval."""
        candidates = self.refinable(indices)
        if not candidates:
            return None
        return max(candidates, key=lambda index: self.results[index].width())

    def refine(self, index: int) -> EngineResult:
        """Grow ``index``'s budget and tighten it (cache-resumed).

        When a budgeted run left a refinable partial circuit behind —
        this batch's own expansion progress, or the session cache via
        :attr:`ConfidenceEngine.circuit_source` (including circuits
        reloaded from a persisted store in a fresh process) — the round
        expands the widest residual leaf in place on the engine
        (strategy ``"circuit-refine"``) instead of re-running the
        ε-approximation from scratch.  Otherwise, or when the expansion
        stalls, the tuple is recomputed with a ``step_growth``-times
        larger budget.
        """
        self._grow(index)
        previous = self.results[index]
        circuit = resumable_circuit(
            self.engine, self.dnfs[index], previous.circuit
        )
        if circuit is not None:
            budget = self.budgets[index]
            result = _circuit_refine_result(
                self.engine,
                self.dnfs[index],
                circuit,
                previous,
                max(previous.steps, 64) if budget is None else budget,
                self.epsilon,
                self.error_kind,
            )
            if (
                result.converged
                or result.steps != previous.steps
                or result.width() < previous.width()
            ):
                self.results[index] = result
                self.total_steps += result.steps - previous.steps
                return result
            # The expansion stalled (node budget too tight to make
            # progress on this leaf): fall back to the classic re-run
            # so the driver loop always advances.
        self._run_round([index])
        return self.results[index]

    def step(self, indices: Optional[Sequence[int]] = None) -> Optional[int]:
        """One refinement round; the widest refinable index, or ``None``.

        Inline, the widest refinable tuple (from ``indices`` when given)
        is refined.  Pooled, the (up to) ``shards`` widest are grown and
        dealt widest-first round-robin across the shards — one tuple
        per shard instead of one per step.
        """
        if self._rounds is None:
            index = self.widest(indices)
            if index is not None:
                self.refine(index)
            return index
        candidates = self.refinable(indices)
        if not candidates:
            return None
        candidates.sort(
            key=lambda index: (-self.results[index].width(), index)
        )
        chosen = candidates[: self.shards]
        for index in chosen:
            self._grow(index)
        self._run_round(chosen)
        return chosen[0]

    def run(
        self, max_total_steps: Optional[int] = None
    ) -> List[EngineResult]:
        """Refine until convergence, ``max_total_steps``, the deadline,
        or nothing refinable is left.

        The initial pass already ran in the constructor; MC
        finalization stays with the engine
        (:meth:`ConfidenceEngine.compute_many`).
        """
        while not self.converged() and not self.spent(max_total_steps):
            if self.step() is None:
                break
        return self.results

    @property
    def worker_stats(self) -> Dict[object, Dict[str, int]]:
        """Latest cache stats per pool worker seen so far (empty when
        rounds run inline: the engine's own ``cache.stats()`` covers
        those)."""
        return {} if self._rounds is None else self._rounds.worker_stats

    def cache_stats(self) -> Dict[str, int]:
        """Cache counters aggregated across :attr:`worker_stats`."""
        return DecompositionCache.merge_stats(self.worker_stats.values())

    def close(self) -> None:
        """Drop this batch's lease on the engine's worker pool.

        The pool itself stays alive on the engine (that amortization is
        the point); shut it down with ``engine.close()`` when the
        engine is retired, or rely on the GC finalizer.
        """
        if self._rounds is not None:
            self._rounds.close()

    def __enter__(self) -> "BatchComputation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.dnfs)


class ConfidenceEngine:
    """One entry point for every confidence computation.

    Parameters
    ----------
    registry:
        The probability space lineage is evaluated against.
    config:
        The :class:`EngineConfig` policy bundle; defaults apply when
        omitted.
    cache:
        Shared :class:`DecompositionCache`; a fresh one is created when
        omitted and reused for the engine's lifetime.
    **overrides:
        Individual :class:`EngineConfig` fields, applied on top of
        ``config`` (``ConfidenceEngine(reg, epsilon=0.01)`` is shorthand
        for ``ConfidenceEngine(reg, EngineConfig(epsilon=0.01))``).
    """

    def __init__(
        self,
        registry: VariableRegistry,
        config: Optional[EngineConfig] = None,
        *,
        cache: Optional[DecompositionCache] = None,
        **overrides: object,
    ) -> None:
        if config is None:
            config = EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        self.registry = registry
        self.config = config
        self.cache = cache if cache is not None else DecompositionCache()
        # DNF -> factored form (or None): top-k refinement re-submits the
        # same lineage with growing budgets; don't re-attempt 1OF each time.
        self._readonce_memo: Dict[DNF, Optional[Formula]] = {}
        # Engine-lifetime worker pools, amortized across sharded
        # batches; one slot per executor kind so interleaved thread-
        # and process-pool batches don't evict each other.  Empty
        # until the first parallel batch.  _pool_starts counts
        # (re)builds — the amortization measure tests and benchmarks
        # observe.  The lock guards the registry dict; each pool's own
        # round_lock serializes execution rounds.
        self._worker_pools: Dict[str, "WorkerPool"] = {}
        self._pool_lock = threading.Lock()
        self._pool_starts = 0
        #: Optional ``DNF -> Circuit`` lookup the session layer wires to
        #: its circuit cache: when the MC rung finds an *exact* cached
        #: circuit here (and the numpy backend is on), it samples
        #: Bernoulli worlds on the circuit in vectorized blocks instead
        #: of running per-sample Karp-Luby over the raw lineage.
        self.circuit_source: Optional[
            Callable[[DNF], Optional[Circuit]]
        ] = None
        #: Optional ``(DNF, Circuit) -> None`` write-back the session
        #: layer wires to its circuit cache: the circuit-refine path
        #: stores each expanded partial circuit here, so anytime
        #: progress survives the batch — and, when the session persists
        #: its store, the process.
        self.circuit_sink: Optional[
            Callable[[DNF, Circuit], None]
        ] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_database(
        cls,
        database,
        config: Optional[EngineConfig] = None,
        *,
        cache: Optional[DecompositionCache] = None,
        **overrides: object,
    ) -> "ConfidenceEngine":
        """An engine wired with a database's registry and IQ provenance."""
        from .db.engine import answer_selector

        if config is None:
            config = EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        if config.choose_variable is None:
            config = config.replace(
                choose_variable=answer_selector(database)
            )
        return cls(database.registry, config, cache=cache)

    # ------------------------------------------------------------------
    # DNF-level computation
    # ------------------------------------------------------------------
    def compute(
        self,
        lineage: Lineage,
        *,
        epsilon: Optional[float] = None,
        error_kind: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        mc_fallback: Optional[bool] = None,
        compile_circuits: Optional[bool] = None,
    ) -> EngineResult:
        """Confidence of a lineage formula via the strategy ladder.

        Accepts a :class:`DNF` or any lineage :class:`Formula` (converted
        via ``to_dnf``).  Per-call overrides fall back to the engine's
        :class:`EngineConfig`.  ``compile_circuits=False`` suppresses
        circuit attachment for this call even when the config enables it
        (batched refinement uses this: intermediate rounds' circuits
        would be thrown away, so the batch compiles once at the end).
        """
        started = clock.monotonic()
        config = self.config
        if isinstance(lineage, Formula):
            dnf = lineage.to_dnf()
        else:
            dnf = lineage
        epsilon = config.epsilon if epsilon is None else epsilon
        error_kind = config.error_kind if error_kind is None else error_kind
        # Validate overrides up front: the trivial/read-once rungs return
        # before the d-tree rung would have rejected them.
        if not (0.0 <= epsilon < 1.0):
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        if error_kind not in (ABSOLUTE, RELATIVE):
            raise ValueError(f"unknown error kind {error_kind!r}")
        max_steps = config.max_steps if max_steps is None else max_steps
        deadline_seconds = (
            config.deadline_seconds
            if deadline_seconds is None
            else deadline_seconds
        )
        mc_enabled = (
            config.mc_fallback if mc_fallback is None else mc_fallback
        )
        # Mirrors the mc_fallback override: an explicit True compiles
        # even when the config default is off.
        circuits_enabled = (
            config.compile_circuits
            if compile_circuits is None
            else compile_circuits
        )

        def finish(result: EngineResult) -> EngineResult:
            result.elapsed_seconds = clock.monotonic() - started
            return result

        def attach(result: EngineResult) -> EngineResult:
            if not circuits_enabled:
                return result
            return self._attach_circuit(result, dnf)

        # Rung 1: constants.
        if dnf.is_false():
            return finish(
                attach(
                    EngineResult(
                        0.0, 0.0, 0.0, "trivial",
                        "empty DNF is constant false",
                        True, epsilon, error_kind,
                    )
                )
            )
        if dnf.is_true():
            return finish(
                attach(
                    EngineResult(
                        1.0, 1.0, 1.0, "trivial",
                        "DNF contains the empty clause (constant true)",
                        True, epsilon, error_kind,
                    )
                )
            )

        # Rung 2: read-once factorization (linear-time exact).
        if config.try_read_once:
            if dnf in self._readonce_memo:
                formula = self._readonce_memo[dnf]
            else:
                formula = try_read_once(dnf)
                if len(self._readonce_memo) > 10_000:
                    self._readonce_memo.clear()
                self._readonce_memo[dnf] = formula
            if formula is not None:
                value = formula.probability(self.registry)
                return finish(
                    attach(
                        EngineResult(
                            value, value, value, "read-once",
                            "lineage factors into one-occurrence form "
                            "(Section VI.B): exact in linear time",
                            True, epsilon, error_kind,
                        )
                    )
                )

        # Rung 4: incremental d-tree ε-approximation.
        outcome = approximate_probability(
            dnf,
            self.registry,
            epsilon=epsilon,
            error_kind=error_kind,
            choose_variable=config.choose_variable,
            allow_closing=config.allow_closing,
            sort_buckets=config.sort_buckets,
            read_once_buckets=config.read_once_buckets,
            max_steps=max_steps,
            deadline_seconds=deadline_seconds,
            cache=self.cache,
        )
        if outcome.converged or not self._mc_applicable(
            epsilon, error_kind, mc_enabled
        ):
            reason = (
                "incremental d-tree approximation certified the request"
                if outcome.converged
                else "d-tree budget exhausted; bounds are best-effort "
                "(no MC fallback applicable)"
            )
            return finish(attach(self._from_dtree(outcome, reason)))

        # Rung 5: Monte-Carlo fallback on budget exhaustion, skipped
        # when the caller's deadline is already spent.
        remaining = (
            None
            if deadline_seconds is None
            else deadline_seconds - (clock.monotonic() - started)
        )
        unconverged = self._from_dtree(
            outcome, "d-tree budget exhausted; MC fallback unavailable"
        )
        return finish(attach(self._mc_rung(dnf, unconverged, remaining)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def retire_worker_pools(self) -> None:
        """Shut down the engine-lifetime worker pools (idempotent).

        The engine stays usable: a later sharded batch simply builds a
        fresh pool.  Pools are never shut down mid-round — a round in
        flight on another thread finishes first (its batch then heals
        onto a fresh pool on its next round).  Besides engine
        retirement, the mutation subsystem calls this when tuple
        probabilities change: worker decomposition caches carry numeric
        results keyed only by intern version, which does not move on a
        probability update, so stale pools must not survive a mutation.
        """
        with self._pool_lock:
            pools = list(self._worker_pools.values())
            self._worker_pools.clear()
        for pool in pools:
            # Same discipline as displacement in acquire_worker_pool:
            # wait out any in-flight round before closing.
            with pool.round_lock:
                pool.close()

    def close(self) -> None:
        """Retire the worker pools when the engine itself retires.

        Sharded batches (``workers > 1``) acquire a pool that lives on
        the engine so repeated batches reuse warm workers; call this
        when retiring the engine, or rely on the GC finalizer backstop.
        Engines are also context managers::

            with ConfidenceEngine(registry, workers=4) as engine:
                engine.compute_many(batch)
        """
        self.retire_worker_pools()

    def __enter__(self) -> "ConfidenceEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Circuit compilation
    # ------------------------------------------------------------------
    def compile_circuit(
        self,
        lineage: Lineage,
        *,
        max_nodes: Optional[int] = None,
        stats: Optional[CircuitCompilationStats] = None,
    ) -> Circuit:
        """Compile lineage into a reusable arithmetic circuit.

        Uses the engine's configured pivot selector and heuristic flags
        and — crucially — its shared
        :class:`~repro.core.memo.DecompositionCache`, so compiling
        right after a confidence run replays the recorded decomposition
        trace instead of re-searching it.  ``max_nodes`` caps the
        circuit; unexpanded sub-DNFs become residual-interval leaves
        (see :mod:`repro.circuits`).
        """
        config = self.config
        if isinstance(lineage, Formula):
            dnf = lineage.to_dnf()
        else:
            dnf = lineage
        return _compile_circuit(
            dnf,
            self.registry,
            choose_variable=config.choose_variable,
            cache=self.cache,
            max_nodes=max_nodes,
            sort_buckets=config.sort_buckets,
            read_once_buckets=config.read_once_buckets,
            stats=stats,
        )

    def bind_cache(self) -> DecompositionCache:
        """The engine's cache, bound to the engine's own configuration.

        The same bind the decomposition/compile paths perform, so
        entries merged into the cache afterwards (worker cache slices
        shipped by the sharded execution layer) survive the next engine
        call instead of being cleared by a config rebind.
        """
        config = self.config
        self.cache.bind(
            self.registry,
            config.choose_variable,
            config.sort_buckets,
            config.read_once_buckets,
        )
        return self.cache

    @staticmethod
    def _circuit_node_budget(steps: int, dnf: DNF) -> int:
        """Node budget for the partial circuit of a budgeted run.

        Proportional to the decomposition work the run actually spent
        (each step built at most one inner node plus its children) with
        a floor covering the input's own atoms, so compilation never
        dominates a truncated computation.
        """
        return 64 + 8 * steps + 2 * dnf.size()

    def _attach_circuit(
        self, result: EngineResult, dnf: DNF
    ) -> EngineResult:
        """Compile ``dnf``'s circuit onto ``result``, sized by
        :func:`_circuit_max_nodes` (knob checked by callers)."""
        result.circuit = self.compile_circuit(
            dnf, max_nodes=_circuit_max_nodes(result, dnf)
        )
        return result

    # ------------------------------------------------------------------
    # Batched computation
    # ------------------------------------------------------------------
    def refine_many(
        self,
        lineages: Iterable[Lineage],
        *,
        epsilon: Optional[float] = None,
        error_kind: Optional[str] = None,
        initial_steps: Optional[int] = None,
        step_growth: Optional[int] = None,
        max_steps: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        workers: Optional[int] = None,
        executor_kind: Optional[str] = None,
    ) -> BatchComputation:
        """An anytime :class:`BatchComputation` over ``lineages``.

        The caller drives refinement (``step()``/``refine()``) under its
        own stopping rule; :meth:`compute_many` is the run-to-guarantee
        driver, top-k and ``QueryResult.bounds()`` are the other two.
        With ``workers > 1`` (argument or engine config) and more than
        one lineage, the batch's rounds run on the engine's worker pool.
        """
        return BatchComputation(
            self,
            lineages,
            epsilon=epsilon,
            error_kind=error_kind,
            initial_steps=initial_steps,
            step_growth=step_growth,
            max_steps=max_steps,
            deadline_seconds=deadline_seconds,
            workers=workers,
            executor_kind=executor_kind,
        )

    def compute_many(
        self,
        lineages: Iterable[Lineage],
        *,
        epsilon: Optional[float] = None,
        error_kind: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        initial_steps: Optional[int] = None,
        step_growth: Optional[int] = None,
        max_total_steps: Optional[int] = None,
        workers: Optional[int] = None,
        executor_kind: Optional[str] = None,
    ) -> List[EngineResult]:
        """Confidences for a batch of lineages on one shared cache.

        Under a shared budget (``max_total_steps``, from the argument or
        the engine config) the batch is one prioritized anytime
        computation: refinement round-robins across tuples by certified
        interval width, so budget flows to the most ambiguous answers
        first, and on exhaustion every tuple still carries sound bounds
        (with the MC rung estimating inside them where applicable).

        Without a shared budget there is nothing to arbitrate: the batch
        is one pass in which every tuple runs to its own guarantee (its
        full per-call budget).  With one shard — ``min(workers,
        len(lineages)) == 1`` — that pass runs inline on the engine's
        shared :class:`DecompositionCache`, so answers with overlapping
        lineage fold each other's subtrees instead of recompiling them
        (the cache-sharing win over N cold calls).  Either way the MC
        rung and circuit compilation run once, after the pass, on the
        final answers.

        ``deadline_seconds`` bounds the *whole batch*, unlike
        :meth:`compute`'s per-call deadline.

        With ``workers > 1`` (argument or engine config) the batch's
        rounds run on a worker pool (:mod:`repro.engine_parallel`): each
        worker runs its shard on its own engine and cache, refinement
        rebalances the widest intervals across shards between rounds,
        and the merged results are exactly as sound as inline rounds'
        (bit-identical for exact strategies).
        """
        lineages = list(lineages)
        if not lineages:
            return []
        # A statement boundary: distinct statements share little, so
        # bound what one leaves behind for the next.
        self.cache.trim(_CARRY_DECOMPOSITIONS)
        if len(self._readonce_memo) > _CARRY_READ_ONCE:
            self._readonce_memo.clear()
        if max_total_steps is None:
            max_total_steps = self.config.max_total_steps
        with BatchComputation(
            self,
            lineages,
            epsilon=epsilon,
            error_kind=error_kind,
            initial_steps=initial_steps,
            step_growth=step_growth,
            max_steps=max_steps,
            deadline_seconds=deadline_seconds,
            workers=workers,
            executor_kind=executor_kind,
            run_to_guarantee=max_total_steps is None,
        ) as batch:
            if max_total_steps is not None:
                # Without a shared budget the first pass ran every item
                # to its guarantee: nothing is left to refine.
                batch.run(max_total_steps)
            self._finalize_batch(batch)
            self._attach_batch_circuits(batch)
            return list(batch.results)

    def _attach_batch_circuits(self, batch: BatchComputation) -> None:
        """Compile circuits for a finished batch's final answers.

        Refinement rounds skip compilation — their results are
        replaced round over round — so the batch compiles once, here.
        A pooled batch first runs one compile round on its warm workers
        (:meth:`~repro.engine_parallel.PooledRounds.compile_circuits`),
        which ship the circuits — plus their decomposition-cache cones —
        back over the serialization codec, so the engine never
        re-decomposes.  The loop below then covers whatever is still
        missing: every answer of an inline batch (a cheap replay of the
        decompositions the run just cached), and on a pooled one only
        the entries the shipping round could not serialize (e.g.
        unpicklable variable names on a thread pool).
        """
        if not self.config.compile_circuits:
            return
        if batch._rounds is not None:
            try:
                batch._rounds.compile_circuits(batch)
            except BrokenExecutor:
                # The confidences are already complete; a pool dying
                # during this *optional* round must not discard them.
                # The corpse was evicted inside the round; the loop
                # below compiles the missing circuits.  Only
                # BrokenExecutor is absorbed — any other error (a
                # worker-side compile bug, a missing initializer) must
                # surface, not silently degrade every batch to inline
                # compilation.
                pass
        for index, result in enumerate(batch.results):
            if result.circuit is None:
                batch.results[index] = self._attach_circuit(
                    result, batch.dnfs[index]
                )

    def _finalize_batch(self, batch: BatchComputation) -> None:
        """Apply the MC rung to tuples whose batch budget ran out.

        MC always runs here, on the coordinating engine — never in a
        pool worker — so a seeded run is deterministic regardless of
        shard assignment.
        """
        if not self._mc_applicable(
            batch.epsilon, batch.error_kind, self.config.mc_fallback
        ):
            return
        for index, result in enumerate(batch.results):
            if not result.converged:
                batch.results[index] = self._mc_rung(
                    batch.dnfs[index], result, batch.remaining_seconds()
                )

    def _mc_rung(
        self,
        dnf: DNF,
        result: EngineResult,
        remaining_seconds: Optional[float],
    ) -> EngineResult:
        """The MC rung over an unconverged ``result`` for ``dnf``.

        One definition for :meth:`compute` and the end of a batch: the
        DKLR estimate (bounded by ``mc_max_samples``; aconf has no
        wall-clock cap) is clipped into ``result``'s bounds, which stay
        sound.  ``result`` comes back unchanged when MC is unavailable
        or ``remaining_seconds`` is spent.
        """
        mc_result = self._run_mc(dnf, result.epsilon, remaining_seconds)
        if mc_result is None:
            return result
        estimate, samples, capped, sampler = mc_result
        return EngineResult(
            min(max(estimate, result.lower), result.upper),
            result.lower,
            result.upper,
            "mc",
            "d-tree budget exhausted; "
            + _MC_SAMPLER_REASONS[sampler]
            + " within the partial d-tree bounds",
            not capped,
            result.epsilon,
            result.error_kind,
            steps=result.steps,
            details=dict(
                result.details, mc_samples=samples, mc_capped=capped,
                mc_sampler=sampler,
            ),
            circuit=result.circuit,
        )

    def _mc_applicable(
        self, epsilon: float, error_kind: str, enabled: bool
    ) -> bool:
        # aconf gives (ε, δ) *relative* guarantees; ε = 0 cannot be met
        # by sampling and an absolute request would be mislabelled as
        # converged.
        return enabled and epsilon > 0.0 and error_kind == RELATIVE

    def _mc_circuit(self, dnf: DNF) -> Optional[Circuit]:
        """An exact cached circuit to sample MC worlds on, if usable.

        Requires a wired :attr:`circuit_source` (the session layer), the
        numpy backend (circuit sampling is only a win vectorized), an
        *exact* circuit (residual leaves are bounds, not events), and
        the engine's own registry (a cache shared across probability
        spaces must not leak another space's probabilities).
        """
        source = self.circuit_source
        if source is None:
            return None
        if kernel_backend() != BACKEND_NUMPY:
            return None
        circuit = source(dnf)
        if circuit is None or not circuit.is_exact:
            return None
        if circuit.registry is not self.registry:
            return None
        return circuit

    def _run_mc(
        self,
        dnf: DNF,
        epsilon: float,
        remaining_seconds: Optional[float],
    ) -> Optional[Tuple[float, int, bool, str]]:
        if remaining_seconds is not None and remaining_seconds <= 0.0:
            return None  # deadline already spent by the d-tree rung
        try:
            from .mc.aconf import DEFAULT_DELTA, aconf
        except ImportError:  # pragma: no cover - mc is part of the tree
            return None
        seed = self.config.rng_seed
        if seed is not None:
            # Derive a per-lineage seed so the estimate is a pure
            # function of (rng_seed, lineage): identical across runs,
            # tuple orderings, and shard assignments.
            seed = _lineage_seed(seed, dnf)
        circuit = self._mc_circuit(dnf)
        if circuit is not None:
            # Same (ε, δ) DKLR driver and work cap as the scalar rung —
            # identical interval semantics — but each sample is one row
            # of a vectorized circuit-world block.
            from .circuits.kernels import circuit_monte_carlo

            run = circuit_monte_carlo(
                circuit,
                epsilon=epsilon,
                delta=DEFAULT_DELTA,
                seed=seed,
                max_samples=self.config.mc_max_samples,
            )
            return run.estimate, run.samples, run.capped, "circuit"
        outcome = aconf(
            dnf,
            self.registry,
            epsilon=epsilon,
            seed=seed,
            max_samples=self.config.mc_max_samples,
        )
        return (
            outcome.estimate,
            outcome.samples,
            outcome.capped,
            "karp-luby",
        )

    def _from_dtree(
        self, outcome: ApproximationResult, reason: str
    ) -> EngineResult:
        return EngineResult(
            outcome.estimate,
            outcome.lower,
            outcome.upper,
            "dtree",
            reason,
            outcome.converged,
            outcome.epsilon,
            outcome.error_kind,
            steps=outcome.steps,
            details={"dtree": outcome},
        )

    # ------------------------------------------------------------------
    # Query-level computation
    # ------------------------------------------------------------------
    @classmethod
    def select_query_strategy(
        cls, query, database=None
    ) -> Tuple[str, str]:
        """The ladder rung a query will take, with the reason.

        Query-level selection happens *before* lineage is materialised:
        hierarchical self-join-free queries with at most local
        inequalities on tuple-independent tables go to SPROUT; the
        session answers everything else on its lineage, as one batch
        down the ladder.
        Without a ``database`` the row-lineage condition is assumed to
        hold (SPROUT itself re-checks and the session falls back).  The
        structural checks read the query's own memos, so repeated calls
        for one statement cost a few lookups.
        """
        if query.has_self_join():
            return (
                "dtree",
                "self-joins are outside every known tractable class",
            )
        if not query.is_hierarchical():
            return (
                "dtree",
                "query is not hierarchical (Def. 6.1); lineage enters "
                "the d-tree ladder per answer",
            )
        if not all(query.inequality_homes()):
            return (
                "dtree",
                "cross-subgoal inequalities: IQ d-tree order applies, "
                "not SPROUT",
            )
        if database is not None and not cls._rows_tuple_independent(
            query, database
        ):
            return (
                "dtree",
                "composite row lineage: SPROUT needs tuple-independent "
                "(or certain) input rows",
            )
        return (
            "sprout",
            "hierarchical without self-joins on tuple-independent "
            "tables: exact extensional plan (Prop. 6.3)",
        )

    @staticmethod
    def _rows_tuple_independent(query, database) -> bool:
        return all(
            subgoal.relation in database
            and database[subgoal.relation].has_simple_lineage()
            for subgoal in query.subgoals
        )

    def compute_query(
        self,
        query,
        database,
        *,
        epsilon: Optional[float] = None,
        error_kind: Optional[str] = None,
    ) -> List[Tuple[Tuple[Hashable, ...], EngineResult]]:
        """Per-answer confidence for a conjunctive query, by SPROUT.

        The query-level rung and nothing more: a query that
        :meth:`select_query_strategy` routes to SPROUT is answered
        extensionally, without materialising lineage.  Any other query
        raises :class:`~repro.db.sprout.UnsafeQueryError` with the
        classifier's reason, and so does a query whose rows SPROUT
        itself refuses (its checks are authoritative).  The session
        (:meth:`repro.db.session.QueryResult.confidences`) owns the
        fallback: it answers such queries on their lineage, with its
        circuit cache in front of :meth:`compute_many`.
        """
        from .db.sprout import UnsafeQueryError, sprout_confidence

        strategy, reason = self.select_query_strategy(query, database)
        if strategy != "sprout":
            raise UnsafeQueryError(reason)
        eps = self.config.epsilon if epsilon is None else epsilon
        kind = self.config.error_kind if error_kind is None else error_kind
        return [
            (
                values,
                EngineResult(
                    probability, probability, probability,
                    "sprout", reason, True, eps, kind,
                ),
            )
            for values, probability in sprout_confidence(query, database)
        ]
