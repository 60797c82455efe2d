"""The ``ProbDB`` session façade and lazy ``QueryResult`` objects.

The paper's system (SPROUT inside MayBMS) exposes a single surface — SQL
with ``conf()``.  This module is our equivalent: one session object per
probabilistic database, one lazy result object per query, and one
:class:`~repro.engine.EngineConfig` policy honoured everywhere::

    db = ProbDB(database, EngineConfig(epsilon=0.01, error_kind="relative"))
    result = db.sql("select conf() from E n1, E n2 where n1.v = n2.u")
    result.answers()               # tuples only, no confidence work
    result.confidences()           # batched anytime confidence per answer
    for snapshot in result.bounds():   # certified interval snapshots
        ...
    result.top_k(5)                # interval-pruned ranking
    result.explain()               # the planner's routing decision

Everything a session runs shares one :class:`~repro.engine.ConfidenceEngine`,
its :class:`~repro.core.memo.DecompositionCache`, and one interned
variable registry, so repeated sub-DNFs across queries, answers, and
refinement rounds fold instantly instead of being recompiled.  A
:class:`QueryResult` is lazy: parsing happens at ``sql()`` time (syntax
errors surface early), lineage is materialised on first use, and
confidences are computed — batched through
:meth:`~repro.engine.ConfidenceEngine.compute_many` — only when asked
for, then memoised per request.
"""

from __future__ import annotations

import os
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..circuits import Circuit, CircuitCache, CompiledResult, SweepResult
from ..circuits.circuit import ProbOverrides
from ..core.dnf import DNF
from ..core.formulas import Formula
from ..core.memo import DecompositionCache
from ..core.variables import VariableRegistry
from ..engine import (
    ConfidenceEngine,
    EngineConfig,
    EngineResult,
    circuit_hit_result,
)
from .cq import ConjunctiveQuery
from .database import Database
from .engine import QueryAnswer, evaluate
from .explain import QueryExplanation, explain, rank_influence
from . import mutations
from .sprout import UnsafeQueryError
from .sql import ParsedQuery, parse_conf_query, parse_statement
from .topk import RankedAnswer, rank_answers

__all__ = ["ProbDB", "QueryResult", "BoundsSnapshot"]

AnswerValues = Tuple[Hashable, ...]
LineageAnswer = Tuple[AnswerValues, DNF]
PathLike = Union[str, "os.PathLike[str]"]


class BoundsSnapshot:
    """One certified state of an anytime ``QueryResult.bounds()`` run.

    Attributes
    ----------
    intervals:
        ``(answer_values, lower, upper)`` per answer, in answer order.
        Every interval is sound: ``lower ≤ P(answer) ≤ upper``.
    converged:
        Whether every answer has certified the requested guarantee.
    total_steps:
        Decomposition steps charged to the batch so far.
    """

    __slots__ = ("intervals", "converged", "total_steps")

    def __init__(
        self,
        intervals: List[Tuple[AnswerValues, float, float]],
        converged: bool,
        total_steps: int,
    ) -> None:
        self.intervals = intervals
        self.converged = converged
        self.total_steps = total_steps

    def max_width(self) -> float:
        """The widest interval in this snapshot (0.0 when empty)."""
        return max(
            (upper - lower for _values, lower, upper in self.intervals),
            default=0.0,
        )

    def __len__(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        return (
            f"BoundsSnapshot({len(self.intervals)} answers, "
            f"max_width={self.max_width():.4g}, "
            f"converged={self.converged}, steps={self.total_steps})"
        )


class QueryResult:
    """A lazy handle on one query's answers and their confidences.

    Nothing is evaluated at construction time.  Lineage is materialised
    on first access and cached; ``confidences()`` results are memoised
    per request, so asking twice is free.  All confidence computation
    routes through the owning session's shared engine.
    """

    __slots__ = (
        "engine",
        "database",
        "query",
        "parsed",
        "_evaluated",
        "_lineage",
        "_confidences",
        "_circuit_cache",
    )

    def __init__(
        self,
        engine: ConfidenceEngine,
        database: Optional[Database] = None,
        *,
        query: Optional[ConjunctiveQuery] = None,
        parsed: Optional[ParsedQuery] = None,
        lineage: Optional[Iterable[LineageAnswer]] = None,
        circuit_cache: Optional[CircuitCache] = None,
    ) -> None:
        if parsed is not None and query is None:
            query = parsed.query
        if query is None and lineage is None:
            raise ValueError(
                "QueryResult needs a query or precomputed lineage"
            )
        self.engine = engine
        self.database = database
        self.query = query
        self.parsed = parsed
        self._evaluated: Optional[List[QueryAnswer]] = None
        self._lineage: Optional[List[LineageAnswer]] = (
            None if lineage is None else list(lineage)
        )
        self._confidences: Dict[
            Tuple[object, ...], List[Tuple[AnswerValues, EngineResult]]
        ] = {}
        #: The owning session's compiled-circuit store (None for
        #: results constructed outside a session).
        self._circuit_cache = circuit_cache

    # -- metadata --------------------------------------------------------
    @property
    def wants_conf(self) -> bool:
        """Did the SQL text ask for ``conf()``?  (True for CQ results.)"""
        return self.parsed.wants_conf if self.parsed is not None else True

    @property
    def select_columns(self) -> List[str]:
        """The projected column names (empty for Boolean queries)."""
        if self.parsed is not None:
            return list(self.parsed.select_columns)
        if self.query is not None:
            return [str(var) for var in self.query.head]
        return []

    # -- lazy materialisation --------------------------------------------
    def _evaluate(self) -> List[QueryAnswer]:
        """Run the query once, caching answers with their derivations."""
        if self._evaluated is None:
            if self.query is None or self.database is None:
                raise ValueError(
                    "no lineage available: result was built without a "
                    "query/database"
                )
            self._evaluated = evaluate(self.query, self.database)
        return self._evaluated

    def lineage(self) -> List[LineageAnswer]:
        """``(answer_values, lineage_dnf)`` pairs (evaluated on demand).

        Each DNF is built straight from the answer's join derivations
        (:attr:`repro.db.engine.QueryAnswer.dnf`), without a formula
        tree.
        """
        if self._lineage is None:
            self._lineage = [
                (answer.values, answer.dnf) for answer in self._evaluate()
            ]
        return self._lineage

    def answers(self) -> List[AnswerValues]:
        """Distinct answer tuples, without any confidence computation.

        Reads the join's answers only: unlike :meth:`lineage`, no DNF
        (potentially expensive for disjunctive lineage) is built just to
        read the tuples.
        """
        if self._lineage is not None:
            return [values for values, _dnf in self._lineage]
        return [answer.values for answer in self._evaluate()]

    def __len__(self) -> int:
        return len(self.answers())

    def __repr__(self) -> str:
        name = self.query.name if self.query is not None else "lineage"
        state = (
            "unevaluated"
            if self._lineage is None
            else f"{len(self._lineage)} answers"
        )
        return f"QueryResult({name!r}, {state})"

    # -- confidence computation ------------------------------------------
    def confidences(
        self,
        epsilon: Optional[float] = None,
        *,
        error_kind: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        max_total_steps: Optional[int] = None,
        workers: Optional[int] = None,
        executor_kind: Optional[str] = None,
    ) -> List[Tuple[AnswerValues, EngineResult]]:
        """Per-answer confidences as one batched anytime computation.

        SPROUT-safe queries are answered extensionally by
        :meth:`~repro.engine.ConfidenceEngine.compute_query` without
        materialising lineage.  Every other query, and any whose rows
        SPROUT refuses, is answered here on its lineage: this is the one
        path from a query's answers to
        :meth:`~repro.engine.ConfidenceEngine.compute_many`, which shares
        the session's decomposition cache (and any shared step/time
        budget) across the whole answer set instead of issuing N cold
        calls — or shards the batch across a worker pool when
        ``workers > 1`` (argument or session config).  Defaults come
        from the session's :class:`~repro.engine.EngineConfig`; results
        are memoised per request.

        **Warm queries skip the engine.**  Answers whose lineage has an
        exact compiled circuit in the session's
        :class:`~repro.circuits.CircuitCache` (populated under
        ``EngineConfig(compile_circuits=True)`` or by
        :meth:`compile`) are evaluated by an O(|circuit|) sweep — no
        decomposition, no batching, strategy reported as
        ``"circuit"``.
        """
        key = (
            epsilon, error_kind, max_steps, deadline_seconds,
            max_total_steps, workers, executor_kind,
        )
        cached = self._confidences.get(key)
        if cached is not None:
            return cached
        if self.query is not None and self.database is not None:
            try:
                # Extensional route: no lineage, nothing to compile.
                pairs = self.engine.compute_query(
                    self.query,
                    self.database,
                    epsilon=epsilon,
                    error_kind=error_kind,
                )
            except UnsafeQueryError:
                pass  # outside SPROUT's class, or its rows are correlated
            else:
                self._confidences[key] = pairs
                return pairs
        # The lineage batch, with the session circuit cache in front:
        # warm answers (exact circuit cached for their lineage) are
        # answered by circuit evaluation, only the cold remainder enters
        # the engine, and the circuits it compiles are kept for the next
        # query.
        answers = self.lineage()
        config = self.engine.config
        cache = self._circuit_cache
        results: List[Optional[EngineResult]] = [None] * len(answers)
        cold: List[int] = []
        for index, (_values, dnf) in enumerate(answers):
            circuit = cache.get(dnf) if cache is not None else None
            if circuit is not None and circuit.is_exact:
                results[index] = circuit_hit_result(
                    circuit, config, epsilon, error_kind
                )
            else:
                cold.append(index)
        if cold:
            computed = self.engine.compute_many(
                [answers[index][1] for index in cold],
                epsilon=epsilon,
                error_kind=error_kind,
                max_steps=max_steps,
                deadline_seconds=deadline_seconds,
                max_total_steps=max_total_steps,
                workers=workers,
                executor_kind=executor_kind,
            )
            for index, result in zip(cold, computed):
                results[index] = result
                if cache is not None and result.circuit is not None:
                    # Partial circuits are cached too (exact_only=False):
                    # a budgeted run's truncation frontier is resumable
                    # anytime state — later refinement (and, with a
                    # persisted store, a future process) expands it in
                    # place instead of recomputing.  The warm path above
                    # still requires is_exact before answering from it.
                    cache.put(
                        answers[index][1], result.circuit,
                        exact_only=False,
                    )
        pairs = []
        for (values, _dnf), result in zip(answers, results):
            if result is None:  # pragma: no cover - batch invariant
                raise RuntimeError(
                    "confidence batch returned fewer results than "
                    "answers — refusing to drop answers silently"
                )
            pairs.append((values, result))
        self._confidences[key] = pairs
        return pairs

    def bounds(
        self,
        epsilon: Optional[float] = None,
        *,
        error_kind: Optional[str] = None,
        initial_steps: Optional[int] = None,
        step_growth: Optional[int] = None,
        max_total_steps: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        workers: Optional[int] = None,
        executor_kind: Optional[str] = None,
    ) -> Iterator[BoundsSnapshot]:
        """Anytime iterator of certified interval snapshots.

        Yields a :class:`BoundsSnapshot` after the initial bounding pass
        and after every refinement step; each refinement targets the
        widest unconverged answer (the batch machinery of
        :meth:`~repro.engine.ConfidenceEngine.refine_many` — sharded
        across a worker pool when ``workers > 1``, in which case each
        step refines the widest answer per shard).  Every
        snapshot's intervals are sound, so the caller may stop consuming
        at any point; left alone, the iterator stops once the requested
        guarantee is certified for every answer or the step/time budget
        runs out.
        """
        lineage = self.lineage()
        values = [answer_values for answer_values, _dnf in lineage]
        batch = self.engine.refine_many(
            [dnf for _values, dnf in lineage],
            epsilon=epsilon,
            error_kind=error_kind,
            initial_steps=initial_steps,
            step_growth=step_growth,
            deadline_seconds=deadline_seconds,
            workers=workers,
            executor_kind=executor_kind,
        )
        if max_total_steps is None:
            max_total_steps = self.engine.config.max_total_steps

        def snapshot() -> BoundsSnapshot:
            return BoundsSnapshot(
                [
                    (answer_values, result.lower, result.upper)
                    for answer_values, result in zip(values, batch.results)
                ],
                batch.converged(),
                batch.total_steps,
            )

        # Leaving the block — the iterator finishing or being
        # abandoned — drops a pooled batch's lease on the session
        # engine's worker pool; the pool stays warm on the engine
        # until ``ProbDB.close()`` (or GC) retires it.
        with batch:
            yield snapshot()
            while not batch.converged() and not batch.spent(
                max_total_steps
            ):
                if batch.step() is None:
                    break
                yield snapshot()

    def top_k(
        self,
        k: int,
        *,
        separation: float = 0.0,
        initial_steps: Optional[int] = None,
        step_growth: Optional[int] = None,
        max_total_steps: Optional[int] = None,
        workers: Optional[int] = None,
        executor_kind: Optional[str] = None,
    ) -> List[RankedAnswer]:
        """The k most probable answers, certified by interval pruning."""
        return rank_answers(
            self.engine,
            self.lineage(),
            k,
            initial_steps=initial_steps,
            step_growth=step_growth,
            max_total_steps=max_total_steps,
            separation=separation,
            workers=workers,
            executor_kind=executor_kind,
        )

    # -- circuit compilation ---------------------------------------------
    def compile(
        self, *, max_nodes: Optional[int] = None
    ) -> CompiledResult:
        """Compile every answer's lineage into an arithmetic circuit.

        The compile-once/evaluate-many entry point: the returned
        :class:`~repro.circuits.CompiledResult` re-evaluates all answer
        confidences under new probability maps in O(|circuits|),
        yields per-tuple sensitivities in one backward sweep per
        answer, conditions on variable assignments, and re-ranks
        answers under hypothetical probabilities
        (``what_if_top_k``) — all without touching the engine again.

        Exact circuits (the default, ``max_nodes=None``) are also
        stored in the session's circuit cache, so later
        :meth:`confidences` calls on the same lineage skip the engine.
        """
        cache = self._circuit_cache if max_nodes is None else None
        pairs: List[Tuple[AnswerValues, Circuit]] = []
        for values, dnf in self.lineage():
            circuit = cache.get(dnf) if cache is not None else None
            if circuit is not None and not circuit.is_exact:
                # The cache may hold a *partial* circuit (resumable
                # anytime state from a budgeted run); an explicit
                # compile wants the real thing.
                circuit = None
            if circuit is None:
                circuit = self.engine.compile_circuit(
                    dnf, max_nodes=max_nodes
                )
                if cache is not None:
                    cache.put(dnf, circuit)
            pairs.append((values, circuit))
        return CompiledResult(pairs)

    def sweep(
        self,
        scenarios: Sequence[Optional[ProbOverrides]],
        *,
        max_nodes: Optional[int] = None,
    ) -> SweepResult:
        """Every answer's confidence under every override scenario.

        Compiles the answers' circuits (through the session cache, so
        repeated sweeps — and earlier :meth:`compile` /
        :meth:`confidences` calls — share the work) and evaluates the
        whole scenario batch per circuit in one numpy pass when numpy
        is importable; the scalar fallback returns the identical grid.
        """
        return self.compile(max_nodes=max_nodes).sweep(scenarios)

    def what_if_grid(
        self,
        variable: Hashable,
        probabilities: Sequence[float],
        *,
        max_nodes: Optional[int] = None,
    ) -> SweepResult:
        """Sweep one Boolean tuple's probability across every answer.

        ``result.what_if_grid("t", [i / 10 for i in range(11)])`` is
        the one-dimensional sensitivity scan: each answer's confidence
        as a function of ``P(t)``, one sweep per circuit.
        """
        return self.compile(max_nodes=max_nodes).what_if_grid(
            variable, probabilities
        )

    def explain(
        self, include_influence: Optional[bool] = None, *, top: int = 5
    ) -> QueryExplanation:
        """The planner's routing decision, plus tuple influence.

        ``include_influence`` adds a per-answer ranking of the most
        influential tuples to the report: by **true circuit gradients**
        when a compiled circuit is available in the session cache, by
        the frequency heuristic otherwise — each
        :class:`~repro.db.explain.InfluenceReport` says which method it
        used.  The default (``None``) includes influence only when
        lineage is already materialised, so a fresh ``explain()`` stays
        a pure planning call; pass ``True`` to force lineage
        materialisation, ``top`` bounds entries per answer.
        """
        if self.query is None:
            raise ValueError(
                "lineage-only results carry no query to explain"
            )
        report = explain(self.query, self.database)
        if include_influence is None:
            include_influence = self._lineage is not None
        if include_influence:
            cache = self._circuit_cache
            influence = []
            gradient_ranked = 0
            for values, dnf in self.lineage():
                circuit = cache.get(dnf) if cache is not None else None
                entry = rank_influence(
                    dnf,
                    self.engine.registry,
                    circuit=circuit,
                    top=top,
                )
                if entry.method == "circuit-gradient":
                    gradient_ranked += 1
                influence.append((values, entry))
            report.influence = influence
            report.notes.append(
                f"influence: {gradient_ranked}/{len(influence)} answers "
                "ranked by true circuit gradients, the rest by the "
                "frequency heuristic"
            )
        return report


class ProbDB:
    """A probabilistic-database session: the library's front door.

    One session owns one :class:`~repro.engine.ConfidenceEngine` — and
    therefore one decomposition cache and one interned registry — for
    its whole lifetime; every query, ranking, and explanation issued
    through it shares that state.

    Parameters
    ----------
    database:
        The :class:`~repro.db.database.Database` to query.
    config:
        The session's :class:`~repro.engine.EngineConfig`; defaults
        (exact computation, auto pivot order) when omitted.
    engine:
        An existing engine to adopt instead (mutually exclusive with
        ``config``/``cache``); its config becomes the session's.
    cache:
        A :class:`~repro.core.memo.DecompositionCache` to share with
        other sessions.
    persist_circuits:
        Path of a circuit store (:mod:`repro.circuits.serialize`).  If
        the file exists, the session's circuit cache warm-starts from
        it — queries whose lineage was compiled in an earlier session
        answer with strategy ``"circuit"`` without ever touching the
        engine, even though this is a brand-new process with its own
        intern tables.  On :meth:`close` (or context-manager exit) the
        cache is saved back, so repeated sessions compound: compile
        once, anywhere; evaluate everywhere, forever.
    strict_store:
        How to treat store entries the database no longer covers
        (variables dropped since the save).  ``True`` (default) raises
        :class:`~repro.circuits.CircuitStoreError` at construction —
        loud invalidation; ``False`` skips the stale entries and
        warm-starts from whatever is still valid (the close-time save
        then rewrites the store without them).
    """

    __slots__ = ("database", "engine", "circuits", "_circuit_store", "_txn")

    def __init__(
        self,
        database: Database,
        config: Optional[EngineConfig] = None,
        *,
        engine: Optional[ConfidenceEngine] = None,
        cache: Optional[DecompositionCache] = None,
        persist_circuits: Optional[PathLike] = None,
        strict_store: bool = True,
    ) -> None:
        if engine is not None:
            if config is not None:
                raise TypeError(
                    "pass either config= or engine=, not both "
                    "(an engine carries its own config)"
                )
            if cache is not None:
                raise TypeError(
                    "pass either cache= or engine=, not both "
                    "(an engine carries its own cache)"
                )
        else:
            engine = ConfidenceEngine.for_database(
                database, config, cache=cache
            )
        self.database = database
        self.engine = engine
        #: Compiled circuits keyed by interned lineage DNF; a warm
        #: query's confidences are O(|circuit|) sweeps, engine skipped.
        self.circuits = CircuitCache()
        # Let the engine's MC rung sample worlds on a session-cached
        # exact circuit (vectorized, when numpy is available) instead
        # of running per-sample Karp-Luby over the raw lineage — and
        # let batched refinement resume cached *partial* circuits
        # (strategy "circuit-refine"), writing expansion progress back
        # so it survives the batch and, with a persisted store, the
        # process.
        engine.circuit_source = self.circuits.get
        engine.circuit_sink = self._store_partial_circuit
        #: The active :class:`~repro.db.mutations.Transaction`, if any.
        self._txn = None
        self._circuit_store: Optional[str] = (
            None if persist_circuits is None else os.fspath(persist_circuits)
        )
        if self._circuit_store is not None and os.path.exists(
            self._circuit_store
        ):
            self.circuits.load_into(
                self._circuit_store, self.registry, strict=strict_store
            )

    @classmethod
    def from_registry(
        cls,
        registry: VariableRegistry,
        config: Optional[EngineConfig] = None,
        *,
        cache: Optional[DecompositionCache] = None,
        persist_circuits: Optional[PathLike] = None,
        strict_store: bool = True,
    ) -> "ProbDB":
        """A session over a bare probability space (no relations yet).

        Useful for lineage-level workloads — motif DNFs, hand-built
        formulas — that still want the shared planner, cache, and the
        :meth:`lineage` / :meth:`confidence` entry points.
        """
        return cls(
            Database(registry), config, cache=cache,
            persist_circuits=persist_circuits,
            strict_store=strict_store,
        )

    @classmethod
    def open(
        cls,
        database: Database,
        config: Optional[EngineConfig] = None,
        *,
        circuit_store: PathLike,
        cache: Optional[DecompositionCache] = None,
        strict_store: bool = True,
    ) -> "ProbDB":
        """A session warm-started from (and persisted to) a circuit store.

        Sugar for ``ProbDB(database, config,
        persist_circuits=circuit_store)``, reading as the intent: open
        the database *with* its compiled-circuit store.  A missing
        store file is not an error — the first session starts cold and
        writes the store on :meth:`close`; ``strict_store=False``
        additionally tolerates a *stale* store (entries over dropped
        variables are skipped instead of failing construction).
        """
        return cls(
            database, config, cache=cache,
            persist_circuits=circuit_store,
            strict_store=strict_store,
        )

    @property
    def config(self) -> EngineConfig:
        """The session's frozen :class:`~repro.engine.EngineConfig`."""
        return self.engine.config

    @property
    def registry(self) -> VariableRegistry:
        return self.database.registry

    # -- query entry points ----------------------------------------------
    def sql(self, text: str) -> QueryResult:
        """Parse a MayBMS-style ``conf()`` query into a lazy result.

        Parsing (and therefore syntax/schema errors) happens now;
        evaluation and confidence computation happen on demand.
        """
        parsed = parse_conf_query(text, self.database)
        return QueryResult(
            self.engine, self.database, parsed=parsed,
            circuit_cache=self.circuits,
        )

    def query(self, query: ConjunctiveQuery) -> QueryResult:
        """A lazy result for a :class:`ConjunctiveQuery`."""
        return QueryResult(
            self.engine, self.database, query=query,
            circuit_cache=self.circuits,
        )

    def lineage(
        self, answers: Iterable[LineageAnswer]
    ) -> QueryResult:
        """A result over precomputed ``(values, lineage_dnf)`` pairs.

        The batched confidence, bounds, and top-k machinery applies to
        hand-built lineage exactly as to query answers.
        """
        return QueryResult(
            self.engine, self.database, lineage=answers,
            circuit_cache=self.circuits,
        )

    def confidence(
        self,
        lineage: Union[DNF, Formula],
        *,
        epsilon: Optional[float] = None,
        error_kind: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> EngineResult:
        """One lineage formula's confidence via the session engine.

        Keyword overrides are forwarded to
        :meth:`~repro.engine.ConfidenceEngine.compute`; the session's
        :class:`~repro.engine.EngineConfig` fills the rest.  Like
        ``QueryResult.confidences()``, a lineage with an exact circuit
        in the session cache is answered by an O(|circuit|) sweep —
        strategy ``"circuit"``, engine skipped — and a freshly
        compiled circuit (``EngineConfig.compile_circuits``) is stored
        for the next call.
        """
        dnf = lineage.to_dnf() if isinstance(lineage, Formula) else lineage
        circuit = self.circuits.get(dnf)
        if circuit is not None and circuit.is_exact:
            return circuit_hit_result(
                circuit, self.engine.config, epsilon, error_kind
            )
        result = self.engine.compute(
            dnf,
            epsilon=epsilon,
            error_kind=error_kind,
            max_steps=max_steps,
            deadline_seconds=deadline_seconds,
        )
        if result.circuit is not None:
            # exact_only=False: budgeted runs leave resumable partial
            # circuits behind (see BatchComputation.refine).
            self.circuits.put(dnf, result.circuit, exact_only=False)
        return result

    def explain(
        self, query: Union[str, ConjunctiveQuery]
    ) -> QueryExplanation:
        """Classify a query (SQL text or CQ) and report the planner's
        routing decision, without running it."""
        if isinstance(query, str):
            query = parse_conf_query(query, self.database).query
        return explain(query, self.database)

    # -- mutations (probabilistic DML) -----------------------------------
    def insert(
        self,
        table: str,
        row: Sequence[Hashable],
        probability: Optional[float] = None,
    ) -> "mutations.MutationResult":
        """Insert one row into ``table``.

        ``probability`` omitted (or ``>= 1``) inserts a certain row;
        ``0 < p < 1`` mints a fresh tuple-independent lineage variable.
        Each mutation runs a cone-level invalidation pass — only cached
        circuits and memo cones whose variable sets touch the change
        are evicted (:mod:`repro.circuits.incremental`); everything
        disjoint stays warm.  Outside a :meth:`transaction` the mutation
        autocommits, bumping the circuit-cache version so live serving
        snapshots refresh.
        """
        return mutations.apply_insert(self, table, row, probability)

    def update(
        self,
        table: str,
        *,
        values: Optional[Dict[str, Hashable]] = None,
        probability: Optional[float] = None,
        where: "mutations.WhereSpec" = None,
    ) -> "mutations.MutationResult":
        """Rewrite matching rows' values and/or tuple probability.

        ``where`` is ``None`` (all rows), a ``column -> value`` map, a
        predicate over the row's ``attribute -> value`` dict, or
        ``(column, op, literal)`` triples.  See
        :mod:`repro.db.mutations` for the per-row-shape probability
        semantics.
        """
        return mutations.apply_update(
            self, table, values=values, probability=probability, where=where
        )

    def delete(
        self, table: str, where: "mutations.WhereSpec" = None
    ) -> "mutations.MutationResult":
        """Delete matching rows from ``table``."""
        return mutations.apply_delete(self, table, where)

    def transaction(self) -> "mutations.Transaction":
        """A rollback scope over this session's mutations.

        Mutations inside apply immediately; a clean context-manager
        exit commits (one circuit-cache version bump — the serving
        read-your-writes signal), an exception rolls back relation
        contents, minted variables, and replaced distributions.
        """
        return mutations.Transaction(self)

    def execute(self, text: str):
        """Run one SQL statement: SELECT, DML, or transaction control.

        Returns a lazy :class:`QueryResult` for ``SELECT``, a
        :class:`~repro.db.mutations.MutationResult` for DML, a
        :class:`~repro.db.mutations.Transaction` for ``BEGIN``, and
        ``None`` for ``COMMIT``/``ROLLBACK``.
        """
        statement = parse_statement(text, self.database)
        if isinstance(statement, ParsedQuery):
            return QueryResult(
                self.engine, self.database, parsed=statement,
                circuit_cache=self.circuits,
            )
        return statement.apply(self)

    def circuit(
        self,
        lineage: Union[DNF, Formula],
        *,
        max_nodes: Optional[int] = None,
    ) -> Circuit:
        """A compiled circuit for one lineage formula, session-cached.

        Exact compiles (``max_nodes=None``) hit and populate the
        session's :class:`~repro.circuits.CircuitCache`, so repeated
        requests — and subsequent warm ``confidences()`` calls on the
        same lineage — are free.
        """
        dnf = lineage.to_dnf() if isinstance(lineage, Formula) else lineage
        if max_nodes is None:
            cached = self.circuits.get(dnf)
            if cached is not None and cached.is_exact:
                return cached
        circuit = self.engine.compile_circuit(dnf, max_nodes=max_nodes)
        if max_nodes is None:
            self.circuits.put(dnf, circuit)
        return circuit

    def _store_partial_circuit(self, dnf: DNF, circuit: Circuit) -> None:
        """Engine write-back (``circuit_sink``): keep refinement
        progress.  ``exact_only=False`` because the whole point is
        storing partial circuits — resumable anytime state."""
        self.circuits.put(dnf, circuit, exact_only=False)

    def save_circuits(self, path: Optional[PathLike] = None) -> int:
        """Persist the session's compiled circuits; returns the count.

        ``path`` defaults to the session's ``persist_circuits`` store.
        The written file is the versioned, name-based format of
        :mod:`repro.circuits.serialize` — loadable by any process.
        """
        target = self._circuit_store if path is None else os.fspath(path)
        if target is None:
            raise ValueError(
                "no store path: pass path= or open the session with "
                "persist_circuits=/ProbDB.open(circuit_store=...)"
            )
        return self.circuits.save(target)

    def serving(
        self, *, store_name: str = "session", config: Optional[object] = None
    ) -> "object":
        """An async serving engine over this session's circuit cache.

        The returned :class:`repro.serving.ServingEngine` serves the
        live session cache under ``store_name`` (snapshots re-cut as
        the cache's mutation counter moves, so circuits compiled after
        this call are visible to the server) and degrades to this
        session's engine for cold lineages.  Wrap it in
        :class:`repro.serving.ServingApp` for the ASGI front-end, or in
        :class:`repro.serving.ServingClient` to call it in-process over
        the same JSON wire path, without a socket.
        """
        from ..serving import CircuitStoreService, ServingEngine

        stores = CircuitStoreService(self.registry)
        stores.add_cache(store_name, self.circuits)
        return ServingEngine(stores, self.engine, config)  # type: ignore[arg-type]

    def close(self) -> None:
        """Retire the worker pool and persist circuits (if configured)."""
        try:
            if self._circuit_store is not None:
                self.save_circuits()
        finally:
            # A failed save (unwritable path) must not leak the
            # engine-lifetime worker pool.
            self.engine.close()

    def __enter__(self) -> "ProbDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/entry counters of the shared decomposition cache."""
        return self.engine.cache.stats()

    def circuit_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/entry counters of the session circuit cache."""
        return self.circuits.stats()

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.database.relation_names()))
        return (
            f"ProbDB([{names}], epsilon={self.config.epsilon}, "
            f"error_kind={self.config.error_kind!r})"
        )
