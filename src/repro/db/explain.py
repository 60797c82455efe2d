"""Query explanation: classify a query and recommend an algorithm.

Section VI of the paper maps out the tractability landscape:

* hierarchical conjunctive queries without self-joins → exact PTIME
  (SPROUT's extensional plans, or d-trees with only ⊗/⊙ nodes);
* IQ inequality queries → exact PTIME via the Lemma 6.8 variable order;
* instances of the hard pattern ``R(X), S(X,Y), T(Y)`` whose middle table
  satisfies Theorem 6.4 → exact PTIME despite the query being #P-hard in
  general;
* everything else → the incremental ε-approximation (Section V).

:func:`explain` runs those classifiers against a query (and optionally
the concrete database, for the data-dependent Theorem 6.4 case) and
returns a structured report used by tools and tests — the decision
procedure a query optimiser would embed.  It is a thin consumer of the
:class:`repro.engine.ConfidenceEngine` planner's query-level strategy
selection; session users reach it as ``ProbDB.explain(query_or_sql)``
or ``QueryResult.explain()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Tuple

from ..core.dnf import DNF
from ..core.variables import VariableRegistry
from .cq import ConjunctiveQuery, SubGoal, Var, hard_pattern_tractable
from .database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits import Circuit

__all__ = [
    "explain",
    "rank_influence",
    "QueryExplanation",
    "InfluenceReport",
]


class QueryExplanation:
    """Structured outcome of :func:`explain`.

    Attributes
    ----------
    hierarchical, iq, self_join:
        The Section VI classifications.
    hard_pattern:
        True when the query matches the shape ``R(X), S(X,Y), T(Y)``.
    theorem_6_4:
        For hard-pattern queries with a database: whether the concrete
        S table satisfies Theorem 6.4 (None when not applicable/checked).
    tractable:
        The bottom line: is exact PTIME computation guaranteed?
    recommendation:
        Human-readable algorithm advice.
    engine_strategy, engine_reason:
        The :class:`repro.engine.ConfidenceEngine` ladder rung this query
        is routed to (``sprout`` or ``dtree`` at query level; DNF-level
        rungs like ``read-once`` apply per answer) and why — the planner
        decision ``ProbDB.query`` / ``ProbDB.sql`` will actually take.
    influence:
        ``(answer_values, InfluenceReport)`` per answer when influence
        ranking was requested (``QueryResult.explain``), ``None``
        otherwise.  Each report says whether it ranked by true circuit
        gradients or by the frequency heuristic.
    notes:
        Supporting detail, one line per finding.
    """

    __slots__ = (
        "hierarchical",
        "iq",
        "self_join",
        "hard_pattern",
        "theorem_6_4",
        "tractable",
        "recommendation",
        "engine_strategy",
        "engine_reason",
        "influence",
        "notes",
    )

    def __init__(self) -> None:
        self.hierarchical = False
        self.iq = False
        self.self_join = False
        self.hard_pattern = False
        self.theorem_6_4: Optional[bool] = None
        self.tractable = False
        self.recommendation = ""
        self.engine_strategy = ""
        self.engine_reason = ""
        self.influence: Optional[
            List[Tuple[Tuple[Hashable, ...], "InfluenceReport"]]
        ] = None
        self.notes: List[str] = []

    def __repr__(self) -> str:
        status = "tractable" if self.tractable else "hard"
        return f"QueryExplanation({status}: {self.recommendation})"


class InfluenceReport:
    """Tuples of one answer's lineage ranked by influence on its
    confidence.

    Attributes
    ----------
    method:
        ``"circuit-gradient"`` — true sensitivities
        ``∂confidence/∂p(tuple)`` from one backward sweep of the
        answer's compiled circuit — or ``"frequency-heuristic"`` — the
        fallback ranking by probability-weighted clause occurrence,
        used when no circuit is available.
    entries:
        ``(variable, score)`` in descending ``|score|`` order.  For the
        gradient method the score *is* the derivative (signed:
        positive means raising the tuple's probability raises the
        confidence); heuristic scores are only a ranking currency.
    note:
        One line describing how the ranking was obtained.
    """

    __slots__ = ("method", "entries", "note")

    def __init__(
        self,
        method: str,
        entries: List[Tuple[Hashable, float]],
        note: str,
    ) -> None:
        self.method = method
        self.entries = entries
        self.note = note

    def top(self, count: int) -> List[Tuple[Hashable, float]]:
        return self.entries[:count]

    def __repr__(self) -> str:
        head = ", ".join(
            f"{variable!r}: {score:+.4g}"
            for variable, score in self.entries[:3]
        )
        return f"InfluenceReport({self.method}; {head}, ...)"


def rank_influence(
    dnf: DNF,
    registry: VariableRegistry,
    *,
    circuit: Optional["Circuit"] = None,
    top: Optional[int] = None,
) -> InfluenceReport:
    """Rank the tuples (variables) of a lineage DNF by influence.

    With a compiled ``circuit`` the ranking uses the true gradient
    ``∂P/∂p(tuple)`` — one backward sweep yields every tuple's
    sensitivity at once.  Without one it falls back to the
    probability-weighted occurrence heuristic (how much clause mass a
    variable participates in), which orders reasonably but carries no
    quantitative meaning.  The report names the method used.
    """
    if circuit is not None:
        # One forward+backward sweep yields every atom's adjoint; both
        # rankings derive from it.  Boolean variables get the true
        # d/dp (adj(x=True) − adj(x=False), as Circuit.gradients
        # computes); non-Boolean (e.g. block-independent-disjoint)
        # variables have no single d/dp and are ranked by their
        # strongest per-value derivative so they are not dropped.
        per_variable: dict = {}
        for (name, value), gradient in circuit.atom_gradients().items():
            per_variable.setdefault(name, {})[value] = gradient
        conditioned = set(circuit.conditioned)
        scores: dict = {}
        for name, by_value in per_variable.items():
            if name in conditioned:
                continue
            if name in registry and registry.is_boolean(name):
                scores[name] = by_value.get(True, 0.0) - by_value.get(
                    False, 0.0
                )
            else:
                scores[name] = max(by_value.values(), key=abs)
        entries = sorted(
            scores.items(),
            key=lambda item: (-abs(item[1]), repr(item[0])),
        )
        note = (
            "true sensitivities from one backward circuit sweep "
            "(non-Boolean variables ranked by their strongest "
            "per-value derivative)"
            if circuit.is_exact
            else "sensitivities from a partial circuit (residual leaves "
            "held at their interval midpoint): approximate"
        )
        if top is not None:
            entries = entries[:top]
        return InfluenceReport("circuit-gradient", entries, note)

    scores: dict = {}
    for clause in dnf:
        clause_probability = clause.probability(registry)
        for variable in clause.variables:
            scores[variable] = scores.get(variable, 0.0) + (
                clause_probability
            )
    entries = sorted(
        scores.items(), key=lambda item: (-abs(item[1]), repr(item[0]))
    )
    if top is not None:
        entries = entries[:top]
    return InfluenceReport(
        "frequency-heuristic",
        entries,
        "probability-weighted clause occurrence (no compiled circuit "
        "available; enable EngineConfig.compile_circuits or call "
        "QueryResult.compile() for true gradients)",
    )


def _match_hard_pattern(query: ConjunctiveQuery):
    """Detect ``R(X), S(X,Y), T(Y)`` up to subgoal order and extra local
    variables; returns ``(s_subgoal, x_var, y_var)`` or ``None``."""
    if len(query.subgoals) != 3 or query.has_self_join():
        return None
    unary = [
        subgoal for subgoal in query.subgoals if len(subgoal.variables()) == 1
    ]
    binary = [
        subgoal for subgoal in query.subgoals if len(subgoal.variables()) == 2
    ]
    if len(unary) != 2 or len(binary) != 1:
        return None
    (s_subgoal,) = binary
    s_vars = s_subgoal.variables()
    unary_vars = {subgoal.variables()[0] for subgoal in unary}
    if set(s_vars) != unary_vars:
        return None
    x_var, y_var = s_vars
    return s_subgoal, x_var, y_var


def explain(
    query: ConjunctiveQuery, database: Optional[Database] = None
) -> QueryExplanation:
    """Classify ``query`` and recommend a confidence algorithm.

    With a ``database``, the data-dependent Theorem 6.4 condition is also
    checked for hard-pattern queries.
    """
    from ..engine import ConfidenceEngine

    report = QueryExplanation()
    report.self_join = query.has_self_join()
    report.hierarchical = query.is_hierarchical()
    report.iq = query.is_iq()
    report.engine_strategy, report.engine_reason = (
        ConfidenceEngine.select_query_strategy(query, database)
    )
    report.notes.append(
        f"engine routes this query via {report.engine_strategy!r}: "
        f"{report.engine_reason}"
    )

    if report.self_join:
        report.notes.append(
            "query contains self-joins: outside every known tractable "
            "class; Section V approximation applies"
        )
        report.recommendation = (
            "incremental d-tree approximation (choose ε per application)"
        )
        return report

    inequalities_are_local = all(
        any(
            set(inequality.variables()) <= set(subgoal.variables())
            for subgoal in query.subgoals
        )
        for inequality in query.inequalities
    )

    if report.hierarchical and inequalities_are_local:
        # Local inequalities are mere selections: the hierarchical result
        # applies directly (and SPROUT handles them as row filters).
        report.tractable = True
        if query.inequalities:
            report.notes.append(
                "hierarchical (Def. 6.1) with only local inequality "
                "selections: exact PTIME"
            )
        else:
            report.notes.append(
                "hierarchical without self-joins (Def. 6.1): exact PTIME"
            )
        report.recommendation = (
            "SPROUT extensional plan, or d-tree(0) — compiles with ⊗/⊙ "
            "only (Prop. 6.3)"
        )
        return report

    if report.iq and query.inequalities:
        report.tractable = True
        report.notes.append(
            "IQ query (Defs. 6.5/6.6): exact PTIME with the Lemma 6.8 "
            "variable-elimination order (Thm. 6.9)"
        )
        report.recommendation = (
            "d-tree(0) with make_variable_selector(database provenance)"
        )
        return report

    if report.hierarchical:
        report.notes.append(
            "hierarchical skeleton but cross-subgoal inequalities outside "
            "the max-one property"
        )

    pattern = _match_hard_pattern(query)
    if pattern is not None:
        report.hard_pattern = True
        s_subgoal, x_var, y_var = pattern
        report.notes.append(
            "matches the prototypical #P-hard pattern R(X), S(X,Y), T(Y)"
        )
        if database is not None and s_subgoal.relation in database:
            relation = database[s_subgoal.relation]
            positions = {
                term: index
                for index, term in enumerate(s_subgoal.terms)
                if isinstance(term, Var)
            }
            x_attr = relation.attributes[positions[x_var]]
            y_attr = relation.attributes[positions[y_var]]
            report.theorem_6_4 = hard_pattern_tractable(
                relation, x_attr, y_attr
            )
            if report.theorem_6_4:
                report.tractable = True
                report.notes.append(
                    "Theorem 6.4 holds on this database: every bipartite "
                    "component of S is functional, or complete with "
                    "deterministic S — lineage factorizes into 1OF"
                )
                report.recommendation = (
                    "d-tree(0): compiles with ⊗/⊙ only on this data"
                )
                return report
            report.notes.append(
                "Theorem 6.4 fails on this database: the instance is "
                "genuinely hard"
            )

    report.recommendation = (
        "incremental d-tree approximation (choose ε per application)"
    )
    return report
