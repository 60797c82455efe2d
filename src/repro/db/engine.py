"""Conjunctive-query evaluation with lineage tracking.

The engine evaluates a :class:`~repro.db.cq.ConjunctiveQuery` against a
:class:`~repro.db.database.Database` and returns, per distinct answer
tuple, the lineage formula whose probability is the tuple's confidence —
the reduction from query evaluation to DNF probability that the paper's
Section VI.A recalls.

Every subgoal's relation is scanned once (:func:`scan`).  Selections are
pushed into that scan and checked by column position, without building a
binding per row: the subgoal's constants, its repeated variables, and
every inequality whose variables all occur in the subgoal (a local
selection such as ``l_shipdate >= 100``).  Joins are then hash-based:
each subgoal indexes its surviving rows by the positions of variables
bound by earlier subgoals, and only cross-subgoal inequalities (the IQ
joins) are checked in the join loop, as soon as both sides are bound.

Lineage is built only when read.  A partial result carries its bound
values and the tuple of row lineages along its join path; an answer
keeps these derivations.  :attr:`QueryAnswer.dnf` turns them straight
into the lineage DNF on first access (:func:`lineage_dnf`): one clause
per derivation, collected from the rows' atoms, with no formula tree in
between.  Only a derivation through a row whose own lineage is composite
(a c-table row such as ``x ∨ y``) is distributed via
:meth:`~repro.core.formulas.Formula.to_dnf`.  :attr:`QueryAnswer.lineage`
is the same event as a lazily built ``∨`` of ``∧`` formula.  Callers
that only want the answer tuples (SPROUT, ``QueryResult.answers()``)
never pay for either.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.dnf import DNF
from ..core.events import Clause
from ..core.formulas import Formula, TrueNode, atom_clause, conj, disj
from ..core.orders import VariableSelector, make_variable_selector
from .cq import COMPARATORS, Const, ConjunctiveQuery, Inequality, SubGoal, Var
from .database import Database
from .relation import Relation

__all__ = [
    "evaluate",
    "evaluate_to_dnf",
    "lineage_dnf",
    "answer_selector",
    "scan",
    "local_selections",
    "values_at",
    "QueryAnswer",
]

Values = Tuple[Hashable, ...]
Derivation = Tuple[Formula, ...]


class QueryAnswer:
    """One answer tuple with its (lazily built) lineage.

    ``derivations`` holds one tuple of row lineages per join path that
    produced the answer.  :attr:`dnf` is the lineage DNF the confidence
    paths read, built straight from the derivations; :attr:`lineage` is
    the same event as a formula, their ``∨`` of ``∧``.  Each is built on
    first access and cached.
    """

    __slots__ = ("values", "derivations", "_lineage", "_dnf")

    def __init__(
        self, values: Values, derivations: Sequence[Derivation]
    ) -> None:
        self.values = values
        self.derivations = derivations
        self._lineage: Optional[Formula] = None
        self._dnf: Optional[DNF] = None

    @property
    def lineage(self) -> Formula:
        if self._lineage is None:
            self._lineage = disj(
                *(conj(*derivation) for derivation in self.derivations)
            )
        return self._lineage

    @property
    def dnf(self) -> DNF:
        if self._dnf is None:
            self._dnf = lineage_dnf(self.derivations)
        return self._dnf

    def __repr__(self) -> str:
        return f"QueryAnswer({self.values!r})"


def lineage_dnf(derivations: Sequence[Derivation]) -> DNF:
    """The DNF of ``∨`` over ``derivations`` of ``∧`` over row lineages.

    Each derivation of atoms and ``⊤`` rows is one clause; one that binds
    a variable to two values (two alternatives of a BID block) is
    dropped, and one of ``⊤`` rows alone makes the answer certain.  A
    derivation through a composite row lineage falls back to
    ``conj(...).to_dnf()``.  The clause set equals
    ``QueryAnswer.lineage.to_dnf()``'s.
    """
    clauses: List[Clause] = []
    for derivation in derivations:
        clause, composite = atom_clause(derivation)
        if clause is None:
            continue
        if composite:
            formula = conj(*derivation)
            if isinstance(formula, TrueNode):
                return DNF.true()
            clauses.extend(formula.to_dnf().clauses)
        elif clause.is_empty():
            return DNF.true()
        else:
            clauses.append(clause)
    return DNF(clauses)


def values_at(positions: Sequence[int]) -> Callable[[Sequence], Values]:
    """``row -> tuple(row[p] for p in positions)``, without the loop
    (a join key, a partial's new values, an answer's head values)."""
    if not positions:
        return lambda _row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


def local_selections(query: ConjunctiveQuery) -> List[List[Inequality]]:
    """Per subgoal, the inequalities whose variables it holds alone."""
    local: List[List[Inequality]] = [[] for _ in query.subgoals]
    for inequality, homes in zip(
        query.inequalities, query.inequality_homes()
    ):
        for index in homes:
            local[index].append(inequality)
    return local


def _test(
    inequality: Inequality, index: Dict[Var, int]
) -> Callable[[Sequence], bool]:
    """``inequality`` as a predicate on a values tuple in which each
    variable sits at ``index[var]`` (a row, or a partial's bound values)."""
    compare = COMPARATORS[inequality.op]
    left, right = inequality.left, inequality.right
    if isinstance(left, Var) and isinstance(right, Var):
        li, ri = index[left], index[right]
        return lambda values: compare(values[li], values[ri])
    if isinstance(left, Var):
        li, constant = index[left], right.value
        return lambda values: compare(values[li], constant)
    if isinstance(right, Var):
        ri, constant = index[right], left.value
        return lambda values: compare(constant, values[ri])
    holds = compare(left.value, right.value)
    return lambda _values: holds


def scan(
    subgoal: SubGoal,
    relation: Relation,
    selections: Sequence[Inequality],
) -> List[Tuple[Values, Formula]]:
    """``relation``'s rows that match ``subgoal`` on their own, in order.

    A row matches when it equals the subgoal's constants, agrees with
    itself on repeated variables, and satisfies ``selections`` (local
    inequalities: all their variables occur in ``subgoal``).  Each check
    is one positional filter over the surviving rows.
    """
    terms = subgoal.terms
    if len(relation.attributes) != len(terms):
        raise ValueError(
            f"subgoal {subgoal!r} has {len(terms)} terms but "
            f"relation {relation.name!r} has "
            f"{len(relation.attributes)} attributes"
        )
    rows = relation.rows
    first: Dict[Var, int] = {}
    for position, term in enumerate(terms):
        if isinstance(term, Const):
            value = term.value
            rows = [row for row in rows if row[0][position] == value]
        elif term in first:
            earlier = first[term]
            rows = [
                row for row in rows if row[0][position] == row[0][earlier]
            ]
        else:
            first[term] = position
    for inequality in selections:
        test = _test(inequality, first)
        rows = [row for row in rows if test(row[0])]
    return rows


def evaluate(
    query: ConjunctiveQuery,
    database: Database,
    *,
    scans: Optional[Sequence[List[Tuple[Values, Formula]]]] = None,
) -> List[QueryAnswer]:
    """All distinct answers of ``query``, in order of first derivation,
    with ``∨``-merged lineage (built on first read).

    ``scans`` holds, per subgoal in order, the rows :func:`scan` gives
    it under :func:`local_selections`, for a caller that reads those
    rows too (SPROUT partitions them): the join then uses them instead
    of scanning again.  Without it, each subgoal is scanned here, and a
    join that runs empty stops before scanning the rest.
    """
    selections = local_selections(query)
    joins = [
        inequality
        for inequality, homes in zip(
            query.inequalities, query.inequality_homes()
        )
        if not homes
    ]

    # Partial results: (bound values by slot, row lineages so far).
    slots: Dict[Var, int] = {}
    partials: List[Tuple[Values, Derivation]] = [((), ())]
    for index, subgoal in enumerate(query.subgoals):
        rows = (
            scan(subgoal, database[subgoal.relation], selections[index])
            if scans is None
            else scans[index]
        )
        # Join on variables bound earlier; bind the subgoal's new ones.
        # Repeated variables are keyed or bound once: the scan already
        # equated their other positions.
        key_positions: List[int] = []
        key_slots: List[int] = []
        new_positions: List[int] = []
        earlier = len(slots)
        for position, term in enumerate(subgoal.terms):
            if not isinstance(term, Var):
                continue
            slot = slots.get(term)
            if slot is None:
                slots[term] = len(slots)
                new_positions.append(position)
            elif slot < earlier and slot not in key_slots:
                key_positions.append(position)
                key_slots.append(slot)
        row_key = values_at(key_positions)
        index_map: Dict[Values, List[Tuple[Values, Formula]]] = {}
        for row in rows:
            index_map.setdefault(row_key(row[0]), []).append(row)

        # Cross-subgoal inequalities run as soon as both sides are bound.
        ready = [
            inequality
            for inequality in joins
            if all(var in slots for var in inequality.variables())
        ]
        joins = [inequality for inequality in joins if inequality not in ready]
        checks = [_test(inequality, slots) for inequality in ready]
        partial_key = values_at(key_slots)
        new_values = values_at(new_positions)
        next_partials: List[Tuple[Values, Derivation]] = []
        for bound, lineages in partials:
            for values, row_lineage in index_map.get(partial_key(bound), ()):
                extended = bound + new_values(values)
                if checks and not all(check(extended) for check in checks):
                    continue
                next_partials.append((extended, lineages + (row_lineage,)))
        partials = next_partials
        if not partials:
            return []

    # Group by head values; Boolean queries group everything into ().
    head_values = values_at([slots[var] for var in query.head])
    merged: Dict[Values, List[Derivation]] = {}
    for bound, lineages in partials:
        merged.setdefault(head_values(bound), []).append(lineages)
    return [
        QueryAnswer(values, derivations)
        for values, derivations in merged.items()
    ]


def evaluate_to_dnf(
    query: ConjunctiveQuery, database: Database
) -> List[Tuple[Tuple[Hashable, ...], DNF]]:
    """Answers as ``(tuple, lineage DNF)`` pairs (see :func:`lineage_dnf`)."""
    return [(answer.values, answer.dnf) for answer in evaluate(query, database)]


def answer_selector(database: Database) -> VariableSelector:
    """A Shannon-pivot selector wired with this database's provenance.

    Tries the Lemma 6.8 IQ order first (using the ``variable → relation``
    origins of the database), falling back to max frequency — the
    composite strategy of Section IV.
    """
    return make_variable_selector(database.variable_origins())
