"""Conjunctive-query evaluation with lineage tracking.

The engine evaluates a :class:`~repro.db.cq.ConjunctiveQuery` against a
:class:`~repro.db.database.Database` and returns, per distinct answer
tuple, the lineage formula whose probability is the tuple's confidence —
the reduction from query evaluation to DNF probability that the paper's
Section VI.A recalls.

Joins are hash-based: each subgoal indexes its relation's rows by the
positions of already-bound variables, and inequality predicates are applied
as soon as both sides are bound.  Lineage is conjoined along a join path
and disjoined across derivations of the same answer.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    List,
    Sequence,
    Tuple,
)

from ..core.dnf import DNF
from ..core.formulas import Formula, conj, disj
from ..core.orders import VariableSelector, make_variable_selector
from .cq import Const, ConjunctiveQuery, Inequality, SubGoal, Var
from .database import Database

__all__ = [
    "evaluate",
    "evaluate_to_dnf",
    "answer_selector",
    "QueryAnswer",
]


class QueryAnswer:
    """One answer tuple with its lineage."""

    __slots__ = ("values", "lineage")

    def __init__(self, values: Tuple[Hashable, ...], lineage: Formula) -> None:
        self.values = values
        self.lineage = lineage

    def __repr__(self) -> str:
        return f"QueryAnswer({self.values!r})"


def _plan_inequalities(
    query: ConjunctiveQuery,
) -> List[Tuple[int, Inequality]]:
    """Pair each inequality with the earliest subgoal index after which
    both its variables are bound."""
    bound: List[Var] = []
    planned: List[Tuple[int, Inequality]] = []
    remaining = list(query.inequalities)
    for index, subgoal in enumerate(query.subgoals):
        for var in subgoal.variables():
            if var not in bound:
                bound.append(var)
        still_waiting = []
        for inequality in remaining:
            if all(var in bound for var in inequality.variables()):
                planned.append((index, inequality))
            else:
                still_waiting.append(inequality)
        remaining = still_waiting
    if remaining:
        raise ValueError(
            f"inequalities {remaining!r} use variables not bound by any "
            "subgoal"
        )
    return planned


def evaluate(query: ConjunctiveQuery, database: Database) -> List[QueryAnswer]:
    """All distinct answers of ``query`` with ``∨``-merged lineage."""
    checks_after = _plan_inequalities(query)

    # Partial results: (binding, lineage) pairs.
    partials: List[Tuple[Dict[Var, Hashable], Formula]] = [({}, None)]

    for index, subgoal in enumerate(query.subgoals):
        relation = database[subgoal.relation]
        if len(relation.attributes) != len(subgoal.terms):
            raise ValueError(
                f"subgoal {subgoal!r} has {len(subgoal.terms)} terms but "
                f"relation {relation.name!r} has "
                f"{len(relation.attributes)} attributes"
            )
        # Which term positions are already determined (constants, repeated
        # variables within this subgoal, or variables bound earlier)?
        bound_vars = set(partials[0][0]) if partials else set()
        key_positions: List[int] = []
        first_occurrence: Dict[Var, int] = {}
        for position, term in enumerate(subgoal.terms):
            if isinstance(term, Const):
                key_positions.append(position)
            elif term in bound_vars:
                key_positions.append(position)
            elif term in first_occurrence:
                # Repeated new variable inside this subgoal: equality is
                # enforced row-wise below, not via the join key.
                pass
            else:
                first_occurrence[term] = position
        new_var_positions = list(first_occurrence.items())

        # Index relation rows by the values at all key positions that are
        # constants or previously-bound variables; constants are resolved
        # immediately, bound variables per partial result.
        const_positions = [
            (position, subgoal.terms[position].value)
            for position in key_positions
            if isinstance(subgoal.terms[position], Const)
        ]
        var_key_positions = [
            position
            for position in key_positions
            if isinstance(subgoal.terms[position], Var)
        ]

        index_map: Dict[Tuple[Hashable, ...], List[int]] = {}
        usable_rows: List[Tuple[Tuple[Hashable, ...], Formula]] = []
        for row_values, row_lineage in relation.rows:
            if any(
                row_values[position] != value
                for position, value in const_positions
            ):
                continue
            # Repeated variables inside one subgoal must match themselves.
            consistent = True
            seen: Dict[Var, Hashable] = {}
            for position, term in enumerate(subgoal.terms):
                if isinstance(term, Var):
                    if term in seen and seen[term] != row_values[position]:
                        consistent = False
                        break
                    seen[term] = row_values[position]
            if not consistent:
                continue
            row_id = len(usable_rows)
            usable_rows.append((row_values, row_lineage))
            key = tuple(
                row_values[position] for position in var_key_positions
            )
            index_map.setdefault(key, []).append(row_id)

        key_vars = [subgoal.terms[position] for position in var_key_positions]
        checks_now = [
            inequality for at, inequality in checks_after if at == index
        ]

        next_partials: List[Tuple[Dict[Var, Hashable], Formula]] = []
        for binding, lineage in partials:
            key = tuple(binding[var] for var in key_vars)
            for row_id in index_map.get(key, ()):
                row_values, row_lineage = usable_rows[row_id]
                new_binding = dict(binding)
                for var, position in new_var_positions:
                    new_binding[var] = row_values[position]
                if not all(
                    inequality.holds(new_binding)
                    for inequality in checks_now
                ):
                    continue
                combined = (
                    row_lineage
                    if lineage is None
                    else conj(lineage, row_lineage)
                )
                next_partials.append((new_binding, combined))
        partials = next_partials
        if not partials:
            break

    # Group by head values; Boolean queries group everything into ().
    merged: Dict[Tuple[Hashable, ...], List[Formula]] = {}
    order: List[Tuple[Hashable, ...]] = []
    for binding, lineage in partials:
        answer = tuple(binding[var] for var in query.head)
        if answer not in merged:
            merged[answer] = []
            order.append(answer)
        merged[answer].append(
            lineage if lineage is not None else conj()
        )
    return [
        QueryAnswer(answer, disj(*merged[answer])) for answer in order
    ]


def evaluate_to_dnf(
    query: ConjunctiveQuery, database: Database
) -> List[Tuple[Tuple[Hashable, ...], DNF]]:
    """Answers as ``(tuple, lineage DNF)`` pairs."""
    return [
        (answer.values, answer.lineage.to_dnf())
        for answer in evaluate(query, database)
    ]


def answer_selector(database: Database) -> VariableSelector:
    """A Shannon-pivot selector wired with this database's provenance.

    Tries the Lemma 6.8 IQ order first (using the ``variable → relation``
    origins of the database), falling back to max frequency — the
    composite strategy of Section IV.
    """
    return make_variable_selector(database.variable_origins())
