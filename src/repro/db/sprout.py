"""SPROUT-style exact confidence computation for hierarchical queries.

The paper benchmarks its generic d-tree operator against SPROUT, the
query-aware exact operator of [Olteanu, Huang, Koch; ICDE 2009]: for
hierarchical conjunctive queries without self-joins on tuple-independent
databases, confidence can be computed *extensionally*, by an evaluation
plan derived from the query's hierarchy — without ever materialising
lineage.

This module reproduces that operator in one pass over the data:

* each subgoal's relation is scanned once, by
  :func:`~repro.db.engine.scan` (constants, repeated variables and local
  inequalities as row filters);
* the distinct answers come from :func:`~repro.db.engine.evaluate`
  joining those same scanned rows (``scans=``); it builds lineage only
  when it is read, and here it never is;
* each scanned row is reduced to its probability, and each subgoal's
  rows are partitioned by the head values they bind, in row order;
* an answer's confidence is then computed on its own partitions by
  recursive decomposition of the (head-instantiated, hence Boolean)
  query:

  - subgoals that share no unbound variable form independent groups whose
    probabilities multiply (independent-and on disjoint relations — no
    self-joins means distinct relations, hence disjoint tuple variables);
  - within a group, a *root* variable occurring in every subgoal is
    eliminated: each member's rows are partitioned by their root value
    once, and distinct root values touch disjoint sets of tuples, so the
    group probability is an independent-or over the candidate values,
    each recursing on its own partitions;
  - a fully bound subgoal contributes the probability that at least one
    matching row is present.

The recursion mirrors SPROUT's safe plans: its cost is polynomial in the
data, since each level partitions the remaining rows by the root value
in one pass over them.  A non-hierarchical query (or one with self-joins
or inequality joins) is rejected with :class:`UnsafeQueryError` — that
is precisely when the d-tree algorithm is needed.  So is any input whose
candidate rows are not independent: every row's lineage must be ``⊤`` or
an atom over a variable no other candidate row mentions (two
alternatives of one BID block, or a row shared by two relations, are
correlated).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Set, Tuple

from ..core.formulas import AtomNode, Formula, TrueNode
from ..core.variables import VariableRegistry
from .cq import ConjunctiveQuery, Var
from .database import Database
from .engine import evaluate, local_selections, scan, values_at

__all__ = ["sprout_confidence", "UnsafeQueryError"]

#: A candidate row: its values and its probability.
_Row = Tuple[Tuple[Hashable, ...], float]


class UnsafeQueryError(ValueError):
    """The query is outside SPROUT's tractable class."""


def _row_probability(
    lineage: Formula, registry: VariableRegistry, used: Set[int]
) -> float:
    """Probability of one candidate row, whose variable joins ``used``.

    The row must be certain or a single atom over a variable no earlier
    candidate row mentioned — otherwise rows are correlated and the
    extensional products below would be wrong.
    """
    if isinstance(lineage, TrueNode):
        return 1.0
    if isinstance(lineage, AtomNode):
        atom = lineage.atom
        if atom.var_id in used:
            raise UnsafeQueryError(
                f"candidate rows share the lineage variable "
                f"{atom.variable!r} (a BID block or a shared row): they "
                "are correlated, not tuple-independent"
            )
        used.add(atom.var_id)
        return atom.probability(registry)
    raise UnsafeQueryError(
        "SPROUT requires tuple-independent (or certain) input rows; found "
        f"composite lineage {lineage!r}"
    )


class _Goal:
    """A subgoal with its candidate rows, filtered as variables bind."""

    __slots__ = ("terms", "rows")

    def __init__(self, terms: Sequence, rows: List[_Row]) -> None:
        self.terms = tuple(terms)
        self.rows = rows

    def partition(self, var: Var) -> Dict[Hashable, List[_Row]]:
        """The rows by their value of ``var``, each list in row order.

        A row is keyed by ``var``'s first position and kept only if it
        holds the key at every position of ``var``; a key whose rows
        all fail that check maps to no rows.
        """
        positions = [
            position
            for position, term in enumerate(self.terms)
            if term == var
        ]
        first = positions[0]
        groups: Dict[Hashable, List[_Row]] = {}
        for row in self.rows:
            values = row[0]
            value = values[first]
            group = groups.setdefault(value, [])
            if all(values[position] == value for position in positions):
                group.append(row)
        return groups


def _group_probability(
    goals: List[_Goal], unbound_sets: List[Set[Var]]
) -> float:
    """Probability of a connected group of subgoals (all must match).

    ``unbound_sets[i]`` holds the variables of ``goals[i]`` that the
    head and the enclosing levels' roots leave unbound.
    """
    # Fully bound goals are independent of everything else.
    probability = 1.0
    open_goals: List[_Goal] = []
    open_vars: List[Set[Var]] = []
    for goal, unbound in zip(goals, unbound_sets):
        if unbound:
            open_goals.append(goal)
            open_vars.append(unbound)
            continue
        # All terms bound: the goal holds iff at least one matching row is
        # in the world.  Matching rows are independent tuples.
        miss = 1.0
        for _values, row_probability in goal.rows:
            miss *= 1.0 - row_probability
        probability *= 1.0 - miss
        if probability == 0.0:
            return 0.0

    if not open_goals:
        return probability

    # Connected components among open goals.
    assigned = [-1] * len(open_goals)
    component = 0
    for start in range(len(open_goals)):
        if assigned[start] >= 0:
            continue
        frontier_vars = set(open_vars[start])
        assigned[start] = component
        changed = True
        while changed:
            changed = False
            for other in range(len(open_goals)):
                if assigned[other] >= 0:
                    continue
                if open_vars[other] & frontier_vars:
                    assigned[other] = component
                    frontier_vars |= open_vars[other]
                    changed = True
        component += 1

    for comp in range(component):
        indices = [
            index
            for index in range(len(open_goals))
            if assigned[index] == comp
        ]
        members = [open_goals[index] for index in indices]

        if len(members) == 1:
            # A lone subgoal holds iff at least one of its (independent)
            # matching rows is present — no recursion over local values.
            miss = 1.0
            for _values, row_probability in members[0].rows:
                miss *= 1.0 - row_probability
            probability *= 1.0 - miss
            if probability == 0.0:
                return 0.0
            continue

        # Root variable: unbound in every member subgoal (hierarchy).
        roots = set.intersection(*(open_vars[index] for index in indices))
        if not roots:
            raise UnsafeQueryError(
                "no root variable for a connected subgoal group — "
                "the query is not hierarchical"
            )
        root = min(roots, key=lambda var: var.name)

        # Each member's rows by root value, once; a candidate value
        # must occur in every member subgoal.
        partitions = [goal.partition(root) for goal in members]
        candidate_values = set(partitions[0])
        for groups in partitions[1:]:
            candidate_values = candidate_values & set(groups)

        # Distinct root values touch disjoint tuples: independent-or.
        # Binding the root leaves each member's other variables open.
        sub_unbound = [open_vars[index] - {root} for index in indices]
        miss = 1.0
        for value in sorted(candidate_values, key=repr):
            restricted = [
                _Goal(goal.terms, groups[value])
                for goal, groups in zip(members, partitions)
            ]
            miss *= 1.0 - _group_probability(restricted, sub_unbound)
        probability *= 1.0 - miss
        if probability == 0.0:
            return 0.0
    return probability


def sprout_confidence(
    query: ConjunctiveQuery,
    database: Database,
) -> List[Tuple[Tuple[Hashable, ...], float]]:
    """Exact per-answer confidence via SPROUT's extensional evaluation.

    Requires a hierarchical conjunctive query without self-joins or
    inequality joins whose candidate rows are pairwise independent:
    every row's lineage is ``⊤`` or an atom over a variable no other
    candidate row (of any subgoal) mentions.  Raises
    :class:`UnsafeQueryError` otherwise — BID alternatives of one block,
    or two relations sharing rows, are correlated and need lineage.
    """
    if query.has_self_join():
        raise UnsafeQueryError("SPROUT does not support self-joins")
    if not query.is_hierarchical():
        raise UnsafeQueryError(f"query {query!r} is not hierarchical")
    # Inequalities are supported only as *selections* (every variable in
    # one subgoal, where the scan filters on them).  Cross-subgoal
    # inequality joins belong to the IQ algorithm (d-trees with the
    # Lemma 6.8 order), not to SPROUT.
    for inequality, homes in zip(
        query.inequalities, query.inequality_homes()
    ):
        if not homes:
            raise UnsafeQueryError(
                f"inequality {inequality!r} joins subgoals; this SPROUT "
                "operator covers equality joins and local selections only"
            )

    # One scan per subgoal, shared by the answer join and the
    # partitions below.
    scans = [
        scan(subgoal, database[subgoal.relation], selections)
        for subgoal, selections in zip(
            query.subgoals, local_selections(query)
        )
    ]
    # Distinct answers, in evaluation order; their lineage is never read.
    answers = [
        answer.values for answer in evaluate(query, database, scans=scans)
    ]
    if not answers:
        return []

    # Each subgoal's rows, partitioned by the head values they bind.
    registry = database.registry
    head_index = {var: index for index, var in enumerate(query.head)}
    used: Set[int] = set()
    partitions = []
    for subgoal, rows in zip(query.subgoals, scans):
        positions: Dict[Var, int] = {}
        for position, term in enumerate(subgoal.terms):
            if term in head_index and term not in positions:
                positions[term] = position
        row_key = values_at(list(positions.values()))
        answer_key = values_at([head_index[var] for var in positions])
        groups: Dict[Tuple[Hashable, ...], List[_Row]] = {}
        for values, lineage in rows:
            groups.setdefault(row_key(values), []).append(
                (values, _row_probability(lineage, registry, used))
            )
        partitions.append((subgoal.terms, answer_key, groups))

    # The head binds the same variables in every answer.
    unbound_sets = [
        {
            term
            for term in subgoal.terms
            if isinstance(term, Var) and term not in head_index
        }
        for subgoal in query.subgoals
    ]
    results: List[Tuple[Tuple[Hashable, ...], float]] = []
    for values in answers:
        goals = [
            _Goal(terms, groups.get(answer_key(values), []))
            for terms, answer_key, groups in partitions
        ]
        results.append((values, _group_probability(goals, unbound_sets)))
    return results
