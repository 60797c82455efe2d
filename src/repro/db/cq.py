"""Conjunctive queries and the paper's tractability classifications.

Queries are written Datalog-style::

    q(D) :- R1(A, B, C), R2(A, B), R3(A, D)

as :class:`ConjunctiveQuery` objects over :class:`Var`/:class:`Const`
terms, optionally extended with inequality predicates (the IQ queries of
Definition 6.6).

Classifiers implemented here:

* :meth:`ConjunctiveQuery.is_hierarchical` — Definition 6.1: for any two
  non-head variables, their subgoal sets are disjoint or one contains the
  other.  Hierarchical queries without self-joins are exactly the known
  tractable conjunctive queries on tuple-independent databases.
* :meth:`ConjunctiveQuery.has_self_join` — repeated relation names.
* :meth:`ConjunctiveQuery.is_iq` — Definition 6.6: distinct
  tuple-independent relations, pairwise-disjoint non-head variable sets
  (no equality joins), and inequalities with the max-one property
  (Definition 6.5).
* :func:`hard_pattern_tractable` — Theorem 6.4: the ``R(X), S(X,Y), T(Y)``
  pattern is tractable when every connected component of S's bipartite
  graph is functional (S probabilistic or deterministic) or complete
  (S deterministic).
"""

from __future__ import annotations

import itertools
import operator
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.formulas import TrueNode
from .database import Database
from .relation import Relation

__all__ = [
    "Var",
    "Const",
    "Term",
    "SubGoal",
    "Inequality",
    "ConjunctiveQuery",
    "hard_pattern_tractable",
]


class Var:
    """A query variable."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        self.name = name
        # Variables key every binding, index and classifier set: hash once.
        self._hash = hash(("Var", name))

    def __reduce__(self):
        # String hashes are per process: rebuild (and rehash) on load.
        return (Var, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name


class Const:
    """A constant term."""

    __slots__ = ("value",)

    def __init__(self, value: Hashable) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))

    def __repr__(self) -> str:
        return repr(self.value)


Term = Union[Var, Const]

#: Comparison operator -> binary predicate (shared with the row scans of
#: :mod:`repro.db.engine`).
COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "!=": operator.ne,
}


class SubGoal:
    """An atom ``R(t₁, …, t_k)`` of the query body."""

    __slots__ = ("relation", "terms")

    def __init__(self, relation: str, terms: Sequence[Term]) -> None:
        self.relation = relation
        self.terms = tuple(terms)

    def variables(self) -> List[Var]:
        """Variables in term order, duplicates removed."""
        return list(
            dict.fromkeys(term for term in self.terms if isinstance(term, Var))
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(term) for term in self.terms)
        return f"{self.relation}({inner})"


class Inequality:
    """A predicate ``left op right`` with ``op ∈ {<, <=, >, >=, !=}``."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: Term, op: str, right: Term) -> None:
        if op not in COMPARATORS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def variables(self) -> List[Var]:
        result = []
        for term in (self.left, self.right):
            if isinstance(term, Var):
                result.append(term)
        return result

    def holds(self, binding: Dict[Var, Hashable]) -> bool:
        left = (
            binding[self.left] if isinstance(self.left, Var) else self.left.value
        )
        right = (
            binding[self.right]
            if isinstance(self.right, Var)
            else self.right.value
        )
        return COMPARATORS[self.op](left, right)

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


class ConjunctiveQuery:
    """``q(head) :- subgoals, inequalities``."""

    __slots__ = (
        "name",
        "head",
        "subgoals",
        "inequalities",
        "_hierarchical",
        "_inequality_homes",
    )

    def __init__(
        self,
        head: Sequence[Var],
        subgoals: Sequence[SubGoal],
        inequalities: Sequence[Inequality] = (),
        name: str = "q",
    ) -> None:
        if not subgoals:
            raise ValueError("a conjunctive query needs at least one subgoal")
        self.name = name
        self.head = tuple(head)
        self.subgoals = tuple(subgoals)
        self.inequalities = tuple(inequalities)
        # Classifier memos: a query's structure never changes.
        self._hierarchical: Optional[bool] = None
        self._inequality_homes: Optional[Tuple[Tuple[int, ...], ...]] = None
        body_vars = set(self.variables())
        for var in self.head:
            if var not in body_vars:
                raise ValueError(f"head variable {var!r} not in query body")
        for inequality in self.inequalities:
            for var in inequality.variables():
                if var not in body_vars:
                    raise ValueError(
                        f"inequality variable {var!r} not in query body"
                    )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def variables(self) -> List[Var]:
        """Body variables in subgoal and term order, duplicates removed."""
        return list(
            dict.fromkeys(
                term
                for subgoal in self.subgoals
                for term in subgoal.terms
                if isinstance(term, Var)
            )
        )

    def non_head_variables(self) -> List[Var]:
        return [var for var in self.variables() if var not in self.head]

    def is_boolean(self) -> bool:
        return not self.head

    def subgoal_set(self, var: Var) -> FrozenSet[int]:
        """Indices of the subgoals in which ``var`` occurs (sg(var))."""
        return frozenset(
            index
            for index, subgoal in enumerate(self.subgoals)
            if var in subgoal.variables()
        )

    def has_self_join(self) -> bool:
        names = [subgoal.relation for subgoal in self.subgoals]
        return len(names) != len(set(names))

    def inequality_homes(self) -> Tuple[Tuple[int, ...], ...]:
        """Per inequality, the subgoals holding all of its variables.

        A non-empty entry is a *local selection*: a row filter on each of
        those subgoals.  An empty one is an inequality join across
        subgoals (the IQ queries of Definition 6.6).  Memoised.
        """
        if self._inequality_homes is None:
            subgoal_vars = [set(subgoal.variables()) for subgoal in self.subgoals]
            self._inequality_homes = tuple(
                tuple(
                    index
                    for index, variables in enumerate(subgoal_vars)
                    if variables.issuperset(inequality.variables())
                )
                for inequality in self.inequalities
            )
        return self._inequality_homes

    # ------------------------------------------------------------------
    # Classifications
    # ------------------------------------------------------------------
    def is_hierarchical(self) -> bool:
        """Definition 6.1: the subgoal sets of any two non-head variables
        are disjoint or one contains the other.  One pass over the body,
        memoised on the query."""
        if self._hierarchical is None:
            head = set(self.head)
            sets: Dict[Var, Set[int]] = {}
            for index, subgoal in enumerate(self.subgoals):
                for term in subgoal.terms:
                    if isinstance(term, Var) and term not in head:
                        sets.setdefault(term, set()).add(index)
            distinct = {frozenset(indices) for indices in sets.values()}
            self._hierarchical = all(
                a <= b or b <= a or a.isdisjoint(b)
                for a, b in itertools.combinations(distinct, 2)
            )
        return self._hierarchical

    def _per_subgoal_variable_sets(self) -> List[Set[Var]]:
        """Non-head variable sets ``xᵢ − x₀`` per subgoal."""
        head = set(self.head)
        return [
            {var for var in subgoal.variables() if var not in head}
            for subgoal in self.subgoals
        ]

    def has_max_one_property(self) -> bool:
        """Definition 6.5 over the per-subgoal non-head variable sets:
        at most one variable from each set occurs in inequalities with
        variables of other sets."""
        groups = self._per_subgoal_variable_sets()

        def group_of(var: Var) -> Optional[int]:
            for index, group in enumerate(groups):
                if var in group:
                    return index
            return None

        crossing: Dict[int, Set[Var]] = {}
        for inequality in self.inequalities:
            variables = inequality.variables()
            if len(variables) == 2:
                left_group = group_of(variables[0])
                right_group = group_of(variables[1])
                if left_group is None or right_group is None:
                    continue  # head variables are exempt
                if left_group == right_group:
                    return False  # intra-set inequality breaks the pattern
                crossing.setdefault(left_group, set()).add(variables[0])
                crossing.setdefault(right_group, set()).add(variables[1])
        return all(len(used) <= 1 for used in crossing.values())

    def is_iq(self) -> bool:
        """Definition 6.6: an IQ query.

        Distinct relations (no self-joins), pairwise disjoint non-head
        variable sets (so all joins are inequality joins), and the
        max-one property on the inequalities.
        """
        if self.has_self_join():
            return False
        groups = self._per_subgoal_variable_sets()
        for left, right in itertools.combinations(groups, 2):
            if left & right:
                return False
        return self.has_max_one_property()

    def __repr__(self) -> str:
        head = ", ".join(repr(var) for var in self.head)
        body = ", ".join(repr(subgoal) for subgoal in self.subgoals)
        if self.inequalities:
            body += ", " + ", ".join(repr(i) for i in self.inequalities)
        return f"{self.name}({head}) :- {body}"


# ----------------------------------------------------------------------
# Theorem 6.4: tractable instances of the hard pattern R(X), S(X,Y), T(Y)
# ----------------------------------------------------------------------
def hard_pattern_tractable(
    s_relation: Relation,
    x_attribute: str,
    y_attribute: str,
) -> bool:
    """Check the Theorem 6.4 conditions on the middle table ``S``.

    The bipartite graph of ``S`` has the distinct X-values and Y-values as
    node sets and one edge per tuple.  The pattern is tractable when every
    connected component is

    * **functional** — no two X-nodes share a Y-node, or no two Y-nodes
      share an X-node (``S`` probabilistic or deterministic); or
    * **complete** — every X-node connects to every Y-node of the
      component — and all of the component's tuples are deterministic.
    """
    x_index = s_relation.attribute_index(x_attribute)
    y_index = s_relation.attribute_index(y_attribute)

    # Union-find over ('x', value) / ('y', value) nodes.
    parent: Dict[Tuple[str, Hashable], Tuple[str, Hashable]] = {}

    def find(node: Tuple[str, Hashable]) -> Tuple[str, Hashable]:
        parent.setdefault(node, node)
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def unite(a: Tuple[str, Hashable], b: Tuple[str, Hashable]) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    edges: List[Tuple[Hashable, Hashable, bool]] = []
    for values, lineage in s_relation.rows:
        x_value, y_value = values[x_index], values[y_index]
        deterministic = isinstance(lineage, TrueNode)
        edges.append((x_value, y_value, deterministic))
        unite(("x", x_value), ("y", y_value))

    components: Dict[
        Tuple[str, Hashable], List[Tuple[Hashable, Hashable, bool]]
    ] = {}
    for x_value, y_value, deterministic in edges:
        root = find(("x", x_value))
        components.setdefault(root, []).append(
            (x_value, y_value, deterministic)
        )

    for component_edges in components.values():
        x_degree: Dict[Hashable, Set[Hashable]] = {}
        y_degree: Dict[Hashable, Set[Hashable]] = {}
        all_deterministic = True
        for x_value, y_value, deterministic in component_edges:
            x_degree.setdefault(x_value, set()).add(y_value)
            y_degree.setdefault(y_value, set()).add(x_value)
            all_deterministic = all_deterministic and deterministic
        functional = all(
            len(neighbours) == 1 for neighbours in x_degree.values()
        ) or all(len(neighbours) == 1 for neighbours in y_degree.values())
        if functional:
            continue
        complete = len(component_edges) >= len(x_degree) * len(y_degree) and (
            len({(x, y) for x, y, _d in component_edges})
            == len(x_degree) * len(y_degree)
        )
        if complete and all_deterministic:
            continue
        return False
    return True
