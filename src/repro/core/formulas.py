"""Positive propositional formulas (the lineage AST).

The query engine annotates tuples with *events* built from atomic events
with ``∧`` and ``∨`` (paper, Section III).  Keeping lineage as an AST and
converting to DNF only when a confidence is requested mirrors how SPROUT
materialises lineage relationally and casts confidence computation as a DNF
probability problem.

The AST is deliberately small: :class:`AtomNode`, :class:`AndNode`,
:class:`OrNode` plus the constants.  ``to_dnf`` distributes conjunctions
over disjunctions (worst-case exponential, as unavoidable), dropping
inconsistent clauses.  The common shapes stay linear: a disjunction
gathers its children's clauses into one :class:`~repro.core.dnf.DNF`, and
a conjunction of atoms and ``⊤`` is one clause (see :func:`atom_clause`);
only composite conjuncts are distributed with
:meth:`~repro.core.dnf.DNF.conjoin`.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .dnf import DNF
from .events import Atom, Clause
from .variables import VariableRegistry

__all__ = [
    "Formula",
    "AtomNode",
    "AndNode",
    "OrNode",
    "TrueNode",
    "FalseNode",
    "TRUE",
    "FALSE",
    "atom",
    "conj",
    "disj",
    "atom_clause",
]


class Formula:
    """Base class for positive event formulas."""

    __slots__ = ()

    # -- combinators ----------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    # -- interface -------------------------------------------------------
    def to_dnf(self) -> DNF:
        raise NotImplementedError

    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        raise NotImplementedError

    def variables(self) -> frozenset:
        raise NotImplementedError

    def probability_exact(self, registry: VariableRegistry) -> float:
        """Exact probability via d-tree compilation (convenience)."""
        from .exact import exact_probability

        return exact_probability(self.to_dnf(), registry)


class TrueNode(Formula):
    """The constant true."""

    __slots__ = ()

    def to_dnf(self) -> DNF:
        return DNF.true()

    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        return True

    def variables(self) -> frozenset:
        return frozenset()

    def __repr__(self) -> str:
        return "⊤"


class FalseNode(Formula):
    """The constant false."""

    __slots__ = ()

    def to_dnf(self) -> DNF:
        return DNF.false()

    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        return False

    def variables(self) -> frozenset:
        return frozenset()

    def __repr__(self) -> str:
        return "⊥"


TRUE = TrueNode()
FALSE = FalseNode()


class AtomNode(Formula):
    """A leaf holding one atomic event ``x = a``."""

    __slots__ = ("atom",)

    def __init__(self, atom_: Atom) -> None:
        object.__setattr__(self, "atom", atom_)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AtomNode is immutable")

    def to_dnf(self) -> DNF:
        return DNF((Clause((self.atom,)),))

    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        return world.get(self.atom.variable) == self.atom.value

    def variables(self) -> frozenset:
        return frozenset((self.atom.variable,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomNode):
            return NotImplemented
        return self.atom == other.atom

    def __hash__(self) -> int:
        return hash(("AtomNode", self.atom))

    def __repr__(self) -> str:
        return repr(self.atom)


class _NaryNode(Formula):
    """Shared structure of ``AndNode`` / ``OrNode``."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Formula]) -> None:
        object.__setattr__(self, "children", tuple(children))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formula nodes are immutable")

    def variables(self) -> frozenset:
        result: frozenset = frozenset()
        for child in self.children:
            result |= child.variables()
        return result

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))


class AndNode(_NaryNode):
    """Conjunction of sub-formulas."""

    __slots__ = ()

    def to_dnf(self) -> DNF:
        clause, composite = atom_clause(self.children)
        if clause is None:
            return DNF.false()
        result = DNF((clause,))
        for child in composite:
            result = result.conjoin(child.to_dnf())
            if result.is_false():
                return result
        return result

    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        return all(child.evaluate(world) for child in self.children)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(repr(c) for c in self.children) + ")"


class OrNode(_NaryNode):
    """Disjunction of sub-formulas."""

    __slots__ = ()

    def to_dnf(self) -> DNF:
        clauses: List[Clause] = []
        for child in self.children:
            clauses.extend(child.to_dnf().clauses)
        return DNF(clauses)

    def evaluate(self, world: Mapping[Hashable, Hashable]) -> bool:
        return any(child.evaluate(world) for child in self.children)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(c) for c in self.children) + ")"


# ----------------------------------------------------------------------
# Smart constructors (flatten, fold constants)
# ----------------------------------------------------------------------
def atom(variable: Hashable, value: Hashable = True) -> AtomNode:
    """Shorthand for ``AtomNode(Atom(variable, value))``."""
    return AtomNode(Atom(variable, value))


def conj(*formulas: Formula) -> Formula:
    """N-ary conjunction with flattening and constant folding."""
    flat: list[Formula] = []
    for formula in formulas:
        if isinstance(formula, FalseNode):
            return FALSE
        if isinstance(formula, TrueNode):
            continue
        if isinstance(formula, AndNode):
            flat.extend(formula.children)
        else:
            flat.append(formula)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndNode(flat)


def disj(*formulas: Formula) -> Formula:
    """N-ary disjunction with flattening and constant folding."""
    flat: list[Formula] = []
    for formula in formulas:
        if isinstance(formula, TrueNode):
            return TRUE
        if isinstance(formula, FalseNode):
            continue
        if isinstance(formula, OrNode):
            flat.extend(formula.children)
        else:
            flat.append(formula)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrNode(flat)


def atom_clause(
    formulas: Iterable[Formula],
) -> Tuple[Optional[Clause], List[Formula]]:
    """Split a conjunction into the clause of its atoms and the rest.

    Returns ``(clause, composite)``: ``clause`` conjoins every
    :class:`AtomNode` among ``formulas`` (``None`` when two of them bind
    one variable to different values, so the conjunction is
    unsatisfiable); ``composite`` lists, in order, the formulas that are
    neither atoms nor ``⊤``.  An empty clause with no composites means
    every formula was ``⊤``.
    """
    byvar: Dict[int, Tuple[int, Hashable]] = {}
    composite: List[Formula] = []
    for formula in formulas:
        if isinstance(formula, AtomNode):
            atom_ = formula.atom
            bound = byvar.get(atom_.var_id)
            if bound is None:
                byvar[atom_.var_id] = (atom_.atom_id, atom_.value)
            elif bound[0] != atom_.atom_id:
                return None, composite
        elif not isinstance(formula, TrueNode):
            composite.append(formula)
    return Clause._from_byvar(byvar), composite
