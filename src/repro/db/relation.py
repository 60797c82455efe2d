"""Probabilistic relations: tuple-independent, BID, and c-tables.

A :class:`Relation` is a bag of rows, each annotated with a lineage
:class:`~repro.core.formulas.Formula` over the random variables of a shared
:class:`~repro.core.variables.VariableRegistry`.  Three constructors cover
the representation systems of the paper (Section VI.A):

* :meth:`Relation.certain` — a deterministic relation (lineage ``⊤``);
* :meth:`Relation.tuple_independent` — one fresh Boolean variable per row
  (Fig. 5a);
* :meth:`Relation.block_independent_disjoint` — one fresh finite-domain
  variable per block, with one domain value per alternative plus an
  implicit "none" alternative when the block's probabilities sum below
  one (Fig. 5b);
* arbitrary lineage rows (a c-table) via the plain constructor.

Variable names are ``(relation_name, key)`` pairs — hashable, readable,
and carrying the provenance that the IQ variable order of Lemma 6.8 needs
(see :attr:`Relation.variable_origin`).
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.events import Atom
from ..core.formulas import TRUE, AtomNode, Formula, TrueNode
from ..core.variables import VariableRegistry

__all__ = ["Relation", "Row"]

Row = Tuple[Hashable, ...]


class Relation:
    """A named relation whose rows carry event lineage.

    Attributes
    ----------
    name:
        Relation name (used in provenance and error messages).
    attributes:
        Column names, in order.
    rows:
        List of ``(values, lineage)`` pairs.
    variable_origin:
        ``variable -> relation name`` for every lineage variable minted by
        this relation's constructors.
    """

    __slots__ = ("name", "attributes", "rows", "variable_origin",
                 "_simple_lineage_memo")

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Tuple[Row, Formula]] = (),
        variable_origin: Optional[Dict[Hashable, str]] = None,
    ) -> None:
        self.name = name
        self.attributes = tuple(attributes)
        self.rows: List[Tuple[Row, Formula]] = []
        self.variable_origin: Dict[Hashable, str] = (
            dict(variable_origin) if variable_origin else {}
        )
        self._simple_lineage_memo: Optional[Tuple[int, bool]] = None
        for values, lineage in rows:
            self._append(values, lineage)

    def _append(self, values: Sequence[Hashable], lineage: Formula) -> None:
        values = tuple(values)
        if len(values) != len(self.attributes):
            raise ValueError(
                f"row {values!r} has {len(values)} values; relation "
                f"{self.name!r} has {len(self.attributes)} attributes"
            )
        self.rows.append((values, lineage))

    def has_simple_lineage(self) -> bool:
        """True when every row's lineage is ``⊤`` or an atom over a
        variable no other row of the relation uses.

        This is the tuple-independent/certain row shape SPROUT requires:
        a BID block with two alternatives shares one variable, so its
        rows are correlated and the relation does not qualify.  The
        verdict is memoised per row count; the mutation helpers of
        :mod:`repro.db.mutations` reset the memo whenever they touch
        rows.  A stale verdict (rows replaced in place by other code)
        cannot corrupt results: SPROUT re-checks every candidate row and
        the session falls back to lineage on its ``UnsafeQueryError``.
        """
        memo = self._simple_lineage_memo
        count = len(self.rows)
        if memo is not None and memo[0] == count:
            return memo[1]
        seen = set()
        verdict = True
        for _values, lineage in self.rows:
            if isinstance(lineage, AtomNode):
                var_id = lineage.atom.var_id
                if var_id in seen:
                    verdict = False
                    break
                seen.add(var_id)
            elif not isinstance(lineage, TrueNode):
                verdict = False
                break
        self._simple_lineage_memo = (count, verdict)
        return verdict

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def certain(
        cls,
        name: str,
        attributes: Sequence[str],
        tuples: Iterable[Sequence[Hashable]],
    ) -> "Relation":
        """A deterministic relation: every row's lineage is ``⊤``."""
        return cls(
            name,
            attributes,
            ((tuple(values), TRUE) for values in tuples),
        )

    @classmethod
    def tuple_independent(
        cls,
        name: str,
        attributes: Sequence[str],
        tuples_with_probabilities: Iterable[Tuple[Sequence[Hashable], float]],
        registry: VariableRegistry,
    ) -> "Relation":
        """One fresh Boolean variable per row (Fig. 5a of the paper).

        Probabilities of exactly 1.0 produce certain rows (lineage ``⊤``)
        rather than degenerate Boolean variables.
        """
        relation = cls(name, attributes)
        for index, (values, probability) in enumerate(
            tuples_with_probabilities
        ):
            if probability >= 1.0:
                relation._append(tuple(values), TRUE)
                continue
            variable = (name, index)
            registry.add_boolean(variable, probability)
            relation.variable_origin[variable] = name
            relation._append(tuple(values), AtomNode(Atom(variable, True)))
        return relation

    @classmethod
    def block_independent_disjoint(
        cls,
        name: str,
        attributes: Sequence[str],
        blocks: Mapping[Hashable, Sequence[Tuple[Sequence[Hashable], float]]],
        registry: VariableRegistry,
    ) -> "Relation":
        """One finite-domain variable per block (Fig. 5b of the paper).

        Each block maps a key to its alternatives ``(tuple, probability)``.
        Alternatives within a block are mutually exclusive; blocks are
        independent.  When a block's probabilities sum to less than one the
        remainder becomes an implicit "none of these" domain value.
        """
        relation = cls(name, attributes)
        for block_key, alternatives in blocks.items():
            alternatives = list(alternatives)
            if not alternatives:
                continue
            total = sum(probability for _values, probability in alternatives)
            if total > 1.0 + 1e-9:
                raise ValueError(
                    f"block {block_key!r} of {name!r} has total "
                    f"probability {total} > 1"
                )
            variable = (name, block_key)
            distribution: Dict[Hashable, float] = {
                index: probability
                for index, (_values, probability) in enumerate(alternatives)
                if probability > 0.0
            }
            remainder = 1.0 - total
            if remainder > 1e-12:
                distribution["__none__"] = remainder
            registry.add_variable(variable, distribution)
            relation.variable_origin[variable] = name
            for index, (values, probability) in enumerate(alternatives):
                if probability <= 0.0:
                    continue
                relation._append(
                    tuple(values), AtomNode(Atom(variable, index))
                )
        return relation

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Row, Formula]]:
        return iter(self.rows)

    def attribute_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise KeyError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def column(self, attribute: str) -> List[Hashable]:
        """All values of one column (with duplicates, row order)."""
        index = self.attribute_index(attribute)
        return [values[index] for values, _lineage in self.rows]

    def renamed(self, new_name: str) -> "Relation":
        """A shallow copy under a different name (variables keep their
        original provenance)."""
        return Relation(
            new_name, self.attributes, list(self.rows), self.variable_origin
        )

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {list(self.attributes)!r}, "
            f"{len(self.rows)} rows)"
        )
