"""Positive relational algebra with lineage (paper, Section VI.A).

The operators manipulate :class:`~repro.db.relation.Relation` values and
combine lineage the standard way for c-tables:

* selection keeps lineage unchanged;
* projection with duplicate elimination ``∨``-combines the lineage of
  merged rows;
* joins and products ``∧``-combine lineage;
* union ``∨``-combines lineage of identical tuples across inputs.

``conf`` closes the loop: it converts each answer's lineage to DNF and
computes its probability through the
:class:`~repro.engine.ConfidenceEngine` strategy ladder (or a pluggable
confidence method, e.g. a Monte-Carlo baseline), mirroring the paper's
``select conf() …`` queries.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.dnf import DNF
from ..core.formulas import Formula, conj, disj
from ..core.variables import VariableRegistry
from ..engine import ConfidenceEngine
from .relation import Relation, Row

__all__ = [
    "select",
    "project",
    "natural_join",
    "theta_join",
    "product",
    "union",
    "rename_attributes",
    "conf",
]


def select(
    relation: Relation,
    predicate: Callable[[Dict[str, Hashable]], bool],
    name: Optional[str] = None,
) -> Relation:
    """σ — keep rows whose attribute dict satisfies ``predicate``."""
    attributes = relation.attributes
    rows = []
    for values, lineage in relation.rows:
        record = dict(zip(attributes, values))
        if predicate(record):
            rows.append((values, lineage))
    return Relation(
        name or f"σ({relation.name})",
        attributes,
        rows,
        relation.variable_origin,
    )


def project(
    relation: Relation,
    attributes: Sequence[str],
    *,
    deduplicate: bool = True,
    name: Optional[str] = None,
) -> Relation:
    """π — project onto ``attributes``; duplicates ``∨``-merge lineage."""
    indices = [relation.attribute_index(attribute) for attribute in attributes]
    if not deduplicate:
        rows = [
            (tuple(values[i] for i in indices), lineage)
            for values, lineage in relation.rows
        ]
        return Relation(
            name or f"π({relation.name})",
            attributes,
            rows,
            relation.variable_origin,
        )
    merged: Dict[Row, List[Formula]] = {}
    order: List[Row] = []
    for values, lineage in relation.rows:
        key = tuple(values[i] for i in indices)
        if key not in merged:
            merged[key] = []
            order.append(key)
        merged[key].append(lineage)
    rows = [(key, disj(*merged[key])) for key in order]
    return Relation(
        name or f"π({relation.name})",
        attributes,
        rows,
        relation.variable_origin,
    )


def _merged_origin(left: Relation, right: Relation) -> Dict[Hashable, str]:
    origin = dict(left.variable_origin)
    origin.update(right.variable_origin)
    return origin


def natural_join(
    left: Relation, right: Relation, name: Optional[str] = None
) -> Relation:
    """⋈ — equi-join on all shared attribute names (hash-based)."""
    shared = [
        attribute
        for attribute in left.attributes
        if attribute in right.attributes
    ]
    left_key = [left.attribute_index(a) for a in shared]
    right_key = [right.attribute_index(a) for a in shared]
    right_extra = [
        index
        for index, attribute in enumerate(right.attributes)
        if attribute not in shared
    ]
    out_attributes = list(left.attributes) + [
        right.attributes[i] for i in right_extra
    ]

    index: Dict[Tuple[Hashable, ...], List[Tuple[Row, Formula]]] = {}
    for values, lineage in right.rows:
        key = tuple(values[i] for i in right_key)
        index.setdefault(key, []).append((values, lineage))

    rows = []
    for values, lineage in left.rows:
        key = tuple(values[i] for i in left_key)
        for right_values, right_lineage in index.get(key, ()):
            combined = values + tuple(right_values[i] for i in right_extra)
            rows.append((combined, conj(lineage, right_lineage)))
    return Relation(
        name or f"({left.name} ⋈ {right.name})",
        out_attributes,
        rows,
        _merged_origin(left, right),
    )


def theta_join(
    left: Relation,
    right: Relation,
    condition: Callable[[Dict[str, Hashable], Dict[str, Hashable]], bool],
    name: Optional[str] = None,
) -> Relation:
    """⋈_θ — nested-loop join under an arbitrary condition.

    Attribute names must be disjoint (rename first if needed); this is the
    operator the IQ inequality-join queries use.
    """
    overlap = set(left.attributes) & set(right.attributes)
    if overlap:
        raise ValueError(
            f"theta_join requires disjoint attributes; shared: {overlap}"
        )
    out_attributes = list(left.attributes) + list(right.attributes)
    rows = []
    for left_values, left_lineage in left.rows:
        left_record = dict(zip(left.attributes, left_values))
        for right_values, right_lineage in right.rows:
            right_record = dict(zip(right.attributes, right_values))
            if condition(left_record, right_record):
                rows.append(
                    (
                        left_values + right_values,
                        conj(left_lineage, right_lineage),
                    )
                )
    return Relation(
        name or f"({left.name} ⋈θ {right.name})",
        out_attributes,
        rows,
        _merged_origin(left, right),
    )


def product(
    left: Relation, right: Relation, name: Optional[str] = None
) -> Relation:
    """× — cartesian product (disjoint attribute names required)."""
    return theta_join(
        left,
        right,
        lambda _l, _r: True,
        name=name or f"({left.name} × {right.name})",
    )


def union(
    left: Relation, right: Relation, name: Optional[str] = None
) -> Relation:
    """∪ — set union; identical tuples ``∨``-merge their lineage."""
    if left.attributes != right.attributes:
        raise ValueError(
            "union requires identical attribute lists: "
            f"{left.attributes} vs {right.attributes}"
        )
    merged: Dict[Row, List[Formula]] = {}
    order: List[Row] = []
    for values, lineage in list(left.rows) + list(right.rows):
        if values not in merged:
            merged[values] = []
            order.append(values)
        merged[values].append(lineage)
    rows = [(values, disj(*merged[values])) for values in order]
    return Relation(
        name or f"({left.name} ∪ {right.name})",
        left.attributes,
        rows,
        _merged_origin(left, right),
    )


def rename_attributes(
    relation: Relation,
    mapping: Dict[str, str],
    name: Optional[str] = None,
) -> Relation:
    """ρ — rename attributes according to ``mapping``."""
    attributes = [mapping.get(a, a) for a in relation.attributes]
    if len(set(attributes)) != len(attributes):
        raise ValueError(f"renaming produces duplicate attributes: {attributes}")
    return Relation(
        name or relation.name,
        attributes,
        list(relation.rows),
        relation.variable_origin,
    )


ConfidenceMethod = Callable[[DNF, VariableRegistry], float]


def conf(
    relation: Relation,
    registry: VariableRegistry,
    *,
    method: Optional[ConfidenceMethod] = None,
    epsilon: float = 0.0,
    error_kind: str = "absolute",
) -> List[Tuple[Row, float]]:
    """The ``conf()`` aggregate: per distinct tuple, ``P(lineage)``.

    Duplicate tuples are ``∨``-merged first (confidence is a projection
    with duplicate elimination).  By default all distinct tuples are
    answered as one :meth:`~repro.engine.ConfidenceEngine.compute_many`
    batch at the requested ``epsilon`` (the strategy ladder: read-once
    lineage is exact in linear time, the rest takes the paper's d-tree
    algorithm); pass a custom ``method`` to plug in a baseline.
    """
    rows = project(relation, list(relation.attributes)).rows
    dnfs = [lineage.to_dnf() for _values, lineage in rows]
    if method is not None:
        probabilities = [method(dnf, registry) for dnf in dnfs]
    else:
        engine = ConfidenceEngine(
            registry, epsilon=epsilon, error_kind=error_kind
        )
        probabilities = [
            result.probability for result in engine.compute_many(dnfs)
        ]
    return [
        (values, probability)
        for (values, _lineage), probability in zip(rows, probabilities)
    ]
