"""Lower and upper probability bounds for DNFs (paper, Fig. 3).

The ``Independent`` heuristic partitions a DNF into *buckets* of pairwise
independent clauses.  Each bucket's probability is exact (independent-or of
its clauses); the maximum bucket probability is a lower bound for ``P(Φ)``
and the clamped sum of bucket probabilities an upper bound (Prop. 5.1).

Following the paper's empirical refinement, clauses are first sorted in
descending order of marginal probability, so the first bucket collects the
most probable clause and the subsequent independent ones — this tightens
the lower bound considerably in practice (Example 5.2).

Remark 5.3's extension is also implemented (opt-in): buckets may admit
*positively correlated* clauses as long as the bucket still factors into
one-occurrence form, whose probability remains exactly computable in
linear time.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from .dnf import DNF
from .events import Clause
from .readonce import try_read_once
from .variables import VariableRegistry

__all__ = ["independent_bounds", "BucketPartition", "bucket_partition"]

Bounds = Tuple[float, float]

#: Below this many clauses the numpy batch setup costs more than the
#: scalar loop it replaces.
_VECTORIZE_MIN_CLAUSES = 8


def _clause_probabilities(
    clauses: Sequence[Clause], registry: VariableRegistry
) -> List[float]:
    """Marginal probability per clause, batched when it pays off.

    The d-tree leaf-bounds hot path: every :func:`bucket_partition`
    call starts by computing all clause marginals.  With numpy
    importable the products run over the registry's dense probability
    window as one array pass per clause arity — bit-identical to
    :meth:`Clause.probability`, which multiplies the same atom
    probabilities in the same order.
    """
    if len(clauses) >= _VECTORIZE_MIN_CLAUSES:
        # Imported here: the circuits package's compiler imports this
        # module, so a module-level import would cycle.
        from ..circuits.kernels import clause_probability_batch

        batched = clause_probability_batch(clauses, registry)
        if batched is not None:
            return batched
    return [clause.probability(registry) for clause in clauses]


class BucketPartition:
    """The outcome of the Fig. 3 partitioning: buckets plus their exact
    probabilities, ready to be turned into bounds."""

    __slots__ = ("buckets", "probabilities")

    def __init__(
        self, buckets: List[List[Clause]], probabilities: List[float]
    ) -> None:
        self.buckets = buckets
        self.probabilities = probabilities

    def bounds(self) -> Bounds:
        """``[max bucket prob, min(1, Σ bucket probs)]`` (Prop. 5.1)."""
        if not self.probabilities:
            return 0.0, 0.0
        lower = max(self.probabilities)
        upper = min(1.0, sum(self.probabilities))
        return lower, upper


def bucket_partition(
    dnf: DNF,
    registry: VariableRegistry,
    *,
    sort_by_probability: bool = True,
    allow_read_once_buckets: bool = False,
) -> BucketPartition:
    """Greedy first-fit partitioning of clauses into independent buckets.

    ``sort_by_probability`` enables the paper's refinement of processing
    clauses in descending order of marginal probability.

    ``allow_read_once_buckets`` enables the Remark 5.3 extension: a clause
    that shares variables with a bucket may still join it when the enlarged
    bucket factors into one-occurrence form; the bucket probability is then
    evaluated on the factored form.

    Clause marginals are numpy-batched when numpy is importable and the
    clause set is large enough; the partition — and therefore the
    bounds — is bit-identical either way.
    """
    clauses = dnf.sorted_clauses()
    probabilities = dict(zip(clauses, _clause_probabilities(clauses, registry)))
    if sort_by_probability:
        clauses.sort(
            key=lambda clause: (-probabilities[clause], clause.atom_ids)
        )

    bucket_clauses: List[List[Clause]] = []
    bucket_variables: List[Set[int]] = []
    # For non-read-once buckets the probability is maintained incrementally
    # with the independent-or formula; read-once buckets are re-evaluated on
    # their factored form whenever a correlated clause joins.
    bucket_probabilities: List[float] = []

    for clause in clauses:
        clause_vars = clause.variable_ids
        clause_prob = probabilities[clause]
        placed = False
        for index, used_vars in enumerate(bucket_variables):
            if clause_vars.isdisjoint(used_vars):
                bucket_clauses[index].append(clause)
                used_vars.update(clause_vars)
                bucket_probabilities[index] = 1.0 - (
                    1.0 - bucket_probabilities[index]
                ) * (1.0 - clause_prob)
                placed = True
                break
            if allow_read_once_buckets:
                candidate = DNF(bucket_clauses[index] + [clause])
                factored = try_read_once(candidate)
                if factored is not None:
                    bucket_clauses[index].append(clause)
                    used_vars.update(clause_vars)
                    bucket_probabilities[index] = factored.probability(
                        registry
                    )
                    placed = True
                    break
        if not placed:
            bucket_clauses.append([clause])
            bucket_variables.append(set(clause_vars))
            bucket_probabilities.append(clause_prob)

    return BucketPartition(bucket_clauses, bucket_probabilities)


def independent_bounds(
    dnf: DNF,
    registry: VariableRegistry,
    *,
    sort_by_probability: bool = True,
    allow_read_once_buckets: bool = False,
) -> Bounds:
    """``Independent(Φ)`` of Fig. 3: quick lower/upper bounds for ``P(Φ)``.

    Guarantees ``L ≤ P(Φ) ≤ U`` (Prop. 5.1).  Quadratic in the number of
    clauses in the worst case; single-bucket outcomes (all clauses pairwise
    independent) yield *exact* point bounds, which is what makes leaves of
    mostly-``⊗`` d-trees cheap.
    """
    if dnf.is_false():
        return 0.0, 0.0
    if dnf.is_true():
        return 1.0, 1.0
    if dnf.is_single_clause():
        prob = dnf.sole_clause().probability(registry)
        return prob, prob
    partition = bucket_partition(
        dnf,
        registry,
        sort_by_probability=sort_by_probability,
        allow_read_once_buckets=allow_read_once_buckets,
    )
    return partition.bounds()
