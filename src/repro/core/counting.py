"""Model counting and conditioning on top of d-trees.

The paper frames exact probability computation as "a generalization of
counting the number of satisfying assignments" and notes the study "may
be of interest to model counting (#SAT) and probabilistic inference"
(Section I).  This module makes those connections concrete:

* :func:`model_count` — #Φ over a set of Boolean variables, computed as
  ``P(Φ) · 2^n`` under the uniform distribution; with ``epsilon`` an
  approximate count with the same multiplicative guarantee.
* :func:`weighted_model_count` — WMC with per-atom weights: exactly
  ``P(Φ)`` under the induced (normalised) distribution, scaled by the
  total weight, which is how WMC solvers reduce to probability
  computation.
* :func:`conditional_probability` — ``P(φ | ψ) = P(φ ∧ ψ) / P(ψ)``,
  the conditioning operation of probabilistic databases (cf. the
  ws-trees of Koch & Olteanu, "Conditioning Probabilistic Databases").
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from .approx import RELATIVE, approximate_probability
from .dnf import DNF
from .exact import exact_probability
from .variables import VariableRegistry

__all__ = [
    "model_count",
    "weighted_model_count",
    "conditional_probability",
]


def _uniform_registry(variables: Sequence[Hashable]) -> VariableRegistry:
    return VariableRegistry.from_boolean_probabilities(
        {variable: 0.5 for variable in variables}
    )


def _probability(
    dnf: DNF, registry: VariableRegistry, epsilon: float
) -> float:
    """``P(Φ)``: exact when ``epsilon`` is 0, else the estimate of a
    relative ε-approximation; constant DNFs skip the engine."""
    if dnf.is_false():
        return 0.0
    if dnf.is_true():
        return 1.0
    if epsilon == 0.0:
        return exact_probability(dnf, registry)
    return approximate_probability(
        dnf, registry, epsilon=epsilon, error_kind=RELATIVE
    ).estimate


def model_count(
    dnf: DNF,
    variables: Optional[Sequence[Hashable]] = None,
    *,
    epsilon: float = 0.0,
) -> float:
    """Number of satisfying assignments of a Boolean DNF.

    ``variables`` fixes the assignment universe (default: exactly the
    variables occurring in ``Φ``).  With ``epsilon > 0`` the result is a
    relative ε-approximation of the count — the guarantee transfers from
    the probability because the scale factor ``2^n`` is exact.

    Atoms must be Boolean (``x = True`` / ``x = False``).
    """
    if variables is None:
        variables = sorted(dnf.variables, key=repr)
    else:
        variables = list(variables)
        missing = dnf.variables - set(variables)
        if missing:
            raise ValueError(
                f"DNF mentions variables outside the universe: {missing}"
            )
    probability = _probability(dnf, _uniform_registry(variables), epsilon)
    return probability * (2.0 ** len(variables))


def weighted_model_count(
    dnf: DNF,
    weights: Mapping[Tuple[Hashable, Hashable], float],
    *,
    epsilon: float = 0.0,
) -> float:
    """Weighted model count ``Σ_ω⊨Φ Π_atoms w(atom)``.

    ``weights`` maps each atom ``(variable, value)`` to a non-negative
    weight; every variable of ``Φ`` needs weights for its full domain
    (both polarities for Boolean variables).  The WMC equals the formula
    probability under the normalised per-variable distribution times the
    product of per-variable weight totals — the classical WMC-to-
    probability reduction.
    """
    by_variable: Dict[Hashable, Dict[Hashable, float]] = {}
    for (variable, value), weight in weights.items():
        if weight < 0:
            raise ValueError(f"negative weight for {(variable, value)}")
        by_variable.setdefault(variable, {})[value] = weight

    missing = dnf.variables - set(by_variable)
    if missing:
        raise ValueError(f"missing weights for variables: {missing}")

    registry = VariableRegistry()
    scale = 1.0
    for variable, table in by_variable.items():
        total = sum(table.values())
        if total <= 0:
            return 0.0
        scale *= total
        registry.add_variable(
            variable,
            {value: weight / total for value, weight in table.items()
             if weight > 0},
        )

    # Clauses using zero-weight atoms contribute nothing: drop them by
    # re-normalising the DNF against the registry's (positive) domains.
    clauses = []
    for clause in dnf:
        if all(
            value in dict(registry.distribution(variable))
            for variable, value in clause.items()
        ):
            clauses.append(clause)
    return _probability(DNF(clauses), registry, epsilon) * scale


def conditional_probability(
    phi: DNF,
    given: DNF,
    registry: VariableRegistry,
    *,
    epsilon: float = 0.0,
) -> float:
    """``P(φ | ψ)`` for DNFs over one probability space.

    Computed as ``P(φ ∧ ψ) / P(ψ)`` with the d-tree algorithm; raises
    :class:`ZeroDivisionError` when the condition is (almost surely)
    false.  With ``epsilon > 0``, numerator and denominator are relative
    ε-approximations, so the quotient carries a relative error of at most
    ``2ε/(1−ε)`` — fine for exploratory use; use ``epsilon=0`` for exact
    conditioning.
    """
    conjunction = phi.conjoin(given)
    denominator = _probability(given, registry, epsilon)
    if denominator == 0.0:
        raise ZeroDivisionError("conditioning on an almost-surely-false event")
    return _probability(conjunction, registry, epsilon) / denominator
