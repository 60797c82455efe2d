"""JSON wire codec for the serving tier.

Lineage, overrides, and scenario payloads cross the ASGI boundary as
plain JSON.  Variable names and domain values may be any hashable the
registry knows; JSON can only carry scalars and arrays, so the codec
maps **tuples to JSON arrays** (and back — a decoded array becomes a
tuple, which is how composite tuple-variables like ``("R", 3)`` are
spelled in this library).  Strings, numbers, booleans and null pass
through unchanged.  Dicts are rejected: they are not hashable and
cannot name a variable.

Wire shapes
-----------
* lineage: ``[[[variable, value], ...], ...]`` — a list of clauses,
  each clause a list of ``[variable, value]`` atom pairs.
* overrides: ``[[variable, spec], ...]`` where ``spec`` is a number
  (Boolean shorthand for ``P(variable = True)``) or a distribution as
  ``[[value, probability], ...]`` pairs.
* scenarios: a list of overrides payloads (``null`` = base
  probabilities).

Pair lists (not JSON objects) are used wherever keys may be non-string
values — JSON object keys must be strings, variable names need not be.

The decoders read a Python tuple wherever they read an array, as
:func:`json.dumps` writes one.  Payloads that encode to the same JSON
text therefore decode alike, which lets the serving engine memoise
decoded lineages by their JSON text.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence

from ..core.dnf import DNF
from ..core.events import Clause
from .errors import ServingError

__all__ = [
    "dnf_from_json",
    "dnf_to_json",
    "gradients_to_json",
    "overrides_from_json",
    "overrides_to_json",
    "scenarios_from_json",
    "value_from_json",
    "value_to_json",
]

#: What the decoders accept as a JSON array.
_ARRAY = (list, tuple)


def value_to_json(value: Hashable) -> Any:
    """A variable name / domain value as a JSON-native value."""
    if isinstance(value, tuple):
        return [value_to_json(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ServingError(
        "bad-request",
        f"value {value!r} of type {type(value).__name__} has no JSON "
        "wire form (tuples, strings, numbers, booleans and null only)",
    )


def value_from_json(data: Any) -> Hashable:
    """Inverse of :func:`value_to_json` (arrays become tuples)."""
    if isinstance(data, _ARRAY):
        return tuple(value_from_json(item) for item in data)
    if isinstance(data, (str, int, float, bool)) or data is None:
        return data
    raise ServingError(
        "bad-request",
        f"JSON value {data!r} cannot name a variable or domain value",
    )


def _pair(data: Any, what: str) -> List[Any]:
    if not isinstance(data, _ARRAY) or len(data) != 2:
        raise ServingError(
            "bad-request", f"{what} must be a [a, b] pair, got {data!r}"
        )
    return data


# ----------------------------------------------------------------------
# Lineage
# ----------------------------------------------------------------------
def dnf_to_json(dnf: DNF) -> List[List[List[Any]]]:
    """A lineage DNF as the wire clause list (deterministic order)."""
    clauses = []
    for clause in dnf.sorted_clauses():
        clauses.append(
            [
                [value_to_json(variable), value_to_json(value)]
                for variable, value in clause.items()
            ]
        )
    return clauses


def dnf_from_json(data: Any) -> DNF:
    """Parse the wire clause list back into an interned :class:`DNF`."""
    if not isinstance(data, _ARRAY):
        raise ServingError(
            "bad-request",
            f"lineage must be a list of clauses, got {type(data).__name__}",
        )
    clauses = []
    for clause_data in data:
        if not isinstance(clause_data, _ARRAY):
            raise ServingError(
                "bad-request",
                "each lineage clause must be a list of [variable, value] "
                f"pairs, got {clause_data!r}",
            )
        bindings: Dict[Hashable, Hashable] = {}
        for pair in clause_data:
            variable_data, value_data = _pair(pair, "lineage atom")
            bindings[value_from_json(variable_data)] = value_from_json(
                value_data
            )
        try:
            clauses.append(Clause(bindings))
        except Exception as exc:
            raise ServingError(
                "bad-request", f"inconsistent lineage clause: {exc}"
            ) from exc
    return DNF(clauses)


# ----------------------------------------------------------------------
# Overrides and scenarios
# ----------------------------------------------------------------------
def overrides_to_json(
    overrides: Optional[Dict[Hashable, Any]]
) -> Optional[List[List[Any]]]:
    """Probability overrides as wire pairs (None passes through)."""
    if overrides is None:
        return None
    out: List[List[Any]] = []
    for variable, spec in overrides.items():
        if isinstance(spec, dict):
            encoded: Any = [
                [value_to_json(value), float(prob)]
                for value, prob in spec.items()
            ]
        else:
            encoded = float(spec)
        out.append([value_to_json(variable), encoded])
    return out


def overrides_from_json(data: Any) -> Optional[Dict[Hashable, Any]]:
    """Parse wire overrides into the :meth:`Circuit.evaluate` shape."""
    if data is None:
        return None
    if not isinstance(data, _ARRAY):
        raise ServingError(
            "bad-request",
            "overrides must be a list of [variable, spec] pairs, got "
            f"{type(data).__name__}",
        )
    out: Dict[Hashable, Any] = {}
    for pair in data:
        variable_data, spec = _pair(pair, "override")
        variable = value_from_json(variable_data)
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            out[variable] = float(spec)
        elif isinstance(spec, _ARRAY):
            distribution: Dict[Hashable, float] = {}
            for entry in spec:
                value_data, prob = _pair(entry, "distribution entry")
                if not isinstance(prob, (int, float)) or isinstance(
                    prob, bool
                ):
                    raise ServingError(
                        "bad-request",
                        f"distribution probability {prob!r} is not a "
                        "number",
                    )
                distribution[value_from_json(value_data)] = float(prob)
            out[variable] = distribution
        else:
            raise ServingError(
                "bad-request",
                f"override spec {spec!r} must be a probability or a "
                "[[value, probability], ...] distribution",
            )
    return out


def scenarios_from_json(data: Any) -> List[Optional[Dict[Hashable, Any]]]:
    """Parse a wire scenario list (each entry overrides-or-null)."""
    if not isinstance(data, _ARRAY):
        raise ServingError(
            "bad-request",
            "scenarios must be a list of overrides payloads, got "
            f"{type(data).__name__}",
        )
    return [overrides_from_json(entry) for entry in data]


def gradients_to_json(
    gradients: Dict[Hashable, float]
) -> List[List[Any]]:
    """Per-variable gradients as wire pairs (deterministic order)."""
    return [
        [value_to_json(variable), gradient]
        for variable, gradient in sorted(
            gradients.items(), key=lambda item: repr(item[0])
        )
    ]


def answers_from_json(data: Any, count: int) -> List[Hashable]:
    """Optional per-lineage answer labels (defaults to indices)."""
    if data is None:
        return list(range(count))
    if not isinstance(data, _ARRAY) or len(data) != count:
        raise ServingError(
            "bad-request",
            f"answers must be a list parallel to lineages ({count} "
            "entries)",
        )
    return [value_from_json(entry) for entry in data]
