"""Discrete random variables and their probability distributions.

The paper (Section III) defines a finite probability space via a set of
*independent* random variables with finite domains.  A distribution assigns
``P(x = a)`` in ``(0, 1]`` to each atomic event so that for every variable
the assigned probabilities sum to one.

:class:`VariableRegistry` is that probability space.  Everything else in the
library (DNFs, d-trees, Monte-Carlo estimators, the query engine) computes
probabilities against a registry.

Interning
---------
Variable names and atomic events are *interned*: a process-wide table maps
every distinct variable name to a dense integer id, and every distinct
``(variable, value)`` atom to a dense atom id.  The formula layer
(:mod:`repro.core.events`, :mod:`repro.core.dnf`) stores only these ids, so
the hot loops of decomposition — subsumption, union-find partitioning,
Shannon restriction, bucket bounds — run on small integers instead of
hashing arbitrary user objects.  Public constructors keep accepting
arbitrary hashable names; interning happens here, at the registry boundary.
Each registry additionally keeps an array mapping atom ids to
probabilities, giving ``P(x = a)`` by a single list index in the inner
loops.
"""

from __future__ import annotations

import itertools
import math
import threading
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

__all__ = [
    "VariableRegistry",
    "BOOLEAN_DOMAIN",
    "intern_variable",
    "intern_atom",
    "intern_snapshot",
    "intern_version",
    "install_intern_snapshot",
    "lookup_variable",
    "lookup_atom",
    "variable_name",
    "variable_repr",
    "atom_entry",
]

#: Domain of a Boolean random variable; ``x`` abbreviates ``x = True`` and
#: ``¬x`` abbreviates ``x = False`` (paper, Section III).
BOOLEAN_DOMAIN: Tuple[bool, bool] = (True, False)

_SUM_TOLERANCE = 1e-9

#: A registration landing further than this past the end of a registry's
#: probability window goes to the overflow dict instead of extending the
#: array — bounding per-registry memory by its own contiguous id span.
_WINDOW_GROWTH_LIMIT = 4096


# ----------------------------------------------------------------------
# Interning
# ----------------------------------------------------------------------
# The tables are process-wide and grow monotonically: an id, once
# assigned, is never reclaimed (formulas hold bare ints, so reclamation
# would require tracing them).  They store one entry per distinct
# variable name / atomic event ever constructed — orders of magnitude
# smaller than the lineage built over them, but a deliberate trade-off a
# future compaction pass could revisit.

#: name -> dense variable id
_VARIABLE_IDS: Dict[Hashable, int] = {}
#: variable id -> name
_VARIABLE_NAMES: List[Hashable] = []
#: (variable id, value) -> dense atom id
_ATOM_IDS: Dict[Tuple[int, Hashable], int] = {}
#: atom id -> (variable id, name, value)
_ATOM_ENTRIES: List[Tuple[int, Hashable, Hashable]] = []
#: Guards id assignment; reads go lock-free (an id published in the
#: lookup dict always has its entry list slot filled first).
_INTERN_LOCK = threading.Lock()


def intern_variable(name: Hashable) -> int:
    """Dense integer id of a variable name (assigned on first sight)."""
    var_id = _VARIABLE_IDS.get(name)
    if var_id is not None:
        return var_id
    with _INTERN_LOCK:
        var_id = _VARIABLE_IDS.get(name)
        if var_id is None:
            var_id = len(_VARIABLE_NAMES)
            _VARIABLE_NAMES.append(name)
            _VARIABLE_IDS[name] = var_id  # publish after the slot exists
        return var_id


def intern_atom(name: Hashable, value: Hashable) -> Tuple[int, int]:
    """``(atom id, variable id)`` of the atomic event ``name = value``."""
    var_id = intern_variable(name)
    key = (var_id, value)
    atom_id = _ATOM_IDS.get(key)
    if atom_id is not None:
        return atom_id, var_id
    with _INTERN_LOCK:
        atom_id = _ATOM_IDS.get(key)
        if atom_id is None:
            atom_id = len(_ATOM_ENTRIES)
            _ATOM_ENTRIES.append((var_id, name, value))
            _ATOM_IDS[key] = atom_id  # publish after the slot exists
    return atom_id, var_id


#: One intern-table snapshot: ``(variable names, atom entries)`` in id
#: order.  Picklable as long as the interned names/values are.
InternSnapshot = Tuple[
    Tuple[Hashable, ...], Tuple[Tuple[int, Hashable, Hashable], ...]
]


def intern_snapshot() -> InternSnapshot:
    """A picklable snapshot of the process-wide intern tables.

    Ship this once per worker process (the parallel execution layer does
    so in its pool initializer) and replay it with
    :func:`install_intern_snapshot`; afterwards the worker assigns the
    exact same dense ids as the snapshotting process, so clauses and DNFs
    can cross the process boundary as bare integer-id tuples.
    """
    with _INTERN_LOCK:
        return tuple(_VARIABLE_NAMES), tuple(_ATOM_ENTRIES)


def intern_version() -> Tuple[int, int]:
    """Monotone version of the intern tables: ``(variables, atoms)``.

    The tables are append-only, so two equal versions imply identical
    table contents.  The parallel execution layer compares a pool's
    snapshot version against the current one to decide whether an
    engine-lifetime worker pool must re-ship its snapshot (new atoms
    interned since pool start) before encoding tasks as bare ids.
    """
    with _INTERN_LOCK:
        return len(_VARIABLE_NAMES), len(_ATOM_ENTRIES)


def install_intern_snapshot(snapshot: InternSnapshot) -> None:
    """Replay a snapshot so this process assigns identical interned ids.

    Idempotent: entries already interned (e.g. in a forked child, which
    inherits the parent's tables) are verified rather than re-added.
    Raises :class:`RuntimeError` if this process has already interned
    conflicting entries — ids are append-only, so a diverged process can
    never be reconciled and must not exchange id-encoded formulas.
    """
    names, entries = snapshot
    for expected_id, name in enumerate(names):
        var_id = intern_variable(name)
        if var_id != expected_id:
            raise RuntimeError(
                f"intern table diverged: variable {name!r} has id "
                f"{var_id}, snapshot expects {expected_id}"
            )
    for expected_id, (var_id, name, value) in enumerate(entries):
        atom_id, got_var_id = intern_atom(name, value)
        if atom_id != expected_id or got_var_id != var_id:
            raise RuntimeError(
                f"intern table diverged: atom ({name!r}, {value!r}) has "
                f"id {atom_id}/var {got_var_id}, snapshot expects "
                f"{expected_id}/var {var_id}"
            )


def lookup_variable(name: Hashable) -> Optional[int]:
    """The id of ``name`` if already interned, else ``None``.

    Read-only probes (``binds``, ``restrict`` on a variable that occurs
    nowhere) use this so they don't grow the process-wide tables.
    """
    return _VARIABLE_IDS.get(name)


def lookup_atom(
    name: Hashable, value: Hashable
) -> Tuple[Optional[int], Optional[int]]:
    """``(atom id, variable id)`` if interned, ``None`` components otherwise."""
    var_id = _VARIABLE_IDS.get(name)
    if var_id is None:
        return None, None
    return _ATOM_IDS.get((var_id, value)), var_id


#: variable id -> cached ``repr(name)``; deterministic tie-break currency.
_VARIABLE_REPRS: Dict[int, str] = {}


def variable_name(var_id: int) -> Hashable:
    """The name a variable id was interned from."""
    return _VARIABLE_NAMES[var_id]


def variable_repr(var_id: int) -> str:
    """Cached ``repr`` of a variable name.

    Tie-breaks in pivot selection and component ordering follow the repr
    order of the original names (as the seed implementation did), but the
    strings are computed once per variable instead of once per comparison.
    """
    cached = _VARIABLE_REPRS.get(var_id)
    if cached is None:
        cached = repr(_VARIABLE_NAMES[var_id])
        _VARIABLE_REPRS[var_id] = cached
    return cached


def atom_entry(atom_id: int) -> Tuple[int, Hashable, Hashable]:
    """``(variable id, variable name, value)`` of an atom id."""
    return _ATOM_ENTRIES[atom_id]


class VariableRegistry:
    """A finite probability space over independent discrete random variables.

    Variables are registered with a finite domain and a probability for each
    domain value.  The registry validates that probabilities are in
    ``(0, 1]`` and sum to one per variable (within a small tolerance, after
    which they are renormalised so downstream arithmetic is exact).

    Example
    -------
    >>> reg = VariableRegistry()
    >>> reg.add_boolean("x", 0.3)
    'x'
    >>> reg.add_variable("u", {1: 0.5, 2: 0.2, 3: 0.3})
    'u'
    >>> reg.probability("u", 2)
    0.2
    """

    def __init__(self) -> None:
        self._distributions: Dict[Hashable, Dict[Hashable, float]] = {}
        # Probability per interned atom id, shared with the formula layer
        # for array-indexed lookup in decomposition inner loops.  The
        # list is offset by ``_atom_base`` (the first registered atom's
        # id); registrations landing far outside the current window —
        # ids reused from much earlier process history, or ids far ahead
        # after heavy unrelated interning — go to the overflow dict so a
        # registry never allocates memory proportional to the
        # process-wide atom count.
        self._atom_probs: List[Optional[float]] = []
        self._atom_base: int = 0
        self._atom_overflow: Dict[int, float] = {}
        # Bumped on every atom-probability write, so caches derived from
        # ``_atom_probs`` (the numpy kernels' dense window) can tell an
        # in-place rewrite by :meth:`set_distribution` from a stale copy.
        self._atom_probs_version: int = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_variable(
        self, name: Hashable, distribution: Mapping[Hashable, float]
    ) -> Hashable:
        """Register ``name`` with the given ``value -> probability`` map.

        Returns the variable name so registration chains read naturally.
        Raises :class:`ValueError` on empty domains, out-of-range
        probabilities, sums far from one, or duplicate registration with a
        *different* distribution (re-registering the identical distribution
        is a no-op, which makes data loaders idempotent).
        """
        if not distribution:
            raise ValueError(f"variable {name!r} needs a non-empty domain")
        for value, prob in distribution.items():
            if not (0.0 < prob <= 1.0):
                raise ValueError(
                    f"P({name!r} = {value!r}) = {prob} is outside (0, 1]"
                )
        total = math.fsum(distribution.values())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(
                f"distribution of {name!r} sums to {total}, expected 1.0"
            )
        normalised = {value: prob / total for value, prob in distribution.items()}
        existing = self._distributions.get(name)
        if existing is not None:
            if existing != normalised:
                raise ValueError(f"variable {name!r} already registered")
            return name
        self._distributions[name] = normalised
        for value, prob in normalised.items():
            atom_id, _var_id = intern_atom(name, value)
            self._store_atom_prob(atom_id, prob)
        return name

    def _store_atom_prob(self, atom_id: int, prob: float) -> None:
        """Write one atom's probability into the array window (or the
        overflow dict when it lands outside the growth limit)."""
        self._atom_probs_version += 1
        probs = self._atom_probs
        if not probs and not self._atom_overflow:
            self._atom_base = atom_id
        index = atom_id - self._atom_base
        if index < 0 or index >= len(probs) + _WINDOW_GROWTH_LIMIT:
            self._atom_overflow[atom_id] = prob
        else:
            if index >= len(probs):
                probs.extend([None] * (index + 1 - len(probs)))
            probs[index] = prob

    def _clear_atom_prob(self, atom_id: int) -> None:
        self._atom_probs_version += 1
        index = atom_id - self._atom_base
        if 0 <= index < len(self._atom_probs):
            self._atom_probs[index] = None
        self._atom_overflow.pop(atom_id, None)

    def add_boolean(self, name: Hashable, probability_true: float) -> Hashable:
        """Register a Boolean variable with ``P(name = True)`` given."""
        if not (0.0 < probability_true < 1.0):
            raise ValueError(
                f"P({name!r}) = {probability_true} must be strictly in (0, 1) "
                "for a Boolean variable (both outcomes need positive mass)"
            )
        return self.add_variable(
            name, {True: probability_true, False: 1.0 - probability_true}
        )

    def add_booleans(
        self, names_and_probabilities: Iterable[Tuple[Hashable, float]]
    ) -> None:
        """Bulk-register Boolean variables from ``(name, P(True))`` pairs."""
        for name, prob in names_and_probabilities:
            self.add_boolean(name, prob)

    # ------------------------------------------------------------------
    # Mutation (DML support)
    # ------------------------------------------------------------------
    def set_distribution(
        self, name: Hashable, distribution: Mapping[Hashable, float]
    ) -> Dict[Hashable, float]:
        """Replace the distribution of an existing variable.

        Validates exactly like :meth:`add_variable` and returns the
        *previous* ``value -> probability`` map so a transaction can
        undo the change.  Atom-probability slots for domain values the
        new distribution drops are cleared (lookups then fall back to
        the authoritative distribution dict, which raises with precise
        diagnostics).
        """
        old = dict(self._distribution_of(name))
        if not distribution:
            raise ValueError(f"variable {name!r} needs a non-empty domain")
        for value, prob in distribution.items():
            if not (0.0 < prob <= 1.0):
                raise ValueError(
                    f"P({name!r} = {value!r}) = {prob} is outside (0, 1]"
                )
        total = math.fsum(distribution.values())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(
                f"distribution of {name!r} sums to {total}, expected 1.0"
            )
        normalised = {
            value: prob / total for value, prob in distribution.items()
        }
        for value in old:
            if value not in normalised:
                atom_id, _var_id = lookup_atom(name, value)
                if atom_id is not None:
                    self._clear_atom_prob(atom_id)
        self._distributions[name] = normalised
        for value, prob in normalised.items():
            atom_id, _var_id = intern_atom(name, value)
            self._store_atom_prob(atom_id, prob)
        return old

    def set_boolean(
        self, name: Hashable, probability_true: float
    ) -> Dict[Hashable, float]:
        """Replace ``P(name = True)``; returns the previous distribution."""
        if not (0.0 < probability_true < 1.0):
            raise ValueError(
                f"P({name!r}) = {probability_true} must be strictly in "
                "(0, 1) for a Boolean variable"
            )
        return self.set_distribution(
            name, {True: probability_true, False: 1.0 - probability_true}
        )

    def remove_variable(self, name: Hashable) -> Dict[Hashable, float]:
        """Unregister ``name``; returns its distribution for undo.

        Only the registry entry is removed — interned ids are process
        lifetime by design.  Formulas still holding the variable will
        raise on evaluation, which is exactly the signal a dangling
        lineage reference should produce.
        """
        old = self._distributions.pop(name, None)
        if old is None:
            raise KeyError(f"unknown random variable {name!r}")
        for value in old:
            atom_id, _var_id = lookup_atom(name, value)
            if atom_id is not None:
                self._clear_atom_prob(atom_id)
        return dict(old)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: Hashable) -> bool:
        return name in self._distributions

    def __len__(self) -> int:
        return len(self._distributions)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._distributions)

    def variables(self) -> Iterator[Hashable]:
        """Iterate over all registered variable names."""
        return iter(self._distributions)

    def domain(self, name: Hashable) -> Tuple[Hashable, ...]:
        """Domain values of ``name`` (insertion order, deterministic)."""
        return tuple(self._distribution_of(name))

    def distribution(self, name: Hashable) -> Dict[Hashable, float]:
        """A copy of the ``value -> probability`` map of ``name``."""
        return dict(self._distribution_of(name))

    def probability(self, name: Hashable, value: Hashable) -> float:
        """``P(name = value)``; raises ``KeyError`` on unknown atoms."""
        dist = self._distribution_of(name)
        try:
            return dist[value]
        except KeyError:
            raise KeyError(
                f"value {value!r} not in domain of variable {name!r}"
            ) from None

    def atom_probability(self, atom_id: int) -> float:
        """``P`` of an interned atom id; raises ``KeyError`` when unknown."""
        probs = self._atom_probs
        index = atom_id - self._atom_base
        if 0 <= index < len(probs):
            prob = probs[index]
            if prob is not None:
                return prob
        prob = self._atom_overflow.get(atom_id)
        if prob is not None:
            return prob
        _var_id, name, value = atom_entry(atom_id)
        # Re-raises with the precise variable/value diagnostics.
        return self.probability(name, value)

    def is_boolean(self, name: Hashable) -> bool:
        """True when ``name`` has the domain ``{True, False}``."""
        return set(self._distribution_of(name)) == {True, False}

    def _distribution_of(self, name: Hashable) -> Dict[Hashable, float]:
        try:
            return self._distributions[name]
        except KeyError:
            raise KeyError(f"unknown random variable {name!r}") from None

    # ------------------------------------------------------------------
    # Worlds
    # ------------------------------------------------------------------
    def world_count(self, names: Sequence[Hashable] | None = None) -> int:
        """Number of valuations over ``names`` (default: all variables)."""
        names = list(self._distributions) if names is None else list(names)
        count = 1
        for name in names:
            count *= len(self._distribution_of(name))
        return count

    def worlds(
        self, names: Sequence[Hashable] | None = None
    ) -> Iterator[Dict[Hashable, Hashable]]:
        """Enumerate valuations of ``names`` as ``var -> value`` dicts.

        Exponential in the number of variables; intended for tests and for
        the brute-force semantics in :mod:`repro.core.semantics`.
        """
        names = list(self._distributions) if names is None else list(names)
        domains = [self.domain(name) for name in names]
        for combo in itertools.product(*domains):
            yield dict(zip(names, combo))

    def world_probability(self, world: Mapping[Hashable, Hashable]) -> float:
        """Probability of a full valuation (product of atomic events)."""
        result = 1.0
        for name, value in world.items():
            result *= self.probability(name, value)
        return result

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_boolean_probabilities(
        cls, probabilities: Mapping[Hashable, float]
    ) -> "VariableRegistry":
        """Build a registry of Boolean variables from a ``name -> P`` map."""
        registry = cls()
        for name, prob in probabilities.items():
            registry.add_boolean(name, prob)
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VariableRegistry({len(self)} variables)"
