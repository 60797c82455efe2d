"""The memoised decomposition step, shared by every cached d-tree producer.

The incremental algorithm of Section V explores one d-tree path at a time,
but Shannon expansion on overlapping variables reproduces *identical*
residual DNFs in many different subtrees — on the paper's hard TPC-H
queries well over 90% of refinement steps revisit a DNF that was already
decomposed elsewhere.  All of the per-DNF work is pure (given a registry,
a pivot selector and the bounds-heuristic flags):

* subsumption removal (:meth:`DecompositionCache.reduce`),
* one Fig. 1 step — ⊗ connected-component partitioning, else ⊙ product
  factorization, else Shannon pivot choice and expansion
  (:meth:`DecompositionCache.decompose`),
* the Fig. 3 bucket bounds (:meth:`DecompositionCache.leaf_bounds`),
* and — once a subtree has been *fully* refined — the exact probability
  of its root DNF (:meth:`DecompositionCache.lookup_exact` /
  :meth:`DecompositionCache.store_exact`).

:class:`DecompositionCache` memoises all of these keyed by the (immutable,
cheaply hashable) DNF, and it is the only code that knows the memo's
layout: the ε-approximation (:mod:`repro.core.approx`) and the circuit
compiler (:mod:`repro.circuits.compiler`) take the step through these
methods, and worker cache slices (:mod:`repro.circuits.serialize`) are cut
by :meth:`DecompositionCache.cone` and merged by
:meth:`DecompositionCache.merge`.  The uncached d-tree compiler
(:mod:`repro.core.compiler`) stays independent of it: it is the oracle
the circuits are checked against.

A cache is bound to one configuration — registry, selector, heuristic
flags — and resets itself when used with another, so sharing one cache
across calls (as :class:`repro.engine.ConfidenceEngine` does for top-k
refinement rounds and repeated queries) is always sound.

The cache is bounded: when the total number of memoised entries exceeds
``max_entries`` it is cleared wholesale, which keeps memory proportional
to the working set without LRU bookkeeping on the hot path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .bounds import independent_bounds
from .decompositions import (
    ShannonBranch,
    independent_and_factorization,
    independent_or_partition,
    shannon_expansion,
)
from .dnf import DNF
from .orders import VariableSelector, max_frequency_choice

__all__ = [
    "DecompositionCache",
    "INDEPENDENT_OR",
    "INDEPENDENT_AND",
    "EXCLUSIVE_OR",
]

#: The node kinds :meth:`DecompositionCache.decompose` returns (Fig. 1).
INDEPENDENT_OR = "independent-or"
INDEPENDENT_AND = "independent-and"
EXCLUSIVE_OR = "exclusive-or"

#: The six memo sections, in the order :meth:`DecompositionCache.cone`
#: returns and :meth:`DecompositionCache.merge` accepts them: reduced
#: DNFs, ⊗ components, ⊙ factors (``None``: no factorization), Shannon
#: branches, Fig. 3 bounds and exact probabilities.
Sections = Tuple[
    Dict[DNF, DNF],
    Dict[DNF, List[DNF]],
    Dict[DNF, Optional[List[DNF]]],
    Dict[DNF, List[ShannonBranch]],
    Dict[DNF, Tuple[float, float]],
    Dict[DNF, float],
]


class DecompositionCache:
    """Memo store for pure per-DNF decomposition results."""

    __slots__ = (
        "_reduced",
        "_components",
        "_factors",
        "_branches",
        "_bounds",
        "_exact",
        "max_entries",
        "_config",
        "hits",
        "misses",
    )

    def __init__(self, max_entries: int = 200_000) -> None:
        self.max_entries = max_entries
        self._config: Tuple = ()
        self.hits = 0
        self.misses = 0
        self._reduced: Dict[DNF, DNF] = {}
        self._components: Dict[DNF, List[DNF]] = {}
        self._factors: Dict[DNF, Optional[List[DNF]]] = {}
        self._branches: Dict[DNF, List[ShannonBranch]] = {}
        self._bounds: Dict[DNF, Tuple[float, float]] = {}
        self._exact: Dict[DNF, float] = {}

    def _sections(self) -> Tuple[Dict[DNF, Any], ...]:
        return (
            self._reduced,
            self._components,
            self._factors,
            self._branches,
            self._bounds,
            self._exact,
        )

    def _reset(self) -> None:
        for section in self._sections():
            section.clear()

    def __len__(self) -> int:
        return sum(map(len, self._sections()))

    def bind(
        self,
        registry: object,
        selector: Optional[VariableSelector],
        sort_buckets: bool,
        read_once_buckets: bool,
    ) -> None:
        """Attach the cache to one (registry, selector, flags) config.

        ``selector`` defaults to
        :func:`~repro.core.orders.max_frequency_choice`.  Results
        memoised under a different configuration would be wrong, not
        just stale, so a config change clears the cache.  The config
        objects are compared by identity and kept alive by the cache —
        never by ``id()`` alone, which the allocator may reuse.
        """
        config = (
            registry,
            selector or max_frequency_choice,
            sort_buckets,
            read_once_buckets,
        )
        current = self._config
        if not current or any(a is not b for a, b in zip(current, config)):
            if current:
                self._reset()
            self._config = config

    # ------------------------------------------------------------------
    # The memoised step
    # ------------------------------------------------------------------
    def reduce(self, dnf: DNF) -> DNF:
        """``dnf`` with subsumed clauses removed."""
        reduced = self._reduced.get(dnf)
        if reduced is None:
            reduced = dnf.remove_subsumed()
            self._reduced[dnf] = reduced
        return reduced

    def decompose(self, dnf: DNF) -> Tuple[str, list]:
        """One Fig. 1 step on a reduced DNF of two or more clauses.

        Returns ``(INDEPENDENT_OR, components)`` when ⊗ partitioning
        splits ``dnf``, else ``(INDEPENDENT_AND, factors)`` when ⊙
        factorization does, else ``(EXCLUSIVE_OR, branches)``: the
        Shannon expansion on the bound selector's pivot.  Each of the
        three lookups counts a hit when memoised and a miss when it
        runs the search fresh.
        """
        components = self._components.get(dnf)
        if components is None:
            self.misses += 1
            components = independent_or_partition(dnf)
            self._components[dnf] = components
        else:
            self.hits += 1
        if len(components) > 1:
            return INDEPENDENT_OR, components
        if dnf in self._factors:
            self.hits += 1
            factors = self._factors[dnf]
        else:
            self.misses += 1
            factors = independent_and_factorization(dnf)
            self._factors[dnf] = factors
        if factors is not None:
            return INDEPENDENT_AND, factors
        branches = self._branches.get(dnf)
        if branches is None:
            self.misses += 1
            registry, selector = self._config[0], self._config[1]
            branches = shannon_expansion(dnf, selector(dnf), registry)
            self._branches[dnf] = branches
        else:
            self.hits += 1
        return EXCLUSIVE_OR, branches

    def leaf_bounds(self, dnf: DNF) -> Tuple[float, float]:
        """The Fig. 3 bounds of ``dnf`` under the bound flags."""
        bounds = self._bounds.get(dnf)
        if bounds is None:
            registry, _selector, sort_buckets, read_once_buckets = (
                self._config
            )
            bounds = independent_bounds(
                dnf,
                registry,
                sort_by_probability=sort_buckets,
                allow_read_once_buckets=read_once_buckets,
            )
            self._bounds[dnf] = bounds
        return bounds

    def lookup_exact(self, dnf: DNF) -> Optional[float]:
        """The exact probability of a fully refined ``dnf``, if known.

        A known value is an exact-subtree fold and counts a hit.
        """
        value = self._exact.get(dnf)
        if value is not None:
            self.hits += 1
        return value

    def store_exact(self, dnf: DNF, value: float) -> None:
        """Record the exact probability of a fully refined ``dnf``."""
        self._exact[dnf] = value

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def trim(self, max_entries: Optional[int] = None) -> None:
        """Clear everything once ``max_entries`` (default: the cap) is
        exceeded."""
        if len(self) > (
            self.max_entries if max_entries is None else max_entries
        ):
            self._reset()

    def evict_intersecting(self, variable_ids) -> int:
        """Drop every memo entry whose DNF mentions a touched variable.

        The surgical half of incremental recompilation (the other half
        is :meth:`repro.circuits.cache.CircuitCache.evict_intersecting`):
        a mutation hands in the interned variable ids it touched, and
        only cones whose variable sets intersect them are evicted.
        Decomposition children always use a *subset* of their parent's
        variables, so a disjoint parent cone — and therefore its whole
        subtree — stays warm and sound.  All six sections are evicted,
        not just the numeric bounds and exact ones: pivot selection and
        bucket ordering may consult probabilities, so a stale Shannon or
        reduction entry could disagree with what a fresh decomposition
        would produce.  Returns the number of entries removed.
        """
        touched = frozenset(variable_ids)
        if not touched:
            return 0
        removed = 0
        for section in self._sections():
            stale = [
                dnf
                for dnf in section
                if not touched.isdisjoint(dnf.variable_ids)
            ]
            for dnf in stale:
                del section[dnf]
            removed += len(stale)
        return removed

    def cone(self, roots: Iterable[DNF]) -> Sections:
        """The memo entries a decomposition of the ``roots`` walks.

        The same walk as :meth:`reduce` then :meth:`decompose`, read-only:
        roots with overlapping cones (the whole point of the shared
        cache) contribute their shared entries **once**, and entries
        absent from the cache (evicted, or past a residual cut) are
        simply not in the result — a partial cone still warms
        everything it covers when another cache merges it.
        """
        cone: Sections = ({}, {}, {}, {}, {}, {})
        reduced, components, factors, branches, bounds, exact = cone
        seen: set = set()
        stack: List[DNF] = list(roots)
        while stack:
            dnf = stack.pop()
            current = self._reduced.get(dnf)
            if current is not None:
                reduced[dnf] = current
            else:
                current = dnf
            if current in seen:
                continue
            seen.add(current)
            if current in self._bounds:
                bounds[current] = self._bounds[current]
            if current in self._exact:
                exact[current] = self._exact[current]
            if (
                current.is_false()
                or current.is_true()
                or current.is_single_clause()
            ):
                continue
            current_components = self._components.get(current)
            if current_components is not None:
                components[current] = current_components
                if len(current_components) > 1:
                    stack.extend(current_components)
                    continue
            if current in self._factors:
                current_factors = self._factors[current]
                factors[current] = current_factors
                if current_factors is not None:
                    stack.extend(current_factors)
                    continue
            current_branches = self._branches.get(current)
            if current_branches is not None:
                branches[current] = current_branches
                stack.extend(
                    branch.cofactor for branch in current_branches
                )
        return cone

    def merge(self, sections: Iterable[Mapping[DNF, Any]]) -> int:
        """Add a :meth:`cone` (from this or another process's cache).

        The caller is responsible for the cache being bound to a
        configuration the entries are valid under (same registry
        values, same pivot-selection semantics, same bounds-heuristic
        flags).  Returns the number of entries merged.
        """
        merged = 0
        for section, entries in zip(self._sections(), sections):
            section.update(entries)
            merged += len(entries)
        self.trim()
        return merged

    def stats(self) -> Dict[str, int]:
        """``hits``, ``misses`` and ``entries`` of this cache.

        Both counters are kept by the step methods alone, so every
        caller counts alike: a *hit* is a ⊗, ⊙ or Shannon lookup in
        :meth:`decompose` answered from the memo, or an exact-subtree
        fold from :meth:`lookup_exact`; a *miss* is a decomposition
        search :meth:`decompose` runs fresh.  Subsumption removal and
        Fig. 3 bounds are memoised but not counted.  A compile's
        :attr:`~repro.circuits.CircuitCompilationStats.cold_steps` is
        its miss delta.
        """
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self)}

    @staticmethod
    def merge_stats(
        stats: Iterable[Mapping[str, int]]
    ) -> Dict[str, int]:
        """Aggregate per-cache :meth:`stats` dicts (one per shard/worker).

        The sharded execution layer runs one cache per worker; this is
        the fleet-wide view it reports — counters summed, plus how many
        caches contributed.
        """
        merged = {"hits": 0, "misses": 0, "entries": 0, "caches": 0}
        for entry in stats:
            merged["hits"] += entry.get("hits", 0)
            merged["misses"] += entry.get("misses", 0)
            merged["entries"] += entry.get("entries", 0)
            merged["caches"] += 1
        return merged
