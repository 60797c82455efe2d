"""Shared decomposition memo cache.

The incremental algorithm of Section V explores one d-tree path at a time,
but Shannon expansion on overlapping variables reproduces *identical*
residual DNFs in many different subtrees — on the paper's hard TPC-H
queries well over 90% of refinement steps revisit a DNF that was already
decomposed elsewhere.  All of the per-DNF work is pure (given a registry,
a pivot selector and the bounds-heuristic flags):

* subsumption removal,
* ⊗ connected-component partitioning,
* ⊙ product factorization,
* Shannon pivot choice and expansion,
* the Fig. 3 bucket bounds,
* and — once a subtree has been *fully* refined — the exact probability
  of its root DNF.

:class:`DecompositionCache` memoises all of these keyed by the (immutable,
cheaply hashable) DNF.  A cache is bound to one configuration — registry,
selector, heuristic flags — and resets itself when used with another, so
sharing one cache across calls (as :class:`repro.engine.ConfidenceEngine`
does for top-k refinement rounds and repeated queries) is always sound.

The cache is bounded: when the total number of memoised entries exceeds
``max_entries`` it is cleared wholesale, which keeps memory proportional
to the working set without LRU bookkeeping on the hot path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .dnf import DNF

__all__ = ["DecompositionCache"]


class DecompositionCache:
    """Memo store for pure per-DNF decomposition results."""

    __slots__ = (
        "reduced",
        "components",
        "factors",
        "branches",
        "bounds",
        "exact",
        "max_entries",
        "_config",
        "hits",
        "misses",
    )

    def __init__(self, max_entries: int = 200_000) -> None:
        self.max_entries = max_entries
        self._config: Optional[Tuple] = None
        self.hits = 0
        self.misses = 0
        self.reduced: Dict[DNF, DNF] = {}
        self.components: Dict[DNF, List[DNF]] = {}
        self.factors: Dict[DNF, Optional[List[DNF]]] = {}
        self.branches: Dict[DNF, list] = {}
        self.bounds: Dict[DNF, Tuple[float, float]] = {}
        self.exact: Dict[DNF, float] = {}

    def _reset(self) -> None:
        # Clear IN PLACE: callers (the approx main loop) hold direct
        # references to these dicts, which must stay valid across a
        # mid-run trim.
        self.reduced.clear()
        self.components.clear()
        self.factors.clear()
        self.branches.clear()
        self.bounds.clear()
        self.exact.clear()

    def __len__(self) -> int:
        return (
            len(self.reduced)
            + len(self.components)
            + len(self.factors)
            + len(self.branches)
            + len(self.bounds)
            + len(self.exact)
        )

    @staticmethod
    def bind_config(
        registry: object,
        selector: object,
        sort_buckets: bool,
        read_once_buckets: bool,
    ) -> Tuple:
        """The canonical bind tuple for :meth:`bind`.

        Every site that binds a cache — the ε-approximation main loop,
        the circuit compiler, and the engine's slice-merge path — must
        build the tuple through this one function: :meth:`bind`
        compares element-by-element by *identity*, so two sites
        assembling the tuple with a different shape (or different
        selector defaulting) would silently clear the cache on every
        alternation instead of sharing it.
        """
        return (registry, selector, sort_buckets, read_once_buckets)

    def bind(self, config: Tuple) -> None:
        """Attach the cache to one (registry, selector, flags) config.

        Results memoised under a different configuration would be wrong,
        not just stale, so a config change clears the cache.  The config
        objects are compared by identity and kept alive by the cache —
        never by ``id()`` alone, which the allocator may reuse.
        """
        current = self._config
        if (
            current is None
            or len(current) != len(config)
            or any(a is not b for a, b in zip(current, config))
        ):
            if current is not None:
                self._reset()
            self._config = config

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
        not just the numeric ``bounds``/``exact`` ones: pivot selection
        and bucket ordering may consult probabilities, so a stale
        ``branches``/``reduced`` entry could disagree with what a fresh
        decomposition would produce.

        Deletion is in place (callers hold direct references to the
        section dicts).  Returns the number of entries removed.
        """
        touched = frozenset(variable_ids)
        if not touched:
            return 0
        removed = 0
        for section in (
            self.reduced,
            self.components,
            self.factors,
            self.branches,
            self.bounds,
            self.exact,
        ):
            stale = [
                dnf
                for dnf in section
                if not touched.isdisjoint(dnf.variable_ids)
            ]
            for dnf in stale:
                del section[dnf]
            removed += len(stale)
        return removed

    def stats(self) -> Dict[str, int]:
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
