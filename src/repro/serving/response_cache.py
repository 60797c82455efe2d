"""Response cache for repeated point queries against immutable snapshots.

The serving tier's circuit answers (strategies ``store``, ``overlay``,
``engine-compile`` and ``mixed``) are pure functions of ``(store
snapshot version, circuit, canonicalized request arguments)`` — a store
snapshot never mutates, and circuit evaluation is deterministic; those
are the answers the engine caches.  Direct ``engine`` answers and
``refine`` requests never reach the cache.  Repeated point
queries (the dominant fleet traffic shape: many clients asking the same
question of the same store) can therefore be answered from a cache
without touching a kernel, **bit-identically** by construction: the
cached object *is* the response computed the first time.

Keys embed the snapshot version, so a store-version bump (hot reload,
live-cache mutation) makes every stale entry unreachable immediately;
:meth:`ResponseCache.purge_store` additionally drops them eagerly when
the :class:`~repro.serving.ServingEngine` observes the bump, so a
reloaded store never pins dead responses in the LRU.

Overrides canonicalization: ``{"a": 0.5, "b": 0.2}`` and
``{"b": 0.2, "a": 0.5}`` are the same scenario, so override dicts fold
into an order-independent hashable form (sorted pair tuples, floats
normalized) before keying.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

__all__ = ["ResponseCache", "canonical_overrides"]


def canonical_overrides(
    overrides: Optional[Dict[Hashable, Any]]
) -> Hashable:
    """A hashable, insertion-order-independent key for an overrides
    dict (``None`` — base probabilities — keys as ``None``).

    Variable names may be any hashable, and hashables of different
    types need not be mutually comparable, so entries sort by ``repr``
    of the variable; distribution specs recurse the same way.
    """
    if overrides is None:
        return None
    entries = []
    for variable, spec in overrides.items():
        if isinstance(spec, dict):
            canon: Hashable = tuple(
                sorted(
                    ((repr(value), value, float(p)) for value, p in spec.items()),
                    key=lambda item: item[0],
                )
            )
        else:
            canon = float(spec)
        entries.append((repr(variable), variable, canon))
    return tuple(sorted(entries, key=lambda item: item[0]))


class ResponseCache:
    """A bounded LRU of finished responses, keyed per store version.

    Keys are tuples whose first element is the store name (so
    :meth:`purge_store` can drop a store's entries wholesale) and whose
    remainder pins everything the response depends on: snapshot
    version, op, lineage, canonical arguments.  Values are response
    dicts; callers copy on both put and get so cached responses are
    never aliased by mutation (the engine stamps ``op``/``cached`` onto
    the copies it returns).

    ``max_entries <= 0`` disables the cache: every lookup misses,
    nothing is stored.
    """

    __slots__ = ("max_entries", "_entries", "_lock")

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[Hashable, ...], Dict[str, Any]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(
        self, key: Tuple[Hashable, ...]
    ) -> Optional[Dict[str, Any]]:
        with self._lock:
            response = self._entries.get(key)
            if response is None:
                return None
            self._entries.move_to_end(key)
            return dict(response)

    def put(
        self, key: Tuple[Hashable, ...], response: Dict[str, Any]
    ) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = dict(response)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def purge_store(self, store: str) -> int:
        """Drop every entry of ``store``; returns how many went."""
        with self._lock:
            stale = [
                key for key in self._entries if key and key[0] == store
            ]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResponseCache({len(self._entries)}/{self.max_entries} "
            "entries)"
        )
