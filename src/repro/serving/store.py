"""Circuit-store service: persisted stores as immutable snapshots.

A :class:`CircuitStoreService` owns the read side of one or more PR 5
circuit stores.  Each store is loaded once into a
:class:`StoreSnapshot` — an immutable, share-everything bundle of a
read-only :class:`~repro.circuits.CircuitCacheSnapshot` view plus the
interned-registry snapshot current at load time (the same
``intern_snapshot`` codec ``engine_parallel`` ships to its worker
pools, so a shard process can be handed a snapshot and answer from it
with identical dense ids).  Readers never lock: they take the current
snapshot reference and keep it for the whole request, so a concurrent
reload can never tear a lookup.

Hot reload: every :meth:`snapshot` call (throttled through
:mod:`repro.core.clock`) compares the store file's version —
``mtime_ns:size:dev:ino``, the inode folded in so an atomic same-size
replace within one mtime tick still bumps the version — against the
loaded snapshot's and atomically swaps in a fresh load when the file
changed.  A store may also be backed by
a **live** session :class:`~repro.circuits.CircuitCache` (the
in-process serving path of ``ProbDB.serving()``), in which case the
cache's mutation counter plays the role of the file version.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from ..circuits.cache import CircuitCache, CircuitCacheSnapshot
from ..circuits.circuit import Circuit
from ..circuits.serialize import CircuitStoreError
from ..core import clock
from ..core.dnf import DNF
from ..core.variables import VariableRegistry, intern_snapshot
from .errors import ServingError

__all__ = ["CircuitStoreService", "StoreSnapshot"]

PathLike = Union[str, "os.PathLike[str]"]


def _file_version(path: str) -> str:
    # mtime alone misses an atomic same-size replace on filesystems
    # with coarse mtime granularity (a fast ``os.replace`` of an
    # equal-length store within one timestamp tick), which would serve
    # the stale snapshot forever.  The inode changes on every replace-
    # by-rename, so folding ``st_ino`` (and ``st_dev``) into the key
    # catches exactly that case without reading the file.
    stat = os.stat(path)
    return (
        f"{stat.st_mtime_ns}:{stat.st_size}:{stat.st_dev}:{stat.st_ino}"
    )


class StoreSnapshot:
    """One immutable, point-in-time view of a circuit store.

    Everything a request handler needs, bundled so it cannot observe a
    half-reloaded state: the circuit lookup (``get``), the store
    ``version`` the answers are attributed to, and the intern snapshot
    to ship if the work fans out to another process.
    """

    __slots__ = ("name", "path", "version", "circuits", "intern")

    def __init__(
        self,
        name: str,
        path: Optional[str],
        version: str,
        circuits: CircuitCacheSnapshot,
        intern: object,
    ) -> None:
        self.name = name
        self.path = path
        self.version = version
        #: Read-only circuit view; plain dict reads, no locks.
        self.circuits = circuits
        #: ``repro.core.variables.intern_snapshot()`` taken at load
        #: time — the engine_parallel shipping codec, so this snapshot
        #: can seed a worker process that then resolves the same dense
        #: ids the circuits were re-interned under.
        self.intern = intern

    def get(self, lineage: DNF) -> Optional[Circuit]:
        return self.circuits.get(lineage)

    def __len__(self) -> int:
        return len(self.circuits)

    def __contains__(self, lineage: DNF) -> bool:
        return lineage in self.circuits

    def keys(self) -> Iterable[DNF]:
        return iter(self.circuits)

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "path": self.path,
            "version": self.version,
            "entries": len(self.circuits),
        }

    def __repr__(self) -> str:
        return (
            f"StoreSnapshot({self.name!r}, {len(self.circuits)} "
            f"circuits, version={self.version!r})"
        )


class CircuitStoreService:
    """Loads, versions, and hot-reloads named circuit stores.

    Parameters
    ----------
    registry:
        The probability space circuits re-intern against (stores are
        name-based; any process with an equivalent registry can load
        any store).
    stores:
        Optional ``name -> path`` mapping loaded eagerly.
    strict:
        Forwarded to the store loader: ``True`` raises on entries over
        variables the registry no longer defines, ``False`` (default
        here — a serving fleet prefers partial availability) skips
        them.
    reload_check_seconds:
        Minimum seconds (via :mod:`repro.core.clock`) between version
        probes per store; ``0`` probes on every :meth:`snapshot` call.
    """

    def __init__(
        self,
        registry: VariableRegistry,
        stores: Optional[Mapping[str, PathLike]] = None,
        *,
        strict: bool = False,
        reload_check_seconds: float = 0.05,
    ) -> None:
        self.registry = registry
        self.strict = strict
        self.reload_check_seconds = reload_check_seconds
        self.reloads = 0
        self._lock = threading.Lock()
        self._snapshots: Dict[str, StoreSnapshot] = {}
        #: Live-cache stores: name -> the mutable session cache backing
        #: the snapshot (re-cut when its mutation counter moves).
        self._caches: Dict[str, CircuitCache] = {}
        #: Lazily-registered stores: name -> path, loaded on first
        #: :meth:`snapshot` rather than at registration.
        self._lazy: Dict[str, str] = {}
        #: Served directories: ``(path, suffix)`` pairs rescanned when a
        #: lookup misses, so files dropped in later are picked up.
        self._directories: Dict[str, str] = {}
        self._last_check: Dict[str, float] = {}
        if stores:
            for name, path in stores.items():
                self.add_store(name, path)

    # -- registration ----------------------------------------------------
    def add_store(
        self, name: str, path: PathLike, *, lazy: bool = False
    ) -> Optional[StoreSnapshot]:
        """Register a persisted store file under ``name`` (replaces any
        previous binding of the name).

        ``lazy=True`` defers the load to the first :meth:`snapshot`
        call (the file must merely exist now) and returns ``None``; the
        eager default loads immediately and returns the snapshot.
        """
        path = os.fspath(path)
        if lazy:
            if not os.path.exists(path):
                raise ServingError(
                    "unknown-store",
                    f"store {name!r} at {path!r} does not exist",
                    status=404,
                )
            with self._lock:
                self._lazy[name] = path
                self._snapshots.pop(name, None)
                self._caches.pop(name, None)
            return None
        snapshot = self._load_file(name, path)
        with self._lock:
            self._snapshots[name] = snapshot
            self._caches.pop(name, None)
            self._lazy.pop(name, None)
        return snapshot

    def drop_store(self, name: str) -> None:
        """Forget ``name`` entirely (snapshot, live cache, lazy entry).

        In-flight requests holding the dropped snapshot finish
        unaffected — snapshots are immutable; the name just stops
        resolving for new requests.
        """
        with self._lock:
            known = (
                self._snapshots.pop(name, None) is not None
                or self._lazy.pop(name, None) is not None
            )
            self._caches.pop(name, None)
            self._last_check.pop(name, None)
        if not known:
            raise ServingError(
                "unknown-store", f"no store named {name!r}"
            )

    def serve_directory(
        self, path: PathLike, *, suffix: str = ".rcir"
    ) -> Tuple[str, ...]:
        """Serve every ``*<suffix>`` file under ``path`` lazily.

        Each file registers under its basename-minus-suffix; nothing is
        loaded until a request names the store.  The directory is
        rescanned whenever a lookup misses, so files dropped in after
        registration are picked up without another call.  Returns the
        names registered by this scan.
        """
        directory = os.fspath(path)
        if not os.path.isdir(directory):
            raise ServingError(
                "unknown-store",
                f"{directory!r} is not a directory",
                status=404,
            )
        with self._lock:
            self._directories[directory] = suffix
        return self._scan_directories()

    def _scan_directories(self) -> Tuple[str, ...]:
        """Register any new matching files; returns names added."""
        added = []
        with self._lock:
            directories = dict(self._directories)
        for directory, suffix in directories.items():
            try:
                filenames = sorted(os.listdir(directory))
            except OSError:
                # Vanished directory: already-loaded stores keep
                # serving, the rescan just finds nothing new.
                continue
            for filename in filenames:
                if not filename.endswith(suffix):
                    continue
                name = filename[: len(filename) - len(suffix)]
                with self._lock:
                    if name in self._snapshots or name in self._lazy:
                        continue
                    self._lazy[name] = os.path.join(directory, filename)
                added.append(name)
        return tuple(added)

    def add_cache(self, name: str, cache: CircuitCache) -> StoreSnapshot:
        """Serve a live session :class:`CircuitCache` under ``name``.

        The snapshot is re-cut whenever the cache's mutation counter
        moves (the in-memory analogue of a file-version change), so a
        session that keeps compiling circuits publishes them to the
        serving tier without any explicit hand-off.
        """
        snapshot = self._cut_cache(name, cache)
        with self._lock:
            self._snapshots[name] = snapshot
            self._caches[name] = cache
        return snapshot

    def writeback(
        self, name: str, lineage: DNF, circuit: Circuit
    ) -> bool:
        """Write a refined circuit back into ``name``'s backing cache.

        Only live-cache stores (:meth:`add_cache`) are mutable: the put
        bumps the cache's mutation counter, so the next version probe
        re-cuts the snapshot and every reader sees the refinement — and
        the session that owns the cache persists it on close when it
        was opened with ``persist_circuits=``, carrying the progress
        across processes.  File-backed snapshots are immutable; returns
        ``False`` and the caller keeps the refinement in its own
        overlay.
        """
        cache = self._caches.get(name)
        if cache is None:
            return False
        cache.put(lineage, circuit, exact_only=False)
        return True

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self._snapshots) | set(self._lazy)))

    def describe(self) -> Dict[str, Dict[str, object]]:
        return {
            name: self.snapshot(name).describe() for name in self.names()
        }

    # -- snapshots -------------------------------------------------------
    def snapshot(self, name: str) -> StoreSnapshot:
        """The current snapshot of ``name``, hot-reloaded if stale.

        Version probes are throttled by ``reload_check_seconds``; a
        probe that finds the backing file changed (or the live cache
        mutated) reloads and atomically swaps the snapshot.  If the
        backing file has *vanished*, the last good snapshot keeps
        serving — a fleet node outliving its store file is degraded,
        not dead.  Lazily-registered stores (``add_store(lazy=True)``,
        :meth:`serve_directory`) load on their first request here.
        """
        snapshot = self._snapshots.get(name)
        if snapshot is None:
            snapshot = self._load_lazy(name)
        if snapshot is None:
            raise ServingError(
                "unknown-store",
                f"no store named {name!r} (available: "
                f"{', '.join(self.names()) or 'none'})",
            )
        cache = self._caches.get(name)
        if cache is not None:
            if snapshot.version != f"cache:{cache.version}":
                return self._refresh(name)
            return snapshot
        if snapshot.path is None:
            return snapshot
        now = clock.monotonic()
        last = self._last_check.get(name)
        if last is not None and now - last < self.reload_check_seconds:
            return snapshot
        self._last_check[name] = now
        try:
            current = _file_version(snapshot.path)
        except OSError:
            return snapshot
        if current != snapshot.version:
            return self._refresh(name)
        return snapshot

    def _load_lazy(self, name: str) -> Optional[StoreSnapshot]:
        """First-request load of a lazily-registered store (or a file
        that appeared in a served directory since the last scan)."""
        if name not in self._lazy:
            self._scan_directories()
        path = self._lazy.get(name)
        if path is None:
            return None
        snapshot = self._load_file(name, path)
        with self._lock:
            # Another thread may have loaded it while we did; keep the
            # installed snapshot so both threads agree on the version.
            installed = self._snapshots.setdefault(name, snapshot)
            self._lazy.pop(name, None)
        return installed

    def reload(self, name: str) -> StoreSnapshot:
        """Force a reload of ``name`` regardless of version probes."""
        if name not in self._snapshots:
            if self._load_lazy(name) is None:
                raise ServingError(
                    "unknown-store", f"no store named {name!r}"
                )
        return self._refresh(name, force=True)

    def _refresh(self, name: str, *, force: bool = False) -> StoreSnapshot:
        with self._lock:
            snapshot = self._snapshots[name]
            cache = self._caches.get(name)
            if cache is not None:
                if force or snapshot.version != f"cache:{cache.version}":
                    snapshot = self._cut_cache(name, cache)
                    self._snapshots[name] = snapshot
                    self.reloads += 1
                return snapshot
            assert snapshot.path is not None
            try:
                current = _file_version(snapshot.path)
            except OSError:
                return snapshot
            if not force and current == snapshot.version:
                return snapshot  # another thread won the race
            fresh = self._load_file(name, snapshot.path)
            self._snapshots[name] = fresh
            self.reloads += 1
            return fresh

    # -- loading ---------------------------------------------------------
    def _load_file(self, name: str, path: str) -> StoreSnapshot:
        try:
            version = _file_version(path)
        except OSError as exc:
            raise ServingError(
                "unknown-store",
                f"store {name!r} at {path!r} is unreadable: {exc}",
                status=404,
            ) from exc
        cache = CircuitCache()
        try:
            cache.load_into(path, self.registry, strict=self.strict)
        except CircuitStoreError as exc:
            raise ServingError(
                "corrupt-store",
                f"store {name!r} at {path!r} cannot be read: {exc}",
            ) from exc
        except OSError as exc:
            raise ServingError(
                "unknown-store",
                f"store {name!r} at {path!r} is unreadable: {exc}",
                status=404,
            ) from exc
        return StoreSnapshot(
            name, path, version, cache.snapshot(), intern_snapshot()
        )

    def _cut_cache(self, name: str, cache: CircuitCache) -> StoreSnapshot:
        circuits = cache.snapshot()
        return StoreSnapshot(
            name,
            None,
            f"cache:{circuits.version}",
            circuits,
            intern_snapshot(),
        )

    def __repr__(self) -> str:
        return (
            f"CircuitStoreService({list(self.names())!r}, "
            f"reloads={self.reloads})"
        )
