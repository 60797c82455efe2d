"""Versioned binary serialization of compiled circuits.

A :class:`~repro.circuits.Circuit` is an in-memory artifact over the
*process-wide* intern tables of :mod:`repro.core.variables`: its node
arrays reference dense atom/variable ids that are assigned in first-seen
order and therefore differ from process to process.  This module is the
stable wire/disk form that removes that dependency: every record carries
its own **name tables** — the variable names and ``(variable, value)``
atom entries the circuit touches — and the node arrays are rewritten
against local table indices.  Deserialization re-interns the names in
the receiving process and rebuilds the arrays over whatever dense ids
that process assigns, so a circuit saved anywhere loads anywhere,
regardless of intern-table state on either side.

Two layers:

* **Records** — :func:`encode_circuit` / :func:`decode_circuit` turn one
  circuit (plus, optionally, the lineage DNF it answers, so cache keys
  survive) into self-contained bytes.  :func:`encode_cache_slice` /
  :func:`merge_cache_slice` do the same for the cone of
  :class:`~repro.core.memo.DecompositionCache` entries a compilation
  walked, which is how sharded workers ship their warm decompositions
  back to the coordinator (:mod:`repro.engine_parallel`).  The cache
  itself cuts the cone (:meth:`~repro.core.memo.DecompositionCache.cone`)
  and merges it; this module only encodes and decodes the bytes.
* **Stores** — :func:`save_circuit_store` / :func:`load_circuit_store`
  wrap a sequence of keyed records in a versioned header (magic, format
  version, intern-table digest for provenance, payload digest for
  corruption detection) — the on-disk format behind
  :meth:`~repro.circuits.CircuitCache.save` /
  :meth:`~repro.circuits.CircuitCache.load` and ``ProbDB`` session
  warm-start.

Format notes (version 2)
------------------------
The header is ``magic (4s) | version (u16) | flags (u16) | intern
digest (16) | payload digest (16) | entry count (u32)``, all
little-endian, followed by length-prefixed records.  The intern digest
fingerprints the *saving* process's intern snapshot; it is recorded for
debuggability (``circuit_store_info``) and deliberately **not** checked
on load — names, not ids, are the portable currency.  The payload
digest is checked: a store that fails it is corrupt and rejected.

Node structure is written as raw little-endian arrays; arbitrary
variable names and domain values ride in a pickled name table (the same
self-contained convention as ``Atom.__reduce__``).  Residual-interval
leaves of partial circuits serialize with their bounds and variable
sets, and :meth:`Circuit.condition` clamps are re-applied on load, so
partial and conditioned circuits round-trip too.

Version 2 additionally records, per residual leaf, the **sub-DNF** the
truncated compilation left behind (name-based, exactly like lineage
keys), making persisted partial circuits resumable: a fresh process
can keep expanding residual leaves where the saving process stopped.
Version-1 stores remain loadable; their partial circuits evaluate
soundly but are read-only (``Circuit.refinable`` is false).

What invalidates a store
------------------------
Loading validates every atom against the receiving registry: a store
referencing a variable the registry no longer has (or a value outside
its domain) fails with :class:`CircuitStoreError` (or is skipped with
``strict=False``).  Changed *probabilities* do not invalidate exact
circuits — they read probabilities at evaluation time — but they do
stale the stored residual bounds of partial circuits, which were
computed under save-time probabilities.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from array import array

from ..core.decompositions import ShannonBranch
from ..core.dnf import DNF
from ..core.events import Clause
from ..core.memo import DecompositionCache, Sections
from ..core.variables import (
    VariableRegistry,
    atom_entry,
    intern_atom,
    intern_snapshot,
    intern_variable,
    variable_name,
    variable_repr,
)
from .circuit import (
    KIND_ATOM,
    KIND_CONST,
    KIND_OR,
    KIND_PROD,
    KIND_RESIDUAL,
    KIND_SUM,
    Circuit,
)

__all__ = [
    "CircuitStoreError",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "encode_circuit",
    "decode_circuit",
    "encode_cache_slice",
    "decode_cache_slice",
    "merge_cache_slice",
    "save_circuit_store",
    "load_circuit_store",
    "circuit_store_info",
    "intern_table_digest",
]

#: On-disk format version; bumped on any incompatible layout change.
#: Version 2 appends each residual leaf's sub-DNF (name-based, like
#: lineage keys) so persisted partial circuits stay *refinable* —
#: ``refine_sweep_bounds`` / ``expand_residuals`` can resume a
#: truncated run in another process.  Version-1 stores still load, but
#: their residual leaves carry no sub-DNF and are read-only: sound to
#: evaluate, impossible to tighten.
FORMAT_VERSION = 2

#: Store versions this build can read (older versions degrade — see
#: :data:`FORMAT_VERSION`).
SUPPORTED_VERSIONS = frozenset({1, 2})

_MAGIC = b"RCIR"
#: ``magic | version | flags | intern digest | payload digest | count``.
_HEADER = struct.Struct("<4sHH16s16sI")

PathLike = Union[str, "os.PathLike[str]"]


class CircuitStoreError(ValueError):
    """A circuit store (or record) that cannot be read.

    Raised on bad magic, unsupported format versions, payload
    corruption, truncation, and — under strict loading — entries whose
    atoms the receiving registry does not know.
    """


def intern_table_digest() -> bytes:
    """A 16-byte fingerprint of this process's intern tables.

    Recorded in store headers for provenance/debugging: two processes
    with equal digests have identical dense-id assignments.  Loading
    never requires a match — records carry names, not ids.
    """
    payload = pickle.dumps(intern_snapshot(), protocol=4)
    return hashlib.blake2b(payload, digest_size=16).digest()


# ----------------------------------------------------------------------
# Low-level reader/writer
# ----------------------------------------------------------------------
class _Writer:
    __slots__ = ("buffer",)

    def __init__(self) -> None:
        self.buffer = io.BytesIO()

    def u8(self, value: int) -> None:
        self.buffer.write(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self.buffer.write(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self.buffer.write(struct.pack("<Q", value))

    def f64(self, value: float) -> None:
        self.buffer.write(struct.pack("<d", value))

    def bytes_(self, payload: bytes) -> None:
        self.u64(len(payload))
        self.buffer.write(payload)

    def i64_seq(self, values: Iterable[int]) -> None:
        values = list(values)
        self.u64(len(values))
        self.buffer.write(struct.pack(f"<{len(values)}q", *values))

    def u32_seq(self, values: Iterable[int]) -> None:
        values = list(values)
        self.u32(len(values))
        self.buffer.write(struct.pack(f"<{len(values)}I", *values))

    def f64_seq(self, values: Iterable[float]) -> None:
        values = list(values)
        self.u32(len(values))
        self.buffer.write(struct.pack(f"<{len(values)}d", *values))

    def getvalue(self) -> bytes:
        return self.buffer.getvalue()


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def _take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise CircuitStoreError(
                "truncated circuit record: wanted "
                f"{count} bytes at offset {self.offset}, "
                f"{len(self.data) - self.offset} left"
            )
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def bytes_(self) -> bytes:
        return self._take(self.u64())

    def i64_seq(self) -> List[int]:
        count = self.u64()
        return list(struct.unpack(f"<{count}q", self._take(8 * count)))

    def u32_seq(self) -> List[int]:
        count = self.u32()
        return list(struct.unpack(f"<{count}I", self._take(4 * count)))

    def f64_seq(self) -> List[float]:
        count = self.u32()
        return list(struct.unpack(f"<{count}d", self._take(8 * count)))

    def done(self) -> bool:
        return self.offset == len(self.data)


# ----------------------------------------------------------------------
# Name tables
# ----------------------------------------------------------------------
class _NameTable:
    """Local variable/atom tables for one record.

    Interned ids are process-private; a record instead references
    **local indices** into these tables, and the tables themselves carry
    the original names/values (pickled — arbitrary hashables, same
    convention as ``Atom.__reduce__``).
    """

    __slots__ = ("var_index", "var_names", "atom_index", "atom_specs")

    def __init__(self) -> None:
        self.var_index: Dict[int, int] = {}
        self.var_names: List[Hashable] = []
        self.atom_index: Dict[int, int] = {}
        self.atom_specs: List[Tuple[int, Hashable]] = []

    def add_var(self, var_id: int, name: Hashable) -> int:
        local = self.var_index.get(var_id)
        if local is None:
            local = len(self.var_names)
            self.var_index[var_id] = local
            self.var_names.append(name)
        return local

    def add_atom(self, atom_id: int) -> int:
        local = self.atom_index.get(atom_id)
        if local is None:
            var_id, name, value = atom_entry(atom_id)
            var_local = self.add_var(var_id, name)
            local = len(self.atom_specs)
            self.atom_index[atom_id] = local
            self.atom_specs.append((var_local, value))
        return local

    def dump(self, writer: _Writer, extra: Any = None) -> None:
        payload = pickle.dumps(
            (tuple(self.var_names), tuple(self.atom_specs), extra),
            protocol=4,
        )
        writer.bytes_(payload)


class _LoadedTable:
    """A record's name tables re-interned into this process."""

    __slots__ = ("var_ids", "atom_ids", "extra")

    def __init__(self, reader: _Reader) -> None:
        try:
            var_names, atom_specs, extra = pickle.loads(reader.bytes_())
        except CircuitStoreError:
            raise
        except Exception as exc:
            raise CircuitStoreError(
                f"unreadable record name table: {exc}"
            ) from exc
        self.var_ids = [intern_variable(name) for name in var_names]
        self.atom_ids: List[int] = []
        for var_local, value in atom_specs:
            name = var_names[var_local]
            atom_id, _var_id = intern_atom(name, value)
            self.atom_ids.append(atom_id)
        self.extra = extra

    def atom(self, local: int) -> int:
        try:
            return self.atom_ids[local]
        except IndexError:
            raise CircuitStoreError(
                f"record references atom index {local} outside its "
                f"table of {len(self.atom_ids)}"
            ) from None

    def var(self, local: int) -> int:
        try:
            return self.var_ids[local]
        except IndexError:
            raise CircuitStoreError(
                f"record references variable index {local} outside its "
                f"table of {len(self.var_ids)}"
            ) from None

    def validate_against(self, registry: VariableRegistry) -> None:
        """Reject atoms the registry does not know (see module docs)."""
        for atom_id in self.atom_ids:
            _var_id, name, value = atom_entry(atom_id)
            if name not in registry:
                raise CircuitStoreError(
                    f"stored circuit references variable {name!r}, "
                    "which the registry does not define — the store "
                    "predates a schema change; delete it to recompile"
                )
            if value not in registry.domain(name):
                raise CircuitStoreError(
                    f"stored circuit references atom "
                    f"{name!r} = {value!r}, outside the registry's "
                    "domain for that variable — the store predates a "
                    "schema change; delete it to recompile"
                )


def _dump_dnf(writer: _Writer, dnf: DNF, table: _NameTable) -> None:
    clauses = dnf.sorted_clauses()
    writer.u32(len(clauses))
    for clause in clauses:
        writer.u32_seq(
            table.add_atom(atom_id) for atom_id in clause.atom_ids
        )


def _load_dnf(reader: _Reader, table: _LoadedTable) -> DNF:
    clause_count = reader.u32()
    clauses = []
    for _ in range(clause_count):
        ids = tuple(table.atom(local) for local in reader.u32_seq())
        clauses.append(Clause._from_atom_ids(ids))
    return DNF(clauses)


# ----------------------------------------------------------------------
# Circuit records
# ----------------------------------------------------------------------
def encode_circuit(
    circuit: Circuit,
    key: Optional[DNF] = None,
    *,
    format_version: int = FORMAT_VERSION,
) -> bytes:
    """One circuit (plus optional lineage key) as self-contained bytes.

    The record is valid in any process: node arrays are rewritten
    against a local atom table carrying variable *names* and values,
    and :func:`decode_circuit` re-interns them on the receiving side.
    ``key`` is the lineage DNF the circuit answers —
    :class:`~repro.circuits.CircuitCache` stores round-trip it so a
    reloaded cache keeps answering by lineage equality.
    ``format_version`` selects the record layout — pass ``1`` to write
    a store readable by pre-v2 code (residual sub-DNFs are dropped, so
    reloaded partial circuits evaluate but cannot refine).
    """
    if format_version not in SUPPORTED_VERSIONS:
        raise CircuitStoreError(
            f"cannot encode format version {format_version} "
            f"(supported: {sorted(SUPPORTED_VERSIONS)})"
        )
    table = _NameTable()
    body = _Writer()

    # Local atom table in node order, so var_atoms (which records atoms
    # in first-emission order) rebuilds exactly.
    ordered_atoms = sorted(
        circuit.atom_nodes.items(), key=lambda item: item[1]
    )
    for atom_id, _node in ordered_atoms:
        table.add_atom(atom_id)
    # Residual variable sets may name variables with no input node in
    # the expanded part; their names come straight off the intern table.
    for _low, _high, vids in circuit.residuals:
        for var_id in sorted(vids, key=variable_repr):
            table.add_var(var_id, variable_name(var_id))

    # Node arrays; KIND_ATOM arg0 is rewritten to the local atom index.
    kinds = circuit.kinds
    arg0 = list(circuit.arg0)
    for atom_id, node in circuit.atom_nodes.items():
        arg0[node] = table.atom_index[atom_id]
    body.u64(len(kinds))
    body.buffer.write(bytes(kinds))
    body.i64_seq(arg0)
    body.i64_seq(circuit.arg1)
    body.i64_seq(circuit.children)
    body.f64_seq(circuit.consts)

    body.u32(len(circuit.residuals))
    for slot, (low, high, vids) in enumerate(circuit.residuals):
        body.f64(low)
        body.f64(high)
        body.u32_seq(
            table.var_index[var_id]
            for var_id in sorted(vids, key=variable_repr)
        )
        # Format v2: the residual's sub-DNF rides along (when known —
        # circuits reloaded from v1 stores have none), so a persisted
        # partial circuit can keep refining in any process.  Its atoms
        # may extend the table; the table is dumped after the body.
        if format_version >= 2:
            sub_dnf = circuit.residual_dnf(slot)
            if isinstance(sub_dnf, DNF):
                body.u8(1)
                _dump_dnf(body, sub_dnf, table)
            else:
                body.u8(0)

    if key is None:
        body.u8(0)
    else:
        # May add atoms the circuit itself dropped (subsumption,
        # constant folding) — which is why the table is serialized
        # only after the whole body is built.
        body.u8(1)
        _dump_dnf(body, key, table)

    writer = _Writer()
    conditioned = tuple(circuit.conditioned.items())
    table.dump(writer, extra=conditioned)
    writer.buffer.write(body.getvalue())
    return writer.getvalue()


def _check_node_structure(
    kinds: array,
    arg0: List[int],
    arg1: List[int],
    children: List[int],
    consts: List[float],
    residual_count: int,
) -> None:
    """Reject internally inconsistent node arrays.

    The store's payload digest only proves the bytes are what the
    writer wrote — a buggy (or hostile) writer can produce digest-valid
    records whose spans point outside the children array, which
    Python's forgiving slicing would then evaluate *silently wrong*.
    Loud rejection is the module's contract, so every span and index is
    range-checked before a :class:`Circuit` is built.  (Atom indices
    are range-checked at resolution time by the loaded name table.)
    """
    child_count = len(children)
    for node, kind in enumerate(kinds):
        if kind in (KIND_PROD, KIND_OR, KIND_SUM):
            start, end = arg0[node], arg1[node]
            if not (0 <= start <= end <= child_count):
                raise CircuitStoreError(
                    f"node {node}: child span [{start}, {end}) outside "
                    f"the children array of {child_count}"
                )
            for child in children[start:end]:
                # Topological order: children strictly precede parents.
                if not (0 <= child < node):
                    raise CircuitStoreError(
                        f"node {node}: child index {child} is not an "
                        "earlier node"
                    )
        elif kind == KIND_CONST:
            if not (0 <= arg0[node] < len(consts)):
                raise CircuitStoreError(
                    f"node {node}: constant index {arg0[node]} outside "
                    f"the constant table of {len(consts)}"
                )
        elif kind == KIND_RESIDUAL:
            if not (0 <= arg0[node] < residual_count):
                raise CircuitStoreError(
                    f"node {node}: residual index {arg0[node]} outside "
                    f"the residual table of {residual_count}"
                )


def decode_circuit(
    data: bytes,
    registry: VariableRegistry,
    *,
    validate: bool = True,
    format_version: int = FORMAT_VERSION,
) -> Tuple[Circuit, Optional[DNF]]:
    """Rebuild a circuit (and its lineage key, if recorded) from bytes.

    Names are re-interned into *this* process's tables, so the record
    may come from any process in any intern state.  With ``validate``
    (the default) every referenced atom must exist in ``registry`` —
    see the module docstring on store invalidation.  ``format_version``
    selects the record layout (stores carry it in their header);
    version-1 records lack residual sub-DNFs, so their partial circuits
    load read-only.
    """
    if format_version not in SUPPORTED_VERSIONS:
        raise CircuitStoreError(
            f"unsupported circuit-record format version {format_version}"
        )
    reader = _Reader(data)
    table = _LoadedTable(reader)
    if validate:
        table.validate_against(registry)

    node_count = reader.u64()
    kinds = array("B")
    kinds.frombytes(reader._take(node_count))
    if any(kind > 5 for kind in kinds):
        raise CircuitStoreError("record contains an unknown node kind")
    arg0_values = reader.i64_seq()
    arg1_values = reader.i64_seq()
    children_values = reader.i64_seq()
    consts = reader.f64_seq()
    if not (len(arg0_values) == len(arg1_values) == node_count):
        raise CircuitStoreError(
            "record node arrays disagree on the node count"
        )
    residual_count = reader.u32()
    residuals: List[Tuple[float, float, FrozenSet[int]]] = []
    residual_dnfs: List[Optional[DNF]] = []
    for _ in range(residual_count):
        low = reader.f64()
        high = reader.f64()
        vids = frozenset(table.var(local) for local in reader.u32_seq())
        residuals.append((low, high, vids))
        if format_version >= 2 and reader.u8():
            residual_dnfs.append(_load_dnf(reader, table))
        else:
            residual_dnfs.append(None)
    _check_node_structure(
        kinds, arg0_values, arg1_values, children_values, consts,
        residual_count,
    )

    atom_nodes: Dict[int, int] = {}
    var_atoms: Dict[int, List[int]] = {}
    for node, kind in enumerate(kinds):
        if kind != KIND_ATOM:
            continue
        atom_id = table.atom(arg0_values[node])
        arg0_values[node] = atom_id
        atom_nodes[atom_id] = node
        var_id, _name, _value = atom_entry(atom_id)
        var_atoms.setdefault(var_id, []).append(atom_id)

    circuit = Circuit(
        registry,
        kinds,
        array("q", arg0_values),
        array("q", arg1_values),
        array("q", children_values),
        consts,
        residuals,
        atom_nodes,
        var_atoms,
        residual_dnfs=residual_dnfs,
    )
    conditioned = table.extra or ()
    for variable, value in conditioned:
        try:
            circuit = circuit.condition(variable, value)
        except KeyError as exc:
            raise CircuitStoreError(
                f"stored conditioning {variable!r} = {value!r} is not "
                f"valid for this registry: {exc}"
            ) from exc

    key: Optional[DNF] = None
    if reader.u8():
        key = _load_dnf(reader, table)
    if not reader.done():
        raise CircuitStoreError(
            f"{len(reader.data) - reader.offset} trailing bytes after "
            "circuit record"
        )
    return circuit, key


# ----------------------------------------------------------------------
# Decomposition-cache slices
# ----------------------------------------------------------------------
def encode_cache_slice(
    cache: DecompositionCache, *roots: DNF
) -> bytes:
    """The decomposition cones of the ``roots`` as self-contained bytes.

    This is what a sharded worker ships back with its compiled
    circuits — one *union* slice per shard, so cones shared between a
    shard's answers are serialized once: merged into the coordinator's
    cache (:func:`merge_cache_slice`), a later coordinator compile or
    refinement of the same (or overlapping) lineage replays the
    worker's decompositions instead of re-searching them.
    """
    reduced, components, factors, branches, bounds, exact = cache.cone(
        roots
    )
    writer = _Writer()
    table = _NameTable()
    body = _Writer()

    def dump(dnf: DNF) -> None:
        _dump_dnf(body, dnf, table)

    body.u32(len(reduced))
    for key, value in reduced.items():
        dump(key)
        dump(value)
    body.u32(len(components))
    for key, parts in components.items():
        dump(key)
        body.u32(len(parts))
        for part in parts:
            dump(part)
    body.u32(len(factors))
    for key, parts_or_none in factors.items():
        dump(key)
        if parts_or_none is None:
            body.u8(0)
        else:
            body.u8(1)
            body.u32(len(parts_or_none))
            for part in parts_or_none:
                dump(part)
    body.u32(len(branches))
    for key, branch_list in branches.items():
        dump(key)
        body.u32(len(branch_list))
        for branch in branch_list:
            atom_id, _var_id = intern_atom(branch.variable, branch.value)
            body.u32(table.add_atom(atom_id))
            body.f64(branch.probability)
            dump(branch.cofactor)
    body.u32(len(bounds))
    for key, (low, high) in bounds.items():
        dump(key)
        body.f64(low)
        body.f64(high)
    body.u32(len(exact))
    for key, value in exact.items():
        dump(key)
        body.f64(value)

    table.dump(writer)
    writer.buffer.write(body.getvalue())
    return writer.getvalue()


def decode_cache_slice(data: bytes) -> Sections:
    """Decode a cache slice into this process's interned DNFs."""
    reader = _Reader(data)
    table = _LoadedTable(reader)

    def load() -> DNF:
        return _load_dnf(reader, table)

    reduced = {load(): load() for _ in range(reader.u32())}
    components = {
        load(): [load() for _ in range(reader.u32())]
        for _ in range(reader.u32())
    }
    factors: Dict[DNF, Optional[List[DNF]]] = {}
    for _ in range(reader.u32()):
        key = load()
        if reader.u8():
            factors[key] = [load() for _ in range(reader.u32())]
        else:
            factors[key] = None
    branches: Dict[DNF, List[ShannonBranch]] = {}
    for _ in range(reader.u32()):
        key = load()
        branch_list = []
        for _ in range(reader.u32()):
            atom_id = table.atom(reader.u32())
            probability = reader.f64()
            cofactor = load()
            _var_id, name, value = atom_entry(atom_id)
            branch_list.append(
                ShannonBranch(name, value, probability, cofactor)
            )
        branches[key] = branch_list
    bounds = {
        load(): (reader.f64(), reader.f64())
        for _ in range(reader.u32())
    }
    exact = {load(): reader.f64() for _ in range(reader.u32())}
    if not reader.done():
        raise CircuitStoreError(
            f"{len(reader.data) - reader.offset} trailing bytes after "
            "cache slice"
        )
    return reduced, components, factors, branches, bounds, exact


def merge_cache_slice(data: bytes, cache: DecompositionCache) -> int:
    """Merge an encoded slice into ``cache``; returns entries merged.

    The caller is responsible for the cache being bound to a
    configuration the slice is valid under (same registry values, same
    pivot-selection semantics, same bounds-heuristic flags) — the
    sharded execution layer guarantees this by construction, since
    worker engines run copies of the coordinator's config.
    """
    return cache.merge(decode_cache_slice(data))


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
def save_circuit_store(
    path: PathLike,
    entries: Iterable[Tuple[Optional[DNF], Circuit]],
    *,
    format_version: int = FORMAT_VERSION,
) -> int:
    """Write ``(lineage key, circuit)`` pairs as a versioned store.

    Returns the number of entries written.  The write is atomic-ish: a
    temp file in the same directory is renamed over ``path``, so a
    crash mid-save never leaves a half-written store behind.
    ``format_version=1`` writes the pre-sub-DNF layout for old readers
    (see :func:`encode_circuit`).
    """
    records = [
        encode_circuit(circuit, key=key, format_version=format_version)
        for key, circuit in entries
    ]
    payload_writer = _Writer()
    for record in records:
        payload_writer.bytes_(record)
    payload = payload_writer.getvalue()
    header = _HEADER.pack(
        _MAGIC,
        format_version,
        0,
        intern_table_digest(),
        hashlib.blake2b(payload, digest_size=16).digest(),
        len(records),
    )
    path = os.fspath(path)
    temp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(header)
            handle.write(payload)
        os.replace(temp_path, path)
    except BaseException:
        # A failed write (disk full, permissions) must not strand the
        # temp file next to the store.
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return len(records)


def _read_store(
    path: PathLike,
) -> Tuple[Dict[str, object], bytes, int]:
    """Parse and verify a store header; returns (info, payload, count)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _HEADER.size:
        raise CircuitStoreError(
            f"{os.fspath(path)!r} is too short to be a circuit store "
            f"({len(raw)} bytes, header needs {_HEADER.size})"
        )
    magic, version, _flags, intern_digest, payload_digest, count = (
        _HEADER.unpack_from(raw)
    )
    if magic != _MAGIC:
        raise CircuitStoreError(
            f"{os.fspath(path)!r} is not a circuit store "
            f"(bad magic {magic!r})"
        )
    if version not in SUPPORTED_VERSIONS:
        raise CircuitStoreError(
            f"unsupported circuit-store format version {version}; "
            f"this build reads versions "
            f"{sorted(SUPPORTED_VERSIONS)} — recompile the store with "
            "the matching library version"
        )
    payload = raw[_HEADER.size:]
    actual = hashlib.blake2b(payload, digest_size=16).digest()
    if actual != payload_digest:
        raise CircuitStoreError(
            f"circuit store {os.fspath(path)!r} is corrupted: payload "
            "digest mismatch"
        )
    info: Dict[str, object] = {
        "format_version": version,
        "entries": count,
        "intern_digest": intern_digest.hex(),
        "payload_bytes": len(payload),
    }
    return info, payload, count


def load_circuit_store(
    path: PathLike,
    registry: VariableRegistry,
    *,
    strict: bool = True,
) -> List[Tuple[Optional[DNF], Circuit]]:
    """Read a store back into ``(lineage key, circuit)`` pairs.

    Every record's atoms are validated against ``registry``.  With
    ``strict`` (the default) the first invalid record raises
    :class:`CircuitStoreError`; with ``strict=False`` invalid records
    are skipped, which lets a session warm-start from a store whose
    database has since lost some tuples.  Version-1 stores load with
    their partial circuits read-only (no residual sub-DNFs recorded).
    """
    info, payload, count = _read_store(path)
    version = int(info["format_version"])  # type: ignore[arg-type]
    reader = _Reader(payload)
    entries: List[Tuple[Optional[DNF], Circuit]] = []
    for index in range(count):
        record = reader.bytes_()
        try:
            circuit, key = decode_circuit(
                record, registry, format_version=version
            )
        except CircuitStoreError as exc:
            if strict:
                raise CircuitStoreError(
                    f"store entry {index}: {exc}"
                ) from exc
            continue
        entries.append((key, circuit))
    if not reader.done():
        raise CircuitStoreError(
            f"{len(reader.data) - reader.offset} trailing bytes after "
            "the last store entry"
        )
    return entries


def circuit_store_info(path: PathLike) -> Dict[str, object]:
    """Header metadata of a store, without decoding any circuit.

    Includes whether the store's intern digest matches this process
    (``intern_digest_matches`` — purely informational; loading works
    either way because records carry names).
    """
    info, _payload, _count = _read_store(path)
    info["intern_digest_matches"] = (
        info["intern_digest"] == intern_table_digest().hex()
    )
    return info
