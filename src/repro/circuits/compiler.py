"""Compilation of DNF lineage into arithmetic circuits.

:func:`compile_circuit` replays the d-tree decomposition of Fig. 1 —
subsumption removal, ``⊗`` partitioning, ``⊙`` factorization, Shannon
expansion — and records it as a flat :class:`~repro.circuits.Circuit`
instead of folding probabilities on the fly.  Two properties matter:

* **Trace sharing.**  Every decomposition step is the memoised step of
  :class:`~repro.core.memo.DecompositionCache` — the same one the
  ε-approximation takes — so compiling on the engine's cache right
  after a confidence run replays the recorded trace instead of
  re-searching for decompositions.  This module keeps only what is its
  own: repeated sub-DNFs (ubiquitous under Shannon expansion) become
  *shared subcircuits* — the circuit is a DAG, the d-DNNF view of the
  d-tree — and ``max_nodes`` cuts leave residual leaves.

* **Bit-compatible arithmetic.**  Node emission order and per-node
  arithmetic mirror :func:`repro.core.compiler.compile_dnf` /
  ``DTree.probability`` exactly, so an exact circuit evaluated at the
  base probabilities reproduces ``exact_probability_compiled`` (and the
  read-once rung, whose ⊗/⊙ recursion is the same structure)
  bit-for-bit.

``max_nodes`` caps compilation for hard lineage: once the budget is
spent, unexpanded sub-DNFs become residual leaves carrying their Fig. 3
heuristic bounds and variable set — the partial-circuit analogue of a
truncated ε-run, still sound and still re-evaluable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from array import array

from ..core.compiler import raised_recursion_limit
from ..core.dnf import DNF
from ..core.events import Clause
from ..core.memo import EXCLUSIVE_OR, INDEPENDENT_OR, DecompositionCache
from ..core.orders import VariableSelector
from ..core.variables import VariableRegistry, atom_entry
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
    "compile_circuit",
    "expand_residuals",
    "CircuitCompilationStats",
]


class CircuitCompilationStats:
    """Counters collected while compiling a circuit.

    ``cold_steps`` counts decomposition searches (⊗ partitioning, ⊙
    factorization, Shannon expansion) the compile had to run afresh
    because the shared cache held no entry — the compile's miss delta
    on :meth:`DecompositionCache.stats
    <repro.core.memo.DecompositionCache.stats>`; a pure replay —
    compiling right after a confidence run, or after a worker's cache
    slice was merged in — reports ``cold_steps == 0``.
    """

    __slots__ = (
        "nodes",
        "shared",
        "residuals",
        "shannon_expansions",
        "cold_steps",
    )

    def __init__(self) -> None:
        self.nodes = 0
        self.shared = 0
        self.residuals = 0
        self.shannon_expansions = 0
        self.cold_steps = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitCompilationStats(nodes={self.nodes}, "
            f"shared={self.shared}, residuals={self.residuals}, "
            f"shannon={self.shannon_expansions}, "
            f"cold={self.cold_steps})"
        )


class _Builder:
    """Accumulates flat node arrays in topological emission order."""

    __slots__ = (
        "kinds",
        "arg0",
        "arg1",
        "children",
        "consts",
        "residuals",
        "residual_dnfs",
        "atom_nodes",
        "var_atoms",
        "stats",
    )

    def __init__(self, stats: CircuitCompilationStats) -> None:
        self.kinds = array("B")
        self.arg0 = array("q")
        self.arg1 = array("q")
        self.children = array("q")
        self.consts: List[float] = []
        self.residuals: List[Tuple[float, float, FrozenSet[int]]] = []
        self.residual_dnfs: List[Optional[DNF]] = []
        self.atom_nodes: Dict[int, int] = {}
        self.var_atoms: Dict[int, List[int]] = {}
        self.stats = stats

    def _emit(self, kind: int, a: int, b: int) -> int:
        index = len(self.kinds)
        self.kinds.append(kind)
        self.arg0.append(a)
        self.arg1.append(b)
        self.stats.nodes += 1
        return index

    def const(self, value: float) -> int:
        for index, existing in enumerate(self.consts):
            if existing == value:
                break
        else:
            index = len(self.consts)
            self.consts.append(value)
        return self._emit(KIND_CONST, index, 0)

    def atom(self, atom_id: int, var_id: int) -> int:
        node = self.atom_nodes.get(atom_id)
        if node is not None:
            return node
        node = self._emit(KIND_ATOM, atom_id, 0)
        self.atom_nodes[atom_id] = node
        self.var_atoms.setdefault(var_id, []).append(atom_id)
        return node

    def inner(self, kind: int, child_ids: List[int]) -> int:
        start = len(self.children)
        self.children.extend(child_ids)
        return self._emit(kind, start, len(self.children))

    def residual(
        self,
        bounds: Tuple[float, float],
        vids: FrozenSet[int],
        dnf: Optional[DNF] = None,
    ) -> int:
        index = len(self.residuals)
        self.residuals.append((bounds[0], bounds[1], vids))
        self.residual_dnfs.append(dnf)
        self.stats.residuals += 1
        return self._emit(KIND_RESIDUAL, index, 0)


def compile_circuit(
    dnf: DNF,
    registry: VariableRegistry,
    *,
    choose_variable: Optional[VariableSelector] = None,
    cache: Optional[DecompositionCache] = None,
    max_nodes: Optional[int] = None,
    sort_buckets: bool = True,
    read_once_buckets: bool = False,
    stats: Optional[CircuitCompilationStats] = None,
) -> Circuit:
    """Compile lineage into an arithmetic :class:`Circuit`.

    Parameters
    ----------
    choose_variable:
        Shannon pivot selector; pass the engine's configured selector so
        the shared ``cache`` entries (keyed per configuration) apply.
    cache:
        A :class:`~repro.core.memo.DecompositionCache` shared with the
        confidence paths; compiling after a run replays its recorded
        decompositions.  A private cache is created when omitted.
    max_nodes:
        Node budget.  ``None`` compiles exactly; otherwise sub-DNFs
        beyond the budget become residual-interval leaves (the circuit
        then evaluates to sound bounds rather than a point).
    sort_buckets, read_once_buckets:
        Fig. 3 heuristic flags for residual-leaf bounds — pass the
        engine's values so bounds (and the cache binding) agree with
        the confidence paths.
    """
    if cache is None:
        cache = DecompositionCache()
    cache.bind(registry, choose_variable, sort_buckets, read_once_buckets)
    cache.trim()
    if stats is None:
        stats = CircuitCompilationStats()
    misses_before = cache.stats()["misses"]
    builder = _Builder(stats)
    #: reduced DNF -> node index (subcircuit sharing).
    memo: Dict[DNF, int] = {}

    def clause_node(clause) -> int:
        atom_ids = clause.atom_ids
        if len(atom_ids) == 1:
            atom_id = atom_ids[0]
            var_id = next(iter(clause.variable_ids))
            return builder.atom(atom_id, var_id)
        children = []
        for atom_id in atom_ids:
            var_id, _name, _value = atom_entry(atom_id)
            children.append(builder.atom(atom_id, var_id))
        return builder.inner(KIND_PROD, children)

    def build(dnf_in: DNF, reduced: bool) -> int:
        current = dnf_in if reduced else cache.reduce(dnf_in)
        if current.is_false():
            return builder.const(0.0)
        if current.is_true():
            return builder.const(1.0)
        if current.is_single_clause():
            return clause_node(current.sole_clause())

        node = memo.get(current)
        if node is not None:
            stats.shared += 1
            return node

        if max_nodes is not None and stats.nodes >= max_nodes:
            node = builder.residual(
                cache.leaf_bounds(current), current.variable_ids, current
            )
            memo[current] = node
            return node

        kind, parts = cache.decompose(current)
        if kind != EXCLUSIVE_OR:
            children = [build(part, True) for part in parts]
            node = builder.inner(
                KIND_OR if kind == INDEPENDENT_OR else KIND_PROD, children
            )
            memo[current] = node
            return node

        stats.shannon_expansions += 1
        children = []
        for branch in parts:
            atom_node = clause_node(
                Clause({branch.variable: branch.value})
            )
            if branch.cofactor.is_true():
                children.append(atom_node)
                continue
            cofactor_node = build(branch.cofactor, False)
            children.append(
                builder.inner(KIND_PROD, [atom_node, cofactor_node])
            )
        if len(children) == 1:
            node = children[0]
        else:
            node = builder.inner(KIND_SUM, children)
        memo[current] = node
        return node

    # Shannon chains can be as deep as the variable count (IQ lineage,
    # Thm. 6.9); same headroom as exact_probability_compiled.
    with raised_recursion_limit(
        dnf.size() + len(dnf.variable_ids) + 100
    ):
        root = build(dnf, False)
    stats.cold_steps += cache.stats()["misses"] - misses_before
    # The root must be the last node for the linear sweeps; shared
    # subcircuit roots can predate later nodes, so alias when needed.
    if root != len(builder.kinds) - 1:
        builder.inner(KIND_SUM, [root])
    return Circuit(
        registry,
        builder.kinds,
        builder.arg0,
        builder.arg1,
        builder.children,
        builder.consts,
        builder.residuals,
        builder.atom_nodes,
        builder.var_atoms,
        residual_dnfs=builder.residual_dnfs,
    )


def expand_residuals(
    circuit: Circuit, replacements: Dict[int, Circuit]
) -> Circuit:
    """Splice compiled subcircuits in place of residual leaves.

    ``replacements`` maps residual indices (positions in
    :attr:`Circuit.residuals`) to circuits compiled from the matching
    :attr:`Circuit.residual_dnfs` entries — the caller compiles them
    (typically via :meth:`~repro.engine.ConfidenceEngine.compile_circuit`,
    so the shared decomposition cache replays the original trace) and
    this function performs the structural surgery: a full rebuild pass
    that inlines each subcircuit where its leaf stood, dedupes atom
    nodes across the seam (gradients assume one input node per atom),
    and re-applies any conditioning so atoms that only existed inside
    the residual get pinned too.  Soundness: the residual's stored
    bounds were sound for the sub-DNF, and the subcircuit computes that
    sub-DNF's probability, so the expanded circuit's bounds are nested
    within the original's.

    The result is a **new** circuit (the input is untouched), so
    identity-keyed kernel caches stay coherent.
    """
    if not replacements:
        return circuit
    for index, sub in replacements.items():
        if not 0 <= index < len(circuit.residuals):
            raise IndexError(
                f"residual index {index} out of range for "
                f"{len(circuit.residuals)} leaves"
            )
        if sub.registry is not circuit.registry:
            raise ValueError(
                "replacement circuit was compiled against a different "
                "registry"
            )
        if sub._pinned or sub._conditioned_map:
            raise ValueError(
                "replacement circuits must be unconditioned — compile "
                "the residual sub-DNF directly; conditioning is "
                "re-applied to the expanded circuit as a whole"
            )
    stats = CircuitCompilationStats()
    builder = _Builder(stats)

    def rebuild(
        source: Circuit, inline: Optional[Dict[int, Circuit]]
    ) -> int:
        """Emit ``source``'s nodes into the builder; returns the root.

        ``inline`` maps residual indices to subcircuits to splice
        (only for the outer circuit; inlined subs keep their own
        residual leaves as leaves).
        """
        if not len(source.kinds):
            return builder.const(0.0)
        mapping = [0] * len(source.kinds)
        for index in range(len(source.kinds)):
            kind = source.kinds[index]
            if kind == KIND_ATOM:
                atom_id = source.arg0[index]
                var_id, _name, _value = atom_entry(atom_id)
                mapping[index] = builder.atom(atom_id, var_id)
            elif kind == KIND_CONST:
                mapping[index] = builder.const(
                    source.consts[source.arg0[index]]
                )
            elif kind == KIND_RESIDUAL:
                slot = source.arg0[index]
                sub = inline.get(slot) if inline is not None else None
                if sub is None:
                    low, high, vids = source.residuals[slot]
                    mapping[index] = builder.residual(
                        (low, high), vids, source.residual_dnfs[slot]
                    )
                else:
                    mapping[index] = rebuild(sub, None)
            else:
                span = [
                    mapping[child]
                    for child in source.children[
                        source.arg0[index]:source.arg1[index]
                    ]
                ]
                mapping[index] = builder.inner(kind, span)
        return mapping[-1]

    root = rebuild(circuit, replacements)
    # Same invariant as compile_circuit: the root must be the last node
    # (atom dedup across the splice seam can map it earlier).
    if root != len(builder.kinds) - 1:
        builder.inner(KIND_SUM, [root])
    expanded = Circuit(
        circuit.registry,
        builder.kinds,
        builder.arg0,
        builder.arg1,
        builder.children,
        builder.consts,
        builder.residuals,
        builder.atom_nodes,
        builder.var_atoms,
        residual_dnfs=builder.residual_dnfs,
    )
    for variable, value in circuit._conditioned_map.items():
        expanded = expanded.condition(variable, value)
    return expanded
