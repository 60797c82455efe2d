"""Vectorized numpy kernels over compiled circuits.

A :class:`~repro.circuits.Circuit` evaluates one probability world per
Python sweep; a sensitivity grid over thousands of worlds pays thousands
of interpreter passes over the same node list.  This module lowers a
circuit **once** into contiguous op-segmented arrays — nodes grouped by
``(topological level, kind, arity)`` — so a whole ``(scenarios × atoms)``
float64 matrix flows through the circuit in a handful of numpy passes:

* :meth:`CircuitKernel.evaluate_batch` — all scenario probabilities in
  one forward sweep (interval midpoints on partial circuits, exactly
  like :meth:`Circuit.evaluate`);
* :meth:`CircuitKernel.bounds_batch` — two forward lanes give certified
  ``[lower, upper]`` columns, residual leaves broadcast to their stored
  bounds and widened to ``[0, 1]`` per scenario where overrides touch
  their variables;
* :meth:`CircuitKernel.gradients_batch` — one vectorized backward sweep
  yields every scenario's full adjoint row (reverse-mode, prefix/suffix
  products, robust to zero factors);
* :meth:`CircuitKernel.sample_matrix` / :class:`CircuitSampler` /
  :func:`circuit_monte_carlo` — Bernoulli world-matrices drawn per
  *variable* and evaluated on the circuit, replacing per-sample lineage
  evaluation in the engine's Monte-Carlo rung when an exact circuit is
  cached.

Bit-identity with the scalar sweeps is a design invariant, not an
accident: every accumulation loops over the **arity axis** in the same
left-to-right order as the scalar code (``np.prod``/``np.add.reduce``
use pairwise evaluation orders that would round differently), so batch
evaluation and bounds agree with :meth:`Circuit.evaluate` /
:meth:`Circuit.evaluate_bounds` to the last bit on the same inputs.
Gradients accumulate parent contributions in a different order than the
scalar backward sweep and agree to ~1e-12 instead.

numpy is an *optional* extra (``pip install repro[fast]``).  One rule
picks the backend, with no knob to override it: numpy when it is
importable, the pure-Python scalar sweeps otherwise.  Callers consult
:func:`kernel_backend` and keep the scalar path when it reports
``"scalar"``.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.events import Clause
from ..core.variables import (
    VariableRegistry,
    lookup_atom,
    variable_name,
)
from ..mc.dklr import MonteCarloResult, approximation_algorithm_estimate
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
    "BACKEND_NUMPY",
    "BACKEND_SCALAR",
    "CircuitKernel",
    "CircuitSampler",
    "KernelUnavailableError",
    "circuit_kernel",
    "circuit_monte_carlo",
    "clause_probability_batch",
    "kernel_backend",
    "numpy_available",
    "require_numpy",
]

#: Backend names reported by :func:`kernel_backend` and
#: ``EngineConfig.describe()["kernel_backend"]``.
BACKEND_NUMPY = "numpy"
BACKEND_SCALAR = "scalar"

try:
    import numpy as _np
except ImportError:
    _np = None  # type: ignore[assignment]


class KernelUnavailableError(RuntimeError):
    """Raised when a numpy kernel is built directly but numpy is absent."""


def numpy_available() -> bool:
    """True when the numpy backend can be used in this process."""
    return _np is not None


def require_numpy() -> Any:
    """The numpy module, or :class:`KernelUnavailableError` if missing."""
    if _np is None:
        raise KernelUnavailableError(
            "vectorized kernels require numpy, which is not importable "
            "in this environment. Install the optional extra — pip "
            "install repro[fast] — or use the sweep functions, which "
            "fall back to the scalar path automatically."
        )
    return _np


def kernel_backend() -> str:
    """The backend in use: numpy when importable, scalar otherwise."""
    return BACKEND_SCALAR if _np is None else BACKEND_NUMPY


# ----------------------------------------------------------------------
# Registry probability window
# ----------------------------------------------------------------------
def _registry_window(registry: VariableRegistry) -> Tuple[Any, int]:
    """A dense float64 view of the registry's atom-probability window.

    Unregistered slots hold NaN so batched consumers can detect them and
    fall back to the scalar lookup.  The array is cached on the registry
    keyed by its atom-probability version, which every registration,
    :meth:`~VariableRegistry.set_distribution` and removal bumps — so a
    probability rewritten in place never reaches a kernel stale.
    """
    np = require_numpy()
    version = registry._atom_probs_version
    cached = getattr(registry, "_kernel_prob_window", None)
    if cached is not None and cached[0] == version:
        return cached[1], registry._atom_base
    probs = registry._atom_probs
    window = np.fromiter(
        (float("nan") if prob is None else prob for prob in probs),
        dtype=np.float64,
        count=len(probs),
    )
    registry._kernel_prob_window = (version, window)
    return window, registry._atom_base


def clause_probability_batch(
    clauses: Sequence[Clause], registry: VariableRegistry
) -> Optional[List[float]]:
    """Batched :meth:`Clause.probability` over the dense prob window.

    Returns ``None`` when numpy is unavailable (callers keep their
    scalar loop).  Values are bit-identical to the scalar method: the
    per-clause product multiplies atom probabilities left-to-right in
    ``atom_ids`` order, and clauses touching atoms outside the dense
    window (overflow/unregistered slots surface as NaN) re-run the
    scalar method individually.
    """
    if _np is None:
        return None
    np = _np
    window, base = _registry_window(registry)
    size = window.shape[0]
    out: List[float] = [1.0] * len(clauses)
    by_arity: Dict[int, List[int]] = {}
    for position, clause in enumerate(clauses):
        arity = len(clause.atom_ids)
        if arity:
            by_arity.setdefault(arity, []).append(position)
    for arity, positions in by_arity.items():
        ids = np.array(
            [clauses[position].atom_ids for position in positions],
            dtype=np.int64,
        )
        index = ids - base
        if size:
            valid = (index >= 0) & (index < size)
            gathered = window[np.clip(index, 0, size - 1)]
            gathered[~valid] = np.nan
        else:
            gathered = np.full(index.shape, np.nan)
        acc = gathered[:, 0].copy()
        for column in range(1, arity):
            acc *= gathered[:, column]
        values = acc.tolist()
        for row, position in enumerate(positions):
            value = values[row]
            if value != value:  # NaN: overflow or stale window slot
                value = clauses[position].probability(registry)
            out[position] = value
    return out


# ----------------------------------------------------------------------
# The circuit kernel
# ----------------------------------------------------------------------
#: A frozenset per scenario of the variable ids its overrides touch —
#: residual leaves whose variables intersect it void their stored
#: bounds for that scenario (exactly the scalar ``touched`` semantics).
TouchedSets = Optional[Sequence[FrozenSet[int]]]


class CircuitKernel:
    """A :class:`Circuit` lowered to op-segmented numpy arrays.

    Lowering is a one-time O(nodes + edges) Python pass; every batch
    entry point afterwards runs a fixed sequence of numpy array ops.
    Input matrices are ``(scenarios, atoms)`` float64 with columns in
    :attr:`atom_ids` order (:meth:`base_matrix` builds the base-
    probability matrix to patch scenario overrides into).

    Conditioning is honoured: atoms pinned by :meth:`Circuit.condition`
    override their matrix columns, exactly as the scalar sweeps apply
    ``_pinned`` last.
    """

    __slots__ = (
        "circuit",
        "size",
        "atom_ids",
        "atom_index",
        "_atom_rows",
        "_const_rows",
        "_const_vals",
        "_pinned_rows",
        "_pinned_vals",
        "_residual_rows",
        "_residual_low",
        "_residual_high",
        "_residual_vids",
        "_groups",
        "_sample_plans",
    )

    def __init__(self, circuit: Circuit) -> None:
        np = require_numpy()
        self.circuit = circuit
        self.size = len(circuit.kinds)
        #: Column order of every input matrix (node-emission order of
        #: the compiler — deterministic per circuit).
        self.atom_ids: List[int] = list(circuit.atom_nodes.keys())
        self.atom_index: Dict[int, int] = {
            atom_id: column for column, atom_id in enumerate(self.atom_ids)
        }
        self._atom_rows = np.array(
            [circuit.atom_nodes[atom_id] for atom_id in self.atom_ids],
            dtype=np.int64,
        )
        const_rows: List[int] = []
        const_vals: List[float] = []
        residual_rows: List[int] = []
        residual_low: List[float] = []
        residual_high: List[float] = []
        residual_vids: List[FrozenSet[int]] = []

        kinds = circuit.kinds
        arg0 = circuit.arg0
        arg1 = circuit.arg1
        children = circuit.children
        levels = [0] * self.size
        # (level, kind, arity) -> ([node index], [child spans])
        grouped: Dict[
            Tuple[int, int, int], Tuple[List[int], List[List[int]]]
        ] = {}
        for index in range(self.size):
            kind = kinds[index]
            if kind == KIND_CONST:
                const_rows.append(index)
                const_vals.append(circuit.consts[arg0[index]])
            elif kind == KIND_RESIDUAL:
                low, high, vids = circuit.residuals[arg0[index]]
                residual_rows.append(index)
                residual_low.append(low)
                residual_high.append(high)
                residual_vids.append(vids)
            elif kind != KIND_ATOM:
                span = list(children[arg0[index]:arg1[index]])
                if not span:
                    # Degenerate inner node (never emitted by the
                    # compiler): its scalar value is the fold identity.
                    const_rows.append(index)
                    const_vals.append(0.0 if kind != KIND_PROD else 1.0)
                    continue
                level = 1 + max(levels[child] for child in span)
                levels[index] = level
                key = (level, kind, len(span))
                bucket = grouped.get(key)
                if bucket is None:
                    bucket = ([], [])
                    grouped[key] = bucket
                bucket[0].append(index)
                bucket[1].append(span)

        self._const_rows = np.array(const_rows, dtype=np.int64)
        self._const_vals = np.array(const_vals, dtype=np.float64)
        pinned = circuit._pinned
        self._pinned_rows = np.array(
            [circuit.atom_nodes[atom_id] for atom_id in pinned],
            dtype=np.int64,
        )
        self._pinned_vals = np.array(
            list(pinned.values()), dtype=np.float64
        )
        self._residual_rows = np.array(residual_rows, dtype=np.int64)
        self._residual_low = np.array(residual_low, dtype=np.float64)
        self._residual_high = np.array(residual_high, dtype=np.float64)
        self._residual_vids = residual_vids
        #: Level-ordered op segments: ``(kind, nodes (m,), spans (m, arity))``.
        self._groups: List[Tuple[int, Any, Any]] = [
            (
                key[1],
                np.array(nodes, dtype=np.int64),
                np.array(spans, dtype=np.int64),
            )
            for key, (nodes, spans) in sorted(
                grouped.items(), key=lambda item: item[0]
            )
        ]
        self._sample_plans: Optional[List[Tuple[Any, List[Tuple[int, int]]]]]
        self._sample_plans = None

    # -- introspection ---------------------------------------------------
    @property
    def atom_count(self) -> int:
        return len(self.atom_ids)

    def __repr__(self) -> str:
        return (
            f"CircuitKernel({self.size} nodes, {self.atom_count} atom "
            f"columns, {len(self._groups)} op segments)"
        )

    # -- input matrices --------------------------------------------------
    def base_matrix(self, scenarios: int) -> Any:
        """A ``(scenarios, atoms)`` matrix of base registry probabilities.

        Patch scenario overrides into rows of the result before calling
        the batch entry points (pinned atoms need no patching — the
        kernel clamps them regardless).
        """
        np = require_numpy()
        registry = self.circuit.registry
        base = np.array(
            [
                registry.atom_probability(atom_id)
                for atom_id in self.atom_ids
            ],
            dtype=np.float64,
        )
        return np.tile(base, (max(0, scenarios), 1))

    def _check_matrix(self, prob_matrix: Any) -> Any:
        np = require_numpy()
        matrix = np.asarray(prob_matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.atom_count:
            raise ValueError(
                f"prob_matrix must be (scenarios, {self.atom_count}) "
                f"for this circuit, got shape {getattr(matrix, 'shape', None)}"
            )
        return matrix

    # -- forward sweeps --------------------------------------------------
    def _forward_plane(
        self, matrix: Any, residual_plane: Optional[Any]
    ) -> Any:
        """One batched forward sweep; returns the (nodes, S) value plane.

        ``matrix`` is (S, atoms); ``residual_plane`` is (residuals, S)
        or None for exact circuits.  Accumulations loop the arity axis
        left-to-right for bit-identity with the scalar ``_forward``.
        """
        np = require_numpy()
        scenarios = matrix.shape[0]
        values = np.empty((self.size, scenarios), dtype=np.float64)
        if self._const_rows.size:
            values[self._const_rows] = self._const_vals[:, None]
        if self._atom_rows.size:
            values[self._atom_rows] = matrix.T
        if self._pinned_rows.size:
            values[self._pinned_rows] = self._pinned_vals[:, None]
        if residual_plane is not None and self._residual_rows.size:
            values[self._residual_rows] = residual_plane
        for kind, nodes, spans in self._groups:
            arity = spans.shape[1]
            if kind == KIND_PROD:
                acc = values[spans[:, 0]]
                for column in range(1, arity):
                    acc *= values[spans[:, column]]
            elif kind == KIND_OR:
                acc = 1.0 - values[spans[:, 0]]
                for column in range(1, arity):
                    acc *= 1.0 - values[spans[:, column]]
                acc = 1.0 - acc
            else:  # KIND_SUM
                acc = values[spans[:, 0]]
                for column in range(1, arity):
                    acc += values[spans[:, column]]
                np.minimum(acc, 1.0, out=acc)
            values[nodes] = acc
        return values

    def _residual_planes(
        self, scenarios: int, touched: TouchedSets
    ) -> Tuple[Any, Any]:
        """(residuals, S) lower/upper planes with per-scenario voiding."""
        np = require_numpy()
        low = np.tile(self._residual_low[:, None], (1, scenarios))
        high = np.tile(self._residual_high[:, None], (1, scenarios))
        if touched is not None:
            by_set: Dict[FrozenSet[int], List[int]] = {}
            for scenario, touched_set in enumerate(touched):
                if touched_set:
                    by_set.setdefault(touched_set, []).append(scenario)
            for touched_set, columns in by_set.items():
                cols = np.array(columns, dtype=np.int64)
                for row, vids in enumerate(self._residual_vids):
                    if not touched_set.isdisjoint(vids):
                        low[row, cols] = 0.0
                        high[row, cols] = 1.0
        return low, high

    def evaluate_batch(
        self, prob_matrix: Any, touched: TouchedSets = None
    ) -> Any:
        """Per-scenario probabilities, one batched sweep — the
        vectorized :meth:`Circuit.evaluate`.

        Exact circuits return the exact column; partial circuits the
        per-scenario interval midpoints of :meth:`bounds_batch` (with
        ``touched`` widening residuals per scenario).
        """
        np = require_numpy()
        matrix = self._check_matrix(prob_matrix)
        scenarios = matrix.shape[0]
        if not self.size:
            return np.zeros(scenarios, dtype=np.float64)
        if self.circuit.is_exact:
            values = self._forward_plane(matrix, None)
            return values[-1].copy()
        bounds = self.bounds_batch(matrix, touched)
        return (bounds[:, 0] + bounds[:, 1]) / 2.0

    def bounds_batch(
        self, prob_matrix: Any, touched: TouchedSets = None
    ) -> Any:
        """Certified per-scenario ``[lower, upper]`` columns, shape
        (scenarios, 2) — the vectorized :meth:`Circuit.evaluate_bounds`.

        Exact circuits return point intervals.  Partial circuits run
        the two interval lanes as independent forward sweeps (the
        Prop. 5.4 combination formulas are componentwise monotone, so
        the lanes never interact); residual leaves broadcast their
        stored bounds, widened to ``[0, 1]`` in the scenarios whose
        ``touched`` sets intersect their variables.
        """
        np = require_numpy()
        matrix = self._check_matrix(prob_matrix)
        scenarios = matrix.shape[0]
        if not self.size:
            return np.zeros((scenarios, 2), dtype=np.float64)
        if self.circuit.is_exact:
            values = self._forward_plane(matrix, None)
            root = values[-1]
            return np.stack([root, root], axis=1)
        low_plane, high_plane = self._residual_planes(scenarios, touched)
        lower = self._forward_plane(matrix, low_plane)[-1]
        upper = self._forward_plane(matrix, high_plane)[-1]
        return np.stack([lower, upper], axis=1)

    # -- backward sweep --------------------------------------------------
    def gradients_batch(
        self, prob_matrix: Any, touched: TouchedSets = None
    ) -> Any:
        """Per-scenario atom adjoints ``∂P/∂p(atom)``, shape
        (scenarios, atoms) with columns in :attr:`atom_ids` order — the
        vectorized :meth:`Circuit.atom_gradients`.

        One forward plus one batched backward sweep for *all* scenarios
        and *all* atoms.  The forward linearization point matches the
        scalar sweep (residual leaves at their — possibly widened —
        interval midpoints); parent contributions accumulate in level
        order rather than node order, so agreement with the scalar
        adjoints is ~1e-12, not bit-exact.
        """
        np = require_numpy()
        matrix = self._check_matrix(prob_matrix)
        scenarios = matrix.shape[0]
        if not self.size or not self.atom_count:
            return np.zeros((scenarios, self.atom_count), dtype=np.float64)
        if self.circuit.is_exact:
            residual_plane = None
        else:
            low_plane, high_plane = self._residual_planes(
                scenarios, touched
            )
            residual_plane = (low_plane + high_plane) / 2.0
        values = self._forward_plane(matrix, residual_plane)
        adjoints = np.zeros((self.size, scenarios), dtype=np.float64)
        adjoints[-1] = 1.0
        for kind, nodes, spans in reversed(self._groups):
            node_adjoint = adjoints[nodes]
            arity = spans.shape[1]
            if kind == KIND_SUM:
                for column in range(arity):
                    np.add.at(adjoints, spans[:, column], node_adjoint)
                continue
            # PROD / OR: ∂(Π tⱼ)/∂tᵢ = Π_{j≠i} tⱼ via prefix/suffix
            # products (zero-factor robust).  For ⊗ the terms are the
            # complements and the two sign flips cancel (see
            # Circuit._push_product).
            if kind == KIND_OR:
                terms = [
                    1.0 - values[spans[:, column]]
                    for column in range(arity)
                ]
            else:
                terms = [
                    values[spans[:, column]] for column in range(arity)
                ]
            prefix = np.ones_like(node_adjoint)
            prefixes = []
            for column in range(arity):
                prefixes.append(prefix)
                if column + 1 < arity:
                    prefix = prefix * terms[column]
            suffix = np.ones_like(node_adjoint)
            for column in range(arity - 1, -1, -1):
                contribution = node_adjoint * prefixes[column] * suffix
                np.add.at(adjoints, spans[:, column], contribution)
                if column:
                    suffix = suffix * terms[column]
        return adjoints[self._atom_rows].T

    # -- Monte Carlo -----------------------------------------------------
    def _build_sample_plans(self) -> List[Tuple[Any, List[Tuple[int, int]]]]:
        """Per-variable inverse-CDF plans for world sampling.

        One plan per unpinned circuit variable: the cumulative
        distribution over the registry's (deterministic) domain order,
        plus the matrix columns of the domain values that actually have
        input nodes.  Conditioned variables are skipped — their atom
        rows are clamped in the forward sweep regardless of input.
        """
        np = require_numpy()
        circuit = self.circuit
        registry = circuit.registry
        plans: List[Tuple[Any, List[Tuple[int, int]]]] = []
        for var_id in circuit.var_atoms:
            if var_id in circuit._pinned_vids:
                continue
            name = variable_name(var_id)
            domain = registry.domain(name)
            cumulative = np.cumsum(
                [registry.probability(name, value) for value in domain]
            )
            cumulative[-1] = 1.0
            columns: List[Tuple[int, int]] = []
            for value_index, value in enumerate(domain):
                atom_id, _vid = lookup_atom(name, value)
                if atom_id is not None and atom_id in self.atom_index:
                    columns.append((value_index, self.atom_index[atom_id]))
            plans.append((cumulative, columns))
        return plans

    def sample_matrix(self, count: int, rng: Any) -> Any:
        """``count`` Bernoulli worlds as a 0/1 ``(count, atoms)`` matrix.

        Each unpinned variable is drawn once from its registry
        distribution (inverse-CDF on uniform draws from ``rng``, a
        ``numpy.random.Generator``) and expanded into indicator columns
        for its atoms, so :meth:`evaluate_batch` on the result yields
        the 0/1 truth values of the lineage in those worlds — the
        circuit's ⊕ branches are exclusive and exhaustive, ⊗/⊙ reduce
        to or/and on indicator inputs.
        """
        np = require_numpy()
        if self._sample_plans is None:
            self._sample_plans = self._build_sample_plans()
        matrix = np.zeros((count, self.atom_count), dtype=np.float64)
        for cumulative, columns in self._sample_plans:
            draws = rng.random(count)
            picks = np.searchsorted(cumulative, draws, side="right")
            np.minimum(picks, len(cumulative) - 1, out=picks)
            for value_index, column in columns:
                matrix[:, column] = picks == value_index
        return matrix

    def sample_worlds(
        self, count: int, rng_seed: Optional[int] = None
    ) -> Any:
        """``count`` sampled truth values of the lineage, shape (count,).

        Convenience wrapper: draws :meth:`sample_matrix` worlds with a
        fresh ``default_rng(rng_seed)`` and evaluates them.  Only exact
        circuits induce a sampleable distribution — partial circuits
        raise (their residual leaves are intervals, not events).
        """
        np = require_numpy()
        if not self.circuit.is_exact:
            raise ValueError(
                "sample_worlds needs an exact circuit: residual leaves "
                "of a partial circuit are bounds, not sampleable events"
            )
        rng = np.random.default_rng(rng_seed)
        return self.evaluate_batch(self.sample_matrix(count, rng))


def circuit_kernel(circuit: Circuit) -> CircuitKernel:
    """The circuit's lowered kernel, built once and cached on it.

    Lowering is O(nodes + edges) of Python work — wasted when repeated
    per sweep call (and per serving request).  The kernel is cached on
    the :class:`Circuit` instance itself; every derivation that could
    invalidate it (``condition()``, ``expand_residuals``) returns a new
    Circuit object, so object identity is the invalidation rule and a
    cached kernel can never disagree with its circuit.  Benign under
    concurrent readers: the only race is two threads lowering the same
    circuit once each, and either result is equivalent.
    """
    kernel = circuit._kernel
    if kernel is None:
        kernel = CircuitKernel(circuit)
        circuit._kernel = kernel
    return kernel  # type: ignore[return-value]


class CircuitSampler:
    """A chunked circuit-world sampler with the DKLR unit interface.

    :meth:`sample_unit` returns one 0/1 truth value per call — exactly
    the ``sample`` callable :func:`~repro.mc.dklr.approximation_algorithm_estimate`
    consumes — but draws and evaluates worlds in vectorized blocks of
    ``chunk`` under the hood, so the per-sample Python cost is a buffer
    index instead of a full lineage evaluation.  Deterministic for a
    given ``seed`` regardless of how many samples the driver consumes.
    """

    __slots__ = ("kernel", "_rng", "_chunk", "_buffer", "_cursor")

    def __init__(
        self,
        circuit: Circuit,
        *,
        seed: Optional[int] = None,
        chunk: int = 1024,
        kernel: Optional[CircuitKernel] = None,
    ) -> None:
        np = require_numpy()
        if not circuit.is_exact:
            raise ValueError(
                "CircuitSampler needs an exact circuit: residual leaves "
                "of a partial circuit are bounds, not sampleable events"
            )
        self.kernel = kernel if kernel is not None else CircuitKernel(circuit)
        self._rng = np.random.default_rng(seed)
        self._chunk = max(1, int(chunk))
        self._buffer: Optional[Any] = None
        self._cursor = 0

    def sample_block(self, count: int) -> Any:
        """``count`` sampled lineage truth values, shape (count,)."""
        kernel = self.kernel
        return kernel.evaluate_batch(
            kernel.sample_matrix(count, self._rng)
        )

    def sample_unit(self) -> float:
        """One sampled truth value in ``[0, 1]`` (the DKLR interface)."""
        if self._buffer is None or self._cursor >= self._buffer.shape[0]:
            self._buffer = self.sample_block(self._chunk)
            self._cursor = 0
        value = self._buffer[self._cursor]
        self._cursor += 1
        return float(value)


def circuit_monte_carlo(
    circuit: Circuit,
    *,
    epsilon: float,
    delta: float,
    seed: Optional[int] = None,
    max_samples: Optional[int] = None,
    chunk: int = 1024,
) -> MonteCarloResult:
    """(ε, δ)-relative MC estimate of ``P(Φ)`` sampled *on the circuit*.

    Drives the same DKLR 𝒜𝒜 driver as the scalar ``aconf`` rung — so
    the result carries identical interval semantics
    (``Pr[|p − p̂| ≥ ε·p] ≤ δ`` when not capped, plain running average
    flagged ``capped`` when ``max_samples`` cut the run short) — but
    each estimator invocation is a vectorized circuit-world sample
    instead of a Python Karp–Luby round.  The estimator is the 0/1
    world indicator (mean exactly ``P(Φ)``), unbiased because an exact
    circuit evaluates indicator inputs to the lineage's truth value.
    """
    sampler = CircuitSampler(circuit, seed=seed, chunk=chunk)
    run = approximation_algorithm_estimate(
        sampler.sample_unit, epsilon, delta, max_samples=max_samples
    )
    return MonteCarloResult(
        min(1.0, run.estimate), run.samples, run.capped
    )
