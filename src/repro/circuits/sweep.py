"""Scenario sweeps: one circuit, thousands of probability worlds.

A *sweep* evaluates a compiled circuit under a whole list of override
scenarios — a sensitivity grid, a what-if parameter scan, a stress
batch of probability worlds — in one call.  When numpy is importable
(:mod:`repro.circuits.kernels`) the circuit is lowered once and the
scenarios flow through it as a ``(scenarios × atoms)`` matrix; without
numpy the same functions fall back to per-scenario scalar sweeps, so
results are available (and, for evaluation and bounds, bit-identical)
on every install.  There is no switch between the two: the import
decides.

Small batches skip the kernel even with numpy.  Lowering is cached per
circuit, but every kernel call still builds the base-probability row
atom by atom and walks the circuit's node groups in Python, so its fixed
cost grows with the circuit, whatever the row count; a batch of one row
costs 3–6× one scalar :meth:`Circuit.evaluate`.  :func:`sweep_values`
and :func:`sweep_bounds` therefore send a batch to the kernel only from
:data:`KERNEL_MIN_ROWS` (8) scenarios up and run the per-scenario scalar
loop below that.  The crossover is a row count, not rows × nodes: both
paths grow about linearly in the node count, so the node count drops out
of the break-even point.  The scalar loop is the kernel's bit-identity
oracle, so values and bounds are bit-identical on either side of the
crossover.  :func:`sweep_gradients` uses the kernel for every batch: its
adjoint fold agrees with the scalar one only to ~1e-12, and a switch on
the batch size would make a scenario's gradients depend on its company.

Scenario maps use exactly the :meth:`Circuit.evaluate` override
vocabulary — ``{variable: P(True)}`` floats for Boolean variables or
``{variable: {value: prob}}`` distributions — and are validated the
same way (unknown variables raise, irrelevant ones are no-ops, touched
residual leaves widen per scenario).

Entry points: :func:`sweep_values`, :func:`sweep_bounds`,
:func:`sweep_gradients`, and the grid helper
:func:`what_if_scenarios`; :class:`SweepResult` is the multi-answer
container returned by :meth:`CompiledResult.sweep` and
:meth:`QueryResult.sweep`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.variables import atom_entry, variable_name
from .circuit import Bounds, Circuit, ProbOverrides, Resolution
from .kernels import (
    BACKEND_NUMPY,
    CircuitKernel,
    circuit_kernel,
    kernel_backend,
)

__all__ = [
    "KERNEL_MIN_ROWS",
    "SweepResult",
    "refine_sweep_bounds",
    "sweep_bounds",
    "sweep_gradients",
    "sweep_values",
    "what_if_scenarios",
]

Scenarios = Sequence[Optional[ProbOverrides]]

#: Batches of at least this many scenarios go to the numpy kernel;
#: smaller ones run the scalar per-scenario loop.  Measured with warm
#: kernels (2-CPU x86-64 container, Python 3.11, numpy 2.4) on exact
#: circuits of 5–191 nodes, the serving benchmark's TPC-H store circuits
#: (5–30 nodes) among them, values and bounds alike: one row costs
#: 30 µs on the kernel against 8 µs scalar at 5 nodes, 149 against 27 µs
#: at 30 nodes, 678 against 144 µs at 191 nodes; the paths break even at
#: 6–8 rows for every size; at 12 rows the kernel is ahead everywhere
#: (30 nodes: 199 against 306 µs), at 64 rows by 2–8×.
KERNEL_MIN_ROWS = 8


def what_if_scenarios(
    variable: Hashable, probabilities: Sequence[float]
) -> List[Dict[Hashable, float]]:
    """One scenario per probability: ``[{variable: p}, ...]``.

    The standard one-dimensional what-if grid — sweep a single Boolean
    tuple's probability across a range and watch every answer's
    confidence respond.
    """
    return [{variable: float(prob)} for prob in probabilities]


def _resolve(circuit: Circuit, scenarios: Scenarios) -> List[Resolution]:
    """Each scenario through the circuit's own override resolution, so
    the sweep validates and widens exactly like the scalar entry points.
    """
    return [circuit._resolve_overrides(overrides) for overrides in scenarios]


def _split(
    resolutions: Sequence[Resolution],
) -> Tuple[List[Dict[int, float]], List[FrozenSet[int]]]:
    """Resolved atom overrides and touched variable sets, as two lists."""
    return (
        [resolved for resolved, _touched in resolutions],
        [touched for _resolved, touched in resolutions],
    )


def _resolved_inputs(
    circuit: Circuit, scenarios: Scenarios
) -> Tuple[List[Dict[int, float]], List[FrozenSet[int]]]:
    """Per-scenario resolved atom overrides + touched variable sets."""
    return _split(_resolve(circuit, scenarios))


def _scenario_matrix(
    kernel: CircuitKernel, resolved_list: List[Dict[int, float]]
) -> object:
    """The (scenarios, atoms) input matrix for a resolved scenario list."""
    matrix = kernel.base_matrix(len(resolved_list))
    atom_index = kernel.atom_index
    for row, resolved in enumerate(resolved_list):
        for atom_id, prob in resolved.items():
            matrix[row, atom_index[atom_id]] = prob
    return matrix


def _use_kernel(circuit: Circuit) -> bool:
    return kernel_backend() == BACKEND_NUMPY and len(circuit.kinds) > 0


def sweep_values(
    circuit: Circuit,
    scenarios: Scenarios,
    *,
    resolved: Optional[Sequence[Resolution]] = None,
) -> List[float]:
    """``P(Φ)`` per scenario (interval midpoints on partial circuits).

    Bit-identical to ``[circuit.evaluate(s) for s in scenarios]``; from
    :data:`KERNEL_MIN_ROWS` scenarios up the numpy backend pays one
    batched sweep instead of one Python sweep per scenario.  A caller
    that validated the scenarios already passes their
    ``circuit._resolve_overrides`` results as ``resolved`` (one per
    scenario), so no scenario is resolved twice.
    """
    if resolved is None:
        resolved = _resolve(circuit, scenarios)
    if len(resolved) < KERNEL_MIN_ROWS or not _use_kernel(circuit):
        return [circuit._value(resolution) for resolution in resolved]
    kernel = circuit_kernel(circuit)
    resolved_list, touched_list = _split(resolved)
    matrix = _scenario_matrix(kernel, resolved_list)
    return kernel.evaluate_batch(matrix, touched_list).tolist()


def sweep_bounds(
    circuit: Circuit,
    scenarios: Scenarios,
    *,
    resolved: Optional[Sequence[Resolution]] = None,
) -> List[Bounds]:
    """Certified ``[lower, upper]`` per scenario (points when exact).

    Bit-identical to per-scenario :meth:`Circuit.evaluate_bounds`; the
    kernel takes over from :data:`KERNEL_MIN_ROWS` scenarios up.
    ``resolved`` is as for :func:`sweep_values`.
    """
    if resolved is None:
        resolved = _resolve(circuit, scenarios)
    if len(resolved) < KERNEL_MIN_ROWS or not _use_kernel(circuit):
        return [circuit._bounds(resolution) for resolution in resolved]
    kernel = circuit_kernel(circuit)
    resolved_list, touched_list = _split(resolved)
    matrix = _scenario_matrix(kernel, resolved_list)
    bounds = kernel.bounds_batch(matrix, touched_list)
    return [tuple(row) for row in bounds.tolist()]


def refine_sweep_bounds(
    circuit: Circuit,
    scenarios: Scenarios,
    *,
    compile_subcircuit: "Callable[[object], Circuit]",
    target_width: float = 0.0,
    max_rounds: int = 16,
) -> Tuple[Circuit, List[Bounds]]:
    """Tighten a partial circuit's bounds across many scenarios at once.

    The batched analogue of resuming a truncated ε-run: each round
    picks the residual leaf with the widest *effective* width over the
    whole scenario batch (a leaf touched by any scenario's overrides
    counts as ``[0, 1]`` wide — see :meth:`Circuit.widest_residual`),
    compiles its recorded sub-DNF via ``compile_subcircuit`` (pass
    ``engine.compile_circuit`` so the shared decomposition cache
    replays the original trace), splices it in with
    :func:`~repro.circuits.expand_residuals`, and re-sweeps **all**
    scenarios in one batched pass — so uncertainty shrinks uniformly
    across the batch instead of per request.

    Stops when every scenario's interval is at most ``target_width``
    wide, after ``max_rounds`` expansions, or when no refinable leaf
    remains (deserialized circuits do not carry sub-DNFs; their leaves
    are skipped).  Returns the refined circuit — the input is never
    mutated — and its per-scenario bounds.
    """
    from .compiler import expand_residuals

    bounds = sweep_bounds(circuit, scenarios)
    rounds = 0
    while circuit.residuals and rounds < max_rounds:
        if all(high - low <= target_width for low, high in bounds):
            break
        _resolved, touched_list = _resolved_inputs(circuit, scenarios)
        index = circuit.widest_residual(touched_list)
        if index is None:
            break
        sub_dnf = circuit.residual_dnfs[index]
        circuit = expand_residuals(
            circuit, {index: compile_subcircuit(sub_dnf)}
        )
        bounds = sweep_bounds(circuit, scenarios)
        rounds += 1
    return circuit, bounds


def sweep_gradients(
    circuit: Circuit,
    scenarios: Scenarios,
) -> List[Dict[Hashable, float]]:
    """Per-scenario Boolean-variable gradients ``∂P/∂p(x)``.

    The batched :meth:`Circuit.gradients`: each scenario's dict maps
    every unpinned Boolean input variable to its sensitivity at that
    scenario's probabilities.  The numpy backend folds atom adjoints
    per variable in the same order as the scalar method; agreement is
    ~1e-12 (adjoint accumulation order differs), not bit-exact.
    """
    if not _use_kernel(circuit):
        return [circuit.gradients(overrides) for overrides in scenarios]
    kernel = circuit_kernel(circuit)
    resolved_list, touched_list = _resolved_inputs(circuit, scenarios)
    matrix = _scenario_matrix(kernel, resolved_list)
    adjoints = kernel.gradients_batch(matrix, touched_list)
    registry = circuit.registry
    # (name, signed column list) per reported variable, mirroring the
    # scalar fold: + for the True atom, - for the False atom.
    folds: List[Tuple[Hashable, List[Tuple[float, int]]]] = []
    for var_id, atom_ids in circuit.var_atoms.items():
        if var_id in circuit._pinned_vids:
            continue
        name = variable_name(var_id)
        if name not in registry or not registry.is_boolean(name):
            continue
        signed: List[Tuple[float, int]] = []
        for atom_id in atom_ids:
            _vid, _name, value = atom_entry(atom_id)
            if value is True:
                signed.append((1.0, kernel.atom_index[atom_id]))
            elif value is False:
                signed.append((-1.0, kernel.atom_index[atom_id]))
        folds.append((name, signed))
    out: List[Dict[Hashable, float]] = []
    for row in range(adjoints.shape[0]):
        gradients: Dict[Hashable, float] = {}
        for name, signed in folds:
            gradient = 0.0
            for sign, column in signed:
                gradient += sign * adjoints[row, column]
            gradients[name] = gradient
        out.append(gradients)
    return out


class SweepResult:
    """A scenario sweep over a whole answer set.

    ``values[i][s]`` is answer ``i``'s confidence in scenario ``s``
    (interval midpoint for partial circuits).  ``backend`` records
    the backend that batched sweeps use (``"numpy"`` or ``"scalar"``);
    batches below :data:`KERNEL_MIN_ROWS` scenarios run the scalar loop
    either way.  The two agree bit-for-bit, so the field is provenance,
    not semantics.
    """

    __slots__ = ("answers", "values", "backend")

    def __init__(
        self,
        answers: Sequence[Tuple[Hashable, ...]],
        values: Sequence[Sequence[float]],
        backend: str,
    ) -> None:
        self.answers = list(answers)
        self.values = [list(row) for row in values]
        self.backend = backend

    @property
    def scenario_count(self) -> int:
        return len(self.values[0]) if self.values else 0

    def __len__(self) -> int:
        return len(self.answers)

    def row(self, answer: Tuple[Hashable, ...]) -> List[float]:
        """The per-scenario values of one answer tuple."""
        try:
            index = self.answers.index(answer)
        except ValueError:
            raise KeyError(f"unknown answer {answer!r}") from None
        return list(self.values[index])

    def column(self, scenario: int) -> List[Tuple[Tuple[Hashable, ...], float]]:
        """All answers' values in one scenario, as (answer, value) pairs."""
        return [
            (answer, self.values[index][scenario])
            for index, answer in enumerate(self.answers)
        ]

    def __repr__(self) -> str:
        return (
            f"SweepResult({len(self.answers)} answers × "
            f"{self.scenario_count} scenarios, {self.backend} backend)"
        )
