"""Differential tests for the vectorized kernel layer.

The contract of :mod:`repro.circuits.kernels` is that vectorization is
an *execution* detail, never a semantics one:

* batched circuit evaluation and bounds are **bit-identical** to the
  scalar :meth:`Circuit.evaluate` / :meth:`Circuit.evaluate_bounds`
  sweeps — on exact, partial, and conditioned circuits alike — because
  every kernel accumulation walks the same operands in the same order
  as the scalar recursion;
* batched gradients agree with :meth:`Circuit.gradients` to ~1e-12
  (the backward sweep accumulates adjoints in a different order, which
  is the one place bit-identity is not promised);
* circuit Monte Carlo is seed-deterministic and plugs into the engine's
  MC rung with the same ``(ε, δ)`` relative-error semantics as aconf;
* everything in this file also runs — and passes — without numpy, the
  batched paths then being literal aliases of the scalar ones.  The
  backend has one rule, numpy when importable, so the scalar fallback
  is reached by hiding numpy (``monkeypatch`` on ``kernels._np``, or a
  subprocess whose ``import numpy`` fails), never by a switch.

Like the parallel differential suite, generation is plain seeded
``random.Random`` (``make_group`` is shared), so any failure reproduces
from the seed in its assertion message.
"""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro import circuits
from repro.circuits import kernels
from repro.circuits.kernels import (
    BACKEND_NUMPY,
    BACKEND_SCALAR,
    CircuitKernel,
    CircuitSampler,
    KernelUnavailableError,
    circuit_monte_carlo,
    clause_probability_batch,
    kernel_backend,
    numpy_available,
)
from repro.circuits import sweep as sweep_module
from repro.circuits.sweep import (
    KERNEL_MIN_ROWS,
    SweepResult,
    sweep_bounds,
    sweep_gradients,
    sweep_values,
    what_if_scenarios,
)
from repro.core.bounds import bucket_partition, independent_bounds
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine, EngineConfig
from repro.db import ProbDB

from test_parallel_differential import make_group

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)

GROUPS = ((11, 12), (12, 12), (13, 12))  # (seed, cases) triples
PARTIAL_BUDGET = 6  # small enough to leave residual leaves routinely


def scenario_batch(registry, rng, count, *, skip=()):
    """``count`` random override scenarios over ``registry``.

    Mixes ``None`` (base probabilities), single- and multi-variable
    overrides, and the occasional 0.0/1.0 clamp — the values that
    exercise residual widening and OR complement arithmetic hardest.
    """
    names = [
        name for name in registry.variables() if name not in skip
    ]
    scenarios = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            scenarios.append(None)
            continue
        overrides = {}
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(names)
            pick = rng.random()
            if pick < 0.1:
                overrides[name] = 0.0
            elif pick < 0.2:
                overrides[name] = 1.0
            else:
                overrides[name] = rng.random()
        scenarios.append(overrides)
    return scenarios


def wide_group(tag, seed, cases, variables=12):
    """Like ``make_group`` but with 8–20 clauses per DNF, so clause
    marginals take the batched path (``_VECTORIZE_MIN_CLAUSES``)."""
    rng = random.Random(seed)
    names = [f"{tag}w{seed}v{i}" for i in range(variables)]
    registry = VariableRegistry.from_boolean_probabilities(
        {name: rng.uniform(0.05, 0.95) for name in names}
    )
    dnfs = [
        DNF(
            Clause(
                {
                    name: rng.random() < 0.6
                    for name in rng.sample(names, rng.randint(2, 3))
                }
            )
            for _ in range(rng.randint(8, 20))
        )
        for _ in range(cases)
    ]
    return registry, dnfs


def compiled_cases(tag, seed, cases):
    """(circuit, registry, dnf, rng) cases: exact, partial, conditioned."""
    registry, dnfs = make_group(tag, seed, cases)
    engine = ConfidenceEngine(registry)
    rng = random.Random(seed * 1013)
    names = list(registry.variables())
    for dnf in dnfs:
        exact = engine.compile_circuit(dnf)
        yield exact, registry, dnf, rng, ()
        partial = engine.compile_circuit(dnf, max_nodes=PARTIAL_BUDGET)
        yield partial, registry, dnf, rng, ()
        pivot = rng.choice(names)
        conditioned = exact.condition(pivot, rng.random() < 0.5)
        yield conditioned, registry, dnf, rng, (pivot,)


# ----------------------------------------------------------------------
# Batch vs scalar differential sweeps
# ----------------------------------------------------------------------
def kernel_batch(circuit, scenarios, *, bounds=False):
    """The numpy kernel's own answer for ``scenarios`` as plain Python
    values, whatever the batch size, or None without numpy (or for an
    empty circuit, which the sweeps never lower)."""
    if not numpy_available() or not len(circuit.kinds):
        return None
    kernel = circuits.circuit_kernel(circuit)
    resolved, touched = sweep_module._resolved_inputs(circuit, scenarios)
    matrix = sweep_module._scenario_matrix(kernel, resolved)
    if bounds:
        return [
            tuple(row)
            for row in kernel.bounds_batch(matrix, touched).tolist()
        ]
    return kernel.evaluate_batch(matrix, touched).tolist()


@pytest.mark.parametrize("seed,cases", GROUPS)
def test_sweep_values_bit_identical(seed, cases):
    """Batched evaluation == scalar evaluation, bit for bit — through
    the sweep and straight through the kernel, since six scenarios sit
    below the sweep's kernel crossover."""
    for circuit, registry, dnf, rng, skip in compiled_cases(
        "kv", seed, cases
    ):
        scenarios = scenario_batch(registry, rng, 6, skip=skip)
        batched = sweep_values(circuit, scenarios)
        scalar = [circuit.evaluate(s) for s in scenarios]
        assert batched == scalar, (
            f"seed={seed} dnf={dnf} scenarios={scenarios}: "
            f"{batched} != {scalar}"
        )
        kernel = kernel_batch(circuit, scenarios)
        assert kernel in (None, scalar), (
            f"seed={seed} dnf={dnf} scenarios={scenarios}: "
            f"kernel {kernel} != {scalar}"
        )


@pytest.mark.parametrize("seed,cases", GROUPS)
def test_sweep_bounds_bit_identical(seed, cases):
    """Batched bounds == scalar bounds on exact AND partial circuits,
    through the sweep and straight through the kernel."""
    for circuit, registry, dnf, rng, skip in compiled_cases(
        "kb", seed, cases
    ):
        scenarios = scenario_batch(registry, rng, 6, skip=skip)
        batched = sweep_bounds(circuit, scenarios)
        scalar = [circuit.evaluate_bounds(s) for s in scenarios]
        assert batched == scalar, (
            f"seed={seed} dnf={dnf} scenarios={scenarios}: "
            f"{batched} != {scalar}"
        )
        kernel = kernel_batch(circuit, scenarios, bounds=True)
        assert kernel in (None, scalar), (
            f"seed={seed} dnf={dnf} scenarios={scenarios}: "
            f"kernel {kernel} != {scalar}"
        )
        for lower, upper in batched:
            assert 0.0 <= lower <= upper <= 1.0


def test_kernel_runs_from_the_crossover_up():
    """Below KERNEL_MIN_ROWS the sweeps stay on the scalar loop and
    never lower a kernel; from it up they lower one.  Both sides equal
    the scalar answers bit for bit, values and bounds alike."""
    for circuit, registry, dnf, rng, skip in compiled_cases("kx", 43, 4):
        below = scenario_batch(registry, rng, KERNEL_MIN_ROWS - 1, skip=skip)
        above = scenario_batch(registry, rng, KERNEL_MIN_ROWS, skip=skip)
        circuit._kernel = None
        assert sweep_values(circuit, below) == [
            circuit.evaluate(s) for s in below
        ]
        assert sweep_bounds(circuit, below) == [
            circuit.evaluate_bounds(s) for s in below
        ]
        assert circuit._kernel is None, f"dnf={dnf}: lowered below"
        assert sweep_values(circuit, above) == [
            circuit.evaluate(s) for s in above
        ]
        assert sweep_bounds(circuit, above) == [
            circuit.evaluate_bounds(s) for s in above
        ]
        lowered = circuit._kernel is not None
        assert lowered == (numpy_available() and len(circuit.kinds) > 0)


@pytest.mark.parametrize("seed,cases", GROUPS)
def test_sweep_gradients_close(seed, cases):
    """Batched gradients match the scalar backward sweep to ~1e-12."""
    for circuit, registry, dnf, rng, skip in compiled_cases(
        "kg", seed, cases
    ):
        scenarios = scenario_batch(registry, rng, 4, skip=skip)
        batched = sweep_gradients(circuit, scenarios)
        scalar = [circuit.gradients(s) for s in scenarios]
        assert [set(row) for row in batched] == [
            set(row) for row in scalar
        ]
        for row_b, row_s in zip(batched, scalar):
            for name, value in row_b.items():
                assert math.isclose(
                    value, row_s[name], rel_tol=1e-9, abs_tol=1e-12
                ), f"seed={seed} dnf={dnf} var={name}: {value} != {row_s[name]}"


def test_sweep_residual_widening_matches_scalar():
    """Overriding a residual leaf's variable widens per scenario, not
    globally — scenario s touching the leaf must not widen scenario t."""
    registry, dnfs = make_group("kw", 17, 8)
    engine = ConfidenceEngine(registry)
    from repro.core.variables import variable_name

    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf, max_nodes=PARTIAL_BUDGET)
        residual_vids = set().union(
            *(vids for _lo, _hi, vids in circuit.residuals), frozenset()
        )
        if not residual_vids:
            continue
        touched = {variable_name(next(iter(residual_vids))): 0.5}
        scenarios = [None, touched, None]
        scalar = [circuit.evaluate_bounds(s) for s in scenarios]
        assert sweep_bounds(circuit, scenarios) == scalar
        assert sweep_bounds(circuit, [None]) == [
            sweep_bounds(circuit, scenarios)[0]
        ]
        # The same batch straight through the kernel, and a batch big
        # enough for the sweep to take the kernel itself.
        assert kernel_batch(circuit, scenarios, bounds=True) in (
            None, scalar
        )
        wide = scenarios * KERNEL_MIN_ROWS
        assert sweep_bounds(circuit, wide) == scalar * KERNEL_MIN_ROWS


def test_sweep_rejects_unknown_variable():
    """Scenario validation is the scalar evaluate() validation."""
    registry, dnfs = make_group("ku", 23, 1)
    circuit = ConfidenceEngine(registry).compile_circuit(dnfs[0])
    with pytest.raises(KeyError):
        sweep_values(circuit, [None, {"no-such-variable": 0.5}])


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
@needs_numpy
def test_evaluate_batch_matches_point_evaluate():
    """The raw kernel on hand-built matrices equals circuit.evaluate."""
    registry, dnfs = make_group("kp", 31, 10)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf)
        kernel = CircuitKernel(circuit)
        matrix = kernel.base_matrix(3)
        values = kernel.evaluate_batch(matrix)
        expected = circuit.evaluate()
        assert list(values) == [expected] * 3


@needs_numpy
def test_clause_probability_batch_bit_identical():
    registry, dnfs = make_group("kc", 37, 12)
    for dnf in dnfs:
        clauses = dnf.sorted_clauses()
        batched = clause_probability_batch(clauses, registry)
        assert batched is not None
        assert batched == [
            clause.probability(registry) for clause in clauses
        ]


def test_bucket_partition_backend_invariant(monkeypatch):
    """Fig. 3 bounds are bit-identical whichever backend computed the
    clause marginals (the partition feeds exact d-tree leaf bounds)."""
    groups = [make_group("kq", 41, 15), wide_group("kq", 42, 15)]
    cases = [
        (registry, dnf) for registry, dnfs in groups for dnf in dnfs
    ]
    assert any(len(dnf) >= 8 for _registry, dnf in cases)
    partitions = [bucket_partition(dnf, registry) for registry, dnf in cases]
    bounds = [independent_bounds(dnf, registry) for registry, dnf in cases]
    monkeypatch.setattr(kernels, "_np", None)
    for (registry, dnf), partition, pair in zip(cases, partitions, bounds):
        reference = bucket_partition(dnf, registry)
        assert partition.probabilities == reference.probabilities
        assert partition.buckets == reference.buckets
        assert pair == independent_bounds(dnf, registry)


def test_probability_window_tracks_updates():
    """Rewriting a probability in place must reach the batched clause
    marginals: the cached dense window is keyed on the registry's
    atom-probability version, not on its length."""
    registry, dnfs = wide_group("kx", 71, 1)
    dnf = dnfs[0]
    clauses = dnf.sorted_clauses()
    assert len(clauses) >= 8
    before = bucket_partition(dnf, registry).probabilities
    for index, name in enumerate(list(registry.variables())[:4]):
        registry.set_boolean(name, 0.05 + 0.2 * index)
    scalar = [clause.probability(registry) for clause in clauses]
    if numpy_available():
        assert clause_probability_batch(clauses, registry) == scalar
    after = bucket_partition(dnf, registry)
    assert after.probabilities != before
    lower, upper = after.bounds()
    truth = brute_force_probability(dnf, registry)
    assert lower - 1e-12 <= truth <= upper + 1e-12


# ----------------------------------------------------------------------
# Monte Carlo on circuits
# ----------------------------------------------------------------------
@needs_numpy
def test_sample_worlds_reproducible():
    registry, dnfs = make_group("km", 43, 5)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf)
        kernel = CircuitKernel(circuit)
        first = kernel.sample_worlds(256, rng_seed=7)
        second = kernel.sample_worlds(256, rng_seed=7)
        assert (first == second).all()
        assert set(first.tolist()) <= {0.0, 1.0}
        # The sample mean estimates P(Φ) without bias.
        truth = brute_force_probability(dnf, registry)
        mean = kernel.sample_worlds(4096, rng_seed=11).mean()
        assert abs(mean - truth) < 0.05


@needs_numpy
def test_sample_worlds_requires_exact_circuit():
    registry, dnfs = make_group("kr", 47, 6)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        partial = engine.compile_circuit(dnf, max_nodes=PARTIAL_BUDGET)
        if partial.is_exact:
            continue
        with pytest.raises(ValueError):
            CircuitKernel(partial).sample_worlds(8, rng_seed=1)
        return
    pytest.skip("no partial circuit produced under the budget")


@needs_numpy
def test_circuit_monte_carlo_seeded_and_sound():
    registry, dnfs = make_group("kd", 53, 5)
    engine = ConfidenceEngine(registry)
    for dnf in dnfs:
        circuit = engine.compile_circuit(dnf)
        first = circuit_monte_carlo(
            circuit, epsilon=0.1, delta=0.01, seed=17
        )
        second = circuit_monte_carlo(
            circuit, epsilon=0.1, delta=0.01, seed=17
        )
        assert first.estimate == second.estimate
        assert first.samples == second.samples
        truth = brute_force_probability(dnf, registry)
        # (ε, δ) relative guarantee, checked loosely (δ slack).
        assert abs(first.estimate - truth) <= 0.1 * truth + 0.05


@needs_numpy
def test_circuit_sampler_chunks_are_deterministic():
    registry, dnfs = make_group("ks", 59, 1)
    circuit = ConfidenceEngine(registry).compile_circuit(dnfs[0])
    one = CircuitSampler(circuit, seed=3, chunk=16)
    two = CircuitSampler(circuit, seed=3, chunk=64)
    draws_one = [one.sample_unit() for _ in range(200)]
    draws_two = [two.sample_unit() for _ in range(200)]
    assert draws_one == draws_two  # chunking is invisible


# ----------------------------------------------------------------------
# Engine integration: the MC rung rides the circuit sampler
# ----------------------------------------------------------------------
def hard_instance(seed=5):
    """A correlated DNF whose Fig. 3 bounds stay loose at 0 steps."""
    rng = random.Random(seed)
    registry = VariableRegistry.from_boolean_probabilities(
        {f"h{seed}x{i}": rng.uniform(0.3, 0.7) for i in range(10)}
    )
    names = list(registry.variables())
    dnf = DNF(
        Clause({name: True for name in rng.sample(names, 3)})
        for _ in range(25)
    )
    return registry, dnf


def test_engine_mc_routes_through_circuit_sampler():
    registry, dnf = hard_instance()
    config = EngineConfig(
        epsilon=0.01, error_kind="relative", max_steps=0, rng_seed=99
    )
    engine = ConfidenceEngine(registry, config)
    circuit = engine.compile_circuit(dnf)
    engine.circuit_source = {dnf: circuit}.get

    result = engine.compute(dnf)
    assert result.strategy == "mc"
    expected_sampler = (
        "circuit" if kernel_backend() == BACKEND_NUMPY else "karp-luby"
    )
    assert result.details["mc_sampler"] == expected_sampler
    # rng_seed purity: a pure function of (seed, lineage).
    repeat = engine.compute(dnf)
    assert repeat.probability == result.probability
    truth = brute_force_probability(dnf, registry)
    assert result.lower <= truth <= result.upper


def test_engine_mc_fallback_without_circuit_is_karp_luby(monkeypatch):
    registry, dnf = hard_instance()
    config = EngineConfig(
        epsilon=0.01, error_kind="relative", max_steps=0, rng_seed=99
    )
    engine = ConfidenceEngine(registry, config)
    result = engine.compute(dnf)
    assert result.strategy == "mc"
    assert result.details["mc_sampler"] == "karp-luby"

    # Without numpy the karp-luby sampler runs even with a circuit.
    monkeypatch.setattr(kernels, "_np", None)
    scalar_engine = ConfidenceEngine(registry, config)
    scalar_engine.circuit_source = {
        dnf: ConfidenceEngine(registry, config).compile_circuit(dnf)
    }.get
    scalar = scalar_engine.compute(dnf)
    assert scalar.strategy == "mc"
    assert scalar.details["mc_sampler"] == "karp-luby"


# ----------------------------------------------------------------------
# Session sweeps and the SweepResult container
# ----------------------------------------------------------------------
def test_session_sweep_and_what_if_grid(monkeypatch):
    registry, dnfs = make_group("kt", 61, 3)
    session = ProbDB.from_registry(registry, EngineConfig(epsilon=0.0))
    answers = [((f"a{i}",), dnf) for i, dnf in enumerate(dnfs)]
    result = session.lineage(answers)

    names = list(registry.variables())
    scenarios = [None, {names[0]: 0.25}, {names[1]: 0.75, names[2]: 0.0}]
    swept = result.sweep(scenarios)
    assert swept.backend == kernel_backend()

    assert len(swept) == len(dnfs)
    assert swept.scenario_count == len(scenarios)
    for i, dnf in enumerate(dnfs):
        circuit = session.engine.compile_circuit(dnf)
        expected = [circuit.evaluate(s) for s in scenarios]
        assert swept.row((f"a{i}",)) == expected
    with pytest.raises(KeyError):
        swept.row(("missing",))
    assert swept.column(0) == [
        (answer, swept.values[i][0])
        for i, answer in enumerate(swept.answers)
    ]
    assert "scenarios" in repr(swept)

    grid = result.what_if_grid(names[0], [0.0, 0.5, 1.0])
    expected = result.sweep(what_if_scenarios(names[0], [0.0, 0.5, 1.0]))
    assert grid.values == expected.values

    monkeypatch.setattr(kernels, "_np", None)
    scalar = result.sweep(scenarios)
    assert scalar.values == swept.values
    assert scalar.backend == BACKEND_SCALAR


# ----------------------------------------------------------------------
# Backend selection and degradation
# ----------------------------------------------------------------------
def test_kernel_backend_follows_numpy(monkeypatch):
    expected = BACKEND_NUMPY if numpy_available() else BACKEND_SCALAR
    assert kernel_backend() == expected
    monkeypatch.setattr(kernels, "_np", None)
    assert kernel_backend() == BACKEND_SCALAR


def test_describe_reports_kernel_backend(monkeypatch):
    description = EngineConfig().describe()
    assert description["kernel_backend"] == kernel_backend()
    monkeypatch.setattr(kernels, "_np", None)
    assert EngineConfig().describe()["kernel_backend"] == BACKEND_SCALAR


def test_kernel_without_numpy_raises(monkeypatch):
    """Building a kernel directly is the one place numpy is required."""
    registry, dnfs = make_group("kn", 73, 1)
    circuit = ConfidenceEngine(registry).compile_circuit(dnfs[0])
    monkeypatch.setattr(kernels, "_np", None)
    with pytest.raises(KernelUnavailableError) as excinfo:
        CircuitKernel(circuit)
    assert "repro[fast]" in str(excinfo.value)
    assert clause_probability_batch([], None) is None


def test_sweeps_degrade_without_numpy(monkeypatch):
    registry, dnfs = make_group("kz", 67, 4)
    engine = ConfidenceEngine(registry)
    circuits_list = [engine.compile_circuit(dnf) for dnf in dnfs]
    with_numpy = [
        sweep_values(c, [None, {next(iter(registry.variables())): 0.5}])
        for c in circuits_list
    ]
    monkeypatch.setattr(kernels, "_np", None)
    without = [
        sweep_values(c, [None, {next(iter(registry.variables())): 0.5}])
        for c in circuits_list
    ]
    assert with_numpy == without


_NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
import repro
from repro.circuits import kernels
from repro.circuits.sweep import sweep_bounds, sweep_gradients, sweep_values
from repro.core.dnf import DNF
from repro.core.variables import VariableRegistry

assert kernels._np is None  # set by the import-time ImportError branch
assert kernels.kernel_backend() == "scalar"
assert repro.EngineConfig().describe()["kernel_backend"] == "scalar"
registry = VariableRegistry.from_boolean_probabilities(
    {"a": 0.3, "b": 0.6, "c": 0.2, "d": 0.9}
)
dnf = DNF.from_sets(
    [{"a": True, "b": True}, {"b": False, "c": True}, {"d": True}]
)
circuit = repro.ConfidenceEngine(registry).compile_circuit(dnf)
scenarios = [None, {"a": 0.5}, {"b": 1.0, "d": 0.1}]
assert sweep_values(circuit, scenarios) == [
    circuit.evaluate(s) for s in scenarios
]
assert sweep_bounds(circuit, scenarios) == [
    circuit.evaluate_bounds(s) for s in scenarios
]
assert sweep_gradients(circuit, scenarios) == [
    circuit.gradients(s) for s in scenarios
]
print("scalar-ok")
"""


def test_import_without_numpy_uses_scalar_backend():
    """A fresh interpreter where numpy cannot be imported at all."""
    src = pathlib.Path(kernels.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "scalar-ok"


def test_kernel_symbols_exported():
    for name in (
        "CircuitKernel",
        "CircuitSampler",
        "KernelUnavailableError",
        "SweepResult",
        "kernel_backend",
    ):
        assert name in circuits.__all__
        import repro

        assert name in repro.__all__
