"""Property tests (hypothesis) for the one batch path through the ladder.

Every :meth:`~repro.engine.ConfidenceEngine.compute_many` runs a
:class:`~repro.engine.BatchComputation` — inline when the batch has one
shard — and the MC rung, the Prop. 5.8 test and the round body each
have one definition.  On random Boolean and multi-valued DNFs:

* an unbudgeted one-shard ``compute_many`` answers every lineage
  exactly as ``compute`` calls on a fresh engine do, and with
  ``compile_circuits`` on it attaches the same circuits, node for node;
* a seeded MC answer is the same from ``compute``, an inline batch and
  a two-worker thread batch;
* ``approximate_probability`` reports convergence exactly when the
  shared Prop. 5.8 test certifies its own bounds.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approx import (
    ABSOLUTE,
    RELATIVE,
    approximate_probability,
    interval_certified,
)
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine, EngineConfig

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PROBABILITIES = st.floats(
    min_value=0.05, max_value=0.95, allow_nan=False, allow_infinity=False
)

#: ε = 0 (exact), 0.05 absolute, 0.01 relative.
REQUESTS = st.sampled_from(
    [(0.0, ABSOLUTE), (0.05, ABSOLUTE), (0.01, RELATIVE)]
)


def add_variables(draw, registry, names):
    """Register ``names`` all Boolean or all multi-valued."""
    if draw(st.booleans()):
        for name in names:
            registry.add_boolean(name, draw(PROBABILITIES))
        return
    for name in names:
        weights = draw(st.lists(PROBABILITIES, min_size=2, max_size=4))
        total = sum(weights)
        registry.add_variable(
            name,
            {value: weight / total for value, weight in enumerate(weights)},
        )


def draw_dnf(draw, registry, names, max_clauses=8):
    clauses = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_clauses))):
        bound = draw(
            st.lists(
                st.sampled_from(names), min_size=1, max_size=3, unique=True
            )
        )
        clauses.append(
            Clause(
                {
                    name: draw(st.sampled_from(registry.domain(name)))
                    for name in bound
                }
            )
        )
    return DNF(clauses)


@st.composite
def shared_batches(draw):
    """A registry and 2–5 DNFs over one shared variable pool."""
    count = draw(st.integers(min_value=2, max_value=7))
    names = [f"batchpath{i}" for i in range(count)]
    registry = VariableRegistry()
    add_variables(draw, registry, names)
    size = draw(st.integers(min_value=2, max_value=5))
    return registry, [draw_dnf(draw, registry, names) for _ in range(size)]


@st.composite
def disjoint_batches(draw):
    """A registry and 2–4 DNFs over pairwise disjoint variables.

    No sub-DNF of one lineage can appear in another, so a lineage's
    budgeted run — and the bounds its MC estimate is clipped into — is
    the same on a shared cache, a fresh one, or a pool worker's.
    """
    registry = VariableRegistry()
    dnfs = []
    for lineage in range(draw(st.integers(min_value=2, max_value=4))):
        names = [f"batchmc{lineage}_{i}" for i in range(6)]
        add_variables(draw, registry, names)
        dnfs.append(draw_dnf(draw, registry, names, max_clauses=9))
    return registry, dnfs


def answer(result):
    return (
        result.probability,
        result.lower,
        result.upper,
        result.strategy,
        result.converged,
        result.steps,
    )


def nodes(circuit):
    return (
        list(circuit.kinds),
        list(circuit.arg0),
        list(circuit.arg1),
        list(circuit.children),
        list(circuit.consts),
        list(circuit.residuals),
    )


@settings(**COMMON)
@given(batch=shared_batches(), request=REQUESTS)
def test_unbudgeted_batch_matches_compute(batch, request):
    registry, dnfs = batch
    epsilon, error_kind = request
    config = EngineConfig(epsilon=epsilon, error_kind=error_kind)
    many = ConfidenceEngine(registry, config).compute_many(dnfs)
    fresh = ConfidenceEngine(registry, config)
    assert [answer(r) for r in many] == [
        answer(fresh.compute(dnf)) for dnf in dnfs
    ]


@settings(**COMMON)
@given(batch=shared_batches(), request=REQUESTS)
def test_batch_circuits_match_compute_node_for_node(batch, request):
    registry, dnfs = batch
    epsilon, error_kind = request
    config = EngineConfig(
        epsilon=epsilon, error_kind=error_kind, compile_circuits=True
    )
    many = ConfidenceEngine(registry, config).compute_many(dnfs)
    fresh = ConfidenceEngine(registry, config)
    singles = [fresh.compute(dnf) for dnf in dnfs]
    assert [answer(r) for r in many] == [answer(r) for r in singles]
    assert [nodes(r.circuit) for r in many] == [
        nodes(r.circuit) for r in singles
    ]


@settings(**COMMON)
@given(batch=disjoint_batches(), max_steps=st.integers(1, 3))
def test_seeded_mc_answers_agree_across_paths(batch, max_steps):
    registry, dnfs = batch
    config = EngineConfig(
        epsilon=0.01,
        error_kind=RELATIVE,
        max_steps=max_steps,
        rng_seed=20240,
        mc_max_samples=300,
        try_read_once=False,
    )
    fresh = ConfidenceEngine(registry, config)
    singles = [fresh.compute(dnf) for dnf in dnfs]
    inline = ConfidenceEngine(registry, config).compute_many(dnfs)
    with ConfidenceEngine(
        registry, config.replace(workers=2, executor_kind="thread")
    ) as engine:
        pooled = engine.compute_many(dnfs)
    expected = [
        (answer(r), r.details.get("mc_samples"), r.reason) for r in singles
    ]
    for results in (inline, pooled):
        assert [
            (answer(r), r.details.get("mc_samples"), r.reason)
            for r in results
        ] == expected


@settings(**COMMON)
@given(
    batch=shared_batches(),
    request=REQUESTS,
    max_steps=st.sampled_from([None, 1, 2, 4]),
)
def test_convergence_is_the_shared_prop_5_8_test(batch, request, max_steps):
    registry, dnfs = batch
    epsilon, error_kind = request
    for dnf in dnfs:
        outcome = approximate_probability(
            dnf,
            registry,
            epsilon=epsilon,
            error_kind=error_kind,
            max_steps=max_steps,
        )
        assert outcome.converged == interval_certified(
            outcome.lower, outcome.upper, epsilon, error_kind
        )
