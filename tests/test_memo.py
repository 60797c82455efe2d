"""Property tests (hypothesis) for the memoised decomposition step.

:class:`~repro.core.memo.DecompositionCache` is the one owner of the
Fig. 1 step that the ε-approximation and the circuit compiler share.
These tests pin down its contract on random Boolean and multi-valued
DNFs:

* ``decompose`` returns exactly what the uncached decompositions return
  (⊗ partition, else ⊙ factorization, else Shannon expansion on the
  bound selector's pivot), cold and memoised alike;
* the counters mean the same for every caller: an ε-run right after a
  compile on one cache searches nothing afresh, and a cold compile's
  ``cold_steps`` is the cache's miss delta;
* ``bind`` keeps entries across calls with the same configuration
  objects and clears them on any other.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitCompilationStats, compile_circuit
from repro.core.approx import RELATIVE, approximate_probability
from repro.core.decompositions import (
    independent_and_factorization,
    independent_or_partition,
    shannon_expansion,
)
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.memo import (
    EXCLUSIVE_OR,
    INDEPENDENT_AND,
    INDEPENDENT_OR,
    DecompositionCache,
)
from repro.core.orders import max_frequency_choice
from repro.core.variables import VariableRegistry

COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PROBABILITIES = st.floats(
    min_value=0.05, max_value=0.95, allow_nan=False, allow_infinity=False
)


@st.composite
def instances(draw):
    """A (DNF, registry) pair: Boolean or multi-valued variables."""
    count = draw(st.integers(min_value=2, max_value=7))
    names = [f"memo{i}" for i in range(count)]
    registry = VariableRegistry()
    if draw(st.booleans()):
        for name in names:
            registry.add_boolean(name, draw(PROBABILITIES))
    else:
        for name in names:
            weights = draw(st.lists(PROBABILITIES, min_size=2, max_size=4))
            total = sum(weights)
            registry.add_variable(
                name,
                {value: weight / total
                 for value, weight in enumerate(weights)},
            )
    clauses = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
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
    return DNF(clauses), registry


def last_variable(dnf):
    """A pivot rule unlike max-frequency, to see the bound one is used."""
    return max(dnf.variables, key=repr)


def branch_tuples(branches):
    return [
        (b.variable, b.value, b.probability, b.cofactor) for b in branches
    ]


def expected_step(dnf, registry, selector):
    components = independent_or_partition(dnf)
    if len(components) > 1:
        return INDEPENDENT_OR, components
    factors = independent_and_factorization(dnf)
    if factors is not None:
        return INDEPENDENT_AND, factors
    return EXCLUSIVE_OR, branch_tuples(
        shannon_expansion(dnf, selector(dnf), registry)
    )


def steppable(dnf):
    """The reduced form of ``dnf``, when a decomposition step applies."""
    reduced = dnf.remove_subsumed()
    if reduced.is_true() or reduced.is_false() or reduced.is_single_clause():
        return None
    return reduced


class TestDecompose:
    @given(instances(), st.sampled_from([None, last_variable]))
    @settings(**COMMON)
    def test_matches_the_uncached_decompositions(self, instance, selector):
        dnf, registry = instance
        reduced = steppable(dnf)
        if reduced is None:
            return
        cache = DecompositionCache()
        cache.bind(registry, selector, True, False)
        expected = expected_step(
            reduced, registry, selector or max_frequency_choice
        )
        for _cold_then_warm in range(2):
            kind, parts = cache.decompose(reduced)
            if kind == EXCLUSIVE_OR:
                parts = branch_tuples(parts)
            assert (kind, parts) == expected

    @given(instances())
    @settings(**COMMON)
    def test_warm_step_counts_hits_only(self, instance):
        dnf, registry = instance
        reduced = steppable(dnf)
        if reduced is None:
            return
        cache = DecompositionCache()
        cache.bind(registry, None, True, False)
        cache.decompose(reduced)
        cold = cache.stats()
        assert cold["hits"] == 0 and 1 <= cold["misses"] <= 3
        cache.decompose(reduced)
        warm = cache.stats()
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] == cold["misses"]


class TestCounters:
    @given(
        instances(),
        st.sampled_from([(0.0, "absolute"), (0.05, "absolute"),
                         (0.01, RELATIVE)]),
        st.sampled_from([None, 3, 8]),
    )
    @settings(**COMMON)
    def test_approx_after_compile_adds_no_misses(
        self, instance, request, max_steps
    ):
        dnf, registry = instance
        epsilon, error_kind = request
        cache = DecompositionCache()
        compile_circuit(dnf, registry, cache=cache)
        before = cache.stats()["misses"]
        approximate_probability(
            dnf,
            registry,
            epsilon=epsilon,
            error_kind=error_kind,
            max_steps=max_steps,
            cache=cache,
        )
        assert cache.stats()["misses"] == before

    @given(instances(), st.sampled_from([None, 2, 6]))
    @settings(**COMMON)
    def test_cold_steps_is_the_miss_delta(self, instance, max_nodes):
        dnf, registry = instance
        cache = DecompositionCache()
        # A partial ε-run first, so the compile is part warm, part cold.
        approximate_probability(
            dnf, registry, epsilon=0.0, max_steps=2, cache=cache
        )
        before = cache.stats()["misses"]
        stats = CircuitCompilationStats()
        compile_circuit(
            dnf, registry, cache=cache, max_nodes=max_nodes, stats=stats
        )
        assert stats.cold_steps == cache.stats()["misses"] - before


class TestBind:
    @given(instances())
    @settings(**COMMON)
    def test_same_objects_keep_entries_others_clear(self, instance):
        dnf, registry = instance
        if steppable(dnf) is None:
            return

        def warm(selector=None, sort_buckets=True, read_once_buckets=False):
            cache = DecompositionCache()
            approximate_probability(
                dnf,
                registry,
                epsilon=0.0,
                choose_variable=selector,
                sort_buckets=sort_buckets,
                read_once_buckets=read_once_buckets,
                cache=cache,
            )
            assert len(cache) > 0
            return cache

        # Same objects (and None defaulting to max-frequency) keep them.
        cache = warm()
        entries = len(cache)
        cache.bind(registry, None, True, False)
        cache.bind(registry, max_frequency_choice, True, False)
        assert len(cache) == entries

        # Another selector object — even one that picks the same pivots —
        # another registry, or other flags clear them.
        def same_pivots(dnf):
            return max_frequency_choice(dnf)

        other_registry = VariableRegistry()
        for config in (
            (registry, same_pivots, True, False),
            (other_registry, None, True, False),
            (registry, None, False, False),
            (registry, None, True, True),
        ):
            cache = warm()
            cache.bind(*config)
            assert len(cache) == 0
