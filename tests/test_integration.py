"""End-to-end integration tests: all confidence methods must agree.

These tests run the full pipeline — data generation, query evaluation,
lineage DNF extraction — and cross-check every probability computation
method the library offers: brute force, the d-tree exact and approximate
algorithms, the compiled d-tree, SPROUT, and aconf.
"""

import pytest

from repro.core.approx import RELATIVE, approximate_probability
from repro.core.exact import exact_probability, exact_probability_compiled
from repro.core.semantics import brute_force_probability
from repro.datasets.graphs import GRAPH_QUERIES, random_graph
from repro.datasets.social import karate_club_network
from repro.datasets.tpch import TPCHConfig, generate_tpch
from repro.datasets.tpch_queries import (
    HARD_QUERIES,
    HIERARCHICAL_QUERIES,
    IQ_QUERIES,
    make_query,
)
from repro.db.engine import answer_selector, evaluate, evaluate_to_dnf
from repro.db.session import ProbDB
from repro.db.sprout import sprout_confidence
from repro.mc.aconf import aconf


@pytest.fixture(scope="module")
def tiny_tpch():
    """Small enough that lineage stays brute-forceable per answer."""
    return generate_tpch(TPCHConfig(scale_factor=0.02, seed=11))


@pytest.fixture(scope="module")
def small_tpch():
    return generate_tpch(TPCHConfig(scale_factor=0.1, seed=1))


class TestHierarchicalQueries:
    def test_dtree_matches_sprout(self, small_tpch):
        selector = answer_selector(small_tpch)
        for name in HIERARCHICAL_QUERIES:
            query = make_query(name)
            sprout = dict(sprout_confidence(query, small_tpch))
            for values, dnf in evaluate_to_dnf(query, small_tpch):
                dtree = exact_probability(
                    dnf, small_tpch.registry, choose_variable=selector
                )
                assert dtree == pytest.approx(sprout[values]), (
                    name,
                    values,
                )

    def test_dtree_matches_brute_force_small(self, tiny_tpch):
        for name in HIERARCHICAL_QUERIES:
            query = make_query(name)
            for values, dnf in evaluate_to_dnf(query, tiny_tpch):
                if len(dnf.variables) > 16:
                    continue
                truth = brute_force_probability(dnf, tiny_tpch.registry)
                assert exact_probability(
                    dnf, tiny_tpch.registry
                ) == pytest.approx(truth), (name, values)


class TestIQQueries:
    def test_iq_order_exact_matches_default_order(self, tiny_tpch):
        selector = answer_selector(tiny_tpch)
        for name in IQ_QUERIES:
            query = make_query(name)
            for _values, dnf in evaluate_to_dnf(query, tiny_tpch):
                with_order = exact_probability(
                    dnf, tiny_tpch.registry, choose_variable=selector
                )
                without_order = exact_probability(dnf, tiny_tpch.registry)
                assert with_order == pytest.approx(without_order), name

    def test_relative_approximation_brackets_exact(self, small_tpch):
        selector = answer_selector(small_tpch)
        for name in IQ_QUERIES:
            query = make_query(name)
            for _values, dnf in evaluate_to_dnf(query, small_tpch):
                exact = exact_probability(
                    dnf, small_tpch.registry, choose_variable=selector
                )
                result = approximate_probability(
                    dnf,
                    small_tpch.registry,
                    epsilon=0.01,
                    error_kind=RELATIVE,
                    choose_variable=selector,
                )
                assert result.converged
                assert (1 - 0.01) * exact - 1e-9 <= result.estimate
                assert result.estimate <= (1 + 0.01) * exact + 1e-9


class TestHardQueries:
    def test_approximation_within_bounds(self, small_tpch):
        for name in HARD_QUERIES:
            query = make_query(name)
            for _values, dnf in evaluate_to_dnf(query, small_tpch):
                if name == "B9":
                    continue  # exercised separately; slow at this scale
                result = approximate_probability(
                    dnf,
                    small_tpch.registry,
                    epsilon=0.05,
                    error_kind=RELATIVE,
                )
                assert result.converged
                assert result.lower <= result.estimate <= result.upper

    def test_aconf_agrees_with_dtree(self, small_tpch):
        query = make_query("B21")
        (_values, dnf), = evaluate_to_dnf(query, small_tpch)
        exact = exact_probability(dnf, small_tpch.registry)
        mc = aconf(dnf, small_tpch.registry, epsilon=0.05, delta=0.05,
                   seed=5)
        assert mc.estimate == pytest.approx(exact, rel=0.15)


class TestGraphWorkloads:
    def test_all_motifs_all_methods(self):
        graph = random_graph(5, 0.3)
        for name, generator in GRAPH_QUERIES.items():
            dnf = generator(graph)
            truth = brute_force_probability(dnf, graph.registry)
            assert exact_probability(dnf, graph.registry) == pytest.approx(
                truth
            ), name
            assert exact_probability_compiled(
                dnf, graph.registry
            ) == pytest.approx(truth), name
            approx = approximate_probability(
                dnf, graph.registry, epsilon=0.01
            )
            assert abs(approx.estimate - truth) <= 0.011, name

    def test_karate_triangle_converges(self):
        graph = karate_club_network()
        from repro.datasets.graphs import triangle_dnf

        dnf = triangle_dnf(graph)
        result = approximate_probability(
            dnf, graph.registry, epsilon=0.01, error_kind=RELATIVE
        )
        assert result.converged
        # Dense friendship graph: a triangle is almost certain.
        assert result.estimate > 0.9

    def test_aconf_on_random_graph(self):
        graph = random_graph(6, 0.5)
        from repro.datasets.graphs import triangle_dnf

        dnf = triangle_dnf(graph)
        truth = brute_force_probability(dnf, graph.registry)
        mc = aconf(dnf, graph.registry, epsilon=0.05, delta=0.05, seed=1)
        assert mc.estimate == pytest.approx(truth, rel=0.15)


class TestSqlPipeline:
    def test_conf_end_to_end(self, tiny_tpch):
        result = ProbDB(tiny_tpch).sql(
            "select s.s_suppkey, conf() from supplier s, lineitem l "
            "where s.s_suppkey = l.l_suppkey"
        )
        lineage = dict(result.lineage())
        pairs = result.confidences()
        assert pairs
        assert [values for values, _r in pairs] == list(lineage)
        for values, outcome in pairs:
            # Brute force is exponential in the variable count: the
            # d-tree exact value is the oracle on this lineage.
            assert outcome.probability == pytest.approx(
                exact_probability(lineage[values], tiny_tpch.registry)
            )
