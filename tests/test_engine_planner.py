"""Property tests for the interned core and the ConfidenceEngine planner.

Two guarantees of the interned-representation refactor are pinned here:

* every interned ``DNF``/``Clause`` operation and every
  :class:`~repro.engine.ConfidenceEngine` strategy produces probabilities
  that agree with brute-force world enumeration, on hundreds of random
  DNFs (Boolean and multi-valued);
* each session path — ``ProbDB.query``, ``ProbDB.lineage(...).top_k``,
  ``ProbDB.sql`` — routes its confidence computation through the
  engine.
"""

import random

import pytest

from repro.core.dnf import DNF
from repro.core.events import Atom, Clause
from repro.core.memo import DecompositionCache
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.db.cq import ConjunctiveQuery, SubGoal, Var
from repro.db.database import Database
from repro.db.engine import evaluate_to_dnf
from repro.db.relation import Relation
from repro.db.session import ProbDB
from repro.db.sprout import UnsafeQueryError
from repro.engine import STRATEGY_LADDER, ConfidenceEngine, EngineResult


def random_boolean_instance(seed, variables=8, max_clauses=10):
    rng = random.Random(seed)
    reg = VariableRegistry.from_boolean_probabilities(
        {f"b{seed}_{i}": rng.uniform(0.05, 0.95) for i in range(variables)}
    )
    names = list(reg.variables())
    clauses = [
        Clause(
            {
                rng.choice(names): rng.random() < 0.7
                for _ in range(rng.randint(1, 4))
            }
        )
        for _ in range(rng.randint(1, max_clauses))
    ]
    return DNF(clauses), reg


def random_multivalued_instance(seed, variables=5, max_clauses=8):
    rng = random.Random(10_000 + seed)
    reg = VariableRegistry()
    names = []
    for i in range(variables):
        name = f"m{seed}_{i}"
        domain_size = rng.randint(2, 4)
        weights = [rng.uniform(0.1, 1.0) for _ in range(domain_size)]
        total = sum(weights)
        reg.add_variable(
            name,
            {value: weight / total
             for value, weight in enumerate(weights)},
        )
        names.append(name)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        bound = rng.sample(names, rng.randint(1, min(3, variables)))
        clauses.append(
            Clause(
                {name: rng.choice(reg.domain(name)) for name in bound}
            )
        )
    return DNF(clauses), reg


class TestInternedCoreAgainstEnumeration:
    """Interned representation == exact enumeration, 200+ random DNFs."""

    @pytest.mark.parametrize("seed", range(120))
    def test_boolean_engine_matches_brute_force(self, seed):
        dnf, reg = random_boolean_instance(seed)
        truth = brute_force_probability(dnf, reg)
        engine = ConfidenceEngine(reg, epsilon=0.0)
        result = engine.compute(dnf)
        assert result.converged
        assert result.strategy in STRATEGY_LADDER
        assert result.probability == pytest.approx(truth, abs=1e-9)
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9

    @pytest.mark.parametrize("seed", range(80))
    def test_multivalued_engine_matches_brute_force(self, seed):
        dnf, reg = random_multivalued_instance(seed)
        truth = brute_force_probability(dnf, reg)
        result = ConfidenceEngine(reg, epsilon=0.0).compute(dnf)
        assert result.converged
        assert result.probability == pytest.approx(truth, abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_interned_operations_preserve_semantics(self, seed):
        """Subsumption removal, restriction and conjunction — all running
        on interned atom ids — preserve brute-force probability."""
        dnf, reg = random_boolean_instance(seed, variables=6, max_clauses=8)
        truth = brute_force_probability(dnf, reg)

        reduced = dnf.remove_subsumed()
        assert brute_force_probability(reduced, reg) == pytest.approx(
            truth, abs=1e-12
        )

        name = next(iter(dnf.variables))
        p_true = reg.probability(name, True)
        shannon = (
            p_true * brute_force_probability(dnf.restrict(name, True), reg)
            + (1.0 - p_true)
            * brute_force_probability(dnf.restrict(name, False), reg)
        )
        assert shannon == pytest.approx(truth, abs=1e-9)

    def test_epsilon_bounds_contain_truth(self):
        for seed in range(30):
            dnf, reg = random_boolean_instance(seed, variables=10,
                                               max_clauses=14)
            truth = brute_force_probability(dnf, reg)
            result = ConfidenceEngine(reg, epsilon=0.05).compute(dnf)
            assert result.lower - 1e-9 <= truth <= result.upper + 1e-9
            if result.converged and result.strategy == "dtree":
                assert abs(result.probability - truth) <= 0.05 + 1e-9


class TestInternedRepresentation:
    def test_atom_ids_identify_atoms(self):
        assert Atom("iv_x", True) == Atom("iv_x", True)
        assert Atom("iv_x", True).atom_id == Atom("iv_x", True).atom_id
        assert Atom("iv_x", True).atom_id != Atom("iv_x", False).atom_id
        assert Atom("iv_x", True).var_id == Atom("iv_x", False).var_id

    def test_clause_equality_is_construction_order_independent(self):
        left = Clause({"iv_a": True, "iv_b": False})
        right = Clause({"iv_b": False, "iv_a": True})
        assert left == right
        assert hash(left) == hash(right)
        assert left.atom_ids == right.atom_ids

    def test_dnf_variable_names_round_trip(self):
        dnf = DNF.from_sets([{"iv_p": True, ("iv", 7): 3}])
        assert dnf.variables == {"iv_p", ("iv", 7)}
        clause = dnf.sole_clause()
        assert clause.value_of(("iv", 7)) == 3
        assert clause.binds("iv_p") and not clause.binds("iv_q")


class TestStrategySelection:
    def test_trivial_strategies(self):
        reg = VariableRegistry()
        engine = ConfidenceEngine(reg)
        assert engine.compute(DNF.false()).strategy == "trivial"
        assert engine.compute(DNF.false()).probability == 0.0
        assert engine.compute(DNF.true()).strategy == "trivial"
        assert engine.compute(DNF.true()).probability == 1.0

    def test_read_once_selected_for_hierarchical_lineage(self):
        reg = VariableRegistry.from_boolean_probabilities(
            {f"ro{i}": 0.4 for i in range(6)}
        )
        dnf = DNF.from_positive_clauses(
            [["ro0", "ro2"], ["ro0", "ro3"], ["ro1", "ro4"], ["ro1", "ro5"]]
        )
        result = ConfidenceEngine(reg).compute(dnf)
        assert result.strategy == "read-once"
        assert result.probability == pytest.approx(
            brute_force_probability(dnf, reg), abs=1e-12
        )

    def test_dtree_selected_when_read_once_fails(self):
        # The hard pattern R(X), S(X, Y), T(Y): x0 y0, x0 y1, x1 y1 is
        # not read-once factorizable.
        reg = VariableRegistry.from_boolean_probabilities(
            {name: 0.5 for name in
             ["hx0", "hx1", "hy0", "hy1", "hs00", "hs01", "hs11"]}
        )
        dnf = DNF.from_positive_clauses(
            [["hx0", "hs00", "hy0"], ["hx0", "hs01", "hy1"],
             ["hx1", "hs11", "hy1"]]
        )
        result = ConfidenceEngine(reg).compute(dnf)
        assert result.strategy == "dtree"
        assert result.converged

    def test_mc_fallback_on_budget_exhaustion(self):
        # Seed 4 does not converge at zero steps (interval width ≈ 0.35).
        dnf, reg = random_boolean_instance(4, variables=10, max_clauses=14)
        engine = ConfidenceEngine(
            reg,
            epsilon=0.05,
            error_kind="relative",
            max_steps=0,
            try_read_once=False,
            mc_max_samples=500,
        )
        result = engine.compute(dnf)
        assert result.strategy == "mc"
        truth = brute_force_probability(dnf, reg)
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9

    def test_no_mc_fallback_for_exact_requests(self):
        dnf, reg = random_boolean_instance(4, variables=10, max_clauses=14)
        engine = ConfidenceEngine(
            reg, epsilon=0.0, max_steps=0, try_read_once=False
        )
        result = engine.compute(dnf)
        assert result.strategy == "dtree"
        assert not result.converged

    def test_shared_cache_reused_across_calls(self):
        dnf, reg = random_boolean_instance(5, variables=9, max_clauses=12)
        cache = DecompositionCache()
        engine = ConfidenceEngine(reg, cache=cache, try_read_once=False)
        first = engine.compute(dnf)
        warm = engine.compute(dnf)
        assert warm.probability == pytest.approx(first.probability,
                                                 abs=1e-12)
        # The whole root DNF is memoised after the first run.
        assert warm.steps <= first.steps


def _small_database():
    reg = VariableRegistry()
    db = Database(reg)
    db.add(
        Relation.tuple_independent(
            "PR", ["x"], [((x,), 0.3 + 0.1 * i) for i, x in
                          enumerate("abc")], reg
        )
    )
    db.add(
        Relation.tuple_independent(
            "PS", ["x", "y"],
            [((x, y), 0.4) for x in "abc" for y in "de"], reg
        )
    )
    return db


def _query():
    x, y = Var("X"), Var("Y")
    return ConjunctiveQuery(
        [x],
        [SubGoal("PR", [x]), SubGoal("PS", [x, y])],
        [],
        name="routing",
    )


class TestDbPathsRouteThroughEngine:
    """query / top-k / sql sessions all funnel into ConfidenceEngine."""

    def test_query_confidences_route_through_engine(self, monkeypatch):
        calls = []
        original = ConfidenceEngine.compute_query

        def spy(self, query, database, **kwargs):
            calls.append(query.name)
            return original(self, query, database, **kwargs)

        monkeypatch.setattr(ConfidenceEngine, "compute_query", spy)
        db = _small_database()
        results = ProbDB(db).query(_query()).confidences()
        assert calls == ["routing"]
        assert results
        for _values, result in results:
            assert isinstance(result, EngineResult)
            assert result.strategy in STRATEGY_LADDER

    def test_compute_query_refuses_non_hierarchical_queries(self):
        db = _small_database()
        db.add(
            Relation.tuple_independent(
                "PT", ["y"], [(("d",), 0.5), (("e",), 0.6)], db.registry
            )
        )
        x, y = Var("X"), Var("Y")
        query = ConjunctiveQuery(
            [],
            [SubGoal("PR", [x]), SubGoal("PS", [x, y]), SubGoal("PT", [y])],
            [],
        )
        strategy, reason = ConfidenceEngine.select_query_strategy(query, db)
        assert strategy == "dtree"
        engine = ConfidenceEngine(db.registry)
        with pytest.raises(UnsafeQueryError) as refused:
            engine.compute_query(query, db)
        assert str(refused.value) == reason
        # The session owns the fallback: it answers on the lineage.
        [(_values, result)] = ProbDB(db).query(query).confidences()
        assert result.strategy != "sprout"
        truth = brute_force_probability(
            evaluate_to_dnf(query, db)[0][1], db.registry
        )
        assert result.probability == pytest.approx(truth, abs=1e-9)

    def test_compute_query_labels_sprout_results(self):
        db = _small_database()
        query = _query()
        strategy, reason = ConfidenceEngine.select_query_strategy(query, db)
        assert strategy == "sprout"
        engine = ConfidenceEngine(db.registry)
        pairs = engine.compute_query(
            query, db, epsilon=0.05, error_kind="relative"
        )
        lineage = dict(evaluate_to_dnf(query, db))
        assert [values for values, _r in pairs] == list(lineage)
        for values, result in pairs:
            assert result.strategy == "sprout"
            assert result.reason == reason
            assert result.converged
            assert result.lower == result.probability == result.upper
            # The request is echoed, though SPROUT answers exactly.
            assert (result.epsilon, result.error_kind) == (0.05, "relative")
            assert result.probability == pytest.approx(
                brute_force_probability(lineage[values], db.registry),
                abs=1e-12,
            )

    def test_compute_query_materialises_no_lineage(self, monkeypatch):
        from repro.db.engine import QueryAnswer

        def refuse(_answer):
            raise AssertionError("SPROUT must not build lineage")

        monkeypatch.setattr(QueryAnswer, "dnf", property(refuse))
        monkeypatch.setattr(QueryAnswer, "lineage", property(refuse))
        db = _small_database()
        pairs = ConfidenceEngine(db.registry).compute_query(_query(), db)
        assert [values for values, _r in pairs] == [("a",), ("b",), ("c",)]

    def test_compute_query_refuses_self_joins(self):
        db = _small_database()
        x, y, z = Var("X"), Var("Y"), Var("Z")
        query = ConjunctiveQuery(
            [], [SubGoal("PS", [x, y]), SubGoal("PS", [z, y])], []
        )
        engine = ConfidenceEngine(db.registry)
        with pytest.raises(UnsafeQueryError, match="self-joins"):
            engine.compute_query(query, db)

    def test_compute_query_refuses_composite_row_lineage(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(
            Relation.block_independent_disjoint(
                "B", ["x"], {"k": [(("a",), 0.5), (("b",), 0.4)]}, reg
            )
        )
        query = ConjunctiveQuery([], [SubGoal("B", [Var("X")])], [])
        with pytest.raises(UnsafeQueryError, match="composite row"):
            ConfidenceEngine(reg).compute_query(query, db)
        # The session answers it on the lineage: the alternatives are
        # exclusive, so P = 0.5 + 0.4.
        [(_values, result)] = ProbDB(db).query(query).confidences()
        assert result.probability == pytest.approx(0.9, abs=1e-12)

    def test_topk_routes_through_engine(self, monkeypatch):
        calls = []
        original = ConfidenceEngine.compute

        def spy(self, lineage, **kwargs):
            calls.append(kwargs.get("max_steps"))
            return original(self, lineage, **kwargs)

        monkeypatch.setattr(ConfidenceEngine, "compute", spy)
        db = _small_database()
        answers = evaluate_to_dnf(_query(), db)
        ranked = ProbDB(db).lineage(answers).top_k(2)
        assert len(calls) >= len(answers)
        assert len(ranked) == 2
        assert ranked[0].lower >= ranked[1].lower - 1e-12

    def test_sql_routes_through_engine(self, monkeypatch):
        calls = []
        original = ConfidenceEngine.compute_query

        def spy(self, query, database, **kwargs):
            calls.append(query.name)
            return original(self, query, database, **kwargs)

        monkeypatch.setattr(ConfidenceEngine, "compute_query", spy)
        db = _small_database()
        rows = ProbDB(db).sql(
            "select conf() from PR, PS where PR.x = PS.x"
        ).confidences()
        assert calls  # routed through the engine
        assert len(rows) == 1
        answers = evaluate_to_dnf(
            ConjunctiveQuery(
                [],
                [SubGoal("PR", [Var("X")]), SubGoal("PS", [Var("X"),
                                                           Var("Y")])],
                [],
            ),
            db,
        )
        truth = brute_force_probability(answers[0][1], db.registry)
        assert rows[0][1].probability == pytest.approx(truth, abs=1e-9)

    def test_explain_reports_engine_strategy(self):
        from repro.db.explain import explain

        db = _small_database()
        report = explain(_query(), db)
        assert report.engine_strategy == "sprout"
        assert "hierarchical" in report.engine_reason
        assert any("engine routes" in note for note in report.notes)

        self_join = ConjunctiveQuery(
            [],
            [SubGoal("PS", [Var("X"), Var("Y")]),
             SubGoal("PS", [Var("Y"), Var("Z")])],
            [],
        )
        report = explain(self_join, db)
        assert report.engine_strategy == "dtree"


class TestStatementMemoBound:
    """What one statement leaves in the engine's memos for the next is
    bounded; inside one batch the decomposition memo stays warm."""

    IQ_6 = (
        "select conf() from lineitem l, orders o "
        "where l.l_extendedprice < o.o_totalprice and l.l_shipdate >= {lo} "
        "and l.l_shipdate <= {hi} and o.o_totalprice <= {price}"
    )

    @pytest.fixture(scope="class")
    def tpch(self):
        from repro.datasets.tpch import TPCHConfig, generate_tpch

        return generate_tpch(TPCHConfig(scale_factor=0.1, seed=0))

    def test_distinct_iq_stream_does_not_grow_the_memos(self, tpch):
        from repro.engine import _CARRY_DECOMPOSITIONS, _CARRY_READ_ONCE

        session = ProbDB(tpch)
        engine = session.engine
        rng = random.Random(5)
        seen = set()
        memos = {"cache": engine.cache, "read-once": engine._readonce_memo}
        created = dict.fromkeys(memos, 0)
        peak = dict.fromkeys(memos, 0)
        while len(seen) < 300:
            lo = rng.randrange(0, 2300)
            sql = self.IQ_6.format(
                lo=lo, hi=lo + rng.randrange(20, 60),
                price=rng.randrange(20000, 80000),
            )
            if sql in seen:
                continue
            seen.add(sql)
            before = {name: len(memo) for name, memo in memos.items()}
            session.sql(sql).confidences()
            for name, memo in memos.items():
                created[name] += max(0, len(memo) - before[name])
                peak[name] = max(peak[name], len(memo))
        # The stream creates many times the carry-over, but a statement
        # starts from at most the carry-over: one Boolean statement adds
        # one read-once entry and well under a carry of decompositions.
        assert created["cache"] > 4 * _CARRY_DECOMPOSITIONS
        assert peak["cache"] <= 2 * _CARRY_DECOMPOSITIONS
        assert created["read-once"] > 4 * _CARRY_READ_ONCE
        assert peak["read-once"] <= _CARRY_READ_ONCE + 1

    def test_budgeted_batch_keeps_its_memo(self, tpch):
        session = ProbDB(tpch)
        engine = session.engine
        lineages = [
            dnf
            for lo in range(0, 2300, 100)
            for _values, dnf in session.sql(
                self.IQ_6.format(lo=lo, hi=lo + 200, price=60000)
            ).lineage()
        ]
        hits = engine.cache.hits
        results = engine.compute_many(
            lineages, epsilon=0.0, max_total_steps=100_000
        )
        assert all(result.converged for result in results)
        assert engine.cache.hits > hits
