"""Tests for the ProbDB session façade and batched anytime computation.

Covers the PR-2 redesign:

* ``EngineConfig`` — validation, immutability, ``replace``/``describe``;
* ``ProbDB``/``QueryResult`` — laziness, memoisation, sql/query/lineage
  entry points, explain;
* ``ConfidenceEngine.compute_many`` — property-tested against N
  independent ``compute`` calls, budget exhaustion soundness, and
  decomposition-cache sharing across tuples (hit counter);
* ``QueryResult.bounds`` — sound, narrowing anytime snapshots;
* ``QueryResult.top_k`` — equals :func:`~repro.db.topk.rank_answers`
  on a bare exact engine, on the Fig. 9 social-network motifs.
"""

import json
import random

import pytest

from repro import (
    ConfidenceEngine,
    DNF,
    EngineConfig,
    EngineResult,
    ProbDB,
    QueryResult,
)
from repro.core.events import Clause
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.datasets.graphs import (
    path2_dnf,
    separation2_dnf,
    triangle_dnf,
)
from repro.datasets.social import karate_club_network
from repro.db.cq import ConjunctiveQuery, SubGoal, Var
from repro.db.database import Database
from repro.db.relation import Relation


def random_instance(seed, variables=8, max_clauses=10):
    rng = random.Random(seed)
    reg = VariableRegistry.from_boolean_probabilities(
        {f"s{seed}_{i}": rng.uniform(0.05, 0.95)
         for i in range(variables)}
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


def small_database():
    reg = VariableRegistry()
    db = Database(reg)
    db.add(
        Relation.tuple_independent(
            "PR", ["x"],
            [((x,), 0.3 + 0.1 * i) for i, x in enumerate("abc")], reg
        )
    )
    db.add(
        Relation.tuple_independent(
            "PS", ["x", "y"],
            [((x, y), 0.4) for x in "abc" for y in "de"], reg
        )
    )
    return db


def pr_ps_query():
    x, y = Var("X"), Var("Y")
    return ConjunctiveQuery(
        [x],
        [SubGoal("PR", [x]), SubGoal("PS", [x, y])],
        [],
        name="pr-ps",
    )


class TestEngineConfig:
    def test_defaults_are_valid_and_frozen(self):
        config = EngineConfig()
        assert config.epsilon == 0.0
        with pytest.raises(AttributeError):
            config.epsilon = 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            {"epsilon": -0.1},
            {"epsilon": 1.0},
            {"error_kind": "both"},
            {"initial_steps": 0},
            {"step_growth": 1},
            {"mc_max_samples": 0},
            {"max_total_steps": -1},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            EngineConfig(**bad)

    def test_replace_revalidates(self):
        config = EngineConfig(epsilon=0.01)
        assert config.replace(epsilon=0.05).epsilon == 0.05
        assert config.epsilon == 0.01  # original untouched
        with pytest.raises(ValueError):
            config.replace(epsilon=2.0)
        with pytest.raises(TypeError):
            config.replace(no_such_knob=1)

    def test_describe_is_json_serialisable(self):
        config = EngineConfig(
            epsilon=0.01,
            error_kind="relative",
            choose_variable=lambda dnf: next(iter(dnf.variables)),
        )
        description = json.loads(json.dumps(config.describe()))
        assert description["epsilon"] == 0.01
        assert description["choose_variable"] != "auto"
        assert EngineConfig().describe()["choose_variable"] == "auto"

    def test_engine_kwargs_are_config_shorthand(self):
        reg = VariableRegistry()
        engine = ConfidenceEngine(reg, epsilon=0.05, mc_fallback=False)
        assert engine.config == EngineConfig(
            epsilon=0.05, mc_fallback=False
        )
        assert engine.config.epsilon == 0.05
        base = EngineConfig(error_kind="relative")
        engine = ConfidenceEngine(reg, base, epsilon=0.1)
        assert engine.config.error_kind == "relative"
        assert engine.config.epsilon == 0.1


class TestProbDBSession:
    def test_config_and_engine_are_mutually_exclusive(self):
        db = small_database()
        engine = ConfidenceEngine.for_database(db)
        with pytest.raises(TypeError):
            ProbDB(db, EngineConfig(), engine=engine)
        session = ProbDB(db, engine=engine)
        assert session.config is engine.config

    def test_query_result_is_lazy(self, monkeypatch):
        db = small_database()
        session = ProbDB(db)
        calls = []
        import repro.db.session as session_module

        original = session_module.evaluate

        def spy(query, database):
            calls.append(query.name)
            return original(query, database)

        monkeypatch.setattr(session_module, "evaluate", spy)
        result = session.sql(
            "select PR.x, conf() from PR, PS where PR.x = PS.x"
        )
        assert calls == []  # parsing only; no evaluation yet
        assert len(result.answers()) == 3
        assert calls == ["sql"]
        result.answers()
        assert calls == ["sql"]  # lineage is cached

    def test_confidences_are_memoised(self):
        session = ProbDB(small_database())
        result = session.query(pr_ps_query())
        first = result.confidences(0.0)
        assert result.confidences(0.0) is first
        assert result.confidences(0.05) is not first

    def test_confidences_match_brute_force(self):
        db = small_database()
        session = ProbDB(db)
        result = session.query(pr_ps_query())
        lineage = dict(result.lineage())
        for values, outcome in result.confidences():
            truth = brute_force_probability(lineage[values], db.registry)
            assert outcome.probability == pytest.approx(truth, abs=1e-9)
            assert isinstance(outcome, EngineResult)

    def test_sql_and_cq_paths_agree(self):
        db = small_database()
        session = ProbDB(db)
        via_sql = session.sql(
            "select PR.x, conf() from PR, PS where PR.x = PS.x"
        ).confidences()
        via_cq = session.query(pr_ps_query()).confidences()
        assert [(v, round(r.probability, 12)) for v, r in via_sql] == [
            (v, round(r.probability, 12)) for v, r in via_cq
        ]

    def test_lineage_result_and_from_registry(self):
        dnf, reg = random_instance(3)
        session = ProbDB.from_registry(reg, EngineConfig(epsilon=0.0))
        result = session.lineage([(("phi",), dnf)])
        ((values, outcome),) = result.confidences()
        assert values == ("phi",)
        assert outcome.probability == pytest.approx(
            brute_force_probability(dnf, reg), abs=1e-9
        )
        assert session.confidence(dnf).probability == pytest.approx(
            outcome.probability, abs=1e-9
        )

    def test_lineage_result_refuses_explain(self):
        dnf, reg = random_instance(4)
        result = ProbDB.from_registry(reg).lineage([((), dnf)])
        with pytest.raises(ValueError):
            result.explain()

    def test_explain_via_session(self):
        db = small_database()
        session = ProbDB(db)
        report = session.explain(pr_ps_query())
        assert report.engine_strategy == "sprout"
        sql_report = session.explain(
            "select conf() from PR, PS where PR.x = PS.x"
        )
        assert sql_report.engine_strategy == report.engine_strategy
        assert session.query(pr_ps_query()).explain().engine_strategy == (
            report.engine_strategy
        )

    def test_cache_stats_exposed(self):
        session = ProbDB(small_database())
        stats = session.cache_stats()
        assert set(stats) == {"hits", "misses", "entries"}


class TestComputeMany:
    """The batched engine entry point against per-tuple computes."""

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_batch_matches_independent_computes(self, seed):
        rng = random.Random(1000 + seed)
        # One registry, several DNFs over it.
        reg = VariableRegistry.from_boolean_probabilities(
            {f"c{seed}_{i}": rng.uniform(0.05, 0.95) for i in range(9)}
        )
        names = list(reg.variables())
        dnfs = [
            DNF(
                [
                    Clause(
                        {
                            rng.choice(names): rng.random() < 0.7
                            for _ in range(rng.randint(1, 3))
                        }
                    )
                    for _ in range(rng.randint(1, 8))
                ]
            )
            for _ in range(5)
        ]
        batched = ConfidenceEngine(reg).compute_many(dnfs)
        solo_engine = ConfidenceEngine(reg)
        for dnf, outcome in zip(dnfs, batched):
            solo = solo_engine.compute(dnf)
            assert outcome.converged
            assert outcome.probability == pytest.approx(
                solo.probability, abs=1e-9
            )
            truth = brute_force_probability(dnf, reg)
            assert outcome.lower - 1e-9 <= truth <= outcome.upper + 1e-9

    @pytest.mark.parametrize("seed", range(15))
    def test_epsilon_batch_within_guarantee(self, seed):
        epsilon = 0.05
        dnf_a, reg = random_instance(seed, variables=10, max_clauses=12)
        rng = random.Random(seed)
        names = list(reg.variables())
        dnf_b = DNF(
            [
                Clause(
                    {
                        rng.choice(names): rng.random() < 0.5
                        for _ in range(rng.randint(1, 3))
                    }
                )
                for _ in range(rng.randint(1, 10))
            ]
        )
        results = ConfidenceEngine(reg, epsilon=epsilon).compute_many(
            [dnf_a, dnf_b]
        )
        for dnf, outcome in zip((dnf_a, dnf_b), results):
            truth = brute_force_probability(dnf, reg)
            assert outcome.converged
            assert outcome.lower - 1e-9 <= truth <= outcome.upper + 1e-9
            assert abs(outcome.probability - truth) <= epsilon + 1e-9

    def test_shared_budget_round_robins_by_width(self):
        # Under a tight shared budget every tuple still carries sound
        # bounds — the anytime contract of the prioritized batch.
        rng = random.Random(50)
        reg = VariableRegistry.from_boolean_probabilities(
            {f"rr{i}": rng.uniform(0.1, 0.9) for i in range(12)}
        )
        names = list(reg.variables())
        dnfs = [
            DNF(
                [
                    Clause(
                        {
                            rng.choice(names): rng.random() < 0.6
                            for _ in range(rng.randint(1, 3))
                        }
                    )
                    for _ in range(rng.randint(4, 14))
                ]
            )
            for _ in range(4)
        ]
        engine = ConfidenceEngine(reg, try_read_once=False)
        results = engine.compute_many(
            dnfs, max_total_steps=8, initial_steps=1
        )
        assert len(results) == len(dnfs)
        for dnf, outcome in zip(dnfs, results):
            truth = brute_force_probability(dnf, reg)
            assert outcome.lower - 1e-9 <= truth <= outcome.upper + 1e-9

    def test_empty_batch(self):
        reg = VariableRegistry()
        assert ConfidenceEngine(reg).compute_many([]) == []

    def test_cache_is_shared_across_tuples(self):
        """The acceptance check: one batch over overlapping lineage hits
        the shared decomposition cache; the second tuple resolves almost
        for free compared to a cold engine."""
        rng = random.Random(7)
        reg = VariableRegistry.from_boolean_probabilities(
            {f"shared{i}": rng.uniform(0.2, 0.8) for i in range(12)}
        )
        names = list(reg.variables())
        base_clauses = [
            Clause(
                {
                    rng.choice(names): rng.random() < 0.5
                    for _ in range(2)
                }
            )
            for _ in range(14)
        ]
        reg.add_variable("extra", {True: 0.3, False: 0.7})
        phi1 = DNF(base_clauses)
        phi2 = DNF(base_clauses + [Clause({"extra": True})])

        shared_engine = ConfidenceEngine(reg, try_read_once=False)
        shared = shared_engine.compute_many([phi1, phi2])
        assert shared_engine.cache.stats()["hits"] > 0

        cold_engine = ConfidenceEngine(reg, try_read_once=False)
        (cold_phi2,) = cold_engine.compute_many([phi2])
        # phi2 rode on phi1's cache entries: far fewer fresh steps.
        assert shared[1].steps < cold_phi2.steps
        assert shared[1].probability == pytest.approx(
            cold_phi2.probability, abs=1e-9
        )


class TestBounds:
    def test_snapshots_are_sound_and_narrow(self):
        db = small_database()
        config = EngineConfig(initial_steps=1)
        session = ProbDB(db, config)
        result = session.query(pr_ps_query())
        truth = {
            values: brute_force_probability(dnf, db.registry)
            for values, dnf in result.lineage()
        }
        snapshots = list(result.bounds())
        assert snapshots, "at least the initial snapshot must be yielded"
        for snapshot in snapshots:
            for values, lower, upper in snapshot.intervals:
                assert lower - 1e-9 <= truth[values] <= upper + 1e-9
        assert snapshots[-1].converged
        assert snapshots[-1].max_width() <= snapshots[0].max_width() + 1e-12
        for values, lower, upper in snapshots[-1].intervals:
            assert upper - lower == pytest.approx(0.0, abs=1e-9)

    def test_budget_capped_iteration_terminates(self):
        dnf, reg = random_instance(21, variables=12, max_clauses=16)
        session = ProbDB.from_registry(
            reg, EngineConfig(try_read_once=False, initial_steps=1)
        )
        result = session.lineage([((), dnf)])
        snapshots = list(result.bounds(max_total_steps=16))
        assert snapshots
        truth = brute_force_probability(dnf, reg)
        for snapshot in snapshots:
            ((_values, lower, upper),) = snapshot.intervals
            assert lower - 1e-9 <= truth <= upper + 1e-9


class TestTopKViaSession:
    def test_matches_engine_ranking_on_fig9_motifs(self):
        """QueryResult.top_k == rank_answers on a bare exact engine, on
        the Fig. 9 social-network motif lineages."""
        network = karate_club_network()
        answers = [
            (("triangle",), triangle_dnf(network)),
            (("path2",), path2_dnf(network)),
            (("separation2",), separation2_dnf(network, 0, 33)),
        ]
        session = ProbDB.from_registry(network.registry)
        new = session.lineage(answers).top_k(2)

        from repro.db.topk import rank_answers

        old = rank_answers(
            ConfidenceEngine(network.registry, epsilon=0.0), answers, 2
        )
        assert [(r.values, r.lower, r.upper) for r in new] == [
            (r.values, r.lower, r.upper) for r in old
        ]

    def test_top_k_terminates_when_deadline_expired(self, fake_clock):
        # Regression: with the whole-batch deadline spent, every refine
        # returns immediately with 0 steps, so the ranking loop used to
        # spin forever (total_steps never reached the cap).  The fake
        # clock expires a *positive* deadline at a machine-independent
        # point mid-ranking: one second passes per clock read, so the
        # 3-second budget is gone after three checks no matter how
        # loaded CI is.
        fake_clock.auto_advance = 1.0
        rng = random.Random(9)
        reg = VariableRegistry.from_boolean_probabilities(
            {f"dl{i}": rng.uniform(0.2, 0.8) for i in range(12)}
        )
        names = list(reg.variables())
        answers = [
            (
                (index,),
                DNF(
                    [
                        Clause(
                            {
                                rng.choice(names): rng.random() < 0.5
                                for _ in range(2)
                            }
                        )
                        for _ in range(14)
                    ]
                ),
            )
            for index in range(2)
        ]
        session = ProbDB.from_registry(
            reg,
            EngineConfig(
                deadline_seconds=3.0,
                try_read_once=False,
                initial_steps=1,
            ),
        )
        ranked = session.lineage(answers).top_k(1)
        assert len(ranked) == 1
        assert 0.0 <= ranked[0].lower <= ranked[0].upper <= 1.0

    def test_ranking_matches_exact_order(self):
        rng = random.Random(5)
        reg = VariableRegistry.from_boolean_probabilities(
            {f"t{i}": rng.uniform(0.1, 0.9) for i in range(10)}
        )
        names = list(reg.variables())
        answers = []
        for index in range(6):
            clauses = [
                Clause(
                    {
                        rng.choice(names): rng.random() < 0.7
                        for _ in range(rng.randint(1, 3))
                    }
                )
                for _ in range(rng.randint(1, 5))
            ]
            answers.append(((index,), DNF(clauses)))
        truth = {
            values: brute_force_probability(dnf, reg)
            for values, dnf in answers
        }
        session = ProbDB.from_registry(reg)
        ranked = session.lineage(answers).top_k(3)
        expected = sorted(truth.values(), reverse=True)[:3]
        assert sorted(
            (round(truth[r.values], 12) for r in ranked), reverse=True
        ) == [round(p, 12) for p in expected]
