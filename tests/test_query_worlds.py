"""Possible-worlds semantics of the SQL query path.

A query's answers reach ``conf()`` one way: the session parses the SQL,
evaluates the conjunctive query to per-answer lineage, and computes
confidences (by SPROUT or on the lineage).  Each test here checks one
relational shape of that path — selection, projection, equi-join,
theta-join, product, self-join — against possible-worlds semantics:
the lineage of an answer must be true exactly in the worlds where the
query, evaluated on that world's deterministic instance, returns it.
"""

import itertools

import pytest

from repro.core.semantics import (
    brute_force_formula_probability,
    brute_force_probability,
)
from repro.core.variables import VariableRegistry
from repro.db.database import Database
from repro.db.relation import Relation
from repro.db.session import ProbDB
from repro.engine import EngineConfig


@pytest.fixture
def db():
    reg = VariableRegistry()
    database = Database(reg)
    database.add(
        Relation.tuple_independent(
            "R",
            ["a", "b"],
            [((1, 10), 0.5), ((1, 20), 0.6), ((2, 10), 0.7)],
            reg,
        )
    )
    database.add(
        Relation.tuple_independent(
            "S", ["b", "c"], [((10, "x"), 0.4), ((20, "y"), 0.9)], reg
        )
    )
    database.add(
        Relation.tuple_independent(
            "T", ["d"], [((15,), 0.5), ((5,), 0.3)], reg
        )
    )
    database.add(Relation.certain("C", ["e"], [(1,), (2,)]))
    return database


def worlds_of(registry):
    variables = sorted(registry.variables(), key=repr)
    for combo in itertools.product([True, False], repeat=len(variables)):
        yield dict(zip(variables, combo))


def materialise(relation, world):
    """Rows of ``relation`` present in ``world`` (deterministic instance)."""
    return [
        values
        for values, lineage in relation.rows
        if lineage.evaluate(world)
    ]


def assert_world_semantics(database, text, expected_in):
    """The answers' lineage agrees with ``expected_in(world)`` everywhere.

    ``expected_in`` evaluates the query by hand on one world's
    deterministic instance and returns its set of answer tuples.
    """
    lineage = ProbDB(database).sql(text).lineage()
    for world in worlds_of(database.registry):
        actual = {
            values for values, dnf in lineage if dnf.evaluate(world)
        }
        assert actual == expected_in(world)


class TestSelection:
    def test_predicate_filtering(self, db):
        result = ProbDB(db).sql("select R.b from R where R.a = 1")
        assert result.answers() == [(10,), (20,)]

    def test_lineage_is_the_rows_own_event(self, db):
        lineage = dict(ProbDB(db).sql("select R.a, R.b from R").lineage())
        reg = db.registry
        for values, row_lineage in db["R"].rows:
            assert brute_force_probability(
                lineage[values], reg
            ) == pytest.approx(
                brute_force_formula_probability(row_lineage, reg)
            )
            for world in worlds_of(reg):
                assert lineage[values].evaluate(world) == (
                    row_lineage.evaluate(world)
                )

    def test_inequality_world_semantics(self, db):
        assert_world_semantics(
            db,
            "select R.a, R.b from R where R.b <> 20",
            lambda world: {
                (a, b) for (a, b) in materialise(db["R"], world) if b != 20
            },
        )


class TestProjection:
    def test_duplicate_answers_merge_lineage(self, db):
        lineage = ProbDB(db).sql("select R.a from R").lineage()
        assert [values for values, _dnf in lineage] == [(1,), (2,)]
        by_key = dict(lineage)
        # P(a=1 present) = 1 - (1-0.5)(1-0.6)
        assert brute_force_probability(
            by_key[(1,)], db.registry
        ) == pytest.approx(1 - 0.5 * 0.4)

    def test_world_semantics(self, db):
        assert_world_semantics(
            db,
            "select R.a from R",
            lambda world: {
                values[:1] for values in materialise(db["R"], world)
            },
        )

    def test_boolean_query_is_any_row(self, db):
        [(values, result)] = ProbDB(db).sql(
            "select conf() from R"
        ).confidences()
        assert values == ()
        assert result.probability == pytest.approx(1 - 0.5 * 0.4 * 0.3)


class TestJoins:
    def test_equi_join_world_semantics(self, db):
        assert_world_semantics(
            db,
            "select R.a, R.b, S.c from R, S where R.b = S.b",
            lambda world: {
                (ra, rb, sc)
                for (ra, rb) in materialise(db["R"], world)
                for (sb, sc) in materialise(db["S"], world)
                if rb == sb
            },
        )

    def test_theta_join_inequality(self, db):
        result = ProbDB(db).sql(
            "select R.a, R.b, T.d from R, T where R.b < T.d"
        )
        assert set(result.answers()) == {(1, 10, 15), (2, 10, 15)}

    def test_theta_join_world_semantics(self, db):
        assert_world_semantics(
            db,
            "select R.a, T.d from R, T where R.b < T.d",
            lambda world: {
                (ra, td)
                for (ra, rb) in materialise(db["R"], world)
                for (td,) in materialise(db["T"], world)
                if rb < td
            },
        )

    def test_product_with_a_certain_relation(self, db):
        result = ProbDB(db).sql("select S.b, C.e, conf() from S, C")
        pairs = result.confidences()
        assert [values for values, _result in pairs] == [
            (10, 1), (10, 2), (20, 1), (20, 2),
        ]
        # Certain rows are always present: each pair is as likely as
        # its S row.
        for (b, _e), result in pairs:
            assert result.probability == pytest.approx(
                {10: 0.4, 20: 0.9}[b]
            )

    def test_product_world_semantics(self, db):
        assert_world_semantics(
            db,
            "select S.c, T.d from S, T",
            lambda world: {
                (sc, td)
                for (_sb, sc) in materialise(db["S"], world)
                for (td,) in materialise(db["T"], world)
            },
        )

    def test_self_join_through_aliases(self, db):
        # Aliases play the part of attribute renaming: both copies read
        # the same rows, so their lineage shares variables.
        assert_world_semantics(
            db,
            "select r1.a, r2.a from R r1, R r2 where r1.b = r2.b",
            lambda world: {
                (a1, a2)
                for (a1, b1) in materialise(db["R"], world)
                for (a2, b2) in materialise(db["R"], world)
                if b1 == b2
            },
        )


class TestConfidences:
    QUERY = "select R.a, conf() from R, S where R.b = S.b"

    def test_conf_matches_brute_force(self, db):
        result = ProbDB(db).sql(self.QUERY)
        lineage = dict(result.lineage())
        pairs = result.confidences()
        assert len(pairs) == 2
        for values, outcome in pairs:
            assert outcome.probability == pytest.approx(
                brute_force_probability(lineage[values], db.registry)
            )

    def test_conf_with_epsilon(self, db):
        session = ProbDB(db, EngineConfig(epsilon=0.01))
        pairs = dict(session.sql("select R.a, conf() from R").confidences())
        assert pairs[(1,)].probability == pytest.approx(
            1 - 0.5 * 0.4, abs=0.011
        )

    def test_conf_with_relative_epsilon(self, db):
        session = ProbDB(
            db, EngineConfig(epsilon=0.05, error_kind="relative")
        )
        text = "select r1.a, r2.a, conf() from R r1, R r2 where r1.b = r2.b"
        result = session.sql(text)
        lineage = dict(result.lineage())
        for values, outcome in result.confidences():
            truth = brute_force_probability(
                lineage[values], db.registry
            )
            assert abs(outcome.probability - truth) <= 0.05 * truth + 1e-12

    def test_sprout_and_lineage_paths_agree(self, db):
        # The same answers, once by SPROUT's extensional plan and once
        # on their lineage: the two ways in give the same numbers.
        session = ProbDB(db)
        result = session.sql(self.QUERY)
        extensional = result.confidences()
        assert {outcome.strategy for _v, outcome in extensional} == {
            "sprout"
        }
        on_lineage = session.lineage(result.lineage()).confidences()
        assert [values for values, _r in on_lineage] == [
            values for values, _r in extensional
        ]
        for (_v, left), (_w, right) in zip(extensional, on_lineage):
            assert right.strategy != "sprout"
            assert left.probability == pytest.approx(
                right.probability, abs=1e-12
            )
