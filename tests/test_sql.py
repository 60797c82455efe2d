"""Tests for the SQL conf() front-end, driven through the ProbDB session."""

import pytest

from repro.core.semantics import brute_force_formula_probability
from repro.core.variables import VariableRegistry
from repro.db.database import Database
from repro.db.engine import evaluate
from repro.db.relation import Relation
from repro.db.session import ProbDB
from repro.db.sql import SqlSyntaxError, _tokenize, parse_conf_query
from repro.engine import EngineConfig


def sql_rows(text, database, *, epsilon=0.0):
    """``(answer, confidence)`` rows of a SQL query on a fresh session.

    The confidence is ``None`` when the query does not select ``conf()``.
    """
    result = ProbDB(database, EngineConfig(epsilon=epsilon)).sql(text)
    if not result.wants_conf:
        return [(values, None) for values in result.answers()]
    return [
        (values, outcome.probability)
        for values, outcome in result.confidences()
    ]


@pytest.fixture
def social_db():
    """The Fig. 5(a) tuple-independent edge table."""
    reg = VariableRegistry()
    edges = [
        ((5, 7), 0.9),
        ((5, 11), 0.8),
        ((6, 7), 0.1),
        ((6, 11), 0.9),
        ((6, 17), 0.5),
        ((7, 17), 0.2),
    ]
    relation = Relation.tuple_independent("E", ["u", "v"], edges, reg)
    return Database(reg, [relation])


@pytest.fixture
def rs_db():
    reg = VariableRegistry()
    db = Database(reg)
    db.add(
        Relation.tuple_independent(
            "R",
            ["a", "b"],
            [((1, 10), 0.5), ((1, 20), 0.6), ((2, 10), 0.7)],
            reg,
        )
    )
    db.add(
        Relation.tuple_independent(
            "S", ["b", "c"], [((10, 5), 0.4), ((20, 6), 0.9)], reg
        )
    )
    return db


class TestPaperTriangleQuery:
    def test_verbatim_triangle_sql(self, social_db):
        """The exact SQL of Section VI.A computes P(triangle) = 0.01."""
        sql = """
            select conf() as triangle_prob
            from E n1, E n2, E n3
            where n1.v = n2.u and n2.v = n3.v and
                  n1.u = n3.u and n1.u < n2.u and n2.u < n3.v;
        """
        results = sql_rows(sql, social_db)
        assert len(results) == 1
        (answer, confidence), = results
        assert answer == ()
        assert confidence == pytest.approx(0.1 * 0.5 * 0.2)

    def test_parsed_query_is_self_join(self, social_db):
        sql = """select conf() from E n1, E n2
                 where n1.v = n2.u"""
        parsed = parse_conf_query(sql, social_db)
        assert parsed.wants_conf
        assert parsed.query.has_self_join()
        assert len(parsed.query.subgoals) == 2


class TestSelectAndJoin:
    def test_equi_join_and_projection(self, rs_db):
        results = sql_rows(
            "select R.a, conf() from R, S where R.b = S.b", rs_db
        )
        by_answer = dict(results)
        assert set(by_answer) == {(1,), (2,)}
        # a = 1: (r(1,10)∧s(10,5)) ∨ (r(1,20)∧s(20,6))
        assert by_answer[(1,)] == pytest.approx(
            1 - (1 - 0.5 * 0.4) * (1 - 0.6 * 0.9)
        )

    def test_unqualified_unambiguous_column(self, rs_db):
        results = sql_rows(
            "select a, conf() from R, S where R.b = S.b and c = 5", rs_db
        )
        assert dict(results)[(1,)] == pytest.approx(0.5 * 0.4)

    def test_ambiguous_column_rejected(self, rs_db):
        with pytest.raises(SqlSyntaxError, match="ambiguous"):
            sql_rows("select b from R, S", rs_db)

    def test_constant_selection(self, rs_db):
        results = sql_rows(
            "select conf() from R where a = 2", rs_db
        )
        (_answer, confidence), = results
        assert confidence == pytest.approx(0.7)

    def test_inequality_with_literal(self, rs_db):
        results = sql_rows(
            "select conf() from R where b >= 20", rs_db
        )
        (_answer, confidence), = results
        assert confidence == pytest.approx(0.6)

    def test_without_conf_returns_tuples(self, rs_db):
        results = sql_rows("select R.a from R", rs_db)
        assert {answer for answer, conf in results} == {(1,), (2,)}
        assert all(conf is None for _a, conf in results)

    def test_string_literal(self, social_db):
        reg = social_db.registry
        social_db.add(
            Relation.tuple_independent(
                "N", ["node", "label"],
                [((5, "alice"), 0.5), ((6, "bob"), 0.5)], reg,
            )
        )
        results = sql_rows(
            "select conf() from N where label = 'alice'", social_db
        )
        (_answer, confidence), = results
        assert confidence == pytest.approx(0.5)

    def test_confidence_matches_lineage(self, rs_db):
        parsed = parse_conf_query(
            "select R.a, conf() from R, S where R.b = S.b", rs_db
        )
        answers = {a.values: a for a in evaluate(parsed.query, rs_db)}
        for values, confidence in sql_rows(
            "select R.a, conf() from R, S where R.b = S.b", rs_db
        ):
            expected = brute_force_formula_probability(
                answers[values].lineage, rs_db.registry
            )
            assert confidence == pytest.approx(expected)


class TestTokenizer:
    @pytest.mark.parametrize(
        "text, token",
        [
            ("1.5", ("number", "1.5")),
            ("-3", ("number", "-3")),
            ("'x y'", ("string", "'x y'")),
            ("<=", ("op", "<=")),
            ("<>", ("op", "<>")),
            ("!=", ("op", "!=")),
            ("*", ("punct", "*")),
            ("n1", ("word", "n1")),
            ("SELECT", ("keyword", "select")),
            ("Conf", ("keyword", "conf")),
        ],
    )
    def test_single_token_kind(self, text, token):
        assert _tokenize(f"  {text} ") == [token]

    def test_token_sequence(self):
        assert _tokenize("select a.b<=-2.5, 'x' from T;") == [
            ("keyword", "select"),
            ("word", "a"),
            ("punct", "."),
            ("word", "b"),
            ("op", "<="),
            ("number", "-2.5"),
            ("punct", ","),
            ("string", "'x'"),
            ("keyword", "from"),
            ("word", "T"),
            ("punct", ";"),
        ]

    def test_untokenizable_text_rejected(self):
        with pytest.raises(SqlSyntaxError, match="cannot tokenize"):
            _tokenize("select @ from R")


class TestSyntaxErrors:
    def test_unknown_table(self, rs_db):
        with pytest.raises(SqlSyntaxError, match="unknown table"):
            parse_conf_query("select conf() from GHOST", rs_db)

    def test_unknown_column(self, rs_db):
        with pytest.raises(SqlSyntaxError, match="no column"):
            parse_conf_query("select R.zzz from R", rs_db)

    def test_duplicate_alias(self, rs_db):
        with pytest.raises(SqlSyntaxError, match="duplicate alias"):
            parse_conf_query("select conf() from R x, S x", rs_db)

    def test_garbage_rejected(self, rs_db):
        with pytest.raises(SqlSyntaxError):
            parse_conf_query("selec conf() from R", rs_db)

    def test_trailing_tokens_rejected(self, rs_db):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse_conf_query("select conf() from R ; extra", rs_db)

    def test_literal_only_comparison_rejected(self, rs_db):
        with pytest.raises(SqlSyntaxError, match="literal"):
            parse_conf_query("select conf() from R where 1 < 2", rs_db)

    def test_selected_constant_column_rejected(self, rs_db):
        with pytest.raises(SqlSyntaxError, match="pinned"):
            parse_conf_query("select a, conf() from R where a = 1", rs_db)


class TestEpsilonForwarding:
    def test_approximate_confidence(self, rs_db):
        exact = dict(
            sql_rows(
                "select R.a, conf() from R, S where R.b = S.b", rs_db
            )
        )
        approx = dict(
            sql_rows(
                "select R.a, conf() from R, S where R.b = S.b",
                rs_db,
                epsilon=0.05,
            )
        )
        for key, value in approx.items():
            assert abs(value - exact[key]) <= 0.05 + 1e-9
