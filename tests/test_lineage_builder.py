"""Differential tests for the direct lineage-DNF builder.

``QueryResult.lineage()`` and ``evaluate_to_dnf`` build each answer's
DNF straight from its join derivations (``QueryAnswer.dnf``).  The
formula view ``QueryAnswer.lineage`` — a ``∨`` of ``∧`` tree converted
with ``Formula.to_dnf`` — is the independent reference: on random small
databases with certain rows, BID blocks, self-joins, c-table rows with
disjunctive lineage, IQ joins and empty results, both paths must give
the same clause set, in the same sorted order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.db.engine as db_engine
from repro.core.formulas import (
    FALSE,
    TRUE,
    AndNode,
    OrNode,
    atom,
    conj,
    disj,
)
from repro.core.variables import VariableRegistry
from repro.db.cq import Const, ConjunctiveQuery, Inequality, SubGoal, Var
from repro.db.database import Database
from repro.db.engine import QueryAnswer, evaluate, evaluate_to_dnf
from repro.db.relation import Relation
from repro.db.session import ProbDB

COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_value = st.integers(min_value=1, max_value=3)
# 1.0 makes a certain row (lineage ⊤).
_prob = st.sampled_from([0.3, 0.5, 0.8, 1.0])


def _rows(draw, max_rows=4):
    return [
        ((draw(_value), draw(_value)), draw(_prob))
        for _ in range(draw(st.integers(min_value=0, max_value=max_rows)))
    ]


def _tuple_independent(draw, registry):
    """T(a, b), tuple-independent with certain rows, and C(b), certain."""
    relations = [
        Relation.tuple_independent("T", ["a", "b"], _rows(draw), registry)
    ]
    relations.append(
        Relation.certain(
            "C",
            ["b"],
            [
                (value,)
                for value in draw(st.lists(_value, max_size=3, unique=True))
            ],
        )
    )
    return relations


@st.composite
def tuple_independent_databases(draw):
    registry = VariableRegistry()
    database = Database(registry)
    for relation in _tuple_independent(draw, registry):
        database.add(relation)
    return database


@st.composite
def databases(draw):
    """T and C as above, plus B(a, c), BID with blocks of up to three
    alternatives, and D(a, d), a c-table whose rows carry composite
    lineage over T's and B's variables."""
    registry = VariableRegistry()
    database = Database(registry)
    for relation in _tuple_independent(draw, registry):
        database.add(relation)
    blocks = {}
    for key in range(draw(st.integers(min_value=0, max_value=3))):
        count = draw(st.integers(min_value=1, max_value=3))
        blocks[key] = [
            ((draw(_value), draw(_value)), 0.9 / count) for _ in range(count)
        ]
    bid = Relation.block_independent_disjoint(
        "B", ["a", "c"], blocks, registry
    )
    database.add(bid)

    pool = [
        lineage
        for _values, lineage in database["T"].rows + bid.rows
        if lineage is not TRUE
    ]
    for index in range(2):
        variable = ("D", index)
        registry.add_boolean(variable, 0.4)
        pool.append(atom(variable))
    leaves = st.sampled_from(pool + [TRUE])
    composite = st.one_of(
        st.lists(leaves, min_size=1, max_size=3).map(lambda xs: disj(*xs)),
        st.lists(leaves, min_size=1, max_size=3).map(lambda xs: conj(*xs)),
        st.lists(leaves, min_size=1, max_size=3).map(OrNode),
        st.lists(leaves, max_size=3).map(AndNode),
        leaves,
    )
    rows = [
        ((draw(_value), draw(_value)), draw(composite))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    database.add(Relation("D", ["a", "d"], rows))
    return database


a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
a2, b2, c2 = Var("a2"), Var("b2"), Var("c2")

TI_QUERIES = [
    ConjunctiveQuery([a], [SubGoal("T", [a, b]), SubGoal("C", [b])]),
    # Self-join: a row joined with itself repeats its atom.
    ConjunctiveQuery([a], [SubGoal("T", [a, b]), SubGoal("T", [a, b2])]),
    # IQ join: a cross-subgoal inequality, Boolean head.
    ConjunctiveQuery(
        [],
        [SubGoal("T", [a, b]), SubGoal("T", [a2, b2])],
        [Inequality(a, "<", a2)],
    ),
    # Empty: no row has b = 99.
    ConjunctiveQuery([a], [SubGoal("T", [a, Const(99)])]),
]

QUERIES = TI_QUERIES + [
    ConjunctiveQuery([a], [SubGoal("T", [a, b]), SubGoal("B", [a, c])]),
    # BID self-join: two alternatives of one block are inconsistent.
    ConjunctiveQuery([a], [SubGoal("B", [a, c]), SubGoal("B", [a, c2])]),
    # Composite row lineage: the conj(...).to_dnf() fallback.
    ConjunctiveQuery([a], [SubGoal("T", [a, b]), SubGoal("D", [a, d])]),
    ConjunctiveQuery([d], [SubGoal("D", [a, d]), SubGoal("B", [a, c])]),
    ConjunctiveQuery(
        [a],
        [SubGoal("B", [a, c]), SubGoal("D", [a2, d])],
        [Inequality(a, "<=", a2), Inequality(c, "!=", d)],
    ),
]


def reference(query, database):
    """``(values, DNF)`` pairs through the formula view."""
    return [
        (answer.values, answer.lineage.to_dnf())
        for answer in evaluate(query, database)
    ]


def assert_same_lineage(got, expected):
    assert [values for values, _dnf in got] == [
        values for values, _dnf in expected
    ]
    for (_values, dnf), (_ref_values, ref) in zip(got, expected):
        assert dnf == ref
        assert dnf.sorted_clauses() == ref.sorted_clauses()


class TestDirectBuilder:
    @given(databases())
    @settings(**COMMON)
    def test_session_and_evaluate_to_dnf_match_formula_view(
        self, database
    ):
        session = ProbDB(database)
        for query in QUERIES:
            expected = reference(query, database)
            assert_same_lineage(session.query(query).lineage(), expected)
            assert_same_lineage(evaluate_to_dnf(query, database), expected)

    @pytest.mark.parametrize(
        "derivations",
        [
            [],
            [()],
            [(atom("x"),), (TRUE, TRUE)],
            # Composite rows that conj() folds to ⊤ make the answer ⊤.
            [(atom("x"),), (TRUE, AndNode([]))],
            [(atom("x"),), (AndNode([TRUE]),)],
            [(atom("b0", 0), atom("b0", 1)), (atom("y"),)],
            [(FALSE, atom("x")), (atom("y"), atom("y"))],
            [(disj(atom("x"), atom("y")), atom("z")), (atom("z"),)],
            [(OrNode([TRUE, atom("x")]), atom("y"))],
        ],
    )
    def test_hand_built_derivations(self, derivations):
        answer = QueryAnswer((), derivations)
        expected = answer.lineage.to_dnf()
        assert answer.dnf == expected
        assert answer.dnf.sorted_clauses() == expected.sorted_clauses()

    def test_empty_result(self):
        registry = VariableRegistry()
        database = Database(registry)
        database.add(
            Relation.tuple_independent("T", ["a", "b"], [((1, 2), 0.5)],
                                       registry)
        )
        assert evaluate_to_dnf(TI_QUERIES[-1], database) == []
        assert ProbDB(database).query(TI_QUERIES[-1]).lineage() == []

    def test_certain_derivation_makes_answer_true(self):
        registry = VariableRegistry()
        database = Database(registry)
        database.add(
            Relation.tuple_independent(
                "T", ["a", "b"], [((1, 2), 0.5), ((1, 3), 1.0)], registry
            )
        )
        database.add(Relation.certain("C", ["b"], [(2,), (3,)]))
        (values, dnf), = evaluate_to_dnf(TI_QUERIES[0], database)
        assert values == (1,)
        assert dnf.is_true() and len(dnf) == 1

    def test_bid_alternatives_never_share_a_clause(self):
        registry = VariableRegistry()
        database = Database(registry)
        database.add(
            Relation.block_independent_disjoint(
                "B", ["a", "c"], {0: [((1, 1), 0.4), ((1, 2), 0.5)]},
                registry,
            )
        )
        (_values, dnf), = evaluate_to_dnf(QUERIES[5], database)
        # Two consistent self-pairs survive; the two mixed pairs drop.
        assert len(dnf) == 2
        assert all(len(clause) == 1 for clause in dnf)


class TestNoFormulaTree:
    @given(tuple_independent_databases())
    @settings(**COMMON)
    def test_tuple_independent_lineage_builds_no_formula(self, database):
        def forbidden(*_formulas):
            raise AssertionError("lineage built a Formula tree")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(db_engine, "conj", forbidden)
            patch.setattr(db_engine, "disj", forbidden)
            session = ProbDB(database)
            for query in TI_QUERIES:
                session.query(query).lineage()
                evaluate_to_dnf(query, database)
