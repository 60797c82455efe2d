"""Tests for the SPROUT-style exact operator (hierarchical queries)."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.formulas import conj, disj
from repro.core.semantics import brute_force_formula_probability
from repro.core.variables import VariableRegistry
from repro.db.cq import ConjunctiveQuery, Const, Inequality, SubGoal, Var
from repro.db.database import Database
from repro.db.engine import evaluate
from repro.db.relation import Relation
from repro.db.sprout import UnsafeQueryError, sprout_confidence


def random_hierarchical_instance(seed):
    """q(A?) :- R(A,B), S(A,C) on random small tuple-independent data."""
    rng = random.Random(seed)
    reg = VariableRegistry()
    db = Database(reg)
    r_rows = [
        ((rng.randint(1, 3), rng.randint(1, 3)), rng.uniform(0.2, 0.9))
        for _ in range(rng.randint(1, 5))
    ]
    s_rows = [
        ((rng.randint(1, 3), rng.randint(1, 3)), rng.uniform(0.2, 0.9))
        for _ in range(rng.randint(1, 5))
    ]
    # Deduplicate tuples to keep the instance set-valued.
    r_rows = list({values: p for values, p in r_rows}.items())
    s_rows = list({values: p for values, p in s_rows}.items())
    db.add(Relation.tuple_independent("R", ["a", "b"], r_rows, reg))
    db.add(Relation.tuple_independent("S", ["a", "c"], s_rows, reg))
    return db


class TestAgainstBruteForce:
    def test_boolean_query(self):
        for seed in range(20):
            db = random_hierarchical_instance(seed)
            a, b, c = Var("A"), Var("B"), Var("C")
            query = ConjunctiveQuery(
                [], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
            )
            expected = {
                ans.values: brute_force_formula_probability(
                    ans.lineage, db.registry
                )
                for ans in evaluate(query, db)
            }
            actual = dict(sprout_confidence(query, db))
            assert set(actual) == set(expected)
            for values, probability in actual.items():
                assert probability == pytest.approx(expected[values])

    def test_non_boolean_query(self):
        for seed in range(20):
            db = random_hierarchical_instance(seed + 100)
            a, b, c = Var("A"), Var("B"), Var("C")
            query = ConjunctiveQuery(
                [a], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
            )
            expected = {
                ans.values: brute_force_formula_probability(
                    ans.lineage, db.registry
                )
                for ans in evaluate(query, db)
            }
            actual = dict(sprout_confidence(query, db))
            assert set(actual) == set(expected)
            for values, probability in actual.items():
                assert probability == pytest.approx(expected[values])

    def test_three_level_hierarchy(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(
            Relation.tuple_independent(
                "R1",
                ["a", "b", "c"],
                [((1, 1, 1), 0.5), ((1, 2, 1), 0.4), ((2, 1, 2), 0.6)],
                reg,
            )
        )
        db.add(
            Relation.tuple_independent(
                "R2", ["a", "b"], [((1, 1), 0.7), ((1, 2), 0.2)], reg
            )
        )
        db.add(
            Relation.tuple_independent(
                "R3", ["a", "d"], [((1, 9), 0.3), ((2, 9), 0.8)], reg
            )
        )
        a, b, c, d = Var("A"), Var("B"), Var("C"), Var("D")
        query = ConjunctiveQuery(
            [d],
            [
                SubGoal("R1", [a, b, c]),
                SubGoal("R2", [a, b]),
                SubGoal("R3", [a, d]),
            ],
        )
        assert query.is_hierarchical()
        expected = {
            ans.values: brute_force_formula_probability(
                ans.lineage, db.registry
            )
            for ans in evaluate(query, db)
        }
        actual = dict(sprout_confidence(query, db))
        for values, probability in actual.items():
            assert probability == pytest.approx(expected[values])

    def test_certain_relation_in_join(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(
            Relation.tuple_independent(
                "R", ["a", "b"], [((1, 1), 0.5), ((2, 1), 0.6)], reg
            )
        )
        db.add(Relation.certain("D", ["a"], [(1,)]))
        a, b = Var("A"), Var("B")
        query = ConjunctiveQuery(
            [], [SubGoal("R", [a, b]), SubGoal("D", [a])]
        )
        result = dict(sprout_confidence(query, db))
        assert result[()] == pytest.approx(0.5)

    def test_local_selection_inequality(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(
            Relation.tuple_independent(
                "R", ["a", "b"], [((1, 5), 0.5), ((2, 50), 0.6)], reg
            )
        )
        a, b = Var("A"), Var("B")
        query = ConjunctiveQuery(
            [],
            [SubGoal("R", [a, b])],
            [Inequality(b, "<", Const(10))],
        )
        result = dict(sprout_confidence(query, db))
        assert result[()] == pytest.approx(0.5)


class TestRejections:
    def test_self_join_rejected(self):
        db = random_hierarchical_instance(0)
        a, b, c = Var("A"), Var("B"), Var("C")
        query = ConjunctiveQuery(
            [], [SubGoal("R", [a, b]), SubGoal("R", [a, c])]
        )
        with pytest.raises(UnsafeQueryError, match="self-join"):
            sprout_confidence(query, db)

    def test_non_hierarchical_rejected(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(Relation.tuple_independent("R", ["x"], [((1,), 0.5)], reg))
        db.add(
            Relation.tuple_independent(
                "S", ["x", "y"], [((1, 2), 0.5)], reg
            )
        )
        db.add(Relation.tuple_independent("T", ["y"], [((2,), 0.5)], reg))
        x, y = Var("X"), Var("Y")
        query = ConjunctiveQuery(
            [],
            [
                SubGoal("R", [x]),
                SubGoal("S", [x, y]),
                SubGoal("T", [y]),
            ],
        )
        with pytest.raises(UnsafeQueryError, match="hierarchical"):
            sprout_confidence(query, db)

    def test_cross_subgoal_inequality_rejected(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(Relation.tuple_independent("R", ["x"], [((1,), 0.5)], reg))
        db.add(Relation.tuple_independent("S", ["y"], [((2,), 0.5)], reg))
        x, y = Var("X"), Var("Y")
        query = ConjunctiveQuery(
            [],
            [SubGoal("R", [x]), SubGoal("S", [y])],
            [Inequality(x, "<", y)],
        )
        with pytest.raises(UnsafeQueryError, match="joins subgoals"):
            sprout_confidence(query, db)

    def test_composite_lineage_rejected(self):
        from repro.core.formulas import atom, disj

        reg = VariableRegistry()
        reg.add_boolean("v1", 0.5)
        reg.add_boolean("v2", 0.5)
        db = Database(reg)
        relation = Relation(
            "C", ["x"], [((1,), disj(atom("v1"), atom("v2")))]
        )
        db.add(relation)
        x = Var("X")
        query = ConjunctiveQuery([], [SubGoal("C", [x])])
        with pytest.raises(UnsafeQueryError, match="tuple-independent"):
            sprout_confidence(query, db)


# ----------------------------------------------------------------------
# Correlated candidate rows: SPROUT must refuse, the planner falls back
# ----------------------------------------------------------------------
def _bid_block_database():
    """One BID block whose two alternatives (0.5, 0.4) are exclusive."""
    reg = VariableRegistry()
    db = Database(reg)
    db.add(
        Relation.block_independent_disjoint(
            "B", ["x"], {"k": [(("a",), 0.5), (("b",), 0.4)]}, reg
        )
    )
    return db


def _shared_rows_database():
    """``T`` and a renamed copy ``T2`` that shares ``T``'s variables."""
    reg = VariableRegistry()
    db = Database(reg)
    table = Relation.tuple_independent("T", ["x"], [((1,), 0.5)], reg)
    db.add(table)
    db.add(table.renamed("T2"))
    return db


class TestCorrelatedRows:
    def test_bid_block_is_refused_and_answered_exactly(self):
        from repro import ProbDB

        db = _bid_block_database()
        x = Var("X")
        query = ConjunctiveQuery([], [SubGoal("B", [x])])
        assert not db["B"].has_simple_lineage()
        with pytest.raises(UnsafeQueryError, match="correlated"):
            sprout_confidence(query, db)
        session = ProbDB(db)
        [(values, result)] = session.query(query).confidences()
        assert values == ()
        assert result.strategy != "sprout"
        assert result.probability == pytest.approx(0.9, abs=1e-12)
        assert session.query(query).explain().engine_strategy != "sprout"

    def test_single_alternative_blocks_stay_simple(self):
        reg = VariableRegistry()
        relation = Relation.block_independent_disjoint(
            "B", ["x"], {"k": [(("a",), 0.5)], "j": [(("b",), 0.4)]}, reg
        )
        assert relation.has_simple_lineage()

    def test_shared_rows_across_relations_fall_back(self):
        from repro import ProbDB

        db = _shared_rows_database()
        x = Var("X")
        query = ConjunctiveQuery(
            [], [SubGoal("T", [x]), SubGoal("T2", [x])]
        )
        with pytest.raises(UnsafeQueryError, match="correlated"):
            sprout_confidence(query, db)
        [(_values, result)] = ProbDB(db).query(query).confidences()
        assert result.strategy != "sprout"
        assert result.probability == pytest.approx(0.5, abs=1e-12)


# ----------------------------------------------------------------------
# Differential: SPROUT and the lazy-lineage scan against references
# ----------------------------------------------------------------------
_SCHEMA = {"R": 3, "S": 2, "T": 1}
_VARS = [Var("A"), Var("B"), Var("C")]


@st.composite
def small_databases(draw, correlated=False):
    """Tiny relations with certain rows and repeated values; with
    ``correlated``, ``R`` is BID or ``T`` shares ``S``'s variables."""
    reg = VariableRegistry()
    value = st.integers(min_value=1, max_value=2)
    prob = st.sampled_from([0.2, 0.5, 0.7, 1.0])
    relations = {}
    for name, arity in _SCHEMA.items():
        tuples = draw(st.lists(
            st.sampled_from(list(itertools.product((1, 2, 3), repeat=arity))),
            min_size=1, max_size=5, unique=True,
        ))
        if draw(st.booleans()):
            tuples.append(tuples[0])  # a duplicate tuple, its own variable
        rows = [(values, draw(prob)) for values in tuples]
        relations[name] = Relation.tuple_independent(
            name, ["c"] * arity, rows, reg
        )
    if correlated and draw(st.booleans()):
        alternatives = draw(
            st.lists(st.tuples(value, value, value), min_size=2,
                     max_size=3)
        )
        relations["R"] = Relation.block_independent_disjoint(
            "R", ["c"] * 3,
            {"k": [(values, 0.3) for values in alternatives]}, reg,
        )
    elif correlated:
        relations["T"] = Relation(
            "T", ["c"],
            [((values[0],), lineage) for values, lineage in relations["S"]],
        )
    db = Database(reg)
    for relation in relations.values():
        db.add(relation)
    return db


@st.composite
def hierarchical_queries(draw):
    """Hierarchical self-join-free CQs with constants, repeated
    variables, local selections and partial head variables."""
    names = draw(
        st.lists(st.sampled_from(sorted(_SCHEMA)), min_size=1,
                 max_size=3, unique=True)
    )
    term = st.one_of(
        st.sampled_from(_VARS),
        st.sampled_from(_VARS[:2]),
        st.sampled_from(_VARS[:1]),
        st.integers(min_value=1, max_value=2).map(Const),
    )
    subgoals = [
        SubGoal(name, draw(st.lists(term, min_size=_SCHEMA[name],
                                    max_size=_SCHEMA[name])))
        for name in names
    ]
    body = []
    for subgoal in subgoals:
        body.extend(v for v in subgoal.variables() if v not in body)
    head = draw(st.lists(st.sampled_from(body), unique=True)) if body else []
    inequalities = []
    for subgoal in subgoals:
        local = subgoal.variables()
        if local and draw(st.booleans()):
            op = draw(st.sampled_from(["<", "<=", ">", ">=", "!="]))
            other = draw(st.sampled_from(local[1:] + [Const(2)]))
            sides = (local[0], other)
            if draw(st.booleans()):
                sides = sides[::-1]
            inequalities.append(Inequality(sides[0], op, sides[1]))
    query = ConjunctiveQuery(head, subgoals, inequalities)
    assume(query.is_hierarchical())
    return query


def reference_lineage(query, db):
    """Nested-loop join: ``[(answer, DNF)]`` in first-derivation order."""
    merged = {}
    relations = [db[subgoal.relation].rows for subgoal in query.subgoals]
    for combo in itertools.product(*relations):
        binding = {}
        consistent = True
        for subgoal, (values, _lineage) in zip(query.subgoals, combo):
            for term, value in zip(subgoal.terms, values):
                if isinstance(term, Const):
                    consistent &= term.value == value
                elif binding.setdefault(term, value) != value:
                    consistent = False
        if not consistent or not all(
            inequality.holds(binding) for inequality in query.inequalities
        ):
            continue
        answer = tuple(binding[var] for var in query.head)
        merged.setdefault(answer, []).append(
            conj(*(lineage for _values, lineage in combo))
        )
    return [
        (answer, disj(*derivations).to_dnf())
        for answer, derivations in merged.items()
    ]


DIFFERENTIAL = dict(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestDifferential:
    @given(small_databases(), hierarchical_queries())
    @settings(**DIFFERENTIAL)
    def test_lazy_lineage_matches_nested_loop_join(self, db, query):
        answers = evaluate(query, db)
        assert [
            (answer.values, answer.lineage.to_dnf()) for answer in answers
        ] == reference_lineage(query, db)

    @given(small_databases(), hierarchical_queries())
    @settings(**DIFFERENTIAL)
    def test_sprout_matches_evaluate_and_brute_force(self, db, query):
        answers = evaluate(query, db)
        results = sprout_confidence(query, db)
        assert [values for values, _p in results] == [
            answer.values for answer in answers
        ]
        for (_values, probability), answer in zip(results, answers):
            expected = brute_force_formula_probability(
                answer.lineage, db.registry
            )
            assert abs(probability - expected) <= 1e-12

    @given(small_databases(correlated=True), hierarchical_queries())
    @settings(**DIFFERENTIAL)
    def test_correlated_rows_fall_back_and_match_brute_force(
        self, db, query
    ):
        from repro import ProbDB

        answers = evaluate(query, db)
        try:
            sprout_confidence(query, db)
            refused = False
        except UnsafeQueryError:
            refused = True
        pairs = ProbDB(db).query(query).confidences()
        assert [values for values, _r in pairs] == [
            answer.values for answer in answers
        ]
        for (_values, result), answer in zip(pairs, answers):
            if refused:
                assert result.strategy != "sprout"
            expected = brute_force_formula_probability(
                answer.lineage, db.registry
            )
            assert abs(result.probability - expected) <= 1e-9


# ----------------------------------------------------------------------
# The partition-based grouping against the restrict-based one it replaced
# ----------------------------------------------------------------------
def _restrict_group_probability(goals, binding):
    """The grouping SPROUT used to run: for each candidate root value it
    rescanned every member's rows.  ``goals`` are ``(terms, rows)``."""

    def unbound(terms):
        return {t for t in terms if isinstance(t, Var) and t not in binding}

    def at_least_one(rows):
        miss = 1.0
        for _values, row_probability in rows:
            miss *= 1.0 - row_probability
        return 1.0 - miss

    probability = 1.0
    open_goals, open_vars = [], []
    for terms, rows in goals:
        if unbound(terms):
            open_goals.append((terms, rows))
            open_vars.append(unbound(terms))
            continue
        probability *= at_least_one(rows)
        if probability == 0.0:
            return 0.0
    assigned = [-1] * len(open_goals)
    component = 0
    for start in range(len(open_goals)):
        if assigned[start] >= 0:
            continue
        frontier = set(open_vars[start])
        assigned[start] = component
        changed = True
        while changed:
            changed = False
            for other in range(len(open_goals)):
                if assigned[other] < 0 and open_vars[other] & frontier:
                    assigned[other] = component
                    frontier |= open_vars[other]
                    changed = True
        component += 1
    for comp in range(component):
        members = [g for i, g in enumerate(open_goals) if assigned[i] == comp]
        if len(members) == 1:
            probability *= at_least_one(members[0][1])
            if probability == 0.0:
                return 0.0
            continue
        member_vars = set().union(
            *(v for i, v in enumerate(open_vars) if assigned[i] == comp)
        )
        roots = [
            var for var in member_vars
            if all(var in unbound(terms) for terms, _rows in members)
        ]
        if not roots:
            raise UnsafeQueryError("not hierarchical")
        root = sorted(roots, key=lambda var: var.name)[0]

        def positions(terms):
            return [p for p, term in enumerate(terms) if term == root]

        candidates = None
        for terms, rows in members:
            first = positions(terms)[0]
            values = {row[0][first] for row in rows}
            candidates = values if candidates is None else candidates & values
        miss = 1.0
        for value in sorted(candidates, key=repr):
            restricted = [
                (terms, [
                    row for row in rows
                    if all(row[0][p] == value for p in positions(terms))
                ])
                for terms, rows in members
            ]
            miss *= 1.0 - _restrict_group_probability(
                restricted, {**binding, root: value}
            )
        probability *= 1.0 - miss
        if probability == 0.0:
            return 0.0
    return probability


def restrict_sprout(query, db):
    """SPROUT with the restrict-based grouping, over each answer's rows."""
    from repro.db.engine import local_selections, scan
    from repro.db.sprout import _row_probability

    scans = [
        [
            (values, _row_probability(lineage, db.registry, set()))
            for values, lineage in scan(subgoal, db[subgoal.relation], local)
        ]
        for subgoal, local in zip(query.subgoals, local_selections(query))
    ]
    results = []
    for answer in evaluate(query, db):
        binding = dict(zip(query.head, answer.values))
        goals = [
            (subgoal.terms, [
                row for row in rows
                if all(
                    row[0][p] == binding[term]
                    for p, term in enumerate(subgoal.terms)
                    if term in binding
                )
            ])
            for subgoal, rows in zip(query.subgoals, scans)
        ]
        results.append(
            (answer.values, _restrict_group_probability(goals, binding))
        )
    return results


class TestPartitionGrouping:
    @given(small_databases(), hierarchical_queries())
    @settings(**DIFFERENTIAL)
    def test_matches_restrict_grouping_exactly(self, db, query):
        assert sprout_confidence(query, db) == restrict_sprout(query, db)

    def test_many_root_values_match_bit_for_bit(self):
        # Enough root values, and probabilities low enough that the
        # answer is far from 1, that walking the values in another order
        # changes the result's last bits.
        rng = random.Random(11)
        reg = VariableRegistry()
        db = Database(reg)
        for name in ("R", "S"):
            rows = {
                (rng.randint(1, 12), rng.randint(1, 4)): rng.uniform(0.02, 0.3)
                for _ in range(30)
            }
            db.add(Relation.tuple_independent(
                name, ["a", "b"], list(rows.items()), reg
            ))
        a, b, c = Var("A"), Var("B"), Var("C")
        for head in ([], [b]):
            query = ConjunctiveQuery(
                head, [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
            )
            assert sprout_confidence(query, db) == restrict_sprout(query, db)

    def test_root_repeated_inside_one_subgoal(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(Relation.tuple_independent(
            "R", ["a", "a2", "b"],
            [((1, 1, 5), 0.5), ((1, 2, 6), 0.9), ((2, 2, 5), 0.4),
             ((1, 1, 7), 0.3)],
            reg,
        ))
        db.add(Relation.tuple_independent(
            "S", ["a", "c"], [((1, 8), 0.6), ((2, 8), 0.7), ((3, 8), 0.2)],
            reg,
        ))
        a, b, c = Var("A"), Var("B"), Var("C")
        query = ConjunctiveQuery(
            [], [SubGoal("R", [a, a, b]), SubGoal("S", [a, c])]
        )
        [(values, probability)] = sprout_confidence(query, db)
        assert values == ()
        assert [(values, probability)] == restrict_sprout(query, db)
        [answer] = evaluate(query, db)
        assert probability == pytest.approx(
            brute_force_formula_probability(answer.lineage, reg), abs=1e-12
        )

    def test_candidate_value_whose_rows_fail_the_repeated_check(self):
        from repro.db.sprout import _Goal, _group_probability

        a, b, c = Var("A"), Var("B"), Var("C")
        r_rows = [((1, 2, 1), 0.5), ((2, 2, 1), 0.6)]
        s_rows = [((1, 3), 0.4), ((2, 3), 0.7)]
        r_goal = _Goal((a, a, b), r_rows)
        # Value 1 is a key of R's partition, but its only row holds 2 at
        # A's second position: the value keeps an empty row list.
        assert r_goal.partition(a) == {1: [], 2: [((2, 2, 1), 0.6)]}
        probability = _group_probability([r_goal, _Goal((a, c), s_rows)], {})
        assert probability == _restrict_group_probability(
            [((a, a, b), r_rows), ((a, c), s_rows)], {}
        )
        assert probability == pytest.approx(0.6 * 0.7, abs=1e-15)

    def test_each_subgoal_is_scanned_once(self, monkeypatch):
        import repro.db.engine as db_engine
        import repro.db.sprout as sprout

        scanned = []

        def counting(original):
            def wrapper(subgoal, relation, selections):
                scanned.append(subgoal)
                return original(subgoal, relation, selections)
            return wrapper

        monkeypatch.setattr(sprout, "scan", counting(sprout.scan))
        monkeypatch.setattr(db_engine, "scan", counting(db_engine.scan))
        db = random_hierarchical_instance(3)
        a, b, c = Var("A"), Var("B"), Var("C")
        query = ConjunctiveQuery(
            [a], [SubGoal("R", [a, b]), SubGoal("S", [a, c])]
        )
        assert sprout_confidence(query, db)
        assert [id(subgoal) for subgoal in scanned] == [
            id(subgoal) for subgoal in query.subgoals
        ]

    def test_correlated_rows_without_answers_return_empty(self):
        reg = VariableRegistry()
        db = Database(reg)
        db.add(Relation.block_independent_disjoint(
            "B", ["x"], {"k": [(("a",), 0.5), (("b",), 0.4)]}, reg
        ))
        db.add(Relation.tuple_independent("C", ["x"], [(("c",), 0.5)], reg))
        x = Var("X")
        query = ConjunctiveQuery([], [SubGoal("B", [x]), SubGoal("C", [x])])
        assert sprout_confidence(query, db) == []
        db.add(Relation.tuple_independent("D", ["x"], [(("a",), 0.5)], reg))
        joined = ConjunctiveQuery([], [SubGoal("B", [x]), SubGoal("D", [x])])
        with pytest.raises(UnsafeQueryError, match="correlated"):
            sprout_confidence(joined, db)
