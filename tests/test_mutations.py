"""Tests for the mutation subsystem: probabilistic DML, transactions,
the SQL dialect, and cone-level incremental recompilation.

The core contracts under test:

* **DML semantics** — insert / update / delete per-row-shape rules from
  :mod:`repro.db.mutations` (minting, promotion, re-registration, the
  refusals for BID and c-table rows, zero-mass errors).
* **Transactions** — mutations apply immediately, a clean exit commits
  (one circuit-cache version bump), an exception or ``rollback()``
  restores relation contents, minted variables, and replaced
  distributions exactly.
* **Update-differential** — after a random mutation workload, every
  query confidence is *bit-identical* to a from-scratch session rebuilt
  over the mutated state with cold caches.
* **Warm cones** — mutating one relation leaves queries over a disjoint
  relation answering with strategy ``"circuit"`` and zero cold
  decomposition misses; the mutated relation's own circuits are gone.
"""

import random

import pytest

from repro.core.formulas import TRUE, AtomNode, TrueNode
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.db import (
    Database,
    MutationError,
    ProbDB,
    Relation,
    SqlSyntaxError,
    Transaction,
    parse_statement,
)
from repro.db.cq import ConjunctiveQuery, SubGoal, Var
from repro.db.session import QueryResult
from repro.engine import EngineConfig


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def make_db(config=None, *, seed=7, rows=6):
    """A two-relation tuple-independent database over small domains."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    database = Database(registry)
    database.add(
        Relation.tuple_independent(
            "R", ["a", "b"],
            [((rng.randrange(3), rng.randrange(3)),
              rng.uniform(0.1, 0.9)) for _ in range(rows)],
            registry,
        )
    )
    database.add(
        Relation.tuple_independent(
            "S", ["b", "c"],
            [((rng.randrange(3), rng.randrange(3)),
              rng.uniform(0.1, 0.9)) for _ in range(rows)],
            registry,
        )
    )
    return ProbDB(database, config)


def join_query():
    """Q(a) :- R(a, b), S(b, c) — a two-relation join."""
    a, b, c = Var("A"), Var("B"), Var("C")
    return ConjunctiveQuery(
        [a], [SubGoal("R", [a, b]), SubGoal("S", [b, c])], [], name="join"
    )


def self_join_query(table="R"):
    """Q(a) :- T(a, b), T(b, c) — a self-join (never SPROUT-safe)."""
    a, b, c = Var("A"), Var("B"), Var("C")
    return ConjunctiveQuery(
        [a],
        [SubGoal(table, [a, b]), SubGoal(table, [b, c])],
        [],
        name=f"self-join-{table}",
    )


def rebuild_from_scratch(db, config=None):
    """A cold session over a copy of ``db``'s *current* mutated state.

    Fresh registry, fresh engine, fresh caches; lineage formulas are
    shared (they are immutable), variables re-registered at their
    current probabilities.  This is the differential oracle: whatever
    the incremental path answers must match this bit-for-bit.
    """
    registry = VariableRegistry()
    database = Database(registry)
    for name in db.database.relation_names():
        relation = db.database[name]
        for _values, lineage in relation.rows:
            for variable in lineage.variables():
                if variable not in registry:
                    registry.add_boolean(
                        variable, db.registry.probability(variable, True)
                    )
        database.add(
            Relation(
                relation.name,
                relation.attributes,
                [tuple(row) for row in relation.rows],
                relation.variable_origin,
            )
        )
    return ProbDB(database, config)


def confidences_of(db, query):
    """Fresh ``(values, probability)`` pairs, sorted for comparison."""
    result = db.query(query)
    return sorted(
        (values, engine_result.probability)
        for values, engine_result in result.confidences()
    )


def rows_of(db, table):
    return [values for values, _lineage in db.database[table].rows]


# ----------------------------------------------------------------------
# DML semantics
# ----------------------------------------------------------------------
class TestInsert:
    def test_certain_insert(self):
        db = make_db()
        before = len(db.database["R"].rows)
        result = db.insert("R", (9, 9))
        assert result.op == "insert"
        assert result.rows_affected == 1
        assert result.touched_variables == frozenset()
        values, lineage = db.database["R"].rows[-1]
        assert values == (9, 9)
        assert isinstance(lineage, TrueNode)
        assert len(db.database["R"].rows) == before + 1

    def test_probabilistic_insert_mints_variable(self):
        db = make_db()
        result = db.insert("R", (9, 9), probability=0.25)
        (variable,) = result.touched_variables
        assert db.registry.probability(variable, True) == pytest.approx(0.25)
        _values, lineage = db.database["R"].rows[-1]
        assert isinstance(lineage, AtomNode)
        assert lineage.atom.variable == variable
        assert db.database["R"].variable_origin[variable] == "R"

    def test_minted_names_probe_past_collisions(self):
        db = make_db(rows=3)
        first = db.insert("R", (7, 7), probability=0.5)
        db.delete("R", lambda row: row["a"] == 7)
        second = db.insert("R", (8, 8), probability=0.5)
        # The deleted row's variable stays registered, so the second
        # insert probes past it instead of re-minting the same name.
        assert first.touched_variables != second.touched_variables

    def test_insert_autocommit_bumps_cache_version(self):
        db = make_db()
        before = db.circuits.version
        db.insert("R", (1, 1))
        assert db.circuits.version == before + 1

    def test_insert_errors(self):
        db = make_db()
        with pytest.raises(MutationError):
            db.insert("nope", (1, 2))
        with pytest.raises(MutationError):
            db.insert("R", (1, 2, 3))  # arity
        with pytest.raises(MutationError):
            db.insert("R", (1, 2), probability=0.0)  # no mass
        with pytest.raises(MutationError):
            db.insert("R", (1, 2), probability=-0.5)


class TestDelete:
    def test_delete_all_where_forms(self):
        for where, expect in [
            ({"a": 0}, lambda v: v[0] == 0),
            (lambda row: row["a"] == 0, lambda v: v[0] == 0),
            ([("a", "=", 0)], lambda v: v[0] == 0),
            ([("a", ">", 0), ("b", "<=", 1)],
             lambda v: v[0] > 0 and v[1] <= 1),
        ]:
            db = make_db()
            survivors = [v for v in rows_of(db, "R") if not expect(v)]
            doomed = len(rows_of(db, "R")) - len(survivors)
            result = db.delete("R", where)
            assert result.rows_affected == doomed
            assert rows_of(db, "R") == survivors

    def test_delete_touches_lineage_variables(self):
        db = make_db()
        (values, lineage) = db.database["R"].rows[0]
        result = db.delete("R", lambda row: True)
        assert lineage.variables() <= set(result.touched_variables)
        assert rows_of(db, "R") == []
        # Variables stay registered (renamed relations may share rows).
        for variable in result.touched_variables:
            assert variable in db.registry

    def test_delete_nothing_is_clean(self):
        db = make_db()
        result = db.delete("R", {"a": 99})
        assert result.rows_affected == 0
        assert result.touched_variables == frozenset()

    def test_unsupported_operator(self):
        db = make_db()
        with pytest.raises(MutationError):
            db.delete("R", [("a", "~=", 1)])


class TestUpdate:
    def test_value_update_keeps_lineage(self):
        db = make_db()
        _old_values, old_lineage = db.database["R"].rows[0]
        target = rows_of(db, "R")[0]
        db.update("R", values={"a": 42},
                  where=lambda row: (row["a"], row["b"]) == target)
        new_values, new_lineage = db.database["R"].rows[0]
        assert new_values == (42, target[1])
        assert new_lineage is old_lineage

    def test_probability_update_reregisters(self):
        db = make_db()
        _values, lineage = db.database["R"].rows[0]
        variable = lineage.atom.variable
        result = db.update(
            "R", probability=0.77,
            where=lambda row: True,
        )
        assert variable in result.touched_variables
        assert db.registry.probability(variable, True) == pytest.approx(0.77)

    def test_promote_to_certain_keeps_variable_registered(self):
        db = make_db()
        _values, lineage = db.database["R"].rows[0]
        variable = lineage.atom.variable
        db.update("R", probability=1.0)
        assert all(
            isinstance(line, TrueNode)
            for _v, line in db.database["R"].rows
        )
        assert variable in db.registry  # shared row lists stay valid

    def test_certain_row_demoted_mints_fresh_variable(self):
        db = make_db()
        db.insert("R", (5, 5))  # certain
        result = db.update(
            "R", probability=0.5, where={"a": 5}
        )
        (minted,) = result.touched_variables
        assert db.registry.probability(minted, True) == pytest.approx(0.5)
        _values, lineage = db.database["R"].rows[-1]
        assert lineage.atom.variable == minted

    def test_bid_rows_refuse_probability_updates(self):
        registry = VariableRegistry()
        database = Database(registry)
        database.add(
            Relation.block_independent_disjoint(
                "B", ["k", "v"],
                {"x": [(("x", 1), 0.4), (("x", 2), 0.5)]},
                registry,
            )
        )
        db = ProbDB(database)
        with pytest.raises(MutationError):
            db.update("B", probability=0.9)

    def test_complex_lineage_refuses_probability_updates(self):
        registry = VariableRegistry()
        registry.add_boolean("u", 0.5)
        registry.add_boolean("w", 0.5)
        from repro.core.events import Atom
        from repro.core.formulas import AndNode

        lineage = AndNode(
            (AtomNode(Atom("u", True)), AtomNode(Atom("w", True)))
        )
        database = Database(registry)
        database.add(Relation("C", ["x"], [((1,), lineage)]))
        db = ProbDB(database)
        with pytest.raises(MutationError):
            db.update("C", probability=0.9)

    def test_update_argument_errors(self):
        db = make_db()
        with pytest.raises(MutationError):
            db.update("R")  # neither values nor probability
        with pytest.raises(MutationError):
            db.update("R", probability=0.0)  # zero mass


# ----------------------------------------------------------------------
# Confidence correctness through mutations (brute-force oracle)
# ----------------------------------------------------------------------
class TestProbabilityUpdateSoundness:
    """Re-reads after ``update(probability=...)`` keep certified bounds.

    A probability update rewrites registry slots in place; every cache
    derived from them — including the numpy kernels' dense probability
    window behind the Fig. 3 leaf bounds — must see the new values, or
    the re-read's interval is computed from stale marginals.
    """

    SQL = "select conf() from E e1, E e2 where e1.v = e2.u"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reread_interval_contains_truth(self, seed):
        rng = random.Random(seed)
        edges = set()
        while len(edges) < 16:
            u, v = rng.randrange(8), rng.randrange(8)
            if u != v:
                edges.add((u, v))
        edges = sorted(edges)
        registry = VariableRegistry()
        database = Database(registry)
        database.add(
            Relation.tuple_independent(
                "E", ["u", "v"],
                [(edge, rng.uniform(0.05, 0.3)) for edge in edges],
                registry,
            )
        )
        db = ProbDB(database, EngineConfig(epsilon=0.1))
        db.sql(self.SQL).confidences()  # warm every cache
        chosen = set(rng.sample(edges, 6))
        db.update(
            "E", probability=0.9,
            where=lambda row: (row["u"], row["v"]) in chosen,
        )
        result = db.sql(self.SQL)
        ((_values, outcome),) = result.confidences()
        ((_values, lineage),) = result.lineage()
        truth = brute_force_probability(lineage, registry)
        assert outcome.lower - 1e-9 <= truth <= outcome.upper + 1e-9, (
            f"seed={seed}: [{outcome.lower}, {outcome.upper}] "
            f"excludes {truth}"
        )


class TestMutatedConfidences:
    def test_confidence_tracks_mutations_exactly(self):
        db = make_db(EngineConfig(compile_circuits=True), rows=4)
        query = join_query()
        confidences_of(db, query)  # warm the caches pre-mutation

        db.update("S", probability=0.6)
        db.insert("R", (0, 0), probability=0.35)
        db.delete("R", [("a", "=", 2)])

        for values, dnf in db.query(query).lineage():
            expected = brute_force_probability(dnf, db.registry)
            got = db.confidence(dnf)
            assert got.probability == pytest.approx(expected, abs=1e-12), values


# ----------------------------------------------------------------------
# Transactions
# ----------------------------------------------------------------------
class TestTransactions:
    def test_clean_exit_commits_once(self):
        db = make_db()
        version_before = db.circuits.version
        with db.transaction():
            db.insert("R", (6, 6), probability=0.5)
            db.insert("S", (6, 6))
            # Mid-transaction: no version bump yet (deferred to commit).
            assert db.circuits.version == version_before
        assert db.circuits.version == version_before + 1
        assert (6, 6) in rows_of(db, "R")
        assert (6, 6) in rows_of(db, "S")

    def test_exception_rolls_back_everything(self):
        db = make_db()
        rows_before = {t: rows_of(db, t) for t in ("R", "S")}
        _values, lineage = db.database["R"].rows[0]
        variable = lineage.atom.variable
        prob_before = db.registry.probability(variable, True)

        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("R", (6, 6), probability=0.5)
                db.update("R", probability=0.9)
                db.delete("S", lambda row: True)
                raise RuntimeError("boom")

        assert {t: rows_of(db, t) for t in ("R", "S")} == rows_before
        assert db.registry.probability(variable, True) == prob_before
        assert db._txn is None

    def test_rollback_restores_exact_confidences(self):
        db = make_db(EngineConfig(compile_circuits=True))
        query = join_query()
        before = confidences_of(db, query)
        with db.transaction() as txn:
            db.update("R", probability=0.42)
            db.insert("S", (1, 1), probability=0.3)
            txn.rollback()
        assert confidences_of(db, query) == before  # bit-identical

    def test_minted_variables_are_unregistered_on_rollback(self):
        db = make_db()
        try:
            with db.transaction():
                result = db.insert("R", (6, 6), probability=0.5)
                (minted,) = result.touched_variables
                assert minted in db.registry
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert minted not in db.registry
        assert minted not in db.database["R"].variable_origin

    def test_queries_mid_transaction_see_mutations(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert("R", (8, 8))
            assert (8, 8) in rows_of(db, "R")
            txn.rollback()
        assert (8, 8) not in rows_of(db, "R")

    def test_nesting_and_reuse_are_rejected(self):
        db = make_db()
        with db.transaction() as txn:
            with pytest.raises(MutationError):
                db.transaction()
        with pytest.raises(MutationError):
            txn.commit()  # already committed by the context exit
        with pytest.raises(MutationError):
            txn.rollback()

    def test_explicit_commit_inside_block(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert("R", (3, 9))
            txn.commit()
        assert (3, 9) in rows_of(db, "R")
        assert isinstance(txn, Transaction)
        assert not txn.active


# ----------------------------------------------------------------------
# SQL dialect
# ----------------------------------------------------------------------
class TestSqlDml:
    def test_insert_statement(self):
        db = make_db()
        result = db.execute(
            "insert into R values (4, 4) with probability 0.5"
        )
        assert result.op == "insert"
        assert (4, 4) in rows_of(db, "R")
        _values, lineage = db.database["R"].rows[-1]
        assert isinstance(lineage, AtomNode)

    def test_certain_insert_statement(self):
        db = make_db()
        db.execute("INSERT INTO R VALUES (5, 5);")
        _values, lineage = db.database["R"].rows[-1]
        assert isinstance(lineage, TrueNode)

    def test_update_statements(self):
        db = make_db()
        db.execute("update R set a = 7 where b >= 0")
        assert all(v[0] == 7 for v in rows_of(db, "R"))
        result = db.execute("update R set probability = 0.9 where a = 7")
        assert result.rows_affected == len(rows_of(db, "R"))
        db.execute("update R set a = 1, probability 0.5")
        assert all(v[0] == 1 for v in rows_of(db, "R"))

    def test_delete_statement(self):
        db = make_db()
        count = len(rows_of(db, "R"))
        result = db.execute("delete from R where a = 0 and b = 0")
        assert result.op == "delete"
        assert len(rows_of(db, "R")) == count - result.rows_affected

    def test_transaction_statements(self):
        db = make_db()
        txn = db.execute("begin transaction")
        assert isinstance(txn, Transaction)
        db.execute("insert into S values (9, 9)")
        db.execute("rollback")
        assert (9, 9) not in rows_of(db, "S")

        db.execute("BEGIN")
        db.execute("insert into S values (9, 9)")
        db.execute("commit")
        assert (9, 9) in rows_of(db, "S")
        with pytest.raises(MutationError):
            db.execute("commit")  # no active transaction

    def test_select_still_routes_to_queries(self):
        db = make_db()
        result = db.execute("select conf() from R r where r.a = 0")
        assert isinstance(result, QueryResult)

    def test_statement_syntax_errors(self):
        db = make_db()
        for text in [
            "insert into nowhere values (1)",
            "insert into R values (1, 2) with probability",
            "insert R values (1, 2)",
            "update R set",
            "update R set probability = 0.5, probability = 0.6",
            "update R set a = 1, a = 2",
            "delete R",
            "begin transaction extra",
            "",
        ]:
            with pytest.raises(SqlSyntaxError):
                parse_statement(text, db.database)

    def test_string_literals_round_trip(self):
        registry = VariableRegistry()
        database = Database(registry)
        database.add(
            Relation.tuple_independent(
                "T", ["name"], [(("old",), 0.5)], registry
            )
        )
        db = ProbDB(database)
        db.execute("insert into T values ('alice') with probability 0.5")
        assert ("alice",) in rows_of(db, "T")
        db.execute("update T set name = 'bob' where name = 'alice'")
        assert ("bob",) in rows_of(db, "T")


# ----------------------------------------------------------------------
# Update-differential: incremental == from-scratch, bit for bit
# ----------------------------------------------------------------------
def random_mutation(db, rng):
    """Apply one random mutation; returns a description for debugging."""
    table = rng.choice(["R", "S"])
    op = rng.choice(["insert", "delete", "update-prob", "update-values"])
    if op == "insert":
        row = (rng.randrange(3), rng.randrange(3))
        p = rng.choice([None, rng.uniform(0.1, 0.9)])
        db.insert(table, row, probability=p)
        return f"insert {table} {row} p={p}"
    column = db.database[table].attributes[0]
    literal = rng.randrange(3)
    if op == "delete":
        db.delete(table, [(column, "=", literal)])
        return f"delete {table} {column}={literal}"
    if op == "update-prob":
        p = rng.uniform(0.1, 0.9)
        try:
            db.update(table, probability=p, where=[(column, "=", literal)])
        except MutationError:
            # A certain row's variable may have been promoted away —
            # only tuple-independent/certain rows accept prob updates.
            pass
        return f"update {table} p={p} where {column}={literal}"
    db.update(
        table,
        values={column: rng.randrange(3)},
        where=[(column, "=", literal)],
    )
    return f"update {table} values where {column}={literal}"


class TestUpdateDifferential:
    """After N random mutations, the warm session answers bit-identically
    to a cold from-scratch rebuild of the mutated state."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_workload_matches_scratch_rebuild(self, seed):
        config = EngineConfig(compile_circuits=True)
        db = make_db(config, seed=seed)
        queries = [join_query(), self_join_query("R")]
        for query in queries:
            confidences_of(db, query)  # warm everything pre-workload

        rng = random.Random(100 + seed)
        trace = []
        for step in range(12):
            trace.append(random_mutation(db, rng))
            if step % 4 != 3:
                continue
            scratch = rebuild_from_scratch(db, config)
            for query in queries:
                warm = confidences_of(db, query)
                cold = confidences_of(scratch, query)
                assert warm == cold, "\n".join(trace)
            scratch.close()
        db.close()

    def test_transactional_workload_matches(self):
        config = EngineConfig(compile_circuits=True)
        db = make_db(config, seed=42)
        query = join_query()
        confidences_of(db, query)
        rng = random.Random(5)
        with db.transaction():
            for _ in range(6):
                random_mutation(db, rng)
        scratch = rebuild_from_scratch(db, config)
        assert confidences_of(db, query) == confidences_of(scratch, query)
        scratch.close()
        db.close()


# ----------------------------------------------------------------------
# Warm cones: the surgical-eviction contract
# ----------------------------------------------------------------------
class TestWarmCones:
    def test_disjoint_queries_stay_warm_after_mutation(self):
        """Mutating S evicts nothing of R's cones: the R self-join
        re-answers with strategy "circuit" and zero cold decomposition
        misses.  The S self-join's circuits are gone and recompile."""
        config = EngineConfig(compile_circuits=True)
        db = make_db(config, seed=3)
        r_query = self_join_query("R")
        s_query = self_join_query("S")
        for query in (r_query, s_query):
            pairs = db.query(query).confidences()
            assert pairs  # both queries have answers to make this bite

        result = db.update("S", probability=0.66)
        assert result.invalidation.circuits_evicted > 0

        # R: every answer warm — pure circuit hits, no decomposition.
        misses_before = db.cache_stats()["misses"]
        for _values, engine_result in db.query(r_query).confidences():
            assert engine_result.strategy == "circuit"
        assert db.cache_stats()["misses"] == misses_before

        # S: circuits were surgically evicted; answers recompute and
        # match brute force at the new probabilities.
        for _values, dnf in db.query(s_query).lineage():
            expected = brute_force_probability(dnf, db.registry)
            assert db.confidence(dnf).probability == pytest.approx(
                expected, abs=1e-12
            )
        db.close()

    def test_insert_evicts_nothing(self):
        """A fresh variable cannot occur in any cached cone."""
        config = EngineConfig(compile_circuits=True)
        db = make_db(config, seed=3)
        db.query(self_join_query("R")).confidences()
        entries_before = db.circuit_cache_stats()["entries"]
        result = db.insert("R", (0, 1), probability=0.5)
        assert result.invalidation.circuits_evicted == 0
        assert result.invalidation.memo_evicted == 0
        assert db.circuit_cache_stats()["entries"] == entries_before
        db.close()
