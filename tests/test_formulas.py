"""Unit tests for the lineage formula AST (repro.core.formulas)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dnf import DNF
from repro.core.formulas import (
    FALSE,
    TRUE,
    AndNode,
    AtomNode,
    OrNode,
    atom,
    atom_clause,
    conj,
    disj,
)
from repro.core.semantics import brute_force_formula_probability
from repro.core.variables import VariableRegistry


@pytest.fixture
def registry():
    return VariableRegistry.from_boolean_probabilities(
        {"x": 0.3, "y": 0.2, "z": 0.7, "u": 0.5, "v": 0.8}
    )


class TestConstants:
    def test_true_dnf(self):
        assert TRUE.to_dnf().is_true()
        assert TRUE.evaluate({})

    def test_false_dnf(self):
        assert FALSE.to_dnf().is_false()
        assert not FALSE.evaluate({})

    def test_constant_folding(self):
        assert conj(atom("x"), FALSE) is FALSE
        assert disj(atom("x"), TRUE) is TRUE
        assert conj(TRUE, TRUE) is TRUE
        assert disj(FALSE, FALSE) is FALSE

    def test_true_dropped_in_conj(self):
        result = conj(TRUE, atom("x"))
        assert result == atom("x")

    def test_false_dropped_in_disj(self):
        result = disj(FALSE, atom("x"))
        assert result == atom("x")


class TestSmartConstructors:
    def test_flattening_conj(self):
        nested = conj(conj(atom("x"), atom("y")), atom("z"))
        assert isinstance(nested, AndNode)
        assert len(nested.children) == 3

    def test_flattening_disj(self):
        nested = disj(disj(atom("x"), atom("y")), atom("z"))
        assert isinstance(nested, OrNode)
        assert len(nested.children) == 3

    def test_single_child_unwrapped(self):
        assert conj(atom("x")) == atom("x")
        assert disj(atom("x")) == atom("x")

    def test_operator_overloads(self):
        combined = atom("x") & atom("y") | atom("z")
        assert isinstance(combined, OrNode)

    def test_atom_shorthand(self):
        node = atom("u", 3)
        assert node.atom.variable == "u"
        assert node.atom.value == 3


class TestToDNF:
    def test_atom(self):
        assert atom("x").to_dnf() == DNF.from_sets([{"x": True}])

    def test_and_distributes_over_or(self):
        # (x ∨ y) ∧ z  →  xz ∨ yz
        formula = conj(disj(atom("x"), atom("y")), atom("z"))
        assert formula.to_dnf() == DNF.from_sets(
            [{"x": True, "z": True}, {"y": True, "z": True}]
        )

    def test_inconsistent_branches_dropped(self):
        formula = conj(atom("x", True), atom("x", False))
        assert formula.to_dnf().is_false()

    def test_example_4_1_structure(self, registry):
        # (x ∨ y) ∧ ((z ∧ u) ∨ (¬z ∧ v)) from Example 4.1
        formula = conj(
            disj(atom("x"), atom("y")),
            disj(
                conj(atom("z", True), atom("u")),
                conj(atom("z", False), atom("v")),
            ),
        )
        dnf = formula.to_dnf()
        assert len(dnf) == 4
        p = brute_force_formula_probability(formula, registry)
        # P = (1-(1-P(x))(1-P(y))) * (P(z)P(u) + P(¬z)P(v))
        expected = (1 - 0.7 * 0.8) * (0.7 * 0.5 + 0.3 * 0.8)
        assert p == pytest.approx(expected)


class TestEvaluation:
    def test_evaluate_matches_dnf(self, registry):
        formula = disj(
            conj(atom("x"), atom("y")),
            conj(atom("z", False), atom("v")),
        )
        dnf = formula.to_dnf()
        for world, _prob in __import__(
            "repro.core.semantics", fromlist=["enumerate_worlds"]
        ).enumerate_worlds(registry, sorted(formula.variables(), key=repr)):
            assert formula.evaluate(world) == dnf.evaluate(world)

    def test_variables_collects_all(self):
        formula = conj(atom("x"), disj(atom("y"), atom("z")))
        assert formula.variables() == frozenset({"x", "y", "z"})

    def test_probability_exact_convenience(self, registry):
        formula = disj(atom("x"), atom("y"))
        expected = 1 - 0.7 * 0.8
        assert formula.probability_exact(registry) == pytest.approx(expected)


class TestEqualityHash:
    def test_atom_nodes(self):
        assert atom("x") == atom("x")
        assert hash(atom("x")) == hash(atom("x"))
        assert atom("x") != atom("y")

    def test_nary_nodes(self):
        assert conj(atom("x"), atom("y")) == conj(atom("x"), atom("y"))
        assert conj(atom("x"), atom("y")) != disj(atom("x"), atom("y"))

    def test_immutability(self):
        node = atom("x")
        with pytest.raises(AttributeError):
            node.atom = None


def fold_to_dnf(formula):
    """The pairwise fold ``to_dnf`` used before it went linear: an
    ``∧`` conjoins one child at a time (stopping at ``⊥``), an ``∨``
    unions one child at a time."""
    if isinstance(formula, AndNode):
        result = DNF.true()
        for child in formula.children:
            result = result.conjoin(fold_to_dnf(child))
            if result.is_false():
                return result
        return result
    if isinstance(formula, OrNode):
        result = DNF.false()
        for child in formula.children:
            result = result.union(fold_to_dnf(child))
        return result
    return formula.to_dnf()


# Boolean atoms plus the three alternatives of two BID-style variables:
# ``b0 = 0 ∧ b0 = 1`` is an inconsistent product.
_leaves = st.one_of(
    st.sampled_from(["x", "y", "z"]).map(atom),
    st.builds(
        atom, st.sampled_from(["b0", "b1"]), st.integers(0, 2)
    ),
    st.sampled_from([TRUE, FALSE]),
)


def _nary(children):
    # Raw node constructors, not conj/disj: keeps ⊤/⊥ children, empty
    # and one-child nodes, and unflattened nesting.
    parts = st.lists(children, max_size=4)
    return st.one_of(parts.map(AndNode), parts.map(OrNode))


formulas = st.recursive(_leaves, _nary, max_leaves=14)


class TestLinearToDnf:
    @given(formulas)
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_pairwise_fold(self, formula):
        expected = fold_to_dnf(formula)
        got = formula.to_dnf()
        assert got == expected
        assert got.sorted_clauses() == expected.sorted_clauses()

    def test_atom_clause_splits_atoms_from_composites(self):
        nested = disj(atom("x"), atom("y"))
        clause, composite = atom_clause(
            [atom("z"), TRUE, nested, atom("z")]
        )
        assert clause == DNF.of_atoms(atom("z").atom).sole_clause()
        assert composite == [nested]

    def test_atom_clause_conflict_and_all_true(self):
        clause, _composite = atom_clause([atom("b0", 0), atom("b0", 1)])
        assert clause is None
        clause, composite = atom_clause([TRUE, TRUE])
        assert clause.is_empty() and composite == []

    def test_and_of_bid_alternatives_is_false(self):
        assert AndNode([atom("b0", 0), atom("b0", 1)]).to_dnf().is_false()
