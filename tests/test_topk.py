"""Tests for bounds-based top-k answer ranking (:func:`rank_answers`)."""

import random

import pytest

from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.db.topk import RankedAnswer, rank_answers
from repro.engine import ConfidenceEngine


def rank(answers, reg, k, **kwargs):
    """Rank on a fresh exact engine over ``reg``."""
    return rank_answers(
        ConfidenceEngine(reg, epsilon=0.0), answers, k, **kwargs
    )


def make_answers(seed, answer_count=6, variables=10):
    rng = random.Random(seed)
    reg = VariableRegistry.from_boolean_probabilities(
        {f"v{i}": rng.uniform(0.1, 0.9) for i in range(variables)}
    )
    answers = []
    for index in range(answer_count):
        clauses = [
            Clause(
                {
                    f"v{rng.randrange(variables)}": rng.random() < 0.7
                    for _ in range(rng.randint(1, 3))
                }
            )
            for _ in range(rng.randint(1, 5))
        ]
        answers.append(((index,), DNF(clauses)))
    return answers, reg


class TestRanking:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_exact_ranking(self, k):
        for seed in range(10):
            answers, reg = make_answers(seed)
            truth = {
                values: brute_force_probability(dnf, reg)
                for values, dnf in answers
            }
            expected = sorted(truth, key=truth.get, reverse=True)[:k]
            ranked = rank(answers, reg, k)
            assert len(ranked) == k
            got = [r.values for r in ranked]
            # Ties (equal probabilities) permit any order among the tied;
            # compare probability multisets instead of identities.
            assert sorted(
                round(truth[v], 12) for v in got
            ) == sorted(round(truth[v], 12) for v in expected)

    def test_intervals_are_sound(self):
        answers, reg = make_answers(3)
        ranked = rank(answers, reg, 3)
        truth = {
            values: brute_force_probability(dnf, reg)
            for values, dnf in answers
        }
        for item in ranked:
            assert item.lower - 1e-9 <= truth[item.values]
            assert truth[item.values] <= item.upper + 1e-9

    def test_k_larger_than_input(self):
        answers, reg = make_answers(5, answer_count=3)
        ranked = rank(answers, reg, 10)
        assert len(ranked) == 3
        # Descending by upper bound.
        uppers = [r.upper for r in ranked]
        assert uppers == sorted(uppers, reverse=True)

    def test_invalid_k(self):
        answers, reg = make_answers(1)
        with pytest.raises(ValueError):
            rank(answers, reg, 0)

    def test_budget_cap_returns_best_effort(self):
        answers, reg = make_answers(7, answer_count=8, variables=14)
        ranked = rank(
            answers, reg, 2, initial_steps=1, max_total_steps=4
        )
        assert len(ranked) == 2
        for item in ranked:
            assert 0.0 <= item.lower <= item.upper <= 1.0

    def test_separation_certified_when_converged(self):
        # Clearly separated answers: one near-certain, one tiny.
        reg = VariableRegistry.from_boolean_probabilities(
            {"big": 0.95, "small": 0.01}
        )
        answers = [
            (("hi",), DNF.from_sets([{"big": True}])),
            (("lo",), DNF.from_sets([{"small": True}])),
        ]
        ranked = rank(answers, reg, 1)
        assert ranked[0].values == ("hi",)
        assert ranked[0].lower > 0.9

    def test_repr(self):
        item = RankedAnswer((1,), 0.25, 0.5, 3)
        assert "RankedAnswer" in repr(item)

    def test_saves_work_versus_exact(self):
        """With one dominant answer, ranking should certify before
        computing every probability exactly."""
        rng = random.Random(11)
        reg = VariableRegistry.from_boolean_probabilities(
            {f"v{i}": rng.uniform(0.4, 0.6) for i in range(12)}
            | {"sure": 0.99}
        )
        hard_clauses = [
            Clause(
                {
                    f"v{rng.randrange(12)}": rng.random() < 0.5
                    for _ in range(2)
                }
            )
            for _ in range(10)
        ]
        answers = [
            (("sure",), DNF.from_sets([{"sure": True}])),
            (("hard",), DNF(hard_clauses)),
        ]
        ranked = rank(answers, reg, 1, initial_steps=2)
        assert ranked[0].values == ("sure",)
