"""Compiled multi-answer results: compile once, ask many questions.

:class:`CompiledResult` pairs every answer of a query with its compiled
:class:`~repro.circuits.Circuit` and exposes the workloads repeated
circuit evaluation unlocks:

* :meth:`evaluate` — all answer confidences under a new probability
  map, one linear sweep per circuit;
* :meth:`sensitivities` — per-answer ``∂confidence/∂p(tuple)`` for
  every input tuple (one backward sweep each);
* :meth:`condition` — clamp a variable across every answer (what-if
  conditioning), returning another :class:`CompiledResult`;
* :meth:`what_if_top_k` — re-rank the answers under hypothetical
  probabilities without touching the engine;
* :meth:`sweep` / :meth:`what_if_grid` — evaluate every answer under a
  whole list of override scenarios at once, through the
  :mod:`repro.circuits.kernels` numpy backend when numpy is importable.

Obtained from :meth:`repro.db.session.QueryResult.compile`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .circuit import Bounds, Circuit, ProbOverrides

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sweep import SweepResult

__all__ = ["CompiledResult"]

AnswerValues = Tuple[Hashable, ...]


class CompiledResult:
    """A query's answers, each compiled into an arithmetic circuit."""

    __slots__ = ("pairs",)

    def __init__(
        self, pairs: Sequence[Tuple[AnswerValues, Circuit]]
    ) -> None:
        self.pairs = list(pairs)

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def answers(self) -> List[AnswerValues]:
        return [values for values, _circuit in self.pairs]

    @property
    def circuits(self) -> List[Circuit]:
        return [circuit for _values, circuit in self.pairs]

    @property
    def is_exact(self) -> bool:
        """True when every answer's circuit is exact (no residuals)."""
        return all(circuit.is_exact for _values, circuit in self.pairs)

    def __repr__(self) -> str:
        nodes = sum(len(circuit) for _values, circuit in self.pairs)
        state = "exact" if self.is_exact else "partial"
        return (
            f"CompiledResult({len(self.pairs)} answers, "
            f"{nodes} circuit nodes, {state})"
        )

    # -- evaluation ------------------------------------------------------
    def evaluate(
        self, prob_overrides: Optional[ProbOverrides] = None
    ) -> List[Tuple[AnswerValues, float]]:
        """Answer confidences under ``prob_overrides`` — no engine work."""
        return [
            (values, circuit.evaluate(prob_overrides))
            for values, circuit in self.pairs
        ]

    def evaluate_bounds(
        self, prob_overrides: Optional[ProbOverrides] = None
    ) -> List[Tuple[AnswerValues, Bounds]]:
        """Certified per-answer intervals (points for exact circuits)."""
        return [
            (values, circuit.evaluate_bounds(prob_overrides))
            for values, circuit in self.pairs
        ]

    def sensitivities(
        self, prob_overrides: Optional[ProbOverrides] = None
    ) -> List[Tuple[AnswerValues, Dict[Hashable, float]]]:
        """Per-answer tuple sensitivities ``∂confidence/∂p(tuple)``.

        Each answer costs one forward plus one backward sweep and
        yields the derivative for *every* Boolean input variable at
        once (see :meth:`repro.circuits.Circuit.gradients`).
        """
        return [
            (values, circuit.gradients(prob_overrides))
            for values, circuit in self.pairs
        ]

    def condition(
        self, variable: Hashable, value: Hashable
    ) -> "CompiledResult":
        """All answers conditioned on ``variable = value`` (what-if)."""
        return CompiledResult(
            [
                (values, circuit.condition(variable, value))
                for values, circuit in self.pairs
            ]
        )

    def sweep(
        self, scenarios: Sequence[Optional[ProbOverrides]]
    ) -> "SweepResult":
        """Every answer's confidence under every scenario, one call.

        Each scenario is an override map in the :meth:`evaluate`
        vocabulary; the result holds a ``(answers × scenarios)`` value
        grid.  With numpy importable each circuit is lowered once and
        the whole scenario batch flows through it as a matrix; without
        it the scalar fallback computes the identical grid one
        evaluation at a time.
        """
        from .sweep import SweepResult, sweep_values
        from .kernels import kernel_backend

        values = [
            sweep_values(circuit, scenarios) for _values, circuit in self.pairs
        ]
        return SweepResult(self.answers, values, kernel_backend())

    def what_if_grid(
        self, variable: Hashable, probabilities: Sequence[float]
    ) -> "SweepResult":
        """Sweep one Boolean tuple's probability across a grid.

        ``what_if_grid("t", [0.0, 0.1, ..., 1.0])`` answers "how does
        every answer's confidence respond as ``P(t)`` moves?" — the
        one-dimensional sensitivity scan, as a single sweep per answer
        circuit.
        """
        from .sweep import what_if_scenarios

        return self.sweep(what_if_scenarios(variable, probabilities))

    def what_if_top_k(
        self,
        k: int,
        prob_overrides: Optional[ProbOverrides] = None,
    ) -> List:
        """The ``k`` most probable answers under hypothetical
        probabilities, as :class:`~repro.db.topk.RankedAnswer` rows.

        Pure circuit evaluation — one sweep per answer — so what-if
        re-ranking over a large answer set costs milliseconds instead
        of a fresh engine ranking run.  Partial circuits rank by
        interval midpoint and report their (sound) bounds.
        """
        from ..db.topk import RankedAnswer

        if k <= 0:
            raise ValueError("k must be positive")
        rows = []
        for values, circuit in self.pairs:
            lower, upper = circuit.evaluate_bounds(prob_overrides)
            rows.append(RankedAnswer(values, lower, upper, 0))
        # repr tie-break: answer tuples may hold mutually unorderable
        # value types, which would make a raw-tuple comparison raise.
        rows.sort(key=lambda row: (-row.midpoint(), repr(row.values)))
        return rows[:k]
