"""The correctness oracle: independent reference values and the check.

SQL answers are checked against the lineage path with none of the
shortcuts the measured path takes — SQL parsed again, lineage evaluated,
and each answer computed exactly (``ε = 0``) by
:func:`repro.core.approx.approximate_probability` directly: no SPROUT, no
read-once rung, no circuits, no engine, a fresh decomposition cache per
call.  Served answers are checked
against scalar :meth:`Circuit.evaluate` on the same store, which must be
bit-identical.  Every reference is computed outside the timed window.

The check is interval logic with a stated float slack (``SLACK``):

* the answer's own interval is ordered and holds its estimate;
* it meets the reference interval (both are sound, so both hold the
  truth — disjoint intervals mean one of them is wrong);
* some probability in the reference interval is within the requested ε
  of the estimate (the guarantee the answer claims).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.approx import RELATIVE, approximate_probability
from repro.core.dnf import DNF
from repro.db.database import Database
from repro.db.engine import evaluate_to_dnf
from repro.db.sql import parse_conf_query

#: Absolute float slack of every comparison.
SLACK = 1e-9

Interval = Tuple[float, float]


def interval_error(
    estimate: float,
    lower: float,
    upper: float,
    reference: Interval,
    epsilon: float,
    error_kind: str,
) -> Optional[str]:
    """Why an answer fails against its reference interval (None: passes)."""
    ref_lower, ref_upper = reference
    if not lower - SLACK <= estimate <= upper + SLACK:
        return f"estimate {estimate!r} outside its bounds [{lower!r}, {upper!r}]"
    if lower > ref_upper + SLACK or upper < ref_lower - SLACK:
        return (
            f"bounds [{lower!r}, {upper!r}] exclude the reference "
            f"[{ref_lower!r}, {ref_upper!r}]"
        )
    if error_kind == RELATIVE:
        closest = (estimate / (1.0 + epsilon), estimate / (1.0 - epsilon))
    else:
        closest = (estimate - epsilon, estimate + epsilon)
    if closest[0] > ref_upper + SLACK or closest[1] < ref_lower - SLACK:
        return (
            f"estimate {estimate!r} is not within {error_kind} ε={epsilon} "
            f"of the reference [{ref_lower!r}, {ref_upper!r}]"
        )
    return None


class SqlOracle:
    """Exact reference confidences for SQL ``conf()`` answers.

    Results are memoised on the lineage *and* the current probabilities
    of its variables, so a probability update is never answered from a
    stale entry.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._memo: Dict[Tuple[DNF, Tuple[float, ...]], Interval] = {}

    def lineage(self, sql: str) -> List[Tuple[Tuple[Hashable, ...], DNF]]:
        """Answers and lineage of ``sql``, evaluated from scratch."""
        return evaluate_to_dnf(
            parse_conf_query(sql, self.database).query, self.database
        )

    def interval(self, dnf: DNF) -> Interval:
        registry = self.database.registry
        key = (
            dnf,
            tuple(
                registry.probability(variable, True)
                for variable in sorted(dnf.variables, key=repr)
            ),
        )
        cached = self._memo.get(key)
        if cached is None:
            result = approximate_probability(dnf, registry, epsilon=0.0)
            cached = (result.lower, result.upper)
            self._memo[key] = cached
        return cached

    def check(
        self,
        answers: Sequence[Sequence],
        lineage: List[Tuple[Tuple[Hashable, ...], DNF]],
        epsilon: float,
        error_kind: str,
    ) -> Optional[str]:
        """Check ``[values, estimate, lower, upper, strategy]`` rows, the
        answers to a request for ``epsilon``/``error_kind``, against the
        reference values of ``lineage``."""
        expected = {tuple(values): dnf for values, dnf in lineage}
        got = {tuple(row[0]) for row in answers}
        if got != set(expected):
            return (
                f"answer set differs: {len(got)} answers, reference has "
                f"{len(expected)}"
            )
        for values, estimate, lower, upper, _strategy in answers:
            error = interval_error(
                estimate, lower, upper,
                self.interval(expected[tuple(values)]),
                epsilon, error_kind,
            )
            if error is not None:
                return f"answer {tuple(values)!r}: {error}"
        return None
