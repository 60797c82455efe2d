"""Top-k answer ranking by confidence, driven by anytime bounds.

Ranking answers by confidence is the motivating application of MystiQ's
top-k work (Ré, Dalvi, Suciu; cited as [23] in the paper).  The d-tree
algorithm's *certified intervals* enable the classical interval-pruning
strategy: keep per-answer lower/upper bounds, repeatedly refine the most
ambiguous answer, and stop as soon as the k best answers provably
dominate the rest — usually long before any probability is computed
exactly.

:func:`rank_answers` implements that stopping rule as a thin consumer of
:class:`repro.engine.BatchComputation` — the same batched anytime
machinery behind ``ConfidenceEngine.compute_many`` and the session
façade's ``QueryResult.bounds()``; the refinement loop itself lives
there.  The entry point for queries is
``ProbDB(database).query(cq).top_k(k)``
(:class:`repro.db.session.ProbDB`).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from ..core.dnf import DNF
from ..core.variables import variable_name
from ..engine import resumable_circuit

__all__ = ["rank_answers", "RankedAnswer"]

#: Default global work ceiling when neither the call nor the engine's
#: :class:`~repro.engine.EngineConfig` bounds the ranking.
DEFAULT_MAX_TOTAL_STEPS = 200_000

Answer = Tuple[Tuple[Hashable, ...], DNF]


class RankedAnswer:
    """One ranked answer with its certified probability interval."""

    __slots__ = ("values", "lower", "upper", "steps_spent")

    def __init__(
        self,
        values: Tuple[Hashable, ...],
        lower: float,
        upper: float,
        steps_spent: int,
    ) -> None:
        self.values = values
        self.lower = lower
        self.upper = upper
        self.steps_spent = steps_spent

    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    def __repr__(self) -> str:
        return (
            f"RankedAnswer({self.values!r}, "
            f"[{self.lower:.4g}, {self.upper:.4g}])"
        )


def rank_answers(
    engine,
    answers: Sequence[Answer],
    k: int,
    *,
    initial_steps: Optional[int] = None,
    step_growth: Optional[int] = None,
    max_total_steps: Optional[int] = None,
    separation: float = 0.0,
    workers: Optional[int] = None,
    executor_kind: Optional[str] = None,
    guided: Optional[bool] = None,
) -> List[RankedAnswer]:
    """The k most probable answers, certified by interval separation.

    Parameters
    ----------
    engine:
        The :class:`repro.engine.ConfidenceEngine` every refinement
        routes through (sharing its decomposition cache).
    answers:
        ``(answer_values, lineage_dnf)`` pairs, e.g. from
        :func:`repro.db.engine.evaluate_to_dnf`.
    k:
        How many answers to return (all answers when ``k`` ≥ input size).
    initial_steps / step_growth:
        Refinement schedule (engine-config defaults when omitted): each
        round, the answer whose interval blocks the ranking gets its
        budget multiplied by ``step_growth``.
    max_total_steps:
        Global work ceiling (engine config, then 200 000, when omitted);
        on exhaustion the current best-effort ranking is returned
        (intervals still sound, separation not certified).
    separation:
        Required gap between the k-th lower bound and the (k+1)-th upper
        bound; zero certifies a weak ordering (ties broken by midpoint).
    workers / executor_kind:
        Parallel execution knobs (engine-config defaults when omitted):
        with ``workers > 1`` refinement runs on a sharded worker pool
        (:mod:`repro.engine_parallel`), each ranking round refining the
        widest boundary-straddling intervals concurrently.
    guided:
        Refinement-target selection.  ``True`` (or the ``None``/auto
        default) consults :meth:`repro.circuits.Circuit.gradients` on
        candidates that have a refinable partial circuit and refines
        the one whose expansion maximally narrows the k-vs-(k+1)
        separation gap; candidates without circuits — and ``False`` —
        use the classic widest-interval schedule.  Both schedules
        certify the same ranking; guidance only changes how much work
        certification takes.

    Returns
    -------
    list[RankedAnswer]
        The top-k answers in descending (certified) order of probability.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    answers = list(answers)
    if max_total_steps is None:
        max_total_steps = engine.config.max_total_steps
    if max_total_steps is None:
        max_total_steps = DEFAULT_MAX_TOTAL_STEPS

    # ε = 0: refinement drives every interval toward the exact value;
    # the separation check below stops as soon as the ranking is proven.
    batch = engine.refine_many(
        [dnf for _values, dnf in answers],
        epsilon=0.0,
        initial_steps=initial_steps,
        step_growth=step_growth,
        workers=workers,
        executor_kind=executor_kind,
    )
    # Leaving the block drops a pooled batch's lease on the
    # engine-lifetime worker pool.  The pool itself survives on the
    # engine (warm for the next ranking); ``engine.close()`` retires
    # it, with a GC finalizer as the backstop for throwaway engines.
    with batch:
        return _rank_batch(
            batch, answers, k, max_total_steps, separation,
            guided=guided is None or guided,
        )


def _gradient_target(
    batch, order, boundary, k, kth_lower, best_excluded_upper, separation
):
    """The boundary candidate whose refinement most narrows the gap.

    Every boundary straddler is scored by *relevance* — how far its
    blocking bound sits from the certification threshold (a top-k
    member blocks via its lower bound, an excluded answer via its
    upper), capped at its interval width since one round cannot move a
    bound further than that.  Candidates with a refinable partial
    circuit additionally discount relevance by expected *progress*: the
    fraction of the interval the widest residual leaf accounts for,
    weighted by the total :meth:`~repro.circuits.Circuit.gradients`
    magnitude over that leaf's variables (how hard expanding the leaf
    can move the root).  Ties fall to the widest interval, so with no
    usable gradient signal the choice degenerates to the classic
    widest-interval schedule; with no circuits at all ``None`` is
    returned and the caller takes that schedule directly.
    """
    topk = set(order[:k])
    best_index = None
    best_key = (-1.0, -1.0)
    saw_circuit = False
    for index in boundary:
        result = batch.results[index]
        if index in topk:
            # A top-k member blocks via its lower bound: it must rise
            # above the best excluded upper (plus separation).
            relevance = (best_excluded_upper + separation) - result.lower
        else:
            # An excluded member blocks via its upper bound: it must
            # drop below the k-th lower (minus separation).
            relevance = result.upper - (kth_lower - separation)
        relevance = min(relevance, result.width())
        if relevance <= 0.0:
            continue
        effectiveness = 1.0  # a d-tree rerun attacks the whole interval
        # The very circuit refine() would resume: the candidate's own
        # expansion progress first, then the session cache.
        circuit = resumable_circuit(
            batch.engine, batch.dnfs[index], result.circuit
        )
        if circuit is not None:
            slot = circuit.widest_residual()
            if slot is not None:
                saw_circuit = True
                low, high, vids = circuit.residuals[slot]
                width = result.width() or 1.0
                gradients = circuit.gradients()
                influence = sum(
                    abs(gradients.get(variable_name(vid), 0.0))
                    for vid in vids
                )
                effectiveness = min(
                    1.0, (high - low) / width * (1.0 + influence)
                )
        key = (relevance * effectiveness, result.width())
        if key > best_key:
            best_key = key
            best_index = index
    if not saw_circuit:
        return None
    return best_index


def _rank_batch(batch, answers, k, max_total_steps, separation,
                *, guided=True):
    values = [answer_values for answer_values, _dnf in answers]
    results = batch.results

    def sort_key(index: int) -> Tuple[float, float]:
        # Optimistic value first; the ranking is certified when the k-th
        # pessimistic value dominates every excluded optimistic one.
        return (-results[index].upper, -results[index].lower)

    def ranked(index: int) -> RankedAnswer:
        result = results[index]
        return RankedAnswer(
            values[index], result.lower, result.upper, result.steps
        )

    order = list(range(len(answers)))
    if k >= len(order):
        order.sort(key=sort_key)
        return [ranked(index) for index in order]

    while True:
        order.sort(key=sort_key)
        kth_lower = min(results[index].lower for index in order[:k])
        best_excluded_upper = max(
            results[index].upper for index in order[k:]
        )
        if kth_lower >= best_excluded_upper + separation:
            break

        # Refine the widest interval among the answers straddling the
        # boundary (both sides can be at fault).  ``step(boundary)``
        # refines exactly the widest one on a serial batch and the
        # widest-per-shard on a sharded batch — same prioritized
        # schedule either way.
        boundary = [
            index
            for index in order
            if results[index].upper > kth_lower - separation
            and results[index].lower < best_excluded_upper + separation
            and not results[index].converged
        ]
        if not boundary or batch.spent(max_total_steps):
            break  # fully converged ties or out of budget: best effort
        progressed = False
        if guided:
            # Gradient guidance: spend the round on the candidate whose
            # circuit says refinement most narrows the k-vs-(k+1) gap,
            # instead of blindly on the widest straddler.
            target = _gradient_target(
                batch, order, boundary, k,
                kth_lower, best_excluded_upper, separation,
            )
            if target is not None:
                before_steps = batch.total_steps
                before_width = results[target].width()
                batch.refine(target)
                progressed = (
                    batch.total_steps > before_steps
                    or results[target].width() < before_width
                )
        if not progressed and batch.step(boundary) is None:
            break  # nothing refinable (budget headroom exhausted)

    order.sort(key=sort_key)
    return [ranked(index) for index in order[:k]]
