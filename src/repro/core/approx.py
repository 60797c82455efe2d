"""Incremental ε-approximation of DNF probability (paper, Section V).

This is the paper's main algorithm.  It compiles the input DNF into a
d-tree *lazily*, depth-first left-to-right, keeping only the current
root-to-leaf path in memory.  Before constructing each node it performs two
checks (Section V.D):

1. **Termination** (Prop. 5.8): with every leaf at its heuristic bounds
   (Fig. 3), do the propagated root bounds ``[L, U]`` already certify an
   ε-approximation?  Absolute: ``U − L ≤ 2ε``; relative:
   ``(1−ε)·U ≤ (1+ε)·L``.  If so, stop and report.

2. **Closing** (Lemma 5.11 / Thm. 5.12): may the current leaf be *closed*
   (its heuristic bounds frozen, the leaf never refined)?  This is safe
   when the worst case over the bound space — every other open leaf pinned
   to its lower bound — still satisfies the ε-condition.  Closed leaves are
   aggregated into their parent's accumulator and released, which is what
   gives the algorithm its memory profile.

If neither check fires, the current leaf is refined by one decomposition
step (subsumption removal, then ⊗ / ⊙ / ⊕ in the order of Fig. 1).

The paper's restriction that at most one child of each ``⊙`` node may be
closed without being complete is enforced: further incomplete closings
under the same ``⊙`` are refused and those children are refined instead.

Implementation notes
--------------------
The d-tree is never materialised.  The stack holds one :class:`_Frame` per
inner node on the current root-to-leaf path.  A frame's first pending child
is, by construction, either the *current leaf* (when the frame is on top of
the stack) or the subtree represented by the frame directly above it; bound
propagation therefore always skips ``pending[0]`` and splices in the
explicitly propagated child interval instead.

Each refinement takes the memoised decomposition step of
:class:`~repro.core.memo.DecompositionCache` (the one the circuit
compiler takes too) and reads leaf bounds from it; this module keeps
the frames, the exact-subtree fold and the node histogram.

Shannon branches ``{x=a} ⊙ Φ|_{x=a}`` are folded into a single weighted
child of the ``⊕`` frame: the clause probability ``P(x=a)`` becomes the
child's ``weight``, and when the child is itself refined, the weight moves
onto the new frame (its bounds are scaled on the way up).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import clock
from .dnf import DNF
from .memo import (
    EXCLUSIVE_OR,
    INDEPENDENT_AND,
    INDEPENDENT_OR,
    DecompositionCache,
)
from .orders import VariableSelector
from .variables import VariableRegistry

__all__ = [
    "approximate_probability",
    "ApproximationResult",
    "ABSOLUTE",
    "RELATIVE",
    "interval_certified",
    "interval_estimate",
]

Bounds = Tuple[float, float]

ABSOLUTE = "absolute"
RELATIVE = "relative"

# Frame kinds: the decomposition step's node kinds, plus the root.
_OR = INDEPENDENT_OR
_AND = INDEPENDENT_AND
_XOR = EXCLUSIVE_OR
_ROOT = "root"


def interval_certified(
    lower: float, upper: float, epsilon: float, error_kind: str
) -> bool:
    """Prop. 5.8: do the bounds ``[lower, upper]`` certify the request?

    Absolute: ``U − L ≤ 2ε``; relative: ``(1−ε)·U ≤ (1+ε)·L``.  The
    termination and closing checks of :func:`approximate_probability`
    and the engine's circuit-refine rounds all decide convergence here.
    """
    if error_kind == ABSOLUTE:
        return upper - lower <= 2.0 * epsilon
    return (1.0 - epsilon) * upper <= (1.0 + epsilon) * lower


def interval_estimate(
    lower: float,
    upper: float,
    epsilon: float,
    error_kind: str,
    converged: bool,
) -> float:
    """The value reported for the bounds ``[lower, upper]``.

    Converged, any value in the Prop. 5.8 interval qualifies: its
    midpoint, clipped into the bounds.  Otherwise the midpoint of the
    bounds themselves.
    """
    if not converged:
        return (lower + upper) / 2.0
    if error_kind == ABSOLUTE:
        estimate = ((upper - epsilon) + (lower + epsilon)) / 2.0
    else:
        estimate = ((1.0 - epsilon) * upper + (1.0 + epsilon) * lower) / 2.0
    return max(lower, min(upper, estimate))


class ApproximationResult:
    """Outcome of :func:`approximate_probability`.

    Attributes
    ----------
    lower, upper:
        The final propagated probability bounds; always ``L ≤ P(Φ) ≤ U``.
    estimate:
        The midpoint of the ε-approximation interval of Prop. 5.8 when
        converged, otherwise the midpoint of ``[lower, upper]``.
    converged:
        Whether the requested ε-guarantee was certified.  ``False`` only
        when a work budget (``max_steps`` / ``deadline_seconds``) ran out.
    epsilon, error_kind:
        The request this result answers.
    steps:
        Number of decomposition steps performed.
    leaves_closed:
        Leaves frozen via the Theorem 5.12 closing rule.
    leaves_exact:
        Leaves whose bucket bounds were already point intervals.
    max_depth:
        Deepest frame stack observed (memory is proportional to it).
    node_histogram:
        Inner-node construction counts by kind (the paper reports ``⊗``
        dominating on tractable queries).
    elapsed_seconds:
        Wall-clock duration of the call.
    """

    __slots__ = (
        "lower",
        "upper",
        "estimate",
        "converged",
        "epsilon",
        "error_kind",
        "steps",
        "leaves_closed",
        "leaves_exact",
        "max_depth",
        "node_histogram",
        "elapsed_seconds",
    )

    def __init__(
        self,
        lower: float,
        upper: float,
        estimate: float,
        converged: bool,
        epsilon: float,
        error_kind: str,
        steps: int,
        leaves_closed: int,
        leaves_exact: int,
        max_depth: int,
        node_histogram: dict,
        elapsed_seconds: float,
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.estimate = estimate
        self.converged = converged
        self.epsilon = epsilon
        self.error_kind = error_kind
        self.steps = steps
        self.leaves_closed = leaves_closed
        self.leaves_exact = leaves_exact
        self.max_depth = max_depth
        self.node_histogram = node_histogram
        self.elapsed_seconds = elapsed_seconds

    def width(self) -> float:
        """Bound interval width ``U − L``."""
        return self.upper - self.lower

    def __repr__(self) -> str:
        return (
            f"ApproximationResult(estimate={self.estimate:.6g}, "
            f"bounds=[{self.lower:.6g}, {self.upper:.6g}], "
            f"converged={self.converged}, steps={self.steps})"
        )


# ----------------------------------------------------------------------
# Internal structures
# ----------------------------------------------------------------------
class _PendingChild:
    """A not-yet-processed leaf: a DNF plus cached heuristic bounds.

    ``weight`` carries the exact probability of the clause sibling of a
    Shannon branch, folding ``{x=a} ⊙ Φ|_{x=a}`` into a single weighted
    child of the ``⊕`` frame.

    ``reduced`` marks DNFs that are already subsumption-free: ⊗-components
    and ⊙-factors of a reduced DNF stay reduced (a subsuming pair inside
    one would lift to a subsuming pair in the parent), so only Shannon
    cofactors need another subsumption pass on refinement.
    """

    __slots__ = ("dnf", "lower", "upper", "weight", "reduced")

    def __init__(
        self,
        dnf: DNF,
        lower: float,
        upper: float,
        weight: float = 1.0,
        reduced: bool = False,
    ) -> None:
        self.dnf = dnf
        self.lower = lower
        self.upper = upper
        self.weight = weight
        self.reduced = reduced

    def effective_bounds(self) -> Bounds:
        return self.weight * self.lower, self.weight * self.upper

    def effective_lower_point(self) -> Bounds:
        low = self.weight * self.lower
        return low, low

    def is_exact(self) -> bool:
        return self.lower == self.upper


class _Frame:
    """One inner node of the d-tree under construction.

    Finished children (exact or closed) are folded into a kind-specific
    accumulator:

    * ⊗ (``_OR``)  — ``acc = (Π(1−Lᵢ), Π(1−Uᵢ))`` (complement products)
    * ⊙ (``_AND``) — ``acc = (Π Lᵢ, Π Uᵢ)``
    * ⊕ (``_XOR``) — ``acc = (Σ Lᵢ, Σ Uᵢ)``
    * ``_ROOT``    — identity over its single child

    ``weight`` scales the finished node value (used when the frame refines
    a weighted Shannon-branch child).
    """

    __slots__ = ("kind", "acc_lower", "acc_upper", "pending", "weight",
                 "closed_incomplete", "_rest_cache", "source")

    def __init__(
        self,
        kind: str,
        pending: List[_PendingChild],
        weight: float = 1.0,
        source: Optional[DNF] = None,
    ) -> None:
        self.kind = kind
        if kind == _XOR or kind == _ROOT:
            self.acc_lower, self.acc_upper = 0.0, 0.0
        else:  # or / and both accumulate multiplicatively from 1
            self.acc_lower, self.acc_upper = 1.0, 1.0
        self.pending = pending
        self.weight = weight
        self.closed_incomplete = False
        self._rest_cache: Optional[Bounds] = None
        # The (reduced) DNF this frame decomposes; when the frame finishes
        # with point bounds, that DNF's exact probability is memoised.
        self.source = source

    def pop_head(self) -> None:
        """Drop the current (head) pending child; invalidates the cached
        aggregate over the remaining open siblings."""
        self.pending.pop(0)
        self._rest_cache = None

    def _rest_aggregate(self) -> Bounds:
        """Kind-specific accumulator over ``pending[1:]`` heuristic bounds.

        The lower-point (Lemma 5.11) aggregate needs no separate cache: it
        equals the pair ``(A, A)`` where ``A`` is the lower component.
        """
        cached = self._rest_cache
        if cached is not None:
            return cached
        if self.kind == _OR:
            low_acc, up_acc = 1.0, 1.0
            for item in self.pending[1:]:
                low, high = item.effective_bounds()
                low_acc *= 1.0 - low
                up_acc *= 1.0 - high
        elif self.kind == _AND:
            low_acc, up_acc = 1.0, 1.0
            for item in self.pending[1:]:
                low, high = item.effective_bounds()
                low_acc *= low
                up_acc *= high
        else:  # xor / root
            low_acc, up_acc = 0.0, 0.0
            for item in self.pending[1:]:
                low, high = item.effective_bounds()
                low_acc += low
                up_acc += high
        self._rest_cache = (low_acc, up_acc)
        return self._rest_cache

    # -- accumulation ----------------------------------------------------
    def absorb(self, bounds: Bounds) -> None:
        """Fold a finished child's bounds into the accumulator."""
        low, high = bounds
        if self.kind == _OR:
            self.acc_lower *= 1.0 - low
            self.acc_upper *= 1.0 - high
        elif self.kind == _AND:
            self.acc_lower *= low
            self.acc_upper *= high
        elif self.kind == _XOR:
            self.acc_lower += low
            self.acc_upper += high
        else:  # root: single child, store directly
            self.acc_lower, self.acc_upper = low, high

    def _raw_bounds(self, child: Optional[Bounds], at_lower: bool) -> Bounds:
        """Node bounds from accumulator + explicit child + open siblings.

        ``pending[0]`` is always skipped: it is either the current leaf
        (interval supplied via ``child``) or the subtree of the frame above
        (ditto).  ``at_lower`` pins the remaining open siblings to their
        lower bound — the Lemma 5.11 worst case, whose aggregate is the
        (lower, lower) pair of the cached heuristic aggregate.
        """
        rest_low, rest_up = self._rest_aggregate()
        if at_lower:
            rest_up = rest_low
        if self.kind == _OR:
            low_c, up_c = self.acc_lower, self.acc_upper
            if child is not None:
                low_c *= 1.0 - child[0]
                up_c *= 1.0 - child[1]
            return 1.0 - low_c * rest_low, 1.0 - up_c * rest_up
        if self.kind == _AND:
            low_a, up_a = self.acc_lower, self.acc_upper
            if child is not None:
                low_a *= child[0]
                up_a *= child[1]
            return low_a * rest_low, up_a * rest_up
        if self.kind == _XOR:
            low_s, up_s = self.acc_lower, self.acc_upper
            if child is not None:
                low_s += child[0]
                up_s += child[1]
            return min(1.0, low_s + rest_low), min(1.0, up_s + rest_up)
        # root: identity on the single child
        if child is not None:
            return child
        return self.acc_lower, self.acc_upper

    def combine(self, child: Optional[Bounds], at_lower: bool) -> Bounds:
        low, high = self._raw_bounds(child, at_lower)
        if self.weight != 1.0:
            return self.weight * low, self.weight * high
        return low, high

    def combine_both(
        self,
        heur_low: float,
        heur_up: float,
        worst_low: float,
        worst_up: float,
    ) -> Tuple[float, float, float, float]:
        """One walk step computing both check modes at once.

        ``(heur_low, heur_up)`` propagates with open siblings at their
        heuristic bounds (the Prop. 5.8 termination check);
        ``(worst_low, worst_up)`` with open siblings pinned to their lower
        bounds (the Lemma 5.11 closing check).
        """
        rest_low, rest_up = self._rest_aggregate()
        kind = self.kind
        if kind == _OR:
            acc_l, acc_u = self.acc_lower, self.acc_upper
            h_low = 1.0 - acc_l * (1.0 - heur_low) * rest_low
            h_up = 1.0 - acc_u * (1.0 - heur_up) * rest_up
            w_low = 1.0 - acc_l * (1.0 - worst_low) * rest_low
            w_up = 1.0 - acc_u * (1.0 - worst_up) * rest_low
        elif kind == _AND:
            acc_l, acc_u = self.acc_lower, self.acc_upper
            h_low = acc_l * heur_low * rest_low
            h_up = acc_u * heur_up * rest_up
            w_low = acc_l * worst_low * rest_low
            w_up = acc_u * worst_up * rest_low
        elif kind == _XOR:
            acc_l, acc_u = self.acc_lower, self.acc_upper
            h_low = acc_l + heur_low + rest_low
            h_up = acc_u + heur_up + rest_up
            w_low = acc_l + worst_low + rest_low
            w_up = acc_u + worst_up + rest_low
            if h_low > 1.0:
                h_low = 1.0
            if h_up > 1.0:
                h_up = 1.0
            if w_low > 1.0:
                w_low = 1.0
            if w_up > 1.0:
                w_up = 1.0
        else:  # root
            return heur_low, heur_up, worst_low, worst_up
        weight = self.weight
        if weight != 1.0:
            return (
                weight * h_low,
                weight * h_up,
                weight * w_low,
                weight * w_up,
            )
        return h_low, h_up, w_low, w_up

    def raw_finished_bounds(self) -> Bounds:
        """Unweighted bounds of the node once no children remain pending.

        The caller applies ``weight`` (after memoising the raw point, if
        any, as the source DNF's exact probability).
        """
        if self.kind == _OR:
            return 1.0 - self.acc_lower, 1.0 - self.acc_upper
        if self.kind == _XOR:
            return min(1.0, self.acc_lower), min(1.0, self.acc_upper)
        return self.acc_lower, self.acc_upper


# ----------------------------------------------------------------------
# The algorithm
# ----------------------------------------------------------------------
def approximate_probability(
    dnf: DNF,
    registry: VariableRegistry,
    *,
    epsilon: float,
    error_kind: str = ABSOLUTE,
    choose_variable: Optional[VariableSelector] = None,
    allow_closing: bool = True,
    sort_buckets: bool = True,
    read_once_buckets: bool = False,
    max_steps: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    cache: Optional[DecompositionCache] = None,
) -> ApproximationResult:
    """Compute an ε-approximation of ``P(Φ)`` with certified bounds.

    Parameters
    ----------
    epsilon:
        Allowed error, ``0 ≤ ε < 1``.  ``ε = 0`` requests the exact
        probability (the incremental machinery then behaves as an exact
        algorithm that still exploits exact bucket bounds at leaves).
    error_kind:
        ``"absolute"`` (additive) or ``"relative"`` (multiplicative),
        Definition 5.7.
    choose_variable:
        Shannon pivot selector; default max-frequency, see
        :func:`repro.core.orders.make_variable_selector` for the IQ order.
    allow_closing:
        Enable the Theorem 5.12 leaf-closing rule (on by default; turning
        it off yields the naive incremental algorithm, for ablations).
    sort_buckets, read_once_buckets:
        Forwarded to the Fig. 3 bounds heuristic.
    max_steps, deadline_seconds:
        Work budgets.  On exhaustion the result carries the best bounds
        found so far with ``converged=False`` (the algorithm is anytime).
    cache:
        A :class:`~repro.core.memo.DecompositionCache` shared across
        calls (pass the engine's cache for top-k refinement rounds and
        repeated queries); a private per-call cache is created when
        omitted.  Shannon expansion revisits identical residual DNFs
        constantly, so even the per-call cache collapses most repeat
        subtrees into single folds.

    Returns
    -------
    ApproximationResult
        With ``lower ≤ P(Φ) ≤ upper`` always, and the ε-guarantee when
        ``converged`` is true.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    if error_kind not in (ABSOLUTE, RELATIVE):
        raise ValueError(f"unknown error kind {error_kind!r}")

    started = clock.monotonic()
    histogram = {_OR: 0, _AND: 0, _XOR: 0}
    steps = 0
    closed = 0
    exact_leaves = 0
    max_depth = 1

    def make_result(
        lower: float, upper: float, converged: bool
    ) -> ApproximationResult:
        lower = max(0.0, min(lower, 1.0))
        upper = max(lower, min(upper, 1.0))
        return ApproximationResult(
            lower=lower,
            upper=upper,
            estimate=interval_estimate(
                lower, upper, epsilon, error_kind, converged
            ),
            converged=converged,
            epsilon=epsilon,
            error_kind=error_kind,
            steps=steps,
            leaves_closed=closed,
            leaves_exact=exact_leaves,
            max_depth=max_depth,
            node_histogram=dict(histogram),
            elapsed_seconds=clock.monotonic() - started,
        )

    # Degenerate inputs.
    if dnf.is_false():
        return make_result(0.0, 0.0, True)
    if dnf.is_true():
        return make_result(1.0, 1.0, True)

    if cache is None:
        cache = DecompositionCache()
    cache.bind(registry, choose_variable, sort_buckets, read_once_buckets)
    # Enforce the entry cap across calls too: a long-lived engine issuing
    # many small computes would otherwise never hit the in-loop trim.
    cache.trim()
    lookup_exact = cache.lookup_exact
    bucket_bounds = cache.leaf_bounds

    def leaf_bounds(leaf: DNF) -> Bounds:
        # A completed subtree's exact value beats its Fig. 3 bounds.
        value = lookup_exact(leaf)
        if value is not None:
            return value, value
        return bucket_bounds(leaf)

    root_dnf = dnf.remove_subsumed()
    if root_dnf.is_true():
        return make_result(1.0, 1.0, True)
    root_lower, root_upper = leaf_bounds(root_dnf)
    stack: List[_Frame] = [
        _Frame(
            _ROOT,
            [_PendingChild(root_dnf, root_lower, root_upper, reduced=True)],
        )
    ]

    def global_bounds(current: Bounds, at_lower: bool) -> Bounds:
        """Propagate the current leaf's interval up to the root."""
        value: Optional[Bounds] = current
        for frame in reversed(stack):
            value = frame.combine(value, at_lower)
        assert value is not None
        return value

    def global_bounds_both(
        current: Bounds,
    ) -> Tuple[Bounds, Bounds]:
        """Both check modes — termination (heuristic open leaves) and
        closing (open leaves at lower bounds) — in a single stack walk."""
        heur_low, heur_up = current
        worst_low, worst_up = current
        for frame in reversed(stack):
            heur_low, heur_up, worst_low, worst_up = frame.combine_both(
                heur_low, heur_up, worst_low, worst_up
            )
        return (heur_low, heur_up), (worst_low, worst_up)

    def out_of_budget() -> bool:
        if max_steps is not None and steps >= max_steps:
            return True
        if (
            deadline_seconds is not None
            and clock.monotonic() - started > deadline_seconds
        ):
            return True
        return False

    while stack:
        frame = stack[-1]

        # A frame with no pending children is finished: fold it upward.
        if not frame.pending:
            raw_low, raw_high = frame.raw_finished_bounds()
            if raw_low == raw_high and frame.source is not None:
                # The subtree collapsed to its exact probability; any
                # later re-occurrence of this DNF folds in one step.
                cache.store_exact(frame.source, raw_low)
            if frame.weight != 1.0:
                bounds = (frame.weight * raw_low, frame.weight * raw_high)
            else:
                bounds = (raw_low, raw_high)
            stack.pop()
            if not stack:
                lower, upper = bounds
                return make_result(
                    lower,
                    upper,
                    interval_certified(lower, upper, epsilon, error_kind),
                )
            parent = stack[-1]
            parent.absorb(bounds)
            parent.pop_head()
            continue

        current = frame.pending[0]
        current_bounds = current.effective_bounds()

        # Both global checks in one stack walk: termination (Prop. 5.8,
        # heuristic bounds everywhere) and closing (Lemma 5.11 worst case).
        overall, worst = global_bounds_both(current_bounds)

        # Check 1 — may we stop with an ε-approximation?
        if interval_certified(overall[0], overall[1], epsilon, error_kind):
            return make_result(overall[0], overall[1], True)

        # Budget exhaustion: report the (always sound) current bounds.
        if out_of_budget():
            return make_result(overall[0], overall[1], False)

        # Exact leaves fold straight into the accumulator.
        if current.is_exact():
            exact_leaves += 1
            frame.absorb(current_bounds)
            frame.pop_head()
            continue

        # Check 2 — may the current leaf be closed?  (Lemma 5.11 worst
        # case: every other open leaf pinned to its lower bound.)
        closing_allowed = allow_closing and not (
            frame.kind == _AND and frame.closed_incomplete
        )
        if closing_allowed:
            if interval_certified(worst[0], worst[1], epsilon, error_kind):
                closed += 1
                if frame.kind == _AND:
                    frame.closed_incomplete = True
                frame.absorb(current_bounds)
                frame.pop_head()
                continue

        # Refine the current leaf by one decomposition step.  The leaf
        # stays at the head of ``frame.pending``: the new frame represents
        # it, and when the new frame finishes its bounds are absorbed and
        # the head is popped.
        steps += 1
        child_dnf = (
            current.dnf if current.reduced else cache.reduce(current.dnf)
        )
        if child_dnf.is_true():
            frame.absorb((current.weight, current.weight))
            frame.pop_head()
            continue
        if child_dnf.is_single_clause():
            value = current.weight * child_dnf.sole_clause().probability(
                registry
            )
            frame.absorb((value, value))
            frame.pop_head()
            continue

        # A previously completed subtree over the same DNF folds at once.
        known = lookup_exact(child_dnf)
        if known is not None:
            value = current.weight * known
            frame.absorb((value, value))
            frame.pop_head()
            continue

        kind, parts = cache.decompose(child_dnf)
        histogram[kind] += 1
        if kind == _XOR:
            pending = []
            for branch in parts:
                if branch.cofactor.is_true():
                    low, high = 1.0, 1.0
                else:
                    low, high = leaf_bounds(branch.cofactor)
                pending.append(
                    _PendingChild(
                        branch.cofactor,
                        low,
                        high,
                        weight=branch.probability,
                    )
                )
        else:
            pending = [
                _PendingChild(part, *leaf_bounds(part), reduced=True)
                for part in parts
            ]
        new_frame = _Frame(
            kind, pending, weight=current.weight, source=child_dnf
        )

        stack.append(new_frame)
        max_depth = max(max_depth, len(stack))
        if not steps & 0x3FF:
            cache.trim()

    raise AssertionError("unreachable: stack drained without returning")
