"""Arithmetic circuits over interned atom probabilities.

A :class:`Circuit` is the d-DNNF/AC view of a d-tree (paper, Section IV):
the decomposition structure — ``⊗`` independent-or, ``⊙``
independent-and, ``⊕`` exclusive-or, clause products — is valid for
*any* assignment of atom probabilities, so once a lineage formula has
been decomposed, its probability under a **new** probability map is a
single linear sweep over the circuit instead of a fresh decomposition.

The circuit is flat and array-backed: node kinds, argument slots, and
the flattened child lists live in :mod:`array` arrays, emitted in
topological order (children strictly before parents, root last), so

* :meth:`Circuit.evaluate` is one forward sweep,
* :meth:`Circuit.gradients` is one forward plus one backward sweep
  (reverse-mode differentiation: ``∂P/∂p(atom)`` for *every* input atom
  at once),
* :meth:`Circuit.condition` clamps a variable to a value (probability
  1 for the chosen atom, 0 for its siblings — the degenerate
  distribution), turning what-if questions into plain evaluations.

Partial circuits
----------------
Circuits compiled under a node budget (the anytime analogue of a
truncated ε-run) carry **residual leaves**: sub-DNFs that were not
expanded, stored with their Fig. 3 heuristic bounds *and* their
variable set.  Evaluation then propagates ``[lower, upper]`` intervals
(the monotone combination formulas of Prop. 5.4).  A probability
override or conditioning that touches a residual's variables
invalidates its stored bounds, so those leaves soundly widen to
``[0, 1]``; overrides confined to the expanded part of the circuit keep
the stored bounds valid.
"""

from __future__ import annotations

import math
from array import array
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..core.variables import (
    VariableRegistry,
    atom_entry,
    lookup_atom,
    lookup_variable,
    variable_name,
)

__all__ = [
    "Circuit",
    "KIND_CONST",
    "KIND_ATOM",
    "KIND_PROD",
    "KIND_OR",
    "KIND_SUM",
    "KIND_RESIDUAL",
]

Bounds = Tuple[float, float]
#: A validated override map: ``atom id -> probability`` plus the touched
#: variable ids (:meth:`Circuit._resolve_overrides`).
Resolution = Tuple[Dict[int, float], FrozenSet[int]]

#: Constant node — ``arg0`` indexes :attr:`Circuit.consts`.
KIND_CONST = 0
#: Input node — ``arg0`` is the interned atom id whose probability feeds
#: the circuit.
KIND_ATOM = 1
#: ``⊙`` / clause product — value ``Π children``.
KIND_PROD = 2
#: ``⊗`` independent-or — value ``1 − Π (1 − child)``.
KIND_OR = 3
#: ``⊕`` exclusive-or — value ``min(1, Σ children)``.
KIND_SUM = 4
#: Residual leaf of a partial circuit — ``arg0`` indexes
#: :attr:`Circuit.residuals`.
KIND_RESIDUAL = 5

#: Probability overrides: ``variable -> P(variable = True)`` for Boolean
#: variables, or ``variable -> {value: probability}`` in general.
ProbOverrides = Mapping[Hashable, Union[float, Mapping[Hashable, float]]]


class Circuit:
    """A compiled lineage formula as a flat arithmetic circuit.

    Instances are produced by :func:`repro.circuits.compile_circuit`
    (or the engine/session layers on top of it); the constructor wires
    pre-built arrays and is not part of the public surface.

    Attributes
    ----------
    registry:
        The probability space supplying base atom probabilities.
    kinds, arg0, arg1, children:
        The flat node arrays.  ``kinds[i]`` is one of the ``KIND_*``
        constants; inner nodes store their child span as
        ``children[arg0[i]:arg1[i]]``; leaves use ``arg0`` as documented
        per kind.  Children always precede parents; the root is the
        last node.
    consts:
        Constant values referenced by ``KIND_CONST`` nodes.
    residuals:
        ``(lower, upper, variable_ids)`` per residual leaf of a partial
        circuit (empty for exact circuits).
    atom_nodes:
        ``atom id -> node index`` for every input node.
    var_atoms:
        ``variable id -> [atom ids]`` for every variable with an input
        node in the circuit.
    """

    __slots__ = (
        "registry",
        "kinds",
        "arg0",
        "arg1",
        "children",
        "consts",
        "residuals",
        "atom_nodes",
        "var_atoms",
        "residual_dnfs",
        "_residual_vids",
        "_pinned",
        "_pinned_vids",
        "_conditioned_map",
        "_kernel",
    )

    def __init__(
        self,
        registry: VariableRegistry,
        kinds: array,
        arg0: array,
        arg1: array,
        children: array,
        consts: List[float],
        residuals: List[Tuple[float, float, FrozenSet[int]]],
        atom_nodes: Dict[int, int],
        var_atoms: Dict[int, List[int]],
        residual_dnfs: Optional[List[Optional[object]]] = None,
        _pinned: Optional[Dict[int, float]] = None,
        _pinned_vids: FrozenSet[int] = frozenset(),
        _conditioned: Optional[Dict[Hashable, Hashable]] = None,
    ) -> None:
        self.registry = registry
        self.kinds = kinds
        self.arg0 = arg0
        self.arg1 = arg1
        self.children = children
        self.consts = consts
        self.residuals = residuals
        self.atom_nodes = atom_nodes
        self.var_atoms = var_atoms
        #: Parallel to :attr:`residuals`: the unexpanded sub-DNF behind
        #: each residual leaf, when known.  Compile-time circuits carry
        #: them, and format-v2 stores persist them (version-1 stores
        #: predate that), so entries may be ``None`` — those leaves are
        #: not refinable via :func:`repro.circuits.expand_residuals`.
        self.residual_dnfs: List[Optional[object]] = (
            list(residual_dnfs)
            if residual_dnfs is not None
            else [None] * len(residuals)
        )
        #: Lazily built :class:`~repro.circuits.CircuitKernel` for this
        #: exact node/pin configuration (see ``circuit_kernel()`` in
        #: :mod:`repro.circuits.kernels`).  ``condition()`` and residual
        #: expansion return *new* Circuit objects, so identity is the
        #: invalidation rule — a cached kernel can never go stale.
        self._kernel: Optional[object] = None
        #: Union of residual-leaf variable sets: overrides on these
        #: variables void the affected stored bounds even when the
        #: variable has no input node in the expanded part.
        residual_vids: set = set()
        for _low, _high, vids in residuals:
            residual_vids.update(vids)
        self._residual_vids = frozenset(residual_vids)
        #: atom id -> clamped probability (conditioning), applied under
        #: any overrides.
        self._pinned: Dict[int, float] = _pinned or {}
        #: variables clamped so far; residuals touching them are void.
        self._pinned_vids = _pinned_vids
        #: variable -> clamped value, as requested via condition().
        self._conditioned_map: Dict[Hashable, Hashable] = (
            _conditioned or {}
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def is_exact(self) -> bool:
        """True when the circuit has no residual leaves: evaluation is
        an exact probability, not an interval."""
        return not self.residuals

    @property
    def conditioned(self) -> Dict[Hashable, Hashable]:
        """The ``variable -> value`` clamps applied via :meth:`condition`."""
        return dict(self._conditioned_map)

    def variables(self) -> List[Hashable]:
        """The variable names feeding the circuit (deterministic order)."""
        return sorted(
            (variable_name(vid) for vid in self.var_atoms),
            key=repr,
        )

    def node_histogram(self) -> Dict[str, int]:
        """Node counts by kind (mirrors ``DTree.inner_node_histogram``)."""
        names = {
            KIND_CONST: "const",
            KIND_ATOM: "atom",
            KIND_PROD: "independent-and",
            KIND_OR: "independent-or",
            KIND_SUM: "exclusive-or",
            KIND_RESIDUAL: "residual",
        }
        histogram: Dict[str, int] = {}
        for kind in self.kinds:
            key = names[kind]
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def residual_dnf(self, index: int) -> Optional[object]:
        """The unexpanded sub-DNF behind residual leaf ``index``.

        ``None`` when out of range or when the leaf's sub-DNF is not
        recorded (circuits reloaded from pre-v2 stores) — such leaves
        evaluate soundly but cannot be refined.
        """
        if 0 <= index < len(self.residual_dnfs):
            return self.residual_dnfs[index]
        return None

    @property
    def refinable(self) -> bool:
        """True when at least one residual leaf carries its sub-DNF,
        i.e. :func:`repro.circuits.expand_residuals` can tighten it."""
        return any(dnf is not None for dnf in self.residual_dnfs)

    def widest_residual(
        self,
        touched_sets: Optional[Iterable[FrozenSet[int]]] = None,
        *,
        refinable_only: bool = True,
    ) -> Optional[int]:
        """Index of the residual leaf with the widest effective bounds.

        The *effective* width of a leaf is its stored ``high - low``,
        or ``1.0`` when any of the ``touched_sets`` (per-scenario
        touched variable ids, as produced by override resolution)
        intersects its variables — those scenarios see the leaf widened
        to ``[0, 1]``, so it dominates the uncertainty of a sweep.
        With ``refinable_only`` (default) leaves without a recorded
        sub-DNF are skipped; returns ``None`` when nothing qualifies.
        """
        touched_union: FrozenSet[int] = frozenset()
        if touched_sets is not None:
            acc: set = set()
            for touched in touched_sets:
                acc.update(touched)
            acc.update(self._pinned_vids)
            touched_union = frozenset(acc)
        elif self._pinned_vids:
            touched_union = self._pinned_vids
        best: Optional[int] = None
        best_width = -1.0
        for index, (low, high, vids) in enumerate(self.residuals):
            if refinable_only and self.residual_dnfs[index] is None:
                continue
            width = high - low
            if touched_union and not touched_union.isdisjoint(vids):
                width = 1.0
            if width > best_width:
                best = index
                best_width = width
        return best

    def __repr__(self) -> str:
        state = "exact" if self.is_exact else (
            f"partial, {len(self.residuals)} residual leaves"
        )
        return (
            f"Circuit({len(self.kinds)} nodes over "
            f"{len(self.atom_nodes)} atoms, {state})"
        )

    # ------------------------------------------------------------------
    # Override resolution
    # ------------------------------------------------------------------
    def _resolve_overrides(
        self, prob_overrides: Optional[ProbOverrides]
    ) -> Resolution:
        """``atom id -> probability`` map plus the touched variable ids.

        Accepts ``variable -> float`` (Boolean shorthand for
        ``P(variable = True)``) and ``variable -> {value: prob}``
        distributions.  Conditioning clamps (:meth:`condition`) are
        merged last and take precedence.
        """
        resolved: Dict[int, float] = {}
        touched: set = set()
        if prob_overrides:
            for name, spec in prob_overrides.items():
                if name not in self.registry:
                    # Unknown to the probability space: a typo, not a
                    # no-op — same rationale as condition().
                    raise KeyError(f"unknown random variable {name!r}")
                is_mapping = isinstance(spec, Mapping)
                if is_mapping:
                    # Mapping specs are explicit per-variable intent:
                    # validate fully and unconditionally.
                    distribution: Dict[Hashable, float] = dict(spec)
                    self._check_distribution(name, distribution)
                else:
                    prob = float(spec)
                    if not (0.0 <= prob <= 1.0):
                        raise ValueError(
                            f"override P({name!r}) = {prob} is outside "
                            "[0, 1]"
                        )
                var_id = lookup_variable(name)
                if var_id is None or (
                    var_id not in self.var_atoms
                    and var_id not in self._residual_vids
                ):
                    # A real variable this circuit does not depend on:
                    # legitimate no-op (one override map is typically
                    # fanned out across many answer circuits), so the
                    # per-variable work below is skipped for it.
                    continue
                touched.add(var_id)
                if not is_mapping:
                    if not self.registry.is_boolean(name):
                        raise ValueError(
                            f"variable {name!r} is not Boolean; pass a "
                            "full {value: probability} distribution "
                            "instead of a float"
                        )
                    distribution = {True: prob, False: 1.0 - prob}
                if var_id not in self.var_atoms:
                    continue  # only residual leaves see this variable
                for value, prob in distribution.items():
                    atom_id, _vid = lookup_atom(name, value)
                    if atom_id is not None and atom_id in self.atom_nodes:
                        resolved[atom_id] = prob
        if self._pinned:
            resolved.update(self._pinned)
        if self._pinned_vids:
            # Conditioned variables count as touched even when they
            # have no input node (occurrences only inside residuals).
            touched.update(self._pinned_vids)
        return resolved, frozenset(touched)

    def _check_distribution(
        self, name: Hashable, distribution: Mapping[Hashable, float]
    ) -> None:
        """Reject mapping overrides that are not a probability measure.

        The circuit's structural identities (⊕ exclusivity summing to
        the pivot's total mass, ⊗/⊙ independence) hold for *any* valid
        distribution but silently produce non-probabilities for an
        invalid one, so the check the registry applies at registration
        time is applied here too.  Degenerate 0/1 masses are allowed
        (that is what conditioning is).  ``name`` is always a registry
        variable (the caller rejects unknown names first).
        """
        domain = set(self.registry.domain(name))
        missing = domain - set(distribution)
        extra = set(distribution) - domain
        if missing or extra:
            raise ValueError(
                f"override distribution for {name!r} must cover its "
                f"domain exactly (missing {sorted(missing, key=repr)!r},"
                f" extra {sorted(extra, key=repr)!r})"
            )
        for value, prob in distribution.items():
            if not (0.0 <= prob <= 1.0):
                raise ValueError(
                    f"override P({name!r} = {value!r}) = {prob} is "
                    "outside [0, 1]"
                )
        total = math.fsum(distribution.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"override distribution for {name!r} sums to {total}, "
                "expected 1.0"
            )

    def _input_values(self, resolved: Dict[int, float]) -> Dict[int, float]:
        """Every input atom's probability: ``resolved`` over the registry."""
        registry = self.registry
        values: Dict[int, float] = {}
        for atom_id in self.atom_nodes:
            prob = resolved.get(atom_id)
            if prob is None:
                prob = registry.atom_probability(atom_id)
            values[atom_id] = prob
        return values

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _forward(
        self,
        atom_values: Dict[int, float],
        touched: FrozenSet[int] = frozenset(),
    ) -> List[float]:
        """Point-value forward sweep.

        Residual leaves evaluate at their interval midpoint — the
        *widened* ``[0, 1]`` midpoint when ``touched`` overrides void
        their stored bounds, matching :meth:`evaluate_bounds` so the
        gradient linearization point agrees with the reported value.
        """
        kinds = self.kinds
        arg0 = self.arg0
        arg1 = self.arg1
        children = self.children
        consts = self.consts
        residuals = self.residuals
        values = [0.0] * len(kinds)
        for index in range(len(kinds)):
            kind = kinds[index]
            if kind == KIND_ATOM:
                values[index] = atom_values[arg0[index]]
            elif kind == KIND_PROD:
                product = 1.0
                for child in children[arg0[index]:arg1[index]]:
                    product *= values[child]
                values[index] = product
            elif kind == KIND_OR:
                complement = 1.0
                for child in children[arg0[index]:arg1[index]]:
                    complement *= 1.0 - values[child]
                values[index] = 1.0 - complement
            elif kind == KIND_SUM:
                total = 0.0
                for child in children[arg0[index]:arg1[index]]:
                    total += values[child]
                values[index] = min(1.0, total)
            elif kind == KIND_CONST:
                values[index] = consts[arg0[index]]
            else:  # KIND_RESIDUAL
                low, high, vids = residuals[arg0[index]]
                if touched and not touched.isdisjoint(vids):
                    values[index] = 0.5  # stored bounds voided
                else:
                    values[index] = (low + high) / 2.0
        return values

    def _forward_bounds(
        self,
        atom_values: Dict[int, float],
        touched: FrozenSet[int],
    ) -> List[Bounds]:
        """Interval forward sweep for partial circuits (Prop. 5.4).

        Residual leaves whose variables intersect ``touched`` lose
        their stored bounds (computed under the base probabilities) and
        widen to ``[0, 1]``.
        """
        kinds = self.kinds
        arg0 = self.arg0
        arg1 = self.arg1
        children = self.children
        consts = self.consts
        residuals = self.residuals
        values: List[Bounds] = [(0.0, 0.0)] * len(kinds)
        for index in range(len(kinds)):
            kind = kinds[index]
            if kind == KIND_ATOM:
                prob = atom_values[arg0[index]]
                values[index] = (prob, prob)
            elif kind == KIND_PROD:
                low_acc = 1.0
                high_acc = 1.0
                for child in children[arg0[index]:arg1[index]]:
                    low, high = values[child]
                    low_acc *= low
                    high_acc *= high
                values[index] = (low_acc, high_acc)
            elif kind == KIND_OR:
                low_acc = 1.0
                high_acc = 1.0
                for child in children[arg0[index]:arg1[index]]:
                    low, high = values[child]
                    low_acc *= 1.0 - low
                    high_acc *= 1.0 - high
                values[index] = (1.0 - low_acc, 1.0 - high_acc)
            elif kind == KIND_SUM:
                low_acc = 0.0
                high_acc = 0.0
                for child in children[arg0[index]:arg1[index]]:
                    low, high = values[child]
                    low_acc += low
                    high_acc += high
                values[index] = (min(1.0, low_acc), min(1.0, high_acc))
            elif kind == KIND_CONST:
                value = consts[arg0[index]]
                values[index] = (value, value)
            else:  # KIND_RESIDUAL
                low, high, vids = residuals[arg0[index]]
                if touched and not touched.isdisjoint(vids):
                    values[index] = (0.0, 1.0)
                else:
                    values[index] = (low, high)
        return values

    def evaluate(
        self, prob_overrides: Optional[ProbOverrides] = None
    ) -> float:
        """``P(Φ)`` under the base probabilities with ``prob_overrides``
        overlaid — one O(|circuit|) sweep, no re-decomposition.

        Exact circuits return the exact probability.  Partial circuits
        return the midpoint of :meth:`evaluate_bounds` (use that method
        when the certified interval matters).
        """
        return self._value(self._resolve_overrides(prob_overrides))

    def evaluate_bounds(
        self, prob_overrides: Optional[ProbOverrides] = None
    ) -> Bounds:
        """Sound ``[lower, upper]`` bounds on ``P(Φ)`` under overrides.

        Exact circuits return a point interval.  Partial circuits keep
        residual-leaf bounds where the overrides leave them valid and
        widen the rest to ``[0, 1]``.
        """
        return self._bounds(self._resolve_overrides(prob_overrides))

    def _value(self, resolution: Resolution) -> float:
        """:meth:`evaluate` for overrides resolved already."""
        if self.is_exact:
            values = self._forward(self._input_values(resolution[0]))
            return values[-1] if values else 0.0
        lower, upper = self._bounds(resolution)
        return (lower + upper) / 2.0

    def _bounds(self, resolution: Resolution) -> Bounds:
        """:meth:`evaluate_bounds` for overrides resolved already."""
        resolved, touched = resolution
        atom_values = self._input_values(resolved)
        if self.is_exact:
            values = self._forward(atom_values)
            value = values[-1] if values else 0.0
            return value, value
        bounds = self._forward_bounds(atom_values, touched)
        return bounds[-1] if bounds else (0.0, 0.0)

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def atom_gradients(
        self, prob_overrides: Optional[ProbOverrides] = None
    ) -> Dict[Tuple[Hashable, Hashable], float]:
        """``∂P/∂p(variable = value)`` for every input atom.

        One forward sweep for values, one backward sweep for adjoints
        (reverse-mode differentiation), so all sensitivities cost the
        same as two evaluations.  On partial circuits the derivatives
        treat residual leaves as constants (their interiors contribute
        nothing), which makes the result approximate; exact circuits
        give exact derivatives of the multilinear probability
        polynomial.
        """
        adjoints = self._atom_adjoints(prob_overrides)
        out: Dict[Tuple[Hashable, Hashable], float] = {}
        for atom_id, adjoint in adjoints.items():
            _vid, name, value = atom_entry(atom_id)
            out[(name, value)] = adjoint
        return out

    def gradients(
        self, prob_overrides: Optional[ProbOverrides] = None
    ) -> Dict[Hashable, float]:
        """``∂P/∂p(x)`` per Boolean variable ``x`` (``p = P(x = True)``).

        This is the sensitivity a tuple-probability update has on the
        answer confidence: ``P(x = True) = p`` and ``P(x = False) =
        1 − p``, so the derivative is ``adj(x=True) − adj(x=False)``.
        Non-Boolean variables are skipped (use :meth:`atom_gradients`);
        conditioned variables are skipped (their inputs are clamped).
        """
        adjoints = self._atom_adjoints(prob_overrides)
        registry = self.registry
        out: Dict[Hashable, float] = {}
        for var_id, atom_ids in self.var_atoms.items():
            if var_id in self._pinned_vids:
                continue
            name = variable_name(var_id)
            if name not in registry or not registry.is_boolean(name):
                continue
            gradient = 0.0
            for atom_id in atom_ids:
                _vid, _name, value = atom_entry(atom_id)
                if value is True:
                    gradient += adjoints[atom_id]
                elif value is False:
                    gradient -= adjoints[atom_id]
            out[name] = gradient
        return out

    def _atom_adjoints(
        self, prob_overrides: Optional[ProbOverrides]
    ) -> Dict[int, float]:
        resolved, touched = self._resolve_overrides(prob_overrides)
        values = self._forward(self._input_values(resolved), touched)
        size = len(self.kinds)
        if not size:
            return {}
        kinds = self.kinds
        arg0 = self.arg0
        arg1 = self.arg1
        children = self.children
        adjoints = [0.0] * size
        adjoints[-1] = 1.0
        for index in range(size - 1, -1, -1):
            adjoint = adjoints[index]
            if adjoint == 0.0:
                continue
            kind = kinds[index]
            if kind == KIND_PROD:
                span = children[arg0[index]:arg1[index]]
                self._push_product(
                    span, values, adjoints, adjoint, complemented=False
                )
            elif kind == KIND_OR:
                span = children[arg0[index]:arg1[index]]
                self._push_product(
                    span, values, adjoints, adjoint, complemented=True
                )
            elif kind == KIND_SUM:
                for child in children[arg0[index]:arg1[index]]:
                    adjoints[child] += adjoint
        return {
            atom_id: adjoints[node]
            for atom_id, node in self.atom_nodes.items()
        }

    @staticmethod
    def _push_product(
        span: Iterable[int],
        values: List[float],
        adjoints: List[float],
        adjoint: float,
        *,
        complemented: bool,
    ) -> None:
        """Distribute a product node's adjoint onto its children.

        ``∂(Π tⱼ)/∂tᵢ = Π_{j≠i} tⱼ`` computed with prefix/suffix
        products (robust to zero factors, O(children)).  For ``⊗``
        nodes the terms are the complements ``tⱼ = 1 − cⱼ`` and the
        chain rule through ``1 − Π tⱼ`` flips both signs, which cancel:
        ``∂/∂cᵢ = Π_{j≠i} (1 − cⱼ)``.
        """
        ids = list(span)
        count = len(ids)
        if not count:
            return
        terms = [
            (1.0 - values[child]) if complemented else values[child]
            for child in ids
        ]
        prefix = [1.0] * count
        for position in range(1, count):
            prefix[position] = prefix[position - 1] * terms[position - 1]
        suffix = 1.0
        for position in range(count - 1, -1, -1):
            adjoints[ids[position]] += adjoint * prefix[position] * suffix
            suffix *= terms[position]

    # ------------------------------------------------------------------
    # Conditioning
    # ------------------------------------------------------------------
    def condition(self, variable: Hashable, value: Hashable) -> "Circuit":
        """The circuit of ``P(Φ | variable = value)``.

        Clamps the variable to the degenerate distribution — the chosen
        atom at probability 1, its siblings at 0 — which is exactly the
        conditioned product measure, so evaluation and gradients of the
        returned circuit answer what-if questions directly.  The node
        arrays are shared (conditioning is O(domain), not O(circuit));
        the original circuit is untouched.  Conditioning a variable
        inside a residual leaf voids that leaf's stored bounds (it
        widens to ``[0, 1]`` on evaluation).
        """
        if variable not in self.registry:
            # A name the probability space has never seen is a typo,
            # not a no-op: a silently unconditioned what-if answer is
            # worse than an error.
            raise KeyError(f"unknown random variable {variable!r}")
        if value not in self.registry.domain(variable):
            raise KeyError(
                f"value {value!r} not in domain of variable "
                f"{variable!r}"
            )
        var_id = lookup_variable(variable)
        target_atom, _vid = lookup_atom(variable, value)
        pinned = dict(self._pinned)
        if var_id is not None:
            for atom_id in self.var_atoms.get(var_id, ()):
                pinned[atom_id] = 1.0 if atom_id == target_atom else 0.0
        pinned_vids = self._pinned_vids
        if var_id is not None and (
            var_id in self.var_atoms or var_id in self._residual_vids
        ):
            pinned_vids = pinned_vids | {var_id}
        conditioned = dict(self._conditioned_map)
        conditioned[variable] = value
        return Circuit(
            self.registry,
            self.kinds,
            self.arg0,
            self.arg1,
            self.children,
            self.consts,
            self.residuals,
            self.atom_nodes,
            self.var_atoms,
            residual_dnfs=self.residual_dnfs,
            _pinned=pinned,
            _pinned_vids=pinned_vids,
            _conditioned=conditioned,
        )
