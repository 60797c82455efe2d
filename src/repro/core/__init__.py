"""Core of the reproduction: DNFs, d-trees, bounds, approximation.

This subpackage implements the paper's contribution proper:

* the propositional machinery of Section III
  (:mod:`~repro.core.variables`, :mod:`~repro.core.events`,
  :mod:`~repro.core.dnf`, :mod:`~repro.core.formulas`,
  :mod:`~repro.core.semantics`);
* d-trees and their compiler, Section IV
  (:mod:`~repro.core.dtree`, :mod:`~repro.core.decompositions`,
  :mod:`~repro.core.compiler`, :mod:`~repro.core.orders`);
* bounds and the incremental approximation algorithm, Section V
  (:mod:`~repro.core.bounds`, :mod:`~repro.core.approx`,
  :mod:`~repro.core.exact`);
* read-once factorization underlying the tractability results of
  Section VI (:mod:`~repro.core.readonce`).
"""

from .approx import (
    ABSOLUTE,
    RELATIVE,
    ApproximationResult,
    approximate_probability,
)
from .bounds import BucketPartition, bucket_partition, independent_bounds
from .compiler import (
    CompilationBudgetExceeded,
    CompilationStats,
    compile_dnf,
)
from .decompositions import (
    ShannonBranch,
    independent_and_factorization,
    independent_or_partition,
    shannon_expansion,
)
from .dnf import DNF
from .dtree import (
    DTree,
    ExclusiveOrNode,
    IndependentAndNode,
    IndependentOrNode,
    LeafNode,
)
from .events import Atom, Clause, InconsistentClauseError
from .exact import exact_probability, exact_probability_compiled
from .formulas import (
    FALSE,
    TRUE,
    AndNode,
    AtomNode,
    Formula,
    OrNode,
    atom,
    conj,
    disj,
)
from .memo import DecompositionCache
from .orders import (
    iq_variable_choice,
    make_variable_selector,
    max_frequency_choice,
)
from .readonce import read_once_probability, try_read_once
from .semantics import (
    brute_force_formula_probability,
    brute_force_probability,
    equivalent_on_registry,
)
from .variables import BOOLEAN_DOMAIN, VariableRegistry

__all__ = [
    "ABSOLUTE",
    "RELATIVE",
    "ApproximationResult",
    "approximate_probability",
    "BucketPartition",
    "bucket_partition",
    "independent_bounds",
    "CompilationBudgetExceeded",
    "CompilationStats",
    "compile_dnf",
    "DecompositionCache",
    "ShannonBranch",
    "independent_and_factorization",
    "independent_or_partition",
    "shannon_expansion",
    "DNF",
    "DTree",
    "ExclusiveOrNode",
    "IndependentAndNode",
    "IndependentOrNode",
    "LeafNode",
    "Atom",
    "Clause",
    "InconsistentClauseError",
    "exact_probability",
    "exact_probability_compiled",
    "FALSE",
    "TRUE",
    "AndNode",
    "AtomNode",
    "Formula",
    "OrNode",
    "atom",
    "conj",
    "disj",
    "iq_variable_choice",
    "make_variable_selector",
    "max_frequency_choice",
    "read_once_probability",
    "try_read_once",
    "brute_force_formula_probability",
    "brute_force_probability",
    "equivalent_on_registry",
    "BOOLEAN_DOMAIN",
    "VariableRegistry",
]
