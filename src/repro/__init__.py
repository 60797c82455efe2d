"""repro — approximate confidence computation in probabilistic databases.

A faithful, self-contained reproduction of

    Dan Olteanu, Jiewen Huang, Christoph Koch.
    "Approximate Confidence Computation in Probabilistic Databases."
    ICDE 2010.

The library provides:

* :mod:`repro.core` — DNFs over discrete random variables (interned to
  dense integer ids for hardware-speed set algebra), d-tree compilation,
  the Fig. 3 bounds heuristic, and the incremental ε-approximation
  algorithm with leaf closing (the paper's contribution);
* :mod:`repro.engine` — the :class:`ConfidenceEngine` planner: one
  ``compute()`` entry point that auto-selects read-once → SPROUT →
  d-tree ε-approximation → Monte-Carlo per query/lineage, a batched
  anytime ``compute_many()`` that round-robins refinement across answer
  sets (one :class:`BatchComputation`, inline or pooled), and the
  frozen :class:`EngineConfig` policy bundle every path honours;
* :mod:`repro.engine_parallel` — the pool a batch's rounds run on when
  ``EngineConfig(workers=…)`` allows more than one shard: an
  engine-lifetime process/thread :class:`WorkerPool`, one engine and
  decomposition cache per worker, work-stealing rounds, and a
  deterministic merge;
* :mod:`repro.db` — a probabilistic database substrate topped by the
  :class:`ProbDB` session façade: ``ProbDB(database).sql(...)`` /
  ``.query(...)`` return lazy :class:`QueryResult` objects exposing
  ``answers() / confidences() / bounds() / top_k() / explain()``, all
  sharing one engine, cache, and interned registry per session;
* :mod:`repro.mc` — the Karp–Luby / Dagum–Karp–Luby–Ross ``aconf``
  baseline used by MystiQ and MayBMS;
* :mod:`repro.datasets` — the paper's workloads: probabilistic TPC-H,
  random graphs, and social networks with the motif queries.

Quickstart
----------
>>> from repro import VariableRegistry, DNF, ProbDB, EngineConfig
>>> reg = VariableRegistry.from_boolean_probabilities(
...     {"x": 0.3, "y": 0.2, "z": 0.7, "v": 0.8})
>>> phi = DNF.from_positive_clauses([["x", "y"], ["x", "z"], ["v"]])
>>> db = ProbDB.from_registry(reg, EngineConfig(epsilon=0.01))
>>> abs(db.confidence(phi).probability - 0.8456) <= 0.01
True
"""

from .core import (
    ABSOLUTE,
    RELATIVE,
    ApproximationResult,
    Atom,
    Clause,
    DNF,
    DTree,
    VariableRegistry,
    approximate_probability,
    brute_force_probability,
    compile_dnf,
    exact_probability,
    exact_probability_compiled,
    independent_bounds,
    make_variable_selector,
    read_once_probability,
)
from .circuits import (
    Circuit,
    CircuitCache,
    CircuitKernel,
    CircuitSampler,
    CircuitStoreError,
    CompiledResult,
    KernelUnavailableError,
    SweepResult,
    compile_circuit,
    kernel_backend,
)
from .engine import (
    BatchComputation,
    ConfidenceEngine,
    EngineConfig,
    EngineResult,
    STRATEGY_LADDER,
)
from .engine_parallel import WorkerPool
from .db.explain import InfluenceReport, rank_influence
from .db.session import BoundsSnapshot, ProbDB, QueryResult
from .db.topk import RankedAnswer

__version__ = "1.21.0"

__all__ = [
    "ABSOLUTE",
    "RELATIVE",
    "ApproximationResult",
    "Atom",
    "BatchComputation",
    "BoundsSnapshot",
    "Circuit",
    "CircuitCache",
    "CircuitKernel",
    "CircuitSampler",
    "CircuitStoreError",
    "Clause",
    "CompiledResult",
    "ConfidenceEngine",
    "DNF",
    "DTree",
    "EngineConfig",
    "EngineResult",
    "InfluenceReport",
    "KernelUnavailableError",
    "ProbDB",
    "QueryResult",
    "RankedAnswer",
    "STRATEGY_LADDER",
    "SweepResult",
    "VariableRegistry",
    "WorkerPool",
    "approximate_probability",
    "brute_force_probability",
    "compile_circuit",
    "compile_dnf",
    "exact_probability",
    "exact_probability_compiled",
    "independent_bounds",
    "kernel_backend",
    "make_variable_selector",
    "rank_influence",
    "read_once_probability",
    "__version__",
]
