"""Probabilistic database substrate (paper, Section VI).

* :mod:`~repro.db.relation` — tuple-independent, block-independent-
  disjoint, certain, and c-table relations with lineage;
* :mod:`~repro.db.database` — a named collection of relations over one
  probability space;
* :mod:`~repro.db.algebra` — positive relational algebra with lineage and
  the ``conf()`` aggregate;
* :mod:`~repro.db.cq` — conjunctive queries and the tractability
  classifiers (hierarchical, IQ, Theorem 6.4 hard patterns);
* :mod:`~repro.db.engine` — query evaluation producing per-answer lineage
  DNFs;
* :mod:`~repro.db.sprout` — the SPROUT-style exact extensional operator
  for hierarchical queries (the paper's exact baseline);
* :mod:`~repro.db.session` — the :class:`ProbDB` session façade with
  lazy :class:`QueryResult` objects, the library's front door.
"""

from .algebra import (
    conf,
    natural_join,
    product,
    project,
    rename_attributes,
    select,
    theta_join,
    union,
)
from .cq import (
    ConjunctiveQuery,
    Const,
    Inequality,
    SubGoal,
    Var,
    hard_pattern_tractable,
)
from .database import Database
from .engine import QueryAnswer, answer_selector, evaluate, evaluate_to_dnf
from .explain import InfluenceReport, QueryExplanation, explain, rank_influence
from .mutations import MutationError, MutationResult, Transaction
from .relation import Relation
from .session import BoundsSnapshot, ProbDB, QueryResult
from .sprout import UnsafeQueryError, sprout_confidence
from .sql import (
    DeleteStatement,
    InsertStatement,
    SqlSyntaxError,
    TransactionStatement,
    UpdateStatement,
    parse_conf_query,
    parse_statement,
)
from .topk import RankedAnswer, rank_answers

__all__ = [
    "BoundsSnapshot",
    "ProbDB",
    "QueryResult",
    "rank_answers",
    "conf",
    "natural_join",
    "product",
    "project",
    "rename_attributes",
    "select",
    "theta_join",
    "union",
    "ConjunctiveQuery",
    "Const",
    "Inequality",
    "SubGoal",
    "Var",
    "hard_pattern_tractable",
    "Database",
    "QueryAnswer",
    "answer_selector",
    "evaluate",
    "evaluate_to_dnf",
    "Relation",
    "UnsafeQueryError",
    "sprout_confidence",
    "SqlSyntaxError",
    "parse_conf_query",
    "parse_statement",
    "MutationError",
    "MutationResult",
    "Transaction",
    "InsertStatement",
    "UpdateStatement",
    "DeleteStatement",
    "TransactionStatement",
    "InfluenceReport",
    "QueryExplanation",
    "explain",
    "rank_influence",
    "RankedAnswer",
]
