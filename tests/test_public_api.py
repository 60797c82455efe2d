"""Public-API surface tests.

Pins three properties of the package boundary:

* ``repro.__all__`` is complete and accurate — every public (non-module)
  symbol importable from ``repro`` appears in it and vice versa;
* the package ships a PEP 561 ``py.typed`` marker;
* the :class:`repro.ProbDB` session path raises no ``DeprecationWarning``.
"""

import inspect
import pathlib
import warnings

import pytest

import repro
from repro import EngineConfig, ProbDB
from repro.core.variables import VariableRegistry
from repro.db.cq import ConjunctiveQuery, SubGoal, Var
from repro.db.database import Database
from repro.db.relation import Relation


class TestAllCompleteness:
    def test_every_public_symbol_is_in_all(self):
        public = {
            name
            for name in dir(repro)
            if not name.startswith("_")
            and not inspect.ismodule(getattr(repro, name))
        }
        missing = public - set(repro.__all__)
        assert not missing, f"public symbols missing from __all__: {missing}"

    def test_every_all_entry_exists(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing {name!r}"

    def test_facade_symbols_exported(self):
        for name in ("ProbDB", "QueryResult", "BoundsSnapshot",
                     "EngineConfig", "BatchComputation", "RankedAnswer"):
            assert name in repro.__all__

    def test_db_package_exports_facade(self):
        import repro.db as db

        for name in ("ProbDB", "QueryResult", "BoundsSnapshot",
                     "rank_answers"):
            assert name in db.__all__
            assert hasattr(db, name)

    def test_py_typed_marker_ships_with_package(self):
        package_dir = pathlib.Path(repro.__file__).parent
        assert (package_dir / "py.typed").exists()


@pytest.fixture
def small_db():
    reg = VariableRegistry()
    db = Database(reg)
    db.add(
        Relation.tuple_independent(
            "PR", ["x"],
            [((x,), 0.3 + 0.1 * i) for i, x in enumerate("abc")], reg
        )
    )
    db.add(
        Relation.tuple_independent(
            "PS", ["x", "y"],
            [((x, y), 0.4) for x in "abc" for y in "de"], reg
        )
    )
    return db


def _query():
    x, y = Var("X"), Var("Y")
    return ConjunctiveQuery(
        [x],
        [SubGoal("PR", [x]), SubGoal("PS", [x, y])],
        [],
        name="session-path",
    )


class TestSessionPath:
    """The one way to ask for SQL, CQ and top-k confidences."""

    def test_session_path_is_warning_free(self, small_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = ProbDB(small_db, EngineConfig(epsilon=0.0))
            result = session.query(_query())
            result.answers()
            result.confidences()
            result.top_k(1)
            session.explain(_query())
