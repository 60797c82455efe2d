"""A small SQL front-end for ``conf()`` queries.

The paper presents queries in MayBMS-style SQL, e.g. the triangle motif
(Section VI.A)::

    select conf() as triangle_prob
    from E n1, E n2, E n3
    where n1.v = n2.u and n2.v = n3.v and
          n1.u = n3.u and n1.u < n2.u and n2.u < n3.v;

This module parses the conjunctive fragment of that language —
``SELECT [columns | conf()] FROM table [alias], … WHERE conjunction`` —
into a :class:`~repro.db.cq.ConjunctiveQuery` against a
:class:`~repro.db.database.Database`, and evaluates it with a pluggable
confidence method.

Supported WHERE predicates: equality between two columns (an equi-join),
equality with a literal (a selection), and the comparison operators
``< <= > >= <> !=`` between columns or against literals.  Aliases make
self-joins expressible, exactly as in the paper's motif queries.

Statements
----------
:func:`parse_statement` is the statement-level entry point: it parses the
probabilistic DML dialect —

* ``INSERT INTO t VALUES (...) [WITH PROBABILITY p]``
* ``UPDATE t SET col = lit, ... , PROBABILITY = p [WHERE ...]``
* ``DELETE FROM t [WHERE ...]``
* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``

— into statement objects over the mutation API of
:mod:`repro.db.mutations`, and falls through to :func:`parse_conf_query`
for ``SELECT``.  ``ProbDB.execute`` dispatches the result.
"""

from __future__ import annotations

import re
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from .cq import ConjunctiveQuery, Const, Inequality, SubGoal, Var
from .database import Database

__all__ = [
    "parse_conf_query",
    "parse_statement",
    "SqlSyntaxError",
    "ParsedQuery",
    "InsertStatement",
    "UpdateStatement",
    "DeleteStatement",
    "TransactionStatement",
]


class SqlSyntaxError(ValueError):
    """Raised on queries outside the supported fragment."""


_TOKEN_PATTERN = re.compile(
    r"""
    \s*(
        (?P<string>'[^']*')
      | (?P<number>-?\d+(\.\d+)?)
      | (?P<op><=|>=|<>|!=|=|<|>)
      | (?P<punct>[(),;.*])
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "and", "as", "conf"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise SqlSyntaxError(f"cannot tokenize near {remainder[:20]!r}")
        position = match.end()
        for kind in ("string", "number", "op", "punct", "word"):
            value = match.group(kind)
            if value is not None:
                if kind == "word" and value.lower() in _KEYWORDS:
                    tokens.append(("keyword", value.lower()))
                else:
                    tokens.append((kind, value))
                break
    return tokens


class _TokenStream:
    def __init__(self, tokens: List[Tuple[str, str]]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> Tuple[str, str]:
        token = self.peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of query")
        self._index += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        token_kind, token_value = self.next()
        if token_kind != kind or (value is not None and token_value != value):
            raise SqlSyntaxError(
                f"expected {value or kind}, found {token_value!r}"
            )
        return token_value

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        if (
            token is not None
            and token[0] == kind
            and (value is None or token[1] == value)
        ):
            self._index += 1
            return True
        return False


_ColumnRef = Tuple[Optional[str], str]  # (alias or None, column)
_Literal = Tuple[str, Hashable]  # ("literal", value)


def _parse_column_or_literal(stream: _TokenStream):
    kind, value = stream.next()
    if kind == "string":
        return ("literal", value[1:-1])
    if kind == "number":
        number = float(value)
        if number.is_integer() and "." not in value:
            return ("literal", int(value))
        return ("literal", number)
    if kind == "word":
        if stream.accept("punct", "."):
            column = stream.expect("word")
            return (value, column)
        return (None, value)
    raise SqlSyntaxError(f"expected column or literal, found {value!r}")


class ParsedQuery:
    """The outcome of parsing: a CQ plus presentation metadata."""

    __slots__ = ("query", "select_columns", "wants_conf", "conf_alias")

    def __init__(
        self,
        query: ConjunctiveQuery,
        select_columns: List[str],
        wants_conf: bool,
        conf_alias: Optional[str],
    ) -> None:
        self.query = query
        self.select_columns = select_columns
        self.wants_conf = wants_conf
        self.conf_alias = conf_alias


def parse_conf_query(text: str, database: Database) -> ParsedQuery:
    """Parse a ``SELECT … FROM … WHERE …`` string into a conjunctive query.

    Relation schemas are resolved against ``database``; every table column
    becomes a query variable named ``<alias>.<column>``, and WHERE
    equalities between columns unify the corresponding variables.
    """
    stream = _TokenStream(_tokenize(text))
    stream.expect("keyword", "select")

    # ---- SELECT list ----------------------------------------------------
    select_items: List[Union[str, _ColumnRef]] = []
    wants_conf = False
    conf_alias: Optional[str] = None
    while True:
        if stream.accept("keyword", "conf"):
            stream.expect("punct", "(")
            stream.expect("punct", ")")
            wants_conf = True
            if stream.accept("keyword", "as"):
                conf_alias = stream.expect("word")
        else:
            ref = _parse_column_or_literal(stream)
            if ref[0] == "literal":
                raise SqlSyntaxError("literals are not selectable")
            select_items.append(ref)
            if stream.accept("keyword", "as"):
                stream.expect("word")  # output aliases are cosmetic
        if not stream.accept("punct", ","):
            break

    # ---- FROM list -------------------------------------------------------
    stream.expect("keyword", "from")
    from_entries: List[Tuple[str, str]] = []  # (table, alias)
    while True:
        table = stream.expect("word")
        if table not in database:
            raise SqlSyntaxError(f"unknown table {table!r}")
        alias = table
        token = stream.peek()
        if token is not None and token[0] == "word":
            alias = stream.next()[1]
        if any(existing == alias for _t, existing in from_entries):
            raise SqlSyntaxError(f"duplicate alias {alias!r}")
        from_entries.append((table, alias))
        if not stream.accept("punct", ","):
            break

    # ---- WHERE conjunction -------------------------------------------------
    predicates: List[Tuple[object, str, object]] = []
    if stream.accept("keyword", "where"):
        while True:
            left = _parse_column_or_literal(stream)
            op = stream.expect("op")
            right = _parse_column_or_literal(stream)
            predicates.append((left, op, right))
            if not stream.accept("keyword", "and"):
                break
    stream.accept("punct", ";")
    if stream.peek() is not None:
        raise SqlSyntaxError(
            f"unexpected trailing token {stream.peek()[1]!r}"
        )

    # ---- Build the conjunctive query ----------------------------------------
    # One variable per (alias, column); equality predicates merge variable
    # classes (union-find), after which each class maps to a single Var.
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(key: Tuple[str, str]) -> Tuple[str, str]:
        parent.setdefault(key, key)
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def unite(a: Tuple[str, str], b: Tuple[str, str]) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    alias_of: Dict[str, str] = {alias: table for table, alias in from_entries}
    columns_of: Dict[str, Sequence[str]] = {
        alias: database[table].attributes for table, alias in from_entries
    }

    def resolve(ref) -> Tuple[str, str]:
        alias, column = ref
        if alias is None:
            owners = [
                a for a, columns in columns_of.items() if column in columns
            ]
            if len(owners) != 1:
                raise SqlSyntaxError(
                    f"column {column!r} is "
                    + ("ambiguous" if owners else "unknown")
                )
            alias = owners[0]
        if alias not in alias_of:
            raise SqlSyntaxError(f"unknown alias {alias!r}")
        if column not in columns_of[alias]:
            raise SqlSyntaxError(
                f"table {alias_of[alias]!r} has no column {column!r}"
            )
        return alias, column

    constants: Dict[Tuple[str, str], Hashable] = {}
    inequalities_raw: List[Tuple[object, str, object]] = []
    for left, op, right in predicates:
        left_is_literal = left[0] == "literal"
        right_is_literal = right[0] == "literal"
        if op == "=":
            if left_is_literal and right_is_literal:
                raise SqlSyntaxError("literal = literal predicates unsupported")
            if left_is_literal or right_is_literal:
                column_ref = right if left_is_literal else left
                literal = left if left_is_literal else right
                constants[find(resolve(column_ref))] = literal[1]
            else:
                unite(resolve(left), resolve(right))
        else:
            inequalities_raw.append((left, op, right))

    # Assign one Var per class root (or a Const if the class is pinned).
    variables: Dict[Tuple[str, str], Var] = {}

    def term_for(ref) -> Union[Var, Const]:
        root = find(resolve(ref))
        if root in constants:
            return Const(constants[root])
        if root not in variables:
            variables[root] = Var(f"{root[0]}.{root[1]}")
        return variables[root]

    subgoals = []
    for table, alias in from_entries:
        terms = [term_for((alias, column)) for column in columns_of[alias]]
        subgoals.append(SubGoal(table, terms))

    op_map = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "<>": "!=",
              "!=": "!="}
    inequalities = []
    for left, op, right in inequalities_raw:
        left_term = (
            Const(left[1]) if left[0] == "literal" else term_for(left)
        )
        right_term = (
            Const(right[1]) if right[0] == "literal" else term_for(right)
        )
        if isinstance(left_term, Const) and isinstance(right_term, Const):
            raise SqlSyntaxError("literal-only comparisons are unsupported")
        inequalities.append(Inequality(left_term, op_map[op], right_term))

    head = []
    select_columns = []
    for ref in select_items:
        term = term_for(ref)
        if isinstance(term, Const):
            raise SqlSyntaxError(
                f"selected column {ref} is pinned to a constant"
            )
        head.append(term)
        select_columns.append(f"{ref[0]}.{ref[1]}" if ref[0] else ref[1])

    query = ConjunctiveQuery(head, subgoals, inequalities, name="sql")
    return ParsedQuery(query, select_columns, wants_conf, conf_alias)


# ----------------------------------------------------------------------
# Statement-level parsing (probabilistic DML + transactions)
# ----------------------------------------------------------------------
# DML keywords are matched as plain word tokens, case-insensitively —
# extending _KEYWORDS would reject tables or columns named "values",
# "set", or "probability" in existing SELECT queries.


def _word_matches(token: Optional[Tuple[str, str]], word: str) -> bool:
    return (
        token is not None
        and token[0] in ("word", "keyword")
        and token[1].lower() == word
    )


def _accept_word(stream: _TokenStream, word: str) -> bool:
    if _word_matches(stream.peek(), word):
        stream.next()
        return True
    return False


def _expect_word(stream: _TokenStream, word: str) -> None:
    token = stream.next()
    if not _word_matches(token, word):
        raise SqlSyntaxError(
            f"expected {word.upper()}, found {token[1]!r}"
        )


def _parse_literal(stream: _TokenStream) -> Hashable:
    kind, value = stream.next()
    if kind == "string":
        return value[1:-1]
    if kind == "number":
        number = float(value)
        if number.is_integer() and "." not in value:
            return int(value)
        return number
    raise SqlSyntaxError(f"expected a literal, found {value!r}")


def _parse_number(stream: _TokenStream) -> float:
    kind, value = stream.next()
    if kind != "number":
        raise SqlSyntaxError(f"expected a number, found {value!r}")
    return float(value)


def _parse_dml_where(
    stream: _TokenStream,
) -> Optional[List[Tuple[str, str, Hashable]]]:
    """``WHERE col op lit [AND ...]`` into mutation-API triples."""
    if not stream.accept("keyword", "where"):
        return None
    conditions: List[Tuple[str, str, Hashable]] = []
    while True:
        column = stream.expect("word")
        op = stream.expect("op")
        literal = _parse_literal(stream)
        conditions.append((column, op, literal))
        if not stream.accept("keyword", "and"):
            break
    return conditions


def _finish_statement(stream: _TokenStream) -> None:
    stream.accept("punct", ";")
    token = stream.peek()
    if token is not None:
        raise SqlSyntaxError(f"unexpected trailing token {token[1]!r}")


class InsertStatement:
    """``INSERT INTO table VALUES (...) [WITH PROBABILITY p]``."""

    __slots__ = ("table", "row", "probability")

    def __init__(
        self, table: str, row: Tuple[Hashable, ...],
        probability: Optional[float],
    ) -> None:
        self.table = table
        self.row = row
        self.probability = probability

    def apply(self, session):
        return session.insert(
            self.table, self.row, probability=self.probability
        )

    def __repr__(self) -> str:
        return (
            f"InsertStatement({self.table!r}, {self.row!r}, "
            f"p={self.probability})"
        )


class UpdateStatement:
    """``UPDATE table SET ... [WHERE ...]``; SET items are column
    assignments and/or one ``PROBABILITY = p``."""

    __slots__ = ("table", "values", "probability", "where")

    def __init__(
        self,
        table: str,
        values: Optional[Dict[str, Hashable]],
        probability: Optional[float],
        where: Optional[List[Tuple[str, str, Hashable]]],
    ) -> None:
        self.table = table
        self.values = values
        self.probability = probability
        self.where = where

    def apply(self, session):
        return session.update(
            self.table,
            values=self.values,
            probability=self.probability,
            where=self.where,
        )

    def __repr__(self) -> str:
        return (
            f"UpdateStatement({self.table!r}, values={self.values!r}, "
            f"p={self.probability}, where={self.where!r})"
        )


class DeleteStatement:
    """``DELETE FROM table [WHERE ...]``."""

    __slots__ = ("table", "where")

    def __init__(
        self, table: str,
        where: Optional[List[Tuple[str, str, Hashable]]],
    ) -> None:
        self.table = table
        self.where = where

    def apply(self, session):
        return session.delete(self.table, where=self.where)

    def __repr__(self) -> str:
        return f"DeleteStatement({self.table!r}, where={self.where!r})"


class TransactionStatement:
    """``BEGIN`` / ``COMMIT`` / ``ROLLBACK``."""

    __slots__ = ("action",)

    def __init__(self, action: str) -> None:
        self.action = action

    def apply(self, session):
        if self.action == "begin":
            return session.transaction()
        txn = session._txn
        if txn is None:
            from .mutations import MutationError

            raise MutationError(
                f"{self.action.upper()} outside a transaction"
            )
        if self.action == "commit":
            txn.commit()
        else:
            txn.rollback()
        return None

    def __repr__(self) -> str:
        return f"TransactionStatement({self.action!r})"


Statement = Union[
    ParsedQuery,
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
    TransactionStatement,
]


def _require_table(database: Database, table: str) -> str:
    if table not in database:
        raise SqlSyntaxError(f"unknown table {table!r}")
    return table


def parse_statement(text: str, database: Database) -> Statement:
    """Parse one SQL statement: DML, transaction control, or SELECT.

    ``SELECT`` delegates to :func:`parse_conf_query` (this is the
    statement-level home the migration table points at); everything
    else parses into a statement object whose ``apply(session)`` runs
    it through the mutation API of :mod:`repro.db.mutations`.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise SqlSyntaxError("empty statement")
    head = tokens[0][1].lower() if tokens[0][0] in ("word", "keyword") else ""
    if head not in ("insert", "update", "delete", "begin", "commit",
                    "rollback"):
        return parse_conf_query(text, database)
    stream = _TokenStream(tokens)

    if head in ("begin", "commit", "rollback"):
        _expect_word(stream, head)
        # Accept the optional noise words of the common spellings.
        if head == "begin":
            _accept_word(stream, "transaction")
        _finish_statement(stream)
        return TransactionStatement(head)

    if head == "insert":
        _expect_word(stream, "insert")
        _expect_word(stream, "into")
        table = _require_table(database, stream.expect("word"))
        _expect_word(stream, "values")
        stream.expect("punct", "(")
        row: List[Hashable] = []
        while True:
            row.append(_parse_literal(stream))
            if not stream.accept("punct", ","):
                break
        stream.expect("punct", ")")
        probability: Optional[float] = None
        if _accept_word(stream, "with"):
            _expect_word(stream, "probability")
            probability = _parse_number(stream)
        _finish_statement(stream)
        return InsertStatement(table, tuple(row), probability)

    if head == "delete":
        _expect_word(stream, "delete")
        _expect_word(stream, "from")
        table = _require_table(database, stream.expect("word"))
        where = _parse_dml_where(stream)
        _finish_statement(stream)
        return DeleteStatement(table, where)

    # UPDATE table SET item {, item} [WHERE ...]
    _expect_word(stream, "update")
    table = _require_table(database, stream.expect("word"))
    _expect_word(stream, "set")
    values: Dict[str, Hashable] = {}
    probability = None
    while True:
        if _word_matches(stream.peek(), "probability"):
            stream.next()
            stream.accept("op", "=")
            if probability is not None:
                raise SqlSyntaxError("PROBABILITY assigned twice")
            probability = _parse_number(stream)
        else:
            column = stream.expect("word")
            stream.expect("op", "=")
            if column in values:
                raise SqlSyntaxError(f"column {column!r} assigned twice")
            values[column] = _parse_literal(stream)
        if not stream.accept("punct", ","):
            break
    where = _parse_dml_where(stream)
    _finish_statement(stream)
    return UpdateStatement(table, values or None, probability, where)
