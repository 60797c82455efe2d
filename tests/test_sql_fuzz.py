"""Grammar fuzzing of the SQL front end.

Whatever text reaches :func:`parse_statement` or
:func:`parse_conf_query`, the outcome is a parsed statement or a typed
:class:`SqlSyntaxError`, never another exception: a traceback out of a
parser is a parser bug, whatever the input.  Two generators feed them:

* token soups over the SQL vocabulary (keywords of every statement
  kind, the database's tables and columns, unknown names, literals,
  comparison operators, punctuation and characters the tokenizer does
  not know), glued by a space, a newline or nothing, so neighbours can
  fuse into new words and numbers;
* statement templates with their literal and table slots filled from
  the vocabulary, as they are and with a few tokens dropped,
  repeated, swapped, inserted or replaced by a token of the same kind,
  which reach deeper into the grammar than soups do.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.variables import VariableRegistry
from repro.db.database import Database
from repro.db.relation import Relation
from repro.db.sql import SqlSyntaxError, parse_conf_query, parse_statement


def make_database():
    registry = VariableRegistry()
    database = Database(registry)
    database.add(
        Relation.tuple_independent(
            "R", ["a", "b"], [((1, 10), 0.5), ((2, 20), 0.6)], registry
        )
    )
    database.add(
        Relation.tuple_independent(
            "S", ["b", "c"], [((10, 5), 0.4), ((20, 6), 0.9)], registry
        )
    )
    return database


DATABASE = make_database()

KEYWORDS = (
    "select", "from", "where", "and", "as", "conf", "insert", "into",
    "values", "update", "set", "delete", "begin", "commit", "rollback",
    "transaction", "with", "probability",
)
NAMES = ("R", "S", "T", "a", "b", "c", "d", "r", "s", "R.a", "S.c", "r.b")
LITERALS = (
    "0", "1", "-1", "10", "2.5", "-0.25", "1e3", "0.0", "'x'", "''",
    "'it''s'", "99999999999999999999", "1.",
)
SYMBOLS = (
    "(", ")", ",", ";", ".", "*", "=", "<>", "!=", "<", ">", "<=", ">=",
    "conf()", "'", '"', "#", "-", "@", "\\", "`", "\t",
)
VOCABULARY = (
    KEYWORDS + tuple(word.upper() for word in KEYWORDS)
    + NAMES + LITERALS + SYMBOLS
)

#: Statement templates.  Each ``{}`` is a literal slot filled from
#: LITERALS; ``{R}`` and ``{S}`` are table slots, filled with that table
#: most of the time and otherwise with the other table or an unknown one.
TEMPLATES = (
    "select conf() from {R}",
    "SELECT R.a , conf() AS p FROM {R} , {S} WHERE R.b = S.b AND S.c > {}",
    "select a , b from {R} r where r.a <> {} ;",
    "select conf() from {R} r1 , {R} r2 where r1.a = r2.a and r1.b < r2.b",
    "select c from {S} where b = {} and {} <= c",
    "insert into {R} values ( {} , {} ) with probability {}",
    "insert into {S} values ( {} , {} ) ;",
    "update {R} set probability = {} where a = {}",
    "update {S} set c = {} , probability {} where b >= {} and c != {}",
    "delete from {R} where a = {}",
    "delete from {S}",
    "begin transaction",
    "commit ;",
    "rollback",
)

SEPARATORS = st.sampled_from([" ", " ", " ", "", "\n"])


@st.composite
def token_soups(draw):
    pieces = draw(
        st.lists(
            st.tuples(st.sampled_from(VOCABULARY), SEPARATORS),
            max_size=24,
        )
    )
    return "".join(token + separator for token, separator in pieces)


def table_slot(table):
    other = "S" if table == "R" else "R"
    return st.sampled_from((table, table, table, other, "T"))


@st.composite
def statements(draw):
    """A template with every literal and table slot filled."""
    template = draw(st.sampled_from(TEMPLATES))
    slots = template.count("{}")
    literals = draw(
        st.lists(st.sampled_from(LITERALS), min_size=slots, max_size=slots)
    )
    return template.format(
        *literals, R=draw(table_slot("R")), S=draw(table_slot("S"))
    )


def same_kind(token):
    """Tokens that can stand where ``token`` stands: names and keywords
    for a word, literals for a literal, symbols for a symbol."""
    if token[0].isalpha():
        return NAMES + KEYWORDS
    if token[0].isdigit() or token[0] in "-'":
        return LITERALS
    return SYMBOLS


EDITS = ("drop", "repeat", "swap", "insert", "replace")


@st.composite
def mutated_statements(draw):
    tokens = draw(statements()).split()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(EDITS))
        if not tokens and edit != "insert":
            continue
        index = draw(st.integers(0, max(0, len(tokens) - 1)))
        if edit == "drop":
            del tokens[index]
        elif edit == "repeat":
            tokens.insert(index, tokens[index])
        elif edit == "swap":
            other = draw(st.integers(0, len(tokens) - 1))
            tokens[index], tokens[other] = tokens[other], tokens[index]
        elif edit == "insert":
            tokens.insert(index, draw(st.sampled_from(VOCABULARY)))
        else:
            tokens[index] = draw(st.sampled_from(same_kind(tokens[index])))
    separator = draw(st.sampled_from([" ", "\n", "  "]))
    return separator.join(tokens)


FUZZ = dict(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def parses_or_raises_typed(text):
    """Both entry points end in a result or an SqlSyntaxError; any
    other exception propagates and fails the test."""
    for parse in (parse_statement, parse_conf_query):
        try:
            parse(text, DATABASE)
        except SqlSyntaxError:
            pass


def test_templates_parse():
    for template in TEMPLATES:
        text = template.format(*["1"] * template.count("{}"), R="R", S="S")
        parse_statement(text, DATABASE)


@settings(**FUZZ)
@given(text=statements())
def test_filled_templates_raise_only_typed_errors(text):
    parses_or_raises_typed(text)


@settings(**FUZZ)
@given(text=token_soups())
def test_token_soups_raise_only_typed_errors(text):
    parses_or_raises_typed(text)


@settings(**FUZZ)
@given(text=mutated_statements())
def test_mutated_statements_raise_only_typed_errors(text):
    parses_or_raises_typed(text)


@settings(**FUZZ)
@given(text=st.text(max_size=40))
def test_arbitrary_text_raises_only_typed_errors(text):
    parses_or_raises_typed(text)
