"""The parser against a frozen copy of its line-by-line predecessor.

``reference_parse`` below is the earlier parser, kept verbatim: it tokenized
every line into (token, column) pairs and stepped through them one peek at a
time.  The current parser splits each line once, reads each field by its
position and computes a column only when it raises.  Each token of the golden
model and of twenty random models is dropped, doubled and misspelt two ways,
and each token of the golden model and of five random models is replaced by
each grammar word that ends or opens a run of tokens.  On every such text both
must raise a ``ParseError`` with the same message, line and column, or both
must succeed with the same ``write_model`` output.  The reference reports a
missing cpt at line 0, column 1, where the parser reports it at the
variable's name in its declaration; the comparison moves the reference's
error there.  The other deliberate difference (a variable may not reuse an
earlier utility's name) cannot arise from these mutations, which keep every
line in place.
"""

import math
import re

import pytest

from idjt.model import (
    CHANCE,
    DECISION,
    InfluenceDiagram,
    ParseError,
    Utility,
    Variable,
    chance_var,
    decision_var,
    parse_model,
    write_model,
)
from idjt.randmodels import random_model
from idjt.tables import Table

from conftest import MODELS

_KEYWORDS = frozenset(
    {"chance", "decision", "cpt", "utility", "states", "stage", "index", "given", "over"}
)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LABEL_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")


# ---------------------------------------------------------------------------
# the reference: the earlier parser, verbatim apart from its name


class _Line:
    def __init__(self, number: int, tokens: list[tuple[str, int]]):
        self.number = number
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def column(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1

    def take(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {what} at end of line", self.number, self.column())
        self.pos += 1
        return tok

    def expect(self, literal: str):
        col = self.column()
        tok = self.take(repr(literal))
        if tok != literal:
            raise ParseError(f"expected {literal!r}, found {tok!r}", self.number, col)


def _tokenize(text: str) -> list[_Line]:
    lines = []
    for i, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", body)]
        if tokens:
            lines.append(_Line(i, tokens))
    return lines


def _take_name(line: _Line, what: str) -> str:
    col = line.column()
    tok = line.take(what)
    if not _NAME_RE.match(tok) or tok in _KEYWORDS:
        raise ParseError(f"invalid {what} {tok!r}", line.number, col)
    return tok


def _take_int(line: _Line, what: str, minimum: int) -> int:
    col = line.column()
    tok = line.take(what)
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"expected integer {what}, found {tok!r}", line.number, col) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, found {value}", line.number, col)
    return value


def _take_float(line: _Line) -> float:
    col = line.column()
    tok = line.take("a numeric value")
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"expected a number, found {tok!r}", line.number, col) from None


def reference_parse(text: str) -> InfluenceDiagram:
    variables: list[Variable] = []
    by_name: dict[str, Variable] = {}
    parents: dict[str, tuple[Variable, ...]] = {}
    cpt_lines: dict[str, tuple[_Line, int, list[Variable], list[float]]] = {}
    utilities: list[Utility] = []
    util_names: set[str] = set()

    def declare(line: _Line, kind: str) -> None:
        col = line.column()
        name = _take_name(line, "variable name")
        if name in by_name:
            raise ParseError(f"duplicate name {name!r}", line.number, col)
        line.expect("states")
        labels: list[str] = []
        stop = "stage" if kind == CHANCE else "index"
        while line.peek() is not None and line.peek() != stop:
            tcol = line.column()
            tok = line.take("state label")
            if not _LABEL_RE.match(tok):
                raise ParseError(f"invalid state label {tok!r}", line.number, tcol)
            labels.append(tok)
        if not labels:
            raise ParseError("at least one state label required", line.number, line.column())
        line.expect(stop)
        if kind == CHANCE:
            v = chance_var(name, labels, _take_int(line, "stage", 0))
        else:
            v = decision_var(name, labels, _take_int(line, "index", 1))
        if line.peek() is not None:
            raise ParseError(f"unexpected token {line.peek()!r}", line.number, line.column())
        variables.append(v)
        by_name[name] = v

    def resolve(line: _Line, what: str) -> Variable:
        col = line.column()
        tok = line.take(what)
        v = by_name.get(tok)
        if v is None:
            raise ParseError(f"undeclared variable {tok!r}", line.number, col)
        return v

    def values_after_colon(line: _Line) -> list[float]:
        line.expect(":")
        vals = []
        while line.peek() is not None:
            vals.append(_take_float(line))
        return vals

    for line in _tokenize(text):
        head_col = line.column()
        head = line.take("a directive")
        if head in (CHANCE, DECISION):
            declare(line, head)
        elif head == "cpt":
            tcol = line.column()
            target = resolve(line, "cpt target")
            if target.is_decision:
                raise ParseError(
                    f"decision {target.name!r} cannot have a cpt", line.number, tcol
                )
            if target.name in cpt_lines:
                raise ParseError(f"duplicate cpt for {target.name!r}", line.number, tcol)
            given: list[Variable] = []
            if line.peek() == "given":
                line.expect("given")
                while line.peek() is not None and line.peek() != ":":
                    given.append(resolve(line, "parent name"))
            vals = values_after_colon(line)
            cpt_lines[target.name] = (line, tcol, given, vals)
        elif head == "utility":
            ucol = line.column()
            uname = _take_name(line, "utility name")
            if uname in util_names or uname in by_name:
                raise ParseError(f"duplicate name {uname!r}", line.number, ucol)
            util_names.add(uname)
            line.expect("over")
            dom: list[Variable] = []
            while line.peek() is not None and line.peek() != ":":
                dom.append(resolve(line, "utility variable"))
            vals = values_after_colon(line)
            expected = math.prod(len(v.states) for v in dom)
            if len(vals) != expected:
                raise ParseError(
                    f"utility {uname!r} needs {expected} values, found {len(vals)}",
                    line.number,
                    ucol,
                )
            if len(set(dom)) != len(dom):
                raise ParseError(f"utility {uname!r} repeats a variable", line.number, ucol)
            utilities.append(Utility(uname, tuple(dom), Table.from_flat(dom, vals)))
        else:
            raise ParseError(f"unknown directive {head!r}", line.number, head_col)

    cpts: dict[str, Table] = {}
    for v in variables:
        if v.is_decision:
            continue
        entry = cpt_lines.pop(v.name, None)
        if entry is None:
            raise ParseError(f"missing cpt for chance variable {v.name!r}", 0, 1)
        line, col, given, vals = entry
        dom = given + [v]
        if len(set(dom)) != len(dom):
            raise ParseError(f"cpt of {v.name!r} repeats a variable", line.number, col)
        expected = math.prod(len(w.states) for w in dom)
        if len(vals) != expected:
            raise ParseError(
                f"cpt of {v.name!r} needs {expected} values, found {len(vals)}",
                line.number,
                col,
            )
        parents[v.name] = tuple(given)
        cpts[v.name] = Table.from_flat(dom, vals)

    return InfluenceDiagram(tuple(variables), parents, cpts, tuple(utilities))


# ---------------------------------------------------------------------------
# the comparison

# stand-ins for a misspelt token: grammar words, numbers float or int rejects,
# a comment start, and text that splits into two tokens
_SUBSTITUTES = (
    ":", "given", "states", "stage", "index", "over", "chance", "utility", "cpt",
    "0", "-1", "2.5", "1e999", "nan", "x", "x0", "D1", "u0", "a-b", "é", "#", "a b",
)


def _mutants(text: str):
    """Each whitespace-separated token dropped, doubled, and misspelt two ways.

    The first misspelling appends a letter, drops the last character or
    upper-cases the token; the second substitutes a stand-in.  Both rotate
    with the token's position.
    """
    for i, m in enumerate(re.finditer(r"\S+", text)):
        tok, (start, end) = m.group(0), m.span()
        misspelt = (tok + "x", tok[:-1], tok.upper())[i % 3]
        for sub in ("", f"{tok} {tok}", misspelt, _SUBSTITUTES[i % len(_SUBSTITUTES)]):
            yield text[:start] + sub + text[end:]


def _outcome(parse, text: str):
    try:
        return "ok", write_model(parse(text))
    except ParseError as e:
        return "error", (str(e), e.line, e.column)


def _expected(text: str):
    """The reference's outcome, with a missing cpt moved to its declaration."""
    outcome = _outcome(reference_parse, text)
    if outcome[0] == "error" and outcome[1][1] == 0:
        message = outcome[1][0].removeprefix("line 0, column 1: ")
        name = re.fullmatch(r"missing cpt for chance variable '(.*)'", message).group(1)
        for number, raw in enumerate(text.splitlines(), 1):
            m = re.match(rf"\s*chance\s+({re.escape(name)})\s", raw.partition("#")[0] + " ")
            if m:
                column = m.start(1) + 1
                return "error", (f"line {number}, column {column}: {message}", number, column)
    return outcome


def _texts(name: str, count: int) -> list[str]:
    if name == "golden":
        return [(MODELS / "golden.idm").read_text(encoding="utf-8")]
    return [write_model(random_model(i)) for i in range(count)]


@pytest.mark.parametrize("name", ["golden", "random"])
def test_parser_matches_its_reference_on_single_token_mutations(name):
    compared = 0
    for text in _texts(name, 20):
        assert _outcome(parse_model, text) == _expected(text)
        for mutant in _mutants(text):
            assert _outcome(parse_model, mutant) == _expected(mutant), mutant
            compared += 1
    assert compared > 1000


# the words that end a run of tokens or open one: a stop token too early, or
# a ':' inside a ``given`` or ``over`` list, moves every later field
_KEYWORD_SUBSTITUTES = (":", "given", "over", "states", "stage", "index")


def _keyword_mutants(text: str):
    """Each whitespace-separated token replaced by each of ``_KEYWORD_SUBSTITUTES``."""
    for m in re.finditer(r"\S+", text):
        for sub in _KEYWORD_SUBSTITUTES:
            if sub != m.group(0):
                yield text[: m.start()] + sub + text[m.end() :]


@pytest.mark.parametrize("name", ["golden", "random"])
def test_parser_matches_its_reference_with_a_token_replaced_by_a_keyword(name):
    compared = 0
    for text in _texts(name, 5):
        for mutant in _keyword_mutants(text):
            assert _outcome(parse_model, mutant) == _expected(mutant), mutant
            compared += 1
    assert compared > 1000
