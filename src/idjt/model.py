"""Influence diagram model: variables, temporal order, parsing, validation.

A model is a DAG of discrete chance variables (each with a CPT given its
parents, which may include decision variables), a set of decision variables
ordered by index, and additive utility potentials.  Chance variables are
grouped into observation stages: stage k holds the variables revealed between
decisions k and k+1 (stage 0 before the first decision, the last stage never
observed).  Stages and decision indices induce the temporal order used
throughout compilation and solving; ``Variable.rank`` is the only record of
both a variable's temporal position and its kind (odd rank means decision),
and every temporal block (an observation stage or a single decision) is the
set of variables sharing one rank.

Model file grammar (UTF-8, line oriented, ``#`` starts a comment, tokens
whitespace separated)::

    chance   <name> states <s1> <s2> ... stage <k>       # observed in stage k, k >= 0
    decision <name> states <a1> <a2> ... index <k>       # k-th decision, k >= 1
    cpt <name> [given <p1> <p2> ...] : <v1> <v2> ...     # row-major, last variable
                                                         # fastest; order (p1..pm, name)
    utility <uname> over <v1> <v2> ... : <u1> <u2> ...   # same row-major convention

Exactly one ``cpt`` per chance variable; state declaration order defines the
index order everywhere.  Variable and utility names share one namespace.  A
``ParseError`` carries the 1-based line and column of the offending token; a
missing cpt is reported at the variable's name in its declaration.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .tables import Table, canonical_key

CHANCE = "chance"
DECISION = "decision"

ROW_SUM_TOL = 1e-9

_KEYWORDS = frozenset(
    {"chance", "decision", "cpt", "utility", "states", "stage", "index", "given", "over"}
)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LABEL_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")


class ParseError(Exception):
    """Syntax or structural error in a model document."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Variable:
    """A discrete chance or decision variable.

    ``rank`` is the only record of both temporal position and kind: 2k for a
    chance variable observed in stage k, 2k-1 for the k-th decision, so odd
    rank means decision.  Lower rank means earlier.  The hash is the name's
    (which ``str`` caches); equality compares all three fields, so two
    variables sharing a name but not their states are two distinct keys.
    """

    name: str
    states: tuple[str, ...]
    rank: int

    def __hash__(self):
        return hash(self.name)

    @property
    def is_decision(self) -> bool:
        return self.rank % 2 == 1

    @property
    def stage(self) -> int:
        """Observation stage for chance, decision index for decisions."""
        return (self.rank + 1) // 2

    def __repr__(self):  # keep test output readable
        return f"{'d' if self.is_decision else 'c'}:{self.name}"


def chance_var(name: str, states: Iterable[str], stage: int) -> Variable:
    return Variable(name, tuple(states), 2 * stage)


def decision_var(name: str, states: Iterable[str], index: int) -> Variable:
    return Variable(name, tuple(states), 2 * index - 1)


@dataclass(frozen=True)
class Utility:
    """One additive utility term: a real table over its declared domain."""

    name: str
    domain: tuple[Variable, ...]  # declaration order, used for serialization
    table: Table


@dataclass(frozen=True)
class InfluenceDiagram:
    variables: tuple[Variable, ...]  # declaration order
    parents: Mapping[str, tuple[Variable, ...]]  # chance name -> parent list
    cpts: Mapping[str, Table]  # chance name -> table over (parents, child)
    utilities: tuple[Utility, ...]

    def var(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def chance_variables(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if not v.is_decision)

    @property
    def decisions(self) -> tuple[Variable, ...]:
        """Decisions in temporal order."""
        decisions = (v for v in self.variables if v.is_decision)
        return tuple(sorted(decisions, key=canonical_key))

    def family(self, v: Variable) -> tuple[Variable, ...]:
        """Parents of v followed by v itself."""
        return self.parents[v.name] + (v,)

    def children(self) -> dict[Variable, list[Variable]]:
        """Chance children of every variable, in declaration order."""
        out: dict[Variable, list[Variable]] = {v: [] for v in self.variables}
        for c in self.chance_variables:
            for p in self.parents.get(c.name, ()):
                out.setdefault(p, []).append(c)
        return out

    def descendants(self, v: Variable) -> set[Variable]:
        return _reachable(self.children(), v)

    def state_space_size(self) -> int:
        return math.prod(len(v.states) for v in self.variables)


def _reachable(children: Mapping[Variable, list[Variable]], v: Variable) -> set[Variable]:
    seen: set[Variable] = set()
    stack = list(children.get(v, ()))
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack.extend(children[w])
    return seen


class Violation(NamedTuple):
    kind: str
    message: str

    def __str__(self):
        return f"{self.kind}: {self.message}"


def validate(diagram: InfluenceDiagram) -> list[Violation]:
    """Check every semantic invariant; returns all violations, empty if valid.

    Structural completeness (names resolve, tables have the right shapes) is
    the parser's job; everything semantic lands here so tests can build
    deliberately broken diagrams.
    """
    out: list[Violation] = []
    if not diagram.variables:
        out.append(Violation("model", "the model declares no variables"))
    seen_names: set[str] = set()
    for v in diagram.variables:
        if v.name in seen_names:
            out.append(Violation("name", f"duplicate variable name {v.name!r}"))
        seen_names.add(v.name)
        if len(v.states) < 2:
            out.append(Violation("states", f"variable {v.name!r} needs at least 2 states"))
        if len(set(v.states)) != len(v.states):
            out.append(Violation("states", f"variable {v.name!r} has duplicate state labels"))

    decisions = diagram.decisions
    n = len(decisions)
    indices = sorted(v.stage for v in decisions)
    if indices != list(range(1, n + 1)):
        out.append(
            Violation("decision-index", f"decision indices {indices} must be exactly 1..{n}")
        )
    late: dict[int, set[Variable]] = {}
    for v in diagram.chance_variables:
        if v.stage > n:
            late.setdefault(v.stage, set()).add(v)
    for k in sorted(late):
        names = sorted(v.name for v in late[k])
        out.append(Violation("stage", f"stage {k} exceeds decision count {n} (variables {names})"))

    for v in diagram.variables:
        if v.is_decision and v.name in diagram.parents and diagram.parents[v.name]:
            out.append(Violation("parents", f"decision {v.name!r} must not have parents"))

    for v in diagram.chance_variables:
        ps = diagram.parents.get(v.name)
        if ps is None:
            out.append(Violation("parents", f"chance variable {v.name!r} has no parent entry"))
            continue
        if len(set(ps)) != len(ps):
            out.append(Violation("parents", f"chance variable {v.name!r} lists a parent twice"))
        cpt = diagram.cpts.get(v.name)
        if cpt is None:
            out.append(Violation("cpt", f"chance variable {v.name!r} has no cpt"))
            continue
        if set(cpt.domain) != set(ps) | {v}:
            out.append(
                Violation("cpt", f"cpt of {v.name!r} is not over its family")
            )
            continue
        if not np.all(np.isfinite(cpt.values)):
            out.append(Violation("cpt", f"cpt of {v.name!r} has non-finite entries"))
            continue
        if np.any(cpt.values < 0):
            out.append(Violation("cpt", f"cpt of {v.name!r} has negative entries"))
        axis = cpt.domain.index(v)
        sums = cpt.values.sum(axis=axis)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            worst = float(np.asarray(sums)[bad].flat[0]) if sums.ndim else float(sums)
            out.append(
                Violation(
                    "normalization",
                    f"cpt rows of {v.name!r} must sum to 1 (found {worst!r})",
                )
            )

    bound = 0.0  # bounds |total utility| over every configuration
    for u in diagram.utilities:
        if u.name in seen_names:
            out.append(Violation("name", f"duplicate utility name {u.name!r}"))
        seen_names.add(u.name)
        if not np.all(np.isfinite(u.table.values)):
            out.append(Violation("utility", f"utility {u.name!r} has non-finite values"))
        else:
            bound += float(np.max(np.abs(u.table.values), initial=0.0))
    if not math.isfinite(bound):
        out.append(Violation("utility", "the utilities' largest magnitudes overflow when summed"))

    # Kahn's cycle check over chance arcs plus decision->child arcs
    children = diagram.children()
    indegree = Counter(c for cs in children.values() for c in cs)
    ready = [v for v in children if not indegree[v]]
    for v in ready:  # the list grows while it is walked
        for c in children[v]:
            indegree[c] -= 1
            if not indegree[c]:
                ready.append(c)
    if len(ready) < len(children):
        out.append(Violation("cycle", "directed graph over the variables has a cycle"))
    else:
        for d in decisions:
            hit = [x for x in _reachable(children, d) if x.rank < d.rank]
            for x in sorted(hit, key=lambda v: v.name):
                out.append(
                    Violation(
                        "temporal",
                        f"decision {d.name!r} influences {x.name!r}, which is observed "
                        f"before it (stage {x.stage})",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# parsing and serialization


class _Line:
    """One non-blank line: its number, comment-stripped body, tokens and a cursor."""

    def __init__(self, number: int, body: str, tokens: list[str]):
        self.number = number
        self.body = body
        self.tokens = tokens
        self.pos = 0

    def error(self, message: str, at: int | None = None) -> ParseError:
        """The error at token ``at`` (default: the cursor), or at the line's end."""
        at = self.pos if at is None else at
        spans = [m.span() for m in re.finditer(r"\S+", self.body)]
        column = spans[at][0] + 1 if at < len(spans) else spans[-1][1] + 1
        return ParseError(message, self.number, column)

    def take(self, what: str) -> str:
        if self.pos == len(self.tokens):
            raise self.error(f"expected {what} at end of line")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, literal: str) -> None:
        tok = self.take(repr(literal))
        if tok != literal:
            raise self.error(f"expected {literal!r}, found {tok!r}", self.pos - 1)

    def run(self, stop: str) -> list[str]:
        """The tokens before the next ``stop`` or the line's end; the cursor stops there."""
        start = self.pos
        try:
            self.pos = self.tokens.index(stop, start)
        except ValueError:
            self.pos = len(self.tokens)
        return self.tokens[start : self.pos]


def parse_model(text: str) -> InfluenceDiagram:
    """Parse a model document into a structurally complete diagram.

    Semantic checks (normalization, acyclicity, temporal consistency) are
    deferred to :func:`validate`; this raises :class:`ParseError` only for
    syntax problems, unresolved or duplicate names, wrong table sizes, and
    tables numpy cannot hold.
    """
    declared: dict[Variable, _Line] = {}  # declaration order
    by_name: dict[str, Variable] = {}
    names: set[str] = set()  # variables and utilities share one namespace
    cpt_lines: dict[str, tuple[_Line, list[Variable], list[float]]] = {}
    utilities: list[Utility] = []

    def claim(line: _Line, what: str) -> str:
        name = line.take(what)
        if not _NAME_RE.match(name) or name in _KEYWORDS:
            raise line.error(f"invalid {what} {name!r}", line.pos - 1)
        if name in names:
            raise line.error(f"duplicate name {name!r}", line.pos - 1)
        names.add(name)
        return name

    def resolve(line: _Line) -> list[Variable]:
        start = line.pos
        run = line.run(":")
        try:
            return [by_name[tok] for tok in run]
        except KeyError as e:
            tok = e.args[0]
            raise line.error(f"undeclared variable {tok!r}", start + run.index(tok)) from None

    def values(line: _Line) -> list[float]:
        line.expect(":")
        run = line.tokens[line.pos :]
        try:
            return [float(tok) for tok in run]
        except ValueError:
            for i, tok in enumerate(run):  # find the token float rejected
                try:
                    float(tok)
                except ValueError:
                    raise line.error(f"expected a number, found {tok!r}", line.pos + i) from None
            raise

    def table(line: _Line, what: str, dom: list[Variable], vals: list[float]) -> Table:
        try:
            return Table.from_flat(dom, vals)
        except (ValueError, MemoryError) as e:  # e.g. more axes than numpy's 64
            raise line.error(f"{what} cannot be stored as a table: {e}", 1) from None

    for number, raw in enumerate(text.splitlines(), 1):
        body = raw.partition("#")[0]
        tokens = body.split()
        if not tokens:
            continue
        line = _Line(number, body, tokens)
        head = line.take("a directive")
        if head in (CHANCE, DECISION):
            name = claim(line, "variable name")
            line.expect("states")
            stop = "stage" if head == CHANCE else "index"
            labels = line.run(stop)
            for i, label in enumerate(labels):
                if not _LABEL_RE.match(label):
                    raise line.error(f"invalid state label {label!r}", 3 + i)
            if not labels:
                raise line.error("at least one state label required")
            line.expect(stop)
            tok = line.take(stop)
            try:
                k = int(tok)
            except ValueError:
                raise line.error(f"expected integer {stop}, found {tok!r}", line.pos - 1) from None
            minimum = 0 if head == CHANCE else 1
            if k < minimum:
                raise line.error(f"{stop} must be >= {minimum}, found {k}", line.pos - 1)
            if line.pos < len(tokens):
                raise line.error(f"unexpected token {tokens[line.pos]!r}")
            v = chance_var(name, labels, k) if head == CHANCE else decision_var(name, labels, k)
            declared[v] = line
            by_name[name] = v
        elif head == "cpt":
            name = line.take("cpt target")
            target = by_name.get(name)
            if target is None:
                raise line.error(f"undeclared variable {name!r}", 1)
            if target.is_decision:
                raise line.error(f"decision {name!r} cannot have a cpt", 1)
            if name in cpt_lines:
                raise line.error(f"duplicate cpt for {name!r}", 1)
            given: list[Variable] = []
            if tokens[2:3] == ["given"]:
                line.pos = 3
                given = resolve(line)
            cpt_lines[name] = (line, given, values(line))
        elif head == "utility":
            uname = claim(line, "utility name")
            line.expect("over")
            dom = resolve(line)
            vals = values(line)
            expected = math.prod(len(v.states) for v in dom)
            if len(vals) != expected:
                raise line.error(f"utility {uname!r} needs {expected} values, found {len(vals)}", 1)
            if len(set(dom)) != len(dom):
                raise line.error(f"utility {uname!r} repeats a variable", 1)
            utilities.append(Utility(uname, tuple(dom), table(line, f"utility {uname!r}", dom, vals)))
        else:
            raise line.error(f"unknown directive {head!r}", 0)

    parents: dict[str, tuple[Variable, ...]] = {}
    cpts: dict[str, Table] = {}
    for v, declaration in declared.items():
        if v.is_decision:
            continue
        entry = cpt_lines.get(v.name)
        if entry is None:
            raise declaration.error(f"missing cpt for chance variable {v.name!r}", 1)
        line, given, vals = entry
        dom = given + [v]
        if len(set(dom)) != len(dom):
            raise line.error(f"cpt of {v.name!r} repeats a variable", 1)
        expected = math.prod(len(w.states) for w in dom)
        if len(vals) != expected:
            raise line.error(f"cpt of {v.name!r} needs {expected} values, found {len(vals)}", 1)
        parents[v.name] = tuple(given)
        cpts[v.name] = table(line, f"cpt of {v.name!r}", dom, vals)

    return InfluenceDiagram(tuple(declared), parents, cpts, tuple(utilities))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_model(diagram: InfluenceDiagram) -> str:
    """Serialize a diagram; ``parse_model`` of the result is structurally equal."""
    out = []
    for v in diagram.variables:
        labels = " ".join(v.states)
        if v.is_decision:
            out.append(f"decision {v.name} states {labels} index {v.stage}")
        else:
            out.append(f"chance {v.name} states {labels} stage {v.stage}")
    for v in diagram.variables:
        if v.is_decision:
            continue
        ps = diagram.parents[v.name]
        given = f" given {' '.join(p.name for p in ps)}" if ps else ""
        flat = diagram.cpts[v.name].to_flat(list(ps) + [v])
        out.append(f"cpt {v.name}{given} : {' '.join(_fmt(x) for x in flat)}")
    for u in diagram.utilities:
        names = " ".join(v.name for v in u.domain)
        flat = u.table.to_flat(u.domain)
        out.append(f"utility {u.name} over {names} : {' '.join(_fmt(x) for x in flat)}")
    return "\n".join(out) + "\n"


def diagrams_equal(a: InfluenceDiagram, b: InfluenceDiagram) -> bool:
    """Structural equality: same variables, arcs, and tables."""
    if a.variables != b.variables:
        return False
    if dict(a.parents) != dict(b.parents):
        return False
    if set(a.cpts) != set(b.cpts):
        return False
    if any(not a.cpts[k].equals(b.cpts[k]) for k in a.cpts):
        return False
    if len(a.utilities) != len(b.utilities):
        return False
    return all(
        ua.name == ub.name and ua.domain == ub.domain and ua.table.equals(ub.table)
        for ua, ub in zip(a.utilities, b.utilities)
    )
