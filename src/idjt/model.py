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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .tables import Table, canonical_key, position

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

    def state_space_size(self) -> int:
        return math.prod(len(v.states) for v in self.variables)


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

    chance, decisions = diagram.chance_variables, diagram.decisions
    n = len(decisions)
    indices = sorted(v.stage for v in decisions)
    if indices != list(range(1, n + 1)):
        out.append(Violation("decision-index", f"decision indices {indices} must be exactly 1..{n}"))
    late: dict[int, set[Variable]] = {}
    for v in chance:
        if v.stage > n:
            late.setdefault(v.stage, set()).add(v)
    for k in sorted(late):
        names = sorted(v.name for v in late[k])
        out.append(Violation("stage", f"stage {k} exceeds decision count {n} (variables {names})"))

    for v in diagram.variables:
        if v.is_decision and v.name in diagram.parents and diagram.parents[v.name]:
            out.append(Violation("parents", f"decision {v.name!r} must not have parents"))

    for v in chance:
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
            out.append(Violation("cpt", f"cpt of {v.name!r} is not over its family"))
            continue
        vals = cpt.values
        sums = vals.sum(axis=position(cpt.domain, v))
        if vals.min(initial=0.0) >= 0 and abs(sums - 1.0).max(initial=0.0) <= ROW_SUM_TOL:
            continue  # NaN, an infinity or an overflowing row fails this and is itemized below
        if not np.all(np.isfinite(vals)):
            out.append(Violation("cpt", f"cpt of {v.name!r} has non-finite entries"))
            continue
        if np.any(vals < 0):
            out.append(Violation("cpt", f"cpt of {v.name!r} has negative entries"))
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            worst = float(np.asarray(sums)[bad].flat[0]) if sums.ndim else float(sums)
            why = f"cpt rows of {v.name!r} must sum to 1 (found {worst!r})"
            out.append(Violation("normalization", why))

    bound = 0.0  # bounds |total utility| over every configuration
    for u in diagram.utilities:
        if u.name in seen_names:
            out.append(Violation("name", f"duplicate utility name {u.name!r}"))
        seen_names.add(u.name)
        if set(u.table.domain) != set(u.domain):
            out.append(Violation("utility", f"table of utility {u.name!r} is not over its domain"))
        elif not np.all(np.isfinite(u.table.values)):
            out.append(Violation("utility", f"utility {u.name!r} has non-finite values"))
        else:
            bound += float(np.max(np.abs(u.table.values), initial=0.0))
    if not math.isfinite(bound):
        out.append(Violation("utility", "the utilities' largest magnitudes overflow when summed"))
    declared = set(diagram.variables)
    used = [*(p for v in chance for p in diagram.parents.get(v.name, ())),
            *(x for u in diagram.utilities for x in u.domain)]
    for x in dict.fromkeys(x for x in used if x not in declared):  # first use first
        out.append(Violation("undeclared", f"variable {x.name!r} is used but not declared"))

    # Kahn's sweep over chance arcs plus decision->child arcs, on positions:
    # nodes[i] is the i-th distinct declared variable, kids[i] its chance
    # children.  An undeclared parent (reported above) has no parents and no
    # decision bit, so its arcs are skipped.  Bit k of reach[i] is set when
    # decisions[k] is nodes[i] or has a path to it, so one pass over the arcs
    # finds every decision that influences a variable.
    number: dict[Variable, int] = {}
    for v in diagram.variables:
        number.setdefault(v, len(number))
    kids: list[list[int]] = [[] for _ in number]
    indegree = [0] * len(number)
    for c in chance:
        i = number[c]
        for p in diagram.parents.get(c.name, ()):
            if (j := number.get(p)) is not None:
                kids[j].append(i)
                indegree[i] += 1
    nodes, reach = list(number), [0] * len(number)
    for k, d in enumerate(decisions):
        reach[number[d]] |= 1 << k
    ready = [i for i in range(len(nodes)) if not indegree[i]]
    for i in ready:  # the list grows while it is walked
        bits = reach[i]
        for c in kids[i]:
            reach[c] |= bits
            indegree[c] -= 1
            if not indegree[c]:
                ready.append(c)
    if len(ready) < len(nodes):
        out.append(Violation("cycle", "directed graph over the variables has a cycle"))
        return out
    # decisions[k] is later than x exactly when k >= bisect_right(ranks, x.rank)
    ranks = [d.rank for d in decisions]
    early = [(nodes[i], reach[i]) for i in ready if reach[i] >> bisect_right(ranks, nodes[i].rank)]
    for k, d in enumerate(decisions):
        hit = [x for x, bits in early if bits >> k & 1 and x.rank < d.rank]
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


def _error(line: tuple[int, str], message: str, at: int) -> ParseError:
    """The error at token ``at`` of a (number, body) line, or at the line's end."""
    number, body = line
    spans = [m.span() for m in re.finditer(r"\S+", body)]
    column = spans[at][0] + 1 if at < len(spans) else spans[-1][1] + 1
    return ParseError(message, number, column)


def _find(tokens: list[str], stop: str, start: int) -> int:
    """Position of the first ``stop`` token from ``start`` on, or the line's length."""
    try:
        return tokens.index(stop, start)
    except ValueError:
        return len(tokens)


def parse_model(text: str) -> InfluenceDiagram:
    """Parse a model document into a structurally complete diagram.

    Semantic checks (normalization, acyclicity, temporal consistency) are
    deferred to :func:`validate`; this raises :class:`ParseError` only for
    syntax problems, unresolved or duplicate names, wrong table sizes, and
    tables numpy cannot hold.  Each directive reads its fields by position
    from the line's one ``split()``; a line is its (number, body) pair, and
    the error column is worked out only when a check fails.
    """
    declared: dict[Variable, tuple[int, str]] = {}  # declaration order
    by_name: dict[str, Variable] = {}
    names: set[str] = set()  # variables and utilities share one namespace
    cpt_lines: dict[str, tuple[tuple[int, str], list[Variable], list[float]]] = {}
    utilities: list[Utility] = []

    def claim(line: tuple[int, str], tokens: list[str], what: str, keyword: str) -> str:
        """The new name at token 1, which ``keyword`` must follow."""
        if len(tokens) < 2:
            raise _error(line, f"expected {what} at end of line", 1)
        name = tokens[1]
        if not _NAME_RE.match(name) or name in _KEYWORDS:
            raise _error(line, f"invalid {what} {name!r}", 1)
        if name in names:
            raise _error(line, f"duplicate name {name!r}", 1)
        names.add(name)
        if len(tokens) < 3:
            raise _error(line, f"expected {keyword!r} at end of line", 2)
        if tokens[2] != keyword:
            raise _error(line, f"expected {keyword!r}, found {tokens[2]!r}", 2)
        return name

    def resolve(line: tuple[int, str], tokens: list[str]) -> tuple[list[Variable], int]:
        """The variables named from token 3 up to the next ':', and that ':''s position."""
        end = _find(tokens, ":", 3)
        try:
            return [by_name[tok] for tok in tokens[3:end]], end
        except KeyError as e:
            tok = e.args[0]
            raise _error(line, f"undeclared variable {tok!r}", tokens.index(tok, 3)) from None

    def values(line: tuple[int, str], tokens: list[str], at: int) -> list[float]:
        """The numbers after the ':' expected at token ``at``."""
        if at == len(tokens):
            raise _error(line, "expected ':' at end of line", at)
        if tokens[at] != ":":
            raise _error(line, f"expected ':', found {tokens[at]!r}", at)
        try:
            return [float(tok) for tok in tokens[at + 1 :]]
        except ValueError:
            for i in range(at + 1, len(tokens)):  # find the token float rejected
                try:
                    float(tokens[i])
                except ValueError:
                    raise _error(line, f"expected a number, found {tokens[i]!r}", i) from None
            raise

    def table(line: tuple[int, str], what: str, dom: list[Variable], vals: list[float]) -> Table:
        try:
            return Table.from_flat(dom, vals)
        except (ValueError, MemoryError) as e:  # e.g. more axes than numpy's 64
            raise _error(line, f"{what} cannot be stored as a table: {e}", 1) from None

    for number, raw in enumerate(text.splitlines(), 1):
        body = raw.partition("#")[0]
        tokens = body.split()
        if not tokens:
            continue
        line = (number, body)
        head = tokens[0]
        if head == CHANCE or head == DECISION:
            name = claim(line, tokens, "variable name", "states")
            stop = "stage" if head == CHANCE else "index"
            end = _find(tokens, stop, 3)
            labels = tokens[3:end]
            for i, label in enumerate(labels, 3):
                if not _LABEL_RE.match(label):
                    raise _error(line, f"invalid state label {label!r}", i)
            if not labels:
                raise _error(line, "at least one state label required", 3)
            if end + 1 >= len(tokens):
                what = repr(stop) if end == len(tokens) else stop
                raise _error(line, f"expected {what} at end of line", len(tokens))
            try:
                k = int(tokens[end + 1])
            except ValueError:
                found = tokens[end + 1]
                raise _error(line, f"expected integer {stop}, found {found!r}", end + 1) from None
            minimum = 0 if head == CHANCE else 1
            if k < minimum:
                raise _error(line, f"{stop} must be >= {minimum}, found {k}", end + 1)
            if end + 2 < len(tokens):
                raise _error(line, f"unexpected token {tokens[end + 2]!r}", end + 2)
            v = chance_var(name, labels, k) if head == CHANCE else decision_var(name, labels, k)
            declared[v] = line
            by_name[name] = v
        elif head == "cpt":
            if len(tokens) < 2:
                raise _error(line, "expected cpt target at end of line", 1)
            name = tokens[1]
            target = by_name.get(name)
            if target is None:
                raise _error(line, f"undeclared variable {name!r}", 1)
            if target.is_decision:
                raise _error(line, f"decision {name!r} cannot have a cpt", 1)
            if name in cpt_lines:
                raise _error(line, f"duplicate cpt for {name!r}", 1)
            given, at = resolve(line, tokens) if tokens[2:3] == ["given"] else ([], 2)
            cpt_lines[name] = (line, given, values(line, tokens, at))
        elif head == "utility":
            uname = claim(line, tokens, "utility name", "over")
            dom, at = resolve(line, tokens)
            vals = values(line, tokens, at)
            expected = math.prod(len(v.states) for v in dom)
            if len(vals) != expected:
                raise _error(line, f"utility {uname!r} needs {expected} values, found {len(vals)}", 1)
            if len(set(dom)) != len(dom):
                raise _error(line, f"utility {uname!r} repeats a variable", 1)
            utilities.append(Utility(uname, tuple(dom), table(line, f"utility {uname!r}", dom, vals)))
        else:
            raise _error(line, f"unknown directive {head!r}", 0)

    parents: dict[str, tuple[Variable, ...]] = {}
    cpts: dict[str, Table] = {}
    for v, declaration in declared.items():
        if v.is_decision:
            continue
        entry = cpt_lines.get(v.name)
        if entry is None:
            raise _error(declaration, f"missing cpt for chance variable {v.name!r}", 1)
        line, given, vals = entry
        dom = given + [v]
        if len(set(dom)) != len(dom):
            raise _error(line, f"cpt of {v.name!r} repeats a variable", 1)
        expected = math.prod(len(w.states) for w in dom)
        if len(vals) != expected:
            raise _error(line, f"cpt of {v.name!r} needs {expected} values, found {len(vals)}", 1)
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
