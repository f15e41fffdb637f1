"""Dense potential tables over discrete variables.

A table maps each configuration of its domain to a real number.  Probability
potentials and utility potentials share the representation; only the
operations differ.  Domains are kept in canonical order, ascending by
(rank, name), so products and marginals are deterministic and results are
byte-comparable across runs.

Division follows the convention 0/0 = 0; x/0 for x != 0 is an error.  The
generalized marginalization ``marg_all`` eliminates a set of variables one at
a time in decreasing temporal rank, summing out chance variables and
maximizing out decisions, carrying the pair (phi, phi*psi) so the utility
component can be recovered by a single division at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import Variable


class UndefinedDivisionError(ZeroDivisionError):
    """x/0 with x != 0: the numerator has support outside the denominator's."""


def _canon_key(v):
    return (v.rank, v.name)


def _canonical(domain: Iterable["Variable"]) -> tuple["Variable", ...]:
    return tuple(sorted(domain, key=_canon_key))


@dataclass(frozen=True, eq=False)
class Table:
    """Real-valued function on the state space of an ordered variable set.

    ``values`` has one axis per domain variable, in domain order; a flat dump
    in row-major order therefore has the last domain variable varying fastest.
    A scalar table has an empty domain and a single cell.
    """

    domain: tuple["Variable", ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        shape = tuple(len(v.states) for v in self.domain)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} does not match domain shape {shape}")
        if self.domain != _canonical(self.domain):
            raise ValueError("domain must be in canonical (rank, name) order")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain repeats a variable")
        vals = vals.copy(order="C")  # detach from callers; 0-d stays 0-d
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "domain", tuple(self.domain))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_flat(cls, domain: Sequence["Variable"], flat) -> "Table":
        """Build from values listed row-major in the *given* domain order."""
        domain = tuple(domain)
        shape = tuple(len(v.states) for v in domain)
        vals = np.asarray(list(flat), dtype=np.float64).reshape(shape)
        canon = _canonical(domain)
        if canon != domain:
            perm = [domain.index(v) for v in canon]
            vals = vals.transpose(perm)
        return cls(canon, vals)

    @classmethod
    def scalar(cls, x: float) -> "Table":
        return cls((), np.asarray(float(x)))

    @classmethod
    def unit(cls) -> "Table":
        """Multiplicative identity (the all-one function)."""
        return cls.scalar(1.0)

    @classmethod
    def null(cls) -> "Table":
        """Additive identity (the all-zero function)."""
        return cls.scalar(0.0)

    # -- views -------------------------------------------------------------

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def to_flat(self, order: Sequence["Variable"]) -> np.ndarray:
        """Values raveled row-major with axes in the requested variable order."""
        order = tuple(order)
        if set(order) != set(self.domain) or len(order) != len(self.domain):
            raise ValueError("order must be a permutation of the domain")
        perm = [self.domain.index(v) for v in order]
        return self.values.transpose(perm).reshape(-1)

    def equals(self, other: "Table", rtol: float = 0.0, atol: float = 0.0) -> bool:
        if set(self.domain) != set(other.domain):
            return False
        if rtol == 0.0 and atol == 0.0:
            return bool(np.array_equal(self.values, other.values))
        return bool(np.allclose(self.values, other.values, rtol=rtol, atol=atol))

    def __repr__(self):
        names = ",".join(v.name for v in self.domain)
        return f"Table({names}; {self.values.tolist()!r})"

    def __mul__(self, other):
        return multiply(self, other)

    def __add__(self, other):
        return add(self, other)


def _fresh(domain: tuple["Variable", ...], values) -> Table:
    """Wrap an array an operation below just computed, without the constructor's copy.

    The operations build canonical domains and matching shapes, and nothing
    else holds the array; a copy would double the allocation and the memory
    traffic of every operation on a multi-megabyte table.
    """
    t = object.__new__(Table)
    object.__setattr__(t, "domain", domain)
    object.__setattr__(t, "values", np.asarray(values, order="C"))  # a numpy scalar becomes 0-d
    t.values.setflags(write=False)
    return t


def _embed(t: Table, union: tuple["Variable", ...]) -> np.ndarray:
    """View of t's values broadcastable over the union domain (canonical)."""
    shape = tuple(len(v.states) if v in t.domain else 1 for v in union)
    return t.values.reshape(shape)


def _union_domain(t1: Table, t2: Table) -> tuple["Variable", ...]:
    return _canonical(set(t1.domain) | set(t2.domain))


def extend(t: Table, target: Iterable["Variable"]) -> Table:
    """Extend t to a superset domain; values ignore the extra variables."""
    target = _canonical(set(target))
    missing = set(t.domain) - set(target)
    if missing:
        names = sorted(v.name for v in missing)
        raise ValueError(f"target domain is missing {names}")
    shape = tuple(len(v.states) for v in target)
    return _fresh(target, np.broadcast_to(_embed(t, target), shape).copy())


def multiply(t1: Table, t2: Table) -> Table:
    union = _union_domain(t1, t2)
    return _fresh(union, _embed(t1, union) * _embed(t2, union))


def add(t1: Table, t2: Table) -> Table:
    union = _union_domain(t1, t2)
    return _fresh(union, _embed(t1, union) + _embed(t2, union))


def divide(num: Table, den: Table) -> Table:
    """Pointwise quotient with 0/0 = 0; x/0 for x != 0 raises."""
    union = _union_domain(num, den)
    a = np.broadcast_to(_embed(num, union), tuple(len(v.states) for v in union))
    b = np.broadcast_to(_embed(den, union), a.shape)
    zero = b == 0.0
    if np.any(zero & (a != 0.0)):
        raise UndefinedDivisionError("denominator is zero where numerator is not")
    out = np.zeros(a.shape)
    np.divide(a, b, out=out, where=~zero)
    return _fresh(union, out)


def _axis_of(t: Table, v: "Variable") -> int:
    try:
        return t.domain.index(v)
    except ValueError:
        raise ValueError(f"variable {v.name!r} not in table domain") from None


def sum_out(t: Table, v: "Variable") -> Table:
    axis = _axis_of(t, v)
    return _fresh(t.domain[:axis] + t.domain[axis + 1 :], t.values.sum(axis=axis))


def max_out(t: Table, v: "Variable") -> Table:
    axis = _axis_of(t, v)
    return _fresh(t.domain[:axis] + t.domain[axis + 1 :], t.values.max(axis=axis))


def argmax_over(t: Table, decision: "Variable") -> Table:
    """Index of the maximizing state of ``decision`` per remaining configuration.

    Ties resolve to the lowest state index.
    """
    axis = _axis_of(t, decision)
    idx = np.argmax(t.values, axis=axis)
    return _fresh(t.domain[:axis] + t.domain[axis + 1 :], np.asarray(idx, dtype=np.int64))


def _marg_one(t: Table, v: "Variable", maximize: bool) -> Table:
    # As a function, a table is constant in variables outside its domain:
    # summing such a variable scales by its state count, maximizing is a no-op.
    if v in t.domain:
        return max_out(t, v) if maximize else sum_out(t, v)
    if maximize:
        return t
    return _fresh(t.domain, t.values * len(v.states))


def marg_all(
    phi: Table,
    psi: Table,
    variables: Iterable["Variable"],
    on_decision: Callable[["Variable", Table, Table], None] | None = None,
) -> tuple[Table, Table]:
    """Eliminate ``variables`` from the pair (phi, psi), latest stage first.

    Chance variables are summed, decisions maximized.  The computation keeps
    (phi, rho) with rho = phi * psi and recovers the utility component as
    rho / phi at the end, so a single division happens on the final domain.
    ``on_decision`` observes (decision, phi, rho) right before each max step;
    solvers use it to check that phi is constant in the decision and to record
    the optimal choice.

    Within a stage all variables are chance, and their order affects the
    result only through floating-point rounding; ties break by name so the
    result does not depend on set iteration order.  Two decisions can never
    share a rank in a valid model.
    """
    order = sorted(variables, key=lambda v: (-v.rank, v.name))
    if not order:
        return phi, psi
    ranks = [v.rank for v in order if v.is_decision]
    if len(ranks) != len(set(ranks)):
        raise ValueError("two decisions share a temporal rank")

    rho = multiply(phi, psi)
    for v in order:
        if v.is_decision and on_decision is not None:
            on_decision(v, phi, rho)
        phi = _marg_one(phi, v, maximize=v.is_decision)
        rho = _marg_one(rho, v, maximize=v.is_decision)
    return phi, divide(rho, phi)
