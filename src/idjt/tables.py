"""Dense potential tables over discrete variables.

A table maps each configuration of its domain to a real number.  Probability
potentials and utility potentials share the representation; only the
operations differ.  Domains are kept in canonical order, ascending by
(rank, name), so products and marginals are deterministic and results are
byte-comparable across runs.

A domain entry w is the variable v when w is v or, only where the names
agree, w == v (two distinct objects can be equal only then); ``position``
finds a variable by that rule in one scan of a domain.

Division follows the convention 0/0 = 0; x/0 for x != 0 is an error.  The
generalized marginalization ``marg_all``, the one contraction, empties the
list [phi, psi] it is given as each table is used up.  It eliminates a set of
variables one at a time in decreasing temporal rank, summing chance variables
and maximizing decisions, carrying (phi, rho = phi*psi) so the utility
component comes back by a single division; a null psi leaves rho unformed.
Each max step hands an observer phi's max ``top`` and rho's argmax.

Large tables are stored in elimination layout.  ``Table.values`` always has
canonical axes, but an operation whose result has STREAM_CELLS or more cells
stores it with the decisions first and then the chance variables latest stage
first (``_layout``), so the variable ``marg_all`` eliminates next sits on a
leading axis.  numpy's own reductions then run over whole slices, and they
keep their input's memory order, so the layout carries through an
elimination; a reduction can round differently from one of a C-ordered copy
only along an axis of 8 or more states that is innermost in one of the two
orders, where numpy keeps several accumulators.  Smaller tables, and tables a
constructor builds, are C-contiguous in canonical order.

A large contraction that starts with a chance variable v never forms phi*psi:
it adds the products of the slices phi|v=s and psi|v=s in state order.  numpy
sums an axis that is not innermost by adding whole slices onto +0.0, and each
product cell is the same multiply, so this is bit for bit the sum of the
product.  Where v is the innermost stored axis numpy sums pairwise, and the
product is formed as before.

A product, sum or quotient is one ufunc call on the operands' values when
the domains are equal or one table is a scalar, at any size, or when the
result is small; ``_stream`` splits only a large broadcast over different
domains.  Each cell goes through the same ufunc as in numpy's own
broadcast, so the results are bit for bit numpy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import Variable


STREAM_CELLS = 1 << 14  # operation results from this many cells on are stored in elimination layout
BLOCK = 64  # the fewest cells an inner loop of a streamed kernel runs over


class UndefinedDivisionError(ZeroDivisionError):
    """x/0 with x != 0: the numerator has support outside the denominator's."""


def canonical_key(v: "Variable") -> tuple[int, str]:
    """Sort key of the canonical variable order: temporal rank, then name."""
    return (v.rank, v.name)


def _canonical(domain: Iterable["Variable"]) -> tuple["Variable", ...]:
    return tuple(sorted(domain, key=canonical_key))


def _layout(domain: tuple["Variable", ...]) -> list[int]:
    """Axes of an operation's result over ``domain``, in the order its cells are stored.

    Below STREAM_CELLS cells that is canonical order.  From there on the
    decisions lead, then the chance variables follow latest stage first, the
    order ``marg_all`` eliminates them in.  Decisions lead because few
    operands span one: on the fastest axis a decision would cut each
    broadcast's inner loop down to its state count.
    """
    if math.prod(len(v.states) for v in domain) < STREAM_CELLS:
        return list(range(len(domain)))
    key = [(not v.is_decision, -v.rank, v.name) for v in domain]
    return sorted(range(len(domain)), key=key.__getitem__)


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
        domain, vals = tuple(self.domain), np.asarray(self.values)
        shape = tuple(len(v.states) for v in domain)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} does not match domain shape {shape}")
        if domain != _canonical(domain):
            raise ValueError("domain must be in canonical (rank, name) order")
        if len(set(domain)) != len(domain):
            raise ValueError("domain repeats a variable")
        vals = vals.copy(order="C")  # detach from callers; 0-d stays 0-d
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "domain", domain)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_flat(cls, domain: Sequence["Variable"], flat) -> "Table":
        """Build from values listed row-major in the *given* domain order."""
        domain = tuple(domain)
        if len(set(domain)) != len(domain):
            raise ValueError("domain repeats a variable")
        return from_unique(domain, flat)

    @classmethod
    def scalar(cls, x: float) -> "Table":
        return _fresh((), np.array(float(x)))

    @classmethod
    def unit(cls) -> "Table":
        """Multiplicative identity (the all-one function)."""
        return cls.scalar(1.0)

    @classmethod
    def null(cls) -> "Table":
        """Additive identity (the all-zero function)."""
        return cls.scalar(0.0)

    def is_null(self) -> bool:
        """Whether this is a scalar +0.0, the null (phi * -0.0 is -0.0, not +0.0); a length test first."""
        return not self.domain and self.values == 0.0 and math.copysign(1.0, self.values) > 0.0

    # -- views -------------------------------------------------------------

    def to_flat(self, order: Sequence["Variable"]) -> np.ndarray:
        """Values raveled row-major with axes in the requested variable order."""
        perm = [position(self.domain, v) for v in order]
        if set(perm) != set(range(len(self.domain))) or len(perm) != len(self.domain):
            raise ValueError("order must be a permutation of the domain")
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


def from_unique(domain: tuple["Variable", ...], flat) -> Table:
    """``Table.from_flat`` for a domain that lists each variable once, unchecked."""
    vals = np.array(flat, dtype=np.float64).reshape(tuple(len(v.states) for v in domain))
    axes = sorted(range(len(domain)), key=lambda i: canonical_key(domain[i]))
    canon, vals = tuple(domain[i] for i in axes), vals.transpose(axes)
    if vals.size >= STREAM_CELLS:  # keep C order, which _fresh keeps only for small tables
        return Table(canon, vals)
    return _fresh(canon, vals)


def _fresh(domain: tuple["Variable", ...], values) -> Table:
    """Wrap a freshly computed array, in ``_layout`` order, without the constructor's checks.

    ``from_flat`` and the operations build canonical domains and matching
    shapes, and nothing else holds the array.  A copy would double the
    allocation and the memory traffic of every operation on a multi-megabyte
    table, so the array is copied only when it is stored in another order
    than ``_layout``'s: a large ``extend``, or a small reduction of a large table.
    """
    if values.size < STREAM_CELLS:
        values = np.asarray(values, order="C")  # a numpy scalar becomes 0-d
    else:
        axes = _layout(domain)
        if not values.transpose(axes).flags.c_contiguous:
            values = np.ascontiguousarray(values.transpose(axes)).transpose(np.argsort(axes))
    t = object.__new__(Table)
    object.__setattr__(t, "domain", domain)
    object.__setattr__(t, "values", values)
    values.setflags(write=False)
    return t


def _embed(t: Table, union: tuple["Variable", ...]) -> np.ndarray | None:
    """View of t's values broadcastable over ``union``, or None if t's domain is not within it."""
    shape = [1] * len(union)
    for v in t.domain:  # both canonical, so t's axes come in union order
        if (i := position(union, v)) is None:
            return None
        shape[i] = len(v.states)
    return t.values.reshape(shape)


def _operands(t1: Table, t2: Table) -> tuple[tuple["Variable", ...], np.ndarray, np.ndarray]:
    """The canonical union of two domains and both tables' values broadcastable over it.

    Equal domains and a scalar broadcast as they are; a domain within the other is embedded in it.
    """
    d1, d2 = t1.domain, t2.domain
    if not (d1 and d2) or (len(d1) == len(d2) and d1 == d2):  # tuple == compares items first
        return d1 or d2, t1.values, t2.values
    if len(d1) > len(d2) and (b := _embed(t2, d1)) is not None:
        return d1, t1.values, b
    if len(d1) < len(d2) and (a := _embed(t1, d2)) is not None:
        return d2, a, t2.values
    union = _canonical(set(d1) | set(d2))
    return union, _embed(t1, union), _embed(t2, union)


def extend(t: Table, target: Iterable["Variable"]) -> Table:
    """Extend t to a superset domain; values ignore the extra variables.

    Kept for the tests and ``perfbench/tracing.py``, which wraps it by name.
    """
    target = _canonical(set(target))
    if (x := _embed(t, target)) is None:
        names = sorted(v.name for v in set(t.domain) - set(target))
        raise ValueError(f"target domain is missing {names}")
    shape = tuple(len(v.states) for v in target)
    return _fresh(target, np.broadcast_to(x, shape).copy())


def _over_block(x: np.ndarray, shape: tuple[int, ...], k: int) -> np.ndarray | None:
    """x as an operand whose inner loop runs over the output's trailing block ``shape[k:]``.

    x already qualifies when it spans the whole block (a contiguous run) or
    none of it (a constant).  Otherwise it is copied with the block filled
    in, unless the copy would hold more than half the output's cells: then
    None.
    """
    tail = x.shape[k:]
    if tail == shape[k:] or tail.count(1) == len(tail):
        return x
    cells = math.prod(x.shape[:k]) * math.prod(shape[k:])
    if 2 * cells > math.prod(shape):
        return None
    return np.broadcast_to(x, x.shape[:k] + shape[k:]).copy()


def _stream(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)`` broadcast to a large output as a few long ufunc calls.

    ``ufunc`` is np.add or np.multiply, so operand order does not matter; the
    axes are in the output's stored order.  numpy runs a broadcast with one
    inner loop per run of trailing axes that every operand spans alike, and
    that run is often a single 2-state axis.  Here each operand is made to span the output's
    trailing block of BLOCK or more cells (``_over_block``), and one call
    covers the output in inner loops of the whole block.  Where an operand
    cannot be, and the other has at most BLOCK cells, the call is made once
    per cell of the small operand, over the strided view of the output that
    cell applies to.  Otherwise numpy broadcasts as it is.
    """
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape)
    if out.size < STREAM_CELLS:
        return ufunc(a, b, out=out)
    k, block = len(shape), 1
    while k and block < BLOCK:
        k -= 1
        block *= shape[k]
    a_run, b_run = _over_block(a, shape, k), _over_block(b, shape, k)
    if a_run is not None and b_run is not None:
        return ufunc(a_run, b_run, out=out)
    small = min((a, b), key=lambda x: x.size)
    if small.size > BLOCK:
        return ufunc(a, b, out=out)
    big = np.broadcast_to(b if small is a else a, shape)
    for cell in np.ndindex(small.shape):
        at = tuple(i if n > 1 else slice(None) for i, n in zip(cell, small.shape))
        ufunc(big[at], small[cell], out=out[at])
    return out


def _stored(union: tuple["Variable", ...], a: np.ndarray, b: np.ndarray):
    """``_layout(union)`` and the operands a and b over ``union`` as views with their axes in that order."""
    axes = _layout(union)
    return axes, *(x.reshape(x.shape or (1,) * len(union)).transpose(axes) for x in (a, b))  # a scalar is 0-d


def _pointwise(ufunc, t1: Table, t2: Table) -> Table:
    union, a, b = _operands(t1, t2)
    if a.size * b.size < STREAM_CELLS:  # so is the output
        return _fresh(union, ufunc(a, b))
    axes, a, b = _stored(union, a, b)
    return _fresh(union, _stream(ufunc, a, b).transpose(np.argsort(axes)))


def multiply(t1: Table, t2: Table) -> Table:
    return _pointwise(np.multiply, t1, t2)


def add(t1: Table, t2: Table) -> Table:
    return _pointwise(np.add, t1, t2)


def divide(num: Table, den: Table) -> Table:
    """Pointwise quotient with 0/0 = 0; x/0 for x != 0 raises."""
    union, a, b = _operands(num, den)
    axes = None
    if a.size * b.size >= STREAM_CELLS:  # else so is the output, stored in canonical order
        axes, a, b = _stored(union, a, b)
    zero = b == 0.0
    if not zero.any():
        out = np.divide(a, b, out=np.empty(np.broadcast(a, b).shape))
    elif (zero & (a != 0.0)).any():
        raise UndefinedDivisionError("denominator is zero where numerator is not")
    else:
        out = np.divide(a, b, out=np.zeros(np.broadcast(a, b).shape), where=~zero)
    return _fresh(union, out if axes is None else out.transpose(np.argsort(axes)))


def position(domain: Sequence["Variable"], v: "Variable") -> int | None:
    """Index of v in ``domain``, or None, from one scan: an entry matches when it is v
    or, only where the names agree (two distinct objects are equal only then), equals v."""
    for i, w in enumerate(domain):
        if w is v or w.name == v.name and w == v:
            return i
    return None


def _axis_of(t: Table, v: "Variable") -> int:
    if (axis := position(t.domain, v)) is None:
        raise ValueError(f"variable {v.name!r} not in table domain")
    return axis


def _reduce(ufunc, t: Table, axis: int) -> Table:
    return _fresh(t.domain[:axis] + t.domain[axis + 1 :], ufunc.reduce(t.values, axis=axis))


def sum_out(t: Table, v: "Variable") -> Table:
    """Sum t over v; kept for the tests and ``perfbench/tracing.py``, which wraps it by name."""
    return _reduce(np.add, t, _axis_of(t, v))


def max_out(t: Table, v: "Variable") -> Table:
    """Max of t over v; kept for the tests and ``perfbench/tracing.py``, which wraps it by name."""
    return _reduce(np.maximum, t, _axis_of(t, v))


def max_and_argmax(t: Table, decision: "Variable") -> tuple[Table, Table]:
    """``max_out`` of t over ``decision`` and the index of the maximizing state, from one max.

    As in ``np.argmax``, ties resolve to the lowest state index and a NaN to
    the first NaN.  A large table counts, over whole slices, the states before
    the first one that attains the max or is NaN.
    """
    axis = _axis_of(t, decision)
    values = t.values
    domain = t.domain[:axis] + t.domain[axis + 1 :]
    top = np.maximum.reduce(values, axis=axis)
    if values.size < STREAM_CELLS:
        idx = np.asarray(values.argmax(axis=axis), dtype=np.int64)
    else:
        idx = np.zeros_like(top, dtype=np.int64)  # in top's memory order, which is _layout's
        miss = np.ones_like(top, dtype=bool)  # no state so far attains the max or is NaN
        for s in np.moveaxis(values, axis, 0)[:-1]:
            miss &= (s != top) & (s == s)
            idx += miss
    return _fresh(domain, top), _fresh(domain, idx)


def argmax_over(t: Table, decision: "Variable") -> Table:
    """Index of the maximizing state of ``decision`` per remaining configuration.

    Nothing in the package calls it; ``perfbench/tracing.py`` still wraps it by name.
    """
    return max_and_argmax(t, decision)[1]


def _marg_one(t: Table, v: "Variable", maximize: bool) -> Table:
    if (axis := position(t.domain, v)) is None:
        # As a function, a table is constant in variables outside its domain:
        # summing such a variable scales by its state count, maximizing is a no-op.
        return t if maximize else _fresh(t.domain, t.values * len(v.states))
    return _reduce(np.maximum if maximize else np.add, t, axis)


def _max_step(t: Table, v: "Variable") -> tuple[Table, Table]:
    """``max_and_argmax(t, v)``; where t lacks v every state ties: t, and state 0 over t's domain."""
    if position(t.domain, v) is None:
        return t, _fresh(t.domain, np.zeros_like(t.values, dtype=np.int64))
    return max_and_argmax(t, v)


def _first_sum(phi: Table, tables: list[Table], v: "Variable") -> Table | None:
    """phi * psi summed over chance variable v, psi = tables[0], by adding the
    products of v's slices onto +0.0 (module docstring); None, and psi left in
    ``tables``, unless the union is large and v is not its innermost stored axis."""
    if v.is_decision:
        return None
    union, a, b = _operands(phi, tables[0])
    axes, a, b = _stored(union, a, b)
    shape = [len(union[k].states) for k in axes]
    if (i := position(union, v)) is None or math.prod(shape) < STREAM_CELLS:
        return None
    j = axes.index(i)
    if math.prod(shape[j + 1 :]) < 2:  # v innermost: numpy sums it pairwise
        return None
    del tables[0]  # a and b hold psi's values until the sum is done
    a, b = np.moveaxis(a, j, 0), np.moveaxis(b, j, 0)  # an operand without v has one slice
    acc = 0.0
    for s in range(shape[j]):
        prod = _stream(np.multiply, a[s % len(a)], b[s % len(b)])
        acc = np.add(prod, acc, out=prod)
    rest = axes[:j] + axes[j + 1 :]
    return _fresh(union[:i] + union[i + 1 :], acc.transpose(np.argsort(rest)))


def marg_all(
    tables: list[Table],
    variables: Iterable["Variable"],
    on_decision: Callable[["Variable", Table, Table, Table], None] | None = None,
) -> tuple[Table, Table]:
    """Eliminate ``variables`` from ``tables`` = [phi, psi], latest stage first.

    Chance variables are summed, decisions maximized.  The list is the
    contraction's: psi is popped as rho = phi * psi is formed, each rho is
    freed before phi is reduced, and the utility component comes back as
    rho / phi, one division on the final domain.  A large rho is formed
    already summed over a first chance variable that is not its innermost
    stored axis, one product per state, so the whole product is never held;
    the bits are those of its sum (module docstring).  A null psi makes rho
    zero: rho stays None, the same loop eliminates phi alone and the null psi
    comes back, bit for bit as with a zero rho, since validated CPTs make
    phi * 0 exactly +0.

    ``on_decision`` observes (decision, phi, top, choice) at each max step:
    phi before the step, ``top`` its max over the decision (phi itself if it
    lacks the decision), and the index of the state maximizing rho, from the
    same max that replaces rho; state 0 where rho lacks the decision or is
    zero (``_max_step``).  Solvers use it to check that phi is constant in
    the decision and to record the optimal choice.

    Within a stage all variables are chance, and their order affects the
    result only through floating-point rounding; ties break by name so the
    result does not depend on set iteration order.  Two decisions can never
    share a rank in a valid model.
    """
    phi = tables.pop(0)
    order = sorted(variables, key=lambda v: (-v.rank, v.name))
    if not order:
        return phi, tables.pop()
    ranks = [v.rank for v in order if v.is_decision]
    if len(ranks) != len(set(ranks)):
        raise ValueError("two decisions share a temporal rank")

    rho = None
    if not tables[0].is_null():
        small = phi.values.size * tables[0].values.size < STREAM_CELLS  # so is rho: no domain work
        if small or (rho := _first_sum(phi, tables, order[0])) is None:
            rho = multiply(phi, tables.pop())
        else:
            phi, order = _marg_one(phi, order[0], maximize=False), order[1:]
    for v in order:
        maximize = v.is_decision
        if rho is not None:  # rho's step first, so the old rho is freed before phi is reduced
            rho, choice = _max_step(rho, v) if maximize else (_marg_one(rho, v, maximize), None)
        top = _marg_one(phi, v, maximize)
        if maximize:
            if rho is None:  # rho is zero, so every state ties
                choice = _max_step(top, v)[1]
            if on_decision is not None:
                on_decision(v, phi, top, choice)
        phi = top
    return phi, tables.pop() if rho is None else divide(rho, phi)
