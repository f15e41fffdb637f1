"""Seeded random model generator for the oracle-equivalence suites.

Defaults: 3-8 variables, 1-3 decisions, 2-3 states each.  Arc sets are drawn
over a random causal order (so observation order and causal order can
disagree), CPT rows are sampled positive and normalized, utilities take
values in [-10, 10].  ``structural_zeros`` knocks random CPT entries to zero
to exercise the 0/0 paths.  Every returned model passes validation.  A draw
is made as plain numbers first; one where a decision reaches a chance variable
observed before it is rejected on that structure and redrawn before any table
is built.  Kept or not, a draw makes the same RNG calls in the same order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import InfluenceDiagram, Utility, Variable, validate
from .tables import Table, canonical_key


class Draw(NamedTuple):
    """One draw on variable ids: decisions D1.. are 0..n_dec-1, then x0, x1, ..."""

    n_dec: int
    ranks: list[int]  # 2k-1 for D_k, 2s for a chance variable of stage s
    cards: list[int]
    parents: dict[int, tuple[int, ...]]  # chance id -> parent ids, in causal order
    cpts: dict[int, np.ndarray]  # chance id -> rows over its states, not yet normalized
    utilities: list[tuple[tuple[int, ...], np.ndarray]]  # (domain ids, values)


def random_model(seed: int, max_variables: int = 8, max_decisions: int = 3, max_states: int = 3,
                 structural_zeros: bool = False) -> InfluenceDiagram:
    rng = np.random.default_rng(seed)
    for _ in range(200):
        draw = _draw(rng, max_variables, max_decisions, max_states, structural_zeros)
        if not _leaks(draw) and not validate(diagram := _build(draw)):
            return diagram
    raise RuntimeError(f"could not draw a valid model for seed {seed}")


def _draw(rng, max_variables, max_decisions, max_states, structural_zeros) -> Draw:
    n_total = int(rng.integers(3, max_variables + 1))
    n_dec = int(rng.integers(1, min(max_decisions, n_total - 1) + 1))
    ranks = [2 * k - 1 for k in range(1, n_dec + 1)]
    cards = [int(rng.integers(2, max_states + 1)) for _ in ranks]
    for _ in range(n_total - n_dec):
        ranks.append(2 * int(rng.integers(0, n_dec + 1)))
        cards.append(int(rng.integers(2, max_states + 1)))

    # causal order: decisions anywhere before their earliest possible child,
    # chance variables shuffled independently of observation stage
    causal = list(range(n_dec, n_total))
    rng.shuffle(causal)
    parents: dict[int, tuple[int, ...]] = {}
    for pos, v in enumerate(causal):
        pool = causal[:pos] + list(range(n_dec))
        k = int(rng.integers(0, min(2, len(pool)) + 1))
        ps = list(rng.choice(len(pool), size=k, replace=False)) if k else []
        parents[v] = tuple(pool[i] for i in sorted(ps))

    cpts = {}
    for v in range(n_dec, n_total):
        cells = math.prod(cards[w] for w in parents[v]) * cards[v]
        vals = rng.uniform(0.05, 1.0, size=cells).reshape(-1, cards[v])
        if structural_zeros:
            mask = rng.random(vals.shape) < 0.35
            keep = rng.integers(0, vals.shape[1], size=vals.shape[0])
            mask[np.arange(vals.shape[0]), keep] = False  # keep one live entry per row
            vals = np.where(mask, 0.0, vals)
        cpts[v] = vals

    utilities = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, min(2, n_total) + 1))
        dom = tuple(int(i) for i in sorted(rng.choice(n_total, size=k, replace=False)))
        utilities.append((dom, rng.uniform(-10.0, 10.0, size=math.prod(cards[w] for w in dom))))
    return Draw(n_dec, ranks, cards, parents, cpts, utilities)


def _leaks(draw: Draw) -> bool:
    """Whether a decision reaches, along arcs, a chance variable observed before it.

    Bit k of ``reach[v]`` is set when D_{k+1} is v or reaches it; a variable
    of stage s is observed before D_{s+1}.., so a bit from s up is a leak.
    """
    reach = [1 << k for k in range(draw.n_dec)] + [0] * len(draw.parents)
    for v, ps in draw.parents.items():  # causal order: parents come first
        for p in ps:
            reach[v] |= reach[p]
        if reach[v] >> draw.ranks[v] // 2:
            return True
    return False


def _build(draw: Draw) -> InfluenceDiagram:
    """The diagram of a draw, with every CPT row normalized."""
    n = draw.n_dec
    var = [Variable(f"D{v + 1}", tuple(f"d{v + 1}_{s}" for s in range(c)), r) if v < n
           else Variable(f"x{v - n}", tuple(f"s{s}" for s in range(c)), r)
           for v, (r, c) in enumerate(zip(draw.ranks, draw.cards))]
    parents = {var[v].name: tuple(var[p] for p in ps) for v, ps in draw.parents.items()}
    cpts = {}
    for v, vals in draw.cpts.items():
        rows = vals / vals.sum(axis=1, keepdims=True)
        cpts[var[v].name] = Table.from_flat([*parents[var[v].name], var[v]], rows.reshape(-1))
    utilities = []
    for j, (ids, values) in enumerate(draw.utilities):
        dom = tuple(var[w] for w in ids)
        utilities.append(Utility(f"u{j}", dom, Table.from_flat(dom, values)))
    return InfluenceDiagram(tuple(sorted(var, key=canonical_key)), parents, cpts, tuple(utilities))
