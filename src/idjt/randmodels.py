"""Seeded random model generator for the oracle-equivalence suites.

Defaults: 3-8 variables, 1-3 decisions, 2-3 states each.  Arc sets are drawn
over a random causal order (so observation order and causal order can
disagree), CPT rows are sampled positive and normalized, utilities take
values in [-10, 10].  ``structural_zeros`` knocks random CPT entries to zero
to exercise the 0/0 paths.  Every returned model passes validation; invalid
draws (possible when a decision would leak into its past) are rejected and
redrawn.
"""

from __future__ import annotations

import numpy as np

from .model import (
    InfluenceDiagram,
    Utility,
    Variable,
    chance_var,
    decision_var,
    validate,
)
from .tables import Table, canonical_key


def random_model(
    seed: int,
    max_variables: int = 8,
    max_decisions: int = 3,
    max_states: int = 3,
    structural_zeros: bool = False,
) -> InfluenceDiagram:
    rng = np.random.default_rng(seed)
    for attempt in range(200):
        diagram = _draw(rng, max_variables, max_decisions, max_states, structural_zeros)
        if not validate(diagram):
            return diagram
    raise RuntimeError(f"could not draw a valid model for seed {seed}")


def _draw(rng, max_variables, max_decisions, max_states, structural_zeros) -> InfluenceDiagram:
    n_total = int(rng.integers(3, max_variables + 1))
    n_dec = int(rng.integers(1, min(max_decisions, n_total - 1) + 1))
    n_chance = n_total - n_dec

    decisions = [
        decision_var(f"D{k}", [f"d{k}_{s}" for s in range(_card(rng, max_states))], k)
        for k in range(1, n_dec + 1)
    ]
    chance = []
    for i in range(n_chance):
        stage = int(rng.integers(0, n_dec + 1))
        chance.append(
            chance_var(f"x{i}", [f"s{s}" for s in range(_card(rng, max_states))], stage)
        )

    # causal order: decisions anywhere before their earliest possible child,
    # chance variables shuffled independently of observation stage
    causal = list(chance)
    rng.shuffle(causal)
    parents: dict[str, tuple[Variable, ...]] = {}
    for pos, v in enumerate(causal):
        pool = causal[:pos] + decisions
        k = int(rng.integers(0, min(2, len(pool)) + 1))
        ps = list(rng.choice(len(pool), size=k, replace=False)) if k else []
        parents[v.name] = tuple(pool[i] for i in sorted(ps))

    cpts = {}
    for v in chance:
        dom = list(parents[v.name]) + [v]
        cells = int(np.prod([len(w.states) for w in dom]))
        vals = rng.uniform(0.05, 1.0, size=cells).reshape(-1, len(v.states))
        if structural_zeros:
            mask = rng.random(vals.shape) < 0.35
            keep = rng.integers(0, vals.shape[1], size=vals.shape[0])
            mask[np.arange(vals.shape[0]), keep] = False  # keep one live entry per row
            vals = np.where(mask, 0.0, vals)
        vals = vals / vals.sum(axis=1, keepdims=True)
        cpts[v.name] = Table.from_flat(dom, vals.reshape(-1))

    everything = decisions + chance
    utilities = []
    for j in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, min(2, len(everything)) + 1))
        ps = rng.choice(len(everything), size=k, replace=False)
        dom = tuple(everything[i] for i in sorted(ps))
        cells = int(np.prod([len(w.states) for w in dom]))
        utilities.append(
            Utility(f"u{j}", dom, Table.from_flat(dom, rng.uniform(-10.0, 10.0, size=cells)))
        )

    variables = tuple(sorted(everything, key=canonical_key))
    return InfluenceDiagram(variables, parents, cpts, tuple(utilities))


def _card(rng, max_states: int) -> int:
    return int(rng.integers(2, max_states + 1))
