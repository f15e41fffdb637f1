"""Brute-force ground truth by backward induction over the exact joint.

This module deliberately avoids the table algebra and the junction tree: the
joint distribution and the total utility are assembled by raw numpy
broadcasting as dense arrays with one axis per variable in temporal order,
and one sweep from the last axis back to the first "averages out and folds
back" (Raiffa, *Decision Analysis*, 1968).  A chance axis averages the value
under its conditional given everything before it, taken from the joint with
0/0 = 0; a decision axis takes the value at its best (or given) choice.  The
value is thus the expected utility conditioned on each history, as on the
unrolled decision tree.  Small models only.

On a history of zero probability the value of every alternative is 0 when a
chance variable follows the decision, so the pick is the lowest index; when
only decisions follow, the utility decides.  Exact ties elsewhere are broken
by rounding, not by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InfluenceDiagram, Variable
from .solver import Policy


class OracleCapError(ValueError):
    """The model's state space exceeds the configured enumeration cap."""


DEFAULT_CAP = 1 << 16


def _broadcast_into(values: np.ndarray, src: list[Variable], order: list[Variable]) -> np.ndarray:
    """Reshape a (src-ordered) array so it broadcasts over the full order."""
    perm = sorted(range(len(src)), key=lambda i: order.index(src[i]))
    arr = values.transpose(perm) if perm != list(range(len(src))) else values
    shape = [len(v.states) if v in src else 1 for v in order]
    return arr.reshape(shape)


def joint_probability(diagram: InfluenceDiagram, order: list[Variable]) -> np.ndarray:
    """Product of all CPTs as one dense array with one axis per variable."""
    out = np.ones([len(v.states) for v in order])
    for v in diagram.chance_variables:
        cpt = diagram.cpts[v.name]
        src = list(cpt.domain)
        out = out * _broadcast_into(np.asarray(cpt.values), src, order)
    return out


def total_utility(diagram: InfluenceDiagram, order: list[Variable]) -> np.ndarray:
    out = np.zeros([1] * len(order))
    for u in diagram.utilities:
        src = list(u.table.domain)
        out = out + _broadcast_into(np.asarray(u.table.values), src, order)
    return np.broadcast_to(out, [len(v.states) for v in order]).copy()


@dataclass(frozen=True)
class OracleResult:
    meu: float
    # decision name -> (history variables, {history index tuple: chosen state index})
    policies: dict[str, tuple[tuple[Variable, ...], dict[tuple[int, ...], int]]]


def _sweep(diagram: InfluenceDiagram, cap: int, pick: dict[str, np.ndarray] | None = None
           ) -> tuple[float, float, dict[str, np.ndarray]]:
    """The value at the root, the total probability mass, and each decision's
    choice array over its past, by one backward sweep in temporal order.

    A decision takes ``pick[name]`` (broadcast over its past) when given, else
    its argmax.  Once a decision's future is summed out the mass is constant
    in it for a validated model, so the mass keeps its state 0.
    """
    size = math.prod(len(v.states) for v in diagram.variables)
    if size > cap:
        raise OracleCapError(f"state space {size} exceeds cap {cap}")
    order = list(diagram.index)  # temporal order: a decision's past is a prefix
    p, value = joint_probability(diagram, order), total_utility(diagram, order)
    choices = {}
    for v in reversed(order):  # the axis of v is the last one left
        if v.is_decision:
            choices[v.name] = choice = value.argmax(-1) if pick is None else pick[v.name]
            value = np.take_along_axis(value, choice[..., None], -1)[..., 0]
            p = p[..., 0]
        else:
            mass = p.sum(-1, keepdims=True)
            value = (np.divide(p, mass, out=np.zeros_like(p), where=mass > 0) * value).sum(-1)
            p = mass[..., 0]
    return float(value), float(p), choices


def brute_force(diagram: InfluenceDiagram, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact maximum expected utility and full-history optimal policies.

    A decision takes the argmax of its conditional values on each history.  On
    an impossible history (zero prefix probability, which contributes no
    utility) that is the lowest index, unless no chance variable follows the
    decision; then the utility decides.  Exact ties between possible
    alternatives are broken by rounding.
    """
    meu, mass, choices = _sweep(diagram, cap)
    if mass == 0.0:
        raise ValueError("model assigns zero probability to every outcome")
    order = list(diagram.index)
    policies = {}
    for d in diagram.decisions:
        choice = choices[d.name]
        policies[d.name] = (tuple(order[: diagram.index[d]]),
                            dict(zip(np.ndindex(choice.shape), choice.ravel().tolist())))
    return OracleResult(meu, policies)


def rollout(diagram: InfluenceDiagram, policies: list[Policy], cap: int = DEFAULT_CAP) -> float:
    """Expected utility of fixed policies, by the same backward sweep."""
    order = list(diagram.index)
    pick = {p.decision.name: _broadcast_into(np.asarray(p.choice.values), list(p.domain),
                                             order[: diagram.index[p.decision]])
            for p in policies}
    return _sweep(diagram, cap, pick)[0]
