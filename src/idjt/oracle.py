"""Brute-force ground truth by direct recursion over the unrolled decision tree.

This module deliberately avoids the table algebra and the junction tree: the
joint distribution is assembled by raw numpy broadcasting, conditionals come
from renormalizing the exact joint over observed prefixes (with 0/0 = 0 for
impossible histories), and the alternating max/sum recursion walks the
temporal order directly.  Small models only.
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


def _blocks(order: list[Variable]) -> list[tuple[str, list[Variable]]]:
    """Temporal blocks, one per rank from 0 up to the last stage's: the chance
    variables of one stage at an even rank, a single decision at an odd one."""
    top = max((v.rank for v in order), default=0)
    top += top % 2  # the recursion ends on an info block, empty or not
    blocks: list[tuple[str, list[Variable]]] = [
        ("decision" if r % 2 else "info", []) for r in range(top + 1)
    ]
    for v in order:
        blocks[v.rank][1].append(v)
    return blocks


class _Recursion:
    def __init__(self, diagram: InfluenceDiagram, cap: int):
        size = math.prod(len(v.states) for v in diagram.variables)
        if size > cap:
            raise OracleCapError(f"state space {size} exceeds cap {cap}")
        self.order = list(diagram.index)  # temporal order: a decision's past is a prefix
        self.joint = joint_probability(diagram, self.order)
        self.util = total_utility(diagram, self.order)
        self.blocks = _blocks(self.order)
        self.policies: dict[str, tuple[tuple[Variable, ...], dict[tuple[int, ...], int]]] = {
            d.name: (tuple(self.order[: diagram.index[d]]), {}) for d in diagram.decisions
        }
        self.chooser = None  # optional (decision, history vars, history) -> state index

    def total_mass(self) -> float:
        return float(self._mass_over({}, []).sum())

    def _mass_over(self, assignment: dict[Variable, int], members: list[Variable]) -> np.ndarray:
        """Joint mass per configuration of ``members``, given the assignment.

        Unassigned later chance variables are summed out; unassigned decisions
        are pinned to their first alternative, which cannot matter once CPT
        rows are normalized.  Everything unassigned lies after ``members`` in
        temporal order, so the member axes come out first.
        """
        sl = []
        n_keep = 0
        for v in self.order:
            if v in assignment:
                sl.append(assignment[v])
            elif v in members:
                sl.append(slice(None))
                n_keep += 1
            elif v.is_decision:
                sl.append(0)
            else:
                sl.append(slice(None))
        sub = self.joint[tuple(sl)]
        return sub.sum(axis=tuple(range(n_keep, sub.ndim)))

    def run(self) -> float:
        return self._value(0, {})

    def _value(self, block_idx: int, assignment: dict[Variable, int]) -> float:
        kind, members = self.blocks[block_idx]
        if kind == "decision":
            (d,) = members
            past, table = self.policies[d.name]
            history = tuple(assignment[v] for v in past)
            if self.chooser is not None:
                pick = self.chooser(d, past, history)
                assignment[d] = pick
                out = self._value(block_idx + 1, assignment)
                del assignment[d]
                table[history] = pick
                return out
            values = []
            for s in range(len(d.states)):
                assignment[d] = s
                values.append(self._value(block_idx + 1, assignment))
            del assignment[d]
            best = int(np.argmax(values))
            table[history] = best
            return values[best]

        last = block_idx == len(self.blocks) - 1
        if not members:
            if last:
                return float(self.util[tuple(assignment[v] for v in self.order)])
            return self._value(block_idx + 1, assignment)
        nums = self._mass_over(assignment, members)
        denom = float(nums.sum())
        weights = nums / denom if denom else np.zeros_like(nums)
        if last:
            sl = tuple(
                assignment[v] if v not in members else slice(None) for v in self.order
            )
            return float((weights * self.util[sl]).sum())
        total = 0.0
        for idx in np.ndindex(*weights.shape):
            for v, s in zip(members, idx):
                assignment[v] = s
            total += float(weights[idx]) * self._value(block_idx + 1, assignment)
        for v in members:
            del assignment[v]
        return total


def brute_force(diagram: InfluenceDiagram, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact maximum expected utility and full-history optimal policies.

    Decisions pick the lowest-index alternative on ties and on impossible
    histories (zero prefix probability, which contributes no utility).
    """
    rec = _Recursion(diagram, cap)
    if rec.total_mass() == 0.0:
        raise ValueError("model assigns zero probability to every outcome")
    value = rec.run()
    return OracleResult(value, rec.policies)


def rollout(diagram: InfluenceDiagram, policies: list[Policy], cap: int = DEFAULT_CAP) -> float:
    """Expected utility of fixed policies, by the same direct recursion."""
    rec = _Recursion(diagram, cap)
    by_name = {p.decision.name: p for p in policies}

    def choose(d: Variable, past: tuple[Variable, ...], history: tuple[int, ...]) -> int:
        pol = by_name[d.name]
        at = dict(zip(past, history))
        return pol.decide(at)

    rec.chooser = choose
    return rec.run()
