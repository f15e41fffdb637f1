"""Evaluation on the strong junction tree: collect, MEU, optimal policies.

Each clique carries a probability potential and a utility potential, as the
list ``[phi, psi]``.  After initialization the product of all probability
potentials is the joint distribution and the sum of all utility potentials is
the total utility.  Absorbing a leaf retires it, hands its list to
``marg_all`` (which frees each table once used up) to contract it over the
variables outside the separator and folds the result into its parent;
running absorptions from the highest clique index down to the root leaves the
root as the only live clique, holding the contraction of the whole model,
from which a final contraction yields the maximum expected utility.  A clique
with no utility below it keeps the null utility potential and sends a null
utility message, which is not added.

Every max step over a decision happens exactly once, in the clique nearest
the root that contains the decision.  The probability component must be
constant in the decision there (a model/compiler invariant that is checked),
so the optimal choice is the argmax of the utility contraction, taken at the
moment the step runs; only that integer policy table outlives the step, in
the ``Policy`` that names the clique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compiler import StrongJunctionTree
from .model import InfluenceDiagram, Utility, Variable
from .tables import Table, add, marg_all, multiply, position

CONSTANCY_TOL = 1e-9
ROOT_MASS_TOL = 1e-9


class InvariantError(Exception):
    """A propagation invariant failed; the model or compilation is unsound."""


@dataclass(frozen=True)
class Policy:
    """Optimal choice of one decision per configuration of its requisite past."""

    decision: Variable
    choice: Table  # integer state indices over ``domain``
    clique: int  # the clique whose contraction took the decision's max step

    @property
    def domain(self) -> tuple[Variable, ...]:
        return self.choice.domain

    def decide(self, assignment: dict[Variable, int]) -> int:
        idx = tuple(assignment[v] for v in self.domain)
        return int(self.choice.values[idx])


@dataclass(frozen=True)
class SolveResult:
    meu: float
    policies: tuple[Policy, ...]

    @property
    def policy_clique(self) -> dict[str, int]:
        return {p.decision.name: p.clique for p in self.policies}


@dataclass
class SolveRun:
    """Mutable state of one collect/extract pass over an initialized tree.

    ``states`` holds the potentials of the live cliques only, each clique's as
    the list ``[phi, psi]`` that ``marg_all`` takes: a contraction removes its
    clique's entry, so a clique is live exactly when it has potentials.  Their
    domains stay as small as the assigned factors allow; both are read as
    functions on the full clique state space (constant in missing members).
    ``max_steps`` maps each decision maximized so far to the policy taken
    there, which names the clique.
    """

    tree: StrongJunctionTree
    diagram: InfluenceDiagram
    states: dict[int, list[Table]]
    max_steps: dict[Variable, Policy] = field(default_factory=dict)
    root_scalar: tuple[float, float] | None = None
    constancy_worst: float = 0.0  # largest constancy spread seen at any max step


def initialize(tree: StrongJunctionTree, diagram: InfluenceDiagram) -> SolveRun:
    """Assign each CPT and utility to the lowest-index clique covering it.

    Unassigned cliques keep the unit probability / null utility potentials,
    so globally the tree still represents the model's joint and total utility.
    The tree must be numbered by the diagram's ids, as a compiled one is.
    """
    if tree.index is not diagram.index:
        raise InvariantError("the tree is not numbered by the diagram's ids")
    unit, null = Table.unit(), Table.null()  # immutable, so every clique shares them
    states = {c.index: [unit, null] for c in tree.cliques}
    factors = [*diagram.chance_variables, *diagram.utilities]
    for f, ids in zip(factors, diagram.factor_ids):
        utility = isinstance(f, Utility)
        table = f.table if utility else diagram.cpts[f.name]
        if (host := tree.lowest_holder(ids)) is None:
            what = "domain of utility" if utility else "family of"
            names = sorted(v.name for v in table.domain)
            raise InvariantError(f"no clique contains the {what} {f.name!r} {names}")
        st = states[host.index]
        if utility:
            st[1] = add(st[1], table)
        else:
            st[0] = multiply(st[0], table)
    return SolveRun(tree, diagram, states)


def _constancy_spread(phi: Table, decision: Variable, top: Table) -> float:
    """Largest relative spread of phi across the decision's states; 0 if absent.
    ``top``, phi's max over the decision, comes from the contraction's own max step."""
    if (axis := position(phi.domain, decision)) is None:
        return 0.0
    hi, lo = top.values, np.minimum.reduce(phi.values, axis=axis)
    if (lo < 0).any():
        raise InvariantError(
            f"probability potential is negative at the max step over {decision.name!r}"
        )
    spread = np.divide(hi - lo, hi, out=np.zeros(hi.shape), where=hi > 0)
    return float(spread.max()) if spread.size else 0.0


def _recorder(run: SolveRun, clique_index: int):
    def on_decision(decision: Variable, phi: Table, top: Table, choice: Table):
        if decision in run.max_steps:
            raise InvariantError(f"decision {decision.name!r} max-marginalized twice")
        worst = _constancy_spread(phi, decision, top)
        run.constancy_worst = max(run.constancy_worst, worst)
        if worst > CONSTANCY_TOL:
            raise InvariantError(
                f"probability potential is not a non-negative constant in decision "
                f"{decision.name!r} at its max step (relative spread {worst:.3e})"
            )
        if any(v.rank >= decision.rank for v in choice.domain):
            raise InvariantError(f"policy domain of {decision.name!r} reaches into its future")
        run.max_steps[decision] = Policy(decision, choice, clique_index)

    return on_decision


def _contract(run: SolveRun, clique_index: int, keep: frozenset[Variable]):
    members = run.tree.clique(clique_index).members
    return marg_all(run.states.pop(clique_index), members - keep, _recorder(run, clique_index))


def absorb(run: SolveRun, child_index: int) -> None:
    """Contract a leaf clique onto its separator, fold it into the parent, release it.

    The utility message arrives already divided by the probability message
    (with 0/0 = 0), so the parent update is a multiply and an add.  Wherever
    the probability message is zero the utility message must be zero too;
    nonzero utility on zero support means the model's joint cannot carry it.
    The child leaves ``run.states`` as its contraction starts.  Skipping a null
    utility message changes no bit: each psi is a sum whose first operand is
    the +0.0 null, so holds no -0.0, and x + 0.0 is x for every other x.
    """
    if child_index == run.tree.root:
        raise InvariantError(f"clique {child_index} is the root: meu contracts it, not absorb")
    if child_index not in run.tree.parent:
        raise InvariantError(f"{child_index} is not a clique of the tree")
    if child_index not in run.states:
        raise InvariantError(f"clique {child_index} already absorbed")
    if any(k in run.states for k in run.tree.children(child_index)):
        raise InvariantError(f"clique {child_index} still has live children")
    phi_s, psi_s = _contract(run, child_index, run.tree.separator(child_index))
    parent = run.states[run.tree.parent[child_index]]
    parent[0] = multiply(parent[0], phi_s)
    parent[1] = parent[1] if psi_s.is_null() else add(parent[1], psi_s)


def collect(run: SolveRun) -> SolveRun:
    """Absorb every clique into its parent, highest index first (leaf first)."""
    for c in sorted(run.tree.cliques, key=lambda c: -c.index):
        if c.index != run.tree.root:
            absorb(run, c.index)
    return run


def meu(run: SolveRun) -> float:
    """Contract the collected root to scalars and return the expected utility.

    The probability scalar must come out 1 (the joint sums to one for any
    decision policy); the utility scalar is the maximum expected utility and
    must be finite (large finite utilities can overflow along the way).
    """
    if run.root_scalar is None:
        if run.states.keys() != {run.tree.root}:
            raise InvariantError("collect must retire every non-root clique before meu")
        phi0, psi0 = _contract(run, run.tree.root, frozenset())
        mass = float(phi0.values)
        if mass == 0.0:
            raise InvariantError("model has zero total probability mass")
        if not abs(mass - 1.0) <= ROOT_MASS_TOL:  # NaN fails too
            raise InvariantError(f"root probability mass {mass!r} differs from 1")
        value = float(psi0.values)
        if not math.isfinite(value):
            raise InvariantError(f"expected utility {value!r} is not finite")
        run.root_scalar = (mass, value)
    return run.root_scalar[1]


def extract_policies(run: SolveRun) -> SolveResult:
    """Collect the policies recorded at the max steps, in decision order.

    Each was taken when its decision was maximized: the probability
    component is constant in the decision there and everything already
    absorbed is independent of it, so the argmax of the utility contraction
    is optimal, and the remaining table variables all precede the decision.
    """
    value = meu(run)
    for d in run.diagram.decisions:
        if d not in run.max_steps:
            raise InvariantError(f"decision {d.name!r} was never max-marginalized")
    return SolveResult(value, tuple(run.max_steps[d] for d in run.diagram.decisions))


def solve(tree: StrongJunctionTree, diagram: InfluenceDiagram) -> SolveResult:
    """Initialize, collect, and extract in one go."""
    run = collect(initialize(tree, diagram))
    return extract_policies(run)
