"""Shared fixtures: the four-decision golden network and small helpers."""

from functools import cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from idjt import (Clique, EliminationOrder, MoralGraph, StrongJunctionTree, Table, add,
                  chance_var, decision_var, multiply, parse_model)
from idjt.oracle import joint_probability, total_utility
from idjt.randmodels import random_model
from idjt.tables import canonical_key

MODELS = Path(__file__).parents[1] / "models"

ORACLE_SEEDS = list(range(200))  # the seeds of ``sweep_draw`` that the oracle suites solve


@cache
def sweep_draw(seed):
    """``random_model(seed, structural_zeros=seed % 2 == 1)``, drawn once per session:
    only for tests that leave the diagram as it is."""
    return random_model(seed, structural_zeros=seed % 2 == 1)


# The golden four-decision network.  Its moral graph is pinned down exactly by
# the known clique list and fill-in list of the reference elimination
# sequence: (union of pairwise edges within the cliques) minus the fill-ins.

GOLDEN_STAGES = {
    "b": 0,
    "e": 1,
    "f": 1,
    "g": 3,
    "a": 4,
    "c": 4,
    "d": 4,
    "h": 4,
    "i": 4,
    "j": 4,
    "k": 4,
    "l": 4,
}

GOLDEN_CLIQUES = {
    1: {"b", "D1", "e", "f", "d"},
    5: {"e", "D2", "g"},
    6: {"f", "D3", "h"},
    8: {"D2", "g", "D4", "i"},
    10: {"b", "e", "d", "c"},
    11: {"b", "c", "a"},
    14: {"D3", "h", "k"},
    15: {"h", "k", "j"},
    16: {"D4", "i", "l"},
}

GOLDEN_FILLS = {
    frozenset(p)
    for p in [
        ("D2", "D4"),
        ("g", "D4"),
        ("f", "D3"),
        ("b", "e"),
        ("D1", "e"),
        ("D1", "f"),
        ("b", "f"),
        ("e", "f"),
        ("e", "D2"),
    ]
}

GOLDEN_SEQUENCE = ["l", "j", "k", "i", "h", "a", "c", "d", "D4", "g", "D3", "D2", "f", "e", "D1", "b"]

GOLDEN_PARENT_LINKS = {5: 1, 6: 1, 10: 1, 8: 5, 11: 10, 14: 6, 15: 14, 16: 8}

GOLDEN_POLICY_CLIQUES = {"D1": 1, "D2": 5, "D3": 6, "D4": 8}


def golden_variables():
    out = {}
    for name, stage in GOLDEN_STAGES.items():
        out[name] = chance_var(name, (f"{name}0", f"{name}1"), stage)
    for k in range(1, 5):
        out[f"D{k}"] = decision_var(f"D{k}", (f"D{k}a", f"D{k}b"), k)
    return out


def numbering(variables):
    """Ids for the distinct variables in canonical (rank, name) order, as a diagram numbers them."""
    return {v: i for i, v in enumerate(sorted(dict.fromkeys(variables), key=canonical_key))}


def graph_of(vertices, edges):
    """The MoralGraph over the variables with the given edges (variable pairs)."""
    index = numbering(vertices)
    adj = [0] * len(index)
    for e in edges:
        a, b = (index[v] for v in e)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return MoralGraph(index, tuple(adj))


def order_on(graph, sequence):
    """The elimination order of a sequence of the graph's vertices, numbered by the graph."""
    return EliminationOrder(tuple(graph.index[v] for v in sequence), graph.index)


def numbered(pairs, index=None):
    """Cliques from (members, clique index) pairs with their bitsets over ``index``,
    by default the ``numbering`` of their members; returns (cliques, index)."""
    pairs = [(frozenset(members), k) for members, k in pairs]
    if index is None:
        index = numbering(v for members, _ in pairs for v in members)
    return tuple(Clique(m, k, sum(1 << index[v] for v in m)) for m, k in pairs), index


def hand_tree(pairs, parent, root, index=None):
    """A StrongJunctionTree over the cliques ``numbered`` builds from the pairs."""
    cliques, index = numbered(pairs, index)
    return StrongJunctionTree(cliques, parent, root, index)


def golden_moral_graph():
    vs = golden_variables()
    union = set()
    for members in GOLDEN_CLIQUES.values():
        for a, b in combinations(sorted(members), 2):
            union.add(frozenset((vs[a], vs[b])))
    fills = {frozenset(vs[n] for n in e) for e in GOLDEN_FILLS}
    return graph_of(vs.values(), union - fills), vs


@pytest.fixture(scope="session")
def golden():
    graph, vs = golden_moral_graph()
    return graph, vs


@pytest.fixture(scope="session")
def golden_model():
    return parse_model((MODELS / "golden.idm").read_text())


@pytest.fixture(scope="session")
def tiny_model():
    return parse_model((MODELS / "tiny.idm").read_text())


def names(variables):
    return sorted(v.name for v in variables)


def edge_names(edges):
    return {tuple(sorted(v.name for v in e)) for e in edges}


def var(model, name):
    """The variable of the diagram with the given name."""
    return next(v for v in model.variables if v.name == name)


def family(model, v):
    """Parents of v followed by v itself."""
    return model.parents[v.name] + (v,)


def alpha(order):
    """The number of each variable in an elimination order: the i-th eliminated gets |U|-i+1."""
    n = len(order.sequence)
    return {v: n - i for i, v in enumerate(order.sequence)}


def global_pair(run):
    """Product of the live cliques' probability potentials and sum of their utility potentials.

    Before any absorb this is the model's joint and total utility.
    """
    phi, psi = Table.unit(), Table.null()
    for st in run.states.values():
        phi, psi = multiply(phi, st[0]), add(psi, st[1])
    return phi, psi


def id_rule_verdicts(diagram):
    """The family and utility-domain violations of ``validate`` by the rule it kept
    before it compared sets: where every variable is declared, a table is over the
    declared ids exactly when it lists their variables in id order, and only a
    table that does not runs the set test."""
    nodes, chance, out = list(diagram.index), diagram.chance_variables, []
    for v, ids in zip(chance, diagram.factor_ids):
        ps = diagram.parents.get(v.name)
        if ps is None:
            continue
        known = None not in ids
        if len(set(ids[:-1] if known else ps)) != len(ps):
            out.append(("parents", f"chance variable {v.name!r} lists a parent twice"))
        cpt = diagram.cpts.get(v.name)
        if cpt is not None and not (known and cpt.domain == tuple(map(nodes.__getitem__, sorted(ids)))) \
                and set(cpt.domain) != set(ps) | {v}:
            out.append(("cpt", f"cpt of {v.name!r} is not over its family"))
    for u, ids in zip(diagram.utilities, diagram.factor_ids[len(chance):]):
        known = None not in ids
        if len(set(ids if known else u.domain)) != len(u.domain):
            out.append(("utility", f"utility {u.name!r} repeats a variable in its domain"))
        elif not (known and u.table.domain == tuple(map(nodes.__getitem__, sorted(ids)))) \
                and set(u.table.domain) != set(u.domain):
            out.append(("utility", f"table of utility {u.name!r} is not over its domain"))
    return out


def decision_tree_values(diagram):
    """The MEU and, per decision, ``{history: (probability of the history, value of
    each alternative)}`` by direct recursion over the unrolled decision tree: the
    conditioning reference for the oracle's backward sweep over the joint.

    It walks the tree one history at a time through temporal blocks, one stage's
    chance variables (even ranks) or a single decision (odd ranks).  A stage is
    weighted by its joint conditional given the history, renormalized from the
    exact joint with 0/0 = 0; a decision takes the max of its values.
    """
    order = list(diagram.index)
    joint, util = joint_probability(diagram, order), total_utility(diagram, order)
    top = max((v.rank for v in order), default=0)
    blocks = [[] for _ in range(top + top % 2 + 1)]  # the last one an info block, empty or not
    for v in order:
        blocks[v.rank].append(v)
    tables = {d.name: {} for d in diagram.decisions}

    def mass(at, members):
        """Joint mass per configuration of ``members`` given ``at``: later chance
        variables summed out, later decisions at state 0 (rows are normalized)."""
        sub = joint[tuple(at[v] if v in at else slice(None) if v in members or not v.is_decision
                          else 0 for v in order)]
        return sub.sum(axis=tuple(range(len(members), sub.ndim)))

    def value(b, at):
        members = blocks[b]
        if b % 2:
            (d,) = members
            values = [value(b + 1, {**at, d: s}) for s in range(len(d.states))]
            history = tuple(at[v] for v in order[: diagram.index[d]])
            tables[d.name][history] = (float(mass(at, []).sum()), values)
            return max(values)
        last = b == len(blocks) - 1
        if not members:
            return float(util[tuple(at[v] for v in order)]) if last else value(b + 1, at)
        nums = mass(at, members)
        denom = float(nums.sum())
        weights = nums / denom if denom else np.zeros_like(nums)
        if last:
            return float((weights * util[tuple(at.get(v, slice(None)) for v in order)]).sum())
        return sum(float(weights[idx]) * value(b + 1, {**at, **dict(zip(members, idx))})
                   for idx in np.ndindex(*weights.shape))

    return value(0, {}), tables
