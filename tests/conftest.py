"""Shared fixtures: the four-decision golden network and small helpers."""

from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

from idjt import (Clique, EliminationOrder, MoralGraph, StrongJunctionTree, Table, add,
                  chance_var, decision_var, multiply, parse_model)
from idjt.randmodels import random_model
from idjt.tables import canonical_key

MODELS = Path(__file__).parents[1] / "models"


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
    return EliminationOrder(tuple(sequence), graph.index, tuple(graph.index[v] for v in sequence))


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
        phi, psi = multiply(phi, st.phi), add(psi, st.psi)
    return phi, psi
