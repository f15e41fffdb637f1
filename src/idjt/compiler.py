"""Compilation of an influence diagram into a strong junction tree.

The pipeline: moralize the diagram, pick an elimination order whose reverse
extends the temporal order to a total order (eliminating the vertices of
each ``Variable.rank`` together, highest rank first), triangulate by simulated
elimination, read off the maximal cliques with their indices, and attach each
clique to the lowest-index clique containing its separator.  The resulting
rooted tree lets sum- and max-marginalizations interleave soundly during the
collect pass: on every edge the separator temporally precedes the rest of the
child clique.

Ordering, triangulation and clique extraction number a graph's vertices
0..n-1 once, in canonical (rank, name) order, and hold each neighbourhood
N(v) as one ``int`` bitset, so no set operation calls ``Variable.__hash__``.
The fill count of v is half the sum over a in N(v) of
``(N(v) & ~N(a) & ~bit(a)).bit_count()``, and eliminating v ORs into each
neighbour the bits of N(v) it lacked.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, groupby
from typing import Iterable, Iterator, Literal, Sequence, get_args

from .model import InfluenceDiagram, Variable, Violation
from .tables import canonical_key


class CompileError(Exception):
    """Internal compilation invariant failed (bad order or clique indexing)."""


class OrderError(ValueError):
    """A supplied elimination sequence is unusable."""


Heuristic = Literal["min-fill", "min-weight"]


def _members(mask: int) -> Iterator[int]:
    """The ids in a bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class MoralGraph:
    """Undirected graph over all variables; adjacency is symmetric, no loops."""

    vertices: tuple[Variable, ...]
    edges: frozenset[frozenset[Variable]]

    @cached_property
    def _bits(self) -> tuple[tuple[Variable, ...], dict[Variable, int], tuple[int, ...]]:
        """(vs, ids, adj): vertex i is vs[i], ids inverts vs, adj[i] is N(i) as a bitset."""
        vs = tuple(sorted(self.vertices, key=canonical_key))
        ids = {v: i for i, v in enumerate(vs)}
        adj = [0] * len(vs)
        for e in self.edges:
            a, b = map(ids.__getitem__, e)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return vs, ids, tuple(adj)


def moralize(diagram: InfluenceDiagram) -> MoralGraph:
    """Drop arc directions, marry parents, and complete each utility domain.

    Temporal (information) links into decisions are not part of the graph;
    only genuine arcs and the completions above contribute edges.
    """
    completed = [diagram.family(v) for v in diagram.chance_variables]  # arcs, married parents
    completed += [u.domain for u in diagram.utilities]
    edges = {frozenset(e) for c in completed for e in combinations(c, 2)}
    if any(len(e) == 1 for e in edges):
        u = next(a for c in completed for a, b in combinations(c, 2) if a == b)
        raise ValueError(f"self loop at {u.name!r}")
    return MoralGraph(tuple(diagram.variables), frozenset(edges))


@dataclass(frozen=True)
class EliminationOrder:
    """A stage-respecting elimination sequence with its vertex numbering.

    The i-th eliminated vertex (1-based) is numbered |U|-i+1, so the sequence
    runs from the highest number down to 1 and its reverse is a total order
    extending temporal precedence.
    """

    sequence: tuple[Variable, ...]

    def __post_init__(self):
        if len(set(self.sequence)) != len(self.sequence):
            raise OrderError("sequence repeats a variable")
        for a, b in zip(self.sequence, self.sequence[1:]):
            if a.rank < b.rank:
                raise OrderError(
                    f"stage constraint violated: {a.name!r} cannot be eliminated "
                    f"before {b.name!r}"
                )

    @property
    def alpha(self) -> dict[Variable, int]:
        n = len(self.sequence)
        return {v: n - i for i, v in enumerate(self.sequence)}


def _eliminate(adj: list[int], v: int) -> list[tuple[int, int]]:
    """Complete N(v) and remove v; returns (a, N(v) \\ N(a) \\ {a}) where that is not empty."""
    nv, bit = adj[v], 1 << v
    gained = []
    for a in _members(nv):
        missing = (nv ^ 1 << a) & ~adj[a]
        if missing:
            gained.append((a, missing))
        adj[a] = (adj[a] | missing) ^ bit
    adj[v] = 0
    return gained


def _score(adj: list[int], sizes: list[int], v: int) -> tuple[int, int]:
    """Fill count and clique weight of eliminating v next (see ``strong_elimination_order``)."""
    nv = adj[v]
    d = nv.bit_count()
    shared, weight = 0, sizes[v]
    for a in _members(nv):
        shared += (nv & adj[a]).bit_count()
        weight *= sizes[a]
    return (d * (d - 1) - shared) // 2, weight


def strong_elimination_order(graph: MoralGraph, heuristic: Heuristic = "min-fill",
                             given: Sequence[Variable] | None = None) -> EliminationOrder:
    """Choose an elimination order blocked by rank, highest rank first.

    The vertices sharing one rank form a temporal block: the chance variables
    of one observation stage, or a single decision.  Within a block the
    heuristic greedily picks the next vertex on the evolving (partially
    eliminated, fill-completed) graph, ranking candidates by (fill count,
    clique weight, name) under min-fill and by (clique weight, fill count,
    name) under min-weight.  A ``given`` sequence bypasses the heuristic but
    is still checked against the stage constraint.

    The greedy runs on vertex ids and bitsets.  With d = |N(v)|, the fill
    count of the module docstring equals (d(d-1) - sum over a in N(v) of
    |N(v) & N(a)|) / 2, which is how ``_score`` counts it.  Each block member
    is scored once and kept in a heap.  Eliminating v changes only the scores
    of v's neighbours and of the common neighbours of each fill edge, so only
    those are rescored; stale heap entries are skipped.
    """
    if heuristic not in get_args(Heuristic):
        raise OrderError(f"unknown heuristic {heuristic!r}")
    if given is not None:
        if set(given) != set(graph.vertices):
            raise OrderError("given sequence is not a permutation of the variables")
        return EliminationOrder(tuple(given))

    vs, _, adj0 = graph._bits
    adj, sizes = list(adj0), [len(v.states) for v in vs]
    keys: list[tuple[int, int, str] | None] = [None] * len(vs)

    def push(heap: list, w: int) -> None:
        fill, weight = _score(adj, sizes, w)
        keys[w] = (weight, fill, vs[w].name) if heuristic == "min-weight" else (fill, weight, vs[w].name)
        heapq.heappush(heap, (keys[w], w))

    sequence: list[int] = []
    for _, block in groupby(range(len(vs) - 1, -1, -1), key=lambda i: vs[i].rank):
        heap, left = [], 0
        for w in block:
            push(heap, w)
            left |= 1 << w
        while left:
            key, v = heapq.heappop(heap)
            if keys[v] != key:
                continue
            keys[v] = None
            left ^= 1 << v
            sequence.append(v)
            touched = adj[v]
            for a, missing in _eliminate(adj, v):
                common = 0
                for b in _members(missing):
                    common |= adj[b]
                touched |= adj[a] & common
            for w in _members(touched & left):
                push(heap, w)
    return EliminationOrder(tuple(vs[i] for i in sequence))


def triangulate(graph: MoralGraph,
                order: EliminationOrder) -> tuple[MoralGraph, list[frozenset[Variable]]]:
    """Simulate elimination, returning the filled graph and the fill-ins added.

    The fill-ins of each eliminated vertex are listed by their sorted names.
    The filled graph keeps the ids and bitsets built here for ``cliques_of``.
    """
    if set(order.sequence) != set(graph.vertices):
        raise OrderError("order does not cover the graph's vertices")
    vs, ids, adj0 = graph._bits
    adj, filled = list(adj0), list(adj0)
    fills: list[frozenset[Variable]] = []
    for v in order.sequence:
        added = []
        for a, missing in _eliminate(adj, ids[v]):
            filled[a] |= missing
            added += (frozenset((vs[a], vs[b])) for b in _members(missing >> a << a))
        fills += sorted(added, key=lambda e: sorted(w.name for w in e))
    tri = MoralGraph(graph.vertices, graph.edges | frozenset(fills))
    tri.__dict__["_bits"] = vs, ids, tuple(filled)  # what ``_bits`` would rebuild
    return tri, fills


@dataclass(frozen=True)
class Clique:
    members: frozenset[Variable]
    index: int

    @property
    def weight(self) -> int:
        return math.prod(len(v.states) for v in self.members)

    def names(self) -> list[str]:
        return sorted(v.name for v in self.members)

    def __repr__(self):
        return f"C{self.index}({','.join(self.names())})"


def cliques_of(graph: MoralGraph, order: EliminationOrder) -> list[Clique]:
    """Maximal cliques of a graph the order eliminates with zero fill-ins.

    Eliminating v creates the clique E_v = {v} plus v's later neighbours (those
    with a lower number).  With up(v) the first-eliminated of them, the order
    is perfect exactly when each E_v minus {v, up(v)} lies in up(v)'s
    neighbourhood (the follower test of Tarjan & Yannakakis).  E_w is not
    maximal exactly when some u with up(u) = w has |E_u| = |E_w| + 1 (the
    elimination-tree test of Blair & Peyton); the last-eliminated such u is
    w's heir, and every other E_v is a distinct maximal clique.

    A clique's index is the step at which it stops being maximal in the
    remaining graph.  E_y outlives the elimination of y exactly when
    E_y \\ {y} = E_up(y) and y is up(y)'s heir: any other vertex adjacent to
    all of E_up(y) would be a later-eliminated child of up(y) of that size.
    So from each maximal E_v the walk y <- up(y) while y is up(y)'s heir ends
    at the clique's index alpha(y), at 1 for the root clique.  The heir chains
    are disjoint, so the indices are distinct and the walks take linear time.
    """
    vs, ids, adj = graph._bits
    seq = [ids[v] for v in order.sequence]
    if len(seq) != len(vs):
        raise OrderError("order does not cover the graph's vertices")
    pos = {i: k for k, i in enumerate(seq)}  # alpha is len(seq) - pos
    later, left = [0] * len(vs), (1 << len(vs)) - 1
    for i in seq:
        left ^= 1 << i
        later[i] = adj[i] & left
    up, heir = {}, {}  # up(i), and heir(p) for the p that have one
    for i in seq:
        if later[i]:
            p = up[i] = min(_members(later[i]), key=pos.__getitem__)
            if (later[i] ^ 1 << p) & ~adj[p]:
                gap = vs[i].name
                raise CompileError(f"order does not perfectly eliminate the graph (gap at {gap!r})")
            if later[i].bit_count() == later[p].bit_count() + 1:
                heir[p] = i

    cliques = []
    for i in seq:
        if i not in heir:
            y = i
            while y in up and heir.get(up[y]) == y:
                y = up[y]
            members = [vs[i], *(vs[w] for w in _members(later[i]))]
            cliques.append(Clique(frozenset(members), len(seq) - pos[y]))
    cliques.sort(key=lambda c: c.index)
    indices = [c.index for c in cliques]
    if len(set(indices)) != len(indices):
        dup = next(i for i in indices if indices.count(i) > 1)
        raise CompileError(f"duplicate clique index {dup}; order mismatch or untriangulated input")
    return cliques


@dataclass(frozen=True)
class StrongJunctionTree:
    """Cliques ordered by index, each non-root linked to a parent clique.

    ``parent`` maps a clique index to its parent's index; separators are the
    clique-parent intersections.  The root is the lowest-index clique.  The
    index, children and holder (``holder_bits``) lookups are built once, so
    ``parent`` must not change after construction.
    """

    cliques: tuple[Clique, ...]
    parent: dict[int, int]
    root: int
    holders: tuple | None = field(default=None, repr=False, compare=False)
    _by_index: dict[int, Clique] = field(init=False, repr=False, compare=False)
    _children: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        children: dict[int, list[int]] = {}
        for k in sorted(self.parent):
            children.setdefault(self.parent[k], []).append(k)
        object.__setattr__(self, "_by_index", {c.index: c for c in self.cliques})
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "holders", self.holders or holder_bits(self.cliques))

    def clique(self, index: int) -> Clique:
        return self._by_index[index]

    def separator(self, child_index: int) -> frozenset[Variable]:
        return self.clique(child_index).members & self.clique(self.parent[child_index]).members

    def children(self, index: int) -> list[int]:
        return list(self._children.get(index, ()))


def holder_bits(cliques: Iterable[Clique]) -> tuple[list[Clique], list[int], dict[Variable, int]]:
    """(by_index, indices, holding): the cliques in index order, their indices,
    and per variable v a bitset whose bit p is set when by_index[p] holds v."""
    by_index, holding = sorted(cliques, key=lambda c: c.index), {}
    for p, c in enumerate(by_index):
        for v in c.members:
            holding[v] = holding.get(v, 0) | 1 << p
    return by_index, [c.index for c in by_index], holding


def lowest_holders(
    holders: tuple, queries: Sequence[tuple[frozenset[Variable], float]]
) -> list[Clique | None]:
    """For each (domain, bound) query, the lowest-index clique with an index
    below the bound that holds the domain, or None; ``holders`` is ``holder_bits``.

    A query ANDs its domain's bitsets into the positions below the bound and
    takes the lowest set bit, so an empty domain is held by the first clique.
    """
    by_index, indices, holding = holders
    out: list[Clique | None] = []
    for domain, bound in queries:
        bits = (1 << bisect_left(indices, bound)) - 1
        for v in domain:
            bits &= holding.get(v, 0)
        out.append(by_index[(bits & -bits).bit_length() - 1] if bits else None)
    return out


def _separator_queries(cliques: Iterable[Clique], root: int) -> list[tuple[frozenset[Variable], int]]:
    """(members shared with the cliques listed before it, index) of each non-root clique."""
    queries, earlier = [], set()
    for c in cliques:
        if c.index != root:
            queries.append((c.members & earlier, c.index))
        earlier |= c.members
    return queries


def build_strong_tree(cliques: Sequence[Clique]) -> StrongJunctionTree:
    """Attach each clique to the lowest-index earlier clique holding its separator."""
    holders = holder_bits(cliques)
    ordered = holders[0]
    if not ordered:
        raise CompileError("no cliques")
    queries = _separator_queries(ordered, ordered[0].index)
    parent: dict[int, int] = {}
    for (_, index), holder in zip(queries, lowest_holders(holders, queries)):
        if holder is None:
            raise CompileError(f"running intersection violated at clique {index}")
        parent[index] = holder.index
    return StrongJunctionTree(tuple(ordered), parent, ordered[0].index, holders)


def verify_strong(tree: StrongJunctionTree) -> list[Violation]:
    """Junction property, running intersection, and the strong-root rank test.

    The junction test counts, for every variable v, the cliques holding v
    minus the tree edges whose two ends both hold v: the cliques holding v
    form a connected subtree exactly when the count is 1.

    An edge (parent C1, child C2) with separator S is strongly ordered when
    every separator member temporally precedes-or-ties every member of C2\\S;
    that is exactly the condition letting the child be eliminated before the
    separator during collect.
    """
    indices = [c.index for c in tree.cliques]
    if tree.root not in indices:
        return [Violation("tree", f"root {tree.root} is not a clique index")]
    reached, stack = set(), [tree.root]
    while stack:
        if (k := stack.pop()) not in reached:
            reached.add(k)
            stack += tree.children(k)
    for k in indices:
        if k not in reached:
            return [Violation("tree", f"clique {k} is not connected to the root")]
    if len(tree.parent) != len(indices) - 1:
        return [Violation("tree", f"{len(tree.parent)} parent links for {len(indices)} cliques")]

    out: list[Violation] = []
    pieces = Counter(v for c in tree.cliques for v in c.members)
    for child in tree.parent:
        pieces.subtract(tree.separator(child))
    for v in sorted((v for v, n in pieces.items() if n != 1), key=lambda v: v.name):
        split = f"the cliques holding {v.name!r} split into {pieces[v]} disconnected parts"
        out.append(Violation("junction", split))

    queries = _separator_queries(tree.cliques, tree.root)
    for (_, index), holder in zip(queries, lowest_holders(tree.holders, queries)):
        if holder is None:
            why = f"separator of clique {index} fits no earlier clique"
            out.append(Violation("running-intersection", why))

    for child, par in tree.parent.items():
        sep = tree.separator(child)
        rest = tree.clique(child).members - sep
        for s in sep:
            for w in rest:
                if s.rank > w.rank:
                    why = (f"edge {par}->{child}: separator member {s.name!r} comes after "
                           f"{w.name!r}; no ordering of the child respects precedence")
                    out.append(Violation("strong-root", why))
    return out


def compile_diagram(diagram: InfluenceDiagram, heuristic: Heuristic = "min-fill",
                    given: Sequence[Variable] | None = None):
    """Full pipeline from a valid diagram to a verified strong junction tree."""
    moral = moralize(diagram)
    order = strong_elimination_order(moral, heuristic, given)
    tri, fills = triangulate(moral, order)
    cliques = cliques_of(tri, order)
    tree = build_strong_tree(cliques)
    problems = verify_strong(tree)
    if problems:
        raise CompileError("; ".join(str(p) for p in problems))
    return tree, order, fills, moral, tri


# ---------------------------------------------------------------------------
# DOT export


def _sorted_edges(edges: Iterable[frozenset[Variable]]) -> list[tuple[str, str]]:
    return sorted(tuple(sorted(w.name for w in e)) for e in edges)


def _graph_dot(title: str, graph: MoralGraph, fills: frozenset[frozenset[Variable]]) -> str:
    lines = [f"graph {title} {{"]
    for v in sorted(graph.vertices, key=lambda v: v.name):
        lines.append(f'  "{v.name}" [shape={"box" if v.is_decision else "ellipse"}];')
    lines += [f'  "{a}" -- "{b}";' for a, b in _sorted_edges(graph.edges - fills)]
    lines += [f'  "{a}" -- "{b}" [style=dashed];' for a, b in _sorted_edges(fills)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def moral_to_dot(graph: MoralGraph) -> str:
    return _graph_dot("moral", graph, frozenset())


def triangulated_to_dot(graph: MoralGraph, fills: Iterable[frozenset[Variable]]) -> str:
    return _graph_dot("triangulated", graph, frozenset(fills))


def tree_to_dot(tree: StrongJunctionTree) -> str:
    lines = ["digraph junction_tree {", "  node [shape=box];"]
    for c in tree.cliques:
        label = f"C{c.index}: {', '.join(c.names())}"
        lines.append(f'  C{c.index} [label="{label}"];')
    for child in sorted(tree.parent):
        sep = ", ".join(sorted(v.name for v in tree.separator(child)))
        lines.append(f'  C{child} -> C{tree.parent[child]} [label="{sep}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
