"""Compilation of an influence diagram into a strong junction tree.

The pipeline: moralize the diagram, pick an elimination order whose reverse
extends the temporal order to a total order (eliminating the vertices of
each ``Variable.rank`` together, highest rank first), triangulate by simulated
elimination, read off the maximal cliques with their indices, and attach each
clique to the lowest-index clique containing its separator.  The resulting
rooted tree lets sum- and max-marginalizations interleave soundly during the
collect pass: on every edge the separator temporally precedes the rest of the
child clique.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Literal, Sequence, get_args

from .model import InfluenceDiagram, Variable, Violation


class CompileError(Exception):
    """Internal compilation invariant failed (bad order or clique indexing)."""


class OrderError(ValueError):
    """A supplied elimination sequence is unusable."""


Heuristic = Literal["min-fill", "min-weight"]


@dataclass(frozen=True)
class MoralGraph:
    """Undirected graph over all variables; adjacency is symmetric, no loops."""

    vertices: tuple[Variable, ...]
    edges: frozenset[frozenset[Variable]]

    def adjacency(self) -> dict[Variable, set[Variable]]:
        adj: dict[Variable, set[Variable]] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def has_edge(self, u: Variable, v: Variable) -> bool:
        return frozenset((u, v)) in self.edges


def _edge(u: Variable, v: Variable) -> frozenset[Variable]:
    if u == v:
        raise ValueError(f"self loop at {u.name!r}")
    return frozenset((u, v))


def moralize(diagram: InfluenceDiagram) -> MoralGraph:
    """Drop arc directions, marry parents, and complete each utility domain.

    Temporal (information) links into decisions are not part of the graph;
    only genuine arcs and the completions above contribute edges.
    """
    edges: set[frozenset[Variable]] = set()
    for child in diagram.chance_variables:
        ps = diagram.parents[child.name]
        for p in ps:
            edges.add(_edge(p, child))
        for a, b in combinations(ps, 2):
            edges.add(_edge(a, b))
    for u in diagram.utilities:
        for a, b in combinations(u.domain, 2):
            edges.add(_edge(a, b))
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
        seen = set(self.sequence)
        if len(seen) != len(self.sequence):
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


def _eliminate_vertex(adj: dict[Variable, set[Variable]], v: Variable) -> set[frozenset[Variable]]:
    """Complete v's neighborhood, remove v; returns the edges added."""
    added = set()
    nbrs = adj[v]
    for a, b in combinations(nbrs, 2):
        if b not in adj[a]:
            added.add(_edge(a, b))
            adj[a].add(b)
            adj[b].add(a)
    for n in nbrs:
        adj[n].discard(v)
    del adj[v]
    return added


def _fill_count(adj: dict[Variable, set[Variable]], v: Variable) -> int:
    nbrs = adj[v]
    return sum(1 for a, b in combinations(nbrs, 2) if b not in adj[a])


def _clique_weight(adj: dict[Variable, set[Variable]], v: Variable) -> int:
    return math.prod(len(w.states) for w in adj[v] | {v})


def strong_elimination_order(
    graph: MoralGraph,
    heuristic: Heuristic = "min-fill",
    given: Sequence[Variable] | None = None,
) -> EliminationOrder:
    """Choose an elimination order blocked by rank, highest rank first.

    The vertices sharing one rank form a temporal block: the chance variables
    of one observation stage, or a single decision.  Within a block the
    heuristic greedily picks the next vertex on the evolving (partially
    eliminated, fill-completed) graph, ranking candidates by (fill count,
    clique weight, name) under min-fill and by (clique weight, fill count,
    name) under min-weight.  A ``given`` sequence bypasses the heuristic but
    is still checked against the stage constraint.

    Each block member is scored once and kept in a heap.  Eliminating v
    changes only the scores of v's neighbours (their neighbourhood changed)
    and of the common neighbours of each fill edge (a, b) (one missing pair
    fewer), so only those are rescored; stale heap entries are skipped.
    """
    if heuristic not in get_args(Heuristic):
        raise OrderError(f"unknown heuristic {heuristic!r}")
    if given is not None:
        if set(given) != set(graph.vertices):
            raise OrderError("given sequence is not a permutation of the variables")
        return EliminationOrder(tuple(given))

    adj = graph.adjacency()

    def score(v: Variable) -> tuple[int, int, str]:
        fill, weight = _fill_count(adj, v), _clique_weight(adj, v)
        return (weight, fill, v.name) if heuristic == "min-weight" else (fill, weight, v.name)

    sequence: list[Variable] = []
    blocks: dict[int, list[Variable]] = {}
    for v in graph.vertices:
        blocks.setdefault(v.rank, []).append(v)
    for rank in sorted(blocks, reverse=True):
        scores = {v: score(v) for v in blocks[rank]}
        heap = [(key, v) for v, key in scores.items()]
        heapq.heapify(heap)
        while scores:
            key, v = heapq.heappop(heap)
            if scores.get(v) != key:
                continue
            del scores[v]
            sequence.append(v)
            touched = set(adj[v])
            for a, b in _eliminate_vertex(adj, v):
                touched |= adj[a] & adj[b]
            for w in touched & scores.keys():
                scores[w] = score(w)
                heapq.heappush(heap, (scores[w], w))
    return EliminationOrder(tuple(sequence))


def triangulate(
    graph: MoralGraph, order: EliminationOrder
) -> tuple[MoralGraph, list[frozenset[Variable]]]:
    """Simulate elimination, returning the filled graph and the fill-ins added."""
    if set(order.sequence) != set(graph.vertices):
        raise OrderError("order does not cover the graph's vertices")
    adj = graph.adjacency()
    fills: list[frozenset[Variable]] = []
    for v in order.sequence:
        fills.extend(sorted(_eliminate_vertex(adj, v), key=lambda e: sorted(w.name for w in e)))
    return MoralGraph(graph.vertices, graph.edges | frozenset(fills)), fills


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
    adj = graph.adjacency()
    alpha = order.alpha
    later = {v: [w for w in adj[v] if alpha[w] < alpha[v]] for v in order.sequence}
    up: dict[Variable, Variable] = {}
    heir: dict[Variable, Variable] = {}
    for v in order.sequence:
        if later[v]:
            p = up[v] = max(later[v], key=alpha.__getitem__)
            if any(w != p and w not in adj[p] for w in later[v]):
                raise CompileError(
                    f"order does not perfectly eliminate the graph (gap at {v.name!r})"
                )
            if len(later[v]) == len(later[p]) + 1:
                heir[p] = v

    cliques = []
    for v in order.sequence:
        if v not in heir:
            y = v
            while y in up and heir.get(up[y]) == y:
                y = up[y]
            cliques.append(Clique(frozenset(later[v]).union((v,)), alpha[y]))
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
    index and children lookups are built once, so ``parent`` must not change
    after construction.
    """

    cliques: tuple[Clique, ...]
    parent: dict[int, int]
    root: int
    _by_index: dict[int, Clique] = field(init=False, repr=False, compare=False)
    _children: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        children: dict[int, list[int]] = {}
        for k in sorted(self.parent):
            children.setdefault(self.parent[k], []).append(k)
        object.__setattr__(self, "_by_index", {c.index: c for c in self.cliques})
        object.__setattr__(self, "_children", children)

    def clique(self, index: int) -> Clique:
        return self._by_index[index]

    def separator(self, child_index: int) -> frozenset[Variable]:
        return self.clique(child_index).members & self.clique(self.parent[child_index]).members

    def children(self, index: int) -> list[int]:
        return list(self._children.get(index, ()))

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for c in self.cliques:
            out |= c.members
        return frozenset(out)


def lowest_holders(
    cliques: Iterable[Clique], queries: Sequence[tuple[frozenset[Variable], float]]
) -> list[Clique | None]:
    """For each (domain, bound) query, the lowest-index clique with an index
    below the bound that holds the domain, or None.

    Only the cliques holding the domain member with the fewest holders are
    scanned, in index order; an empty domain is held by the lowest-index
    clique.
    """
    by_index = sorted(cliques, key=lambda c: c.index)
    holding: dict[Variable, list[Clique]] = {}
    for c in by_index:
        for v in c.members:
            holding.setdefault(v, []).append(c)
    out: list[Clique | None] = []
    for domain, bound in queries:
        pool = min((holding.get(v, ()) for v in domain), key=len, default=by_index)
        first = next((d for d in pool if domain <= d.members), None)
        out.append(first if first is not None and first.index < bound else None)
    return out


def build_strong_tree(cliques: Sequence[Clique]) -> StrongJunctionTree:
    """Attach each clique to the lowest-index earlier clique holding its separator."""
    ordered = sorted(cliques, key=lambda c: c.index)
    if not ordered:
        raise CompileError("no cliques")
    queries = []
    earlier: set[Variable] = set(ordered[0].members)
    for c in ordered[1:]:
        queries.append((c.members & earlier, c.index))
        earlier |= c.members
    parent: dict[int, int] = {}
    for c, holder in zip(ordered[1:], lowest_holders(ordered, queries)):
        if holder is None:
            raise CompileError(f"running intersection violated at clique {c.index}")
        parent[c.index] = holder.index
    return StrongJunctionTree(tuple(ordered), parent, ordered[0].index)


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
    out: list[Violation] = []
    indices = [c.index for c in tree.cliques]
    if tree.root not in indices:
        out.append(Violation("tree", f"root {tree.root} is not a clique index"))
        return out
    rooted = {tree.root}
    for k in indices:
        hops: set[int] = set()
        i = k
        while i not in rooted:
            if i not in tree.parent or i in hops:
                out.append(Violation("tree", f"clique {k} is not connected to the root"))
                return out
            hops.add(i)
            i = tree.parent[i]
        rooted |= hops
    if len(tree.parent) != len(indices) - 1:
        links = f"{len(tree.parent)} parent links for {len(indices)} cliques"
        out.append(Violation("tree", links))
        return out

    pieces = Counter(v for c in tree.cliques for v in c.members)
    for child in tree.parent:
        pieces.subtract(tree.separator(child))
    for v in sorted((v for v, n in pieces.items() if n != 1), key=lambda v: v.name):
        out.append(
            Violation(
                "junction",
                f"the cliques holding {v.name!r} split into {pieces[v]} disconnected parts",
            )
        )

    queries = []
    earlier: set[Variable] = set()
    for c in tree.cliques:
        if c.index != tree.root:
            queries.append((c.members & earlier, c.index))
        earlier |= c.members
    for (_, index), holder in zip(queries, lowest_holders(tree.cliques, queries)):
        if holder is None:
            out.append(
                Violation(
                    "running-intersection",
                    f"separator of clique {index} fits no earlier clique",
                )
            )

    for child, par in tree.parent.items():
        sep = tree.separator(child)
        rest = tree.clique(child).members - sep
        for s in sep:
            for w in rest:
                if s.rank > w.rank:
                    out.append(
                        Violation(
                            "strong-root",
                            f"edge {par}->{child}: separator member {s.name!r} comes after "
                            f"{w.name!r}; no ordering of the child respects precedence",
                        )
                    )
    return out


def compile_diagram(
    diagram: InfluenceDiagram,
    heuristic: Heuristic = "min-fill",
    given: Sequence[Variable] | None = None,
):
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


def _dot_vertex(v: Variable) -> str:
    shape = "box" if v.is_decision else "ellipse"
    return f'  "{v.name}" [shape={shape}];'


def _sorted_edges(edges: Iterable[frozenset[Variable]]) -> list[tuple[str, str]]:
    return sorted(tuple(sorted(w.name for w in e)) for e in edges)


def moral_to_dot(graph: MoralGraph) -> str:
    lines = ["graph moral {"]
    lines += [_dot_vertex(v) for v in sorted(graph.vertices, key=lambda v: v.name)]
    lines += [f'  "{a}" -- "{b}";' for a, b in _sorted_edges(graph.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def triangulated_to_dot(graph: MoralGraph, fills: Iterable[frozenset[Variable]]) -> str:
    fills = set(fills)
    lines = ["graph triangulated {"]
    lines += [_dot_vertex(v) for v in sorted(graph.vertices, key=lambda v: v.name)]
    lines += [f'  "{a}" -- "{b}";' for a, b in _sorted_edges(graph.edges - fills)]
    lines += [f'  "{a}" -- "{b}" [style=dashed];' for a, b in _sorted_edges(fills)]
    lines.append("}")
    return "\n".join(lines) + "\n"


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
