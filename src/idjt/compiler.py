"""Compilation of an influence diagram into a strong junction tree.

The pipeline: moralize the diagram, pick an elimination order whose reverse
extends the temporal order to a total order (eliminating the vertices of
each ``Variable.rank`` together, highest rank first), triangulate by simulated
elimination, read off the maximal cliques with their indices, and attach each
clique to the lowest-index clique containing its separator.  The resulting
rooted tree lets sum- and max-marginalizations interleave soundly during the
collect pass: on every edge the separator temporally precedes the rest of the
child clique.

The diagram owns the vertex numbering (``InfluenceDiagram.index``, 0..n-1 in
canonical (rank, name) order) and every structure is built with it:
moralization reads the family and utility-domain ids, an order is its
sequence as ids, and a clique holds its members as a bitset over them.  An
order whose ids miss or repeat a vertex cannot be built, and a pass given an
order numbered by another graph raises rather than mapping it again.  A
neighbourhood N(v) is one ``int`` bitset over those ids, so no set operation
calls ``Variable.__hash__``.  The fill count of v is half the sum over a in
N(v) of ``(N(v) & ~N(a) & ~bit(a)).bit_count()``, and eliminating v ORs into
each neighbour the bits of N(v) it lacked.  The tree keeps one holder table,
a bitset of clique indices per id, and answers one query from it: the
lowest-index clique holding a set of ids.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Iterator, Literal, Sequence, get_args

from .model import InfluenceDiagram, Variable, Violation


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
    """Undirected graph, no loops: ``index`` numbers the vertices, in canonical
    (rank, name) order, and ``adj[i]`` is N(i) as a bitset over those ids."""

    index: dict[Variable, int]
    adj: tuple[int, ...]

    @property
    def vertices(self) -> tuple[Variable, ...]:
        return tuple(self.index)

    @property
    def edges(self) -> frozenset[frozenset[Variable]]:
        """The edges as vertex pairs, for DOT output."""
        vs = self.vertices
        return frozenset(frozenset((vs[a], vs[b])) for a, n in enumerate(self.adj)
                         for b in _members(n >> a << a))


def moralize(diagram: InfluenceDiagram) -> MoralGraph:
    """Drop arc directions, marry parents, and complete each utility domain.

    Temporal (information) links into decisions are not part of the graph;
    only genuine arcs and the completions above contribute edges.
    """
    adj = [0] * len(diagram.index)
    for ids in diagram.factor_ids:  # families (arcs, married parents), then utility domains
        bits = 0
        for i in ids:
            bits |= 1 << i
        for i in _members(bits):
            adj[i] |= bits ^ 1 << i
    return MoralGraph(diagram.index, tuple(adj))


@dataclass(frozen=True)
class EliminationOrder:
    """A stage-respecting elimination sequence: vertex ids over a numbering.

    The ids must cover the numbering's vertices once; ``sequence`` is the
    vertices they name, read off the numbering.  The i-th eliminated vertex
    (1-based) is numbered |U|-i+1, so the sequence runs from the highest number
    down to 1 and its reverse is a total order extending temporal precedence.
    """

    ids: tuple[int, ...] = field(repr=False, compare=False)
    numbering: dict[Variable, int] = field(repr=False, compare=False)
    sequence: tuple[Variable, ...] = field(init=False)

    def __post_init__(self):
        if sorted(self.ids) != list(range(len(self.numbering))):
            raise OrderError("order does not cover the graph's vertices once")
        vs = tuple(self.numbering)
        object.__setattr__(self, "sequence", tuple(map(vs.__getitem__, self.ids)))
        for a, b in zip(self.sequence, self.sequence[1:]):
            if a.rank < b.rank:
                raise OrderError(
                    f"stage constraint violated: {a.name!r} cannot be eliminated "
                    f"before {b.name!r}"
                )


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
    name) under min-weight.  A ``given`` sequence bypasses the heuristic; it
    must be a permutation of the vertices, is mapped to ids once, and is still
    checked against the stage constraint.

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
        if set(given) != graph.index.keys():
            raise OrderError("given sequence is not a permutation of the variables")
        if len(given) != len(graph.index):
            raise OrderError("sequence repeats a variable")
        return EliminationOrder(tuple(graph.index[v] for v in given), graph.index)

    vs = graph.vertices
    adj, sizes = list(graph.adj), [len(v.states) for v in vs]
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
    return EliminationOrder(tuple(sequence), graph.index)


def _ids(graph: MoralGraph, order: EliminationOrder) -> tuple[int, ...]:
    """The vertex ids of the order, which must be numbered by the graph."""
    if order.numbering is not graph.index:
        raise OrderError("order is numbered by another graph")
    return order.ids


def triangulate(graph: MoralGraph,
                order: EliminationOrder) -> tuple[MoralGraph, list[frozenset[Variable]]]:
    """Simulate elimination, returning the filled graph and the fill-ins added.

    The fill-ins of each eliminated vertex are listed by their sorted names.
    """
    vs = graph.vertices
    adj, filled = list(graph.adj), list(graph.adj)
    fills: list[frozenset[Variable]] = []
    for i in _ids(graph, order):
        added = []
        for a, missing in _eliminate(adj, i):
            filled[a] |= missing
            added += (frozenset((vs[a], vs[b])) for b in _members(missing >> a << a))
        fills += sorted(added, key=lambda e: sorted(w.name for w in e))
    return MoralGraph(graph.index, tuple(filled)), fills


@dataclass(frozen=True)
class Clique:
    members: frozenset[Variable]
    index: int
    bits: int = field(repr=False, compare=False)  # the members, as a bitset over the tree's ids

    @property
    def weight(self) -> int:
        return math.prod(len(v.states) for v in self.members)

    def names(self) -> list[str]:
        return sorted(v.name for v in self.members)

    def label(self) -> str:  # as the report and the DOT tree print it
        return f"C{self.index}: {', '.join(self.names())}"

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
    vs, adj = graph.vertices, graph.adj
    seq = _ids(graph, order)
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
            bits = later[i] | 1 << i
            members = frozenset(map(vs.__getitem__, _members(bits)))
            cliques.append(Clique(members, len(seq) - pos[y], bits))
    cliques.sort(key=lambda c: c.index)
    indices = [c.index for c in cliques]
    if len(set(indices)) != len(indices):
        dup = next(i for i in indices if indices.count(i) > 1)
        raise CompileError(f"duplicate clique index {dup}; order mismatch or untriangulated input")
    return cliques


@dataclass(frozen=True)
class StrongJunctionTree:
    """Cliques with their indices, each non-root linked to a parent clique.

    ``parent`` maps a clique index to its parent's index; separators are the
    clique-parent intersections.  ``index`` numbers the variables the clique
    bitsets range over (the diagram's, for a compiled tree).  Bit k of
    ``holding[i]`` is set when the clique with index k holds the variable with
    id i.  The lookups are built once, so ``parent`` must not change after
    construction (``build_strong_tree`` links its tree as it builds it).
    """

    cliques: tuple[Clique, ...]
    parent: dict[int, int]
    root: int
    index: dict[Variable, int] = field(repr=False, compare=False)
    holding: list[int] = field(init=False, repr=False, compare=False)
    _by_index: dict[int, Clique] = field(init=False, repr=False, compare=False)
    _children: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    _every: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        holding = [0] * len(self.index)
        for c in self.cliques:
            for i in _members(c.bits):
                holding[i] |= 1 << c.index
        children: dict[int, list[int]] = {}
        for k in sorted(self.parent):
            children.setdefault(self.parent[k], []).append(k)
        object.__setattr__(self, "holding", holding)
        object.__setattr__(self, "_by_index", {c.index: c for c in self.cliques})
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_every", sum(1 << k for k in self._by_index))

    def clique(self, index: int) -> Clique:
        return self._by_index[index]

    def separator(self, child_index: int) -> frozenset[Variable]:
        return self.clique(child_index).members & self.clique(self.parent[child_index]).members

    def separator_label(self, child_index: int) -> str:  # as the report and the DOT tree print it
        return ", ".join(sorted(v.name for v in self.separator(child_index)))

    def children(self, index: int) -> list[int]:
        return list(self._children.get(index, ()))

    def lowest_holder(self, ids: Iterable[int], below: int | None = None) -> Clique | None:
        """The lowest-index clique holding every variable id in ``ids`` (an empty
        ``ids`` fits any clique), only among indices under ``below`` if given;
        None if none fits."""
        bits = self._every if below is None else self._every & (1 << below) - 1
        for i in ids:
            bits &= self.holding[i]
        return self._by_index[(bits & -bits).bit_length() - 1] if bits else None


def _hosts(tree: StrongJunctionTree) -> Iterator[tuple[Clique, Clique | None]]:
    """Each non-root clique with the lowest-index clique below it holding the
    members it shares with the cliques listed before it, or None."""
    earlier = 0
    for c in tree.cliques:
        if c.index != tree.root:
            yield c, tree.lowest_holder(_members(c.bits & earlier), c.index)
        earlier |= c.bits


def build_strong_tree(cliques: Sequence[Clique], index: dict[Variable, int]) -> StrongJunctionTree:
    """Attach each clique to the lowest-index earlier clique holding its separator,
    asking the holder table of the unlinked tree, then linking that tree in index order.
    ``index`` is the numbering the clique bitsets range over."""
    ordered = sorted(cliques, key=lambda c: c.index)
    if not ordered:
        raise CompileError("no cliques")
    tree = StrongJunctionTree(tuple(ordered), {}, ordered[0].index, index)
    for c, host in _hosts(tree):
        if host is None:
            raise CompileError(f"running intersection violated at clique {c.index}")
        tree.parent[c.index] = host.index
        tree._children.setdefault(host.index, []).append(c.index)
    return tree


def verify_strong(tree: StrongJunctionTree) -> list[Violation]:
    """Junction property, running intersection, and the strong-root rank test.

    The junction test counts, for every variable id, the cliques holding it
    minus the tree edges whose two ends both hold it: the cliques holding a
    variable form a connected subtree exactly when the count is 1.

    An edge (parent C1, child C2) with separator S is strongly ordered when
    every separator member temporally precedes-or-ties every member of C2\\S;
    that is exactly the condition letting the child be eliminated before the
    separator during collect.  Violations are listed edge by edge, then by
    separator member name, then by child member name.
    """
    indices = [c.index for c in tree.cliques]
    if tree.root not in indices:
        return [Violation("tree", f"root {tree.root} is not a clique index")]
    reached, stack = set(), [tree.root]
    while stack:
        if (k := stack.pop()) not in reached:
            reached.add(k)
            stack += tree._children.get(k, ())
    for k in indices:
        if k not in reached:
            return [Violation("tree", f"clique {k} is not connected to the root")]
    if len(tree.parent) != len(indices) - 1:
        return [Violation("tree", f"{len(tree.parent)} parent links for {len(indices)} cliques")]

    out: list[Violation] = []
    strong: list[Violation] = []  # listed after the junction and running-intersection tests
    pieces = [bits.bit_count() for bits in tree.holding]  # 0 for an id no clique holds
    for child, par in tree.parent.items():
        c, p = tree.clique(child), tree.clique(par)
        for i in _members(c.bits & p.bits):
            pieces[i] -= 1
        sep = c.members & p.members
        for s, w in sorted((s.name, w.name) for s in sep for w in c.members - sep if s.rank > w.rank):
            why = (f"edge {par}->{child}: separator member {s!r} comes after "
                   f"{w!r}; no ordering of the child respects precedence")
            strong.append(Violation("strong-root", why))
    vs = list(tree.index)
    for i in sorted((i for i, n in enumerate(pieces) if n > 1), key=lambda i: vs[i].name):
        split = f"the cliques holding {vs[i].name!r} split into {pieces[i]} disconnected parts"
        out.append(Violation("junction", split))
    for c, host in _hosts(tree):
        if host is None:
            out.append(Violation("running-intersection", f"separator of clique {c.index} fits no earlier clique"))
    return out + strong


def compile_diagram(diagram: InfluenceDiagram, heuristic: Heuristic = "min-fill",
                    given: Sequence[Variable] | None = None):
    """Full pipeline from a valid diagram to a verified strong junction tree."""
    moral = moralize(diagram)
    order = strong_elimination_order(moral, heuristic, given)
    tri, fills = triangulate(moral, order)
    cliques = cliques_of(tri, order)
    tree = build_strong_tree(cliques, tri.index)
    problems = verify_strong(tree)
    if problems:
        raise CompileError("; ".join(str(p) for p in problems))
    return tree, order, fills, moral, tri


# ---------------------------------------------------------------------------
# DOT export


def sorted_edges(edges: Iterable[frozenset[Variable]]) -> list[tuple[str, str]]:
    return sorted(tuple(sorted(w.name for w in e)) for e in edges)


def _graph_dot(title: str, graph: MoralGraph, fills: frozenset[frozenset[Variable]]) -> str:
    lines = [f"graph {title} {{"]
    for v in sorted(graph.vertices, key=lambda v: v.name):
        lines.append(f'  "{v.name}" [shape={"box" if v.is_decision else "ellipse"}];')
    lines += [f'  "{a}" -- "{b}";' for a, b in sorted_edges(graph.edges - fills)]
    lines += [f'  "{a}" -- "{b}" [style=dashed];' for a, b in sorted_edges(fills)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def moral_to_dot(graph: MoralGraph) -> str:
    return _graph_dot("moral", graph, frozenset())


def triangulated_to_dot(graph: MoralGraph, fills: Iterable[frozenset[Variable]]) -> str:
    return _graph_dot("triangulated", graph, frozenset(fills))


def tree_to_dot(tree: StrongJunctionTree) -> str:
    lines = ["digraph junction_tree {", "  node [shape=box];"]
    for c in tree.cliques:
        lines.append(f'  C{c.index} [label="{c.label()}"];')
    for child, parent in sorted(tree.parent.items()):
        lines.append(f'  C{child} -> C{parent} [label="{tree.separator_label(child)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
