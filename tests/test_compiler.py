"""Moralization, strong elimination, triangulation, cliques, tree assembly."""

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from idjt import (
    CompileError,
    EliminationOrder,
    OrderError,
    StrongJunctionTree,
    build_strong_tree,
    chance_var,
    cliques_of,
    compile_diagram,
    initialize,
    moralize,
    parse_model,
    strong_elimination_order,
    triangulate,
    verify_strong,
)
from idjt import cli, compiler
from idjt.compiler import moral_to_dot, tree_to_dot, triangulated_to_dot
from idjt.model import Violation
from idjt.randmodels import random_model

from conftest import (
    GOLDEN_CLIQUES,
    GOLDEN_FILLS,
    GOLDEN_PARENT_LINKS,
    GOLDEN_SEQUENCE,
    MODELS,
    alpha,
    edge_names,
    family,
    graph_of,
    hand_tree,
    numbered,
    order_on,
    sweep_draw,
)


def _adjacency(graph):
    adj = {v: set() for v in graph.vertices}
    for e in graph.edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# moralize


def test_chain_moralizes_to_its_arcs():
    d = parse_model(
        "chance a states 0 1 stage 0\nchance b states 0 1 stage 0\n"
        "chance c states 0 1 stage 0\n"
        "cpt a : .5 .5\ncpt b given a : .5 .5 .5 .5\ncpt c given b : .5 .5 .5 .5\n"
    )
    g = moralize(d)
    assert edge_names(g.edges) == {("a", "b"), ("b", "c")}


def test_v_structure_marries_parents():
    d = parse_model(
        "chance a states 0 1 stage 0\nchance b states 0 1 stage 0\n"
        "chance c states 0 1 stage 0\n"
        "cpt a : .5 .5\ncpt b : .5 .5\ncpt c given a b : .5 .5 .5 .5 .5 .5 .5 .5\n"
    )
    assert edge_names(moralize(d).edges) == {("a", "c"), ("b", "c"), ("a", "b")}


def test_utility_domain_is_completed():
    d = parse_model(
        "chance j states 0 1 stage 0\nchance k states 0 1 stage 0\n"
        "cpt j : .5 .5\ncpt k : .5 .5\nutility u over j k : 1 2 3 4\n"
    )
    assert edge_names(moralize(d).edges) == {("j", "k")}


def test_fixture_model_moralizes_to_the_golden_graph(golden_model, golden):
    golden, _ = golden
    got = moralize(golden_model)
    assert edge_names(got.edges) == edge_names(golden.edges)
    assert set(v.name for v in got.vertices) == set(v.name for v in golden.vertices)


def test_every_family_and_utility_domain_complete_in_moral_graph(golden_model):
    g = moralize(golden_model)
    for v in golden_model.chance_variables:
        fam = family(golden_model, v)
        for a, b in itertools.combinations(fam, 2):
            assert frozenset((a, b)) in g.edges
    for u in golden_model.utilities:
        for a, b in itertools.combinations(u.domain, 2):
            assert frozenset((a, b)) in g.edges


# ---------------------------------------------------------------------------
# elimination order


def _golden_order(golden):
    graph, vs = golden
    given = [vs[n] for n in GOLDEN_SEQUENCE]
    return strong_elimination_order(graph, given=given), graph, vs


def test_reference_sequence_accepted_as_given(golden):
    order, _, vs = _golden_order(golden)
    assert [v.name for v in order.sequence] == GOLDEN_SEQUENCE
    assert alpha(order)[vs["l"]] == 16
    assert alpha(order)[vs["b"]] == 1


def test_stage_constraint_rejects_premature_decision(golden):
    graph, vs = golden
    bad = [vs["D4"]] + [vs[n] for n in GOLDEN_SEQUENCE if n != "D4"]
    with pytest.raises(OrderError, match="stage constraint"):
        strong_elimination_order(graph, given=bad)


def test_given_sequence_must_be_a_permutation(golden):
    graph, vs = golden
    with pytest.raises(OrderError, match="permutation"):
        strong_elimination_order(graph, given=[vs["l"], vs["j"]])


@pytest.mark.parametrize("heuristic", ["min-wieght", None])
def test_unknown_heuristic_rejected(golden_model, heuristic):
    with pytest.raises(OrderError, match=f"unknown heuristic {heuristic!r}"):
        compile_diagram(golden_model, heuristic=heuristic)


def test_reverse_order_extends_precedence(golden):
    order, _, _ = _golden_order(golden)
    ranks = [v.rank for v in order.sequence]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_min_fill_picks_the_simplicial_vertex_first():
    # chordless 4-cycle plus a pendant: the pendant is the only simplicial vertex
    s, p, q, r, w = (chance_var(n, ("0", "1"), 0) for n in "spqrw")
    edges = frozenset(
        frozenset(e) for e in [(p, q), (q, r), (r, w), (w, p), (s, p)]
    )
    graph = graph_of((s, p, q, r, w), edges)

    adj = _adjacency(graph)

    def fill_count(v):
        return sum(1 for a, b in itertools.combinations(adj[v], 2) if frozenset((a, b)) not in graph.edges)

    # independent count of fill edges per candidate: s is uniquely zero
    assert fill_count(s) == 0
    assert all(fill_count(v) > 0 for v in (p, q, r, w))
    order = strong_elimination_order(graph, heuristic="min-fill")
    assert order.sequence[0] == s


def test_heuristics_produce_verified_trees(golden_model):
    for heuristic in ("min-fill", "min-weight"):
        tree, order, fills, moral, tri = compile_diagram(golden_model, heuristic=heuristic)
        assert verify_strong(tree) == []


def test_determinism_same_input_same_result(golden_model):
    a = compile_diagram(golden_model, heuristic="min-fill")
    b = compile_diagram(golden_model, heuristic="min-fill")
    assert [c.members for c in a[0].cliques] == [c.members for c in b[0].cliques]
    assert a[1].sequence == b[1].sequence
    assert a[0].parent == b[0].parent


def _reference_greedy(graph, heuristic):
    """The plain greedy: rescore every remaining block member before each pick.

    The blocks come from the stages directly: stage 0, decision 1, stage 1,
    ..., decision n, stage n and any later stages, eliminated last block first.
    """
    adj = _adjacency(graph)

    def fill(v):
        return sum(1 for a, b in itertools.combinations(adj[v], 2) if b not in adj[a])

    def weight(v):
        return math.prod(len(w.states) for w in adj[v] | {v})

    if heuristic == "min-weight":
        key = lambda v: (weight(v), fill(v), v.name)
    else:
        key = lambda v: (fill(v), weight(v), v.name)
    chance = [v for v in graph.vertices if not v.is_decision]
    decisions = [v for v in graph.vertices if v.is_decision]
    blocks = []
    for k in range(max([len(decisions)] + [v.stage for v in chance]) + 1):
        blocks.append(sorted((v for v in chance if v.stage == k), key=lambda v: v.name))
        blocks.append([d for d in decisions if d.stage == k + 1])
    sequence = []
    for block in reversed(blocks):
        remaining = list(block)
        while remaining:
            v = min(remaining, key=key)
            remaining.remove(v)
            sequence.append(v)
            for a, b in itertools.combinations(adj[v], 2):
                adj[a].add(b)
                adj[b].add(a)
            for w in adj.pop(v):
                adj[w].discard(v)
    return tuple(sequence)


def _grid(k, cardinality):
    cells = {
        (i, j): chance_var(f"g{i:02d}{j:02d}", tuple("012"[: cardinality(i, j)]), 0)
        for i in range(k)
        for j in range(k)
    }
    edges = frozenset(
        frozenset((cells[i, j], cells[i + di, j + dj]))
        for i, j in cells
        for di, dj in ((0, 1), (1, 0))
        if (i + di, j + dj) in cells
    )
    return graph_of(tuple(cells.values()), edges)


def _order_cases(golden_model):
    for i in range(200):
        model = sweep_draw(i)
        yield moralize(model)
    yield moralize(golden_model)
    for cardinality in (lambda i, j: 2, lambda i, j: 2 + (i * j) % 2):
        yield _grid(8, cardinality)


@pytest.mark.parametrize("heuristic", ["min-fill", "min-weight"])
def test_incremental_order_matches_the_reference_greedy(golden_model, heuristic):
    for graph in _order_cases(golden_model):
        got = strong_elimination_order(graph, heuristic=heuristic).sequence
        assert got == _reference_greedy(graph, heuristic)


def test_order_scores_each_vertex_a_bounded_number_of_times(monkeypatch):
    # a 2000-variable path in one stage: the plain greedy rescores every
    # remaining vertex on each pick, about n^2 / 2 fill counts
    n = 2000
    xs = [chance_var(f"x{i:04d}", ("0", "1"), 0) for i in range(n)]
    graph = graph_of(tuple(xs), frozenset(frozenset(p) for p in zip(xs, xs[1:])))
    calls = 0
    score = compiler._score

    def counting(*args):
        nonlocal calls
        calls += 1
        return score(*args)

    monkeypatch.setattr(compiler, "_score", counting)
    for heuristic in ("min-fill", "min-weight"):
        calls = 0
        order = strong_elimination_order(graph, heuristic=heuristic)
        assert len(order.sequence) == n
        assert calls <= 3 * n


# ---------------------------------------------------------------------------
# triangulate


def _reference_triangulate(graph, order):
    """The set-based triangulate: complete each neighbourhood pair by pair."""
    adj = _adjacency(graph)
    fills = []
    for v in order.sequence:
        added = set()
        for a, b in itertools.combinations(adj[v], 2):
            if b not in adj[a]:
                added.add(frozenset((a, b)))
                adj[a].add(b)
                adj[b].add(a)
        for n in adj.pop(v):
            adj[n].discard(v)
        fills.extend(sorted(added, key=lambda e: sorted(w.name for w in e)))
    return graph_of(graph.vertices, graph.edges | frozenset(fills)), fills


def _reference_moralize(diagram):
    """The set-based moral edges: every family and utility domain completed pair by pair."""
    completed = [family(diagram, v) for v in diagram.chance_variables]
    completed += [u.domain for u in diagram.utilities]
    return {frozenset(e) for c in completed for e in itertools.combinations(c, 2)}


def test_moralize_matches_the_reference(golden_model):
    models = [sweep_draw(i) for i in range(200)]
    for model in [*models, golden_model]:
        graph = moralize(model)
        assert graph.edges == _reference_moralize(model)
        assert set(graph.vertices) == set(model.variables)
    for graph in _order_cases(golden_model):  # the same models, then the two grids
        assert graph_of(graph.vertices, graph.edges) == graph


def _assert_triangulates_like_the_reference(graph, order):
    tri, fills = triangulate(graph, order)
    ref_tri, ref_fills = _reference_triangulate(graph, order)
    assert fills == ref_fills
    assert tri == ref_tri
    return tri


@pytest.mark.parametrize("heuristic", ["min-fill", "min-weight"])
def test_fills_match_the_reference_on_compiled_graphs(golden_model, heuristic):
    for graph in _order_cases(golden_model):
        _assert_triangulates_like_the_reference(
            graph, strong_elimination_order(graph, heuristic=heuristic)
        )


def test_fills_match_the_reference_under_arbitrary_orders():
    rng = random.Random(7)
    filled = 0
    for _ in range(500):
        n = rng.randint(1, 14)
        vs = [chance_var(f"v{i}", ("0", "1"), 0) for i in range(n)]
        p = rng.random()
        edges = frozenset(
            frozenset(e) for e in itertools.combinations(vs, 2) if rng.random() < p
        )
        graph = graph_of(tuple(vs), edges)
        order = order_on(graph, rng.sample(vs, n))
        tri = _assert_triangulates_like_the_reference(graph, order)
        filled += tri != graph
        # the filled bitsets are the graph its edges rebuild
        assert graph_of(tri.vertices, tri.edges) == tri
    assert filled > 0


def test_reference_sequence_produces_exactly_the_nine_fills(golden):
    order, graph, vs = _golden_order(golden)
    tri, fills = triangulate(graph, order)
    assert {frozenset(v.name for v in f) for f in fills} == GOLDEN_FILLS
    assert len(fills) == 9


def test_already_triangulated_graph_has_zero_fills():
    a = chance_var("a", ("0", "1"), 0)
    b = chance_var("b", ("0", "1"), 0)
    c = chance_var("c", ("0", "1"), 0)
    graph = graph_of((a, b, c), frozenset({frozenset((a, b)), frozenset((b, c))}))
    order = order_on(graph, (a, c, b))
    _, fills = triangulate(graph, order)
    assert fills == []


def test_re_elimination_of_triangulated_graph_adds_nothing(golden):
    order, graph, _ = _golden_order(golden)
    tri, _ = triangulate(graph, order)
    tri2, fills2 = triangulate(tri, order)
    assert fills2 == []
    assert tri2.edges == tri.edges


# ---------------------------------------------------------------------------
# cliques


def test_golden_cliques_with_indices(golden):
    order, graph, vs = _golden_order(golden)
    tri, _ = triangulate(graph, order)
    cliques = cliques_of(tri, order)
    got = {c.index: {v.name for v in c.members} for c in cliques}
    assert got == GOLDEN_CLIQUES


def test_complete_graph_is_one_clique_with_index_one():
    a = chance_var("a", ("0", "1"), 0)
    b = chance_var("b", ("0", "1"), 0)
    c = chance_var("c", ("0", "1"), 0)
    edges = frozenset(frozenset(p) for p in itertools.combinations((a, b, c), 2))
    graph = graph_of((a, b, c), edges)
    cliques = cliques_of(graph, order_on(graph, (a, b, c)))
    assert len(cliques) == 1
    assert cliques[0].index == 1
    assert cliques[0].members == {a, b, c}


def _brute_force_maximal_cliques(graph):
    vs = list(graph.vertices)
    complete = []
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            if all(frozenset((a, b)) in graph.edges for a, b in itertools.combinations(sub, 2)):
                complete.append(frozenset(sub))
    return {c for c in complete if not any(c < d for d in complete)}


def test_cliques_match_brute_force_enumeration_on_random_graphs():
    for seed in range(25):
        model = random_model(seed + 300, max_variables=7)
        tree, order, fills, moral, tri = compile_diagram(model)
        expected = _brute_force_maximal_cliques(tri)
        got = {c.members for c in cliques_of(tri, order)}
        assert got == expected


def _pairwise_maximal(graph, order):
    """The elimination cliques minus those strictly inside another, pair by pair."""
    adj = _adjacency(graph)
    elim = []
    for v in order.sequence:
        elim.append(frozenset(adj[v] | {v}))
        for w in adj.pop(v):
            adj[w].discard(v)
    return {c for c in elim if not any(c < d for d in elim)}


@pytest.mark.parametrize("heuristic", ["min-fill", "min-weight"])
def test_cliques_match_the_pairwise_filter_and_networkx(heuristic):
    nx = pytest.importorskip("networkx")
    for i in range(200):
        model = sweep_draw(i)
        _, order, _, _, tri = compile_diagram(model, heuristic=heuristic)
        got = [c.members for c in cliques_of(tri, order)]
        assert len(set(got)) == len(got)
        assert set(got) == _pairwise_maximal(tri, order)
        g = nx.Graph(tuple(e) for e in tri.edges)
        g.add_nodes_from(tri.vertices)
        assert set(got) == set(nx.chordal_graph_cliques(g))


def test_cliques_of_rejects_non_perfect_order():
    a = chance_var("a", ("0", "1"), 0)
    b = chance_var("b", ("0", "1"), 0)
    c = chance_var("c", ("0", "1"), 0)
    d = chance_var("d", ("0", "1"), 0)
    # 4-cycle, chordless
    edges = frozenset(
        {frozenset((a, b)), frozenset((b, c)), frozenset((c, d)), frozenset((d, a))}
    )
    graph = graph_of((a, b, c, d), edges)
    with pytest.raises(CompileError, match="perfectly eliminate"):
        cliques_of(graph, order_on(graph, (a, b, c, d)))


@pytest.mark.parametrize("run", [triangulate, cliques_of], ids=["triangulate", "cliques_of"])
@pytest.mark.parametrize("foreign", [False, True], ids=["missing", "foreign"])
def test_cliques_of_rejects_an_order_that_misses_a_vertex(run, foreign):
    # a vertex left out, or one left out and an id past the graph's put in: no such order is built
    a, b = (chance_var(n, ("0", "1"), 0) for n in "ab")
    graph = graph_of((a, b), frozenset({frozenset((a, b))}))
    ids = (graph.index[a], len(graph.index)) if foreign else (graph.index[a],)
    with pytest.raises(OrderError, match="does not cover"):
        run(graph, EliminationOrder(ids, graph.index))


@pytest.mark.parametrize("run", [triangulate, cliques_of], ids=["triangulate", "cliques_of"])
def test_a_repeated_sequence_is_rejected_where_it_is_numbered(run):
    # EliminationOrder rejects ids that repeat a vertex before its stage check
    a, b = (chance_var(n, ("0", "1"), 0) for n in "ab")
    graph = graph_of((a, b), frozenset({frozenset((a, b))}))
    for sequence in ((a, a), (a, b, a)):
        with pytest.raises(OrderError, match="does not cover the graph's vertices once"):
            run(graph, order_on(graph, sequence))


def test_a_given_sequence_that_repeats_a_variable_keeps_its_message(golden):
    graph, vs = golden
    repeated = [vs[n] for n in GOLDEN_SEQUENCE] + [vs["b"]]
    with pytest.raises(OrderError, match="^sequence repeats a variable$"):
        strong_elimination_order(graph, given=repeated)


def test_a_given_sequence_is_mapped_to_the_graph_ids_once():
    # a vertex left out, a variable of no graph put in, or a vertex repeated: rejected before mapping
    a, b, z = (chance_var(n, ("0", "1"), 0) for n in "abz")
    graph = graph_of((a, b), frozenset({frozenset((a, b))}))
    for given in ((b, a), (a, b)):
        order = strong_elimination_order(graph, given=given)
        assert order.numbering is graph.index and list(order.ids) == [graph.index[v] for v in given]
    for given, why in (((a,), "permutation"), ((a, z), "permutation"), ((a, a), "permutation"),
                       ((a, b, a), "^sequence repeats a variable$")):
        with pytest.raises(OrderError, match=why):
            strong_elimination_order(graph, given=given)


def test_an_order_reads_its_sequence_off_its_ids(golden_model):
    # two same-rank ids of golden's min-fill order swapped: the sequence moves with them,
    # and no sequence can be given beside the ids
    graph = moralize(golden_model)
    ids = list(strong_elimination_order(graph).ids)
    assert graph.vertices[ids[0]].rank == graph.vertices[ids[1]].rank
    ids[:2] = ids[1::-1]
    order = EliminationOrder(tuple(ids), graph.index)
    assert order.sequence == tuple(graph.vertices[i] for i in ids)
    assert repr(order) == f"EliminationOrder(sequence={order.sequence!r})"
    assert order == EliminationOrder(tuple(ids), dict(graph.index))
    assert order != strong_elimination_order(graph)
    with pytest.raises(TypeError):
        EliminationOrder(tuple(ids), graph.index, order.sequence)


@pytest.mark.parametrize("run", [triangulate, cliques_of], ids=["triangulate", "cliques_of"])
def test_an_order_keeps_its_ids_only_on_the_graph_that_numbered_them(run):
    # an equal numbering of the same graph is still another graph's, and a vertex z
    # that sorts first shifts every id by one: both are rejected, not mapped again
    a, b, c, z = (chance_var(n, ("0", "1"), 0) for n in ("a", "b", "c", "_z"))
    edges = frozenset({frozenset((a, b)), frozenset((b, c))})
    graph = graph_of((a, b, c), edges)
    order = strong_elimination_order(graph)
    assert order.numbering is graph.index and [graph.vertices[i] for i in order.ids] == list(order.sequence)
    run(graph, order)
    for other in (graph_of((a, b, c), edges), graph_of((z, a, b, c), edges)):
        with pytest.raises(OrderError, match="^order is numbered by another graph$"):
            run(other, order)


def test_every_pass_hands_on_the_diagram_numbering(golden_model):
    graph = moralize(golden_model)
    assert graph.index is golden_model.index
    assert graph.vertices == tuple(golden_model.index)
    tri, _ = triangulate(graph, strong_elimination_order(graph))
    assert tri.index is graph.index


def _reference_cliques_of(graph, order):
    """The earlier cliques_of: re-simulate the elimination, then search each index.

    A clique's index is the number of its highest-numbered member v whose
    lower-numbered co-members all neighbour some lower-numbered outside vertex,
    or 1 if no member qualifies.
    """
    adj = _adjacency(graph)
    number = alpha(order)
    elim, up = {}, {}
    work = {v: set(ns) for v, ns in adj.items()}
    for v in order.sequence:
        nbrs = work[v]
        for a, b in itertools.combinations(nbrs, 2):
            if b not in work[a]:
                raise CompileError(
                    f"order does not perfectly eliminate the graph (gap at {v.name!r})"
                )
        elim[v] = frozenset(nbrs | {v})
        if nbrs:
            up[v] = max(nbrs, key=number.__getitem__)
        for nb in nbrs:
            work[nb].discard(v)
        del work[v]
    absorbed = {w for u, w in up.items() if len(elim[u]) == len(elim[w]) + 1}

    def index_of(c):
        best = 0
        for v in c:
            av = number[v]
            if av <= best:
                continue
            below = [w for w in c if number[w] < av]
            for u in adj[below[0]] if below else graph.vertices:
                if u in c or number[u] >= av:
                    continue
                if all(w in adj[u] for w in below):
                    best = av
                    break
        return best if best else 1

    cliques, _ = numbered([(c, index_of(c)) for v, c in elim.items() if v not in absorbed], graph.index)
    return sorted(cliques, key=lambda c: c.index)


def _pairs(cliques):
    return [(c.members, c.index) for c in cliques]


@pytest.mark.parametrize("heuristic", ["min-fill", "min-weight"])
def test_cliques_match_the_reference_on_compiled_graphs(golden_model, heuristic):
    for graph in _order_cases(golden_model):
        order = strong_elimination_order(graph, heuristic=heuristic)
        tri, _ = triangulate(graph, order)
        assert _pairs(cliques_of(tri, order)) == _pairs(_reference_cliques_of(tri, order))


def test_cliques_match_the_reference_on_golden_with_the_reference_order(golden):
    order, graph, _ = _golden_order(golden)
    tri, _ = triangulate(graph, order)
    assert _pairs(cliques_of(tri, order)) == _pairs(_reference_cliques_of(tri, order))


def _outcome(find, graph, order):
    try:
        return _pairs(find(graph, order))
    except CompileError:
        return None


def test_cliques_match_the_reference_under_arbitrary_orders():
    rng = random.Random(4)
    disconnected = raised = 0
    for _ in range(3000):
        n = rng.randint(1, 11)
        vs = [chance_var(f"v{i}", ("0", "1"), 0) for i in range(n)]
        p = rng.random()
        edges = frozenset(
            frozenset(e) for e in itertools.combinations(vs, 2) if rng.random() < p
        )
        graph = graph_of(tuple(vs), edges)
        order = order_on(graph, rng.sample(vs, n))
        tri, _ = triangulate(graph, order)
        expected = _reference_cliques_of(tri, order)
        assert _pairs(cliques_of(tri, order)) == _pairs(expected)
        # a clique sharing nothing with the lower-index ones starts a component
        starts = sum(
            1 for k, c in enumerate(expected) if not any(c.members & d.members for d in expected[:k])
        )
        disconnected += starts > 1
        # the untriangulated graph: both raise, or both return the same cliques
        raw = _outcome(cliques_of, graph, order)
        assert raw == _outcome(_reference_cliques_of, graph, order)
        raised += raw is None
    assert disconnected > 0 and raised > 0


def test_star_indices_follow_the_leaves():
    # leaves first, hub last: leaf i stops being maximal when it is eliminated,
    # except the last leaf, whose clique is the root
    n = 6001
    hub = chance_var("hub", ("0", "1"), 0)
    leaves = [chance_var(f"x{i:04d}", ("0", "1"), 0) for i in range(1, n)]
    graph = graph_of((*leaves, hub), frozenset(frozenset((x, hub)) for x in leaves))
    cliques = cliques_of(graph, order_on(graph, (*leaves, hub)))
    got = {c.index: c.members for c in cliques}
    assert len(got) == n - 1
    for i, x in enumerate(leaves[:-1], start=1):
        assert got[n + 1 - i] == {x, hub}
    assert got[1] == {leaves[-1], hub}


def _compiled_draws():
    for i in range(200):
        model = sweep_draw(i)
        tree, order, _, _, tri = compile_diagram(model)
        yield model, tree, order, tri


def test_initialize_hosts_like_a_linear_scan():
    for model, tree, _, _ in _compiled_draws():
        run = initialize(tree, model)

        def scan(domain):
            return next(c.index for c in tree.cliques if set(domain) <= c.members)

        hosted = {k: ([], []) for k in run.states}
        for v in model.chance_variables:
            hosted[scan(family(model, v))][0].append(v)
        for u in model.utilities:
            hosted[scan(u.domain)][1].append(u)
        for k, (cpts, utilities) in hosted.items():
            want_phi = set().union(*(family(model, v) for v in cpts))
            want_psi = set().union(*(u.domain for u in utilities))
            assert set(run.states[k][0].domain) == want_phi
            assert set(run.states[k][1].domain) == want_psi


def test_lowest_holders_tells_apart_variables_that_share_a_name():
    two = chance_var("x", ("0", "1"), 0)
    three = chance_var("x", ("0", "1", "2"), 0)
    y = chance_var("y", ("0", "1"), 0)
    tree = hand_tree([({two, y}, 1), ({three}, 2), ({three, y}, 3)], {2: 1, 3: 2}, 1)
    queries = [({three}, None), ({two}, None), ({three, y}, None), ({two, y}, None), ({three}, 2)]
    assert len(tree.index) == 3  # the two x's are two variables with two ids
    holders = [tree.lowest_holder([tree.index[v] for v in d], below) for d, below in queries]
    assert [h.index if h else None for h in holders] == [2, 1, 3, 1, None]


def test_a_tree_holds_each_variable_in_the_same_cliques_under_another_numbering(golden):
    compiled, _ = _golden_tree(golden)
    index = {v: i for i, v in enumerate(reversed(compiled.index))}  # the compiled ids, reversed
    tree = hand_tree([(c.members, c.index) for c in compiled.cliques], compiled.parent, compiled.root, index)
    union = frozenset().union(*(c.members for c in compiled.cliques))
    assert list(tree.index) != list(compiled.index)
    holders = {v: tree.holding[i] for v, i in tree.index.items()}
    assert holders == {v: compiled.holding[compiled.index[v]] for v in union}


def test_tree_links_follow_the_elimination_tree():
    # the walk of a clique covers its members numbered at or above its index;
    # the clique ending at y hangs below the clique whose walk holds up(y)
    for _, tree, order, tri in _compiled_draws():
        number = alpha(order)
        adj = _adjacency(tri)
        walks = [(v, c.index) for c in tree.cliques for v in c.members if number[v] >= c.index]
        owner = dict(walks)
        assert len(owner) == len(walks) == len(number)  # every vertex on exactly one walk
        by_number = {a: v for v, a in number.items()}
        expected = {}
        for c in tree.cliques:
            later = [w for w in adj[by_number[c.index]] if number[w] < c.index]
            if later:
                expected[c.index] = owner[max(later, key=number.__getitem__)]
            elif c.index != tree.root:
                expected[c.index] = tree.root  # empty separator
        assert tree.parent == expected


# ---------------------------------------------------------------------------
# tree assembly and verification


def _golden_tree(golden):
    order, graph, vs = _golden_order(golden)
    tri, _ = triangulate(graph, order)
    return build_strong_tree(cliques_of(tri, order), tri.index), vs


def test_golden_parent_links(golden):
    tree, _ = _golden_tree(golden)
    assert tree.parent == GOLDEN_PARENT_LINKS
    assert tree.root == 1


def test_alternative_attachment_would_also_hold_separator(golden):
    # the separator {e} of C5 also fits C10; the builder still picks C1,
    # the lowest-index container
    tree, vs = _golden_tree(golden)
    sep = tree.separator(5)
    assert sep == {vs["e"]}
    c10 = tree.clique(10)
    assert sep <= c10.members
    assert tree.parent[5] == 1


def test_single_clique_tree_has_no_edges():
    a = chance_var("a", ("0", "1"), 0)
    tree = build_strong_tree(*numbered([({a}, 1)]))
    assert tree.parent == {}
    assert tree.root == 1


def test_running_intersection_violation_detected():
    a = chance_var("a", ("0", "1"), 0)
    b = chance_var("b", ("0", "1"), 0)
    c = chance_var("c", ("0", "1"), 0)
    disjoint = numbered([({a, b}, 1), ({c}, 2)])
    tree = build_strong_tree(*disjoint)  # empty separator attaches to the root
    assert tree.parent == {2: 1}

    overlapping = numbered([({a}, 1), ({b, c}, 2), ({a, c}, 3)])
    # separator of clique 3 is {a, c}: no single earlier clique holds both
    with pytest.raises(CompileError, match="running intersection"):
        build_strong_tree(*overlapping)


def test_a_tree_needs_a_clique():
    with pytest.raises(CompileError, match="^no cliques$"):
        build_strong_tree([], {})


def test_a_parent_link_for_every_clique_is_not_a_tree(golden):
    tree, _ = _golden_tree(golden)
    n = len(tree.cliques)
    looped = StrongJunctionTree(tree.cliques, {**tree.parent, tree.root: n}, tree.root, tree.index)
    assert verify_strong(looped) == [Violation("tree", f"{n} parent links for {n} cliques")]


def test_a_compiled_tree_that_fails_its_check_is_an_invariant_breach(golden_model, monkeypatch):
    planted = Violation("junction", "planted")
    monkeypatch.setattr(compiler, "verify_strong", lambda tree: [planted])
    with pytest.raises(CompileError, match="^junction: planted$"):
        compile_diagram(golden_model)
    code, report = cli.run(cli.RunConfig(str(MODELS / "golden.idm")))
    assert (code, report) == (3, "internal invariant breach: junction: planted\n")


def test_verify_strong_accepts_the_golden_tree(golden):
    tree, _ = _golden_tree(golden)
    assert verify_strong(tree) == []


def test_junction_property_violation_on_rewired_edge(golden):
    tree, vs = _golden_tree(golden)
    broken = StrongJunctionTree(tree.cliques, {**tree.parent, 8: 6}, tree.root, tree.index)
    problems = verify_strong(broken)
    junction = [p for p in problems if p.kind == "junction"]
    assert junction, problems
    assert any("D2" in p.message for p in junction)


def _rerooted(tree, root):
    """The same undirected edges, reoriented away from clique ``root``."""
    adj = {}
    for x, y in tree.parent.items():
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    new_parent = {}
    seen = {root}
    frontier = [root]
    while frontier:
        cur = frontier.pop()
        for nb in sorted(adj[cur]):
            if nb not in seen:
                seen.add(nb)
                new_parent[nb] = cur
                frontier.append(nb)
    return StrongJunctionTree(tree.cliques, new_parent, root, tree.index)


def test_strong_root_violations_after_rerooting(golden):
    tree, _ = _golden_tree(golden)
    problems = verify_strong(_rerooted(tree, 16))
    assert any(p.kind == "strong-root" for p in problems)


def test_strong_root_messages_do_not_depend_on_the_hash_seed():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from conftest import golden_moral_graph\n"
        "from test_compiler import _golden_tree, _rerooted, verify_strong\n"
        "tree, _ = _golden_tree(golden_moral_graph())\n"
        "print(*verify_strong(_rerooted(tree, 16)), sep='\\n')\n"
    )
    here = Path(__file__).parent
    outs = [
        subprocess.run(
            [sys.executable, "-c", code, str(here), str(here.parent / "src")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    assert outs[0].count("strong-root:") > 1


def test_compiled_random_models_pass_all_structure_checks():
    for seed in range(30):
        model = random_model(seed + 900)
        tree, order, fills, moral, tri = compile_diagram(model)
        assert verify_strong(tree) == []
        ranks = [v.rank for v in order.sequence]
        assert all(x >= y for x, y in zip(ranks, ranks[1:]))
        _, refills = triangulate(tri, order)
        assert refills == []
        indices = [c.index for c in tree.cliques]
        assert len(set(indices)) == len(indices)
        assert indices[0] == 1
        # every family and utility domain fits inside some clique
        for v in model.chance_variables:
            fam = set(family(model, v))
            assert any(fam <= c.members for c in tree.cliques)
        for u in model.utilities:
            assert any(set(u.domain) <= c.members for c in tree.cliques)


def _disconnected_variables(tree):
    """Names of variables whose cliques induce a disconnected subtree, by networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph(tree.parent.items())
    graph.add_nodes_from(c.index for c in tree.cliques)
    return {
        v.name
        for v in frozenset().union(*(c.members for c in tree.cliques))
        if not nx.is_connected(graph.subgraph(c.index for c in tree.cliques if v in c.members))
    }


def _subtree(tree, index):
    out, stack = set(), [index]
    while stack:
        k = stack.pop()
        out.add(k)
        stack.extend(tree.children(k))
    return out


def _assert_junction_matches_networkx(tree):
    junction = [p.message for p in verify_strong(tree) if p.kind == "junction"]
    split = _disconnected_variables(tree)
    assert len(junction) == len(split)
    assert all(any(f"'{name}'" in m for m in junction) for name in split)


def test_junction_check_agrees_with_networkx_on_compiled_trees():
    for seed in range(30):
        tree, *_ = compile_diagram(random_model(seed + 900))
        _assert_junction_matches_networkx(tree)


def test_junction_check_agrees_with_networkx_on_rewired_golden_trees(golden):
    tree, _ = _golden_tree(golden)
    rewired = 0
    for child, par in tree.parent.items():
        below = _subtree(tree, child)
        for c in tree.cliques:
            if c.index in below or c.index == par:
                continue
            broken = StrongJunctionTree(tree.cliques, {**tree.parent, child: c.index}, tree.root, tree.index)
            _assert_junction_matches_networkx(broken)
            rewired += 1
    assert rewired > 0


def _pairwise_running_intersection(tree):
    """Indices of the cliques whose separator fits no lower-index clique, pair by pair."""
    out, earlier = [], set()
    for c in tree.cliques:
        if c.index != tree.root:
            sep = c.members & earlier
            if not any(d.index < c.index and sep <= d.members for d in tree.cliques):
                out.append(c.index)
        earlier |= c.members
    return out


def _running_intersection(tree):
    problems = [p.message for p in verify_strong(tree) if p.kind == "running-intersection"]
    return [int(m.split()[3]) for m in problems]


def test_running_intersection_matches_the_pairwise_scan(golden):
    tree, _ = _golden_tree(golden)
    trees = [tree]
    for child in tree.parent:
        below = _subtree(tree, child)
        for c in tree.cliques:
            if c.index not in below:
                trees.append(StrongJunctionTree(tree.cliques, {**tree.parent, child: c.index}, 1, tree.index))
    for seed in range(30):
        trees.append(compile_diagram(random_model(seed + 900))[0])
    flagged = 0
    for t in trees:
        for cliques in (t.cliques, t.cliques[::-1], t.cliques[1::2] + t.cliques[::2]):
            shuffled = StrongJunctionTree(cliques, t.parent, t.root, t.index)
            expected = _pairwise_running_intersection(shuffled)
            assert _running_intersection(shuffled) == expected
            flagged += bool(expected)
    assert flagged > 0


def _reference_build_strong_tree(cliques):
    """The former build_strong_tree, on holder bitsets keyed by Variable: (parent, root)."""
    ordered = sorted(cliques, key=lambda c: c.index)
    seen, holding, parent = 0, {}, {}
    for c in ordered:
        if seen:
            bits = seen
            for v in c.members:
                bits &= holding.get(v, seen)
            if not bits:
                raise CompileError(f"running intersection violated at clique {c.index}")
            parent[c.index] = (bits & -bits).bit_length() - 1
        seen |= 1 << c.index
        for v in c.members:
            holding[v] = holding.get(v, 0) | 1 << c.index
    return parent, ordered[0].index


def _reference_verify_strong(tree):
    """The former verify_strong, on holder bitsets keyed by Variable."""
    holding = {}
    for c in tree.cliques:
        for v in c.members:
            holding[v] = holding.get(v, 0) | 1 << c.index
    every = sum(1 << k for k in {c.index for c in tree.cliques})
    indices = [c.index for c in tree.cliques]
    if tree.root not in indices:
        return [("tree", f"root {tree.root} is not a clique index")]
    reached, stack = set(), [tree.root]
    while stack:
        if (k := stack.pop()) not in reached:
            reached.add(k)
            stack += tree.children(k)
    for k in indices:
        if k not in reached:
            return [("tree", f"clique {k} is not connected to the root")]
    if len(tree.parent) != len(indices) - 1:
        return [("tree", f"{len(tree.parent)} parent links for {len(indices)} cliques")]
    out = []
    pieces = {v: bits.bit_count() for v, bits in holding.items()}
    for child in tree.parent:
        for v in tree.separator(child):
            pieces[v] -= 1
    for v in sorted((v for v, n in pieces.items() if n != 1), key=lambda v: v.name):
        out.append(("junction", f"the cliques holding {v.name!r} split into {pieces[v]} disconnected parts"))
    earlier = set()
    for c in tree.cliques:
        if c.index != tree.root:
            bits = every & (1 << c.index) - 1
            for v in c.members & earlier:
                bits &= holding.get(v, 0)
            if not bits:
                out.append(("running-intersection", f"separator of clique {c.index} fits no earlier clique"))
        earlier |= c.members
    for child, par in tree.parent.items():
        sep = tree.separator(child)
        rest = tree.clique(child).members - sep
        for s, w in sorted((s.name, w.name) for s in sep for w in rest if s.rank > w.rank):
            out.append(("strong-root", f"edge {par}->{child}: separator member {s!r} comes after "
                                       f"{w!r}; no ordering of the child respects precedence"))
    return out


def _assert_tree_matches_the_reference(cliques, index):
    try:
        want = _reference_build_strong_tree(cliques)
    except CompileError as e:
        with pytest.raises(CompileError, match=f"^{e}$"):
            build_strong_tree(cliques, index)
        return
    tree = build_strong_tree(cliques, index)
    assert list(tree.parent.items()) == list(want[0].items())  # filled in the same order
    assert tree.root == want[1]
    assert verify_strong(tree) == _reference_verify_strong(tree)
    rebuilt = StrongJunctionTree(tree.cliques, dict(tree.parent), tree.root, index)  # links made at construction
    assert all(tree.children(c.index) == rebuilt.children(c.index) for c in tree.cliques)


def test_tree_assembly_matches_the_reference_on_the_sweep_structures(golden_model, tiny_model):
    # the 1000 random structures of the benchmark's sweep, then golden and tiny
    models = [sweep_draw(i) for i in range(1000)]
    for model in models + [golden_model, tiny_model]:
        graph = moralize(model)
        order = strong_elimination_order(graph)
        tri, _ = triangulate(graph, order)
        _assert_tree_matches_the_reference(cliques_of(tri, order), tri.index)


def test_tree_checks_match_the_reference_on_hand_built_and_mutated_trees(golden):
    tree, _ = _golden_tree(golden)
    trees = [tree, *(_rerooted(tree, c.index) for c in tree.cliques)]
    for child in tree.parent:
        for c in tree.cliques:
            if c.index != child:  # rewired, including into the child's own subtree
                trees.append(StrongJunctionTree(tree.cliques, {**tree.parent, child: c.index}, 1, tree.index))
    trees.append(StrongJunctionTree(tree.cliques, dict(list(tree.parent.items())[1:]), 1, tree.index))
    trees.append(StrongJunctionTree(tree.cliques, tree.parent, 99, tree.index))
    for t in trees:
        for cliques in (t.cliques, t.cliques[::-1], t.cliques[1::2] + t.cliques[::2]):
            # compiled, and renumbered by hand
            for cs, index in ((cliques, t.index), numbered([(c.members, c.index) for c in cliques])):
                shuffled = StrongJunctionTree(cs, t.parent, t.root, index)
                assert verify_strong(shuffled) == _reference_verify_strong(shuffled)
    kinds = Counter(p.kind for t in trees for p in verify_strong(t))
    assert all(kinds[k] for k in ("tree", "junction", "running-intersection", "strong-root")), kinds
    a, b, c = (chance_var(n, ("0", "1"), 0) for n in "abc")
    xs = [chance_var(f"x{i}", ("0", "1"), 0) for i in range(3001)]
    for cliques in (numbered([({a}, 1)]),
                    numbered([({a, b}, 1), ({c}, 2)]),
                    numbered([({a}, 1), ({b, c}, 2), ({a, c}, 3)]),
                    numbered([({xs[i - 1], xs[i]}, i) for i in range(3000, 0, -1)]),
                    (list(tree.cliques)[::-1], tree.index)):
        _assert_tree_matches_the_reference(*cliques)


def test_verify_strong_accepts_a_3000_clique_path():
    xs = [chance_var(f"x{i}", ("0", "1"), 0) for i in range(3001)]
    cliques, index = numbered([({xs[i - 1], xs[i]}, i) for i in range(1, 3001)])
    tree = StrongJunctionTree(cliques, {i: i - 1 for i in range(2, 3001)}, 1, index)
    assert verify_strong(tree) == []
    assert build_strong_tree(cliques, index).parent == tree.parent


# ---------------------------------------------------------------------------
# DOT export


def test_dot_outputs_are_well_formed(golden, golden_model):
    tree, _ = _golden_tree(golden)
    graph, _ = golden
    order, _, _ = _golden_order(golden)
    tri, fills = triangulate(graph, order)
    moral_dot = moral_to_dot(graph)
    tri_dot = triangulated_to_dot(tri, fills)
    tree_dot = tree_to_dot(tree)
    assert moral_dot.startswith("graph moral {") and moral_dot.rstrip().endswith("}")
    assert '"D1" [shape=box];' in moral_dot
    assert tri_dot.count("style=dashed") == 9
    assert 'C5 [label="C5: D2, e, g"]' in tree_dot
    assert 'C5 -> C1 [label="e"]' in tree_dot
