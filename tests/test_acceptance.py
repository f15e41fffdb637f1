"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import subprocess
import sys
import time
from itertools import permutations

import numpy as np
import pytest

from idjt import (
    Table,
    UndefinedDivisionError,
    brute_force,
    build_strong_tree,
    chance_var,
    cliques_of,
    compile_diagram,
    decision_var,
    divide,
    extend,
    initialize,
    marg_all,
    max_out,
    multiply,
    rollout,
    solve,
    strong_elimination_order,
    sum_out,
    triangulate,
    verify_strong,
)
from idjt.solver import absorb, collect, extract_policies
from idjt.randmodels import random_model

from conftest import (
    GOLDEN_CLIQUES,
    GOLDEN_FILLS,
    GOLDEN_PARENT_LINKS,
    GOLDEN_POLICY_CLIQUES,
    GOLDEN_SEQUENCE,
    MODELS,
    ORACLE_SEEDS,
    global_pair,
    golden_moral_graph,
    var,
)

REL_TOL = 1e-9

ABSORPTION_SEEDS = list(range(100))


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


@pytest.fixture(scope="module")
def oracle_suite():
    """Solve and oracle-check 200 seeded models; shared by criteria 2 and 4."""
    rows = []
    t0 = time.perf_counter()
    for seed in ORACLE_SEEDS:
        model = random_model(seed, structural_zeros=seed % 2 == 1)
        tree, order, fills, moral, tri = compile_diagram(model)
        run = initialize(tree, model)
        collect(run)
        result = extract_policies(run)
        ref = brute_force(model)
        achieved = rollout(model, list(result.policies))
        rows.append(
            {
                "seed": seed,
                "model": model,
                "run": run,
                "meu": result.meu,
                "oracle": ref.meu,
                "achieved": achieved,
            }
        )
    return rows, time.perf_counter() - t0


def test_criterion_1_golden_compilation():
    t0 = time.perf_counter()
    graph, vs = golden_moral_graph()
    order = strong_elimination_order(graph, given=[vs[n] for n in GOLDEN_SEQUENCE])
    tri, fills = triangulate(graph, order)
    cliques = cliques_of(tri, order)
    tree = build_strong_tree(cliques, tri.index)

    ok_fills = {frozenset(v.name for v in f) for f in fills} == GOLDEN_FILLS
    ok_cliques = {c.index: {v.name for v in c.members} for c in cliques} == GOLDEN_CLIQUES
    ok_links = tree.parent == GOLDEN_PARENT_LINKS

    # policies need numeric potentials: the bundled model file realizes this
    # moral graph exactly (checked), then the solved tree gives the map
    from idjt import moralize, parse_model

    model = parse_model((MODELS / "golden.idm").read_text())
    same_graph = {frozenset(v.name for v in e) for e in moralize(model).edges} == {
        frozenset(v.name for v in e) for e in graph.edges
    }
    mtree, *_ = compile_diagram(model, given=[var(model, n) for n in GOLDEN_SEQUENCE])
    result = solve(mtree, model)
    ok_policy = result.policy_clique == GOLDEN_POLICY_CLIQUES
    d2_domain = {v.name for p in result.policies if p.decision.name == "D2" for v in p.domain}
    ok_domain = d2_domain == {"e"}
    elapsed = time.perf_counter() - t0

    _report(
        1,
        "golden-compilation",
        ok_fills and ok_cliques and ok_links and same_graph and ok_policy and ok_domain
        and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_oracle_equivalence(oracle_suite):
    rows, elapsed = oracle_suite
    worst_meu = max(_rel_err(r["meu"], r["oracle"]) for r in rows)
    worst_policy = max(_rel_err(r["achieved"], r["oracle"]) for r in rows)
    ok = (
        len(rows) >= 200
        and worst_meu <= REL_TOL
        and worst_policy <= REL_TOL
        and elapsed < 60.0
    )
    _report(
        2,
        "oracle-equivalence",
        ok,
        f"{len(rows)} models, worst meu err {worst_meu:.2e}, "
        f"worst policy err {worst_policy:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_absorption_preserves_contraction():
    checked = 0
    worst = 0.0
    for seed in ABSORPTION_SEEDS:
        model = random_model(seed + 31000, max_variables=10, max_states=2,
                             structural_zeros=seed % 3 == 0)
        tree, *_ = compile_diagram(model)
        run = initialize(tree, model)
        phi_all, psi_all = global_pair(run)
        for c in sorted(tree.cliques, key=lambda c: -c.index):
            if c.index == tree.root:
                continue
            absorb(run, c.index)
            live_vars = set()
            for d in tree.cliques:
                if d.index in run.states:
                    live_vars |= d.members
            gone = set(model.variables) - live_vars
            want_phi, want_psi = marg_all([phi_all, psi_all], gone)
            got_phi, got_psi = global_pair(run)
            want = multiply(want_phi, want_psi)
            got = multiply(got_phi, got_psi)
            dom = set(want.domain) | set(got.domain)
            a = extend(got, dom).values
            b = extend(want, dom).values
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
            worst = max(worst, float(np.max(np.abs(a - b) / scale)))
            checked += 1
    ok = checked >= 100 and worst <= REL_TOL
    _report(3, "absorption-contraction", ok, f"{checked} absorptions, worst {worst:.2e}")


def test_criterion_4_max_step_constancy(oracle_suite):
    rows, _ = oracle_suite
    # every solve in the suite finished, so no constancy assertion fired;
    # the recorded worst spread quantifies the margin
    worst = max(r["run"].constancy_worst for r in rows)
    steps = sum(len(r["run"].max_steps) for r in rows)
    ok = worst <= REL_TOL and steps > 0
    _report(4, "max-step-constancy", ok, f"{steps} max steps, worst spread {worst:.2e}")


def test_criterion_5_structural_suite():
    seeds = [(s, {}) for s in ORACLE_SEEDS[:100]] + [
        (s + 31000, {"max_variables": 10, "max_states": 2}) for s in ABSORPTION_SEEDS
    ]
    checked = 0
    for seed, kw in seeds:
        model = random_model(seed, **kw)
        tree, order, fills, moral, tri = compile_diagram(model)
        assert verify_strong(tree) == []
        ranks = [v.rank for v in order.sequence]
        assert all(x >= y for x, y in zip(ranks, ranks[1:]))
        _, refills = triangulate(tri, order)
        assert refills == []
        checked += 1
    graph, vs = golden_moral_graph()
    order = strong_elimination_order(graph, given=[vs[n] for n in GOLDEN_SEQUENCE])
    tri, fills = triangulate(graph, order)
    tree = build_strong_tree(cliques_of(tri, order), tri.index)
    assert verify_strong(tree) == []
    _report(5, "strong-tree-structure", True, f"{checked + 1} compilations")


def test_criterion_6_table_algebra():
    a = chance_var("a", ("0", "1"), 0)
    d = decision_var("D", ("0", "1"), 1)

    ok_quotient = float(divide(Table.scalar(0.0), Table.scalar(0.0)).values) == 0.0
    try:
        divide(Table.scalar(2.0), Table.scalar(0.0))
        ok_error = False
    except UndefinedDivisionError:
        ok_error = True

    witness = Table.from_flat([a, d], [0.0, 2.0, 2.0, 0.0])
    ok_witness = float(max_out(sum_out(witness, a), d).values) != float(
        sum_out(max_out(witness, d), a).values
    )

    rng = np.random.default_rng(2024)
    ok_orders = True
    for _ in range(50):
        e1 = chance_var("e1", ("0", "1"), 1)
        e2 = chance_var("e2", ("0", "1", "2"), 1)
        e3 = chance_var("e3", ("0", "1"), 1)
        phi = Table.from_flat([e1, e2, e3], rng.uniform(0.0, 1.0, 12))
        psi = Table.from_flat([e2, e3], rng.uniform(-5.0, 5.0, 6))
        base = None
        for perm in permutations([e1, e2, e3]):
            got = marg_all([phi, psi], perm)
            if base is None:
                base = got
            else:
                ok_orders &= got[0].equals(base[0], rtol=1e-12, atol=1e-300)
                ok_orders &= got[1].equals(base[1], rtol=1e-12, atol=1e-300)
    _report(6, "table-algebra", ok_quotient and ok_error and ok_witness and ok_orders)


def test_criterion_7_cli_determinism():
    cmd = [
        sys.executable,
        "-m",
        "idjt.cli",
        "solve",
        str(MODELS / "golden.idm"),
        "--order",
        ",".join(GOLDEN_SEQUENCE),
        "--policies",
        "--stats",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    _report(7, "cli-determinism", ok, f"{len(first.stdout)} bytes")
