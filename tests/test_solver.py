"""Initialization, absorption, collect, MEU, and policy extraction."""

import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idjt import (
    InvariantError,
    Table,
    absorb,
    add,
    chance_var,
    collect,
    compile_diagram,
    decision_var,
    extend,
    initialize,
    marg_all,
    meu,
    multiply,
    parse_model,
    solve,
)
from idjt import solver
from idjt.solver import extract_policies
from idjt.oracle import brute_force, joint_probability, rollout, total_utility
from idjt.randmodels import random_model

from conftest import GOLDEN_POLICY_CLIQUES, family, global_pair, hand_tree, var


def _solved(model):
    tree, order, fills, moral, tri = compile_diagram(model)
    run = collect(initialize(tree, model))
    return run, extract_policies(run)


# ---------------------------------------------------------------------------
# initialize


def test_initialize_reconstructs_joint_and_utility():
    for seed in range(15):
        model = random_model(seed + 40, max_variables=6)
        tree, *_ = compile_diagram(model)
        run = initialize(tree, model)
        phi, psi = global_pair(run)
        order = sorted(model.variables, key=lambda v: (v.rank, v.name))
        want_phi = joint_probability(model, order)
        want_psi = total_utility(model, order)
        got_phi = extend(phi, order).to_flat(order).reshape(want_phi.shape)
        got_psi = extend(psi, order).to_flat(order).reshape(want_psi.shape)
        assert np.allclose(got_phi, want_phi, rtol=1e-12, atol=0)
        assert np.allclose(got_psi, want_psi, rtol=1e-12, atol=0)


def test_assignment_goes_to_lowest_index_clique(golden_model):
    tree, *_ = compile_diagram(
        golden_model,
        given=[var(golden_model, n) for n in
               ["l", "j", "k", "i", "h", "a", "c", "d", "D4", "g", "D3", "D2", "f", "e", "D1", "b"]],
    )
    run = initialize(tree, golden_model)
    # e's family {c, d, e} fits only clique 10; b's family fits the root
    e = var(golden_model, "e")
    assert e in run.states[10][0].domain
    assert set(run.states[1][0].domain) >= set(family(golden_model, var(golden_model, "b")))


def test_unassigned_cliques_share_one_read_only_unit_and_null_table(tiny_model):
    x, d = var(tiny_model, "x"), var(tiny_model, "D")
    tree = hand_tree([({x, d}, 1), ({d}, 2), ({d}, 3)], {2: 1, 3: 1}, 1, tiny_model.index)
    run = initialize(tree, tiny_model)
    unit, null = run.states[2]  # clique 2 and 3 hold no factor
    assert run.states[3][0] is unit and run.states[3][1] is null
    for shared in (unit, null):
        assert not shared.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared.values[()] = 7.0
    collect(run)  # absorbing replaces the parent's potentials, never writes into them
    assert float(unit.values) == 1.0 and float(null.values) == 0.0
    assert meu(run) == solve(compile_diagram(tiny_model)[0], tiny_model).meu


def test_initialize_rejects_a_tree_numbered_by_another_diagram(tiny_model):
    # a variable that sorts before D shifts the tree's ids away from the diagram's;
    # an equal copy of the diagram's numbering is another numbering all the same
    x, d, a = var(tiny_model, "x"), var(tiny_model, "D"), chance_var("a", ("0", "1"), 0)
    run = initialize(hand_tree([({d}, 1), ({d, x}, 2)], {2: 1}, 1, tiny_model.index), tiny_model)
    assert set(run.states[2][0].domain) == {d, x} and set(run.states[2][1].domain) == {x}
    assert run.states[1][0].domain == () and run.states[1][1].is_null()
    shifted = hand_tree([({a, d}, 1), ({d, x}, 2)], {2: 1}, 1)
    assert shifted.index == {a: 0, d: 1, x: 2}
    for tree in (shifted, hand_tree([({d}, 1), ({d, x}, 2)], {2: 1}, 1, dict(tiny_model.index))):
        with pytest.raises(InvariantError, match="^the tree is not numbered by the diagram's ids$"):
            initialize(tree, tiny_model)


def test_initialize_names_the_factor_no_clique_holds(tiny_model):
    x, d = var(tiny_model, "x"), var(tiny_model, "D")
    tree = hand_tree([({x}, 1), ({d}, 2)], {2: 1}, 1, tiny_model.index)
    with pytest.raises(InvariantError, match=r"no clique contains the family of 'x' \['D', 'x'\]"):
        initialize(tree, tiny_model)


def test_no_utilities_means_zero_meu():
    model = parse_model(
        "decision D states u v index 1\nchance x states 0 1 stage 1\n"
        "cpt x given D : .5 .5 .25 .75\n"
    )
    tree, *_ = compile_diagram(model)
    assert solve(tree, model).meu == 0.0


# ---------------------------------------------------------------------------
# absorb


def _two_clique_run(phi1, psi1, phi2, psi2, c1, c2):
    from idjt.solver import SolveRun

    tree = hand_tree([(c1, 1), (c2, 2)], {2: 1}, 1)
    placeholder = parse_model("chance zzz states 0 1 stage 0\ncpt zzz : .5 .5\n")
    return SolveRun(tree, placeholder, {1: [phi1, psi1], 2: [phi2, psi2]})


A = chance_var("a", ("0", "1"), 0)
B = chance_var("b", ("0", "1"), 0)
C = chance_var("c", ("0", "1"), 0)


def test_absorbing_unit_child_changes_nothing():
    phi1 = Table.from_flat([A], [0.5, 0.5])
    psi1 = Table.from_flat([A], [1.0, 2.0])
    run = _two_clique_run(phi1, psi1, Table.unit(), Table.null(), {A, B}, {A, B})
    absorb(run, 2)
    assert run.states[1][0].equals(phi1)
    assert run.states[1][1].equals(psi1)


def test_absorption_with_empty_marginalization_merges_potentials():
    phi1 = Table.from_flat([A], [0.5, 0.5])
    psi1 = Table.from_flat([A], [1.0, 2.0])
    phi2 = Table.from_flat([A, B], [0.2, 0.8, 0.6, 0.4])
    psi2 = Table.from_flat([B], [3.0, -1.0])
    # separator equals the child clique: nothing is eliminated
    run = _two_clique_run(phi1, psi1, phi2, psi2, {A, B}, {A, B})
    absorb(run, 2)
    assert run.states[1][0].equals(multiply(phi1, phi2))
    assert run.states[1][1].equals(add(psi1, psi2))


def test_absorb_rejects_child_with_live_children():
    x = chance_var("x", ("0", "1"), 0)
    tree = hand_tree([({A}, 1), ({A, B}, 2), ({B, x}, 3)], {2: 1, 3: 2}, 1)
    model = parse_model("chance zzz states 0 1 stage 0\ncpt zzz : .5 .5\n")
    from idjt.solver import SolveRun

    states = {k: [Table.unit(), Table.null()] for k in (1, 2, 3)}
    run = SolveRun(tree, model, states)
    with pytest.raises(InvariantError, match="live children"):
        absorb(run, 2)


def test_absorb_rejects_the_root(tiny_model):
    tree, *_ = compile_diagram(tiny_model)
    run = initialize(tree, tiny_model)
    with pytest.raises(InvariantError, match="is the root: meu contracts it, not absorb"):
        absorb(run, tree.root)
    assert meu(run) == 6.0


def test_absorption_preserves_global_contraction_on_two_clique_trees():
    rng = np.random.default_rng(11)
    x1 = chance_var("x1", ("0", "1"), 1)
    d1 = decision_var("D1", ("0", "1"), 1)
    for trial in range(40):
        sep_vars = {A}
        child_extra = {x1, d1} if trial % 2 else {x1}
        child = sep_vars | child_extra
        parent = {A, B}
        phi1 = Table.from_flat(sorted(parent, key=lambda v: (v.rank, v.name)), rng.uniform(0.0, 1.0, 4))
        psi1 = Table.from_flat([B], rng.uniform(-5, 5, 2))
        cdom = sorted(child, key=lambda v: (v.rank, v.name))
        n = int(np.prod([len(v.states) for v in cdom]))
        # the probability potential must be constant in the decision once the
        # later chance variables are summed away (as it is for real models);
        # drawing it without the decision axis guarantees that
        pdom = [v for v in cdom if not v.is_decision]
        np_cells = int(np.prod([len(v.states) for v in pdom]))
        phi2 = extend(Table.from_flat(pdom, rng.uniform(0.0, 1.0, np_cells)), cdom)
        psi2 = Table.from_flat(cdom, rng.uniform(-5, 5, n))
        run = _two_clique_run(phi1, psi1, phi2, psi2, parent, child)

        phi_t = multiply(phi1, phi2)
        rho_t = multiply(phi_t, add(psi1, psi2))
        absorb(run, 2)

        # contraction of the absorbed tree equals the global contraction
        got = multiply(run.states[1][0], run.states[1][1])
        want_phi, want_psi = marg_all([phi_t, add(psi1, psi2)], child - sep_vars)
        want = multiply(want_phi, want_psi)
        dom = set(got.domain) | set(want.domain)
        assert extend(got, dom).equals(extend(want, dom), rtol=1e-9, atol=1e-12)
        del rho_t


# ---------------------------------------------------------------------------
# collect / meu


def test_single_clique_tree_collect_is_noop(tiny_model):
    tree, *_ = compile_diagram(tiny_model)
    run = initialize(tree, tiny_model)
    collect(run)
    assert run.states.keys() == {c.index for c in tree.cliques}
    assert meu(run) == 6.0


def test_collect_releases_every_absorbed_clique(golden_model):
    tree, *_ = compile_diagram(golden_model)
    run = collect(initialize(tree, golden_model))
    assert run.states.keys() == {tree.root}
    phi, psi = global_pair(run)
    assert phi.equals(run.states[tree.root][0]) and psi.equals(run.states[tree.root][1])


def test_chain_of_two_cliques_equals_one_absorb():
    model = parse_model(
        "chance a states 0 1 stage 0\nchance b states 0 1 stage 0\nchance c states 0 1 stage 0\n"
        "cpt a : .3 .7\ncpt b given a : .2 .8 .9 .1\ncpt c given b : .6 .4 .5 .5\n"
        "utility u over c : 4 -2\n"
    )
    tree, *_ = compile_diagram(model)
    assert len(tree.cliques) == 2
    run1 = initialize(tree, model)
    collect(run1)
    run2 = initialize(tree, model)
    absorb(run2, tree.cliques[1].index)
    assert run1.states[tree.root][0].equals(run2.states[tree.root][0])
    assert run1.states[tree.root][1].equals(run2.states[tree.root][1])


def test_collect_matches_global_contraction_on_small_models():
    for seed in range(25):
        model = random_model(seed + 600, max_variables=8, max_states=2,
                             structural_zeros=seed % 4 == 0)
        tree, *_ = compile_diagram(model)
        run = initialize(tree, model)
        phi_all, psi_all = global_pair(run)
        collect(run)
        root_members = tree.clique(tree.root).members
        gone = set(model.variables) - root_members
        want_phi, want_psi = marg_all([phi_all, psi_all], gone)
        got_phi, got_psi = run.states[tree.root]
        got = multiply(got_phi, got_psi)
        want = multiply(want_phi, want_psi)
        dom = set(got.domain) | set(want.domain)
        assert extend(got_phi, dom).equals(extend(want_phi, dom), rtol=1e-9, atol=1e-12)
        assert extend(got, dom).equals(extend(want, dom), rtol=1e-9, atol=1e-12)


def test_tiny_meu_and_policy(tiny_model):
    tree, *_ = compile_diagram(tiny_model)
    result = solve(tree, tiny_model)
    assert result.meu == pytest.approx(6.0, rel=1e-12)
    (policy,) = result.policies
    assert policy.decision.name == "D"
    assert policy.domain == ()
    assert int(policy.choice.values) == 1  # second alternative


def test_zero_total_mass_is_an_invariant_breach():
    # only reachable by skipping validation: an all-zero cpt
    from idjt import InfluenceDiagram

    a = chance_var("a", ("0", "1"), 0)
    broken = InfluenceDiagram((a,), {"a": ()}, {"a": Table.from_flat([a], [0.0, 0.0])}, ())
    tree, *_ = compile_diagram(broken)
    run = collect(initialize(tree, broken))
    with pytest.raises(InvariantError, match="zero total probability mass"):
        meu(run)


def test_no_decision_model_returns_prior_expected_utility():
    model = parse_model(
        "chance a states 0 1 stage 0\nchance b states 0 1 stage 0\n"
        "cpt a : .25 .75\ncpt b given a : .5 .5 .1 .9\nutility u over b : 8 -4\n"
    )
    tree, *_ = compile_diagram(model)
    result = solve(tree, model)
    # direct expectation: P(b=0)*8 + P(b=1)*(-4)
    pb0 = 0.25 * 0.5 + 0.75 * 0.1
    want = pb0 * 8 + (1 - pb0) * -4
    assert result.meu == pytest.approx(want, rel=1e-12)
    assert result.policies == ()


def test_utility_shift_moves_meu_and_keeps_policies():
    base = random_model(77)
    shifted_utils = tuple(
        type(u)(u.name, u.domain, Table(u.table.domain, u.table.values + 2.5))
        for u in base.utilities
    )
    shifted = type(base)(base.variables, dict(base.parents), dict(base.cpts), shifted_utils)
    t1, *_ = compile_diagram(base)
    t2, *_ = compile_diagram(shifted)
    r1 = solve(t1, base)
    r2 = solve(t2, shifted)
    assert r2.meu == pytest.approx(r1.meu + 2.5 * len(base.utilities), rel=1e-9)
    for p1, p2 in zip(r1.policies, r2.policies):
        assert p1.choice.values.tolist() == p2.choice.values.tolist()


def _within(got, want, scale):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want), scale)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(-100, 100), data=st.data())
def test_shifting_one_utility_by_c_shifts_the_meu_by_c(seed, c, data):
    # choice tables are not compared: exact ties may break to another state
    base = random_model(seed, structural_zeros=seed % 2 == 1)
    j = data.draw(st.integers(0, len(base.utilities) - 1), label="utility")
    u = base.utilities[j]
    shifted_u = type(u)(u.name, u.domain, Table(u.table.domain, u.table.values + c))
    utilities = base.utilities[:j] + (shifted_u,) + base.utilities[j + 1 :]
    shifted = type(base)(base.variables, dict(base.parents), dict(base.cpts), utilities)
    r1 = solve(compile_diagram(base)[0], base)
    r2 = solve(compile_diagram(shifted)[0], shifted)
    assert _within(r2.meu, r1.meu + c, abs(c))
    assert _within(rollout(shifted, list(r2.policies)), brute_force(shifted).meu, 0.0)


@pytest.mark.parametrize("k", [0.5, 4.0])
def test_utility_scaling_scales_meu_exactly_and_keeps_policies(k):
    # a power of two scales every product and quotient exactly
    for seed in range(50):
        base = random_model(seed, structural_zeros=seed % 2 == 1)
        scaled_utils = tuple(
            type(u)(u.name, u.domain, Table(u.table.domain, u.table.values * k))
            for u in base.utilities
        )
        scaled = type(base)(base.variables, dict(base.parents), dict(base.cpts), scaled_utils)
        r1 = solve(compile_diagram(base)[0], base)
        r2 = solve(compile_diagram(scaled)[0], scaled)
        assert r2.meu == k * r1.meu
        assert [p.choice.values.tolist() for p in r2.policies] == [
            p.choice.values.tolist() for p in r1.policies
        ]


def test_declaration_order_changes_neither_the_tree_nor_the_solution():
    for seed in range(300):
        base = random_model(seed, structural_zeros=seed % 2 == 1)
        variables = list(base.variables)
        random.Random(seed).shuffle(variables)
        permuted = type(base)(
            tuple(variables), dict(base.parents), dict(base.cpts), base.utilities[::-1]
        )
        runs = []
        for model in (base, permuted):
            tree, order, *_ = compile_diagram(model)
            runs.append((tree, order, solve(tree, model)))
        (t1, o1, r1), (t2, o2, r2) = runs
        assert o2.sequence == o1.sequence
        assert [(c.members, c.index) for c in t2.cliques] == [
            (c.members, c.index) for c in t1.cliques
        ]
        assert t2.parent == t1.parent
        assert r2.policy_clique == r1.policy_clique
        assert [(p.decision, p.domain, p.choice.values.tolist()) for p in r2.policies] == [
            (p.decision, p.domain, p.choice.values.tolist()) for p in r1.policies
        ]
        assert r2.meu == pytest.approx(r1.meu, rel=1e-9, abs=1e-9)


def _relabel_states(base, seed):
    """The model with every variable's states in a seeded random order."""
    rng = np.random.default_rng(seed)
    perm, new = {}, {}
    for v in base.variables:
        perm[v.name] = rng.permutation(len(v.states))
        new[v.name] = type(v)(v.name, tuple(v.states[i] for i in perm[v.name]), v.rank)

    def relabel(t):
        values = t.values
        for axis, v in enumerate(t.domain):
            values = values.take(perm[v.name], axis=axis)
        return Table(tuple(new[v.name] for v in t.domain), values)

    return type(base)(
        tuple(new[v.name] for v in base.variables),
        {c: tuple(new[p.name] for p in ps) for c, ps in base.parents.items()},
        {c: relabel(t) for c, t in base.cpts.items()},
        tuple(type(u)(u.name, tuple(new[v.name] for v in u.domain), relabel(u.table))
              for u in base.utilities),
    )


def test_state_relabelling_keeps_meu_and_optimal_policies():
    # choice tables are not compared: exact ties may break to another state
    for seed in range(50):
        base = random_model(seed, structural_zeros=seed % 2 == 1)
        relabelled = _relabel_states(base, seed)
        r1 = solve(compile_diagram(base)[0], base)
        r2 = solve(compile_diagram(relabelled)[0], relabelled)
        assert r2.meu == pytest.approx(r1.meu, rel=1e-9)
        achieved = rollout(relabelled, list(r2.policies))
        assert achieved == pytest.approx(brute_force(relabelled).meu, rel=1e-9)


# ---------------------------------------------------------------------------
# policies


def test_policy_cliques_and_domains_on_the_golden_model(golden_model):
    seq = ["l", "j", "k", "i", "h", "a", "c", "d", "D4", "g", "D3", "D2", "f", "e", "D1", "b"]
    tree, *_ = compile_diagram(golden_model, given=[var(golden_model, n) for n in seq])
    result = solve(tree, golden_model)
    assert result.policy_clique == GOLDEN_POLICY_CLIQUES
    domains = {p.decision.name: {v.name for v in p.domain} for p in result.policies}
    assert domains["D2"] == {"e"}
    assert domains["D1"] == {"b"}


def test_decision_in_no_potential_takes_its_first_state():
    model = parse_model(
        "chance x states 0 1 stage 0\ndecision D states u v index 1\n"
        "cpt x : .5 .5\nutility w over x : 1 2\n"
    )
    tree, *_ = compile_diagram(model)
    result = solve(tree, model)
    (policy,) = result.policies
    assert policy.domain == ()
    assert result.policy_clique == {"D": 2}
    assert policy.decision.states[int(policy.choice.values)] == "u"  # every state ties
    assert result.meu == 1.5 == brute_force(model).meu


# D1 reaches no utility: it and c and g, below it, form the utility-free
# subtree C3 (D1, a, c) <- C7 (c, g) under the root C1 (a, b).  The utility
# sits in C5 (D2, b, e).
UTILITY_FREE_DECISION = """\
chance a states a0 a1 stage 0
chance b states b0 b1 stage 0
decision D1 states s t index 1
chance c states c0 c1 stage 1
decision D2 states p q index 2
chance e states e0 e1 stage 2
chance g states g0 g1 stage 2
cpt a : .25 .75
cpt b given a : .5 .5 .75 .25
cpt c given a D1 : .5 .5 .25 .75 .75 .25 .5 .5
cpt e given b D2 : .5 .5 .25 .75 .125 .875 .125 .875
cpt g given c : .5 .5 .25 .75
utility u over e D2 : 4 -2 1 3
"""


def test_a_decision_in_a_utility_free_subtree_keeps_its_clique_domain_and_choice():
    model = parse_model(UTILITY_FREE_DECISION)
    tree, *_ = compile_diagram(model)
    assert {c.index: c.names() for c in tree.cliques} == {
        1: ["a", "b"], 3: ["D1", "a", "c"], 5: ["D2", "b", "e"], 7: ["c", "g"]}
    assert tree.parent == {3: 1, 5: 1, 7: 3}
    run = initialize(tree, model)
    assert [k for k, s in run.states.items() if not s[1].is_null()] == [5]
    result = extract_policies(collect(run))
    # D1 is maximized where it leaves the tree, in C3 onto the separator {a};
    # D2 in C5 onto {b}
    assert result.policy_clique == {"D1": 3, "D2": 5}
    assert {p.decision.name: [v.name for v in p.domain] for p in result.policies} == {
        "D1": ["a"], "D2": ["b"]}
    oracle = brute_force(model)
    assert result.meu == pytest.approx(oracle.meu, rel=1e-12)
    for policy in result.policies:
        past, table = oracle.policies[policy.decision.name]
        for history, pick in table.items():  # every history is possible: no CPT cell is 0
            assert policy.decide(dict(zip(past, history))) == pick
    assert [p.choice.values.tolist() for p in result.policies] == [[0, 0], [0, 1]]


def test_a_contraction_releases_its_clique_before_the_max_step(monkeypatch):
    model = parse_model(UTILITY_FREE_DECISION)
    tree, *_ = compile_diagram(model)
    run = initialize(tree, model)
    psi = run.states[5][1]  # the utility, over (D2, b, e)
    alive = weakref.ref(psi), weakref.ref(psi.values)
    del psi
    seen = []
    record = solver._recorder

    def recorder(run, clique_index):
        on_decision = record(run, clique_index)

        def observed(decision, phi, top, choice):
            seen.append((decision.name, clique_index in run.states, [r() is None for r in alive]))
            on_decision(decision, phi, top, choice)

        return on_decision if clique_index != 5 else observed

    monkeypatch.setattr(solver, "_recorder", recorder)
    collect(run)
    assert seen == [("D2", False, [True, True])]
    assert meu(run) == pytest.approx(brute_force(model).meu, rel=1e-12)


def test_a_solve_contracts_each_clique_once_through_marg_all(monkeypatch, golden_model, tiny_model):
    calls = []

    def counted(tables, variables, on_decision=None):
        calls.append(len(tables))
        return marg_all(tables, variables, on_decision)

    monkeypatch.setattr(solver, "marg_all", counted)
    for model in (golden_model, tiny_model):
        tree, *_ = compile_diagram(model)
        calls.clear()
        run = collect(initialize(tree, model))
        assert len(calls) == len(tree.cliques) - 1  # one per absorb
        extract_policies(run)
        assert calls == [2] * len(tree.cliques)  # and the root's in meu, each handed [phi, psi]


def test_absorbing_a_clique_twice_is_an_invariant_breach(golden_model):
    tree, *_ = compile_diagram(golden_model)
    run = initialize(tree, golden_model)
    leaf = tree.cliques[-1].index
    absorb(run, leaf)
    with pytest.raises(InvariantError, match=f"^clique {leaf} already absorbed$"):
        absorb(run, leaf)


def test_absorbing_an_index_that_is_no_clique_is_an_invariant_breach(golden_model):
    tree, *_ = compile_diagram(golden_model)
    run = initialize(tree, golden_model)
    with pytest.raises(InvariantError, match="^999 is not a clique of the tree$"):
        absorb(run, 999)


def test_meu_before_collect_is_an_invariant_breach(golden_model):
    tree, *_ = compile_diagram(golden_model)
    run = initialize(tree, golden_model)
    with pytest.raises(InvariantError, match="^collect must retire every non-root clique before meu$"):
        meu(run)


def test_one_decision_recorded_twice_is_an_invariant_breach(tiny_model):
    tree, *_ = compile_diagram(tiny_model)
    run = initialize(tree, tiny_model)
    on_decision = solver._recorder(run, tree.root)
    d, unit, choice = var(tiny_model, "D"), Table.unit(), Table((), np.array(0))
    on_decision(d, unit, unit, choice)
    assert run.max_steps == {d: solver.Policy(d, choice, tree.root)}
    with pytest.raises(InvariantError, match="^decision 'D' max-marginalized twice$"):
        on_decision(d, unit, unit, choice)


def test_a_negative_probability_potential_at_a_max_step_is_an_invariant_breach(tiny_model):
    # constant in D, so the spread reads 0: only the sign test catches it
    tree, *_ = compile_diagram(tiny_model)
    run = initialize(tree, tiny_model)
    d = var(tiny_model, "D")
    phi, top = Table.from_flat([d], [-0.5] * len(d.states)), Table.scalar(-0.5)
    with pytest.raises(InvariantError, match="^probability potential is negative at the max step over 'D'$"):
        solver._recorder(run, tree.root)(d, phi, top, Table((), np.array(0)))
    assert run.max_steps == {}


def test_a_policy_over_a_later_variable_is_an_invariant_breach(tiny_model):
    tree, *_ = compile_diagram(tiny_model)
    run = initialize(tree, tiny_model)
    d, unit = var(tiny_model, "D"), Table.unit()
    later = chance_var("later", ("0", "1"), d.stage)  # observed after d is taken
    with pytest.raises(InvariantError, match="^policy domain of 'D' reaches into its future$"):
        solver._recorder(run, tree.root)(d, unit, unit, Table((later,), np.array([0, 1])))
    assert run.max_steps == {}


def test_a_decision_missing_from_the_max_steps_is_an_invariant_breach(golden_model):
    tree, *_ = compile_diagram(golden_model)
    run = collect(initialize(tree, golden_model))
    del run.max_steps[var(golden_model, "D3")]
    with pytest.raises(InvariantError, match="^decision 'D3' was never max-marginalized$"):
        extract_policies(run)


def test_each_policy_carries_its_clique_and_reads_its_domain_off_its_choice(golden_model):
    run, result = _solved(golden_model)
    assert result.policies == tuple(run.max_steps[d] for d in golden_model.decisions)
    for p in result.policies:
        assert p.domain == p.choice.domain
    assert result.policy_clique == {p.decision.name: p.clique for p in result.policies}
    assert result.policy_clique == GOLDEN_POLICY_CLIQUES


def test_policy_domains_strictly_precede_their_decision():
    for seed in range(20):
        model = random_model(seed + 201)
        run, result = _solved(model)
        for pol in result.policies:
            assert all(v.rank < pol.decision.rank for v in pol.domain)


def test_every_decision_gets_exactly_one_max_step():
    for seed in range(10):
        model = random_model(seed + 515)
        run, result = _solved(model)
        assert set(run.max_steps) == set(model.decisions)


def test_zero_support_separator_gets_zero_utility_message():
    # wherever the probability message is zero, the contraction has already
    # zeroed the utility, so the 0/0 = 0 convention applies and the utility
    # message is zero there too
    x = chance_var("x", ("0", "1"), 0)
    phi2 = Table.from_flat([A, x], [0.0, 0.0, 0.5, 0.5])  # support only on a=1
    psi2 = Table.from_flat([A], [3.0, 7.0])
    run = _two_clique_run(Table.unit(), Table.null(), phi2, psi2, {A}, {A, x})
    absorb(run, 2)
    # the parent started at unit/null, so it now holds exactly the messages
    phi_s, psi_s = run.states[1]
    assert phi_s.values[0] == 0.0 and psi_s.values[0] == 0.0
    assert psi_s.values[1] == pytest.approx(7.0)


def test_negative_probability_potential_breaks_the_division_guard():
    # a (forbidden) negative probability value can cancel to zero mass while
    # the utility contraction does not; the quotient must refuse
    from idjt import UndefinedDivisionError

    x = chance_var("x", ("0", "1"), 0)
    phi2 = Table.from_flat([A, x], [-1.0, 1.0, 0.5, 0.5])
    psi2 = Table.from_flat([A, x], [2.0, 5.0, 1.0, 1.0])
    run = _two_clique_run(Table.unit(), Table.null(), phi2, psi2, {A}, {A, x})
    with pytest.raises(UndefinedDivisionError):
        absorb(run, 2)


def test_constancy_violation_detected():
    # an invalid model (decision influencing its past) breaks the constancy
    # of the probability component at the max step
    y = chance_var("y", ("0", "1"), 1)
    d2 = decision_var("D2", ("0", "1"), 2)
    d1 = decision_var("D1", ("0", "1"), 1)
    cpts = {"y": Table.from_flat([d2, y], [0.9, 0.1, 0.2, 0.8])}
    from idjt import InfluenceDiagram, Utility

    bad = InfluenceDiagram((y, d1, d2), {"y": (d2,)}, cpts,
                           (Utility("u", (y,), Table.from_flat([y], [1.0, 0.0])),))
    tree, *_ = compile_diagram(bad)
    run = initialize(tree, bad)
    with pytest.raises(InvariantError, match="non-negative constant"):
        collect(run)
        meu(run)


def test_utility_overflow_is_an_invariant_breach():
    # validate rejects this model; the solver must not report MEU inf either
    model = parse_model(
        "chance x states 0 1 stage 0\ncpt x : 0.5 0.5\n"
        "utility u1 over x : 1e308 1e308\nutility u2 over x : 1e308 1e308\n"
    )
    tree, *_ = compile_diagram(model)
    with np.errstate(over="ignore"), pytest.raises(InvariantError, match="utility inf is not"):
        solve(tree, model)


def test_nan_root_mass_is_an_invariant_breach():
    # validate rejects this model; the solver must not report MEU nan either
    model = parse_model(
        "decision D states d1 d2 index 1\nchance x states x0 x1 stage 1\n"
        "cpt x given D : nan nan 0.4 0.6\nutility payoff over x : 0 10\n"
    )
    tree, *_ = compile_diagram(model)
    with pytest.raises(InvariantError, match="root probability mass nan"):
        solve(tree, model)
