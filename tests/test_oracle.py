"""The brute-force backward-induction oracle on hand-checked fixtures and properties."""

import math
import time

import numpy as np
import pytest

from idjt import (
    InfluenceDiagram,
    OracleCapError,
    Table,
    Utility,
    brute_force,
    chance_var,
    compile_diagram,
    parse_model,
    rollout,
    solve,
)
from idjt.randmodels import random_model

from conftest import ORACLE_SEEDS, decision_tree_values, sweep_draw


def test_tiny_fixture_by_four_outcome_enumeration(tiny_model):
    # EU(d1) = 0.2*10, EU(d2) = 0.6*10; frozen by hand
    res = brute_force(tiny_model)
    assert res.meu == pytest.approx(6.0, rel=1e-12)
    past, table = res.policies["D"]
    assert past == ()
    assert table == {(): 1}


def test_deterministic_two_decision_rollback():
    # Deterministic transitions make this a classical decision-tree rollback:
    #   x = value of D1 (copied), observed before D2
    #   payoff = 4 if D2 matches x else 0, plus 1 if D1 = down
    # Hand rollback: D2 always matches (worth 4); D1 = down adds 1 -> meu 5.
    text = """
decision D1 states up down index 1
chance x states x0 x1 stage 1
decision D2 states up down index 2
cpt x given D1 : 1 0 0 1
utility match over x D2 : 4 0 0 4
utility bonus over D1 : 0 1
"""
    model = parse_model(text)
    res = brute_force(model)
    assert res.meu == pytest.approx(5.0, rel=1e-12)
    past_d1, tab_d1 = res.policies["D1"]
    assert tab_d1 == {(): 1}
    past_d2, tab_d2 = res.policies["D2"]
    assert [v.name for v in past_d2] == ["D1", "x"]
    # D2 copies the observed x regardless of D1
    assert tab_d2[(0, 0)] == 0 and tab_d2[(0, 1)] == 1
    assert tab_d2[(1, 0)] == 0 and tab_d2[(1, 1)] == 1


def test_no_decision_model_is_a_plain_expectation():
    model = parse_model(
        "chance a states 0 1 stage 0\ncpt a : .3 .7\nutility u over a : 10 -10\n"
    )
    assert brute_force(model).meu == pytest.approx(0.3 * 10 - 0.7 * 10, rel=1e-12)


def test_cap_enforced():
    model = random_model(0)
    with pytest.raises(OracleCapError):
        brute_force(model, cap=1)


def test_all_zero_joint_rejected():
    a = chance_var("a", ("0", "1"), 0)
    diagram = InfluenceDiagram(
        (a,), {"a": ()}, {"a": Table.from_flat([a], [0.0, 0.0])}, ()
    )
    with pytest.raises(ValueError, match="zero probability"):
        brute_force(diagram)


def test_meu_monotone_in_utilities():
    for seed in range(10):
        model = random_model(seed + 1000, structural_zeros=seed % 2 == 0)
        bumped_utils = tuple(
            Utility(u.name, u.domain, Table(u.table.domain, u.table.values + np.where(u.table.values > 0, 1.0, 0.5)))
            for u in model.utilities
        )
        bumped = InfluenceDiagram(
            model.variables, dict(model.parents), dict(model.cpts), bumped_utils
        )
        assert brute_force(bumped).meu >= brute_force(model).meu - 1e-12


def test_impossible_histories_contribute_nothing():
    # x is deterministically 0, so the history x=1 is impossible; the utility
    # bonus reachable only there must not leak into the value
    text = """
chance x states x0 x1 stage 0
decision D states u v index 1
cpt x : 1 0
utility payoff over x D : 1 0 1000 1000
"""
    model = parse_model(text)
    res = brute_force(model)
    assert res.meu == pytest.approx(1.0, rel=1e-12)
    past, table = res.policies["D"]
    # full-history policy still enumerates the impossible branch
    assert set(table) == {(0,), (1,)}


def test_policy_keys_enumerate_the_full_past_space():
    model = random_model(4242)
    res = brute_force(model)
    for d in model.decisions:
        past, table = res.policies[d.name]
        want = int(np.prod([len(v.states) for v in past])) if past else 1
        assert len(table) == want


def test_rollout_of_oracle_policies_reaches_the_oracle_meu():
    for seed in range(10):
        model = random_model(seed + 77, structural_zeros=seed % 3 == 0)
        res = brute_force(model)
        tree, *_ = compile_diagram(model)
        solved = solve(tree, model)
        achieved = rollout(model, list(solved.policies))
        scale = max(abs(res.meu), 1.0)
        assert abs(achieved - res.meu) <= 1e-9 * scale


def test_the_sweep_agrees_with_the_decision_tree_recursion():
    # the recursion conditions each history on its own; the sweep averages one
    # axis at a time, so only rounding separates them
    for seed in ORACLE_SEEDS:
        model = sweep_draw(seed)
        meu, tables = decision_tree_values(model)
        res = brute_force(model)
        assert res.meu == pytest.approx(meu, rel=1e-12), seed
        for name, table in tables.items():
            picks = res.policies[name][1]
            for history, (mass, values) in table.items():
                want, got = int(np.argmax(values)), picks[history]
                if mass == 0.0:
                    assert got == want, (seed, name, history)
                elif got != want:  # a tie broken the other way by rounding
                    assert values[got] == pytest.approx(values[want], rel=1e-12), (seed, name, history)


@pytest.mark.parametrize("seed", [1, 3])
def test_a_two_to_the_twenty_state_model_matches_the_solver(seed):
    model = random_model(seed, max_variables=22, max_states=2)
    assert math.prod(len(v.states) for v in model.variables) == 1 << 20
    tree, *_ = compile_diagram(model)
    solved = solve(tree, model)
    t0 = time.perf_counter()
    ref = brute_force(model, cap=1 << 20)
    achieved = rollout(model, list(solved.policies), cap=1 << 20)
    elapsed = time.perf_counter() - t0
    scale = max(abs(ref.meu), 1.0)
    assert abs(solved.meu - ref.meu) <= 1e-9 * scale
    assert abs(achieved - ref.meu) <= 1e-9 * scale
    assert elapsed < 1.0
