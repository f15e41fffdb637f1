"""Parsing, serialization round-trips, semantic validation, temporal order."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idjt import (
    InfluenceDiagram,
    ParseError,
    Table,
    Utility,
    Variable,
    chance_var,
    decision_var,
    diagrams_equal,
    parse_model,
    validate,
    write_model,
)
from idjt.randmodels import random_model

TINY = """
decision D states d1 d2 index 1
chance x states x0 x1 stage 1
cpt x given D : 0.8 0.2 0.4 0.6
utility payoff over x : 0 10
"""


# ---------------------------------------------------------------------------
# parsing


def test_minimal_single_variable_document():
    d = parse_model("chance a states yes no stage 0\ncpt a : 0.5 0.5\n")
    assert [v.name for v in d.variables] == ["a"]
    assert d.parents["a"] == ()
    assert d.cpts["a"].flat().tolist() == [0.5, 0.5]
    assert d.decisions == ()


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nchance a states yes no stage 0  # trailing\ncpt a : 0.5 0.5\n"
    d = parse_model(text)
    assert d.var("a").states == ("yes", "no")


def test_cpt_value_order_last_variable_fastest():
    d = parse_model(TINY)
    cpt = d.cpts["x"]
    # canonical domain (D, x); row for D=d2 was listed second
    val = cpt.values[1, 1]
    assert val == 0.6


def test_undeclared_parent_is_named():
    with pytest.raises(ParseError, match="undeclared variable 'b'"):
        parse_model("chance a states yes no stage 0\ncpt a given b : 0.5 0.5\n")


def test_duplicate_name_rejected():
    text = "chance a states x y stage 0\ndecision a states u v index 1\n"
    with pytest.raises(ParseError, match="duplicate name 'a'"):
        parse_model(text)


def test_variable_cannot_reuse_a_utility_name():
    text = "utility a over : 5\nchance a states x y stage 0\ncpt a : 0.5 0.5\n"
    with pytest.raises(ParseError, match="duplicate name 'a'") as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (2, 8)


def test_wrong_value_count_in_cpt():
    with pytest.raises(ParseError, match="needs 2 values, found 3"):
        parse_model("chance a states x y stage 0\ncpt a : 0.5 0.4 0.1\n")


def test_wrong_value_count_in_utility():
    text = TINY + "utility extra over x D : 1 2 3\n"
    with pytest.raises(ParseError, match="needs 4 values"):
        parse_model(text)


def test_missing_cpt_rejected():
    with pytest.raises(ParseError, match="missing cpt for chance variable 'a'") as err:
        parse_model("decision D states u v index 1\n\n  chance  a states x y stage 0\n")
    assert (err.value.line, err.value.column) == (3, 11)


def test_duplicate_cpt_rejected():
    with pytest.raises(ParseError, match="duplicate cpt"):
        parse_model("chance a states x y stage 0\ncpt a : 0.5 0.5\ncpt a : 0.5 0.5\n")


def test_cpt_for_decision_rejected():
    with pytest.raises(ParseError, match="cannot have a cpt"):
        parse_model("decision D states u v index 1\ncpt D : 0.5 0.5\n")


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_model("chance a states x y stage 0\ncpt a = 0.5 0.5\n")
    assert err.value.line == 2
    assert err.value.column == 7


def test_unknown_directive_rejected():
    with pytest.raises(ParseError, match="unknown directive 'chancy'"):
        parse_model("chancy a states x y stage 0\n")


def test_negative_stage_rejected():
    with pytest.raises(ParseError, match="stage must be >= 0"):
        parse_model("chance a states x y stage -1\ncpt a : .5 .5\n")


def test_decision_index_zero_rejected():
    with pytest.raises(ParseError, match="index must be >= 1"):
        parse_model("decision D states u v index 0\n")


def test_round_trip_write_then_parse(tiny_model, golden_model):
    for d in (tiny_model, golden_model):
        assert diagrams_equal(parse_model(write_model(d)), d)


def test_round_trip_random_models():
    for seed in range(20):
        d = random_model(seed, structural_zeros=seed % 2 == 0)
        assert diagrams_equal(parse_model(write_model(d)), d)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_variables=st.integers(3, 10),
    max_states=st.integers(2, 4),
    structural_zeros=st.booleans(),
)
def test_text_round_trip_property(seed, max_variables, max_states, structural_zeros):
    text = write_model(random_model(seed, max_variables, max_states=max_states,
                                    structural_zeros=structural_zeros))
    assert write_model(parse_model(text)) == text


# ---------------------------------------------------------------------------
# validation


def build_valid():
    a = chance_var("a", ("a0", "a1"), 0)
    d1 = decision_var("D1", ("u", "v"), 1)
    x = chance_var("x", ("x0", "x1"), 1)
    cpts = {
        "a": Table.from_flat([a], [0.5, 0.5]),
        "x": Table.from_flat([d1, x], [0.2, 0.8, 0.7, 0.3]),
    }
    parents = {"a": (), "x": (d1,)}
    utils = (Utility("u0", (x,), Table.from_flat([x], [1.0, -1.0])),)
    return InfluenceDiagram((a, d1, x), parents, cpts, utils)


def test_valid_diagram_has_no_violations():
    assert validate(build_valid()) == []


def test_single_chance_variable_valid():
    d = parse_model("chance a states x y stage 0\ncpt a : 0.5 0.5\n")
    assert validate(d) == []


def test_row_normalization_violation():
    bad = parse_model("chance a states x y stage 0\ncpt a : 0.5 0.6\n")
    kinds = [v.kind for v in validate(bad)]
    assert kinds == ["normalization"]


def test_row_normalization_tolerance_is_absolute_1e9():
    ok = parse_model("chance a states x y stage 0\ncpt a : 0.5 0.5000000005\n")
    assert validate(ok) == []  # off by 5e-10, inside tolerance
    bad = parse_model("chance a states x y stage 0\ncpt a : 0.5 0.500000002\n")
    assert [v.kind for v in validate(bad)] == ["normalization"]  # off by 2e-9
    # values are reported, never silently renormalized
    assert ok.cpts["a"].flat().tolist() == [0.5, 0.5000000005]


def test_negative_probability_violation():
    bad = parse_model("chance a states x y stage 0\ncpt a : -0.5 1.5\n")
    assert "cpt" in [v.kind for v in validate(bad)]


def test_temporal_violation_names_decision_and_variable():
    # D2 -> y with y observed at stage 1 (before D2)
    text = """
chance y states y0 y1 stage 1
decision D1 states u v index 1
decision D2 states u v index 2
cpt y given D2 : 0.5 0.5 0.5 0.5
"""
    problems = validate(parse_model(text))
    temporal = [p for p in problems if p.kind == "temporal"]
    assert len(temporal) == 1
    assert "'D2'" in temporal[0].message and "'y'" in temporal[0].message


def test_transitive_temporal_violation_detected():
    # D2 -> z -> y, y observed before D2
    text = """
chance y states y0 y1 stage 1
chance z states z0 z1 stage 2
decision D1 states u v index 1
decision D2 states u v index 2
cpt z given D2 : 0.5 0.5 0.5 0.5
cpt y given z : 0.5 0.5 0.5 0.5
"""
    problems = validate(parse_model(text))
    assert any(p.kind == "temporal" and "'D2'" in p.message for p in problems)


def test_stage_beyond_decision_count_flagged():
    d = parse_model("chance a states x y stage 7\ncpt a : 0.5 0.5\n")
    assert any(p.kind == "stage" for p in validate(d))


def test_decision_index_gap_flagged():
    text = "decision D1 states u v index 1\ndecision D3 states u v index 3\n"
    problems = validate(parse_model(text))
    assert any(p.kind == "decision-index" for p in problems)


@pytest.mark.parametrize("name", ["a", "u0"])
def test_utility_name_shared_with_another_name_violation(name):
    base = build_valid()
    a, _, x = base.variables
    extra = Utility(name, (a,), Table.from_flat([a], [0.0, 1.0]))
    clash = InfluenceDiagram(base.variables, dict(base.parents), base.cpts, (*base.utilities, extra))
    assert validate(clash) == [("name", f"duplicate utility name {name!r}")]


def test_cycle_flagged():
    a = chance_var("a", ("0", "1"), 0)
    b = chance_var("b", ("0", "1"), 0)
    cpts = {
        "a": Table.from_flat([b, a], [0.5, 0.5, 0.5, 0.5]),
        "b": Table.from_flat([a, b], [0.5, 0.5, 0.5, 0.5]),
    }
    d = InfluenceDiagram((a, b), {"a": (b,), "b": (a,)}, cpts, ())
    assert any(p.kind == "cycle" for p in validate(d))


def test_single_field_mutations_each_trigger_one_violation():
    base = build_valid()
    a, d1, x = base.variables

    one_state = chance_var("a", ("only",), 0)
    mutants = {
        "states": InfluenceDiagram(
            (one_state, d1, x),
            {"a": (), "x": (d1,)},
            {"a": Table.from_flat([one_state], [1.0]), "x": base.cpts["x"]},
            base.utilities,
        ),
        "parents": InfluenceDiagram(
            base.variables,
            {"a": (), "x": (d1,), "D1": (a,)},
            base.cpts,
            base.utilities,
        ),
        "utility": InfluenceDiagram(
            base.variables,
            dict(base.parents),
            base.cpts,
            (Utility("u0", (x,), Table.from_flat([x], [np.inf, 0.0])),),
        ),
    }
    for kind, mutant in mutants.items():
        kinds = {v.kind for v in validate(mutant)}
        assert kind in kinds, f"expected {kind} violation, got {kinds}"


def test_non_finite_cpt_entries_violation():
    bad = parse_model(TINY.replace("0.8 0.2 0.4 0.6", "nan nan 0.4 0.6"))
    problems = validate(bad)
    assert [p.kind for p in problems] == ["cpt"]
    assert "non-finite" in problems[0].message


def test_chance_variable_without_parent_entry_violation():
    base = build_valid()
    missing = InfluenceDiagram(base.variables, {"a": ()}, base.cpts, base.utilities)
    problems = validate(missing)
    assert [p.kind for p in problems] == ["parents"]
    assert "'x'" in problems[0].message


def test_validate_accepts_a_5000_variable_chain():
    # deeper than the recursion limit: x0 observed, then D1, then a hidden chain
    n = 5000
    d1 = decision_var("D1", ("u", "v"), 1)
    xs = [chance_var(f"x{i}", ("0", "1"), min(i, 1)) for i in range(n)]
    parents = {"x0": (), "x1": (xs[0], d1)}
    parents.update({f"x{i}": (xs[i - 1],) for i in range(2, n)})
    cpts = {v.name: Table.from_flat([*parents[v.name], v], [0.5] * 2 ** (len(parents[v.name]) + 1))
            for v in xs}
    diagram = InfluenceDiagram((*xs, d1), parents, cpts, ())
    assert validate(diagram) == []


# ---------------------------------------------------------------------------
# temporal rank


def test_precedes_on_the_four_decision_partition(golden):
    _, vs = golden
    assert vs["b"].rank < vs["D1"].rank
    assert vs["e"].rank == vs["f"].rank
    assert vs["g"].rank > vs["D3"].rank


def test_no_path_from_decision_into_its_past(golden_model):
    for d in golden_model.decisions:
        for reached in golden_model.descendants(d):
            assert reached.rank > d.rank


def test_kind_and_stage_round_trip_through_the_rank():
    for k in range(6):
        x = chance_var("x", ("0", "1"), k)
        assert (x.is_decision, x.stage, x.rank) == (False, k, 2 * k)
        assert repr(x) == "c:x"
    for k in range(1, 6):
        d = decision_var("D", ("u", "v"), k)
        assert (d.is_decision, d.stage, d.rank) == (True, k, 2 * k - 1)
        assert repr(d) == "d:D"


# ---------------------------------------------------------------------------
# variable identity


def test_a_variable_is_its_name_states_and_rank():
    assert [f.name for f in dataclasses.fields(Variable)] == ["name", "states", "rank"]


def test_equal_variables_hash_equal():
    a = chance_var("x", ["0", "1"], 2)
    b = Variable("x", ("0", "1"), 4)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_same_name_with_other_states_is_another_key():
    a = chance_var("x", ("0", "1"), 1)
    b = chance_var("x", ("0", "1", "2"), 1)
    assert a != b
    assert hash(a) == hash(b)
    keyed = {a: "two", b: "three"}
    assert len(keyed) == 2
    assert (keyed[a], keyed[b]) == ("two", "three")
