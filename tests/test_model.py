"""Parsing, serialization round-trips, semantic validation, temporal order."""

import dataclasses
import math
import random
from collections import Counter

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
    compile_diagram,
    decision_var,
    extend,
    parse_model,
    solve,
    validate,
    write_model,
)
from idjt.cli import RunConfig, run
from idjt.model import ROW_SUM_TOL, _rows_sum_to_one
from idjt.randmodels import random_model
from idjt.tables import canonical_key

from conftest import MODELS, family, id_rule_verdicts, sweep_draw, var

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
    assert d.cpts["a"].values.reshape(-1).tolist() == [0.5, 0.5]
    assert d.decisions == ()


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nchance a states yes no stage 0  # trailing\ncpt a : 0.5 0.5\n"
    d = parse_model(text)
    assert var(d, "a").states == ("yes", "no")


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


@pytest.mark.parametrize("line, error", [
    ("cpt x given D D : 1 0 1 0 1 0 1 0", "line 4, column 5: cpt of 'x' repeats a variable"),
    ("cpt x given x : 1 0 1 0", "line 4, column 5: cpt of 'x' repeats a variable"),
    ("utility twice over x x : 1 2 3 4", "line 6, column 9: utility 'twice' repeats a variable"),
])
def test_a_table_that_repeats_a_variable_is_a_syntax_error(line, error):
    # the parser checks the names once; the table is then built without a second check
    text = TINY.replace("cpt x given D : 0.8 0.2 0.4 0.6", line) if line.startswith("cpt") else TINY + line
    with pytest.raises(ParseError, match=f"^{error}$"):
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
        assert write_model(parse_model(write_model(d))) == write_model(d)


def test_round_trip_random_models():
    for seed in range(20):
        d = random_model(seed, structural_zeros=seed % 2 == 0)
        assert write_model(parse_model(write_model(d))) == write_model(d)


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


def test_duplicate_state_labels_violation(tmp_path):
    text = "chance x states a a stage 0\ncpt x : 0.5 0.5\n"
    assert validate(parse_model(text)) == [("states", "variable 'x' has duplicate state labels")]
    path = tmp_path / "dup.idm"
    path.write_text(text)
    code, report = run(RunConfig(str(path)))
    assert code == 1
    assert "  states: variable 'x' has duplicate state labels\n" in report


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
    assert ok.cpts["a"].values.reshape(-1).tolist() == [0.5, 0.5000000005]


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


def test_stages_beyond_decision_count_are_listed_by_stage_then_name():
    d1 = decision_var("D1", ("a", "b"), 1)
    late = [chance_var(n, ("0", "1"), k) for n, k in [("z", 3), ("b", 2), ("y", 3), ("a", 2), ("x", 1)]]
    cpts = {v.name: Table.from_flat([v], [0.5, 0.5]) for v in late}
    diagram = InfluenceDiagram((*late, d1), {v.name: () for v in late}, cpts, ())
    assert validate(diagram) == [
        ("stage", "stage 2 exceeds decision count 1 (variables ['a', 'b'])"),
        ("stage", "stage 3 exceeds decision count 1 (variables ['y', 'z'])"),
    ]


def test_a_negative_stage_is_a_stage_violation():
    # write_model would print ``stage -1``, which parse_model rejects
    d1 = decision_var("D1", ("a", "b"), 1)
    early = [chance_var(n, ("a", "b"), k) for n, k in [("x", -1), ("w", -2), ("v", -1)]]
    cpts = {v.name: Table.from_flat([v], [0.5, 0.5]) for v in early}
    diagram = InfluenceDiagram((*early, d1), {v.name: () for v in early}, cpts, ())
    assert validate(diagram) == [
        ("stage", "stage -2 is negative (variables ['w'])"),
        ("stage", "stage -1 is negative (variables ['v', 'x'])"),
    ]


def test_index_numbers_each_distinct_variable_in_canonical_order():
    d1 = decision_var("D1", ("a", "b"), 1)
    x, y, w = (chance_var(n, ("0", "1"), k) for n, k in [("x", 1), ("y", 0), ("w", 1)])
    cpts = {v.name: Table.from_flat([v], [0.5, 0.5]) for v in (x, y, w)}
    diagram = InfluenceDiagram((x, d1, y, w, x), {"x": (), "y": (), "w": ()}, cpts, ())
    assert diagram.index == {y: 0, d1: 1, w: 2, x: 3}
    assert tuple(diagram.index) == (y, d1, w, x)
    assert diagram.decisions == (d1,)


def test_a_decision_declared_twice_keeps_every_violation():
    # the decision list keeps the repeat, so the index check counts it and
    # each temporal violation of the decision is listed once per declaration
    d1 = decision_var("D1", ("a", "b"), 1)
    d2 = decision_var("D2", ("a", "b"), 2)
    x = chance_var("x", ("0", "1"), 0)
    y = chance_var("y", ("0", "1"), 1)
    cpts = {"x": Table.from_flat([d2, x], [0.5] * 4), "y": Table.from_flat([x, d1, y], [0.5] * 8)}
    diagram = InfluenceDiagram((d2, x, d1, y, d2), {"x": (d2,), "y": (x, d1)}, cpts, ())
    assert diagram.decisions == (d1, d2, d2)
    early = [("temporal", f"decision 'D2' influences {v.name!r}, which is observed before it "
                          f"(stage {v.stage})") for v in (x, y)]
    assert validate(diagram) == [
        ("name", "duplicate variable name 'D2'"),
        ("decision-index", "decision indices [1, 2, 2] must be exactly 1..3"),
        *early,
        *early,
    ]


@pytest.mark.parametrize("row, found", [
    ("1e308 1e308", ("normalization", "cpt rows of 'a' must sum to 1 (found inf)")),
    ("inf -inf", ("cpt", "cpt of 'a' has non-finite entries")),
])
def test_an_overflowing_cpt_row_is_reported_without_a_warning(row, found):
    # tier-1 turns a RuntimeWarning into an error, so a numpy warning from the row sum fails here
    assert validate(parse_model(f"chance a states x y stage 0\ncpt a : {row}\n")) == [found]


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


def _with_undeclared(where):
    """build_valid with an undeclared g as a parent of a, or in a second utility."""
    base = build_valid()
    a, _, x = base.variables
    g = chance_var("g", ("g0", "g1"), 0)
    parents, cpts, utilities = dict(base.parents), dict(base.cpts), base.utilities
    if where == "parent":
        parents["a"] = (g,)
        cpts["a"] = Table.from_flat([g, a], [0.5, 0.5, 0.5, 0.5])
    else:
        utilities += (Utility("u1", (g, x), Table.from_flat([g, x], [1.0, 2.0, 3.0, 4.0])),)
    return InfluenceDiagram(base.variables, parents, cpts, utilities)


@pytest.mark.parametrize("where", ["parent", "utility"])
def test_undeclared_variable_violation(where):
    assert validate(_with_undeclared(where)) == [("undeclared", "variable 'g' is used but not declared")]


def test_undeclared_variables_reported_once_each_by_first_use():
    base = _with_undeclared("parent")
    a, _, x = base.variables
    h = chance_var("h", ("h0", "h1"), 0)
    g = base.parents["a"][0]
    extra = tuple(Utility(f"u{k}", dom, Table.from_flat(list(dom), [1.0] * 2 ** len(dom)))
                  for k, dom in enumerate([(h, x), (g, h)], start=1))
    diagram = InfluenceDiagram(base.variables, base.parents, base.cpts, base.utilities + extra)
    assert [p.message for p in validate(diagram)] == [
        "variable 'g' is used but not declared", "variable 'h' is used but not declared"]


def test_chance_variable_without_parent_entry_violation():
    base = build_valid()
    missing = InfluenceDiagram(base.variables, {"a": ()}, base.cpts, base.utilities)
    problems = validate(missing)
    assert [p.kind for p in problems] == ["parents"]
    assert "'x'" in problems[0].message


def test_utility_table_over_another_domain_violation():
    base = build_valid()
    a, _, x = base.variables
    bad = Utility("u0", (x,), Table.from_flat([a, x], [1.0, 2.0, np.inf, 4.0]))
    diagram = InfluenceDiagram(base.variables, base.parents, base.cpts, (bad,))
    # reported once, without a finiteness check on the table
    assert validate(diagram) == [("utility", "table of utility 'u0' is not over its domain")]


def test_utility_domain_repeating_a_variable_violation():
    base = build_valid()
    x = base.variables[2]
    twice = Utility("u0", (x, x), Table.from_flat([x], [1.0, 2.0]))
    diagram = InfluenceDiagram(base.variables, base.parents, base.cpts, (twice,))
    assert validate(diagram) == [("utility", "utility 'u0' repeats a variable in its domain")]


def _with_family(parents_of_x, cpt_of_x, utility_table=None):
    """build_valid with x's parent entry, x's cpt domain and u0's table domain replaced."""
    base = build_valid()
    x = base.variables[2]
    cpts = {**base.cpts, "x": Table(cpt_of_x, np.full([len(v.states) for v in cpt_of_x], 0.5))}
    utilities = base.utilities
    if utility_table is not None:
        utilities = (Utility("u0", (x,), Table(utility_table, np.zeros(len(utility_table[0].states)))),)
    return InfluenceDiagram(base.variables, {"a": (), "x": parents_of_x}, cpts, utilities)


def test_a_cpt_over_a_twin_of_a_parent_is_not_over_its_family():
    _, d1, x = build_valid().variables
    twin = decision_var("D1", ("u", "v", "w"), 1)  # same name, other states
    assert validate(_with_family((d1,), (twin, x))) == [("cpt", "cpt of 'x' is not over its family")]


def test_a_child_listed_as_its_own_parent_is_only_a_cycle():
    _, d1, x = build_valid().variables
    assert validate(_with_family((d1, x), (d1, x))) == [
        ("cycle", "directed graph over the variables has a cycle")]


def test_a_parent_listed_twice_is_not_also_off_its_family():
    _, d1, x = build_valid().variables
    assert validate(_with_family((d1, d1), (d1, x))) == [
        ("parents", "chance variable 'x' lists a parent twice")]


def test_a_utility_table_over_a_twin_of_its_domain_is_not_over_its_domain():
    _, d1, x = build_valid().variables
    twin = chance_var("x", ("x0", "x1", "x2"), 1)
    assert validate(_with_family((d1,), (d1, x), (twin,))) == [
        ("utility", "table of utility 'u0' is not over its domain")]


def _twin(v):
    """A variable of v's name and rank with one more state: another key of the same hash."""
    return Variable(v.name, (*v.states, "t"), v.rank)


def _near_table(rng, domain, pool):
    """A table over domain's distinct variables, or over one fewer, one more from pool,
    or one swapped for its twin; all cells hold one value, sometimes off a probability."""
    domain = list(dict.fromkeys(domain))
    r = rng.random()
    if r < 0.15 and domain:
        domain.remove(rng.choice(domain))
    elif r < 0.3:
        domain.append(rng.choice(pool))
    elif r < 0.45 and domain:
        i = rng.randrange(len(domain))
        domain[i] = _twin(domain[i])
    domain = tuple(sorted(dict.fromkeys(domain), key=canonical_key))
    return Table(domain, np.full([len(v.states) for v in domain], rng.choice([0.5, 0.25])))


def broken_diagram(rng):
    """A small diagram with the faults a family or utility-domain check meets: twins
    (a name with other states), declared twice or as a twin, self-parents, repeated
    and undeclared parents and domain variables, tables over a subset or a superset
    of their family or domain, and missing parent entries and cpts."""
    declared = [chance_var(n, ("0", "1"), rng.randint(0, 1)) for n in "abcd"[: rng.randint(1, 4)]]
    declared.append(decision_var("D", ("0", "1"), 1))
    pool = [*declared, *map(_twin, declared), chance_var("g", ("0", "1"), 0)]
    variables = (*declared, *rng.sample(pool, rng.randint(0, 2)))
    parents, cpts = {}, {}
    for v in variables:
        if v.is_decision or rng.random() < 0.05:
            continue
        ps = rng.sample(pool, rng.randint(0, 3))
        if ps and rng.random() < 0.2:
            ps.append(rng.choice(ps))
        parents[v.name] = tuple(ps)
        if rng.random() < 0.95:
            cpts[v.name] = _near_table(rng, [*ps, v], pool)
    if rng.random() < 0.1:
        parents["D"] = (declared[0],)
    utilities = []
    for k in range(rng.randint(0, 2)):
        domain = rng.sample(pool, rng.randint(1, 3))
        if rng.random() < 0.2:
            domain.append(rng.choice(domain))
        utilities.append(Utility(f"u{k}", tuple(domain), _near_table(rng, domain, pool)))
    return InfluenceDiagram(variables, parents, cpts, tuple(utilities))


FAMILY_VERDICTS = ("lists a parent twice", "is not over its family",
                   "repeats a variable in its domain", "is not over its domain")


def test_family_and_domain_verdicts_match_the_id_rule():
    # the id rule is the reference: on a twin, a self-parent or a repeat the set rule
    # could judge otherwise, and must not
    rng = random.Random(30)
    found = Counter()
    for _ in range(600):
        diagram = broken_diagram(rng)
        got = [tuple(p) for p in validate(diagram) if p.message.endswith(FAMILY_VERDICTS)]
        assert got == id_rule_verdicts(diagram)
        found.update(next(v for v in FAMILY_VERDICTS if m.endswith(v)) for _, m in got)
    assert len(found) == len(FAMILY_VERDICTS) and min(found.values()) >= 30, found


GATE_FAULTS = ("utility table", "utility domain", "utility repeat", "parents entry",
               "undeclared parent", "decision parents", "cpt domain", "negative cpt entry",
               "variable dropped", "negative stage")


def _with_fault(model, fault, k):
    """model with one hand-made fault; k picks the variable, utility or entry it hits."""
    variables, parents, cpts = list(model.variables), dict(model.parents), dict(model.cpts)
    utilities, chance = list(model.utilities), model.chance_variables
    c, u = chance[k % len(chance)], utilities[k % len(utilities)]
    w = [v for v in variables if v != c][k % (len(variables) - 1)]
    if fault == "utility table":
        dom = tuple(set(u.domain) ^ {w})
        table = Table.from_flat(dom, np.ones(math.prod(len(v.states) for v in dom)))
        utilities[k % len(utilities)] = Utility(u.name, u.domain, table)
    elif fault == "utility domain":
        i = k % len(u.domain)
        utilities[k % len(utilities)] = Utility(u.name, u.domain[:i] + u.domain[i + 1:], u.table)
    elif fault == "utility repeat":
        twice = u.domain + (u.domain[k % len(u.domain)],)
        utilities[k % len(utilities)] = Utility(u.name, twice, u.table)
    elif fault == "parents entry":
        del parents[c.name]
    elif fault == "undeclared parent":
        g = chance_var("g", ("g0", "g1"), 0)
        parents[c.name] += (g,)
        cpts[c.name] = extend(cpts[c.name], cpts[c.name].domain + (g,))
    elif fault == "decision parents":
        parents[model.decisions[k % len(model.decisions)].name] = (c,)
    elif fault == "cpt domain":
        dom = tuple(set(family(model, c)) ^ {w})
        cells = math.prod(len(v.states) for v in dom)
        cpts[c.name] = Table.from_flat(dom, np.full(cells, 1.0 / len(c.states)))
    elif fault == "negative cpt entry":
        flat = cpts[c.name].to_flat(family(model, c)).copy()
        flat[k % flat.size] = -0.5
        cpts[c.name] = Table.from_flat(family(model, c), flat)
    elif fault == "variable dropped":
        del variables[k % len(variables)]
    else:  # negative stage: a root chance variable observed before stage 0
        x = chance_var("early", ("e0", "e1"), -1 - k % 3)
        variables.append(x)
        parents[x.name] = ()
        cpts[x.name] = Table.from_flat([x], [0.5, 0.5])
    return InfluenceDiagram(tuple(variables), parents, cpts, tuple(utilities))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fault=st.sampled_from(GATE_FAULTS),
       k=st.integers(0, 2**16))
def test_validate_is_the_gate(seed, fault, k):
    # a model validate accepts compiles, solves and writes a text that reads back to
    # itself; anything else is a violation
    model = _with_fault(random_model(seed, max_variables=6), fault, k)
    if not validate(model):
        tree, *_ = compile_diagram(model)
        solve(tree, model)
        text = write_model(model)
        assert write_model(parse_model(text)) == text


def _reference_cpt_violations(diagram):
    """The four itemized checks of every cpt over its family, each run on every cpt."""
    out = []
    for v in diagram.chance_variables:
        cpt = diagram.cpts[v.name]
        if not np.all(np.isfinite(cpt.values)):
            out.append(("cpt", f"cpt of {v.name!r} has non-finite entries"))
            continue
        if np.any(cpt.values < 0):
            out.append(("cpt", f"cpt of {v.name!r} has negative entries"))
        axis = cpt.domain.index(v)
        sums = cpt.values.sum(axis=axis)
        bad = np.abs(sums - 1.0) > 1e-9
        if np.any(bad):
            worst = float(np.asarray(sums)[bad].flat[0]) if sums.ndim else float(sums)
            out.append(("normalization", f"cpt rows of {v.name!r} must sum to 1 (found {worst!r})"))
    return out


_CPT_MUTATIONS = ("nan", "+inf", "-inf", "negative", "off 2e-9", "off 0.5e-9", "overflow", "one state",
                  "off 0.75e-9", "edge +tol", "edge -tol")


def _mutate_cpt(model, rng, kind):
    """model with one cpt row broken as ``kind`` says.

    ``one state`` instead adds a sink ``z`` with one state, one random parent
    and rows of 1.0, half the time with one row off by 0.5, 2e-9 or 0.5e-9.
    ``edge +tol`` and ``edge -tol`` set one entry so that its row sums to
    1 + ROW_SUM_TOL or 1 - ROW_SUM_TOL as rounded, or to a neighbouring double.
    """
    cpts = dict(model.cpts)
    if kind == "one state":
        p = rng.choice(model.variables)
        z = chance_var("z", ("only",), len(model.decisions))  # last stage: observed after every decision
        vals = np.ones(len(p.states))
        if rng.random() < 0.5:
            vals[rng.randrange(len(vals))] += rng.choice([0.5, 2e-9, 0.5e-9])
        cpts["z"] = Table.from_flat([p, z], vals)
        parents = {**model.parents, "z": (p,)}
        return InfluenceDiagram(model.variables + (z,), parents, cpts, model.utilities)
    v = rng.choice(model.chance_variables)
    cpt = cpts[v.name]
    vals = np.array(cpt.values)
    rows = np.moveaxis(vals, cpt.domain.index(v), -1)  # a view: writing it writes vals
    row = tuple(rng.randrange(n) for n in rows.shape[:-1])
    cell = row + (rng.randrange(rows.shape[-1]),)
    if kind == "overflow":
        rows[row] = [rng.uniform(0.9e308, 1.7e308) for _ in range(rows.shape[-1])]
    elif kind.startswith("edge"):
        target = 1.0 + (ROW_SUM_TOL if kind == "edge +tol" else -ROW_SUM_TOL)
        rows[cell] = 0.0
        rows[cell] = rng.choice([np.nextafter(target, 0.0), target, np.nextafter(target, 2.0)]) - rows[row].sum()
    else:
        new = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf, "negative": -0.25,
               "off 2e-9": rows[cell] + 2e-9, "off 0.5e-9": rows[cell] + 0.5e-9,
               "off 0.75e-9": rows[cell] + 0.75e-9}[kind]
        rows[cell] = new
    cpts[v.name] = Table(cpt.domain, vals)
    return InfluenceDiagram(model.variables, model.parents, cpts, model.utilities)


def _pure_chain(n):
    """x0 -> x1 -> ... -> x(n-1), all observed at stage 0, with 2, 3 and 4 states in turn."""
    rng = np.random.default_rng(n)
    xs = [chance_var(f"x{i}", [str(k) for k in range(2 + i % 3)], 0) for i in range(n)]
    parents = {"x0": (), **{f"x{i}": (xs[i - 1],) for i in range(1, n)}}
    cpts = {}
    for v in xs:
        family = [*parents[v.name], v]
        rows = rng.uniform(0.05, 1.0, size=(math.prod(len(w.states) for w in family[:-1]), len(v.states)))
        cpts[v.name] = Table.from_flat(family, (rows / rows.sum(axis=1, keepdims=True)).ravel())
    return InfluenceDiagram(tuple(xs), parents, cpts, ())


def test_cpt_acceptance_matches_the_itemized_checks():
    # validate accepts every cpt at once, with a margin, and runs the itemized
    # checks only when that fails; the violations must be those of the checks alone
    rng = random.Random(15)
    found = Counter()
    chain = _pure_chain(601)  # children with 2, 3 and 4 states: three groups of rows
    assert validate(chain) == [] and _accepted_at_once(chain)
    models = [(seed, sweep_draw(seed)) for seed in range(320)]
    assert all(_accepted_at_once(model) for _, model in models)
    for seed, model in models + [("chain", chain)] * 2:
        for kind in _CPT_MUTATIONS:
            mutant = _mutate_cpt(model, rng, kind)
            states = [("states", "variable 'z' needs at least 2 states")] if kind == "one state" else []
            with np.errstate(over="ignore", invalid="ignore"):
                want = states + _reference_cpt_violations(mutant)
                assert validate(mutant) == want, (seed, kind)
            found.update((kind, v[0]) for v in want)
            found[kind, "accepted"] += want == states
            found[kind, "accepted at once"] += _accepted_at_once(mutant)
    for kind in ("nan", "+inf", "-inf", "negative"):
        assert found[kind, "cpt"] == 322, found
    for kind in ("off 2e-9", "overflow"):
        assert found[kind, "normalization"] == 322, found
    assert found["off 0.5e-9", "accepted"] == 322, found
    # off by more than half the tolerance: the itemized checks accept what the batch rejects
    assert found["off 0.75e-9", "accepted"] == 322 and not found["off 0.75e-9", "accepted at once"], found
    for kind in ("edge +tol", "edge -tol", "one state"):
        assert found[kind, "normalization"] and found[kind, "accepted"], found
    assert not found["edge +tol", "accepted at once"] and not found["edge -tol", "accepted at once"]


def test_cpt_violations_keep_their_place_among_the_family_checks():
    # a's rows are off, x lists a parent twice, y's cpt is negative and z has no cpt:
    # each variable's violations come in declaration order, whichever check found them
    a, x, y, z = (chance_var(n, ("0", "1"), 0) for n in "axyz")
    cpts = {"a": Table.from_flat([a], [0.5, 0.6]), "x": Table.from_flat([a, x], [0.5] * 4),
            "y": Table.from_flat([y], [-0.5, 1.5])}
    parents = {"a": (), "x": (a, a), "y": (), "z": ()}
    assert validate(InfluenceDiagram((a, x, y, z), parents, cpts, ())) == [
        ("normalization", "cpt rows of 'a' must sum to 1 (found 1.1)"),
        ("parents", "chance variable 'x' lists a parent twice"),
        ("cpt", "cpt of 'y' has negative entries"),
        ("cpt", "chance variable 'z' has no cpt"),
    ]


def _accepted_at_once(diagram):
    return _rows_sum_to_one([(v, diagram.cpts[v.name]) for v in diagram.chance_variables])


def test_a_zero_state_variable_is_reported_without_raising():
    z = chance_var("z", (), 0)
    x = chance_var("x", ("a", "b"), 0)
    cpts = {"z": Table((z,), np.zeros(0)), "x": Table((x, z), np.zeros((2, 0)))}
    diagram = InfluenceDiagram((z, x), {"z": (), "x": (z,)}, cpts, ())
    assert validate(diagram) == [
        ("states", "variable 'z' needs at least 2 states"),
        ("normalization", "cpt rows of 'z' must sum to 1 (found 0.0)"),
    ]


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


def _arc_graph(diagram):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(diagram.variables)
    for v in diagram.chance_variables:
        graph.add_edges_from((p, v) for p in diagram.parents.get(v.name, ()))
    return nx, graph


def _reference_order_violations(diagram):
    """The cycle and temporal violations, by networkx and one walk per decision."""
    nx, graph = _arc_graph(diagram)
    if not nx.is_directed_acyclic_graph(graph):
        return [("cycle", "directed graph over the variables has a cycle")]
    out = []
    for d in diagram.decisions:
        seen, stack = set(), list(graph.successors(d))
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(graph.successors(w))
        for x in sorted((x for x in seen if x.rank < d.rank), key=lambda v: v.name):
            out.append(
                (
                    "temporal",
                    f"decision {d.name!r} influences {x.name!r}, which is observed "
                    f"before it (stage {x.stage})",
                )
            )
    return out


def _mutate(model, rng, kind):
    """model with added arcs of one kind, and a quarter of the time a decision listed twice.

    ``direct`` adds an arc from a decision into its past, ``transitive`` a
    path of two arcs through a later variable, ``cycle`` two opposite arcs
    and ``random`` one to three arcs between any variables.
    """
    parents = dict(model.parents)
    chance = model.chance_variables
    first = min(x.rank for x in chance)
    d = rng.choice([d for d in model.decisions if d.rank > first] or model.decisions)
    early = [x for x in chance if x.rank < d.rank] or chance
    late = [x for x in chance if x.rank > d.rank] or chance
    if kind == "direct":
        arcs = [(d, rng.choice(early))]
    elif kind == "transitive":
        z = rng.choice(late)
        arcs = [(d, z), (z, rng.choice(early))]
    elif kind == "cycle":
        x, y = rng.sample(chance, 2) if len(chance) > 1 else (chance[0], chance[0])
        arcs = [(x, y), (y, x)]
    else:
        arcs = [(rng.choice(model.variables), rng.choice(chance)) for _ in range(rng.randint(1, 3))]
    for p, c in arcs:
        if p != c and p not in parents[c.name]:
            parents[c.name] += (p,)
    variables = model.variables + ((d,) if rng.random() < 0.25 else ())
    return InfluenceDiagram(variables, parents, model.cpts, model.utilities)


def test_order_violations_match_the_per_decision_walk():
    rng = random.Random(14)
    found = Counter()
    for seed in range(400):
        kind = ("direct", "transitive", "cycle", "random")[seed % 4]
        mutant = _mutate(random_model(seed, max_variables=10, max_decisions=4), rng, kind)
        want = _reference_order_violations(mutant)
        got = [tuple(p) for p in validate(mutant) if p.kind in ("cycle", "temporal")]
        assert got == want, seed
        twice = len(set(mutant.variables)) < len(mutant.variables)
        found.update((kind, violation, twice) for violation in dict(want))
    for kind, violation in [("direct", "temporal"), ("transitive", "temporal"), ("cycle", "cycle"),
                            ("random", "temporal"), ("random", "cycle")]:
        assert found[kind, violation, False] and found[kind, violation, True], found
    assert sum(found.values()) >= 250, found


def test_validate_walks_each_arc_a_bounded_number_of_times(monkeypatch):
    # a 1000-decision stage chain: one walk per decision visits every later
    # variable, about m^2 / 2 visits in all
    m = 1000
    xs = [chance_var(f"x{k}", ("0", "1"), k) for k in range(m + 1)]
    ds = [decision_var(f"D{k}", ("a", "b"), k) for k in range(1, m + 1)]
    parents = {"x0": (), **{f"x{k}": (xs[k - 1], ds[k - 1]) for k in range(1, m + 1)}}
    cpts = {v.name: Table.from_flat([*parents[v.name], v], [0.5] * 2 ** (len(parents[v.name]) + 1))
            for v in xs}
    diagram = InfluenceDiagram((*xs, *ds), parents, cpts, ())
    calls = 0
    hash_ = Variable.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return hash_(self)

    monkeypatch.setattr(Variable, "__hash__", counting)
    assert validate(diagram) == []
    assert calls <= 20 * (len(xs) + len(ds) + 2 * m)


HASHES_BEFORE_IDS = 26_992  # the same run when validate and the tree passes keyed sets by Variable


def test_the_pipeline_hashes_half_as_often_as_before_ids(monkeypatch):
    # parse -> validate -> compile -> solve over golden and 200 seeded draws;
    # each pass compares ids from diagram.index instead of sets of variables
    texts = [(MODELS / "golden.idm").read_text()]
    texts += [write_model(sweep_draw(i)) for i in range(200)]
    calls = 0
    hash_ = Variable.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return hash_(self)

    monkeypatch.setattr(Variable, "__hash__", counting)
    for text in texts:
        diagram = parse_model(text)
        assert validate(diagram) == []
        tree, *_ = compile_diagram(diagram)
        solve(tree, diagram)
    assert calls <= HASHES_BEFORE_IDS // 2, calls


# ---------------------------------------------------------------------------
# temporal rank


def test_precedes_on_the_four_decision_partition(golden):
    _, vs = golden
    assert vs["b"].rank < vs["D1"].rank
    assert vs["e"].rank == vs["f"].rank
    assert vs["g"].rank > vs["D3"].rank


def test_no_path_from_decision_into_its_past(golden_model):
    nx, graph = _arc_graph(golden_model)
    for d in golden_model.decisions:
        for reached in nx.descendants(graph, d):
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
