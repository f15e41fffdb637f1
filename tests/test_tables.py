"""Table algebra: pointwise ops, quotient convention, generalized marginalization.

Derived expectations are frozen from independent index arithmetic or computed
in-test by explicit enumeration over the full state space.
"""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idjt import (
    Table,
    UndefinedDivisionError,
    add,
    brute_force,
    chance_var,
    compile_diagram,
    decision_var,
    divide,
    extend,
    marg_all,
    max_out,
    multiply,
    parse_model,
    rollout,
    solve,
    sum_out,
)
from idjt import tables
from idjt.model import Variable
from idjt.tables import (STREAM_CELLS, _first_sum, _marg_one, argmax_over, canonical_key, max_and_argmax,
                         position)

from conftest import MODELS

A = chance_var("a", ("a0", "a1"), 0)
B = chance_var("b", ("b0", "b1"), 0)
C3 = chance_var("c", ("c0", "c1", "c2"), 0)
D = decision_var("D", ("d0", "d1", "d2"), 1)
X1 = chance_var("x", ("x0", "x1"), 1)


def t(domain, flat):
    return Table.from_flat(domain, flat)


# ---------------------------------------------------------------------------
# extend


def test_extend_scalar_is_constant():
    out = extend(Table.scalar(3.0), {A})
    assert out.domain == (A,)
    assert out.values.reshape(-1).tolist() == [3.0, 3.0]


def test_extend_to_own_domain_is_identity():
    table = t([A, B], [1, 2, 3, 4])
    assert extend(table, {A, B}).equals(table)


def test_extend_then_sum_scales_by_state_count():
    table = t([A], [0.25, 0.5])
    wide = extend(table, {A, C3})
    assert sum_out(wide, C3).equals(t([A], [0.75, 1.5]))


def test_from_flat_rejects_a_domain_that_repeats_a_variable():
    with pytest.raises(ValueError, match="^domain repeats a variable$"):
        Table.from_flat([A, A], [1, 2, 3, 4])


def test_a_table_rejects_values_of_another_shape():
    with pytest.raises(ValueError, match=r"^values shape \(2, 3\) does not match domain shape \(2, 2\)$"):
        Table((A, B), np.zeros((2, 3)))


def test_a_table_rejects_a_domain_out_of_canonical_order_or_with_a_repeat():
    with pytest.raises(ValueError, match=r"^domain must be in canonical \(rank, name\) order$"):
        Table((B, A), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^domain repeats a variable$"):
        Table((A, A), np.zeros((2, 2)))


def test_a_table_takes_its_domain_as_any_sequence_and_stores_a_tuple():
    listed = Table([A, B], np.arange(4.0).reshape(2, 2))
    assert listed.domain == (A, B) and type(listed.domain) is tuple
    assert listed.equals(Table((A, B), np.arange(4.0).reshape(2, 2)))
    with pytest.raises(ValueError, match=r"^domain must be in canonical \(rank, name\) order$"):
        Table([B, A], np.zeros((2, 2)))


def test_a_table_prints_its_variable_names_and_values():
    assert repr(t([A, B], [1, 2, 3, 4])) == "Table(a,b; [[1.0, 2.0], [3.0, 4.0]])"
    assert repr(Table.scalar(3.0)) == "Table(; 3.0)"


def test_to_flat_takes_only_a_permutation_of_the_domain():
    table = t([A, B], [1, 2, 3, 4])
    assert table.to_flat([B, A]).tolist() == [1, 3, 2, 4]
    for order in ([A], [A, A], [A, B, A], [A, C3]):
        with pytest.raises(ValueError, match="^order must be a permutation of the domain$"):
            table.to_flat(order)


def test_equal_values_over_another_domain_of_the_same_shape_are_not_equal():
    table, other = t([A], [1.0, 2.0]), t([B], [1.0, 2.0])
    assert table.values.shape == other.values.shape and table.equals(t([A], [1.0, 2.0]))
    assert not table.equals(other) and not table.equals(other, rtol=1e-9)


def test_extend_missing_variable_errors():
    with pytest.raises(ValueError, match="missing"):
        extend(t([A, B], [1, 2, 3, 4]), {A})


# ---------------------------------------------------------------------------
# multiply / add


def test_multiply_by_unit_and_add_null_are_identities():
    table = t([A, B], [1.0, 2.0, 3.0, 4.0])
    unit = t([A, B], [1.0] * 4)
    null = Table.null()
    assert multiply(table, unit).equals(table)
    assert add(table, null).equals(table)


def test_product_of_two_marginals():
    pa = t([A], [0.2, 0.8])
    pb = t([B], [0.5, 0.5])
    out = multiply(pa, pb)
    assert out.domain == (A, B)
    assert out.values.reshape(-1).tolist() == [0.10, 0.10, 0.40, 0.40]


def _pointwise_product(t1, t2):
    """Brute-force product: evaluate both tables at every joint configuration."""
    dom = sorted(set(t1.domain) | set(t2.domain), key=lambda v: (v.rank, v.name))
    out = np.empty([len(v.states) for v in dom])
    for idx in itertools.product(*(range(len(v.states)) for v in dom)):
        at = dict(zip(dom, idx))
        v1 = t1.values[tuple(at[v] for v in t1.domain)]
        v2 = t2.values[tuple(at[v] for v in t2.domain)]
        out[idx] = v1 * v2
    return Table(tuple(dom), out)


@st.composite
def small_table(draw, pool=(A, B, C3)):
    dom = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    dom = tuple(sorted(dom, key=lambda v: (v.rank, v.name)))
    n = int(np.prod([len(v.states) for v in dom])) if dom else 1
    flat = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return Table.from_flat(dom, [float(x) for x in flat])


@given(small_table(), small_table(), small_table())
@settings(max_examples=60, deadline=None)
def test_multiply_commutative_associative_vs_pointwise(t1, t2, t3):
    assert multiply(t1, t2).equals(_pointwise_product(t1, t2))
    assert multiply(t1, t2).equals(multiply(t2, t1))
    assert multiply(multiply(t1, t2), t3).equals(multiply(t1, multiply(t2, t3)))


# ---------------------------------------------------------------------------
# divide


def test_zero_over_zero_is_zero():
    assert float(divide(Table.scalar(0.0), Table.scalar(0.0)).values) == 0.0


def test_divide_by_self_is_unit():
    table = t([A, B], [0.5, 1.5, 2.0, 4.0])
    assert divide(table, table).equals(t([A, B], [1.0] * 4))


def test_nonzero_over_zero_errors():
    with pytest.raises(UndefinedDivisionError):
        divide(Table.scalar(1.0), Table.scalar(0.0))


def test_divide_mixed_support():
    num = t([A], [0.0, 3.0])
    den = t([A], [0.0, 1.5])
    assert divide(num, den).equals(t([A], [0.0, 2.0]))


# ---------------------------------------------------------------------------
# sum_out / max_out / max_and_argmax


def test_sum_out_cpt_child_gives_unit():
    cpt = t([B, X1], [0.3, 0.7, 0.9, 0.1])  # rows over x sum to one
    assert sum_out(cpt, X1).equals(t([B], [1.0, 1.0]))


def test_max_out_of_constant_slice():
    table = extend(t([A], [2.0, 5.0]), {A, X1})
    assert max_out(table, X1).equals(t([A], [2.0, 5.0]))


def test_sum_out_missing_variable_errors():
    with pytest.raises(ValueError, match="not in table domain"):
        sum_out(t([A], [1.0, 2.0]), B)


def test_max_out_on_scalar_table_errors_instead_of_minus_infinity():
    with pytest.raises(ValueError, match="not in table domain"):
        max_out(Table.scalar(1.0), A)


def test_two_sums_commute_exactly_on_dyadic_values():
    table = t([A, B, C3], [x / 8.0 for x in range(12)])
    ab = sum_out(sum_out(table, A), B)
    ba = sum_out(sum_out(table, B), A)
    assert ab.equals(ba)  # bit-exact


def test_sum_and_max_do_not_commute_witness():
    # frozen from enumerating all 2x2 tables with entries in {0, 1, 2}:
    # sum-then-max gives 2, max-then-sum gives 4
    d2 = decision_var("D", ("d0", "d1"), 1)
    table = t([A, d2], [0.0, 2.0, 2.0, 0.0])
    with_sum_first = max_out(sum_out(table, A), d2)
    with_max_first = sum_out(max_out(table, d2), A)
    assert float(with_sum_first.values) == 2.0
    assert float(with_max_first.values) == 4.0


def test_witness_found_by_enumeration():
    d2 = decision_var("D", ("d0", "d1"), 1)
    found = None
    for vals in itertools.product((0.0, 1.0, 2.0), repeat=4):
        table = t([A, d2], list(vals))
        if not max_out(sum_out(table, A), d2).equals(sum_out(max_out(table, d2), A)):
            found = vals
            break
    assert found is not None


def test_argmax_basic_and_tie_break():
    table = t([D], [1.0, 3.0, 2.0])
    assert int(max_and_argmax(table, D)[1].values) == 1
    flat_table = t([A, D], [7.0] * 6)
    am = max_and_argmax(flat_table, D)[1]
    assert am.values.tolist() == [0, 0]


def test_argmax_over_is_the_choice_max_and_argmax_returns():
    table = t([A, D], [1.0, 3.0, 2.0, 5.0, 4.0, 5.0])
    choice = argmax_over(table, D)
    assert choice.domain == (A,) and choice.values.tolist() == [1, 0]
    assert choice.equals(max_and_argmax(table, D)[1])


@given(st.lists(st.integers(-5, 5), min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_argmax_agrees_with_max(flat):
    table = t([A, B, D], [float(x) for x in flat])
    am = max_and_argmax(table, D)[1]
    mx = max_out(table, D)
    for idx in itertools.product(range(2), range(2)):
        at = dict(zip((A, B), idx))
        chosen = int(am.values[idx])
        full = tuple([at[A], at[B], chosen])
        assert table.values[full] == mx.values[idx]


# ---------------------------------------------------------------------------
# factor-partition identities


def test_sum_out_splits_over_factors():
    # phi = phi_rest * phi_with_a, with `a` confined to the second factor:
    # summing a out of phi * psi only touches the a-side product
    phi_rest = t([B], [2.0, 3.0])
    phi_with_a = t([A, C3], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    psi = t([A, B], [0.5, -1.0, 2.0, 4.0])
    whole = sum_out(multiply(multiply(phi_rest, phi_with_a), psi), A)
    split = multiply(phi_rest, sum_out(multiply(phi_with_a, psi), A))
    assert whole.equals(split)


def test_max_out_splits_when_other_factor_nonnegative():
    phi_rest = t([B], [0.0, 4.0])  # non-negative, constant in D
    psi = t([B, D], [1.0, -2.0, 3.0, 0.0, 5.0, -1.0])
    lhs = max_out(multiply(phi_rest, psi), D)
    rhs = multiply(phi_rest, max_out(psi, D))
    assert lhs.equals(rhs)


# ---------------------------------------------------------------------------
# marg_all


def test_marg_all_empty_set_is_identity():
    phi = t([A], [0.4, 0.6])
    psi = t([B], [1.0, 2.0])
    out_phi, out_psi = marg_all([phi, psi], [])
    assert out_phi is phi and out_psi is psi


def test_marg_all_constant_utility_passes_through():
    phi = t([B, X1], [0.3, 0.7, 0.9, 0.1])  # P(x|b)
    psi = t([B], [5.0, -1.0])
    out_phi, out_psi = marg_all([phi, psi], [X1])
    assert out_phi.equals(t([B], [1.0, 1.0]))
    assert out_psi.equals(psi, rtol=1e-12)


def _enumerate_pair(phi, psi, variables):
    """Reference contraction: alternate max/sum by explicit enumeration."""
    order = sorted(variables, key=lambda v: -v.rank)
    rho = _pointwise_product(phi, psi)
    cur_phi = extend(phi, set(phi.domain) | set(rho.domain))
    for v in order:
        if v.is_decision:
            cur_phi = max_out(cur_phi, v) if v in cur_phi.domain else cur_phi
            rho = max_out(rho, v) if v in rho.domain else rho
        else:
            if v in cur_phi.domain:
                cur_phi = sum_out(cur_phi, v)
            else:
                cur_phi = Table(cur_phi.domain, cur_phi.values * len(v.states))
            if v in rho.domain:
                rho = sum_out(rho, v)
            else:
                rho = Table(rho.domain, rho.values * len(v.states))
    return cur_phi, divide(rho, cur_phi)


def test_marg_all_three_variable_fixture_vs_enumeration():
    rng = np.random.default_rng(7)
    phi = t([B, X1], rng.uniform(0.1, 1.0, 4))
    psi = t([X1, D], rng.uniform(-3.0, 3.0, 6))
    got_phi, got_psi = marg_all([phi, psi], [X1, D])
    ref_phi, ref_psi = _enumerate_pair(phi, psi, [X1, D])
    assert got_phi.equals(ref_phi, rtol=1e-12)
    assert got_psi.equals(ref_psi, rtol=1e-12)


def test_marg_all_order_independent_within_information_set():
    e1 = chance_var("e1", ("0", "1"), 1)
    e2 = chance_var("e2", ("0", "1", "2"), 1)
    e3 = chance_var("e3", ("0", "1"), 1)
    rng = np.random.default_rng(3)
    phi = t([e1, e2, e3], rng.uniform(0.0, 1.0, 12))
    psi = t([e2, e3], rng.uniform(-2.0, 2.0, 6))
    results = []
    for perm in itertools.permutations([e1, e2, e3]):
        results.append(marg_all([phi, psi], perm))
    base_phi, base_psi = results[0]
    for other_phi, other_psi in results[1:]:
        assert other_phi.equals(base_phi, rtol=1e-12)
        assert other_psi.equals(base_psi, rtol=1e-12)


def test_marg_all_order_exact_on_dyadic_values():
    e1 = chance_var("e1", ("0", "1"), 1)
    e2 = chance_var("e2", ("0", "1"), 1)
    phi = t([e1, e2], [x / 8.0 for x in (1, 5, 3, 7)])
    psi = t([e2], [0.5, -1.25])
    fwd = marg_all([phi, psi], [e1, e2])
    rev = marg_all([phi, psi], [e2, e1])
    assert fwd[0].equals(rev[0]) and fwd[1].equals(rev[1])  # bit-exact


def test_marg_all_rejects_decision_rank_tie():
    d_dup = decision_var("E", ("e0", "e1"), 1)  # same index as D
    phi = t([D, d_dup], [1.0] * 6)
    with pytest.raises(ValueError, match="share a temporal rank"):
        marg_all([phi, Table.null()], [D, d_dup])


def test_marg_all_variable_outside_both_domains():
    # summed: scales phi by the state count; maximized: no-op
    phi = t([B], [0.5, 0.5])
    psi = Table.null()
    out_phi, _ = marg_all([phi, psi], [X1])
    assert out_phi.equals(t([B], [1.0, 1.0]))
    out_phi, _ = marg_all([phi, psi], [D])
    assert out_phi.equals(phi)


def test_canonical_domain_order_is_stage_then_name():
    table = t([X1, A], [1.0, 2.0, 3.0, 4.0])  # given out of order
    assert table.domain == (A, X1)
    # values follow the canonical axes: entry (a=0, x=1) was listed at (x=1, a=0)
    assert table.values[0, 1] == 3.0


def test_operation_results_are_read_only_c_ordered_and_unshared():
    ab = t([A, B], [1.0, 2.0, 3.0, 4.0])
    xa = t([X1, A], [0.5, 0.25, 2.0, 1.0])
    ad = t([A, D], [1.0, 3.0, 2.0, 4.0, 0.0, 4.0])
    results = [
        extend(ab, {A, B, X1}), multiply(ab, xa), add(ab, xa), divide(ab, xa),
        sum_out(ab, B), max_out(ab, A), max_and_argmax(ad, D)[1],
        sum_out(sum_out(ab, A), B),  # a full reduction is a 0-d table, not a numpy scalar
        marg_all([ab, xa], [X1], None)[0],  # X1 only in psi: phi is scaled by its state count
    ]
    for out in results:
        assert isinstance(out.values, np.ndarray)
        assert out.values.shape == tuple(len(v.states) for v in out.domain)
        assert out.values.flags.c_contiguous and not out.values.flags.writeable
        for operand in (ab, xa, ad):
            assert not np.shares_memory(out.values, operand.values)


# ---------------------------------------------------------------------------
# large tables: the streamed kernels against numpy on the same arrays

VALUE_POOL = np.array([-0.0, 0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 0.1, 0.7, 1 / 3, np.inf, -np.inf])


def _same_bits(got, want):
    """Equal dtype, shape and bits; NaNs must sit in the same cells (their sign and payload may differ)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype != np.float64:
        return np.array_equal(got, want)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.int64), want[~nan].view(np.int64)
    )


def _variables(counts):
    return tuple(
        chance_var(f"v{i:02d}", tuple(f"s{j}" for j in range(n)), 0) for i, n in enumerate(counts)
    )


def _var(name, states, rank):
    """A variable with ``states`` states at temporal rank ``rank`` (odd rank: a decision)."""
    make = decision_var if rank % 2 else chance_var
    return make(name, tuple(f"s{j}" for j in range(states)), (rank + 1) // 2)


def _elimination_layout(domain):
    """Canonical axes in the order a large result stores them: decisions, then chance latest stage first."""
    key = [(not v.is_decision, -v.rank, v.name) for v in domain]
    return sorted(range(len(domain)), key=key.__getitem__)


def _innermost(values):
    """The axis a reduction's contiguous inner loop runs along: the smallest stride of more than one cell."""
    strides = [(abs(stride), i) for i, (stride, n) in enumerate(zip(values.strides, values.shape)) if n > 1]
    return min(strides)[1]


def _close(got, want):
    return got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)


def _large_products(rng, fill):
    """Products of STREAM_CELLS or more cells over three stages and a decision, with numpy's product.

    An n-state chance variable (n = 1, 5, 9) joins the first stage or the last,
    so that it is the innermost axis in elimination layout, in canonical
    order, or in neither.  Each product is an operation's result, so it is
    stored in elimination layout.
    """
    base = [_var("b0", 6, 0), _var("b1", 2, 0), _var("b2", 3, 0), _var("D", 3, 1),
            _var("c0", 2, 2), _var("c1", 8, 2), _var("c2", 2, 2), _var("e0", 2, 4), _var("e1", 3, 4)]
    for n in (1, 5, 9):
        for name, rank in (("a", 0), ("z", 0), ("z", 4)):
            extra = _var(name, n, rank)
            domain = sorted([*base, extra], key=canonical_key)
            pool = None if fill == "uniform" else VALUE_POOL[:10]
            halves = [
                _subtable(rng, domain, lambda v, h=h: v is extra or domain.index(v) % 2 == h, pool)
                for h in (0, 1)
            ]
            yield multiply(*halves), _numpy_broadcast(np.multiply, *halves)


@pytest.mark.parametrize("fill", ["uniform", "pool"])
def test_large_reductions_match_numpy_bit_for_bit(fill):
    rng = np.random.default_rng(11)
    pairwise = 0
    for table, product in _large_products(rng, fill):
        values = np.ascontiguousarray(table.values)
        assert _same_bits(values, product) and not table.values.flags.c_contiguous
        for axis, v in enumerate(table.domain):
            # numpy sums and maxes a contiguous run of 8 or more cells with
            # several accumulators, so along such an axis the stored order and
            # the C copy may round (or pick a signed zero) differently
            several = values.shape[axis] >= 8 and axis in (_innermost(values), _innermost(table.values))
            pairwise += several
            same = _close if several else _same_bits
            top = values.max(axis=axis)
            assert same(sum_out(table, v).values, values.sum(axis=axis)), (table.domain, v)
            assert same(max_out(table, v).values, top), (table.domain, v)
            got, choice = max_and_argmax(table, v)
            assert same(got.values, top), (table.domain, v)
            assert _same_bits(choice.values, np.argmax(values, axis=axis)), (table.domain, v)
    assert pairwise


# the shape of a stage-0 variable, a 4-state decision and a stage-1 variable
@pytest.mark.parametrize("shape", [(64, 4, 64), (4096, 4, 2)])
def test_large_argmax_ties_go_to_the_lowest_index(shape):
    domain = (_var("e", shape[0], 0), _var("D", shape[1], 1), _var("l", shape[2], 2))
    values = np.zeros(shape)
    values[:, 1:, :] = 1.0  # states 1..3 tie for the max
    values[0, 3, :] = 2.0  # state 3 wins alone
    values[1, :, :] = -0.0  # signed zeros tie with each other
    values[1, 2, :] = 0.0
    table = multiply(Table(domain, values), Table.unit())  # stored with the decision outermost
    assert not table.values.flags.c_contiguous
    got = max_and_argmax(table, domain[1])[1].values
    assert _same_bits(got, np.argmax(np.ascontiguousarray(table.values), axis=1))
    assert set(np.unique(got).tolist()) == {0, 1, 3}


def test_large_argmax_with_nan_matches_numpy():
    rng = np.random.default_rng(5)
    domain = (_var("a", 256, 0), _var("b", 2, 0), _var("D", 3, 1), _var("c", 2, 2), _var("d", 2, 2),
              _var("f", 2, 4), _var("g", 2, 4))
    values = rng.choice(VALUE_POOL[:10], size=tuple(len(v.states) for v in domain))
    values[7, 1, 2, 0, 1, 1, 0] = np.nan
    values[9, 0, :, 1, 0, 0, 1] = np.nan  # every state of D NaN: the first one wins
    table = multiply(Table(domain, values), Table.unit())
    values = np.ascontiguousarray(table.values)
    for axis, v in enumerate(domain):
        with np.errstate(invalid="ignore"):
            got = max_and_argmax(table, v)[1].values
        assert _same_bits(got, np.argmax(values, axis=axis)), axis
        assert _same_bits(max_out(table, v).values, values.max(axis=axis)), axis
        top = max_and_argmax(table, v)[0].values
        assert _same_bits(top, values.max(axis=axis)), axis


def test_large_results_are_one_read_only_buffer_in_elimination_layout():
    rng = np.random.default_rng(4)
    domain = (_var("a", 4, 0), _var("b", 8, 0), _var("D", 3, 1), _var("c", 8, 2), _var("d", 2, 2),
              _var("e", 2, 4), _var("f", 8, 4), _var("g", 2, 4))  # 49152 cells
    _, b, dec, _, d, e, f, g = domain
    phi = Table.from_flat(domain, rng.uniform(0.1, 1.0, 49152))
    assert phi.values.flags.c_contiguous  # a constructor keeps canonical C order
    psi = _subtable(rng, domain, lambda v: v in (b, dec, f), None)
    rest = _subtable(rng, domain, lambda v: v is not g, None)
    results = [
        multiply(phi, psi), add(psi, phi), divide(phi, psi), extend(psi, domain),
        sum_out(phi, d), max_out(phi, e),  # a reduction of a C-ordered table
        sum_out(multiply(phi, psi), g), *max_and_argmax(phi, dec),
        marg_all([phi, psi], [g])[0], marg_all([rest, psi], [g])[0],  # g outside rest: scaled by 2
    ]
    for out in results:
        layout = _elimination_layout(out.domain)
        assert out.values.size >= STREAM_CELLS and layout != sorted(layout)
        assert out.values.transpose(layout).flags.c_contiguous and not out.values.flags.writeable
        for operand in (phi, psi, rest):
            assert not np.shares_memory(out.values, operand.values)
    stored = multiply(phi, psi)
    small = sum_out(stored, b)  # 6144 cells, reduced from a table stored in layout
    assert small.values.flags.c_contiguous and not np.shares_memory(small.values, stored.values)
    # the max and the index over a table stored in layout are written in that
    # order over three stages, so each is the buffer it was computed in
    for out in max_and_argmax(stored, dec):
        assert out.values.transpose(_elimination_layout(out.domain)).flags.c_contiguous
        assert out.values.flags.owndata


@pytest.mark.parametrize("states", [1, 12])  # a small table, and a streamed one
def test_marg_all_reports_the_argmax_of_the_max_it_takes(states):
    rng = np.random.default_rng(8)
    early = [chance_var(f"e{i}", ("0", "1"), 0) for i in range(states)]
    late = [chance_var(f"l{i}", ("0", "1"), 1) for i in range(2)]
    phi = Table.from_flat(early + late, rng.random(2 ** (states + 2)))
    psi = Table.from_flat([*early, D, *late], rng.choice(VALUE_POOL[:10], size=3 * 2 ** (states + 2)))
    seen = []
    got = marg_all([phi, psi], [*early, D, *late], on_decision=lambda *step: seen.append(step))
    assert all(_same_bits(g.values, w.values) for g, w in zip(got, marg_all([phi, psi], [*early, D, *late])))
    rho = sum_out(sum_out(multiply(phi, psi), late[0]), late[1])
    [(decision, phi_at_d, top, choice)] = seen
    assert decision == D and set(phi_at_d.domain) == set(early)
    assert top is phi_at_d  # phi lacks the decision: its max over it is phi itself
    assert _same_bits(choice.values, max_and_argmax(rho, D)[1].values)
    # a phi that spans the decision: top is its max over the decision, bit for bit
    spanning = Table.from_flat([*early, D, *late], rng.random(3 * 2 ** (states + 2)))
    seen.clear()
    marg_all([spanning, psi], [*early, D, *late], on_decision=lambda *step: seen.append(step))
    [(_, phi_at_d, top, _)] = seen
    want = max_out(phi_at_d, D)
    assert D in phi_at_d.domain and top.domain == want.domain and _same_bits(top.values, want.values)
    # a decision outside rho's domain: every state ties, and state 0 is recorded
    seen.clear()
    marg_all([phi, Table.null()], [D], on_decision=lambda *step: seen.append(step))
    assert seen[0][3].domain == phi.domain and not seen[0][3].values.any()


NULL_POOL = (_var("a", 2, 0), _var("b", 3, 0), _var("D1", 2, 1), _var("c", 2, 2), _var("D2", 3, 3),
             _var("e", 2, 4))
PROBABILITY = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1 / 3, 5e-324, 1e300]), st.floats(0, 1e3))


@given(phi_domain=st.lists(st.sampled_from(NULL_POOL), unique=True, max_size=4),
       variables=st.lists(st.sampled_from(NULL_POOL), unique=True), data=st.data())
@settings(max_examples=100, deadline=None)
def test_marg_all_of_the_null_utility_is_that_of_an_all_zero_table(phi_domain, variables, data):
    cells = int(np.prod([len(v.states) for v in phi_domain]))
    phi = Table.from_flat(phi_domain, data.draw(st.lists(PROBABILITY, min_size=cells, max_size=cells)))
    zero = Table.from_flat(phi_domain, np.zeros(cells))
    runs = []
    for psi in (Table.null(), zero):
        seen = []
        out = marg_all([phi, psi], variables, lambda d, p, top, c: seen.append((d, p.domain, p.values, top, c)))
        runs.append((out, seen))
    ((phi_null, psi_null), seen_null), ((phi_zero, psi_zero), seen_zero) = runs
    assert phi_null.domain == phi_zero.domain and _same_bits(phi_null.values, phi_zero.values)
    assert len(seen_null) == len(seen_zero) == sum(v.is_decision for v in variables)
    for (d, dom, p, top, c), (d0, dom0, p0, top0, c0) in zip(seen_null, seen_zero):
        assert d is d0 and dom == dom0 and _same_bits(p, p0)
        assert top.domain == top0.domain and _same_bits(top.values, top0.values)
        assert c.domain == c0.domain and _same_bits(c.values, c0.values)
    assert not psi_null.values.any() and not psi_zero.values.any()


# a large contraction's first sum, taken from phi and psi without their whole product

FIRST_POOL = (*(_var(f"a{i}", 2, 0) for i in range(6)), _var("D1", 2, 1),
              *(_var(f"b{i}", 2, 2) for i in range(4)), _var("D2", 3, 3),
              _var("w", 2, 4))  # 12288 cells, led by two decisions in the stored layout
NONNEGATIVE_POOL = VALUE_POOL[[0, 1, 2, 4, 5, 7, 8, 9]]


def _unfused(phi, psi, variables):
    """``marg_all`` and its max steps, rho = phi * psi formed whole, then reduced a variable at a time."""
    rho, steps = multiply(phi, psi), []
    for v in sorted(variables, key=lambda v: (-v.rank, v.name)):
        if v.is_decision:
            rho, choice = max_and_argmax(rho, v)
            steps.append((v, phi, _marg_one(phi, v, True), choice))
        else:
            rho = sum_out(rho, v)
        phi = _marg_one(phi, v, v.is_decision)
    return (phi, divide(rho, phi)), steps


@given(states=st.integers(2, 11), lacks=st.sampled_from(["neither", "phi", "psi"]),
       in_phi=st.lists(st.booleans(), min_size=len(FIRST_POOL), max_size=len(FIRST_POOL)),
       in_psi=st.lists(st.booleans(), min_size=len(FIRST_POOL), max_size=len(FIRST_POOL)),
       eliminated=st.lists(st.booleans(), min_size=len(FIRST_POOL), max_size=len(FIRST_POOL)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_a_large_first_sum_has_the_bits_of_the_whole_product(states, lacks, in_phi, in_psi, eliminated, seed):
    v = _var("v", states, 4)  # summed first: the latest stage, named before w
    rng = np.random.default_rng(seed)
    phi_domain = [u for u, keep in zip(FIRST_POOL, in_phi) if keep] + [v] * (lacks != "phi")
    psi_domain = [u for u, keep, other in zip(FIRST_POOL, in_psi, in_phi) if keep or not other]
    psi_domain += [v] * (lacks != "psi")
    pools = ((phi_domain, NONNEGATIVE_POOL), (psi_domain, VALUE_POOL[:10]))  # both with zeros of either sign
    phi, psi = (_subtable(rng, sorted(domain, key=canonical_key), lambda u: True, pool)
                for domain, pool in pools)
    first = _first_sum(phi, [psi], v)
    assert first is not None and _same_bits(first.values, sum_out(multiply(phi, psi), v).values)
    variables = [v, *(u for u, out in zip(FIRST_POOL, eliminated) if out)]
    seen = []
    got = marg_all([phi, psi], variables, lambda *step: seen.append(step))
    want, steps = _unfused(phi, psi, variables)
    assert [g.domain for g in got] == [w.domain for w in want]
    assert all(_same_bits(g.values, w.values) for g, w in zip(got, want))
    assert len(seen) == len(steps)
    for (d, p, top, c), (d0, p0, top0, c0) in zip(seen, steps):
        assert d is d0 and p.domain == p0.domain and _same_bits(p.values, p0.values)
        assert top.domain == top0.domain and _same_bits(top.values, top0.values)
        assert _same_bits(c.values, c0.values)


def test_a_first_sum_along_the_innermost_stored_axis_forms_the_whole_product():
    # the decision leads the stored layout, so v is innermost: numpy sums its
    # 11 states pairwise, which a sum one slice at a time does not match
    rng = np.random.default_rng(21)
    d, v = _var("D", 1500, 1), _var("v", 11, 2)
    phi, psi = Table((d, v), rng.random((1500, 11))), Table((v,), rng.random(11))
    assert _first_sum(phi, [psi], v) is None
    rho = multiply(phi, psi).values
    assert not _same_bits(sum(rho[:, s] for s in range(11)), rho.sum(axis=1))
    want, _ = _unfused(phi, psi, [v])
    assert all(_same_bits(g.values, w.values) for g, w in zip(marg_all([phi, psi], [v]), want))


def test_a_large_contraction_that_maximizes_first_forms_the_whole_product():
    # D has the latest rank, so it goes first: a max step, which the first sum must leave to the whole product
    rng = np.random.default_rng(8)
    a, d = [_var(f"a{i:02d}", 2, 0) for i in range(13)], _var("D", 3, 1)
    phi = _subtable(rng, (*a, d), lambda u: u is not d, NONNEGATIVE_POOL)
    psi = _subtable(rng, (*a[6:], d), lambda u: True, VALUE_POOL[:10])
    assert 2**13 * 3 >= STREAM_CELLS and _first_sum(phi, [psi], d) is None
    variables, seen = [d, a[12], a[0]], []
    got = marg_all([phi, psi], variables, lambda *step: seen.append(step))
    want, steps = _unfused(phi, psi, variables)
    assert [g.domain for g in got] == [w.domain for w in want]
    assert all(_same_bits(g.values, w.values) for g, w in zip(got, want))
    [(v, p, top, choice)], [(_, _, top0, choice0)] = seen, steps
    assert v is d and p is phi and _same_bits(top.values, top0.values)
    assert choice.domain == choice0.domain == tuple(a) and _same_bits(choice.values, choice0.values)


def test_a_large_contraction_holds_phi_and_two_half_tables_and_frees_psi_first():
    # a clique of 2^18 cells: phi over all of it, as the solver holds it, and
    # psi over (a14, a15, D, v); v is summed first, then D is maximized
    a = [_var(f"a{i:02d}", 2, 0) for i in range(16)]
    d, v = _var("D", 2, 1), _var("v", 2, 2)
    rng = np.random.default_rng(6)
    tracemalloc.start()
    try:
        phi = multiply(Table((*a, d, v), rng.random((2,) * 18)), Table.unit())  # stored in layout
        psi = Table((a[14], a[15], d, v), rng.uniform(-1.0, 1.0, (2,) * 4))
        alive, nbytes = (weakref.ref(psi), weakref.ref(psi.values)), phi.values.nbytes
        tables = [phi, psi]
        del phi, psi
        seen = []
        tracemalloc.reset_peak()
        marg_all(tables, [v, d], lambda *step: seen.append([r() is None for r in alive]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [[True, True]]  # psi's table and array are gone by the max step
    assert peak < 2.25 * nbytes, peak / nbytes  # forming phi * psi whole would take 2.5 times


def _union(t1, t2):
    return tuple(sorted(set(t1.domain) | set(t2.domain), key=canonical_key))


def _embedded(t, union):
    return t.values.reshape([len(v.states) if v in t.domain else 1 for v in union])


def _numpy_broadcast(op, t1, t2):
    """The reference: numpy's own broadcasting of both operands over the canonical union."""
    union = _union(t1, t2)
    return op(_embedded(t1, union), _embedded(t2, union))


def _subtable(rng, domain, keep, pool=VALUE_POOL):
    """The variables of domain that ``keep`` picks, over values drawn from ``pool`` (None: uniform)."""
    kept = tuple(v for v in domain if keep(v))
    shape = tuple(len(v.states) for v in kept)
    return Table(kept, rng.random(shape) if pool is None else rng.choice(pool, size=shape))


def test_large_multiply_and_add_match_numpy_bit_for_bit():
    rng = np.random.default_rng(3)
    domain = _variables((3, 2, 4, 2, 5, 2, 3, 2, 2, 1, 2, 3))  # 69120 cells
    last6 = set(domain[-6:])  # the trailing block of BLOCK or more cells
    pairs = [
        # interleaved domains: each operand copied over the trailing block, or used as it is
        (lambda v: v.name[-1] in "02468", lambda v: v.name[-1] in "13579"),
        (lambda v: domain.index(v) % 3 != 1, lambda v: domain.index(v) % 3 != 2),
        # one operand as large as the output but for one block variable, the other small:
        # one call per cell of the small operand
        (lambda v: v is not domain[-2], lambda v: v in (domain[-2], domain[-1])),
        (lambda v: v in (domain[-6], domain[-4]), lambda v: v is not domain[-4]),
        # both as large as the output but for one block variable: numpy's own broadcast
        (lambda v: v is not domain[-2], lambda v: v is not domain[-4]),
        # a scalar, equal domains, and an operand spanning none of the block
        (lambda v: False, lambda v: True),
        (lambda v: True, lambda v: True),
        (lambda v: v not in last6, lambda v: v in last6),
    ]
    for i, (keep1, keep2) in enumerate(pairs):
        for _ in range(3):
            t1, t2 = _subtable(rng, domain, keep1), _subtable(rng, domain, keep2)
            for a, b in ((t1, t2), (t2, t1)):
                with np.errstate(invalid="ignore"):
                    prod, total = multiply(a, b), add(a, b)
                    want_prod, want_total = _numpy_broadcast(np.multiply, a, b), _numpy_broadcast(np.add, a, b)
                assert prod.values.size >= STREAM_CELLS
                assert _same_bits(prod.values, want_prod), i
                assert _same_bits(total.values, want_total), i
                assert prod.values.flags.c_contiguous and not prod.values.flags.writeable


def test_large_clique_solve_agrees_with_brute_force():
    # A hidden cause h, symptoms seen before the decision and a utility on
    # (D, h): one clique of 2^15 cells, or of 9 * 2^12 with a 9-state h, so
    # initialization, the utility product, the sums and the max step all run
    # on tables stored in elimination layout, while the state space stays
    # within the oracle's cap.  A 9-state h is the innermost canonical axis
    # but not the innermost stored one: numpy sums it pairwise on a C-ordered
    # copy and one slice at a time here, so only the rounding may differ.
    rng = np.random.default_rng(8)
    for states, count in (("no yes", 13), (" ".join(f"h{i}" for i in range(9)), 11)):
        k = len(states.split())
        symptoms = [f"o{i:02d}" for i in range(count)]
        lines = [f"chance {o} states n y stage 0" for o in symptoms]
        lines += [f"chance h states {states} stage 1", "decision D states wait act index 1"]
        prior = (rng.uniform(0.1, 0.9, k - 1) / (k - 1)).tolist()
        lines.append("cpt h : " + " ".join(repr(x) for x in [*prior, 1 - sum(prior)]))
        for o in symptoms:
            rows = [f"{q!r} {1 - q!r}" for q in rng.uniform(0.05, 0.95, k).tolist()]
            lines.append(f"cpt {o} given h : " + " ".join(rows))
        utility = rng.uniform(-10, 10, 2 * k).tolist()
        lines.append("utility u over D h : " + " ".join(repr(x) for x in utility))
        diagram = parse_model("\n".join(lines) + "\n")
        tree = compile_diagram(diagram)[0]
        assert max(c.weight for c in tree.cliques) >= 2 * STREAM_CELLS
        result = solve(tree, diagram)
        ref = brute_force(diagram).meu
        assert abs(result.meu - ref) <= 1e-9 * max(1.0, abs(ref)), states
        assert abs(rollout(diagram, list(result.policies)) - ref) <= 1e-9 * max(1.0, abs(ref)), states


def test_the_diagnosis14_solve_runs_each_slice_loop_of_the_large_path(monkeypatch):
    # one clique of 2^16 cells: two of initialize's products stream over a
    # small CPT cell by cell, the first sum over h adds its slice products and
    # the max over D1 counts its states over whole slices
    diagram = parse_model((MODELS / "diagnosis14.idm").read_text())
    tree = compile_diagram(diagram)[0]
    fused, maxed, cells = [], [], []
    first_sum, max_argmax, ndindex = tables._first_sum, tables.max_and_argmax, np.ndindex

    def counted_first_sum(phi, psis, v):
        out = first_sum(phi, psis, v)
        fused.append(out is not None)
        return out

    def counted_max_and_argmax(t, decision):
        maxed.append(t.values.size >= STREAM_CELLS)
        return max_argmax(t, decision)

    def counted_ndindex(*shape):
        cells.append(shape)
        return ndindex(*shape)

    monkeypatch.setattr(tables, "_first_sum", counted_first_sum)
    monkeypatch.setattr(tables, "max_and_argmax", counted_max_and_argmax)
    monkeypatch.setattr(np, "ndindex", counted_ndindex)
    result = solve(tree, diagram)
    monkeypatch.undo()
    assert [c.weight for c in tree.cliques] == [1 << 16]
    assert fused == [True] and maxed == [True] and len(cells) == 2
    assert result.meu == pytest.approx(5.292051421034082, rel=1e-12)


def _zero_where(num, den):
    """num with every cell zeroed that meets a zero of den over the union, so num / den is defined."""
    union = _union(num, den)
    zero = np.broadcast_to(_embedded(den, union) == 0.0, [len(v.states) for v in union])
    hit = zero.any(axis=tuple(i for i, v in enumerate(union) if v not in num.domain))
    return Table(num.domain, np.where(hit.reshape(num.values.shape), 0.0, num.values))


def _numpy_divide(num, den):
    """The reference quotient, 0/0 = 0, over numpy's broadcast of both operands."""
    def quotient(a, b):
        return np.divide(a, b, out=np.zeros(np.broadcast_shapes(a.shape, b.shape)), where=b != 0.0)

    return _numpy_broadcast(quotient, num, den)


@pytest.mark.parametrize("counts", [(3, 2, 2, 1, 2), (3, 2, 4, 2, 5, 2, 3, 2, 2, 1, 2, 3)])  # 24, 69120 cells
def test_fast_paths_match_numpy_broadcast_bit_for_bit(counts):
    rng = np.random.default_rng(13)
    domain, twins = _variables(counts), _variables(counts)  # equal variables, distinct objects
    pairs = {  # equal domains and a scalar take one ufunc call; subset and interleaved embed first
        "equal": (lambda v: True, lambda v: True),
        "scalar": (lambda v: False, lambda v: True),
        "subset": (lambda v: True, lambda v: domain.index(v) % 2 == 0),
        "interleaved": (lambda v: domain.index(v) % 2 == 0, lambda v: domain.index(v) % 3 != 0),
    }
    for name, (keep1, keep2) in pairs.items():
        t1, t2 = _subtable(rng, domain, keep1), _subtable(rng, twins, keep2)
        for a, b in ((t1, t2), (t2, t1)):
            nonzero = _subtable(rng, b.domain, lambda v: True, VALUE_POOL[2:])
            flat = b.values.reshape(-1).copy()
            flat[0] = 0.0
            den = Table(b.domain, flat.reshape(b.values.shape))  # a zero for sure
            num = _zero_where(a, den)
            with np.errstate(invalid="ignore"):
                got = [multiply(a, b), add(a, b), divide(a, nonzero), divide(num, den)]
                want = [_numpy_broadcast(np.multiply, a, b), _numpy_broadcast(np.add, a, b),
                        _numpy_broadcast(np.divide, a, nonzero), _numpy_divide(num, den)]
            for g, w in zip(got, want):
                assert g.domain == _union(a, b) and _same_bits(g.values, w), name
                assert (g.values.size >= STREAM_CELLS) == (len(counts) > 5), name
            with pytest.raises(UndefinedDivisionError):  # x/0 with x != 0
                divide(_subtable(rng, a.domain, lambda v: True, VALUE_POOL[2:]), den)


def test_axis_lookup_matches_an_equal_variable_that_is_another_object():
    a, d = chance_var("a", ("0", "1"), 0), decision_var("D", ("u", "v", "w"), 1)
    t = Table.from_flat([a, d], [0.1, 0.7, 0.3, 0.2, 0.6, 0.9])
    a2, d2 = chance_var("a", ("0", "1"), 0), decision_var("D", ("u", "v", "w"), 1)
    assert (a2, d2) == (a, d) and a2 is not a and d2 is not d
    assert [position(t.domain, v) for v in (a, d, a2, d2)] == [0, 1, 0, 1]
    assert position(t.domain, chance_var("a", ("0", "1", "2"), 0)) is None
    assert sum_out(t, a2).equals(sum_out(t, a)) and max_out(t, d2).equals(max_out(t, d))
    top, idx = max_and_argmax(t, d2)
    assert top.values.tolist() == [0.7, 0.9] and idx.values.tolist() == [1, 2]
    phi, psi = marg_all([t, Table.unit()], [a2])
    assert phi.domain == (d,) and np.allclose(phi.values, [0.3, 1.3, 1.2])
    scale = Table.from_flat([a2], [2.0, 3.0])  # embedded where ``==`` finds a2, which is not a
    assert multiply(t, scale).equals(multiply(t, Table.from_flat([a], [2.0, 3.0])))
    assert extend(scale, [a, d]).values.tolist() == [[2.0] * 3, [3.0] * 3]


def test_a_lookup_compares_no_two_variables_of_different_names(monkeypatch):
    # the dataclass ``==`` runs only between variables that share a name, so a
    # lookup of a non-member, an embedding and a reordering never call it
    num, den = t([A, B, D], np.arange(1.0, 13.0)), t([A, D], [1.0, 2.0, 4.0, 8.0, 0.5, 0.25])
    other = t([C3, D], np.arange(1.0, 10.0))
    want = [np.multiply(num.values, den.values[:, None, :]), np.divide(num.values, den.values[:, None, :]),
            np.multiply(num.values[:, :, None, :], other.values), np.divide(num.values[:, :, None, :], other.values)]
    flat = np.arange(6.0)

    def refuse(self, other):
        raise AssertionError(f"{self!r} == {other!r}")

    monkeypatch.setattr(Variable, "__eq__", refuse)
    assert position((A, B, D), C3) is None
    got = [multiply(num, den), divide(num, den), multiply(num, other), divide(num, other)]  # subset, interleaved
    assert [g.domain for g in got] == [(A, B, D)] * 2 + [(A, B, C3, D)] * 2
    assert all(_same_bits(g.values, w) for g, w in zip(got, want))
    table = Table.from_flat([D, A], flat)
    assert table.domain == (A, D) and table.values.tolist() == flat.reshape(3, 2).T.tolist()
    assert table.to_flat([D, A]).tolist() == flat.tolist()
