"""Field arithmetic and function-table predicates, checked exhaustively on
small fields and by brute-force oracles."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from nmds.field import (
    DEFAULT_MODULI,
    FieldFunction,
    GF2m,
    _mul_raw,
    find_factor,
    has_root_f_plus_x_plus_1,
    is_oval_polynomial,
    is_permutation,
    is_two_to_one,
    oval_slope_criterion,
    poly_to_str,
)
from oracles import scale_table


# ---------------------------------------------------------------------------
# construction and modulus validation
# ---------------------------------------------------------------------------

def test_default_context_m3():
    ctx = GF2m(3)
    assert ctx.q == 8
    assert ctx.modulus == 0b1011  # x^3+x+1


def test_default_context_m2():
    ctx = GF2m(2)
    assert ctx.q == 4
    assert ctx.modulus == 0b111  # the unique irreducible of degree 2


def test_reducible_modulus_rejected_with_root():
    # independent oracle: evaluate x^3+x^2+x+1 at x=1 over GF(2)
    assert bin(0b1111).count("1") % 2 == 0
    with pytest.raises(ValueError, match="root x=1"):
        GF2m(3, 0b1111)


def test_reducible_modulus_rejected_with_factor():
    # x^4+x^2+1 = (x^2+x+1)^2 has no GF(2) root but is reducible
    assert bin(0b10101).count("1") % 2 == 1
    with pytest.raises(ValueError, match="factor"):
        GF2m(4, 0b10101)


def test_modulus_wrong_degree_rejected():
    with pytest.raises(ValueError, match="degree"):
        GF2m(4, 0b1011)


def test_modulus_even_constant_term_rejected():
    with pytest.raises(ValueError, match="root x=0"):
        GF2m(3, 0b1010)


@pytest.mark.parametrize("m", [0, 1, 17, 99])
def test_m_out_of_range_rejected(m):
    with pytest.raises(ValueError, match="out of supported range"):
        GF2m(m)


@pytest.mark.parametrize("m", sorted(DEFAULT_MODULI))
def test_all_default_moduli_are_irreducible(m):
    assert find_factor(DEFAULT_MODULI[m]) is None


def test_contexts_of_one_field_share_read_only_tables():
    a, b = GF2m(7), GF2m(7)
    assert a._exp is b._exp and a._log is b._log and a.generator == b.generator
    with pytest.raises(ValueError, match="read-only"):
        a._exp[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        b._log[1] = 0
    assert GF2m(7, 0b10001001)._exp is not a._exp  # x^7+x^3+1, another field
    for _ in range(2):  # the modulus is checked on every call, cached tables or not
        with pytest.raises(ValueError, match="factor"):
            GF2m(4, 0b10101)


def test_every_default_context_constructs():
    for m in range(2, 17):
        ctx = GF2m(m)
        assert ctx.q == 1 << m


def test_modulus_override():
    # x^3+x^2+1 is the other irreducible cubic
    ctx = GF2m(3, 0b1101)
    assert ctx.modulus == 0b1101
    for a in ctx.nonzero_elements():
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_poly_to_str():
    assert poly_to_str(0b1011) == "x^3+x+1"
    assert poly_to_str(0b111) == "x^2+x+1"
    assert poly_to_str(0b10) == "x"
    assert poly_to_str(0) == "0"


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_mul_example_gf8():
    # x * x^2 = x^3 = x+1 mod x^3+x+1, i.e. 2*4 -> 3
    ctx = GF2m(3)
    assert ctx.mul(2, 4) == 3


def test_inv_identity_and_char2():
    ctx = GF2m(3)
    assert ctx.inv(1) == 1
    for a in ctx.elements():
        assert ctx.add(a, a) == 0


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF2m(3).inv(0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_mul_inv_roundtrip(m):
    ctx = GF2m(m)
    for a in ctx.nonzero_elements():
        assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_table_mul_matches_raw_polynomial_mul(m):
    ctx = GF2m(m)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == _mul_raw(a, b, ctx.modulus)


@pytest.mark.parametrize("m", range(2, 9))
def test_generator_has_full_order(m):
    ctx = GF2m(m)
    seen = set()
    v = 1
    for _ in range(ctx.q - 1):
        seen.add(v)
        v = ctx.mul(v, ctx.generator)
    assert v == 1
    assert len(seen) == ctx.q - 1


def test_exp_log_identity():
    ctx = GF2m(4)
    for a in ctx.nonzero_elements():
        assert int(ctx._exp[ctx._log[a]]) == a


@pytest.mark.parametrize("m", [3, 4])
def test_frobenius_additivity(m):
    ctx = GF2m(m)
    for a in ctx.elements():
        for b in ctx.elements():
            lhs = ctx.pow(ctx.add(a, b), 2)
            rhs = ctx.add(ctx.pow(a, 2), ctx.pow(b, 2))
            assert lhs == rhs


def test_pow_edge_cases():
    ctx = GF2m(3)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0
    assert ctx.pow(5, 0) == 1
    a = 6
    assert ctx.pow(a, -1) == ctx.inv(a)
    assert ctx.pow(a, ctx.q - 1) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -2)


def test_div():
    ctx = GF2m(3)
    for a in ctx.elements():
        for b in ctx.nonzero_elements():
            assert ctx.mul(ctx.div(a, b), b) == a


def test_vectorized_ops_match_scalar():
    import numpy as np

    ctx = GF2m(3)
    vec = np.arange(ctx.q, dtype=np.int64)
    for a in ctx.elements():
        got = ctx.scale_vec(a, vec)
        assert [int(v) for v in got] == [ctx.mul(a, int(b)) for b in vec]
    table = scale_table(ctx, vec)
    assert table.shape == (ctx.q, ctx.q)
    for a in ctx.elements():
        assert [int(v) for v in table[a]] == [ctx.mul(a, b) for b in range(ctx.q)]
    assert ctx.inv_vec(vec[1:]).tolist() == [ctx.inv(int(b)) for b in vec[1:]]
    with pytest.raises(ZeroDivisionError):
        ctx.inv_vec(vec)


# ---------------------------------------------------------------------------
# FieldFunction and predicates
# ---------------------------------------------------------------------------

def test_field_function_validates_table():
    ctx = GF2m(3)
    with pytest.raises(ValueError, match="length"):
        FieldFunction(ctx, [0] * 5)
    with pytest.raises(ValueError, match="outside"):
        FieldFunction(ctx, [9] * 8)


def test_from_exponent_and_callable_agree():
    ctx = GF2m(3)
    f = FieldFunction.from_exponent(ctx, 2)
    g = FieldFunction.from_callable(ctx, lambda x: ctx.mul(x, x))
    assert f.table == g.table
    assert f(3) == ctx.mul(3, 3)


def test_is_permutation_squaring_and_identity():
    assert is_permutation(FieldFunction.from_exponent(GF2m(3), 2))
    assert is_permutation(FieldFunction.from_exponent(GF2m(2), 1))


def test_is_permutation_cube_brute_force():
    # x^3 on GF(8): gcd(3, 7) = 1 makes the cube map a bijection on the
    # nonzero elements, so it IS a permutation; the brute-force table agrees.
    ctx = GF2m(3)
    f = FieldFunction.from_exponent(ctx, 3)
    assert sorted(f.table) == list(range(8))
    assert is_permutation(f)
    # x^3 on GF(16): gcd(3, 15) = 3, so the cube map is 3-to-1 on nonzeros.
    ctx16 = GF2m(4)
    g = FieldFunction.from_exponent(ctx16, 3)
    assert sorted(g.table) != list(range(16))
    assert not is_permutation(g)


def test_is_two_to_one():
    ctx = GF2m(3)
    f = FieldFunction.from_callable(ctx, lambda x: ctx.mul(x, x) ^ x)
    # oracle: direct preimage count
    assert all(n == 2 for n in Counter(f.table).values())
    assert is_two_to_one(f)
    assert not is_two_to_one(FieldFunction.from_exponent(ctx, 1))
    assert not is_two_to_one(FieldFunction(GF2m(2), [0, 0, 0, 0]))


def test_is_oval_polynomial_square():
    assert is_oval_polynomial(FieldFunction.from_exponent(GF2m(3), 2))
    assert is_oval_polynomial(FieldFunction.from_exponent(GF2m(2), 2))
    assert not is_oval_polynomial(FieldFunction.from_exponent(GF2m(3), 1))


def test_oval_monomials_match_brute_force_status():
    # frozen from exhaustive computation: x^2 always; x^4, x^6 at odd m only
    for m, e, expect in [
        (2, 2, True), (2, 4, False), (2, 6, False),
        (3, 2, True), (3, 4, True), (3, 6, True), (3, 3, False),
        (4, 2, True), (4, 4, False), (4, 6, False),
        (5, 2, True), (5, 4, True), (5, 6, True),
    ]:
        f = FieldFunction.from_exponent(GF2m(m), e)
        assert is_oval_polynomial(f) is expect, (m, e)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_oval_and_slope_criteria_agree_on_monomials(m):
    ctx = GF2m(m)
    for e in range(1, min(ctx.q - 1, 12)):
        f = FieldFunction.from_exponent(ctx, e)
        assert is_oval_polynomial(f) == oval_slope_criterion(f), (m, e)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=8))
def test_oval_and_slope_criteria_agree_on_random_tables(table):
    ctx = GF2m(3)
    f = FieldFunction(ctx, table)
    assert is_oval_polynomial(f) == oval_slope_criterion(f)


def test_oval_and_slope_criteria_agree_exhaustively_q4():
    ctx = GF2m(2)
    for packed in range(4**4):
        table = [(packed >> (2 * i)) & 3 for i in range(4)]
        f = FieldFunction(ctx, table)
        assert is_oval_polynomial(f) == oval_slope_criterion(f), table


def test_has_root_f_plus_x_plus_1_square():
    # x^2+x+1 has no root in GF(8) (m odd) but vanishes on GF(4) \ GF(2)
    assert not has_root_f_plus_x_plus_1(FieldFunction.from_exponent(GF2m(3), 2))
    assert has_root_f_plus_x_plus_1(FieldFunction.from_exponent(GF2m(2), 2))


def test_has_root_f_plus_x_plus_1_linear_cases():
    ctx = GF2m(3)
    # f(x) = x:   f(x)+x+1 = 1, never zero
    assert not has_root_f_plus_x_plus_1(FieldFunction.from_exponent(ctx, 1))
    # f(x) = x+1: f(x)+x+1 = 0 identically, every x is a root
    assert has_root_f_plus_x_plus_1(FieldFunction.from_callable(ctx, lambda x: x ^ 1))


@pytest.mark.parametrize("m", range(2, 9))
def test_square_root_existence_iff_m_even(m):
    f = FieldFunction.from_exponent(GF2m(m), 2)
    assert has_root_f_plus_x_plus_1(f) is (m % 2 == 0)


def test_alpha_order():
    ctx = GF2m(3)
    assert ctx.alpha_order() == [0, 1, 2, 3, 4, 5, 6, 7]
