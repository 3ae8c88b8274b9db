"""Field arithmetic, checked exhaustively on small fields, and the oval
predicates of the test oracles, checked against each other and against
known field facts."""

import pytest
from hypothesis import given, settings, strategies as st

import nmds.field
from nmds.field import DEFAULT_MODULI, GF2m, _mul_raw, _tables, find_factor, poly_to_str
from oracles import (
    has_root_f_plus_x_plus_1,
    is_oval,
    is_oval_by_slopes,
    is_permutation,
    is_two_to_one,
    power_table,
    scale_table,
)


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
    # Without the degree check each fails in the primitive search instead.
    for m, modulus in [(2, 0b1011), (3, 0b10011), (4, 0b1011)]:
        with pytest.raises(ValueError, match=f"has degree {modulus.bit_length() - 1}, expected {m}$"):
            GF2m(m, modulus)


def test_negative_modulus_rejected():
    # Its bits would otherwise be read as a polynomial of the wrong degree or
    # sent to the primitive search.
    for modulus in (-11, -5):
        with pytest.raises(ValueError, match=f"modulus {modulus:#x} is negative"):
            GF2m(3, modulus)


def test_zero_modulus_rejected():
    # Its bit length would otherwise report degree -1.
    with pytest.raises(ValueError, match="^modulus 0 is the zero polynomial, expected degree 3$"):
        GF2m(3, 0)


def test_table_build_without_a_primitive_element_raises(monkeypatch):
    # A product that is always 1 gives every element order 2.
    monkeypatch.setattr(nmds.field, "_mul_raw", lambda a, b, modulus: 1)
    with pytest.raises(AssertionError, match="no primitive element found"):
        _tables.__wrapped__(3, DEFAULT_MODULI[3])


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


def test_contexts_of_one_field_share_table_tuples():
    a, b = GF2m(7), GF2m(7)
    assert type(a._exp) is tuple and type(a._log) is tuple
    assert a._exp is b._exp and a._log is b._log
    with pytest.raises(TypeError):
        a._exp[0] = 0
    with pytest.raises(TypeError):
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


def test_find_factor_tries_x_first():
    # x^3 is x x x: the factor x (0b10) is the first candidate, and no other
    # candidate of degree <= 1 divides it.
    assert find_factor(0b1000) == 0b10


def test_context_repr_names_the_modulus():
    assert repr(GF2m(3)) == "GF2m(m=3, modulus=x^3+x+1)"


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
    for a in range(ctx.q):
        assert a ^ a == 0


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
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.mul(a, b) == _mul_raw(a, b, ctx.modulus)


@pytest.mark.parametrize("m", range(2, 9))
def test_generator_has_full_order(m):
    ctx = GF2m(m)
    generator = int(ctx._exp[1])  # the tables hold its powers
    seen = set()
    v = 1
    for _ in range(ctx.q - 1):
        seen.add(v)
        v = ctx.mul(v, generator)
    assert v == 1
    assert len(seen) == ctx.q - 1


def test_exp_log_identity():
    ctx = GF2m(4)
    for a in ctx.nonzero_elements():
        assert int(ctx._exp[ctx._log[a]]) == a


@pytest.mark.parametrize("m", [3, 4])
def test_frobenius_additivity(m):
    ctx = GF2m(m)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.mul(a ^ b, a ^ b) == ctx.mul(a, a) ^ ctx.mul(b, b)


def test_div():
    ctx = GF2m(3)
    for a in range(ctx.q):
        for b in ctx.nonzero_elements():
            assert ctx.mul(ctx.mul(a, ctx.inv(b)), b) == a


@pytest.mark.parametrize("m", range(2, 9))
def test_sentinel_products_and_inverses_match_raw(m):
    # log[0] = 2(q-1) and 2q zeros after the two periods of exp: a sum of two
    # logs, or a log plus q-1 minus a nonzero log, needs no branch on zero.
    ctx = GF2m(m)
    q, exp, log = ctx.q, ctx._exp, ctx._log
    assert log[0] == 2 * (q - 1) and len(exp) == 2 * (q - 1) + 2 * q
    for a in range(q):
        for b in range(q):
            assert exp[log[a] + log[b]] == ctx.mul(a, b) == _mul_raw(a, b, ctx.modulus)
            if b:  # the quotient a / b, zero dividend included
                assert _mul_raw(exp[log[a] + q - 1 - log[b]], b, ctx.modulus) == a
    for a in ctx.nonzero_elements():
        assert ctx.inv(a) == exp[q - 1 - log[a]]
        assert _mul_raw(a, ctx.inv(a), ctx.modulus) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_scale_table_oracle_matches_scalar():
    ctx = GF2m(3)
    table = scale_table(ctx, range(ctx.q))
    assert table.shape == (ctx.q, ctx.q)
    for a in range(ctx.q):
        assert [int(v) for v in table[a]] == [ctx.mul(a, b) for b in range(ctx.q)]


# ---------------------------------------------------------------------------
# oval predicates on value tables (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_is_permutation_squaring_and_identity():
    assert is_permutation(power_table(GF2m(3), 2))
    assert is_permutation(power_table(GF2m(2), 1))


def test_is_permutation_cube_brute_force():
    # x^3 on GF(8): gcd(3, 7) = 1 makes the cube map a bijection on the
    # nonzero elements, so it IS a permutation; the brute-force table agrees.
    f = power_table(GF2m(3), 3)
    assert sorted(f) == list(range(8))
    assert is_permutation(f)
    # x^3 on GF(16): gcd(3, 15) = 3, so the cube map is 3-to-1 on nonzeros.
    g = power_table(GF2m(4), 3)
    assert sorted(g) != list(range(16))
    assert not is_permutation(g)


def test_is_two_to_one():
    ctx = GF2m(3)
    assert is_two_to_one([ctx.mul(x, x) ^ x for x in range(ctx.q)])
    assert not is_two_to_one(power_table(ctx, 1))
    assert not is_two_to_one([0, 0, 0, 0])


def test_is_oval_polynomial_square():
    assert is_oval(GF2m(3), power_table(GF2m(3), 2))
    assert is_oval(GF2m(2), power_table(GF2m(2), 2))
    assert not is_oval(GF2m(3), power_table(GF2m(3), 1))


def test_oval_monomials_match_brute_force_status():
    # frozen from exhaustive computation: x^2 always; x^4, x^6 at odd m only
    for m, e, expect in [
        (2, 2, True), (2, 4, False), (2, 6, False),
        (3, 2, True), (3, 4, True), (3, 6, True), (3, 3, False),
        (4, 2, True), (4, 4, False), (4, 6, False),
        (5, 2, True), (5, 4, True), (5, 6, True),
    ]:
        ctx = GF2m(m)
        assert is_oval(ctx, power_table(ctx, e)) is expect, (m, e)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_oval_and_slope_criteria_agree_on_monomials(m):
    ctx = GF2m(m)
    for e in range(1, min(ctx.q - 1, 12)):
        f = power_table(ctx, e)
        assert is_oval(ctx, f) == is_oval_by_slopes(ctx, f), (m, e)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=8))
def test_oval_and_slope_criteria_agree_on_random_tables(table):
    ctx = GF2m(3)
    assert is_oval(ctx, table) == is_oval_by_slopes(ctx, table)


def test_oval_and_slope_criteria_agree_exhaustively_q4():
    ctx = GF2m(2)
    for packed in range(4**4):
        table = [(packed >> (2 * i)) & 3 for i in range(4)]
        assert is_oval(ctx, table) == is_oval_by_slopes(ctx, table), table


def test_has_root_f_plus_x_plus_1_square():
    # x^2+x+1 has no root in GF(8) (m odd) but vanishes on GF(4) \ GF(2)
    assert not has_root_f_plus_x_plus_1(power_table(GF2m(3), 2))
    assert has_root_f_plus_x_plus_1(power_table(GF2m(2), 2))


def test_has_root_f_plus_x_plus_1_linear_cases():
    # f(x) = x:   f(x)+x+1 = 1, never zero
    assert not has_root_f_plus_x_plus_1(list(range(8)))
    # f(x) = x+1: f(x)+x+1 = 0 identically, every x is a root
    assert has_root_f_plus_x_plus_1([x ^ 1 for x in range(8)])


@pytest.mark.parametrize("m", range(2, 9))
def test_square_root_existence_iff_m_even(m):
    assert has_root_f_plus_x_plus_1(power_table(GF2m(m), 2)) is (m % 2 == 0)
