"""Locality, bounds and optimality flags.

The dual-side locality has a from-scratch oracle here: enumerate the whole
code and, for each coordinate, take the lightest codeword covering it; that
codeword is the best parity check available to the dual side, so the dual
locality is the max over coordinates of (that weight - 1).  This uses
nothing but the repair definition and must agree with the support-set
mechanisms.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import nmds.lrc
import oracles
from nmds.codes import (
    LinearCode,
    dual_distance_exact,
    min_weight_codewords,
    min_weight_dual_codewords,
)
from nmds.constructions import CONSTRUCTION_IDS, CONSTRUCTIONS, build, expected_locality
from nmds.field import GF2m
from nmds.lrc import (
    classify_lrc,
    cm_bound_dimension,
    k_opt_singleton,
    locality_of_code,
    locality_of_dual,
    repair_map,
    repair_value,
    singleton_like_bound,
)


def definitional_dual_locality(code):
    """max_i min{wt(g) - 1 : g in code, g_i != 0}, by full enumeration."""
    ctx, q, n = code.ctx, code.ctx.q, code.n
    best = [None] * n
    rows = np.array(oracles.rows_of(code))
    mul = oracles.mul_table(ctx)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if a == b == c == 0:
                    continue
                vec = mul[a, rows[0]] ^ mul[b, rows[1]] ^ mul[c, rows[2]]
                w = int(np.count_nonzero(vec))
                for i in np.nonzero(vec)[0]:
                    if best[i] is None or w < best[i]:
                        best[i] = w
    return max(w - 1 for w in best)


# ---------------------------------------------------------------------------
# locality mechanisms
# ---------------------------------------------------------------------------

def test_locality_of_code_c_q8(codes8):
    rep = locality_of_code(codes8["c"])
    assert rep.r == 2
    assert rep.mechanism == "union-covers"
    assert oracles.weight3_support_sets(codes8["c"])[0] == frozenset(range(12))


def test_locality_of_code_e1_q8(codes8):
    rep = locality_of_code(codes8["e1"])
    assert rep.r == 3
    assert rep.mechanism == "nmds-fallback"
    # only the evaluation column at 1 is never hit (frozen from enumeration)
    assert frozenset(range(9)) - oracles.weight3_support_sets(codes8["e1"])[0] == frozenset({0})


def test_locality_of_code_e2_q8(codes8):
    rep = locality_of_code(codes8["e2"])
    assert rep.r == 3
    # evaluations at 1 and at 0 are never hit
    assert frozenset(range(9)) - oracles.weight3_support_sets(codes8["e2"])[0] == frozenset({0, 7})


def test_locality_of_code_f2_q8(codes8):
    rep = locality_of_code(codes8["f2"])
    assert rep.r == 3
    assert oracles.weight3_support_sets(codes8["f2"])[0] == frozenset(range(10)) - {0, 7}


def test_locality_of_dual_c_q8(codes8):
    rep = locality_of_dual(codes8["c"])
    assert rep.r == 8
    assert rep.mechanism == "intersection-empty"
    assert oracles.weight3_support_sets(codes8["c"])[1] == frozenset()


def test_locality_of_dual_d1(ctx4, codes8):
    rep4 = locality_of_dual(build("d1", ctx4))
    assert rep4.r == 4  # falls back to d itself
    assert rep4.mechanism == "nmds-fallback"
    rep8 = locality_of_dual(codes8["d1"])
    assert rep8.r == 8
    assert oracles.weight3_support_sets(codes8["d1"])[1]  # nonempty


def test_locality_of_dual_f3_q8(codes8):
    rep = locality_of_dual(codes8["f3"])
    assert rep.r == 7
    assert oracles.weight3_support_sets(codes8["f3"])[1] == frozenset({9})  # the last coordinate


def test_locality_of_dual_rejects_zero_sets_sharing_a_coordinate(ctx8):
    code = build("c", ctx8)  # the weight-3 dual supports share no coordinate
    shifted = [((0, *zeros[1:]), line) for zeros, line in min_weight_codewords(code)]
    code._derived[min_weight_codewords.__wrapped__] = shifted
    with pytest.raises(AssertionError, match="disagree"):
        locality_of_dual(code)


def test_dual_support_sets_intersect_every_support(ctx8):
    # (0, 1, 2) and (0, 6, 7) share coordinate 0; only (3, 4, 5) empties the
    # intersection, so every support must enter it.
    code = build("c", ctx8)
    supports = ((0, 1, 2), (3, 4, 5), (0, 6, 7))
    code._derived[min_weight_dual_codewords.__wrapped__] = [(s, (1, 1, 1)) for s in supports]
    assert nmds.lrc._dual_support_sets(code) == (frozenset(range(8)), frozenset())


def test_locality_rejects_non_nmds(ctx4):
    with pytest.raises(ValueError, match="NMDS"):
        locality_of_code(build("c", ctx4))


def test_locality_matches_registry_q8_q32(codes8, codes32):
    for bundle, q in ((codes8, 8), (codes32, 32)):
        for cid, code in bundle.items():
            got = (locality_of_code(code).r, locality_of_dual(code).r)
            assert got == expected_locality(cid, q), (cid, q)


def test_dual_locality_matches_definitional_oracle_q8(codes8):
    for cid, code in codes8.items():
        assert locality_of_dual(code).r == definitional_dual_locality(code), cid


def test_dual_locality_e_e2_definitional_oracle_q32(codes32):
    # every weight-3 dual word of e and e2 contains coordinate q, so the
    # dual locality is d = q-2 (conic argument in test_acceptance.py)
    for cid in ("e", "e2"):
        code = codes32[cid]
        assert definitional_dual_locality(code) == 30, cid
        assert locality_of_dual(code).r == 30, cid


def test_code_locality_fallback_coordinates_truly_uncovered(codes8):
    # for r=3 codes, the uncovered coordinates must not appear in any
    # weight-3 dual codeword support; for r=2 codes there are none
    for cid, code in codes8.items():
        rep = locality_of_code(code)
        uncovered = frozenset(range(code.n)) - oracles.weight3_support_sets(code)[0]
        assert (rep.r == 2) == (not uncovered), cid
        for sup, _ in min_weight_dual_codewords(code):
            assert not uncovered & set(sup), cid


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_singleton_like_bound_values():
    assert singleton_like_bound(12, 3, 2) == 9
    assert singleton_like_bound(10, 3, 3) == 8
    for n, k in ((10, 4), (7, 3), (9, 2)):
        assert singleton_like_bound(n, k, k) == n - k + 1  # classical Singleton
    # k = 1 and r = 1 are in range; k = 0 and r = 0 are not.
    assert singleton_like_bound(5, 1, 2) == 5
    assert singleton_like_bound(6, 3, 1) == 2
    for n, k, r in ((3, 3, 2), (5, 0, 2), (6, 3, 0)):
        with pytest.raises(ValueError, match="need n > k >= 1 and r >= 1"):
            singleton_like_bound(n, k, r)


def test_k_opt_singleton():
    assert k_opt_singleton(9, 9) == 1
    assert k_opt_singleton(3, 3) == 1
    assert k_opt_singleton(2, 3) == 0
    assert k_opt_singleton(10, 4) == 7


def test_cm_bound_values():
    assert cm_bound_dimension(12, 9, 2) == (3, 1)
    # dual of the [9, 6] code at q=8, at both candidate localities
    assert cm_bound_dimension(9, 3, 5) == (6, 1)
    assert cm_bound_dimension(9, 3, 6) == (6, 1)
    # degenerate: residual length vanishes even at t=1
    assert cm_bound_dimension(4, 3, 4) == (4, 1)
    # t runs to floor((n-1)/(r+1)) exactly: (5, 2, 1) needs t = 2, and at
    # (4, 1, 1) t = 2 would give 2 but lies past it
    assert cm_bound_dimension(4, 1, 1) == (3, 1)
    assert cm_bound_dimension(5, 2, 1) == (2, 2)


def test_cm_bound_scans_t():
    # small r forces several feasible t; the minimum must win
    n, d, r = 20, 3, 1
    val, t = cm_bound_dimension(n, d, r)
    brute = min(
        (r * tt + k_opt_singleton(n - tt * (r + 1), d), tt)
        for tt in range(1, (n - 1) // (r + 1) + 1)
    )
    assert (val, t) == brute


def test_bounds_hold_for_all_constructions(codes8, codes32):
    for bundle in (codes8, codes32):
        for cid, code in bundle.items():
            opt_code, opt_dual = classify_lrc(code)
            assert opt_code.d <= opt_code.sl_rhs, cid
            assert opt_code.k <= opt_code.cm_rhs, cid
            assert opt_dual.d <= opt_dual.sl_rhs, cid
            assert opt_dual.k <= opt_dual.cm_rhs, cid


def test_optimality_rejects_a_distance_above_the_singleton_like_bound():
    # n - k - ceil(k / r) + 2 = 10 - 3 - 2 + 2 = 7
    with pytest.raises(AssertionError, match="d=9 exceeds the Singleton-like bound 7"):
        nmds.lrc._optimality("code", 10, 3, 9, 2)


def test_optimality_rejects_a_dimension_above_the_cm_bound(codes8, monkeypatch):
    # Once d is within the Singleton-like bound, k <= cm holds for every n < 40
    # and every k, d and r, so only a wrong dimension cap can trip this guard.
    monkeypatch.setattr(nmds.lrc, "cm_bound_dimension", lambda n, d, r: (2, 1))
    with pytest.raises(AssertionError, match="k=3 exceeds the dimension bound 2"):
        classify_lrc(codes8["c"])


def test_flags_c_q8(codes8):
    opt_code, opt_dual = classify_lrc(codes8["c"])
    assert (opt_code.d_optimal, opt_code.k_optimal) == (True, True)
    assert (opt_dual.d_optimal, opt_dual.k_optimal) == (True, True)
    assert opt_code.sl_rhs == 9 and opt_code.cm_rhs == 3
    assert opt_dual.sl_rhs == 3 and opt_dual.cm_rhs == 9


def test_flags_d1_q8(codes8):
    opt_code, opt_dual = classify_lrc(codes8["d1"])
    assert opt_code.d_optimal and opt_code.k_optimal
    assert not opt_dual.d_optimal and opt_dual.almost_d_optimal and opt_dual.k_optimal


def test_flags_f3_q8(codes8):
    opt_code, opt_dual = classify_lrc(codes8["f3"])
    for rep in (opt_code, opt_dual):
        assert not rep.d_optimal and rep.almost_d_optimal and rep.k_optimal


def test_flags_match_registry_q8_q32(codes8, codes32):
    for bundle in (codes8, codes32):
        for cid, code in bundle.items():
            opt_code, opt_dual = classify_lrc(code)
            family = CONSTRUCTIONS[cid]
            got_code = (opt_code.d_optimal, opt_code.almost_d_optimal, opt_code.k_optimal)
            got_dual = (opt_dual.d_optimal, opt_dual.almost_d_optimal, opt_dual.k_optimal)
            assert got_code == family.flags_code, cid
            assert got_dual == family.flags_dual, cid


# ---------------------------------------------------------------------------
# repair witnesses
# ---------------------------------------------------------------------------

def test_repair_map_sizes_q8(codes8):
    for cid, code in codes8.items():
        r = locality_of_code(code).r
        witnesses = repair_map(code)
        assert set(witnesses) == set(range(code.n)), cid
        for i, (idx, coeffs) in witnesses.items():
            assert 1 <= len(idx) <= r, (cid, i)
            assert i not in idx, (cid, i)
            assert len(idx) == len(coeffs) and all(coeffs), (cid, i)


def test_repair_map_e1_has_three_element_witness(codes8):
    witnesses = repair_map(codes8["e1"])
    assert len(witnesses[0][0]) == 3  # uncovered coordinate needs the bigger set
    assert len(witnesses[5][0]) == 2  # covered coordinate keeps the small set


def test_repair_recovers_random_codewords(codes8):
    rng = np.random.default_rng(7)
    for cid, code in codes8.items():
        witnesses = repair_map(code)
        word = code.codeword([int(v) for v in rng.integers(0, 8, size=3)])
        for i in range(code.n):
            assert repair_value(word, witnesses[i], code.ctx) == int(word[i]), (cid, i)


def repair_map_or_error(repair, code):
    try:
        return repair(code)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("m", range(3, 8))
def test_repair_map_matches_rref_oracle_all_ids(m):
    # Cramer's rule on the lexicographically first independent triple must
    # give the RREF solution over the first rank-3 triple, entry for entry
    fallbacks = 0
    for cid in CONSTRUCTION_IDS:
        code = build(cid, GF2m(m))
        witnesses = repair_map(code)
        assert witnesses == oracles.repair_map(code), cid
        fallbacks += sum(len(idx) == 3 for idx, _ in witnesses.values())
    assert fallbacks == 7  # e1, f1 and f3 have one uncovered coordinate, e2 and f2 two


# About two in three draws have dual distance 3; of those, about one in
# four take the fallback and one in thirty has a coordinate with no repair
# set, so the example pins that error: column 3 is off the only
# dependency's line, and the other columns span only that line.
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(oracles.dimension3_codes())
@example(LinearCode(GF2m(2), [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]))
def test_repair_map_matches_rref_oracle_on_random_codes(code):
    code = oracles.as_point_set(code, dual_distance_exact)
    assume(dual_distance_exact(code) == 3)
    assert repair_map_or_error(repair_map, code) == repair_map_or_error(oracles.repair_map, code)


def test_repair_map_rejects_a_coordinate_on_a_dropped_dependency(ctx4, monkeypatch):
    # Columns e1, e2, e3, e1 + e2 and e1 + e2 + e3.  With the dual word on
    # {0, 1, 3} dropped, coordinate 0 falls back to the first independent
    # triple of the others, columns 1, 2 and 3, and e1 = e2 + (e1 + e2)
    # gives column 2 a zero coefficient.
    code = LinearCode(ctx4, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)])
    words = min_weight_dual_codewords(code)
    assert [sup for sup, _ in words] == [(0, 1, 3), (2, 3, 4)]
    monkeypatch.setattr(nmds.lrc, "min_weight_dual_codewords", lambda code: words[1:])
    with pytest.raises(AssertionError, match="coordinate 0 lies on a smaller dependency"):
        repair_map(code)


@pytest.mark.parametrize("pos", range(3))
def test_repair_map_rejects_a_zero_coefficient(codes8, monkeypatch, pos):
    # Every coefficient of a word is checked, not only the ones divided by:
    # a zero's sentinel log would make each quotient with it a silent zero.
    code = codes8["c"]
    (sup, coeffs), *rest = min_weight_dual_codewords(code)
    broken = tuple(0 if p == pos else h for p, h in enumerate(coeffs))
    monkeypatch.setattr(nmds.lrc, "min_weight_dual_codewords", lambda code: [(sup, broken), *rest])
    with pytest.raises(AssertionError, match=rf"^dual word on support \({sup[0]}, {sup[1]}, {sup[2]}\) "
                       "has a zero coefficient$"):
        repair_map(code)


# Each witness is evaluated on the word with its own coordinate erased and
# checked against the word and a sum of scalar products.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(oracles.dimension3_codes(), st.data())
def test_repair_value_recovers_every_coordinate_on_random_codes(code, data):
    code = oracles.as_point_set(code, dual_distance_exact)
    assume(dual_distance_exact(code) == 3)
    ctx = code.ctx
    try:
        witnesses = repair_map(code)
    except ValueError:  # a coordinate with no repair set
        assume(False)
    message = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=3, max_size=3))
    for msg in (message, [0, 0, 0]):
        word = code.codeword(msg)
        for i, entry in witnesses.items():
            erased = [0 if j == i else v for j, v in enumerate(word)]
            scalar = 0
            for j, h in zip(*entry):
                scalar ^= ctx.mul(h, word[j])
            value = repair_value(erased, entry, ctx)
            assert value == repair_value(word, entry, ctx) == scalar == word[i], (msg, i)


def test_repair_zero_codeword(codes8):
    code = codes8["c"]
    witnesses = repair_map(code)
    word = code.codeword([0, 0, 0])
    for i in range(code.n):
        assert repair_value(word, witnesses[i], code.ctx) == 0
