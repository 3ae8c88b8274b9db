"""Generator matrix builders, closed-form profiles and verification reports."""

import re
from functools import reduce
from operator import xor

import pytest

import oracles
from nmds.codes import _canonical_columns, weight_distribution
from nmds.constructions import (
    CONSTRUCTION_IDS,
    CONSTRUCTIONS,
    build,
    expected_profile,
    m_constraint_ok,
    normalize_id,
    verify_construction,
)
from nmds.field import GF2m

Q8_DISTRIBUTIONS = {
    "c": (70, 252, 42, 147),
    "c1": (91, 189, 105, 126),
    "d": (56, 217, 91, 147),
    "d1": (35, 280, 28, 168),
    "d2": (77, 154, 154, 126),
    "e": (28, 168, 147, 168),
    "e1": (42, 126, 189, 154),
    "e2": (21, 189, 126, 175),
    "e1bar": (49, 168, 147, 147),
    "f1": (70, 105, 210, 126),
    "f2": (42, 189, 126, 154),
    "f3": (28, 231, 84, 168),
}


def test_ids_and_normalization():
    assert set(CONSTRUCTION_IDS) == set(Q8_DISTRIBUTIONS)
    assert normalize_id("E1BAR") == "e1bar"
    assert normalize_id(" C ") == "c"
    with pytest.raises(KeyError, match="unknown construction"):
        normalize_id("nope")


def test_build_c_shape_and_tail(ctx8):
    code = build("c", ctx8)
    assert (code.n, code.k) == (12, 3)
    # evaluation block: column j = (1, a, a^2) in canonical element order
    alphas = [1, 2, 3, 4, 5, 6, 7]
    cols = code.columns
    for j, a in enumerate(alphas):
        assert cols[j] == (1, a, ctx8.mul(a, a))
    assert cols[7:] == ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1), (0, 1, 1))


def test_build_e_shape_and_tail_q4(ctx4):
    code = build("e", ctx4)
    assert (code.n, code.k) == (5, 3)
    assert code.columns[3:] == ((1, 0, 0), (0, 1, 1))


def test_build_all_shapes_q8(ctx8):
    expected_n = {"c": 12, "c1": 12, "d": 11, "d1": 11, "d2": 11,
                  "e": 9, "e1": 9, "e2": 9, "e1bar": 10, "f1": 10, "f2": 10, "f3": 10}
    for cid, n in expected_n.items():
        code = build(cid, ctx8)
        assert (code.n, code.k) == (n, 3), cid


@pytest.mark.parametrize("m", range(2, 12))
def test_e1bar_is_extension_of_e1(m):
    # The registry states e1bar's row-sum column as the literal tail point
    # (0, 0, 1); the extension oracle computes it from e1's columns.
    ctx = GF2m(m)
    e1bar = build("e1bar", ctx)
    assert e1bar.columns == oracles.extend(build("e1", ctx)).columns
    assert e1bar.columns[-1] == (0, 0, 1)


def test_extend_row_sums_zero(ctx8):
    for cid in CONSTRUCTION_IDS:
        ext = oracles.extend(build(cid, ctx8))
        sums = [reduce(xor, row) for row in zip(*ext.columns)]
        assert not any(sums), cid


def test_extend_of_zero_sum_rows_appends_zero_column(ctx8):
    once = oracles.extend(build("e1", ctx8))
    twice = oracles.extend(once)
    assert twice.columns[-1] == (0, 0, 0)


@pytest.mark.parametrize("m", range(3, 8))
def test_extend_gives_point_sets_only_for_four_ids(m):
    # The appended row-sum column, the last, repeats the point of the named
    # column or is zero (None) for eight ids, and the kernel refuses those
    # extensions by name.
    ctx = GF2m(m)
    q = ctx.q
    repeats = {"c": q + 2, "c1": q, "d": 0, "d2": None, "e": q, "e2": q, "e1bar": None, "f3": q - 1}
    for cid in CONSTRUCTION_IDS:
        ext = oracles.extend(build(cid, ctx))
        if cid in ("d1", "e1", "f1", "f2"):
            assert len(_canonical_columns(ext)) == ext.n, cid
            continue
        first, last = repeats[cid], ext.n - 1
        why = f"column {last} is zero" if first is None else f"columns {first} and {last} are one point of PG(2, q)"
        with pytest.raises(ValueError, match=f"^{re.escape(why)}; the kernel counts distinct nonzero points$"):
            _canonical_columns(ext)


def test_extend_raises_distance_by_one_for_e1(ctx8, ctx32):
    for ctx in (ctx8, ctx32):
        d_base = weight_distribution(build("e1", ctx)).min_distance
        d_ext = weight_distribution(build("e1bar", ctx)).min_distance
        assert d_ext == d_base + 1 == ctx.q - 1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_expected_profile_c_q8():
    p = expected_profile("c", 8)
    assert (p.n, p.d, p.d_dual) == (12, 9, 3)
    assert p.weights == {9: 70, 10: 252, 11: 42, 12: 147}
    assert p.dual_weight3_count == 70


def test_expected_profile_f3_q8():
    p = expected_profile("f3", 8)
    assert p.weights == {7: 28, 8: 231, 9: 84, 10: 168}


def test_expected_profile_d1_q4():
    # the coefficient at weight 5 is 36: the four weights sum with A_0 to 64
    p = expected_profile("d1", 4)
    assert p.weights == {4: 9, 5: 36, 6: 6, 7: 12}
    assert 1 + sum(p.weights.values()) == 4**3


@pytest.mark.parametrize("m", range(2, 9))
def test_enumerator_sum_identity(m):
    q = 1 << m
    for cid in CONSTRUCTION_IDS:
        p = expected_profile(cid, q)
        assert 1 + sum(p.weights.values()) == q**3, (cid, m)
        assert all(c >= 0 for c in p.weights.values())
        assert sorted(p.weights) == [p.d, p.d + 1, p.d + 2, p.d + 3]
        # the four line counts add up to the q^2 + q + 1 lines of PG(2, q)
        assert tuple(map(sum, zip(*CONSTRUCTIONS[cid].lines))) == (2, 2, 2), cid


def test_m_constraints():
    assert m_constraint_ok("e", 2)
    assert m_constraint_ok("d1", 2)
    assert m_constraint_ok("e2", 4)
    assert not m_constraint_ok("c", 2)
    assert not m_constraint_ok("c", 4)  # even m
    assert m_constraint_ok("c", 5)
    assert not m_constraint_ok("f1", 2)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

def test_verify_construction_all_pass_q8(ctx8):
    for cid in CONSTRUCTION_IDS:
        report = verify_construction(cid, ctx8, build(cid, ctx8))
        assert not report.failing_fields(), cid
        assert not report.warnings


def test_verify_construction_names_each_failing_check(ctx8):
    # e's code against c's claims: n = 9 and d = 6 where c has 12 and 9, 28
    # weight-3 dual words where c has 70, dual locality q - 2 where c has q,
    # and dual flags (False, True, True) where c has (True, False, True).
    # Both are NMDS with d_dual = 3 and the same code locality and flags.
    report = verify_construction("c", ctx8, build("e", ctx8))
    assert report.failing_fields() == [
        "n", "d", "distribution", "dual_weight3_count", "locality", "flags_dual",
    ]


def test_verify_construction_warning_at_even_m(ctx4):
    report = verify_construction("c", ctx4, build("c", ctx4))
    assert report.warnings and "m=2" in report.warnings[0]
    assert report.checks == {}  # observed values only, nothing asserted
    assert report.n == 8  # q + 4 still reported


def test_verify_construction_e_passes_at_m2(ctx4):
    report = verify_construction("e", ctx4, build("e", ctx4))
    assert not report.failing_fields() and not report.warnings


def test_distribution_matches_closed_form_q8(codes8):
    for cid, code in codes8.items():
        wd = weight_distribution(code)
        p = expected_profile(cid, 8)
        got = {w: c for w, c in wd.nonzero_items() if w > 0}
        assert got == p.weights, cid
        assert tuple(p.weights[p.d + i] for i in range(4)) == Q8_DISTRIBUTIONS[cid], cid


def test_distribution_independent_of_modulus_choice():
    # the other irreducible cubic gives the same field up to isomorphism
    alt = GF2m(3, 0b1101)
    ref = GF2m(3)
    for cid in ("c", "e1", "f3"):
        assert (
            weight_distribution(build(cid, alt)).counts
            == weight_distribution(build(cid, ref)).counts
        ), cid


def test_odd_m_closed_forms_fail_at_even_m(ctx4):
    # Observations for the even-m question: the odd-m families break at m=2
    # in different ways; e1 even loses minimum distance q-2.
    observed_d = {}
    for cid in ("c", "e1", "f3"):
        code = build(cid, ctx4)
        wd = weight_distribution(code)
        observed_d[cid] = wd.min_distance
        got = {w: c for w, c in wd.nonzero_items() if w > 0}
        matches = got == expected_profile(cid, 4).weights
        if cid == "e1":
            assert not matches and observed_d[cid] == 1
        if cid == "c":
            assert not matches and observed_d[cid] == 4
        if cid == "f3":
            # f3 happens to match its closed form at m=2 even though the
            # stated constraint is odd m; recorded as an observation
            assert matches


def test_m235_verification_for_the_open_question():
    # "e" holds for every m >= 2; "e1" only for odd m.
    for m in (2, 3, 5):
        ctx = GF2m(m)
        assert not verify_construction("e", ctx, build("e", ctx)).failing_fields()
        e1 = verify_construction("e1", ctx, build("e1", ctx))
        if m == 2:
            assert e1.warnings and not e1.checks
        else:
            assert not e1.failing_fields()
