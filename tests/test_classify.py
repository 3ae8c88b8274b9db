"""Classification tags, the two distribution recurrences, and pairing."""

import numpy as np
import pytest

from nmds.classify import (
    check_min_weight_pairing,
    classify,
    nmds_dual_distribution_from_Ak,
    nmds_primal_distribution_from_Ank,
)
from nmds.codes import (
    LinearCode,
    dual_distance_exact,
    macwilliams,
    min_weight_codewords,
    min_weight_dual_codewords,
    weight_distribution,
)
from nmds.constructions import build
from nmds.field import GF2m
from oracles import as_point_set, dual, enumerated_distribution, rows_of


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_c_q8(codes8):
    code = codes8["c"]
    verdict = classify(code)
    assert verdict.tag == "NMDS"
    d_dual = dual_distance_exact(code)
    assert (verdict.d, d_dual) == (9, 3)
    assert (code.n - code.k + 1 - verdict.d, code.k + 1 - d_dual) == (1, 1)


def test_classify_full_code_is_mds(ctx8):
    full = LinearCode(ctx8, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert classify(full).tag == "MDS"
    # the [4, 3, 2] parity-check code: MDS with an MDS dual of distance 4
    parity = LinearCode(ctx8, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert classify(parity).tag == "MDS"


def test_classify_e_q4_nmds(ctx4):
    code = build("e", ctx4)
    verdict = classify(code)
    assert verdict.tag == "NMDS"
    assert (code.n, code.k, verdict.d, dual_distance_exact(code)) == (5, 3, 2, 3)


def test_classify_all_constructions_q8_q32(codes8, codes32):
    for bundle in (codes8, codes32):
        for cid, code in bundle.items():
            assert classify(code).tag == "NMDS", cid


def test_classify_other_at_even_m(ctx4):
    assert classify(build("c", ctx4)).tag == "other"


@pytest.mark.parametrize("seed", range(10))
def test_classify_matches_enumeration_oracle(seed):
    # small random 3-row codes at q=4: recompute both defects by brute enumeration
    ctx = GF2m(2)
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.integers(0, 4, size=(3, int(rng.integers(4, 8))))
        try:
            code = LinearCode(ctx, rows.T.tolist())
            break
        except ValueError:
            continue
    code = as_point_set(code, classify)
    verdict = classify(code)
    d = enumerated_distribution(ctx, rows_of(code)).min_distance
    dd = enumerated_distribution(ctx, dual(ctx, rows_of(code))).min_distance
    defect = code.n - code.k + 1 - d
    dual_defect = code.k + 1 - dd
    expected = (
        "MDS" if defect == 0
        else "NMDS" if defect == 1 and dual_defect == 1
        else "AMDS-only" if defect == 1
        else "other"
    )
    assert verdict.tag == expected
    if defect > 0:
        assert (dual_distance_exact(code) or 4) == dd


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------

def test_dual_recurrence_matches_macwilliams_c(codes8):
    dist = weight_distribution(codes8["c"])
    got = nmds_dual_distribution_from_Ak(12, 3, 8, 70)
    assert got.counts == macwilliams(dist, 3, 8).counts
    assert sum(got.counts) == 8**9


def test_dual_recurrence_matches_macwilliams_d(codes8):
    dist = weight_distribution(codes8["d"])
    got = nmds_dual_distribution_from_Ak(11, 3, 8, 56)
    assert got.counts == macwilliams(dist, 3, 8).counts


def test_primal_recurrence_c_q8():
    got = nmds_primal_distribution_from_Ank(12, 3, 8, 70)
    assert [got.counts[i] for i in (9, 10, 11, 12)] == [70, 252, 42, 147]


def test_primal_recurrence_e1bar_q8():
    got = nmds_primal_distribution_from_Ank(10, 3, 8, 49)
    assert [got.counts[i] for i in (8, 9, 10)] == [168, 147, 147]


def test_primal_recurrence_matches_enumeration_e_q4(ctx4):
    # E at q=4 is a [5, 3, 2] code with 6 minimum-weight codewords
    code = build("e", ctx4)
    dist = weight_distribution(code)
    assert dist.min_distance == 2 and dist.counts[2] == 6
    got = nmds_primal_distribution_from_Ank(5, 3, 4, 6)
    assert got.counts == dist.counts


def test_both_recurrences_all_constructions_q8(codes8):
    for cid, code in codes8.items():
        dist = weight_distribution(code)
        d = dist.min_distance
        a3 = (8 - 1) * len(min_weight_dual_codewords(code))
        assert nmds_primal_distribution_from_Ank(code.n, 3, 8, dist.counts[d]).counts == dist.counts, cid
        assert (
            nmds_dual_distribution_from_Ak(code.n, 3, 8, a3).counts
            == macwilliams(dist, 3, 8).counts
        ), cid


def test_recurrence_vacuous_tail():
    got = nmds_dual_distribution_from_Ak(3, 3, 8, 0)
    assert got.counts == (1, 0, 0, 0)


def test_recurrence_rejects_absurd_seed():
    with pytest.raises(ValueError, match="negative"):
        nmds_dual_distribution_from_Ak(12, 3, 8, 10**6)
    with pytest.raises(ValueError, match="negative"):
        nmds_primal_distribution_from_Ank(12, 3, 8, 10**6)
    with pytest.raises(ValueError, match="non-negative"):
        nmds_primal_distribution_from_Ank(12, 3, 8, -1)


def test_recurrence_counts_are_exact_big_ints():
    # the dual side of the longest q=128 code has counts around 10^271;
    # the recurrence must stay exact and sum to q^(n-k) on the nose
    q = 128
    n = q + 4
    got = nmds_dual_distribution_from_Ak(n, 3, q, (q - 1) * (q + 2))
    assert sum(got.counts) == q ** (n - 3)
    assert max(got.counts) > 2**53


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_pairing_c_q8(codes8):
    code = codes8["c"]
    report = check_min_weight_pairing(code)
    assert report.ok
    words = min_weight_codewords(code)
    assert 7 * len(words) == 7 * len(min_weight_dual_codewords(code)) == 70
    assert len(words) == 70 // 7
    dual_supports = [sup for sup, _ in min_weight_dual_codewords(code)]
    for zeros, line in words:
        support = set(np.flatnonzero(code.codeword(line)).tolist())
        assert [sup for sup in dual_supports if not support & set(sup)] == [zeros]


def test_pairing_rejects_corrupted_zero_triple(ctx8):
    code = build("c", ctx8)
    words = min_weight_codewords(code)
    corrupted = [(words[1][0], words[0][1])] + words[1:]  # the first word claims the second's zeros
    code._derived[min_weight_codewords.__wrapped__] = corrupted
    assert len(corrupted) == len(min_weight_dual_codewords(code))
    assert check_min_weight_pairing(code).ok is False


def test_pairing_d_q8(codes8):
    report = check_min_weight_pairing(codes8["d"])
    assert report.ok and 7 * len(min_weight_codewords(codes8["d"])) == 56


def test_pairing_e_q4(ctx4):
    code = build("e", ctx4)
    report = check_min_weight_pairing(code)
    assert report.ok
    assert 3 * len(min_weight_codewords(code)) == 3 * len(min_weight_dual_codewords(code)) == 6


def scan_pairings(code):
    """Oracle: test every (primal, dual) pair of minimum-weight supports, with
    each primal word encoded in full from its line."""
    duals = min_weight_dual_codewords(code)
    pairings, unique = [], True
    for _zeros, line in min_weight_codewords(code):
        support = frozenset(np.flatnonzero(code.codeword(line)).tolist())
        partners = [sup for sup, _ in duals if not support & set(sup)]
        if len(partners) != 1:
            unique = False
            continue
        pairings.append((support, partners[0]))
    return pairings, unique


def test_pairing_matches_scan_oracle(codes8, codes32):
    for bundle in (codes8, codes32):
        for cid, code in bundle.items():
            report = check_min_weight_pairing(code)
            pairings, unique = scan_pairings(code)
            assert report.ok == unique, cid
            coords = frozenset(range(code.n))
            assert pairings == [(coords - set(z), z) for z, _ in min_weight_codewords(code)], cid


def test_pairing_rejects_non_nmds(ctx4):
    with pytest.raises(ValueError, match="NMDS"):
        check_min_weight_pairing(build("c", ctx4))
