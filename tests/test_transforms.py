"""The exact big-integer transforms against their definitional oracles.

``macwilliams`` factors (1 - z)^d, d the least positive weight, out of
the Krawtchouk generating function and multiplies the short rows left, and
the NMDS recurrences step one Horner recurrence across the weights.  The
oracles below are the direct formulas they replaced: the triple Krawtchouk
sum and the double loop over each recurrence's inner sum, one ``q**e`` and
two ``comb`` calls per term.  The new kernels must agree with them exactly,
error messages included, on real code distributions, on closed forms, on
arbitrary counts and over a grid of parameters.

``verify`` runs neither transform: it compares the first four dual counts
(``dual_moments``), and the full comparisons it replaced, MacWilliams
against the dual recurrence and the primal recurrence against the
distribution, are its oracle here.
"""

from collections import Counter
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nmds.classify import (
    classify,
    dual_moments,
    nmds_dual_distribution_from_Ak,
    nmds_primal_distribution_from_Ank,
)
from nmds.codes import (
    WeightDistribution,
    macwilliams,
    min_weight_dual_codewords,
    weight_distribution,
)
from nmds.constructions import CONSTRUCTION_IDS, build, expected_profile
from nmds.field import GF2m
from oracles import enumerated_distribution, rank


# -- oracles -------------------------------------------------------------------------

def macwilliams_oracle(dist: WeightDistribution, k: int, q: int) -> WeightDistribution:
    """Dual weight distribution via the MacWilliams identity, exactly.

    A_j(dual) = q^-k * sum_i A_i K_j(i) with the Krawtchouk polynomial
    K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s).  Inputs that do not
    come from a genuine [n, k] code surface as non-integer or negative
    outputs, which raise.
    """
    n = dist.n
    items = dist.nonzero_items()
    if sum(c for _, c in items) != q**k:
        raise ValueError("counts do not sum to q^k; not a valid [n, k] distribution")
    out = []
    for j in range(n + 1):
        acc = 0
        for i, a_i in items:
            kraw = 0
            for s in range(0, min(i, j) + 1):
                term = (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                kraw += -term if s & 1 else term
            acc += a_i * kraw
        quot, rem = divmod(acc, q**k)
        if rem or quot < 0:
            raise ValueError(f"inconsistent distribution: dual count at weight {j} is {acc}/{q**k}")
        out.append(quot)
    return WeightDistribution(n, tuple(out))


def dual_recurrence_oracle(n: int, k: int, q: int, a_k_dual: int) -> WeightDistribution:
    """Full dual distribution of an [n, k, n-k] NMDS code from the seed A_k(dual).

    The dual is an [n, n-k, k] code: A(dual)_i = 0 for 0 < i < k, the given
    seed at weight k, and for s = 1..n-k

        A(dual)_{k+s} = C(n, k+s) * sum_{j<s} (-1)^j C(k+s, j) (q^{s-j} - 1)
                        + (-1)^s C(n-k, s) * A_k(dual).
    """
    if a_k_dual < 0:
        raise ValueError("seed count must be non-negative")
    counts = [0] * (n + 1)
    counts[0] = 1
    if k <= n:
        counts[k] = a_k_dual
    for s in range(1, n - k + 1):
        acc = 0
        for j in range(s):
            term = comb(k + s, j) * (q ** (s - j) - 1)
            acc += -term if j & 1 else term
        val = comb(n, k + s) * acc
        tail = comb(n - k, s) * a_k_dual
        val += -tail if s & 1 else tail
        if val < 0:
            raise ValueError(f"recurrence produced negative count at weight {k + s}")
        counts[k + s] = val
    return WeightDistribution(n, tuple(counts))


def primal_recurrence_oracle(n: int, k: int, q: int, a_nk: int) -> WeightDistribution:
    """Full distribution of an [n, k, n-k] NMDS code from the seed A_{n-k}.

    For s = 1..k:

        A_{n-k+s} = C(n, k-s) * sum_{j<s} (-1)^j C(n-k+s, j) (q^{s-j} - 1)
                    + (-1)^s C(k, s) * A_{n-k}.
    """
    if a_nk < 0:
        raise ValueError("seed count must be non-negative")
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[n - k] = a_nk
    for s in range(1, k + 1):
        acc = 0
        for j in range(s):
            term = comb(n - k + s, j) * (q ** (s - j) - 1)
            acc += -term if j & 1 else term
        val = comb(n, k - s) * acc
        tail = comb(k, s) * a_nk
        val += -tail if s & 1 else tail
        if val < 0:
            raise ValueError(f"recurrence produced negative count at weight {n - k + s}")
        counts[n - k + s] = val
    return WeightDistribution(n, tuple(counts))


def outcome(fn, *args):
    """The counts ``fn`` returns, or the message of the ValueError it raises."""
    try:
        return fn(*args).counts
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same(fast, oracle, *args):
    got, want = outcome(fast, *args), outcome(oracle, *args)
    assert got == want, args


# -- closed forms --------------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 8))
def test_kernels_match_oracles_on_closed_forms(m):
    q = 1 << m
    for cid in CONSTRUCTION_IDS:
        profile = expected_profile(cid, q)
        n, k = profile.n, 3  # every registry code has dimension 3
        closed = WeightDistribution(n, profile.distribution_counts())
        assert_same(macwilliams, macwilliams_oracle, closed, k, q)
        a3 = profile.dual_weight3_count
        assert_same(nmds_dual_distribution_from_Ak, dual_recurrence_oracle, n, k, q, a3)
        seed = closed.counts[n - k]
        assert_same(nmds_primal_distribution_from_Ank, primal_recurrence_oracle, n, k, q, seed)


# -- random codes and arbitrary counts -----------------------------------------------

@st.composite
def small_codes(draw):
    """Random full-rank k x n generators over GF(4) or GF(8), k = 1..4."""
    m = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 10))
    ctx = GF2m(m)
    rows = draw(st.lists(
        st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n), min_size=k, max_size=k,
    ))
    assume(rank(ctx, rows) == k)
    return ctx, np.array(rows, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(gen=small_codes())
def test_macwilliams_matches_oracle_on_random_codes(gen):
    # the distribution comes from the enumeration oracle, which takes any k
    ctx, rows = gen
    dist = enumerated_distribution(ctx, rows)
    q, (k, n) = ctx.q, rows.shape
    got = macwilliams(dist, k, q)
    assert got.counts == macwilliams_oracle(dist, k, q).counts
    assert sum(got.counts) == q ** (n - k)


@st.composite
def counts_summing_to_qk(draw):
    """Arbitrary non-negative counts with A_0 = 1 and sum q^k: mostly not a code."""
    q = draw(st.sampled_from([2, 4, 8]))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, min(n, 3)))
    rest = q**k - 1
    cuts = sorted(draw(st.lists(st.integers(0, rest), min_size=n - 1, max_size=n - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, rest])]
    return WeightDistribution(n, (1, *parts)), k, q


@settings(max_examples=200, deadline=None)
@given(args=counts_summing_to_qk())
def test_macwilliams_matches_oracle_on_arbitrary_counts(args):
    # both raise the same "inconsistent distribution" error or agree exactly
    assert_same(macwilliams, macwilliams_oracle, *args)


@st.composite
def counts_from_smallest_weight(draw):
    """Counts with A_0 = 1 and sum q^k, zero below a least positive weight d.

    Above d the support has gaps, is every weight d..n (the NMDS shape) or
    is d = n alone; with k = 0 only A_0 is left.  A quarter of the draws
    are formal MDS distributions, d = n - k + 1, whose transform is exact,
    so the comparison covers outputs as well as the first failing weight.
    """
    q = draw(st.sampled_from([2, 4, 8, 16]))
    k = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(["gaps", "nmds", "top", "mds"])) if k else "zero"
    if shape == "zero":
        n = draw(st.integers(0, 12))
        return WeightDistribution(n, (1,) + (0,) * n), k, q
    if shape == "mds":
        n = draw(st.integers(k, min(12, q + k - 1)))
        d = n - k + 1
        counts = [1] + [0] * (d - 1) + [
            comb(n, w) * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1))
            for w in range(d, n + 1)
        ]
        assume(min(counts) >= 0)
        return WeightDistribution(n, tuple(counts)), k, q
    n = draw(st.integers(1, 12))
    d = n if shape == "top" else draw(st.integers(1, n))
    above = range(d + 1, n + 1)
    if shape == "gaps":
        above = draw(st.lists(st.sampled_from(above), unique=True)) if above else []
    rest = q**k - 1
    support = sorted([d, *above])[:rest]
    cuts = sorted(draw(st.sets(st.integers(1, max(rest - 1, 1)),
                               min_size=len(support) - 1, max_size=len(support) - 1)))
    counts = [1] + [0] * n
    for w, a, b in zip(support, [0, *cuts], [*cuts, rest]):
        counts[w] = b - a
    return WeightDistribution(n, tuple(counts)), k, q


@settings(max_examples=300, deadline=None)
@given(args=counts_from_smallest_weight())
@example(args=(WeightDistribution(0, (1,)), 0, 16))
def test_macwilliams_matches_oracle_from_smallest_weight(args):
    # the factor (1 - z)^d for every d, the empty P(z) of A_0 alone, and
    # the same error text when the counts are not a code's
    assert_same(macwilliams, macwilliams_oracle, *args)


# -- recurrence grid -----------------------------------------------------------------

@st.composite
def recurrence_args(draw):
    """(n, k, q, seed) with 0 <= k <= n, any q >= 2 and seeds small, large or negative."""
    n = draw(st.integers(0, 40))
    k = draw(st.integers(0, n))
    q = draw(st.integers(2, 64))
    seed = draw(st.one_of(st.integers(-2, 0), st.integers(0, 10**4), st.integers(0, 10**30)))
    return n, k, q, seed


@settings(max_examples=300, deadline=None)
@given(args=recurrence_args())
def test_recurrences_match_oracles_on_grid(args):
    assert_same(nmds_dual_distribution_from_Ak, dual_recurrence_oracle, *args)
    assert_same(nmds_primal_distribution_from_Ank, primal_recurrence_oracle, *args)


@pytest.mark.parametrize("q", [4, 8, 32])
def test_recurrences_match_oracles_at_true_seeds(q):
    # seeds from the closed forms keep every count non-negative, so the
    # comparison covers the returned distributions, not only the errors
    for cid in CONSTRUCTION_IDS:
        profile = expected_profile(cid, q)
        n = profile.n
        for k in (2, 3, 4):
            for seed in (0, profile.dual_weight3_count, comb(n, k) * (q - 1)):
                assert_same(nmds_dual_distribution_from_Ak, dual_recurrence_oracle, n, k, q, seed)
                assert_same(nmds_primal_distribution_from_Ank, primal_recurrence_oracle, n, k, q, seed)


# -- big-integer regime --------------------------------------------------------------

def test_transforms_agree_on_closed_forms_m9():
    # q = 512: counts of about 4600 bits, where the oracles take minutes
    q = 512
    for cid in CONSTRUCTION_IDS:
        profile = expected_profile(cid, q)
        n, k = profile.n, 3  # every registry code has dimension 3
        closed = WeightDistribution(n, profile.distribution_counts())
        dual_dist = macwilliams(closed, k, q)
        assert dual_dist.counts == nmds_dual_distribution_from_Ak(
            n, k, q, profile.dual_weight3_count).counts, cid
        assert sum(dual_dist.counts) == q ** (n - k), cid
        assert nmds_primal_distribution_from_Ank(n, k, q, closed.counts[n - k]) == closed, cid


def test_primal_recurrence_rejects_dimension_beyond_length():
    with pytest.raises(ValueError, match=r"^dimension k = 5 outside 0\.\.n = 3$"):
        nmds_primal_distribution_from_Ank(3, 5, 8, 1)
    with pytest.raises(ValueError):
        primal_recurrence_oracle(3, 5, 8, 1)


@pytest.mark.parametrize("k", [13, -1])
def test_dual_recurrence_rejects_dimension_outside_length(k):
    # k = 13 used to return (1, 0, ..., 0) without the seed, and k = -1 to
    # report a negative count at weight 0
    with pytest.raises(ValueError, match=rf"^dimension k = {k} outside 0\.\.n = 12$"):
        nmds_dual_distribution_from_Ak(12, k, 8, 70)


# -- the moment check ----------------------------------------------------------------

def full_checks(dist: WeightDistribution, q: int, seed: int) -> tuple[bool, bool]:
    """(macwilliams_vs_recurrence, primal_recurrence) by the full transforms of
    a dimension-3 distribution; a ValueError from a transform fails its check."""
    n = dist.n
    try:
        dual_ok = macwilliams(dist, 3, q).counts == nmds_dual_distribution_from_Ak(n, 3, q, seed).counts
    except ValueError:
        dual_ok = False
    try:
        primal_ok = nmds_primal_distribution_from_Ank(n, 3, q, dist.counts[n - 3]).counts == dist.counts
    except ValueError:
        primal_ok = False
    return dual_ok, primal_ok


def moment_checks(dist: WeightDistribution, q: int, seed: int) -> tuple[bool, bool]:
    """The same two checks as ``run_verification`` makes them."""
    moments = dual_moments(dist, q)
    return moments == [q**3, 0, 0, q**3 * seed], moments[:3] == [q**3, 0, 0]


def tampered(dist: WeightDistribution, q: int, seed: int):
    """A reported (distribution, seed), the seed moved by -+(q - 1), and
    q - 1 codewords moved from each of the top four weights to each other."""
    n, counts = dist.n, dist.counts
    yield dist, seed
    yield dist, seed - (q - 1)
    yield dist, seed + (q - 1)
    for a, b in permutations(range(n - 3, n + 1), 2):
        if counts[a] >= q - 1:
            moved = list(counts)
            moved[a] -= q - 1
            moved[b] += q - 1
            yield WeightDistribution(n, tuple(moved)), seed


@pytest.mark.parametrize("m", range(2, 10))
def test_moment_checks_match_full_comparisons(m):
    ctx = GF2m(m)
    q = ctx.q
    verdicts = Counter()
    for cid in CONSTRUCTION_IDS:
        code = build(cid, ctx)
        if classify(code).tag != "NMDS":
            continue
        dist = weight_distribution(code)
        seed = (q - 1) * len(min_weight_dual_codewords(code))
        for counts, a3 in tampered(dist, q, seed):
            verdict = moment_checks(counts, q, a3)
            assert verdict == full_checks(counts, q, a3), (cid, counts, a3)
            verdicts[verdict] += 1
    # every id is NMDS at odd m, and d1, e, e2 and f3 at even m too; the
    # seed moves fail the dual check alone, the other moves both
    pairs = 12 if m % 2 else 4
    assert verdicts[True, True] == pairs and verdicts[False, True] == 2 * pairs
    assert verdicts[False, False] > 0 and verdicts[True, False] == 0


def test_dual_recurrence_sign_follows_from_weight_4():
    """``dual_moments`` reads the sign of the dual counts off B_4 >= 0.

    The dual recurrence gives B_(3+s) / C(n, 3+s) = S_s + (-1)^s C(s+3, 3)
    B_3 / C(n, 3), with S_s = sum_{j<s} (-1)^j C(s+3, j) (q^(s-j) - 1), and
    B_4 >= 0 is B_3 / C(n, 3) <= (q-1) / 4.  So every count is >= 0 once
    S_s >= 0 at even s and 4 S_s >= (q-1) C(s+3, 3) at odd s.  With
    P_s = C(s+2, 2) q^3 - C(s+3, 2) q^2 + (s+3) q - 1, the binomial theorem
    gives q^3 S_s = (q-1)^(s+3) - (-1)^s P_s, and 0 < P_s < C(s+2, 2) q^3.
    For q >= 4: S_1 = q-1 and S_3 = (q-1)(q^2-5q+10) meet the odd bound,
    S_2 = (q-1)(q-4) >= 0, and from s = 4 on (q-1)^(s+3) / q^3 >=
    (27/64) (q-1)^s, with (q-1)^(s-1) >= 3^(s-1), exceeds C(s+2, 2) at even
    s and (q-1) C(s+3, 3) / 4 at odd s.  The identity and the bounds are checked below for q = 4..2^16 at
    small s, and the recurrence at both ends of the seed range for every s
    up to 2q, lengths up to n = 2q + 3, at q <= 2^10.
    """
    for m in range(2, 17):
        q = 1 << m
        for s in range(1, 40):
            s_s = sum((-1) ** j * comb(s + 3, j) * (q ** (s - j) - 1) for j in range(s))
            p_s = comb(s + 2, 2) * q**3 - comb(s + 3, 2) * q**2 + (s + 3) * q - 1
            assert q**3 * s_s == (q - 1) ** (s + 3) - (-1) ** s * p_s
            assert 0 < p_s < comb(s + 2, 2) * q**3
            assert s_s >= 0 if s % 2 == 0 else 4 * s_s >= (q - 1) * comb(s + 3, 3)
    for m in range(2, 11):
        q = 1 << m
        n = 2 * q + 3
        top = (q - 1) * comb(n, 4) // (n - 3)  # the largest seed with B_4 >= 0
        for seed in (0, top):  # the counts are linear in the seed
            nmds_dual_distribution_from_Ak(n, 3, q, seed)  # raises on a negative count
        with pytest.raises(ValueError, match="negative count at weight 4$"):
            nmds_dual_distribution_from_Ak(n, 3, q, top + 1)
