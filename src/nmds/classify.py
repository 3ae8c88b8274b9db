"""MDS/NMDS classification, distribution recurrences, pairing checks.

A code with Singleton defect 0 is MDS; defect 1 is AMDS; AMDS with an AMDS
dual is NMDS, and every AMDS code the kernel accepts is NMDS (``classify``).
For an NMDS code the whole weight distribution of either side follows from
one seed count by a recurrence, in exact big-integer arithmetic with one
Horner step per weight, and the first four dual counts check both
(``dual_moments``).  The pairing check confirms that minimum-weight
codewords of the code and its dual come in disjoint-support pairs, unique up
to scalars: in dimension 3 the zero set of each minimum-weight codeword is
the support of exactly one weight-3 dual codeword.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .codes import (
    LinearCode,
    WeightDistribution,
    min_weight_codewords,
    min_weight_dual_codewords,
    per_code,
    weight_distribution,
)

__all__ = [
    "CodeClass",
    "classify",
    "dual_moments",
    "nmds_dual_distribution_from_Ak",
    "nmds_primal_distribution_from_Ank",
    "PairingReport",
    "check_min_weight_pairing",
]


class CodeClass(NamedTuple):
    """Classification verdict with the code's minimum distance."""

    tag: str  # "MDS" | "NMDS" | "other"
    d: int


@per_code
def classify(code: LinearCode) -> CodeClass:
    """Tag per the Singleton defect n - k + 1 - d: 0 is MDS, 1 is NMDS and
    more is "other".

    NMDS asks for defect 1 on the dual side too, and for the kernel's codes,
    n distinct points of PG(2, q), defect 1 gives it.  A_(n-3) > 0 is q - 1
    times the lines through three columns, so the dual distance is 3 and the
    dual defect k + 1 - 3 = 1: no code here is AMDS with a dual that is not.
    """
    d = weight_distribution(code).min_distance
    defect = code.n - code.k + 1 - d
    return CodeClass("MDS" if defect == 0 else "NMDS" if defect == 1 else "other", d)


def dual_moments(dist: WeightDistribution, q: int) -> list[int]:
    """q^3 times the dual counts B_0..B_3 of a dimension-3 distribution A over
    GF(q), the first four MacWilliams identities (Pless power moments):
    q^3 B_j = sum_i A_i sum_l (-1)^l (q-1)^(j-l) C(i, l) C(n-i, j-l).

    They decide both recurrence checks of an NMDS code.  A is zero at
    weights 1..n-4, and B_0 = 1, B_1 = B_2 = 0 are three linear equations in
    A_(n-3)..A_n, leaving one free parameter: they hold exactly when A is the
    primal recurrence from A_(n-3), and then the MacWilliams transform B of A
    is the dual recurrence from B_3, integral.  Its sign is not implied but
    holds for the kernel's codes: the seed is q-1 times the N column triples
    of checked table lines, a 4-set of columns holds at most one (two would
    share a line), so (n-3) N <= C(n, 4), that is B_4 >= 0, and for q >= 4
    that makes every B_w >= 0 (``tests/test_transforms.py`` has the proof).
    """
    return [sum(
        a * (-1) ** l * (q - 1) ** (j - l) * comb(i, l) * comb(dist.n - i, j - l)
        for i, a in dist.nonzero_items() for l in range(j + 1)
    ) for j in range(4)]


def _nmds_distribution(n: int, w: int, q: int, seed: int) -> WeightDistribution:
    """Distribution of one side of an NMDS code of length n from its count
    A_w at the side's minimum distance w.  For s = 1..n-w

        A_(w+s) = C(n, w+s) * S_s + (-1)^s C(n-w, s) * A_w,
        S_s = sum_{j<s} (-1)^j C(w+s, j) (q^(s-j) - 1).

    Split S_s = F_s - t_s: the alternating binomial sum
    sum_{j<s} (-1)^j C(w+s, j) is t_s = (-1)^(s-1) C(w+s-1, s-1), and
    Pascal's rule on C(w+s+1, j) gives F_(s+1) = (q-1) F_s + q t_(s+1) from
    F_0 = 0.  So each weight costs one Horner step in q-1, and every
    binomial is carried multiplicatively from the previous weight: only
    those the loop reads are computed.
    """
    if seed < 0:
        raise ValueError("seed count must be non-negative")
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[w] = seed
    f = 0
    binom, top, low = 1, comb(n, w), seed  # C(w+s-1, s-1), C(n, w+s-1), C(n-w, s-1) A_w
    for s in range(1, n - w + 1):
        top = top * (n - w - s + 1) // (w + s)
        low = low * (n - w - s + 1) // s
        if s & 1:  # t_s = binom
            f = q * (f + binom) - f
            val = top * (f - binom) - low
        else:  # t_s = -binom
            f = q * (f - binom) - f
            val = top * (f + binom) + low
        if val < 0:
            raise ValueError(f"recurrence produced negative count at weight {w + s}")
        counts[w + s] = val
        binom = binom * (w + s) // s
    return WeightDistribution(n, tuple(counts))


def nmds_dual_distribution_from_Ak(n: int, k: int, q: int, a_k_dual: int) -> WeightDistribution:
    """Full dual distribution of an [n, k, n-k] NMDS code from the seed A_k(dual).

    The dual is an [n, n-k, k] code: A(dual)_i = 0 for 0 < i < k, the given
    seed at weight k, and for s = 1..n-k

        A(dual)_{k+s} = C(n, k+s) * sum_{j<s} (-1)^j C(k+s, j) (q^{s-j} - 1)
                        + (-1)^s C(n-k, s) * A_k(dual).
    """
    if not 0 <= k <= n:
        raise ValueError(f"dimension k = {k} outside 0..n = {n}")
    return _nmds_distribution(n, k, q, a_k_dual)


def nmds_primal_distribution_from_Ank(n: int, k: int, q: int, a_nk: int) -> WeightDistribution:
    """Full distribution of an [n, k, n-k] NMDS code from the seed A_{n-k}.

    This is the dual recurrence with k and n-k swapped, since
    C(n, k-s) = C(n, n-k+s) and C(k, s) = C(n-(n-k), s).  For s = 1..k:

        A_{n-k+s} = C(n, k-s) * sum_{j<s} (-1)^j C(n-k+s, j) (q^{s-j} - 1)
                    + (-1)^s C(k, s) * A_{n-k}.
    """
    if not 0 <= k <= n:
        raise ValueError(f"dimension k = {k} outside 0..n = {n}")
    return _nmds_distribution(n, n - k, q, a_nk)


class PairingReport(NamedTuple):
    """Outcome of the disjoint-support pairing between minimum-weight codewords."""

    ok: bool


def check_min_weight_pairing(code: LinearCode) -> PairingReport:
    """For an NMDS code with dual distance 3, confirm the pairing structure:
    the two sides have equally many minimum-weight codewords, and each
    canonical minimum-weight codeword has a unique (up to scalar) disjoint-
    support partner of weight 3 in the dual.

    A weight-3 dual support is disjoint from a word of weight d = n - 3
    exactly when it is the word's zero set, and each dual support carries
    one dual codeword up to scalar.  So the pairing is a bijection exactly
    when the sorted zero sets are the dual supports.
    """
    tag = classify(code).tag
    if tag != "NMDS":
        raise ValueError(f"pairing check requires an NMDS code, got {tag}")
    primal = min_weight_codewords(code)
    duals = min_weight_dual_codewords(code)
    return PairingReport(ok=sorted(z for z, _ in primal) == [sup for sup, _ in duals])
