"""Locality and optimality of NMDS codes as locally recoverable codes.

The minimum linear locality of a coordinate is one less than the smallest
weight of a parity check covering it, i.e. of a codeword of the dual code
with that coordinate in its support.  For an NMDS code with dual distance 3
the code's locality is therefore 2 or 3, decided by whether the weight-3
dual supports jointly cover every coordinate; the dual code's locality is
d-1 or d, decided by whether those supports share a common coordinate.  Both
decisions are computed from the collinear column triples, and the dual-side
one is cross-validated against the direct covering test on the code's own
minimum-weight codewords: they cover every coordinate exactly when their
zero sets share none.  The two provably agree, and this module treats their
agreement as a runtime invariant.

Bounds: the Singleton-like bound caps d at n - k - ceil(k/r) + 2, and the
Cadambe-Mazumdar bound caps k at min_t [r t + k_opt(n - t(r+1), d)].  Here
k_opt is instantiated as the classical Singleton upper bound n' - d + 1
(zero when n' < d): equality of k against an upper bound on the true optimum
certifies meeting the true bound.
"""

from __future__ import annotations

from math import ceil
from typing import NamedTuple

from .classify import classify
from .codes import (
    LinearCode,
    _det,
    _first_basis,
    min_weight_codewords,
    min_weight_dual_codewords,
    per_code,
)

__all__ = [
    "LocalityReport",
    "locality_of_code",
    "locality_of_dual",
    "singleton_like_bound",
    "k_opt_singleton",
    "cm_bound_dimension",
    "OptimalityReport",
    "classify_lrc",
    "repair_map",
    "repair_value",
]


class LocalityReport(NamedTuple):
    """Minimum linear locality of one side, and the mechanism that decided it."""

    r: int
    mechanism: str  # "union-covers" | "intersection-empty" | "nmds-fallback"


@per_code
def _dual_support_sets(code: LinearCode) -> tuple[frozenset[int], frozenset[int]]:
    """Union and intersection of the weight-3 dual supports; the dual
    distance is 3, so there is at least one."""
    supports = [sup for sup, _ in min_weight_dual_codewords(code)]
    return frozenset().union(*supports), frozenset(supports[0]).intersection(*supports[1:])


def _require_nmds_dd3(code: LinearCode):
    # For k = 3 an NMDS code has dual defect 1, that is dual distance 3.
    verdict = classify(code)
    if verdict.tag != "NMDS":
        raise ValueError(f"locality machinery requires an NMDS code, got {verdict.tag}")
    return verdict


def locality_of_code(code: LinearCode) -> LocalityReport:
    """Locality of the code itself: 2 when the weight-3 dual supports cover
    every coordinate, otherwise 3 (NMDS fallback)."""
    _require_nmds_dd3(code)
    union, _ = _dual_support_sets(code)
    covers = union == frozenset(range(code.n))
    return LocalityReport(
        r=2 if covers else 3,
        mechanism="union-covers" if covers else "nmds-fallback",
    )


def locality_of_dual(code: LinearCode) -> LocalityReport:
    """Locality of the dual code: d(code)-1 when the weight-3 dual supports
    have empty intersection, otherwise d(code).

    Cross-validated against the direct test on the dual: its locality is
    d-1 exactly when the code's minimum-weight supports cover [n], that is
    when their zero sets share no coordinate.  A disagreement would falsify
    the intersection criterion and raises.
    """
    d = _require_nmds_dd3(code).d
    _, inter = _dual_support_sets(code)
    empty = not inter
    r = d - 1 if empty else d

    shared = frozenset(range(code.n)).intersection(*(z for z, _ in min_weight_codewords(code)))
    direct_r = d - 1 if not shared else d
    if direct_r != r:
        raise AssertionError(
            "intersection criterion and direct covering test disagree "
            f"({r} vs {direct_r}); invariant violated"
        )
    return LocalityReport(
        r=r,
        mechanism="intersection-empty" if empty else "nmds-fallback",
    )


def singleton_like_bound(n: int, k: int, r: int) -> int:
    """Right-hand side of the locality-aware Singleton bound on d."""
    if not (n > k >= 1 and r >= 1):
        raise ValueError("need n > k >= 1 and r >= 1")
    return n - k - ceil(k / r) + 2


def k_opt_singleton(n: int, d: int) -> int:
    """Singleton upper bound on the dimension of an [n, *, d] code (0 if n < d)."""
    return n - d + 1 if n >= d else 0


def cm_bound_dimension(n: int, d: int, r: int) -> tuple[int, int]:
    """Dimension cap min_t [r t + k_opt(n - t(r+1), d)] and the least
    minimizing t, for d >= 1.

    t ranges over 1 .. floor((n-1)/(r+1)); past that the residual length is
    non-positive.  If even t = 1 leaves no residual the bound degenerates to
    r itself (t = 1, empty tail code).
    """
    return min(
        (r * t + k_opt_singleton(n - t * (r + 1), d), t)
        for t in range(1, max(1, (n - 1) // (r + 1)) + 1)
    )


class OptimalityReport(NamedTuple):
    """Bound comparison for one side of a code; ``FLAGS`` names its flags in order."""

    side: str
    n: int
    k: int
    d: int
    r: int
    sl_rhs: int
    cm_rhs: int
    cm_t: int
    d_optimal: bool
    almost_d_optimal: bool
    k_optimal: bool


FLAGS = ("d_optimal", "almost_d_optimal", "k_optimal")


def _optimality(side: str, n: int, k: int, d: int, r: int) -> OptimalityReport:
    sl = singleton_like_bound(n, k, r)
    cm, t = cm_bound_dimension(n, d, r)
    if d > sl:
        raise AssertionError(f"d={d} exceeds the Singleton-like bound {sl}; invariant violated")
    if k > cm:
        raise AssertionError(f"k={k} exceeds the dimension bound {cm}; invariant violated")
    return OptimalityReport(
        side=side, n=n, k=k, d=d, r=r,
        sl_rhs=sl, cm_rhs=cm, cm_t=t,
        d_optimal=(d == sl),
        almost_d_optimal=(d == sl - 1),
        k_optimal=(k == cm),
    )


def classify_lrc(
    code: LinearCode,
    r_code: int | None = None,
    r_dual: int | None = None,
) -> tuple[OptimalityReport, OptimalityReport]:
    """Optimality reports for the code and its dual at their localities."""
    verdict = _require_nmds_dd3(code)
    if r_code is None:
        r_code = locality_of_code(code).r
    if r_dual is None:
        r_dual = locality_of_dual(code).r
    n, k, d = code.n, code.k, verdict.d
    primal = _optimality("code", n, k, d, r_code)
    dual_side = _optimality("dual", n, n - k, 3, r_dual)
    return primal, dual_side


def repair_map(code: LinearCode) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """One witness linear repair per coordinate of the code.

    Returns {i: (repair_set, coefficients)} with c_i = sum_j
    coefficients[j] * c_{repair_set[j]} for every codeword c.  A weight-3
    dual word on (a, b, c) reads (1, h1, h2), as ``min_weight_dual_codewords``
    gives it, and gives its three relations at once: c_a = h1 c_b + h2 c_c,
    c_b = (1/h1) c_a + (h2/h1) c_c and c_c = (1/h2) c_a + (h1/h2) c_b.
    The first word, in order, that covers a coordinate gives its 2-element
    set, as if each position of each word were solved alone.  The rest get
    the lexicographically first independent triple u, v, w of the other
    columns, and x = c_i is solved by Cramer's rule with [a, b, c] = (a x b).c:

        [u, v, w] (l_u, l_v, l_w) = ([x, v, w], [u, x, w], [u, v, x]).

    All three are nonzero precisely because no smaller dependency covers i.
    """
    ctx, cols = code.ctx, code.columns
    exp, log = ctx._exp, ctx._log
    q1 = ctx.q - 1
    out: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for (a, b, c), (h0, h1, h2) in min_weight_dual_codewords(code):
        # A zero coefficient is no weight-3 word, and its sentinel log would make a quotient zero.
        if not (h0 and h1 and h2):
            raise AssertionError(f"dual word on support ({a}, {b}, {c}) has a zero coefficient")
        l1, l2 = log[h1], log[h2]
        if a not in out:
            out[a] = ((b, c), (h1, h2))
        if b not in out:
            out[b] = ((a, c), (exp[q1 - l1], exp[q1 + l2 - l1]))
        if c not in out:
            out[c] = ((a, b), (exp[q1 - l2], exp[q1 + l1 - l2]))

    # Fallback coordinates: Cramer's rule over the first independent triple.
    for i in range(code.n):
        if i in out:
            continue
        others = [j for j in range(code.n) if j != i]
        basis = _first_basis(ctx, [cols[j] for j in others])
        if basis is None:
            raise ValueError(f"no repair set found for coordinate {i}")
        triple = tuple(others[b] for b in basis)
        u, v, w = (cols[j] for j in triple)
        x = cols[i]
        scale = ctx.inv(_det(ctx, u, v, w))
        lam = tuple(ctx.mul(scale, _det(ctx, *m)) for m in ((x, v, w), (u, x, w), (u, v, x)))
        if not all(lam):
            raise AssertionError(
                f"coordinate {i} lies on a smaller dependency; triple search inconsistent"
            )
        out[i] = (triple, lam)
    return out


def repair_value(codeword, entry: tuple[tuple[int, ...], tuple[int, ...]], ctx) -> int:
    """Evaluate one repair relation on a (possibly erased) codeword."""
    exp, log = ctx._exp, ctx._log
    acc = 0
    for j, h in zip(*entry):
        acc ^= exp[log[h] + log[codeword[j]]]  # a zero entry's sentinel log gives 0
    return acc
