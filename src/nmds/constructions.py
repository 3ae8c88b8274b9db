"""The twelve code constructions and their closed-form expectations.

Every generator matrix is 3 x n over GF(q), q = 2^m.  The first q-1 columns
are (1, a, a^2) for the nonzero field elements a in canonical order (1, then
the rest ascending); the remaining columns are a fixed 0/1 tail that is what
distinguishes the constructions.  The id "e1bar" is "e1" plus the column that
makes each row sum to zero, (0, 0, 1) at every m: the conic columns sum to
(1, 0, 0) and e1's tail to (1, 0, 1).

For each id the registry carries the four nonzero weight-enumerator
coefficients as data, whether the closed forms are proved for odd m only
(then from m = 3, else from m = 2), and the expected locality pair and
optimality flags of the code and its dual.  The codes are NMDS, so the
length n fixes d = n - 3 and d_dual = 3, and A_(d+i) is q - 1 times the
number of lines of PG(2, q) that meet the columns in 3 - i points.  That
number is (a q^2 + b q + c) / 2 for the registry's row (a, b, c) of i; the
four rows of an id sum to (2, 2, 2), the q^2 + q + 1 lines of the plane.

The expected localities recorded here are the computationally verified
values.  For ids "e" and "e2" the dual locality is q-2: columns 0..q-1 are
q points of the conic Y^2 = XZ and column q is off it, and a line meets a
conic in at most two points, so every weight-3 dual codeword contains
coordinate q and the dual falls back to locality d.  The acceptance suite's
external table carries the same values.

``verify_construction`` is the one comparison of a pair with the registry.
It observes the class and, for an NMDS code, the pairing, localities and
bounds too, and checks each claim only on the construction's m-constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .classify import check_min_weight_pairing, classify, dual_moments
from .codes import (
    LinearCode,
    conic_arc,
    dual_distance_exact,
    min_weight_dual_codewords,
    weight_distribution,
)
from .field import GF2m
from .lrc import FLAGS, LocalityReport, OptimalityReport, classify_lrc, locality_of_code, locality_of_dual

__all__ = [
    "Construction",
    "CONSTRUCTIONS",
    "CONSTRUCTION_IDS",
    "ExpectedProfile",
    "build",
    "expected_profile",
    "expected_locality",
    "m_constraint_ok",
    "VerificationReport",
    "verify_construction",
]


@dataclass(frozen=True)
class Construction:
    """Static description of one construction family."""

    tail: tuple[tuple[int, int, int], ...]
    odd_m_only: bool
    # locality of the code and of the dual (dual as offset from q)
    r_code: int = 2
    r_dual_offset: int = 0
    # optimality flags (d_optimal, almost_d_optimal, k_optimal) per side
    flags_code: tuple[bool, bool, bool] = (True, False, True)
    flags_dual: tuple[bool, bool, bool] = (True, False, True)
    # For i = 0..3, (a, b, c) such that (a q^2 + b q + c) / 2 lines of PG(2, q)
    # meet the columns in 3 - i points; each gives q - 1 codewords of weight d + i.
    lines: tuple[tuple[int, int, int], ...] = dc_field(kw_only=True)


CONSTRUCTIONS: dict[str, Construction] = {
    "c": Construction(
        ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1), (0, 1, 1)),
        odd_m_only=True,
        lines=((0, 2, 4), (1, 1, 0), (0, 2, -4), (1, -3, 2)),
        r_code=2, r_dual_offset=0,
    ),
    "c1": Construction(
        ((1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0), (0, 1, 1)),
        odd_m_only=True,
        lines=((0, 3, 2), (1, -2, 6), (0, 5, -10), (1, -4, 4)),
        r_code=2, r_dual_offset=0,
    ),
    "d": Construction(
        ((1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)),
        odd_m_only=True,
        lines=((0, 2, 0), (1, -1, 6), (0, 4, -6), (1, -3, 2)),
        r_code=2, r_dual_offset=-1,
    ),
    "d1": Construction(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)),
        odd_m_only=False,
        lines=((0, 1, 2), (1, 2, 0), (0, 1, 0), (1, -2, 0)),
        r_code=2, r_dual_offset=0,
        flags_dual=(False, True, True),
    ),
    "d2": Construction(
        ((1, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)),
        odd_m_only=True,
        lines=((0, 3, -2), (1, -4, 12), (0, 7, -12), (1, -4, 4)),
        r_code=2, r_dual_offset=-1,
    ),
    "e": Construction(
        ((1, 0, 0), (0, 1, 1)),
        odd_m_only=False,
        lines=((0, 1, 0), (1, -2, 0), (0, 5, 2), (1, -2, 0)),
        r_code=2, r_dual_offset=-2,
        flags_dual=(False, True, True),
    ),
    "e1": Construction(
        ((1, 1, 0), (0, 1, 1)),
        odd_m_only=True,
        lines=((0, 2, -4), (1, -5, 12), (0, 8, -10), (1, -3, 4)),
        r_code=3, r_dual_offset=-3,
        flags_code=(False, True, True),
    ),
    "e2": Construction(
        ((1, 0, 0), (1, 0, 1)),
        odd_m_only=False,
        lines=((0, 1, -2), (1, -2, 6), (0, 5, -4), (1, -2, 2)),
        r_code=3, r_dual_offset=-2,
        flags_code=(False, True, True), flags_dual=(False, True, True),
    ),
    "e1bar": Construction(
        ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
        odd_m_only=True,
        lines=((0, 2, -2), (1, -3, 8), (0, 6, -6), (1, -3, 2)),
        r_code=2, r_dual_offset=-2,
    ),
    "f1": Construction(
        ((1, 0, 1), (1, 1, 0), (0, 1, 1)),
        odd_m_only=True,
        lines=((0, 3, -4), (1, -6, 14), (0, 9, -12), (1, -4, 4)),
        r_code=3, r_dual_offset=-2,
        flags_code=(False, True, True),
    ),
    "f2": Construction(
        ((1, 0, 0), (1, 0, 1), (1, 1, 0)),
        odd_m_only=True,
        lines=((0, 2, -4), (1, -3, 14), (0, 6, -12), (1, -3, 4)),
        r_code=3, r_dual_offset=-2,
        flags_code=(False, True, True),
    ),
    "f3": Construction(
        ((1, 0, 0), (0, 0, 1), (1, 0, 1)),
        odd_m_only=True,
        lines=((0, 1, 0), (1, 0, 2), (0, 3, 0), (1, -2, 0)),
        r_code=3, r_dual_offset=-1,
        flags_code=(False, True, True), flags_dual=(False, True, True),
    ),
}

CONSTRUCTION_IDS = tuple(CONSTRUCTIONS)


@dataclass(frozen=True)
class ExpectedProfile:
    """Closed-form expectations for one construction at one field size."""

    n: int
    d: int
    d_dual: int
    weights: dict[int, int]

    @property
    def dual_weight3_count(self) -> int:
        # Minimum-weight counts of the code and its dual agree for these codes.
        return self.weights[self.d]

    def distribution_counts(self) -> tuple[int, ...]:
        counts = [0] * (self.n + 1)
        counts[0] = 1
        for w, c in self.weights.items():
            counts[w] = c
        return tuple(counts)


def normalize_id(cid: str) -> str:
    key = cid.strip().lower()
    if key not in CONSTRUCTIONS:
        raise KeyError(f"unknown construction id {cid!r}; known: {', '.join(CONSTRUCTION_IDS)}")
    return key


# How a warning or a refusal words a violated m-constraint.
M_CONSTRAINT = "m={m} violates the constraint (m >= 3, m odd)"


def m_constraint_ok(cid: str, m: int) -> bool:
    return not CONSTRUCTIONS[cid].odd_m_only or m % 2 == 1


def expected_profile(cid: str, q: int) -> ExpectedProfile:
    family = CONSTRUCTIONS[cid]
    n = (q - 1) + len(family.tail)
    d = n - 3
    weights = {
        d + i: (q - 1) * (a * q * q + b * q + c) // 2 for i, (a, b, c) in enumerate(family.lines)
    }
    return ExpectedProfile(n=n, d=d, d_dual=3, weights=weights)


def expected_locality(cid: str, q: int) -> tuple[int, int]:
    family = CONSTRUCTIONS[cid]
    return family.r_code, q + family.r_dual_offset


def build(cid: str, ctx: GF2m) -> LinearCode:
    """The construction's code over the given field: the field's conic arc,
    stated as the first q - 1 columns, then the tail."""
    arc = conic_arc(ctx)
    return LinearCode(ctx, arc.columns + CONSTRUCTIONS[cid].tail, arc=arc)


@dataclass
class VerificationReport:
    """Computed-versus-expected comparison for one (construction, field) pair."""

    n: int
    k: int
    d: int
    d_dual: int | None
    dual_weight3_count: int | None
    tag: str  # the class
    # An NMDS code's pairing verdict, (code, dual) localities and bounds.
    pairing_ok: bool | None = None
    locality: tuple[LocalityReport, LocalityReport] | None = None
    bounds: tuple[OptimalityReport, OptimalityReport] | None = None
    checks: dict[str, bool] = dc_field(default_factory=dict)
    warnings: list[str] = dc_field(default_factory=list)

    def failing_fields(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]


def verify_construction(cid: str, ctx: GF2m, code: LinearCode) -> VerificationReport:
    """Compare each value observed on the construction's code over ``ctx``
    with the registry's claim for it, in report order.

    When the field violates the construction's m-constraint the comparison
    checks are skipped (the closed forms are not claimed there); the observed
    values are still reported, with a warning.
    """
    q = ctx.q
    profile = expected_profile(cid, q)
    family = CONSTRUCTIONS[cid]

    dist = weight_distribution(code)
    d = dist.min_distance
    dd = dual_distance_exact(code)
    w3 = (q - 1) * len(min_weight_dual_codewords(code)) if dd == 3 else None
    tag = classify(code).tag

    report = VerificationReport(n=code.n, k=code.k, d=d, d_dual=dd, dual_weight3_count=w3, tag=tag)
    claims = [  # (check, observed, claimed), in report order
        ("n", code.n, profile.n),
        ("d", d, profile.d),
        ("d_dual", dd, profile.d_dual),
        ("distribution", dist.counts, profile.distribution_counts()),
        ("dual_weight3_count", w3, profile.dual_weight3_count),
        ("class", tag, "NMDS"),
    ]
    if tag == "NMDS":  # for k = 3, dual defect 1 means d_dual = 3
        q3 = q**3  # the moments are q^3 times the dual counts B_0..B_3
        moments = dual_moments(dist, q)
        report.pairing_ok = check_min_weight_pairing(code).ok
        loc_code, loc_dual = report.locality = locality_of_code(code), locality_of_dual(code)
        opt_code, opt_dual = report.bounds = classify_lrc(code, loc_code.r, loc_dual.r)
        claims += [
            ("macwilliams_vs_recurrence", moments, [q3, 0, 0, q3 * w3]),
            ("primal_recurrence", moments[:3], [q3, 0, 0]),
            ("pairing", report.pairing_ok, True),
            ("locality", (loc_code.r, loc_dual.r), expected_locality(cid, q)),
            ("flags_code", tuple(getattr(opt_code, name) for name in FLAGS), family.flags_code),
            ("flags_dual", tuple(getattr(opt_dual, name) for name in FLAGS), family.flags_dual),
        ]
    if m_constraint_ok(cid, ctx.m):
        report.checks = {name: observed == claimed for name, observed, claimed in claims}
    else:
        report.warnings.append(
            M_CONSTRAINT.format(m=ctx.m) + "; closed forms not asserted, observed values reported"
        )
    return report
