"""Acceptance criteria, one test and one printed PASS/FAIL line per criterion.

Criteria 6 and 7 assert an external locality/optimality table, kept literal so
that it stays independent of the registry.  Its `e` and `e2` rows give the
dual locality q-2 with a nonempty support intersection, and the dual side
almost-d-optimal.  Columns 0..q-1 of those two codes are q points of the conic
Y^2 = XZ and column q is off it; a line meets a conic in at most two points,
so every weight-3 dual codeword contains coordinate q.  Criterion 6 checks that
hypothesis on the generator matrix itself, and test_lrc.py checks the
locality against the per-coordinate repair definition.
"""

import time

import numpy as np

from nmds.classify import (
    check_min_weight_pairing,
    classify,
    nmds_dual_distribution_from_Ak,
)
from nmds.codes import (
    LinearCode,
    dual_distance_exact,
    macwilliams,
    min_weight_codewords,
    min_weight_dual_codewords,
    weight_distribution,
)
from nmds.constructions import (
    CONSTRUCTION_IDS,
    CONSTRUCTIONS,
    build,
    expected_profile,
    m_constraint_ok,
)
from nmds.field import GF2m
from nmds.cli import run_verification
from nmds.lrc import classify_lrc, locality_of_code, locality_of_dual, repair_map, repair_value
from oracles import (
    extend,
    has_root_f_plus_x_plus_1,
    is_oval,
    is_oval_by_slopes,
    power_table,
    weight3_support_sets,
)

ALL = tuple(CONSTRUCTION_IDS)

PARAMS_Q8 = {
    "c": (12, 3, 9), "c1": (12, 3, 9),
    "d": (11, 3, 8), "d1": (11, 3, 8), "d2": (11, 3, 8),
    "e": (9, 3, 6), "e1": (9, 3, 6), "e2": (9, 3, 6),
    "e1bar": (10, 3, 7), "f1": (10, 3, 7), "f2": (10, 3, 7), "f3": (10, 3, 7),
}

DIST_Q8 = {
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

DIST_Q4_M2_FAMILIES = {
    "e": (6, 12, 33, 12),
    "e2": (3, 21, 24, 15),
    "d1": (9, 36, 6, 12),
}

WEIGHT3_DUAL_COUNTS_Q8 = {
    "c": 70, "c1": 91, "d": 56, "d1": 35, "d2": 77, "e": 28,
    "e1": 42, "e2": 21, "e1bar": 49, "f1": 70, "f2": 42, "f3": 28,
}

# reference locality table: (r_code, r_dual - q)
REFERENCE_LOCALITY = {
    "c": (2, 0), "c1": (2, 0),
    "d": (2, -1), "d1": (2, 0), "d2": (2, -1),
    "e": (2, -2), "e1": (3, -3), "e2": (3, -2),
    "e1bar": (2, -2), "f1": (3, -2), "f2": (3, -2),
    "f3": (3, -1),
}

# reference mechanisms: does the weight-3 support union cover [n], and is the
# support intersection empty
REFERENCE_UNION_COVERS = {
    "c": True, "c1": True, "d": True, "d1": True, "d2": True, "e": True,
    "e1": False, "e2": False, "e1bar": True, "f1": False, "f2": False, "f3": False,
}
REFERENCE_INTERSECTION_EMPTY = {
    "c": True, "c1": True, "d": True, "d1": False, "d2": True, "e": False,
    "e1": True, "e2": False, "e1bar": True, "f1": True, "f2": True, "f3": False,
}

# reference optimality flags (d_optimal, almost_d_optimal, k_optimal) per side
_DK = (True, False, True)
_AK = (False, True, True)
REFERENCE_FLAGS = {
    "c": (_DK, _DK), "c1": (_DK, _DK), "d": (_DK, _DK), "d2": (_DK, _DK),
    "e": (_DK, _AK), "e1bar": (_DK, _DK),
    "d1": (_DK, _AK),
    "e1": (_AK, _DK), "e2": (_AK, _AK),
    "f1": (_AK, _DK), "f2": (_AK, _DK),
    "f3": (_AK, _AK),
}

# ids whose codes share the parameters [q + n_offset, 3, q + d_offset], keyed
# by (n_offset, d_offset): the abstract's "same parameters but different
# weight enumerators".
SAME_PARAMETERS = {
    (4, 1): ("c", "c1"),
    (3, 0): ("d", "d1", "d2"),
    (1, -2): ("e", "e1", "e2"),
    (2, -1): ("e1bar", "f1", "f2", "f3"),
}


def announce(num: int, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}{tail}")


def nonzero_weights(code) -> tuple[int, ...]:
    wd = weight_distribution(code)
    return tuple(c for _, c in wd.nonzero_items()[1:])


def test_criterion_1_parameter_table_q8():
    start = time.perf_counter()
    ctx = GF2m(3)
    problems = []
    for cid in ALL:
        code = build(cid, ctx)
        verdict = classify(code)
        got = (code.n, code.k, verdict.d)
        if got != PARAMS_Q8[cid]:
            problems.append(f"{cid}: parameters {got}")
        d_dual = dual_distance_exact(code)
        if d_dual != 3:
            problems.append(f"{cid}: dual distance {d_dual}")
        if verdict.tag != "NMDS":
            problems.append(f"{cid}: class {verdict.tag}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    announce(1, not problems, f"{elapsed:.2f}s" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_2_distributions_q8():
    ctx = GF2m(3)
    problems = []
    for cid in ALL:
        code = build(cid, ctx)
        wd = weight_distribution(code)
        got = nonzero_weights(code)
        if got != DIST_Q8[cid]:
            problems.append(f"{cid}: {got}")
        if sum(wd.counts) != 512:
            problems.append(f"{cid}: total {sum(wd.counts)}")
    announce(2, not problems, "" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_3_distributions_q32_and_q4():
    start = time.perf_counter()
    ctx32 = GF2m(5)
    problems = []
    for cid in ALL:
        code = build(cid, ctx32)
        wd = weight_distribution(code)
        profile = expected_profile(cid, 32)
        if wd.counts != profile.distribution_counts():
            problems.append(f"{cid}@32")
        if sum(wd.counts) != 32**3:
            problems.append(f"{cid}@32 total")
    # literal anchor for the closed forms at q=32
    c32 = nonzero_weights(build("c", ctx32))
    if c32 != (1054, 16368, 930, 14415):
        problems.append(f"c@32 anchor {c32}")
    ctx4 = GF2m(2)
    for cid, expect in DIST_Q4_M2_FAMILIES.items():
        got = nonzero_weights(build(cid, ctx4))
        if got != expect:
            problems.append(f"{cid}@4: {got}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.2f}s >= 30s")
    announce(3, not problems, f"{elapsed:.2f}s" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_4_macwilliams_and_recurrence_q8():
    ctx = GF2m(3)
    problems = []
    for cid in ALL:
        code = build(cid, ctx)
        wd = weight_distribution(code)
        a3 = 7 * len(min_weight_dual_codewords(code))
        if a3 != WEIGHT3_DUAL_COUNTS_Q8[cid]:
            problems.append(f"{cid}: weight-3 dual count {a3}")
        via_identity = macwilliams(wd, 3, 8)
        via_recurrence = nmds_dual_distribution_from_Ak(code.n, 3, 8, a3)
        if via_identity.counts != via_recurrence.counts:
            problems.append(f"{cid}: identity vs recurrence")
    announce(4, not problems, "" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_5_pairing_q8():
    ctx = GF2m(3)
    problems = []
    for cid in ALL:
        code = build(cid, ctx)
        primal, dual = len(min_weight_codewords(code)), len(min_weight_dual_codewords(code))
        if primal != dual:
            problems.append(f"{cid}: counts {7 * primal} vs {7 * dual}")
        if not check_min_weight_pairing(code).ok:
            problems.append(f"{cid}: pairing not unique")
    announce(5, not problems, "" if not problems else "; ".join(problems))
    assert not problems


def conic_hypothesis_problems(code, q: int) -> list[str]:
    """Why the dual supports of e and e2 share coordinate q, checked on G alone.

    Columns 0..q-1 must be q distinct points (1, y, z) with y^2 = xz, and
    column q must be off that conic: then every collinear column triple
    meets the conic in at most two columns and so contains column q.
    """
    ctx = code.ctx
    cols = list(code.columns)

    def on_conic(col):
        x, y, z = col
        return ctx.mul(y, y) == ctx.mul(x, z)

    block = cols[:q]
    problems = []
    if any(x != 1 for x, _, _ in block) or len(set(block)) != q:
        problems.append("columns 0..q-1 are not q distinct points (1, y, z)")
    if not all(on_conic(col) for col in block):
        problems.append("a column among 0..q-1 is off the conic Y^2 = XZ")
    if on_conic(cols[q]):
        problems.append(f"column q = {cols[q]} lies on the conic Y^2 = XZ")
    return [
        f"{p}, so the conic argument for an intersection {{q}} does not apply"
        for p in problems
    ]


def test_criterion_6_locality_table():
    problems = []
    for m, q in ((3, 8), (5, 32)):
        ctx = GF2m(m)
        for cid in ALL:
            code = build(cid, ctx)
            if cid in ("e", "e2"):
                problems.extend(f"{cid}@{q}: {p}" for p in conic_hypothesis_problems(code, q))
            loc_c = locality_of_code(code)
            loc_d = locality_of_dual(code)
            want = (REFERENCE_LOCALITY[cid][0], q + REFERENCE_LOCALITY[cid][1])
            got = (loc_c.r, loc_d.r)
            if got != want:
                problems.append(f"{cid}@{q}: (r_code, r_dual) = {got}, table says {want}")
            union, intersection = weight3_support_sets(code)
            covers = union == frozenset(range(code.n))
            if covers != REFERENCE_UNION_COVERS[cid]:
                problems.append(f"{cid}@{q}: union covers = {covers}")
            empty = not intersection
            if empty != REFERENCE_INTERSECTION_EMPTY[cid]:
                problems.append(f"{cid}@{q}: intersection {sorted(intersection)}")
            if cid == "f3" and intersection != frozenset({q + 1}):
                problems.append(f"f3@{q}: intersection not {{q+1}}")
            if cid in ("e", "e2") and intersection != frozenset({q}):
                problems.append(f"{cid}@{q}: intersection not {{q}}")
    announce(6, not problems, "" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_7_optimality_flags():
    problems = []
    for m, q in ((3, 8), (5, 32)):
        ctx = GF2m(m)
        for cid in ALL:
            code = build(cid, ctx)
            opt_code, opt_dual = classify_lrc(code)
            got = (
                (opt_code.d_optimal, opt_code.almost_d_optimal, opt_code.k_optimal),
                (opt_dual.d_optimal, opt_dual.almost_d_optimal, opt_dual.k_optimal),
            )
            if got != REFERENCE_FLAGS[cid]:
                problems.append(f"{cid}@{q}: flags {got}, table says {REFERENCE_FLAGS[cid]}")
    announce(7, not problems, "" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_8_property_suite():
    problems = []

    # oval criterion agreement on q in {4, 8, 16, 32}
    rng = np.random.default_rng(2024)
    for m in (2, 3, 4, 5):
        ctx = GF2m(m)
        funcs = [power_table(ctx, e) for e in range(1, min(ctx.q - 1, 12))]
        funcs += [rng.integers(0, ctx.q, size=ctx.q).tolist() for _ in range(25)]
        for f in funcs:
            if is_oval(ctx, f) != is_oval_by_slopes(ctx, f):
                problems.append(f"oval criteria disagree at q={ctx.q}")
                break

    # root of x^2+x+1 exists exactly at even m
    for m in range(2, 9):
        if has_root_f_plus_x_plus_1(power_table(GF2m(m), 2)) is not (m % 2 == 0):
            problems.append(f"x^2+x+1 root parity wrong at m={m}")

    # distribution invariance under column permutation and row scaling
    ctx8 = GF2m(3)
    for cid in ("c", "f3"):
        base = build(cid, ctx8)
        ref = weight_distribution(base).counts
        for seed in range(3):
            perm_rng = np.random.default_rng(seed)
            cols = perm_rng.permutation(base.n)
            shuffled = LinearCode(ctx8, [base.columns[j] for j in cols])
            if weight_distribution(shuffled).counts != ref:
                problems.append(f"{cid}: column permutation changed the distribution")
        scaled = [(ctx8.mul(3, x), y, z) for x, y, z in base.columns]
        if weight_distribution(LinearCode(ctx8, scaled)).counts != ref:
            problems.append(f"{cid}: row scaling changed the distribution")

    # extension: zero row sums always, and distance growth for e1
    for cid in ALL:
        ext = extend(build(cid, ctx8))
        if np.bitwise_xor.reduce(np.array(ext.columns), axis=0).any():
            problems.append(f"{cid}: extension rows do not sum to zero")
    for m in (3, 5):
        ctx = GF2m(m)
        d_base = weight_distribution(build("e1", ctx)).min_distance
        d_ext = weight_distribution(build("e1bar", ctx)).min_distance
        if d_ext != d_base + 1:
            problems.append(f"e1bar@q={ctx.q}: distance {d_ext} != {d_base}+1")

    # repair demo: every coordinate of a random codeword, every construction
    word_rng = np.random.default_rng(99)
    for cid in ALL:
        code = build(cid, ctx8)
        witnesses = repair_map(code)
        word = code.codeword([int(v) for v in word_rng.integers(0, 8, size=3)])
        for i in range(code.n):
            if repair_value(word, witnesses[i], ctx8) != int(word[i]):
                problems.append(f"{cid}: repair failed at coordinate {i}")
                break

    announce(8, not problems, "" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_9_scale_probe_q128():
    start = time.perf_counter()
    problems = []
    for cid in ALL:
        report, failures = run_verification(cid, 7)
        if failures:
            problems.append(f"{cid}@7: {failures}")
        profile = expected_profile(cid, 128)
        expect = {str(w): str(c) for w, c in [(0, 1)] + sorted(profile.weights.items())}
        if report["distribution"] != expect:
            problems.append(f"{cid}@7: distribution mismatch")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.2f}s >= 300s")
    announce(9, not problems, f"{elapsed:.2f}s" if not problems else "; ".join(problems))
    assert not problems


def test_criterion_10_same_parameters_different_enumerators():
    start = time.perf_counter()
    problems = []
    for group in SAME_PARAMETERS.values():
        if len({CONSTRUCTIONS[cid].lines for cid in group}) != len(group):
            problems.append(f"{group}: registry line rows repeat")
    for m in range(2, 12):
        ctx = GF2m(m)
        q = ctx.q
        for (n_offset, d_offset), group in SAME_PARAMETERS.items():
            counts = []
            for cid in (cid for cid in group if m_constraint_ok(cid, m)):
                code = build(cid, ctx)
                dist = weight_distribution(code)
                if (code.n, dist.min_distance) != (q + n_offset, q + d_offset):
                    problems.append(f"{cid}@{m}: [n, d] = [{code.n}, {dist.min_distance}]")
                counts.append(dist.counts)
            if len(set(counts)) != len(counts):
                problems.append(f"{group}@{m}: equal weight distributions")
    elapsed = time.perf_counter() - start
    announce(10, not problems, f"{elapsed:.2f}s" if not problems else "; ".join(problems))
    assert not problems
