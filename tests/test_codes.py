"""Matrix algebra, enumeration, dual machinery and the MacWilliams transform.

Expected values are frozen from hand derivations or from independent,
brute-force oracles: span enumeration for ranks and direct preimage counts
here, and the RREF, null-space dual and exhaustive codeword enumeration of
``oracles.py``, which also run on generators of other dimensions.
"""

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nmds.codes
from nmds.classify import classify
from nmds.codes import (
    _cross,
    _line_table,
    _message_key,
    _normalize,
    _pencil,
    _require_distinct_points,
    Arc,
    LinearCode,
    WeightDistribution,
    conic_arc,
    dual_distance_exact,
    macwilliams,
    matrix_to_text,
    min_weight_codewords,
    min_weight_dual_codewords,
    weight_distribution,
)
from nmds.cli import main
from nmds.constructions import CONSTRUCTION_IDS, CONSTRUCTIONS, build, expected_profile
from nmds.field import GF2m
from oracles import (
    SMALL_FIELDS,
    as_point_set,
    cross_rows,
    dimension3_codes,
    dual,
    enumerated_distribution,
    mul_table,
    normalize_rows,
    plane_points,
    rank,
    rows_of,
    rref,
    scaled_rows,
)


def brute_force_rank(ctx, rows):
    """Independent rank oracle: the row space of a rank-r matrix has q^r vectors."""
    span = {tuple([0] * len(rows[0]))}
    for coeffs in product(range(ctx.q), repeat=len(rows)):
        vec = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            for j, v in enumerate(row):
                vec[j] ^= ctx.mul(c, v)
        span.add(tuple(vec))
    size = len(span)
    r = 0
    while ctx.q**r < size:
        r += 1
    assert ctx.q**r == size
    return r


# ---------------------------------------------------------------------------
# the rank / rref oracles
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero(ctx8):
    assert rank(ctx8, np.eye(3, dtype=np.int64)) == 3
    assert rank(ctx8, np.zeros((3, 3), dtype=np.int64)) == 0


def test_rank_dependent_tail_columns(ctx8):
    # rows (0,0,0), (0,1,1), (1,0,1): two independent rows
    assert rank(ctx8, [[0, 0, 0], [0, 1, 1], [1, 0, 1]]) == 2


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_span_oracle(ctx4, seed):
    rng = np.random.default_rng(seed)
    rows = [[int(v) for v in rng.integers(0, 4, size=4)] for _ in range(3)]
    assert rank(ctx4, rows) == brute_force_rank(ctx4, rows)


def test_rref_is_idempotent_and_normalized(ctx8):
    r1 = rref(ctx8, [[2, 3, 4, 5], [6, 7, 1, 2], [4, 6, 5, 7]])
    assert np.array_equal(rref(ctx8, r1), r1)
    rows, cols = r1.shape
    for i in range(rows):
        lead = next((c for c in range(cols) if r1[i][c]), None)
        if lead is not None:
            assert r1[i][lead] == 1
            assert all(r1[t][lead] == 0 for t in range(rows) if t != i)


def test_matrix_validates_entries(ctx8):
    with pytest.raises(ValueError, match="out of range"):
        LinearCode(ctx8, [[0, 9]])
    with pytest.raises(ValueError, match="out of range"):
        LinearCode(ctx8, [(1, 0, 0), (0, 1, 0), (0, 0, -1)])
    with pytest.raises(ValueError, match="two-dimensional"):
        LinearCode(ctx8, [1, 2, 3])
    with pytest.raises(ValueError, match="two-dimensional"):
        LinearCode(ctx8, [(1, 0, 0), (0, 1), (0, 0, 1)])


# ---------------------------------------------------------------------------
# LinearCode basics
# ---------------------------------------------------------------------------

def test_linear_code_requires_full_row_rank(ctx8):
    with pytest.raises(ValueError, match="full row rank"):
        LinearCode(ctx8, [(1, 1, 0), (1, 1, 0), (0, 0, 0)])
    with pytest.raises(ValueError, match="full row rank"):
        LinearCode(ctx8, [(1, 0, 1), (0, 1, 1)])  # n < k


def test_linear_code_takes_a_zero_first_column_the_kernel_refuses(ctx8):
    # Rank 3 with a zero first column: LinearCode takes it, the kernel names it.
    code = LinearCode(ctx8, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="^column 0 is zero; the kernel counts distinct nonzero"):
        weight_distribution(code)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_linear_code_rejects_other_dimensions(ctx8, k):
    cols = {1: [(1,)] * 5, 2: [(1, 0), (0, 1), (1, 1)], 4: np.eye(4, dtype=np.int64)}[k]
    with pytest.raises(ValueError, match=f"k={k}: only dimension-3"):
        LinearCode(ctx8, cols)


@st.composite
def low_rank_generators(draw):
    """3 x n products C B over GF(4), GF(8) or GF(16), with C 3 x r and
    B r x n for r = 1, 2, 3, so ranks 1, 2 and 3 all occur."""
    ctx = draw(st.sampled_from(SMALL_FIELDS))
    r, n = draw(st.integers(1, 3)), draw(st.integers(3, 8))
    entries = st.integers(0, ctx.q - 1)
    basis = [[draw(entries) for _ in range(n)] for _ in range(r)]
    mix = [[draw(entries) for _ in range(r)] for _ in range(3)]
    rows = [[0] * n for _ in range(3)]
    for i, j, t in product(range(3), range(n), range(r)):
        rows[i][j] ^= ctx.mul(mix[i][t], basis[t][j])
    return ctx, rows


@settings(max_examples=150, deadline=None)
@given(low_rank_generators())
def test_full_rank_check_matches_rank(gen):
    ctx, rows = gen
    if rank(ctx, rows) == 3:
        assert LinearCode(ctx, zip(*rows)).k == 3
    else:
        with pytest.raises(ValueError, match="full row rank"):
            LinearCode(ctx, zip(*rows))


def test_codeword_encoding_matches_manual(ctx8):
    code = build("c", ctx8)
    msg = [3, 5, 7]
    word = code.codeword(msg)
    assert isinstance(word, list) and len(word) == code.n
    for j, col in enumerate(code.columns):
        expect = 0
        for a, g in zip(msg, col):
            expect ^= ctx8.mul(a, g)
        assert word[j] == expect


@pytest.mark.parametrize("entry", [-1, 8])
def test_codeword_rejects_message_entries_outside_the_field(ctx8, entry):
    # -1 would index the log table from its end, and 8 past it.
    with pytest.raises(ValueError, match=rf"message entry {entry} outside \[0, 8\)"):
        build("c", ctx8).codeword([entry, 0, 0])


def test_codeword_rejects_a_message_of_the_wrong_length(ctx8):
    with pytest.raises(ValueError, match=r"^message length 2 != k=3$"):
        build("c", ctx8).codeword([1, 2])


@pytest.mark.parametrize("counts, message", [
    ((1, 0, 7), "counts must have length n\\+1"),
    ((2, 0, 0, 6), "A_0 must be 1"),
    ((1, 8, -1, 0), "negative count"),
])
def test_weight_distribution_rejects_impossible_counts(counts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        WeightDistribution(3, counts)


# ---------------------------------------------------------------------------
# weight distribution and minimum distance
# ---------------------------------------------------------------------------

def test_weight_distribution_c_q8(codes8):
    wd = weight_distribution(codes8["c"])
    assert wd.nonzero_items() == [(0, 1), (9, 70), (10, 252), (11, 42), (12, 147)]
    assert sum(wd.counts) == 8**3


def test_weight_distribution_d_q8(codes8):
    wd = weight_distribution(codes8["d"])
    assert wd.nonzero_items() == [(0, 1), (8, 56), (9, 217), (10, 91), (11, 147)]


def test_weight_distribution_zero_code(ctx8):
    # the enumeration oracle on the zero code, the dual of the full space
    zero = dual(ctx8, np.eye(4, dtype=np.int64))
    wd = enumerated_distribution(ctx8, zero)
    assert wd.counts == (1, 0, 0, 0, 0)


def test_weight_distribution_small_brute_force(ctx4):
    # the enumeration oracle against the 16 codewords of a [4, 2] code by hand
    gen = [[1, 0, 2, 3], [0, 1, 1, 1]]
    counts = [0] * 5
    for a in range(4):
        for b in range(4):
            word = [a, b, ctx4.mul(a, 2) ^ b, ctx4.mul(a, 3) ^ b]
            counts[sum(1 for v in word if v)] += 1
    assert enumerated_distribution(ctx4, gen).counts == tuple(counts)


def test_weight_distribution_sum_invariant(codes8):
    for cid, code in codes8.items():
        assert sum(weight_distribution(code).counts) == 8**3, cid


def test_minimum_distance_examples(ctx8, ctx4):
    assert weight_distribution(build("c", ctx8)).min_distance == 9
    assert weight_distribution(build("e", ctx4)).min_distance == 2
    ones = [[1] * 7]  # the [7, 1] repetition code, on the oracle
    assert enumerated_distribution(ctx8, ones).min_distance == 7


def test_minimum_distance_zero_code_rejected(ctx8):
    zero = enumerated_distribution(ctx8, dual(ctx8, np.eye(3, dtype=np.int64)))
    with pytest.raises(ValueError, match="zero code"):
        zero.min_distance


def test_row_scaling_invariance(ctx8):
    base = build("d", ctx8)
    first, *rest = rows_of(base)
    scaled = LinearCode(ctx8, zip([ctx8.mul(5, v) for v in first], *rest))
    assert weight_distribution(scaled).counts == weight_distribution(base).counts


@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False))
def test_column_permutation_invariance(rnd):
    ctx = GF2m(3)
    base = build("e1bar", ctx)
    cols = list(range(base.n))
    rnd.shuffle(cols)
    permuted = LinearCode(ctx, [base.columns[j] for j in cols])
    assert weight_distribution(permuted).counts == weight_distribution(base).counts


# ---------------------------------------------------------------------------
# dual code
# ---------------------------------------------------------------------------

def test_dual_dimension_and_orthogonality(codes8):
    code = codes8["c"]
    dd = dual(code.ctx, rows_of(code))
    assert dd.shape == (9, 12)
    for hrow in dd:
        for grow in rows_of(code):
            acc = 0
            for a, b in zip(hrow, grow):
                acc ^= code.ctx.mul(int(a), int(b))
            assert acc == 0


def test_dual_of_full_space_is_zero_code(ctx8):
    z = dual(ctx8, np.eye(5, dtype=np.int64))
    assert z.shape == (0, 5)
    assert dual(ctx8, z).shape == (5, 5)


def test_dual_dual_is_original(ctx4):
    code = build("e", ctx4)
    back = dual(ctx4, dual(ctx4, rows_of(code)))
    assert np.array_equal(rref(ctx4, back), rref(ctx4, rows_of(code)))


# ---------------------------------------------------------------------------
# dual distance via column dependencies
# ---------------------------------------------------------------------------

def test_dual_distance_exact_constructions(codes8):
    assert dual_distance_exact(codes8["c"]) == 3
    assert dual_distance_exact(codes8["e1bar"]) == 3


def test_dual_distance_exact_mds_like(ctx8):
    eye = LinearCode(ctx8, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert dual_distance_exact(eye) is None  # reported as "> 3"


def test_kernel_refuses_columns_that_are_not_distinct_points(ctx8):
    # Both codes have rank 3, so LinearCode takes them; the kernel does not.
    with_zero = LinearCode(ctx8, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
    proportional = LinearCode(ctx8, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
    for code, fault in ((with_zero, "column 3 is zero"),
                        (proportional, r"columns 0 and 1 are one point of PG\(2, q\)")):
        for derive in (dual_distance_exact, weight_distribution, min_weight_codewords, classify):
            with pytest.raises(ValueError, match=rf"^{fault}; the kernel counts distinct nonzero"):
                derive(code)


def test_every_registry_code_is_a_point_set():
    # So no CLI or benchmark input reaches the refusal: every id builds
    # distinct nonzero points at every m the kernel accepts.
    for m in range(2, 12):
        ctx = GF2m(m)
        for cid in CONSTRUCTION_IDS:
            code = build(cid, ctx)
            _require_distinct_points(code)


def test_min_weight_dual_codewords_counts(codes8):
    q = 8
    assert (q - 1) * len(min_weight_dual_codewords(codes8["c"])) == 70
    assert (q - 1) * len(min_weight_dual_codewords(codes8["d"])) == 56
    assert (q - 1) * len(min_weight_dual_codewords(codes8["e"])) == 28


def test_min_weight_dual_codewords_annihilate(codes8):
    for cid, code in codes8.items():
        ctx = code.ctx
        entries = min_weight_dual_codewords(code)
        supports = [sup for sup, _ in entries]
        assert len(set(supports)) == len(supports), cid
        for sup, coeffs in entries:
            assert all(coeffs), cid
            assert coeffs[0] == 1
            for row in rows_of(code):
                acc = 0
                for j, lam in zip(sup, coeffs):
                    acc ^= ctx.mul(lam, int(row[j]))
                assert acc == 0, (cid, sup)


def test_min_weight_dual_codewords_annihilate_rescaled_columns():
    # Scaling a column moves neither its point nor a line through it, and the
    # line table crosses the columns as given.  Every column scaled, with no
    # arc stated, or only the later ones, with the arc stated, a code keeps
    # its distribution, minimum-weight words and dual supports, and the dual
    # coefficients must annihilate the scaled columns.
    rng = np.random.default_rng(7)
    for m in range(2, 8):
        ctx = GF2m(m)
        for cid in CONSTRUCTION_IDS:
            code = build(cid, ctx)
            lead = len(code.arc.columns)
            scales = rng.integers(1, ctx.q, size=code.n)
            scaled_cols = mul_table(ctx)[np.array(code.columns), scales[:, None]].tolist()
            scaled_cols = [tuple(col) for col in scaled_cols]
            for scaled in (
                LinearCode(ctx, scaled_cols),
                LinearCode(ctx, code.columns[:lead] + tuple(scaled_cols[lead:]), arc=code.arc),
            ):
                assert weight_distribution(scaled) == weight_distribution(code), (cid, m)
                assert min_weight_codewords(scaled) == min_weight_codewords(code), (cid, m)
                entries = min_weight_dual_codewords(scaled)
                supports = [sup for sup, _ in min_weight_dual_codewords(code)]
                assert [sup for sup, _ in entries] == supports, (cid, m)
                for sup, coeffs in entries:
                    assert all(coeffs) and coeffs[0] == 1, (cid, m)
                    for row in rows_of(scaled):
                        acc = 0
                        for j, lam in zip(sup, coeffs):
                            acc ^= ctx.mul(lam, int(row[j]))
                        assert acc == 0, (cid, m, sup)


def test_min_weight_dual_codewords_preconditions(ctx8):
    eye = LinearCode(ctx8, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="dual distance"):
        min_weight_dual_codewords(eye)


# ---------------------------------------------------------------------------
# minimum-weight codewords
# ---------------------------------------------------------------------------

def test_min_weight_codewords_c_q8(codes8):
    code = codes8["c"]
    words = min_weight_codewords(code)
    assert len(words) * 7 == 70  # one line per scalar class
    for zeros, line in words:
        assert next(v for v in line if v) == 1
        word = np.array(code.codeword(line))
        assert np.count_nonzero(word) == 9
        assert zeros == tuple(np.flatnonzero(word == 0).tolist())


def assert_min_weight_lines_in_message_order(code):
    """The lines of ``min_weight_codewords`` are the projective messages of
    weight-d codewords, in message order: (1, y, z), (0, 1, z), (0, 0, 1)."""
    q, d = code.ctx.q, weight_distribution(code).min_distance
    messages = [
        *product((1,), range(q), range(q)), *product((0,), (1,), range(q)), (0, 0, 1)
    ]
    lines = [msg for msg in messages if code.n - code.codeword(msg).count(0) == d]
    assert [line for _, line in min_weight_codewords(code)] == lines


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("cid", CONSTRUCTION_IDS)
def test_min_weight_codewords_in_message_order_all_ids(cid, m):
    assert_min_weight_lines_in_message_order(build(cid, GF2m(m)))


def test_min_weight_codewords_in_message_order_across_leading_positions(ctx8):
    # The conic columns and (0, 1, 0), (1, 0, 0), (0, 0, 1) form a hyperoval,
    # so the lines with the most columns are the 5 through (0, 1, 1) and two
    # of its points.  The line (0, 1, 1) is one, and it leads at position 1.
    conic = [(1, a, ctx8.mul(a, a)) for a in range(1, 8)]
    code = LinearCode(ctx8, conic + [(0, 1, 0), (0, 1, 1), (1, 0, 0), (0, 0, 1)])
    assert (0, 1, 1) in [line for _, line in min_weight_codewords(code)]
    assert_min_weight_lines_in_message_order(code)


def _faulty_cross(faults):
    """``_cross`` with the product of each pair (u, v) in ``faults`` replaced
    by the vector that the pair maps to."""
    real = nmds.codes._cross
    return lambda ctx, u, v: faults[u, v] if (u, v) in faults else real(ctx, u, v)


def test_min_weight_codewords_rejects_line_missing_a_column(ctx8, monkeypatch):
    # The conic columns and one residue point P = (0, 1, 1): every line
    # through three columns is a secant of the pencil, and no later column
    # is on one, so only the pencil's check sees the fault.  The line y = z
    # through P holds arc point 0 = (1, 1, 1) alone; arc point 1 put on it
    # makes a secant whose line misses arc point 1.  A fresh arc keeps the
    # faulty pencil off the field's shared one.
    arc = Arc(ctx8, conic_arc(ctx8).columns)
    p = (0, 1, 1)
    fault = {(p, arc.columns[1]): nmds.codes._cross(ctx8, p, arc.columns[0])}
    monkeypatch.setattr(nmds.codes, "_cross", _faulty_cross(fault))
    code = LinearCode(ctx8, arc.columns + (p,), arc=arc)
    with pytest.raises(AssertionError, match="misses one of its columns"):
        min_weight_codewords(code)


def test_line_table_rejects_a_later_line_missing_a_column(ctx8, monkeypatch):
    # With the pencils derived first, the fault reaches only the lines that
    # a later column is on, which each code builds itself: c's column
    # 7 = (1, 0, 0), seen from column 10 = (1, 0, 1), is put on the line
    # x = z through columns 0, 9 and 10, which misses it.
    arc = Arc(ctx8, conic_arc(ctx8).columns)
    columns = build("c", ctx8).columns
    assert _line_table(LinearCode(ctx8, columns, arc=arc))
    fault = {(columns[10], columns[7]): nmds.codes._cross(ctx8, columns[10], columns[9])}
    monkeypatch.setattr(nmds.codes, "_cross", _faulty_cross(fault))
    with pytest.raises(AssertionError, match="misses one of its columns"):
        min_weight_codewords(LinearCode(ctx8, columns, arc=arc))


def test_min_weight_codewords_rejects_a_count_off_the_distribution(ctx8):
    code = build("c", ctx8)
    counts = list(weight_distribution(code).counts)
    counts[9] += 7  # one line more of the most columns than the table holds
    code._derived[weight_distribution.__wrapped__] = WeightDistribution(code.n, tuple(counts))
    with pytest.raises(AssertionError, match="do not give A_d = 77"):
        min_weight_codewords(code)


@pytest.mark.parametrize("seed", range(4))
def test_dual_machinery_matches_dual_enumeration(ctx4, seed):
    # random 3-row codes at q=4: dual_distance_exact and the weight-3 census
    # must agree with a full enumeration of the dual code
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < 25:
        n = int(rng.integers(4, 8))
        rows = rng.integers(0, 4, size=(3, n))
        try:
            code = LinearCode(ctx4, rows.T.tolist())
        except ValueError:
            continue
        checked += 1
        code = as_point_set(code, dual_distance_exact)
        dual_dist = enumerated_distribution(ctx4, dual(ctx4, rows_of(code)))
        # The point set of a draw can have n = 3, whose dual is the zero code.
        true_dd = min((w for w, _ in dual_dist.nonzero_items() if w), default=4)
        got = dual_distance_exact(code)
        assert got == (true_dd if true_dd <= 3 else None)
        if got == 3:
            w3_true = dual_dist.counts[3]
            assert 3 * len(min_weight_dual_codewords(code)) == w3_true


# ---------------------------------------------------------------------------
# the PG(2, q) line table against enumeration and rank oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", (2, 3))
def test_message_key_names_the_line_through_two_points(m):
    # The points of PG(2, q) are its messages: (1, y, z), (0, 1, z), (0, 0, 1).
    ctx = GF2m(m)
    q = ctx.q
    points = [*product((1,), range(q), range(q)), *product((0,), (1,), range(q)), (0, 0, 1)]
    lines = set()
    for u, v in combinations(points, 2):
        line = _normalize(ctx, _cross(ctx, u, v))
        named = points[_message_key(q, line)]  # the message in the key's place
        for x in (u, v):
            assert not ctx.mul(named[0], x[0]) ^ ctx.mul(named[1], x[1]) ^ ctx.mul(named[2], x[2])
        lines.add(line)
    assert sorted(_message_key(q, line) for line in lines) == list(range(q * q + q + 1))


def _canonical_words(ctx: GF2m, words: np.ndarray) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """(support, word) pairs, each word scaled so its first nonzero symbol is 1."""
    return [
        (frozenset(np.flatnonzero(w).tolist()), tuple(w.tolist()))
        for w in normalize_rows(ctx, words)
    ]


def _projective_messages(q: int, k: int) -> np.ndarray:
    """One message per scalar class: first nonzero entry equals 1.

    Returns an array of shape ( (q^k - 1)/(q - 1), k )."""
    blocks = []
    for lead in range(k):
        tail = k - lead - 1
        count = q**tail
        block = np.zeros((count, k), dtype=np.int64)
        block[:, lead] = 1
        rem = np.arange(count)
        for j in range(tail - 1, -1, -1):
            block[:, lead + 1 + j] = rem % q
            rem //= q
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def _enumerated_min_weight_words(code: LinearCode) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Minimum-weight words by enumerating one message per scalar class."""
    q, k, n = code.ctx.q, code.k, code.n
    msgs = _projective_messages(q, k)
    scaled = scaled_rows(code.ctx, rows_of(code))
    block_size = max(1, (1 << 24) // max(1, n))
    d = n + 1
    kept: list[np.ndarray] = []
    for start in range(0, len(msgs), block_size):
        block = msgs[start : start + block_size]
        words = np.zeros((len(block), n), dtype=np.uint16)
        for i in range(k):
            words ^= scaled[i][block[:, i]]
        weights = np.count_nonzero(words, axis=1)
        block_min = int(weights.min())
        if block_min < d:
            d = block_min
            kept = []
        if block_min <= d:
            kept.extend(words[weights == d])
    return _canonical_words(code.ctx, np.array(kept))


def encoded_min_weight_words(code):
    """Each (zeros, line) of ``min_weight_codewords`` encoded in full, checked
    to have weight d and to vanish exactly on ``zeros``, in the oracle's
    (support, canonical word) form."""
    d = weight_distribution(code).min_distance
    words = []
    for zeros, line in min_weight_codewords(code):
        word = np.array(code.codeword(line))
        assert np.count_nonzero(word) == d
        assert zeros == tuple(np.flatnonzero(word == 0).tolist())
        words.append(word)
    return _canonical_words(code.ctx, np.array(words))


MDS_REFUSAL = "no line holds three columns: the code is MDS"


def collinear_triples(code):
    """The column triples on the table lines with three or more columns, in
    lexicographic order: the supports of the weight-3 dual words when the
    columns are pairwise independent."""
    return sorted(t for _, cols, _, _ in _line_table(code) for t in combinations(cols, 3))


def column_rank(code, idx):
    return rank(code.ctx, [code.columns[j] for j in idx])  # rank of the transpose


def rank_dual_distance(code):
    """Oracle: the smallest w <= 3 with a rank-deficient w-subset of columns."""
    for w in (1, 2, 3):
        if any(column_rank(code, idx) < w for idx in combinations(range(code.n), w)):
            return w
    return None


def determinant_triples(code):
    """Oracle: i < j < l with det[c_i c_j c_l] = 0 by cofactor expansion."""
    u, v, w = np.array(rows_of(code))
    tri = np.array(list(combinations(range(code.n), 3)))
    i, j, l = tri.T
    table = mul_table(code.ctx)

    def mul(a, b):
        return table[a, b]

    det = (
        mul(u[i], mul(v[j], w[l]) ^ mul(w[j], v[l]))
        ^ mul(v[i], mul(u[j], w[l]) ^ mul(w[j], u[l]))
        ^ mul(w[i], mul(u[j], v[l]) ^ mul(v[j], u[l]))
    )
    return [tuple(t) for t in tri[det == 0].tolist()]


@settings(max_examples=100, deadline=None)
@given(dimension3_codes())
# The kernel refuses a zero column and two columns at one point by name.
@example(LinearCode(SMALL_FIELDS[0], [(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)]))
@example(LinearCode(SMALL_FIELDS[0], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2)]))
def test_line_table_matches_oracles(code):
    code = as_point_set(code, weight_distribution)
    dist = enumerated_distribution(code.ctx, rows_of(code))
    assert weight_distribution(code) == dist
    if dist.min_distance == code.n - 2:  # MDS: no line holds three columns
        with pytest.raises(ValueError, match=f"^{MDS_REFUSAL}$"):
            min_weight_codewords(code)
    else:
        assert encoded_min_weight_words(code) == _enumerated_min_weight_words(code)
    dd = rank_dual_distance(code)
    assert dual_distance_exact(code) == dd
    rank2 = [t for t in combinations(range(code.n), 3) if column_rank(code, t) <= 2]
    assert collinear_triples(code) == rank2
    if dd == 3:
        assert [sup for sup, _ in min_weight_dual_codewords(code)] == rank2


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("cid", CONSTRUCTION_IDS)
def test_line_table_matches_enumeration_all_ids(cid, m):
    code = build(cid, GF2m(m))
    assert weight_distribution(code) == enumerated_distribution(code.ctx, rows_of(code))
    assert encoded_min_weight_words(code) == _enumerated_min_weight_words(code)
    if dual_distance_exact(code) in (3, None):
        assert collinear_triples(code) == determinant_triples(code)
    if dual_distance_exact(code) == 3:
        assert [sup for sup, _ in min_weight_dual_codewords(code)] == determinant_triples(code)


@dataclass(frozen=True)
class AllPairsLineTable:
    """The lines of PG(2, q) through two or more distinct column points."""

    zeros: int  # zero columns
    vectors: np.ndarray  # (L, 3) lines, first nonzero entry 1, ascending as base-q numbers
    sizes: np.ndarray  # (L,) nonzero columns on each line
    starts: np.ndarray  # (L,) where each line's columns start in `columns`
    columns: np.ndarray  # column indices grouped by line, ascending within a line
    point_mult: np.ndarray  # (P,) columns at each distinct point
    point_lines: np.ndarray  # (P,) table lines through each distinct point


def all_pairs_line_table(code: LinearCode) -> AllPairsLineTable:
    """Oracle: the normalized cross product of every pair of columns at
    distinct points, then the (line, column) incidences by sort and dedupe."""
    ctx, q, n = code.ctx, code.ctx.q, code.n
    canon = normalize_rows(ctx, code.columns)
    radix = np.array([q * q, q, 1])
    key = canon @ radix  # the point of each column as a number, 0 for a zero column
    cols = np.flatnonzero(key)
    i, j = np.triu_indices(len(cols), 1)
    a, b = cols[i], cols[j]
    distinct = key[a] != key[b]
    a, b = a[distinct], b[distinct]
    line_key = normalize_rows(ctx, cross_rows(ctx, canon[a], canon[b]).reshape(-1, 3)) @ radix
    incidences = np.unique(np.concatenate([line_key * n + a, line_key * n + b]))
    line_of, columns = np.divmod(incidences, n)
    keys, starts = np.unique(line_of, return_index=True)
    _, first, point_mult = np.unique(key[cols], return_index=True, return_counts=True)
    return AllPairsLineTable(
        zeros=n - len(cols),
        vectors=np.stack([keys // (q * q), keys // q % q, keys % q], axis=1),
        sizes=np.diff(np.append(starts, len(columns))),
        starts=starts,
        columns=columns,
        point_mult=point_mult,
        point_lines=np.bincount(columns, minlength=n)[cols[first]],
    )


def all_pairs_facts(code):
    """Distribution, sorted minimum-weight (zeros, line) pairs, collinear
    triples and the set of (line, columns) with three or more columns of a
    k = 3 code, read off the all-pairs table: lines outside it meet the
    columns in one point, q + 1 minus its table lines of them per point, or
    in none."""
    q, n = code.ctx.q, code.n
    table = all_pairs_line_table(code)
    lone = q + 1 - table.point_lines
    lines_by_z = np.bincount(table.zeros + table.sizes, minlength=n + 1)
    lines_by_z += np.bincount(
        table.zeros + table.point_mult, weights=lone, minlength=n + 1
    ).astype(np.int64)
    lines_by_z[table.zeros] += q * q + q + 1 - len(table.sizes) - int(lone.sum())
    dist = WeightDistribution(n, (1,) + tuple((q - 1) * int(c) for c in lines_by_z[n - 1 :: -1]))
    zero_cols = np.flatnonzero(~np.array(code.columns).any(axis=1)).tolist()
    on_line = [table.columns[s : s + t].tolist() for s, t in zip(table.starts, table.sizes)]
    best = table.sizes.max()
    words = sorted(
        (tuple(sorted(cols + zero_cols)), tuple(line))
        for cols, line, size in zip(on_line, table.vectors.tolist(), table.sizes)
        if size == best
    )
    triples = sorted(t for cols in on_line for t in combinations(cols, 3))
    lines = {
        (tuple(line), tuple(cols))
        for line, cols in zip(table.vectors.tolist(), on_line)
        if len(cols) >= 3
    }
    return dist, words, triples, lines


def dual_distance_oracle(code, triples):
    """The smallest w <= 3 with w dependent columns, from column ranks and
    the triples of a vanishing determinant."""
    if not np.array(code.columns).any(axis=1).all():
        return 1
    if any(column_rank(code, pair) < 2 for pair in combinations(range(code.n), 2)):
        return 2
    return 3 if triples else None


def conic_points(ctx):
    """The q + 1 points of the conic y^2 = xz: (1, a, a^2), with (1, 0, 0)
    at a = 0, and (0, 0, 1)."""
    return [(1, a, ctx.mul(a, a)) for a in range(ctx.q)] + [(0, 0, 1)]


def stating_its_arc(ctx, columns) -> LinearCode:
    """The code on ``columns`` that states its leading conic columns as its
    ``Arc``, so that its line table takes the pencil path on that arc."""
    lead = next(
        (j for j, (x, y, z) in enumerate(columns) if ctx.mul(y, y) != ctx.mul(x, z)), len(columns)
    )
    return LinearCode(ctx, columns, arc=Arc(ctx, columns[:lead]))


@st.composite
def conic_codes(draw):
    """Full-rank 3 x n generators over GF(4), GF(8) or GF(16) whose columns
    are distinct points: 2-14 conic points and 0-4 residue points (the
    nucleus (0, 1, 0) or any point off the conic), rescaled and permuted,
    stating their leading conic columns as their arc."""
    ctx = draw(st.sampled_from(SMALL_FIELDS))
    conic = conic_points(ctx)
    off_conic = [p for p in plane_points(ctx) if p not in conic]
    cols = draw(st.lists(st.sampled_from(conic), min_size=2, max_size=14, unique=True))
    residue = st.one_of(st.just((0, 1, 0)), st.sampled_from(off_conic))
    cols += draw(st.lists(residue, max_size=4, unique=True))
    scale = st.sampled_from([1, 1, 1] + list(range(2, ctx.q)))
    scales = draw(st.lists(scale, min_size=len(cols), max_size=len(cols)))
    cols = [tuple(ctx.mul(a, v) for v in c) for a, c in zip(scales, cols)]
    cols = draw(st.permutations(cols))
    assume(rank(ctx, cols) == 3)
    return stating_its_arc(ctx, cols)


@settings(max_examples=80, deadline=None)
@given(conic_codes())
# The kernel refuses a zero column and two columns at one point by name.
@example(stating_its_arc(SMALL_FIELDS[1], conic_points(SMALL_FIELDS[1])[:5] + [(0, 0, 0)]))
@example(stating_its_arc(SMALL_FIELDS[1], conic_points(SMALL_FIELDS[1])[:5] + [(2, 0, 0)]))
# The residue is empty: every column is a distinct conic point.
@example(stating_its_arc(SMALL_FIELDS[1], conic_points(SMALL_FIELDS[1])[3:]))
# The only residue point is the nucleus (0, 1, 0), on every tangent, so each
# of its lines holds one conic column and no line holds three columns.
@example(stating_its_arc(SMALL_FIELDS[2], conic_points(SMALL_FIELDS[2]) + [(0, 1, 0)]))
def test_arc_line_table_matches_all_pairs_oracle(code):
    code = as_point_set(code, weight_distribution)
    dist, words, triples, lines = all_pairs_facts(code)
    assert weight_distribution(code) == dist == enumerated_distribution(
        code.ctx, rows_of(code)
    )
    assert {(line, cols) for line, cols, _, _ in _line_table(code)} == lines
    if dist.min_distance == code.n - 2:  # MDS: no line holds three columns
        with pytest.raises(ValueError, match=f"^{MDS_REFUSAL}$"):
            min_weight_codewords(code)
    else:
        assert sorted(min_weight_codewords(code)) == words
        assert encoded_min_weight_words(code) == _enumerated_min_weight_words(code)
    assert dual_distance_exact(code) == dual_distance_oracle(code, determinant_triples(code))
    assert collinear_triples(code) == triples == determinant_triples(code)


def test_weight_distribution_rejects_a_negative_line_count(ctx8):
    # One line through all 12 columns of c leaves no pair for t_2, gives
    # t_1 = 12 (q + 1) - 12 = 96 and t_0 = 73 - 1 - 96 = -24.
    code = build("c", ctx8)
    code._derived[_line_table.__wrapped__] = (((0, 1, 0), tuple(range(code.n)), 0, ()),)
    with pytest.raises(AssertionError, match=r"t_0, t_1, t_2 = -24, 96, 0; line table"):
        weight_distribution(code)


def test_line_table_rejects_three_collinear_arc_points(ctx8, monkeypatch):
    # c's residue point 11 = (0, 1, 1) sees arc point 0 = (1, 1, 1) and the
    # later conic column 7 = (1, 0, 0) on the line y = z.  The conic column
    # 8 = (0, 0, 1), put on that line too, makes three conic columns on one
    # merged line, refused before any of its triples is checked.
    columns = build("c", ctx8).columns
    assert [columns[j] for j in (0, 7, 8, 11)] == [(1, 1, 1), (1, 0, 0), (0, 0, 1), (0, 1, 1)]
    fault = {(columns[11], columns[8]): nmds.codes._cross(ctx8, columns[11], columns[0])}
    monkeypatch.setattr(nmds.codes, "_cross", _faulty_cross(fault))
    with pytest.raises(AssertionError, match="three arc points"):
        weight_distribution(LinearCode(ctx8, columns, arc=conic_arc(ctx8)))


def test_min_weight_dual_codewords_rejects_a_triple_off_its_line(ctx8, monkeypatch):
    # The later columns 7, 8 and 9 are independent, and the residue point 7
    # sees 8 and 9 on the zero line, which vanishes on every column.  Off
    # its coordinate 2 the three columns have pairwise independent
    # (x, y), so every minor is nonzero: only the product shows the fault.
    tail = ((1, 0, 1), (0, 1, 1), (1, 1, 2))
    arc = Arc(ctx8, conic_arc(ctx8).columns)  # keeps these pencils off the field's arc
    code = LinearCode(ctx8, arc.columns + tail, arc=arc)
    assert [code.columns[j] for j in (7, 8, 9)] == list(tail)
    assert nmds.codes._det(ctx8, *tail)
    fault = {(tail[0], tail[1]): (0, 0, 0), (tail[0], tail[2]): (0, 0, 0)}
    monkeypatch.setattr(nmds.codes, "_cross", _faulty_cross(fault))
    with pytest.raises(AssertionError, match="misses its columns"):
        min_weight_dual_codewords(code)


def test_min_weight_dual_codewords_rejects_a_partial_support(ctx8, monkeypatch):
    # The line y = 0 holds the later columns 7 = (1, 0, 0), 8 = (0, 0, 1)
    # and the residue point 9 = (1, 0, 1).  Seen on the zero line, the
    # columns' (x, y) are (1, 0), (0, 0) and (1, 0), and the minor of
    # columns 8 and 9, the coefficient of column 7, vanishes.
    tail = ((1, 0, 0), (0, 0, 1), (1, 0, 1))
    arc = Arc(ctx8, conic_arc(ctx8).columns)  # keeps these pencils off the field's arc
    code = LinearCode(ctx8, arc.columns + tail, arc=arc)
    fault = {(tail[2], tail[0]): (0, 0, 0), (tail[2], tail[1]): (0, 0, 0)}
    monkeypatch.setattr(nmds.codes, "_cross", _faulty_cross(fault))
    with pytest.raises(AssertionError, match="partial-support dependency found"):
        min_weight_dual_codewords(code)


# ---------------------------------------------------------------------------
# the stated arc and the pencils it shares
# ---------------------------------------------------------------------------

def test_linear_code_refuses_columns_that_are_not_its_stated_arc(ctx8):
    arc = conic_arc(ctx8)
    for j in (0, 4):
        columns = list(build("c", ctx8).columns)
        columns[j], columns[j + 1] = columns[j + 1], columns[j]
        with pytest.raises(ValueError, match=rf"^column {j} is not point {j} of the stated arc$"):
            LinearCode(ctx8, columns, arc=arc)
    other = GF2m(3, 0b1101)
    with pytest.raises(ValueError, match=r"^the stated arc is over GF2m\(m=3, modulus=x\^3\+x\+1\), "):
        LinearCode(other, arc.columns + ((0, 1, 0),), arc=arc)


def test_arc_refuses_a_point_off_the_conic(ctx8):
    with pytest.raises(ValueError, match=r"^arc point 1 is off the conic y\^2 = xz$"):
        Arc(ctx8, [(1, 1, 1), (1, 1, 0)])


def test_pencil_refuses_three_arc_points_on_one_line(ctx8):
    # (1, 1, 1), (1, 0, 0) and (1, 1, 1) again, scaled, all lie on y = z,
    # the line through the residue point (0, 1, 1) and (1, 1, 1).
    arc = Arc(ctx8, [(1, 1, 1), (1, 0, 0), (2, 2, 2)])
    with pytest.raises(AssertionError, match="three arc points"):
        _pencil(arc, (0, 1, 1))


def test_pencil_refuses_two_arc_points_at_one_point(ctx8):
    # (1, 1, 1) and (2, 2, 2) share their line through (0, 1, 1), which
    # vanishes on both, but no dependency of the three has full support.
    arc = Arc(ctx8, [(1, 1, 1), (2, 2, 2)])
    with pytest.raises(AssertionError, match="partial-support dependency found"):
        _pencil(arc, (0, 1, 1))


# The residue points of the registry's tails; the nucleus (0, 1, 0) is on every tangent.
REGISTRY_RESIDUE = ((0, 1, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1))


@pytest.mark.parametrize("m", range(2, 8))
def test_a_pencil_holds_each_arc_point_once_and_a_dependency_on_each_secant(m):
    ctx = GF2m(m)
    arc = Arc(ctx, conic_arc(ctx).columns)
    for p in REGISTRY_RESIDUE:
        pencil = _pencil(arc, p)
        assert sorted(a for _, on, _ in pencil.values() for a in on) == list(range(ctx.q - 1)), p
        for key, (line, on, dep) in pencil.items():
            assert key == _message_key(ctx.q, line), (p, key)
            assert (dep is not None) == (len(on) == 2), (p, key)
            for v in (p, *(arc.columns[a] for a in on)):
                assert ctx.mul(line[0], v[0]) ^ ctx.mul(line[1], v[1]) ^ ctx.mul(line[2], v[2]) == 0


def test_pencil_rejects_a_dependency_that_misses_its_columns(ctx8, monkeypatch):
    # Arc points 0 = (1, 1, 1) and 1 = (1, a, a^2) seen from (1, 0, 1) on the
    # zero line: it vanishes on all three, and their (x, y) are pairwise
    # independent, so every minor is nonzero, but the three are not
    # collinear and the minors' dependency misses them.
    arc = Arc(ctx8, conic_arc(ctx8).columns)
    p = (1, 0, 1)
    fault = {(p, arc.columns[0]): (0, 0, 0), (p, arc.columns[1]): (0, 0, 0)}
    monkeypatch.setattr(nmds.codes, "_cross", _faulty_cross(fault))
    with pytest.raises(AssertionError, match="misses its columns"):
        _pencil(arc, p)


def code_facts(code):
    """Everything the kernel derives from a code's line table."""
    dd = dual_distance_exact(code)
    return (
        set(_line_table(code)),
        weight_distribution(code),
        min_weight_codewords(code),
        min_weight_dual_codewords(code) if dd == 3 else dd,
    )


@pytest.mark.parametrize("m", range(2, 8))
def test_a_shared_arc_gives_what_a_code_derives_alone(m):
    # A code alone states no arc: it has no pencils, and its line table
    # crosses each residue point with every other column, the all-pairs path.
    ctx = GF2m(m)
    for cid in CONSTRUCTION_IDS:
        code = build(cid, ctx)
        alone = LinearCode(ctx, code.columns)
        assert code.arc is conic_arc(ctx) and alone.arc.columns == ()
        assert code_facts(code) == code_facts(alone), cid


@pytest.mark.parametrize("m", range(2, 8))
def test_pencils_do_not_depend_on_the_order_of_the_codes(m):
    ctx = GF2m(m)
    arc = Arc(ctx, conic_arc(ctx).columns)
    for cid in reversed(CONSTRUCTION_IDS):
        code = LinearCode(ctx, arc.columns + CONSTRUCTIONS[cid].tail, arc=arc)
        assert code_facts(code) == code_facts(build(cid, ctx)), cid


def test_verify_all_derives_one_pencil_per_residue_point(capsys):
    # A modulus no other test builds codes over, so the field's arc starts
    # with no pencils.
    modulus = 0b10001111  # x^7+x^3+x^2+x+1
    assert main(["verify", "--all", "--m", "7", "--modulus", hex(modulus)]) == 0
    capsys.readouterr()
    pencils = conic_arc(GF2m(7, modulus))._pencils
    assert set(pencils) == set(REGISTRY_RESIDUE)


# All six 0/1 points other than (1, 1, 1): an NMDS [q + 5, 3, q + 2] code at odd m.
SIX_POINT_TAIL = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@pytest.mark.parametrize("m", (3, 4, 5))
def test_six_point_tail_on_the_stated_arc_matches_all_pairs_oracle(m):
    # Every later column but the conic's (1, 0, 0) and (0, 0, 1) is a residue
    # point, and each pencil has secants that later columns are on.  The
    # last line compares the pencil path with the code that states no arc.
    ctx = GF2m(m)
    arc = conic_arc(ctx)
    code = LinearCode(ctx, arc.columns + SIX_POINT_TAIL, arc=arc)
    dist, words, triples, lines = all_pairs_facts(code)
    assert weight_distribution(code) == dist
    assert {(line, cols) for line, cols, _, _ in _line_table(code)} == lines
    assert any(len(cols) > 3 for _, cols, _, _ in _line_table(code)) == (m % 2 == 0)
    assert sorted(min_weight_codewords(code)) == words
    assert collinear_triples(code) == triples
    assert [sup for sup, _ in min_weight_dual_codewords(code)] == triples
    assert code_facts(code) == code_facts(LinearCode(ctx, code.columns))


def test_line_table_meets_closed_forms_at_m11():
    ctx = GF2m(11)
    for cid in CONSTRUCTION_IDS:
        code = build(cid, ctx)
        profile = expected_profile(cid, ctx.q)
        assert weight_distribution(code).counts == profile.distribution_counts(), cid
        lines = profile.weights[profile.d] // (ctx.q - 1)
        assert len(min_weight_codewords(code)) == lines, cid
        assert len(min_weight_dual_codewords(code)) == lines, cid


# ---------------------------------------------------------------------------
# MacWilliams
# ---------------------------------------------------------------------------

def test_macwilliams_c_q8(codes8):
    wd = weight_distribution(codes8["c"])
    dual_wd = macwilliams(wd, 3, 8)
    assert dual_wd.counts[0] == 1
    assert dual_wd.counts[1] == 0
    assert dual_wd.counts[2] == 0
    assert dual_wd.counts[3] == 70
    assert sum(dual_wd.counts) == 8**9


def test_macwilliams_full_code(ctx4):
    wd = enumerated_distribution(ctx4, np.eye(4, dtype=np.int64))
    out = macwilliams(wd, 4, 4)
    assert out.counts == (1, 0, 0, 0, 0)


def test_macwilliams_involution(codes8):
    for cid in ("c", "e", "f3"):
        code = codes8[cid]
        wd = weight_distribution(code)
        back = macwilliams(macwilliams(wd, 3, 8), code.n - 3, 8)
        assert back.counts == wd.counts, cid


def test_macwilliams_matches_dual_enumeration(ctx4):
    # at q=4 the dual of a [5, 3] code is small enough to enumerate directly
    code = build("e", ctx4)
    via_identity = macwilliams(weight_distribution(code), 3, 4)
    via_enumeration = enumerated_distribution(ctx4, dual(ctx4, rows_of(code)))
    assert via_identity.counts == via_enumeration.counts


def test_macwilliams_rejects_inconsistent_input():
    bad = WeightDistribution(4, (1, 0, 2, 0, 0))
    with pytest.raises(ValueError, match="q\\^k"):
        macwilliams(bad, 1, 4)
    # sums to q^k but the transform is non-integral at weight 1
    lumpy = WeightDistribution(4, (1, 15, 0, 0, 0))
    with pytest.raises(ValueError, match="inconsistent"):
        macwilliams(lumpy, 2, 4)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_matrix_text_roundtrip(codes8):
    code = codes8["d"]
    head, *rows = matrix_to_text(code).splitlines()
    assert head.split() == ["3", "11", "3", "0xb"]  # rows, cols, m, modulus
    assert tuple(tuple(int(v, 16) for v in row.split()) for row in rows) == rows_of(code)
