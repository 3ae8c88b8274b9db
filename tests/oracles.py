"""Generic linear algebra over GF(2^m), kept as independent test oracles.

The package reads every dimension-3 code off cross products in PG(2, q),
in pure Python.  These oracles work on any generator matrix, given with
its field as a 2-D numpy array (or anything ``np.asarray`` takes, such as
the rows that ``rows_of`` reads off a code's columns), and share none of
that kernel: a pure-Python RREF with its rank and null-space dual,
exhaustive enumeration of all q^k codewords for the weight distribution on
numpy arrays, and the RREF-based repair map the package used before
Cramer's rule.  The random dimension-3 codes that several test modules
draw are here too, since their rank filter is the RREF, with the reduction
of a code to its distinct nonzero points, and the row-sum extension that
the registry's e1bar tail is pinned against.  So are the oval
facts behind the registry's odd-m constraint, as predicates on the value
tables of maps GF(q) -> GF(q), built from ``mul``, ``inv`` and XOR alone,
and the union and intersection of the weight-3 dual supports that the
locality verdicts rest on.
"""

from collections import Counter
from functools import cache, reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from nmds.codes import LinearCode, WeightDistribution, min_weight_dual_codewords
from nmds.field import GF2m

SMALL_FIELDS = [GF2m(2), GF2m(3), GF2m(4)]


def rows_of(code) -> tuple[tuple[int, ...], ...]:
    """The 3 x n generator matrix of ``code`` as row tuples, read off its columns."""
    return tuple(zip(*code.columns))


def _array(mat) -> np.ndarray:
    """A matrix over GF(q) as a 2-D int64 array: row tuples, nested lists or an array."""
    arr = np.asarray(mat, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("a matrix must be two-dimensional")
    return arr


def rref(ctx: GF2m, mat) -> np.ndarray:
    """Reduced row echelon form over GF(q) (unique)."""
    arr = _array(mat)
    nrows, ncols = arr.shape
    rows = arr.tolist()
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ctx.inv(rows[r][c])
        rows[r] = [ctx.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v ^ ctx.mul(f, w) for v, w in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return np.array(rows, dtype=np.int64).reshape(nrows, ncols)


def rank(ctx: GF2m, mat) -> int:
    """Rank over GF(q)."""
    return int(rref(ctx, mat).any(axis=1).sum())


def dual(ctx: GF2m, gen) -> np.ndarray:
    """Generator of the dual code, via a null-space basis of ``gen``."""
    k, n = _array(gen).shape
    if k == 0:
        return np.eye(n, dtype=np.int64)
    reduced = rref(ctx, gen)
    # Pivots are the leading columns of the nonzero rows of the RREF.
    pivots = [int(np.flatnonzero(row)[0]) for row in reduced if row.any()]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = int(reduced[i][f])  # -x = x in characteristic 2
        basis.append(vec)
    return np.array(basis, dtype=np.int64).reshape(len(basis), n)


@cache
def _mul_table(m: int, modulus: int) -> np.ndarray:
    ctx = GF2m(m, modulus)
    return np.array([[ctx.mul(a, b) for b in range(ctx.q)] for a in range(ctx.q)], dtype=np.int64)


def mul_table(ctx: GF2m) -> np.ndarray:
    """The q x q multiplication table of the field, from ``GF2m.mul``:
    ``mul_table(ctx)[u, v]`` multiplies two value arrays elementwise."""
    return _mul_table(ctx.m, ctx.modulus)


def normalize_rows(ctx: GF2m, vecs) -> np.ndarray:
    """Rows scaled so that the first nonzero entry is 1; zero rows stay zero."""
    vecs = _array(vecs)
    inverse = np.array([0] + [ctx.inv(a) for a in range(1, ctx.q)], dtype=np.int64)
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    return mul_table(ctx)[vecs, inverse[lead][:, None]]


def cross_rows(ctx: GF2m, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross products u x v of (N, 3) arrays (signs vanish in characteristic 2)."""
    mul = mul_table(ctx)
    return mul[u[:, [1, 2, 0]], v[:, [2, 0, 1]]] ^ mul[u[:, [2, 0, 1]], v[:, [1, 2, 0]]]


def scale_table(ctx: GF2m, vec) -> np.ndarray:
    """All q scalings of vec, as a (q, len(vec)) uint16 array; row a = a*vec."""
    return mul_table(ctx)[:, np.asarray(vec, dtype=np.int64)].astype(np.uint16)


def scaled_rows(ctx: GF2m, gen) -> list[np.ndarray]:
    """Per-row scaling tables: entry [a, j] = a * G[i, j], shape (q, n) uint16."""
    return [scale_table(ctx, row) for row in _array(gen)]


def enumerated_distribution(ctx: GF2m, gen) -> WeightDistribution:
    """Distribution by enumerating all q^k codewords of the row space of ``gen``."""
    q = ctx.q
    k, n = _array(gen).shape
    if k == 0:
        return WeightDistribution(n, (1,) + (0,) * n)

    scaled = scaled_rows(ctx, gen)
    counts = np.zeros(n + 1, dtype=np.int64)
    last = scaled[-1]
    if k == 1:
        w = np.count_nonzero(last, axis=1)
        counts += np.bincount(w, minlength=n + 1)
        return WeightDistribution(n, tuple(int(x) for x in counts))

    penultimate = scaled[-2]
    # Keep each XOR block under ~2^24 uint16 entries.
    chunk = max(1, (1 << 24) // max(1, q * n))
    prefix_rows = [scaled[i] for i in range(k - 2)]

    def prefix_vectors():
        if not prefix_rows:
            yield np.zeros(n, dtype=np.uint16)
            return
        idx = [0] * len(prefix_rows)
        while True:
            vec = prefix_rows[0][idx[0]].copy()
            for t, i in zip(prefix_rows[1:], idx[1:]):
                vec ^= t[i]
            yield vec
            for pos in range(len(idx) - 1, -1, -1):
                idx[pos] += 1
                if idx[pos] < q:
                    break
                idx[pos] = 0
            else:
                return

    for base in prefix_vectors():
        block = base[None, :] ^ penultimate  # (q, n)
        for start in range(0, q, chunk):
            full = block[start : start + chunk, None, :] ^ last[None, :, :]
            w = np.count_nonzero(full, axis=2)
            counts += np.bincount(w.ravel(), minlength=n + 1)
    return WeightDistribution(n, tuple(int(x) for x in counts))


def repair_map(code) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The repair map with the uncovered coordinates solved by RREF: the
    first rank-3 triple of ``combinations(others, 3)``, then the last column
    of the reduced augmented matrix [u v w | x]."""
    ctx = code.ctx
    words = min_weight_dual_codewords(code)
    out: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for sup, coeffs in words:
        for pos, i in enumerate(sup):
            if i in out:
                continue
            hi_inv = ctx.inv(coeffs[pos])
            others = [(j, coeffs[p]) for p, j in enumerate(sup) if p != pos]
            out[i] = (
                tuple(j for j, _ in others),
                tuple(ctx.mul(hi_inv, h) for _, h in others),
            )
    if len(out) == code.n:
        return out

    # Fallback coordinates: express column i over an independent column triple.
    gen = np.array(rows_of(code), dtype=np.int64)
    for i in range(code.n):
        if i in out:
            continue
        others = [j for j in range(code.n) if j != i]
        triple = next((t for t in combinations(others, 3) if rank(ctx, gen[:, list(t)]) == 3), None)
        if triple is None:
            raise ValueError(f"no repair set found for coordinate {i}")
        solved = rref(ctx, gen[:, [*triple, i]])  # the augmented matrix [u v w | x]
        lam = tuple(int(solved[row][3]) for row in range(3))
        if not all(lam):
            raise AssertionError(
                f"coordinate {i} lies on a smaller dependency; triple search inconsistent"
            )
        out[i] = (triple, lam)
    return out


def weight3_support_sets(code) -> tuple[frozenset[int], frozenset[int]]:
    """Union and intersection of the supports of the weight-3 dual codewords."""
    supports = [frozenset(sup) for sup, _ in min_weight_dual_codewords(code)]
    return frozenset().union(*supports), supports[0].intersection(*supports[1:])


def power_table(ctx: GF2m, e: int) -> list[int]:
    """x^e for every x in GF(q), e >= 1, by repeated multiplication."""
    table = list(range(ctx.q))
    for _ in range(e - 1):
        table = [ctx.mul(v, x) for x, v in enumerate(table)]
    return table


def is_permutation(table: list[int]) -> bool:
    return len(set(table)) == len(table)


def is_two_to_one(table: list[int]) -> bool:
    """Every attained value has exactly two preimages."""
    return all(n == 2 for n in Counter(table).values())


def is_oval(ctx: GF2m, table: list[int]) -> bool:
    """f(0) = 0, f a permutation, and f(x) + ux 2-to-1 for every u != 0."""
    return table[0] == 0 and is_permutation(table) and all(
        is_two_to_one([v ^ ctx.mul(u, x) for x, v in enumerate(table)]) for u in range(1, ctx.q)
    )


def is_oval_by_slopes(ctx: GF2m, table: list[int]) -> bool:
    """Independent oval test: f(0) = 0, f a permutation, and the secant
    slopes (f(x) + f(y)) / (x + y) through each x pairwise distinct.

    Slopes do not see a constant added to f, so f(0) = 0 is checked apart.
    """
    q = ctx.q
    return table[0] == 0 and is_permutation(table) and all(
        len({ctx.mul(table[x] ^ table[y], ctx.inv(x ^ y)) for y in range(q) if y != x}) == q - 1
        for x in range(q)
    )


def has_root_f_plus_x_plus_1(table: list[int]) -> bool:
    """Some x in GF(q) has f(x) + x + 1 = 0."""
    return any(v == x ^ 1 for x, v in enumerate(table))


def as_point_set(code, derive):
    """``code`` itself if its columns are distinct nonzero points of PG(2, q).

    Otherwise ``derive(code)`` must raise the kernel's refusal, and the
    result is the code on the first column at each distinct nonzero point.
    The zero and repeated columns it drops add nothing to the span, so it
    still has rank 3.
    """
    points = [tuple(p) for p in normalize_rows(code.ctx, code.columns).tolist()]
    keep = [j for j, p in enumerate(points) if any(p) and p not in points[:j]]
    if len(keep) == code.n:
        return code
    refusal = r"^(column \d+ is zero|columns \d+ and \d+ are one point of PG\(2, q\)); "
    with pytest.raises(ValueError, match=refusal + "the kernel counts distinct nonzero points$"):
        derive(code)
    return LinearCode(code.ctx, [code.columns[j] for j in keep])


def extend(code) -> LinearCode:
    """Append one column so that every generator row sums to zero.

    It can be zero or repeat a point, and then every counting function
    refuses the code; of the registry only d1, e1, f1 and f2 avoid that."""
    parity = tuple(reduce(xor, row, 0) for row in zip(*code.columns))
    return LinearCode(code.ctx, code.columns + (parity,))


def plane_points(ctx: GF2m) -> list[tuple[int, int, int]]:
    """The q^2 + q + 1 points of PG(2, q), each with first nonzero entry 1."""
    q = ctx.q
    return [(1, a, b) for a in range(q) for b in range(q)] + [(0, 1, b) for b in range(q)] + [(0, 0, 1)]


@st.composite
def dimension3_codes(draw):
    """Full-rank 3 x n generators over GF(4), GF(8) or GF(16), n in 3..12,
    whose columns are distinct nonzero points of PG(2, q), each rescaled, as
    the package requires.  Its refusal of a zero or repeated column is
    covered by explicit examples through ``as_point_set``."""
    ctx = draw(st.sampled_from(SMALL_FIELDS))
    points = draw(st.lists(st.sampled_from(plane_points(ctx)), min_size=3, max_size=12, unique=True))
    scales = draw(st.lists(st.integers(1, ctx.q - 1), min_size=len(points), max_size=len(points)))
    cols = [tuple(ctx.mul(a, v) for v in p) for a, p in zip(scales, points)]
    assume(rank(ctx, list(zip(*cols))) == 3)
    return LinearCode(ctx, cols)
