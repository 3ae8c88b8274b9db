"""Dimension-3 linear codes over GF(2^m): matrices, distributions, duals.

A code is held by its 3 x n generator matrix, and every count comes from
one table of lines of the projective plane PG(2, q).  A nonzero column
is a point, a message is a line l up to scalars, and the codeword of l has
weight n minus the number of columns on l.  The columns split into an arc,
the conic points y^2 = xz that carry one column each, and a residue of all
other points.  No three conic points are collinear, so the table lists only
the lines through a residue point and another column; the lines that miss
the residue follow from counts on the arc.  So the line table gives the
exact weight distribution, the minimum-weight codewords and the weight-3
dual codewords (collinear column triples).  A minimum-weight codeword is
carried as its line and its zero set, the columns on that line and any zero
columns: pairing and locality read only where a word vanishes, so no word
is written out in full.  The table crosses each residue column with every
column, O(r n) pairs for r residue columns: about 0.6 ms per registry code
at q = 128 and 3 ms at q = 2048 on a 2-core Xeon, where the q - 1 block
columns lie on the conic.  A code with no conic columns keeps the O(n^2)
table of all pairs.  The table refuses q^3 beyond 2^34.  The same cross
product u x v, the line through two points, gives the determinant
[u, v, w] = (u x v).w that tests three columns for independence.
Low-weight dual codewords come from column dependencies, which is exact for
weights up to 3.  The MacWilliams transform gives the full dual
distribution in exact big-integer arithmetic, from the generating function
of the Krawtchouk polynomials,
sum_j K_j(i) z^j = (1 - z)^i (1 + (q-1) z)^(n-i): each nonzero count adds
one product of two binomial rows, which for an NMDS distribution is O(n k)
multiply-adds in all.

Every derivation of a code (canonical columns, line table, distribution,
minimum-weight words of the code and of its dual) runs once per code: the
``per_code`` decorator keeps each result on the code, keyed by the deriving
function, and hands the same object to every later caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import combinations

import numpy as np

from .field import GF2m

__all__ = [
    "MatrixGF",
    "LinearCode",
    "WeightDistribution",
    "weight_distribution",
    "dual_distance_exact",
    "min_weight_dual_codewords",
    "min_weight_codewords",
    "macwilliams",
    "matrix_to_text",
]

# The line table refuses q**3 beyond this, that is m >= 12, where the dual
# transforms have no stated cap yet.
ENUMERATION_GUARD = 1 << 34
_PAIR_BLOCK = 1 << 18  # column pairs per block of the line table


class MatrixGF:
    """Dense matrix over GF(2^m); entries are element values in a shared context."""

    def __init__(self, ctx: GF2m, entries) -> None:
        data = np.asarray(entries, dtype=np.int64)
        if data.ndim != 2:
            raise ValueError("entries must be two-dimensional")
        if data.size and (data.min() < 0 or data.max() >= ctx.q):
            raise ValueError("entry out of range for the field")
        self.ctx = ctx
        self.data = data

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.ctx == other.ctx
            and self.data.shape == other.data.shape
            and bool(np.all(self.data == other.data))
        )

    def __repr__(self) -> str:
        return f"MatrixGF({self.rows}x{self.cols} over GF({self.ctx.q}))"


class LinearCode:
    """An [n, 3] linear code given by a rank-3 generator matrix.

    Every construction here has dimension 3 and every count reads the
    columns as points of PG(2, q), so a generator with any other number of
    rows is refused.
    """

    def __init__(self, generator: MatrixGF) -> None:
        self.generator = generator
        self.ctx = generator.ctx
        self.n = generator.cols
        self.k = generator.rows
        if self.k != 3:
            raise ValueError(f"k={self.k}: only dimension-3 codes are supported")
        if _first_basis(self.ctx, generator.data.T) is None:
            raise ValueError("generator matrix does not have full row rank")
        self._derived: dict = {}  # per_code results, keyed by the deriving function

    def codeword(self, message) -> np.ndarray:
        """Encode one message vector of length k."""
        msg = list(message)
        if len(msg) != self.k:
            raise ValueError(f"message length {len(msg)} != k={self.k}")
        out = np.zeros(self.n, dtype=np.int64)
        for a, row in zip(msg, self.generator.data):
            if a:
                out ^= self.ctx.mul_vec(int(a), row)
        return out

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.ctx.q}))"


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts A_0..A_n by Hamming weight."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise ValueError("counts must have length n+1")
        if self.counts[0] != 1:
            raise ValueError("A_0 must be 1")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")

    @property
    def min_distance(self) -> int:
        for i in range(1, self.n + 1):
            if self.counts[i]:
                return i
        raise ValueError("zero code has no minimum distance")

    def nonzero_items(self) -> list[tuple[int, int]]:
        return [(i, c) for i, c in enumerate(self.counts) if c]

    def enumerator_str(self) -> str:
        """Human form like '1 + 70z^9 + 252z^10 + ...'."""
        parts = []
        for i, c in self.nonzero_items():
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}z^{i}")
        return " + ".join(parts)


def per_code(fn):
    """Derive ``fn(code)`` once per code and keep it on the code.

    A pure derivation of a code is computed on first use and then shared by
    every caller.  Two threads may both compute it, but ``setdefault`` keeps
    the first result, so every caller gets the same object.
    """

    @wraps(fn)
    def derived(code: LinearCode):
        facts = code._derived
        if fn not in facts:
            facts.setdefault(fn, fn(code))
        return facts[fn]

    return derived


# -- guard and canonical forms ---------------------------------------------------

def _check_enumeration_guard(q: int) -> None:
    if q**3 > ENUMERATION_GUARD:
        raise ValueError(
            f"q^k = {q}^3 exceeds the enumeration guard q^k <= 2^34, "
            "which allows m <= 11 for a dimension-3 code"
        )


def _normalize_rows(ctx: GF2m, vecs: np.ndarray) -> np.ndarray:
    """Rows scaled so that the first nonzero entry is 1; zero rows stay zero."""
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    return ctx.mul_vec(vecs, ctx.inv_vec(np.where(lead == 0, 1, lead))[:, None])


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values starts in a sorted array."""
    start = np.ones(len(values), dtype=bool)
    start[1:] = values[1:] != values[:-1]
    return np.flatnonzero(start)


@per_code
def _canonical_columns(code: LinearCode) -> np.ndarray:
    """The generator columns as the rows of an (n, 3) array, each scaled so
    that its first nonzero entry is 1; zero columns stay zero."""
    return _normalize_rows(code.ctx, code.generator.data.T)


# -- the PG(2, q) kernel: lines, determinants and the line table ---------------

def _cross(ctx: GF2m, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross products u x v (signs vanish in characteristic 2).
    For two distinct points it is the line through them."""
    # Entry i is u_(i+1) v_(i+2) + u_(i+2) v_(i+1), indices mod 3, for all i at once.
    mul = ctx.mul_vec
    return mul(u[:, [1, 2, 0]], v[:, [2, 0, 1]]) ^ mul(u[:, [2, 0, 1]], v[:, [1, 2, 0]])


def _det(ctx: GF2m, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise determinants [u, v, w] = (u x v).w, zero exactly when the
    three columns are dependent."""
    return np.bitwise_xor.reduce(ctx.mul_vec(_cross(ctx, u, v), w), axis=1)


def _first_basis(ctx: GF2m, cols: np.ndarray) -> tuple[int, int, int] | None:
    """The lexicographically first i < j < l whose columns (rows of ``cols``)
    are independent, or None if they span less than the plane.

    Greedy choice finds it: i is the first nonzero column u, j the first
    column v off the point u (u x v != 0), and l the first column off the
    line u x v.  The columns before j span at most the point u and those
    before l at most the line, so any independent a < b < c has a >= i,
    b >= j and c >= l.
    """
    nonzero = np.flatnonzero(cols.any(axis=1))
    if not len(nonzero):
        return None
    u = cols[nonzero[:1]]
    off_point = np.flatnonzero(_cross(ctx, u, cols).any(axis=1))
    if not len(off_point):
        return None
    off_line = np.flatnonzero(_det(ctx, u, cols[off_point[:1]], cols))
    if not len(off_line):
        return None
    return int(nonzero[0]), int(off_point[0]), int(off_line[0])


@dataclass(frozen=True)
class _LineTable:
    """The lines of PG(2, q) through a residue point and another column point.

    A nonzero column of the generator is a point and a projective message
    l is a line; the codeword of l has weight n - z(l), where z(l) counts the
    columns on l.  Zero columns lie on every line and are counted apart.

    The arc is the set of points of the conic y^2 = xz that carry exactly one
    column; every other column point is a residue point.  No three points of
    a conic are collinear, so every line through three or more nonzero
    columns passes through a residue point and is in the table.  The lines
    that miss the residue are counted, not listed: the secants of the arc
    outside the table meet the columns in two points, and each point lies on
    ``point_lone`` lines that meet the columns in that point alone.  With an
    empty arc the table holds every line through two column points.
    """

    zeros: int  # zero columns
    vectors: np.ndarray  # (L, 3) lines, first nonzero entry 1, ascending as base-q numbers
    sizes: np.ndarray  # (L,) nonzero columns on each line
    starts: np.ndarray  # (L,) where each line's columns start in `columns`
    columns: np.ndarray  # column indices grouped by line, ascending within a line
    point_mult: np.ndarray  # (P,) columns at each distinct point
    point_lone: np.ndarray  # (P,) lines meeting the nonzero columns in that point alone
    secants: int  # lines through two arc points outside the table


def _incidences(
    ctx: GF2m, canon: np.ndarray, key: np.ndarray, residue: np.ndarray, others: np.ndarray
) -> np.ndarray:
    """Sorted, distinct (line, column) incidences, as line * n + column, of the
    lines through a residue column and a column at another point."""
    n = len(key)
    cols = np.concatenate([residue, others])
    i, j = np.triu_indices(len(residue), 1, len(cols))
    a, b = cols[i], cols[j]
    distinct = key[a] != key[b]
    a, b = a[distinct], b[distinct]
    radix = np.array([ctx.q * ctx.q, ctx.q, 1])
    # In blocks, so the temporaries of the field products stay small at large
    # q; an empty residue gives no pairs and no blocks.
    blocks = [slice(s, s + _PAIR_BLOCK) for s in range(0, len(a), _PAIR_BLOCK)]
    line_key = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        _normalize_rows(ctx, _cross(ctx, canon[a[s]], canon[b[s]])) @ radix for s in blocks
    ])
    # Sort and mask rather than np.unique, whose first call in a process
    # costs more than the whole table at small q.
    incidences = np.sort(np.concatenate([line_key * n + a, line_key * n + b]))
    return incidences[_run_starts(incidences)]


@per_code
def _line_table(code: LinearCode) -> _LineTable:
    """The line table of a code.

    The arc is read off the canonical columns alone, in O(n).  The table is
    the normalized cross product of each residue column with every column at
    another point, O(r n) pairs for r residue columns, then the (line,
    column) incidences by sort and dedupe.

    For s arc points, C(s, 2) secants minus the table lines with two arc
    points lie outside the table.  An arc point lies on s - 1 secants, so it
    lies on q + 1 - (s - 1) - (table lines through it and no other arc
    point) lines that meet the columns in that point alone; a residue point
    lies on q + 1 minus its table lines.  A table line with three arc points
    would refute the arc, and raises ``AssertionError``.

    If no table line holds three columns, the minimum-weight lines include
    secants outside the table, so the table is rebuilt with an empty arc.
    That lists all C(s, 2) secants, no more in order than the minimum-weight
    words it must then give.
    """
    ctx, q, n = code.ctx, code.ctx.q, code.n
    _check_enumeration_guard(q)
    canon = _canonical_columns(code)
    key = canon @ np.array([q * q, q, 1])  # each column's point as a number, 0 for a zero column
    cols = np.flatnonzero(key)
    order = np.argsort(key[cols])
    first = _run_starts(key[cols][order])  # one column per distinct point
    point_mult = np.diff(np.append(first, len(cols)))
    single = np.zeros(n, dtype=bool)
    single[cols[order[first[point_mult == 1]]]] = True
    yy, xz = ctx.mul_vec(canon[:, [1, 0]], canon[:, [1, 2]]).T
    for arc in (single & (yy == xz), np.zeros(n, dtype=bool)):
        incidences = _incidences(ctx, canon, key, cols[~arc[cols]], cols[arc[cols]])
        line_of, columns = np.divmod(incidences, n)
        starts = _run_starts(line_of)
        sizes = np.diff(np.append(starts, len(columns)))
        if (sizes >= 3).any() or not arc.any():
            break
    arcs_on_line = np.add.reduceat(arc[columns], starts)
    if (arcs_on_line >= 3).any():
        raise AssertionError(
            "a table line holds three arc points; the conic columns are not an arc"
        )
    s = int(arc.sum())
    # Lines through each point that meet another column: its table lines, and
    # for an arc point its s - 1 secants in place of those in the table.
    on_secant = np.repeat(arcs_on_line == 2, sizes)
    met = np.bincount(columns, minlength=n)
    met += np.where(arc, s - 1 - np.bincount(columns[on_secant], minlength=n), 0)
    keys = line_of[starts]
    return _LineTable(
        zeros=n - len(cols),
        vectors=np.stack([keys // (q * q), keys // q % q, keys % q], axis=1),
        sizes=sizes,
        starts=starts,
        columns=columns,
        point_mult=point_mult,
        point_lone=q + 1 - met[cols[order[first]]],
        secants=s * (s - 1) // 2 - int((arcs_on_line == 2).sum()),
    )


# -- distribution and minimum-weight codewords ---------------------------------

@per_code
def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact distribution: each of the q^2 + q + 1 lines gives q - 1
    codewords of weight n - z.  Besides the table lines, the secants outside
    the table meet the columns in two points, the lone lines of each point in
    that point, and the rest in none."""
    q, n = code.ctx.q, code.n
    table = _line_table(code)
    lines_by_z = np.bincount(table.zeros + table.sizes, minlength=n + 1)
    lines_by_z += np.bincount(
        table.zeros + table.point_mult, weights=table.point_lone, minlength=n + 1
    ).astype(np.int64)
    lines_by_z[table.zeros + 2] += table.secants
    lines_by_z[table.zeros] += (
        q * q + q + 1 - len(table.sizes) - table.secants - int(table.point_lone.sum())
    )
    return WeightDistribution(n, (1,) + tuple((q - 1) * int(c) for c in lines_by_z[n - 1 :: -1]))


@per_code
def min_weight_codewords(code: LinearCode) -> list[tuple[tuple[int, ...], tuple[int, int, int]]]:
    """Minimum-weight codewords as (zeros, line) pairs, one per scalar class.

    ``line`` is the message, scaled so that its first nonzero entry is 1,
    and ``zeros`` the ascending coordinates where its codeword vanishes: the
    columns on that line of PG(2, q) and the zero columns.  Every
    minimum-weight codeword is a nonzero multiple of exactly one entry's
    codeword.  Entries come in the order of their projective messages.

    These are the lines with the most columns, and they are all in the
    table.  A line outside it is an arc secant with two columns, or meets
    the columns in one point; the table holds a line with three columns, or
    else it was rebuilt with every line through two column points.  Rank 3
    puts three non-collinear points in the plane, so a residue point lies on
    a table line, and that line carries more columns than a line meeting the
    columns in that point alone.  Two checks hold this to account: each line
    must vanish on its columns, and q - 1 times the number of lines must be
    A_d of the distribution, which counts every line.
    """
    table = _line_table(code)
    size = int(table.sizes.max())
    best = np.flatnonzero(table.sizes == size)
    lines = table.vectors[best]
    # Projective-message order: by the position of the leading 1, then as numbers.
    order = np.argsort((lines != 0).argmax(axis=1), kind="stable")
    best, lines = best[order], lines[order]
    zero_cols = np.flatnonzero(~code.generator.data.any(axis=0))
    zeros = np.sort(np.hstack([
        table.columns[table.starts[best][:, None] + np.arange(size)],
        np.tile(zero_cols, (len(best), 1)),
    ]), axis=1)
    # O(1) per word instead of encoding it: the line vanishes on its columns.
    values = code.ctx.mul_vec(lines.T[:, :, None], code.generator.data[:, zeros])
    if np.bitwise_xor.reduce(values, axis=0).any():
        raise AssertionError("a table line misses one of its columns; line table inconsistent")
    dist = weight_distribution(code)
    a_d = dist.counts[dist.min_distance]
    if (code.ctx.q - 1) * len(best) != a_d:
        raise AssertionError(
            f"{len(best)} lines of the most columns do not give A_d = {a_d}; "
            "line table inconsistent"
        )
    return list(zip(map(tuple, zeros.tolist()), map(tuple, lines.tolist())))


# -- dual side -----------------------------------------------------------------

def _collinear_triples(code: LinearCode) -> list[tuple[int, int, int]]:
    """All i < j < l whose columns lie on one line, in lexicographic order,
    for a code with pairwise-independent columns (dual distance above 2).

    These are exactly the column triples of rank 2, and each line holds
    C(t, 3) of them for its t columns.  No three arc points are collinear,
    so every such line is in the table.
    """
    table = _line_table(code)
    full = np.flatnonzero(table.sizes >= 3)
    triples: list[tuple[int, int, int]] = []
    for start, size in zip(table.starts[full].tolist(), table.sizes[full].tolist()):
        triples.extend(combinations(table.columns[start : start + size].tolist(), 3))
    return sorted(triples)


def dual_distance_exact(code: LinearCode) -> int | None:
    """Exact dual minimum distance if it is at most 3, else None.

    Weight w in the dual corresponds to w generator columns carrying a linear
    dependency with all w coefficients nonzero: a zero column (w=1), a
    proportional pair (w=2), or a collinear triple of pairwise independent
    columns (w=3).  Past 3 the distance is 4 when n >= 4, the Singleton
    bound of the [n, n - 3] dual; a code with n = 3 has the zero dual.
    All three read the line table: its zero columns, its points that carry
    two or more columns, and its lines with three or more.
    """
    table = _line_table(code)
    if table.zeros:
        return 1
    if (table.point_mult > 1).any():
        return 2
    if (table.sizes >= 3).any():
        return 3
    return None


@per_code
def min_weight_dual_codewords(
    code: LinearCode,
) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Canonical weight-3 dual codewords as (support, coefficients) pairs.

    Requires dual distance exactly 3.  Each support carries exactly
    one dependency up to scalar; the representative scales the first nonzero
    coefficient to 1, and each entry stands for the q-1 multiples of itself.

    For collinear columns u, v, w the identity
    [v,w,x] u + [w,u,x] v + [u,v,x] w = [u,v,w] x = 0 at x = e_i gives the
    dependency ((v x w)_i, (w x u)_i, (u x v)_i), a column of the adjugate;
    any i with (v x w)_i != 0 makes it nonzero.  Each dependency is checked
    to annihilate its three columns, O(1) per word.
    """
    ctx = code.ctx
    dd = dual_distance_exact(code)
    if dd != 3:
        raise ValueError(f"dual distance is {dd if dd else '> 3'}, expected exactly 3")
    triples = np.array(_collinear_triples(code), dtype=np.int64).reshape(-1, 3)
    u, v, w = (code.generator.data.T[triples[:, j]] for j in range(3))
    vw, wu, uv = _cross(ctx, v, w), _cross(ctx, w, u), _cross(ctx, u, v)
    i = (vw != 0).argmax(axis=1)  # v x w != 0: the columns are pairwise independent
    rows = np.arange(len(triples))
    coeffs = _normalize_rows(ctx, np.stack([vw[rows, i], wu[rows, i], uv[rows, i]], axis=1))
    if not coeffs.all():
        raise AssertionError(
            "partial-support dependency found; columns were not pairwise independent"
        )
    terms = ctx.mul_vec(coeffs[:, :, None], np.stack([u, v, w], axis=1))
    if np.bitwise_xor.reduce(terms, axis=1).any():
        raise AssertionError(
            "a weight-3 dual codeword misses its columns; collinear triples inconsistent"
        )
    return [(tuple(t), tuple(c)) for t, c in zip(triples.tolist(), coeffs.tolist())]


# -- MacWilliams ---------------------------------------------------------------

def _binomial_row(e: int, x: int) -> list[int]:
    """Coefficients of (1 + x z)^e: C(e, t) x^t for t = 0..e, built multiplicatively."""
    row = [1]
    for t in range(e):
        row.append(row[-1] * (e - t) * x // (t + 1))  # exact: C(e, t)(e-t) = C(e, t+1)(t+1)
    return row


def macwilliams(dist: WeightDistribution, k: int, q: int) -> WeightDistribution:
    """Dual weight distribution via the MacWilliams identity, exactly.

    A_j(dual) = q^-k * sum_i A_i K_j(i) with the Krawtchouk polynomial
    K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s).  The K_j(i) for
    all j at once are the coefficients of the generating function

        sum_j K_j(i) z^j = (1 - z)^i (1 + (q-1) z)^(n-i),

    so each nonzero A_i adds A_i times the product of two binomial rows to
    one list of n+1 integers, multiplying the shorter row into the longer.
    That costs O(n * min(i, n-i)) multiply-adds per weight, so O(n k) for an
    NMDS distribution (weights 0 and n-k..n).  Inputs that do not come from
    a genuine [n, k] code surface as non-integer or negative outputs, which
    raise.
    """
    n = dist.n
    items = dist.nonzero_items()
    qk = q**k
    if sum(c for _, c in items) != qk:
        raise ValueError("counts do not sum to q^k; not a valid [n, k] distribution")
    sums = [0] * (n + 1)
    for i, a_i in items:
        short, long = sorted((_binomial_row(i, -1), _binomial_row(n - i, q - 1)), key=len)
        for s, c in enumerate(short):
            c *= a_i
            end = s + len(long)
            sums[s:end] = [acc + c * v for acc, v in zip(sums[s:end], long)]
    out = []
    for j, acc in enumerate(sums):
        quot, rem = divmod(acc, qk)
        if rem or quot < 0:
            raise ValueError(f"inconsistent distribution: dual count at weight {j} is {acc}/{qk}")
        out.append(quot)
    return WeightDistribution(n, tuple(out))


# -- text wire format ------------------------------------------------------------

def matrix_to_text(mat: MatrixGF) -> str:
    """Serialize: first line 'rows cols m modulus_hex', then row-major hex values."""
    head = f"{mat.rows} {mat.cols} {mat.ctx.m} {hex(mat.ctx.modulus)}"
    body = "\n".join(" ".join(format(int(v), "x") for v in row) for row in mat.data)
    return head + "\n" + body + ("\n" if body else "")

