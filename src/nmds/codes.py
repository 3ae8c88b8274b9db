"""Dimension-3 linear codes over GF(2^m): columns, distributions, duals.

A code is held as its n generator columns, and every count comes from
one table of lines of the projective plane PG(2, q).  The kernel reads the
columns as n distinct nonzero points, as the columns of every code of the
registry are, and refuses a zero column or two columns at one point.  A
message is a line l up to scalars, and the codeword of l has weight n minus
the number of columns on l.  The line table lists the lines through
three or more columns, and the standard equations of a point set count the
rest (``weight_distribution``).  The conic y^2 = xz only picks the points
the table pivots on: no three conic points are collinear, so every listed
line passes through a residue point, a column off the conic.  That is
O(r n) column pairs for r residue points, and a code with no conic columns
crosses all O(n^2) pairs (README "Scale" has timings).  So the line table
gives the exact weight distribution, the minimum-weight codewords and the
weight-3 dual codewords (collinear column triples).  A minimum-weight
codeword is carried as its line and its zero set, the columns on that
line: pairing and locality read only where a word vanishes, so no word is
written out in full.  The table refuses q^3 beyond 2^34.  The
cross product u x v, the line through two points, gives the determinant
[u, v, w] = (u x v).w that tests three columns for independence.  All of it
is table lookups on plain ints, in the log arithmetic of ``nmds.field``.
No one or two distinct points are dependent, so the dual distance is 3
exactly when some three columns are collinear.  The MacWilliams transform
gives the full dual distribution in exact big-integer arithmetic from the
Krawtchouk generating function, with the factor (1 - z)^d that the terms of
all positive weights share taken out: two long binomial rows and
O(n (n - d)) multiply-adds, which for an NMDS distribution is O(n k).

Every derivation of a code (point list, line table, distribution,
minimum-weight words of the code and of its dual) runs once per code: the
``per_code`` decorator keeps each result on the code, keyed by the deriving
function, and hands the same object to every later caller.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import combinations, compress
from operator import itemgetter

from .field import GF2m

__all__ = [
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

Point = tuple[int, int, int]

# The other two coordinates, ascending, of each coordinate 0, 1, 2.
_OTHER_TWO = ((1, 2), (0, 2), (0, 1))


class LinearCode:
    """An [n, 3] linear code given by the n columns of a rank-3 generator.

    Every construction here has dimension 3 and every count reads the
    columns as points of PG(2, q), so columns of any other length are
    refused.  The columns are kept as 3-tuples of field elements 0..q-1.
    """

    k = 3

    def __init__(self, ctx: GF2m, columns) -> None:
        try:
            cols = tuple(map(tuple, columns))
        except TypeError:
            raise ValueError("columns must be two-dimensional") from None
        lengths = set(map(len, cols))
        if len(lengths) > 1:
            raise ValueError("columns must be two-dimensional")
        if not set().union(*cols) <= set(range(ctx.q)):
            raise ValueError("entry out of range for the field")
        if lengths - {3}:
            raise ValueError(f"k={lengths.pop()}: only dimension-3 codes are supported")
        if _first_basis(ctx, cols) is None:
            raise ValueError("generator matrix does not have full row rank")
        self.ctx = ctx
        self.n = len(cols)
        self.columns: tuple[Point, ...] = cols
        self._derived: dict = {}  # per_code results, keyed by the deriving function

    def codeword(self, message) -> list[int]:
        """Encode one message vector of length k over GF(q)."""
        msg = list(message)
        if len(msg) != self.k:
            raise ValueError(f"message length {len(msg)} != k={self.k}")
        for a in msg:
            if not 0 <= a < self.ctx.q:
                raise ValueError(f"message entry {a} outside [0, {self.ctx.q})")
        exp, log = self.ctx._exp, self.ctx._log
        la, lb, lc = (log[a] for a in msg)
        return [exp[la + log[x]] ^ exp[lb + log[y]] ^ exp[lc + log[z]] for x, y, z in self.columns]

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
        if min(self.counts) < 0:
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


def _normalize(ctx: GF2m, vec: Point) -> Point:
    """``vec`` scaled so that its first nonzero entry is 1; zero stays zero."""
    exp, log = ctx._exp, ctx._log
    lead = vec[0] or vec[1] or vec[2]
    if lead < 2:  # zero, or already scaled
        return vec
    shift = ctx.q - 1 - log[lead]  # a zero entry's sentinel log lands in the zeros of exp
    return (exp[log[vec[0]] + shift], exp[log[vec[1]] + shift], exp[log[vec[2]] + shift])


@per_code
def _canonical_columns(code: LinearCode) -> tuple[Point, ...]:
    """The generator columns as points of PG(2, q), each scaled so that its
    first nonzero entry is 1.

    The kernel counts the columns as a set of distinct nonzero points, which
    every code of the registry is, so a zero column or two columns at one
    point raise ``ValueError`` naming them.
    """
    ctx = code.ctx
    canon = tuple(
        col if (col[0] or col[1] or col[2]) == 1 else _normalize(ctx, col) for col in code.columns
    )
    distinct = set(canon)
    if len(distinct) < len(canon) or (0, 0, 0) in distinct:
        first: dict[Point, int] = {}  # walked only to name the first offender
        for j, point in enumerate(canon):
            if point == (0, 0, 0):
                raise ValueError(f"column {j} is zero; the kernel counts distinct nonzero points")
            i = first.setdefault(point, j)
            if i != j:
                raise ValueError(
                    f"columns {i} and {j} are one point of PG(2, q); "
                    "the kernel counts distinct nonzero points"
                )
    return canon


# -- the PG(2, q) kernel: lines, determinants and the line table ---------------

def _cross(ctx: GF2m, u: Point, v: Point) -> Point:
    """The cross product u x v in log arithmetic (signs vanish in
    characteristic 2).  For two distinct points it is the line through them."""
    exp, log = ctx._exp, ctx._log
    u0, u1, u2 = log[u[0]], log[u[1]], log[u[2]]
    v0, v1, v2 = log[v[0]], log[v[1]], log[v[2]]
    return (exp[u1 + v2] ^ exp[u2 + v1], exp[u2 + v0] ^ exp[u0 + v2], exp[u0 + v1] ^ exp[u1 + v0])


def _det(ctx: GF2m, u: Point, v: Point, w: Point) -> int:
    """The determinant [u, v, w] = (u x v).w, zero exactly when the three
    columns are dependent."""
    exp, log = ctx._exp, ctx._log
    c0, c1, c2 = _cross(ctx, u, v)
    return exp[log[c0] + log[w[0]]] ^ exp[log[c1] + log[w[1]]] ^ exp[log[c2] + log[w[2]]]


def _first_basis(ctx: GF2m, cols) -> tuple[int, int, int] | None:
    """The lexicographically first i < j < l whose columns are independent,
    or None if they span less than the plane.

    Greedy choice finds it: i is the first nonzero column u, j the first
    column v off the point u (u x v != 0), and l the first column off the
    line u x v.  The columns before j span at most the point u and those
    before l at most the line, so any independent a < b < c has a >= i,
    b >= j and c >= l.
    """
    i = next((i for i, u in enumerate(cols) if any(u)), None)
    if i is None:
        return None
    u = cols[i]
    j = next((j for j, v in enumerate(cols) if any(_cross(ctx, u, v))), None)
    if j is None:
        return None
    v = cols[j]
    l = next((l for l, w in enumerate(cols) if _det(ctx, u, v, w)), None)
    if l is None:
        return None
    return i, j, l


@per_code
def _line_table(code: LinearCode) -> tuple[tuple[Point, tuple[int, ...]], ...]:
    """The lines of PG(2, q) through three or more columns, as (line,
    ascending columns).

    The arc, the columns on the conic y^2 = xz, is read off the point list
    in O(n) and only picks the points the table pivots on: the columns off
    it are the residue points, and each residue point P, with leading
    coordinate la (P_la = 1), sorts every other column Q into the lines
    through P by slope.  R = Q + Q_la P is where the line PQ meets the line
    x_la = 0, and R_i2 / R_i1 over the other two coordinates i1 < i2 (or
    infinity when R_i1 = 0) tells those points apart.  A line is kept once,
    under the first residue point on it, and gets its vector from P and its
    slope with one product.  A line through P with three arc points would
    refute the arc and raises ``AssertionError``.
    """
    ctx, q = code.ctx, code.ctx.q
    _check_enumeration_guard(q)
    exp, log = ctx._exp, ctx._log
    points = _canonical_columns(code)
    on_arc = [exp[2 * log[y]] == exp[log[x] + log[z]] for x, y, z in points]
    arc = list(compress(range(len(points)), on_arc))
    residue = [t for t, on in enumerate(on_arc) if not on]
    coords = list(zip(*points))
    # A residue point leads with x or y: (0, 0, 1) is on the conic.
    logs = {la: [log[v] for v in coords[la]] for la in {points[t].index(1) for t in residue}}
    lines = []
    for i, t in enumerate(residue):
        p = points[t]
        la = p.index(1)
        i1, i2 = _OTHER_TWO[la]
        p1, p2 = p[i1], p[i2]
        l1, l2 = log[p1], log[p2]
        slopes = [
            exp[log[y ^ exp[lq + l2]] + q - 1 - log[r1]] if (r1 := x ^ exp[lq + l1]) else q
            for lq, x, y in zip(logs[la], coords[i1], coords[i2])
        ]
        if max(Counter(map(slopes.__getitem__, arc)).values(), default=0) >= 3:
            raise AssertionError(
                "a table line holds three arc points; the conic columns are not an arc"
            )
        slopes[t] = -1  # P itself, alone in its group: its own slope would be q
        through: dict[int, list[int]] = {}  # the columns on each line through P but P
        for j, slope in enumerate(slopes):
            if slope in through:
                through[slope].append(j)
            else:
                through[slope] = [j]
        for u in residue[:i]:  # a line through an earlier residue point is listed there
            through.pop(slopes[u], None)
        for slope, cols in through.items():
            if len(cols) == 1:  # P's own group, or a line through P and one column
                continue
            # On (x_la, x_i1, x_i2), the line through P and (0, 1, slope) is
            # (P_i1 slope + P_i2, slope, 1), and through (0, 0, 1) at slope
            # infinity it is (P_i1, 1, 0).
            v = (p1, 1, 0) if slope == q else (exp[l1 + log[slope]] ^ p2, slope, 1)
            line = _normalize(ctx, v if la == 0 else (v[1], v[0], v[2]))
            cols.append(t)
            cols.sort()
            lines.append((line, tuple(cols)))
    return tuple(lines)


# -- distribution and minimum-weight codewords ---------------------------------

@per_code
def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact distribution: each of the q^2 + q + 1 lines gives q - 1
    codewords of weight n - z, where z counts the columns on the line.

    The table gives the numbers t_z of lines with z >= 3.  The standard
    equations of n distinct points, sum t_z = q^2 + q + 1 (all lines),
    sum z t_z = n (q + 1) (q + 1 lines through each point) and
    sum C(z, 2) t_z = C(n, 2) (one line through each pair), give t_2, t_1
    and t_0; a negative one raises ``AssertionError``.
    """
    q, n = code.ctx.q, code.n
    table = _line_table(code)
    sizes = Counter(len(cols) for _, cols in table)  # t_z for z >= 3
    t2 = n * (n - 1) // 2 - sum(t * z * (z - 1) // 2 for z, t in sizes.items())
    t1 = n * (q + 1) - sum(t * z for z, t in sizes.items()) - 2 * t2
    t0 = q * q + q + 1 - len(table) - t2 - t1
    if min(t0, t1, t2) < 0:
        raise AssertionError(
            f"negative line counts t_0, t_1, t_2 = {t0}, {t1}, {t2}; line table inconsistent"
        )
    lines_by_z = [t0, t1, t2] + [0] * (n - 3)  # z < n: the columns span the plane
    for z, t in sizes.items():
        lines_by_z[z] = t
    return WeightDistribution(n, tuple([1] + [(q - 1) * c for c in reversed(lines_by_z)]))


@per_code
def min_weight_codewords(code: LinearCode) -> list[tuple[tuple[int, ...], Point]]:
    """Minimum-weight codewords as (zeros, line) pairs, one per scalar class.

    ``line`` is the message, scaled so that its first nonzero entry is 1,
    and ``zeros`` the ascending coordinates where its codeword vanishes: the
    columns on that line of PG(2, q).  Every minimum-weight codeword is a
    nonzero multiple of exactly one entry's codeword.  Entries come in the
    order of their projective messages.

    These are the lines of the table with the most columns: a line outside
    it holds at most two.  A code with no line through three columns is MDS
    and raises ``ValueError``; every caller refuses a code that is not NMDS
    first.  Two checks hold the table to account: each line must vanish on
    its columns, and q - 1 times the number of lines must be A_d of the
    distribution, which counts every line.
    """
    ctx, columns = code.ctx, code.columns
    exp, log = ctx._exp, ctx._log
    table = _line_table(code)
    if not table:
        raise ValueError("no line holds three columns: the code is MDS")
    size = max(len(cols) for _, cols in table)
    best = [(line, cols) for line, cols in table if len(cols) == size]
    # Projective-message order: (1, y, z) as the number y q + z, then
    # (0, 1, z) from q^2 + z, then (0, 0, 1) last.
    q = ctx.q
    best.sort(
        key=lambda e: e[0][1] * q + e[0][2] if e[0][0] else q * q + (e[0][2] if e[0][1] else q)
    )
    words = []
    for line, cols in best:
        # O(1) per word instead of encoding it: the line vanishes on its columns.
        l0, l1, l2 = log[line[0]], log[line[1]], log[line[2]]
        for j in cols:
            x, y, w = columns[j]
            if exp[l0 + log[x]] ^ exp[l1 + log[y]] ^ exp[l2 + log[w]]:
                raise AssertionError(
                    "a table line misses one of its columns; line table inconsistent"
                )
        words.append((cols, line))
    dist = weight_distribution(code)
    a_d = dist.counts[dist.min_distance]
    if (ctx.q - 1) * len(words) != a_d:
        raise AssertionError(
            f"{len(words)} lines of the most columns do not give A_d = {a_d}; "
            "line table inconsistent"
        )
    return words


# -- dual side -----------------------------------------------------------------

def dual_distance_exact(code: LinearCode) -> int | None:
    """Exact dual minimum distance if it is at most 3, else None.

    Weight w in the dual corresponds to w generator columns carrying a linear
    dependency with all w coefficients nonzero.  The columns are distinct
    nonzero points, so no one or two of them are dependent, and three are
    exactly when they are collinear: the distance is 3 when the line table
    lists a line.  Past 3 the distance is 4 when n >= 4, the Singleton
    bound of the [n, n - 3] dual; a code with n = 3 has the zero dual.
    """
    return 3 if _line_table(code) else None


@per_code
def min_weight_dual_codewords(
    code: LinearCode,
) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Canonical weight-3 dual codewords as (support, coefficients) pairs.

    Requires dual distance exactly 3.  Each support carries exactly
    one dependency up to scalar; the representative scales the first nonzero
    coefficient to 1, and each entry stands for the q-1 multiples of itself.
    Entries come in the order of their supports.

    For collinear columns u, v, w the identity
    [v,w,x] u + [w,u,x] v + [u,v,x] w = [u,v,w] x = 0 at x = e_i gives the
    dependency ((v x w)_i, (w x u)_i, (u x v)_i), a column of the adjugate:
    the 2 x 2 minors on the two coordinates other than i.  v x w is a
    multiple of the line through the three, so the leading coordinate i of
    that line makes it nonzero.  Each dependency is checked to annihilate
    its three columns, O(1) per word.
    """
    if dual_distance_exact(code) != 3:
        raise ValueError("dual distance is > 3, expected exactly 3")
    ctx, columns = code.ctx, code.columns
    exp, log = ctx._exp, ctx._log
    q1 = ctx.q - 1
    words = []
    for line, on_line in _line_table(code):
        a, b = _OTHER_TWO[line.index(1)]
        for triple in combinations(on_line, 3) if len(on_line) > 3 else (on_line,):
            u, v, w = columns[triple[0]], columns[triple[1]], columns[triple[2]]
            ua, ub = log[u[a]], log[u[b]]
            va, vb = log[v[a]], log[v[b]]
            wa, wb = log[w[a]], log[w[b]]
            c0 = exp[va + wb] ^ exp[vb + wa]
            c1 = exp[wa + ub] ^ exp[wb + ua]
            c2 = exp[ua + vb] ^ exp[ub + va]
            if not (c0 and c1 and c2):
                raise AssertionError(
                    "partial-support dependency found; columns were not pairwise independent"
                )
            # Logs of the coefficients scaled by 1 / c0, reduced so that a
            # product with a column entry still indexes exp.
            g1, g2 = (log[c1] - log[c0]) % q1, (log[c2] - log[c0]) % q1
            if (
                u[0] ^ exp[g1 + log[v[0]]] ^ exp[g2 + log[w[0]]]
                or u[1] ^ exp[g1 + log[v[1]]] ^ exp[g2 + log[w[1]]]
                or u[2] ^ exp[g1 + log[v[2]]] ^ exp[g2 + log[w[2]]]
            ):
                raise AssertionError(
                    "a weight-3 dual codeword misses its columns; collinear triples inconsistent"
                )
            words.append((triple, (1, exp[g1], exp[g2])))
    words.sort(key=itemgetter(0))  # the supports are distinct
    return words


# -- MacWilliams ---------------------------------------------------------------

def _binomial_row(e: int, x: int) -> list[int]:
    """Coefficients of (1 + x z)^e: C(e, t) x^t for t = 0..e, built multiplicatively."""
    row = [1]
    for t in range(e):
        row.append(row[-1] * (e - t) * x // (t + 1))  # exact: C(e, t)(e-t) = C(e, t+1)(t+1)
    return row


def _add_product(acc: list[int], a: list[int], b: list[int]) -> None:
    """Add the polynomial a * b into acc, one pass over b per coefficient of a."""
    for s, c in enumerate(a):
        end = s + len(b)
        acc[s:end] = [x + c * v for x, v in zip(acc[s:end], b)]


def macwilliams(dist: WeightDistribution, k: int, q: int) -> WeightDistribution:
    """Dual weight distribution via the MacWilliams identity, exactly.

    q^k sum_j A_j(dual) z^j = sum_i A_i (1 - z)^i (1 + (q-1) z)^(n-i), the
    Krawtchouk generating function.  A_0 = 1 gives (1 + (q-1) z)^n, and the
    terms from the least positive weight d with A_d != 0 on share (1 - z)^d;
    their cofactor P(z), of degree n - d, comes from short rows.  So two
    rows are long, and n - d + 1 passes add (1 - z)^d P(z): O(n (n - d))
    multiply-adds.  Inputs not from a genuine [n, k] code surface as
    non-integer or negative outputs, which raise.
    """
    n, items = dist.n, dist.nonzero_items()
    qk = q**k
    if sum(c for _, c in items) != qk:
        raise ValueError("counts do not sum to q^k; not a valid [n, k] distribution")
    d = items[1][0] if len(items) > 1 else n  # A_0 alone leaves P = 0
    p = [0] * (n - d + 1)
    for i, a_i in items[1:]:
        _add_product(p, [a_i * c for c in _binomial_row(i - d, -1)], _binomial_row(n - i, q - 1))
    sums = _binomial_row(n, q - 1)
    _add_product(sums, p, _binomial_row(d, -1))
    out = []
    for j, acc in enumerate(sums):
        quot, rem = divmod(acc, qk)
        if rem or quot < 0:
            raise ValueError(f"inconsistent distribution: dual count at weight {j} is {acc}/{qk}")
        out.append(quot)
    return WeightDistribution(n, tuple(out))


# -- text wire format ------------------------------------------------------------

def matrix_to_text(code: LinearCode) -> str:
    """Serialize the generator: first line 'k n m modulus_hex', then row-major hex values."""
    lines = [f"{code.k} {code.n} {code.ctx.m} {hex(code.ctx.modulus)}"]
    lines += [" ".join(format(v, "x") for v in row) for row in zip(*code.columns)]
    return "\n".join(lines) + "\n"
