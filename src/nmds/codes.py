"""Dimension-3 linear codes over GF(2^m): columns, distributions, duals.

A code is held as its n generator columns, and every count comes from
one table of lines of the projective plane PG(2, q).  The kernel reads the
columns as n distinct nonzero points, as the columns of every code of the
registry are, and refuses a zero column or two columns at one point.  A
message is a line l up to scalars, and the codeword of l has weight n minus
the number of columns on l.  The line table lists the lines through
three or more columns, and the standard equations of a point set count the
rest (``weight_distribution``).  A code's leading columns are the arc it
states: the q - 1 points of the conic y^2 = xz (``conic_arc``, one ``Arc``
per field), or none.  No three conic points are collinear, so every listed
line passes through a residue point, a later column off the conic.  A line
is named by one int, its place among the projective messages
(``_message_key``): the line through two points is their cross product,
scaled.  The lines through a residue point over the arc, its pencil, are a
fact of the arc: each pencil is derived and checked once per (arc, point),
one record per line with its arc points, and shared by every code that
states the arc, and a code merges only its later columns by the keys of
their lines.  That is O(q) per pencil and O(r t) per code for r residue
points among t later columns; a code that states no arc crosses each
residue point with every column (README "Scale" has timings).  Every
column triple of a listed line, in a pencil or in a code, passes one check
(``_collinear``): the line vanishes on its three columns, and their
dependency, from the 2 x 2 minors off the line's leading coordinate, has
full support and annihilates them.  So the line table
gives the exact weight distribution, the minimum-weight codewords and the
weight-3 dual codewords (collinear column triples).  A minimum-weight
codeword is carried as its line and its zero set, the columns on that
line: pairing and locality read only where a word vanishes, so no word is
written out in full.  The cross product u x v also gives the determinant
[u, v, w] = (u x v).w that tests three columns for independence.  All of it
is table lookups on plain ints, in the log arithmetic of ``nmds.field``.
No one or two distinct points are dependent, so the dual distance is 3
exactly when some three columns are collinear.  ``macwilliams`` gives the
full dual distribution exactly; ``verify`` reads only the first four counts
(``nmds.classify.dual_moments``).

Every derivation of a code (point list, line table, distribution,
minimum-weight words of the code and of its dual) runs once per code: the
``per_code`` decorator keeps each result on the code, keyed by the deriving
function, and hands the same object to every later caller.  A pencil is
kept on its arc the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import combinations
from operator import itemgetter

from .field import GF2m

__all__ = [
    "Arc",
    "conic_arc",
    "LinearCode",
    "WeightDistribution",
    "weight_distribution",
    "dual_distance_exact",
    "min_weight_dual_codewords",
    "min_weight_codewords",
    "macwilliams",
    "matrix_to_text",
]

Point = tuple[int, int, int]
_NOT_AN_ARC = "a table line holds three arc points; the conic columns are not an arc"


class LinearCode:
    """An [n, 3] linear code given by the n columns of a rank-3 generator.

    Every construction here has dimension 3 and every count reads the
    columns as points of PG(2, q), so columns of any other length are
    refused.  The columns are kept as 3-tuples of field elements 0..q-1.
    ``arc`` states that the leading columns are the points of an ``Arc``,
    and a code whose leading columns are not refuses it by name.  A code
    that states none has the empty arc, and its line table crosses each
    residue point with every other column.
    """

    k = 3

    def __init__(self, ctx: GF2m, columns, arc: Arc | None = None) -> None:
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
        if arc is None:
            arc = Arc(ctx, ())
        if (arc.ctx.m, arc.ctx.modulus) != (ctx.m, ctx.modulus):
            raise ValueError(f"the stated arc is over {arc.ctx!r}, the columns over {ctx!r}")
        if cols[: len(arc.columns)] != arc.columns:
            j = next((j for j, (c, a) in enumerate(zip(cols, arc.columns)) if c != a), len(cols))
            raise ValueError(f"column {j} is not point {j} of the stated arc")
        self.ctx = ctx
        self.arc = arc
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


class Arc:
    """Points of the conic y^2 = xz that codes state as their leading columns.

    Each point is checked on the conic once, here.  The pencil of lines
    through a residue point over the arc is a fact of the arc, not of a
    code: ``_line_table`` derives it once per (arc, point) and keeps it in
    ``_pencils``.  Two threads may both derive one, but ``setdefault`` keeps
    the first, so every code that states the arc reads the same pencil.
    """

    def __init__(self, ctx: GF2m, columns) -> None:
        cols = tuple(map(tuple, columns))
        off = _off_conic(ctx, cols)
        if off:
            raise ValueError(f"arc point {off[0]} is off the conic y^2 = xz")
        self.ctx = ctx
        self.columns: tuple[Point, ...] = cols
        self._pencils: dict = {}  # residue column -> its pencil, as ``_pencil`` returns it


_CONIC_ARCS: dict[tuple[int, int], Arc] = {}


def conic_arc(ctx: GF2m) -> Arc:
    """The q - 1 points (1, a, a^2) of the conic, a != 0 ascending, as one
    ``Arc`` per field (m, modulus), built and checked on first use and then
    shared by every code over that field that states it."""
    key = (ctx.m, ctx.modulus)
    if key not in _CONIC_ARCS:
        exp, log = ctx._exp, ctx._log
        points = [(1, a, exp[2 * log[a]]) for a in ctx.nonzero_elements()]
        _CONIC_ARCS.setdefault(key, Arc(ctx, points))
    return _CONIC_ARCS[key]


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


# -- canonical forms -------------------------------------------------------------

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


def _off_conic(ctx: GF2m, points) -> list[int]:
    """The positions of the points off the conic y^2 = xz."""
    exp, log = ctx._exp, ctx._log
    return [i for i, (x, y, z) in enumerate(points) if exp[2 * log[y]] != exp[log[x] + log[z]]]


def _message_key(q: int, line: Point) -> int:
    """A line's place among the projective messages: (1, y, z) as the
    number y q + z, then (0, 1, z) from q^2 + z, then (0, 0, 1) last."""
    return line[1] * q + line[2] if line[0] else q * q + (line[2] if line[1] else q)


def _collinear(ctx: GF2m, line: Point, u: Point, v: Point, w: Point) -> tuple[int, int, int]:
    """The dependency (1, h_v, h_w), u + h_v v + h_w w = 0, of three columns
    on ``line``.

    ``line`` is checked to vanish on the three columns.  Its leading
    coordinate is nonzero, so a column on it is fixed by its other two
    coordinates, and the dependency is the 2 x 2 minors of those.  A zero
    minor means two of the columns are one point and raises; the scaled
    coefficients are checked to annihilate the three columns.
    """
    exp, log = ctx._exp, ctx._log
    l0, l1, l2 = log[line[0]], log[line[1]], log[line[2]]
    u0, u1, u2 = log[u[0]], log[u[1]], log[u[2]]
    v0, v1, v2 = log[v[0]], log[v[1]], log[v[2]]
    w0, w1, w2 = log[w[0]], log[w[1]], log[w[2]]
    if (
        exp[l0 + u0] ^ exp[l1 + u1] ^ exp[l2 + u2]
        or exp[l0 + v0] ^ exp[l1 + v1] ^ exp[l2 + v2]
        or exp[l0 + w0] ^ exp[l1 + w1] ^ exp[l2 + w2]
    ):
        raise AssertionError("a table line misses one of its columns; line table inconsistent")
    i, j = (1, 2) if line[0] else (0, 2) if line[1] else (0, 1)
    ui, uj, vi, vj, wi, wj = log[u[i]], log[u[j]], log[v[i]], log[v[j]], log[w[i]], log[w[j]]
    c0 = exp[vi + wj] ^ exp[wi + vj]
    c1 = exp[wi + uj] ^ exp[ui + wj]
    c2 = exp[ui + vj] ^ exp[vi + uj]
    if not (c0 and c1 and c2):
        raise AssertionError(
            "partial-support dependency found; columns were not pairwise independent"
        )
    # Logs of the coefficients scaled by 1 / c0, reduced so that a product
    # with a column entry still indexes exp.
    q1 = ctx.q - 1
    g1, g2 = (log[c1] - log[c0]) % q1, (log[c2] - log[c0]) % q1
    if (
        u[0] ^ exp[g1 + v0] ^ exp[g2 + w0]
        or u[1] ^ exp[g1 + v1] ^ exp[g2 + w1]
        or u[2] ^ exp[g1 + v2] ^ exp[g2 + w2]
    ):
        raise AssertionError(
            "a weight-3 dual codeword misses its columns; collinear triples inconsistent"
        )
    return (1, exp[g1], exp[g2])


def _pencil(arc: Arc, column: Point) -> dict[int, tuple[Point, tuple[int, ...], Point | None]]:
    """The lines through a residue column P over the arc, by message key, as
    (line, its arc points, dependency).

    A tangent holds one arc point and no dependency.  A secant holds two, a
    and b, and the dependency of the columns (arc point a, arc point b, P),
    checked by ``_collinear``.  A line with three arc points refutes the arc
    and raises ``AssertionError``, as do two arc points at one point.
    """
    ctx = arc.ctx
    points = arc.columns
    pencil: dict = {}
    for b, point in enumerate(points):
        line = _normalize(ctx, _cross(ctx, column, point))
        key = _message_key(ctx.q, line)
        entry = pencil.get(key)
        if entry is None:
            pencil[key] = (line, (b,), None)
        elif entry[2] is None:
            a = entry[1][0]
            pencil[key] = (line, (a, b), _collinear(ctx, line, points[a], point, column))
        else:
            raise AssertionError(_NOT_AN_ARC)
    return pencil


@per_code
def _line_table(code: LinearCode) -> tuple[tuple[Point, tuple[int, ...], int, tuple], ...]:
    """The lines of PG(2, q) through three or more columns, as (line,
    ascending columns, projective-message key, weight-3 dual words of its
    column triples).

    The code's stated arc comes first, if it states one, and no three conic
    points are collinear, so every listed line passes through a residue
    point: a later column off the conic.  The lines through a residue point
    P over the arc are P's pencil, derived by ``_pencil`` once per (arc, P)
    and kept on the arc, so every code that states the arc shares it.  Per
    code, the later columns are merged by the key of their line through
    each P, and a merged line starts with the arc points that P's pencil
    puts on it, so a line through two residue points is merged once.  A
    secant that no later column is on is the pencil's line through (arc a,
    arc b, P), with the pencil's dependency.  A merged line with three
    columns on the conic, arc points or later columns, would refute the arc
    and raises ``AssertionError``, and only once no line does are the merged
    lines' column triples checked by ``_collinear``.
    """
    ctx = code.ctx
    points, columns, arc = _canonical_columns(code), code.columns, code.arc
    lead = len(arc.columns)
    residue = {lead + i for i in _off_conic(ctx, points[lead:])}
    pencils = arc._pencils
    lines = []
    merged: dict[int, tuple[Point, set[int]]] = {}  # key -> (line, columns on it)
    for t in residue:
        column = columns[t]
        pencil = pencils.get(column) or pencils.setdefault(column, _pencil(arc, column))
        p = points[t]
        for u in range(lead, code.n):
            if u != t:
                line = _normalize(ctx, _cross(ctx, p, points[u]))
                key = _message_key(ctx.q, line)
                if key not in merged:
                    merged[key] = (line, {t, *pencil[key][1]} if key in pencil else {t})
                merged[key][1].add(u)
        lines += [
            (line, cols, key, ((cols, dep),))
            for key, (line, on, dep) in pencil.items()
            if dep and key not in merged
            for cols in ((on[0], on[1], t),)
        ]
    if any(len(cols.difference(residue)) > 2 for _, cols in merged.values()):
        raise AssertionError(_NOT_AN_ARC)
    for key, (line, cols) in merged.items():
        if len(cols) > 2:
            cols = tuple(sorted(cols))
            duals = tuple(
                ((a, b, c), _collinear(ctx, line, columns[a], columns[b], columns[c]))
                for a, b, c in combinations(cols, 3)
            )
            lines.append((line, cols, key, duals))
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
    sizes = Counter(len(cols) for _, cols, _, _ in table)  # t_z for z >= 3
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
    first.  The table checked each line to vanish on its columns, and q - 1
    times the number of lines must be A_d of the distribution, which counts
    every line.
    """
    table = _line_table(code)
    if not table:
        raise ValueError("no line holds three columns: the code is MDS")
    size = max(len(cols) for _, cols, _, _ in table)
    best = sorted((entry for entry in table if len(entry[1]) == size), key=itemgetter(2))
    words = [(cols, line) for line, cols, _, _ in best]
    dist = weight_distribution(code)
    a_d = dist.counts[dist.min_distance]
    if (code.ctx.q - 1) * len(words) != a_d:
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
    Entries come in the order of their supports.  The supports are the
    column triples of the table's lines, and each line carries their
    dependencies, checked there to annihilate their columns (``_collinear``).
    """
    if dual_distance_exact(code) != 3:
        raise ValueError("dual distance is > 3, expected exactly 3")
    words = [word for _, _, _, duals in _line_table(code) for word in duals]
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
