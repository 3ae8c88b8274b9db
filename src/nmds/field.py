"""GF(2^m) arithmetic.

Field elements are plain Python ints in [0, q) whose binary digits are the
coefficients of a polynomial over GF(2); the interpretation is fixed by a
:class:`GF2m` context carrying the modulus.  Addition is XOR.  Multiplication
and inversion go through exp/log tables built on a primitive element, so both
are table lookups after construction; each field's tables are built once per
process and shared read-only by all its contexts.

The tables are tuples with a zero sentinel: ``log[0] = 2(q-1)``, and ``exp``
holds two periods of the powers followed by 2q zeros.  Any sum of two logs,
or a log plus q - 1 minus a nonzero log, then indexes ``exp``, and the sum
lands in the zeros exactly when an operand is zero.  So a product is one
lookup with no branch, ``exp[log[a] + log[b]]``, for every pair, zero
included.
"""

from __future__ import annotations

from functools import cache

__all__ = ["DEFAULT_MODULI", "GF2m", "poly_to_str"]

# Default irreducible modulus per extension degree, as coefficient-bit ints.
# Low-weight classics; x (value 2) is primitive for every one of them, and the
# constructor re-verifies both irreducibility and generator order anyway.
DEFAULT_MODULI: dict[int, int] = {
    2: 0b111,                # x^2+x+1
    3: 0b1011,               # x^3+x+1
    4: 0b10011,              # x^4+x+1
    5: 0b100101,             # x^5+x^2+1
    6: 0b1000011,            # x^6+x+1
    7: 0b10000011,           # x^7+x+1
    8: 0b100011101,          # x^8+x^4+x^3+x^2+1
    9: 0b1000010001,         # x^9+x^4+1
    10: 0b10000001001,       # x^10+x^3+1
    11: 0b100000000101,      # x^11+x^2+1
    12: 0b1000001010011,     # x^12+x^6+x^4+x+1
    13: 0b10000000011011,    # x^13+x^4+x^3+x+1
    14: 0b100010001000011,   # x^14+x^10+x^6+x+1
    15: 0b1000000000000011,  # x^15+x+1
    16: 0b10001000000001011, # x^16+x^12+x^3+x+1
}

MAX_M = 16


def poly_to_str(p: int) -> str:
    """Render a GF(2) polynomial int like 0b1011 as 'x^3+x+1'."""
    if p == 0:
        return "0"
    terms = []
    for e in range(p.bit_length() - 1, -1, -1):
        if (p >> e) & 1:
            terms.append("1" if e == 0 else ("x" if e == 1 else f"x^{e}"))
    return "+".join(terms)


def _poly_mod(a: int, b: int) -> int:
    """Remainder of GF(2)[x] division of a by b (b != 0)."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def find_factor(p: int) -> int | None:
    """Smallest nontrivial GF(2)[x] factor of p, or None if p is irreducible.

    Trial division by every polynomial of degree 1 .. deg(p)//2.  Exponential
    in the degree, but deg <= 16 keeps the candidate pool tiny.
    """
    deg = p.bit_length() - 1
    for cand in range(2, 1 << (deg // 2 + 1)):
        if _poly_mod(p, cand) == 0:
            return cand
    return None


def _mul_raw(a: int, b: int, modulus: int) -> int:
    """Carry-less multiply mod the modulus, no tables (used to build them)."""
    p = 0
    top = 1 << (modulus.bit_length() - 1)
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return p


@cache
def _tables(m: int, modulus: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The exp/log tables on the powers of a primitive element (``exp[1]``),
    for an irreducible modulus of degree m, with the zero sentinel.

    Built once per field and shared read-only by every ``GF2m(m, modulus)``,
    so a pipeline that makes a context per code runs the pure-Python
    generator search and table loop once.
    """
    q = 1 << m
    exp = [0] * (2 * (q - 1) + 2 * q)
    log = [2 * (q - 1)] * q  # a primitive walk overwrites every entry but log[0]
    for g in range(2, q):
        v = 1
        for i in range(q):
            exp[i] = exp[i + q - 1] = v
            log[v] = i
            v = _mul_raw(v, g, modulus)
            if v == 1:
                break
        # The walk stops where the powers of g first return to 1, in a field
        # by step q - 1 (every order divides q - 1), and g is primitive when
        # that is step q - 1.  With a modulus of another degree than m a walk
        # ends within q steps, so the search fails here, not loops.
        if i == q - 2:
            return tuple(exp), tuple(log)
    raise AssertionError("no primitive element found; modulus cannot be irreducible")


class GF2m:
    """The finite field GF(2^m) with a verified irreducible modulus.

    Parameters
    ----------
    m : int
        Extension degree, 2 <= m <= 16.
    modulus : int, optional
        Irreducible polynomial of degree m with constant term 1, encoded as
        an (m+1)-bit int (e.g. 0xB for x^3+x+1).  Defaults per m are in
        ``DEFAULT_MODULI``.

    Raises
    ------
    ValueError
        If m is out of range, or the modulus is negative, zero, of degree not m,
        with even constant term, or reducible (naming the root or factor).

    The instance is immutable after construction and safe to share across
    threads; every operation is a pure function of its arguments.
    """

    def __init__(self, m: int, modulus: int | None = None) -> None:
        if not 2 <= m <= MAX_M:
            raise ValueError(f"extension degree m={m} out of supported range [2, {MAX_M}]")
        if modulus is None:
            modulus = DEFAULT_MODULI[m]
        if modulus < 0:
            raise ValueError(f"modulus {modulus:#x} is negative; give its coefficient bits")
        if modulus == 0:
            raise ValueError(f"modulus 0 is the zero polynomial, expected degree {m}")
        if modulus.bit_length() - 1 != m:
            raise ValueError(
                f"modulus {poly_to_str(modulus)} has degree {modulus.bit_length() - 1}, expected {m}"
            )
        if modulus & 1 == 0:
            raise ValueError(f"reducible modulus {poly_to_str(modulus)}: root x=0")
        factor = find_factor(modulus)
        if factor is not None:
            if factor == 0b11:  # x+1 divides p  <=>  p(1) = 0
                raise ValueError(f"reducible modulus {poly_to_str(modulus)}: root x=1")
            raise ValueError(
                f"reducible modulus {poly_to_str(modulus)}: factor {poly_to_str(factor)}"
            )

        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        self._exp, self._log = _tables(m, modulus)

    # -- scalar arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises for zero."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse in GF(2^m)")
        return self._exp[(self.q - 1) - self._log[a]]

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus={poly_to_str(self.modulus)})"

