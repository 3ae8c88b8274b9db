"""GF(2^m) arithmetic.

Field elements are plain Python ints in [0, q) whose binary digits are the
coefficients of a polynomial over GF(2); the interpretation is fixed by a
:class:`GF2m` context carrying the modulus.  Addition is XOR.  Multiplication
and inversion go through exp/log tables built on a primitive element, so both
are table lookups after construction; each field's tables are built once per
process and shared read-only by all its contexts.
"""

from __future__ import annotations

from functools import cache

import numpy as np

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


def _poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2)[x] division of a by b (b != 0)."""
    db = b.bit_length() - 1
    quo = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        quo ^= 1 << shift
        a ^= b << shift
    return quo, a


def find_factor(p: int) -> int | None:
    """Smallest nontrivial GF(2)[x] factor of p, or None if p is irreducible.

    Trial division by every polynomial of degree 1 .. deg(p)//2.  Exponential
    in the degree, but deg <= 16 keeps the candidate pool tiny.
    """
    deg = p.bit_length() - 1
    for cand in range(2, 1 << (deg // 2 + 1)):
        if _poly_divmod(p, cand)[1] == 0:
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
def _tables(m: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The exp/log tables on the powers of a primitive element (``exp[1]``),
    for an irreducible modulus of degree m.

    Built once per field and shared read-only by every ``GF2m(m, modulus)``,
    so a pipeline that makes a context per code runs the pure-Python
    generator search and table loop once.
    """
    q = 1 << m

    def order(a: int) -> int:
        v, n = a, 1
        while v != 1:
            v = _mul_raw(v, a, modulus)
            n += 1
        return n

    g = next((g for g in range(2, q) if order(g) == q - 1), None)
    if g is None:
        raise AssertionError("no primitive element found; modulus cannot be irreducible")
    exp = np.zeros(2 * (q - 1), dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    log[0] = -1  # sentinel, never consulted for the zero element
    v = 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = v
        log[v] = i
        v = _mul_raw(v, g, modulus)
    if v != 1:
        raise AssertionError("generator order mismatch while building tables")
    exp.flags.writeable = log.flags.writeable = False
    return exp, log


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
        If m is out of range, or the modulus has wrong degree, even constant
        term, or is reducible (the message names the found root or factor).

    The instance is immutable after construction and safe to share across
    threads; every operation is a pure function of its arguments.
    """

    def __init__(self, m: int, modulus: int | None = None) -> None:
        if not 2 <= m <= MAX_M:
            raise ValueError(f"extension degree m={m} out of supported range [2, {MAX_M}]")
        if modulus is None:
            modulus = DEFAULT_MODULI[m]
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
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises for zero."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse in GF(2^m)")
        return int(self._exp[(self.q - 1) - self._log[a]])

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- vectorized arithmetic (numpy int arrays of element values) -----------

    def mul_vec(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise (broadcast) field product of two value arrays."""
        # exp holds two periods, so a sum of two logs indexes it without a
        # modulo; a zero entry's sentinel log still indexes it and is masked.
        out = self._exp[self._log[u] + self._log[v]]
        return np.where((u == 0) | (v == 0), 0, out)

    def inv_vec(self, vec: np.ndarray) -> np.ndarray:
        """Elementwise multiplicative inverse; raises if any entry is zero."""
        if np.any(vec == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse in GF(2^m)")
        return self._exp[(self.q - 1) - self._log[vec]]

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus={poly_to_str(self.modulus)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2m) and (self.m, self.modulus) == (other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

