"""Reference copy of the Fraction-based scalar layer that `wfk.exact` replaced.

Every coefficient is a `fractions.Fraction`.  The code below is kept as it
was, so that `tests/test_exact_reference.py` can check the integer layout of
`wfk.exact.CycNum` against it, operation by operation.  Its original module
docstring follows.

Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

`Rational` is `fractions.Fraction` (always lowest terms, positive denominator).
`CycNum` is an element of the cyclotomic field Q(zeta_N), stored in the power
basis {zeta^0, ..., zeta^(phi(N)-1)} after reduction modulo the N-th
cyclotomic polynomial, so equality at a fixed conductor is a plain
coefficient comparison.  Mixed-conductor arithmetic embeds both operands into
the lcm conductor; no descent to the minimal conductor is attempted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from wfk import exact

Rational = Fraction


class DivisionByZero(ZeroDivisionError):
    """Division by the zero cyclotomic number."""


# ---------------------------------------------------------------------------
# integer/rational polynomial helpers (dense, lowest degree first)
# ---------------------------------------------------------------------------

def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    # exact division over Q; den must be nonzero
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    lead = Fraction(den[-1])
    while len(num) >= len(den) and _poly_trim(list(num)):
        num = _poly_trim(num)
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        c = Fraction(num[-1]) / lead
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        num.pop()
    return _poly_trim(q), _poly_trim(num)


def _poly_xgcd(a: list, b: list) -> tuple[list, list, list]:
    """Extended Euclid over Q[x]: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = [Fraction(c) for c in a], [Fraction(c) for c in b]
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while _poly_trim(list(r1)):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _poly_trim([x - y for x, y in _zip_pad(t0, _poly_mul(q, t1))])
    return r0, s0, t0


def _zip_pad(a: list, b: list):
    n = max(len(a), len(b))
    for i in range(n):
        x = a[i] if i < len(a) else Fraction(0)
        y = b[i] if i < len(b) else Fraction(0)
        yield x, y


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (lowest degree first), by exact division of x^n - 1
    by the cyclotomic polynomials of the proper divisors of n."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod([Fraction(c) for c in num],
                                [Fraction(c) for c in cyclotomic_polynomial(d)])
            if r:
                raise ArithmeticError("cyclotomic division must be exact")
            num = q
    if any(c.denominator != 1 for c in num):
        raise ArithmeticError(f"Phi_{n} has a non-integer coefficient")
    return tuple(int(c) for c in num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row d gives x^(phi(n)+d) modulo Phi_n in the power basis, for d >= 0
    up to degree max(2*phi-2, n-1)."""
    phi = euler_phi(n)
    top = max(2 * phi - 2, n - 1)
    poly = cyclotomic_polynomial(n)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})  (Phi_n is monic)
    rows: list[tuple[Fraction, ...]] = []
    base = tuple(Fraction(-c) for c in poly[:phi])
    rows.append(base)
    for d in range(phi + 1, top + 1):
        prev = rows[-1]
        shifted = [Fraction(0)] + list(prev[:-1])
        if prev[-1]:
            shifted = [s + prev[-1] * b for s, b in zip(shifted, base)]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_mod_cyclotomic(coeffs: list, n: int) -> tuple[Fraction, ...]:
    phi = euler_phi(n)
    out = [Fraction(c) for c in coeffs[:phi]] + [Fraction(0)] * max(0, phi - len(coeffs))
    if len(coeffs) > phi:
        rows = _reduction_rows(n)
        for d in range(phi, len(coeffs)):
            c = coeffs[d]
            if c == 0:
                continue
            row = rows[d - phi]
            for i in range(phi):
                out[i] += c * row[i]
    return tuple(out)


class CycNum:
    """Exact element of Q(zeta_N) in the canonical power basis.

    Arithmetic accepts int, Fraction and CycNum operands; mixed conductors are
    embedded into lcm(N1, N2).  Instances are immutable; hashing is disabled
    because equal values can live at different conductors.
    """

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, conductor: int, coeffs) -> None:
        phi = euler_phi(conductor)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients at conductor {conductor}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNum is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "CycNum":
        return CycNum(1, (Fraction(x),))

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycNum":
        """zeta_n^power."""
        power %= n
        coeffs = [0] * (n if n > 1 else 1)
        if n == 1:
            coeffs[0] = 1
        else:
            coeffs[power] = 1
        return CycNum(n, _reduce_mod_cyclotomic(coeffs, n))

    # -- conversions --------------------------------------------------------

    def embed(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"cannot embed conductor {n} into {m}")
        k = m // n
        out = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * k) % m] += c
        return CycNum(m, _reduce_mod_cyclotomic(out, m))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def key(self):
        """Hashable canonical form at this value's own conductor."""
        return (self.conductor, self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.from_rational(x)
        return NotImplemented  # type: ignore[return-value]

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum", int]:
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.embed(n), other.embed(n), n

    def __add__(self, other):
        o = CycNum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, n = self._common(o)
        return CycNum(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = CycNum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = CycNum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum(self.conductor, tuple(c * other for c in self.coeffs))
        o = CycNum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, n = self._common(o)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        return CycNum(n, _reduce_mod_cyclotomic(prod, n))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise DivisionByZero("cyclotomic division by zero")
        n = self.conductor
        if self.is_rational():
            return CycNum(n, (1 / self.coeffs[0],) + (Fraction(0),) * (len(self.coeffs) - 1))
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        g, u, _ = _poly_xgcd(list(self.coeffs), phi)
        if len(g) != 1:  # Phi_n is irreducible, so the gcd with a nonzero element is constant
            raise ArithmeticError(f"gcd with Phi_{n} is not constant")
        inv = [c / g[0] for c in u]
        return CycNum(n, _reduce_mod_cyclotomic(inv, n))

    def __truediv__(self, other):
        o = CycNum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = CycNum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNum.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = CycNum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.conductor == o.conductor:
            return self.coeffs == o.coeffs
        a, b, _ = self._common(o)
        return a.coeffs == b.coeffs

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z{self.conductor}^{i}")
        return " + ".join(parts) if parts else "0"

    # -- structure maps -----------------------------------------------------

    def conjugate(self) -> "CycNum":
        """Apply zeta_N -> zeta_N^(-1)."""
        n = self.conductor
        out = [Fraction(0)] * max(n, 1)
        for i, c in enumerate(self.coeffs):
            out[(n - i) % n] += c
        return CycNum(n, _reduce_mod_cyclotomic(out, n))

    def galois(self, k: int) -> "CycNum":
        """Apply zeta_N -> zeta_N^k; requires gcd(k, N) = 1."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise ValueError("Galois exponent must be coprime to the conductor")
        out = [Fraction(0)] * max(n, 1)
        for i, c in enumerate(self.coeffs):
            out[(i * k) % n] += c
        return CycNum(n, _reduce_mod_cyclotomic(out, n))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "CycNum":
        coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
        return CycNum(int(data["conductor"]), coeffs)


def cyc(x) -> CycNum:
    """Coerce an int/Fraction/CycNum to CycNum."""
    out = CycNum._coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")
    return out


def cyc_arith(a: CycNum, b: CycNum, op: str) -> CycNum:
    """Field arithmetic dispatcher: op in {add, sub, mul, div}."""
    a, b = cyc(a), cyc(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def conjugate(a: CycNum) -> CycNum:
    return cyc(a).conjugate()


# `cyc_arith` of the integer layer `wfk.exact`, which only the tests called: the
# dispatcher above over `wfk.exact.CycNum`.
def integer_cyc_arith(a: exact.CycNum, b: exact.CycNum, op: str) -> exact.CycNum:
    """Field arithmetic dispatcher: op in {add, sub, mul, div}."""
    a, b = exact.cyc(a), exact.cyc(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")
