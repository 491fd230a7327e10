"""Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

`Rational` is `fractions.Fraction` (always lowest terms, positive denominator).
`CycNum` is an element of the cyclotomic field Q(zeta_N) in the power basis
{zeta^0, ..., zeta^(phi(N)-1)}, stored as integer numerators over one common
positive denominator, the layout of FLINT's `fmpq_poly`.  The form is
canonical: the denominator and the numerators have gcd 1, and zero is all
zeros over 1, so equality at a fixed conductor is a tuple comparison.  The
N-th cyclotomic polynomial is monic with integer coefficients, so products,
embeddings and Galois maps reduce modulo it in plain integers.
Mixed-conductor arithmetic embeds both operands into the lcm conductor; no
descent to the minimal conductor is attempted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction


class DivisionByZero(ZeroDivisionError):
    """Division by the zero cyclotomic number."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, lowest degree first)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
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
            div = cyclotomic_polynomial(d)  # monic, so the quotient stays integral
            k = len(div) - 1
            quot = [0] * (len(num) - k)
            for s in range(len(quot) - 1, -1, -1):
                c = quot[s] = num[s + k]
                if c:
                    for i, b in enumerate(div):
                        num[s + i] -= c * b
            if any(num):
                raise ArithmeticError("cyclotomic division must be exact")
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row d lists the nonzero (i, c) of x^(phi(n)+d) modulo Phi_n, for d >= 0
    up to degree max(2*phi-2, n-1): the top degree of a product of two reduced
    elements, and of a power zeta^i with i < n."""
    phi = euler_phi(n)
    top = max(2 * phi - 2, n - 1)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})  (Phi_n is monic)
    base = [-c for c in cyclotomic_polynomial(n)[:phi]]
    dense = [base]
    for _ in range(phi + 1, top + 1):
        prev = dense[-1]
        row = [0] + prev[:-1]
        if prev[-1]:
            row = [r + prev[-1] * b for r, b in zip(row, base)]
        dense.append(row)
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in dense)


def _reduce(poly: list, n: int, phi: int) -> list:
    """The phi power-basis numerators of `poly` modulo Phi_n."""
    if len(poly) <= phi:
        return poly + [0] * (phi - len(poly))
    out = poly[:phi]
    rows = _reduction_rows(n)
    for d in range(phi, len(poly)):
        c = poly[d]
        if c:
            for i, r in rows[d - phi]:
                out[i] += c * r
    return out


def _poly_mul(a: tuple, b: tuple) -> list:
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    return out


def _permute(nums: tuple, n: int, k: int) -> list:
    """Numerators of the image under zeta_n -> zeta_n^k, for k coprime to n."""
    out = [0] * n
    for i, c in enumerate(nums):
        if c:
            out[i * k % n] = c
    return _reduce(out, n, len(nums))


def _make(conductor: int, nums: tuple, den: int) -> "CycNum":
    """A CycNum from numerators and a denominator already in canonical form."""
    x = _new(CycNum)
    _set_conductor(x, conductor)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _canonical(conductor: int, nums: list, den: int) -> "CycNum":
    """A CycNum from integer numerators over a positive denominator."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    return _make(conductor, tuple(nums), den)


def _ratio(c) -> tuple[int, int]:
    if type(c) is int:
        return c, 1
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator, c.denominator


class CycNum:
    """Exact element of Q(zeta_N): integer numerators `nums` (one per power
    basis element) over one positive denominator `den`, in lowest terms.

    Arithmetic accepts int, Fraction and CycNum operands; mixed conductors are
    embedded into lcm(N1, N2).  An int or Fraction operand scales or shifts the
    numerators directly.  Instances are immutable; hashing is disabled
    because equal values can live at different conductors.
    """

    __slots__ = ("conductor", "nums", "den")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, conductor: int, coeffs) -> None:
        phi = euler_phi(conductor)
        ratios = [_ratio(c) for c in coeffs]
        if len(ratios) != phi:
            raise ValueError(f"need {phi} coefficients at conductor {conductor}")
        # over the lcm of denominators in lowest terms, the form is canonical
        den = lcm(*(q for _, q in ratios))
        _set_conductor(self, conductor)
        _set_nums(self, tuple(p * (den // q) for p, q in ratios))
        _set_den(self, den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "CycNum":
        p, q = _ratio(x)
        return _make(1, (p,), q)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycNum":
        """zeta_n^power."""
        power %= n
        poly = [0] * power + [1]
        return _make(n, tuple(_reduce(poly, n, euler_phi(n))), 1)

    # -- conversions --------------------------------------------------------

    def embed(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"cannot embed conductor {n} into {m}")
        phi = euler_phi(m)
        if n == 1:
            return _make(m, self.nums + (0,) * (phi - 1), self.den)
        k = m // n
        out = [0] * m
        for i, c in enumerate(self.nums):
            if c:
                out[i * k] = c
        # the power basis spans the ring of integers, so the form stays canonical
        return _make(m, tuple(_reduce(out, m, phi)), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def key(self):
        """Hashable canonical form at this value's own conductor."""
        return (self.conductor, self.nums, self.den)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.from_rational(x)
        return NotImplemented  # type: ignore[return-value]

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum", int]:
        n = lcm(self.conductor, other.conductor)
        return self.embed(n), other.embed(n), n

    def _plus(self, other, sign: int):
        """self + sign * other."""
        a, b, n = self, other, self.conductor
        if isinstance(other, (int, Fraction)):
            zeros = (0,) * (len(self.nums) - 1)
            b = _make(n, (other.numerator,) + zeros, other.denominator)
        elif not isinstance(other, CycNum):
            return NotImplemented
        elif len(self.nums) == 1 == len(other.nums):
            # two rationals, at conductor 1 or 2: one integer step at the lcm
            da, db = self.den, other.den
            return _canonical(lcm(n, other.conductor),
                              [self.nums[0] * db + sign * other.nums[0] * da], da * db)
        elif other.conductor != n:
            a, b, n = self._common(other)
        da, db = a.den, b.den
        if n == 1:
            return _canonical(1, [a.nums[0] * db + sign * b.nums[0] * da], da * db)
        if da == db:
            if sign > 0:
                nums = [x + y for x, y in zip(a.nums, b.nums)]
            else:
                nums = [x - y for x, y in zip(a.nums, b.nums)]
            return _canonical(n, nums, da)
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return _canonical(n, [x * sa + y * sb for x, y in zip(a.nums, b.nums)], da * sa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, CycNum):
            if len(self.nums) == 1 == len(other.nums):
                # two rationals, at conductor 1 or 2: one integer step at the lcm
                return _canonical(lcm(self.conductor, other.conductor),
                                  [self.nums[0] * other.nums[0]], self.den * other.den)
            a, b, n = self, other, self.conductor
            if other.conductor != n:
                a, b, n = self._common(other)
            prod = _poly_mul(a.nums, b.nums)
            return _canonical(n, _reduce(prod, n, len(a.nums)), a.den * b.den)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _canonical(self.conductor, [x * p for x in self.nums], self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """1/a = (product of the other Galois conjugates of a) / N(a), where the
        norm N(a), the product of all conjugates, is rational."""
        if self.is_zero():
            raise DivisionByZero("cyclotomic division by zero")
        n, nums, den = self.conductor, self.nums, self.den
        if self.is_rational():
            p = nums[0]
            return _make(n, (den if p > 0 else -den,) + nums[1:], abs(p))
        phi = len(nums)
        rest = [1] + [0] * (phi - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                rest = _reduce(_poly_mul(rest, _permute(nums, n, k)), n, phi)
        norm = _reduce(_poly_mul(nums, rest), n, phi)
        if any(norm[1:]) or norm[0] <= 0:
            raise ArithmeticError(f"norm to Q from conductor {n} is not a positive rational")
        # a = nums/den and nums*rest = norm[0], so 1/a = den*rest/norm[0].  The norm
        # is positive: complex conjugation pairs the conjugates, N(a) = prod |s(a)|^2.
        return _canonical(n, [x * den for x in rest], norm[0])

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
        if isinstance(other, CycNum):
            a, b = self, other
            if other.conductor != self.conductor:
                a, b, _ = self._common(other)
            return a.den == b.den and a.nums == b.nums
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.nums[0] == other.numerator
                    and self.is_rational())
        return NotImplemented

    def __repr__(self):
        coeffs = self.coeffs
        if self.is_rational():
            return str(coeffs[0])
        parts = []
        for i, c in enumerate(coeffs):
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
        return _make(self.conductor, tuple(_permute(self.nums, self.conductor, -1)), self.den)

    def galois(self, k: int) -> "CycNum":
        """Apply zeta_N -> zeta_N^k; requires gcd(k, N) = 1."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise ValueError("Galois exponent must be coprime to the conductor")
        # an automorphism keeps the ring of integers, so the form stays canonical
        return _make(n, tuple(_permute(self.nums, n, k)), self.den)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        den, pairs = self.den, []
        for x in self.nums:
            g = gcd(x, den)
            pairs.append([str(x // g), str(den // g)])
        return {"conductor": self.conductor, "coeffs": pairs}

    @staticmethod
    def from_json(data: dict) -> "CycNum":
        coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
        return CycNum(int(data["conductor"]), coeffs)


# CycNum.__setattr__ refuses every write; the slot descriptors build new values
_new = object.__new__
_set_conductor, _set_nums, _set_den = (CycNum.__dict__[name].__set__
                                       for name in CycNum.__slots__)


def cyc(x) -> CycNum:
    """Coerce an int/Fraction/CycNum to CycNum."""
    out = CycNum._coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")
    return out


def conjugate(a: CycNum) -> CycNum:
    return cyc(a).conjugate()


def dot(xs, ys, weights, den: int = 1) -> CycNum:
    """sum_i weights[i] * xs[i] * ys[i] / den, for sequences xs and ys of
    CycNums, a sequence of int weights and a positive int den, as one CycNum.

    The result lives at n = lcm(1, the conductors of every operand), where
    the same sum taken left to right from `cyc(0)` ends, so the two agree in
    `key()`.  zeta_N^i is zeta_n^(i n/N): every product of numerators goes
    into one int list indexed by its exponent mod n, over a running common
    denominator, and the list is reduced modulo Phi_n and put in lowest terms
    once, at the end, not once per product and per partial sum."""
    n = lcm(*{x.conductor for x in xs}, *{y.conductor for y in ys})
    acc, common = [0] * n, 1
    for x, y, w in zip(xs, ys, weights):
        d = x.den * y.den
        if d != common:
            grown = lcm(common, d)
            if grown != common:
                up = grown // common
                acc = [c * up for c in acc]
                common = grown
            w *= common // d
        kx, ky = n // x.conductor, n // y.conductor
        y_terms = [(j * ky, b * w) for j, b in enumerate(y.nums) if b]
        for i, a in enumerate(x.nums):
            if a:
                i *= kx
                for j, b in y_terms:
                    acc[(i + j) % n] += a * b
    return _canonical(n, _reduce(acc, n, euler_phi(n)), common * den)
