"""The integer layout of `wfk.exact.CycNum` against the Fraction-based layer it
replaced (`reference_exact.py`): on random operands every operation gives the
same value, at the same conductor, with the same JSON and repr."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import reference_exact as ref

from wfk.exact import CycNum, DivisionByZero, cyclotomic_polynomial, euler_phi

CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 24, 60)


def _coeff(rng):
    if rng.random() < 0.3:
        return 0
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))


def _operands(rng, n):
    coeffs = [_coeff(rng) for _ in range(euler_phi(n))]
    return CycNum(n, coeffs), ref.CycNum(n, coeffs)


def _scalars(rng):
    return [0, 1, -3, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 7))]


def _same(new, old):
    assert isinstance(new, CycNum)
    assert new.conductor == old.conductor
    assert new.to_json() == old.to_json()
    assert new.coeffs == old.coeffs
    assert repr(new) == repr(old)


def _same_outcome(new_op, old_op):
    """Both raise the same exception type, or both give the same value."""
    try:
        old = old_op()
    except (ZeroDivisionError, ValueError) as exc:
        expected = DivisionByZero if isinstance(exc, ref.DivisionByZero) else type(exc)
        with pytest.raises(expected):
            new_op()
        return
    _same(new_op(), old)


def test_cyclotomic_polynomials_match():
    for n in range(1, 61):
        assert cyclotomic_polynomial(n) == ref.cyclotomic_polynomial(n)


@pytest.mark.parametrize("n,m", list(itertools.product(CONDUCTORS, repeat=2)))
def test_binary_operations_match(n, m):
    rng = random.Random(1000 * n + m)
    for _ in range(2):
        (a, a0), (b, b0) = _operands(rng, n), _operands(rng, m)
        _same(a + b, a0 + b0)
        _same(a - b, a0 - b0)
        _same(a * b, a0 * b0)
        _same_outcome(lambda: a / b, lambda: a0 / b0)
        assert (a == b) == (a0 == b0)
        # equal values at different conductors
        k = n * m // gcd(n, m)
        assert (a == b.embed(k) + a - b) is (a0 == b0.embed(k) + a0 - b0) is True


@pytest.mark.parametrize("n", CONDUCTORS)
def test_scalar_operands_match(n):
    rng = random.Random(n)
    for _ in range(3):
        a, a0 = _operands(rng, n)
        for s in _scalars(rng):
            _same(a + s, a0 + s)
            _same(s + a, s + a0)
            _same(a - s, a0 - s)
            _same(s - a, s - a0)
            _same(a * s, a0 * s)
            _same(s * a, s * a0)
            _same_outcome(lambda: a / s, lambda: a0 / s)
            _same_outcome(lambda: s / a, lambda: s / a0)
            assert (a == s) == (a0 == s)
            r, r0 = CycNum.from_rational(s).embed(n), ref.CycNum.from_rational(s).embed(n)
            _same(r, r0)
            assert (r == s) is (r0 == s) is True


@pytest.mark.parametrize("n", CONDUCTORS)
def test_unary_operations_match(n):
    rng = random.Random(-n)
    for _ in range(3):
        a, a0 = _operands(rng, n)
        _same(-a, -a0)
        for k in (-2, -1, 0, 1, 2, 3):
            _same_outcome(lambda: a ** k, lambda: a0 ** k)
        for m in (n, 2 * n, 3 * n, 5 * n):
            _same(a.embed(m), a0.embed(m))
        _same(a.conjugate(), a0.conjugate())
        for k in range(-n, 2 * n + 1):
            _same_outcome(lambda: a.galois(k), lambda: a0.galois(k))
        _same(CycNum.from_json(a0.to_json()), a0)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_roots_of_unity_match(n):
    for k in range(-1, n + 1):
        _same(CycNum.zeta(n, k), ref.CycNum.zeta(n, k))


def test_errors_match():
    with pytest.raises(ValueError, match="need 2 coefficients at conductor 3"):
        CycNum(3, [1])
    with pytest.raises(DivisionByZero):
        CycNum(5, [0] * 4).inverse()
    with pytest.raises(ValueError):
        CycNum.zeta(4).embed(6)
    with pytest.raises(ValueError):
        CycNum.zeta(12).galois(3)
    assert (CycNum.zeta(4) == "i") is False
