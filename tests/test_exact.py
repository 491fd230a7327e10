import random
from fractions import Fraction

import pytest

from wfk.exact import (
    CycNum,
    DivisionByZero,
    conjugate,
    cyclotomic_polynomial,
    euler_phi,
)

from reference_exact import integer_cyc_arith


def zeta(n, k=1):
    return CycNum.zeta(n, k)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)  # x + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 by hand: x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_xn_minus_1():
    # independent check: prod over d | n of Phi_d(x) = x^n - 1
    for n in (6, 10, 12):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_i_squared_is_minus_one():
    assert zeta(4) * zeta(4) == -1


def test_primitive_cube_roots_sum():
    assert zeta(3) + zeta(3, 2) == -1


def test_fifth_root_product():
    # (z5 + z5^4)(z5^2 + z5^3) = z^3 + z^4 + z^6 + z^7 = z + z^2 + z^3 + z^4 = -1
    lhs = (zeta(5) + zeta(5, 4)) * (zeta(5, 2) + zeta(5, 3))
    assert lhs == -1


def test_conjugate_examples():
    assert conjugate(zeta(4)) == -zeta(4)
    assert conjugate(CycNum.from_rational(1)) == 1
    # conj(z3 + 2) = z3^2 + 2 = (-1 - z3) + 2 = 1 - z3 in the power basis
    assert conjugate(zeta(3) + 2) == zeta(3, 2) + 2
    assert (zeta(3) + 2).conjugate().coeffs == (Fraction(1), Fraction(-1))


def test_conjugate_involution():
    rng = random.Random(7)
    for n in (1, 3, 4, 5, 8, 12, 24):
        phi = euler_phi(n)
        a = CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(phi)])
        assert conjugate(conjugate(a)) == a


def test_field_axioms_randomized():
    rng = random.Random(2024)
    conductors = [1, 2, 3, 4, 6, 8, 12, 24]
    for _ in range(40):
        n = rng.choice(conductors)
        m = rng.choice(conductors)
        phi_n, phi_m = euler_phi(n), euler_phi(m)
        a = CycNum(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(phi_n)])
        b = CycNum(m, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(phi_m)])
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a


def test_rational_round_trip():
    x = Fraction(-22, 7)
    c = CycNum.from_rational(x)
    assert c.conductor == 1 and c.as_rational() == x
    assert (c + 1).as_rational() == x + 1


def test_mixed_conductor_compatibility():
    # z6 = -z3^2, and embeddings commute with arithmetic
    z6 = zeta(6)
    z3 = zeta(3)
    assert z6 * z6 == z3
    assert z6 + zeta(6, 5) == 1  # z6 + conj(z6) = 2 cos(pi/3) = 1
    assert zeta(2) == -1
    assert zeta(8) * zeta(8, 7) == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        integer_cyc_arith(CycNum.from_rational(1), CycNum.from_rational(0), "div")


def test_cyc_arith_dispatch():
    a, b = zeta(5), zeta(5, 2)
    assert integer_cyc_arith(a, b, "mul") == zeta(5, 3)
    assert integer_cyc_arith(a, a, "sub") == 0
    assert integer_cyc_arith(a, b, "add") == a + b
    assert integer_cyc_arith(zeta(5, 3), zeta(5, 2), "div") == a


def test_inverse_of_root_of_unity():
    for n in (3, 5, 8, 12):
        z = zeta(n)
        assert z * z.inverse() == 1
        assert z.inverse() == zeta(n, n - 1)


def test_galois_action():
    a = zeta(5) + zeta(5, 4)
    assert a.galois(2) == zeta(5, 2) + zeta(5, 3)
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_power_operator():
    assert zeta(12) ** 12 == 1
    assert zeta(12) ** -1 == zeta(12, 11)


def test_json_round_trip():
    a = zeta(8) + Fraction(3, 2)
    data = a.to_json()
    assert data["conductor"] == 8
    assert all(isinstance(s, str) for pair in data["coeffs"] for s in pair)
    assert CycNum.from_json(data) == a


def test_unhashable():
    with pytest.raises(TypeError):
        hash(zeta(3))
