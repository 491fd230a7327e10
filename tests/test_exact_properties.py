"""Property tests for CycNum: field laws, inverses, embeddings, Galois maps,
JSON round trips and the canonical integer form, the dot-product kernel
against the left-to-right sum of CycNum products, and sums and products of
rationals at conductors 1 and 2 against the Fraction-based reference."""

import json
from fractions import Fraction
from math import gcd

import reference_exact as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exact_reference import _same

from wfk.exact import CycNum, cyc, dot, euler_phi

bounded = settings(max_examples=60, deadline=None)

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)
rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)
coefficients = st.one_of(st.just(Fraction(0)), rationals, st.integers(-5, 5))


@st.composite
def cycnums(draw, conductors=CONDUCTORS):
    n = draw(st.sampled_from(conductors))
    phi = euler_phi(n)
    return CycNum(n, draw(st.lists(coefficients, min_size=phi, max_size=phi)))


def nonzero(conductors=CONDUCTORS):
    return cycnums(conductors).filter(lambda x: not x.is_zero())


def canonical(x: CycNum) -> bool:
    nums, den = x.nums, x.den
    return (len(nums) == euler_phi(x.conductor)
            and all(type(c) is int for c in nums) and type(den) is int
            and den > 0 and gcd(den, *nums) == 1
            and (any(nums) or den == 1))


@bounded
@given(cycnums(), cycnums(), cycnums())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and (a * 0).is_zero()
    assert (a + (-a)).is_zero()
    assert a - b == a + (-b)


@bounded
@given(nonzero(), cycnums())
def test_inverse(a, b):
    assert a * a.inverse() == 1
    assert (b / a) * a == b
    assert a ** -2 * a ** 2 == 1


@bounded
@given(cycnums(), cycnums(), st.sampled_from((1, 2, 3, 5)))
def test_embed_agrees_with_equality(a, b, k):
    m = a.conductor * b.conductor * k
    ea, eb = a.embed(m), b.embed(m)
    assert ea == a and a == ea and ea.conductor == m
    assert (ea == eb) == (a == b)
    assert (a + b).embed(m) == ea + eb
    assert (a * b).embed(m) == ea * eb


@bounded
@given(cycnums(), cycnums(), st.integers(-30, 30))
def test_galois_is_a_ring_automorphism(a, b, k):
    b = b.embed(a.conductor * b.conductor)
    a = a.embed(b.conductor)
    n = a.conductor
    if gcd(k, n) != 1:
        return
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert a.galois(1) == a
    assert a.galois(k).galois(pow(k, -1, n) if n > 1 else 1) == a
    assert a.conjugate() == a.galois(-1)
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if a.is_rational():
        assert a.galois(k) == a


@bounded
@given(cycnums())
def test_json_round_trip(a):
    back = CycNum.from_json(json.loads(json.dumps(a.to_json())))
    assert back.key() == a.key()
    assert back.coeffs == a.coeffs


@bounded
@given(cycnums(), cycnums(), st.one_of(rationals, st.integers(-9, 9)))
def test_results_are_canonical(a, b, s):
    results = [a, -a, a + b, a - b, a * b, a + s, s - a, a * s, s * a,
               a.conjugate(), a.embed(2 * a.conductor), a ** 3]
    if not b.is_zero():
        results += [a / b, b.inverse()]
    for x in results:
        assert canonical(x), x.key()
    assert (a - a).key() == (a.conductor, (0,) * euler_phi(a.conductor), 1)


@bounded
@given(st.lists(st.tuples(cycnums(CONDUCTORS + (9, 10, 15, 16, 20)), cycnums(),
                          st.integers(-6, 6)), max_size=7),
       st.integers(1, 24))
def test_dot_is_the_left_to_right_sum(terms, den):
    # the sum `groups.inner_product` took, term by term from cyc(0): same
    # value, conductor, numerators and denominator, zero weights included
    total = cyc(0)
    for x, y, w in terms:
        total = total + x * y * Fraction(w, den)
    xs, ys, weights = (list(column) for column in zip(*terms)) if terms else ([], [], [])
    got = dot(xs, ys, weights, den)
    assert got.key() == total.key()
    assert canonical(got)


@st.composite
def rational_pairs(draw):
    """A rational at conductor 1 or 2, one numerator over a denominator, as a
    CycNum and as the reference CycNum."""
    n, c = draw(st.sampled_from((1, 2))), draw(coefficients)
    return CycNum(n, [c]), ref.CycNum(n, [c])


@bounded
@given(rational_pairs(), st.one_of(rational_pairs(), coefficients.map(lambda c: (c, c))))
def test_rational_operands_match_the_reference(a, b):
    # the one-step sum and product of two one-numerator operands against the
    # Fraction layer, with int and Fraction operands on either side
    (x, x0), (y, y0) = a, b
    _same(x + y, x0 + y0)
    _same(y + x, y0 + x0)
    _same(x - y, x0 - y0)
    _same(y - x, y0 - x0)
    _same(x * y, x0 * y0)
    _same(y * x, y0 * x0)
    # cancellation to 0, against a CycNum and against the rational itself
    _same(x - x, x0 - x0)
    _same(x + (-x), x0 + (-x0))
    r = x.as_rational()
    _same(x - r, x0 - r)
    _same(-r + x, -r + x0)
