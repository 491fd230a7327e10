"""The in-place accumulation of `wfk.fock` against the column-by-column
application it replaced (`reference_fock.py`).  Every coefficient, its type
and conductor, and the key order of the terms must agree, on every monomial
up to weight 4 and on seeded random vectors with Fraction and CycNum
coefficients."""

import random
from fractions import Fraction

import pytest
import reference_fock as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from wfk.charmap import colored_annihilation_op, colored_creation_op, colored_space
from wfk.exact import CycNum
from wfk.fock import (
    ColorSpace,
    FockOperator,
    FockVector,
    W_operator,
    builtin_model,
    monomial_basis,
    vacuum,
)
from wfk.groups import binary_dihedral, cyclic_group

MAX_WEIGHT = 4
MODES = range(-2, 3)


def exact(v: FockVector) -> list:
    """The terms in key order, each coefficient with its type and, for a
    CycNum, its conductor and canonical form."""
    return [(m, type(c), c.key() if isinstance(c, CycNum) else c)
            for m, c in v.terms.items()]


def is_zero(c) -> bool:
    return c.is_zero() if isinstance(c, CycNum) else c == 0


def monomials(space: ColorSpace, wmax: int) -> list:
    return [m for w in range(wmax + 1) for m in monomial_basis(space, w)]


def unit_vectors(space: ColorSpace, wmax: int = MAX_WEIGHT) -> list[FockVector]:
    return [FockVector(space, {m: 1}) for m in monomials(space, wmax)]


def rational(rng: random.Random):
    return rng.choice((rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 3))))


def cyclotomic(e: int):
    def draw(rng: random.Random):
        return rational(rng) + rng.randint(-1, 1) * CycNum.zeta(e, rng.randrange(e))
    return draw


def random_vectors(space: ColorSpace, rng: random.Random, scalar, count: int = 6,
                   wmax: int = MAX_WEIGHT) -> list[FockVector]:
    monos = monomials(space, wmax)
    return [FockVector(space, {m: scalar(rng) for m in rng.sample(monos, min(len(monos), 10))})
            for _ in range(count)]


def assert_same(op: FockOperator, ref_op: FockOperator, vectors) -> None:
    for x in vectors:
        assert exact(op.apply(x)) == exact(ref_op.apply(x)), x


def elements(alg, rng: random.Random) -> list:
    """The basis, and one random element when the model is even (a mixed
    element of an odd model has no parity)."""
    out = [alg.basis(i) for i in range(alg.dim)]
    if not any(alg.parities):
        out.append(alg.element({lab: rng.randint(-2, 2) for lab in alg.labels}))
    return out


# (model, k, modes): W^2 only where coproduct_power allows, i.e. on even models
W_CASES = [("point", 1, MODES), ("point", 2, MODES), ("p2", 1, MODES), ("p2", 2, MODES),
           ("exterior2", 1, MODES), ("p2", 3, (0,))]


@pytest.mark.parametrize("model,k,modes", W_CASES)
def test_W_operator_matches_reference(model, k, modes):
    rng = random.Random(f"{model}-{k}")
    alg = builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    vectors = unit_vectors(space) + random_vectors(space, rng, rational)
    for n in modes:
        for alpha in elements(alg, rng):
            assert_same(W_operator(alg, k, n, alpha, MAX_WEIGHT, space),
                        ref.W_operator(alg, k, n, alpha, MAX_WEIGHT, space), vectors)


@pytest.mark.parametrize("group", [cyclic_group(3), binary_dihedral(2)],
                         ids=["Z3", "BD2"])
def test_colored_modes_match_reference(group):
    rng = random.Random(group.name)
    space = colored_space(group)
    vectors = (random_vectors(space, rng, cyclotomic(group.exponent()), wmax=3)
               + random_vectors(space, rng, rational, wmax=3))
    for gamma in group.character_table().irreducibles:
        for k in (1, 2):
            for op in (colored_creation_op(group, k, gamma),
                       colored_annihilation_op(group, k, gamma)):
                assert_same(op, ref.reference_op(op), vectors)


def test_cancelled_monomial_returns_at_the_end():
    # the columns of m1, m2, m3 add A then B, cancel A, and bring A back: the
    # column-by-column sum keeps B first
    space = ColorSpace(["x"], [0], [[1]])
    m1, m2, m3, a, b = (((n, 0),) for n in range(1, 6))
    cols = {m1: {a: 1, b: 1}, m2: {a: -1}, m3: {a: 2}}
    op = FockOperator(lambda v: FockVector(space, cols[next(iter(v.terms))]))
    x = FockVector(space, {m1: 1, m2: 1, m3: 1})
    assert list(op.apply(x).terms) == [b, a]
    assert exact(op.apply(x)) == exact(ref.reference_op(op).apply(x))


def test_apply_result_does_not_alias_the_column_cache():
    alg = builtin_model("p2")
    space = ColorSpace.of_algebra(alg)
    ops = [W_operator(alg, 2, -1, alg.unit, MAX_WEIGHT, space),
           W_operator(alg, 1, -2, alg.basis(1), MAX_WEIGHT, space)]
    for op in ops:
        for x in unit_vectors(space, 2):
            first = op.apply(x)
            expected = exact(first)
            for m in first.terms:
                first.terms[m] = Fraction(99)
            first.terms[((9, 0),)] = 1
            assert exact(op.apply(x)) == expected
    v = vacuum(space)
    minus = -v
    minus.terms[()] = 5
    assert v.terms == {(): 1}


P2 = builtin_model("p2")
P2_SPACE = ColorSpace.of_algebra(P2)
P2_MONOMIALS = monomials(P2_SPACE, 2)
scalars = st.one_of(st.integers(-2, 2),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3),
                    st.builds(lambda a, b, k: a + b * CycNum.zeta(4, k),
                              st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 3)))
vectors = st.builds(lambda terms: FockVector(P2_SPACE, terms),
                    st.dictionaries(st.sampled_from(P2_MONOMIALS), scalars, max_size=8))


def no_zero(v: FockVector) -> bool:
    return not any(is_zero(c) for c in v.terms.values())


@settings(max_examples=80, deadline=None)
@given(vectors, vectors, scalars, st.sampled_from(list(MODES)))
def test_no_zero_coefficient_survives(u, v, s, n):
    op = W_operator(P2, 2, n, P2.unit, MAX_WEIGHT, P2_SPACE)
    for w in (u, v, u + v, u - v, u + u.scale(-1), u.scale(s), op.apply(u),
              op.apply(u - v)):
        assert no_zero(w)
    assert exact(u + v) == exact(ref.reference_add(u, v))
    assert exact(u - v) == exact(ref.reference_add(u, -v))
