"""`FockOperator.apply`, a block times a vector, against the column path it
replaced (`reference_fock.column_apply`): every column read off the blocks
as a `FockVector`, then summed by `sum_scaled` as `linop.LinearOperator`
summed them.  Each term must agree in monomial, value, type and, for a
CycNum, canonical form `key()`, in key order, on seeded random vectors with
int, Fraction and CycNum coefficients: the modes and W^2_n of p2, the modes
and normal products of exterior2 (odd colors), the modes and W^2_n of p2
with a fractional trace, W^3_0 of the point model, the join boundary, and
the cyclotomic p_k(gamma) on the colors of C3 and BT.  The typed errors stay:
`ModelMismatch` for a vector of a space with other parities or kappa, once
per `apply` and only when the vector has a term, and `CutoffTooSmall` from
`block`."""

import random
from fractions import Fraction

import pytest
import reference_fock as ref

from wfk.charmap import colored_space, fock_side_p
from wfk.exact import CycNum
from wfk.fock import (
    ColorSpace,
    CutoffTooSmall,
    FockVector,
    FrobeniusAlgebra,
    ModelMismatch,
    W_operator,
    builtin_model,
    join_boundary,
    monomial_basis,
    normal_order,
)
from wfk.groups import binary_tetrahedral, cyclic_group

WEIGHT = 4
MODES = range(-3, 4)


def exact(v: FockVector) -> list:
    return [(m, type(c), c.key() if isinstance(c, CycNum) else c) for m, c in v.terms.items()]


def scalar(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((-2, -1, 1, 3))
    if kind == 1:
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
    e = rng.choice((3, 4, 12))
    return Fraction(rng.randint(-2, 2), rng.randint(1, 3)) + CycNum.zeta(e, rng.randrange(e))


def random_vectors(space: ColorSpace, rng: random.Random, wmax: int = WEIGHT,
                   count: int = 8) -> list[FockVector]:
    monos = [m for w in range(wmax + 1) for m in monomial_basis(space, w)]
    return [FockVector(space, {m: scalar(rng) for m in rng.sample(monos, min(len(monos), 9))})
            for _ in range(count)]


def assert_same(op, vectors) -> None:
    for x in vectors:
        got = op.apply(x)
        assert type(got) is FockVector and got.space is x.space
        assert exact(got) == exact(ref.column_apply(op, x)), (op.name, x)


def fraction_trace_p2() -> FrobeniusAlgebra:
    data = builtin_model("p2").to_json()
    data["trace"] = {"1": ["1", "5"], "h2": ["3", "2"]}
    return FrobeniusAlgebra.from_json(data)


def elements(alg) -> list:
    """The basis, and an element with Fraction coefficients of each parity
    present."""
    out = [alg.basis(i) for i in range(alg.dim)]
    for parity in sorted(set(alg.parities)):
        out.append(alg.element({lab: Fraction(c, 3) for c, (lab, p) in
                                zip((2, -1, 5, 4), zip(alg.labels, alg.parities))
                                if p == parity}))
    return out


@pytest.mark.parametrize("model", ["p2", "exterior2", "fraction-trace"])
def test_mode_apply_is_the_column_path(model):
    alg = fraction_trace_p2() if model == "fraction-trace" else builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    vectors = random_vectors(space, random.Random(f"modes-{model}"))
    for alpha in elements(alg):
        for n in MODES:
            assert_same(space.field(alpha).mode(n), vectors)


@pytest.mark.parametrize("model", ["p2", "fraction-trace"])
def test_virasoro_apply_is_the_column_path(model):
    alg = fraction_trace_p2() if model == "fraction-trace" else builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    vectors = random_vectors(space, random.Random(f"W2-{model}"))
    for alpha in elements(alg):
        for n in MODES:
            assert_same(W_operator(alg, 2, n, alpha, WEIGHT, space), vectors)


def test_odd_normal_product_apply_is_the_column_path():
    alg = builtin_model("exterior2")
    space = ColorSpace.of_algebra(alg)
    vectors = random_vectors(space, random.Random("nop-exterior2"))
    for labels in (("a", "b"), ("a", "ab", "b"), ("1", "a", "a")):
        factors = [alg.element({lab: 1}) for lab in labels]
        for n in MODES:
            assert_same(normal_order(alg, factors, WEIGHT, n, space), vectors)


def test_cubic_and_join_boundary_apply_is_the_column_path():
    alg = builtin_model("point")
    space = ColorSpace.of_algebra(alg)
    vectors = random_vectors(space, random.Random("cubic"), wmax=7)
    assert_same(W_operator(alg, 3, 0, alg.unit, 7, space), vectors)
    assert_same(join_boundary(space), vectors)


@pytest.mark.parametrize("group", [cyclic_group(3), binary_tetrahedral()], ids=["C3", "BT"])
def test_cyclotomic_p_apply_is_the_column_path(group):
    space = colored_space(group)
    vectors = random_vectors(space, random.Random(f"p-{group.name}"), wmax=3)
    for gamma in group.character_table().irreducibles:
        for k in (-2, -1, 1, 2):
            assert_same(fock_side_p(group, k, gamma), vectors)


def test_vector_of_another_space_is_refused_once_it_has_a_term():
    p2 = builtin_model("p2")
    space = ColorSpace.of_algebra(p2)
    op = W_operator(p2, 2, 0, p2.unit, WEIGHT, space)
    mono = ((1, 1), (1, 2))
    # the block of the monomial's weight is built for the operator's own space
    op.apply(FockVector(space, {mono: 1}))
    other = ColorSpace(p2.labels, p2.parities, [[0, 0, 2], [0, 2, 0], [2, 0, 0]], name="other")
    for x in (FockVector(other, {mono: 1}), FockVector(other, {(): 1, mono: 2})):
        with pytest.raises(ModelMismatch,
                           match="W2_0: an operator on p2 applied to a vector of other"):
            op.apply(x)
        with pytest.raises(ModelMismatch) as by_column:
            ref.column_apply(op, x)
        assert "applied to a vector of other" in str(by_column.value)
    empty = op.apply(FockVector(other, {}))
    assert empty.space is other and empty.is_zero()
    # a space with the same parities and kappa lists the same monomials
    same = ColorSpace(p2.labels, p2.parities, p2.pairing, name="same")
    x = FockVector(same, {mono: 3})
    assert exact(op.apply(x)) == exact(ref.column_apply(op, x))


def test_cutoff_is_refused_by_the_block():
    p2 = builtin_model("p2")
    space = ColorSpace.of_algebra(p2)
    op = W_operator(p2, 2, -1, p2.unit, 3, space)
    x = FockVector(space, {((1, 0),): 1, space.grade(4)[0][0]: Fraction(1, 2)})
    with pytest.raises(CutoffTooSmall) as by_apply:
        op.apply(x)
    with pytest.raises(CutoffTooSmall) as by_column:
        ref.column_apply(op, x)
    with pytest.raises(CutoffTooSmall) as by_block:
        op.block(4)
    assert str(by_apply.value) == str(by_column.value) == str(by_block.value) == (
        "W2_-1: input weight 4 above cutoff 3")
    assert 4 not in op.blocks and op._columns == {}
