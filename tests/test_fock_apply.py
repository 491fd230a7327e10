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

import itertools
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


# `FockOperator.apply` sums int blocks and int or Fraction coefficients over
# one denominator; `reference_fock.block_apply` is the apply that added one
# Fraction per entry with `_add_into`, the path every other vector still takes


def rational_vectors(space: ColorSpace, rng: random.Random, wmax: int = WEIGHT,
                     count: int = 8) -> list[FockVector]:
    """Vectors with int and Fraction coefficients only."""
    monos = [m for w in range(wmax + 1) for m in monomial_basis(space, w)]
    return [FockVector(space, {m: rng.choice((rng.choice((-2, -1, 1, 3)),
                                              Fraction(rng.choice((-3, -1, 1, 2)),
                                                       rng.randint(1, 4))))
                               for m in rng.sample(monos, min(len(monos), 9))})
            for _ in range(count)]


def assert_same_as_block_apply(op, vectors) -> None:
    for x in vectors:
        got = op.apply(x)
        assert got.space is x.space
        assert exact(got) == exact(ref.block_apply(op, x)), (op.name, x)


@pytest.mark.parametrize("model", ["p2", "exterior2", "fraction-trace"])
def test_rational_apply_is_the_block_apply(model):
    alg = fraction_trace_p2() if model == "fraction-trace" else builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    rng = random.Random(f"rational-{model}")
    vectors = rational_vectors(space, rng) + random_vectors(space, rng, count=4)
    for alpha in elements(alg):
        for n in MODES:
            assert_same_as_block_apply(space.field(alpha).mode(n), vectors)
            if not any(alg.parities):
                assert_same_as_block_apply(W_operator(alg, 2, n, alpha, WEIGHT, space), vectors)


def test_rational_apply_of_the_point_operators_is_the_block_apply():
    alg = builtin_model("point")
    space = ColorSpace.of_algebra(alg)
    rng = random.Random("rational-point")
    vectors = rational_vectors(space, rng, wmax=7) + random_vectors(space, rng, wmax=7, count=4)
    for op in (W_operator(alg, 3, 0, alg.unit, 7, space), join_boundary(space),
               W_operator(alg, 2, -1, alg.unit, 7, space)):
        assert_same_as_block_apply(op, vectors)


@pytest.mark.parametrize("group", [cyclic_group(3), binary_tetrahedral()], ids=["C3", "BT"])
def test_cyclotomic_modes_apply_as_the_block_apply(group):
    # a mode of cyclotomic coefficients takes the entry-by-entry path on
    # rational vectors too: its entries are CycNums
    space = colored_space(group)
    rng = random.Random(f"cyclotomic-{group.name}")
    vectors = rational_vectors(space, rng, wmax=3) + random_vectors(space, rng, wmax=3)
    for gamma in group.character_table().irreducibles:
        for k in (-2, -1, 1, 2):
            op = fock_side_p(group, k, gamma)
            assert op.cyclotomic
            assert_same_as_block_apply(op, vectors)


def cancelling_vector(op, space: ColorSpace, d: int):
    """A vector of weight d whose first two terms cancel at a monomial m of
    the output and whose third term brings m back, the second adding a
    monomial that neither of the others does; and m, with that monomial.
    None when there is no such vector."""
    cols, den = op.block(d)
    monos, rows = space.grade(d)[0], space.grade(d - op.lowers)[0]
    columns = {mono: {rows[r]: Fraction(x, den) for r, x in col.items()}
               for mono, col in zip(monos, cols)}
    for m in rows:
        reach = [mono for mono in monos if m in columns[mono]]
        for u1, u2, u3 in itertools.permutations(reach, 3):
            new = [r for r in columns[u2] if r not in columns[u1] and r not in columns[u3]]
            if new:
                terms = {u1: 1 / columns[u1][m], u2: -1 / columns[u2][m], u3: 1}
                return FockVector(space, terms), m, new[0]
    return None


@pytest.mark.parametrize("model, k, n, label, d", [
    ("p2", 2, 0, "h", 4), ("p2", 2, 1, "1", 5), ("p2", 3, 0, "1", 4), ("point", 3, 0, "pt", 6),
    ("fraction-trace", 2, 0, "h", 4)])
def test_cancelled_monomial_comes_back_at_the_end(model, k, n, label, d):
    alg = fraction_trace_p2() if model == "fraction-trace" else builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    op = W_operator(alg, k, n, alg.element({label: 1}), d, space)
    found = cancelling_vector(op, space, d)
    assert found is not None
    v, m, later = found
    got, want = op.apply(v), ref.block_apply(op, v)
    assert exact(got) == exact(want)
    order = list(got.terms)
    # m left the sum at the second term and came back after its new monomial
    assert order.index(m) > order.index(later)
    for x in (v, v.scale(Fraction(2, 3)), v.scale(CycNum.zeta(3, 1))):
        assert exact(op.apply(x)) == exact(ref.block_apply(op, x))
