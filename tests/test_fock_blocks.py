"""The Fock bracket suites compare operators grade by grade as exact integer
blocks.  Here the block suites are checked against the per-basis-vector
suites they replaced (`reference_fock.heisenberg_check` and
`virasoro_check`), report for report.  Every mode block, built from the
monomials of its grade, is checked against the term-dict columns of the
reference builders (`reference_fock.create` and `annihilate`), for rational
and cyclotomic coefficients, and every W^k_n and normal-product block
against the term-dict kernel `reference_fock.term_dict_nop_apply`, column by
column.  The join boundary block is checked against the term-dict join of
`reference_fock.join_boundary`, and the projective boundary W^3_0(-1)
against the -W^3_0(1) wrapper it replaced, in value, type and key order.
An operator refuses a vector of a space whose grades differ from its own."""

import json
from fractions import Fraction

import pytest
import reference_charmap
import reference_fock as ref

from wfk.charmap import _p_field, colored_space, cubic_formula, fock_side_p
from wfk.exact import CycNum
from wfk.fock import (
    ColorSpace,
    CutoffTooSmall,
    DegeneratePairing,
    FockVector,
    FrobeniusAlgebra,
    ModelMismatch,
    W_operator,
    _Field,
    boundary_operator,
    builtin_model,
    heisenberg_check,
    join_boundary,
    normal_order,
    virasoro_check,
)
from wfk.groups import (ClassFunction, binary_dihedral, binary_tetrahedral, cyclic_group,
                        trivial_group)

BLOCK_WEIGHT = 4

# p2 with a trace that is not integral and pairs 1 with h^2 as well: the dual
# basis, the coproduct and the Euler element all have fractions in them
FRACTION_TRACE_P2 = {
    "basis": ["1", "h", "h2"], "degrees": [0, 2, 4], "parities": [0, 0, 0], "unit": "1",
    "products": {"1*1": {"1": ["1", "1"]}, "1*h": {"h": ["1", "1"]}, "1*h2": {"h2": ["1", "1"]},
                 "h*1": {"h": ["1", "1"]}, "h2*1": {"h2": ["1", "1"]}, "h*h": {"h2": ["1", "1"]}},
    "trace": {"1": ["1", "5"], "h2": ["3", "2"]},
}


def json_model(data: dict) -> FrobeniusAlgebra:
    return FrobeniusAlgebra.from_json(json.loads(json.dumps(data)))


MODELS = {name: lambda name=name: builtin_model(name) for name in ("point", "p2", "exterior2")}
MODELS["fraction-trace"] = lambda: json_model(FRACTION_TRACE_P2)
MODE_MODELS = {"affine-plane": lambda: builtin_model("affine-plane"), **MODELS}


def outcome(check, alg, modes, cutoff):
    """The report's JSON, or the type and message of the error it raised."""
    try:
        return check(alg, modes, cutoff).to_json()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("suite", ["heisenberg", "virasoro"])
def test_block_suites_match_the_per_vector_suites(model, suite):
    alg = MODELS[model]()
    new, old = {"heisenberg": (heisenberg_check, ref.heisenberg_check),
                "virasoro": (virasoro_check, ref.virasoro_check)}[suite]
    for modes in range(3):
        for cutoff in range(5):
            got = outcome(new, alg, modes, cutoff)
            assert got == outcome(old, alg, modes, cutoff), (modes, cutoff)
            if isinstance(got, dict):
                assert got["pass"], (modes, cutoff)


@pytest.mark.parametrize("model, error", [("affine-plane", DegeneratePairing),
                                          ("exterior2", ModelMismatch)])
def test_virasoro_refusals_match_the_per_vector_suite(model, error):
    alg = builtin_model(model)
    with pytest.raises(error) as got:
        virasoro_check(alg, 1, 2)
    with pytest.raises(error) as want:
        ref.virasoro_check(alg, 1, 2)
    assert str(got.value) == str(want.value)


def test_wrong_euler_fails_exactly_the_central_probes():
    # p2 with the Euler element 2 h^2 in place of 3 h^2: only the n + m = 0
    # brackets with a nonzero (n^3 - n)/12 tr(e ab) can tell
    data = builtin_model("p2").to_json()
    data["euler"] = {"h2": ["2", "1"]}
    alg = json_model(data)
    report = virasoro_check(alg, 2, 3).to_json()
    assert report == ref.virasoro_check(alg, 2, 3).to_json()
    failed = [p["probe"] for p in report["probes"] if not p["equal"]]
    assert failed == ["[L_-2(1), L_2(1)]", "[L_2(1), L_-2(1)]"]


def columns(space: ColorSpace, block: tuple, d: int, shift: int) -> list[dict]:
    """The columns of a block from weight d, lowering the weight by `shift`, as
    {monomial: Fraction}."""
    cols, den = block
    rows = space.grade(d - shift)[0]
    return [{rows[r]: Fraction(x, den) for r, x in col.items()} for col in cols]


def applied(space: ColorSpace, op, d: int) -> list[dict]:
    """`op.apply` of each monomial of weight d, as {monomial: Fraction}."""
    return [{m: Fraction(c) for m, c in op.apply(FockVector(space, {mono: 1})).terms.items()}
            for mono in space.grade(d)[0]]


def homogeneous_elements(alg) -> list:
    """The basis, and an element with Fraction coefficients of each parity
    present."""
    out = [alg.basis(i) for i in range(alg.dim)]
    for parity in sorted(set(alg.parities)):
        out.append(alg.element({lab: Fraction(c, 3) for c, (lab, p) in
                                zip((2, -1, 5, 4), zip(alg.labels, alg.parities))
                                if p == parity}))
    return out


@pytest.mark.parametrize("model", MODE_MODELS)
def test_mode_blocks_are_the_applied_columns(model):
    # the mode's block comes from the monomials of the grade, the reference
    # mode's columns from `create` and `annihilate`
    alg = MODE_MODELS[model]()
    space = ColorSpace.of_algebra(alg)
    for alpha in homogeneous_elements(alg):
        field = space.field(alpha)
        for n in range(-3, 4):
            reference = ref.q_mode(alg, n, alpha, space)
            for d in range(BLOCK_WEIGHT + 1):
                assert columns(space, field.mode(n).block(d), d, n) == applied(
                    space, reference, d), (alpha, n, d)


# the fraction-trace model gives blocks with denominators other than k!
@pytest.mark.parametrize("model, k", [("point", 2), ("p2", 2), ("fraction-trace", 2),
                                      ("point", 3), ("p2", 3)])
def test_W_blocks_are_the_applied_columns(model, k):
    alg = MODELS[model]()
    space = ColorSpace.of_algebra(alg)
    weight = BLOCK_WEIGHT if k == 2 else 3
    for alpha in homogeneous_elements(alg):
        for n in range(-3, 4):
            op = W_operator(alg, k, n, alpha, weight, space)
            reference = ref.term_dict_W_operator(alg, k, n, alpha, weight, space)
            for d in range(weight + 1):
                assert columns(space, op.block(d), d, n) == applied(space, reference, d)


@pytest.mark.parametrize("labels", [("a", "b"), ("a", "ab", "b"), ("1", "a", "a")],
                         ids="*".join)
def test_odd_product_blocks_are_the_applied_columns(labels):
    # the parity sign of the annihilation part, which no W operator reaches
    alg = builtin_model("exterior2")
    space = ColorSpace.of_algebra(alg)
    factors = [alg.element({lab: 1}) for lab in labels]
    fields = [_Field(space, f) for f in factors]
    for n in range(-3, 4):
        reference = ref.term_dict_normal_order(alg, factors, BLOCK_WEIGHT, n, space)
        for d in range(BLOCK_WEIGHT + 1):
            assert columns(space, space.product(tuple(fields), n).block(d), d, n) == \
                applied(space, reference, d)


def exact_columns(space: ColorSpace, block: tuple, d: int, shift: int) -> list[list]:
    """The entries of each column of a block of CycNum numerators over 1, in
    key order, as (monomial, type, canonical form at its conductor)."""
    cols, den = block
    assert den == 1
    rows = space.grade(d - shift)[0]
    return [[(rows[r], type(x), x.key()) for r, x in col.items()] for col in cols]


def reference_columns(space: ColorSpace, op, d: int) -> list[list]:
    """The reference operator's column of each monomial of weight d, as
    `exact_columns` gives them."""
    return [[(m, type(c), c.key()) for m, c in op.fn(FockVector(space, {mono: 1})).terms.items()]
            for mono in space.grade(d)[0]]


def mixed_conductors(group) -> ClassFunction:
    """A class function with values at conductors 1 and e."""
    e = group.exponent()
    return ClassFunction(group, [c + 1 if c % 2 == 0 else CycNum.zeta(e, c)
                                 for c in range(len(group.conjugacy()))])


@pytest.mark.parametrize("group", [cyclic_group(3), binary_dihedral(2), binary_tetrahedral()],
                         ids=["Z3", "BD2", "BT"])
def test_cyclotomic_mode_blocks_are_the_reference_columns(group):
    # every p_k(gamma) has a block of CycNum numerators over 1, equal to the
    # columns of the reference builders in value, type, conductor and key order
    space = colored_space(group)
    for gamma in [*group.character_table().irreducibles, mixed_conductors(group)]:
        for k in (1, 2, 3):
            for op, reference, shift in (
                    (fock_side_p(group, k, gamma), ref.colored_creation_op(group, k, gamma), -k),
                    (fock_side_p(group, -k, gamma), ref.colored_annihilation_op(group, k, gamma),
                     k)):
                for d in range(BLOCK_WEIGHT + 1):
                    assert exact_columns(space, op.block(d), d, shift) == (
                        reference_columns(space, reference, d)), (gamma, k, shift, d)


def test_cyclotomic_field_is_kept_and_refused_in_block_sums():
    # the field of a p-element keys its CycNum coefficients by their canonical
    # form; a block sum holds int numerators, so products of it are refused
    group = cyclic_group(3)
    space = colored_space(group)
    for gamma in group.character_table().irreducibles:
        p = _p_field(group, gamma)
        field = space.field(p)
        assert space.field(list(p)) is field
        op, want = field.mode(-1), fock_side_p(group, 1, gamma)
        for d in range(BLOCK_WEIGHT + 1):
            for mono in space.grade(d)[0]:
                v = FockVector(space, {mono: 1})
                assert [(m, type(c), c.key()) for m, c in op.apply(v).terms.items()] == [
                    (m, type(c), c.key()) for m, c in want.apply(v).terms.items()], mono
        with pytest.raises(ModelMismatch, match="nop0: a block sum needs rational"):
            normal_order(None, [p, p], BLOCK_WEIGHT, 0, space)
        with pytest.raises(ModelMismatch, match="W1_-1: a block sum needs rational"):
            W_operator(None, 1, -1, p, BLOCK_WEIGHT, space)


def test_join_boundary_block_is_the_reference_join():
    # the block holds the old `fn`'s int values over 1, in its key order; the
    # columns read off it are those values as Fractions
    space = ColorSpace(["x"], [0], [[1]])
    op, reference = join_boundary(space), ref.join_boundary(space)
    for d in range(9):
        cols, den = op.block(d)
        assert den == 1 and all(type(x) is int for col in cols for x in col.values())
        for mono in space.grade(d)[0]:
            v = FockVector(space, {mono: 1})
            got, want = op.apply(v).terms, reference.fn(v).terms
            assert list(got.items()) == list(want.items()), mono
            assert all(type(c) is Fraction for c in got.values())


@pytest.mark.parametrize("space", [ColorSpace(["x"], [1], [[1]]),
                                   ColorSpace(["x", "y"], [0, 0], [[1, 0], [0, 1]])],
                         ids=["odd", "two-colors"])
def test_join_boundary_needs_one_even_color(space):
    # on an odd color the old `fn` gave non-canonical monomials:
    # ((1,0),(2,0),(3,0)) went to a term ((3,0),(3,0))
    with pytest.raises(ModelMismatch, match="the join boundary operator needs"):
        join_boundary(space)
    if space.parities == [1]:
        image = ref.join_boundary(space).fn(FockVector(space, {((1, 0), (2, 0), (3, 0)): 1}))
        assert ((3, 0), (3, 0)) in image.terms


@pytest.mark.parametrize("weight", [6, None])
def test_projective_boundary_is_the_scaled_cubic(weight):
    # W^3_0(-1) against the old -W^3_0(1) wrapper, in value, type and key order
    alg = builtin_model("p2")
    space = ColorSpace.of_algebra(alg)
    op = boundary_operator(alg, "projective-with-trivial-K", weight, space)
    old = ref.scale(W_operator(alg, 3, 0, alg.unit, weight, space), -1)
    for d in range(7):
        for mono in space.grade(d)[0]:
            v = FockVector(space, {mono: 1})
            got, want = op.apply(v).terms, old.apply(v).terms
            assert [(m, type(c), c) for m, c in got.items()] == [
                (m, type(c), c) for m, c in want.items()], mono
    if weight is not None:
        above = FockVector(space, {space.grade(7)[0][0]: 1})
        with pytest.raises(CutoffTooSmall) as by_block:
            op.apply(above)
        with pytest.raises(CutoffTooSmall) as by_wrapper:
            old.apply(above)
        assert str(by_block.value) == str(by_wrapper.value) == (
            "W3_0: input weight 7 above cutoff 6")


def test_block_above_the_cutoff_is_refused_as_its_column_is():
    alg = builtin_model("p2")
    space = ColorSpace.of_algebra(alg)
    for n in (-1, 0, 2):
        op = W_operator(alg, 2, n, alg.unit, 3, space)
        op.block(3)
        with pytest.raises(CutoffTooSmall) as by_block:
            op.block(4)
        with pytest.raises(CutoffTooSmall) as by_column:
            op.apply(FockVector(space, {space.grade(4)[0][0]: 1}))
        assert str(by_block.value) == str(by_column.value) == (
            f"W2_{n}: input weight 4 above cutoff 3")


def test_operator_refuses_a_vector_of_another_space():
    # a block is read by positions in its own space's grades: a vector of a
    # space with other parities or another pairing is refused, one whose
    # grades list the same monomials is taken (the cubic of the point model
    # reads `ch` vectors of the trivial group's colored space)
    p2 = builtin_model("p2")
    op = W_operator(p2, 2, 0, p2.unit, 4)
    x = ColorSpace(["x"], [0], [[1]], name="x")
    with pytest.raises(ModelMismatch, match="W2_0: an operator on p2 applied to a vector of x"):
        op.apply(FockVector(x, {((1, 0), (1, 0)): 1}))
    other_pairing = ColorSpace(p2.labels, p2.parities, [[0, 0, 2], [0, 2, 0], [2, 0, 0]])
    with pytest.raises(ModelMismatch, match="an operator on p2 applied to a vector of colors"):
        op.apply(FockVector(other_pairing, {((1, 0),): 1}))
    same = ColorSpace.of_algebra(p2)
    v = FockVector(same, {((1, 1), (1, 2)): 3})
    assert op.apply(v) == W_operator(p2, 2, 0, p2.unit, 4, same).apply(v)
    cubic = cubic_formula(4)
    trivial = colored_space(trivial_group())
    for d in range(5):
        for mono in trivial.grade(d)[0]:
            w = FockVector(trivial, {mono: 1})
            assert cubic.apply(w).space is trivial
            assert cubic.apply(w) == reference_charmap.cubic_formula(4).apply(w)
