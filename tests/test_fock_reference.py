"""The in-place accumulation of `wfk.fock` against the column-by-column
application it replaced, `ColorSpace.mode` against the three mode builders
it replaced and against its own term-dict columns (`term_dict_mode`), the
W^k_n and normal-product columns read off grade blocks against the
term-dict kernel they replaced, and `monomial_basis` against the sorting
enumeration it replaced (`reference_fock.py`).  Every
coefficient, its type and conductor, and the key order of the terms must
agree, on every monomial up to weight 4 (weight 3 for the modes, weight 5
for the block-read columns) and on seeded random vectors with Fraction and
CycNum coefficients."""

import random
import re
from fractions import Fraction

import pytest
import reference_fock as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from wfk.charmap import (_p_field, ch, colored_space, cubic_formula, exponential_classes,
                         fock_side_p)
from wfk.exact import CycNum
from wfk.fock import (
    ColorSpace,
    FockVector,
    FrobeniusAlgebra,
    W_operator,
    _add_into,
    _Field,
    builtin_model,
    chern_series,
    coproduct_power,
    monomial_basis,
    normal_order,
    point_model,
    q_mode,
    vacuum,
)
from wfk.groups import (
    ClassFunction,
    binary_dihedral,
    binary_tetrahedral,
    cyclic_group,
    trivial_group,
)
from wfk.linop import LinearOperator
from wfk.wreath import wcf_indicator, wreath_level

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


def assert_same(op: LinearOperator, ref_op: LinearOperator, vectors) -> None:
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
            # the block-read columns against the reference builders' columns,
            # applied column by column
            assert_same(fock_side_p(group, k, gamma),
                        ref.reference_op(ref.colored_creation_op(group, k, gamma)), vectors)
            assert_same(fock_side_p(group, -k, gamma),
                        ref.reference_op(ref.colored_annihilation_op(group, k, gamma)),
                        vectors)


# ---------------------------------------------------------------------------
# ColorSpace.mode against creation_op / q_mode and the colored p-mode builders
# ---------------------------------------------------------------------------

MODE_WEIGHT = 3


def mode_vectors(space: ColorSpace, rng: random.Random, e: int) -> list[FockVector]:
    """Every monomial up to weight 3, then seeded random vectors with Fraction
    and with CycNum coefficients of conductor e."""
    return (unit_vectors(space, MODE_WEIGHT)
            + random_vectors(space, rng, rational, wmax=MODE_WEIGHT)
            + random_vectors(space, rng, cyclotomic(e), wmax=MODE_WEIGHT))


def homogeneous_elements(alg, rng: random.Random) -> list:
    """The basis, and two random Fraction elements of each parity present."""
    out = [alg.basis(i) for i in range(alg.dim)]
    for parity in sorted(set(alg.parities)):
        for _ in range(2):
            out.append(alg.element({lab: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    for lab, p in zip(alg.labels, alg.parities)
                                    if p == parity}))
    return out


@pytest.mark.parametrize("model", ["point", "p2", "exterior2"])
def test_q_mode_matches_reference(model):
    rng = random.Random(f"q-{model}")
    alg = builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    vectors = mode_vectors(space, rng, 4)
    for alpha in homogeneous_elements(alg, rng):
        for n in range(-3, 4):
            assert_same(q_mode(alg, n, alpha, space), ref.q_mode(alg, n, alpha, space),
                        vectors)
            assert_same(q_mode(alg, n, alpha), ref.q_mode(alg, n, alpha), vectors[:20])


def test_mixed_parity_mode_raises_as_before():
    alg = builtin_model("exterior2")
    mixed = alg.element({"1": 1, "a": 1})
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="parity-homogeneous"):
            ref.q_mode(alg, n, mixed)
        with pytest.raises(ValueError, match="parity-homogeneous"):
            q_mode(alg, n, mixed)


GROUPS = [cyclic_group(3), binary_dihedral(2), binary_tetrahedral()]


def mixed_conductors(group) -> ClassFunction:
    """A class function whose values lie at conductors 1 and e: a weight
    summed over the zero kappa entries too would move to conductor e."""
    e = group.exponent()
    return ClassFunction(group, [c + 1 if c % 2 == 0 else CycNum.zeta(e, c)
                                 for c in range(len(group.conjugacy()))])


@pytest.mark.parametrize("group", GROUPS, ids=["Z3", "BD2", "BT"])
def test_fock_side_p_matches_colored_builders(group):
    rng = random.Random(f"p-{group.name}")
    space = colored_space(group)
    vectors = mode_vectors(space, rng, group.exponent())
    for gamma in [*group.character_table().irreducibles, mixed_conductors(group)]:
        for k in (1, 2, 3):
            assert_same(fock_side_p(group, k, gamma),
                        ref.colored_creation_op(group, k, gamma), vectors)
            assert_same(fock_side_p(group, -k, gamma),
                        ref.colored_annihilation_op(group, k, gamma), vectors)
        with pytest.raises(ValueError, match="mode 0"):
            fock_side_p(group, 0, gamma)


def cyclotomic_elements(space: ColorSpace) -> list:
    """Coefficient lists of one parity over the colors of `space`: a CycNum
    of conductor 1, CycNums of conductors 3 and 4 beside Fractions, and zeros
    beside them."""
    odd = any(space.parities)
    out = []
    for values in ([CycNum.from_rational(2)], [CycNum.zeta(3), Fraction(-1, 2)],
                   [Fraction(2, 3) + CycNum.zeta(4, 3), CycNum.zeta(3, 2), Fraction(0)]):
        coeffs = [Fraction(0)] * len(space.labels)
        slots = [b for b, p in enumerate(space.parities) if p == odd]
        for b, x in zip(slots, values):
            coeffs[b] = x
        out.append(coeffs)
    return out


@pytest.mark.parametrize("name", ["point", "p2", "exterior2", "BD2"])
def test_mode_matches_its_term_dict_columns(name):
    # the block-read columns against the `create`/`annihilate` columns of the
    # `fn` closures `ColorSpace.mode` had, for Fraction and CycNum coefficients
    rng = random.Random(f"mode-{name}")
    if name == "BD2":
        group = binary_dihedral(2)
        space = colored_space(group)
        fields = [_p_field(group, gamma) for gamma in group.character_table().irreducibles]
    else:
        alg = builtin_model(name)
        space = ColorSpace.of_algebra(alg)
        fields = homogeneous_elements(alg, rng)
    vectors = mode_vectors(space, rng, 12)
    for coeffs in fields + cyclotomic_elements(space):
        for n in range(-3, 4):
            assert_same(space.mode(n, coeffs), ref.term_dict_mode(space, n, coeffs), vectors)


MONOMIAL_WEIGHT = 8


@pytest.mark.parametrize("name", ["point", "p2", "exterior2", "BT", "no colors"])
def test_monomial_basis_matches_reference(name):
    # the same monomials in the same order: the row order of every block
    if name == "BT":
        space = colored_space(binary_tetrahedral())
    elif name == "no colors":
        space = ColorSpace([], [], [])
    else:
        space = ColorSpace.of_algebra(builtin_model(name))
    for w in range(MONOMIAL_WEIGHT + 1):
        assert monomial_basis(space, w) == ref.monomial_basis(space, w), w


def assert_same_series(series, ref_series) -> None:
    assert len(series) == len(ref_series)
    for v, w in zip(series, ref_series):
        assert exact(v) == exact(w)


@pytest.mark.parametrize("group", GROUPS[:2], ids=["Z3", "BD2"])
@pytest.mark.parametrize("signed", [True, False])
def test_exponential_classes_match_reference(group, signed):
    for gamma in group.character_table().irreducibles:
        assert_same_series(exponential_classes(group, gamma, signed, 4),
                           ref.exponential_classes(group, gamma, signed, 4))


def test_chern_series_matches_reference():
    rng = random.Random("chern-p2")
    alg = builtin_model("p2")
    for gamma in homogeneous_elements(alg, rng):
        assert_same_series(chern_series(alg, gamma, 4), ref.chern_series(alg, gamma, 4))


def test_cancelled_monomial_returns_at_the_end():
    # the columns of m1, m2, m3 add A then B, cancel A, and bring A back: the
    # column-by-column sum keeps B first
    space = ColorSpace(["x"], [0], [[1]])
    m1, m2, m3, a, b = (((n, 0),) for n in range(1, 6))
    cols = {m1: {a: 1, b: 1}, m2: {a: -1}, m3: {a: 2}}
    op = ref.FnFockOperator(lambda v: FockVector(space, cols[next(iter(v.terms))]))
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


# ---------------------------------------------------------------------------
# the term-dict _nop_apply (reference_fock.term_dict_nop_apply) against the vector-level
# kernel it replaced, the block-read W^k_n and normal-product columns against
# the term-dict kernel, and the unit rule of _add_into
# ---------------------------------------------------------------------------

def assert_nop_same(space: ColorSpace, factors, modes, vectors) -> None:
    """The term-dict `term_dict_nop_apply` on the fields of `space` against
    `vector_nop_apply` on fresh fields, whose modes cache their own columns."""
    fields = [space.field(f) for f in factors]
    ref_fields = [_Field(space, f) for f in factors]
    for n in modes:
        for x in vectors:
            got = FockVector._of(space, ref.term_dict_nop_apply(fields, n, x.terms))
            assert exact(got) == exact(ref.vector_nop_apply(ref_fields, n, x)), (n, x)


COLUMN_WEIGHT = 5


def fraction_elements(alg, rng: random.Random) -> list:
    """The basis, and one random element with Fraction coefficients when the
    model is even."""
    out = [alg.basis(i) for i in range(alg.dim)]
    if not any(alg.parities):
        out.append(alg.element({lab: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for lab in alg.labels}))
    return out


def typed(terms: list) -> list:
    """Coproduct terms with the type of every scalar beside it."""
    return [((type(c), c), [[(type(x), x) for x in f] for f in factors])
            for c, factors in terms]


@pytest.mark.parametrize("model", ["point", "p2", "fraction-trace", "exterior2", "affine"])
def test_coproduct_power_matches_reference(model):
    # the same terms in the same order, or the same refusal
    rng = random.Random(f"coproduct-{model}")
    if model == "fraction-trace":
        data = builtin_model("p2").to_json()
        data["trace"] = {"1": ["1", "5"], "h2": ["3", "2"]}
        alg = FrobeniusAlgebra.from_json(data)
    else:
        alg = builtin_model(model)
    for alpha in fraction_elements(alg, rng):
        for k in range(1, 5):
            try:
                want = typed(ref.coproduct_power(alg, alpha, k))
            except ValueError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    coproduct_power(alg, alpha, k)
                continue
            assert typed(coproduct_power(alg, alpha, k)) == want, (alpha, k)


# W^2 and W^3 only where coproduct_power allows, i.e. on even models
@pytest.mark.parametrize("model,k", [("point", 1), ("point", 2), ("point", 3), ("p2", 1),
                                     ("p2", 2), ("p2", 3), ("exterior2", 1)])
def test_W_columns_from_blocks_match_the_term_dict_kernel(model, k):
    rng = random.Random(f"W-columns-{model}-{k}")
    alg = builtin_model(model)
    for alpha in fraction_elements(alg, rng):
        for n in range(-3, 4):
            space = ColorSpace.of_algebra(alg)
            assert_same(W_operator(alg, k, n, alpha, COLUMN_WEIGHT, space),
                        ref.term_dict_W_operator(alg, k, n, alpha, COLUMN_WEIGHT, space),
                        unit_vectors(space, COLUMN_WEIGHT))


@pytest.mark.parametrize("model", ["point", "p2", "exterior2"])
def test_W_columns_from_blocks_on_random_vectors(model):
    # vectors of several weights with Fraction coefficients, applied through
    # the column cache of each side
    rng = random.Random(f"W-vectors-{model}")
    alg = builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    vectors = random_vectors(space, rng, rational, count=10)
    for k in (1,) if any(alg.parities) else (1, 2, 3):
        for alpha in fraction_elements(alg, rng):
            for n in range(-3, 4):
                assert_same(W_operator(alg, k, n, alpha, MAX_WEIGHT, space),
                            ref.term_dict_W_operator(alg, k, n, alpha, MAX_WEIGHT, space),
                            vectors)


def test_nop_apply_matches_vector_kernel_on_p2_virasoro():
    # every monomial of weight <= 6 under each term of L_n(alpha), n = -4..4,
    # the range `fock verify --suite virasoro --modes 2 --cutoff 4` reaches
    alg = builtin_model("p2")
    space = ColorSpace.of_algebra(alg)
    vectors = unit_vectors(space, 6)
    for i in range(alg.dim):
        for _, factors in coproduct_power(alg, alg.basis(i), 2):
            assert_nop_same(space, factors, range(-4, 5), vectors)


@pytest.mark.parametrize("model", ["point", "p2"])
def test_nop_apply_matches_vector_kernel_on_cubic(model):
    rng = random.Random(f"cubic-{model}")
    alg = builtin_model(model)
    space = ColorSpace.of_algebra(alg)
    vectors = (unit_vectors(space) + random_vectors(space, rng, rational)
               + random_vectors(space, rng, cyclotomic(4)))
    for _, factors in coproduct_power(alg, alg.unit, 3):
        assert_nop_same(space, factors, (0,), vectors)


def test_nop_apply_matches_vector_kernel_on_conv_cubic():
    # W^3_0(1) of the point model on the colors of the trivial group, applied
    # to the ch images of the class indicators as `verify conv-cubic` does
    rng = random.Random("conv-cubic")
    T = trivial_group()
    alg = point_model()
    space = colored_space(T)
    images = [ch(T, n, wcf_indicator(T, n, rho))
              for n in range(1, 7) for rho in wreath_level(T, n).types]
    vectors = images + random_vectors(space, rng, cyclotomic(3), wmax=6)
    for _, factors in coproduct_power(alg, alg.unit, 3):
        assert_nop_same(space, factors, (0,), vectors)
    assert_same(cubic_formula(6), ref.W_operator(alg, 3, 0, alg.unit, 6, space), images)


EXTERIOR2_PRODUCTS = [("a", "b"), ("1", "a"), ("b", "ab"), ("a", "a"),
                      ("a", "b", "ab"), ("1", "a", "b"), ("b", "ab", "a"), ("a", "1", "a")]


@pytest.mark.parametrize("labels", EXTERIOR2_PRODUCTS, ids="*".join)
def test_normal_order_matches_vector_kernel_with_odd_fields(labels):
    rng = random.Random("-".join(labels))
    alg = builtin_model("exterior2")
    space = ColorSpace.of_algebra(alg)
    factors = [alg.element({lab: 1}) for lab in labels]
    vectors = unit_vectors(space) + random_vectors(space, rng, rational)
    assert_nop_same(space, factors, range(-3, 4), vectors)
    ref_fields = [_Field(space, f) for f in factors]
    for n in range(-3, 4):
        reference = ref.FnFockOperator(lambda v, n=n: ref.vector_nop_apply(ref_fields, n, v),
                                       MAX_WEIGHT)
        assert_same(normal_order(alg, factors, MAX_WEIGHT, n, space), reference, vectors)
        assert_same(normal_order(alg, factors, COLUMN_WEIGHT, n, space),
                    ref.term_dict_normal_order(alg, factors, COLUMN_WEIGHT, n, space),
                    unit_vectors(space, COLUMN_WEIGHT))


def test_add_into_unit_fraction_scale():
    m = ((1, 0),)
    for c in (Fraction(3, 2), Fraction(-4)):
        acc: dict = {}
        _add_into(acc, {m: c}, Fraction(1))
        assert type(acc[m]) is Fraction and acc[m] == c
    acc = {}
    _add_into(acc, {m: 5}, Fraction(1))
    assert type(acc[m]) is Fraction and acc[m] == 5
    z = CycNum.zeta(4, 1) + Fraction(1, 3)
    acc = {}
    _add_into(acc, {m: z}, Fraction(1))
    assert acc[m].key() == (z * Fraction(1)).key()


@pytest.mark.parametrize("draw", [rational, cyclotomic(4)], ids=["Fraction", "CycNum"])
def test_add_into_matches_reference(draw):
    rng = random.Random(f"add-into-{draw.__name__}")
    monos = monomials(P2_SPACE, 3)
    scales = [None, 1, -1, Fraction(1), Fraction(-1), Fraction(2, 3), CycNum.zeta(4, 1)]
    for _ in range(40):
        acc = {m: draw(rng) for m in rng.sample(monos, 8)}
        acc = {m: c for m, c in acc.items() if not is_zero(c)}
        terms = {m: draw(rng) for m in rng.sample(monos, 8)}
        terms = {m: c for m, c in terms.items() if not is_zero(c)}
        for s in scales:
            got, want = dict(acc), dict(acc)
            _add_into(got, terms, s)
            ref.reference_add_into(want, terms, s)
            assert (exact(FockVector._of(P2_SPACE, got))
                    == exact(FockVector._of(P2_SPACE, want))), s
