import gc
import json
import weakref
from fractions import Fraction

import pytest

from wfk.fock import (
    _BUILTIN_MODELS,
    B_class,
    ColorSpace,
    CutoffTooSmall,
    DegeneratePairing,
    FockVector,
    FrobeniusAlgebra,
    IndexOutOfRange,
    ModelMismatch,
    W_operator,
    L_operator,
    affine_plane_model,
    boundary_operator,
    builtin_model,
    chern_series,
    coproduct_power,
    exponential_series,
    exterior_two_model,
    fock_inner,
    graded_dimension,
    heisenberg_check,
    monomial_basis,
    normal_order,
    p2_model,
    point_model,
    q_mode,
    vacuum,
)
from reference_fock import commutator, operators_equal_below, scale


def mono(space, *gens):
    return FockVector(space, {tuple(sorted(gens)): 1})


def basis_vectors(space, wmax):
    for w in range(wmax + 1):
        for m in monomial_basis(space, w):
            yield FockVector(space, {m: 1})


def test_p2_model_euler_is_3h2():
    alg = p2_model()
    assert alg.euler == alg.element({"h2": 3})
    assert alg.nondegenerate


def test_affine_model_degenerate():
    alg = affine_plane_model()
    assert not alg.nondegenerate
    with pytest.raises(DegeneratePairing):
        coproduct_power(alg, alg.unit, 2)


def test_model_json_round_trip():
    alg = p2_model()
    data = json.loads(json.dumps(alg.to_json()))
    alg2 = FrobeniusAlgebra.from_json(data)
    assert alg2.labels == alg.labels
    assert alg2.pairing == alg.pairing
    assert alg2.euler == alg.euler


def test_heisenberg_bracket_on_models():
    # [q_n(a), q_m(b)] = n d_{n+m} trace(ab) Id
    for alg in (p2_model(), point_model()):
        space = ColorSpace.of_algebra(alg)
        for n in range(-3, 4):
            for m in range(-3, 4):
                for i in range(alg.dim):
                    for j in range(alg.dim):
                        a, b = alg.basis(i), alg.basis(j)
                        br = commutator(q_mode(alg, n, a), q_mode(alg, m, b))
                        scal = alg.trace(alg.mul(a, b)) * n if n + m == 0 else 0
                        for v in basis_vectors(space, 4 - max(abs(n), abs(m))):
                            assert br.apply(v) == v.scale(scal)


def test_heisenberg_check_odd_pairs_use_supercommutator():
    # odd x odd brackets are anticommutators: {q_n(a), q_m(b)} = n d_{n+m} trace(ab) Id
    report = heisenberg_check(exterior_two_model(), 2, 4)
    assert len(report.probes) == 400
    assert report.passed


def test_creation_weight():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    v = q_mode(alg, -1, alg.unit).apply(vacuum(space))
    assert v.weight() == 1


def test_odd_color_square_is_zero():
    alg = exterior_two_model()
    space = ColorSpace.of_algebra(alg)
    a = alg.element({"a": 1})
    v = q_mode(alg, -1, a).apply(q_mode(alg, -1, a).apply(vacuum(space)))
    assert v.is_zero()


def test_odd_colors_anticommute():
    alg = exterior_two_model()
    space = ColorSpace.of_algebra(alg)
    a, b = alg.element({"a": 1}), alg.element({"b": 1})
    ab = q_mode(alg, -1, a).apply(q_mode(alg, -1, b).apply(vacuum(space)))
    ba = q_mode(alg, -1, b).apply(q_mode(alg, -1, a).apply(vacuum(space)))
    assert ab == -ba and not ab.is_zero()


def test_normal_order_single_factor_is_field_mode():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    h = alg.element({"h": 1})
    for n in (-2, -1, 0, 1, 2):
        nop = normal_order(alg, [h], 4, n)
        q = q_mode(alg, n, h)
        assert operators_equal_below(nop, q, space, 3)


def test_normal_order_two_factor_frozen_cases():
    # :ab:_{-2}|0> = a_{-1}(a) a_{-1}(b) |0>;
    # :ab:_{-3}|0> = a_{-1}(a)a_{-2}(b)|0> + a_{-2}(a)a_{-1}(b)|0>;
    # :ab:_0 (a_{-1}(u)|0>) = tr(b u) a_{-1}(a)|0> + tr(a u) a_{-1}(b)|0>
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    one, h, h2 = (alg.basis(i) for i in range(3))
    i_one, i_h, i_h2 = 0, 1, 2
    nop2 = normal_order(alg, [h, h2], 4, -2)
    got = nop2.apply(vacuum(space))
    assert got == mono(space, (1, i_h), (1, i_h2))
    nop3 = normal_order(alg, [h, h2], 4, -3)
    got3 = nop3.apply(vacuum(space))
    expected3 = mono(space, (1, i_h), (2, i_h2)) + mono(space, (2, i_h), (1, i_h2))
    assert got3 == expected3
    nop0 = normal_order(alg, [h, h2], 4, 0)
    u = mono(space, (1, i_h))  # tr(h2*h) = 0, tr(h*h) = 1
    got0 = nop0.apply(u)
    assert got0 == mono(space, (1, i_h2))  # only tr(h*h) a_{-1}(h2) survives


def test_normal_order_mode0_on_vacuum_vanishes():
    alg = p2_model()
    h = alg.element({"h": 1})
    space = ColorSpace.of_algebra(alg)
    assert normal_order(alg, [h, h], 3, 0).apply(vacuum(space)).is_zero()


def test_normal_order_reorder_even_factors():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    one, h = alg.unit, alg.element({"h": 1})
    for n in (-2, 0, 2):
        ab = normal_order(alg, [one, h], 3, n)
        ba = normal_order(alg, [h, one], 3, n)
        assert operators_equal_below(ab, ba, space, 3)


def test_cutoff_enforced():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    nop = normal_order(alg, [alg.unit, alg.unit], 2, 0)
    big = mono(space, (3, 0))
    with pytest.raises(CutoffTooSmall):
        nop.apply(big)


@pytest.mark.parametrize("leaf", ["W", "nop"])
def test_bounded_operators_raise_above_their_bound(leaf):
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    bound = 2
    op = (W_operator(alg, 2, 0, alg.unit, bound, space) if leaf == "W"
          else normal_order(alg, [alg.unit, alg.unit], bound, 0, space))
    small, big = mono(space, (1, 0)), mono(space, (3, 0))
    op.apply(small)
    with pytest.raises(CutoffTooSmall, match=f"above cutoff {bound}"):
        op.apply(small + big)
    # the refused grade is not kept, and the blocks are the only cache
    assert list(op.blocks) == [1]
    assert op._columns == {}


def test_coproduct_k1_identity():
    alg = p2_model()
    h = alg.element({"h": 1})
    assert coproduct_power(alg, h, 1) == [(Fraction(1), [h])]


def test_coproduct_point():
    alg = point_model()
    out = coproduct_power(alg, alg.unit, 2)
    assert len(out) == 1
    coeff, factors = out[0]
    assert coeff == 1 and factors == [list(alg.unit)] * 2


def test_coproduct_p2_diagonal_of_unit():
    alg = p2_model()
    out = coproduct_power(alg, alg.unit, 2)
    # delta_2*(1) = 1 (x) h2 + h (x) h + h2 (x) 1
    expected = {
        (tuple(alg.element({"1": 1})), tuple(alg.element({"h2": 1}))),
        (tuple(alg.element({"h": 1})), tuple(alg.element({"h": 1}))),
        (tuple(alg.element({"h2": 1})), tuple(alg.element({"1": 1}))),
    }
    got = {(tuple(f[0]), tuple(f[1])) for c, f in out}
    assert got == expected
    assert all(c == 1 for c, _ in out)


def test_coproduct_pairing_characterization():
    # <delta_2* a, b1 (x) b2> = trace(a b1 b2) on all basis pairs
    alg = p2_model()
    for ai in range(alg.dim):
        a = alg.basis(ai)
        terms = coproduct_power(alg, a, 2)
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = Fraction(0)
                for coeff, (u, v) in terms:
                    lhs += coeff * alg.trace(alg.mul(tuple(u), alg.basis(i))) * \
                        alg.trace(alg.mul(tuple(v), alg.basis(j)))
                rhs = alg.trace(alg.mul(a, alg.mul(alg.basis(i), alg.basis(j))))
                assert lhs == rhs


def test_W1_equals_heisenberg():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    for n in (-2, -1, 1, 2):
        for i in range(alg.dim):
            w1 = W_operator(alg, 1, n, alg.basis(i), 4)
            q = q_mode(alg, n, alg.basis(i))
            assert operators_equal_below(w1, q, space, 3)


def test_virasoro_bracket_no_central():
    # [L_1(1), L_{-1}(1)] = 2 L_0(1): central term absent since 1^3 - 1 = 0
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    l1 = L_operator(alg, 1, alg.unit, 6)
    lm1 = L_operator(alg, -1, alg.unit, 6)
    l0 = L_operator(alg, 0, alg.unit, 6)
    br = commutator(l1, lm1)
    target = scale(l0, 2)
    assert operators_equal_below(br, target, space, 3)


def test_virasoro_central_term_p2():
    # [L_2(1), L_{-2}(1)] = 4 L_0(1) + (2^3-2)/12 * trace(e) Id with trace(e) = 3;
    # in the mirrored labeling (creation on positive modes) the same equation
    # reads [L'_2, L'_{-2}] = 4 L'_0 - (6/12) trace(e) with L'_n = L_{-n}
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    l2 = L_operator(alg, 2, alg.unit, 8)
    lm2 = L_operator(alg, -2, alg.unit, 8)
    l0 = L_operator(alg, 0, alg.unit, 8)
    br = commutator(l2, lm2)
    central = Fraction(6, 12) * alg.trace(alg.mul(alg.euler, alg.unit))
    assert central == Fraction(3, 2)
    for v in basis_vectors(space, 2):
        assert br.apply(v) == l0.apply(v).scale(4) + v.scale(central)
    # mirrored display with L'_n = -L_{-n}: [L'_2, L'_{-2}] = 4 L'_0 - central
    for v in basis_vectors(space, 2):
        lp2, lpm2, lp0 = scale(lm2, -1), scale(l2, -1), scale(l0, -1)
        lhs = lp2.apply(lpm2.apply(v)) - lpm2.apply(lp2.apply(v))
        rhs = lp0.apply(v).scale(4) - v.scale(central)
        assert lhs == rhs


def test_boundary_affine_frozen():
    alg = affine_plane_model()
    space = ColorSpace.of_algebra(alg)
    d = boundary_operator(alg, "affine-plane")
    v = mono(space, (1, 0), (1, 0))
    assert d.apply(v) == mono(space, (2, 0)).scale(-1)
    assert d.apply(vacuum(space)).is_zero()
    assert d.apply(mono(space, (1, 0))).is_zero()


def test_boundary_projective_requires_trivial_canonical():
    products = {("1", "1"): {"1": 1}, ("1", "h"): {"h": 1}, ("h", "1"): {"h": 1},
                ("1", "h2"): {"h2": 1}, ("h2", "1"): {"h2": 1}, ("h", "h"): {"h2": 1}}
    alg = FrobeniusAlgebra(["1", "h", "h2"], [0, 2, 4], [0, 0, 0], "1", products,
                           {"h2": 1}, canonical={"h": -3})
    with pytest.raises(ModelMismatch):
        boundary_operator(alg, "projective-with-trivial-K", 3)
    with pytest.raises(ModelMismatch):
        boundary_operator(affine_plane_model(), "projective-with-trivial-K", 3)


def test_projective_boundary_takes_any_weight_by_default():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    d = boundary_operator(alg, "projective-with-trivial-K")
    bounded = boundary_operator(alg, "projective-with-trivial-K", 3)
    for w in (1, 2, 3):
        for m in monomial_basis(space, w):
            v = FockVector(space, {m: 1})
            assert d.apply(v) == bounded.apply(v)


def test_lehn_bracket_at_trivial_canonical():
    # [d, q_n(a)] = n L_n(a) for n = +-1 on the P2 ring with no canonical class
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    d = boundary_operator(alg, "projective-with-trivial-K", 8)
    for n in (-1, 1):
        for i in range(alg.dim):
            a = alg.basis(i)
            br = commutator(d, q_mode(alg, n, a))
            target = scale(L_operator(alg, n, a, 8), n)
            assert operators_equal_below(br, target, space, 2)


def test_B_class_examples():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    # B_0(1, n) = n * (1/n!) a_{-1}(1)^n |0>
    for n in (1, 2, 3):
        b0 = B_class(alg, 0, alg.unit, n)
        fact = 1
        for t in range(2, n + 1):
            fact *= t
        expected = mono(space, *(((1, 0),) * n)).scale(Fraction(n, fact))
        assert b0 == expected
    # i = n-1: single creation of gamma
    g = alg.element({"h": 1})
    assert B_class(alg, 2, g, 3) == mono(space, (3, 1))
    with pytest.raises(IndexOutOfRange):
        B_class(alg, 3, g, 3)


def test_B_classes_span_weight_spaces():
    # monomial products of B_i(b, m) classes span each weight-n space, n <= 3
    from wfk import linalg
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    for n in (1, 2, 3):
        basis = monomial_basis(space, n)
        col = {m: k for k, m in enumerate(basis)}
        rows = []
        # generators: B_i(b, m) for m <= n, 0 <= i < m, products padded to weight n
        pieces = [(m, i, bi) for m in range(1, n + 1)
                  for i in range(m) for bi in range(alg.dim)]

        def extend(start, weight_left, vec):
            if weight_left == 0:
                rows.append([vec.terms.get(mb, 0) for mb in basis])
                return
            for idx in range(start, len(pieces)):
                m, i, bi = pieces[idx]
                if m > weight_left:
                    continue
                b = B_class(alg, i, alg.basis(bi), m)
                prod = FockVector(space, {})
                for mono1, c1 in vec.terms.items():
                    for mono2, c2 in b.terms.items():
                        merged = tuple(sorted(mono1 + mono2))
                        prod = prod + FockVector(space, {merged: c1 * c2})
                extend(idx, weight_left - m, prod)

        extend(0, n, vacuum(space))
        assert linalg.rank([[Fraction(x) for x in row] for row in rows]) == len(basis)


def test_chern_series_coefficients():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    c = alg.element({"1": 1, "h": 1})  # c(L) = 1 + c_1(L)
    series = chern_series(alg, c, 2)
    assert series[0] == vacuum(space)
    assert series[1] == q_mode(alg, -1, c).apply(vacuum(space))
    # weight 2: (1/2) a_{-1}(c)^2 - (1/2) a_{-2}(c)
    sq = q_mode(alg, -1, c).apply(q_mode(alg, -1, c).apply(vacuum(space)))
    lin = q_mode(alg, -2, c).apply(vacuum(space))
    assert series[2] == sq.scale(Fraction(1, 2)) - lin.scale(Fraction(1, 2))


def test_graded_dimension_profiles():
    # one even color: partition numbers; one odd color: distinct parts
    assert graded_dimension(point_model(), 5) == [1, 1, 2, 3, 5, 7]
    one_odd = ColorSpace(["t"], [1], [[0]])
    assert graded_dimension(one_odd, 5) == [1, 1, 1, 2, 2, 3]
    assert graded_dimension(p2_model(), 4) == [1, 3, 9, 22, 51]


def test_graded_dimension_zero_colors():
    empty = FrobeniusAlgebra([], [], [], None, {}, {}) if False else None
    # a zero-color space is modeled directly
    space = ColorSpace([], [], [])
    assert [len(monomial_basis(space, w)) for w in range(3)] == [1, 0, 0]


def test_fock_inner_normalization():
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    v1 = mono(space, (1, 0))  # a_{-1}(1)
    w1 = mono(space, (1, 2))  # a_{-1}(h2)
    assert fock_inner(alg, v1, w1) == 1  # 1 * trace(1*h2)
    v2 = mono(space, (2, 1))
    assert fock_inner(alg, v2, mono(space, (2, 1))) == 2 * alg.pairing[1][1]
    # <a_{-1}(x)^2, a_{-1}(y)^2> = 2 * tr(xy)^2 for matched colors
    vsq = mono(space, (1, 0), (1, 0))
    wsq = mono(space, (1, 2), (1, 2))
    assert fock_inner(alg, vsq, wsq) == 2
    assert fock_inner(alg, vacuum(space), vacuum(space)) == 1


def test_caller_built_model_is_freed():
    # the q_mode operators of W_operator live on the space, not in a module cache
    alg = p2_model()
    space = ColorSpace.of_algebra(alg)
    v = mono(space, (1, 1), (1, 1))
    assert not W_operator(alg, 2, 0, alg.unit, 2, space).apply(v).is_zero()
    refs = [weakref.ref(alg), weakref.ref(space)]
    del alg, space, v
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_builtin_model_lookup():
    assert builtin_model("p2").labels == ["1", "h", "h2"]
    with pytest.raises(ValueError):
        builtin_model("nope")


def test_builtin_model_built_once():
    assert builtin_model("p2") is builtin_model("p2")
    assert builtin_model("exterior2") is builtin_model("exterior2")


@pytest.mark.parametrize("name, build", [("p2", p2_model), ("exterior2", exterior_two_model)])
def test_cached_builtin_model_equals_fresh_one(name, build):
    cached, fresh = builtin_model(name), build()
    assert cached is not fresh
    assert vars(cached).keys() == vars(fresh).keys()
    for field, value in vars(fresh).items():
        assert getattr(cached, field) == value, field


@pytest.mark.parametrize("name", sorted(_BUILTIN_MODELS))
def test_euler_class_traces_to_the_super_dimension(name):
    # trace(sum_i (-1)^|b_i| b_i b^i) = sum_i (-1)^|b_i|: chi(P^2) = 3 and
    # chi(T^2) = 0 for the exterior algebra on two odd classes; the affine
    # plane has a degenerate pairing and no Euler class
    alg = builtin_model(name)
    chi = {"point": 1, "p2": 3, "exterior2": 0}.get(name)
    if chi is None:
        assert not alg.nondegenerate and alg.euler is None
        return
    assert alg.trace(alg.euler) == sum((-1) ** p for p in alg.parities) == chi


@pytest.mark.parametrize("name", ["point", "p2"])
def test_euler_class_of_an_even_model_is_the_unsigned_sum(name):
    # with no odd class the sign is 1 throughout: sum_i b_i b^i as before
    alg = builtin_model(name)
    unsigned = alg.zero()
    for i in range(alg.dim):
        unsigned = alg.add(unsigned, alg.mul(alg.basis(i), alg.dual_basis(i)))
    assert alg.euler == unsigned
    assert builtin_model("p2").euler == (0, 0, 3)
