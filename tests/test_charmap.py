import random
from fractions import Fraction

import pytest

from wfk.charmap import (
    GradedClassFunction,
    LEHN_SORGER_SIGN,
    ch,
    ch_inverse,
    colored_pairing,
    colored_space,
    cubic_formula,
    delta_op,
    exponential_classes,
    filtered_convolution,
    fock_side_p,
    fw_l_operator,
    fw_virasoro_check,
    k_class_type,
    lehn_sorger_check,
    monomial_type,
    transposition_type,
    type_monomial,
    verify_conv_cubic,
    verify_heisenberg_transport,
)
from wfk.exact import CycNum, cyc
from wfk.fock import FockVector, L_operator, point_model, vacuum
from wfk.groups import (
    ClassFunction,
    binary_dihedral,
    builtin_group,
    class_indicator,
    convolution,
    cyclic_group,
    trivial_group,
)
from wfk.wreath import (
    TypeFunction,
    WreathClassFunction,
    build_wreath,
    enumerate_types,
    induce,
    sigma_n,
    wcf_indicator,
    wreath_pairing,
    wreath_level,
)

from reference_charmap import delta1_explicit_group, transfer_bracket
from reference_wreath import wcf_to_class_function


def test_ch_of_sigma_is_single_creation():
    G = cyclic_group(2)
    cd = G.conjugacy()
    for gamma in G.character_table().irreducibles:
        for n in (1, 2, 3):
            v = ch(G, n, sigma_n(G, n, gamma))
            expected = {}
            for c in range(len(cd)):
                if gamma.values[c] == 0:
                    continue
                expected[((n, c),)] = gamma.values[c] * Fraction(1, cd.centralizer_orders[c])
            assert v == FockVector(colored_space(G), expected)


def test_ch_trivial_group_two_cycle():
    T = trivial_group()
    e = T.conjugacy().class_of[0]
    f = wcf_indicator(T, 2, TypeFunction([(e, (2,))]))
    v = ch(T, 2, f)
    assert v == FockVector(colored_space(T), {((2, e),): Fraction(1, 2)})


def test_ch_vacuum():
    T = trivial_group()
    vac = WreathClassFunction(T, 0, {TypeFunction([]): 1})
    assert ch(T, 0, vac) == vacuum(colored_space(T))


def test_ch_isometry():
    rng = random.Random(6)
    for G in (trivial_group(), cyclic_group(2)):
        for n in (1, 2, 3, 4):
            types = enumerate_types(G, n)
            for _ in range(4):
                f = WreathClassFunction(G, n, {t: rng.randint(-3, 3) for t in types})
                g = WreathClassFunction(G, n, {t: rng.randint(-3, 3) for t in types})
                assert wreath_pairing(f, g) == colored_pairing(G, ch(G, n, f), ch(G, n, g))


def test_ch_isometry_complex_classes():
    # the inverse-class twist matters for Z/3
    rng = random.Random(8)
    G = cyclic_group(3)
    for n in (1, 2):
        types = enumerate_types(G, n)
        for _ in range(4):
            f = WreathClassFunction(G, n, {t: rng.randint(-3, 3) for t in types})
            g = WreathClassFunction(G, n, {t: rng.randint(-3, 3) for t in types})
            assert wreath_pairing(f, g) == colored_pairing(G, ch(G, n, f), ch(G, n, g))


def test_ch_ring_map():
    # ch(Ind(f (x) g)) = ch(f) * ch(g) (monomial multiplication)
    rng = random.Random(17)
    for G in (trivial_group(), cyclic_group(2)):
        for n, m in ((1, 1), (2, 1), (2, 2), (3, 1)):
            tn, tm = enumerate_types(G, n), enumerate_types(G, m)
            f = WreathClassFunction(G, n, {t: rng.randint(-2, 2) for t in tn})
            g = WreathClassFunction(G, m, {t: rng.randint(-2, 2) for t in tm})
            lhs = ch(G, n + m, induce(G, n, m, f, g))
            space = colored_space(G)
            rhs = FockVector(space, {})
            for m1, c1 in ch(G, n, f).terms.items():
                for m2, c2 in ch(G, m, g).terms.items():
                    rhs = rhs + FockVector(space, {tuple(sorted(m1 + m2)): c1 * c2})
            assert lhs == rhs


def test_ch_inverse_round_trip():
    G = cyclic_group(2)
    types = enumerate_types(G, 3)
    rng = random.Random(23)
    f = WreathClassFunction(G, 3, {t: rng.randint(-5, 5) for t in types})
    assert ch_inverse(G, 3, ch(G, 3, f)) == f


def test_heisenberg_transport_reports():
    assert verify_heisenberg_transport(cyclic_group(2), 3).passed
    assert verify_heisenberg_transport(trivial_group(), 4).passed
    r = verify_heisenberg_transport(cyclic_group(2), 0)
    assert r.passed and len(r.probes) == 0


def test_type_monomial_round_trip():
    G = cyclic_group(2)
    for rho in enumerate_types(G, 4):
        assert monomial_type(type_monomial(rho)) == rho


def test_delta1_s2_frozen():
    # Delta_1 maps the transposition indicator to the identity indicator
    T = trivial_group()
    e = T.conjugacy().class_of[0]
    op = delta_op(T, e)
    f = wcf_indicator(T, 2, TypeFunction([(e, (2,))]))
    out = op(f)
    assert out == wcf_indicator(T, 2, TypeFunction([(e, (1, 1))]))


def test_delta1_level_one_is_zero():
    T = trivial_group()
    e = T.conjugacy().class_of[0]
    op = delta_op(T, e)
    f = wcf_indicator(T, 1, TypeFunction([(e, (1,))]))
    assert op(f).is_zero()


def test_delta1_closure_on_z2_level3():
    G = cyclic_group(2)
    cd = G.conjugacy()
    tau = 1 - G.identity
    op = delta_op(G, cd.class_of[tau])
    for rho in enumerate_types(G, 3):
        out = op(wcf_indicator(G, 3, rho))
        # output is a class function: keys are valid level-3 types
        for t in out.values:
            assert t.size() == 3


def test_delta1_matches_explicit_group_convolution():
    # symbolic class-sum convolution against groups.convolution on the table
    for G, n in ((trivial_group(), 3), (cyclic_group(2), 2)):
        W = build_wreath(G, n)
        e_cls = G.conjugacy().class_of[G.identity]
        for c in range(len(G.conjugacy())):
            op = delta_op(G, c)
            k_ind = delta1_explicit_group(W, c)
            for rho in enumerate_types(G, n):
                f = wcf_indicator(G, n, rho)
                lhs = wcf_to_class_function(W, op(f))
                rhs = convolution(wcf_to_class_function(W, f), k_ind)
                assert lhs == rhs


def test_cubic_on_split_example():
    # cubic applied to (1/2) p_{-2} gives (1/2) p_{-1}^2
    T = trivial_group()
    space = colored_space(T)
    op = cubic_formula(4)
    v = FockVector(space, {((2, 0),): Fraction(1, 2)})
    out = op.apply(v)
    assert out == FockVector(space, {((1, 0), (1, 0)): Fraction(1, 2)})
    assert op.apply(vacuum(space)).is_zero()
    assert op.apply(FockVector(space, {((1, 0),): 1})).is_zero()


def test_conv_cubic_small():
    rep = verify_conv_cubic(4)
    assert rep.passed
    assert len(rep.probes) == sum(len(enumerate_types(trivial_group(), n))
                                  for n in range(1, 5))


def test_transfer_property():
    # [Delta_1(a), p_n(b)] depends only on a * b
    G = cyclic_group(2)
    table = G.character_table()
    basis = [class_indicator(G, c) for c in range(2)] + list(table.irreducibles)
    for n in (1, 2):
        for a in basis[:2]:
            for u in basis[:2]:
                for v in basis[:2]:
                    # a * (u * v) = (a * u) * v gives a valid transfer pair
                    b = convolution(u, v)
                    au = convolution(a, u)
                    lhs_op = transfer_bracket(G, a, n, b)
                    rhs_op = transfer_bracket(G, au, n, v)
                    for m in (0, 1, 2):
                        for rho in enumerate_types(G, m):
                            f = wcf_indicator(G, m, rho)
                            assert lhs_op(f) == rhs_op(f)


def test_fw_prefactor_reduction_trivial_group():
    # at the trivial group the bracket reduces to n L_n with unit prefactor
    T = trivial_group()
    from wfk.charmap import fw_l_operator
    one = T.character_table().irreducibles[0]
    L1 = fw_l_operator(T, 0, 1, one, 1)
    # [Delta_1, p_1] f = 1 * |G|^2 * 1 / (1 * 1) L_1 f with |G| = 1
    from wfk.charmap import _commutator, _p_op
    raw = _commutator(delta_op(T, 0), _p_op(T, 1, one))
    for m in (0, 1, 2, 3):
        for rho in enumerate_types(T, m):
            f = wcf_indicator(T, m, rho)
            assert raw(f) == L1(f)


def test_fw_virasoro_z2_small():
    G = cyclic_group(2)
    cd = G.conjugacy()
    tau_cls = cd.class_of[1 - G.identity]
    rep = fw_virasoro_check(G, tau_cls, n_modes=1, m_levels=2)
    assert rep.passed
    assert len(rep.probes) > 0


# `--modes 2` reaches [L_{+-2}, L_{-+1}], whose expected value has the sign
# m - n, and [L_2, L_-2], whose expected value has the central term
@pytest.mark.parametrize("spec, c, levels, probes", [
    ("cyclic:1", None, 3, 140), ("cyclic:2", None, 2, 720), ("cyclic:3", 0, 1, 840),
    ("cyclic:3", 1, 1, 840), ("cyclic:3", 2, 1, 840)])
def test_fw_virasoro_two_modes(spec, c, levels, probes):
    rep = fw_virasoro_check(builtin_group(spec), c, n_modes=2, m_levels=levels)
    assert rep.passed
    assert len(rep.probes) == probes


def test_fw_l_is_the_fock_virasoro_mode_of_opposite_index():
    # on the trivial group L_n(gamma_0) = ch^-1 L^Fock_{-n} ch, L^Fock the W^2
    # modes of the point model on the colored space: the derivation of the
    # expected brackets of `fw_virasoro_check`
    T = trivial_group()
    one = T.character_table().irreducibles[0]
    alg = point_model()
    for n in (-2, -1, 1, 2):
        group_side = fw_l_operator(T, 0, n, one, 1)
        fock_side = L_operator(alg, -n, alg.unit, 10, colored_space(T))
        for m in range(5):
            for rho in enumerate_types(T, m):
                f = wcf_indicator(T, m, rho)
                image = ch_inverse(T, m + n, fock_side.apply(ch(T, m, f)))
                assert group_side(f) == image, (n, rho)


@pytest.mark.parametrize("c", [2, 7, -1])
def test_fw_virasoro_class_out_of_range(c):
    with pytest.raises(ValueError, match="out of range: cyclic-2 has 2 classes"):
        fw_virasoro_check(cyclic_group(2), c, n_modes=1, m_levels=0)


# the first nontrivial self-inverse class, else 0, as `wfk verify fw-virasoro`
# picked it before the default moved into the library
@pytest.mark.parametrize("spec, default", [
    ("cyclic:2", 1), ("cyclic:3", 0), ("cyclic:4", 2), ("binary-dihedral:2", 1)])
def test_fw_virasoro_default_class(spec, default):
    rep = fw_virasoro_check(builtin_group(spec), None, n_modes=1, m_levels=1)
    assert f", class {default}," in rep.suite
    assert rep.to_json() == fw_virasoro_check(builtin_group(spec), default, 1, 1).to_json()


def test_graded_class_function_degree():
    T = trivial_group()
    e = T.conjugacy().class_of[0]
    g = GradedClassFunction.indicator(3, TypeFunction([(e, (2, 1))]))
    assert g.degree == 1
    with pytest.raises(ValueError):
        GradedClassFunction(wcf_indicator(T, 3, TypeFunction([(e, (3,))])), 1)


def test_filtered_convolution_s3_frozen():
    # K_(2,1) cup K_(2,1) = 3 K_(3): the degree-0 term 3 K_(1^3) is cut
    T = trivial_group()
    e = T.conjugacy().class_of[0]
    t21 = GradedClassFunction.indicator(3, TypeFunction([(e, (2, 1))]))
    out = filtered_convolution(t21, t21)
    assert out.degree == 2
    assert out.wcf == WreathClassFunction(T, 3, {TypeFunction([(e, (3,))]): 3})


def test_filtered_convolution_unit():
    T = trivial_group()
    e = T.conjugacy().class_of[0]
    unit = GradedClassFunction.indicator(4, TypeFunction([(e, (1, 1, 1, 1))]))
    for rho in enumerate_types(T, 4):
        f = GradedClassFunction.indicator(4, rho)
        assert filtered_convolution(f, unit) == f
        assert filtered_convolution(unit, f) == f


def test_filtered_convolution_commutative_associative_s4():
    T = trivial_group()
    types = enumerate_types(T, 4)
    fns = [GradedClassFunction.indicator(4, r) for r in types]
    for a in fns:
        for b in fns:
            assert filtered_convolution(a, b) == filtered_convolution(b, a)
    for a in fns:
        for b in fns:
            for c in fns:
                lhs = filtered_convolution(filtered_convolution(a, b), c)
                rhs = filtered_convolution(a, filtered_convolution(b, c))
                assert lhs == rhs


def test_lehn_sorger_small():
    rep = lehn_sorger_check(4)
    assert rep.passed
    assert LEHN_SORGER_SIGN == -1


def test_eq_sign_exponential_identities():
    # ch(eta_n(gamma)) and ch(eps_n(gamma)) match the exponential expansions
    from wfk.wreath import eta_eps_characters
    from wfk.charmap import exponential_classes
    nmax = 4
    for G in (trivial_group(), cyclic_group(2)):
        for gamma in G.character_table().irreducibles:
            for signed in (False, True):
                series = exponential_classes(G, gamma, signed, nmax)
                for n in range(nmax + 1):
                    chi = eta_eps_characters(G, n, gamma, signed)
                    assert ch(G, n, chi) == series[n]


def test_colored_pairing_norms():
    G = cyclic_group(3)
    cd = G.conjugacy()
    space = colored_space(G)
    for c in range(3):
        u = FockVector(space, {((2, c),): 1})
        v = FockVector(space, {((2, cd.inverse_class[c]),): 1})
        assert colored_pairing(G, u, u) == (2 * cd.centralizer_orders[c]
                                            if cd.inverse_class[c] == c else 0)
        assert colored_pairing(G, u, v) == 2 * cd.centralizer_orders[c]


def test_k_class_type_merges_identity():
    T = trivial_group()
    e = T.conjugacy().class_of[0]
    assert k_class_type(T, e, 1, 4) == TypeFunction([(e, (2, 1, 1))])
    assert k_class_type(T, e, 1, 1) is None
    assert transposition_type(5) == TypeFunction([(e, (2, 1, 1, 1))])


def exact_terms(v: FockVector) -> list:
    """The terms in key order, each coefficient with its type and, for a
    CycNum, its canonical form at its conductor."""
    return [(m, type(c), c.key() if isinstance(c, CycNum) else c) for m, c in v.terms.items()]


def fock_images(G) -> list:
    """ch of every class indicator up to level 3, each p_k(gamma) (k = +-1,
    +-2) applied to it, and the exponential series of every irreducible."""
    out = []
    indicators = [(n, wcf_indicator(G, n, rho)) for n in range(4)
                  for rho in wreath_level(G, n).types]
    for gamma in G.character_table().irreducibles:
        for signed in (False, True):
            out += [exact_terms(v) for v in exponential_classes(G, gamma, signed, 3)]
        for k in (-2, -1, 1, 2):
            op = fock_side_p(G, k, gamma)
            for n, f in indicators:
                v = ch(G, n, f)
                out += [exact_terms(v), exact_terms(op.apply(v))]
    return out


def test_colored_space_is_kept_on_the_group():
    G = builtin_group("binary-dihedral:2")
    space = colored_space(G)
    assert colored_space(G) is space
    gamma = G.character_table().irreducibles[-1]
    for n in range(3):
        for rho in wreath_level(G, n).types:
            v = ch(G, n, wcf_indicator(G, n, rho))
            assert v.space is space
            assert fock_side_p(G, 1, gamma).apply(v).space is space
    assert all(v.space is space for v in exponential_classes(G, gamma, True, 3))


def test_a_fresh_group_gives_the_same_fock_images():
    # the space kept on the cached group carries no state into a later call,
    # and a group built afresh gets a space of its own with the same results
    cached = builtin_group("binary-dihedral:2")
    before = fock_images(cached)
    fresh = binary_dihedral.__wrapped__(2)
    assert fresh is not cached and colored_space(fresh) is not colored_space(cached)
    assert fock_images(fresh) == before
    assert fock_images(cached) == before
