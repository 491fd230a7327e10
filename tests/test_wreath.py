import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from wfk.exact import cyc
from wfk.groups import (ClassFunction, FiniteGroup, GroupMismatch, binary_dihedral,
                        cyclic_group, inner_product, symmetric_group, trivial_group)
from wfk.wreath import (
    TypeFunction,
    WreathElement,
    build_wreath,
    centralizer_order,
    enumerate_types,
    eta_eps_characters,
    heisenberg_p,
    induce,
    induce_bruteforce,
    restrict,
    sigma_n,
    type_of,
    weighted_form,
    wcf_indicator,
    wcf_zero,
    wreath_class_types,
    wreath_inverse,
    wreath_level,
    wreath_mult,
    wreath_pairing,
    WreathClassFunction,
)

from reference_wreath import p_minus_adjoint, wcf_to_class_function, wreath_identity


def irreducibles(G):
    return G.character_table().irreducibles


def test_enumerate_types_counts():
    z2 = cyclic_group(2)
    assert len(enumerate_types(z2, 0)) == 1
    assert len(enumerate_types(z2, 2)) == 5
    # p(4) = 5 for the trivial group
    assert len(enumerate_types(trivial_group(), 4)) == 5
    # coefficient of q^n in prod (1-q^m)^(-2): 1, 2, 5, 10, 20
    assert [len(enumerate_types(z2, n)) for n in range(5)] == [1, 2, 5, 10, 20]


def test_union_equals_the_sorted_construction():
    # union merges two sorted class tuples; the result must be the type the
    # constructor builds from the pooled parts, down to its stored tuple
    types = [t for n in range(4) for t in enumerate_types(cyclic_group(3), n)]
    for a in types:
        for b in types:
            pooled: dict[int, list[int]] = {}
            for c, p in a + b:
                pooled.setdefault(c, []).extend(p)
            expected = TypeFunction(pooled.items())
            assert tuple(a.union(b)) == tuple(expected)
            assert hash(a.union(b)) == hash(expected)


@pytest.mark.parametrize("group,top", [(lambda: cyclic_group(2), 4),
                                       (lambda: binary_dihedral(2), 2)], ids=["Z2", "BD2"])
def test_types_hash_as_their_pair_tuples(group, top):
    # the set unions of `WreathClassFunction.__add__` order their keys by
    # hash, and the printed key order of every level depends on it
    for n in range(top + 1):
        for t in enumerate_types(group(), n):
            pairs = tuple((c, tuple(p)) for c, p in t)
            assert type(pairs) is tuple and pairs == t
            assert hash(t) == hash(pairs)


def test_type_of_identity():
    G = cyclic_group(2)
    a = wreath_identity(G, 3)
    rho = type_of(G, 3, a)
    e_cls = G.conjugacy().class_of[G.identity]
    assert rho == TypeFunction([(e_cls, (1, 1, 1))])


def test_type_of_two_cycle_with_twist():
    # a = ((tau, e), (1 2)): single 2-cycle, cycle product tau
    G = cyclic_group(2)
    cd = G.conjugacy()
    tau = 1 - G.identity
    a = WreathElement((tau, G.identity), (1, 0))
    rho = type_of(G, 2, a)
    assert rho == TypeFunction([(cd.class_of[tau], (2,))])


def test_type_invariant_under_conjugation():
    G = cyclic_group(3)
    n = 3
    lvl = wreath_level(G, n)
    rng = random.Random(5)
    elems = lvl.batch(np.arange(lvl.order)).elements()
    for _ in range(30):
        a = rng.choice(elems)
        h = rng.choice(elems)
        conj = wreath_mult(G, wreath_mult(G, h, a), wreath_inverse(G, h))
        assert type_of(G, n, a) == type_of(G, n, conj)


def test_wreath_mult_associative_sample():
    G = cyclic_group(2)
    lvl = wreath_level(G, 3)
    elems = lvl.batch(np.arange(lvl.order)).elements()
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rng.choice(elems) for _ in range(3))
        lhs = wreath_mult(G, wreath_mult(G, a, b), c)
        rhs = wreath_mult(G, a, wreath_mult(G, b, c))
        assert lhs == rhs


def test_build_wreath_orders_and_classes():
    z2 = cyclic_group(2)
    W2 = build_wreath(z2, 2)
    assert W2.order == 8
    W3 = build_wreath(z2, 3)
    assert W3.order == 48
    assert len(W3.conjugacy()) == 10
    S4 = build_wreath(trivial_group(), 4)
    assert S4.order == 24
    assert len(S4.conjugacy()) == 5


def test_class_type_bijection_and_sizes():
    # explicit classes biject with enumerated types, sizes |G_n| / Z_rho
    for G, nmax in ((cyclic_group(2), 3), (cyclic_group(3), 3)):
        for n in range(1, nmax + 1):
            W = build_wreath(G, n)
            cd = W.conjugacy()
            types = wreath_class_types(W)
            assert sorted(map(repr, types)) == sorted(map(repr, enumerate_types(G, n)))
            for c, rho in enumerate(types):
                assert cd.class_sizes[c] == W.order // centralizer_order(G, rho)


def test_centralizer_formula_bruteforce_gate():
    # Z_rho must equal the literal centralizer count in the explicit group
    for G, nmax in ((cyclic_group(2), 3), (cyclic_group(3), 3)):
        for n in range(1, nmax + 1):
            W = build_wreath(G, n)
            cd = W.conjugacy()
            types = wreath_class_types(W)
            for c, rho in enumerate(types):
                assert cd.centralizer_orders[c] == centralizer_order(G, rho)


def test_centralizer_examples():
    G = cyclic_group(2)
    cd = G.conjugacy()
    tau_cls = cd.class_of[1 - G.identity]
    # n-cycle with product class c: Z = n * zeta_c
    assert centralizer_order(G, TypeFunction([(tau_cls, (2,))])) == 4
    triv = trivial_group()
    e_cls = triv.conjugacy().class_of[0]
    assert centralizer_order(triv, TypeFunction([(e_cls, (1,) * 4)])) == 24


def test_sigma_n_values():
    G = cyclic_group(2)
    cd = G.conjugacy()
    trivial = irreducibles(G)[0] if irreducibles(G)[0].values[1] == 1 else irreducibles(G)[1]
    s2 = sigma_n(G, 2, trivial)
    for c in range(2):
        assert s2.value(TypeFunction([(c, (2,))])) == 2
    e_cls = cd.class_of[G.identity]
    assert s2.value(TypeFunction([(e_cls, (1, 1))])) == 0


def test_sigma_1_is_gamma():
    G = cyclic_group(3)
    for gamma in irreducibles(G):
        s1 = sigma_n(G, 1, gamma)
        for c in range(3):
            assert s1.value(TypeFunction([(c, (1,))])) == gamma.values[c]


def test_sigma_linearity():
    G = cyclic_group(2)
    a, b = irreducibles(G)
    lhs = sigma_n(G, 3, a + b)
    rhs = sigma_n(G, 3, a) + sigma_n(G, 3, b)
    assert lhs == rhs


def test_induce_regular_of_s2():
    # Ind of triv (x) triv from S_1 x S_1 to S_2 = trivial + sign
    T = trivial_group()
    e_cls = T.conjugacy().class_of[0]
    triv1 = wcf_indicator(T, 1, TypeFunction([(e_cls, (1,))]))
    ind = induce(T, 1, 1, triv1, triv1)
    assert ind.value(TypeFunction([(e_cls, (1, 1))])) == 2
    assert ind.value(TypeFunction([(e_cls, (2,))])) == 0


def test_induce_vacuum_identity():
    G = cyclic_group(2)
    vac = WreathClassFunction(G, 0, {TypeFunction([]): 1})
    f = sigma_n(G, 2, irreducibles(G)[0])
    assert induce(G, 2, 0, f, vac) == f


def test_induce_matches_bruteforce():
    # the class-based Frobenius sum equals the literal element loop
    for G in (trivial_group(), cyclic_group(2)):
        for n, m in ((1, 1), (2, 1), (1, 2)):
            for rho_a in enumerate_types(G, n):
                fa = wcf_indicator(G, n, rho_a)
                for rho_b in enumerate_types(G, m):
                    fb = wcf_indicator(G, m, rho_b)
                    assert induce(G, n, m, fa, fb) == induce_bruteforce(G, n, m, fa, fb)


def test_frobenius_reciprocity():
    G = cyclic_group(2)
    rng = random.Random(3)
    types2 = enumerate_types(G, 2)
    types1 = enumerate_types(G, 1)
    types3 = enumerate_types(G, 3)
    for _ in range(10):
        f = WreathClassFunction(G, 2, {t: rng.randint(-3, 3) for t in types2})
        g = WreathClassFunction(G, 1, {t: rng.randint(-3, 3) for t in types1})
        h = WreathClassFunction(G, 3, {t: rng.randint(-3, 3) for t in types3})
        lhs = wreath_pairing(induce(G, 2, 1, f, g), h)
        res = restrict(G, 2, 1, h)
        cd = G.conjugacy()
        rhs = cyc(0)
        for (alpha, beta), v in res.items():
            w = f.value(alpha.inverse(cd.inverse_class)) * g.value(beta.inverse(cd.inverse_class))
            rhs = rhs + w * v * Fraction(
                1, centralizer_order(G, alpha) * centralizer_order(G, beta))
        assert lhs == rhs


def test_induce_and_restrict_reject_another_base_group():
    G2, G3 = cyclic_group(2), cyclic_group(3)
    f2 = wcf_indicator(G2, 1, enumerate_types(G2, 1)[0])
    f3 = wcf_indicator(G3, 1, enumerate_types(G3, 1)[0])
    for f, g in ((f3, f3), (f2, f3), (f3, f2)):
        with pytest.raises(GroupMismatch):
            induce(G2, 1, 1, f, g)
    with pytest.raises(GroupMismatch):
        restrict(G2, 1, 1, induce(G3, 1, 1, f3, f3))


def test_caller_built_group_is_freed():
    # level views and explicit builds live on the group, not in module caches
    G = FiniteGroup(cyclic_group(3).mult, name="C3")
    gamma = irreducibles(G)[1]
    f = heisenberg_p(G, 2, gamma).apply(wcf_indicator(G, 0, TypeFunction([])))
    assert not heisenberg_p(G, -2, gamma).apply(f).is_zero()
    assert build_wreath(G, 2) is build_wreath(G, 2)
    assert wreath_level(G, 3) is wreath_level(G, 3)
    ref = weakref.ref(G)
    del G, gamma, f
    gc.collect()
    assert ref() is None


def test_heisenberg_p1_on_vacuum():
    G = cyclic_group(2)
    triv = [g for g in irreducibles(G) if all(v == 1 for v in g.values)][0]
    vac = WreathClassFunction(G, 0, {TypeFunction([]): 1})
    out = heisenberg_p(G, 1, triv).apply(vac)
    # sigma_1(triv) = trivial character of Gamma_1 = Gamma
    for c in range(2):
        assert out.value(TypeFunction([(c, (1,))])) == 1


def test_heisenberg_bracket_level_one():
    # [p_1(a), p_-1(b)] = -<a,b> Id on R(Gamma_m), m <= 2
    G = cyclic_group(2)
    gammas = irreducibles(G)
    for a in gammas:
        for b in gammas:
            pa = heisenberg_p(G, 1, a)
            pb = heisenberg_p(G, -1, b)
            scal = -inner_product(a, b)
            for m in (0, 1, 2):
                for rho in enumerate_types(G, m):
                    f = wcf_indicator(G, m, rho)
                    br = pa.apply(pb.apply(f)) - pb.apply(pa.apply(f))
                    assert br == f.scale(scal)


def test_same_sign_modes_commute():
    G = cyclic_group(2)
    a, b = irreducibles(G)
    p2 = heisenberg_p(G, 2, a)
    p1 = heisenberg_p(G, 1, b)
    for rho in enumerate_types(G, 1):
        f = wcf_indicator(G, 1, rho)
        assert p2.apply(p1.apply(f)) == p1.apply(p2.apply(f))


def test_p_minus_equals_adjoint_route():
    # restriction path vs adjoint-by-pairing path
    G = cyclic_group(2)
    for gamma in irreducibles(G):
        for m in (1, 2, 3):
            for n in (1, 2):
                if m < n:
                    continue
                op = heisenberg_p(G, -n, gamma)
                for rho in enumerate_types(G, m):
                    f = wcf_indicator(G, m, rho)
                    assert op.apply(f) == p_minus_adjoint(G, n, gamma, f)


def test_creation_monomials_span():
    # iterated creations from the vacuum span R(Gamma_n), n <= 3
    from wfk import linalg
    G = cyclic_group(2)
    gammas = irreducibles(G)
    for n in (1, 2, 3):
        types = enumerate_types(G, n)
        vectors = []
        # one monomial per (partition of n, coloring of its parts by irreducibles)
        def monomials(remaining, maxpart, acc):
            if remaining == 0:
                vectors.append(list(acc))
                return
            for p in range(min(remaining, maxpart), 0, -1):
                for gi, gamma in enumerate(gammas):
                    monomials(remaining - p, p, acc + [(p, gi)])

        monomials(n, n, [])
        rows = []
        for mono in vectors:
            vec = WreathClassFunction(G, 0, {TypeFunction([]): 1})
            for (p, gi) in mono:
                vec = heisenberg_p(G, p, gammas[gi]).apply(vec)
            rows.append([vec.value(t) for t in types])
        # deduplicate reorderings, then rank over the cyclotomics
        assert linalg.rank(rows) == len(types)


def test_eta_eps_level_one():
    G = cyclic_group(2)
    for gamma in irreducibles(G):
        eta = eta_eps_characters(G, 1, gamma, signed=False)
        eps = eta_eps_characters(G, 1, gamma, signed=True)
        s1 = sigma_n(G, 1, gamma)
        assert eta == s1 and eps == s1


def test_eps_of_trivial_is_sign_character():
    T = trivial_group()
    e_cls = T.conjugacy().class_of[0]
    one = ClassFunction(T, [1])
    for n in (2, 3, 4):
        eps = eta_eps_characters(T, n, one, signed=True)
        for rho in enumerate_types(T, n):
            expected = 1 if (n - rho.total_length()) % 2 == 0 else -1
            assert eps.value(rho) == expected


def test_eta_matches_explicit_tensor_character():
    # character of the 4-dim representation Q (x) Q of Z2 wr S2, traced explicitly
    G = cyclic_group(2)
    W = build_wreath(G, 2)
    types = wreath_class_types(W)
    Q = G.matrix_model
    from wfk.groups import defining_character
    eta = eta_eps_characters(G, 2, defining_character(G), signed=False)
    cd = W.conjugacy()
    for c, rep in enumerate(cd.class_reps):
        (a,) = wreath_level(G, 2).batch(np.array([rep])).elements()
        # matrix of a on C^2 (x) C^2: (v1 (x) v2) -> g1 v_{s^-1(1)} (x) g2 v_{s^-1(2)}
        sinv = [a.s.index(i) for i in range(2)]
        trace = cyc(0)
        for i in range(2):
            for j in range(2):
                src = (i, j)
                coef = cyc(1)
                dst_j = [None, None]
                # coordinate k of the image picks factor sinv[k]
                coef = Q[a.g[0]][i][src[sinv[0]]] * Q[a.g[1]][j][src[sinv[1]]]
                trace = trace + coef
        assert eta.value(types[c]) == trace


def test_eta_eps_are_genuine_characters():
    # inner products with all irreducibles of the explicit group are
    # non-negative integers
    G = cyclic_group(2)
    from wfk.groups import defining_character
    for n in (1, 2, 3):
        W = build_wreath(G, n)
        tab = W.character_table()
        for gamma in irreducibles(G):
            for signed in (False, True):
                chi = wcf_to_class_function(W, eta_eps_characters(G, n, gamma, signed))
                for row in tab.irreducibles:
                    m = inner_product(chi, row).as_rational()
                    assert m.denominator == 1 and m >= 0


def test_weighted_form_one_point():
    # n=1, xi = 2*triv - Q, f = g = trivial: value 2 (diagonal Cartan entry)
    G = cyclic_group(2)
    from wfk.groups import defining_character, trivial_character
    xi = trivial_character(G).scale(2) - defining_character(G)
    e_cls = G.conjugacy().class_of[G.identity]
    f = WreathClassFunction(G, 1, {TypeFunction([(c, (1,))]): v
                                   for c, v in enumerate(trivial_character(G).values)})
    assert weighted_form(G, 1, f, f, xi) == 2


def test_weighted_form_untwisted_reduces_to_pairing():
    G = cyclic_group(2)
    from wfk.groups import trivial_character
    rng = random.Random(9)
    types = enumerate_types(G, 2)
    for _ in range(5):
        f = WreathClassFunction(G, 2, {t: rng.randint(-3, 3) for t in types})
        g = WreathClassFunction(G, 2, {t: rng.randint(-3, 3) for t in types})
        assert weighted_form(G, 2, f, g, trivial_character(G)) == wreath_pairing(f, g)


def test_weighted_form_symmetry():
    G = cyclic_group(2)
    from wfk.groups import defining_character, trivial_character
    xi = trivial_character(G).scale(2) - defining_character(G)
    rng = random.Random(13)
    for n in (1, 2, 3):
        types = enumerate_types(G, n)
        for _ in range(4):
            f = WreathClassFunction(G, n, {t: rng.randint(-2, 2) for t in types})
            g = WreathClassFunction(G, n, {t: rng.randint(-2, 2) for t in types})
            assert weighted_form(G, n, f, g, xi) == weighted_form(G, n, g, f, xi)


def test_budget_applies_to_cached_class_orbit():
    from wfk.budget import BudgetExceeded, budget_override

    G = cyclic_group(2)
    lvl = wreath_level(G, 2)
    rho = enumerate_types(G, 2)[0]
    assert lvl.class_elements(rho)  # computed and cached
    with budget_override(7), pytest.raises(BudgetExceeded, match="class orbit in level 2"):
        lvl.class_elements(rho)
