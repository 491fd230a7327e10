import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_series as ref
from wfk.budget import BudgetExceeded, budget_override
from wfk.groups import binary_dihedral, cyclic_group, trivial_group
from wfk.series import (
    GSet,
    NonIntegralResult,
    PowerSeries,
    euler_product,
    gottsche_poincare,
    hodge_product,
    orbifold_euler_bruteforce,
    swap_action,
    wreath_gset,
    wreath_orbifold_euler,
    wreath_orbifold_euler_check,
)
from wfk.wreath import WreathLevel, enumerate_types, wreath_level


def pentagonal_partition_numbers(order):
    """Independent oracle: p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_euler_product_partition_numbers():
    order = 12
    coeffs = euler_product(1, order).q_coefficients_scalar()
    assert coeffs == [Fraction(x) for x in pentagonal_partition_numbers(order)]


def test_euler_product_zero_and_two():
    assert euler_product(0, 6).q_coefficients_scalar() == [1, 0, 0, 0, 0, 0, 0]
    two = euler_product(2, 4).q_coefficients_scalar()
    assert two == [1, 2, 5, 10, 20]
    # cross-module count: types of Z/2 wreath levels
    z2 = cyclic_group(2)
    assert [len(enumerate_types(z2, n)) for n in range(5)] == two


def test_euler_product_negative_exponent():
    series = euler_product(-1, 6) * euler_product(1, 6)
    assert series.q_coefficients_scalar() == [1, 0, 0, 0, 0, 0, 0]


def test_euler_exponent_additivity():
    order = 12
    for e1, e2 in ((1, 1), (2, 3), (-2, 5)):
        lhs = euler_product(e1, order) * euler_product(e2, order)
        assert lhs == euler_product(e1 + e2, order)


def test_gottsche_q1_coefficient():
    b = (1, 2, 3, 2, 1)
    series = gottsche_poincare(b, 3)
    poly = series.q_coefficient(1)
    # q^1 coefficient is b0 + b1 t + b2 t^2 + b3 t^3 + b4 t^4
    assert poly == {(0,): 1, (1,): 2, (2,): 3, (3,): 2, (4,): 1}


def test_gottsche_p2_q2_frozen():
    series = gottsche_poincare((1, 0, 1, 0, 1), 4)
    poly = series.q_coefficient(2)
    assert poly == {(0,): 1, (2,): 2, (4,): 3, (6,): 2, (8,): 1}


def test_gottsche_t_specializations():
    b = (1, 0, 1, 0, 1)
    order = 8
    series = gottsche_poincare(b, order)
    at1 = series.substitute_unit("t", 1)
    # h_ev = 3, h_odd = 0: matches prod (1-q^m)^(-3)
    assert at1 == euler_product(3, order)
    atm1 = series.substitute_unit("t", -1)
    assert atm1 == euler_product(1 - 0 + 1 - 0 + 1, order)


def test_gottsche_with_odd_betti_at_unit():
    b = (1, 2, 2, 2, 1)
    order = 6
    series = gottsche_poincare(b, order)
    h_ev, h_odd = 4, 4
    at1 = series.substitute_unit("t", 1)
    # (1+q^m)^{h_odd} / (1-q^m)^{h_ev} expansion equals the specialization
    expected = euler_product(h_ev, order)
    for m in range(1, order + 1):
        from wfk.series import _binomial_plus
        expected = expected * _binomial_plus(("q",), order, {"q": m}, h_odd)
    assert at1 == expected
    # Euler number 0: t = -1 gives 1
    atm1 = series.substitute_unit("t", -1)
    assert atm1.q_coefficients_scalar() == [1] + [0] * order


def test_graded_dimension_matches_product_formula():
    # cross-module: Fock monomial counts equal the product expansion
    from wfk.fock import ColorSpace, graded_dimension
    from wfk.series import _binomial_plus
    profiles = [(1, 0), (0, 1), (3, 0), (2, 2)]
    order = 6
    for h_ev, h_odd in profiles:
        space = ColorSpace([f"e{i}" for i in range(h_ev)] + [f"o{i}" for i in range(h_odd)],
                           [0] * h_ev + [1] * h_odd,
                           [[0] * (h_ev + h_odd)] * (h_ev + h_odd))
        counts = graded_dimension(space, order)
        series = euler_product(h_ev, order)
        for m in range(1, order + 1):
            series = series * _binomial_plus(("q",), order, {"q": m}, h_odd)
        assert [Fraction(c) for c in counts] == series.q_coefficients_scalar()


def test_hodge_q1_is_e_polynomial():
    h = {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    series = hodge_product(h, 3)
    poly = series.q_coefficient(1)
    assert poly == {(0, 0): 1, (1, 1): -1 * -1, (2, 2): 1}
    # e(X; x, y) = sum (-1)^(s+t) h^(s,t) x^s y^t: all plus for P2
    assert poly == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_hodge_p2_q2_specialization_matches_poincare():
    h = {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    series = hodge_product(h, 2)
    # substitute x = y = t by re-keying exponents
    poly = series.q_coefficient(2)
    collapsed = {}
    for (s, t), c in poly.items():
        collapsed[s + t] = collapsed.get(s + t, Fraction(0)) + c
    expected = gottsche_poincare((1, 0, 1, 0, 1), 2).q_coefficient(2)
    assert collapsed == {k[0]: v for k, v in expected.items()}


def test_hodge_structural_identity():
    h1 = {(0, 0): 1, (1, 1): 4, (2, 2): 1}
    h2 = dict(h1)
    assert hodge_product(h1, 4) == hodge_product(h2, 4)


def test_orbifold_point_counts_classes():
    for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4)):
        S = GSet.trivial(G, 1)
        assert orbifold_euler_bruteforce(S) == len(G.conjugacy())


def test_orbifold_trivial_group():
    S = GSet.trivial(trivial_group(), 5)
    assert orbifold_euler_bruteforce(S) == 5


def test_orbifold_swap_frozen():
    # Z/2 swapping two points: (2 + 0 + 0 + 0)/2 = 1
    S = swap_action(cyclic_group(2))
    assert orbifold_euler_bruteforce(S) == 1


def test_swap_action_needs_two_points():
    with pytest.raises(ValueError, match="at least two points to swap, got 1"):
        swap_action(cyclic_group(2), 1)


def test_orbifold_bruteforce_obeys_the_budget():
    S = GSet.trivial(cyclic_group(3), 2)
    with budget_override(2), pytest.raises(BudgetExceeded, match="exceeds budget 2"):
        orbifold_euler_bruteforce(S)
    with budget_override(3):
        assert orbifold_euler_bruteforce(S) == 6


def test_wreath_orbifold_z2_point():
    S = GSet.trivial(cyclic_group(2), 1)
    rep = wreath_orbifold_euler_check(S, 4)
    assert rep.passed
    values = [p.lhs for p in rep.probes]
    assert values == ["1", "2", "5", "10", "20"]


def test_wreath_orbifold_trivial_point():
    S = GSet.trivial(trivial_group(), 1)
    rep = wreath_orbifold_euler_check(S, 4)
    assert rep.passed
    assert [p.lhs for p in rep.probes] == ["1", "1", "2", "3", "5"]


def test_wreath_orbifold_z3_and_two_points():
    assert wreath_orbifold_euler_check(GSet.trivial(cyclic_group(3), 1), 3).passed
    assert wreath_orbifold_euler_check(swap_action(cyclic_group(2)), 3).passed
    assert wreath_orbifold_euler_check(GSet.trivial(trivial_group(), 2), 4).passed


# the base sets of acceptance criterion 9
BASES = {
    "trivial-1": lambda: GSet.trivial(trivial_group(), 1),
    "trivial-2": lambda: GSet.trivial(trivial_group(), 2),
    "Z2-1": lambda: GSet.trivial(cyclic_group(2), 1),
    "Z2-swap": lambda: swap_action(cyclic_group(2)),
    "Z3-1": lambda: GSet.trivial(cyclic_group(3), 1),
    "Z3-2": lambda: GSet.trivial(cyclic_group(3), 2),
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_level_count_matches_table_path(name):
    # gate: the count on the level arrays against the explicit Gamma_n and its
    # GSet, from the edge case n = 0 up
    S = BASES[name]()
    for n in range(5):
        assert wreath_orbifold_euler(S, n) == orbifold_euler_bruteforce(wreath_gset(S, n)), n


def test_level_count_matches_table_path_at_level_5():
    S = GSet.trivial(cyclic_group(2), 1)
    assert wreath_orbifold_euler(S, 5) == orbifold_euler_bruteforce(wreath_gset(S, 5)) == 36


# (base set, top level) for the permutation-first sweep against the full one
SWEEP_BASES = {
    "trivial-1": (lambda: GSet.trivial(trivial_group(), 1), 5),
    "trivial-2": (lambda: GSet.trivial(trivial_group(), 2), 5),
    "Z2-1": (lambda: GSet.trivial(cyclic_group(2), 1), 5),
    "Z2-swap": (lambda: swap_action(cyclic_group(2)), 5),
    "Z3-1": (lambda: GSet.trivial(cyclic_group(3), 1), 5),
    "Z3-rotate": (lambda: GSet(cyclic_group(3), [[(x + g) % 3 for x in range(3)]
                                                 for g in range(3)]), 4),
    "BD2-1": (lambda: GSet.trivial(binary_dihedral(2), 1), 3),
}


@pytest.mark.parametrize("name", sorted(SWEEP_BASES))
def test_permutation_first_sweep_matches_full_sweep(name):
    # gate: the count that walks only the permutations commuting with each
    # representative's against the sweep of the whole level it replaced
    make, top = SWEEP_BASES[name]
    S = make()
    for n in range(top + 1):
        assert wreath_orbifold_euler(S, n) == ref.wreath_orbifold_euler(S, n), n


def test_sweep_walks_only_the_commuting_permutations(monkeypatch):
    # at Z/2 level 5 every type is live on one point; the sweep hands `batch`
    # the |C_{S_5}(s_rho)| permutations that commute with each representative,
    # each with its 2^5 Gamma-parts, not all 3,840 elements for each of the 36
    # types.  The action check hands it the whole level once per generator row.
    G, n = cyclic_group(2), 5
    S = GSet.trivial(G, 1)
    level = wreath_level(G, n)
    handed = []
    batch = WreathLevel.batch

    def counted(self, index):
        handed.append(len(index))
        return batch(self, index)

    monkeypatch.setattr(WreathLevel, "batch", counted)
    assert wreath_orbifold_euler(S, n) == 36
    generator_rows = (n - 1) + len(G.generators)
    swept = sum(handed) - generator_rows * level.order
    centralizers = 0
    for rho in level.types:
        cycle_type = sorted(r for _, parts in rho for r in parts)
        z = 1
        for r in set(cycle_type):
            m = cycle_type.count(r)
            z *= r ** m * factorial(m)
        centralizers += z
    assert swept == centralizers * G.order ** n
    assert swept < len(level.types) * level.order


def unchecked_gset(G, table):
    """A GSet whose table skipped the check of `GSet.__init__`."""
    S = object.__new__(GSet)
    S.group, S.table, S.points = G, np.array(table, dtype=np.int32), len(table[0])
    return S


@pytest.mark.parametrize("table", [[[0, 1], [1, 1]], [[1, 0], [0, 1]]])
def test_level_count_checks_the_action_as_gset_does(table):
    # not a bijection, and an identity that moves points
    G = cyclic_group(2)
    with pytest.raises(ValueError) as base_error:
        GSet(G, table)
    for n in (1, 2, 3):
        with pytest.raises(ValueError) as table_error:
            wreath_gset(unchecked_gset(G, table), n)
        with pytest.raises(ValueError) as level_error:
            wreath_orbifold_euler(unchecked_gset(G, table), n)
        assert str(level_error.value) == str(table_error.value) == str(base_error.value)


def test_action_validation():
    G = cyclic_group(2)
    with pytest.raises(ValueError):
        GSet(G, [[0, 1], [1, 1]])  # tau not a bijection compatible with product


def test_series_ring_guards():
    a = euler_product(1, 5)
    b = euler_product(1, 6)
    with pytest.raises(ValueError):
        _ = a * b
    with pytest.raises(ValueError):
        PowerSeries(("t", "q"), 3)


def init_product(a, b):
    """a * b as `__mul__` built it before `_of`: summed from Fraction(0) and
    sent through `__init__`."""
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            if e1[0] + e2[0] <= a.order:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return PowerSeries(a.variables, a.order, out)


def test_product_drops_cancelled_terms():
    one_plus = PowerSeries(("q",), 4, {(0,): 1, (1,): 1})
    one_minus = PowerSeries(("q",), 4, {(0,): 1, (1,): -1})
    product = one_plus * one_minus
    assert product.coeffs == {(0,): 1, (2,): -1}
    assert list(product.coeffs.items()) == list(init_product(one_plus, one_minus).coeffs.items())


def test_product_matches_init_in_key_order():
    factors = [euler_product(2, 5), euler_product(-1, 5),
               gottsche_poincare((1, 2, 1, 2, 1), 5), gottsche_poincare((1, 0, 1, 0, 1), 5),
               hodge_product({(0, 0): 1, (1, 1): 1}, 5), hodge_product({(0, 1): 1}, 5)]
    for a in factors:
        for b in factors:
            if a.variables != b.variables:
                continue
            got = a * b
            want = init_product(a, b)
            assert got.variables == want.variables and got.order == want.order
            assert ([(e, type(c), c) for e, c in got.coeffs.items()]
                    == [(e, type(c), c) for e, c in want.coeffs.items()])


def test_fraction_product_matches_init_in_key_order():
    # Fraction coefficients with unlike denominators, and sums that cancel:
    # the product over one common denominator keeps the value, the Fraction
    # type and the key order
    rng = random.Random("series-fractions")
    exponents = [(q, t) for q in range(5) for t in range(3)]
    for _ in range(40):
        a, b = (PowerSeries(("q", "t"), 4, {e: Fraction(rng.randint(-3, 3), rng.randint(1, 6))
                                            for e in rng.sample(exponents, 6)})
                for _ in range(2))
        for x, y in ((a, b), (b, a), (a, a)):
            got, want = x * y, init_product(x, y)
            assert ([(e, type(c), c) for e, c in got.coeffs.items()]
                    == [(e, type(c), c) for e, c in want.coeffs.items()])


def typed(s: PowerSeries) -> list:
    """The coefficients of s as (exponent, type, value), by exponent."""
    return sorted((e, type(c), c) for e, c in s.coeffs.items())


def assert_same_series(got: PowerSeries, want: PowerSeries) -> None:
    assert (got.variables, got.order) == (want.variables, want.order)
    assert typed(got) == typed(want)


BETTI = [(1, 0, 1, 0, 1), (1, 2, 1, 2, 1), (1, 4, 6, 4, 1), (1, 0, 22, 0, 1), (0, 0, 0, 0, 0)]
HODGE = {
    "P2": {(0, 0): 1, (1, 1): 1, (2, 2): 1},
    "K3": {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1},
    "abelian": {(0, 0): 1, (1, 0): 2, (0, 1): 2, (2, 0): 1, (1, 1): 4, (0, 2): 1,
                (2, 1): 2, (1, 2): 2, (2, 2): 1},
}


@pytest.mark.parametrize("order", [0, 1, 12])
@pytest.mark.parametrize("betti", BETTI, ids=lambda b: "".join(map(str, b)))
def test_gottsche_matches_reference(betti, order):
    assert_same_series(gottsche_poincare(betti, order), ref.gottsche_poincare(betti, order))


@pytest.mark.parametrize("order", [0, 1, 12])
def test_euler_product_matches_reference(order):
    for e in range(-3, 25):
        assert_same_series(euler_product(e, order), ref.euler_product(e, order))


@pytest.mark.parametrize("order", [0, 1, 12])
@pytest.mark.parametrize("name", sorted(HODGE))
def test_hodge_product_matches_reference(name, order):
    h = HODGE[name]
    assert_same_series(hodge_product(h, order), ref.hodge_product(h, order))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=5, max_size=5), st.integers(-6, 6),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-2, 3),
                       max_size=4),
       st.integers(0, 6))
def test_product_formulas_match_reference_on_random_data(betti, e, h, order):
    betti = tuple(betti)
    assert_same_series(gottsche_poincare(betti, order), ref.gottsche_poincare(betti, order))
    assert_same_series(euler_product(e, order), ref.euler_product(e, order))
    assert_same_series(hodge_product(h, order), ref.hodge_product(h, order))


def test_series_of_different_orders_differ():
    # the same coefficients truncated at different orders are different series
    assert euler_product(0, 3).coeffs == euler_product(0, 5).coeffs
    assert euler_product(0, 3) != euler_product(0, 5)
    assert euler_product(0, 3) == euler_product(0, 3)
