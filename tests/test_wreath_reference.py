"""The support sums of `wfk.wreath.induce` and of p_{-k} against the split
enumeration and the level sweeps they replaced (`reference_wreath.py`), on
seeded random class functions up to total level 4, where the element-loop
oracle `induce_bruteforce` cannot go.  Values, conductors and key order must
all agree, because reports print `WreathClassFunction.values` as they are.
The members of each class found by type must be the conjugation orbit the
reference finds, as a set.  The numpy element batches are gated against the
tuple loops they replaced: the class members must be the list the type scan
finds, in order, and `induce_bruteforce` must agree with the tuple-by-tuple
Frobenius sum in value, conductor and key order, level 0 and the splits
with an empty side included, and with the sweep of the whole level it ran
before it tested the permutation parts first, in value, `key()` and key
order.  The explicit Gamma_n table filled one permutation block at a time
must be the row-by-row table byte for byte,
with the same permutation actions, and its level's batch must list the
elements the row-by-row build stores.  The one encoding of the elements on
`WreathLevel` is gated against the tuple paths it replaced: the
representatives against `representative_of_type`, the whole-level batch
against `elements`, and the class types and the wreath GSet of the explicit
groups against the tuple `wreath_class_types` and `wreath_gset`.
`WreathClassFunction.scale` takes a value as it is when the coefficient is
a `CycNum` one of a dividing conductor.  A sum of scaled columns through
`+` and `scale`, as the fw-Virasoro operators form it, must agree with the
full products and with the `sum_scaled` it replaced in value, conductor and
key order, and `+`, `-`, negation and `scale`, which build their results
from canonical values without `cyc()`, must agree with the coerced sums
they replaced in the same way, cancellation and scaling by 0 included.  Each class built from its type must be the rows
the label scan of the whole level found, in order.  The bracket suite, which
multiplies the level blocks of the p_k(gamma), must print the report of the
dict-column loop it replaced, probe by probe."""

import random
from fractions import Fraction

import numpy as np
import pytest
import reference_wreath as ref

from wfk.charmap import k_class_type
from wfk.exact import CycNum
from wfk.groups import (ClassFunction, FiniteGroup, binary_dihedral, cyclic_group,
                        trivial_group)
from wfk.series import GSet, orbifold_euler_bruteforce, swap_action, wreath_gset
from wfk.wreath import (TypeFunction, WreathClassFunction, WreathElement, WreathLevel,
                        build_wreath, enumerate_types, heisenberg_check, heisenberg_p,
                        induce, induce_bruteforce, wreath_class_types, wreath_level)

GROUPS = {"Z2": lambda: cyclic_group(2), "Z3": lambda: cyclic_group(3),
          "BD2": lambda: binary_dihedral(2)}
MAX_LEVEL = 4
CLASS_LEVELS = {"trivial": (trivial_group, 5), "Z2": (GROUPS["Z2"], 3),
                "Z3": (GROUPS["Z3"], 3), "BD2": (GROUPS["BD2"], 2)}
# (base group, top level) for the element batches against the tuple loops
BATCH_LEVELS = {"trivial": (trivial_group, 5), "Z2": (GROUPS["Z2"], 4),
                "Z3": (GROUPS["Z3"], 4), "BD2": (GROUPS["BD2"], 2)}


def same(a: WreathClassFunction, b: WreathClassFunction) -> bool:
    """Equal values at equal conductors, keyed in the same order."""
    return (a.group is b.group and a.n == b.n and a.values == b.values
            and [(k, v.to_json()) for k, v in a.values.items()]
            == [(k, v.to_json()) for k, v in b.values.items()])


def random_value(rng: random.Random, e: int):
    """A small value in Q(zeta_e), zero about a third of the time."""
    if rng.random() < 1 / 3:
        return 0
    v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return v + rng.randint(-2, 2) * CycNum.zeta(e, rng.randrange(e)) if e > 1 else v


def random_wcf(G, n: int, rng: random.Random) -> WreathClassFunction:
    e = G.exponent()
    types = enumerate_types(G, n)
    support = rng.sample(types, rng.randint(1, len(types)))
    return WreathClassFunction(G, n, {t: random_value(rng, e) for t in support})


def unions(u: WreathClassFunction, v: WreathClassFunction) -> set:
    return {a.union(b) for a in u.values for b in v.values}


def levels():
    return [(n, m) for n in range(MAX_LEVEL + 1) for m in range(MAX_LEVEL + 1 - n)]


@pytest.mark.parametrize("name", GROUPS)
def test_induce_matches_split_enumeration(name):
    G = GROUPS[name]()
    rng = random.Random(sum(map(ord, name)))
    for n, m in levels():
        f, g = random_wcf(G, n, rng), random_wcf(G, m, rng)
        assert same(induce(G, n, m, f, g), ref.induce(G, n, m, f, g))


@pytest.mark.parametrize("name", GROUPS)
def test_induce_with_cancelling_terms(name):
    # x and y on disjoint supports: Ind((x+y) (x) (x-y)) = Ind(x (x) x) -
    # Ind(y (x) y), so the sum at a type alpha u beta with alpha in supp x and
    # beta in supp y, and no other split within x or within y, passes through
    # zero and must be pruned.
    G = GROUPS[name]()
    e = G.exponent()
    rng = random.Random(7 + sum(map(ord, name)))
    pruned = 0
    for n in (1, 2):
        types = enumerate_types(G, n)
        rng.shuffle(types)
        half = len(types) // 2
        x, y = (WreathClassFunction(G, n, {t: random_value(rng, e) or 1 for t in part})
                for part in (types[:half], types[half:]))
        got = induce(G, n, n, x + y, x - y)
        assert same(got, ref.induce(G, n, n, x + y, x - y))
        assert got == induce(G, n, n, x, x) - induce(G, n, n, y, y)
        cancelled = unions(x, y) - unions(x, x) - unions(y, y)
        assert not cancelled & set(got.values)
        pruned += len(cancelled)
    assert pruned


def gammas(G, rng: random.Random):
    """The irreducibles and one random class function with a zero value."""
    e = G.exponent()
    values = [random_value(rng, e) for _ in G.conjugacy().class_reps]
    values[rng.randrange(len(values))] = 0
    return list(G.character_table().irreducibles) + [ClassFunction(G, values)]


@pytest.mark.parametrize("name", GROUPS)
def test_annihilation_matches_level_sweep(name):
    G = GROUPS[name]()
    rng = random.Random(13 + sum(map(ord, name)))
    for gamma in gammas(G, rng):
        for k in (1, 2, 3):
            new, old = heisenberg_p(G, -k, gamma), ref.HeisenbergOperator(G, -k, gamma)
            for level in range(MAX_LEVEL + 1):
                f = random_wcf(G, level, rng)
                assert same(new.apply(f), old.apply(f))


@pytest.mark.parametrize("name", GROUPS)
def test_creation_matches_split_enumeration(name):
    G = GROUPS[name]()
    rng = random.Random(17 + sum(map(ord, name)))
    for gamma in gammas(G, rng):
        for k in (1, 2, 3):
            new, old = heisenberg_p(G, k, gamma), ref.HeisenbergOperator(G, k, gamma)
            for level in range(MAX_LEVEL + 1 - k):
                f = random_wcf(G, level, rng)
                assert same(new.apply(f), old.apply(f))


@pytest.mark.parametrize("name", CLASS_LEVELS)
def test_class_members_match_conjugation_orbit(name):
    make, top = CLASS_LEVELS[name]
    G = make()
    for n in range(top + 1):
        # separate levels, so that neither path reads the other's cache
        new, old = WreathLevel(G, n), WreathLevel(G, n)
        for rho in new.types:
            assert len(new.class_elements(rho)) == new.class_size(rho)
            members = new.class_elements(rho).elements()
            assert len(set(members)) == len(members)
            assert sorted(members) == ref.class_elements(old, rho)


@pytest.mark.parametrize("name", CLASS_LEVELS)
def test_class_members_reject_a_type_of_another_size(name):
    # The orbit scan finds the class of rho u (1) for a type rho of size n - 1,
    # and accepts it when that class happens to have the size of rho's (the
    # transpositions of S_3 for the type (2)), so both paths are asked only
    # for the identity type 1^(n-1), and the new path for every other one.
    make, top = CLASS_LEVELS[name]
    G = make()
    for n in range(1, top + 1):
        others = enumerate_types(G, n - 1) + enumerate_types(G, n + 1)
        for rho in others:
            with pytest.raises(ValueError):
                WreathLevel(G, n).class_elements(rho)
        both = [others[-1]] + ([TypeFunction([(0, (1,) * (n - 1))])] if n > 1 else [])
        for rho in both:
            with pytest.raises(ValueError):
                ref.class_elements(WreathLevel(G, n), rho)


@pytest.mark.parametrize("name", BATCH_LEVELS)
def test_class_members_match_type_scan(name):
    make, top = BATCH_LEVELS[name]
    G = make()
    for n in range(top + 1):
        new, old = WreathLevel(G, n), WreathLevel(G, n)
        for rho in new.types:
            assert new.class_elements(rho).elements() == ref.type_scan_class_elements(old, rho)


def scan_classes(name: str) -> tuple[FiniteGroup, int, list]:
    """Every K_i(c, n) of S_7 and S_8, and every type of the other levels."""
    if name in ("S7", "S8"):
        T, n = trivial_group(), int(name[1])
        return T, n, [k_class_type(T, 0, i, n) for i in range(n)]
    G, n = {"Z2": (cyclic_group(2), 5), "Z3": (cyclic_group(3), 4),
            "BD2": (binary_dihedral(2), 3)}[name]
    return G, n, enumerate_types(G, n)


@pytest.mark.parametrize("name", ["S7", "S8", "Z2", "Z3", "BD2"])
def test_built_classes_match_label_scan(name):
    G, n, classes = scan_classes(name)
    new, old = WreathLevel(G, n), WreathLevel(G, n)
    for rho in classes:
        got, want = new.class_elements(rho), ref.label_scan_class_elements(old, rho)
        assert got.g.dtype == want.g.dtype and got.s.dtype == want.s.dtype
        assert np.array_equal(got.g, want.g) and np.array_equal(got.s, want.s), rho


def induction_splits(name: str) -> list:
    """Every (n, m) with n + m up to the top level of BATCH_LEVELS, but for
    Z/3 only the split (1, 3) at level 4, where the tuple loop takes seconds."""
    top = BATCH_LEVELS[name][1]
    if name == "Z3":
        return [(n, m) for n in range(top) for m in range(top - n)] + [(1, 3)]
    return [(n, m) for n in range(top + 1) for m in range(top + 1 - n)]


@pytest.mark.parametrize("name", BATCH_LEVELS)
def test_induce_bruteforce_matches_tuple_loop(name):
    G = BATCH_LEVELS[name][0]()
    rng = random.Random(23 + sum(map(ord, name)))
    for n, m in induction_splits(name):
        f, g = random_wcf(G, n, rng), random_wcf(G, m, rng)
        assert same(induce_bruteforce(G, n, m, f, g), ref.induce_bruteforce(G, n, m, f, g)), (n, m)


# (base group, top level) for the permutation-first induction sweep
SWEEP_LEVELS = {"trivial": (trivial_group, 4), "Z2": (GROUPS["Z2"], 4),
                "Z3": (GROUPS["Z3"], 4), "BD2": (GROUPS["BD2"], 3)}


@pytest.mark.parametrize("name", SWEEP_LEVELS)
def test_induce_bruteforce_matches_full_level_sweep(name):
    # gate: the sweep that conjugates only by the permutations keeping
    # {0..n-1} against the sweep of every (representative, element) pair
    make, top = SWEEP_LEVELS[name]
    G = make()
    rng = random.Random(41 + sum(map(ord, name)))
    for n in range(top + 1):
        for m in range(top + 1 - n):
            f, g = random_wcf(G, n, rng), random_wcf(G, m, rng)
            got = induce_bruteforce(G, n, m, f, g)
            want = ref.array_induce_bruteforce(G, n, m, f, g)
            assert got.n == want.n and got.values == want.values, (n, m)
            assert [(k, v.key()) for k, v in got.values.items()] \
                == [(k, v.key()) for k, v in want.values.items()], (n, m)


# (base group, top level) for the explicit tables against the row-by-row build
BUILD_LEVELS = {"trivial": (trivial_group, 4), "Z2": (GROUPS["Z2"], 5),
                "Z3": (GROUPS["Z3"], 3), "BD2": (GROUPS["BD2"], 2)}


def fresh(make) -> FiniteGroup:
    """A copy of a base group that shares no cached build with it."""
    G = make()
    return FiniteGroup(G.mult, name=G.name)


def level_elements(W: FiniteGroup) -> list:
    """The elements of an explicit wreath group, in table order, as tuples
    read off the batch of its level."""
    return wreath_level(W.wreath_base, W.wreath_n).batch(np.arange(W.order)).elements()


@pytest.mark.parametrize("name,n", [(name, n) for name, (_, top) in BUILD_LEVELS.items()
                                    for n in range(1, top + 1)])
def test_block_build_matches_row_build(name, n):
    make, _ = BUILD_LEVELS[name]
    W, ref_W = build_wreath(fresh(make), n), ref.build_wreath(fresh(make), n)
    assert W.mult.dtype == ref_W.mult.dtype and W.mult.shape == ref_W.mult.shape
    assert W.mult.tobytes() == ref_W.mult.tobytes()
    assert W.perm_actions == ref_W.perm_actions
    assert not hasattr(W, "wreath_elements")
    assert level_elements(W) == ref_W.wreath_elements
    assert all(type(x) is int for action in W.perm_actions for row in action for x in row)
    assert all(type(x) is int for a in level_elements(W) for x in a.g + a.s)


@pytest.mark.parametrize("name", BUILD_LEVELS)
def test_level_zero_is_the_one_element_group(name):
    make, _ = BUILD_LEVELS[name]
    W = build_wreath(fresh(make), 0)
    assert W.order == 1 and W.mult.tolist() == [[0]] and W.identity == 0
    assert level_elements(W) == [WreathElement((), ())]
    assert W.perm_actions == []


def base_set(G: FiniteGroup) -> GSet:
    """The left regular action of G, or two fixed points for the trivial group."""
    return GSet(G, G.mult.tolist()) if G.order > 1 else GSet.trivial(G, 2)


@pytest.mark.parametrize("name,n", [(name, n) for name, (_, top) in BUILD_LEVELS.items()
                                    for n in range(top + 1)])
def test_explicit_group_readers_match_tuple_references(name, n):
    # the class types and the wreath GSet read the level's batch; the tuple
    # references read the element list the explicit group used to store
    make, _ = BUILD_LEVELS[name]
    W = build_wreath(fresh(make), n)
    assert wreath_class_types(W) == ref.wreath_class_types(W)
    base = base_set(W.wreath_base)
    got, want = wreath_gset(base, n).table, ref.wreath_gset(base, n).table
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", BATCH_LEVELS)
def test_level_arrays_match_tuple_references(name):
    make, top = BATCH_LEVELS[name]
    G = make()
    for n in range(top + 1):
        lvl = WreathLevel(G, n)
        assert lvl.representatives.elements() == [ref.representative_of_type(G, n, rho)
                                                   for rho in lvl.types]
        assert lvl.batch(np.arange(lvl.order)).elements() == list(ref.elements(lvl))


def test_orbifold_euler_at_level_zero():
    # chi(S^0, Gamma_0) = 1, the constant term of prod (1 - q^m)^(-chi(S, Gamma))
    assert orbifold_euler_bruteforce(wreath_gset(swap_action(fresh(GROUPS["Z2"])), 0)) == 1


def random_coefficient(rng: random.Random, e: int):
    """A one at a conductor that may or may not divide e, or a small value."""
    pick = rng.randrange(4)
    if pick == 0:
        return CycNum.from_rational(1).embed(rng.choice([1, 2, 3, 4, 6, 12]))
    if pick == 1:
        return rng.choice([1, Fraction(1), -1, CycNum.from_rational(-1).embed(e)])
    return random_value(rng, e) or 1


def sum_scaled(zero: WreathClassFunction, pairs) -> WreathClassFunction:
    """zero + sum of col.scale(coeff), in the order of the pairs: the sum of
    the column-cached operators of `wfk.charmap`."""
    return sum((col.scale(coeff) for col, coeff in pairs), zero)


@pytest.mark.parametrize("name", GROUPS)
def test_sum_scaled_matches_full_products(name):
    G = GROUPS[name]()
    e = G.exponent()
    rng = random.Random(12)
    for trial in range(60):
        n = rng.randint(0, 2)
        # an operator's coefficients are the values of a class function,
        # never 0; a column scaled by 0 is checked on its own below
        pairs = [(random_wcf(G, n, rng), random_coefficient(rng, e))
                 for _ in range(rng.randint(1, 4))]
        pairs = [(col, c) for col, c in pairs if c != 0]
        zero = WreathClassFunction(G, n, {})
        got = sum_scaled(zero, pairs)
        for want in (ref.sum_scaled(zero, pairs), ref.unit_sum_scaled(zero, pairs)):
            assert same(got, want), (name, trial)
            assert [v.key() for v in got.values.values()] == \
                [v.key() for v in want.values.values()]


def test_scale_takes_values_as_they_are_for_a_unit():
    G = GROUPS["BD2"]()
    col = random_wcf(G, 2, random.Random(3))
    for conductor in (1, 2, 4):
        got = col.scale(CycNum.from_rational(1).embed(conductor))
        assert list(got.values) == list(col.values)
        assert all(got.values[k] is v for k, v in col.values.items())
    # a one at conductor 3 does not divide 4: the values move to conductor 12
    got = col.scale(CycNum.from_rational(1).embed(3))
    assert got.values == col.values
    assert {v.conductor for v in got.values.values()} == {12}


def agree(got: WreathClassFunction, want: WreathClassFunction) -> bool:
    """`same`, and the same repr of every value."""
    return same(got, want) and [repr(v) for v in got.values.values()] == \
        [repr(v) for v in want.values.values()]


@pytest.mark.parametrize("name", GROUPS)
def test_sums_and_negation_match_coerced_values(name):
    G = GROUPS[name]()
    e = G.exponent()
    rng = random.Random(29)
    for trial in range(60):
        n = rng.randint(0, 3)
        f, g = random_wcf(G, n, rng), random_wcf(G, n, rng)
        # h cancels f on part of its support
        h = WreathClassFunction(G, n, {**g.values, **{k: -v for k, v in f.values.items()
                                                      if rng.random() < 0.5}})
        zero = WreathClassFunction(G, n, {})
        pairs = [(f, g), (g, f), (f, h), (h, f), (f, f), (f, ref.neg(f)), (f, zero), (zero, f)]
        for a, b in pairs:
            assert agree(a + b, ref.add(a, b)), (name, trial)
            assert agree(a - b, ref.add(a, ref.neg(b))), (name, trial)
        assert agree(-f, ref.neg(f)), (name, trial)
        for s in (0, 1, -2, Fraction(3, 4), random_value(rng, e), random_coefficient(rng, e)):
            assert agree((f + h).scale(s), ref.scale(ref.add(f, h), s)), (name, trial, s)
            assert agree((-f).scale(s), ref.scale(ref.neg(f), s)), (name, trial, s)
        # a column scaled by 0 next to one that is not adds nothing: the
        # references keep its zeros through their merges, so their key
        # order can differ, but no operator scales a column by 0
        c = random_coefficient(rng, e)
        assert agree(sum_scaled(zero, [(f, 0), (g, c), (h, 0)]), sum_scaled(zero, [(g, c)])), \
            (name, trial)


@pytest.mark.parametrize("name,modes,levels", [("Z2", 2, 2), ("Z3", 2, 2), ("BD2", 1, 2)])
def test_block_brackets_match_dict_column_loop(name, modes, levels):
    G = GROUPS[name]()
    assert heisenberg_check(G, modes, levels).to_json() == \
        ref.heisenberg_check(G, modes, levels).to_json()
