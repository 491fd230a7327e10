"""The stored multiplication table: array readers against element-loop
references, malformed tables, and the types the group API hands out.  The
checks on generator rows (associativity, the matrix model, `GSet` actions)
must give the verdicts of the all-rows checks they replaced
(`reference_tables.py`), on the built-in groups and on tables with two
entries of one row swapped.  The group readers on the one `mult` array
(inverses, element orders, power classes, the commutator subgroup, linear
characters, structure constants) must equal the loops over a nested-list
copy of the table that they replaced, in value, order and Python-int type.
`inner_product`, the 2x2 matrix product and the determinant, each one
`wfk.exact.dot`, must give the `key()` of the sums of `CycNum` products they
replaced, at mixed conductors."""

import random
from fractions import Fraction

import numpy as np
import pytest
import reference_tables as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linear_characters import plain_product

import wfk.groups as groups
from wfk.exact import CycNum, cyc
from wfk.groups import (
    ClassFunction,
    FiniteGroup,
    _commutator_subgroup,
    _linear_characters,
    _structure_constants,
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    builtin_group,
    class_indicator,
    convolution,
    cyclic_group,
    direct_product,
    inner_product,
    power_class,
    symmetric_group,
    trivial_group,
)
from wfk.series import GSet, orbifold_euler_bruteforce, swap_action, wreath_gset
from wfk.wreath import build_wreath


def builtin_groups():
    return ([trivial_group()] + [cyclic_group(k) for k in (2, 3, 4, 6)]
            + [binary_dihedral(m) for m in (2, 3)]
            + [binary_tetrahedral(), binary_octahedral(), binary_icosahedral()]
            + [symmetric_group(n) for n in (1, 2, 3, 4)])


GROUPS = builtin_groups() + [build_wreath(cyclic_group(2), 3)]
GROUP_IDS = [G.name for G in GROUPS]


# -- element-loop references ------------------------------------------------

def find_identity_loop(mult):
    n = len(mult)
    for e in range(n):
        if all(mult[e][b] == b for b in range(n)):
            return e
    raise ValueError("multiplication table has no identity")


def find_inverses_loop(mult, e):
    inv = [-1] * len(mult)
    for a in range(len(mult)):
        for b in range(len(mult)):
            if mult[a][b] == e:
                inv[a] = b
                break
        if inv[a] < 0:
            raise ValueError(f"element {a} has no inverse")
    return inv


def is_action_loop(G, table):
    n, points, rows = G.order, len(table[0]), G.mult.tolist()
    if table[G.identity] != list(range(points)):
        return False
    return all(table[rows[a][b]][p] == table[a][table[b][p]]
               for a in range(n) for b in range(n) for p in range(points))


def commuting_fixed_pairs_loop(S):
    """sum over commuting pairs (g, h) of the points both fix."""
    G, table, rows = S.group, S.table.tolist(), S.group.mult.tolist()
    return sum(1 for g in range(G.order) for h in range(G.order)
               if rows[g][h] == rows[h][g]
               for p in range(S.points) if table[g][p] == p and table[h][p] == p)


def regular_action(G):
    return G.mult.tolist()


def conjugation_action(G):
    rows = G.mult.tolist()
    return [[rows[rows[g][p]][G.inverse[g]] for p in range(G.order)]
            for g in range(G.order)]


def gsets(G):
    out = [GSet.trivial(G, 2), GSet(G, regular_action(G)), GSet(G, conjugation_action(G))]
    out += [GSet(G, action) for action in G.perm_actions]
    return out


# -- agreement with the references ----------------------------------------------

@pytest.mark.parametrize("G", GROUPS, ids=GROUP_IDS)
def test_identity_and_inverses_match_loops(G):
    rows = G.mult.tolist()
    assert G._find_identity() == find_identity_loop(rows) == G.identity
    assert G._find_inverses() == find_inverses_loop(rows, G.identity) == G.inverse


@pytest.mark.parametrize("G", GROUPS, ids=GROUP_IDS)
def test_action_check_matches_loop(G):
    for S in gsets(G):
        assert is_action_loop(G, S.table.tolist())
    if G.order < 3:
        return
    # the regular action with two images of a non-identity element swapped
    broken = regular_action(G)
    g = 1 if G.identity != 1 else 2
    broken[g][0], broken[g][1] = broken[g][1], broken[g][0]
    assert not is_action_loop(G, broken)
    with pytest.raises(ValueError, match="not compatible with the product"):
        GSet(G, broken)


@pytest.mark.parametrize("G", GROUPS, ids=GROUP_IDS)
def test_orbifold_count_matches_loop(G):
    for S in gsets(G):
        total = commuting_fixed_pairs_loop(S)
        assert total % G.order == 0
        assert orbifold_euler_bruteforce(S) == total // G.order


def test_wreath_gset_matches_loop():
    base = FiniteGroup(cyclic_group(2).mult, name="Z2-fresh")
    S = wreath_gset(swap_action(base), 3)
    chi = orbifold_euler_bruteforce(S)
    assert chi == commuting_fixed_pairs_loop(S) // S.group.order


# -- storage -------------------------------------------------------------------------

@pytest.mark.parametrize("G", GROUPS, ids=GROUP_IDS)
def test_one_read_only_int32_table(G):
    assert G.mult.dtype == np.int32 and G.mult.shape == (G.order, G.order)
    assert not G.mult.flags.writeable
    with pytest.raises(ValueError):
        G.mult[0, 0] = 0
    assert not hasattr(G, "rows")
    S = GSet.trivial(G, 2)
    assert S.table.dtype == np.int32 and not S.table.flags.writeable


@pytest.mark.parametrize("n", range(7))
def test_symmetric_group_matches_the_comprehension(n):
    # S_n is read from the permutation-table fill of the trivial group's Gamma_n
    G, ref_G = symmetric_group(n), ref.symmetric_group(n)
    assert np.array_equal(G.mult, ref_G.mult)
    assert (G.name, G.element_labels, G.perm_actions) == (
        ref_G.name, ref_G.element_labels, ref_G.perm_actions)


def test_direct_product_matches_pairwise_products():
    A, B = cyclic_group(3), symmetric_group(3)
    G = direct_product(A, B)
    for a1 in range(A.order):
        for b1 in range(B.order):
            for a2 in range(A.order):
                for b2 in range(B.order):
                    assert (G.mul(a1 * B.order + b1, a2 * B.order + b2)
                            == A.mul(a1, a2) * B.order + B.mul(b1, b2))


@pytest.mark.parametrize("G", [binary_tetrahedral(), symmetric_group(3),
                               FiniteGroup.from_json(cyclic_group(4).to_json()),
                               build_wreath(cyclic_group(2), 2)], ids=lambda G: G.name)
def test_api_returns_python_ints(G):
    cd = G.conjugacy()
    values = [G.mul(1, G.order - 1), G.identity, G.element_order(G.order - 1),
              *G.inverse, *cd.class_reps, *cd.class_of]
    assert all(type(v) is int for v in values)


# -- array readers against the nested-list loops -----------------------------------

READER_GROUPS = (builtin_groups() + [symmetric_group(5)]
                 + [plain_product(*orders) for orders in
                    ((2, 2), (2, 4), (3, 3), (4, 6), (2, 2, 2))]
                 + [build_wreath(cyclic_group(2), n) for n in range(5)]
                 + [build_wreath(cyclic_group(3), n) for n in range(3)]
                 + [build_wreath(binary_dihedral(2), 2)])
READER_IDS = [G.name for G in READER_GROUPS]


def keys(functions):
    return [[v.key() for v in f.values] for f in functions]


@pytest.mark.parametrize("G", READER_GROUPS, ids=READER_IDS)
def test_orders_and_powers_match_loops(G):
    inverses = G._find_inverses()
    assert inverses == ref._find_inverses(G)
    orders = [G.element_order(a) for a in range(G.order)]
    assert orders == [ref.element_order(G, a) for a in range(G.order)]
    r, e = len(G.conjugacy()), G.exponent()
    powers = [power_class(G, c, k) for c in range(r) for k in range(-1, e + 2)]
    assert powers == [ref.power_class(G, c, k) for c in range(r) for k in range(-1, e + 2)]
    assert all(type(v) is int for v in inverses + orders + powers)


@pytest.mark.parametrize("G", READER_GROUPS, ids=READER_IDS)
def test_commutators_and_linear_characters_match_loops(G):
    members = _commutator_subgroup(G)
    assert members == ref._commutator_subgroup(G)
    assert all(type(v) is int for v in members)
    assert keys(_linear_characters(G)) == keys(ref._exponent_linear_characters(G))


@pytest.mark.parametrize("G", READER_GROUPS, ids=READER_IDS)
def test_structure_constants_and_convolution_match_loops(G, monkeypatch):
    table = _structure_constants(G)
    assert table == ref._structure_constants(G)
    assert all(type(v) is int for row in table for (d, e), count in row.items()
               for v in (d, e, count))
    r = len(G.conjugacy())
    f = ClassFunction(G, range(1, r + 1))
    g = ClassFunction(G, [CycNum.zeta(4, c) for c in range(r)])
    got = [convolution(f, g), convolution(g, g)]
    monkeypatch.setattr(groups, "_structure_constants", ref._structure_constants)
    assert keys(got) == keys([convolution(f, g), convolution(g, g)])


def test_convolution_on_explicit_z2_wr_s5(monkeypatch):
    # its largest class has 384 elements, past the class-pair rule the
    # element loop kept (384^2 = 147,456 > 100,000)
    W = build_wreath(cyclic_group(2), 5)
    monkeypatch.setattr(ref, "CONVOLUTION_PAIR_BUDGET", max(W.conjugacy().class_sizes) ** 2)
    assert _structure_constants(W) == ref._structure_constants(W)
    r = len(W.conjugacy())
    f = ClassFunction(W, range(1, r + 1))
    unit = class_indicator(W, W.conjugacy().class_of[W.identity])
    assert convolution(f, unit) == convolution(unit, f) == f


# -- malformed tables ----------------------------------------------------------

# a loop of order 5 (Latin square with identity 0, every element its own
# inverse) that is not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("table", [[[0, 1], [1, 0], [0, 1]], [[0, 1], [1]], [0, 1]],
                         ids=["rectangular", "ragged", "flat"])
def test_table_not_square(table):
    with pytest.raises(ValueError, match="not square"):
        FiniteGroup(table)


def test_table_without_identity():
    with pytest.raises(ValueError, match="no identity"):
        FiniteGroup([[1, 0], [1, 0]])


def test_element_without_inverse():
    with pytest.raises(ValueError, match="element 1 has no inverse"):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="element 1 has no inverse"):
        find_inverses_loop([[0, 1], [1, 1]], 0)


def test_inverses_found_over_several_blocks():
    # Z/1500 spans three blocks of rows, and row 1400 lies in the last one
    n = 1500
    assert groups._BLOCK_ENTRIES // n < 1400 and n * n > 2 * groups._BLOCK_ENTRIES
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    assert FiniteGroup(table).inverse == [-a % n for a in range(n)]
    table[1400, 100] = 1
    with pytest.raises(ValueError, match="^element 1400 has no inverse$"):
        FiniteGroup(table)


def test_identity_and_inverse_laws():
    with pytest.raises(ValueError, match="identity law fails"):
        FiniteGroup([[0, 1], [0, 1]], identity=0)
    with pytest.raises(ValueError, match="inverse law fails"):
        FiniteGroup(cyclic_group(3).mult, inverse=[0, 1, 2])


def test_non_associative_small_table():
    with pytest.raises(ValueError, match="associativity fails at element 1"):
        FiniteGroup(LOOP5)
    FiniteGroup(LOOP5, validate=False)  # the loop itself has identity and inverses


def test_non_associative_large_table_is_sampled():
    z = np.add.outer(np.arange(120), np.arange(120)) % 120
    loop = np.array(LOOP5)
    table = (loop[:, None, :, None] * 120 + z[None, :, None, :]).reshape(600, 600)
    with pytest.raises(ValueError, match="associativity fails at element 120"):
        FiniteGroup(table)


def test_swapped_entries_past_the_old_sampling_order():
    # Z/2 wr S5 (3840 elements) with two entries of row 5 swapped: a table
    # that keeps its identity and inverses but is no group
    W = build_wreath(cyclic_group(2), 5)
    table = W.mult.copy()
    i, j = [c for c in range(W.order) if c not in (W.identity, W.inverse[5])][:2]
    table[5, [i, j]] = table[5, [j, i]]
    with pytest.raises(ValueError, match="associativity fails at element"):
        FiniteGroup(table)


def test_gset_malformed_tables():
    G = symmetric_group(3)
    with pytest.raises(ValueError, match="identity must act trivially"):
        GSet(G, [[1, 0]] * G.order)
    with pytest.raises(ValueError, match="one row per group element"):
        GSet(G, [[0, 1]] * (G.order - 1))


# -- generator rows against every row ---------------------------------------------

def verdict(check, *args):
    """None if the check passes, else the error class and its message up to
    the element it names."""
    try:
        check(*args)
    except ValueError as e:
        return type(e), str(e).split(" at element")[0]
    return None


def reference_group_check(table):
    """`FiniteGroup(table)` with the identity search and the checks it replaced."""
    holder = FiniteGroup(table, identity=0, inverse=range(len(table)), validate=False)
    G = FiniteGroup(table, identity=ref._find_identity(holder), validate=False)
    ref._validate(G)


@pytest.mark.parametrize("G", GROUPS, ids=GROUP_IDS)
def test_generators_reach_every_element(G):
    rows = G.mult.tolist()
    reached, frontier = {G.identity}, {G.identity}
    while frontier:
        frontier = {rows[x][g] for x in frontier for g in G.generators} - reached
        reached |= frontier
    assert len(reached) == G.order
    assert G.generators == sorted(set(G.generators)) and G.identity not in G.generators


@pytest.mark.parametrize("G", GROUPS, ids=GROUP_IDS)
def test_table_checks_match_all_rows(G):
    assert ref._find_identity(G) == G.identity
    ref._validate(G)
    FiniteGroup(G.mult, matrix_model=G.matrix_model)
    for S in gsets(G):
        ref.check_action(G, S.table)
    if G.order >= 3:
        broken = regular_action(G)
        g = 1 if G.identity != 1 else 2
        broken[g][0], broken[g][1] = broken[g][1], broken[g][0]
        assert (verdict(ref.check_action, G, broken) == verdict(GSet, G, broken)
                == (ValueError, "action is not compatible with the product"))


SMALL = [G for G in GROUPS if 2 <= G.order <= 48]


@st.composite
def swapped_rows(draw, action: bool):
    """A small group, a table (its product or one of its actions) and the
    table with two entries of one row swapped."""
    G = draw(st.sampled_from(SMALL))
    table = draw(st.sampled_from(gsets(G))).table.tolist() if action else G.mult.tolist()
    a = draw(st.integers(0, len(table) - 1))
    i, j = draw(st.lists(st.integers(0, len(table[a]) - 1), min_size=2, max_size=2,
                         unique=True))
    table[a][i], table[a][j] = table[a][j], table[a][i]
    return G, table


@settings(max_examples=200, deadline=None)
@given(swapped_rows(action=False))
def test_swapped_table_entries_get_the_all_rows_verdict(case):
    _, table = case
    assert verdict(FiniteGroup, table) == verdict(reference_group_check, table)


@settings(max_examples=200, deadline=None)
@given(swapped_rows(action=True))
def test_swapped_action_entries_get_the_all_rows_verdict(case):
    G, table = case
    assert verdict(GSet, G, table) == verdict(ref.check_action, G, table)


# Each table below passes the checks on the rows of the first generator and
# fails on those of a later one.

def test_non_associative_past_the_first_generator():
    # LOOP5 x Z/3 with (l, z) at 3 l + z: generator 1 = (0, 1) reaches the
    # associative rows (0, z) only, and generator 3 = (1, 0) is a loop row
    z = np.add.outer(np.arange(3), np.arange(3)) % 3
    table = (np.array(LOOP5)[:, None, :, None] * 3 + z[None, :, None, :]).reshape(15, 15)
    assert FiniteGroup(table, validate=False).generators[:2] == [1, 3]
    for check in (FiniteGroup, reference_group_check):
        with pytest.raises(ValueError, match="associativity fails at element 3"):
            check(table)


def test_action_fails_past_the_first_generator():
    # Z/2 x Z/2 with (a, b) at 2 a + b on three points: 1 swaps two points and
    # 3 = 1 * 2, but 2 acts as a 3-cycle, so 2 * 2 = 0 is not its square
    G = direct_product(cyclic_group(2), cyclic_group(2))
    table = [[0, 1, 2], [1, 0, 2], [1, 2, 0], [0, 2, 1]]
    assert G.generators == [1, 2]
    for check in (GSet, ref.check_action):
        with pytest.raises(ValueError, match="not compatible with the product"):
            check(G, table)


def test_matrix_model_fails_past_the_first_generator():
    # negating the matrices of one right coset <g> b of the first generator g
    # keeps mats[g] mats[b] == mats[g b]; binary tetrahedral has no character
    # of order 2, so the signs are not a homomorphism
    G = binary_tetrahedral()
    rows, g = G.mult.tolist(), G.generators[0]
    powers, x = [G.identity], rows[G.identity][g]
    while x != G.identity:
        powers.append(x)
        x = rows[x][g]
    b = min(set(range(G.order)) - set(powers))
    coset = {rows[p][b] for p in powers}
    mats = [[[-v for v in row] for row in m] if k in coset else m
            for k, m in enumerate(G.matrix_model)]
    holder = FiniteGroup(G.mult, matrix_model=mats, validate=False)
    for check in (holder._validate_matrix_model, lambda: ref._validate_matrix_model(holder)):
        with pytest.raises(ValueError, match="does not match the multiplication table"):
            check()


def negated(mats, x):
    out = list(mats)
    out[x] = [[-v for v in row] for row in mats[x]]
    return out


def test_negated_matrix_off_the_generators_is_caught():
    G = binary_octahedral()
    for x in range(G.order):
        if x in G.generators:
            continue
        with pytest.raises(ValueError, match="does not match the multiplication table"):
            FiniteGroup(G.mult, matrix_model=negated(G.matrix_model, x))


def test_matrix_model_verdicts_match_all_pairs():
    # up to order 24 the replaced check read every matrix and every pair
    G = binary_tetrahedral()
    zeta = CycNum.zeta(8)
    for x in range(G.order):
        for mats in (negated(G.matrix_model, x),
                     [[[v * zeta for v in row] for row in m] if k == x else m
                      for k, m in enumerate(G.matrix_model)]):
            holder = FiniteGroup(G.mult, matrix_model=mats, validate=False)
            want = verdict(ref._validate_matrix_model, holder)
            assert want is not None and verdict(holder._validate_matrix_model) == want


# -- one dot product -------------------------------------------------------------

# the finite SL2(C) subgroups and the two tables of the benchmark's sl2-tables
DOT_GROUPS = ["trivial", "cyclic:2", "cyclic:3", "cyclic:5", "cyclic:16", "binary-dihedral:2",
              "binary-dihedral:3", "binary-dihedral:5", "binary-tetrahedral",
              "binary-octahedral", "binary-icosahedral", "symmetric:5"]


def at_mixed_conductors(values, rng):
    """Each value re-embedded at a random multiple of its conductor."""
    return [v.embed(v.conductor * rng.choice((1, 1, 2, 3, 4))) for v in values]


def virtual_characters(G, rng, count=6):
    """The irreducibles of G and `count` random rational multiples of integer
    combinations of them, every value at a mixed conductor."""
    irr = G.character_table().irreducibles
    r = len(irr)
    out = [ClassFunction(G, at_mixed_conductors(chi.values, rng)) for chi in irr]
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in irr]
        scale = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        values = [sum((chi.values[c] * a for chi, a in zip(irr, coeffs)), cyc(0)) * scale
                  for c in range(r)]
        out.append(ClassFunction(G, at_mixed_conductors(values, rng)))
    return out


@pytest.mark.parametrize("spec", DOT_GROUPS)
def test_inner_product_is_the_sum_it_replaced(spec):
    G = builtin_group(spec)
    rng = random.Random(spec)
    pool = virtual_characters(G, rng)
    for f in pool:
        for g in pool:
            assert inner_product(f, g).key() == ref.inner_product(f, g).key()


def entry_keys(mat):
    return [[x.key() for x in row] for row in mat]


@pytest.mark.parametrize("spec", [spec for spec in DOT_GROUPS if spec != "symmetric:5"])
def test_matrix_product_and_determinant_are_the_sums_they_replaced(spec):
    G = builtin_group(spec)
    rng = random.Random(spec)
    mats = G.matrix_model
    mixed = [[at_mixed_conductors(row, rng) for row in m] for m in mats]
    pairs = [(a, b) for a in range(G.order) for b in range(G.order)]
    for a, b in pairs if G.order <= 24 else rng.sample(pairs, 600):
        for x, y in ((mats[a], mats[b]), (mixed[a], mixed[b]), (mats[a], mixed[b])):
            assert entry_keys(groups._mat_mul(x, y)) == entry_keys(ref._mat_mul(x, y))
    for m in mats + mixed:
        assert groups._det(m).key() == (m[0][0] * m[1][1] - m[0][1] * m[1][0]).key()
