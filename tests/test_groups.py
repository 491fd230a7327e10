from fractions import Fraction

import numpy as np
import pytest

from wfk.exact import CycNum, cyc
from wfk.groups import (
    ClosureBoundExceeded,
    GroupMismatch,
    NonInvertibleMatrix,
    ClassFunction,
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    build_from_generators,
    builtin_group,
    class_indicator,
    convolution,
    cyclic_group,
    defining_character,
    direct_product,
    inner_product,
    regular_character,
    symmetric_group,
    trivial_character,
    trivial_group,
    FiniteGroup,
)


def test_cyclic_constructor_orders():
    for k in (1, 2, 3, 4, 6):
        G = cyclic_group(k)
        assert G.order == k
        cd = G.conjugacy()
        assert len(cd) == k
        assert all(s == 1 for s in cd.class_sizes)


def test_binary_dihedral_orders():
    for m in (2, 3):
        G = binary_dihedral(m)
        assert G.order == 4 * m
    assert len(binary_dihedral(2).conjugacy()) == 5  # quaternion group


def test_binary_polyhedral_orders():
    assert binary_tetrahedral().order == 24
    assert binary_octahedral().order == 48
    assert binary_icosahedral().order == 120


def test_symmetric_group_classes():
    G = symmetric_group(3)
    cd = G.conjugacy()
    assert sorted(cd.class_sizes) == [1, 2, 3]
    assert sum(cd.class_sizes) == 6
    for c in range(len(cd)):
        assert cd.class_sizes[c] * cd.centralizer_orders[c] == G.order


def test_class_equation_on_builtins():
    for G in (symmetric_group(4), binary_tetrahedral(), binary_dihedral(3)):
        cd = G.conjugacy()
        assert sum(cd.class_sizes) == G.order


def test_inverse_class_is_involution():
    G = symmetric_group(4)
    cd = G.conjugacy()
    for c in range(len(cd)):
        assert cd.inverse_class[cd.inverse_class[c]] == c


def test_build_from_generators_cyclic():
    for k in (2, 3, 5):
        g = [[CycNum.zeta(k), cyc(0)], [cyc(0), CycNum.zeta(k, k - 1)]]
        G = build_from_generators([g])
        assert G.order == k


def test_build_from_generators_errors():
    zero = cyc(0)
    with pytest.raises(NonInvertibleMatrix):
        build_from_generators([[[cyc(1), zero], [zero, zero]]])
    with pytest.raises(NonInvertibleMatrix):
        # determinant 2, not 1
        build_from_generators([[[cyc(2), zero], [zero, cyc(1)]]])
    with pytest.raises(ClosureBoundExceeded):
        g = [[CycNum.zeta(7), zero], [zero, CycNum.zeta(7, 6)]]
        build_from_generators([g], bound=3)


def test_character_table_z2():
    G = cyclic_group(2)
    t = G.character_table()
    values = sorted(tuple(str(v) for v in row.values) for row in t.irreducibles)
    assert values == [("1", "-1"), ("1", "1")]


def test_character_table_s3():
    G = symmetric_group(3)
    t = G.character_table()
    assert sorted(t.degrees) == [1, 1, 2]
    # the 2-dimensional character vanishes on transpositions
    cd = G.conjugacy()
    two = next(r for r in t.irreducibles if r.at_identity() == 2)
    transposition_class = next(
        c for c in range(len(cd))
        if cd.class_sizes[c] == 3
    )
    assert two.values[transposition_class] == 0


def test_character_table_q8():
    G = binary_dihedral(2)
    t = G.character_table()
    assert sorted(t.degrees) == [1, 1, 1, 1, 2]
    assert sum(d * d for d in t.degrees) == 8


def test_character_table_degrees_polyhedral():
    assert sorted(binary_tetrahedral().character_table().degrees) == [1, 1, 1, 2, 2, 2, 3]
    assert sorted(binary_octahedral().character_table().degrees) == [1, 1, 2, 2, 2, 3, 3, 4]


def test_character_orthogonality_builtin():
    for G in (cyclic_group(3), symmetric_group(3), binary_dihedral(3)):
        t = G.character_table()
        for i, a in enumerate(t.irreducibles):
            for j, b in enumerate(t.irreducibles):
                assert inner_product(a, b) == (1 if i == j else 0)


def test_column_orthogonality_weighted():
    G = symmetric_group(3)
    t = G.character_table()
    cd = G.conjugacy()
    r = len(cd)
    for c in range(r):
        for d in range(r):
            total = cyc(0)
            for row in t.irreducibles:
                total = total + row.values[c] * row.values[cd.inverse_class[d]]
            assert total == (cd.centralizer_orders[c] if c == d else 0)


def test_inner_product_orthonormal_z3():
    t = cyclic_group(3).character_table()
    for i, a in enumerate(t.irreducibles):
        for j, b in enumerate(t.irreducibles):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_regular_against_trivial():
    for G in (symmetric_group(3), binary_dihedral(2)):
        assert inner_product(regular_character(G), trivial_character(G)) == 1


def test_defining_character_pairing():
    # Q irreducible on the quaternion group, split on Z/4
    q8 = binary_dihedral(2)
    assert inner_product(defining_character(q8), defining_character(q8)) == 1
    z4 = cyclic_group(4)
    assert inner_product(defining_character(z4), defining_character(z4)) == 2


def test_group_mismatch():
    f = trivial_character(symmetric_group(3))
    g = trivial_character(cyclic_group(2))
    with pytest.raises(GroupMismatch):
        inner_product(f, g)


def test_convolution_idempotent_relation():
    # gamma * gamma = (|G|/d) gamma for irreducible characters
    for G in (symmetric_group(3), binary_dihedral(2), cyclic_group(4)):
        t = G.character_table()
        for i, a in enumerate(t.irreducibles):
            for j, b in enumerate(t.irreducibles):
                prod = convolution(a, b)
                if i == j:
                    expected = a.scale(Fraction(G.order, t.degrees[i]))
                    assert prod == expected
                else:
                    assert all(v == 0 for v in prod.values)


def test_convolution_s3_transpositions():
    # brute force over the 9 products of transpositions
    G = symmetric_group(3)
    cd = G.conjugacy()
    cls2 = next(c for c in range(len(cd)) if cd.class_sizes[c] == 3)
    cls_e = cd.class_of[G.identity]
    cls3 = next(c for c in range(len(cd)) if cd.class_sizes[c] == 2)
    k2 = class_indicator(G, cls2)
    prod = convolution(k2, k2)
    assert prod.values[cls_e] == 3
    assert prod.values[cls3] == 3
    assert prod.values[cls2] == 0


def test_cached_structure_constants_obey_the_budget():
    from wfk.budget import BudgetExceeded, budget_override
    G = symmetric_group(5)
    k = class_indicator(G, 1)
    first = convolution(k, k)  # caches the structure constants on S5
    with budget_override(10), pytest.raises(BudgetExceeded, match="120 elements exceeds budget 10"):
        convolution(k, k)
    assert convolution(k, k) == first


def test_builtin_groups_obey_the_budget():
    from wfk.budget import BudgetExceeded, budget_override
    for spec in ("trivial", "builtin:cyclic:5", "binary-dihedral:3", "binary-tetrahedral",
                 "binary-octahedral", "binary-icosahedral", "symmetric:4"):
        G = builtin_group(spec)  # built and cached
        with budget_override(G.order):
            assert builtin_group(spec) is G
        cap = G.order - 1
        with budget_override(cap), pytest.raises(
                BudgetExceeded, match=f"group {spec}: {G.order} elements exceeds budget {cap}"):
            builtin_group(spec)
    # refused before its 720 x 720 table is built
    before = symmetric_group.cache_info().misses
    with budget_override(10), pytest.raises(BudgetExceeded, match="720 elements"):
        builtin_group("symmetric:6")
    assert symmetric_group.cache_info().misses == before


def test_convolution_identity_indicator():
    G = symmetric_group(4)
    delta_e = class_indicator(G, G.conjugacy().class_of[G.identity])
    t = G.character_table()
    for row in t.irreducibles:
        assert convolution(row, delta_e) == row


def test_convolution_commutes_on_class_sums():
    for G in (symmetric_group(4), binary_dihedral(3), binary_octahedral()):
        r = len(G.conjugacy())
        for a in range(r):
            for b in range(a, r):
                ka, kb = class_indicator(G, a), class_indicator(G, b)
                assert convolution(ka, kb) == convolution(kb, ka)


def test_convolution_associative_sample():
    G = symmetric_group(4)
    r = len(G.conjugacy())
    for a in range(r):
        for b in range(r):
            ka, kb = class_indicator(G, a), class_indicator(G, b)
            kc = class_indicator(G, (a + b) % r)
            lhs = convolution(convolution(ka, kb), kc)
            rhs = convolution(ka, convolution(kb, kc))
            assert lhs == rhs


def test_direct_product_table():
    G = direct_product(cyclic_group(2), cyclic_group(2))
    assert G.order == 4
    t = G.character_table()
    assert t.degrees == [1, 1, 1, 1]
    for i, a in enumerate(t.irreducibles):
        for j, b in enumerate(t.irreducibles):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_json_round_trip():
    G = cyclic_group(3)
    data = G.to_json()
    H = FiniteGroup.from_json(data)
    assert H.order == G.order
    assert np.array_equal(H.mult, G.mult)
    assert H.matrix_model is not None


def test_builtin_parser():
    assert builtin_group("builtin:cyclic:4").order == 4
    assert builtin_group("binary-dihedral:3").order == 12
    assert builtin_group("symmetric:3").order == 6
    assert builtin_group("trivial").order == 1
    with pytest.raises(ValueError):
        builtin_group("builtin:nope")


def test_table_determinism():
    a = symmetric_group(3).character_table()
    b = symmetric_group(3).character_table()
    sa = [[v.to_json() for v in row.values] for row in a.irreducibles]
    sb = [[v.to_json() for v in row.values] for row in b.irreducibles]
    assert sa == sb


def test_icosahedral_table():
    G = binary_icosahedral()
    cd = G.conjugacy()
    assert len(cd) == 9
    t = G.character_table()
    assert sorted(t.degrees) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert sum(d * d for d in t.degrees) == 120
