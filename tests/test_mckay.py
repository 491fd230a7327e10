from fractions import Fraction

import pytest

from wfk import mckay
from wfk.cli import run
from wfk.exact import cyc
from wfk.groups import (
    ClassFunction,
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from wfk.mckay import (
    CartanMismatch,
    MissingMatrixModel,
    NotAffineADE,
    classify_affine_ade,
    koszul_thom_check,
    mckay_data,
    quiver_dimension,
    weighted_gram_wreath,
)


def test_z2_cartan_frozen():
    data = mckay_data(cyclic_group(2))
    assert sorted(map(sorted, data.cartan)) == [[-2, 2], [-2, 2]]
    assert classify_affine_ade(data.cartan) == "A1~"


def test_cyclic_types():
    for k in (3, 4, 6):
        data = mckay_data(cyclic_group(k))
        assert classify_affine_ade(data.cartan) == f"A{k - 1}~"


def test_binary_dihedral_types():
    assert classify_affine_ade(mckay_data(binary_dihedral(2)).cartan) == "D4~"
    assert classify_affine_ade(mckay_data(binary_dihedral(3)).cartan) == "D5~"


def test_exceptional_types():
    assert classify_affine_ade(mckay_data(binary_tetrahedral()).cartan) == "E6~"
    assert classify_affine_ade(mckay_data(binary_octahedral()).cartan) == "E7~"


def test_icosahedral_type():
    data = mckay_data(binary_icosahedral())
    assert len(data.marks) == 9
    assert classify_affine_ade(data.cartan) == "E8~"


def test_cartan_invariants():
    for G in (cyclic_group(3), binary_dihedral(2), binary_tetrahedral()):
        data = mckay_data(G)
        r = len(data.marks)
        for i in range(r):
            assert data.cartan[i][i] == 2
            for j in range(r):
                assert data.cartan[i][j] == data.cartan[j][i]
                if i != j:
                    assert data.cartan[i][j] in (0, -1, -2)
        # null vector: C * marks = 0
        for i in range(r):
            assert sum(data.cartan[i][j] * data.marks[j] for j in range(r)) == 0


def test_missing_matrix_model():
    with pytest.raises(MissingMatrixModel):
        mckay_data(symmetric_group(3))


def test_weighted_form_mismatch_is_a_typed_error(monkeypatch, capsys):
    # with a zero trivial character xi = -Q, so the weighted form gives -A, not 2I - A
    monkeypatch.setattr(mckay, "trivial_character",
                        lambda G: ClassFunction(G, [0] * len(G.conjugacy())))
    with pytest.raises(CartanMismatch, match="disagrees with 2I - A"):
        mckay_data(cyclic_group(3))
    assert run(["mckay", "--group", "builtin:cyclic:3"]) == 1
    assert capsys.readouterr().err.startswith("wfk: error: weighted form disagrees")


def test_finite_type_rejected():
    # path graph A_2 (finite type): determinant 3, corank 0
    cartan = [[2, -1], [-1, 2]]
    with pytest.raises(NotAffineADE):
        classify_affine_ade(cartan)


def test_disconnected_rejected():
    cartan = [[2, 0], [0, 2]]
    with pytest.raises(NotAffineADE):
        classify_affine_ade(cartan)


def test_koszul_thom_small():
    # frozen 1-point values: xi(e) = 0 = det(I - I); xi(tau) = 4 = det(I + I)
    G = cyclic_group(2)
    rep = koszul_thom_check(G, 1)
    assert rep.passed
    values = {p.probe: p.lhs for p in rep.probes}
    assert set(values.values()) == {"0", "4"}


def test_koszul_thom_levels():
    for G in (cyclic_group(2), cyclic_group(3)):
        for n in (1, 2, 3):
            assert koszul_thom_check(G, n).passed


def test_quiver_dimension_z2():
    out = quiver_dimension(cyclic_group(2), 3)
    assert out["v"] == [3, 3]
    assert sum(out["w"]) == 1
    assert out["dim"] == 6
    assert out["null"]


def test_quiver_dimension_zero():
    out = quiver_dimension(binary_tetrahedral(), 0)
    assert out["dim"] == 0 and out["null"]


def test_quiver_null_vector_all_builtins():
    for G in (cyclic_group(2), cyclic_group(3), binary_dihedral(2),
              binary_tetrahedral(), binary_octahedral(), binary_icosahedral()):
        out = quiver_dimension(G, 2)
        assert out["null"] and out["dim"] == 4


def test_weighted_gram_level_one_is_cartan():
    for G in (cyclic_group(2), cyclic_group(3), binary_dihedral(2)):
        data = mckay_data(G)
        gram = weighted_gram_wreath(G, 1)
        as_int = [[v.as_rational() for v in row] for row in gram]
        # same multiset of rows (row order of the wreath table may differ)
        assert sorted(map(sorted, as_int)) == sorted(map(sorted, data.cartan))


def test_weighted_gram_trivial_group_vanishes():
    gram = weighted_gram_wreath(trivial_group(), 2)
    assert all(v == 0 for row in gram for v in row)


def test_weighted_gram_z2_level2_symmetric_integral():
    gram = weighted_gram_wreath(cyclic_group(2), 2)
    r = len(gram)
    for i in range(r):
        for j in range(r):
            assert gram[i][j] == gram[j][i]
            assert gram[i][j].as_rational().denominator == 1
