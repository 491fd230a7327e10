"""Cross-module invariants: identities whose two sides live in different
modules and share only the exact scalar layer."""

from fractions import Fraction

import pytest

from wfk.budget import BudgetExceeded, budget_override
from wfk.charmap import ch, colored_space, fw_l_operator, ZeroPrefactor
from wfk.exact import cyc
from wfk.fock import FockVector, chern_series, point_model
from wfk.groups import (
    binary_dihedral,
    binary_icosahedral,
    binary_octahedral,
    binary_tetrahedral,
    convolution,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from wfk.wreath import build_wreath, eta_eps_characters, wreath_level


def test_chern_series_matches_signed_exponential_classes():
    # the total-Chern-class series and ch(eps_n) share the exponential shape:
    # with one even color on both sides the weight-n coefficients agree
    T = trivial_group()
    alg = point_model()
    series = chern_series(alg, alg.unit, 4)
    one = T.character_table().irreducibles[0]
    for n in range(5):
        eps = eta_eps_characters(T, n, one, signed=True)
        lhs = ch(T, n, eps)
        # rename the point color to the class color: shapes are identical
        translated = {mono: c for mono, c in series[n].terms.items()}
        rhs = FockVector(colored_space(T), translated)
        assert lhs == rhs


def test_eq_idem_every_builtin():
    for G in (trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
              symmetric_group(3), binary_dihedral(2), binary_dihedral(3),
              binary_tetrahedral(), binary_octahedral(), binary_icosahedral()):
        table = G.character_table()
        for i, a in enumerate(table.irreducibles):
            prod = convolution(a, a)
            assert prod == a.scale(Fraction(G.order, table.degrees[i]))


def test_zero_prefactor_raises():
    G = cyclic_group(2)
    one = G.character_table().irreducibles[0]
    with pytest.raises(ZeroPrefactor):
        fw_l_operator(G, 0, 0, one, 1)
    # a character vanishing on the probed class also raises
    S3 = symmetric_group(3)
    cd = S3.conjugacy()
    transposition = next(c for c in range(len(cd)) if cd.class_sizes[c] == 3)
    two_dim = next(r for r in S3.character_table().irreducibles
                   if r.at_identity() == 2)
    with pytest.raises(ZeroPrefactor):
        fw_l_operator(S3, transposition, 1, two_dim, 2)


def test_build_wreath_budget():
    with pytest.raises(BudgetExceeded):
        build_wreath(cyclic_group(2), 10)


def test_filtered_convolution_budget():
    # convolving by the n-cycles is charged the class it builds: the 5,040
    # 8-cycles of S_8 sit just above a budget of 5,039, and the 362,880
    # 10-cycles of S_10 above the default
    from wfk.charmap import GradedClassFunction, filtered_convolution
    from wfk.wreath import TypeFunction
    T = trivial_group()
    e = T.conjugacy().class_of[0]

    def pair(n):
        return (GradedClassFunction.indicator(n, TypeFunction([(e, (1,) * n)])),
                GradedClassFunction.indicator(n, TypeFunction([(e, (n,))])))

    with budget_override(5039), pytest.raises(BudgetExceeded, match="5040 elements"):
        filtered_convolution(*pair(8))
    with budget_override(5040):
        assert filtered_convolution(*pair(8)).degree == 7
    with pytest.raises(BudgetExceeded, match="362880 elements"):
        filtered_convolution(*pair(10))


def test_budget_env_override(monkeypatch):
    from wfk import budget
    monkeypatch.setenv("WFK_BUDGET", "10")
    assert budget.budget() == 10
    with pytest.raises(BudgetExceeded):
        budget.check_budget(11, "probe")
    monkeypatch.delenv("WFK_BUDGET")
    assert budget.budget() == budget.DEFAULT_BUDGET


def test_cartan_csv_round_trip(tmp_path, capsys):
    import csv as csvmod
    from wfk.cli import run
    target = tmp_path / "cartan.csv"
    code = run(["mckay", "--group", "builtin:cyclic:3", "--csv",
                "--emit", str(target)])
    assert code == 0
    with open(target, newline="") as fh:
        rows = [[int(x) for x in row] for row in csvmod.reader(fh)]
    assert rows == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_wreath_level_budget_on_class_orbits():
    lvl = wreath_level(cyclic_group(2), 9)  # order 2^9 * 9! is over budget
    rho = lvl.types[0]
    with pytest.raises(BudgetExceeded):
        lvl.class_elements(rho)
