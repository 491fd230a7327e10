"""`wfk.linalg.det`, read off the one Gauss-Jordan elimination, against the
forward-elimination determinant it replaced (`reference_linalg.py`): the
same value, scalar type and conductor on Fraction and CycNum matrices,
singular ones included.  `verify koszul-thom` prints these determinants."""

import random
from fractions import Fraction

import pytest
import reference_linalg as ref

from wfk import linalg
from wfk.exact import CycNum, cyc


def fraction_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def cyclotomic_entry(rng):
    # a mix of conductors 1, 3 and 4, so the pivots land in Q(zeta_12)
    n = rng.choice((1, 3, 4))
    return sum((CycNum.zeta(n, k) * rng.randint(-2, 2) for k in range(n)), cyc(0))


def singular(rng, matrix):
    """`matrix` with its last row replaced by a combination of the others,
    or by zeros when it has one row."""
    rows = matrix[:-1]
    coeffs = [rng.randint(-2, 2) for _ in rows]
    last = [sum((c * row[j] for c, row in zip(coeffs, rows)), matrix[0][0] * 0)
            for j in range(len(matrix))]
    return rows + [last]


def matrices(entry, one, seed):
    rng = random.Random(seed)
    out = [[]]
    for n in range(1, 6):
        for _ in range(6):
            m = [[entry(rng) for _ in range(n)] for _ in range(n)]
            out += [m, singular(rng, m)]
    # a zero first column forces a row swap, a zero column a singular matrix
    out.append([[one * 0, one], [one, one * 0]])
    out.append([[one * 0, one], [one * 0, one * 2]])
    return out


@pytest.mark.parametrize("entry,one", [(fraction_entry, Fraction(1)),
                                       (cyclotomic_entry, cyc(1))],
                         ids=["Fraction", "CycNum"])
def test_det_matches_forward_elimination(entry, one):
    for m in matrices(entry, one, seed=19):
        got, want = linalg.det(m, one), ref.det(m, one)
        assert got == want
        assert type(got) is type(want)
        if isinstance(want, CycNum):
            assert got.key() == want.key()


def test_det_leaves_its_argument_alone():
    m = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(3)]]
    assert linalg.det(m, Fraction(1)) == -2
    assert m == [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(3)]]
