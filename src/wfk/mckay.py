"""McKay correspondence data for finite subgroups of SL2(C): the virtual
character xi = 2*trivial - Q, the weighted Cartan matrix, affine ADE
classification, the Koszul-Thom character identity and quiver dimension
bookkeeping."""

from __future__ import annotations

from fractions import Fraction

from .budget import check_budget
from .exact import CycNum, cyc
from .groups import (
    ClassFunction,
    FiniteGroup,
    defining_character,
    inner_product,
    trivial_character,
)
from . import linalg
from .report import VerificationReport
from .wreath import (
    eta_eps_characters,
    weighted_form,
    wreath_level,
    wcf_from_class_function,
)


class MissingMatrixModel(ValueError):
    """The group carries no 2x2 matrix model, so Q is undefined."""


class NotAffineADE(ValueError):
    """The Cartan matrix does not match any affine ADE diagram."""


class CartanMismatch(ValueError):
    """The xi-weighted form on the irreducibles is not the Cartan matrix 2I - A."""


class McKayData:
    def __init__(self, group, q_char, xi, cartan, adjacency, marks, trivial_index):
        self.group = group
        self.q_char = q_char
        self.xi = xi
        self.cartan = cartan
        self.adjacency = adjacency
        self.marks = marks
        self.trivial_index = trivial_index

    def to_json(self) -> dict:
        return {
            "matrix": self.cartan,
            "marks": self.marks,
            "type": classify_affine_ade(self.cartan),
        }


def mckay_data(G: FiniteGroup) -> McKayData:
    """Adjacency a_ij = <Q (x) gamma_i, gamma_j> and Cartan C = 2I - A; the
    Cartan entries are cross-checked against the weighted form <g_i, g_j>_xi."""
    if G.matrix_model is None:
        raise MissingMatrixModel(f"{G.name} has no matrix model")
    q = defining_character(G)
    xi = trivial_character(G).scale(2) - q
    table = G.character_table()
    rows = table.irreducibles
    r = len(rows)
    adjacency = [[0] * r for _ in range(r)]
    for i in range(r):
        tensored = q.pointwise(rows[i])
        for j in range(r):
            val = inner_product(tensored, rows[j]).as_rational()
            if val.denominator != 1 or val < 0:
                raise ValueError(f"<Q (x) gamma_{i}, gamma_{j}> = {val} is not a multiplicity")
            adjacency[i][j] = int(val)
    cartan = [[(2 if i == j else 0) - adjacency[i][j] for j in range(r)]
              for i in range(r)]
    # the weighted bilinear form must reproduce the same matrix
    for i in range(r):
        for j in range(r):
            w = inner_product(xi.pointwise(rows[i]), rows[j])
            if w != cartan[i][j]:
                raise CartanMismatch(f"weighted form disagrees with 2I - A at ({i}, {j})")
    marks = list(table.degrees)
    trivial_index = next(i for i, row in enumerate(rows)
                         if all(v == 1 for v in row.values))
    return McKayData(G, q, xi, cartan, adjacency, marks, trivial_index)


def classify_affine_ade(cartan: list[list[int]]) -> str:
    """Classify C = 2I - A against the five affine ADE families by node
    count, connectivity, corank and the degree multiset."""
    r = len(cartan)
    adjacency = [[(2 if i == j else 0) - cartan[i][j] for j in range(r)]
                 for i in range(r)]
    for i in range(r):
        if cartan[i][i] != 2:
            raise NotAffineADE("diagonal entries must equal 2")
        for j in range(r):
            if adjacency[i][j] != adjacency[j][i] or (i != j and adjacency[i][j] < 0):
                raise NotAffineADE("off-diagonal structure is not an adjacency matrix")
    # connectivity
    if r == 0:
        raise NotAffineADE("empty matrix")
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(r):
            if i != j and adjacency[i][j] and j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != r:
        raise NotAffineADE("diagram is not connected")
    # corank exactly one
    if linalg.rank([[Fraction(x) for x in row] for row in cartan]) != r - 1:
        raise NotAffineADE("Cartan matrix does not have corank 1")
    degrees = sorted(sum(adjacency[i][j] for j in range(r) if j != i)
                     for i in range(r))
    if r == 2 and adjacency[0][1] == 2:
        return "A1~"
    if all(d == 2 for d in degrees):
        return f"A{r - 1}~"
    ones = degrees.count(1)
    threes = degrees.count(3)
    fours = degrees.count(4)
    if fours == 1 and ones == 4 and r == 5:
        return "D4~"
    if threes == 2 and ones == 4:
        return f"D{r - 1}~"
    if threes == 1 and ones == 3:
        if r == 7:
            return "E6~"
        if r == 8:
            return "E7~"
        if r == 9:
            return "E8~"
    raise NotAffineADE(f"degree profile {degrees} matches no affine ADE diagram")


def koszul_thom_check(G: FiniteGroup, n: int) -> VerificationReport:
    """det(I - M(g,s)) on C^(2n) against the cycle-product character of xi,
    class by class on Gamma_n."""
    if G.matrix_model is None:
        raise MissingMatrixModel(f"{G.name} has no matrix model")
    lvl = wreath_level(G, n)
    check_budget(lvl.order, f"koszul-thom at level {n}")
    xi = trivial_character(G).scale(2) - defining_character(G)
    eta = eta_eps_characters(G, n, xi, signed=False)
    report = VerificationReport(f"koszul-thom({G.name}, n={n})")
    one, zero = cyc(1), cyc(0)
    reps = lvl.representatives
    for rho, g, s in zip(lvl.types, reps.g.tolist(), reps.s.tolist()):
        # block matrix: coordinate block i receives block s^-1(i) acted by g_i
        m = [[zero] * (2 * n) for _ in range(2 * n)]
        sinv = [s.index(i) for i in range(n)]
        for i in range(n):
            blk = G.matrix_model[g[i]]
            for u in range(2):
                for v in range(2):
                    m[2 * i + u][2 * sinv[i] + v] = cyc(blk[u][v])
        iden = [[one if i == j else zero for j in range(2 * n)] for i in range(2 * n)]
        diff = [[iden[i][j] - m[i][j] for j in range(2 * n)] for i in range(2 * n)]
        lhs = linalg.det(diff, one)
        rhs = eta.value(rho)
        report.add(f"type {rho}", lhs, rhs, lhs == rhs)
    return report


def quiver_dimension(G: FiniteGroup, n: int) -> dict:
    """v_i = n * deg(gamma_i), w the unit vector at the trivial vertex;
    reports C v = 0 and dim = 2 (v . w) = 2n."""
    data = mckay_data(G)
    r = len(data.marks)
    v = [n * d for d in data.marks]
    w = [1 if i == data.trivial_index else 0 for i in range(r)]
    cv = [sum(data.cartan[i][j] * v[j] for j in range(r)) for i in range(r)]
    dim = 2 * sum(a * b for a, b in zip(v, w))
    if dim != 2 * n:
        raise ValueError(f"quiver dimension {dim} != 2n = {2 * n}")
    return {"v": v, "w": w, "dim": dim, "cartan_v": cv, "null": all(x == 0 for x in cv)}


def weighted_gram_wreath(G: FiniteGroup, n: int) -> list[list]:
    """Gram matrix of the xi-weighted form on the irreducible characters of
    the explicit wreath group Gamma_n; n = 1 reproduces the Cartan matrix."""
    from .wreath import build_wreath
    xi = trivial_character(G).scale(2) - defining_character(G)
    W = build_wreath(G, n)
    table = W.character_table()
    rows = [wcf_from_class_function(W, f) for f in table.irreducibles]
    gram = []
    for fi in rows:
        gram.append([weighted_form(G, n, fi, fj, xi) for fj in rows])
    return gram
