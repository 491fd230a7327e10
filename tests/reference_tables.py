"""Reference copy of the linear-character path and of the table checks that
`wfk.groups` and `wfk.series` replaced.

`_abelian_table` splits the regular representation into common eigenlines
over `CycNum` with `nullspace`; `_linear_characters` builds the quotient
G/[G,G] as a `FiniteGroup` and splits that.  The functions below are kept as
they were, so that `tests/test_linear_characters.py` can check the
integer-exponent `wfk.groups._linear_characters` against them, value by
value and conductor by conductor.  `linalg.nullspace` is resolved to this
module's own copy of `nullspace`.

`_find_identity` compares every row with the identity permutation,
`_validate` checks associativity on every row up to order
`_ASSOC_FULL_LIMIT`, `_validate_matrix_model` checks every matrix and every
pair up to order 24 and samples above it, and `check_action` is the block
loop of `GSet.__init__` over every row.  They take the group as their first
argument, and `tests/test_tables.py` checks that the generator-row checks
give the same verdicts.

`_find_inverses`, `element_order`, `power_class`, `_structure_constants`,
`_commutator_subgroup` and `_exponent_linear_characters` are the element
loops `wfk.groups` ran on a nested-list copy of the table before every
reader moved to the one `mult` array; `tests/test_tables.py` checks the
array readers against them value by value.

`inner_product` and `_mat_mul` are the sums of `CycNum` products, one new
value per product and per partial sum, that `wfk.groups` ran before both
became `wfk.exact.dot`; `tests/test_tables.py` checks that the two give the
same `key()`.

`symmetric_group` is the comprehension over every pair of
`itertools.permutations` that built S_n before `wfk.groups.symmetric_group`
took its table and action from the one permutation-table fill,
`wfk.wreath.wreath_table` of the trivial group; `tests/test_tables.py` checks
the two against each other.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import numpy as np

from wfk.budget import BudgetExceeded
from wfk.exact import CycNum, cyc
from wfk.groups import ClassFunction, DiagonalizationFailure, FiniteGroup, NonInvertibleMatrix
from wfk.linalg import row_reduce

linalg = sys.modules[__name__]

# the fixed size rules the replaced checks kept
_ASSOC_FULL_LIMIT = 512  # full associativity up to this order, sampled above
_SAMPLE_TRIPLES = 4096
CONVOLUTION_PAIR_BUDGET = 100_000  # largest class size, squared


def nullspace(matrix: list[list], one, zero) -> list[list]:
    """Basis of the right kernel; `one`/`zero` are the field constants."""
    if not matrix:
        return []
    work = [list(row) for row in matrix]
    cols = len(work[0])
    _, pivots, _ = row_reduce(work)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * cols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -work[r][f]
        basis.append(vec)
    return basis


def _abelian_generators(G: FiniteGroup) -> list[int]:
    rows = G.mult.tolist()
    gens: list[int] = []
    reached = {G.identity}
    for x in range(G.order):
        if x in reached:
            continue
        gens.append(x)
        grown = True
        while grown:
            grown = False
            for a in list(reached):
                for b in (rows[x][a], *[rows[g][a] for g in gens]):
                    if b not in reached:
                        reached.add(b)
                        grown = True
        if len(reached) == G.order:
            break
    return gens


def _abelian_table(G: FiniteGroup) -> list[ClassFunction]:
    """Simultaneous eigensplitting of the regular representation.

    Eigenvalues of multiplication by an order-o element are o-th roots of
    unity, so the candidate set is finite and the split is fully exact.
    """
    n = G.order
    rows = G.mult.tolist()
    e = G.exponent()
    one, zero = cyc(1), cyc(0)
    spaces = [[[one if i == j else zero for j in range(n)] for i in range(n)]]
    for g in _abelian_generators(G):
        o = G.element_order(g)
        roots = [CycNum.zeta(e, (e // o) * k) for k in range(o)]
        perm = [rows[g][j] for j in range(n)]  # e_j -> e_{g j}
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            found = 0
            for lam in roots:
                # kernel of (rho(g) - lam) restricted to span(basis)
                cols = []
                for w in basis:
                    img = [zero] * n
                    for j, c in enumerate(w):
                        if not (c == 0):
                            img[perm[j]] = img[perm[j]] + c
                    cols.append([img[i] - lam * w[i] for i in range(n)])
                mat = [[cols[k][i] for k in range(len(basis))] for i in range(n)]
                eigvecs = []
                for coeffs in linalg.nullspace(mat, one, zero):
                    vec = [zero] * n
                    for k, ck in enumerate(coeffs):
                        if not (ck == 0):
                            for i in range(n):
                                vec[i] = vec[i] + ck * basis[k][i]
                    eigvecs.append(vec)
                if eigvecs:
                    new_spaces.append(eigvecs)
                    found += len(eigvecs)
            if found != len(basis):
                raise DiagonalizationFailure("abelian eigensplit lost dimensions")
        spaces = new_spaces
    out = []
    cd = G.conjugacy()
    for basis in spaces:
        if len(basis) != 1:
            raise DiagonalizationFailure("abelian splitting did not reach lines")
        v = basis[0]
        j0 = next(j for j, c in enumerate(v) if not (c == 0))
        # (rho(g)v)_i = v_{g^{-1} i}, so the eigenvalue is read off at i = j0
        values = [v[rows[G.inverse[rep]][j0]] / v[j0] for rep in cd.class_reps]
        out.append(ClassFunction(G, values))
    return out


def _linear_characters(G: FiniteGroup) -> list[ClassFunction]:
    """Lift the characters of G/[G,G]."""
    rows = G.mult.tolist()
    N = _commutator_subgroup(G)
    nset = set(N)
    coset_of = {}
    cosets = []
    for x in range(G.order):
        if x in coset_of:
            continue
        idx = len(cosets)
        members = sorted(rows[x][h] for h in N)
        for y in members:
            coset_of[y] = idx
        cosets.append(members[0])
    q = len(cosets)
    mult = [[coset_of[rows[cosets[i]][cosets[j]]] for j in range(q)] for i in range(q)]
    Q = FiniteGroup(mult, name=f"{G.name}/derived", validate=False)
    rows = _abelian_table(Q)
    cdQ = Q.conjugacy()
    cd = G.conjugacy()
    out = []
    for row in rows:
        vals = [row.values[cdQ.class_of[coset_of[rep]]] for rep in cd.class_reps]
        out.append(ClassFunction(G, vals))
    return out


def _find_identity(self) -> int:
    left_units = (self.mult == np.arange(self.order)).all(axis=1)
    if not left_units.any():
        raise ValueError("multiplication table has no identity")
    return int(left_units.argmax())


def _validate(self) -> None:
    n = self.order
    e = self.identity
    m = self.mult
    arange = np.arange(n)
    if not (np.array_equal(m[e], arange) and np.array_equal(m[:, e], arange)):
        raise ValueError("identity law fails")
    if (m[arange, self.inverse] != e).any():
        raise ValueError("inverse law fails")
    if n <= _ASSOC_FULL_LIMIT:
        for a in range(n):
            if not np.array_equal(m[m[a], :], m[a, m]):
                raise ValueError(f"associativity fails at element {a}")
    else:
        rng = random.Random(0)
        a, b, c = np.array([[rng.randrange(n) for _ in range(3)]
                            for _ in range(_SAMPLE_TRIPLES)]).T
        if (m[m[a, b], c] != m[a, m[b, c]]).any():
            raise ValueError("associativity fails on sampled triple")
    if self.matrix_model is not None:
        _validate_matrix_model(self)


def _validate_matrix_model(self) -> None:
    mats = self.matrix_model
    if len(mats) != self.order:
        raise ValueError("matrix model size mismatch")
    one = CycNum.from_rational(1)
    for mat in mats if self.order <= 24 else [mats[i] for i in
                                              random.Random(1).sample(range(self.order), 24)]:
        d = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if d != one:
            raise NonInvertibleMatrix("matrix model entry with determinant != 1")
    rng = random.Random(2)
    pairs = (itertools.product(range(self.order), repeat=2)
             if self.order <= 24
             else [(rng.randrange(self.order), rng.randrange(self.order))
                   for _ in range(256)])
    for a, b in pairs:
        if _mat_mul(mats[a], mats[b]) != [list(r) for r in mats[self.mult[a, b]]]:
            raise ValueError("matrix model does not match the multiplication table")


_ACTION_CHECK_ENTRIES = 1 << 20  # table entries gathered per block of the action check


def check_action(group: FiniteGroup, table) -> None:
    """The checks of `GSet.__init__` on an action table."""
    table = np.array(table, dtype=np.int32)
    if table.ndim != 2 or len(table) != group.order:
        raise ValueError("action table needs one row per group element")
    points = table.shape[1]
    if not np.array_equal(table[group.identity], np.arange(points)):
        raise ValueError("identity must act trivially")
    # table[a*b] == table[a] o table[b], checked for a block of rows a at a time
    m, t = group.mult, table
    step = max(1, _ACTION_CHECK_ENTRIES // max(1, group.order * points))
    for a in range(0, group.order, step):
        if not np.array_equal(t[m[a:a + step]], t[a:a + step][:, t]):
            raise ValueError("action is not compatible with the product")


# -- element loops on a nested-list copy of the table ------------------------------
# `_structure_constants` does not cache on the group, so that the version
# under test computes its own.

def _find_inverses(self) -> list[int]:
    hits = self.mult == self.identity
    inv = hits.argmax(axis=1)
    missing = ~hits[np.arange(self.order), inv]
    if missing.any():
        raise ValueError(f"element {missing.argmax()} has no inverse")
    return inv.tolist()


def element_order(self, a: int) -> int:
    rows = self.mult.tolist()
    k, x = 1, a
    while x != self.identity:
        x = rows[x][a]
        k += 1
    return k


def power_class(G: FiniteGroup, c: int, k: int) -> int:
    """Class of g^k for g in class c."""
    rows = G.mult.tolist()
    cd = G.conjugacy()
    g = cd.class_reps[c]
    k %= element_order(G, g)
    x = G.identity
    for _ in range(k):
        x = rows[x][g]
    return cd.class_of[x]


def _structure_constants(G: FiniteGroup):
    """N[F][(D,E)] = #{(d,e) in D x E : d e = rep_F}."""
    rows = G.mult.tolist()
    cd = G.conjugacy()
    r = len(cd)
    maxpair = max(cd.class_sizes) ** 2
    if maxpair > CONVOLUTION_PAIR_BUDGET:
        raise BudgetExceeded(
            f"class-pair product {maxpair} exceeds {CONVOLUTION_PAIR_BUDGET}")
    table = [dict() for _ in range(r)]
    for f_idx in range(r):
        z = cd.class_reps[f_idx]
        row = table[f_idx]
        for x in range(G.order):
            d = cd.class_of[x]
            e = cd.class_of[rows[G.inverse[x]][z]]
            row[(d, e)] = row.get((d, e), 0) + 1
    return table


def _commutator_subgroup(G: FiniteGroup) -> list[int]:
    rows = G.mult.tolist()
    n = G.order
    comms = set()
    for a in range(n):
        ai = G.inverse[a]
        for b in range(n):
            comms.add(rows[rows[a][b]][rows[ai][G.inverse[b]]])
    # close under multiplication
    members = set(comms) | {G.identity}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (rows[x][y], rows[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return sorted(members)


def _exponent_linear_characters(G: FiniteGroup) -> list[ClassFunction]:
    """Every homomorphism G -> mu_e, e the exponent: the characters of G/[G,G].

    A character is kept as integer exponents, chi(x) = zeta_e^a[x], and built
    along a chain of subgroups from N = [G,G] up to G.  To adjoin g to H, let
    k >= 1 be least with g^k in H; each character of H then extends in k ways,
    by a[g^j h] = j w + a[h] with k w = a[g^k] (mod e).  The values are
    returned at conductor e // d, d the gcd of e and every exponent, which is
    the exponent of G/N.
    """
    e = G.exponent()
    rows = G.mult.tolist()
    members = [G.identity] if G.is_abelian() else _commutator_subgroup(G)
    pos = {x: i for i, x in enumerate(members)}
    chars = [[0] * len(members)]
    for g in range(G.order):
        if g in pos:
            continue
        powers, x = [G.identity], g
        while x not in pos:
            powers.append(x)
            x = rows[x][g]
        k, at_gk, step = len(powers), pos[x], e // len(powers)
        extended = []
        for chi in chars:
            c = chi[at_gk]
            if c % k:
                raise DiagonalizationFailure(f"character does not extend to element {g}")
            for w in range(c // k, e, step):
                extended.append([(j * w + a) % e for j in range(k) for a in chi])
        chars = extended
        members = [rows[p][h] for p in powers for h in members]
        pos = {x: i for i, x in enumerate(members)}
    d = gcd(e, *(a for chi in chars for a in chi))
    roots = [CycNum.zeta(e // d, a) for a in range(e // d)]
    at_reps = [pos[rep] for rep in G.conjugacy().class_reps]
    return [ClassFunction(G, [roots[chi[i] // d] for i in at_reps]) for chi in chars]


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on 0..n-1 with the natural permutation action attached."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    action = [list(p) for p in perms]
    return FiniteGroup(mult, labels=[str(p) for p in perms],
                       perm_actions=[action], name=f"S{n}")


def inner_product(f: ClassFunction, g: ClassFunction) -> CycNum:
    """<f,g> = (1/|G|) sum_x f(x) g(x^-1), evaluated classwise."""
    f._check(g)
    G = f.group
    cd = G.conjugacy()
    total = cyc(0)
    for c in range(len(cd)):
        w = Fraction(cd.class_sizes[c], G.order)
        total = total + f.values[c] * g.values[cd.inverse_class[c]] * w
    return total


def _mat_mul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]]]
