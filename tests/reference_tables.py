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
"""

from __future__ import annotations

import itertools
import random
import sys

import numpy as np

from wfk.exact import CycNum, cyc
from wfk.groups import (_ASSOC_FULL_LIMIT, _SAMPLE_TRIPLES, ClassFunction,
                        DiagonalizationFailure, FiniteGroup, NonInvertibleMatrix,
                        _commutator_subgroup, _mat_mul)
from wfk.linalg import row_reduce

linalg = sys.modules[__name__]


def nullspace(matrix: list[list], one, zero) -> list[list]:
    """Basis of the right kernel; `one`/`zero` are the field constants."""
    if not matrix:
        return []
    work = [list(row) for row in matrix]
    cols = len(work[0])
    _, pivots = row_reduce(work)
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
                for b in (G.rows[x][a], *[G.rows[g][a] for g in gens]):
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
    e = G.exponent()
    one, zero = cyc(1), cyc(0)
    spaces = [[[one if i == j else zero for j in range(n)] for i in range(n)]]
    for g in _abelian_generators(G):
        o = G.element_order(g)
        roots = [CycNum.zeta(e, (e // o) * k) for k in range(o)]
        perm = [G.rows[g][j] for j in range(n)]  # e_j -> e_{g j}
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
    rows = []
    cd = G.conjugacy()
    for basis in spaces:
        if len(basis) != 1:
            raise DiagonalizationFailure("abelian splitting did not reach lines")
        v = basis[0]
        j0 = next(j for j, c in enumerate(v) if not (c == 0))
        # (rho(g)v)_i = v_{g^{-1} i}, so the eigenvalue is read off at i = j0
        values = [v[G.rows[G.inverse[rep]][j0]] / v[j0] for rep in cd.class_reps]
        rows.append(ClassFunction(G, values))
    return rows


def _linear_characters(G: FiniteGroup) -> list[ClassFunction]:
    """Lift the characters of G/[G,G]."""
    N = _commutator_subgroup(G)
    nset = set(N)
    coset_of = {}
    cosets = []
    for x in range(G.order):
        if x in coset_of:
            continue
        idx = len(cosets)
        members = sorted(G.rows[x][h] for h in N)
        for y in members:
            coset_of[y] = idx
        cosets.append(members[0])
    q = len(cosets)
    mult = [[coset_of[G.rows[cosets[i]][cosets[j]]] for j in range(q)] for i in range(q)]
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
