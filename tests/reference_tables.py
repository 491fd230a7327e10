"""Reference copy of the linear-character path that `wfk.groups` replaced.

`_abelian_table` splits the regular representation into common eigenlines
over `CycNum` with `nullspace`; `_linear_characters` builds the quotient
G/[G,G] as a `FiniteGroup` and splits that.  The functions below are kept as
they were, so that `tests/test_linear_characters.py` can check the
integer-exponent `wfk.groups._linear_characters` against them, value by
value and conductor by conductor.  `linalg.nullspace` is resolved to this
module's own copy of `nullspace`.
"""

from __future__ import annotations

import sys

from wfk.exact import CycNum, cyc
from wfk.groups import (ClassFunction, DiagonalizationFailure, FiniteGroup,
                        _commutator_subgroup)
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
