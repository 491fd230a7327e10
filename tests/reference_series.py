"""Reference copies of the series code that `wfk.series` replaced.

`wreath_orbifold_euler` is the count as it was before the sweep went
permutation-first: it walks every (type representative, element) pair of
the whole level, a chunk of rows at a time, and then drops each row whose
permutation part does not commute with the representative's.  The body is
kept as it was, but for the import of `wfk.wreath` by its full name, so that
`tests/test_series.py` can check the permutation-first sweep of
`wfk.series.wreath_orbifold_euler` against it, count by count.

`gottsche_poincare`, `euler_product` and `hodge_product` are the product
formulas as they were before `wfk.series` multiplied one linear factor at a
time into int coefficients: each multiplies whole `PowerSeries` of Fraction
coefficients, one expanded factor (`geometric_factor`, `_binomial_plus`) at
a time.  The bodies are kept as they were, so that `tests/test_series.py`
can check the coefficients of the int kernel against them, value and type.
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np

from wfk.budget import check_budget
from wfk.series import GSet, NonIntegralResult, PowerSeries, _binomial_plus, geometric_factor


def wreath_orbifold_euler(base: GSet, n: int) -> int:
    """chi(S^n, Gamma_n) for the wreath action on the n-fold product of the
    base set, counted on the arrays of `wreath_level(base.group, n)` without
    an explicit Gamma_n: the `orbifold_euler_bruteforce` sum over class
    representatives a of |K_a| * sum_{b in C(a)} |Fix a n Fix b|, over
    |Gamma_n|.

    The class sizes are |Gamma_n| / Z_rho (`WreathLevel.class_size`).  One
    sweep of (representative, element) pairs, a chunk of rows at a time, keeps
    the b that commute with a and counts their fixed points among those of a;
    a point is moved by the formula of `wreath_gset`, y_i = T[g_i, x_{s^-1(i)}].
    As `GSet` does, the action is first checked on arrays: the identity acts
    trivially and act(a b) == act(a) o act(b) for every b and every
    generator row a, the adjacent transpositions and each generator of Gamma
    on letter 0, which generate Gamma_n."""
    from wfk.wreath import WreathBatch, batch_mult, pair_batches, wreath_level
    G, table = base.group, base.table
    check_budget(G.order ** n * factorial(n), f"orbifold commuting-pair count at level {n}")
    level = wreath_level(G, n)
    pts = np.array(list(itertools.product(range(base.points), repeat=n)),
                   dtype=np.int64).reshape(base.points ** n, n)

    def act(x: WreathBatch, p: np.ndarray = pts[None]) -> np.ndarray:
        """The images under row r of x of the points p[r], or of every point
        when p has one row for all."""
        sinv = np.argsort(x.s, axis=1)
        return table[x.g[:, None, :], np.take_along_axis(p, sinv[:, None, :], axis=2)]

    def rows(g: list, s: list) -> WreathBatch:
        """The elements (g[r], s[r]), one per row."""
        return WreathBatch(np.array(g, dtype=np.intp).reshape(len(g), n),
                           np.array(s, dtype=np.intp).reshape(len(s), n))

    e, ident = [G.identity] * n, list(range(n))
    if not np.array_equal(act(rows([e], [ident]))[0], pts):
        raise ValueError("identity must act trivially")
    swaps = [ident[:i] + [i + 1, i] + ident[i + 2:] for i in range(n - 1)]
    on_first = [[h] + e[1:] for h in G.generators] if n else []
    gens = rows([e] * len(swaps) + on_first, swaps + [ident] * len(on_first))
    for r, c in pair_batches(len(gens), level.order):
        a, b = gens.take(r), level.batch(c)
        if not np.array_equal(act(batch_mult(G, a, b)), act(a, act(b))):
            raise ValueError("action is not compatible with the product")

    reps = level.representatives
    if not np.array_equal(level.label(reps), np.arange(len(level.types))):
        raise ValueError(f"the representatives of level {n} are not one per type, in order")
    sizes = np.array([level.class_size(t) for t in level.types], dtype=np.int64)
    fixed_rep = (act(reps) == pts).all(axis=2)  # fixed_rep[t, p]: rep t fixes p
    live = np.flatnonzero(fixed_rep.any(axis=1))
    total = 0
    for r, c in pair_batches(len(live), level.order):
        t = live[r]
        b, sa = level.batch(c), reps.s[t]
        # the permutation parts commute first, as the cheaper test
        keep = (np.take_along_axis(sa, b.s, 1) == np.take_along_axis(b.s, sa, 1)).all(axis=1)
        t, b = t[keep], b.take(keep)
        a = reps.take(t)
        ab, ba = batch_mult(G, a, b), batch_mult(G, b, a)
        commute = (ab.g == ba.g).all(axis=1)
        t, b = t[commute], b.take(commute)
        both = fixed_rep[t] & (act(b) == pts).all(axis=2)
        total += int(sizes[t] @ np.count_nonzero(both, axis=1))
    if total % level.order:
        raise NonIntegralResult(f"{total} not divisible by {level.order}")
    return total // level.order


def gottsche_poincare(betti: tuple[int, int, int, int, int], order: int) -> PowerSeries:
    """prod_m (1+t^(2m-1)q^m)^b1 (1+t^(2m+1)q^m)^b3 /
    [(1-t^(2m-2)q^m)^b0 (1-t^(2m)q^m)^b2 (1-t^(2m+2)q^m)^b4]."""
    b0, b1, b2, b3, b4 = betti
    if any(b < 0 for b in betti):
        raise ValueError("Betti numbers must be non-negative")
    vars_ = ("q", "t")
    out = PowerSeries.one(vars_, order)
    for m in range(1, order + 1):
        # numerator factors (1 + u)^b = (1 - (-u))^(-(-b)) via sign trick:
        # expand (1+u)^b directly with binomial coefficients
        for power, b in (((2 * m - 1), b1), ((2 * m + 1), b3)):
            if b:
                out = out * _binomial_plus(vars_, order, {"q": m, "t": power}, b)
        for power, b in (((2 * m - 2), b0), ((2 * m), b2), ((2 * m + 2), b4)):
            if b:
                out = out * geometric_factor(vars_, order, {"q": m, "t": power}, b)
    return out


def euler_product(e: int, order: int) -> PowerSeries:
    """prod_m (1 - q^m)^(-e); e may be negative."""
    vars_ = ("q",)
    out = PowerSeries.one(vars_, order)
    for m in range(1, order + 1):
        out = out * geometric_factor(vars_, order, {"q": m}, e)
    return out


def hodge_product(h: dict[tuple[int, int], int], order: int) -> PowerSeries:
    """prod_r prod_{s,t} (1 - x^s y^t q^r (xy)^(r-1))^((-1)^(s+t+1) h^(s,t))."""
    vars_ = ("q", "x", "y")
    out = PowerSeries.one(vars_, order)
    for r in range(1, order + 1):
        for (s, t), hval in sorted(h.items()):
            if hval == 0:
                continue
            mono = {"q": r, "x": s + r - 1, "y": t + r - 1}
            sign_exp = (-1) ** (s + t + 1) * hval
            # (1-u)^(sign_exp) with sign_exp of either sign
            out = out * geometric_factor(vars_, order, mono, -sign_exp)
    return out
