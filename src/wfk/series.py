"""Truncated multivariate formal power series with exact coefficients, the
product-formula generating functions (Poincare, Euler, Hodge), and brute-force
orbifold Euler numbers for finite group actions on finite sets.

Series are truncated in q; the other exponents (t, x, y) are finite per
coefficient because every factor carries a positive q-power.

`orbifold_euler_bruteforce` sums over the commuting pairs of an explicit
group acting through a `GSet`.  The wreath check counts chi(S^n, Gamma_n) by
`wreath_orbifold_euler` on the arrays of the level, a chunk of element pairs
at a time, so no explicit Gamma_n is built.  The sweep goes
permutation-first (`WreathLevel.sweep`): each class representative meets
only the elements whose permutation commutes with its own.  `wreath_gset`
builds the explicit Gamma_n and its GSet, and stays as the gate the tests
check the count against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np

from .budget import check_budget
from .groups import FiniteGroup


class NonIntegralResult(ArithmeticError):
    """The commuting-pair sum failed to be divisible by |G|."""


class PowerSeries:
    """Exact power series in a subset of {q, t, x, y}, truncated in q.

    Coefficients are keyed by exponent tuples aligned with `variables`;
    the q-exponent is always the first coordinate.
    """

    def __init__(self, variables: tuple[str, ...], order: int, coeffs: dict | None = None):
        if not variables or variables[0] != "q":
            raise ValueError("the first variable must be q")
        self.variables = tuple(variables)
        self.order = order
        self.coeffs: dict[tuple[int, ...], Fraction] = {}
        for expo, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0 and expo[0] <= order:
                self.coeffs[tuple(expo)] = self.coeffs.get(tuple(expo), Fraction(0)) + c
        self.coeffs = {e: c for e, c in self.coeffs.items() if c != 0}

    @classmethod
    def _of(cls, variables: tuple[str, ...], order: int, coeffs: dict) -> "PowerSeries":
        """The series with these coefficients, taken as given (Fractions keyed
        by exponent tuples of q-exponent <= order) except that zeros are
        dropped."""
        s = object.__new__(cls)
        s.variables = variables
        s.order = order
        s.coeffs = {e: c for e, c in coeffs.items() if c != 0}
        return s

    @staticmethod
    def one(variables, order) -> "PowerSeries":
        zero = (0,) * len(variables)
        return PowerSeries(variables, order, {zero: Fraction(1)})

    def _check(self, other: "PowerSeries"):
        if self.variables != other.variables or self.order != other.order:
            raise ValueError("series live in different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PowerSeries(self.variables, self.order, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) - c
        return PowerSeries(self.variables, self.order, out)

    def _numerators(self) -> tuple[list, int]:
        """The (exponent, int numerator) pairs of the coefficients over their
        least common denominator, and that denominator."""
        den = lcm(1, *(c.denominator for c in self.coeffs.values()))
        return [(e, c.numerator * (den // c.denominator)) for e, c in self.coeffs.items()], den

    def __mul__(self, other):
        self._check(other)
        (left, lden), (right, rden) = self._numerators(), other._numerators()
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in left:
            for e2, c2 in right:
                if e1[0] + e2[0] > self.order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        den = lden * rden
        return PowerSeries._of(self.variables, self.order,
                               {e: Fraction(c, den) for e, c in out.items() if c})

    def __eq__(self, other):
        return (isinstance(other, PowerSeries) and self.variables == other.variables
                and self.order == other.order and self.coeffs == other.coeffs)

    def q_coefficient(self, n: int) -> dict[tuple[int, ...], Fraction]:
        """Coefficient of q^n as a polynomial in the remaining variables."""
        return {e[1:]: c for e, c in self.coeffs.items() if e[0] == n}

    def q_coefficients_scalar(self) -> list[Fraction]:
        """[q^n] as scalars; requires no other variables present."""
        out = [Fraction(0)] * (self.order + 1)
        for e, c in self.coeffs.items():
            if any(e[1:]):
                raise ValueError("series still carries non-q variables")
            out[e[0]] += c
        return out

    def substitute_unit(self, var: str, value: int) -> "PowerSeries":
        """Substitute t/x/y := value with value in {1, -1}."""
        if value not in (1, -1):
            raise ValueError("only +-1 substitutions are supported")
        idx = self.variables.index(var)
        out: dict[tuple[int, ...], Fraction] = {}
        newvars = self.variables[:idx] + self.variables[idx + 1:]
        for e, c in self.coeffs.items():
            sign = -1 if (value == -1 and e[idx] % 2) else 1
            ne = e[:idx] + e[idx + 1:]
            out[ne] = out.get(ne, Fraction(0)) + c * sign
        return PowerSeries(newvars, self.order, out)

    def __repr__(self):
        bits = []
        for e, c in sorted(self.coeffs.items())[:12]:
            mono = "*".join(f"{v}^{k}" for v, k in zip(self.variables, e) if k)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        more = "..." if len(self.coeffs) > 12 else ""
        return f"Series({' + '.join(bits)}{more})"


# `geometric_factor` and `_binomial_plus` expand one factor as a whole
# series; the product formulas below no longer call them.  They stay for the
# tests, and `perfbench/tracer.py` times `geometric_factor` by name.

def geometric_factor(variables, order, mono: dict, exponent: int) -> PowerSeries:
    """(1 - m)^(-exponent) for a monomial m with positive q-degree; negative
    `exponent` gives the binomial expansion of (1 - m)^|exponent|."""
    expo = tuple(mono.get(v, 0) for v in variables)
    if expo[0] <= 0:
        raise ValueError("factor monomial must have positive q-degree")
    reps = order // expo[0]
    out = {(0,) * len(variables): Fraction(1)}
    if exponent >= 0:
        for j in range(1, reps + 1):
            out[tuple(k * j for k in expo)] = Fraction(comb(j + exponent - 1, exponent - 1)) \
                if exponent > 0 else Fraction(0)
    else:
        e = -exponent
        for j in range(1, min(reps, e) + 1):
            out[tuple(k * j for k in expo)] = Fraction((-1) ** j * comb(e, j))
    return PowerSeries(variables, order, out)


def _binomial_plus(variables, order, mono: dict, exponent: int) -> PowerSeries:
    """(1 + m)^exponent for exponent >= 0."""
    expo = tuple(mono.get(v, 0) for v in variables)
    reps = min(order // expo[0], exponent)
    out = {(0,) * len(variables): Fraction(1)}
    for j in range(1, reps + 1):
        out[tuple(k * j for k in expo)] = Fraction(comb(exponent, j))
    return PowerSeries(variables, order, out)


class _Product:
    """A product of factors (1 + s u) and 1 / (1 - u), u a monomial of
    positive q-degree, kept as int coefficients truncated in q: `layers[j]`
    maps the exponents of the other variables to the coefficient of q^j.
    Every factor has int coefficients, so the product has too; `series`
    builds one Fraction per coefficient, at the end."""

    def __init__(self, variables: tuple[str, ...], order: int):
        self.variables = variables
        self.order = order
        self.layers: list[dict[tuple[int, ...], int]] = [{} for _ in range(order + 1)]
        if order >= 0:
            self.layers[0][(0,) * (len(variables) - 1)] = 1

    def times(self, q: int, rest: tuple[int, ...], sign: int) -> None:
        """self *= 1 + sign * u, u the monomial of q-degree q and exponents
        `rest` in the other variables, in one pass from the highest q-degree
        down, so that each layer is read before it is written."""
        layers = self.layers
        for j in range(self.order - q, -1, -1):
            dst = layers[j + q]
            for e, c in layers[j].items():
                e = tuple(a + b for a, b in zip(e, rest))
                dst[e] = dst.get(e, 0) + sign * c

    def over(self, q: int, rest: tuple[int, ...]) -> None:
        """self /= 1 - u, in one pass from the lowest q-degree up: each layer
        is final when it is read, and adds itself times u to a later one."""
        layers = self.layers
        for j in range(self.order - q + 1):
            dst = layers[j + q]
            for e, c in layers[j].items():
                e = tuple(a + b for a, b in zip(e, rest))
                dst[e] = dst.get(e, 0) + c

    def power(self, q: int, rest: tuple[int, ...], exponent: int) -> None:
        """self *= (1 - u)^exponent, for an int exponent of either sign."""
        for _ in range(exponent):
            self.times(q, rest, -1)
        for _ in range(-exponent):
            self.over(q, rest)

    def series(self) -> PowerSeries:
        return PowerSeries._of(self.variables, self.order,
                               {(j,) + e: Fraction(c) for j, layer in enumerate(self.layers)
                                for e, c in sorted(layer.items()) if c})


def gottsche_poincare(betti: tuple[int, int, int, int, int], order: int) -> PowerSeries:
    """prod_m (1+t^(2m-1)q^m)^b1 (1+t^(2m+1)q^m)^b3 /
    [(1-t^(2m-2)q^m)^b0 (1-t^(2m)q^m)^b2 (1-t^(2m+2)q^m)^b4]."""
    b0, b1, b2, b3, b4 = betti
    if any(b < 0 for b in betti):
        raise ValueError("Betti numbers must be non-negative")
    out = _Product(("q", "t"), order)
    for m in range(1, order + 1):
        for power, b in (((2 * m - 1), b1), ((2 * m + 1), b3)):
            for _ in range(b):
                out.times(m, (power,), 1)
        for power, b in (((2 * m - 2), b0), ((2 * m), b2), ((2 * m + 2), b4)):
            out.power(m, (power,), -b)
    return out.series()


def euler_product(e: int, order: int) -> PowerSeries:
    """prod_m (1 - q^m)^(-e); e may be negative."""
    out = _Product(("q",), order)
    for m in range(1, order + 1):
        out.power(m, (), -e)
    return out.series()


def hodge_product(h: dict[tuple[int, int], int], order: int) -> PowerSeries:
    """prod_r prod_{s,t} (1 - x^s y^t q^r (xy)^(r-1))^((-1)^(s+t+1) h^(s,t))."""
    out = _Product(("q", "x", "y"), order)
    for r in range(1, order + 1):
        for (s, t), hval in sorted(h.items()):
            out.power(r, (s + r - 1, t + r - 1), (-1) ** (s + t + 1) * hval)
    return out.series()


# ---------------------------------------------------------------------------
# orbifold Euler numbers on finite models
# ---------------------------------------------------------------------------

class GSet:
    """Finite group action: table[g, p] is the image of point p under g.

    `table` is a read-only `np.int32` array with one row per group element,
    checked exactly on construction to be an action of `group`: the identity
    acts trivially and table[a*b] == table[a] o table[b] for every generator
    a in `group.generators` and every b.  On the associative table of a group
    the elements a that pass are closed under the product, and every element
    is a product of generators (Light's test, see `FiniteGroup._validate`),
    so this covers every a.
    """

    def __init__(self, group: FiniteGroup, table):
        self.group = group
        self.table = np.array(table, dtype=np.int32)
        self.table.flags.writeable = False
        if self.table.ndim != 2 or len(self.table) != group.order:
            raise ValueError("action table needs one row per group element")
        self.points = self.table.shape[1]
        if not np.array_equal(self.table[group.identity], np.arange(self.points)):
            raise ValueError("identity must act trivially")
        m, t = group.mult, self.table
        for a in group.generators:
            if not np.array_equal(t[m[a]], t[a][t]):
                raise ValueError("action is not compatible with the product")

    @staticmethod
    def trivial(group: FiniteGroup, points: int) -> "GSet":
        return GSet(group, [list(range(points)) for _ in range(group.order)])


def swap_action(group: FiniteGroup, points: int = 2) -> GSet:
    """Z/2 swapping two points (identity on the rest)."""
    if group.order != 2:
        raise ValueError("swap_action expects a 2-element group")
    if points < 2:
        raise ValueError(f"swap_action needs at least two points to swap, got {points}")
    tau_row = [1, 0] + list(range(2, points))
    return GSet(group, [list(range(points)), tau_row])


def orbifold_euler_bruteforce(S: GSet) -> int:
    """(1/|G|) sum over commuting pairs of |common fixed set|, organized as a
    sum over class representatives times their centralizers."""
    G = S.group
    check_budget(G.order, "orbifold commuting-pair sum")
    cd = G.conjugacy()
    m = G.mult
    fixed = S.table == np.arange(S.points)  # fixed[h, p]: h fixes p
    total = 0
    for c, rep in enumerate(cd.class_reps):
        fixed_rep = fixed[rep]
        if not fixed_rep.any():
            continue
        centralizer = m[rep] == m[:, rep]
        sub = int(np.count_nonzero(fixed[centralizer][:, fixed_rep]))
        total += cd.class_sizes[c] * sub
    if total % G.order:
        raise NonIntegralResult(f"{total} not divisible by {G.order}")
    return total // G.order


def wreath_gset(base: GSet, n: int) -> GSet:
    """The wreath action on the n-fold product of the base set:
    a . (x_1..x_n) = (g_1 x_{s^-1(1)}, ..., g_n x_{s^-1(n)})."""
    from .wreath import batch_inverse, build_wreath, wreath_level
    W = build_wreath(base.group, n)
    pts = list(itertools.product(range(base.points), repeat=n))
    pts = np.array(pts, dtype=np.int64).reshape(len(pts), n)
    x = wreath_level(base.group, n).batch(np.arange(W.order))  # the elements of W in order
    g, sinv = x.g, batch_inverse(base.group, x).s
    # img[a, p, i] = g_i x_{s^-1(i)} for element a and point p = (x_1..x_n);
    # points are numbered in itertools.product order, last coordinate fastest
    img = base.table[g[:, None, :], pts[:, sinv].transpose(1, 0, 2)]
    table = img @ (base.points ** np.arange(n - 1, -1, -1))
    return GSet(W, table)


def wreath_orbifold_euler(base: GSet, n: int) -> int:
    """chi(S^n, Gamma_n) for the wreath action on the n-fold product of the
    base set, counted on the arrays of `wreath_level(base.group, n)` without
    an explicit Gamma_n: the `orbifold_euler_bruteforce` sum over class
    representatives a of |K_a| * sum_{b in C(a)} |Fix a n Fix b|, over
    |Gamma_n|.

    The class sizes are |Gamma_n| / Z_rho (`WreathLevel.class_size`).  The
    sweep goes permutation-first: the permutation part of ab is the product
    of those of a and b, so `WreathLevel.sweep` first keeps the (a, s) pairs
    whose permutations commute, over the n! permutations of the level, and
    then walks the |Gamma|^n elements b of each kept s.  Of these it keeps
    the b that commute with a and counts their fixed points among those of
    a; a point is moved by the formula of `wreath_gset`,
    y_i = T[g_i, x_{s^-1(i)}].
    As `GSet` does, the action is first checked on arrays: the identity acts
    trivially and act(a b) == act(a) o act(b) for every b and every
    generator row a, the adjacent transpositions and each generator of Gamma
    on letter 0, which generate Gamma_n."""
    from .wreath import WreathBatch, batch_mult, pair_batches, wreath_level
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

    def commutes(r: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Whether s commutes with the permutation of representative live[r]."""
        sa = reps.s[live[r]]
        return (np.take_along_axis(sa, s, 1) == np.take_along_axis(s, sa, 1)).all(axis=1)

    total = 0
    for r, b in level.sweep(len(live), commutes):
        t = live[r]
        a = reps.take(t)
        ab, ba = batch_mult(G, a, b), batch_mult(G, b, a)
        commute = (ab.g == ba.g).all(axis=1)
        t, b = t[commute], b.take(commute)
        both = fixed_rep[t] & (act(b) == pts).all(axis=2)
        total += int(sizes[t] @ np.count_nonzero(both, axis=1))
    if total % level.order:
        raise NonIntegralResult(f"{total} not divisible by {level.order}")
    return total // level.order


def wreath_orbifold_euler_check(base: GSet, n_max: int):
    """chi(S^n, Gamma_n) against the coefficients of prod (1-q^m)^(-chi(S, Gamma)):
    the left side by `wreath_orbifold_euler` at every level n >= 1, the base
    number chi(S, Gamma) by `orbifold_euler_bruteforce`."""
    from .report import VerificationReport

    report = VerificationReport(
        f"orbifold-euler({base.group.name}, {base.points} points, n<={n_max})")
    chi_base = orbifold_euler_bruteforce(base)
    rhs = euler_product(chi_base, n_max).q_coefficients_scalar()
    report.add("n=0", 1, rhs[0], rhs[0] == 1)
    for n in range(1, n_max + 1):
        lhs = wreath_orbifold_euler(base, n)
        report.add(f"n={n}", lhs, rhs[n], Fraction(lhs) == rhs[n])
    return report
