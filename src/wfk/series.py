"""Truncated multivariate formal power series with exact coefficients, the
product-formula generating functions (Poincare, Euler, Hodge), and brute-force
orbifold Euler numbers for finite group actions on finite sets.

Series are truncated in q; the other exponents (t, x, y) are finite per
coefficient because every factor carries a positive q-power.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np

from .budget import ORBIFOLD_BUDGET, check_budget
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

    def __mul__(self, other):
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                if e1[0] + e2[0] > self.order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return PowerSeries(self.variables, self.order, out)

    def __eq__(self, other):
        return (isinstance(other, PowerSeries) and self.variables == other.variables
                and self.coeffs == other.coeffs)

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


def _binomial_plus(variables, order, mono: dict, exponent: int) -> PowerSeries:
    """(1 + m)^exponent for exponent >= 0."""
    expo = tuple(mono.get(v, 0) for v in variables)
    reps = min(order // expo[0], exponent)
    out = {(0,) * len(variables): Fraction(1)}
    for j in range(1, reps + 1):
        out[tuple(k * j for k in expo)] = Fraction(comb(exponent, j))
    return PowerSeries(variables, order, out)


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
    tau_row = [1, 0] + list(range(2, points))
    return GSet(group, [list(range(points)), tau_row])


def orbifold_euler_bruteforce(S: GSet) -> int:
    """(1/|G|) sum over commuting pairs of |common fixed set|, organized as a
    sum over class representatives times their centralizers."""
    G = S.group
    check_budget(G.order, "orbifold commuting-pair sum", limit=ORBIFOLD_BUDGET)
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


def wreath_orbifold_euler_check(base: GSet, n_max: int):
    """chi(S^n, Gamma_n) against the coefficients of prod (1-q^m)^(-chi(S, Gamma))."""
    from .report import VerificationReport

    report = VerificationReport(
        f"orbifold-euler({base.group.name}, {base.points} points, n<={n_max})")
    chi_base = orbifold_euler_bruteforce(base)
    rhs = euler_product(chi_base, n_max).q_coefficients_scalar()
    report.add("n=0", 1, rhs[0], rhs[0] == 1)
    for n in range(1, n_max + 1):
        lhs = orbifold_euler_bruteforce(wreath_gset(base, n))
        report.add(f"n={n}", lhs, rhs[n], Fraction(lhs) == rhs[n])
    return report
