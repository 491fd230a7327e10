"""The characteristic map: the isometric ring isomorphism from wreath-product
class functions to the colored Fock space, plus the convolution operators it
transports (the cubic identity, the convolution Virasoro bracket, filtered
convolution and its boundary-operator correspondence).

Every identity here is checked between two independent code paths: Frobenius
sums and table convolution on the group side versus symbolic mode algebra on
the Fock side; only the exact scalar layer is shared.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .budget import check_budget
from .exact import CycNum, cyc
from .groups import ClassFunction, FiniteGroup, GroupMismatch, trivial_group
from .fock import (ColorSpace, FockOperator, FockVector, W_operator, exponential_series,
                   join_boundary, point_model)
from .linop import LinearOperator
from .report import VerificationReport
from .wreath import (
    TypeFunction,
    WreathClassFunction,
    batch_inverse,
    batch_mult,
    centralizer_order,
    heisenberg_p,
    pair_batches,
    wcf_indicator,
    wcf_zero,
    wreath_level,
)


class ZeroPrefactor(ValueError):
    """The bracket prefactor vanishes for this (mode, character, class) probe."""


# ---------------------------------------------------------------------------
# the colored Fock space of a base group
# ---------------------------------------------------------------------------

def colored_space(G: FiniteGroup) -> ColorSpace:
    """One even color per conjugacy class; contraction kappa(c, c') =
    zeta_c when c' is the inverse class of c, else 0."""
    cd = G.conjugacy()
    r = len(cd)
    kappa = [[cd.centralizer_orders[c] if cd.inverse_class[c] == b else 0
              for b in range(r)] for c in range(r)]
    return ColorSpace([f"c{c}" for c in range(r)], [0] * r, kappa,
                      name=f"colors({G.name})")


def type_monomial(rho: TypeFunction) -> tuple:
    return tuple(sorted((r, c) for c, parts in rho.classes for r in parts))


def monomial_type(mono: tuple) -> TypeFunction:
    acc: dict[int, list[int]] = {}
    for r, c in mono:
        acc.setdefault(c, []).append(r)
    return TypeFunction(acc.items())


def ch(G: FiniteGroup, n: int, f: WreathClassFunction) -> FockVector:
    """ch(f) = sum_rho Z_rho^-1 f(rho) p_rho: an isometry onto weight n."""
    space = colored_space(G)
    terms = {}
    for rho, v in f.values.items():
        terms[type_monomial(rho)] = v * Fraction(1, centralizer_order(G, rho))
    return FockVector(space, terms)


def ch_inverse(G: FiniteGroup, n: int, v: FockVector) -> WreathClassFunction:
    vals = {}
    for mono, coeff in v.terms.items():
        rho = monomial_type(mono)
        vals[rho] = cyc(coeff) * centralizer_order(G, rho)
    return WreathClassFunction(G, n, vals)


def colored_pairing(G: FiniteGroup, u: FockVector, v: FockVector) -> CycNum:
    """<p_rho, p_sigma> = Z_rho when sigma is the inverse type of rho, else 0."""
    cd = G.conjugacy()
    total = cyc(0)
    for mono, cu in u.terms.items():
        rho = monomial_type(mono)
        star = type_monomial(rho.inverse(cd.inverse_class))
        cv = v.terms.get(star, 0)
        if cv != 0:
            total = total + cyc(cu) * cv * centralizer_order(G, rho)
    return total


def _p_field(G: FiniteGroup, gamma: ClassFunction) -> list:
    """sum_c (gamma(c)/zeta_c) c: the element of the colored space whose
    Heisenberg modes are the Fock images of the p_k(gamma)."""
    cd = G.conjugacy()
    return [gamma.values[c] * Fraction(1, cd.centralizer_orders[c]) for c in range(len(cd))]


def fock_side_p(G: FiniteGroup, k: int, gamma: ClassFunction) -> FockOperator:
    """The Fock image of the wreath Heisenberg operator p_k(gamma): for k > 0
    multiplication by sum_c (gamma(c)/zeta_c) a_{-k}(c), for k < 0 the
    contraction of each generator (|k|, c') with weight |k| gamma(c'^-1)."""
    if k == 0:
        raise ValueError("mode 0")
    return colored_space(G).mode(-k, _p_field(G, gamma))


def exponential_classes(G: FiniteGroup, gamma: ClassFunction, signed: bool,
                        cutoff: int) -> list[FockVector]:
    """Weight coefficients of exp(sum_k c_k p_{-k}(gamma) z^k)|0> with
    c_k = (-1)^(k-1)/k when signed, else 1/k."""
    coeffs = {k: (Fraction((-1) ** (k - 1), k) if signed else Fraction(1, k))
              for k in range(1, cutoff + 1)}
    return exponential_series(colored_space(G), coeffs, _p_field(G, gamma), cutoff)


def verify_heisenberg_transport(G: FiniteGroup, n_cutoff: int) -> VerificationReport:
    """ch(p_k(gamma) f) = (Fock action) ch(f) over indicator bases with all
    levels kept within n_cutoff."""
    report = VerificationReport(f"heisenberg-transport({G.name}, cutoff={n_cutoff})")
    gammas = G.character_table().irreducibles
    for k in range(1, n_cutoff + 1):
        for sign in (1, -1):
            mode = sign * k
            for gi, gamma in enumerate(gammas):
                op_group = heisenberg_p(G, mode, gamma)
                op_fock = fock_side_p(G, mode, gamma)
                for m in range(0, n_cutoff - k + 1):
                    src_level = m if mode > 0 else m + k
                    if src_level > n_cutoff - max(mode, 0):
                        continue
                    for rho in wreath_level(G, src_level).types:
                        f = wcf_indicator(G, src_level, rho)
                        lhs_w = op_group.apply(f)
                        lhs = ch(G, lhs_w.n, lhs_w) if not lhs_w.is_zero() else None
                        rhs = op_fock.apply(ch(G, src_level, f))
                        equal = (rhs.is_zero() if lhs is None else lhs == rhs)
                        report.add(f"p_{mode}(gamma{gi}) on {rho}", lhs, rhs, equal)
    return report


# ---------------------------------------------------------------------------
# convolution operators on the group side
# ---------------------------------------------------------------------------

def k_class_type(G: FiniteGroup, c: int, i: int, n: int) -> TypeFunction | None:
    """Type of K_i(c, n): c gets the one-part partition (i+1), the identity
    class the partition (1^(n-i-1)); None when the class is empty."""
    if n - i - 1 < 0:
        return None
    cd = G.conjugacy()
    e_cls = cd.class_of[G.identity]
    pairs: dict[int, list[int]] = {}
    pairs.setdefault(c, []).append(i + 1)
    pairs.setdefault(e_cls, []).extend([1] * (n - i - 1))
    return TypeFunction(pairs.items())


def _class_convolution(G: FiniteGroup, n: int, g: dict, f: WreathClassFunction,
                       types) -> WreathClassFunction:
    """sum_sigma g(sigma) sum_{y in K_sigma} f(z y^-1) at the representative z
    of each type in `types`, as a class function of Gamma_n.

    The products z y^-1 of each sigma are labelled in batches; counting
    their types turns the inner sum into sum_t count_t f(t), which has the
    value and the conductor (the lcm of the nonzero summands') of the
    running sum."""
    if not types:
        return wcf_zero(G, n)
    lvl = wreath_level(G, n)
    reps = lvl.representatives.take([lvl.type_index[rho] for rho in types])
    support = [(lvl.type_index[t], v) for t, v in f.values.items() if t in lvl.type_index]
    width = len(lvl.types)
    sums = []
    for sigma, gv in g.items():
        inverses = batch_inverse(G, lvl.class_elements(sigma))
        k = len(inverses)
        counts = np.zeros(len(types) * width, dtype=np.int64)
        for i, j in pair_batches(len(types), k):
            zy = batch_mult(G, reps.take(i), inverses.take(j))
            counts += np.bincount(i * width + lvl.label(zy), minlength=len(counts))
        counts = counts.reshape(len(types), width)
        sums.append((counts[:, [t for t, _ in support]].tolist(), gv))
    out = {}
    for i, rho in enumerate(types):
        acc = cyc(0)
        for counts, gv in sums:
            s = cyc(0)
            for count, (_, v) in zip(counts[i], support):
                if count:
                    s = s + v * count
            if not s.is_zero():
                acc = acc + s * gv
        if not acc.is_zero():
            out[rho] = acc
    return WreathClassFunction(G, n, out)


def convolve_by_class(G: FiniteGroup, n: int, kappa: TypeFunction,
                      f: WreathClassFunction) -> WreathClassFunction:
    """(K * f)(x) = sum_{y in K} f(x y^-1), evaluated per class of Gamma_n."""
    return _class_convolution(G, n, {kappa: 1}, f, wreath_level(G, n).types)


def delta_op(G: FiniteGroup, c: int, i: int = 1) -> LinearOperator:
    """Delta_i(K_c): convolution with K_i(c, n) on class functions of every
    level n; zero on the levels n < i + 1, where the class is empty."""
    if i not in (0, 1, 2):
        raise ValueError("only i = 0, 1, 2 are exposed")

    def fn(f: WreathClassFunction) -> WreathClassFunction:
        kappa = k_class_type(G, c, i, f.n)
        if kappa is None:
            return wcf_zero(G, f.n)
        return convolve_by_class(G, f.n, kappa, f)

    return LinearOperator(fn)


def delta1_explicit_group(W: FiniteGroup, c: int, i: int = 1) -> ClassFunction:
    """K_i(c, n) as a class-sum operator on an explicit wreath group: returns
    the indicator class function to convolve with (groups.convolution path)."""
    from .wreath import wreath_class_types
    G, n = W.wreath_base, W.wreath_n
    kappa = k_class_type(G, c, i, n)
    types = wreath_class_types(W)
    vals = [1 if (kappa is not None and t == kappa) else 0 for t in types]
    return ClassFunction(W, vals)


# ---------------------------------------------------------------------------
# the cubic identity (single color)
# ---------------------------------------------------------------------------

def cubic_formula(cutoff: int) -> FockOperator:
    """W^3_0(1) of the point model on the one-color space of the trivial group:
    (1/2) sum_{n,m>0} (p_n p_m p_{-n-m} + p_{n+m} p_{-n} p_{-m}) in
    creation-positive labels, valid up to weight `cutoff`."""
    alg = point_model()
    return W_operator(alg, 3, 0, alg.unit, cutoff, colored_space(trivial_group()))


def verify_conv_cubic(n_max: int) -> VerificationReport:
    """ch-transported Delta_1 equals the cubic operator on every class of S_n."""
    T = trivial_group()
    report = VerificationReport(f"conv-cubic(n<={n_max})")
    op = delta_op(T, 0)
    cubic = cubic_formula(n_max)
    for n in range(1, n_max + 1):
        for rho in wreath_level(T, n).types:
            f = wcf_indicator(T, n, rho)
            lhs = ch(T, n, op(f))
            rhs = cubic.apply(ch(T, n, f))
            report.add(f"S_{n} class {rho}", lhs, rhs, lhs == rhs)
    return report


# ---------------------------------------------------------------------------
# the convolution Virasoro bracket
# ---------------------------------------------------------------------------

def _p_op(G: FiniteGroup, k: int, gamma: ClassFunction) -> LinearOperator:
    return LinearOperator(heisenberg_p(G, k, gamma).apply)


def fw_l_operator(G: FiniteGroup, c: int, n: int, gamma: ClassFunction,
                  degree: int, dop: LinearOperator | None = None) -> LinearOperator:
    """L_n(gamma) extracted from [Delta_1(K_c), p_n(gamma)] by the exact
    prefactor n |Gamma|^2 gamma(c^-1) / (zeta_c d_gamma^2)."""
    cd = G.conjugacy()
    gval = gamma.values[cd.inverse_class[c]]
    if n == 0 or gval.is_zero():
        raise ZeroPrefactor(f"prefactor vanishes for mode {n}, class {c}")
    pref = (cyc(n) * (G.order ** 2) * gval
            / (cd.centralizer_orders[c] * degree ** 2))
    if dop is None:
        dop = delta_op(G, c)
    pop = _p_op(G, n, gamma)
    inv = pref.inverse()
    return dop.commutator(pop).scale(inv)


def fw_virasoro_check(G: FiniteGroup, c: int, n_modes: int = 1,
                      m_levels: int = 4) -> VerificationReport:
    """Residuals of the Virasoro relations for the bracket-extracted L_n, with
    L_0 := (1/2)[L_1, L_-1]; checked on indicator bases of levels <= m_levels."""
    report = VerificationReport(
        f"fw-virasoro({G.name}, class {c}, modes<={n_modes}, levels<={m_levels})")
    table = G.character_table()
    dop = delta_op(G, c)
    ls = {}
    skipped = []
    for gi, gamma in enumerate(table.irreducibles):
        d = table.degrees[gi]
        for n in range(-n_modes, n_modes + 1):
            if n == 0:
                continue
            try:
                ls[(gi, n)] = fw_l_operator(G, c, n, gamma, d, dop)
            except ZeroPrefactor:
                skipped.append((gi, n))
    for gi, _ in enumerate(table.irreducibles):
        if (gi, 1) in ls and (gi, -1) in ls:
            ls[(gi, 0)] = ls[(gi, 1)].commutator(ls[(gi, -1)]).scale(Fraction(1, 2))
    for (gi, n) in skipped:
        report.add(f"mode {n} gamma{gi}", "skipped", "skipped", True,
                   note="zero prefactor; probe skipped")

    def check(op, expected, label):
        for m in range(0, m_levels + 1):
            for rho in wreath_level(G, m).types:
                f = wcf_indicator(G, m, rho)
                lhs = op(f)
                rhs = expected(f)
                report.add(f"{label} at level {m} on {rho}", lhs.values,
                           rhs.values, lhs == rhs)

    pairs = [(n, m) for n in range(-n_modes, n_modes + 1)
             for m in range(-n_modes, n_modes + 1)]
    gammas = range(len(table.irreducibles))
    for gi in gammas:
        for gj in gammas:
            for n, m in pairs:
                if (gi, n) not in ls or (gj, m) not in ls:
                    continue
                if (n, m) == (1, -1) and gi == gj:
                    continue  # definitional for L_0
                br = ls[(gi, n)].commutator(ls[(gj, m)])
                if gi != gj or n == m:
                    expected = LinearOperator(lambda f: f.scale(0))
                elif (gi, n + m) in ls:
                    target = ls[(gi, n + m)]
                    expected = LinearOperator(
                        lambda f, t=target, nn=n, mm=m: t(f).scale(nn - mm))
                elif n + m == 0:
                    central = -Fraction(n ** 3 - n, 12)
                    expected = LinearOperator(lambda f, s=central: f.scale(s))
                else:
                    continue
                check(br, expected, f"[L_{n}(g{gi}), L_{m}(g{gj})]")
    return report


def transfer_bracket(G: FiniteGroup, a: ClassFunction, n: int, b: ClassFunction):
    """[Delta_1(a), p_n(b)] on every level, with Delta_1 extended linearly
    over the class-sum coefficients of a."""
    pop = _p_op(G, n, b)
    brackets = [(coeff, delta_op(G, c).commutator(pop))
                for c, coeff in enumerate(a.values) if not coeff.is_zero()]

    def fn(f):
        out = wcf_zero(G, f.n)
        for coeff, br in brackets:
            out = out + br(f).scale(coeff)
        return out

    return LinearOperator(fn)


# ---------------------------------------------------------------------------
# filtered convolution and the boundary correspondence
# ---------------------------------------------------------------------------

class GradedClassFunction:
    """Homogeneous class function on S_n with degree n - (number of parts)."""

    def __init__(self, wcf: WreathClassFunction, degree: int):
        for rho in wcf.values:
            if wcf.n - rho.total_length() != degree:
                raise ValueError("class function is not degree-homogeneous")
        self.wcf = wcf
        self.degree = degree

    @staticmethod
    def indicator(n: int, rho: TypeFunction) -> "GradedClassFunction":
        T = trivial_group()
        return GradedClassFunction(wcf_indicator(T, n, rho),
                                   n - rho.total_length())

    def __eq__(self, other):
        return (isinstance(other, GradedClassFunction)
                and self.degree == other.degree and self.wcf == other.wcf)

    def __repr__(self):
        return f"Graded(deg={self.degree}, {self.wcf.values})"


def filtered_convolution(f: GradedClassFunction,
                         g: GradedClassFunction) -> GradedClassFunction:
    """Convolution projected to filtration degree deg f + deg g."""
    T = trivial_group()
    n = f.wcf.n
    if g.wcf.n != n:
        raise GroupMismatch("filtered convolution needs equal symmetric groups")
    check_budget(factorial(n), "filtered convolution", limit=5100)
    target = f.degree + g.degree
    types = [rho for rho in wreath_level(T, n).types if n - rho.total_length() == target]
    return GradedClassFunction(_class_convolution(T, n, g.wcf.values, f.wcf, types), target)


def transposition_type(n: int) -> TypeFunction | None:
    T = trivial_group()
    return k_class_type(T, T.conjugacy().class_of[0], 1, n)


LEHN_SORGER_SIGN = -1  # fixed by the n = 2 case, then tested for all n


def lehn_sorger_check(n_max: int) -> VerificationReport:
    """The filtered convolution by the transposition class, transported by ch,
    equals the join-form boundary operator up to the recorded global sign."""
    T = trivial_group()
    report = VerificationReport(f"lehn-sorger(n<={n_max})")
    space = colored_space(T)
    boundary = join_boundary(space)
    for n in range(1, n_max + 1):
        tcls = transposition_type(n)
        for rho in wreath_level(T, n).types:
            f = GradedClassFunction.indicator(n, rho)
            if tcls is None:
                lhs = FockVector(space, {})
            else:
                t_ind = GradedClassFunction.indicator(n, tcls)
                cup = filtered_convolution(t_ind, f)
                lhs = ch(T, n, cup.wcf)
            rhs = boundary.apply(ch(T, n, f.wcf)).scale(LEHN_SORGER_SIGN)
            report.add(f"S_{n} class {rho}", lhs, rhs, lhs == rhs)
    return report
