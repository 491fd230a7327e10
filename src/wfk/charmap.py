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

from .exact import CycNum, cyc
from .groups import ClassFunction, FiniteGroup, GroupMismatch, trivial_group
from .fock import (ColorSpace, FockOperator, FockVector, W_operator, exponential_series,
                   join_boundary, point_model)
from .report import VerificationReport
from .wreath import (
    TypeFunction,
    WreathClassFunction,
    centralizer_order,
    eta_eps_characters,
    heisenberg_p,
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
    zeta_c when c' is the inverse class of c, else 0.  Kept on G, so that
    `ch` and the p-modes share one space and its grades."""
    space = vars(G).get("colored_space")
    if space is None:
        cd = G.conjugacy()
        r = len(cd)
        kappa = [[cd.centralizer_orders[c] if cd.inverse_class[c] == b else 0
                  for b in range(r)] for c in range(r)]
        space = vars(G)["colored_space"] = ColorSpace(
            [f"c{c}" for c in range(r)], [0] * r, kappa, name=f"colors({G.name})")
    return space


def type_monomial(rho: TypeFunction) -> tuple:
    return tuple(sorted((r, c) for c, parts in rho for r in parts))


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


def verify_eq_sign(G: FiniteGroup, n_max: int) -> VerificationReport:
    """ch of the characters eta_n(gamma) and eps_n(gamma) equals the weight-n
    coefficient of the exponential series in p_{-k}(gamma), for every
    irreducible gamma and n <= n_max."""
    report = VerificationReport(f"eq-sign({G.name}, n<={n_max})")
    for gi, gamma in enumerate(G.character_table().irreducibles):
        for signed in (False, True):
            series = exponential_classes(G, gamma, signed, n_max)
            for n in range(n_max + 1):
                lhs = ch(G, n, eta_eps_characters(G, n, gamma, signed))
                report.add(f"{'eps' if signed else 'eta'}_{n}(g{gi})",
                           lhs, series[n], lhs == series[n])
    return report


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
                # p_mode maps level m to m + mode; both stay within n_cutoff
                for src_level in range(max(-mode, 0), n_cutoff - max(mode, 0) + 1):
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

    The rows of each class table (`WreathLevel.class_counts`) turn the inner
    sum into sum_t count_t f(t) over the nonzero counts.  Summed from its
    first term, it has the value and the conductor (the lcm of the
    summands') of the running sum from 0, and so has the outer sum."""
    if not types:
        return wcf_zero(G, n)
    lvl = wreath_level(G, n)
    rows = [lvl.type_index[rho] for rho in types]
    support = [(lvl.type_index[t], v) for t, v in f.values.items() if t in lvl.type_index]
    cols, vals = [t for t, _ in support], [v for _, v in support]
    sums = [(lvl.class_counts(sigma, rows)[:, cols].tolist(), gv) for sigma, gv in g.items()]
    out = {}
    for i, rho in enumerate(types):
        acc = None
        for counts, gv in sums:
            s = None
            for count, v in zip(counts[i], vals):
                if count:
                    s = v * count if s is None else s + v * count
            if s is not None and not s.is_zero():
                acc = s * gv if acc is None else acc + s * gv
        if acc is not None and not acc.is_zero():
            out[rho] = acc
    return WreathClassFunction._of(G, n, out)


def convolve_by_class(G: FiniteGroup, n: int, kappa: TypeFunction,
                      f: WreathClassFunction) -> WreathClassFunction:
    """(K * f)(x) = sum_{y in K} f(x y^-1), evaluated per class of Gamma_n."""
    return _class_convolution(G, n, {kappa: 1}, f, wreath_level(G, n).types)


def _linear(fn):
    """The linear extension of `fn`, given on the type indicators of every
    level.  fn(1_rho) is computed once for each type rho of an input and
    kept by rho; v goes to 0 + sum_rho fn(1_rho) v(rho), summed in the order
    of `v.values` by `WreathClassFunction.__add__`, whose set-union key
    order `verify fw-virasoro` prints."""
    columns = {}

    def apply(v: WreathClassFunction) -> WreathClassFunction:
        out = wcf_zero(v.group, v.n)
        for rho, c in v.values.items():
            col = columns.get(rho)
            if col is None:
                col = columns[rho] = fn(wcf_indicator(v.group, v.n, rho))
            out = out + col.scale(c)
        return out

    return apply


def _commutator(a, b):
    """[a, b], with columns of its own."""
    return _linear(lambda f: a(b(f)) - b(a(f)))


def _scaled(op, s):
    """s op, with columns of its own."""
    return _linear(lambda f: op(f).scale(s))


def delta_op(G: FiniteGroup, c: int, i: int = 1):
    """Delta_i(K_c): convolution with K_i(c, n) on class functions of every
    level n; zero on the levels n < i + 1, where the class is empty."""
    if i not in (0, 1, 2):
        raise ValueError("only i = 0, 1, 2 are exposed")

    def fn(f: WreathClassFunction) -> WreathClassFunction:
        kappa = k_class_type(G, c, i, f.n)
        if kappa is None:
            return wcf_zero(G, f.n)
        return convolve_by_class(G, f.n, kappa, f)

    return _linear(fn)


# ---------------------------------------------------------------------------
# the cubic identity (single color)
# ---------------------------------------------------------------------------

def cubic_formula(cutoff: int) -> FockOperator:
    """W^3_0(1) of the point model, whose one color pairs with itself as the
    class of the trivial group does: (1/2) sum_{n,m>0} (p_n p_m p_{-n-m} +
    p_{n+m} p_{-n} p_{-m}) in creation-positive labels, valid up to weight
    `cutoff`.  Built on a space of its own, which its mode blocks go with."""
    alg = point_model()
    return W_operator(alg, 3, 0, alg.unit, cutoff)


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

def _p_op(G: FiniteGroup, k: int, gamma: ClassFunction):
    return _linear(heisenberg_p(G, k, gamma).apply)


def fw_l_operator(G: FiniteGroup, c: int, n: int, gamma: ClassFunction,
                  degree: int, dop=None):
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
    return _scaled(_commutator(dop, _p_op(G, n, gamma)), pref.inverse())


def fw_virasoro_check(G: FiniteGroup, c: int | None = None, n_modes: int = 1,
                      m_levels: int = 4) -> VerificationReport:
    """Residuals of the Virasoro relations for the bracket-extracted L_n, with
    L_0 := (1/2)[L_1, L_-1]; checked on indicator bases of levels <= m_levels.
    The class c defaults to the first nontrivial self-inverse class, else 0.

    p_k(gamma) is the Fock-side creation mode a_{-k}, so for n != 0 this L_n
    is ch^-1 L^F_{-n} ch, L^F = W^2 on the Fock side, and this L_0 is -L^F_0.
    [L^F_a, L^F_b] = (a-b) L^F_{a+b} + (a^3-a)/12 d_{a+b,0} Id, central
    charge 1 per irreducible, gives [L_n, L_m] = (m-n) L_{n+m} when n, m and
    n+m are nonzero, else (n-m) L_{n+m} - d_{n+m,0} (n^3-n)/12 Id."""
    cd = G.conjugacy()
    if c is None:
        c = next((i for i, rep in enumerate(cd.class_reps)
                  if rep != G.identity and cd.inverse_class[i] == i), 0)
    if not 0 <= c < len(cd):
        raise ValueError(f"class index {c} out of range: {G.name} has {len(cd)} classes")
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
    compositions = {}

    def composed(x, y):
        """ls[x] after ls[y], with columns of its own, built once for every
        bracket and L_0 that reads it."""
        if (x, y) not in compositions:
            compositions[x, y] = _linear(lambda f, a=ls[x], b=ls[y]: a(b(f)))
        return compositions[x, y]

    def bracket(x, y):
        """[ls[x], ls[y]] from the two kept compositions, with columns of its own."""
        ab, ba = composed(x, y), composed(y, x)
        return _linear(lambda f: ab(f) - ba(f))

    for gi, _ in enumerate(table.irreducibles):
        if (gi, 1) in ls and (gi, -1) in ls:
            ls[(gi, 0)] = _scaled(bracket((gi, 1), (gi, -1)), Fraction(1, 2))
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
                br = bracket((gi, n), (gj, m))
                if gi != gj or n == m:
                    expected = lambda f: f.scale(0)
                elif (gi, n + m) in ls:
                    s = n - m if 0 in (n, m, n + m) else m - n
                    central = Fraction(n ** 3 - n, 12) if n + m == 0 else 0
                    expected = lambda f, t=ls[(gi, n + m)], s=s, z=central: \
                        t(f).scale(s) - f.scale(z)
                else:
                    continue
                check(br, expected, f"[L_{n}(g{gi}), L_{m}(g{gj})]")
    return report


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
                cup = filtered_convolution(f, t_ind)
                lhs = ch(T, n, cup.wcf)
            rhs = boundary.apply(ch(T, n, f.wcf)).scale(LEHN_SORGER_SIGN)
            report.add(f"S_{n} class {rho}", lhs, rhs, lhs == rhs)
    return report
