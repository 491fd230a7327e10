"""Reference copy of the symbolic induction and annihilation, of the
class-member searches, of the element-loop induction oracle and of the tuple
element encoding that `wfk.wreath` replaced.

`induce` sweeps every type rho of the target level and enumerates the
sub-multiset splits rho = alpha u beta (`_splits`), keeping those with
|alpha| = n; the k < 0 branch of `HeisenbergOperator.apply` sweeps every
type beta of the target level and every class c.  `class_elements` is the
conjugation orbit of the canonical representative of a type;
`type_scan_class_elements` keeps the elements whose `type_of` is the type,
one tuple at a time, and `label_scan_class_elements` keeps the elements of
the level whose batch label is the type, as `WreathLevel.class_elements`
did before it built each class from its type, with the labels of the
whole level that `WreathLevel._labels` kept (`level_labels`);
`induce_bruteforce` is the tuple-by-tuple Frobenius sum, and
`array_induce_bruteforce` the array sweep of every (representative,
element) pair of the whole level that `wfk.wreath.induce_bruteforce` ran
before it tested the permutation parts first.  `build_wreath` fills the
explicit table one row at a time and builds the permutation actions with a
dict loop;
`sum_scaled` multiplies every column value by its coefficient, and `add`
and `neg` are `WreathClassFunction.__add__` and `__neg__` as they were when
every result value went through `cyc()` and a value on one side only was
added to `cyc(0)`.  `unit_sum_scaled` and `scale` are
`WreathClassFunction.sum_scaled` and `scale` as they were before the
fw-Virasoro operators summed their columns through `+` and `scale`: the
first takes a value as it is when the coefficient is a `CycNum` one of a
dividing conductor, the second puts every product through `cyc()`.
`elements` lists a level as tuples,
`representative_of_type` builds the canonical element of a type as a tuple,
and `wreath_class_types` and `wreath_gset` read the explicit group through
the tuple list `wreath_elements`, which the explicit group used to store.
The bodies below are kept as they were, so that
`tests/test_wreath_reference.py` can check the support sums, the numpy
element batches and the level's arrays of `wfk.wreath` against them, value
by value and in key order, and the members of each class as a set or,
against the type and label scans, as a list; and can check the block-filled
table byte for byte, and the unit skip of `WreathClassFunction.scale`,
the sums of scaled columns and the sums without `cyc()` value by value,
conductor by conductor and in key order.

`p_minus_adjoint`, p_{-n}(gamma) as the adjoint of p_n(gamma), is a helper
that only the tests call; it moved here from `wfk.wreath` as it was.  So did
`wreath_identity`, the identity element of the tuple encoding, and so did
`weighted_gram_wreath`, the xi-weighted Gram matrix on the irreducibles of
the explicit Gamma_n, from `wfk.mckay`, with `build_wreath` read off
`wfk.wreath` (this module's `build_wreath` is the row-by-row copy), and the
two conversions between class functions of the explicit group and by type
that only it and the tests called, `wcf_from_class_function` and
`wcf_to_class_function`, from `wfk.wreath`, with `wreath_class_types` read
off `wfk.wreath` as well.

`heisenberg_check` is the bracket suite as it was before p_k(gamma) became
its level blocks: every p_k(gamma) wrapped in a column cache
(`reference_linop.LinearOperator`), and each bracket applied to one indicator at a time as dict columns.
`tests/test_wreath_reference.py` checks that the block brackets of
`wfk.wreath.heisenberg_check` give the same report, probe by probe.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

import numpy as np

from wfk import wreath
from wfk.budget import BudgetExceeded, check_budget
from wfk.exact import CycNum, cyc
from wfk.groups import (ClassFunction, FiniteGroup, GroupMismatch, defining_character,
                        inner_product, trivial_character)
from wfk.report import VerificationReport
from wfk.series import GSet
from wfk.wreath import (_EXPLICIT_TABLE_LIMIT, TypeFunction, WreathBatch,
                        WreathClassFunction, WreathElement, WreathLevel, _unit_conductor,
                        batch_inverse, batch_mult, centralizer_order, heisenberg_p, pair_batches,
                        partition_multiplicities, perm_inverse, sigma_n, type_of,
                        wcf_indicator, wcf_zero, weighted_form,
                        wreath_inverse, wreath_level, wreath_mult, wreath_pairing)

import reference_linop


def wreath_identity(G: FiniteGroup, n: int) -> WreathElement:
    return WreathElement((G.identity,) * n, tuple(range(n)))


def elements(self: WreathLevel):
    G = self.group
    for s in itertools.permutations(range(self.n)):
        for g in itertools.product(range(G.order), repeat=self.n):
            yield WreathElement(g, s)


def representative_of_type(G: FiniteGroup, n: int, rho: TypeFunction) -> WreathElement:
    """Canonical element: consecutive cycles, class representative on the
    first letter of each cycle."""
    if rho.size() > n:
        raise ValueError(f"type of size {rho.size()} does not fit in level {n}")
    cd = G.conjugacy()
    g = [G.identity] * n
    s = list(range(n))
    pos = 0
    for c, parts in rho:
        for r in parts:
            letters = list(range(pos, pos + r))
            for i in range(r):
                s[letters[i]] = letters[(i + 1) % r]
            g[letters[0]] = cd.class_reps[c]
            pos += r
    return WreathElement(tuple(g), tuple(s))


def wreath_elements(W: FiniteGroup) -> list[WreathElement]:
    """The element list an explicit wreath group used to store: `elements`
    of its level, the order of its table."""
    return list(elements(wreath_level(W.wreath_base, W.wreath_n)))


def wreath_class_types(W: FiniteGroup) -> list[TypeFunction]:
    """Type of each conjugacy class of an explicit wreath group."""
    G, n = W.wreath_base, W.wreath_n
    cd = W.conjugacy()
    elems = wreath_elements(W)
    return [type_of(G, n, elems[rep]) for rep in cd.class_reps]


def wreath_gset(base: GSet, n: int) -> GSet:
    """The wreath action on the n-fold product of the base set:
    a . (x_1..x_n) = (g_1 x_{s^-1(1)}, ..., g_n x_{s^-1(n)})."""
    from wfk.wreath import build_wreath
    W = build_wreath(base.group, n)
    pts = list(itertools.product(range(base.points), repeat=n))
    pts = np.array(pts, dtype=np.int64).reshape(len(pts), n)
    elems = wreath_elements(W)
    g = np.array([a.g for a in elems], dtype=np.intp).reshape(W.order, n)
    sinv = np.array([perm_inverse(a.s) for a in elems], dtype=np.intp).reshape(W.order, n)
    # img[a, p, i] = g_i x_{s^-1(i)} for element a and point p = (x_1..x_n);
    # points are numbered in itertools.product order, last coordinate fastest
    img = base.table[g[:, None, :], pts[:, sinv].transpose(1, 0, 2)]
    table = img @ (base.points ** np.arange(n - 1, -1, -1))
    return GSet(W, table)


def class_elements(self: WreathLevel, rho: TypeFunction) -> list[WreathElement]:
    """Conjugation orbit of the canonical representative."""
    check_budget(self.order, f"class orbit in level {self.n}")
    if rho in self._class_elements:
        return self._class_elements[rho]
    G = self.group
    rep = representative_of_type(G, self.n, rho)
    seen = {rep}
    for y in elements(self):
        x = wreath_mult(G, wreath_mult(G, y, rep), wreath_inverse(G, y))
        seen.add(x)
    out = sorted(seen)
    if len(out) != self.class_size(rho):
        raise ValueError(f"{rho} is not a type of level {self.n}")
    self._class_elements[rho] = out
    return out


def type_scan_class_elements(self: WreathLevel, rho: TypeFunction) -> list[WreathElement]:
    """The conjugacy class of type rho: the elements whose `type_of` is
    rho, in the order of `elements`."""
    check_budget(self.order, f"class orbit in level {self.n}")
    if rho in self._class_elements:
        return self._class_elements[rho]
    G, n = self.group, self.n
    out = [a for a in elements(self) if type_of(G, n, a) == rho]
    if len(out) != self.class_size(rho):
        raise ValueError(f"{rho} is not a type of level {self.n}")
    self._class_elements[rho] = out
    return out


def level_labels(self: WreathLevel) -> np.ndarray:
    """The label of every element, in the order of the level."""
    labels = np.empty(self.order, dtype=np.min_scalar_type(len(self.types)))
    for _, index in pair_batches(1, self.order):
        labels[index] = self.label(self.batch(index))
    return labels


def label_scan_class_elements(self: WreathLevel, rho: TypeFunction) -> WreathBatch:
    """The conjugacy class of type rho: the elements whose type is rho,
    in the order of the level, as one batch kept on the level."""
    check_budget(self.order, f"class orbit in level {self.n}")
    if rho in self._class_elements:
        return self._class_elements[rho]
    t = self.type_index.get(rho)
    out = self.batch(np.flatnonzero(level_labels(self) == t) if t is not None else np.arange(0))
    if len(out) != self.class_size(rho):
        raise ValueError(f"{rho} is not a type of level {self.n}")
    self._class_elements[rho] = out
    return out


def induce_bruteforce(G: FiniteGroup, n: int, m: int, f: WreathClassFunction,
                      g: WreathClassFunction) -> WreathClassFunction:
    """Literal element-loop Frobenius sum; the oracle for `induce`."""
    N = n + m
    lvl = wreath_level(G, N)
    check_budget(lvl.order, "brute-force induction")
    h_order = (G.order ** n) * factorial(n) * (G.order ** m) * factorial(m)
    out = {}
    for rho in lvl.types:
        x = representative_of_type(G, N, rho)
        total = cyc(0)
        for y in elements(lvl):
            z = wreath_mult(G, wreath_mult(G, wreath_inverse(G, y), x), y)
            if all(z.s[i] < n for i in range(n)):
                left = WreathElement(z.g[:n], z.s[:n])
                right = WreathElement(z.g[n:], tuple(v - n for v in z.s[n:]))
                fv = f.value(type_of(G, n, left))
                if fv.is_zero():
                    continue
                gv = g.value(type_of(G, m, right))
                if gv.is_zero():
                    continue
                total = total + fv * gv
        if not total.is_zero():
            out[rho] = total * Fraction(1, h_order)
    return WreathClassFunction(G, N, out)


def array_induce_bruteforce(G: FiniteGroup, n: int, m: int, f: WreathClassFunction,
                            g: WreathClassFunction) -> WreathClassFunction:
    """Literal element-loop Frobenius sum; the oracle for `induce`.  Every
    representative x is conjugated by every y of the level, a batch of
    (x, y) pairs at a time; the y^-1 x y that lie in Gamma_n x Gamma_m are
    split into their two halves, and each pair of half types is counted."""
    N = n + m
    lvl = wreath_level(G, N)
    check_budget(lvl.order, "brute-force induction")
    h_order = (G.order ** n) * factorial(n) * (G.order ** m) * factorial(m)
    left, right = wreath_level(G, n), wreath_level(G, m)
    width = len(left.types) * len(right.types)
    reps = lvl.representatives
    counts = np.zeros(len(lvl.types) * width, dtype=np.int64)
    for i, j in pair_batches(len(lvl.types), lvl.order):
        y = lvl.batch(j)
        z = batch_mult(G, batch_mult(G, batch_inverse(G, y), reps.take(i)), y)
        inside = (z.s[:, :n] < n).all(axis=1)
        z = z.take(inside)
        codes = (i[inside] * width
                 + left.label(WreathBatch(z.g[:, :n], z.s[:, :n])) * len(right.types)
                 + right.label(WreathBatch(z.g[:, n:], z.s[:, n:] - n)))
        counts += np.bincount(codes, minlength=len(counts))
    out = {}
    for rho, row in zip(lvl.types, counts.reshape(len(lvl.types), width).tolist()):
        total = cyc(0)
        for pair, count in enumerate(row):
            if not count:
                continue
            a, b = divmod(pair, len(right.types))
            fv = f.value(left.types[a])
            if fv.is_zero():
                continue
            gv = g.value(right.types[b])
            if gv.is_zero():
                continue
            total = total + fv * gv * count
        if not total.is_zero():
            out[rho] = total * Fraction(1, h_order)
    return WreathClassFunction(G, N, out)


def _splits(rho: TypeFunction, n: int, G: FiniteGroup):
    """All (alpha, beta) with alpha u beta = rho and |alpha| = n."""
    per_class = []
    for c, parts in rho:
        mults = sorted(partition_multiplicities(parts).items())
        choices = []
        ranges = [range(m + 1) for _, m in mults]
        for takes in itertools.product(*ranges):
            alpha = []
            beta = []
            for (r, m), k in zip(mults, takes):
                alpha.extend([r] * k)
                beta.extend([r] * (m - k))
            choices.append((c, tuple(alpha), tuple(beta)))
        per_class.append(choices)
    for combo in itertools.product(*per_class):
        alpha = TypeFunction((c, a) for c, a, _ in combo)
        if alpha.size() != n:
            continue
        beta = TypeFunction((c, b) for c, _, b in combo)
        yield alpha, beta


def induce(G: FiniteGroup, n: int, m: int, f: WreathClassFunction,
           g: WreathClassFunction) -> WreathClassFunction:
    """Frobenius induction of f (x) g from Gamma_n x Gamma_m to Gamma_{n+m}.

    (Ind h)(x) = (1/|H|) sum_{y : y^-1 x y in H} h(y^-1 x y), evaluated
    class-by-class: classes of H are pairs of types fusing into their union,
    with exact weight Z_rho / (Z_alpha Z_beta).
    """
    if f.n != n or g.n != m:
        raise GroupMismatch("levels do not match the stated degrees")
    out: dict[TypeFunction, CycNum] = {}
    for rho in wreath_level(G, n + m).types:
        z_rho = centralizer_order(G, rho)
        acc = cyc(0)
        for alpha, beta in _splits(rho, n, G):
            fv = f.value(alpha)
            if fv.is_zero():
                continue
            gv = g.value(beta)
            if gv.is_zero():
                continue
            w = Fraction(z_rho, centralizer_order(G, alpha) * centralizer_order(G, beta))
            acc = acc + fv * gv * w
        if not acc.is_zero():
            out[rho] = acc
    return WreathClassFunction(G, n + m, out)


class HeisenbergOperator(wreath.HeisenbergOperator):
    """p_k(gamma) with the level-sweep `apply`; creation goes through the
    `induce` above."""

    def apply(self, f: WreathClassFunction) -> WreathClassFunction:
        G, k = self.group, self.k
        if f.group is not G:
            raise GroupMismatch("operator and argument on different base groups")
        cd = G.conjugacy()
        if k > 0:
            return induce(G, k, f.n, sigma_n(G, k, self.gamma), f)
        npos = -k
        if f.n < npos:
            return wcf_zero(G, 0)
        out: dict[TypeFunction, CycNum] = {}
        for beta in wreath_level(G, f.n - npos).types:
            acc = cyc(0)
            for c in range(len(cd)):
                gc = self.gamma.values[c]
                if gc.is_zero():
                    continue
                cyc_type = TypeFunction([(cd.inverse_class[c], (npos,))])
                v = f.value(cyc_type.union(beta))
                if v.is_zero():
                    continue
                acc = acc + gc * v * Fraction(1, cd.centralizer_orders[c])
            if not acc.is_zero():
                out[beta] = acc
        return WreathClassFunction(G, f.n - npos, out)


def build_wreath(G: FiniteGroup, n: int) -> FiniteGroup:
    """Explicit multiplication-table model of Gamma_n, with the natural
    permutation actions attached and the element list stored on the result;
    kept on G (as `G.wreath_builds`)."""
    order = (G.order ** n) * factorial(n)
    check_budget(order, f"build_wreath({G.name}, {n})")
    if order > _EXPLICIT_TABLE_LIMIT:
        raise BudgetExceeded(f"explicit wreath table: {order} elements exceeds "
                             f"budget {_EXPLICIT_TABLE_LIMIT}")
    builds = vars(G).setdefault("wreath_builds", {})
    if n in builds:
        return builds[n]
    perms = list(itertools.permutations(range(n)))
    gparts = list(itertools.product(range(G.order), repeat=n))
    nP, nG = len(perms), len(gparts)
    # element index layout: elem (g, s) at s_idx * nG + g_idx; itertools.product
    # varies the last coordinate fastest, so g_idx = sum g_i |Gamma|^(n-1-i)
    elem_list = [WreathElement(gparts[i % nG], perms[i // nG]) for i in range(order)]

    gm = G.mult
    H = np.array(gparts, dtype=np.int64).reshape(nG, max(n, 1))
    perm_index = {p: i for i, p in enumerate(perms)}
    comp = np.array([[perm_index[tuple(p[q[i]] for i in range(n))] for q in perms]
                     for p in perms], dtype=np.int64)
    weights = np.array([G.order ** (n - 1 - i) for i in range(n)], dtype=np.int64)

    mult = np.empty((order, order), dtype=np.int32)
    cols_t = np.arange(nP, dtype=np.int64)
    for si, s in enumerate(perms):
        sinv = perm_inverse(s)
        Hperm = H[:, list(sinv)] if n else H      # s(h) for every h-block
        res_perm = comp[si]                       # index of s*t for every t
        for gi, g in enumerate(gparts):
            row_elem = si * nG + gi
            if n:
                garr = np.array(g, dtype=np.int64)
                prod_g = gm[garr[None, :], Hperm]  # (nG, n)
                gnums = prod_g.astype(np.int64) @ weights
            else:
                gnums = np.zeros(1, dtype=np.int64)
            block = res_perm[:, None] * nG + gnums[None, :]  # (nP, nG)
            mult[row_elem] = block.reshape(-1)
    # natural action on n x |Gamma| points and the lifted S_n action
    points = [(i, x) for i in range(n) for x in range(G.order)]
    pt_index = {p: k for k, p in enumerate(points)}
    rows = G.mult.tolist()
    natural = []
    top = []
    for a in elem_list:
        row = [0] * len(points)
        for (i, x), k in pt_index.items():
            row[k] = pt_index[(a.s[i], rows[a.g[a.s[i]]][x])]
        natural.append(row)
        top.append(list(a.s) + list(range(n, len(points))))
    W = FiniteGroup(mult, name=f"{G.name}_wr_S{n}",
                    perm_actions=[natural, top] if n >= 1 else [])
    W.wreath_elements = elem_list
    W.wreath_base = G
    W.wreath_n = n
    builds[n] = W
    return W


def sum_scaled(self: WreathClassFunction, scaled) -> WreathClassFunction:
    """sum of col * coeff over the (col, coeff) pairs, at the level of the
    columns.  Reports print `values`, so the keys come in the order of
    `__add__`, a set union, and a type whose sum cancels is dropped."""
    level, acc = self.n, {}
    for col_f, v in scaled:
        if col_f.group is not self.group:
            raise GroupMismatch("operator column on a different base group")
        if col_f.is_zero():
            continue
        level, col = col_f.n, col_f.values
        if not acc:
            acc = {k: c * v for k, c in col.items()}
            continue
        merged = {}
        for k in set(acc) | set(col):
            x = acc.get(k)
            c = col.get(k)
            if c is not None:
                x = c * v if x is None else x + c * v
                if x.is_zero():
                    continue
            merged[k] = x
        acc = merged
    return WreathClassFunction(self.group, level, acc)


def add(self: WreathClassFunction, other: WreathClassFunction) -> WreathClassFunction:
    self._check(other)
    if not self.values:
        return other
    if not other.values:
        return self
    keys = set(self.values) | set(other.values)
    return WreathClassFunction(
        self.group, self.n, {k: self.value(k) + other.value(k) for k in keys})


def neg(self: WreathClassFunction) -> WreathClassFunction:
    return WreathClassFunction(self.group, self.n,
                               {k: -v for k, v in self.values.items()})


def unit_sum_scaled(self: WreathClassFunction, scaled) -> WreathClassFunction:
    """sum of col * coeff over the (col, coeff) pairs, at the level of the
    columns.  Reports print `values`, so the keys come in the order of
    `__add__`, a set union, and a type whose sum cancels is dropped.
    A value c is taken as it is when v is a `CycNum` one whose conductor
    divides c's, since c * v is then c at c's conductor.  Every value is
    a product or sum of canonical `CycNum`s, so the result is built from
    them as they are, after one pass that drops the zeros a column
    scaled by 0 leaves."""
    level, acc = self.n, {}
    for col_f, v in scaled:
        if col_f.group is not self.group:
            raise GroupMismatch("operator column on a different base group")
        if col_f.is_zero():
            continue
        level, col = col_f.n, col_f.values
        unit = _unit_conductor(v)
        if not acc:
            acc = {k: c if unit and c.conductor % unit == 0 else c * v
                   for k, c in col.items()}
            continue
        merged = {}
        for k in set(acc) | set(col):
            x = acc.get(k)
            c = col.get(k)
            if c is not None:
                if not (unit and c.conductor % unit == 0):
                    c = c * v
                x = c if x is None else x + c
                if x.is_zero():
                    continue
            merged[k] = x
        acc = merged
    return WreathClassFunction._of(self.group, level,
                                   {k: x for k, x in acc.items() if not x.is_zero()})


def scale(self: WreathClassFunction, s) -> WreathClassFunction:
    return WreathClassFunction(self.group, self.n,
                               {k: v * s for k, v in self.values.items()})


def p_minus_adjoint(G: FiniteGroup, n: int, gamma: ClassFunction,
                    f: WreathClassFunction) -> WreathClassFunction:
    """p_{-n}(gamma) computed purely as the adjoint of p_n(gamma): solve
    <result, h> = <f, p_n h> over the indicator basis of the target level."""
    if f.n < n:
        return wcf_zero(G, 0)
    target = wreath_level(G, f.n - n).types
    up = heisenberg_p(G, n, gamma)
    out = {}
    for rho in target:
        h = wcf_indicator(G, f.n - n, rho)
        val = wreath_pairing(f, up.apply(h))
        # <e_rho, e_rho> = 1/Z_rho at the inverse type; solve for the coefficient
        z = centralizer_order(G, rho)
        cd = G.conjugacy()
        out[rho.inverse(cd.inverse_class)] = val * z
    return WreathClassFunction(G, f.n - n, out)


def heisenberg_check(G: FiniteGroup, modes: int, levels: int):
    """[p_k(gamma), p_l(gamma')] = -k d_{k,-l} <gamma, gamma'> Id, checked on
    the indicator basis of every level <= `levels` for all |k|, |l| <= modes
    and all pairs of irreducible characters."""
    report = VerificationReport(f"heisenberg({G.name}, modes<={modes}, levels<={levels})")
    gammas = G.character_table().irreducibles
    mode_list = [k for k in range(-modes, modes + 1) if k != 0]
    # each p_k(gamma) once, its columns cached across every pair it meets
    ops = {(gi, k): reference_linop.LinearOperator(heisenberg_p(G, k, gamma).apply)
           for gi, gamma in enumerate(gammas) for k in mode_list}
    for gi, ga in enumerate(gammas):
        for gj, gb in enumerate(gammas):
            scal = inner_product(ga, gb)
            for k in mode_list:
                for l in mode_list:
                    pk, pl = ops[gi, k], ops[gj, l]
                    for m in range(levels + 1):
                        for rho in wreath_level(G, m).types:
                            f = wcf_indicator(G, m, rho)
                            br = pk.apply(pl.apply(f)) - pl.apply(pk.apply(f))
                            expected = f.scale(-k * scal) if k == -l else wcf_zero(G, m)
                            report.add(
                                f"[p_{k}(g{gi}), p_{l}(g{gj})] level {m} {rho}",
                                br.values, expected.values, br == expected)
    return report


def wcf_from_class_function(W: FiniteGroup, f: ClassFunction) -> WreathClassFunction:
    types = wreath.wreath_class_types(W)
    return WreathClassFunction(W.wreath_base, W.wreath_n,
                               {t: f.values[c] for c, t in enumerate(types)})


def wcf_to_class_function(W: FiniteGroup, f: WreathClassFunction) -> ClassFunction:
    types = wreath.wreath_class_types(W)
    return ClassFunction(W, [f.value(t) for t in types])


def weighted_gram_wreath(G: FiniteGroup, n: int) -> list[list]:
    """Gram matrix of the xi-weighted form on the irreducible characters of
    the explicit wreath group Gamma_n; n = 1 reproduces the Cartan matrix."""
    xi = trivial_character(G).scale(2) - defining_character(G)
    W = wreath.build_wreath(G, n)
    table = W.character_table()
    rows = [wcf_from_class_function(W, f) for f in table.irreducibles]
    gram = []
    for fi in rows:
        gram.append([weighted_form(G, n, fi, fj, xi) for fj in rows])
    return gram
