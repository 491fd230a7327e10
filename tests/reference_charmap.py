"""Reference copy of the convolution operators that `wfk.charmap` folded.

`convolve_by_class` and `filtered_convolution` each had their own loop over
class members; `delta_op` was built for one level and `delta1` was its i = 1
case; `cubic_formula` was a hand-written split loop plus the join boundary
(over the `create`, `annihilate` and term-dict `join_boundary` now kept in
`reference_fock`).  `class_convolution` is the one class-convolution loop
over element tuples that the numpy element batches replaced.  The bodies below are kept as they
were, so that `tests/test_charmap_reference.py` can check the one
class-convolution loop, the one Delta operator and the cubic as W^3_0(1)
against them, value by value and in key order.  The loops read the class
members that `WreathLevel.class_elements` finds as tuples, and the canonical
representatives from `reference_wreath.representative_of_type`.

`delta1_explicit_group`, the K_i(c, n) indicator on an explicit wreath group,
is a helper that only the tests call; it moved here from `wfk.charmap` as it
was, with its function-level import of `wreath_class_types` made a module
import.  `transfer_bracket`, [Delta_1(a), p_n(b)] extended linearly over the
class sums of a, is another; it moved here as it was, with `delta_op`,
`_p_op` and their commutator read off `wfk.charmap`, since this module's
`delta_op` is the one-level copy above, and the `LinearOperator` it returns
read off `reference_linop`.

`_class_convolution` is the numpy class convolution as it was before the
class tables moved onto the level: every call labels the products of the
representatives of `types` with the whole class of each sigma.  Its sums
start from `cyc(0)` for every row and every (row, class) pair and run over
every count, zeros included, as `wfk.charmap` did before it summed the
nonzero counts only.  `tests/test_charmap_reference.py` checks that the
rows of `WreathLevel.class_counts` give the same class functions, value by
value, in `key()` (conductor included) and in key order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from wfk import charmap
from wfk.budget import BudgetExceeded
from wfk.charmap import GradedClassFunction, colored_space, k_class_type
from wfk.exact import cyc
from wfk.fock import FockVector
from wfk.groups import ClassFunction, FiniteGroup, GroupMismatch, trivial_group
from wfk.wreath import (
    TypeFunction,
    WreathClassFunction,
    batch_inverse,
    batch_mult,
    pair_batches,
    type_of,
    wcf_zero,
    wreath_class_types,
    wreath_inverse,
    wreath_level,
    wreath_mult,
)

from reference_fock import FnFockOperator, annihilate, create, join_boundary
from reference_linop import LinearOperator
from reference_wreath import representative_of_type

_FILTERED_LIMIT = 5100  # the fixed order ceiling wfk's filtered convolution kept


def class_convolution(G: FiniteGroup, n: int, g: dict, f: WreathClassFunction,
                      types) -> WreathClassFunction:
    """sum_sigma g(sigma) sum_{y in K_sigma} f(z y^-1) at the representative z
    of each type in `types`, as a class function of Gamma_n."""
    if not types:
        return wcf_zero(G, n)
    lvl = wreath_level(G, n)
    classes = [([wreath_inverse(G, y) for y in lvl.class_elements(sigma).elements()], gv)
               for sigma, gv in g.items()]
    out = {}
    for rho in types:
        z = representative_of_type(G, n, rho)
        acc = cyc(0)
        for inverses, gv in classes:
            s = cyc(0)
            for y_inv in inverses:
                v = f.value(type_of(G, n, wreath_mult(G, z, y_inv)))
                if not v.is_zero():
                    s = s + v
            if not s.is_zero():
                acc = acc + s * gv
        if not acc.is_zero():
            out[rho] = acc
    return WreathClassFunction(G, n, out)


def convolve_by_class(G: FiniteGroup, n: int, kappa: TypeFunction,
                      f: WreathClassFunction) -> WreathClassFunction:
    """(K * f)(x) = sum_{y in K} f(x y^-1), evaluated per class of Gamma_n."""
    lvl = wreath_level(G, n)
    members = lvl.class_elements(kappa).elements()
    out = {}
    for rho in lvl.types:
        z = representative_of_type(G, n, rho)
        acc = cyc(0)
        for y in members:
            v = f.value(type_of(G, n, wreath_mult(G, z, wreath_inverse(G, y))))
            if not v.is_zero():
                acc = acc + v
        if not acc.is_zero():
            out[rho] = acc
    return WreathClassFunction(G, n, out)


def delta_op(G: FiniteGroup, n: int, c: int, i: int = 1):
    """Delta_i(K_c) on class functions of Gamma_n: convolution with K_i(c,n)."""
    if i not in (0, 1, 2):
        raise ValueError("only i = 0, 1, 2 are exposed")
    kappa = k_class_type(G, c, i, n)

    def fn(f: WreathClassFunction) -> WreathClassFunction:
        if f.is_zero():
            return f
        if f.n != n:
            raise GroupMismatch(f"operator built for level {n}, got {f.n}")
        if kappa is None:
            return wcf_zero(G, n)
        return convolve_by_class(G, n, kappa, f)

    return fn


def delta1(G: FiniteGroup, n: int, c: int):
    return delta_op(G, n, c, 1)


def cubic_formula(cutoff: int) -> FnFockOperator:
    """(1/2) sum_{n,m>0} (p_n p_m p_{-n-m} + p_{n+m} p_{-n} p_{-m}) in
    creation-positive labels, on the one-color space with kappa = 1."""
    T = trivial_group()
    space = colored_space(T)
    # the join half is minus the join boundary operator; its column function
    # is called directly, since the cubic operator caches its own columns
    join = join_boundary(space).fn

    def fn(v: FockVector) -> FockVector:
        w = v.weight()
        out = FockVector(space, {})
        # split: annihilate a part n+m, create n and m
        for total in range(2, w + 1):
            killed = annihilate(space, total, [1], 0, v)
            if killed.is_zero():
                continue
            for n in range(1, total // 2 + 1):
                m = total - n
                piece = create(space, n, 0, create(space, m, 0, killed))
                # ordered double sum: (n,m) and (m,n) both occur unless n = m
                factor = Fraction(1, 2) * (1 if n == m else 2)
                out = out + piece.scale(factor)
        return out - join(v)

    return FnFockOperator(fn, max_weight=cutoff, name="cubic")


def filtered_convolution(f: GradedClassFunction,
                         g: GradedClassFunction) -> GradedClassFunction:
    """Convolution projected to filtration degree deg f + deg g."""
    T = trivial_group()
    n = f.wcf.n
    if g.wcf.n != n:
        raise GroupMismatch("filtered convolution needs equal symmetric groups")
    if factorial(n) > _FILTERED_LIMIT:
        raise BudgetExceeded(f"filtered convolution: {factorial(n)} elements exceeds "
                             f"budget {_FILTERED_LIMIT}")
    lvl = wreath_level(T, n)
    target = f.degree + g.degree
    out = {}
    for rho in lvl.types:
        if n - rho.total_length() != target:
            continue
        z = representative_of_type(T, n, rho)
        acc = cyc(0)
        for sigma, gv in g.wcf.values.items():
            for y in lvl.class_elements(sigma).elements():
                fv = f.wcf.value(type_of(T, n, wreath_mult(T, z, wreath_inverse(T, y))))
                if not fv.is_zero():
                    acc = acc + fv * gv
        if not acc.is_zero():
            out[rho] = acc
    return GradedClassFunction(WreathClassFunction(T, n, out), target)


def delta1_explicit_group(W: FiniteGroup, c: int, i: int = 1) -> ClassFunction:
    """K_i(c, n) as a class-sum operator on an explicit wreath group: returns
    the indicator class function to convolve with (groups.convolution path)."""
    G, n = W.wreath_base, W.wreath_n
    kappa = k_class_type(G, c, i, n)
    types = wreath_class_types(W)
    vals = [1 if (kappa is not None and t == kappa) else 0 for t in types]
    return ClassFunction(W, vals)


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


def transfer_bracket(G: FiniteGroup, a: ClassFunction, n: int, b: ClassFunction):
    """[Delta_1(a), p_n(b)] on every level, with Delta_1 extended linearly
    over the class-sum coefficients of a."""
    pop = charmap._p_op(G, n, b)
    brackets = [(coeff, charmap._commutator(charmap.delta_op(G, c), pop))
                for c, coeff in enumerate(a.values) if not coeff.is_zero()]

    def fn(f):
        out = wcf_zero(G, f.n)
        for coeff, br in brackets:
            out = out + br(f).scale(coeff)
        return out

    return LinearOperator(fn)
