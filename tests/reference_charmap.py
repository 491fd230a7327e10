"""Reference copy of the convolution operators that `wfk.charmap` folded.

`convolve_by_class` and `filtered_convolution` each had their own loop over
class members; `delta_op` was built for one level and `delta1` was its i = 1
case; `cubic_formula` was a hand-written split loop plus the join boundary.
`class_convolution` is the one class-convolution loop over element tuples
that the numpy element batches replaced.  The bodies below are kept as they
were, so that `tests/test_charmap_reference.py` can check the one
class-convolution loop, the one Delta operator and the cubic as W^3_0(1)
against them, value by value and in key order.  The loops read the class
members that `WreathLevel.class_elements` finds as tuples, and the canonical
representatives from `reference_wreath.representative_of_type`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from wfk.budget import check_budget
from wfk.charmap import GradedClassFunction, colored_space, k_class_type
from wfk.exact import cyc
from wfk.fock import FockOperator, FockVector, annihilate, create, join_boundary
from wfk.groups import FiniteGroup, GroupMismatch, trivial_group
from wfk.wreath import (
    TypeFunction,
    WreathClassFunction,
    type_of,
    wcf_zero,
    wreath_inverse,
    wreath_level,
    wreath_mult,
)

from reference_wreath import representative_of_type


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


def cubic_formula(cutoff: int) -> FockOperator:
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

    return FockOperator(fn, max_weight=cutoff, name="cubic")


def filtered_convolution(f: GradedClassFunction,
                         g: GradedClassFunction) -> GradedClassFunction:
    """Convolution projected to filtration degree deg f + deg g."""
    T = trivial_group()
    n = f.wcf.n
    if g.wcf.n != n:
        raise GroupMismatch("filtered convolution needs equal symmetric groups")
    check_budget(factorial(n), "filtered convolution", limit=5100)
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
