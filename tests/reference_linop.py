"""Reference copies of the group-side operator classes that `wfk.charmap`
replaced.

`_GroupOp` cached the columns of an operator on wreath class functions by
(group, level, type) and summed them in the key order of
`WreathClassFunction.__add__`, a set union; `bracket` was its commutator.
The class and the fw-Virasoro builders on top of it are kept as they were.

`LinearOperator`, the `wfk.linop` class that replaced `_GroupOp`, cached
each column by its type and summed the columns through a vector protocol
that `WreathClassFunction` supplied (`terms`, `basis_vector`,
`sum_scaled`); `+`, `-`, `scale`, `compose` and `commutator` returned a
new `LinearOperator` with its own column cache.  It is kept as it was, with
that protocol read as `values`, `wcf_indicator` and
`reference_wreath.unit_sum_scaled`, and the vector's `scale` as
`reference_wreath.scale`, the bodies they had then.  `linop_fw_l_operator`
is `charmap.fw_l_operator` as it was built on it.

`tests/test_linop_reference.py` checks the column-cached linear extensions
of `wfk.charmap` against both classes, value by value, conductor by
conductor, level by level and in key order.
"""

from __future__ import annotations

from wfk.charmap import ZeroPrefactor
from wfk.exact import cyc
from wfk.groups import ClassFunction, FiniteGroup
from wfk.wreath import WreathClassFunction, heisenberg_p, wcf_indicator

import reference_wreath


class _GroupOp:
    """Linear operator on wreath class functions; applications are resolved
    through a per-indicator cache so nested brackets stay affordable."""

    def __init__(self, fn):
        self.fn = fn
        self._columns: dict = {}

    def _column(self, group, level, rho):
        key = (group, level, rho)
        if key not in self._columns:
            self._columns[key] = self.fn(wcf_indicator(group, level, rho))
        return self._columns[key]

    def __call__(self, f: WreathClassFunction) -> WreathClassFunction:
        if f.is_zero():
            return f
        level, acc = f.n, {}
        for rho, v in f.values.items():
            col_f = self._column(f.group, f.n, rho)
            if col_f.is_zero():
                continue
            level, col = col_f.n, col_f.values
            if not acc:
                acc = {k: c * v for k, c in col.items()}
                continue
            # reports print `values`: keep the key order of WreathClassFunction.__add__,
            # a set union, and drop a type whose sum cancels as it does
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
        return WreathClassFunction(f.group, level, acc)

    def bracket(self, other):
        return _GroupOp(lambda f: self(other(f)) - other(self(f)))

    def scale(self, s):
        return _GroupOp(lambda f: self(f).scale(s))

    def __sub__(self, other):
        return _GroupOp(lambda f: self(f) - other(f))

    def __add__(self, other):
        return _GroupOp(lambda f: self(f) + other(f))


def _p_op(G: FiniteGroup, k: int, gamma: ClassFunction) -> _GroupOp:
    op = heisenberg_p(G, k, gamma)
    return _GroupOp(op.apply)


def fw_l_operator(G: FiniteGroup, c: int, n: int, gamma: ClassFunction,
                  degree: int, dop: _GroupOp) -> _GroupOp:
    """L_n(gamma) extracted from [Delta_1(K_c), p_n(gamma)] by the exact
    prefactor n |Gamma|^2 gamma(c^-1) / (zeta_c d_gamma^2); the prefactor
    must not vanish."""
    cd = G.conjugacy()
    gval = gamma.values[cd.inverse_class[c]]
    pref = (cyc(n) * (G.order ** 2) * gval
            / (cd.centralizer_orders[c] * degree ** 2))
    pop = _p_op(G, n, gamma)
    inv = pref.inverse()
    return dop.bracket(pop).scale(inv)


class LinearOperator:
    """Linear operator determined by `fn` on basis vectors.

    Each column, `fn` of one basis vector, is computed once and cached by its
    term, so repeated use inside commutators costs one evaluation per term.
    Combined operators are plain `LinearOperator`s and cache their own columns.
    """

    def __init__(self, fn):
        self.fn = fn
        self._columns: dict = {}

    def column(self, v, term):
        """The column of `term`, from the cache or computed for the space of
        `v` and cached."""
        col = self._columns.get(term)
        if col is None:
            col = self._columns[term] = self.fn(wcf_indicator(v.group, v.n, term))
        return col

    def apply(self, v):
        column = self.column
        return reference_wreath.unit_sum_scaled(
            v, [(column(v, term), coeff) for term, coeff in v.values.items()])

    def __call__(self, v):
        return self.apply(v)

    def __add__(self, other):
        return LinearOperator(lambda v: self.apply(v) + other.apply(v))

    def __sub__(self, other):
        return LinearOperator(lambda v: self.apply(v) - other.apply(v))

    def scale(self, s):
        return LinearOperator(lambda v: reference_wreath.scale(self.apply(v), s))

    def compose(self, other):
        return LinearOperator(lambda v: self.apply(other.apply(v)))

    def commutator(self, other):
        return LinearOperator(lambda v: self.apply(other.apply(v)) - other.apply(self.apply(v)))


def linop_fw_l_operator(G: FiniteGroup, c: int, n: int, gamma: ClassFunction,
                        degree: int, dop: LinearOperator) -> LinearOperator:
    """L_n(gamma) extracted from [Delta_1(K_c), p_n(gamma)] by the exact
    prefactor n |Gamma|^2 gamma(c^-1) / (zeta_c d_gamma^2)."""
    cd = G.conjugacy()
    gval = gamma.values[cd.inverse_class[c]]
    if n == 0 or gval.is_zero():
        raise ZeroPrefactor(f"prefactor vanishes for mode {n}, class {c}")
    pref = (cyc(n) * (G.order ** 2) * gval
            / (cd.centralizer_orders[c] * degree ** 2))
    pop = LinearOperator(heisenberg_p(G, n, gamma).apply)
    inv = pref.inverse()
    return dop.commutator(pop).scale(inv)
