"""Reference copy of the group-side operator class that `wfk.linop` replaced.

`_GroupOp` cached the columns of an operator on wreath class functions by
(group, level, type) and summed them in the key order of
`WreathClassFunction.__add__`, a set union; `bracket` was its commutator.
The class and the fw-Virasoro builders on top of it are kept as they were,
so that `tests/test_linop_reference.py` can check `LinearOperator` against
them, value by value, level by level and in key order.
"""

from __future__ import annotations

from wfk.exact import cyc
from wfk.groups import ClassFunction, FiniteGroup
from wfk.wreath import WreathClassFunction, heisenberg_p, wcf_indicator


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
