"""Reference copy of the Fock operator application that `wfk.fock` replaced.

`FockOperator.apply`, `_nop_apply` and `W_operator` rebuilt the whole output
vector for every column or piece they added (`out = out + col.scale(coeff)`),
and `_nop_apply` looked every mode up in the space's q_mode cache by the
value of its element.  The bodies below are kept as they were, so that
`tests/test_fock_reference.py` can check the in-place accumulation of
`wfk.fock` against them, coefficient by coefficient and in key order.
`reference_add` is the `FockVector.__add__` of that time.
"""

from __future__ import annotations

from fractions import Fraction

from wfk.fock import (
    ColorSpace,
    CutoffTooSmall,
    FockOperator,
    FockVector,
    FrobeniusAlgebra,
    coproduct_power,
    q_mode,
)


class ReferenceFockOperator(FockOperator):
    """A FockOperator with the column-by-column `apply`."""

    def apply(self, v: FockVector) -> FockVector:
        if self.max_weight is not None and v.weight() > self.max_weight:
            raise CutoffTooSmall(
                f"{self.name}: input weight {v.weight()} above cutoff {self.max_weight}")
        out = FockVector(v.space, {})
        for mono, coeff in v.terms.items():
            col = self._columns.get(mono)
            if col is None:
                col = self.fn(FockVector(v.space, {mono: 1}))
                self._columns[mono] = col
            if not col.is_zero():
                out = out + col.scale(coeff)
        return out


def reference_op(op: FockOperator) -> ReferenceFockOperator:
    """The operator computing the same columns as `op` (its `fn`), applied
    column by column."""
    return ReferenceFockOperator(op.fn, op.max_weight, op.name)


def reference_add(u: FockVector, v: FockVector) -> FockVector:
    out = dict(u.terms)
    for m, c in v.terms.items():
        out[m] = out.get(m, 0) + c
    return FockVector(u.space, out)


def _q_cached(alg, mode, alpha, space) -> FockOperator:
    # kept apart from the library's entries by the leading tag
    key = ("reference", alg, mode, tuple(alpha))
    op = space.q_modes.get(key)
    if op is None:
        op = reference_op(q_mode(alg, mode, alpha, space))
        space.q_modes[key] = op
    return op


def _nop_apply(alg: FrobeniusAlgebra, space: ColorSpace, fields: list, mode: int,
               v: FockVector) -> FockVector:
    """Coefficient of z^(-mode - k) of the right-to-left normally ordered
    product of the k weight-one fields, applied to v."""
    if v.is_zero():
        return v
    if len(fields) == 1:
        return _q_cached(alg, mode, fields[0], space).apply(v)
    alpha, rest = fields[0], fields[1:]
    par_alpha = alg.parity_of(alpha)
    par_rest = sum(alg.parity_of(f) for f in rest) % 2
    sign = -1 if (par_alpha and par_rest) else 1
    w = v.weight()
    out = FockVector(space, {})
    # creation part of the first field stays on the left
    for m in range(mode - w, 0):
        u = _nop_apply(alg, space, rest, mode - m, v)
        if not u.is_zero():
            out = out + _q_cached(alg, m, alpha, space).apply(u)
    # annihilation part moves to the right (with the parity sign)
    for m in range(1, w + 1):
        u0 = _q_cached(alg, m, alpha, space).apply(v)
        if not u0.is_zero():
            u = _nop_apply(alg, space, rest, mode - m, u0)
            if not u.is_zero():
                out = out + u.scale(sign)
    return out


def W_operator(alg: FrobeniusAlgebra, k: int, n: int, alpha,
               weight: int, space: ColorSpace | None = None) -> FockOperator:
    """Coefficient of z^(-n-k) in (1/k!) (delta_k* alpha)(z); W^1 = q_n,
    W^2 = the Virasoro mode L_n."""
    space = space or ColorSpace.of_algebra(alg)
    terms = coproduct_power(alg, alpha, k)
    factorial = 1
    for i in range(2, k + 1):
        factorial *= i

    def fn(v: FockVector) -> FockVector:
        out = FockVector(space, {})
        for coeff, factors in terms:
            piece = _nop_apply(alg, space, factors, n, v)
            if not piece.is_zero():
                out = out + piece.scale(coeff)
        return out.scale(Fraction(1, factorial))

    return ReferenceFockOperator(fn, max_weight=weight, name=f"W{k}_{n}")
