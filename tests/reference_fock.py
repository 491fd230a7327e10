"""Reference copies of the Fock operator code that `wfk.fock` and
`wfk.charmap` replaced.

`FockOperator.apply`, `_nop_apply` and `W_operator` rebuilt the whole output
vector for every column or piece they added (`out = out + col.scale(coeff)`),
and `_nop_apply` looked every mode up in a q_mode cache on the space by the
value of its element.  The Heisenberg modes were built in three places:
`creation_op` with `q_mode`, and `colored_creation_op` with
`colored_annihilation_op` for the p_k(gamma) of the characteristic map;
`exponential_series` took a creation callable.  The bodies below are kept as
they were, so that `tests/test_fock_reference.py` can check the in-place
accumulation and `ColorSpace.mode` of `wfk.fock` against them, coefficient by
coefficient and in key order.  `reference_add` is the `FockVector.__add__` of
that time.

`vector_nop_apply` is the `_nop_apply` that followed: it passed a
`FockVector` down the recursion, applied every mode through
`FockOperator.apply`, also where the mode gives zero, and added with the
`_add_into` kept here as `reference_add_into`, which multiplied by
`Fraction(1)` too.

`operators_equal_below`, the comparison of two operators on every monomial
up to a weight, is a helper that only the tests call; it moved here from
`wfk.fock` as it was.

`heisenberg_check` and `virasoro_check` are the suites that applied every
bracket to every basis vector, one vector at a time, before `wfk.fock`
compared the operators grade by grade as exact integer blocks;
`tests/test_fock_blocks.py` checks the block suites against them.

`term_dict_nop_apply` is the term-dict kernel `_nop_apply` that followed
`vector_nop_apply` (renamed, since `_nop_apply` above is the older
kernel), with `_vanishes` and the `_Field.apply_mode` it called (here
`apply_mode`, a function of the field).  `term_dict_W_operator` and
`term_dict_normal_order` are the W^k_n and normal products that applied it,
before `wfk.fock` read their columns off exact grade blocks;
`tests/test_fock_reference.py` checks the block-read columns against them.

`create` and `annihilate` are the term-dict columns of a Heisenberg mode,
and `term_dict_mode` is `ColorSpace.mode` with the two `fn` closures that
applied them, before every mode read its columns off its grade blocks,
rational and cyclotomic coefficients alike; `creation_op`, `q_mode` and the
colored builders above call them.  `monomial_basis` is the enumeration that
recursed once per skipped generator and sorted every monomial it built.
`coproduct_power` is the coproduct that rebuilt every basis product and
dual basis element for every pair; the reference W^k_n above use it.
`tests/test_fock_blocks.py` and `tests/test_fock_reference.py` check the
mode blocks and the grade bases of `wfk.fock` against them.

`FnFockOperator` is the `FockOperator` whose columns came from a function
`fn` on basis vectors, with its weight bound checked once per column; every
reference operator here is one.  `join_boundary` is the join boundary of
that time, its `fn` summing over the pairs of parts of each monomial, before
`wfk.fock` built it as a grade block; `tests/test_fock_blocks.py` checks the
block against it and `reference_charmap.cubic_formula` calls its `fn`.

`mul_coproduct_power` is the coproduct that followed, which still called
`alg.mul` for every pair of basis elements of every term, before
`wfk.fock.coproduct_power` read the algebra's `triple_trace`.
`unmerged_W_operator` is the W^k_n that added the normal product of every
term of the coproduct on its own, the terms :a b: and :b a: apart, each
rebuilt for every grade block (`unkept_nop_block`, `unkept_nop_into`),
before `wfk.fock.W_operator` merged the terms with the same factors and read
the normal products kept on the space.  `tests/test_fock_products.py`
checks the coproduct and the W blocks against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from wfk.charmap import colored_space
from wfk.fock import (
    ColorSpace,
    CutoffTooSmall,
    DegeneratePairing,
    FockOperator,
    FockVector,
    FrobeniusAlgebra,
    ModelMismatch,
    W_operator,
    _BlockSum,
    _add_into,
    _canonical_monomial,
    _Field,
    _merge_tensor_terms,
    _parity,
    _scalar_is_zero,
    vacuum,
)
from wfk.groups import ClassFunction, FiniteGroup
from wfk.linop import LinearOperator
from wfk.report import VerificationReport


class FnFockOperator(LinearOperator):
    """Linear operator on Fock vectors given by `fn` on basis vectors, valid
    on monomials of weight at most `max_weight` (any weight when it is
    None); the bound is checked once per monomial, when its column is
    computed."""

    def __init__(self, fn, max_weight=None, name="op"):
        super().__init__(fn)
        self.max_weight = max_weight
        self.name = name

    def _column(self, v: FockVector, mono: tuple) -> FockVector:
        weight = sum(n for n, _ in mono)
        if self.max_weight is not None and weight > self.max_weight:
            raise CutoffTooSmall(
                f"{self.name}: input weight {weight} above cutoff {self.max_weight}")
        return super()._column(v, mono)


class ReferenceFockOperator(FnFockOperator):
    """An `FnFockOperator` with the column-by-column `apply`."""

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


def reference_op(op: FnFockOperator) -> ReferenceFockOperator:
    """The operator computing the same columns as `op` (its `fn`), applied
    column by column."""
    return ReferenceFockOperator(op.fn, op.max_weight, op.name)


def reference_add(u: FockVector, v: FockVector) -> FockVector:
    out = dict(u.terms)
    for m, c in v.terms.items():
        out[m] = out.get(m, 0) + c
    return FockVector(u.space, out)


def creation_op(space: ColorSpace, k: int, coeffs, name: str) -> FnFockOperator:
    """Multiplication by sum_b coeffs[b] a_{-k}(b), k >= 1."""

    def fn(v: FockVector) -> FockVector:
        acc: dict = {}
        for b, c in enumerate(coeffs):
            if not _scalar_is_zero(c):
                _add_into(acc, create(space, k, b, v).terms, c)
        return FockVector._of(space, acc)

    return FnFockOperator(fn, None, name)


def q_mode(alg: FrobeniusAlgebra, n: int, alpha,
           space: ColorSpace | None = None) -> FnFockOperator:
    """Heisenberg mode q_n(alpha): creation for n < 0, super-derivation for
    n > 0, zero for n = 0; satisfies [q_n(a), q_m(b)] = n d_{n+m} trace(ab) Id."""
    space = space or ColorSpace.of_algebra(alg)
    coeffs, par = list(alpha), alg.parity_of(alpha)

    if n == 0:
        return FnFockOperator(lambda v: FockVector(space, {}), None, "q0")
    if n < 0:
        return creation_op(space, -n, coeffs, f"q{n}")

    weights = [sum((coeffs[a] * space.kappa[a][b] for a in range(len(coeffs))),
                   Fraction(0)) for b in range(len(space.labels))]

    def fn_ann(v: FockVector) -> FockVector:
        return annihilate(space, n, weights, par, v)

    return FnFockOperator(fn_ann, None, f"q{n}")


def _q_cached(alg, mode, alpha, space) -> FnFockOperator:
    # a dict of its own on the space, apart from the library's field cache
    q_modes = space.__dict__.setdefault("reference_q_modes", {})
    key = (alg, mode, tuple(alpha))
    op = q_modes.get(key)
    if op is None:
        op = reference_op(q_mode(alg, mode, alpha, space))
        q_modes[key] = op
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
               weight: int, space: ColorSpace | None = None) -> FnFockOperator:
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


def colored_creation_op(G: FiniteGroup, k: int, gamma: ClassFunction) -> FnFockOperator:
    """Multiplication by p_{-k}(gamma) = sum_c (gamma(c)/zeta_c) a_{-k}(c)."""
    cd = G.conjugacy()
    space = colored_space(G)
    coeffs = [gamma.values[c] * Fraction(1, cd.centralizer_orders[c])
              for c in range(len(cd))]
    return creation_op(space, k, coeffs, f"p[-{k}]")


def colored_annihilation_op(G: FiniteGroup, k: int, gamma: ClassFunction) -> FnFockOperator:
    """Contraction of the generator (k, c') with weight k * gamma(c'^-1)."""
    cd = G.conjugacy()
    space = colored_space(G)
    weights = [gamma.values[cd.inverse_class[b]] for b in range(len(cd))]
    return FnFockOperator(lambda v: annihilate(space, k, weights, 0, v), None, f"p[{k}]")


def exponential_series(space: ColorSpace, mode_coeffs: dict, creation,
                       cutoff: int) -> list[FockVector]:
    """Weight coefficients of exp(sum_k c_k A_k z^k)|0> up to cutoff, where
    A_k = creation(k) raises weight by k and c_k = mode_coeffs[k]."""
    ops = {k: creation(k) for k in mode_coeffs}
    # A^j/j! accumulated degree by degree; A raises weight by >= 1
    by_weight = [vacuum(space)] + [FockVector(space, {}) for _ in range(cutoff)]
    term = [vacuum(space)] + [FockVector(space, {}) for _ in range(cutoff)]
    for j in range(1, cutoff + 1):
        new_term = [FockVector(space, {}) for _ in range(cutoff + 1)]
        for w0 in range(cutoff):
            src = term[w0]
            if src.is_zero():
                continue
            for k, ck in mode_coeffs.items():
                if w0 + k > cutoff:
                    continue
                piece = ops[k].apply(src).scale(Fraction(ck, j))
                new_term[w0 + k] = new_term[w0 + k] + piece
        term = new_term
        if all(t.is_zero() for t in term):
            break
        for w in range(cutoff + 1):
            by_weight[w] = by_weight[w] + term[w]
    return by_weight


def chern_series(alg: FrobeniusAlgebra, gamma, cutoff: int,
                 space: ColorSpace | None = None) -> list[FockVector]:
    """Weight-n coefficients of exp(sum_{k>=1} (-1)^(k-1)/k a_{-k}(gamma) z^k)|0>."""
    space = space or ColorSpace.of_algebra(alg)
    return exponential_series(
        space, {k: Fraction((-1) ** (k - 1), k) for k in range(1, cutoff + 1)},
        lambda k: q_mode(alg, -k, gamma, space), cutoff)


def exponential_classes(G: FiniteGroup, gamma: ClassFunction, signed: bool,
                        cutoff: int) -> list[FockVector]:
    """Weight coefficients of exp(sum_k c_k p_{-k}(gamma) z^k)|0> with
    c_k = (-1)^(k-1)/k when signed, else 1/k."""
    coeffs = {k: (Fraction((-1) ** (k - 1), k) if signed else Fraction(1, k))
              for k in range(1, cutoff + 1)}
    return exponential_series(colored_space(G), coeffs,
                              lambda k: colored_creation_op(G, k, gamma), cutoff)


def reference_add_into(acc: dict, terms: dict, s=None) -> None:
    """acc += s * terms in place (s = None adds `terms` as they are).

    A monomial whose sum cancels leaves `acc`, so `acc` never holds a zero and
    a monomial that comes back is appended at the end, as `FockVector.__add__`
    rebuilding the whole sum would place it."""
    if type(s) is int and s == 1:
        s = None  # c * 1 has the type and conductor of c
    for m, c in terms.items():
        if s is not None:
            c = c * s
        prev = acc.get(m)
        if prev is None:
            acc[m] = c
        else:
            c = prev + c
            if _scalar_is_zero(c):
                del acc[m]
            else:
                acc[m] = c


def vector_nop_apply(fields: list[_Field], mode: int, v: FockVector) -> FockVector:
    """Coefficient of z^(-mode - k) of the right-to-left normally ordered
    product of the k weight-one fields, applied to v."""
    if v.is_zero():
        return v
    first = fields[0]
    if len(fields) == 1:
        return first.mode(mode).apply(v)
    rest = fields[1:]
    sign = -1 if first.parity and sum(f.parity for f in rest) % 2 else 1
    w = v.weight()
    acc: dict = {}
    # creation part of the first field stays on the left
    for m in range(mode - w, 0):
        u = vector_nop_apply(rest, mode - m, v)
        if not u.is_zero():
            reference_add_into(acc, first.mode(m).apply(u).terms)
    # annihilation part moves to the right (with the parity sign)
    for m in range(1, w + 1):
        u0 = first.mode(m).apply(v)
        if not u0.is_zero():
            reference_add_into(acc, vector_nop_apply(rest, mode - m, u0).terms, sign)
    return FockVector._of(first.space, acc)


def operators_equal_below(a: LinearOperator, b: LinearOperator, space: ColorSpace,
                          weight: int) -> bool:
    for w in range(weight + 1):
        for mono in monomial_basis(space, w):
            x = FockVector(space, {mono: 1})
            if not a.apply(x) == b.apply(x):
                return False
    return True


def _basis_vectors(space: ColorSpace, weight: int) -> list[list[FockVector]]:
    """The monomials of each weight up to `weight`, as basis vectors."""
    return [[FockVector(space, {mono: 1}) for mono in monomial_basis(space, w)]
            for w in range(weight + 1)]


def heisenberg_check(alg: FrobeniusAlgebra, modes: int, weight: int):
    """[q_n(a), q_m(b)] = n d_{n+m} trace(ab) Id on the weight truncation; the
    bracket is the supercommutator (an anticommutator for two odd elements)."""
    space = ColorSpace.of_algebra(alg)
    report = VerificationReport(f"fock-heisenberg({alg.name}, modes<={modes})")
    basis = _basis_vectors(space, weight)
    for n in range(-modes, modes + 1):
        for m in range(-modes, modes + 1):
            for i in range(alg.dim):
                for j in range(alg.dim):
                    a, b = alg.basis(i), alg.basis(j)
                    fa, fb = space.field(a), space.field(b)
                    qa, qb = fa.mode(n), fb.mode(m)
                    if fa.parity and fb.parity:
                        br = qa.compose(qb) + qb.compose(qa)  # supercommutator
                    else:
                        br = qa.commutator(qb)
                    scal = alg.trace(alg.mul(a, b)) * n if n + m == 0 else 0
                    ok = True
                    for w in range(max(weight - max(abs(n), abs(m)), 0) + 1):
                        for v in basis[w]:
                            if br.apply(v) != v.scale(scal):
                                ok = False
                    report.add(f"[q_{n}({alg.labels[i]}), q_{m}({alg.labels[j]})]",
                               "bracket", f"{scal}*Id", ok)
    return report


def virasoro_check(alg: FrobeniusAlgebra, modes: int, weight: int):
    """[L_n(a), L_m(b)] = (n-m) L_{n+m}(ab) + (n^3-n)/12 d_{n+m} tr(e ab) Id
    (equivalently the mirrored display with the negative central sign)."""
    space = ColorSpace.of_algebra(alg)
    report = VerificationReport(f"virasoro({alg.name}, modes<={modes}, weight<={weight})")
    cap = weight + 2 * modes + 2
    ops: dict = {}
    basis = _basis_vectors(space, weight)

    def L(n, elem):
        key = (n, tuple(elem))
        if key not in ops:
            ops[key] = W_operator(alg, 2, n, elem, cap, space)
        return ops[key]

    for n in range(-modes, modes + 1):
        for m in range(-modes, modes + 1):
            for i in range(alg.dim):
                for j in range(alg.dim):
                    a, b = alg.basis(i), alg.basis(j)
                    ln, lm = L(n, a), L(m, b)
                    ab = alg.mul(a, b)
                    lnm = L(n + m, ab)
                    central = (Fraction(n ** 3 - n, 12)
                               * alg.trace(alg.mul(alg.euler, ab))
                               if n + m == 0 else Fraction(0))
                    ok = True
                    for vs in basis:
                        for v in vs:
                            lhs = ln.apply(lm.apply(v)) - lm.apply(ln.apply(v))
                            rhs = lnm.apply(v).scale(n - m) + v.scale(central)
                            if lhs != rhs:
                                ok = False
                    report.add(
                        f"[L_{n}({alg.labels[i]}), L_{m}({alg.labels[j]})]",
                        "bracket", f"({n - m})L_{n + m} + {central}*Id", ok)
    return report


def apply_mode(field: _Field, n: int, terms: dict) -> dict:
    """The terms of q_n(alpha) applied to the vector with these terms, summed
    into a new dict from the mode's cached columns as `FockOperator.apply`
    sums them."""
    op, probe = field.mode(n), FockVector._of(field.space, {})
    out: dict = {}
    for mono, c in terms.items():
        _add_into(out, op.column(probe, mono).terms, c)
    return out


def term_dict_nop_apply(fields: list[_Field], mode: int, terms: dict) -> dict:
    """Coefficient of z^(-mode - k) of the right-to-left normally ordered
    product of the k weight-one fields, applied to the vector with these
    terms; returns the terms of the result in a new dict.

    A single-field step that can only give zero is skipped: one at mode 0,
    and inside a product one at an annihilation mode j > 0 when no monomial
    of the input has a part of size j (`_vanishes`).  Every other mode
    application sums into a dict of its own before it is added, so cancelled
    monomials come back at the end as in `FockVector.__add__`."""
    first = fields[0]
    if len(fields) == 1:
        return apply_mode(first, mode, terms) if mode else {}
    w, parts = 0, set()
    for mono in terms:
        sizes = [n for n, _ in mono]
        parts.update(sizes)
        w = max(w, sum(sizes))
    rest = fields[1:]
    sign = -1 if first.parity and sum(f.parity for f in rest) % 2 else 1
    acc: dict = {}
    # creation part of the first field stays on the left
    for m in range(mode - w, 0):
        if not _vanishes(rest, mode - m, parts):
            u = term_dict_nop_apply(rest, mode - m, terms)
            if u:
                _add_into(acc, apply_mode(first, m, u))
    # annihilation part moves to the right (with the parity sign); the
    # parts of apply_mode(first, m, terms) lie among those of terms
    for m in sorted(parts):
        if not _vanishes(rest, mode - m, parts):
            u0 = apply_mode(first, m, terms)
            if u0:
                _add_into(acc, term_dict_nop_apply(rest, mode - m, u0), sign)
    return acc


def _vanishes(fields: list[_Field], mode: int, parts: set) -> bool:
    """Whether the product of `fields` at `mode` is zero on every vector whose
    monomials have their parts among `parts`: a single field at mode 0, or at
    an annihilation mode that is no part size."""
    return len(fields) == 1 and (mode == 0 or (mode > 0 and mode not in parts))


def term_dict_normal_order(alg: FrobeniusAlgebra, fields: list, weight: int, mode: int,
                           space: ColorSpace | None = None) -> FnFockOperator:
    """Finite operator: the z^(-mode - k) coefficient of :f1(z)...fk(z):,
    valid on vectors of weight <= `weight`."""
    space = space or ColorSpace.of_algebra(alg)
    resolved = [space.field(f) for f in fields]
    return FnFockOperator(
        lambda v: FockVector._of(space, term_dict_nop_apply(resolved, mode, v.terms)),
        max_weight=weight, name=f"nop{mode}")


def term_dict_W_operator(alg: FrobeniusAlgebra, k: int, n: int, alpha,
                         weight: int | None, space: ColorSpace | None = None) -> FnFockOperator:
    """Coefficient of z^(-n-k) in (1/k!) (delta_k* alpha)(z); W^1 = q_n,
    W^2 = the Virasoro mode L_n."""
    space = space or ColorSpace.of_algebra(alg)
    terms = [(coeff, [space.field(f) for f in factors])
             for coeff, factors in coproduct_power(alg, alpha, k)]
    factorial = 1
    for i in range(2, k + 1):
        factorial *= i

    def fn(v: FockVector) -> FockVector:
        acc: dict = {}
        for coeff, fields in terms:
            _add_into(acc, term_dict_nop_apply(fields, n, v.terms), coeff)
        return FockVector._of(space, acc).scale(Fraction(1, factorial))

    return FnFockOperator(fn, max_weight=weight, name=f"W{k}_{n}")


def create(space: ColorSpace, n: int, color: int, v: FockVector) -> FockVector:
    """Multiply by the creation generator a_{-n}(color), n >= 1."""
    out = {}
    for mono, coeff in v.terms.items():
        sign, new = _canonical_monomial(((n, color),) + mono, space.parities)
        if sign:
            out[new] = out.get(new, 0) + coeff * sign
    return FockVector(space, out)


def annihilate(space: ColorSpace, n: int, color_weights, parity: int,
               v: FockVector) -> FockVector:
    """Super-derivation mode n >= 1: contraction n * kappa-weight per generator.

    `color_weights[b]` is the contraction coefficient against color b (already
    including kappa); `parity` is the parity of the annihilating field.
    """
    out = {}
    for mono, coeff in v.terms.items():
        sign = 1
        for i, (m, b) in enumerate(mono):
            if m == n:
                w = color_weights[b]
                if not _scalar_is_zero(w):
                    rest = mono[:i] + mono[i + 1:]
                    contrib = coeff * w * n * sign
                    out[rest] = out.get(rest, 0) + contrib
            if parity and space.parities[b]:
                sign = -sign
    return FockVector(space, out)


def term_dict_mode(space: ColorSpace, n: int, coeffs) -> FnFockOperator:
    """Heisenberg mode n of the field sum_b coeffs[b] b, its columns from
    `create` and `annihilate` for any scalars (`ColorSpace.mode` with its
    `fn` closures, the space in place of `self`)."""
    coeffs, par = list(coeffs), _parity(space.parities, coeffs)
    name = f"q{n}"
    if n == 0:
        return FnFockOperator(lambda v: FockVector(space, {}), None, name)
    if n < 0:
        def fn(v: FockVector) -> FockVector:
            acc: dict = {}
            for b, c in enumerate(coeffs):
                if not _scalar_is_zero(c):
                    _add_into(acc, create(space, -n, b, v).terms, c)
            return FockVector._of(space, acc)
    else:
        # over the nonzero kappa entries only, so that a weight keeps the
        # conductor of the coefficients it is made of
        weights = [sum((c * row[b] for c, row in zip(coeffs, space.kappa)
                        if row[b] != 0), Fraction(0))
                   for b in range(len(space.labels))]

        def fn(v: FockVector) -> FockVector:
            return annihilate(space, n, weights, par, v)

    return FnFockOperator(fn, None, name)


def monomial_basis(space: ColorSpace, weight: int) -> list[tuple]:
    """All canonical monomials of the given weight (odd colors multiplicity 1)."""
    gens = [(n, c) for n in range(1, weight + 1) for c in range(len(space.labels))]
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx == len(gens):
            return
        n, c = gens[idx]
        rec(idx + 1, remaining, acc)
        maxrep = 1 if space.parities[c] else remaining // n
        cur = []
        for rep in range(1, maxrep + 1):
            if n * rep > remaining:
                break
            cur.append((n, c))
            rec(idx + 1, remaining - n * rep, acc + cur)

    rec(0, weight, [])
    return [tuple(sorted(m)) for m in out]


def coproduct_power(alg: FrobeniusAlgebra, alpha, k: int) -> list[tuple]:
    """delta_k* alpha as a list of (coefficient, [factor elements]); determined
    by <delta_k* alpha, b_1 (x) ... (x) b_k> = trace(alpha b_1 ... b_k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return [(Fraction(1), [alpha])]
    if not alg.nondegenerate:
        raise DegeneratePairing(f"{alg.name}: coproduct needs a nondegenerate trace")
    if any(alg.parities):
        raise ModelMismatch("coproduct powers are implemented for even models only")
    terms = [(Fraction(1), [alpha])]
    for _ in range(k - 1):
        new_terms = []
        for coeff, factors in terms:
            head = factors[0]
            for a in range(alg.dim):
                for b in range(alg.dim):
                    c = alg.trace(alg.mul(head, alg.mul(alg.basis(a), alg.basis(b))))
                    if c != 0:
                        new_terms.append((coeff * c,
                                          [alg.dual_basis(a), alg.dual_basis(b)]
                                          + factors[1:]))
        terms = _merge_tensor_terms(new_terms)
    return terms


def join_boundary(space: ColorSpace) -> FnFockOperator:
    """-(1/2) sum_{n,m>0} n m a_{n+m} d/da_n d/da_m on a one-color space."""
    if len(space.labels) != 1:
        raise ModelMismatch("the join boundary operator needs a single color")

    def fn(v: FockVector) -> FockVector:
        out = {}
        for mono, coeff in v.terms.items():
            parts = [n for n, _ in mono]
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    rest = [parts[t] for t in range(len(parts)) if t not in (i, j)]
                    joined = tuple(sorted((p, 0) for p in rest + [parts[i] + parts[j]]))
                    w = -parts[i] * parts[j] * coeff
                    out[joined] = out.get(joined, 0) + w
        return FockVector(space, out)

    return FnFockOperator(fn, None, "boundary-join")


def mul_coproduct_power(alg: FrobeniusAlgebra, alpha, k: int) -> list[tuple]:
    """delta_k* alpha as a list of (coefficient, [factor elements]); determined
    by <delta_k* alpha, b_1 (x) ... (x) b_k> = trace(alpha b_1 ... b_k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return [(Fraction(1), [alpha])]
    if not alg.nondegenerate:
        raise DegeneratePairing(f"{alg.name}: coproduct needs a nondegenerate trace")
    if any(alg.parities):
        raise ModelMismatch("coproduct powers are implemented for even models only")
    duals = [alg.dual_basis(a) for a in range(alg.dim)]
    terms = [(Fraction(1), [alpha])]
    for _ in range(k - 1):
        new_terms = []
        for coeff, factors in terms:
            head = factors[0]
            for a in range(alg.dim):
                for b in range(alg.dim):
                    c = alg.trace(alg.mul(head, alg._mul[a][b]))
                    if c != 0:
                        new_terms.append((coeff * c, [duals[a], duals[b]] + factors[1:]))
        terms = _merge_tensor_terms(new_terms)
    return terms


def unkept_nop_block(fields: list[_Field], mode: int, d: int) -> tuple[list, int]:
    """The block from weight d of the z^(-mode - k) coefficient of the
    right-to-left normally ordered product of the k weight-one fields."""
    if len(fields) == 1:
        return fields[0].mode(mode).block(d)
    acc = _BlockSum(len(fields[0].space.grade(d)[0]))
    unkept_nop_into(acc, fields, mode, d, 1)
    return acc.block()


def unkept_nop_into(acc: _BlockSum, fields: list[_Field], mode: int, d: int, s) -> None:
    """acc += s * `unkept_nop_block(fields, mode, d)`: the creation modes of
    the first field stay on the left, its annihilation modes move to the
    right with the parity sign."""
    if len(fields) == 1:
        acc.add(fields[0].mode(mode).block(d), s)
        return
    first, rest = fields[0], fields[1:]
    sign = -1 if first.parity and sum(f.parity for f in rest) % 2 else 1
    for m in range(mode - d, 0):
        acc.add_product(first.mode(m).block(d - mode + m), unkept_nop_block(rest, mode - m, d), s)
    for m in range(1, d + 1):
        acc.add_product(unkept_nop_block(rest, mode - m, d - m), first.mode(m).block(d), s * sign)


def unmerged_W_operator(alg: FrobeniusAlgebra, k: int, n: int, alpha,
                        weight: int | None, space: ColorSpace | None = None) -> FockOperator:
    """Coefficient of z^(-n-k) in (1/k!) (delta_k* alpha)(z); W^1 = q_n,
    W^2 = the Virasoro mode L_n."""
    space = space or ColorSpace.of_algebra(alg)
    terms = [(coeff, [space.field(f) for f in factors])
             for coeff, factors in mul_coproduct_power(alg, alpha, k)]
    factorial = math.factorial(k)

    def grade_block(d: int) -> tuple[list, int]:
        acc = _BlockSum(len(space.grade(d)[0]))
        for coeff, fields in terms:
            unkept_nop_into(acc, fields, n, d, coeff / factorial)
        return acc.block()

    return FockOperator(space, weight, f"W{k}_{n}", grade_block, lowers=n)
