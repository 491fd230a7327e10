"""Colored, parity-graded Fock spaces over a graded Frobenius algebra, with
Heisenberg modes, normally ordered products, vertex-operator coefficients
W^k_n, Virasoro operators and the boundary operator.

Mode convention: creation modes carry negative indices (q_{-n}, n > 0,
multiplies by the generator a_{-n}); annihilation modes act as
super-derivations with contraction [q_n(a), a_{-m}(b)] = n d_{nm} <a,b>.
The dictionary to the opposite labeling (creation on positive modes) is
n -> -n; under it the bracket [q_n(a), q_m(b)] = n d_{n+m} <a,b> Id keeps the
same shape, and the Virasoro relation reads
[L_n(a), L_m(b)] = (m-n) L_{n+m}(ab) + (n^3-n)/12 d_{n+m} <e ab> Id
with e the Euler element sum_i b_i b^i of the algebra.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .exact import CycNum
from .linop import LinearOperator
from . import linalg


class CutoffTooSmall(ValueError):
    """Operator applied above its declared validity weight."""


class DegeneratePairing(ValueError):
    """The trace pairing has no inverse; W^k for k >= 2 is unavailable."""


class ModelMismatch(ValueError):
    """The requested construction needs a different model."""


class IndexOutOfRange(IndexError):
    pass


# ---------------------------------------------------------------------------
# Frobenius algebra models
# ---------------------------------------------------------------------------

class FrobeniusAlgebra:
    """Finite-dimensional graded-commutative algebra with a trace functional.

    Elements are coefficient tuples over the basis.  When the trace pairing
    (a,b) -> trace(ab) is invertible, a dual basis and the Euler element
    sum_i b_i b^i are available.
    """

    def __init__(self, labels, degrees, parities, unit_label, products, trace,
                 euler=None, canonical=None, name="model"):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.degrees = list(degrees)
        self.parities = list(parities)
        self.name = name
        self.unit = self._vec({unit_label: 1})
        # products: dict (label_i, label_j) -> dict label_k -> Fraction
        self._mul = [[None] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(self.labels):
            for j, b in enumerate(self.labels):
                self._mul[i][j] = self._vec(products.get((a, b), {}))
        self.trace_vec = [Fraction(trace.get(lab, 0)) for lab in self.labels]
        self._validate()
        self.pairing = [[self.trace(self.mul(self.basis(i), self.basis(j)))
                         for j in range(self.dim)] for i in range(self.dim)]
        try:
            self._pairing_inv = linalg.invert(
                [[Fraction(x) for x in row] for row in self.pairing],
                Fraction(1), Fraction(0))
            self.nondegenerate = True
        except ValueError:
            self._pairing_inv = None
            self.nondegenerate = False
        if euler is not None:
            self.euler = self._vec(euler)
        elif self.nondegenerate:
            self.euler = self._derived_euler()
        else:
            self.euler = None
        self.canonical = self._vec(canonical) if canonical is not None else None

    # -- element helpers -----------------------------------------------------

    def _vec(self, coeffs: dict) -> tuple:
        out = [Fraction(0)] * self.dim
        for lab, c in coeffs.items():
            out[self.index[lab]] = out[self.index[lab]] + Fraction(c)
        return tuple(out)

    def element(self, coeffs: dict) -> tuple:
        return self._vec(coeffs)

    def basis(self, i: int) -> tuple:
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dim))

    def zero(self) -> tuple:
        return tuple(Fraction(0) for _ in range(self.dim))

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def scale(self, u, s):
        return tuple(a * s for a in u)

    def mul(self, u, v):
        out = list(self.zero())
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                prod = self._mul[i][j]
                for k, c in enumerate(prod):
                    if c != 0:
                        out[k] = out[k] + a * b * c
        return tuple(out)

    def trace(self, u):
        return sum((a * t for a, t in zip(u, self.trace_vec)), Fraction(0))

    def parity_of(self, u) -> int:
        return _parity(self.parities, u)

    def dual_basis(self, i: int) -> tuple:
        if not self.nondegenerate:
            raise DegeneratePairing(f"{self.name}: trace pairing is degenerate")
        return tuple(self._pairing_inv[k][i] for k in range(self.dim))

    def _derived_euler(self) -> tuple:
        out = self.zero()
        for i in range(self.dim):
            out = self.add(out, self.mul(self.basis(i), self.dual_basis(i)))
        return out

    def _validate(self) -> None:
        for i in range(self.dim):
            if self.mul(self.unit, self.basis(i)) != self.basis(i):
                raise ValueError("unit law fails")
        for i in range(self.dim):
            for j in range(self.dim):
                sign = -1 if (self.parities[i] and self.parities[j]) else 1
                lhs = self.mul(self.basis(i), self.basis(j))
                rhs = self.scale(self.mul(self.basis(j), self.basis(i)), sign)
                if lhs != rhs:
                    raise ValueError("graded commutativity fails")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.mul(self.mul(self.basis(i), self.basis(j)), self.basis(k))
                    rhs = self.mul(self.basis(i), self.mul(self.basis(j), self.basis(k)))
                    if lhs != rhs:
                        raise ValueError("associativity fails")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        products = {}
        for i, a in enumerate(self.labels):
            for j, b in enumerate(self.labels):
                entries = {self.labels[k]: [str(c.numerator), str(c.denominator)]
                           for k, c in enumerate(self._mul[i][j]) if c != 0}
                if entries:
                    products[f"{a}*{b}"] = entries
        data = {
            "basis": self.labels,
            "degrees": self.degrees,
            "parities": self.parities,
            "unit": self.labels[list(self.unit).index(Fraction(1))],
            "products": products,
            "trace": {lab: [str(t.numerator), str(t.denominator)]
                      for lab, t in zip(self.labels, self.trace_vec) if t != 0},
        }
        if self.euler is not None:
            data["euler"] = {lab: [str(c.numerator), str(c.denominator)]
                             for lab, c in zip(self.labels, self.euler) if c != 0}
        if self.canonical is not None:
            data["canonical"] = {lab: [str(c.numerator), str(c.denominator)]
                                 for lab, c in zip(self.labels, self.canonical) if c != 0}
        return data

    @staticmethod
    def from_json(data: dict) -> "FrobeniusAlgebra":
        def frac_map(d):
            return {k: Fraction(int(nd[0]), int(nd[1])) for k, nd in d.items()}

        products = {}
        for key, entries in data["products"].items():
            a, b = key.split("*")
            products[(a, b)] = frac_map(entries)
        return FrobeniusAlgebra(
            data["basis"], data["degrees"], data["parities"], data["unit"],
            products, frac_map(data["trace"]),
            euler=frac_map(data["euler"]) if "euler" in data else None,
            canonical=frac_map(data["canonical"]) if "canonical" in data else None,
        )


def _parity(parities, coeffs) -> int:
    """The parity of the element with these coefficients over basis elements
    of these parities (0 for zero)."""
    par = None
    for p, a in zip(parities, coeffs):
        if a != 0:
            if par is None:
                par = p
            elif par != p:
                raise ValueError("element is not parity-homogeneous")
    return 0 if par is None else par


def point_model() -> FrobeniusAlgebra:
    """One even class with unit trace; the one-boson model."""
    return FrobeniusAlgebra(["pt"], [0], [0], "pt", {("pt", "pt"): {"pt": 1}},
                            {"pt": 1}, name="point")


def affine_plane_model() -> FrobeniusAlgebra:
    """One even class, zero trace: the degenerate (non-compact) model."""
    return FrobeniusAlgebra(["1"], [0], [0], "1", {("1", "1"): {"1": 1}},
                            {}, name="affine-plane")


def p2_model() -> FrobeniusAlgebra:
    """Basis 1, h, h^2 with trace(h^2) = 1; Euler element derives to 3 h^2."""
    products = {
        ("1", "1"): {"1": 1}, ("1", "h"): {"h": 1}, ("1", "h2"): {"h2": 1},
        ("h", "1"): {"h": 1}, ("h2", "1"): {"h2": 1},
        ("h", "h"): {"h2": 1},
    }
    return FrobeniusAlgebra(["1", "h", "h2"], [0, 2, 4], [0, 0, 0], "1",
                            products, {"h2": 1}, name="p2")


def exterior_two_model() -> FrobeniusAlgebra:
    """Exterior algebra on two odd generators: h_ev = 2, h_odd = 2."""
    products = {
        ("1", "1"): {"1": 1}, ("1", "a"): {"a": 1}, ("1", "b"): {"b": 1},
        ("1", "ab"): {"ab": 1}, ("a", "1"): {"a": 1}, ("b", "1"): {"b": 1},
        ("ab", "1"): {"ab": 1},
        ("a", "b"): {"ab": 1}, ("b", "a"): {"ab": -1},
    }
    return FrobeniusAlgebra(["1", "a", "b", "ab"], [0, 1, 1, 2], [0, 1, 1, 0],
                            "1", products, {"ab": 1}, name="exterior2")


_BUILTIN_MODELS = {
    "point": point_model,
    "affine": affine_plane_model,
    "affine-plane": affine_plane_model,
    "p2": p2_model,
    "exterior2": exterior_two_model,
}


@functools.cache
def builtin_model(name: str) -> FrobeniusAlgebra:
    """The built-in model `name`, built once per process: no caller changes
    an algebra once built, and every Fock space is built fresh from it."""
    if name not in _BUILTIN_MODELS:
        raise ValueError(f"unknown builtin model {name!r}")
    return _BUILTIN_MODELS[name]()


def load_model(spec: str) -> FrobeniusAlgebra:
    """'builtin:p2' or a JSON file path."""
    if spec.startswith("builtin:"):
        return builtin_model(spec.split(":", 1)[1])
    with open(spec, "r", encoding="utf-8") as fh:
        return FrobeniusAlgebra.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Fock vectors over a color space
# ---------------------------------------------------------------------------

class ColorSpace:
    """Creation colors with parities and a contraction pairing kappa(a,b)."""

    def __init__(self, labels, parities, kappa, name="colors"):
        self.labels = list(labels)
        self.parities = list(parities)
        self.kappa = kappa  # matrix, kappa[a][b] scalar
        self.name = name
        self.fields: dict = {}  # tuple(alpha) -> _Field of alpha on this space

    def mode(self, n: int, coeffs) -> "FockOperator":
        """Heisenberg mode n of the field sum_b coeffs[b] b: multiplication by
        sum_b coeffs[b] a_{n}(b) for n < 0, the super-derivation contracting
        a_{-n}(b) with weight sum_a coeffs[a] kappa(a, b) for n > 0, zero for
        n = 0; [mode(n, x), mode(m, y)] = n d_{n+m} kappa(x, y) Id."""
        coeffs, par = list(coeffs), _parity(self.parities, coeffs)
        if n == 0:
            return FockOperator(lambda v: FockVector(self, {}), None, "q0")
        if n < 0:
            def fn(v: FockVector) -> FockVector:
                acc: dict = {}
                for b, c in enumerate(coeffs):
                    if not _scalar_is_zero(c):
                        _add_into(acc, create(self, -n, b, v).terms, c)
                return FockVector._of(self, acc)
        else:
            # over the nonzero kappa entries only, so that a weight keeps the
            # conductor of the coefficients it is made of
            weights = [sum((c * row[b] for c, row in zip(coeffs, self.kappa)
                            if row[b] != 0), Fraction(0))
                       for b in range(len(self.labels))]

            def fn(v: FockVector) -> FockVector:
                return annihilate(self, n, weights, par, v)

        return FockOperator(fn, None, f"q{n}")

    def field(self, alpha) -> "_Field":
        """The field of the element alpha, kept on this space with its modes."""
        key = tuple(alpha)
        f = self.fields.get(key)
        if f is None:
            f = self.fields[key] = _Field(self, alpha)
        return f

    @staticmethod
    def of_algebra(alg: FrobeniusAlgebra) -> "ColorSpace":
        return ColorSpace(alg.labels, alg.parities,
                          [[alg.pairing[i][j] for j in range(alg.dim)]
                           for i in range(alg.dim)], name=alg.name)


def _canonical_monomial(gens, parities):
    """Sort generators, tracking the parity sign; kills repeated odd colors."""
    gens = list(gens)
    sign = 1
    # insertion sort counting odd-odd transpositions
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1] > gens[j]:
            if parities[gens[j - 1][1]] and parities[gens[j][1]]:
                sign = -sign
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a == b and parities[a[1]]:
            return 0, ()
    return sign, tuple(gens)


class FockVector:
    """Finite linear combination of creation monomials ((n, color), ...)."""

    __slots__ = ("space", "terms")

    def __init__(self, space: ColorSpace, terms: dict):
        self.space = space
        self.terms = {m: c for m, c in terms.items() if not _scalar_is_zero(c)}

    @classmethod
    def _of(cls, space: ColorSpace, terms: dict) -> "FockVector":
        """The vector with `terms`, taken as given: no coefficient may be zero."""
        v = object.__new__(cls)
        v.space = space
        v.terms = terms
        return v

    def weight(self) -> int:
        return max((sum(n for n, _ in m) for m in self.terms), default=0)

    def basis_vector(self, mono: tuple) -> "FockVector":
        return FockVector._of(self.space, {mono: 1})

    def sum_scaled(self, scaled) -> "FockVector":
        """sum of col * coeff over the (col, coeff) pairs, keyed as `+` keys it."""
        acc: dict = {}
        for col, coeff in scaled:
            _add_into(acc, col.terms, coeff)
        return FockVector._of(self.space, acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        _add_into(out, other.terms)
        return FockVector._of(self.space, out)

    def __neg__(self):
        return FockVector._of(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if _scalar_is_zero(s):
            return FockVector._of(self.space, {})
        # the scalars form a field: a product of nonzero factors is nonzero
        return FockVector._of(self.space, {m: c * s for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(k, 0) == other.terms.get(k, 0) for k in keys)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            gens = "".join(f"a[-{n}]({self.space.labels[b]})" for n, b in m)
            bits.append(f"({c})*{gens or '|0>'}")
        return " + ".join(bits)


def _scalar_is_zero(c) -> bool:
    if isinstance(c, CycNum):
        return c.is_zero()
    return c == 0


def _add_into(acc: dict, terms: dict, s=None) -> None:
    """acc += s * terms in place (s = None adds `terms` as they are).

    A monomial whose sum cancels leaves `acc`, so `acc` never holds a zero and
    a monomial that comes back is appended at the end, as `FockVector.__add__`
    rebuilding the whole sum would place it.

    A unit scale multiplies only where the product changes a coefficient's
    type: the int 1 scales nothing (c * 1 has the type and conductor of c),
    and `Fraction(1)` leaves a Fraction as it is but still turns an int into
    a Fraction and multiplies a CycNum, whose conductor the product keeps."""
    if type(s) is int and s == 1:
        s = None
    unit = type(s) is Fraction and s == 1
    for m, c in terms.items():
        if s is not None and not (unit and type(c) is Fraction):
            c = c * s
        prev = acc.get(m)
        if prev is None:
            acc[m] = c
        else:
            c = prev + c
            if c.is_zero() if type(c) is CycNum else not c:
                del acc[m]
            else:
                acc[m] = c


def vacuum(space: ColorSpace) -> FockVector:
    return FockVector(space, {(): 1})


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


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class FockOperator(LinearOperator):
    """Linear operator on Fock vectors, valid on monomials of weight at most
    `max_weight` (any weight when it is None).

    The bound is checked once per monomial, when its column is computed.
    Operators combined from this one carry no bound of their own: they raise
    `CutoffTooSmall` through it.
    """

    def __init__(self, fn, max_weight=None, name="op"):
        super().__init__(fn)
        self.max_weight = max_weight
        self.name = name

    # a method of this class itself, so that wrapping `FockOperator.apply`
    # (as perfbench/tracer.py does) reaches Fock operators only
    apply = LinearOperator.apply

    def _column(self, v: FockVector, mono: tuple) -> FockVector:
        if self.max_weight is not None:
            weight = sum(n for n, _ in mono)
            if weight > self.max_weight:
                raise CutoffTooSmall(
                    f"{self.name}: input weight {weight} above cutoff {self.max_weight}")
        return super()._column(v, mono)


def q_mode(alg: FrobeniusAlgebra, n: int, alpha, space: ColorSpace | None = None) -> FockOperator:
    """Heisenberg mode q_n(alpha): creation for n < 0, super-derivation for
    n > 0, zero for n = 0; satisfies [q_n(a), q_m(b)] = n d_{n+m} trace(ab) Id.
    A new operator on every call: the library itself reads the modes kept by
    `ColorSpace.field`, and this entry point stays for callers and for
    `perfbench/tracer.py`, which counts its calls by name."""
    return (space or ColorSpace.of_algebra(alg)).mode(n, alpha)


class _Field:
    """A weight-one field alpha(z): its parity and its modes q_n(alpha), each
    built once by the space and then kept by mode."""

    __slots__ = ("space", "alpha", "parity", "modes", "_probe")

    def __init__(self, space: ColorSpace, alpha):
        self.space = space
        self.alpha = alpha
        self.parity = _parity(space.parities, alpha)
        self.modes: dict[int, FockOperator] = {}
        self._probe = FockVector._of(space, {})  # the space `column` builds in

    def mode(self, n: int) -> FockOperator:
        op = self.modes.get(n)
        if op is None:
            op = self.modes[n] = self.space.mode(n, self.alpha)
        return op

    def apply_mode(self, n: int, terms: dict) -> dict:
        """The terms of q_n(alpha) applied to the vector with these terms, summed
        into a new dict from the mode's cached columns as `FockOperator.apply`
        sums them."""
        op, probe = self.mode(n), self._probe
        out: dict = {}
        for mono, c in terms.items():
            _add_into(out, op.column(probe, mono).terms, c)
        return out


def _nop_apply(fields: list[_Field], mode: int, terms: dict) -> dict:
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
        return first.apply_mode(mode, terms) if mode else {}
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
            u = _nop_apply(rest, mode - m, terms)
            if u:
                _add_into(acc, first.apply_mode(m, u))
    # annihilation part moves to the right (with the parity sign); the
    # parts of first.apply_mode(m, terms) lie among those of terms
    for m in sorted(parts):
        if not _vanishes(rest, mode - m, parts):
            u0 = first.apply_mode(m, terms)
            if u0:
                _add_into(acc, _nop_apply(rest, mode - m, u0), sign)
    return acc


def _vanishes(fields: list[_Field], mode: int, parts: set) -> bool:
    """Whether the product of `fields` at `mode` is zero on every vector whose
    monomials have their parts among `parts`: a single field at mode 0, or at
    an annihilation mode that is no part size."""
    return len(fields) == 1 and (mode == 0 or (mode > 0 and mode not in parts))


def normal_order(alg: FrobeniusAlgebra, fields: list, weight: int, mode: int,
                 space: ColorSpace | None = None) -> FockOperator:
    """Finite operator: the z^(-mode - k) coefficient of :f1(z)...fk(z):,
    valid on vectors of weight <= `weight`."""
    space = space or ColorSpace.of_algebra(alg)
    resolved = [space.field(f) for f in fields]
    return FockOperator(lambda v: FockVector._of(space, _nop_apply(resolved, mode, v.terms)),
                        max_weight=weight, name=f"nop{mode}")


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


def _merge_tensor_terms(terms):
    merged = {}
    for coeff, factors in terms:
        key = tuple(tuple(f) for f in factors)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    return [(c, [list(f) for f in key]) for key, c in merged.items() if c != 0]


def W_operator(alg: FrobeniusAlgebra, k: int, n: int, alpha,
               weight: int | None, space: ColorSpace | None = None) -> FockOperator:
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
            _add_into(acc, _nop_apply(fields, n, v.terms), coeff)
        return FockVector._of(space, acc).scale(Fraction(1, factorial))

    return FockOperator(fn, max_weight=weight, name=f"W{k}_{n}")


def L_operator(alg: FrobeniusAlgebra, n: int, alpha, weight: int,
               space: ColorSpace | None = None) -> FockOperator:
    return W_operator(alg, 2, n, alpha, weight, space)


def join_boundary(space: ColorSpace) -> FockOperator:
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

    return FockOperator(fn, None, "boundary-join")


def boundary_operator(alg: FrobeniusAlgebra, kind: str, weight: int | None = None,
                      space: ColorSpace | None = None) -> FockOperator:
    """'projective-with-trivial-K': -W^3_0(1), valid up to `weight` (any
    weight when it is None); 'affine-plane': the join form."""
    space = space or ColorSpace.of_algebra(alg)
    if kind == "projective-with-trivial-K":
        if not alg.nondegenerate:
            raise ModelMismatch("projective boundary needs a nondegenerate trace")
        if alg.canonical is not None and any(c != 0 for c in alg.canonical):
            raise ModelMismatch("projective boundary requires trivial canonical class")
        return W_operator(alg, 3, 0, alg.unit, weight, space).scale(-1)
    if kind == "affine-plane":
        return join_boundary(space)
    raise ModelMismatch(f"unknown boundary model {kind!r}")


def B_class(alg: FrobeniusAlgebra, i: int, gamma, n: int,
            space: ColorSpace | None = None) -> FockVector:
    """(1/(n-i-1)!) a_{-(i+1)}(gamma) a_{-1}(1)^(n-i-1) |0> for 0 <= i < n."""
    if not (0 <= i < n):
        raise IndexOutOfRange(f"B_class needs 0 <= i < n, got i={i}, n={n}")
    space = space or ColorSpace.of_algebra(alg)
    v = vacuum(space)
    for _ in range(n - i - 1):
        v = space.field(alg.unit).mode(-1).apply(v)
    v = space.field(gamma).mode(-(i + 1)).apply(v)
    fact = 1
    for t in range(2, n - i):
        fact *= t
    return v.scale(Fraction(1, fact))


def chern_series(alg: FrobeniusAlgebra, gamma, cutoff: int,
                 space: ColorSpace | None = None) -> list[FockVector]:
    """Weight-n coefficients of exp(sum_{k>=1} (-1)^(k-1)/k a_{-k}(gamma) z^k)|0>."""
    space = space or ColorSpace.of_algebra(alg)
    return exponential_series(
        space, {k: Fraction((-1) ** (k - 1), k) for k in range(1, cutoff + 1)},
        gamma, cutoff)


def exponential_series(space: ColorSpace, mode_coeffs: dict, alpha,
                       cutoff: int) -> list[FockVector]:
    """Weight coefficients of exp(sum_k c_k A_k z^k)|0> up to cutoff, where
    A_k = space.mode(-k, alpha) raises weight by k and c_k = mode_coeffs[k]."""
    ops = {k: space.mode(-k, alpha) for k in mode_coeffs}
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


def graded_dimension(model, cutoff: int) -> list[int]:
    """Monomial counts per weight by literal enumeration; matches the
    even/odd product-formula expansion.  Accepts an algebra or a color space."""
    space = model if isinstance(model, ColorSpace) else ColorSpace.of_algebra(model)
    return [len(monomial_basis(space, w)) for w in range(cutoff + 1)]


def fock_inner(alg: FrobeniusAlgebra, u: FockVector, v: FockVector,
               space: ColorSpace | None = None):
    """Bilinear form with <|0>,|0>> = 1 and annihilation adjoint to creation;
    monomials are orthogonal with norm prod n^{m_n} m_n! prod pairings."""
    space = space or ColorSpace.of_algebra(alg)
    total = 0
    for mono, coeff in u.terms.items():
        w = v
        for n, b in mono:
            w = space.field(alg.basis(b)).mode(n).apply(w)
            if w.is_zero():
                break
        val = w.terms.get((), 0)
        if not _scalar_is_zero(val):
            total = total + coeff * val
    return total


def _basis_vectors(space: ColorSpace, weight: int) -> list[list[FockVector]]:
    """The monomials of each weight up to `weight`, as basis vectors."""
    return [[FockVector(space, {mono: 1}) for mono in monomial_basis(space, w)]
            for w in range(weight + 1)]


def heisenberg_check(alg: FrobeniusAlgebra, modes: int, weight: int):
    """[q_n(a), q_m(b)] = n d_{n+m} trace(ab) Id on the weight truncation; the
    bracket is the supercommutator (an anticommutator for two odd elements)."""
    from .report import VerificationReport

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
    from .report import VerificationReport

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
