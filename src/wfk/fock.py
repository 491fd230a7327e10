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

import bisect
import functools
import json
import math
from fractions import Fraction
from types import MappingProxyType

from .exact import CycNum
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
    sum_i (-1)^|b_i| b_i b^i are available.  The algebra owns its Fock
    space `space`, and with it every mode and normal product built on that
    space.
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
        duals = [self.dual_basis(d) for d in range(self.dim)] if self.nondegenerate else []
        self._split_tables(duals)
        if euler is not None:
            self.euler = self._vec(euler)
        elif self.nondegenerate:
            self.euler = self._derived_euler()
        else:
            self.euler = None
        self.canonical = self._vec(canonical) if canonical is not None else None
        self.space = ColorSpace(self.labels, self.parities,
                                [list(row) for row in self.pairing], name=self.name,
                                duals=duals)

    def _split_tables(self, duals: list) -> None:
        """The tables `coproduct_power` reads: trace(x e_a e_b) for x each
        basis element e_i (`triple_trace[i]`) and each element e^d of the dual
        basis `duals` (`dual_split[d]`; none for a degenerate pairing), as the
        nonzero ((a, b), numerator) in (a, b) order over the one int
        denominator `split_den`; and `dual_rank[d]`, the place of e^d among
        the dual basis elements sorted by their coefficients."""
        dim = self.dim
        triple = [[[sum((c * self.pairing[i][k] for k, c in enumerate(self._mul[a][b]) if c),
                        Fraction(0))
                    for b in range(dim)] for a in range(dim)] for i in range(dim)]
        tables = triple + [[[sum((x * triple[i][a][b] for i, x in enumerate(dual) if x),
                                 Fraction(0))
                             for b in range(dim)] for a in range(dim)] for dual in duals]
        den = math.lcm(1, *(t.denominator for table in tables for row in table for t in row))
        sparse = [[((a, b), t.numerator * (den // t.denominator))
                   for a, row in enumerate(table) for b, t in enumerate(row) if t]
                  for table in tables]
        self.split_den = den
        self.triple_trace, self.dual_split = sparse[:dim], sparse[dim:]
        ranked = sorted(range(len(duals)), key=duals.__getitem__)
        self.dual_rank = [ranked.index(d) for d in range(len(duals))]

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
        """sum_i (-1)^|b_i| b_i b^i, whose trace is the super-dimension
        sum_i (-1)^|b_i|, the Euler number of the model."""
        out = self.zero()
        for i in range(self.dim):
            term = self.mul(self.basis(i), self.dual_basis(i))
            out = self.add(out, self.scale(term, -1) if self.parities[i] else term)
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
    an algebra once built, so its Fock space `space`, with the modes and
    normal products kept on it, serves every caller of the process."""
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
    """Creation colors with parities and a contraction pairing kappa(a,b).

    The space keeps what is built on it: its grades, its fields with their
    modes, and the normal products of its fields.  The space of an algebra
    builds the fields of the algebra's dual basis `duals` at once and keeps
    them in order in `dual_fields`, so that `W_operator` reads them by index.
    Two spaces are equal when their labels, parities, pairing and name are,
    whatever they keep."""

    def __init__(self, labels, parities, kappa, name="colors", duals=()):
        self.labels = list(labels)
        self.parities = list(parities)
        self.kappa = kappa  # matrix, kappa[a][b] scalar
        self.name = name
        self.fields: dict = {}  # tuple(alpha) -> _Field of alpha on this space
        self.grades: dict = {}  # weight -> (monomials, position of each)
        self.products: dict = {}  # (fields, mode) -> normal product of the fields
        self.dual_fields = [self.field(d) for d in duals]

    def __eq__(self, other):
        if not isinstance(other, ColorSpace):
            return NotImplemented
        return (self.labels, self.parities, self.kappa, self.name) == \
            (other.labels, other.parities, other.kappa, other.name)

    def grade(self, d: int) -> tuple[list, dict]:
        """The monomials of weight d in `monomial_basis` order (none for d < 0)
        and the position of each, kept on the space."""
        g = self.grades.get(d)
        if g is None:
            monos = monomial_basis(self, d) if d >= 0 else []
            g = self.grades[d] = (monos, {m: i for i, m in enumerate(monos)})
        return g

    def mode(self, n: int, coeffs) -> "FockOperator":
        """Heisenberg mode n of the field sum_b coeffs[b] b: multiplication by
        sum_b coeffs[b] a_{n}(b) for n < 0, the super-derivation contracting
        a_{-n}(b) with weight sum_a coeffs[a] kappa(a, b) for n > 0, zero for
        n = 0; [mode(n, x), mode(m, y)] = n d_{n+m} kappa(x, y) Id.

        Its blocks are its one implementation, each built from the monomials
        of a grade over rational or cyclotomic coefficients alike (see
        `_over_one_denominator`); it is applied straight from them."""
        coeffs, par = list(coeffs), _parity(self.parities, coeffs)
        if n < 0:
            nums, den = _over_one_denominator(coeffs)
            gens = [((-n, b), x) for b, x in enumerate(nums) if not _scalar_is_zero(x)]

            def grade_block(d: int) -> tuple[list, int]:
                index, out = self.grade(d - n)[1], []
                for mono in self.grade(d)[0]:
                    col = {}
                    for gen, x in gens:
                        sign, new = _canonical_monomial((gen,) + mono, self.parities)
                        if sign:
                            col[index[new]] = sign * x
                    out.append(col or _EMPTY)
                return out, den
        else:  # n = 0 too: no monomial has a part of size 0
            # over the nonzero kappa entries only, so that a weight keeps the
            # conductor of the coefficients it is made of
            weights = [sum((c * row[b] for c, row in zip(coeffs, self.kappa)
                            if row[b] != 0), Fraction(0))
                       for b in range(len(self.labels))]
            nums, den = _over_one_denominator([w * n for w in weights])
            live = [not _scalar_is_zero(x) for x in nums]

            def grade_block(d: int) -> tuple[list, int]:
                odd = self.parities
                index, out = self.grade(d - n)[1], []
                for mono in self.grade(d)[0]:
                    col = {}
                    # the parts of size n follow the generators of smaller size
                    start = bisect.bisect_left(mono, (n, 0))
                    sign = -1 if par and sum(odd[b] for _, b in mono[:start]) % 2 else 1
                    for i in range(start, len(mono)):
                        m, b = mono[i]
                        if m != n:
                            break
                        if live[b]:
                            r = index[mono[:i] + mono[i + 1:]]
                            col[r] = col.get(r, 0) + sign * nums[b]
                        if par and odd[b]:
                            sign = -sign
                    out.append(col or _EMPTY)
                return out, den

        op = FockOperator(self, None, f"q{n}", grade_block, lowers=n)
        op.cyclotomic = any(isinstance(c, CycNum) for c in coeffs)
        return op

    def field(self, alpha) -> "_Field":
        """The field of the element alpha, kept on this space with its modes
        (by its coefficients, a CycNum by its canonical form `key()`)."""
        key = tuple(c.key() if isinstance(c, CycNum) else c for c in alpha)
        f = self.fields.get(key)
        if f is None:
            f = self.fields[key] = _Field(self, alpha)
        return f

    def product(self, fields: tuple, mode: int) -> "FockOperator":
        """The z^(-mode - k) coefficient of the right-to-left normally ordered
        product of the k >= 1 fields `fields` of this space: the field's own
        mode for k = 1, else an operator kept on the space by the fields
        themselves and the mode, valid at every weight, whose blocks read
        the kept product of the fields after the first."""
        if len(fields) == 1:
            return fields[0].mode(mode)
        op = self.products.get((fields, mode))
        if op is None:
            def grade_block(d: int) -> tuple[list, int]:
                acc = _BlockSum(len(self.grade(d)[0]))
                _nop_into(acc, fields, mode, d)
                return acc.block()

            op = self.products[fields, mode] = FockOperator(
                self, None, f"nop{mode}", grade_block, lowers=mode)
        return op

    @staticmethod
    def of_algebra(alg: FrobeniusAlgebra) -> "ColorSpace":
        """The Fock space the algebra owns."""
        return alg.space


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


def _over_one_denominator(values) -> tuple[list, int]:
    """`values` as numerators over one positive int denominator, and that
    denominator: the int numerators of rational values over their least
    common denominator, or the values themselves over 1 when one is a CycNum,
    so that a block entry keeps the type and conductor of its products."""
    if any(isinstance(c, CycNum) for c in values):
        return list(values), 1
    den = math.lcm(1, *(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


# the one column of every block with no entry; no block writes to a column
_EMPTY = MappingProxyType({})


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


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class FockOperator:
    """Linear operator on the Fock vectors of the color space `space`,
    lowering the weight by `lowers` and valid on monomials of weight at most
    `max_weight` (any weight when it is None).  A vector of another space is
    taken only when that space has the same parities and pairing kappa, so
    that its grades list the same monomials; any other raises
    `ModelMismatch`.

    `block(d)` is the operator from weight d as an exact block (see
    `_BlockSum`), built by `grade_block(d)` and kept by weight; the bound is
    checked there, once per grade.  The blocks are the operator's one
    implementation and its one cache: `apply` multiplies a vector by them.
    Their numerators are ints, but for a mode of cyclotomic coefficients
    (`cyclotomic`), whose numerators may be CycNums."""

    def __init__(self, space, max_weight, name, grade_block, lowers):
        # no column is kept apart from the blocks; the benchmark tracer still
        # reads the size of this dict around every `apply`
        self._columns: dict = {}
        self.space = space
        self.max_weight = max_weight
        self.name = name
        self.grade_block = grade_block
        self.lowers = lowers
        self.cyclotomic = False  # set by `ColorSpace.mode`
        self.blocks: dict = {}

    def apply(self, v: FockVector) -> FockVector:
        """The block times the vector: for each term, the column of its
        monomial read off the block of its weight, added times the term's
        coefficient in key order.

        When the blocks hold ints and every coefficient is an int or a
        Fraction, the sum runs on int numerators over one denominator, the
        lcm of (block denominator x coefficient denominator) over the terms,
        and gives one Fraction per monomial at the end; a monomial whose sum
        cancels leaves the sum and comes back at the end, as `_add_into`
        places it.  Otherwise each int numerator is a Fraction over the
        block's denominator, a CycNum numerator (over 1) is taken as it is,
        and the terms are added by `_add_into`."""
        space = self.space
        if v.terms and v.space is not space and (v.space.parities != space.parities
                                                 or v.space.kappa != space.kappa):
            raise ModelMismatch(f"{self.name}: an operator on {space.name} "
                                f"applied to a vector of {v.space.name}")
        if not self.cyclotomic and all(type(c) is Fraction or type(c) is int
                                       for c in v.terms.values()):
            return self._apply_rational(v)
        acc = {}
        for mono, coeff in v.terms.items():
            weight = sum(n for n, _ in mono)
            cols, den = self.block(weight)
            col = cols[space.grade(weight)[1][mono]]
            if col:
                rows = space.grade(weight - self.lowers)[0]
                _add_into(acc, {rows[r]: x if isinstance(x, CycNum) else Fraction(x, den)
                                for r, x in col.items()}, coeff)
        return FockVector._of(v.space, acc)

    def _apply_rational(self, v: FockVector) -> FockVector:
        """`apply` on int blocks and int or Fraction coefficients."""
        space, columns, common = self.space, [], 1
        for mono, coeff in v.terms.items():
            weight = sum(n for n, _ in mono)
            cols, den = self.block(weight)
            col = cols[space.grade(weight)[1][mono]]
            if col:
                den *= coeff.denominator
                common = math.lcm(common, den)
                columns.append((col, space.grade(weight - self.lowers)[0], coeff.numerator, den))
        acc: dict = {}
        get = acc.get
        for col, rows, num, den in columns:
            f = num * (common // den)
            for r, x in col.items():
                m = rows[r]
                prev = get(m)
                if prev is None:
                    acc[m] = f * x
                else:
                    prev += f * x
                    if prev:
                        acc[m] = prev
                    else:
                        del acc[m]
        return FockVector._of(v.space, {m: Fraction(x, common) for m, x in acc.items()})

    def block(self, d: int) -> tuple[list, int]:
        blk = self.blocks.get(d)
        if blk is None:
            if self.max_weight is not None and d > self.max_weight:
                raise CutoffTooSmall(
                    f"{self.name}: input weight {d} above cutoff {self.max_weight}")
            blk = self.blocks[d] = self.grade_block(d)
        return blk


class _BlockSum:
    """A sum of exact blocks, accumulated in place.

    A block of an operator from weight d of a space is a pair (cols, den):
    one column per monomial of `ColorSpace.grade(d)`, each a dict from the
    position of a monomial of the target weight to a numerator, over the one
    positive int denominator `den` of the whole block.  The numerators are
    ints, or CycNums over 1 for a mode of cyclotomic coefficients; a sum
    takes int numerators only (a zero CycNum is true, so `block` would keep
    it), and `W_operator` and `normal_order` refuse cyclotomic elements.  A
    sum keeps its columns over one denominator, the least common multiple of
    those of its terms, and may hold zero entries; `block` drops them and
    gives every column left empty as the one shared `_EMPTY`."""

    __slots__ = ("cols", "den")

    def __init__(self, size: int):
        self.cols: list[dict] = [{} for _ in range(size)]
        self.den = 1

    def _factor(self, s, den: int) -> int:
        """The int that multiplies the numerators of a term s/den, with s an
        int or a Fraction, once the sum and the term share a denominator."""
        den *= s.denominator
        common = math.lcm(self.den, den)
        if common != self.den:
            up = common // self.den
            for col in self.cols:
                for r in col:
                    col[r] *= up
            self.den = common
        return s.numerator * (common // den)

    def add(self, block: tuple, s=1) -> None:
        """self += s * block."""
        cols, den = block
        f = self._factor(s, den)
        for out, col in zip(self.cols, cols):
            if col:
                get = out.get
                for r, x in col.items():
                    out[r] = get(r, 0) + f * x

    def add_product(self, a: tuple, b: tuple, s=1) -> None:
        """self += s * a b, the block a applied after the block b."""
        acols, aden = a
        bcols, bden = b
        f = self._factor(s, aden * bden)
        for out, col in zip(self.cols, bcols):
            if not col:
                continue
            get = out.get
            for k, x in col.items():
                acol = acols[k]
                if acol:
                    x *= f
                    for r, y in acol.items():
                        out[r] = get(r, 0) + x * y

    def add_identity(self, s) -> None:
        """self += s * Id, for a sum from one weight to itself."""
        f = self._factor(s, 1)
        for j, out in enumerate(self.cols):
            out[j] = out.get(j, 0) + f

    def is_zero(self) -> bool:
        return not any(x for col in self.cols for x in col.values())

    def block(self) -> tuple[list, int]:
        return [{r: x for r, x in col.items() if x} or _EMPTY for col in self.cols], self.den


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

    __slots__ = ("space", "alpha", "parity", "modes")

    def __init__(self, space: ColorSpace, alpha):
        self.space = space
        self.alpha = alpha
        self.parity = _parity(space.parities, alpha)
        self.modes: dict[int, FockOperator] = {}

    def mode(self, n: int) -> FockOperator:
        op = self.modes.get(n)
        if op is None:
            op = self.modes[n] = self.space.mode(n, self.alpha)
        return op


def _nop_into(acc: _BlockSum, fields: tuple, mode: int, d: int) -> None:
    """acc += the block from weight d of `ColorSpace.product(fields, mode)`,
    for two or more fields: the creation modes of the first field stay on the
    left, its annihilation modes move to the right with the parity sign, and
    the product of the other fields is the one kept on the space."""
    first, rest = fields[0], fields[1:]
    space = first.space
    sign = -1 if first.parity and sum(f.parity for f in rest) % 2 else 1
    for m in range(mode - d, 0):
        acc.add_product(first.mode(m).block(d - mode + m), space.product(rest, mode - m).block(d))
    for m in range(1, d + 1):
        acc.add_product(space.product(rest, mode - m).block(d - m), first.mode(m).block(d), sign)


def _refuse_cyclotomic(elements: list, name: str) -> None:
    """A `_BlockSum` holds int numerators: refuse CycNum coefficients."""
    if any(isinstance(c, CycNum) for e in elements for c in e):
        raise ModelMismatch(f"{name}: a block sum needs rational coefficients")


def normal_order(alg: FrobeniusAlgebra, fields: list, weight: int, mode: int,
                 space: ColorSpace | None = None) -> FockOperator:
    """Finite operator: the z^(-mode - k) coefficient of :f1(z)...fk(z):,
    valid on vectors of weight <= `weight`."""
    _refuse_cyclotomic(fields, f"nop{mode}")
    space = space or ColorSpace.of_algebra(alg)
    product = space.product(tuple(space.field(f) for f in fields), mode)
    return FockOperator(space, weight, f"nop{mode}", product.block, lowers=mode)


def coproduct_power(alg: FrobeniusAlgebra, alpha, k: int) -> list[tuple]:
    """delta_k* alpha as a list of (coefficient, [factor elements]); determined
    by <delta_k* alpha, b_1 (x) ... (x) b_k> = trace(alpha b_1 ... b_k), for
    alpha of rational coefficients.  For k >= 2 every factor is a dual basis
    element; see `_coproduct_terms`."""
    if k == 1:
        return [(Fraction(1), [alpha])]
    terms, den = _coproduct_terms(alg, alpha, k)
    duals = [alg.dual_basis(d) for d in range(alg.dim)]
    return [(Fraction(c, den), [list(duals[d]) for d in key]) for key, c in terms.items()]


def _coproduct_terms(alg: FrobeniusAlgebra, alpha, k: int) -> tuple[dict, int]:
    """delta_k* alpha for k >= 2 as int numerators over one denominator, keyed
    by the tuple of the dual basis indices of the factors, in the order the
    terms first appear; no numerator is zero.  k < 1 raises ValueError.

    The first step splits alpha by trace(alpha e_a e_b) into the terms
    e^a (x) e^b in (a, b) order, read off the algebra's `triple_trace`; each
    further step splits the first factor e^d of every term, in turn, by
    trace(e^d e_a e_b), read off its `dual_split`, and merges the terms with
    the same factors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not alg.nondegenerate:
        raise DegeneratePairing(f"{alg.name}: coproduct needs a nondegenerate trace")
    if any(alg.parities):
        raise ModelMismatch("coproduct powers are implemented for even models only")
    if any(isinstance(c, CycNum) for c in alpha):
        raise ModelMismatch("coproduct powers need rational coefficients")
    nums, den = _over_one_denominator(alpha)
    acc: dict = {}
    for x, table in zip(nums, alg.triple_trace):
        if x:
            for ab, t in table:
                acc[ab] = acc.get(ab, 0) + x * t
    terms = {ab: acc[ab] for ab in sorted(acc) if acc[ab]}
    den *= alg.split_den
    for _ in range(k - 2):
        acc = {}
        for key, c in terms.items():
            rest = key[1:]
            for ab, t in alg.dual_split[key[0]]:
                new = ab + rest
                acc[new] = acc.get(new, 0) + c * t
        terms = {key: c for key, c in acc.items() if c}
        den *= alg.split_den
    return terms, den


def W_operator(alg: FrobeniusAlgebra, k: int, n: int, alpha,
               weight: int | None, space: ColorSpace | None = None) -> FockOperator:
    """Coefficient of z^(-n-k) in (1/k!) (delta_k* alpha)(z); W^1 = q_n,
    W^2 = the Virasoro mode L_n.

    The terms of delta_k* alpha with the same factors in any order are one
    term, since `coproduct_power` takes even models only and normal products
    of even fields commute: each term's dual basis indices are sorted by the
    place of their elements in coefficient order (`dual_rank`), and the fields
    are read by index off the space's `dual_fields`.  Each block adds the
    block of each term's normal product, the one kept on the space."""
    _refuse_cyclotomic([alpha], f"W{k}_{n}")
    space = space or ColorSpace.of_algebra(alg)
    if k == 1:
        terms = [(space.field(tuple(alpha)).mode(n), Fraction(1))]
    else:
        split, den = _coproduct_terms(alg, alpha, k)
        rank, merged = alg.dual_rank.__getitem__, {}
        for key, c in split.items():
            key = tuple(sorted(key, key=rank))
            merged[key] = merged.get(key, 0) + c
        den *= math.factorial(k)
        fields = (space.dual_fields if space is alg.space
                  else [space.field(alg.dual_basis(d)) for d in range(alg.dim)])
        terms = [(space.product(tuple(fields[d] for d in key), n), Fraction(c, den))
                 for key, c in merged.items() if c]

    def grade_block(d: int) -> tuple[list, int]:
        acc = _BlockSum(len(space.grade(d)[0]))
        for product, s in terms:
            acc.add(product.block(d), s)
        return acc.block()

    return FockOperator(space, weight, f"W{k}_{n}", grade_block, lowers=n)


def L_operator(alg: FrobeniusAlgebra, n: int, alpha, weight: int,
               space: ColorSpace | None = None) -> FockOperator:
    return W_operator(alg, 2, n, alpha, weight, space)


def join_boundary(space: ColorSpace) -> FockOperator:
    """-(1/2) sum_{n,m>0} n m a_{n+m} d/da_n d/da_m on a space of one even
    color: its block adds, for each pair i < j of parts of a monomial,
    -n_i n_j at the monomial with the two parts joined, over denominator 1."""
    if len(space.labels) != 1 or space.parities[0]:
        raise ModelMismatch("the join boundary operator needs a single even color")

    def grade_block(d: int) -> tuple[list, int]:
        index, out = space.grade(d)[1], []
        for mono in space.grade(d)[0]:
            col = {}
            for i in range(len(mono)):
                for j in range(i + 1, len(mono)):
                    (m, _), (n, _) = mono[i], mono[j]
                    rest = mono[:i] + mono[i + 1:j] + mono[j + 1:]
                    r = index[tuple(sorted(rest + ((m + n, 0),)))]
                    col[r] = col.get(r, 0) - m * n
            out.append(col)
        return out, 1

    return FockOperator(space, None, "boundary-join", grade_block, lowers=0)


def boundary_operator(alg: FrobeniusAlgebra, kind: str, weight: int | None = None,
                      space: ColorSpace | None = None) -> FockOperator:
    """'projective-with-trivial-K': -W^3_0(1) = W^3_0(-1), valid up to `weight`
    (any weight when it is None); 'affine-plane': the join form."""
    space = space or ColorSpace.of_algebra(alg)
    if kind == "projective-with-trivial-K":
        if not alg.nondegenerate:
            raise ModelMismatch("projective boundary needs a nondegenerate trace")
        if alg.canonical is not None and any(c != 0 for c in alg.canonical):
            raise ModelMismatch("projective boundary requires trivial canonical class")
        return W_operator(alg, 3, 0, alg.scale(alg.unit, -1), weight, space)
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
    """All canonical monomials of the given weight (odd colors multiplicity 1),
    each built sorted, in the lexicographic order of their multiplicities of
    the generators in sorted order: the row order of every block."""
    colors = len(space.labels)
    gens = [(n, c) for n in range(1, weight + 1) for c in range(colors)]
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        # the generators from idx on of size at most `remaining`, last first
        for j in range(remaining * colors - 1, idx - 1, -1):
            gen = gens[j]
            n, c = gen
            for rep in range(1, 2 if space.parities[c] else remaining // n + 1):
                rec(j + 1, remaining - n * rep, acc + (gen,) * rep)

    rec(0, weight, ())
    return out


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


def _bracket_holds(space: ColorSpace, a: FockOperator, n: int, b: FockOperator, m: int,
                   sign: int, expected: list, d: int) -> bool:
    """Whether a b + sign * b a equals the sum of s * x over the (s, x) pairs
    of `expected` (x None: the identity) on weight d, exactly; a lowers the
    weight by n and b by m."""
    acc = _BlockSum(len(space.grade(d)[0]))
    acc.add_product(a.block(d - m), b.block(d))
    acc.add_product(b.block(d - n), a.block(d), sign)
    for s, x in expected:
        if s == 0:
            continue
        if x is None:
            acc.add_identity(-s)
        else:
            acc.add(x.block(d), -s)
    return acc.is_zero()


def heisenberg_check(alg: FrobeniusAlgebra, modes: int, weight: int):
    """[q_n(a), q_m(b)] = n d_{n+m} trace(ab) Id on the weight truncation; the
    bracket is the supercommutator (an anticommutator for two odd elements)."""
    from .report import VerificationReport

    space = ColorSpace.of_algebra(alg)
    report = VerificationReport(f"fock-heisenberg({alg.name}, modes<={modes})")
    # the fields of the basis, and trace(b_i b_j), the algebra's pairing
    fields = [space.field(alg.basis(i)) for i in range(alg.dim)]
    for n in range(-modes, modes + 1):
        for m in range(-modes, modes + 1):
            for i, fa in enumerate(fields):
                for j, fb in enumerate(fields):
                    sign = 1 if fa.parity and fb.parity else -1  # supercommutator
                    scal = alg.pairing[i][j] * n if n + m == 0 else 0
                    ok = all(_bracket_holds(space, fa.mode(n), n, fb.mode(m), m, sign,
                                            [(scal, None)], d)
                             for d in range(max(weight - max(abs(n), abs(m)), 0) + 1))
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

    def L(n, elem):
        key = (n, tuple(elem))
        if key not in ops:
            ops[key] = W_operator(alg, 2, n, elem, cap, space)
        return ops[key]

    basis = [alg.basis(i) for i in range(alg.dim)]
    # the modes of the basis first: a model without W^2 is refused here,
    # before its Euler element is read
    ls = {n: [L(n, a) for a in basis] for n in range(-modes, modes + 1)}
    products = [[alg.mul(a, b) for b in basis] for a in basis]
    euler_traces = [[alg.trace(alg.mul(alg.euler, ab)) for ab in row] for row in products]
    for n in range(-modes, modes + 1):
        for m in range(-modes, modes + 1):
            for i in range(alg.dim):
                for j in range(alg.dim):
                    ln, lm = ls[n][i], ls[m][j]
                    lnm = L(n + m, products[i][j])
                    central = (Fraction(n ** 3 - n, 12) * euler_traces[i][j]
                               if n + m == 0 else Fraction(0))
                    ok = all(_bracket_holds(space, ln, n, lm, m, -1,
                                            [(n - m, lnm), (central, None)], d)
                             for d in range(weight + 1))
                    report.add(
                        f"[L_{n}({alg.labels[i]}), L_{m}({alg.labels[j]})]",
                        "bracket", f"({n - m})L_{n + m} + {central}*Id", ok)
    return report
