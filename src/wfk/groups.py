"""Finite groups as multiplication tables: conjugacy data, exact character
tables over cyclotomic fields, class-function arithmetic and convolution.

Built-in constructors cover the finite subgroups of SL2(C) (cyclic, binary
dihedral, binary tetrahedral/octahedral/icosahedral), symmetric groups and
direct products.
"""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction
from math import factorial, gcd, isqrt

import numpy as np

from .budget import BudgetExceeded, budget, check_budget
from .exact import CycNum, cyc, dot

_BLOCK_ENTRIES = 1 << 20  # table entries read per numpy step of a block loop


class ClosureBoundExceeded(RuntimeError):
    """Generated matrix group did not close within the configured bound."""


class NonInvertibleMatrix(ValueError):
    """A generator matrix is not invertible (or not determinant 1)."""


class GroupMismatch(ValueError):
    """Operands live on different groups."""


class DiagonalizationFailure(RuntimeError):
    """The character-table engine could not complete; signals a bug."""


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------

def _generate(mult: np.ndarray, targets: np.ndarray, identity: int):
    """Generators, chosen greedily, of the subgroup that the elements marked
    in the bool mask `targets` generate, and the mask of that subgroup: the
    smallest target not yet reached joins, and {identity} is closed again
    under right multiplication by the elements chosen so far."""
    reached = np.zeros(len(mult), dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while (missing := targets & ~reached).any():
        gens.append(int(missing.argmax()))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.zeros(len(mult), dtype=bool)
            step[mult[frontier[:, None], gens]] = True
            frontier = np.flatnonzero(step & ~reached)
            reached[frontier] = True
    return gens, reached


class FiniteGroup:
    """Multiplication-table group with elements 0..order-1.

    `mult[a, b]` is the index of a*b.  `mult` is the one stored table: a
    read-only `np.int32` array of shape (order, order).  An int32 array passed
    in is adopted, not copied, and made read-only; anything else is copied
    into a new array.  Instances are immutable after construction; conjugacy
    data, character table and convolution structure constants are cached
    lazily.

    With `validate` (the default) the identity, inverse and associativity
    laws are checked exactly at every order, and so is a matrix model:
    determinant one and `mats[a] mats[b] == mats[a*b]`.  The product checks
    read the rows of `generators` only (Light's test, see `_validate`).
    """

    def __init__(self, mult, identity=None, inverse=None, labels=None,
                 matrix_model=None, name="group", validate=True,
                 perm_actions=None, product_factors=None):
        try:
            table = np.asarray(mult, dtype=np.int32)
        except ValueError:
            raise ValueError("multiplication table is not square") from None
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table is not square")
        table.flags.writeable = False
        self.mult = table
        self.order = len(table)
        self.name = name
        self.element_labels = list(labels) if labels is not None else None
        self.matrix_model = matrix_model
        self.perm_actions = perm_actions or []
        self.product_factors = product_factors
        self.identity = self._find_identity() if identity is None else identity
        self.inverse = list(inverse) if inverse is not None else self._find_inverses()
        self._conjugacy = None
        self._chartable = None
        self._structure = None
        if validate:
            self._validate()

    # -- plumbing ------------------------------------------------------------

    @functools.cached_property
    def generators(self) -> list[int]:
        """A generating set, chosen greedily by `_generate`."""
        return _generate(self.mult, np.ones(self.order, dtype=bool), self.identity)[0]

    def _find_identity(self) -> int:
        candidates = np.flatnonzero(self.mult[:, 0] == 0)
        left_units = (self.mult[candidates] == np.arange(self.order)).all(axis=1)
        if not left_units.any():
            raise ValueError("multiplication table has no identity")
        return int(candidates[left_units.argmax()])

    def _find_inverses(self) -> list[int]:
        """The column of the identity in each row, read a block of rows at a
        time so that no order x order temporary is made."""
        step = max(1, _BLOCK_ENTRIES // self.order)
        inv: list[int] = []
        for lo in range(0, self.order, step):
            hits = self.mult[lo:lo + step] == self.identity
            cols = hits.argmax(axis=1)
            missing = ~hits[np.arange(len(cols)), cols]
            if missing.any():
                raise ValueError(f"element {lo + int(missing.argmax())} has no inverse")
            inv += cols.tolist()
        return inv

    def _validate(self) -> None:
        """The identity, inverse and associativity laws, in full.

        Associativity is Light's test (Clifford-Preston, The Algebraic
        Theory of Semigroups I, 1.2): the elements a with
        (a b) c == a (b c) for every b, c are closed under the product and
        hold the identity, so the law holds on the whole table once it holds
        on the rows of a generating set.  It reads a block of b rows at a
        time, as `_find_inverses` does, for every generator in turn."""
        n = self.order
        e = self.identity
        m = self.mult
        arange = np.arange(n)
        if not (np.array_equal(m[e], arange) and np.array_equal(m[:, e], arange)):
            raise ValueError("identity law fails")
        if (m[arange, self.inverse] != e).any():
            raise ValueError("inverse law fails")
        step = max(1, _BLOCK_ENTRIES // n)
        for lo in range(0, n, step):
            bc = m[lo:lo + step].astype(np.intp)  # cast once, not per generator
            for a in self.generators:
                # (a b) c against a (b c) for b in the block and every c
                if not np.array_equal(m[m[a, lo:lo + step]], m[a][bc]):
                    raise ValueError(f"associativity fails at element {a}")
        if self.matrix_model is not None:
            self._validate_matrix_model()

    def _validate_matrix_model(self) -> None:
        """Determinant one for every matrix, and mats[a] mats[b] == mats[a*b]
        for every generator a (the identity for the trivial group) and every
        b.  On an associative table the elements a that pass are closed under
        the product, as in Light's test, and every element is a product of
        generators, so the check is exact."""
        mats = self.matrix_model
        if len(mats) != self.order:
            raise ValueError("matrix model size mismatch")
        one = CycNum.from_rational(1)
        for mat in mats:
            if _det(mat) != one:
                raise NonInvertibleMatrix("matrix model entry with determinant != 1")
        for a in self.generators or [self.identity]:
            for b in range(self.order):
                if _mat_mul(mats[a], mats[b]) != [list(r) for r in mats[self.mult[a, b]]]:
                    raise ValueError("matrix model does not match the multiplication table")

    # -- group basics --------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mult[x, a]
            k += 1
        return k

    def exponent(self) -> int:
        out = 1
        for rep in self.conjugacy().class_reps:
            o = self.element_order(rep)
            out = out * o // gcd(out, o)
        return out

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mult, self.mult.T))

    def conjugacy(self) -> "ConjugacyData":
        if self._conjugacy is None:
            self._conjugacy = conjugacy_classes(self)
        return self._conjugacy

    def character_table(self) -> "CharacterTable":
        if self._chartable is None:
            self._chartable = character_table(self)
        return self._chartable

    def to_json(self) -> dict:
        data = {"order": self.order, "mult": self.mult.tolist()}
        if self.element_labels is not None:
            data["labels"] = self.element_labels
        if self.matrix_model is not None:
            data["matrices"] = [[[x.to_json() for x in row] for row in mat]
                                for mat in self.matrix_model]
        return data

    @staticmethod
    def from_json(data: dict) -> "FiniteGroup":
        mats = None
        if "matrices" in data and data["matrices"] is not None:
            mats = [[[CycNum.from_json(x) for x in row] for row in mat]
                    for mat in data["matrices"]]
        return FiniteGroup(data["mult"], labels=data.get("labels"), matrix_model=mats)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class ConjugacyData:
    """Conjugacy classes, centralizer orders and the inverse-class involution."""

    def __init__(self, class_of, class_reps, class_sizes, centralizer_orders,
                 inverse_class):
        self.class_of = class_of
        self.class_reps = class_reps
        self.class_sizes = class_sizes
        self.centralizer_orders = centralizer_orders
        self.inverse_class = inverse_class

    def __len__(self):
        return len(self.class_reps)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyData:
    """Classes by conjugation orbits; centralizer orders from the class equation."""
    n = G.order
    m = G.mult
    inv = np.array(G.inverse, dtype=np.int32)
    class_of = [-1] * n
    reps, sizes = [], []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        gx = m[:, x]               # g*x for all g
        in_orbit = np.zeros(n, dtype=bool)
        in_orbit[m[gx, inv]] = True  # (g*x)*g^-1
        members = np.flatnonzero(in_orbit)
        cls = len(reps)
        for y in members.tolist():
            class_of[y] = cls
        reps.append(x)
        sizes.append(int(members.size))
    if sum(sizes) != n:
        raise ValueError("conjugation orbits do not partition the group")
    cents = [n // s for s in sizes]
    inverse_class = [class_of[G.inverse[r]] for r in reps]
    return ConjugacyData(class_of, reps, sizes, cents, inverse_class)


def power_class(G: FiniteGroup, c: int, k: int) -> int:
    """Class of g^k for g in class c."""
    cd = G.conjugacy()
    g = cd.class_reps[c]
    k %= G.element_order(g)
    x = G.identity
    for _ in range(k):
        x = G.mult[x, g]
    return cd.class_of[x]


# ---------------------------------------------------------------------------
# class functions
# ---------------------------------------------------------------------------

class ClassFunction:
    """Exact class function: one CycNum per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        vals = [cyc(v) for v in values]
        if len(vals) != len(group.conjugacy()):
            raise ValueError("one value per conjugacy class required")
        self.values = tuple(vals)

    def _check(self, other: "ClassFunction") -> None:
        if self.group is not other.group:
            raise GroupMismatch("class functions on different groups")

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return ClassFunction(self.group, [-a for a in self.values])

    def scale(self, s):
        return ClassFunction(self.group, [a * s for a in self.values])

    def pointwise(self, other: "ClassFunction") -> "ClassFunction":
        """Tensor-product character: multiply values classwise."""
        self._check(other)
        return ClassFunction(self.group, [a * b for a, b in zip(self.values, other.values)])

    def adams(self, k: int) -> "ClassFunction":
        """Adams operation: value at c becomes the value at the class of g^k."""
        G = self.group
        return ClassFunction(G, [self.values[power_class(G, c, k)]
                                 for c in range(len(self.values))])

    def at_identity(self):
        return self.values[self.group.conjugacy().class_of[self.group.identity]]

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __repr__(self):
        return f"ClassFunction({[str(v) for v in self.values]})"


def inner_product(f: ClassFunction, g: ClassFunction) -> CycNum:
    """<f,g> = (1/|G|) sum_x f(x) g(x^-1), evaluated classwise as one `dot`."""
    f._check(g)
    G = f.group
    cd = G.conjugacy()
    g_inv = [g.values[c] for c in cd.inverse_class]
    return dot(f.values, g_inv, cd.class_sizes, G.order)


def _structure_constants(G: FiniteGroup):
    """N[F][(D,E)] = #{(d,e) in D x E : d e = rep_F}, cached on the group."""
    check_budget(G.order, f"structure constants of {G.name}")
    if G._structure is not None:
        return G._structure
    cd = G.conjugacy()
    r = len(cd)
    class_of = np.array(cd.class_of)
    inv = np.array(G.inverse)
    table = []
    for z in cd.class_reps:
        # x runs over G: d = class of x, e = class of x^-1 z
        counts = np.bincount(class_of * r + class_of[G.mult[inv, z]], minlength=r * r)
        nonzero = np.flatnonzero(counts)
        table.append({divmod(k, r): c for k, c in
                      zip(nonzero.tolist(), counts[nonzero].tolist())})
    G._structure = table
    return table


def convolution(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """(f*g)(x) = sum_y f(x y^-1) g(y), via class-sum structure constants."""
    f._check(g)
    G = f.group
    table = _structure_constants(G)
    r = len(G.conjugacy())
    out = []
    for f_idx in range(r):
        acc = cyc(0)
        for (d, e), count in table[f_idx].items():
            fv = f.values[d]
            gv = g.values[e]
            if fv == 0 or gv == 0:
                continue
            acc = acc + fv * gv * count
        out.append(acc)
    return ClassFunction(G, out)


def class_indicator(G: FiniteGroup, c: int) -> ClassFunction:
    """The function equal to 1 on class c and 0 elsewhere (class sum, as a function)."""
    r = len(G.conjugacy())
    return ClassFunction(G, [1 if i == c else 0 for i in range(r)])


def regular_character(G: FiniteGroup) -> ClassFunction:
    cd = G.conjugacy()
    e_cls = cd.class_of[G.identity]
    return ClassFunction(G, [G.order if c == e_cls else 0 for c in range(len(cd))])


def trivial_character(G: FiniteGroup) -> ClassFunction:
    return ClassFunction(G, [1] * len(G.conjugacy()))


def defining_character(G: FiniteGroup) -> ClassFunction:
    """Trace of the 2x2 matrix model."""
    if G.matrix_model is None:
        raise ValueError("group has no matrix model")
    cd = G.conjugacy()
    return ClassFunction(G, [G.matrix_model[rep][0][0] + G.matrix_model[rep][1][1]
                             for rep in cd.class_reps])


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------

class CharacterTable:
    """Irreducible characters (rows) over Q(zeta_e), e the group exponent."""

    def __init__(self, group: FiniteGroup, rows: list[ClassFunction]):
        self.group = group
        self.irreducibles = rows
        self.degrees = [int(r.at_identity().as_rational()) for r in rows]

    def __len__(self):
        return len(self.irreducibles)

    def to_json(self) -> dict:
        return {
            "degrees": self.degrees,
            "table": [[v.to_json() for v in row.values] for row in self.irreducibles],
        }


def _canonical_key(values, exponent: int):
    """Each value at conductor `exponent` as (numerator, denominator) pairs in
    lowest terms, the pairs `CycNum.coeffs` would give, without building
    Fractions."""
    out = []
    for v in values:
        emb = v.embed(exponent)
        den = emb.den
        pairs = []
        for x in emb.nums:
            g = gcd(x, den)
            pairs.append((x // g, den // g))
        out.append(tuple(pairs))
    return tuple(out)


def _as_int(x: CycNum) -> int:
    r = x.as_rational()
    if r.denominator != 1:
        raise DiagonalizationFailure(f"expected integer, got {r}")
    return r.numerator


def character_table(G: FiniteGroup) -> CharacterTable:
    """Exact character table, rows sorted by (degree, canonical key).

    Direct products built by `direct_product` tensor the factor tables.  The
    irreducibles of an abelian group are its linear characters, built on
    integer exponents of zeta_e (`_linear_characters`).  Nonabelian groups are
    handled by exact tensor decomposition: a pool of known characters
    (trivial, conjugation, permutation actions, matrix-model trace, linear
    characters of G/[G,G]) is closed under products, Adams operations and
    Sym^2/Lambda^2 while norm-1 remainders are split off.  Every table passes
    the degree-sum and orthonormality check before it is returned.
    """
    if G.product_factors is not None:
        rows = _product_table(G)
    elif G.is_abelian():
        rows = _linear_characters(G)
    else:
        rows = _peel_table(G)
    e = G.exponent()
    rows.sort(key=lambda cf: (int(cf.at_identity().as_rational()),
                              _canonical_key(cf.values, e)))
    table = CharacterTable(G, rows)
    _check_table(G, table)
    return table


def _check_table(G: FiniteGroup, table: CharacterTable) -> None:
    r = len(G.conjugacy())
    if len(table) != r:
        raise DiagonalizationFailure(f"found {len(table)} of {r} irreducibles")
    if sum(d * d for d in table.degrees) != G.order:
        raise DiagonalizationFailure("degree squares do not sum to |G|")
    for i, a in enumerate(table.irreducibles):
        for j in range(i, r):
            expected = 1 if i == j else 0
            if inner_product(a, table.irreducibles[j]) != expected:
                raise DiagonalizationFailure(f"rows {i},{j} not orthonormal")


def _conjugation_character(G: FiniteGroup) -> ClassFunction:
    cd = G.conjugacy()
    return ClassFunction(G, list(cd.centralizer_orders))


def _perm_character(G: FiniteGroup, action) -> ClassFunction:
    cd = G.conjugacy()
    vals = []
    for rep in cd.class_reps:
        row = action[rep]
        vals.append(sum(1 for p, q in enumerate(row) if p == q))
    return ClassFunction(G, vals)


def _commutator_subgroup(G: FiniteGroup) -> list[int]:
    """[G,G] in ascending order: the subgroup generated by the commutators
    (a b)(a^-1 b^-1), which are collected one row a at a time."""
    m = G.mult
    inv = np.array(G.inverse)
    comms = np.zeros(G.order, dtype=bool)
    for a in range(G.order):
        comms[m[m[a], m[inv[a], inv]]] = True
    return np.flatnonzero(_generate(m, comms, G.identity)[1]).tolist()


def _linear_characters(G: FiniteGroup) -> list[ClassFunction]:
    """Every homomorphism G -> mu_e, e the exponent: the characters of G/[G,G].

    A character is kept as integer exponents, chi(x) = zeta_e^a[x], and built
    along a chain of subgroups from N = [G,G] up to G.  To adjoin g to H, let
    k >= 1 be least with g^k in H; each character of H then extends in k ways,
    by a[g^j h] = j w + a[h] with k w = a[g^k] (mod e).  The values are
    returned at conductor e // d, d the gcd of e and every exponent, which is
    the exponent of G/N.
    """
    e = G.exponent()
    m = G.mult
    members = [G.identity] if G.is_abelian() else _commutator_subgroup(G)
    pos = {x: i for i, x in enumerate(members)}
    chars = [[0] * len(members)]
    for g in range(G.order):
        if g in pos:
            continue
        powers, x = [G.identity], g
        while x not in pos:
            powers.append(x)
            x = int(m[x, g])
        k, at_gk, step = len(powers), pos[x], e // len(powers)
        extended = []
        for chi in chars:
            c = chi[at_gk]
            if c % k:
                raise DiagonalizationFailure(f"character does not extend to element {g}")
            for w in range(c // k, e, step):
                extended.append([(j * w + a) % e for j in range(k) for a in chi])
        chars = extended
        members = m[np.ix_(powers, members)].ravel().tolist()
        pos = {x: i for i, x in enumerate(members)}
    d = gcd(e, *(a for chi in chars for a in chi))
    roots = [CycNum.zeta(e // d, a) for a in range(e // d)]
    at_reps = [pos[rep] for rep in G.conjugacy().class_reps]
    return [ClassFunction(G, [roots[chi[i] // d] for i in at_reps]) for chi in chars]


def _peel_table(G: FiniteGroup) -> list[ClassFunction]:
    cd = G.conjugacy()
    r = len(cd)
    e = G.exponent()
    e_cls = cd.class_of[G.identity]

    irr: list[ClassFunction] = []
    seen: set = set()
    stash: list[ClassFunction] = []
    queue: deque[ClassFunction] = deque()

    def enqueue(cf: ClassFunction) -> None:
        key = _canonical_key(cf.values, e)
        if key not in seen:
            seen.add(key)
            queue.append(cf)

    def peel(cf: ClassFunction) -> ClassFunction:
        rem = cf
        for g in irr:
            m = inner_product(rem, g)
            mi = _as_int(m)
            if mi:
                rem = ClassFunction(G, [a - b * mi for a, b in zip(rem.values, g.values)])
        return rem

    def add_irreducible(cf: ClassFunction) -> None:
        d = _as_int(cf.at_identity())
        if d < 0:
            cf = -cf
        irr.append(cf)
        # previously stalled remainders may now split further
        while stash:
            enqueue(stash.pop())

    # seeds
    enqueue(trivial_character(G))
    enqueue(_conjugation_character(G))
    for action in G.perm_actions:
        enqueue(_perm_character(G, action))
    if G.matrix_model is not None:
        enqueue(defining_character(G))
    for lin in _linear_characters(G):
        enqueue(lin)
    enqueue(regular_character(G))

    rounds = 0
    while sum(d * d for d in (int(x.at_identity().as_rational()) for x in irr)) < G.order:
        while queue:
            cf = queue.popleft()
            rem = peel(cf)
            if all(v == 0 for v in rem.values):
                continue
            norm = _as_int(inner_product(rem, rem))
            if norm == 1:
                add_irreducible(rem)
            else:
                stash.append(rem)
        done = sum(d * d for d in (int(x.at_identity().as_rational()) for x in irr))
        if done == G.order:
            break
        if len(irr) == r - 1:
            # the last irreducible is linearly determined by the regular character
            t = peel(regular_character(G))
            d2 = G.order - done
            d = isqrt(d2)
            if d * d != d2:
                raise DiagonalizationFailure("missing degree is not a perfect square")
            add_irreducible(ClassFunction(G, [v / d for v in t.values]))
            continue
        rounds += 1
        if rounds > 12:
            raise DiagonalizationFailure(f"peeling stalled with {len(irr)} of {r}")
        # generation round: close the pool under products and Adams operations
        for a in list(irr):
            for b in list(irr):
                enqueue(a.pointwise(b))
            for s in list(stash):
                enqueue(a.pointwise(s))
        for a in list(irr) + list(stash):
            for k in range(2, min(e, 12)):
                enqueue(a.adams(k))
            sym = ClassFunction(G, [(a.values[c] * a.values[c] +
                                     a.values[power_class(G, c, 2)]) * Fraction(1, 2)
                                    for c in range(r)])
            alt = ClassFunction(G, [(a.values[c] * a.values[c] -
                                     a.values[power_class(G, c, 2)]) * Fraction(1, 2)
                                    for c in range(r)])
            enqueue(sym)
            enqueue(alt)
        while stash:
            enqueue(stash.pop())
    if len(irr) != r:
        raise DiagonalizationFailure(f"found {len(irr)} of {r} irreducibles")
    return irr


def _product_table(G: FiniteGroup) -> list[ClassFunction]:
    """Irreducibles of a direct product: the tensors of the factor tables' rows."""
    A, B = G.product_factors
    ta, tb = A.character_table(), B.character_table()
    cd = G.conjugacy()
    cda, cdb = A.conjugacy(), B.conjugacy()
    nb = B.order
    rows = []
    for fa in ta.irreducibles:
        for fb in tb.irreducibles:
            vals = []
            for rep in cd.class_reps:
                a, b = divmod(rep, nb)
                vals.append(fa.values[cda.class_of[a]] * fb.values[cdb.class_of[b]])
            rows.append(ClassFunction(G, vals))
    return rows


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    """The product of two 2x2 CycNum matrices, each entry one `dot`."""
    cols = ((b[0][0], b[1][0]), (b[0][1], b[1][1]))
    return [[dot(row, col, (1, 1)) for col in cols] for row in a]


def _det(m) -> CycNum:
    """The determinant of a 2x2 CycNum matrix, one `dot`."""
    return dot((m[0][0], m[0][1]), (m[1][1], m[1][0]), (1, -1))


def _mat_key(m):
    return tuple(x.key() for row in m for x in row)


def build_from_generators(gens, bound: int = 1000, name: str = "matrix-group") -> FiniteGroup:
    """Breadth-first closure of 2x2 determinant-1 cyclotomic matrices."""
    one = cyc(1)
    lcm_cond = 1
    for g in gens:
        for row in g:
            for x in row:
                c = cyc(x).conductor
                lcm_cond = lcm_cond * c // gcd(lcm_cond, c)
    embed = lambda m: [[cyc(x).embed(lcm_cond) for x in row] for row in m]
    idm = embed([[1, 0], [0, 1]])
    gens = [embed(g) for g in gens]
    for g in gens:
        d = _det(g)
        if d.is_zero():
            raise NonInvertibleMatrix("generator has determinant 0")
        if d != one:
            raise NonInvertibleMatrix("generator determinant is not 1")
    elements = [idm]
    index = {_mat_key(idm): 0}
    parent: list[tuple[int, int]] = [(-1, -1)]  # (parent index, generator index)
    # right[gi][i]: index of elements[i] * gens[gi], a permutation of the indices
    right: list[list[int]] = [[] for _ in gens]
    frontier = deque([0])
    while frontier:
        i = frontier.popleft()
        for gi, g in enumerate(gens):
            prod = _mat_mul(elements[i], g)
            key = _mat_key(prod)
            if key not in index:
                if len(elements) >= bound:
                    raise ClosureBoundExceeded(f"closure exceeded {bound} elements")
                index[key] = len(elements)
                elements.append(prod)
                parent.append((i, gi))
                frontier.append(index[key])
            right[gi].append(index[key])
    n = len(elements)
    right = np.array(right, dtype=np.int32)
    # every element is parent * generator, so columns of the table fill in BFS order:
    # (a * parent_j) * gen = table column of j
    mult = np.empty((n, n), dtype=np.int32)
    mult[:, 0] = np.arange(n)
    for j in range(1, n):
        p, gi = parent[j]
        mult[:, j] = right[gi, mult[:, p]]
    return FiniteGroup(mult, identity=0, matrix_model=elements, name=name)


@functools.cache
def trivial_group() -> FiniteGroup:
    one = cyc(1)
    zero = cyc(0)
    return FiniteGroup([[0]], identity=0,
                       matrix_model=[[[one, zero], [zero, one]]], name="trivial")


@functools.cache
def cyclic_group(k: int) -> FiniteGroup:
    """Z/k as diag(zeta_k, zeta_k^-1) in SL2."""
    if k == 1:
        return trivial_group()
    return build_from_generators(
        [[[CycNum.zeta(k), cyc(0)], [cyc(0), CycNum.zeta(k, k - 1)]]],
        bound=k + 1, name=f"cyclic-{k}")


@functools.cache
def binary_dihedral(m: int) -> FiniteGroup:
    """Binary dihedral (dicyclic) group of order 4m."""
    a = [[CycNum.zeta(2 * m), cyc(0)], [cyc(0), CycNum.zeta(2 * m, 2 * m - 1)]]
    b = [[cyc(0), cyc(1)], [cyc(-1), cyc(0)]]
    return build_from_generators([a, b], bound=4 * m + 1, name=f"binary-dihedral-{m}")


@functools.cache
def binary_tetrahedral() -> FiniteGroup:
    i = CycNum.zeta(4)
    half = Fraction(1, 2)
    qi = [[i, cyc(0)], [cyc(0), -i]]
    omega = [[(i - 1) * half, (i + 1) * half], [(i - 1) * half, (-i - 1) * half]]
    return build_from_generators([qi, omega], bound=25, name="binary-tetrahedral")


@functools.cache
def binary_octahedral() -> FiniteGroup:
    i = CycNum.zeta(4).embed(8)
    half = Fraction(1, 2)
    qi = [[i, cyc(0)], [cyc(0), -i]]
    omega = [[(i - 1) * half, (i + 1) * half], [(i - 1) * half, (-i - 1) * half]]
    tau = [[CycNum.zeta(8), cyc(0)], [cyc(0), CycNum.zeta(8, 7)]]
    return build_from_generators([qi, omega, tau], bound=49, name="binary-octahedral")


@functools.cache
def binary_icosahedral() -> FiniteGroup:
    eps = [CycNum.zeta(5, j) for j in range(5)]
    root5 = eps[1] - eps[2] - eps[3] + eps[4]  # sqrt(5)
    s = [[eps[3], cyc(0)], [cyc(0), eps[2]]]
    t = [[(eps[4] - eps[1]) / root5, (eps[2] - eps[3]) / root5],
         [(eps[2] - eps[3]) / root5, (eps[1] - eps[4]) / root5]]
    return build_from_generators([s, t], bound=121, name="binary-icosahedral")


@functools.cache
def symmetric_group(n: int) -> FiniteGroup:
    """S_n on 0..n-1 with the natural permutation action attached: Gamma_n of
    the trivial group, whose table and action `wreath.wreath_table` fills
    (permutations in lexicographic order, (st)[i] = s[t[i]])."""
    from .wreath import wreath_table  # here, since wreath imports groups
    mult, natural = wreath_table(trivial_group(), n, f"symmetric_group({n})")
    action = natural.tolist()
    return FiniteGroup(mult, labels=[str(tuple(p)) for p in action],
                       perm_actions=[action], name=f"S{n}")


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    na, nb = A.order, B.order
    # (a1, b1) * (a2, b2) = (a1 a2, b1 b2), element (a, b) at index a * nb + b
    mult = (A.mult[:, None, :, None] * nb + B.mult[None, :, None, :]).reshape(na * nb, na * nb)
    return FiniteGroup(mult, name=f"{A.name}x{B.name}", product_factors=(A, B))


# name -> (constructor, least parameter k or None for a family without one,
#          group order as a function of the constructor's arguments)
_BUILTIN = {
    "trivial": (trivial_group, None, lambda: 1),
    "cyclic": (cyclic_group, 1, lambda k: k),
    "binary-dihedral": (binary_dihedral, 1, lambda m: 4 * m),
    "binary-tetrahedral": (binary_tetrahedral, None, lambda: 24),
    "binary-octahedral": (binary_octahedral, None, lambda: 48),
    "binary-icosahedral": (binary_icosahedral, None, lambda: 120),
    "symmetric": (symmetric_group, 0, factorial),
}


def builtin_group(spec: str) -> FiniteGroup:
    """Parse 'builtin:cyclic:3', 'cyclic:3', 'binary-icosahedral', ...: a family
    name, followed by ':k' exactly when the family takes a parameter.  The
    group order is checked against the budget before the group is built or
    taken from the cache.  Past 20!, k! is compared with the budget one factor
    at a time, not computed, and a refusal names it as k!.  A k of more than
    20 digits, and more digits than the budget, is refused by its digit count
    before it is converted: every family has at least k elements."""
    name, *params = spec.removeprefix("builtin:").split(":")
    if name not in _BUILTIN:
        raise ValueError(f"unknown builtin group {spec!r}")
    ctor, least, order = _BUILTIN[name]
    k = params[0] if least is not None and len(params) == 1 else ""
    digits = k.lstrip("0")
    if k.isdecimal() and len(digits) > _PARAMETER_SHOWN:
        cap = budget()
        if len(digits) > len(str(cap)):
            raise BudgetExceeded(
                f"group {name}: a parameter of {len(digits)} digits exceeds budget {cap}")
    if least is None and not params:
        args = ()
    elif k.isdecimal() and int(digits or "0") >= least:
        args = (int(digits or "0"),)
    else:
        wants = "no parameter" if least is None else f"one integer parameter >= {least}"
        raise ValueError(f"builtin group {name!r} takes {wants}: {spec!r}")
    cap = budget()
    if name == "symmetric" and args[0] > _FACTORIAL_SHOWN and _factorial_exceeds(args[0], cap):
        raise BudgetExceeded(f"group {spec}: {args[0]}! elements exceeds budget {cap}")
    check_budget(order(*args), f"group {spec}")
    return ctor(*args)


_FACTORIAL_SHOWN = 20  # the largest k whose k! a budget refusal writes out (19 digits)
_PARAMETER_SHOWN = 20  # the most digits of a parameter that a budget refusal writes out


def _factorial_exceeds(k: int, cap: int) -> bool:
    """Whether k! > cap, multiplying only until the product passes cap."""
    product = 1
    for j in range(2, k + 1):
        product *= j
        if product > cap:
            return True
    return False
