"""Wreath products G_n = Gamma^n x| S_n: types, classes, class functions,
Frobenius induction/restriction and the Heisenberg operators p_k(gamma).

An element is a pair (g, s): g holds n Gamma-indices and s is a permutation
of range(n) (s[i] is the image of i).  Conjugacy classes are indexed by
partition-valued functions on the conjugacy classes of Gamma ("types").
Class-function operators evaluate Frobenius sums class-by-class with exact
centralizer weights; literal element loops are kept as oracles.

`WreathLevel` owns the one encoding of the elements of Gamma_n: element i is
the (i // |Gamma|^n)-th permutation in lexicographic order with g the
base-|Gamma| digits of i % |Gamma|^n.  Every element loop reads its elements
from the level as a `WreathBatch`, B elements as two (B, n) int arrays: the
orbifold count in `series` the whole level a chunk at a time against one
element per type, the class tables a class (`WreathLevel.class_counts`
over `class_elements`), and the induction oracle and the Koszul-Thom
check one element per type (`WreathLevel.representatives`).  The explicit
table `wreath_table` reads the whole level at once.  It is the one fill of a
permutation table, under the budget and the explicit-table ceiling, and it
has two readers: `build_wreath`, which no CLI path calls and the tests keep
as the gate of the orbifold count, and `groups.symmetric_group`, since S_n
is Gamma_n of the trivial group.  `batch_mult` and
`batch_inverse` act on all rows at once, and `WreathLevel.label` gives each
row the index of its type.

`WreathElement` with `wreath_mult`, `wreath_inverse` and `type_of` is the
row-by-row tuple oracle the tests check the batches against; no element loop
calls it, and it stays here because `perfbench/tracer.py` counts the calls of
`wreath_mult` and `type_of`.  The tuple loops the batches replaced stay in
`tests/reference_*.py` as their gate.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial
from typing import Iterator, NamedTuple

import numpy as np

from .budget import BudgetExceeded, check_budget
from .exact import CycNum, cyc, dot
from .groups import _BLOCK_ENTRIES, ClassFunction, FiniteGroup, GroupMismatch, inner_product

# ---------------------------------------------------------------------------
# partitions and types
# ---------------------------------------------------------------------------


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out


def partition_multiplicities(parts: tuple[int, ...]) -> dict[int, int]:
    m: dict[int, int] = {}
    for p in parts:
        m[p] = m.get(p, 0) + 1
    return m


class TypeFunction(tuple):
    """Partition-valued function on the conjugacy classes of Gamma.

    The tuple of its (class index, partition) pairs, sorted by class; classes
    with the empty partition are omitted, so equal types compare equal.
    """

    __slots__ = ()

    def __new__(cls, pairs):
        return tuple.__new__(cls, sorted((c, tuple(sorted(p, reverse=True)))
                                         for c, p in pairs if len(p) > 0))

    def size(self) -> int:
        return sum(sum(p) for _, p in self)

    def partition(self, c: int) -> tuple[int, ...]:
        for ci, p in self:
            if ci == c:
                return p
        return ()

    @classmethod
    def _of(cls, pairs: tuple) -> "TypeFunction":
        """The type of `pairs`, taken as given: sorted by class, no empty
        partition, each partition in decreasing order."""
        return tuple.__new__(cls, pairs)

    def union(self, other: "TypeFunction") -> "TypeFunction":
        """Merge of the two sorted pair tuples; a class in both gets the
        merged partition."""
        a, b = self, other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (ca, pa), (cb, pb) = a[i], b[j]
            if ca < cb:
                out.append(a[i])
                i += 1
            elif cb < ca:
                out.append(b[j])
                j += 1
            else:
                out.append((ca, tuple(sorted(pa + pb, reverse=True))))
                i += 1
                j += 1
        return TypeFunction._of(tuple(out) + a[i:] + b[j:])

    def inverse(self, inverse_class) -> "TypeFunction":
        """Type of a^-1: relabel each class by its inverse class."""
        return TypeFunction((inverse_class[c], p) for c, p in self)

    def total_length(self) -> int:
        return sum(len(p) for _, p in self)

    def __repr__(self):
        inner = ", ".join(f"{c}:{list(p)}" for c, p in self)
        return f"Type({inner})"

    def to_json(self) -> dict:
        return {"classes": {str(c): list(p) for c, p in self}}

    @staticmethod
    def from_json(data: dict) -> "TypeFunction":
        return TypeFunction((int(c), tuple(p)) for c, p in data["classes"].items())


def enumerate_types(G: FiniteGroup, n: int) -> list[TypeFunction]:
    """All types of total size n over the classes of G, duplicate-free."""
    r = len(G.conjugacy())
    out: list[TypeFunction] = []

    def rec(c, remaining, acc):
        if c == r - 1:
            for p in partitions_of(remaining):
                out.append(TypeFunction(acc + [(c, p)]))
            return
        for k in range(remaining, -1, -1):
            for p in partitions_of(k):
                rec(c + 1, remaining - k, acc + [(c, p)])

    rec(0, n, [])
    return out


def centralizer_order(G: FiniteGroup, rho: TypeFunction) -> int:
    """Z_rho = prod_c zeta_c^{l(rho(c))} prod_r r^{m_r} m_r!  (gated in the
    test suite against literal centralizer counts in the explicit group)."""
    cd = G.conjugacy()
    z = 1
    for c, parts in rho:
        zc = cd.centralizer_orders[c]
        z *= zc ** len(parts)
        for r, m in partition_multiplicities(parts).items():
            z *= (r ** m) * factorial(m)
    return z


# ---------------------------------------------------------------------------
# wreath elements
# ---------------------------------------------------------------------------

class WreathElement(NamedTuple):
    g: tuple[int, ...]
    s: tuple[int, ...]


def perm_inverse(s: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for i, si in enumerate(s):
        inv[si] = i
    return tuple(inv)


def wreath_mult(G: FiniteGroup, a: WreathElement, b: WreathElement) -> WreathElement:
    """(g,s)(h,t) = (g . s(h), st) with s(h)_i = h_{s^-1(i)}."""
    sinv = perm_inverse(a.s)
    g = tuple(G.mult[list(a.g), [b.g[i] for i in sinv]].tolist())
    s = tuple(a.s[b.s[i]] for i in range(len(a.s)))
    return WreathElement(g, s)


def wreath_inverse(G: FiniteGroup, a: WreathElement) -> WreathElement:
    sinv = perm_inverse(a.s)
    g = tuple(G.inverse[a.g[a.s[i]]] for i in range(len(a.g)))
    return WreathElement(g, sinv)


def _cycles(s: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(s)
    cycles = []
    for start in range(len(s)):
        if seen[start]:
            continue
        cyc_ = [start]
        seen[start] = True
        j = s[start]
        while j != start:
            cyc_.append(j)
            seen[j] = True
            j = s[j]
        cycles.append(cyc_)
    return cycles


def type_of(G: FiniteGroup, n: int, a: WreathElement) -> TypeFunction:
    """Cycle decomposition plus cycle-products: the conjugacy invariant."""
    cd = G.conjugacy()
    acc: dict[int, list[int]] = {}
    for cyc_ in _cycles(a.s):
        prod = G.identity
        for i in cyc_:  # g_{i_r} ... g_{i_1} applied left to right on indices
            prod = G.mult[a.g[i], prod]
        acc.setdefault(cd.class_of[prod], []).append(len(cyc_))
    return TypeFunction(acc.items())


class WreathBatch:
    """B elements of Gamma_n: row b is the element (g[b], s[b]), both (B, n)
    int arrays; `len` is B."""

    __slots__ = ("g", "s")

    def __init__(self, g: np.ndarray, s: np.ndarray):
        self.g = g
        self.s = s

    def __len__(self) -> int:
        return len(self.g)

    @staticmethod
    def of(elements, n: int) -> "WreathBatch":
        parts = np.array([tuple(a.g) + tuple(a.s) for a in elements],
                         dtype=np.intp).reshape(len(elements), 2 * n)
        return WreathBatch(parts[:, :n], parts[:, n:])

    def elements(self) -> list[WreathElement]:
        return [WreathElement(tuple(g), tuple(s))
                for g, s in zip(self.g.tolist(), self.s.tolist())]

    def take(self, rows) -> "WreathBatch":
        """The rows picked by an index array or a boolean mask."""
        return WreathBatch(self.g[rows], self.s[rows])


def _perm_inverse_rows(s: np.ndarray) -> np.ndarray:
    inv = np.empty(s.shape, dtype=np.intp)
    np.put_along_axis(inv, s, np.broadcast_to(np.arange(s.shape[1]), s.shape), axis=1)
    return inv


def batch_mult(G: FiniteGroup, a: WreathBatch, b: WreathBatch) -> WreathBatch:
    """`wreath_mult` row by row: (g,s)(h,t) = (g . s(h), st)."""
    h = np.take_along_axis(b.g, _perm_inverse_rows(a.s), axis=1)
    return WreathBatch(G.mult[a.g, h], np.take_along_axis(a.s, b.s, axis=1))


def batch_inverse(G: FiniteGroup, a: WreathBatch) -> WreathBatch:
    """`wreath_inverse` row by row: (g,s)^-1 has parts g_{s(i)}^-1 and s^-1."""
    inverse = np.asarray(G.inverse, dtype=np.intp)
    return WreathBatch(inverse[np.take_along_axis(a.g, a.s, axis=1)], _perm_inverse_rows(a.s))


# ---------------------------------------------------------------------------
# symbolic level view and the explicit group
# ---------------------------------------------------------------------------

BATCH_ROWS = 2048  # rows per batch when a whole level or a set of pairs is walked


def pair_batches(rows: int, cols: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (row, column) indices of a rows x cols grid in row-major order,
    as two arrays of at most BATCH_ROWS entries at a time."""
    for lo in range(0, rows * cols, BATCH_ROWS):
        pair = np.arange(lo, min(lo + BATCH_ROWS, rows * cols))
        yield pair // cols, pair % cols


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _permutation_rows(n: int) -> np.ndarray:
    """The permutations of range(n) in lexicographic order, one per row of a
    read-only uint8 array."""
    count = factorial(n)
    letters = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return _readonly(np.fromiter(letters, dtype=np.uint8, count=count * n).reshape(count, n))


class WreathLevel:
    """Symbolic view of Gamma_n: types, sizes and on-demand element batches.

    Element i of the level is (g, s) with s the (i // |Gamma|^n)-th
    permutation in lexicographic order and g the base-|Gamma| digits of
    i % |Gamma|^n; `batch` is the one place that spells this out.  The level
    keeps the permutations and, once a class is asked for, the type label of
    every element, both as read-only arrays of the smallest int dtype that
    holds them."""

    def __init__(self, G: FiniteGroup, n: int):
        self.group = G
        self.n = n
        self.order = (G.order ** n) * factorial(n)
        self.types = enumerate_types(G, n)
        self.type_index = {t: i for i, t in enumerate(self.types)}
        self._class_elements: dict[TypeFunction, WreathBatch] = {}
        self._class_counts: dict[TypeFunction, dict[int, np.ndarray]] = {}
        self._z: dict[TypeFunction, int] = {}

    def z(self, rho: TypeFunction) -> int:
        z = self._z.get(rho)
        if z is None:
            z = self._z[rho] = centralizer_order(self.group, rho)
        return z

    def class_size(self, rho: TypeFunction) -> int:
        z = self.z(rho)
        if self.order % z:
            raise ValueError(f"{rho} is not a type of level {self.n}")
        return self.order // z

    @functools.cached_property
    def _perms(self) -> np.ndarray:
        return _permutation_rows(self.n)

    def batch(self, index: np.ndarray) -> WreathBatch:
        """The elements at positions `index` of the level."""
        G, n = self.group, self.n
        n_g = G.order ** n
        digits = G.order ** np.arange(n - 1, -1, -1, dtype=np.int64)
        g = index[:, None] % n_g // digits % G.order
        return WreathBatch(g, self._perms[index // n_g])

    def label(self, x: WreathBatch) -> np.ndarray:
        """The index in `types` of the type of each row of x.

        Every letter walks its cycle, multiplying the parts on the left as
        `type_of` does, to the class c of the cycle product and the cycle
        length r; a cycle of length r thus gives r equal keys c*n + r - 1,
        and the sorted keys of a row determine its type.  The walk runs on
        the flattened rows: letter i of row b is position b*n + i."""
        G, n = self.group, self.n
        class_of, radix, index = self._type_codes
        rows = len(x.g)
        letters = np.arange(rows * n)
        g = np.asarray(x.g, dtype=np.intp).reshape(-1)
        image = (x.s + (letters.reshape(rows, n) - np.arange(n))).reshape(-1)
        mult = G.mult.reshape(-1)
        cur, prod = letters, g
        length = np.ones(rows * n, dtype=np.intp)
        for _ in range(n - 1):
            nxt = image[cur]
            live = nxt != letters
            if not live.any():
                break
            cur = np.where(live, nxt, cur)
            prod = np.where(live, mult[g[cur] * G.order + prod], prod)
            length += live
        keys = (class_of[prod] * n + length - 1).reshape(rows, n)
        keys.sort(axis=1)
        # each distinct code is looked up once: sort the codes, mark the first
        # of each run, and send every row to the rank of its run
        codes = keys @ radix
        order = np.argsort(codes)
        ranked = codes[order]
        first = np.ones(rows, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        where = np.empty(rows, dtype=np.intp)
        where[order] = np.cumsum(first) - 1
        return np.array([index[code] for code in ranked[first].tolist()], dtype=np.intp)[where]

    @functools.cached_property
    def _type_codes(self):
        """`class_of` as an array, the int64 radix of the mixed-radix code of
        the sorted letter keys of a row, and the map from the code of each
        type to its index."""
        G, n = self.group, self.n
        cd = G.conjugacy()
        base = len(cd) * n
        if base ** n >= 2 ** 63:
            raise ValueError(f"the type codes of level {n} do not fit in int64")
        radix = _readonly(base ** np.arange(n - 1, -1, -1, dtype=np.int64))
        index = {}
        for i, t in enumerate(self.types):
            keys = sorted(c * n + r - 1 for c, parts in t for r in parts for _ in range(r))
            index[sum(k * base ** (n - 1 - j) for j, k in enumerate(keys))] = i
        return _readonly(np.array(cd.class_of, dtype=np.intp)), radix, index

    @functools.cached_property
    def _labels(self) -> np.ndarray:
        """The label of every element, in the order of the level."""
        labels = np.empty(self.order, dtype=np.min_scalar_type(len(self.types)))
        for _, index in pair_batches(1, self.order):
            labels[index] = self.label(self.batch(index))
        return _readonly(labels)

    @functools.cached_property
    def representatives(self) -> WreathBatch:
        """One element of each type, row i of type `types[i]`: consecutive
        cycles, with the class representative of Gamma on the first letter
        of each cycle and the identity on the others."""
        G, n = self.group, self.n
        class_reps = G.conjugacy().class_reps
        g = np.full((len(self.types), n), G.identity, dtype=np.intp)
        s = np.tile(np.arange(n), (len(self.types), 1))
        for row, rho in enumerate(self.types):
            pos = 0
            for c, parts in rho:
                for r in parts:
                    g[row, pos] = class_reps[c]
                    s[row, pos:pos + r] = np.roll(s[row, pos:pos + r], -1)
                    pos += r
        return WreathBatch(_readonly(g), _readonly(s))

    def class_elements(self, rho: TypeFunction) -> WreathBatch:
        """The conjugacy class of type rho: the elements whose type is rho,
        in the order of the level, as one batch kept on the level."""
        check_budget(self.order, f"class orbit in level {self.n}")
        if rho in self._class_elements:
            return self._class_elements[rho]
        t = self.type_index.get(rho)
        out = self.batch(np.flatnonzero(self._labels == t) if t is not None else np.arange(0))
        if len(out) != self.class_size(rho):
            raise ValueError(f"{rho} is not a type of level {self.n}")
        self._class_elements[rho] = out
        return out

    def class_counts(self, sigma: TypeFunction, rows: list[int]) -> np.ndarray:
        """Rows `rows` of the class table of sigma, whose entry [i, t] counts
        the y of type sigma with z y^-1 of type `types[t]`, z the
        representative of `types[i]`.  The table is kept on the level, and
        each row is counted once, the first time it is asked for: the
        products are labelled a batch of (z, y) pairs at a time."""
        members, width = self.class_elements(sigma), len(self.types)
        known = self._class_counts.setdefault(sigma, {})
        missing = [r for r in dict.fromkeys(rows) if r not in known]
        if missing:
            G, reps = self.group, self.representatives.take(missing)
            inverses = batch_inverse(G, members)
            counts = np.zeros(len(missing) * width, dtype=np.int64)
            for i, j in pair_batches(len(missing), len(inverses)):
                zy = batch_mult(G, reps.take(i), inverses.take(j))
                counts += np.bincount(i * width + self.label(zy), minlength=len(counts))
            known.update(zip(missing, counts.reshape(len(missing), width)))
        return np.array([known[r] for r in rows])


def wreath_level(G: FiniteGroup, n: int) -> WreathLevel:
    """The level-n view of Gamma_n, kept on G (as `G.wreath_levels`)."""
    levels = vars(G).setdefault("wreath_levels", {})
    if n not in levels:
        levels[n] = WreathLevel(G, n)
    return levels[n]


_EXPLICIT_TABLE_LIMIT = 8000  # mult-table memory ceiling: 256 MB as int32


def wreath_table(G: FiniteGroup, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The multiplication table of Gamma_n as an int32 array, and its natural
    action on the n |Gamma| points (i, x), numbered i |Gamma| + x, one row per
    element: (g, s) sends (i, x) to (s(i), g_{s(i)} x).  This is the one fill
    of an explicit permutation table: `build_wreath` reads it, and so does
    `groups.symmetric_group`, since S_n is Gamma_n of the trivial group.

    The order is checked against the budget, then against the table ceiling,
    before anything is allocated; `what` names the table in the refusal.
    Element i of the table is element i of `wreath_level(G, n)`, whose `batch`
    gives the elements behind any indices.  The table is filled one
    permutation s at a time: the rows of s are (g, s)(h, t) = (g . s(h), st)
    for every g, h, t."""
    order = (G.order ** n) * factorial(n)
    check_budget(order, what)
    if order > _EXPLICIT_TABLE_LIMIT:
        raise BudgetExceeded(f"{what}: explicit table of {order} elements exceeds "
                             f"the table ceiling {_EXPLICIT_TABLE_LIMIT}")
    nG = G.order ** n
    everything = wreath_level(G, n).batch(np.arange(order))
    # the rows with g_idx 0 run through the permutations, the first nG rows through the g
    perms, gparts = everything.s[::nG].astype(np.intp), everything.g[:nG]
    nP = len(perms)
    s_all = everything.s.astype(np.intp)
    gs = np.take_along_axis(everything.g, s_all, axis=1)
    natural = (s_all[:, :, None] * G.order + G.mult[gs]).reshape(order, n * G.order)
    weights = G.order ** np.arange(n - 1, -1, -1, dtype=np.int32)  # g_idx = g @ weights
    radix = n ** np.arange(n - 1, -1, -1, dtype=np.intp)
    codes = perms @ radix  # ascending, so searchsorted gives the rank of a permutation
    gm = G.mult
    step = max(1, _BLOCK_ENTRIES // (nG * max(n, 1)))
    mult = np.empty((order, order), dtype=np.int32)
    blocks = mult.reshape(nP, nG, nP, nG)  # blocks[s_idx, g_idx, t_idx, h_idx]
    for si, s in enumerate(perms):
        # nG times the rank of st for every t, int32 as `mult` so that np.add needs no cast
        st = (np.searchsorted(codes, s[perms] @ radix) * nG).astype(np.int32)
        sh = gparts[:, np.argsort(s)]  # s(h)_i = h_{s^-1(i)} for every h
        for lo in range(0, nG, step):
            gnums = gm[gparts[lo:lo + step, None, :], sh[None, :, :]] @ weights
            np.add(st[None, :, None], gnums[:, None, :], out=blocks[si, lo:lo + step])
    return mult, natural


def build_wreath(G: FiniteGroup, n: int) -> FiniteGroup:
    """Explicit multiplication-table model of Gamma_n (`wreath_table`), with
    the natural permutation action and the lifted S_n action attached; kept on
    G (as `G.wreath_builds`), and checked against the budget on every call."""
    what = f"build_wreath({G.name}, {n})"
    builds = vars(G).setdefault("wreath_builds", {})
    if n in builds:
        check_budget(builds[n].order, what)
        return builds[n]
    mult, natural = wreath_table(G, n, what)
    actions = []
    if n:
        # the point i |Gamma| goes to block s(i); the lifted S_n action moves
        # the first n points as s does and fixes the others
        points = n * G.order
        s = natural[:, ::G.order] // G.order
        top = np.concatenate([s, np.broadcast_to(np.arange(n, points), (len(s), points - n))],
                             axis=1)
        actions = [natural.tolist(), top.tolist()]
    W = FiniteGroup(mult, name=f"{G.name}_wr_S{n}", perm_actions=actions)
    W.wreath_base = G
    W.wreath_n = n
    builds[n] = W
    return W


def wreath_class_types(W: FiniteGroup) -> list[TypeFunction]:
    """Type of each conjugacy class of an explicit wreath group."""
    lvl = wreath_level(W.wreath_base, W.wreath_n)
    labels = lvl.label(lvl.batch(np.array(W.conjugacy().class_reps)))
    return [lvl.types[t] for t in labels.tolist()]


# ---------------------------------------------------------------------------
# wreath class functions
# ---------------------------------------------------------------------------

def _unit_conductor(v) -> int:
    """The conductor of v if v is a `CycNum` one, else 0."""
    if isinstance(v, CycNum) and v.den == 1 and v.nums[0] == 1 and not any(v.nums[1:]):
        return v.conductor
    return 0


class WreathClassFunction:
    """Class function on Gamma_n stored by type; zero values are pruned."""

    __slots__ = ("group", "n", "values")

    def __init__(self, group: FiniteGroup, n: int, values: dict):
        self.group = group
        self.n = n
        vals = {}
        for rho, v in values.items():
            cv = cyc(v)
            if not cv.is_zero():
                vals[rho] = cv
        self.values = vals

    def value(self, rho: TypeFunction) -> CycNum:
        return self.values.get(rho, cyc(0))

    @property
    def terms(self) -> dict:
        """`values`, under the name `linop.LinearOperator` reads."""
        return self.values

    def basis_vector(self, rho: TypeFunction) -> "WreathClassFunction":
        return wcf_indicator(self.group, self.n, rho)

    def sum_scaled(self, scaled) -> "WreathClassFunction":
        """sum of col * coeff over the (col, coeff) pairs, at the level of the
        columns.  Reports print `values`, so the keys come in the order of
        `__add__`, a set union, and a type whose sum cancels is dropped.
        A value c is taken as it is when v is a `CycNum` one whose conductor
        divides c's, since c * v is then c at c's conductor."""
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
        return WreathClassFunction(self.group, level, acc)

    def _check(self, other: "WreathClassFunction"):
        # an identically-zero function is a universal zero across levels
        if self.group is not other.group or (
                self.n != other.n and self.values and other.values):
            raise GroupMismatch("wreath class functions on different levels")

    def __add__(self, other):
        self._check(other)
        if not self.values:
            return other
        if not other.values:
            return self
        keys = set(self.values) | set(other.values)
        return WreathClassFunction(
            self.group, self.n, {k: self.value(k) + other.value(k) for k in keys})

    def __neg__(self):
        return WreathClassFunction(self.group, self.n,
                                   {k: -v for k, v in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return WreathClassFunction(self.group, self.n,
                                   {k: v * s for k, v in self.values.items()})

    def pointwise(self, other):
        self._check(other)
        if not self.values or not other.values:
            return WreathClassFunction(self.group, self.n, {})
        return WreathClassFunction(
            self.group, self.n,
            {k: v * other.value(k) for k, v in self.values.items() if k in other.values})

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        if not isinstance(other, WreathClassFunction):
            return NotImplemented
        if self.group is not other.group:
            return False
        if not self.values and not other.values:
            return True
        if self.n != other.n:
            return False
        keys = set(self.values) | set(other.values)
        return all(self.value(k) == other.value(k) for k in keys)

    def __repr__(self):
        return f"WCF(n={self.n}, {self.values})"


def wcf_zero(G: FiniteGroup, n: int) -> WreathClassFunction:
    return WreathClassFunction(G, n, {})


def wcf_indicator(G: FiniteGroup, n: int, rho: TypeFunction) -> WreathClassFunction:
    return WreathClassFunction(G, n, {rho: 1})


def wreath_pairing(f: WreathClassFunction, g: WreathClassFunction) -> CycNum:
    """<f,g> = sum_rho Z_rho^-1 f(rho) g(rho*)."""
    f._check(g)
    cd = f.group.conjugacy()
    total = cyc(0)
    for rho, v in f.values.items():
        w = g.value(rho.inverse(cd.inverse_class))
        if not w.is_zero():
            total = total + v * w * Fraction(1, centralizer_order(f.group, rho))
    return total


# ---------------------------------------------------------------------------
# sigma, induction, restriction, Heisenberg operators
# ---------------------------------------------------------------------------

def sigma_n(G: FiniteGroup, n: int, gamma: ClassFunction) -> WreathClassFunction:
    """Supported on n-cycle types; value n*gamma(c) on the type [c -> (n)]."""
    if gamma.group is not G:
        raise GroupMismatch("gamma must be a class function on the base group")
    vals = {}
    for c in range(len(G.conjugacy())):
        rho = TypeFunction([(c, (n,))])
        vals[rho] = gamma.values[c] * n
    return WreathClassFunction(G, n, vals)


def induce(G: FiniteGroup, n: int, m: int, f: WreathClassFunction,
           g: WreathClassFunction) -> WreathClassFunction:
    """Frobenius induction of f (x) g from Gamma_n x Gamma_m to Gamma_{n+m}.

    (Ind h)(x) = (1/|H|) sum_{y : y^-1 x y in H} h(y^-1 x y), evaluated
    class-by-class: classes of H are pairs of types fusing into their union,
    so the sum runs over the supports,

        Ind(f (x) g) = sum_{alpha in supp f, beta in supp g}
                       f(alpha) g(beta) Z_{alpha u beta} / (Z_alpha Z_beta) 1_{alpha u beta}.
    """
    if f.group is not G or g.group is not G:
        raise GroupMismatch("induction arguments on a different base group")
    if f.n != n or g.n != m:
        raise GroupMismatch("levels do not match the stated degrees")
    z_f, z_g, z_h = wreath_level(G, n).z, wreath_level(G, m).z, wreath_level(G, n + m).z
    acc: dict[TypeFunction, CycNum] = {}
    for alpha, fv in f.values.items():
        z_alpha = z_f(alpha)
        for beta, gv in g.values.items():
            rho = alpha.union(beta)
            w = Fraction(z_h(rho), z_alpha * z_g(beta))
            acc[rho] = acc.get(rho, cyc(0)) + fv * gv * w
    # keyed in level order: reports print `values`, so the key order reaches stdout
    index = wreath_level(G, n + m).type_index
    return WreathClassFunction(G, n + m, {r: acc[r] for r in sorted(acc, key=index.__getitem__)})


def induce_bruteforce(G: FiniteGroup, n: int, m: int, f: WreathClassFunction,
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


def restrict(G: FiniteGroup, n: int, m: int,
             h: WreathClassFunction) -> dict[tuple[TypeFunction, TypeFunction], CycNum]:
    """Restriction to Gamma_n x Gamma_m as a function on pairs of types."""
    if h.group is not G:
        raise GroupMismatch("restriction argument on a different base group")
    if h.n != n + m:
        raise GroupMismatch("level mismatch in restriction")
    out = {}
    for alpha in wreath_level(G, n).types:
        for beta in wreath_level(G, m).types:
            v = h.value(alpha.union(beta))
            if not v.is_zero():
                out[(alpha, beta)] = v
    return out


def _level_sum(G: FiniteGroup, n: int, terms) -> dict[TypeFunction, CycNum]:
    """{types[u]: sum of w x y over the terms (u, x, y, w) with that u} for
    the types of level n: one `dot` per type, in level order."""
    rows: dict[int, list] = {}
    for u, *term in terms:
        rows.setdefault(u, []).append(term)
    types = wreath_level(G, n).types if rows else []
    return {types[u]: dot(*zip(*rows[u])) for u in sorted(rows)}


class HeisenbergOperator:
    """p_k(gamma) as its level blocks: `block(m)` lists, for each type of
    level m, its column {type index at level m + k: value}, built once.
    Creation (k > 0) is induction against sigma_k(gamma); annihilation
    (k < 0) takes a part -k of class c^-1 off a type, with weight
    gamma(c) / zeta_c.  `apply` is block x vector, whose `dot`s sum the
    operands the formulas sum, so values and conductors agree with them."""

    def __init__(self, G: FiniteGroup, k: int, gamma: ClassFunction):
        if k == 0:
            raise ValueError("mode 0 is not a Heisenberg operator")
        self.group = G
        self.k = k
        self.gamma = gamma
        self._blocks: dict[int, list[dict[int, CycNum]]] = {}

    def block(self, m: int) -> list[dict[int, CycNum]]:
        if m not in self._blocks:
            self._blocks[m] = self._columns(m)
        return self._blocks[m]

    def _columns(self, m: int) -> list[dict[int, CycNum]]:
        G, k = self.group, self.k
        types = wreath_level(G, m).types
        if k > 0:
            sigma, index = sigma_n(G, k, self.gamma), wreath_level(G, m + k).type_index
            return [{index[rho]: v for rho, v in induce(G, k, m, sigma, wcf_indicator(G, m, beta))
                     .values.items()} for beta in types]
        npos, cd = -k, G.conjugacy()
        index = wreath_level(G, m - npos).type_index if m >= npos else {}
        out = []
        for rho in types:
            col = {}
            for c_inv, parts in rho:
                c = cd.inverse_class[c_inv]
                if npos in parts and not self.gamma.values[c].is_zero():
                    rest = list(parts)
                    rest.remove(npos)
                    beta = TypeFunction((ci, rest if ci == c_inv else p) for ci, p in rho)
                    col[index[beta]] = self.gamma.values[c] * Fraction(1, cd.centralizer_orders[c])
            out.append(col)
        return out

    def apply(self, f: WreathClassFunction) -> WreathClassFunction:
        G, target = self.group, f.n + self.k
        if f.group is not G:
            raise GroupMismatch("operator and argument on different base groups")
        if target < 0:
            return wcf_zero(G, 0)
        block, index = self.block(f.n), wreath_level(G, f.n).type_index
        return WreathClassFunction(G, target, _level_sum(G, target, (
            (t, v, e, 1) for rho, v in f.values.items() for t, e in block[index[rho]].items())))


def heisenberg_p(G: FiniteGroup, k: int, gamma: ClassFunction) -> HeisenbergOperator:
    return HeisenbergOperator(G, k, gamma)


# ---------------------------------------------------------------------------
# eta/epsilon characters and the weighted form
# ---------------------------------------------------------------------------

def eta_eps_characters(G: FiniteGroup, n: int, gamma: ClassFunction,
                       signed: bool) -> WreathClassFunction:
    """Value at rho: prod over cycles of gamma(cycle-product class), times
    sign(s) = (-1)^(n - #cycles) when signed.  The multiplicative rule is the
    extension used for virtual characters."""
    out = {}
    for rho in wreath_level(G, n).types:
        v = cyc(1)
        for c, parts in rho:
            gc = gamma.values[c]
            for _ in parts:
                v = v * gc
        if signed and (n - rho.total_length()) % 2:
            v = -v
        if not v.is_zero():
            out[rho] = v
    return WreathClassFunction(G, n, out)


def weighted_form(G: FiniteGroup, n: int, f: WreathClassFunction,
                  g: WreathClassFunction, xi: ClassFunction) -> CycNum:
    """<f,g>_xi = <eta_n(xi) (x) f, g> on Gamma_n."""
    eta = eta_eps_characters(G, n, xi, signed=False)
    return wreath_pairing(eta.pointwise(f), g)


def _bracket_column(pk: HeisenbergOperator, pl: HeisenbergOperator, m: int,
                    i: int) -> dict[TypeFunction, CycNum]:
    """The nonzero entries of column i of [p_k, p_l] at level m: the block
    products P_k P_l - P_l P_k, one `dot` per type of level m + k + l."""
    terms = ((u, x, y, sign) for outer, inner, sign in ((pk, pl, 1), (pl, pk, -1))
             if m + inner.k >= 0 for t, y in inner.block(m)[i].items()
             for u, x in outer.block(m + inner.k)[t].items())
    column = _level_sum(pk.group, m + pk.k + pl.k, terms)
    return {rho: v for rho, v in column.items() if not v.is_zero()}


def heisenberg_check(G: FiniteGroup, modes: int, levels: int):
    """[p_k(gamma), p_l(gamma')] = -k d_{k,-l} <gamma, gamma'> Id, checked on
    the indicator basis of every level <= `levels` for all |k|, |l| <= modes
    and all pairs of irreducible characters, as products of level blocks; each
    probe prints the nonzero entries of its bracket column."""
    from .report import VerificationReport

    report = VerificationReport(f"heisenberg({G.name}, modes<={modes}, levels<={levels})")
    gammas = G.character_table().irreducibles
    mode_list = [k for k in range(-modes, modes + 1) if k != 0]
    # each p_k(gamma) once, its blocks kept across every pair it meets
    ops = {(gi, k): heisenberg_p(G, k, gamma)
           for gi, gamma in enumerate(gammas) for k in mode_list}
    for gi, ga in enumerate(gammas):
        for gj, gb in enumerate(gammas):
            scal = inner_product(ga, gb)
            for k in mode_list:
                for l in mode_list:
                    pk, pl = ops[gi, k], ops[gj, l]
                    for m in range(levels + 1):
                        for i, rho in enumerate(wreath_level(G, m).types):
                            br = _bracket_column(pk, pl, m, i)
                            expected = wcf_indicator(G, m, rho).scale(-k * scal).values \
                                if k == -l else {}
                            report.add(f"[p_{k}(g{gi}), p_{l}(g{gj})] level {m} {rho}",
                                       br, expected, br == expected)
    return report
