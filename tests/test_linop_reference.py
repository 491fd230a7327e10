"""The fw-Virasoro operators of `wfk.charmap`, column-cached linear
extensions summed through `WreathClassFunction.__add__` and `scale`, against
the operator classes they replaced (`reference_linop.py`): the `_GroupOp`
and the `LinearOperator` of `wfk.linop`, which summed its columns through
`WreathClassFunction.sum_scaled`.  Delta_1, p_n(gamma), L_n(gamma), L_0 and
every bracket of two of them, applied to indicators and to random
multi-term class functions up to a small level, must agree in value,
conductor, level and key order, because `verify fw-virasoro` prints
`WreathClassFunction.values` as they are.  So must the extension of a
column function built to cancel, to vanish and to meet unit coefficients,
and both refuse a class function of another base group."""

import random
from fractions import Fraction

import pytest
import reference_linop as ref

from wfk.charmap import (ZeroPrefactor, _commutator, _linear, _p_op, _scaled, delta_op,
                         fw_l_operator)
from wfk.exact import CycNum, cyc
from wfk.groups import GroupMismatch, binary_dihedral, cyclic_group
from wfk.wreath import (WreathClassFunction, heisenberg_p, wcf_indicator, wcf_zero,
                        wreath_level)

# (name, group, top level of the inputs to L_n, top level of the inputs to
# the brackets): a bracket of two L_1 raises the level by two, and level 4
# of BD2 has more elements than the default budget admits
CASES = [("Z2", lambda: cyclic_group(2), 3, 3), ("Z3", lambda: cyclic_group(3), 3, 2),
         ("BD2", lambda: binary_dihedral(2), 2, 1)]
IDS = [c[0] for c in CASES]


def exact(f: WreathClassFunction) -> tuple:
    """Group, level, and every (type, key()) in key order; `key()` holds the
    conductor, the numerators and the denominator."""
    return f.group, f.n, [(rho, v.key()) for rho, v in f.values.items()]


def probe_class(G) -> int:
    """The class `wfk verify fw-virasoro` picks by default."""
    cd = G.conjugacy()
    return next((i for i, rep in enumerate(cd.class_reps) if rep != G.identity
                 and cd.inverse_class[i] == i), 0)


def inputs(G, top: int) -> list[WreathClassFunction]:
    """Every indicator up to level `top`, and on each level one function with
    distinct coefficients of both signs, so that the columns of several
    types are summed and some of them cancel."""
    out = [wcf_indicator(G, m, rho) for m in range(top + 1) for rho in wreath_level(G, m).types]
    out += [WreathClassFunction(G, m, {rho: (-1) ** i * (i + 1)
                                       for i, rho in enumerate(wreath_level(G, m).types)})
            for m in range(1, top + 1)]
    return out


def coefficient(rng: random.Random, e: int):
    """A one at conductor 1 or 3, an int, a Fraction, or a value of Q(zeta_e)."""
    pick = rng.randrange(5)
    if pick == 0:
        return CycNum.from_rational(1).embed(rng.choice([1, 3]))
    if pick == 1:
        return rng.choice([1, -1, 2])
    if pick == 2:
        return Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
    return cyc(Fraction(rng.randint(-2, 2), 2)) + rng.choice([1, -1]) * CycNum.zeta(
        e, rng.randrange(e))


def random_vectors(G, top: int, rng: random.Random, count: int) -> list[WreathClassFunction]:
    """`count` class functions at each level up to `top`, on a random set of
    types with random coefficients."""
    e = G.exponent()
    out = []
    for m in range(top + 1):
        types = wreath_level(G, m).types
        for _ in range(count):
            support = rng.sample(types, rng.randint(1, len(types)))
            out.append(WreathClassFunction(G, m, {t: coefficient(rng, e) for t in support}))
    return out


def operators(G, c: int, build_l, half, bracket, dop, pop) -> list:
    """Delta_1, p_{+-1}(gamma), every L_n(gamma), L_0 and every bracket of
    two L's, built by `build_l`, `half` and `bracket` from `dop` and `pop`."""
    table = G.character_table()
    ops, ls = [dop], {}
    for gi, gamma in enumerate(table.irreducibles):
        ops += [pop(G, n, gamma) for n in (-1, 1)]
        for n in (-1, 1):
            try:
                ls[(gi, n)] = build_l(G, c, n, gamma, table.degrees[gi], dop)
            except ZeroPrefactor:
                continue
        if (gi, 1) in ls and (gi, -1) in ls:
            ls[(gi, 0)] = half(bracket(ls[(gi, 1)], ls[(gi, -1)]))
    return ops + list(ls.values()) + [bracket(a, b) for a in ls.values() for b in ls.values()]


@pytest.mark.parametrize("name,make,op_top,bracket_top", CASES, ids=IDS)
def test_fw_virasoro_operators_match_group_op(name, make, op_top, bracket_top):
    G = make()
    c = probe_class(G)
    table = G.character_table()
    # Delta_1(K_c) on indicators, each column computed once for both sides
    delta = delta_op(G, c)
    dop, ref_dop = _linear(delta), ref._GroupOp(delta)
    ls = {}
    for gi, gamma in enumerate(table.irreducibles):
        for n in (-1, 1):
            try:
                op = fw_l_operator(G, c, n, gamma, table.degrees[gi], dop)
            except ZeroPrefactor:
                continue
            ls[(gi, n)] = (op, ref.fw_l_operator(G, c, n, gamma, table.degrees[gi], ref_dop))
        if (gi, 1) in ls and (gi, -1) in ls:
            (l1, r1), (lm1, rm1) = ls[(gi, 1)], ls[(gi, -1)]
            half = Fraction(1, 2)
            ls[(gi, 0)] = (_scaled(_commutator(l1, lm1), half), r1.bracket(rm1).scale(half))
    assert ls
    brackets = [(_commutator(a, b), ra.bracket(rb))
                for a, ra in ls.values() for b, rb in ls.values()]
    for ops, top in ((ls.values(), op_top), (brackets, bracket_top)):
        for f in inputs(G, top):
            for op, ref_op in ops:
                assert exact(op(f)) == exact(ref_op(f)), f


@pytest.mark.parametrize("name,make,op_top,bracket_top", CASES, ids=IDS)
def test_fw_virasoro_operators_match_linear_operator(name, make, op_top, bracket_top):
    G = make()
    c = probe_class(G)
    delta = delta_op(G, c)
    half = Fraction(1, 2)
    ops = operators(G, c, fw_l_operator, lambda op: _scaled(op, half), _commutator,
                    _linear(delta), _p_op)
    ref_ops = operators(G, c, ref.linop_fw_l_operator, lambda op: op.scale(half),
                        ref.LinearOperator.commutator, ref.LinearOperator(delta),
                        lambda G, n, gamma: ref.LinearOperator(heisenberg_p(G, n, gamma).apply))
    assert len(ops) == len(ref_ops) > 3
    rng = random.Random(30)
    for f in random_vectors(G, bracket_top, rng, 3):
        for op, ref_op in zip(ops, ref_ops):
            assert exact(op(f)) == exact(ref_op(f)), f


@pytest.mark.parametrize("name,make", [case[:2] for case in CASES], ids=IDS)
def test_extension_of_edge_columns_matches_linear_operator(name, make):
    # one shared column on every third type, so that differences of their
    # indicators cancel to zero; a zero column on the next; random columns
    # on the rest
    G = make()
    rng = random.Random(7)
    e = G.exponent()
    types = wreath_level(G, 2).types
    shared = random_vectors(G, 2, rng, 1)[-1]
    columns = {rho: [shared, wcf_zero(G, 2), random_vectors(G, 2, rng, 1)[-1]][i % 3]
               for i, rho in enumerate(types)}

    def fn(f):
        (rho,) = f.values
        return columns[rho]

    op, ref_op = _linear(fn), ref.LinearOperator(fn)
    one, one3 = CycNum.from_rational(1), CycNum.from_rational(1).embed(3)
    vectors = [WreathClassFunction(G, 2, {types[0]: 1, types[3]: -1}),  # cancels
               WreathClassFunction(G, 2, {types[1]: 5}),  # a zero column
               WreathClassFunction(G, 2, {t: one for t in types}),
               WreathClassFunction(G, 2, {t: one3 for t in types}),
               WreathClassFunction(G, 2, {types[0]: one3, types[2]: one, types[3]: -one3}),
               wcf_zero(G, 2)]
    vectors += [WreathClassFunction(G, 2, {t: coefficient(rng, e) for t in rng.sample(
        types, rng.randint(1, len(types)))}) for _ in range(20)]
    for f in vectors:
        assert exact(op(f)) == exact(ref_op(f)), f
    assert op(vectors[0]).is_zero() and op(vectors[1]).is_zero()
    # another base group with a type of the same name: the kept column is
    # refused, by both
    Z5 = cyclic_group(5)
    alien = wcf_indicator(Z5, 2, types[0])
    for apply in (op, ref_op):
        with pytest.raises(GroupMismatch):
            apply(alien)


def test_cached_column_is_not_reused_on_another_base_group():
    # columns are cached by type alone, and Z2 and Z3 share the type of the
    # identity at level 1
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    op = delta_op(Z2, 0)
    rho = wreath_level(Z2, 1).types[0]
    assert rho in wreath_level(Z3, 1).types
    op(wcf_indicator(Z2, 1, rho))
    with pytest.raises(GroupMismatch):
        op(wcf_indicator(Z3, 1, rho))
