"""The group side of `wfk.linop.LinearOperator` against the `_GroupOp` it
replaced (`reference_linop.py`): the fw-Virasoro operators L_n(gamma), L_0
and every bracket of two of them, applied to class functions up to a small level,
must agree in value, conductor, level and key order, because
`verify fw-virasoro` prints `WreathClassFunction.values` as they are."""

from fractions import Fraction

import pytest
import reference_linop as ref

from wfk.charmap import ZeroPrefactor, delta_op, fw_l_operator
from wfk.groups import GroupMismatch, binary_dihedral, cyclic_group
from wfk.linop import LinearOperator
from wfk.wreath import WreathClassFunction, wcf_indicator, wreath_level

# (name, group, top level of the inputs to L_n, top level of the inputs to
# the brackets): a bracket of two L_1 raises the level by two, and level 4
# of BD2 has more elements than the default budget admits
CASES = [("Z2", lambda: cyclic_group(2), 3, 3), ("Z3", lambda: cyclic_group(3), 3, 2),
         ("BD2", lambda: binary_dihedral(2), 2, 1)]


def exact(f: WreathClassFunction) -> tuple:
    return f.group, f.n, [(rho, v.to_json()) for rho, v in f.values.items()]


def probe_class(G) -> int:
    """The class `wfk verify fw-virasoro` picks by default."""
    cd = G.conjugacy()
    return next((i for i, rep in enumerate(cd.class_reps) if rep != G.identity
                 and cd.inverse_class[i] == i), 0)


def shared_delta1(G, c: int):
    """Delta_1(K_c) on indicators, each computed once for both classes."""
    fn, memo = delta_op(G, c).fn, {}

    def cached(f):
        key = (f.n, *f.values)
        if key not in memo:
            memo[key] = fn(f)
        return memo[key]

    return cached


def inputs(G, top: int) -> list[WreathClassFunction]:
    """Every indicator up to level `top`, and on each level one function with
    distinct coefficients of both signs, so that the columns of several
    types are summed and some of them cancel."""
    out = [wcf_indicator(G, m, rho) for m in range(top + 1) for rho in wreath_level(G, m).types]
    out += [WreathClassFunction(G, m, {rho: (-1) ** i * (i + 1)
                                       for i, rho in enumerate(wreath_level(G, m).types)})
            for m in range(1, top + 1)]
    return out


@pytest.mark.parametrize("name,make,op_top,bracket_top", CASES, ids=[c[0] for c in CASES])
def test_fw_virasoro_operators_match_group_op(name, make, op_top, bracket_top):
    G = make()
    c = probe_class(G)
    table = G.character_table()
    delta = shared_delta1(G, c)
    dop, ref_dop = LinearOperator(delta), ref._GroupOp(delta)
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
            ls[(gi, 0)] = (l1.commutator(lm1).scale(half), r1.bracket(rm1).scale(half))
    assert ls
    brackets = [(a.commutator(b), ra.bracket(rb))
                for a, ra in ls.values() for b, rb in ls.values()]
    for ops, top in ((ls.values(), op_top), (brackets, bracket_top)):
        for f in inputs(G, top):
            for op, ref_op in ops:
                assert exact(op(f)) == exact(ref_op(f)), f


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
