"""Linear characters on integer exponents against the regular-representation
eigensplitter they replaced (`reference_tables.py`), plus property tests on
non-cyclic abelian groups, which no builtin constructor makes."""

import numpy as np
import pytest
import reference_tables as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from wfk.exact import CycNum
from wfk.groups import (FiniteGroup, _canonical_key, _linear_characters,
                        binary_dihedral, binary_icosahedral, binary_octahedral,
                        binary_tetrahedral, cyclic_group, direct_product,
                        symmetric_group)
from wfk.wreath import build_wreath


def plain_product(*orders) -> FiniteGroup:
    """A product of cyclic groups without `product_factors`, so that its table
    comes from the abelian path, not from tensoring the factor tables."""
    G = cyclic_group(orders[0])
    for k in orders[1:]:
        G = direct_product(G, cyclic_group(k))
    return FiniteGroup(G.mult, name="x".join(f"C{k}" for k in orders))


def sorted_json(G, rows):
    e = G.exponent()
    rows = sorted(rows, key=lambda cf: _canonical_key(cf.values, e))
    return [[v.to_json() for v in cf.values] for cf in rows]


ABELIAN = ([cyclic_group(k) for k in range(1, 17)]
           + [plain_product(*orders) for orders in
              ((2, 2), (2, 4), (3, 3), (4, 6), (2, 2, 2))])


@pytest.mark.parametrize("G", ABELIAN, ids=lambda G: G.name)
def test_abelian_table_matches_eigensplitting(G):
    assert G.character_table().to_json()["table"] == sorted_json(G, ref._abelian_table(G))


NONABELIAN = {
    **{f"binary-dihedral-{m}": (lambda m=m: binary_dihedral(m)) for m in range(2, 8)},
    "binary-tetrahedral": binary_tetrahedral,
    "binary-octahedral": binary_octahedral,
    "binary-icosahedral": binary_icosahedral,
    **{f"S{n}": (lambda n=n: symmetric_group(n)) for n in range(3, 6)},
    "Z2-wr-S2": lambda: build_wreath(cyclic_group(2), 2),
    "Z2-wr-S3": lambda: build_wreath(cyclic_group(2), 3),
}


@pytest.mark.parametrize("name", NONABELIAN)
def test_lifted_linear_characters_match_quotient(name):
    G = NONABELIAN[name]()
    assert sorted_json(G, _linear_characters(G)) == sorted_json(G, ref._linear_characters(G))


def _exponents(G, chi):
    """(a, n) with chi(x) = zeta_n^a[x] for every element x, n the conductor
    the values are stored at; a KeyError if some value is not such a root."""
    n = chi.values[0].conductor
    log = {CycNum.zeta(n, a).key(): a for a in range(n)}
    cd = G.conjugacy()
    return np.array([log[chi.values[cd.class_of[x]].key()] for x in range(G.order)]), n


def _is_homomorphism(G, chi) -> bool:
    """chi(xy) = chi(x) chi(y) on all pairs, as zeta_n^a(xy) = zeta_n^(a(x) + a(y))."""
    a, n = _exponents(G, chi)
    return bool((a[G.mult] == (a[:, None] + a[None, :]) % n).all())


@st.composite
def abelian_groups(draw):
    """A product of up to three cyclic groups of order <= 6, its elements
    relabelled by a random permutation, so that the subgroup chain
    `_linear_characters` walks is not always a chain of direct factors."""
    G = plain_product(*draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    p = np.array(draw(st.permutations(range(G.order))))
    table = np.empty_like(G.mult)
    table[np.ix_(p, p)] = p[G.mult]
    return FiniteGroup(table, name=G.name)


@settings(max_examples=25, deadline=None)
@given(abelian_groups())
def test_abelian_products_have_all_characters(G):
    rows = _linear_characters(G)
    assert len(rows) == G.order
    assert all(_is_homomorphism(G, chi) for chi in rows)
    keys = {_canonical_key(chi.values, G.exponent()) for chi in rows}
    assert len(keys) == G.order
