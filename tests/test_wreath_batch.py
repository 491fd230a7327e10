"""The numpy element batches of `wfk.wreath` against the tuple functions they
stand for: a batch product is `wreath_mult` row by row, a batch inverse is
`wreath_inverse`, and a batch label is the index of `type_of` in the types
of the level.  Also: the arrays a level keeps are read-only and compact, and
none labels every element of the level; the
class tables of conv-cubic and lehn-sorger never label or list a whole
level, and no state carries from one call or one group to the next."""

from math import factorial

import numpy as np
import pytest
import reference_wreath as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from wfk.charmap import convolve_by_class, k_class_type
from wfk.cli import run
from wfk.exact import CycNum
from wfk.groups import (FiniteGroup, binary_dihedral, binary_tetrahedral, cyclic_group,
                        trivial_group)
from wfk.wreath import (WreathBatch, WreathClassFunction, WreathElement, WreathLevel,
                        batch_inverse, batch_mult, enumerate_types, induce_bruteforce,
                        type_of, wcf_indicator, wreath_inverse, wreath_level, wreath_mult)

GROUPS = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "BD2": binary_dihedral(2),
          "BT": binary_tetrahedral()}


def elements(G, n: int):
    parts = st.lists(st.integers(0, G.order - 1), min_size=n, max_size=n).map(tuple)
    return st.builds(WreathElement, parts, st.permutations(range(n)).map(tuple))


@st.composite
def batches(draw, size=st.integers(1, 8)):
    """A base group, a level n <= 4 and two lists of elements of one size."""
    G = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    n = draw(st.integers(0, 4))
    b = draw(size)
    a = draw(st.lists(elements(G, n), min_size=b, max_size=b))
    c = draw(st.lists(elements(G, n), min_size=b, max_size=b))
    return G, n, a, c


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batch_mult_is_wreath_mult(case):
    G, n, a, b = case
    got = batch_mult(G, WreathBatch.of(a, n), WreathBatch.of(b, n)).elements()
    assert got == [wreath_mult(G, x, y) for x, y in zip(a, b)]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batch_inverse_is_wreath_inverse(case):
    G, n, a, _ = case
    assert batch_inverse(G, WreathBatch.of(a, n)).elements() == [wreath_inverse(G, x) for x in a]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batch_label_is_type_index(case):
    G, n, a, _ = case
    lvl = wreath_level(G, n)
    assert lvl.label(WreathBatch.of(a, n)).tolist() == [lvl.type_index[type_of(G, n, x)]
                                                        for x in a]


@settings(max_examples=60, deadline=None)
@given(batches(size=st.just(1)))
def test_batch_of_one(case):
    G, n, (x,), (y,) = case
    lvl = wreath_level(G, n)
    a, b = WreathBatch.of([x], n), WreathBatch.of([y], n)
    assert batch_mult(G, a, b).elements() == [wreath_mult(G, x, y)]
    assert batch_inverse(G, a).elements() == [wreath_inverse(G, x)]
    assert lvl.label(a).tolist() == [lvl.type_index[type_of(G, n, x)]]


@pytest.mark.parametrize("name,n", [("Z2", 3), ("Z3", 2), ("BD2", 2), ("BT", 1)])
def test_whole_level_batch_mixes_every_type(name, n):
    G = GROUPS[name]
    lvl = WreathLevel(G, n)
    everything = list(ref.elements(lvl))
    batch = lvl.batch(np.arange(lvl.order))
    assert batch.elements() == everything
    labels = lvl.label(batch)
    assert set(labels.tolist()) == set(range(len(lvl.types)))
    assert labels.tolist() == [lvl.type_index[type_of(G, n, x)] for x in everything]


def test_label_refuses_codes_past_int64():
    # the sorted letter keys of level 16 over the trivial group have 16**16
    # mixed-radix codes, which int64 cannot hold
    assert WreathLevel(trivial_group(), 15)._type_codes[1].dtype == np.int64
    with pytest.raises(ValueError, match="int64"):
        WreathLevel(trivial_group(), 16).label(WreathBatch.of([], 16))


def test_level_arrays_are_read_only_and_compact():
    G = GROUPS["Z2"]
    lvl = WreathLevel(G, 4)
    for rho in lvl.types:
        lvl.class_elements(rho)
    class_of, radix, _ = lvl._type_codes
    for a in (lvl._perms, class_of, radix):
        assert not a.flags.writeable
    assert lvl._perms.itemsize == 1
    assert len(lvl._perms) == factorial(lvl.n)
    with pytest.raises(ValueError):
        lvl._perms[0, 0] = 1
    # the level keeps no labels of its elements
    assert not hasattr(lvl, "_labels")


def test_class_tables_sweep_no_level(monkeypatch):
    # conv-cubic and lehn-sorger convolve by classes of S_n, which are built
    # from their types: no level of S_n labels or lists all its elements
    T = trivial_group()
    monkeypatch.delitem(vars(T), "wreath_levels", raising=False)
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    assert run(["verify", "conv-cubic", "--n", "8"]) == 0
    assert run(["verify", "lehn-sorger", "--n", "6"]) == 0
    levels = vars(T)["wreath_levels"]
    assert sorted(levels) == list(range(1, 9))
    assert all(not {"_labels", "_perms"} & set(vars(lvl)) for lvl in levels.values())


def wcf_exact(f: WreathClassFunction) -> tuple:
    return f.n, [(rho, v.key()) for rho, v in f.values.items()]


def batch_results(G) -> list:
    """Class members, a class convolution and the induction oracle on G."""
    out = []
    for n in range(4):
        lvl = wreath_level(G, n)
        out.append([lvl.class_elements(rho).elements() for rho in lvl.types])
        kappa = k_class_type(G, len(G.conjugacy()) - 1, 1, n)
        if kappa is not None:
            for rho in lvl.types:
                out.append(wcf_exact(convolve_by_class(G, n, kappa, wcf_indicator(G, n, rho))))
    for n, m in ((0, 2), (1, 2), (2, 1), (3, 0)):
        f = WreathClassFunction(G, n, {t: i + 1 for i, t in enumerate(enumerate_types(G, n))})
        g = WreathClassFunction(G, m, {t: CycNum.zeta(3, i)
                                       for i, t in enumerate(enumerate_types(G, m))})
        out.append(wcf_exact(induce_bruteforce(G, n, m, f, g)))
    return out


def test_no_state_carries_between_calls_or_groups():
    # two groups of their own on the table of Z/3 (the builtin is cached)
    G, H = (FiniteGroup(cyclic_group(3).mult.copy(), name="Z3") for _ in range(2))
    first = batch_results(G)
    assert batch_results(G) == first  # now from the levels and classes kept on G
    assert batch_results(H) == first
