"""The folded convolution operators of `wfk.charmap` against the separate
ones they replaced (`reference_charmap.py`): Delta_i(K_c) on every level,
`filtered_convolution` through the one class-convolution loop, and the cubic
as W^3_0(1), and the class convolution on numpy element batches against the
tuple loop it replaced.  The class convolution reads rows of the class
tables kept on the level; it must agree with the per-call sweep it replaced
on class functions whose values have mixed conductors, and a table is built
once per level and class; conv-cubic and lehn-sorger read only the table of
the transposition class.  Reports print `WreathClassFunction.values` as they
are, so the group-side results must agree in value, conductor, level and key
order."""

import random
from fractions import Fraction

import pytest
import reference_charmap as ref

from wfk.charmap import (GradedClassFunction, _class_convolution, colored_space,
                         cubic_formula, delta_op, filtered_convolution, lehn_sorger_check,
                         transposition_type, verify_conv_cubic)
from wfk.exact import CycNum
from wfk.fock import FockVector, monomial_basis
from wfk.groups import binary_dihedral, cyclic_group, trivial_group
from wfk.wreath import WreathClassFunction, WreathLevel, wcf_indicator, wreath_level

# (name, base group, top level): every indicator up to the top level
DELTA_CASES = [("trivial", trivial_group, 6), ("Z2", lambda: cyclic_group(2), 3),
               ("Z3", lambda: cyclic_group(3), 2)]


# (name, base group, top level) for the class convolution on element batches
CONVOLUTION_CASES = [("trivial", trivial_group, 5), ("Z2", lambda: cyclic_group(2), 4),
                     ("Z3", lambda: cyclic_group(3), 4), ("BD2", lambda: binary_dihedral(2), 2)]


def exact(f: WreathClassFunction) -> tuple:
    return f.group, f.n, [(rho, v.key()) for rho, v in f.values.items()]


def graded_exact(g: GradedClassFunction) -> tuple:
    return g.degree, exact(g.wcf)


@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("name,make,top", DELTA_CASES, ids=[c[0] for c in DELTA_CASES])
def test_delta_op_matches_reference(name, make, top, i):
    G = make()
    for c in range(len(G.conjugacy())):
        op = delta_op(G, c, i)
        for n in range(top + 1):
            ref_op = ref.delta_op(G, n, c, i)
            for rho in wreath_level(G, n).types:
                f = wcf_indicator(G, n, rho)
                assert exact(op(f)) == exact(ref_op(f)), (c, rho)


def test_filtered_convolution_matches_reference_s4_pairs():
    fns = [GradedClassFunction.indicator(4, rho) for rho in wreath_level(trivial_group(), 4).types]
    for a in fns:
        for b in fns:
            assert graded_exact(filtered_convolution(a, b)) == \
                graded_exact(ref.filtered_convolution(a, b))


def test_filtered_convolution_matches_reference_transposition_s6():
    t = GradedClassFunction.indicator(6, transposition_type(6))
    for rho in wreath_level(trivial_group(), 6).types:
        f = GradedClassFunction.indicator(6, rho)
        assert graded_exact(filtered_convolution(t, f)) == \
            graded_exact(ref.filtered_convolution(t, f))


def test_cubic_is_the_reference_split_join_loop():
    top = 8
    space = colored_space(trivial_group())
    op, ref_op = cubic_formula(top), ref.cubic_formula(top)
    for w in range(top + 1):
        for mono in monomial_basis(space, w):
            v = FockVector(space, {mono: 1})
            out, ref_out = op.apply(v), ref_op.apply(v)
            # reports print str(): W^3_0 gives Fraction(1) where the loop gave 1
            assert out == ref_out and str(out) == str(ref_out), mono


def random_value(rng: random.Random, e: int):
    """A small value in Q(zeta_e), zero about a third of the time."""
    if rng.random() < 1 / 3:
        return 0
    v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return v + rng.randint(-2, 2) * CycNum.zeta(e, rng.randrange(e)) if e > 1 else v


@pytest.mark.parametrize("name,make,top", CONVOLUTION_CASES,
                         ids=[c[0] for c in CONVOLUTION_CASES])
def test_class_convolution_matches_tuple_loop(name, make, top):
    # a g on up to three classes (as `filtered_convolution` passes), on every
    # type, on a random subset of the types and on none of them
    G = make()
    e = G.exponent()
    rng = random.Random(29 + sum(map(ord, name)))
    for n in range(top + 1):
        types = wreath_level(G, n).types
        for _ in range(2):
            f = WreathClassFunction(G, n, {t: random_value(rng, e)
                                           for t in rng.sample(types, rng.randint(1, len(types)))})
            g = {t: random_value(rng, e) or 1 for t in rng.sample(types, min(3, len(types)))}
            for subset in (types, rng.sample(types, rng.randint(0, len(types))), []):
                assert exact(_class_convolution(G, n, g, f, subset)) == \
                    exact(ref.class_convolution(G, n, g, f, subset)), (n, subset)


def mixed_value(rng: random.Random, e: int):
    """A small value at conductor 1, e or 3 (mixed with e), zero about a
    third of the time."""
    return random_value(rng, rng.choice((1, e, 3)))


@pytest.mark.parametrize("name,make,top", CONVOLUTION_CASES,
                         ids=[c[0] for c in CONVOLUTION_CASES])
def test_class_tables_match_per_call_sweep(name, make, top):
    # rows are asked for in random order and subsets, so a table is read
    # partly filled, then filled further, then whole
    G = make()
    e = G.exponent()
    rng = random.Random(31 + sum(map(ord, name)))
    for n in range(top + 1):
        types = wreath_level(G, n).types
        for _ in range(3):
            f = WreathClassFunction(G, n, {t: mixed_value(rng, e)
                                           for t in rng.sample(types, rng.randint(1, len(types)))})
            g = {t: mixed_value(rng, e) or 1 for t in rng.sample(types, min(3, len(types)))}
            for subset in (rng.sample(types, rng.randint(0, len(types))), types):
                assert exact(_class_convolution(G, n, g, f, subset)) == \
                    exact(ref._class_convolution(G, n, g, f, subset)), (n, subset)


def test_conv_cubic_builds_each_class_table_once(monkeypatch):
    # conv-cubic convolves every class of S_n with the transpositions: one
    # table per level, and reading it again labels no element
    verify_conv_cubic(6)
    T = trivial_group()
    for n in range(2, 7):
        lvl = wreath_level(T, n)
        assert len(lvl._class_counts[transposition_type(n)]) == len(lvl.types)
    monkeypatch.setattr(WreathLevel, "label", None)
    verify_conv_cubic(6)


def test_lehn_sorger_reads_one_class_table_per_level(monkeypatch):
    # lehn-sorger convolves every class of S_n by the transpositions, so of
    # each level it reads the table of the transposition class only
    read = set()
    class_counts = WreathLevel.class_counts

    def record(self, sigma, rows):
        read.add((self.n, sigma))
        return class_counts(self, sigma, rows)

    monkeypatch.setattr(WreathLevel, "class_counts", record)
    lehn_sorger_check(8)
    assert read == {(n, transposition_type(n)) for n in range(2, 9)}
