"""The normal products kept on a Fock space, and the W^k_n that read them.

`coproduct_power` reads the algebra's trace form trace(e_i e_a e_b) and
must give the list of the `alg.mul` loop it replaced
(`reference_fock.mul_coproduct_power`), order included.  `W_operator`
merges the coproduct terms with the same factors and adds each kept normal
product once; its blocks must equal, entry by entry, those of the W^k_n that
added every term on its own (`reference_fock.unmerged_W_operator`).  Even
normal products commute, block by block.  A second W^k_n on the same
algebra builds no new product block, and equals the same operator built on
a fresh space with the same colors."""

import random
from fractions import Fraction

import pytest
import reference_fock as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fock_blocks import MODELS

from wfk.fock import ColorSpace, W_operator, coproduct_power, normal_order, p2_model

WEIGHT = 4


def random_element(alg, rng: random.Random) -> tuple:
    return alg.element({lab: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for lab in alg.labels})


def values(block: tuple) -> list[dict]:
    """The entries of each column of a block as Fractions, whatever the
    block's denominator."""
    cols, den = block
    return [{r: Fraction(x, den) for r, x in col.items()} for col in cols]


@pytest.mark.parametrize("model", ["point", "p2", "fraction-trace"])
def test_coproduct_power_is_the_mul_loop(model):
    alg = MODELS[model]()
    rng = random.Random(model)
    elements = [alg.basis(i) for i in range(alg.dim)] + [random_element(alg, rng)
                                                         for _ in range(3)]
    for alpha in elements:
        for k in range(1, 5):
            assert coproduct_power(alg, alpha, k) == ref.mul_coproduct_power(alg, alpha, k), \
                (alpha, k)


@pytest.mark.parametrize("model", ["p2", "fraction-trace"])
@pytest.mark.parametrize("k", [2, 3])
def test_merged_W_blocks_are_the_unmerged_ones(model, k):
    alg = MODELS[model]()
    space = ColorSpace.of_algebra(alg)
    rng = random.Random(f"{model}-{k}")
    weight = WEIGHT if k == 2 else 3
    for alpha in [alg.unit] + [random_element(alg, rng) for _ in range(3)]:
        for n in range(-3, 4):
            merged = W_operator(alg, k, n, alpha, weight, space)
            unmerged = ref.unmerged_W_operator(alg, k, n, alpha, weight, space)
            for d in range(weight + 1):
                assert values(merged.block(d)) == values(unmerged.block(d)), (alpha, n, d)


P2 = p2_model()
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(a=st.tuples(small, small, small), b=st.tuples(small, small, small),
       n=st.integers(-3, 3))
def test_even_normal_products_commute(a, b, n):
    ab = normal_order(P2, [a, b], WEIGHT, n)
    ba = normal_order(P2, [b, a], WEIGHT, n)
    for d in range(WEIGHT + 1):
        assert values(ab.block(d)) == values(ba.block(d)), d


def kept_blocks(space: ColorSpace) -> dict:
    return {key: len(op.blocks) for key, op in space.products.items()}


@pytest.mark.parametrize("k", [2, 3])
def test_second_W_operator_builds_no_product_block(k):
    alg = p2_model()
    weight = WEIGHT if k == 2 else 3
    # an element with every coefficient nonzero reaches every product of
    # dual-basis fields that any other element does
    full = alg.element({"1": 2, "h": -1, "h2": 3})
    other = alg.element({"1": Fraction(1, 2), "h2": -2})
    for n in range(-2, 3):
        first = W_operator(alg, k, n, full, weight)
        for d in range(weight + 1):
            first.block(d)
    kept = kept_blocks(alg.space)
    assert kept
    fresh = ColorSpace(alg.labels, alg.parities, [list(row) for row in alg.pairing],
                       name=alg.name)
    assert fresh == alg.space and fresh is not alg.space
    for n in range(-2, 3):
        second = W_operator(alg, k, n, other, weight)
        again = W_operator(alg, k, n, other, weight, fresh)
        for d in range(weight + 1):
            assert values(second.block(d)) == values(again.block(d)), (n, d)
    assert kept_blocks(alg.space) == kept
    assert fresh.products
