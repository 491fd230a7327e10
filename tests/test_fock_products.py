"""The normal products kept on a Fock space, and the W^k_n that read them.

`coproduct_power` reads the algebra's trace form trace(e_i e_a e_b) and
must give the list of the `alg.mul` loop it replaced
(`reference_fock.mul_coproduct_power`), order included.  `W_operator`
merges the coproduct terms with the same factors and adds each kept normal
product once; its blocks must equal, entry by entry, those of the W^k_n that
added every term on its own (`reference_fock.unmerged_W_operator`).  Even
normal products commute, block by block.  A second W^k_n on the same
algebra builds no new product block, and equals the same operator built on
a fresh space with the same colors.

`W_operator` keys the coproduct terms by dual basis index; its blocks must
keep the entries, their order and the denominator of the W that keyed them
by tuples of Fraction tuples (`reference_fock.tuple_W_operator`), also for
an element whose split has no first term e^0 (x) e^0, and on a model whose
dual basis elements sort in the reverse of their index order.  However many
elements it is built for, it keeps no field but those of the dual basis,
and no product of any other field."""

import random
from fractions import Fraction

import pytest
import reference_fock as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fock_blocks import FRACTION_TRACE_P2, MODELS, json_model

from wfk.fock import ColorSpace, FockVector, W_operator, coproduct_power, normal_order, p2_model

WEIGHT = 4


def random_element(alg, rng: random.Random) -> tuple:
    return alg.element({lab: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for lab in alg.labels})


def values(block: tuple) -> list[dict]:
    """The entries of each column of a block as Fractions, whatever the
    block's denominator."""
    cols, den = block
    return [{r: Fraction(x, den) for r, x in col.items()} for col in cols]


def negative_trace_p2():
    """p2 with trace(1) = 1/5 and trace(h^2) = -3/2: its dual basis elements
    sort in the reverse of their index order."""
    return json_model(dict(FRACTION_TRACE_P2, trace={"1": ["1", "5"], "h2": ["-3", "2"]}))


PRODUCT_MODELS = {**MODELS, "negative-trace": negative_trace_p2}


@pytest.mark.parametrize("model", ["point", "p2", "fraction-trace", "negative-trace"])
def test_coproduct_power_is_the_mul_loop(model):
    alg = PRODUCT_MODELS[model]()
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


def test_negative_trace_duals_sort_in_reverse():
    alg = negative_trace_p2()
    assert alg.dual_rank == [2, 1, 0]
    assert sorted(alg.dual_basis(d) for d in range(3)) == [alg.dual_basis(d) for d in (2, 1, 0)]


def exact_block(block: tuple) -> tuple:
    """A block as it is kept: the entries of each column in key order, and
    the denominator."""
    cols, den = block
    return [list(col.items()) for col in cols], den


def first_split_zero(alg) -> tuple:
    """An element alpha with trace(alpha e_0 e_0) = trace(alpha) = 0, so
    that the split of alpha has no term e^0 (x) e^0, the first in (a, b)
    order and the first of the sorted keys of W; zero on a model of one
    basis element."""
    if alg.trace_vec[0]:
        return alg.element({alg.labels[0]: alg.trace_vec[-1], alg.labels[-1]: -alg.trace_vec[0]})
    return alg.element({lab: i + 1 for i, lab in enumerate(alg.labels[:-1])})


@pytest.mark.parametrize("model", ["p2", "fraction-trace", "negative-trace"])
def test_first_split_zero_coproduct_is_the_mul_loop(model):
    alg = PRODUCT_MODELS[model]()
    alpha = first_split_zero(alg)
    assert alpha != alg.zero() and alg.trace(alpha) == 0
    for k in (2, 3, 4):
        got = coproduct_power(alg, alpha, k)
        want = ref.mul_coproduct_power(alg, alpha, k)
        assert [((type(c), c), f) for c, f in got] == [((type(c), c), f) for c, f in want]
        if k == 2:
            assert all(f != [list(alg.dual_basis(0))] * 2 for _, f in got)


@pytest.mark.parametrize("model", ["point", "p2", "fraction-trace", "negative-trace"])
@pytest.mark.parametrize("k", [2, 3])
def test_W_blocks_keep_the_term_order_of_the_tuple_keys(model, k):
    # the blocks of W^k_n, keyed by dual basis index, equal those of the W
    # that keyed its terms by tuples of Fraction tuples, entry by entry in
    # key order and over the same denominator
    alg = PRODUCT_MODELS[model]()
    space = ColorSpace.of_algebra(alg)
    rng = random.Random(f"tuple-keys-{model}-{k}")
    weight = WEIGHT if k == 2 else 3
    alphas = [alg.unit, first_split_zero(alg)] + [random_element(alg, rng) for _ in range(3)]
    assert alg.dim == 1 or alphas[1] != alg.zero()
    for alpha in alphas:
        for n in range(-3, 4):
            op = W_operator(alg, k, n, alpha, weight, space)
            want = ref.tuple_W_operator(alg, k, n, alpha, weight, space)
            for d in range(weight + 1):
                assert exact_block(op.block(d)) == exact_block(want.block(d)), (alpha, n, d)


def test_W_operators_keep_only_dual_basis_state():
    # W^2 and W^3 of 200 random elements each build their normal products
    # from the fields of the dual basis the space built with the algebra, and
    # keep no field or product of any other element
    alg = p2_model()
    space = alg.space
    duals = {tuple(alg.dual_basis(d)) for d in range(alg.dim)}
    assert set(space.fields) == duals
    assert [f.alpha for f in space.dual_fields] == [alg.dual_basis(d) for d in range(alg.dim)]
    rng = random.Random("kept-state")
    vector = FockVector(space, {m: 1 for w in range(3) for m in space.grade(w)[0]})
    for i in range(200):
        for k in (2, 3):
            op = W_operator(alg, k, rng.randint(-3, 3), random_element(alg, rng), 5)
            if i % 20 == 0:
                op.apply(vector)
    assert set(space.fields) == duals
    kept = {id(f) for f in space.dual_fields}
    assert space.products
    assert all(id(f) in kept for fields, _ in space.products for f in fields)
