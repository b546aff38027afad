import inspect
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import moves_by_restarted_walk, run_optimised
from pmq.errors import PreconditionError
from pmq.free import (
    Conj,
    Leaf,
    braid_act,
    braid_act_word,
    decomposition_to_gd,
    fq_decompose,
    fq_element,
    free_reduce,
    gd_evaluate,
    gd_formal_word,
    gd_to_decomposition,
    gd_weight,
    evaluate_pair_map,
    normalize_decomposition,
    prod_of,
    word_conj,
    word_conj_inv,
    _DROP,
    _Walk,
)
from pmq.symgeo import sym_geodesic_pair

letters = st.integers(-4, 4).filter(lambda x: x != 0)


def test_free_reduce_examples():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((-2, 1, 2)) == (-2, 1, 2)
    assert free_reduce((1, 2, -2, 3)) == (1, 3)


@settings(max_examples=100)
@given(st.lists(letters, max_size=12))
def test_free_reduce_idempotent_and_no_cancelling_pair(word):
    red = free_reduce(word)
    assert free_reduce(red) == red
    assert all(red[i] != -red[i + 1] for i in range(len(red) - 1))


def test_fq_decompose_normal_forms():
    assert fq_decompose((-2, 1, 2), 2, 1) == (1, (2,))
    assert fq_decompose((1,), 2, 2) == (1, ())
    assert fq_decompose((), 2, 2) == (0, ())
    assert fq_decompose((1, 2), 2, 2) is None          # two unit entries abelianised
    assert fq_decompose((-2, 1, 2), 2, 0) is None      # generator index above l
    assert fq_decompose((-1, 1, 1), 3, 1) == (1, ())   # reduces to x_1


@settings(max_examples=100)
@given(st.integers(1, 3), st.lists(letters.filter(lambda x: abs(x) <= 3), max_size=6))
def test_fq_decompose_round_trip(nu, w):
    g = fq_element(nu, tuple(w))
    nf = fq_decompose(g, 3, 3)
    assert nf is not None
    assert fq_element(*nf) == g


def test_evaluate_pair_map_examples():
    pair = sym_geodesic_pair(3)
    q = pair.pmq
    t12, t23, t13 = q.index("213"), q.index("132"), q.index("321")
    # x_1 -> first target
    assert evaluate_pair_map(pair, [t12, t23], [], (1,)) == t12
    # x_1^(x_2) -> (1,2)^(2,3) = (1,3)
    assert evaluate_pair_map(pair, [t12, t23], [], (-2, 1, 2)) == t13
    # x_1^(x_1^-1 x_1 x_1) uses a^a = a
    assert evaluate_pair_map(pair, [t12, t23], [], (-1, 1, 1)) == t12


def test_gd_weights_and_values():
    # the same element written with weights 3, 5, 7, 9 and 11; only the
    # weight-3 tree computes it without cancellation
    g3 = prod_of(Leaf(3), Conj(prod_of(Leaf(2), Conj(Leaf(1), 2, 1)), 3, 1))
    cases = [
        (prod_of(Leaf(1), Leaf(2), Leaf(3)), 3),
        (prod_of(Leaf(2), Conj(Leaf(1), 2, 1), Leaf(3)), 5),
        (g3, 7),
        (prod_of(Leaf(3), Conj(Leaf(2), 3, 1), Conj(Conj(Leaf(1), 2, 1), 3, 1)), 9),
        (Conj(Conj(g3, 4, 1), 4, -1), 11),
    ]
    for gd, weight in cases:
        word, cancellation = gd_evaluate(gd)
        assert gd_weight(gd) == weight == len(word)
        assert free_reduce(word) == (1, 2, 3)
        assert cancellation == (weight > 3)


def test_gd_round_trip_through_decomposition():
    factors = [(2, ()), (1, (2,)), (3, ())]
    gd = decomposition_to_gd(factors)
    assert gd_to_decomposition(gd) == [fq_element(nu, w) for nu, w in factors]


def test_normalize_single_move_example():
    # (x_2, x_1^(x_2)) returns to (x_1, x_2) in one move
    factors = [(2, ()), (1, (2,))]
    log = normalize_decomposition(factors, 2, 2)
    assert log == [-1]
    words = [fq_element(nu, w) for nu, w in factors]
    assert braid_act_word(words, log) == ((1,), (2,))


def test_normalize_identity_input_is_empty_log():
    factors = [(1, ()), (2, ()), (3, ())]
    assert normalize_decomposition(factors, 3, 3) == []


def test_normalize_checks_hold_under_optimisation():
    # wrong weight bookkeeping is refused by an explicit raise, not an
    # assert that python -O strips
    run = run_optimised(
        "import pmq.free as fr\n"
        "fr._DROP = dict.fromkeys(fr._DROP, 1)\n"
        "try:\n"
        "    fr.normalize_decomposition([(2, ()), (1, (2,))], 2, 2)\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "weight bookkeeping out of sync\n"


def test_normalize_rejects_wrong_product():
    with pytest.raises(PreconditionError):
        normalize_decomposition([(2, ()), (1, ())], 2, 2)


def test_factor_count_is_invariant_under_moves():
    rng = random.Random(11)
    for _ in range(50):
        r = rng.randint(2, 4)
        words = [fq_element(i, ()) for i in range(1, r + 1)]
        for _ in range(12):
            i = rng.randint(1, r - 1)
            words = braid_act_word(words, [rng.choice([i, -i])])
        assert len(words) == r
        assert all(fq_decompose(w, r, r) is not None for w in words)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_normalize_round_trip_random(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 4)
    words = [fq_element(i, ()) for i in range(1, r + 1)]
    for _ in range(12):
        if r < 2:
            break
        i = rng.randint(1, r - 1)
        words = braid_act_word(words, [rng.choice([i, -i])])
    factors = [fq_decompose(w, r, r) for w in words]
    log = normalize_decomposition(factors, r, r)
    assert braid_act_word(words, log) == tuple((i,) for i in range(1, r + 1))


L1, L2, L3, L4 = (Leaf(i) for i in range(1, 5))

# one tree per shape, each matching first at that shape: (shape, tree, the
# tree after one rewrite step, its moves)
SHAPES = [
    # y^(x_3) . z^(x_3) -> (y . z)^(x_3), and with x_3^-1
    (1, prod_of(L4, Conj(L1, 3, 1), Conj(L2, 3, 1)), prod_of(L4, Conj(prod_of(L1, L2), 3, 1)), []),
    (2, prod_of(L4, Conj(L1, 3, -1), Conj(L2, 3, -1)), prod_of(L4, Conj(prod_of(L1, L2), 3, -1)), []),
    # x_3 . y^(x_3) -> y . x_3, in a product and at a conjugation
    (3, prod_of(L4, L3, Conj(prod_of(L1, L2), 3, 1)), prod_of(L4, L1, L2, L3), [-2, -3]),
    (3, prod_of(L4, Conj(prod_of(L3, L1, L2), 3, 1)), prod_of(L4, L1, L2, L3), [-2, -3]),
    # y^(x_3^-1) . x_3 -> x_3 . y, in a product and at a conjugation
    (4, prod_of(L4, Conj(prod_of(L1, L2), 3, -1), L3), prod_of(L4, L3, L1, L2), [3, 2]),
    (4, prod_of(L4, Conj(prod_of(L1, L2, L3), 3, -1)), prod_of(L4, L3, L1, L2), [3, 2]),
    # (y^g)^(g^-1) -> y
    (5, prod_of(L2, Conj(Conj(L1, 3, 1), 3, -1)), prod_of(L2, L1), []),
    # (y . z^(x_3))^(x_3^-1) -> y^(x_3^-1) . z
    (6, Conj(prod_of(L1, Conj(L2, 3, 1)), 3, -1), prod_of(Conj(L1, 3, -1), L2), []),
    # (y^(x_3) . z)^(x_3^-1) -> y . z^(x_3^-1)
    (7, Conj(prod_of(Conj(L1, 3, 1), L2), 3, -1), prod_of(L1, Conj(L2, 3, -1)), []),
    # (y . z^(x_3^-1))^(x_3) -> y^(x_3) . z
    (8, Conj(prod_of(L1, Conj(L2, 3, -1)), 3, 1), prod_of(Conj(L1, 3, 1), L2), []),
    # (y^(x_3^-1) . z)^(x_3) -> y . z^(x_3)
    (9, Conj(prod_of(Conj(L1, 3, -1), L2), 3, 1), prod_of(L1, Conj(L2, 3, 1)), []),
    # x_i^(x_i) -> x_i
    (10, prod_of(L2, Conj(L1, 1, 1)), prod_of(L2, L1), []),
]


def test_shape_table_covers_all_ten_shapes():
    assert {shape for shape, *_ in SHAPES} == set(range(1, 11))


@pytest.mark.parametrize("shape, tree, after, moves", SHAPES)
def test_rewrite_step_on_each_shape(shape, tree, after, moves):
    walk = _Walk(tree)
    step_moves, step_shape = walk.step()
    new = walk.tree()
    assert (step_shape, new, step_moves) == (shape, after, moves)
    assert free_reduce(gd_formal_word(new)) == free_reduce(gd_formal_word(tree))
    assert gd_weight(tree) - gd_weight(new) == _DROP[shape]
    # the moves carry the factor sequence of the old tree to that of the new
    assert braid_act_word(gd_to_decomposition(tree), step_moves) == tuple(gd_to_decomposition(new))


def test_normalize_chain_deeper_than_recursion_limit():
    # 300 positive moves on (x_1, x_2) conjugate both factors by
    # (x_1 x_2)^150, so each factor's tree is a chain of ~300 conjugations;
    # the limit is lowered to ~100 frames above the current depth
    words = braid_act_word([(1,), (2,)], [1] * 300)
    factors = [fq_decompose(w, 2, 2) for w in words]
    old = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + 100
    assert min(len(w) for _, w in factors) > limit
    sys.setrecursionlimit(limit)
    try:
        log = normalize_decomposition(factors, 2, 2)
    finally:
        sys.setrecursionlimit(old)
    assert braid_act_word(words, log) == ((1,), (2,))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_resumed_walk_matches_restarted_walk(seed):
    # the walk resumes where each replacement stands; a walk restarted at
    # the root finds the same rewrites, so the move logs are equal
    rng = random.Random(seed)
    r = rng.randint(1, 5)
    words = [fq_element(i, ()) for i in range(1, r + 1)]
    for _ in range(rng.randint(0, 30)):
        if r < 2:
            break
        i = rng.randint(1, r - 1)
        words = braid_act_word(words, [rng.choice([i, -i])])
    factors = [fq_decompose(w, r, r) for w in words]
    assert normalize_decomposition(factors, r, r) == moves_by_restarted_walk(factors)


def test_normalize_is_not_quadratic_in_the_conjugator_length():
    # 1300 positive moves on (x_1, x_2): two conjugation chains of ~1300;
    # restarting the walk at the root after every rewrite took ~3-4 s
    words = braid_act_word([(1,), (2,)], [1] * 1300)
    factors = [fq_decompose(w, 2, 2) for w in words]
    start = time.perf_counter()
    log = normalize_decomposition(factors, 2, 2)
    assert time.perf_counter() - start < 1
    assert log == [-1] * 1300
    assert braid_act_word(words, log) == ((1,), (2,))


def test_letters_outside_group_rejected():
    from pmq.errors import StructureError

    with pytest.raises(StructureError):
        fq_decompose((5,), 3, 3)
    with pytest.raises(StructureError):
        free_reduce((1, 0, 2))


def test_braid_act_index_errors():
    words = (fq_element(1, ()), fq_element(2, ()))
    with pytest.raises(IndexError):
        braid_act_word(words, [2])
    with pytest.raises(IndexError):
        braid_act_word(words, [0])


def test_braid_act_word_inverse_pairs():
    words = (fq_element(1, ()), fq_element(2, (1,)))
    assert braid_act_word(braid_act_word(words, [1]), [-1]) == words
    assert braid_act_word(braid_act_word(words, [-1]), [1]) == words


def test_braid_act_preserves_group_product():
    rng = random.Random(5)
    for _ in range(40):
        words = tuple(
            free_reduce(tuple(rng.choice([-2, -1, 1, 2]) for _ in range(3)))
            for _ in range(3)
        )
        from pmq.free import word_mul

        before = word_mul(*words)
        i = rng.randint(1, 2)
        after = braid_act(words, i, rng.choice([1, -1]), word_conj, word_conj_inv)
        assert word_mul(*after) == before
