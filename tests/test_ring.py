import itertools
import random
from fractions import Fraction

import pytest

from pmq.catalog import (
    natural_truncation,
    natural_with_double_one,
    pointed_set_pmq,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
    unit_pmq,
)
from pmq.errors import PreconditionError
from pmq.properties import property_report
from pmq.ring import (
    augmentation,
    class_sum,
    class_sum_centrality,
    degree2_kernel,
    dual_relators_span_annihilator,
    invariant_basis_is_class_sums,
    pbw_check_sdgeo,
    quadratic_dual,
    quadratic_presentation,
    quadratic_quotient_dimensions,
    relator_span_dimension,
    ring_mul,
)

from helpers import shuffled_orders


def test_basis_product_rule():
    q = sym_geodesic_pmq(3)
    t12, t23, t13 = q.index("213"), q.index("132"), q.index("321")
    unit = {q.unit: 1}
    x = {t12: 2, t23: -1}
    assert ring_mul(q, unit, x) == x
    assert ring_mul(q, {t12: 1}, {t12: 1}) == {}
    assert ring_mul(q, {t12: 1}, {t23: 1}) == ring_mul(q, {t23: 1}, {t13: 1})


def test_triple_relation_cycle():
    # <xy><yz> = <yz><zx> = <zx><xy> for distinct x, y, z
    q = sym_geodesic_pmq(4)
    from pmq.symgeo import perm_label, transposition

    for x, y, z in itertools.permutations(range(1, 5), 3):
        a = q.index(perm_label(transposition(4, x, y)))
        b = q.index(perm_label(transposition(4, y, z)))
        c = q.index(perm_label(transposition(4, z, x)))
        p1 = ring_mul(q, {a: 1}, {b: 1})
        p2 = ring_mul(q, {b: 1}, {c: 1})
        p3 = ring_mul(q, {c: 1}, {a: 1})
        assert p1 == p2 == p3 != {}


def test_disjoint_transpositions_commute():
    q = sym_geodesic_pmq(4)
    a, b = q.index("2134"), q.index("1243")  # (1,2) and (3,4)
    assert ring_mul(q, {a: 1}, {b: 1}) == ring_mul(q, {b: 1}, {a: 1}) != {}


def test_ring_mul_mod_p():
    q = natural_truncation(2)
    one = q.index("1")
    assert ring_mul(q, {one: 3}, {one: 1}, mod=3) == {}
    assert ring_mul(q, {one: 4}, {one: 1}, mod=3) == {q.index("2"): 1}


def test_associativity_sampled():
    q = sym_geodesic_pmq(3)
    rng = random.Random(0)
    for _ in range(40):
        x = {rng.randrange(len(q)): rng.randint(-2, 2) for _ in range(2)}
        y = {rng.randrange(len(q)): rng.randint(-2, 2) for _ in range(2)}
        z = {rng.randrange(len(q)): rng.randint(-2, 2) for _ in range(2)}
        assert ring_mul(q, ring_mul(q, x, y), z) == ring_mul(q, x, ring_mul(q, y, z))


def test_augmentation_is_ring_map_iff_augmented():
    q = sym_geodesic_pmq(3)
    rng = random.Random(1)
    for _ in range(30):
        x = {rng.randrange(len(q)): rng.randint(-2, 2)}
        y = {rng.randrange(len(q)): rng.randint(-2, 2)}
        assert augmentation(q, ring_mul(q, x, y)) == augmentation(q, x) * augmentation(q, y)
    # on a non-augmented structure the multiplicativity fails somewhere
    from pmq.catalog import cyclic_group, group_pmq

    g = group_pmq(cyclic_group(2))
    x = {1: 1}
    assert augmentation(g, ring_mul(g, x, x)) != augmentation(g, x) ** 2


def test_grading_on_homogeneous_elements():
    q = sym_geodesic_pmq(3)
    norm = q.norm
    for a in range(len(q)):
        for b in range(len(q)):
            out = ring_mul(q, {a: 1}, {b: 1})
            for c in out:
                assert norm[c] == norm[a] + norm[b]


def test_class_sums_central():
    assert class_sum_centrality(sym_geodesic_pmq(4))
    assert class_sum_centrality(natural_truncation(3))
    assert class_sum_centrality(segre_pmq())


def test_class_sum_centrality_fails_on_mutated_table():
    # deleting one defined product leaves an invalid structure whose class
    # sums are no longer central
    q = sym_geodesic_pmq(3)
    prod = dict(q.prod)
    del prod[(q.index("213"), q.index("132"))]
    from pmq.core import FinitePmq, validate

    broken = FinitePmq.build(q.labels, q.unit, q.conj, prod, q.norm)
    assert not validate(broken).ok
    assert not class_sum_centrality(broken)


def test_invariant_subring_basis():
    for q in (sym_geodesic_pmq(3), natural_truncation(2), transposition_quandle(3)):
        assert invariant_basis_is_class_sums(q)


def test_quadratic_dimensions_sdgeo():
    dims3 = quadratic_quotient_dimensions(sym_geodesic_pmq(3), 4)
    assert [(d, a) for d, a, _ in dims3] == [(0, 1), (1, 3), (2, 2), (3, 0), (4, 0)]
    assert all(a == c for _, a, c in dims3)
    dims4 = quadratic_quotient_dimensions(sym_geodesic_pmq(4), 4)
    assert all(a == c for _, a, c in dims4)
    assert [a for _, a, _ in dims4] == [1, 6, 11, 6, 0]


def dense_rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        nonzero = [(j, v / mat[rank][col]) for j, v in enumerate(mat[rank]) if v]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if f:
                for j, v in nonzero:
                    mat[r][j] -= f * v
        rank += 1
    return rank


def tensor_quotient_dims_oracle(q, max_degree: int) -> list[int]:
    """dim A_n = k^n - rank_Q(sum_i V^i (x) R (x) V^(n-2-i)), by dense
    elimination on the whole tensor space: no normal forms of lower degrees."""
    pres = quadratic_presentation(q, require_tame=False)
    k = len(pres.generators)
    relators = pres.relator_vectors()
    dims = []
    for n in range(max_degree + 1):
        words = {w: i for i, w in enumerate(itertools.product(range(k), repeat=n))}
        rows = []
        for i in range(n - 1):
            for pre in itertools.product(range(k), repeat=i):
                for post in itertools.product(range(k), repeat=n - 2 - i):
                    for rel in relators:
                        row = [Fraction(0)] * len(words)
                        for pair, c in rel.items():
                            row[words[pre + pair + post]] += c
                        rows.append(row)
        dims.append(len(words) - dense_rank(rows))
    return dims


@pytest.mark.parametrize(
    "q,max_degree",
    [
        (sym_geodesic_pmq(3), 4),
        (sym_geodesic_pmq(4), 3),
        (natural_truncation(1), 4),
        (natural_truncation(2), 4),
        (natural_truncation(3), 4),
        (segre_pmq(), 3),
        (transposition_quandle(3), 5),
        (natural_with_double_one(3), 5),
        (unit_pmq(), 3),
    ],
    ids=["S3", "S4", "trunc1", "trunc2", "trunc3", "segre", "tq3", "double1", "unit"],
)
def test_quadratic_dimensions_match_tensor_space_oracle(q, max_degree):
    dims = quadratic_quotient_dimensions(q, max_degree)
    assert [d for d, _, _ in dims] == list(range(max_degree + 1))
    assert [a for _, a, _ in dims] == tensor_quotient_dims_oracle(q, max_degree)


@pytest.mark.parametrize(
    "q,max_degree",
    [
        (sym_geodesic_pmq(4), 4),
        (natural_truncation(3), 5),
        (segre_pmq(), 3),
        (natural_with_double_one(3), 5),
    ],
    ids=["S4", "trunc3", "segre", "double1"],
)
def test_quadratic_dimensions_invariant_under_declaration_order(q, max_degree):
    first, *others = [quadratic_quotient_dimensions(p, max_degree) for p in shuffled_orders(q)]
    assert others == [first, first]


def test_quadratic_dimensions_s5_to_degree_5():
    dims = quadratic_quotient_dimensions(sym_geodesic_pmq(5), 5)
    assert [a for _, a, _ in dims] == [1, 10, 35, 50, 24, 0]
    assert all(a == c for _, a, c in dims)


def test_quadratic_dimensions_s6_to_degree_6():
    dims = quadratic_quotient_dimensions(sym_geodesic_pmq(6), 6)
    assert [a for _, a, _ in dims] == [1, 15, 85, 225, 274, 120, 0]
    assert all(a == c for _, a, c in dims)


def test_quadratic_dimensions_x_squared():
    dims = quadratic_quotient_dimensions(natural_truncation(1), 4)
    assert [a for _, a, _ in dims] == [1, 1, 0, 0, 0]


def test_segre_needs_the_extra_relator():
    seg = segre_pmq()
    with pytest.raises(PreconditionError) as err:
        quadratic_presentation(seg)
    assert err.value.failed == "coconnected"
    # without the tameness gate the two relator families miss one identification
    dims = quadratic_quotient_dimensions(seg, 3)
    assert [(d, a, c) for d, a, c in dims] == [(0, 1, 1), (1, 4, 4), (2, 2, 1), (3, 0, 0)]
    # the full degree-2 kernel has the identification and matches the census
    kernel = degree2_kernel(seg)
    assert relator_span_dimension(kernel, 4) == 16 - 1
    # its extra generator is the difference of the two defined products
    pres = quadratic_presentation(seg, require_tame=False)
    assert relator_span_dimension(pres.relator_vectors(), 4) == 16 - 2


@pytest.mark.parametrize(
    "make,failed",
    [
        (lambda: pointed_set_pmq({"x": 2}), "maximally_decomposable"),
        (segre_pmq, "coconnected"),
        (lambda: natural_truncation(3), "pairwise_determined"),
        (lambda: sym_geodesic_pmq(3), None),
    ],
    ids=["pointed-set", "segre", "natural3", "S3"],
)
def test_tame_refusal_names_the_first_failed_hypothesis(make, failed):
    q = make()
    assert property_report(q).first_failed() == failed
    for build in (quadratic_presentation, quadratic_dual):
        if failed is None:
            build(q)
            continue
        with pytest.raises(PreconditionError) as err:
            build(q)
        assert err.value.failed == failed


def test_quadratic_presentation_refuses_non_maxdec():
    with pytest.raises(PreconditionError):
        quadratic_presentation(pointed_set_pmq({"x": 2}), require_tame=False)


def test_quadratic_dual_examples():
    dual = quadratic_dual(natural_truncation(2), require_tame=False)
    assert dual.generators == ("1",)
    assert dual.relators == (("2", ((0, 0),)),)
    dual3 = quadratic_dual(sym_geodesic_pmq(3))
    assert len(dual3.relators) == 2
    assert all(len(pairs) == 3 for _, pairs in dual3.relators)
    assert quadratic_dual(unit_pmq(), require_tame=False).relators == ()


def test_dual_relators_span_annihilator():
    assert dual_relators_span_annihilator(sym_geodesic_pmq(3))
    assert dual_relators_span_annihilator(sym_geodesic_pmq(4))
    assert dual_relators_span_annihilator(natural_truncation(1))


@pytest.mark.parametrize("d,total", [(2, 2), (3, 6), (4, 24), (5, 120)])
def test_pbw_census(d, total):
    ok, census = pbw_check_sdgeo(d)
    assert ok
    assert sum(census.values()) == total
