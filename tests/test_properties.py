import dataclasses
import itertools
import random

import pytest

import pmq.properties
from pmq.barhur import poincare_report
from pmq.catalog import (
    cyclic_group,
    group_pmq,
    natural_truncation,
    natural_with_double_one,
    norm_one_truncation,
    pointed_set_pmq,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
    unit_pmq,
)
from pmq.core import validate
from pmq.errors import PreconditionError
from pmq.properties import (
    decomposition_classes,
    decompositions,
    intrinsic_pseudonorm,
    is_augmented,
    is_coconnected,
    is_maximally_decomposable,
    is_pairwise_determined,
    property_report,
    validate_norm,
)
from pmq.ring import quadratic_dual, quadratic_presentation

from helpers import relabelled, shuffled_orders


def test_group_is_not_augmented():
    ok, witness = is_augmented(group_pmq(cyclic_group(3)))
    assert not ok and witness is not None


def test_normed_structures_are_augmented():
    for q in (sym_geodesic_pmq(3), natural_truncation(3), transposition_quandle(3)):
        assert is_augmented(q) == (True, None)


def test_intrinsic_pseudonorm_examples():
    q = natural_truncation(3)
    assert intrinsic_pseudonorm(q) == {"0": 0, "1": 1, "2": 2, "3": 3}
    q3 = sym_geodesic_pmq(3)
    assert intrinsic_pseudonorm(q3) == {
        q3.labels[a]: q3.norm[a] for a in range(len(q3))
    }
    # a non-augmented structure keeps growing and hits the bound
    g = group_pmq(cyclic_group(2))
    assert intrinsic_pseudonorm(g, bound=5) == "unbounded at bound 5"


def test_maximally_decomposable():
    assert is_maximally_decomposable(sym_geodesic_pmq(4)) == (True, None)
    assert is_maximally_decomposable(unit_pmq()) == (True, None)
    ok, witness = is_maximally_decomposable(pointed_set_pmq({"x": 2}))
    assert not ok and witness == "x"


def test_coconnected_examples():
    assert is_coconnected(natural_truncation(3))[0]
    assert is_coconnected(sym_geodesic_pmq(3))[0]
    ok, counts = is_coconnected(natural_with_double_one(3))
    assert not ok
    assert counts["2"] == 3


def test_four_decompositions_three_classes():
    q = natural_with_double_one(3)
    two = q.index("2")
    assert len(decompositions(q, two)) == 4
    classes = decomposition_classes(q, two)
    assert sorted(len(c) for c in classes) == [1, 1, 2]


def test_coconnected_requires_max_decomposable():
    with pytest.raises(PreconditionError):
        is_coconnected(pointed_set_pmq({"x": 2}))


def test_pairwise_determined_examples():
    # {0..n} with n >= 2: the all-ones overflow sequence is frozen
    status, r_max, witness = is_pairwise_determined(natural_truncation(3))
    assert status is False
    assert witness == ("1", "1", "1", "1")
    # the doubled-one monoid is fine below the truncation overflow
    status, _, _ = is_pairwise_determined(natural_with_double_one(3), r_max=3)
    assert status is True
    assert is_pairwise_determined(sym_geodesic_pmq(3))[0] is True
    assert is_pairwise_determined(sym_geodesic_pmq(4))[0] is True


def test_validate_norm_examples():
    q = natural_truncation(3)
    assert validate_norm(q, [0, 1, 2, 3]) == (True, None)
    assert validate_norm(q, [0, 1, 2, 2])[0] is False
    g = group_pmq(cyclic_group(2))
    assert validate_norm(g, [0, 1])[0] is False   # no norm on a nontrivial group
    q3 = sym_geodesic_pmq(3)
    assert validate_norm(q3, q3.norm) == (True, None)


@pytest.mark.parametrize("q", [sym_geodesic_pmq(3), natural_truncation(3), segre_pmq()])
def test_validate_norm_is_the_first_norm_violation(q):
    rng = random.Random(len(q))
    for _ in range(100):
        norm = [rng.randrange(4) for _ in range(len(q))]
        first = next(
            (v for v in validate(dataclasses.replace(q, norm=norm)).violations
             if v.axiom.startswith("norm-")),
            None,
        )
        expected = (True, None) if first is None else (False, first.witness)
        assert validate_norm(q, norm) == expected


def test_property_report_shapes():
    rep = property_report(sym_geodesic_pmq(3))
    assert rep.augmented and rep.maximally_decomposable and rep.coconnected
    assert rep.locally_finite == "true (by norm)"
    assert rep.pairwise_determined is True and rep.r_max == 3
    data = rep.to_json()
    assert data["pairwise_determined"]["status"] is True

    rep2 = property_report(natural_with_double_one(3), r_max=3)
    assert rep2.coconnected is False
    assert rep2.class_counts["2"] == 3


@pytest.mark.parametrize(
    "decide",
    [property_report, quadratic_presentation, quadratic_dual, lambda q: poincare_report(q, 1)],
    ids=["property_report", "quadratic_presentation", "quadratic_dual", "poincare_report"],
)
def test_one_norm_one_completion_per_tameness_decision(monkeypatch, decide):
    # the coconnected count and the pairwise check share one completion
    truncations = []

    def counting(q):
        truncations.append(q)
        return norm_one_truncation(q)

    monkeypatch.setattr(pmq.properties, "norm_one_truncation", counting)
    decide(sym_geodesic_pmq(3))
    assert len(truncations) == 1


def test_decomposition_classes_partition_the_decompositions():
    for q in (sym_geodesic_pmq(4), natural_truncation(3)):
        for a in range(len(q)):
            classes = decomposition_classes(q, a)
            assert all(q.product_word(s) == a for c in classes for s in c)
            members = [s for c in classes for s in c]
            assert len(members) == len(set(members))
            assert set(members) == set(_reference_decompositions(q, a))


def _reference_orbit(q, start):
    """Move orbit by breadth-first search with both move signs, written
    straight from the conjugation tables."""
    orbit, frontier = {start}, [start]
    while frontier:
        nxt = []
        for seq in frontier:
            for j in range(len(seq) - 1):
                a, b = seq[j], seq[j + 1]
                head, tail = seq[:j], seq[j + 2 :]
                for t in (head + (b, q.conj[a][b]) + tail, head + (q.conjugate_inv(b, a), a) + tail):
                    if t not in orbit:
                        orbit.add(t)
                        nxt.append(t)
        frontier = nxt
    return orbit


def _reference_classes(q, a):
    classes, seen = [], set()
    for start in sorted(decompositions(q, a)):
        if start not in seen:
            orbit = _reference_orbit(q, start)
            seen |= orbit
            classes.append(sorted(orbit))
    return classes


def _reference_pairwise(q, r_max):
    ones = q.elements_of_norm(1)
    for r in range(3, r_max + 1):
        seen = set()
        for seq in itertools.product(ones, repeat=r):
            if seq in seen or q.product_word(seq) is not None:
                continue
            orbit = _reference_orbit(q, seq)
            seen |= orbit
            if all((s[0], s[1]) in q.prod for s in orbit):
                return False, r_max, q.to_labels(min(orbit))
    return True, r_max, None


@pytest.mark.parametrize(
    "q, r_max",
    [
        (sym_geodesic_pmq(3), 4),
        (sym_geodesic_pmq(4), 4),
        (natural_truncation(3), 4),
        (natural_with_double_one(3), 4),
        (transposition_quandle(3), 4),
        (sym_geodesic_pmq(5), 5),
        (sym_geodesic_pmq(4), 6),
    ],
    ids=["S3", "S4", "nat3", "double_one3", "tq3", "S5-r5", "S4-r6"],
)
def test_orbits_match_two_sided_reference_bfs(q, r_max):
    for a in range(len(q)):
        assert decomposition_classes(q, a) == _reference_classes(q, a)
    assert is_pairwise_determined(q, r_max=r_max) == _reference_pairwise(q, r_max)


def _is_witness(q, prop, witness):
    ix = tuple(q.index(lbl) for lbl in witness)
    if prop == "augmented":
        a, b = ix
        conj_hit = a != q.unit and q.unit in (q.conj[a][b], q.conjugate_inv(a, b))
        prod_hit = q.unit not in (a, b) and q.product(a, b) == q.unit
        return conj_hit or prod_hit
    if prop == "maximally_decomposable":
        return not decompositions(q, ix[0])
    assert prop == "pairwise_determined"
    orbit = _reference_orbit(q, ix)
    return q.product_word(ix) is None and all((s[0], s[1]) in q.prod for s in orbit)


@pytest.mark.parametrize(
    "q",
    [
        sym_geodesic_pmq(3),
        sym_geodesic_pmq(4),
        natural_truncation(3),
        natural_with_double_one(3),
        transposition_quandle(3),
        segre_pmq(),
        group_pmq(cyclic_group(3)),
        pointed_set_pmq({"x": 2}),
    ],
    ids=["S3", "S4", "nat3", "double_one3", "tq3", "segre", "C3", "pointed"],
)
def test_property_report_invariant_under_declaration_order(q):
    base = property_report(q, r_max=4)
    rng = random.Random(len(q))
    for _ in range(4):
        p = relabelled(q, rng.sample(q.labels, len(q)))
        rep = property_report(p, r_max=4)
        assert rep.to_json() | {"witnesses": None} == base.to_json() | {"witnesses": None}
        assert rep.witnesses.keys() == base.witnesses.keys()
        for prop, witness in rep.witnesses.items():
            assert _is_witness(p, prop, witness), (prop, witness)


def _reference_decompositions(q, a):
    """The norm-one decompositions of a, by a depth-first walk of the
    prefix tree for a alone."""
    out = []

    def extend(prefix, acc):
        if len(prefix) == q.norm[a]:
            if acc == a:
                out.append(prefix)
            return
        for x in q.elements_of_norm(1):
            if (acc, x) in q.prod:
                extend(prefix + (x,), q.prod[(acc, x)])

    extend((), q.unit)
    return out


@pytest.mark.parametrize(
    "q",
    [
        unit_pmq(),
        sym_geodesic_pmq(3),
        sym_geodesic_pmq(4),
        natural_truncation(3),
        natural_with_double_one(3),
        transposition_quandle(3),
        segre_pmq(),
    ],
    ids=["unit", "S3", "S4", "nat3", "double_one3", "tq3", "segre"],
)
def test_coconnected_counts_match_per_element_walk(q):
    for p in shuffled_orders(q):
        _, counts = is_coconnected(p)
        for a in range(len(p)):
            walked = _reference_decompositions(p, a)
            assert decompositions(p, a) == walked
            seen, classes = set(), 0
            for start in walked:
                if start not in seen:
                    seen |= _reference_orbit(p, start)
                    classes += 1
            assert counts[p.labels[a]] == classes
