import collections
import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmq.core
from pmq.catalog import (
    cyclic_group,
    group_pmq,
    natural_truncation,
    natural_with_double_one,
    rack_three_example,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
    unit_pmq,
)
from pmq.completion import Completion
from pmq.core import (
    NORM_AXIOMS,
    PMQ_AXIOMS,
    FiniteGroup,
    FinitePmq,
    ValidationReport,
    Violation,
    _ASSUMES,
    _associativity,
    _conj_distributivity,
    _conj_of_product,
    _generating_base,
    _product_equivariance,
    components,
    conjugacy_classes,
    geodesic_pmq,
    PmqGroupPair,
    join_pmq_group,
    require_valid,
    semidirect_pmq,
    validate,
)
from pmq.errors import AxiomError, PreconditionError, StructureError
from pmq.serialize import pmq_from_json
from pmq.symgeo import sym_geodesic_pair, symmetric_group

from helpers import axiom_holds_at, mutate_once, orbits, pair_violation, shuffled_orders


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_components_match_orbits_of_the_symmetrised_graph(data):
    n = data.draw(st.integers(0, 12))
    nodes = range(n)
    node = st.integers(0, max(n - 1, 0))
    edges = data.draw(st.lists(st.tuples(node, node), max_size=15 if n else 0))
    adjacency = {v: set() for v in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    found = components(n, edges)
    assert [set(c) for c in found] == list(orbits(nodes, adjacency.__getitem__))
    # members ascending, components by their least node
    for c in found:
        assert c == sorted(c)
    assert [c[0] for c in found] == sorted(c[0] for c in found)


def test_components_of_no_nodes_and_of_self_loops():
    assert components(0, []) == []
    assert components(3, [(1, 1), (2, 2), (1, 1)]) == [[0], [1], [2]]
    assert components(4, [(3, 3), (3, 0), (2, 2)]) == [[0, 3], [1], [2]]


def test_unit_pmq_valid():
    assert validate(unit_pmq()).ok


def test_group_is_pmq():
    assert validate(group_pmq(symmetric_group(3))).ok


def test_rack_fails_idempotence_only():
    report = validate(rack_three_example())
    assert report.axioms() == ["conj-idempotence"]
    assert report.violations[0].witness == ("a",)


def test_malformed_table_is_structural():
    with pytest.raises(StructureError):
        FinitePmq.build(["1", "a"], 0, [[0, 0], [1, 5]], {})
    with pytest.raises(StructureError):
        FinitePmq.build(["1", "a"], 0, [[0, 0], [1, 1]], {(0, 3): 0})


def test_conjugacy_classes_examples():
    # abelian: all singletons
    q = natural_truncation(3)
    assert all(len(c) == 1 for c in conjugacy_classes(q))
    # symmetric geodesic: unit / transpositions / 3-cycles
    sizes = sorted(len(c) for c in conjugacy_classes(sym_geodesic_pmq(3)))
    assert sizes == [1, 2, 3]


@pytest.mark.parametrize(
    "q",
    [sym_geodesic_pmq(4), natural_with_double_one(3), transposition_quandle(4), rack_three_example()],
    ids=["S4", "double_one3", "tq4", "rack3"],
)
def test_conjugacy_classes_match_orbits_of_both_conjugations(q):
    for p in shuffled_orders(q):
        n = len(p)
        step = lambda a: [c for b in range(n) for c in (p.conj[a][b], p.conjugate_inv(a, b))]
        expected = [tuple(p.labels[i] for i in sorted(o)) for o in orbits(range(n), step)]
        assert conjugacy_classes(p) == expected


def test_conjugacy_classes_reject_a_non_bijective_column():
    # conjugation by b sends both a and b to b
    q = FinitePmq.build(["1", "a", "b"], 0, [[0, 0, 0], [1, 1, 2], [2, 2, 2]], {})
    with pytest.raises(AxiomError, match="conjugation by 'b' is not a bijection"):
        conjugacy_classes(q)


def test_semidirect_transitive_action_one_class():
    g = cyclic_group(2)
    action = {("s", "0"): "s", ("s", "1"): "t", ("t", "0"): "t", ("t", "1"): "s"}
    q = semidirect_pmq(g, ["s", "t"], action)
    # points are swapped by the generator, nontrivial products only in the group
    assert q.conjugate(q.index("s"), q.index("1")) == q.index("t")
    assert (q.index("s"), q.index("t")) not in q.prod
    assert (q.index("s"), q.index("1")) not in q.prod
    classes = conjugacy_classes(q)
    assert ("s", "t") in classes
    # a nontrivial group acting on a nonempty set cannot satisfy conditional
    # associativity: (g g^-1)s is defined, g^-1 s is not; the validator must
    # report exactly that and nothing else
    report = validate(q)
    assert set(report.axioms()) == {"associativity"}


def test_from_table_rejects_nonassociative_loop():
    # a Latin square with unit 0 and self-inverse elements, not associative
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    labels = ["e", "a", "b", "c", "d"]
    bad = [
        (x, y, z)
        for x in range(5)
        for y in range(5)
        for z in range(5)
        if table[table[x][y]][z] != table[x][table[y][z]]
    ]
    assert len(bad) == 36
    with pytest.raises(AxiomError) as info:
        FiniteGroup.from_table(labels, table)
    found = re.fullmatch(r"associativity fails at \((\w), (\w), (\w)\)", str(info.value))
    assert found is not None
    x, y, z = (labels.index(l) for l in found.groups())
    assert table[table[x][y]][z] != table[x][table[y][z]]


def test_from_table_accepts_groups():
    for g in (cyclic_group(1), cyclic_group(6), symmetric_group(3), symmetric_group(4)):
        again = FiniteGroup.from_table(g.labels, g.mult)
        assert again == g


def test_semidirect_validates_when_group_is_trivial():
    g = FiniteGroup.from_table(["1"], [[0]])
    q = semidirect_pmq(g, ["s", "t"], {("s", "1"): "s", ("t", "1"): "t"})
    assert validate(q).ok


def test_semidirect_trivial_group():
    g = FiniteGroup.from_table(["1"], [[0]])
    q = semidirect_pmq(g, ["s"], {("s", "1"): "s"})
    assert validate(q).ok
    assert len(q) == 2


def test_join_pmq_group_complete_and_ideal():
    pair = sym_geodesic_pair(3)
    joined = join_pmq_group(pair)
    assert validate(joined).ok
    nq = len(pair.pmq)
    n = len(joined)
    # complete product
    assert len(joined.prod) == n * n
    # the embedded PMQ part keeps its products
    for (a, b), c in pair.pmq.prod.items():
        assert joined.prod[(a, b)] == c
    # undefined products land in the group part
    t12 = pair.pmq.index("213")
    assert joined.prod[(t12, t12)] >= nq
    # the group copy is an ideal: conjugation-invariant and absorbing
    for g in range(nq, n):
        for b in range(n):
            assert joined.conj[g][b] >= nq
            assert joined.conjugate_inv(g, b) >= nq
            assert joined.prod[(g, b)] >= nq
            assert joined.prod[(b, g)] >= nq


def test_join_unit_pmq_trivial_group():
    g = FiniteGroup.from_table(["e"], [[0]])
    q = unit_pmq()
    from pmq.core import PmqGroupPair

    pair = PmqGroupPair(q, g, (0,), ((0,),))
    joined = join_pmq_group(pair)
    assert validate(joined).ok
    assert len(joined) == 2
    assert joined.prod[(0, 1)] == 1  # unit times the adjoined element


def test_pair_check_agrees_with_the_pair_conditions_on_mutants():
    # single-entry mutants of e_map and r_action, the new value drawn from
    # every group or PMQ element (so some draws keep the pair): the join's
    # validation must accept exactly the mutants that meet the conditions
    # written out one by one
    rng = random.Random(25)
    verdicts = collections.Counter()
    for d in (2, 3, 4):
        pair = sym_geodesic_pair(d)
        n = len(pair.group)
        for _ in range(200):
            e, r = list(pair.e_map), [list(row) for row in pair.r_action]
            if rng.randrange(2):
                e[rng.randrange(n)] = rng.randrange(n)
            else:
                r[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            mutant = dataclasses.replace(pair, e_map=tuple(e), r_action=tuple(map(tuple, r)))
            try:
                mutant.check()
                accepted = True
            except AxiomError:
                accepted = False
            assert accepted == (pair_violation(mutant) is None), (d, e, r)
            verdicts[accepted, mutant == pair] += 1
    assert verdicts[True, False]   # S_2 with e(t) = 1 is a pair
    assert verdicts[True, False] + verdicts[True, True] >= 100
    assert verdicts[False, False] >= 100


def test_pair_over_a_structure_that_is_not_a_pmq_is_refused():
    # natural_truncation(3) without 1 + 2 fails associativity and
    # product-conj-swap; with the trivial group, e and r meet every pair
    # condition, and only the join's validation sees that Q is no PMQ
    q = natural_truncation(3)
    prod = dict(q.prod)
    del prod[q.index("1"), q.index("2")]
    cut = FinitePmq.build(q.labels, q.unit, q.conj, prod)
    assert validate(cut).axioms()[:2] == ["associativity", "product-conj-swap"]
    pair = PmqGroupPair(cut, cyclic_group(1), (0,) * 4, (tuple(range(4)),))
    assert pair_violation(pair) is None
    with pytest.raises(AxiomError, match="associativity"):
        pair.check()
    with pytest.raises(AxiomError, match="associativity"):
        join_pmq_group(pair)


@pytest.mark.parametrize(
    "e_map,r_action",
    [
        ((0, 6, 2, 3, 4, 5), None),                      # e_map entry outside G
        ((0, 1, 2), None),                               # e_map too short
        (None, ((0, 1, 2, 3, 4, 5),) * 5 + ((0, 1),)),   # ragged r_action
        (None, ((0, 1, 2, 3, 4, 5),) * 5),               # r_action misses a group element
        (None, ((0, 1, 2, 3, 4, 6),) * 6),               # r_action entry outside Q
    ],
)
def test_pair_of_the_wrong_shape_is_a_structure_error(e_map, r_action):
    pair = sym_geodesic_pair(3)
    bad = dataclasses.replace(pair, e_map=e_map or pair.e_map, r_action=r_action or pair.r_action)
    with pytest.raises(StructureError):
        bad.check()
    with pytest.raises(StructureError):
        join_pmq_group(bad)


def test_geodesic_pmq_s3():
    g = symmetric_group(3)
    from pmq.symgeo import perm_norm

    norm = [perm_norm(tuple(int(c) for c in lbl)) for lbl in g.labels]
    q = geodesic_pmq(g, norm)
    assert validate(q).ok
    t12, t23 = q.index("213"), q.index("132")
    assert (t12, t23) in q.prod
    assert (t12, t12) not in q.prod


def test_geodesic_rejects_bad_norm():
    g = cyclic_group(3)
    with pytest.raises(PreconditionError):
        geodesic_pmq(g, [0, 1, 3])  # violates the triangle inequality


def test_geodesic_z2_unit_norm():
    q = geodesic_pmq(cyclic_group(2), [0, 1])
    assert validate(q).ok
    assert (1, 1) not in q.prod  # 1 + 1 != 0


def test_braid_act_examples():
    q = sym_geodesic_pmq(3)
    t12, t23, t13 = q.index("213"), q.index("132"), q.index("321")
    assert q.braid_act((t12, t23), 1, +1) == (t23, t13)
    # inverse move restores
    moved = q.braid_act((t12, t23), 1, +1)
    assert q.braid_act(moved, 1, -1) == (t12, t23)
    # unit neighbour: swap only
    u = q.unit
    assert q.braid_act((t12, u), 1, +1) == (u, t12)
    for i in (0, 2):
        with pytest.raises(IndexError):
            q.braid_act((t12, t23), i, +1)
    # b^a = a makes conjugation by a non-bijective: only the inverse move fails
    bad, _ = pmq_from_json({"elements": ["1", "a", "b"], "unit": "1", "conj": {"b": {"a": "a"}}})
    a, b = bad.index("a"), bad.index("b")
    assert bad.braid_act((a, b), 1, +1) == (b, a)
    with pytest.raises(AxiomError):
        bad.braid_act((a, b), 1, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_mutations_detected_with_correct_axiom(seed):
    rng = random.Random(seed)
    q = sym_geodesic_pmq(3)
    mutant = mutate_once(q, rng)
    report = validate(mutant, stop_first=True)
    if not report.ok:
        v = report.violations[0]
        assert not axiom_holds_at(mutant, v.axiom, v.witness)


def test_constructions_all_validate():
    assert validate(join_pmq_group(sym_geodesic_pair(3))).ok
    assert validate(sym_geodesic_pmq(4)).ok
    assert validate(segre_pmq()).ok
    assert validate(transposition_quandle(3)).ok


def _mutants(q, rng, count):
    """Table mutants, norm mutants and both, of one normed PMQ."""
    for i in range(count):
        m = mutate_once(q, rng) if i % 3 != 1 else q
        if i % 3 != 0:
            norm = list(q.norm)
            norm[rng.randrange(len(norm))] = rng.randrange(4)
            m = dataclasses.replace(m, norm=tuple(norm))
        yield m


@pytest.mark.parametrize(
    "q",
    [sym_geodesic_pmq(3), sym_geodesic_pmq(4), natural_truncation(3), segre_pmq()],
    ids=["S3", "S4", "natural3", "segre"],
)
def test_one_witness_per_axiom_and_stop_first(q):
    rng = random.Random(len(q))
    for m in _mutants(q, rng, 150):
        report = validate(m)
        axioms = report.axioms()
        assert len(axioms) == len(set(axioms)), axioms
        assert validate(m, stop_first=True).violations == report.violations[:1]
        for v in report.violations:
            assert not axiom_holds_at(m, v.axiom, v.witness), v


def test_stop_first_stops_inside_the_norm_axioms():
    q = sym_geodesic_pmq(3)
    norm = list(q.norm)
    norm[q.index("132")] = 3
    bad = dataclasses.replace(q, norm=tuple(norm))
    assert validate(bad).axioms() == ["norm-additive", "norm-conj-invariant"]
    assert validate(bad, stop_first=True).axioms() == ["norm-additive"]


@pytest.fixture
def validate_calls(monkeypatch):
    calls = []
    real = pmq.core.validate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pmq.core, "validate", counting)
    return calls


def test_completion_skips_a_validated_pmq(validate_calls):
    q, r = sym_geodesic_pmq(3), sym_geodesic_pmq(3)
    assert validate(q).ok
    require_valid(r)
    validate_calls.clear()
    Completion(q)
    Completion(r)
    assert validate_calls == []


def test_completion_validates_a_fresh_pmq(validate_calls):
    fresh = sym_geodesic_pmq(3)
    Completion(fresh)
    assert len(validate_calls) == 1 and validate_calls[0] is fresh
    q = sym_geodesic_pmq(3)
    validate(q)
    copy = dataclasses.replace(q)
    validate_calls.clear()
    Completion(copy)
    assert len(validate_calls) == 1 and validate_calls[0] is copy


def test_completion_rejects_unvalidated_and_rack_inputs():
    rng = random.Random(3)
    q = sym_geodesic_pmq(3)
    mutant = mutate_once(q, rng)
    while validate(mutant).ok:
        mutant = mutate_once(q, rng)
    with pytest.raises(AxiomError):
        Completion(mutant)
    rack = rack_three_example()
    assert validate(rack, rack=True).ok
    with pytest.raises(AxiomError) as exc:
        Completion(rack)
    assert exc.value.report.axioms() == ["conj-idempotence"]


# ---------------------------------------------------------------------------
# the cubic axioms decided on a generating base


def full_scan_report(q, *, rack=False, stop_first=False):
    """The report assembled from every axiom's full scan, the oracle for
    ``validate`` with its decided scans."""
    scans = [(name, scan(q)) for name, scan in PMQ_AXIOMS
             if not (rack and name == "conj-idempotence")]
    if q.norm is not None:
        scans += [(name, scan(q, q.norm)) for name, scan in NORM_AXIOMS]
    out = []
    for name, scan in scans:
        first = next(scan, None)
        if first is not None:
            out.append(Violation(name, q.to_labels(first[0]), first[1]))
            if stop_first:
                break
    return ValidationReport(tuple(out))


def test_generating_base_examples():
    q = sym_geodesic_pmq(3)
    assert q.to_labels(_generating_base(q)) == ("123", "132", "213", "321")
    # 1 + 1 = 2 and 1 + 2 = 3: only the unit and 1 are irreducible
    n3 = natural_truncation(3)
    assert n3.to_labels(_generating_base(n3)) == ("0", "1")
    # a total product makes every element reducible (the unit is 1 + 3),
    # so the base comes from picks alone: the unit reaches nothing, 1 the rest
    z4 = group_pmq(cyclic_group(4))
    assert z4.to_labels(_generating_base(z4)) == ("0", "1")
    # no products of non-units: every element is in the base
    t3 = transposition_quandle(3)
    assert _generating_base(t3) == list(range(len(t3)))


ORACLE_PMQS = [
    sym_geodesic_pmq(3),
    sym_geodesic_pmq(4),
    natural_truncation(3),
    natural_with_double_one(3),
    segre_pmq(),
    transposition_quandle(3),
    transposition_quandle(4),
    rack_three_example(),
    group_pmq(cyclic_group(4)),
]


def oracle_mutants():
    """2,250 single and chained mutants of the nine ``ORACLE_PMQS``."""
    rng = random.Random(19)
    for q in ORACLE_PMQS:
        for i in range(250):
            m = q
            for _ in range(1 + i % 3):      # one, two or three edits
                m = mutate_once(m, rng)
            yield m


@pytest.fixture
def cubic_scans(monkeypatch):
    """The cubic scans that ``validate`` runs, in order, as (axiom, thirds):
    thirds is None for a full scan and the generating base for a base scan."""
    calls = []

    def recording(name, scan):
        def scan_and_record(q, thirds=None):
            calls.append((name, thirds))
            return scan(q, thirds)
        return scan_and_record

    monkeypatch.setattr(pmq.core, "PMQ_AXIOMS", tuple(
        (name, recording(name, scan) if name in _ASSUMES else scan) for name, scan in PMQ_AXIOMS
    ))
    return calls


def thirds_of(calls, axiom):
    """The ``thirds`` of each recorded scan of ``axiom``, in order."""
    return [thirds for name, thirds in calls if name == axiom]


def test_decided_scans_equal_the_full_scans_on_mutants(cubic_scans):
    """``validate`` gives the full scans' report on 2,250 single and chained
    mutants of nine PMQs, in default, ``stop_first`` and rack mode, and a
    cubic axiom that it decides on the base has a clean full scan."""
    scans = dict(PMQ_AXIOMS)
    outcomes = collections.Counter()
    for m in oracle_mutants():
        cubic_scans.clear()
        assert validate(m) == full_scan_report(m)
        base = frozenset(_generating_base(m))
        for name in _ASSUMES:
            # each scan runs once at most, the base scan first
            thirds = thirds_of(cubic_scans, name)
            assert thirds in ([base], [base, None], [None]), (name, thirds)
            if thirds == [base]:
                assert list(scans[name](m)) == [], (name, m)
            outcomes[name, thirds == [base]] += 1
        assert validate(m, stop_first=True) == full_scan_report(m, stop_first=True)
        assert validate(m, rack=True) == full_scan_report(m, rack=True)
    # every axiom is often decided on the base and often scanned in full
    assert min(outcomes[name, decided] for name in _ASSUMES for decided in (True, False)) >= 50, outcomes


def naive_associativity(q):
    """Conditional associativity over every triple, in ``_associativity``'s
    order: (ab)c by the pairs (a, b) of ``q.prod`` then c, and a(bc) by the
    pairs (b, c) then every a."""
    prod, n = q.prod, len(q)
    for (a, b), ab in prod.items():
        for c in range(n):
            abc = prod.get((ab, c))
            if abc is not None and prod.get((a, prod.get((b, c)))) != abc:
                yield (a, b, c), "(ab)c defined but a(bc) missing or different"
    for (b, c), bc in prod.items():
        for a in range(n):
            abc = prod.get((a, bc))
            if abc is not None and prod.get((prod.get((a, b)), c)) != abc:
                yield (a, b, c), "a(bc) defined but (ab)c missing or different"


def test_associativity_equals_the_naive_loop_on_mutants():
    for m in oracle_mutants():
        naive = list(naive_associativity(m))
        assert list(_associativity(m)) == naive, m
        base = frozenset(_generating_base(m))
        assert list(_associativity(m, base)) == [v for v in naive if v[0][2] in base], m


def _table(labels, products, conj_by):
    """A PMQ on ``labels`` (unit first) with the unit products, the given
    products (label triples a, b, ab) and a^b = a except a^b = conj_by[b][a]."""
    n = len(labels)
    ix = labels.index
    prod = {(0, a): a for a in range(n)}
    prod.update({(a, 0): a for a in range(n)})
    prod.update({(ix(a), ix(b)): ix(ab) for a, b, ab in products})
    conj = [[a] * n for a in range(n)]
    for b, images in conj_by.items():
        for a, img in images.items():
            conj[ix(a)][ix(b)] = ix(img)
    return FinitePmq.build(labels, 0, conj, prod)


def test_conj_of_product_falls_back_when_associativity_fails(cubic_scans):
    # w = xy and v = xw but xx is undefined, so associativity fails at
    # (x, x, y); conj-of-product holds at every base element but fails at
    # (x, x, w): (-)^v swaps x and y while (-)^x and (-)^w are trivial
    q = _table(["1", "x", "y", "w", "v"], [("x", "y", "w"), ("x", "w", "v")],
               {"v": {"x": "y", "y": "x"}})
    base = frozenset(_generating_base(q))
    assert q.to_labels(sorted(base)) == ("1", "x", "y")
    assert next(_conj_of_product(q, base), None) is None
    report = validate(q)
    assert thirds_of(cubic_scans, "associativity") == [base, None]
    assert thirds_of(cubic_scans, "conj-of-product") == [None]
    assert "conj-of-product" in report.axioms()
    assert report == full_scan_report(q)
    assert validate(q, stop_first=True) == full_scan_report(q, stop_first=True)


def test_distributivity_and_equivariance_fall_back_when_conj_of_product_fails(cubic_scans):
    # w = xy, (-)^w swaps x and w and every other conjugation is trivial:
    # conj-of-product fails at (x, x, y); distributivity and equivariance
    # hold at the base elements 1, x, y and fail at w
    q = _table(["1", "x", "y", "w"], [("x", "y", "w")], {"w": {"x": "w", "w": "x"}})
    base = frozenset(_generating_base(q))
    assert q.to_labels(sorted(base)) == ("1", "x", "y")
    report = validate(q)
    assert thirds_of(cubic_scans, "associativity") == [base]
    assert thirds_of(cubic_scans, "conj-of-product") == [base, None]
    for name, scan in (("conj-distributivity", _conj_distributivity),
                       ("product-equivariance", _product_equivariance)):
        assert next(scan(q, base), None) is None
        assert thirds_of(cubic_scans, name) == [None]
        assert name in report.axioms()
    assert report == full_scan_report(q)
    assert report.axioms() == [
        "conj-idempotence", "conj-distributivity", "product-conj-swap", "conj-of-product",
        "product-equivariance",
    ]


def test_a_clean_full_scan_lets_distributivity_and_equivariance_use_the_base(cubic_scans):
    # commuting products w = xy = yx and v = xw = wx with xx undefined, and
    # trivial conjugation: associativity fails at (x, x, y), so
    # conj-of-product is scanned in full; that scan is clean, which settles
    # the assumption of distributivity and equivariance
    q = _table(["1", "x", "y", "w", "v"],
               [("x", "y", "w"), ("y", "x", "w"), ("x", "w", "v"), ("w", "x", "v")], {})
    base = frozenset(_generating_base(q))
    assert q.to_labels(sorted(base)) == ("1", "x", "y")
    report = validate(q)
    assert report == full_scan_report(q)
    assert report.axioms() == ["associativity"]
    assert cubic_scans == [
        ("associativity", base), ("associativity", None),
        ("conj-of-product", None),
        ("conj-distributivity", base),
        ("product-equivariance", base),
    ]
