"""The acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime into the terminal summary.

Every expected value here is either exact combinatorics checked against an
independent oracle computed in the test itself (breadth-first searches,
exhaustive enumerations, census counts) or a frozen integer that was derived
by hand (the homology ranks of the small examples).
"""

import itertools
import random
import time
from collections import deque

import pytest

from conftest import record_acceptance

from pmq.barhur import build_relative_complex, homology, poincare_report
from pmq.catalog import (
    natural_truncation,
    natural_with_double_one,
    rack_three_example,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
)
from pmq.completion import Completion
from pmq.core import validate
from pmq.envelope import GroupTimesZn, verify_hom
from pmq.free import braid_act_word, fq_decompose, fq_element, normalize_decomposition
from pmq.properties import (
    decomposition_classes,
    decompositions,
    is_coconnected,
    is_pairwise_determined,
)
from pmq.racks import validate_pmr
from pmq.ring import (
    class_sum_centrality,
    pbw_check_sdgeo,
    quadratic_quotient_dimensions,
    ring_mul,
)
from pmq.symgeo import (
    all_transpositions,
    env_word_problem,
    geo_hat_conj,
    geo_hat_mul,
    identity,
    monotone_decomposition,
    perm_conj,
    perm_label,
    perm_mul,
    perm_norm,
    seq_to_triple,
    symmetric_group,
    transposition,
    triples_of_weight,
    validate_triple,
)

from helpers import axiom_holds_at, mutate_once, uct_ranks


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def finish(self, ok: bool = True) -> float:
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok and elapsed < self.seconds else "FAIL"
        record_acceptance(
            f"[{status}] {self.name}: {elapsed:.1f}s (budget {self.seconds:.0f}s)"
        )
        assert ok, self.name
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return elapsed


def test_criterion_01_axioms():
    budget = Budget("1 axioms: geodesic symmetric PMQs, rack example, mutations", 10)
    for d in (2, 3, 4, 5):
        assert validate(sym_geodesic_pmq(d)).ok
    rack = rack_three_example()
    assert validate_pmr(rack).ok
    assert validate(rack).axioms() == ["conj-idempotence"]
    q4 = sym_geodesic_pmq(4)
    rng = random.Random(20250810)
    for _ in range(200):
        mutant = mutate_once(q4, rng)
        report = validate(mutant, stop_first=True)
        if not report.ok:
            v = report.violations[0]
            assert not axiom_holds_at(mutant, v.axiom, v.witness)
    budget.finish()


def test_s6_geodesic_pmq_validates():
    # the cubic axioms decided on the base of 16 elements (unit and
    # transpositions); scanning all 720^3 triples took ~40 s
    budget = Budget("S_6 geodesic PMQ built and validated (720 elements)", 20)
    assert validate(sym_geodesic_pmq(6)).ok
    budget.finish()


def test_criterion_02_norm_formula():
    budget = Budget("2 norm formula vs Cayley-graph distance, d <= 6", 30)
    for d in range(2, 7):
        gens = all_transpositions(d)
        dist = {identity(d): 0}
        frontier = deque([identity(d)])
        while frontier:
            cur = frontier.popleft()
            for t in gens:
                nxt = perm_mul(cur, t)
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    frontier.append(nxt)
        for p in itertools.permutations(range(1, d + 1)):
            assert perm_norm(p) == dist[p]
    budget.finish()


def test_criterion_03_braid_transitivity():
    budget = Budget("3 braid transitivity: 1000 scrambled decompositions", 60)
    rng = random.Random(7)
    for trial in range(1000):
        r = rng.randint(1, 4)
        words = [fq_element(i, ()) for i in range(1, r + 1)]
        # 20 random moves, skipping ones that would blow the conjugator
        # lengths up exponentially (rare but possible); the sample still
        # covers weights up to several hundred
        for _ in range(20):
            if r < 2:
                break
            i = rng.randint(1, r - 1)
            moved = braid_act_word(words, [rng.choice([i, -i])])
            if sum(len(w) for w in moved) <= 300:
                words = list(moved)
        factors = [fq_decompose(w, r, r) for w in words]
        log = normalize_decomposition(factors, r, r)
        assert braid_act_word(words, log) == tuple((i,) for i in range(1, r + 1))
    budget.finish()


def test_criterion_04_enveloping_group():
    budget = Budget("4 enveloping group embeds as the parity subgroup", 10)
    for d in range(2, 6):
        q = sym_geodesic_pmq(d)
        grp = symmetric_group(d)
        target = GroupTimesZn(grp, 1)
        perms = [tuple(int(c) for c in lbl) for lbl in q.labels]
        images = [(grp.index(lbl), (perm_norm(p),)) for lbl, p in zip(q.labels, perms)]
        assert verify_hom(q, target, images)
        # every parity pair within a window is generated: realise it as a word
        tau = transposition(d, 1, 2)
        for sigma in perms:
            for m in range(perm_norm(sigma) - 4, perm_norm(sigma) + 5, 2):
                word = [(sigma, 1)]
                half = (m - perm_norm(sigma)) // 2
                word += [(tau, 1 if half > 0 else -1)] * (2 * abs(half))
                assert env_word_problem(d, word) == (m, sigma)
        # words with equal images are equal: the standard-move pair
        if d >= 3:
            a, b = transposition(d, 1, 2), transposition(d, 2, 3)
            assert env_word_problem(d, [(a, 1), (b, 1)]) == env_word_problem(
                d, [(b, 1), (perm_conj(a, b), 1)]
            )
    budget.finish()


@pytest.mark.parametrize("d", [3, 4])
def test_criterion_05_completion_bijection(d):
    budget = Budget(f"5 completion of the geodesic PMQ, d={d}, norm <= 6", 300)
    q = sym_geodesic_pmq(d)
    comp = Completion(q)
    perms = {a: tuple(int(c) for c in q.labels[a]) for a in range(len(q))}

    def triple_of(h):
        seq = []
        for x in h.word:
            seq.extend(monotone_decomposition(perms[x]))
        return seq_to_triple(seq, d)

    classes_by_norm = {}
    for n in range(7):
        classes = comp.classes_of_norm(n)
        triples = triples_of_weight(d, n)
        mapped = [triple_of(h) for h in classes]
        assert all(validate_triple(t) is None for t in mapped)
        assert len(set(mapped)) == len(classes) == len(triples)
        assert set(mapped) == set(triples)
        classes_by_norm[n] = classes
    # closed-form product and conjugation commute with the canonical ops
    rng = random.Random(99)
    pool = [h for n in range(4) for h in classes_by_norm[n]]
    for _ in range(150):
        x, y = rng.choice(pool), rng.choice(pool)
        if x.norm + y.norm <= 6:
            assert triple_of(x * y) == geo_hat_mul(triple_of(x), triple_of(y))
        assert triple_of(x.conj(y)) == geo_hat_conj(triple_of(x), triple_of(y))
    budget.finish()


def test_criterion_06_coconnectedness():
    budget = Budget("6 coconnectedness and pairwise determination", 60)
    q = natural_with_double_one(3)
    two = q.index("2")
    assert len(decompositions(q, two)) == 4
    assert len(decomposition_classes(q, two)) == 3
    ok, _ = is_coconnected(q)
    assert not ok
    for d in (3, 4):
        qd = sym_geodesic_pmq(d)
        assert is_coconnected(qd)[0]
        status, r_max, _ = is_pairwise_determined(qd)
        assert status is True and r_max == max(qd.norm) + 1
    budget.finish()


def test_criterion_07_quadratic_ring():
    budget = Budget("7 quadratic ring dimensions, relations, class sums", 60)
    for d in (3, 4):
        q = sym_geodesic_pmq(d)
        dims = quadratic_quotient_dimensions(q, 4)
        assert all(quotient == census for _, quotient, census in dims)
        trs = [q.index(perm_label(t)) for t in all_transpositions(d)]
        for a in trs:
            assert ring_mul(q, {a: 1}, {a: 1}) == {}
        for x, y, z in itertools.permutations(range(1, d + 1), 3):
            ta = q.index(perm_label(transposition(d, x, y)))
            tb = q.index(perm_label(transposition(d, y, z)))
            tc = q.index(perm_label(transposition(d, z, x)))
            p1 = ring_mul(q, {ta: 1}, {tb: 1})
            assert p1 == ring_mul(q, {tb: 1}, {tc: 1}) == ring_mul(q, {tc: 1}, {ta: 1})
        for x, y, z, w in itertools.permutations(range(1, d + 1), 4):
            ta = q.index(perm_label(transposition(d, x, y)))
            tb = q.index(perm_label(transposition(d, z, w)))
            assert ring_mul(q, {ta: 1}, {tb: 1}) == ring_mul(q, {tb: 1}, {ta: 1}) != {}
        assert class_sum_centrality(q)
    budget.finish()


def test_criterion_08_pbw():
    budget = Budget("8 height-ordered monomial basis counts d!", 10)
    import math

    for d in range(2, 6):
        ok, census = pbw_check_sdgeo(d)
        assert ok and sum(census.values()) == math.factorial(d)
    budget.finish()


def test_criterion_09_symmetric_products():
    budget = Budget("9 symmetric-product homology: Z in degree 2m", 60)
    for n in (1, 2, 3):
        q = natural_truncation(n)
        comp = Completion(q)
        for m in range(n + 1):
            cx = build_relative_complex(q, comp.of_sequence((q.index(str(m)),) if m else ()))
            h = homology(cx)
            for degree, data in h.items():
                expected = 1 if degree == 2 * m else 0
                assert data["rank"] == expected and not data["torsion"], (n, m, h)
    budget.finish()


def test_criterion_10_hurwitz_cover():
    budget = Budget("10 three-fold Hurwitz cover: (H3, H4) = (1, 1)", 60)
    q = transposition_quandle(3)
    comp = Completion(q)
    b = comp.of_labels(["213", "321"])  # the classes of (1,2) then (1,3)
    # braid-orbit oracle: the grading class has exactly 3 sequences,
    # so the cover of the two-point configuration space is connected of
    # degree 3
    t12, t13 = q.index("213"), q.index("321")
    orbit = {(t12, t13)}
    frontier = [(t12, t13)]
    while frontier:
        cur = frontier.pop()
        for i in (1,):
            for sign in (1, -1):
                nxt = q.braid_act(cur, i, sign)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
    assert len(orbit) == 3
    cx = build_relative_complex(q, b)
    h = homology(cx)
    assert h[3] == {"rank": 1, "torsion": []}
    assert h[4] == {"rank": 1, "torsion": []}
    budget.finish()


def test_criterion_11_non_poincare_detection():
    budget = Budget("11 six-element counterexample: top homology rank 2", 30)
    q = segre_pmq()
    comp = Completion(q)
    cx = build_relative_complex(q, comp.of_labels(["c"]))
    assert homology(cx)[4] == {"rank": 2, "torsion": []}
    report = poincare_report(q, 2)
    assert not report["passed"]
    assert report["gradings"]["c"]["top_rank"] == 2
    budget.finish()


def test_criterion_12_fundamental_class():
    budget = Budget("12 fundamental class free of rank 1, norms <= 4", 120)
    q = sym_geodesic_pmq(3)
    comp = Completion(q)
    for b in comp.classes_up_to(4):
        if b.is_unit:
            continue
        cx = build_relative_complex(q, b)
        h = homology(cx)
        top = h[2 * b.norm]
        assert top == {"rank": 1, "torsion": []}, (b.labels(), h)
    budget.finish()


def test_fundamental_class_s4_norms_up_to_3():
    budget = Budget("S_4 fundamental class free of rank 1, norms <= 3", 60)
    q = sym_geodesic_pmq(4)
    comp = Completion(q)
    for b in comp.classes_up_to(3):
        if b.is_unit:
            continue
        h = homology(build_relative_complex(q, b))
        assert h[2 * b.norm] == {"rank": 1, "torsion": []}, (b.labels(), h)
    budget.finish()


def test_s3_norm_5_homology_tables():
    budget = Budget("S_3 norm 5: integer tables of 132.231.231 and of t^5", 120)
    q = sym_geodesic_pmq(3)
    comp = Completion(q)

    def nonzero(h):
        return {n: (d["rank"], d["torsion"]) for n, d in h.items() if d["rank"] or d["torsion"]}

    # the largest orbit; its other two gradings are conjugates, left out for time
    cx = build_relative_complex(q, comp.of_labels(["132", "231", "231"]))
    assert sum(cx.dims().values()) == 175_680
    assert nonzero(homology(cx)) == {6: (0, [2]), 7: (0, [2]), 8: (1, []), 9: (2, []), 10: (1, [])}
    for t in ("213", "132", "321"):
        b = comp.of_labels([t] * 5)
        cx = build_relative_complex(q, b)
        h = homology(cx)
        assert sum(cx.dims().values()) == 2016
        assert nonzero(h) == {7: (0, [2]), 9: (1, []), 10: (1, [])}, (t, h)
        for p in (2, 3):
            hp = homology(build_relative_complex(q, b, mod=p))
            assert {n: d["rank"] for n, d in hp.items()} == uct_ranks(h, p), (t, p, h, hp)
    budget.finish()


def test_criterion_13_structural_suites():
    budget = Budget("13 structural suites: identities, gradings, squares", 60)
    from pmq.barhur import BisimplexArray, induced_faces_commute

    q = sym_geodesic_pmq(3)
    comp = Completion(q)
    positives = [a for a in range(len(q)) if a != q.unit]
    rng = random.Random(13)

    def random_array(p, qq, support):
        grid = [[comp.unit() for _ in range(qq + 2)] for _ in range(p + 2)]
        cells = [(i, j) for i in range(p + 2) for j in range(qq + 2)]
        for i, j in rng.sample(cells, support):
            grid[i][j] = comp.of_sequence((rng.choice(positives),))
        return BisimplexArray(comp, tuple(tuple(col) for col in grid))

    for _ in range(30):
        p, qq = rng.randint(1, 2), rng.randint(1, 2)
        arr = random_array(p, qq, 3)
        grading = arr.total_grading()
        if p >= 2:
            for j in range(1, p + 1):
                for i in range(j):
                    assert arr.h_face(j).h_face(i) == arr.h_face(i).h_face(j - 1)
        if qq >= 2:
            for j in range(1, qq + 1):
                for i in range(j):
                    assert arr.v_face(j).v_face(i) == arr.v_face(i).v_face(j - 1)
        for i in range(p + 1):
            for j in range(qq + 1):
                assert arr.h_face(i).v_face(j) == arr.v_face(j).h_face(i)
                assert arr.h_face(i).total_grading() == grading
                assert arr.v_face(j).total_grading() == grading

    # boundary squared on freshly built complexes
    for b in comp.classes_of_norm(3):
        assert build_relative_complex(q, b).check_boundary_squared()

    # functoriality of the induced bisimplicial map on random arrays
    qa, qb = natural_truncation(1), natural_truncation(2)
    mapping = [qb.index(l) for l in qa.labels]
    comp_a = Completion(qa)
    ones = [qa.index("1")]
    for _ in range(20):
        p, qq = rng.randint(1, 2), rng.randint(1, 2)
        grid = [[comp_a.unit() for _ in range(qq + 2)] for _ in range(p + 2)]
        cells = [(i, j) for i in range(p + 2) for j in range(qq + 2)]
        for i, j in rng.sample(cells, 3):
            grid[i][j] = comp_a.of_sequence((ones[0],) * rng.randint(1, 2))
        arr = BisimplexArray(comp_a, tuple(tuple(col) for col in grid))
        assert induced_faces_commute(qa, qb, mapping, arr)
    budget.finish()
