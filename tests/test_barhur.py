import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import differentials_by_array_faces, grids_by_filter, uct_ranks
from pmq.barhur import (
    BisimplexArray,
    _grids_of_grading,
    build_relative_complex,
    chain_map_commutes,
    enumerate_arrays,
    homology,
    poincare_report,
)
from pmq.catalog import (
    natural_truncation,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
)
from pmq.completion import Completion
from pmq.errors import PreconditionError
from pmq.serialize import pmq_from_json, pmq_to_json


def random_array(comp, rng, p, q, support=3, max_entry_norm=2):
    """A random array over the completion (no admissibility) with a bounded
    number of non-unit entries, so canonical forms stay at a searchable
    total norm."""
    pmq = comp.pmq
    positives = [a for a in range(len(pmq)) if a != pmq.unit]
    grid = [[comp.unit() for _ in range(q + 2)] for _ in range(p + 2)]
    cells = [(i, j) for i in range(p + 2) for j in range(q + 2)]
    for i, j in rng.sample(cells, min(support, len(cells))):
        length = rng.randint(1, max_entry_norm)
        grid[i][j] = comp.of_sequence(tuple(rng.choice(positives) for _ in range(length)))
    return BisimplexArray(comp, tuple(tuple(col) for col in grid))


@pytest.fixture(scope="module")
def comp3():
    return Completion(sym_geodesic_pmq(3))


def test_face_formula_direct_substitution(comp3):
    # two-column merge on a 2x2 inner grid over a geodesic PMQ
    q = comp3.pmq
    t12, t23 = q.index("213"), q.index("132")
    arr = BisimplexArray.from_inner(comp3, [(t12, q.unit), (q.unit, t23)])
    merged = arr.h_face(1)
    # row 1: t12 conjugated by nothing times unit; row 2: unit^... times t23
    assert merged.columns[1][1] == comp3.element(t12)
    assert merged.columns[1][2] == comp3.element(t23)
    # vertical merge multiplies entrywise
    vm = arr.v_face(1)
    assert vm.columns[1][1] == comp3.element(t12)
    assert vm.columns[2][1] == comp3.element(t23)


def test_face_merge_uses_conjugation(comp3):
    q = comp3.pmq
    t12, t23 = q.index("213"), q.index("132")
    # inner grid: column 1 = (1, t12), column 2 = (t23, 1): the second-row
    # merge conjugates t12 by the entry above in the right column
    arr = BisimplexArray.from_inner(comp3, [(q.unit, t12), (t23, q.unit)])
    merged = arr.h_face(1)
    conj_t12 = q.conj[t12][t23]
    assert merged.columns[1][1] == comp3.element(t23)
    assert merged.columns[1][2] == comp3.element(conj_t12)


def test_grading_preserved_by_all_maps(comp3):
    rng = random.Random(0)
    for _ in range(25):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        arr = random_array(comp3, rng, p, q, support=3, max_entry_norm=1)
        grading = arr.total_grading()
        for i in range(p + 1):
            assert arr.h_face(i).total_grading() == grading
            assert arr.h_degen(i).total_grading() == grading
        for j in range(q + 1):
            assert arr.v_face(j).total_grading() == grading
            assert arr.v_degen(j).total_grading() == grading


def test_bisimplicial_identities(comp3):
    rng = random.Random(1)
    for _ in range(12):
        arr = random_array(comp3, rng, 2, 2, support=4, max_entry_norm=1)
        p, q = arr.p, arr.q
        # d_i d_j = d_{j-1} d_i for i < j, horizontally and vertically
        for j in range(1, p + 1):
            for i in range(j):
                assert arr.h_face(j).h_face(i) == arr.h_face(i).h_face(j - 1)
        for j in range(1, q + 1):
            for i in range(j):
                assert arr.v_face(j).v_face(i) == arr.v_face(i).v_face(j - 1)
        # horizontal and vertical faces commute
        for i in range(p + 1):
            for j in range(q + 1):
                assert arr.h_face(i).v_face(j) == arr.v_face(j).h_face(i)


def test_degeneracy_then_matching_face_is_identity(comp3):
    rng = random.Random(2)
    arr = random_array(comp3, rng, 1, 2, support=3, max_entry_norm=1)
    for i in range(arr.p + 1):
        assert arr.h_degen(i).h_face(i) == arr
        assert arr.h_degen(i).h_face(i + 1) == arr
    for j in range(arr.q + 1):
        assert arr.v_degen(j).v_face(j) == arr
        assert arr.v_degen(j).v_face(j + 1) == arr


def test_grading_conserved_on_enumerated_arrays(comp3):
    # exhaustive over every admissible array of two small gradings: every
    # face and degeneracy keeps the column-major product (the shuffle
    # identity ab = b a^b at work)
    q = comp3.pmq
    for labels in (["231"], ["213", "132"]):
        b = comp3.of_labels(labels)
        for arr in enumerate_arrays(q, b):
            assert arr.total_grading() == b
            for i in range(arr.p + 1):
                if arr.p >= 1:
                    assert arr.h_face(i).total_grading() == b
                assert arr.h_degen(i).total_grading() == b
            for j in range(arr.q + 1):
                if arr.q >= 1:
                    assert arr.v_face(j).total_grading() == b
                assert arr.v_degen(j).total_grading() == b


def test_faces_of_nondegenerate_admissible_stay_nondegenerate(comp3):
    q = comp3.pmq
    b = comp3.of_labels(["231", "132"])
    for arr in enumerate_arrays(q, b):
        assert not arr.is_degenerate() and arr.is_admissible()
        for i in range(arr.p + 1):
            if arr.p >= 1:
                assert not arr.h_face(i).is_degenerate()
        for j in range(arr.q + 1):
            if arr.q >= 1:
                assert not arr.v_face(j).is_degenerate()


def test_enumerate_unit_grading():
    q = natural_truncation(2)
    comp = Completion(q)
    arrays = enumerate_arrays(q, comp.unit())
    assert len(arrays) == 1
    assert (arrays[0].p, arrays[0].q) == (0, 0)


def test_enumerate_five_arrays_for_grading_two():
    q = natural_truncation(2)
    comp = Completion(q)
    arrays = enumerate_arrays(q, comp.of_labels(["2"]))
    shapes = sorted((a.p, a.q) for a in arrays)
    assert shapes == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 2)]


def test_enumerate_single_transposition_class():
    q = sym_geodesic_pmq(3)
    comp = Completion(q)
    arrays = enumerate_arrays(q, comp.of_labels(["213"]))
    assert len(arrays) == 1 and (arrays[0].p, arrays[0].q) == (1, 1)


@pytest.mark.parametrize(
    "make,max_norm",
    [
        (lambda: sym_geodesic_pmq(3), 4),
        (lambda: sym_geodesic_pmq(4), 3),
        (lambda: natural_truncation(3), 3),
        (lambda: transposition_quandle(3), 3),
        (segre_pmq, 2),
    ],
    ids=["S3", "S4", "natural3", "transpositions3", "segre"],
)
def test_grids_by_construction_match_generate_and_filter(make, max_norm):
    q = make()
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm):
        assert _grids_of_grading(q, comp, b) == grids_by_filter(q, comp, b), b.labels()


FOURTH_POWERS = [[t] * 4 for t in ("213", "132", "321")]   # 196 cells each in S_3


@pytest.mark.parametrize(
    "make,max_norm,extra",
    [
        (lambda: sym_geodesic_pmq(3), 3, FOURTH_POWERS),
        (lambda: sym_geodesic_pmq(4), 2, []),
        (lambda: natural_truncation(3), 3, []),
        (lambda: transposition_quandle(3), 3, []),
        (segre_pmq, 2, []),
    ],
    ids=["S3", "S4", "natural3", "transpositions3", "segre"],
)
def test_fast_faces_match_array_faces(make, max_norm, extra):
    q = make()
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm) + [comp.of_labels(labels) for labels in extra]:
        for mod in (0, 2):
            cx = build_relative_complex(q, b, mod)
            want = differentials_by_array_faces(comp, cx.basis, mod)
            assert cx.differentials == want, (b.labels(), mod)


def placement_count(w, h, length):
    """Sets of ``length`` cells of a w x h grid meeting every row and column,
    counted by inclusion-exclusion over the rows and columns missed."""
    return sum(
        (-1) ** (i + j) * comb(w, i) * comb(h, j) * comb((w - i) * (h - j), length)
        for i in range(w + 1)
        for j in range(h + 1)
    )


def predicted_cells(comp, b):
    """Cells per bidegree (w, h): sum over lengths L of #states(L) P(w, h, L)."""
    states = comp.class_states(b)
    out = {}
    for w in range(1, b.norm + 1):
        for h in range(1, b.norm + 1):
            count = sum(len(s) * placement_count(w, h, length) for length, s in states.items())
            if count:
                out[(w, h)] = count
    return out


@pytest.mark.parametrize("d,max_norm", [(3, 4), (4, 3)])
def test_cell_counts_match_inclusion_exclusion(d, max_norm):
    q = sym_geodesic_pmq(d)
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm):
        if b.is_unit:
            continue
        built = {k: len(g) for k, g in _grids_of_grading(q, comp, b).items()}
        assert built == predicted_cells(comp, b), b.labels()


@pytest.mark.parametrize("d,norm,cells", [(3, 5, 533_088), (4, 4, 283_300)])
def test_norm_level_cell_totals_without_building(d, norm, cells):
    comp = Completion(sym_geodesic_pmq(d))
    total = sum(
        sum(predicted_cells(comp, b).values()) for b in comp.classes_of_norm(norm)
    )
    assert total == cells


def test_build_relative_complex_canonicalises_no_candidate(comp3, monkeypatch):
    b = comp3.of_labels(["213"] * 4)
    calls = []
    of_sequence = Completion.of_sequence

    def counting(self, seq):
        calls.append(seq)
        return of_sequence(self, seq)

    monkeypatch.setattr(Completion, "of_sequence", counting)
    cx = build_relative_complex(comp3.pmq, b)
    assert sum(cx.dims().values()) == 196
    assert calls == []


def test_relative_complex_single_generator():
    q = natural_truncation(1)
    comp = Completion(q)
    cx = build_relative_complex(q, comp.of_labels(["1"]))
    assert cx.dims() == {2: 1}
    assert cx.differentials == {}
    assert homology(cx)[2] == {"rank": 1, "torsion": []}


def test_relative_complex_grading_two():
    q = natural_truncation(2)
    comp = Completion(q)
    cx = build_relative_complex(q, comp.of_labels(["2"]))
    assert cx.dims() == {2: 1, 3: 2, 4: 2}
    assert sum((-1) ** n * d for n, d in cx.dims().items()) == 1
    h = homology(cx)
    assert h[4] == {"rank": 1, "torsion": []}
    assert h[3]["rank"] == 0 and h[2]["rank"] == 0


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_symmetric_product_homology(n, m):
    q = natural_truncation(n)
    comp = Completion(q)
    cx = build_relative_complex(q, comp.of_labels([str(m)]))
    h = homology(cx)
    for degree, data in h.items():
        expected = 1 if degree == 2 * m else 0
        assert data["rank"] == expected and not data["torsion"]


def test_segre_top_homology_rank_two():
    q = segre_pmq()
    comp = Completion(q)
    cx = build_relative_complex(q, comp.of_labels(["c"]))
    h = homology(cx)
    assert h[4] == {"rank": 2, "torsion": []}
    assert h[3] == {"rank": 1, "torsion": []}


def test_homology_mod_p_dimensions():
    q = segre_pmq()
    comp = Completion(q)
    cx = build_relative_complex(q, comp.of_labels(["c"]), mod=5)
    h = homology(cx)
    assert h[4]["rank"] == 2


def test_relative_complex_refuses_composite_modulus(comp3):
    b = comp3.of_labels(["213"] * 4)
    with pytest.raises(PreconditionError) as err:
        build_relative_complex(comp3.pmq, b, mod=4)
    assert err.value.failed == "prime"


def test_hurwitz_cover_ranks():
    q = transposition_quandle(3)
    comp = Completion(q)
    cx = build_relative_complex(q, comp.of_labels(["213", "321"]))
    h = homology(cx)
    assert (h[3]["rank"], h[4]["rank"]) == (1, 1)


def test_poincare_reports():
    assert poincare_report(natural_truncation(3), 3)["passed"]
    assert poincare_report(transposition_quandle(3), 2)["passed"]
    rep = poincare_report(segre_pmq(), 2)
    assert not rep["passed"]
    assert rep["coconnected"] is False
    assert rep["gradings"]["c"]["top_rank"] == 2


def test_fundamental_class_sdgeo4_small_norms():
    q = sym_geodesic_pmq(4)
    comp = Completion(q)
    for b in comp.classes_up_to(2):
        if b.is_unit:
            continue
        h = homology(build_relative_complex(q, b))
        assert h[2 * b.norm] == {"rank": 1, "torsion": []}
    for b in comp.classes_of_norm(3)[:4]:
        h = homology(build_relative_complex(q, b))
        assert h[6] == {"rank": 1, "torsion": []}


def test_face_index_errors(comp3):
    q = comp3.pmq
    arr = BisimplexArray.from_inner(comp3, [(q.index("213"),)])
    with pytest.raises(IndexError):
        arr.h_face(2)
    with pytest.raises(IndexError):
        arr.v_face(2)
    with pytest.raises(IndexError):
        arr.h_degen(5)


def test_functoriality_of_inclusion():
    qa = natural_truncation(1)
    qb = natural_truncation(2)
    mapping = [qb.index(l) for l in qa.labels]
    comp_a = Completion(qa)
    # the induced map is a map of bisimplicial sets: every face and
    # degeneracy commutes on arbitrary arrays
    rng = random.Random(3)
    from pmq.barhur import induced_faces_commute

    for _ in range(20):
        arr = random_array(comp_a, rng, rng.randint(1, 2), rng.randint(1, 2), support=3)
        assert induced_faces_commute(qa, qb, mapping, arr)
    # at a grading without contractions it is also a relative chain map ...
    assert chain_map_commutes(qa, qb, mapping, comp_a.of_labels(["1"]))
    # ... but not where a product undefined in the source becomes defined in
    # the target: there the map of pairs does not exist
    assert not chain_map_commutes(qa, qb, mapping, comp_a.of_labels(["1", "1"]))


def test_universal_coefficients_link_integer_and_mod_p_homology(comp3):
    # dim H_n(F_p) = rank H_n + #{p | tors H_n} + #{p | tors H_(n-1)} ties the
    # Smith form over Z to the rank mod p on the same complexes
    q = comp3.pmq
    gradings = [b for b in comp3.classes_up_to(3) if not b.is_unit]
    # t^4 for each transposition t: 196 cells, H_5 = Z/2
    fourth_powers = [comp3.of_labels([t] * 4) for t in ("213", "132", "321")]
    for b in gradings + fourth_powers:
        cx = build_relative_complex(q, b)
        h = homology(cx)
        if b in fourth_powers:
            assert sum(cx.dims().values()) == 196
            assert h[5] == {"rank": 0, "torsion": [2]}, (b.labels(), h)
        for p in (2, 3):
            hp = homology(build_relative_complex(q, b, mod=p))
            assert {n: d["rank"] for n, d in hp.items()} == uct_ranks(h, p), (b.labels(), p, h, hp)


_ZERO = {"rank": 0, "torsion": []}


def _tables_by_norm(q, top):
    """Per norm 1..top, the sorted nonzero parts of the integer homology
    tables of its gradings, which do not depend on the labels."""
    comp = Completion(q)
    out = []
    for n in range(1, top + 1):
        tables = []
        for b in comp.classes_of_norm(n):
            h = homology(build_relative_complex(q, b))
            nonzero = [(d, e["rank"], e["torsion"]) for d, e in h.items() if e != _ZERO]
            tables.append(sorted(nonzero))
        out.append(sorted(tables))
    return out


_RELABEL_CASES = [
    (sym_geodesic_pmq(3), 3),
    (natural_truncation(3), 3),
    (transposition_quandle(3), 3),
    (segre_pmq(), 2),
]
_CATALOG_TABLES = [_tables_by_norm(q, top) for q, top in _RELABEL_CASES]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(range(len(_RELABEL_CASES))).flatmap(
    lambda i: st.tuples(st.just(i), st.permutations(_RELABEL_CASES[i][0].labels))
))
def test_homology_invariant_under_declaration_order(case_and_order):
    # the pivot order of the elimination follows the labels, so a shuffled
    # declaration runs it on differently ordered matrices
    i, order = case_and_order
    q, top = _RELABEL_CASES[i]
    doc = pmq_to_json(q)
    doc["elements"] = list(order)
    assert _tables_by_norm(pmq_from_json(doc)[0], top) == _CATALOG_TABLES[i]
