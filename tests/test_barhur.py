import hashlib
import pickle
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    basis_of,
    chain_map_by_array_faces,
    differentials_by_array_faces,
    fuks_count,
    grid_ordered,
    grids_by_filter,
    homology_by_dense_oracles,
    homology_by_full_differentials,
    placements_by_filter,
    run_optimised,
    uct_ranks,
)
from pmq.barhur import (
    BisimplexArray,
    GradedComplex,
    _assemble,
    _placements,
    _plan,
    build_relative_complex,
    chain_map_commutes,
    homology,
    induced_faces_commute,
    poincare_report,
)
from pmq.catalog import (
    natural_truncation,
    natural_with_double_one,
    norm_one_truncation,
    pointed_set_pmq,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
    unit_pmq,
)
from pmq.completion import Completion
from pmq.errors import PreconditionError, StructureError
from pmq.properties import intrinsic_pseudonorm, property_report
from pmq.serialize import pmq_from_json, pmq_to_json
from pmq.snf import Matrix, homology_groups


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


def arrays_of(q, b):
    """Every admissible non-degenerate array of grading b: the cells of its
    complex (``basis_of``) in unit borders, in basis order."""
    comp = b.completion
    cells = basis_of(build_relative_complex(q, b)).values()
    return [BisimplexArray.from_inner(comp, grid) for degree in cells for _, _, grid in degree]


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
        for arr in arrays_of(q, b):
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
    for arr in arrays_of(q, b):
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
    arrays = arrays_of(q, comp.unit())
    assert len(arrays) == 1
    assert (arrays[0].p, arrays[0].q) == (0, 0)


def test_enumerate_five_arrays_for_grading_two():
    q = natural_truncation(2)
    comp = Completion(q)
    arrays = arrays_of(q, comp.of_labels(["2"]))
    shapes = sorted((a.p, a.q) for a in arrays)
    assert shapes == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 2)]


def test_enumerate_single_transposition_class():
    q = sym_geodesic_pmq(3)
    comp = Completion(q)
    arrays = arrays_of(q, comp.of_labels(["213"]))
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
        grids: dict = {}
        for cells in basis_of(build_relative_complex(q, b)).values():
            for p, qq, grid in cells:
                grids.setdefault((p, qq), []).append(grid)
        assert {shape: sorted(g) for shape, g in grids.items()} == grids_by_filter(q, comp, b), b.labels()


@pytest.mark.parametrize(
    "make,max_norm",
    [(lambda: sym_geodesic_pmq(3), 4), (lambda: natural_truncation(3), 3)],
    ids=["S3", "natural3"],
)
def test_basis_is_in_construction_order(make, max_norm):
    # basis[n] runs through its bidegrees in ascending order, each
    # bidegree's placements in _placements order (lengths as class_states
    # lists them), and each placement's cells through the states of its
    # length in class_states order
    q = make()
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm):
        states = comp.class_states(b)
        for n, cells in basis_of(build_relative_complex(q, b)).items():
            read = []   # (p, q, placement, state) of each cell, off its grid
            for p, qq, grid in cells:
                flat = [x for col in grid for x in col]
                placed = tuple(c for c, x in enumerate(flat) if x != q.unit)
                read.append((p, qq, placed, tuple(flat[c] for c in placed)))
            shapes = sorted({(p, qq) for p, qq, _ in cells})
            assert read == [
                (p, qq, placed, state)
                for p, qq in shapes
                for length, group in states.items()
                for placed in _placements(p, qq, length)
                for state in group
            ], (b.labels(), n)


@pytest.fixture
def fresh_plans():
    # a plan is made once per process for each set of state lengths and
    # outlives the build that made it: clear the memo so that the build
    # under test makes its own plan (through a patched ``_placement_faces``,
    # say), and again afterwards so that no other test reads that plan
    _plan.cache_clear()
    yield _plan
    _plan.cache_clear()


def _assembled(q, b):
    """(sizes, differentials in write order, cancels) of ``_assemble``."""
    sizes, differentials, cancels = _assemble(q, b.completion.class_states(b))
    return sizes, [(n, list(d.items())) for n, d in differentials.items()], cancels


def test_warm_placement_memo_builds_the_same_complex(fresh_plans):
    # placement faces are memoised per process, as plans shared by every
    # grading with the same state lengths: a build on a warm memo must
    # equal one on a cold memo, and what the memo hands out must be
    # immutable
    q = sym_geodesic_pmq(3)
    comp = Completion(q)
    b = comp.of_labels(["213", "132", "213"])
    cold = build_relative_complex(q, b)
    misses = _plan.cache_info().misses
    warm = build_relative_complex(q, b)
    info = _plan.cache_info()
    assert misses and info.misses == misses and info.hits >= misses
    assert list(warm.sizes.items()) == list(cold.sizes.items())
    assert list(warm.differentials) == list(cold.differentials)
    for n, d in cold.differentials.items():
        assert list(warm.differentials[n].items()) == list(d.items())

    def frozen(x):
        return x is None or type(x) is int or (type(x) is tuple and all(map(frozen, x)))

    assert frozen(_plan(tuple(sorted(comp.class_states(b)))))


def test_s4_gradings_on_plans_warmed_by_s3_equal_cold_builds(fresh_plans):
    # S_3 and S_4 gradings share state lengths, so S_4 builds read plans
    # that S_3 builds made; the complexes must be those of cold builds
    q3, q4 = sym_geodesic_pmq(3), sym_geodesic_pmq(4)
    comp3, comp4 = Completion(q3), Completion(q4)
    gradings = [b for b in comp4.classes_up_to(3) if not b.is_unit]
    cold = []
    for b in gradings:
        fresh_plans.cache_clear()
        cold.append(_assembled(q4, b))
    fresh_plans.cache_clear()
    for b in comp3.classes_up_to(4):
        build_relative_complex(q3, b)
    warmed = _plan.cache_info().currsize
    warm = [_assembled(q4, b) for b in gradings]
    assert _plan.cache_info().currsize < warmed + len({tuple(sorted(comp4.class_states(b))) for b in gradings})
    for b, (sizes, differentials, cancels), (sizes_warm, differentials_warm, cancels_warm) in zip(gradings, cold, warm):
        assert list(sizes.items()) == list(sizes_warm.items()), b.labels()
        assert differentials == differentials_warm, b.labels()
        assert cancels is cancels_warm is True, b.labels()


def test_conjugate_gradings_share_one_plan(fresh_plans):
    # 231.231 and 312.312 have states of the same lengths: the second
    # build reads the first one's plan, and each equals a cold build
    q = sym_geodesic_pmq(3)
    comp = Completion(q)
    first, second = comp.of_labels(["231", "231"]), comp.of_labels(["312", "312"])
    warm_first = _assembled(q, first)
    misses = fresh_plans.cache_info().misses
    warm_second = _assembled(q, second)
    info = fresh_plans.cache_info()
    assert info.misses == misses and info.hits == 1
    for b, warm in ((first, warm_first), (second, warm_second)):
        fresh_plans.cache_clear()
        assert _assembled(q, b) == warm, b.labels()


def test_a_cell_position_is_one_int_in_both_differentials():
    # a cell's position is one int object wherever d_(n+1) names it as a
    # row, not one int per entry; d_n names it as a column by where its
    # entries start, with no per-entry column list
    q = sym_geodesic_pmq(3)
    cx = build_relative_complex(q, Completion(q).of_labels(["231", "231"]))
    assert Matrix.__slots__ == ("rows", "vals", "starts", "nrows")
    shared = 0
    for n, d in cx.differentials.items():
        assert not hasattr(d, "__dict__")
        assert len(d.starts) == cx.sizes[n] + 1 and d.nrows == cx.sizes[n - 1]
        first = {}
        for r in d.rows:
            assert first.setdefault(r, r) is r, (n, r)
            shared += r > 256   # past the interpreter's small-int cache
    assert shared


def test_coinciding_faces_are_caught(monkeypatch, fresh_plans):
    # each entry is written as one face's sign, not summed, because no two
    # faces of a basis array coincide; the build counts face hits against
    # entries, so a placement listing one face twice must not pass silently
    import pmq.barhur

    faces_of = pmq.barhur._placement_faces

    def doubled(width, height, cells):
        faces = faces_of(width, height, cells)
        return faces + faces[:1]

    monkeypatch.setattr(pmq.barhur, "_placement_faces", doubled)
    q = sym_geodesic_pmq(3)
    b = Completion(q).of_labels(["213", "132", "213"])
    with pytest.raises(AssertionError, match="two faces of one cell coincide"):
        build_relative_complex(q, b)


FOURTH_POWERS = [[t] * 4 for t in ("213", "132", "321")]   # 196 cells each in S_3


@pytest.mark.parametrize(
    "make,max_norm,extra",
    [
        (lambda: sym_geodesic_pmq(3), 3, FOURTH_POWERS),
        (lambda: sym_geodesic_pmq(4), 2, []),
        (lambda: natural_truncation(3), 4, []),
        (lambda: transposition_quandle(3), 3, []),
        (segre_pmq, 3, []),
    ],
    ids=["S3", "S4", "natural3", "transpositions3", "segre"],
)
def test_fast_faces_match_array_faces(make, max_norm, extra):
    # natural3 at norm 4 and segre at norm 3 merge columns whose products
    # are undefined; the oracle sums column by column, faces in index order,
    # so the entries must come in the same order too
    q = make()
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm) + [comp.of_labels(labels) for labels in extra]:
        for mod in (0, 2):
            # the stored entries are the integer signs whatever the modulus
            cx = build_relative_complex(q, b, mod)
            want = differentials_by_array_faces(comp, basis_of(cx))
            assert _items(cx.differentials) == _items(want), (b.labels(), mod)


@pytest.mark.parametrize(
    "make,max_norm",
    [(lambda: sym_geodesic_pmq(3), 3), (lambda: natural_truncation(3), 4)],
    ids=["S3", "natural3"],
)
def test_stored_matrices_are_mappings_in_write_order(make, max_norm):
    # each differential is stored as flat lists, one entry per face hit,
    # read as a mapping: its length is the number of nonzeros, its items
    # come in the order the entries were written (column by column in
    # basis order, faces in index order, as the oracle writes them), it
    # equals the dict of the same entries, and it is read-only
    q = make()
    comp = Completion(q)
    seen = 0
    for b in comp.classes_up_to(max_norm):
        cx = build_relative_complex(q, b)
        want = differentials_by_array_faces(comp, basis_of(cx))
        assert list(cx.differentials) == list(want)
        for n, d in cx.differentials.items():
            assert type(d) is Matrix
            assert len(d) == len(want[n]) == len(set(d))
            assert list(d.items()) == list(want[n].items())
            assert list(d) == list(want[n])
            assert d == want[n] and want[n] == d and d != {**want[n], (0, -1): 1}
            key = list(d)[-1]
            assert d[key] == want[n][key]
            with pytest.raises(TypeError):
                d[key] = 7
            assert d == want[n]
            with pytest.raises(KeyError):
                d[-1, -1]
            assert (-1, -1) not in d and key in d and len(d) == len(want[n])
            seen += 1
    assert seen > 10


def test_malformed_matrices_are_refused_under_optimisation():
    # each matrix is read by its column starts as written, so lists that
    # do not make a matrix are refused by an explicit raise, which python -O
    # keeps, by the elimination and by the stored-matrix check alike
    run = run_optimised(
        "import copy, dataclasses\n"
        "from pmq.barhur import build_relative_complex\n"
        "from pmq.catalog import sym_geodesic_pmq\n"
        "from pmq.completion import Completion\n"
        "from pmq.snf import homology_groups, rank_mod_p, smith_normal_form\n"
        "q = sym_geodesic_pmq(3)\n"
        "cx = build_relative_complex(q, Completion(q).of_labels(['213', '132', '213']))\n"
        "n = min(n for n in cx.differentials if n + 1 in cx.differentials)\n"
        "def swap_starts(d): d.starts[1], d.starts[2] = d.starts[2], d.starts[1]\n"
        "def drop_last_start(d): d.starts.pop()\n"
        "def open_last_column(d): d.rows.append(0); d.vals.append(1)\n"
        "def start_at_one(d): d.starts[0] = 1\n"
        "def drop_a_value(d): d.vals.pop()\n"
        "def row_past(d): d.rows[0] = d.nrows\n"
        "def row_below(d): d.rows[-1] = -1\n"
        "cases = [swap_starts, drop_last_start, open_last_column, start_at_one, drop_a_value, row_past, row_below]\n"
        "for make in cases:\n"
        "    for degree in (n, n + 1):\n"
        "        broken = dataclasses.replace(cx, differentials=copy.deepcopy(cx.differentials))\n"
        "        d = broken.differentials[degree]\n"
        "        make(d)\n"
        "        for name, call in [\n"
        "            ('smith_normal_form', lambda: smith_normal_form(d)),\n"
        "            ('rank_mod_p', lambda: rank_mod_p(d, 5)),\n"
        "            ('homology_groups', lambda: homology_groups(broken.differentials, broken.dims())),\n"
        "            ('check_boundary_squared', broken.check_boundary_squared),\n"
        "        ]:\n"
        "            try:\n"
        "                call()\n"
        "            except ValueError as e:\n"
        "                print(make.__name__, degree - n, name, str(e).split()[1])\n"
        "            else:\n"
        "                print(make.__name__, degree - n, name, 'passed')\n"
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 7 * 2 * 4
    assert not [line for line in lines if line.endswith("passed")], lines
    # each fault is named: the starts, the values, or the rows
    words = {"swap_starts": "column", "drop_last_start": "column", "open_last_column": "column",
             "start_at_one": "column", "drop_a_value": "has", "row_past": "rows", "row_below": "rows"}
    for line in lines:
        make, _, _, word = line.split()
        assert word == words[make], line


def _items(differentials):
    """Every degree's entries as a list, in insertion order."""
    return [(n, list(d.items())) for n, d in differentials.items()]


_SHUFFLE_CASES = [(sym_geodesic_pmq(3), 3), (natural_truncation(3), 3)]


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(range(len(_SHUFFLE_CASES))).flatmap(
        lambda i: st.tuples(st.just(i), st.permutations(_SHUFFLE_CASES[i][0].labels))
    ),
    st.sampled_from([0, 2]),
)
def test_fast_faces_match_array_faces_in_any_declaration_order(case_and_order, mod):
    # a relabelling moves the states, their order and so the face
    # patterns, which key the face tables
    i, order = case_and_order
    top = _SHUFFLE_CASES[i][1]
    doc = pmq_to_json(_SHUFFLE_CASES[i][0])
    doc["elements"] = list(order)
    q = pmq_from_json(doc)[0]
    comp = Completion(q)
    for b in comp.classes_up_to(top):
        cx = build_relative_complex(q, b, mod)
        want = differentials_by_array_faces(comp, basis_of(cx))
        assert _items(cx.differentials) == _items(want), (b.labels(), mod)


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


def test_placements_match_inclusion_exclusion_to_length_7():
    # the uncached builder, so the 361,792 placements of length 7 are not
    # kept for the rest of the test run
    totals = []
    for length in range(1, 8):
        total = 0
        for w in range(1, length + 1):
            for h in range(1, length + 1):
                placed = _placements.__wrapped__(w, h, length)
                assert len(placed) == placement_count(w, h, length), (w, h, length)
                assert list(placed) == sorted(set(placed))
                for cells in placed:
                    assert len(cells) == length and list(cells) == sorted(cells)
                    assert len({c // h for c in cells}) == w and len({c % h for c in cells}) == h
                    assert 0 <= cells[0] and cells[-1] < w * h
                total += len(placed)
        totals.append(total)
    assert totals == [1, 4, 24, 196, 2016, 24976, 361792]


def test_placements_equal_generate_and_filter():
    for length in range(0, 6):
        for w in range(0, length + 2):
            for h in range(0, length + 2):
                assert _placements(w, h, length) == placements_by_filter(w, h, length), (w, h, length)


@pytest.mark.parametrize("d,max_norm", [(3, 4), (4, 3)])
def test_cell_counts_match_inclusion_exclusion(d, max_norm):
    q = sym_geodesic_pmq(d)
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm):
        if b.is_unit:
            continue
        built: dict = {}
        for cells in basis_of(build_relative_complex(q, b)).values():
            for p, qq, _ in cells:
                built[p, qq] = built.get((p, qq), 0) + 1
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


@pytest.mark.parametrize("budget", [0, -1])
def test_poincare_report_refuses_a_budget_below_one(budget):
    # such a budget checks no grading, so a verdict would say nothing
    with pytest.raises(PreconditionError, match=f"budget {budget} is below 1") as err:
        poincare_report(sym_geodesic_pmq(3), budget)
    assert err.value.failed == "budget"


@pytest.mark.parametrize(
    "q",
    [
        unit_pmq(),
        natural_truncation(3),
        natural_with_double_one(3),
        segre_pmq(),
        pointed_set_pmq({"x": 2}),
        pointed_set_pmq({"x": 1, "y": 3}),
        transposition_quandle(3),
        sym_geodesic_pmq(3),
        norm_one_truncation(sym_geodesic_pmq(3)),
    ],
    ids=["unit", "natural3", "double-one3", "segre", "pointed-x2", "pointed-x1y3",
         "transpositions3", "S3", "S3-norm-one"],
)
def test_poincare_report_hypotheses_match_property_report(q):
    rep = property_report(q)
    got = poincare_report(q, 1)
    assert got["maximally_decomposable"] == rep.maximally_decomposable
    assert got["coconnected"] == rep.coconnected
    h = intrinsic_pseudonorm(q)
    assert got["intrinsic_norm_equals_norm"] == all(
        h[label] == q.norm[a] for a, label in enumerate(q.labels)
    )


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


def test_s3_t6_full_complex():
    # the 24,976 cells of the grading t^6, t = 213, over Z and over F_2, F_3
    q = sym_geodesic_pmq(3)
    cx = build_relative_complex(q, Completion(q).of_labels(["213"] * 6))
    assert sum(cx.dims().values()) == 24_976
    h = homology(cx)
    nonzero = {n: (d["rank"], d["torsion"]) for n, d in h.items() if d["rank"] or d["torsion"]}
    assert nonzero == {7: (0, [3]), 8: (0, [2]), 9: (0, [2]), 11: (1, []), 12: (1, [])}
    for p in (2, 3):
        hp = homology_groups(cx.differentials, cx.dims(), p)
        assert {n: d["rank"] for n, d in hp.items()} == uct_ranks(h, p), p
        if p == 2:
            assert_braid_group_cohomology(6, h, hp)


def assert_braid_group_cohomology(n, h, h2):
    """The relative homology of a transposition's ``t^n`` is ``H^*(B_n)``
    read downwards from degree 2n (ROADMAP item 10).  ``h`` is the integer
    table: rank 1 in degrees 2n and 2n - 1 and 0 elsewhere (Arnold; B_1
    has no H^1).  ``h2`` is the F_2 table: rank the Fuks count at
    q = 2n - degree."""
    top = {2 * n, 2 * n - 1} if n > 1 else {2}
    assert {m for m, e in h.items() if e["rank"]} == top, n
    assert all(h[m]["rank"] == 1 for m in top), n
    assert {m: e["rank"] for m, e in h2.items()} == {m: fuks_count(n, 2 * n - m) for m in h2}, n


def test_braid_group_cohomology_of_s2_t_n():
    # S_2's t = 21 has t·t undefined and t^t = t, so the grading t^n is the
    # configuration space of n unordered points in the plane, a K(B_n, 1)
    q = sym_geodesic_pmq(2)
    comp = Completion(q)
    for n in range(1, 6):
        b = comp.of_labels(["21"] * n)
        h = homology(build_relative_complex(q, b))
        h2 = homology(build_relative_complex(q, b, 2))
        assert_braid_group_cohomology(n, h, h2)
        assert {m: e["rank"] for m, e in h2.items()} == uct_ranks(h, 2), n


@pytest.mark.parametrize(
    "make,max_norm",
    [
        (lambda: sym_geodesic_pmq(3), 3),
        (lambda: sym_geodesic_pmq(4), 2),
        (lambda: natural_truncation(3), 3),
    ],
    ids=["S3", "S4", "natural3"],
)
def test_homology_matches_dense_oracles(make, max_norm):
    # real chain complexes against dense reductions that share no code
    # with pmq.snf, over Z, F_2 and F_5
    q = make()
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm):
        for mod in (0, 2, 5):
            cx = build_relative_complex(q, b, mod)
            want = homology_by_dense_oracles(cx.differentials, cx.dims(), mod)
            assert homology(cx) == want, (b.labels(), mod)


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


def _conjugations(d, top):
    q = sym_geodesic_pmq(d)
    for t in range(len(q)):
        mapping = [q.conj[a][t] for a in range(len(q))]
        for b in Completion(q).classes_up_to(top):
            yield q, q, mapping, b


def _inclusions(top):
    for k in (1, 2, 3):
        qa, qb = natural_truncation(k), natural_truncation(k + 1)
        mapping = [qb.index(label) for label in qa.labels]
        for b in Completion(qa).classes_up_to(top):
            yield qa, qb, mapping, b


def _pointed_collapse(top):
    # a -> 1 and b -> b, from the pointed set {1, a, b} onto {1, b}
    qa, qb = pointed_set_pmq({"a": 1, "b": 1}), pointed_set_pmq({"b": 1})
    mapping = [qb.index(label) if label in qb.labels else qb.unit for label in qa.labels]
    for b in Completion(qa).classes_up_to(top):
        yield qa, qb, mapping, b


def _from_s3(qb, labels):
    # the map sending the k-th element of S_3 to the k-th of ``labels``
    q = sym_geodesic_pmq(3)
    mapping = [qb.index(label) for label in labels]
    for b in Completion(q).classes_up_to(3):
        yield q, qb, mapping, b


@pytest.mark.parametrize(
    "make,count,failing",
    [
        # an automorphism a -> a^t maps each complex onto itself
        (lambda: _conjugations(3, 3), 90, []),
        (lambda: _conjugations(4, 2), 576, []),
        # a sum undefined in natural_truncation(k) is defined in k + 1
        (lambda: _inclusions(4), 15, ["1 1", "1 1 1", "1 1 1 1", "1 2", "2 2", "1 3"]),
        # the norm map sends several cells to one, and a square undefined in
        # S_3 to a defined sum
        (lambda: _from_s3(natural_truncation(3), "011122"), 15,
         ["132 132", "213 213", "321 321", "132 231", "132 312", "213 231",
          "132 132 132", "213 213 213", "321 321 321"]),
        # the map onto the unit sends each cell of positive norm to a
        # degenerate grid, which is no cell
        (lambda: _from_s3(unit_pmq(), "111111"), 15,
         ["132", "213", "321", "231", "312", "132 132", "213 213", "321 321",
          "132 231", "132 312", "213 231", "132 132 132", "213 213 213", "321 321 321"]),
        # a -> 1 collapses one non-unit only: some cells of a state with an
        # a have cell images (4 of the 72 of "a b b"), but its cell on the
        # one-row placement does not, as the a is alone in its column
        (lambda: _pointed_collapse(4), 15,
         ["a", "a a", "a b", "a a a", "a a b", "a b b", "a a a a", "a a a b", "a a b b", "a b b b"]),
    ],
    ids=["S3-conjugations", "S4-conjugations", "natural-inclusions", "S3-norm-map", "S3-to-unit",
         "pointed-collapse"],
)
def test_chain_map_check_matches_array_face_oracle(make, count, failing):
    # the check on whole stored differentials against both sides built
    # from the array faces, one source cell at a time
    failed, cases = [], 0
    for qa, qb, mapping, b in make():
        got = chain_map_commutes(qa, qb, mapping, b)
        assert got == chain_map_by_array_faces(qa, qb, mapping, b), b.labels()
        if not got:
            failed.append(" ".join(b.labels()))
        cases += 1
    assert failed == failing and cases == count


@pytest.mark.parametrize(
    "mapping,why",
    [([0, 1, 1], "does not preserve a defined product"), ([0, 1], "is not a map into the target")],
)
def test_induced_maps_refuse_a_mapping_that_is_not_a_map(mapping, why):
    # 2 -> 1 does not keep 1 + 1 = 2, and a short list maps nothing to 2
    q = natural_truncation(2)
    comp = Completion(q)
    arr = BisimplexArray.from_inner(comp, [(q.index("1"),)])
    with pytest.raises(StructureError, match=f"mapping {why}"):
        induced_faces_commute(q, q, mapping, arr)
    with pytest.raises(StructureError, match=f"mapping {why}"):
        chain_map_commutes(q, q, mapping, comp.of_labels(["1"]))


@pytest.mark.parametrize(
    "make,max_norm",
    [
        (lambda: sym_geodesic_pmq(3), 4),
        (lambda: sym_geodesic_pmq(4), 3),
        (lambda: natural_truncation(3), 4),
        (lambda: transposition_quandle(3), 4),
        (segre_pmq, 3),
    ],
    ids=["S3", "S4", "natural3", "transpositions3", "segre"],
)
def test_reduced_homology_matches_full_differentials(make, max_norm):
    # S_3 and transposition_quandle(3) have gradings with non-unit pivots,
    # where only the unit pivots taken before the first one may drop rows
    q = make()
    comp = Completion(q)
    for b in comp.classes_up_to(max_norm):
        for mod in (0, 2, 3):
            cx = build_relative_complex(q, b, mod)
            want = homology_by_full_differentials(cx.differentials, cx.dims(), mod)
            assert homology(cx) == want, (b.labels(), mod)


@pytest.mark.parametrize("mod", [0, 3])
def test_boundary_squared_check_sees_one_sign_flip(comp3, mod):
    # flipping the sign of an entry (r, c) of d_n changes d_n∘d_(n+1) by
    # -2 d_n[r, c] d_(n+1)[c, c'], nonzero over Z and mod 3 where row c of
    # d_(n+1) has an entry
    rng = random.Random(mod)
    q = comp3.pmq
    flips = 0
    for b in comp3.classes_up_to(3):
        cx = build_relative_complex(q, b, mod)
        assert cx.check_boundary_squared()
        for n, d in cx.differentials.items():
            rows_above = {r for r, _ in cx.differentials.get(n + 1, {})}
            candidates = sorted((key, k) for k, key in enumerate(d) if key[1] in rows_above)
            for key, k in rng.sample(candidates, min(5, len(candidates))):
                v = d.vals[k]
                d.vals[k] = (-v) % mod if mod else -v
                assert not cx.check_boundary_squared(), (b.labels(), n, key)
                d.vals[k] = v
                flips += 1
    assert flips > 50


# the graded complexes of every grading up to the norm, re-sorted by grid
# (``grid_ordered``) and pickled (protocol 4) one after another in
# ``classes_up_to`` order: basis and differentials, dict order included,
# as built before d∘d was gated on the face tables
_GATE_CASES = {
    "S3": (lambda: sym_geodesic_pmq(3), 4,
           "1cdbddf718e88816ceeebe0a8fb6085e900dba3d41ede6b9d35b3a88bb6dd6cd"),
    "S4": (lambda: sym_geodesic_pmq(4), 3,
           "396735d1eaecd9e087d2e431e54a6bd7ecfede32ed5c64a219db18ca100ca491"),
    "natural3": (lambda: natural_truncation(3), 4,
                 "02e91c7e04d35688ba46c748f018dc57dda97ac0f09db3ba08b193ced2bc7ae2"),
    "transpositions3": (lambda: transposition_quandle(3), 3,
                        "fb3015a16165bc6f5e22746a0415d5c56129b7fcc38d5f0972e6c617835d80fc"),
    "segre": (segre_pmq, 2,
              "b87381d3bdacaefe0225fa84a287270084bccb30547a90170b6dc47cf2bc0519"),
}


@pytest.mark.parametrize("case", sorted(_GATE_CASES))
def test_face_table_gate_agrees_with_stored_matrices(case):
    # the gate read off the face tables and the product of the stored
    # matrices give the same verdict (here every group cancels), and the
    # complexes are those built before the gate
    make, max_norm, digest = _GATE_CASES[case]
    q = make()
    comp = Completion(q)
    h = hashlib.sha256()
    for b in comp.classes_up_to(max_norm):
        sizes, differentials, cancels = _assemble(q, comp.class_states(b))
        cx = GradedComplex(q, b, sizes, differentials)
        stored = cx.check_boundary_squared()
        assert cancels is stored is True, b.labels()
        h.update(pickle.dumps(grid_ordered(basis_of(cx), differentials), protocol=4))
    assert h.hexdigest() == digest


# sha256 of the repr of (p, pivots, unit-pivot columns) of every
# elimination that homology_groups runs on the gradings of _GATE_CASES
# (the unit grading left out), over Z, F_2 and F_5 in turn, as taken when
# the Markowitz loop kept rows of one entry in a heap of their own
_PIVOT_DIGESTS = {
    "S3": "80149912f248cc6d445d94e059c19814cc68f22551d0acfa5bc37365dfb0c3e8",
    "S4": "321fa5d2f7076d341ec02827c2b260e0afdacdf6a25243b17ce40119c6e288e6",
    "natural3": "acd2990f56fcd86c1ebb6a2d5d296a993c4a165ea131f1f8b735d243193ae07c",
    "transpositions3": "c0316e47e2af93bbaf728bf8f524a9f71bb296574ab15f8492f9271df26bfc47",
    "segre": "99899898defba4c89a95473606fc3776f8490335ecbffda9bbb2281ad47fd0e1",
}


@pytest.mark.parametrize("case", sorted(_GATE_CASES))
def test_eliminations_keep_their_pivot_sequences(monkeypatch, case):
    # the pivots, their order and the unit-pivot columns handed to the next
    # degree are fixed by the pick rule alone, whichever code applies it
    import pmq.snf

    eliminate = pmq.snf._eliminate
    h = hashlib.sha256()

    def spy(entries, p=0, *, pivot_cols=None, skip_rows=()):
        pivots = eliminate(entries, p, pivot_cols=pivot_cols, skip_rows=skip_rows)
        h.update(repr((p, pivots, pivot_cols)).encode())
        return pivots

    monkeypatch.setattr(pmq.snf, "_eliminate", spy)
    make, max_norm, _ = _GATE_CASES[case]
    q = make()
    for b in Completion(q).classes_up_to(max_norm):
        if not b.is_unit:
            cx = build_relative_complex(q, b)
            for mod in (0, 2, 5):
                homology_groups(cx.differentials, cx.dims(), mod)
    assert h.hexdigest() == _PIVOT_DIGESTS[case]


def test_one_flipped_face_sign_fails_through_the_stored_matrices(monkeypatch, fresh_plans):
    # a build whose face pairs all cancel never multiplies the stored
    # matrices out; with one face sign of one placement flipped, a group
    # no longer cancels, and the stored matrices decide, and refuse
    import pmq.barhur

    q = sym_geodesic_pmq(3)
    b = Completion(q).of_labels(["213", "132", "213"])
    checks = []
    check = GradedComplex.check_boundary_squared

    def recorded(self):
        checks.append(check(self))
        return checks[-1]

    monkeypatch.setattr(GradedComplex, "check_boundary_squared", recorded)
    build_relative_complex(q, b)
    assert checks == []

    faces_of = pmq.barhur._placement_faces
    target = (2, 2, (0, 1, 3))   # 213.132.213 on three cells of a 2 x 2 grid

    def flipped(width, height, cells):
        faces = faces_of(width, height, cells)
        if (width, height, cells) == target:
            sign, *rest = faces[0]
            return ((-sign, *rest),) + faces[1:]
        return faces

    monkeypatch.setattr(pmq.barhur, "_placement_faces", flipped)
    fresh_plans.cache_clear()   # the build above made this grading's plan unflipped
    assert not _assemble(q, b.completion.class_states(b))[2]
    with pytest.raises(AssertionError, match="differential does not square to zero"):
        build_relative_complex(q, b)
    assert checks == [False]


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


@pytest.mark.parametrize("d, top", [(3, 4), (4, 3)])
def test_homology_invariant_under_conjugation(d, top):
    # conjugation by a base element a is a PMQ automorphism that maps the
    # arrays of b onto those of b^a and commutes with faces, so every
    # conjugate grading has the same cells and the same integer homology
    q = sym_geodesic_pmq(d)
    comp = Completion(q)
    tables = {}
    for b in comp.classes_up_to(top):
        cx = build_relative_complex(q, b)
        h = homology(cx)
        tables[b] = (cx.dims(), {n: e for n, e in h.items() if e != _ZERO})
    conjugators = [comp.element(a) for a in range(len(q))]
    for b, table in tables.items():
        for a in conjugators:
            assert tables[b.conj(a)] == table, (b.labels(), a.labels())


def test_grading_must_lie_over_the_same_pmq():
    # b's states come from its own completion, products and conjugation
    # from the PMQ argument: a mismatch would mix two sets of tables
    q = sym_geodesic_pmq(3)
    b = Completion(q).of_labels(["213", "213"])
    with pytest.raises(PreconditionError) as err:
        build_relative_complex(transposition_quandle(3), b)
    assert err.value.failed == "grading"
    # an equal PMQ built separately is the same PMQ
    copy = sym_geodesic_pmq(3)
    assert copy is not q
    assert basis_of(build_relative_complex(copy, b)) == basis_of(build_relative_complex(q, b))
    assert build_relative_complex(copy, b).differentials == build_relative_complex(q, b).differentials
