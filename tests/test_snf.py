import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmq.snf
from helpers import coreduction_by_transpose, dense_rank_mod_p_oracle, dense_smith_oracle, uct_ranks
from pmq.barhur import build_relative_complex
from pmq.catalog import sym_geodesic_pmq
from pmq.completion import Completion
from pmq.errors import PreconditionError
from pmq.snf import (
    Matrix,
    _eliminate,
    _markowitz,
    homology_groups,
    integer_rank,
    is_prime,
    rank_mod_p,
    smith_normal_form,
)


def dense_rank_oracle(entries, nrows, ncols) -> int:
    mat = [[Fraction(entries.get((r, c), 0)) for c in range(ncols)] for r in range(nrows)]
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][c]
        for r in range(nrows):
            if r != rank and mat[r][c]:
                f = mat[r][c] / pv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def det_oracle(entries, n) -> int:
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= entries.get((i, perm[i]), 0)
        total += term
    return total


def test_known_forms():
    assert smith_normal_form({(0, 0): 2, (1, 1): 6}) == [2, 6]
    assert smith_normal_form({(0, 0): 6, (1, 1): 2}) == [2, 6]
    assert smith_normal_form({(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 8}) == [2]
    assert smith_normal_form({}) == []
    # the Klein-bottle style relation matrix has torsion 2
    assert smith_normal_form({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}) == [1, 2]


matrix_strategy = st.builds(
    lambda cells: {k: v for k, v in cells.items() if v},
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-6, 6), max_size=20
    ),
)


@settings(max_examples=120, deadline=None)
@given(matrix_strategy)
def test_rank_matches_dense_oracle(entries):
    nrows = 1 + max((r for r, _ in entries), default=0)
    ncols = 1 + max((c for _, c in entries), default=0)
    assert integer_rank(entries) == dense_rank_oracle(entries, nrows, ncols)
    assert rank_mod_p(entries, 1_000_003) <= dense_rank_oracle(entries, nrows, ncols)


@pytest.mark.parametrize("p", [0, 1, 4, -5])
def test_rank_mod_p_refuses_non_prime_modulus(p):
    with pytest.raises(ValueError):
        rank_mod_p({(0, 0): 2}, p)


def test_rank_mod_p_refuses_a_modulus_past_2_64_as_it_refuses_a_composite():
    # 2**64 + 13 is a prime, but the primality test decides only below 2**64
    with pytest.raises(ValueError, match="below 2\\*\\*64") as caught:
        rank_mod_p({(0, 0): 2}, 2**64 + 13)
    assert not isinstance(caught.value, PreconditionError)


def test_is_prime_agrees_with_trial_division():
    primes = [n for n in range(2, 10**5) if all(n % k for k in range(2, isqrt(n) + 1))]
    assert [n for n in range(-3, 10**5) if is_prime(n)] == primes


@pytest.mark.parametrize("n", [
    3215031751,            # = 151 * 751 * 28351, strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,   # strong pseudoprime to the nine primes up to 23
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_decides_a_large_prime_at_once():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert not is_prime(2**64 - 1)
    for p in (2**64, 2**64 + 13):   # the second a prime
        with pytest.raises(PreconditionError) as caught:
            is_prime(p)
        assert caught.value.failed == "prime"


# mostly +-1, as in boundary matrices, so that the unit pivots and the
# least-magnitude pivots both run
unit_weighted_strategy = st.builds(
    lambda cells: {k: v for k, v in cells.items() if v},
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.sampled_from([1, -1, 1, -1, 1, -1, 2, -2, 3, -4, 6]),
        max_size=40,
    ),
)


@settings(max_examples=120, deadline=None)
@given(st.one_of(matrix_strategy, unit_weighted_strategy), st.sampled_from([2, 3, 5]))
def test_rank_mod_p_matches_dense_oracle(entries, p):
    nrows = 1 + max((r for r, _ in entries), default=0)
    ncols = 1 + max((c for _, c in entries), default=0)
    assert rank_mod_p(entries, p) == dense_rank_mod_p_oracle(entries, nrows, ncols, p)


# no entry is a unit, so the reduction starts on least-magnitude pivots
unit_free_strategy = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from([2, -2, 3, -3, 4, 6, -6, 9]),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(unit_weighted_strategy, unit_free_strategy))
def test_smith_form_matches_dense_oracle(entries):
    nrows = 1 + max((r for r, _ in entries), default=0)
    ncols = 1 + max((c for _, c in entries), default=0)
    assert smith_normal_form(entries) == dense_smith_oracle(entries, nrows, ncols)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_divisor_product_is_determinant(n, data):
    entries = {}
    for r in range(n):
        for c in range(n):
            v = data.draw(st.integers(-3, 3))
            if v:
                entries[(r, c)] = v
    d = det_oracle(entries, n)
    divisors = smith_normal_form(entries)
    if d != 0:
        prod = 1
        for v in divisors:
            prod *= v
        assert prod == abs(d)
    else:
        assert len(divisors) < n


def test_divisibility_chain():
    rng = random.Random(0)
    for _ in range(60):
        entries = {
            (r, c): rng.randint(-9, 9) for r in range(4) for c in range(4) if rng.random() < 0.7
        }
        entries = {k: v for k, v in entries.items() if v}
        divisors = smith_normal_form(entries)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0


def test_markowitz_pivot_choice():
    # the elimination runs on the transpose: no column has one entry, and
    # columns of equal length are taken in column order, so column 0 goes
    # first; of its unit entries the one whose row has the fewest nonzeros
    # is the pivot, the first met on a tie, and the scan stops at a row
    # holding only this column
    entries = {
        (0, 0): 2, (1, 0): 1, (2, 0): 1,              # row counts 1, 3, 2
        (2, 1): 1, (5, 1): 1, (6, 1): 1,
        (1, 2): 1, (3, 2): 1, (4, 2): 1,
        (1, 3): 1, (3, 3): 1, (5, 3): 1, (7, 3): 1,
    }
    # over Z the 2 is no unit and row 2 beats row 1; clearing row 2 from
    # column 1 leaves it as rows 5, 6, 0, 1, so column 2 (rows 1, 3, 4)
    # comes before it and takes row 4, alone in its row, then column 1
    # takes row 6 and column 3 row 1
    pivot_cols = []
    assert smith_normal_form(entries, pivot_cols=pivot_cols) == [1, 1, 1, 1]
    assert pivot_cols == [0, 2, 1, 3]
    # over F_5 the 2 is a unit alone in its row, so column 0 drops out
    # without touching another column and the rest go in column order
    pivot_cols = []
    assert rank_mod_p(entries, 5, pivot_cols=pivot_cols) == 4
    assert pivot_cols == [0, 1, 2, 3]


def test_one_face_columns_and_the_no_unit_fallback():
    entries = {
        (0, 0): 1, (1, 0): 1, (2, 0): 1,
        (0, 1): 1, (1, 1): 1,
        (1, 2): 2,                                    # one face
        (0, 3): 1, (2, 3): 1, (3, 3): 1,
    }
    # over F_5 column 2's one face is a unit, so it is paired first: row 1
    # leaves columns 0 and 1, column 1 is left with row 0 alone and is
    # paired next, which leaves column 0 with row 2 alone, then column 3
    pivot_cols = []
    assert rank_mod_p(entries, 5, pivot_cols=pivot_cols) == 4
    assert pivot_cols == [2, 1, 0, 3]
    # over Z the 2 is set aside; column 1 takes row 0 (rows 0 and 1 tie at
    # three nonzeros), which leaves column 0 with row 2 alone, paired next,
    # and column 3 with rows 3 and 1; it takes row 3.  No column then has
    # a unit, so the fallback takes the 2, which is not recorded: the
    # determinant is 2
    pivot_cols = []
    assert smith_normal_form(entries, pivot_cols=pivot_cols) == [1, 1, 1, 2]
    assert pivot_cols == [1, 0, 3]


def with_pivot_cols(fn, *args, **kwargs):
    pivot_cols = []
    return fn(*args, pivot_cols=pivot_cols, **kwargs), pivot_cols


def column_order(entries) -> list:
    """The items of a dict of entries, stably sorted by column."""
    return sorted(entries.items(), key=lambda item: item[0][1])


def as_matrix(entries, extra_rows: int = 0) -> Matrix:
    """The column-compressed form of a dict of entries with indices from 0:
    its entries in stable column order, a column closed for each of 0 up to
    the last one met, and ``extra_rows`` rows past the last one met."""
    out = Matrix(max((r for r, _ in entries), default=-1) + 1 + extra_rows)
    at = 0   # the column being written
    for (r, c), v in column_order(entries):
        while at < c:
            out.starts.append(len(out.rows))
            at += 1
        out.rows.append(r)
        out.vals.append(v)
    if entries:
        out.starts.append(len(out.rows))
    return out


def test_matrix_values_read_the_list(monkeypatch):
    # a key lookup scans the key's column, so values() looking up each key
    # would take time quadratic in the length of each column
    matrix = as_matrix({(r, c): r - c or 7 for r in range(40) for c in range(40)})

    def refuse(self, key):
        raise AssertionError(f"values() looked up {key}")

    monkeypatch.setattr(Matrix, "__getitem__", refuse)
    assert list(matrix.values()) == matrix.vals


@settings(max_examples=150, deadline=None)
@given(matrix_strategy, matrix_strategy, st.sets(st.integers(0, 5), max_size=3))
def test_list_form_reduces_like_the_dict(entries, above, skip):
    # the same entries in the order the dict's stable column sort gives:
    # the same pivots at the same columns, and the same homology, over Z
    # and F_p
    matrix = as_matrix(entries)
    assert matrix == entries and list(matrix.items()) == column_order(entries)
    for p in (0, 2, 5):
        assert with_pivot_cols(_eliminate, matrix, p, skip_rows=skip) == with_pivot_cols(
            _eliminate, entries, p, skip_rows=skip
        )
    assert with_pivot_cols(smith_normal_form, matrix, skip_rows=skip) == with_pivot_cols(
        smith_normal_form, entries, skip_rows=skip
    )
    assert rank_mod_p(matrix, 3) == rank_mod_p(entries, 3)
    dims = {0: 6, 1: 6, 2: 6}
    for mod in (0, 2, 5):
        assert homology_groups({1: matrix, 2: as_matrix(above)}, dims, mod) == homology_groups(
            {1: entries, 2: above}, dims, mod
        )


def canonical_phase_two(columns, rows) -> tuple:
    """The columns left and rows left of phase 1 with their indices
    renumbered 0, 1, ... in sorted order, keeping every order: two
    eliminations that renumber their indices differently, each in sorted
    order, hand ``_markowitz`` the same matrix exactly when these agree."""
    col_at = {c: i for i, c in enumerate(sorted(columns))}
    row_at = {r: i for i, r in enumerate(sorted(rows))}
    return (
        [(col_at[c], [(row_at[r], v) for r, v in column.items()]) for c, column in columns.items()],
        [(row_at[r], sorted(col_at[c] for c in held)) for r, held in rows.items()],
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(lambda size: st.dictionaries(
        st.tuples(st.integers(0, size), st.integers(0, size)),
        st.sampled_from([1, -1, 1, -1, 2, -2, 3, 5, 0]),
        max_size=3 * size,
    )),
    st.sets(st.integers(-1, 11), max_size=4),
    st.sampled_from([0, 2, 5]),
    st.integers(0, 3),
    st.booleans(),
)
# pairing column 2 leaves columns 0 and 1 with one entry each, so the
# smaller goes first
@example({(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 1): 1, (0, 2): 1}, set(), 0, 0, True)
def test_one_sweep_pairs_as_the_heap_over_every_column(entries, skip, p, extra_rows, as_list):
    # phase 1 in one sweep over the columns, indexing only the columns it
    # defers, pairs the columns the heap over every column paired, in the
    # same order, and leaves the Markowitz loop the same columns
    reference = coreduction_by_transpose(entries, p, skip)
    pivots, units, columns, rows, names = reference
    handed = []

    def spy(rows_left, cols_left, p, pivots, pivot_cols):
        handed.append((list(pivots), len(pivot_cols), canonical_phase_two(rows_left, cols_left)))
        _markowitz(rows_left, cols_left, p, pivots, pivot_cols)

    matrix = as_matrix(entries, extra_rows) if as_list else entries
    pmq.snf._markowitz = spy
    try:
        got = with_pivot_cols(_eliminate, matrix, p, skip_rows=skip)
    finally:
        pmq.snf._markowitz = _markowitz
    assert handed == [(pivots, len(units), canonical_phase_two(columns, rows))]
    _markowitz(columns, rows, p, pivots, units)
    assert got == (pivots, [names[c] for c in units] if names else units)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(matrix_strategy, unit_weighted_strategy, unit_free_strategy),
    st.sets(st.integers(0, 7), max_size=4),
)
# row 0 holds the only unit of column 0 over Z and F_2, the only nonzero
# of column 3 everywhere
@example({(0, 0): 1, (1, 0): 2, (1, 1): 1, (0, 2): -1, (2, 2): 3, (0, 3): 1}, {0})
@example({(0, 0): 1, (1, 0): 2, (1, 1): 1, (0, 2): -1, (2, 2): 3, (0, 3): 1}, set())
def test_skipped_rows_match_deleted_rows(entries, skip):
    # skipping rows as they are read must eliminate exactly the matrix
    # without them: the same pivots, in the same order, at the same columns
    kept = {k: v for k, v in entries.items() if k[0] not in skip}
    for p in (0, 2, 5):
        assert with_pivot_cols(_eliminate, entries, p, skip_rows=skip) == with_pivot_cols(
            _eliminate, kept, p
        )
    assert with_pivot_cols(smith_normal_form, entries, skip_rows=skip) == with_pivot_cols(
        smith_normal_form, kept
    )
    for p in (2, 5):
        assert with_pivot_cols(rank_mod_p, entries, p, skip_rows=skip) == with_pivot_cols(
            rank_mod_p, kept, p
        )


def markowitz_on_every_column(entries, p, skip_rows=()):
    """(pivots, unit-pivot columns) of ``_markowitz`` alone on the matrix
    without ``skip_rows``: every column goes into its dicts, and none is
    paired on flat lists first."""
    rows, cols = {}, {}
    for (r, c), v in entries.items():
        v = v % p if p else v
        if v and r not in skip_rows:
            rows.setdefault(c, {})[r] = v
            cols.setdefault(r, set()).add(c)
    pivots, pivot_cols = [], []
    _markowitz(rows, cols, p, pivots, pivot_cols)
    return pivots, pivot_cols


@pytest.mark.parametrize("d,max_norm", [(3, 4), (4, 3)])
def test_flat_pairing_keeps_the_pivots_of_the_loop(monkeypatch, d, max_norm):
    # the columns paired on flat lists are those the loop takes first, in
    # the same order: every elimination homology runs, over Z, F_2 and F_5,
    # gives the pivots, their order and the unit-pivot columns of the loop
    # alone on the whole matrix
    calls = []

    def spy(entries, p=0, *, pivot_cols=None, skip_rows=()):
        pivots = _eliminate(entries, p, pivot_cols=pivot_cols, skip_rows=skip_rows)
        calls.append((entries, p, set(skip_rows), pivots, list(pivot_cols)))
        return pivots

    monkeypatch.setattr(pmq.snf, "_eliminate", spy)
    q = sym_geodesic_pmq(d)
    for b in Completion(q).classes_up_to(max_norm):
        if not b.is_unit:
            cx = build_relative_complex(q, b)
            for mod in (0, 2, 5):
                homology_groups(cx.differentials, cx.dims(), mod)
    assert any(skip for _, _, skip, _, _ in calls)
    for entries, p, skip, pivots, pivot_cols in calls:
        assert markowitz_on_every_column(entries, p, skip) == (pivots, pivot_cols)


@st.composite
def far_indices(draw):
    """A matrix whose rows and columns come from a few integers anywhere
    in [-10**12, 10**12], with zeros among its values, and rows to skip."""
    index = st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=6, unique=True)
    rows, cols = draw(index), draw(index)
    entries = draw(st.dictionaries(
        st.tuples(st.sampled_from(rows), st.sampled_from(cols)),
        st.sampled_from([1, -1, 1, -1, 2, -2, 3, 5, 0]),
        max_size=20,
    ))
    return entries, draw(st.sets(st.sampled_from(rows), max_size=2))


@settings(max_examples=150, deadline=None)
@given(far_indices())
@example(({(10**12, -3): 2, (10**12, 7): 1, (-1, -3): 1, (-1, 10**12): -1, (5, 10**12): 3}, {5}))
def test_far_indices_reduce_like_dense_ones(case):
    # indices outside [0, number of entries) are renumbered in sorted order,
    # so the matrix reduces like its dense renumbering, with the unit-pivot
    # columns named as given
    entries, skip = case
    row_at = {r: i for i, r in enumerate(sorted({r for r, _ in entries}))}
    col_names = sorted({c for _, c in entries})
    col_at = {c: i for i, c in enumerate(col_names)}
    dense = {(row_at[r], col_at[c]): v for (r, c), v in entries.items()}
    dense_skip = {row_at[r] for r in skip if r in row_at}
    for p in (0, 2, 5):
        pivots, pivot_cols = with_pivot_cols(_eliminate, dense, p, skip_rows=dense_skip)
        assert with_pivot_cols(_eliminate, entries, p, skip_rows=skip) == (
            pivots, [col_names[c] for c in pivot_cols]
        )


def test_far_indices_allocate_nothing_of_their_size():
    # a list or bytearray indexed by these would take megabytes
    entries = {(4 * 10**6, 3 * 10**6): 1, (4 * 10**6, -1): 2, (-5, 3 * 10**6): -1, (7, -1): 1}
    tracemalloc.start()
    try:
        for p in (0, 5):
            assert with_pivot_cols(_eliminate, entries, p, skip_rows={-5}) == ([1, 1], [3 * 10**6, -1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_homology_of_zero_complex():
    assert homology_groups({}, {0: 0, 1: 0}) == {
        0: {"rank": 0, "torsion": []},
        1: {"rank": 0, "torsion": []},
    }


def test_homology_circle():
    # one 0-cell, one 1-cell, zero differential: H_0 = H_1 = Z
    h = homology_groups({1: {}}, {0: 1, 1: 1})
    assert h[0] == {"rank": 1, "torsion": []}
    assert h[1] == {"rank": 1, "torsion": []}


def test_homology_with_torsion():
    # 0 -> Z -(2)-> Z -> 0 in degrees 1 -> 0: H_0 = Z/2, H_1 = 0
    h = homology_groups({1: {(0, 0): 2}}, {0: 1, 1: 1})
    assert h[0] == {"rank": 0, "torsion": [2]}
    assert h[1] == {"rank": 0, "torsion": []}
    hp = homology_groups({1: {(0, 0): 2}}, {0: 1, 1: 1}, mod=2)
    assert hp[0]["rank"] == 1 and hp[1]["rank"] == 1


def invariant_factors(orders) -> list[int]:
    """Invariant factors, each dividing the next, of the direct sum of the
    cyclic groups Z/k: the i-th largest factor multiplies the i-th largest
    prime-power part of each prime."""
    powers: dict[int, list[int]] = {}
    for k in orders:
        f = 2
        while k > 1:
            if k % f == 0:
                part = 1
                while k % f == 0:
                    k //= f
                    part *= f
                powers.setdefault(f, []).append(part)
            f += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for parts in powers.values():
        for i, part in enumerate(sorted(parts, reverse=True)):
            factors[length - 1 - i] *= part
    return factors


def unimodular_pair(n: int, rng) -> tuple[list[list[int]], list[list[int]]]:
    """A random n x n integer matrix of determinant +-1 and its inverse,
    built from row swaps, sign changes and row additions."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:   # swap rows i, j of a: swap columns i, j of inv
            a[i], a[j] = a[j], a[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif kind == 1:   # negate row i of a: negate column i of inv
            a[i] = [-x for x in a[i]]
            for row in inv:
                row[i] = -row[i]
        elif i != j:   # row i += f row j of a: column j -= f column i of inv
            f = rng.choice((-2, -1, 1, 2))
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]
            for row in inv:
                row[j] -= f * row[i]
    return a, inv


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


complex_strategy = st.tuples(
    # degrees: at least three, with a missing degree between the extremes
    st.sets(st.integers(0, 7), min_size=3).filter(lambda ds: max(ds) - min(ds) >= len(ds)),
    # for each degree n: the k of each summand Z --k--> Z from n to n-1,
    # and the number of free summands Z in degree n
    st.lists(st.lists(st.integers(-6, 6), max_size=3), min_size=8, max_size=8),
    st.lists(st.integers(0, 2), min_size=8, max_size=8),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(complex_strategy)
# two complexes where an elimination takes unit pivots after a non-unit one,
# whose columns must not delete rows of the next differential
@example(({1, 2, 3, 4, 6}, [[2, -2], [], [-4, 3], [5, 2, 4], [], [2], [], [6]],
          [0, 0, 1, 2, 0, 0, 0, 0], 3628022737))
@example(({0, 1, 2, 6}, [[-5], [2, 1], [-6], [-1, 6, 4], [], [], [], []],
          [1, 0, 0, 0, 1, 1, 2, 1], 4063972502))
def test_homology_of_random_complexes_with_known_homology(spec):
    # a direct sum of elementary complexes in a random basis: the reduction
    # must meet non-unit pivots, torsion and degrees whose differential or
    # module is zero, and still give the table of the summands
    degrees, maps, free, seed = spec
    rng = random.Random(seed)
    pairs = [(n, k) for n in degrees if n - 1 in degrees for k in maps[n]]
    cells: dict[int, int] = {n: free[n] for n in degrees}
    standard: dict[int, list[tuple[int, int, int]]] = {n: [] for n in degrees}
    for n, k in pairs:
        standard[n].append((cells[n - 1], cells[n], k))   # (row, col, value)
        cells[n] += 1
        cells[n - 1] += 1
    changes = {n: unimodular_pair(cells[n], rng) for n in degrees}
    differentials = {}
    for n in degrees:
        if n - 1 not in degrees or not cells[n] or not cells[n - 1]:
            continue
        d = [[0] * cells[n] for _ in range(cells[n - 1])]
        for r, c, k in standard[n]:
            d[r][c] = k
        # the new basis of degree m is the old one times changes[m][1], so
        # the matrix of d_n becomes changes[n-1][0] d changes[n][1]
        d = matmul(matmul(changes[n - 1][0], d), changes[n][1])
        entries = {(r, c): v for r, row in enumerate(d) for c, v in enumerate(row) if v}
        if entries:
            differentials[n] = entries

    want = {}
    for n in degrees:
        zeros = sum(1 for m, k in pairs if m in (n, n + 1) and k == 0)
        orders = [abs(k) for m, k in pairs if m == n + 1 and abs(k) > 1]
        want[n] = {"rank": free[n] + zeros, "torsion": invariant_factors(orders)}
    assert homology_groups(differentials, cells) == want
    for p in (2, 3):
        got = homology_groups(differentials, cells, mod=p)
        assert {n: e["rank"] for n, e in got.items()} == uct_ranks(want, p)
