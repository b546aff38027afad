import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmq.snf import (
    homology_groups,
    integer_rank,
    rank_mod_p,
    reduced_echelon,
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


def dense_rank_mod_p_oracle(entries, nrows, ncols, p) -> int:
    mat = [[entries.get((r, c), 0) % p for c in range(ncols)] for r in range(nrows)]
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        for r in range(nrows):
            if r != rank and mat[r][c]:
                f = mat[r][c] * inv
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def dense_smith_oracle(entries, nrows, ncols) -> list[int]:
    """Textbook Smith reduction of the dense matrix: move the smallest entry
    to the corner, divide it out of its row and column, and when it fails to
    divide the rest, add the offending row to the pivot row and repeat."""
    a = [[entries.get((r, c), 0) for c in range(ncols)] for r in range(nrows)]
    divisors = []
    for t in range(min(nrows, ncols)):
        while True:
            nonzero = [
                (abs(a[r][c]), r, c)
                for r in range(t, nrows)
                for c in range(t, ncols)
                if a[r][c]
            ]
            if not nonzero:
                return divisors
            _, r0, c0 = min(nonzero)
            a[t], a[r0] = a[r0], a[t]
            for row in a:
                row[t], row[c0] = row[c0], row[t]
            pivot = a[t][t]
            for r in range(t + 1, nrows):
                f = a[r][t] // pivot
                a[r] = [x - f * y for x, y in zip(a[r], a[t])]
            for c in range(t + 1, ncols):
                f = a[t][c] // pivot
                for row in a:
                    row[c] -= f * row[t]
            if any(a[r][t] for r in range(t + 1, nrows)) or any(
                a[t][c] for c in range(t + 1, ncols)
            ):
                continue  # a remainder is now the smallest entry
            bad = next(
                (r for r in range(t + 1, nrows) for c in range(t + 1, ncols) if a[r][c] % pivot),
                None,
            )
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        divisors.append(abs(a[t][t]))
    return divisors


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


@settings(max_examples=120, deadline=None)
@given(matrix_strategy)
def test_reduced_echelon_matches_dense_oracle(entries):
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    echelon = reduced_echelon(rows.values())
    nrows = 1 + max((r for r, _ in entries), default=0)
    ncols = 1 + max((c for _, c in entries), default=0)
    rank = dense_rank_oracle(entries, nrows, ncols)
    assert len(echelon) == rank
    for p, row in echelon.items():
        assert row[p] == 1
        assert all(c == p or c not in echelon for c in row)
    # every given row reduces to zero, so the pivot rows span the input ...
    for row in rows.values():
        rest = dict(row)
        for p in [c for c in row if c in echelon]:
            for c, v in echelon[p].items():
                rest[c] = rest.get(c, 0) - row[p] * v
        assert not any(rest.values())
    # ... and lie in it: appending them keeps the rank
    both = dict(entries)
    for i, row in enumerate(echelon.values()):
        both.update({(nrows + i, c): v for c, v in row.items()})
    assert dense_rank_oracle(both, nrows + len(echelon), ncols) == rank


# mostly +-1, as in boundary matrices, so that the unit pivots and the
# Smith reduction of the residue both run
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


@settings(max_examples=150, deadline=None)
@given(unit_weighted_strategy)
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
