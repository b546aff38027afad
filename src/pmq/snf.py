"""Exact linear algebra over Z, F_p and Q: Smith normal form, ranks,
reduced echelon forms, homology.

Matrices are sparse maps (row, col) -> int.  Both rings share one
elimination pass.  Rows wait in a heap keyed by their length; the shortest
row is taken, and among its unit entries the one whose column has the
fewest nonzeros becomes the pivot (the Markowitz choice), its column is
cleared by row operations and the pivot row and column are dropped.  A row
without a unit entry is set aside until a later row operation changes it.
Over F_p every nonzero entry is a unit, so the pass computes the rank.
Over Z the units are +-1, each pivot contributes an elementary divisor 1,
and a Smith reduction with arbitrary-precision integers (pivot of smallest
magnitude, then least fill-in) finishes the residue the pass leaves, which
on the incidence-style matrices of chain complexes is tiny.  Elementary
divisors are returned normalised (each divides the next), so ranks and
torsion read off directly.  This is the unit-pivot elimination of
Dumas-Saunders-Villard, "On efficient sparse integer matrix Smith normal
forms" (JSC 2001).

Over Q, ``reduced_echelon`` keeps a fully reduced row echelon form of
sparse rows ``{col: coefficient}`` as they arrive: each new row is reduced by
the pivot rows, and its pivot is cleared from the older pivot rows through
an index from each column to the pivot rows with an entry there.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt
from typing import Iterable, Mapping

Entries = Mapping[tuple[int, int], int]

__all__ = [
    "is_prime",
    "smith_normal_form",
    "integer_rank",
    "rank_mod_p",
    "reduced_echelon",
    "homology_groups",
]


def is_prime(p: int) -> bool:
    """Trial division; the moduli here are small."""
    return p >= 2 and all(p % k for k in range(2, isqrt(p) + 1))


def _eliminate_units(entries: Entries, p: int = 0):
    """Markowitz elimination on unit pivots; ``p`` = 0 works over Z, a prime
    p over F_p.  Returns the number of pivots and the residue as row and
    column maps; over F_p the residue is empty."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if p:
            v %= p
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    heap = [(len(row), r) for r, row in rows.items()]
    heapify(heap)
    pivots = 0
    while heap:
        length, r0 = heappop(heap)
        row0 = rows.get(r0)
        if row0 is None or len(row0) != length:
            continue  # stale entry: the row was dropped or changed since
        units = (c for c, v in row0.items() if p or v in (1, -1))
        c0 = min(units, key=lambda c: len(cols[c]), default=None)
        if c0 is None:
            continue  # no unit: set aside until a row operation changes it
        # over Z the pivot is +-1 and its own inverse
        inv = pow(row0[c0], -1, p) if p else row0[c0]
        for r in cols[c0]:
            if r == r0:
                continue
            row = rows[r]
            f = row[c0] * inv % p if p else row[c0] * inv
            for c, v in row0.items():
                nv = row.get(c, 0) - f * v
                if p:
                    nv %= p
                if nv:
                    if c not in row:
                        cols[c].add(r)
                    row[c] = nv
                else:
                    del row[c]
                    if c != c0:
                        cols[c].discard(r)
            if row:
                heappush(heap, (len(row), r))
            else:
                del rows[r]
        # column operations with the unit pivot clear the rest of its row and
        # touch no other row, so the pivot row and column drop out
        for c in row0:
            if c != c0:
                cols[c].discard(r0)
                if not cols[c]:
                    del cols[c]
        del cols[c0]
        del rows[r0]
        pivots += 1
    return pivots, rows, cols


def smith_normal_form(entries: Entries) -> list[int]:
    """Elementary divisors (positive, each dividing the next) of the integer
    matrix with the given sparse entries."""
    units, rows, cols = _eliminate_units(entries)
    # Smith reduction of the residue, which has no entry +-1
    divisors: list[int] = []
    while rows:
        # pivot: smallest magnitude, then least fill-in
        best = None
        best_key = None
        for r, row in rows.items():
            for c, v in row.items():
                key = (abs(v), (len(row) - 1) * (len(cols[c]) - 1))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (r, c)
                    if key[0] == 1 and key[1] == 0:
                        break
            else:
                continue
            break
        r0, c0 = best

        while True:
            pivot = rows[r0][c0]
            # clear the pivot column
            dirty = False
            for r in list(cols[c0]):
                if r == r0:
                    continue
                v = rows[r][c0]
                qt = v // pivot
                if qt:
                    _add_row(rows, cols, r, r0, -qt)
                if rows.get(r, {}).get(c0):
                    # remainder smaller than the pivot: swap roles
                    r0 = r
                    dirty = True
                    break
            if dirty:
                continue
            # clear the pivot row
            pivot = rows[r0][c0]
            for c in list(rows[r0]):
                if c == c0:
                    continue
                v = rows[r0][c]
                qt = v // pivot
                if qt:
                    _add_col(rows, cols, c, c0, -qt)
                if rows[r0].get(c):
                    c0 = c
                    dirty = True
                    break
            if not dirty:
                break
        divisors.append(abs(rows[r0][c0]))
        _drop_row(rows, cols, r0)
        _drop_col(rows, cols, c0)

    # enforce the divisibility chain
    divisors.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a:
                g = gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
        divisors.sort()
    return [1] * units + divisors


def _add_row(rows, cols, dst: int, src: int, factor: int) -> None:
    row = rows.get(dst, {})
    for c, v in rows[src].items():
        nv = row.get(c, 0) + factor * v
        if nv:
            if c not in row:
                cols.setdefault(c, set()).add(dst)
            row[c] = nv
        elif c in row:
            del row[c]
            cols[c].discard(dst)
    if row:
        rows[dst] = row
    else:
        rows.pop(dst, None)


def _add_col(rows, cols, dst: int, src: int, factor: int) -> None:
    for r in list(cols.get(src, ())):
        v = rows[r][src]
        nv = rows[r].get(dst, 0) + factor * v
        if nv:
            if dst not in rows[r]:
                cols.setdefault(dst, set()).add(r)
            rows[r][dst] = nv
        elif dst in rows[r]:
            del rows[r][dst]
            cols[dst].discard(r)


def _drop_row(rows, cols, r: int) -> None:
    for c in rows.pop(r, {}):
        cols[c].discard(r)
        if not cols[c]:
            del cols[c]


def _drop_col(rows, cols, c: int) -> None:
    for r in cols.pop(c, ()):
        rows[r].pop(c, None)
        if not rows[r]:
            del rows[r]


def integer_rank(entries: Entries) -> int:
    return len(smith_normal_form(entries))


def rank_mod_p(entries: Entries, p: int) -> int:
    """Rank over the field with p elements (p prime)."""
    if not is_prime(p):
        raise ValueError(f"rank_mod_p needs a prime modulus, not {p}")
    return _eliminate_units(entries, p)[0]


def reduced_echelon(
    rows: Iterable[Mapping[int, int | Fraction]],
) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form over Q of the span of the sparse rows
    (column -> integer or ``Fraction`` coefficient).

    Returns pivot column -> row, each row with entry 1 at its pivot and no
    entry at any other pivot column, so the rank is the number of rows and
    a vector reduces to its normal form by subtracting, for each pivot
    column, its entry there times that pivot's row.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    users: dict[int, set[int]] = {}   # non-pivot column -> pivots whose rows have an entry there
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        # the pivot rows have no entry at each other's pivots, so the entries
        # of ``row`` at pivot columns do not change while it is reduced
        for p in [c for c in row if c in echelon]:
            _axpy(row, -row[p], echelon[p])
        if not row:
            continue
        # the pivot with the fewest older rows to clear
        p0 = min(row, key=lambda c: len(users.get(c, ())))
        inv = Fraction(1) / row[p0]
        row = {c: v * inv for c, v in row.items()}
        for p in users.pop(p0, ()):
            old = echelon[p]
            _axpy(old, -old[p0], row)
            for c in row:
                if c in old:
                    users.setdefault(c, set()).add(p)
                elif c != p0:
                    users[c].discard(p)   # the entry cancelled
        for c in row:
            if c != p0:
                users.setdefault(c, set()).add(p0)
        echelon[p0] = row
    return echelon


def _axpy(y: dict[int, Fraction], a: Fraction, x: Mapping[int, Fraction]) -> None:
    """y += a x, dropping the entries that cancel."""
    for c, v in x.items():
        nv = y.get(c, 0) + a * v
        if nv:
            y[c] = nv
        else:
            y.pop(c, None)


def homology_groups(
    differentials: Mapping[int, Entries],
    dims: Mapping[int, int],
    mod: int = 0,
) -> dict[int, dict]:
    """Homology of a chain complex from its sparse differentials.

    ``differentials[n]`` maps degree n to n-1; ``dims[n]`` is the rank of the
    degree-n module.  Over the integers each degree reports free rank and
    torsion (elementary divisors > 1 of the incoming differential); over a
    prime field only dimensions.
    """
    degrees = sorted(dims)
    out: dict[int, dict] = {}
    ranks: dict[int, int] = {}
    torsion_in: dict[int, list[int]] = {}
    for n in degrees:
        d = differentials.get(n, {})
        if mod:
            ranks[n] = rank_mod_p(d, mod)
            torsion_in[n] = []
        else:
            divisors = smith_normal_form(d)
            ranks[n] = len(divisors)
            torsion_in[n] = [v for v in divisors if v != 1]
    for n in degrees:
        rank_in = ranks.get(n + 1, 0)
        betti = dims[n] - ranks.get(n, 0) - rank_in
        entry = {"rank": betti}
        if not mod:
            entry["torsion"] = torsion_in.get(n + 1, [])
        out[n] = entry
    return out
