"""Exact linear algebra over Z and F_p: Smith normal form, ranks, homology
by reduction.

Matrices are sparse maps (row, col) -> int: any ``Mapping``, such as a
dict, or a ``Matrix``, which keeps its entries as three flat lists (rows,
columns, values) in the order they were written, about 24 bytes an entry
where a dict slot and its key tuple take about 100.  Both rings share one
elimination loop, and it runs on the transpose: the loop's rows are the
matrix columns (a cell and its faces), its row operations are column
operations, and ranks and elementary divisors do not change.  Columns wait
in a heap keyed by their length, those of one entry in a heap of their own
that needs no key; the shortest column is taken, the first in column order
on ties, and among its unit entries the one whose row has the fewest
nonzeros becomes the pivot (the Markowitz choice), the first met on ties.
The scan stops at a row holding only this column, as no row has
fewer, and such a pivot has no other column to clear.  A column whose one
entry is a unit is paired with its row at once: clearing that row only
deletes its entry from the other columns, with no quotient taken.  This is
a coreduction pair of Mrozek-Batko, "Coreduction homology algorithm"
(Discrete Comput. Geom. 41, 2009).  A column without a unit entry is set
aside until a later column operation changes it.  Over F_p every nonzero
entry is a unit; over Z the units are +-1.  When no column has a unit
(only over Z) the pivot is the entry of least magnitude, then least
fill-in.  Its row is cleared by column operations with the floor quotient,
so any remainder, smaller than the pivot, stays in its column.  Once the
row is clear, row operations touch only the pivot column: if the pivot
divides that column, the pivot column and row drop out; otherwise they
leave the remainders modulo the pivot there and the loop picks again.  The
least entry shrinks at every pick that drops nothing, so the loop ends.
Over F_p the number of pivots is the rank.  Over Z the pivots are the
diagonal of an equivalent matrix, made a divisibility chain (elementary
divisors) by a gcd/lcm fix-up, so ranks and torsion read off directly.  On
the incidence-style matrices of chain complexes the unit pivots do nearly
all the work: of the largest ``S_3`` norm-5 differential (343,008
nonzeros), eliminated on its own, they leave 26 columns with 6,032
nonzeros (249 rows with 8,466 when the loop ran on the rows).  This is the
unit-pivot elimination of Dumas-Saunders-Villard, "On efficient sparse
integer matrix Smith normal forms" (JSC 2001).

Homology reduces the differentials in ascending degree and hands each
one's unit pivots to the next.  The unit pivots taken before the first
non-unit one (over F_p, all pivots) have columns ``S`` and pivot rows
``T`` whose minor has determinant +-1: the exact column operations among
them leave it triangular up to order with +-1 on the diagonal.  A kernel
vector of ``d_n`` is then fixed by its coordinates outside ``S``.  As
``d_n∘d_(n+1) = 0``, deleting the rows ``S`` of ``d_(n+1)`` keeps its
rank and elementary divisors, and each such pair of cells is eliminated
once, not once as a column of ``d_n`` and again as a row of ``d_(n+1)``.
The elimination skips those rows as it reads the entries, so no filtered
copy of ``d_(n+1)`` is made.  This is chain-complex reduction
(Kaczynski-Mrozek-Slusarek, "Homology computation by reduction of chain
complexes", Comput. Math. Appl. 35, 1998).  Once those rows are gone,
nearly every cell of ``d_(n+1)`` has one face left and is paired at once;
a loop over rows would take a face with all its cofaces and turn those
pairs into fill-in.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from heapq import heapify, heappop, heappush
from math import gcd, isqrt

Entries = Mapping[tuple[int, int], int]

__all__ = [
    "Matrix",
    "is_prime",
    "smith_normal_form",
    "integer_rank",
    "rank_mod_p",
    "homology_groups",
]


def is_prime(p: int) -> bool:
    """Trial division; the moduli here are small."""
    return p >= 2 and all(p % k for k in range(2, isqrt(p) + 1))


class Matrix(Mapping):
    """A sparse integer matrix as three parallel lists: ``rows[k]``,
    ``cols[k]`` and ``vals[k]`` are its k-th entry, in the order the
    entries were appended, which is the order of ``items()``.  Read-only
    as a mapping; a key lookup scans the lists."""

    __slots__ = ("rows", "cols", "vals")

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[int] = []

    def __len__(self) -> int:
        return len(self.vals)

    def __iter__(self):
        return zip(self.rows, self.cols)

    def items(self):
        return zip(zip(self.rows, self.cols), self.vals)

    def __getitem__(self, key: tuple[int, int]) -> int:
        for entry, v in self.items():
            if entry == key:
                return v
        raise KeyError(key)


def _eliminate(
    entries: Entries,
    p: int = 0,
    *,
    pivot_cols: list[int] | None = None,
    skip_rows: Collection[int] = (),
) -> list[int]:
    """Markowitz elimination of the transpose; ``p`` = 0 works over Z, a
    prime p over F_p.  Returns the magnitude of each pivot dropped, so over
    F_p their number is the rank and over Z they are diagonal entries of an
    equivalent matrix.  A column whose one entry is a unit is paired with
    its row at once, as a coreduction pair (Mrozek-Batko); the others go
    through the Markowitz pick of the module docstring.

    ``pivot_cols``, when given, receives the matrix column of each unit
    pivot dropped before the first non-unit pivot is picked (over F_p, of
    every pivot).  Until then only exact column operations have been
    applied, so these columns and their pivot rows form a minor of
    determinant +-1.

    The matrix rows in ``skip_rows`` are passed over as the entries are
    read, so the matrix eliminated is ``entries`` without them, with no copy
    made."""
    # the loop eliminates the transpose: its rows are the matrix columns (a
    # cell and its faces), its columns the matrix rows
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    if isinstance(entries, Matrix):
        triples = zip(entries.rows, entries.cols, entries.vals)
    else:
        triples = ((r, c, v) for (r, c), v in entries.items())
    for r, c, v in triples:
        if p:
            v %= p
        if v and r not in skip_rows:
            row = rows.get(c)
            if row is None:
                rows[c] = row = {}
            row[r] = v
            col = cols.get(r)
            if col is None:
                cols[r] = col = set()
            col.add(c)

    # rows of one entry (in a chain complex, nearly every pick) wait in a
    # heap of their own, keyed by the row alone; they go first
    singles = [r for r, row in rows.items() if len(row) == 1]
    heapify(singles)
    heap = [(len(row), r) for r, row in rows.items() if len(row) > 1]
    heapify(heap)
    pivots: list[int] = []
    if pivot_cols is None:
        pivot_cols = []
    unimodular = True   # no non-unit pivot has been picked yet
    while rows:
        if singles or heap:
            length, r0 = (1, heappop(singles)) if singles else heappop(heap)
            row0 = rows.get(r0)
            if row0 is None or len(row0) != length:
                continue  # stale entry: the row was dropped or changed since
            if length == 1:
                ((c0, v0),) = row0.items()
                if not (p or v0 in (1, -1)):
                    continue  # no unit: set aside until a row operation changes it
                # a single unit: clearing its column only deletes that entry
                # from each other row, and the pair drops out
                for r in cols.pop(c0):
                    if r != r0:
                        row = rows[r]
                        del row[c0]
                        if len(row) == 1:
                            heappush(singles, r)
                        elif row:
                            heappush(heap, (len(row), r))
                        else:
                            del rows[r]
                del rows[r0]
                pivots.append(abs(v0))
                if unimodular:
                    pivot_cols.append(r0)
                continue
            # the unit whose column is shortest, the first met on ties; a
            # column of one nonzero holds only this row, so stop there
            c0, least = None, 0
            for c, v in row0.items():
                if p or v in (1, -1):
                    count = len(cols[c])
                    if c0 is None or count < least:
                        c0, least = c, count
                        if count == 1:
                            break
            if c0 is None:
                continue  # no unit: set aside until a row operation changes it
        else:
            # no row has a unit (only over Z): least magnitude, then least fill-in
            unimodular = False
            *_, r0, c0 = min(
                (abs(v), (len(row) - 1) * (len(cols[c]) - 1), r, c)
                for r, row in rows.items()
                for c, v in row.items()
            )
            row0 = rows[r0]
        v0 = row0[c0]
        col0 = cols[c0]
        if len(col0) > 1:   # else the pivot is alone in its column: nothing to clear
            inv = pow(v0, -1, p) if p else 0
            for r in list(col0):
                if r == r0:
                    continue
                row = rows[r]
                # over Z the floor quotient leaves a remainder smaller than the pivot
                f = row[c0] * inv % p if p else row[c0] // v0
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
                        cols[c].discard(r)
                if len(row) == 1:
                    heappush(singles, r)
                elif row:
                    heappush(heap, (len(row), r))
                else:
                    del rows[r]
            if len(col0) > 1:
                continue  # remainders are left in the pivot column: pick again
        # the column is clear, so column operations with the pivot touch no
        # other row; where it does not divide its row they leave remainders
        rest = () if p or v0 in (1, -1) else [c for c, v in row0.items() if v % v0]
        if rest:
            for c in rest:
                row0[c] %= v0
            heappush(heap, (len(row0), r0))   # the pivot and a remainder: two entries
            continue
        # it divides its row, so the pivot row and column drop out
        for c in row0:
            cols[c].discard(r0)
            if not cols[c]:
                del cols[c]
        del rows[r0]
        pivots.append(abs(v0))
        if unimodular:
            pivot_cols.append(r0)
    return pivots


def smith_normal_form(
    entries: Entries,
    *,
    pivot_cols: list[int] | None = None,
    skip_rows: Collection[int] = (),
) -> list[int]:
    """Elementary divisors (positive, each dividing the next) of the integer
    matrix with the given sparse entries.  ``pivot_cols`` and
    ``skip_rows`` act as in ``_eliminate``."""
    pivots = _eliminate(entries, pivot_cols=pivot_cols, skip_rows=skip_rows)
    # enforce the divisibility chain
    divisors = sorted(v for v in pivots if v != 1)
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
    return [1] * (len(pivots) - len(divisors)) + divisors


def integer_rank(entries: Entries) -> int:
    return len(smith_normal_form(entries))


def rank_mod_p(
    entries: Entries,
    p: int,
    *,
    pivot_cols: list[int] | None = None,
    skip_rows: Collection[int] = (),
) -> int:
    """Rank over the field with p elements (p prime).  ``pivot_cols`` and
    ``skip_rows`` act as in ``_eliminate``."""
    if not is_prime(p):
        raise ValueError(f"rank_mod_p needs a prime modulus, not {p}")
    return len(_eliminate(entries, p, pivot_cols=pivot_cols, skip_rows=skip_rows))


def homology_groups(
    differentials: Mapping[int, Entries],
    dims: Mapping[int, int],
    mod: int = 0,
) -> dict[int, dict]:
    """Homology of a chain complex from its sparse differentials.

    ``differentials[n]`` maps degree n to n-1 and must satisfy
    ``d_n∘d_(n+1) = 0``; ``dims[n]`` is the rank of the degree-n module.
    Over the integers each degree reports free rank and torsion (elementary
    divisors > 1 of the incoming differential); over a prime field only
    dimensions.

    Degrees are reduced in ascending order, and the rows of ``d_(n+1)`` at
    the unit-pivot columns ``S`` of ``d_n`` (see ``_eliminate``) are
    skipped as its entries are read (``skip_rows``), not copied out.  With
    their pivot rows ``T`` those columns form a minor of determinant +-1,
    so a kernel vector of ``d_n`` is determined over Z by its coordinates
    outside ``S``: dropping them maps ``ker d_n`` isomorphically onto a
    saturated lattice.  As ``d∘d = 0`` puts the image of ``d_(n+1)`` inside
    ``ker d_n``, the ranks and elementary divisors of ``d_(n+1)`` do not
    change, and each such pair of cells is eliminated once instead of
    twice.  This is the reduction of Kaczynski-Mrozek-
    Slusarek, "Homology computation by reduction of chain complexes"
    (Comput. Math. Appl. 35, 1998), on the unit pivots of Dumas-Saunders-
    Villard's elimination, run on the columns so that a cell left with one
    face is paired at once (Mrozek-Batko's coreduction).  The columns of
    ``d_n`` carry over to degree n + 1 only, never across a missing degree.
    """
    degrees = sorted(dims)
    out: dict[int, dict] = {}
    ranks: dict[int, int] = {}
    torsion_in: dict[int, list[int]] = {}
    pivot_cols: list[int] = []   # unit-pivot columns of the degree just reduced
    for n in degrees:
        d = differentials.get(n, {})
        skip = set(pivot_cols) if n - 1 in ranks else ()
        pivot_cols = []
        if mod:
            ranks[n] = rank_mod_p(d, mod, pivot_cols=pivot_cols, skip_rows=skip)
            torsion_in[n] = []
        else:
            divisors = smith_normal_form(d, pivot_cols=pivot_cols, skip_rows=skip)
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
