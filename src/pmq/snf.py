"""Exact linear algebra over Z and F_p: Smith normal form, ranks, homology
by reduction.

Matrices are sparse maps (row, col) -> int: any ``Mapping``, such as a
dict, or a ``Matrix``, which is column-compressed: the rows and values of
its entries as two flat lists, column by column, each column in the order
its entries were written, the start of each column among them, and the
number of rows, about 16 bytes an entry and 40 a column where a dict slot
and its key tuple take about 100.  A ``Matrix`` is eliminated as it is,
after a check that its lists make one; any other mapping is first put in
that form, by a stable sort by column, which keeps each column's order,
and with indices that are negative or not below its number of entries
renumbered in sorted order, which keeps every tie-break.  Both rings share
one elimination, and it runs on the transpose: the loop's rows are the
matrix columns (a cell and its faces), its row operations are column
operations, and ranks and elementary divisors do not change.

The elimination has two phases, which take the pivots in one order.  A
column whose one entry is a unit is paired with its row at once: clearing
that row only deletes its entry from the other columns, with no quotient
taken.  This is a coreduction pair of Mrozek-Batko, "Coreduction homology
algorithm" (Discrete Comput. Geom. 41, 2009).  Such columns go before any
other pick, the first in column order, so phase 1 pairs them before any
dict is built, in one sweep over the columns in ascending order, with a
bytearray marking the rows skipped or paired.  A column met with exactly
one live entry, a unit, is paired at once, and one with none is passed
over.  Any other column is deferred, and only deferred columns are indexed
by row, each with a count of its live entries.  Pairing a row lowers the
counts of the deferred columns holding it, and one whose count falls to
one waits in a heap.  Being smaller than the column the sweep is at, it is
then the first column with one entry, so it is paired (if that entry is a
unit) before the sweep moves on.  So the sweep makes the pairs of a heap
over every column, in the same order, with no transpose of the matrix.
Phase 2, the Markowitz loop, gets only the deferred columns still live,
each with its live entries in entry order, as a dict of row dicts and a
dict of column sets.  There columns wait in one heap keyed by their
length; the shortest column is taken, the first in column order on ties,
and among its unit entries the one whose row has the fewest nonzeros
becomes the pivot (the Markowitz choice), the first met on ties.  The scan
stops at a row holding only this column, as no row has fewer, and such a
pivot has no other column to clear.  A column left with one unit entry is
the shortest unit pick: clearing its row only deletes that entry from the
other columns, so it is paired as in phase 1, with no rule of its own; a
column without a unit entry is set aside until a later column operation
changes it.  Over F_p every nonzero entry is a unit; over Z the
units are +-1.  When no column has a unit (only over Z) the pivot is the
entry of least magnitude, then least fill-in.  Its row is cleared by
column operations with the floor quotient, so any remainder, smaller than
the pivot, stays in its column.  Once the row is clear, row operations
touch only the pivot column: if the pivot divides that column, the pivot
column and row drop out; otherwise they leave the remainders modulo the
pivot there and the loop picks again.  The least entry shrinks at every
pick that drops nothing, so the loop ends.  Over F_p the number of pivots
is the rank.  Over Z the pivots are the diagonal of an equivalent matrix,
made a divisibility chain (elementary divisors) by a gcd/lcm fix-up, so
ranks and torsion read off directly.  On the incidence-style matrices of
chain complexes the unit pivots do nearly all the work: of the largest
``S_3`` norm-5 differential (343,008 nonzeros), eliminated on its own,
they leave 26 columns with 6,032 nonzeros.  This is the unit-pivot
elimination of Dumas-Saunders-Villard, "On efficient sparse integer matrix
Smith normal forms" (JSC 2001).  Within ``homology_groups`` phase 1 pairs
all but 3,926 of that differential's 60,288 columns, which keep 9,724
nonzeros, and so the dicts of phase 2 hold 3 % of its entries.

Homology reduces the differentials in ascending degree and hands each
one's unit pivots to the next.  The unit pivots taken before the first
non-unit one (over F_p, all pivots) have columns ``S`` and pivot rows
``T`` whose minor has determinant +-1: the exact column operations among
them leave it triangular up to order with +-1 on the diagonal.  A kernel
vector of ``d_n`` is then fixed by its coordinates outside ``S``.  As
``d_n∘d_(n+1) = 0``, deleting the rows ``S`` of ``d_(n+1)`` keeps its
rank and elementary divisors, and each such pair of cells is eliminated
once, not once as a column of ``d_n`` and again as a row of ``d_(n+1)``.
The elimination marks those rows skipped in phase 1's bytearray, so no
filtered copy of ``d_(n+1)`` is made.  This is chain-complex reduction
(Kaczynski-Mrozek-Slusarek, "Homology computation by reduction of chain
complexes", Comput. Math. Appl. 35, 1998).  Once those rows are gone,
nearly every cell of ``d_(n+1)`` has one face left and is paired at once;
a loop over rows would take a face with all its cofaces and turn those
pairs into fill-in.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, compress, count, islice, repeat
from math import gcd
from operator import le, sub

from .errors import PreconditionError

Entries = Mapping[tuple[int, int], int]

__all__ = [
    "Matrix",
    "is_prime",
    "smith_normal_form",
    "integer_rank",
    "rank_mod_p",
    "homology_groups",
]


# no composite below 3.18e23 passes Miller-Rabin to all twelve (Sorenson-
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the twelve primes up to 37.  A modulus
    of 2**64 or more is refused with ``PreconditionError``."""
    if p >= 1 << 64:
        raise PreconditionError(f"modulus {p} is not below 2**64", failed="prime")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = 2^s * d with d odd
    d = (p - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Matrix(Mapping):
    """A sparse integer matrix, column-compressed: column c's entries are
    ``rows[k]`` and ``vals[k]`` for k in [``starts[c]``, ``starts[c + 1]``),
    in the order they were appended, and every row lies in [0, ``nrows``).
    A writer appends a column's entries, then closes it by appending
    ``len(rows)`` to ``starts``; no column is stored per entry.  Read-only
    as a mapping (row, col) -> int, whose ``items()`` come column by column
    in entry order; a key lookup scans its column, and ``values()`` reads
    the value list."""

    __slots__ = ("rows", "vals", "starts", "nrows")

    def __init__(self, nrows: int = 0):
        self.rows: list[int] = []
        self.vals: list[int] = []
        self.starts: list[int] = [0]
        self.nrows = nrows

    def _cols(self):
        """The column of each entry, in entry order."""
        starts = self.starts
        return chain.from_iterable(map(repeat, count(), map(sub, islice(starts, 1, None), starts)))

    def __len__(self) -> int:
        return len(self.vals)

    def __iter__(self):
        return zip(self.rows, self._cols())

    def items(self):
        return zip(zip(self.rows, self._cols()), self.vals)

    def values(self):
        return iter(self.vals)

    def __getitem__(self, key: tuple[int, int]) -> int:
        r, c = key
        if type(c) is int and 0 <= c < len(self.starts) - 1:
            for k in range(self.starts[c], self.starts[c + 1]):
                if self.rows[k] == r:
                    return self.vals[k]
        raise KeyError(key)

    def check(self) -> None:
        """Raise ``ValueError`` unless the lists make a matrix: ``starts``
        runs non-decreasing from 0 to the number of entries, there is one
        value per row index, and every row lies in [0, ``nrows``)."""
        rows, starts = self.rows, self.starts
        if not (starts and starts[0] == 0 and starts[-1] == len(rows)
                and all(map(le, starts, islice(starts, 1, None)))):
            raise ValueError("matrix column starts do not run non-decreasing from 0 to the number of entries")
        if len(self.vals) != len(rows):
            raise ValueError(f"matrix has {len(self.vals)} values for {len(rows)} row indices")
        if rows and not (min(rows) >= 0 and max(rows) < self.nrows):
            raise ValueError(f"matrix rows lie outside [0, {self.nrows})")


def _dense(indices: list[int]) -> tuple[list[int], dict[int, int]]:
    """``indices`` renumbered 0, 1, ... in sorted order, which keeps every
    comparison between them, and the map from the old numbers to the new."""
    at = {x: i for i, x in enumerate(sorted(set(indices)))}
    return [at[x] for x in indices], at


def _compressed(entries: Entries, p: int, skip_rows: Collection[int]):
    """The nonzero (mod p) entries of any mapping in the form of a
    ``Matrix``: (rows, vals, starts, nrows, names, skip_rows).  A stable
    sort puts the entries column by column, keeping each column's order.
    Columns outside [0, number of entries) are renumbered in sorted order,
    and ``names`` is then the given number of each, else None; rows outside
    it likewise, with ``skip_rows`` renumbered to match.  Renumbering in
    sorted order keeps every tie-break."""
    keys = list(entries)
    vals = list(entries.values())
    order = sorted((k for k, v in enumerate(vals) if (v % p if p else v)), key=lambda k: keys[k][1])
    rows, cols, vals = [keys[k][0] for k in order], [keys[k][1] for k in order], [vals[k] for k in order]
    n = len(vals)
    names = None
    if cols and not 0 <= cols[0] <= cols[-1] < n:
        cols, col_at = _dense(cols)
        names = list(col_at)
    nrows = max(rows, default=-1) + 1
    if nrows > n or n and min(rows) < 0:
        rows, row_at = _dense(rows)
        skip_rows = [row_at[r] for r in skip_rows if r in row_at]
        nrows = len(row_at)
    starts = [0] * (cols[-1] + 2 if n else 1)
    for c in cols:
        starts[c + 1] += 1
    return rows, vals, list(accumulate(starts)), nrows, names, skip_rows


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
    equivalent matrix.  Columns whose one live entry is a unit are paired
    first, in one sweep over the columns (coreduction, Mrozek-Batko); the
    columns left go through the Markowitz pick of ``_markowitz`` (see the
    module docstring).

    A ``Matrix`` is read as it is, once ``Matrix.check`` passes; a
    malformed one raises ``ValueError``.  Any other mapping, or a
    ``Matrix`` holding an entry that is zero (mod p), is first put in the
    same form by ``_compressed``.

    ``pivot_cols``, when given, receives the matrix column of each unit
    pivot dropped before the first non-unit pivot is picked (over F_p, of
    every pivot).  Until then only exact column operations have been
    applied, so these columns and their pivot rows form a minor of
    determinant +-1.

    The matrix rows in ``skip_rows`` are marked skipped before phase 1, so
    the matrix eliminated is ``entries`` without them, with no copy made."""
    if isinstance(entries, Matrix):
        entries.check()
    if isinstance(entries, Matrix) and all(v % p if p else v for v in set(entries.vals)):
        rows, vals, starts, nrows, names = entries.rows, entries.vals, entries.starts, entries.nrows, None
    else:   # any other mapping, or a Matrix with an entry that is zero (mod p)
        rows, vals, starts, nrows, names, skip_rows = _compressed(entries, p, skip_rows)

    # phase 1, one sweep over the columns in ascending order: the loop of
    # ``_markowitz`` takes every column whose one live entry is a unit
    # before any other pick, the first in column order, and pairing it only
    # deletes its row, so those columns are paired here, in the same order
    dead = bytearray(nrows)   # skipped rows, then each paired row
    for r in skip_rows:
        if 0 <= r < nrows:
            dead[r] = 1
    live = [0] * (len(starts) - 1)   # live entries of each deferred column
    row_cols: list = [None] * nrows   # the deferred columns holding each row
    waiting: list[int] = []   # deferred columns down to one live entry: a heap
    pivots: list[int] = []
    units: list[int] = []   # the unit-pivot columns
    for c, lo, hi in zip(count(), starts, islice(starts, 1, None)):
        met = 0   # live entries met in column c
        for r in rows[lo:hi]:
            if not dead[r]:
                met += 1
                r0 = r
        if not met:
            continue
        if met == 1:
            k = rows.index(r0, lo, hi)
        if met > 1 or not (p or vals[k] in (1, -1)):
            # deferred: indexed by its live rows, with their count
            live[c] = met
            for r in rows[lo:hi]:
                if not dead[r]:
                    held = row_cols[r]
                    if held is None:
                        row_cols[r] = [c]
                    else:
                        held.append(c)
            continue
        # pair column c with its one live entry, then, smallest first, every
        # deferred column the pairings leave with one live unit entry: each
        # is smaller than c, so the loop would take it before any column
        # the sweep has not met
        c0 = c
        while c0 is not None:
            r0, v0 = rows[k], vals[k]
            dead[r0] = 1
            pivots.append(v0 % p if p else abs(v0))
            units.append(c0)
            for c1 in row_cols[r0] or ():   # a deferred c0 among them drops to none
                left = live[c1] - 1
                live[c1] = left
                if left == 1:
                    heappush(waiting, c1)
            c0 = None
            while waiting and c0 is None:
                c1 = heappop(waiting)
                if live[c1] == 1:   # not paired since
                    k = starts[c1]
                    while dead[rows[k]]:
                        k += 1
                    if p or vals[k] in (1, -1):   # else left for ``_markowitz``
                        c0 = c1

    del row_cols   # phase 2 reads the live counts and the dead rows
    # phase 2: the deferred columns still live, each with its live entries
    # in entry order
    rows_left: dict[int, dict[int, int]] = {}
    cols_left: dict[int, set[int]] = {}
    for c in compress(count(), live):
        row = rows_left[c] = {}
        for k in range(starts[c], starts[c + 1]):
            r = rows[k]
            if not dead[r]:
                row[r] = vals[k] % p if p else vals[k]
                col = cols_left.get(r)
                if col is None:
                    cols_left[r] = col = set()
                col.add(c)
    del rows, vals, starts, live, dead   # free them for the loop's fill-in
    _markowitz(rows_left, cols_left, p, pivots, units)
    if pivot_cols is not None:
        if names is not None:
            units = [names[c] for c in units]
        pivot_cols.extend(units)
    return pivots


def _markowitz(
    rows: dict[int, dict[int, int]],
    cols: dict[int, set[int]],
    p: int,
    pivots: list[int],
    pivot_cols: list[int],
) -> None:
    """The elimination loop of the module docstring on a transposed matrix
    held as dicts: ``rows`` maps each matrix column to its nonzero entries
    {matrix row: value} (reduced mod p over F_p), ``cols`` each matrix row
    to the columns holding it.  Appends each pivot's magnitude to
    ``pivots`` and, as in ``_eliminate``, the column of each unit pivot
    taken before the first non-unit one to ``pivot_cols``; empties both
    dicts."""
    # the shortest row first, the first in row order on ties
    heap = [(len(row), r) for r, row in rows.items()]
    heapify(heap)
    unimodular = True   # no non-unit pivot has been picked yet
    while rows:
        if heap:
            length, r0 = heappop(heap)
            row0 = rows.get(r0)
            if row0 is None or len(row0) != length:
                continue  # stale entry: the row was dropped or changed since
            # the unit whose column is shortest, the first met on ties; a
            # column of one nonzero holds only this row, so stop there; a
            # row of one unit is paired, as clearing deletes only that entry
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
                if row:
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
    # (gcd, lcm) orders each prime's two exponents, so this selection sort
    # of all primes' exponents at once leaves a divisibility chain; it is
    # quadratic in the non-unit pivots, as is the fallback that picked them
    divisors = [v for v in pivots if v != 1]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a // g * b
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
    """Rank over the field with p elements.  A modulus that is not a prime
    below 2**64 raises ``ValueError``, a composite and one of 2**64 or more
    alike (``is_prime`` decides only below 2**64).  ``pivot_cols`` and
    ``skip_rows`` act as in ``_eliminate``."""
    if p >= 1 << 64 or not is_prime(p):
        raise ValueError(f"rank_mod_p needs a prime modulus below 2**64, not {p}")
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
