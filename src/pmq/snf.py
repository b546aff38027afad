"""Exact linear algebra over Z, F_p and Q: Smith normal form, ranks,
reduced echelon forms, homology.

Matrices are sparse maps (row, col) -> int.  Both rings share one
elimination loop.  Rows wait in a heap keyed by their length; the shortest
row is taken, and among its unit entries the one whose column has the
fewest nonzeros becomes the pivot (the Markowitz choice).  A row without a
unit entry is set aside until a later row operation changes it.  Over F_p
every nonzero entry is a unit; over Z the units are +-1.  When no row has a
unit (only over Z) the pivot is the entry of least magnitude, then least
fill-in.  Its column is cleared by row operations with the floor quotient,
so any remainder, smaller than the pivot, stays in its row.  Once the
column is clear, column operations touch only the pivot row: if the pivot
divides that row, the pivot row and column drop out; otherwise they leave
the remainders modulo the pivot there and the loop picks again.  The least
entry shrinks at every pick that drops nothing, so the loop ends.  Over F_p
the number of pivots is the rank.  Over Z the pivots are the diagonal of an
equivalent matrix, made a divisibility chain (elementary divisors) by a
gcd/lcm fix-up, so ranks and torsion read off directly.  On the
incidence-style matrices of chain complexes the unit pivots do nearly all
the work: of the largest ``S_3`` norm-5 differential (343,008 nonzeros)
they leave 249 rows with 8,466 nonzeros.  This is the unit-pivot
elimination of Dumas-Saunders-Villard, "On efficient sparse integer matrix
Smith normal forms" (JSC 2001).

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


def _eliminate(entries: Entries, p: int = 0) -> list[int]:
    """Markowitz elimination; ``p`` = 0 works over Z, a prime p over F_p.
    Returns the magnitude of each pivot dropped, so over F_p their number is
    the rank and over Z they are diagonal entries of an equivalent matrix."""
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
    pivots: list[int] = []
    while rows:
        if heap:
            length, r0 = heappop(heap)
            row0 = rows.get(r0)
            if row0 is None or len(row0) != length:
                continue  # stale entry: the row was dropped or changed since
            units = (c for c, v in row0.items() if p or v in (1, -1))
            c0 = min(units, key=lambda c: len(cols[c]), default=None)
            if c0 is None:
                continue  # no unit: set aside until a row operation changes it
        else:
            # no row has a unit (only over Z): least magnitude, then least fill-in
            *_, r0, c0 = min(
                (abs(v), (len(row) - 1) * (len(cols[c]) - 1), r, c)
                for r, row in rows.items()
                for c, v in row.items()
            )
            row0 = rows[r0]
        v0 = row0[c0]
        inv = pow(v0, -1, p) if p else 0
        for r in list(cols[c0]):
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
        if len(cols[c0]) > 1:
            continue  # remainders are left in the pivot column: pick again
        # the column is clear, so column operations with the pivot touch no
        # other row; where it does not divide its row they leave remainders
        rest = () if p or v0 in (1, -1) else [c for c, v in row0.items() if v % v0]
        if rest:
            for c in rest:
                row0[c] %= v0
            heappush(heap, (len(row0), r0))
            continue
        # it divides its row, so the pivot row and column drop out
        for c in row0:
            cols[c].discard(r0)
            if not cols[c]:
                del cols[c]
        del rows[r0]
        pivots.append(abs(v0))
    return pivots


def smith_normal_form(entries: Entries) -> list[int]:
    """Elementary divisors (positive, each dividing the next) of the integer
    matrix with the given sparse entries."""
    pivots = _eliminate(entries)
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


def rank_mod_p(entries: Entries, p: int) -> int:
    """Rank over the field with p elements (p prime)."""
    if not is_prime(p):
        raise ValueError(f"rank_mod_p needs a prime modulus, not {p}")
    return len(_eliminate(entries, p))


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
