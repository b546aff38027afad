"""Arrays over a completed PMQ, their face calculus, and the relative chain
complex computing the integer homology of the associated Hurwitz-type pair.

An array of bidegree (p, q) is a (p+2) x (q+2) grid over the completion.
Columns multiply top to bottom and the array's grading is the column-major
product of all entries; faces merge adjacent columns or rows:

* merging columns i, i+1 sends row j to  a[i][j]^(c_j) * a[i+1][j],  where
  c_j is the product of the entries of column i+1 above row j;
* merging rows j, j+1 multiplies entrywise.

Both preserve the grading (the first via the quandle shuffle ab = b a^b).
Degeneracies insert unit columns/rows.

An array is admissible when its border rows and columns are units and every
entry lies in the base PMQ; it is non-degenerate when no inner row or column
is entirely units.  Fixing a grading b, the admissible non-degenerate arrays
form the basis of a finite chain complex in which a face contributes zero
whenever it would leave the base PMQ (an undefined product), collapse a
non-unit column or row into the border, or produce a degenerate array; the
differential on bidegree (p, q) is the alternating sum of the horizontal
faces plus (-1)^p times the alternating sum of the vertical ones.  Its
homology is computed exactly over the integers (or dimension-wise over a
prime field).  The last zero rule never applies to a basis array: each of
its inner rows and columns holds a non-unit, and a merged entry with a
non-unit factor has positive norm (the norm is additive and vanishes only
on the unit), so every face that stays in the PMQ is non-degenerate.

The basis is built, not filtered.  Read column-major with units dropped,
an admissible non-degenerate inner grid of grading b is a state of b's move
component (``Completion.class_states``); conversely a state of length L
written in that order into L cells of a w x h grid meeting every row and
column, units elsewhere, is such a grid.  So the grids are the states of
b's class times the placements of their length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .completion import Completion, HatElem
from .core import FinitePmq
from .errors import PreconditionError, StructureError
from .properties import (
    intrinsic_pseudonorm,
    is_coconnected,
    is_maximally_decomposable,
)
from .snf import homology_groups, is_prime

Grid = tuple[tuple[int, ...], ...]   # inner columns, each a tuple of entries

__all__ = [
    "BisimplexArray",
    "GradedComplex",
    "enumerate_arrays",
    "build_relative_complex",
    "homology",
    "poincare_report",
    "induced_array_map",
    "induced_faces_commute",
    "chain_map_commutes",
]


# ---------------------------------------------------------------------------
# arrays over the completion

@dataclass(frozen=True)
class BisimplexArray:
    """A bordered grid over the completion; ``columns[i][j]`` is the entry in
    column i, row j, with 0 <= i <= p+1 and 0 <= j <= q+1."""

    completion: Completion = field(compare=False, repr=False)
    columns: tuple[tuple[HatElem, ...], ...]

    def __post_init__(self):
        heights = {len(col) for col in self.columns}
        if len(heights) != 1:
            raise StructureError("ragged array")
        if len(self.columns) < 2 or len(self.columns[0]) < 2:
            raise StructureError("arrays have at least two border rows and columns")

    @staticmethod
    def from_inner(comp: Completion, grid: Sequence[Sequence[int]]) -> "BisimplexArray":
        """Wrap an inner grid of PMQ elements (columns of equal height) in
        unit borders."""
        p = len(grid)
        q = len(grid[0]) if p else 0
        unit = comp.unit()
        cols = [tuple(unit for _ in range(q + 2))]
        for col in grid:
            if len(col) != q:
                raise StructureError("ragged inner grid")
            cols.append((unit,) + tuple(comp.element(x) for x in col) + (unit,))
        cols.append(tuple(unit for _ in range(q + 2)))
        return BisimplexArray(comp, tuple(cols))

    @property
    def p(self) -> int:
        return len(self.columns) - 2

    @property
    def q(self) -> int:
        return len(self.columns[0]) - 2

    def entry(self, i: int, j: int) -> HatElem:
        return self.columns[i][j]

    def to_labels(self) -> list[list[list[str]]]:
        """Nested label grid, column by column; each entry is the canonical
        label sequence of its completion class."""
        return [[list(h.labels()) for h in col] for col in self.columns]

    def total_grading(self) -> HatElem:
        word: list[int] = []
        for col in self.columns:
            for h in col:
                word.extend(h.word)
        return self.completion.of_sequence(word)

    def is_degenerate(self) -> bool:
        for i in range(1, self.p + 1):
            if all(h.is_unit for h in self.columns[i]):
                return True
        for j in range(1, self.q + 1):
            if all(col[j].is_unit for col in self.columns):
                return True
        return False

    def is_admissible(self) -> bool:
        p, q = self.p, self.q
        for i in range(p + 2):
            for j in range(q + 2):
                h = self.columns[i][j]
                border = i in (0, p + 1) or j in (0, q + 1)
                if border and not h.is_unit:
                    return False
                if h.in_base() is None:
                    return False
        return True

    def h_face(self, i: int) -> "BisimplexArray":
        """Merge columns i and i+1, 0 <= i <= p; requires p >= 1."""
        if not (0 <= i <= self.p) or self.p < 1:
            raise IndexError(f"horizontal face {i} out of range")
        comp = self.completion
        left, right = self.columns[i], self.columns[i + 1]
        merged = []
        conjugator = comp.unit()
        for j in range(len(left)):
            merged.append(comp.mul(comp.conj(left[j], conjugator), right[j]))
            conjugator = comp.mul(conjugator, right[j])
        cols = self.columns[:i] + (tuple(merged),) + self.columns[i + 2 :]
        return BisimplexArray(comp, cols)

    def v_face(self, j: int) -> "BisimplexArray":
        """Merge rows j and j+1, 0 <= j <= q; requires q >= 1."""
        if not (0 <= j <= self.q) or self.q < 1:
            raise IndexError(f"vertical face {j} out of range")
        comp = self.completion
        cols = tuple(
            col[:j] + (comp.mul(col[j], col[j + 1]),) + col[j + 2 :]
            for col in self.columns
        )
        return BisimplexArray(comp, cols)

    def h_degen(self, i: int) -> "BisimplexArray":
        """Insert a unit column between columns i and i+1, 0 <= i <= p."""
        if not (0 <= i <= self.p):
            raise IndexError(f"horizontal degeneracy {i} out of range")
        unit_col = tuple(self.completion.unit() for _ in range(self.q + 2))
        return BisimplexArray(
            self.completion, self.columns[: i + 1] + (unit_col,) + self.columns[i + 1 :]
        )

    def v_degen(self, j: int) -> "BisimplexArray":
        """Insert a unit row between rows j and j+1, 0 <= j <= q."""
        if not (0 <= j <= self.q):
            raise IndexError(f"vertical degeneracy {j} out of range")
        unit = self.completion.unit()
        return BisimplexArray(
            self.completion,
            tuple(col[: j + 1] + (unit,) + col[j + 1 :] for col in self.columns),
        )


# ---------------------------------------------------------------------------
# enumerating the basis

def _placements(width: int, height: int, length: int) -> list[tuple[int, ...]]:
    """The sets of ``length`` cells of a width x height grid, as increasing
    column-major positions i*height + j, that meet every row and column."""
    return [
        cells for cells in combinations(range(width * height), length)
        if len({c // height for c in cells}) == width
        and len({c % height for c in cells}) == height
    ]


def _grids_of_grading(q: FinitePmq, comp: Completion, b: HatElem) -> dict[tuple[int, int], list[Grid]]:
    """Admissible non-degenerate inner grids by bidegree, grading b: the
    states of b's class times the placements of their length."""
    if b.is_unit:
        return {(0, 0): [()]}
    out: dict[tuple[int, int], list[Grid]] = {}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}   # grids share columns: memory
    for length, states in comp.class_states(b).items():
        for width in range(1, length + 1):
            for height in range(-(-length // width), length + 1):
                for cells in _placements(width, height, length):
                    grids = out.setdefault((width, height), [])
                    for state in states:
                        flat = [q.unit] * (width * height)
                        for c, x in zip(cells, state):
                            flat[c] = x
                        cols = (tuple(flat[i : i + height]) for i in range(0, len(flat), height))
                        grids.append(tuple(shared.setdefault(col, col) for col in cols))
    for grids in out.values():
        grids.sort()
    return out


def enumerate_arrays(q: FinitePmq, b: HatElem) -> list[BisimplexArray]:
    """Every admissible non-degenerate array with total grading b, each a
    state of b's class placed on cells meeting every inner row and column;
    bidegrees are bounded by the norm of b in each direction."""
    comp = b.completion
    out = []
    for (p, qq), grids in sorted(_grids_of_grading(q, comp, b).items()):
        for g in grids:
            out.append(BisimplexArray.from_inner(comp, g))
    return out


# ---------------------------------------------------------------------------
# the relative complex

@dataclass
class GradedComplex:
    """Finitely generated integer chain complex with array basis.

    ``basis[n]`` lists (p, q, grid) in a fixed order; ``differentials[n]``
    holds the sparse matrix of the degree-n differential into degree n-1;
    coefficients are integers (``mod`` = 0) or mod-p classes.
    """

    pmq: FinitePmq
    grading: HatElem
    basis: dict[int, list[tuple[int, int, Grid]]]
    differentials: dict[int, dict[tuple[int, int], int]]
    mod: int = 0

    def dims(self) -> dict[int, int]:
        return {n: len(cells) for n, cells in self.basis.items()}

    def check_boundary_squared(self) -> bool:
        """Whether every composite d_n∘d_(n+1) is zero, each entry reduced
        mod ``mod``.  Each differential is grouped by column once, and the
        composite is summed one column of d_(n+1) at a time."""
        lower_n, lower = None, {}   # d_n by column, for the degree it holds
        for n in sorted(self.basis):
            if lower_n != n:
                lower = _by_column(self.differentials.get(n, {}))
            upper = _by_column(self.differentials.get(n + 1, {}))
            if lower:
                for column in upper.values():
                    comp: dict[int, int] = {}
                    for r, v in column:
                        for rr, vv in lower.get(r, ()):
                            comp[rr] = comp.get(rr, 0) + v * vv
                    if any(self._reduce(v) for v in comp.values()):
                        return False
            lower_n, lower = n + 1, upper
        return True

    def _reduce(self, v: int) -> int:
        return v % self.mod if self.mod else v


def _by_column(entries: Mapping[tuple[int, int], int]) -> dict[int, list[tuple[int, int]]]:
    """Sparse matrix entries grouped by column: col -> [(row, value)]."""
    out: dict[int, list[tuple[int, int]]] = {}
    for (r, c), v in entries.items():
        out.setdefault(c, []).append((r, v))
    return out


def _face_targets(q: FinitePmq, grid: Grid):
    """Signed faces of a basis grid: (sign, face grid).  A face that leaves
    the PMQ is dropped (it is zero in the relative reduced complex).

    No face that stays in the PMQ is degenerate.  A basis grid has a
    non-unit in every row and column, and a merged entry with a non-unit
    factor has norm N(a) + N(b) > 0, so it is not the unit (conjugation
    keeps non-units; ``Completion`` validates the norm-kernel and
    norm-additive axioms).  The outer faces collapse a non-unit column or
    row into the border and vanish.
    """
    conj = q.conj
    prod = q.prod
    p = len(grid)
    qq = len(grid[0]) if grid else 0
    # horizontal: merge grid columns i-1, i  (full-array faces d_i, 1<=i<=p-1)
    for i in range(1, p):
        left, right = grid[i - 1], grid[i]
        merged = []
        for j in range(qq):
            a = left[j]
            for c in right[:j]:
                a = conj[a][c]
            val = prod.get((a, right[j]))
            if val is None:
                break
            merged.append(val)
        else:
            yield (-1) ** i, grid[: i - 1] + (tuple(merged),) + grid[i + 1 :]
    # vertical: merge grid rows j-1, j  (full-array faces d_j, 1<=j<=q-1)
    for j in range(1, qq):
        cols = []
        for col in grid:
            val = prod.get((col[j - 1], col[j]))
            if val is None:
                break
            cols.append(col[: j - 1] + (val,) + col[j + 1 :])
        else:
            yield (-1) ** (p + j), tuple(cols)


def _grid_index(basis: Mapping[int, list[tuple[int, int, Grid]]]) -> dict[Grid, int]:
    """Each basis grid's position within its degree; a grid's shape fixes
    its bidegree, so the grid alone is the key."""
    return {grid: pos for cells in basis.values() for pos, (_, _, grid) in enumerate(cells)}


def build_relative_complex(q: FinitePmq, b: HatElem, mod: int = 0) -> GradedComplex:
    """The chain complex of admissible non-degenerate arrays of grading b,
    over Z for ``mod`` 0 and over F_p for a prime ``mod``.

    On bidegree (p, q) the face merging array columns i, i+1 has sign
    (-1)^i and the one merging rows j, j+1 has sign (-1)^(p+j); a face
    that is not again an admissible non-degenerate array is zero.  Entries
    are reduced mod ``mod`` and zeros dropped."""
    if mod and not is_prime(mod):
        raise PreconditionError(f"modulus {mod} is not a prime", failed="prime")
    basis: dict[int, list[tuple[int, int, Grid]]] = {}
    for (p, qq), grids in sorted(_grids_of_grading(q, b.completion, b).items()):
        basis.setdefault(p + qq, []).extend((p, qq, g) for g in grids)
    index = _grid_index(basis)
    out = GradedComplex(q, b, basis, {}, mod)
    for n, cells in sorted(basis.items()):
        entries: dict[tuple[int, int], int] = {}
        for col_pos, (_, _, grid) in enumerate(cells):
            for sign, face in _face_targets(q, grid):
                row_pos = index.get(face)
                if row_pos is None:
                    raise AssertionError("face left the enumerated basis")
                key = (row_pos, col_pos)
                entries[key] = entries.get(key, 0) + sign
        entries = {k: r for k, v in entries.items() if (r := out._reduce(v))}
        if entries:
            out.differentials[n] = entries
    if not out.check_boundary_squared():
        raise AssertionError("differential does not square to zero")
    return out


def homology(complex_: GradedComplex) -> dict[int, dict]:
    """Betti numbers and torsion per degree (dimensions only over a field)."""
    return homology_groups(complex_.differentials, complex_.dims(), complex_.mod)


# ---------------------------------------------------------------------------
# diagnostics

def poincare_report(q: FinitePmq, budget: int) -> dict:
    """Necessary conditions for every grading component to be a manifold.

    Checks that the PMQ is maximally decomposable with its norm equal to the
    intrinsic pseudonorm, that it is coconnected, and that for every grading
    of norm at most the budget the top homology sits in degree twice the
    norm and is free of rank one.  Passing is necessary, never sufficient;
    the report says which condition broke and where.
    """
    norm = q.require_norm()
    maxdec, md_witness = is_maximally_decomposable(q)
    h = intrinsic_pseudonorm(q)
    intrinsic_matches = isinstance(h, dict) and all(
        h[q.labels[a]] == norm[a] for a in range(len(q))
    )
    cocon = None
    if maxdec:
        cocon, _ = is_coconnected(q)
    comp = Completion(q)
    gradings = {}
    all_ok = maxdec and intrinsic_matches and bool(cocon)
    for b in comp.classes_up_to(budget):
        if b.is_unit:
            continue
        cx = build_relative_complex(q, b)
        hom = homology(cx)
        nonzero = [
            n for n, data in sorted(hom.items()) if data["rank"] or data.get("torsion")
        ]
        top = nonzero[-1] if nonzero else None
        expected = 2 * b.norm
        top_data = hom.get(expected, {"rank": 0, "torsion": []})
        ok = (
            top == expected
            and top_data["rank"] == 1
            and not top_data.get("torsion")
        )
        gradings[" ".join(b.labels())] = {
            "top_degree": top,
            "expected_top": expected,
            "top_rank": top_data["rank"],
            "top_torsion": top_data.get("torsion", []),
            "ok": ok,
        }
        all_ok = all_ok and ok
    return {
        "maximally_decomposable": maxdec,
        "intrinsic_norm_equals_norm": intrinsic_matches,
        "coconnected": cocon,
        "gradings": gradings,
        "passed": bool(all_ok),
        "note": "necessary conditions only; passing does not certify the manifold property",
    }


def induced_array_map(qa: FinitePmq, qb: FinitePmq, mapping: Sequence[int]):
    """The entrywise map of arrays induced by an augmented PMQ map.

    Returns (hat_map, array_map).  The induced map is a map of bisimplicial
    sets: it commutes with every face and degeneracy of arrays over the
    completions.  It need not send non-admissible arrays to non-admissible
    ones (an undefined product may map to a defined one), so it induces a
    map of *relative* complexes only at gradings where that does not occur;
    ``chain_map_commutes`` checks a given grading.
    """
    comp_b = Completion(qb)

    def hat_map(h: HatElem) -> HatElem:
        return comp_b.of_sequence(tuple(mapping[x] for x in h.word))

    def array_map(arr: BisimplexArray) -> BisimplexArray:
        return BisimplexArray(
            comp_b, tuple(tuple(hat_map(h) for h in col) for col in arr.columns)
        )

    return hat_map, array_map


def induced_faces_commute(
    qa: FinitePmq, qb: FinitePmq, mapping: Sequence[int], arr: BisimplexArray
) -> bool:
    """Entrywise image of every face/degeneracy equals face/degeneracy of
    the entrywise image."""
    _, array_map = induced_array_map(qa, qb, mapping)
    img = array_map(arr)
    for i in range(arr.p + 1):
        if arr.p >= 1 and array_map(arr.h_face(i)) != img.h_face(i):
            return False
        if array_map(arr.h_degen(i)) != img.h_degen(i):
            return False
    for j in range(arr.q + 1):
        if arr.q >= 1 and array_map(arr.v_face(j)) != img.v_face(j):
            return False
        if array_map(arr.v_degen(j)) != img.v_degen(j):
            return False
    return True


def chain_map_commutes(
    qa: FinitePmq, qb: FinitePmq, mapping: Sequence[int], b: HatElem
) -> bool:
    """Whether the entrywise map gives a chain map of relative complexes at
    the given grading.

    True exactly when the zero-rules agree on both sides there; gradings
    whose arrays have faces that fall out of the source PMQ but not out of
    the target one make it fail, which mirrors the fact that the induced map
    of pairs does not exist in general."""
    comp_b = Completion(qb)
    image_word = tuple(mapping[x] for x in b.word)
    b2 = comp_b.of_sequence(image_word)
    ca = build_relative_complex(qa, b)
    cb = build_relative_complex(qb, b2)
    index_b = _grid_index(cb.basis)

    def image(grid: Grid) -> Grid:
        return tuple(tuple(mapping[x] for x in col) for col in grid)

    for n, cells in sorted(ca.basis.items()):
        cols_a = _by_column(ca.differentials.get(n, {}))
        cols_b = _by_column(cb.differentials.get(n, {}))
        for pos, (_, _, grid) in enumerate(cells):
            img = image(grid)
            if img not in index_b:
                return False
            lhs = dict(cols_b.get(index_b[img], ()))
            # image of d_a(cell)
            rhs: dict[int, int] = {}
            prev_a = ca.basis.get(n - 1, [])
            for r, v in cols_a.get(pos, ()):
                target = index_b[image(prev_a[r][2])]
                rhs[target] = rhs.get(target, 0) + v
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                return False
    return True
