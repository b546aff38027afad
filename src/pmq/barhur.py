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
column, units elsewhere, is such a grid.  So the cells are the states of
b's class times the placements of their length, built column by column
(each a nonempty row set, a branch cut once the rows not yet met outnumber
the cells left), not filtered from every cell subset.  The basis keeps
that construction order (``_basis_order``): by bidegree, then by length as
``class_states`` lists them, then by placement, then by state, so each
placement's cells sit at consecutive positions of their degree.  The
library holds them as (placement, state) blocks and never writes a grid:
a placement's positions follow from the number of states of its length.

Faces act on the two factors separately: the face of the cell (placement
P, state s) is the cell (P', t(s)).  The face placement P' and the sign
depend on P alone, and t on P's face pattern alone: which state positions
merge (cells colliding in a row merge, or the two columns of a column
merge with their row sets, which also fix the conjugations).  The
placements, their faces, signs and patterns depend only on which state
lengths occur, so they are worked out once per process for each set of
lengths, as a plan (``_plan``): gradings of one PMQ, and of different
PMQs, have the same lengths again and again (the 73 gradings of S_3 to
norm 4 and S_4 to norm 3 have 8 sets of lengths).  A build reads P' and
the sign off its plan, tabulates t once per pattern over the states of
that length, as state indices, and reads each matrix entry off two
tables; no product is taken and no grid is hashed per cell.

No two inner faces of a basis array coincide, so each matrix entry is the
sign of one face, written rather than summed.  A horizontal and a vertical
face have different shapes.  For horizontal faces d_i, d_j with i < j,
d_i merges columns i and i+1 while d_j leaves column i as it is, so
column i of the two faces differs in total norm by N(column i+1) > 0, as
every inner column holds a non-unit and norms add under merging; rows
likewise.  Every build checks the argument: two faces of one cell can
meet only on one face placement, so the plan lists the distinct pairs of
patterns of two faces sharing one, and the build compares the two face
tables of each pair once and raises if a state is sent to the same cell
by both.

The same tables gate d∘d = 0, exactly and per placement rather than per
cell.  Entries are written only from the (sign, table, rows) triples of
each placement's faces, and the check above rules out an entry written
twice, so the stored matrices are the operator the tables define.  For
it, d∘d of the cell (P, s) is the sum of e_f e_g [P''_fg, t_g(t_f(s))]
over the face pairs (f, g) of P.  Grouping the pairs by target P'' and
composite table t_g∘t_f, a group whose signs sum to zero contributes zero
on every state of P at once, so if all groups cancel, d∘d = 0.  A group
that does not cancel proves nothing (different composites may meet on
some states), and only then are the stored matrices multiplied out.  The
pairs of one placement with one target, as (sign product, pattern of f,
pattern of g), get the same verdict wherever they occur in a build, so
the plan keeps each distinct such gate group once, and a build evaluates
each once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, islice
from typing import Mapping, Optional, Sequence

from .completion import Completion, HatElem, Seq
from .core import FinitePmq, map_violation
from .errors import PreconditionError, StructureError
from .properties import property_report
from .snf import Matrix, homology_groups, is_prime

__all__ = [
    "BisimplexArray",
    "GradedComplex",
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

@cache
def _placements(width: int, height: int, length: int) -> tuple[tuple[int, ...], ...]:
    """The sets of ``length`` cells of a width x height grid, as increasing
    column-major positions i*height + j, that meet every row and column, in
    increasing order.  The column-by-column build (see the module docstring)
    cuts a branch once the cells left cannot fill the columns left or meet
    the rows not yet met, so every branch ends in a placement."""
    rows_by_size = [[(rows, sum(1 << j for j in rows)) for rows in combinations(range(height), k)]
                    for k in range(height + 1)]   # (rows, bit mask) by number of rows
    out = []

    def extend(column: int, cells: tuple[int, ...], met: int, left: int) -> None:
        later = width - column - 1   # columns after this one, each needing a cell
        if later < 0:
            if not left and met.bit_count() == height:   # fails only on a grid with no column
                out.append(cells)
            return
        for k in range(max(1, left - later * height), min(height, left - later) + 1):
            for rows, mask in rows_by_size[k]:
                if height - (now := met | mask).bit_count() <= left - k:
                    extend(column + 1, cells + tuple(column * height + j for j in rows), now, left - k)

    extend(0, (), 0, length)
    return tuple(sorted(out))


def _shapes(length: int) -> list[tuple[int, int]]:
    """The bidegrees (width, height) with a placement of ``length`` cells:
    width, height <= length and width * height >= length.  The unit
    grading's one state, of length 0, is the empty grid."""
    if not length:
        return [(0, 0)]
    return [(width, height) for width in range(1, length + 1)
            for height in range(-(-length // width), length + 1)]


def _require_grading_over(q: FinitePmq, b: HatElem) -> None:
    """b's states come from b's completion, products and conjugation from
    q, so the two must be the same PMQ; identity is tested first."""
    if b.completion.pmq is not q and b.completion.pmq != q:
        raise PreconditionError("grading is not in the completion of this PMQ", failed="grading")


# ---------------------------------------------------------------------------
# the relative complex

@dataclass
class GradedComplex:
    """Finitely generated integer chain complex with array basis.

    ``sizes[n]`` is the number of cells of degree n (``dims``);
    ``differentials[n]`` holds the sparse matrix of the degree-n
    differential into degree n-1, integer for every ``mod``, which picks
    the homology's ring: Z or F_p.  Each is a column-compressed
    ``snf.Matrix``: flat row and value lists, column by column in
    ascending column order, each column's faces in index order, the start
    of each column among them (``starts``, one per cell of degree n, then
    the end), and ``nrows``, the number of cells of degree n-1.  Rows
    and columns number the cells of a degree in basis order (see the
    module docstring), which ``sizes`` and ``differentials`` determine
    with the grading; no grid is kept.
    """

    pmq: FinitePmq
    grading: HatElem
    sizes: dict[int, int]
    differentials: dict[int, Matrix]
    mod: int = 0

    def dims(self) -> dict[int, int]:
        return dict(self.sizes)

    def check_boundary_squared(self) -> bool:
        """Whether every composite d_n∘d_(n+1) is zero over Z, whatever
        ``mod`` is.  The composite is summed one column of d_(n+1) at a
        time, each column of d_n read off its ``starts``.  A malformed
        differential (``snf.Matrix.check``), or a d_(n+1) whose ``nrows``
        is not the number of columns of d_n, raises ``ValueError``."""
        for matrix in self.differentials.values():
            matrix.check()
        for n in sorted(self.sizes):
            lower = self.differentials.get(n)
            upper = self.differentials.get(n + 1)
            if lower and upper and not _composite_vanishes(lower, upper):
                return False
        return True


def _composite_vanishes(lower: Matrix, upper: Matrix) -> bool:
    """Whether ``lower`` times ``upper`` is zero, summed one column of
    ``upper`` at a time; each row of ``upper`` names a column of ``lower``."""
    starts, rows, vals = lower.starts, lower.rows, lower.vals
    if upper.nrows != len(starts) - 1:
        raise ValueError(f"{upper.nrows} rows do not match {len(starts) - 1} columns")
    upper_rows, upper_vals = upper.rows, upper.vals
    comp: dict[int, int] = {}
    get = comp.get
    for lo, hi in zip(upper.starts, islice(upper.starts, 1, None)):
        for k in range(lo, hi):
            r, v = upper_rows[k], upper_vals[k]
            for kk in range(starts[r], starts[r + 1]):
                rr = rows[kk]
                comp[rr] = get(rr, 0) + v * vals[kk]
        if any(comp.values()):
            return False
        comp.clear()
    return True


def _placement_faces(width: int, height: int, cells: tuple[int, ...]) -> tuple[tuple, ...]:
    """The inner faces of a placement of a width x height grid, as (sign,
    face shape, face placement, recipe), in index order.  They depend on
    the placement alone, and ``_plan`` reads them once per set of state
    lengths.  The recipe says how the face acts on any state s written
    there: for each cell of the face, in column-major order, a triple (k,
    conjugators, right) whose entry is s[k] conjugated by s[c] for each c
    in conjugators in turn, times s[right] unless right is None.

    No face that stays in the PMQ is degenerate, so the face placement
    meets every row and column of its shape.  A basis grid has a non-unit
    in every row and column, and a merged entry with a non-unit factor has
    norm N(a) + N(b) > 0, so it is not the unit (conjugation keeps
    non-units; ``Completion`` validates the norm-kernel and norm-additive
    axioms).  The outer faces collapse a non-unit column or row into the
    border and vanish, so only the inner ones are listed.
    """
    where = [divmod(c, height) for c in cells]   # (column, row) of state position k
    plain = [(k, (), None) for k in range(len(cells))]   # the entry of a cell no face merges
    out = []
    # horizontal: merge grid columns i-1, i (full-array faces d_i, 1 <= i <= p-1),
    # whose cells are positions lo..mid-1 and mid..hi-1; row r of the merged
    # column is left[r]^(right entries above r) * right[r]
    shape = (width - 1, height)
    lo, mid = 0, bisect_left(cells, height)
    for i in range(1, width):
        hi = bisect_left(cells, (i + 1) * height, mid)
        base = (i - 1) * height
        placed, recipe = list(cells[:lo]), plain[:lo]
        above: tuple[int, ...] = ()
        for row, k in sorted((where[k][1], k) for k in range(lo, hi)):   # on one row, left first
            if k < mid:
                placed.append(base + row)
                recipe.append((k, above, None))
            else:
                if placed and placed[-1] == base + row:
                    recipe[-1] = recipe[-1][:2] + (k,)
                else:
                    placed.append(base + row)
                    recipe.append(plain[k])
                above += (k,)
        placed += [c - height for c in cells[hi:]]
        out.append(((-1) ** i, shape, tuple(placed), tuple(recipe + plain[hi:])))
        lo, mid = mid, hi
    # vertical: merge grid rows j-1, j (full-array faces d_j, 1 <= j <= q-1);
    # a cell in row j merges into the cell above it, the previous position
    shape = (width, height - 1)
    for j in range(1, height):
        placed, recipe = [], []
        for k, (col, row) in enumerate(where):
            if row == j and k and where[k - 1] == (col, j - 1):
                recipe[-1] = (k - 1, (), k)
            else:
                placed.append(col * (height - 1) + row - (row >= j))
                recipe.append(plain[k])
        out.append(((-1) ** (width + j), shape, tuple(placed), tuple(recipe)))
    return tuple(out)


def _face_table(q: FinitePmq, group: Sequence[Seq], index: Mapping[Seq, int], recipe) -> list[Optional[int]]:
    """The face of each state of ``group`` under ``recipe``, as its index in
    ``index`` (the states of the face's length), or None where a product
    leaves the PMQ (the face is zero in the relative complex)."""
    conj, prod = q.conj, q.prod

    def face(state: Seq) -> Optional[int]:
        entries = []
        for k, conjugators, right in recipe:
            x = state[k]
            for c in conjugators:
                x = conj[x][state[c]]
            if right is not None and (x := prod.get((x, state[right]))) is None:
                return None
            entries.append(x)
        t = index.get(tuple(entries))
        if t is None:
            raise AssertionError("face left the enumerated basis")
        return t

    return [face(state) for state in group]


def build_relative_complex(q: FinitePmq, b: HatElem, mod: int = 0) -> GradedComplex:
    """The chain complex of admissible non-degenerate arrays of grading b,
    with homology over Z for ``mod`` 0 and over F_p for a prime ``mod``.

    On bidegree (p, q) the face merging array columns i, i+1 has sign
    (-1)^i and the one merging rows j, j+1 has sign (-1)^(p+j); a face
    that is not again an admissible non-degenerate array is zero.  Each
    entry is one face's sign, +-1 for every ``mod``, so d∘d is gated over
    Z: on the face tables (``_assemble``), and on the stored matrices
    (``check_boundary_squared``) only where the tables do not decide it."""
    if mod and not is_prime(mod):
        raise PreconditionError(f"modulus {mod} is not a prime", failed="prime")
    _require_grading_over(q, b)
    sizes, differentials, cancels = _assemble(q, b.completion.class_states(b))
    out = GradedComplex(q, b, sizes, differentials, mod)
    if not cancels and not out.check_boundary_squared():
        raise AssertionError("differential does not square to zero")
    return out


@cache
def _plan(lengths: tuple[int, ...]) -> tuple[tuple, tuple, tuple, tuple]:
    """How to assemble the complex of any grading whose class has states of
    the given ``lengths``, in ascending order, whatever its PMQ and the
    order its class lists the lengths in: (degrees, recipes, groups,
    meets), all tuples.

    * ``degrees``: (n, runs) per degree n, ascending.  A run is (shape,
      length, first, blocks): the placements of ``length`` on bidegree
      ``shape``, in ``_placements`` order, numbered from ``first`` within
      the degree, runs ordered by (shape, length).  A block is (signs,
      recipe indices, face block indices), one entry per face in index
      order, face blocks numbered within degree n-1; faces of a length
      with no states are left out, as every product there is undefined.
    * ``recipes``: (recipe, length, face length) per recipe index.
    * ``groups``: the distinct d∘d gate groups, one per placement P and
      block T two faces below it: the face pairs (f, g) from P to T, as a
      sorted tuple of (sign product, recipe of f, recipe of g).
    * ``meets``: the distinct pairs of recipe indices of two faces of one
      placement on one face block, the only faces that can coincide."""
    degrees: dict[int, list[tuple]] = {}   # degree -> its (shape, length) runs, ascending
    for shape, length in sorted((shape, length) for length in lengths for shape in _shapes(length)):
        degrees.setdefault(sum(shape), []).append((shape, length))
    where: dict[tuple, int] = {}   # (shape, placement) -> block index, in the degree below
    recipes: dict[tuple, int] = {}   # recipe -> its index in ``listed``
    listed: list[tuple] = []
    groups: set[tuple] = set()
    meets: set[tuple[int, int]] = set()
    shared: dict[tuple, tuple] = {}   # one object per distinct tuple of signs or recipe ids, or pair

    def keep(parts: tuple) -> tuple:
        return shared.setdefault(parts, parts)

    below: list[tuple] = []   # the blocks of the degree below
    out = []
    for n in sorted(degrees):
        here, at, runs = [], {}, []   # the blocks of degree n, ``where`` for them, its runs
        for shape, length in degrees[n]:
            first = len(here)
            for placed in _placements(*shape, length):
                signs, recipe_ids, face_blocks = [], [], []
                for sign, face_shape, face_placed, recipe in _placement_faces(*shape, placed):
                    if len(face_placed) not in lengths:
                        continue
                    r = recipes.get(recipe)
                    if r is None:
                        r = recipes[recipe] = len(listed)
                        listed.append((recipe, length, len(face_placed)))
                    signs.append(sign)
                    recipe_ids.append(r)
                    face_blocks.append(where[face_shape, face_placed])
                if len(set(face_blocks)) < len(face_blocks):
                    meets.update(
                        (min(r, r_other), max(r, r_other))
                        for (r, f), (r_other, f_other) in combinations(zip(recipe_ids, face_blocks), 2) if f == f_other
                    )
                pairs = defaultdict(list)   # target block -> the face pairs reaching it
                for sign, r, f in zip(signs, recipe_ids, face_blocks):
                    for sign_g, r_g, target in zip(*below[f]):
                        pairs[target].append((sign * sign_g, r, r_g))
                for group in map(tuple, map(sorted, pairs.values())):
                    if group not in groups:
                        groups.add(tuple(map(keep, group)))
                at[shape, placed] = len(here)
                here.append((keep(tuple(signs)), keep(tuple(recipe_ids)), tuple(face_blocks)))
            runs.append((shape, length, first, tuple(here[first:])))
        out.append((n, tuple(runs)))
        below, where = here, at
    return tuple(out), tuple(listed), tuple(groups), tuple(meets)


def _basis_order(degrees: Sequence[tuple], states: Mapping[int, Sequence[Seq]]) -> list[tuple]:
    """A plan's ``degrees`` (``_plan``) with each degree's runs in basis
    order for the grading whose class has ``states``: by bidegree, then by
    length as ``states`` lists them.  The plan orders one bidegree's runs
    by length, while ``Completion.class_states`` lists the lengths in the
    order of its sorted states, so the two can differ."""
    rank = {length: k for k, length in enumerate(states)}
    return [(n, sorted(runs, key=lambda run: (run[0], rank[run[1]]))) for n, runs in degrees]


def _assemble(q: FinitePmq, states: Mapping[int, Sequence[Seq]]):
    """(sizes, differentials, cancels) of the grading whose class has
    ``states``: the number of cells per degree, the differentials, and
    True when the face tables prove d∘d = 0.

    A cell is a state s on a placement P, and its face is the state
    table[s] on the face placement of P.  The placements and their faces
    come from ``_plan``; a build tabulates one face table per plan recipe
    over the states of its length.  Blocks take the next positions of
    their degree in basis order (``_basis_order``), kept as one list per
    block: each position is one int object, which every row of d_(n+1)
    naming the cell shares, and the face of the cell at a block's list
    [s] is at the face block's list [table[s]].  Each entry is one face's sign, appended to the row
    and value lists of a ``snf.Matrix``, column by column in basis order,
    faces in index order, and each column is closed by appending its end
    to ``starts``; ``nrows`` is the size of degree n-1, so ``snf`` reads
    the matrix as written.  The plan's pairs of faces meeting on one face
    block are compared first, and a state they send to one cell raises.
    So the stored matrices are exactly the operator the plan's (sign,
    table, face block) triples define, and if its gate groups cancel
    (``_groups_cancel``), they need no d∘d check."""
    degrees, recipes, groups, meets = _plan(tuple(sorted(states)))
    index = {length: {state: k for k, state in enumerate(group)} for length, group in states.items()}
    tables = [_face_table(q, states[length], index[face_length], recipe) for recipe, length, face_length in recipes]
    if any(any(t is not None and t == u for t, u in zip(tables[r], tables[r_other])) for r, r_other in meets):
        raise AssertionError("two faces of one cell coincide")
    cancels = _groups_cancel(tables, groups)
    # degrees keyed by their first bidegree, the order in which the basis
    # meets them and in which ``dims()`` has always listed them
    sizes = dict.fromkeys(n for n, _ in sorted(degrees, key=lambda degree: degree[1][0][0]))
    differentials: dict[int, Matrix] = {}
    below: list = []   # the position list of each block of the degree below
    for n, runs in _basis_order(degrees, states):
        entries = Matrix(sizes.get(n - 1) or 0)   # degree n - 1, if there is one, is built
        written = entries.rows
        add_row, add_val, close = written.append, entries.vals.append, entries.starts.append
        here: list = [None] * sum(len(blocks) for *_, blocks in runs)
        start = 0
        for _, length, first, blocks in runs:
            size = len(states[length])
            for b, (signs, recipe_ids, face_blocks) in enumerate(blocks, first):
                here[b] = list(range(start, start := start + size))
                listed = [(sign, tables[r], below[f]) for sign, r, f in zip(signs, recipe_ids, face_blocks)]
                for s in range(size):
                    for sign, table, rows in listed:
                        t = table[s]
                        if t is not None:
                            add_row(rows[t])
                            add_val(sign)
                    close(len(written))
        sizes[n] = start
        below = here
        if entries:
            differentials[n] = entries
    return sizes, differentials, cancels


def _groups_cancel(tables: Sequence[Sequence[Optional[int]]], groups: Sequence[tuple]) -> bool:
    """Whether every gate group of a plan (``_plan``) cancels on the face
    ``tables`` of one build, one per plan recipe: within each group, the
    signs of the pairs with one composite table t_g∘t_f sum to zero (see
    the module docstring).  Equal groups get equal verdicts within a
    build, so the plan lists each once.

    ``memo`` holds each composite per pair of recipes as its int in
    ``interned``, one per distinct composite, or None when it sends every
    state out of the PMQ and so adds nothing."""
    memo: dict[tuple[int, int], Optional[int]] = {}
    interned: dict[tuple, int] = {}
    for group in groups:
        sums: dict[int, int] = {}
        for sign, r, r_g in group:
            key = r, r_g
            if key in memo:
                made = memo[key]
            else:
                table, table_g = tables[r], tables[r_g]
                composed = tuple(None if t is None else table_g[t] for t in table)
                made = memo[key] = (
                    None if composed.count(None) == len(composed)
                    else interned.setdefault(composed, len(interned))
                )
            if made is not None:
                sums[made] = sums.get(made, 0) + sign
        if any(sums.values()):
            return False
    return True


def homology(complex_: GradedComplex) -> dict[int, dict]:
    """Betti numbers and torsion per degree (dimensions only over a field)."""
    return homology_groups(complex_.differentials, complex_.dims(), complex_.mod)


# ---------------------------------------------------------------------------
# diagnostics

def poincare_report(q: FinitePmq, budget: int) -> dict:
    """Necessary conditions for every grading component to be a manifold.

    Reads off ``property_report`` whether the PMQ is maximally decomposable
    with its norm equal to the intrinsic pseudonorm and coconnected, and
    checks that for every grading of norm at most the budget the top
    homology sits in degree twice the norm and is free of rank one.  Passing is necessary, never sufficient;
    the report says which condition broke and where.  A budget below 1
    raises ``PreconditionError``: it would check no grading.
    """
    if budget < 1:
        raise PreconditionError(f"budget {budget} is below 1", failed="budget")
    norm = q.require_norm()
    report = property_report(q)
    maxdec, cocon = report.maximally_decomposable, report.coconnected
    intrinsic_matches = report.intrinsic_norm == dict(zip(q.labels, norm))
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
    ``chain_map_commutes`` checks a given grading.  A mapping that is not
    a PMQ map (``core.map_violation``) raises ``StructureError`` first.
    """
    if why := map_violation(qa, qb, mapping):
        raise StructureError(f"mapping {why}")
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
    the entrywise image; a non-map raises as in ``induced_array_map``."""
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
    """Whether the entrywise map f gives a chain map of relative complexes at
    the given grading: every cell's image is a cell of the target complex,
    and f∘d_a = d_b∘f in every degree.

    True exactly when the zero-rules agree on both sides there; gradings
    whose arrays have faces that fall out of the source PMQ but not out of
    the target one make it fail, which mirrors the fact that the induced map
    of pairs does not exist in general; a non-map raises first.

    f sends the cell (P, s) to (P, f∘s), and f∘s is in the class of f(b).
    If f∘s holds no unit, it is a state of f(b)'s class of the same
    length, and (P, f∘s) is a target cell: in basis order it sits at the
    start of the run (bidegree of P, length) plus i times the number of
    target states of that length plus the index of f∘s among them, where
    P is the run's i-th placement (runs of one bidegree and length list
    the same placements on both sides).  If f sends an entry of s to the
    unit, the answer is False, though other cells of s may still have
    cell images: on the one-row placement, of bidegree (length, 1), each
    entry of s is alone in its column, so that cell's image has a unit
    column, is degenerate, and is no cell."""
    hat_map, _ = induced_array_map(qa, qb, mapping)
    image = hat_map(b)
    ca, cb = build_relative_complex(qa, b), build_relative_complex(qb, image)
    states_a, states_b = b.completion.class_states(b), image.completion.class_states(image)
    moved = {}   # length -> the index of f∘s among the target states of that length, per state s
    for length, group in states_a.items():
        index_b = {state: k for k, state in enumerate(states_b.get(length, ()))}
        moved[length] = [index_b.get(tuple(mapping[x] for x in state)) for state in group]
        if None in moved[length]:
            return False

    def runs(states):
        """(degree, bidegree, length) -> (position of the first cell, number
        of placements) of each run, in basis order."""
        out = {}
        for n, in_order in _basis_order(_plan(tuple(sorted(states)))[0], states):
            start = 0
            for shape, length, _, blocks in in_order:
                out[n, shape, length] = start, len(blocks)
                start += len(blocks) * len(states[length])
        return out

    runs_b = runs(states_b)
    f: dict[int, list[int]] = {}   # the position of each cell's image in the target basis
    for (n, shape, length), (_, placed) in runs(states_a).items():
        start, size = runs_b[n, shape, length][0], len(states_b[length])
        f.setdefault(n, []).extend(start + i * size + t for i in range(placed) for t in moved[length])
    for n, images in f.items():
        sources: dict[int, list[int]] = {}
        for c, t in enumerate(images):
            sources.setdefault(t, []).append(c)
        # (target row, source cell) -> entry, of d_b∘f and of f∘d_a
        d_f = {(r, c): v for (r, t), v in cb.differentials.get(n, {}).items() for c in sources.get(t, ())}
        f_d: dict[tuple[int, int], int] = {}
        for (r, c), v in ca.differentials.get(n, {}).items():
            key = f[n - 1][r], c
            f_d[key] = f_d.get(key, 0) + v
        if d_f != {key: v for key, v in f_d.items() if v}:
            return False
    return True
