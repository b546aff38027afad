"""Independent re-evaluation of single axioms at reported witnesses.

Used by the mutation tests: when the validator rejects a structure naming
an axiom and a witness, the named axiom is re-evaluated here directly from
the tables, so a wrong axiom name cannot slip through.

Also the generate-and-filter enumerations of array grids and of cell
placements, the references the constructed basis of ``pmq.barhur`` and its
placements are compared with, the complex re-sorted by grid (the order the
frozen digests of the face-table gate were taken in), the differentials
assembled from the faces of ``BisimplexArray``, the reference for its fast
face assembly, and the chain-map check on those differentials, the
reference for ``chain_map_commutes``; and homology from every full
differential eliminated on its own, the reference for the reduction in
``pmq.snf.homology_groups``.  The dense textbook Smith and mod-p rank
reductions, which share no code with ``pmq.snf``, and homology from them;
and the Fuks count of ``H^*(B_n; F_2)``, an oracle for the gradings
``t^n`` that reads no complex.

The conditions of a PMQ-group pair written out one by one, the reference
for ``PmqGroupPair.check``, which decides them by validating the join.

The braid normaliser's walk restarted at the root after every rewrite,
the reference for ``pmq.free``'s resumed walk.  The bidirectional
breadth-first search for a move path between transposition sequences, the
reference for ``pmq.symgeo.clebsch_connect``, and a snippet run in a fresh
``python -O``, for the checks that must not be assertions.

And the same PMQ declared in another element order, for the tests that a
result does not depend on that order, and the orbits of a step function by
breadth-first search, the reference for the union-find closures.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import deque
from itertools import combinations

from pmq.barhur import BisimplexArray, build_relative_complex
from pmq.completion import Completion
from pmq.core import FinitePmq
from pmq.free import (
    Conj, Leaf, Prod, _conj_shape, _pair_shape, _replace_node, _replace_pair,
    decomposition_to_gd, prod_of,
)
from pmq.serialize import pmq_from_json, pmq_to_json
from pmq.snf import rank_mod_p, smith_normal_form
from pmq.symgeo import apply_moves


def relabelled(q: FinitePmq, order) -> FinitePmq:
    """The same PMQ with its elements declared in the given label order."""
    doc = pmq_to_json(q)
    doc["elements"] = list(order)
    return pmq_from_json(doc)[0]


def shuffled_orders(q: FinitePmq):
    """q in catalog order, then in two fixed shuffled orders."""
    yield q
    for seed in (1, 2):
        order = list(q.labels)
        random.Random(seed).shuffle(order)
        yield relabelled(q, order)


def orbits(items, step):
    """Each orbit of ``step`` (``step(x)`` lists the neighbours of x) that
    meets ``items``, once, as a set, in the order of the first item it
    contains: a breadth-first search from each item not yet seen."""
    seen = set()
    for x in items:
        if x in seen:
            continue
        found, todo = {x}, deque([x])
        while todo:
            for y in step(todo.popleft()):
                if y not in found:
                    found.add(y)
                    todo.append(y)
        seen |= found
        yield found


def axiom_holds_at(q: FinitePmq, axiom: str, witness: tuple[str, ...]) -> bool:
    ix = [q.index(lbl) for lbl in witness]
    conj = q.conj
    prod = q.prod
    unit = q.unit
    n = len(q)

    if axiom == "conj-bijective":
        (b,) = ix
        return sorted(conj[a][b] for a in range(n)) == list(range(n))
    if axiom == "conj-unit":
        (a,) = ix
        return conj[unit][a] == unit and conj[a][unit] == a
    if axiom == "conj-idempotence":
        (a,) = ix
        return conj[a][a] == a
    if axiom == "conj-distributivity":
        a, b, c = ix
        return conj[conj[a][b]][c] == conj[conj[a][c]][conj[b][c]]
    if axiom == "unit-product":
        (a,) = ix
        return prod.get((unit, a)) == a and prod.get((a, unit)) == a
    if axiom == "associativity":
        a, b, c = ix
        ab = prod.get((a, b))
        bc = prod.get((b, c))
        left = prod.get((ab, c)) if ab is not None else None
        right = prod.get((a, bc)) if bc is not None else None
        if (left is None) != (right is None):
            return False
        return left == right
    if axiom == "product-conj-swap":
        a, b = ix
        return prod.get((a, b)) == prod.get((b, conj[a][b]))
    if axiom == "conj-of-product":
        a, b, c = ix
        bc = prod.get((b, c))
        if bc is None:
            return True
        return conj[a][bc] == conj[conj[a][b]][c]
    if axiom == "product-equivariance":
        a, b, c = ix
        ab = prod.get((a, b))
        img = prod.get((conj[a][c], conj[b][c]))
        if (ab is None) != (img is None):
            return False
        if ab is None:
            return True
        return conj[ab][c] == img
    if axiom == "norm-kernel":
        (a,) = ix
        return (q.norm[a] == 0) == (a == unit)
    if axiom == "norm-additive":
        a, b = ix
        ab = prod.get((a, b))
        return ab is None or q.norm[ab] == q.norm[a] + q.norm[b]
    if axiom == "norm-conj-invariant":
        a, b = ix
        return q.norm[conj[a][b]] == q.norm[a]
    raise ValueError(f"unknown axiom {axiom!r}")


def mutate_once(q: FinitePmq, rng) -> FinitePmq:
    """A single random table edit: change a conjugation entry, rewrite a
    product value, delete a defined product or add an undefined one."""
    n = len(q)
    conj = [list(row) for row in q.conj]
    prod = dict(q.prod)
    kind = rng.randrange(4)
    if kind == 0:
        a, b = rng.randrange(n), rng.randrange(n)
        choices = [c for c in range(n) if c != conj[a][b]]
        conj[a][b] = rng.choice(choices)
    elif kind == 1 and prod:
        key = rng.choice(sorted(prod))
        choices = [c for c in range(n) if c != prod[key]]
        prod[key] = rng.choice(choices)
    elif kind == 2 and prod:
        key = rng.choice(sorted(prod))
        del prod[key]
    else:
        undefined = [
            (a, b) for a in range(n) for b in range(n) if (a, b) not in prod
        ]
        if undefined:
            key = rng.choice(undefined)
            prod[key] = rng.randrange(n)
        else:
            a, b = rng.randrange(n), rng.randrange(n)
            choices = [c for c in range(n) if c != conj[a][b]]
            conj[a][b] = rng.choice(choices)
    return FinitePmq.build(q.labels, q.unit, conj, prod, q.norm)


def columns_by_norm(q: FinitePmq, height: int, max_norm: int) -> dict[int, list[tuple[int, ...]]]:
    """All columns of the given height over the PMQ with total norm 1..max_norm."""
    norm = q.require_norm()
    pools: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(1, max_norm + 1)}

    def extend(prefix: tuple[int, ...], used: int) -> None:
        if len(prefix) == height:
            if used:
                pools[used].append(prefix)
            return
        for a in range(len(q)):
            v = norm[a]
            if used + v <= max_norm:
                extend(prefix + (a,), used + v)

    extend((), 0)
    return pools


def grids_by_filter(q: FinitePmq, comp, b) -> dict:
    """Reference for the grids of ``pmq.barhur._cells_of_grading`` by
    generate and filter: place columns of norm >= 1 side by side until the
    norm of b is used, keep the grids that hit every row, and keep those
    whose column-major reading has class b."""
    n = b.norm
    unit = q.unit
    out: dict = {}
    if b.is_unit:
        out[(0, 0)] = [()]
        return out
    for height in range(1, n + 1):
        pools = columns_by_norm(q, height, n)
        for width in range(1, n + 1):
            grids: list = []

            def place(cols, left: int, rows_hit: int) -> None:
                remaining = width - len(cols)
                if remaining == 0:
                    if rows_hit == (1 << height) - 1:
                        grids.append(cols)
                    return
                # each later column needs norm >= 1; rows must be coverable
                for v in range(1, left - (remaining - 1) + 1):
                    for col in pools.get(v, ()):
                        hit = rows_hit
                        for j, x in enumerate(col):
                            if x != unit:
                                hit |= 1 << j
                        place(cols + (col,), left - v, hit)

            place((), n, 0)
            good = [
                g for g in grids
                if comp.of_sequence([x for col in g for x in col]) == b
            ]
            if good:
                out[(width, height)] = sorted(good)
    return out


def placements_by_filter(width: int, height: int, length: int) -> tuple:
    """Reference for ``pmq.barhur._placements``: every set of ``length``
    column-major cells of a width x height grid, kept when it meets every
    row and column."""
    return tuple(
        cells for cells in combinations(range(width * height), length)
        if len({c // height for c in cells}) == width
        and len({c % height for c in cells}) == height
    )


def grid_ordered(basis, differentials) -> tuple[dict, dict]:
    """(basis, differentials) with each degree's basis sorted by
    (p, q, grid): rows and columns re-indexed, and each differential's
    entries inserted column by column in the new order, each column's
    entries in their own order."""
    order = {n: sorted(range(len(cells)), key=cells.__getitem__) for n, cells in basis.items()}
    moved = {n: {old: new for new, old in enumerate(o)} for n, o in order.items()}
    out = {}
    for n, entries in differentials.items():
        columns: dict = {}
        for (r, c), v in entries.items():
            columns.setdefault(c, []).append((r, v))
        rows = moved[n - 1]
        out[n] = {
            (rows[r], new): v
            for new, old in enumerate(order[n]) for r, v in columns.get(old, ())
        }
    return {n: [cells[i] for i in order[n]] for n, cells in basis.items()}, out


def differentials_by_array_faces(comp, basis) -> dict:
    """Reference for ``build_relative_complex(...).differentials`` on the
    given basis, from the full-array faces ``h_face(i)``, 0 <= i <= p, and
    ``v_face(j)``, 0 <= j <= q, outer faces included.  A face that is not
    admissible or is degenerate is zero; the others have signs (-1)^i and
    (-1)^(p+j), and entries are summed over Z with zeros dropped."""
    arrays = {
        n: [BisimplexArray.from_inner(comp, grid) for _, _, grid in cells]
        for n, cells in basis.items()
    }
    index = {arr: pos for arrs in arrays.values() for pos, arr in enumerate(arrs)}
    out: dict = {}
    for n, arrs in arrays.items():
        entries: dict = {}
        for col, arr in enumerate(arrs):
            faces = []
            if arr.p >= 1:
                faces += [((-1) ** i, arr.h_face(i)) for i in range(arr.p + 1)]
            if arr.q >= 1:
                faces += [((-1) ** (arr.p + j), arr.v_face(j)) for j in range(arr.q + 1)]
            for sign, face in faces:
                if face.is_admissible() and not face.is_degenerate():
                    key = (index[face], col)
                    entries[key] = entries.get(key, 0) + sign
        entries = {k: v for k, v in entries.items() if v}
        if entries:
            out[n] = entries
    return out


def chain_map_by_array_faces(qa: FinitePmq, qb: FinitePmq, mapping, b) -> bool:
    """Reference for ``pmq.barhur.chain_map_commutes``: the differentials of
    both complexes from ``differentials_by_array_faces`` on their bases, and
    one source cell at a time, the column of its entrywise image in d_b
    against the entrywise images of its faces in d_a, summed.  False when a
    cell's image is not a target cell."""
    comp_a, comp_b = Completion(qa), Completion(qb)
    basis_a = build_relative_complex(qa, b).basis
    basis_b = build_relative_complex(qb, comp_b.of_sequence([mapping[x] for x in b.word])).basis
    where = {grid: pos for cells in basis_b.values() for pos, (_, _, grid) in enumerate(cells)}
    image = {}
    for cells in basis_a.values():
        for _, _, grid in cells:
            img = tuple(tuple(mapping[x] for x in col) for col in grid)
            if img not in where:
                return False
            image[grid] = where[img]

    def columns(entries) -> dict:
        out: dict = {}
        for (r, c), v in entries.items():
            out.setdefault(c, {})[r] = v
        return out

    d_a = differentials_by_array_faces(comp_a, basis_a)
    d_b = differentials_by_array_faces(comp_b, basis_b)
    for n, cells in basis_a.items():
        cols_a, cols_b = columns(d_a.get(n, {})), columns(d_b.get(n, {}))
        for c, (_, _, grid) in enumerate(cells):
            mapped: dict = {}
            for r, v in cols_a.get(c, {}).items():
                row = image[basis_a[n - 1][r][2]]
                mapped[row] = mapped.get(row, 0) + v
            if {r: v for r, v in mapped.items() if v} != cols_b.get(image[grid], {}):
                return False
    return True


def uct_ranks(h: dict, p: int) -> dict:
    """Dimensions of homology over F_p predicted from the integer table h by
    universal coefficients: dim H_n(F_p) = rank H_n + #{p | tors H_n}
    + #{p | tors H_(n-1)}."""
    def divisible(n):
        return sum(1 for t in h.get(n, {"torsion": []})["torsion"] if t % p == 0)

    return {n: h[n]["rank"] + divisible(n) + divisible(n - 1) for n in h}


def homology_by_full_differentials(differentials, dims, mod: int = 0) -> dict:
    """Reference for ``pmq.snf.homology_groups``: each differential is
    eliminated whole and on its own, with no rows dropped, so every cell is
    eliminated once as a column of d_n and once as a row of d_(n+1)."""
    return _homology_of_each_differential(
        differentials, dims, mod,
        lambda d, shape: smith_normal_form(d),
        lambda d, shape, p: rank_mod_p(d, p),
    )


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


def homology_by_dense_oracles(differentials, dims, mod: int = 0) -> dict:
    """Reference for ``pmq.snf.homology_groups`` that does not use it: each
    differential is written out as a dense matrix and reduced by the
    textbook Smith reduction over Z, or by Gaussian elimination over F_p."""
    return _homology_of_each_differential(
        differentials, dims, mod,
        lambda d, shape: dense_smith_oracle(d, *shape),
        lambda d, shape, p: dense_rank_mod_p_oracle(d, *shape, p),
    )


def _homology_of_each_differential(differentials, dims, mod, smith, rank) -> dict:
    """The homology table from each differential d_n reduced on its own:
    ``smith(d, shape)`` gives its elementary divisors over Z and
    ``rank(d, shape, p)`` its rank over F_p, where ``shape`` is
    (dims[n - 1], dims[n])."""
    ranks = {}
    torsion_in = {}
    for n in dims:
        d = differentials.get(n, {})
        shape = (dims.get(n - 1, 0), dims[n])
        if mod:
            ranks[n] = rank(d, shape, mod)
            torsion_in[n] = []
        else:
            divisors = smith(d, shape)
            ranks[n] = len(divisors)
            torsion_in[n] = [v for v in divisors if v != 1]
    out = {}
    for n in sorted(dims):
        entry = {"rank": dims[n] - ranks[n] - ranks.get(n + 1, 0)}
        if not mod:
            entry["torsion"] = torsion_in.get(n + 1, [])
        out[n] = entry
    return out


def fuks_count(n: int, q: int) -> int:
    """dim H^q(B_n; F_2) for the braid group on n >= 1 strands (Fuks 1970):
    the number of partitions of n into powers of 2 with n - (number of
    parts) = q."""
    def count(m: int, parts: int, largest: int) -> int:
        # partitions of m into ``parts`` powers of 2, each at most ``largest``
        if m == 0 or largest == 0:
            return int(m == 0 and parts == 0)
        total = count(m, parts, largest // 2)
        if largest <= m and parts:
            total += count(m - largest, parts - 1, largest)
        return total

    return count(n, n - q, 1 << n.bit_length()) if 0 <= q < n else 0


def pair_violation(pair) -> str | None:
    """The first failed condition of a PMQ-group pair whose e_map and
    r_action have the right shape, checked directly from the tables, or
    None.  Q's own axioms are not checked here."""
    q, g, e, r = pair.pmq, pair.group, pair.e_map, pair.r_action
    nq, ng = len(q), len(g)
    if e[q.unit] != g.unit:
        return "e does not preserve the unit"
    for a in range(nq):
        for b in range(nq):
            if e[q.conj[a][b]] != g.conj(e[a], e[b]):
                return "e does not preserve conjugation"
    for (a, b), ab in q.prod.items():
        if e[ab] != g.mult[e[a]][e[b]]:
            return "e does not preserve defined products"
    for row in r:
        if sorted(row) != list(range(nq)):
            return "r(g) is not a bijection of the PMQ"
        if row[q.unit] != q.unit:
            return "r(g) does not fix the unit"
        for a in range(nq):
            for b in range(nq):
                if row[q.conj[a][b]] != q.conj[row[a]][row[b]]:
                    return "r(g) is not a quandle automorphism"
        for (a, b), ab in q.prod.items():
            if q.prod.get((row[a], row[b])) != row[ab]:
                return "r(g) is not a partial-monoid automorphism"
    for x in range(ng):
        for y in range(ng):
            xy = g.mult[x][y]
            for a in range(nq):
                if r[xy][a] != r[y][r[x][a]]:
                    return "r is not a right action"
    for b in range(nq):
        for a in range(nq):
            if r[e[b]][a] != q.conj[a][b]:
                return "r(e(b)) differs from conjugation by b"
    for x in range(ng):
        for a in range(nq):
            if e[r[x][a]] != g.conj(e[a], x):
                return "e is not equivariant"
    return None


def moves_by_restarted_walk(factors) -> list[int]:
    """The move log of ``pmq.free.normalize_decomposition``, each rewrite
    found by a post-order walk from the root (children left to right
    before their parent, leaves counted as they are passed) and the tree
    rebuilt upwards from the replaced node before the next walk."""
    tree, log = decomposition_to_gd(factors), []
    while True:
        path, node, leaves, step = [], tree, 0, None
        while step is None:
            while not isinstance(node, Leaf):
                path.append((node, [leaves]))
                node = node.children[0] if isinstance(node, Prod) else node.child
            leaves += 1
            while True:
                if not path:
                    return log
                node, offsets = path[-1]
                if isinstance(node, Prod) and len(offsets) < len(node.children):
                    offsets.append(leaves)
                    node = node.children[len(offsets) - 1]
                    break
                path.pop()
                if isinstance(node, Conj):
                    shape = _conj_shape(node)
                    if shape is not None:
                        step = _replace_node(node, shape, offsets[0])
                        break
                    continue
                kids = node.children
                for i in range(len(kids) - 1):
                    shape = _pair_shape(kids[i], kids[i + 1])
                    if shape is not None:
                        repl, moves = _replace_pair(kids[i], kids[i + 1], shape, offsets[i])
                        step = prod_of(*kids[:i], repl, *kids[i + 2 :]), moves
                        break
                if step is not None:
                    break
        repl, moves = step
        log.extend(moves)
        for node, offsets in reversed(path):
            if isinstance(node, Prod):
                i = len(offsets) - 1
                repl = prod_of(*node.children[:i], repl, *node.children[i + 1 :])
            else:
                repl = Conj(repl, node.gen, node.sign)
        tree = repl


def moves_by_search(s1, s2) -> list[int] | None:
    """A shortest move log carrying the transposition sequence ``s1`` to
    ``s2`` by bidirectional breadth-first search on the move graph, or None
    when ``s2`` is not in the orbit of ``s1``, once both sides have run
    through their orbits."""
    s1, s2 = tuple(s1), tuple(s2)
    if s1 == s2:
        return []
    fwd, bwd = {s1: []}, {s2: []}
    qf, qb = deque([s1]), deque([s2])
    while qf or qb:
        for frontier, table, other, forward in ((qf, fwd, bwd, True), (qb, bwd, fwd, False)):
            for _ in range(len(frontier)):
                cur = frontier.popleft()
                for i in range(1, len(cur)):
                    for m in (i, -i):
                        nxt = apply_moves(cur, [m])
                        if nxt in table:
                            continue
                        path = table[nxt] = table[cur] + [m]
                        if nxt in other:
                            there, back = (path, other[nxt]) if forward else (other[nxt], path)
                            return there + [-x for x in reversed(back)]
                        frontier.append(nxt)
    return None


def run_optimised(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh ``python -O``, which strips ``assert``
    statements, with the library on the path.  The run opens with ``assert
    False``, so it fails at once where assertions are not stripped."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, "-O", "-c", "assert False\n" + code], env=env, capture_output=True, text=True, timeout=120
    )
