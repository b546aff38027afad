"""Independent re-evaluation of single axioms at reported witnesses.

Used by the mutation tests: when the validator rejects a structure naming
an axiom and a witness, the named axiom is re-evaluated here directly from
the tables, so a wrong axiom name cannot slip through.

Also the generate-and-filter enumeration of array grids, the reference the
constructed basis of ``pmq.barhur`` is compared with, the differentials
assembled from the faces of ``BisimplexArray``, the reference for its fast
face assembly, and homology from every full differential eliminated on its
own, the reference for the reduction in ``pmq.snf.homology_groups``.

And the same PMQ declared in another element order, for the tests that a
result does not depend on that order, and the orbits of a step function by
breadth-first search, the reference for the union-find closures.
"""

from __future__ import annotations

import random
from collections import deque

from pmq.barhur import BisimplexArray
from pmq.core import FinitePmq
from pmq.serialize import pmq_from_json, pmq_to_json
from pmq.snf import rank_mod_p, smith_normal_form


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


def differentials_by_array_faces(comp, basis, mod: int = 0) -> dict:
    """Reference for ``build_relative_complex(...).differentials`` on the
    given basis, from the full-array faces ``h_face(i)``, 0 <= i <= p, and
    ``v_face(j)``, 0 <= j <= q, outer faces included.  A face that is not
    admissible or is degenerate is zero; the others have signs (-1)^i and
    (-1)^(p+j), and entries are reduced mod ``mod`` with zeros dropped."""
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
        entries = {k: v % mod if mod else v for k, v in entries.items()}
        entries = {k: v for k, v in entries.items() if v}
        if entries:
            out[n] = entries
    return out


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
    ranks = {}
    torsion_in = {}
    for n in dims:
        d = differentials.get(n, {})
        if mod:
            ranks[n] = rank_mod_p(d, mod)
            torsion_in[n] = []
        else:
            divisors = smith_normal_form(d)
            ranks[n] = len(divisors)
            torsion_in[n] = [v for v in divisors if v != 1]
    out = {}
    for n in sorted(dims):
        entry = {"rank": dims[n] - ranks[n] - ranks.get(n + 1, 0)}
        if not mod:
            entry["torsion"] = torsion_in.get(n + 1, [])
        out[n] = entry
    return out
