"""Finite partially multiplicative quandles: tables, axioms, constructions.

A partially multiplicative quandle (PMQ) is a set with a marked unit, a total
conjugation operation (a, b) -> a^b and a partially defined product
(a, b) -> ab.  The conjugation makes the set a quandle with unit, the product
makes it a partial monoid, and the two structures satisfy the compatibility
identities

    ab defined  <=>  b(a^b) defined, and then ab = b(a^b),
    a^(bc) = (a^b)^c            whenever bc is defined,
    ab defined  <=>  (a^c)(b^c) defined, and then (ab)^c = (a^c)(b^c).

This module stores finite PMQs as explicit tables over string labels, checks
every axiom with minimal witnesses, and implements the basic constructions: a
group as a PMQ, the semidirect PMQ of a right group action, the join of a
PMQ-group pair, and the geodesic PMQ of a normed group.

Validation decides every axiom exactly: for each one it finds the first
violation of its full scan, or that there is none.  The four cubic axioms
(conj-distributivity, associativity, conj-of-product and
product-equivariance) are first scanned over a generating base B.  B holds
every element that is not a product of two non-units; while closing B under
defined products of non-units leaves an element unreached (possible without
a norm: in a group every element is such a product), the lowest unreached one
joins B.  Each axiom is a property
good(c) of the third element c of its triples, and good is closed under
defined products c = yz, as in Light's associativity test:

* associativity, good(c): (ab)c ~ a(bc) for all a, b (Kleene equality), needs
  nothing: (ab)(yz) ~ ((ab)y)z ~ (a(by))z ~ a((by)z) ~ a(b(yz));
* conj-of-product, good(c): a^(bc) = (a^b)^c whenever bc is defined, needs
  associativity: phi_(b(yz)) = phi_((by)z) = phi_z phi_y phi_b = phi_(yz) phi_b,
  with phi_x = (-)^x;
* conj-distributivity, good(c): phi_c is an endomorphism of (Q, ^), and
  product-equivariance, good(c): phi_c and its inverse preserve defined
  products, each need conj-of-product: phi_(yz) = phi_z phi_y, and such maps
  compose.

So an axiom whose assumption holds and whose scan over B is clean holds
everywhere.  Otherwise (its assumption fails, or B shows a violation) its
full scan runs up to the first violation, which is the report's witness; a
full scan that finds nothing settles the axiom as an assumption all the
same.  Reports, witnesses and ``stop_first`` are those of the full scans on
every input.  ``validate`` takes 0.03-0.04 s on the 120 elements of
``sym_geodesic_pmq(5)`` and 1.2-1.6 s on the 720 of ``sym_geodesic_pmq(6)``,
whose base is its 16 elements of norm <= 1.  With the middle non-unit
product of that S_6 deleted, it reports associativity, product-conj-swap and
product-equivariance in 4.2-4.8 s; 26-29 s when a failed base decision left
the assumption unknown and sent every cubic axiom after it to a full scan
(4 alternating pairs, 2-CPU VM).

Conventions
-----------
* Elements are opaque string labels with a fixed total order (declaration
  order); all canonical choices -- witnesses, lexicographic minima -- use it.
* Group-like composition takes the right factor first: (s*t)(x) = s(t(x)).
* ``a^(b^-1)`` denotes the inverse of the bijection ``(-)^b`` applied to
  ``a``; the table for it is derived, never declared.

All structures are immutable after construction; every operation may be used
concurrently on shared values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import AxiomError, NormRequiredError, PreconditionError, StructureError

__all__ = [
    "orbit",
    "components",
    "braid_act",
    "apply_moves",
    "FiniteGroup",
    "FinitePmq",
    "ValidationReport",
    "Violation",
    "PmqGroupPair",
    "validate",
    "require_valid",
    "map_violation",
    "conjugacy_classes",
    "semidirect_pmq",
    "join_pmq_group",
    "geodesic_pmq",
    "group_norm_report",
]


# ---------------------------------------------------------------------------
# finite closures

def orbit(starts: Iterable, step: Callable) -> set:
    """Everything reachable from ``starts`` by repeated ``step``, where
    ``step(x)`` gives the neighbours of x; the starts are included."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for y in step(todo.pop()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The connected components of the graph on the nodes 0..n-1 with the
    given undirected ``edges`` (pairs of nodes), by union-find over a list
    of parents with path halving.  Each component lists its nodes in
    ascending order, and the components come in the order of their least
    node."""
    parent = list(range(n))
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v
    out: dict[int, list[int]] = {}
    for v in range(n):
        root = v
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        out.setdefault(root, []).append(v)
    return list(out.values())


# ---------------------------------------------------------------------------
# the standard move

def braid_act(
    seq: Sequence, i: int, sign: int, conj: Callable, conj_inv: Callable
) -> tuple:
    """Standard move at 1-based position i over any quandle-bearing carrier:
    positive (.., a, b, ..) -> (.., b, a^b, ..), negative its inverse
    (.., a, b, ..) -> (.., b^(a^-1), a, ..).  ``conj(a, b)`` is a^b and
    ``conj_inv(a, b)`` is a^(b^-1)."""
    if not (1 <= i <= len(seq) - 1):
        raise IndexError(f"move position {i} out of range")
    a, b = seq[i - 1], seq[i]
    pair = (b, conj(a, b)) if sign > 0 else (conj_inv(b, a), a)
    return tuple(seq[: i - 1]) + pair + tuple(seq[i + 1 :])


def apply_moves(
    seq: Sequence, moves: Iterable[int], conj: Callable, conj_inv: Callable
) -> tuple:
    """Apply a signed move log: +i is the positive move at position i, -i
    the negative one."""
    cur = tuple(seq)
    for m in moves:
        cur = braid_act(cur, abs(m), m, conj, conj_inv)
    return cur


# ---------------------------------------------------------------------------
# groups

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``mult[a][b]`` is the product with the right factor applied first when
    elements act as functions.  ``inv`` and ``unit`` are derived and checked.
    """

    labels: tuple[str, ...]
    mult: tuple[tuple[int, ...], ...]
    unit: int = field(default=-1)
    inv: tuple[int, ...] = field(default=())

    @staticmethod
    def from_table(labels: Sequence[str], mult: Sequence[Sequence[int]]) -> "FiniteGroup":
        n = len(labels)
        if len(set(labels)) != n:
            raise StructureError("duplicate group labels")
        rows = tuple(tuple(row) for row in mult)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructureError("multiplication table is not square")
        if any(x < 0 or x >= n for r in rows for x in r):
            raise StructureError("multiplication table entry out of range")
        unit = None
        for e in range(n):
            if all(rows[e][a] == a and rows[a][e] == a for a in range(n)):
                unit = e
                break
        if unit is None:
            raise AxiomError("no two-sided unit in multiplication table")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if rows[a][b] == unit and rows[b][a] == unit:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise AxiomError(f"element {labels[a]!r} has no inverse")
        # Light's test: the g with (x g) y = x (g y) for all x, y are closed
        # under the product, so checking a generating set suffices.  The
        # greedy set below generates every element as a left-nested product.
        gens: list[int] = []
        seen = {unit}
        for a in range(n):
            if a not in seen:
                gens.append(a)
                seen = orbit(seen, lambda x: [rows[x][g] for g in gens])
        for g in gens:
            row_g = rows[g]
            for x in range(n):
                row_x, row_xg = rows[x], rows[rows[x][g]]
                for y in range(n):
                    if row_xg[y] != row_x[row_g[y]]:
                        raise AxiomError(
                            f"associativity fails at ({labels[x]}, {labels[g]}, {labels[y]})"
                        )
        return FiniteGroup(tuple(labels), rows, unit, tuple(inv))

    def __len__(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, a: int, b: int) -> int:
        """b^-1 a b."""
        m = self.mult
        return m[m[self.inv[b]][a]][b]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"unknown group element {label!r}") from None


# ---------------------------------------------------------------------------
# finite PMQs

@dataclass(frozen=True)
class FinitePmq:
    """Tabulated finite PMQ.

    * ``conj[a][b]`` = a^b, total.
    * ``conj_inv[a][b]`` = a^(b^-1), derived by inverting each column of
      ``conj``; ``None`` entries mark columns that fail to be bijections
      (the structure is then invalid and ``validate`` will say so).
    * ``prod`` maps (a, b) to ab for exactly the defined products.
    * ``norm`` is optional; operations that need it fail fast without it.
    """

    labels: tuple[str, ...]
    unit: int
    conj: tuple[tuple[int, ...], ...]
    prod: Mapping[tuple[int, int], int]
    norm: Optional[tuple[int, ...]] = None
    conj_inv: tuple[Optional[tuple[int, ...]], ...] = field(default=(), compare=False)

    @staticmethod
    def build(
        labels: Sequence[str],
        unit: int,
        conj: Sequence[Sequence[int]],
        prod: Mapping[tuple[int, int], int],
        norm: Optional[Sequence[int]] = None,
    ) -> "FinitePmq":
        n = len(labels)
        if len(set(labels)) != n:
            raise StructureError("duplicate element labels")
        if not (0 <= unit < n):
            raise StructureError("unit outside the element set")
        rows = tuple(tuple(r) for r in conj)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructureError("conjugation table is not square")
        if any(x < 0 or x >= n for r in rows for x in r):
            raise StructureError("conjugation entry outside the element set")
        for (a, b), c in prod.items():
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                raise StructureError("product entry outside the element set")
        if norm is not None:
            norm = tuple(norm)
            if len(norm) != n or any(v < 0 for v in norm):
                raise StructureError("norm must assign a nonnegative integer to each element")
        # Invert each column of conj where possible.
        conj_inv: list[Optional[tuple[int, ...]]] = []
        for b in range(n):
            col = [rows[a][b] for a in range(n)]
            if sorted(col) == list(range(n)):
                invcol = [0] * n
                for a, img in enumerate(col):
                    invcol[img] = a
                conj_inv.append(tuple(invcol))
            else:
                conj_inv.append(None)
        return FinitePmq(tuple(labels), unit, rows, dict(prod), norm, tuple(conj_inv))

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"unknown element {label!r}") from None

    def conjugate(self, a: int, b: int) -> int:
        return self.conj[a][b]

    def conjugate_inv(self, a: int, b: int) -> int:
        col = self.conj_inv[b]
        if col is None:
            raise AxiomError(f"conjugation by {self.labels[b]!r} is not a bijection")
        return col[a]

    def product(self, a: int, b: int) -> Optional[int]:
        return self.prod.get((a, b))

    def product_word(self, word: Iterable[int]) -> Optional[int]:
        """Left-to-right fold of the partial product; None when undefined.

        Conditional associativity makes definedness and value independent of
        the bracketing, so the fold decides definedness of the whole product.
        """
        acc = self.unit
        for x in word:
            nxt = self.prod.get((acc, x))
            if nxt is None:
                return None
            acc = nxt
        return acc

    def require_norm(self) -> tuple[int, ...]:
        if self.norm is None:
            raise NormRequiredError()
        return self.norm

    def elements_of_norm(self, r: int) -> list[int]:
        norm = self.require_norm()
        return [a for a in range(len(self.labels)) if norm[a] == r]

    def braid_act(self, seq: Sequence[int], i: int, sign: int) -> tuple[int, ...]:
        """``braid_act`` on a tuple of elements, through this PMQ's tables."""
        return braid_act(seq, i, sign, self.conjugate, self.conjugate_inv)

    def to_labels(self, seq: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in seq)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> list[str]:
        return [v.axiom for v in self.violations]

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.axiom} at {v.witness}: {v.detail}" for v in self.violations)


# One scan per axiom: a generator of (witness, detail) for its violations in
# scan order, so the first one yielded is the minimal witness.  The scans of
# the four cubic axioms take ``thirds``, the third elements c of the triples
# they scan: every element by default, the generating base when ``validate``
# decides the axiom on it.

def _conj_bijective(q: FinitePmq):
    # (-)^b is a bijection for every b.
    for b, col in enumerate(q.conj_inv):
        if col is None:
            yield (b,), "conjugation by this element is not a bijection"


def _conj_unit(q: FinitePmq):
    # 1^a = 1 and a^1 = a.
    conj, unit = q.conj, q.unit
    for a in range(len(q)):
        if conj[unit][a] != unit:
            yield (a,), "1^a != 1"
        elif conj[a][unit] != a:
            yield (a,), "a^1 != a"


def _conj_idempotence(q: FinitePmq):
    # a^a = a (quandles only).
    for a, row in enumerate(q.conj):
        if row[a] != a:
            yield (a,), "a^a != a"


def _conj_distributivity(q: FinitePmq, thirds=None):
    # (a^b)^c = (a^c)^(b^c), via column composition.
    cols = tuple(zip(*q.conj))
    n = len(cols)
    thirds = range(n) if thirds is None else thirds
    for b, colb in enumerate(cols):
        for c in thirds:
            colc = cols[c]
            colbc = cols[colc[b]]
            for a in range(n):
                if colc[colb[a]] != colbc[colc[a]]:
                    yield (a, b, c), "(a^b)^c != (a^c)^(b^c)"


def _unit_product(q: FinitePmq):
    # Unit laws of the partial product.
    prod, unit = q.prod, q.unit
    for a in range(len(q)):
        if prod.get((unit, a)) != a or prod.get((a, unit)) != a:
            yield (a,), "1a and a1 must be defined and equal a"


def _associativity(q: FinitePmq, thirds=None):
    # Conditional associativity, both implications.
    prod, n = q.prod, len(q)
    thirds = range(n) if thirds is None else thirds
    # (c, xc) for each x and each c in thirds with xc defined, in thirds order
    right = [[(c, prod[x, c]) for c in thirds if (x, c) in prod] for x in range(n)]
    for (a, b), ab in prod.items():
        for c, abc in right[ab]:
            bc = prod.get((b, c))
            if bc is None or prod.get((a, bc)) != abc:
                yield (a, b, c), "(ab)c defined but a(bc) missing or different"
    left: list[list] = [[] for _ in range(n)]   # (a, ax) for each x, a ascending
    for (a, x), ax in sorted(prod.items()):
        left[x].append((a, ax))
    for (b, c), bc in prod.items():
        if c not in thirds:
            continue
        for a, abc in left[bc]:
            ab = prod.get((a, b))
            if ab is None or prod.get((ab, c)) != abc:
                yield (a, b, c), "a(bc) defined but (ab)c missing or different"


def _product_conj_swap(q: FinitePmq):
    # ab defined <=> b(a^b) defined, with equal values.
    prod, n = q.prod, len(q)
    for a, conja in enumerate(q.conj):
        for b in range(n):
            if prod.get((a, b)) != prod.get((b, conja[b])):
                yield (a, b), "ab and b(a^b) disagree"


def _conj_of_product(q: FinitePmq, thirds=None):
    # a^(bc) = (a^b)^c whenever bc is defined.
    cols = tuple(zip(*q.conj))
    n = len(cols)
    thirds = range(n) if thirds is None else thirds
    for (b, c), bc in q.prod.items():
        if c not in thirds:
            continue
        colb, colc, colbc = cols[b], cols[c], cols[bc]
        for a in range(n):
            if colbc[a] != colc[colb[a]]:
                yield (a, b, c), "a^(bc) != (a^b)^c"


def _product_equivariance(q: FinitePmq, thirds=None):
    # ab defined <=> (a^c)(b^c) defined, with (ab)^c = (a^c)(b^c).
    prod = q.prod
    cols = tuple(zip(*q.conj))
    thirds = range(len(cols)) if thirds is None else thirds
    for (a, b), ab in prod.items():
        for c in thirds:
            colc = cols[c]
            if prod.get((colc[a], colc[b])) != colc[ab]:
                yield (a, b, c), "(ab)^c != (a^c)(b^c)"
    if None in q.conj_inv:
        return
    for x, y in prod:
        for c in thirds:
            icol = q.conj_inv[c]
            if (icol[x], icol[y]) not in prod:
                yield (icol[x], icol[y], c), "(a^c)(b^c) defined but ab is not"


def _norm_kernel(q: FinitePmq, norm: Sequence[int]):
    for a in range(len(q)):
        if (norm[a] == 0) != (a == q.unit):
            yield (a,), "norm vanishes exactly on the unit"


def _norm_additive(q: FinitePmq, norm: Sequence[int]):
    for (a, b), ab in q.prod.items():
        if norm[ab] != norm[a] + norm[b]:
            yield (a, b), "N(ab) != N(a) + N(b)"


def _norm_conj_invariant(q: FinitePmq, norm: Sequence[int]):
    for a, row in enumerate(q.conj):
        for b, ab in enumerate(row):
            if norm[ab] != norm[a]:
                yield (a, b), "N(a^b) != N(a)"


PMQ_AXIOMS = (
    ("conj-bijective", _conj_bijective),
    ("conj-unit", _conj_unit),
    ("conj-idempotence", _conj_idempotence),
    ("conj-distributivity", _conj_distributivity),
    ("unit-product", _unit_product),
    ("associativity", _associativity),
    ("product-conj-swap", _product_conj_swap),
    ("conj-of-product", _conj_of_product),
    ("product-equivariance", _product_equivariance),
)
# Scans of a candidate norm, checked after the PMQ axioms when a norm is present.
NORM_AXIOMS = (
    ("norm-kernel", _norm_kernel),
    ("norm-additive", _norm_additive),
    ("norm-conj-invariant", _norm_conj_invariant),
)
# The cubic axioms, decided on a generating base, each with the axiom that
# its closure lemma assumes (see the module docstring).
_ASSUMES = {
    "associativity": None,
    "conj-of-product": "associativity",
    "conj-distributivity": "conj-of-product",
    "product-equivariance": "conj-of-product",
}


def _generating_base(q: FinitePmq) -> list[int]:
    """Every element that is not a product of two non-units, then, while
    closing under defined products of non-units leaves an element unreached,
    the lowest unreached one.  The closure is one worklist pass over the
    products."""
    n, unit = len(q), q.unit
    by_factor: list[list] = [[] for _ in range(n)]   # (other factor, product)
    products = set()
    for (y, z), yz in q.prod.items():
        if y != unit and z != unit:
            by_factor[y].append((z, yz))
            by_factor[z].append((y, yz))
            products.add(yz)
    base = [c for c in range(n) if c not in products]
    reached = set(base)
    todo = list(base)
    lowest = 0
    while True:
        while todo:
            for other, xy in by_factor[todo.pop()]:
                if other in reached and xy not in reached:
                    reached.add(xy)
                    todo.append(xy)
        while lowest < n and lowest in reached:
            lowest += 1
        if lowest == n:
            return base
        base.append(lowest)
        reached.add(lowest)
        todo.append(lowest)


def validate(q: FinitePmq, *, rack: bool = False, stop_first: bool = False) -> ValidationReport:
    """Check every axiom, reporting one witness per violated axiom, in axiom
    order; ``stop_first`` stops at the first violated axiom.

    Witnesses are minimal in the scan order induced by the declaration order
    of elements.  Each axiom is decided exactly, once per call: a cubic one
    whose assumption holds is scanned over a generating base first, and over
    every triple, up to its first violation, only when that base scan finds
    one or the assumption fails (see the module docstring).  The report is
    the full scans' report on every input.  With ``rack=True`` the
    idempotence axiom a^a = a is skipped (the remaining axioms define a
    partially multiplicative rack).  A PMQ that passes without ``rack``
    remembers it, and ``require_valid`` does not scan it again.
    """
    scans = {name: scan for name, scan in PMQ_AXIOMS if not (rack and name == "conj-idempotence")}
    if q.norm is not None:
        scans.update((name, partial(scan, norm=q.norm)) for name, scan in NORM_AXIOMS)
    base = frozenset(_generating_base(q))
    first: dict[str, Optional[tuple]] = {}   # axiom -> first violation of its full scan, or None

    def first_violation(axiom: str) -> Optional[tuple]:
        if axiom not in first:
            scan, assumes = scans[axiom], _ASSUMES.get(axiom)
            on_base = axiom in _ASSUMES and (assumes is None or first_violation(assumes) is None)
            if on_base and next(scan(q, base), None) is None:
                first[axiom] = None   # the closure lemma: it holds everywhere
            else:
                first[axiom] = next(scan(q), None)
        return first[axiom]

    out: list[Violation] = []
    for axiom in scans:
        found = first_violation(axiom)
        if found is not None:
            out.append(Violation(axiom, q.to_labels(found[0]), found[1]))
            if stop_first:
                break
    if not out and not rack:
        object.__setattr__(q, "_valid", True)   # tables are immutable
    return ValidationReport(tuple(out))


def require_valid(q: FinitePmq, *, rack: bool = False) -> None:
    """Raise ``AxiomError`` with the full report unless ``q`` satisfies the
    axioms; a PMQ that already passed ``validate`` is not scanned again."""
    if getattr(q, "_valid", False):
        return
    report = validate(q, rack=rack)
    if not report.ok:
        raise AxiomError(f"invalid structure: {report}", report)


def map_violation(source: FinitePmq, target: FinitePmq, mapping: Sequence[int]) -> Optional[str]:
    """The first condition by which ``mapping`` (a -> ``mapping[a]``) fails
    to be a PMQ or PMR map ``source`` -> ``target``, or None: range, unit,
    conjugation, defined products, in that order."""
    if len(mapping) != len(source) or any(not 0 <= x < len(target) for x in mapping):
        return "is not a map into the target"
    if mapping[source.unit] != target.unit:
        return "does not preserve the unit"
    for a, row in enumerate(source.conj):
        for b, ab in enumerate(row):
            if mapping[ab] != target.conj[mapping[a]][mapping[b]]:
                return "does not preserve conjugation"
    for (a, b), c in source.prod.items():
        if target.prod.get((mapping[a], mapping[b])) != mapping[c]:
            return "does not preserve a defined product"
    return None


# ---------------------------------------------------------------------------
# conjugacy classes

def conjugacy_classes(q: FinitePmq) -> list[tuple[str, ...]]:
    """Partition into minimal subsets closed under (-)^b and (-)^(b^-1).

    Classes are listed by their smallest member (declaration order), each
    class in declaration order.
    """
    part = _class_partition(q)
    return [tuple(q.labels[i] for i in cls) for cls in part]


def _class_partition(q: FinitePmq) -> list[tuple[int, ...]]:
    """The components of the edges a -- a^b: once every (-)^b is a
    bijection, (-)^(b^-1) walks the same edges back."""
    for b in range(len(q)):
        q.conjugate_inv(b, b)   # AxiomError when (-)^b is not a bijection
    edges = ((a, c) for a, row in enumerate(q.conj) for c in set(row))
    return [tuple(cls) for cls in components(len(q), edges)]


# ---------------------------------------------------------------------------
# constructions

def semidirect_pmq(
    g: FiniteGroup,
    points: Sequence[str],
    action: Mapping[tuple[str, str], str],
) -> FinitePmq:
    """The conjugation-and-action structure G |x S of a right action.

    Underlying set G + S; conjugation: a^s = a, h^g = g^-1 h g, s^g = s.g;
    the product is the group product on pairs of group elements plus the
    unit couples forced by the unit law.

    For a nontrivial group acting on a nonempty set this is not a PMQ and
    ``validate`` says so precisely: (g g^-1)s is defined while g^-1 s is
    not, so conditional associativity fails at (g, g^-1, s), and no way of
    defining mixed products repairs it without killing the action.  All
    derived data (conjugacy classes, enveloping group) are insensitive to
    the defect.
    """
    if set(points) & set(g.labels):
        raise StructureError("group labels and point labels must be disjoint")
    ng, ns = len(g.labels), len(points)
    act = [[None] * ng for _ in range(ns)]
    for s in range(ns):
        for x in range(ng):
            img = action.get((points[s], g.labels[x]))
            if img is None or img not in points:
                raise StructureError(f"action undefined or out of range at ({points[s]}, {g.labels[x]})")
            act[s][x] = points.index(img)
    for s in range(ns):
        if act[s][g.unit] != s:
            raise StructureError("action does not fix the unit")
        for x in range(ng):
            for y in range(ng):
                if act[act[s][x]][y] != act[s][g.mult[x][y]]:
                    raise StructureError("not a right action: s.(xy) != (s.x).y")

    labels = tuple(g.labels) + tuple(points)
    n = ng + ns
    conj = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if b >= ng:                      # conjugation by a point is trivial
                conj[a][b] = a
            elif a < ng:
                conj[a][b] = g.conj(a, b)
            else:
                conj[a][b] = ng + act[a - ng][b]
    prod = {(a, b): g.mult[a][b] for a in range(ng) for b in range(ng)}
    for s in range(ng, n):                   # unit products are forced by the axioms
        prod[(g.unit, s)] = s
        prod[(s, g.unit)] = s
    return FinitePmq.build(labels, g.unit, conj, prod)


@dataclass(frozen=True)
class PmqGroupPair:
    """A PMQ Q, a group G, a PMQ map e: Q -> G and a right action r of G on Q
    by PMQ automorphisms, with r(e(b)) = (-)^b and e(r(g)(a)) = g^-1 e(a) g.

    ``r_action[g][a]`` is the image of element a under r(g).  ``check``
    decides the conditions, Q's own axioms among them, on the join.
    """

    pmq: FinitePmq
    group: FiniteGroup
    e_map: tuple[int, ...]
    r_action: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        """``join_pmq_group`` with its result dropped: raises unless a pair."""
        join_pmq_group(self)


def join_pmq_group(pair: PmqGroupPair) -> FinitePmq:
    """The complete PMQ Q >< G on the disjoint union of Q and G.

    Conjugation: abar^bbar = (a^b)bar, abar^gbar = r(g)(a)bar,
    gbar^abar = (e(a)^-1 g e(a))bar, gbar^hbar = (h^-1 g h)bar.
    Product (total): gbar hbar = (gh)bar, abar gbar = (e(a)g)bar,
    gbar abar = (g e(a))bar, abar bbar = (ab)bar when ab is defined in Q and
    (e(a)e(b))bar otherwise.

    A wrongly shaped e_map or r_action (not one group element per element
    of Q, not one map of Q to itself per group element) raises
    ``StructureError`` before any table is built; the tables then go
    through ``require_valid``.  The join is a PMQ exactly when Q is one and
    (e, r) is a pair on it: the join of a pair is a PMQ by the paper's
    theorem, and each pair condition is one join axiom at some elements,
    with [g] the adjoined copy of g and [1] that of the group unit:

    * e(1) = 1 is unit-product at [1], as 1[1] = [e(1)];
    * e keeps defined products: associativity at (a, b, [1]);
    * e keeps conjugation: product-equivariance at (a, [1], b); e is
      equivariant: the same axiom at (a, [1], [g]);
    * each r(g) is a bijection that fixes 1 and keeps conjugation and
      defined products: conj-bijective, conj-unit, conj-distributivity and
      product-equivariance, each with [g] as the third element;
    * r is a right action: conj-of-product at (a, [g], [h]); r(1) is then
      an idempotent bijection, so r(1) = id;
    * r(e(b)) is conjugation by b: conj-of-product at (a, b, [1]), as
      b[1] = [e(b)].
    """
    q, g, e, r = pair.pmq, pair.group, pair.e_map, pair.r_action
    nq, ng = len(q), len(g)
    if len(e) != nq or any(not 0 <= x < ng for x in e):
        raise StructureError("e_map is not a map into the group")
    if len(r) != ng or any(len(row) != nq or any(not 0 <= a < nq for a in row) for row in r):
        raise StructureError("r_action must give a map of Q per group element")
    labels = tuple(q.labels) + tuple(f"[{x}]" for x in g.labels)
    to_g = tuple(e) + tuple(range(ng))   # e on Q, the identity on G
    conj = [q.conj[a] + tuple(row[a] for row in r) for a in range(nq)]
    conj += [tuple(nq + g.conj(x, y) for y in to_g) for x in range(ng)]
    prod = {
        (a, b): q.prod.get((a, b), nq + g.mult[x][y])   # no key of q.prod holds an index >= nq
        for a, x in enumerate(to_g)
        for b, y in enumerate(to_g)
    }
    joined = FinitePmq.build(labels, q.unit, conj, prod)
    require_valid(joined)
    return joined


def group_norm_report(g: FiniteGroup, norm: Sequence[int]) -> Optional[tuple[str, tuple[str, ...]]]:
    """Check a conjugation-invariant group norm; None if fine, else witness.

    Requirements: N(g) = 0 iff g = 1, N(gh) <= N(g) + N(h), and
    N(h^-1 g h) = N(g).
    """
    n = len(g)
    for a in range(n):
        if (norm[a] == 0) != (a == g.unit):
            return ("norm-kernel", (g.labels[a],))
    for a in range(n):
        for b in range(n):
            if norm[g.mult[a][b]] > norm[a] + norm[b]:
                return ("norm-triangle", (g.labels[a], g.labels[b]))
            if norm[g.conj(a, b)] != norm[a]:
                return ("norm-conj-invariant", (g.labels[a], g.labels[b]))
    return None


def geodesic_pmq(g: FiniteGroup, norm: Sequence[int]) -> FinitePmq:
    """The geodesic PMQ of a group with a conjugation-invariant norm.

    Same underlying quandle as the group; the product is restricted to the
    pairs on which the norm is additive, and the norm is kept as structure.
    """
    bad = group_norm_report(g, norm)
    if bad is not None:
        raise PreconditionError(f"not a conjugation-invariant group norm: {bad[0]} at {bad[1]}",
                                failed=bad[0], witness=bad[1])
    n = len(g)
    conj = [[g.conj(a, b) for b in range(n)] for a in range(n)]
    prod = {
        (a, b): g.mult[a][b]
        for a in range(n)
        for b in range(n)
        if norm[g.mult[a][b]] == norm[a] + norm[b]
    }
    return FinitePmq.build(g.labels, g.unit, conj, prod, norm)
