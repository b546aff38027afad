"""PMQ-rings over Z and prime fields, and their quadratic structure.

The PMQ-ring is the free module on the underlying set with basis product
<a><b> = <ab> when the product is defined and 0 otherwise.  For a normed,
maximally decomposable, coconnected and pairwise determined PMQ, the ring
is quadratic: it is presented by its norm-one generators with the degree-2
relations

    <a><b> = <b><a^b>        for all norm-one a, b,
    <a><b> = 0               whenever ab is undefined,

and the graded dimensions of the quadratic quotient equal the number of
elements of each norm.  ``pmq.properties.property_report`` decides those
hypotheses; the presentation and the dual refuse with the first that
fails.  The dimension check is reported rather than assumed, so
near-misses (structures lacking one of the hypotheses) can be inspected
honestly.  Every relator is a difference of two monomials or a
single monomial, so each degree of the quotient is free on the classes of
monomials that hold no killed monomial.  This holds over every field and
over Z (Eisenbud-Sturmfels, "Binomial ideals", Duke Math. J. 84, 1996), so
the dimensions need no linear algebra: the classes are the components of
a graph (``pmq.core.components``).  Ranks of integer matrices, for the
relator spans and the dual, come from ``pmq.snf``.

The dual presentation has one generator per norm-one element and one
relation per norm-two element c: the sum of <a>'<b>' over the pairs with
ab = c.

For geodesic PMQs of symmetric groups, ordering the transposition
generators by height gives a monomial basis: the products along strictly
increasing heights biject with the permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import FinitePmq, components, conjugacy_classes
from .errors import PreconditionError
from .properties import is_maximally_decomposable, property_report
from .snf import integer_rank
from .symgeo import all_transpositions, height, identity, perm_mul, perm_norm

RingElem = dict[int, int]   # element index -> coefficient

__all__ = [
    "ring_mul",
    "augmentation",
    "class_sum",
    "class_sum_centrality",
    "invariant_basis_is_class_sums",
    "QuadraticPresentation",
    "quadratic_presentation",
    "quadratic_quotient_dimensions",
    "degree2_kernel",
    "relator_span_dimension",
    "DualPresentation",
    "quadratic_dual",
    "dual_relators_span_annihilator",
    "pbw_check_sdgeo",
]


# ---------------------------------------------------------------------------
# arithmetic

def _trim(x: RingElem, mod: int) -> RingElem:
    if mod:
        return {k: v % mod for k, v in x.items() if v % mod}
    return {k: v for k, v in x.items() if v}


def ring_mul(q: FinitePmq, x: RingElem, y: RingElem, mod: int = 0) -> RingElem:
    out: RingElem = {}
    prod = q.prod
    for a, ca in x.items():
        for b, cb in y.items():
            c = prod.get((a, b))
            if c is not None:
                out[c] = out.get(c, 0) + ca * cb
    return _trim(out, mod)


def augmentation(q: FinitePmq, x: RingElem, mod: int = 0) -> int:
    v = x.get(q.unit, 0)
    return v % mod if mod else v


def class_sum(q: FinitePmq, cls: Sequence[str]) -> RingElem:
    return {q.index(l): 1 for l in cls}


def class_sum_centrality(q: FinitePmq) -> bool:
    """Every conjugacy-class sum commutes with every basis element."""
    for cls in conjugacy_classes(q):
        s = class_sum(q, cls)
        for b in range(len(q)):
            e = {b: 1}
            if ring_mul(q, s, e) != ring_mul(q, e, s):
                return False
    return True


def invariant_basis_is_class_sums(q: FinitePmq) -> bool:
    """Solve the conjugation-invariance linear system and compare its
    solution space with the span of the class sums.

    Invariance under the adjoint action means invariance under every
    generator (-)^b, i.e. the coefficient function is constant on each
    conjugacy class; the solution space must be exactly the class-sum span.
    """
    n = len(q)
    # constraints: coeff[a] - coeff[a^b] = 0, one row each
    entries: dict[tuple[int, int], int] = {}
    r = 0
    for a in range(n):
        for b in range(n):
            img = q.conj[a][b]
            if img != a:
                entries[r, a] = 1
                entries[r, img] = -1
                r += 1
    return n - integer_rank(entries) == len(conjugacy_classes(q))


# ---------------------------------------------------------------------------
# quadratic presentation

@dataclass(frozen=True)
class QuadraticPresentation:
    """Degree-1 generators (the norm-one elements, by label) and degree-2
    relators, stored as coefficient dicts over ordered generator pairs."""

    generators: tuple[str, ...]
    pair_relators: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    zero_relators: tuple[tuple[int, int], ...]

    def relator_vectors(self) -> list[dict[tuple[int, int], int]]:
        out: list[dict[tuple[int, int], int]] = []
        for left, right in self.pair_relators:
            if left != right:
                out.append({left: 1, right: -1})
        for pair in self.zero_relators:
            out.append({pair: 1})
        return out


def quadratic_presentation(q: FinitePmq, *, require_tame: bool = True) -> QuadraticPresentation:
    """The generators-and-relations data of the ring in degree <= 2.

    With ``require_tame`` (the default) the four hypotheses that make the
    presentation exhaustive are read off ``property_report(q)``, as
    ``quadratic_dual`` reads them, and the first failure refuses with the
    property's name; pass False to emit the same relator families for any
    normed, maximally decomposable structure, then judge the quotient by
    its graded dimensions.
    """
    q.require_norm()
    if require_tame:
        failed = property_report(q).first_failed()
        if failed:
            raise PreconditionError(f"ring is not known quadratic: {failed} fails", failed=failed)
    else:
        ok, witness = is_maximally_decomposable(q)
        if not ok:
            raise PreconditionError(
                f"degree-one part does not generate: {witness}",
                failed="maximally_decomposable",
            )
    ones = q.elements_of_norm(1)
    pos = {a: i for i, a in enumerate(ones)}
    pair_relators = []
    zero_relators = []
    for a in ones:
        for b in ones:
            ab = q.prod.get((a, b))
            if ab is None:
                zero_relators.append((pos[a], pos[b]))
            left = (pos[a], pos[b])
            right = (pos[b], pos[q.conj[a][b]])
            pair_relators.append((left, right))
    return QuadraticPresentation(
        tuple(q.labels[a] for a in ones), tuple(pair_relators), tuple(zero_relators)
    )


def quadratic_quotient_dimensions(
    q: FinitePmq, max_degree: int, presentation: Optional[QuadraticPresentation] = None
) -> list[tuple[int, int, int]]:
    """Graded dimensions of the quadratic quotient vs. the norm census.

    Returns (degree, dim of quotient, number of elements of that norm) for
    degrees 0..max_degree.  Every relator is a difference of two monomials
    or a single monomial, and stays so when multiplied by monomials.  So the
    degree-n relations identify monomials and kill some, and the degree-n
    part is free on the classes of monomials that hold no killed monomial,
    over every field and over Z (Eisenbud-Sturmfels, "Binomial ideals",
    Duke Math. J. 84, 1996): no linear algebra is needed.

    Degree by degree: node 1 + j * k + y is basis monomial j of degree n-1
    followed by generator y, and node 0 stands for zero.
    ``below[i][x]`` is the basis monomial that basis monomial i of degree
    n-2 followed by x reduces to, or None where that is zero.  Each relator,
    multiplied on the left by i, joins its two sides (a pair relator) or its
    side and zero (a zero relator); a side (x, y) is node
    1 + below[i][x] * k + y, or zero where ``below[i][x]`` is None.  The
    components without zero are the basis of degree n, and give the next
    ``below``.
    """
    if max_degree < 0:
        raise PreconditionError(f"degree {max_degree} is negative", failed="degree")
    pres = presentation or quadratic_presentation(q, require_tame=False)
    k = len(pres.generators)
    census = [len(q.elements_of_norm(d)) for d in range(max_degree + 1)]

    zero = 0

    def node(j: Optional[int], y: int) -> int:
        return zero if j is None else 1 + j * k + y

    out = [(0, 1, census[0])]
    size = 1   # the dimension of the degree below
    below: list[list[Optional[int]]] = []   # for the basis two degrees below
    for degree in range(1, max_degree + 1):
        edges = []
        for row in below:
            edges += [(node(row[a], b), node(row[c], e)) for (a, b), (c, e) in pres.pair_relators]
            edges += [(node(row[a], b), zero) for a, b in pres.zero_relators]
        # the zero node comes first, so its component is the first one
        live = components(1 + size * k, edges)[1:]
        cls: list[Optional[int]] = [None] * (1 + size * k)
        for i, members in enumerate(live):
            for v in members:
                cls[v] = i
        below = [cls[1 + j * k : 1 + (j + 1) * k] for j in range(size)]
        size = len(live)
        out.append((degree, size, census[degree]))
    return out


def degree2_kernel(q: FinitePmq) -> list[dict[tuple[int, int], int]]:
    """Basis data for the full degree-2 kernel of generators -> ring:
    undefined pairs as monomial relators plus differences of pairs with the
    same defined product.  This is what the quadratic relators must span for
    the ring itself to be quadratic."""
    ones = q.elements_of_norm(1)
    pos = {a: i for i, a in enumerate(ones)}
    out: list[dict[tuple[int, int], int]] = []
    by_product: dict[int, list[tuple[int, int]]] = {}
    for a in ones:
        for b in ones:
            ab = q.prod.get((a, b))
            if ab is None:
                out.append({(pos[a], pos[b]): 1})
            else:
                by_product.setdefault(ab, []).append((pos[a], pos[b]))
    for pairs in by_product.values():
        for other in pairs[1:]:
            out.append({pairs[0]: 1, other: -1})
    return out


def relator_span_dimension(vectors: list[dict[tuple[int, int], int]], ngens: int) -> int:
    return integer_rank(
        {(r, x * ngens + y): c for r, v in enumerate(vectors) for (x, y), c in v.items()}
    )


# ---------------------------------------------------------------------------
# quadratic dual

@dataclass(frozen=True)
class DualPresentation:
    """Dual generators (one per norm-one element) and one relator per
    norm-two element: the sum of <a>'<b>' over its factorisations."""

    generators: tuple[str, ...]
    relators: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]


def quadratic_dual(q: FinitePmq, *, require_tame: bool = True) -> DualPresentation:
    q.require_norm()
    if require_tame:
        failed = property_report(q).first_failed()
        if failed:
            raise PreconditionError(f"dual presentation needs tameness: {failed} fails", failed=failed)
    ones = q.elements_of_norm(1)
    pos = {a: i for i, a in enumerate(ones)}
    twos = q.elements_of_norm(2)
    relators = []
    for c in twos:
        pairs = tuple(
            (pos[a], pos[b])
            for a in ones
            for b in ones
            if q.prod.get((a, b)) == c
        )
        relators.append((q.labels[c], pairs))
    return DualPresentation(tuple(q.labels[a] for a in ones), tuple(relators))


def dual_relators_span_annihilator(q: FinitePmq) -> bool:
    """The dual relators must span the annihilator of the quadratic relator
    space inside the dual of (generators tensor generators)."""
    pres = quadratic_presentation(q, require_tame=False)
    ngens = len(pres.generators)
    width = ngens * ngens
    rel_rank = relator_span_dimension(pres.relator_vectors(), ngens)
    dual = quadratic_dual(q, require_tame=False)
    dual_vectors = [
        {pair: 1 for pair in pairs} for _, pairs in dual.relators
    ]
    dual_rank = relator_span_dimension(dual_vectors, ngens)
    if dual_rank != width - rel_rank:
        return False
    # orthogonality: every dual relator kills every quadratic relator
    for dv in dual_vectors:
        for rel in pres.relator_vectors():
            if sum(dv.get(p, 0) * c for p, c in rel.items()) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# monomial basis for symmetric geodesic rings

def pbw_check_sdgeo(d: int) -> tuple[bool, dict[int, int]]:
    """Monomials of transpositions with strictly increasing heights biject
    with permutations; returns the census by length, totalling d!.

    Each monomial multiplies to a permutation whose norm is the monomial's
    length, the monotone factorisation inverts the map, and the census per
    degree equals the norm census of the group.
    """
    import math

    from .symgeo import monotone_decomposition

    by_height = {
        h: [t for t in all_transpositions(d) if height(t) == h] for h in range(2, d + 1)
    }
    census: dict[int, int] = {0: 1}
    images = {identity(d): ()}
    ok = True
    heights = sorted(by_height)
    for r in range(1, d):
        for hs in itertools.combinations(heights, r):
            for combo in itertools.product(*(by_height[h] for h in hs)):
                sigma = identity(d)
                for t in combo:
                    sigma = perm_mul(sigma, t)
                if perm_norm(sigma) != r:
                    ok = False
                if sigma in images:
                    ok = False
                if monotone_decomposition(sigma) != list(combo):
                    ok = False
                images[sigma] = combo
                census[r] = census.get(r, 0) + 1
    if sum(census.values()) != math.factorial(d) or len(images) != math.factorial(d):
        ok = False
    return ok, census
