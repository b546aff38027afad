"""Enveloping-group presentations and the word problems solved exactly.

The enveloping group of a PMQ has one generator per element, conjugation
relators [b]^-1 [a] [b] [a^b]^-1 for every pair, and product relators
[a] [b] [ab]^-1 for every defined product.  No general word problem is
attempted; equality is decided only through verified homomorphisms to
concrete targets:

* for the PMQ of a right group action (product only on the group part) the
  enveloping group is the direct product of the group with the free abelian
  group on the orbit set, with [g] -> (g, 0) and [s] -> (1, e_orbit(s));
* for geodesic PMQs of symmetric groups the pair (norm, permutation) embeds
  the enveloping group into Z x S_d (see ``symgeo.env_word_problem``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import FiniteGroup, FinitePmq, orbits, semidirect_pmq
from .errors import StructureError

Relator = tuple[int, ...]   # signed 1-based generator indices

__all__ = [
    "GroupPresentation",
    "presentation",
    "GroupTimesZn",
    "verify_hom",
    "env_semidirect",
]


@dataclass(frozen=True)
class GroupPresentation:
    """Generators named by the PMQ's labels; relators as signed index words."""

    generators: tuple[str, ...]
    conj_relators: tuple[Relator, ...]
    product_relators: tuple[Relator, ...]

    @property
    def relators(self) -> tuple[Relator, ...]:
        return self.conj_relators + self.product_relators

    def relator_lines(self) -> list[str]:
        """One relator per line, as words in generator labels and inverses."""

        def fmt(rel: Relator) -> str:
            return " ".join(
                self.generators[abs(i) - 1] + ("" if i > 0 else "^-1") for i in rel
            )

        return [fmt(r) for r in self.relators]


def presentation(q: FinitePmq) -> GroupPresentation:
    """The defining presentation of the enveloping group."""
    n = len(q)
    conj_relators = tuple(
        (-(b + 1), a + 1, b + 1, -(q.conj[a][b] + 1))
        for a in range(n)
        for b in range(n)
    )
    product_relators = tuple(
        (a + 1, b + 1, -(c + 1)) for (a, b), c in sorted(q.prod.items())
    )
    return GroupPresentation(q.labels, conj_relators, product_relators)


class GroupTimesZn:
    """The group G x Z^m with elements (group index, integer vector)."""

    def __init__(self, group: FiniteGroup, m: int):
        self.group = group
        self.m = m

    def unit(self) -> tuple[int, tuple[int, ...]]:
        return (self.group.unit, (0,) * self.m)

    def mul(self, x, y):
        return (self.group.mult[x[0]][y[0]], tuple(a + b for a, b in zip(x[1], y[1])))

    def inverse(self, x):
        return (self.group.inv[x[0]], tuple(-a for a in x[1]))


def verify_hom(
    q: FinitePmq, target: GroupTimesZn, images: Sequence[tuple[int, tuple[int, ...]]]
) -> bool:
    """True iff the assignment [a] -> images[a] kills every relator, i.e.
    extends to a homomorphism from the enveloping group."""
    if len(images) != len(q):
        raise StructureError("need one image per element")
    pres = presentation(q)
    for rel in pres.relators:
        acc = target.unit()
        for i in rel:
            g = images[abs(i) - 1]
            acc = target.mul(acc, g if i > 0 else target.inverse(g))
        if acc != target.unit():
            return False
    return True


@dataclass(frozen=True)
class SemidirectEnvelope:
    """Explicit model of the enveloping group of the PMQ of a group action:
    the direct product of the group with Z^(number of orbits)."""

    pmq: FinitePmq
    target: GroupTimesZn
    orbits: tuple[tuple[str, ...], ...]
    images: tuple[tuple[int, tuple[int, ...]], ...]
    relators_ok: bool
    collapse_ok: bool
    orbit_generators_central: bool

    @property
    def ok(self) -> bool:
        return self.relators_ok and self.collapse_ok and self.orbit_generators_central


def env_semidirect(
    g: FiniteGroup, points: Sequence[str], action: Mapping[tuple[str, str], str]
) -> SemidirectEnvelope:
    """Isomorphism data for the enveloping group of the action PMQ.

    Maps [x] -> (x, 0) for group elements and [s] -> (1, e_orbit(s)) for
    points; verifies every relator, the collapse [s] = [s.g] forced by the
    relators, and that the free-abelian part is central and acts trivially
    on the PMQ (it generates the kernel of the adjoint action when the
    action of the group is faithful).
    """
    q = semidirect_pmq(g, points, action)
    ng = len(g)

    point_orbits = tuple(
        tuple(sorted(o)) for o in orbits(points, lambda s: [action[(s, x)] for x in g.labels])
    )
    orbit_of = {s: i for i, o in enumerate(point_orbits) for s in o}

    m = len(point_orbits)
    target = GroupTimesZn(g, m)
    zero = (0,) * m

    def basis(i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(m))

    images = []
    for a, lbl in enumerate(q.labels):
        if a < ng:
            images.append((a, zero))
        else:
            images.append((g.unit, basis(orbit_of[lbl])))
    relators_ok = verify_hom(q, target, images)

    collapse_ok = all(
        images[q.index(s)] == images[q.index(action[(s, x)])]
        for s in points
        for x in g.labels
    )

    # the Z^m part must be central in the model and act trivially on the PMQ
    central = all(
        target.mul(images[ng + i], images[a]) == target.mul(images[a], images[ng + i])
        for i in range(len(points))
        for a in range(len(q))
    )
    trivial_action = all(
        q.conj[a][s] == a for a in range(len(q)) for s in range(ng, len(q))
    )
    return SemidirectEnvelope(
        q,
        target,
        point_orbits,
        tuple(images),
        relators_ok,
        collapse_ok,
        central and trivial_action,
    )
