"""Partially multiplicative racks and their quandle-like core.

A rack with unit satisfies every quandle axiom except a^a = a; adding a
compatible partial product gives a partially multiplicative rack (PMR),
validated by the same checker with the idempotence axiom
switched off.  The elements fixed by their own conjugation form the
quandle-like core: a sub-PMQ that is conjugation closed (in both
directions) and absorbs defined products, and which receives the image of
every PMQ-map into the rack.
"""

from __future__ import annotations

from typing import Sequence

from .core import FinitePmq, ValidationReport, map_violation, validate
from .errors import AxiomError, StructureError

__all__ = ["validate_pmr", "quandle_like_core", "map_lands_in_core"]


def validate_pmr(structure: FinitePmq) -> ValidationReport:
    """All PMQ axioms except idempotence of conjugation."""
    return validate(structure, rack=True)


def quandle_like_core(r: FinitePmq) -> FinitePmq:
    """The sub-PMQ of quandle-like elements {a : a^a = a}.

    Closure under conjugation (both directions) and under defined products
    is asserted while restricting the tables.
    """
    report = validate_pmr(r)
    if not report.ok:
        raise AxiomError(f"not a valid PMR: {report}", report)
    core = [a for a in range(len(r)) if r.conj[a][a] == a]
    inside = set(core)
    for a in core:
        for b in core:
            if r.conj[a][b] not in inside or r.conjugate_inv(a, b) not in inside:
                raise AxiomError("core is not conjugation closed")
    reindex = {a: i for i, a in enumerate(core)}
    labels = [r.labels[a] for a in core]
    conj = [[reindex[r.conj[a][b]] for b in core] for a in core]
    prod = {}
    for (a, b), c in r.prod.items():
        if a in inside and b in inside:
            if c not in inside:
                raise AxiomError("core does not absorb a defined product")
            prod[(reindex[a], reindex[b])] = reindex[c]
    norm = [r.norm[a] for a in core] if r.norm is not None else None
    return FinitePmq.build(labels, reindex[r.unit], conj, prod, norm)


def map_lands_in_core(source: FinitePmq, target: FinitePmq, mapping: Sequence[int]) -> bool:
    """Check that a map of PMRs out of a PMQ has quandle-like image.

    ``mapping[a]`` is the image of element a.  A mapping that is not a map
    (``core.map_violation``: range, unit, conjugation, defined products)
    raises ``StructureError`` naming the first failed condition.  Images
    of a PMQ are always quandle-like, which is what makes the core the
    largest PMQ inside a rack; the return value reports it.
    """
    if why := map_violation(source, target, mapping):
        raise StructureError(f"mapping {why}")
    return all(target.conj[x][x] == x for x in mapping)
