"""Tameness properties of finite (normed) PMQs, decided exactly.

* augmented: the non-unit part is an ideal;
* locally finite: finitely many factorisations into non-units per element
  (automatic for a normed finite PMQ, reported as such);
* intrinsic pseudonorm: the greatest factorisation length into non-units;
* maximally decomposable: every element is a product of norm(a) elements
  of norm one;
* coconnected: for each element, the graph of its norm-one decompositions
  under standard moves is connected;
* pairwise determined: every non-multipliable norm-one sequence can be
  moved until its two leading entries already fail to multiply.  The
  definition quantifies over sequences of every length; the checker verifies
  lengths 3..r_max and says so in its verdict.

Move classes of norm-one sequences are the classes of the completion of
the norm-one truncation (``catalog.norm_one_truncation``): no product of
non-units is defined there and it keeps the declaration order, so its
classes of norm m are the move classes of the sequences of length m, in
the order of their least members, the canonical words.  A class's leading
pairs are the (a, x) over its nodes (a, t) (``Completion.nodes``) and the
nodes (x, u) of t; no sequence is listed and no orbit searched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .catalog import norm_one_truncation
from .completion import Completion
from .core import NORM_AXIOMS, FinitePmq, orbit
from .errors import PreconditionError

__all__ = [
    "PropertyReport",
    "is_augmented",
    "intrinsic_pseudonorm",
    "is_maximally_decomposable",
    "is_coconnected",
    "is_pairwise_determined",
    "validate_norm",
    "property_report",
    "decompositions",
    "decomposition_classes",
]


# ---------------------------------------------------------------------------
# augmentation and the intrinsic pseudonorm

def is_augmented(q: FinitePmq) -> tuple[bool, Optional[tuple[str, ...]]]:
    """The non-unit part must absorb conjugation and defined products."""
    unit = q.unit
    n = len(q)
    for a in range(n):
        if a == unit:
            continue
        for b in range(n):
            if q.conj[a][b] == unit or q.conjugate_inv(a, b) == unit:
                return False, (q.labels[a], q.labels[b])
    for (a, b), c in q.prod.items():
        if c == unit and a != unit and b != unit:
            return False, (q.labels[a], q.labels[b])
    return True, None


def intrinsic_pseudonorm(q: FinitePmq, bound: Optional[int] = None):
    """Greatest factorisation length into non-units, per element.

    Longest-path search on last factors: g(a) = max over a = b x with x a
    non-unit of g(b) + 1, seeded with g(1) = 0.  Partial products of a
    factorisation may pass through any element (the unit included), which is
    exactly how unbounded growth appears in non-augmented structures; the
    iteration stops at a fixed point or reports "unbounded at bound" when
    values are still growing after ``bound`` rounds.  For a normed PMQ the
    fixed point is reached within the maximal norm.
    """
    n = len(q)
    unit = q.unit
    if bound is None:
        bound = max(q.norm) + 1 if q.norm is not None else n + 1
    by_last: list[list[int]] = [[] for _ in range(n)]   # c -> predecessors b with bx=c
    for (b, x), c in q.prod.items():
        if x != unit:
            by_last[c].append(b)
    neg = -1
    g = [neg] * n
    g[unit] = 0
    for _ in range(bound + 2):
        nxt = list(g)
        for c in range(n):
            for b in by_last[c]:
                if g[b] >= 0 and g[b] + 1 > nxt[c]:
                    nxt[c] = g[b] + 1
        if nxt == g:
            return {q.labels[a]: g[a] for a in range(n)}
        g = nxt
    return f"unbounded at bound {bound}"


# ---------------------------------------------------------------------------
# decompositions into norm-one elements

def _norm_one_completion(q: FinitePmq) -> tuple[Completion, list[int]]:
    """The completion of the norm-one truncation of q (see the module
    docstring) and the element of q behind each of its elements."""
    norm = q.require_norm()
    return Completion(norm_one_truncation(q)), [a for a in range(len(q)) if norm[a] <= 1]


def decomposition_classes(q: FinitePmq, a: int) -> list[list[tuple[int, ...]]]:
    """Standard-move components of the norm-one decompositions of a, each
    sorted, in the order of their lexicographically least members.  Moves
    keep the product, so a class either multiplies to a or holds no
    decomposition of a."""
    comp, up = _norm_one_completion(q)
    return [
        [tuple(up[x] for x in s) for s in comp.class_states(h)[h.norm]]
        for h in comp.classes_of_norm(q.norm[a])
        if q.product_word(up[x] for x in h.word) == a
    ]


def decompositions(q: FinitePmq, a: int) -> list[tuple[int, ...]]:
    """All sequences over the norm-one part with defined product equal to a,
    in lexicographic order."""
    return sorted(s for c in decomposition_classes(q, a) for s in c)


def is_maximally_decomposable(q: FinitePmq) -> tuple[bool, Optional[str]]:
    """Every element must be a product of norm(a) norm-one elements.

    Each product with a norm-one element adds 1 to a validated norm, so the
    elements reached from the unit are exactly those products."""
    ones = q.elements_of_norm(1)
    prod = q.prod
    found = orbit([q.unit], lambda p: [c for x in ones if (c := prod.get((p, x))) is not None])
    for a in range(len(q)):
        if a not in found:
            return False, q.labels[a]
    return True, None


def is_coconnected(q: FinitePmq) -> tuple[bool, dict[str, int]]:
    """Connectedness of each element's decomposition graph; returns the
    per-element class counts."""
    ok, witness = is_maximally_decomposable(q)
    if not ok:
        raise PreconditionError(
            f"not maximally decomposable at {witness}", failed="maximally_decomposable"
        )
    comp, up = _norm_one_completion(q)
    counts = [0] * len(q)
    for h in comp.classes_up_to(max(q.norm)):
        p = q.product_word(up[x] for x in h.word)
        if p is not None:
            counts[p] += 1
    return all(v == 1 for v in counts), dict(zip(q.labels, counts))


def is_pairwise_determined(q: FinitePmq, r_max: Optional[int] = None):
    """Bounded verdict: for 3 <= r <= r_max, every move class of norm-one
    sequences without a product contains a member whose two leading entries
    already fail to multiply.

    Returns (status, r_max, witness) where status is True (up to the bound)
    or False with the least member of the first frozen class.  The property
    itself quantifies over all r; no finite reduction is attempted, which is
    why the bound is part of the verdict.
    """
    norm = q.require_norm()
    ok, witness = is_maximally_decomposable(q)
    if not ok:
        raise PreconditionError(
            f"not maximally decomposable at {witness}", failed="maximally_decomposable"
        )
    if r_max is None:
        r_max = max(norm) + 1
    comp, up = _norm_one_completion(q)
    for r in range(3, r_max + 1):
        for h in comp.classes_of_norm(r):
            word = [up[x] for x in h.word]
            if q.product_word(word) is None and all(
                (up[a], up[x]) in q.prod for a, t in comp.nodes(h) for x, _ in comp.nodes(t)
            ):
                return False, r_max, q.to_labels(word)
    return True, r_max, None


def validate_norm(q: FinitePmq, norm) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Check a candidate norm: kernel {1}, additive on defined products,
    conjugation invariant.  The first witness of the first failed axiom,
    as ``validate`` reports it."""
    for _, scan in NORM_AXIOMS:
        for witness, _ in scan(q, norm):
            return False, q.to_labels(witness)
    return True, None


# ---------------------------------------------------------------------------
# the combined report

@dataclass(frozen=True)
class PropertyReport:
    augmented: bool
    locally_finite: str
    maximally_decomposable: bool
    coconnected: Optional[bool]
    class_counts: dict = field(default_factory=dict)
    pairwise_determined: Optional[bool] = None
    r_max: Optional[int] = None
    intrinsic_norm: Optional[dict] = None
    witnesses: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "augmented": self.augmented,
            "locally_finite": self.locally_finite,
            "maximally_decomposable": self.maximally_decomposable,
            "coconnected": self.coconnected,
            "class_counts": self.class_counts,
            "pairwise_determined": {
                "status": self.pairwise_determined,
                "r_max": self.r_max,
                "note": "checked for sequence lengths 3..r_max only",
            },
            "intrinsic_norm": self.intrinsic_norm,
        }
        if self.witnesses:
            out["witnesses"] = {k: list(v) if v else v for k, v in self.witnesses.items()}
        return out


def property_report(q: FinitePmq, r_max: Optional[int] = None) -> PropertyReport:
    """Run every checker that applies; normed structures get the full suite."""
    witnesses = {}
    aug, aug_witness = is_augmented(q)
    if aug_witness:
        witnesses["augmented"] = aug_witness
    h = intrinsic_pseudonorm(q)
    normed = q.norm is not None
    locally_finite = "true (by norm)" if normed and aug else (
        "true (pseudonorm stabilised)" if isinstance(h, dict) else "unknown"
    )
    if not normed:
        return PropertyReport(
            aug, locally_finite, False, None, {}, None, None,
            h if isinstance(h, dict) else None, witnesses,
        )
    maxdec, md_witness = is_maximally_decomposable(q)
    if md_witness:
        witnesses["maximally_decomposable"] = (md_witness,)
    cocon = None
    counts: dict = {}
    pairwise = None
    used_rmax = None
    if maxdec:
        cocon, counts = is_coconnected(q)
        pairwise, used_rmax, pw_witness = is_pairwise_determined(q, r_max)
        if pw_witness:
            witnesses["pairwise_determined"] = pw_witness
    return PropertyReport(
        aug, locally_finite, maxdec, cocon, counts, pairwise, used_rmax,
        h if isinstance(h, dict) else None, witnesses,
    )
