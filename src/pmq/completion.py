"""Canonical forms in the completion of a finite normed PMQ.

The completion adjoins all missing products: its elements are equivalence
classes of finite sequences over the non-unit part of the PMQ, where two
sequences are equivalent when a chain of the following moves (and their
inverses) connects them:

  (1) contract an adjacent pair to its product, when defined;
  (2) replace (a, b) by (b, a^b);
  (3) replace (a, b) by (b^(a^-1), a).

Every move preserves the total norm, entries stay in the non-unit part, and
a sequence of total norm n has length at most n, so each equivalence class
is finite and a search of the move graph decides equality exactly.  The
canonical representative is the length-lexicographic minimum of the class,
using the declaration order of elements.

The search generates contractions, their inverses (expansions) and move
(2), never move (3).  Move (2) at position j is a bijection sigma_j of the
finite set of sequences of a given length, so its inverse (3) is a power of
it, sigma_j^(k-1) on an orbit of size k, and the search reaches the same
class without writing it.

States of the search are strings holding one character chr(a) per entry a.
Code-point order is index order, so the least string is the least tuple.
Three tables drive the moves: two-character string -> product character
for the defined products, one length-n string per b mapping a to a^b, and
each element's factorisations as two-character strings.  Together they
hold O(n^2) characters plus the product table, never an n^2-entry dict,
so a ``Completion`` of a large group stays cheap to build.

``classes_of_norm`` builds classes by construction rather than by
canonicalising every sequence: moves act locally, so (a,) + r is equivalent
to (a,) + canonical(r), and the class words of norm n are the canonical
forms of (a,) + w over non-unit letters a and class words w of norm
n - N(a).  At norm 7 on the geodesic PMQ of S_4 that is ~960 canonical
forms instead of 1.16 million.  ``sequences_of_norm`` still lists every
sequence, for ``verify_embedding``; ``class_states`` lists those of one
class, which are the arrays of that grading read column-major (``barhur``).

A ``Completion`` object caches explored classes; the cache is an internal
memo only (results are independent of call order) and writes are appends,
so shared read access is safe.

Class sizes grow exponentially with the total norm (the number of
sequences of norm n over a fixed alphabet does), so keep the norms of the
classes you touch within a budget: products add norms, conjugation
preserves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Optional

from .core import FinitePmq, require_valid
from .errors import PreconditionError

Seq = tuple[int, ...]

__all__ = ["Completion", "HatElem", "verify_embedding"]


@dataclass(frozen=True)
class HatElem:
    """An element of the completion: its canonical sequence and total norm.

    Instances compare by canonical word within their completion; the empty
    word is the unit.
    """

    completion: "Completion" = field(compare=False, repr=False)
    word: Seq
    norm: int

    def __post_init__(self):
        object.__setattr__(self, "_pmq_id", id(self.completion.pmq))

    def __eq__(self, other):
        return (
            isinstance(other, HatElem)
            and self._pmq_id == other._pmq_id
            and self.word == other.word
        )

    def __hash__(self):
        return hash((self._pmq_id, self.word))

    @property
    def is_unit(self) -> bool:
        return not self.word

    def in_base(self) -> Optional[int]:
        """The underlying PMQ element when the class meets it, else None."""
        if not self.word:
            return self.completion.pmq.unit
        if len(self.word) == 1:
            return self.word[0]
        return None

    def labels(self) -> tuple[str, ...]:
        return self.completion.pmq.to_labels(self.word)

    def __mul__(self, other: "HatElem") -> "HatElem":
        return self.completion.mul(self, other)

    def conj(self, other: "HatElem") -> "HatElem":
        return self.completion.conj(self, other)

    def conj_inv(self, other: "HatElem") -> "HatElem":
        return self.completion.conj_inv(self, other)


class Completion:
    """Exact arithmetic in the completion of a finite normed PMQ."""

    def __init__(self, pmq: FinitePmq):
        pmq.require_norm()
        require_valid(pmq)
        self.pmq = pmq
        n, unit = len(pmq), pmq.unit
        # move-graph states are strings, one character chr(a) per entry a
        self._code = [chr(a) for a in range(n)]
        self._code[unit] = ""
        self._mul: dict[str, str] = {}
        self._splits: list[list[str]] = [[] for _ in range(n)]
        for (a, b), c in pmq.prod.items():
            if a != unit and b != unit:
                self._mul[chr(a) + chr(b)] = chr(c)
                self._splits[c].append(chr(a) + chr(b))
        self._act = ["".join(map(chr, column)) for column in zip(*pmq.conj)]
        self._canon: dict[str, Seq] = {}
        self._levels: dict[int, list[Seq]] = {}
        self._words: dict[int, list[Seq]] = {0: [()]}

    # -- basic constructors ---------------------------------------------

    def unit(self) -> HatElem:
        return HatElem(self, (), 0)

    def element(self, a: int) -> HatElem:
        if a == self.pmq.unit:
            return self.unit()
        return self.of_sequence((a,))

    def of_sequence(self, seq: Iterable[int]) -> HatElem:
        """The class of a sequence of PMQ elements (units are dropped)."""
        norm = self.pmq.require_norm()
        word = self.canonical(seq)   # moves preserve the total norm
        return HatElem(self, word, sum(norm[x] for x in word))

    def of_labels(self, labels: Iterable[str]) -> HatElem:
        return self.of_sequence(self.pmq.index(l) for l in labels)

    # -- the move graph ---------------------------------------------------

    def canonical(self, seq: Seq) -> Seq:
        """Length-lexicographic minimum of the move class of ``seq``."""
        code = self._code
        state = "".join([code[x] for x in seq])
        cached = self._canon.get(state)
        if cached is None:
            component = self._explore(state)
            shortest = min(map(len, component))
            cached = tuple(map(ord, min(s for s in component if len(s) == shortest)))
            self._canon.update(zip(component, repeat(cached)))
        return cached

    def class_states(self, h: HatElem) -> dict[int, list[Seq]]:
        """Every sequence of non-unit elements in the class of ``h`` (the
        states of its move component), grouped by length, each group
        sorted."""
        out: dict[int, list[Seq]] = {}
        for s in sorted(self._explore("".join(map(chr, h.word)))):
            out.setdefault(len(s), []).append(tuple(map(ord, s)))
        return out

    def _explore(self, start: str) -> set[str]:
        """The states reachable from ``start`` by contractions, expansions
        and move (2).  Neighbours are collected in batches of a few
        thousand, so the set operations run in bulk while the batch stays
        small next to the class."""
        mul, act, splits = self._mul, self._act, self._splits
        seen = {start}
        todo = [start]
        while todo:
            found: list[str] = []
            push = found.append
            while todo and len(found) < 4096:
                s = todo.pop()
                for j, (a, b) in enumerate(zip(s, s[1:])):
                    head, tail = s[:j], s[j + 2 :]
                    c = mul.get(a + b)
                    if c is not None:
                        push(f"{head}{c}{tail}")
                    push(f"{head}{b}{act[ord(b)][ord(a)]}{tail}")
                for j, x in enumerate(s):
                    for pair in splits[ord(x)]:
                        push(f"{s[:j]}{pair}{s[j + 1 :]}")
            new = set(found)
            new -= seen
            seen |= new
            todo += new
        return seen

    # -- operations --------------------------------------------------------

    def mul(self, x: HatElem, y: HatElem) -> HatElem:
        return HatElem(self, self.canonical(x.word + y.word), x.norm + y.norm)

    def conj(self, x: HatElem, y: HatElem) -> HatElem:
        """x^y, conjugating every factor of x by the factors of y in turn."""
        conj = self.pmq.conj
        word = x.word
        for c in y.word:
            word = tuple(conj[a][c] for a in word)
        return HatElem(self, self.canonical(word), x.norm)

    def conj_inv(self, x: HatElem, y: HatElem) -> HatElem:
        """x^(y^-1); inverse of ``conj`` by the same y."""
        pmq = self.pmq
        word = x.word
        for c in reversed(y.word):
            word = tuple(pmq.conjugate_inv(a, c) for a in word)
        return HatElem(self, self.canonical(word), x.norm)

    # -- norm levels -------------------------------------------------------

    def sequences_of_norm(self, n: int) -> list[Seq]:
        """All sequences over the non-unit part with total norm n."""
        cached = self._levels.get(n)
        if cached is not None:
            return cached
        norm = self.pmq.require_norm()
        positives = [
            (a, norm[a]) for a in range(len(self.pmq)) if a != self.pmq.unit
        ]
        if any(v == 0 for _, v in positives):
            raise PreconditionError("norm vanishes outside the unit")
        out: list[Seq] = []

        def extend(prefix: tuple[int, ...], remaining: int) -> None:
            if remaining == 0:
                out.append(prefix)
                return
            for a, v in positives:
                if v <= remaining:
                    extend(prefix + (a,), remaining - v)

        extend((), n)
        self._levels[n] = out
        return out

    def classes_of_norm(self, n: int) -> list[HatElem]:
        """Canonical forms of all classes of total norm n, sorted.

        Level m is built from the lower ones: the words of norm m are the
        canonical forms of (a,) + w over non-unit a and class words w of
        norm m - N(a).
        """
        words = self._words
        norm, unit = self.pmq.norm, self.pmq.unit
        for m in range(1, n + 1):
            if m not in words:
                canons = {
                    self.canonical((a,) + w)
                    for a in range(len(self.pmq))
                    if a != unit and norm[a] <= m
                    for w in words[m - norm[a]]
                }
                words[m] = sorted(canons, key=lambda s: (len(s), s))
        return [HatElem(self, w, n) for w in words.get(n, [])]

    def classes_up_to(self, n: int) -> list[HatElem]:
        out = []
        for level in range(n + 1):
            out.extend(self.classes_of_norm(level))
        return out


def verify_embedding(q: FinitePmq, pair=None, budget: Optional[int] = None) -> dict:
    """Check that the PMQ sits injectively in its completion and that the
    classes outside it absorb products and conjugation.

    Returns a report dict; ``ok`` is True when (i) distinct elements have
    distinct canonical forms, (ii) every class of length >= 2 within the
    norm budget stays outside the PMQ under product and conjugation by PMQ
    elements, and, when a PMQ-group pair is supplied, (iii) the injectivity
    is cross-checked in the complete PMQ built from the pair by adjoining
    the group.
    """
    comp = Completion(q)
    norm = q.require_norm()
    if budget is None:
        budget = max(norm) + 1
    images = {}
    collisions = []
    for a in range(len(q)):
        img = comp.element(a)
        if img in images:
            collisions.append((q.labels[images[img]], q.labels[a]))
        images[img] = a

    ideal_ok = True
    ideal_witness = None
    outside = [
        h
        for n in range(2, budget + 1)
        for h in comp.classes_of_norm(n)
        if h.in_base() is None
    ]
    units = [comp.element(a) for a in range(len(q)) if a != q.unit]
    for h in outside:
        for v in units:
            if h.norm + v.norm <= budget:
                if (h * v).in_base() is not None or (v * h).in_base() is not None:
                    ideal_ok = False
                    ideal_witness = (h.labels(), v.labels())
                    break
            if h.conj(v).in_base() is not None or h.conj_inv(v).in_base() is not None:
                ideal_ok = False
                ideal_witness = (h.labels(), v.labels())
                break
        if not ideal_ok:
            break

    join_ok = None
    if pair is not None:
        from .core import join_pmq_group

        joined = join_pmq_group(pair)   # complete PMQ, keeps Q's indices first
        join_ok = True
        for n in range(1, budget + 1):
            by_class: dict[Seq, set[int]] = {}
            for seq in comp.sequences_of_norm(n):
                value = joined.product_word(seq)
                by_class.setdefault(comp.canonical(seq), set()).add(value)
            if any(len(vals) != 1 for vals in by_class.values()):
                join_ok = False
        singleton_images = {joined.product_word((a,)) for a in range(len(q))}
        if len(singleton_images) != len(q):
            join_ok = False

    return {
        "injective": not collisions,
        "collisions": collisions,
        "ideal_outside": ideal_ok,
        "ideal_witness": ideal_witness,
        "join_cross_check": join_ok,
        "ok": not collisions and ideal_ok and join_ok is not False,
    }
