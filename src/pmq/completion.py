"""Canonical forms in the completion of a finite normed PMQ.

The completion adjoins all missing products: its elements are equivalence
classes of finite sequences over the non-unit part of the PMQ, where two
sequences are equivalent when a chain of the following moves (and their
inverses) connects them:

  (1) contract an adjacent pair to its product, when defined;
  (2) replace (a, b) by (b, a^b);
  (3) replace (a, b) by (b^(a^-1), a).

Every move preserves the total norm and entries stay in the non-unit part,
so each class lies in one norm level and is finite.  The canonical
representative is the length-lexicographic minimum of the class, using the
declaration order of elements.

Classes are built level by level, with no search over sequences.  Write a
nonempty state of norm m as a.t, a letter a followed by a tail t.  Its
node is (a, w), where w is the class of t, of norm m - N(a).  A move on
a.t either acts inside the tail, and keeps the node, or touches positions
0-1, and then it is one of two edges, read from one end (t = x.r with
(x, u) a node of w):

  braid:        (a, w) -- (x, class(a^x, u)), move (2) on a.x.r;
  contraction:  (a, w) -- (ax, u), when ax is defined.

Move (3) at position 0 is a braid edge read from its other end, and an
expansion is a contraction read from its other end.  So the classes of
norm m are the components of the graph on the nodes (a, w), and the
union-find ``pmq.core.components`` finds them; class(a^x, u) lives at
norm m - N(x), which is already built.  Each level numbers its nodes
letter-major: (a, w) has the integer id first[a] + w, where first[a]
counts the nodes of the letters before a, so the edges are pairs of ints
and the class of a node is a list entry.  The shortest states of a node
are a followed by the shortest states of w, the least of them a followed
by the canonical word of w, so a component's canonical word is the least
(a,) + word(w) over its nodes.  ``canonical`` is then a fold from the
right, class(a.t) = node(a, class(t)), through the node tables up to the
sequence's norm; levels are built on first use.  At norm 7 on the
geodesic PMQ of S_4 that is 960 nodes and 18,774 edges, against 1.16
million sequences; the census of S_5 to norm 7 (1,414 classes, 27,170
nodes at norm 7) takes about 0.5 s.

``class_states`` recurses down the same tables: every state of a class is
a.t for exactly one of its nodes (a, w), with t a state of w.  The states
are the arrays of that grading read column-major (``barhur``), and
``verify_embedding`` walks them.  ``nodes`` lists a class's nodes as
(a, tail class) pairs, from which ``pmq.properties`` reads the leading
pairs of the move classes of norm-one sequences.  ``sequences_of_norm``
lists every sequence of a norm, for the tests and the benchmark harness.

Class sizes grow exponentially with the total norm (the number of
sequences of norm n over a fixed alphabet does), so keep the norms of the
classes whose states you list within a budget: products add norms,
conjugation preserves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import FinitePmq, components, require_valid

Seq = tuple[int, ...]

__all__ = ["Completion", "HatElem", "verify_embedding"]


@dataclass(frozen=True)
class HatElem:
    """An element of the completion: its canonical sequence and total norm.

    Instances are equal when their canonical words are and their
    completions are over equal PMQs (tested by identity first, then by
    value), so elements built over two equal PMQs are interchangeable; the
    hash is the word's.  The empty word is the unit.
    """

    completion: "Completion" = field(compare=False, repr=False)
    word: Seq
    norm: int

    def __eq__(self, other):
        if not isinstance(other, HatElem) or self.word != other.word:
            return False
        mine, theirs = self.completion.pmq, other.completion.pmq
        return mine is theirs or mine == theirs

    def __hash__(self):
        return hash(self.word)

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
        # per norm level: the class words, sorted; the nodes (a, w) of each
        # class; the id of each letter's first node (None for a letter of
        # larger norm), node (a, w) having id first[a] + w; and the class
        # of each node id
        self._words: list[list[Seq]] = [[()]]
        self._nodes: list[list[list[tuple[int, int]]]] = [[[]]]
        self._first: list[list[Optional[int]]] = [[]]
        self._node_class: list[list[int]] = [[]]

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

    def canonical(self, seq: Iterable[int]) -> Seq:
        """Length-lexicographic minimum of the move class of ``seq``; units
        are dropped."""
        level, c = self._locate(seq)
        return self._words[level][c]

    def _locate(self, seq: Iterable[int]) -> tuple[int, int]:
        """(norm, index) of the class of ``seq`` in the node tables: a fold
        from the right, class(a.t) = node(a, class(t))."""
        norm, unit = self.pmq.norm, self.pmq.unit
        letters = [x for x in seq if x != unit]
        self._build_to(sum(norm[x] for x in letters))
        first, node_class = self._first, self._node_class
        level = c = 0
        for a in reversed(letters):
            level += norm[a]
            c = node_class[level][first[level][a] + c]
        return level, c

    def _build_to(self, top: int) -> None:
        """Build every norm level up to ``top``: the classes of norm m are
        the components of the node graph over the levels below it, its
        nodes numbered letter-major."""
        if top < len(self._words):
            return
        pmq = self.pmq
        norm, conj = pmq.norm, pmq.conj
        words, nodes, firsts, node_class = self._words, self._nodes, self._first, self._node_class
        letters = [a for a in range(len(pmq)) if a != pmq.unit]
        right: list[dict[int, int]] = [{} for _ in range(len(pmq))]   # ax by a, x
        for (a, x), ax in pmq.prod.items():
            right[a][x] = ax
        for m in range(len(words), top + 1):
            first: list[Optional[int]] = [None] * len(pmq)
            level: list[tuple[int, int]] = []
            for a in letters:
                if norm[a] <= m:
                    first[a] = len(level)
                    level += [(a, w) for w in range(len(words[m - norm[a]]))]

            def edges():
                for v, (a, w) in enumerate(level):
                    conja, times = conj[a], right[a]
                    for x, u in nodes[m - norm[a]][w]:
                        below = m - norm[x]
                        yield v, first[x] + node_class[below][firsts[below][conja[x]] + u]
                        ax = times.get(x)
                        if ax is not None:
                            yield v, first[ax] + u

            def key(i):
                a, w = level[i]
                word = (a,) + words[m - norm[a]][w]
                return len(word), word

            ranked = sorted((min(map(key, c)), c) for c in components(len(level), edges()))
            cls = [0] * len(level)
            for k, (_, c) in enumerate(ranked):
                for i in c:
                    cls[i] = k
            words.append([word for (_, word), _ in ranked])
            nodes.append([[level[i] for i in c] for _, c in ranked])
            firsts.append(first)
            node_class.append(cls)

    def nodes(self, h: HatElem) -> list[tuple[int, HatElem]]:
        """The nodes (a, t) of the class of ``h``, a letter and a tail
        class: the states of ``h`` are the a.s over its nodes, with s a
        state of t, each state once.  The unit has none."""
        norm, words = self.pmq.norm, self._words
        level, c = self._locate(h.word)
        return [
            (a, HatElem(self, words[level - norm[a]][w], level - norm[a]))
            for a, w in self._nodes[level][c]
        ]

    def class_states(self, h: HatElem) -> dict[int, list[Seq]]:
        """Every sequence of non-unit elements in the class of ``h`` (the
        states of its move component), grouped by length, each group
        sorted: states(m, c) is the disjoint union of a.states(m - N(a), w)
        over the nodes (a, w) of class c."""
        norm, nodes = self.pmq.norm, self._nodes
        memo: dict[tuple[int, int], list[Seq]] = {(0, 0): [()]}

        def states(m: int, c: int) -> list[Seq]:
            found = memo.get((m, c))
            if found is None:
                found = memo[m, c] = [
                    (a,) + t for a, w in nodes[m][c] for t in states(m - norm[a], w)
                ]
            return found

        out: dict[int, list[Seq]] = {}
        for s in sorted(states(*self._locate(h.word))):
            out.setdefault(len(s), []).append(s)
        return out

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
        norm = self.pmq.require_norm()
        positives = [
            (a, norm[a]) for a in range(len(self.pmq)) if a != self.pmq.unit
        ]
        out: list[Seq] = []

        def extend(prefix: tuple[int, ...], remaining: int) -> None:
            if remaining == 0:
                out.append(prefix)
                return
            for a, v in positives:
                if v <= remaining:
                    extend(prefix + (a,), remaining - v)

        extend((), n)
        return out

    def classes_of_norm(self, n: int) -> list[HatElem]:
        """Canonical forms of all classes of total norm n, sorted."""
        if n < 0:
            return []
        self._build_to(n)
        return [HatElem(self, w, n) for w in self._words[n]]

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
        # every state of a class must multiply out to one joined value
        for n in range(1, budget + 1):
            for h in comp.classes_of_norm(n):
                values = {
                    joined.product_word(seq)
                    for states in comp.class_states(h).values()
                    for seq in states
                }
                if len(values) != 1:
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
