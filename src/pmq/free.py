"""Free groups, their conjugacy sub-PMQs, and braid moves on decompositions.

Words in the free group on generators x_1, ..., x_k are tuples of nonzero
integers, +-i standing for x_i^(+-1).  The union of the trivial element and
the conjugacy classes of x_1, ..., x_l is a sub-PMQ with trivial product;
its nontrivial elements have a unique normal form w^-1 x_nu w with w reduced
and not starting with x_nu^(+-1).

A decomposition of x_1...x_r into r such factors can be carried back to
(x_1, ..., x_r) by braid moves.  The algorithm works on *generalised
decompositions*: formal trees of products and one-letter conjugations.  A
tree whose straightforward computation cancels contains a sub-tree of one of
ten shapes, each of which can be replaced by a lighter tree computing the
same group element; replacements of shapes (3) and (4) move a whole factor
across a neighbouring one and emit the corresponding standard moves, all
other shapes leave the factor sequence unchanged.  Iterating until no shape
matches terminates (the weight strictly drops) on the tree
x_1 . x_2 . ... . x_r.

Each rewrite is found by a walk of the tree in post-order (``_Walk``),
children left to right before their parent, so the first match is the
leftmost innermost one.  It counts leaves as it passes them, so it knows a
node's leaf offset, where the moves of shapes (3) and (4) start, when it
first reaches the node.  On a match it puts the replacement in place of
the sub-tree and walks on from there, not from the root: whether a node
matches depends only on its sub-tree, so the sub-trees already walked
hold no match and are passed over whole, and each ancestor is rebuilt
once, when the walk leaves it.  So a normalisation's time grows with its
rewrites, not with rewrites times the tree's depth.  The walk keeps its
own stack of ancestors instead of recursing: a factor w^-1 x_nu w is a
chain of len(w) conjugations, and scrambled conjugators outgrow Python's
recursion limit.

The standard move itself is ``pmq.core.braid_act``, re-exported here;
``braid_act_word`` is ``pmq.core.apply_moves`` with free-group conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .core import PmqGroupPair, apply_moves, braid_act
from .errors import PreconditionError, StructureError

Word = tuple[int, ...]

__all__ = [
    "free_reduce",
    "word_mul",
    "word_inv",
    "word_conj",
    "word_conj_inv",
    "fq_decompose",
    "fq_element",
    "evaluate_pair_map",
    "Leaf",
    "Prod",
    "Conj",
    "GenDecomp",
    "prod_of",
    "gd_weight",
    "gd_evaluate",
    "decomposition_to_gd",
    "gd_to_decomposition",
    "normalize_decomposition",
    "braid_act",
    "braid_act_word",
]


# ---------------------------------------------------------------------------
# reduced words

def free_reduce(word: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise StructureError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_mul(*words: Iterable[int]) -> Word:
    cat: list[int] = []
    for w in words:
        cat.extend(w)
    return free_reduce(cat)


def word_inv(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def word_conj(a: Sequence[int], w: Sequence[int]) -> Word:
    """a^w = w^-1 a w."""
    return word_mul(word_inv(w), a, w)


def word_conj_inv(a: Sequence[int], w: Sequence[int]) -> Word:
    """a^(w^-1) = w a w^-1."""
    return word_mul(w, a, word_inv(w))


# ---------------------------------------------------------------------------
# membership in the conjugacy sub-PMQ

def fq_decompose(g: Sequence[int], k: int, l: int) -> Optional[tuple[int, Word]]:
    """Normal form of g in the sub-PMQ on the first l generators.

    Returns (nu, w) with g = w^-1 x_nu w, w reduced and not starting with
    x_nu^(+-1); the unit is reported as (0, ()); None when g does not belong.
    A reduced word lies in the sub-PMQ iff it is a palindromic sandwich
    u . x_nu . u^-1-reversed with nu <= l.
    """
    g = free_reduce(g)
    if any(abs(x) > k for x in g):
        raise StructureError(f"letter outside the free group on {k} generators")
    if not g:
        return (0, ())
    if len(g) % 2 == 0:
        return None
    m = len(g) // 2
    mid = g[m]
    if mid < 0 or mid > l:
        return None
    w = g[m + 1 :]
    if g[:m] != word_inv(w):
        return None
    return (mid, w)


def fq_element(nu: int, w: Sequence[int]) -> Word:
    """The group element w^-1 x_nu w in reduced form."""
    return word_conj((nu,), w)


def evaluate_pair_map(
    pair: PmqGroupPair,
    targets: Sequence[int],
    group_targets: Sequence[int],
    g: Sequence[int],
    k: Optional[int] = None,
) -> int:
    """Image of g under the PMQ map determined on a PMQ-group pair by sending
    x_1..x_l to PMQ elements and x_{l+1}..x_k to group elements.

    The image of g = w^-1 x_nu w is the target of x_nu acted on by the image
    of w under the induced group homomorphism.  Returns the index of the
    image in the pair's PMQ.
    """
    l = len(targets)
    if k is None:
        k = l + len(group_targets)
    if l + len(group_targets) != k:
        raise StructureError("targets must cover x_1..x_k")
    nf = fq_decompose(g, k, l)
    if nf is None:
        raise PreconditionError("element lies outside the sub-PMQ on the first l generators")
    nu, w = nf
    q, grp, e, r = pair.pmq, pair.group, pair.e_map, pair.r_action

    def phi(letter: int) -> int:
        i = abs(letter)
        img = e[targets[i - 1]] if i <= l else group_targets[i - l - 1]
        return img if letter > 0 else grp.inverse(img)

    if nu == 0:
        return q.unit
    gw = grp.unit
    for letter in w:
        gw = grp.mult[gw][phi(letter)]
    return r[gw][targets[nu - 1]]


# ---------------------------------------------------------------------------
# generalised decompositions

@dataclass(frozen=True)
class Leaf:
    nu: int


@dataclass(frozen=True)
class Prod:
    children: tuple["GenDecomp", ...]


@dataclass(frozen=True)
class Conj:
    child: "GenDecomp"
    gen: int
    sign: int


GenDecomp = Union[Leaf, Prod, Conj]


def prod_of(*parts: GenDecomp) -> GenDecomp:
    """n-ary product with built-in associativity: product children are
    spliced so product nodes never have product children."""
    flat: list[GenDecomp] = []
    for p in parts:
        if isinstance(p, Prod):
            flat.extend(p.children)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def _walk_nodes(x: GenDecomp):
    """All nodes, depth first; iterative because conjugation chains can be
    arbitrarily deep."""
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Prod):
            stack.extend(node.children)
        elif isinstance(node, Conj):
            stack.append(node.child)


def gd_weight(x: GenDecomp) -> int:
    """One per leaf and two per conjugation: the length of the formal word."""
    return len(gd_formal_word(x))


def gd_leaves(x: GenDecomp) -> int:
    return sum(1 for node in _walk_nodes(x) if isinstance(node, Leaf))


def gd_formal_word(x: GenDecomp) -> Word:
    """The formal straightforward computation, without any reduction."""
    out: list[int] = []
    stack: list = [x]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(item.nu)
        elif isinstance(item, Prod):
            stack.extend(reversed(item.children))
        else:
            g = item.gen if item.sign > 0 else -item.gen
            stack.append(g)
            stack.append(item.child)
            stack.append(-g)
    return tuple(out)


def gd_evaluate(x: GenDecomp) -> tuple[Word, bool]:
    """Formal word and a flag telling whether reducing it cancels letters.

    The formal word has length equal to the weight of the tree.
    """
    w = gd_formal_word(x)
    return w, len(free_reduce(w)) < len(w)


def decomposition_to_gd(factors: Sequence[tuple[int, Word]]) -> GenDecomp:
    """The tree of a factor sequence: each factor (nu, w) becomes the leaf
    x_nu wrapped in one conjugation per letter of w, innermost first."""
    parts: list[GenDecomp] = []
    for nu, w in factors:
        node: GenDecomp = Leaf(nu)
        for letter in w:
            node = Conj(node, abs(letter), 1 if letter > 0 else -1)
        parts.append(node)
    if not parts:
        raise StructureError("empty decomposition")
    return prod_of(*parts)


def gd_to_decomposition(x: GenDecomp) -> list[Word]:
    """Factor sequence of a tree: the leaves left to right, each conjugated
    by every conjugation enclosing it, innermost first."""
    out: list[Word] = []
    stack: list[tuple[GenDecomp, Word]] = [(x, ())]
    while stack:
        node, outer = stack.pop()
        if isinstance(node, Leaf):
            out.append(word_conj((node.nu,), outer))
        elif isinstance(node, Prod):
            stack.extend((c, outer) for c in reversed(node.children))
        else:
            letter = node.gen if node.sign > 0 else -node.gen
            stack.append((node.child, (letter,) + outer))
    return out


# ---------------------------------------------------------------------------
# the ten-shape rewriter

# weight removed by each shape: one conjugation pair, two for shape (5)
_DROP = {1: 2, 2: 2, 3: 2, 4: 2, 5: 4, 6: 2, 7: 2, 8: 2, 9: 2, 10: 2}


def _pair_shape(a: GenDecomp, b: GenDecomp) -> Optional[int]:
    if isinstance(a, Conj) and isinstance(b, Conj) and a.gen == b.gen and a.sign == b.sign:
        return 1 if a.sign > 0 else 2
    if isinstance(a, Leaf) and isinstance(b, Conj) and b.gen == a.nu and b.sign > 0:
        return 3
    if isinstance(b, Leaf) and isinstance(a, Conj) and a.gen == b.nu and a.sign < 0:
        return 4
    return None


def _conj_shape(node: Conj) -> Optional[int]:
    c = node.child
    if isinstance(c, Conj) and c.gen == node.gen and c.sign == -node.sign:
        return 5
    if isinstance(c, Leaf) and c.nu == node.gen:
        return 10
    if isinstance(c, Prod):
        first, last = c.children[0], c.children[-1]
        if node.sign > 0:
            if isinstance(first, Leaf) and first.nu == node.gen:
                return 3   # (x_i . y)^(x_i)
            if isinstance(last, Conj) and last.gen == node.gen and last.sign < 0:
                return 8
            if isinstance(first, Conj) and first.gen == node.gen and first.sign < 0:
                return 9
        else:
            if isinstance(last, Leaf) and last.nu == node.gen:
                return 4   # (y . x_i)^(x_i^-1)
            if isinstance(last, Conj) and last.gen == node.gen and last.sign > 0:
                return 6
            if isinstance(first, Conj) and first.gen == node.gen and first.sign > 0:
                return 7
    return None


def _move_factor(x: Leaf, y: GenDecomp, shape: int, offset: int) -> tuple[GenDecomp, list[int]]:
    """Shapes (3) and (4), matched at leaf ``offset``: x_i . y^(x_i) -> y . x_i
    by one negative move per leaf of y, left to right, and
    y^(x_i^-1) . x_i -> x_i . y by positive moves, right to left."""
    s = gd_leaves(y)
    if shape == 3:
        return prod_of(y, x), [-(offset + 1 + u) for u in range(s)]
    return prod_of(x, y), [offset + s - u for u in range(s)]


def _replace_pair(a: GenDecomp, b: GenDecomp, shape: int, offset: int) -> tuple[GenDecomp, list[int]]:
    if shape == 3:
        return _move_factor(a, b.child, 3, offset)
    if shape == 4:
        return _move_factor(b, a.child, 4, offset)
    return Conj(prod_of(a.child, b.child), a.gen, a.sign), []   # shapes 1, 2


def _replace_node(node: Conj, shape: int, offset: int) -> tuple[GenDecomp, list[int]]:
    c = node.child
    if shape == 5:
        return c.child, []
    if shape == 10:
        return c, []
    if shape == 3:
        return _move_factor(c.children[0], prod_of(*c.children[1:]), 3, offset)
    if shape == 4:
        return _move_factor(c.children[-1], prod_of(*c.children[:-1]), 4, offset)
    if shape in (6, 8):
        # (y . z^(g^-1))^g -> y^g . z, g the node's x_i^(+-1)
        head = Conj(prod_of(*c.children[:-1]), node.gen, node.sign)
        return prod_of(head, c.children[-1].child), []
    # shapes 7, 9: (y^(g^-1) . z)^g -> y . z^g
    tail = Conj(prod_of(*c.children[1:]), node.gen, node.sign)
    return prod_of(c.children[0].child, tail), []


class _Walk:
    """The post-order walk of the module docstring, resumed after each
    rewrite where the replacement stands.

    ``path`` holds a frame per ancestor of the node about to be entered,
    root first: [node, todo, parts, offsets], with the children still to
    walk (last first), those walked (as rebuilt), and the leaf offset of
    each child entered.  A frame is rebuilt from its parts when the walk
    leaves it, so a rewrite costs no rebuild of the ancestors.  ``walked``
    holds (node, leaves) per id of every node left without a match; the
    reference keeps the id unique."""

    def __init__(self, root: GenDecomp):
        self.path: list[list] = []
        self.walked: dict[int, tuple[GenDecomp, int]] = {}
        self.node, self.leaves = root, 0   # the node to enter, and the leaves before it

    def tree(self) -> GenDecomp:
        """The current tree: the node to enter, rebuilt upwards with its
        ancestors, products flattened."""
        node = self.node
        for frame in reversed(self.path):
            parent, todo, parts, _ = frame
            if isinstance(parent, Prod):
                node = prod_of(*parts, node, *reversed(todo))
            else:
                node = Conj(node, parent.gen, parent.sign)
        return node

    def step(self) -> Optional[tuple[list[int], int]]:
        """Replace the leftmost innermost shape: (moves, shape), or None
        when no shape is left."""
        path, walked = self.path, self.walked
        node, leaves = self.node, self.leaves
        while True:
            if isinstance(node, Leaf) or id(node) in walked:
                leaves += 1 if isinstance(node, Leaf) else walked[id(node)][1]
            else:
                todo = list(reversed(node.children)) if isinstance(node, Prod) else [node.child]
                path.append([node, todo, [], [leaves]])
                node = todo.pop()
                continue
            # the node is done: hand it up, and leave each frame it completes
            while True:
                if not path:
                    self.node, self.leaves = node, leaves
                    return None
                frame = path[-1]
                frame[2].append(node)
                if frame[1]:
                    frame[3].append(leaves)
                    node = frame[1].pop()
                    break
                path.pop()
                old, _, parts, offsets = frame
                if isinstance(old, Conj):
                    node = Conj(parts[0], old.gen, old.sign)
                    shape = _conj_shape(node)
                    if shape is not None:
                        repl, moves = _replace_node(node, shape, offsets[0])
                        return self._resume(repl, offsets[0], moves, shape)
                else:
                    node = prod_of(*parts)
                    kids = node.children
                    for i in range(len(kids) - 1):
                        shape = _pair_shape(kids[i], kids[i + 1])
                        if shape is not None:
                            repl, moves = _replace_pair(kids[i], kids[i + 1], shape, offsets[i])
                            repl = prod_of(*kids[:i], repl, *kids[i + 2 :])
                            return self._resume(repl, offsets[0], moves, shape)
                walked[id(node)] = node, leaves - offsets[0]

    def _resume(self, repl: GenDecomp, start: int, moves: list[int], shape: int) -> tuple[list[int], int]:
        """Put ``repl`` where the matched node stood, its first leaf at
        ``start``: a product inside a product is spliced into it."""
        if self.path and isinstance(repl, Prod) and isinstance(self.path[-1][0], Prod):
            self.path[-1][1].extend(reversed(repl.children[1:]))
            repl = repl.children[0]
        self.node, self.leaves = repl, start
        return moves, shape


def normalize_decomposition(
    factors: Sequence[tuple[int, Word]], k: int, l: int
) -> list[int]:
    """Rewrite a decomposition of x_1...x_r into the trivial one, returning
    a move log that carries the input factor sequence to (x_1, ..., x_r)
    under ``braid_act_word``.

    The product of the factors must be x_1...x_r in the free group, with
    r = len(factors) <= l <= k; anything else is rejected before rewriting.
    """
    r = len(factors)
    if not (r <= l <= k):
        raise PreconditionError(f"need r <= l <= k, got r={r}, l={l}, k={k}")
    value = word_mul(*(fq_element(nu, w) for nu, w in factors))
    target = tuple(range(1, r + 1))
    if value != target:
        raise PreconditionError("factors do not multiply to x_1...x_r")
    for nu, w in factors:
        if not (1 <= nu <= l):
            raise PreconditionError(f"factor generator x_{nu} outside the first l")
        if w != free_reduce(w) or (w and abs(w[0]) == nu):
            raise PreconditionError("factor conjugator not in normal form")

    walk = _Walk(decomposition_to_gd(factors))
    log: list[int] = []
    weight = gd_weight(walk.node)
    while (step := walk.step()) is not None:
        moves, shape = step
        log.extend(moves)
        weight -= _DROP[shape]
    tree = walk.tree()

    expected: GenDecomp = prod_of(*(Leaf(i) for i in target)) if r > 1 else Leaf(1)
    if not (weight == gd_weight(tree) == r):
        raise AssertionError("weight bookkeeping out of sync")
    if tree != expected:
        raise AssertionError("rewriting did not reach the trivial tree")
    return log


# ---------------------------------------------------------------------------
# braid moves

def braid_act_word(seq: Sequence[Word], moves: Iterable[int]) -> tuple[Word, ...]:
    """Apply a signed move log to a tuple of free-group elements."""
    return apply_moves(seq, moves, word_conj, word_conj_inv)
