"""Symmetric groups with the transposition word-length norm.

Permutations of [d] = {1, ..., d} are stored in one-line notation: a tuple
``sigma`` of length d with ``sigma[i - 1]`` the image of i.  Composition
takes the right factor first, (s*t)(x) = s(t(x)), so a sequence of
transpositions multiplies left to right with the last factor acting first.

The norm of a permutation is its word length in the generating set of all
transpositions, which equals d minus the number of cycles (fixed points
count as cycles).  Restricting the group product to norm-additive pairs
yields the geodesic PMQ of the symmetric group; its completion is described
in closed form by triples (sigma; partition of [d]; one weight per piece).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import FiniteGroup, FinitePmq, PmqGroupPair, components, geodesic_pmq
from .core import apply_moves as _apply_moves
from .errors import StructureError

Perm = tuple[int, ...]
Transposition = tuple[int, int]

__all__ = [
    "identity",
    "perm_mul",
    "perm_inv",
    "perm_conj",
    "perm_norm",
    "is_geodesic",
    "height",
    "transposition",
    "all_transpositions",
    "monotone_decomposition",
    "symmetric_group",
    "sym_geodesic_pmq",
    "sym_geodesic_pair",
    "GeoHatElem",
    "seq_to_triple",
    "validate_triple",
    "geo_hat_mul",
    "geo_hat_conj",
    "triples_of_weight",
    "clebsch_connect",
    "apply_moves",
    "env_word_problem",
]


# ---------------------------------------------------------------------------
# permutation basics

def identity(d: int) -> Perm:
    return tuple(range(1, d + 1))


def perm_mul(s: Perm, t: Perm) -> Perm:
    """(s*t)(x) = s(t(x))."""
    return tuple(s[t[i] - 1] for i in range(len(s)))


def perm_inv(s: Perm) -> Perm:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v - 1] = i + 1
    return tuple(out)


def perm_conj(a: Perm, b: Perm) -> Perm:
    """a^b = b^-1 a b."""
    return perm_mul(perm_mul(perm_inv(b), a), b)


def cycles(s: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(s)
    out = []
    for start in range(1, len(s) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        x = s[start - 1]
        while x != start:
            cyc.append(x)
            seen[x - 1] = True
            x = s[x - 1]
        out.append(tuple(cyc))
    return out


def perm_norm(s: Perm) -> int:
    """Transposition word length: d minus the number of cycles."""
    return len(s) - len(cycles(s))


def is_geodesic(s: Perm, t: Perm) -> bool:
    return perm_norm(perm_mul(s, t)) == perm_norm(s) + perm_norm(t)


def height(s: Perm) -> int:
    """Greatest i with s(i) != i; 0 for the identity."""
    for i in range(len(s), 0, -1):
        if s[i - 1] != i:
            return i
    return 0


def transposition(d: int, i: int, j: int) -> Perm:
    if i == j or not (1 <= i <= d and 1 <= j <= d):
        raise StructureError(f"({i},{j}) is not a transposition of [{d}]")
    out = list(range(1, d + 1))
    out[i - 1], out[j - 1] = j, i
    return tuple(out)


def all_transpositions(d: int) -> list[Perm]:
    return [transposition(d, i, j) for j in range(2, d + 1) for i in range(1, j)]


def transposition_pair(t: Perm) -> Transposition:
    """The two moved points (i, j) with i < j."""
    moved = [i + 1 for i, v in enumerate(t) if v != i + 1]
    if len(moved) != 2:
        raise StructureError("not a transposition")
    return (moved[0], moved[1])


def monotone_decomposition(s: Perm) -> list[Perm]:
    """The unique factorisation into transpositions of strictly increasing
    heights.

    Peels the last factor (ht(s), s^-1(ht(s))) from the right; the remaining
    permutation has strictly smaller height, so the recursion terminates in
    exactly norm(s) steps.
    """
    d = len(s)
    out: list[Perm] = []
    cur = s
    while True:
        h = height(cur)
        if h == 0:
            break
        t = transposition(d, h, perm_inv(cur)[h - 1])
        out.append(t)
        cur = perm_mul(cur, t)
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# the symmetric group and its geodesic PMQ as tables

def perm_label(s: Perm) -> str:
    return "".join(str(v) for v in s)


MAX_D = 9   # labels are one-line notation, one digit per point


def symmetric_group(d: int) -> FiniteGroup:
    """S_d with elements ordered by (norm, one-line notation)."""
    if not (1 <= d <= MAX_D):
        raise StructureError(f"supported range is 1 <= d <= {MAX_D}")
    perms = sorted(itertools.permutations(range(1, d + 1)), key=lambda p: (perm_norm(p), p))
    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[perm_mul(a, b)] for b in perms] for a in perms]
    return FiniteGroup.from_table([perm_label(p) for p in perms], mult)


def sym_geodesic_pmq(d: int) -> FinitePmq:
    """The geodesic PMQ of S_d under the transposition word-length norm."""
    return _geodesic_of_symmetric(symmetric_group(d))


def _geodesic_of_symmetric(g: FiniteGroup) -> FinitePmq:
    """The geodesic PMQ of g = S_d, its elements in g's order."""
    return geodesic_pmq(g, [perm_norm(tuple(int(ch) for ch in lbl)) for lbl in g.labels])


def sym_geodesic_pair(d: int) -> PmqGroupPair:
    """The pair (geodesic PMQ of S_d, S_d) with e the identity map and the
    group acting by conjugation."""
    g = symmetric_group(d)
    q = _geodesic_of_symmetric(g)
    # q keeps g's order, so e is the identity and r(x) is the column
    # a -> a^x of the conjugation table
    return PmqGroupPair(q, g, tuple(range(len(g))), tuple(zip(*q.conj)))


# ---------------------------------------------------------------------------
# completion triples

@dataclass(frozen=True)
class GeoHatElem:
    """Closed-form element of the completion of the geodesic PMQ of S_d.

    ``partition`` pieces are sorted tuples, listed by minimum element;
    ``weights`` aligns with ``partition``.  Valid triples satisfy
      (1) sigma preserves every piece;
      (2) w >= 2|P| - norm(sigma|P) - 2 on every piece, and w = 0 on
          singleton pieces;
      (3) w = norm(sigma|P) mod 2 on every piece.
    """

    sigma: Perm
    partition: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.sigma)

    def to_json(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "partition": [list(p) for p in self.partition],
            "weights": list(self.weights),
        }


def _normalise_partition(
    pieces: Iterable[Iterable[int]], weights: Iterable[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    paired = sorted(
        ((tuple(sorted(p)), w) for p, w in zip(pieces, weights)),
        key=lambda pw: pw[0][0],
    )
    return tuple(p for p, _ in paired), tuple(w for _, w in paired)


def make_triple(sigma: Perm, pieces, weights) -> GeoHatElem:
    p, w = _normalise_partition(pieces, weights)
    return GeoHatElem(sigma, p, w)


def restricted_norm(sigma: Perm, piece: Sequence[int]) -> int:
    """Norm of sigma restricted to an invariant subset."""
    inside = set(piece)
    ncycles = sum(1 for c in cycles(sigma) if c[0] in inside)
    return len(piece) - ncycles


def validate_triple(t: GeoHatElem) -> Optional[str]:
    """None when valid, else a description of the failed condition."""
    d = t.d
    covered = sorted(x for p in t.partition for x in p)
    if covered != list(range(1, d + 1)):
        return "partition does not cover [d] exactly once"
    if len(t.weights) != len(t.partition):
        return "weights misaligned with partition"
    for p in t.partition:
        inside = set(p)
        if any(t.sigma[x - 1] not in inside for x in p):
            return f"sigma does not preserve piece {p}"
    for p, w in zip(t.partition, t.weights):
        n = restricted_norm(t.sigma, p)
        if len(p) == 1:
            if w != 0:
                return f"singleton piece {p} must have weight 0"
            continue
        if w < 2 * len(p) - n - 2:
            return f"weight {w} on piece {p} below 2|P| - N - 2 = {2 * len(p) - n - 2}"
        if (w - n) % 2 != 0:
            return f"weight {w} on piece {p} has wrong parity"
    return None


def seq_to_triple(seq: Sequence[Perm], d: Optional[int] = None) -> GeoHatElem:
    """Invariants of a transposition sequence: the product, the orbit
    partition of the generated subgroup, and per-piece transposition counts.

    All three are constant on orbits of standard moves.
    """
    if d is None:
        if not seq:
            raise StructureError("empty sequence needs an explicit d")
        d = len(seq[0])
    prod = identity(d)
    for t in seq:
        prod = perm_mul(prod, t)
    plist = _join_partitions([transposition_pair(t) for t in seq], [], d)
    weights = []
    for p in plist:
        inside = set(p)
        weights.append(sum(1 for t in seq if transposition_pair(t)[0] in inside))
    return make_triple(prod, plist, weights)


def _join_partitions(p1, p2, d: int) -> list[list[int]]:
    edges = [(p[0], x) for p in (*p1, *p2) for x in p[1:]]
    # the points are 1..d, so node 0 is alone and its component comes first
    return components(d + 1, edges)[1:]


def geo_hat_mul(a: GeoHatElem, b: GeoHatElem) -> GeoHatElem:
    """Product: multiply the permutations, join the partitions, add the
    weights of the pieces absorbed into each joined piece."""
    d = a.d
    joined = _join_partitions(a.partition, b.partition, d)
    weights = []
    for piece in joined:
        inside = set(piece)
        w = sum(w for p, w in zip(a.partition, a.weights) if p[0] in inside)
        w += sum(w for p, w in zip(b.partition, b.weights) if p[0] in inside)
        weights.append(w)
    return make_triple(perm_mul(a.sigma, b.sigma), joined, weights)


def geo_hat_conj(a: GeoHatElem, b: GeoHatElem) -> GeoHatElem:
    """Conjugation relabels: (a)^(b) has permutation a.sigma^b.sigma and
    pieces b.sigma^-1(P); the weights follow their pieces."""
    inv = perm_inv(b.sigma)
    pieces = [[inv[x - 1] for x in p] for p in a.partition]
    return make_triple(perm_conj(a.sigma, b.sigma), pieces, a.weights)


def unit_triple(d: int) -> GeoHatElem:
    return make_triple(identity(d), [[x] for x in range(1, d + 1)], [0] * d)


def triples_of_weight(d: int, n: int) -> list[GeoHatElem]:
    """All valid triples with total weight n, enumerated directly from the
    closed-form conditions."""
    out: list[GeoHatElem] = []
    for part in _set_partitions(list(range(1, d + 1))):
        for sigma_pieces in itertools.product(*map(itertools.permutations, part)):
            sigma = list(range(1, d + 1))
            for piece, sp in zip(part, sigma_pieces):
                for x, y in zip(piece, sp):
                    sigma[x - 1] = y
            sig = tuple(sigma)
            ranges = []
            ok = True
            for piece in part:
                nres = restricted_norm(sig, piece)
                if len(piece) == 1:
                    ranges.append([0])
                    continue
                lo = max(2 * len(piece) - nres - 2, nres % 2)
                if (lo - nres) % 2:
                    lo += 1
                if lo > n:
                    ok = False
                    break
                ranges.append(list(range(lo, n + 1, 2)))
            if not ok:
                continue
            for ws in itertools.product(*ranges):
                if sum(ws) == n:
                    out.append(make_triple(sig, part, ws))
    return out


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + [list(p) for p in part]
        for i in range(len(part)):
            yield [list(p) for p in part[:i]] + [[first] + list(part[i])] + [
                list(p) for p in part[i + 1 :]
            ]


# ---------------------------------------------------------------------------
# standard moves on transposition sequences

def _perm_conj_inv(a: Perm, b: Perm) -> Perm:
    """a^(b^-1) = b a b^-1."""
    return perm_mul(perm_mul(b, a), perm_inv(b))


def apply_moves(seq: Sequence[Perm], moves: Iterable[int]) -> tuple[Perm, ...]:
    """Apply a signed move log: +i swaps (a_i, a_{i+1}) -> (a_{i+1}, a_i^a_{i+1}),
    -i is the inverse move."""
    return _apply_moves(seq, moves, perm_conj, _perm_conj_inv)


def _invert_moves(moves: Sequence[int]) -> list[int]:
    return [-m for m in reversed(moves)]


def _standard_form(seq: Sequence[Perm]) -> tuple[list[int], tuple[Perm, ...]]:
    """Move log carrying a transposition sequence to its standard form, and
    the form: pairs (t, t), then the monotone factorisation of the product.
    The form depends only on the invariants of ``seq_to_triple``.

    Peeling, highest height first: the rightmost highest factor is pushed to
    the end of the unpeeled part by positive moves (conjugation by a lower
    factor keeps the height).  Alone at its height it is peeled; else the
    next one is pushed beside it, and (h a), (h b) -> (a b), (h a) lowers a
    height, or two equal ones go to the front as a pair.  Peeled heights
    strictly increase, so the peeled factors are the monotone factorisation.

    A pair passes a factor unchanged leftwards by positive moves and
    rightwards by negative ones, and is conjugated by it the other way.  Each
    piece x0 < x1 < ... gets a pair (x0 h) for each h > x0 that is not a
    monotone height, then pairs (x0 x1).  Slot by slot, the first pair left
    whose orbit under conjugation by the other factors (at most d(d-1)/2
    transpositions) holds the wanted one is conjugated to it and carried
    there.  A pair on a path from x0 to h always qualifies, since the filled
    slots and the monotone factors do not join h to x0.
    """
    cur, log = tuple(seq), []
    d = len(cur[0]) if cur else 0

    def move(*moves: int) -> None:
        nonlocal cur
        cur = apply_moves(cur, moves)
        log.extend(moves)

    def carry(j: int, to: int, conj: bool = False) -> None:
        """Carry the pair at j to ``to``, unchanged, or conjugated by each
        factor it passes when ``conj``."""
        while j < to:
            s = 1 if conj else -1
            move(s * (j + 2), s * (j + 1))
            j += 1
        while j > to:
            s = -1 if conj else 1
            move(s * j, s * (j + 1))
            j -= 1

    pairs, end = 0, len(cur)   # cur[:pairs] holds pairs, cur[end:] the peeled factors
    while pairs < end:
        h = max(height(t) for t in cur[pairs:end])
        top = [i for i in range(pairs, end) if height(cur[i]) == h]
        move(*range(top[-1] + 1, end))
        if len(top) == 1:
            end -= 1
            continue
        move(*range(top[-2] + 1, end - 1))
        if cur[end - 2] != cur[end - 1]:
            move(-(end - 1))
        else:
            carry(end - 2, pairs)
            pairs += 2

    triple, heights = seq_to_triple(cur, d), {height(t) for t in cur[pairs:]}
    wanted: list[Perm] = []
    for piece, w in zip(triple.partition, triple.weights):
        slots = [transposition(d, piece[0], h) for h in piece[1:] if h not in heights]
        extra = (w - restricted_norm(triple.sigma, piece)) // 2 - len(slots)
        wanted += slots + [transposition(d, piece[0], piece[1]) for _ in range(extra)]
    for slot, want in zip(range(0, pairs, 2), wanted):
        for j in range(slot, pairs, 2):
            others = {cur[k]: k for k in range(len(cur)) if k not in (j, j + 1)}
            paths, todo = {cur[j]: []}, [cur[j]]
            for t in todo:
                for g, k in others.items():
                    if (u := perm_conj(t, g)) not in paths:
                        paths[u] = paths[t] + [k]
                        todo.append(u)
            if want in paths:
                break
        for k in paths[want]:   # conjugated passing the factor at k, unchanged coming back
            past, near = (k - 1, k - 2) if k > j else (k, k + 1)
            carry(j, near)
            carry(near, past, conj=True)
            carry(past, j)
        carry(j, slot)
    return log, cur


def clebsch_connect(s1: Sequence[Perm], s2: Sequence[Perm], d: Optional[int] = None):
    """Connect two transposition sequences by standard moves, when possible.

    Returns ``("log", moves)`` with ``apply_moves(s1, moves) == tuple(s2)``
    when the sequences lie in one orbit, else ``("different_invariants",
    description)`` naming the invariant (length, product, partition or
    per-piece weights) that separates them; these decide the orbit
    (Clebsch 1873, Hurwitz 1891).  Both sequences, minimal or not, are
    carried to their common ``_standard_form``.  The log is valid but not
    the shortest, and is re-verified before being reported, by a check that
    also runs under ``python -O``.
    """
    s1, s2 = tuple(s1), tuple(s2)
    if d is None:
        d = len(s1[0]) if s1 else (len(s2[0]) if s2 else 1)
    if len(s1) != len(s2):
        return ("different_invariants", "length")
    t1, t2 = seq_to_triple(s1, d), seq_to_triple(s2, d)
    if t1.sigma != t2.sigma:
        return ("different_invariants", "product")
    if t1.partition != t2.partition:
        return ("different_invariants", "partition")
    if t1.weights != t2.weights:
        return ("different_invariants", "weights")

    log1, _ = _standard_form(s1)
    log2, _ = _standard_form(s2)
    moves = log1 + _invert_moves(log2)
    if apply_moves(s1, moves) != s2:
        raise AssertionError("the move log does not carry s1 to s2")
    return ("log", moves)


# ---------------------------------------------------------------------------
# enveloping-group word problem

def env_word_problem(d: int, word: Sequence[tuple[Perm, int]]) -> tuple[int, Perm]:
    """Evaluate a word in generators [sigma]^(+-1) of the enveloping group of
    the geodesic PMQ inside Z x S_d.

    The pair (norm, underlying permutation) is a complete invariant: two
    words are equal in the enveloping group iff their images agree, and the
    image always lies in the index-2 subgroup of pairs with equal parity.
    """
    n = 0
    sigma = identity(d)
    for p, sign in word:
        if sign > 0:
            n += perm_norm(p)
            sigma = perm_mul(sigma, p)
        else:
            n -= perm_norm(p)
            sigma = perm_mul(sigma, perm_inv(p))
    return n, sigma
