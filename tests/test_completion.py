import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmq.catalog import (
    natural_truncation,
    natural_with_double_one,
    norm_one_truncation,
    pointed_set_pmq,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
    unit_pmq,
)
from pmq.completion import Completion, verify_embedding
from pmq.errors import AxiomError, NormRequiredError
from pmq.symgeo import sym_geodesic_pair, triples_of_weight

from helpers import orbits, relabelled, shuffled_orders


def test_unit_and_strip():
    c = Completion(sym_geodesic_pmq(3))
    assert c.of_labels([]).is_unit
    assert c.of_labels(["123", "123"]).is_unit
    assert c.of_labels([]).norm == 0


def test_elements_over_equal_pmqs_are_equal():
    # two separately built PMQs that compare equal give equal elements with
    # equal hashes, so either stands for the other in a set or dict key
    first, second = sym_geodesic_pmq(3), sym_geodesic_pmq(3)
    assert first is not second and first == second
    a = Completion(first).of_labels(["213"])
    b = Completion(second).of_labels(["213"])
    assert a == b and hash(a) == hash(b)
    assert {a: "found"}[b] == "found"


def test_elements_over_unequal_pmqs_are_unequal():
    # the same word over a PMQ declared in another order names another
    # element, so equal words alone do not make elements equal
    q = sym_geodesic_pmq(3)
    other = relabelled(q, reversed(q.labels))
    assert other != q
    a = Completion(q).of_sequence((1,))
    b = Completion(other).of_sequence((1,))
    assert a.word == b.word and a.labels() != b.labels()
    assert a != b and not a == b


def test_requires_norm():
    from pmq.catalog import group_pmq, cyclic_group

    q = group_pmq(cyclic_group(2))
    with pytest.raises(NormRequiredError):
        Completion(q)


def test_norm_vanishing_outside_the_unit_is_rejected_up_front():
    # so sequences_of_norm may take every non-unit norm to be positive
    with pytest.raises(AxiomError) as err:
        Completion(pointed_set_pmq({"a": 0, "b": 1}))
    assert "norm-kernel" in {v.axiom for v in err.value.report.violations}


def test_sequences_of_norm_are_not_kept():
    c = Completion(transposition_quandle(3))
    first = c.sequences_of_norm(3)
    assert len(first) == 27
    second = c.sequences_of_norm(3)
    assert second == first and second is not first


def test_standard_move_classes_merge():
    q = sym_geodesic_pmq(3)
    c = Completion(q)
    x = c.of_labels(["213", "132"])   # (1,2), (2,3)
    y = c.of_labels(["132", "321"])   # (2,3), (1,3)
    assert x == y
    # the pair contracts to the geodesic product, a single 3-cycle
    assert len(x.word) == 1
    assert q.labels[x.word[0]] == "231"


def test_hat_mul_monoid_laws_and_relation():
    q = sym_geodesic_pmq(3)
    c = Completion(q)
    elems = [c.element(a) for a in range(len(q))]
    u = c.unit()
    for x in elems:
        assert x * u == x and u * x == x
    # a b = b (a^b) for every pair, exhaustively
    for a in range(len(q)):
        for b in range(len(q)):
            left = c.mul(c.element(a), c.element(b))
            right = c.mul(c.element(b), c.element(q.conj[a][b]))
            assert left == right
    # associativity on a sample of triples
    for a, b, d in itertools.islice(itertools.product(range(len(q)), repeat=3), 0, 216, 7):
        x, y, z = c.element(a), c.element(b), c.element(d)
        assert (x * y) * z == x * (y * z)


def test_norm_additive_on_hat():
    q = sym_geodesic_pmq(3)
    c = Completion(q)
    x = c.of_labels(["213", "132"])
    y = c.of_labels(["321"])
    assert (x * y).norm == x.norm + y.norm == 3
    assert c.unit().norm == 0
    assert c.of_labels(["213", "213"]).norm == 2


def test_noncommuting_letters_in_free_quandle_style_completion():
    # quandle of transpositions with trivial product: x1 x2 != x2 x1
    tq = transposition_quandle(3)
    c = Completion(tq)
    a, b = "213", "321"
    assert c.of_labels([a, b]) != c.of_labels([b, a])


def test_conj_is_bijection_per_norm_level():
    q = sym_geodesic_pmq(3)
    c = Completion(q)
    y = c.of_labels(["213"])
    for n in (1, 2, 3):
        level = c.classes_of_norm(n)
        image = {h.conj(y) for h in level}
        assert image == set(level)
        for h in level:
            assert h.conj(y).conj_inv(y) == h


def test_verify_embedding_examples():
    assert verify_embedding(unit_pmq())["ok"]
    report = verify_embedding(sym_geodesic_pmq(3), pair=sym_geodesic_pair(3))
    assert report["ok"] and report["injective"] and report["join_cross_check"]
    assert verify_embedding(transposition_quandle(3))["ok"]


def test_join_cross_check_walks_every_sequence_once(monkeypatch):
    q = sym_geodesic_pmq(3)
    walked = []

    class Recording:
        """A join whose product of a sequence is the sequence itself."""

        def product_word(self, seq):
            walked.append(seq)
            return seq

    import pmq.core

    monkeypatch.setattr(pmq.core, "join_pmq_group", lambda pair: Recording())
    report = verify_embedding(q, pair=sym_geodesic_pair(3), budget=3)
    # classes with more than one state now see more than one value
    assert report["join_cross_check"] is False and not report["ok"]
    singletons = [(a,) for a in range(len(q))]
    assert sorted(walked) == sorted([s for n in range(1, 4) for s in _sequences(q, n)] + singletons)


def test_coconnected_comparison_with_norm_one_truncation():
    # for coconnected structures the completion only sees norm-one letters
    for q, budget in ((sym_geodesic_pmq(3), 4), (natural_truncation(3), 4)):
        c = Completion(q)
        c1 = Completion(norm_one_truncation(q))
        for n in range(budget + 1):
            small = c1.classes_of_norm(n)
            mapped = {c.of_sequence(tuple(q.index(l) for l in h.labels())) for h in small}
            assert len(mapped) == len(small) == len(c.classes_of_norm(n))


def test_non_coconnected_comparison_fails():
    q = natural_with_double_one(3)
    c = Completion(q)
    c1 = Completion(norm_one_truncation(q))
    small = c1.classes_of_norm(2)
    mapped = {c.of_sequence(tuple(q.index(l) for l in h.labels())) for h in small}
    assert len(mapped) < len(small)   # (1,1) and (1',1') fuse once contraction exists


def test_classes_counts_sdgeo3():
    c = Completion(sym_geodesic_pmq(3))
    assert [len(c.classes_of_norm(n)) for n in range(5)] == [1, 3, 5, 6, 6]


def _length_lex(words):
    return sorted(words, key=lambda w: (len(w), w))


@pytest.mark.parametrize(
    "q, top",
    [
        (sym_geodesic_pmq(3), 4),
        (sym_geodesic_pmq(4), 4),
        (natural_truncation(3), 5),
        (transposition_quandle(3), 4),   # trivial product: braid moves only
        (natural_with_double_one(3), 5),
        (pointed_set_pmq({"a": 1, "b": 2}), 5),   # b is no product of letters
    ],
)
def test_classes_of_norm_match_generate_and_filter(q, top):
    built = Completion(q)
    oracle = Completion(q)
    for n in range(top + 1):
        expected = _length_lex({oracle.canonical(s) for s in oracle.sequences_of_norm(n)})
        level = built.classes_of_norm(n)
        assert [h.word for h in level] == expected
        assert all(h.norm == n for h in level)


def _reference_canonical(q, seqs):
    """Length-lex minimum of each sequence's class, by breadth-first search
    over int tuples with all three moves, contractions and expansions."""
    splits = {}
    for (a, b), c in q.prod.items():
        if a != q.unit and b != q.unit:
            splits.setdefault(c, []).append((a, b))

    def moves(seq):
        for j in range(len(seq) - 1):
            a, b = seq[j], seq[j + 1]
            head, tail = seq[:j], seq[j + 2 :]
            if (a, b) in q.prod:
                yield head + (q.prod[(a, b)],) + tail
            yield head + (b, q.conj[a][b]) + tail
            yield head + (q.conjugate_inv(b, a), a) + tail
        for j, x in enumerate(seq):
            for pair in splits.get(x, ()):
                yield seq[:j] + pair + seq[j + 1 :]

    canon = {}
    for seq in seqs:
        if seq in canon:
            continue
        seen, frontier = {seq}, [seq]
        while frontier:
            frontier = [t for s in frontier for t in moves(s) if t not in seen and not seen.add(t)]
        best = min(seen, key=lambda s: (len(s), s))
        canon.update(dict.fromkeys(seen, best))
    return canon


@pytest.mark.parametrize(
    "q, top",
    [(sym_geodesic_pmq(3), 4), (sym_geodesic_pmq(4), 3), (transposition_quandle(3), 3)],
)
def test_canonical_matches_bfs_with_inverse_moves(q, top):
    c = Completion(q)
    seqs = [s for n in range(top + 1) for s in c.sequences_of_norm(n)]
    reference = _reference_canonical(q, seqs)
    for s in seqs:
        assert c.canonical(s) == reference[s]
    # units are stripped before the search
    with_units = (q.unit,) + seqs[-1] + (q.unit,)
    assert c.canonical(with_units) == reference[seqs[-1]]


def _sequences(q, n):
    """Every sequence of non-unit elements with total norm n."""
    letters = [a for a in range(len(q)) if a != q.unit]
    if n == 0:
        return [()]
    return [
        (a,) + rest
        for a in letters
        if q.norm[a] <= n
        for rest in _sequences(q, n - q.norm[a])
    ]


@pytest.mark.parametrize(
    "q, top",
    [
        (sym_geodesic_pmq(3), 5),
        (sym_geodesic_pmq(4), 4),
        (natural_truncation(3), 5),
        (transposition_quandle(3), 4),
        (segre_pmq(), 4),
        (natural_with_double_one(3), 5),
        (pointed_set_pmq({"a": 1, "b": 2}), 5),
    ],
    ids=["S3", "S4", "nat3", "tq3", "segre", "double1", "pointed"],
)
def test_canonical_and_census_match_reference_bfs_in_every_order(q, top):
    # the oracle is the three-move search alone, never Completion.canonical
    for p in shuffled_orders(q):
        levels = [_sequences(p, n) for n in range(top + 1)]
        reference = _reference_canonical(p, [s for level in levels for s in level])
        swept = Completion(p)
        for level in levels:
            for s in level:
                assert swept.canonical(s) == reference[s]
        built = Completion(p)
        for n, level in enumerate(levels):
            expected = _length_lex({reference[s] for s in level})
            assert [h.word for h in built.classes_of_norm(n)] == expected


def test_s4_census_matches_triples_and_canonical_matches_bfs():
    q = sym_geodesic_pmq(4)
    c = Completion(q)
    assert [len(c.classes_of_norm(n)) for n in range(8)] == [
        len(triples_of_weight(4, n)) for n in range(8)
    ]
    seqs = _sequences(q, 3)
    reference = _reference_canonical(q, seqs)
    assert [c.canonical(s) for s in seqs] == [reference[s] for s in seqs]


def test_nodes_per_level_are_letters_times_lower_classes():
    q = sym_geodesic_pmq(4)
    c = Completion(q)
    letters = [a for a in range(len(q)) if a != q.unit]
    for n in range(8):
        c.classes_of_norm(n)
        nodes = sum(map(len, c._nodes[n]))
        assert nodes == sum(len(c.classes_of_norm(n - q.norm[a])) for a in letters)
    assert nodes == 960


def _levels_by_orbits(q, top):
    """Every norm level's class words and node lists rebuilt with no
    union-find: the classes of norm m are the orbits (breadth-first search)
    of the node graph over (a, w) tuples, whose braid and contraction edges
    are read off the levels below, in both directions."""
    letters = [a for a in range(len(q)) if a != q.unit]
    words, nodes, node_class = [[()]], [[[]]], [{}]
    for m in range(1, top + 1):
        level = [
            (a, w) for a in letters if q.norm[a] <= m for w in range(len(words[m - q.norm[a]]))
        ]
        adjacency = {v: set() for v in level}
        for v in level:
            a, w = v
            for x, u in nodes[m - q.norm[a]][w]:
                ends = [(x, node_class[m - q.norm[x]][q.conj[a][x], u])]
                if (a, x) in q.prod:
                    ends.append((q.prod[a, x], u))
                for e in ends:
                    adjacency[v].add(e)
                    adjacency[e].add(v)

        def key(v):
            word = (v[0],) + words[m - q.norm[v[0]]][v[1]]
            return len(word), word

        ranked = sorted((min(map(key, c)), sorted(c)) for c in orbits(level, adjacency.__getitem__))
        words.append([word for (_, word), _ in ranked])
        nodes.append([c for _, c in ranked])
        node_class.append({v: i for i, (_, c) in enumerate(ranked) for v in c})
    return words, nodes


@pytest.mark.parametrize(
    "q, top", [(sym_geodesic_pmq(4), 6), (natural_truncation(3), 5)], ids=["S4", "nat3"]
)
def test_levels_match_orbits_of_the_node_graph(q, top):
    c = Completion(q)
    c.classes_of_norm(top)
    words, nodes = _levels_by_orbits(q, top)
    assert c._words[: top + 1] == words
    assert c._nodes[: top + 1] == nodes


def test_s5_census_to_norm_7_matches_triples():
    c = Completion(sym_geodesic_pmq(5))
    counts = [len(c.classes_of_norm(n)) for n in range(8)]
    assert counts == [len(triples_of_weight(5, n)) for n in range(8)]
    assert sum(counts) == 1414


_ORACLE = [
    sym_geodesic_pmq(3),
    sym_geodesic_pmq(4),
    natural_truncation(3),
    transposition_quandle(3),
    segre_pmq(),
    natural_with_double_one(3),
    pointed_set_pmq({"a": 1, "b": 2}),
]


@pytest.mark.parametrize(
    "q", _ORACLE, ids=["S3", "S4", "nat3", "tq3", "segre", "double1", "pointed"]
)
def test_class_states_match_reference_bfs_in_every_order(q):
    # each class's states are the sequences the three-move search puts in it
    for p in shuffled_orders(q):
        c = Completion(p)
        for n in range(5):
            level = _sequences(p, n)
            reference = _reference_canonical(p, level)
            listed = []
            for h in c.classes_of_norm(n):
                expected: dict = {}
                for s in sorted(s for s in level if reference[s] == h.word):
                    expected.setdefault(len(s), []).append(s)
                states = c.class_states(h)
                assert states == expected
                listed += [s for group in states.values() for s in group]
            # the classes of a norm partition its sequences
            assert sorted(listed) == sorted(level)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_of_random_sequences_matches_reference_bfs(data):
    q = data.draw(st.sampled_from(_ORACLE))
    p = relabelled(q, data.draw(st.permutations(q.labels)))
    seq: tuple = ()
    for a in data.draw(st.lists(st.integers(0, len(p) - 1), max_size=5)):
        if sum(p.norm[x] for x in seq) + p.norm[a] <= 4:
            seq += (a,)
    stripped = tuple(x for x in seq if x != p.unit)
    assert Completion(p).canonical(seq) == _reference_canonical(p, [stripped])[stripped]


_SMALL = [sym_geodesic_pmq(3), natural_truncation(3), segre_pmq(), transposition_quandle(3)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(range(len(_SMALL))).flatmap(
    lambda i: st.tuples(st.just(_SMALL[i]), st.permutations(_SMALL[i].labels))
))
def test_classes_invariant_under_declaration_order(q_and_order):
    q, order = q_and_order
    p = relabelled(q, order)
    cq, cp = Completion(q), Completion(p)
    for n in range(5):
        assert len(cp.classes_of_norm(n)) == len(cq.classes_of_norm(n))
        # the partition of sequences into classes, read as labels
        parts = []
        for c, r in ((cq, q), (cp, p)):
            blocks: dict = {}
            for s in _sequences(r, n):
                blocks.setdefault(c.canonical(s), set()).add(r.to_labels(s))
            parts.append({frozenset(b) for b in blocks.values()})
        assert parts[0] == parts[1]


_Q3 = sym_geodesic_pmq(3)
_C3 = Completion(_Q3)
# keep operands at norm <= 2 so products stay at a searchable total norm
_words = st.lists(st.integers(0, len(_Q3) - 1), max_size=2).filter(
    lambda w: sum(_Q3.norm[x] for x in w) <= 2
)


@settings(max_examples=60, deadline=None)
@given(_words, _words, _words)
def test_hat_mul_associative_property(a, b, c):
    x, y, z = (_C3.of_sequence(tuple(w)) for w in (a, b, c))
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(_words, _words)
def test_hat_shuffle_identity_property(a, b):
    # xy = y (x^y) holds in the completion for arbitrary classes
    x, y = _C3.of_sequence(tuple(a)), _C3.of_sequence(tuple(b))
    assert x * y == y * x.conj(y)


@settings(max_examples=60, deadline=None)
@given(_words, _words)
def test_hat_conj_inverse_property(a, b):
    x, y = _C3.of_sequence(tuple(a)), _C3.of_sequence(tuple(b))
    assert x.conj(y).conj_inv(y) == x
    assert x.conj_inv(y).conj(y) == x
