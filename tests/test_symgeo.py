import itertools
import random
import time
from collections import deque

import pytest

from pmq import core
from helpers import moves_by_search, run_optimised
from pmq.free import braid_act_word, word_mul
from pmq.symgeo import (
    _standard_form,
    all_transpositions,
    apply_moves,
    clebsch_connect,
    env_word_problem,
    geo_hat_conj,
    geo_hat_mul,
    height,
    identity,
    is_geodesic,
    make_triple,
    monotone_decomposition,
    perm_conj,
    perm_inv,
    perm_mul,
    perm_norm,
    seq_to_triple,
    sym_geodesic_pair,
    sym_geodesic_pmq,
    symmetric_group,
    transposition,
    triples_of_weight,
    unit_triple,
    validate_triple,
)


def bfs_norm_oracle(d: int) -> dict[tuple, int]:
    gens = all_transpositions(d)
    dist = {identity(d): 0}
    frontier = deque([identity(d)])
    while frontier:
        cur = frontier.popleft()
        for t in gens:
            nxt = perm_mul(cur, t)
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                frontier.append(nxt)
    return dist


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_norm_equals_cayley_distance(d):
    oracle = bfs_norm_oracle(d)
    for p in itertools.permutations(range(1, d + 1)):
        assert perm_norm(p) == oracle[p]


def test_norm_examples():
    assert perm_norm((2, 3, 1)) == 2
    assert perm_norm(identity(4)) == 0
    t = transposition(3, 1, 2)
    assert not is_geodesic(t, t)
    assert is_geodesic(t, transposition(3, 2, 3))


def test_monotone_decomposition_oracle():
    # unique among all minimal factorisations, for every permutation of S_4
    d = 4
    trs = all_transpositions(d)
    for sigma in itertools.permutations(range(1, d + 1)):
        r = perm_norm(sigma)
        monotone = []
        for combo in itertools.product(trs, repeat=r):
            prod = identity(d)
            for t in combo:
                prod = perm_mul(prod, t)
            if prod == sigma and [height(t) for t in combo] == sorted(
                {height(t) for t in combo}
            ):
                monotone.append(list(combo))
        assert monotone == [monotone_decomposition(sigma)]


def test_monotone_examples():
    assert monotone_decomposition(identity(3)) == []
    assert monotone_decomposition((2, 3, 1)) == [
        transposition(3, 1, 2),
        transposition(3, 2, 3),
    ]
    t = transposition(4, 2, 4)
    assert monotone_decomposition(t) == [t]


def test_geodesic_cycle_containment():
    # when norms add, every cycle of the left factor sits inside one of the product
    rng = random.Random(2)
    from pmq.symgeo import cycles

    found = 0
    while found < 60:
        d = rng.choice([4, 5])
        sigma = tuple(rng.sample(range(1, d + 1), d))
        tau = tuple(rng.sample(range(1, d + 1), d))
        if not is_geodesic(sigma, tau):
            continue
        found += 1
        prod_cycles = [set(c) for c in cycles(perm_mul(sigma, tau))]
        for c in cycles(sigma):
            assert any(set(c) <= pc for pc in prod_cycles)


def test_seq_to_triple_invariants():
    T = lambda i, j: transposition(3, i, j)
    t = seq_to_triple((T(1, 2), T(1, 2)))
    assert t.sigma == identity(3)
    assert t.partition == ((1, 2), (3,))
    assert t.weights == (2, 0)
    assert validate_triple(t) is None


def test_triple_rejects_impossible_weight():
    bad = make_triple(identity(3), [[1, 2, 3]], [2])
    assert validate_triple(bad) is not None   # needs weight >= 4
    bad2 = make_triple(identity(3), [[1], [2], [3]], [2, 0, 0])
    assert validate_triple(bad2) is not None  # singleton pieces carry weight 0
    ok = make_triple(identity(3), [[1, 2, 3]], [4])
    assert validate_triple(ok) is None


def test_triple_constant_on_move_orbits():
    rng = random.Random(9)
    for _ in range(80):
        d = rng.choice([3, 4])
        seq = tuple(rng.choice(all_transpositions(d)) for _ in range(rng.randint(1, 4)))
        t = seq_to_triple(seq, d)
        moved = apply_moves(
            seq, [rng.choice([1, -1]) * rng.randint(1, len(seq) - 1) for _ in range(5)]
        ) if len(seq) > 1 else seq
        assert seq_to_triple(moved, d) == t


def test_geo_hat_mul_matches_sequences():
    rng = random.Random(4)
    d = 4
    trs = all_transpositions(d)
    for _ in range(60):
        s1 = tuple(rng.choice(trs) for _ in range(rng.randint(0, 3)))
        s2 = tuple(rng.choice(trs) for _ in range(rng.randint(0, 3)))
        t1, t2 = seq_to_triple(s1, d), seq_to_triple(s2, d)
        assert geo_hat_mul(t1, t2) == seq_to_triple(s1 + s2, d)


def test_geo_hat_conj_matches_sequences():
    rng = random.Random(8)
    d = 4
    trs = all_transpositions(d)
    for _ in range(60):
        s1 = tuple(rng.choice(trs) for _ in range(rng.randint(1, 3)))
        s2 = tuple(rng.choice(trs) for _ in range(rng.randint(1, 3)))
        conjugated = tuple(
            perm_conj(t, s2[0]) if len(s2) == 1 else t for t in s1
        )
        # conjugate factor by factor of s2
        cur = s1
        for c in s2:
            cur = tuple(perm_conj(t, c) for t in cur)
        assert seq_to_triple(cur, d) == geo_hat_conj(
            seq_to_triple(s1, d), seq_to_triple(s2, d)
        )


def test_geo_hat_conj_relabels_by_inverse():
    d = 3
    a = seq_to_triple((transposition(3, 1, 2), transposition(3, 1, 2)), d)
    b = seq_to_triple((transposition(3, 2, 3),), d)
    conj = geo_hat_conj(a, b)
    inv = perm_inv(b.sigma)
    expected_pieces = tuple(
        sorted(tuple(sorted(inv[x - 1] for x in p)) for p in a.partition)
    )
    assert conj.partition == expected_pieces
    assert conj.weights == a.weights


def test_unit_triple_is_identity_for_mul():
    d = 4
    u = unit_triple(d)
    t = seq_to_triple((transposition(4, 1, 3), transposition(4, 2, 4)), d)
    assert geo_hat_mul(u, t) == t == geo_hat_mul(t, u)


def _random_log(rng, k, steps=8):
    return [rng.choice([1, -1]) * rng.randint(1, k - 1) for _ in range(steps)]


@pytest.mark.parametrize("d", [3, 4])
def test_table_and_permutation_moves_agree(d):
    q = sym_geodesic_pmq(d)
    perms = [tuple(int(ch) for ch in lbl) for lbl in q.labels]
    rng = random.Random(d)
    for _ in range(200):
        seq = tuple(rng.randrange(len(q)) for _ in range(rng.randint(2, 5)))
        log = _random_log(rng, len(seq))
        moved = seq
        for m in log:
            moved = q.braid_act(moved, abs(m), 1 if m > 0 else -1)
        assert apply_moves([perms[a] for a in seq], log) == tuple(perms[a] for a in moved)


def test_move_logs_invert_on_every_carrier():
    rng = random.Random(5)
    q = sym_geodesic_pmq(4)
    carriers = [
        (lambda: rng.randrange(len(q)),
         lambda s, log: core.apply_moves(s, log, q.conjugate, q.conjugate_inv)),
        (lambda: word_mul(*(rng.choice([(1,), (-1,), (2,), (-2,), (3,)]) for _ in range(3))),
         braid_act_word),
        (lambda: tuple(rng.sample(range(1, 5), 4)), apply_moves),
    ]
    for element, act in carriers:
        for _ in range(100):
            seq = tuple(element() for _ in range(rng.randint(2, 5)))
            log = _random_log(rng, len(seq))
            inverted = [-m for m in reversed(log)]
            assert act(act(seq, log), inverted) == seq


def test_clebsch_geodesic_case():
    T = lambda i, j: transposition(3, i, j)
    target = (T(1, 2), T(2, 3))
    for seq in [(T(1, 3), T(1, 2)), (T(2, 3), T(1, 3))]:
        kind, log = clebsch_connect(seq, target)
        assert kind == "log"
        assert apply_moves(seq, log) == target


def test_clebsch_different_invariants():
    T = lambda i, j: transposition(3, i, j)
    kind, what = clebsch_connect((T(1, 2), T(1, 2)), (T(1, 3), T(1, 3)))
    assert kind == "different_invariants" and what == "partition"
    kind, what = clebsch_connect((T(1, 2),), (T(1, 2), T(1, 2)))
    assert kind == "different_invariants" and what == "length"


def test_clebsch_full_group_case():
    T = lambda i, j: transposition(3, i, j)
    s1 = (T(1, 2), T(2, 3), T(1, 2))
    s2 = (T(2, 3), T(1, 2), T(2, 3))
    kind, log = clebsch_connect(s1, s2)
    assert kind == "log"
    assert apply_moves(s1, log) == s2


def _sequences(d, length):
    return itertools.product(all_transpositions(d), repeat=length)


@pytest.mark.parametrize("d, max_len", [(3, 7), (4, 5)])
def test_standard_form_depends_only_on_the_invariants(d, max_len):
    # every sequence, minimal or not: the log reaches the form, one form per
    # class of (length, product, partition, weights), and the form is the
    # pairs followed by the monotone factorisation of the product
    for n in range(max_len + 1):
        forms = {}
        for seq in _sequences(d, n):
            log, form = _standard_form(seq)
            assert apply_moves(seq, log) == form
            forms.setdefault(seq_to_triple(seq, d), set()).add(form)
        assert len(forms) == len(triples_of_weight(d, n))
        for triple, found in forms.items():
            assert len(found) == 1, (triple, found)
            (form,) = found
            pairs = n - perm_norm(triple.sigma)
            assert list(form[pairs:]) == monotone_decomposition(triple.sigma)
            assert all(form[i] == form[i + 1] for i in range(0, pairs, 2))


@pytest.mark.parametrize("d, max_len", [(3, 6), (4, 4)])
def test_move_orbits_are_the_invariant_classes(d, max_len):
    # union-find over single moves, an oracle that shares nothing with the
    # standard form: its orbits are exactly the classes of the invariants
    for n in range(max_len + 1):
        seqs = list(_sequences(d, n))
        index = {s: i for i, s in enumerate(seqs)}
        edges = [(index[s], index[apply_moves(s, [i])]) for s in seqs for i in range(1, n)]
        classes = {}
        for i, s in enumerate(seqs):
            classes.setdefault(seq_to_triple(s, d), []).append(i)
        assert core.components(len(seqs), edges) == sorted(classes.values())


def test_clebsch_agrees_with_the_move_search():
    # random sequences in S_5 against pairs (t, t) followed by the monotone
    # factorisation of their product: one length and product, and some of
    # each answer.  The search is the connection oracle; where the answer is
    # no, it runs through both orbits without meeting
    rng = random.Random(7)
    ts = all_transpositions(5)
    answers = []
    for _ in range(40):
        n = rng.randint(0, 6)
        s1 = tuple(rng.choice(ts) for _ in range(n))
        sigma = seq_to_triple(s1, 5).sigma
        pairs = [t for _ in range((n - perm_norm(sigma)) // 2) for t in [rng.choice(ts)] * 2]
        s2 = tuple(pairs + monotone_decomposition(sigma))
        kind, log = clebsch_connect(s1, s2, 5)
        assert (kind == "log") == (moves_by_search(s1, s2) is not None)
        if kind == "log":
            assert apply_moves(s1, log) == s2
        answers.append(kind)
    assert {"log", "different_invariants"} <= set(answers)


def test_clebsch_time_gates():
    # non-minimal sequences, far apart: the move-graph search this replaced
    # took 8 s for 8 transpositions of S_5 and 23 s for 10 on a 2-CPU VM
    rng = random.Random(11)
    for d, n in [(5, 10), (6, 20)]:
        ts = all_transpositions(d)
        s1 = tuple(rng.choice(ts) for _ in range(n))
        s2 = apply_moves(s1, _random_log(rng, n, 4000))
        start = time.perf_counter()
        kind, log = clebsch_connect(s1, s2)
        seconds = time.perf_counter() - start
        assert kind == "log" and apply_moves(s1, log) == s2
        assert n > perm_norm(seq_to_triple(s1, d).sigma)
        if d == 5:
            assert seconds < 1.0


def test_clebsch_log_check_holds_under_optimisation():
    # a wrong log is refused by an explicit raise, not an assert that
    # python -O strips
    run = run_optimised(
        "import pmq.symgeo as sg\n"
        "sg._standard_form = lambda seq: ([], tuple(seq))\n"
        "T = lambda i, j: sg.transposition(3, i, j)\n"
        "try:\n"
        "    sg.clebsch_connect((T(1, 2), T(2, 3)), (T(2, 3), T(1, 3)))\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "the move log does not carry s1 to s2\n"


def test_env_word_problem_examples():
    d = 4
    t = transposition(d, 1, 2)
    assert env_word_problem(d, [(t, 1), (t, 1)]) == (2, identity(d))
    sigma = (2, 3, 1, 4)
    assert env_word_problem(d, [(sigma, 1), (sigma, -1)]) == (0, identity(d))
    # the standard move does not change the image
    a, b = transposition(d, 1, 2), transposition(d, 2, 3)
    assert env_word_problem(d, [(a, 1), (b, 1)]) == env_word_problem(
        d, [(b, 1), (perm_conj(a, b), 1)]
    )


def test_env_image_parity():
    rng = random.Random(6)
    d = 4
    from pmq.symgeo import all_transpositions

    elems = list(itertools.permutations(range(1, d + 1)))
    for _ in range(50):
        word = [(rng.choice(elems), rng.choice([1, -1])) for _ in range(5)]
        n, sigma = env_word_problem(d, word)
        assert (n - perm_norm(sigma)) % 2 == 0


def test_triples_of_weight_census_small():
    assert len(triples_of_weight(3, 0)) == 1
    assert len(triples_of_weight(3, 1)) == 3
    assert len(triples_of_weight(3, 2)) == 5
    assert len(triples_of_weight(4, 2)) == 17
    assert all(validate_triple(t) is None for t in triples_of_weight(4, 3))


def test_symmetric_group_order_and_norm_grading():
    g = symmetric_group(4)
    assert len(g) == 24
    q = sym_geodesic_pmq(4)
    import collections

    census = collections.Counter(q.norm)
    assert dict(census) == {0: 1, 1: 6, 2: 11, 3: 6}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sym_geodesic_pair_is_identity_and_conjugation(d):
    pair = sym_geodesic_pair(d)
    g, q = pair.group, pair.pmq
    assert q == sym_geodesic_pmq(d) and q.labels == g.labels
    assert pair.e_map == tuple(range(len(g)))
    assert pair.r_action == tuple(tuple(g.conj(a, x) for a in range(len(q))) for x in range(len(g)))
    pair.check()
