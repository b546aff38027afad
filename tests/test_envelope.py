import pytest

from pmq.catalog import cyclic_group, natural_truncation, sym_geodesic_pmq, unit_pmq
from pmq.envelope import GroupTimesZn, env_semidirect, presentation, verify_hom
from pmq.symgeo import perm_norm, symmetric_group


def test_presentation_unit_pmq():
    pres = presentation(unit_pmq())
    assert pres.generators == ("1",)
    # one conjugation relator and the product relator [1][1][1]^-1
    assert len(pres.conj_relators) == 1
    assert pres.product_relators == ((1, 1, -1),)


def test_presentation_counts_sdgeo3():
    q = sym_geodesic_pmq(3)
    pres = presentation(q)
    assert len(pres.generators) == 6
    assert len(pres.conj_relators) == 36
    # product relators exactly for the norm-additive pairs of the group
    g = symmetric_group(3)
    additive = sum(
        1
        for a in range(6)
        for b in range(6)
        if q.norm[g.mult[a][b]] == q.norm[a] + q.norm[b]
    )
    assert len(pres.product_relators) == len(q.prod) == additive == 17


def test_abelian_conj_relators_are_commutators():
    q = natural_truncation(2)
    pres = presentation(q)
    for (bneg, a, b, img_neg) in pres.conj_relators:
        assert -img_neg == a  # a^b = a, so the relator is the commutator


def test_relator_lines_format():
    pres = presentation(natural_truncation(1))
    lines = pres.relator_lines()
    assert all(isinstance(l, str) and l for l in lines)
    assert any("^-1" in l for l in lines)


def test_env_semidirect_trivial_action_single_point():
    g = cyclic_group(3)
    env = env_semidirect(g, ["s"], {("s", str(i)): "s" for i in range(3)})
    assert env.ok
    assert env.orbits == (("s",),)
    assert env.relators_ok and env.collapse_ok and env.orbit_generators_central


def test_env_semidirect_swap_two_points():
    g = cyclic_group(2)
    action = {("s", "0"): "s", ("s", "1"): "t", ("t", "0"): "t", ("t", "1"): "s"}
    env = env_semidirect(g, ["s", "t"], action)
    assert env.ok
    assert env.orbits == (("s", "t"),)
    # the collapse [s] = [s.g] identifies both point generators
    assert env.images[env.pmq.index("s")] == env.images[env.pmq.index("t")]


def test_env_semidirect_two_swapped_pairs():
    g = cyclic_group(2)
    swap = {"s": "t", "t": "s", "u": "v", "v": "u"}
    action = {}
    for s, t in swap.items():
        action[(s, "0")] = s
        action[(s, "1")] = t
    env = env_semidirect(g, ["s", "t", "u", "v"], action)
    assert env.ok
    assert env.orbits == (("s", "t"), ("u", "v"))
    # one free generator per orbit: the two orbits have different images
    image = {x: env.images[env.pmq.index(x)] for x in swap}
    assert image["s"] == image["t"] != image["u"] == image["v"]


def test_env_semidirect_trivial_group_free_abelian():
    from pmq.core import FiniteGroup

    g = FiniteGroup.from_table(["1"], [[0]])
    env = env_semidirect(g, ["s", "t"], {("s", "1"): "s", ("t", "1"): "t"})
    assert env.ok
    assert len(env.orbits) == 2
    imgs = {env.images[env.pmq.index(x)] for x in ("s", "t")}
    assert len(imgs) == 2


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_verify_hom_norm_permutation_map(d):
    q = sym_geodesic_pmq(d)
    grp = symmetric_group(d)
    target = GroupTimesZn(grp, 1)
    images = [
        (grp.index(lbl), (perm_norm(tuple(int(c) for c in lbl)),)) for lbl in q.labels
    ]
    assert verify_hom(q, target, images)


def test_verify_hom_constant_unit():
    q = sym_geodesic_pmq(3)
    grp = symmetric_group(3)
    target = GroupTimesZn(grp, 1)
    images = [(grp.unit, (0,))] * len(q)
    assert verify_hom(q, target, images)


def test_verify_hom_detects_perturbation():
    q = sym_geodesic_pmq(3)
    grp = symmetric_group(3)
    target = GroupTimesZn(grp, 1)
    images = [
        (grp.index(lbl), (perm_norm(tuple(int(c) for c in lbl)),)) for lbl in q.labels
    ]
    images[3] = (images[3][0], (images[3][1][0] + 2,))
    assert not verify_hom(q, target, images)
