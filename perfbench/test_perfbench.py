"""Tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from bench import (  # noqa: E402
    WORKLOADS,
    check_items,
    grading_key,
    homology_item,
    load_reference,
    make_inputs,
    mod_p_prediction,
    setup,
)
from speed import REF_PROBE_S, SpeedProbe, clock  # noqa: E402
from tracing import Tracer, Untraced  # noqa: E402


def small_items(tmp_path, workload: str, seed: int) -> list[dict]:
    """Homology items for the S_3 gradings of norm <= 2 (fast)."""
    tr = Untraced()
    (q, comp), *_ = setup(make_inputs(workload, seed, str(tmp_path)), tr)
    mod = WORKLOADS[workload]["mod"]
    return [homology_item("S3", q, b, mod, tr) for b in comp.classes_up_to(2) if not b.is_unit]


@pytest.mark.parametrize("workload", ["homology-z", "homology-f5"])
def test_small_gradings_pass_their_checks(tmp_path, workload):
    items = small_items(tmp_path, workload, 0)
    assert check_items(workload, None, items, load_reference(), Untraced()) == []
    assert all(rec["ok"] for rec in items)


@pytest.mark.parametrize("workload", ["homology-z", "homology-f5"])
def test_corrupted_reference_entry_is_a_failure(tmp_path, workload):
    items = small_items(tmp_path, workload, 0)
    ref = copy.deepcopy(load_reference())
    victim = grading_key(items[-1]["grading"])
    entry = ref["gradings"]["S3"][victim]
    top = str(2 * entry["norm"])
    entry["H"][top] = [1, [5]]   # Z + Z/5 in the top degree instead of Z
    failures = check_items(workload, None, items, ref, Untraced())
    assert len(failures) == 1 and victim in failures[0]
    assert [rec["ok"] for rec in items] == [True] * (len(items) - 1) + [False]


def test_corrupted_cell_count_is_a_failure(tmp_path):
    items = small_items(tmp_path, "homology-z", 0)
    ref = copy.deepcopy(load_reference())
    ref["gradings"]["S3"][grading_key(items[0]["grading"])]["cells"] += 1
    assert len(check_items("homology-z", None, items, ref, Untraced())) == 1


def test_answers_do_not_depend_on_declaration_order(tmp_path):
    def keyed(seed):
        items = small_items(tmp_path, "homology-z", seed)
        return {grading_key(r["grading"]): (r["cells"], r["nnz"], r["H"]) for r in items}

    assert keyed(0) == keyed(7)


def test_inputs_repeat_per_seed_and_seed_zero_keeps_catalog_order(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = make_inputs("census-s4", 3, str(tmp_path / "a"))[0]
    b = make_inputs("census-s4", 3, str(tmp_path / "b"))[0]
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()
    from pmq.serialize import load_pmq
    from pmq.symgeo import sym_geodesic_pmq

    zero = make_inputs("census-s4", 0, str(tmp_path))[0]
    assert load_pmq(zero)[0].labels == sym_geodesic_pmq(4).labels
    assert load_pmq(a)[0].labels != sym_geodesic_pmq(4).labels


def test_wrong_census_and_ring_answers_are_failures():
    census = [{"norm": 2, "s": 0.0, "classes": 16}]
    assert len(check_items("census-s4", None, census, {}, Untraced())) == 1

    from pmq.symgeo import sym_geodesic_pmq

    q = sym_geodesic_pmq(3)
    ring = [
        {"call": "presentation", "s": 0.0, "generators": ["213", "321", "132"], "relators": 9},
        {"call": "quotient", "s": 0.0, "dims": [1, 3, 2, 0, 0]},
    ]
    failures = check_items("ring-s5", [(q, None)], copy.deepcopy(ring), {}, Untraced())
    assert failures == []
    ring[1]["dims"][2] = 3
    assert len(check_items("ring-s5", [(q, None)], ring, {}, Untraced())) == 1


def test_universal_coefficient_prediction():
    # H_1 = Z/5, H_2 = Z + Z/10, H_3 = Z/3: over F_5, H_1 and H_2 each gain
    # one from 5 | torsion and H_2, H_3 one from the Tor term.
    ref_h = {"1": [0, [5]], "2": [1, [10]], "3": [0, [3]]}
    assert mod_p_prediction(ref_h, 5) == {"1": [1, []], "2": [3, []], "3": [1, []]}


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["inner", 5.0, 6.0, 0, None],
    ]
    totals = tr.totals()
    assert totals["outer"]["self_s"] == pytest.approx(6.0)
    assert totals["inner"] == {"calls": 2, "s": 4.0, "max_s": 3.0, "self_s": 4.0}


def test_speed_correction_drops_probe_time_and_rescales():
    probe = SpeedProbe()
    for start in (0.2, 0.6):   # two probes at half the reference speed
        probe.record(start, 2 * REF_PROBE_S)
    assert probe.probe_s(0.0, 1.0) == pytest.approx(4 * REF_PROBE_S)
    assert probe.corrected(0.0, 1.0) == pytest.approx((1.0 - 4 * REF_PROBE_S) * 0.5)
    # no probe inside the interval: the mean over all probes
    assert probe.corrected(1.0, 1.01) == pytest.approx(0.005)
    tr = Untraced()
    assert tr.elapsed(1.0, 3.0) == 2.0
    tr.probe = probe
    assert tr.elapsed(0.0, 1.0) == pytest.approx(probe.corrected(0.0, 1.0))


def test_speed_probe_samples_while_work_runs():
    probe = SpeedProbe()
    probe.start()
    t = clock()
    while clock() - t < 0.3:
        sum(range(1000))
    probe.stop()
    assert probe.samples() >= 3
    assert all(t <= s <= t + 0.4 for s in probe.starts)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology-z", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
