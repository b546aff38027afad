import json
import random

import pytest

from pmq.catalog import (
    natural_truncation,
    rack_three_example,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
)
from pmq.cli import main
from pmq.core import validate
from pmq.serialize import dump_pmq, load_pmq

from helpers import mutate_once


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, q, rack in [
        ("s3geo", sym_geodesic_pmq(3), False),
        ("sp2", natural_truncation(2), False),
        ("segre", segre_pmq(), False),
        ("rack3", rack_three_example(), True),
        ("tq3", transposition_quandle(3), False),
    ]:
        path = root / f"{name}.json"
        dump_pmq(q, str(path), rack=rack)
        paths[name] = str(path)
    bad = root / "bad.json"
    bad.write_text('{"elements": ["1"], "unit": "?"}')
    paths["bad"] = str(bad)
    invalid = root / "invalid.json"
    # the three-element rack tables without the rack flag: a valid rack that
    # fails exactly the idempotence axiom of quandles
    doc = json.loads((root / "rack3.json").read_text())
    doc.pop("rack")
    invalid.write_text(json.dumps(doc))
    paths["invalid"] = str(invalid)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(files, capsys):
    code, out = run(capsys, "validate", files["s3geo"])
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_validate_axiom_violation_exit_2(files, capsys):
    code, out = run(capsys, "validate", files["invalid"])
    assert code == 2
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"][0]["axiom"] == "conj-idempotence"


def test_structural_error_exit_1(files, capsys):
    code, out = run(capsys, "validate", files["bad"])
    assert code == 1
    assert json.loads(out)["error"] == "structural"


_TWO = {"elements": ["1", "a"], "unit": "1"}


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": 5, "unit": "1"},
        {"elements": ["1", ["a"]], "unit": "1"},
        {**_TWO, "unit": ["1"]},
        {**_TWO, "conj": [["a", "a", "a"]]},
        {**_TWO, "conj": {"a": ["a"]}},
        {**_TWO, "conj": {"a": {"a": ["a"]}}},
        {**_TWO, "prod": [5]},
        {**_TWO, "prod": [["a", "a"], ["a", "a", ["1"]]]},
        {**_TWO, "prod": {"a": "a"}},
        {**_TWO, "norm": {"1": 0, "a": True}},
        {**_TWO, "norm": [0, 1]},
        {**_TWO, "rack": "yes"},
    ],
)
def test_malformed_document_exit_1_without_traceback(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == "structural"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf-8", "nested-100000-deep"],
)
def test_unreadable_file_exit_1_without_traceback(tmp_path, capsys, raw):
    path = tmp_path / "unreadable.json"
    path.write_bytes(raw)
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == "structural"
    assert "Traceback" not in captured.err


def test_precondition_exit_3(files, capsys):
    # the Segre structure is not coconnected, so the quadratic gate refuses
    code, out = run(capsys, "ring", files["segre"], "--present")
    assert code == 3
    assert json.loads(out)["failed"] == "coconnected"


def test_props(files, capsys):
    code, out = run(capsys, "props", files["s3geo"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coconnected"] is True
    assert doc["pairwise_determined"]["status"] is True


def test_complete(files, capsys):
    code, out = run(capsys, "complete", files["s3geo"], "--max-norm", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"0": 1, "1": 3, "2": 5, "3": 6}


def test_envelope(files, capsys):
    code, out = run(capsys, "envelope", files["s3geo"])
    assert code == 0
    doc = json.loads(out)
    assert doc["conjugation_relators"] == 36
    assert doc["product_relators"] == 17
    assert len(doc["relators"]) == 53


def test_ring_hilbert(files, capsys):
    code, out = run(capsys, "ring", files["s3geo"], "--hilbert", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True


def test_ring_hilbert_negative_degree_exit_3(files, capsys):
    code, out = run(capsys, "ring", files["s3geo"], "--hilbert", "-1")
    assert code == 3
    assert json.loads(out)["failed"] == "degree"


@pytest.mark.parametrize(
    "argv,option",
    [(("complete", "s3geo", "--max-norm", "-1"), "max-norm"),
     (("symgeo", "--d", "3", "--triples", "-1"), "triples"),
     (("symgeo", "--d", "0", "--triples", "1"), "d"),
     (("symgeo", "--d", "0", "--connect", "[]", "[]"), "d"),
     (("symgeo", "--d", "-2", "--connect", "[]", "[]"), "d"),
     (("symgeo", "--d", "10", "--triples", "0"), "d")],
    ids=["complete", "symgeo", "symgeo-d-census", "symgeo-d-connect", "symgeo-d-negative",
         "symgeo-d-above-9"],
)
def test_negative_bound_exit_3(files, capsys, argv, option):
    # a bound below its least value runs over no level (S_d below d = 1 has
    # no point to permute); it is refused, not answered with an empty
    # census or "connected" for two empty sequences.  The census builds the
    # tables of S_d, so a d above 9 is refused there too
    code = main([files.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["failed"] == option
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("rmax", ["-1", "0"])
def test_props_rmax_below_3_exit_3(files, capsys, rmax):
    # pairwise determination is checked from sequence length 3 on, so a
    # smaller bound checks nothing; it is refused, not reported as true
    code = main(["props", files["s3geo"], "--rmax", rmax])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["failed"] == "rmax"
    assert "Traceback" not in captured.err


def test_props_rmax_3_is_checked(files, capsys):
    code, out = run(capsys, "props", files["s3geo"], "--rmax", "3")
    assert code == 0
    pw = json.loads(out)["pairwise_determined"]
    assert pw["status"] is True and pw["r_max"] == 3


def test_symgeo_census(files, capsys):
    code, out = run(capsys, "symgeo", "--d", "3", "--triples", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["census"][2]["canonical_classes"] == 5


def test_symgeo_connect(files, capsys):
    code, out = run(
        capsys, "symgeo", "--d", "3", "--connect", "[[1,2],[2,3],[1,2]]", "[[2,3],[1,2],[2,3]]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] is True


def test_symgeo_connect_builds_no_tables(capsys):
    # only the census is bounded by the tables of S_d: sequences connect at any d
    code, out = run(capsys, "symgeo", "--d", "10", "--connect", "[[1,10],[2,3]]", "[[2,3],[1,10]]")
    assert code == 0
    assert json.loads(out)["connected"] is True


@pytest.mark.parametrize("bad",["notjson", "[[1,2,3]]", "[1]"])
def test_symgeo_connect_malformed_sequence_exit_1(capsys, bad):
    for argv in ([bad, "[[1,2]]"], ["[[1,2]]", bad]):
        code, out = run(capsys, "symgeo", "--d", "3", "--connect", *argv)
        assert code == 1
        assert json.loads(out)["error"] == "structural"


def test_homology_document(files, capsys):
    code, out = run(capsys, "homology", files["sp2"], "--grading", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["H"] == {"4": {"rank": 1, "torsion": []}}


def test_homology_csv(files, capsys):
    code, out = run(capsys, "homology", files["sp2"], "--grading", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,rank,torsion"
    assert "4,1," in lines


def test_homology_mod(files, capsys):
    code, out = run(capsys, "homology", files["segre"], "--grading", "c", "--mod", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["H"]["4"]["rank"] == 2


# 2**64 + 13 is a prime, but moduli from 2**64 on are refused
@pytest.mark.parametrize("mod", ["4", "1", "-5", "18446744073709551629"])
def test_homology_mod_must_be_prime(files, capsys, mod):
    code, out = run(capsys, "homology", files["segre"], "--grading", "c", "--mod", mod)
    assert code == 3
    assert json.loads(out)["failed"] == "prime"


def test_rack_core(files, capsys):
    code, out = run(capsys, "rack-core", files["rack3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["core_elements"] == ["1"]
    assert doc["pmq_valid"] is True


def test_every_command_reports_the_full_axiom_report(tmp_path, capsys):
    rng = random.Random(1)
    q = sym_geodesic_pmq(3)
    path = str(tmp_path / "mutant.json")
    while True:   # loading fills in unit products, so check the loaded tables
        dump_pmq(mutate_once(q, rng), path)
        if len(validate(load_pmq(path)[0]).violations) >= 2:
            break
    _, out = run(capsys, "validate", path)
    violations = json.loads(out)["violations"]
    for argv in (["complete", path, "--max-norm", "1"], ["envelope", path]):
        code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["violations"] == violations
    code, out = run(capsys, "rack-core", path)   # the PMR axioms drop idempotence
    assert code == 2
    assert json.loads(out)["violations"] == [
        v for v in violations if v["axiom"] != "conj-idempotence"
    ]


def test_byte_determinism(files, capsys):
    _, out1 = run(capsys, "homology", files["sp2"], "--grading", "2")
    _, out2 = run(capsys, "homology", files["sp2"], "--grading", "2")
    assert out1 == out2
    _, p1 = run(capsys, "props", files["s3geo"])
    _, p2 = run(capsys, "props", files["s3geo"])
    assert p1 == p2
