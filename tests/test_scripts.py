import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import pmq.free
import pmq.symgeo

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_triple_census_runs_outside_the_checkout(tmp_path):
    # the script finds the library from its own location, not from the cwd
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "triple_census.py"), "3", "4"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()[2:]
    assert len(rows) == 5
    assert "MISMATCH" not in run.stdout


def test_triple_census_exits_1_on_a_mismatch(monkeypatch, capsys):
    # one triple too few at norm 2 must fail the run, not just print
    triples = pmq.symgeo.triples_of_weight
    monkeypatch.setattr(
        pmq.symgeo, "triples_of_weight", lambda d, n: triples(d, n)[: -1 if n == 2 else None]
    )
    monkeypatch.setattr(sys, "argv", ["triple_census.py", "3", "3"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "triple_census.py"), run_name="__main__")
    assert done.value.code == 1
    assert capsys.readouterr().out.count("MISMATCH") == 1


@pytest.mark.parametrize(
    "script, args",
    [("homology_tables.py", ["3"]), ("braid_normalisation_demo.py", [])],
    ids=["homology_tables", "braid_demo"],
)
def test_scripts_run_outside_the_checkout(tmp_path, script, args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout and "restored=False" not in run.stdout


def test_braid_demo_exits_1_on_a_failed_trial(monkeypatch, capsys):
    # one extra move after the true log leaves every trial scrambled
    normalize = pmq.free.normalize_decomposition
    monkeypatch.setattr(
        pmq.free, "normalize_decomposition", lambda *args: normalize(*args) + [1]
    )
    monkeypatch.setattr(sys, "argv", ["braid_normalisation_demo.py", "3", "4", "2"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "braid_normalisation_demo.py"), run_name="__main__")
    assert done.value.code == 1
    assert capsys.readouterr().out.count("restored=False") == 2
