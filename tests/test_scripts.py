import os
import subprocess
import sys
from pathlib import Path

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
