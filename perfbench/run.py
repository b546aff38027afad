"""The pmq benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
Each workload's inputs are written as interchange JSON under
``.bench_work/`` and every measurement runs in its own single-threaded
child process (``bench.py``), one after another.

``--trace 0`` first starts ``SETUP_SAMPLES`` children that only set up,
then children that each set up and run one pass, until the next pass would
end after ``--seconds`` (at least one pass).  With a seed other than 0, each
pass after the first gets its own declaration order drawn from the seed, so
that a run's medians do not hang on one order.  Times are corrected for the
host's speed (``speed.py``; the raw wall times are in the report line).
It reports medians:

* ``setup_s``: child start to inputs ready (interpreter, ``import pmq``,
  load, validate, ``Completion``), over every child;
* ``solve_s``: one pass over the workload's items, oracles excluded;
* ``slowest_item_s``: the longest item of a pass;
* ``peak_rss_mb``: peak resident memory of a pass child.

``--trace 1`` runs one untraced and one traced pass child and reports the
per-layer metrics of the traced one, plus ``trace.overhead_s`` (traced
minus untraced ``solve_s``); spans go to ``.bench_work/spans-*.json``.

Every item is checked (``attempted``/``failed``).  The run is ``correct``
only if nothing failed, the exact counts of every child agree, and the
answer counts equal the committed baseline.  Work counts that a faster
algorithm may legitimately move are compared too, but only reported.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BASELINE = os.path.join(HERE, "baseline.json")

SETUP_SAMPLES = 5
DEADLINE_S = 170   # a run must end within 180 s

END_TO_END = {"setup_s": "s", "solve_s": "s", "slowest_item_s": "s", "peak_rss_mb": "MB"}
# Counts fixed by the mathematics: a change means a wrong answer.  The other
# counts in baseline.json measure work, which an optimisation may remove.
ANSWER_COUNTS = (
    "barhur.complexes", "barhur.cells", "barhur.nnz", "barhur.max_cells",
    "completion.classes", "snf.divisors", "snf.torsion", "ring.relators",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def child(workload, paths, *, setup_only=False, trace_out=None, timeout):
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload, "--inputs", *paths]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark child did not finish within {DEADLINE_S} s of the run") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pmq", "__init__.py")):
        print(f"no pmq sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from bench import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    start = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - start)

    os.makedirs(WORK, exist_ok=True)
    paths = make_inputs(args.workload, args.seed, WORK)

    setups = raw_setups = []
    passes = []
    traced = None
    if args.trace:
        passes.append(child(args.workload, paths, timeout=remaining())[0])
        spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
        traced = child(args.workload, paths, trace_out=spans, timeout=remaining())[0]
    else:
        setup_children = [
            child(args.workload, paths, setup_only=True, timeout=remaining())[0] for _ in range(SETUP_SAMPLES)
        ]
        setups = [c["setup_s"] for c in setup_children]
        raw_setups = [c["raw_setup_s"] for c in setup_children]
        measure_start = time.perf_counter()
        longest = 0.0
        while not passes or time.perf_counter() - measure_start + longest <= args.seconds:
            order = make_inputs(args.workload, args.seed, WORK, len(passes))
            result, wall = child(args.workload, order, timeout=remaining())
            passes.append(result)
            longest = max(longest, wall)

    children = passes + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [f for c in children for f in c["failures"]]

    with open(BASELINE) as fh:
        expected = json.load(fh)["counts"][args.workload]
    counts = {}
    for c in children:
        for name, value in c["counts"].items():
            if counts.setdefault(name, value) != value:
                problems.append(f"count {name} differs between children: {counts[name]} != {value}")
    if traced:
        for name, value in traced["layers"].items():
            if name in counts or name in expected:
                if counts.setdefault(name, value) != value:
                    problems.append(f"count {name}: traced {value} != untraced {counts[name]}")

    moved = {}
    for name, want in expected.items():
        if name in counts and counts[name] != want:
            if name in ANSWER_COUNTS:
                problems.append(f"count {name} = {counts[name]}, baseline {want}")
            else:
                moved[name] = [want, counts[name]]

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.solve_s"] = traced["solve_s"]
        layers["trace.overhead_s"] = traced["solve_s"] - passes[0]["solve_s"]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "solve_s": statistics.median(p["solve_s"] for p in passes),
            "slowest_item_s": statistics.median(p["slowest_item_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": [
            {k: p[k] for k in ("setup_s", "solve_s", "slowest_item_s", "peak_rss_mb", "raw_solve_s", "speed", "probes")}
            for p in passes
        ],
        "setup_only_s": setups,
        "raw_setup_only_s": raw_setups,
        "counts": counts,
        "moved_work_counts": moved,
        "problems": problems,
    }
    print(json.dumps(report))
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
