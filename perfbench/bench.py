"""The pmq benchmark's workloads, and the child process that runs one pass.

A child sets up its inputs exactly as the CLI does (load interchange JSON,
validate, build a ``Completion``), runs one pass over the workload's items,
checks every answer against an oracle outside the timed region (see
README.md), and prints one JSON line.  ``run.py`` starts the children.

    python3 perfbench/bench.py --workload W --inputs A.json [B.json] --t0 T
        [--setup-only] [--trace-out spans.json]

``--t0`` is the parent's ``time.perf_counter()`` just before it started the
child (the same monotonic clock on Linux), so ``setup_s`` includes
interpreter start and ``import pmq``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, Untraced, clock  # noqa: E402

import pmq.snf  # noqa: E402
from pmq.barhur import build_relative_complex, homology  # noqa: E402
from pmq.completion import Completion  # noqa: E402
from pmq.core import validate  # noqa: E402
from pmq.ring import quadratic_presentation, quadratic_quotient_dimensions  # noqa: E402
from pmq.serialize import load_pmq, pmq_to_json  # noqa: E402
from pmq.symgeo import monotone_decomposition, seq_to_triple, sym_geodesic_pmq, triples_of_weight  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 10

# Each input is (name, d, bound): the geodesic PMQ of S_d, with its
# gradings or norm levels up to norm ``bound``, or its ring up to that degree.
WORKLOADS = {
    "homology-z": {"inputs": [("S3", 3, 4)], "mod": 0},
    "homology-f5": {"inputs": [("S3", 3, 4), ("S4", 4, 3)], "mod": 5},
    "census-s4": {"inputs": [("S4", 4, 7)]},
    "ring-s5": {"inputs": [("S5", 5, 4)]},
}


# ---------------------------------------------------------------------------
# inputs

def make_inputs(workload: str, seed: int, directory: str, order: int = 0) -> list[str]:
    """Write each input PMQ as interchange JSON and return the paths.

    Seed 0 keeps catalog declaration order; any other seed shuffles it,
    and ``order`` > 0 draws a further shuffle from the same seed (one per
    pass of a run).  Canonical labels and pivot orders depend on that
    order; the checked answers do not.
    """
    paths = []
    for name, d, _ in WORKLOADS[workload]["inputs"]:
        doc = pmq_to_json(sym_geodesic_pmq(d))
        if seed:
            key = f"{seed}:{name}" if order == 0 else f"{seed}:{name}:{order}"
            random.Random(key).shuffle(doc["elements"])
        path = os.path.join(directory, f"{workload}-{name}-seed{seed}-{order}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths.append(path)
    return paths


def setup(paths: list[str], tr) -> list[tuple]:
    """Load, validate and complete each input as ``pmq homology`` does."""
    out = []
    for path in paths:
        q, _ = tr.call("serialize.load", load_pmq, path)
        report = tr.call("core.validate", validate, q)
        if not report.ok:
            raise SystemExit(f"{path}: invalid PMQ: {report}")
        out.append((q, tr.call("completion.init", Completion, q)))
    return out


# ---------------------------------------------------------------------------
# one pass; each returns (solve seconds, item records)

def homology_item(name: str, q, b, mod: int, tr) -> dict:
    """One grading: build its complex and reduce it (timed as ``s``)."""
    tr.item = f"{name}:{','.join(b.labels())}"
    t = clock()
    cx = tr.call("barhur.build", build_relative_complex, q, b, mod=mod)
    h = tr.call("snf.homology", homology, cx)
    dt = tr.elapsed(t, clock())
    rec = {
        "input": name,
        "grading": b,
        "s": dt,
        "cells": sum(cx.dims().values()),
        "nnz": sum(len(m) for m in cx.differentials.values()),
        "H": {n: (v["rank"], v.get("torsion", [])) for n, v in h.items()},
    }
    if isinstance(tr, Tracer):
        rec["dd_ok"] = tr.call("barhur.dd_check", cx.check_boundary_squared)
    return rec


def homology_pass(workload: str, inputs, tr):
    mod = WORKLOADS[workload]["mod"]
    solve = 0.0
    items = []
    for (name, _, max_norm), (q, comp) in zip(WORKLOADS[workload]["inputs"], inputs):
        t = clock()
        gradings = [b for b in comp.classes_up_to(max_norm) if not b.is_unit]
        solve += tr.elapsed(t, clock())
        for b in gradings:
            items.append(homology_item(name, q, b, mod, tr))
            solve += items[-1]["s"]
    return solve, items


def census_pass(workload: str, inputs, tr):
    (_, _, max_norm), (_, comp) = WORKLOADS[workload]["inputs"][0], inputs[0]
    solve = 0.0
    items = []
    for n in range(max_norm + 1):
        tr.item = f"norm{n}"
        t = clock()
        classes = tr.call("completion.classes", comp.classes_of_norm, n)
        dt = tr.elapsed(t, clock())
        solve += dt
        items.append({"norm": n, "s": dt, "classes": len(classes)})
    return solve, items


def ring_pass(workload: str, inputs, tr):
    (_, _, degree), (q, _) = WORKLOADS[workload]["inputs"][0], inputs[0]
    tr.item = "presentation"
    t = clock()
    pres = tr.call("ring.presentation", quadratic_presentation, q, require_tame=False)
    t1 = clock()
    tr.item = "quotient"
    dims = tr.call("ring.quotient", quadratic_quotient_dimensions, q, degree, presentation=pres)
    t2 = clock()
    pres_s, quot_s = tr.elapsed(t, t1), tr.elapsed(t1, t2)
    return pres_s + quot_s, [
        {"call": "presentation", "s": pres_s, "generators": list(pres.generators),
         "relators": len(pres.relator_vectors())},
        {"call": "quotient", "s": quot_s, "dims": [a for _, a, _ in dims]},
    ]


PASSES = {
    "homology-z": homology_pass,
    "homology-f5": homology_pass,
    "census-s4": census_pass,
    "ring-s5": ring_pass,
}


# ---------------------------------------------------------------------------
# oracles (untimed)

def grading_key(b) -> str:
    """A name for a completion class of a symmetric geodesic PMQ that does
    not depend on declaration order: its closed-form triple (product,
    orbit partition, weights), read off a transposition factorisation of
    the canonical word."""
    perms = [tuple(int(ch) for ch in lbl) for lbl in b.labels()]
    d = len(perms[0])
    seq = [t for p in perms for t in monotone_decomposition(p)]
    t = seq_to_triple(seq, d)
    return json.dumps([t.sigma, t.partition, t.weights], separators=(",", ":"))


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def table_of(h: dict) -> dict[str, list]:
    """Nonzero part of a homology table, JSON-shaped: degree -> [rank, torsion]."""
    return {str(n): [r, list(t)] for n, (r, t) in sorted(h.items()) if r or t}


def mod_p_prediction(ref_h: dict[str, list], p: int) -> dict[str, list]:
    """Betti numbers over F_p from integer homology, by universal
    coefficients: rank H_n + #{p | tors H_n} + #{p | tors H_(n-1)}."""
    degrees = {int(n) for n in ref_h} | {int(n) + 1 for n in ref_h}
    out = {}
    for n in sorted(degrees):
        rank, tors = ref_h.get(str(n), [0, []])
        below = ref_h.get(str(n - 1), [0, []])[1]
        betti = rank + sum(1 for t in tors if t % p == 0) + sum(1 for t in below if t % p == 0)
        if betti:
            out[str(n)] = [betti, []]
    return out


def check_items(workload: str, inputs, items: list[dict], ref: dict, tr) -> list[str]:
    """Check every item; return one line per failed item (empty when all
    pass) and mark each record with ``ok``."""
    failures = []
    if workload.startswith("homology"):
        mod = WORKLOADS[workload]["mod"]
        for rec in items:
            key = grading_key(rec.pop("grading"))
            rec["key"] = key
            want = ref["gradings"][rec["input"]].get(key)
            got = table_of(rec["H"])
            problems = []
            if want is None:
                problems.append("grading missing from the reference")
            else:
                norm = want["norm"]
                if workload == "homology-z":
                    if got.get(str(2 * norm)) != [1, []]:
                        problems.append(f"top class in degree {2 * norm} is not Z")
                    if got != want["H"]:
                        problems.append(f"table {got} != reference {want['H']}")
                elif got != mod_p_prediction(want["H"], mod):
                    problems.append(f"F_{mod} table {got} != prediction {mod_p_prediction(want['H'], mod)}")
                if rec["cells"] != want["cells"] or rec["nnz"] != want["nnz"]:
                    problems.append(f"cells/nnz {rec['cells']}/{rec['nnz']} != {want['cells']}/{want['nnz']}")
            if rec.get("dd_ok") is False:
                problems.append("d∘d != 0")
            rec["H"] = got
            rec["ok"] = not problems
            if problems:
                failures.append(f"{rec['input']} {key}: " + "; ".join(problems))
    elif workload == "census-s4":
        d = WORKLOADS[workload]["inputs"][0][1]
        for rec in items:
            want = len(tr.call("symgeo.triples", triples_of_weight, d, rec["norm"]))
            rec["ok"] = rec["classes"] == want
            if not rec["ok"]:
                failures.append(f"norm {rec['norm']}: {rec['classes']} classes != {want} triples")
    else:
        q = inputs[0][0]
        degree = WORKLOADS[workload]["inputs"][0][2]
        census = [sum(1 for v in q.norm if v == k) for k in range(degree + 1)]
        ones = sorted(q.labels[a] for a in range(len(q)) if q.norm[a] == 1)
        pres, quot = items
        pres["ok"] = sorted(pres["generators"]) == ones
        quot["ok"] = quot["dims"] == census
        if not pres["ok"]:
            failures.append("presentation generators are not the norm-one elements")
        if not quot["ok"]:
            failures.append(f"quotient dimensions {quot['dims']} != norm census {census}")
    return failures


# ---------------------------------------------------------------------------
# counts

def item_counts(workload: str, items: list[dict]) -> dict[str, int]:
    """Exact counts that both the traced and the untraced child see."""
    if workload.startswith("homology"):
        out = {
            "barhur.complexes": len(items),
            "barhur.cells": sum(r["cells"] for r in items),
            "barhur.nnz": sum(r["nnz"] for r in items),
            "barhur.max_cells": max(r["cells"] for r in items),
        }
        if workload == "homology-z":
            # sum over degrees of dim = sum of Betti numbers + 2 * sum of ranks
            betti = sum(r for rec in items for r, _ in rec["H"].values())
            out["snf.divisors"] = (out["barhur.cells"] - betti) // 2
            out["snf.torsion"] = sum(len(t) for rec in items for _, t in rec["H"].values())
        return out
    if workload == "census-s4":
        return {"completion.classes": sum(r["classes"] for r in items)}
    return {"ring.relators": items[0]["relators"]}


def install_wrappers(tr: Tracer, inputs) -> None:
    """Span the library's public entry points that the pass reaches only
    indirectly: SNF and rank mod p as ``pmq.snf`` module attributes (which
    ``homology_groups`` looks up at call time), and the completion
    instances' ``of_sequence`` and ``sequences_of_norm``."""
    pmq.snf.smith_normal_form = tr.wrap(
        "snf.smith", pmq.snf.smith_normal_form,
        keep=lambda args, divs: (len(args[0]), len(divs), sum(1 for v in divs if v != 1)),
    )
    pmq.snf.rank_mod_p = tr.wrap("snf.rank_mod_p", pmq.snf.rank_mod_p)
    for _, comp in inputs:
        comp.of_sequence = tr.wrap("completion.of_sequence", comp.of_sequence)
        comp.sequences_of_norm = tr.wrap(
            "completion.sequences_of_norm", comp.sequences_of_norm,
            keep=lambda args, seqs: len(seqs),
        )


def layer_metrics(tr: Tracer, counts: dict[str, int], speed: float) -> dict[str, float]:
    # One speed for every span, that of the whole pass, so that a parent
    # span is the sum of its children and its self time.
    tot = tr.totals(lambda a, b: tr.probe.corrected(a, b, speed))

    def get(name, field="s"):
        return tot.get(name, {}).get(field, 0)

    smith = [tr.results[i] for i in tr.select("snf.smith")]
    candidates = len(tr.select("completion.of_sequence", "barhur.build"))
    cells = counts.get("barhur.cells", 0)
    return {
        "serialize.load_s": get("serialize.load"),
        "core.validate_s": get("core.validate"),
        "completion.init_s": get("completion.init"),
        "completion.classes_s": get("completion.classes"),
        "completion.sequences": sum(
            tr.results[i] for i in tr.select("completion.sequences_of_norm", "completion.classes")
        ),
        "completion.classes": counts.get("completion.classes", 0),
        "completion.of_sequence_calls": get("completion.of_sequence", "calls"),
        "completion.of_sequence_s": get("completion.of_sequence"),
        "barhur.build_s": get("barhur.build"),
        "barhur.self_s": get("barhur.build", "self_s"),
        "barhur.dd_check_s": get("barhur.dd_check"),
        "barhur.complexes": counts.get("barhur.complexes", 0),
        "barhur.cells": cells,
        "barhur.nnz": counts.get("barhur.nnz", 0),
        "barhur.max_cells": counts.get("barhur.max_cells", 0),
        "barhur.candidates": candidates,
        "barhur.keep_ratio": cells / candidates if candidates else 0.0,
        "snf.homology_s": get("snf.homology"),
        "snf.smith_calls": get("snf.smith", "calls"),
        "snf.smith_s": get("snf.smith"),
        "snf.smith_max_s": get("snf.smith", "max_s"),
        "snf.smith_nnz": sum(k[0] for k in smith),
        "snf.divisors": sum(k[1] for k in smith),
        "snf.torsion": sum(k[2] for k in smith),
        "snf.rank_mod_p_calls": get("snf.rank_mod_p", "calls"),
        "snf.rank_mod_p_s": get("snf.rank_mod_p"),
        "snf.rank_mod_p_max_s": get("snf.rank_mod_p", "max_s"),
        "symgeo.triples_s": get("symgeo.triples"),
        "ring.presentation_s": get("ring.presentation"),
        "ring.quotient_s": get("ring.quotient"),
        "ring.relators": counts.get("ring.relators", 0),
    }


# ---------------------------------------------------------------------------
# the child process

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", nargs="+", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    tr = Tracer() if args.trace_out else Untraced()
    tr.probe = probe = SpeedProbe()
    t = clock()
    probe.start()
    inputs = setup(args.inputs, tr)
    end = clock()
    # Interpreter start and imports came before the probe: rescale all of
    # set-up by the speed during it and just after it.
    for _ in range(SETUP_PROBES):
        probe.sample()
    setup_s = (end - args.t0 - probe.probe_s(t, end)) * probe.factor(t, clock())
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": end - args.t0}))
        return 0

    if isinstance(tr, Tracer):
        install_wrappers(tr, inputs)
    t = clock()
    solve_s, items = PASSES[args.workload](args.workload, inputs, tr)
    raw_solve_s = clock() - t
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tr.item = "oracle"
    failures = check_items(args.workload, inputs, items, load_reference(), tr)
    counts = item_counts(args.workload, items)
    out = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "raw_solve_s": raw_solve_s,
        "speed": probe.factor(t, t + raw_solve_s),
        "probes": probe.samples(),
        "slowest_item_s": max(r["s"] for r in items),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures,
        "counts": counts,
    }
    if isinstance(tr, Tracer):
        out["layers"] = layer_metrics(tr, counts, out["speed"])
        tr.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
