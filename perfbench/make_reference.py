"""Regenerate ``reference.json``: the integer homology of every non-unit
grading the homology workloads visit, keyed by ``bench.grading_key``.

    PYTHONPATH=src python3 perfbench/make_reference.py

Inputs are built in catalog order over the integers.  The F_5 workload is
checked against these tables through universal coefficients, so the two
reductions (Smith form and rank mod p) vouch for each other.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench import REFERENCE, grading_key, table_of  # noqa: E402

from pmq.barhur import build_relative_complex, homology  # noqa: E402
from pmq.completion import Completion  # noqa: E402
from pmq.symgeo import sym_geodesic_pmq  # noqa: E402

INPUTS = [("S3", 3, 4), ("S4", 4, 3)]


def main() -> None:
    gradings = {}
    for name, d, max_norm in INPUTS:
        q = sym_geodesic_pmq(d)
        comp = Completion(q)
        table = {}
        for b in comp.classes_up_to(max_norm):
            if b.is_unit:
                continue
            cx = build_relative_complex(q, b)
            h = homology(cx)
            table[grading_key(b)] = {
                "norm": b.norm,
                "cells": sum(cx.dims().values()),
                "nnz": sum(len(m) for m in cx.differentials.values()),
                "H": table_of({n: (v["rank"], v["torsion"]) for n, v in h.items()}),
            }
        gradings[name] = dict(sorted(table.items()))
    with open(REFERENCE, "w") as fh:
        json.dump({"gradings": gradings}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
