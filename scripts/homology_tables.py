#!/usr/bin/env python3
"""Homology tables of the relative array complexes for the bundled examples.

For each example structure and each grading up to a norm budget, prints the
basis sizes per degree and the nonzero integral homology.

Usage: python scripts/homology_tables.py [budget]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pmq.barhur import build_relative_complex, homology
from pmq.catalog import (
    natural_truncation,
    segre_pmq,
    sym_geodesic_pmq,
    transposition_quandle,
)
from pmq.completion import Completion


EXAMPLES = [
    ("naturals 0..3", natural_truncation(3)),
    ("six-element with one identified product", segre_pmq()),
    ("transpositions of S_3, trivial product", transposition_quandle(3)),
    ("geodesic PMQ of S_3", sym_geodesic_pmq(3)),
]


def main() -> None:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    for name, q in EXAMPLES:
        comp = Completion(q)
        print(f"== {name}")
        for b in comp.classes_up_to(budget):
            if b.is_unit:
                continue
            t0 = time.monotonic()
            cx = build_relative_complex(q, b)
            h = homology(cx)
            nonzero = {
                n: data for n, data in sorted(h.items()) if data["rank"] or data["torsion"]
            }
            dims = " ".join(f"{n}:{size}" for n, size in sorted(cx.dims().items()))
            hline = ", ".join(
                f"H_{n}=Z^{data['rank']}" + ("+" + "+".join(f"Z/{t}" for t in data["torsion"]) if data["torsion"] else "")
                for n, data in nonzero.items()
            )
            print(
                f"  grading {'.'.join(b.labels()):<14} cells {dims:<28} {hline}"
                f"   ({time.monotonic() - t0:.2f}s)"
            )
        print()


if __name__ == "__main__":
    main()
