#!/usr/bin/env python3
"""Census of the completion of the geodesic PMQ of a symmetric group.

For each total norm up to a bound, counts the canonical classes built by
``Completion.classes_of_norm`` from the classes of lower norm and the
closed-form triples (permutation; orbit partition; per-piece weights), and
verifies they agree.  The two timing columns are the seconds spent on each
count at that norm.
Exits 1 when any norm level disagrees.

Usage: python scripts/triple_census.py [d] [max_norm]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pmq.catalog import sym_geodesic_pmq
from pmq.completion import Completion
from pmq.symgeo import triples_of_weight


def main() -> int:
    d = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    max_norm = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    comp = Completion(sym_geodesic_pmq(d))
    print(f"d = {d}, norms 0..{max_norm}")
    print(f"{'norm':>6} {'classes':>9} {'triples':>9} {'classes_s':>10} {'triples_s':>10}")
    ok = True
    for n in range(max_norm + 1):
        t0 = time.perf_counter()
        classes = comp.classes_of_norm(n)
        t1 = time.perf_counter()
        triples = triples_of_weight(d, n)
        t2 = time.perf_counter()
        agree = len(classes) == len(triples)
        ok = ok and agree
        mark = "" if agree else "   MISMATCH"
        print(
            f"{n:>6} {len(classes):>9} {len(triples):>9} {t1 - t0:>10.3f} {t2 - t1:>10.3f}{mark}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
