#!/usr/bin/env python3
"""Scramble the trivial decomposition (x_1, ..., x_r) by random braid moves
and return it by the ten-shape rewriting, printing the move logs.

Usage: python scripts/braid_normalisation_demo.py [r] [moves] [trials]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pmq.free import braid_act_word, fq_decompose, fq_element, normalize_decomposition


def main() -> None:
    r = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    moves = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    trials = int(sys.argv[3]) if len(sys.argv) > 3 else 5
    rng = random.Random(2)
    for trial in range(trials):
        words = [fq_element(i, ()) for i in range(1, r + 1)]
        scramble = []
        for _ in range(moves):
            i = rng.randint(1, r - 1)
            m = rng.choice([i, -i])
            scramble.append(m)
            words = braid_act_word(words, [m])
        factors = [fq_decompose(w, r, r) for w in words]
        t0 = time.monotonic()
        log = normalize_decomposition(factors, r, r)
        dt = time.monotonic() - t0
        restored = braid_act_word(words, log)
        ok = restored == tuple((i,) for i in range(1, r + 1))
        print(f"trial {trial}: scramble {scramble}")
        print(f"  weights {[1 + 2 * len(w) for _, w in factors]}, log of {len(log)} moves, "
              f"restored={ok} ({dt:.3f}s)")


if __name__ == "__main__":
    main()
