#!/usr/bin/env python3
"""Time the pair universe and the six deciders on the tau-grid family.

    python3 scripts/universe_probe.py

The client ``tau^n.!a.0`` meets the server ``rec Y.tau^m.(?a.0 + tau.Y)``,
whose loop lets every client position meet every server position, so the
universe is a full grid of about (n + 1) x (m + 1) pairs.  For each grid the
script prints the pair count, the best of 5 ``build_universe`` times and the
best of 5 ``evaluate`` times (universe plus all six relations).  It takes no
options, and exits 1 unless the pair counts are exactly the known ones.
"""

import sys
import time

sys.path.insert(0, __file__.rsplit("/scripts/", 1)[0] + "/src")

from bcc import Composition, PairState, compile_term, evaluate, parse_term

# (n, m, expected pair count)
GRIDS = ((40, 45, 1887), (100, 100, 10202), (200, 200, 40402))
REPEATS = 5
MAX_PAIRS = 100_000


def best_ms(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) * 1000)
    return min(times)


def main() -> int:
    print(f"{'grid':>9}  {'pairs':>6}  {'universe ms':>11}  {'evaluate ms':>11}")
    wrong = []
    for n, m, expected in GRIDS:
        client = compile_term(parse_term("tau." * n + "!a.0"))
        server = compile_term(parse_term("rec Y." + "tau." * m + "(?a.0 + tau.Y)"))
        composition = Composition(client, server)
        root = PairState(client.initial, server.initial)
        pairs = len(composition.build_universe([root], MAX_PAIRS))
        universe_ms = best_ms(lambda: composition.build_universe([root], MAX_PAIRS))
        evaluate_ms = best_ms(lambda: evaluate(client, server, max_pairs=MAX_PAIRS))
        grid = f"{n}x{m}"
        print(f"{grid:>9}  {pairs:>6}  {universe_ms:>11.1f}  {evaluate_ms:>11.1f}")
        if pairs != expected:
            wrong.append(f"{grid}: {pairs} pairs, expected {expected}")
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
