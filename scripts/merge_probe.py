#!/usr/bin/env python3
"""Time compiling and merging the graphs of ``verify-propositions --random``.

    python3 scripts/merge_probe.py

Compiles the 4000 terms of ``random_pairs(1, 2000)`` and merges the client
and the server graphs, as ``verify-propositions`` does, and prints the best
of 5 times for the compile and for the two merges together.  It takes no
options, and exits 1 unless each merged graph equals the graph built from
scratch on the renumbered union of its components' edges
(``tests/oracles.union_brute``).
"""

import sys
import time

ROOT = __file__.rsplit("/scripts/", 1)[0]
sys.path[:0] = [ROOT + "/src", ROOT + "/tests"]

from bcc import compile_term, merge_graphs
from bcc.generator import random_pairs
from oracles import union_brute


def best_of_5_ms(call) -> tuple:
    """The best time of ``call`` in ms, and its last result."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        result = call()
        times.append((time.perf_counter() - start) * 1000)
    return min(times), result


def main() -> int:
    terms = [term for pair in random_pairs(1, 2000) for term in pair]
    compile_ms, graphs = best_of_5_ms(lambda: [compile_term(t) for t in terms])
    sides = {"client": graphs[0::2], "server": graphs[1::2]}
    merge_ms, merged = best_of_5_ms(lambda: [merge_graphs(side) for side in sides.values()])
    print(f"compile {len(terms)} terms: {compile_ms:8.1f} ms")
    print(f"merge both sides:    {merge_ms:8.1f} ms")
    wrong = False
    for (name, side), (graph, initials) in zip(sides.items(), merged):
        union, union_initials = union_brute(side)
        if (graph, graph._out, initials) != (union, union._out, union_initials):
            print(f"error: the merged {name} graph differs from its union", file=sys.stderr)
            wrong = True
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
