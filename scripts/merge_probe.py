#!/usr/bin/env python3
"""Time parsing, compiling and merging the graphs of ``verify-propositions
--random``, and count the garbage collections of that command.

    python3 scripts/merge_probe.py

First runs ``bcc verify-propositions corpus --random 2000 --seed 1
--max-pairs 100000`` in-process, and then the same command over those 2000
pairs written to a contract file (as the benchmark's verify-random workload
does), each twice, and prints the collections of the second, warm run by
generation (0, 1, 2), counted through ``gc.callbacks``.  Then times, best of
5, the library path over those pairs: ``parse`` of that file, compiling the
4000 terms of ``random_pairs(1, 2000)`` with ``compile_term`` and merging
the client and the server graphs with ``merge_graphs``.  Last it times the
command line's own front end, which reads the file and compiles each side
of each pair straight into that side's merged graph
(``cli._merged_pairs``), from the file to the two merged graphs.  It takes
no options, and exits 1 unless the parse equals
``tests/oracles.reference_parse`` on the same text, each compiled graph
equals its rebuild through the validating ``ContractGraph`` constructor,
the merged graphs of both paths equal the graph built from scratch on the
renumbered union of the compiled graphs' edges
(``tests/oracles.union_brute``), and every row of those merged graphs holds
``(label code, target)`` pairs of plain ints only.
"""

import argparse
import contextlib
import gc
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = __file__.rsplit("/scripts/", 1)[0]
sys.path[:0] = [ROOT + "/src", ROOT + "/tests"]

from bcc import ContractGraph, compile_term, merge_graphs, parse, pretty
from bcc.cli import _merged_pairs
from bcc.cli import main as bcc_main
from bcc.lang import DEFAULT_MAX_STATES
from bcc.generator import random_pairs
from oracles import reference_parse, union_brute

SEED, PAIRS = 1, 2000


def best_of_5_ms(call) -> tuple:
    """The best time of ``call`` in ms, and its last result."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        result = call()
        times.append((time.perf_counter() - start) * 1000)
    return min(times), result


def warm_collections(argv) -> list:
    """Collections by generation of the second of two runs of ``argv``."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "stop":
            counts[info["generation"]] += 1

    for warm in (False, True):
        gc.collect()
        if warm:
            gc.callbacks.append(count)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = bcc_main(argv)
        finally:
            if warm:
                gc.callbacks.remove(count)
        if code not in (0, 1):
            raise SystemExit(f"error: bcc {' '.join(argv)} exited {code}")
    return counts


def pairs_text() -> str:
    """The contract file of the drawn pairs, as the benchmark writes it."""
    lines = []
    for i, (client, server) in enumerate(random_pairs(SEED, PAIRS), start=1):
        lines += [f"p{i} = {pretty(client)}", f"q{i} = {pretty(server)}"]
    return "\n".join(lines) + "\n"


def print_collections(text: str) -> None:
    common = ["--max-pairs", "100000", "--json"]
    with tempfile.TemporaryDirectory() as work:
        Path(work, "pairs.bc").write_text(text)
        drawn = [ROOT + "/corpus", "--random", str(PAIRS), "--seed", str(SEED)]
        runs = ((f"--random {PAIRS}", drawn), (f"of a {PAIRS}-pair file", [work]))
        for name, args in runs:
            counts = warm_collections(["verify-propositions", *args, *common])
            print(f"collections, verify {name}: " + " ".join(map(str, counts)))


def rows_of_ints(graph) -> bool:
    """True iff every edge of every row of ``graph`` is a pair of ints."""
    return all(
        type(edge) is tuple and len(edge) == 2 and all(type(x) is int for x in edge)
        for row in graph._out
        for edge in row
    )


def main() -> int:
    text = pairs_text()
    print_collections(text)  # first, so the probe's own graphs are not on the heap
    parse_ms, defs = best_of_5_ms(lambda: parse(text))
    print(f"parse {PAIRS}-pair file: {parse_ms:8.1f} ms")
    wrong = defs != reference_parse(text)
    if wrong:
        print("error: the pair file parses unlike the reference parser", file=sys.stderr)
    del defs
    terms = [term for pair in random_pairs(SEED, PAIRS) for term in pair]
    compile_ms, graphs = best_of_5_ms(lambda: [compile_term(t) for t in terms])
    sides = {"client": graphs[0::2], "server": graphs[1::2]}
    merge_ms, merged = best_of_5_ms(lambda: [merge_graphs(side) for side in sides.values()])
    print(f"compile {len(terms)} terms: {compile_ms:8.1f} ms")
    print(f"merge both sides:    {merge_ms:8.1f} ms")
    for term, g in zip(terms, graphs):
        rebuilt = ContractGraph(g.num_states, g.initial, g.edges, g.zero)
        if (g._out, g.edges) != (rebuilt._out, rebuilt.edges):
            print(f"error: {pretty(term)} compiles unlike its rebuild", file=sys.stderr)
            wrong = True
    with tempfile.TemporaryDirectory() as work:
        Path(work, "pairs.bc").write_text(text)
        args = argparse.Namespace(
            corpus_dir=work, random=0, seed=0, max_states=DEFAULT_MAX_STATES
        )
        front_ms, (_, *by_cli) = best_of_5_ms(lambda: _merged_pairs(args))
    print(f"cli front end:       {front_ms:8.1f} ms")
    by_cli = [by_cli[:2], by_cli[2:]]
    for (name, side), *paths in zip(sides.items(), merged, by_cli):
        union, union_initials = union_brute(side)
        for path, (graph, initials) in zip(("library", "cli"), paths):
            if (graph, graph._out, initials) != (union, union._out, union_initials):
                print(f"error: the {path}'s merged {name} graph differs from "
                      "its union", file=sys.stderr)
                wrong = True
            if not rows_of_ints(graph):
                print(f"error: a row of the {path}'s merged {name} graph holds "
                      "a non-int", file=sys.stderr)
                wrong = True
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
