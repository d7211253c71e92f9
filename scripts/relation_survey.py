#!/usr/bin/env python3
"""Survey how often each compliance relation holds on random contract pairs.

Samples seeded pairs, tabulates per-relation frequencies and the observed
implication structure between relations, and cross-checks the expected
inclusions on every sample.  Exits non-zero if an inclusion is violated
(which would mean a library bug, not bad luck).
"""

import argparse
import sys
from collections import Counter

sys.path.insert(0, __file__.rsplit("/scripts/", 1)[0] + "/src")

from bcc import RelationKind, compile_term, evaluate
from bcc.generator import iter_random_pairs
from bcc.propositions import INCLUSIONS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-depth", type=int, default=6)
    parser.add_argument("--alphabet", default="a,b,c")
    args = parser.parse_args()
    if args.count < 1:
        parser.error(f"--count must be positive, got {args.count}")
    alphabet = tuple(args.alphabet.split(","))
    try:
        pairs = iter_random_pairs(
            args.seed, args.count, max_depth=args.max_depth, alphabet=alphabet
        )
    except ValueError as exc:
        parser.error(str(exc))

    holds = Counter()
    joint = Counter()
    violations = []
    for client_term, server_term in pairs:
        verdicts = evaluate(compile_term(client_term), compile_term(server_term))
        for kind, verdict in verdicts.items():
            if verdict.holds:
                holds[kind] += 1
        for a in RelationKind:
            for b in RelationKind:
                if verdicts[a].holds and verdicts[b].holds:
                    joint[(a, b)] += 1
        for smaller, larger in INCLUSIONS:
            if verdicts[smaller].holds and not verdicts[larger].holds:
                violations.append((smaller, larger, client_term, server_term))

    print(f"samples: {args.count}   seed: {args.seed}   depth: {args.max_depth}")
    print("\nrelation  holds  fraction")
    for kind in RelationKind:
        print(f"{kind.value:>8}  {holds[kind]:>5}  {holds[kind] / args.count:.3f}")

    print("\nempirical implication table  P(col | row) as %")
    header = "        " + "".join(f"{k.value:>6}" for k in RelationKind)
    print(header)
    for a in RelationKind:
        cells = []
        for b in RelationKind:
            cells.append(
                f"{100 * joint[(a, b)] / holds[a]:>6.0f}" if holds[a] else "     -"
            )
        print(f"{a.value:>8}" + "".join(cells))

    if violations:
        print(f"\nINCLUSION VIOLATIONS: {len(violations)}", file=sys.stderr)
        return 1
    print("\nall expected inclusions hold on every sample")
    return 0


if __name__ == "__main__":
    sys.exit(main())
