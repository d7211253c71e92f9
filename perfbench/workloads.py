"""Seeded inputs for the three benchmark workloads, and their references.

Every input is generated here from the workload seed and written as `.bc`
files; the program under test only ever sees those files.  Expected
verdicts for the tau-grid and chain families are size-independent and
derived by hand; `oracle_check` re-derives them with the brute-force
evaluators of `tests/oracles.py` on small instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CODES = ("beh", "io", "may", "mst", "pg", "shd")

# Hand-derived verdicts.  ok: the client's !a meets the server's ?a after
# both tau runs.  stuck: ?b never matches !a, so the pair deadlocks short of
# success.  loop: the server may tau back to the start forever, so must and
# beh fail while success stays reachable.  chain: rec Y.?a.Y accepts every
# !a of the client.
EXPECTED = {
    "ok": dict.fromkeys(CODES, True),
    "stuck": dict.fromkeys(CODES, False),
    "loop": {"pg": True, "mst": False, "shd": True, "beh": False, "io": True, "may": True},
    "chain": dict.fromkeys(CODES, True),
}

GRID_FAMILIES = ("ok", "stuck", "loop")

# verify-random: the generator's defaults, as in `verify-propositions --random`.
RANDOM_PAIRS = 2000
# verify-grid: a pool of directories cycled in seeded order, each holding a
# few pairs of one total tau depth n + m.  Kleene runs about n + m rounds,
# so op cost grows with the cube of the depth.  The depths form a fixed
# ladder, so the median op is the same size on every seed (the seed moves
# the families and the client/server split), and the ops' latencies form a
# continuum whose median moves smoothly when the machine slows.
GRID_DIRS = 24
GRID_PAIRS = 4
GRID_DEPTH_RANGE = (36, 60)
# check-mix: a pool of distinct pairs, one per file, cycled in seeded order:
# each grid family once in every cell of a 6 x 6 split of the (n, m) range,
# so the spread of op sizes is the same on every seed, plus chains for 13%.
MIX_GRID_CELLS = 6
MIX_GRID_RANGE = (10, 50)
MIX_CHAINS = 16
MIX_CHAIN_RANGE = (50, 200)
# A chain this deep raises RecursionError in the compiler today; it is
# probed in the traced run and never timed, so no timed op fails.
DEEP_CHAIN = 600

VERIFY_MAX_PAIRS = "100000"


CHAIN_SERVER = "rec Y.?a.Y"


def chain_client(n: int) -> str:
    return "!a." * n + "0"


def pair_text(family: str, n: int, m: int) -> tuple:
    """Client and server source of one pair: tau^n.!a.0 against a server
    of the family with m leading taus, or a chain of n outputs."""
    if family == "chain":
        return chain_client(n), CHAIN_SERVER
    taus = "tau." * m
    server = {
        "ok": taus + "?a.0",
        "stuck": taus + "?b.0",
        "loop": f"rec Y.{taus}(?a.0 + tau.Y)",
    }[family]
    return "tau." * n + "!a.0", server


def stratified(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """One draw from each of `count` equal slices of [lo, hi], shuffled:
    the seed moves each value, but not the spread of the whole sample."""
    width = (hi - lo + 1) / count
    values = [lo + int(width * (i + rng.random())) for i in range(count)]
    rng.shuffle(values)
    return values


@dataclass
class Op:
    """One CLI command of a workload and what its report must say."""

    argv: list
    files: list
    pairs: int  # client/server input pairs the command decides or verifies
    family: str = ""  # check ops only


def _write(path: Path, lines: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _verify_op(directory: Path, pairs: int) -> Op:
    return Op(
        ["verify-propositions", directory.as_posix(), "--max-pairs", VERIFY_MAX_PAIRS, "--json"],
        sorted(directory.glob("*.bc")),
        pairs,
    )


def make_verify_random(seed: int, work: Path) -> list:
    from bcc.generator import random_pairs
    from bcc.lang import pretty

    lines = []
    for i, (client, server) in enumerate(
        random_pairs(seed & ((1 << 64) - 1), RANDOM_PAIRS), start=1
    ):
        lines.append(f"p{i} = {pretty(client)}")
        lines.append(f"q{i} = {pretty(server)}")
    _write(work / "pairs.bc", lines)
    return [_verify_op(work, RANDOM_PAIRS)]


def make_verify_grid(seed: int, work: Path) -> list:
    rng = random.Random(seed)
    families = [GRID_FAMILIES[i % 3] for i in range(GRID_DIRS * GRID_PAIRS)]
    rng.shuffle(families)
    ops = []
    lo, hi = GRID_DEPTH_RANGE
    for d in range(GRID_DIRS):
        depth = lo + (hi - lo) * d // (GRID_DIRS - 1)
        lines = []
        for i, n in enumerate(
            stratified(rng, GRID_PAIRS, depth // 4, 3 * depth // 4), start=1
        ):
            client, server = pair_text(families.pop(), n, depth - n)
            lines.append(f"p{i} = {client}")
            lines.append(f"q{i} = {server}")
        _write(work / f"grid{d:02d}" / "pairs.bc", lines)
        ops.append(_verify_op(work / f"grid{d:02d}", GRID_PAIRS))
    return ops


def make_check_mix(seed: int, work: Path) -> list:
    rng = random.Random(seed)
    specs = [("chain", n, 0) for n in stratified(rng, MIX_CHAINS, *MIX_CHAIN_RANGE)]
    for family in GRID_FAMILIES:
        columns = [stratified(rng, MIX_GRID_CELLS, *MIX_GRID_RANGE) for _ in range(2)]
        for n in columns[0]:
            specs += [(family, n, m) for m in columns[1]]
    rng.shuffle(specs)
    ops = []
    for i, (family, n, m) in enumerate(specs):
        path = work / f"pair{i:03d}.bc"
        client, server = pair_text(family, n, m)
        _write(path, [f"p = {client}", f"q = {server}"])
        rel = path.as_posix()
        ops.append(
            Op(["check", rel, "p", rel, "q", "--all", "--json"], [path], 1, family)
        )
    return ops


MAKERS = {
    "verify-random": make_verify_random,
    "verify-grid": make_verify_grid,
    "check-mix": make_check_mix,
}

# Families whose hand-derived verdicts each workload relies on.
ORACLE_FAMILIES = {
    "verify-random": (),
    "verify-grid": GRID_FAMILIES,
    "check-mix": GRID_FAMILIES + ("chain",),
}


def oracle_check(families) -> list:
    """Compare the hand-derived verdicts with the brute-force oracles on
    small instances; returns the mismatches (empty when they agree)."""
    from bcc.lang import compile_term, parse_term
    from oracles import brute_verdicts

    mismatches = []
    for family in families:
        for n in range(1, 4):
            for m in range(1, 4) if family != "chain" else (0,):
                client, server = pair_text(family, n, m)
                got = brute_verdicts(
                    compile_term(parse_term(client)), compile_term(parse_term(server))
                )
                if got != EXPECTED[family]:
                    mismatches.append((family, n, m, got))
    return mismatches
