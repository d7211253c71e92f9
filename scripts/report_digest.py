#!/usr/bin/env python3
"""Sha256 digests over the reports of a fixed list of bcc commands.

    python3 scripts/report_digest.py

Runs each command in-process through ``bcc.cli.main`` (the ``src`` tree next
to this script) and hashes its argv, exit code, stdout and stderr, and the
file a ``dot`` command writes.  Two source trees that print the same digests
produced byte-identical reports, errors and exit codes on every command, so
a change meant to keep behaviour can be checked by running this script on
both.

Three lines are printed.  The first digest covers the original 20 commands
(corpus checks, ``matrix``, ``verify-propositions`` and generated pairs), so
it stays comparable with earlier versions of this script; the second covers
those and the later additions: ``dot`` on the corpus pairs, ``check`` errors
(unknown contract, missing file), two ``--max-pairs`` drop cases, and
``matrix`` and ``verify-propositions`` on a corpus with unpaired names.  The
third covers no command but the library's own tables (``table_digest``): the
generator's draws, and the weak facts of every state of the graphs those
commands build.

The commands run inside a temporary directory holding a copy of
``corpus/`` and generated tau-grid and chain pairs, all named by relative
paths, so the digest does not depend on where the tree is checked out.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bcc.cli import main  # noqa: E402
from bcc.corpus import example_graphs, example_pairs  # noqa: E402
from bcc.generator import random_pairs  # noqa: E402
from bcc.lang import compile_term, pretty  # noqa: E402
from bcc.lts import merge_graphs  # noqa: E402

# (file name, client, server): client tau^n.!a.0 against a server with m
# leading taus that accepts (ok), refuses (stuck) or may loop back (loop),
# and chains of n outputs against rec Y.?a.Y.
GENERATED = {
    "ok_3_4.bc": ("tau.tau.tau.!a.0", "tau.tau.tau.tau.?a.0"),
    "ok_12_7.bc": ("tau." * 12 + "!a.0", "tau." * 7 + "?a.0"),
    "stuck_5_2.bc": ("tau." * 5 + "!a.0", "tau.tau.?b.0"),
    "stuck_9_11.bc": ("tau." * 9 + "!a.0", "tau." * 11 + "?b.0"),
    "loop_2_3.bc": ("tau.tau.!a.0", "rec Y.tau.tau.tau.(?a.0 + tau.Y)"),
    "loop_10_6.bc": ("tau." * 10 + "!a.0", "rec Y." + "tau." * 6 + "(?a.0 + tau.Y)"),
    "chain_1.bc": ("!a.0", "rec Y.?a.Y"),
    "chain_60.bc": ("!a." * 60 + "0", "rec Y.?a.Y"),
    "sync_both_ways.bc": ("!a.0 + ?a.0", "?a.0 + !a.0"),
}

# a corpus directory with names outside the pN/qN convention, unpaired
# names and a pair split across two files
ODD_CORPUS = {
    "odd/a.bc": "p1 = !a.0\nq1 = ?a.0\nhelper = tau.0\n"
    "p9 = 0\nq7 = ?a.0\np003 = !a.0\n",
    "odd/b.bc": "p2 = !b.0\nq2 = ?b.0\n",
}


def commands() -> list:
    cmds = []
    for n in range(1, 5):
        pair = ["corpus/examples.bc", f"p{n}", "corpus/examples.bc", f"q{n}"]
        cmds.append(["check", *pair, "--all", "--json"])
        cmds.append(["check", *pair, "--relation", "mst", "--relation", "io", "--json"])
    cmds.append(["matrix", "corpus", "--json"])
    verify = ["verify-propositions", "corpus", "--seed", "1", "--json", "--random"]
    for extra in (["500"], ["2000"], ["2000", "--max-pairs", "100000"]):
        cmds.append(verify + extra)
    for name in GENERATED:
        cmds.append(["check", name, "p", name, "q", "--all", "--json"])
    return cmds


def more_commands() -> list:
    cmds = []
    for n in range(1, 5):
        pair = ["corpus/examples.bc", f"p{n}", "corpus/examples.bc", f"q{n}"]
        cmds.append(["dot", *pair, f"p{n}_q{n}.dot"])
    cmds.append(["check", "corpus/examples.bc", "p9", "corpus/examples.bc", "q1"])
    cmds.append(["check", "missing.bc", "p1", "corpus/examples.bc", "q1"])
    verify = ["verify-propositions", "corpus", "--random", "5", "--json"]
    cmds.append(verify + ["--seed", "11", "--max-pairs", "8"])
    cmds.append(verify + ["--seed", "1", "--max-pairs", "10"])
    cmds.append(["matrix", "odd", "--json"])
    cmds.append(["verify-propositions", "odd", "--json"])
    return cmds


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digests(*groups) -> list:
    """One digest after each group of commands, over every command so far."""
    sha = hashlib.sha256()
    result = []
    for cmds in groups:
        for argv in cmds:
            code, out, err = run(argv)
            parts = ["\0".join(argv), str(code), out, err]
            if argv[0] == "dot" and code == 0:
                parts.append(Path(argv[-1]).read_text(encoding="utf-8"))
            for part in parts:
                sha.update(part.encode("utf-8"))
                sha.update(b"\0\1")
        result.append(sha.hexdigest())
    return result


def table_digest() -> str:
    """Digest of ``pretty`` of every term of ``random_pairs(1, 2000)``, then
    of every state's weak barbs, success reachability, divergence and
    tau-closure in the eight corpus graphs and in the two merged graphs that
    ``verify-propositions corpus --random 500 --seed 1`` builds."""
    sha = hashlib.sha256()
    drawn = random_pairs(1, 2000)
    for pair in drawn:
        for term in pair:
            sha.update(pretty(term).encode("utf-8") + b"\0")
    corpus = example_graphs()
    pairs = [(corpus[c], corpus[s]) for c, s in example_pairs()]
    pairs += [(compile_term(c), compile_term(s)) for c, s in drawn[:500]]
    merged = [merge_graphs(side)[0] for side in zip(*pairs)]
    for g in [corpus[name] for name in sorted(corpus)] + merged:
        sha.update(repr(g).encode("utf-8"))
        for s in range(g.num_states):
            barbs = g.weak_barbs(s)
            facts = (
                sorted(barbs.inputs),
                sorted(barbs.outputs),
                g.weak_reaches_zero(s),
                g.may_diverge(s),
                sorted(g.tau_closure(s)),
            )
            sha.update(repr(facts).encode("utf-8"))
    return sha.hexdigest()


if __name__ == "__main__":
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "corpus", Path(tmp) / "corpus")
        for name, (client, server) in GENERATED.items():
            (Path(tmp) / name).write_text(f"p = {client}\nq = {server}\n")
        (Path(tmp) / "odd").mkdir()
        for name, text in ODD_CORPUS.items():
            (Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        try:
            for line in digests(commands(), more_commands()):
                print(line)
        finally:
            os.chdir(start)
    print(table_digest())
