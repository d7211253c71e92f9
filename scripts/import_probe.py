#!/usr/bin/env python3
"""Time the cold start of the command line, and list what each command loads.

    python3 scripts/import_probe.py

Times ``import bcc.cli`` in fresh interpreters, from a temporary copy of
``src/bcc``: first with no bytecode cache (``-B``, so every ``bcc`` module
is compiled from source and no cache is written), then with the caches that
one earlier import wrote under a temporary ``PYTHONPYCACHEPREFIX``.  The two
kinds of run alternate, and each is printed as the median and quartiles of
its runs.  Then it runs ``check``, ``matrix``, ``dot`` and
``verify-propositions`` (without and with ``--random``) on the bundled
corpus, each in a fresh interpreter under ``-S``, since the ``.pth`` files
that ``site`` reads may load ``typing`` before any ``bcc`` code runs.  For
each it prints the ``bcc`` modules it loaded and which of ``dataclasses``,
``inspect`` and ``typing`` it loaded.  It takes no options, and exits 1 if
``check``, ``matrix`` or ``dot`` loads a module that only
``verify-propositions`` needs, if ``verify-propositions`` without
``--random`` loads ``bcc.generator`` or ``bcc.terms``, or if any command but
``verify-propositions --random`` loads ``dataclasses``, ``inspect`` or
``typing``.
"""

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
EXAMPLES = str(CORPUS / "examples.bc")
RUNS = 5
VERIFY_ONLY = ("bcc.fixpoint", "bcc.generator", "bcc.propositions", "bcc.terms")
RANDOM_ONLY = ("bcc.generator", "bcc.terms")
HEAVY = ("dataclasses", "inspect", "typing")
COMMANDS = {  # each command -> its arguments and the modules it must not load
    "check": (["check", EXAMPLES, "p1", EXAMPLES, "q1", "--json"], VERIFY_ONLY + HEAVY),
    "matrix": (["matrix", str(CORPUS), "--json"], VERIFY_ONLY + HEAVY),
    "dot": (["dot", EXAMPLES, "p1", EXAMPLES, "q1", os.devnull], VERIFY_ONLY + HEAVY),
    "verify-propositions": (["verify-propositions", str(CORPUS)], RANDOM_ONLY + HEAVY),
    "verify-propositions --random": (
        ["verify-propositions", str(CORPUS), "--random", "3"], ()
    ),
}
TIME_IMPORT = (
    "import time; t = time.perf_counter(); import bcc.cli; "
    "print((time.perf_counter() - t) * 1000)"
)
LIST_MODULES = "import sys, bcc.cli; bcc.cli.main(sys.argv[1:]); print(*sys.modules)"


def last_line(args, env) -> str:
    """The last line a fresh interpreter prints."""
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    return done.stdout.splitlines()[-1]


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(
            ROOT / "src" / "bcc", Path(work, "bcc"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = dict(os.environ, PYTHONPATH=work)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cached = dict(env, PYTHONPYCACHEPREFIX=str(Path(work, "pycache")))
        last_line(["-c", TIME_IMPORT], cached)  # writes the caches
        runs = {"none": [], "written": []}
        for _ in range(RUNS):
            runs["none"].append(float(last_line(["-B", "-c", TIME_IMPORT], env)))
            runs["written"].append(float(last_line(["-c", TIME_IMPORT], cached)))
        print(f"import bcc.cli, {RUNS} fresh interpreters each")
        print(f"{'caches':<8}  {'median ms':>9}  {'q1 ms':>6}  {'q3 ms':>6}")
        for caches, ms in runs.items():
            q1, median, q3 = statistics.quantiles(ms, n=4)
            print(f"{caches:<8}  {median:9.1f}  {q1:6.1f}  {q3:6.1f}")
        wrong = []
        for command, (argv, banned) in COMMANDS.items():
            loaded = set(last_line(["-S", "-c", LIST_MODULES, *argv], cached).split())
            own = sorted(m for m in loaded if m.startswith("bcc"))
            heavy = [m for m in HEAVY if m in loaded] or ["none"]
            print(f"{command}: {' '.join(own)}")
            print(f"{command}, of {' '.join(HEAVY)}: {' '.join(heavy)}")
            wrong += [f"{command} loads {m}" for m in banned if m in loaded]
    for problem in wrong:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
