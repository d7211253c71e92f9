#!/usr/bin/env python3
"""Seeded benchmark of the bcc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The benchmark writes its seeded inputs
as `.bc` files under `.perfbench_work/`, then runs one closed loop (one
caller, next command only after the previous one returns) of real CLI
commands, `bcc.cli.main(argv)` called in-process with stdout captured,
for S seconds.  Every report is checked against a reference that does not
come from the program, and its digest must repeat exactly whenever the
same command runs again, in this run or an earlier one.

--trace 0 prints the end-to-end metrics; --trace 1 replays each command
through the public layer calls with a span around each (see mirror.py) and
prints the per-layer metrics.  The last line of stdout is one JSON object;
a fuller report, and the spans of a traced run, go to `.perfbench_work/`.

Timings are medians and a tail percentile over many commands, not
best-of-k: the spread is part of what a user sees.  The garbage collector
stays on, as it is for users; a collection runs between commands, outside
the timed region, so one command's garbage is not charged to the next.
The benchmark changes no system setting (CPU governor, caches, limits).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
DIGESTS = WORK / "digests.json"

# Fresh-interpreter imports timed per run, half before the timed loop and
# half after it, so one slow spell of the machine does not set the median.
SETUP_REPEATS = 8
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import bcc.cli; print(time.perf_counter() - t)"
)

PER_LAYER = (
    ("lang.parse_ms", "ms"),
    ("lang.compile_ms", "ms"),
    ("lang.states", "count"),
    ("lang.errors", "count"),
    ("lts.graph_ms", "ms"),
    ("lts.merge_ms", "ms"),
    ("lts.edges", "count"),
    ("lts.closure_entries", "count"),
    ("composition.universe_ms", "ms"),
    ("composition.pairs", "count"),
    ("composition.tau_edges", "count"),
    ("composition.roots_kept_ratio", "ratio"),
    ("relations.decide_ms", "ms"),
    ("relations.witness_ms", "ms"),
    ("relations.witness_len", "count"),
    ("fixpoint.lfp_ms", "ms"),
    ("fixpoint.gfp_ms", "ms"),
    ("fixpoint.step_ms", "ms"),
    ("propositions.verify_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

# Per-layer counts, each the per-op mean of one size the mirror returns.
SIZE_METRICS = {
    "lang.states": "states",
    "lts.edges": "edges",
    "lts.closure_entries": "closure_entries",
    "composition.pairs": "pairs",
    "composition.tau_edges": "tau_edges",
    "relations.witness_len": "witness_len",
}

# What the traced run should confirm about each workload.  Reported, not
# gated: an optimisation may rightly make a claim false.
PURPOSE = {
    "verify-random": (
        "lang and lts take more than half of op time",
        lambda p: p["lang_lts_share_of_op"] > 0.5,
    ),
    "verify-grid": (
        "the fixpoint takes more than half of op time",
        lambda p: p["fixpoint_share_of_op"] > 0.5,
    ),
    "check-mix": ("no fixpoint span is recorded", lambda p: p["fixpoint_spans"] == 0),
}

NOTES = [
    "input generation, the oracle re-check and report checks run outside "
    "every timed region and are excluded from every metric",
    "medians and a tail percentile replace best-of-k on purpose: run-to-run "
    "spread is part of what a user sees",
    "the garbage collector stays on, as for users; gc.collect() runs between "
    "commands, outside the timed region",
    "no system setting was touched (no CPU governor, cache drop, cgroup or "
    "limit change); only this process and its own children were measured",
]


def measure_setup(repeats: int) -> list:
    """Seconds to import bcc.cli in a fresh interpreter, once per child."""
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            ).stdout
        )
        for _ in range(repeats)
    ]


def run_cli(argv) -> tuple:
    """One CLI command; returns (seconds, exit code or None, stdout, error)."""
    from bcc import cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an uncaught error is a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error or err.getvalue()


def reference_problem(op, code, report) -> str:
    """Why a report disagrees with the workload's reference ('' if it agrees)."""
    from workloads import EXPECTED

    if op.argv[0] == "check":
        expected = EXPECTED[op.family]
        want_code = 0 if all(expected.values()) else 1
        entry = report["pairs"][0]
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if entry["verdicts"] != expected:
            return f"verdicts {entry['verdicts']}, expected {expected}"
        # every failed relation except may has a counterexample path
        missing = [
            c
            for c, ok in expected.items()
            if not ok and c != "may" and c not in entry["witness"]
        ]
        return f"no witness for failed {missing}" if missing else ""
    if code != 0:
        return f"exit {code}, expected 0"
    bad = [p["name"] for p in report["propositions"] if not p["ok"]]
    if bad:
        return f"propositions failed: {bad}"
    universe = report["universe"]
    if universe["dropped"] or not 1 <= universe["roots"] <= op.pairs:
        return f"universe {universe} for {op.pairs} input pairs"
    return ""


def op_key(op) -> str:
    """Identifies a command by its arguments and the bytes of its inputs."""
    digest = hashlib.sha256("\0".join(op.argv).encode())
    for path in op.files:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tail(latencies, failed) -> tuple:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, failed ops ranking slower than every success.
    With too few samples for a tail above the median, the slowest op."""
    ranked = sorted(zip(failed, latencies))
    n = len(ranked)
    k = n - 11 if n >= 21 else n - 1
    return ranked[k][1], 100.0 * (k + 1) / n, n


def schedule(pool, seed: int):
    """The closed loop's op order: seeded shuffles of the pool, cycled."""
    rng = random.Random(seed * 7919 + 1)
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


class Run:
    """One benchmark run: the closed loop and every check on its reports."""

    def __init__(self, workload: str, seed: int, trace: bool, pool: list):
        import mirror

        self.mirror = mirror
        self.workload = workload
        self.trace = trace
        self.ops = schedule(pool, seed)
        self.keys = {id(op): op_key(op) for op in pool}
        try:
            self.known = json.loads(DIGESTS.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.problems = []
        self.latencies, self.failed, self.pairs_done = [], [], 0
        self.tracer = mirror.Tracer()
        self.span_ms = mirror.span_cost_ms() if trace else 0.0
        self.per_op_layers, self.per_op_sizes = [], []

    def warm_up(self) -> None:
        """One untimed command, so lazy set-up inside the process is not
        charged to the first timed command."""
        op = next(self.ops)
        problem = self.check(op, *run_cli(op.argv), traced=False)
        if problem:
            self.problems.append(f"warm-up {' '.join(op.argv)}: {problem}")

    def loop(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            op = next(self.ops)
            gc.collect()
            elapsed, code, stdout, error = run_cli(op.argv)
            problem = self.check(op, elapsed, code, stdout, error, traced=self.trace)
            self.latencies.append(elapsed)
            self.failed.append(bool(problem))
            if problem:
                self.problems.append(f"{' '.join(op.argv)}: {problem}")
            else:
                self.pairs_done += op.pairs

    def check(self, op, elapsed, code, stdout, error, traced) -> str:
        """Why the command failed ('' if its report is right)."""
        if code is None:
            return error
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"exit {code} with no JSON report: {error.strip()[:200]}"
        problem = reference_problem(op, code, report)
        if problem:
            return problem
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.known.setdefault(self.keys[id(op)], digest) != digest:
            return "report differs from an earlier run of the same command"
        return self.replay(op, elapsed, report) if traced else ""

    def replay(self, op, elapsed, report) -> str:
        """Replay the command through the traced mirror and record its
        per-layer times and sizes."""
        command = op.argv[0]
        self.tracer.op = len(self.per_op_layers)
        first = len(self.tracer.spans)
        gc.collect()
        with self.tracer.span("cli." + command):
            result, sizes = self.mirror.MIRRORS[command](op.argv, self.tracer)
        if result != self.mirror.cli_view(command, report):
            return "traced mirror disagrees with the CLI report"
        spans = self.tracer.spans[first:]
        layers, work_ms = self.mirror.layer_times(spans)
        layers["cli.self_ms"] = elapsed * 1000 - work_ms
        layers["trace.overhead_ms"] = len(spans) * self.span_ms
        layers["cli.op_ms"] = elapsed * 1000
        self.per_op_layers.append(layers)
        self.per_op_sizes.append(sizes)
        return ""

    def write_digests(self) -> None:
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        tmp.replace(DIGESTS)


def end_to_end_metrics(run: Run, setup_times: list) -> tuple:
    value, percentile, samples = tail(run.latencies, run.failed)
    metrics = {
        "latency_p50_ms": (statistics.median(run.latencies) * 1000, "ms"),
        "latency_tail_ms": (value * 1000, "ms"),
        "pairs_per_s": (run.pairs_done / sum(run.latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    extra = {
        "latency_tail": {"percentile": percentile, "samples": samples},
        "setup_samples_s": setup_times,
    }
    return metrics, extra


def layer_metrics(run: Run, lang_errors: int) -> tuple:
    """Per-op means of every layer metric, and the workload's purpose."""
    layers, sizes = run.per_op_layers, run.per_op_sizes
    n = max(1, len(layers))

    def mean(key):
        return sum(op[key] for op in layers) / n

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "lang.errors":
            value = lang_errors
        elif name == "composition.roots_kept_ratio":
            value = sum(s["roots_kept"] for s in sizes) / max(
                1, sum(s["roots_attempted"] for s in sizes)
            )
        elif name in SIZE_METRICS:
            value = sum(s[SIZE_METRICS[name]] for s in sizes) / n
        else:
            value = mean(name)
        metrics[name] = (value, unit)
    op_ms = mean("cli.op_ms")
    fixpoint_ms = sum(mean(f"fixpoint.{k}_ms") for k in ("lfp", "gfp", "step"))
    lang_lts_ms = sum(
        mean(k) for k in ("lang.parse_ms", "lang.compile_ms", "lts.graph_ms", "lts.merge_ms")
    )
    purpose = {
        "fixpoint_share_of_op": fixpoint_ms / op_ms if op_ms else 0.0,
        "lang_lts_share_of_op": lang_lts_ms / op_ms if op_ms else 0.0,
        "fixpoint_spans": sum(
            s["name"].startswith("fixpoint.") for s in run.tracer.spans
        ),
    }
    claim, holds = PURPOSE[run.workload]
    purpose |= {"claim": claim, "holds": holds(purpose)}
    extra = {
        "traced_ops": len(layers),
        "cli_op_ms_mean": op_ms,
        "per_op_sizes": sizes[:50],
        "purpose": purpose,
    }
    return metrics, extra


def deep_chain_probe(work: Path) -> int:
    """Parse and compile a chain past the compiler's recursion cliff, outside
    any timed region; returns how many lang calls raised."""
    from bcc.lang import compile_term, parse
    from workloads import CHAIN_SERVER, DEEP_CHAIN, chain_client

    path = work / "deep.bc"
    path.write_text(f"p = {chain_client(DEEP_CHAIN)}\nq = {CHAIN_SERVER}\n")
    try:
        defs = parse(path.read_text())
    except Exception:
        return 1
    errors = 0
    for d in defs:
        try:
            compile_term(d.term)
        except Exception:  # RecursionError today
            errors += 1
    return errors


def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def summary_lines(report) -> list:
    lines = [
        f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{report['attempted']} ops, {report['failed']} failed "
        f"(ratio {report['failed_ratio']}), inputs generated in "
        f"{report['input_generation_s']:.3f} s (excluded)",
        f"machine: {report['machine']}",
    ]
    if "latency_tail" in report:
        t = report["latency_tail"]
        lines.append(f"latency_tail_ms is p{t['percentile']:.1f} of {t['samples']} samples")
    if "purpose" in report:
        lines.append(f"purpose: {report['purpose']}")
    lines += [f"problem: {p}" for p in report["problems"]]
    lines += [f"note: {n}" for n in report["notes"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/bcc/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {ROOT / needed} is missing; run from a source tree",
                  file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload not in workloads.MAKERS or args.seconds <= 0:
        print(f"perfbench: no workload {args.workload!r} or bad --seconds", file=sys.stderr)
        return 2

    measure_setup(1)  # untimed: writes the bytecode caches
    setup_times = [] if args.trace else measure_setup(SETUP_REPEATS)

    inputs_dir = WORK / args.workload / f"seed{args.seed}"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    started = time.perf_counter()
    pool = workloads.MAKERS[args.workload](args.seed, inputs_dir)
    mismatches = workloads.oracle_check(workloads.ORACLE_FAMILIES[args.workload])
    run = Run(args.workload, args.seed, bool(args.trace), pool)
    generation_s = time.perf_counter() - started
    run.problems += [f"oracle disagrees with the reference: {m}" for m in mismatches]

    run.warm_up()
    run.loop(args.seconds)

    attempted, failed = len(run.latencies), sum(run.failed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": run.problems[:20],
        "input_generation_s": generation_s,
        "distinct_commands": len(pool),
        "latencies_ms": [t * 1000 for t in run.latencies],
        "machine": machine_info(),
        "notes": NOTES,
    }
    if args.trace:
        lang_errors = deep_chain_probe(inputs_dir) if args.workload == "check-mix" else 0
        metrics, extra = layer_metrics(run, lang_errors)
    else:
        setup_times += measure_setup(SETUP_REPEATS)
        metrics, extra = end_to_end_metrics(run, setup_times)
    report |= extra
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"report-{name}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        with open(WORK / f"spans-{name}.jsonl", "w") as f:
            for span in run.tracer.spans:
                f.write(json.dumps(span) + "\n")
    run.write_digests()
    shutil.rmtree(inputs_dir, ignore_errors=True)

    for line in summary_lines(report):
        print(line)
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
