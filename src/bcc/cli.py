"""Command-line front end.

Subcommands:
  check                decide selected relations for one client/server pair
  matrix               pair x relation table over a corpus directory
  verify-propositions  fixed-point and inclusion checks over corpus (+ random) pairs
  dot                  export a composition universe as graphviz

Exit codes: 0 everything holds, 1 some check fails, 2 error.

Only verify-propositions draws terms and decides fixed points, so it alone
imports ``generator``, ``terms``, ``fixpoint`` and ``propositions``, in the
functions that use them: the other commands never load those modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from itertools import repeat
from pathlib import Path

from . import __version__
from .composition import DEFAULT_MAX_PAIRS, Composition, PairState, PairUniverse, to_dot
from .errors import BccError, IllFormedError, ParseError, StateExplosionError
from .lang import DEFAULT_MAX_STATES, _add, _definitions
from .lts import _is_index, _Union
from .relations import ALL_RELATIONS, RelationKind, evaluate

TOOL = f"bcc {__version__}"
ENV_MAX_PAIRS = "BCC_MAX_PAIRS"
HOLD_MARK = "✓"
FAIL_MARK = "✗"

_PAIR_NAME_RE = re.compile(r"^([pq])([0-9]+)$")


def _requested_kinds(args) -> tuple:
    if args.relations and not args.all:
        return tuple(dict.fromkeys(map(RelationKind, args.relations)))
    return ALL_RELATIONS


def _compile(source, max_states: int, union=None):
    """Compile a ``(where, name, rows)`` source into a ``lts._Union``, or,
    given none, into a graph of its own, which is returned.  ``where`` is
    the place the contract comes from, its file and line or a random pair's
    label and side, and prefixes a compile error, which names the contract
    too."""
    where, name, rows = source
    try:
        joined = _add(_Union() if union is None else union, rows, max_states, name)
    except IllFormedError as exc:
        raise BccError(f"{where}: contract {name!r}: {exc}") from exc
    except StateExplosionError as exc:
        raise BccError(f"{where}: {exc}") from exc
    return joined.graph(name)[0] if union is None else None


def _sources(path) -> dict:
    """The ``_compile`` source of each definition of a file, by name.  An
    unreadable or non-UTF-8 file is an error, and a parse error is prefixed
    with the file's path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BccError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise BccError(f"cannot read {path}: {exc}")
    try:
        definitions = _definitions(text)
    except ParseError as exc:
        raise BccError(f"{path}: {exc}")
    return {name: (f"{path}:{line}", name, rows) for name, line, rows in definitions}


def _pair_sources(args):
    """The ``_compile`` sources of the client and then the server named on
    the command line; each file is parsed once.  Callers map ``_compile``
    over it, which compiles each side before the next file is read, so
    errors come in argument order.  ``map`` calls ``_compile`` straight from
    the command's frame, one frame nearer ``main`` than a helper would, so
    the compiler's recursion keeps the room that the README's depth limits
    measure."""
    parsed = {}
    files = (args.client_file, args.server_file)
    for path, name in zip(files, (args.client_name, args.server_name)):
        if path not in parsed:
            parsed[path] = _sources(path)
        if name not in parsed[path]:
            raise BccError(f"contract {name!r} is not defined in {path}")
        yield parsed[path][name]


def _printable(text: str) -> str:
    """The text with what stdout cannot encode escaped: "‖" is "\\u2016" in C."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    return text.encode(encoding, "backslashreplace").decode(encoding)


def _emit(start: float, inputs: dict, body: dict, as_json: bool, human_lines) -> None:
    """Print a command's report: as JSON, its body with the tool and the
    inputs; else its human lines and the time since ``start``."""
    elapsed = (time.perf_counter() - start) * 1000
    if as_json:
        report = {"tool": TOOL, "inputs": inputs, **body}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(_printable(line))
        print(f"elapsed: {elapsed:.1f} ms")


def _pair_entry(client_name, server_name, verdicts) -> dict:
    witness = {
        kind.value: [[ps.client, ps.server] for ps in verdict.witness]
        for kind, verdict in verdicts.items()
        if verdict.witness is not None
    }
    return {
        "client": client_name,
        "server": server_name,
        "verdicts": {kind.value: v.holds for kind, v in verdicts.items()},
        "witness": witness,
    }


def _verdict_cells(verdicts) -> str:
    return "  ".join(
        f"{kind.value} {HOLD_MARK if verdicts[kind].holds else FAIL_MARK}"
        for kind in verdicts
    )


def _witness_lines(verdicts) -> list:
    lines = []
    for kind, verdict in verdicts.items():
        if verdict.witness is not None:
            path = " -> ".join(f"{c}‖{s}" for c, s in verdict.witness)
            lines.append(f"  {kind.value} witness: {path}")
    return lines


# -- check ----------------------------------------------------------------


def _cmd_check(args) -> int:
    start = time.perf_counter()
    client, server = map(_compile, _pair_sources(args), repeat(args.max_states))
    kinds = _requested_kinds(args)
    verdicts = evaluate(client, server, kinds, max_pairs=args.max_pairs)

    inputs = {
        "client": {"file": args.client_file, "name": args.client_name},
        "server": {"file": args.server_file, "name": args.server_name},
    }
    body = {"pairs": [_pair_entry(args.client_name, args.server_name, verdicts)]}
    human = [
        f"{args.client_name} ‖ {args.server_name}:  {_verdict_cells(verdicts)}"
    ] + _witness_lines(verdicts)
    _emit(start, inputs, body, args.json, human)
    return 0 if all(v.holds for v in verdicts.values()) else 1


# -- matrix ---------------------------------------------------------------


def _number_order(n: str) -> tuple:
    """The sort key of a digit string ``n`` that orders as ``(int(n), n)``
    does, with no int conversion, which refuses strings of more than 4300
    digits: a longer number without its leading zeros is larger."""
    s = n.lstrip("0")
    return len(s), s, n


def _corpus_pairs(corpus_dir: str) -> list:
    """The (pN, qN) pairs of the .bc files in a directory, keyed on the digit
    string N and ordered by (int(N), N), each side a ``_compile`` source.
    Names must be unique across the files; a name outside the convention or
    without its partner gets a note on stderr."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        raise BccError(f"{corpus_dir} is not a directory")
    defs = {}
    origin = {}
    for path in sorted(directory.glob("*.bc")):
        for name, source in _sources(path).items():
            if name in origin:
                raise BccError(
                    f"{path}: contract {name!r} already defined in {origin[name]}"
                )
            defs[name] = source
            origin[name] = str(path)
    numbers = set()
    for name in defs:
        m = _PAIR_NAME_RE.match(name)
        if not m:
            note = "does not follow the pN/qN pairing convention"
        else:
            partner = ("q" if m[1] == "p" else "p") + m[2]
            if partner in defs:
                numbers.add(m[2])
                continue
            note = f"has no partner {partner!r}"
        print(f"note: {origin[name]}: contract {name!r} {note}", file=sys.stderr)
    return [
        (defs["p" + n], defs["q" + n])
        for n in sorted(numbers, key=_number_order)
    ]


def _cmd_matrix(args) -> int:
    start = time.perf_counter()
    entries, rows = [], []
    # 3-character cells in UTF-8, widened by what escaping adds to the marks
    # and to "‖" (contract names are ASCII)
    sep = _printable(" ‖ ")
    marks = {True: _printable(HOLD_MARK), False: _printable(FAIL_MARK)}
    width = max(3, *(len(m) + 1 for m in marks.values()))
    all_hold = True
    for client_source, server_source in _corpus_pairs(args.corpus_dir):
        client = _compile(client_source, args.max_states)
        server = _compile(server_source, args.max_states)
        verdicts = evaluate(client, server, max_pairs=args.max_pairs)
        entries.append(_pair_entry(client.name, server.name, verdicts))
        cells = "  ".join(f"{marks[verdicts[k].holds]:>{width}}" for k in ALL_RELATIONS)
        rows.append((client.name + sep + server.name, cells))
        all_hold = all_hold and all(v.holds for v in verdicts.values())
    # the pair column fits the longest label; 10 characters at least in UTF-8
    name_width = max([len(sep) + 7] + [len(label) + 1 for label, _ in rows])
    codes = "  ".join(f"{k.value:>{width}}" for k in ALL_RELATIONS)
    human = ["pair".ljust(name_width) + codes]
    human += [label.ljust(name_width) + cells for label, cells in rows]
    _emit(start, {"corpus": args.corpus_dir}, {"pairs": entries}, args.json, human)
    return 0 if all_hold else 1


# -- verify-propositions ----------------------------------------------------


def _verify_pairs(args):
    """(label, client source, server source) of every pair to verify, as
    ``_compile`` reads them, corpus pairs first.  Each pair is handed out
    once and then no longer held here; random pairs are drawn one at a time,
    and each term is held only until its rows are written."""
    from .generator import iter_random_pairs
    from .terms import _rows

    corpus = _corpus_pairs(args.corpus_dir)
    corpus.reverse()
    while corpus:
        c, s = corpus.pop()
        yield f"{c[1]}‖{s[1]}", c, s
    for i, (c, s) in enumerate(iter_random_pairs(args.seed, args.random)):
        label = f"random{i}"
        yield label, (f"{label} client", "", _rows(c)), (f"{label} server", "", _rows(s))


def _merged_pairs(args) -> tuple:
    """The labels of the pairs to verify, and the merged client and server
    graphs with every pair's initial states.  Each side of each pair is
    compiled straight into its side's merged rows, so no pair has a graph
    of its own, and a pair's rows are freed once it is compiled."""
    labels, sides = [], (_Union(), _Union())
    for label, *pair in _verify_pairs(args):
        labels.append(label)
        for source, union in zip(pair, sides):
            _compile(source, args.max_states, union)
    if not labels:
        raise BccError(f"no contract pairs found under {args.corpus_dir}")
    return (labels, *sides[0].graph(), *sides[1].graph())


def _cmd_verify(args) -> int:
    from .fixpoint import classify
    from .propositions import relation_sets, verify_universe

    start = time.perf_counter()
    labels, merged_client, client_initials, merged_server, server_initials = (
        _merged_pairs(args)
    )
    composition = Composition(merged_client, merged_server)
    # greedy: keep each root whose closure still fits the bound (a root
    # that does not leaves the record as it was)
    record = {}
    kept_roots = {}
    dropped = []
    for label, root in zip(labels, map(PairState, client_initials, server_initials)):
        if composition.explore(record, [root], args.max_pairs):
            kept_roots[root] = None
        else:
            dropped.append(label)
    if not kept_roots:
        raise BccError("every pair exceeded the universe bound; raise --max-pairs")
    for label in dropped:
        print(
            f"note: dropped pair {label}: universe bound {args.max_pairs} exceeded",
            file=sys.stderr,
        )
    universe = PairUniverse(composition, record, kept_roots)

    sets = relation_sets(universe)
    reports = verify_universe(universe, sets=sets)
    classification = {
        kind.value: {
            "pre": (cls := classify(sets[kind])).is_pre,
            "post": cls.is_post,
            "fix": cls.is_fix,
        }
        for kind in RelationKind
    }

    inputs = {"corpus": args.corpus_dir, "random": args.random, "seed": args.seed}
    body = {
        "universe": {
            "pairs": len(universe),
            "roots": len(kept_roots),
            "dropped": dropped,
        },
        "propositions": [
            {
                "name": r.name,
                "ok": r.ok,
                "counterexamples": [[c, s] for c, s in r.counterexamples],
            }
            for r in reports
        ],
        "classification": classification,
    }
    human = [f"universe: {len(universe)} pairs from {len(kept_roots)} roots"]
    for r in reports:
        mark = "ok  " if r.ok else "FAIL"
        extra = ""
        if not r.ok:
            shown = ", ".join(f"{c}‖{s}" for c, s in r.counterexamples[:4])
            extra = f"  ({len(r.counterexamples)} counterexamples: {shown}...)"
        human.append(f"{mark} {r.name}{extra}")
    _emit(start, inputs, body, args.json, human)
    return 0 if all(r.ok for r in reports) else 1


# -- dot --------------------------------------------------------------------


def _cmd_dot(args) -> int:
    client, server = map(_compile, _pair_sources(args), repeat(args.max_states))
    composition = Composition(client, server)
    root = PairState(client.initial, server.initial)
    universe = composition.build_universe([root], args.max_pairs)
    try:
        Path(args.out_path).write_text(to_dot(universe), encoding="utf-8")
    except OSError as exc:
        raise BccError(f"cannot write {args.out_path}: {exc.strerror or exc}")
    return 0


# -- parser -----------------------------------------------------------------


@functools.cache  # one parser per process, built on first use; never mutated
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcc",
        description="Decide compliance relations between behavioural contracts "
        "and verify their fixed-point structure.",
    )
    parser.add_argument("--version", action="version", version=TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(sp):
        sp.add_argument("client_file")
        sp.add_argument("client_name")
        sp.add_argument("server_file")
        sp.add_argument("server_name")

    def add_common(sp):
        sp.add_argument(
            "--max-states",
            type=int,
            default=DEFAULT_MAX_STATES,
            help="per-contract compiled state bound",
        )
        sp.add_argument(
            "--max-pairs",
            type=int,
            default=None,
            help=f"universe pair bound (default {DEFAULT_MAX_PAIRS}, "
            f"or ${ENV_MAX_PAIRS})",
        )

    check = sub.add_parser("check", help="decide relations for one pair")
    add_pair(check)
    check.add_argument(
        "--relation",
        dest="relations",
        action="append",
        choices=[k.value for k in RelationKind],
        help="relation to decide (repeatable; default all)",
    )
    check.add_argument("--all", action="store_true", help="decide all six relations")
    check.add_argument("--json", action="store_true")
    add_common(check)
    check.set_defaults(func=_cmd_check)

    matrix = sub.add_parser(
        "matrix", help="pair x relation table over a corpus directory"
    )
    matrix.add_argument("corpus_dir")
    matrix.add_argument("--json", action="store_true")
    add_common(matrix)
    matrix.set_defaults(func=_cmd_matrix)

    verify = sub.add_parser(
        "verify-propositions",
        help="fixed-point and inclusion checks over corpus (+ random) pairs",
    )
    verify.add_argument("corpus_dir")
    verify.add_argument(
        "--random", type=int, default=0, help="extra random pairs to include"
    )
    verify.add_argument("--seed", type=int, default=0, help="root seed")
    verify.add_argument("--json", action="store_true")
    add_common(verify)
    verify.set_defaults(func=_cmd_verify)

    dot = sub.add_parser("dot", help="export a composition universe as graphviz")
    add_pair(dot)
    dot.add_argument("out_path")
    add_common(dot)
    dot.set_defaults(func=_cmd_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pairs_flag = "--max-pairs" if args.max_pairs is not None else ENV_MAX_PAIRS
        if args.max_pairs is None:
            raw = os.environ.get(ENV_MAX_PAIRS, str(DEFAULT_MAX_PAIRS))
            try:
                args.max_pairs = int(raw)
            except ValueError:
                raise BccError(f"{ENV_MAX_PAIRS} must be an integer, got {raw!r}")
        random, seed = getattr(args, "random", 0), getattr(args, "seed", 0)
        for flag, value, ok, rule in (
            ("--max-states", args.max_states, args.max_states > 0, "be positive"),
            (pairs_flag, args.max_pairs, args.max_pairs > 0, "be positive"),
            ("--random", random, random >= 0, "not be negative"),
            ("--seed", seed, _is_index(seed, 1 << 64), "be in [0, 2**64)"),
        ):
            if not ok:
                raise BccError(f"{flag} must {rule}, got {value}")
        return args.func(args)
    except (BccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: input nested too deeply: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
