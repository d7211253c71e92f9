"""The traced run: each CLI command replayed as a sequence of public calls.

`mirror_check` and `mirror_verify` do what `bcc check` and
`bcc verify-propositions` do, one layer call at a time, with a span around
each call.  Spans marked as probes repeat part of a call only to split its
time between layers (the graph tables inside `compile_term`, the deciders
inside `verdict_at`, lfp/gfp inside `verify_universe`); they are not part
of the mirrored command.  The mirror returns the parts of the command's
JSON report it can rebuild, so the caller can check that it has not
drifted from the CLI.
"""

from __future__ import annotations

import contextlib
import re
import time
from collections import defaultdict
from pathlib import Path

from bcc.composition import DEFAULT_MAX_PAIRS, Composition, PairState
from bcc.fixpoint import classify, greatest_fixpoint, least_fixpoint
from bcc.lang import DEFAULT_MAX_STATES, compile_term, parse
from bcc.lts import ContractGraph, merge_graphs
from bcc.propositions import relation_sets, verify_universe
from bcc.relations import ALL_RELATIONS, RelationKind, holding_indices, verdict_at

_PAIR_NAME_RE = re.compile(r"^p([0-9]+)$")


class Tracer:
    """In-memory spans: (op, id, parent id, name, probe, start, end)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        record = {
            "op": self.op,
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "probe": probe,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def span_cost_ms(samples: int = 20000) -> float:
    """Milliseconds that recording one empty span costs."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) * 1000 / samples


def _compile(tracer, term, name: str):
    with tracer.span("lang.compile"):
        graph = compile_term(term, DEFAULT_MAX_STATES, name=name)
    with tracer.span("lts.graph", probe=True):
        ContractGraph(graph.num_states, graph.initial, graph.edges, graph.zero)
    return graph


def graph_sizes(graphs) -> dict:
    return {
        "states": sum(g.num_states for g in graphs),
        "edges": sum(len(g.edges) for g in graphs),
        "closure_entries": sum(
            len(g.tau_closure(s)) for g in graphs for s in range(g.num_states)
        ),
    }


def universe_sizes(universe, attempted: int) -> dict:
    return {
        "pairs": len(universe),
        "tau_edges": sum(len(t) for t in universe.successors_idx),
        "roots_kept": len(universe.roots),
        "roots_attempted": attempted,
    }


def mirror_check(argv, tracer) -> tuple:
    """`check <file> <client> <file> <server> --all`: returns the report's
    pair entry and the op's size counts."""
    client_file, client_name, server_file, server_name = argv[1:5]
    defs = {}
    for path in dict.fromkeys((client_file, server_file)):
        text = Path(path).read_text()
        with tracer.span("lang.parse"):
            defs[path] = {d.name: d for d in parse(text)}
    client = _compile(tracer, defs[client_file][client_name].term, client_name)
    server = _compile(tracer, defs[server_file][server_name].term, server_name)
    root = PairState(client.initial, server.initial)
    with tracer.span("composition.universe"):
        universe = Composition(client, server).build_universe([root], DEFAULT_MAX_PAIRS)
    with tracer.span("relations.decide", probe=True):
        for kind in ALL_RELATIONS:
            holding_indices(universe, kind)
    with tracer.span("relations.verdict"):
        verdicts = {kind: verdict_at(universe, root, kind) for kind in ALL_RELATIONS}
    witness = {
        kind.value: [[ps.client, ps.server] for ps in v.witness]
        for kind, v in verdicts.items()
        if v.witness is not None
    }
    entry = {
        "client": client_name,
        "server": server_name,
        "verdicts": {kind.value: v.holds for kind, v in verdicts.items()},
        "witness": witness,
    }
    sizes = graph_sizes((client, server)) | universe_sizes(universe, 1)
    sizes["witness_len"] = sum(len(w) for w in witness.values())
    return entry, sizes


def mirror_verify(argv, tracer) -> tuple:
    """`verify-propositions <dir>` without --random: returns the report's
    universe, propositions and classification, and the op's size counts."""
    directory = Path(argv[1])
    max_pairs = int(argv[argv.index("--max-pairs") + 1])
    defs = {}
    for path in sorted(directory.glob("*.bc")):
        text = path.read_text()
        with tracer.span("lang.parse"):
            defs.update((d.name, d) for d in parse(text))
    numbers = sorted(
        int(m.group(1))
        for name in defs
        if (m := _PAIR_NAME_RE.match(name)) and f"q{m.group(1)}" in defs
    )
    clients, servers = [], []
    for n in numbers:
        clients.append(_compile(tracer, defs[f"p{n}"].term, f"p{n}"))
        servers.append(_compile(tracer, defs[f"q{n}"].term, f"q{n}"))
    with tracer.span("lts.merge"):
        merged_client, client_initials = merge_graphs(clients)
        merged_server, server_initials = merge_graphs(servers)
    roots = [PairState(c, s) for c, s in zip(client_initials, server_initials)]
    with tracer.span("composition.universe"):
        universe = Composition(merged_client, merged_server).build_universe(
            roots, max_pairs
        )
    with tracer.span("relations.decide"):
        sets = relation_sets(universe)
    with tracer.span("fixpoint.lfp", probe=True):
        least_fixpoint(universe)
    with tracer.span("fixpoint.gfp", probe=True):
        greatest_fixpoint(universe)
    with tracer.span("propositions.verify"):
        reports = verify_universe(universe, sets=sets)
    classification = {}
    for kind in RelationKind:
        with tracer.span("fixpoint.step"):
            cls = classify(sets[kind])
        classification[kind.value] = {
            "pre": cls.is_pre,
            "post": cls.is_post,
            "fix": cls.is_fix,
        }
    result = {
        "universe": {"pairs": len(universe), "roots": len(universe.roots), "dropped": []},
        "propositions": [
            {
                "name": r.name,
                "ok": r.ok,
                "counterexamples": sorted([c, s] for c, s in r.counterexamples),
            }
            for r in reports
        ],
        "classification": classification,
    }
    sizes = graph_sizes(clients + servers) | universe_sizes(universe, len(numbers))
    sizes["witness_len"] = 0
    return result, sizes


def cli_view(command: str, report: dict):
    """The part of the CLI's JSON report that the mirror rebuilds."""
    if command == "check":
        return report["pairs"][0]
    return {
        "universe": report["universe"],
        "propositions": [
            p | {"counterexamples": sorted(p["counterexamples"])}
            for p in report["propositions"]
        ],
        "classification": report["classification"],
    }


MIRRORS = {"check": mirror_check, "verify-propositions": mirror_verify}


def layer_times(spans) -> tuple:
    """Split one op's spans (its root span first) into per-layer
    milliseconds, each layer's own share only; also returns the time of the
    mirrored command's own work, probes left out."""
    ms = defaultdict(float)
    for s in spans:
        ms[s["name"]] += (s["end"] - s["start"]) * 1000
    # a probe repeats part of a work span; the rest of that span is the
    # other layer's share
    witness = ms["relations.verdict"] - ms["relations.decide"] if "relations.verdict" in ms else 0.0
    verify = (
        ms["propositions.verify"] - ms["fixpoint.lfp"] - ms["fixpoint.gfp"]
        if "propositions.verify" in ms
        else 0.0
    )
    layers = {
        "lang.parse_ms": ms["lang.parse"],
        "lang.compile_ms": ms["lang.compile"] - ms["lts.graph"],
        "lts.graph_ms": ms["lts.graph"],
        "lts.merge_ms": ms["lts.merge"],
        "composition.universe_ms": ms["composition.universe"],
        "relations.decide_ms": ms["relations.decide"],
        "relations.witness_ms": witness,
        "fixpoint.lfp_ms": ms["fixpoint.lfp"],
        "fixpoint.gfp_ms": ms["fixpoint.gfp"],
        "fixpoint.step_ms": ms["fixpoint.step"],
        "propositions.verify_ms": verify,
    }
    root = spans[0]["id"]
    work = sum(
        (s["end"] - s["start"]) * 1000
        for s in spans
        if s["parent"] == root and not s["probe"]
    )
    return layers, work
