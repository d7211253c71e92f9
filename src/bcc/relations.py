"""Decision procedures for the six compliance relations on finite pairs.

Each relation is decided over the tau-closed universe of the composition as
one reachability question: which pairs can reach the relation's target set
(its violations; for may-testing, success).  The same search decides a
single root and yields its witness.  The deciders share only the generic
graph kernels of ``lts`` with the fixed points, never the compliance
functional, so they stay independent of the fixed-point machinery that the
test suite checks them against.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .composition import DEFAULT_MAX_PAIRS, Composition, PairState, PairUniverse
from .lts import ContractGraph, attractor, reach


class RelationKind(enum.Enum):
    PROGRESS = "pg"
    MUST = "mst"
    SHOULD = "shd"
    BEH = "beh"
    IO = "io"
    MAY = "may"


ALL_RELATIONS = tuple(RelationKind)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one relation check.

    For a failed Progress/Must/Should/Beh/Io check the witness is a tau-path
    from the root ending at a pair violating the defining clause (for Must's
    divergence case the path revisits a pair, exhibiting the loop).  For a
    successful May check it is a tau-path to a successful pair.
    """

    kind: RelationKind
    holds: bool
    witness: Optional[tuple] = None


# -- per-universe set evaluators ------------------------------------------


def _progress_violations(universe: PairUniverse) -> frozenset:
    return frozenset(
        i
        for i in range(len(universe))
        if universe.is_stuck_index(i) and not universe.is_successful_index(i)
    )


def _beh_violations(universe: PairUniverse) -> frozenset:
    client = universe.client_graph
    server = universe.server_graph
    return _progress_violations(universe) | frozenset(
        i
        for i, (c, s) in enumerate(universe.pairs)
        if server.may_diverge(s) and not client.weak_reaches_zero(c)
    )


def _io_violations(universe: PairUniverse) -> frozenset:
    client = universe.client_graph
    server = universe.server_graph
    bad = set()
    for i, (c, s) in enumerate(universe.pairs):
        cw = client.weak_barbs(c)
        sw = server.weak_barbs(s)
        ok = cw.outputs <= sw.inputs and (
            not (not cw.outputs and cw.inputs)
            or (bool(sw.outputs) and sw.outputs <= cw.inputs)
        )
        if not ok:
            bad.add(i)
    return frozenset(bad)


def _targets(universe: PairUniverse, kind: RelationKind) -> tuple:
    """The relation's search: ``(targets, within)``.  The relation holds at
    a pair iff no target is tau-reachable from it along a path inside
    ``within`` (None: anywhere); may-testing holds iff one is."""
    everything = frozenset(range(len(universe)))
    successful = universe.successful_indices
    if kind is RelationKind.PROGRESS:
        return _progress_violations(universe), None
    if kind is RelationKind.MAY:
        return successful, None
    if kind is RelationKind.SHOULD:
        return everything - reach(universe.predecessors_idx, successful), None
    if kind is RelationKind.BEH:
        return _beh_violations(universe), None
    if kind is RelationKind.IO:
        return _io_violations(universe), None
    if kind is RelationKind.MUST:
        # stuck, or starting an infinite tau-path that avoids success
        stuck = frozenset(i for i in everything if universe.is_stuck_index(i))
        diverging = everything - attractor(
            universe.successors_idx, universe.predecessors_idx, successful | stuck
        )
        return stuck | diverging, everything - successful
    raise ValueError(f"unknown relation kind: {kind!r}")


def holding_indices(universe: PairUniverse, kind: RelationKind) -> frozenset:
    """Indices of the pairs at which the relation holds, each judged over
    the sub-universe reachable from that pair."""
    targets, within = _targets(universe, kind)
    reaching = reach(universe.predecessors_idx, targets, within)
    if kind is RelationKind.MAY:
        return reaching
    return frozenset(range(len(universe))) - reaching


# -- per-root verdicts and witnesses ---------------------------------------


def _shortest_path(universe, source: int, targets, within=None):
    """Shortest tau-path (as indices) from source to the nearest target;
    distance ties break by pair numbering at the target and along the path."""
    allowed = None if within is None else frozenset(within)
    if allowed is not None and source not in allowed:
        return None
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in universe.successors_idx[u]:
            if v not in dist and (allowed is None or v in allowed):
                dist[v] = dist[u] + 1
                queue.append(v)
    reached = [t for t in targets if t in dist]
    if not reached:
        return None
    goal = min(reached, key=lambda t: (dist[t], t))
    path = [goal]
    while path[-1] != source:
        here = path[-1]
        prev = min(
            p
            for p in universe.predecessors_idx[here]
            if p in dist
            and dist[p] == dist[here] - 1
            and (allowed is None or p in allowed)
        )
        path.append(prev)
    path.reverse()
    return path


def _lasso_extension(universe, start: int, pool) -> list:
    """Walk inside ``pool`` (every member has a successor in it) from start
    until a pair repeats; returns the walked indices after start, ending on
    the repeated pair."""
    walk = [start]
    positions = {start}
    while True:
        here = walk[-1]
        nxt = min(t for t in universe.successors_idx[here] if t in pool)
        walk.append(nxt)
        if nxt in positions:
            return walk[1:]
        positions.add(nxt)


def verdict_at(universe: PairUniverse, root: PairState, kind: RelationKind) -> Verdict:
    """Decide one relation for the contracts rooted at ``root`` inside an
    existing universe."""
    root_idx = universe.index_of(root)
    targets, within = _targets(universe, kind)
    path = _shortest_path(universe, root_idx, targets, within)
    holds = (path is not None) if kind is RelationKind.MAY else (path is None)
    if kind is RelationKind.MUST and path and universe.successors_idx[path[-1]]:
        # the path ends on a diverging pair, not a stuck one: exhibit the loop
        diverging = frozenset(t for t in targets if universe.successors_idx[t])
        path = path + _lasso_extension(universe, path[-1], diverging)
    witness = None if path is None else tuple(universe.pairs[i] for i in path)
    return Verdict(kind, holds, witness)


# -- contract-level entry points -------------------------------------------


def evaluate(
    client: ContractGraph,
    server: ContractGraph,
    kinds: Optional[Iterable[RelationKind]] = None,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> dict:
    """Decide the requested relations (all six by default) for one
    client/server pair, sharing a single universe."""
    kinds = ALL_RELATIONS if kinds is None else tuple(kinds)
    composition = Composition(client, server)
    root = PairState(client.initial, server.initial)
    universe = composition.build_universe([root], max_pairs)
    return {kind: verdict_at(universe, root, kind) for kind in kinds}


def _single(client, server, kind, max_pairs):
    return evaluate(client, server, [kind], max_pairs=max_pairs)[kind]


def check_progress(client, server, *, max_pairs=DEFAULT_MAX_PAIRS) -> Verdict:
    """Every stuck reduct of the composition is successful."""
    return _single(client, server, RelationKind.PROGRESS, max_pairs)


def check_must(client, server, *, max_pairs=DEFAULT_MAX_PAIRS) -> Verdict:
    """Every maximal tau-trace of the composition visits a successful pair."""
    return _single(client, server, RelationKind.MUST, max_pairs)


def check_should(client, server, *, max_pairs=DEFAULT_MAX_PAIRS) -> Verdict:
    """From every reduct of the composition a successful pair stays reachable."""
    return _single(client, server, RelationKind.SHOULD, max_pairs)


def check_beh(client, server, *, max_pairs=DEFAULT_MAX_PAIRS) -> Verdict:
    """No stuck unsuccessful reduct, and whenever the server component can
    diverge on its own the client can terminate on its own."""
    return _single(client, server, RelationKind.BEH, max_pairs)


def check_io(client, server, *, max_pairs=DEFAULT_MAX_PAIRS) -> Verdict:
    """At every reduct the client's weak outputs are matched by server weak
    inputs; an input-only client must be matched by server outputs."""
    return _single(client, server, RelationKind.IO, max_pairs)


def check_may(client, server, *, max_pairs=DEFAULT_MAX_PAIRS) -> Verdict:
    """Some tau-trace of the composition reaches a successful pair."""
    return _single(client, server, RelationKind.MAY, max_pairs)
