"""Decision procedures for the six compliance relations on finite pairs.

Success is absorbing: the client's success state has no moves, so every
tau-successor of a successful pair is successful.  Every violation is an
unsuccessful pair, so all its predecessors and every path to it are
unsuccessful too, and a search need not be confined to unsuccessful pairs.

Validation happens at the public entry points: ``evaluate`` checks its
kinds and builds its universe from valid graphs, and ``verdict_at`` looks
its root up.  The searches then read the universe's index tables and the
graphs' weak-barb, divergence and success tables directly; each graph builds
a table on its first read, so a decider pays only for the tables it reads.

The deciders share only the generic graph kernels of ``lts`` with the fixed
points, never the compliance functional, so they stay independent of the
fixed-point machinery that the test suite checks them against.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Iterable

from .composition import DEFAULT_MAX_PAIRS, Composition, PairState, PairUniverse
from .lts import ContractGraph, _Record, diverging, reach


def _must_targets(universe: PairUniverse) -> frozenset:
    # stuck short of success, or starting an infinite tau-path that avoids it
    successful, stuck = universe.successful_indices, universe.stuck_indices
    succ, pred = universe.successors_idx, universe.predecessors_idx
    return (stuck - successful) | diverging(succ, pred, successful | stuck)


def _should_targets(universe: PairUniverse) -> frozenset:
    everything = frozenset(range(len(universe)))
    return everything - reach(universe.predecessors_idx, universe.successful_indices)


def _beh_targets(universe: PairUniverse) -> frozenset:
    reaches_zero = universe.client_graph._reaches_zero
    diverging = universe.server_graph._diverging
    n = universe.server_graph.num_states
    return RelationKind.PROGRESS.targets(universe) | frozenset(
        i
        for i, code in enumerate(universe.codes)
        if code % n in diverging and code // n not in reaches_zero
    )


def _io_targets(universe: PairUniverse) -> frozenset:
    client_weak = universe.client_graph._weak
    server_weak = universe.server_graph._weak
    n = universe.server_graph.num_states
    bad = set()
    for i, code in enumerate(universe.codes):
        cw = client_weak[code // n]
        sw = server_weak[code % n]
        ok = cw.outputs <= sw.inputs and (
            not (not cw.outputs and cw.inputs)
            or (bool(sw.outputs) and sw.outputs <= cw.inputs)
        )
        if not ok:
            bad.add(i)
    return frozenset(bad)


class RelationKind(enum.Enum):
    """The paper's family of compliance relations, one row per relation.

    A row holds a relation's code (its ``value``), place and search.  The
    place is where its restriction to any tau-closed universe sits relative
    to the compliance functional F: the least fixed point (must), the
    greatest (progress), a fixed point (should, beh), post-fixed, R <= F(R)
    (io), or pre-fixed, F(R) <= R (may).  ``targets(universe)`` is the
    search: the pairs violating the relation's defining clause, or for may
    the successful pairs.  The relation holds at a pair iff no target is
    tau-reachable from it; may holds iff one is.
    """

    # a bare function would become a method, so each rides in its row's tuple
    PROGRESS = ("pg", "gfp", lambda u: u.stuck_indices - u.successful_indices)
    MUST = ("mst", "lfp", _must_targets)
    SHOULD = ("shd", "fix", _should_targets)
    BEH = ("beh", "fix", _beh_targets)
    IO = ("io", "post", _io_targets)
    MAY = ("may", "pre", lambda u: u.successful_indices)

    def __new__(cls, code: str, place: str, targets):
        member = object.__new__(cls)
        member._value_ = code
        member.place = place
        member.targets = targets
        return member


ALL_RELATIONS = tuple(RelationKind)


def _checked(kinds) -> tuple:
    kinds = tuple(kinds)
    for kind in kinds:
        if not isinstance(kind, RelationKind):
            raise ValueError(f"unknown relation kind: {kind!r}")
    return kinds


class Verdict(_Record):
    """Outcome of one relation check.  The witness is the shortest tau-path
    from the root to a target of the relation's search, if one is reachable;
    when Must's target diverges, the path goes on until a pair repeats."""

    __match_args__ = ("kind", "holds", "witness")

    def __init__(self, kind: RelationKind, holds: bool, witness: tuple | None = None):
        self._fill(kind, holds, witness)


def holding_indices(universe: PairUniverse, kind: RelationKind) -> frozenset:
    """Indices of the pairs at which the relation holds, each judged over
    the sub-universe reachable from that pair."""
    _checked([kind])
    reaching = reach(universe.predecessors_idx, kind.targets(universe))
    if kind is RelationKind.MAY:
        return reaching
    return frozenset(range(len(universe))) - reaching


# -- per-root verdicts and witnesses ---------------------------------------


def _distances(universe, source: int) -> list:
    """BFS distance of every pair from source (-1: unreached)."""
    dist = [-1] * len(universe)
    dist[source] = 0
    queue = deque([source])
    successors = universe.successors_idx
    while queue:
        u = queue.popleft()
        step = dist[u] + 1
        for v in successors[u]:
            if dist[v] < 0:
                dist[v] = step
                queue.append(v)
    return dist


def _shortest_path(universe, dist: list, targets):
    """Shortest tau-path (as indices) from the source of ``dist`` to the
    nearest target; distance ties break by pair numbering at the target and
    along the path."""
    reached = [(dist[t], t) for t in targets if dist[t] >= 0]
    if not reached:
        return None
    path = [min(reached)[1]]
    while dist[path[-1]]:
        here = path[-1]
        back = dist[here] - 1
        path.append(min(p for p in universe.predecessors_idx[here] if dist[p] == back))
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


def _verdicts(universe: PairUniverse, root_idx: int, kinds) -> dict:
    """Decide the relations of ``kinds`` at one root, from one BFS."""
    stuck = universe.stuck_indices
    dist = _distances(universe, root_idx)
    verdicts = {}
    for kind in kinds:
        targets = kind.targets(universe)
        path = _shortest_path(universe, dist, targets)
        holds = (path is not None) if kind is RelationKind.MAY else (path is None)
        if kind is RelationKind.MUST and path and path[-1] not in stuck:
            # the path ends on a diverging pair, not a stuck one: exhibit the loop
            path = path + _lasso_extension(universe, path[-1], targets - stuck)
        if path is not None:  # decode only the pairs on the path
            path = universe.composition._pairs([universe.codes[i] for i in path])
        verdicts[kind] = Verdict(kind, holds, path)
    return verdicts


def verdict_at(universe: PairUniverse, root: PairState, kind: RelationKind) -> Verdict:
    """Decide one relation for the contracts rooted at ``root`` inside an
    existing universe."""
    return _verdicts(universe, universe.index_of(root), _checked([kind]))[kind]


# -- contract-level entry points -------------------------------------------


def evaluate(
    client: ContractGraph,
    server: ContractGraph,
    kinds: Iterable[RelationKind] | None = None,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> dict:
    """Decide the requested relations (all six by default) for one
    client/server pair, sharing a single universe and its root search."""
    kinds = ALL_RELATIONS if kinds is None else _checked(kinds)
    composition = Composition(client, server)
    root = PairState(client.initial, server.initial)
    universe = composition.build_universe([root], max_pairs)
    return _verdicts(universe, universe.index_of(root), kinds)
