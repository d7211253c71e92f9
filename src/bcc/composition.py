"""Client/server parallel composition and tau-closed pair universes.

A composition pair moves by three rules: either side fires one of its own
edges (label kept), or the two sides synchronise on dual visible actions,
which the composition observes as a single tau-step.  A pair is successful
when its client component is the client graph's success state.

Inside, the pair ``(c, s)`` is the int ``c * |S| + s`` (``|S|`` server
states), and codes sort like the pairs.  The universe BFS, its record and
its tables work on codes; ``PairState`` objects are built only at the public
edges: ``tau_successors``, ``compose_step``, the ``pairs`` view (decoded on
first read), witnesses, reports and DOT.  The public entry points reject a
component out of range or not an int before coding, so no pair aliases
another; the BFS then reads the graphs' edge tables directly.  Those rows
hold int label codes (see ``lts``): tau is 0, and a visible action meets
its dual in the code that differs from its own in the last bit, so the sync
rule compares ints and reads no ``Label``.  ``compose_step`` and DOT read
labels through ``ContractGraph.out_edges``.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import Iterable, NamedTuple, Optional

from .errors import InvalidPairError, PairExplosionError, UniverseMismatchError
from .lts import TAU, ContractGraph, _is_index, discover, reverse

DEFAULT_MAX_PAIRS = 4096


class PairState(NamedTuple):
    client: int
    server: int


class Composition:
    """The product of one client graph and one server graph."""

    def __init__(self, client: ContractGraph, server: ContractGraph):
        self.client = client
        self.server = server
        # what the BFS reads for every pair, read off the graphs once: their
        # attributes load about twice as slowly (CPython 3.11) once a cached
        # table has materialised the instance dict
        self._rows = (
            server.num_states, client._tau_adj, server._tau_adj, client._out, server._out
        )

    def _code(self, ps) -> int:
        """``c * |S| + s`` for a pair of this composition's states; a bool,
        float, negative or out-of-range component would alias another pair."""
        c, s = ps if isinstance(ps, tuple) and len(ps) == 2 else (None, None)
        n = self.server.num_states
        if _is_index(c, self.client.num_states) and _is_index(s, n):
            return c * n + s
        raise InvalidPairError(f"pair {ps!r} is not valid for this composition")

    def _pairs(self, codes) -> tuple:
        widths = repeat(self.server.num_states)
        return tuple(map(PairState._make, map(divmod, codes, widths)))

    def compose_step(self, ps: PairState) -> tuple:
        """All (label, target) moves of the pair, deduplicated, in
        (label, client, server) order: the visible moves of either side
        alone, and a tau-move to each of ``tau_successors``."""
        moves = {(TAU, t) for t in self.tau_successors(ps)}
        c, s = ps
        for lab, c2 in self.client.out_edges(c):
            if lab.is_visible:
                moves.add((lab, PairState(c2, s)))
        for lab, s2 in self.server.out_edges(s):
            if lab.is_visible:
                moves.add((lab, PairState(c, s2)))
        return tuple(sorted(moves))

    def tau_successors(self, ps: PairState) -> tuple:
        """Targets of the pair's tau-moves (own taus plus synchronisations)."""
        return self._pairs(self._tau_targets(self._code(ps)))

    def _tau_targets(self, code: int) -> tuple:
        # unchecked: code must be valid; loops, as a comprehension costs a frame
        n, client_tau, server_tau, client_out, server_out = self._rows
        c, s = divmod(code, n)
        targets = set()
        for t in client_tau[c]:
            targets.add(t * n + s)
        for t in server_tau[s]:
            targets.add(code - s + t)
        server_row = server_out[s]
        for lab, c2 in client_out[c]:
            if lab:
                # a visible action meets its dual: rows hold label codes,
                # and the dual of a visible code differs in its last bit
                dual = lab ^ 1
                for slab, s2 in server_row:
                    if slab == dual:
                        targets.add(c2 * n + s2)
        return tuple(sorted(targets))

    def explore(self, record: dict, roots, max_pairs: int) -> bool:
        """Extend a tau-closed ``record`` (pair code -> the sorted codes of
        its tau-successors) to the least tau-closed superset of the roots:
        ``lts.discover`` under ``max_pairs``.  All or nothing: returns False,
        with the record as it was, when it would grow past the bound, so a
        caller can try roots one by one against one record.  Roots are
        validated before any change."""
        codes = [self._code(r) for r in roots]
        return discover(record, codes, self._tau_targets, max_pairs)

    def build_universe(
        self, roots: Iterable[PairState], max_pairs: int = DEFAULT_MAX_PAIRS
    ) -> "PairUniverse":
        """Least tau-successor-closed superset of the roots, numbered as
        ``explore`` discovers the pairs."""
        roots = self._pairs(dict.fromkeys(map(self._code, roots)))
        record = {}
        if not self.explore(record, roots, max_pairs):
            raise PairExplosionError(f"more than {max_pairs} pairs in universe")
        return PairUniverse(self, record, roots)


class PairUniverse:
    """Finite tau-successor-closed set of pairs: the lattice carrier.

    Built from an ``explore`` record; immutable after construction; indices
    follow the order of ``codes``, and of ``pairs``, their decoded view.
    """

    def __init__(self, composition: Composition, record: dict, roots):
        self.composition = composition
        self.codes = codes = tuple(record)
        self.roots = tuple(roots)
        self._position = position = dict(zip(codes, range(len(codes))))
        for r in self.roots:
            if r not in self:
                raise ValueError(f"root {r!r} not among the universe pairs")

        at = position.__getitem__
        try:
            self.successors_idx = tuple([tuple(map(at, ts)) for ts in record.values()])
        except KeyError:
            ps, t = composition._pairs(next(
                (code, t) for code, targets in record.items() for t in targets
                if t not in position
            ))
            raise ValueError(f"universe is not tau-closed: {ps!r} -> {t!r}") from None

        self.predecessors_idx = reverse(self.successors_idx)

        zero, n = composition.client.zero, composition.server.num_states
        self.successful_indices = frozenset(
            i for i, code in enumerate(codes) if code // n == zero
        )
        self.stuck_indices = frozenset(
            i for i, targets in enumerate(self.successors_idx) if not targets
        )

    @functools.cached_property
    def pairs(self) -> tuple:
        """The pairs as ``PairState``s, decoded on first read."""
        return self.composition._pairs(self.codes)

    @property
    def client_graph(self) -> ContractGraph:
        return self.composition.client

    @property
    def server_graph(self) -> ContractGraph:
        return self.composition.server

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.pairs)

    def _find(self, ps) -> Optional[int]:
        try:
            return self._position.get(self.composition._code(ps))
        except InvalidPairError:
            return None

    def __contains__(self, ps) -> bool:
        return self._find(ps) is not None

    def index_of(self, ps: PairState) -> int:
        i = self._find(ps)
        if i is None:
            raise UniverseMismatchError(f"pair {ps!r} is not in this universe")
        return i

    def __repr__(self) -> str:
        return (
            f"<PairUniverse pairs={len(self)} roots={len(self.roots)} "
            f"client={self.client_graph.name!r} server={self.server_graph.name!r}>"
        )


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def to_dot(universe: PairUniverse) -> str:
    """Graphviz rendering of a universe: successful pairs double-circled,
    tau-edges solid, visible moves (between member pairs) dashed."""
    cname = universe.client_graph.name or "client"
    sname = universe.server_graph.name or "server"
    nodes = [_quote(f"{cname}.{c} ‖ {sname}.{s}") for c, s in universe.pairs]
    lines = ["digraph universe {", "  rankdir=LR;"]
    for i, node in enumerate(nodes):
        shape = "doublecircle" if i in universe.successful_indices else "circle"
        lines.append(f"  {node} [shape={shape}];")
    for i, targets in enumerate(universe.successors_idx):
        lines += [f'  {nodes[i]} -> {nodes[t]} [label="tau"];' for t in targets]
    for i, ps in enumerate(universe.pairs):
        for lab, target in universe.composition.compose_step(ps):
            t = universe._find(target)
            if lab.is_visible and t is not None:
                tag = _quote(str(lab))
                lines.append(f"  {nodes[i]} -> {nodes[t]} [label={tag}, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
