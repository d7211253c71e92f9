"""Client/server parallel composition and tau-closed pair universes.

A composition pair moves by three rules: either side fires one of its own
edges (label kept), or the two sides synchronise on dual visible actions,
which the composition observes as a single tau-step.  A pair is successful
when its client component is the client graph's success state.

Pairs are validated at the public entry points (``tau_successors``,
``compose_step``, ``is_successful``, the roots given to ``explore`` and
``build_universe``).  The universe BFS then reads the graphs' edge tables
directly: every pair it meets was produced from a valid one.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InvalidPairError, PairExplosionError, UniverseMismatchError
from .lts import TAU, ContractGraph, discover

DEFAULT_MAX_PAIRS = 4096


class PairState(NamedTuple):
    client: int
    server: int


class Composition:
    """The product of one client graph and one server graph."""

    def __init__(self, client: ContractGraph, server: ContractGraph):
        self.client = client
        self.server = server

    def _check(self, ps: PairState) -> None:
        c, s = ps
        if not (
            isinstance(c, int)
            and isinstance(s, int)
            and 0 <= c < self.client.num_states
            and 0 <= s < self.server.num_states
        ):
            raise InvalidPairError(f"pair {ps!r} is not valid for this composition")

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
        self._check(ps)
        return self._tau_targets(ps)

    def _tau_targets(self, ps: PairState) -> tuple:
        # unchecked: ps must be a pair of client and server graph states
        c, s = ps
        targets = {PairState(t, s) for t in self.client._tau_adj[c]}
        targets.update(PairState(c, t) for t in self.server._tau_adj[s])
        server_out = self.server._out[s]
        for lab, c2 in self.client._out[c]:
            if lab.kind:
                # a visible action meets its dual: same name, other kind
                dual, name = 3 - lab.kind, lab.name
                for slab, s2 in server_out:
                    if slab.kind == dual and slab.name == name:
                        targets.add(PairState(c2, s2))
        return tuple(sorted(targets))

    def is_successful(self, ps: PairState) -> bool:
        self._check(ps)
        return self.client.zero is not None and ps.client == self.client.zero

    def is_stuck(self, ps: PairState) -> bool:
        return not self.tau_successors(ps)

    def explore(self, record: dict, roots, max_pairs: int) -> bool:
        """Extend a tau-closed ``record`` (pair -> its tau-successors) to
        the least tau-closed superset of the roots: ``lts.discover`` under
        ``max_pairs``, with ties among a pair's successors broken by
        (client id, server id).  All or nothing: returns False, with the
        record as it was, when it would grow past the bound, so a caller
        can try roots one by one against one record.  Roots are validated
        before any change."""
        roots = tuple(roots)
        for r in roots:
            self._check(r)
        return discover(record, roots, self._tau_targets, max_pairs)

    def build_universe(
        self, roots: Iterable[PairState], max_pairs: int = DEFAULT_MAX_PAIRS
    ) -> "PairUniverse":
        """Least tau-successor-closed superset of the roots, numbered as
        ``explore`` discovers the pairs."""
        roots = tuple(dict.fromkeys(PairState(*r) for r in roots))
        record = {}
        if not self.explore(record, roots, max_pairs):
            raise PairExplosionError(f"more than {max_pairs} pairs in universe")
        return PairUniverse(self, record, roots)


class PairUniverse:
    """Finite tau-successor-closed set of pairs: the lattice carrier.

    Built from an ``explore`` record; immutable after construction; indices
    follow the order of ``pairs``.
    """

    def __init__(self, composition: Composition, record: dict, roots):
        self.composition = composition
        self.pairs = tuple(record)
        self.roots = tuple(roots)
        self._index = index = {ps: i for i, ps in enumerate(self.pairs)}
        for r in self.roots:
            if r not in index:
                raise ValueError(f"root {r!r} not among the universe pairs")

        try:
            self.successors_idx = tuple(
                [tuple([index[t] for t in targets]) for targets in record.values()]
            )
        except KeyError:
            ps, t = next(
                (ps, t) for ps, targets in record.items() for t in targets
                if t not in index
            )
            raise ValueError(f"universe is not tau-closed: {ps!r} -> {t!r}") from None

        preds = [[] for _ in self.pairs]
        for i, targets in enumerate(self.successors_idx):
            for t in targets:
                preds[t].append(i)
        self.predecessors_idx = tuple(tuple(p) for p in preds)

        zero = composition.client.zero
        self.successful_indices = frozenset(
            i for i, ps in enumerate(self.pairs) if ps.client == zero
        )
        self.stuck_indices = frozenset(
            i for i, targets in enumerate(self.successors_idx) if not targets
        )

    @property
    def client_graph(self) -> ContractGraph:
        return self.composition.client

    @property
    def server_graph(self) -> ContractGraph:
        return self.composition.server

    @property
    def root(self) -> PairState:
        return self.roots[0]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, ps) -> bool:
        return ps in self._index

    def index_of(self, ps: PairState) -> int:
        try:
            return self._index[ps]
        except KeyError:
            raise UniverseMismatchError(f"pair {ps!r} is not in this universe")

    def is_successful_index(self, i: int) -> bool:
        return i in self.successful_indices

    def __repr__(self) -> str:
        return (
            f"<PairUniverse pairs={len(self.pairs)} roots={len(self.roots)} "
            f"client={self.client_graph.name!r} server={self.server_graph.name!r}>"
        )


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def to_dot(universe: PairUniverse) -> str:
    """Graphviz rendering of a universe: successful pairs double-circled,
    tau-edges solid, visible moves (between member pairs) dashed."""
    cname = universe.client_graph.name or "client"
    sname = universe.server_graph.name or "server"

    def node(ps):
        return _quote(f"{cname}.{ps.client} ‖ {sname}.{ps.server}")

    lines = ["digraph universe {", "  rankdir=LR;"]
    for i, ps in enumerate(universe.pairs):
        shape = "doublecircle" if universe.is_successful_index(i) else "circle"
        lines.append(f"  {node(ps)} [shape={shape}];")
    for i, targets in enumerate(universe.successors_idx):
        for t in targets:
            lines.append(
                f"  {node(universe.pairs[i])} -> {node(universe.pairs[t])}"
                ' [label="tau"];'
            )
    for ps in universe.pairs:
        for lab, target in universe.composition.compose_step(ps):
            if lab.is_visible and target in universe:
                lines.append(
                    f"  {node(ps)} -> {node(target)}"
                    f' [label={_quote(str(lab))}, style=dashed];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
