"""Bounded-exhaustive check of the deciders and the fixed-point family.

Every contract graph with at most one non-success state over the labels
tau, ?a and !a, run against every other: the six verdicts and their
witnesses against the brute-force oracles, both extremal fixed points
against Kleene iteration of the functional, the universe tables against the
reference universe, every ``verify_universe`` proposition, and the
inclusions that hold between the relations.
"""

import itertools

import pytest

from bcc import (
    TAU,
    ContractGraph,
    PairSet,
    PairState,
    RelationKind,
    classify,
    compliance_step,
    evaluate,
    greatest_fixpoint,
    inp,
    least_fixpoint,
    out,
)
from bcc.propositions import INCLUSIONS, relation_sets, verify_universe
from conftest import universe_of
from oracles import brute_verdicts, is_tau_path, reference_universe, witness_violates

LABELS = (TAU, inp("a"), out("a"))


def scope_graphs() -> list:
    """``0``; a success state 0 beside a non-success initial state 1 with
    any non-empty set of the six moves (a label to 0 or to 1); and a lone
    non-success state with any non-empty set of the three self-loops."""
    graphs = [ContractGraph(1, 0, [], 0)]
    moves = list(itertools.product(LABELS, (0, 1)))
    for chosen in itertools.product((False, True), repeat=len(moves)):
        if any(chosen):
            edges = [(1, lab, t) for keep, (lab, t) in zip(chosen, moves) if keep]
            graphs.append(ContractGraph(2, 1, edges, 0))
    for chosen in itertools.product((False, True), repeat=len(LABELS)):
        if any(chosen):
            edges = [(0, lab, 0) for keep, lab in zip(chosen, LABELS) if keep]
            graphs.append(ContractGraph(1, 0, edges, None))
    return graphs


GRAPHS = scope_graphs()
PAIRS = list(itertools.product(GRAPHS, repeat=2))


def kleene(x: PairSet) -> PairSet:
    """Iterate the functional from x until it is stable: at most |U| + 1
    steps from the empty or the full set, by monotonicity."""
    for _ in range(len(x.universe) + 1):
        nxt = compliance_step(x)
        if nxt.indices == x.indices:
            return x
        x = nxt
    pytest.fail("Kleene iteration not stable within |U| + 1 steps")


def test_scope_counts():
    with_success = [g for g in GRAPHS if g.zero is not None and g.num_states == 2]
    without = [g for g in GRAPHS if g.zero is None]
    assert (len(with_success), len(without), len(GRAPHS)) == (63, 7, 71)
    assert len(PAIRS) == 5041
    assert all(a != b for a, b in itertools.combinations(GRAPHS, 2))


@pytest.mark.parametrize("c", range(len(GRAPHS)))
def test_every_pair_of_the_scope(c):
    client = GRAPHS[c]
    for server in GRAPHS:
        root = PairState(client.initial, server.initial)
        verdicts = evaluate(client, server)
        assert {k.value: v.holds for k, v in verdicts.items()} == brute_verdicts(
            client, server
        )
        for kind, verdict in verdicts.items():
            if kind is RelationKind.MAY:
                assert (verdict.witness is not None) == verdict.holds
                if verdict.holds:
                    assert is_tau_path(client, server, verdict.witness, root)
                    assert verdict.witness[-1].client == client.zero
            else:
                assert (verdict.witness is None) == verdict.holds
                if not verdict.holds:
                    assert is_tau_path(client, server, verdict.witness, root)
                    assert witness_violates(client, server, kind.value, verdict.witness)

        universe = universe_of(client, server)
        reference = reference_universe(universe.composition, [root], 4096)
        assert universe.pairs == reference.pairs
        assert universe.successors_idx == reference.successors_idx
        assert universe.predecessors_idx == reference.predecessors_idx
        assert universe.successful_indices == reference.successful_indices
        assert universe.stuck_indices == reference.stuck_indices

        lfp, gfp = least_fixpoint(universe), greatest_fixpoint(universe)
        assert kleene(PairSet(universe, ())).indices == lfp.indices
        assert kleene(PairSet(universe, range(len(universe)))).indices == gfp.indices
        assert all(r.ok for r in verify_universe(universe))


def test_the_scope_separates_io_and_may_from_fixed_points():
    """The io and may rows claim only post- and pre-fixedness: the scope
    holds an io restriction that is not pre-fixed and a may restriction
    that is not post-fixed, so neither place can be tightened to ``fix``."""
    io_not_pre = may_not_post = None
    for client, server in PAIRS:
        universe = universe_of(client, server)
        sets = relation_sets(universe)
        if io_not_pre is None and not classify(sets[RelationKind.IO]).is_pre:
            io_not_pre = (client, server)
        if may_not_post is None and not classify(sets[RelationKind.MAY]).is_post:
            may_not_post = (client, server)
        if io_not_pre and may_not_post:
            break
    assert io_not_pre is not None
    assert may_not_post is not None


# for each ordered pair (A, B) of relation codes that the scope separates,
# the first (client, server) of PAIRS, as indices into GRAPHS, at which A
# holds and B fails; the README writes each graph as a contract
SEPARATING = {
    ("pg", "mst"): (1, 4),
    ("pg", "shd"): (1, 4),
    ("pg", "may"): (1, 4),
    ("pg", "beh"): (1, 16),
    ("pg", "io"): (1, 16),
    ("mst", "io"): (9, 1),
    ("shd", "mst"): (2, 20),
    ("shd", "beh"): (2, 20),
    ("shd", "io"): (9, 1),
    ("beh", "mst"): (1, 4),
    ("beh", "shd"): (1, 4),
    ("beh", "may"): (1, 4),
    ("beh", "io"): (5, 1),
    ("io", "mst"): (1, 4),
    ("io", "shd"): (1, 4),
    ("io", "beh"): (1, 20),
    ("io", "may"): (1, 4),
    ("may", "pg"): (2, 36),
    ("may", "mst"): (2, 20),
    ("may", "shd"): (2, 36),
    ("may", "beh"): (2, 20),
    ("may", "io"): (2, 36),
}


def test_the_scope_pins_the_inclusion_lattice():
    """The inclusions that hold at every pair of the scope are exactly the
    transitive closure of ``INCLUSIONS``: its entries plus ``mst <= pg``,
    through ``shd`` or ``beh``.  Every other ordered pair of relations is
    separated by some pair of the scope, and the first such pair of each
    is pinned in ``SEPARATING``."""
    closure = set(INCLUSIONS)
    while True:
        implied = {(a, d) for a, b in closure for c, d in closure if b is c}
        if implied <= closure:
            break
        closure |= implied
    assert closure == set(INCLUSIONS) | {(RelationKind.MUST, RelationKind.PROGRESS)}

    ordered = set(itertools.permutations(RelationKind, 2))
    separated = set()
    first = {}
    for client, server in PAIRS:
        holding = {k for k, v in evaluate(client, server).items() if v.holds}
        now = {(a, b) for a, b in ordered if a in holding and b not in holding}
        for a, b in now - separated:
            first[a.value, b.value] = (GRAPHS.index(client), GRAPHS.index(server))
        separated |= now
    assert ordered - separated == closure  # so 22 of the 30 are separated
    assert first == SEPARATING
