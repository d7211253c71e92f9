import hypothesis.strategies as st
import pytest
from hypothesis import given

from bcc import (
    TAU,
    Composition,
    ContractGraph,
    InvalidPairError,
    Label,
    PairExplosionError,
    PairSet,
    PairState,
    PairUniverse,
    RelationKind,
    UniverseMismatchError,
    compile_term,
    evaluate,
    inp,
    merge_graphs,
    out,
    parse_term,
    random_pairs,
    to_dot,
    verdict_at,
)
from conftest import compiled_random_pair, contract_graphs, universe_of
from oracles import (
    pair_moves,
    pair_tau_successors,
    reference_explore,
    reference_universe,
)


def comp(graphs, c, s):
    return Composition(graphs[c], graphs[s])


def root_of(graphs, c, s):
    return PairState(graphs[c].initial, graphs[s].initial)


# -- compose_step ----------------------------------------------------------


def test_compose_step_derives_all_three_rules(graphs):
    composition = comp(graphs, "p1", "q1")
    moves = composition.compose_step(root_of(graphs, "p1", "q1"))
    assert set(moves) == {
        (TAU, PairState(0, 0)),      # synchronisation on a
        (inp("a"), PairState(1, 0)),  # server moves alone
        (out("a"), PairState(0, 1)),  # client moves alone
        (out("b"), PairState(0, 1)),
    }
    assert list(moves) == sorted(moves)


def with_fresh_labels(graph):
    """The graph rebuilt from labels equal to its own, but not the shared ones."""
    edges = [(s, Label(lab.kind, lab.name), t) for s, lab, t in graph.edges]
    return ContractGraph(graph.num_states, graph.initial, edges, graph.zero, graph.name)


def test_graphs_built_from_fresh_labels_still_synchronise(graphs, corpus_pairs):
    # the constructor stores the shared label of each action, so a dual is
    # found by identity however the labels were built
    client, server = with_fresh_labels(graphs["p1"]), with_fresh_labels(graphs["q1"])
    root = root_of(graphs, "p1", "q1")
    sync = Composition(client, server).compose_step(root)
    assert sync == comp(graphs, "p1", "q1").compose_step(root)
    assert (TAU, PairState(0, 0)) in sync
    pairs = corpus_pairs + [compiled_random_pair(seed) for seed in range(40)]
    for client, server in pairs:
        fresh = evaluate(with_fresh_labels(client), with_fresh_labels(server))
        assert fresh == evaluate(client, server)


def test_compose_step_of_terminal_pair(graphs):
    composition = comp(graphs, "p1", "q1")
    assert composition.compose_step(PairState(0, 0)) == ()


def test_compose_step_no_synchronisation_yet(graphs):
    composition = comp(graphs, "p2", "q2")
    moves = composition.compose_step(root_of(graphs, "p2", "q2"))
    taus = [m for m in moves if m[0] == TAU]
    assert taus == [(TAU, PairState(1, 0))]  # only p2's own tau


def test_invalid_pair_rejected(graphs):
    composition = comp(graphs, "p1", "q1")
    with pytest.raises(InvalidPairError):
        composition.compose_step(PairState(5, 0))
    with pytest.raises(InvalidPairError):
        composition.tau_successors(PairState(0, -1))


@pytest.mark.parametrize("seed", range(60))
def test_compose_step_matches_rule_rederivation(seed):
    client, server = compiled_random_pair(seed, max_depth=4)
    composition = Composition(client, server)
    universe = composition.build_universe(
        [PairState(client.initial, server.initial)]
    )
    for ps in universe:
        assert set(composition.compose_step(ps)) == pair_moves(client, server, ps)
        assert set(composition.tau_successors(ps)) == pair_tau_successors(
            client, server, ps
        )


def test_invalid_roots_rejected_before_the_record_changes(graphs):
    composition = comp(graphs, "p1", "q1")
    root = root_of(graphs, "p1", "q1")
    # a list is no pair here, as for explore and tau_successors
    for bad in (PairState(9, 0), PairState(0, 9), (1, 1, 0), 5, [1, 1]):
        with pytest.raises(InvalidPairError):
            composition.build_universe([root, bad])
        record = {}
        with pytest.raises(InvalidPairError):
            composition.explore(record, [root, bad], max_pairs=10)
        assert record == {}


# -- tau_successors -----------------------------------------------------------


def test_tau_successors_examples(graphs):
    assert comp(graphs, "p1", "q1").tau_successors(root_of(graphs, "p1", "q1")) == (
        PairState(0, 0),
    )
    # p4||q4 can loop on the server tau or synchronise to success
    assert comp(graphs, "p4", "q4").tau_successors(root_of(graphs, "p4", "q4")) == (
        PairState(0, 0),
        PairState(1, 1),
    )
    assert comp(graphs, "p1", "q1").tau_successors(PairState(0, 0)) == ()


# -- success and stuckness ------------------------------------------------------


def test_is_successful_checks_the_client_only(graphs):
    composition = comp(graphs, "p1", "q2")
    assert composition.is_successful(PairState(0, 0))
    assert not composition.is_successful(PairState(1, 0))
    # a plain tuple is a pair too, as for tau_successors
    assert composition.is_successful((0, 0))
    assert not composition.is_successful((1, 0))


def test_client_without_terminal_state_is_never_successful(graphs):
    composition = comp(graphs, "p2", "q2")
    for c in range(graphs["p2"].num_states):
        assert not composition.is_successful(PairState(c, 0))


def test_is_stuck_examples(graphs):
    p3q3 = comp(graphs, "p3", "q3")
    # after the synchronisation on b: client at ?c.0, server terminated
    assert not p3q3.tau_successors(PairState(2, 0))
    assert comp(graphs, "p2", "q2").tau_successors(root_of(graphs, "p2", "q2"))
    assert not p3q3.tau_successors(PairState(0, 0))


# -- universes --------------------------------------------------------------------


def test_universe_of_p1_q1(graphs):
    universe = universe_of(graphs["p1"], graphs["q1"])
    assert universe.pairs == (PairState(1, 1), PairState(0, 0))
    assert universe.successful_indices == {1}
    assert universe.roots[0] == PairState(1, 1)


def test_universe_of_terminal_pair(graphs):
    zero = compile_term(parse_term("0"))
    universe = universe_of(zero, zero)
    assert universe.pairs == (PairState(0, 0),)
    assert universe.successful_indices == {0}


def test_universe_of_p2_q2_is_the_two_pair_cycle(graphs):
    universe = universe_of(graphs["p2"], graphs["q2"])
    assert universe.pairs == (PairState(0, 0), PairState(1, 0))
    assert universe.successors_idx == ((1,), (0,))


def test_universe_respects_pair_bound(graphs):
    with pytest.raises(PairExplosionError):
        universe_of(graphs["p1"], graphs["q1"], max_pairs=1)


def test_explore_over_the_bound_leaves_the_record_as_it_was(graphs):
    client, client_initials = merge_graphs([graphs["p2"], graphs["p4"]])
    server, server_initials = merge_graphs([graphs["q2"], graphs["q4"]])
    composition = Composition(client, server)
    first, second = map(PairState, client_initials, server_initials)
    record = {}
    assert not composition.explore(record, [first], max_pairs=1)
    assert record == {}
    assert composition.explore(record, [first], max_pairs=10)
    before = list(record.items())
    both = len(composition.build_universe([first, second]))
    # the second root fits, one of its successors does not
    assert both == len(before) + 2
    assert not composition.explore(record, [second], max_pairs=both - 1)
    assert list(record.items()) == before
    assert composition.explore(record, [second], max_pairs=both)
    assert list(record.items())[: len(before)] == before


def test_multi_root_universe_orders_roots_first(graphs):
    composition = comp(graphs, "p3", "q3")
    roots = [PairState(1, 1), PairState(2, 0)]
    universe = composition.build_universe(roots)
    assert universe.pairs[:2] == tuple(roots)
    assert universe.roots == tuple(roots)


def test_universe_record_must_be_tau_closed_and_hold_the_roots(graphs):
    composition = comp(graphs, "p1", "q1")
    root = root_of(graphs, "p1", "q1")

    def code(ps):  # the record's pair coding: client * |server| + server
        return ps.client * graphs["q1"].num_states + ps.server

    successors = tuple(map(code, composition.tau_successors(root)))
    with pytest.raises(
        ValueError,
        match=r"not tau-closed: PairState\(client=1, server=1\) -> "
        r"PairState\(client=0, server=0\)",
    ):
        PairUniverse(composition, {code(root): successors}, [root])
    with pytest.raises(
        ValueError, match=r"root PairState\(client=1, server=1\) not among"
    ):
        PairUniverse(composition, {code(PairState(0, 0)): ()}, [root])


@pytest.mark.parametrize("seed", range(60))
def test_universe_is_tau_closed(seed):
    client, server = compiled_random_pair(seed)
    universe = universe_of(client, server)
    composition = universe.composition
    for ps in universe:
        for t in composition.tau_successors(ps):
            assert t in universe
    assert universe.stuck_indices == {
        i for i, t in enumerate(universe.successors_idx) if not t
    }


def assert_universe_successors_match_oracle(universe):
    """The universe BFS reads the graph tables without validating; its
    successor lists must still follow the three composition rules."""
    client, server = universe.client_graph, universe.server_graph
    for i, ps in enumerate(universe.pairs):
        assert [universe.pairs[j] for j in universe.successors_idx[i]] == sorted(
            pair_tau_successors(client, server, ps)
        )


@pytest.mark.parametrize("seed", range(60))
def test_universe_successors_match_oracle_on_random_pairs(seed):
    assert_universe_successors_match_oracle(universe_of(*compiled_random_pair(seed)))


def test_universe_successors_match_oracle_on_merged_graphs():
    pairs = random_pairs(1, 200)
    client, client_initials = merge_graphs([compile_term(c) for c, _ in pairs])
    server, server_initials = merge_graphs([compile_term(s) for _, s in pairs])
    roots = [PairState(c, s) for c, s in zip(client_initials, server_initials)]
    universe = Composition(client, server).build_universe(roots, max_pairs=100000)
    assert len(universe.roots) > 100
    assert_universe_successors_match_oracle(universe)


@pytest.mark.parametrize(
    "client_text,server_text,root_moves",
    [
        # both synchronisations on a lead to the same pair
        ("!a.0 + ?a.0", "?a.0 + !a.0", 1),
        # only dual kinds meet: !a with ?a and ?a with !a, never !a with !a
        ("!a.0 + ?a.!b.0", "?a.0 + !a.?b.0", 2),
    ],
)
def test_universe_successors_match_oracle_when_names_go_both_ways(
    client_text, server_text, root_moves
):
    client = compile_term(parse_term(client_text))
    server = compile_term(parse_term(server_text))
    universe = universe_of(client, server)
    assert len(universe.successors_idx[0]) == root_moves
    assert_universe_successors_match_oracle(universe)


@pytest.mark.parametrize("seed", range(40))
def test_successful_pairs_move_only_by_server_taus(seed):
    client, server = compiled_random_pair(seed)
    universe = universe_of(client, server)
    composition = universe.composition
    for ps in universe:
        if composition.is_successful(ps):
            for t in composition.tau_successors(ps):
                assert t.client == ps.client
                assert (TAU, t.server) in server.out_edges(ps.server)


def product_universe(client, server):
    # every pair of the product is a root, so no successful pair is missed
    roots = [
        PairState(c, s)
        for c in range(client.num_states)
        for s in range(server.num_states)
    ]
    return Composition(client, server).build_universe(roots)


def merged_universe(clients, servers):
    client, client_initials = merge_graphs(clients)
    server, server_initials = merge_graphs(servers)
    roots = list(map(PairState, client_initials, server_initials))
    return Composition(client, server).build_universe(roots)


@given(
    st.one_of(
        st.builds(product_universe, contract_graphs(), contract_graphs()),
        st.builds(
            merged_universe,
            st.lists(contract_graphs(), min_size=2, max_size=4),
            st.lists(contract_graphs(), min_size=2, max_size=4),
        ),
        st.builds(
            lambda seed: universe_of(*compiled_random_pair(seed)),
            st.integers(0, 2**32 - 1),
        ),
    )
)
def test_success_is_absorbing(universe):
    # the deciders search the whole universe because of this: a successful
    # pair reaches only successful pairs
    successful = universe.successful_indices
    for i in successful:
        assert set(universe.successors_idx[i]) <= successful


# -- the int-coded universe against the PairState one ----------------------------


def any_roots(data, client, server):
    pair = st.builds(
        PairState,
        st.integers(0, client.num_states - 1),
        st.integers(0, server.num_states - 1),
    )
    return data.draw(st.lists(pair, min_size=1, max_size=3))


def assert_matches_reference(composition, roots, max_pairs=4096):
    reference = reference_universe(composition, roots, max_pairs)
    universe = composition.build_universe(roots, max_pairs)
    assert universe.pairs == reference.pairs
    assert universe.successors_idx == reference.successors_idx
    assert universe.predecessors_idx == reference.predecessors_idx
    assert universe.successful_indices == reference.successful_indices
    assert universe.stuck_indices == reference.stuck_indices
    assert universe.roots == reference.roots
    n = composition.server.num_states
    assert universe.codes == tuple(c * n + s for c, s in reference.pairs)


@given(contract_graphs(), contract_graphs(), st.data())
def test_coded_universe_matches_the_pair_state_universe(client, server, data):
    assert_matches_reference(
        Composition(client, server), any_roots(data, client, server)
    )


@given(
    contract_graphs(max_states=40), contract_graphs(max_states=2), st.data()
)
def test_coded_universe_matches_with_a_much_larger_client(client, server, data):
    assert_matches_reference(
        Composition(client, server), any_roots(data, client, server)
    )


@given(
    contract_graphs(max_states=2), contract_graphs(max_states=40), st.data()
)
def test_coded_universe_matches_with_a_much_larger_server(client, server, data):
    assert_matches_reference(
        Composition(client, server), any_roots(data, client, server)
    )


@given(contract_graphs(success=False), contract_graphs(), st.data())
def test_coded_universe_matches_for_clients_without_success(client, server, data):
    assert client.zero is None
    assert_matches_reference(
        Composition(client, server), any_roots(data, client, server)
    )


@given(
    st.lists(contract_graphs(), min_size=2, max_size=4),
    st.lists(contract_graphs(), min_size=2, max_size=4),
)
def test_coded_universe_matches_on_merged_graphs(clients, servers):
    client, client_initials = merge_graphs(clients)
    server, server_initials = merge_graphs(servers)
    roots = list(map(PairState, client_initials, server_initials))
    assert_matches_reference(Composition(client, server), roots)


@given(st.integers(0, 2**32 - 1))
def test_coded_universe_matches_on_random_pairs(seed):
    client, server = compiled_random_pair(seed)
    assert_matches_reference(
        Composition(client, server), [PairState(client.initial, server.initial)]
    )


@given(contract_graphs(), contract_graphs(), st.data())
def test_explore_bound_is_all_or_nothing_on_a_code_record(client, server, data):
    # the same two explore calls on a code record and on a PairState record
    composition = Composition(client, server)
    n = server.num_states

    def decode(code):
        return PairState(*divmod(code, n))

    def decoded(record):
        return [
            (decode(code), tuple(map(decode, targets)))
            for code, targets in record.items()
        ]

    record, reference = {}, {}
    for _ in range(2):
        root = any_roots(data, client, server)[0]
        before = list(record.items())
        bound = data.draw(st.integers(max(len(record), 1), len(record) + 8))
        fits = composition.explore(record, [root], bound)
        assert fits == reference_explore(composition, reference, [root], bound)
        if not fits:
            assert list(record.items()) == before
        assert all(type(code) is int for code in record)
        assert decoded(record) == list(reference.items())


# -- no pair aliases another's code -----------------------------------------------


def test_out_of_range_components_do_not_alias_pairs():
    # a tau-grid: client states 1..4 each meet server states 1..5
    client = compile_term(parse_term("tau.tau.tau.!a.0"))
    server = compile_term(parse_term("rec Y.tau.tau.tau.tau.(?a.0 + tau.Y)"))
    n = server.num_states
    assert n == 6
    universe = universe_of(client, server)
    full = PairSet.full(universe)
    # input -> the member that c * |S| + s would code it as, if any
    inputs = {
        PairState(2, 2 + n): PairState(3, 2),
        PairState(3, 2 - n): PairState(2, 2),
        PairState(2, -1): PairState(1, n - 1),
        PairState(-1, 2): None,
        PairState(2.5, 2): PairState(2, 2 + n // 2),  # n is even
        PairState(True, 0): None,  # no pair (1, 0) either
        PairState(False, 1): None,
    }
    for ps, alias in inputs.items():
        assert alias is None or alias in universe
        assert ps not in universe
        assert ps not in full
        with pytest.raises(UniverseMismatchError):
            universe.index_of(ps)
        with pytest.raises(UniverseMismatchError):
            PairSet.of_pairs(universe, [ps])
        with pytest.raises(UniverseMismatchError):
            verdict_at(universe, ps, RelationKind.MAY)
        with pytest.raises(InvalidPairError):
            universe.composition.is_successful(ps)


# -- dot export -----------------------------------------------------------------


def test_dot_export_p1_q1(graphs):
    dot = to_dot(universe_of(graphs["p1"], graphs["q1"]))
    assert dot.count("shape=circle") == 1
    assert dot.count("shape=doublecircle") == 1
    assert dot.count('label="tau"') == 1
    assert "style=dashed" not in dot  # visible moves leave the universe
    assert '"p1.1 ‖ q1.1"' in dot and '"p1.0 ‖ q1.0"' in dot


def test_dot_export_p2_q2_cycle(graphs):
    dot = to_dot(universe_of(graphs["p2"], graphs["q2"]))
    assert dot.count("shape=circle") == 2
    assert dot.count("doublecircle") == 0
    assert dot.count('label="tau"') == 2
    assert dot.count("style=dashed") == 3  # client !a move plus two ?a self-loops


def test_dot_export_terminal_pair():
    zero = compile_term(parse_term("0"), name="stop")
    dot = to_dot(universe_of(zero, zero))
    assert dot.count("doublecircle") == 1
    assert "->" not in dot
