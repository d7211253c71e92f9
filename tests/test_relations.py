import pytest

from bcc import (
    PairExplosionError,
    PairState,
    RelationKind,
    check_beh,
    check_io,
    check_may,
    check_must,
    check_progress,
    check_should,
    compile_term,
    corpus,
    evaluate,
    holding_indices,
    parse_term,
    restrict,
    verdict_at,
)
from conftest import compiled_random_pair, universe_of
from oracles import brute_verdicts, is_tau_path, witness_violates

# Expected corpus verdicts, in relation order pg, mst, shd, beh, io, may.
CORPUS_MATRIX = {
    ("p1", "q1"): (True, True, True, True, False, True),
    ("p2", "q2"): (True, False, False, True, True, False),
    ("p3", "q3"): (False, False, False, False, False, True),
    ("p4", "q4"): (True, False, True, False, True, True),
}

INCLUSIONS = [
    (RelationKind.MUST, RelationKind.SHOULD),
    (RelationKind.MUST, RelationKind.BEH),
    (RelationKind.MUST, RelationKind.MAY),
    (RelationKind.SHOULD, RelationKind.PROGRESS),
    (RelationKind.BEH, RelationKind.PROGRESS),
    (RelationKind.SHOULD, RelationKind.MAY),
    (RelationKind.IO, RelationKind.PROGRESS),
]


@pytest.mark.parametrize("pair,expected", sorted(CORPUS_MATRIX.items()))
def test_corpus_matrix(graphs, pair, expected):
    client, server = graphs[pair[0]], graphs[pair[1]]
    verdicts = evaluate(client, server)
    got = tuple(verdicts[k].holds for k in RelationKind)
    assert got == expected


def test_relation_table_rows():
    rows = [(k.name, k.value, k.place) for k in RelationKind]
    assert rows == [
        ("PROGRESS", "pg", "gfp"),
        ("MUST", "mst", "lfp"),
        ("SHOULD", "shd", "fix"),
        ("BEH", "beh", "fix"),
        ("IO", "io", "post"),
        ("MAY", "may", "pre"),
    ]
    assert all(RelationKind(k.value) is k for k in RelationKind)


def test_a_kind_that_is_not_a_relation_kind_is_rejected(graphs):
    client, server = graphs["p3"], graphs["q3"]
    # max_pairs=1 would fail the universe build: the kinds are checked first
    for kinds in (["pg"], [RelationKind.MUST, "may"], [None]):
        with pytest.raises(ValueError, match="unknown relation kind"):
            evaluate(client, server, kinds, max_pairs=1)
    universe = universe_of(client, server)
    root = PairState(client.initial, server.initial)
    with pytest.raises(ValueError, match="unknown relation kind: 'pg'"):
        verdict_at(universe, root, "pg")
    with pytest.raises(ValueError, match="unknown relation kind: 'pg'"):
        holding_indices(universe, "pg")
    with pytest.raises(ValueError, match="unknown relation kind: 'pg'"):
        restrict(universe, "pg")


def test_progress_trivial_cases(graphs):
    zero = compile_term(parse_term("0"))
    for server in (graphs["q1"], graphs["q2"], zero):
        assert check_progress(zero, server).holds


def test_progress_witness_is_the_sync_on_b_path(graphs):
    verdict = check_progress(graphs["p3"], graphs["q3"])
    assert not verdict.holds
    assert verdict.witness == (PairState(1, 1), PairState(2, 0))


def test_must_trivial_tau_step():
    client = compile_term(parse_term("tau.0"))
    server = compile_term(parse_term("0"))
    assert check_must(client, server).holds


def test_must_witness_exhibits_divergence(graphs):
    verdict = check_must(graphs["p2"], graphs["q2"])
    assert not verdict.holds
    path = verdict.witness
    assert len(path) > len(set(path))  # a pair repeats: the diverging loop


def test_must_witness_for_perpetual_server_loop(graphs):
    verdict = check_must(graphs["p4"], graphs["q4"])
    assert not verdict.holds
    root = PairState(graphs["p4"].initial, graphs["q4"].initial)
    assert verdict.witness == (root, root)


def test_should_examples(graphs):
    assert check_should(graphs["p4"], graphs["q4"]).holds
    assert not check_should(graphs["p2"], graphs["q2"]).holds
    assert check_should(graphs["p1"], graphs["q1"]).holds


def test_beh_examples(graphs):
    assert check_beh(graphs["p2"], graphs["q2"]).holds
    assert not check_beh(graphs["p4"], graphs["q4"]).holds
    assert not check_beh(graphs["p3"], graphs["q3"]).holds


def test_io_examples(graphs):
    assert not check_io(graphs["p1"], graphs["q1"]).holds
    assert check_io(graphs["p2"], graphs["q2"]).holds
    assert not check_io(graphs["p3"], graphs["q3"]).holds
    assert check_io(graphs["p4"], graphs["q4"]).holds


def test_io_witness_is_the_root_for_p1_q1(graphs):
    verdict = check_io(graphs["p1"], graphs["q1"])
    assert verdict.witness == (PairState(1, 1),)


def test_may_examples(graphs):
    assert check_may(graphs["p3"], graphs["q3"]).holds
    assert not check_may(graphs["p2"], graphs["q2"]).holds
    assert check_may(graphs["p4"], graphs["q4"]).holds


def test_may_success_trace_witness(graphs):
    verdict = check_may(graphs["p1"], graphs["q1"])
    assert verdict.holds
    assert verdict.witness == (PairState(1, 1), PairState(0, 0))
    assert check_may(graphs["p2"], graphs["q2"]).witness is None


def test_client_composed_with_client_is_legal(graphs):
    # !a.0 against !a.0: no synchronisation, no tau-move, client not terminal
    verdict = check_may(graphs["p4"], graphs["p4"])
    assert not verdict.holds


def test_pair_explosion_propagates(graphs):
    with pytest.raises(PairExplosionError):
        check_progress(graphs["p3"], graphs["q3"], max_pairs=2)


# -- witness replay ---------------------------------------------------------------


def replayable_kinds(verdicts):
    for kind, verdict in verdicts.items():
        if kind is not RelationKind.MAY and not verdict.holds:
            yield kind.value, verdict.witness


def test_corpus_witnesses_replay(graphs, corpus_pairs):
    for client, server in corpus_pairs:
        root = PairState(client.initial, server.initial)
        for code, path in replayable_kinds(evaluate(client, server)):
            assert is_tau_path(client, server, path, root)
            assert witness_violates(client, server, code, path)


@pytest.mark.parametrize("seed", range(150))
def test_random_witnesses_replay(seed):
    client, server = compiled_random_pair(seed)
    root = PairState(client.initial, server.initial)
    verdicts = evaluate(client, server)
    for code, path in replayable_kinds(verdicts):
        assert is_tau_path(client, server, path, root)
        assert witness_violates(client, server, code, path)
    may = verdicts[RelationKind.MAY]
    if may.holds:
        assert is_tau_path(client, server, may.witness, root)
        assert may.witness[-1].client == client.zero


# -- inclusion lattice ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(150))
def test_inclusion_lattice_on_random_pairs(seed):
    client, server = compiled_random_pair(seed)
    verdicts = evaluate(client, server)
    for smaller, larger in INCLUSIONS:
        assert not verdicts[smaller].holds or verdicts[larger].holds


def test_incomparability_witnesses_in_corpus(graphs):
    shd_not_beh = [
        (c, s)
        for (c, s) in corpus.example_pairs()
        if check_should(graphs[c], graphs[s]).holds
        and not check_beh(graphs[c], graphs[s]).holds
    ]
    beh_not_shd = [
        (c, s)
        for (c, s) in corpus.example_pairs()
        if check_beh(graphs[c], graphs[s]).holds
        and not check_should(graphs[c], graphs[s]).holds
    ]
    assert ("p4", "q4") in shd_not_beh
    assert ("p2", "q2") in beh_not_shd


# -- oracle equivalence ----------------------------------------------------------------


def test_corpus_agrees_with_brute_force(graphs, corpus_pairs):
    for client, server in corpus_pairs:
        got = {k.value: v.holds for k, v in evaluate(client, server).items()}
        assert got == brute_verdicts(client, server)


@pytest.mark.parametrize("seed", range(80))
def test_random_pairs_agree_with_brute_force(seed):
    client, server = compiled_random_pair(seed, max_depth=4)
    got = {k.value: v.holds for k, v in evaluate(client, server).items()}
    assert got == brute_verdicts(client, server)


# -- shared root search ------------------------------------------------------------


def one_kind_at_a_time(client, server):
    """Each verdict from its own fresh universe and its own search."""
    verdicts = {}
    for kind in RelationKind:
        universe = universe_of(client, server)
        verdicts[kind] = verdict_at(universe, universe.root, kind)
    return verdicts


@pytest.mark.parametrize("seed", range(60))
def test_evaluate_equals_one_kind_verdicts_on_random_pairs(seed):
    client, server = compiled_random_pair(seed)
    assert evaluate(client, server) == one_kind_at_a_time(client, server)


# the benchmark's tau-grid families at small sizes: tau^n.!a.0 against a
# server with m leading taus that accepts, refuses, or may loop back; and an
# !a chain against rec Y.?a.Y
FAMILY_PAIRS = [
    ("tau.tau.!a.0", "tau.tau.tau.?a.0"),
    ("tau.tau.tau.!a.0", "tau.?b.0"),
    ("tau.tau.!a.0", "rec Y.tau.tau.(?a.0 + tau.Y)"),
    ("!a.!a.!a.!a.0", "rec Y.?a.Y"),
]


@pytest.mark.parametrize("client_text,server_text", FAMILY_PAIRS)
def test_evaluate_equals_one_kind_verdicts_on_grid_families(client_text, server_text):
    client = compile_term(parse_term(client_text))
    server = compile_term(parse_term(server_text))
    assert evaluate(client, server) == one_kind_at_a_time(client, server)


def test_shared_search_keeps_the_must_lasso(graphs):
    client = compile_term(parse_term("tau.tau.!a.0"))
    server = compile_term(parse_term("rec Y.tau.tau.(?a.0 + tau.Y)"))
    for c, s in ((client, server), (graphs["p2"], graphs["q2"])):
        verdicts = evaluate(c, s)
        must = verdicts[RelationKind.MUST]
        assert not must.holds
        assert len(must.witness) > len(set(must.witness))  # the loop closes
        assert verdicts == one_kind_at_a_time(c, s)
