import pytest

from bcc import (
    Composition,
    PairSet,
    PairState,
    RelationKind,
    UniverseMismatchError,
    classify,
    compile_term,
    compliance_step,
    greatest_fixpoint,
    least_fixpoint,
    merge_graphs,
    parse_term,
    restrict,
    verdict_at,
)
from bcc.generator import SplitMix64
from conftest import compiled_random_pair, universe_of


@pytest.fixture(scope="module")
def corpus_universe(graphs):
    names = [("p1", "q1"), ("p2", "q2"), ("p3", "q3"), ("p4", "q4")]
    merged_client, client_initials = merge_graphs([graphs[c] for c, _ in names])
    merged_server, server_initials = merge_graphs([graphs[s] for _, s in names])
    composition = Composition(merged_client, merged_server)
    roots = [PairState(c, s) for c, s in zip(client_initials, server_initials)]
    return composition.build_universe(roots)


def random_universe(seed, **cfg_kwargs):
    client, server = compiled_random_pair(seed, **cfg_kwargs)
    return universe_of(client, server)


def random_subset(universe, rng):
    return PairSet(
        universe,
        frozenset(i for i in range(len(universe)) if rng.random() < 0.5),
    )


# -- the functional ------------------------------------------------------------


def test_step_of_empty_is_the_successful_pairs(graphs):
    universe = universe_of(graphs["p1"], graphs["q1"])
    result = compliance_step(PairSet.empty(universe))
    assert result.indices == universe.successful_indices


def test_step_adds_pairs_whose_successors_are_inside(graphs):
    universe = universe_of(graphs["p1"], graphs["q1"])
    seeded = PairSet.of_pairs(universe, [PairState(0, 0)])
    result = compliance_step(seeded)
    assert result.pairs() == (PairState(1, 1), PairState(0, 0))


def test_step_of_full_universe_drops_stuck_unsuccessful_pairs(graphs):
    universe = universe_of(graphs["p3"], graphs["q3"])
    result = compliance_step(PairSet.full(universe))
    expected = {
        i
        for i in range(len(universe))
        if i in universe.successful_indices or universe.successors_idx[i]
    }
    assert result.indices == expected


@pytest.mark.parametrize("seed", range(120))
def test_step_is_monotone_and_absorbs_success(seed):
    rng = SplitMix64(seed)
    universe = random_universe(seed)
    smaller = random_subset(universe, rng)
    larger = smaller | random_subset(universe, rng)
    assert compliance_step(smaller) <= compliance_step(larger)
    assert universe.successful_indices <= compliance_step(smaller).indices


# -- fixed points -----------------------------------------------------------------


def test_lfp_examples(graphs):
    u1 = universe_of(graphs["p1"], graphs["q1"])
    assert PairState(1, 1) in least_fixpoint(u1)
    u2 = universe_of(graphs["p2"], graphs["q2"])
    assert least_fixpoint(u2).pairs() == ()
    zero = compile_term(parse_term("0"))
    u0 = universe_of(zero, zero)
    assert least_fixpoint(u0).pairs() == (PairState(0, 0),)


def test_gfp_examples(graphs):
    u4 = universe_of(graphs["p4"], graphs["q4"])
    assert PairState(graphs["p4"].initial, graphs["q4"].initial) in greatest_fixpoint(u4)
    u3 = universe_of(graphs["p3"], graphs["q3"])
    assert PairState(graphs["p3"].initial, graphs["q3"].initial) not in greatest_fixpoint(u3)
    zero = compile_term(parse_term("0"))
    u0 = universe_of(zero, zero)
    assert greatest_fixpoint(u0).pairs() == (PairState(0, 0),)


@pytest.mark.parametrize("seed", range(60))
def test_fixpoints_are_fixed_and_reached_within_bound(seed):
    universe = random_universe(seed)
    bound = len(universe) + 1

    x = PairSet.empty(universe)
    for _ in range(bound):
        nxt = compliance_step(x)
        if nxt.indices == x.indices:
            break
        x = nxt
    else:
        pytest.fail("least fixpoint not reached within |U| + 1 iterations")
    assert x.indices == least_fixpoint(universe).indices
    assert compliance_step(x).indices == x.indices

    y = PairSet.full(universe)
    for _ in range(bound):
        nxt = compliance_step(y)
        if nxt.indices == y.indices:
            break
        y = nxt
    else:
        pytest.fail("greatest fixpoint not reached within |U| + 1 iterations")
    assert y.indices == greatest_fixpoint(universe).indices
    assert compliance_step(y).indices == y.indices


@pytest.mark.parametrize("seed", range(60))
def test_sandwich_between_the_extremal_fixpoints(seed):
    universe = random_universe(seed)
    lfp = least_fixpoint(universe)
    gfp = greatest_fixpoint(universe)
    for kind in (RelationKind.SHOULD, RelationKind.BEH):
        restriction = restrict(universe, kind)
        assert lfp <= restriction
        assert restriction <= gfp


# -- restriction ---------------------------------------------------------------------


def test_restrictions_match_the_extremal_fixpoints(corpus_universe):
    assert (
        restrict(corpus_universe, RelationKind.MUST).indices
        == least_fixpoint(corpus_universe).indices
    )
    assert (
        restrict(corpus_universe, RelationKind.PROGRESS).indices
        == greatest_fixpoint(corpus_universe).indices
    )


@pytest.mark.parametrize("seed", range(60))
def test_restriction_soundness_on_random_universes(seed):
    universe = random_universe(seed)
    assert restrict(universe, RelationKind.MUST).indices == least_fixpoint(
        universe
    ).indices
    assert restrict(universe, RelationKind.PROGRESS).indices == greatest_fixpoint(
        universe
    ).indices


@pytest.mark.parametrize("kind", list(RelationKind))
def test_restriction_agrees_with_per_root_checks(corpus_universe, kind):
    restriction = restrict(corpus_universe, kind)
    for ps in corpus_universe:
        assert (ps in restriction) == verdict_at(corpus_universe, ps, kind).holds


@pytest.mark.parametrize("seed", range(60))
def test_restriction_agrees_with_per_root_checks_on_random_universes(seed):
    universe = random_universe(seed)
    for kind in RelationKind:
        restriction = restrict(universe, kind)
        for ps in universe:
            assert (ps in restriction) == verdict_at(universe, ps, kind).holds


def test_progress_restriction_covers_the_p2_q2_universe(graphs):
    universe = universe_of(graphs["p2"], graphs["q2"])
    assert restrict(universe, RelationKind.PROGRESS).indices == frozenset(
        range(len(universe))
    )


def test_io_restriction_excludes_p1_q1(corpus_universe, graphs):
    root = PairState(1, 1)  # merged ids of p1 and q1 initials
    assert root not in restrict(corpus_universe, RelationKind.IO)


# -- classification -------------------------------------------------------------------


def test_corpus_classifications(corpus_universe):
    for kind in (RelationKind.MUST, RelationKind.SHOULD, RelationKind.BEH):
        assert classify(restrict(corpus_universe, kind)).is_fix
    io = classify(restrict(corpus_universe, RelationKind.IO))
    assert io.is_post and not io.is_pre and not io.is_fix
    may = classify(restrict(corpus_universe, RelationKind.MAY))
    assert may.is_pre and not may.is_post and not may.is_fix


def test_classification_counterexample_pins(corpus_universe):
    io = classify(restrict(corpus_universe, RelationKind.IO))
    assert PairState(1, 1) in io.pre_violations  # the p1||q1 root
    may = classify(restrict(corpus_universe, RelationKind.MAY))
    assert PairState(4, 3) in may.post_violations  # the p3||q3 root


def test_classify_of_a_fixed_point_reports_no_violations(graphs):
    universe = universe_of(graphs["p4"], graphs["q4"])
    cls = classify(least_fixpoint(universe))
    assert cls.is_fix
    assert cls.pre_violations == () and cls.post_violations == ()


# -- pair set plumbing -----------------------------------------------------------------


def test_pair_sets_reject_universe_mixing(graphs):
    u1 = universe_of(graphs["p1"], graphs["q1"])
    u2 = universe_of(graphs["p2"], graphs["q2"])
    with pytest.raises(UniverseMismatchError):
        PairSet.full(u1) | PairSet.full(u2)
    with pytest.raises(UniverseMismatchError):
        PairSet.empty(u1) <= PairSet.empty(u2)
    with pytest.raises(UniverseMismatchError):
        PairSet(u1, frozenset({99}))


@pytest.mark.parametrize(
    "bad", [-1, 2, 99, 0.5, True], ids=["negative", "size", "far", "float", "bool"]
)
def test_pair_set_constructor_rejects_an_index_outside_the_universe(graphs, bad):
    universe = universe_of(graphs["p1"], graphs["q1"])
    assert len(universe) == 2
    with pytest.raises(UniverseMismatchError):
        PairSet(universe, frozenset({0, bad}))


def test_pair_set_constructor_freezes_its_indices(graphs):
    universe = universe_of(graphs["p1"], graphs["q1"])
    twice = PairSet(universe, [0, 0])
    assert len(twice) == 1 and twice.pairs() == (universe.pairs[0],)
    from_set = PairSet(universe, {0})
    frozen = PairSet(universe, frozenset({0}))
    assert from_set == frozen and hash(from_set) == hash(frozen)
    drawn = PairSet(universe, (i for i in [0, 1]))
    assert len(drawn) == 2 and drawn == PairSet.full(universe)


def test_internal_pair_sets_are_in_range(graphs):
    # the operators, fixed points and restrictions skip the constructor's
    # check, so each result must already be a valid subset of the universe
    universe = random_universe(3)
    x = PairSet.of_pairs(universe, universe.pairs[::2])
    y = PairSet.of_pairs(universe, universe.pairs[::3])
    results = [x | y, x & y, x - y, x ^ y, compliance_step(x)]
    results += [least_fixpoint(universe), greatest_fixpoint(universe)]
    results += [restrict(universe, kind) for kind in RelationKind]
    for result in results:
        assert result.universe is universe
        assert result == PairSet(universe, result.indices)


def test_pair_set_membership_and_pairs(graphs):
    universe = universe_of(graphs["p1"], graphs["q1"])
    s = PairSet.of_pairs(universe, [PairState(0, 0)])
    assert PairState(0, 0) in s
    assert PairState(1, 1) not in s
    assert PairState(7, 7) not in s
    assert len(s) == 1
