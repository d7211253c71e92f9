import pytest

from bcc import PairSet, RelationKind, restrict
from bcc.propositions import INCLUSIONS, PLACES, relation_sets, verify_universe
from conftest import universe_of


@pytest.fixture()
def p3_universe(graphs):
    return universe_of(graphs["p3"], graphs["q3"])


def test_all_propositions_hold_on_single_pair_universes(graphs, p3_universe):
    assert all(r.ok for r in verify_universe(p3_universe))
    assert all(
        r.ok for r in verify_universe(universe_of(graphs["p2"], graphs["q2"]))
    )


def test_report_names_cover_fixed_points_and_inclusions(p3_universe):
    names = [r.name for r in verify_universe(p3_universe)]
    assert names == [
        "least-fixpoint-is-must",
        "greatest-fixpoint-is-progress",
        "shd-is-fixed",
        "beh-is-fixed",
        "io-is-post-fixed",
        "may-is-pre-fixed",
        "mst-implies-shd",
        "mst-implies-beh",
        "mst-implies-may",
        "shd-implies-pg",
        "beh-implies-pg",
        "shd-implies-may",
        "io-implies-pg",
    ]
    assert len(names) == 6 + len(INCLUSIONS)


def test_every_row_place_has_a_proposition():
    assert list(PLACES) == ["lfp", "gfp", "fix", "post", "pre"]
    assert {kind.place for kind in RelationKind} == set(PLACES)


def test_doctored_sets_produce_counterexamples(p3_universe):
    sets = relation_sets(p3_universe)
    # claim every pair is must-compliant: the stuck unsuccessful pair refutes it
    sets[RelationKind.MUST] = PairSet(p3_universe, range(len(p3_universe)))
    reports = {r.name: r for r in verify_universe(p3_universe, sets=sets)}
    lfp_report = reports["least-fixpoint-is-must"]
    assert not lfp_report.ok
    assert lfp_report.counterexamples
    inclusion = reports["mst-implies-shd"]
    assert not inclusion.ok


def test_inclusions_listed_once_each():
    assert len(set(INCLUSIONS)) == len(INCLUSIONS) == 7
    assert all(a is not b for a, b in INCLUSIONS)


def test_restrict_sets_drive_the_reports(graphs):
    universe = universe_of(graphs["p4"], graphs["q4"])
    sets = relation_sets(universe)
    for kind in RelationKind:
        assert sets[kind].indices == restrict(universe, kind).indices
