"""The frozen records' value semantics: construction, equality, hashing,
repr, immutability, order, copies and pickles."""

import copy
import pickle

import pytest

from bcc import (
    BarbSet,
    Classification,
    Label,
    PairSet,
    PairState,
    PropositionReport,
    RelationKind,
    Verdict,
    Violation,
)
from conftest import universe_of

PROTOCOLS = (0, pickle.HIGHEST_PROTOCOL)


@pytest.fixture(scope="module")
def universe(graphs):
    return universe_of(graphs["p1"], graphs["q1"])


def records(universe):
    """(record, its field values, its keyword twin, its repr) of every kind."""
    witness = (PairState(0, 0), PairState(1, 1))
    pair_set = PairSet(universe, [1, 0])
    return [
        (Label(1, "a"), (1, "a"), Label(kind=1, name="a"), "Label(kind=1, name='a')"),
        (
            BarbSet(["a"], ["b"]),
            (frozenset({"a"}), frozenset({"b"})),
            BarbSet(inputs=frozenset({"a"}), outputs={"b"}),
            "BarbSet(inputs=frozenset({'a'}), outputs=frozenset({'b'}))",
        ),
        (
            Violation("unbound-variable", "X"),
            ("unbound-variable", "X"),
            Violation(kind="unbound-variable", var="X"),
            "Violation(kind='unbound-variable', var='X')",
        ),
        (
            Verdict(RelationKind.MUST, False, witness),
            (RelationKind.MUST, False, witness),
            Verdict(kind=RelationKind.MUST, holds=False, witness=witness),
            "Verdict(kind=<RelationKind.MUST: 'mst'>, holds=False, "
            "witness=(PairState(client=0, server=0), PairState(client=1, server=1)))",
        ),
        (
            pair_set,
            (universe, frozenset({0, 1})),
            PairSet(universe=universe, indices=(0, 1)),
            f"PairSet(universe={universe!r}, indices=frozenset({{0, 1}}))",
        ),
        (
            Classification(True, False, (), witness[:1]),
            (True, False, (), witness[:1]),
            Classification(
                is_pre=True, is_post=False, pre_violations=(), post_violations=witness[:1]
            ),
            "Classification(is_pre=True, is_post=False, pre_violations=(), "
            "post_violations=(PairState(client=0, server=0),))",
        ),
        (
            PropositionReport("mst-implies-shd", False, witness),
            ("mst-implies-shd", False, witness),
            PropositionReport(name="mst-implies-shd", ok=False, counterexamples=witness),
            "PropositionReport(name='mst-implies-shd', ok=False, "
            "counterexamples=(PairState(client=0, server=0), PairState(client=1, server=1)))",
        ),
        (PairState(0, 1), (0, 1), PairState(client=0, server=1), "PairState(client=0, server=1)"),
    ]


def test_records_are_their_field_values_and_their_repr(universe):
    for record, values, twin, text in records(universe):
        fields = type(record).__match_args__
        assert tuple(getattr(record, f) for f in fields) == values
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(values)
        assert repr(record) == text


def test_a_record_never_equals_a_tuple_of_its_values(universe):
    for record, values, _, _ in records(universe):
        if isinstance(record, tuple):  # PairState is a named tuple
            continue
        assert record != values and not record == values
        assert values != record and not values == record


def test_records_of_one_kind_differ_when_a_field_does():
    assert Label(1, "a") != Label(2, "a") and Label(1, "a") != Label(1, "b")
    assert BarbSet({"a"}) != BarbSet((), {"a"})
    assert Verdict(RelationKind.MUST, True) != Verdict(RelationKind.MAY, True)
    assert PropositionReport("x", True) != PropositionReport("x", True, (PairState(0, 0),))
    assert Violation("unbound-variable", "X") != Violation("unguarded-recursion", "X")


def test_fields_cannot_be_set_added_or_deleted(universe):
    for record, _, _, _ in records(universe):
        for name in type(record).__match_args__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.no_such_field = 1


def test_copies_and_pickles_are_equal_records(universe):
    for record, _, _, _ in records(universe):
        assert copy.copy(record) == record
        # a pair set's universe compares by identity: copy it alongside
        copied_universe, copied = copy.deepcopy((universe, record))
        assert copied == _rehomed(record, universe, copied_universe)
        for protocol in PROTOCOLS:
            loaded_universe, loaded = pickle.loads(pickle.dumps((universe, record), protocol))
            assert loaded == _rehomed(record, universe, loaded_universe)
            assert type(loaded) is type(record)


def _rehomed(record, universe, other):
    if isinstance(record, PairSet):
        assert record.universe is universe
        return PairSet(other, record.indices)
    return record


def test_copies_of_a_label_are_the_shared_label():
    a = Label(1, "a")
    assert a is not Label(1, "a")
    shared = copy.copy(a)
    assert copy.deepcopy(a) is shared
    for protocol in PROTOCOLS:
        assert pickle.loads(pickle.dumps(a, protocol)) is shared


def test_defaults():
    assert BarbSet() == BarbSet(frozenset(), frozenset()) and not BarbSet()
    assert Verdict(RelationKind.PROGRESS, True).witness is None
    assert PropositionReport("x", True).counterexamples == ()
    assert Label(0) == Label(0, "")


def test_labels_sort_by_kind_then_name():
    labels = [Label(2, "a"), Label(1, "b"), Label(0), Label(1, "a"), Label(2, "0")]
    assert sorted(labels) == sorted(labels, key=lambda x: (x.kind, x.name))
    assert sorted(labels)[0] == Label(0)
    a, b = Label(1, "a"), Label(1, "b")
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a < a) and not (b <= a) and not (a > b) and not (a >= b)
    assert max(labels) == Label(2, "a")


@pytest.mark.parametrize("other", [3, (1, "a"), "?a", None])
def test_labels_do_not_order_against_other_values(other):
    a = Label(1, "a")
    for compare in (
        lambda: a < other,
        lambda: a <= other,
        lambda: a > other,
        lambda: a >= other,
    ):
        with pytest.raises(TypeError):
            compare()


def test_records_match_positional_patterns():
    match Label(2, "b"):
        case Label(kind, name):
            assert (kind, name) == (2, "b")
    match Verdict(RelationKind.IO, False):
        case Verdict(RelationKind.IO, holds, None):
            assert holds is False
        case _:
            pytest.fail("the positional pattern did not match")


def test_frozen_records_freeze_what_they_are_given(universe):
    barbs = BarbSet(["a", "a"], iter(["b"]))
    assert type(barbs.inputs) is frozenset and type(barbs.outputs) is frozenset
    assert barbs == BarbSet({"a"}, {"b"}) and hash(barbs) == hash(BarbSet({"a"}, {"b"}))
    pairs = PairSet(universe, [0, 0, 1])
    assert type(pairs.indices) is frozenset and len(pairs) == 2
    assert pairs == PairSet(universe, {0, 1})
    assert hash(pairs) == hash(PairSet(universe, frozenset({0, 1})))
