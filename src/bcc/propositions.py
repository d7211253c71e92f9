"""Executable checks of the fixed-point structure of the six relations.

Over any tau-closed universe: the least fixed point of the compliance
functional coincides with the must restriction and the greatest with the
progress restriction; should and beh restrictions are fixed points; the io
restriction is post-fixed, the may restriction pre-fixed; and the expected
inclusions between the relations hold pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .composition import PairUniverse
from .fixpoint import PairSet, compliance_step, greatest_fixpoint, least_fixpoint, restrict
from .relations import RelationKind

INCLUSIONS = (
    (RelationKind.MUST, RelationKind.SHOULD),
    (RelationKind.MUST, RelationKind.BEH),
    (RelationKind.MUST, RelationKind.MAY),
    (RelationKind.SHOULD, RelationKind.PROGRESS),
    (RelationKind.BEH, RelationKind.PROGRESS),
    (RelationKind.SHOULD, RelationKind.MAY),
    (RelationKind.IO, RelationKind.PROGRESS),
)


@dataclass(frozen=True)
class PropositionReport:
    name: str
    ok: bool
    counterexamples: tuple = ()


def _report(name: str, offending: PairSet) -> PropositionReport:
    return PropositionReport(name, not offending.indices, offending.pairs())


def relation_sets(universe: PairUniverse) -> dict:
    return {kind: restrict(universe, kind) for kind in RelationKind}


def verify_universe(universe: PairUniverse, sets=None) -> list:
    """Run every proposition over the universe; reports carry the offending
    pairs when a check fails."""
    if sets is None:
        sets = relation_sets(universe)
    lfp, gfp = least_fixpoint(universe), greatest_fixpoint(universe)
    # (name, x, y): the proposition x == y
    equalities = [
        ("least-fixpoint-is-must", lfp, sets[RelationKind.MUST]),
        ("greatest-fixpoint-is-progress", gfp, sets[RelationKind.PROGRESS]),
    ] + [
        (f"{kind.value}-is-fixed", compliance_step(sets[kind]), sets[kind])
        for kind in (RelationKind.SHOULD, RelationKind.BEH)
    ]
    reports = [_report(name, (x - y) | (y - x)) for name, x, y in equalities]

    io = sets[RelationKind.IO]
    reports.append(_report("io-is-post-fixed", io - compliance_step(io)))
    may = sets[RelationKind.MAY]
    reports.append(_report("may-is-pre-fixed", compliance_step(may) - may))
    reports += [
        _report(f"{smaller.value}-implies-{larger.value}", sets[smaller] - sets[larger])
        for smaller, larger in INCLUSIONS
    ]
    return reports
