"""Executable checks of the six relations' fixed-point structure: each sits
at its ``RelationKind`` row's place relative to the compliance functional,
and the expected inclusions between them hold pointwise."""

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

# each place in report order: the proposition's name ({0}: the relation's
# name, {1}: its code) and the pairs refuting that x, a restriction to u, sits there
PLACES = {
    "lfp": ("least-fixpoint-is-{0}", lambda u, x: least_fixpoint(u) ^ x),
    "gfp": ("greatest-fixpoint-is-{0}", lambda u, x: greatest_fixpoint(u) ^ x),
    "fix": ("{1}-is-fixed", lambda u, x: compliance_step(x) ^ x),
    "post": ("{1}-is-post-fixed", lambda u, x: x - compliance_step(x)),
    "pre": ("{1}-is-pre-fixed", lambda u, x: compliance_step(x) - x),
}


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
    reports = [
        _report(fmt.format(kind.name.lower(), kind.value), refute(universe, sets[kind]))
        for place, (fmt, refute) in PLACES.items()
        for kind in RelationKind
        if kind.place == place
    ]
    return reports + [
        _report(f"{smaller.value}-implies-{larger.value}", sets[smaller] - sets[larger])
        for smaller, larger in INCLUSIONS
    ]
