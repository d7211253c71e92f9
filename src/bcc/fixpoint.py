"""The compliance functional on finite pair universes.

One application of the functional maps a candidate relation to: the
successful pairs, plus every pair that can take a tau-step and all of whose
tau-successors already belong to the candidate.  The functional is monotone
on the (finite) powerset lattice of a universe.  Its least fixed point is
the attractor of the successful pairs, computed here with the graph kernel
of ``lts``.  Its greatest is the set where progress holds, the complement of
backward reachability from the stuck unsuccessful pairs, and is computed by
progress's own search in ``relations``.  Both take time linear in the
universe, not iterating the functional (the test suite keeps that
iteration as the oracle for both).  Relation restrictions can then be
classified as pre-fixed, post-fixed, or fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .composition import PairState, PairUniverse
from .errors import UniverseMismatchError
from .lts import _is_index, attractor
from .relations import RelationKind, holding_indices


@dataclass(frozen=True)
class PairSet:
    """An immutable subset of a universe's pairs, by index."""

    universe: PairUniverse
    indices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(self.indices))
        if not all(_is_index(i, len(self.universe)) for i in self.indices):
            raise UniverseMismatchError("indices out of range for this universe")

    @classmethod
    def _of(cls, universe: PairUniverse, indices: frozenset) -> "PairSet":
        """A set of indices known to be in range, as the universe's own
        tables and set operations on its sets give them: not checked again."""
        x = cls.__new__(cls)
        object.__setattr__(x, "universe", universe)
        object.__setattr__(x, "indices", indices)
        return x

    @staticmethod
    def of_pairs(universe: PairUniverse, pairs: Iterable[PairState]) -> "PairSet":
        return PairSet._of(universe, frozenset(universe.index_of(p) for p in pairs))

    def _same_universe(self, other: "PairSet") -> None:
        if self.universe is not other.universe:
            raise UniverseMismatchError("pair sets belong to different universes")

    def pairs(self) -> tuple:
        return tuple(self.universe.pairs[i] for i in sorted(self.indices))

    def __contains__(self, ps) -> bool:
        i = self.universe._find(ps)
        return i is not None and i in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __le__(self, other: "PairSet") -> bool:
        self._same_universe(other)
        return self.indices <= other.indices

    def __or__(self, other: "PairSet") -> "PairSet":
        self._same_universe(other)
        return PairSet._of(self.universe, self.indices | other.indices)

    def __sub__(self, other: "PairSet") -> "PairSet":
        self._same_universe(other)
        return PairSet._of(self.universe, self.indices - other.indices)

    def __xor__(self, other: "PairSet") -> "PairSet":
        self._same_universe(other)
        return PairSet._of(self.universe, self.indices ^ other.indices)


def compliance_step(x: PairSet) -> PairSet:
    """One application of the compliance functional to x: the successful
    pairs, and the pairs with a tau-step whose tau-successors all lie in x."""
    universe = x.universe
    succs = universe.successors_idx
    into_x = frozenset(compress(range(len(succs)), map(x.indices.issuperset, succs)))
    members = universe.successful_indices | (into_x - universe.stuck_indices)
    return PairSet._of(universe, members)


def least_fixpoint(universe: PairUniverse) -> PairSet:
    """The least fixed point: the attractor of the successful pairs, i.e.
    the successful pairs plus, repeatedly, every pair with a tau-step all of
    whose tau-successors are already in."""
    return PairSet._of(
        universe,
        attractor(
            universe.successors_idx,
            universe.predecessors_idx,
            universe.successful_indices,
        ),
    )


def greatest_fixpoint(universe: PairUniverse) -> PairSet:
    """The greatest fixed point, which is the set where progress holds: every
    pair from which no stuck unsuccessful pair is tau-reachable, found by
    progress's own search.  The test suite checks it against Kleene
    iteration of the functional from the full set."""
    return restrict(universe, RelationKind.PROGRESS)


def restrict(universe: PairUniverse, kind: RelationKind) -> PairSet:
    """The relation's restriction to the universe: the pairs at which the
    decision procedure holds, each judged from its own reachable sub-universe."""
    return PairSet._of(universe, holding_indices(universe, kind))


@dataclass(frozen=True)
class Classification:
    """Where a candidate relation sits relative to the functional.

    ``pre_violations`` are pairs of F(X) \\ X (absent when X is pre-fixed);
    ``post_violations`` are pairs of X \\ F(X).
    """

    is_pre: bool
    is_post: bool
    pre_violations: tuple
    post_violations: tuple

    @property
    def is_fix(self) -> bool:
        return self.is_pre and self.is_post


def classify(x: PairSet) -> Classification:
    """Compare x with one functional application of itself."""
    fx = compliance_step(x)
    pre, post = fx - x, x - fx
    return Classification(
        is_pre=not pre.indices,
        is_post=not post.indices,
        pre_violations=pre.pairs(),
        post_violations=post.pairs(),
    )
