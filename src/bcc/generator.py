"""Seeded random generation of closed, guarded contract terms.

Randomness comes from SplitMix64, a splittable counter-based generator: a
64-bit Weyl sequence fed through a mixing finaliser.  Same seed, same term;
child generators are derived by drawing a fresh seed, so corpora are
reproducible from a single root seed.  Each draw keeps its state (config,
generator, prefixes, binder counter, kept Var uses) in one private ``_Draw``
object that nothing refers back to, so reference counting frees it on return.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lang import _NAME_RE, _RESERVED, NIL, Choice, Prefix, Rec, Term, Var
from .lts import TAU, _is_index, inp, out

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# share of the non-rec, non-choice probability mass that goes to prefixes
# (the rest ends the branch with 0 or a guarded variable)
_PREFIX_SHARE = 0.75

# attempts at producing a rec body that uses its binder before giving up
_REC_RETRIES = 8

# largest accepted max_depth: drawing and compiling a term recurse about once
# per level, well inside the recursion limit
MAX_DEPTH = 200


class SplitMix64:
    """SplitMix64 PRNG; deterministic and cheap to split."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        # n is tiny here; modulo bias is irrelevant at these sizes
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())


@dataclass(frozen=True)
class GenConfig:
    """Shape parameters for one random term.

    At every depth the branch probabilities are rec_probability,
    choice_probability, and the remaining mass split between a prefix and a
    terminal; depth 0 forces a terminal (0, or a variable that is already
    guarded).  Recursion binders are only emitted at depth >= 2 so that the
    body can guard and use them.
    """

    seed: int
    max_depth: int = 6
    alphabet: tuple = ("a", "b", "c")
    rec_probability: float = 0.2
    choice_probability: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not _is_index(self.seed, _MASK + 1):
            raise ValueError(f"seed must be a plain int in [0, 2**64), got {self.seed!r}")
        if type(self.max_depth) is not int:
            raise ValueError(f"max_depth must be a plain int, got {self.max_depth!r}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.max_depth > MAX_DEPTH:
            raise ValueError(f"max_depth must be at most {MAX_DEPTH}")
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        for name in self.alphabet:
            valid = isinstance(name, str) and _NAME_RE.fullmatch(name)
            if not valid or name in _RESERVED:
                raise ValueError(f"alphabet entry {name!r} is not an action name")
        if min(self.rec_probability, self.choice_probability) < 0:
            raise ValueError("probabilities must be non-negative")
        if self.rec_probability + self.choice_probability >= 1:
            raise ValueError(
                "rec_probability + choice_probability must leave mass "
                "for prefixes and terminals"
            )


class _Draw:
    """The state of one ``random_contract`` call (see the module docstring)."""

    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = SplitMix64(cfg.seed)
        self.prefixes = [TAU] + [make(a) for a in cfg.alphabet for make in (inp, out)]
        self.binders = (f"X{i}" for i in itertools.count(1))
        self.uses = []  # the variable of every kept Var leaf, in drawing order

    def terminal(self, guarded):
        i = self.rng.randrange(len(guarded) + 1)
        if i:
            self.uses.append(sorted(guarded)[i - 1])
            return Var(self.uses[-1])
        return NIL

    def gen(self, depth, guarded, unguarded):
        if depth == 0:
            return self.terminal(guarded)
        cfg, uses = self.cfg, self.uses
        roll = self.rng.random()
        if roll < cfg.rec_probability and depth >= 2:
            var = next(self.binders)
            for _ in range(_REC_RETRIES):
                mark = len(uses)
                body = self.gen(depth - 1, guarded, unguarded | {var})
                if var in uses[mark:]:  # binders are fresh: var occurs free
                    return Rec(var, body)
                del uses[mark:]
            # binder stayed unused; fall through to a plain prefix
        elif roll < cfg.rec_probability + cfg.choice_probability:
            return Choice(
                self.gen(depth - 1, guarded, unguarded),
                self.gen(depth - 1, guarded, unguarded),
            )
        threshold = cfg.rec_probability + cfg.choice_probability
        if roll < threshold + (1.0 - threshold) * _PREFIX_SHARE:
            label = self.rng.choice(self.prefixes)  # drawn before the body
            return Prefix(label, self.gen(depth - 1, guarded | unguarded, set()))
        return self.terminal(guarded)


def random_contract(cfg: GenConfig) -> Term:
    """A closed, guarded term; a deterministic function of cfg."""
    return _Draw(cfg).gen(cfg.max_depth, set(), set())


def iter_random_pairs(seed: int, count: int, **cfg_kwargs):
    """(client term, server term) pairs derived from one root seed, drawn
    one at a time: two seeds per pair, the client's first.  The root seed
    follows the rule of a ``GenConfig`` seed, so a bad one, like a bad
    config, raises ValueError at once."""
    GenConfig(seed=seed, **cfg_kwargs)
    root = SplitMix64(seed)

    def draw():
        return random_contract(GenConfig(seed=root.next_u64(), **cfg_kwargs))

    return ((draw(), draw()) for _ in range(count))


def random_pairs(seed: int, count: int, **cfg_kwargs) -> list:
    """The list of ``iter_random_pairs``."""
    return list(iter_random_pairs(seed, count, **cfg_kwargs))
