import gc
import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcc import Choice, Nil, Prefix, Rec, Var, compile_term, pretty, well_formed
from bcc.generator import (
    MAX_DEPTH,
    GenConfig,
    SplitMix64,
    iter_random_pairs,
    random_contract,
    random_pairs,
)


def test_splitmix64_reference_vector():
    # first outputs for seed 0, per the published reference implementation
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_split_is_deterministic():
    a = SplitMix64(1234).split()
    b = SplitMix64(1234).split()
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]


def test_same_config_same_term():
    cfg = GenConfig(seed=99)
    assert random_contract(cfg) == random_contract(cfg)


def test_depth_zero_is_nil():
    assert random_contract(GenConfig(seed=7, max_depth=0)) == Nil()


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, alphabet=())
    with pytest.raises(ValueError):
        GenConfig(seed=0, rec_probability=0.6, choice_probability=0.5)
    with pytest.raises(ValueError):
        GenConfig(seed=0, rec_probability=-0.1)
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=-2)
    # ids are plain ints: a float or bool seed or depth is not one
    for bad in ({"seed": 1.5}, {"seed": True}, {"max_depth": 2.5}, {"max_depth": True}):
        with pytest.raises(ValueError):
            GenConfig(**{"seed": 0, **bad})


def test_config_freezes_its_alphabet():
    frozen = GenConfig(seed=1, alphabet=("a", "b"))
    listed = GenConfig(seed=1, alphabet=["a", "b"])
    assert listed == frozen and hash(listed) == hash(frozen)
    drawn = GenConfig(seed=1, alphabet=(name for name in "ab"))
    assert drawn.alphabet == ("a", "b")
    assert pretty(random_contract(drawn)) == pretty(random_contract(frozen)) == "!b.0"


def test_config_bounds_max_depth_from_above():
    # only configured here: drawing terms this deep is slow
    assert GenConfig(seed=0, max_depth=MAX_DEPTH).max_depth == MAX_DEPTH
    with pytest.raises(ValueError, match=f"max_depth must be at most {MAX_DEPTH}"):
        GenConfig(seed=0, max_depth=MAX_DEPTH + 1)


@pytest.mark.parametrize("name", ["tau", "rec", "a b", "1x", "", "?a", "_a", 7])
def test_config_rejects_names_the_language_cannot_write(name):
    with pytest.raises(ValueError, match="not an action name"):
        GenConfig(seed=1, alphabet=("a", name))


@pytest.mark.parametrize("seed", range(0, 2000, 7))
def test_generated_terms_are_well_formed(seed):
    assert well_formed(random_contract(GenConfig(seed=seed))) == []


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_generated_terms_are_well_formed_hypothesis(seed):
    assert well_formed(random_contract(GenConfig(seed=seed))) == []


def test_every_constructor_appears():
    found = set()

    def visit(t):
        found.add(type(t))
        if isinstance(t, Prefix):
            visit(t.body)
        elif isinstance(t, Choice):
            visit(t.left)
            visit(t.right)
        elif isinstance(t, Rec):
            visit(t.body)

    for seed in range(2000):
        visit(random_contract(GenConfig(seed=seed)))
    assert found == {Nil, Prefix, Choice, Rec, Var}


def test_rec_binders_are_always_used():
    def check(t):
        if isinstance(t, Rec):
            stack, used = [t.body], False
            while stack:
                u = stack.pop()
                if isinstance(u, Var) and u.name == t.var:
                    used = True
                elif isinstance(u, Prefix):
                    stack.append(u.body)
                elif isinstance(u, Choice):
                    stack.extend((u.left, u.right))
                elif isinstance(u, Rec) and u.var != t.var:
                    stack.append(u.body)
            assert used
            check(t.body)
        elif isinstance(t, Prefix):
            check(t.body)
        elif isinstance(t, Choice):
            check(t.left)
            check(t.right)

    for seed in range(800):
        check(random_contract(GenConfig(seed=seed)))


@pytest.mark.parametrize("seed", range(0, 600, 3))
def test_deep_terms_compile_within_default_bound(seed):
    cfg = GenConfig(seed=seed, max_depth=8, alphabet=("a", "b", "c", "d"))
    graph = compile_term(random_contract(cfg))
    assert graph.num_states <= 1024


def test_random_pairs_reproducible():
    first = random_pairs(31337, 5)
    second = random_pairs(31337, 5)
    assert first == second
    assert len(first) == 5
    assert all(well_formed(c) == [] and well_formed(s) == [] for c, s in first)


def test_iter_random_pairs_is_lazy_and_equals_the_list():
    pairs = iter_random_pairs(2024, 6, max_depth=4)
    assert iter(pairs) is pairs
    assert list(pairs) == random_pairs(2024, 6, max_depth=4)


@pytest.mark.parametrize("seed", [-5, 2**64, True, 1.0])
def test_iter_random_pairs_rejects_a_bad_root_seed_at_once(seed):
    # SplitMix64 would keep the low 64 bits: -5 would draw what 2**64 - 5 draws
    with pytest.raises(ValueError, match=r"seed must be a plain int in \[0, 2\*\*64\)"):
        iter_random_pairs(seed, 1)
    with pytest.raises(ValueError):
        random_pairs(seed, 0)


def test_draws_leave_no_cyclic_garbage():
    # a draw's state is freed by reference counting when it returns
    configs = [
        {},
        {"max_depth": 12, "rec_probability": 0.5, "choice_probability": 0.3},
        {"max_depth": 30, "alphabet": ("a",), "rec_probability": 0.0},
        {"max_depth": 0},
    ]
    gc.collect()
    gc.disable()
    try:
        for cfg_kwargs in configs:
            random_pairs(1, 100, **cfg_kwargs)
            assert gc.collect() == 0, cfg_kwargs
    finally:
        gc.enable()


def test_draws_of_a_non_default_config_are_pinned():
    # a config the report digests do not cover; any change to the order of
    # the generator calls changes this digest
    digest = hashlib.sha256()
    for pair in random_pairs(
        7, 200, max_depth=10, alphabet=("a", "b"), rec_probability=0.3
    ):
        for term in pair:
            digest.update(pretty(term).encode() + b"\0")
    assert digest.hexdigest() == (
        "c4945a8ff1a8e2f2b87c55968d209247a205142576d5b458e3191016e6fa8019"
    )
