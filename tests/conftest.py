import hypothesis.strategies as st
import pytest

from bcc import (
    TAU,
    Composition,
    ContractGraph,
    PairState,
    compile_term,
    corpus,
    inp,
    out,
)
from bcc.generator import GenConfig, SplitMix64, random_contract


@pytest.fixture(scope="session")
def graphs():
    return corpus.example_graphs()


@pytest.fixture(scope="session")
def corpus_pairs(graphs):
    return [
        (graphs[c], graphs[s]) for c, s in corpus.example_pairs()
    ]


def compiled_random_pair(seed, **cfg_kwargs):
    """One deterministic (client graph, server graph) for a seed."""
    rng = SplitMix64(seed)
    client = compile_term(random_contract(GenConfig(seed=rng.next_u64(), **cfg_kwargs)))
    server = compile_term(random_contract(GenConfig(seed=rng.next_u64(), **cfg_kwargs)))
    return client, server


def universe_of(client, server, max_pairs=4096):
    comp = Composition(client, server)
    return comp.build_universe(
        [PairState(client.initial, server.initial)], max_pairs
    )


SMALL_LABELS = [TAU, inp("a"), out("a"), inp("b"), out("b")]


@st.composite
def contract_graphs(draw, max_states=6, success=True):
    """Arbitrary small graphs: tau cycles and self-loops, with or without a
    success state (never one when ``success`` is False; every other state
    needs an outgoing edge)."""
    n = draw(st.integers(1, max_states))
    zero = draw(st.none() | st.integers(0, n - 1)) if success else None
    moves = st.tuples(st.sampled_from(SMALL_LABELS), st.integers(0, n - 1))
    edges = [
        (s, lab, t)
        for s in range(n)
        if s != zero
        for lab, t in draw(st.lists(moves, min_size=1, max_size=4))
    ]
    return ContractGraph(n, draw(st.integers(0, n - 1)), edges, zero)
