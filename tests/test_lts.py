import copy
import os
import pickle
import subprocess
import sys
import threading
from itertools import permutations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from bcc import (
    INPUT,
    INTERNAL,
    OUTPUT,
    TAU,
    BarbSet,
    ContractGraph,
    Label,
    UnknownStateError,
    inp,
    merge_graphs,
    out,
    parse_term,
    compile_term,
)
from bcc.corpus import EXAMPLES_SOURCE
from bcc.generator import random_pairs
from bcc.lang import _PREFIX, DEFAULT_MAX_STATES, _add, _definitions
from bcc.lts import _label_code, _shared_label, _Union, attractor, discover, reach
from bcc.terms import _rows
from conftest import compiled_random_pair, contract_graphs
from oracles import (
    diverges_brute,
    raw_tau_targets,
    reaches_zero_brute,
    tau_closure_brute,
    union_brute,
    weak_barbs_brute,
)


def test_label_validation():
    with pytest.raises(ValueError):
        Label(0, "a")  # internal with a name
    with pytest.raises(ValueError):
        Label(1, "")  # input without a name
    with pytest.raises(ValueError):
        Label(7, "a")


def test_one_label_per_action():
    assert inp("a") is inp("a") and out("a") is out("a")
    assert inp("a") is not out("a")
    assert inp("a") == Label(INPUT, "a")


def fresh_label_graph():
    # ?a.tau.!a.0 from labels equal to the shared ones, but not them
    labels = [Label(INPUT, "a"), Label(INTERNAL), Label(OUTPUT, "a")]
    assert not any(lab is shared for lab, shared in zip(labels, (inp("a"), TAU, out("a"))))
    edges = [(1, labels[0], 2), (2, labels[1], 3), (3, labels[2], 0)]
    return ContractGraph(4, 1, edges, 0)


def assert_holds_shared_labels(graph):
    shared = {lab: lab for lab in (TAU, inp("a"), out("a"))}
    labels = [lab for _, lab, _ in graph.edges]
    assert set(labels) == set(shared)
    assert all(lab is shared[lab] for lab in labels)


def test_the_constructor_stores_the_shared_label_of_each_action():
    assert_holds_shared_labels(fresh_label_graph())


def test_merge_keeps_the_shared_labels():
    merged, _ = merge_graphs([fresh_label_graph(), fresh_label_graph()])
    assert_holds_shared_labels(merged)


def pickled(obj, protocol):
    return pickle.loads(pickle.dumps(obj, protocol))


@pytest.mark.parametrize(
    "clone",
    [
        copy.copy,
        copy.deepcopy,
        lambda obj: pickled(obj, 0),
        lambda obj: pickled(obj, pickle.HIGHEST_PROTOCOL),
    ],
    ids=["copy", "deepcopy", "pickle-0", "pickle-highest"],
)
def test_copies_and_pickles_keep_the_shared_labels(clone):
    graph = fresh_label_graph()
    assert clone(graph) == graph
    assert_holds_shared_labels(clone(graph))
    assert clone(Label(INPUT, "a")) is inp("a")
    assert clone(Label(OUTPUT, "a")) is out("a")
    assert clone(Label(INTERNAL)) is TAU
    assert clone(inp("b")) is inp("b")


@pytest.mark.parametrize(
    "clone", [pickle.dumps, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_copies_and_pickles_cache_nothing_on_the_original(clone):
    graph = compile_term(parse_term("rec X.(?a.tau.X + !b.0)"))
    before = dict(vars(graph))
    clone(graph)
    assert vars(graph) == before


def assert_rows_of_ints(graph):
    # (label code, target) pairs of plain ints, which the collector untracks
    for row in graph._out:
        assert type(row) is tuple
        for edge in row:
            assert type(edge) is tuple and len(edge) == 2
            assert all(type(x) is int for x in edge), edge


def test_every_row_holds_only_ints():
    constructed = fresh_label_graph()
    compiled = compile_term(parse_term("rec X.(?a.tau.X + !b.0 + tau.!a.(0 + 0))"))
    merged, _ = merge_graphs([compiled, constructed])
    unpickled = pickled(merged, pickle.HIGHEST_PROTOCOL)
    assert unpickled == merged
    for graph in (constructed, compiled, merged, unpickled, copy.deepcopy(compiled)):
        assert_rows_of_ints(graph)


TESTS = Path(__file__).resolve().parent


def in_fresh_process(script: str, stdin: bytes = b"") -> bytes:
    """The stdout of a fresh interpreter that runs ``script``, with the
    package and the tests on its path."""
    env = dict(os.environ)
    paths = [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", script], input=stdin, capture_output=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_a_pickle_loads_in_a_process_that_coded_other_names_first():
    # label codes are local to a process: the fresh interpreter gives the
    # names !z0.0, !z1.0, ... every code that ?a and ?b have here
    graph = compile_term(parse_term("rec X.(?a.X + !a.tau.0 + ?b.0)"))
    taken = max(_label_code(INPUT, name) for name in "ab") // 2
    script = (
        "import pickle, sys\n"
        "from bcc import TAU, compile_term, inp, out, parse_term\n"
        f"for i in range({taken}):\n"
        "    compile_term(parse_term(f'!z{i}.0'))\n"
        "g = pickle.loads(sys.stdin.buffer.read())\n"
        "shared = {TAU: TAU, inp('a'): inp('a'), out('a'): out('a'), inp('b'): inp('b')}\n"
        "labels = [lab for s in range(g.num_states) for lab, _ in g.out_edges(s)]\n"
        "assert labels and all(lab is shared[lab] for lab in labels), labels\n"
        "sys.stdout.buffer.write(pickle.dumps(g.edges))\n"
    )
    edges = in_fresh_process(script, pickle.dumps(graph))
    assert pickle.loads(edges) == graph.edges


def first_seen_order_graphs():
    # the corpus compiled as the command line compiles it, and both sides of
    # 50 generated pairs compiled from their terms and merged
    defs = _definitions(EXAMPLES_SOURCE)
    graphs = [_add(_Union(), rows, DEFAULT_MAX_STATES).graph()[0] for _, _, rows in defs]
    pairs = random_pairs(1, 50)
    for side in (0, 1):
        graphs.append(merge_graphs([compile_term(pair[side]) for pair in pairs])[0])
    return graphs


def test_rows_follow_label_order_whatever_order_names_were_first_seen():
    # the fresh interpreter codes z, y, x, c, b, a first, so there the codes
    # of a, b and c descend, and here they ascend
    script = (
        "import pickle, sys\n"
        "from bcc.lts import INPUT, _label_code\n"
        "codes = [_label_code(INPUT, name) for name in 'zyxcba']\n"
        "assert codes == sorted(codes)\n"
        "from test_lts import first_seen_order_graphs\n"
        "edges = [g.edges for g in first_seen_order_graphs()]\n"
        "sys.stdout.buffer.write(pickle.dumps(edges))\n"
    )
    assert _label_code(INPUT, "a") < _label_code(INPUT, "b") < _label_code(INPUT, "c")
    edges = [g.edges for g in first_seen_order_graphs()]
    assert pickle.loads(in_fresh_process(script)) == edges
    # the parser and _intern write each label as its int code
    rows = [r for _, _, (rows, _, _) in _definitions(EXAMPLES_SOURCE) for r in rows]
    rows += [r for pair in random_pairs(1, 50) for t in pair for r in _rows(t)[0]]
    prefixes = [r for r in rows if r[0] == _PREFIX]
    assert prefixes and all(type(r[1]) is int for r in prefixes)


def test_threads_that_race_to_code_a_name_get_one_code():
    # names first seen by several threads at once: every thread must get
    # the one code of each label, ?a even and !a the next, and the one
    # shared Label of each action
    names = [f"race{i}" for i in range(2000)]
    labels = [(kind, name) for name in names for kind in (INPUT, OUTPUT)]
    seen, shared = [None] * 4, [None] * 4
    start = threading.Barrier(len(seen), timeout=60)

    def code_all(k):
        start.wait()
        shared[k] = [inp(name) if k % 2 else out(name) for name in names]
        seen[k] = [_label_code(kind, name) for kind, name in labels]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=code_all, args=(k,)) for k in range(len(seen))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(codes == seen[0] for codes in seen)
    codes = dict(zip(labels, seen[0]))
    for i, name in enumerate(names):
        assert codes[INPUT, name] % 2 == 0 and codes[OUTPUT, name] == codes[INPUT, name] + 1
        assert _shared_label((INPUT, name)) is inp(name) is shared[1][i] is shared[3][i]
        assert _shared_label((OUTPUT, name)) is out(name) is shared[0][i] is shared[2][i]


def test_label_ordering_is_kind_then_name():
    assert TAU < inp("a") < inp("b") < out("a")
    assert str(TAU) == "tau" and str(inp("a")) == "?a" and str(out("b")) == "!b"


# -- graph construction -------------------------------------------------------


def test_rejects_extra_sink():
    # state 1 is a sink but is not declared the success state
    with pytest.raises(ValueError):
        ContractGraph(3, 2, [(2, out("a"), 1)], zero=0)


def test_rejects_edges_out_of_zero():
    with pytest.raises(ValueError):
        ContractGraph(2, 1, [(0, out("a"), 1), (1, out("a"), 0)], zero=0)


def test_rejects_dangling_edges():
    with pytest.raises(ValueError):
        ContractGraph(2, 1, [(1, out("a"), 5)], zero=0)


@pytest.mark.parametrize(
    "args",
    [
        (2, 0, [(0, TAU, 1.0)], 1),
        (2, 0, [(0.0, TAU, 1)], 1),
        (2, 0, [(0, TAU, True)], 1),
        (2, 0, [(0, TAU, 1), (False, TAU, 1)], 1),
        (2.0, 0, [(0, TAU, 1)], 1),
        (True, 0, [], 0),
        (2, 0.0, [(0, TAU, 1)], 1),
        (2, False, [(0, TAU, 1)], 1),
        (2, 0, [(0, TAU, 1)], 1.0),
        (2, 0, [(0, TAU, 1)], True),
    ],
    ids=[
        "float-target",
        "float-source",
        "bool-target",
        "bool-source-beside-its-int",
        "float-count",
        "bool-count",
        "float-initial",
        "bool-initial",
        "float-zero",
        "bool-zero",
    ],
)
def test_states_must_be_plain_ints(args):
    with pytest.raises(ValueError):
        ContractGraph(*args)


@pytest.mark.parametrize("state", [True, False, 1.0, 0.0, "1", None])
def test_queries_take_only_plain_int_states(state):
    g = ContractGraph(2, 0, [(0, TAU, 1)], 1)
    for query in (
        g.out_edges,
        g.barbs,
        g.tau_closure,
        g.weak_barbs,
        g.may_diverge,
        g.weak_reaches_zero,
    ):
        with pytest.raises(UnknownStateError):
            query(state)


def test_unknown_state_errors(graphs):
    p1 = graphs["p1"]
    for query in (
        lambda: p1.tau_closure(-1),
        lambda: p1.weak_barbs(2),
        lambda: p1.may_diverge(17),
        lambda: p1.weak_reaches_zero("x"),
    ):
        with pytest.raises(UnknownStateError):
            query()


# -- successors ---------------------------------------------------------------


def label_targets(g, s, label):
    return tuple(t for (lab, t) in g.out_edges(s) if lab == label)


def test_successors_examples(graphs):
    p1, q2 = graphs["p1"], graphs["q2"]
    assert label_targets(p1, p1.initial, out("a")) == (0,)
    assert label_targets(p1, p1.zero, out("a")) == ()
    assert label_targets(p1, p1.zero, TAU) == ()
    # q2's ?a self-loop
    assert label_targets(q2, q2.initial, inp("a")) == (q2.initial,)


def test_edges_are_canonically_ordered(graphs):
    p3 = graphs["p3"]
    assert p3.edges == ((1, out("a"), 0), (1, out("b"), 2), (2, inp("c"), 0))


# -- tau closure ---------------------------------------------------------------


def test_tau_closure_examples(graphs):
    p1, p2, q4 = graphs["p1"], graphs["p2"], graphs["q4"]
    assert p1.tau_closure(p1.initial) == {p1.initial}
    # p2 has a single tau edge out of its initial state
    assert p2.tau_closure(p2.initial) == {0, 1}
    # q4's tau self-loop adds nothing new
    assert q4.tau_closure(q4.initial) == {q4.initial}


@pytest.mark.parametrize("seed", range(40))
def test_tau_closure_reflexive_transitive(seed):
    g, _ = compiled_random_pair(seed)
    for s in range(g.num_states):
        closure = g.tau_closure(s)
        assert s in closure
        for t in closure:
            assert g.tau_closure(t) <= closure


def test_tau_closure_monotone_under_edge_addition():
    base_edges = [(1, TAU, 2), (2, out("a"), 0), (3, out("b"), 0)]
    g1 = ContractGraph(4, 1, base_edges, zero=0)
    g2 = ContractGraph(4, 1, base_edges + [(2, TAU, 3)], zero=0)
    for s in range(4):
        assert g1.tau_closure(s) <= g2.tau_closure(s)


# -- barbs ----------------------------------------------------------------------


def test_barb_sets_freeze_what_they_are_given():
    barbs = BarbSet({"a"}, ["b", "b"])
    assert (barbs.inputs, barbs.outputs) == (frozenset({"a"}), frozenset({"b"}))
    assert type(barbs.inputs) is type(barbs.outputs) is frozenset
    frozen = BarbSet(frozenset({"a"}), frozenset({"b"}))
    assert barbs == frozen and hash(barbs) == hash(frozen)


def test_weak_barbs_examples(graphs):
    p1, p2 = graphs["p1"], graphs["p2"]
    assert p1.weak_barbs(p1.initial) == BarbSet(frozenset(), frozenset({"a", "b"}))
    assert not p1.weak_barbs(p1.zero)
    assert p2.weak_barbs(p2.initial) == BarbSet(frozenset(), frozenset({"a"}))


@pytest.mark.parametrize("seed", range(40))
def test_strong_barbs_within_weak_barbs(seed):
    g, _ = compiled_random_pair(seed)
    for s in range(g.num_states):
        strong, weak = g.barbs(s), g.weak_barbs(s)
        assert strong.inputs <= weak.inputs
        assert strong.outputs <= weak.outputs


@pytest.mark.parametrize("seed", range(40))
def test_weak_barbs_against_brute_force(seed):
    g, _ = compiled_random_pair(seed)
    for s in range(g.num_states):
        ins, outs = weak_barbs_brute(g, s)
        assert g.weak_barbs(s) == BarbSet(frozenset(ins), frozenset(outs))


# -- divergence -------------------------------------------------------------------


def test_may_diverge_examples(graphs):
    q4, q2 = graphs["q4"], graphs["q2"]
    assert q4.may_diverge(q4.initial)
    assert not q2.may_diverge(q2.initial)
    assert not q4.may_diverge(q4.zero)


@pytest.mark.parametrize("seed", range(60))
def test_may_diverge_matches_pigeonhole_oracle(seed):
    g, _ = compiled_random_pair(seed)
    for s in range(g.num_states):
        assert g.may_diverge(s) == diverges_brute(g, s)


# -- success reachability -----------------------------------------------------------


def test_weak_reaches_zero_examples(graphs):
    p4 = graphs["p4"]
    assert p4.weak_reaches_zero(p4.zero)
    assert not p4.weak_reaches_zero(p4.initial)
    tau_then_stop = compile_term(parse_term("tau.0"))
    assert tau_then_stop.weak_reaches_zero(tau_then_stop.initial)


@pytest.mark.parametrize("seed", range(40))
def test_visible_only_states_cannot_weakly_terminate(seed):
    g, _ = compiled_random_pair(seed)
    for s in range(g.num_states):
        if g.tau_closure(s) == {s} and s != g.zero:
            if all(lab.is_visible for lab, _ in g.out_edges(s)):
                assert not g.weak_reaches_zero(s)


# -- merging ---------------------------------------------------------------------


def test_merge_identifies_success_states(graphs):
    merged, initials = merge_graphs([graphs["p1"], graphs["p4"]])
    assert merged.zero == 0
    assert merged.num_states == 3  # 1 shared zero + one non-zero state each
    assert initials == (1, 2)
    assert merged.weak_barbs(1).outputs == frozenset({"a", "b"})
    assert merged.weak_barbs(2).outputs == frozenset({"a"})


def test_merge_without_any_success_state(graphs):
    merged, initials = merge_graphs([graphs["p2"], graphs["q2"]])
    assert merged.zero is None
    assert merged.num_states == 3
    assert initials == (0, 2)


def assert_merge_preserves_components(parts):
    merged, initials = merge_graphs(parts)
    for g, init in zip(parts, initials):
        assert merged.weak_barbs(init) == g.weak_barbs(g.initial)
        assert merged.may_diverge(init) == g.may_diverge(g.initial)
        assert merged.weak_reaches_zero(init) == g.weak_reaches_zero(g.initial)


def test_merge_preserves_component_behaviour(graphs):
    assert_merge_preserves_components([graphs[n] for n in ("p1", "q1", "p3", "q4")])


@given(st.lists(contract_graphs(), min_size=2, max_size=3))
def test_merge_preserves_behaviour_of_arbitrary_components(parts):
    # rooting every component at each of its states in turn checks the
    # remapped image of every state
    for k in range(6):
        rooted = [
            ContractGraph(g.num_states, k % g.num_states, g.edges, g.zero)
            for g in parts
        ]
        assert_merge_preserves_components(rooted)


TABLES = ("_tau_adj", "_tau_pred", "_reaches_zero", "_weak", "_diverging")

# a success state numbered above a state it shares a label group with: the
# renumbered edge into success must move to the front of its group
SUCCESS_LAST = ContractGraph(
    3, 0, [(0, out("a"), 1), (0, out("a"), 2), (1, TAU, 0), (1, out("b"), 2)], zero=2
)


def test_merge_moves_edges_into_success_first():
    merged, initials = merge_graphs([SUCCESS_LAST])
    assert initials == (1,)
    assert merged.edges == (
        (1, out("a"), 0),
        (1, out("a"), 2),
        (2, TAU, 1),
        (2, out("b"), 0),
    )


component_lists = st.lists(contract_graphs(), min_size=1, max_size=4) | st.lists(
    contract_graphs(success=False), min_size=1, max_size=4
)


@given(component_lists)
@example([SUCCESS_LAST, SUCCESS_LAST])
def test_merge_equals_the_union_built_from_scratch(parts):
    merged, initials = merge_graphs(parts)
    union, union_initials = union_brute(parts)
    assert initials == union_initials
    assert merged == union
    assert merged._out == union._out
    for table in TABLES:
        assert getattr(merged, table) == getattr(union, table)


@given(component_lists)
def test_merge_reads_a_one_shot_iterable_like_a_list(parts):
    merged, initials = merge_graphs(parts)
    once, once_initials = merge_graphs(iter(parts))
    assert once_initials == initials
    assert once.edges == merged.edges
    assert once._out == merged._out


@given(component_lists)
def test_merge_builds_no_table(parts):
    merged, _ = merge_graphs(parts)
    for g in (*parts, merged):
        assert not set(TABLES) & set(vars(g))


@given(contract_graphs())
def test_tables_read_in_any_order_match_their_definitions(g):
    n = g.num_states
    expected = {
        "_tau_adj": tuple(tuple(sorted(raw_tau_targets(g, s))) for s in range(n)),
        "_tau_pred": tuple(
            tuple(u for u in range(n) if s in raw_tau_targets(g, u)) for s in range(n)
        ),
        "_reaches_zero": {s for s in range(n) if reaches_zero_brute(g, s)},
        "_weak": tuple(
            BarbSet(*map(frozenset, weak_barbs_brute(g, s))) for s in range(n)
        ),
        "_diverging": {s for s in range(n) if diverges_brute(g, s)},
    }
    for order in permutations(TABLES):
        fresh = ContractGraph(n, g.initial, g.edges, g.zero)
        assert not set(TABLES) & set(vars(fresh))
        assert {table: getattr(fresh, table) for table in order} == expected


# -- tables against their definitions -----------------------------------------------


@given(contract_graphs())
def test_graph_tables_match_their_definitions(g):
    for s in range(g.num_states):
        labels = [lab for lab, _ in g.out_edges(s)]
        assert g.barbs(s) == BarbSet(
            frozenset(lab.name for lab in labels if lab.kind == INPUT),
            frozenset(lab.name for lab in labels if lab.kind == OUTPUT),
        )
        ins, outs = weak_barbs_brute(g, s)
        assert g.weak_barbs(s) == BarbSet(frozenset(ins), frozenset(outs))
        assert g.weak_reaches_zero(s) == reaches_zero_brute(g, s)
        assert g.may_diverge(s) == diverges_brute(g, s)
        assert g.tau_closure(s) == tau_closure_brute(g, s)


# -- graph kernels ------------------------------------------------------------------

small_graphs = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.frozensets(st.integers(0, n - 1)), min_size=n, max_size=n)
)


@given(small_graphs, st.data())
def test_kernels_match_their_definitions(succ_sets, data):
    n = len(succ_sets)
    succ = tuple(tuple(sorted(targets)) for targets in succ_sets)
    pred = tuple(tuple(u for u in range(n) if v in succ[u]) for v in range(n))
    nodes = st.frozensets(st.integers(0, n - 1))
    seeds, sources = data.draw(nodes), data.draw(nodes)

    least = frozenset()  # Kleene iteration of the attractor's defining step
    while True:
        step = seeds | {u for u in range(n) if succ[u] and set(succ[u]) <= least}
        if step == least:
            break
        least = step
    assert attractor(succ, pred, seeds) == least

    closure = set(sources)
    for _ in range(n):  # every reachable node is at most n - 1 steps away
        closure |= {v for u in closure for v in succ[u]}
    assert reach(succ, sources) == closure

    roots = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    order = list(dict.fromkeys(roots))  # reference BFS: roots, then by layers
    for u in order:
        for v in succ[u]:
            if v not in order:
                order.append(v)
    record = {}
    assert discover(record, roots, succ.__getitem__, n)
    assert list(record) == order and set(order) == reach(succ, roots)
    assert all(record[u] == succ[u] for u in order)

    more = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    closure = reach(succ, roots + more)
    before = list(record.items())
    if len(closure) > len(record):  # all or nothing below the closure size
        assert not discover(record, more, succ.__getitem__, len(closure) - 1)
        assert list(record.items()) == before
    assert discover(record, more, succ.__getitem__, len(closure))
    assert set(record) == closure
