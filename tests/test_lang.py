import contextlib
import gc
import io
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcc import (
    TAU,
    Choice,
    DuplicateNameError,
    IllFormedError,
    Nil,
    ParseError,
    Prefix,
    Rec,
    StateExplosionError,
    ContractGraph,
    Var,
    Violation,
    cli,
    compile_term,
    corpus,
    inp,
    lang,
    out,
    parse,
    parse_term,
    pretty,
    well_formed,
)
from bcc.generator import GenConfig, random_contract, random_pairs
from bcc.lang import DEFAULT_MAX_STATES, NIL, _add
from bcc.lts import INPUT, INTERNAL, Label, _Union, merge_graphs
from bcc.terms import _rows
from oracles import reference_compile, reference_parse, reference_parse_term


def test_parse_choice_of_prefixes():
    assert parse_term("!a.0 + !b.0") == Choice(
        Prefix(out("a"), Nil()), Prefix(out("b"), Nil())
    )


def test_parse_nil():
    defs = parse("z = 0")
    assert len(defs) == 1 and defs[0].name == "z" and defs[0].term == Nil()


def test_parse_guarded_recursion_with_choice():
    assert parse_term("rec X.(tau.X + ?a.0)") == Rec(
        "X", Choice(Prefix(TAU, Var("X")), Prefix(inp("a"), Nil()))
    )


def test_rec_extends_right_as_far_as_possible():
    assert parse_term("rec X.tau.X + ?a.0") == Rec(
        "X", Choice(Prefix(TAU, Var("X")), Prefix(inp("a"), Nil()))
    )
    assert parse_term("(rec X.tau.X) + ?a.0") == Choice(
        Rec("X", Prefix(TAU, Var("X"))), Prefix(inp("a"), Nil())
    )


def test_prefix_binds_tighter_than_choice():
    assert parse_term("tau.0 + 0") == Choice(Prefix(TAU, Nil()), Nil())
    assert parse_term("tau.(0 + 0)") == Prefix(TAU, Choice(Nil(), Nil()))


def test_choice_parses_left_associative():
    assert parse_term("0 + 0 + 0") == Choice(Choice(Nil(), Nil()), Nil())


def test_parse_file_with_comments_and_blanks():
    defs = parse("# header\n\na = !x.0  # trailing\n\nb = ?y.a\n")
    assert [d.name for d in defs] == ["a", "b"]
    assert defs[1].line == 5


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("ok = 0\nbad = !a.\n")
    assert err.value.line == 2
    assert err.value.column == 10


def test_unexpected_character_position():
    with pytest.raises(ParseError) as err:
        parse_term("!a.0 + $")
    assert (err.value.line, err.value.column) == (1, 8)


# a line ends at "\n", "\r\n" or a lone "\r"; a form feed, a vertical tab,
# U+0085 or U+2028 ends none


def test_a_form_feed_line_is_one_line():
    assert [d.line for d in parse("p1 = 0\n\f\nq1 = 0")] == [1, 3]
    with pytest.raises(ParseError, match="^3:9: "):
        parse("p1 = 0\n\f\nq1 = !a.")


def test_a_line_separator_in_a_comment_ends_no_line():
    assert [d.name for d in parse("p1 = !a.0  # a\u2028b\nq1 = 0")] == ["p1", "q1"]


def test_a_line_ends_at_a_crlf_or_a_lone_cr():
    assert [d.line for d in parse("p1 = 0\r\nq1 = 0\rr1 = 0")] == [1, 2, 3]


def test_parse_term_reads_a_line_end_as_a_space():
    assert parse_term("!a.\r\n0") == Prefix(out("a"), Nil())
    assert parse_term("!a.\r0 +\n0") == Choice(Prefix(out("a"), Nil()), Nil())


def test_parse_drops_one_leading_byte_order_mark():
    assert parse("\ufeffp1 = 0") == parse("p1 = 0")
    with pytest.raises(ParseError, match="^1:1: unexpected character"):
        parse("\ufeff\ufeffp1 = 0")


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateNameError) as err:
        parse("a = 0\na = !x.0\n")
    assert err.value.line == 2


def test_reserved_words_are_not_names():
    with pytest.raises(ParseError):
        parse("rec = 0")
    with pytest.raises(ParseError):
        parse_term("rec tau.0")


# -- well-formedness -----------------------------------------------------------


def test_unguarded_recursion_detected():
    assert well_formed(Rec("X", Var("X"))) == [
        Violation("unguarded-recursion", "X")
    ]
    assert well_formed(parse_term("rec X.X + tau.X")) == [
        Violation("unguarded-recursion", "X")
    ]


def test_guarded_recursion_accepted():
    assert well_formed(parse_term("rec X.tau.!a.X")) == []
    assert well_formed(parse_term("rec Y.(tau.Y + ?a.0)")) == []


def test_unbound_variable_detected():
    assert well_formed(Var("X")) == [Violation("unbound-variable", "X")]


def test_shadowing_rebinds_the_inner_variable():
    # the inner rec X re-binds X, so the use is guarded by the inner binder
    term = parse_term("rec X.tau.rec X.?a.X")
    assert well_formed(term) == []


# -- compilation ----------------------------------------------------------------


def test_compile_single_output():
    g = compile_term(parse_term("!a.0"))
    assert g.num_states == 2
    assert g.zero == 0
    assert g.initial == 1
    assert g.edges == ((1, out("a"), 0),)


def test_compile_tau_output_loop():
    g = compile_term(parse_term("rec X.tau.!a.X"))
    assert g.num_states == 2
    assert g.zero is None
    assert g.initial == 0
    assert g.edges == ((0, TAU, 1), (1, out("a"), 0))


def test_compile_input_self_loop():
    g = compile_term(parse_term("rec X.?a.X"))
    assert g.num_states == 1
    assert g.edges == ((0, inp("a"), 0),)
    assert g.zero is None


def test_compile_collapses_transition_free_terms():
    # 0 + 0 cannot move, so it is the terminal state
    g = compile_term(parse_term("tau.(0 + 0)"))
    assert g.num_states == 2
    assert g.zero == 0
    assert g.edges == ((1, TAU, 0),)


def test_compile_is_deterministic():
    term = parse_term("rec X.(!a.X + ?b.(tau.0 + !c.X))")
    assert compile_term(term) == compile_term(term)


def test_compile_rejects_ill_formed():
    with pytest.raises(IllFormedError) as err:
        compile_term(parse_term("rec X.X"))
    assert err.value.violations == (Violation("unguarded-recursion", "X"),)


def test_compile_state_bound():
    term = parse_term("!a.!b.!c.0")
    with pytest.raises(StateExplosionError):
        compile_term(term, max_states=3)
    assert compile_term(term, max_states=4).num_states == 4


@pytest.mark.parametrize("text", ["0", "0 + 0", "!a.0", "rec X.!a.X"])
def test_compile_state_bound_counts_the_initial_state(text):
    with pytest.raises(StateExplosionError):
        compile_term(parse_term(text), max_states=0)
    if not compile_term(parse_term(text)).edges:
        assert compile_term(parse_term(text), max_states=1).num_states == 1


@pytest.mark.parametrize("before", ["rec X.!a.X", "!a.0"])
@pytest.mark.parametrize("failing", ["0", "!b.!c.0", "rec Y.(?b.Y + !c.tau.0)"])
def test_a_failing_compile_leaves_the_union_as_it_was(before, failing):
    # each failing term has one state more than the bound; its rows are
    # written as the BFS goes, and taken back
    union = _add(_Union(), _rows(parse_term(before)), DEFAULT_MAX_STATES)
    kept = (list(union.rows), list(union.initials), union.zero)
    bound = compile_term(parse_term(failing)).num_states - 1
    with pytest.raises(StateExplosionError):
        _add(union, _rows(parse_term(failing)), bound)
    assert (union.rows, union.initials, union.zero) == kept
    # and the union takes the next term as if the failed one was never tried
    _add(union, _rows(parse_term(failing)), bound + 1)
    parts = [compile_term(parse_term(text)) for text in (before, failing)]
    assert union.graph() == merge_graphs(parts)


def test_exactly_one_sink_in_compiled_graphs():
    for seed in range(100):
        g = compile_term(random_contract(GenConfig(seed=seed)))
        sinks = [s for s in range(g.num_states) if not g.out_edges(s)]
        assert sinks == ([g.zero] if g.zero is not None else [])


# -- pretty-printing --------------------------------------------------------------


def test_roundtrip_on_corpus():
    for d in corpus.example_definitions():
        assert parse_term(pretty(d.term)) == d.term


@pytest.mark.parametrize(
    "term",
    [
        Choice(Rec("X", Prefix(TAU, Var("X"))), Nil()),
        Prefix(out("a"), Choice(Nil(), Nil())),
        Choice(Nil(), Choice(Nil(), Rec("X", Prefix(TAU, Var("X"))))),
        Choice(Prefix(out("a"), Rec("X", Prefix(TAU, Var("X")))), Nil()),
        Choice(Choice(Nil(), Rec("X", Prefix(TAU, Var("X")))), Nil()),
        Rec("X", Choice(Var("X"), Var("X"))),
    ],
)
def test_roundtrip_on_tricky_shapes(term):
    assert parse_term(pretty(term)) == term


names = st.sampled_from(["a", "b", "go_on2"])
variables = st.sampled_from(["X", "Y", "Zed"])
labels = st.one_of(st.just(TAU), st.builds(inp, names), st.builds(out, names))
terms = st.deferred(
    lambda: st.one_of(
        st.just(Nil()),
        st.builds(Var, variables),
        st.builds(Prefix, labels, terms),
        st.builds(Choice, terms, terms),
        st.builds(Rec, variables, terms),
    )
)


@given(terms)
def test_roundtrip_on_arbitrary_asts(term):
    assert parse_term(pretty(term)) == term


@pytest.mark.parametrize("seed", range(300))
def test_roundtrip_on_generated_contracts(seed):
    term = random_contract(GenConfig(seed=seed))
    assert parse_term(pretty(term)) == term


# -- the parse loop against the recursive-descent reference -------------------

# every token kind, multi-token heads, and characters the tokenizer rejects
fragments = st.sampled_from(
    ["0", "?", "!", ".", "+", "(", ")", "=", "a", "b1", "X", "x_y", "rec", "tau",
     "?a.", "!b.", "tau.", "rec X.", " + ", " ", "\t", "1", "_", "$", "\xe9",
     "\r", "#", "\n", "\f", "\u2028", "\ufeff"]
)


def splice(text, at, cut, inserted):
    return text[:at] + "".join(inserted) + text[at + cut :]


# plain fragment runs, printed terms (some in parentheses), and printed terms
# with a slice replaced, which reach the errors deep inside a nearly valid term
printed = st.one_of(terms.map(pretty), terms.map(lambda t: f"({pretty(t)})"))
sources = st.one_of(
    st.lists(fragments, max_size=16).map("".join),
    printed,
    st.builds(
        splice,
        printed,
        st.integers(0, 40),
        st.integers(0, 3),
        st.lists(fragments, max_size=2),
    ),
)


def parsed_or_error(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


@settings(max_examples=500)
@given(sources, sources)
def test_parse_matches_reference(first, second):
    assert parsed_or_error(parse_term, first) == parsed_or_error(
        reference_parse_term, first
    )
    for text in (first, f"p = {first}", f"p = {first}\nq = {second}\np = {second}"):
        assert parsed_or_error(parse, text) == parsed_or_error(reference_parse, text)


# inputs where the lexeme regex could split a line differently from the
# character loop: a reserved word or "0" inside a name, "0" against a digit,
# the column after a tab, a non-ASCII letter, a carriage return, a reserved
# word where a name must be, a definition with no term, and the characters
# that end a line or do not
@pytest.mark.parametrize(
    "source",
    ["taux", "a0", "01", "\t$", "!a.\xe9", "!a.0\r", "rec tau.0", "p =",
     "!a.\r\n0", "!a.\f0", "0 # \u2028 x", "\ufeff!a.0"],
    ids=["taux", "a0", "01", "tab-then-bad", "e-acute", "trailing-cr", "rec-tau",
         "p-eq", "crlf", "form-feed", "line-separator-in-comment", "bom"],
)
def test_lexer_edge_cases_match_reference(source):
    assert parsed_or_error(parse_term, source) == parsed_or_error(
        reference_parse_term, source
    )
    for text in (source, f"p = {source}", f"p = !a.0\n{source}"):
        assert parsed_or_error(parse, text) == parsed_or_error(reference_parse, text)


def chain_depth(t):
    """Prefix and Rec levels above a term's innermost body, and that body,
    counted without recursion (``==`` on deep terms would recurse)."""
    depth = 0
    while isinstance(t, (Prefix, Rec)):
        depth, t = depth + 1, t.body
    return depth, t


def test_parse_takes_any_nesting_depth():
    assert parse_term("(" * 2000 + "!a.0" + ")" * 2000) == Prefix(out("a"), Nil())
    assert chain_depth(parse_term("!a." * 5000 + "X")) == (5000, Var("X"))
    (d,) = parse("p = " + "rec X." * 3000 + "(!a.X)")
    assert chain_depth(d.term) == (3001, Var("X"))


def test_well_formed_takes_any_depth():
    t = Var("X")
    for _ in range(5000):
        t = Prefix(out("a"), t)
    assert well_formed(t) == [Violation("unbound-variable", "X")]
    assert chain_depth(t) == (5000, Var("X"))


# -- the parser's violations against well_formed --------------------------------


def parser_violations(text):
    """The violations the parse loop records while it reads ``p = text``."""
    ((name, line, (rows, root, violations)),) = lang._definitions(f"p = {text}")
    return list(violations)


@settings(max_examples=200)
@given(st.one_of(terms.map(pretty), terms.map(lambda t: f"(({pretty(t)}))")))
def test_parser_violations_equal_well_formed(text):
    assert parser_violations(text) == well_formed(parse_term(text))


@pytest.mark.parametrize(
    "text",
    [
        "X + Y + X",  # unbound, each once, in reading order
        "rec X.(X + !a.X + Y)",
        "rec X.!a.rec X.X",  # the inner binder shadows the guarded outer one
        "rec X.rec X.!a.X",  # well-formed
        "rec X.(!a.0 + rec Y.(X + Y)) + X",  # X unbound once its rec is closed
        "!a.rec X.X",  # a prefix before the binder guards nothing
        "rec X.(!a.(X + rec Y.Y) + (X))",
        "(" * 3000 + "rec X.(X + Z)" + ")" * 3000,
        "rec X." + "!a.(" * 3000 + "X + rec Y.(Y + Z)" + ")" * 3000,
    ],
    ids=["unbound", "mixed", "shadowed-inner", "shadowed-outer", "closed-rec",
         "prefix-before-binder", "parenthesised", "deep-parentheses", "deep-chain"],
)
def test_parser_violations_equal_well_formed_on_tricky_shapes(text):
    assert parser_violations(text) == well_formed(parse_term(text))


@settings(max_examples=100, deadline=None)
@given(terms.filter(lambda t: well_formed(t) != []))
def test_cli_reports_the_violations_of_well_formed(term):
    expected = "; ".join(map(str, well_formed(term)))
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory, "ill.bc"))
        Path(path).write_text(f"q = ?a.0\np = {pretty(term)}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["check", path, "p", path, "q"]) == 2
    assert err.getvalue() == f"error: {path}:2: contract 'p': {expected}\n"


# -- the compiler against the reference compiler ------------------------------


def compiled_or_bound(compile, term):
    try:
        return compile(term)
    except StateExplosionError:
        return "state bound exceeded"


@pytest.mark.parametrize("max_depth", [6, 9])
def test_compile_matches_reference_on_generated_contracts(max_depth):
    for seed in range(300):
        term = random_contract(GenConfig(seed=seed, max_depth=max_depth))
        assert compiled_or_bound(compile_term, term) == compiled_or_bound(
            reference_compile, term
        ), pretty(term)


@pytest.mark.parametrize(
    "source",
    [
        "rec X.!a.rec X.!b.X",  # the inner binder shadows the outer one
        "!a.!b.0 + !c.!b.0",  # both branches unfold to the same state
        "rec X.(tau.X + rec Y.(!a.X + ?b.Y))",
        "tau.(0 + 0) + tau.0",
    ],
)
def test_compile_matches_reference_on_tricky_shapes(source):
    term = parse_term(source)
    assert compile_term(term) == reference_compile(term)


@settings(max_examples=200)
@given(terms.filter(lambda t: well_formed(t) == []))
def test_compile_matches_reference_on_arbitrary_asts(term):
    assert compiled_or_bound(compile_term, term) == compiled_or_bound(
        reference_compile, term
    )


def test_compile_hashes_no_term(monkeypatch):
    defs = corpus.example_definitions()
    expected = [reference_compile(d.term) for d in defs]

    def refuse(self):
        raise AssertionError(f"hashed the term {self!r}")

    for cls in (Nil, Prefix, Choice, Rec, Var):
        monkeypatch.setattr(cls, "__hash__", refuse)
    assert [compile_term(d.term, name=d.name) for d in defs] == expected


def shared(lab):
    return TAU if lab.kind == INTERNAL else inp(lab.name) if lab.kind == INPUT else out(lab.name)


def test_compile_runs_no_label_method_and_emits_shared_labels(monkeypatch):
    # the term table keeps labels as int codes, so a compile hashes and
    # compares no Label, and its rows decode to the shared label of each action
    terms = [d.term for d in corpus.example_definitions()]
    terms += [random_contract(GenConfig(seed=seed)) for seed in range(300)]
    # labels built directly are equal to the shared ones, but not them
    terms.append(Prefix(Label(INPUT, "a"), Choice(Prefix(Label(INTERNAL), NIL), NIL)))
    assert terms[-1].label is not inp("a")
    expected = [compiled_or_bound(reference_compile, t) for t in terms]

    def refuse(self, *other):
        raise AssertionError(f"compared or hashed the label {self!r}")

    with monkeypatch.context() as patched:
        for method in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            patched.setattr(Label, method, refuse)
        graphs = [compiled_or_bound(compile_term, t) for t in terms]
    assert graphs == expected
    for term, g in zip(terms, graphs):
        if not isinstance(g, str):
            assert all(lab is shared(lab) for _, lab, _ in g.edges), pretty(term)
            labels = [lab for s in range(g.num_states) for lab, _ in g.out_edges(s)]
            assert all(lab is shared(lab) for lab in labels), pretty(term)


def test_compile_leaves_no_cyclic_garbage():
    # a compile's term table is freed by reference counting when it returns
    terms = [d.term for d in corpus.example_definitions()]
    terms += [t for pair in random_pairs(1, 100) for t in pair]
    terms += [parse_term("!a." * 600 + "0"), parse_term("rec X.rec Y.(!a.X + ?b.Y)")]
    gc.collect()
    gc.disable()
    try:
        for term in terms:
            compile_term(term)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- compiled rows against the validating constructor --------------------------

TABLES = ("_tau_adj", "_tau_pred", "_reaches_zero", "_weak", "_diverging")


def assert_compiles_to_canonical_rows(term):
    g = compiled_or_bound(compile_term, term)
    if isinstance(g, str):
        return
    # a fresh compile keeps only its rows: no edge list and no table
    assert set(vars(g)) == {"num_states", "initial", "zero", "name", "_out"}
    rebuilt = ContractGraph(g.num_states, g.initial, g.edges, g.zero)
    assert g._out == rebuilt._out
    assert g.edges == rebuilt.edges
    for table in TABLES:
        assert getattr(g, table) == getattr(rebuilt, table)


@pytest.mark.parametrize(
    "source",
    [
        "!a.0 + !a.(0 + 0)",  # two moves collapse onto the terminal state
        "tau.(0 + 0) + tau.0 + tau.!a.0",
        "rec X.(!b.X + !a.0 + !a.X + !a.(0 + 0))",
        "rec X.(?a.rec Y.(tau.X + ?a.Y) + ?a.X)",
    ],
)
def test_compile_emits_canonical_rows_on_tricky_shapes(source):
    assert_compiles_to_canonical_rows(parse_term(source))


def test_compile_emits_canonical_rows_on_generated_contracts():
    for seed in range(300):
        assert_compiles_to_canonical_rows(random_contract(GenConfig(seed=seed)))


@settings(max_examples=200)
@given(terms.filter(lambda t: well_formed(t) == []))
def test_compile_emits_canonical_rows_on_arbitrary_asts(term):
    assert_compiles_to_canonical_rows(term)


def test_parse_shares_one_label_per_action_and_one_nil():
    text = "p = !a.?b.0 + !a.(tau.0 + ?b.0)\nq = rec X.(!a.X + ?b.0 + tau.0)\n"
    labels, nils = [], []
    stack = [d.term for d in parse(text)] + [random_contract(GenConfig(seed=7))]
    while stack:
        t = stack.pop()
        labels += [t.label] if isinstance(t, Prefix) else []
        nils += [t] if isinstance(t, Nil) else []
        stack += [getattr(t, f) for f in ("body", "left", "right") if hasattr(t, f)]
    assert len(labels) > len(set(labels)) >= 3
    assert len({id(lab) for lab in labels}) == len(set(labels))
    assert inp("b") in labels  # and is the label lts.inp hands out
    assert all(lab is inp("b") for lab in labels if lab == inp("b"))
    assert len(nils) > 1 and all(nil is NIL for nil in nils)
