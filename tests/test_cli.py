import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcc import Composition, ContractGraph, PairState, cli, corpus, generator, lang
from bcc import propositions
from bcc import terms as bcc_terms
from bcc.cli import main
from bcc.composition import DEFAULT_MAX_PAIRS, to_dot
from bcc.corpus import EXAMPLES_SOURCE
from bcc.generator import GenConfig, random_contract, random_pairs
from bcc.lang import DEFAULT_MAX_STATES, compile_term, parse_term, pretty
from bcc.lts import merge_graphs


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "examples.bc"
    path.write_text(EXAMPLES_SOURCE)
    return str(path)


@pytest.fixture()
def corpus_dir(tmp_path):
    (tmp_path / "examples.bc").write_text(EXAMPLES_SOURCE)
    return str(tmp_path)


def test_corpus_file_is_the_bundled_source():
    # the README and scripts read the file, the tests read the string
    path = Path(__file__).resolve().parent.parent / "corpus" / "examples.bc"
    assert path.read_bytes() == EXAMPLES_SOURCE.encode("utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check -------------------------------------------------------------------


def test_check_all_relations_for_p1_q1(capsys, corpus_file):
    code, out, _ = run(capsys, "check", corpus_file, "p1", corpus_file, "q1", "--all")
    assert code == 1  # io fails
    row = out.splitlines()[0]
    for cell in ("pg ✓", "mst ✓", "shd ✓", "beh ✓", "io ✗", "may ✓"):
        assert cell in row
    assert "io witness: 1‖1" in out
    assert "elapsed:" in out


def test_check_all_relations_for_p3_q3(capsys, corpus_file):
    code, out, _ = run(capsys, "check", corpus_file, "p3", corpus_file, "q3", "--all")
    assert code == 1
    row = out.splitlines()[0]
    for cell in ("pg ✗", "mst ✗", "shd ✗", "beh ✗", "io ✗", "may ✓"):
        assert cell in row


def test_check_single_relation_exit_zero(capsys, corpus_file):
    code, out, _ = run(
        capsys, "check", corpus_file, "p1", corpus_file, "q1", "--relation", "pg"
    )
    assert code == 0
    assert "pg ✓" in out and "io" not in out


def test_check_client_against_client(capsys, corpus_file):
    code, out, _ = run(
        capsys, "check", corpus_file, "p1", corpus_file, "p1", "--relation", "may"
    )
    assert code == 1
    assert "may ✗" in out


def test_check_json_schema(capsys, corpus_file):
    code, out, _ = run(
        capsys, "check", corpus_file, "p1", corpus_file, "q1", "--all", "--json"
    )
    report = json.loads(out)
    assert report["tool"].startswith("bcc ")
    (entry,) = report["pairs"]
    assert entry["client"] == "p1" and entry["server"] == "q1"
    assert entry["verdicts"] == {
        "pg": True, "mst": True, "shd": True, "beh": True, "io": False, "may": True,
    }
    assert entry["witness"]["io"] == [[1, 1]]
    assert entry["witness"]["may"] == [[1, 1], [0, 0]]


def test_check_json_is_byte_identical_across_runs(capsys, corpus_file):
    args = ("check", corpus_file, "p4", corpus_file, "q4", "--all", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_check_unknown_contract_exits_two(capsys, corpus_file):
    code, _, err = run(capsys, "check", corpus_file, "nope", corpus_file, "q1")
    assert code == 2
    assert "nope" in err


def test_check_missing_file_exits_two(capsys, corpus_file):
    code, _, err = run(capsys, "check", "/no/such.bc", "p1", corpus_file, "q1")
    assert code == 2
    assert "/no/such.bc" in err


def test_check_pair_bound_env_override(capsys, corpus_file, monkeypatch):
    monkeypatch.setenv("BCC_MAX_PAIRS", "1")
    code, _, err = run(capsys, "check", corpus_file, "p1", corpus_file, "q1")
    assert code == 2
    assert "pairs" in err
    monkeypatch.setenv("BCC_MAX_PAIRS", "junk")
    code, _, err = run(capsys, "check", corpus_file, "p1", corpus_file, "q1")
    assert code == 2 and "BCC_MAX_PAIRS" in err


def test_check_rejects_a_non_positive_env_bound(capsys, corpus_file, monkeypatch):
    monkeypatch.setenv("BCC_MAX_PAIRS", "0")
    code, out, err = run(capsys, "check", corpus_file, "p1", corpus_file, "q1")
    assert (code, out) == (2, "")
    assert err == "error: BCC_MAX_PAIRS must be positive, got 0\n"


def test_check_flag_overrides_env(capsys, corpus_file, monkeypatch):
    monkeypatch.setenv("BCC_MAX_PAIRS", "1")
    code, _, _ = run(
        capsys, "check", corpus_file, "p1", corpus_file, "q1",
        "--relation", "pg", "--max-pairs", "100",
    )
    assert code == 0


@pytest.mark.parametrize("flag", ["--max-pairs", "--max-states"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_check_rejects_non_positive_bounds(capsys, corpus_file, flag, value):
    code, out, err = run(
        capsys, "check", corpus_file, "p1", corpus_file, "q1", flag, value
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be positive, got {value}\n"


@pytest.mark.parametrize(
    "client, reason",
    [
        ("!a." * 5000 + "0", "more than 1024 states while compiling 'p'"),
        ("(!a." * 2000 + "0" + ")" * 2000, "more than 1024 states while compiling 'p'"),
        (" + ".join(["!a.0"] * 2000), "input nested too deeply"),
    ],
    ids=["deep-prefix-chain", "deep-parentheses", "wide-sum"],
)
def test_check_too_deep_input_exits_two(capsys, tmp_path, client, reason):
    # the parser takes any depth and compiles a chain without recursion, so
    # the state bound stops a long one; collecting the moves of a sum still
    # recurses once per summand down its left spine
    path = tmp_path / "deep.bc"
    path.write_text(f"p = {client}\nq = rec Y.?a.Y\n")
    code, _, err = run(capsys, "check", str(path), "p", str(path), "q", "--all")
    assert code == 2
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err


def test_check_a_long_chain_gets_a_verdict_under_raised_bounds(capsys, tmp_path):
    path = tmp_path / "chain.bc"
    path.write_text(f"p = {'!a.' * 5000}0\nq = rec Y.?a.Y\n")
    argv = ["check", str(path), "p", str(path), "q", "--json"]
    code, out, _ = run(capsys, *argv, "--max-states", "6000", "--max-pairs", "10000")
    assert code == 0
    (entry,) = json.loads(out)["pairs"]
    assert entry["verdicts"] == dict.fromkeys(
        ["pg", "mst", "shd", "beh", "io", "may"], True
    )


@pytest.mark.parametrize(
    "client",
    [
        "rec X." * 989 + "!a.X",
        " + ".join(["!a.0"] * 991),
        "rec X." + "!a." * 989 + "X",
        "!a." * 1020 + "0",
    ],
    ids=["nested-rec", "wide-sum", "rec-loop", "prefix-chain"],
)
def test_check_gets_a_verdict_just_below_the_readme_depth_limits(tmp_path, client):
    # three below the README's limits (992, 994, 992), run through
    # ``sys.exit(main())`` as the installed script runs it: a change that
    # adds frames to the compile path fails here before the README is wrong;
    # a chain has no depth limit, and the default --max-states bounds it
    path = tmp_path / "deep.bc"
    path.write_text(f"p = {client}\nq = rec Y.?a.Y\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from bcc.cli import main; sys.exit(main())"
    argv = ["check", str(path), "p", str(path), "q", "--json"]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=env, timeout=60
    )
    assert done.returncode in (0, 1), done.stderr
    (entry,) = json.loads(done.stdout)["pairs"]
    assert set(entry["verdicts"]) == {"pg", "mst", "shd", "beh", "io", "may"}


def test_check_deep_parentheses_gets_a_verdict(capsys, tmp_path):
    path = tmp_path / "deep.bc"
    path.write_text(f"p = {'(' * 2000}!a.0{')' * 2000}\nq = rec Y.?a.Y\n")
    code, out, _ = run(
        capsys, "check", str(path), "p", str(path), "q", "--all", "--json"
    )
    assert code == 0
    (entry,) = json.loads(out)["pairs"]
    assert entry["verdicts"] == dict.fromkeys(
        ["pg", "mst", "shd", "beh", "io", "may"], True
    )


@pytest.mark.parametrize("length", [600, 900])
def test_check_long_prefix_chain(capsys, tmp_path, length):
    path = tmp_path / "chain.bc"
    path.write_text(f"p = {'!a.' * length}0\nq = rec Y.?a.Y\n")
    code, out, _ = run(
        capsys, "check", str(path), "p", str(path), "q", "--all", "--json"
    )
    assert code == 0
    (entry,) = json.loads(out)["pairs"]
    assert entry["verdicts"] == dict.fromkeys(
        ["pg", "mst", "shd", "beh", "io", "may"], True
    )


def test_check_long_rec_loop_gets_a_verdict(capsys, tmp_path):
    # substitution takes one frame per prefix, as interning does
    path = tmp_path / "loop.bc"
    path.write_text(f"p = rec X.{'!a.' * 800}X\nq = rec Y.?a.Y\n")
    code, out, _ = run(
        capsys, "check", str(path), "p", str(path), "q", "--all", "--json"
    )
    assert code == 1
    (entry,) = json.loads(out)["pairs"]
    assert entry["verdicts"] == {
        "pg": True, "mst": False, "shd": False, "beh": True, "io": True, "may": False
    }


LATIN_1_SOURCE = "# caf\xe9\np1 = !a.0\nq1 = ?a.0\n".encode("latin-1")


def test_check_non_utf8_file_exits_two(capsys, tmp_path):
    path = tmp_path / "latin.bc"
    path.write_bytes(LATIN_1_SOURCE)
    code, _, err = run(capsys, "check", str(path), "p1", str(path), "q1")
    assert code == 2
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("broken_side", ["client", "server"])
@pytest.mark.parametrize(
    "command, term, flags, error",
    [
        pytest.param(
            command, "!a.", [], "{file}: 3:9: expected a term, found 'end of line'",
            id=command,
        )
        for command in ["check", "dot"]
    ]
    + [
        pytest.param(
            command, "rec X.X", [],
            "{file}:3: contract '{name}': unguarded-recursion: X",
            id=f"{command}-ill-formed",
        )
        for command in ["check", "matrix", "verify-propositions"]
    ]
    + [
        pytest.param(
            command, "!a.!a.0", ["--max-states", "2"],
            "{file}:3: more than 2 states while compiling '{name}'",
            id=f"{command}-too-many-states",
        )
        for command in ["check", "matrix", "verify-propositions"]
    ]
    + [
        pytest.param(
            "verify-propositions", "!a.0",
            ["--random", "3", "--seed", "1", "--max-states", "2"],
            "random0 client: more than 2 states while compiling",
            id="verify-propositions-random-too-many-states",
        )
    ],
)
def test_parse_error_names_the_file(
    capsys, tmp_path, broken_side, command, term, flags, error
):
    # the broken contract is p2 or q2, on line 3 of its file; its partner
    # is alone in the other file of the corpus.  In the random case every
    # file compiles, and the first random pair does not.
    client_side = broken_side == "client"
    name, partner = ("p2", "q2 = ?a.0") if client_side else ("q2", "p2 = !a.0")
    good, broken = tmp_path / "good.bc", tmp_path / "broken.bc"
    good.write_text(f"{partner}\n")
    broken.write_text(f"p1 = !a.0\nq1 = ?a.0\n{name} = {term}\n")
    client, server = (broken, good) if client_side else (good, broken)
    if command in ("matrix", "verify-propositions"):
        argv = [command, str(tmp_path)]
    else:
        out_path = [str(tmp_path / "u.dot")] if command == "dot" else []
        argv = [command, str(client), "p2", str(server), "q2", *out_path]
    code, out, err = run(capsys, *argv, *flags)
    assert code == 2
    assert out == ""
    assert err == "error: " + error.format(file=broken, name=name) + "\n"


def test_a_form_feed_line_counts_as_one_line(capsys, tmp_path):
    path = tmp_path / "paged.bc"
    path.write_text("p1 = !a.0\n\f\nq1 = rec X.X\n")
    code, out, err = run(capsys, "check", str(path), "p1", str(path), "q1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}:3: contract 'q1': unguarded-recursion: X\n"


def test_a_byte_order_mark_is_dropped(capsys, tmp_path):
    path = tmp_path / "bom.bc"
    path.write_bytes(b"\xef\xbb\xbfp1 = !a.0\nq1 = ?a.0\n")
    code, out, err = run(capsys, "check", str(path), "p1", str(path), "q1", "--json")
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)["pairs"]
    assert entry["verdicts"] == dict.fromkeys(
        ["pg", "mst", "shd", "beh", "io", "may"], True
    )


def run_quietly(argv):
    """main(argv) with its output captured; an escaping exception fails the
    calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# source text near the contract language, so that most files reach the
# parser and some the compiler; encoded as UTF-8 and as Latin-1
TOKENS = ["p", "q", " = ", "0", "X", "?a.", "!a.", "tau.", "rec X.", "+", "(", ")"]
near_source = st.lists(
    st.sampled_from(TOKENS + ["\n", "#", "\t", "é", "\x00"]), max_size=30
).map("".join)
file_bytes = st.one_of(
    st.binary(max_size=60),
    near_source.map(str.encode),
    near_source.map(lambda text: text.encode("latin-1")),
)


@settings(max_examples=100, deadline=None)
@given(file_bytes)
def test_check_survives_arbitrary_file_bytes(data):
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "f.bc")
        Path(path).write_bytes(data)
        code, _, err = run_quietly(["check", path, "p", path, "q"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# -- matrix -------------------------------------------------------------------


def test_matrix_over_corpus(capsys, corpus_dir):
    code, out, _ = run(capsys, "matrix", corpus_dir)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].split() == ["pair", "pg", "mst", "shd", "beh", "io", "may"]
    rows = {line.split()[0]: line.split()[3:] for line in lines[1:5]}
    assert rows["p1"] == ["✓", "✓", "✓", "✓", "✗", "✓"]
    assert rows["p3"] == ["✗", "✗", "✗", "✗", "✗", "✓"]


def test_matrix_json_has_all_24_verdicts(capsys, corpus_dir):
    code, out, _ = run(capsys, "matrix", corpus_dir, "--json")
    report = json.loads(out)
    assert [e["client"] for e in report["pairs"]] == ["p1", "p2", "p3", "p4"]
    assert sum(len(e["verdicts"]) for e in report["pairs"]) == 24


def test_matrix_empty_corpus(capsys, tmp_path):
    code, out, _ = run(capsys, "matrix", str(tmp_path))
    assert code == 0
    assert out.splitlines()[0].startswith("pair")


def test_matrix_unparsable_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "broken.bc"
    bad.write_text("p1 = !a.\n")
    code, _, err = run(capsys, "matrix", str(tmp_path))
    assert code == 2
    assert "broken.bc" in err


def test_matrix_reports_convention_violations(capsys, tmp_path):
    (tmp_path / "odd.bc").write_text("p1 = !a.0\nq1 = ?a.0\nhelper = tau.0\np9 = 0\n")
    code, out, err = run(capsys, "matrix", str(tmp_path))
    assert code == 0  # the conforming p1/q1 row holds everywhere
    assert "p1" in out and "p9" not in out
    assert "helper" in err and "p9" in err


def test_matrix_non_utf8_file_exits_two(capsys, tmp_path):
    (tmp_path / "latin.bc").write_bytes(LATIN_1_SOURCE)
    code, _, err = run(capsys, "matrix", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: cannot read {tmp_path / 'latin.bc'}: ")
    assert "Traceback" not in err


PADDED_AND_PLAIN = "p01 = !a.0\nq01 = ?a.0\np1 = !b.0\nq1 = ?b.0\n"


def test_matrix_pairs_zero_padded_names(capsys, tmp_path):
    (tmp_path / "padded.bc").write_text("p01 = !a.0\nq01 = ?a.0\n")
    code, out, err = run(capsys, "matrix", str(tmp_path), "--json")
    assert code == 0 and err == ""
    pairs = json.loads(out)["pairs"]
    assert [(e["client"], e["server"]) for e in pairs] == [("p01", "q01")]


def test_matrix_keeps_padded_and_plain_numbers_apart(capsys, tmp_path):
    (tmp_path / "both.bc").write_text(PADDED_AND_PLAIN + "p10 = 0\nq10 = 0\n")
    (tmp_path / "two.bc").write_text("p2 = !c.0\nq2 = ?c.0\n")
    code, out, err = run(capsys, "matrix", str(tmp_path), "--json")
    assert code == 0 and err == ""
    pairs = json.loads(out)["pairs"]
    assert [e["client"] for e in pairs] == ["p01", "p1", "p2", "p10"]


LONG_NUMBER = "1" + "0" * 4300  # more digits than int() converts


@pytest.mark.parametrize("command", ["matrix", "verify-propositions"])
def test_a_pair_number_too_long_for_int_sorts_after_shorter_ones(
    capsys, tmp_path, command
):
    text = f"p{LONG_NUMBER} = !a.0\nq{LONG_NUMBER} = ?a.0\np1 = !b.0\nq1 = ?b.0\n"
    (tmp_path / "long.bc").write_text(text)
    # each pair's universe holds two pairs, so a bound of two keeps the first
    code, out, err = run(capsys, command, str(tmp_path), "--max-pairs", "2", "--json")
    assert code == 0
    report = json.loads(out)
    if command == "matrix":
        assert err == ""
        assert [e["client"] for e in report["pairs"]] == ["p1", "p" + LONG_NUMBER]
    else:
        long_pair = f"p{LONG_NUMBER}‖q{LONG_NUMBER}"
        assert report["universe"] == {"pairs": 2, "roots": 1, "dropped": [long_pair]}


def test_pair_numbers_sort_as_their_value_then_their_text():
    numbers = ["0", "00", "1", "01", "9", "10", "010"]
    expected = sorted(numbers, key=lambda n: (int(n), n))
    assert expected == ["0", "00", "01", "1", "9", "010", "10"]
    for order in itertools.permutations(numbers):
        assert sorted(order, key=cli._number_order) == expected


def test_matrix_pair_column_fits_the_longest_label(capsys, tmp_path):
    (tmp_path / "wide.bc").write_text("p1 = !a.0\nq1 = ?a.0\np100 = !a.0\nq100 = ?b.0\n")
    code, out, err = run(capsys, "matrix", str(tmp_path))
    assert code == 1 and err == ""
    header, *rows = out.splitlines()[:3]
    assert [row.split()[0] for row in rows] == ["p1", "p100"]

    def token_ends(line):
        return [m.end() for m in re.finditer(r"\S+", line)]

    columns = token_ends(header)[1:]
    assert len(columns) == 6
    for row in rows:
        assert token_ends(row)[3:] == columns  # after "pN", "‖", "qN"


# -- verify-propositions --------------------------------------------------------


def test_verify_propositions_on_corpus(capsys, corpus_dir):
    code, out, _ = run(capsys, "verify-propositions", corpus_dir)
    assert code == 0
    assert "least-fixpoint-is-must" in out
    assert "FAIL" not in out


def test_verify_propositions_with_random_pairs_json(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "verify-propositions", corpus_dir, "--random", "25",
        "--seed", "7", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert all(p["ok"] for p in report["propositions"])
    names = {p["name"] for p in report["propositions"]}
    assert {"least-fixpoint-is-must", "io-is-post-fixed", "mst-implies-shd"} <= names
    assert report["classification"]["mst"] == {"pre": True, "post": True, "fix": True}
    assert report["classification"]["io"]["fix"] is False
    assert report["inputs"]["seed"] == 7


def test_verify_propositions_json_deterministic(capsys, corpus_dir):
    args = ("verify-propositions", corpus_dir, "--random", "10", "--seed", "3", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_propositions_on_terminal_only_corpus(capsys, tmp_path):
    (tmp_path / "trivial.bc").write_text("p1 = 0\nq1 = 0\n")
    code, out, _ = run(capsys, "verify-propositions", str(tmp_path))
    assert code == 0
    assert "FAIL" not in out


def test_verify_propositions_drops_oversized_pairs(capsys, corpus_dir):
    code, out, err = run(
        capsys, "verify-propositions", corpus_dir, "--random", "5",
        "--seed", "11", "--max-pairs", "8", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["universe"]["pairs"] == 8
    assert report["universe"]["roots"] == 5
    assert report["universe"]["dropped"] == ["random1", "random2", "random3", "random4"]
    assert err.count("note: dropped pair") == 4


def test_verify_propositions_rolls_back_a_dropped_pair(capsys, corpus_dir):
    # random1's closure overflows after adding two pairs; they are removed
    # again, so the later pairs still fit
    code, out, err = run(
        capsys, "verify-propositions", corpus_dir, "--random", "5",
        "--seed", "1", "--max-pairs", "10", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["universe"] == {"pairs": 10, "roots": 8, "dropped": ["random1"]}
    assert err.count("note: dropped pair") == 1


def test_verify_propositions_pairs_zero_padded_names(capsys, tmp_path):
    (tmp_path / "padded.bc").write_text("p01 = !a.0\nq01 = ?a.0\n")
    code, out, err = run(capsys, "verify-propositions", str(tmp_path), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["universe"] == {"pairs": 2, "roots": 1, "dropped": []}


def test_verify_propositions_keeps_padded_and_plain_numbers_apart(capsys, tmp_path):
    # each pair's universe holds two pairs, so a bound of two keeps the first
    (tmp_path / "both.bc").write_text(PADDED_AND_PLAIN)
    code, out, err = run(
        capsys, "verify-propositions", str(tmp_path), "--max-pairs", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["universe"] == {"pairs": 2, "roots": 1, "dropped": ["p1‖q1"]}
    assert err == "note: dropped pair p1‖q1: universe bound 2 exceeded\n"


def test_verify_propositions_frees_terms_and_pair_graphs_before_deciding(
    capsys, corpus_dir, monkeypatch
):
    # reference counting alone must free the rows of every parsed definition
    # and every drawn term (and its rows), and every compile's term table,
    # once its pair is compiled; and each side is compiled straight into its
    # merged graph: the only graphs ever made are the two the relations are
    # decided on
    rows, terms, graphs = [], [], []

    class Rows(list):  # rows that a weak reference can follow
        pass

    class Table(lang._TermTable):
        def __init__(self, *args):
            super().__init__(*args)
            rows.append(weakref.ref(self))

    def weakly_held(written):
        held = Rows(written[0])
        rows.append(weakref.ref(held))
        return (held, *written[1:])

    def term(*args):
        written, pos = lang_term(*args)
        return weakly_held(written), pos

    def iter_random_pairs(*args):
        for pair in generator_iter_random_pairs(*args):
            terms.extend(weakref.ref(t) for t in pair if t is not lang.NIL)
            yield pair

    def from_rows(cls, *args):
        graph = lts_from_rows(cls, *args)
        graphs.append(weakref.ref(graph))
        return graph

    alive = []

    def relation_sets(universe):
        alive.extend(r() for r in rows + terms if r() is not None)
        composition = universe.composition
        made = [r() for r in graphs]
        assert len(made) == 2
        assert made[0] is composition.client and made[1] is composition.server
        return propositions_relation_sets(universe)

    lang_term = lang._term
    terms_rows = bcc_terms._rows
    generator_iter_random_pairs = generator.iter_random_pairs
    lts_from_rows = ContractGraph._from_rows.__func__
    propositions_relation_sets = propositions.relation_sets
    monkeypatch.setattr(lang, "_term", term)
    monkeypatch.setattr(lang, "_TermTable", Table)
    monkeypatch.setattr(bcc_terms, "_rows", lambda t: weakly_held(terms_rows(t)))
    monkeypatch.setattr(generator, "iter_random_pairs", iter_random_pairs)
    monkeypatch.setattr(ContractGraph, "_from_rows", classmethod(from_rows))
    monkeypatch.setattr(propositions, "relation_sets", relation_sets)
    gc.disable()
    try:
        code, _, _ = run(capsys, "verify-propositions", corpus_dir, "--random", "20")
    finally:
        gc.enable()
    assert code == 0
    # the rows and the table of each side of 4 corpus and 20 drawn pairs
    assert len(rows) == 2 * (8 + 40) + 40 and len(terms) > 30
    assert alive == []


def test_verify_propositions_rejects_a_negative_random_count(capsys, corpus_dir):
    code, out, err = run(capsys, "verify-propositions", corpus_dir, "--random", "-3")
    assert code == 2 and out == ""
    assert err == "error: --random must not be negative, got -3\n"
    code, out, _ = run(
        capsys, "verify-propositions", corpus_dir, "--random", "0", "--json"
    )
    assert code == 0 and json.loads(out)["inputs"]["random"] == 0


@pytest.mark.parametrize("seed", ["-5", str(2**64), str(2**64 + 3)])
def test_verify_propositions_rejects_a_seed_out_of_range(capsys, corpus_dir, seed):
    # SplitMix64 keeps a seed's low 64 bits, so these would draw the pairs of
    # another seed while the report echoed this one
    code, out, err = run(capsys, "verify-propositions", corpus_dir, "--seed", seed)
    assert code == 2 and out == ""
    assert err == f"error: --seed must be in [0, 2**64), got {seed}\n"


def test_verify_propositions_takes_the_largest_seed(capsys, corpus_dir):
    argv = ["verify-propositions", corpus_dir, "--random", "3", "--json"]
    code, out, _ = run(capsys, *argv, "--seed", str(2**64 - 1))
    assert code == 0 and json.loads(out)["inputs"]["seed"] == 2**64 - 1


# -- the front end against the library path ------------------------------------


def cli_merged(pairs, random=0, seed=0):
    """The CLI's merged client and server graphs, with their rows and
    initial states, of the pairs written to a contract file (and of
    ``random`` pairs drawn from ``seed`` after them)."""
    with tempfile.TemporaryDirectory() as directory:
        lines = [f"{side}{i} = {text}" for i, pair in enumerate(pairs, start=1)
                 for side, text in zip("pq", pair)]
        Path(directory, "pairs.bc").write_text("".join(f"{x}\n" for x in lines))
        args = argparse.Namespace(
            corpus_dir=directory, random=random, seed=seed, max_states=DEFAULT_MAX_STATES
        )
        _, client, client_initials, server, server_initials = cli._merged_pairs(args)
    return (client, client._out, client_initials), (server, server._out, server_initials)


def library_merged(pairs):
    """What ``merge_graphs`` makes of the compiled terms of each side."""
    sides = []
    for terms in zip(*pairs):
        graph, initials = merge_graphs([compile_term(t) for t in terms])
        sides.append((graph, graph._out, initials))
    return tuple(sides)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_merged_graphs_of_a_file_equal_merge_graphs(seed):
    drawn = random_pairs(seed, 300)
    texts = [(pretty(c), pretty(s)) for c, s in drawn]
    assert cli_merged(texts) == library_merged(drawn)


def test_merged_graphs_of_drawn_pairs_equal_merge_graphs():
    assert cli_merged([], random=300, seed=5) == library_merged(random_pairs(5, 300))


@pytest.mark.parametrize(
    "texts",
    [
        [("rec X.!a.X", "rec Y.?a.Y"), ("rec X.tau.X", "rec Y.(?a.Y + ?b.Y)")],
        [("rec X.!a.X", "0 + 0"), ("0 + 0", "rec Y.?a.Y"), ("tau.(0 + 0)", "?a.0")],
        [("0 + 0", "0"), ("!a.0 + !a.(0 + 0)", "tau.(0 + 0) + tau.0")],
    ],
    ids=["no-success-on-either-side", "success-after-a-block-without", "collapse"],
)
def test_merged_graphs_of_special_sides_equal_merge_graphs(texts):
    terms = [tuple(map(parse_term, pair)) for pair in texts]
    assert cli_merged(texts) == library_merged(terms)


seeds = st.integers(0, 2**64 - 1)
configs = st.fixed_dictionaries(
    {"max_depth": st.integers(0, 7), "rec_probability": st.sampled_from([0.0, 0.2, 0.5])}
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(seeds, seeds, configs), min_size=1, max_size=8))
def test_merged_graphs_of_drawn_lists_equal_merge_graphs(draws):
    drawn = [
        tuple(random_contract(GenConfig(seed=s, **cfg)) for s in (c, q))
        for c, q, cfg in draws
    ]
    texts = [(pretty(c), pretty(s)) for c, s in drawn]
    assert cli_merged(texts) == library_merged(drawn)


# -- dot -------------------------------------------------------------------------


def test_dot_export(capsys, corpus_file, tmp_path):
    out_path = tmp_path / "u.dot"
    code, _, _ = run(capsys, "dot", corpus_file, "p1", corpus_file, "q1", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert dot.startswith("digraph")
    assert dot.count("doublecircle") == 1


def test_dot_write_error_exits_two(capsys, corpus_file, tmp_path):
    code, _, err = run(
        capsys, "dot", corpus_file, "p1", corpus_file, "q1",
        str(tmp_path / "missing" / "u.dot"),
    )
    assert code == 2
    assert "cannot write" in err


def run_under_an_ascii_locale(*argv):
    """Run ``bcc`` in a subprocess whose stdout codec is ASCII."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bcc.cli", *argv],
        capture_output=True, env=env, timeout=120,
    )


def test_dot_writes_utf8_under_an_ascii_locale(corpus_file, tmp_path):
    # node names contain "‖", which the C locale's ASCII codec cannot encode
    out_path = tmp_path / "u.dot"
    done = run_under_an_ascii_locale(
        "dot", corpus_file, "p2", corpus_file, "q2", str(out_path)
    )
    assert done.returncode == 0 and b"Traceback" not in done.stderr, done.stderr
    graphs = corpus.example_graphs()
    client, server = graphs["p2"], graphs["q2"]
    universe = Composition(client, server).build_universe(
        [PairState(client.initial, server.initial)], DEFAULT_MAX_PAIRS
    )
    assert out_path.read_bytes() == to_dot(universe).encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [["check", "{file}", "p1", "{file}", "q1"], ["matrix", "{dir}"]],
    ids=["check", "matrix"],
)
def test_human_output_under_an_ascii_locale(argv, corpus_dir):
    # "‖", "✓" and "✗" reach stdout backslash-escaped instead of raising
    paths = {"file": str(Path(corpus_dir) / "examples.bc"), "dir": corpus_dir}
    done = run_under_an_ascii_locale(*[arg.format(**paths) for arg in argv])
    assert b"Traceback" not in done.stderr, done.stderr
    assert done.returncode == 1  # some relation fails on the corpus
    assert "p1 ‖ q1" in done.stdout.decode("unicode_escape")


def test_matrix_columns_line_up_under_an_ascii_locale(corpus_dir):
    # the escaped marks and "‖" are wider than the characters they stand
    # for; every cell must still end where its header ends
    done = run_under_an_ascii_locale("matrix", corpus_dir)
    assert done.returncode == 1, done.stderr
    header, *rows = done.stdout.decode("ascii").splitlines()[:5]
    assert "\\u2713" in rows[0]

    def token_ends(line):
        return [m.end() for m in re.finditer(r"\S+", line)]

    columns = token_ends(header)[1:]
    assert len(columns) == 6
    for row in rows:
        assert token_ends(row)[3:] == columns  # after "p1", "\\u2016", "q1"


# -- garbage ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{file}", "p1", "{file}", "q1"],
        ["matrix", "{dir}"],
        ["verify-propositions", "{dir}", "--random", "5", "--seed", "1"],
        ["dot", "{file}", "p2", "{file}", "q2", "{out}"],
        ["check", "{file}", "nope", "{file}", "q1"],
    ],
    ids=["check", "matrix", "verify", "dot", "unknown-contract"],
)
def test_warm_human_commands_leave_no_cyclic_garbage(argv, corpus_dir, tmp_path):
    # one parser per process, and every call's state is freed by reference
    # counting when main returns
    paths = {"file": str(Path(corpus_dir) / "examples.bc"), "dir": corpus_dir,
             "out": str(tmp_path / "u.dot")}
    argv = [arg.format(**paths) for arg in argv]
    code = run_quietly(argv)[0]
    gc.collect()
    gc.disable()
    try:
        assert run_quietly(argv)[0] == code
        assert gc.collect() == 0
    finally:
        gc.enable()
