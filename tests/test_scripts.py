import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_survey(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "relation_survey.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_relation_survey_runs():
    done = run_survey("--count", "3", "--seed", "5")
    assert done.returncode == 0, done.stderr
    assert "samples: 3" in done.stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (["--count", "0"], "--count must be positive, got 0"),
        (["--count", "-4"], "--count must be positive, got -4"),
        (["--alphabet", "a,,b"], "alphabet entry '' is not an action name"),
        (["--alphabet", "a,tau"], "alphabet entry 'tau' is not an action name"),
        (["--max-depth", "-1"], "max_depth must be non-negative"),
        (["--max-depth", "1500"], "max_depth must be at most 200"),
        (["--seed", "-1"], "seed must be a plain int in [0, 2**64), got -1"),
    ],
    ids=[
        "count-zero",
        "count-negative",
        "empty-name",
        "reserved-name",
        "depth",
        "depth-too-large",
        "seed-negative",
    ],
)
def test_relation_survey_rejects_bad_options(args, message):
    done = run_survey(*args)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_universe_probe_prints_the_tau_grid_table():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "universe_probe.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["grid", "pairs", "universe", "ms", "evaluate", "ms"]
    assert [row.split()[:2] for row in rows] == [
        ["40x45", "1887"],
        ["100x100", "10202"],
        ["200x200", "40402"],
    ]
    assert all(float(ms) > 0 for row in rows for ms in row.split()[2:])


def test_merge_probe_prints_compile_and_merge_times():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "merge_probe.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    drawn_line, file_line, parse_line, compile_line, merge_line, cli_line = lines
    assert drawn_line.startswith("collections, verify --random 2000:")
    assert file_line.startswith("collections, verify of a 2000-pair file:")
    for line in (drawn_line, file_line):
        assert len([int(n) for n in line.split(":")[1].split()]) == 3
    assert parse_line.startswith("parse 2000-pair file:")
    assert compile_line.startswith("compile 4000 terms:")
    assert merge_line.startswith("merge both sides:")
    assert cli_line.startswith("cli front end:")
    assert all(float(line.split()[-2]) > 0 for line in lines[2:])


def test_import_probe_prints_import_times_and_modules_by_command():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "import_probe.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    title, header, uncached, cached, *commands = done.stdout.splitlines()
    assert title == "import bcc.cli, 5 fresh interpreters each"
    assert header.split() == ["caches", "median", "ms", "q1", "ms", "q3", "ms"]
    for line, caches in ((uncached, "none"), (cached, "written")):
        name, *ms = line.split()
        assert name == caches and all(float(x) > 0 for x in ms)
    # each command prints its bcc modules, then which heavy stdlib ones it loads
    loaded, heavy = {}, {}
    for own, stdlib in zip(commands[::2], commands[1::2]):
        command, modules = own.split(": ")
        loaded[command] = modules.split()
        label, modules = stdlib.split(": ")
        assert label == f"{command}, of dataclasses inspect typing"
        heavy[command] = modules.split()
    assert list(loaded) == [
        "check", "matrix", "dot", "verify-propositions", "verify-propositions --random"
    ]
    assert "bcc.terms" not in loaded["check"]
    assert "bcc.terms" not in loaded["verify-propositions"]
    assert "bcc.terms" in loaded["verify-propositions --random"]
    for command in ["check", "matrix", "dot", "verify-propositions"]:
        assert heavy[command] == ["none"]
    assert "dataclasses" in heavy["verify-propositions --random"]


def test_code_lines_counts_only_code(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment-only line\n"
        "def f(a, b):\n"
        '    """A function docstring."""\n'
        "    return a + b  # a trailing comment\n"
        "\n"
        "\n"
        "print(\n"
        "    f(1, 2),\n"
        ")\n"
    )
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # def, return, and the three lines of the call
    assert done.stdout.splitlines() == [f"     5 {source}", "     5 total"]


@pytest.mark.parametrize("arg", ["nonexistent", "--help"])
def test_code_lines_rejects_a_missing_path(tmp_path, arg):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), arg],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {arg}: no such file or directory\n"
