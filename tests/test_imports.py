"""What ``bcc`` exports, and which modules each command loads."""

import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bcc
from bcc import lang

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = str(ROOT / "corpus" / "examples.bc")

# the names ``bcc`` exports, by the module that defines each
EXPORTS = {
    "composition": "DEFAULT_MAX_PAIRS Composition PairState PairUniverse to_dot",
    "errors": "BccError DuplicateNameError IllFormedError InvalidPairError "
    "PairExplosionError ParseError StateExplosionError UniverseMismatchError "
    "UnknownStateError",
    "fixpoint": "Classification PairSet classify compliance_step greatest_fixpoint "
    "least_fixpoint restrict",
    "generator": "GenConfig SplitMix64 random_contract random_pairs",
    "lang": "DEFAULT_MAX_STATES Violation",
    "terms": "Choice ContractDef Nil Prefix Rec Term Var compile_term parse "
    "parse_term pretty well_formed",
    "lts": "INPUT INTERNAL OUTPUT TAU BarbSet ContractGraph Label inp merge_graphs out",
    "propositions": "INCLUSIONS PropositionReport relation_sets verify_universe",
    "relations": "ALL_RELATIONS RelationKind Verdict evaluate holding_indices "
    "verdict_at",
}
HOMES = [(name, home) for home, names in EXPORTS.items() for name in names.split()]
VERIFY_ONLY = ("bcc.fixpoint", "bcc.generator", "bcc.propositions", "bcc.terms")


def test_bcc_exports_each_name_as_the_object_its_module_defines():
    assert len(HOMES) == 59
    assert sorted(bcc.__all__) == sorted(name for name, _ in HOMES)
    for name, home in HOMES:
        assert getattr(bcc, name) is getattr(import_module(f"bcc.{home}"), name)
    for home in EXPORTS:
        assert bcc.__getattr__(home) is import_module(f"bcc.{home}")
    for name in EXPORTS["terms"].split():
        assert getattr(lang, name) is getattr(bcc, name)
    assert set(bcc.__all__) <= set(dir(bcc))
    star = {}
    exec("from bcc import *", star)
    assert set(star) - {"__builtins__"} == set(bcc.__all__)


def test_bcc_and_lang_reject_an_unknown_name():
    for module in (bcc, lang):
        unknown = f"module '{module.__name__}' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=unknown):
            module.no_such_name


def test_a_term_pickled_from_lang_still_loads():
    # ContractDef(p = rec X.(?a.X + !b.0)), pickled when the Term classes
    # were defined in bcc.lang
    written = (
        b'\x80\x02cbcc.lang\nContractDef\n'
        b'q\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00nameq\x03X\x01\x00'
        b'\x00\x00pq\x04X\x04\x00\x00\x00termq\x05cbcc.lan'
        b'g\nRec\nq\x06)\x81q\x07}q\x08(X\x03\x00\x00\x00var'
        b'q\tX\x01\x00\x00\x00Xq\nX\x04\x00\x00\x00bodyq\x0bcbc'
        b'c.lang\nChoice\nq\x0c)\x81q\r}q\x0e('
        b'X\x04\x00\x00\x00leftq\x0fcbcc.lang\nPre'
        b'fix\nq\x10)\x81q\x11}q\x12(X\x05\x00\x00\x00label'
        b'q\x13cbcc.lts\n_shared_label'
        b'\nq\x14K\x01X\x01\x00\x00\x00aq\x15\x86q\x16\x85q\x17Rq\x18h\x0b'
        b'cbcc.lang\nVar\nq\x19)\x81q\x1a}q\x1bh'
        b'\x03h\nsbubX\x05\x00\x00\x00rightq\x1ch\x10)\x81q'
        b'\x1d}q\x1e(h\x13h\x14K\x02X\x01\x00\x00\x00bq\x1f\x86q \x85q'
        b'!Rq"h\x0bcbcc.lang\nNil\nq#)\x81'
        b'q$ubububX\x04\x00\x00\x00lineq%K\x01ub.'
    )
    assert pickle.loads(written) == bcc.parse("p = rec X.(?a.X + !b.0)")[0]


def loaded_modules(argv) -> set:
    """Every module, ``bcc``'s and the standard library's, loaded by ``import
    bcc.cli`` and ``main(argv)`` in a fresh interpreter.  It runs under
    ``-S``: the ``.pth`` files that ``site`` reads may load modules of their
    own, ``typing`` among them, before any ``bcc`` code runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = "import sys, bcc.cli; bcc.cli.main(sys.argv[1:]); print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


COMMANDS = {
    "check": ["check", EXAMPLES, "p1", EXAMPLES, "q1", "--json"],
    "matrix": ["matrix", str(ROOT / "corpus"), "--json"],
    "dot": ["dot", EXAMPLES, "p1", EXAMPLES, "q1", os.devnull],
    "verify": ["verify-propositions", str(ROOT / "corpus"), "--json"],
}
# standard-library modules that cost more to import than a command's own work
# on a small input, and that no command but ``verify-propositions --random``
# needs: the random pairs are drawn as ``terms`` dataclasses
HEAVY = ("dataclasses", "inspect", "typing")


@pytest.mark.parametrize("command", ["check", "matrix", "dot"])
def test_check_matrix_and_dot_load_no_verify_only_module(command):
    loaded = loaded_modules(COMMANDS[command])
    assert "bcc.relations" in loaded
    assert loaded.isdisjoint(VERIFY_ONLY)


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_without_random_pairs_load_no_heavy_stdlib_module(command):
    loaded = loaded_modules(COMMANDS[command])
    assert "bcc.lts" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded.intersection(HEAVY))


def test_verify_propositions_loads_the_term_modules_only_for_random_pairs():
    loaded = loaded_modules(COMMANDS["verify"])
    assert {"bcc.fixpoint", "bcc.propositions"} <= loaded
    assert loaded.isdisjoint({"bcc.generator", "bcc.terms"})


def test_verify_propositions_loads_the_verify_only_modules():
    argv = ["verify-propositions", str(ROOT / "corpus"), "--random", "3"]
    assert loaded_modules(argv).issuperset(VERIFY_ONLY)
