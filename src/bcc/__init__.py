"""Compliance relations between behavioural contracts on finite labelled
transition systems, with fixed-point verification of their structure.

Every exported name is resolved on first use (PEP 562): ``bcc.X`` and
``from bcc import X`` import the module that defines ``X`` then, and not
before, so ``import bcc.cli`` loads only what a command runs."""

from importlib import import_module

__version__ = "0.1.0"

# each exported name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "composition": "DEFAULT_MAX_PAIRS Composition PairState PairUniverse to_dot",
        "errors": "BccError DuplicateNameError IllFormedError InvalidPairError "
        "PairExplosionError ParseError StateExplosionError UniverseMismatchError "
        "UnknownStateError",
        "fixpoint": "Classification PairSet classify compliance_step "
        "greatest_fixpoint least_fixpoint restrict",
        "generator": "GenConfig SplitMix64 random_contract random_pairs",
        "lang": "DEFAULT_MAX_STATES Violation",
        "terms": "Choice ContractDef Nil Prefix Rec Term Var compile_term parse "
        "parse_term pretty well_formed",
        "lts": "INPUT INTERNAL OUTPUT TAU BarbSet ContractGraph Label inp "
        "merge_graphs out",
        "propositions": "INCLUSIONS PropositionReport relation_sets verify_universe",
        "relations": "ALL_RELATIONS RelationKind Verdict evaluate holding_indices "
        "verdict_at",
    }.items()
    for name in names.split()
}
# ``bcc.lts`` and the like keep working after a bare ``import bcc``, as they
# did when it imported every export
_MODULES = frozenset(_HOME.values())

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
