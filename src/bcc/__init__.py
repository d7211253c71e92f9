"""Compliance relations between behavioural contracts on finite labelled
transition systems, with fixed-point verification of their structure."""

__version__ = "0.1.0"

from .composition import (
    DEFAULT_MAX_PAIRS,
    Composition,
    PairState,
    PairUniverse,
    to_dot,
)
from .errors import (
    BccError,
    DuplicateNameError,
    IllFormedError,
    InvalidPairError,
    PairExplosionError,
    ParseError,
    StateExplosionError,
    UniverseMismatchError,
    UnknownStateError,
)
from .fixpoint import (
    Classification,
    PairSet,
    classify,
    compliance_step,
    greatest_fixpoint,
    least_fixpoint,
    restrict,
)
from .generator import GenConfig, SplitMix64, random_contract, random_pairs
from .lang import (
    DEFAULT_MAX_STATES,
    Choice,
    ContractDef,
    Nil,
    Prefix,
    Rec,
    Term,
    Var,
    Violation,
    compile_term,
    parse,
    parse_term,
    pretty,
    well_formed,
)
from .lts import (
    INPUT,
    INTERNAL,
    OUTPUT,
    TAU,
    BarbSet,
    ContractGraph,
    Label,
    inp,
    merge_graphs,
    out,
)
from .propositions import INCLUSIONS, PropositionReport, relation_sets, verify_universe
from .relations import (
    ALL_RELATIONS,
    RelationKind,
    Verdict,
    evaluate,
    holding_indices,
    verdict_at,
)
