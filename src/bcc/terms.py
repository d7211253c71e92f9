"""The contract term tree: the ``Term`` classes, ``parse`` and ``parse_term``,
the pretty-printer, well-formedness and ``compile_term``.

``lang`` owns the text -> rows -> graph pipeline that the command line runs:
the tokenizer, the parser, which writes a definition's rows with no
``Term`` (``lang._term``), and the compiler (``lang._TermTable`` and
``lang._add``).  This module builds ``Term``s from those rows and rows from
``Term``s, so ``check``, ``matrix`` and ``dot`` never load it.  ``lang``
forwards every name defined here, so imports from ``bcc.lang`` and pickles
of terms written before the split keep working.

Terms are immutable and compare structurally, so parsed and generated terms
share what they can: one ``Label`` per action (``lts.inp`` and ``lts.out``),
the one ``NIL``, and one node per distinct subterm of a parsed definition.
Rows hold each label as its ``lts`` code, and two functions bridge
``Label``s and rows: ``_built``, which builds the ``Term``s of ``parse``
and ``parse_term`` from the parser's rows, one row at a time, with the
shared ``Label`` of each code, and ``_intern``, which writes the rows, one
code per label, that ``compile_term`` compiles for a closed guarded
``Term``.  ``well_formed`` walks an explicit stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .lang import (
    _CHOICE,
    _NIL,
    _PREFIX,
    _REC,
    _VAR,
    DEFAULT_MAX_STATES,
    Violation,
    _add,
    _definitions,
    _end,
    _lines,
    _term,
    _tokenize,
)
from .lts import _LABELS, ContractGraph, Label, _label_code, _Union


class Term:
    """Abstract contract syntax."""

    __slots__ = ()


@dataclass(frozen=True)
class Nil(Term):
    pass


NIL = Nil()  # the one the parser and the generator build terms with


@dataclass(frozen=True)
class Prefix(Term):
    label: Label
    body: Term


@dataclass(frozen=True)
class Choice(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Rec(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class ContractDef:
    name: str
    term: Term
    line: int = 0


# -- parsing -------------------------------------------------------------


def _built(rows: tuple, root: int) -> Term:
    """The term of row ``root`` of some rows (see ``lang._term``), built one
    row at a time, children first."""
    terms = []
    for r in rows:
        op = r[0]
        if op == _PREFIX:
            terms.append(Prefix(_LABELS[r[1]], terms[r[2]]))
        elif op == _CHOICE:
            terms.append(Choice(terms[r[1]], terms[r[2]]))
        elif op == _REC:
            terms.append(Rec(r[1], terms[r[2]]))
        else:
            terms.append(Var(r[1]) if op == _VAR else NIL)
    return terms[root]


def parse_term(text: str) -> Term:
    """Parse a single term (each line end is treated as a space)."""
    line = (" ".join(_lines(text)), 1)
    tokens = _tokenize(*line)
    (rows, root, _), pos = _term(line, tokens, 0)
    _end(line, tokens, pos, "term")
    return _built(rows, root)


def parse(text: str) -> list:
    """Parse a contract file into its definitions, in source order.  One
    leading byte-order mark is dropped."""
    defs = _definitions(text)
    return [ContractDef(name, _built(*rows[:2]), line) for name, line, rows in defs]


# -- pretty-printer ------------------------------------------------------


def _pp(t: Term) -> tuple:
    """Render a term; the flag marks text ending in an open rec body,
    which would swallow a following '+' on re-parse."""
    if isinstance(t, Nil):
        return "0", False
    if isinstance(t, Var):
        return t.name, False
    if isinstance(t, Rec):
        body, _ = _pp(t.body)
        return f"rec {t.var}.{body}", True
    if isinstance(t, Prefix):
        body, open_rec = _pp(t.body)
        if isinstance(t.body, Choice):
            body, open_rec = f"({body})", False
        return f"{t.label}.{body}", open_rec
    if isinstance(t, Choice):
        left, left_open = _pp(t.left)
        if left_open:
            left = f"({left})"
        right, right_open = _pp(t.right)
        if isinstance(t.right, Choice):
            right, right_open = f"({right})", False
        return f"{left} + {right}", right_open
    raise TypeError(f"not a term: {t!r}")


def pretty(t: Term) -> str:
    """Concrete syntax for a term; parse(pretty(t)) == t."""
    return _pp(t)[0]


# -- well-formedness -----------------------------------------------------


def well_formed(t: Term) -> list:
    """Closedness and guardedness violations, in discovery order (empty = ok)."""
    found = {}
    stack = [(t, frozenset(), frozenset())]
    while stack:
        t, bound, unguarded = stack.pop()
        if isinstance(t, Var):
            if t.name not in bound:
                found.setdefault(Violation("unbound-variable", t.name))
            elif t.name in unguarded:
                found.setdefault(Violation("unguarded-recursion", t.name))
        elif isinstance(t, Prefix):
            stack.append((t.body, bound, frozenset()))
        elif isinstance(t, Choice):
            stack.append((t.right, bound, unguarded))  # so the left is seen first
            stack.append((t.left, bound, unguarded))
        elif isinstance(t, Rec):
            stack.append((t.body, bound | {t.var}, unguarded | {t.var}))
    return list(found)


# -- compilation ---------------------------------------------------------


def _intern(table, t: Term) -> int:
    """The id of the row of a term in a ``lang._TermTable``, its subterms'
    rows written first."""
    if isinstance(t, Prefix):
        code = _label_code(t.label.kind, t.label.name)
        return table.row((_PREFIX, code, _intern(table, t.body)))
    if isinstance(t, Choice):
        return table.row((_CHOICE, _intern(table, t.left), _intern(table, t.right)))
    if isinstance(t, Rec):
        return table.row((_REC, t.var, _intern(table, t.body)))
    return 0 if isinstance(t, Nil) else table.row((_VAR, t.name))


def _rows(term: Term) -> tuple:
    """The rows of a term, as the parser writes them (see ``lang._term``);
    the term is interned only when it is closed and guarded, so a deep
    ill-formed term gives its violations."""
    table = lang._TermTable(((_NIL,),))
    violations = tuple(well_formed(term))
    return table.rows, 0 if violations else _intern(table, term), violations


def compile_term(
    term: Term, max_states: int = DEFAULT_MAX_STATES, *, name: str = ""
) -> ContractGraph:
    """Compile a closed guarded term to its transition graph.

    States are the reachable one-step unfoldings of the term, hash-consed,
    numbered in BFS discovery order; the terminal state (when reachable)
    always receives id 0.  Transition-free terms (0 itself, but also e.g.
    0 + 0) all collapse onto the terminal state, keeping it the unique sink.
    More than ``max_states`` states, the initial one included, raise
    StateExplosionError.
    """
    return _add(_Union(), _rows(term), max_states, name).graph(name)[0]
