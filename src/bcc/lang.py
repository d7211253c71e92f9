"""Textual contract language: parsing, well-formedness, compilation.

Grammar (one definition per line, '#' starts a comment):

    def     := NAME "=" term
    term    := item { "+" item }
    item    := "rec" VAR "." term | prefix "." item | atom
    prefix  := "tau" | "?" NAME | "!" NAME
    atom    := "0" | VAR | "(" term ")"

Prefix binds tighter than "+"; "rec" extends to the right as far as
possible.  "tau" and "rec" are reserved words.

A line is tokenized whole, so a bad character wins over any syntax error,
and then parsed by one loop, not one call per grammar rule: a stack holds
the enclosing open "(" and "rec X." bodies, each with its rec variable, the
prefixes pending on its item and its left operand, so parenthesis depth is
bounded by memory alone.  ``well_formed`` walks an explicit stack too.

Terms are immutable and compare structurally, so parsed and generated terms
share what they can: one ``Label`` per action (``lts.inp`` and ``lts.out``)
and the one ``NIL``.

Compilation interns terms into a table local to each call: a row
(constructor, label | variable | name, child ids) per distinct term, so each
unfolding is hashed once and equal terms share one integer id.  The table is
one object that nothing refers back to, so it is freed when the call
returns; walks are its methods or module-level functions, never closures
that call themselves, which would tie a reference cycle.  The compiler emits
each state's canonical out-edge row itself, sorted and deduplicated, and
hands the rows to ``ContractGraph._from_rows``: no edge list is built,
sorted or validated again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    DuplicateNameError,
    IllFormedError,
    ParseError,
    StateExplosionError,
)
from .lts import TAU, ContractGraph, Label, discover, inp, out

DEFAULT_MAX_STATES = 1024

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = ("tau", "rec")


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
class Violation:
    kind: str  # "unbound-variable" | "unguarded-recursion"
    var: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.var}"


@dataclass(frozen=True)
class ContractDef:
    name: str
    term: Term
    line: int = 0


# -- tokenizer -----------------------------------------------------------


def _tokenize(text: str, line_no: int) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch == "0":
            tokens.append(("zero", "0", line_no, col))
            i += 1
        elif ch in "?!.+()=":
            tokens.append(("punct", ch, line_no, col))
            i += 1
        else:
            m = _NAME_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", line_no, col)
            word = m.group()
            kind = word if word in _RESERVED else "name"
            tokens.append((kind, word, line_no, col))
            i = m.end()
    tokens.append(("eof", "", line_no, len(text) + 1))
    return tokens


def _fail(token, what) -> ParseError:
    _, text, line, col = token
    return ParseError(f"expected {what}, found {text or 'end of line'!r}", line, col)


def _end(tokens, pos, what) -> None:
    kind, text, line, col = tokens[pos]
    if kind != "eof":
        raise ParseError(f"unexpected {text!r} after {what}", line, col)


def _term(tokens, pos) -> tuple:
    """The term starting at ``tokens[pos]`` and the position after it."""
    frames = []  # the open "(" and "rec X." bodies around the current one
    var, prefixes, left = None, [], None
    while True:
        kind, text, _, _ = tokens[pos]
        pos += 1
        if kind == "zero" or kind == "name":
            t = NIL if kind == "zero" else Var(text)
            while True:  # t completes an item of the current frame
                for label in reversed(prefixes):
                    t = Prefix(label, t)
                prefixes, left = [], t if left is None else Choice(left, t)
                if tokens[pos][1] == "+":
                    pos += 1
                    break
                if not frames:
                    return left, pos
                if var is not None:
                    t = Rec(var, left)
                elif tokens[pos][1] == ")":
                    pos, t = pos + 1, left
                else:
                    raise _fail(tokens[pos], "')'")
                var, prefixes, left = frames.pop()
            continue
        name = None
        if text in ("rec", "tau", "?", "!"):  # "rec X.", "tau.", "?a." or "!a."
            if text != "tau":
                if tokens[pos][0] != "name":
                    what = "a recursion variable" if text == "rec" else "an action name"
                    raise _fail(tokens[pos], what)
                name, pos = tokens[pos][1], pos + 1
            if tokens[pos][1] != ".":
                raise _fail(tokens[pos], "'.'")
            pos += 1
            if text != "rec":
                label = TAU if name is None else inp(name) if text == "?" else out(name)
                prefixes.append(label)
                continue
        elif text != "(":
            raise _fail(tokens[pos - 1], "a term")
        frames.append((var, prefixes, left))
        var, prefixes, left = name, [], None


def parse_term(text: str) -> Term:
    """Parse a single term (newlines are treated as spaces)."""
    tokens = _tokenize(text.replace("\n", " "), 1)
    t, pos = _term(tokens, 0)
    _end(tokens, pos, "term")
    return t


def parse(text: str) -> list:
    """Parse a contract file into its definitions, in source order."""
    defs = []
    first_line = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        tokens = _tokenize(stripped, line_no)
        if tokens[0][0] != "name":
            raise _fail(tokens[0], "a contract name")
        if tokens[1][1] != "=":
            raise _fail(tokens[1], "'='")
        term, pos = _term(tokens, 2)
        _end(tokens, pos, "definition")
        name = tokens[0][1]
        if name in first_line:
            raise DuplicateNameError(
                f"duplicate contract name {name!r} "
                f"(first defined on line {first_line[name]})",
                line_no,
                1,
            )
        first_line[name] = line_no
        defs.append(ContractDef(name, term, line_no))
    return defs


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


class _TermTable:
    """The term table of one compile: row (class, label | var | name, *child
    ids) <-> int id, with ``subst`` and ``transitions`` memoised on ids."""

    def __init__(self):
        self.rows = []
        self.ids = {}
        self.substituted = {}
        self.moves = {}
        self.nil = self.row(Nil, None)

    def row(self, *r) -> int:
        if r not in self.ids:
            self.ids[r] = len(self.rows)
            self.rows.append(r)
        return self.ids[r]

    def intern(self, t: Term) -> int:
        if isinstance(t, Prefix):
            return self.row(Prefix, t.label, self.intern(t.body))
        if isinstance(t, Choice):
            return self.row(Choice, None, self.intern(t.left), self.intern(t.right))
        if isinstance(t, Rec):
            return self.row(Rec, t.var, self.intern(t.body))
        return self.nil if isinstance(t, Nil) else self.row(Var, t.name)

    def subst(self, u: int, rec: int) -> int:
        """Row u with the variable bound by Rec row ``rec`` replaced by it."""
        cls, data, *kids = self.rows[u]
        var = self.rows[rec][1]
        if cls is Var and data == var:
            return rec
        if cls in (Nil, Var) or (cls is Rec and data == var):
            return u  # no variable to replace, or shadowed
        if (u, rec) not in self.substituted:
            kids = [self.subst(k, rec) for k in kids]
            self.substituted[u, rec] = self.row(cls, data, *kids)
        return self.substituted[u, rec]

    def transitions(self, u: int) -> tuple:
        """Initial (label, target id) moves, deduplicated, ordered by label."""
        cls, data, *kids = self.rows[u]
        if cls is Prefix:
            return ((data, kids[0]),)
        if cls is Choice and u not in self.moves:
            both = self.transitions(kids[0]) + self.transitions(kids[1])
            self.moves[u] = tuple(sorted(dict.fromkeys(both), key=lambda m: m[0]))
        elif cls is Rec and u not in self.moves:
            self.moves[u] = self.transitions(self.subst(kids[0], u))
        return self.moves.get(u, ())


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
    violations = well_formed(term)
    if violations:
        raise IllFormedError(violations)
    table = _TermTable()
    transitions, nil = table.transitions, table.nil

    def key(u):
        return nil if not transitions(u) else u

    def successors(u):
        return [key(v) for _, v in transitions(u)]

    root = key(table.intern(term))
    record = {}
    if not discover(record, (root,), successors, max_states):
        raise StateExplosionError(
            f"more than {max_states} states while compiling"
            + (f" {name!r}" if name else "")
        )

    # the terminal row first, then discovery order (the sort is stable)
    order = sorted(record, key=lambda u: u != nil)
    number = {u: i for i, u in enumerate(order)}
    rows = []
    for u in order:
        # ordered by label, but not by target, and two moves may both
        # collapse onto the terminal state, as in !a.0 + !a.(0 + 0)
        row = [(lab, number[v]) for (lab, _), v in zip(transitions(u), record[u])]
        rows.append(tuple(sorted(set(row)) if len(row) > 1 else row))
    zero = 0 if nil in number else None
    return ContractGraph._from_rows(len(order), number[root], tuple(rows), zero, name)
