"""Textual contract language: parsing, well-formedness, compilation.

Grammar (one definition per line, '#' starts a comment):

    def     := NAME "=" term
    term    := item { "+" item }
    item    := "rec" VAR "." term | prefix "." item | atom
    prefix  := "tau" | "?" NAME | "!" NAME
    atom    := "0" | VAR | "(" term ")"

Prefix binds tighter than "+"; "rec" extends to the right as far as
possible.  "tau" and "rec" are reserved words.

A line is tokenized whole, by one ``findall`` of a lexeme regex built from
the name rule, into plain strings; a bad character is the regex's catch-all
lexeme, so it wins over any syntax error.  A token's column is worked out,
from the same regex, only for an error message.  The line is then parsed by
one loop, not one call per grammar rule: a stack holds the enclosing open
"(" and "rec X." bodies, each with its rec variable, the prefixes pending on
its item and its left operand, so parenthesis depth is bounded by memory
alone.  ``well_formed`` walks an explicit stack too.

Terms are immutable and compare structurally, so parsed and generated terms
share what they can: one ``Label`` per action (``lts.inp`` and ``lts.out``)
and the one ``NIL``.

Compilation interns terms into a table local to each call: one plain tuple
of ints, strs and ``(kind, name)`` labels per distinct term, so each
unfolding is hashed once, in C, and equal terms share one integer id; no
``Term`` or ``Label`` is hashed or compared, and only the emitted rows hold
the shared ``Label`` objects.  Substitution recurses once per nesting level,
as interning does.  The table is one object that nothing refers back to, so
it is freed when the call returns; walks are its methods or module-level
functions, never closures that call themselves, which would tie a reference
cycle.  The compiler emits each state's canonical out-edge row itself,
sorted and deduplicated, and hands the rows to ``ContractGraph._from_rows``:
no edge list is built, sorted or validated again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    DuplicateNameError,
    IllFormedError,
    ParseError,
    StateExplosionError,
)
from .lts import TAU, ContractGraph, Label, _shared_label, discover, inp, out

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

# one lexeme after optional blanks: a name (or reserved word), "0", a
# punctuation mark, or a bad character together with the rest of the line,
# so that a bad character can only be the last lexeme
_PUNCT = "?!.+()="
_LEXEME_RE = re.compile(
    rf"[ \t]*({_NAME_RE.pattern}|[0{re.escape(_PUNCT)}]|[^ \t].*)", re.DOTALL
)
# the lexemes that are neither "0" nor a name, with "" for the end of a line
_SYMBOLS = frozenset(_PUNCT) | frozenset(_RESERVED) | {""}
_NOT_NAMES = _SYMBOLS | {"0"}


def _tokenize(text: str, line_no: int) -> list:
    """The lexemes of one line, then "" for its end."""
    tokens = _LEXEME_RE.findall(text)
    last = tokens[-1] if tokens else ""
    if last not in _NOT_NAMES and not _NAME_RE.match(last):
        column = len(text) - len(last) + 1
        raise ParseError(f"unexpected character {last[0]!r}", line_no, column)
    tokens.append("")
    return tokens


def _column(text: str, pos: int) -> int:
    """The column of lexeme ``pos`` of the line ``text``, or of its end:
    worked out only for an error message."""
    for i, m in enumerate(_LEXEME_RE.finditer(text)):
        if i == pos:
            return m.start(1) + 1
    return len(text) + 1


def _fail(line, tokens, pos, what) -> ParseError:
    text, line_no = line
    found = tokens[pos] or "end of line"
    return ParseError(f"expected {what}, found {found!r}", line_no, _column(text, pos))


def _end(line, tokens, pos, what) -> None:
    if tokens[pos]:
        text, line_no = line
        message = f"unexpected {tokens[pos]!r} after {what}"
        raise ParseError(message, line_no, _column(text, pos))


def _term(line, tokens, pos) -> tuple:
    """The term starting at ``tokens[pos]`` and the position after it;
    ``line`` is the (text, number) of the line, read only on an error."""
    frames = []  # the open "(" and "rec X." bodies around the current one
    var, prefixes, left = None, [], None
    while True:
        text = tokens[pos]
        pos += 1
        if text not in _SYMBOLS:  # "0" or a name
            t = NIL if text == "0" else Var(text)
            while True:  # t completes an item of the current frame
                for label in reversed(prefixes):
                    t = Prefix(label, t)
                prefixes, left = [], t if left is None else Choice(left, t)
                if tokens[pos] == "+":
                    pos += 1
                    break
                if not frames:
                    return left, pos
                if var is not None:
                    t = Rec(var, left)
                elif tokens[pos] == ")":
                    pos, t = pos + 1, left
                else:
                    raise _fail(line, tokens, pos, "')'")
                var, prefixes, left = frames.pop()
            continue
        name = None
        if text in ("rec", "tau", "?", "!"):  # "rec X.", "tau.", "?a." or "!a."
            if text != "tau":
                if tokens[pos] in _NOT_NAMES:
                    what = "a recursion variable" if text == "rec" else "an action name"
                    raise _fail(line, tokens, pos, what)
                name, pos = tokens[pos], pos + 1
            if tokens[pos] != ".":
                raise _fail(line, tokens, pos, "'.'")
            pos += 1
            if text != "rec":
                label = TAU if name is None else inp(name) if text == "?" else out(name)
                prefixes.append(label)
                continue
        elif text != "(":
            raise _fail(line, tokens, pos - 1, "a term")
        frames.append((var, prefixes, left))
        var, prefixes, left = name, [], None


def _lines(text: str) -> list:
    r"""The lines of a text: a line ends at "\n", "\r\n" or a lone "\r", as in
    editors and text-mode reads, and at no other character."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_term(text: str) -> Term:
    """Parse a single term (each line end is treated as a space)."""
    line = (" ".join(_lines(text)), 1)
    tokens = _tokenize(*line)
    t, pos = _term(line, tokens, 0)
    _end(line, tokens, pos, "term")
    return t


def parse(text: str) -> list:
    """Parse a contract file into its definitions, in source order.  One
    leading byte-order mark is dropped."""
    defs = []
    first_line = {}
    for line_no, raw in enumerate(_lines(text.removeprefix("\ufeff")), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        line = (stripped, line_no)
        tokens = _tokenize(stripped, line_no)
        if tokens[0] in _NOT_NAMES:
            raise _fail(line, tokens, 0, "a contract name")
        if tokens[1] != "=":
            raise _fail(line, tokens, 1, "'='")
        term, pos = _term(line, tokens, 2)
        _end(line, tokens, pos, "definition")
        name = tokens[0]
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


# the constructor codes of term-table rows
_NIL, _VAR, _PREFIX, _CHOICE, _REC = range(5)


class _TermTable:
    """The term table of one compile: plain-tuple rows <-> int ids, with
    ``subst`` and ``transitions`` memoised on ids.  A row is ``(_NIL,)``
    (always id 0), ``(_VAR, name)``, ``(_PREFIX, (kind, name), child)``,
    ``(_CHOICE, left, right)`` or ``(_REC, var, body)``: ints, strs and
    labels as ``(kind, name)`` tuples, which hash and compare in C and sort
    as ``Label`` does."""

    def __init__(self):
        self.rows = [(_NIL,)]
        self.ids = {(_NIL,): 0}
        self.substituted = {}
        self.moves = {}

    def row(self, r: tuple) -> int:
        n = len(self.rows)
        u = self.ids.setdefault(r, n)
        if u == n:
            self.rows.append(r)
        return u

    def intern(self, t: Term) -> int:
        if isinstance(t, Prefix):
            lab = t.label
            return self.row((_PREFIX, (lab.kind, lab.name), self.intern(t.body)))
        if isinstance(t, Choice):
            return self.row((_CHOICE, self.intern(t.left), self.intern(t.right)))
        if isinstance(t, Rec):
            return self.row((_REC, t.var, self.intern(t.body)))
        return 0 if isinstance(t, Nil) else self.row((_VAR, t.name))

    def subst(self, u: int, rec: int, var: str) -> int:
        """Row u with ``var``, bound by Rec row ``rec``, replaced by it."""
        r = self.rows[u]
        op = r[0]
        if op == _VAR:
            return rec if r[1] == var else u
        if op == _NIL or (op == _REC and r[1] == var):
            return u  # no variable to replace, or shadowed
        done = self.substituted.get((u, rec))
        if done is None:
            if op == _CHOICE:
                left = self.subst(r[1], rec, var)
                done = self.row((_CHOICE, left, self.subst(r[2], rec, var)))
            else:
                done = self.row((op, r[1], self.subst(r[2], rec, var)))
            self.substituted[u, rec] = done
        return done

    def transitions(self, u: int) -> tuple:
        """Initial (label, target id) moves, deduplicated, ordered by label."""
        r = self.rows[u]
        op = r[0]
        if op == _PREFIX:
            return ((r[1], r[2]),)
        if op == _NIL or op == _VAR:
            return ()
        moves = self.moves.get(u)
        if moves is None:
            if op == _CHOICE:
                both = self.transitions(r[1]) + self.transitions(r[2])
                # stable on the label alone: the order of the targets of one
                # label is the discovery order of the states
                moves = tuple(sorted(dict.fromkeys(both), key=itemgetter(0)))
            else:
                moves = self.transitions(self.subst(r[2], u, r[1]))
            self.moves[u] = moves
        return moves


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
    transitions = table.transitions

    def successors(u):
        return [v if transitions(v) else 0 for _, v in transitions(u)]

    root = table.intern(term)
    root = root if transitions(root) else 0
    record = {}
    if not discover(record, (root,), successors, max_states):
        raise StateExplosionError(
            f"more than {max_states} states while compiling"
            + (f" {name!r}" if name else "")
        )

    # the terminal row (id 0) first, then discovery order (the sort is stable)
    order = sorted(record, key=bool)
    number = {u: i for i, u in enumerate(order)}
    rows = []
    for u in order:
        moves, targets = transitions(u), record[u]
        if len(moves) == 1:
            rows.append(((_shared_label(moves[0][0]), number[targets[0]]),))
            continue
        # ordered by label, but not by target, and two moves may both
        # collapse onto the terminal state, as in !a.0 + !a.(0 + 0)
        row = sorted({(lab, number[v]) for (lab, _), v in zip(moves, targets)})
        rows.append(tuple([(_shared_label(lab), v) for lab, v in row]))
    zero = 0 if 0 in number else None
    return ContractGraph._from_rows(len(order), number[root], tuple(rows), zero, name)
