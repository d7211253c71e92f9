"""Textual contract language: from contract text to rows to graphs.

This module owns the pipeline that every command runs: the tokenizer, the
parser, which writes rows and no ``Term``, the closedness and guardedness
``Violation``s it finds, and the compiler (``_TermTable`` and ``_add``).
The ``Term`` tree and what reads or builds it (``parse``, ``parse_term``,
``pretty``, ``well_formed``, ``compile_term``) live in ``terms``, which
``check``, ``matrix`` and ``dot`` never import; every one of those names
is still importable from here.

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
one loop, not one call per grammar rule, straight into the rows that the
compiler works on (``_TermTable``): a stack holds the enclosing open "(" and
"rec X." bodies, each with its rec variable, where its pending prefixes
start and its left operand, so nesting depth is bounded by memory alone.
As it reads a variable, the loop records the definition's closedness and
guardedness violations: a variable is bound if an open "rec" binds it, and
unguarded if no prefix is pending between its innermost binder and it.  So
the command line builds no ``Term`` and walks no term before compiling.

A compile starts from a term's rows, one plain tuple of ints and strs per
distinct subterm, children first, with each label as its int code
(``lts._label_code``): the parser's rows of a definition, or, in
``terms.compile_term``, the rows that ``terms._intern`` writes for a closed
guarded ``Term``.  It adds the rows that unfolding makes, so each unfolding
is hashed once, in C, and equal terms share one integer id; no ``Term`` or
``Label`` is hashed or compared.  Moves and emitted rows are sorted by
label with the keys of ``lts`` (``_move_order``, ``_canonical``), so the
label order is written once, and a move's code goes into its row as it is.
Substitution and move collection recurse once per nesting level, as
interning does.  The table is one object that nothing refers
back to, so it is freed when the compile returns; walks are its methods or
module-level functions, never closures that call themselves, which would
tie a reference cycle.  The compiler's one BFS numbers each state when it
discovers it and emits the state's canonical out-edge row, sorted and
deduplicated, when it expands it, as a block of a union of graphs
(``lts._Union``), numbered as ``merge_graphs`` numbers the union of their
graphs: ``verify-propositions`` compiles each side of each pair straight
into that side's merged graph, and a graph of its own is a union of one.
No edge list is built, sorted or validated again.
"""

from __future__ import annotations

import re

from .errors import (
    DuplicateNameError,
    IllFormedError,
    ParseError,
    StateExplosionError,
)
from .lts import (
    INPUT, INTERNAL, OUTPUT, _canonical, _label_code, _move_order, _Record, _Union
)

DEFAULT_MAX_STATES = 1024

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = ("tau", "rec")


class Violation(_Record):
    __match_args__ = ("kind", "var")

    def __init__(self, kind: str, var: str):
        # kind: "unbound-variable" | "unguarded-recursion"
        self._fill(kind, var)

    def __str__(self) -> str:
        return f"{self.kind}: {self.var}"


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


# the label kind of each prefix
_KINDS = {"tau": INTERNAL, "?": INPUT, "!": OUTPUT}


def _term(line, tokens, pos) -> tuple:
    """The rows of the term starting at ``tokens[pos]``, and the position
    after the term; ``line`` is the (text, number) of the line, read only on
    an error.  The rows of a term are a tuple of one ``_TermTable`` row per
    distinct subterm, in id order, so children come first, the id of the
    term, and its closedness and guardedness violations, in the order their
    variables are read."""
    ids = {(_NIL,): 0}  # row -> id, in id order
    intern = ids.setdefault
    found = {}  # the violations, in the order their variables are read
    binders = {}  # var -> len(prefixes) at each open "rec var.", innermost last
    prefixes = []  # the pending prefixes of every open body, from the outside
    frames = []  # the open "(" and "rec X." bodies around the current one
    var, mark, left = None, 0, None  # prefixes[mark:] are the current body's
    while True:
        text = tokens[pos]
        pos += 1
        if text not in _SYMBOLS:  # "0" or a name
            t = 0
            if text != "0":
                opened = binders.get(text)
                if not opened:
                    found.setdefault(Violation("unbound-variable", text))
                elif opened[-1] == len(prefixes):  # no prefix since its binder
                    found.setdefault(Violation("unguarded-recursion", text))
                t = intern((_VAR, text), len(ids))
            while True:  # t completes an item of the current body
                while len(prefixes) > mark:
                    t = intern((_PREFIX, prefixes.pop(), t), len(ids))
                left = t if left is None else intern((_CHOICE, left, t), len(ids))
                if tokens[pos] == "+":
                    pos += 1
                    break
                if not frames:
                    return (tuple(ids), left, tuple(found)), pos
                if var is not None:
                    t = intern((_REC, var, left), len(ids))
                    binders[var].pop()
                elif tokens[pos] == ")":
                    pos, t = pos + 1, left
                else:
                    raise _fail(line, tokens, pos, "')'")
                var, mark, left = frames.pop()
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
                prefixes.append(_label_code(_KINDS[text], name))
                continue
            binders.setdefault(name, []).append(len(prefixes))
        elif text != "(":
            raise _fail(line, tokens, pos - 1, "a term")
        frames.append((var, mark, left))
        var, mark, left = name, len(prefixes), None


def _lines(text: str) -> list:
    r"""The lines of a text: a line ends at "\n", "\r\n" or a lone "\r", as in
    editors and text-mode reads, and at no other character."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _definitions(text: str) -> list:
    """The name, line number and rows (see ``_term``) of each definition of
    a contract file, in source order.  One leading byte-order mark is
    dropped."""
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
        rows, pos = _term(line, tokens, 2)
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
        defs.append((name, line_no, rows))
    return defs


# -- compilation ---------------------------------------------------------


# the constructor codes of term-table rows
_NIL, _VAR, _PREFIX, _CHOICE, _REC = range(5)


class _TermTable:
    """The term table of one compile: plain-tuple rows <-> int ids, with
    ``subst`` and ``transitions`` memoised on ids.  A row is ``(_NIL,)``
    (always id 0), ``(_VAR, name)``, ``(_PREFIX, code, child)``,
    ``(_CHOICE, left, right)`` or ``(_REC, var, body)``: ints and strs,
    which hash and compare in C, with a label as its ``lts`` code.  A
    child's id is below its parent's.  A compile
    starts from the rows that the parser wrote (see ``_term``) and adds the
    rows that unfolding makes.  In a compile only ``subst`` adds rows, so
    the row -> id dict is built on the first ``row`` call, and a term
    without ``rec`` never builds it."""

    def __init__(self, rows):
        self.rows, self.ids = list(rows), None
        self.substituted, self.moves = {}, {}

    def row(self, r: tuple) -> int:
        rows, ids = self.rows, self.ids
        if ids is None:
            ids = self.ids = dict(zip(rows, range(len(rows))))
        n = len(rows)
        u = ids.setdefault(r, n)
        if u == n:
            rows.append(r)
        return u

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
        """Initial (label code, target id) moves, deduplicated, ordered by
        label (``lts._move_order``)."""
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
                moves = tuple(sorted(dict.fromkeys(both), key=_move_order))
            else:
                moves = self.transitions(self.subst(r[2], u, r[1]))
            self.moves[u] = moves
        return moves


def _add(union: _Union, term_rows: tuple, max_states: int, name: str = "") -> _Union:
    """Compile a term from its rows (see ``_term``), as ``terms.compile_term``
    does, into the next block of a union, and return the union; the term's
    terminal state is the union's success state.  An ill-formed term raises
    IllFormedError.

    One BFS numbers and emits the states: a non-terminal state gets the
    next union id when it is discovered, so ids follow discovery order, and
    its row is appended when it is expanded; every transition-free term is
    the terminal state, id 0.  More than ``max_states`` states, the terminal
    one included, raise StateExplosionError and leave the union as it was."""
    rows, root, violations = term_rows
    if violations:
        raise IllFormedError(violations)
    transitions = _TermTable(rows).transitions
    out_rows = union.rows
    start = len(out_rows)
    moves = transitions(root)
    terminal = not moves
    number = {root: 0 if terminal else start}  # term id -> union id
    queue = [moves] if moves else []  # the moves of each non-terminal state, by id
    for moves in queue:  # grows as the BFS discovers states
        if len(queue) + terminal > max_states:
            break
        targets = []
        for _, v in moves:
            t = number.get(v)
            if t is None:
                found = transitions(v)
                if found:
                    t = number[v] = start + len(queue)
                    queue.append(found)
                else:
                    t = number[v] = 0
                    terminal = True
            targets.append(t)
        if len(moves) == 1:
            out_rows.append(((moves[0][0], targets[0]),))
        else:
            # ordered by label, but not by target, and two moves may both
            # collapse onto the terminal state, as in !a.0 + !a.(0 + 0)
            out_rows.append(_canonical({(m[0], t) for m, t in zip(moves, targets)}))
    if len(queue) + terminal > max_states:
        del out_rows[start:]
        named = f" {name!r}" if name else ""
        raise StateExplosionError(f"more than {max_states} states while compiling{named}")
    union.initials.append(number[root])
    if terminal:
        union.zero = 0
    return union


# the Term tree lives in ``terms``, which the command line's check, matrix
# and dot never load; its names stay importable from here, and pickles of
# terms written when it lived here still load
_IN_TERMS = frozenset(
    "Term Nil NIL Prefix Choice Rec Var ContractDef parse parse_term pretty "
    "well_formed compile_term _built _rows".split()
)


def __getattr__(name: str):
    if name in _IN_TERMS:
        from . import terms

        return getattr(terms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
