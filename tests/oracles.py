"""Brute-force definitional evaluators used as independent test oracles.

Everything here works from raw edge lists: composition moves are re-derived
inline from the three rules, each weak fact of a state is found by a forward
search from that state, and each relation is decided by exhaustive tau-path
exploration with cycle detection.  None of the library's graph tables,
backward-reachability sets, or fixed-point machinery is used, so agreement
with the library is meaningful.

``reference_compile`` is the compiler by plain Term substitution, with the
frozen dataclasses' own structural hashing merging equal unfoldings; the
library's table of interned integer rows must produce the same graphs.

``reference_parse`` and ``reference_parse_term`` are the recursive-descent
parser, one method per grammar rule; the library's single parse loop must
return the same definitions and raise the same errors at the same positions.

``reference_universe`` is the pair universe with one ``PairState`` per pair
throughout (its successor rule, ``explore`` and universe tables); the
library's int-coded universe must number, link and classify the same pairs.
"""

import re
from collections import deque
from itertools import count

from bcc import (
    INPUT,
    OUTPUT,
    TAU,
    Choice,
    ContractGraph,
    InvalidPairError,
    Label,
    Nil,
    PairState,
    Prefix,
    Rec,
    StateExplosionError,
    Var,
    inp,
    out,
)
from bcc.errors import DuplicateNameError, ParseError
from bcc.lts import discover
from bcc.lang import DEFAULT_MAX_STATES, ContractDef, Term


def edge_targets(graph, state, label):
    return [t for (s, lab, t) in graph.edges if s == state and lab == label]


def raw_tau_targets(graph, state):
    return edge_targets(graph, state, TAU)


def dual(label):
    """?a <-> !a, from the label's own kind and name."""
    return Label(OUTPUT if label.kind == INPUT else INPUT, label.name)


def pair_moves(client, server, ps):
    """All composition moves of a pair, re-derived from the three rules."""
    c, s = ps
    moves = set()
    for src, lab, tgt in client.edges:
        if src == c:
            moves.add((lab, PairState(tgt, s)))
    for src, lab, tgt in server.edges:
        if src == s:
            moves.add((lab, PairState(c, tgt)))
    for src, lab, tgt in client.edges:
        if src == c and lab.is_visible:
            for s2 in edge_targets(server, s, dual(lab)):
                moves.add((TAU, PairState(tgt, s2)))
    return moves


def pair_tau_successors(client, server, ps):
    c, s = ps
    targets = set()
    for t in raw_tau_targets(client, c):
        targets.add(PairState(t, s))
    for t in raw_tau_targets(server, s):
        targets.add(PairState(c, t))
    for src, lab, tgt in client.edges:
        if src == c and lab.is_visible:
            for s2 in edge_targets(server, s, dual(lab)):
                targets.add(PairState(tgt, s2))
    return targets


def successful(client, ps):
    return client.zero is not None and ps.client == client.zero


def reachable_pairs(client, server, root):
    seen = {root}
    stack = [root]
    while stack:
        ps = stack.pop()
        for t in pair_tau_successors(client, server, ps):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def tau_closure_brute(graph, state):
    """States reachable from state by tau-steps (state included), by plain
    DFS."""
    seen = {state}
    stack = [state]
    while stack:
        for t in raw_tau_targets(graph, stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def weak_barbs_brute(graph, state):
    """(input names, output names) reachable after tau-steps, by plain DFS."""
    seen = {state}
    stack = [state]
    ins, outs = set(), set()
    while stack:
        s = stack.pop()
        for src, lab, tgt in graph.edges:
            if src != s:
                continue
            if lab.kind == INPUT:
                ins.add(lab.name)
            elif lab.kind == OUTPUT:
                outs.add(lab.name)
            elif tgt not in seen:
                seen.add(tgt)
                stack.append(tgt)
    return ins, outs


def diverges_brute(graph, state):
    """Pigeonhole oracle: a tau-walk of length num_states + 1 exists."""
    steps = graph.num_states + 1
    current = {state}
    for _ in range(steps):
        current = {t for s in current for t in raw_tau_targets(graph, s)}
        if not current:
            return False
    return True


def reaches_zero_brute(graph, state):
    if graph.zero is None:
        return False
    seen = {state}
    stack = [state]
    while stack:
        s = stack.pop()
        if s == graph.zero:
            return True
        for t in raw_tau_targets(graph, s):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return False


def union_brute(graphs):
    """The merge's definition built from scratch: the success states become
    state 0, every other state is numbered in component order, and the
    renumbered edges go through the validating, sorting constructor."""
    zero = 0 if any(g.zero is not None for g in graphs) else None
    fresh = count(0 if zero is None else 1)
    edges, initials = [], []
    for g in graphs:
        ids = [0 if s == g.zero else next(fresh) for s in range(g.num_states)]
        edges += [(ids[s], lab, ids[t]) for s, lab, t in g.edges]
        initials.append(ids[g.initial])
    return ContractGraph(next(fresh), initials[0], edges, zero), tuple(initials)


# -- relation oracles -------------------------------------------------------


def progress_brute(client, server, root=None):
    root = root or PairState(client.initial, server.initial)
    for ps in reachable_pairs(client, server, root):
        if not pair_tau_successors(client, server, ps) and not successful(client, ps):
            return False
    return True


def must_brute(client, server, root=None):
    """Every maximal tau-trace visits a successful pair: recursive descent
    over traces, failing on any cycle or dead end that avoids success."""
    root = root or PairState(client.initial, server.initial)
    GRAY, GOOD = 1, 2
    colour = {}

    def ok(ps):
        if successful(client, ps):
            return True
        targets = pair_tau_successors(client, server, ps)
        if not targets:
            return False
        colour[ps] = GRAY
        for t in targets:
            mark = colour.get(t)
            if mark == GRAY:
                return False
            if mark == GOOD:
                continue
            if not ok(t):
                return False
        colour[ps] = GOOD
        return True

    return ok(root)


def should_brute(client, server, root=None):
    root = root or PairState(client.initial, server.initial)
    for ps in reachable_pairs(client, server, root):
        if not any(
            successful(client, q) for q in reachable_pairs(client, server, ps)
        ):
            return False
    return True


def beh_brute(client, server, root=None):
    root = root or PairState(client.initial, server.initial)
    for ps in reachable_pairs(client, server, root):
        if not pair_tau_successors(client, server, ps) and not successful(client, ps):
            return False
        if diverges_brute(server, ps.server) and not reaches_zero_brute(
            client, ps.client
        ):
            return False
    return True


def io_brute(client, server, root=None):
    root = root or PairState(client.initial, server.initial)
    for ps in reachable_pairs(client, server, root):
        c_in, c_out = weak_barbs_brute(client, ps.client)
        s_in, s_out = weak_barbs_brute(server, ps.server)
        if not c_out <= s_in:
            return False
        if not c_out and c_in and not (s_out and s_out <= c_in):
            return False
    return True


def may_brute(client, server, root=None):
    root = root or PairState(client.initial, server.initial)
    return any(
        successful(client, ps) for ps in reachable_pairs(client, server, root)
    )


BRUTE = {
    "pg": progress_brute,
    "mst": must_brute,
    "shd": should_brute,
    "beh": beh_brute,
    "io": io_brute,
    "may": may_brute,
}


def brute_verdicts(client, server):
    return {code: fn(client, server) for code, fn in BRUTE.items()}


# -- witness replay -----------------------------------------------------------


def is_tau_path(client, server, path, root):
    """The path starts at root and each step is a genuine tau-move."""
    if not path or path[0] != root:
        return False
    for a, b in zip(path, path[1:]):
        if b not in pair_tau_successors(client, server, a):
            return False
    return True


def witness_violates(client, server, code, path):
    """The final pair of the path (or the path shape, for must) violates the
    defining clause of the relation."""
    last = path[-1]
    if code == "pg":
        return not pair_tau_successors(client, server, last) and not successful(
            client, last
        )
    if code == "mst":
        if any(successful(client, ps) for ps in path):
            return False
        if not pair_tau_successors(client, server, last):
            return True
        return len(set(path)) < len(path)  # a pair repeats: divergence
    if code == "shd":
        return not any(
            successful(client, q) for q in reachable_pairs(client, server, last)
        )
    if code == "beh":
        stuck_bad = not pair_tau_successors(client, server, last) and not successful(
            client, last
        )
        diverge_bad = diverges_brute(server, last.server) and not reaches_zero_brute(
            client, last.client
        )
        return stuck_bad or diverge_bad
    if code == "io":
        c_in, c_out = weak_barbs_brute(client, last.client)
        s_in, s_out = weak_barbs_brute(server, last.server)
        first = c_out <= s_in
        second = not (not c_out and c_in) or (bool(s_out) and s_out <= c_in)
        return not (first and second)
    raise ValueError(code)


# -- reference compiler ------------------------------------------------------


def _subst(t, var, value):
    if isinstance(t, Var):
        return value if t.name == var else t
    if isinstance(t, Prefix):
        return Prefix(t.label, _subst(t.body, var, value))
    if isinstance(t, Choice):
        return Choice(_subst(t.left, var, value), _subst(t.right, var, value))
    if isinstance(t, Rec):
        if t.var == var:  # shadowed
            return t
        return Rec(t.var, _subst(t.body, var, value))
    return t


def _transitions(t, memo):
    """Initial (label, target-term) moves of a closed guarded term,
    deduplicated and ordered by label."""
    cached = memo.get(t)
    if cached is not None:
        return cached
    if isinstance(t, Nil):
        moves = ()
    elif isinstance(t, Prefix):
        moves = ((t.label, t.body),)
    elif isinstance(t, Choice):
        seen = dict.fromkeys(
            _transitions(t.left, memo) + _transitions(t.right, memo)
        )
        moves = tuple(sorted(seen, key=lambda m: m[0]))
    elif isinstance(t, Rec):
        moves = _transitions(_subst(t.body, t.var, t), memo)
    else:
        raise ValueError(f"cannot take transitions of open term {t!r}")
    memo[t] = moves
    return moves


def reference_compile(term, max_states=DEFAULT_MAX_STATES):
    """compile_term by Term substitution and structural term hashing, for a
    closed guarded term: BFS over unfoldings, terminal state first."""
    memo = {}
    nil = Nil()

    def key(t):
        return nil if not _transitions(t, memo) else t

    root = key(term)
    discovered = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for _, v in _transitions(u, memo):
            v = key(v)
            if v not in discovered:
                if len(discovered) >= max_states:
                    raise StateExplosionError(f"more than {max_states} states")
                discovered[v] = None
                queue.append(v)

    has_nil = nil in discovered
    ids = {}
    if has_nil:
        ids[nil] = 0
    next_id = 1 if has_nil else 0
    for u in discovered:
        if u == nil:
            continue
        ids[u] = next_id
        next_id += 1

    edges = []
    for u in discovered:
        for lab, v in _transitions(u, memo):
            edges.append((ids[u], lab, ids[key(v)]))
    return ContractGraph(next_id, ids[root], edges, 0 if has_nil else None)


# -- reference parser ----------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = ("tau", "rec")


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


class _TermParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch):
        kind, text, line, col = self.advance()
        if kind != "punct" or text != ch:
            raise ParseError(
                f"expected {ch!r}, found {text or 'end of line'!r}", line, col
            )

    def expect_name(self, what):
        kind, text, line, col = self.advance()
        if kind != "name":
            raise ParseError(
                f"expected {what}, found {text or 'end of line'!r}", line, col
            )
        return text

    def term(self) -> Term:
        t = self.item()
        while self.peek()[:2] == ("punct", "+"):
            self.advance()
            t = Choice(t, self.item())
        return t

    def item(self) -> Term:
        kind, text, _, _ = self.peek()
        if kind == "rec":
            self.advance()
            var = self.expect_name("a recursion variable")
            self.expect_punct(".")
            return Rec(var, self.term())
        if kind == "tau":
            self.advance()
            self.expect_punct(".")
            return Prefix(TAU, self.item())
        if kind == "punct" and text in "?!":
            self.advance()
            name = self.expect_name("an action name")
            self.expect_punct(".")
            return Prefix(inp(name) if text == "?" else out(name), self.item())
        return self.atom()

    def atom(self) -> Term:
        kind, text, line, col = self.advance()
        if kind == "zero":
            return Nil()
        if kind == "name":
            return Var(text)
        if kind == "punct" and text == "(":
            t = self.term()
            self.expect_punct(")")
            return t
        raise ParseError(
            f"expected a term, found {text or 'end of line'!r}", line, col
        )


# a line ends here and nowhere else
_LINE_END_RE = re.compile(r"\r\n|\r|\n")


def reference_parse_term(text: str) -> Term:
    """Parse a single term (each line end is treated as a space)."""
    parser = _TermParser(_tokenize(_LINE_END_RE.sub(" ", text), 1))
    t = parser.term()
    kind, text_, line, col = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {text_!r} after term", line, col)
    return t


def reference_parse(text: str) -> list:
    """Parse a contract file into its definitions, in source order; one
    leading byte-order mark is dropped."""
    defs = []
    first_line = {}
    lines = _LINE_END_RE.split(text.removeprefix("\ufeff"))
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        tokens = _tokenize(stripped, line_no)
        parser = _TermParser(tokens)
        name = parser.expect_name("a contract name")
        parser.expect_punct("=")
        term = parser.term()
        kind, text_, line, col = parser.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text_!r} after definition", line, col)
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


# -- reference pair universe ----------------------------------------------------


def _reference_tau_targets(composition, ps):
    # unchecked: ps must be a pair of client and server graph states
    c, s = ps
    targets = {PairState(t, s) for t in composition.client._tau_adj[c]}
    targets.update(PairState(c, t) for t in composition.server._tau_adj[s])
    server_out = composition.server.out_edges(s)
    for lab, c2 in composition.client.out_edges(c):
        if lab.kind:
            # a visible action meets its dual: same name, other kind
            dual, name = 3 - lab.kind, lab.name
            for slab, s2 in server_out:
                if slab.kind == dual and slab.name == name:
                    targets.add(PairState(c2, s2))
    return tuple(sorted(targets))


def reference_explore(composition, record, roots, max_pairs):
    """Extend a tau-closed ``record`` (pair -> its tau-successors, as
    ``PairState``s) to the least tau-closed superset of the roots; all or
    nothing under ``max_pairs``."""
    roots = tuple(roots)
    for r in roots:
        c, s = r
        if not (
            isinstance(c, int)
            and isinstance(s, int)
            and 0 <= c < composition.client.num_states
            and 0 <= s < composition.server.num_states
        ):
            raise InvalidPairError(f"pair {r!r} is not valid for this composition")
    return discover(
        record, roots, lambda ps: _reference_tau_targets(composition, ps), max_pairs
    )


class ReferenceUniverse:
    """The tables of a ``PairState``-keyed ``reference_explore`` record."""

    def __init__(self, composition, record: dict, roots):
        self.composition = composition
        self.pairs = tuple(record)
        self.roots = tuple(roots)
        self._index = index = {ps: i for i, ps in enumerate(self.pairs)}
        for r in self.roots:
            if r not in index:
                raise ValueError(f"root {r!r} not among the universe pairs")

        try:
            self.successors_idx = tuple(
                [tuple([index[t] for t in targets]) for targets in record.values()]
            )
        except KeyError:
            ps, t = next(
                (ps, t) for ps, targets in record.items() for t in targets
                if t not in index
            )
            raise ValueError(f"universe is not tau-closed: {ps!r} -> {t!r}") from None

        preds = [[] for _ in self.pairs]
        for i, targets in enumerate(self.successors_idx):
            for t in targets:
                preds[t].append(i)
        self.predecessors_idx = tuple(tuple(p) for p in preds)

        zero = composition.client.zero
        self.successful_indices = frozenset(
            i for i, ps in enumerate(self.pairs) if ps.client == zero
        )
        self.stuck_indices = frozenset(
            i for i, targets in enumerate(self.successors_idx) if not targets
        )


def reference_universe(composition, roots, max_pairs):
    """The ``PairState`` universe of the roots, or None past ``max_pairs``."""
    roots = tuple(dict.fromkeys(PairState(*r) for r in roots))
    record = {}
    if not reference_explore(composition, record, roots, max_pairs):
        return None
    return ReferenceUniverse(composition, record, roots)
