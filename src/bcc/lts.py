"""Finite labelled transition graphs with weak-transition queries.

States are dense integer ids.  A graph may own a distinguished *success*
state: the unique state without outgoing edges (absent when the contract can
never terminate).  A graph stores its canonical out-edge rows, each the
sorted distinct edges out of one state, as ``(label code, target)`` pairs of
plain ints; the public constructor validates an edge list and sorts it into
them, while the compiler and ``merge_graphs``, whose rows are canonical by
construction, hand them to the trusted ``ContractGraph._from_rows``.  Weak
barbs, divergence and success reachability are tables built on first read,
by backward search over one shared tau-predecessor table, so a graph that is
only merged or composed never builds them; tau-closures are searched on
demand.  Graphs are immutable, and a racing first read of a table computes
an equal value, so they may be read from any thread.

Labels are immutable and compare structurally, and ``inp``, ``out`` and
``_shared_label`` hand out one shared ``Label`` per action (kept for the life
of the process, one per distinct name seen).  Everywhere else, from the
parser's rows to a graph's, a label is an int code from one process-wide
table, ``_label_code`` (the only label cache): tau is 0, and ``?a`` and
``!a`` are ``2k`` and ``2k + 1`` for the ``k`` the name ``a`` got when it
was first seen, so the dual of a visible code is ``code ^ 1``.  The table
also holds the shared labels (``_LABELS``) and the label order
(``_ORDER``), and threads that see a new name at once still get one code
and one label per action.  Codes do not sort as labels do, and they are
local to one process: ``_ORDER`` maps each code to its ``(kind, name)``
tuple, which sorts as ``Label`` does, so every row sort (``_canonical``,
``_move_order``) keys on it, and a graph is copied and pickled through its
labels.  ``edges``, ``out_edges`` and ``barbs`` decode each code to its
shared ``Label``.

The graph kernels every layer of the package shares live here too:
``reach`` (BFS closure), ``attractor`` (counter-based dead-end propagation),
``diverging`` (the nodes outside an attractor) and ``reverse`` (the
predecessor table), all over integer adjacency tuples, and ``discover``, the
bounded BFS that the pair universes explore their state spaces with, over a
successor function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from typing import Iterable, Optional

from .errors import UnknownStateError

INTERNAL = 0
INPUT = 1
OUTPUT = 2


@dataclass(frozen=True, order=True)
class Label:
    """A transition label: the internal action, or a named input/output.

    Ordering is (kind, name) with the internal action first, which is the
    canonical edge ordering used everywhere in this package.
    """

    kind: int
    name: str = ""

    def __post_init__(self):
        if self.kind not in (INTERNAL, INPUT, OUTPUT):
            raise ValueError(f"bad label kind: {self.kind!r}")
        if self.kind == INTERNAL and self.name:
            raise ValueError("the internal action carries no name")
        if self.kind != INTERNAL and not self.name:
            raise ValueError("visible actions need a name")

    @property
    def is_visible(self) -> bool:
        return self.kind != INTERNAL

    def __str__(self) -> str:
        if self.kind == INTERNAL:
            return "tau"
        return ("?" if self.kind == INPUT else "!") + self.name

    def __reduce__(self):
        # copies and unpickled labels are the shared label of their action
        return _shared_label, ((self.kind, self.name),)


TAU = Label(INTERNAL)


# -- label codes: the labels of all rows -----------------------------------

_LABELS = {0: TAU}  # code -> the shared Label of its action
_ORDER = {0: (INTERNAL, "")}  # code -> its (kind, name), which sorts as Label does
_NAME_CODES = {}  # name -> the code of ?name; !name is one above
_fresh_codes = count(2, 2)


@lru_cache(maxsize=None)
def _label_code(kind: int, name) -> int:
    """The row code of the label ``(kind, name)``; tau's name is ignored."""
    if kind == INTERNAL:
        return 0
    code = _NAME_CODES.get(name)
    if code is None:
        fresh = next(_fresh_codes)
        _LABELS[fresh], _LABELS[fresh + 1] = Label(INPUT, name), Label(OUTPUT, name)
        _ORDER[fresh], _ORDER[fresh + 1] = (INPUT, name), (OUTPUT, name)
        # published whole, once: a thread that raced to name it first wins,
        # and the codes, labels and orders made here stay unused
        code = _NAME_CODES.setdefault(name, fresh)
    return code + kind - INPUT


def _shared_label(lab: tuple) -> Label:
    """The shared ``Label`` of ``(kind, name)``."""
    return _LABELS[_label_code(*lab)]


def inp(name: str) -> Label:
    return _LABELS[_label_code(INPUT, name)]


def out(name: str) -> Label:
    return _LABELS[_label_code(OUTPUT, name)]


def _move_order(move: tuple) -> tuple:
    """The sort key of a ``(code, ...)`` move: its label, as ``Label`` sorts."""
    return _ORDER[move[0]]


def _edge_order(edge: tuple) -> tuple:
    return _ORDER[edge[0]], edge[1]


def _canonical(edges) -> tuple:
    """Distinct ``(code, target)`` edges as a canonical row: by label, as
    ``Label`` sorts, then by target."""
    return tuple(sorted(edges, key=_edge_order))


@dataclass(frozen=True)
class BarbSet:
    """Visible actions available at (or weakly reachable from) a state.

    A state may offer inputs and outputs at once; the two sets are kept
    apart because the compliance conditions treat them asymmetrically.
    """

    inputs: frozenset = frozenset()
    outputs: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))

    def __bool__(self) -> bool:
        return bool(self.inputs or self.outputs)


@lru_cache(maxsize=1024)
def _barb_set(codes: tuple) -> BarbSet:
    """The BarbSet of some visible label codes, distinct and ascending.
    Equal tuples share one object, across graphs too, so the weak-barb
    tables allocate almost nothing."""
    return BarbSet(
        frozenset(_LABELS[c].name for c in codes if not c & 1),
        frozenset(_LABELS[c].name for c in codes if c & 1),
    )


Edge = tuple  # (source: int, label: Label, target: int)


def reach(adj, sources) -> frozenset:
    """Nodes reachable from the sources along ``adj`` (sources included)."""
    seen = set(sources)
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def reverse(adj) -> tuple:
    """The predecessors of every node of ``adj``, each row in ascending order."""
    pred = [[] for _ in adj]
    for s, targets in enumerate(adj):
        for t in targets:
            pred[t].append(s)
    return tuple(map(tuple, pred))


def _is_index(i, n: int) -> bool:
    """True iff i is an id in ``range(n)``: a plain int, never a bool or a
    float, which would stand for a different id or none.  The one id rule
    of states, pair components, pair-set indices and generator seeds."""
    return type(i) is int and 0 <= i < n


def discover(record: dict, roots, successors, bound: int) -> bool:
    """Extend ``record`` (node -> ``successors(node)``) to the least
    superset of the roots closed under ``successors``: new roots first, in
    the order listed, then BFS order.  Recorded nodes count as closed.  All
    or nothing: when the record would grow past ``bound`` nodes, it is
    restored and False is returned."""
    size = len(record)
    queue = deque()
    targets = roots
    while True:
        for v in targets:
            if v not in record:
                record[v] = None
                queue.append(v)
        if not queue or len(record) > bound:
            break
        u = queue.popleft()
        targets = record[u] = successors(u)
    if queue:  # stopped at the bound: drop every node this call added
        while len(record) > size:
            record.popitem()
    return not queue


def attractor(succ, pred, seeds) -> frozenset:
    """Least set containing the seeds and every node with at least one
    successor, all of whose successors are in the set.

    Counter-based propagation, linear in the size of the graph: a node
    joins when its count of successors outside the set drops to zero.
    ``pred`` must be ``succ`` reversed, edge for edge, as ``reverse`` gives it.
    """
    outside = [len(targets) for targets in succ]
    inside = set(seeds)
    queue = deque(inside)
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if u not in inside:
                outside[u] -= 1
                if outside[u] == 0:
                    inside.add(u)
                    queue.append(u)
    return frozenset(inside)


def diverging(succ, pred, stops) -> frozenset:
    """The nodes outside ``attractor(succ, pred, stops)``: when every node
    without successors is a stop, exactly those that start an infinite path
    avoiding the stops, as each has a successor outside.  With the tau-stuck
    states as stops, they are the states that can diverge."""
    return frozenset(range(len(succ))) - attractor(succ, pred, stops)


class ContractGraph:
    """Immutable finite LTS over {tau, ?a, !a} labels.

    ``zero`` is the id of the success state, or None when no state of the
    graph is terminal.  The public constructor enforces that states are
    plain ints (no bool or float) and that ``zero`` is the only state without
    outgoing edges.  ``name`` is display-only and ignored by equality.  A
    graph keeps only its out-edge rows ``_out`` of ``(label code, target)``
    ints, however it was built, and builds ``edges`` from them on first
    read; ``edges``, ``out_edges`` and ``barbs`` hold the shared label of
    each action.  Copies and pickles go through ``edges`` and the validating
    constructor, since codes are local to a process.  The derived tables
    (``_tau_adj``, ``_tau_pred``, ``_reaches_zero``, ``_weak``,
    ``_diverging``) are built on first read and cached on the instance.
    """

    def __init__(
        self,
        num_states: int,
        initial: int,
        edges: Iterable[Edge],
        zero: Optional[int],
        name: str = "",
    ):
        if type(num_states) is not int:
            raise ValueError(f"state count {num_states!r} is not an int")
        if num_states < 1:
            raise ValueError("a graph needs at least one state")
        if not _is_index(initial, num_states):
            raise ValueError(f"initial state {initial!r} out of range")
        if zero is not None and not _is_index(zero, num_states):
            raise ValueError(f"success state {zero!r} out of range")

        outgoing = [set() for _ in range(num_states)]
        for s, lab, t in edges:
            if not isinstance(lab, Label):
                raise ValueError(f"edge label {lab!r} is not a Label")
            if not (_is_index(s, num_states) and _is_index(t, num_states)):
                raise ValueError(f"edge ({s!r}, {lab}, {t!r}) leaves the state range")
            outgoing[s].add((_label_code(lab.kind, lab.name), t))
        if zero is not None and outgoing[zero]:
            raise ValueError("the success state must have no outgoing edges")
        for s in range(num_states):
            if s != zero and not outgoing[s]:
                raise ValueError(
                    f"state {s} has no outgoing edges but is not the success state"
                )
        self.num_states, self.initial, self.zero = num_states, initial, zero
        self.name = name
        self._out = tuple(map(_canonical, outgoing))

    @classmethod
    def _from_rows(
        cls, num_states: int, initial: int, rows: tuple, zero: Optional[int], name=""
    ) -> "ContractGraph":
        """A graph from canonical out-edge rows, trusted as they are: row s
        holds the (label code, target) edges out of s, distinct and in
        ``_canonical`` order, and only row ``zero`` is empty.  No check runs
        and no edge list is kept."""
        graph = cls.__new__(cls)
        graph.num_states, graph.initial, graph.zero = num_states, initial, zero
        graph.name = name
        graph._out = rows
        return graph

    def __reduce__(self):
        # codes are local to a process: copies and pickles carry the labels,
        # listed afresh so that the original caches no edge list
        edges = ContractGraph.edges.func(self)
        args = (self.num_states, self.initial, edges, self.zero, self.name)
        return type(self), args

    # -- derived tables, built on first read -------------------------------

    @cached_property
    def edges(self) -> tuple:
        """Every (source, label, target) edge in canonical order."""
        return tuple(
            [(s, _LABELS[c], t) for s, outs in enumerate(self._out) for c, t in outs]
        )

    @cached_property
    def _tau_adj(self) -> tuple:
        """The tau-successors of every state, ordered by state id."""
        # tau, code 0, sorts first: a row that does not start with it has none
        return tuple([
            tuple([t for code, t in outs if not code])
            if outs and not outs[0][0] else ()
            for outs in self._out
        ])

    # a state tau-reaches success, or weakly offers a visible action, iff it
    # tau-reaches a state where that is decided

    @cached_property
    def _tau_pred(self) -> tuple:
        """The tau-predecessors of every state, ordered by state id."""
        return reverse(self._tau_adj)

    @cached_property
    def _reaches_zero(self) -> frozenset:
        if self.zero is None:
            return frozenset()
        return reach(self._tau_pred, (self.zero,))

    @cached_property
    def _weak(self) -> tuple:
        offers = {}  # visible code -> the states with an edge carrying it
        for s, outs in enumerate(self._out):
            for code, _ in outs:
                if code:
                    offers.setdefault(code, []).append(s)
        codes = sorted(offers)  # bit i of a state's mask stands for codes[i]
        masks = [0] * self.num_states
        for i, code in enumerate(codes):
            bit = 1 << i
            for s in reach(self._tau_pred, offers[code]):
                masks[s] |= bit
        barbs = {  # mask -> its BarbSet
            m: _barb_set(tuple([c for i, c in enumerate(codes) if m >> i & 1]))
            for m in set(masks)
        }
        return tuple(map(barbs.__getitem__, masks))

    @cached_property
    def _diverging(self) -> frozenset:
        tau_adj = self._tau_adj
        tau_stuck = (s for s in range(self.num_states) if not tau_adj[s])
        return diverging(tau_adj, self._tau_pred, tau_stuck)

    def _check_state(self, s: int) -> None:
        if not _is_index(s, self.num_states):
            raise UnknownStateError(f"state {s!r} is not in this graph")

    # -- queries ---------------------------------------------------------

    def out_edges(self, s: int) -> tuple:
        """Outgoing (label, target) pairs in canonical order."""
        self._check_state(s)
        return tuple([(_LABELS[c], t) for c, t in self._out[s]])

    def barbs(self, s: int) -> BarbSet:
        """Visible actions immediately available at s."""
        self._check_state(s)
        return _barb_set(tuple(sorted({c for c, _ in self._out[s] if c})))

    def tau_closure(self, s: int) -> frozenset:
        """Least set containing s and closed under tau-edges."""
        self._check_state(s)
        return reach(self._tau_adj, (s,))

    def weak_barbs(self, s: int) -> BarbSet:
        """Visible actions available after any number of tau-steps."""
        self._check_state(s)
        return self._weak[s]

    def may_diverge(self, s: int) -> bool:
        """True iff s can start an infinite internal computation."""
        self._check_state(s)
        return s in self._diverging

    def weak_reaches_zero(self, s: int) -> bool:
        """True iff the success state is tau-reachable from s."""
        self._check_state(s)
        return s in self._reaches_zero

    # -- identity --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContractGraph):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.initial == other.initial
            and self.zero == other.zero
            and self._out == other._out
        )

    __hash__ = None

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ContractGraph{label} states={self.num_states} "
            f"edges={sum(map(len, self._out))} initial={self.initial} zero={self.zero}>"
        )


class _Union:
    """A disjoint union of graphs sharing one success state, built one
    block of states at a time: the rule of ``merge_graphs``, and of the
    compiler when it writes graphs straight into a union.  A block takes the
    next ids in order, except that its success state becomes 0, the union's
    one success state, and the states after it move down one.  So row 0 is
    kept for success, and a union with no success state moves every id down
    one when its graph is taken."""

    def __init__(self):
        # state -> its out-edge row, the initial state of every block, success
        self.rows, self.initials, self.zero = [()], [], None

    def block(self, num_states: int, zero: Optional[int]) -> list:
        """The union's ids of the states of the next block, whose rows the
        caller appends, success's left out."""
        ids = list(range(len(self.rows), len(self.rows) + num_states))
        if zero is not None:
            ids[zero:] = [0] + ids[zero:-1]
            self.zero = 0
        return ids

    def graph(self, name: str = "") -> tuple:
        """The union's graph and the initial state of every block."""
        rows, initials, zero = tuple(self.rows), tuple(self.initials), self.zero
        if zero is None:
            rows = tuple([tuple([(c, t - 1) for c, t in row]) for row in rows[1:]])
            initials = tuple([s - 1 for s in initials])
        return ContractGraph._from_rows(len(rows), initials[0], rows, zero, name), initials


def merge_graphs(graphs: Iterable[ContractGraph]) -> tuple:
    """Disjoint union of graphs sharing one success state.

    The component success states are identified and become state 0 of the
    union (there must be a single terminal state overall).  Returns the
    merged graph and the remapped initial state of every component.

    The union is assembled from the components' canonical out-edge rows
    without sorting or validating it again: components take increasing
    blocks of ids (``_Union``), and renumbering keeps the order of every
    state but success, which becomes 0.  So only a row of a component whose
    success state was not 0 can fall out of order, and only such a row is
    sorted again.
    """
    union = _Union()
    for g in graphs:
        ids = union.block(g.num_states, g.zero)
        union.initials.append(ids[g.initial])
        for outs in g._out:
            if outs:  # the success state's row is the union's row 0
                row = [(c, ids[t]) for c, t in outs]
                # renumbered to 0, success may now precede its group
                union.rows.append(_canonical(row) if g.zero else tuple(row))
    if not union.initials:
        raise ValueError("merge_graphs needs at least one graph")
    return union.graph()
