"""Bundled example corpus: four client/server pairs that separate the six
compliance relations (every pair of relations disagrees somewhere on it)."""

from .terms import compile_term, parse

EXAMPLES_SOURCE = """\
# Standard example corpus.  Pairing convention: client pN runs against
# server qN.
p1 = !a.0 + !b.0
q1 = ?a.0
p2 = rec X.tau.!a.X
q2 = rec Y.?a.Y
p3 = !a.0 + !b.?c.0
q3 = ?a.0 + ?b.0
p4 = !a.0
q4 = rec Y.(tau.Y + ?a.0)
"""


def example_definitions():
    return parse(EXAMPLES_SOURCE)


def example_graphs():
    """Compiled corpus graphs keyed by contract name."""
    return {d.name: compile_term(d.term, name=d.name) for d in example_definitions()}


def example_pairs():
    """Client/server name pairs, in corpus order."""
    return [("p1", "q1"), ("p2", "q2"), ("p3", "q3"), ("p4", "q4")]
