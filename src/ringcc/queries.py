"""Query protocol pieces: the messages that ride slots, the per-processor
scratch used by non-constant queries, and the I/O-side registry that tracks
one active non-constant query at a time.

Constant queries (connectivity, edge count) travel in primary slots and exit
after exactly one circuit. The four non-constant queries share one command,
`QueryCommand`, named by its kind, and stream their answers through payload
slots. Each processor's share of an answer goes out ahead of the one end
marker, `QueryEnd`: label dumps ship (block, name) pairs that are relabeled
at every later hop, tree dumps ship the stored tree edges, and small
component enumeration runs two phases, first folding exact component sizes
downstream behind a `PhaseDone`, then shipping (component, vertex) pairs
that are relabeled or dropped in flight. The maximum-component query is
phase one alone with a running maximum folded at the I/O side.
"""

from __future__ import annotations


# -- primary-slot queries -----------------------------------------------------

class ConnQuery:
    """Connectivity probe; endpoints are relabeled at every hop and the
    answer latches true the first time the labels meet."""

    __slots__ = ("qid", "u", "lu", "v", "lv", "answer", "t")

    def __init__(self, qid, u, v, t):
        self.qid = qid
        self.u = u
        self.lu = u
        self.v = v
        self.lv = v
        self.answer = u == v
        self.t = t  # arrival tick, carried for the transcript only


class CountQuery:
    __slots__ = ("qid", "n", "t")

    def __init__(self, qid, t):
        self.qid = qid
        self.n = 0
        self.t = t


# -- non-constant query command (primary slot) --------------------------------

class QueryCommand:
    """Starts a non-constant query at every processor it passes. `kind` is
    "dump", "tree", "small" or "max", the vocabulary `QueryScratch` and
    `ActiveQuery` share; `limit` bounds a small-component query and is None
    for the others."""

    __slots__ = ("qid", "kind", "limit")

    def __init__(self, qid, kind, limit):
        self.qid = qid
        self.kind = kind
        self.limit = limit


# -- payload messages ----------------------------------------------------------

class DumpPair:
    """(block, enclosing name); the name is relabeled at every later hop."""

    __slots__ = ("block", "name")

    def __init__(self, block, name):
        self.block = block
        self.name = name


class TreeEdgeMsg:
    __slots__ = ("u", "v", "t")

    def __init__(self, u, v, t):
        self.u = u
        self.v = v
        self.t = t


class SizeMsg:
    """(component name, vertex count); absorbed by the processor that
    consumed the named block, otherwise forwarded.

    A size of one is always a self-loop orphan claim (real components hold
    at least two vertices). Such claims get wrapped around the ring once so
    the vertex's true consumer, wherever it sits, can silently cancel them;
    a claim that comes back to its emitter is a confirmed orphan."""

    __slots__ = ("name", "size", "wrapped")

    def __init__(self, name, size, wrapped=False):
        self.name = name
        self.size = size
        self.wrapped = wrapped


class VertexMsg:
    """(component name, member vertex); relabeled or dropped downstream."""

    __slots__ = ("name", "vertex")

    def __init__(self, name, vertex):
        self.name = name
        self.vertex = vertex


class PhaseDone:
    """End of the size-folding phase; held by each processor until its own
    sizes have been emitted."""

    __slots__ = ("qid",)

    def __init__(self, qid):
        self.qid = qid


class QueryEnd:
    """End of a query's answer stream: a dump, a tree, or a small query's
    member phase. Only the head makes it, behind its own share; each later
    processor queues its share (label pairs, tree edges or member vertices)
    ahead of it and forwards it, so it reaches the I/O side once, after
    every answer."""

    __slots__ = ("qid", "kind")

    def __init__(self, qid, kind):
        self.qid = qid
        self.kind = kind


# -- per-processor scratch ------------------------------------------------------

class QueryScratch:
    """State one processor keeps while a non-constant query is in flight.

    extra accumulates folded sizes per local representative; upstream_names
    remembers consumed blocks revealed (by a size message) to be upstream
    component names rather than primitive vertices, which both corrects the
    local count and suppresses a duplicate vertex emission in phase two.
    """

    __slots__ = ("kind", "qid", "limit", "extra", "upstream_names",
                 "final_sizes", "orphan_pending", "confirmed_orphans")

    def __init__(self, kind, qid, limit=None):
        self.kind = kind          # "dump" | "tree" | "small" | "max"
        self.qid = qid
        self.limit = limit
        self.extra = {}
        self.upstream_names = set()
        self.final_sizes = None
        self.orphan_pending = set()
        self.confirmed_orphans = set()


# -- I/O-side registry ------------------------------------------------------------

class ActiveQuery:
    __slots__ = ("qid", "kind", "max_size")

    def __init__(self, qid, kind):
        self.qid = qid
        self.kind = kind
        self.max_size = 0
