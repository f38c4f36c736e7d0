"""Shared vocabulary for the ring simulator.

Everything that travels between processors lives here: the five-field edge
record, bundle/slot containers, tokens, query messages, and the stream items
accepted by the I/O side. All of these are plain value objects; none of them
hold references into processor state.
"""

from __future__ import annotations


def canonical_key(u, v):
    """Order-independent identity of an edge.

    canonical_key(u, v) == canonical_key(v, u); labels and timestamps are
    deliberately excluded, so two observations of the same endpoint pair
    always collide.
    """
    return (u, v) if u <= v else (v, u)


class LabeledEdge:
    """Circulating edge record: endpoints, their current relabels, timestamp.

    Five wire fields (`snapshot`). Labels start primitive (lu == u,
    lv == v) when the edge enters from the I/O side and are rewritten in
    place as the edge moves downstream. The timestamp is the newest
    observation of this endpoint pair. The sixth slot, `ck`, is the
    canonical key, derived once from u and v (which never change after
    construction): a simulator cache read on every hop, not protocol state.
    """

    __slots__ = ("u", "v", "lu", "lv", "t", "ck")

    def __init__(self, u, v, lu=None, lv=None, t=0):
        self.u = u
        self.v = v
        self.lu = u if lu is None else lu
        self.lv = v if lv is None else lv
        self.t = t
        self.ck = (u, v) if u <= v else (v, u)  # canonical_key, inlined

    def key(self):
        return self.ck

    def reset_labels(self):
        """Back to primitive labels, used when an edge is recycled as new."""
        self.lu = self.u
        self.lv = self.v

    def snapshot(self):
        return (self.u, self.lu, self.v, self.lv, self.t)

    def __repr__(self):
        return f"Edge({self.u},{self.v} as {self.lu},{self.lv} @{self.t})"


# ---------------------------------------------------------------------------
# Tokens (occupy one slot each, except the builder token which is a bundle bit)

class AgingToken:
    """Starts bulk deletion; carries the survival predicate."""

    __slots__ = ("predicate",)

    def __init__(self, predicate):
        self.predicate = predicate

    def __repr__(self):
        return f"AgingToken({self.predicate!r})"


class LoaderToken:
    """Hands the recycling duty to the successor processor."""

    __slots__ = ()

    def __repr__(self):
        return "LoaderToken"


LOADER_TOKEN = LoaderToken()


class FailSignal:
    """Raised condition: storage is exhausted system-wide."""

    __slots__ = ("edge", "index")

    def __init__(self, edge, index):
        self.edge = edge
        self.index = index

    def __repr__(self):
        return f"FailSignal(at p{self.index})"


class ArmAutoAge:
    """Arms the tail-side automatic aging policy with a survivor target."""

    __slots__ = ("target_c",)

    def __init__(self, target_c):
        self.target_c = target_c


class AgeRequest:
    """Sent by the tail once its threshold search converged."""

    __slots__ = ("threshold",)

    def __init__(self, threshold):
        self.threshold = threshold

    def __repr__(self):
        return f"AgeRequest(t>={self.threshold})"


# ---------------------------------------------------------------------------
# Bundle

class Bundle:
    """Fixed set of k slots handed downstream each tick.

    Slot 0 is the primary (new stream traffic); the remaining k-1 payload
    slots carry recycled edges and query messages. The builder token is a
    flag on the bundle and does not consume a slot. A processor that
    ingests k slots emits k slots.
    """

    __slots__ = ("primary", "payload", "builder_token")

    def __init__(self, primary=None, payload=(), builder_token=False):
        self.primary = primary
        self.payload = payload
        self.builder_token = builder_token

    def is_empty(self):
        return self.primary is None and not self.payload and not self.builder_token

    def occupied(self):
        """Number of occupied slots: the primary, if any, and the payload."""
        n = len(self.payload)
        return n if self.primary is None else n + 1

    def __repr__(self):
        return f"Bundle({self.primary!r}, {list(self.payload)!r}, bt={self.builder_token})"


EMPTY_BUNDLE = Bundle()


# ---------------------------------------------------------------------------
# Stream items: what the I/O side accepts, one per tick

class Arrival:
    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = u
        self.v = v

    def render(self):
        return f"E {self.u} {self.v}"


class Connectivity:
    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = u
        self.v = v

    def render(self):
        return f"Q {self.u} {self.v}"


class EdgeCount:
    __slots__ = ()

    def render(self):
        return "COUNT"


class MaxComponent:
    __slots__ = ()

    def render(self):
        return "MAX"


class SmallComponents:
    __slots__ = ("limit",)

    def __init__(self, limit):
        self.limit = limit

    def render(self):
        return f"SMALL {self.limit}"


class SpanningTree:
    __slots__ = ()

    def render(self):
        return "TREE"


class DumpLabels:
    __slots__ = ()

    def render(self):
        return "DUMP"


class Age:
    __slots__ = ("predicate",)

    def __init__(self, predicate):
        self.predicate = predicate

    def render(self):
        return f"AGE {self.predicate.render()}" if hasattr(self.predicate, "render") \
            else "AGE custom"


class AutoAge:
    __slots__ = ("target_c",)

    def __init__(self, target_c):
        if not 0 < target_c < 1:
            raise ValueError(f"AutoAge target_c={target_c} must be in (0, 1)")
        self.target_c = target_c

    def render(self):
        return f"AUTOAGE {self.target_c}"


class Idle:
    """Explicit no-op stream slot; keeps the tick clock uniform."""

    __slots__ = ()

    def render(self):
        return "."


IDLE = Idle()
