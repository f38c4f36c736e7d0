"""Output check for a benchmark round, read off the rendered transcript.

The transcript text is the documented CLI format (`<tick> IN <item>`,
`<tick> OUT q<id> <result>`, `<tick> EVT <text>`), so the check depends on
nothing inside the ring. The IN records give every item its real injection
tick, deferrals included; the `aging started` events say which AGE commands
took effect. Replaying them through an unbounded incremental union-find gives
the ground truth each connectivity answer must equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

AGING_STARTED = "aging started"
AGING_COMPLETE = "aging complete; queries re-enabled"


class OracleCC:
    """Connectivity over every edge still alive: arrivals union in, and a
    deletion rebuilds from the edges whose newest timestamp survives."""

    def __init__(self):
        self.active = {}  # canonical key -> newest arrival tick
        self.parent = {}

    def _find(self, x):
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _link(self, u, v):
        parent = self.parent
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = self._find(u), self._find(v)
        if ru != rv:
            parent[rv] = ru

    def arrive(self, u, v, tick):
        self.active[(u, v) if u <= v else (v, u)] = tick
        self._link(u, v)

    def age(self, threshold):
        self.active = {key: t for key, t in self.active.items() if t >= threshold}
        self.parent = {}
        for u, v in self.active:
            self._link(u, v)

    def connected(self, u, v):
        if u == v:
            return True
        if u not in self.parent or v not in self.parent:
            return False
        return self._find(u) == self._find(v)


@dataclass
class Check:
    """What one round's transcript says, and where it disagrees with the
    oracle. Query lists are indexed by query id, which the junction assigns
    in injection order."""

    answer_tick: list = field(default_factory=list)   # None if never answered
    answer: list = field(default_factory=list)        # "true", "false" or "busy"
    mismatches: list = field(default_factory=list)    # query ids
    survivors: list = field(default_factory=list)     # live edges kept per deletion
    aging_spans: list = field(default_factory=list)   # (started, completed) ticks

    @property
    def busy(self):
        return sum(1 for a in self.answer if a == "busy")

    @property
    def unanswered(self):
        return sum(1 for a in self.answer if a is None)

    @property
    def failed(self):
        """Queries answered wrongly or never answered; busy refusals are a
        protocol answer and are not counted here."""
        return len(self.mismatches) + self.unanswered


def parse(text):
    """Split transcript text into (IN, OUT, EVT) record lists."""
    ins, outs, evts = [], [], []
    for line in text.splitlines():
        tick, kind, rest = line.split(" ", 2)
        if kind == "IN":
            ins.append((int(tick), rest))
        elif kind == "OUT":
            qid, body = rest.split(" ", 1)
            outs.append((int(tick), int(qid[1:]), body))
        else:
            evts.append((int(tick), rest))
    return ins, outs, evts


def check_transcript(text):
    """Replay the injection timeline and compare every connectivity answer."""
    ins, outs, evts = parse(text)
    started = [t for t, msg in evts if msg == AGING_STARTED]
    completed = [t for t, msg in evts if msg == AGING_COMPLETE]
    applied = set(started)
    queries = []
    oracle = OracleCC()
    out = Check(aging_spans=list(zip(started, completed)))
    for tick, item in ins:
        f = item.split()
        if f[0] == "E":
            oracle.arrive(int(f[1]), int(f[2]), tick)
        elif f[0] == "Q":
            queries.append(oracle.connected(int(f[1]), int(f[2])))
        elif f[0] == "AGE" and tick in applied:
            oracle.age(int(f[1]))
            out.survivors.append(len(oracle.active))
    out.answer_tick = [None] * len(queries)
    out.answer = [None] * len(queries)
    for tick, qid, body in outs:
        if qid >= len(queries) or out.answer[qid] is not None:
            out.mismatches.append(qid)
            continue
        out.answer_tick[qid] = tick
        out.answer[qid] = body
        if body != "busy" and body != ("true" if queries[qid] else "false"):
            out.mismatches.append(qid)
    return out
