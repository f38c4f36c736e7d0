"""Shared brute-force oracles for the integration tests."""

from ringcc.model import Age, Arrival
from ringcc.multipass import static_cc


class _Probe:
    """Minimal edge stand-in for predicate evaluation."""

    __slots__ = ("u", "v", "t")

    def __init__(self, key, t):
        self.u, self.v = key
        self.t = t


def replay_oracle(items, applied_ages=None):
    """Replay stream items against a plain dictionary.

    Returns (timeline, final) where timeline[i] is a snapshot taken *after*
    item i's tick, and final is the dict of key -> newest timestamp at the
    end. Aging applies its predicate to the newest-timestamp view.

    applied_ages: ticks whose AGE command actually took effect (the ring
    ignores one arriving while a deletion is still rebuilding). None means
    every AGE applies, which matches any stream whose deletions never
    overlap.
    """
    active = {}
    events = []
    for tick, item in enumerate(items):
        t = type(item)
        if t is Arrival:
            key = (min(item.u, item.v), max(item.u, item.v))
            active[key] = tick
        elif t is Age and (applied_ages is None or tick in applied_ages):
            pred = item.predicate
            active = {key: ts for key, ts in active.items()
                      if pred(_Probe(key, ts))}
        events.append((tick, item, dict(active)))
    return events, active


def ages_applied(transcript):
    """Ticks whose AGE command the ring accepted, read off the transcript."""
    return {e[1] for e in transcript.events
            if e[0] == "EVT" and e[2] == "aging started"}


def replay_from_transcript(transcript):
    """Replay the observable input timeline: IN records give each item its
    actual injection tick (deferrals included), EVT records say which AGE
    commands took effect. Returns (timeline keyed by tick, final edge dict).

    Only timestamp-threshold AGE records are understood here, which is all
    the text format can express.
    """
    applied = ages_applied(transcript)
    active = {}
    timeline = {}
    for e in transcript.events:
        if e[0] != "IN":
            continue
        tick, text = e[1], e[2]
        fields = text.split()
        if fields and fields[0] == "E":
            u, v = int(fields[1]), int(fields[2])
            active[(min(u, v), max(u, v))] = tick
        elif fields and fields[0] == "AGE" and tick in applied:
            thr = int(fields[1])
            active = {key: ts for key, ts in active.items() if ts >= thr}
        timeline[tick] = dict(active)
    return timeline, active


def connectivity_answer(active_keys, u, v):
    """Ground-truth connectivity on the active edge set (keys only)."""
    if u == v:
        return True
    labels = static_cc(list(active_keys))
    return u in labels and v in labels and labels[u] == labels[v]


class OracleCC:
    """Incremental ground truth: arrivals union into an unbounded structure;
    a deletion rebuilds it from the surviving newest-timestamp view."""

    def __init__(self):
        self.active = {}
        self.parent = {}

    def _find(self, x):
        parent = self.parent
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    def _link(self, u, v):
        for x in (u, v):
            if x not in self.parent:
                self.parent[x] = x
        ru, rv = self._find(u), self._find(v)
        if ru != rv:
            self.parent[rv] = ru

    def arrive(self, u, v, tick):
        key = (u, v) if u <= v else (v, u)
        self.active[key] = tick
        self._link(u, v)

    def age(self, threshold):
        self.active = {key: t for key, t in self.active.items() if t >= threshold}
        self.parent = {}
        for (u, v) in self.active:
            self._link(u, v)

    def connected(self, u, v):
        if u == v:
            return True
        if u not in self.parent or v not in self.parent:
            return False
        return self._find(u) == self._find(v)


def bounded_stream(rng, p, s, n, self_loops=True):
    """Observations whose unique edges fit the ring: the spanning forest
    needs at most s*(p-1) unions and unique storage stays under 3/4 of
    capacity, so the reference finishes within p passes."""
    nverts = max(4, min(int(0.9 * s * (p - 1)) + 1, int(0.5 * p * s)))
    unique_budget = max(3, int(0.75 * p * s) - 2)
    pool = set()
    while len(pool) < unique_budget and len(pool) < nverts * (nverts + 1) // 2:
        u, v = rng.randrange(nverts), rng.randrange(nverts)
        if u == v and not self_loops:
            continue
        pool.add((u, v))
    pool = sorted(pool)
    return [pool[rng.randrange(len(pool))] for _ in range(n)]


def check_hop_equivalence(ring, edges, p, s):
    """Tapped per-hop streams must equal the reference passes element for
    element; processor i plays the role of pass i+1."""
    from ringcc.multipass import run_multipass

    arrivals = [(u, u, v, v, i) for i, (u, v) in enumerate(edges)]
    passes = run_multipass(s, arrivals)
    assert len(passes) <= p
    for i in range(p):
        if i < len(passes):
            want_a = [tuple(e) for e in passes[i].edges]
            want_b = [tuple(x) for x in passes[i].labels]
        else:
            want_a = []
            want_b = [tuple(x) for x in passes[-1].labels]
        assert ring.tap_edges[i] == want_a, f"edge stream out of p{i}"
        assert ring.tap_dump[i] == want_b, f"dump stream out of p{i}"
