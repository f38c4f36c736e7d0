"""Shared brute-force oracles and reference implementations for the tests."""

from ringcc.model import EMPTY_BUNDLE, Age, AgingToken, Arrival, Bundle, FailSignal, LabeledEdge
from ringcc.multipass import static_cc
from ringcc.processor import NONTREE, TREE, UNRESOLVED, SlotOverflow
from ringcc.queries import ConnQuery, CountQuery


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


def transit_rules(proc, b):
    """The hop's rules without its identity exit: `Processor.process_bundle`
    with every bundle taking the rules. The reference the exit is compared
    against."""
    prim = b.primary
    payload = b.payload
    # an arriving builder token makes this processor the builder and is
    # left out of the output
    changed = b.builder_token
    if changed:
        proc.is_builder = True
    tp = type(prim)
    if not (prim is None or tp is LabeledEdge or tp is ConnQuery or tp is CountQuery):
        # a message rides on in its slot
        proc._primary_slot(prim)
        changed = True
        if b.builder_token and tp is AgingToken:
            # begin_aging just reset the role, but the sender began aging
            # before it passed builder duty on: the token belongs to the
            # new regime and must survive
            proc.is_builder = True
    builder = proc.is_builder
    aging = proc.aging
    relay = aging and not (builder or proc.is_loader)
    dup = proc.dup
    # the union-find's block -> component map, read inline (see
    # unionfind); only the builder and a sealed processor hold one
    sets = proc.lc.sets
    token = False
    fwd = []
    first = None
    if tp is LabeledEdge:
        if builder:
            # the builder's rules below take the primary edge first, and
            # put it back in its slot if it rides on
            first = prim
            payload = (prim, *payload)
            prim = None
        else:
            rec = dup.get(prim.ck)
            if rec is not None:
                if prim.t > rec.t:
                    rec.t = prim.t
                prim = None
                changed = True
            else:
                if prim.lu != prim.lv and sets:
                    c = sets.get(prim.lu)
                    if c is not None:
                        prim.lu = c.name
                    c = sets.get(prim.lv)
                    if c is not None:
                        prim.lv = c.name
                if prim.lu == prim.lv:
                    if proc.stored < proc.s:
                        proc._accept(prim, NONTREE)
                        prim = None
                        changed = True
                    elif proc.is_tail:
                        fwd.append(FailSignal(prim, proc.index))
                        prim = None
                        changed = True
                    elif aging and proc._room_in_deletion(fwd):
                        proc._accept(prim, NONTREE)
                        prim = None
                        changed = True
                elif aging:
                    # behind the builder it may settle unresolved, for
                    # the loader to recycle
                    if proc.stored < proc.s:
                        proc._accept(prim, UNRESOLVED)
                        prim = None
                        changed = True
                    elif proc.is_tail:
                        fwd.append(FailSignal(prim, proc.index))
                        prim = None
                        changed = True
    elif tp is ConnQuery:
        # an empty union-find, as downstream of the builder, relabels
        # nothing, and whoever changed the labels last compared them
        if sets and not prim.answer:
            c = sets.get(prim.lu)
            if c is not None:
                prim.lu = c.name
            c = sets.get(prim.lv)
            if c is not None:
                prim.lv = c.name
            if prim.lu == prim.lv:
                prim.answer = True
    elif tp is CountQuery:
        prim.n += proc.stored
    # the head ages only as the loader: after the payload it tests k-1
    # of its own edges, and each survivor takes the rules below as a
    # payload edge before the next test
    tests = proc.k - 1 if aging and proc.is_head else 0
    if tests:
        changed = True
    while True:
        for e in payload:
            if type(e) is not LabeledEdge:
                # a message; a `LoaderToken` makes this processor the
                # loader for the edges behind it
                proc._payload_slot(e)
                relay = relay and not proc.is_loader
                changed = True
                continue
            rec = dup.get(e.ck)
            if rec is not None:
                if e.t > rec.t:
                    rec.t = e.t
                changed = True
                continue
            if relay:
                fwd.append(e)
                continue
            if e.lu != e.lv and sets:
                c = sets.get(e.lu)
                if c is not None:
                    e.lu = c.name
                c = sets.get(e.lv)
                if c is not None:
                    e.lv = c.name
            if e.lu == e.lv:
                # resolved: it settles while there is space; in a
                # deletion the builder and the loader trade for room
                if proc.stored < proc.s:
                    proc._accept(e, NONTREE)
                elif proc.is_tail:
                    fwd.append(FailSignal(e, proc.index))
                elif aging and proc._room_in_deletion(fwd):
                    proc._accept(e, NONTREE)
                elif not builder:
                    fwd.append(e)
                    continue
                else:
                    if e is first:
                        prim = e
                    else:
                        fwd.append(e)
                    continue
                changed = True
                continue
            if not builder:
                fwd.append(e)
                continue
            # a tree edge: the builder makes room for it if it can
            changed = True
            if proc.stored < proc.s:
                proc._accept(e, TREE)
            elif proc.is_tail:
                fwd.append(FailSignal(e, proc.index))
            elif aging and proc._room_in_deletion(fwd):
                proc._accept(e, TREE)
            elif proc.nontree:
                # the newest non-tree edge keeps its equal labels and
                # settles downstream
                ep = proc.nontree.pop()
                proc._drop(ep)
                fwd.append(ep)
                proc._accept(e, TREE)
            else:
                # legal only for a builder whose seal is waiting on its
                # loader duty; otherwise sealing should have happened
                # first
                if not proc.seal_pending and proc.hooks is not None:
                    proc.hooks.violation("tree-jettison-missing", proc.index,
                                         f"full of tree edges, got {e!r}")
                e.reset_labels()
                if e is first:
                    prim = e
                else:
                    fwd.append(e)
            if len(proc.tree) >= proc.s:
                if proc.is_loader:
                    # builder duty must not overtake the loader: both
                    # tokens leave together once recycling here is done
                    proc.seal_pending = True
                else:
                    token = True
                    builder = proc.is_builder = False
                    proc.sealed = True
        if not tests:
            break
        tests -= 1
        payload = ()
        untested = proc.untested
        if not untested:
            if proc._pass_loader_token(fwd):
                token = True
            break
        if not tests and len(fwd) + (prim is not None) >= proc.k:
            # no slot is free for the last test's spill: the edge waits
            # at the front of the pool until the next tick
            break
        e = untested.popleft()
        proc._drop(e)
        if not proc.predicate(e):
            proc.deletions += 1
            continue
        e.reset_labels()
        if not tests and proc.stored >= proc.s - 1 and e.u != e.v:
            # re-storing this survivor would leave the head full; send it
            # downstream instead so the next stream edge always finds a
            # slot here. Self-loops stay put: their equal labels would
            # read as already-resolved in transit. It takes the primary
            # slot when that is free.
            if prim is None:
                prim = e
            else:
                fwd.append(e)
            break
        payload = (e,)
    if aging and not proc.is_head:
        if proc.is_loader:
            changed = True
            if proc._loader_phase(fwd):
                token = True
        elif proc.untested:
            proc._downstream_testing()
    monitor = proc.monitor
    if monitor is not None and not proc.aging and monitor.should_start(proc.stored):
        # the policy starts on this tick: its probe takes the first free
        # payload slot, or waits in the queue
        proc.outq.append(monitor.start())
    outq = proc.outq
    while outq and len(fwd) < proc.k - 1:
        fwd.append(outq.popleft())
        changed = True
    if not changed:
        return b
    if len(fwd) >= proc.k:
        # every payload slot is taken: the k-th item spills into a free
        # primary slot
        if prim is not None or len(fwd) > proc.k:
            raise SlotOverflow("bundle already holds k slots")
        prim = fwd.pop()
    if prim is None and not fwd and not token:
        return EMPTY_BUNDLE
    return Bundle(prim, fwd, token)
