"""Shared brute-force oracles and reference implementations for the tests."""

from ringcc.model import EMPTY_BUNDLE, Age, Arrival, Bundle, FailSignal, LabeledEdge
from ringcc.multipass import static_cc
from ringcc.processor import NONTREE, TREE, UNRESOLVED
from ringcc.queries import ConnQuery, CountQuery
from ringcc.ring import Violation


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


def audit_scan(ring):
    """The layout checks of `Ring.audit_invariants`, processor by
    processor, without its summaries: one `Violation` per offending
    processor, in the same fixed order. The reference the auditor's
    summaries are compared against."""
    found = []
    procs = ring.processors
    p = ring.config.p
    s = ring.config.s
    aging = ring.junction.mode == "aging"
    scope = p
    if aging and ring.aging_started_tick is not None:
        scope = min(p, ring.t - ring.aging_started_tick + 1)
    in_scope = procs[:scope]

    builders = [pr.index for pr in in_scope if pr.is_builder]
    if len(builders) > 1:
        found.append(Violation(ring.t, "builder-count", -1,
                               f"{len(builders)} builders in scope {scope}"))
    b = builders[0] if builders else ring._builder_token_position()
    if b is None:
        found.append(Violation(ring.t, "builder-count", -1,
                               f"no builder in scope {scope}"))
    else:
        for pr in in_scope:
            ntree = len(pr.tree)
            if pr.index < b and ntree != s:
                found.append(Violation(ring.t, "tree-prefix", pr.index,
                                       f"sealed processor holds {ntree}/{s} tree edges"))
            if pr.index > b and ntree != 0:
                found.append(Violation(ring.t, "tree-downstream", pr.index,
                                       f"{ntree} tree edges downstream of builder {b}"))

    if not aging and ring.t >= ring.junction.age_hold_until:
        # steady-state packing; right after a deletion, trailing recycled
        # edges may still be refilling the transient hole at the head.
        # During a rebuild this clause is owned by the jeopardy exception:
        # an overloaded builder/loader legitimately parks edges in the
        # first open space further downstream.
        first_space = next((pr.index for pr in in_scope if pr.stored < s), scope)
        for pr in in_scope:
            if pr.index > first_space and (pr.tree or pr.nontree):
                found.append(Violation(ring.t, "space-prefix", pr.index,
                                       f"resolved edges beyond first open space {first_space}"))

    # only a deletion fills these pools, and it empties them before the
    # processor leaves it; the transit hop in process_bundle relies on it
    for pr in procs:
        if not pr.aging and (pr.untested or pr.unresolved):
            found.append(Violation(ring.t, "pending-outside-aging", pr.index,
                                   f"{len(pr.untested)} untested, "
                                   f"{len(pr.unresolved)} unresolved while not aging"))

    if aging:
        loader = next((pr.index for pr in in_scope if pr.is_loader), None)
        if loader is None:
            loader = ring._loader_token_position()
        if loader is not None:
            if builders and len(builders) == 1 and builders[0] > loader:
                found.append(Violation(ring.t, "builder-past-loader", builders[0],
                                       f"builder {builders[0]} > loader {loader}"))
            for pr in in_scope:
                if pr.index < loader and pr.unresolved:
                    found.append(Violation(ring.t, "unresolved-upstream", pr.index,
                                           f"{len(pr.unresolved)} unresolved before loader {loader}"))
    return found


def transit_rules(proc, b, one=False):
    """The transit hop's rules without its identity exit:
    `Processor.process_bundle` with every bundle it does not leave to the
    general path taking the rule loop, which itself declines a whole bundle
    at an aging builder or loader. The reference the exit is compared
    against."""
    if (proc.outq or b.builder_token) and not one:
        return proc._general(b)
    prim = b.primary
    payload = b.payload
    for e in payload:
        if type(e) is not LabeledEdge:
            return proc._general(b)
    builder = proc.is_builder
    aging = relay = proc.aging
    tp = type(prim)
    if aging:
        if builder or proc.is_loader:
            # the builder ages only as the loader, whose own work runs on
            # the general path: that hands the hop one edge at a time and
            # tests nothing here
            if not one:
                return proc._general(b)
            relay = False
        elif not (prim is None or tp is LabeledEdge):
            return proc._general(b)
    elif not (prim is None or tp is LabeledEdge or tp is ConnQuery or tp is CountQuery):
        return proc._general(b)
    dup = proc.dup
    # the union-find's block -> component map, read inline (see
    # unionfind); only the builder and a sealed processor hold one
    sets = proc.lc.sets
    changed = False
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
    for e in payload:
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
            # resolved: it settles while there is space; in a deletion
            # the builder and the loader trade for room
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
            # the newest non-tree edge keeps its equal labels and settles
            # downstream
            ep = proc.nontree.pop()
            proc._drop(ep)
            fwd.append(ep)
            proc._accept(e, TREE)
        else:
            # legal only for a builder whose seal is waiting on its loader
            # duty; otherwise sealing should have happened first
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
                # builder duty must not overtake the loader: both tokens
                # leave together once recycling here is done
                proc.seal_pending = True
            else:
                token = True
                builder = proc.is_builder = False
                proc.sealed = True
    if relay and proc.untested and not one:
        proc._downstream_testing()
    out = b
    if changed:
        if len(fwd) == proc.k:
            # every payload slot is taken: the last item spills into the
            # free primary slot, as the general path's `Packer` packs it
            prim = fwd.pop()
        if prim is None and not fwd and not token:
            out = EMPTY_BUNDLE
        else:
            out = Bundle(prim, fwd, token)
    monitor = proc.monitor
    if monitor is None or one or aging or not monitor.should_start(proc.stored):
        return out
    # the policy starts on this tick: its probe takes the first free
    # payload slot, or waits in the queue
    probe = monitor.start()
    if len(out.payload) < proc.k - 1:
        return Bundle(out.primary, [*out.payload, probe], out.builder_token)
    proc.outq.append(probe)
    return out
