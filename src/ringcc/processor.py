"""One ring position.

A processor ingests a k-slot bundle each tick, updates its stores, and emits
exactly k slots. New edges are classified against the local union-find on
their way to the builder; duplicates are absorbed wherever their stored copy
lives; non-tree edges settle into the first open space. During bulk deletion
the same driver additionally runs the testing and recycling phases.

A processor with no work of its own (not the builder, not aging, not the
tail, nothing queued, no builder token arriving) hands a bundle of edges,
behind an optional connectivity or count query, to a transit hop that does
slot by slot what the general path would:

- a duplicate is absorbed and the stored copy keeps the newer timestamp;
- a sealed processor holds s tree edges, so it is full and cannot store:
  it relabels an edge whose labels differ through its union-find, leaves an
  already resolved one (equal labels) alone, and forwards either in its slot;
- any other such processor is strictly downstream of the builder and has no
  connectivity information: an edge with equal labels settles as non-tree
  while space lasts, and every other edge rides on in its slot. Outside a
  deletion it holds no unresolved edge that a full store could trade;
- a connectivity query relabels both endpoints and is answered once they
  meet; a count query adds the stored count.

An aging processor that is not the loader (the tail included) takes the
same hop for a bundle of payload edges with an empty primary slot, when
nothing is queued and no builder token arrives. The loader has not reached
it, so it stores no payload edge: a duplicate is absorbed as above, every
other edge rides on in its slot whatever its labels, and then k-1 of its own
untested edges are tested, as on the general path.

Every other bundle takes the general path, which stays the reference.
"""

from __future__ import annotations

import random
from collections import deque

from .aging import (
    AutoAgeMonitor,
    EmptySystem,
    ReservoirSample,
    StatsProbe,
    SurvivorProbe,
)
from .model import (
    EMPTY_BUNDLE,
    LOADER_TOKEN,
    AgeRequest,
    AgingToken,
    ArmAutoAge,
    Bundle,
    FailSignal,
    LabeledEdge,
    LoaderToken,
)
from .queries import (
    ConnQuery,
    CountQuery,
    DumpCommand,
    DumpEnd,
    DumpPair,
    MaxCommand,
    PhaseDone,
    QueryDone,
    QueryScratch,
    SizeMsg,
    SmallCommand,
    TreeCommand,
    TreeDumpEnd,
    TreeEdgeMsg,
    VertexMsg,
)
from .unionfind import LocalComponents

TREE = 0
NONTREE = 1
UNRESOLVED = 2

STORE = True
FORWARD = False


class SlotOverflow(RuntimeError):
    """More than k slots were packed in one tick; a protocol bug."""


class Packer:
    """Builds one outgoing bundle.

    The primary slot is claimed by whatever the incoming primary turned into
    (forwarded item, or empty if it settled). Payload packing overflows into
    an empty primary only when every payload slot is taken, which is the
    spill an overloaded builder/loader uses to stay within k slots.
    """

    __slots__ = ("payload_cap", "primary", "payload", "builder_token")

    def __init__(self, k):
        self.payload_cap = k - 1
        self.primary = None
        self.payload = []
        self.builder_token = False

    def set_primary(self, item):
        if self.primary is not None:
            raise SlotOverflow("primary slot already occupied")
        self.primary = item

    def payload_space(self):
        return self.payload_cap - len(self.payload)

    def pack(self, item):
        if len(self.payload) < self.payload_cap:
            self.payload.append(item)
        elif self.primary is None:
            self.primary = item
        else:
            raise SlotOverflow("bundle already holds k slots")

    def pack_spill(self, edge):
        """Unresolved edge forced out by a full builder/loader; prefers the
        primary slot, the one place guaranteed free in that situation."""
        if self.primary is None:
            self.primary = edge
        else:
            self.pack(edge)

    def bundle(self):
        if self.primary is None and not self.payload and not self.builder_token:
            return EMPTY_BUNDLE
        return Bundle(self.primary, self.payload, self.builder_token)


class Processor:
    """State and behavior of ring position `index`.

    `reservoir`, the automatic policy's uniform sample of this store, is
    None until the policy is armed: it is built at construction when
    `config.auto_age_c` is set, and otherwise when an `ArmAutoAge` passes,
    seeded then from the edges already stored here.
    """

    def __init__(self, index, config, hooks=None):
        self.index = index
        self.config = config
        self.p = config.p
        self.s = config.s
        self.k = config.k
        self.is_head = index == 0
        self.is_tail = index == config.p - 1
        self.hooks = hooks

        self.lc = LocalComponents(config.s)
        self.tree = []
        self.nontree = []
        self.untested = deque()
        self.unresolved = deque()
        self.dup = {}
        self.stored = 0

        self.reservoir = None
        if config.auto_age_c is not None:
            self._start_sampler()

        self.is_builder = self.is_head
        self.sealed = False
        self.aging = False
        self.is_loader = False
        self.seal_pending = False
        self.predicate = None
        self.deletions = 0

        self.scratch = None
        self.outq = deque()

        self.monitor = None
        if self.is_tail and config.auto_age_c is not None:
            self.monitor = AutoAgeMonitor(
                config.auto_age_c, config.auto_age_margin,
                config.p, config.s, config.k, config.search_circuits)

        self._pk = Packer(config.k)

    # ------------------------------------------------------------------ tick

    def process_bundle(self, b):
        if (self.aging or not self.is_tail) and not (
                self.is_builder or self.outq or b.builder_token):
            out = self._transit(b)
            if out is not None:
                return out
        pk = self._pk
        pk.primary = None
        pk.payload = []
        pk.builder_token = False
        if b.builder_token:
            self.is_builder = True
        prim = b.primary
        if prim is not None:
            self._primary_slot(prim, pk)
            if b.builder_token and type(prim) is AgingToken:
                # begin_aging just reset the role, but the sender began aging
                # before it passed builder duty on: the token belongs to the
                # new regime and must survive
                self.is_builder = True
        for item in b.payload:
            if item is not None:
                self._payload_slot(item, pk)
        if self.aging:
            self._aging_phase(pk)
        if self.monitor is not None and not self.aging:
            if self.monitor.should_start(self.stored):
                self.outq.append(self.monitor.start())
        outq = self.outq
        while outq and pk.payload_space() > 0:
            pk.pack(outq.popleft())
        return pk.bundle()

    def _transit(self, b):
        """The general path, slot by slot, for a processor that is not the
        builder, has nothing queued and gets no builder token, and that is
        either aging or not the tail. Outside a deletion it returns None,
        leaving the bundle to the general path, when a slot holds anything
        but an edge, or a connectivity or count query in the primary slot.
        While aging it relays payload edges and then tests its own, and
        returns None for the loader, a sealed processor, an occupied primary
        slot or a payload item that is not an edge."""
        prim = b.primary
        payload = b.payload
        for e in payload:
            if type(e) is not LabeledEdge:
                return None
        if self.aging:
            # the head is the loader for as long as it ages, so this is a
            # processor downstream of the loader, where _aging_phase tests
            if prim is not None or self.is_loader or self.sealed:
                return None
            dup = self.dup
            fwd = []
            for e in payload:
                rec = dup.get(e.ck)
                if rec is None:
                    fwd.append(e)
                elif e.t > rec.t:
                    rec.t = e.t
            if self.untested:
                self._downstream_testing()
            if not fwd:
                return EMPTY_BUNDLE
            if len(fwd) == len(payload):
                return b
            return Bundle(None, fwd)
        tp = type(prim)
        if not (prim is None or tp is LabeledEdge or tp is ConnQuery or tp is CountQuery):
            return None
        dup = self.dup
        lc = self.lc
        sealed = self.sealed
        changed = False
        if tp is LabeledEdge:
            rec = dup.get(prim.ck)
            if rec is not None:
                if prim.t > rec.t:
                    rec.t = prim.t
                prim = None
                changed = True
            elif sealed:
                if prim.lu != prim.lv:
                    prim.lu = lc.relabel(prim.lu)
                    prim.lv = lc.relabel(prim.lv)
            elif prim.lu == prim.lv and self.stored < self.s:
                self._accept(prim, NONTREE)
                prim = None
                changed = True
        elif tp is ConnQuery:
            if not prim.answer:
                prim.lu = lc.relabel(prim.lu)
                prim.lv = lc.relabel(prim.lv)
                if prim.lu == prim.lv:
                    prim.answer = True
        elif tp is CountQuery:
            prim.n += self.stored
        fwd = []
        for e in payload:
            rec = dup.get(e.ck)
            if rec is not None:
                if e.t > rec.t:
                    rec.t = e.t
                changed = True
            elif sealed:
                if e.lu != e.lv:
                    e.lu = lc.relabel(e.lu)
                    e.lv = lc.relabel(e.lv)
                fwd.append(e)
            elif e.lu == e.lv and self.stored < self.s:
                self._accept(e, NONTREE)
                changed = True
            else:
                fwd.append(e)
        if not changed:
            return b
        if prim is None and not fwd:
            return EMPTY_BUNDLE
        return Bundle(prim, fwd)

    # ------------------------------------------------------- slot dispatch

    def _primary_slot(self, item, pk):
        if type(item) is LabeledEdge:
            self._process_edge(item, True, pk)
        elif type(item) is ConnQuery:
            if not item.answer:
                item.lu = self.lc.relabel(item.lu)
                item.lv = self.lc.relabel(item.lv)
                if item.lu == item.lv:
                    item.answer = True
            pk.set_primary(item)
        elif type(item) is CountQuery:
            item.n += self.stored
            pk.set_primary(item)
        elif type(item) is AgingToken:
            self.begin_aging(item.predicate)
            pk.set_primary(item)
        elif type(item) is DumpCommand:
            self.scratch = QueryScratch("dump", item.qid)
            if self.is_head:
                for block, name in self.lc.relationships():
                    self.outq.append(DumpPair(block, name))
                self.outq.append(DumpEnd(item.qid))
                self.scratch = None
            pk.set_primary(item)
        elif type(item) is TreeCommand:
            self.scratch = QueryScratch("tree", item.qid)
            if self.is_head:
                self._emit_tree_edges(item.qid)
                self.scratch = None
            pk.set_primary(item)
        elif type(item) is SmallCommand:
            self.scratch = QueryScratch("small", item.qid, item.limit)
            if self.is_head:
                self._finish_sizes()  # nothing upstream folds into the head
                self._emit_sizes(PhaseDone(item.qid))
            pk.set_primary(item)
        elif type(item) is MaxCommand:
            self.scratch = QueryScratch("max", item.qid)
            if self.is_head:
                self._finish_sizes()
                self._emit_sizes(PhaseDone(item.qid))
                self.scratch = None
            pk.set_primary(item)
        elif type(item) is ArmAutoAge:
            if self.reservoir is None:
                self._start_sampler()
            if self.is_tail:
                self._arm_monitor(item.target_c)
            pk.set_primary(item)
        else:
            # unknown primary traffic passes through untouched
            pk.set_primary(item)

    def _payload_slot(self, item, pk):
        t = type(item)
        if t is LabeledEdge:
            self._process_edge(item, False, pk)
        elif t is LoaderToken:
            self.is_loader = True
        elif t is DumpPair:
            item.name = self.lc.relabel(item.name)
            self.outq.append(item)
        elif t is DumpEnd:
            for block, name in self.lc.relationships():
                self.outq.append(DumpPair(block, name))
            self.outq.append(item)
            self.scratch = None
        elif t is TreeEdgeMsg:
            self.outq.append(item)
        elif t is TreeDumpEnd:
            self._emit_tree_edges(item.qid)
            self.outq.append(item)
            self.scratch = None
        elif t is SizeMsg:
            sc = self.scratch
            if sc is not None and item.name in sc.orphan_pending and item.size == 1:
                # our own self-loop claim came all the way back: nobody owns
                # this vertex, so it really is a one-vertex component
                sc.confirmed_orphans.add(item.name)
            elif sc is not None and self.lc.consumed(item.name):
                if item.size == 1:
                    # a self-loop orphan claim for a vertex we own; its count
                    # already flows through the regular chain, so just absorb
                    pass
                else:
                    # the named block is one of ours: fold the upstream size
                    # in, minus the provisional 1 it got if its label looked
                    # primitive
                    rep = self.lc.find(item.name)
                    bump = item.size - (1 if self.lc.arrived_primitive(item.name) else 0)
                    sc.extra[rep] = sc.extra.get(rep, 0) + bump
                    sc.upstream_names.add(item.name)
            else:
                self.outq.append(item)
        elif t is PhaseDone:
            sc = self.scratch
            if sc is None:
                self.outq.append(item)
            elif self.is_head:
                # sizes are final everywhere; start shipping member vertices
                self._emit_vertices()
                self.outq.append(QueryDone(sc.qid))
                self.scratch = None
            else:
                self._finish_sizes()
                self._emit_sizes(item)
                if sc.kind == "max":
                    self.scratch = None
        elif t is VertexMsg:
            sc = self.scratch
            if sc is not None and self.lc.consumed(item.name):
                rep = self.lc.find(item.name)
                if sc.final_sizes.get(rep, 0) <= sc.limit:
                    item.name = rep
                    self.outq.append(item)
                # otherwise the enclosing component is too large: dropped
            else:
                self.outq.append(item)
        elif t is QueryDone:
            if self.scratch is not None:
                self._emit_vertices()
            self.outq.append(item)
            self.scratch = None
        elif t is StatsProbe:
            self._fold_stats(item)
            if self.is_tail:
                if self.monitor is not None:
                    self._consume_stats(item)
                # a disarmed tail swallows stale probes
            else:
                self.outq.append(item)
        elif t is SurvivorProbe:
            # the tail arms only after the ArmAutoAge has passed every
            # processor, so every processor a probe reaches has a sampler
            item.fold(self.stored * self.reservoir.survivor_fraction(item.threshold))
            if self.is_tail:
                if self.monitor is not None:
                    self._consume_survivors(item)
            else:
                self.outq.append(item)
        else:
            self.outq.append(item)

    # ------------------------------------------------- constituent functions

    def _process_edge(self, e, primary, pk):
        rec = self.dup.get(e.ck)
        if rec is not None:
            # duplicates never propagate; the stored copy keeps the newest
            # timestamp (during aging either side could be newer)
            if e.t > rec.t:
                rec.t = e.t
            return
        if not (self.is_builder or self.sealed):
            # strictly downstream of the builder: no connectivity information.
            # Resolved traffic (equal labels) looks for a home wherever the
            # local rebuild is not mid-flight; an unresolved edge may settle
            # only where a loader will still come for it, and otherwise keeps
            # riding until it re-enters through the head.
            if e.lu == e.lv:
                if primary or self.is_loader or not self.aging:
                    self._store_or_forward(e, primary, NONTREE, pk)
                else:
                    pk.pack(e)
            elif primary:
                if self.aging:
                    self._store_or_forward(e, True, UNRESOLVED, pk)
                else:
                    pk.set_primary(e)
            else:
                pk.pack(e)
            return
        if e.lu == e.lv:
            self._store_or_forward(e, primary, NONTREE, pk)
        elif not self._potential_tree_edge(e, primary, pk):
            self._store_or_forward(e, primary, NONTREE, pk)

    def _potential_tree_edge(self, e, primary, pk):
        """Relabel; False means the edge just revealed itself as non-tree.
        The builder stores it (this must succeed); a sealed processor passes
        it on for a downstream builder to resolve."""
        lc = self.lc
        e.lu = lc.relabel(e.lu)
        e.lv = lc.relabel(e.lv)
        if e.lu == e.lv:
            return False
        if self.is_builder:
            # the store can only bounce while untested edges pin the space;
            # the edge then overflows unresolved and retries via the head
            self._store_or_forward(e, primary, TREE, pk)
            if len(self.tree) >= self.s:
                if self.is_loader:
                    # builder duty must not overtake the loader: both tokens
                    # leave together once recycling here is done
                    self.seal_pending = True
                else:
                    pk.builder_token = True
                    self.is_builder = False
                    self.sealed = True
        else:
            if primary:
                pk.set_primary(e)
            else:
                pk.pack(e)
        return True

    def _store_or_forward(self, e, primary, cls, pk):
        if self.stored >= self.s:
            if self.is_tail:
                pk.pack(FailSignal(e, self.index))
                return FORWARD
            if cls == UNRESOLVED:
                if primary:
                    pk.set_primary(e)
                else:
                    pk.pack(e)
                return FORWARD
            ep = self._jettison_unresolved()
            if ep is not None:
                ep.reset_labels()  # recycles through the head as a fresh edge
                pk.pack(ep)
            elif self.aging and self.untested:
                # no unresolved pool yet (mid-rebuild): test one pinned edge
                # right now; a failure frees the slot outright, a survivor
                # becomes the evictee and recycles like any unresolved edge
                ep = self.untested.popleft()
                self._drop(ep)
                if self.predicate(ep):
                    ep.reset_labels()
                    pk.pack(ep)
                else:
                    self.deletions += 1
            else:
                if cls == NONTREE:
                    # no need to evict anything to keep a non-tree edge
                    if primary:
                        pk.set_primary(e)
                    else:
                        pk.pack(e)
                    return FORWARD
                ep = self._jettison_nontree()
                if ep is None:
                    # a tree candidate with nothing evictable: legal only for
                    # a builder whose seal is waiting on its loader duty;
                    # otherwise sealing should have happened first
                    if not self.seal_pending and self.hooks is not None:
                        self.hooks.violation("tree-jettison-missing", self.index,
                                             f"full of tree edges, got {e!r}")
                    e.reset_labels()
                    if primary:
                        pk.set_primary(e)
                    else:
                        pk.pack(e)
                    return FORWARD
                pk.pack(ep)  # keeps its equal labels; settles downstream
        self._accept(e, cls)
        return STORE

    # --------------------------------------------------------- store helpers

    def _accept(self, e, cls):
        if cls == TREE:
            self.lc.union(e.lu, e.lv,
                          bx_vertex=e.u if e.lu == e.u else None,
                          by_vertex=e.v if e.lv == e.v else None)
            self.tree.append(e)
        elif cls == NONTREE:
            self.nontree.append(e)
        else:
            self.unresolved.append(e)
        key = e.ck
        self.dup[key] = e
        self.stored += 1
        reservoir = self.reservoir
        if reservoir is not None:
            reservoir.insert(e.u, e.v, e.t)
        if self.hooks is not None:
            self.hooks.stored(key, self.index)

    def _drop(self, e):
        key = e.ck
        del self.dup[key]
        self.stored -= 1
        if self.hooks is not None:
            self.hooks.removed(key, self.index)

    def _jettison_unresolved(self):
        if not self.unresolved:
            return None
        e = self.unresolved.pop()  # most recently stored first
        self._drop(e)
        return e

    def _jettison_nontree(self):
        if not self.nontree:
            return None
        e = self.nontree.pop()
        self._drop(e)
        return e

    # ------------------------------------------------------------- aging

    def begin_aging(self, predicate):
        """Forget the connectivity structure and reclassify every stored edge
        as untested. Duplicate tracking survives: entries follow the edges
        into the untested list."""
        if self.hooks is not None and (self.unresolved or self.untested):
            self.hooks.violation("aging-reentry", self.index,
                                 "previous deletion still in progress")
        self.lc.reset()
        for e in self.tree:
            e.reset_labels()
            self.untested.append(e)
        for e in self.nontree:
            e.reset_labels()
            self.untested.append(e)
        self.tree.clear()
        self.nontree.clear()
        self.aging = True
        self.predicate = predicate
        self.is_builder = self.is_head
        self.sealed = False
        self.is_loader = self.is_head
        self.seal_pending = False
        self.deletions = 0
        if self.reservoir is not None:
            self.reservoir.reset()
        if self.monitor is not None:
            self.monitor.reset()
        self.scratch = None
        self.outq.clear()

    def _aging_phase(self, pk):
        if self.is_loader:
            if self.is_head:
                self._head_testing(pk)
            else:
                self._loader_phase(pk)
        elif not self.is_head and self.untested:
            self._downstream_testing()

    def _head_testing(self, pk):
        """The head tests k-1 of its own edges per tick and resolves the
        survivors immediately instead of recycling them around the ring."""
        pred = self.predicate
        for i in range(1, self.k):
            if not self.untested:
                self._pass_loader_token(pk)
                break
            e = self.untested.popleft()
            self._drop(e)
            if pred(e):
                if i == self.k - 1 and self.stored >= self.s - 1 and e.u != e.v:
                    # re-storing this survivor would leave the head full; send
                    # it downstream instead so the next stream edge always
                    # finds a slot here. Self-loops stay put: their equal
                    # labels would read as already-resolved in transit.
                    e.reset_labels()
                    pk.pack_spill(e)
                else:
                    self._process_edge(e, False, pk)
            else:
                self.deletions += 1

    def _loader_phase(self, pk):
        if self.untested:
            # the token can land a tick before testing wraps up; finish the
            # backlog at the usual per-tick rate, then start recycling
            self._downstream_testing()
            if self.untested:
                return
        while pk.payload_space() > 0:
            if not self.unresolved:
                self._pass_loader_token(pk)
                break
            e = self.unresolved.popleft()
            self._drop(e)
            e.reset_labels()
            pk.pack(e)

    def _downstream_testing(self):
        pred = self.predicate
        for _ in range(self.k - 1):
            if not self.untested:
                break
            e = self.untested.popleft()
            if pred(e):
                self.unresolved.append(e)  # stays stored; duplicate entry kept
            else:
                self._drop(e)
                self.deletions += 1

    def _pass_loader_token(self, pk):
        if pk.payload_space() > 0:
            pk.pack(LOADER_TOKEN)
            self.is_loader = False
            self.aging = False
            self.predicate = None
            if self.seal_pending:
                pk.builder_token = True
                self.is_builder = False
                self.sealed = True
                self.seal_pending = False
        # else: retry next tick; the token never displaces an edge

    # ------------------------------------------------------------- queries

    def _orphan_candidates(self):
        """Vertices whose only local trace is a stored self-loop that the
        union-find never consumed. They may be one-vertex components, or one
        of their real edges may live at another processor; the wrapped
        size-1 claim settles which."""
        return [e.u for e in self.nontree
                if e.u == e.v and e.lu == e.u and not self.lc.consumed(e.u)]

    def _finish_sizes(self):
        sc = self.scratch
        if sc is not None and sc.final_sizes is None:
            extra = sc.extra
            sc.final_sizes = {rep: base + extra.get(rep, 0)
                              for rep, base in self.lc.components()}

    def _emit_sizes(self, end_token):
        sc = self.scratch
        for rep, size in sc.final_sizes.items():
            self.outq.append(SizeMsg(rep, size))
        for v in self._orphan_candidates():
            sc.orphan_pending.add(v)
            self.outq.append(SizeMsg(v, 1))
        self.outq.append(end_token)

    def _emit_vertices(self):
        sc = self.scratch
        limit = sc.limit
        sizes = sc.final_sizes
        skip = sc.upstream_names
        for block, vertex, rep in self.lc.member_vertices():
            if block in skip:
                continue  # an upstream component's name, not a vertex of ours
            if sizes.get(rep, 0) <= limit:
                self.outq.append(VertexMsg(rep, vertex))
        if limit >= 1:
            for v in sc.confirmed_orphans:
                self.outq.append(VertexMsg(v, v))

    def _emit_tree_edges(self, qid):
        for e in self.tree:
            self.outq.append(TreeEdgeMsg(e.u, e.v, e.t))
        self.outq.append(TreeDumpEnd(qid))

    # ------------------------------------------------------------- policy

    def _start_sampler(self):
        """Build the reservoir sample and seed it with the current store, in
        storage order, through the ordinary insert. An empty store draws no
        random number, so arming at tick 0 samples exactly as arming at
        construction does."""
        cfg = self.config
        rng = random.Random(f"{cfg.seed}/reservoir/{self.index}")
        self.reservoir = ReservoirSample(cfg.reservoir, rng)
        for e in self.dup.values():
            self.reservoir.insert(e.u, e.v, e.t)

    def _arm_monitor(self, target_c):
        cfg = self.config
        self.monitor = AutoAgeMonitor(target_c, cfg.auto_age_margin,
                                      self.p, self.s, self.k,
                                      cfg.search_circuits)

    def _fold_stats(self, probe):
        if self.stored:
            ts = [e.t for e in self.dup.values()]
            probe.fold(self.stored, min(ts), max(ts))

    def _consume_stats(self, probe):
        try:
            nxt = self.monitor.on_stats(probe)
        except EmptySystem:
            return
        if nxt is not None:
            self.outq.append(nxt)
        elif self.monitor.phase == "request":
            self._send_age_request()

    def _consume_survivors(self, probe):
        nxt = self.monitor.on_survivors(probe)
        if nxt is not None:
            self.outq.append(nxt)
        elif self.monitor.phase == "request":
            self._send_age_request()

    def _send_age_request(self):
        self.outq.append(AgeRequest(self.monitor.threshold()))
        self.monitor.phase = "wait"
