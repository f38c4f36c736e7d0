"""One ring position.

A processor ingests a k-slot bundle each tick, updates its stores, and emits
exactly k slots. New edges are classified against the local union-find on
their way to the builder; duplicates are absorbed wherever their stored copy
lives; non-tree edges settle into the first open space. During bulk deletion
the same hop additionally runs the testing and recycling phases.

Every bundle takes one path, the hop (`Processor.process_bundle`), at every
processor and in every role. Its rules for an edge:

- a duplicate is absorbed and the stored copy keeps the newer timestamp;
- the builder and a sealed processor relabel an edge whose labels differ
  through their union-find, and leave an already resolved one (equal
  labels) alone. No other processor holds connectivity information;
- an edge with equal labels settles as non-tree while space lasts, and
  otherwise rides on in its slot. A sealed processor holds s tree edges, so
  it is full and cannot store. Only a deletion leaves a full store holding
  an unresolved or untested edge to trade for room;
- while aging, a processor behind the builder settles its primary edge: as
  non-tree when the labels are equal, trading for room when full, and as
  unresolved, for the loader to recycle, while space lasts when they
  differ. The loader settles an equal-label payload edge the same way; any
  other payload edge rides on in its slot;
- at the builder, an edge whose labels still differ is a tree edge. A full
  builder makes room for it by evicting its newest non-tree edge, which
  rides on in the next payload slot. At s tree edges the builder seals, and
  its output carries the builder token;
- a full tail sends a `FailSignal` where it would have settled an edge.

Every other item is a message, dispatched where it sits, in slot order: one
in the primary slot rides on in it, and one in a payload slot is taken here
or queued. A `LoaderToken` makes the processor the loader for the edges
behind it. A connectivity query in the primary slot has its endpoints
relabelled and is answered once they meet; a count query adds the stored
count. After the payload an aging processor does its share of the deletion:
the head tests k-1 of its own edges and each survivor takes the rules as a
payload edge, the loader recycles its unresolved edges, and a relay tests
k-1 edges. At the tail the automatic policy may then start. Queued messages
drain into free payload slots; a k-th item spills into a free primary slot,
and one more is a protocol error (`SlotOverflow`).

Most hops carry one edge, or change nothing: a full relay, a sealed
processor, a full builder and an aging relay pass most bundles on as they
came. The hop therefore has two exits before the rules. The lone-edge exit
takes an edge in the primary slot with nothing beside it, outside a
deletion and away from the tail, and finishes it as the rules would: it
absorbs a duplicate, settles the edge where there is room, and passes it
otherwise. It declines only a full builder's tree edge and the edge that
seals the builder, and it writes only where it returns, so a lone edge it
declines has only been relabelled. The identity exit asks the same rules
whether anything in any other bundle changes, in the order that declines
soonest, and if nothing does returns the bundle itself. It writes nothing
but relabels; a query is answered only in a bundle that passes. The rules
make the same relabels, and a relabel is idempotent (a component's name
maps to itself), so a bundle either exit declines meets the rules as if it
had not run.
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
    DumpPair,
    PhaseDone,
    QueryCommand,
    QueryEnd,
    QueryScratch,
    SizeMsg,
    TreeEdgeMsg,
    VertexMsg,
)
from .unionfind import LocalComponents

TREE = 0
NONTREE = 1
UNRESOLVED = 2


class SlotOverflow(RuntimeError):
    """More than k slots were packed in one tick; a protocol bug."""


class Processor:
    """State and behavior of ring position `index`.

    `reservoir`, the automatic policy's uniform sample of this store, is
    None until the policy is armed: it is built at construction when
    `config.auto_age_c` is set, and otherwise when an `ArmAutoAge` passes,
    seeded then from the edges already stored here.
    """

    __slots__ = ("index", "config", "p", "s", "k", "is_head", "is_tail", "hooks",
                 "lc", "tree", "nontree", "untested", "unresolved", "dup", "stored",
                 "reservoir", "is_builder", "sealed", "aging", "is_loader",
                 "seal_pending", "predicate", "deletions", "scratch", "outq",
                 "monitor")

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
            self._arm_monitor(config.auto_age_c)

    # ------------------------------------------------------------------ tick

    def process_bundle(self, b):
        """The hop: the one path a bundle takes at any processor, in every
        role. The ring calls it once per scheduled hop; nothing inside
        `Processor` calls it.

        The primary slot goes first, then each payload slot in order, then,
        while aging, this processor's share of the deletion (see the module
        docstring). An arriving builder token makes this processor the
        builder and goes no further; the builder token leaves when the
        builder seals, or with the loader token when the seal waited on
        loader duty. A bundle the hop leaves as it came is returned itself.

        Two exits come before the rules, with nothing queued and no builder
        token arriving, and neither runs at the tail outside a deletion,
        where the policy could start. Elsewhere outside a deletion, a lone
        edge (a primary edge, an empty payload) takes the lone-edge exit: a duplicate is absorbed
        and the stored copy keeps the newer timestamp; otherwise the edge
        is relabelled, settles as non-tree with equal labels and as a tree
        edge at the builder while there is room, and is returned in `b`
        where the rules would pass it. Only a full builder's tree edge and
        the edge that would seal the builder go on, relabelled, to the
        rules; every branch that stores or absorbs returns. The identity
        exit returns `b` itself where the rules would leave every slot as
        it is: at an aging relay, when the primary slot is empty and no
        edge is a duplicate; outside a deletion, when no edge is a
        duplicate, each edge with equal labels meets a full store, and each
        edge whose labels differ meets a processor that is not the builder.
        It relabels edges and answers a connectivity query as the rules
        would. Both exits share the primary slot's checks and are written
        out inline, because they run on most hops, where a method call or
        a tuple of both slots costs about what an exit saves."""
        prim = b.primary
        payload = b.payload
        # the lone-edge and identity exits
        if self.outq or b.builder_token:
            pass  # the rules drain the queue and take the token
        elif not self.aging:
            if not self.is_tail:
                full = self.stored >= self.s
                builder = self.is_builder
                dup = self.dup
                sets = self.lc.sets
                tp = type(prim)
                if tp is LabeledEdge:
                    rec = dup.get(prim.ck)
                    if rec is not None:
                        if not payload:
                            if prim.t > rec.t:
                                rec.t = prim.t
                            return EMPTY_BUNDLE
                        same = False
                    else:
                        if prim.lu != prim.lv and sets:
                            c = sets.get(prim.lu)
                            if c is not None:
                                prim.lu = c.name
                            c = sets.get(prim.lv)
                            if c is not None:
                                prim.lv = c.name
                        if prim.lu == prim.lv:
                            if not (full or payload):
                                self._accept(prim, NONTREE)
                                return EMPTY_BUNDLE
                            same = full
                        elif not builder:
                            same = True
                        elif not (full or payload) and len(self.tree) + 1 < self.s:
                            self._accept(prim, TREE)
                            return EMPTY_BUNDLE
                        else:
                            # a full builder's tree edge or the sealing edge
                            same = False
                else:
                    same = prim is None or tp is ConnQuery
                if same:
                    for e in payload:
                        if type(e) is not LabeledEdge:
                            break
                        if e.lu == e.lv:
                            if not full or e.ck in dup:
                                break
                        elif e.ck in dup:
                            break
                        else:
                            if sets:
                                c = sets.get(e.lu)
                                if c is not None:
                                    e.lu = c.name
                                c = sets.get(e.lv)
                                if c is not None:
                                    e.lv = c.name
                            if not (full if e.lu == e.lv else not builder):
                                break
                    else:
                        # answered only once the bundle passes; the rules
                        # answer it in any other
                        if tp is ConnQuery and sets and not prim.answer:
                            c = sets.get(prim.lu)
                            if c is not None:
                                prim.lu = c.name
                            c = sets.get(prim.lv)
                            if c is not None:
                                prim.lv = c.name
                            if prim.lu == prim.lv:
                                prim.answer = True
                        return b
        elif prim is None and not (self.is_builder or self.is_loader):
            # an aging relay stores only a primary edge: with none, only a
            # duplicate changes a slot
            dup = self.dup
            for e in payload:
                if type(e) is not LabeledEdge or e.ck in dup:
                    break
            else:
                if self.untested:
                    self._downstream_testing()
                return b
        # an arriving builder token makes this processor the builder and is
        # left out of the output
        changed = b.builder_token
        if changed:
            self.is_builder = True
        tp = type(prim)
        if not (prim is None or tp is LabeledEdge or tp is ConnQuery or tp is CountQuery):
            # a message rides on in its slot
            self._primary_slot(prim)
            changed = True
            if b.builder_token and tp is AgingToken:
                # begin_aging just reset the role, but the sender began aging
                # before it passed builder duty on: the token belongs to the
                # new regime and must survive
                self.is_builder = True
        builder = self.is_builder
        aging = self.aging
        relay = aging and not (builder or self.is_loader)
        dup = self.dup
        # the union-find's block -> component map, read inline (see
        # unionfind); only the builder and a sealed processor hold one
        sets = self.lc.sets
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
                        if self.stored < self.s:
                            self._accept(prim, NONTREE)
                            prim = None
                            changed = True
                        elif self.is_tail:
                            fwd.append(FailSignal(prim, self.index))
                            prim = None
                            changed = True
                        elif aging and self._room_in_deletion(fwd):
                            self._accept(prim, NONTREE)
                            prim = None
                            changed = True
                    elif aging:
                        # behind the builder it may settle unresolved, for
                        # the loader to recycle
                        if self.stored < self.s:
                            self._accept(prim, UNRESOLVED)
                            prim = None
                            changed = True
                        elif self.is_tail:
                            fwd.append(FailSignal(prim, self.index))
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
            prim.n += self.stored
        # the head ages only as the loader: after the payload it tests k-1
        # of its own edges, and each survivor takes the rules below as a
        # payload edge before the next test
        tests = self.k - 1 if aging and self.is_head else 0
        if tests:
            changed = True
        while True:
            for e in payload:
                if type(e) is not LabeledEdge:
                    # a message; a `LoaderToken` makes this processor the
                    # loader for the edges behind it
                    self._payload_slot(e)
                    relay = relay and not self.is_loader
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
                    if self.stored < self.s:
                        self._accept(e, NONTREE)
                    elif self.is_tail:
                        fwd.append(FailSignal(e, self.index))
                    elif aging and self._room_in_deletion(fwd):
                        self._accept(e, NONTREE)
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
                if self.stored < self.s:
                    self._accept(e, TREE)
                elif self.is_tail:
                    fwd.append(FailSignal(e, self.index))
                elif aging and self._room_in_deletion(fwd):
                    self._accept(e, TREE)
                elif self.nontree:
                    # the newest non-tree edge keeps its equal labels and
                    # settles downstream
                    ep = self.nontree.pop()
                    self._drop(ep)
                    fwd.append(ep)
                    self._accept(e, TREE)
                else:
                    # legal only for a builder whose seal is waiting on its
                    # loader duty; otherwise sealing should have happened
                    # first
                    if not self.seal_pending and self.hooks is not None:
                        self.hooks.violation("tree-jettison-missing", self.index,
                                             f"full of tree edges, got {e!r}")
                    e.reset_labels()
                    if e is first:
                        prim = e
                    else:
                        fwd.append(e)
                if len(self.tree) >= self.s:
                    if self.is_loader:
                        # builder duty must not overtake the loader: both
                        # tokens leave together once recycling here is done
                        self.seal_pending = True
                    else:
                        token = True
                        builder = self.is_builder = False
                        self.sealed = True
            if not tests:
                break
            tests -= 1
            payload = ()
            untested = self.untested
            if not untested:
                if self._pass_loader_token(fwd):
                    token = True
                break
            if not tests and len(fwd) + (prim is not None) >= self.k:
                # no slot is free for the last test's spill: the edge waits
                # at the front of the pool until the next tick
                break
            e = untested.popleft()
            self._drop(e)
            if not self.predicate(e):
                self.deletions += 1
                continue
            e.reset_labels()
            if not tests and self.stored >= self.s - 1 and e.u != e.v:
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
        if aging and not self.is_head:
            if self.is_loader:
                changed = True
                if self._loader_phase(fwd):
                    token = True
            elif self.untested:
                self._downstream_testing()
        monitor = self.monitor
        if monitor is not None and not self.aging and monitor.should_start(self.stored):
            # the policy starts on this tick: its probe takes the first free
            # payload slot, or waits in the queue
            self.outq.append(monitor.start())
        outq = self.outq
        while outq and len(fwd) < self.k - 1:
            fwd.append(outq.popleft())
            changed = True
        if not changed:
            return b
        if len(fwd) >= self.k:
            # every payload slot is taken: the k-th item spills into a free
            # primary slot
            if prim is not None or len(fwd) > self.k:
                raise SlotOverflow("bundle already holds k slots")
            prim = fwd.pop()
        if prim is None and not fwd and not token:
            return EMPTY_BUNDLE
        return Bundle(prim, fwd, token)

    # ------------------------------------------------------- slot dispatch

    def _primary_slot(self, item):
        """A message in the primary slot, which rides on in its slot."""
        t = type(item)
        if t is AgingToken:
            self.begin_aging(item.predicate)
        elif t is QueryCommand:
            kind = item.kind
            self.scratch = QueryScratch(kind, item.qid, item.limit)
            if self.is_head:
                if kind == "dump" or kind == "tree":
                    self._finish_query(QueryEnd(item.qid, kind))
                else:
                    self._finish_sizes()  # nothing upstream folds into the head
                    self._emit_sizes(PhaseDone(item.qid))
                    if kind == "max":
                        self.scratch = None
        elif t is ArmAutoAge:
            if self.reservoir is None:
                self._start_sampler()
            if self.is_tail:
                self._arm_monitor(item.target_c)
        # unknown primary traffic passes through untouched

    def _payload_slot(self, item):
        """A message in a payload slot: taken here, or queued to leave in a
        free payload slot."""
        t = type(item)
        if t is LoaderToken:
            self.is_loader = True
        elif t is DumpPair:
            item.name = self.lc.relabel(item.name)
            self.outq.append(item)
        elif t is TreeEdgeMsg:
            self.outq.append(item)
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
                self._finish_query(QueryEnd(sc.qid, "small"))
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
        elif t is QueryEnd:
            if self.scratch is not None:
                self._finish_query(item)
            else:
                self.outq.append(item)
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

    def _room_in_deletion(self, fwd):
        """Room in a full store that only a deletion creates: the newest
        unresolved edge leaves, or, before an unresolved pool exists, one
        pinned untested edge is tested right now. A failure frees the slot
        outright; a survivor leaves like an unresolved edge, on `fwd`, and
        recycles through the head as a fresh edge. False when neither is
        there."""
        if self.unresolved:
            ep = self.unresolved.pop()  # most recently stored first
            self._drop(ep)
        elif self.untested:
            ep = self.untested.popleft()
            self._drop(ep)
            if not self.predicate(ep):
                self.deletions += 1
                return True
        else:
            return False
        ep.reset_labels()
        fwd.append(ep)
        return True

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

    # ------------------------------------------------------------- aging

    def begin_aging(self, predicate):
        """Forget the connectivity structure and reclassify every stored edge
        as untested. Duplicate tracking survives: entries follow the edges
        into the untested list."""
        if self.hooks is not None and (self.unresolved or self.untested):
            self.hooks.violation("aging-reentry", self.index,
                                 "previous deletion still in progress")
        self.lc.reset()
        # labels go stale with the union-find; each untested edge gets
        # primitive ones back where it leaves the pool
        self.untested.extend(self.tree)
        self.untested.extend(self.nontree)
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

    def _loader_phase(self, fwd):
        """The loader recycles its unresolved edges into free payload slots,
        after testing what is left untested, and passes the loader token
        once none is left. True when the builder token leaves with it."""
        if self.untested:
            # the token can land a tick before testing wraps up; finish the
            # backlog at the usual per-tick rate, then start recycling
            self._downstream_testing()
            if self.untested:
                return False
        while len(fwd) < self.k - 1:
            if not self.unresolved:
                return self._pass_loader_token(fwd)
            e = self.unresolved.popleft()
            self._drop(e)
            e.reset_labels()
            fwd.append(e)
        return False

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

    def _pass_loader_token(self, fwd):
        """The loader token leaves in a free payload slot, and the deletion
        ends here; True when the builder token leaves with it. Without a
        free slot it retries next tick: the token never displaces an edge."""
        if len(fwd) >= self.k - 1:
            return False
        fwd.append(LOADER_TOKEN)
        self.is_loader = False
        self.aging = False
        self.predicate = None
        if not self.seal_pending:
            return False
        self.is_builder = False
        self.sealed = True
        self.seal_pending = False
        return True

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

    def _finish_query(self, end):
        """Queue this processor's share of the answer `end` closes, then
        `end`, and drop the scratch: the head calls it with the marker it
        makes, every later processor with the one it receives."""
        outq = self.outq
        kind = end.kind
        if kind == "dump":
            for block, name in self.lc.relationships():
                outq.append(DumpPair(block, name))
        elif kind == "tree":
            for e in self.tree:
                outq.append(TreeEdgeMsg(e.u, e.v, e.t))
        else:
            sc = self.scratch
            limit = sc.limit
            sizes = sc.final_sizes
            skip = sc.upstream_names
            for block, vertex, rep in self.lc.member_vertices():
                if block in skip:
                    continue  # an upstream component's name, not a vertex of ours
                if sizes.get(rep, 0) <= limit:
                    outq.append(VertexMsg(rep, vertex))
            if limit >= 1:
                for v in sc.confirmed_orphans:
                    outq.append(VertexMsg(v, v))
        outq.append(end)
        self.scratch = None

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
            edges = iter(self.dup.values())
            lo = hi = next(edges).t
            for e in edges:
                t = e.t
                if t < lo:
                    lo = t
                elif t > hi:
                    hi = t
            probe.fold(self.stored, lo, hi)

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
