"""One ring position.

A processor ingests a k-slot bundle each tick, updates its stores, and emits
exactly k slots. New edges are classified against the local union-find on
their way to the builder; duplicates are absorbed wherever their stored copy
lives; non-tree edges settle into the first open space. During bulk deletion
the same driver additionally runs the testing and recycling phases.

The rules for an edge at every processor live in one place, the transit hop
(`Processor.process_bundle`):

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

A processor with nothing queued and no builder token arriving hands the hop
a whole bundle of edges, unless it is the builder or the loader during a
deletion. Outside a deletion a connectivity or count query may ride in the
primary slot, and the hop relabels its endpoints and answers it once they
meet, or adds the stored count; at the tail the automatic policy may then
start. While aging the processor tests k-1 of its own untested edges after
the payload. Every other bundle takes the general path, which has no edge
rules of its own: it hands the hop each edge one slot at a time. One
function is both the hop the ring calls and that one-slot hop; the general
path calls it through the private alias `_hop`, because the benchmark's
tracer wraps the public name to count one call per scheduled hop.

Most hops change nothing: a full relay, a sealed processor, a full builder
and an aging relay pass most bundles on as they came. The hop therefore
first asks the same rules whether anything changes, in the order that
declines soonest, and if nothing does returns the bundle itself; any other
bundle goes on to the rules. The test writes nothing but relabels, which
the rules, or the general path for a bundle the hop leaves to it, make as
well, and a relabel is idempotent (a component's name maps to itself); a
query is answered only in a bundle that passes. So a bundle it declines
meets the rules as if it had not run.
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

    __slots__ = ("index", "config", "p", "s", "k", "is_head", "is_tail", "hooks",
                 "lc", "tree", "nontree", "untested", "unresolved", "dup", "stored",
                 "reservoir", "is_builder", "sealed", "aging", "is_loader",
                 "seal_pending", "predicate", "deletions", "scratch", "outq",
                 "monitor", "_pk", "_one")

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
        self._one = Bundle()

    # ------------------------------------------------------------------ tick

    def process_bundle(self, b, one=False):
        """The transit hop: the only rules for an edge at any processor,
        slot by slot. The ring hands it each tick's bundle; the general path
        hands it every other edge one at a time, in the processor's one
        reused bundle `_one`, with `one` set and through the alias `_hop`,
        since the benchmark's tracer wraps this name to count scheduled hops.

        A whole bundle goes to the general path, `_general`, when something
        is queued or a builder token arrives; when a payload slot holds
        anything but an edge or the primary slot anything but an edge or a
        connectivity or count query; and while aging, at the builder or the
        loader, or with anything but an edge in the primary slot. An aging
        relay tests k-1 of its own edges after the payload of a whole bundle,
        as `_aging_phase` would; after a one-slot handoff the general path
        does. At the tail the policy may then start, as on the general path.

        An identity exit comes before the rules and returns `b` itself where
        they would leave every slot as it is: at an aging relay, when the
        primary slot is empty and no edge is a duplicate; elsewhere, except
        at the tail, when no edge is a duplicate, each edge with equal labels
        meets a full store, and each edge whose labels differ meets a
        processor that is not the builder. So it never runs where the policy
        could start. It relabels edges and answers a connectivity query as
        the rules would, and a builder with space declines after two reads.
        It is written out inline, primary slot and payload apart, because it
        runs on most hops of a saturated ring, where a method call or a
        tuple of both slots costs about what the exit saves."""
        if (self.outq or b.builder_token) and not one:
            return self._general(b)
        prim = b.primary
        payload = b.payload
        # identity exit
        if not self.aging:
            full = self.stored >= self.s
            builder = self.is_builder
            if (full or not builder) and not self.is_tail:
                dup = self.dup
                sets = self.lc.sets
                tp = type(prim)
                if tp is LabeledEdge:
                    if prim.lu == prim.lv:
                        same = full and prim.ck not in dup
                    elif prim.ck in dup:
                        same = False
                    else:
                        if sets:
                            c = sets.get(prim.lu)
                            if c is not None:
                                prim.lu = c.name
                            c = sets.get(prim.lv)
                            if c is not None:
                                prim.lv = c.name
                        same = full if prim.lu == prim.lv else not builder
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
                        # answered only once the bundle passes, so that a
                        # query the general path takes meets it unanswered
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
        elif self.is_builder or self.is_loader:
            # the builder ages only as the loader, whose own work runs on
            # the general path: that hands the hop one edge at a time and
            # tests nothing here
            if not one:
                return self._general(b)
        elif prim is None:
            # an aging relay stores only a primary edge: with none, only a
            # duplicate changes a slot
            dup = self.dup
            for e in payload:
                if type(e) is not LabeledEdge or e.ck in dup:
                    break
            else:
                if self.untested and not one:
                    self._downstream_testing()
                return b
        for e in payload:
            if type(e) is not LabeledEdge:
                return self._general(b)
        builder = self.is_builder
        aging = relay = self.aging
        tp = type(prim)
        if aging:
            if builder or self.is_loader:
                # a one-slot handoff: whole bundles were declined above
                relay = False
            elif not (prim is None or tp is LabeledEdge):
                return self._general(b)
        elif not (prim is None or tp is LabeledEdge or tp is ConnQuery or tp is CountQuery):
            return self._general(b)
        dup = self.dup
        # the union-find's block -> component map, read inline (see
        # unionfind); only the builder and a sealed processor hold one
        sets = self.lc.sets
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
                # the newest non-tree edge keeps its equal labels and settles
                # downstream
                ep = self.nontree.pop()
                self._drop(ep)
                fwd.append(ep)
                self._accept(e, TREE)
            else:
                # legal only for a builder whose seal is waiting on its loader
                # duty; otherwise sealing should have happened first
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
                    # builder duty must not overtake the loader: both tokens
                    # leave together once recycling here is done
                    self.seal_pending = True
                else:
                    token = True
                    builder = self.is_builder = False
                    self.sealed = True
        if relay and self.untested and not one:
            self._downstream_testing()
        if changed:
            # the output takes b's place
            if len(fwd) == self.k:
                # every payload slot is taken: the last item spills into the
                # free primary slot, as the general path's `Packer` packs it
                prim = fwd.pop()
            b = Bundle(prim, fwd, token) if prim is not None or fwd or token else EMPTY_BUNDLE
        monitor = self.monitor
        if monitor is None or one or aging or not monitor.should_start(self.stored):
            return b
        # the policy starts on this tick: its probe takes the first free
        # payload slot, or waits in the queue
        probe = monitor.start()
        if len(b.payload) < self.k - 1:
            return Bundle(b.primary, [*b.payload, probe], b.builder_token)
        self.outq.append(probe)
        return b

    _hop = process_bundle

    def _general(self, b):
        """A bundle the hop declines, slot by slot; each edge goes back to
        the hop alone."""
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
        # one reused bundle per processor: the hop may hand it back, and its
        # slots are read out before the next edge
        one = self._one
        one.primary, one.payload = (e, ()) if primary else (None, (e,))
        out = self._hop(one, True)
        if out.primary is not None:
            pk.set_primary(out.primary)
        for item in out.payload:
            pk.pack(item)
        if out.builder_token:
            pk.builder_token = True

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
                    # labels would read as already-resolved in transit. It
                    # takes the primary slot when that is free.
                    e.reset_labels()
                    if pk.primary is None:
                        pk.primary = e
                    else:
                        pk.pack(e)
                else:
                    e.reset_labels()
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
