"""The ring system: configuration, the I/O junction, the lockstep engine,
transcript recording, and the invariant auditor.

One stream item enters per tick. The junction extracts whatever exits the
tail (query answers, dump output, completed tokens), merges the remaining
payload with the new item into the head's next bundle, and keeps the
transcript. Processors hand bundles strictly one hop per tick, so a constant
query injected at tick t exits at tick t+p.

Items that cannot enter on their tick wait in the junction's queue, in
order; so does every deletion the automatic policy requests. A deletion that
starts from the queue does not take the tick's input: when two payload slots
are free, the start tick carries the `AGE` and the next queued item, whose
`IN` record follows the `AGE` record. An arrival rides in a payload slot and is
classified under the new regime; a query is answered busy and an `AGE` is
ignored, as during any deletion. An `AUTOAGE` needs the primary slot and
keeps waiting. The queue's depth is reported as an event whenever it
changes.

A processor whose input is the empty bundle, whose outbound queue is empty
and which is not aging would emit the empty bundle and change no state, so
the lockstep engine does not call it: per-tick work follows the traffic on
the ring, not the ring size. The tail's auto-age monitor needs no wake-up of
its own: its trigger reads only the tail's stored count and the monitor's
phase, both change only inside a call, and every call checks the trigger
before it returns.

Under `validate=True` the per-tick audit follows the hops that change
something: a hop that returns its input stores, drops and hands over
nothing, unless its processor is aging with untested edges to test. The
auditor gets only the hops that returned a new bundle or left their
processor aging (taps get every hop), and checks each new bundle's slots.
The ring keeps, per processor, a row of the facts `Ring.audit_invariants`
reads, and recomputes the rows of those hops but the aging pass-throughs
whose row shows no untested edge. The audit reruns only when a row or a
ring-level input (the junction's mode, the deletion's scope, the settle
window, the sealed flag) moved, on every tick after an audit that found
something, and on every tick after one that had to look for a token in the
links; a ring sealed outside a deletion has no builder token to look for.
"""

from __future__ import annotations

import operator
from array import array
from collections import deque

from .aging import StatsProbe, SurvivorProbe, TimestampThreshold
from .model import (
    EMPTY_BUNDLE,
    IDLE,
    Age,
    AgeRequest,
    AgingToken,
    ArmAutoAge,
    Arrival,
    AutoAge,
    Bundle,
    Connectivity,
    DumpLabels,
    EdgeCount,
    FailSignal,
    Idle,
    LabeledEdge,
    LoaderToken,
    MaxComponent,
    SmallComponents,
    SpanningTree,
)
from .processor import Processor
from .queries import (
    ActiveQuery,
    ConnQuery,
    CountQuery,
    DumpPair,
    PhaseDone,
    QueryCommand,
    QueryEnd,
    SizeMsg,
    TreeEdgeMsg,
    VertexMsg,
)


class SystemFailed(Exception):
    """Storage (or union capacity) is exhausted; the run cannot continue."""

    def __init__(self, tick, reason):
        super().__init__(f"tick {tick}: {reason}")
        self.tick = tick
        self.reason = reason


class _Record:
    """Equality by the fields named in `_fields` and a repr that names
    them; a record is mutable, so it has no hash."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class Violation(_Record):
    """One failed invariant at `tick`; `index` is the processor, or -1 for a
    ring-wide check."""

    __slots__ = _fields = ("tick", "kind", "index", "detail")

    def __init__(self, tick, kind, index, detail):
        self.tick = tick
        self.kind = kind
        self.index = index
        self.detail = detail


class RingConfig(_Record):
    """Ring size and run options. The defaults are class attributes, so
    `RingConfig.seed` reads the default seed."""

    _fields = ("p", "s", "k", "validate", "seed", "reservoir", "auto_age_c",
               "auto_age_margin", "search_circuits", "taps", "record_inputs",
               "metrics")
    k = 5
    validate = False
    seed = 0
    reservoir = 100
    auto_age_c = None
    auto_age_margin = 1.25
    search_circuits = 16
    taps = False
    record_inputs = True
    metrics = False

    def __init__(self, p, s, k=k, validate=validate, seed=seed,
                 reservoir=reservoir, auto_age_c=auto_age_c,
                 auto_age_margin=auto_age_margin,
                 search_circuits=search_circuits, taps=taps,
                 record_inputs=record_inputs, metrics=metrics):
        self.p = p
        self.s = s
        self.k = k
        self.validate = validate
        self.seed = seed
        self.reservoir = reservoir
        self.auto_age_c = auto_age_c
        self.auto_age_margin = auto_age_margin
        self.search_circuits = search_circuits
        self.taps = taps
        self.record_inputs = record_inputs
        self.metrics = metrics
        for field in ("p", "s", "k", "reservoir", "search_circuits"):
            value = getattr(self, field)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{field}={value!r} must be an integer") from None
        if p < 1:
            raise ValueError("need at least one processor")
        if s < 1:
            raise ValueError("per-processor capacity must be >= 1")
        if k < 2:
            raise ValueError("bundles need a primary and at least one payload slot")
        if auto_age_c is not None and not 0 < auto_age_c < 1:
            raise ValueError(f"auto_age_c={auto_age_c} must be in (0, 1)")
        if not auto_age_margin > 0:
            raise ValueError(f"auto_age_margin={auto_age_margin} must be > 0")
        if reservoir < 1:
            raise ValueError(f"reservoir={reservoir} must be >= 1")
        if search_circuits < 1:
            raise ValueError(f"search_circuits={search_circuits} must be >= 1")

    @property
    def total_capacity(self):
        return self.p * self.s


class _Rendered:
    """An IN record whose text was fixed at its tick."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


DEFERRED = _Rendered("(deferred)")

# the non-constant query each stream item starts, named as `QueryCommand`,
# `QueryScratch` and `ActiveQuery` name it
_QUERY_KINDS = {MaxComponent: "max", SmallComponents: "small", SpanningTree: "tree",
                DumpLabels: "dump"}

# stream items an IN record keeps by reference; any other object is rendered
# at its own tick, so one that cannot render fails there
_VALUE_ITEMS = frozenset((Arrival, Connectivity, EdgeCount, MaxComponent,
                          SmallComponents, SpanningTree, DumpLabels, Age, AutoAge))
_CHUNK = 4096  # lines `text` renders and joins at a time


class Transcript:
    """Chronological record of everything that crossed the I/O boundary.

    Each record is one tick in an `array('q')` and one reference. An IN
    record keeps the submitted stream item itself and renders it only when
    the transcript is read, so a caller must not change an item after
    submitting it. An OUT record keeps `(qid, tag, *args)`, an EVT record its
    text.
    """

    __slots__ = ("_ticks", "_records")

    def __init__(self):
        self._ticks = array("q")
        self._records = []

    def record_in(self, tick, item):
        """`item` is anything with a `render()`: a stream item, `IDLE` or
        `DEFERRED`."""
        self._ticks.append(tick)
        self._records.append(item)

    def record_out(self, tick, qid, tag, *args):
        self._ticks.append(tick)
        self._records.append((qid, tag) + args)

    def record_evt(self, tick, text):
        self._ticks.append(tick)
        self._records.append(text)

    @property
    def events(self):
        """Every record as a tuple, built on each read: `("IN", tick, text)`,
        `("OUT", tick, qid, tag, *args)` or `("EVT", tick, text)`."""
        out = []
        for tick, r in zip(self._ticks, self._records):
            kind = type(r)
            if kind is tuple:
                out.append(("OUT", tick) + r)
            elif kind is str:
                out.append(("EVT", tick, r))
            else:
                out.append(("IN", tick, r.render()))
        return out

    def outputs(self, tag=None):
        return [("OUT", tick) + r for tick, r in zip(self._ticks, self._records)
                if type(r) is tuple and (tag is None or r[1] == tag)]

    def lines(self, inputs=True):
        """One rendered line per record; `inputs=False` leaves out the IN
        records without rendering them."""
        return list(self._render(0, len(self._records), inputs))

    def text(self):
        chunks = ["\n".join(self._render(lo, lo + _CHUNK)) + "\n"
                  for lo in range(0, len(self._records), _CHUNK)]
        return "".join(chunks) or "\n"

    def _render(self, lo, hi, inputs=True):
        for tick, r in zip(self._ticks[lo:hi], self._records[lo:hi]):
            kind = type(r)
            if kind is str:
                yield f"{tick} EVT {r}"
            elif kind is not tuple:
                if inputs:
                    yield f"{tick} IN {r.render()}"
            else:
                qid, tag, *args = r
                if tag == "answer":
                    body = "true" if args[0] else "false"
                elif tag in ("count", "max"):
                    body = str(args[0])
                elif tag == "member":
                    body = f"member {args[0]} {args[1]}"
                elif tag == "tree-edge":
                    body = f"edge {args[0]} {args[1]}"
                elif tag == "dump":
                    body = f"label {args[0]} {args[1]}"
                else:
                    body = tag if not args else f"{tag} {' '.join(map(str, args))}"
                yield f"{tick} OUT q{qid} {body}"


class RingHooks:
    """Validation instrumentation shared by all processors.

    Tracks a global stored-copy count per canonical key (at most one copy in
    normal mode, two while a deletion is rebuilding, exactly one again at
    completion) and collects violations as data.
    """

    def __init__(self, ring):
        self.ring = ring
        self.counts = {}
        self.twice = set()

    def stored(self, key, index):
        counts = self.counts
        if key not in counts:
            counts[key] = 1  # the first copy, the common case
            return
        c = counts[key] = counts[key] + 1
        if c == 2:
            if self.ring.junction.mode == "aging":
                self.twice.add(key)
            else:
                self.violation("duplicate-store", index, f"{key} stored twice in normal mode")
        else:
            self.violation("duplicate-store", index, f"{key} stored {c} times")

    def removed(self, key, index):
        c = self.counts.pop(key, 0)  # the last copy, the common case
        if c > 1:  # a key in `twice` has two copies or more
            self.counts[key] = c - 1
            if c == 2:
                self.twice.discard(key)

    def violation(self, kind, index, detail):
        self.ring.violations.append(Violation(self.ring.t, kind, index, detail))

    def aging_completed(self):
        if self.twice:
            self.violation("post-aging-duplicate", -1,
                           f"{len(self.twice)} keys still stored twice")
        self.twice.clear()


class IOJunction:
    """The I/O processor: feeds the head, extracts what the tail returns."""

    __slots__ = ("ring", "config", "transcript", "mode", "pending", "next_qid",
                 "active", "aborted", "ring_sealed", "age_hold_until", "backlog",
                 "stray_markers")

    def __init__(self, ring):
        self.ring = ring
        self.config = ring.config
        self.transcript = ring.transcript
        self.mode = "normal"
        self.pending = deque()
        self.next_qid = 0
        self.active = None  # at most one non-constant query in flight
        self.aborted = None  # qid of the last query a deletion aborted
        self.ring_sealed = False  # builder duty left the tail; no one can union
        # a new deletion must wait for the previous one's trailing recycled
        # edges to finish wrapping, or they would slip behind the new token
        self.age_hold_until = 0
        self.backlog = 0  # depth of `pending` last reported as an event
        self.stray_markers = 0  # end markers `_check_marker` found stray

    # -- outgoing side -------------------------------------------------------

    def step(self, tick, ret, item):
        if ret is EMPTY_BUNDLE and not self.pending and type(item) is not Age:
            # nothing came back and nothing waits (an AGE may have to, see
            # below): the tick's item alone fills the head's primary slot
            primary = self._admit(tick, item)
            return EMPTY_BUNDLE if primary is None else Bundle(primary)
        reenter = []
        reinject = []
        primary_override = self._extract(tick, ret, reenter, reinject)
        payload = reenter + reinject
        # an AGE may have to wait for the previous deletion's edges to settle
        if self.pending or primary_override is not None or type(item) is Age:
            primary = self._inject(tick, item, primary_override, payload)
        else:
            primary = self._admit(tick, item)
        if len(payload) > self.config.k - 1:
            raise SystemFailed(tick, "returning payload exceeds bundle capacity")
        if primary is None and not payload:
            return EMPTY_BUNDLE
        return Bundle(primary, payload)

    def _extract(self, tick, ret, reenter, reinject):
        ts = self.transcript
        if ret.builder_token:
            # every processor is full of tree edges; harmless until an edge
            # that needs a union comes back around
            self.ring_sealed = True
            ts.record_evt(tick, "ring sealed: no processor accepting tree edges")
        override = None
        prim = ret.primary
        if prim is not None:
            t = type(prim)
            if t is ConnQuery:
                ts.record_out(tick, prim.qid, "answer", prim.answer)
            elif t is CountQuery:
                ts.record_out(tick, prim.qid, "count", prim.n)
            elif t is AgingToken:
                ts.record_evt(tick, "aging token completed its circuit")
            elif t is LabeledEdge:
                if self.ring_sealed:
                    raise SystemFailed(
                        tick, "union capacity exhausted: unsettled edge with no builder")
                # an unsettled edge wrapped all the way around; give it the
                # head's primary slot and delay the input stream one tick
                ts.record_evt(tick, "input deferred: returning edge takes the primary slot")
                override = prim
            elif t is FailSignal:
                raise SystemFailed(tick, f"storage exhausted at processor {prim.index}")
            elif t is QueryCommand or t is ArmAutoAge:
                pass  # command finished its circuit
            else:
                ts.record_evt(tick, f"unrecognized return {prim!r}")
        for item in ret.payload:
            t = type(item)
            if t is LabeledEdge:
                reenter.append(item)
            elif t is LoaderToken:
                self.mode = "normal"
                self.age_hold_until = tick + self.config.p + 1
                ts.record_evt(tick, "aging complete; queries re-enabled")
                self.ring._aging_complete(tick)
            elif t is DumpPair:
                if self.active is not None:
                    ts.record_out(tick, self.active.qid, "dump", item.block, item.name)
            elif t is TreeEdgeMsg:
                if self.active is not None:
                    ts.record_out(tick, self.active.qid, "tree-edge", item.u, item.v)
            elif t is SizeMsg:
                if self.active is not None and self.active.kind == "max":
                    if item.size > self.active.max_size:
                        self.active.max_size = item.size
                elif (self.active is not None and self.active.kind == "small"
                      and item.size == 1 and not item.wrapped):
                    # self-loop orphan claim: one extra circuit lets the
                    # vertex's real consumer cancel it, or its emitter
                    # confirm it
                    item.wrapped = True
                    reinject.append(item)
            elif t is VertexMsg:
                if self.active is not None:
                    ts.record_out(tick, self.active.qid, "member", item.name, item.vertex)
            elif t is PhaseDone:
                self._check_marker(item)
                if self.active is not None and self.active.kind == "small":
                    reinject.append(item)  # the head starts the member phase
                elif self.active is not None and self.active.kind == "max":
                    ts.record_out(tick, self.active.qid, "max", self.active.max_size)
                    self.active = None
            elif t is QueryEnd:
                self._check_marker(item)
                if self.active is not None:
                    ts.record_out(tick, self.active.qid, "done")
                    self.active = None
            elif t is StatsProbe or t is SurvivorProbe:
                reinject.append(item)  # policy probe heading back to the tail
            elif t is AgeRequest:
                ts.record_evt(tick, f"auto-age requested threshold {item.threshold}")
                self.pending.append(Age(TimestampThreshold(item.threshold)))
            elif t is FailSignal:
                raise SystemFailed(tick, f"storage exhausted at processor {item.index}")
            else:
                ts.record_evt(tick, f"unrecognized return {item!r}")
        return override

    def _check_marker(self, item):
        """An end marker belongs to the active query or to the last one a
        deletion aborted, whose stragglers may still return; any other, a
        second marker or one of a query long finished, is counted as a stray
        and under validation is a violation."""
        if item.qid == self.aborted:
            return
        active = self.active
        if active is None or item.qid != active.qid:
            self.stray_markers += 1
            hooks = self.ring.hooks
            if hooks is not None:
                now = "no query" if active is None else f"q{active.qid}"
                hooks.violation("stray-end-marker", -1,
                                f"{type(item).__name__} of q{item.qid} with {now} active")

    # -- incoming side -------------------------------------------------------

    def _inject(self, tick, item, primary_override, payload):
        """The tick's item joins the queue; the head gets the returning edge
        or the queue's next item."""
        pending = self.pending
        if item is not None and type(item) is not Idle:
            pending.append(item)
        if primary_override is not None:
            if self.config.record_inputs:
                self.transcript.record_in(tick, DEFERRED)
            primary = primary_override
        else:
            primary = self._admit(tick, self._next_item(tick))
            if (type(primary) is AgingToken and pending
                    and type(pending[0]) is not AutoAge
                    and len(payload) + 2 <= self.config.k - 1):
                # the deletion start did not take an input tick, so the next
                # item rides along and is classified under the new regime.
                # Two free slots: at a full head, storing it can evict an
                # untested survivor and the head's last test can spill another.
                rider = self._admit(tick, pending.popleft())
                if rider is not None:
                    payload.append(rider)
        if len(pending) != self.backlog:
            self.backlog = len(pending)
            self.transcript.record_evt(tick, f"input backlog {self.backlog}")
        return primary

    def _next_item(self, tick):
        """Pop the item the head takes from the (non-empty) queue, or None."""
        pending = self.pending
        if type(pending[0]) is Age and self.mode != "aging" and tick < self.age_hold_until:
            # recycled edges from the previous deletion may still be wrapping:
            # the command keeps its place while what queued behind it goes in
            if len(pending) > 1 and type(pending[1]) is not Age:
                item = pending[1]
                del pending[1]
                return item
            return None
        return pending.popleft()

    def _admit(self, tick, item):
        """One stream item's effect at the head: the primary slot it fills,
        or None once it is answered or dropped here."""
        t = type(item)
        ts = self.transcript
        if t is Arrival:
            # the common item, admitted first: its IN record is
            # `Transcript.record_in`'s, inlined
            if self.config.record_inputs:
                ts._ticks.append(tick)
                ts._records.append(item)
            return LabeledEdge(item.u, item.v, item.u, item.v, tick)
        if item is None or t is Idle:
            if self.config.record_inputs:
                ts.record_in(tick, IDLE)
            return None
        if self.config.record_inputs:
            ts.record_in(tick, item if t in _VALUE_ITEMS else _Rendered(item.render()))
        if t is Connectivity or t is EdgeCount or t in _QUERY_KINDS:
            qid = self._qid()
            # at most one non-constant query is active at a time
            if self._queries_suspended(tick) or (
                    self.active is not None and t in _QUERY_KINDS):
                ts.record_out(tick, qid, "busy")
                return None
            if t is Connectivity:
                return ConnQuery(qid, item.u, item.v, tick)
            if t is EdgeCount:
                return CountQuery(qid, tick)
            kind = _QUERY_KINDS[t]
            self.active = ActiveQuery(qid, kind)
            return QueryCommand(qid, kind, item.limit if t is SmallComponents else None)
        if t is Age:
            if self.mode == "aging":
                ts.record_evt(tick, "age command ignored: deletion already active")
                return None
            if self.active is not None:
                ts.record_out(tick, self.active.qid, "aborted")
                self.aborted = self.active.qid
                self.active = None
            self.mode = "aging"
            self.ring_sealed = False  # deletion restarts building at the head
            ts.record_evt(tick, "aging started")
            self.ring._aging_started(tick)
            return AgingToken(item.predicate)
        if t is AutoAge:
            return ArmAutoAge(item.target_c)
        ts.record_evt(tick, f"unrecognized stream item {item!r}")
        return None

    def _qid(self):
        q = self.next_qid
        self.next_qid += 1
        return q

    def _queries_suspended(self, tick):
        """Queries stay suspended until the last recycled edges of a just
        finished deletion have re-entered and settled; a query sharing a
        bundle with one of them would race its contribution."""
        return self.mode == "aging" or tick < self.age_hold_until

    def quiescent(self):
        return self.mode == "normal" and not self.pending and self.active is None


def _layout_row(pr, s):
    """The facts about one processor that `Ring.audit_invariants` reads:
    pending pools, roles, a full tree store, resolved edges and free
    space."""
    return (bool(pr.untested), bool(pr.unresolved), pr.aging, pr.is_builder,
            pr.is_loader, len(pr.tree) == s, bool(pr.tree), bool(pr.nontree),
            pr.stored < s)


class Ring:
    """Lockstep engine: bundles move exactly one hop per tick. Every
    processor advances once per tick, but only those with a non-empty input,
    a queued output or a deletion under way are called; for the rest the
    call is a no-op. That holds for an idle tail with an auto-age monitor
    too, since nothing outside a call moves the monitor's trigger.
    `_advance` alone schedules those calls; `ThreadedRing` replaces it."""

    __slots__ = ("config", "t", "transcript", "violations", "junction", "hooks",
                 "processors", "links", "junction_return", "_active", "failed",
                 "suspended_ticks", "aging_started_tick", "aging_log",
                 "_pre_aging_stored", "metrics", "tap_edges", "tap_dump",
                 "_aging_started_at", "_rows", "_ring_inputs", "_audit_again")

    def __init__(self, config):
        self.config = config
        self.t = 0
        self.transcript = Transcript()
        self.violations = []
        self.junction = IOJunction(self)
        self.hooks = RingHooks(self) if config.validate else None
        self.processors = [Processor(i, config, self.hooks) for i in range(config.p)]
        # the audit's memo: one layout row per processor, the ring-level
        # inputs of the last audit, and whether the next tick must audit
        self._rows = ([_layout_row(pr, config.s) for pr in self.processors]
                      if config.validate else None)
        self._ring_inputs = None
        self._audit_again = True
        self.links = [EMPTY_BUNDLE] * config.p  # links[i]: pending input of p_i (i >= 1)
        self.junction_return = EMPTY_BUNDLE
        # processors to call next tick, ascending; a call to any other would
        # be a no-op. The first tick calls all, which is always safe.
        self._active = list(range(config.p))
        self.failed = False
        self.suspended_ticks = 0  # aging plus the post-deletion settle window
        self.aging_started_tick = None
        self._aging_started_at = None  # suspended_ticks before the start tick
        self.aging_log = []
        self._pre_aging_stored = 0
        self.metrics = [] if config.metrics else None
        if config.taps:
            self.tap_edges = [[] for _ in range(config.p)]
            self.tap_dump = [[] for _ in range(config.p)]
        else:
            self.tap_edges = self.tap_dump = None

    # -- driving ---------------------------------------------------------------

    def tick(self, item=None):
        if self.failed:
            raise SystemFailed(self.t, "system already failed")
        junction = self.junction
        try:
            head_in = junction.step(self.t, self.junction_return, item)
        except SystemFailed:
            self.failed = True
            raise
        self.junction_return = EMPTY_BUNDLE
        try:
            ran = self._advance(head_in)
        except BaseException:
            # the raising hop's input and the held output are gone: a later
            # tick would run on a ring that silently lost them
            self.failed = True
            raise
        if junction.mode == "aging" or self.t < junction.age_hold_until:
            self.suspended_ticks += 1
        if ran is not None:
            if self.tap_edges is not None:
                self._record_taps(ran)
            if self.hooks is not None:
                self._audit_tick(ran)
        if self.metrics is not None:
            self.metrics.append(self.metrics_row())
        self.t += 1

    def _advance(self, head_in):
        """One hop for every processor; returns an (index, input, output)
        triple for each hop taps or the auditor read, or None when neither
        does: every hop for taps, else those that returned a new bundle or
        left their processor aging (see the module docstring)."""
        active = self._active
        if head_in is not EMPTY_BUNDLE and (not active or active[0]):
            active.insert(0, 0)
        procs = self.processors
        links = self.links
        last = self.config.p - 1
        taps = self.tap_edges is not None
        ran = [] if taps or self.hooks is not None else None
        nxt = []
        held = None  # output of the previous processor, written to its
        held_at = 0  # successor's link once that one has read its input
        for i in active:
            if i:
                b = links[i]
                links[i] = EMPTY_BUNDLE
            else:
                b = head_in
            if held is not None:
                links[held_at] = held
                held = None
            proc = procs[i]
            out = proc.process_bundle(b)
            if ran is not None:
                if out is not b or taps or proc.aging:
                    ran.append((i, b, out))
            if proc.outq or proc.aging:
                if not nxt or nxt[-1] != i:
                    nxt.append(i)
            if out is not EMPTY_BUNDLE:
                if i == last:
                    self.junction_return = out
                else:
                    held = out
                    held_at = i + 1
                    nxt.append(held_at)
        if held is not None:
            links[held_at] = held
        self._active = nxt
        return ran

    def run_stream(self, items, drain=True):
        for item in items:
            self.tick(item)
        if drain:
            self.drain()
        return self.transcript

    def drain(self, max_ticks=None):
        """Idle ticks until nothing is in flight and queries are served. A
        full system in normal mode is quiescent; only unfinished deletions,
        the settle window after one, or queries keep this running."""
        if max_ticks is None:
            cfg = self.config
            max_ticks = 6 * cfg.p + 2 * cfg.total_capacity // (cfg.k - 1) + 64
        for _ in range(max_ticks):
            if self.quiescent():
                return
            self.tick(None)
        if not self.quiescent():
            raise RuntimeError(f"ring did not quiesce within {max_ticks} idle ticks")

    def quiescent(self):
        if not self.junction.quiescent() or self.t < self.junction.age_hold_until:
            return False
        if not self.junction_return.is_empty():
            return False
        for b in self.links[1:]:
            if not b.is_empty():
                return False
        for proc in self.processors:
            if proc.outq or proc.aging:
                return False
            if proc.monitor is not None and proc.monitor.phase in ("stats", "search"):
                return False
        return True

    # -- state inspection --------------------------------------------------------

    def stored_total(self):
        return sum(pr.stored for pr in self.processors)

    def free_space(self):
        return self.config.total_capacity - self.stored_total()

    def stored_edges(self):
        """Canonical key -> newest timestamp over every per-processor store."""
        out = {}
        for pr in self.processors:
            for key, e in pr.dup.items():
                if key not in out or e.t > out[key]:
                    out[key] = e.t
        return out

    def system_edges(self):
        """Stored plus in-transit edges (transit copies of a stored edge are
        merged onto the newest timestamp)."""
        out = self.stored_edges()

        def fold(bundle):
            items = [bundle.primary] + list(bundle.payload)
            for it in items:
                if type(it) is LabeledEdge:
                    key = it.ck
                    if key not in out or it.t > out[key]:
                        out[key] = it.t

        fold(self.junction_return)
        for b in self.links[1:]:
            fold(b)
        return out

    def metrics_row(self):
        procs = self.processors
        tree = sum(len(pr.tree) for pr in procs)
        nontree = sum(len(pr.nontree) for pr in procs)
        untested = sum(len(pr.untested) for pr in procs)
        unresolved = sum(len(pr.unresolved) for pr in procs)
        stored = tree + nontree + untested + unresolved
        builder = next((pr.index for pr in procs if pr.is_builder), -1)
        loader = next((pr.index for pr in procs if pr.is_loader), -1)
        return (self.t, self.junction.mode, stored, tree, nontree, untested,
                unresolved, builder, loader, self.config.total_capacity - stored)

    # -- aging bookkeeping ---------------------------------------------------------

    def _aging_started(self, tick):
        self.aging_started_tick = tick
        self._aging_started_at = self.suspended_ticks  # before this tick's count
        self._pre_aging_stored = self.stored_total()
        for pr in self.processors:
            pr.deletions = 0

    def _aging_complete(self, tick):
        deleted = sum(pr.deletions for pr in self.processors)
        self.aging_log.append({
            "started": self.aging_started_tick,
            "completed": tick,
            "deleted": deleted,
            "pre_stored": self._pre_aging_stored,
            "survivors": self._pre_aging_stored - deleted,
            "stored_now": self.stored_total(),
        })
        if self.hooks is not None:
            self.hooks.aging_completed()

    # -- instrumentation ---------------------------------------------------------

    def _record_taps(self, ran):
        aging = self.junction.mode == "aging"
        for i, _, out in ran:
            slots = [out.primary]
            slots.extend(out.payload)
            edges = self.tap_edges[i]
            dumps = self.tap_dump[i]
            for it in slots:
                t = type(it)
                if t is LabeledEdge:
                    if not aging and it.lu != it.lv:
                        edges.append(it.snapshot())
                elif t is DumpPair:
                    dumps.append((it.block, it.name))

    def _audit_tick(self, ran):
        """Check each new output's slot count, then the layout, through the
        memo (see the module docstring): `audit_invariants` runs only when
        its answer could differ from the last run's, which found nothing.
        The rule for a hop that returned its input is applied here, so it
        holds whether `ran` lists every hop (taps on) or not."""
        config = self.config
        k = config.k
        s = config.s
        procs = self.processors
        rows = self._rows
        again = self._audit_again
        for i, b, out in ran:
            if out is not b:
                # occupied() is at most len(payload) + 1: only k or more
                # payload entries can overflow
                if len(out.payload) >= k:
                    n = out.occupied()
                    if n > k:
                        self.violations.append(Violation(
                            self.t, "slot-overflow", i, f"{n} occupied slots"))
            elif not (rows[i][0] and procs[i].aging):
                continue
            row = _layout_row(procs[i], s)
            if row != rows[i]:
                rows[i] = row
                again = True
        junction = self.junction
        aging = junction.mode == "aging"
        scope = self._audit_scope()
        inputs = (junction.mode, scope, self.t >= junction.age_hold_until,
                  junction.ring_sealed)
        if inputs != self._ring_inputs:
            self._ring_inputs = inputs
            again = True
        if not again:
            return
        found = self.audit_invariants()
        self.violations.extend(found)
        # with no builder, or no loader during a deletion, in scope the
        # audit looked for the token in the links, which move every tick;
        # a ring sealed outside a deletion has its builder at p
        in_scope = rows[:scope]
        looked = not any(r[3] for r in in_scope) and (aging or not junction.ring_sealed)
        self._audit_again = bool(found) or looked or (
            aging and not any(r[4] for r in in_scope))

    def _audit_scope(self):
        """How many processors, from the head, the layout checks cover.

        While a deletion token is still propagating, processors it has not
        reached keep their old stores, so the checks cover only the prefix
        that has switched regimes. The token reaches one processor a tick
        from its start tick on, and `suspended_ticks` counts each of those
        ticks once its hops have run: a call between ticks answers as the
        audit of the tick that just ran.
        """
        p = self.config.p
        if self.junction.mode != "aging":
            return p
        return min(p, self.suspended_ticks - self._aging_started_at)

    def audit_invariants(self):
        """Layout invariants over the current state, processor by
        processor: one `Violation` per offender, the checks in a fixed
        order. An empty list means clean."""
        found = []
        procs = self.processors
        s = self.config.s
        t = self.t
        junction = self.junction
        aging = junction.mode == "aging"
        scope = self._audit_scope()
        in_scope = procs[:scope]

        builders = [pr.index for pr in in_scope if pr.is_builder]
        if len(builders) > 1:
            found.append(Violation(t, "builder-count", -1,
                                   f"{len(builders)} builders in scope {scope}"))
        b = builders[0] if builders else self._builder_token_position()
        if b is None:
            found.append(Violation(t, "builder-count", -1, f"no builder in scope {scope}"))
        else:
            for pr in in_scope:
                ntree = len(pr.tree)
                if pr.index < b and ntree != s:
                    found.append(Violation(t, "tree-prefix", pr.index,
                                           f"sealed processor holds {ntree}/{s} tree edges"))
                if pr.index > b and ntree != 0:
                    found.append(Violation(t, "tree-downstream", pr.index,
                                           f"{ntree} tree edges downstream of builder {b}"))

        # steady-state packing; right after a deletion, trailing recycled
        # edges may still be refilling the transient hole at the head. During
        # a rebuild this clause is owned by the jeopardy exception: an
        # overloaded builder/loader legitimately parks edges in the first
        # open space further downstream.
        if not aging and t >= junction.age_hold_until:
            first_space = next((pr.index for pr in in_scope if pr.stored < s), scope)
            for pr in in_scope:
                if pr.index > first_space and (pr.tree or pr.nontree):
                    found.append(Violation(
                        t, "space-prefix", pr.index,
                        f"resolved edges beyond first open space {first_space}"))

        # only a deletion fills these pools, and it empties them before the
        # processor leaves it; the transit hop relies on it
        for pr in procs:
            if not pr.aging and (pr.untested or pr.unresolved):
                found.append(Violation(t, "pending-outside-aging", pr.index,
                                       f"{len(pr.untested)} untested, "
                                       f"{len(pr.unresolved)} unresolved while not aging"))

        if aging:
            loader = next((pr.index for pr in in_scope if pr.is_loader), None)
            if loader is None:
                loader = self._loader_token_position()
            if loader is not None:
                if len(builders) == 1 and builders[0] > loader:
                    found.append(Violation(t, "builder-past-loader", builders[0],
                                           f"builder {builders[0]} > loader {loader}"))
                for pr in in_scope:
                    if pr.index < loader and pr.unresolved:
                        found.append(Violation(
                            t, "unresolved-upstream", pr.index,
                            f"{len(pr.unresolved)} unresolved before loader {loader}"))
        return found

    def _loader_token_position(self):
        # token in flight: it sits in the link feeding its next holder
        for i in range(1, self.config.p):
            for it in self.links[i].payload:
                if type(it) is LoaderToken:
                    return i
        for it in self.junction_return.payload:
            if type(it) is LoaderToken:
                return self.config.p
        return None

    def _builder_token_position(self):
        for i in range(1, self.config.p):
            if self.links[i].builder_token:
                return i
        if self.junction_return.builder_token or self.junction.ring_sealed:
            return self.config.p  # sealed ring: every position is upstream
        return None

    # -- full-scan checks (on demand) ----------------------------------------------

    def audit_full(self):
        """O(S) checks: per-key copy counts and union-find conservation."""
        found = []
        counts = {}
        for pr in self.processors:
            for key in pr.dup:
                counts[key] = counts.get(key, 0) + 1
        limit = 2 if self.junction.mode == "aging" else 1
        for key, c in counts.items():
            if c > limit:
                found.append(Violation(self.t, "copy-count", -1, f"{key} stored {c}x"))
        for pr in self.processors:
            for kind, detail in pr.lc.audit():
                found.append(Violation(self.t, kind, pr.index, detail))
        return found
