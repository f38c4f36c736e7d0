"""Outside-in tracing: wraps the public callables of each ringcc module from
the benchmark's side, so the program itself carries no timers.

Every wrapped call is a span with a name, start, end, parent span and the
ring tick it ran in (the identifier all spans of one tick share). Calls are
aggregated per span name (count and self time: duration minus the time its
child spans cover); full spans are kept only for a bounded window of ticks
and written out when the run ends. Counters that need to look at arguments
(bundle roles, no-op calls, edge hops, junction backlog) are taken at the
same boundaries.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

from ringcc.aging import AutoAgeMonitor, ReservoirSample
from ringcc.model import LabeledEdge
from ringcc.processor import Processor
from ringcc.ring import IOJunction, Ring, RingHooks
from ringcc.unionfind import LocalComponents

ROLES = ("head", "builder", "sealed", "downstream", "tail", "aging")

# span name -> (class, public methods); processor bundles are wrapped apart
# because their span name depends on the processor's role
SPANS = {
    "processor.begin_aging": (Processor, ("begin_aging",)),
    "model.key": (LabeledEdge, ("key",)),
    "unionfind.relabel": (LocalComponents, ("relabel",)),
    "unionfind.union": (LocalComponents, ("union",)),
    "aging.reservoir.insert": (ReservoirSample, ("insert",)),
    "aging.monitor": (AutoAgeMonitor, ("should_start", "start", "on_stats",
                                       "on_survivors", "threshold", "reset")),
    "ring.junction.step": (IOJunction, ("step",)),
    "ring.audit": (Ring, ("audit_invariants",)),
    "ring.hooks": (RingHooks, ("stored", "removed")),
    "ring.tick": (Ring, ("tick",)),
}

# which end-to-end metric each per-layer metric should move, on which
# workload; the longest matching name prefix applies
PREDICTIONS = {
    "processor.bundle": "items_per_s, query_ms_p50 on steady",
    "processor.noop_frac": "items_per_s, query_ms_p50 on steady; nothing on autoage",
    "processor.edge_hops_per_item": "items_per_s, query_ms_p50 on steady",
    "processor.begin_aging": "query_ms_p99 on autoage",
    "model.key": "items_per_s on autoage, little on steady",
    "unionfind": "items_per_s on steady and autoage",
    "aging.reservoir.insert": "items_per_s on autoage; survivor_err must not worsen",
    "aging.monitor": "query_ms_p99 on autoage",
    "aging.search_circuits_mean": "query_failed_frac on autoage",
    "aging.deletions": "query_failed_frac on autoage",
    "aging.rebuild_ticks_mean": "query_failed_frac on autoage",
    "aging.suspended_frac": "query_failed_frac on autoage",
    "aging.survivor_err": "survivor_err on autoage",
    "ring.tick": "items_per_s on steady",
    "ring.junction.step": "items_per_s on steady",
    "ring.junction.backlog": "query_ticks_p99, query_ms_p99 on autoage; zero on steady",
    "ring.transcript.events": "peak_rss_mb on autoage",
    "ring.audit": "items_per_s on autoage-audit only",
    "ring.hooks": "items_per_s on autoage-audit only",
    "gc": "query_ms_p99 on every workload",
    "host.items_per_s_unscaled": "items_per_s on every workload, before host-speed scaling",
}


def prediction(metric):
    """The predicted effect of a per-layer metric, or "" if none is made."""
    prefix = max((p for p in PREDICTIONS if metric.startswith(p)), key=len, default="")
    return PREDICTIONS.get(prefix, "")


def role_of(proc):
    """Role of a processor from its public flags, read before the call."""
    if proc.aging:
        return "aging"
    if proc.is_head:
        return "head"
    if proc.is_tail:
        return "tail"
    if proc.is_builder:
        return "builder"
    if proc.sealed:
        return "sealed"
    return "downstream"


class Tracer:
    """Span recorder. `window` is the half-open tick range whose spans are
    kept in full; outside it only the per-name aggregates grow."""

    def __init__(self, window):
        self.window = window
        self.tick = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.method_calls = defaultdict(int)  # "Class.method" -> calls
        self.spans = []
        self.stack = []  # open spans: [span id, child seconds]
        self.next_id = 0
        self.noop_calls = 0
        self.edge_hops = 0
        self.backlog_max = 0
        self.backlog_ticks = 0
        self._saved = []

    def span(self, name, entered, fn, args, kwargs=None):
        """Call fn as span `name`. The parent is charged the child's whole
        cost from `entered` (the wrapper's first clock read) to the end of
        the bookkeeping, so wrapper overhead lands in no one's self time."""
        perf = time.perf_counter
        stack = self.stack
        sid = self.next_id
        self.next_id = sid + 1
        frame = [sid, 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        t0 = perf()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            t1 = perf()
            stack.pop()
            self.calls[name] += 1
            self.self_s[name] += t1 - t0 - frame[1]
            lo, hi = self.window
            if lo <= self.tick < hi:
                self.spans.append((sid, name, t0, t1, parent, self.tick))
            if stack:
                stack[-1][1] += perf() - entered

    def _patch(self, cls, attr, wrapper):
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _wrap(self, cls, attr, name):
        fn = cls.__dict__[attr]
        span = self.span
        counts = self.method_calls
        method = f"{cls.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            counts[method] += 1
            return span(name, entered, fn, args, kwargs)

        self._patch(cls, attr, wrapper)

    def install(self):
        step_fn = IOJunction.__dict__["step"]

        def step(junction, tick, ret, item):
            out = step_fn(junction, tick, ret, item)
            depth = len(junction.pending)
            if depth:
                self.backlog_ticks += 1
                if depth > self.backlog_max:
                    self.backlog_max = depth
            return out

        self._patch(IOJunction, "step", step)

        bundle_fn = Processor.__dict__["process_bundle"]
        names = {role: f"processor.bundle.{role}" for role in ROLES}
        span = self.span

        def process_bundle(proc, b):
            entered = time.perf_counter()
            if (b.is_empty() and not proc.outq and not proc.aging
                    and proc.monitor is None):
                self.noop_calls += 1
            hops = type(b.primary) is LabeledEdge
            for it in b.payload:
                if type(it) is LabeledEdge:
                    hops += 1
            self.edge_hops += hops
            return span(names[role_of(proc)], entered, bundle_fn, (proc, b))

        self._patch(Processor, "process_bundle", process_bundle)

        for name, (cls, attrs) in SPANS.items():
            for attr in attrs:
                self._wrap(cls, attr, name)

        tick_fn = Ring.__dict__["tick"]

        def tick(ring, item=None):
            self.tick = ring.t
            return tick_fn(ring, item)  # outermost span: no parent to charge

        self._patch(Ring, "tick", tick)

    def uninstall(self):
        while self._saved:
            cls, attr, fn = self._saved.pop()
            setattr(cls, attr, fn)

    def span_records(self):
        """Kept spans as dicts, times in microseconds from the first one."""
        if not self.spans:
            return []
        base = min(s[2] for s in self.spans)
        return [{"id": sid, "name": name, "start_us": (t0 - base) * 1e6,
                 "end_us": (t1 - base) * 1e6, "parent": parent, "tick": tick}
                for sid, name, t0, t1, parent, tick in self.spans]


class GcWatch:
    """Collector pauses, read through gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = None

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.pause_s += time.perf_counter() - self._t0
            self._t0 = None
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
