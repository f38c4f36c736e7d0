"""Host speed, measured next to the ring's own work.

On a shared 2-vCPU virtual machine (Python 3.11), the same pure-Python work
ran at speeds up to two times apart, in spells lasting minutes: of ten
30-second runs of one workload, two read 40% slower than the rest. A median
within one run cannot remove a spell that covers the whole run.

So every round interleaves a fixed reference workload between chunks of
ticks and times it. The median call time near a chunk, against REF_CALL_S,
is that chunk's slowdown factor, and the ring's host times in the chunk are
divided by it. Host-time metrics therefore read in seconds of a reference
host, one on which a reference call takes REF_CALL_S.

The reference allocates no collector-tracked objects, so it leaves the
ring's garbage collections where they were, and its state is reset on every
call, so every call does the same work. A change to the ring could still
move the reference (its data, about 100 KB, is refilled after each chunk of
ring work), and the scaling would then hide part of that change. selftest.py
guards against this: it slows every tick by a self-timed burden, pure-Python
work or scattered reads from a 32 MB buffer, and checks that the scaled
items_per_s falls by the share of round time the burden took.
"""

from __future__ import annotations

import statistics
import time

REF_CALL_S = 200e-6   # one reference call on the reference host
REF_STEPS = 600
NEARBY = 5            # calls either side that make a local estimate


class _Edge:
    __slots__ = ("u", "v", "t")

    def __init__(self, u, v):
        self.u = u
        self.v = v
        self.t = 0

    def key(self):
        return self.u * 65536 + self.v if self.u <= self.v else self.v * 65536 + self.u


class HostSpeed:
    """Times a fixed mix of the operations the ring spends its time on:
    slot-object attribute access, method calls, dictionary lookups and
    inserts, and union-find walks."""

    def __init__(self):
        self.pool = [_Edge(i * 7919 % 4093, i * 104729 % 4091) for i in range(1024)]
        self.seen = {}
        self.parent = {}
        self.times = []  # seconds per call, in call order

    def call(self):
        """Run the reference once; returns the seconds it took."""
        t0 = time.perf_counter()
        pool, seen, parent = self.pool, self.seen, self.parent
        seen.clear()
        parent.clear()
        for i in range(REF_STEPS):
            e = pool[i & 1023]
            k = e.key()
            n = seen.get(k)
            seen[k] = 1 if n is None else n + 1
            e.t = i
            root = e.u
            while parent.get(root, root) != root:
                root = parent[root]
            if root != e.v:
                parent[e.v] = root
        took = time.perf_counter() - t0
        self.times.append(took)
        return took

    def slowdown(self):
        """Mean call time over the reference host's; 1.0 means as fast."""
        return statistics.fmean(self.times) / REF_CALL_S

    def local_slowdowns(self):
        """Per call, the slowdown from the median of the calls up to NEARBY
        either side of it; robust to a single disturbed call."""
        t = self.times
        return [statistics.median(t[max(0, i - NEARBY):i + NEARBY + 1]) / REF_CALL_S
                for i in range(len(t))]
