"""Bulk-deletion support: survival predicates, the sizing formulas that make
indefinite runs possible, reservoir sampling, and the tail-driven automatic
threshold search.

Sizing notation, used throughout: c is the fraction of total storage S that
survives a deletion, u the expected unique fraction of arriving edges, k the
bundle size, p the processor count, s per-processor capacity (S = s*p).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort


class DegenerateParams(ValueError):
    """Sizing formula asked for an impossible operating point."""


class TimestampThreshold:
    """Keep edges at least as new as the threshold (t >= t_a survives)."""

    __slots__ = ("threshold",)

    def __init__(self, threshold):
        self.threshold = threshold

    def __call__(self, edge):
        return edge.t >= self.threshold

    def render(self):
        return str(self.threshold)

    def __repr__(self):
        return f"TimestampThreshold({self.threshold})"


class CustomPredicate:
    """Arbitrary constant-time, side-effect-free survival test."""

    __slots__ = ("fn", "name")

    def __init__(self, fn, name="custom"):
        self.fn = fn
        self.name = name

    def __call__(self, edge):
        return self.fn(edge)

    def render(self):
        return self.name


def min_bandwidth_expansion(c, d, u, p):
    """Smallest real bundle size that lets a deletion finish in time.

    d is the query-downtime budget: the largest tolerable fraction of ticks
    spent rebuilding. With k at least 1 + (c*p + 1)*u / (d*p*(1-c)) slots per
    bundle, recycling the c*S survivors completes before unique arrivals
    (rate u) can refill the remaining (1-c)*S of storage. Callers round up.
    """
    if not (0 < c < 1):
        raise DegenerateParams(f"c={c} must be in (0, 1)")
    if not (0 < d <= 1):
        raise DegenerateParams(f"d={d} must be in (0, 1]")
    if not (0 < u <= 1):
        raise DegenerateParams(f"u={u} must be in (0, 1]")
    if p < 1:
        raise DegenerateParams(f"p={p} must be >= 1")
    return 1.0 + (c * p + 1.0) * u / (d * p * (1.0 - c))


def required_free_space(c, S, p, k):
    """Open slots needed system-wide when a deletion starts.

    Worst case: every survivor tests before the first failure frees space,
    with up to p transit edges needing homes, and the first p ticks of
    testing running at half throughput. ceil(c*S / (p*(k-1)) + 1.5*p).
    """
    if k < 2:
        raise DegenerateParams(f"k={k} must be >= 2")
    return math.ceil(c * S / (p * (k - 1)) + 1.5 * p)


class ReservoirSample:
    """Classic fixed-size uniform sample of everything accepted here
    (Vitter's Algorithm R).

    Each inserted edge ends up in the sample with probability size/seen.
    Only (u, v, t) snapshots are kept; staleness against later timestamp
    refreshes is absorbed by the search's accuracy band. `times` holds the
    samples' timestamps in sorted order, kept in step with `samples` on
    every append and replacement, so a survivor probe bisects it in
    O(log size) instead of scanning the sample. A processor keeps one only
    while the automatic policy is armed; an `AUTOAGE` mid-stream seeds it by
    inserting the processor's current store.
    """

    __slots__ = ("size", "rng", "samples", "times", "seen")

    def __init__(self, size, rng):
        self.size = size
        self.rng = rng
        self.samples = []
        self.times = []
        self.seen = 0

    def insert(self, u, v, t):
        self.seen += 1
        samples = self.samples
        if len(samples) < self.size:
            samples.append((u, v, t))
            insort(self.times, t)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                times = self.times
                del times[bisect_left(times, samples[j][2])]
                insort(times, t)
                samples[j] = (u, v, t)

    def survivor_fraction(self, threshold):
        """Fraction of the sample with t >= threshold; 1.0 when empty so an
        unsampled store is never scheduled for deletion."""
        times = self.times
        if not times:
            return 1.0
        return (len(times) - bisect_left(times, threshold)) / len(times)

    def reset(self):
        self.samples.clear()
        self.times.clear()
        self.seen = 0


class EmptySystem(Exception):
    """Threshold search started with no stored edges."""


class ThresholdSearch:
    """Binary search over timestamps for a survivor target.

    offer() consumes one probed estimate (survivors if the threshold were
    mid) and either narrows [lo, hi] or finishes; the best midpoint seen is
    the answer. Estimates decrease as the threshold rises.
    """

    __slots__ = ("lo", "hi", "target", "circuits_left", "mid",
                 "best", "best_err", "done")

    def __init__(self, oldest, newest, target, max_circuits=16):
        if target < 0:
            raise ValueError("target must be >= 0")
        self.lo = oldest
        self.hi = newest + 1  # half-open: thresholds up to newest are probeable
        self.target = target
        self.circuits_left = max_circuits
        self.best = oldest
        self.best_err = None
        self.done = self.lo >= self.hi
        self.mid = oldest if self.done else (self.lo + self.hi) // 2

    def offer(self, estimate):
        err = abs(estimate - self.target)
        if self.best_err is None or err < self.best_err:
            self.best_err = err
            self.best = self.mid
        if estimate > self.target:
            self.lo = self.mid + 1
        else:
            self.hi = self.mid
        self.circuits_left -= 1
        if self.lo >= self.hi or self.circuits_left <= 0:
            if self.best_err is None:
                self.best = self.lo
            self.done = True
        else:
            self.mid = (self.lo + self.hi) // 2
        return self.done


# ---------------------------------------------------------------------------
# Ring protocol messages for the automatic policy (payload traffic)

class StatsProbe:
    """First circuit: fold per-processor stored count and timestamp extremes."""

    __slots__ = ("gen", "total", "oldest", "newest")

    def __init__(self, gen):
        self.gen = gen
        self.total = 0
        self.oldest = None
        self.newest = None

    def fold(self, count, oldest, newest):
        self.total += count
        if count:
            if self.oldest is None or oldest < self.oldest:
                self.oldest = oldest
            if self.newest is None or newest > self.newest:
                self.newest = newest


class SurvivorProbe:
    """Subsequent circuits: fold estimated survivors for one candidate."""

    __slots__ = ("gen", "threshold", "estimate")

    def __init__(self, gen, threshold):
        self.gen = gen
        self.threshold = threshold
        self.estimate = 0.0

    def fold(self, amount):
        self.estimate += amount


class AutoAgeMonitor:
    """Tail-resident policy: when the tail starts to fill past the lead-time
    point, search for a timestamp threshold hitting the survivor target and
    ask the I/O side to issue the deletion.

    The trigger reads only the tail's own fill level; whenever the tail holds
    edges in normal mode, everything upstream is already full, so local free
    space equals system free space. The searched threshold estimate is built
    from each processor's reservoir in one ring circuit per probe.
    """

    __slots__ = ("target_c", "max_circuits", "phase", "gen", "search", "trigger_stored")

    def __init__(self, target_c, margin, p, s, k, max_circuits=16):
        self.target_c = target_c
        self.max_circuits = max_circuits
        self.phase = "idle"
        self.gen = 0
        self.search = None
        # free space needed at trigger time: the lead-time bound scaled by the
        # safety margin, plus the arrivals expected while probes circulate
        needed = math.ceil(margin * required_free_space(target_c, s * p, p, k))
        needed += (max_circuits + 2) * p
        self.trigger_stored = max(1, s - needed)

    def should_start(self, stored_at_tail):
        return self.phase == "idle" and stored_at_tail >= self.trigger_stored

    def start(self):
        self.gen += 1
        self.phase = "stats"
        return StatsProbe(self.gen)

    def on_stats(self, probe):
        """Stats circuit done; returns the first survivor probe or None."""
        if probe.gen != self.gen or self.phase != "stats":
            return None
        if probe.total == 0:
            self.phase = "idle"
            raise EmptySystem("no stored edges to age")
        self.search = ThresholdSearch(probe.oldest, probe.newest,
                                      self.target_c * probe.total,
                                      self.max_circuits)
        if self.search.done:
            self.phase = "request"
            return None
        self.phase = "search"
        return SurvivorProbe(self.gen, self.search.mid)

    def on_survivors(self, probe):
        """Survivor circuit done; returns the next probe or None if finished."""
        if probe.gen != self.gen or self.phase != "search":
            return None
        if self.search.offer(probe.estimate):
            self.phase = "request"
            return None
        return SurvivorProbe(self.gen, self.search.mid)

    def threshold(self):
        return self.search.best if self.search is not None else None

    def reset(self):
        """Deletion under way (or aborted); re-arm once back in normal mode."""
        self.phase = "idle"
        self.search = None
