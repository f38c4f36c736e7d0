"""The lockstep engine calls only processors that have something to do.

A processor whose input link is empty, whose outbound queue is empty and
which is not aging would emit an empty bundle and change nothing, so
`Ring.tick` skips it, an idle tail holding the auto-age monitor included. The threaded engine still calls
every processor every tick, which makes it the reference: on any stream the
two transcripts must be byte-identical.
"""

import random

import pytest

from ringcc.aging import TimestampThreshold
from ringcc.model import (
    IDLE,
    Age,
    Arrival,
    AutoAge,
    Connectivity,
    DumpLabels,
    EdgeCount,
    MaxComponent,
    SmallComponents,
    SpanningTree,
)
from ringcc.pipeline import run_pipelined
from ringcc.processor import Processor
from ringcc.ring import Ring, RingConfig


def mixed_items(rng, n, nverts):
    """n draws of arrivals, every query kind, deletions and long idle runs,
    with automatic aging armed a third of the way in."""
    items = []
    for draw in range(n):
        if draw == n // 3:
            items.append(AutoAge(0.5))
        r = rng.random()
        tick = len(items)
        if r < 0.70:
            items.append(Arrival(rng.randrange(nverts), rng.randrange(nverts)))
        elif r < 0.80:
            items.append(Connectivity(rng.randrange(nverts), rng.randrange(nverts)))
        elif r < 0.83:
            items.append(EdgeCount())
        elif r < 0.86:
            items.append(rng.choice([DumpLabels(), SpanningTree(), MaxComponent(),
                                     SmallComponents(rng.randrange(1, 4))]))
        elif r < 0.87:
            items.append(Age(TimestampThreshold(rng.randrange(tick // 2, tick + 1))))
        else:
            items.extend([IDLE] * rng.randrange(1, 40))
    return items


def drain_padding(p, s, k):
    return [IDLE] * (6 * p + 2 * p * s // (k - 1) + 16)


@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_lockstep_matches_threaded_reference(p):
    auto_deletions = 0
    for trial in range(4):
        rng = random.Random(1000 * p + trial)
        s = max(12, 100 // p)
        k = rng.choice([3, 4, 5])
        items = mixed_items(rng, 400, 60) + drain_padding(p, s, k)
        # two search circuits keep the policy's lead time short enough for
        # a ring this small
        cfg = dict(p=p, s=s, k=k, seed=trial, search_circuits=2)
        lock = Ring(RingConfig(validate=True, **cfg))
        lock.run_stream(items, drain=False)
        assert lock.violations == [], f"p={p} trial {trial}"
        piped = run_pipelined(RingConfig(**cfg), items)
        assert piped.text() == lock.transcript.text(), f"p={p} trial {trial}"
        auto_deletions += lock.transcript.text().count("auto-age requested")
    assert auto_deletions > 0


def test_idle_processors_are_not_called(monkeypatch):
    calls = 0
    process_bundle = Processor.process_bundle

    def counted(proc, b):
        nonlocal calls
        calls += 1
        return process_bundle(proc, b)

    monkeypatch.setattr(Processor, "process_bundle", counted)
    p = 10
    items = []
    for i in range(20):
        items.append(Arrival(i, i + 1))
        items.append(Connectivity(0, i))
        items.extend([IDLE] * 30)
    ring = Ring(RingConfig(p=p, s=50, k=3, validate=True))
    ring.run_stream(items)
    assert ring.violations == []
    assert [e[4] for e in ring.transcript.outputs("answer")] == [True] * 20
    assert 0 < calls < p * ring.t


def policy_ring():
    """A small validated ring whose policy runs several deletions, and the
    bursts of arrivals and idle runs that drive it."""
    rng = random.Random(7)
    items = []
    for _ in range(150):
        items.extend(Arrival(rng.randrange(200), rng.randrange(200)) for _ in range(4))
        items.extend([IDLE] * rng.randrange(10, 40))
    return Ring(RingConfig(p=5, s=20, k=3, auto_age_c=0.5, search_circuits=2,
                           validate=True)), items


def test_idle_tail_with_a_monitor_is_not_called(monkeypatch):
    # the auto-age monitor at the tail changes only inside a call, so an
    # idle tail is skipped like any other idle processor
    tail_calls = []
    process_bundle = Processor.process_bundle

    def recorded(proc, b):
        if proc.is_tail:
            busy = not b.is_empty() or bool(proc.outq) or proc.aging
            tail_calls.append((ring.t, busy))
        return process_bundle(proc, b)

    monkeypatch.setattr(Processor, "process_bundle", recorded)
    ring, items = policy_ring()
    ring.run_stream(items)
    assert ring.violations == []
    assert ring.transcript.text().count("auto-age requested") >= 2
    # the first tick calls every processor; after that, only a busy tail
    assert [t for t, busy in tail_calls if not busy] == [0]
    assert len(tail_calls) < ring.t // 2


def test_a_wrapper_on_the_public_hop_sees_each_scheduled_call_once(monkeypatch):
    # the benchmark's tracer wraps `Processor.process_bundle` on the class
    # and counts one call per hop the ring schedules, so nothing inside
    # `Processor` may call it
    process_bundle = Processor.__dict__["process_bundle"]
    advance = Ring.__dict__["_advance"]
    calls = []
    ticks = 0

    def traced(proc, b):
        out = process_bundle(proc, b)
        calls.append((proc.index, b, out))
        return out

    def checked(ring, head_in):
        nonlocal ticks
        calls.clear()
        ran = advance(ring, head_in)
        assert len(calls) == len(ran), ring.t
        for (i, b, out), (index, given, got) in zip(ran, calls):
            assert i == index and b is given and out is got, ring.t
        ticks += 1
        return ran

    monkeypatch.setattr(Processor, "process_bundle", traced)
    monkeypatch.setattr(Ring, "_advance", checked)
    ring, items = policy_ring()
    ring.run_stream(items)
    assert ring.violations == [] and ticks == ring.t
    text = ring.transcript.text()
    assert text.count("auto-age requested") >= 2 and text.count("aging complete") >= 2
