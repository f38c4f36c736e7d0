"""A deletion start shares its tick with the stream's next item, so a stream
without idle ticks builds no input backlog across any number of deletions."""

import random

from ringcc.aging import TimestampThreshold
from ringcc.model import (
    Age,
    AgeRequest,
    Arrival,
    AutoAge,
    Bundle,
    Connectivity,
)
from ringcc.ring import Ring, RingConfig, SystemFailed
from ringcc.streams import gen_uniform, interleave_queries

from util import OracleCC, ages_applied


def request_age(ring, threshold):
    """Hand the junction what the tail sends once its search converged."""
    ring.junction_return = Bundle(None, [AgeRequest(threshold)])


def records_at(ring, tick):
    return [e for e in ring.transcript.events if e[1] == tick]


def evt_texts(ring):
    return [e[2] for e in ring.transcript.events if e[0] == "EVT"]


def filled_ring(k=5):
    ring = Ring(RingConfig(p=3, s=10, k=k, validate=True))
    for i in range(6):
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    return ring


def test_saturated_auto_aging_keeps_no_backlog():
    p = 5
    ring = Ring(RingConfig(p=p, s=1200, k=5, auto_age_c=0.5, validate=True))
    items = interleave_queries(gen_uniform(40_000, 1.0, seed=0), every=10, seed=0)
    submitted = []
    for tick, item in enumerate(items):
        if type(item) is Connectivity:
            submitted.append(tick)
        ring.tick(item)
        assert not ring.junction.pending, f"backlog after tick {tick}"
    ring.drain()
    assert len(ring.aging_log) >= 3
    assert not [t for t in evt_texts(ring) if t.startswith(("input deferred", "input backlog"))]
    assert ring.violations == []

    answers = {e[2]: (e[1], e[4]) for e in ring.transcript.outputs("answer")}
    busy = {e[2] for e in ring.transcript.outputs("busy")}
    assert len(answers) + len(busy) == len(submitted)
    assert busy, "no query met a deletion"
    for qid, (tick, _) in answers.items():
        assert tick == submitted[qid] + p, f"q{qid} answered after {tick - submitted[qid]} ticks"

    applied = ages_applied(ring.transcript)
    oracle = OracleCC()
    qid = 0
    for e in ring.transcript.events:
        if e[0] != "IN":
            continue
        tick, f = e[1], e[2].split()
        if f[0] == "E":
            oracle.arrive(int(f[1]), int(f[2]), tick)
        elif f[0] == "AGE" and tick in applied:
            oracle.age(int(f[1]))
        elif f[0] == "Q":
            if qid in answers:
                assert answers[qid][1] == oracle.connected(int(f[1]), int(f[2])), f"q{qid}"
            qid += 1
    assert ring.system_edges() == oracle.active


def test_deletion_start_carries_the_ticks_arrival():
    ring = filled_ring()
    tick = ring.t
    request_age(ring, threshold=3)
    ring.tick(Arrival(20, 21))
    assert records_at(ring, tick) == [
        ("EVT", tick, "auto-age requested threshold 3"),
        ("IN", tick, "AGE 3"),
        ("EVT", tick, "aging started"),
        ("IN", tick, "E 20 21"),
    ]
    assert not ring.junction.pending
    ring.drain()
    assert ring.system_edges()[(20, 21)] == tick
    assert ring.violations == []


def test_deletion_start_answers_a_riding_query_busy():
    ring = filled_ring()
    tick = ring.t
    request_age(ring, threshold=3)
    ring.tick(Connectivity(0, 1))
    assert ("IN", tick, "Q 0 1") in ring.transcript.events
    assert ring.transcript.outputs("busy") == [("OUT", tick, 0, "busy")]
    assert not ring.junction.pending
    ring.drain()
    assert ring.violations == []


def test_deletion_start_ignores_a_riding_age():
    ring = filled_ring()
    request_age(ring, threshold=3)
    ring.tick(Age(TimestampThreshold(5)))
    assert evt_texts(ring).count("aging started") == 1
    assert "age command ignored: deletion already active" in evt_texts(ring)
    assert not ring.junction.pending
    ring.drain()
    assert ring.aging_log[0]["survivors"] == 3  # edges 3-4, 4-5 and 5-6
    assert ring.violations == []


def test_autoage_waits_for_the_primary_slot():
    ring = filled_ring()
    tick = ring.t
    request_age(ring, threshold=3)
    ring.tick(AutoAge(0.5))
    assert [type(it) for it in ring.junction.pending] == [AutoAge]
    ring.tick(Arrival(20, 21))
    assert ("IN", tick + 1, "AUTOAGE 0.5") in ring.transcript.events
    assert [it.u for it in ring.junction.pending] == [20]
    ring.drain()
    assert [t for t in evt_texts(ring) if t.startswith("input backlog")] == [
        "input backlog 1", "input backlog 0"]
    assert ring.violations == []


def test_backlog_reported_once_per_depth_change():
    # k = 2 leaves no payload slot for the tick's item, so each start defers
    ring = filled_ring(k=2)
    tick = ring.t
    request_age(ring, threshold=3)
    for i in range(5):
        ring.tick(Arrival(30 + i, 40 + i))
    assert ("IN", tick, "AGE 3") in ring.transcript.events
    assert [e for e in ring.transcript.events if e[0] == "EVT" and e[2].startswith("input")] == [
        ("EVT", tick, "input backlog 1")]
    ring.drain()
    assert [t for t in evt_texts(ring) if t.startswith("input")] == [
        "input backlog 1", "input backlog 0"]
    assert ring.violations == []


def test_held_deletion_lets_the_stream_through():
    ring = filled_ring()
    request_age(ring, threshold=3)
    ring.tick()
    while ring.junction.mode == "aging":
        ring.tick()
    hold = ring.junction.age_hold_until
    assert ring.t < hold
    request_age(ring, threshold=4)
    tick = ring.t
    ring.tick(Arrival(50, 51))
    assert ("IN", tick, "E 50 51") in ring.transcript.events
    assert type(ring.junction.pending[0]) is Age
    while ring.t <= hold:
        ring.tick(Arrival(ring.t, ring.t + 100))
    assert [e[1] for e in ring.transcript.events
            if e[0] == "EVT" and e[2] == "aging started"][-1] == hold
    assert not ring.junction.pending
    ring.drain()
    assert ring.violations == []


def rider_ticks(ring):
    """Ticks whose deletion start let the stream's item in alongside."""
    out = set()
    started = None
    for e in ring.transcript.events:
        if e[0] == "EVT" and e[2] == "aging started":
            started = e[1]
        elif e[0] == "IN" and e[1] == started:
            out.add(started)
    return out


def test_rider_slot_budget_sweep():
    """Small saturated rings without idle ticks. At a full head a rider can
    displace two edges, so it rides only with two free payload slots and
    never at k = 2; a looser budget overflows the head's bundle on the start
    tick. Running out of storage (SystemFailed) is an allowed outcome; an
    overflow on any tick fails the sweep.

    A rebuild can leave a key stored twice, with or without riders; that
    defect is not what this test checks."""
    rng = random.Random(2024)
    rides = 0
    for _ in range(400):
        p, s, k = rng.randint(1, 5), rng.randint(4, 60), rng.choice((2, 3, 4, 5))
        ring = Ring(RingConfig(p=p, s=s, k=k, validate=True, seed=rng.randrange(100)))
        nverts = rng.randint(4, 2 * s)
        items = [AutoAge(rng.choice((0.3, 0.5, 0.7)))]
        for t in range(1, 4 * p * s):
            r = rng.random()
            if r < 0.08:
                items.append(Connectivity(rng.randrange(nverts), rng.randrange(nverts)))
            elif r < 0.1:
                items.append(Age(TimestampThreshold(max(0, t - rng.randint(1, p * s)))))
            else:
                items.append(Arrival(rng.randrange(nverts), rng.randrange(nverts)))
        try:
            ring.run_stream(items, drain=False)
        except SystemFailed:
            pass
        ridden = rider_ticks(ring)
        where = f"p={p} s={s} k={k}"
        assert not (k == 2 and ridden), f"{where}: rider at k=2"
        assert not [v for v in ring.violations if v.kind == "slot-overflow" or v.tick in ridden], \
            f"{where}: {ring.violations[:3]}"
        rides += len(ridden)
    assert rides >= 300
