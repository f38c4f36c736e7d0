import random
import threading

import pytest

from ringcc.model import Age, Arrival, Connectivity, DumpLabels, EdgeCount, IDLE
from ringcc.aging import TimestampThreshold
from ringcc.pipeline import ThreadedRing, run_pipelined
from ringcc.processor import Processor
from ringcc.ring import Ring, RingConfig


def random_items(rng, n, nverts, with_age=True):
    items = []
    for i in range(n):
        r = rng.random()
        if r < 0.6:
            items.append(Arrival(rng.randrange(nverts), rng.randrange(nverts)))
        elif r < 0.7 and with_age and i > 20:
            items.append(Age(TimestampThreshold(rng.randrange(max(1, i - 40), i))))
        elif r < 0.85:
            items.append(Connectivity(rng.randrange(nverts), rng.randrange(nverts)))
        else:
            items.append(EdgeCount())
    return items


def test_pipelined_transcript_matches_lockstep():
    rng = random.Random(77)
    for trial in range(5):
        p = rng.choice([2, 3, 5])
        s = rng.choice([20, 50])
        k = rng.choice([2, 3, 4])
        items = random_items(rng, rng.randrange(80, 200), 15)
        items += [IDLE] * (6 * p + 2 * p * s // (k - 1) + 16)
        cfg_a = RingConfig(p=p, s=s, k=k, seed=9)
        cfg_b = RingConfig(p=p, s=s, k=k, seed=9)
        lock = Ring(cfg_a)
        lock.run_stream(items, drain=False)
        piped = run_pipelined(cfg_b, items)
        assert piped.text() == lock.transcript.text(), f"trial {trial}"


def test_pipelined_with_dump_query():
    items = [Arrival(i % 7, (i + 1) % 7) for i in range(25)]
    items.append(DumpLabels())
    items += [IDLE] * 60
    cfg = RingConfig(p=3, s=10, k=3, seed=1)
    lock = Ring(RingConfig(p=3, s=10, k=3, seed=1))
    lock.run_stream(items, drain=False)
    piped = run_pipelined(cfg, items)
    assert piped.text() == lock.transcript.text()


def test_threaded_ring_taps_and_metrics_match_lockstep():
    rng = random.Random(31)
    items = random_items(rng, 300, 40) + [IDLE] * 40 + [DumpLabels()]
    rings = []
    for engine in (Ring, ThreadedRing):
        ring = engine(RingConfig(p=4, s=30, k=3, seed=5, taps=True, metrics=True))
        ring.run_stream(items)
        rings.append(ring)
    lock, threaded = rings
    assert lock.aging_log and any(lock.tap_edges) and any(lock.tap_dump)
    assert threaded.transcript.text() == lock.transcript.text()
    for attr in ("tap_edges", "tap_dump", "metrics", "aging_log", "suspended_ticks"):
        assert getattr(threaded, attr) == getattr(lock, attr), attr


def test_threaded_ring_refuses_validation():
    with pytest.raises(ValueError):
        ThreadedRing(RingConfig(p=2, s=10, validate=True))


def test_worker_exception_reaches_the_caller(monkeypatch):
    process_bundle = Processor.process_bundle
    calls = 0

    def failing(proc, b):
        nonlocal calls
        if proc.index == 2:
            calls += 1
            if calls > 5:
                raise RuntimeError("processor 2 failed")
        return process_bundle(proc, b)

    monkeypatch.setattr(Processor, "process_bundle", failing)
    threads_before = threading.active_count()
    raised = []

    def run():
        try:
            run_pipelined(RingConfig(p=4, s=10, k=3), [Arrival(i, i + 1) for i in range(20)])
        except RuntimeError as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive(), "run_pipelined hung on a worker exception"
    assert [str(exc) for exc in raised] == ["processor 2 failed"]
    assert threading.active_count() == threads_before  # workers stopped
