"""A full processor downstream of the builder forwards its bundle unchanged.

Such a processor, when it is not aging, not the tail and has nothing
queued, can only absorb duplicates and pass every other edge on in its slot,
so `Processor.process_bundle` hands bundles of plain edges to a forward-only
hop. The general path is the reference: with the hop declined, every stream
must give the same transcript, taps, stores and deletion log.
"""

import random

from ringcc.model import Arrival, AutoAge
from ringcc.processor import Processor
from ringcc.ring import Ring, RingConfig, SystemFailed

from test_idle_skip import drain_padding, mixed_items


def run(cfg, items):
    """The ring after the stream, and the failure that ended it early, if
    any: a ring this small can exhaust its storage during a rebuild."""
    ring = Ring(RingConfig(validate=True, taps=True, **cfg))
    try:
        ring.run_stream(items, drain=False)
    except SystemFailed as e:
        return ring, str(e)
    return ring, None


def run_both(monkeypatch, cfg, items):
    """Run the stream with the transit hop declined, then as is; both runs
    must agree. Returns the failure, if any, and the hops taken."""
    case = str(cfg)
    monkeypatch.setattr(Processor, "_transit", lambda proc, b: None)
    ref, ref_failed = run(cfg, items)
    monkeypatch.undo()
    transit = Processor._transit
    hops = 0

    def counted(proc, b):
        nonlocal hops
        out = transit(proc, b)
        if out is not None:
            hops += 1
        return out

    monkeypatch.setattr(Processor, "_transit", counted)
    fast, failed = run(cfg, items)
    monkeypatch.undo()

    assert failed == ref_failed, case
    assert ref.violations == [] and fast.violations == [], case
    assert fast.transcript.text() == ref.transcript.text(), case
    assert fast.tap_edges == ref.tap_edges, case
    assert fast.tap_dump == ref.tap_dump, case
    assert fast.stored_edges() == ref.stored_edges(), case
    assert fast.aging_log == ref.aging_log, case
    return failed, hops


def test_transit_matches_general_path(monkeypatch):
    hops = 0
    for p in (1, 2, 5, 10):
        for k in (2, 3, 5):
            rng = random.Random(100 * p + k)
            # arrivals reach several times the capacity, with automatic aging
            # armed from the first tick; two search circuits keep the
            # policy's lead time short enough for a ring this small
            s = max(12, 90 // p)
            items = [AutoAge(0.5)] + mixed_items(rng, 650, 20) + drain_padding(p, s, k)
            assert sum(type(it) is Arrival for it in items) >= 3 * p * s
            hops += run_both(monkeypatch, dict(p=p, s=s, k=k, seed=p, search_circuits=2),
                             items)[1]
    assert hops >= 1000


def test_full_tail_fails_on_the_same_tick(monkeypatch):
    # no deletions: distinct edges overrun the ring, crossing full
    # processors until the full tail signals exhaustion
    rng = random.Random(5)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    rng.shuffle(pairs)
    failed, hops = run_both(monkeypatch, dict(p=4, s=10, k=3),
                            [Arrival(u, v) for u, v in pairs])
    assert failed is not None and "storage exhausted" in failed
    assert hops > 0
