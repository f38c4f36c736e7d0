"""A processor with no work of its own takes the transit hop.

Such a processor is not the builder, not aging, not the tail, has nothing
queued and gets no builder token. `Processor.process_bundle` hands it any
bundle of edges, behind an optional connectivity or count query, and
`Processor._transit` does slot by slot what the general path would: absorb
duplicates, relabel at a sealed processor, settle equal-label edges while
space lasts, update the query, and forward the rest in its slot. The general
path is the reference: with the hop declined, every stream must give the
same transcript, taps, stores and deletion log. The hops are counted by
kind (sealed relabel, settle, constant query, full relay) so that each kind
is known to be exercised.
"""

import random
from collections import Counter

from ringcc.model import Arrival, AutoAge
from ringcc.processor import Processor
from ringcc.queries import ConnQuery, CountQuery
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


def hop_kind(proc, b):
    """Which transit hop a non-empty bundle at `proc` would take."""
    if type(b.primary) in (ConnQuery, CountQuery):
        return "query"
    if proc.sealed:
        return "sealed"
    return "settle" if proc.stored < proc.s else "relay"


def run_both(monkeypatch, cfg, items):
    """Run the stream with the transit hop declined, then as is; both runs
    must agree. Returns the failure, if any, and the hops taken by kind."""
    case = str(cfg)
    monkeypatch.setattr(Processor, "_transit", lambda proc, b: None)
    ref, ref_failed = run(cfg, items)
    monkeypatch.undo()
    transit = Processor._transit
    hops = Counter()

    def counted(proc, b):
        kind = hop_kind(proc, b)
        out = transit(proc, b)
        if out is not None and not b.is_empty():
            hops[kind] += 1
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
    hops = Counter()
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
    for kind in ("sealed", "settle", "query", "relay"):
        assert hops[kind] >= 500, hops


def test_full_tail_fails_on_the_same_tick(monkeypatch):
    # no deletions: distinct edges overrun the ring, crossing full
    # processors until the full tail signals exhaustion
    rng = random.Random(5)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    rng.shuffle(pairs)
    failed, hops = run_both(monkeypatch, dict(p=4, s=10, k=3),
                            [Arrival(u, v) for u, v in pairs])
    assert failed is not None and "storage exhausted" in failed
    assert hops["relay"] > 0
