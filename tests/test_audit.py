"""The per-tick audit runs `Ring.audit_invariants` only when a processor's
layout row or a ring-level input moved. On every tick the layout violations
the tick appends must equal those of an unconditional `audit_invariants`
call, in the same order, whether the memo ran the audit or not.

The memo rests on a premise: a hop that returns its input changes nothing
the audit reads, unless its processor is aging with untested edges to test.
That covers an empty input returned by a processor that is not aging, and
a bundle passed on by an aging processor whose untested pool was empty.
Every compared run checks it on each such hop."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ringcc.aging import TimestampThreshold
from ringcc.model import EMPTY_BUNDLE, IDLE, Age, Arrival, AutoAge, Connectivity, EdgeCount
from ringcc.processor import Processor
from ringcc.ring import Ring, RingConfig, SystemFailed, _layout_row

from test_idle_skip import drain_padding, mixed_items, policy_ring


def rows(found):
    return [(v.tick, v.kind, v.index, v.detail) for v in found]


def audit_fields(pr):
    """What the layout audit reads of a processor, as counts."""
    return (len(pr.untested), len(pr.unresolved), pr.aging, pr.is_builder,
            pr.is_loader, len(pr.tree), len(pr.nontree), pr.stored)


def run_compared(ring, items):
    """Run `items` on `ring`, comparing after each tick's audit the layout
    violations the tick appended with an unconditional audit and the memo's
    rows with the processors, and checking the premise on every hop the
    audit skips. Returns counts of ticks, audits run, ticks flagged and skipped hops:
    all of them (`passes`), those at an aging processor (`aging passes`)
    and those that returned the empty bundle at any other (`empty
    passes`). Running out of storage ends the run, an allowed outcome on
    small rings."""
    seen = Counter()
    audit = Ring.audit_invariants
    audit_tick = Ring._audit_tick
    process_bundle = Processor.process_bundle

    def counted(ring):
        seen["audits"] += 1
        return audit(ring)

    def compared(ring, ran):
        n = len(ring.violations)
        audit_tick(ring, ran)
        got = [v for v in ring.violations[n:] if v.kind != "slot-overflow"]
        assert rows(got) == rows(audit(ring)), f"{ring.config} tick {ring.t}"
        # the memo's rows are the facts as they stand
        assert ring._rows == [_layout_row(pr, ring.config.s) for pr in ring.processors], \
            f"{ring.config} tick {ring.t}"
        seen["ticks"] += 1
        seen["flagged"] += bool(got)

    def premised(proc, b):
        before = audit_fields(proc)
        testing = bool(proc.untested)
        out = process_bundle(proc, b)
        if out is b and not (testing and proc.aging):
            assert audit_fields(proc) == before, f"{ring.config} p{proc.index} tick {ring.t}"
            seen["passes"] += 1
            seen["aging passes"] += proc.aging
            seen["empty passes"] += b is EMPTY_BUNDLE and not proc.aging
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ring, "audit_invariants", counted)
        mp.setattr(Ring, "_audit_tick", compared)
        mp.setattr(Processor, "process_bundle", premised)
        try:
            ring.run_stream(items, drain=False)
        except SystemFailed:
            pass
    return seen


@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_the_memo_matches_the_audit_on_mixed_streams(p):
    for trial in range(3):
        rng = random.Random(1000 * p + trial)
        s = max(12, 90 // p)
        k = rng.choice([3, 4, 5])
        items = [AutoAge(0.5)] + mixed_items(rng, 650, 20) + drain_padding(p, s, k)
        config = RingConfig(p=p, s=s, k=k, seed=trial, search_circuits=2, validate=True)
        seen = run_compared(Ring(config), items)
        assert 0 < seen["audits"] < seen["ticks"], f"{config}: {seen}"
        assert seen["passes"] > 0


def backlog_stream(seed):
    """A saturated small ring and stream drawn like those of the rider
    sweep in `test_backlog.py`, from a seed of its own."""
    rng = random.Random(seed)
    p, s, k = rng.randint(1, 5), rng.randint(4, 60), rng.choice((2, 3, 4, 5))
    config = RingConfig(p=p, s=s, k=k, validate=True, seed=rng.randrange(100))
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
    return config, items


# seeds whose rings the audit flagged: deletions on p=3 and p=5 rings with
# s=4 k=5 that lost the builder token riding with the deletion token (now
# kept, so 24988 runs clean and 4087 runs out of storage first), and two
# k=2 rebuilds that leave resolved edges beyond the first open space
FLAGGED_SEEDS = (4087, 24988, 7771, 21228)


def test_builder_token_riding_with_the_deletion_token_keeps_the_audit_clean():
    config, items = backlog_stream(24988)
    ring = Ring(config)
    ring.run_stream(items, drain=False)
    assert ring.violations == []


def test_a_full_head_at_k2_defers_its_last_test_instead_of_overflowing():
    # p=3 s=59 k=2: a full head takes a stream edge and a recycled edge on
    # one deletion tick, and both evict, so no slot is left for the last
    # test's spill. The test waits a tick; the ring still runs out of
    # storage later, which is another defect (ROADMAP item 9)
    config, items = backlog_stream(412)
    assert type(items[0]) is AutoAge
    ring = Ring(config)
    try:
        ring.run_stream(items[1:])
    except SystemFailed:
        pass
    assert ring.violations == []


def test_the_memo_matches_the_audit_where_it_flags():
    flagged = Counter()
    for seed in FLAGGED_SEEDS:
        config, items = backlog_stream(seed)
        flagged += run_compared(Ring(config), items)
    assert flagged["flagged"] > 0, "no audit found anything: the comparison is vacuous"


def test_a_called_processor_that_opens_a_space_reruns_the_audit(monkeypatch):
    # a planted fault inside a call: the head absorbs a duplicate and its
    # count loses an edge, so a space opens upstream of processor 1's tree
    # edge while every other fact the audit reads of the head stays
    ring = Ring(RingConfig(p=3, s=5, k=3, validate=True))
    ring.run_stream([Arrival(i, i + 1) for i in range(6)])
    assert ring.violations == [] and ring.processors[1].tree
    process_bundle = Processor.process_bundle

    def leaking(proc, b):
        out = process_bundle(proc, b)
        if proc.is_head and out is not b:
            proc.stored -= 1
        return out

    monkeypatch.setattr(Processor, "process_bundle", leaking)
    seen = run_compared(ring, [IDLE] * 3 + [Arrival(0, 1)] + [IDLE] * 3)
    assert seen["audits"] < seen["ticks"] and seen["flagged"] == 4
    assert ring.violations[0].kind == "space-prefix"


def test_a_pass_through_hop_changes_nothing_the_audit_reads():
    seen = run_compared(*policy_ring())
    # each kind of skipped hop occurs: at an aging processor, empty at one
    # that is not aging, and non-empty at one that is not aging
    assert seen["empty passes"] > 0 and seen["aging passes"] > 0
    assert seen["passes"] > seen["empty passes"] + seen["aging passes"]
    assert seen["audits"] < seen["ticks"]


def test_a_ring_sealed_outside_a_deletion_is_not_audited_every_tick():
    # a sealed ring has no builder; outside a deletion no builder token is
    # in flight either, so the audit places the builder at p whatever the
    # links hold, and idle ticks give it nothing new to read
    ring = Ring(RingConfig(p=3, s=5, k=3, validate=True))
    seen = run_compared(ring, [Arrival(i, i + 1) for i in range(15)] + [IDLE] * 200)
    assert ring.junction.ring_sealed and ring.violations == []
    assert seen["ticks"] == 215 and seen["audits"] <= 20, seen


vertices = st.integers(0, 24)
chunks = st.one_of(
    st.lists(st.builds(Arrival, vertices, vertices), min_size=1, max_size=40),
    st.builds(lambda u, v: [Connectivity(u, v)], vertices, vertices),
    st.just([EdgeCount()]),
    st.builds(lambda t: [Age(TimestampThreshold(t))], st.integers(0, 300)),
    st.builds(lambda c: [AutoAge(c)], st.sampled_from((0.3, 0.5, 0.7))),
    st.builds(lambda n: [IDLE] * n, st.integers(1, 30)),
)


@settings(max_examples=200)
@given(p=st.integers(1, 5), s=st.integers(4, 40), k=st.integers(2, 5),
       seed=st.integers(0, 99), chunks=st.lists(chunks, min_size=20, max_size=100))
def test_the_memo_matches_the_audit_on_drawn_streams(p, s, k, seed, chunks):
    items = [it for chunk in chunks for it in chunk]
    run_compared(Ring(RingConfig(p=p, s=s, k=k, seed=seed, validate=True)), items)
