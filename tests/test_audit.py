"""`Ring.audit_invariants` decides from one pass of per-check summaries
which layout checks fail, and loops over the processors only for those.
`util.audit_scan` makes every check processor by processor. On every tick
both must report the same violations, in the same order."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ringcc.aging import TimestampThreshold
from ringcc.model import IDLE, Age, Arrival, AutoAge, Connectivity, EdgeCount
from ringcc.ring import Ring, RingConfig, SystemFailed

from test_idle_skip import drain_padding, mixed_items
from util import audit_scan


def rows(found):
    return [(v.tick, v.kind, v.index, v.detail) for v in found]


def run_compared(config, items):
    """Run `items` while every audit is also made by the scan and must
    match it. Returns the number of audits and of those that found
    something. Running out of storage ends the run, an allowed outcome on
    small rings."""
    seen = Counter()
    audit = Ring.audit_invariants

    def compared(ring):
        found = audit(ring)
        assert rows(found) == rows(audit_scan(ring)), f"{config} tick {ring.t}"
        seen["audits"] += 1
        seen["flagged"] += bool(found)
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ring, "audit_invariants", compared)
        try:
            Ring(config).run_stream(items, drain=False)
        except SystemFailed:
            pass
    return seen


@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_summaries_match_the_scan_on_mixed_streams(p):
    for trial in range(3):
        rng = random.Random(1000 * p + trial)
        s = max(12, 90 // p)
        k = rng.choice([3, 4, 5])
        items = [AutoAge(0.5)] + mixed_items(rng, 650, 20) + drain_padding(p, s, k)
        config = RingConfig(p=p, s=s, k=k, seed=trial, search_circuits=2, validate=True)
        assert run_compared(config, items)["audits"] > 0


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


def test_summaries_match_the_scan_where_the_audit_flags():
    flagged = Counter()
    for seed in FLAGGED_SEEDS:
        flagged += run_compared(*backlog_stream(seed))
    assert flagged["flagged"] > 0, "no audit found anything: the comparison is vacuous"


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
def test_summaries_match_the_scan_on_drawn_streams(p, s, k, seed, chunks):
    items = [it for chunk in chunks for it in chunk]
    run_compared(RingConfig(p=p, s=s, k=k, seed=seed, validate=True), items)
