import math
import random

import pytest
from hypothesis import given, strategies as st

from ringcc.aging import (
    DegenerateParams,
    ReservoirSample,
    ThresholdSearch,
    TimestampThreshold,
    min_bandwidth_expansion,
    required_free_space,
)
from ringcc.model import Age, Arrival, AutoAge, Connectivity, EdgeCount, IDLE
from ringcc.ring import Ring, RingConfig
from ringcc.streams import gen_uniform, interleave_queries

from util import replay_oracle


# ---------------------------------------------------------------- formulas

def test_min_bandwidth_expansion_values():
    assert min_bandwidth_expansion(0.5, 0.5, 1.0, 10) == pytest.approx(3.4)
    # c -> 0 limit approaches 1 + u/(d*p)
    assert min_bandwidth_expansion(1e-9, 1.0, 1.0, 10) == pytest.approx(1.1, rel=1e-6)
    assert min_bandwidth_expansion(0.5, 0.5, 0.67, 10) == pytest.approx(2.608)


def test_min_bandwidth_expansion_degenerate():
    with pytest.raises(DegenerateParams):
        min_bandwidth_expansion(1.0, 0.5, 1.0, 10)
    with pytest.raises(DegenerateParams):
        min_bandwidth_expansion(0.5, 0.0, 1.0, 10)


def test_required_free_space_values():
    assert required_free_space(0.5, 10000, 10, 5) == 140
    assert required_free_space(0.0, 10000, 10, 5) == 15  # ceil(1.5 * p)
    # homogeneous rule of thumb: c=1/2, k=5 needs about s/8 free
    s, p = 4096, 8
    assert required_free_space(0.5, s * p, p, 5) == s // 8 + math.ceil(1.5 * p)


# ---------------------------------------------------------------- reservoir

def test_reservoir_keeps_everything_until_full():
    r = ReservoirSample(100, random.Random(1))
    for i in range(50):
        r.insert(i, i + 1, i)
    assert len(r.samples) == 50 and r.seen == 50
    assert r.survivor_fraction(25) == pytest.approx(0.5)


def test_reservoir_inclusion_probability():
    # fixed first item across many seeded runs: inclusion frequency must sit
    # within 3 sigma of size/seen
    size, n, trials = 100, 2000, 500
    hits = 0
    for seed in range(trials):
        r = ReservoirSample(size, random.Random(seed))
        r.insert(0, 0, 0)
        for i in range(1, n):
            r.insert(i, i + 1, i)
        hits += any(s == (0, 0, 0) for s in r.samples)
    p = size / n
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(hits / trials - p) <= 3 * sigma


def test_reservoir_empty_fraction_defaults_to_keep():
    r = ReservoirSample(10, random.Random(0))
    assert r.survivor_fraction(123) == 1.0


def brute_survivor_fraction(samples, threshold):
    if not samples:
        return 1.0
    return sum(1 for (_, _, t) in samples if t >= threshold) / len(samples)


@given(size=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.one_of(st.integers(0, 12), st.none()), max_size=120))
def test_reservoir_index_matches_a_reference_algorithm_r(size, seed, steps):
    # each step inserts an edge with a (often repeated) timestamp, or resets
    sampler = ReservoirSample(size, random.Random(seed))
    rng, samples, seen = random.Random(seed), [], 0
    for i, t in enumerate(steps):
        if t is None:
            sampler.reset()
            samples, seen = [], 0
        else:
            sampler.insert(i, i + 1, t)
            seen += 1
            if len(samples) < size:
                samples.append((i, i + 1, t))
            else:
                j = rng.randrange(seen)
                if j < size:
                    samples[j] = (i, i + 1, t)
        assert sampler.times == sorted(t for (_, _, t) in sampler.samples)
        assert sampler.samples == samples
        assert sampler.rng.getstate() == rng.getstate()
        stamps = [t for (_, _, t) in samples]
        probes = {th for t in stamps for th in (t - 1, t, t + 1)} | {-5, 20}
        for th in probes:
            assert sampler.survivor_fraction(th) == brute_survivor_fraction(samples, th)


class Unscannable(list):
    def __iter__(self):
        raise AssertionError("the sample was scanned")


def test_survivor_probe_does_not_scan_the_sample():
    sampler = ReservoirSample(50, random.Random(2))
    for i in range(200):
        sampler.insert(i, i + 1, i % 70)
    expected = brute_survivor_fraction(sampler.samples, 30)
    sampler.samples = Unscannable(sampler.samples)
    assert sampler.survivor_fraction(30) == expected


def test_in_ring_survivor_probes_are_exact(monkeypatch):
    probe = ReservoirSample.survivor_fraction
    checked, wrong = [], []

    def exact(self, threshold):
        got = probe(self, threshold)
        checked.append(threshold)
        if got != brute_survivor_fraction(self.samples, threshold):
            wrong.append((threshold, got))
        return got

    monkeypatch.setattr(ReservoirSample, "survivor_fraction", exact)
    items = interleave_queries(gen_uniform(3000, 0.7, seed=4), every=10, seed=4)
    ring = run_items(Ring(RingConfig(p=4, s=300, k=4, auto_age_c=0.5, seed=4,
                                     validate=True)), items)
    requested = [int(e[2].rsplit(" ", 1)[1]) for e in ring.transcript.events
                 if e[0] == "EVT" and e[2].startswith("auto-age requested")]
    assert requested == [915, 1660, 2351]  # the thresholds a full scan finds
    assert len(ring.aging_log) >= 2 and checked and wrong == []
    assert ring.violations == []


# ------------------------------------------------------ sampler gating

def test_unarmed_ring_keeps_no_sampler():
    rng = random.Random(3)
    items = []
    for t in range(300):
        r = rng.random()
        if r < 0.1:
            items.append(Connectivity(rng.randrange(30), rng.randrange(30)))
        elif r < 0.12:
            items.append(EdgeCount())
        elif r < 0.13:
            items.append(Age(TimestampThreshold(t // 2)))
        else:
            items.append(Arrival(rng.randrange(30), rng.randrange(30)))
    ring = run_items(Ring(RingConfig(p=3, s=120, k=3, validate=True)), items)
    assert ring.aging_log and ring.transcript.outputs("answer")
    assert all(proc.reservoir is None for proc in ring.processors)
    assert ring.violations == []


def settled_ring(config, n=400, seed=5):
    """A ring that stored n random arrivals and has nothing in flight."""
    rng = random.Random(seed)
    items = [Arrival(rng.randrange(150), rng.randrange(150)) for _ in range(n)]
    return run_items(Ring(config), items)


def pass_autoage(ring):
    """Send an AUTOAGE around an idle ring, yielding each processor the
    tick it has passed it."""
    ring.tick(AutoAge(0.5))
    for proc in ring.processors:
        if proc.index:
            ring.tick(IDLE)
        yield proc


def test_mid_stream_autoage_seeds_each_sampler_from_its_store():
    config = RingConfig(p=3, s=200, k=4, validate=True, reservoir=20)
    ring = settled_ring(config)
    assert max(proc.stored for proc in ring.processors) > config.reservoir
    for proc in pass_autoage(ring):
        sampler = proc.reservoir
        assert sampler is not None and sampler.seen == proc.stored
        assert len(sampler.samples) == min(config.reservoir, proc.stored)
        stored = {(e.u, e.v, e.t) for e in proc.dup.values()}
        assert set(sampler.samples) <= stored
        assert all(q.reservoir is None for q in ring.processors[proc.index + 1:])
    assert ring.violations == []


def test_autoage_at_tick_zero_samples_as_if_armed_at_construction():
    config = RingConfig(p=3, s=50, k=3, seed=7)
    for proc in pass_autoage(Ring(config)):
        fresh = random.Random(f"{config.seed}/reservoir/{proc.index}")
        assert proc.reservoir.seen == 0
        assert proc.reservoir.rng.getstate() == fresh.getstate()


def test_second_autoage_neither_reseeds_nor_resets():
    config = RingConfig(p=3, s=200, k=4, validate=True, reservoir=20)
    ring = settled_ring(config)
    for _ in pass_autoage(ring):
        pass
    before = [(proc.reservoir, proc.reservoir.seen) for proc in ring.processors]
    for _ in pass_autoage(ring):
        pass
    assert [(proc.reservoir, proc.reservoir.seen) for proc in ring.processors] == before


# ---------------------------------------------------------------- search

def test_search_single_timestamp_returns_it():
    s = ThresholdSearch(7, 7, target=3.0)
    assert not s.done
    assert s.mid == 7
    s.offer(10.0)  # everything survives; still the only candidate
    assert s.done and s.best == 7


def test_search_converges_to_quantile():
    # exact survivor counts for thresholds over 0..999: est(t) = 1000 - t
    s = ThresholdSearch(0, 999, target=500.0, max_circuits=20)
    while not s.done:
        s.offer(float(1000 - s.mid))
        if s.done:
            break
    assert abs((1000 - s.best) - 500) <= 1


def test_search_circuit_budget_is_respected():
    s = ThresholdSearch(0, 10**12, target=1.0, max_circuits=8)
    n = 0
    while not s.done:
        s.offer(0.0)
        n += 1
    assert n <= 8


# ---------------------------------------------------------------- ring aging

def run_items(ring, items, drain=True):
    for it in items:
        ring.tick(it)
    if drain:
        ring.drain()
    return ring


def path_items(n, lo=0):
    return [Arrival(lo + i, lo + i + 1) for i in range(n)]


def test_aging_deletes_exactly_predicate_failures():
    rng = random.Random(8)
    items = []
    for _ in range(120):
        items.append(Arrival(rng.randrange(25), rng.randrange(25)))
    items.append(Age(TimestampThreshold(60)))
    ring = Ring(RingConfig(p=3, s=40, k=3, validate=True))
    run_items(ring, items)
    _, expected = replay_oracle(items)
    assert ring.stored_edges() == expected
    assert ring.violations == []


def test_aging_with_concurrent_arrivals():
    rng = random.Random(9)
    items = [Arrival(rng.randrange(30), rng.randrange(30)) for _ in range(150)]
    items.append(Age(TimestampThreshold(75)))
    items += [Arrival(rng.randrange(30), rng.randrange(30)) for _ in range(100)]
    ring = Ring(RingConfig(p=4, s=40, k=4, validate=True))
    run_items(ring, items)
    _, expected = replay_oracle(items)
    assert ring.stored_edges() == expected
    assert ring.violations == []


def test_duplicate_across_aging_boundary_updates_timestamp():
    items = [Arrival(1, 2), Arrival(3, 4)]
    items.append(Age(TimestampThreshold(0)))  # keeps everything
    items.append(Arrival(2, 1))               # duplicate arrives mid-rebuild
    ring = Ring(RingConfig(p=3, s=10, k=3, validate=True))
    run_items(ring, items)
    stored = ring.stored_edges()
    assert stored[(1, 2)] == 3  # refreshed to the duplicate's arrival tick
    assert stored[(3, 4)] == 1
    assert ring.violations == []


def test_head_survivor_is_rebuilt_from_primitive_labels():
    # 2-3 is stored as a tree edge under labels (1, 3), and 1-3 as a non-tree
    # edge under (1, 1), both from the union-find the deletion forgets. Once
    # 1-2 is deleted, the head must classify both survivors afresh: with the
    # stale labels it would merge 1 and 3 but not 2, and keep 1-3 non-tree
    ring = Ring(RingConfig(p=2, s=10, k=3, validate=True))
    run_items(ring, [Arrival(1, 2), Arrival(2, 3), Arrival(1, 3),
                     Age(TimestampThreshold(1))])
    head = ring.processors[0]
    assert sorted(e.ck for e in head.tree) == [(1, 3), (2, 3)]
    assert head.nontree == []
    for u, v in ((1, 2), (2, 3), (1, 3)):
        ring.tick(Connectivity(u, v))
    ring.drain()
    assert [e[4] for e in ring.transcript.events if e[0] == "OUT"] == [True] * 3
    assert ring.violations == []


def test_repeated_aging_events():
    rng = random.Random(10)
    items = []
    t = 0
    for _round in range(4):
        for _ in range(80):
            items.append(Arrival(rng.randrange(40), rng.randrange(40)))
        t = len(items)
        items.append(Age(TimestampThreshold(t - 40)))
    ring = Ring(RingConfig(p=3, s=60, k=4, validate=True))
    run_items(ring, items)
    _, expected = replay_oracle(items)
    assert ring.stored_edges() == expected
    assert ring.violations == []
    assert len(ring.aging_log) == 4
    for entry in ring.aging_log:
        assert entry["survivors"] == entry["pre_stored"] - entry["deleted"]


def test_queries_busy_during_aging_and_correct_after():
    items = path_items(20)
    items.append(Age(TimestampThreshold(10)))
    items.append(Connectivity(10, 20))  # arrives one tick into the rebuild
    ring = Ring(RingConfig(p=3, s=10, k=3, validate=True))
    run_items(ring, items)
    busy = ring.transcript.outputs("busy")
    assert len(busy) == 1 and busy[0][1] == 21  # immediate busy response
    for _ in range(ring.config.p + 2):
        ring.tick(IDLE)  # sit out the post-deletion settle window
    ring.tick(Connectivity(10, 20))
    ring.drain()
    answers = ring.transcript.outputs("answer")
    assert len(answers) == 1 and answers[0][4] is True
    assert ring.violations == []


def test_age_command_during_aging_is_ignored():
    items = path_items(12)
    items.append(Age(TimestampThreshold(6)))
    items.append(Age(TimestampThreshold(0)))
    ring = Ring(RingConfig(p=3, s=8, k=3, validate=True))
    run_items(ring, items)
    assert len(ring.aging_log) == 1
    _, expected = replay_oracle(items[:13])
    assert ring.stored_edges() == expected


def test_custom_predicate():
    from ringcc.aging import CustomPredicate
    items = [Arrival(i, i + 100) for i in range(30)]
    items.append(Age(CustomPredicate(lambda e: e.u % 2 == 0, "keep-even")))
    ring = Ring(RingConfig(p=3, s=20, k=3, validate=True))
    run_items(ring, items)
    stored = ring.stored_edges()
    assert set(stored) == {(i, i + 100) for i in range(30) if i % 2 == 0}
    assert ring.violations == []


def test_aging_under_pressure_with_spills():
    # small, nearly full system, k=2: the head must spill survivors through
    # primary slots without losing anything
    rng = random.Random(12)
    items = [Arrival(i, i + 1) for i in range(14)]      # path: all tree
    items.append(Age(TimestampThreshold(4)))
    items += [Arrival(100 + i, 101 + i) for i in range(4)]
    ring = Ring(RingConfig(p=4, s=4, k=2, validate=True))
    run_items(ring, items)
    _, expected = replay_oracle(items)
    assert ring.stored_edges() == expected
    assert ring.violations == []


def test_auto_age_threshold_tracks_exact_quantile():
    # distinct timestamps (a path stream) make the exact half-survivor
    # threshold the median arrival tick; the sampled search must land inside
    # the reservoir confidence band around it
    ring = Ring(RingConfig(p=3, s=400, k=4, validate=True,
                           auto_age_c=0.5, reservoir=100))
    arrivals = 0
    requested = None
    for i in range(2000):
        ring.tick(Arrival(i, i + 1))
        arrivals += 1
        for e in ring.transcript.events:
            if e[0] == "EVT" and e[2].startswith("auto-age requested"):
                requested = int(e[2].rsplit(" ", 1)[1])
                break
        if requested is not None:
            break
    assert requested is not None
    # every stored timestamp is one arrival tick; survivors = ticks >= thr
    stored = arrivals
    survivors = sum(1 for t in range(stored) if t >= requested)
    assert abs(survivors / stored - 0.5) <= 0.1
    ring.drain()
    assert ring.violations == []


def test_auto_age_triggers_and_restores_headroom():
    # lead time must fit inside the tail (the trigger is tail-local), so s
    # comfortably exceeds the required free space plus search latency
    ring = Ring(RingConfig(p=3, s=200, k=4, validate=True,
                           auto_age_c=0.5, auto_age_margin=1.25,
                           search_circuits=8, reservoir=50))
    for i in range(1200):
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    assert len(ring.aging_log) >= 2
    for entry in ring.aging_log:
        assert entry["pre_stored"] <= ring.config.total_capacity
    assert ring.violations == []
    assert ring.stored_total() < ring.config.total_capacity
