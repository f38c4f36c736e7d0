import random

import pytest

from ringcc.model import (
    EMPTY_BUNDLE, Age, Arrival, AutoAge, Bundle, Connectivity, EdgeCount, IDLE, LabeledEdge)
from ringcc.aging import TimestampThreshold
from ringcc.multipass import static_cc
from ringcc.processor import Processor
from ringcc.ring import IOJunction, Ring, RingConfig, SystemFailed, Violation
from ringcc.streams import gen_uniform

from test_idle_skip import drain_padding, mixed_items


def cfg(**kw):
    kw.setdefault("p", 3)
    kw.setdefault("s", 10)
    kw.setdefault("k", 3)
    kw.setdefault("validate", True)
    return RingConfig(**kw)


def test_single_arrival_settles_at_head():
    ring = Ring(cfg())
    ring.tick(Arrival(1, 2))
    head = ring.processors[0]
    assert head.stored == 1
    assert len(head.tree) == 1
    assert ring.stored_edges() == {(1, 2): 0}
    assert [e for e in ring.transcript.events if e[0] == "OUT"] == []


def test_connectivity_latency_is_exactly_p():
    for p in (1, 2, 3, 5):
        ring = Ring(cfg(p=p))
        ring.tick(Arrival(1, 2))
        ring.tick(Connectivity(1, 2))
        query_tick = 1
        for _ in range(p + 2):
            ring.tick(None)
        outs = ring.transcript.outputs("answer")
        assert len(outs) == 1
        assert outs[0][1] == query_tick + p
        assert outs[0][4] is True


def test_connectivity_answers():
    ring = Ring(cfg())
    for item in (Arrival(1, 2), Arrival(2, 3)):
        ring.tick(item)
    ring.tick(Connectivity(1, 3))   # connected through 2
    ring.tick(Connectivity(1, 99))  # 99 never seen
    ring.tick(Connectivity(7, 7))   # reflexive, both unseen
    ring.drain()
    answers = [e[4] for e in ring.transcript.outputs("answer")]
    assert answers == [True, False, True]


def test_query_agreement_with_oracle_on_random_stream():
    rng = random.Random(99)
    ring = Ring(cfg(p=4, s=100, k=3))
    active = []
    expected = []
    for i in range(400):
        u, v = rng.randrange(30), rng.randrange(30)
        if rng.random() < 0.25 and active:
            a, b = rng.choice(active + [(rng.randrange(30), -5)])
            labels = static_cc(active)
            want = a in labels and b in labels and labels[a] == labels[b] or a == b
            expected.append(want)
            ring.tick(Connectivity(a, b))
        else:
            active.append((u, v))
            ring.tick(Arrival(u, v))
    ring.drain()
    answers = [e[4] for e in ring.transcript.outputs("answer")]
    assert answers == expected
    assert ring.violations == []


def test_edge_count():
    ring = Ring(cfg(p=3, s=50))
    seen = set()
    rng = random.Random(4)
    for _ in range(60):
        u, v = rng.randrange(15), rng.randrange(15)
        seen.add((min(u, v), max(u, v)))
        ring.tick(Arrival(u, v))
    ring.tick(EdgeCount())
    ring.drain()
    counts = ring.transcript.outputs("count")
    assert len(counts) == 1
    assert counts[0][4] == len(seen)
    assert ring.violations == []


def test_duplicates_are_absorbed_and_timestamps_refresh():
    ring = Ring(cfg())
    ring.tick(Arrival(1, 2))
    ring.tick(Arrival(3, 4))
    ring.tick(Arrival(2, 1))  # same edge, swapped endpoints
    ring.drain()
    stored = ring.stored_edges()
    assert stored == {(1, 2): 2, (3, 4): 1}
    assert ring.violations == []


def test_full_system_fails():
    # p*s = 4 unique edges fit; the fifth has nowhere to go
    ring = Ring(cfg(p=2, s=2, k=2))
    edges = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    with pytest.raises(SystemFailed):
        for u, v in edges:
            ring.tick(Arrival(u, v))
        ring.drain()


def test_unique_edge_capacity_boundary():
    # duplicates must not consume capacity: 4 unique edges repeated many
    # times fit exactly in p*s = 4
    ring = Ring(cfg(p=2, s=2, k=2))
    edges = [(1, 2), (3, 4), (5, 6), (7, 8)] * 5
    for u, v in edges:
        ring.tick(Arrival(u, v))
    ring.drain()
    assert ring.stored_total() == 4
    assert ring.violations == []


def test_replay_is_deterministic():
    def run():
        rng = random.Random(31)
        ring = Ring(cfg(p=3, s=50, k=3, seed=12))
        for _ in range(200):
            if rng.random() < 0.3:
                ring.tick(Connectivity(rng.randrange(20), rng.randrange(20)))
            else:
                ring.tick(Arrival(rng.randrange(20), rng.randrange(20)))
        ring.tick(Age(TimestampThreshold(100)))
        for _ in range(80):
            ring.tick(IDLE)
        ring.drain()
        return ring.transcript.text()

    assert run() == run()


def test_builder_advances_and_invariants_hold():
    ring = Ring(cfg(p=3, s=5, k=3))
    rng = random.Random(2)
    # a path keeps every edge a tree edge, forcing builder turnover
    for i in range(12):
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    assert ring.violations == []
    assert [len(pr.tree) for pr in ring.processors] == [5, 5, 2]
    assert ring.processors[2].is_builder


def test_audit_detects_injected_fault():
    ring = Ring(cfg(p=3, s=5, k=3))
    for i in range(4):
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    assert ring.audit_invariants() == []
    head, mid = ring.processors[0], ring.processors[1]
    edge = head.tree.pop()  # move a tree edge downstream of the builder
    mid.tree.append(edge)
    kinds = {v.kind for v in ring.audit_invariants()}
    assert "tree-downstream" in kinds


def test_audit_detects_pending_edges_outside_aging():
    ring = Ring(cfg(p=3, s=5, k=3))
    for i in range(4):
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    mid = ring.processors[1]
    assert not mid.aging
    mid.unresolved.append(LabeledEdge(7, 8))
    found = ring.audit_invariants()
    assert [(v.kind, v.index) for v in found] == [("pending-outside-aging", 1)]
    mid.unresolved.clear()
    mid.untested.append(LabeledEdge(7, 8))
    assert [v.kind for v in ring.audit_invariants()] == ["pending-outside-aging"]
    mid.aging = True  # mid-deletion, the pools are expected
    assert "pending-outside-aging" not in {v.kind for v in ring.audit_invariants()}


def test_copy_counts_flag_each_copy_a_regime_does_not_allow():
    # one copy of a key outside a deletion; two while a deletion rebuilds,
    # and one again once it completes
    ring = Ring(cfg(p=2, s=5, k=3))
    hooks = ring.hooks
    key = (1, 2)
    for index in (0, 1, 1):
        hooks.stored(key, index)
    assert [(v.kind, v.index, v.detail) for v in ring.violations] == [
        ("duplicate-store", 1, "(1, 2) stored twice in normal mode"),
        ("duplicate-store", 1, "(1, 2) stored 3 times")]
    for _ in range(3):
        hooks.removed(key, 0)
    assert hooks.counts == {}
    ring.junction.mode = "aging"
    hooks.stored(key, 0)
    hooks.stored(key, 1)
    assert len(ring.violations) == 2 and hooks.twice == {key}
    hooks.removed(key, 0)
    assert hooks.counts == {key: 1} and hooks.twice == set()
    hooks.aging_completed()
    assert len(ring.violations) == 2
    hooks.stored(key, 0)
    hooks.aging_completed()
    assert [(v.kind, v.detail) for v in ring.violations[2:]] == [
        ("post-aging-duplicate", "1 keys still stored twice")]


def test_audit_flags_an_overfull_output_once():
    ring = Ring(cfg(p=3, s=5, k=3))
    for i in range(4):
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    e = [LabeledEdge(10 + i, 20 + i) for i in range(4)]
    ring._audit_tick([(0, EMPTY_BUNDLE, Bundle(e[0], e[1:3])),
                      (1, EMPTY_BUNDLE, Bundle(None, e[:3])),
                      (2, EMPTY_BUNDLE, Bundle(None, e[:2]))])
    assert ring.violations == []  # at most k occupied slots each
    ring._audit_tick([(0, EMPTY_BUNDLE, Bundle(e[0], e[1:4])),
                      (1, EMPTY_BUNDLE, Bundle(e[0], e[1:3]))])
    assert [(v.kind, v.index, v.detail) for v in ring.violations] == [
        ("slot-overflow", 0, "4 occupied slots")]


def test_a_tick_that_raises_mid_hop_fails_the_ring(monkeypatch):
    # the raising hop's input is gone, so the ring must not run on
    class Boom(Exception):
        pass

    boom = Boom()
    process_bundle = Processor.process_bundle

    def raise_once(proc, b):
        monkeypatch.setattr(Processor, "process_bundle", process_bundle)
        raise boom

    ring = Ring(cfg())
    ring.tick(Arrival(1, 2))
    monkeypatch.setattr(Processor, "process_bundle", raise_once)
    with pytest.raises(Boom) as raised:
        ring.tick(Arrival(3, 4))
    assert raised.value is boom and ring.failed
    with pytest.raises(SystemFailed, match="system already failed"):
        ring.tick(Arrival(5, 6))


def test_self_loops_store_as_nontree():
    ring = Ring(cfg())
    ring.tick(Arrival(5, 5))
    ring.tick(Arrival(1, 2))
    ring.tick(Connectivity(5, 5))
    ring.tick(Connectivity(5, 1))
    ring.drain()
    head = ring.processors[0]
    assert len(head.nontree) == 1
    answers = [e[4] for e in ring.transcript.outputs("answer")]
    assert answers == [True, False]
    assert ring.stored_edges() == {(5, 5): 0, (1, 2): 1}


def path_ring(edges, p=3, s=5, k=3):
    """A drained ring holding a path, so every edge is a tree edge."""
    ring = Ring(cfg(p=p, s=s, k=k))
    for i in range(edges):
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    assert ring.audit_invariants() == []
    return ring


def planted(ring):
    return [(v.kind, v.index, v.detail) for v in ring.audit_invariants()]


def test_audit_detects_a_missing_builder():
    ring = path_ring(4)
    ring.processors[0].is_builder = False
    assert planted(ring) == [("builder-count", -1, "no builder in scope 3")]


def test_audit_detects_a_second_builder():
    ring = path_ring(4)
    ring.processors[2].is_builder = True
    assert planted(ring) == [("builder-count", -1, "2 builders in scope 3")]


def test_audit_detects_a_short_sealed_processor():
    ring = path_ring(12)
    assert [len(pr.tree) for pr in ring.processors] == [5, 5, 2]
    ring.processors[0].tree.pop()
    assert planted(ring) == [("tree-prefix", 0, "sealed processor holds 4/5 tree edges")]


def test_audit_detects_tree_edges_downstream_of_the_builder():
    # only the tree layout is off: no open space precedes a resolved edge
    ring = path_ring(12)
    ring.processors[0].is_builder = True
    ring.processors[2].is_builder = False
    assert planted(ring) == [
        ("tree-downstream", 1, "5 tree edges downstream of builder 0"),
        ("tree-downstream", 2, "2 tree edges downstream of builder 0")]


def test_audit_detects_resolved_edges_beyond_the_first_open_space():
    ring = path_ring(8)
    assert [pr.stored for pr in ring.processors] == [5, 3, 0]
    ring.processors[2].nontree.append(LabeledEdge(7, 7))
    assert planted(ring) == [
        ("space-prefix", 2, "resolved edges beyond first open space 1")]


def rebuilding_ring(until):
    """A full path ring rebuilding every edge, ticked until `until(procs)`."""
    ring = path_ring(12)
    ring.tick(Age(TimestampThreshold(0)))
    while not until(ring.processors):
        assert ring.junction.mode == "aging"
        ring.tick(IDLE)
    assert ring.audit_invariants() == []
    return ring


def test_a_call_between_ticks_answers_as_the_tick_that_just_ran(monkeypatch):
    # the deletion's scope grows by one processor a tick; a direct call
    # after a tick covers what that tick's audit covered, no processor more
    ring = path_ring(12)
    p = ring.config.p
    audit_tick = Ring._audit_tick
    in_tick = []

    def recorded(ring, ran):
        audit_tick(ring, ran)
        in_tick.append((ring._audit_scope(), planted(ring)))

    monkeypatch.setattr(Ring, "_audit_tick", recorded)
    for n, item in enumerate([Age(TimestampThreshold(0))] + [IDLE] * (p - 1), 1):
        ring.tick(item)
        assert ring.junction.mode == "aging"
        assert in_tick[-1] == (n, []) and ring.violations == []
        assert (ring._audit_scope(), planted(ring)) == in_tick[-1]


def test_audit_detects_the_builder_past_the_loader():
    ring = rebuilding_ring(lambda procs: procs[1].is_builder and procs[1].is_loader)
    head, mid = ring.processors[:2]
    mid.is_loader = False
    head.is_loader = True
    assert planted(ring) == [("builder-past-loader", 1, "builder 1 > loader 0")]


def test_audit_detects_unresolved_edges_upstream_of_the_loader():
    ring = rebuilding_ring(lambda procs: procs[1].is_loader)
    mid, tail = ring.processors[1:]
    assert len(mid.unresolved) == 3 and tail.aging
    mid.is_loader = False
    tail.is_loader = True
    assert planted(ring) == [
        ("unresolved-upstream", 1, "3 unresolved before loader 2")]


def full_audit(ring):
    return [(v.kind, v.index, v.detail) for v in ring.audit_full()]


def test_full_audit_detects_a_key_stored_twice():
    ring = path_ring(4)
    head, mid = ring.processors[:2]
    assert full_audit(ring) == []
    key = next(iter(head.dup))
    mid.dup[key] = head.dup[key]
    assert full_audit(ring) == [("copy-count", -1, f"{key} stored 2x")]


def test_full_audit_detects_a_miscounted_component():
    ring = path_ring(4)  # one component of five primitive vertices at the head
    ring.processors[0].lc.sets[0].count += 1
    assert full_audit(ring) == [
        ("count-conservation", 0, "component counts sum 6, primitives 5")]


def test_full_audit_detects_a_name_consumed_elsewhere():
    ring = path_ring(4)
    ring.processors[0].lc.sets[0].name = 99
    assert full_audit(ring) == [
        ("nesting", 0, f"block {b} resolves outside this processor") for b in range(5)]


@pytest.mark.parametrize("field, value", [
    ("auto_age_c", 1.5), ("auto_age_c", 1.0), ("auto_age_c", 0.0),
    ("auto_age_c", -0.2), ("auto_age_c", float("nan")),
    ("auto_age_margin", -1.0), ("auto_age_margin", 0.0),
    ("auto_age_margin", float("nan")),
    ("reservoir", 0), ("search_circuits", 0),
])
def test_config_refuses_policy_values_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        RingConfig(p=4, s=400, **{field: value})


@pytest.mark.parametrize("c", [2.0, 1.0, 0.0, -0.2, float("nan")])
def test_autoage_item_refuses_c_outside_the_open_unit_interval(c):
    # an unchecked AutoAge(2.0) armed the policy and exhausted storage
    arrivals = [Arrival(u, v) for u, v in gen_uniform(4000, 1.0, seed=0)]
    with pytest.raises(ValueError, match="target_c"):
        Ring(RingConfig(p=4, s=400)).run_stream([AutoAge(c)] + arrivals)


CONFIG_DEFAULTS = {"k": 5, "validate": False, "seed": 0, "reservoir": 100,
                   "auto_age_c": None, "auto_age_margin": 1.25,
                   "search_circuits": 16, "taps": False, "record_inputs": True,
                   "metrics": False}


def test_config_defaults_read_on_the_class_and_the_instance():
    config = RingConfig(10, 2400)
    for field, value in CONFIG_DEFAULTS.items():
        assert getattr(RingConfig, field) == value
        assert getattr(config, field) == value
    assert config.total_capacity == 24_000


def test_config_takes_its_fields_by_position():
    values = (10, 2400, 5, True, 3, 50, 0.5, 2.0, 4, True, False, True)
    config = RingConfig(*values)
    assert tuple(getattr(config, f) for f in (
        "p", "s", "k", "validate", "seed", "reservoir", "auto_age_c",
        "auto_age_margin", "search_circuits", "taps", "record_inputs",
        "metrics")) == values
    assert config == RingConfig(p=10, s=2400, k=5, validate=True, seed=3,
                                reservoir=50, auto_age_c=0.5, auto_age_margin=2.0,
                                search_circuits=4, taps=True, record_inputs=False,
                                metrics=True)
    assert RingConfig(10, 2400, 5) == RingConfig(p=10, s=2400)


def test_config_compares_and_prints_by_fields():
    config = RingConfig(10, 2400, 5)
    assert config == RingConfig(10, 2400, 5)
    assert config != RingConfig(10, 2400, 5, seed=1)
    assert config != RingConfig(10, 2401, 5)
    assert config != (10, 2400, 5)
    assert repr(config) == (
        "RingConfig(p=10, s=2400, k=5, validate=False, seed=0, reservoir=100, "
        "auto_age_c=None, auto_age_margin=1.25, search_circuits=16, taps=False, "
        "record_inputs=True, metrics=False)")


def test_violation_compares_and_prints_by_fields():
    v = Violation(7, "tree-prefix", 2, "edge (1, 2)")
    assert v == Violation(7, "tree-prefix", 2, "edge (1, 2)")
    assert [v] == [Violation(7, "tree-prefix", 2, "edge (1, 2)")]
    for other in (Violation(8, "tree-prefix", 2, "edge (1, 2)"),
                  Violation(7, "space-prefix", 2, "edge (1, 2)"),
                  Violation(7, "tree-prefix", -1, "edge (1, 2)"),
                  Violation(7, "tree-prefix", 2, "edge (1, 3)")):
        assert v != other
    assert v != (7, "tree-prefix", 2, "edge (1, 2)")
    assert (v.tick, v.kind, v.index, v.detail) == (7, "tree-prefix", 2, "edge (1, 2)")
    assert repr(v) == "Violation(tick=7, kind='tree-prefix', index=2, detail='edge (1, 2)')"


@pytest.mark.parametrize("kw, message", [
    ({"p": 0}, "need at least one processor"),
    ({"s": 0}, "per-processor capacity must be >= 1"),
    ({"k": 1}, "bundles need a primary and at least one payload slot"),
    ({"auto_age_c": 1.5}, "auto_age_c=1.5 must be in (0, 1)"),
    ({"auto_age_margin": 0.0}, "auto_age_margin=0.0 must be > 0"),
    ({"reservoir": 0}, "reservoir=0 must be >= 1"),
    ({"search_circuits": 0}, "search_circuits=0 must be >= 1"),
    # sizes are counts: a 2.5-edge reservoir would keep 3 samples
    ({"p": 2.5}, "p=2.5 must be an integer"),
    ({"s": 10.5}, "s=10.5 must be an integer"),
    ({"k": 3.5}, "k=3.5 must be an integer"),
    ({"reservoir": 2.5, "auto_age_c": 0.5}, "reservoir=2.5 must be an integer"),
    ({"search_circuits": 4.0}, "search_circuits=4.0 must be an integer"),
])
def test_config_refusal_messages(kw, message):
    with pytest.raises(ValueError) as exc:
        RingConfig(**{"p": 4, "s": 400, **kw})
    assert str(exc.value) == message


def test_config_accepts_policy_values_in_range():
    config = RingConfig(p=4, s=400, auto_age_c=0.99, auto_age_margin=0.5,
                        reservoir=1, search_circuits=1)
    assert config.auto_age_c == 0.99


@pytest.mark.parametrize("p", [1, 5, 10])
def test_junction_shortcut_matches_the_full_step(p, monkeypatch):
    # a fresh empty bundle in place of EMPTY_BUNDLE forces every tick through
    # the extract-and-merge path that the shortcut skips
    step = IOJunction.step

    def full_step(self, tick, ret, item):
        return step(self, tick, Bundle() if ret is EMPTY_BUNDLE else ret, item)

    for trial in range(2):
        rng = random.Random(100 * p + trial)
        s = max(12, 100 // p)
        k = rng.choice([3, 4, 5])
        items = mixed_items(rng, 400, 60) + drain_padding(p, s, k)
        config = RingConfig(p=p, s=s, k=k, seed=trial, search_circuits=2, taps=True)
        rings = []
        for wrap in (False, True):
            with monkeypatch.context() as mp:
                if wrap:
                    mp.setattr(IOJunction, "step", full_step)
                ring = Ring(config)
                try:
                    ring.run_stream(items, drain=False)
                except SystemFailed:
                    pass  # a small ring may run out of storage; both must fail alike
            rings.append(ring)
        short, full = rings
        assert (short.t, short.failed) == (full.t, full.failed), (p, trial)
        assert short.transcript.events == full.transcript.events, (p, trial)
        assert short.tap_edges == full.tap_edges, (p, trial)
        assert short.tap_dump == full.tap_dump, (p, trial)


def test_an_age_inside_the_settle_window_waits_on_a_quiet_tick():
    # nothing returns on the AGE's tick, yet it must queue until the last
    # deletion's recycled edges have had time to settle
    ring = Ring(cfg(p=3, s=5))
    for i in range(12):
        ring.tick(Arrival(i, i + 1))
    ring.tick(Age(TimestampThreshold(0)))
    while ring.junction.mode == "aging":
        ring.tick(IDLE)
    hold = ring.junction.age_hold_until
    assert ring.junction_return.is_empty() and ring.t < hold
    ring.tick(Age(TimestampThreshold(6)))
    assert ring.junction.mode == "normal" and len(ring.junction.pending) == 1
    ring.drain()
    assert [entry["started"] for entry in ring.aging_log] == [12, hold]
    assert ring.violations == []


def test_drain_waits_out_the_settle_window():
    # the first ten items of the transcript's golden stream end inside the
    # settle window of their second deletion; a query sent after the drain
    # must be served, not answered busy
    ring = Ring(RingConfig(p=1, s=8, k=3))
    ring.run_stream([Arrival(1, 5), Arrival(7, 2), Arrival(5, 4), Arrival(3, 1),
                     Age(TimestampThreshold(0)), Arrival(7, 7), Arrival(0, 0),
                     Age(TimestampThreshold(0)), Arrival(0, 2), Arrival(0, 7)])
    assert ring.t >= ring.junction.age_hold_until
    ring.tick(Connectivity(1, 4))
    ring.drain()
    assert ring.transcript.outputs("busy") == []
    assert [e[4] for e in ring.transcript.outputs("answer")] == [True]
