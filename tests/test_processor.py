"""Slot-level behaviors of a single ring position, driven through tiny rings
so the bundle plumbing stays realistic."""

import random

from ringcc.aging import StatsProbe, SurvivorProbe, TimestampThreshold
from ringcc.model import (
    EMPTY_BUNDLE,
    IDLE,
    LOADER_TOKEN,
    Age,
    AgingToken,
    Arrival,
    Bundle,
    FailSignal,
    LabeledEdge,
)
from ringcc.processor import NONTREE, TREE, Processor, SlotOverflow
from ringcc.queries import ConnQuery, CountQuery
from ringcc.ring import Ring, RingConfig

import pytest


def cfg(p=3, s=5, k=4, **kw):
    kw.setdefault("validate", True)
    return RingConfig(p=p, s=s, k=k, **kw)


def test_empty_bundle_reuse():
    # a bundle that leaves nothing behind is the shared empty bundle, after
    # an edge settled or a message was taken here
    proc = open_processor([])
    assert proc.process_bundle(Bundle(None, [LabeledEdge(1, 2, lu=0, lv=0)])) is EMPTY_BUNDLE
    tail = Ring(cfg(p=3, s=3)).processors[2]
    assert tail.process_bundle(Bundle(None, [StatsProbe(1)])) is EMPTY_BUNDLE  # disarmed


def test_builder_token_moves_building_duty():
    ring = Ring(cfg(p=3, s=3, k=3))
    for i in range(4):  # path graph: all tree edges; head seals after 3
        ring.tick(Arrival(i, i + 1))
    ring.drain()
    head, nxt = ring.processors[0], ring.processors[1]
    assert head.sealed and not head.is_builder
    assert nxt.is_builder
    assert len(head.tree) == 3 and len(nxt.tree) == 1


def test_builder_token_riding_with_the_deletion_token_survives():
    # the sender began aging before it sealed and passed builder duty on, so
    # the token belongs to the new regime
    proc = Processor(1, cfg(p=3, s=4, k=5))
    proc.process_bundle(Bundle(AgingToken(TimestampThreshold(0)), [],
                               builder_token=True))
    assert proc.aging and proc.is_builder


def test_builder_jettisons_nontree_for_tree():
    # head capacity 3: two tree edges plus one non-tree fill it; the next
    # tree edge displaces the non-tree downstream
    ring = Ring(cfg(p=3, s=3, k=3))
    for u, v in [(1, 2), (2, 3), (1, 3), (3, 4)]:
        ring.tick(Arrival(u, v))
    ring.drain()
    head = ring.processors[0]
    assert len(head.tree) == 3
    assert len(head.nontree) == 0
    assert ring.stored_edges().keys() == {(1, 2), (2, 3), (1, 3), (3, 4)}
    assert ring.violations == []


def test_loader_packs_unresolved_then_token():
    # builder/loader arithmetic: a processor with three unresolved edges and
    # room in the bundle emits all three and the loader token together
    ring = Ring(cfg(p=2, s=8, k=6))
    proc = ring.processors[1]
    proc.aging = True
    proc.is_loader = True
    proc.predicate = TimestampThreshold(0)
    for i in range(3):
        e = LabeledEdge(100 + i, 200 + i, t=5)
        proc.unresolved.append(e)
        proc.dup[e.key()] = e
        proc.stored += 1
    out = proc.process_bundle(Bundle())
    kinds = [type(x).__name__ for x in out.payload]
    assert kinds == ["LabeledEdge", "LabeledEdge", "LabeledEdge", "LoaderToken"]
    assert not proc.is_loader and not proc.aging


def test_loader_token_waits_for_payload_space():
    ring = Ring(cfg(p=2, s=8, k=2))
    proc = ring.processors[1]
    proc.aging = True
    proc.is_loader = True
    proc.predicate = TimestampThreshold(0)
    # incoming payload already occupies the only payload slot
    passing = LabeledEdge(7, 8, t=1)
    out = proc.process_bundle(Bundle(None, [passing]))
    assert proc.is_loader  # token deferred, never displaces an edge
    out = proc.process_bundle(Bundle())
    assert any(x is LOADER_TOKEN or type(x).__name__ == "LoaderToken"
               for x in out.payload)
    assert not proc.is_loader


def test_duplicate_refresh_keeps_newest_timestamp():
    ring = Ring(cfg(p=2, s=5, k=3))
    ring.tick(Arrival(1, 2))
    ring.drain()
    rec = ring.processors[0].dup[(1, 2)]
    rec.t = 50  # pretend a later refresh already landed
    ring.tick(Arrival(2, 1))  # older than the stored copy now
    ring.drain()
    assert ring.processors[0].dup[(1, 2)].t == 50


def test_stats_probe_folds_the_exact_timestamp_bounds():
    # a duplicate refreshes the oldest stored edge, which moves both bounds
    # away from the first stored edge; the fold matches a scan of the store
    # as it stands
    proc = open_processor([])
    for (u, v), t in (((1, 2), 8), ((3, 4), 4), ((5, 6), 5)):
        proc._accept(LabeledEdge(u, v, t=t), NONTREE)
    assert proc.process_bundle(Bundle(None, [LabeledEdge(4, 3, t=12)])) is EMPTY_BUNDLE
    probe = StatsProbe(1)
    out = proc.process_bundle(Bundle(None, [probe]))
    assert out.payload == [probe]
    ts = [e.t for e in proc.dup.values()]
    assert (probe.total, probe.oldest, probe.newest) == (3, min(ts), max(ts)) == (3, 5, 12)


def test_head_testing_is_bounded_per_tick():
    # k-1 untested edges are examined per tick at the head
    ring = Ring(cfg(p=2, s=10, k=3))
    for i in range(8):
        ring.tick(Arrival(i, i + 1))
    ring.tick(Age(TimestampThreshold(100)))  # deletes everything
    head = ring.processors[0]
    # the arrival tick of the token already ran one k-1 testing batch
    assert len(head.untested) == 6
    ring.tick(IDLE)
    assert len(head.untested) == 4
    ring.tick(IDLE)
    assert len(head.untested) == 2
    ring.drain()
    assert ring.stored_edges() == {}
    assert ring.violations == []


def test_store_counts_follow_moves():
    rng = random.Random(0)
    ring = Ring(cfg(p=3, s=12, k=3))
    for _ in range(40):
        ring.tick(Arrival(rng.randrange(8), rng.randrange(8)))
    ring.drain()
    for pr in ring.processors:
        assert pr.stored == (len(pr.tree) + len(pr.nontree)
                             + len(pr.untested) + len(pr.unresolved))
        assert pr.stored == len(pr.dup)


def full_processor(index, stored, s=None, **kw):
    """Processor `index` of a three-position ring, filled with `stored`
    (pairs, or (pair, class)) at timestamp 10; `s` leaves room for more."""
    ring = Ring(cfg(p=3, s=s or len(stored), **kw))
    proc = ring.processors[index]
    for entry in stored:
        (u, v), cls = entry if type(entry[0]) is tuple else (entry, NONTREE)
        proc._accept(LabeledEdge(u, v, t=10), cls)
    return proc


def test_full_downstream_absorbs_duplicates_in_any_slot():
    proc = full_processor(1, [(1, 2), (3, 4), (5, 6)])
    new = LabeledEdge(7, 8, t=11)
    b = Bundle(LabeledEdge(2, 1, t=20),
               [LabeledEdge(4, 3, t=5), new, LabeledEdge(5, 6, t=30)])
    out = proc.process_bundle(b)
    assert out.primary is None and list(out.payload) == [new]
    # the newer timestamp wins; an older copy never lowers it
    assert {key: e.t for key, e in proc.dup.items()} == {(1, 2): 20, (3, 4): 10, (5, 6): 30}
    assert proc.stored == 3


def test_full_downstream_forwards_the_bundle_itself():
    proc = full_processor(1, [(1, 2), (3, 4)])
    a, b, c = LabeledEdge(5, 6), LabeledEdge(7, 8, lu=1, lv=1), LabeledEdge(9, 9)
    bundle = Bundle(a, [b, c])
    out = proc.process_bundle(bundle)
    assert out is bundle
    assert out.primary is a and list(out.payload) == [b, c]
    assert (a.lu, a.lv, b.lu, b.lv) == (5, 6, 1, 1)  # no relabeling downstream
    assert proc.process_bundle(Bundle(None, [c, a])).payload == [c, a]
    dups = Bundle(LabeledEdge(3, 4), [LabeledEdge(2, 1)])
    assert proc.process_bundle(dups) is EMPTY_BUNDLE


def test_full_tail_still_signals_failure():
    proc = full_processor(2, [(1, 2), (3, 4)])
    out = proc.process_bundle(Bundle(LabeledEdge(5, 6, lu=1, lv=1)))
    assert [type(x) for x in out.payload] == [FailSignal]


def test_full_tail_signal_spills_the_last_edge_into_the_primary_slot():
    # at k = 2 the signal takes the only payload slot, so the edge riding on
    # moves to the primary one
    proc = full_processor(2, [(1, 2), (3, 4)], k=2)
    a, b = LabeledEdge(5, 6, lu=1, lv=1), LabeledEdge(7, 8)
    out = proc.process_bundle(Bundle(a, [b]))
    assert out.primary is b and [type(x) for x in out.payload] == [FailSignal]
    assert out.payload[0].edge is a


def test_sealed_tail_signals_failure_for_edges_it_resolves():
    proc = full_processor(2, [((1, 2), TREE), ((2, 3), TREE)])
    proc.sealed = True
    a, b, c = LabeledEdge(1, 3), LabeledEdge(4, 5), LabeledEdge(6, 7, lu=1, lv=1)
    out = proc.process_bundle(Bundle(a, [b, c]))
    # a relabels to equal labels and c arrives so: each signals in its place
    assert out.primary is None
    assert [type(x) for x in out.payload] == [FailSignal, LabeledEdge, FailSignal]
    assert [x.edge for x in out.payload[::2]] == [a, c] and out.payload[1] is b


def test_tail_starts_the_policy_in_a_free_payload_slot():
    # this ring's tail starts its policy once it stores one edge
    ring = Ring(cfg(p=3, s=5, k=3, auto_age_c=0.5))
    proc = ring.processors[2]
    assert proc.monitor.trigger_stored == 1
    out = proc.process_bundle(Bundle(None, [LabeledEdge(1, 2, lu=0, lv=0)]))
    assert out.primary is None and [type(x) for x in out.payload] == [StatsProbe]
    assert proc.stored == 1 and not proc.outq
    # with every payload slot taken, the probe waits for the next tick
    proc = Ring(cfg(p=3, s=5, k=3, auto_age_c=0.5)).processors[2]
    proc._accept(LabeledEdge(1, 2, t=10), NONTREE)
    bundle = Bundle(None, [LabeledEdge(3, 4), LabeledEdge(5, 6)])
    assert proc.process_bundle(bundle).payload == bundle.payload
    assert [type(x) for x in proc.outq] == [StatsProbe]


def test_full_builder_still_relabels():
    proc = full_processor(1, [((1, 2), TREE), (3, 4), (5, 6)])
    proc.is_builder = True
    e = LabeledEdge(2, 9, t=11)
    out = proc.process_bundle(Bundle(e))
    assert (e.lu, e.lv) == (1, 9)  # 2 is in the component named 1 here
    assert e in proc.tree
    # the newest non-tree edge makes room and settles further downstream
    assert out.primary is None and [x.key() for x in out.payload] == [(5, 6)]


def builder(index, stored, **kw):
    """`full_processor`, made the builder."""
    proc = full_processor(index, stored, **kw)
    proc.is_builder = True
    return proc


def test_builder_leaves_equal_labels_alone():
    proc = builder(1, [((1, 2), TREE)], s=4)
    resolved = LabeledEdge(3, 4, lu=2, lv=2, t=11)  # 2 is in the component named 1
    loop = LabeledEdge(5, 5, t=11)
    out = proc.process_bundle(Bundle(resolved, [loop]))
    assert out is EMPTY_BUNDLE
    assert proc.nontree == [resolved, loop]
    assert (resolved.lu, resolved.lv, loop.lu, loop.lv) == (2, 2, 5, 5)
    # the stored self-loop is still this processor's claim on vertex 5
    assert proc._orphan_candidates() == [5]


def test_builder_seals_mid_bundle_and_relabels_the_rest_as_sealed():
    proc = builder(1, [((1, 2), TREE), ((2, 3), TREE)], s=3)
    tree = LabeledEdge(3, 4, t=11)
    resolved, apart = LabeledEdge(4, 1, t=11), LabeledEdge(2, 9, t=11)
    out = proc.process_bundle(Bundle(tree, [resolved, apart]))
    assert out.builder_token
    assert proc.sealed and not proc.is_builder and proc.tree[-1] is tree
    # the rest of the bundle is relabeled and forwarded, never stored
    assert out.primary is None and list(out.payload) == [resolved, apart]
    assert [(e.lu, e.lv) for e in (resolved, apart)] == [(1, 1), (1, 9)]
    assert proc.stored == 3


def test_full_builder_spills_an_evictee_into_the_primary_slot():
    # k = 3: the primary edge's evictee and the forwarded resolved edge take
    # both payload slots, so the second evictee lands in the primary one
    proc = builder(1, [((1, 2), TREE), (5, 6), (7, 8), (9, 10)], k=3)
    first, resolved, second = (LabeledEdge(2, 20, t=11), LabeledEdge(30, 31, lu=0, lv=0, t=11),
                               LabeledEdge(1, 21, t=11))
    out = proc.process_bundle(Bundle(first, [resolved, second]))
    assert [x.key() for x in out.payload] == [(9, 10), (30, 31)]
    assert out.primary.key() == (7, 8)
    assert proc.tree[1:] == [first, second] and [e.key() for e in proc.nontree] == [(5, 6)]
    assert not out.builder_token and proc.is_builder


def test_the_kth_item_spills_into_a_free_primary_slot_and_one_more_overflows():
    # k = 3: each tree edge evicts a non-tree edge from the full builder; two
    # evictees take the payload slots and the third the free primary one
    stored = [((1, 2), TREE), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14)]
    tree = [LabeledEdge(2, 20 + i, t=11) for i in range(4)]
    proc = builder(1, stored, k=3)
    out = proc.process_bundle(Bundle(tree[0], tree[1:3]))
    assert [x.key() for x in out.payload] == [(13, 14), (11, 12)]
    assert out.primary.key() == (9, 10)
    # a bundle holding more than k slots is a protocol error
    proc = builder(1, stored, k=3)
    with pytest.raises(SlotOverflow):
        proc.process_bundle(Bundle(tree[0], tree[1:]))


def test_full_builder_at_the_tail_signals_failure():
    proc = builder(2, [((1, 2), TREE), (3, 4)])
    tree, resolved = LabeledEdge(2, 9, t=11), LabeledEdge(5, 6, lu=0, lv=0, t=11)
    out = proc.process_bundle(Bundle(tree, [resolved]))
    assert out.primary is None
    assert [type(x) for x in out.payload] == [FailSignal, FailSignal]
    assert [x.edge for x in out.payload] == [tree, resolved]
    assert proc.stored == 2 and proc.is_builder


def test_builder_full_of_tree_edges_forwards_a_tree_edge_with_primitive_labels():
    proc = builder(1, [((1, 2), TREE), ((3, 4), TREE)])
    e = LabeledEdge(2, 9, t=11)
    out = proc.process_bundle(Bundle(e))
    kinds = [v.kind for v in proc.hooks.ring.violations]
    assert kinds == ["tree-jettison-missing"]
    assert out.primary is e and (e.lu, e.lv) == (2, 9) and list(out.payload) == []
    assert e not in proc.tree and proc.stored == 2
    # the tree is full, so the builder seals behind it
    assert out.builder_token and proc.sealed and not proc.is_builder


def test_builder_tail_keeps_its_token_when_the_policy_starts():
    proc = builder(2, [((1, 2), TREE)], s=2, auto_age_c=0.5, k=3)
    assert proc.monitor.trigger_stored <= 2 and not proc.outq
    out = proc.process_bundle(Bundle(LabeledEdge(2, 3, t=11)))
    assert out.builder_token and proc.sealed
    assert out.primary is None and [type(x) for x in out.payload] == [StatsProbe]


def sealed_processor():
    """Processor 1, sealed with the tree 1-2-3, whose component is named 1."""
    proc = full_processor(1, [((1, 2), TREE), ((2, 3), TREE)])
    proc.sealed = True
    return proc


def open_processor(stored):
    """Processor 1 of a three-position ring with room for three edges,
    holding the non-tree `stored` pairs at timestamp 10."""
    proc = Ring(cfg(p=3, s=3)).processors[1]
    for u, v in stored:
        proc._accept(LabeledEdge(u, v, t=10), NONTREE)
    return proc


def test_sealed_processor_relabels_and_forwards_the_bundle_itself():
    proc = sealed_processor()
    a = LabeledEdge(3, 9, t=11)
    b = LabeledEdge(4, 5, lu=2, lv=2, t=11)  # resolved upstream: left alone
    c = LabeledEdge(2, 7, lu=3, lv=7, t=11)
    bundle = Bundle(a, [b, c])
    out = proc.process_bundle(bundle)
    assert out is bundle
    assert out.primary is a and list(out.payload) == [b, c]
    assert [(e.lu, e.lv) for e in (a, b, c)] == [(1, 9), (2, 2), (1, 7)]
    # a duplicate is still absorbed, and refreshes the stored tree edge
    out = proc.process_bundle(Bundle(LabeledEdge(2, 1, t=30), [a]))
    assert out.primary is None and list(out.payload) == [a]
    assert proc.dup[(1, 2)].t == 30 and proc.stored == 2


def test_open_space_settles_resolved_edges_until_full():
    proc = open_processor([(1, 2)])
    unresolved = LabeledEdge(3, 4, t=11)
    r1, r2, r3 = (LabeledEdge(u, u + 1, lu=0, lv=0, t=11) for u in (5, 7, 9))
    out = proc.process_bundle(Bundle(r1, [unresolved, r2, r3]))
    assert proc.nontree[1:] == [r1, r2] and proc.stored == 3
    assert out.primary is None and list(out.payload) == [unresolved, r3]
    # once full, a resolved edge rides on like any other
    r4 = LabeledEdge(11, 12, lu=0, lv=0, t=12)
    bundle = Bundle(r4, [LabeledEdge(6, 5, t=13)])
    out = proc.process_bundle(bundle)
    assert out.primary is r4 and list(out.payload) == []
    assert proc.dup[(5, 6)].t == 13 and proc.stored == 3


def test_open_space_forwards_edges_whose_labels_differ():
    proc = open_processor([])
    a, b = LabeledEdge(3, 4, t=11), LabeledEdge(5, 6, lu=1, lv=2, t=11)
    bundle = Bundle(a, [b])
    assert proc.process_bundle(bundle) is bundle
    assert (a.lu, a.lv, b.lu, b.lv) == (3, 4, 1, 2)
    assert proc.stored == 0 and proc.dup == {} and proc.nontree == []


@pytest.mark.parametrize("path", ["transit", "general"])
def test_constant_queries_update_as_on_the_general_path(path):
    def through(proc, b):
        # "general": a queued item makes the hop skip its identity exit, so
        # the rules answer the query
        if path == "general":
            proc.outq.append(StatsProbe(1))
        return proc.process_bundle(b)

    proc = sealed_processor()
    met, apart, done = ConnQuery(0, 3, 2, 0), ConnQuery(1, 3, 9, 0), ConnQuery(2, 3, 3, 0)
    for q in (met, apart, done):
        assert through(proc, Bundle(q)).primary is q
    assert (met.lu, met.lv, met.answer) == (1, 1, True)
    assert (apart.lu, apart.lv, apart.answer) == (1, 9, False)
    assert (done.lu, done.lv, done.answer) == (3, 3, True)  # answered: untouched
    # a count adds what is stored before the bundle's own edges settle
    proc = open_processor([(1, 2)])
    q = CountQuery(3, 0)
    q.n = 5
    out = through(proc, Bundle(q, [LabeledEdge(5, 6, lu=0, lv=0)]))
    assert out.primary is q and q.n == 6 and proc.stored == 2


def test_probes_and_tokens_are_dispatched_in_their_slots(monkeypatch):
    # each message goes to the slot dispatch where it sits, in slot order,
    # and the edge beside it still takes the rules
    proc = full_processor(1, [(1, 2), (3, 4)])
    e = LabeledEdge(5, 6)
    seen = []
    for name in ("_primary_slot", "_payload_slot"):
        monkeypatch.setattr(Processor, name,
                            lambda self, item, _name=name: seen.append((_name, item)))
    probe, survivors = StatsProbe(1), SurvivorProbe(1, 4)
    token = AgingToken(TimestampThreshold(0))
    for b in (Bundle(e, [probe]), Bundle(None, [survivors, e]), Bundle(None, [e, LOADER_TOKEN]),
              Bundle(token)):
        out = proc.process_bundle(b)
        assert out is not b and e not in proc.dup.values()
        assert (out.primary, list(out.payload)) == ((e, []) if b.primary is e else
                                                    (token, []) if b.primary is token else
                                                    (None, [e]))
    assert seen == [("_payload_slot", probe), ("_payload_slot", survivors),
                    ("_payload_slot", LOADER_TOKEN), ("_primary_slot", token)]
    monkeypatch.undo()
    # the builder token is taken here: it makes a builder
    proc.process_bundle(Bundle(LabeledEdge(7, 8), [], builder_token=True))
    assert proc.is_builder


def aging_processor(index=1, k=5, threshold=0, count=5):
    """Processor `index` of a three-position ring, aging behind the loader:
    `count` untested pairs (1, 2), (3, 4), ... stored at timestamp 10, kept
    by the deletion when their timestamp is at least `threshold`."""
    proc = Ring(cfg(p=3, s=8, k=k)).processors[index]
    for u in range(1, 2 * count, 2):
        proc._accept(LabeledEdge(u, u + 1, t=10), NONTREE)
    proc.begin_aging(TimestampThreshold(threshold))
    assert proc.aging and not (proc.is_loader or proc.is_builder or proc.sealed)
    return proc


@pytest.mark.parametrize("index", [1, 2])  # the tail relays like any other
def test_aging_relay_absorbs_duplicates_and_forwards_the_rest(index):
    proc = aging_processor(index)
    unresolved = LabeledEdge(11, 12, t=30)
    resolved = LabeledEdge(13, 14, lu=0, lv=0, t=30)  # would settle outside aging
    b = Bundle(None, [LabeledEdge(2, 1, t=20), unresolved, LabeledEdge(4, 3, t=5), resolved])
    out = proc.process_bundle(b)
    assert out.primary is None and list(out.payload) == [unresolved, resolved]
    assert (unresolved.lu, unresolved.lv, resolved.lu, resolved.lv) == (11, 12, 0, 0)
    # the newer timestamp wins; an older copy never lowers it
    assert {key: e.t for key, e in proc.dup.items()} == {
        (1, 2): 20, (3, 4): 10, (5, 6): 10, (7, 8): 10, (9, 10): 10}
    assert proc.stored == 5 and proc.nontree == [] and not proc.outq


def test_aging_relay_returns_the_bundle_itself_or_the_empty_bundle():
    proc = aging_processor()
    bundle = Bundle(None, [LabeledEdge(11, 12), LabeledEdge(13, 13)])
    assert proc.process_bundle(bundle) is bundle
    dups = Bundle(None, [LabeledEdge(2, 1, t=20), LabeledEdge(9, 10)])
    assert proc.process_bundle(dups) is EMPTY_BUNDLE
    assert proc.process_bundle(EMPTY_BUNDLE) is EMPTY_BUNDLE


def test_aging_relay_tests_its_own_edges_after_the_payload():
    # k-1 = 3 of the five stored edges are tested per call; the duplicate
    # refreshes the first of them before its test, so it survives
    proc = aging_processor(k=4, threshold=15)
    assert proc.process_bundle(Bundle(None, [LabeledEdge(2, 1, t=20)])) is EMPTY_BUNDLE
    assert [e.key() for e in proc.unresolved] == [(1, 2)]
    assert [e.key() for e in proc.untested] == [(7, 8), (9, 10)]
    assert proc.deletions == 2 and proc.stored == 3
    assert proc.process_bundle(EMPTY_BUNDLE) is EMPTY_BUNDLE
    assert not proc.untested and proc.deletions == 4
    assert proc.dup.keys() == {(1, 2)} and proc.aging


def test_aging_relay_at_a_sealed_processor_forwards_and_tests():
    # a ring seals a processor only once the loader has passed it, so this
    # state is built by hand: aging comes first, so the hop forwards the edge
    # unchanged, without relabelling it, and then tests k-1 edges
    proc = aging_processor()
    proc.sealed = True
    proc.lc.union(11, 13)
    e = LabeledEdge(11, 13)
    b = Bundle(None, [e])
    out = proc.process_bundle(b)
    assert out is b and (e.lu, e.lv) == (11, 13)
    assert len(proc.unresolved) == 4 and len(proc.untested) == 1


@pytest.mark.parametrize("case", ["loader", "outq", "builder-token", "probe-payload",
                                  "loader-token-payload"])
def test_aging_relay_declines_other_bundles(case):
    # the identity exit passes none of these on: the rules rebuild each
    proc = aging_processor()
    e, probe = LabeledEdge(11, 12), StatsProbe(1)
    payload = {"probe-payload": [e, probe], "loader-token-payload": [e, LOADER_TOKEN]}.get(
        case, [e])
    if case == "loader":
        proc.is_loader = True
    elif case == "outq":
        proc.outq.append(probe)
    b = Bundle(None, payload, builder_token=case == "builder-token")
    out = proc.process_bundle(b)
    assert out is not b
    if case == "builder-token":
        # the edge is a tree edge at the new builder
        assert out is EMPTY_BUNDLE and proc.is_builder and proc.tree == [e]
    else:
        # a queued or passing probe leaves after the edge; the loader token
        # is taken here
        assert out.payload == ([e, probe] if case in ("outq", "probe-payload") else [e])
    # the relay, and the loader before it recycles, tests k-1 edges
    assert len(proc.untested) == 1
    assert proc.is_loader == (case in ("loader", "loader-token-payload"))


def test_a_loader_token_makes_the_relay_the_loader_for_the_edges_behind_it():
    # equal labels: the relay forwards the edge ahead of the token, and the
    # loader settles the one behind it
    proc = aging_processor()
    ahead, behind = LabeledEdge(21, 22, lu=3, lv=3), LabeledEdge(23, 24, lu=3, lv=3)
    out = proc.process_bundle(Bundle(None, [ahead, LOADER_TOKEN, behind]))
    assert out.payload == [ahead] and proc.nontree == [behind] and proc.is_loader


def test_a_builder_that_seals_ahead_of_the_loader_token_sends_the_builder_token_on():
    # s = 3: the three tree edges ahead of the loader token seal processor 1
    # before it is the loader; with nothing to recycle it passes the loader
    # token on at once, and the builder token leaves beside it
    proc = Ring(cfg(p=3, s=3, k=5)).processors[1]
    proc.begin_aging(TimestampThreshold(0))
    edges = [LabeledEdge(i, i + 1) for i in (1, 2, 3)]
    out = proc.process_bundle(Bundle(edges[0], [*edges[1:], LOADER_TOKEN], builder_token=True))
    assert proc.tree == edges and proc.sealed and not (proc.is_builder or proc.aging)
    assert out.builder_token and out.primary is None and out.payload == [LOADER_TOKEN]


def aging_role(role, count=5):
    """An aging processor behind the builder: a relay, the loader or the
    tail, with `count` untested edges of labels (0, 0) and room for 8."""
    proc = aging_processor(2 if role == "tail" else 1, count=count)
    for e in proc.untested:
        e.lu = e.lv = 0
    proc.is_loader = role == "loader"
    return proc


AGING_ROLES = ("relay", "loader", "tail")


@pytest.mark.parametrize("role", AGING_ROLES)
def test_aging_primary_edge_settles_by_its_labels(role):
    # no connectivity information behind the builder: labels that differ
    # settle unresolved, for the loader to recycle; equal ones as non-tree
    for e, pool in ((LabeledEdge(21, 22), "unresolved"),
                    (LabeledEdge(21, 22, lu=3, lv=3), "nontree")):
        proc = aging_role(role)
        passing = LabeledEdge(23, 24)
        out = proc.process_bundle(Bundle(e, [passing]))
        assert out.primary is None and list(out.payload) == [passing]
        assert e in getattr(proc, pool) and proc.dup[e.ck] is e and proc.stored == 6
        assert passing.ck not in proc.dup


@pytest.mark.parametrize("role", AGING_ROLES[:2])
def test_full_aging_relay_keeps_an_unresolved_primary_in_its_slot(role):
    proc = aging_role(role, count=8)
    e = LabeledEdge(21, 22)
    out = proc.process_bundle(Bundle(e))
    assert out.primary is e and list(out.payload) == []
    assert e.ck not in proc.dup and proc.stored == 8 and proc.unresolved


@pytest.mark.parametrize("role", AGING_ROLES[:2])
def test_full_aging_relay_trades_a_resolved_primary_for_its_newest_unresolved(role):
    proc = aging_role(role, count=8)
    proc.process_bundle(EMPTY_BUNDLE)  # tests four edges, all kept
    evictee = proc.unresolved[-1]
    assert len(proc.unresolved) == 4 and (evictee.lu, evictee.lv) == (0, 0)
    e, passing = LabeledEdge(21, 22, lu=3, lv=3), LabeledEdge(23, 24)
    out = proc.process_bundle(Bundle(e, [passing]))
    # the evictee leaves with primitive labels, to recycle as a fresh edge;
    # the loader, its testing done, starts recycling after it
    assert out.primary is None and out.payload[:2] == [evictee, passing]
    assert (evictee.lu, evictee.lv) == (evictee.u, evictee.v)
    assert evictee.ck not in proc.dup and proc.nontree == [e]
    assert proc.stored == 8 - len(out.payload[2:])


def test_full_aging_tail_signals_failure_in_the_first_payload_slot():
    for e in (LabeledEdge(21, 22), LabeledEdge(21, 22, lu=3, lv=3)):
        proc = aging_role("tail", count=8)
        passing = LabeledEdge(23, 24)
        out = proc.process_bundle(Bundle(e, [passing]))
        assert out.primary is None and out.payload[1] is passing
        fail = out.payload[0]
        assert type(fail) is FailSignal and fail.edge is e and fail.index == 2
        assert e.ck not in proc.dup and proc.stored == 8


@pytest.mark.parametrize("role", AGING_ROLES)
def test_aging_primary_duplicate_is_absorbed_and_the_newer_timestamp_wins(role):
    for e, t in ((LabeledEdge(2, 1, t=20), 20), (LabeledEdge(4, 3, lu=0, lv=0, t=5), 10)):
        proc = aging_role(role)
        out = proc.process_bundle(Bundle(e))
        assert out.primary is None and proc.dup[e.ck].t == t and proc.stored == 5


def test_aging_loader_settles_an_equal_label_payload_edge_and_forwards_the_rest():
    proc = aging_role("loader")
    resolved, unresolved = LabeledEdge(21, 22, lu=3, lv=3), LabeledEdge(23, 24)
    out = proc.process_bundle(Bundle(None, [resolved, unresolved]))
    assert out.primary is None and list(out.payload) == [unresolved]
    assert proc.nontree == [resolved] and unresolved.ck not in proc.dup
    assert proc.is_loader and len(proc.untested) == 1
