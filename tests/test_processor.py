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
from ringcc.processor import NONTREE, TREE, Packer, Processor, SlotOverflow
from ringcc.queries import ConnQuery, CountQuery
from ringcc.ring import Ring, RingConfig

import pytest


def cfg(p=3, s=5, k=4, **kw):
    kw.setdefault("validate", True)
    return RingConfig(p=p, s=s, k=k, **kw)


def test_packer_spills_into_free_primary_only():
    pk = Packer(3)
    pk.pack("a")
    pk.pack("b")
    pk.pack("c")  # payload full: lands in the primary slot
    b = pk.bundle()
    assert b.primary == "c" and list(b.payload) == ["a", "b"]
    pk = Packer(3)
    pk.set_primary("p")
    pk.pack("a")
    pk.pack("b")
    with pytest.raises(SlotOverflow):
        pk.pack("c")


def test_empty_bundle_reuse():
    pk = Packer(3)
    assert pk.bundle().is_empty()


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


def full_processor(index, stored, **kw):
    """Processor `index` of a three-position ring, filled with `stored`
    (pairs, or (pair, class)) at timestamp 10."""
    ring = Ring(cfg(p=3, s=len(stored), **kw))
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


def test_full_builder_still_relabels():
    proc = full_processor(1, [((1, 2), TREE), (3, 4), (5, 6)])
    proc.is_builder = True
    e = LabeledEdge(2, 9, t=11)
    out = proc.process_bundle(Bundle(e))
    assert (e.lu, e.lv) == (1, 9)  # 2 is in the component named 1 here
    assert e in proc.tree
    # the newest non-tree edge makes room and settles further downstream
    assert out.primary is None and [x.key() for x in out.payload] == [(5, 6)]


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
def test_constant_queries_update_as_on_the_general_path(monkeypatch, path):
    if path == "general":
        monkeypatch.setattr(Processor, "_transit", lambda proc, b: None)
    proc = sealed_processor()
    met, apart, done = ConnQuery(0, 3, 2, 0), ConnQuery(1, 3, 9, 0), ConnQuery(2, 3, 3, 0)
    for q in (met, apart, done):
        assert proc.process_bundle(Bundle(q)).primary is q
    assert (met.lu, met.lv, met.answer) == (1, 1, True)
    assert (apart.lu, apart.lv, apart.answer) == (1, 9, False)
    assert (done.lu, done.lv, done.answer) == (3, 3, True)  # answered: untouched
    # a count adds what is stored before the bundle's own edges settle
    proc = open_processor([(1, 2)])
    q = CountQuery(3, 0)
    q.n = 5
    out = proc.process_bundle(Bundle(q, [LabeledEdge(5, 6, lu=0, lv=0)]))
    assert out.primary is q and q.n == 6 and proc.stored == 2


def test_probes_and_tokens_take_the_general_path():
    proc = full_processor(1, [(1, 2), (3, 4)])
    e = LabeledEdge(5, 6)
    for b in (Bundle(e, [StatsProbe(1)]), Bundle(None, [e, SurvivorProbe(1, 4)]),
              Bundle(None, [e, LOADER_TOKEN]), Bundle(AgingToken(TimestampThreshold(0)))):
        assert proc._transit(b) is None
    # the builder token never reaches the transit hop: it makes a builder
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


def through_hop(monkeypatch, proc, b):
    """The output of `proc` for `b`, and whether the transit hop made it."""
    transit = Processor._transit
    made = []

    def spy(self, bundle):
        out = transit(self, bundle)
        made.append(out is not None)
        return out

    monkeypatch.setattr(Processor, "_transit", spy)
    out = proc.process_bundle(b)
    monkeypatch.undo()
    return out, made == [True]


@pytest.mark.parametrize("index", [1, 2])  # the tail relays like any other
def test_aging_relay_absorbs_duplicates_and_forwards_the_rest(monkeypatch, index):
    proc = aging_processor(index)
    unresolved = LabeledEdge(11, 12, t=30)
    resolved = LabeledEdge(13, 14, lu=0, lv=0, t=30)  # would settle outside aging
    b = Bundle(None, [LabeledEdge(2, 1, t=20), unresolved, LabeledEdge(4, 3, t=5), resolved])
    out, hop = through_hop(monkeypatch, proc, b)
    assert hop
    assert out.primary is None and list(out.payload) == [unresolved, resolved]
    assert (unresolved.lu, unresolved.lv, resolved.lu, resolved.lv) == (11, 12, 0, 0)
    # the newer timestamp wins; an older copy never lowers it
    assert {key: e.t for key, e in proc.dup.items()} == {
        (1, 2): 20, (3, 4): 10, (5, 6): 10, (7, 8): 10, (9, 10): 10}
    assert proc.stored == 5 and proc.nontree == [] and not proc.outq


def test_aging_relay_returns_the_bundle_itself_or_the_empty_bundle(monkeypatch):
    proc = aging_processor()
    bundle = Bundle(None, [LabeledEdge(11, 12), LabeledEdge(13, 13)])
    out, hop = through_hop(monkeypatch, proc, bundle)
    assert hop and out is bundle
    out, hop = through_hop(monkeypatch, proc, Bundle(None, [LabeledEdge(2, 1, t=20),
                                                            LabeledEdge(9, 10)]))
    assert hop and out is EMPTY_BUNDLE
    out, hop = through_hop(monkeypatch, proc, EMPTY_BUNDLE)
    assert hop and out is EMPTY_BUNDLE


def test_aging_relay_tests_its_own_edges_after_the_payload(monkeypatch):
    # k-1 = 3 of the five stored edges are tested per call; the duplicate
    # refreshes the first of them before its test, so it survives
    proc = aging_processor(k=4, threshold=15)
    out, hop = through_hop(monkeypatch, proc, Bundle(None, [LabeledEdge(2, 1, t=20)]))
    assert hop and out is EMPTY_BUNDLE
    assert [e.key() for e in proc.unresolved] == [(1, 2)]
    assert [e.key() for e in proc.untested] == [(7, 8), (9, 10)]
    assert proc.deletions == 2 and proc.stored == 3
    out, hop = through_hop(monkeypatch, proc, EMPTY_BUNDLE)
    assert hop and out is EMPTY_BUNDLE
    assert not proc.untested and proc.deletions == 4
    assert proc.dup.keys() == {(1, 2)} and proc.aging


@pytest.mark.parametrize("prepare, b", [
    (lambda proc: setattr(proc, "is_loader", True), Bundle(None, [LabeledEdge(11, 12)])),
    (lambda proc: setattr(proc, "sealed", True), Bundle(None, [LabeledEdge(11, 12)])),
    (lambda proc: proc.outq.append(StatsProbe(1)), Bundle(None, [LabeledEdge(11, 12)])),
    (None, Bundle(LabeledEdge(11, 12), [LabeledEdge(13, 14)])),
    (None, Bundle(None, [LabeledEdge(11, 12)], builder_token=True)),
    (None, Bundle(None, [LabeledEdge(11, 12), StatsProbe(1)])),
    (None, Bundle(None, [LabeledEdge(11, 12), LOADER_TOKEN])),
], ids=["loader", "sealed", "outq", "primary-edge", "builder-token",
        "probe-payload", "loader-token-payload"])
def test_aging_relay_declines_other_bundles(monkeypatch, prepare, b):
    proc = aging_processor()
    if prepare is not None:
        prepare(proc)
    assert not through_hop(monkeypatch, proc, b)[1]
