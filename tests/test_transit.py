"""The hop holds the only rules for a bundle at every processor.

`Processor.process_bundle` absorbs a duplicate (the newer timestamp wins),
relabels at the builder and at a sealed processor, settles an equal-label
edge while space lasts, and otherwise forwards the edge in its slot; a full
tail sends a `FailSignal` where it would have settled. At the builder an edge
whose labels still differ is stored as a tree edge, evicting the newest
non-tree edge from a full store, and at s tree edges the builder seals.
While aging, a processor behind the builder settles its primary edge as
non-tree or unresolved by its labels, and trades a resolved one for room when
full; the loader settles an equal-label payload edge the same way. Messages
are dispatched in their slots, and after the payload an aging processor
tests or recycles its own edges. Every bundle at every role, the aging
builder and loader included, takes this one path.

The digests pinned below were recorded from earlier implementations of
these rules, and every refactor since has left them unchanged: the
transcript, taps, stores and deletion log of every stream, the failure that
ended it, if any, and the 300 small rings of `PINNED_SMALL`. The hops are
counted by kind (builder, sealed relabel, settle, constant query, full
relay, aging) so that each kind is known to be exercised.
"""

import copy
import hashlib
import random
from collections import Counter, deque

from hypothesis import given, settings, strategies as st

from ringcc.aging import StatsProbe, TimestampThreshold
from ringcc.model import (
    LOADER_TOKEN,
    Arrival,
    AutoAge,
    Bundle,
    Connectivity,
    FailSignal,
    LabeledEdge,
    LoaderToken,
)
from ringcc.processor import NONTREE, TREE, Processor, SlotOverflow
from ringcc.queries import ConnQuery, CountQuery
from ringcc.ring import Ring, RingConfig, SystemFailed

from test_audit import backlog_stream
from test_idle_skip import drain_padding, mixed_items
from util import transit_rules

# (p, k) -> SHA-256 of the run, and its failure
PINNED = {
    (1, 2): ("7451f6815f5d8935514c3b3b6b62326c410ad2a3de3a2f7f3f766a54056d5a74", None),
    (1, 3): ("31e8399259543dcfcac8f1838b83ca4bda922adf54c0c6d6679c16b80b143c3e", None),
    (1, 5): ("7204c1e8a01fb248e573e8ab54b8431968724f97419dfb96a3fffd2311ccbef6", None),
    (2, 2): ("0c7a4d930d98d0ceaa7fd0fdb91dffc2694287c437f0ef4eab282d9e38eda8c5", None),
    (2, 3): ("9fc01671e5b2cee7b00cae708e6c72e53fd2ba2efa57a2856f4aef09e5fb4943", None),
    (2, 5): ("27790c307425d12726b97f6242b5af76b320550625096bfa9bd97ea932590904", None),
    (5, 2): ("a57651a363ebc42a8f74f419630f5e348cf8d60cf397f9a6aab960a0c79f6c95", None),
    (5, 3): ("bf14633f5ec7240c78c686a2c39c0d346b2f31c48c693928b6634fb0c1f50a90", None),
    (5, 5): ("78f8b7ca60263dd647f368567a83ca55a4b3b61d88eda18c5b2c404d11b93f4d", None),
    (10, 2): ("659a8b942a5d249b4f28ff4bef23132316daed060023c520b2e43ac9b4c8f496", None),
    (10, 3): ("510dd23700cc653a2b32c03a02d57092cf9087625bb967fb66405073282965e0", None),
    (10, 5): ("2b3568051231b4fd2f0ee82d9657ca8a2a64a0385909a32d20260612f2033998", None),
}
PINNED_FULL_TAIL = ("ea75673e50652770c1009f295062afac5302f690823b6c474da2ea41889f2397",
                    "tick 44: storage exhausted at processor 3")

# SHA-256 of 300 small rings run to quiescence or failure
PINNED_SMALL = "21986c6c4c3a2bdbf9fcbb97b7ea8bb20a2e42e7bd4a30ee13af5b858986738b"


def hop_kind(proc, b):
    """Which transit hop a non-empty bundle at `proc` takes."""
    if proc.is_builder:
        return "builder"
    if proc.aging:
        return "aging"
    if type(b.primary) in (ConnQuery, CountQuery):
        return "query"
    if proc.sealed:
        return "sealed"
    return "settle" if proc.stored < proc.s else "relay"


def run_pinned(monkeypatch, cfg, items):
    """The digest of the run and its failure, if any (a ring this small can
    exhaust its storage during a rebuild), and the hops taken by kind."""
    hop = Processor.process_bundle
    hops = Counter()

    def counted(proc, b):
        if not b.is_empty():
            hops[hop_kind(proc, b)] += 1
        return hop(proc, b)

    monkeypatch.setattr(Processor, "process_bundle", counted)
    ring = Ring(RingConfig(validate=True, taps=True, **cfg))
    failed = None
    try:
        ring.run_stream(items, drain=False)
    except SystemFailed as e:
        failed = str(e)
    monkeypatch.undo()
    assert ring.violations == [], cfg
    digest = hashlib.sha256()
    for part in (ring.transcript.text(), ring.tap_edges, ring.tap_dump,
                 sorted(ring.stored_edges().items()), ring.aging_log):
        digest.update(repr(part).encode())
    return (digest.hexdigest(), failed), hops


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
            got, taken = run_pinned(monkeypatch, dict(p=p, s=s, k=k, seed=p,
                                                      search_circuits=2), items)
            assert got == PINNED[p, k], (p, k)
            hops += taken
    for kind in ("builder", "sealed", "settle", "query", "relay", "aging"):
        assert hops[kind] >= 500, hops


def test_full_tail_fails_on_the_same_tick(monkeypatch):
    # no deletions: distinct edges overrun the ring, crossing full
    # processors until the full tail signals exhaustion
    rng = random.Random(5)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    rng.shuffle(pairs)
    got, hops = run_pinned(monkeypatch, dict(p=4, s=10, k=3),
                           [Arrival(u, v) for u, v in pairs])
    assert got == PINNED_FULL_TAIL
    assert hops["relay"] > 0


def small_rings():
    """150 saturated rings drawn as in `test_audit.backlog_stream`, then 150
    `mixed_items` rings with automatic aging and every query kind."""
    for seed in range(150):
        config, items = backlog_stream(seed)
        config.taps = True
        yield config, items
    for seed in range(150):
        rng = random.Random(seed)
        p, s, k = rng.randint(1, 6), rng.randint(4, 60), rng.randint(2, 5)
        yield (RingConfig(p=p, s=s, k=k, seed=seed, search_circuits=2, validate=True,
                          taps=True),
               mixed_items(rng, 4 * p * s, 2 * s))


def test_small_rings_are_pinned():
    # a gate for any refactor of the edge rules: the rings reach every
    # role's rules, a deletion's trades and a full tail. A ring may run out
    # of storage or slots, or not quiesce (ROADMAP item 1): how each run
    # ended is part of the digest
    digest = hashlib.sha256()
    ends = Counter()
    for config, items in small_rings():
        ring = Ring(config)
        try:
            ring.run_stream(items)
            end = "quiescent"
        except (SystemFailed, SlotOverflow, RuntimeError) as e:
            end = f"{type(e).__name__}: {e}"
        ends[end.partition(":")[0]] += 1
        for part in (ring.transcript.text(), ring.tap_edges, ring.tap_dump,
                     sorted(ring.stored_edges().items()), ring.violations,
                     ring.aging_log, end):
            digest.update(repr(part).encode())
    assert ends["quiescent"] > 100 and ends["SystemFailed"] > 100, ends
    assert digest.hexdigest() == PINNED_SMALL




def test_arrivals_and_queries_never_reach_the_general_path(monkeypatch):
    # a guard on the hot path, as test_cold_start guards imports: with no
    # deletion, no seal and no policy, no bundle, the builder's included,
    # holds anything but edges and constant queries, so the hop never
    # dispatches a message
    calls = Counter()
    for name in ("_primary_slot", "_payload_slot"):
        def counted(*args, _real=getattr(Processor, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(Processor, name, counted)
    rng = random.Random(3)
    items = []
    for i in range(400):
        items.append(Arrival(rng.randrange(120), rng.randrange(120)))
        if i % 10 == 9:
            items.append(Connectivity(rng.randrange(120), rng.randrange(120)))
    ring = Ring(RingConfig(p=3, s=200, k=5))
    ring.run_stream(items)
    head = ring.processors[0]
    # the head filled, so it also evicted non-tree edges for tree edges,
    # but 120 vertices leave too few tree edges for it to seal
    assert head.is_builder and head.stored == 200 and len(head.tree) < 120
    assert ring.processors[1].stored > 0
    assert calls == Counter()


# single processors in every role the hop sees; "aging" is a relay the
# loader has not reached yet, "aging-loader" the loader, and "aging-builder"
# a builder that is also the loader: the head, which tests its own edges
# after the payload, or a processor behind it that took both tokens
ROLES = ("builder-space", "builder-full", "sealed", "relay-space", "relay-full",
         "aging", "aging-builder", "aging-loader")
VERTICES = 10  # stored pairs draw from range(VERTICES): none holds VERTICES


def _snap(x):
    t = type(x)
    if t is LabeledEdge:
        return x.snapshot()
    if t is FailSignal:
        return "fail", x.edge.snapshot(), x.index
    if t is ConnQuery:
        return "conn", x.lu, x.lv, x.answer
    if t is CountQuery:
        return "count", x.n
    return None if x is None else t.__name__


def _slots(b):
    return [_snap(b.primary)] + [_snap(x) for x in b.payload], b.builder_token


def _labels(b):
    return [_snap(x) for x in (b.primary, *b.payload) if type(x) in (LabeledEdge, ConnQuery)]


def _state(proc):
    pools = [[e.snapshot() for e in pool]
             for pool in (proc.tree, proc.nontree, proc.untested, proc.unresolved)]
    return ([(key, e.t) for key, e in proc.dup.items()], pools, proc.stored,
            [(block, c.name) for block, c in proc.lc.sets.items()],
            (proc.is_builder, proc.sealed, proc.is_loader, proc.seal_pending, proc.aging),
            proc.deletions, [_snap(x) for x in proc.outq])


def _draw_processor(data, role, tail=None, full=None, head=None, last=None):
    """A processor in `role`; `tail`, while aging `full`, at the aging
    builder `head`, and outside a sealed processor and a relay whether it
    holds the last tree edge before sealing, `last`, are drawn unless
    given."""
    s = data.draw(st.integers(3, 7), "s")
    k = data.draw(st.integers(2, 5), "k")
    if tail is None:
        tail = not role.startswith("aging") and data.draw(st.integers(0, 3), "tail") == 0
    if role == "aging-builder" and head is None:
        head = data.draw(st.booleans(), "head")
    proc = Processor(0 if head else 2 if tail else 1, RingConfig(p=3, s=s, k=k))
    # a spanning forest, then non-tree edges stored under equal labels
    ntree = {"sealed": s, "relay-space": 0, "relay-full": 0}.get(
        role, s - 1 if last else data.draw(st.integers(0, s - 1 - (last is False)), "ntree"))
    if not role.startswith("aging"):
        full = role in ("builder-full", "sealed", "relay-full")
    elif full is None:
        full = data.draw(st.integers(0, 3), "full") > 0
    stored = s if full else data.draw(st.integers(ntree, s - 1), "stored")
    pairs = [(u, v) for u in range(VERTICES) for v in range(u, VERTICES)]
    for u, v in data.draw(st.permutations(pairs), "pairs"):
        lu, lv = proc.lc.relabel(u), proc.lc.relabel(v)
        if len(proc.tree) < ntree and lu != lv:
            proc._accept(LabeledEdge(u, v, t=data.draw(st.integers(0, 20), "t")), TREE)
        elif proc.stored < stored and len(proc.tree) == ntree:
            proc._accept(LabeledEdge(u, v, lu, lu, t=data.draw(st.integers(0, 20), "t")),
                         NONTREE)
    proc.is_builder = role.startswith("builder") or role == "aging-builder"
    proc.sealed = role == "sealed"
    if role.startswith("aging"):
        # as begin_aging leaves it, some edges already tested; the head
        # re-stores its survivors, so it holds no unresolved edge
        proc.lc.reset()
        edges = proc.tree + proc.nontree
        proc.tree.clear()
        proc.nontree.clear()
        split = 0 if head else data.draw(st.integers(0, len(edges)), "tested")
        proc.unresolved = deque(edges[:split])
        proc.untested = deque(edges[split:])
        proc.aging = True
        proc.is_loader = role != "aging"
        proc.predicate = TimestampThreshold(data.draw(st.integers(0, 20), "threshold"))
    return proc


def _labelled(data, u, v):
    labels = data.draw(st.sampled_from(("primitive", "equal", "any")), "labels")
    blocks = st.integers(0, VERTICES)
    if labels == "primitive":
        lu, lv = u, v
    elif labels == "equal":
        lu = lv = data.draw(blocks, "label")
    else:
        lu, lv = data.draw(blocks, "lu"), data.draw(blocks, "lv")
    return LabeledEdge(u, v, lu, lv, t=data.draw(st.integers(0, 40), "t"))


def _draw_edge(data, proc):
    if proc.dup and data.draw(st.integers(0, 2), "stored key") == 0:
        return _stored_edge(data, proc)
    blocks = st.integers(0, VERTICES)
    return _labelled(data, data.draw(blocks, "u"), data.draw(blocks, "v"))


def _stored_edge(data, proc):
    return _labelled(data, *data.draw(st.sampled_from(sorted(proc.dup)), "key"))


def _fresh(data, lu=None, lv=None):
    """An edge no drawn store holds, its labels drawn unless given."""
    u = data.draw(st.integers(0, VERTICES - 1), "u")
    if lu is None:
        return _labelled(data, u, VERTICES)
    return LabeledEdge(u, VERTICES, lu, lv, t=data.draw(st.integers(0, 40), "t"))


def _equal(data):
    label = data.draw(st.integers(0, VERTICES), "label")
    return _fresh(data, label, label)


def _apart(data):
    """Labels no drawn union-find joins: it never holds block VERTICES."""
    x = data.draw(st.integers(0, VERTICES - 1), "label")
    return _fresh(data, *((VERTICES, x) if data.draw(st.booleans(), "swap") else (x, VERTICES)))


def _draw_bundle(data, proc):
    """A whole bundle for `proc`: edges, a query outside a deletion, and
    probes in any slot; at an aging relay, maybe the loader token."""
    # a deletion suspends queries
    kinds = (("edge", "none", "edge", "probe") if proc.aging else
             ("none", "edge", "edge", "edge", "conn", "conn", "count", "probe"))
    kind = data.draw(st.sampled_from(kinds), "primary")
    if kind == "edge":
        prim = _draw_edge(data, proc)
    elif kind == "conn":
        # endpoints the union-find holds, so that relabelling can meet them
        ends = sorted(proc.lc.sets) or [0]
        prim = ConnQuery(0, data.draw(st.sampled_from(ends), "qu"),
                         data.draw(st.integers(0, VERTICES), "qv"), 0)
        if data.draw(st.booleans(), "held"):
            prim.v = prim.lv = data.draw(st.sampled_from(ends), "qv held")
        prim.answer = prim.u == prim.v or data.draw(st.integers(0, 3), "answered") == 0
    elif kind == "count":
        prim = CountQuery(0, 0)
    else:
        prim = StatsProbe(0) if kind == "probe" else None
    payload = []
    # about half the bundles carry no payload, as most in a ring do; an
    # aging processor's carry some unless a primary edge rides alone
    low = (0 if prim is not None else 1) if proc.aging else 1 - proc.k
    for _ in range(data.draw(st.integers(low, proc.k - 1), "payload")):
        if data.draw(st.integers(0, 5), "item") == 0:
            payload.append(StatsProbe(0))
        else:
            payload.append(_draw_edge(data, proc))
    if (proc.aging and not proc.is_loader and len(payload) < proc.k - 1
            and data.draw(st.integers(0, 3), "loader token") == 0):
        return _with_loader_token(data, prim, payload)
    return Bundle(prim, payload)


def _with_loader_token(data, prim, payload):
    """The loader token in a payload slot drawn at random, the builder token
    maybe beside it: a builder ages only as the loader, so the two reach a
    relay together."""
    payload.insert(data.draw(st.integers(0, len(payload)), "token slot"), LOADER_TOKEN)
    return Bundle(prim, payload, data.draw(st.booleans(), "builder token"))


# bundles drawn for one outcome by construction, for the cases the
# coverage floors count

def _with(data, proc, b, item):
    """`b`'s edges with `item` in a payload slot drawn at random, in place
    of an edge when every slot is taken; a probe in the primary slot goes."""
    payload = [x for x in b.payload if type(x) is LabeledEdge]
    i = data.draw(st.integers(0, len(payload)), "slot")
    if len(payload) == proc.k - 1:
        payload[min(i, len(payload) - 1)] = item
    else:
        payload.insert(i, item)
    return Bundle(None if type(b.primary) is StatsProbe else b.primary, payload)


def _with_message(data, proc):
    return _with(data, proc, _draw_bundle(data, proc), StatsProbe(0))


def _changed(data, proc):
    # a duplicate is absorbed; with nothing stored, an edge settles: in a
    # payload slot with equal labels, or while aging in the primary slot
    b = _draw_bundle(data, proc)
    if proc.dup:
        return _with(data, proc, b, _stored_edge(data, proc))
    if proc.aging:
        return Bundle(_fresh(data), _with(data, proc, b, _fresh(data)).payload)
    return _with(data, proc, b, _equal(data))


def _passed(data, proc):
    """A whole bundle the rules pass on as it came, away from the tail: no
    edge at a builder with space, which stores any; equal labels at a full
    store, labels apart at a relay, and any fresh edge behind an empty
    primary slot at an aging relay."""
    n = data.draw(st.integers(0, proc.k - 1), "payload")
    if proc.aging:
        return Bundle(None, [_fresh(data) for _ in range(n)])
    if proc.is_builder and proc.stored < proc.s:
        return Bundle(data.draw(st.sampled_from((None, CountQuery(0, 0))), "primary"), [])
    edge = _equal if proc.stored >= proc.s else _apart
    kind = data.draw(st.sampled_from(("none", "count", "edge")), "primary")
    prim = None if kind == "none" else CountQuery(0, 0) if kind == "count" else edge(data)
    return Bundle(prim, [edge(data) for _ in range(n)])


def _loader_token(data, proc):
    prim = _draw_edge(data, proc) if data.draw(st.booleans(), "primary edge") else None
    n = data.draw(st.integers(0, proc.k - 2), "payload")
    return _with_loader_token(data, prim, [_draw_edge(data, proc) for _ in range(n)])


def _primary_stays(data, proc):
    # a full aging relay keeps a primary edge whose labels differ
    n = data.draw(st.integers(0, proc.k - 1), "payload")
    return Bundle(_apart(data), [_fresh(data) for _ in range(n)])


def _primary_changed(data, proc):
    n = data.draw(st.integers(0, proc.k - 1), "payload")
    prim = _stored_edge(data, proc) if proc.dup else _fresh(data)
    return Bundle(prim, [_fresh(data) for _ in range(n)])


def _relabelled(data, proc):
    # a block the union-find renamed, beside one it never holds
    renamed = sorted(b for b, c in proc.lc.sets.items() if c.name != b)
    return Bundle(None, [_fresh(data, data.draw(st.sampled_from(renamed), "block"), VERTICES)])


def _tree_edge(data, proc):
    return Bundle(None, [_apart(data)])


# a lone edge, in the primary slot with nothing beside it, away from the
# tail and outside a deletion, is finished at the top of the hop, except a
# full builder's tree edge and the edge that seals the builder

def _lone_stored(data, proc):
    return Bundle(_stored_edge(data, proc))


def _lone_fresh(data, proc):
    return Bundle(_fresh(data))


def _lone_equal(data, proc):
    return Bundle(_equal(data))


def _lone_apart(data, proc):
    return Bundle(_apart(data))


# (role, how the rules take the edge, fixed processor draws, bundle drawn)
LONE_EDGE = (
    ("relay-full", "absorbed", {}, _lone_stored),
    ("relay-space", "non-tree", {}, _lone_equal),
    ("builder-space", "non-tree", {}, _lone_equal),
    ("builder-space", "tree", {"last": False}, _lone_apart),
    ("relay-full", "passed", {}, _lone_fresh),
    ("sealed", "passed", {}, _lone_fresh),
    ("builder-full", "passed", {}, _lone_equal),
    ("builder-full", "evicts", {}, _lone_apart),
    ("builder-space", "seals", {"last": True}, _lone_apart),
)


def _lone_outcome(proc, e, passed, after):
    """How the rules took lone edge `e` at `proc`, leaving `after`."""
    if e.ck in proc.dup:
        return "absorbed"
    if passed:
        return "passed"
    if e.ck not in {x.ck for x in after.tree}:
        return "non-tree"
    if proc.stored >= proc.s:
        return "evicts"
    return "seals" if after.sealed else "tree"


# the aging builder and the loader rebuild every bundle: after the payload
# they test or recycle their own edges
REBUILT = ("aging-builder", "aging-loader")


def _floored_cases():
    """(role, counted key, fixed processor draws, bundle drawn) for every
    case a coverage floor counts."""
    for role in ROLES:
        yield role, (role, "changed"), {}, _changed
        yield role, (role, "message"), {}, _with_message
        if role not in REBUILT:
            yield role, (role, "identity"), {"tail": False}, _passed
    yield "aging", ("aging", "loader token"), {}, _loader_token
    yield "aging", ("aging", "primary edge", "identity"), {"full": True}, _primary_stays
    yield "aging", ("aging", "primary edge", "changed"), {}, _primary_changed
    yield "aging-builder", ("aging-builder", "head"), {"head": True}, _draw_bundle
    yield "sealed", ("sealed", "relabelled"), {"tail": False}, _relabelled
    yield "builder-full", ("builder-full", "payload tree edge"), {"tail": False}, _tree_edge
    for role, outcome, fixed, draw_bundle in LONE_EDGE:
        yield role, (role, "lone edge", outcome), {"tail": False, **fixed}, draw_bundle


def _check(data, role, draw_bundle=_draw_bundle, **fixed):
    """One drawn case, through the hop and through the rules without its
    exit; returns the keys it counts."""
    proc = _draw_processor(data, role, **fixed)
    b = draw_bundle(data, proc)
    exit_proc, exit_b = copy.deepcopy((proc, b))
    rules_proc, rules_b = copy.deepcopy((proc, b))
    got = exit_proc.process_bundle(exit_b)
    want = transit_rules(rules_proc, rules_b)
    if want is rules_b:
        assert got is exit_b
        assert _slots(exit_b) == _slots(rules_b)
        # passed on as it came, or relabelled (a query maybe answered)
        outcome = "identity" if _labels(exit_b) == _labels(b) else "relabelled"
    else:
        assert got is not exit_b
        assert _slots(got) == _slots(want)
        assert _slots(exit_b) == _slots(rules_b)
        outcome = "changed"
    assert _state(exit_proc) == _state(rules_proc)
    assert got.occupied() <= proc.k
    keys = [(role, outcome)]
    if type(b.primary) is LabeledEdge:
        keys.append((role, "primary edge", outcome))
        if not (b.payload or b.builder_token or proc.aging or proc.is_tail or proc.outq):
            keys.append((role, "lone edge",
                         _lone_outcome(proc, b.primary, want is rules_b, rules_proc)))
    if any(type(x) in (StatsProbe, LoaderToken) for x in (b.primary, *b.payload)):
        keys.append((role, "message"))
    if any(type(x) is LoaderToken for x in b.payload):
        keys.append((role, "loader token"))
    if proc.is_head:
        keys.append((role, "head"))
    stored = {e.ck for e in rules_proc.tree} - proc.dup.keys()
    if stored & {e.ck for e in b.payload if type(e) is LabeledEdge}:
        keys.append((role, "payload tree edge"))
    return keys


def test_identity_exit_matches_the_rules():
    # the exits at the top of the hop return what the rules below them
    # would, the bundle itself only where the rules pass it on, and leave
    # the processor as they leave it; the rules take whole bundles at every
    # role, messages in their slots
    outcomes = Counter()

    @settings(max_examples=1000)
    @given(st.data())
    def steady(data):
        # twice the roles whose bundles the exit passes most ways
        role = data.draw(st.sampled_from(ROLES[:5] + ("builder-full", "sealed")), "role")
        outcomes.update(_check(data, role))

    @settings(max_examples=400)
    @given(st.data())
    def aging(data):
        outcomes.update(_check(data, data.draw(st.sampled_from(ROLES[5:] + ("aging",)), "role")))

    steady()
    aging()
    # each case a floor counts is drawn directly as well, so that the
    # floors hold however the draws above fall
    for role, key, fixed, draw_bundle in _floored_cases():
        @settings(max_examples=10)
        @given(st.data())
        def case(data):
            keys = _check(data, role, draw_bundle, **fixed)
            assert key in keys, (key, keys)
            outcomes.update(keys)

        case()
    for role in ROLES:
        for outcome in ("changed", "message") if role in REBUILT else (
                "identity", "changed", "message"):
            assert outcomes[role, outcome] >= 5, outcomes
    assert not any(outcomes[role, "identity"] for role in REBUILT), outcomes
    # behind the builder a primary edge may settle or stay; the loader
    # token makes a relay the loader for what follows it
    for outcome in ("identity", "changed"):
        assert outcomes["aging", "primary edge", outcome] >= 5, outcomes
    assert outcomes["aging", "loader token"] >= 5, outcomes
    assert outcomes["aging-builder", "head"] >= 5, outcomes
    # only the builder and a sealed processor hold a union-find
    assert outcomes["builder-full", "relabelled"] + outcomes["sealed", "relabelled"] >= 10
    assert outcomes["builder-full", "payload tree edge"] >= 5, outcomes
    for role, outcome, _, _ in LONE_EDGE:
        assert outcomes[role, "lone edge", outcome] >= 5, outcomes
