"""The transit hop holds the only rules for an edge at every processor.

`Processor.process_bundle` absorbs a duplicate (the newer timestamp wins),
relabels at the builder and at a sealed processor, settles an equal-label
edge while space lasts, and otherwise forwards the edge in its slot; a full
tail sends a `FailSignal` where it would have settled. At the builder an edge
whose labels still differ is stored as a tree edge, evicting the newest
non-tree edge from a full store, and at s tree edges the builder seals.
While aging, a processor behind the builder settles its primary edge as
non-tree or unresolved by its labels, and trades a resolved one for room when
full; the loader settles an equal-label payload edge the same way.
The hop takes whole bundles of edges, behind an optional connectivity or
count query, at a processor with nothing queued and no builder token
arriving, the builder included outside a deletion, and at an aging relay,
which then tests k-1 of its own edges. It leaves every other bundle to the
general path, which has no edge rules of its own: that hands the hop every
edge one slot at a time.

The same rules once also ran on the general path. The digests pinned below
were recorded from that copy with the hop switched off, and the hop gave the
same ones: the transcript, taps, stores and deletion log of every stream,
and the failure that ended it, if any. Moving the builder's rules, and then
the aging rules behind it, into the hop left them unchanged, and so did the
300 small rings of `PINNED_SMALL`. The hops are counted by kind (builder,
sealed relabel, settle, constant query, full relay, aging relay) so that
each kind is known to be exercised.
"""

import copy
import hashlib
import random
from collections import Counter, deque

from hypothesis import given, settings, strategies as st

from ringcc.aging import StatsProbe, TimestampThreshold
from ringcc.model import Arrival, AutoAge, Bundle, Connectivity, FailSignal, LabeledEdge
from ringcc.processor import NONTREE, TREE, Packer, Processor, SlotOverflow
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
    (2, 2): ("475e30ba62fa2fa184def3a40df50c7db06bf6ea48f4f6ef804e57ead1bd0c19", None),
    (2, 3): ("9fc01671e5b2cee7b00cae708e6c72e53fd2ba2efa57a2856f4aef09e5fb4943", None),
    (2, 5): ("27790c307425d12726b97f6242b5af76b320550625096bfa9bd97ea932590904", None),
    (5, 2): ("527273c0c6735a6819451de79f3f65d7caf3e6afa959219faa3d56f48593040d", None),
    (5, 3): ("bf14633f5ec7240c78c686a2c39c0d346b2f31c48c693928b6634fb0c1f50a90", None),
    (5, 5): ("78f8b7ca60263dd647f368567a83ca55a4b3b61d88eda18c5b2c404d11b93f4d", None),
    (10, 2): ("77f6babddac87bb64836d0d2cc5bd0332b35228709c8c68ba3f489107ce3fd9a",
              "tick 1761: storage exhausted at processor 9"),
    (10, 3): ("c84f5bc32eaa5a30f492c76751a1eab2807c408f7bf26e6fa5e2971f3aaddef3", None),
    (10, 5): ("42f7799acf29140409ff7f70d3a5729931a3dae4dafe530884c039202ffb98a1", None),
}
PINNED_FULL_TAIL = ("ea75673e50652770c1009f295062afac5302f690823b6c474da2ea41889f2397",
                    "tick 44: storage exhausted at processor 3")

# SHA-256 of 300 small rings run to quiescence or failure
PINNED_SMALL = "3396ce326edef445d1890ae70df1c9724f1369fa63b827065ab8f0c6ac3125d9"


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
    general = Processor._general
    hops = Counter()
    declines = [0]

    def declined(proc, b):
        declines[0] += 1
        return general(proc, b)

    def counted(proc, b, one=False):
        # a one-slot handoff runs inside the general path's call, after it
        # counted the decline of the whole bundle
        kind = hop_kind(proc, b)
        before = declines[0]
        out = hop(proc, b, one)
        if declines[0] == before and not b.is_empty():
            hops[kind] += 1
        return out

    monkeypatch.setattr(Processor, "_general", declined)
    monkeypatch.setattr(Processor, "process_bundle", counted)
    monkeypatch.setattr(Processor, "_hop", counted)
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
    # deletion, no seal and no policy, every bundle, the builder's included,
    # takes the transit hop, so the general path's slot dispatch and packer
    # are never called
    calls = Counter()
    for cls, name in ((Processor, "_primary_slot"), (Packer, "bundle")):
        def counted(*args, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(cls, name, counted)
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
# loader has not reached yet, and the aging builder and loader leave whole
# bundles to the general path, which hands the hop one slot at a time
ROLES = ("builder-space", "builder-full", "sealed", "relay-space", "relay-full",
         "aging", "aging-builder", "aging-loader")
VERTICES = 10  # stored pairs draw from range(VERTICES): none holds VERTICES
DECLINED = object()  # what the stubbed general path returns


class _ExitCopy(Processor):
    """The hop as it is, its general path stubbed out."""

    __slots__ = ()

    def _general(self, b):
        return DECLINED


class _RulesCopy(_ExitCopy):
    """The rules without the exit, the general path stubbed out."""

    __slots__ = ()
    process_bundle = _hop = transit_rules


class _RulesTick(Processor):
    """The whole tick, the general path included, with the rules standing
    in for the hop."""

    __slots__ = ()
    process_bundle = _hop = transit_rules


def _copy(proc, b, cls):
    """Deep copies of `proc` and `b`, which may be `proc._one`, the
    processor recast as `cls`, a subclass that adds no slots."""
    proc, b = copy.deepcopy((proc, b))
    proc.__class__ = cls
    return proc, b


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


def _draw_processor(data, role, tail=None, full=None):
    """A processor in `role`; `tail` and, while aging, `full` are drawn
    unless given."""
    s = data.draw(st.integers(3, 7), "s")
    k = data.draw(st.integers(2, 5), "k")
    if tail is None:
        tail = not role.startswith("aging") and data.draw(st.integers(0, 3), "tail") == 0
    proc = Processor(2 if tail else 1, RingConfig(p=3, s=s, k=k))
    # a spanning forest, then non-tree edges stored under equal labels
    ntree = {"sealed": s, "relay-space": 0, "relay-full": 0}.get(
        role, data.draw(st.integers(0, s - 1), "ntree"))
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
        # as begin_aging leaves it, some edges already tested
        proc.lc.reset()
        edges = proc.tree + proc.nontree
        proc.tree.clear()
        proc.nontree.clear()
        split = data.draw(st.integers(0, len(edges)), "tested")
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


def _draw_bundle(data, proc, one=None):
    """A bundle for `proc`; a one-slot handoff (`one`) is drawn while aging
    unless given."""
    if one is None:
        one = proc.aging and data.draw(st.booleans(), "one slot")
    if one:
        # the general path's one-slot handoff, the only bundle an aging
        # builder or loader takes
        return _one_slot(data, proc, _draw_edge(data, proc))
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
    return Bundle(prim, payload)


def _one_slot(data, proc, e, primary=None):
    b = proc._one
    if primary is None:
        primary = data.draw(st.booleans(), "primary")
    b.primary, b.payload = (e, ()) if primary else (None, (e,))
    return b


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


def _declined(data, proc):
    # a payload slot holding anything but an edge
    return _with(data, proc, _draw_bundle(data, proc, one=False), StatsProbe(0))


def _changed(data, proc):
    # a duplicate is absorbed; with nothing stored, an edge settles: in a
    # payload slot with equal labels, or while aging in the primary slot
    b = _draw_bundle(data, proc, one=False)
    if proc.dup:
        return _with(data, proc, b, _stored_edge(data, proc))
    if proc.aging:
        return Bundle(_fresh(data), _with(data, proc, b, _fresh(data)).payload)
    return _with(data, proc, b, _equal(data))


def _passed(data, proc):
    """A whole bundle the rules pass on as it came, away from the tail: no
    edge at a builder with space, which stores any; equal labels at a full
    store, labels apart at a relay, and any fresh edge behind an empty
    primary slot while aging."""
    n = data.draw(st.integers(0, proc.k - 1), "payload")
    if proc.aging:
        return Bundle(None, [_fresh(data) for _ in range(n)])
    if proc.is_builder and proc.stored < proc.s:
        return Bundle(data.draw(st.sampled_from((None, CountQuery(0, 0))), "primary"), [])
    edge = _equal if proc.stored >= proc.s else _apart
    kind = data.draw(st.sampled_from(("none", "count", "edge")), "primary")
    prim = None if kind == "none" else CountQuery(0, 0) if kind == "count" else edge(data)
    return Bundle(prim, [edge(data) for _ in range(n)])


def _primary_stays(data, proc):
    # a full aging relay keeps a primary edge whose labels differ
    n = data.draw(st.integers(0, proc.k - 1), "payload")
    return Bundle(_apart(data), [_fresh(data) for _ in range(n)])


def _primary_changed(data, proc):
    n = data.draw(st.integers(0, proc.k - 1), "payload")
    prim = _stored_edge(data, proc) if proc.dup else _fresh(data)
    return Bundle(prim, [_fresh(data) for _ in range(n)])


def _one_passed(data, proc):
    # behind the builder a payload edge whose labels differ rides on
    return _one_slot(data, proc, _apart(data), primary=False)


def _one_changed(data, proc):
    if proc.dup:
        return _one_slot(data, proc, _stored_edge(data, proc))
    return _one_slot(data, proc, _fresh(data), primary=True)


def _relabelled(data, proc):
    # a block the union-find renamed, beside one it never holds
    renamed = sorted(b for b, c in proc.lc.sets.items() if c.name != b)
    return Bundle(None, [_fresh(data, data.draw(st.sampled_from(renamed), "block"), VERTICES)])


def _tree_edge(data, proc):
    return Bundle(None, [_apart(data)])


def _floored_cases():
    """(role, counted key, fixed processor draws, bundle drawn) for every
    case a coverage floor counts."""
    for role in ROLES:
        yield role, (role, "general path"), {}, _declined
    for role in ROLES[:6]:
        yield role, (role, "changed"), {}, _changed
        yield role, (role, "identity"), {"tail": False}, _passed
    yield "aging-builder", ("aging-builder", "changed"), {}, _one_changed
    for role in ("aging", "aging-loader"):
        yield role, (role, "one slot", "identity"), {}, _one_passed
        yield role, (role, "one slot", "changed"), {}, _one_changed
    yield "aging", ("aging", "primary edge", "identity"), {"full": True}, _primary_stays
    yield "aging", ("aging", "primary edge", "changed"), {}, _primary_changed
    yield "sealed", ("sealed", "relabelled"), {"tail": False}, _relabelled
    yield "builder-full", ("builder-full", "payload tree edge"), {"tail": False}, _tree_edge


def _check(data, role, draw_bundle=_draw_bundle, **fixed):
    """One drawn case, through the hop and through the rules without its
    exit; returns the keys it counts."""
    proc = _draw_processor(data, role, **fixed)
    b = draw_bundle(data, proc)
    one = b is proc._one
    exit_proc, exit_b = _copy(proc, b, _ExitCopy)
    rules_proc, rules_b = _copy(proc, b, _RulesCopy)
    got = exit_proc.process_bundle(exit_b, one)
    want = rules_proc.process_bundle(rules_b, one)
    if want is DECLINED:
        # the exit may have relabelled edges ahead of a slot that sends
        # the bundle to the general path, which relabels them again (below)
        assert got is DECLINED
        outcome = "general path"
    elif want is rules_b:
        assert got is exit_b
        assert _slots(exit_b) == _slots(rules_b)
        # passed on as it came, or relabelled (a query maybe answered)
        outcome = "identity" if _labels(exit_b) == _labels(b) else "relabelled"
    else:
        assert got is not DECLINED and got is not exit_b
        assert _slots(got) == _slots(want)
        assert _slots(exit_b) == _slots(rules_b)
        outcome = "changed"
    assert _state(exit_proc) == _state(rules_proc)
    keys = [(role, outcome)]
    if one:
        keys.append((role, "one slot", outcome))
    elif type(b.primary) is LabeledEdge:
        keys.append((role, "primary edge", outcome))
    stored = {e.ck for e in rules_proc.tree} - proc.dup.keys()
    if stored & {e.ck for e in b.payload if type(e) is LabeledEdge}:
        keys.append((role, "payload tree edge"))
    if not one:
        # the whole tick, the general path included, with the rules
        # standing in for the hop on the reference copy
        exit_proc, exit_b = _copy(proc, b, Processor)
        rules_proc, rules_b = _copy(proc, b, _RulesTick)
        assert (_slots(exit_proc.process_bundle(exit_b))
                == _slots(rules_proc.process_bundle(rules_b)))
        assert _state(exit_proc) == _state(rules_proc)
    return keys


def test_identity_exit_matches_the_rules():
    # the exit at the top of the hop returns the bundle only where the
    # rules below it would, and leaves the processor as they leave it
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
    # an aging loader that is not the builder leaves every whole bundle to
    # the general path, and a one-slot handoff at an aging builder here
    # always finds room in a deletion
    for role in ROLES:
        for outcome in {"aging-loader": ("general path",),
                        "aging-builder": ("changed", "general path")}.get(
                            role, ("identity", "changed", "general path")):
            assert outcomes[role, outcome] >= 5, outcomes
    # behind the builder a primary edge may settle or stay, and so may a
    # one-slot edge at a relay or the loader
    for role, shape in (("aging", "primary edge"), ("aging", "one slot"),
                        ("aging-loader", "one slot")):
        for outcome in ("identity", "changed"):
            assert outcomes[role, shape, outcome] >= 5, outcomes
    # only the builder and a sealed processor hold a union-find
    assert outcomes["builder-full", "relabelled"] + outcomes["sealed", "relabelled"] >= 10
    assert outcomes["builder-full", "payload tree edge"] >= 5, outcomes
