import random

from ringcc.model import (
    Age,
    Arrival,
    Bundle,
    DumpLabels,
    IDLE,
    MaxComponent,
    SmallComponents,
    SpanningTree,
)
from ringcc.aging import TimestampThreshold
from ringcc.multipass import partition, static_cc
from ringcc.queries import PhaseDone, QueryEnd
from ringcc.ring import Ring, RingConfig


def run(ring, items):
    for it in items:
        ring.tick(it)
    ring.drain()
    return ring


def random_edges(rng, n, nverts, self_loops=False):
    out = []
    while len(out) < n:
        u, v = rng.randrange(nverts), rng.randrange(nverts)
        if u == v and not self_loops:
            continue
        out.append((u, v))
    return out


def dump_labeling(ring, vertices):
    pairs = [(e[4], e[5]) for e in ring.transcript.outputs("dump")]
    mapping = dict(pairs)
    out = {}
    for v in vertices:
        name = v
        while name in mapping and mapping[name] != name:
            name = mapping[name]
        out[v] = name
    return out


# ----------------------------------------------------------------- dump

def test_dump_empty_graph():
    ring = run(Ring(RingConfig(p=3, s=5, k=3, validate=True)), [DumpLabels()])
    assert ring.transcript.outputs("dump") == []
    assert [e for e in ring.transcript.outputs("done")] != []


def test_dump_partition_matches_oracle():
    # 2000 observations over 20 vertices: at most 190 unique edges, well
    # inside the 5 * 50 slot budget
    rng = random.Random(5)
    edges = random_edges(rng, 2000, 20)
    ring = Ring(RingConfig(p=5, s=50, k=4, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(DumpLabels())
    ring.drain()
    vertices = {x for e in edges for x in e}
    mine = dump_labeling(ring, vertices)
    assert partition(mine) == partition(static_cc(edges))
    assert ring.violations == []


from util import bounded_stream, check_hop_equivalence


def test_dump_hop_streams_equal_reference_passes():
    rng = random.Random(9)
    for p, s, k in [(3, 7, 3), (5, 10, 4), (3, 50, 2)]:
        edges = bounded_stream(rng, p, s, 300)
        ring = Ring(RingConfig(p=p, s=s, k=k, validate=True, taps=True))
        run(ring, [Arrival(u, v) for u, v in edges])
        ring.tick(DumpLabels())
        ring.drain()
        check_hop_equivalence(ring, edges, p, s)


# ----------------------------------------------------------------- spanning tree

def test_tree_dump_empty():
    ring = run(Ring(RingConfig(p=3, s=5, k=3, validate=True)), [SpanningTree()])
    assert ring.transcript.outputs("tree-edge") == []


def test_tree_dump_of_forest_returns_it():
    edges = [(0, 1), (2, 3), (1, 4), (9, 5)]
    ring = Ring(RingConfig(p=3, s=3, k=3, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(SpanningTree())
    ring.drain()
    got = {(min(e[4], e[5]), max(e[4], e[5])) for e in ring.transcript.outputs("tree-edge")}
    assert got == {(0, 1), (2, 3), (1, 4), (5, 9)}


def test_tree_dump_is_spanning_forest():
    rng = random.Random(11)
    edges = bounded_stream(rng, 4, 30, 600, self_loops=False)
    ring = Ring(RingConfig(p=4, s=30, k=4, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(SpanningTree())
    ring.drain()
    got = [(e[4], e[5]) for e in ring.transcript.outputs("tree-edge")]
    vertices = {x for e in edges for x in e}
    # acyclic: a forest has exactly (vertices - components) edges
    labels = static_cc(edges)
    comp_count = len(set(labels.values()))
    assert len(got) == len(vertices) - comp_count
    assert partition(static_cc(got + [(v, v) for v in vertices])) == partition(labels)


def test_one_end_marker_per_hop():
    # only the head makes a query's end marker; every later processor adds
    # its share ahead of it and forwards it, so the marker crosses each of
    # the p - 1 links and the return once (a TREE once sent 2^p - 1)
    path = [Arrival(i, i + 1) for i in range(39)]
    for query, want_ends, want_phase in [(SpanningTree(), 8, 0), (DumpLabels(), 8, 0),
                                         (SmallComponents(3), 8, 8), (MaxComponent(), 0, 8)]:
        ring = run(Ring(RingConfig(p=8, s=5, k=5, validate=True)), path)
        ring.tick(query)
        ends = phase = 0
        for _ in range(60):
            if ring.quiescent():
                break
            for b in (*ring.links[1:], ring.junction_return):
                for x in (b.primary, *b.payload):
                    ends += type(x) is QueryEnd
                    phase += type(x) is PhaseDone
            ring.tick(None)
        assert ring.quiescent(), query
        assert (ends, phase) == (want_ends, want_phase), query
        assert ring.violations == []


def test_tree_of_a_full_ring_drains_with_each_edge_once():
    path = [(i, i + 1) for i in range(39)]
    ring = Ring(RingConfig(p=8, s=5, k=5, validate=True))
    ring.run_stream([Arrival(u, v) for u, v in path] + [SpanningTree()])
    got = [(e[4], e[5]) for e in ring.transcript.outputs("tree-edge")]
    assert sorted(got) == path
    assert len(ring.transcript.outputs("done")) == 1


def test_an_end_marker_of_no_live_query_is_a_stray():
    # under validation an end marker must belong to the active query or to
    # the last one a deletion aborted; a second marker of a finished query
    # is flagged once
    ring = Ring(RingConfig(p=3, s=5, k=3, validate=True))
    run(ring, [Arrival(0, 1), SpanningTree()] + [IDLE] * 8
        + [SpanningTree(), Age(TimestampThreshold(0))])
    (_, _, done, _), = ring.transcript.outputs("done")
    (_, _, aborted, _), = ring.transcript.outputs("aborted")
    assert ring.violations == []
    ring.junction_return = Bundle(None, [QueryEnd(aborted, "tree")])
    ring.tick(IDLE)
    assert ring.violations == []
    ring.junction_return = Bundle(None, [QueryEnd(done, "tree")])
    ring.tick(IDLE)
    assert [(v.kind, v.index, v.detail) for v in ring.violations] == [
        ("stray-end-marker", -1, f"QueryEnd of q{done} with no query active")]


# ----------------------------------------------------------------- max component

def test_max_component_empty():
    ring = run(Ring(RingConfig(p=3, s=5, k=3, validate=True)), [MaxComponent()])
    outs = ring.transcript.outputs("max")
    assert len(outs) == 1 and outs[0][4] == 0


def test_max_component_two_sizes():
    # components {0,1,2} and {10,11,12,13,14}
    edges = [(0, 1), (1, 2), (10, 11), (11, 12), (12, 13), (13, 14)]
    ring = Ring(RingConfig(p=3, s=3, k=3, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(MaxComponent())
    ring.drain()
    outs = ring.transcript.outputs("max")
    assert len(outs) == 1 and outs[0][4] == 5


def test_max_component_matches_oracle_random():
    rng = random.Random(13)
    for trial in range(8):
        edges = bounded_stream(rng, 4, 40, rng.randrange(50, 400), self_loops=False)
        ring = Ring(RingConfig(p=4, s=40, k=4, validate=True))
        run(ring, [Arrival(u, v) for u, v in edges])
        ring.tick(MaxComponent())
        ring.drain()
        labels = static_cc(edges)
        sizes = {}
        for v, name in labels.items():
            sizes[name] = sizes.get(name, 0) + 1
        outs = ring.transcript.outputs("max")
        assert len(outs) == 1
        assert outs[0][4] == max(sizes.values())
        assert ring.violations == []


def test_max_component_with_self_loop_only_vertices():
    edges = [(7, 7), (1, 2)]
    ring = Ring(RingConfig(p=3, s=5, k=3, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(MaxComponent())
    ring.drain()
    assert ring.transcript.outputs("max")[0][4] == 2


# ----------------------------------------------------------------- small components

def small_members(ring):
    return {(e[4], e[5]) for e in ring.transcript.outputs("member")}


def test_small_lambda_zero_is_empty():
    edges = [(0, 1), (1, 2)]
    ring = Ring(RingConfig(p=3, s=5, k=3, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(SmallComponents(0))
    ring.drain()
    assert small_members(ring) == set()


def test_small_components_exact_members():
    # sizes {2, 3, 100}: limit 5 returns exactly the five small vertices
    edges = [(0, 1), (10, 11), (11, 12)]
    edges += [(100 + i, 101 + i) for i in range(99)]
    ring = Ring(RingConfig(p=4, s=40, k=4, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(SmallComponents(5))
    ring.drain()
    got = small_members(ring)
    assert {v for _, v in got} == {0, 1, 10, 11, 12}
    by_comp = {}
    for comp, v in got:
        by_comp.setdefault(comp, set()).add(v)
    assert sorted(map(len, by_comp.values())) == [2, 3]
    assert ring.violations == []


def test_small_component_boundary_inclusive():
    edges = [(0, 1), (1, 2)]  # one component of exactly 3 vertices
    ring = Ring(RingConfig(p=3, s=5, k=3, validate=True))
    run(ring, [Arrival(u, v) for u, v in edges])
    ring.tick(SmallComponents(3))
    ring.drain()
    assert {v for _, v in small_members(ring)} == {0, 1, 2}


def test_small_components_match_oracle_random():
    rng = random.Random(17)
    for trial in range(8):
        edges = bounded_stream(rng, 4, 40, rng.randrange(40, 250))
        limit = rng.choice([1, 2, 4, 8])
        ring = Ring(RingConfig(p=4, s=40, k=4, validate=True))
        run(ring, [Arrival(u, v) for u, v in edges])
        ring.tick(SmallComponents(limit))
        ring.drain()
        labels = static_cc(edges)
        groups = {}
        for v, name in labels.items():
            groups.setdefault(name, set()).add(v)
        want = {v for g in groups.values() if len(g) <= limit for v in g}
        got = small_members(ring)
        assert {v for _, v in got} == want, f"trial {trial}"
        assert len(got) == len(want)  # each vertex reported exactly once
        # membership grouping agrees with the oracle partition
        by_comp = {}
        for comp, v in got:
            by_comp.setdefault(comp, set()).add(v)
        small_parts = {frozenset(g) for g in groups.values() if len(g) <= limit}
        assert {frozenset(g) for g in by_comp.values()} == small_parts
        assert ring.violations == []


def test_second_nonconstant_query_is_busy():
    edges = [(i, i + 1) for i in range(30)]
    ring = Ring(RingConfig(p=3, s=20, k=3, validate=True))
    for u, v in edges:
        ring.tick(Arrival(u, v))
    ring.tick(DumpLabels())
    ring.tick(SmallComponents(4))  # one tick later: dump still active
    ring.drain()
    busy = ring.transcript.outputs("busy")
    assert len(busy) == 1
    assert ring.transcript.outputs("dump") != []


def test_nonconstant_query_busy_during_aging_and_aborted_by_aging():
    edges = [(i, i + 1) for i in range(20)]
    ring = Ring(RingConfig(p=3, s=10, k=3, validate=True))
    for u, v in edges:
        ring.tick(Arrival(u, v))
    ring.tick(Age(TimestampThreshold(5)))
    ring.tick(DumpLabels())  # during aging: busy
    ring.drain()
    assert len(ring.transcript.outputs("busy")) == 1
    # a deletion arriving mid-dump aborts the dump
    ring2 = Ring(RingConfig(p=4, s=10, k=3, validate=True))
    for u, v in edges:
        ring2.tick(Arrival(u, v))
    ring2.tick(DumpLabels())
    ring2.tick(Age(TimestampThreshold(5)))
    ring2.drain()
    assert len(ring2.transcript.outputs("aborted")) == 1
