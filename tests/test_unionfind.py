import math
import random

import pytest
from hypothesis import given, strategies as st

from ringcc.multipass import partition, static_cc
from ringcc.unionfind import CapacityExhausted, LocalComponents


def build(capacity, edges):
    """Feed (u, v) pairs the way a builder would: relabel, skip redundant,
    union until the budget runs out."""
    lc = LocalComponents(capacity)
    for u, v in edges:
        lu, lv = lc.relabel(u), lc.relabel(v)
        if lu == lv:
            continue
        if not lc.has_capacity():
            break
        lc.union(lu, lv, bx_vertex=u if lu == u else None,
                 by_vertex=v if lv == v else None)
    return lc


def test_find_identity_on_unknown_blocks():
    lc = LocalComponents(4)
    assert lc.find("zz") == "zz"
    assert lc.relabel("zz") == "zz"


def test_union_min_naming_fresh():
    lc = LocalComponents(4)
    rep = lc.union("b", "c")
    assert rep == "b"
    assert lc.unions_used == 1
    assert lc.find("c") == "b"


def test_contraction_example_with_capacity_four():
    # five edges, one redundant, over a budget of four unions: three
    # supernodes b, e, j absorb f, g, h and k
    lc = build(4, [("e", "f"), ("f", "g"), ("e", "g"), ("b", "h"), ("j", "k")])
    assert lc.unions_used == 4
    assert not lc.has_capacity()
    assert lc.find("g") == "e"
    assert lc.find("f") == "e"
    assert lc.find("h") == "b"
    assert lc.find("k") == "j"
    reps = {lc.find(b) for b in ("e", "f", "g", "b", "h", "j", "k")}
    assert reps == {"b", "e", "j"}


def test_capacity_errors_and_reset():
    lc = LocalComponents(1)
    lc.union(1, 2)
    assert not lc.has_capacity()
    with pytest.raises(CapacityExhausted):
        lc.union(3, 4)
    lc.reset()
    assert lc.has_capacity()
    assert lc.unions_used == 0
    assert lc.find(2) == 2


def test_reset_then_replay_is_identical():
    edges = [(3, 1), (4, 1), (9, 2), (2, 6)]
    lc = build(4, edges)
    first = [(b, lc.find(b)) for b in (1, 2, 3, 4, 6, 9)]
    lc.reset()
    for u, v in edges:
        lu, lv = lc.relabel(u), lc.relabel(v)
        if lu != lv:
            lc.union(lu, lv, bx_vertex=u if lu == u else None,
                     by_vertex=v if lv == v else None)
    assert [(b, lc.find(b)) for b in (1, 2, 3, 4, 6, 9)] == first


def test_partition_matches_static_oracle_on_random_stream():
    rng = random.Random(7)
    for trial in range(20):
        edges = [(rng.randrange(12), rng.randrange(12)) for _ in range(10)]
        edges = [(u, v) for u, v in edges if u != v]
        lc = build(10**6, edges)  # effectively unlimited
        mine = {v: lc.find(v) for v in {x for e in edges for x in e}}
        assert partition(mine) == partition(static_cc(edges))


def test_relabel_chain_across_processors():
    # vertex 1 is absorbed at the first position, and the component names
    # chain through the downstream structures one consumption at a time
    p0 = LocalComponents(4)
    p1 = LocalComponents(4)
    p2 = LocalComponents(4)
    a = p0.union(1, 2)                 # component named min(1, 2) = 1
    assert p0.relabel(1) == a == 1
    d = p1.union(p0.relabel(1), 5)     # consumes block 1 downstream
    assert p1.relabel(p0.relabel(1)) == d
    e = p2.union(p1.relabel(p0.relabel(1)), 7)
    assert p2.relabel(d) == e
    # a vertex nobody consumed relabels to itself everywhere
    for lc in (p0, p1, p2):
        assert lc.relabel(99) == 99


def test_min_naming_representative_is_member_minimum():
    rng = random.Random(3)
    lc = LocalComponents(50)
    members = {}
    for _ in range(30):
        u, v = rng.randrange(20), rng.randrange(20)
        lu, lv = lc.relabel(u), lc.relabel(v)
        if lu == lv or not lc.has_capacity():
            continue
        lc.union(lu, lv, bx_vertex=u if lu == u else None,
                 by_vertex=v if lv == v else None)
    roots = {}
    for b in list(lc.sets):
        roots.setdefault(lc.find(b), set()).add(b)
    for rep, blocks in roots.items():
        assert rep in blocks
        assert rep == min(blocks)


def test_vertex_count_conservation():
    rng = random.Random(11)
    lc = LocalComponents(100)
    primitives = set()
    for _ in range(60):
        u, v = rng.randrange(25), rng.randrange(25)
        lu, lv = lc.relabel(u), lc.relabel(v)
        if lu == lv or not lc.has_capacity():
            continue
        if lu == u:
            primitives.add(u)
        if lv == v:
            primitives.add(v)
        lc.union(lu, lv, bx_vertex=u if lu == u else None,
                 by_vertex=v if lv == v else None)
    total = sum(size for _, size in lc.components())
    assert total == len(primitives)


def test_relationships_skip_representatives():
    lc = build(4, [("e", "f"), ("f", "g"), ("b", "h"), ("j", "k")])
    rel = lc.relationships()
    assert ("e", "e") not in rel
    assert dict(rel) == {"f": "e", "g": "e", "h": "b", "k": "j"}
    # one burial pair per union performed
    assert len(rel) == lc.unions_used


# -- against an explicit set partition ---------------------------------------

class Partition:
    """The brute-force reference: a list of member sets, the blocks in
    consumption order and the vertex of each block consumed primitive."""

    def __init__(self):
        self.parts = []
        self.order = []
        self.prim = {}

    def part(self, b):
        return next((p for p in self.parts if b in p), None)

    def name(self, b):
        p = self.part(b)
        return b if p is None else min(p)

    def union(self, bx, by, vx, vy):
        for b, v in ((bx, vx), (by, vy)):
            if self.part(b) is None:
                self.parts.append({b})
                self.order.append(b)
                if v is not None:
                    self.prim[b] = v
        px, py = self.part(bx), self.part(by)
        self.parts.remove(py)
        px |= py
        return min(px)

    def components(self):
        out = []
        for b in self.order:
            p = self.part(b)
            if all(p is not q for q, _ in out):
                out.append((p, sum(1 for m in p if m in self.prim)))
        return [(min(p), n) for p, n in out]


def assert_same(lc, ref, pool):
    for b in pool:
        assert lc.relabel(b) == lc.find(b) == ref.name(b)
        assert lc.consumed(b) == (ref.part(b) is not None)
        assert lc.arrived_primitive(b) == (b in ref.prim)
    assert lc.unions_used == len(ref.order) - len(ref.parts)
    assert lc.relationships() == [(b, ref.name(b)) for b in ref.order
                                  if ref.name(b) != b]
    assert lc.components() == ref.components()
    assert lc.member_vertices() == [(b, ref.prim[b], ref.name(b))
                                    for b in ref.order if b in ref.prim]


BLOCK_POOLS = [list(range(12)), [f"b{i:02d}" for i in range(12)]]


def replay(lc, ref, ops, pool):
    for i, j, prim_x, prim_y in ops:
        bx, by = ref.name(pool[i]), ref.name(pool[j])
        # a vertex given for a block already consumed is ignored
        vx = bx if prim_x else None
        vy = by if prim_y else None
        if not lc.has_capacity():
            with pytest.raises(CapacityExhausted):
                lc.union(bx, by, vx, vy)
        elif bx == by:
            with pytest.raises(ValueError):
                lc.union(bx, by, vx, vy)
        else:
            assert lc.union(bx, by, vx, vy) == ref.union(bx, by, vx, vy)
        assert_same(lc, ref, pool)


@given(pool=st.sampled_from(BLOCK_POOLS),
       capacity=st.integers(1, 12),
       ops=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.booleans(), st.booleans()), max_size=30))
def test_matches_an_explicit_partition(pool, capacity, ops):
    lc = LocalComponents(capacity)
    replay(lc, Partition(), ops, pool)
    lc.reset()
    assert_same(lc, Partition(), pool)
    replay(lc, Partition(), ops, pool)


# -- union by size ----------------------------------------------------------

class CountingSets(dict):
    """A block -> component map that counts rebinds of blocks already in it."""

    relinks = 0

    def __setitem__(self, b, c):
        if b in self:
            self.relinks += 1
        super().__setitem__(b, c)


def descending_chain(n):
    # each block joins the set of the block above it, so the set's smallest
    # member, its name, changes at every union
    return [(b, b + 1) for b in range(n - 2, -1, -1)]


def descending_pairs(n):
    # a fresh pair, then the pair merges into the set of every block above
    # it: the pair's name wins while the large set stays put
    ops = []
    for b in range(n - 2, -1, -2):
        ops.append((b, b + 1))
        if b + 2 < n:
            ops.append((b, b + 2))
    return ops


def balanced(n):
    # equal sizes at every merge: the most relinks union by size allows
    ops = []
    size = 1
    while size < n:
        ops.extend((b, b + size) for b in range(0, n, 2 * size))
        size *= 2
    return ops


@pytest.mark.parametrize("shape", [descending_chain, descending_pairs, balanced])
def test_union_by_size_bounds_the_relinks(shape):
    n = 4096
    lc = LocalComponents(n)
    lc.sets = sets = CountingSets()
    ops = shape(n)
    for bx, by in ops:
        # every block is consumed primitive, so its vertex is the block itself
        lc.union(lc.relabel(bx), lc.relabel(by),
                 bx if not lc.consumed(bx) else None,
                 by if not lc.consumed(by) else None)
    assert len(ops) == n - 1
    assert len(sets) == n
    assert lc.components() == [(0, n)]
    assert all(lc.relabel(b) == 0 for b in range(n))
    assert sets.relinks <= n * math.log2(n)
