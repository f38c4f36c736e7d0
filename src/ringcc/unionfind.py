"""Capacity-bounded union-find over blocks.

Each ring processor owns one LocalComponents structure. Its elements are
"blocks": either a primitive block (one graph vertex) or the name of a
component built upstream. Capacity is measured in union operations, and a
component is always named after its smallest member block, so no fresh-name
allocator exists.
"""

from __future__ import annotations


class CapacityExhausted(Exception):
    """union() called with no union operations left."""


class LocalComponents:
    """Union-find with a union budget, per-component vertex counts, and a
    record of consumption order so two structures fed the same operations
    are indistinguishable, including their dump output."""

    __slots__ = ("capacity", "unions_used", "parent",
                 "_count", "_prim_vertex", "_order")

    def __init__(self, capacity):
        self.capacity = capacity
        self.unions_used = 0
        self.parent = {}         # block -> parent block (roots map to selves)
        self._count = {}         # root -> locally known vertex count
        self._prim_vertex = {}   # block -> vertex it stands for, or None
        self._order = []         # blocks in consumption order

    # -- queries ------------------------------------------------------------

    def relabel(self, b):
        """The local component enclosing b if this structure consumed b,
        else b unchanged: the per-processor relabeling step, and the find of
        a union-find whose unknown blocks are singletons."""
        if b not in self.parent:
            return b
        return self._chase(b)

    find = relabel

    def _chase(self, b):
        parent = self.parent
        root = b
        while parent[root] != root:
            root = parent[root]
        # path compression; never changes which block is the representative
        while parent[b] != root:
            parent[b], b = root, parent[b]
        return root

    def consumed(self, b):
        return b in self.parent

    def arrived_primitive(self, b):
        """True if b was consumed under a label equal to its edge endpoint;
        such a block is counted as one vertex until a size message proves it
        was an upstream component name."""
        return self._prim_vertex.get(b) is not None

    def has_capacity(self):
        return self.unions_used < self.capacity

    # -- mutation -----------------------------------------------------------

    def _consume(self, b, vertex):
        if b not in self.parent:
            self.parent[b] = b
            self._count[b] = 1 if vertex is not None else 0
            self._prim_vertex[b] = vertex
            self._order.append(b)

    def union(self, bx, by, bx_vertex=None, by_vertex=None):
        """Merge the sets containing bx and by; returns the new representative.

        bx_vertex/by_vertex name the graph vertex a block stands for when its
        label arrived primitive (label == endpoint); such blocks count one
        vertex locally. Caller must have checked has_capacity() and that the
        two blocks are in different sets.
        """
        if self.unions_used >= self.capacity:
            raise CapacityExhausted(f"{self.unions_used} unions used of {self.capacity}")
        self._consume(bx, bx_vertex)
        self._consume(by, by_vertex)
        rx = self._chase(bx)
        ry = self._chase(by)
        if rx == ry:
            raise ValueError(f"union of already-joined blocks {bx}, {by}")
        winner, loser = (rx, ry) if rx <= ry else (ry, rx)
        self.parent[loser] = winner
        self._count[winner] = self._count.get(winner, 0) + self._count.pop(loser, 0)
        self.unions_used += 1
        return winner

    def reset(self):
        self.unions_used = 0
        self.parent.clear()
        self._count.clear()
        self._prim_vertex.clear()
        self._order.clear()

    # -- enumeration (dump and query support) --------------------------------

    def relationships(self):
        """(block, representative) pairs for every consumed block that is not
        its own representative, in consumption order. This is exactly what a
        label dump emits for this structure."""
        out = []
        for b in self._order:
            r = self._chase(b)
            if r != b:
                out.append((b, r))
        return out

    def components(self):
        """(representative, locally known vertex count) in first-consumption
        order of the representative's set."""
        seen = set()
        out = []
        for b in self._order:
            r = self._chase(b)
            if r not in seen:
                seen.add(r)
            else:
                continue
            out.append((r, self._count.get(r, 0)))
        return out

    def member_vertices(self):
        """(block, vertex, representative) for blocks whose label arrived
        primitive; the caller filters out blocks later revealed to be
        upstream component names."""
        out = []
        for b in self._order:
            v = self._prim_vertex[b]
            if v is not None:
                out.append((b, v, self._chase(b)))
        return out
