"""Capacity-bounded union-find over blocks.

Each ring processor owns one LocalComponents structure. Its elements are
"blocks": either a primitive block (one graph vertex) or the name of a
component built upstream. Capacity is measured in union operations, and a
component is always named after its smallest member block, so no fresh-name
allocator exists.

The structure is flat: `sets` maps every consumed block straight to its
component, whose `name` is that smallest member. A block's local name is
therefore one lookup, and hot callers may read it inline:

    c = lc.sets.get(b)
    name = b if c is None else c.name

Nothing else of the representation is part of the contract. A union relinks
the members of the smaller set into the larger one (union by size), so a
block is relinked only into a set at least twice the size of its old one:
n consumed blocks cost at most n log2 n relinks in all.
"""

from __future__ import annotations


class CapacityExhausted(Exception):
    """union() called with no union operations left."""


class Component:
    """One local set: its name (smallest member block), its member blocks in
    the order they joined, and its locally known vertex count."""

    __slots__ = ("name", "members", "count")

    def __init__(self, name, members, count):
        self.name = name
        self.members = members
        self.count = count


class LocalComponents:
    """Union-find with a union budget, per-component vertex counts, and a
    record of consumption order so two structures fed the same operations
    are indistinguishable, including their dump output."""

    __slots__ = ("capacity", "unions_used", "sets", "_prim_vertex")

    def __init__(self, capacity):
        self.capacity = capacity
        self.unions_used = 0
        # block -> its Component; keys in consumption order, because a
        # relink only rebinds a key that is already there
        self.sets = {}
        # block -> vertex it stands for, for blocks consumed primitive, in
        # consumption order
        self._prim_vertex = {}

    # -- queries ------------------------------------------------------------

    def relabel(self, b):
        """The local component enclosing b if this structure consumed b,
        else b unchanged: the per-processor relabeling step, and the find of
        a union-find whose unknown blocks are singletons."""
        c = self.sets.get(b)
        return b if c is None else c.name

    find = relabel

    def consumed(self, b):
        return b in self.sets

    def arrived_primitive(self, b):
        """True if b was consumed under a label equal to its edge endpoint;
        such a block is counted as one vertex until a size message proves it
        was an upstream component name."""
        return self._prim_vertex.get(b) is not None

    def has_capacity(self):
        return self.unions_used < self.capacity

    # -- mutation -----------------------------------------------------------

    def union(self, bx, by, bx_vertex=None, by_vertex=None):
        """Merge the sets containing bx and by; returns the new representative.

        bx_vertex/by_vertex name the graph vertex a block stands for when its
        label arrived primitive (label == endpoint); such blocks count one
        vertex locally. Caller must have checked has_capacity() and that the
        two blocks are in different sets.
        """
        if self.unions_used >= self.capacity:
            raise CapacityExhausted(f"{self.unions_used} unions used of {self.capacity}")
        sets = self.sets
        cx = sets.get(bx)
        cy = sets.get(by)
        if cx is None and cy is None:
            if bx == by:
                raise ValueError(f"union of already-joined blocks {bx}, {by}")
            c = Component(bx if bx <= by else by, [bx, by],
                          (bx_vertex is not None) + (by_vertex is not None))
            sets[bx] = c
            sets[by] = c
            if bx_vertex is not None:
                self._prim_vertex[bx] = bx_vertex
            if by_vertex is not None:
                self._prim_vertex[by] = by_vertex
        elif cx is None or cy is None:
            # one fresh block joins the other's set
            if cx is None:
                c, b, vertex = cy, bx, bx_vertex
            else:
                c, b, vertex = cx, by, by_vertex
            c.members.append(b)
            sets[b] = c
            if vertex is not None:
                c.count += 1
                self._prim_vertex[b] = vertex
            if b < c.name:
                c.name = b
        else:
            if cx is cy:
                raise ValueError(f"union of already-joined blocks {bx}, {by}")
            c, small = (cx, cy) if len(cx.members) >= len(cy.members) else (cy, cx)
            for b in small.members:
                sets[b] = c
            c.members += small.members
            c.count += small.count
            if small.name < c.name:
                c.name = small.name
        self.unions_used += 1
        return c.name

    def reset(self):
        self.unions_used = 0
        self.sets.clear()
        self._prim_vertex.clear()

    # -- enumeration (dump and query support) --------------------------------

    def relationships(self):
        """(block, representative) pairs for every consumed block that is not
        its own representative, in consumption order. This is exactly what a
        label dump emits for this structure."""
        return [(b, c.name) for b, c in self.sets.items() if c.name != b]

    def components(self):
        """(representative, locally known vertex count) in first-consumption
        order of the representative's set."""
        seen = set()
        out = []
        for c in self.sets.values():
            if c not in seen:
                seen.add(c)
                out.append((c.name, c.count))
        return out

    def member_vertices(self):
        """(block, vertex, representative) for blocks whose label arrived
        primitive; the caller filters out blocks later revealed to be
        upstream component names."""
        sets = self.sets
        return [(b, v, sets[b].name) for b, v in self._prim_vertex.items()]

    # -- audit ----------------------------------------------------------------

    def audit(self):
        """(kind, detail) for each broken invariant: the component counts
        must sum to the number of blocks consumed primitive
        ("count-conservation"), and every consumed block's name must itself
        be a block consumed here ("nesting")."""
        found = []
        prim = len(self._prim_vertex)
        total = sum(count for _, count in self.components())
        if prim != total:
            found.append(("count-conservation",
                          f"component counts sum {total}, primitives {prim}"))
        sets = self.sets
        for b, c in sets.items():
            if c.name not in sets:
                found.append(("nesting", f"block {b} resolves outside this processor"))
        return found
