"""Reference algorithms used by the test suite.

run_multipass is the classic multi-pass contraction algorithm for connected
components on a finite stream: each pass unions edges until its budget is
spent, then relabels and re-emits the remainder (part A of the next stream)
followed by the burial pairs describing its own union-find sets (part B).
The ring simulator reproduces these intermediate streams hop for hop, which
is what the equivalence tests check.

static_cc is the unlimited-capacity oracle everything else is compared to.
"""

from __future__ import annotations

from .unionfind import LocalComponents


class PassStreams:
    """Output of one contraction pass: surviving relabeled edges and the
    cumulative burial pairs."""

    __slots__ = ("edges", "labels")

    def __init__(self, edges, labels):
        self.edges = edges
        self.labels = labels


def run_pass(capacity, edges_in, labels_in):
    """One pass: union a prefix of the edge stream (skipping edges already
    inside one component), relabel and emit the rest, then relabel incoming
    burial pairs and append this pass's own union-find relationships.

    Edges are 5-tuples (u, lu, v, lv, t); labels are (block, name) pairs.
    """
    lc = LocalComponents(capacity)
    out_edges = []
    for (u, lu, v, lv, t) in edges_in:
        lu2 = lc.relabel(lu)
        lv2 = lc.relabel(lv)
        if lu2 == lv2:
            continue  # buried inside one supernode (or a self-loop): dropped
        if lc.has_capacity():
            lc.union(lu2, lv2,
                     bx_vertex=u if lu2 == u else None,
                     by_vertex=v if lv2 == v else None)
        else:
            out_edges.append((u, lu2, v, lv2, t))
    out_labels = [(b, lc.relabel(name)) for (b, name) in labels_in]
    out_labels.extend(lc.relationships())
    return PassStreams(out_edges, out_labels)


def run_multipass(capacity, arrivals=(), max_passes=None):
    """Iterate run_pass until the edge stream empties; returns the per-pass
    streams (index 0 holds the first pass's output).

    arrivals may be (u, v) pairs or full 5-tuples; pairs get primitive labels
    and their position as timestamp. A capacity below 1 never unions, so it
    is refused at the call.
    """
    if capacity < 1:
        raise ValueError(f"capacity={capacity} must be >= 1")
    edges = []
    for i, a in enumerate(arrivals):
        if len(a) == 2:
            u, v = a
            edges.append((u, u, v, v, i))
        else:
            edges.append(tuple(a))
    if max_passes is None:
        vertices = {e[0] for e in edges} | {e[2] for e in edges}
        max_passes = max(4, len(vertices) + 2)
    passes = []
    labels = []
    while edges:
        if len(passes) >= max_passes:
            raise RuntimeError(f"no convergence after {max_passes} passes")
        ps = run_pass(capacity, edges, labels)
        passes.append(ps)
        edges, labels = ps.edges, ps.labels
    if not passes:
        passes.append(PassStreams([], []))
    return passes


def labeling_from_pairs(pairs, vertices):
    """Flatten burial pairs into a per-vertex labeling; a vertex with no pair
    (a surviving representative, or an isolated self-loop endpoint) labels
    itself."""
    mapping = dict(pairs)
    out = {}
    for v in vertices:
        name = v
        hops = 0
        while name in mapping and mapping[name] != name:
            name = mapping[name]
            hops += 1
            if hops > len(mapping) + 1:
                raise RuntimeError("cycle in burial pairs")
        out[v] = name
    return out


def multipass_labels(capacity, arrivals=()):
    """End-to-end reference: component label per vertex of the input."""
    passes = run_multipass(capacity, arrivals)
    vertices = set()
    for a in arrivals:
        if len(a) == 2:
            u, v = a
        else:
            u, v = a[0], a[2]
        vertices.add(u)
        vertices.add(v)
    return labeling_from_pairs(passes[-1].labels, vertices)


def static_cc(edges):
    """Unlimited-capacity connected components; labels are the minimum vertex
    id of each component. The independent oracle for everything else."""
    parent = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for e in edges:
        u, v = (e[0], e[1]) if len(e) == 2 else (e[0], e[2])
        if u not in parent:
            parent[u] = u
        if v not in parent:
            parent[v] = v
        ru, rv = find(u), find(v)
        if ru != rv:
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
    return {v: find(v) for v in parent}


def partition(labeling):
    """Group a labeling into a comparable set of frozensets."""
    groups = {}
    for v, name in labeling.items():
        groups.setdefault(name, set()).add(v)
    return {frozenset(g) for g in groups.values()}
