"""Stream file parsing/rendering and synthetic stream generators.

File format is line oriented, whitespace separated:

    E u v        edge arrival
    Q u v        connectivity query
    COUNT        stored-edge count query
    MAX          maximum component size query
    SMALL n      vertices of components with at most n members
    TREE         spanning forest dump
    DUMP         component label dump
    AGE t        bulk deletion, keep edges with timestamp >= t
    AUTOAGE c    arm automatic deletion at survivor fraction c
    .            explicit idle tick
    # ...        comment

Timestamps are assigned at ingestion (the arrival tick), never read from the
file; files carry order, not clocks.
"""

from __future__ import annotations

import random

from .aging import TimestampThreshold
from .model import (
    IDLE,
    Age,
    Arrival,
    AutoAge,
    Connectivity,
    DumpLabels,
    EdgeCount,
    MaxComponent,
    SmallComponents,
    SpanningTree,
)


class ParseError(ValueError):
    def __init__(self, lineno, line, why):
        super().__init__(f"line {lineno}: {why}: {line!r}")
        self.lineno = lineno


def parse_stream_lines(lines):
    items = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        op = fields[0].upper() if fields[0] != "." else "."
        try:
            if op == "E" and len(fields) == 3:
                items.append(Arrival(int(fields[1]), int(fields[2])))
            elif op == "Q" and len(fields) == 3:
                items.append(Connectivity(int(fields[1]), int(fields[2])))
            elif op == "COUNT" and len(fields) == 1:
                items.append(EdgeCount())
            elif op == "MAX" and len(fields) == 1:
                items.append(MaxComponent())
            elif op == "SMALL" and len(fields) == 2:
                items.append(SmallComponents(int(fields[1])))
            elif op == "TREE" and len(fields) == 1:
                items.append(SpanningTree())
            elif op == "DUMP" and len(fields) == 1:
                items.append(DumpLabels())
            elif op == "AGE" and len(fields) == 2:
                items.append(Age(TimestampThreshold(int(fields[1]))))
            elif op == "AUTOAGE" and len(fields) == 2:
                c = float(fields[1])
                if not 0 < c < 1:
                    raise ParseError(lineno, raw.rstrip("\n"), "AUTOAGE c must be in (0, 1)")
                items.append(AutoAge(c))
            elif op == "." and len(fields) == 1:
                items.append(IDLE)
            else:
                raise ParseError(lineno, raw.rstrip("\n"), "unknown record")
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(lineno, raw.rstrip("\n"), "bad number") from exc
    return items


def parse_stream_file(path):
    with open(path) as fh:
        return parse_stream_lines(fh)


def render_items(items):
    return "".join(item.render() + "\n" for item in items)


# ---------------------------------------------------------------------------
# Synthetic generators

def iter_uniform(n, u_target, seed=0, vertices=None):
    """n edges whose realized unique fraction tracks u_target: each slot is a
    fresh never-seen pair with probability u_target, otherwise a repeat of an
    earlier edge. Edges are drawn as they are read; the arguments are checked
    at the call. Raises ValueError when a fresh pair is due and every pair of
    `vertices` has been drawn."""
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    if not (0 < u_target <= 1.0):
        raise ValueError("u_target must be in (0, 1]")
    if vertices is None:
        vertices = max(64, int(2.5 * (n * u_target) ** 0.5) * 4)
    return _draw_uniform(n, u_target, random.Random(seed), vertices)


def _draw_uniform(n, u_target, rng, vertices):
    # every edge at a vertex shares that vertex's one int object, a fresh
    # pair is one tuple (kept by history and yielded), and the seen-set is
    # keyed by one int per pair
    ids = list(range(vertices))
    pairs = vertices * (vertices - 1) // 2
    seen = set()
    history = []
    draw = rng.randrange
    for _ in range(n):
        if not history or rng.random() < u_target:
            if len(seen) >= pairs:
                raise ValueError(f"all {pairs} pairs of {vertices} vertices drawn; "
                                 "no fresh pair is left")
            while True:
                u = ids[draw(vertices)]
                v = ids[draw(vertices)]
                if u == v:
                    continue
                key = u * vertices + v if u < v else v * vertices + u
                if key not in seen:
                    break
            seen.add(key)
            edge = (u, v)
            history.append(edge)
            yield edge
        else:
            yield history[draw(len(history))]


def gen_uniform(n, u_target, seed=0, vertices=None):
    """`iter_uniform` as a list."""
    return list(iter_uniform(n, u_target, seed, vertices))


def gen_repeat_block(n, block=100):
    """Fresh disjoint edges, each observed `block` times contiguously; the
    realized unique fraction is 1/block. Draws nothing, so takes no seed."""
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    if block < 1:
        raise ValueError(f"block={block} must be >= 1")
    out = []
    i = 0
    while len(out) < n:
        u, v = 2 * i, 2 * i + 1
        out.extend((u, v) for _ in range(min(block, n - len(out))))
        i += 1
    return out


def gen_rmat(n, scale=12, corners=(0.45, 0.15, 0.15, 0.25), seed=0):
    """Recursive quadrant sampling over a 2^scale vertex square; heavy-tailed
    degrees with the usual corner weights."""
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    if scale < 1:
        raise ValueError(f"scale={scale} must be >= 1")
    a, b, c, d = corners
    total = a + b + c + d
    a, b, c, d = a / total, b / total, c / total, d / total
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        u = v = 0
        for _ in range(scale):
            r = rng.random()
            u <<= 1
            v <<= 1
            if r < a:
                pass
            elif r < a + b:
                v |= 1
            elif r < a + b + c:
                u |= 1
            else:
                u |= 1
                v |= 1
        out.append((u, v))
    return out


# share of interleaved queries that probe a vertex no edge has touched
UNSEEN_PROB = 0.1


def interleave_queries(edges, every=10, seed=0):
    """Edge arrivals with a connectivity query after every `every` edges,
    probing mostly seen vertices plus, with probability `UNSEEN_PROB`, an
    unseen one."""
    rng = random.Random(seed)
    seen = []
    seen_set = set()
    items = []
    fresh_unseen = -1
    for i, (u, v) in enumerate(edges, start=1):
        items.append(Arrival(u, v))
        for w in (u, v):
            if w not in seen_set:
                seen_set.add(w)
                seen.append(w)
        if i % every == 0:
            if rng.random() < UNSEEN_PROB or not seen:
                a = fresh_unseen
                fresh_unseen -= 1
                b = rng.choice(seen) if seen else a
            else:
                a = rng.choice(seen)
                b = rng.choice(seen)
            items.append(Connectivity(a, b))
    return items
