import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ringcc

from ringcc.model import (
    Age,
    Arrival,
    AutoAge,
    Connectivity,
    DumpLabels,
    EdgeCount,
    Idle,
    MaxComponent,
    SmallComponents,
    SpanningTree,
)
from ringcc.streams import (
    ParseError,
    gen_repeat_block,
    gen_rmat,
    gen_uniform,
    interleave_queries,
    iter_uniform,
    parse_stream_lines,
    render_items,
)


def test_parse_single_records():
    items = parse_stream_lines([
        "E 1 2", "Q 1 2", "COUNT", "MAX", "SMALL 5", "TREE", "DUMP",
        "AGE 500", "AUTOAGE 0.5", ".", "# a comment", "",
    ])
    kinds = [type(it) for it in items]
    assert kinds == [Arrival, Connectivity, EdgeCount, MaxComponent,
                     SmallComponents, SpanningTree, DumpLabels, Age,
                     AutoAge, Idle]
    assert (items[0].u, items[0].v) == (1, 2)
    assert items[4].limit == 5
    assert items[7].predicate.threshold == 500
    assert items[8].target_c == 0.5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_stream_lines(["E 1 2", "WHAT 3"])
    assert exc.value.lineno == 2
    with pytest.raises(ParseError) as exc:
        parse_stream_lines(["E one 2"])
    assert exc.value.lineno == 1


@pytest.mark.parametrize("c", ["2.0", "1", "0", "-0.5", "nan"])
def test_parse_refuses_autoage_outside_the_open_unit_interval(c):
    with pytest.raises(ParseError, match="AUTOAGE c must be in") as exc:
        parse_stream_lines(["E 1 2", f"AUTOAGE {c}"])
    assert exc.value.lineno == 2


def test_round_trip():
    lines = ["E 1 2", "Q 3 4", "COUNT", "MAX", "SMALL 7", "TREE", "DUMP",
             "AGE 12", "AUTOAGE 0.25", "."]
    items = parse_stream_lines(lines)
    assert render_items(items).splitlines() == lines
    assert [type(i) for i in parse_stream_lines(render_items(items).splitlines())] \
        == [type(i) for i in items]


def test_repeat_block_uniqueness():
    edges = gen_repeat_block(5000, block=100)
    unique = {(min(u, v), max(u, v)) for u, v in edges}
    assert len(unique) / len(edges) == pytest.approx(0.01)
    # contiguity: each run of 100 shares one endpoint pair
    assert edges[0] == edges[99]
    assert edges[100] != edges[99]


def test_uniform_hits_unique_fraction():
    edges = gen_uniform(100_000, 0.67, seed=3)
    unique = {(min(u, v), max(u, v)) for u, v in edges}
    realized = len(unique) / len(edges)
    assert abs(realized - 0.67) <= 0.02


def test_uniform_rejects_bad_target():
    with pytest.raises(ValueError):
        gen_uniform(10, 0.0)
    with pytest.raises(ValueError):
        iter_uniform(10, 1.5)  # at the call, before anything is drawn


@pytest.mark.parametrize("gen, args, message", [
    (iter_uniform, (-5, 0.67), "n=-5 must be >= 0"),
    (gen_repeat_block, (-3,), "n=-3 must be >= 0"),
    (gen_rmat, (-3,), "n=-3 must be >= 0"),
    (gen_rmat, (10, 0), "scale=0 must be >= 1"),
    (gen_rmat, (10, -2), "scale=-2 must be >= 1"),
], ids=["uniform-n", "repeat-n", "rmat-n", "rmat-scale0", "rmat-scale-2"])
def test_generators_refuse_sizes_they_cannot_honour(gen, args, message):
    # a negative count once took the square root of a negative number or
    # wrote nothing, and an R-MAT square below 2x2 wrote only self-loops on 0
    with pytest.raises(ValueError) as raised:
        gen(*args)
    assert str(raised.value) == message


# SHA-256 of repr(gen_uniform(*args)), pinned: how the generator keeps what
# it has drawn must not change what it draws (the bench's two streams, a
# larger one, an explicit vertex count)
UNIFORM_DIGESTS = {
    (150_000, 1.0, 1): "c9a55b6c4c1fb7f59b371f6f942789ef36cdd7fe40926b80146a112cb4774397",
    (100_000, 0.67, 1): "91dab68ada248c2429fd73721691c5105db7aa712276c38a7632f4d305a118ee",
    (300_000, 0.5, 7): "fe06f25702320ab0aa59fb9edf001f98acfad179be0d3c420552317340b9b7ee",
    (1000, 1.0, 2, 50): "e93bf9b50f6661603451567c4b73a3a07cf1547f4143233906f998d6416c83dc",
}


@pytest.mark.parametrize("args", list(UNIFORM_DIGESTS),
                         ids=lambda args: "-".join(map(str, args)))
def test_uniform_streams_are_pinned(args):
    edges = gen_uniform(*args)
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == UNIFORM_DIGESTS[args]
    assert list(iter_uniform(*args)) == edges


def test_uniform_memory_budget():
    # one int object per vertex and one int per seen pair: measured at
    # 65 B/edge kept and 133 B/edge at peak
    n = 150_000
    gc.collect()
    tracemalloc.start()
    try:
        edges = gen_uniform(n, 1.0, 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == n
    assert peak / n <= 160, f"peak {peak / n:.1f} B/edge"
    assert kept / n <= 80, f"kept {kept / n:.1f} B/edge"


def test_uniform_draws_every_pair_then_refuses():
    edges = gen_uniform(21, 1.0, 0, vertices=7)
    assert len({(min(u, v), max(u, v)) for u, v in edges}) == 21
    # past the last fresh pair the generator must raise, not draw forever; a
    # separate interpreter turns a hang into a timeout, not a stuck suite
    code = ("from ringcc.streams import gen_uniform\n"
            "for args in ((2000, 0.3, 1, 7), (10, 1.0, 0, 1)):\n"
            "    try:\n"
            "        gen_uniform(*args)\n"
            "    except ValueError as exc:\n"
            "        print('refused:', exc)\n")
    src = str(Path(ringcc.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "refused: all 21 pairs of 7 vertices drawn; no fresh pair is left",
        "refused: all 0 pairs of 1 vertices drawn; no fresh pair is left",
    ]


def test_interleaved_queries_are_pinned_and_take_no_unread_argument():
    items = interleave_queries(gen_uniform(2000, 0.67, seed=3), every=7, seed=3)
    assert (hashlib.sha256(render_items(items).encode()).hexdigest()
            == "5908354a0725d69b3616bae021f7e5432f815a3cb76a07ccf9b8a1f44235546d")
    # the vertex pool was accepted and never read; it is refused now
    with pytest.raises(TypeError):
        interleave_queries([(0, 1)], vertex_pool=[0, 1])


def degree_tail_ratio(edges):
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    mean = sum(degree.values()) / len(degree)
    return max(degree.values()) / mean


def test_rmat_is_heavy_tailed():
    # the hub-to-mean ratio grows with recursion depth: measured at 7-10x
    # for 2^12 vertices and solidly past 10x at 2^14
    edges = gen_rmat(20_000, scale=12, seed=5)
    assert all(0 <= u < 4096 and 0 <= v < 4096 for u, v in edges)
    assert degree_tail_ratio(edges) > 6
    assert degree_tail_ratio(gen_rmat(40_000, scale=14, seed=5)) > 10
