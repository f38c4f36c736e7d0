import pytest

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
