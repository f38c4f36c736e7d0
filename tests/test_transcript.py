"""The transcript keeps one tick and one reference per record and renders
only when read. The rendering is pinned to literal output, what recorded
inputs cost to a fixed budget, and objects that are not stream items to the
tick they are submitted at."""

import gc
import tracemalloc

import pytest

from ringcc.model import IDLE, Arrival, Connectivity
from ringcc.ring import Ring, RingConfig, Transcript
from ringcc.streams import gen_uniform, interleave_queries, parse_stream_lines

# Every IN kind, an idle and a deferred tick and the arrival that rides with
# the deletion start at tick 9 included; every OUT tag; EVT records.
STREAM = """
E 1 5; E 7 2; E 5 4; E 3 1; AGE 0; E 7 7; E 0 0; AGE 0; E 0 2; E 0 7; .; .; .; .; .;
Q 1 4; COUNT; MAX; .; .; TREE; .; .; .; DUMP; MAX; .; .; DUMP; AGE 9; Q 0 2;
.; .; .; .; .; SMALL 2; .; .; .; AGE 1000; .; .; AUTOAGE 0.5
"""

TEXT = """\
0 IN E 1 5
1 IN E 7 2
2 IN E 5 4
3 IN E 3 1
4 IN AGE 0
4 EVT aging started
5 EVT aging token completed its circuit
5 IN E 7 7
6 IN E 0 0
7 EVT aging complete; queries re-enabled
7 IN .
7 EVT input backlog 1
8 IN E 0 2
9 IN AGE 0
9 EVT aging started
9 IN E 0 7
9 EVT input backlog 0
10 EVT aging token completed its circuit
10 IN .
11 EVT input deferred: returning edge takes the primary slot
11 IN (deferred)
12 IN .
13 EVT aging complete; queries re-enabled
13 IN .
14 IN .
15 IN Q 1 4
16 OUT q0 true
16 IN COUNT
17 OUT q1 8
17 IN MAX
18 IN .
19 OUT q2 4
19 IN .
20 IN TREE
21 OUT q3 edge 0 7
21 OUT q3 edge 1 5
21 IN .
22 OUT q3 edge 7 2
22 OUT q3 edge 5 4
22 IN .
23 OUT q3 edge 3 1
23 OUT q3 done
23 IN .
24 IN DUMP
25 OUT q4 label 7 0
25 OUT q4 label 5 1
25 IN MAX
25 OUT q5 busy
26 OUT q4 label 2 0
26 OUT q4 label 4 1
26 IN .
27 OUT q4 label 3 1
27 OUT q4 done
27 IN .
28 IN DUMP
29 OUT q6 label 7 0
29 OUT q6 label 5 1
29 IN AGE 9
29 OUT q6 aborted
29 EVT aging started
30 EVT aging token completed its circuit
30 IN Q 0 2
30 OUT q7 busy
31 IN .
32 IN .
33 IN .
34 EVT aging complete; queries re-enabled
34 IN .
35 IN .
36 IN SMALL 2
37 IN .
38 OUT q8 member 0 0
38 OUT q8 member 0 7
38 IN .
39 OUT q8 done
39 IN .
40 IN AGE 1000
40 EVT aging started
41 EVT aging token completed its circuit
41 EVT aging complete; queries re-enabled
41 IN .
42 IN .
43 IN AUTOAGE 0.5
44 IN .
"""

EVENTS = [
    ('IN', 0, 'E 1 5'), ('IN', 1, 'E 7 2'), ('IN', 2, 'E 5 4'), ('IN', 3, 'E 3 1'),
    ('IN', 4, 'AGE 0'), ('EVT', 4, 'aging started'),
    ('EVT', 5, 'aging token completed its circuit'), ('IN', 5, 'E 7 7'),
    ('IN', 6, 'E 0 0'), ('EVT', 7, 'aging complete; queries re-enabled'),
    ('IN', 7, '.'), ('EVT', 7, 'input backlog 1'), ('IN', 8, 'E 0 2'),
    ('IN', 9, 'AGE 0'), ('EVT', 9, 'aging started'), ('IN', 9, 'E 0 7'),
    ('EVT', 9, 'input backlog 0'), ('EVT', 10, 'aging token completed its circuit'),
    ('IN', 10, '.'),
    ('EVT', 11, 'input deferred: returning edge takes the primary slot'),
    ('IN', 11, '(deferred)'), ('IN', 12, '.'),
    ('EVT', 13, 'aging complete; queries re-enabled'), ('IN', 13, '.'), ('IN', 14, '.'),
    ('IN', 15, 'Q 1 4'), ('OUT', 16, 0, 'answer', True), ('IN', 16, 'COUNT'),
    ('OUT', 17, 1, 'count', 8), ('IN', 17, 'MAX'), ('IN', 18, '.'),
    ('OUT', 19, 2, 'max', 4), ('IN', 19, '.'), ('IN', 20, 'TREE'),
    ('OUT', 21, 3, 'tree-edge', 0, 7), ('OUT', 21, 3, 'tree-edge', 1, 5),
    ('IN', 21, '.'), ('OUT', 22, 3, 'tree-edge', 7, 2),
    ('OUT', 22, 3, 'tree-edge', 5, 4), ('IN', 22, '.'),
    ('OUT', 23, 3, 'tree-edge', 3, 1), ('OUT', 23, 3, 'done'), ('IN', 23, '.'),
    ('IN', 24, 'DUMP'), ('OUT', 25, 4, 'dump', 7, 0), ('OUT', 25, 4, 'dump', 5, 1),
    ('IN', 25, 'MAX'), ('OUT', 25, 5, 'busy'), ('OUT', 26, 4, 'dump', 2, 0),
    ('OUT', 26, 4, 'dump', 4, 1), ('IN', 26, '.'), ('OUT', 27, 4, 'dump', 3, 1),
    ('OUT', 27, 4, 'done'), ('IN', 27, '.'), ('IN', 28, 'DUMP'),
    ('OUT', 29, 6, 'dump', 7, 0), ('OUT', 29, 6, 'dump', 5, 1), ('IN', 29, 'AGE 9'),
    ('OUT', 29, 6, 'aborted'), ('EVT', 29, 'aging started'),
    ('EVT', 30, 'aging token completed its circuit'), ('IN', 30, 'Q 0 2'),
    ('OUT', 30, 7, 'busy'), ('IN', 31, '.'), ('IN', 32, '.'), ('IN', 33, '.'),
    ('EVT', 34, 'aging complete; queries re-enabled'), ('IN', 34, '.'), ('IN', 35, '.'),
    ('IN', 36, 'SMALL 2'), ('IN', 37, '.'), ('OUT', 38, 8, 'member', 0, 0),
    ('OUT', 38, 8, 'member', 0, 7), ('IN', 38, '.'), ('OUT', 39, 8, 'done'),
    ('IN', 39, '.'), ('IN', 40, 'AGE 1000'), ('EVT', 40, 'aging started'),
    ('EVT', 41, 'aging token completed its circuit'),
    ('EVT', 41, 'aging complete; queries re-enabled'), ('IN', 41, '.'), ('IN', 42, '.'),
    ('IN', 43, 'AUTOAGE 0.5'), ('IN', 44, '.'),
]


def golden_transcript():
    ring = Ring(RingConfig(p=1, s=8, k=3))
    return ring.run_stream(parse_stream_lines(STREAM.split(";")))


def test_rendering_matches_the_golden_transcript():
    ts = golden_transcript()
    assert ts.text() == TEXT
    assert ts.events == EVENTS
    assert ts.text() == "\n".join(ts.lines()) + "\n"
    assert ts.outputs() == [e for e in EVENTS if e[0] == "OUT"]
    assert ts.outputs("busy") == [e for e in EVENTS if e[0] == "OUT" and e[3] == "busy"]
    assert ts.lines(inputs=False) == [
        line for line, e in zip(ts.lines(), EVENTS) if e[0] != "IN"]


def test_an_empty_transcript_renders_one_newline():
    ts = Transcript()
    assert ts.events == [] and ts.lines() == []
    assert ts.text() == "\n" == "\n".join(ts.lines()) + "\n"


def test_text_joins_its_chunks_like_the_lines():
    ts = Transcript()
    for t in range(10_001):
        ts.record_in(t, IDLE if t % 3 else Arrival(t, t + 1))
        if t % 7 == 0:
            ts.record_out(t, t, "answer", t % 2 == 0)
    assert ts.text() == "\n".join(ts.lines()) + "\n"


def test_lines_without_inputs_select_records_by_kind():
    ts = Transcript()
    ts.record_in(0, Connectivity(1, 2))
    ts.record_evt(0, "an event that says IN on its line")
    ts.record_out(1, 0, "answer", True)
    assert ts.lines(inputs=False) == [
        "0 EVT an event that says IN on its line", "1 OUT q0 true"]


def test_recorded_inputs_cost_a_fixed_budget_per_tick():
    """An IN record is one tick in an array and one reference to the item
    the caller already holds: at most 24 bytes a tick, traced."""
    items = interleave_queries(gen_uniform(20_000, 0.67, seed=5), every=10, seed=5)

    def traced(record_inputs):
        gc.collect()
        tracemalloc.start()
        try:
            ring = Ring(RingConfig(p=4, s=10_000, k=5, record_inputs=record_inputs))
            ring.run_stream(items)
            return tracemalloc.get_traced_memory()[0], ring.t
        finally:
            tracemalloc.stop()

    with_inputs, ticks = traced(True)
    without, _ = traced(False)
    assert ticks >= len(items)
    assert (with_inputs - without) / ticks <= 24


class Opaque:
    """Submitted like a stream item, but it has no render()."""

    def __repr__(self):
        return "Opaque()"


class Labelled:
    """Not a stream item; renders its current label."""

    def __init__(self, label):
        self.label = label

    def render(self):
        return self.label

    def __repr__(self):
        return f"Labelled({self.label!r})"


def test_an_object_that_cannot_render_fails_at_its_own_tick():
    ring = Ring(RingConfig(p=2, s=10, k=3))
    ring.tick(Arrival(1, 2))
    with pytest.raises(AttributeError, match="render"):
        ring.tick(Opaque())
    assert ring.t == 1
    assert ring.transcript.text() == "0 IN E 1 2\n"


def test_an_unrecognized_item_is_reported_and_rendered_at_its_tick():
    odd = Labelled("ODD")
    ring = Ring(RingConfig(p=2, s=10, k=3))
    ring.run_stream([Arrival(1, 2), odd, Arrival(2, 3)])
    odd.label = "CHANGED"
    assert ring.transcript.events[1:3] == [
        ("IN", 1, "ODD"), ("EVT", 1, "unrecognized stream item Labelled('ODD')")]


def test_an_unrendered_object_is_still_reported_without_recorded_inputs():
    ring = Ring(RingConfig(p=2, s=10, k=3, record_inputs=False))
    ring.run_stream([Arrival(1, 2), Opaque()])
    assert ring.transcript.events == [("EVT", 1, "unrecognized stream item Opaque()")]
