import random

import pytest

from ringcc.multipass import (
    labeling_from_pairs,
    multipass_labels,
    partition,
    run_multipass,
    run_pass,
    static_cc,
)


def as5(edges):
    return [(u, u, v, v, i) for i, (u, v) in enumerate(edges)]


def test_first_pass_contraction_example():
    # capacity four: the pass ingests five edges (one redundant), drops the
    # redundant one, relabels the remainder, and buries f, g, h, k
    edges = as5([("e", "f"), ("f", "g"), ("e", "g"), ("b", "h"), ("j", "k"),
                 ("c", "g"), ("a", "c")])
    ps = run_pass(4, edges, [])
    burials = dict(ps.labels)
    assert burials == {"f": "e", "g": "e", "h": "b", "k": "j"}
    # (c, g) survives relabeled to (c, e); (a, c) survives untouched
    assert [(e[0], e[1], e[2], e[3]) for e in ps.edges] == \
        [("c", "c", "g", "e"), ("a", "a", "c", "c")]


def test_empty_input():
    ps = run_pass(4, [], [])
    assert ps.edges == [] and ps.labels == []
    passes = run_multipass(4, [])
    assert len(passes) == 1
    assert passes[0].edges == [] and passes[0].labels == []


def test_capacity_below_one_is_refused_at_the_call():
    # no pass could union anything, so the loop would only run out of passes
    for capacity in (0, -1):
        with pytest.raises(ValueError, match="capacity"):
            run_multipass(capacity, [(1, 2)])
        with pytest.raises(ValueError, match="capacity"):
            multipass_labels(capacity, [])


def test_pass_preserves_components():
    rng = random.Random(5)
    for trial in range(25):
        edges = [(rng.randrange(10), rng.randrange(10)) for _ in range(20)]
        ps = run_pass(3, as5(edges), [])
        # survivors (by original endpoints) plus burial pairs must reconnect
        # exactly the input's components
        combined = [(e[0], e[2]) for e in ps.edges] + list(ps.labels)
        vertices = {x for e in edges for x in e}
        ref = static_cc([e for e in edges])
        mine = static_cc(combined + [(v, v) for v in vertices])
        assert partition({v: mine[v] for v in vertices}) == partition(ref)


def test_single_edge():
    labels = multipass_labels(4, [(7, 3)])
    assert labels == {7: 3, 3: 3}  # min naming keeps the smaller endpoint


def test_disjoint_edges_get_distinct_labels():
    labels = multipass_labels(4, [(1, 2), (3, 4)])
    assert labels[1] == labels[2]
    assert labels[3] == labels[4]
    assert labels[1] != labels[3]


def test_random_graph_matches_static_oracle():
    rng = random.Random(17)
    edges = [(rng.randrange(60), rng.randrange(60)) for _ in range(500)]
    labels = multipass_labels(7, edges)
    assert partition(labels) == partition(static_cc(edges))


def test_permutation_and_duplication_invariance():
    rng = random.Random(23)
    base = [(rng.randrange(40), rng.randrange(40)) for _ in range(120)]
    want = partition(static_cc(base))
    for trial in range(10):
        stream = list(base)
        # arbitrary duplication then an arbitrary permutation
        stream += [rng.choice(base) for _ in range(rng.randrange(0, 80))]
        rng.shuffle(stream)
        assert partition(multipass_labels(5, stream)) == want


def test_burial_pairs_form_stars():
    # per-pass relabeling keeps the label stream flat: nothing buried in one
    # pass ever names another burial in the same stream
    rng = random.Random(19)
    edges = [(rng.randrange(25), rng.randrange(25)) for _ in range(200)]
    for ps in run_multipass(4, edges):
        firsts = {b for b, _ in ps.labels}
        seconds = {x for _, x in ps.labels}
        assert not (firsts & seconds)


def test_pass_count_terminates_within_vertex_bound():
    rng = random.Random(29)
    edges = [(rng.randrange(30), rng.randrange(30)) for _ in range(300)]
    passes = run_multipass(3, edges)
    assert len(passes) <= 30 + 2


def test_labeling_default_self():
    labels = labeling_from_pairs([(1, 2)], [1, 2, 9])
    assert labels == {1: 2, 2: 2, 9: 9}


def test_static_cc_basics():
    assert static_cc([]) == {}
    tri = static_cc([(1, 2), (2, 3), (3, 1)])
    assert len(set(tri.values())) == 1
    path = static_cc([(i, i + 1) for i in range(99)])
    assert set(path.values()) == {0}
