import random

from ringcc.model import Bundle, EMPTY_BUNDLE, LabeledEdge, canonical_key


def test_key_symmetry():
    assert canonical_key(7, 3) == canonical_key(3, 7)


def test_key_self_loop():
    assert canonical_key(5, 5) == (5, 5)


def test_keys_collide_exactly_on_endpoint_sets():
    rng = random.Random(42)
    pairs = [(rng.randrange(50), rng.randrange(50)) for _ in range(1000)]
    for a in pairs[:60]:
        for b in pairs[:60]:
            same_set = {a[0], a[1]} == {b[0], b[1]}
            assert (canonical_key(*a) == canonical_key(*b)) == same_set
    # spot-check the rest against the set-equality oracle
    for a, b in zip(pairs, reversed(pairs)):
        same_set = {a[0], a[1]} == {b[0], b[1]}
        assert (canonical_key(*a) == canonical_key(*b)) == same_set


def test_edge_starts_with_primitive_labels():
    e = LabeledEdge(4, 9, t=17)
    assert (e.lu, e.lv) == (4, 9)
    assert e.key() == (4, 9)
    e.lu = 100
    e.lv = 100
    assert e.key() == (4, 9)  # identity never follows the labels
    e.reset_labels()
    assert (e.lu, e.lv) == (4, 9)


def test_edge_snapshot_has_the_five_wire_fields():
    e = LabeledEdge(9, 4, t=17)
    assert e.snapshot() == (9, 9, 4, 4, 17)
    # the five wire fields plus the canonical key, a cache derived from u, v
    assert LabeledEdge.__slots__ == ("u", "v", "lu", "lv", "t", "ck")
    assert e.key() == e.ck == canonical_key(9, 4)
    e.lu = e.lv = 100
    assert e.key() == canonical_key(9, 4)
    e.reset_labels()
    assert e.key() == canonical_key(9, 4)


def test_bundle_occupancy():
    assert EMPTY_BUNDLE.is_empty()
    b = Bundle(LabeledEdge(1, 2), [LabeledEdge(3, 4)])
    assert b.occupied() == 2
    assert Bundle(None, [LabeledEdge(3, 4)]).occupied() == 1
    assert not b.is_empty()
