"""Differential test: projection and composition on split bitmasks against
the label-set code they replaced.

The reference below turns every split into the set of its labels, restricts
or grafts those sets, and turns them back into masks over the new label
order.  Labels mix ints and strings, so that the `_labelkey` order (all ints
before all strings) differs from the order of the labels as written.  The
hash tests check that equal trees built by different routes hash alike.
"""

import itertools
import json

import pytest

from dessins.strata import (
    LabelCollision,
    StableSTree,
    admissible_projection,
    compose_strata,
    contract_edge,
    enumerate_strata,
    s_corolla,
    s_tree,
    stratum,
    stratum_from_json,
    stratum_to_json,
)

MIXED = (1, 2, 3, "a", "b", "c")


def flat(labels):
    return [s for group in enumerate_strata(labels).values() for s in group]


# --- reference: splits as label sets --------------------------------------------

def _labelkey(x):
    return (type(x).__name__, x)


def ref_mask(order, side):
    bits = sum(1 << i for i, lab in enumerate(order) if lab in side)
    return bits ^ ((1 << len(order)) - 1) if bits & 1 else bits


def ref_side(order, mask):
    return frozenset(lab for i, lab in enumerate(order) if mask >> i & 1)


def ref_project(t, target):
    order = tuple(lab for lab in t.order if lab in target)
    splits = {ref_mask(order, ref_side(t.order, m)) for m in t.splits}
    return order, tuple(sorted(m for m in splits if 2 <= m.bit_count() <= len(order) - 2))


def ref_compose(t1, label1, t2, label2):
    rest1, rest2 = set(t1.order) - {label1}, set(t2.order) - {label2}
    if rest1 & rest2:
        raise LabelCollision(sorted(rest1 & rest2, key=_labelkey))
    order = tuple(sorted(rest1 | rest2, key=_labelkey))
    sides = [rest2]
    for t, site, other in ((t1, label1, rest2), (t2, label2, rest1)):
        for side in (ref_side(t.order, m) for m in t.splits):
            sides.append(side - {site} | other if site in side else side)
    return order, tuple(sorted({ref_mask(order, side) for side in sides}))


# --- checks ----------------------------------------------------------------------

def test_projection_matches_label_sets_on_every_target_over_mixed_labels():
    cases = 0
    for s in flat(MIXED):
        for k in range(3, len(MIXED) + 1):
            for target in itertools.combinations(MIXED, k):
                got = admissible_projection(s, target).tree
                assert (got.order, got.splits) == ref_project(s.tree, set(target))
                cases += 1
    assert cases == 236 * (20 + 15 + 6 + 1)


def test_composition_matches_label_sets_at_every_pair_of_sites():
    # the label sets share "z", so only sites that graft at "z" on one side
    # leave disjoint remainders; every other pair collides
    left, right = flat((2, "a", 5, "z", "c")), flat(("z", 1, "b", 3, "d"))
    made = collided = 0
    for s1, s2 in itertools.product(left, right):
        for label1, label2 in itertools.product(s1.tree.order, s2.tree.order):
            try:
                want = ref_compose(s1.tree, label1, s2.tree, label2)
            except LabelCollision:
                with pytest.raises(LabelCollision):
                    compose_strata(s1, label1, s2, label2)
                collided += 1
                continue
            got = compose_strata(s1, label1, s2, label2).tree
            assert (got.order, got.splits) == want
            assert got.labels == set(s1.tree.order) - {label1} | set(s2.tree.order) - {label2}
            made += 1
    assert made + collided == 26 * 26 * 25 and made == 26 * 26 * 9


def test_equal_trees_from_every_route_hash_alike():
    by_tree = {s.tree: s for s in flat(MIXED)}
    assert len(by_tree) == 236
    routes = 0
    for t in list(by_tree):
        again = s_tree(t.graph, t.tail_labels)
        via_json = stratum_from_json(json.loads(json.dumps(stratum_to_json(stratum(t))))).tree
        for other in (again, via_json):
            assert other == t and hash(other) == hash(t) and by_tree[other].tree is t
            routes += 1
        for e in t.graph.edges:
            up = contract_edge(t, e)
            assert by_tree[up].tree == up and hash(by_tree[up].tree) == hash(up)
            routes += 1
    # grafting a corolla at the tail "x" of every tree over five labels gives
    # trees over the six mixed labels
    for s in flat((1, 2, "a", "b", "x")):
        got = compose_strata(s, "x", stratum(s_corolla((3, "c", "y"))), "y").tree
        assert by_tree[got].tree == got and hash(by_tree[got].tree) == hash(got)
        routes += 1
    assert routes == 2 * 236 + (25 + 2 * 105 + 3 * 105) + 26


def test_equal_splits_over_different_label_orders_are_unequal():
    ints, strs = (1, 2, 3, 4), ("1", "2", "3", "4")
    a, b = StableSTree(ints, (6,)), StableSTree(strs, (6,))
    assert a.splits == b.splits and a != b
    assert len({a, b, StableSTree(ints, (6,)), StableSTree(strs, (6,))}) == 2
    assert StableSTree(ints, ()) != StableSTree(strs, ())
    assert StableSTree(ints, (6,)) != StableSTree(ints, (10,))
