"""Differential test: the label order of `strata._order`, `s_tree` and
`stratum_from_json` against a test-local copy of the one sort they all ran,
`sorted(labels, key=_labelkey)` with `_labelkey(x) = (type name, x)`.

The label sets hold one type, mixed types (among them labels of equal value
and another type: 1, 1.0 and True, or 0, False and "0"), and one type with
no order.  `stratum_from_json` also reads `labels` lists given in another
order, with a repeat, and of one unorderable value repeated.  Results are
compared by value and by the types of their labels, since 1, 1.0 and True
compare equal; failures are compared by exception type and message.
"""

import itertools

import pytest

from dessins import strata
from dessins.graphs import corolla, validate
from dessins.strata import LabelCollision, StrataError, TooSmall, s_tree, stratum_from_json


def ref_sorted(labels):
    return sorted(labels, key=lambda x: (type(x).__name__, x))


def ref_order(labels, least):
    labels = list(labels)
    order = tuple(ref_sorted(set(labels)))
    if len(order) != len(labels):
        raise LabelCollision("labels must be pairwise distinct")
    if len(order) < least:
        raise TooSmall(f"need at least {least} labels")
    return order


def ref_tree_order(tail_labels):
    if len(set(tail_labels.values())) != len(tail_labels):
        raise StrataError("tail labels must be pairwise distinct")
    return tuple(ref_sorted(tail_labels.values()))


def outcome(call):
    """A result with the types of its labels, or an exception's type and message."""
    try:
        got = call()
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(got), [type(x) for x in got]


SINGLE_TYPE = [
    (3, 1, 2),
    (5, -1, 3, 0, 2, 4),
    ("c", "a", "b", "d"),
    ("b10", "b9", "a", "B", "", "a0"),
    (2.5, 0.5, 1.5, -3.0, 1e9),
    ((2, 1), (1, 2), (1,), ()),
    (frozenset({3}), frozenset({1}), frozenset({2})),   # no two are ordered
    (False, True),
    (7,),
]
MIXED = [
    (1, 1.5, True, "a"),
    (2, 1.0, 0),
    (0, False, "0"),
    (2, 1.5, 0, "b", "a"),
    (2.5, 1, 0.5, "x", (1,)),
    (None, 1, "a", 0.5),
    (True, 2, 3, 4, 5),
    (1.0, 2, 3, 4, 5),
]
UNORDERABLE = [
    (1j, 2j, 3j),
    (2j, 1j, 3j, 4j, 5j),
]


def params(**families):
    return [pytest.param(labels, id=f"{name}{i}")
            for name, family in families.items() for i, labels in enumerate(family)]


LABEL_SETS = params(single=SINGLE_TYPE, mixed=MIXED, unorderable=UNORDERABLE)
# a stable tree has at least three tails, and a stratum's labels are distinct
TREE_LABEL_SETS = [p for p in LABEL_SETS if len(p.values[0]) >= 3]
STRATUM_LABEL_SETS = [p for p in params(single=SINGLE_TYPE, mixed=MIXED)
                      if len(set(p.values[0])) == len(p.values[0]) >= 3]


def arrangements(labels):
    """The labels as given, reversed and rotated."""
    labels = list(labels)
    return [labels, labels[::-1], labels[1:] + labels[:1]]


@pytest.mark.parametrize("labels", LABEL_SETS)
def test_order_sorts_like_the_label_key(labels):
    for given in arrangements(labels):
        for least in (3, 4):
            assert outcome(lambda: strata._order(given, least)) == \
                outcome(lambda: ref_order(given, least))


def test_order_sorts_every_arrangement_of_mixed_labels_alike():
    for labels in [(2, 1.5, 0, "b", "a"), (2.5, 1, 0.5, "x", (1,))]:
        want = outcome(lambda: ref_order(labels, 3))
        for given in itertools.permutations(labels):
            assert outcome(lambda: strata._order(given, 3)) == want


def tree_over(n):
    """A stable tree with n tails: a corolla below five, else two vertices
    joined by one edge, tails t0, t1 on the first and the rest on the second."""
    tails = [f"t{i}" for i in range(n)]
    if n < 5:
        return corolla("v", tails), None
    boundary = {"e.a": "u", "e.b": "w", **{t: "u" if i < 2 else "w" for i, t in enumerate(tails)}}
    involution = {"e.a": "e.b", "e.b": "e.a", **{t: t for t in tails}}
    return validate(list(boundary), ["u", "w"], boundary, involution), {"t0", "t1"}


def ref_mask(order, side):
    bits = sum(1 << i for i, lab in enumerate(order) if lab in side)
    return bits ^ ((1 << len(order)) - 1) if bits & 1 else bits


@pytest.mark.parametrize("labels", TREE_LABEL_SETS)
def test_s_tree_sorts_like_the_label_key(labels):
    graph, first_side = tree_over(len(labels))
    for given in arrangements(labels):
        tail_labels = {f"t{i}": lab for i, lab in enumerate(given)}
        want = outcome(lambda: ref_tree_order(tail_labels))
        assert outcome(lambda: s_tree(graph, tail_labels).order) == want
        if first_side and type(want[0]) is tuple:
            side = {tail_labels["t0"], tail_labels["t1"]}
            assert s_tree(graph, tail_labels).splits == (ref_mask(want[0], side),)


def json_labels(labels):
    """`labels` lists for a stratum over `labels`: in order, reversed, with a
    repeat in place of one label, with a repeat added, and one unorderable
    value repeated."""
    labels = list(labels)
    return [labels, labels[::-1], labels[:1] + labels[:-1], labels + labels[-1:],
            [None] * len(labels), [1j] * len(labels)]


@pytest.mark.parametrize("labels", STRATUM_LABEL_SETS)
def test_stratum_from_json_sorts_like_the_label_key(labels):
    graph, _ = tree_over(len(labels))
    tail_labels = {f"t{i}": lab for i, lab in enumerate(labels)}
    obj = strata.stratum_to_json(s_tree(graph, tail_labels))
    order = ref_tree_order(tail_labels)
    for given in json_labels(labels):

        def ref():
            if ref_sorted(given) != list(order):
                raise StrataError(f"labels {given!r} disagree with the tree's "
                                  f"tail labels {list(order)!r}")
            return order

        assert outcome(lambda: stratum_from_json({**obj, "labels": given}).order) == \
            outcome(ref)
