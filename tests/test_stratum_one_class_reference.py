"""Differential test: strata from every constructor against a test-local copy
of the two classes that once held a stratum.

The reference is `RefTree`, a stable S-tree of label order and splits whose
flag view is built on first access (from the splits, or by a builder that
`ref_contract_edge` passes), and `RefStratum`, which holds the same order and
splits and builds its `RefTree` when `.tree` is first read.  Each library
result is compared with the reference the old code made from the same input:
label order and splits (with the types of the labels), codimension,
dimension, canonical key, hash, equality classes, label splits, and the flag
view as (graph, tail labels, edge splits).  Every flag view is also checked
against `edge_splits`, which reads each edge's split off the graph by a walk
that avoids the edge.

Constructors that compute splits from other strata (enumeration, boundaries,
projection, grafting, JSON) share that code with the library, so their
references take the library's order and splits; the label maps are checked
against independent oracles in `test_strata_label_maps_reference.py`.  The
label sets are those of `test_stratum_lazy_tree_reference.py`: mixed types,
and labels of equal value and another type (1, 1.0 and True).
"""

import itertools
import json
import pickle

import pytest

from dessins import strata
from dessins.graphs import CombinatorialGraph, validate
from dessins.strata import (
    CurveCombinatorics,
    NoSuchEdge,
    StableSTree,
    Stratum,
    admissible_projection,
    compose_strata,
    contract_edge,
    curve_to_dessin,
    divisorial_strata,
    enumerate_strata,
    maximal_codim_strata,
    open_stratum_boundary,
    s_corolla,
    s_tree,
    stratum_from_json,
    stratum_to_json,
    trivalent_strata,
    two_part_tree,
)

LABEL_SETS = [
    (1, 2, 3, 4, 5, 6),
    (1.0, 2, 3, 4, 5, 6),
    (True, 2, 3, 4, 5, 6),
    (False, True, 2.5, "a", "b", 7),
    (0.0, 1.0, 2, "x", (1, 2), 3),
]


# --- the two classes as they were, copied as the reference -------------------

class RefTree:
    __slots__ = ("order", "splits", "_hash", "_flag_view", "_build")

    def __init__(self, order, splits, build=None):
        self.order = order
        self.splits = splits
        self._hash = None
        self._flag_view = None
        self._build = build

    @property
    def graph(self):
        return self._view()[0]

    @property
    def tail_labels(self):
        return self._view()[1]

    def _view(self):
        if self._flag_view is None:
            build, self._build = self._build, None
            self._flag_view = build() if build else strata._flags_from_splits(self.order,
                                                                              self.splits)
        return self._flag_view

    def label_splits(self):
        return frozenset(strata._side(self.order, m) for m in self.splits)

    def canonical_key(self):
        return self.order, self.splits

    def __eq__(self, other):
        return (isinstance(other, RefTree) and self.splits == other.splits
                and self.order == other.order)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.splits))
        return self._hash


class RefStratum:
    __slots__ = ("order", "splits", "_tree")

    def __init__(self, tree):
        self.order, self.splits, self._tree = tree.order, tree.splits, tree

    @property
    def tree(self):
        if self._tree is None:
            self._tree = RefTree(self.order, self.splits)
        return self._tree

    @property
    def codim(self):
        return len(self.splits)

    @property
    def dim(self):
        return len(self.order) - 3 - len(self.splits)

    def canonical_key(self):
        return self.order, self.splits

    def __eq__(self, other):
        return (isinstance(other, RefStratum) and self.splits == other.splits
                and self.order == other.order)

    def __hash__(self):
        return hash((self.order, self.splits))


def ref_stratum(order, splits):
    s = RefStratum(RefTree(order, splits))
    s._tree = None
    return s


def ref_contracted(view, e):
    g, tail_labels, edge_split = view
    keep, gone = sorted(g.boundary[f] for f in e)
    flags = tuple(f for f in g.flags if f not in e)
    boundary = {f: keep if g.boundary[f] == gone else g.boundary[f] for f in flags}
    graph = CombinatorialGraph(flags, tuple(v for v in g.vertices if v != gone), boundary,
                               {f: g.involution[f] for f in flags}, g.edges - {e}, g.tails)
    return graph, dict(tail_labels), {k: m for k, m in edge_split.items() if k != e}


def ref_contract_edge(t, edge):
    e = frozenset(edge)
    view = t._view()
    if e not in view[2]:
        raise NoSuchEdge(f"{sorted(edge)} is not an edge of the tree")
    splits = tuple(m for m in t.splits if m != view[2][e])
    return RefTree(t.order, splits, lambda: ref_contracted(view, e))


# --- oracles -------------------------------------------------------------------

def order_of(labels):
    return tuple(sorted(labels, key=strata._labelkey))


def edge_splits(graph, tail_labels, order):
    """Each edge's split: the tail labels on the side of the edge's first
    flag, found by a walk that does not cross the edge, as a mask over
    `order`."""
    at = {}
    for f, v in graph.boundary.items():
        at.setdefault(v, []).append(f)
    out = {}
    for e in graph.edges:
        a = sorted(e)[0]
        seen, queue = {graph.boundary[a]}, [graph.boundary[a]]
        for v in queue:
            for f in at[v]:
                partner = graph.involution[f]
                if partner != f and frozenset((f, partner)) != e:
                    w = graph.boundary[partner]
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        side = {lab for f, lab in tail_labels.items() if graph.boundary[f] in seen}
        out[e] = strata._mask(order, side)
    return out


def explicit_graph(labels, splits):
    """A flag graph with the given splits over `order_of(labels)`, named
    apart from the library's own names, and its tail labels."""
    g, tails, _ = strata._split_graph(len(labels), splits)
    rename = {f: "q" + f for f in g.flags}
    vname = {v: "node" + v for v in g.vertices}
    graph = validate([rename[f] for f in g.flags], [vname[v] for v in g.vertices],
                     {rename[f]: vname[v] for f, v in g.boundary.items()},
                     {rename[f]: rename[h] for f, h in g.involution.items()})
    return graph, {rename[f]: lab for f, lab in zip(tails, order_of(labels))}


# --- comparisons ---------------------------------------------------------------

def typed(labels):
    return [(type(lab), lab) for lab in labels]


def as_stratum(x):
    return x if isinstance(x, Stratum) else Stratum(x)


def as_ref_stratum(r):
    return r if isinstance(r, RefStratum) else RefStratum(r)


def classes(items):
    """The index of the first item equal to each item."""
    first = {}
    return [first.setdefault(x, i) for i, x in enumerate(items)]


def assert_view(got, want, order):
    graph, tail_labels, edge_split = got
    assert graph == want[0] and (graph.edges, graph.tails) == (want[0].edges, want[0].tails)
    assert tail_labels == want[1] and typed(tail_labels.values()) == typed(want[1].values())
    assert tail_labels.keys() == set(graph.tails)
    assert typed(order_of(tail_labels.values())) == typed(order)
    assert edge_split == want[2] == edge_splits(graph, tail_labels, order)


def assert_same(got, want, views=True):
    """Library results against references made from the same input."""
    assert len(got) == len(want) > 0
    for x, r in zip(got, want):
        s, rs = as_stratum(x), as_ref_stratum(r)
        assert (x.order, x.splits) == (r.order, r.splits)
        assert typed(x.order) == typed(r.order) and typed(s.order) == typed(r.order)
        assert (s.codim, s.dim) == (rs.codim, rs.dim)
        key = x.canonical_key()
        assert key == r.canonical_key() == s.canonical_key() and typed(key[0]) == typed(r.order)
        assert hash(x) == hash(r) == hash(s) == hash(rs)
        assert {frozenset(typed(side)) for side in s.tree.label_splits()} == \
            {frozenset(typed(side)) for side in rs.tree.label_splits()}
    assert classes(got) == classes(want)
    assert classes([as_stratum(x) for x in got]) == classes([as_ref_stratum(r) for r in want])
    if views:
        for x, r in zip(got, want):
            assert_view(as_stratum(x).tree._view(), as_ref_stratum(r).tree._view(), r.order)
        for x, r in zip(got[::7], want[::7]):      # a copy keeps the flag view
            back = pickle.loads(pickle.dumps(x))
            assert back == x and typed(back.order) == typed(r.order)
            assert_view(as_stratum(back).tree._view(), as_ref_stratum(r).tree._view(), r.order)


def split_made(got):
    """References for strata whose splits the library computed."""
    return [ref_stratum(s.order, s.splits) for s in got]


def flat(grouped):
    return [s for group in grouped.values() for s in group]


# --- constructors that take labels or splits -----------------------------------

@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_trees_from_splits_labels_and_partitions_match_the_two_classes(labels):
    for n in range(3, 7):
        order = order_of(labels[:n])
        families = strata._families(n)
        for make in (StableSTree, Stratum):
            assert_same([make(order, f) for f in families], [RefTree(order, f) for f in families])
        assert_same([s_corolla(labels[:n])], [RefTree(order, ())])
    for n in range(4, 7):
        order = order_of(labels[:n])
        parts = [(labels[:k], labels[k:n]) for k in range(2, n - 1)]
        assert_same([two_part_tree(*p) for p in parts],
                    [RefTree(order, (strata._mask(order, p[0]),)) for p in parts])


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_trees_read_from_graphs_and_curves_match_the_two_classes(labels):
    order = order_of(labels[:5])
    families = strata._families(5)
    graphs = [explicit_graph(labels[:5], f) for f in families]
    got = [s_tree(g, tails) for g, tails in graphs]
    want = []
    for (g, tails), f in zip(graphs, families):
        r = RefTree(order, f)
        r._flag_view = (g, dict(tails), edge_splits(g, tails, order))
        want.append(r)
    assert_same(got, want)
    assert all(x.graph is g for x, (g, _) in zip(got, graphs))
    curves = [CurveCombinatorics(("A",), (), dict.fromkeys(labels[:n], "A")) for n in (3, 4, 5)]
    curves.append(CurveCombinatorics(("A", "B"), (("A", "B"),),
                                     {lab: "AB"[i % 2] for i, lab in enumerate(labels[:5])}))
    got = [curve_to_dessin(c) for c in curves]
    assert_same(got, [ref_stratum(order_of(c.marked), x.splits) for c, x in zip(curves, got)],
                views=False)
    for x in got:
        assert_view(x._view(), (x.graph, x.tail_labels,
                                     edge_splits(x.graph, x.tail_labels, x.order)), x.order)


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_contracted_trees_match_the_two_classes(labels):
    order = order_of(labels[:5])
    families = strata._families(5)
    got, want = [], []
    for f in families:
        x, r = StableSTree(order, f), RefTree(order, f)
        for e in sorted(r.graph.edges, key=sorted):
            got.append(contract_edge(x, e))
            want.append(ref_contract_edge(r, e))
    assert len(got) == 40
    assert_same(got, want)
    # a contraction of a contraction, and an edge that is not there
    twice = [contract_edge(c, sorted(c.graph.edges, key=sorted)[0]) for c in got if c.splits]
    again = [ref_contract_edge(r, sorted(r.graph.edges, key=sorted)[0]) for r in want if r.splits]
    assert_same(twice, again)
    with pytest.raises(NoSuchEdge):
        contract_edge(got[0], ("t0", "t1"))


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_wrapped_trees_match_the_two_classes(labels):
    order = order_of(labels[:5])
    trees = [StableSTree(order, f) for f in strata._families(5)]
    refs = [RefTree(order, t.splits) for t in trees]
    for wrap in (lambda t: t, Stratum):
        got = [wrap(t) for t in trees]
        assert all(s.tree is t for s, t in zip(got, trees))
        assert_same(got, [RefStratum(r) for r in refs])


# --- constructors that compute splits from other strata ------------------------

@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_enumerated_strata_match_the_two_classes(labels):
    for n in range(3, 7):
        got = flat(enumerate_strata(labels[:n]))
        assert all(typed(s.order) == typed(order_of(labels[:n])) for s in got)
        assert_same(got, split_made(got), views=n <= 5)
        got = trivalent_strata(labels[:n])
        assert_same(got, split_made(got), views=n <= 5)
        got = [s for s, _ in maximal_codim_strata(labels[:n])]
        assert_same(got, split_made(got), views=n <= 5)
    for n in range(4, 7):
        got = divisorial_strata(labels[:n])
        assert_same(got, split_made(got))


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_boundaries_and_projections_match_the_two_classes(labels):
    some = flat(enumerate_strata(labels))[::11]
    got = [b for s in some for b in open_stratum_boundary(s)]
    assert_same(got, split_made(got))
    targets = [t for k in range(3, 7) for t in itertools.combinations(labels, k)][::5]
    got = [admissible_projection(s, t) for s in some for t in targets]
    assert all(set(typed(p.order)) <= set(typed(labels)) for p in got)
    assert_same(got, split_made(got), views=False)


def test_compositions_match_the_two_classes():
    left, right = (1.0, 2, "z", 4), (True, 5, 6.5, "y")
    got = [compose_strata(s1, l1, s2, l2)
           for s1 in flat(enumerate_strata(left)) for s2 in flat(enumerate_strata(right))
           for l1 in left[:2] for l2 in right[:2]
           if not (set(left) - {l1}) & (set(right) - {l2})]
    assert len(got) == 48
    assert all(set(typed(c.order)) <= set(typed(left + right)) for c in got)
    assert_same(got, split_made(got))


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_strata_read_from_json_match_the_two_classes(labels):
    native = [lab for lab in labels if not isinstance(lab, tuple)][:5]     # JSON has no tuples
    texts = [json.dumps(stratum_to_json(s)) for s in flat(enumerate_strata(native))]
    got = [stratum_from_json(json.loads(t)) for t in texts]
    assert_same(got, split_made(got), views=False)
    for s in got:
        view = s.tree._view()
        assert_view(view, (view[0], view[1], edge_splits(view[0], view[1], s.order)), s.order)


def test_strata_over_equal_labels_of_other_types_share_classes_and_keep_their_labels():
    mixed = [s for labels in LABEL_SETS[:3] for s in flat(enumerate_strata(labels[:5]))]
    assert_same(mixed, split_made(mixed))
    assert len(set(mixed)) == len(mixed) // 3 == 26


# --- an enumerated stratum has the flag reads of a tree ------------------------

@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_enumerated_strata_read_graphs_and_contract_edges_as_their_trees_do(labels):
    for s in flat(enumerate_strata(labels[:5])):
        t, ref = s.tree, RefTree(s.order, s.splits)
        assert s.graph == t.graph == ref.graph and s.graph is t.graph
        assert typed(s.tail_labels.items()) == typed(t.tail_labels.items()) == \
            typed(ref.tail_labels.items())
        assert strata.is_caterpillar(s) == strata.is_caterpillar(t)
        for e in sorted(s.graph.edges, key=sorted):
            c, want = contract_edge(s, e), ref_contract_edge(ref, e)
            assert c == contract_edge(t, e) and c.canonical_key() == want.canonical_key()
            assert c.graph == contract_edge(t, e).graph == want.graph
            assert c.tail_labels == want.tail_labels
