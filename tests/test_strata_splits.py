"""Differential test: strata as split systems against the flag-graph code they
replaced.

The reference below is the earlier implementation of strata on string-flag
graphs: trees are built by inserting one labelled tail at a time into every
vertex, edge and tail; they are identified by a nested-tuple encoding rooted
at the tree centroid; projection forgets tails and then contracts, smallest
edge first, an edge at a vertex with fewer than three flags until none is
left; the substratum test tries every edge subset of the right size; and
composition grafts the two flag graphs.  Every check runs over all strata of
a small label set.
"""

import itertools

import pytest

from dessins import operads
from dessins.graphs import structure_report, validate
from dessins.strata import (
    admissible_projection,
    compose_strata,
    contract_edge,
    enumerate_strata,
    is_caterpillar,
    is_substratum,
    s_corolla,
    s_tree,
)

TOTALS = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752}


def labels(n):
    return [str(i) for i in range(1, n + 1)]


# --- reference: the flag-graph code -------------------------------------------

def _labelkey(x):
    return (type(x).__name__, x)


def old_key(g, tail_labels):
    """Nested-tuple encoding of a labelled tree, least over its centroids."""
    nbrs = {v: [] for v in g.vertices}
    for e in g.edges:
        a, b = sorted(e)
        u, w = g.boundary[a], g.boundary[b]
        nbrs[u].append(w)
        nbrs[w].append(u)
    tails_at = {v: [] for v in g.vertices}
    for f in g.tails:
        tails_at[g.boundary[f]].append(tail_labels[f])

    def size(v, parent):
        return 1 + sum(size(w, v) for w in nbrs[v] if w != parent)

    def enc(v, parent):
        children = sorted(enc(w, v) for w in nbrs[v] if w != parent)
        return (tuple(sorted(_labelkey(x) for x in tails_at[v])), tuple(children))

    roots = list(g.vertices)
    if len(roots) > 1:
        heaviest = {v: max(size(w, v) for w in nbrs[v]) for v in roots}
        roots = [v for v in roots if heaviest[v] == min(heaviest.values())]
    return min(enc(r, None) for r in roots)


def _fresh_names(g, count, kind):
    used = set(g.flags) | set(g.vertices)
    out, i = [], 0
    while len(out) < count:
        name = f"{kind}{i}"
        if name not in used:
            out.append(name)
            used.add(name)
        i += 1
    return out


def _insert_label(g, tail_labels, label):
    """All stable trees obtained by adding one labelled tail."""
    out = []
    for v in g.vertices:                        # a new tail at a vertex
        (f,) = _fresh_names(g, 1, "t")
        out.append((validate(g.flags + (f,), g.vertices, {**g.boundary, f: v},
                             {**g.involution, f: f}), {**tail_labels, f: label}))
    for e in sorted(g.edges, key=sorted):       # a new trivalent vertex on an edge
        a, b = sorted(e)
        (v,) = _fresh_names(g, 1, "v")
        f, ha, hb = _fresh_names(g, 3, "f")
        boundary = {**g.boundary, f: v, ha: v, hb: v}
        involution = {**g.involution, a: ha, ha: a, b: hb, hb: b, f: f}
        out.append((validate(g.flags + (f, ha, hb), g.vertices + (v,), boundary, involution),
                    {**tail_labels, f: label}))
    for tf in g.tails:                          # a new trivalent vertex on a tail
        (v,) = _fresh_names(g, 1, "v")
        f, ha, hb = _fresh_names(g, 3, "f")
        boundary = {**g.boundary, tf: v, f: v, hb: v, ha: g.boundary[tf]}
        involution = {**g.involution, ha: hb, hb: ha, f: f}
        out.append((validate(g.flags + (f, ha, hb), g.vertices + (v,), boundary, involution),
                    {**tail_labels, f: label}))
    return out


def old_enumerate(labs):
    """Old key -> (graph, tail labels), one per stable tree."""
    t = s_corolla(labs[:3])
    current = {old_key(t.graph, t.tail_labels): (t.graph, t.tail_labels)}
    for lab in labs[3:]:
        nxt = {}
        for g, tl in current.values():
            for g2, tl2 in _insert_label(g, tl, lab):
                nxt.setdefault(old_key(g2, tl2), (g2, tl2))
        current = nxt
    return current


def old_contract(g, e):
    a, b = sorted(e)
    u, w = g.boundary[a], g.boundary[b]
    flags = tuple(f for f in g.flags if f not in e)
    vertices = tuple(v for v in g.vertices if v != max(u, w))
    boundary = {f: min(u, w) if g.boundary[f] in (u, w) else g.boundary[f] for f in flags}
    return validate(flags, vertices, boundary, {f: g.involution[f] for f in flags})


def old_project(g, tail_labels, target):
    drop = {f for f, lab in tail_labels.items() if lab not in target}
    flags = tuple(f for f in g.flags if f not in drop)
    boundary = {f: g.boundary[f] for f in flags}
    involution = {f: g.involution[f] for f in flags}
    vertices = g.vertices
    while True:
        mult = {v: 0 for v in vertices}
        for f in flags:
            mult[boundary[f]] += 1
        unstable = sorted(v for v in vertices if mult[v] < 3)
        if not unstable:
            break
        a, b = min(tuple(sorted((f, involution[f]))) for f in flags
                   if involution[f] != f
                   and (boundary[f] in unstable or boundary[involution[f]] in unstable))
        u, w = boundary[a], boundary[b]
        flags = tuple(f for f in flags if f not in (a, b))
        vertices = tuple(v for v in vertices if v != max(u, w))
        boundary = {f: min(u, w) if boundary[f] in (u, w) else boundary[f] for f in flags}
        involution = {f: involution[f] for f in flags}
    g2 = validate(flags, vertices, boundary, involution)
    return g2, {f: lab for f, lab in tail_labels.items() if f not in drop}


def old_is_substratum(inner, outer):
    target = old_key(outer.tree.graph, outer.tree.tail_labels)
    edges = sorted(tuple(sorted(e)) for e in inner.tree.graph.edges)
    for subset in itertools.combinations(edges, inner.codim - outer.codim):
        g = inner.tree.graph
        for e in subset:
            g = old_contract(g, frozenset(e))
        if old_key(g, inner.tree.tail_labels) == target:
            return subset
    return None


def old_compose(s1, label1, s2, label2):
    (t1,) = [f for f, lab in s1.tree.tail_labels.items() if lab == label1]
    (t2,) = [f for f, lab in s2.tree.tail_labels.items() if lab == label2]
    g, fmap1, fmap2 = operads.graft_with_maps(s1.tree.graph, t1, s2.tree.graph, t2)
    tail_labels = {fmap1[f]: lab for f, lab in s1.tree.tail_labels.items() if f != t1}
    tail_labels.update({fmap2[f]: lab for f, lab in s2.tree.tail_labels.items() if f != t2})
    return g, tail_labels


def old_is_caterpillar(g):
    degree = {v: 0 for v in g.vertices}
    for e in g.edges:
        for f in e:
            degree[g.boundary[f]] += 1
    return all(d <= 2 for d in degree.values())


def read_splits(g, tail_labels):
    """Each edge's side away from the least label, read off the flag graph."""
    anchor = min(tail_labels.values(), key=_labelkey)
    nbrs = {v: [] for v in g.vertices}
    for e in g.edges:
        a, b = e
        nbrs[g.boundary[a]].append((g.boundary[b], e))
        nbrs[g.boundary[b]].append((g.boundary[a], e))
    at = {v: set() for v in g.vertices}
    for f in g.tails:
        at[g.boundary[f]].add(tail_labels[f])
    (root,) = [g.boundary[f] for f in g.tails if tail_labels[f] == anchor]
    out = {}

    def below(v, parent):
        side = set(at[v])
        for w, e in nbrs[v]:
            if w != parent:
                out[e] = frozenset(below(w, v))
                side |= out[e]
        return side

    below(root, None)
    return out


# --- checks ----------------------------------------------------------------------

@pytest.mark.parametrize("n", sorted(TOTALS))
def test_keys_in_bijection(n):
    grouped = enumerate_strata(labels(n))
    new = [s for group in grouped.values() for s in group]
    to_old = {s.canonical_key(): old_key(s.tree.graph, s.tree.tail_labels) for s in new}
    assert len(new) == len(to_old) == len(set(to_old.values())) == TOTALS[n]
    old = old_enumerate(labels(n))
    assert set(old) == set(to_old.values())
    for key, (g, tail_labels) in old.items():
        assert to_old[s_tree(g, tail_labels).canonical_key()] == key


@pytest.mark.parametrize("n", sorted(TOTALS))
def test_lazy_graphs_are_stable_trees_with_the_stored_splits(n):
    for group in enumerate_strata(labels(n)).values():
        for s in group:
            g, tail_labels = s.tree.graph, s.tree.tail_labels
            rep = structure_report(g)
            assert rep.n_components == 1 and rep.is_tree and rep.is_stable
            again = validate(g.flags, g.vertices, g.boundary, g.involution)
            assert again == g and again.edges == g.edges and again.tails == g.tails
            assert sorted(tail_labels) == list(g.tails)
            assert frozenset(read_splits(g, tail_labels).values()) == s.tree.label_splits()
            assert is_caterpillar(s.tree) == old_is_caterpillar(g)


def test_projection_agrees_on_every_stratum_and_target_at_six_labels():
    base = labels(6)
    cases = 0
    for group in enumerate_strata(base).values():
        for s in group:
            for k in range(3, 6):
                for target in itertools.combinations(base, k):
                    got = admissible_projection(s, target).tree
                    g, tl = old_project(s.tree.graph, s.tree.tail_labels, set(target))
                    assert old_key(got.graph, got.tail_labels) == old_key(g, tl)
                    assert got == s_tree(g, tl)
                    cases += 1
    assert cases == 9676


def test_contract_edge_agrees_on_every_edge_at_seven_labels():
    cases = 0
    for group in enumerate_strata(labels(7)).values():
        for s in group:
            g, tail_labels = s.tree.graph, s.tree.tail_labels
            for e in g.edges:
                got = contract_edge(s.tree, e)
                want = old_contract(g, e)
                assert got.graph == want and got.graph.edges == want.edges
                assert got.graph.tails == want.tails and got.tail_labels == tail_labels
                assert got == s_tree(want, tail_labels)
                cases += 1
    assert cases == 56 + 2 * 490 + 3 * 1260 + 4 * 945


def test_is_substratum_agrees_on_all_pairs_at_five_labels():
    flat = [s for group in enumerate_strata(labels(5)).values() for s in group]
    holding = 0
    for inner, outer in itertools.product(flat, repeat=2):
        witness = is_substratum(inner, outer)
        want = old_is_substratum(inner, outer) if inner.codim >= outer.codim else None
        assert witness.holds == (want is not None)
        assert witness.edges == want
        holding += witness.holds
    assert len(flat) ** 2 == 676 and holding == 26 + 10 + 15 * 3


def test_compose_agrees_with_grafting_on_every_pair_and_site():
    left = [s for group in enumerate_strata(["1", "2", "3", "4", "x"]).values() for s in group]
    right = [s for group in enumerate_strata(["5", "6", "7", "y"]).values() for s in group]
    cases = 0
    for s1, s2 in itertools.product(left, right):
        for label1, label2 in itertools.product(s1.tree.order, s2.tree.order):
            got = compose_strata(s1, label1, s2, label2)
            g, tail_labels = old_compose(s1, label1, s2, label2)
            assert got.tree == s_tree(g, tail_labels)
            assert old_key(got.tree.graph, got.tree.tail_labels) == old_key(g, tail_labels)
            cases += 1
    assert cases == 26 * 5 * 4 * 4
