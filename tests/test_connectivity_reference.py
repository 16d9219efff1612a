"""Differential tests for the connectivity checks of the strata layer.

Test-local copies of `s_tree`, `curve_to_dessin`, `clean_dessin` and the two
clean-dessin checks, as they were before the checks shared one walk, are
compared by outcome (the result, or the exception type and message) with the
library over exhaustive small families: every small curve, and the clean
dessin of every caterpillar corner for n = 4..7 with a few hand-made dessins.
"""

import itertools
from collections import Counter

from dessins import graphs, strata
from dessins.strata import CleanDessin, CurveCombinatorics, StableSTree, StrataError


# --- the code as it was, copied as the reference -----------------------------

def ref_s_tree(graph, tail_labels):
    tail_labels = dict(tail_labels)
    bdry = graph.boundary
    nbrs = {v: [] for v in graph.vertices}
    for e in graph.edges:
        a, b = e
        nbrs[bdry[a]].append((bdry[b], e))
        nbrs[bdry[b]].append((bdry[a], e))
    walk = list(graph.vertices[:1])
    parent = dict.fromkeys(walk)
    for v in walk:
        for w, e in nbrs[v]:
            if w not in parent:
                parent[w] = (v, e)
                walk.append(w)
    if not walk or len(walk) != len(graph.vertices):
        raise StrataError("tree must be connected")
    n_flags = Counter(bdry.values())
    if graph.n_edges != len(walk) - 1 or any(n_flags[v] < 3 for v in walk):
        raise StrataError("tree must be stable (every vertex bounds >= 3 flags)")
    if sorted(tail_labels) != list(graph.tails):
        raise StrataError("tail_labels must be defined exactly on the tails")
    if len(set(tail_labels.values())) != len(tail_labels):
        raise StrataError("tail labels must be pairwise distinct")
    order = tuple(sorted(tail_labels.values(), key=strata._labelkey))
    bit = {lab: 1 << i for i, lab in enumerate(order)}
    below = dict.fromkeys(graph.vertices, 0)
    for f, lab in tail_labels.items():
        below[bdry[f]] |= bit[lab]
    everything = (1 << len(order)) - 1
    edge_split = {}
    for w in reversed(walk[1:]):
        v, e = parent[w]
        below[v] |= below[w]
        edge_split[e] = everything ^ below[w] if below[w] & 1 else below[w]
    return strata._stratum(order, tuple(sorted(edge_split.values())),
                           (graph, tail_labels, edge_split))


def curve_graph(curve):
    """The dual flag graph and tail labels of a curve, built as curve_to_dessin does."""
    comps = [str(c) for c in curve.components]
    flags, boundary, involution, tail_labels = [], {}, {}, {}
    for i, (ca, cb) in enumerate(curve.double_points):
        ca, cb = str(ca), str(cb)
        if ca not in comps or cb not in comps:
            raise StrataError(f"double point on unknown component {(ca, cb)!r}")
        ha, hb = f"dp{i}.a", f"dp{i}.b"
        flags += [ha, hb]
        boundary[ha], boundary[hb] = ca, cb
        involution[ha], involution[hb] = hb, ha
    for j, (lab, comp) in enumerate(sorted(curve.marked.items(),
                                           key=lambda kv: strata._labelkey(kv[0]))):
        comp = str(comp)
        if comp not in comps:
            raise StrataError(f"marked point {lab!r} on unknown component {comp!r}")
        f = f"m{j}"
        flags.append(f)
        boundary[f] = comp
        involution[f] = f
        tail_labels[f] = lab
    return graphs.validate(flags, comps, boundary, involution), tail_labels


def ref_curve_to_dessin(curve):
    g, tail_labels = curve_graph(curve)
    rep = graphs.structure_report(g)
    unstable = [v for v, m in rep.vertex_multiplicities.items() if m < 3]
    if unstable:
        raise strata.UnstableComponent(
            f"components with < 3 special points: {sorted(unstable)}")
    if rep.n_components != 1 or not rep.is_tree:
        raise strata.NotATreeOfComponents("component graph must be a connected tree")
    return ref_s_tree(g, tail_labels)


def ref_clean_dessin(s):
    t = s.tree
    if not strata.is_caterpillar(t):
        raise strata.NotCaterpillar("clean dessins are defined for caterpillar strata")
    g = t.graph
    black = list(g.vertices)
    white = []
    new_edges = []
    for i, e in enumerate(sorted(g.edges, key=sorted)):
        a, b = sorted(e)
        mid = f"w{i}"
        white.append(mid)
        new_edges.append(tuple(sorted((g.boundary[a], mid))))
        new_edges.append(tuple(sorted((g.boundary[b], mid))))
    for f in g.tails:
        end = f"end_{t.tail_labels[f]}"
        black.append(end)
        new_edges.append(tuple(sorted((g.boundary[f], end))))
    return CleanDessin(tuple(sorted(black)), tuple(sorted(white)), tuple(sorted(new_edges)))


def ref_clean_dessin_is_bipartite(d):
    nbrs = {}
    for a, b in d.edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    color = {}
    for start in sorted(nbrs):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in nbrs[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def ref_clean_dessin_is_connected(d):
    verts = set(d.black) | set(d.white)
    if not verts:
        return True
    nbrs = {v: set() for v in verts}
    for a, b in d.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen, queue = set(), [sorted(verts)[0]]
    while queue:
        v = queue.pop()
        if v in seen:
            continue
        seen.add(v)
        queue.extend(nbrs[v] - seen)
    return seen == verts


# --- comparisons --------------------------------------------------------------

def outcome(fn, *args):
    """What a call gives: the tree with its flag view, or the exception's type
    and message."""
    try:
        t = fn(*args)
    except Exception as exc:            # noqa: BLE001 - the outcome is the exception
        return type(exc), str(exc)
    return t, t.graph, t.tail_labels, t._view()[2]


def small_curves():
    """Every curve on 1-3 components with up to 3 double points (a component
    joined to itself and repeated pairs included) and 3-5 marked points in
    every placement, some leaving a component with no special points."""
    for n_comps in (1, 2, 3):
        comps = "ABC"[:n_comps]
        pairs = list(itertools.combinations_with_replacement(comps, 2))
        for n_dp in range(4):
            for dps in itertools.combinations_with_replacement(pairs, n_dp):
                for n_marked in (3, 4, 5):
                    for where in itertools.product(comps, repeat=n_marked):
                        yield CurveCombinatorics(tuple(comps), dps,
                                                 dict(zip(range(1, n_marked + 1), where)))


def test_curve_to_dessin_matches_reference_on_every_small_curve():
    seen = Counter()
    for curve in small_curves():
        want = outcome(ref_curve_to_dessin, curve)
        assert outcome(strata.curve_to_dessin, curve) == want, curve
        seen[want[0] if isinstance(want[0], type) else StableSTree] += 1
    # the family reaches every outcome: trees, unstable components, and
    # component graphs that are disconnected or cyclic
    assert sum(seen.values()) == 12 + 20 * 56 + 84 * 351
    assert set(seen) == {StableSTree, strata.UnstableComponent, strata.NotATreeOfComponents}
    assert min(seen.values()) >= 100


def test_s_tree_matches_reference_on_every_small_curve_graph():
    # the dual graphs, whatever their stability, connectivity or cycles
    for curve in small_curves():
        g, tail_labels = curve_graph(curve)
        assert outcome(strata.s_tree, g, tail_labels) == outcome(ref_s_tree, g, tail_labels)
    empty = graphs.empty_graph()
    assert outcome(strata.s_tree, empty, {}) == outcome(ref_s_tree, empty, {})


def caterpillars(sizes=(4, 5, 6, 7)):
    for n in sizes:
        for s, caterpillar in strata.maximal_codim_strata([str(i) for i in range(1, n + 1)]):
            if caterpillar:
                yield s


HAND_MADE = [
    CleanDessin((), (), ()),                                     # empty
    CleanDessin(("b",), (), ()),                                 # one isolated vertex
    CleanDessin((), ("w",), ()),
    CleanDessin(("a", "b"), ("w",), (("a", "w"), ("b", "w"))),
    CleanDessin(("a", "b", "c"), ("w",), (("a", "w"), ("b", "w"))),   # and an isolated one
    CleanDessin(("a", "c"), ("w", "x"), (("a", "w"), ("c", "x"))),    # two components
    CleanDessin(("a", "b", "c"), (), (("a", "b"), ("b", "c"), ("a", "c"))),  # odd cycle
    CleanDessin(("a", "b", "c", "d"), (), (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))),
    CleanDessin(("a",), ("w",), (("a", "a"), ("a", "w"))),       # a loop
    CleanDessin(("a", "b", "c", "d"), (),                        # odd cycle, second component
                (("a", "b"), ("c", "d"), ("d", "e"), ("c", "e"))),
]


def test_clean_dessin_checks_match_reference():
    cats = list(caterpillars())
    assert len(cats) == 3 + 15 + 90 + 630     # n!/8 each
    dessins = HAND_MADE[:-1] + [strata.clean_dessin(s) for s in cats]
    for d in dessins:
        assert strata.clean_dessin_is_bipartite(d) == ref_clean_dessin_is_bipartite(d), d
        assert strata.clean_dessin_is_connected(d) == ref_clean_dessin_is_connected(d), d
    assert [ref_clean_dessin_is_bipartite(d) for d in HAND_MADE[:-1]] == \
        [True] * 6 + [False, True, False]
    assert [ref_clean_dessin_is_connected(d) for d in HAND_MADE[:-1]] == \
        [True, True, True, True, False, False, True, True, True]
    # an edge to a vertex that neither colour lists still counts for bipartiteness
    assert strata.clean_dessin_is_bipartite(HAND_MADE[-1]) is False


def test_clean_dessin_matches_reference_on_trees_of_splits():
    # byte for byte: the names, their order and the DOT text
    for s in caterpillars():
        d = strata.clean_dessin(s)
        assert d == ref_clean_dessin(s)
        assert strata.clean_dessin_to_dot(d, "c") == strata.clean_dessin_to_dot(
            ref_clean_dessin(s), "c")
