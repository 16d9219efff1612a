import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import graphs, strata
from dessins.graphs import (
    BoundaryNotTotal,
    DanglingFlagReference,
    InvolutionNotInvolutive,
    corolla,
    disjoint_union,
    empty_graph,
    find_isomorphism,
    graph_from_json,
    graph_to_json,
    is_valid_iso,
    spanning_forest,
    structure_report,
    to_dot,
    validate,
)


def two_vertex_tree():
    # one edge, two tails on each side
    return validate(
        ["a1", "a2", "ha", "hb", "b1", "b2"],
        ["va", "vb"],
        {"a1": "va", "a2": "va", "ha": "va", "hb": "vb", "b1": "vb", "b2": "vb"},
        {"a1": "a1", "a2": "a2", "ha": "hb", "hb": "ha", "b1": "b1", "b2": "b2"},
    )


def test_validate_empty():
    g = empty_graph()
    assert g.n_edges == 0 and g.n_tails == 0
    assert structure_report(g).n_components == 0


def test_validate_corolla():
    g = corolla("v", ["a", "b", "c"])
    assert g.n_tails == 3 and g.n_edges == 0
    rep = structure_report(g)
    assert rep.is_corolla and rep.is_tree and rep.is_stable
    assert rep.vertex_multiplicities == {"v": 3}


def test_validate_boundary_not_total():
    with pytest.raises(BoundaryNotTotal):
        validate(["a", "b"], ["v"], {"a": "v"}, {"a": "b", "b": "a"})


def test_validate_involution_not_involutive():
    with pytest.raises(InvolutionNotInvolutive):
        validate(["a", "b", "c"], ["v"],
                 {"a": "v", "b": "v", "c": "v"},
                 {"a": "b", "b": "c", "c": "a"})


def test_validate_involution_missing_entry():
    # a -> b present but b -> a absent from the map domain
    with pytest.raises(BoundaryNotTotal):
        validate(["a", "b"], ["v"], {"a": "v", "b": "v"}, {"a": "b"})


def test_validate_dangling_reference():
    with pytest.raises(DanglingFlagReference):
        validate(["a"], ["v"], {"a": "w"}, {"a": "a"})
    with pytest.raises(DanglingFlagReference):
        validate(["a"], ["v"], {"a": "v", "b": "v"}, {"a": "a"})


def test_structure_two_vertex_tree():
    rep = structure_report(two_vertex_tree())
    assert rep.edges == 1 and rep.tails == 4
    assert rep.is_stable and rep.is_tree and not rep.is_corolla
    assert rep.n_components == 1


def test_structure_parallel_edges_not_tree():
    g = validate(
        ["h1", "h2", "h3", "h4", "t1", "t2"],
        ["u", "w"],
        {"h1": "u", "h3": "u", "t1": "u", "h2": "w", "h4": "w", "t2": "w"},
        {"h1": "h2", "h2": "h1", "h3": "h4", "h4": "h3", "t1": "t1", "t2": "t2"},
    )
    rep = structure_report(g)
    assert not rep.is_tree and not rep.is_stable
    assert rep.edges == 2 and rep.n_components == 1


def test_structure_self_loop_not_tree():
    g = validate(["h1", "h2", "t"], ["v"],
                 {"h1": "v", "h2": "v", "t": "v"},
                 {"h1": "h2", "h2": "h1", "t": "t"})
    assert not structure_report(g).is_tree


def test_flag_count_identity():
    for g in [empty_graph(), corolla("v", "abc"), two_vertex_tree()]:
        assert len(g.flags) == 2 * g.n_edges + g.n_tails


def test_tree_edge_vertex_count():
    g = disjoint_union(two_vertex_tree(), corolla("v", "abc"))
    rep = structure_report(g)
    assert rep.is_tree
    assert rep.edges == len(g.vertices) - rep.n_components


def test_disjoint_union_counts():
    g = disjoint_union(corolla("v", "abc"), corolla("v", "wxyz"))
    rep = structure_report(g)
    assert rep.n_components == 2 and rep.tails == 7 and rep.edges == 0
    assert rep.is_stable  # component-wise stability


def test_disjoint_union_with_empty_is_isomorphic():
    g = two_vertex_tree()
    assert find_isomorphism(disjoint_union(g, empty_graph()), g) is not None


def test_disjoint_union_commutative_associative_up_to_iso():
    a, b, c = corolla("v", "pqr"), two_vertex_tree(), corolla("w", "wxyz")
    ab = disjoint_union(a, b)
    ba = disjoint_union(b, a)
    assert find_isomorphism(ab, ba) is not None
    left = disjoint_union(disjoint_union(a, b), c)
    right = disjoint_union(a, disjoint_union(b, c))
    assert find_isomorphism(left, right) is not None


def test_iso_identity_on_self():
    g = two_vertex_tree()
    iso = find_isomorphism(g, g)
    assert iso is not None
    assert iso.vertex_map == {v: v for v in g.vertices}
    assert iso.flag_map == {f: f for f in g.flags}


def test_iso_relabelled_corollas():
    g1 = corolla("v", ["a", "b", "c"])
    g2 = corolla("x", ["p", "q", "r"])
    iso = find_isomorphism(g1, g2)
    assert iso is not None
    assert is_valid_iso(g1, g2, iso)


def test_iso_different_tail_counts():
    assert find_isomorphism(corolla("v", "abc"), corolla("v", "abcd")) is None


def test_iso_label_respecting():
    g1 = corolla("v", ["a", "b", "c"])
    g2 = corolla("w", ["x", "y", "z"])
    labels1 = {"a": "1", "b": "2", "c": "3"}
    labels2 = {"x": "3", "y": "1", "z": "2"}
    iso = find_isomorphism(g1, g2, labels1, labels2)
    assert iso is not None
    fwd = iso.flag_forward()
    assert labels2[fwd["a"]] == "1" and labels2[fwd["c"]] == "3"
    # impossible labelling
    labels2_bad = {"x": "1", "y": "1", "z": "2"}
    assert find_isomorphism(g1, g2, labels1, labels2_bad) is None


def _all_small_graphs(max_flags, n_vertices):
    """Every raw graph on fixed flag/vertex name sets, exhaustively."""
    out = []
    flag_names = [f"f{i}" for i in range(max_flags)]
    vertex_names = [f"v{i}" for i in range(n_vertices)]
    for nf in range(max_flags + 1):
        fl = flag_names[:nf]
        for bdry in itertools.product(vertex_names, repeat=nf):
            boundary = dict(zip(fl, bdry))
            for invl in _involutions(fl):
                out.append(validate(fl, vertex_names, boundary, invl))
    return out


def _involutions(elems):
    if not elems:
        yield {}
        return
    first, rest = elems[0], elems[1:]
    for sub in _involutions(rest):
        yield {first: first, **sub}
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in _involutions(remaining):
            yield {first: other, other: first, **sub}


def _relabelled(g, tag):
    fmap = {f: f"{tag}{f}" for f in g.flags}
    vmap = {v: f"{tag}{v}" for v in g.vertices}
    return validate(fmap.values(), vmap.values(),
                    {fmap[f]: vmap[g.boundary[f]] for f in g.flags},
                    {fmap[f]: fmap[g.involution[f]] for f in g.flags})


def test_iso_is_equivalence_on_small_graphs():
    # reflexive on an exhaustive family (all graphs with <= 4 flags on up to 3
    # vertices, plus all graphs with <= 6 flags on up to 2 vertices); symmetric
    # and transitive along relabelled copies (witnesses invert and compose)
    family = _all_small_graphs(4, 2) + _all_small_graphs(3, 3) + \
        [g for g in _all_small_graphs(6, 2) if len(g.flags) > 4]
    for g in family:
        iso = find_isomorphism(g, g)
        assert iso is not None and is_valid_iso(g, g, iso)
    for g in family[:: 7]:
        g2 = _relabelled(g, "x")
        g3 = _relabelled(g, "yy")
        i12 = find_isomorphism(g, g2)
        i23 = find_isomorphism(g2, g3)
        assert i12 is not None and i23 is not None
        assert is_valid_iso(g2, g, i12.inverse())
        assert is_valid_iso(g, g3, i12.compose(i23))


def test_to_dot_shapes():
    assert to_dot(empty_graph()).strip() == "graph g {\n}".strip()
    dot = to_dot(corolla("v", "abc"))
    assert dot.count("__tail_") == 2 * 3  # stub declared + attached
    dot2 = to_dot(two_vertex_tree())
    assert dot2.count("--") == 1 + 4


def test_json_round_trip():
    g = two_vertex_tree()
    g2 = graph_from_json(graph_to_json(g))
    assert g == g2


# --- the search as it was before colour refinement, copied as the reference ---

def ref_vertex_signature(g, flags, labels):
    tails = [f for f in flags if g.involution[f] == f]
    tail_sig = tuple(sorted(str(labels[f]) for f in tails)) if labels is not None \
        else len(tails)
    return (len(flags), tail_sig)


def reference_find_isomorphism(g1, g2, labels1=None, labels2=None):
    """Test-local copy of the search that recounted edges per candidate."""
    if (len(g1.flags) != len(g2.flags) or len(g1.vertices) != len(g2.vertices)
            or g1.n_edges != g2.n_edges):
        return None
    at1, at2 = graphs.flags_by_vertex(g1), graphs.flags_by_vertex(g2)
    sig1 = {v: ref_vertex_signature(g1, at1[v], labels1) for v in g1.vertices}
    sig2 = {v: ref_vertex_signature(g2, at2[v], labels2) for v in g2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    verts1 = list(g1.vertices)
    vmap, used = {}, set()

    def vertex_ok(v, w):
        if sig1[v] != sig2[w]:
            return False
        for u, x in vmap.items():
            n1 = sum(1 for e in g1.edges if g1.edge_endpoints(e) == tuple(sorted((v, u))))
            n2 = sum(1 for e in g2.edges if g2.edge_endpoints(e) == tuple(sorted((w, x))))
            if n1 != n2:
                return False
        loops1 = sum(1 for e in g1.edges if g1.edge_endpoints(e) == (v, v))
        loops2 = sum(1 for e in g2.edges if g2.edge_endpoints(e) == (w, w))
        return loops1 == loops2

    def assign(i):
        if i == len(verts1):
            return ref_match_flags(g1, g2, vmap, labels1, labels2, at1, at2)
        v = verts1[i]
        for w in g2.vertices:
            if w in used or not vertex_ok(v, w):
                continue
            vmap[v] = w
            used.add(w)
            witness = assign(i + 1)
            if witness is not None:
                return witness
            del vmap[v]
            used.remove(w)
        return None

    return assign(0)


def ref_match_flags(g1, g2, vmap, labels1, labels2, at1, at2):
    """Extend a vertex bijection to a flag bijection, or fail."""
    fwd = {}
    for v in g1.vertices:
        t1 = [f for f in at1[v] if g1.involution[f] == f]
        t2 = [f for f in at2[vmap[v]] if g2.involution[f] == f]
        if len(t1) != len(t2):
            return None
        if labels1 is not None:
            by_label = {str(labels2[f]): f for f in t2}
            try:
                pairing = [(f, by_label[str(labels1[f])]) for f in t1]
            except KeyError:
                return None
        else:
            pairing = list(zip(sorted(t1), sorted(t2)))
        fwd.update(pairing)

    buckets1, buckets2 = {}, {}
    for e in g1.edges:
        buckets1.setdefault(g1.edge_endpoints(e), []).append(sorted(e))
    for e in g2.edges:
        buckets2.setdefault(g2.edge_endpoints(e), []).append(sorted(e))
    for key1, group1 in sorted(buckets1.items()):
        u, w = key1
        group2 = buckets2.get(tuple(sorted((vmap[u], vmap[w]))), [])
        if len(group1) != len(group2):
            return None
        matched = ref_pair_edge_group(g1, g2, vmap, sorted(group1), sorted(group2))
        if matched is None:
            return None
        fwd.update(matched)

    if len(fwd) != len(g1.flags):
        return None
    iso = graphs.GraphIso(dict(vmap), {v: k for k, v in fwd.items()})
    if not ref_is_valid_iso(g1, g2, iso, labels1, labels2):
        return None
    return iso


def ref_is_valid_iso(g1, g2, iso, labels1=None, labels2=None):
    vm, fm = iso.vertex_map, iso.flag_map
    if sorted(vm) != list(g1.vertices) or sorted(set(vm.values())) != list(g2.vertices):
        return False
    if sorted(fm) != list(g2.flags) or sorted(set(fm.values())) != list(g1.flags):
        return False
    fwd = iso.flag_forward()
    for f in g1.flags:
        if g2.boundary[fwd[f]] != vm[g1.boundary[f]]:
            return False
        if fwd[g1.involution[f]] != g2.involution[fwd[f]]:
            return False
    if labels1 is not None:
        for f in g1.tails:
            if labels1[f] != labels2[fwd[f]]:
                return False
    return True


def ref_pair_edge_group(g1, g2, vmap, group1, group2):
    """Match parallel edges between one endpoint pair (tiny brute force)."""
    if not group1:
        return {}
    for perm in itertools.permutations(range(len(group2))):
        fwd = {}
        ok = True
        for (h1a, h1b), j in zip(group1, perm):
            h2a, h2b = group2[j]
            if vmap[g1.boundary[h1a]] == g2.boundary[h2a] and \
               vmap[g1.boundary[h1b]] == g2.boundary[h2b]:
                fwd[h1a], fwd[h1b] = h2a, h2b
            elif vmap[g1.boundary[h1a]] == g2.boundary[h2b] and \
                 vmap[g1.boundary[h1b]] == g2.boundary[h2a]:
                fwd[h1a], fwd[h1b] = h2b, h2a
            else:
                ok = False
                break
        if ok:
            return fwd
    return None


def _renamed(g, labels, rng):
    """A copy of g with vertex and flag names shuffled, and its tail labels."""
    vnames = dict(zip(g.vertices, rng.sample(range(len(g.vertices)), len(g.vertices))))
    fnames = dict(zip(g.flags, rng.sample(range(len(g.flags)), len(g.flags))))
    v = {old: f"w{i}" for old, i in vnames.items()}
    f = {old: f"g{i}" for old, i in fnames.items()}
    h = validate(f.values(), v.values(), {f[x]: v[g.boundary[x]] for x in g.flags},
                 {f[x]: f[g.involution[x]] for x in g.flags})
    return h, {f[x]: lab for x, lab in labels.items()}


def test_find_isomorphism_keeps_its_witness_on_renamed_strata():
    rng = random.Random(6)
    all_strata = [s for group in strata.enumerate_strata([1, 2, 3, 4, 5, 6]).values()
                  for s in group]
    assert len(all_strata) == 236
    for s in all_strata:
        g, labels = s.tree.graph, s.tree.tail_labels
        h, h_labels = _renamed(g, labels, rng)
        for args in ((g, h, labels, h_labels), (g, h), (h, g)):
            witness = find_isomorphism(*args)
            assert witness is not None and is_valid_iso(*args[:2], witness, *args[2:])
            assert witness == reference_find_isomorphism(*args)


SMALL_FAMILY = _all_small_graphs(4, 2) + _all_small_graphs(3, 3) + \
    [g for g in _all_small_graphs(6, 2) if len(g.flags) > 4]


def _with_neighbours():
    """Each graph of the family with the next one of the same flag, vertex and
    edge counts (mostly not isomorphic to it)."""
    by_shape = {}
    for g in SMALL_FAMILY:
        by_shape.setdefault((len(g.flags), len(g.vertices), g.n_edges), []).append(g)
    for group in by_shape.values():
        yield from zip(group, group[1:] + group[:1])


def _tail_labels(g, rng, distinct):
    """Distinct tail labels, or labels from a two-letter alphabet that may repeat."""
    if distinct:
        return dict(zip(g.tails, rng.sample(range(len(g.tails)), len(g.tails))))
    return {t: rng.choice("xy") for t in g.tails}


def _same_answer(g, h, labels=None, h_labels=None):
    for args in ((g, h, labels, h_labels), (h, g, h_labels, labels)):
        got = find_isomorphism(*args)
        assert got == reference_find_isomorphism(*args), (args[0], args[1])
        if got is not None:
            assert is_valid_iso(*args[:2], got, *args[2:])


def test_find_isomorphism_matches_reference_on_every_small_graph():
    # every graph against a renamed copy of itself and of its neighbour
    rng = random.Random(14)
    assert len(SMALL_FAMILY) == 6029
    for g, nb in _with_neighbours():
        _same_answer(g, _renamed(g, {}, rng)[0])
        _same_answer(g, _renamed(nb, {}, rng)[0])


def test_find_isomorphism_matches_reference_on_every_small_labelled_graph():
    # labelled copies, copies with the labels shuffled, and labelled
    # neighbours; graphs alternate between distinct and repeating labels
    rng = random.Random(15)
    for i, (g, nb) in enumerate(_with_neighbours()):
        labels = _tail_labels(g, rng, distinct=i % 2 == 0)
        h, h_labels = _renamed(g, labels, rng)
        _same_answer(g, h, labels, h_labels)
        shuffled = dict(zip(h_labels, rng.sample(list(h_labels.values()), len(h_labels))))
        _same_answer(g, h, labels, shuffled)
        if nb.n_tails == g.n_tails:
            k, k_labels = _renamed(nb, dict(zip(nb.tails, labels.values())), rng)
            _same_answer(g, k, labels, k_labels)


def test_two_equally_labelled_tails_at_one_vertex_have_no_witness():
    g = corolla("v", ["a", "b", "c"])
    labels = {"a": 1, "b": 1, "c": 2}
    assert find_isomorphism(g, g, labels, labels) is None
    assert reference_find_isomorphism(g, g, labels, labels) is None
    h = validate(["a", "b", "c", "p", "q", "r"], ["u", "w"],
                 {"a": "u", "b": "u", "p": "u", "c": "w", "q": "w", "r": "w"},
                 {"a": "a", "b": "b", "c": "c", "p": "q", "q": "p", "r": "r"})
    h_labels = {"a": 0, "b": 0, "c": 1, "r": 2}
    h2, h2_labels = _renamed(h, h_labels, random.Random(3))
    for args in ((h, h, h_labels, h_labels), (h, h2, h_labels, h2_labels)):
        assert find_isomorphism(*args) is None
        assert reference_find_isomorphism(*args) is None


# --- structure_report as it was with a union-find, copied as the reference ---

def ref_union_find_components(g):
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    cyclic = False
    for edge in sorted(g.edges, key=sorted):
        u, w = (g.boundary[f] for f in sorted(edge))
        if u == w:
            cyclic = True
            continue
        ru, rw = find(u), find(w)
        if ru == rw:
            cyclic = True
        else:
            parent[max(ru, rw)] = min(ru, rw)

    comps = {}
    for v in g.vertices:
        comps.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(c)) for c in sorted(comps.values())), cyclic


def reference_structure_report(g):
    components, cyclic = ref_union_find_components(g)
    mult = {v: len(flags) for v, flags in graphs.flags_by_vertex(g).items()}
    return graphs.StructureReport(
        edges=g.n_edges, tails=g.n_tails, components=components, is_tree=not cyclic,
        is_stable=not cyclic and all(m >= 3 for m in mult.values()),
        is_corolla=len(g.vertices) == 1 and not g.edges, vertex_multiplicities=mult)


def test_structure_report_matches_union_find_on_every_small_graph():
    # loops and parallel edges included; the empty graph has no components
    for g in [empty_graph(), *SMALL_FAMILY]:
        got, want = structure_report(g), reference_structure_report(g)
        for name in ("edges", "tails", "components", "is_tree", "is_stable", "is_corolla",
                     "vertex_multiplicities"):
            assert getattr(got, name) == getattr(want, name), (g, name)
        assert list(got.vertex_multiplicities) == list(want.vertex_multiplicities)


# --- the spanning forest ------------------------------------------------------

@st.composite
def multigraphs(draw):
    """Small multigraphs with loops, parallel edges, tails and isolated
    vertices; vertex names whose lexicographic order is not their index order."""
    n = draw(st.integers(0, 7))
    names = draw(st.permutations([f"v{i}" for i in (0, 1, 2, 10, 11, 20, 3)]))[:n]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=8)) if n else []
    tails = draw(st.lists(st.integers(0, n - 1), max_size=5)) if n else []
    boundary, involution = {}, {}
    for i, (u, w) in enumerate(pairs):
        boundary[f"e{i}a"], boundary[f"e{i}b"] = names[u], names[w]
        involution[f"e{i}a"], involution[f"e{i}b"] = f"e{i}b", f"e{i}a"
    for i, u in enumerate(tails):
        boundary[f"t{i}"], involution[f"t{i}"] = names[u], f"t{i}"
    return validate(boundary, names, boundary, involution)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(multigraphs())
def test_spanning_forest_walks_partition_and_parents_come_earlier(g):
    walks, parent = spanning_forest(g)
    assert sorted(v for walk in walks for v in walk) == list(g.vertices)
    assert parent.keys() == set(g.vertices)
    starts = [walk[0] for walk in walks]
    assert starts == sorted(starts)                 # each at the least vertex not yet reached
    for walk in walks:
        assert walk[0] == min(walk) and parent[walk[0]] is None
        for i, v in enumerate(walk[1:], 1):
            p, e = parent[v]
            assert e in g.edges and sorted(g.boundary[f] for f in e) == sorted((p, v))
            assert p in walk[:i]
    rep = structure_report(g)
    assert rep.components == tuple(tuple(sorted(walk)) for walk in walks)
    assert rep.is_tree == (g.n_edges == len(g.vertices) - len(walks))
