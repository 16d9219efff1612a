"""Combinatorial graphs given by flags, vertices, a boundary map and an involution.

A graph is a pair of finite sets (flags, vertices) with a total boundary map
flags -> vertices and an involution flags -> flags.  Two-element orbits of the
involution are edges, fixed flags are tails (leaves).  All values are immutable
after validation and every operation here is a pure function.

Identifiers are opaque strings; canonical ordering is lexicographic, so all
outputs but the visiting order in a walk of `spanning_forest` are the same on
every run.  A disjoint union takes any number of parts, namespaces part i with
the prefix "i." and validates only the union; `flags_by_vertex` indexes the
flags at each vertex.

Each read of a graph is one pass.  `validate` checks containment and totality
as set operations (per-entry loops run only to name the first fault), then
checks the involution and derives edges and tails in one loop over the sorted
flags.  `find_isomorphism` takes each graph's colours, tails and edges from
one pass over its flags; when colour refinement leaves every class a single
vertex the vertex map is forced and goes straight to flag matching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Malformed graph data."""


class InvolutionNotInvolutive(GraphError):
    pass


class BoundaryNotTotal(GraphError):
    pass


class DanglingFlagReference(GraphError):
    pass


@dataclass(frozen=True)
class CombinatorialGraph:
    """Validated graph with cached derived structure (edges and tails)."""

    flags: tuple[str, ...]
    vertices: tuple[str, ...]
    boundary: dict[str, str]
    involution: dict[str, str]
    edges: frozenset[frozenset[str]] = field(compare=False)
    tails: tuple[str, ...] = field(compare=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_tails(self) -> int:
        return len(self.tails)

    def edge_endpoints(self, edge) -> tuple[str, ...]:
        return tuple(sorted(self.boundary[f] for f in edge))

    def __repr__(self):
        return (f"CombinatorialGraph({len(self.vertices)} vertices, "
                f"{self.n_edges} edges, {self.n_tails} tails)")


def validate(flags, vertices, boundary, involution) -> CombinatorialGraph:
    """Check raw graph data and return a graph with derived sets cached.

    Raises GraphError on duplicate names or map keys that print alike, then
    DanglingFlagReference, BoundaryNotTotal or InvolutionNotInvolutive.
    Containment and totality are set operations; only when one fails do
    `_first_fault`'s per-entry loops run, to name the first fault.  One loop
    over the sorted flags then checks the involution and builds edges and tails.
    """
    flag_list = tuple(sorted([str(f) for f in flags]))
    vertex_list = tuple(sorted([str(v) for v in vertices]))
    flag_set, vertex_set = set(flag_list), set(vertex_list)
    if len(flag_set) != len(flag_list):
        raise GraphError("duplicate flag identifiers")
    if len(vertex_set) != len(vertex_list):
        raise GraphError("duplicate vertex identifiers")
    bdry = _text_map(boundary, "boundary")
    invl = _text_map(involution, "involution")
    if not (len(bdry) == len(invl) == len(flag_set) and flag_set.issuperset(bdry)
            and flag_set.issuperset(invl) and vertex_set.issuperset(bdry.values())
            and flag_set.issuperset(invl.values())):
        _first_fault(flag_set, vertex_set, bdry, invl)

    edges, tails = [], []
    for f in flag_list:
        g = invl[f]
        if g == f:
            tails.append(f)
        elif invl[g] != f:
            raise InvolutionNotInvolutive(f"involution squared moves {f!r}")
        elif f < g:
            edges.append(frozenset((f, g)))
    return CombinatorialGraph(flag_list, vertex_list, bdry, invl, frozenset(edges),
                              tuple(tails))


def _text_map(mapping, name) -> dict[str, str]:
    """A map with its keys and values as text, refusing keys that print alike."""
    mapping = mapping if isinstance(mapping, dict) else dict(mapping)
    out = {str(k): str(v) for k, v in mapping.items()}
    if len(out) != len(mapping):
        seen = {}
        for k in mapping:
            if seen.setdefault(str(k), k) is not k:
                raise GraphError(f"{name} keys {seen[str(k)]!r} and {k!r} "
                                 f"share the name {str(k)!r}")
    return out


def _first_fault(flag_set, vertex_set, bdry, invl):
    """Raise the first fault of maps that are not total on the flags or reach
    outside them, in the order of the per-entry checks."""
    for f in bdry:
        if f not in flag_set:
            raise DanglingFlagReference(f"boundary defined on unknown flag {f!r}")
    for f, v in bdry.items():
        if v not in vertex_set:
            raise DanglingFlagReference(f"boundary of {f!r} is unknown vertex {v!r}")
    for f, g in invl.items():
        if f not in flag_set:
            raise DanglingFlagReference(f"involution defined on unknown flag {f!r}")
        if g not in flag_set:
            raise DanglingFlagReference(f"involution of {f!r} is unknown flag {g!r}")
    missing = flag_set - set(bdry)
    if missing:
        raise BoundaryNotTotal(f"flags without boundary vertex: {sorted(missing)}")
    raise BoundaryNotTotal(f"involution not total, missing: {sorted(flag_set - set(invl))}")


def graph_from_json(text_or_obj) -> CombinatorialGraph:
    """Build a graph from the JSON schema {flags, vertices, boundary, involution}."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, (str, bytes)) else text_or_obj
    try:
        raw = obj["flags"], obj["vertices"], obj["boundary"], obj["involution"]
    except KeyError as exc:
        raise GraphError(f"graph JSON is missing the key {exc.args[0]!r}") from None
    return validate(*raw)


def graph_to_json(g: CombinatorialGraph) -> dict:
    return {
        "flags": list(g.flags),
        "vertices": list(g.vertices),
        "boundary": dict(sorted(g.boundary.items())),
        "involution": dict(sorted(g.involution.items())),
    }


def corolla(vertex: str, tail_names) -> CombinatorialGraph:
    """One vertex, no edges, the given flags all fixed by the involution."""
    tails = [str(t) for t in tail_names]
    return validate(tails, [vertex], {t: vertex for t in tails}, {t: t for t in tails})


def empty_graph() -> CombinatorialGraph:
    return validate([], [], {}, {})


@dataclass(frozen=True)
class StructureReport:
    edges: int
    tails: int
    components: tuple[tuple[str, ...], ...]
    is_tree: bool
    is_stable: bool
    is_corolla: bool
    vertex_multiplicities: dict[str, int]

    @property
    def n_components(self) -> int:
        return len(self.components)


def flags_by_vertex(g: CombinatorialGraph) -> dict[str, list[str]]:
    """Each vertex's flags in flag order; build it once per graph read."""
    at: dict[str, list[str]] = {v: [] for v in g.vertices}
    for f in g.flags:
        at[g.boundary[f]].append(f)
    return at


def spanning_forest(g: CombinatorialGraph):
    """Breadth-first walks that span g: each starts at the least vertex not yet
    reached and lists its component in visiting order.  Returns the walks and
    each vertex's (parent vertex, edge), or None where a walk starts.  The
    walks' vertex sets and starts are canonical; the visiting order after
    each start follows the iteration order of `g.edges`."""
    bdry = g.boundary
    nbrs = {v: [] for v in g.vertices}
    for e in g.edges:
        a, b = e
        nbrs[bdry[a]].append((bdry[b], e))
        nbrs[bdry[b]].append((bdry[a], e))
    parent, walks = {}, []
    for start in g.vertices:
        if start in parent:
            continue
        parent[start] = None
        walk = [start]
        for v in walk:
            for w, e in nbrs[v]:
                if w not in parent:
                    parent[w] = (v, e)
                    walk.append(w)
        walks.append(walk)
    return walks, parent


def structure_report(g: CombinatorialGraph) -> StructureReport:
    """Connectivity, treeness, stability and multiplicities of a validated graph.

    The components are the walks of `spanning_forest`.  A multigraph is a
    forest ("tree" here, component by component) exactly when E = V - C, so
    a loop or two parallel edges make a cycle; stability asks every vertex to
    bound at least three flags and every component to be a tree.
    """
    walks, _ = spanning_forest(g)
    mult = {v: len(flags) for v, flags in flags_by_vertex(g).items()}
    is_tree = g.n_edges == len(g.vertices) - len(walks)
    is_stable = is_tree and all(m >= 3 for m in mult.values())
    is_corolla = len(g.vertices) == 1 and not g.edges
    return StructureReport(
        edges=g.n_edges,
        tails=g.n_tails,
        components=tuple(tuple(sorted(w)) for w in walks),
        is_tree=is_tree,
        is_stable=is_stable,
        is_corolla=is_corolla,
        vertex_multiplicities=mult,
    )


def disjoint_union_with_maps(*parts: CombinatorialGraph):
    """Disjoint union of any number of graphs, validated once.

    Part i's flags and vertices are namespaced with the prefix "i.", so the
    parts may share names; returns the union, then each part's flag renaming.
    """
    flags, vertices, boundary, involution, fmaps = [], [], {}, {}, []
    for i, p in enumerate(parts):
        fmap = {f: f"{i}.{f}" for f in p.flags}
        fmaps.append(fmap)
        flags.extend(fmap.values())
        vertices.extend(f"{i}.{v}" for v in p.vertices)
        boundary.update({fmap[f]: f"{i}.{p.boundary[f]}" for f in p.flags})
        involution.update({fmap[f]: fmap[p.involution[f]] for f in p.flags})
    return (validate(flags, vertices, boundary, involution), *fmaps)


def disjoint_union(g1: CombinatorialGraph, g2: CombinatorialGraph) -> CombinatorialGraph:
    """Disjoint union; identifiers are namespaced so inputs may share names."""
    return disjoint_union_with_maps(g1, g2)[0]


@dataclass(frozen=True)
class GraphIso:
    """Witness of an isomorphism g1 -> g2.

    vertex_map sends vertices of g1 to vertices of g2 (covariant) and flag_map
    sends flags of g2 back to flags of g1 (contravariant), compatibly with
    boundaries and involutions.
    """

    vertex_map: dict[str, str]
    flag_map: dict[str, str]

    def flag_forward(self) -> dict[str, str]:
        return {v: k for k, v in self.flag_map.items()}

    def inverse(self) -> "GraphIso":
        return GraphIso({v: k for k, v in self.vertex_map.items()},
                        {v: k for k, v in self.flag_map.items()})

    def compose(self, other: "GraphIso") -> "GraphIso":
        """Witness for g1 -> g3 given self: g1 -> g2 and other: g2 -> g3."""
        return GraphIso({v: other.vertex_map[w] for v, w in self.vertex_map.items()},
                        {f: self.flag_map[g] for f, g in other.flag_map.items()})


def _both_or_neither(labels1, labels2):
    if (labels1 is None) != (labels2 is None):
        raise GraphError("tail labels must be given for both graphs or for neither")


def is_valid_iso(g1: CombinatorialGraph, g2: CombinatorialGraph, iso: GraphIso,
                 labels1=None, labels2=None) -> bool:
    _both_or_neither(labels1, labels2)
    vm, fm = iso.vertex_map, iso.flag_map
    if vm.keys() != set(g1.vertices) or set(vm.values()) != set(g2.vertices):
        return False
    if fm.keys() != set(g2.flags) or set(fm.values()) != set(g1.flags):
        return False
    return _preserves(g1, g2, vm, iso.flag_forward(), labels1, labels2)


def _preserves(g1, g2, vm, fwd, labels1, labels2) -> bool:
    """Whether flag bijection fwd: g1 -> g2 over vertex map vm keeps
    boundaries, the involution and (when given) tail labels."""
    b1, b2, i1, i2 = g1.boundary, g2.boundary, g1.involution, g2.involution
    for f in g1.flags:
        h = fwd[f]
        if b2[h] != vm[b1[f]] or fwd[i1[f]] != i2[h]:
            return False
    if labels1 is not None:
        try:
            for f in g1.tails:
                if labels1[f] != labels2[fwd[f]]:
                    return False
        except KeyError as exc:
            raise GraphError(f"no tail label for tail {exc.args[0]!r}") from None
    return True


def _read_flags(g: CombinatorialGraph, labels):
    """One pass over the sorted flags.  Returns each vertex's first colour
    (its degree, then its sorted tail label texts or its tail count), its
    tails (keyed by vertex, label type and label text, or listed in order
    without labels), and each endpoint pair's edges as (lesser flag, greater
    flag) in order."""
    bdry, inv = g.boundary, g.involution
    at = {v: [] for v in g.vertices}        # tail flags, or their label texts
    degree = dict.fromkeys(g.vertices, 0)
    tails, edges = {}, {}
    try:
        for f in g.flags:
            v, h = bdry[f], inv[f]
            degree[v] += 1
            if h == f:
                if labels is None:
                    at[v].append(f)
                else:
                    label = labels[f]
                    text = str(label)
                    at[v].append(text)
                    tails[v, type(label), text] = f
            elif f < h:
                w = bdry[h]
                edges.setdefault((v, w) if v <= w else (w, v), []).append((f, h))
    except KeyError as exc:
        raise GraphError(f"no tail label for tail {exc.args[0]!r}") from None
    if labels is None:
        return {v: (degree[v], len(t)) for v, t in at.items()}, at, edges
    return {v: (degree[v], *sorted(t)) for v, t in at.items()}, tails, edges


def _neighbours(g: CombinatorialGraph, edges):
    """The far end of each edge half at each vertex (a loop gives v twice)."""
    nbrs = {v: [] for v in g.vertices}
    for (u, w), group in edges.items():
        nbrs[u] += [w] * len(group)
        nbrs[w] += [u] * len(group)
    return nbrs


def find_isomorphism(g1: CombinatorialGraph, g2: CombinatorialGraph,
                     labels1=None, labels2=None) -> GraphIso | None:
    """Search for an isomorphism witness, or return None.

    When tail label maps are supplied, the witness must carry each tail of g1
    to the tail of g2 with the same label.  Vertices are first coloured by
    degree and sorted tail labels (or tail count), and the colours refined by
    the multiset of neighbour colours until no class splits; an isomorphism
    keeps colours, so each vertex is tried only against the images of its own
    colour.  When every class is one vertex the map is forced and goes
    straight to flag matching.  Otherwise the search assigns vertices in
    lexicographic order trying lexicographically least images first, so the
    witness is deterministic (and the identity when g1 is g2): the first
    vertex map in that order that extends to an isomorphism, whatever the
    refinement pruned.  Label maps come for both graphs or for neither (else
    GraphError, as for a map that misses a tail).
    """
    _both_or_neither(labels1, labels2)
    if (len(g1.flags) != len(g2.flags) or len(g1.vertices) != len(g2.vertices)
            or g1.n_edges != g2.n_edges):
        return None
    col1, tails1, edges1 = _read_flags(g1, labels1)
    col2, tails2, edges2 = _read_flags(g2, labels2)
    halves = tails1, edges1, tails2, edges2
    n_classes = 0
    while True:
        # flat integer class ids, shared by both graphs within a round
        ids: dict = {}
        col1 = {v: ids.setdefault(key, len(ids)) for v, key in col1.items()}
        col2 = {v: ids.setdefault(key, len(ids)) for v, key in col2.items()}
        if sorted(col1.values()) != sorted(col2.values()):
            return None
        if len(ids) == len(col1):
            # every class is one vertex: the search could only find this map
            image = {c: w for w, c in col2.items()}
            vmap = {v: image[c] for v, c in col1.items()}
            return _match_flags(g1, g2, vmap, halves, labels1, labels2)
        if len(ids) == n_classes:
            break
        if not n_classes:       # refinement and the search need neighbours
            nbrs1, nbrs2 = _neighbours(g1, edges1), _neighbours(g2, edges2)
        n_classes = len(ids)
        col1 = {v: (c, tuple(sorted(col1[u] for u in nbrs1[v]))) for v, c in col1.items()}
        col2 = {v: (c, tuple(sorted(col2[u] for u in nbrs2[v]))) for v, c in col2.items()}
    images: dict[int, list[str]] = {}
    for w in g2.vertices:
        images.setdefault(col2[w], []).append(w)

    verts1 = g1.vertices
    vmap: dict[str, str] = {}
    used: set[str] = set()

    def edges_ok(v, w):
        # edge counts towards already-assigned vertices, and loops, must agree
        n1, n2 = nbrs1[v], nbrs2[w]
        return n1.count(v) == n2.count(w) and all(
            n1.count(u) == n2.count(x) for u, x in vmap.items())

    def assign(i):
        if i == len(verts1):
            return _match_flags(g1, g2, vmap, halves, labels1, labels2)
        v = verts1[i]
        options = images[col1[v]]
        for w in options:
            if w in used or (len(options) > 1 and not edges_ok(v, w)):
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


def _match_flags(g1, g2, vmap, halves, labels1, labels2):
    """Extend a vertex bijection to a flag bijection, or fail.

    Tails pair by (image vertex, label type, label text), or without labels
    the k-th tail at a vertex with the k-th at its image; the k-th edge
    between two vertices, in sorted order, pairs with the k-th between their
    images, each oriented by its endpoints.  The halves are `_read_flags`'s
    tails and edges of g1, then of g2.  The map is checked once before it
    becomes a witness.
    """
    tails1, edges1, tails2, edges2 = halves
    b1, b2 = g1.boundary, g2.boundary
    fwd = {}
    if labels1 is None:
        for v, flags in tails1.items():
            fwd.update(zip(flags, tails2[vmap[v]]))
    else:
        for (v, kind, text), f in tails1.items():
            h = tails2.get((vmap[v], kind, text))
            if h is None:
                return None
            fwd[f] = h
    for (u, w), group in edges1.items():
        x, y = vmap[u], vmap[w]
        group2 = edges2.get((x, y) if x <= y else (y, x), ())
        if len(group2) != len(group):
            return None
        for (a, b), (c, d) in zip(group, group2):
            fwd[a], fwd[b] = (c, d) if vmap[b1[a]] == b2[c] else (d, c)
    # distinct tail keys, vertices and edge groups reach distinct flags, so
    # the map is one-to-one once it covers every flag
    if len(fwd) != len(g1.flags):
        return None
    if not _preserves(g1, g2, vmap, fwd, labels1, labels2):
        return None
    return GraphIso(dict(vmap), {v: k for k, v in fwd.items()})


def _dot_text(name) -> str:
    """A name's text for a double-quoted DOT ID, backslashes and quotes escaped."""
    text = f"{name}"
    if '"' in text or "\\" in text:
        return text.replace("\\", "\\\\").replace('"', '\\"')
    return text


def to_dot(g: CombinatorialGraph, tail_labels=None, name: str = "g") -> str:
    """DOT text; tails are drawn as half-edges to anonymous point nodes."""
    bdry = g.boundary
    ids = {v: _dot_text(v) for v in g.vertices}
    lines = [f"graph {name} {{"]
    lines.extend(f'  "{i}";' for i in ids.values())
    for a, b in sorted(sorted(e) for e in g.edges):
        lines.append(f'  "{ids[bdry[a]]}" -- "{ids[bdry[b]]}";')
    for t in g.tails:
        stub = f"__tail_{_dot_text(t)}"
        lines.append(f'  "{stub}" [shape=point, label=""];')
        label = "" if tail_labels is None else f' [label="{_dot_text(tail_labels[t])}"]'
        lines.append(f'  "{ids[bdry[t]]}" -- "{stub}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"
