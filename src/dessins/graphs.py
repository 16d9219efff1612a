"""Combinatorial graphs given by flags, vertices, a boundary map and an involution.

A graph is a pair of finite sets (flags, vertices) with a total boundary map
flags -> vertices and an involution flags -> flags.  Two-element orbits of the
involution are edges, fixed flags are tails (leaves).  All values are immutable
after validation and every operation here is a pure function.

Identifiers are opaque strings; canonical ordering is lexicographic, so all
outputs but the visiting order in a walk of `spanning_forest` are the same on
every run.  A disjoint union takes any number of parts, namespaces part i with
the prefix "i." and validates only the union; `flags_by_vertex` is the one
index of the flags at each vertex.
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

    Raises InvolutionNotInvolutive, BoundaryNotTotal or DanglingFlagReference
    on malformed input.
    """
    flag_list = tuple(sorted(str(f) for f in flags))
    vertex_list = tuple(sorted(str(v) for v in vertices))
    flag_set, vertex_set = set(flag_list), set(vertex_list)
    if len(flag_set) != len(flag_list):
        raise GraphError("duplicate flag identifiers")
    if len(vertex_set) != len(vertex_list):
        raise GraphError("duplicate vertex identifiers")

    bdry = {str(k): str(v) for k, v in dict(boundary).items()}
    invl = {str(k): str(v) for k, v in dict(involution).items()}

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
    missing = flag_set - set(invl)
    if missing:
        raise BoundaryNotTotal(f"involution not total, missing: {sorted(missing)}")
    for f in flag_list:
        if invl[invl[f]] != f:
            raise InvolutionNotInvolutive(f"involution squared moves {f!r}")

    edges = frozenset(frozenset((f, invl[f])) for f in flag_list if invl[f] != f)
    tails = tuple(f for f in flag_list if invl[f] == f)
    return CombinatorialGraph(flag_list, vertex_list, bdry, invl, edges, tails)


def graph_from_json(text_or_obj) -> CombinatorialGraph:
    """Build a graph from the JSON schema {flags, vertices, boundary, involution}."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, (str, bytes)) else text_or_obj
    return validate(obj["flags"], obj["vertices"], obj["boundary"], obj["involution"])


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


def _colours_and_neighbours(g: CombinatorialGraph, labels):
    """Each vertex's first colour, its degree and sorted tail labels (or tail
    count), and the far end of each edge half at it (a loop gives v twice)."""
    inv, bdry = g.involution, g.boundary
    colours, nbrs = {}, {}
    for v, flags in flags_by_vertex(g).items():
        tails = [f for f in flags if inv[f] == f]
        colours[v] = (len(flags), len(tails) if labels is None
                      else tuple(sorted(str(labels[f]) for f in tails)))
        nbrs[v] = [bdry[inv[f]] for f in flags if inv[f] != f]
    return colours, nbrs


def find_isomorphism(g1: CombinatorialGraph, g2: CombinatorialGraph,
                     labels1=None, labels2=None) -> GraphIso | None:
    """Search for an isomorphism witness, or return None.

    When tail label maps are supplied, the witness must carry each tail of g1
    to the tail of g2 with the same label.  Vertices are first coloured by
    degree and sorted tail labels (or tail count), and the colours refined by
    the multiset of neighbour colours until no class splits; an isomorphism
    keeps colours, so each vertex is tried only against the images of its own
    colour.  The search assigns vertices in lexicographic order trying
    lexicographically least images first, so the witness is deterministic
    (and the identity when g1 is g2): the first vertex map in that order that
    extends to an isomorphism, whatever the refinement pruned.  Label maps
    come for both graphs or for neither (else GraphError).
    """
    _both_or_neither(labels1, labels2)
    if (len(g1.flags) != len(g2.flags) or len(g1.vertices) != len(g2.vertices)
            or g1.n_edges != g2.n_edges):
        return None
    col1, nbrs1 = _colours_and_neighbours(g1, labels1)
    col2, nbrs2 = _colours_and_neighbours(g2, labels2)
    n_classes = 0
    while True:
        # flat integer class ids, shared by both graphs within a round
        ids: dict = {}
        col1 = {v: ids.setdefault(key, len(ids)) for v, key in col1.items()}
        col2 = {v: ids.setdefault(key, len(ids)) for v, key in col2.items()}
        if sorted(col1.values()) != sorted(col2.values()):
            return None
        if len(ids) == n_classes or len(ids) == len(col1):
            break
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
            return _match_flags(g1, g2, vmap, labels1, labels2)
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


def _match_flags(g1, g2, vmap, labels1, labels2):
    """Extend a vertex bijection to a flag bijection, or fail.

    Tails pair by (image vertex, label), or without labels the k-th tail at a
    vertex with the k-th at its image; edges pair by sorted endpoint pair, in
    sorted order, each oriented by its endpoints.
    """
    b1, b2 = g1.boundary, g2.boundary
    if labels1 is None:
        spare: dict[str, list[str]] = {}
        for f in reversed(g2.tails):
            spare.setdefault(b2[f], []).append(f)
        fwd = {f: spare[vmap[b1[f]]].pop() for f in g1.tails}
    else:
        by_label = {(b2[f], str(labels2[f])): f for f in g2.tails}
        try:
            fwd = {f: by_label[vmap[b1[f]], str(labels1[f])] for f in g1.tails}
        except KeyError:
            return None
    edges2: dict[tuple, list] = {}
    for e in sorted((sorted(e) for e in g2.edges), reverse=True):
        edges2.setdefault(g2.edge_endpoints(e), []).append(e)
    for a, b in sorted(sorted(e) for e in g1.edges):
        group = edges2.get(tuple(sorted((vmap[b1[a]], vmap[b1[b]]))))
        if not group:
            return None
        c, d = group.pop()
        fwd[a], fwd[b] = (c, d) if vmap[b1[a]] == b2[c] else (d, c)
    iso = GraphIso(dict(vmap), {v: k for k, v in fwd.items()})
    if not is_valid_iso(g1, g2, iso, labels1, labels2):
        return None
    return iso


def to_dot(g: CombinatorialGraph, tail_labels=None, name: str = "g") -> str:
    """DOT text; tails are drawn as half-edges to anonymous point nodes."""
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in sorted(g.edges, key=sorted):
        u, w = (g.boundary[f] for f in sorted(e))
        lines.append(f'  "{u}" -- "{w}";')
    for t in g.tails:
        stub = f"__tail_{t}"
        lines.append(f'  "{stub}" [shape=point, label=""];')
        label = "" if tail_labels is None else f' [label="{tail_labels[t]}"]'
        lines.append(f'  "{g.boundary[t]}" -- "{stub}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"
