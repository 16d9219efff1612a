"""Boundary strata of genus-zero moduli spaces as stable S-labelled trees.

A stratum is a connected stable tree whose tails are labelled bijectively by a
finite set S; its codimension is the edge count and its dimension is
|S| - 3 - codim.  Cutting an edge splits S in two, and the set of these
label bipartitions ("splits") fixes the tree up to label-respecting
isomorphism (Keel 1992).  A `Stratum` stores exactly that set: each split
is the side without the anchor (the least label), as a bitmask over the
labels in `_labelkey` order.  Two splits lie in one tree exactly when they
are disjoint or nested, so enumeration, contraction, projection, grafting
and the substratum order are set operations.
Projection and grafting stay on masks: a bit table sends each old label's bit
to its new bit (or to 0 when the label is forgotten, or to the other
stratum's labels at the grafting site), and `_remap` rewrites a split
through it.  Grafting builds its table per call and remaps every split.
Projection is one lookup per split in the split images of `_projector`,
kept per (label order, target set): each image is remapped on the split's
first lookup and kept, and is 0 for a split the projection contracts.
Those entries hold positions, bits and masks but no label.  The
string-flag view of a stratum is built on first access and kept on the
instance: its graph and edge splits come from `_split_graph`, kept per
(label count, splits) and shared by every stratum with those splits, and
its tail-label map is a new dict of the stratum's own labels, never shared.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache, partial
from operator import itemgetter

from dessins import graphs
from dessins.graphs import CombinatorialGraph, _dot_name, _dot_text, spanning_forest, validate


class StrataError(ValueError):
    pass


class TooSmall(StrataError):
    pass


class TargetTooSmall(StrataError):
    pass


class NoSuchEdge(StrataError):
    pass


class LabelSetMismatch(StrataError):
    pass


class LabelCollision(StrataError):
    pass


class NotCaterpillar(StrataError):
    pass


class UnstableComponent(StrataError):
    pass


class NotATreeOfComponents(StrataError):
    pass


class DuplicateComponent(StrataError):
    pass


def _labelkey(x):
    return (type(x).__name__, x)


def _mask(order, side) -> int:
    """Bitmask over `order` of a bipartition, as the side without order[0]."""
    bits = sum(1 << i for i, lab in enumerate(order) if lab in side)
    return bits ^ ((1 << len(order)) - 1) if bits & 1 else bits


def _side(order, mask) -> frozenset:
    return frozenset(lab for i, lab in enumerate(order) if mask >> i & 1)


def _remap(mask, bits) -> int:
    """Union of bits[i] over the set bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low.bit_length() - 1]
        mask ^= low
    return out


class Stratum:
    """A stratum: a connected stable tree with tails labelled bijectively by
    a set S, held as its label order and splits.

    `order` lists S by `_labelkey`; `splits` holds, for each edge, the side
    of its label bipartition without order[0] as a bitmask over `order`, in
    ascending order.  `Stratum(order, splits)` trusts its input: `s_tree`
    checks an explicit graph.  Three other names remain only because the
    benchmark harness reads them: `Stratum(s)` returns the stratum s and
    refuses anything else with `StrataError`, `s.tree` is s, and
    `StableSTree` is this class.
    Equality, hashing, `codim`, `dim` and `canonical_key` read the splits;
    the flag view is built when `graph` or `tail_labels` is first read, and
    kept.  A stratum is immutable: assigning
    or deleting an attribute raises `dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("order", "splits", "_flag_view")

    def __new__(cls, order, splits=None):
        if splits is None:
            if not isinstance(order, Stratum):
                raise StrataError(f"{order!r} is not a stratum")
            return order
        return _stratum(order, splits)

    @property
    def tree(self) -> Stratum:
        return self

    @property
    def labels(self) -> frozenset:
        return frozenset(self.order)

    @property
    def codim(self) -> int:
        return len(self.splits)

    @property
    def dim(self) -> int:
        return len(self.order) - 3 - len(self.splits)

    @property
    def graph(self) -> CombinatorialGraph:
        view = self._flag_view
        return view[0] if type(view) is tuple else self._view()[0]

    @property
    def tail_labels(self) -> dict:
        view = self._flag_view
        return view[1] if type(view) is tuple else self._view()[1]

    def _view(self):
        """(flag graph, tail labels, split of each flag edge), built once
        from the splits or by the builder that `contract_edge` passes."""
        view = self._flag_view
        if type(view) is not tuple:
            view = view() if view else _flags_from_splits(self.order, self.splits)
            _set_view(self, view)
        return view

    def label_splits(self) -> frozenset:
        """The splits as label sets (the sides without the least label)."""
        return frozenset(_side(self.order, m) for m in self.splits)

    def canonical_key(self):
        return self.order, self.splits

    def __eq__(self, other):
        return (isinstance(other, Stratum) and self.splits == other.splits
                and self.order == other.order)

    def __hash__(self):
        return hash((self.order, self.splits))

    def __repr__(self):
        sides = [_sorted_labels(_side(self.order, m)) for m in self.splits]
        return f"Stratum(labels={list(self.order)!r}, splits={sides!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _stratum, (self.order, self.splits, self._flag_view)


StableSTree = Stratum

# The slots' own setters bypass `Stratum.__setattr__`, and fill a stratum in
# about two thirds of the time of `object.__setattr__` (Python 3.11, x86-64).
_set_order, _set_splits, _set_view = (getattr(Stratum, name).__set__
                                      for name in Stratum.__slots__)


def _stratum(order, splits, view=None) -> Stratum:
    """The stratum of a split system over `order`, with its flag view, the
    builder of it, or None to build it from the splits when first read."""
    s = object.__new__(Stratum)
    _set_order(s, order)
    _set_splits(s, splits)
    _set_view(s, view)
    return s


# --- trees of splits ---------------------------------------------------------

def _tree(n, masks):
    """Vertices of the tree with ascending split masks over n labels.

    Vertex 0 holds the anchor label and vertex i + 1 lies just below
    masks[i].  Returns the vertex above each split and the vertex of each
    label: the smallest split holding it, else vertex 0.

    The splits of one tree are nested or disjoint, so the splits that hold a
    label form a chain, strictly growing in size.  Read from the largest
    split down, each split takes its labels, and the last split to have
    taken a split's lowest label is the one just above it; the last split to
    take a label is the label's vertex.  That is one step per (split, label)
    incidence.
    """
    up, at = [0] * len(masks), [0] * n
    for m in sorted(masks, key=int.bit_count, reverse=True):    # equal sizes are disjoint
        v = masks.index(m) + 1
        up[v - 1] = at[(m & -m).bit_length() - 1]
        while m:
            low = m & -m
            at[low.bit_length() - 1] = v
            m ^= low
    return up, at


# One entry per (label count, edge count): 28 keys for 3..9 labels.  A
# strata-census pass reads 19 keys and a flags-export pass 8; the other
# workloads, `strata --n 9 --counts` and `qsm verify --m 97` read none.
@lru_cache(maxsize=64)
def _flag_names(n_labels, n_edges):
    """Names in the flag graph of every tree with n_edges edges over n_labels
    labels, interned and shared by the graphs of many strata: the tails, the
    vertices, the upper and the lower flag of each edge, each edge's key, the
    edge set, the sorted flag, vertex and tail tuples, and the involution,
    which fixes the tails and swaps each edge's two flags.  The involution is
    the same for every such tree, so each graph takes a copy of it."""
    tails = tuple(sys.intern(f"t{i}") for i in range(n_labels))
    vertices = tuple(sys.intern(f"v{i}") for i in range(n_edges + 1))
    uppers = tuple(sys.intern(f"e{i}.a") for i in range(n_edges))
    lowers = tuple(sys.intern(f"e{i}.b") for i in range(n_edges))
    keys = tuple(map(frozenset, zip(uppers, lowers)))
    involution = dict(zip(tails, tails))
    for a, b in zip(uppers, lowers):
        involution[a], involution[b] = b, a
    return (tails, vertices, uppers, lowers, keys, frozenset(keys),
            tuple(sorted(involution)), tuple(sorted(vertices)), tuple(sorted(tails)),
            involution)


# Keyed by the label count and the split masks, not the labels, so trees over
# other labels with the same splits share one graph; each view gets its own
# tail-label dict.  A strata-census pass views 8,554 trees with 1,076
# distinct keys: 7,478 hits at 1,024 entries, 7,348 at 256 and 7,086 at 16.
# An entry over seven labels is about 1.4 KiB under tracemalloc, so 1,024
# entries hold about 1.4 MiB.
@lru_cache(maxsize=1024)
def _split_graph(n_labels, splits):
    """Flag graph of a split system over n_labels labels, its tails in label
    order, and the split of each edge: tail t{i} carries the i-th label,
    vertex v0 the anchor, and edge e{i} joins vertex v{i+1}, at its lower
    flag e{i}.b, to the vertex above it, at its upper flag e{i}.a.  The
    boundary is read off `_tree` in one pass: the tails' vertices, the upper
    flags' and then the lower flags'."""
    tails, vertices, uppers, lowers, keys, edges, flags, sorted_vertices, sorted_tails, \
        involution = _flag_names(n_labels, len(splits))
    up, at = _tree(n_labels, splits)
    vertex = vertices.__getitem__
    boundary = dict(zip(tails, map(vertex, at)))
    boundary.update(zip(uppers, map(vertex, up)))
    boundary.update(zip(lowers, vertices[1:]))
    g = CombinatorialGraph(flags, sorted_vertices, boundary, dict(involution), edges,
                           sorted_tails)
    return g, tails, dict(zip(keys, splits))


def _flags_from_splits(order, splits):
    """Flag view of a split system over `order`: the shared graph and edge
    map of `_split_graph`, and a new dict of tail labels."""
    g, tails, edge_split = _split_graph(len(order), splits)
    return g, dict(zip(tails, order)), edge_split


def _sorted_labels(labels) -> list:
    """`labels` sorted by `_labelkey`.  Labels of one type sort by value, in
    the same order and about three times faster; mixed types, and equal
    labels of a type with no order (None and None), sort by the key."""
    labels = list(labels)
    kind = type(labels[0]) if labels else None
    for x in labels:
        if type(x) is not kind:
            return sorted(labels, key=_labelkey)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=_labelkey)


def _order(labels, least) -> tuple:
    labels = list(labels)
    order = tuple(_sorted_labels(set(labels)))
    if len(order) != len(labels):
        raise LabelCollision("labels must be pairwise distinct")
    if len(order) < least:
        raise TooSmall(f"need at least {least} labels")
    return order


# --- constructors -----------------------------------------------------------

def s_tree(graph: CombinatorialGraph, tail_labels) -> Stratum:
    """Stable S-tree of an explicit flag graph, which must be connected and
    stable with its tails labelled bijectively by distinct labels.

    The walk of `graphs.spanning_forest` checks the graph and orders the
    splits: it is connected when there is exactly one walk, and then a tree
    exactly when E = V - 1; each edge's split is the far side of the walk
    from it, or that side's complement when it holds the least label.  The
    graph is read in that one walk, and the labels are sorted once."""
    tail_labels = dict(tail_labels)
    bdry = graph.boundary
    walks, parent = spanning_forest(graph)
    if len(walks) != 1:
        raise StrataError("tree must be connected")
    walk = walks[0]
    ends = list(bdry.values())
    if graph.n_edges != len(walk) - 1 or min(map(ends.count, walk)) < 3:
        raise StrataError("tree must be stable (every vertex bounds >= 3 flags)")
    if tail_labels.keys() != set(graph.tails):
        raise StrataError("tail_labels must be defined exactly on the tails")
    try:
        distinct = set(tail_labels.values())
    except TypeError:
        for lab in tail_labels.values():
            try:
                hash(lab)
            except TypeError:
                raise StrataError(f"tail label {lab!r} is unhashable") from None
        raise
    if len(distinct) != len(tail_labels):
        raise StrataError("tail labels must be pairwise distinct")
    order = tuple(_sorted_labels(tail_labels.values()))
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
    return _stratum(order, tuple(sorted(edge_split.values())), (graph, tail_labels, edge_split))


def s_corolla(labels) -> Stratum:
    return _stratum(_order(labels, 3), ())


def two_part_tree(part1, part2) -> Stratum:
    """One-edge tree for a 2-partition of S, both parts of size >= 2."""
    part1, part2 = set(part1), set(part2)
    if len(part1) < 2 or len(part2) < 2:
        raise TooSmall("both parts of a divisorial partition need >= 2 labels")
    if part1 & part2:
        raise LabelCollision("partition parts overlap")
    order = _order(part1 | part2, 4)
    return _stratum(order, (_mask(order, part1),))


@dataclass(frozen=True)
class CurveCombinatorics:
    """Components, double points and marked points of a stable genus-zero curve."""

    components: tuple
    double_points: tuple        # pairs (component, component)
    marked: dict                # label -> component


def curve_to_dessin(curve: CurveCombinatorics) -> Stratum:
    """Dual tree: vertices are components, edges are double points, tails are
    labelled marked points.  Components are named by their text, so two
    that print alike raise DuplicateComponent.  Raises UnstableComponent if a
    component carries fewer than three special points, else
    NotATreeOfComponents when `s_tree` finds the components disconnected or
    not a tree.
    """
    comps = [str(c) for c in curve.components]
    first = {}
    for c, name in zip(curve.components, comps):
        if name in first:
            raise DuplicateComponent(f"components {first[name]!r} and {c!r} "
                                     f"share the name {name!r}")
        first[name] = c
    flags, boundary, involution, tail_labels = [], {}, {}, {}
    for i, (ca, cb) in enumerate(curve.double_points):
        ca, cb = str(ca), str(cb)
        if ca not in comps or cb not in comps:
            raise StrataError(f"double point on unknown component {(ca, cb)!r}")
        ha, hb = f"dp{i}.a", f"dp{i}.b"
        flags += [ha, hb]
        boundary[ha], boundary[hb] = ca, cb
        involution[ha], involution[hb] = hb, ha
    for j, (lab, comp) in enumerate(sorted(curve.marked.items(), key=lambda kv: _labelkey(kv[0]))):
        comp = str(comp)
        if comp not in comps:
            raise StrataError(f"marked point {lab!r} on unknown component {comp!r}")
        f = f"m{j}"
        flags.append(f)
        boundary[f] = comp
        involution[f] = f
        tail_labels[f] = lab
    g = validate(flags, comps, boundary, involution)
    n_flags = Counter(g.boundary.values())
    unstable = [v for v in g.vertices if n_flags[v] < 3]
    if unstable:
        raise UnstableComponent(f"components with < 3 special points: {unstable}")
    try:
        return s_tree(g, tail_labels)
    except StrataError as exc:      # every component is stable: connectivity or treeness
        raise NotATreeOfComponents("component graph must be a connected tree") from exc


# --- enumeration ------------------------------------------------------------

def _all_splits(n) -> list[int]:
    """Every split over n labels, ascending: masks without bit 0 whose two
    sides both hold >= 2 labels."""
    return [m for m in range(2, 1 << n, 2) if 2 <= m.bit_count() <= n - 2]


def _families(n, size=None) -> list[tuple]:
    """Pairwise compatible (disjoint or nested) sets of splits over n labels,
    as ascending tuples in lexicographic order; only those of `size` splits
    when it is given.  Backtracks over a compatibility bitmask per split."""
    splits = _all_splits(n)
    later = []                      # compatible splits after each one
    for i, a in enumerate(splits):
        later.append(sum(1 << j for j in range(i + 1, len(splits))
                         if a & splits[j] in (0, a, splits[j])))
    out = []

    def walk(family, candidates):
        if size is None or len(family) == size:
            out.append(family)
        if len(family) == size or len(family) + candidates.bit_count() < (size or 0):
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            walk(family + (splits[j],), candidates & later[j])

    walk((), (1 << len(splits)) - 1)
    return out


def enumerate_strata(labels) -> dict[int, list[Stratum]]:
    """One stratum per stable S-tree, grouped by codimension, each group in
    lexicographic order of the ascending split masks."""
    order = _order(labels, 3)
    grouped: dict[int, list[Stratum]] = {}
    for family in _families(len(order)):
        grouped.setdefault(len(family), []).append(_stratum(order, family))
    return dict(sorted(grouped.items()))


def divisorial_strata(labels) -> list[Stratum]:
    """Codimension-one strata, one per unordered stable 2-partition of S."""
    order = _order(labels, 4)
    return [_stratum(order, (m,)) for m in _all_splits(len(order))]


def trivalent_strata(labels) -> list[Stratum]:
    """Dimension-zero strata: the families of |S| - 3 compatible splits.
    Over three labels that is the corolla alone."""
    order = _order(labels, 3)
    return [_stratum(order, family) for family in _families(len(order), len(order) - 3)]


def maximal_codim_strata(labels) -> list[tuple[Stratum, bool]]:
    """All dimension-zero strata with a caterpillar flag (linear chains);
    the corolla over three labels counts as a caterpillar."""
    return [(s, is_caterpillar(s)) for s in trivalent_strata(labels)]


def is_caterpillar(t: Stratum) -> bool:
    """True when the vertices form a linear chain (every vertex bounds at most
    two edges); single-vertex trees count as caterpillars.  Reads only the
    splits, so no flag view is built."""
    up, _ = _tree(len(t.order), t.splits)
    below = Counter(up)     # edges hanging below each vertex
    return below[0] <= 2 and all(below[v] <= 1 for v in range(1, len(up) + 1))


# --- poset operations -------------------------------------------------------

def _contracted(view, e):
    """Flag view with edge e blown down into the lesser of its two vertices."""
    g, tail_labels, edge_split = view
    keep, gone = sorted(g.boundary[f] for f in e)
    flags = tuple(f for f in g.flags if f not in e)
    boundary = {f: keep if g.boundary[f] == gone else g.boundary[f] for f in flags}
    graph = CombinatorialGraph(flags, tuple(v for v in g.vertices if v != gone), boundary,
                               {f: g.involution[f] for f in flags}, g.edges - {e}, g.tails)
    return graph, dict(tail_labels), {k: m for k, m in edge_split.items() if k != e}


def contract_edge(t: Stratum, edge) -> Stratum:
    """Blow down one flag edge of `t.graph`: its split is dropped.  The
    result's graph, built on first access, merges the edge's endpoints into
    the lesser vertex name and keeps every other flag and vertex name."""
    e = frozenset(edge)
    view = t._view()
    if e not in view[2]:
        raise NoSuchEdge(f"{sorted(edge)} is not an edge of the tree")
    splits = tuple(m for m in t.splits if m != view[2][e])
    return _stratum(t.order, splits, partial(_contracted, view, e))


@dataclass(frozen=True)
class SubstratumWitness:
    holds: bool
    edges: tuple | None

    def __bool__(self):
        return self.holds


def is_substratum(inner: Stratum, outer: Stratum) -> SubstratumWitness:
    """Whether contracting some edge subset of `inner` gives `outer`, that is,
    whether every split of `outer` is a split of `inner`.

    The witness is the only such subset: the edges of `inner.graph`
    whose splits `outer` lacks, as ascending sorted flag pairs.
    """
    if inner.order != outer.order:
        raise LabelSetMismatch("strata live over different label sets")
    kept = set(outer.splits)
    if not kept.issubset(inner.splits):
        return SubstratumWitness(False, None)
    edges = sorted(tuple(sorted(e)) for e, m in inner._view()[2].items() if m not in kept)
    return SubstratumWitness(True, tuple(edges))


def open_stratum_boundary(s: Stratum) -> list[Stratum]:
    """Codimension-one substrata of the closed stratum: split one vertex in
    two, each part keeping >= 2 of its flags.  The new split is the union of
    at least two, but not all, of the branches below that vertex."""
    up, at = _tree(len(s.order), s.splits)
    branches = [[] for _ in range(len(s.splits) + 1)]
    for v, m in zip(up, s.splits):
        branches[v].append(m)
    for i in range(1, len(s.order)):
        branches[at[i]].append(1 << i)
    out = [tuple(sorted(s.splits + (sum(part),)))      # branches are disjoint
           for below in branches
           for r in range(2, len(below))
           for part in itertools.combinations(below, r)]
    return [_stratum(s.order, splits) for splits in sorted(out)]


def compose_strata(s1: Stratum, label1, s2: Stratum, label2) -> Stratum:
    """Graft two strata at the tails carrying the given labels.

    The composite is labelled by (S1 - {label1}) + (S2 - {label2}); its
    splits are the new edge's and those of both strata, with each grafting
    label replaced by the other stratum's labels.  Its codimension is
    codim1 + codim2 + 1.

    Each stratum's splits are remapped onto the composite's label order
    through one bit table, in which the grafting label's bit stands for the
    mask of the other stratum's remaining labels; the new edge's split is
    the mask of the second stratum's remaining labels.
    """
    if label1 not in s1.order or label2 not in s2.order:
        raise StrataError("label not present on the stratum")
    rest1 = frozenset(s1.order) - {label1}
    rest2 = frozenset(s2.order) - {label2}
    if rest1 & rest2:
        raise LabelCollision(f"shared labels {_sorted_labels(rest1 & rest2)}")
    order = tuple(_sorted_labels(rest1 | rest2))
    if len(order) < 4:
        raise TooSmall("need at least 4 labels")
    bit = {lab: 1 << i for i, lab in enumerate(order)}
    full = (1 << len(order)) - 1
    mask2 = sum(map(bit.__getitem__, rest2))
    splits = {mask2 ^ full if mask2 & 1 else mask2}
    for s, site, other in ((s1, label1, mask2), (s2, label2, mask2 ^ full)):
        bits = [other if lab == site else bit[lab] for lab in s.order]
        for m in s.splits:
            m = _remap(m, bits)
            splits.add(m ^ full if m & 1 else m)
    return _stratum(order, tuple(sorted(splits)))


# --- admissible projections -------------------------------------------------

class _SplitImages(dict):
    """Image of each split mask under one projection, filled on first use:
    the mask restricted through the bit table, complemented when it holds the
    target's least label, or 0 when a side keeps fewer than two labels."""

    __slots__ = ("bits", "full")

    def __init__(self, bits, full):
        self.bits, self.full = bits, full

    def __missing__(self, mask):
        m = _remap(mask, self.bits)
        if m & 1:
            m ^= self.full
        self[mask] = m = m if 2 <= m.bit_count() <= self.full.bit_length() - 2 else 0
        return m


# Keyed by the label order and the target set.  An entry holds positions,
# bits and split images, never labels, so orders that are equal but for the
# types of their labels ((1, 2, 3) and (1.0, 2, 3), or True for 1) share an
# entry and each result keeps its own stratum's labels.  An entry's images
# are only those of the splits it was asked for, never a table over every
# mask.  A strata-census pass makes 21,240 projections with 51 distinct
# keys, and 256 entries hold all 219 targets of >= 3 labels of one
# eight-label order.  An entry over six labels with the images of all 25
# splits is about 1.6 KiB under tracemalloc, so 256 entries hold about
# 0.4 MiB.
@lru_cache(maxsize=256)
def _projector(order, target):
    """(picker of the kept labels, split images) of the projection of trees
    over `order` onto the frozenset `target`: the bit table of the images
    sends a kept label's old bit to its bit in the target order and a
    forgotten label's to 0.  A refused target raises on every call, since a
    cache stores no exception."""
    if len(target) < 3:
        raise TargetTooSmall("target label set needs at least 3 labels")
    if not target.issubset(order):
        raise LabelSetMismatch("target labels must be a subset of the stratum labels")
    kept = [i for i, lab in enumerate(order) if lab in target]
    bits = [0] * len(order)
    for j, i in enumerate(kept):
        bits[i] = 1 << j
    return itemgetter(*kept), _SplitImages(bits, (1 << len(kept)) - 1)


def admissible_projection(s: Stratum, target_labels) -> Stratum:
    """Forget the tails outside `target_labels`, then stabilize.

    Each split is restricted to the target and kept when both of its sides
    still hold >= 2 labels; this is the split system of the tree left after
    contracting every edge at a vertex with fewer than three flags.  Each
    split's image is one lookup in the split images of `_projector`, where a
    split whose side keeps fewer than two labels has the image 0.
    """
    pick, image = _projector(s.order, frozenset(target_labels))
    kept = set(map(image.__getitem__, s.splits))     # a miss reaches __missing__
    kept.discard(0)
    return _stratum(pick(s.order), tuple(sorted(kept)))


def project_divisor_check(parts_big, parts_small) -> bool:
    """Whether a divisorial partition of S' projects onto one of S.

    True when each part of the S'-partition meets S in the matching part of
    the S-partition and both induced parts stay stable (size >= 2)."""
    b1, b2 = (set(p) for p in parts_big)
    s1, s2 = (set(p) for p in parts_small)
    small = s1 | s2
    if len(s1) < 2 or len(s2) < 2:
        return False
    direct = (b1 & small == s1) and (b2 & small == s2)
    swapped = (b1 & small == s2) and (b2 & small == s1)
    return direct or swapped


# --- clean dessins ----------------------------------------------------------

@dataclass(frozen=True)
class CleanDessin:
    black: tuple[str, ...]
    white: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


def clean_dessin(s: Stratum) -> CleanDessin:
    """Re-encode a caterpillar stratum as a black/white vertex graph.

    A vertex is added at the free end of every leaf and at the midpoint of
    every old edge; old vertices and leaf-end vertices are black, midpoints
    are white.  They are named w{i} and end_{label} behind the fewest
    underscores that keep them apart from the old vertex names; when labels
    print alike (1 and "1"), each leaf end gets "#{i}" appended.
    """
    if not is_caterpillar(s):
        raise NotCaterpillar("clean dessins are defined for caterpillar strata")
    g, labels, bdry = s.graph, s.tail_labels, s.graph.boundary
    pre = ""
    while any(v.startswith((pre + "w", pre + "end_")) for v in g.vertices):
        pre += "_"
    ends = [f"{pre}end_{labels[f]}" for f in g.tails]
    if len(set(ends)) < len(ends):
        ends = [f"{end}#{i}" for i, end in enumerate(ends)]
    white = [f"{pre}w{i}" for i in range(g.n_edges)]
    new_edges = [tuple(sorted((bdry[f], end))) for f, end in zip(g.tails, ends)]
    for mid, (a, b) in zip(white, sorted(g.edges, key=sorted)):
        new_edges.append(tuple(sorted((bdry[a], mid))))
        new_edges.append(tuple(sorted((bdry[b], mid))))
    return CleanDessin(tuple(sorted((*g.vertices, *ends))), tuple(sorted(white)),
                       tuple(sorted(new_edges)))


def _colour_walk(d: CleanDessin):
    """Two-colour the vertices of d, listed or only named by an edge, by one
    walk per component.  Returns the number of walks and whether some edge
    joins two vertices of one colour."""
    nbrs = {v: [] for v in (*d.black, *d.white)}
    for a, b in d.edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    colour, walks, clash = {}, 0, False
    for start in nbrs:
        if start in colour:
            continue
        walks += 1
        colour[start] = 0
        queue = [start]
        for v in queue:
            c = colour[v]
            for w in nbrs[v]:
                if w not in colour:
                    colour[w] = 1 - c
                    queue.append(w)
                elif colour[w] == c:
                    clash = True
    return walks, clash


def clean_dessin_is_bipartite(d: CleanDessin) -> bool:
    """Two-colorability of the re-encoded graph."""
    return not _colour_walk(d)[1]


def clean_dessin_is_connected(d: CleanDessin) -> bool:
    """One component, counting isolated vertices; the empty dessin is connected."""
    return _colour_walk(d)[0] <= 1


# --- serialization ----------------------------------------------------------

def stratum_to_json(s: Stratum) -> dict:
    """Labels stay native JSON values (ints stay ints), in `_labelkey` order."""
    g, tail_labels, _ = s._view()
    return {
        "labels": list(s.order),
        "tree": graphs.graph_to_json(g),
        "tail_labels": dict(sorted(tail_labels.items())),
        "codim": s.codim,
    }


def stratum_from_json(obj) -> Stratum:
    """Read `tree` through `graphs.graph_from_json`, which raises GraphError
    on a malformed graph, and `tail_labels` through `s_tree`; `labels`, a
    list in any order, and `codim`, an integer, must agree with the tree
    read.  An object that is not a dict, a missing key, a value of another
    type or an unhashable tail label raises StrataError naming it; these are
    checked once, before the tree is read."""
    if not isinstance(obj, dict):
        raise StrataError(f"stratum JSON must be a dict, not {type(obj).__name__}")
    try:
        tree, tail_labels, labels, codim = (obj["tree"], obj["tail_labels"], obj["labels"],
                                            obj["codim"])
    except KeyError as exc:
        raise StrataError(f"stratum JSON is missing the key {exc.args[0]!r}") from None
    if not isinstance(tail_labels, dict):
        raise StrataError(f"stratum JSON key 'tail_labels' must be a dict, "
                          f"not {type(tail_labels).__name__}")
    if not isinstance(labels, list):
        raise StrataError(f"stratum JSON key 'labels' must be a list, not {type(labels).__name__}")
    if not isinstance(codim, int) or isinstance(codim, bool):
        raise StrataError(f"stratum JSON key 'codim' must be an integer, "
                          f"not {type(codim).__name__}")
    try:
        hash(tuple(tail_labels.values()))
    except TypeError as exc:
        raise StrataError(f"stratum JSON key 'tail_labels' must hold hashable labels "
                          f"({exc})") from None
    s = s_tree(graphs.graph_from_json(tree), tail_labels)
    try:
        agree = _sorted_labels(labels) == list(s.order)
    except TypeError:       # two labels that have no order between them
        agree = False
    if not agree:
        raise StrataError(f"labels {labels!r} disagree with the tree's "
                          f"tail labels {list(s.order)!r}")
    if codim != s.codim:
        raise StrataError(f"codim {codim!r} disagrees with the tree's codim {s.codim}")
    return s


def stratum_to_dot(s: Stratum, name="stratum") -> str:
    return graphs.to_dot(s.graph, tail_labels=s.tail_labels, name=name)


def clean_dessin_to_dot(d: CleanDessin, name: str) -> str:
    """DOT text; black vertices are filled, white ones are open circles."""
    lines = [f"graph {_dot_name(name)} {{"]
    lines.extend(f'  "{_dot_text(v)}" [color=black, style=filled];' for v in d.black)
    lines.extend(f'  "{_dot_text(v)}" [color=white, shape=circle];' for v in d.white)
    lines.extend(f'  "{_dot_text(a)}" -- "{_dot_text(b)}";' for a, b in d.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
