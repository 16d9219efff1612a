"""Grafting composition of trees, iterated grafting plans, and the magma
operad in both of its standard presentations: oriented trivalent trees and
fully parenthesized binary words.

Grafting joins tails in the involution of a namespaced disjoint union
(`graphs.disjoint_union_with_maps`) and validates the result once, however
many tails a plan joins.  A magma tree's flag graph depends only on its
word's bracketing, so one validated graph per bracketing, built on first use
with its index of flags by vertex, serves every lettering.  Each bracketing
is also validated as an oriented tree and read as a word once, when its
graph is built; a lettered tree that still has its bracketing's graph,
orientation, root and leaf tails passes the check at once and reads its word
by filling the bracketing with its labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product, repeat
from math import comb

from dessins import graphs
from dessins.graphs import CombinatorialGraph, validate


class GraftError(ValueError):
    pass


class NotATail(GraftError):
    pass


class SameSite(GraftError):
    pass


class ConsumedTail(GraftError):
    pass


class RootGraftNotAllowed(GraftError):
    pass


class TooSmall(ValueError):
    pass


class MalformedWord(ValueError):
    pass


def _check_tail(g: CombinatorialGraph, t: str):
    if t not in g.boundary:
        raise NotATail(f"{t!r} is not a flag of the graph")
    if g.involution[t] != t:
        raise NotATail(f"{t!r} is half of an edge, not a tail")


def _join(g: CombinatorialGraph, involution: dict, t1: str, t2: str):
    """Join two distinct tails of g into an edge of `involution`, in place."""
    _check_tail(g, t1)
    _check_tail(g, t2)
    if t1 == t2:
        raise SameSite(f"cannot graft tail {t1!r} to itself")
    involution[t1], involution[t2] = t2, t1


def graft_within(g: CombinatorialGraph, t1: str, t2: str) -> CombinatorialGraph:
    """Join two distinct tails of one graph into a new edge."""
    invl = dict(g.involution)
    _join(g, invl, t1, t2)
    return validate(g.flags, g.vertices, g.boundary, invl)


def graft_with_maps(g1: CombinatorialGraph, t1: str, g2: CombinatorialGraph, t2: str):
    """Graft two graphs at one tail each; returns (result, flag maps).

    The inputs are namespaced (prefixes "0." and "1.") so they need not be
    disjoint as raw data; the two chosen tails become halves of a new edge.
    """
    _check_tail(g1, t1)
    _check_tail(g2, t2)
    if g1 is g2 and t1 == t2:
        raise SameSite("the two sites are the same tail of the same graph")
    g, fmap1, fmap2 = graphs.disjoint_union_with_maps(g1, g2)
    return graft_within(g, fmap1[t1], fmap2[t2]), fmap1, fmap2


def graft(g1: CombinatorialGraph, t1: str, g2: CombinatorialGraph, t2: str) -> CombinatorialGraph:
    """Binary grafting: set-theoretic union with t1, t2 joined into one edge."""
    return graft_with_maps(g1, t1, g2, t2)[0]


def iterate_grafts(parts, plan) -> CombinatorialGraph:
    """Left-to-right fold of grafting instructions over a forest.

    `parts` is a sequence of graphs, namespaced as "0.", "1.", ...; each plan
    entry (i, tail_i, j, tail_j) joins two tails named in the original parts;
    a part index outside range(len(parts)) names no tail.  Instructions with
    disjoint sites commute up to isomorphism.  The joined graph is validated
    once, after the last instruction.
    """
    g, *renames = graphs.disjoint_union_with_maps(*parts)
    involution = dict(g.involution)
    consumed = set()
    indices = range(len(renames))
    for i, ti, j, tj in plan:
        a = renames[i].get(ti) if i in indices else None
        b = renames[j].get(tj) if j in indices else None
        if a is None or b is None:
            raise NotATail(f"unknown tail in instruction ({i}, {ti!r}, {j}, {tj!r})")
        for f in (a, b):
            if f in consumed:
                raise ConsumedTail(f"tail {f!r} was consumed by an earlier graft")
        _join(g, involution, a, b)
        consumed.update((a, b))
    return validate(g.flags, g.vertices, g.boundary, involution)


# --- magma operad, description by words -----------------------------------

def enumerate_magma_words(letters, arity: int):
    """All fully parenthesized words of the given arity over the alphabet.

    Words of arity 1 are bare letters; a word of arity m is a pair (w1 w2)
    with arities p + q = m, so the words are every bracketing of every
    sequence of m letters.  The count is Catalan(m-1) * len(letters)**m.
    """
    if arity < 1:
        raise MalformedWord("arity must be >= 1")
    skeletons = _skeletons(arity)
    words = [_fill(s, iter(seq)) for seq in product(letters, repeat=arity) for s in skeletons]
    return sorted(words, key=word_to_text)


def word_arity(w) -> int:
    if isinstance(w, tuple):
        return word_arity(w[0]) + word_arity(w[1])
    return 1


def word_letters(w) -> tuple:
    if isinstance(w, tuple):
        return word_letters(w[0]) + word_letters(w[1])
    return (w,)


def word_to_text(w) -> str:
    if isinstance(w, tuple):
        return "(" + word_to_text(w[0]) + word_to_text(w[1]) + ")"
    return str(w)


def parse_word(text: str):
    """Parse a parenthesized word; letters are single non-paren characters."""
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(text):
            raise MalformedWord("unexpected end of word")
        c = text[pos]
        if c == "(":
            pos += 1
            left = parse()
            right = parse()
            if pos >= len(text) or text[pos] != ")":
                raise MalformedWord(f"expected ')' at position {pos}")
            pos += 1
            return (left, right)
        if c == ")":
            raise MalformedWord(f"unexpected ')' at position {pos}")
        pos += 1
        return c

    w = parse()
    if pos != len(text):
        raise MalformedWord(f"trailing input at position {pos}")
    return w


# --- magma operad, description by oriented trivalent trees -----------------

TOWARD = "+"    # flag oriented towards its boundary vertex (input)
OUTWARD = "-"   # flag oriented away from its boundary vertex (output)


@dataclass(frozen=True)
class OrientedBinaryTree:
    """Rooted trivalent tree with ordered labelled leaves.

    Every vertex bounds two inward flags and one outward flag; the two halves
    of each edge carry opposite orientations, and following outward flags from
    any vertex reaches the root tail.  The degenerate arity-1 tree (one vertex,
    one leaf, one root tail) is allowed and flagged.

    Trees of one bracketing share one `graph` and one `orientation` object,
    and grafting the unit shares t2's; both are read-only.  They also share
    `bracketing`, the cache entry they were lettered from; a tree built over
    any other graph leaves it None.  A tree that still has its entry's graph,
    orientation, root flag, leaf tails and degeneracy is checked and read
    through the entry; any other tree, a `replace`d copy that changed one of
    them included, is checked and read in full.
    """

    graph: CombinatorialGraph
    orientation: dict[str, str]
    root_flag: str
    leaf_order: tuple[tuple[str, object], ...]   # (tail flag, label), left to right
    degenerate: bool = False
    bracketing: _Bracketing | None = field(default=None, compare=False, repr=False)

    @property
    def labels(self) -> tuple:
        return tuple(label for _, label in self.leaf_order)


@dataclass(frozen=True)
class _Bracketing:
    """A bracketing's validated tree, shared by all its letterings: its word
    with every letter None, the text of that word with %s for each letter,
    graph, orientation, root flag, left-to-right leaf tails and flags by
    vertex."""

    skeleton: tuple | None
    text: str
    graph: CombinatorialGraph
    orientation: dict[str, str]
    root: str
    tails: tuple[str, ...]
    flags_at: dict[str, list[str]]


def _skeleton(w, letters: list):
    """The bracketing of a word with each letter replaced by None; appends the
    letters to `letters` from left to right."""
    if not isinstance(w, tuple):
        letters.append(w)
        return None
    if len(w) != 2:
        raise MalformedWord(f"node {w!r} is not a pair of words")
    return (_skeleton(w[0], letters), _skeleton(w[1], letters))


def _skeletons(n: int) -> list:
    """Every bracketing of n leaves as a skeleton: a pair (left, right) with
    p and n - p leaves, for p = 1 .. n-1 in turn, or None for one leaf."""
    table = [None, [None]]
    for m in range(2, n + 1):
        table.append([(left, right) for p in range(1, m)
                      for left in table[p] for right in table[m - p]])
    return table[n]


def _fill(skeleton, letters):
    """The word of a skeleton with its letters taken from an iterator."""
    if skeleton is None:
        return next(letters)
    return (_fill(skeleton[0], letters), _fill(skeleton[1], letters))


# Keyed by bracketing, so Catalan(n-1) graphs serve all letterings of n
# leaves.  1,024 entries hold every bracketing of <= 8 leaves (626 of them),
# about 4.0 MiB with their vertex indexes, words and texts, measured with
# tracemalloc.
@lru_cache(maxsize=1024)
def _bracketing_tree(skeleton) -> _Bracketing:
    """The entry of a bracketing; the arity-1 unit's skeleton is None."""
    if skeleton is None:
        v, leaf, out = "v", "v.i", "v.o"
        g = validate([leaf, out], [v], {leaf: v, out: v}, {leaf: leaf, out: out})
        return _new_entry(skeleton, g, {leaf: TOWARD, out: OUTWARD}, out, (leaf,))
    flags, vertices, boundary, involution, orientation = [], [], {}, {}, {}
    tails = []

    def build(node, path):
        # returns the name of the outward flag of this subtree
        vname = "v" + path
        vertices.append(vname)
        out = vname + ".o"
        flags.append(out)
        boundary[out] = vname
        orientation[out] = OUTWARD
        for side, child in zip("LR", node):
            inp = vname + "." + side.lower()
            flags.append(inp)
            boundary[inp] = vname
            orientation[inp] = TOWARD
            if child is None:
                involution[inp] = inp      # leaf tail
                tails.append(inp)
            else:
                child_out = build(child, path + side)
                involution[inp] = child_out
                involution[child_out] = inp
        return out

    root_out = build(skeleton, "")
    involution[root_out] = root_out
    g = validate(flags, vertices, boundary, involution)
    return _new_entry(skeleton, g, orientation, root_out, tuple(tails))


def _new_entry(skeleton, g, orientation, root, tails) -> _Bracketing:
    """Run the oriented-tree checks and the read of the word, once, on the
    bracketing's tree with every letter None."""
    at = graphs.flags_by_vertex(g)
    probe = OrientedBinaryTree(g, orientation, root, tuple((f, None) for f in tails),
                               degenerate=skeleton is None)
    _check(probe, at)
    word = _read(probe, at)
    return _Bracketing(word, word_to_text(_fill(word, repeat("%s"))), g, orientation, root,
                       tails, at)


def _lettered(e: _Bracketing, letters) -> OrientedBinaryTree:
    return OrientedBinaryTree(e.graph, e.orientation, e.root, tuple(zip(e.tails, letters)),
                              degenerate=e.skeleton is None, bracketing=e)


def _lettering(t: OrientedBinaryTree) -> tuple | None:
    """t's labels, if t still has its bracketing entry's graph and orientation
    (the same objects), root flag, leaf tails in order and degeneracy."""
    e = t.bracketing
    if (e is None or t.graph is not e.graph or t.orientation is not e.orientation
            or t.root_flag != e.root or t.degenerate != (e.skeleton is None)
            or len(t.leaf_order) != len(e.tails)):
        return None
    tails, labels = zip(*t.leaf_order)
    return labels if tails == e.tails else None


def _flags_at(t: OrientedBinaryTree) -> dict[str, list[str]]:
    """The flags at each vertex of t's own graph."""
    e = t.bracketing
    return e.flags_at if e is not None and e.graph is t.graph else graphs.flags_by_vertex(t.graph)


def degenerate_magma_tree(label) -> OrientedBinaryTree:
    """The arity-1 unit: a single vertex carrying one labelled leaf and the root."""
    return _lettered(_bracketing_tree(None), (label,))


def word_to_tree(w) -> OrientedBinaryTree:
    """The oriented tree of a word; raises MalformedWord on a node that is a
    tuple but not a pair."""
    letters = []
    skeleton = _skeleton(w, letters)
    return _lettered(_bracketing_tree(skeleton), letters)


def tree_to_word(t: OrientedBinaryTree):
    """Read the parenthesized word off an oriented tree.

    The two branches at each vertex are ordered by the position of their
    leaves in the linear leaf order; branches must cover contiguous runs.
    A tree that still has its bracketing's entry fills the entry's word,
    read when the entry was built, with its own labels.
    """
    labels = _lettering(t)
    if labels is not None:
        return _fill(t.bracketing.skeleton, iter(labels))
    return _read(t, _flags_at(t))


def _read(t: OrientedBinaryTree, at: dict[str, list[str]]):
    if t.degenerate:
        return t.leaf_order[0][1]
    g = t.graph
    pos = {flag: i for i, (flag, _) in enumerate(t.leaf_order)}
    label = dict(t.leaf_order)

    def read(out_flag):
        # out_flag: the outward flag of the subtree's top vertex
        v = g.boundary[out_flag]
        inputs = [f for f in at[v] if f != out_flag]
        if len(inputs) != 2 or any(t.orientation[f] != TOWARD for f in inputs):
            raise MalformedWord(f"vertex {v!r} is not binary with two inputs")
        branches = []
        for f in inputs:
            if g.involution[f] == f:
                branches.append((pos[f], pos[f], label[f]))
            else:
                branches.append(read(g.involution[f]))
        branches.sort()
        (lo1, hi1, w1), (lo2, hi2, w2) = branches
        if hi1 + 1 != lo2:
            raise MalformedWord("branch leaves are not contiguous in the leaf order")
        return (lo1, hi2, (w1, w2))

    lo, hi, w = read(t.root_flag)
    if (lo, hi) != (0, len(t.leaf_order) - 1):
        raise MalformedWord("leaf order does not cover the tree")
    return w


def enumerate_magma_trees(leaves) -> list[OrientedBinaryTree]:
    """All magma trees over a fixed left-to-right leaf order.

    With |leaves| = n >= 2 there are Catalan(n-1) trees, in lexicographic
    order of their word representation.
    """
    leaves = tuple(leaves)
    if len(leaves) < 2:
        raise TooSmall("need at least two leaves; the arity-1 tree is degenerate_magma_tree")
    # word_to_text of a lettered word is the bracketing's text with each
    # letter's own text in place of %s
    texts = tuple(word_to_text(leaf) for leaf in leaves)
    entries = sorted(map(_bracketing_tree, _skeletons(len(leaves))), key=lambda e: e.text % texts)
    return [_lettered(e, leaves) for e in entries]


def validate_magma_tree(t: OrientedBinaryTree) -> None:
    """Check the oriented-tree conditions; raises MalformedWord on failure.
    A tree that still has its bracketing's entry passed them when the entry
    was built."""
    if _lettering(t) is None:
        _check(t, _flags_at(t))


def _check(t: OrientedBinaryTree, at: dict[str, list[str]]) -> None:
    g = t.graph
    if t.degenerate:
        if len(g.vertices) != 1 or g.edges or len(g.tails) != 2:
            raise MalformedWord("degenerate tree must be one vertex with two tails")
        return
    for v in g.vertices:
        fl = at[v]
        if len(fl) != 3:
            raise MalformedWord(f"vertex {v!r} does not bound exactly three flags")
        inward = [f for f in fl if t.orientation[f] == TOWARD]
        outward = [f for f in fl if t.orientation[f] == OUTWARD]
        if len(inward) != 2 or len(outward) != 1:
            raise MalformedWord(f"vertex {v!r} must have two inputs and one output")
    for e in g.edges:
        a, b = sorted(e)
        if t.orientation[a] == t.orientation[b]:
            raise MalformedWord("edge halves must carry opposite orientations")
    if g.involution[t.root_flag] != t.root_flag or t.orientation[t.root_flag] != OUTWARD:
        raise MalformedWord("root flag must be an outward tail")
    root_vertex = g.boundary[t.root_flag]
    for v in g.vertices:
        cur, seen = v, set()
        while cur != root_vertex:
            if cur in seen:
                raise MalformedWord("outward path revisits a vertex")
            seen.add(cur)
            out = [f for f in at[cur] if t.orientation[f] == OUTWARD][0]
            if g.involution[out] == out:
                raise MalformedWord(f"outward path from {v!r} exits at a non-root tail")
            cur = g.boundary[g.involution[out]]


def graft_magma(t1: OrientedBinaryTree, t2: OrientedBinaryTree, leaf_label) -> OrientedBinaryTree:
    """Graft the root of t1 onto the leaf of t2 carrying `leaf_label`.

    Grafting onto the root is not a magma composition and is rejected.  The
    arity-1 unit is neutral on both sides: grafted into the unit, t1 comes
    back unchanged, and the unit grafted into t2 relabels the chosen leaf
    with the unit's label.
    """
    target = [f for f, lab in t2.leaf_order if lab == leaf_label]
    if not target:
        if leaf_label == t2.root_flag:
            raise RootGraftNotAllowed("the root tail is not a composition site")
        raise NotATail(f"t2 has no leaf labelled {leaf_label!r}")
    leaf_flag = target[0]
    if t2.degenerate:
        return t1
    if t1.degenerate:
        return replace(t2, leaf_order=tuple((f, t1.labels[0] if f == leaf_flag else lab)
                                            for f, lab in t2.leaf_order))
    g, fmap1, fmap2 = graft_with_maps(t1.graph, t1.root_flag, t2.graph, leaf_flag)
    orientation = {fmap1[f]: o for f, o in t1.orientation.items()}
    orientation.update({fmap2[f]: o for f, o in t2.orientation.items()})
    leaf_order = []
    for f, lab in t2.leaf_order:
        if f == leaf_flag:
            leaf_order.extend((fmap1[g1f], l1) for g1f, l1 in t1.leaf_order)
        else:
            leaf_order.append((fmap2[f], lab))
    return OrientedBinaryTree(g, orientation, fmap2[t2.root_flag], tuple(leaf_order))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)
