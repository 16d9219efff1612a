"""The commutative Hopf algebra of labelled rooted trees over exact rationals.

Trees are non-planar (children unordered).  At the public boundary they are
canonical nested tuples (label, children), forests are sorted tuples of trees,
and algebra elements and the coproduct's forest (x) forest pairs are sparse
maps to exact coefficients that share one arithmetic.  Inside, trees and
forests are hash-consed to integer ids from one counter: a forest id stands
for the sorted tuple of its tree ids, forest 0 is the empty forest, and a
tree, which in the algebra is the one-tree forest, has that forest's id and
stores its children as one forest id.  Coproducts and antipodes are maps over
forest ids, so memo keys and the identity checks hash ints, not nested
tuples.  Enumeration builds each tree through the table, so an enumerated
tree is the table's own tuple and interns in one lookup.

The coproduct sums trunk (x) pruned forest over the admissible cuts (edge
sets meeting each root-to-leaf path at most once), plus the full cut
1 (x) X_t, so counit and antipode satisfy the usual Hopf identities.  It is
computed by the Connes-Kreimer 1-cocycle recursion through the grafting
operator B+ (see `_delta`), not by enumerating edge sets.  Cut lists are
memoised per tree id as (edge bitmask, trunk id, pruned forest id) triples.
All memo tables live in one bounded `HopfCache`.

Coefficients are Python ints or fractions.Fraction; both are exact and mix
freely.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import MappingProxyType

from dessins.report import Report, check_all, check_together


class TreeSyntaxError(ValueError):
    pass


# --- trees and forests ------------------------------------------------------

def node(label, *children):
    """A rooted tree: label plus canonically sorted child subtrees."""
    return (label, tuple(sorted(children)))


def leaf(label):
    return (label, ())


def tree_nodes(t) -> int:
    return 1 + sum(tree_nodes(c) for c in t[1])


def label_sum(t) -> int:
    return t[0] + sum(label_sum(c) for c in t[1])


def tree_labels(t) -> list:
    out = [t[0]]
    for c in t[1]:
        out.extend(tree_labels(c))
    return out


def forest(*trees) -> tuple:
    return tuple(sorted(trees))


EMPTY_FOREST = ()


def forest_nodes(f) -> int:
    return sum(tree_nodes(t) for t in f)


# --- text form --------------------------------------------------------------

_LABEL_RE = re.compile(r"\s*(j?\d+|[A-Za-z_]\w*)\s*")
# Parsing and a character's label sum, after a qsm window grafts up to 8 more
# levels, take a frame per level: room under the default recursion limit.
MAX_TREE_DEPTH = 500


def parse_tree(text: str):
    """Parse nested bracket syntax like "j3[j1, j2[j0]]".

    Labels "j<k>" or bare digits become ints; other identifiers stay strings.
    A tree nested deeper than MAX_TREE_DEPTH levels is refused.
    """
    pos = 0

    def parse_label():
        nonlocal pos
        m = _LABEL_RE.match(text, pos)
        if not m:
            raise TreeSyntaxError(f"expected a label at position {pos} in {text!r}")
        pos = m.end()
        raw = m.group(1)
        if raw.isdigit():
            return int(raw)
        if raw[0] == "j" and raw[1:].isdigit():
            return int(raw[1:])
        return raw

    def parse_node(depth):
        nonlocal pos
        if depth > MAX_TREE_DEPTH:
            raise TreeSyntaxError(f"tree deeper than {MAX_TREE_DEPTH} levels at position {pos}")
        label = parse_label()
        children = []
        if pos < len(text) and text[pos] == "[":
            pos += 1
            while True:
                children.append(parse_node(depth + 1))
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    continue
                break
            if pos >= len(text) or text[pos] != "]":
                raise TreeSyntaxError(f"expected ']' at position {pos} in {text!r}")
            pos += 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return node(*([label] + children))

    t = parse_node(1)
    if pos != len(text):
        raise TreeSyntaxError(f"trailing input at position {pos} in {text!r}")
    return t


def format_tree(t) -> str:
    label, children = t
    head = f"j{label}" if isinstance(label, int) else str(label)
    if not children:
        return head
    return head + "[" + ", ".join(format_tree(c) for c in children) + "]"


def format_forest(f) -> str:
    return " ".join(format_tree(t) for t in f) if f else "1"


# --- polynomials ------------------------------------------------------------

def _add(terms: dict, key, coeff):
    """Add coeff to terms[key], dropping the key when the sum is zero."""
    s = terms.get(key, 0) + coeff
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


class _Polynomial:
    """Finite exact linear combination: `terms` maps keys to nonzero coefficients.
    A scalar scales; elements of one type add, and multiply through the product
    of two keys that each subclass supplies as `_key_product`; types do not mix.
    A polynomial is hashable, so `terms` is a read-only view of a dict of its
    own (item assignment raises TypeError), and assigning or deleting `terms`
    after construction raises `dataclasses.FrozenInstanceError`."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        own = {k: c for k, c in terms.items() if c} if terms else {}
        _set_terms(self, MappingProxyType(own))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (dict(self.terms),)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add(out, k, c)
        return type(self)(out)

    def scale(self, scalar):
        if not scalar:
            return type(self)()
        return type(self)({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, _Polynomial):
            return self.scale(other)
        if type(other) is not type(self):
            raise TypeError(f"cannot multiply {type(self).__name__} by {type(other).__name__}")
        product = self._key_product
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _add(out, product(k1, k2), c1 * c2)
        return type(self)(out)


_set_terms = _Polynomial.terms.__set__


class ForestPolynomial(_Polynomial):
    """Finite exact linear combination of forests (monomials in trees)."""

    __slots__ = ()

    @staticmethod
    def _key_product(f, g):
        return tuple(sorted(f + g))

    @classmethod
    def one(cls):
        return cls({EMPTY_FOREST: 1})

    @classmethod
    def generator(cls, tree):
        return cls({(tree,): 1})

    @classmethod
    def from_forest(cls, f, coeff=1):
        return cls({tuple(sorted(f)): coeff})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def map_trees(self, fn) -> ForestPolynomial:
        """Apply fn to every tree, re-sort each forest and sum the coefficients;
        a term is dropped when fn returns None for any of its trees."""
        out: dict = {}
        for f, c in self.terms.items():
            g = [fn(t) for t in f]
            if None not in g:
                _add(out, tuple(sorted(g)), c)
        return ForestPolynomial(out)

    def __repr__(self):
        bits = [f"{c}*{format_forest(f)}" for f, c in sorted(self.terms.items())]
        return " + ".join(bits) or "0"


class PairPolynomial(_Polynomial):
    """Linear combination of forest (x) forest pairs."""

    __slots__ = ()

    @staticmethod
    def _key_product(p, q):
        return tuple(sorted(p[0] + q[0])), tuple(sorted(p[1] + q[1]))

    @classmethod
    def of(cls, left, right, coeff=1):
        return cls({(tuple(sorted(left)), tuple(sorted(right))): coeff})

    def __repr__(self):
        bits = [f"{c}*({format_forest(a)} (x) {format_forest(b)})"
                for (a, b), c in sorted(self.terms.items())]
        return " + ".join(bits) or "0"


# --- interned trees and forests, and the cache -----------------------------------

class _TreeTable:
    """Hash-consed trees and forests: equal ones get the same integer id.

    One counter numbers both, since a tree is the one-tree forest: forest k
    holds the sorted tuple of its tree ids and its nested-tuple form, and a
    tree's id is the id of its one-tree forest, so forest i of tree i is (i,).
    Forest 0 is the empty forest.  A tree also holds its root label and the
    forest id of its children in `node`.
    """

    def __init__(self):
        self.ids: dict = {}        # (label, child forest id) -> tree id
        self.node: dict = {}       # tree id -> (label, child forest id)
        self.by_tuple: dict = {}   # nested tuple -> tree id
        self.forest_ids: dict = {(): 0}  # sorted ids of no or several trees -> forest id
        self.forests: list = [()]
        self.forest_tuples: list = [()]

    def intern(self, label, children: int) -> int:
        """Id of the tree with this root label over the forest `children`."""
        key = (label, children)
        tid = self.ids.get(key)
        if tid is None:
            t = (label, self.forest_tuples[children])
            tid = self.ids[key] = len(self.forests)
            self.node[tid] = key
            self.forests.append((tid,))
            self.forest_tuples.append((t,))
            self.by_tuple[t] = tid
        return tid

    def of(self, t) -> int:
        """Id of a nested-tuple tree."""
        tid = self.by_tuple.get(t)
        if tid is None:
            label, children = t
            tid = self.intern(label, self.forest(tuple(sorted(self.of(c) for c in children))))
            self.by_tuple[t] = tid
        return tid

    def forest(self, key: tuple) -> int:
        """Id of the forest with these sorted tree ids."""
        if len(key) == 1:
            return key[0]
        fid = self.forest_ids.get(key)
        if fid is None:
            # sort before taking an id: unorderable labels raise here
            f = tuple(sorted(self.forest_tuples[i][0] for i in key))
            fid = self.forest_ids[key] = len(self.forests)
            self.forests.append(key)
            self.forest_tuples.append(f)
        return fid


class HopfCache:
    """The one memo store of this module: the tree table and every memo table.

    `size` counts nonempty forests, each tree once as its one-tree forest,
    plus memo entries.  Each public function that memoises calls `trim()` on
    entry, which drops the table and all memos at once when `size` is above
    `max_entries`, so no tree or forest id outlives its table; one call may
    overshoot the bound by what it adds itself, and `trims` counts the drops.
    `hits` and `misses` count public calls that memoise, one each: a hit when
    the call's own entry (the cut list, coproduct or antipode of its tree or
    forest, or its list of trees) was already held, a miss when the call had
    to compute it.  Lookups inside the recursion are plain dict reads and are
    not counted.

    `checked` is the id of the tree whose coproduct the last coassociativity
    or counit check memoised itself; the next check of another tree drops that
    entry (see `_checked_tree`).
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self.clear()

    def clear(self):
        self.hits = self.misses = self.trims = 0
        self._drop()

    def _drop(self):
        self.entries = 0
        self.checked = None          # ids restart with the new table
        self.trees = _TreeTable()
        self.cuts: dict = {}         # tree id -> (id cuts, admissible_cuts(tree))
        self.edges: dict = {}        # (ordered shape, edge mask) -> frozenset of vertex paths
        self.coproduct: dict = {}    # forest id -> {(left id, right id): coeff}
        self.antipode: dict = {}     # forest id -> {forest id: coeff}
        self.joins: dict = {}        # (lesser, greater forest id) -> id of their product
        self.relabel: dict = {}      # group -> [(on_label, {forest id: relabelled id})]
        self.enumeration: dict = {}  # ("trees", labels, vertices) -> list of trees

    @property
    def size(self) -> int:
        # forest 0, the empty forest, is in every table and is not an entry
        return self.entries + len(self.trees.forests) - 1

    def trim(self):
        if self.size > self.max_entries:
            self.trims += 1
            self._drop()

    def count(self, held: bool):
        """Count one public call: a hit when its own memo entry was held."""
        if held:
            self.hits += 1
        else:
            self.misses += 1

    def put(self, memo: dict, key, value):
        memo[key] = value
        self.entries += 1
        return value

    def stats(self) -> dict:
        return {"size": self.size, "max_entries": self.max_entries,
                "hits": self.hits, "misses": self.misses, "trims": self.trims}


# Sizes measured with tracemalloc on Python 3.11.  Enumerated trees are the
# tree table's own tuples, so a list of trees costs no second copy.  `dessins
# hopf --verify --max-vertices 6` fills 22,360 entries (3,132 of them forest
# joins) in 10.3 MiB (0.47 KiB an entry), and one pass of the hopf-identities
# benchmark workload 54,453 in 18.7 MiB; at 7 vertices the suite fills 117,650
# and needs no trim.  Cut lists over 103,600 trees of 4 or 5 vertices take 2
# entries a tree (the tree with its forests, and its cut list) and 0.73 KiB an
# entry; those of all 59,892 trees over 12 labels with at most 4 vertices fill
# 121,997 entries in 75 MiB (0.63 KiB an entry).  So 160,000 entries keep the
# cache under about 120 MiB, and those cut lists fit without a trim.
CACHE = HopfCache(max_entries=160_000)


def clear_caches():
    CACHE.clear()


def _forest_key(f) -> int:
    """Forest id of a forest of nested-tuple trees."""
    table = CACHE.trees
    return table.forest(tuple(sorted(table.of(t) for t in f)))


def _forest_tuple(fid: int) -> tuple:
    """The nested-tuple forest of a forest id."""
    return CACHE.trees.forest_tuples[fid]


def _join(f: int, g: int) -> int:
    """Forest id of the product of two forests, memoised by the pair in
    order: the product commutes."""
    if not f or not g:
        return f or g
    key = (f, g) if f < g else (g, f)
    out = CACHE.joins.get(key)
    if out is None:
        forests = CACHE.trees.forests
        out = CACHE.put(CACHE.joins, key,
                        CACHE.trees.forest(tuple(sorted(forests[f] + forests[g]))))
    return out


# --- admissible cuts --------------------------------------------------------

def admissible_cuts(t):
    """All edge-subset cuts of a tree, with multiplicity.

    Returns tuples (edges, trunk, pruned): `edges` is a frozenset of vertex
    paths (each non-root vertex names its parent edge), `trunk` is the rooted
    component containing the root, `pruned` the forest of removed branches.
    The empty cut (t, empty forest) is included; the full cut is not.
    """
    CACHE.trim()
    tid = CACHE.trees.of(t)
    CACHE.count(tid in CACHE.cuts)
    return _cuts(tid)[1]


def _shape(t) -> tuple:
    """Preorder child counts of a canonical tree: all vertex_paths depends on."""
    out = [len(t[1])]
    for c in t[1]:
        out.extend(_shape(c))
    return tuple(out)


def _cuts(tid: int) -> tuple:
    """The admissible cuts of tree tid as (edge mask, trunk id, pruned forest
    id) triples and, in the same order, as admissible_cuts returns them.

    Bit v of a mask is the parent edge of the v-th vertex in preorder of the
    canonical form.  Trunk and pruned tuples come from the tree table and edge
    sets from a memo shared by all trees of the same ordered shape.
    """
    out = CACHE.cuts.get(tid)
    if out is not None:
        return out
    table = CACHE.trees
    t = table.forest_tuples[tid][0]
    # (mask, trunk children, pruned trees) for each choice of cuts below the
    # children seen so far; a child's edge is either cut or cut inside
    combos = [(0, (), ())]
    offset = 1
    for child in t[1]:
        c = table.by_tuple[child]
        opts = [(1 << offset, None, (c,))]
        opts += [(mask << offset, (trunk,), table.forests[pruned])
                 for mask, trunk, pruned in _cuts(c)[0]]
        combos = [(m0 | m, tr0 if tr is None else tr0 + tr, pr0 + pr)
                  for m0, tr0, pr0 in combos for m, tr, pr in opts]
        offset += tree_nodes(child)
    forest = table.forest
    ids = tuple((mask, table.intern(t[0], forest(tuple(sorted(trunks)))),
                 forest(tuple(sorted(pruned))))
                for mask, trunks, pruned in combos)
    shape = _shape(t)
    paths = None
    cuts = []
    for mask, trunk, pruned in ids:
        edges = CACHE.edges.get((shape, mask))
        if edges is None:
            paths = paths or vertex_paths(t)
            edges = CACHE.put(CACHE.edges, (shape, mask),
                              frozenset(p for v, p in enumerate(paths) if mask >> v & 1))
        cuts.append((edges, table.forest_tuples[trunk][0], table.forest_tuples[pruned]))
    return CACHE.put(CACHE.cuts, tid, (ids, tuple(cuts)))


# --- coproduct, counit and antipode on forest ids ------------------------------

def _delta(f: int) -> dict:
    """Coproduct of the forest id f as {(left id, right id): coefficient}.

    A tree B_j(F) with root label j over the forest F of its children follows
    the 1-cocycle recursion Delta(B_j(F)) = (B_j (x) id) Delta(F) + 1 (x) B_j(F):
    the left factors are the trunks and the right ones the pruned forests of
    its admissible cuts.  A forest's coproduct is the product of its trees'.
    """
    out = CACHE.coproduct.get(f)
    if out is not None:
        return out
    table = CACHE.trees
    tids = table.forests[f]
    if len(tids) == 1:
        label, children = table.node[f]
        # B_j is injective, so distinct left forests give distinct keys
        out = {(table.intern(label, a), b): c for (a, b), c in _delta(children).items()}
        out[(0, f)] = 1
    else:
        # the product of the trees' coproducts; forest 0 is the unit of each join
        forests, forest = table.forests, table.forest
        out = _delta(tids[0]) if tids else {(0, 0): 1}
        for tid in tids[1:]:
            factor = _delta(tid).items()
            product: dict = {}
            for (a1, b1), c1 in out.items():
                left, right = forests[a1], forests[b1]
                for (a2, b2), c2 in factor:
                    k = (forest(tuple(sorted(left + forests[a2]))) if a1 and a2 else a1 or a2,
                         forest(tuple(sorted(right + forests[b2]))) if b1 and b2 else b1 or b2)
                    product[k] = product.get(k, 0) + c1 * c2
            out = product
    return CACHE.put(CACHE.coproduct, f, out)


def _antipode(f: int) -> dict:
    """Antipode of the forest id f as {forest id: coefficient}.

    S(X_t) = -X_t - sum over nonempty cuts of S(X_trunk) X_pruned, read off
    the coproduct; S is multiplicative on forests.
    """
    out = CACHE.antipode.get(f)
    if out is not None:
        return out
    tids = CACHE.trees.forests[f]
    if len(tids) == 1:
        out = {f: -1}
        for (a, b), c in _delta(f).items():
            if a and b:
                for g, s in _antipode(a).items():
                    _add(out, _join(g, b), -c * s)
    else:
        out = {0: 1}
        for tid in tids:
            product: dict = {}
            for g1, s1 in out.items():
                for g2, s2 in _antipode(tid).items():
                    _add(product, _join(g1, g2), s1 * s2)
            out = product
    return CACHE.put(CACHE.antipode, f, out)


def coproduct(x: ForestPolynomial) -> PairPolynomial:
    """Cut coproduct, an algebra morphism to the pair algebra."""
    CACHE.trim()
    keys = [(_forest_key(f), c) for f, c in x.terms.items()]
    CACHE.count(all(f in CACHE.coproduct for f, _ in keys))
    out: dict = {}
    for f, c in keys:
        for (a, b), c2 in _delta(f).items():
            _add(out, (_forest_tuple(a), _forest_tuple(b)), c * c2)
    return PairPolynomial(out)


def counit(x: ForestPolynomial):
    """Coefficient of the empty forest."""
    return x.terms.get(EMPTY_FOREST, 0)


def antipode(x: ForestPolynomial) -> ForestPolynomial:
    """Hopf antipode: S(1) = 1, multiplicative on forests, linear."""
    CACHE.trim()
    keys = [(_forest_key(f), c) for f, c in x.terms.items()]
    CACHE.count(all(f in CACHE.antipode for f, _ in keys))
    out: dict = {}
    for f, c in keys:
        for g, s in _antipode(f).items():
            _add(out, _forest_tuple(g), c * s)
    return ForestPolynomial(out)


# --- Hopf identity checks (used by tests and the command line) --------------

def _checked_tree(t) -> int:
    """Forest id of X_t for a coassociativity or counit check.

    Drops the coproduct that the last such check memoised for its own tree,
    unless t is that tree: no check of a tree of the same size reads it, and
    a larger tree's check memoises it again as a sub-result.
    """
    CACHE.trim()
    f = CACHE.trees.of(t)
    if f != CACHE.checked:
        if CACHE.coproduct.pop(CACHE.checked, None) is not None:
            CACHE.entries -= 1
        CACHE.checked = None if f in CACHE.coproduct else f
    CACHE.count(f in CACHE.coproduct)
    return f


def coassociativity_holds(t) -> bool:
    """(coproduct (x) id) coproduct == (id (x) coproduct) coproduct on X_t.

    Both sides are grouped by their last tensor factor z.  At z the left side
    is the sum of c Delta(a) over the terms c a (x) z of Delta(X_t), so a lone
    term with c = 1 is the memoised Delta(a) itself; only the right side, the
    sum of c c2 a (x) b1 over the terms c a (x) b and c2 b1 (x) z of Delta(b),
    is built.
    """
    f = _checked_tree(t)
    by_last: dict = {}      # z -> [(a, c)] over the terms c a (x) z
    right: dict = {}        # z -> {(a, b1): coefficient}
    for (a, b), c in _delta(f).items():
        by_last.setdefault(b, []).append((a, c))
        for (b1, z), c2 in _delta(b).items():
            part = right.get(z)
            if part is None:
                part = right[z] = {}
            k = (a, b1)
            part[k] = part.get(k, 0) + c * c2
    for z, terms in by_last.items():
        if len(terms) == 1 and terms[0][1] == 1:
            left = _delta(terms[0][0])
        else:
            left = {}
            for a, c in terms:
                for k, c2 in _delta(a).items():
                    left[k] = left.get(k, 0) + c * c2
        if left != right.pop(z, {}):
            return False
    return not right


def counit_axioms_hold(t) -> bool:
    """(counit (x) id) coproduct == id == (id (x) counit) coproduct on X_t."""
    f = _checked_tree(t)
    delta = _delta(f)
    left = {b: c for (a, b), c in delta.items() if not a}
    right = {a: c for (a, b), c in delta.items() if not b}
    return left == right == {f: 1}


def antipode_identity_holds(t) -> bool:
    """m(S (x) id) coproduct == unit . counit == m(id (x) S) coproduct on X_t."""
    CACHE.trim()
    f = CACHE.trees.of(t)
    CACHE.count(f in CACHE.antipode)
    left: dict = {}
    right: dict = {}
    for (a, b), c in _delta(f).items():
        for g, s in _antipode(a).items():
            _add(left, _join(g, b), c * s)
        for g, s in _antipode(b).items():
            _add(right, _join(a, g), c * s)
    return not left and not right      # the counit of a tree is 0


def verify_identities(max_vertices: int = 5, seed: int = 0) -> Report:
    """The Hopf identities on every tree over three labels with at most
    `max_vertices` vertices (the antipode on at most 5), and the coproduct's
    multiplicativity on seeded sample products."""
    labels = tuple(range(3))
    trees = enumerate_trees(labels, max_vertices)
    anti_max = min(max_vertices, 5)
    rng = random.Random(seed)
    sample = [ForestPolynomial.generator(rng.choice(trees)) for _ in range(6)]
    # counit right after coassociativity on each tree reads the coproduct
    # that the coassociativity check just memoised
    coassociativity, counit = check_together(
        [(f"coassociativity on trees <= {max_vertices} vertices", coassociativity_holds),
         ("counit axioms", counit_axioms_hold)], trees, format_tree)
    return Report((
        coassociativity,
        check_all(f"antipode convolution on trees <= {anti_max} vertices",
                  enumerate_trees(labels, anti_max), antipode_identity_holds, format_tree),
        counit,
        check_all("coproduct is an algebra morphism on sampled products",
                  zip(sample[::2], sample[1::2]),
                  lambda ab: coproduct(ab[0] * ab[1]) == coproduct(ab[0]) * coproduct(ab[1])),
    ))


# --- relabelling and the group action ----------------------------------------

def relabel_tree(t, fn):
    label, children = t
    if not children:
        return (fn(label), ())
    if len(children) == 1:
        return (fn(label), (relabel_tree(children[0], fn),))
    return (fn(label), tuple(sorted([relabel_tree(c, fn) for c in children])))


def g_act(gamma, x):
    """Relabel every vertex by a group element; an algebra and coalgebra map.

    `gamma` is a group element exposing on_label (see galois.GroupElement).
    """
    if isinstance(x, tuple):
        return relabel_tree(x, gamma.on_label)
    return x.map_trees(lambda t: relabel_tree(t, gamma.on_label))


def _relabel(fid: int, memo: dict, fn) -> int:
    """Id of the forest relabelled by fn; memo holds the ids relabelled so far."""
    out = memo.get(fid)
    if out is None:
        table = CACHE.trees
        tids = table.forests[fid]
        if len(tids) == 1:
            label, children = table.node[fid]
            out = table.intern(fn(label), _relabel(children, memo, fn))
        else:
            out = table.forest(tuple(sorted(_relabel(u, memo, fn) for u in tids)))
        CACHE.put(memo, fid, out)
    return out


def balanced_cuts(t, group):
    """Admissible cuts whose trunk/pruned pair stays an admissible cut of the
    relabelled tree for every group element.

    Per element, the tree is relabelled once and its cut pairs are the keys of
    the relabelled tree's coproduct.  Each group's elements are built once,
    each with its own relabelling memo, so the group must be hashable: it keys
    those memos.  For label-only actions this is all of admissible_cuts(t)."""
    CACHE.trim()
    tid = CACHE.trees.of(t)
    CACHE.count(tid in CACHE.cuts)
    ids, cuts = _cuts(tid)
    keep = [True] * len(ids)
    memos = CACHE.relabel.get(group)
    if memos is None:
        memos = CACHE.put(CACHE.relabel, group,
                          [(group.element(a).on_label, {}) for a in group.elements])
    for fn, memo in memos:
        cut_pairs = _delta(_relabel(tid, memo, fn))
        for i, (_, trunk, pruned) in enumerate(ids):
            if keep[i]:
                a, b = memo.get(trunk), memo.get(pruned)
                if a is None:
                    a = _relabel(trunk, memo, fn)
                if b is None:
                    b = _relabel(pruned, memo, fn)
                keep[i] = (a, b) in cut_pairs
    return [cut for cut, ok in zip(cuts, keep) if ok]


# --- grafting of rooted trees ------------------------------------------------

def vertex_paths(t) -> list[tuple]:
    """All vertices of the canonical form, as child-index paths from the root."""
    out = [()]
    for i, c in enumerate(t[1]):
        out.extend((i,) + p for p in vertex_paths(c))
    return out


def graft_at(t1, path, t2):
    """Attach the root of t2 as a new child of the vertex of t1 at `path`."""
    label, children = t1
    if not path:
        return (label, tuple(sorted(children + (t2,))))
    i = path[0]
    new_child = graft_at(children[i], path[1:], t2)
    return (label, tuple(sorted(children[:i] + (new_child,) + children[i + 1:])))


def relabel_tracked(t, fn):
    """Relabel and report where each vertex path lands in the new canonical form."""
    label, children = t
    rebuilt = []
    submaps = []
    for c in children:
        nc, sm = relabel_tracked(c, fn)
        rebuilt.append(nc)
        submaps.append(sm)
    order = sorted(range(len(rebuilt)), key=lambda i: (rebuilt[i], i))
    new_children = tuple(rebuilt[i] for i in order)
    path_map = {(): ()}
    for new_pos, old_pos in enumerate(order):
        for old_sub, new_sub in submaps[old_pos].items():
            path_map[(old_pos,) + old_sub] = (new_pos,) + new_sub
    return (fn(label), new_children), path_map


def graft_equivariance_check(action, t1, path, t2) -> bool:
    """Whether acting then grafting equals grafting then acting.

    `action` is one of three kinds: a group element (its on_label is the label
    map), a plain label map, or a tree action with on_tree(t) and
    on_site(t, path), the path at which the vertex of t at `path` lands in
    on_tree(t).  A label map relabels t1 once, for both its image and where
    each vertex lands.  Grafting attaches the root of t2 under the vertex of
    t1 at `path`.
    """
    if hasattr(action, "on_label") or not hasattr(action, "on_tree"):
        fn = getattr(action, "on_label", action)
        image, site_map = relabel_tracked(t1, fn)
        return (relabel_tree(graft_at(t1, path, t2), fn)
                == graft_at(image, site_map[path], relabel_tree(t2, fn)))
    return (action.on_tree(graft_at(t1, path, t2))
            == graft_at(action.on_tree(t1), action.on_site(t1, path), action.on_tree(t2)))


# --- the forest partial order -------------------------------------------------

class TooLarge(ValueError):
    pass


def _only_child_cuts(t) -> list[tuple]:
    """Every (trunk, pieces) left by cutting a set of only-child edges of t."""
    label, children = t
    kept = [((), ())]
    for c in children:
        kept = [(trunks + (trunk,), pieces + more)
                for trunks, pieces in kept for trunk, more in _only_child_cuts(c)]
    out = [((label, tuple(sorted(trunks))), pieces) for trunks, pieces in kept]
    if len(children) == 1:
        out += [((label, ()), pieces + trunks) for trunks, pieces in kept]
    return out


def forest_leq(f, g, max_nodes: int = 8) -> bool:
    """Whether forest g is reachable from a sub-multiset of f by graftings.

    One grafting step attaches the root of one component under a leaf of
    another.  That vertex keeps it as its only child, since later grafts land
    only on leaves, and cut pieces graft back in any order.  So g is
    reachable exactly when cutting some set of only-child edges of g leaves
    a sub-multiset of f.  Inputs above `max_nodes` total vertices are rejected.
    """
    if forest_nodes(f) > max_nodes or forest_nodes(g) > max_nodes:
        raise TooLarge(f"forest order exceeds the search budget ({max_nodes})")
    have = Counter(f)
    per_tree = [[Counter((trunk,) + pieces) for trunk, pieces in _only_child_cuts(t)]
                for t in g]
    return any(sum(choice, Counter()) <= have for choice in itertools.product(*per_tree))


# --- enumeration of labelled rooted trees -------------------------------------

def trees_with_n_nodes(labels, n: int) -> list:
    """All canonical labelled rooted trees with exactly n vertices."""
    CACHE.trim()
    labels = tuple(labels)
    CACHE.count(("trees", labels, n) in CACHE.enumeration)
    return list(_trees_cached(labels, n))


def enumerate_trees(labels, max_nodes: int) -> list:
    CACHE.trim()
    labels = tuple(labels)
    # the list for max_nodes is built from those of every smaller size
    CACHE.count(("trees", labels, max_nodes) in CACHE.enumeration)
    return [t for n in range(1, max_nodes + 1) for t in _trees_cached(labels, n)]


def _trees_cached(labels, n):
    """All trees with n vertices, each the tree table's own nested tuple."""
    key = ("trees", labels, n)
    out = CACHE.enumeration.get(key)
    if out is None:
        # the children are the table's own tuples, so by_tuple finds each by
        # identity and no tree is rebuilt from its nested form
        table = CACHE.trees
        fids = [table.forest(tuple(sorted([table.by_tuple[c] for c in f])))
                for f in _forests(labels, n - 1, None)]
        tuples = table.forest_tuples
        out = CACHE.put(CACHE.enumeration, key,
                        [tuples[table.intern(lab, fid)][0] for lab in labels for fid in fids])
    return out


def _forests(labels, total, least):
    """All canonical forests (sorted tuples of trees) with `total` vertices and
    no tree below `least`: the least tree first, never exceeding the rest."""
    if total == 0:
        yield ()
        return
    for size in range(1, total + 1):
        for t in _trees_cached(labels, size):
            if least is None or t >= least:
                for rest in _forests(labels, total - size, t):
                    yield (t,) + rest


# --- serialization -------------------------------------------------------------

def polynomial_to_json(x: ForestPolynomial) -> list:
    """The terms of x as JSON; raises TreeSyntaxError on the first label whose
    text does not parse back to itself ("12", "j3", -1 and "a b" do not)."""
    out = []
    for f in sorted(x.terms):
        for label in (lab for t in f for lab in tree_labels(t)):
            text = format_tree(leaf(label))
            if not _LABEL_RE.fullmatch(text) or parse_tree(text) != leaf(label):
                raise TreeSyntaxError(f"label {label!r} writes as {text!r}, which reads back "
                                      "as another label or not at all")
        c = x.terms[f]
        frac = c if isinstance(c, Fraction) else Fraction(c)
        out.append({"forest": [format_tree(t) for t in f],
                    "coeff": f"{frac.numerator}/{frac.denominator}"})
    return out


def polynomial_from_json(obj) -> ForestPolynomial:
    """Read what polynomial_to_json writes; a malformed list, term or
    coefficient raises TreeSyntaxError naming it."""
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, list):
        raise TreeSyntaxError(f"polynomial JSON is a {type(obj).__name__}, not a list of terms")
    terms: dict = {}
    for item in obj:
        if not (isinstance(item, dict) and "coeff" in item and isinstance(item.get("forest"), list)
                and all(isinstance(s, str) for s in item["forest"])):
            raise TreeSyntaxError(f"term {item!r} is not an object with 'coeff' and a "
                                  "'forest' list of tree texts")
        f = tuple(sorted(parse_tree(s) for s in item["forest"]))
        try:
            c = Fraction(item["coeff"])
        except (ValueError, TypeError, ArithmeticError):
            raise TreeSyntaxError(f"coefficient {item['coeff']!r} is not p/q, q != 0") from None
        terms[f] = terms.get(f, 0) + (int(c) if c.denominator == 1 else c)
    return ForestPolynomial(terms)
