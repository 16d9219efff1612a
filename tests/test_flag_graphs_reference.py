"""Differential test: flag-graph unions, grafting, magma words and magma trees
against the code they replaced.

The reference below namespaces each part of a union through its own validated
copy, validates after every graft of an iterated plan, reads a vertex's flags
by scanning every flag, builds the words of each arity from a table of all
smaller arities, and builds and validates a fresh flag graph for every magma
tree, one per lettering of a bracketing.  Outputs are compared as JSON, flag
maps, words and tree fields; failures are compared by exception type and
message.
"""

import dataclasses
import random

import pytest

from dessins import graphs, operads, strata
from dessins.graphs import corolla, graph_to_json, validate
from dessins.operads import (
    TOWARD,
    ConsumedTail,
    MalformedWord,
    NotATail,
    OrientedBinaryTree,
    RootGraftNotAllowed,
    SameSite,
    word_to_text,
)


# --- reference: one validated copy per part, one validation per graft ---------

def ref_prefixed(g, prefix):
    fmap = {f: prefix + f for f in g.flags}
    vmap = {v: prefix + v for v in g.vertices}
    gg = validate(
        fmap.values(),
        vmap.values(),
        {fmap[f]: vmap[g.boundary[f]] for f in g.flags},
        {fmap[f]: fmap[g.involution[f]] for f in g.flags},
    )
    return gg, fmap, vmap


def ref_disjoint_union_with_maps(g1, g2):
    a, fmap1, _ = ref_prefixed(g1, "0.")
    b, fmap2, _ = ref_prefixed(g2, "1.")
    g = validate(
        a.flags + b.flags,
        a.vertices + b.vertices,
        {**a.boundary, **b.boundary},
        {**a.involution, **b.involution},
    )
    return g, fmap1, fmap2


def ref_check_tail(g, t):
    if t not in g.boundary:
        raise NotATail(f"{t!r} is not a flag of the graph")
    if g.involution[t] != t:
        raise NotATail(f"{t!r} is half of an edge, not a tail")


def ref_graft_within(g, t1, t2):
    ref_check_tail(g, t1)
    ref_check_tail(g, t2)
    if t1 == t2:
        raise SameSite(f"cannot graft tail {t1!r} to itself")
    invl = dict(g.involution)
    invl[t1], invl[t2] = t2, t1
    return validate(g.flags, g.vertices, g.boundary, invl)


def ref_graft_with_maps(g1, t1, g2, t2):
    ref_check_tail(g1, t1)
    ref_check_tail(g2, t2)
    if g1 is g2 and t1 == t2:
        raise SameSite("the two sites are the same tail of the same graph")
    g, fmap1, fmap2 = ref_disjoint_union_with_maps(g1, g2)
    return ref_graft_within(g, fmap1[t1], fmap2[t2]), fmap1, fmap2


def ref_iterate_grafts(parts, plan):
    flags, vertices, boundary, involution = [], [], {}, {}
    renames = []
    for i, p in enumerate(parts):
        pf = {f: f"{i}.{f}" for f in p.flags}
        renames.append(pf)
        flags.extend(pf.values())
        vertices.extend(f"{i}.{v}" for v in p.vertices)
        boundary.update({pf[f]: f"{i}.{p.boundary[f]}" for f in p.flags})
        involution.update({pf[f]: pf[p.involution[f]] for f in p.flags})
    g = validate(flags, vertices, boundary, involution)
    consumed = set()
    for i, ti, j, tj in plan:
        a, b = renames[i].get(ti), renames[j].get(tj)
        if a is None or b is None:
            raise NotATail(f"unknown tail in instruction ({i}, {ti!r}, {j}, {tj!r})")
        for f in (a, b):
            if f in consumed:
                raise ConsumedTail(f"tail {f!r} was consumed by an earlier graft")
        g = ref_graft_within(g, a, b)
        consumed.update((a, b))
    return g


def ref_enumerate_magma_words(letters, arity):
    letters = list(letters)
    if arity < 1:
        raise MalformedWord("arity must be >= 1")
    table = {1: list(letters)}
    for m in range(2, arity + 1):
        words = []
        for p in range(1, m):
            q = m - p
            words.extend((w1, w2) for w1 in table[p] for w2 in table[q])
        table[m] = words
    return sorted(table[arity], key=word_to_text)


def ref_graft_magma(t1, t2, leaf_label):
    target = [f for f, lab in t2.leaf_order if lab == leaf_label]
    if not target:
        if leaf_label == t2.root_flag:
            raise RootGraftNotAllowed("the root tail is not a composition site")
        raise NotATail(f"t2 has no leaf labelled {leaf_label!r}")
    leaf_flag = target[0]
    g, fmap1, fmap2 = ref_graft_with_maps(t1.graph, t1.root_flag, t2.graph, leaf_flag)
    orientation = {fmap1[f]: o for f, o in t1.orientation.items()}
    orientation.update({fmap2[f]: o for f, o in t2.orientation.items()})
    leaf_order = []
    for f, lab in t2.leaf_order:
        if f == leaf_flag:
            leaf_order.extend((fmap1[g1f], l1) for g1f, l1 in t1.leaf_order)
        else:
            leaf_order.append((fmap2[f], lab))
    return OrientedBinaryTree(g, orientation, fmap2[t2.root_flag], tuple(leaf_order))


def ref_tree_from_shape(shape):
    flags, vertices, boundary, involution, orientation = [], [], {}, {}, {}
    leaves = []

    def build(node, path):
        vname = "v" + path
        vertices.append(vname)
        out = vname + ".o"
        flags.append(out)
        boundary[out] = vname
        orientation[out] = operads.OUTWARD
        for side, child in zip("LR", node):
            inp = vname + "." + side.lower()
            flags.append(inp)
            boundary[inp] = vname
            orientation[inp] = TOWARD
            if isinstance(child, tuple):
                child_out = build(child, path + side)
                involution[inp] = child_out
                involution[child_out] = inp
            else:
                involution[inp] = inp
                leaves.append((inp, child))
        return out

    if not isinstance(shape, tuple):
        v, leaf, out = "v", "v.i", "v.o"
        g = validate([leaf, out], [v], {leaf: v, out: v}, {leaf: leaf, out: out})
        return OrientedBinaryTree(g, {leaf: TOWARD, out: operads.OUTWARD}, out,
                                  ((leaf, shape),), degenerate=True)

    root_out = build(shape, "")
    involution[root_out] = root_out
    g = validate(flags, vertices, boundary, involution)
    return OrientedBinaryTree(g, orientation, root_out, tuple(leaves))


def ref_bracketings(seq):
    """Every fully parenthesized word over the letters of seq, in order."""
    if len(seq) == 1:
        return [seq[0]]
    return [(left, right) for p in range(1, len(seq))
            for left in ref_bracketings(seq[:p]) for right in ref_bracketings(seq[p:])]


def ref_enumerate_magma_trees(leaves):
    leaves = tuple(leaves)
    return [ref_tree_from_shape(s) for s in sorted(ref_bracketings(leaves), key=word_to_text)]


def ref_flags_at(g, v):
    return tuple(f for f in g.flags if g.boundary[f] == v)


def ref_tree_to_word(t):
    if t.degenerate:
        return t.leaf_order[0][1]
    g = t.graph
    pos = {flag: i for i, (flag, _) in enumerate(t.leaf_order)}
    label = dict(t.leaf_order)

    def read(out_flag):
        v = g.boundary[out_flag]
        inputs = [f for f in ref_flags_at(g, v) if f != out_flag]
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


def ref_validate_magma_tree(t):
    g = t.graph
    if t.degenerate:
        if len(g.vertices) != 1 or g.edges or len(g.tails) != 2:
            raise MalformedWord("degenerate tree must be one vertex with two tails")
        return
    for v in g.vertices:
        fl = ref_flags_at(g, v)
        if len(fl) != 3:
            raise MalformedWord(f"vertex {v!r} does not bound exactly three flags")
        inward = [f for f in fl if t.orientation[f] == TOWARD]
        outward = [f for f in fl if t.orientation[f] == operads.OUTWARD]
        if len(inward) != 2 or len(outward) != 1:
            raise MalformedWord(f"vertex {v!r} must have two inputs and one output")
    for e in g.edges:
        a, b = sorted(e)
        if t.orientation[a] == t.orientation[b]:
            raise MalformedWord("edge halves must carry opposite orientations")
    if g.involution[t.root_flag] != t.root_flag or t.orientation[t.root_flag] != operads.OUTWARD:
        raise MalformedWord("root flag must be an outward tail")
    root_vertex = g.boundary[t.root_flag]
    for v in g.vertices:
        cur, seen = v, set()
        while cur != root_vertex:
            if cur in seen:
                raise MalformedWord("outward path revisits a vertex")
            seen.add(cur)
            out = [f for f in ref_flags_at(g, cur) if t.orientation[f] == operads.OUTWARD][0]
            if g.involution[out] == out:
                raise MalformedWord(f"outward path from {v!r} exits at a non-root tail")
            cur = g.boundary[g.involution[out]]


# --- comparison helpers ---------------------------------------------------------

def outcome(fn, *args):
    """The JSON-comparable result of a call, or its exception type and message."""
    try:
        result = fn(*args)
    except Exception as exc:        # compared, not swallowed
        return ("raised", type(exc), str(exc))
    return ("ok", _plain(result))


def _plain(x):
    if isinstance(x, graphs.CombinatorialGraph):
        return graph_to_json(x)
    if isinstance(x, OrientedBinaryTree):
        return (graph_to_json(x.graph), x.orientation, x.root_flag, x.leaf_order,
                x.degenerate)
    if isinstance(x, tuple) and any(isinstance(y, graphs.CombinatorialGraph) for y in x):
        return tuple(_plain(y) for y in x)
    return x


def random_part(rng):
    """A corolla over a few shared tail names, or now and then two corollas
    grafted together, so that some flags are halves of an edge."""
    if rng.random() < 0.2:
        return operads.graft(corolla("v", "abc"), rng.choice("abc"), corolla("w", "bcd"), "c")
    return corolla(rng.choice("uvw"), rng.sample("abcdef", rng.randint(1, 5)))


def random_plan(rng, parts):
    plan = []
    for _ in range(rng.randint(0, 5)):
        i, j = rng.randrange(len(parts)), rng.randrange(len(parts))
        ti = rng.choice(parts[i].flags + ("zz",))
        tj = ti if rng.random() < 0.1 else rng.choice(parts[j].flags + ("zz",))
        plan.append((i, ti, j, tj))
    return plan


# --- tests -------------------------------------------------------------------

def test_iterate_grafts_matches_reference_on_seeded_plans():
    rng = random.Random(20261018)
    succeeded, failures = 0, set()
    for _ in range(3000):
        parts = [random_part(rng) for _ in range(rng.randint(1, 5))]
        plan = random_plan(rng, parts)
        expected = outcome(ref_iterate_grafts, parts, plan)
        assert outcome(operads.iterate_grafts, parts, plan) == expected, (parts, plan)
        if expected[0] == "ok":
            succeeded += 1
        else:
            failures.add(expected[1:])
    # plenty of plans succeed, and every failure a plan can meet is met
    assert succeeded > 500
    for kind, phrase in ((NotATail, "unknown tail"), (NotATail, "half of an edge"),
                         (ConsumedTail, "consumed"), (SameSite, "to itself")):
        assert any(k is kind and phrase in msg for k, msg in failures), phrase


def test_union_and_graft_match_reference_on_corollas():
    rng = random.Random(7)
    pool = [random_part(rng) for _ in range(12)] + [graphs.empty_graph()]
    for g1 in pool:
        for g2 in pool:
            assert (outcome(graphs.disjoint_union_with_maps, g1, g2)
                    == outcome(ref_disjoint_union_with_maps, g1, g2))
            assert (outcome(graphs.disjoint_union, g1, g2)
                    == ("ok", outcome(ref_disjoint_union_with_maps, g1, g2)[1][0]))
            for t1 in g1.flags + ("zz",):
                for t2 in g2.flags[:2] + ("zz",):
                    assert (outcome(operads.graft_with_maps, g1, t1, g2, t2)
                            == outcome(ref_graft_with_maps, g1, t1, g2, t2))
                    assert (outcome(operads.graft_within, g1, t1, t1)
                            == outcome(ref_graft_within, g1, t1, t1))


def test_graft_with_maps_matches_reference_on_n5_strata():
    graphs5 = [s.tree.graph for group in strata.enumerate_strata("abcde").values()
               for s in group]
    assert len(graphs5) == 26
    for k, g1 in enumerate(graphs5):
        for m, g2 in enumerate(graphs5):
            for i, t1 in enumerate(g1.tails):
                t2 = g2.tails[(i + k + m) % len(g2.tails)]
                assert (outcome(operads.graft_with_maps, g1, t1, g2, t2)
                        == outcome(ref_graft_with_maps, g1, t1, g2, t2))
        # the same graph object at one site, and at an edge half
        half = min(min(e) for e in g1.edges) if g1.edges else "zz"
        for t1, t2 in ((g1.tails[0], g1.tails[0]), (g1.tails[0], g1.tails[1]),
                       (half, g1.tails[0])):
            assert (outcome(operads.graft_with_maps, g1, t1, g1, t2)
                    == outcome(ref_graft_with_maps, g1, t1, g1, t2))


def magma_trees():
    trees = [operads.degenerate_magma_tree("q")]
    for leaves in ("ab", "xyz", "pqrs"):
        trees.extend(operads.enumerate_magma_trees(leaves))
    return trees


def substitute(word, old, new):
    if isinstance(word, tuple):
        return tuple(substitute(w, old, new) for w in word)
    return new if word == old else word


def test_graft_magma_and_its_word_match_reference():
    """Proper trees graft as the reference does.  The reference leaves a
    two-flag vertex where the arity-1 unit takes part, so those pairs check
    the unit law instead."""
    trees = magma_trees()
    words = 0
    for t1 in trees:
        for t2 in trees:
            for label in t2.labels + (t2.root_flag, "zz"):
                expected = outcome(ref_graft_magma, t1, t2, label)
                if expected[0] != "ok":
                    assert outcome(operads.graft_magma, t1, t2, label) == expected
                    continue
                out = operads.graft_magma(t1, t2, label)
                if t2.degenerate:
                    assert _plain(out) == _plain(t1)
                    want = ("ok", ref_tree_to_word(t1))
                elif t1.degenerate:
                    operads.validate_magma_tree(out)
                    want = ("ok", substitute(ref_tree_to_word(t2), label, t1.labels[0]))
                else:
                    assert _plain(out) == expected[1]
                    ref = ref_graft_magma(t1, t2, label)
                    assert (outcome(operads.validate_magma_tree, out)
                            == outcome(ref_validate_magma_tree, ref))
                    want = outcome(ref_tree_to_word, ref)
                word = outcome(operads.tree_to_word, out)
                assert word == want
                words += word[0] == "ok"
    assert words == sum(len(t.labels) for t in trees) * len(trees)


def test_reading_malformed_magma_trees_matches_reference():
    """Flip one flag's orientation, or move the root, and compare the errors."""
    opposite = {operads.TOWARD: operads.OUTWARD, operads.OUTWARD: operads.TOWARD}
    four = OrientedBinaryTree(corolla("v", "abcd"), dict.fromkeys("abc", TOWARD) | {"d": "-"},
                              "d", (("a", "a"), ("b", "b"), ("c", "c")))
    for t in magma_trees() + [four]:
        variants = [t]
        for f in t.graph.flags:
            flipped = dict(t.orientation, **{f: opposite[t.orientation[f]]})
            variants.append(OrientedBinaryTree(t.graph, flipped, t.root_flag, t.leaf_order,
                                               t.degenerate))
            variants.append(OrientedBinaryTree(t.graph, t.orientation, f, t.leaf_order,
                                               t.degenerate))
        variants.append(OrientedBinaryTree(t.graph, t.orientation, t.root_flag,
                                           t.leaf_order[::-1], t.degenerate))
        for v in variants:
            assert outcome(operads.tree_to_word, v) == outcome(ref_tree_to_word, v)
            assert (outcome(operads.validate_magma_tree, v)
                    == outcome(ref_validate_magma_tree, v))


@pytest.mark.parametrize("letters", ["a", "ab", "abc", "aab"])
def test_enumerate_magma_words_matches_reference(letters):
    for arity in range(0, 6):
        assert (outcome(operads.enumerate_magma_words, letters, arity)
                == outcome(ref_enumerate_magma_words, letters, arity))


def tree_fields(t):
    g = t.graph
    return (g.flags, g.vertices, g.boundary, g.involution, g.edges, g.tails,
            t.orientation, t.root_flag, t.leaf_order, t.degenerate)


# the last lettering has letters whose texts hold brackets, "%" or nothing,
# so that texts of distinct bracketings can coincide
LETTERINGS = ("abcdefg", tuple(range(7)), "xyxxyyx", ("(", "%s", ")", "", "%", "a)", "(b"))


@pytest.mark.parametrize("n", range(1, 8))
def test_magma_trees_match_per_tree_reference_on_every_bracketing(n):
    """word_to_tree and enumerate_magma_trees give the same graph fields,
    orientation, root, leaf order and degeneracy as a fresh per-tree build,
    on every bracketing of n leaves over str, int and repeated letters."""
    for letters in LETTERINGS:
        seq = tuple(letters[:n])
        words = ref_bracketings(seq)
        assert len(words) == operads.catalan(n - 1)
        for w in words:
            assert tree_fields(operads.word_to_tree(w)) == tree_fields(ref_tree_from_shape(w))
        if n == 1:
            assert (tree_fields(operads.degenerate_magma_tree(seq[0]))
                    == tree_fields(ref_tree_from_shape(seq[0])))
            continue
        got = [tree_fields(t) for t in operads.enumerate_magma_trees(seq)]
        assert got == [tree_fields(t) for t in ref_enumerate_magma_trees(seq)]


def replaced_variants(t):
    """Copies of t made with dataclasses.replace, so each keeps t's link to its
    bracketing's cache entry while changing what the tree says: the leaf
    order reversed or without its last leaf, the root moved to each other
    flag, one flag flipped in a copied orientation, an equal copy of the
    orientation or the graph, a graph whose first leaf is joined to the root,
    or the degenerate flag negated."""
    opposite = {operads.TOWARD: operads.OUTWARD, operads.OUTWARD: operads.TOWARD}
    g = t.graph
    yield dataclasses.replace(t, leaf_order=t.leaf_order[::-1])
    yield dataclasses.replace(t, leaf_order=t.leaf_order[:-1])
    yield dataclasses.replace(t, orientation=dict(t.orientation))
    yield dataclasses.replace(t, graph=validate(g.flags, g.vertices, g.boundary, g.involution))
    yield dataclasses.replace(t, graph=operads.graft_within(g, t.leaf_order[0][0], t.root_flag))
    yield dataclasses.replace(t, degenerate=not t.degenerate)
    for f in g.flags:
        if f != t.root_flag:
            yield dataclasses.replace(t, root_flag=f)
        yield dataclasses.replace(t, orientation=dict(t.orientation,
                                                      **{f: opposite[t.orientation[f]]}))


@pytest.mark.parametrize("n", range(1, 8))
def test_magma_words_and_checks_match_reference_on_every_bracketing(n):
    """tree_to_word and validate_magma_tree agree with the per-tree reference
    on every bracketing of n leaves over str, int and repeated letters, and on
    replaced copies that keep the cache link but change the graph, the
    orientation, the root, the leaf order or degeneracy."""
    reads, checks = set(), set()
    for letters in LETTERINGS:
        seq = tuple(letters[:n])
        trees = [operads.word_to_tree(w) for w in ref_bracketings(seq)]
        if n == 1:
            trees.append(operads.degenerate_magma_tree(seq[0]))
        for t in trees:
            assert outcome(operads.tree_to_word, t) == outcome(ref_tree_to_word, t)
            assert outcome(operads.validate_magma_tree, t) == ("ok", None)
            for v in replaced_variants(t):
                word = outcome(operads.tree_to_word, v)
                assert word == outcome(ref_tree_to_word, v), v
                check = outcome(operads.validate_magma_tree, v)
                assert check == outcome(ref_validate_magma_tree, v), v
                reads.add(word[0])
                checks.add(check[0])
    assert reads == checks == {"ok", "raised"}


def test_grafting_magma_trees_leaves_the_shared_graphs_unchanged():
    """graft_magma over every pair of 4-leaf trees and the unit, at every leaf,
    leaves each cached graph and orientation equal to a fresh build."""
    trees = operads.enumerate_magma_trees("abcd") + [operads.degenerate_magma_tree("u")]
    for t1 in trees:
        for t2 in trees:
            for label in t2.labels:
                operads.validate_magma_tree(operads.graft_magma(t1, t2, label))
    for t in trees + operads.enumerate_magma_trees("wxyz"):
        ref = ref_tree_from_shape(ref_tree_to_word(t))
        assert tree_fields(t) == tree_fields(ref)
