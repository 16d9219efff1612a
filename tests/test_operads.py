import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.graphs import corolla, find_isomorphism, structure_report
from dessins import graphs, operads
from dessins.operads import (
    ConsumedTail,
    MalformedWord,
    NotATail,
    SameSite,
    TooSmall,
    catalan,
    degenerate_magma_tree,
    enumerate_magma_trees,
    enumerate_magma_words,
    graft,
    graft_magma,
    graft_within,
    iterate_grafts,
    parse_word,
    tree_to_word,
    validate_magma_tree,
    word_arity,
    word_to_text,
    word_to_tree,
)


def test_graft_two_corollas():
    g = graft(corolla("v", "abc"), "a", corolla("w", "xyz"), "x")
    rep = structure_report(g)
    assert rep.edges == 1 and rep.tails == 4
    assert len(g.vertices) == 2 and rep.is_stable


def test_graft_counts():
    g = graft(corolla("v", "abc"), "a", corolla("w", "wxyz"), "w")
    rep = structure_report(g)
    assert rep.edges == 1 and rep.tails == 5


def test_graft_additivity_general():
    g1 = graft(corolla("v", "abc"), "a", corolla("w", "xyz"), "x")
    for t1 in ("1.y", "1.z"):
        g2 = graft(g1, t1, corolla("u", "pqr"), "p")
        assert g2.n_edges == g1.n_edges + 1
        assert g2.n_tails == g1.n_tails + 3 - 2


def test_graft_not_a_tail():
    g1 = graft(corolla("v", "abc"), "a", corolla("w", "xyz"), "x")
    with pytest.raises(NotATail):
        graft(g1, "0.a", corolla("u", "pqr"), "p")  # half of an edge now
    with pytest.raises(NotATail):
        graft(g1, "nope", corolla("u", "pqr"), "p")


def test_graft_same_site():
    g = corolla("v", "abc")
    with pytest.raises(SameSite):
        graft(g, "a", g, "a")
    with pytest.raises(SameSite):
        graft_within(g, "a", "a")
    # same graph object at distinct tails is a legitimate self-copy graft
    assert graft(g, "a", g, "b").n_edges == 1


def test_graft_stability_preserved():
    # all tail choices over a small family of stable trees; self-pairs go
    # through a structural copy so both sites are genuinely distinct
    from dessins.graphs import validate

    pool = [corolla("v", "abc"), corolla("v", "abcd"),
            graft(corolla("v", "abc"), "a", corolla("w", "xyz"), "x")]
    for g1 in pool:
        for g2 in pool:
            g2c = validate(g2.flags, g2.vertices, g2.boundary, g2.involution)
            for t1 in g1.tails:
                for t2 in g2c.tails:
                    assert structure_report(graft(g1, t1, g2c, t2)).is_stable


def test_iterate_grafts_identity():
    g = corolla("v", "abc")
    out = iterate_grafts([g], [])
    assert find_isomorphism(out, g) is not None


def test_iterate_grafts_order_independent():
    parts = [corolla("v", "abc"), corolla("w", "pqr"), corolla("u", "xyz")]
    plan1 = [(0, "a", 1, "p"), (0, "b", 2, "x")]
    plan2 = [(0, "b", 2, "x"), (0, "a", 1, "p")]
    g1 = iterate_grafts(parts, plan1)
    g2 = iterate_grafts(parts, plan2)
    assert find_isomorphism(g1, g2) is not None


def test_iterate_grafts_consumed_tail():
    parts = [corolla("v", "abc"), corolla("w", "pqr"), corolla("u", "xyz")]
    with pytest.raises(ConsumedTail):
        iterate_grafts(parts, [(0, "a", 1, "p"), (0, "a", 2, "x")])


def test_iterate_grafts_classical_composition_shape():
    # corolla with n inputs grafted with n corollas at all non-root tails:
    # the composite has 1 + n vertices, n edges, and k_1+...+k_n inputs + root
    base = corolla("v", ["root", "i1", "i2", "i3"])
    args = [corolla("w", ["o", "x1", "x2"]),
            corolla("w", ["o", "y1", "y2", "y3"]),
            corolla("w", ["o", "z1", "z2"])]
    plan = [(0, "i1", 1, "o"), (0, "i2", 2, "o"), (0, "i3", 3, "o")]
    g = iterate_grafts([base] + args, plan)
    rep = structure_report(g)
    assert len(g.vertices) == 4 and rep.edges == 3
    assert rep.tails == 1 + 2 + 3 + 2
    assert rep.is_stable


def test_magma_words_arity_one():
    assert enumerate_magma_words(["a", "b"], 1) == ["a", "b"]


def test_magma_words_arity_two():
    words = enumerate_magma_words(["a", "b"], 2)
    assert sorted(word_to_text(w) for w in words) == ["(aa)", "(ab)", "(ba)", "(bb)"]


def test_magma_words_arity_three_single_letter():
    words = enumerate_magma_words(["a"], 3)
    assert [word_to_text(w) for w in words] == ["((aa)a)", "(a(aa))"]


def test_magma_word_counts():
    for letters in (["a"], ["a", "b"]):
        for m in range(1, 6):
            expected = catalan(m - 1) * len(letters) ** m
            assert len(enumerate_magma_words(letters, m)) == expected


def test_parse_word_round_trip():
    for text in ["a", "(ab)", "((ab)c)", "(a(bc))", "((ab)(cd))"]:
        assert word_to_text(parse_word(text)) == text
    with pytest.raises(MalformedWord):
        parse_word("(ab")
    with pytest.raises(MalformedWord):
        parse_word("ab)")
    with pytest.raises(MalformedWord):
        parse_word("")


def test_magma_trees_two_leaves():
    trees = enumerate_magma_trees(["a", "b"])
    assert len(trees) == 1
    t = trees[0]
    validate_magma_tree(t)
    assert len(t.graph.vertices) == 1 and t.graph.n_tails == 3
    assert t.labels == ("a", "b")


def test_magma_trees_catalan_counts():
    # brute-force shape enumeration against the closed-form Catalan numbers
    for n in range(2, 7):
        leaves = [chr(ord("a") + i) for i in range(n)]
        trees = enumerate_magma_trees(leaves)
        assert len(trees) == catalan(n - 1)
        for t in trees:
            validate_magma_tree(t)


def test_magma_trees_too_small():
    with pytest.raises(TooSmall):
        enumerate_magma_trees(["a"])


def test_word_to_tree_simple():
    t = word_to_tree(("a", "b"))
    validate_magma_tree(t)
    assert t.labels == ("a", "b")
    assert len(t.graph.vertices) == 1


def test_word_to_tree_nested():
    t = word_to_tree((("a", "b"), "c"))
    validate_magma_tree(t)
    assert len(t.graph.vertices) == 2
    assert t.graph.n_edges == 1
    assert t.labels == ("a", "b", "c")
    assert tree_to_word(t) == (("a", "b"), "c")


def test_word_tree_round_trip_exhaustive():
    for m in range(1, 5):
        for w in enumerate_magma_words(["a", "b"], m):
            assert tree_to_word(word_to_tree(w)) == w


def test_tree_word_round_trip_on_enumeration():
    for n in range(2, 6):
        leaves = [chr(ord("a") + i) for i in range(n)]
        for t in enumerate_magma_trees(leaves):
            w = tree_to_word(t)
            t2 = word_to_tree(w)
            assert tree_to_word(t2) == w
            assert find_isomorphism(t.graph, t2.graph) is not None


def test_degenerate_tree_is_unit_for_words():
    t = degenerate_magma_tree("a")
    assert t.degenerate
    assert tree_to_word(t) == "a"
    assert word_to_tree("a").degenerate


def test_graft_magma_substitutes_leaf():
    t1 = word_to_tree(("a", "b"))
    t2 = word_to_tree(("x", "y"))
    out = graft_magma(t1, t2, "y")
    validate_magma_tree(out)
    assert tree_to_word(out) == ("x", ("a", "b"))
    assert out.labels == ("x", "a", "b")


def test_graft_magma_unit_law():
    def relabel(word, old, new):
        if isinstance(word, tuple):
            return tuple(relabel(w, old, new) for w in word)
        return new if word == old else word

    unit = degenerate_magma_tree("u")
    for leaves in ("ab", "xyz", "pqrs"):
        for t in enumerate_magma_trees(leaves):
            word = tree_to_word(t)
            into_unit = graft_magma(t, unit, "u")
            validate_magma_tree(into_unit)
            assert tree_to_word(into_unit) == word
            for label in t.labels:
                out = graft_magma(unit, t, label)
                validate_magma_tree(out)
                assert tree_to_word(out) == relabel(word, label, "u")
    both = graft_magma(degenerate_magma_tree("q"), unit, "u")
    assert both.degenerate and tree_to_word(both) == "q"


def test_graft_magma_rejects_unknown_site():
    t1 = word_to_tree(("a", "b"))
    t2 = word_to_tree(("x", "y"))
    with pytest.raises(NotATail):
        graft_magma(t1, t2, "zz")


@pytest.mark.parametrize("word", [("a", "b", "c"), ("a",), (), ("a", ())],
                         ids=["triple", "single", "empty", "empty-child"])
def test_word_to_tree_rejects_a_node_that_is_not_a_pair(word):
    with pytest.raises(MalformedWord, match="not a pair"):
        word_to_tree(word)


def test_letterings_of_one_bracketing_share_one_graph():
    t1, t2 = word_to_tree((("a", "b"), "c")), word_to_tree(((1, 2), 3))
    assert t1.graph is t2.graph and t1.orientation is t2.orientation
    assert t1.labels == ("a", "b", "c") and t2.labels == (1, 2, 3)
    for u, v in zip(enumerate_magma_trees("abcd"), enumerate_magma_trees("wxyz")):
        assert u.graph is v.graph and u.orientation is v.orientation
    assert degenerate_magma_tree("a").graph is word_to_tree("b").graph


def test_cached_bracketing_trees_do_not_rebuild_their_vertex_index(monkeypatch):
    enumerate_magma_trees("abcde")         # every bracketing of 5 leaves is cached now
    real = graphs.flags_by_vertex
    calls = []
    monkeypatch.setattr(graphs, "flags_by_vertex", lambda g: calls.append(g) or real(g))
    trees = enumerate_magma_trees("abcde") + enumerate_magma_trees((5, 4, 3, 2, 1))
    trees.append(word_to_tree(((("a", "b"), "c"), ("d", "e"))))
    for t in trees:
        validate_magma_tree(t)
        assert word_to_tree(tree_to_word(t)).leaf_order == t.leaf_order
    assert calls == []
    grafted = graft_magma(trees[0], trees[1], "b")
    validate_magma_tree(grafted)
    tree_to_word(grafted)
    assert [g is grafted.graph for g in calls] == [True, True]


def test_lettered_trees_are_checked_and_read_once_per_bracketing(monkeypatch):
    operads._bracketing_tree.cache_clear()
    calls = []
    for name in ("_check", "_read"):
        real = getattr(operads, name)
        monkeypatch.setattr(operads, name,
                            lambda t, at, name=name, real=real: calls.append(name) or real(t, at))
    trees = enumerate_magma_trees("abcd") + enumerate_magma_trees((4, 3, 2, 1))
    trees.append(degenerate_magma_tree("u"))
    for t in trees:
        validate_magma_tree(t)
        assert word_to_tree(tree_to_word(t)).leaf_order == t.leaf_order
    # one check and one read for each of the 5 bracketings and the unit
    assert calls == ["_check", "_read"] * 6
    calls.clear()
    moved = dataclasses.replace(trees[0], root_flag=trees[0].leaf_order[0][0])
    with pytest.raises(MalformedWord):
        validate_magma_tree(moved)
    with pytest.raises(MalformedWord):
        tree_to_word(moved)
    assert calls == ["_check", "_read"]


def test_a_replaced_graph_is_read_through_its_own_vertex_index():
    # the copy keeps its link to the bracketing's cache entry, whose vertex
    # index names the old vertices
    t = word_to_tree((("a", "b"), "c"))
    g = t.graph
    renamed = {v: v + "'" for v in g.vertices}
    moved = dataclasses.replace(t, graph=graphs.validate(
        g.flags, renamed.values(), {f: renamed[v] for f, v in g.boundary.items()}, g.involution))
    validate_magma_tree(moved)
    assert tree_to_word(moved) == (("a", "b"), "c")


def test_only_the_library_links_a_tree_to_its_bracketing():
    assert "bracketing" not in inspect.signature(operads.OrientedBinaryTree).parameters
    t = word_to_tree((("a", "b"), ("c", "d")))
    assert t.bracketing is not None
    same = dataclasses.replace(t)
    upper = dataclasses.replace(t, leaf_order=tuple((f, x.upper()) for f, x in t.leaf_order))
    unit = graft_magma(degenerate_magma_tree("u"), t, "c")
    assert same == t
    for copy, word in ((same, (("a", "b"), ("c", "d"))), (upper, (("A", "B"), ("C", "D"))),
                       (unit, (("a", "b"), ("u", "d")))):
        assert copy.bracketing is None
        validate_magma_tree(copy)
        assert tree_to_word(copy) == word


def magma_words(letters):
    return st.recursive(letters, lambda sub: st.tuples(sub, sub), max_leaves=8)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(magma_words(st.text(min_size=1, max_size=3)),
                 magma_words(st.integers(-5, 50))))
def test_word_tree_round_trip_property(w):
    assert word_arity(w) <= 8
    t = word_to_tree(w)
    validate_magma_tree(t)
    assert tree_to_word(t) == w
