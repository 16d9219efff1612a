"""Differential test of tree enumeration and forest joins on interned ids.

The reference below is a test-local copy of the enumeration that built every
tree as a fresh nested tuple from the canonical forests of the sizes below
it, with no tree table.  The library's `enumerate_trees` and
`trees_with_n_nodes` must give the same trees in the same order, `_join`
must give the forest id of the sorted concatenation for every pair of
forests the table holds, and labels that cannot be sorted together must
raise `TypeError` on every call, not only the first.
"""

import pytest

from dessins import hopf
from dessins.hopf import enumerate_trees, trees_with_n_nodes

SMALL_ALPHABET = (0, 1, 2)
CLOSED_ALPHABET = (0, 1, 5, 6, 7, 11)


# --- reference: nested tuples built afresh -----------------------------------------

def ref_trees(labels, n, memo):
    key = ("trees", n)
    if key not in memo:
        memo[key] = ([(lab, f) for lab in labels for f in ref_forests(labels, n - 1, memo)]
                     if n >= 1 else [])
    return memo[key]


def ref_forests(labels, total, memo):
    key = ("forests", total)
    if key in memo:
        return memo[key]

    def build(remaining, min_tree):
        if remaining == 0:
            yield ()
            return
        for size in range(1, remaining + 1):
            for t in ref_trees(labels, size, memo):
                if min_tree is not None and t < min_tree:
                    continue
                for rest in build(remaining - size, t):
                    yield (t,) + rest

    memo[key] = list(build(total, None))
    return memo[key]


def ref_enumerate(labels, max_nodes):
    memo: dict = {}
    return [t for n in range(1, max_nodes + 1) for t in ref_trees(labels, n, memo)]


# --- enumeration --------------------------------------------------------------------

@pytest.mark.parametrize("labels, max_nodes", [(SMALL_ALPHABET, 6), (CLOSED_ALPHABET, 4)])
def test_enumeration_matches_the_reference_in_value_and_order(labels, max_nodes):
    hopf.clear_caches()
    want = ref_enumerate(labels, max_nodes)
    for _ in range(2):                  # from cold caches, then from the memo
        assert enumerate_trees(labels, max_nodes) == want
    memo: dict = {}
    for n in range(max_nodes + 1):
        assert trees_with_n_nodes(labels, n) == ref_trees(labels, n, memo)
    hopf.clear_caches()
    # sizes asked for one at a time, largest first, from cold caches
    for n in range(max_nodes, -1, -1):
        assert trees_with_n_nodes(labels, n) == ref_trees(labels, n, memo)
    assert enumerate_trees(labels, max_nodes) == want


def test_enumerated_trees_are_canonical():
    hopf.clear_caches()
    for t in enumerate_trees(CLOSED_ALPHABET, 4):
        assert hopf.relabel_tree(t, lambda x: x) == t


@pytest.mark.parametrize("labels, max_nodes", [(SMALL_ALPHABET, 6), (CLOSED_ALPHABET, 4)])
def test_enumerated_trees_are_the_tree_tables_own_tuples(labels, max_nodes):
    hopf.clear_caches()
    table = hopf.CACHE.trees
    for t in enumerate_trees(labels, max_nodes):
        assert t is table.forest_tuples[table.of(t)][0]


@pytest.mark.parametrize("labels", [(0, "a"), ("a", 0), (1, "x", 2)])
def test_unsortable_labels_raise_on_every_call(labels):
    hopf.clear_caches()
    for _ in range(3):
        with pytest.raises(TypeError):
            enumerate_trees(labels, 3)
        with pytest.raises(TypeError):
            trees_with_n_nodes(labels, 3)
    # two children that cannot be ordered, given as a raw tuple
    mixed = (0, ((1, ()), ("a", ())))
    for _ in range(3):
        with pytest.raises(TypeError):
            hopf.admissible_cuts(mixed)
        with pytest.raises(TypeError):
            hopf.coproduct(hopf.ForestPolynomial({(mixed,): 1}))
    hopf.clear_caches()


def test_two_vertex_trees_over_mixed_labels_need_no_order():
    hopf.clear_caches()
    labels = (0, "a")
    want = ref_enumerate(labels, 2)
    assert enumerate_trees(labels, 2) == want
    assert trees_with_n_nodes(labels, 2) == want[2:]
    hopf.clear_caches()


# --- forest joins ---------------------------------------------------------------------

def test_join_is_the_sorted_concatenation_on_every_held_pair():
    hopf.clear_caches()
    assert hopf.verify_identities(4).ok
    table = hopf.CACHE.trees
    n = len(table.forests)
    want = [[table.forest(tuple(sorted(table.forests[f] + table.forests[g])))
              for g in range(n)] for f in range(n)]
    assert n > 100
    for f in range(n):
        for g in range(n):
            assert hopf._join(f, g) == want[f][g]
            assert hopf._forest_tuple(want[f][g]) == tuple(
                sorted(hopf._forest_tuple(f) + hopf._forest_tuple(g)))
    for f in range(n):              # the second join of a pair is the same
        assert [hopf._join(f, g) for g in range(n)] == want[f]
    hopf.clear_caches()
