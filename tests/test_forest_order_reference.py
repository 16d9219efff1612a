"""Differential test: `hopf.forest_leq` against a test-local copy of the
breadth-first grafting search it replaced, on every pair of small forests."""

import itertools

from dessins import hopf
from dessins.hopf import forest_nodes, graft_at, tree_labels, vertex_paths


# --- reference: search over grafting steps ----------------------------------------

def ref_subtree_at(t, path):
    for i in path:
        t = t[1][i]
    return t


def ref_leaf_paths(t):
    return [p for p in vertex_paths(t) if not ref_subtree_at(t, p)[1]]


def ref_sub_multisets(f):
    seen = set()
    n = len(f)
    for mask in range(1 << n):
        sub = tuple(sorted(f[i] for i in range(n) if mask & (1 << i)))
        if sub not in seen:
            seen.add(sub)
            yield sub


def ref_reachable_by_grafts(start, target):
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        if cur == target:
            return True
        if len(cur) < 2:
            continue
        for i in range(len(cur)):
            for j in range(len(cur)):
                if i == j:
                    continue
                rest = tuple(cur[k] for k in range(len(cur)) if k not in (i, j))
                for lp in ref_leaf_paths(cur[i]):
                    nxt = tuple(sorted(rest + (graft_at(cur[i], lp, cur[j]),)))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return target in seen


def ref_forest_leq(f, g):
    f = tuple(sorted(f))
    g = tuple(sorted(g))
    target_nodes = forest_nodes(g)
    target_labels = sorted(x for t in g for x in tree_labels(t))
    for start in ref_sub_multisets(f):
        if forest_nodes(start) != target_nodes:
            continue
        if sorted(x for t in start for x in tree_labels(t)) != target_labels:
            continue
        if ref_reachable_by_grafts(start, g):
            return True
    return False


# --- the comparison -----------------------------------------------------------------

def small_forests(labels, max_trees, max_nodes):
    trees = hopf.enumerate_trees(labels, max_nodes)
    out = []
    for size in range(max_trees + 1):
        for f in itertools.combinations_with_replacement(sorted(trees), size):
            if forest_nodes(f) <= max_nodes:
                out.append(f)
    return out


def test_forest_leq_matches_reference_on_all_small_pairs():
    forests = small_forests((0, 1), 3, 4)
    assert len(forests) == 138
    true = 0
    for f in forests:
        for g in forests:
            want = ref_forest_leq(f, g)
            assert hopf.forest_leq(f, g) == want, (f, g)
            true += want
    assert true == 673
