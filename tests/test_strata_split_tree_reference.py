"""Differential test: the split tree and the flag view read off the splits,
against copies of the closure-scan code they replace.

The reference `_tree` finds the vertex above each split, and the vertex of
each label, by scanning every split from the smallest up for the first one
that strictly holds it; the reference flag view fills the boundary and the
involution flag by flag.  The library is compared with them on every split
family of 3 to 8 labels, and on the flag view, `is_caterpillar` and
`open_stratum_boundary` of every stratum of at most 7 labels.
"""

import sys
from collections import Counter
from itertools import combinations

import pytest

from dessins import strata
from dessins.strata import enumerate_strata, is_caterpillar, open_stratum_boundary


# --- reference: one closure scan per split and per label ------------------------

def ref_tree(n, masks):
    by_size = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())

    def above(x):
        for i in by_size:
            if masks[i] != x and masks[i] & x == x:
                return i + 1
        return 0

    return [above(m) for m in masks], [0] + [above(1 << i) for i in range(1, n)]


def ref_flag_names(n_labels, n_edges):
    tails = tuple(sys.intern(f"t{i}") for i in range(n_labels))
    vertices = tuple(sys.intern(f"v{i}") for i in range(n_edges + 1))
    ends = tuple((sys.intern(f"e{i}.a"), sys.intern(f"e{i}.b")) for i in range(n_edges))
    keys = tuple(frozenset(ab) for ab in ends)
    flags = tuple(sorted(tails + tuple(f for ab in ends for f in ab)))
    return (tails, vertices, ends, keys, frozenset(keys),
            flags, tuple(sorted(vertices)), tuple(sorted(tails)))


def ref_flags_from_splits(order, splits):
    """(graph fields, tail labels, edge splits) as the library built them."""
    tails, vertices, ends, keys, edges, flags, sorted_vertices, sorted_tails = \
        ref_flag_names(len(order), len(splits))
    up, at = ref_tree(len(order), splits)
    boundary = {f: vertices[v] for f, v in zip(tails, at)}
    involution = {f: f for f in tails}
    for i, (v, (a, b)) in enumerate(zip(up, ends)):
        boundary[a], boundary[b] = vertices[v], vertices[i + 1]
        involution[a], involution[b] = b, a
    fields = (flags, sorted_vertices, boundary, involution, edges, sorted_tails)
    return fields, dict(zip(tails, order)), dict(zip(keys, splits))


def ref_is_caterpillar(t):
    up, _ = ref_tree(len(t.order), t.splits)
    below = Counter(up)
    return below[0] <= 2 and all(below[v] <= 1 for v in range(1, len(up) + 1))


def ref_open_stratum_boundary(s):
    up, at = ref_tree(len(s.order), s.splits)
    branches = [[] for _ in range(len(s.splits) + 1)]
    for v, m in zip(up, s.splits):
        branches[v].append(m)
    for i in range(1, len(s.order)):
        branches[at[i]].append(1 << i)
    out = [tuple(sorted(s.splits + (sum(part),)))
           for below in branches
           for r in range(2, len(below))
           for part in combinations(below, r)]
    return [(s.order, splits) for splits in sorted(out)]


# --- the library against it -------------------------------------------------------

def strata_up_to(n_max):
    for n in range(3, n_max + 1):
        for group in enumerate_strata(range(n)).values():
            yield from group
    # labels of mixed types, whose `_labelkey` order differs from the written one
    for group in enumerate_strata(("b", 2, "a", 1.5, True, 0)).values():
        yield from group


@pytest.mark.parametrize("n", range(3, 9))
def test_tree_matches_the_closure_scan_on_every_split_family(n):
    families = strata._families(n)
    assert families
    for masks in families:
        assert strata._tree(n, masks) == ref_tree(n, masks), masks


def test_flag_view_matches_the_reference_on_every_stratum_up_to_7_labels():
    seen = 0
    for s in strata_up_to(7):
        fields, tail_labels, edge_split = ref_flags_from_splits(s.order, s.splits)
        g = s.graph
        assert (g.flags, g.vertices, dict(g.boundary), dict(g.involution), g.edges,
                g.tails) == fields
        assert s.tail_labels == tail_labels
        assert [type(lab) for lab in s.tail_labels.values()] == [type(lab) for lab in s.order]
        assert s._view()[2] == edge_split
        seen += 1
    assert seen == 1 + 4 + 26 + 236 + 2752 + 236


def test_each_view_owns_its_tail_labels_and_involution():
    a, b = enumerate_strata(range(6))[2][:2]
    c = strata._stratum(("p", "q", "r", "s", "t", "u"), a.splits)
    assert a.tail_labels is not c.tail_labels and a.tail_labels != c.tail_labels
    assert a.graph.involution is not b.graph.involution


def test_caterpillars_and_open_boundaries_match_the_reference_up_to_7_labels():
    for s in strata_up_to(7):
        assert is_caterpillar(s) == ref_is_caterpillar(s), s
        assert [(t.order, t.splits) for t in open_stratum_boundary(s)] == \
            ref_open_stratum_boundary(s), s
