"""Differential test of the Hopf layer against the edge-set-cut code it replaced.

The reference below is a test-local copy of the implementation that computed
the coproduct, the antipode and the group-balanced cuts by enumerating
admissible edge-set cuts of nested-tuple trees.  The library's results must
equal it exactly on exhaustive small families.
"""

import functools
from fractions import Fraction

from dessins.galois import GaloisGroup
from dessins.hopf import (
    ForestPolynomial,
    PairPolynomial,
    admissible_cuts,
    antipode,
    balanced_cuts,
    coproduct,
    enumerate_trees,
    forest,
    leaf,
    node,
)

SMALL_ALPHABET = (0, 1, 2)
CLOSED_ALPHABET = (0, 1, 5, 6, 7, 11)


# --- reference: edge-set cuts on nested tuples -----------------------------------

@functools.cache
def ref_cuts(t):
    label, children = t
    options_per_child = []
    for i, c in enumerate(children):
        opts = [(frozenset(((i,),)), None, (c,))]
        for edges, trunk_c, pruned_c in ref_cuts(c):
            opts.append((frozenset((i,) + p for p in edges), trunk_c, pruned_c))
        options_per_child.append(opts)
    out = []

    def combine(i, edges, trunks, pruned):
        if i == len(children):
            out.append((edges, (label, tuple(sorted(trunks))), tuple(sorted(pruned))))
            return
        for e, trunk_c, pruned_c in options_per_child[i]:
            combine(i + 1, edges | e, trunks + (() if trunk_c is None else (trunk_c,)),
                    pruned + pruned_c)

    combine(0, frozenset(), (), ())
    return tuple(out)


def ref_coproduct_tree(t):
    terms = {}
    for _, trunk, pruned in ref_cuts(t):
        k = ((trunk,), pruned)
        terms[k] = terms.get(k, 0) + 1
    full = ((), (t,))
    terms[full] = terms.get(full, 0) + 1
    return PairPolynomial(terms)


@functools.cache
def ref_antipode_tree(t):
    acc = ForestPolynomial({(t,): -1})
    for edges, trunk, pruned in ref_cuts(t):
        if edges:
            acc = acc - ref_antipode_tree(trunk) * ForestPolynomial({pruned: 1})
    return acc


def ref_relabel_tree(t, fn):
    label, children = t
    return (fn(label), tuple(sorted(ref_relabel_tree(c, fn) for c in children)))


def ref_balanced_cuts(t, group):
    out = []
    for edges, trunk, pruned in ref_cuts(t):
        ok = True
        for a in group.elements:
            gamma = group.element(a)
            gt = ref_relabel_tree(t, gamma.on_label)
            pair = (ref_relabel_tree(trunk, gamma.on_label),
                    tuple(sorted(ref_relabel_tree(p, gamma.on_label) for p in pruned)))
            if pair not in {(tr, pr) for _, tr, pr in ref_cuts(gt)}:
                ok = False
                break
        if ok:
            out.append((edges, trunk, pruned))
    return out


# --- the comparisons ------------------------------------------------------------

def test_family_sizes():
    assert len(enumerate_trees(SMALL_ALPHABET, 5)) == 1788
    assert len(enumerate_trees(CLOSED_ALPHABET, 4)) == 4068


def test_admissible_cuts_match_reference():
    for t in enumerate_trees(SMALL_ALPHABET, 5):
        assert tuple(admissible_cuts(t)) == ref_cuts(t)


def test_coproduct_matches_reference():
    for t in enumerate_trees(SMALL_ALPHABET, 5):
        assert coproduct(ForestPolynomial.generator(t)) == ref_coproduct_tree(t)


def test_coproduct_of_forests_matches_reference():
    trees = enumerate_trees(SMALL_ALPHABET, 3)
    for a in trees:
        for b in trees[::7]:
            x = ForestPolynomial.from_forest(forest(a, b), Fraction(2, 3))
            want = (ref_coproduct_tree(a) * ref_coproduct_tree(b)).scale(Fraction(2, 3))
            assert coproduct(x) == want


def test_antipode_matches_reference():
    for t in enumerate_trees(SMALL_ALPHABET, 5):
        assert antipode(ForestPolynomial.generator(t)) == ref_antipode_tree(t)


def test_antipode_of_forests_matches_reference():
    t1, t2 = node(0, leaf(1), node(2, leaf(0))), node(1, leaf(1))
    x = ForestPolynomial.from_forest(forest(t1, t2, t2), -3)
    want = (ref_antipode_tree(t1) * ref_antipode_tree(t2) * ref_antipode_tree(t2)).scale(-3)
    assert antipode(x) == want


def test_balanced_cuts_match_reference():
    group = GaloisGroup.full(12)
    for t in enumerate_trees(CLOSED_ALPHABET, 4):
        assert list(balanced_cuts(t, group)) == ref_balanced_cuts(t, group)

