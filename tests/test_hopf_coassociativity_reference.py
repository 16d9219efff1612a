"""Differential test of `hopf.coassociativity_holds` against the check it replaced.

The reference below is a test-local copy of the coassociativity check that
built the right 3-tensor in full, grouped by its last tensor factor z, and
compared it with the left side one z at a time.  It reads every coproduct
through `hopf._delta`, as the library does, so a corrupted coproduct reaches
both, and their verdicts must agree on every tree: with the true coproduct on
every tree of at most 6 vertices, and on trees of at most 4 vertices under
each corruption of `test_hopf_identity_reference` and under one more, which
gives the right side a last factor that the left side lacks.
"""

import pytest

from dessins import hopf
from dessins.hopf import coassociativity_holds, enumerate_trees
from test_hopf_identity_reference import CORRUPTIONS, corrupt_delta  # noqa: F401

SMALL_ALPHABET = (0, 1, 2)


def ref_coassociativity(t):
    by_last: dict = {}      # z -> [(a, c)] over the terms c a (x) z
    right: dict = {}        # z -> {(a, b1): coefficient}
    for (a, b), c in hopf._delta(hopf._forest_key((t,))).items():
        by_last.setdefault(b, []).append((a, c))
        for (b1, z), c2 in hopf._delta(b).items():
            part = right.setdefault(z, {})
            part[(a, b1)] = part.get((a, b1), 0) + c * c2
    for z, terms in by_last.items():
        left: dict = {}
        for a, c in terms:
            for k, c2 in hopf._delta(a).items():
                left[k] = left.get(k, 0) + c * c2
        if left != right.pop(z, {}):
            return False
    return not right


def extra_term_in_pruned_forests(f, delta):
    """Add 1 * (empty (x) a leaf labelled 3) to the coproduct of each forest
    of several trees.  Only pruned forests are such forests, and no tree over
    SMALL_ALPHABET has label 3, so the right side gains a last factor that
    the left side lacks."""
    if len(hopf.CACHE.trees.forests[f]) > 1:
        delta[(0, hopf.CACHE.trees.intern(3, 0))] = 1
    return delta


CHANGES = {name: change for name, (change, _) in CORRUPTIONS.items()}
CHANGES["extra term in pruned forests"] = extra_term_in_pruned_forests
# without its full cut 1 (x) X_f, or with Fraction coefficients, the coproduct
# stays coassociative on every tree of at most 4 vertices
STILL_COASSOCIATIVE = {"dropped full cut", "Fraction coefficients"}


def test_coassociativity_matches_reference_on_every_tree_up_to_6_vertices():
    hopf.clear_caches()
    trees = enumerate_trees(SMALL_ALPHABET, 6)
    assert len(trees) == 11_220
    for t in trees:
        assert coassociativity_holds(t) is ref_coassociativity(t) is True, t
    hopf.clear_caches()


@pytest.mark.parametrize("name", CHANGES)
def test_coassociativity_matches_reference_on_a_corrupted_coproduct(corrupt_delta, name):
    corrupt_delta(CHANGES[name])
    got, want = [], []
    for t in enumerate_trees(SMALL_ALPHABET, 4):
        got.append(coassociativity_holds(t))
        want.append(ref_coassociativity(t))
    assert got == want
    assert all(got) == (name in STILL_COASSOCIATIVE)
