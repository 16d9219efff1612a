"""Differential test of the Hopf identity checks and `balanced_cuts`.

The reference below is a test-local copy of the straightforward checks: both
3-tensors of coassociativity built in full and compared, both counit sides
read off the coproduct, both antipode convolutions summed, and balanced cuts
found by relabelling nested tuples with `relabel_tree`, so the reference does
not depend on how the tree table lays out its ids.  It reads every coproduct
and antipode through `hopf._delta` and `hopf._antipode`, so a corrupted
coproduct reaches the reference and the library alike, and their verdicts
must agree on every tree, also when the identities fail.  Relabelling on ids,
`hopf._relabel`, is compared with `relabel_tree` on nested tuples.

The antipode is also compared with the forest formula of Connes and Kreimer,
S(T) = sum over all edge subsets C of (-1)^(|C|+1) times the forest left by
cutting C, which reads no coproduct: a corrupted coproduct that breaks the
identities makes the two antipodes disagree.

The characters phi_s(t) = s^|t| / t! (t! the product of the subtree sizes,
extended multiplicatively to forests) check the public `coproduct` and
`antipode` by closed forms that do not depend on how either is built:
phi_1 * phi_2 = phi_3 under convolution, and phi_1 o S = phi_(-1) (Butcher
1972; Brouder 2000).  They fail under every corruption that breaks the
identities.

The forest branches of `_delta` and `_antipode` and the product of two
polynomials are compared with test-local copies of their loops written out
in full, with the forest join inline.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dessins import hopf
from dessins.galois import GaloisGroup
from dessins.hopf import (
    ForestPolynomial,
    PairPolynomial,
    antipode,
    antipode_identity_holds,
    balanced_cuts,
    coassociativity_holds,
    coproduct,
    counit_axioms_hold,
    enumerate_trees,
    relabel_tree,
)

SMALL_ALPHABET = (0, 1, 2)
CLOSED_ALPHABET = (0, 1, 5, 6, 7, 11)


# --- reference ---------------------------------------------------------------------

def ref_add(terms, key, coeff):
    s = terms.get(key, 0) + coeff
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def ref_join(f, g):
    if not f or not g:
        return f or g
    table = hopf.CACHE.trees
    return table.forest(tuple(sorted(table.forests[f] + table.forests[g])))


def tree_id(t):
    return hopf._forest_key((t,))


def ref_coassociativity(t):
    left, right = {}, {}
    for (a, b), c in hopf._delta(tree_id(t)).items():
        for (a1, a2), c2 in hopf._delta(a).items():
            k = (a1, a2, b)
            left[k] = left.get(k, 0) + c * c2
        for (b1, b2), c2 in hopf._delta(b).items():
            k = (a, b1, b2)
            right[k] = right.get(k, 0) + c * c2
    return left == right


def ref_counit(t):
    f = tree_id(t)
    delta = hopf._delta(f)
    left = {b: c for (a, b), c in delta.items() if not a}
    right = {a: c for (a, b), c in delta.items() if not b}
    return left == right == {f: 1}


def ref_antipode_identity(t):
    left, right = {}, {}
    for (a, b), c in hopf._delta(tree_id(t)).items():
        for g, s in hopf._antipode(a).items():
            ref_add(left, ref_join(g, b), c * s)
        for g, s in hopf._antipode(b).items():
            ref_add(right, ref_join(a, g), c * s)
    return not left and not right


def ref_cuttings(t):
    """(number of cut edges, trunk, pruned trees) for every edge subset of t."""
    label, children = t
    partial = [(0, [], [])]             # (cuts, kept children, pruned trees)
    for child in children:
        partial = [outcome
                   for n, kept, pruned in partial
                   for cn, trunk, below in ref_cuttings(child)
                   for outcome in ((n + cn, kept + [trunk], pruned + below),
                                   (n + cn + 1, kept, pruned + below + [trunk]))]
    return [(n, hopf.node(label, *kept), pruned) for n, kept, pruned in partial]


def ref_forest_antipode(t):
    """S(X_t) by the forest formula, as a ForestPolynomial."""
    terms = {}
    for n, trunk, pruned in ref_cuttings(t):
        ref_add(terms, hopf.forest(trunk, *pruned), (-1) ** (n + 1))
    return ForestPolynomial(terms)


def antipode_disagreements(trees):
    return [t for t in trees
            if hopf.antipode(ForestPolynomial.generator(t)) != ref_forest_antipode(t)]


def ref_relabel(f, fn):
    """Forest id of the nested-tuple forest f relabelled by fn."""
    return hopf._forest_key([relabel_tree(t, fn) for t in f])


def ref_balanced_cuts(t, group):
    cuts = hopf.admissible_cuts(t)
    keep = [True] * len(cuts)
    for a in group.elements:
        fn = group.element(a).on_label
        cut_pairs = hopf._delta(ref_relabel((t,), fn))
        for i, (_, trunk, pruned) in enumerate(cuts):
            if keep[i]:
                keep[i] = (ref_relabel((trunk,), fn), ref_relabel(pruned, fn)) in cut_pairs
    return [cut for cut, ok in zip(cuts, keep) if ok]


IDENTITY_CHECKS = (
    (coassociativity_holds, ref_coassociativity),
    (counit_axioms_hold, ref_counit),
    (antipode_identity_holds, ref_antipode_identity),
)


def verdicts(trees):
    """For each tree, the verdicts of the library checks and of the reference."""
    got, want = [], []
    for t in trees:
        got.append(tuple(check(t) for check, _ in IDENTITY_CHECKS))
        want.append(tuple(ref(t) for _, ref in IDENTITY_CHECKS))
    return got, want


# --- the true coproduct ----------------------------------------------------------

def test_identity_checks_match_reference_on_small_trees():
    hopf.clear_caches()
    trees = enumerate_trees(SMALL_ALPHABET, 5)
    got, want = verdicts(trees)
    assert got == want
    assert all(all(v) for v in got)


def test_balanced_cuts_match_reference_under_units_mod_12():
    hopf.clear_caches()
    group = GaloisGroup.full(12)
    for t in enumerate_trees(CLOSED_ALPHABET, 4):
        assert balanced_cuts(t, group) == ref_balanced_cuts(t, group), t


def test_cold_and_warm_caches_give_the_same_verdicts():
    hopf.clear_caches()
    trees = enumerate_trees(SMALL_ALPHABET, 4)
    cold = [tuple(check(t) for check, _ in IDENTITY_CHECKS) for t in trees]
    warm = [tuple(check(t) for check, _ in IDENTITY_CHECKS) for t in trees]
    assert cold == warm and all(all(v) for v in cold)


def test_antipode_matches_the_forest_formula_on_small_trees():
    hopf.clear_caches()
    trees = enumerate_trees(SMALL_ALPHABET, 5)
    assert len(trees) == 1_788
    assert antipode_disagreements(trees) == []


# --- relabelling on ids ----------------------------------------------------------

def relabelled_forests():
    """The empty forest; every tree <= 4 vertices over CLOSED_ALPHABET alone
    and twice over; and every two-tree forest of distinct trees <= 3 vertices."""
    trees = enumerate_trees(CLOSED_ALPHABET, 4)
    small = [t for t in trees if hopf.tree_nodes(t) <= 3]
    return ([()] + [(t,) for t in trees] + [(t, t) for t in trees]
            + list(itertools.combinations(small, 2)))


def test_relabel_on_ids_matches_relabel_tree_under_units_mod_12():
    hopf.clear_caches()
    group = GaloisGroup.full(12)
    forests = relabelled_forests()
    assert len(forests) == 1 + 2 * 4_068 + 73_536
    for a in group.elements:
        fn = group.element(a).on_label
        memo: dict = {}                 # one memo per element, as balanced_cuts keeps
        for f in forests:
            want = tuple(sorted(relabel_tree(t, fn) for t in f))
            got = hopf._relabel(hopf._forest_key(f), memo, fn)
            assert hopf._forest_tuple(got) == want, (a, f)
            assert got == hopf._forest_key(want)
    hopf.clear_caches()


# --- corrupted coproducts --------------------------------------------------------

def bump_proper_cut(f, delta):
    for key in delta:
        if key[0] and key[1]:
            delta[key] += 1
            break
    return delta


def drop_full_cut(f, delta):
    delta.pop((0, f), None)
    return delta


def halve_proper_cut(f, delta):
    for key in delta:
        if key[0] and key[1]:
            delta[key] = Fraction(delta[key], 2)
            break
    return delta


def fractions_everywhere(f, delta):
    return {k: Fraction(c) for k, c in delta.items()}


def move_proper_cut(f, delta):
    proper = [k for k in delta if k[0] and k[1]]
    if proper:
        moved = proper[0]
        onto = next(k for k in delta if k != moved)
        delta[onto] += delta.pop(moved)
    return delta


CORRUPTIONS = {
    "bumped proper cut": (bump_proper_cut, True),
    "dropped full cut": (drop_full_cut, True),
    "halved proper cut": (halve_proper_cut, True),
    "Fraction coefficients": (fractions_everywhere, False),
    "moved proper cut": (move_proper_cut, True),
}


@pytest.fixture
def corrupt_delta(monkeypatch):
    """install(change) replaces hopf._delta by change(f, copy of the true
    coproduct of forest id f) on cleared caches; they are cleared again after."""
    real = hopf._delta

    def install(change):
        monkeypatch.setattr(hopf, "_delta", lambda f: change(f, dict(real(f))))
        hopf.clear_caches()

    yield install
    monkeypatch.undo()
    hopf.clear_caches()


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_identity_checks_match_reference_on_a_corrupted_coproduct(corrupt_delta, name):
    change, breaks = CORRUPTIONS[name]
    corrupt_delta(change)
    got, want = verdicts(enumerate_trees(SMALL_ALPHABET, 4))
    assert got == want
    assert any(not all(v) for v in got) == breaks


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_balanced_cuts_match_reference_on_a_corrupted_coproduct(corrupt_delta, name):
    change, _ = CORRUPTIONS[name]
    corrupt_delta(change)
    group = GaloisGroup.full(12)
    for t in enumerate_trees(CLOSED_ALPHABET, 3):
        assert balanced_cuts(t, group) == ref_balanced_cuts(t, group), t


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_antipode_leaves_the_forest_formula_on_a_breaking_corruption(corrupt_delta, name):
    change, breaks = CORRUPTIONS[name]
    corrupt_delta(change)
    trees = enumerate_trees(SMALL_ALPHABET, 4)
    assert bool(antipode_disagreements(trees)) == breaks


# --- closed-form characters --------------------------------------------------------

def size_and_factorial(t):
    """|t| and the tree factorial t!, the product of the subtree sizes."""
    size, fact = 1, 1
    for c in t[1]:
        n, f = size_and_factorial(c)
        size, fact = size + n, fact * f
    return size, fact * size


def phi(s, f):
    """phi_s on a forest of nested-tuple trees: the product of s^|t| / t!."""
    out = Fraction(1)
    for t in f:
        n, fact = size_and_factorial(t)
        out *= Fraction(s) ** n / fact
    return out


def convolution_fails(t):
    """Whether (phi_1 * phi_2)(t), summed over coproduct(X_t), is not phi_3(t)."""
    delta = coproduct(ForestPolynomial.generator(t))
    return sum(c * phi(1, a) * phi(2, b) for (a, b), c in delta.terms.items()) != phi(3, (t,))


def inverse_fails(t):
    """Whether phi_1(S(X_t)) is not phi_(-1)(t)."""
    s = antipode(ForestPolynomial.generator(t))
    return sum(c * phi(1, g) for g, c in s.terms.items()) != phi(-1, (t,))


def test_characters_convolve_and_invert_exactly_on_small_trees():
    hopf.clear_caches()
    trees = enumerate_trees(SMALL_ALPHABET, 5)
    assert len(trees) == 1_788
    assert [t for t in trees if convolution_fails(t)] == []
    assert [t for t in trees if inverse_fails(t)] == []


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_characters_fail_on_a_breaking_corruption(corrupt_delta, name):
    change, breaks = CORRUPTIONS[name]
    corrupt_delta(change)
    trees = enumerate_trees(SMALL_ALPHABET, 4)
    assert len(trees) == 303
    assert any(convolution_fails(t) for t in trees) == breaks
    assert any(inverse_fails(t) for t in trees) == breaks


# --- the forest products ---------------------------------------------------------

def ref_delta_product(f):
    """Coproduct of the forest id f of several trees: the product of its
    trees' coproducts, joined inline and summed with `get`."""
    table = hopf.CACHE.trees
    forests, forest = table.forests, table.forest
    tids = forests[f]
    out = hopf._delta(tids[0])
    for tid in tids[1:]:
        product = {}
        for (a1, b1), c1 in out.items():
            left, right = forests[a1], forests[b1]
            for (a2, b2), c2 in hopf._delta(tid).items():
                k = (forest(tuple(sorted(left + forests[a2]))) if a1 and a2 else a1 or a2,
                     forest(tuple(sorted(right + forests[b2]))) if b1 and b2 else b1 or b2)
                product[k] = product.get(k, 0) + c1 * c2
        out = product
    return out


def ref_antipode_product(f):
    """Antipode of the forest id f of several trees: the product of its
    trees' antipodes."""
    out = {0: 1}
    for tid in hopf.CACHE.trees.forests[f]:
        product = {}
        for g1, s1 in out.items():
            for g2, s2 in hopf._antipode(tid).items():
                ref_add(product, ref_join(g1, g2), s1 * s2)
        out = product
    return out


def test_forest_coproducts_and_antipodes_are_the_products_of_their_trees():
    """A true coproduct has no zero sums (every coefficient of a product of
    coproducts is a sum of positive terms), so `_delta` dropping zero sums
    and the reference keeping them give equal maps."""
    hopf.clear_caches()
    hopf.verify_identities(5)
    for t in enumerate_trees(SMALL_ALPHABET, 5):
        antipode(ForestPolynomial.generator(t))
    forests = hopf.CACHE.trees.forests
    deltas = [f for f in list(hopf.CACHE.coproduct) if len(forests[f]) > 1]
    antipodes = [f for f in list(hopf.CACHE.antipode) if len(forests[f]) > 1]
    assert deltas and antipodes
    for f in deltas:
        assert hopf._delta(f) == ref_delta_product(f), hopf._forest_tuple(f)
    for f in antipodes:
        assert hopf._antipode(f) == ref_antipode_product(f), hopf._forest_tuple(f)


def ref_key_product(x, k1, k2):
    if isinstance(x, PairPolynomial):
        return tuple(sorted(k1[0] + k2[0])), tuple(sorted(k1[1] + k2[1]))
    return tuple(sorted(k1 + k2))


def ref_mul(x, y):
    """The terms of x * y, every pair of terms multiplied and summed."""
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            ref_add(out, ref_key_product(x, k1, k2), c1 * c2)
    return out


COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def sampled_pairs(cls, rng, n):
    """n pairs of polynomials of cls; every other pair is c a + d b and
    c a - d b, whose cross terms cancel."""
    trees = enumerate_trees(SMALL_ALPHABET, 3)
    forests = [()] + [(t,) for t in trees] + [hopf.forest(*rng.sample(trees, 2)) for _ in range(20)]

    def key():
        return rng.choice(forests) if cls is ForestPolynomial else (rng.choice(forests),
                                                                    rng.choice(forests))

    pairs = []
    for i in range(n):
        if i % 2:
            a, b = key(), key()
            while b == a:
                b = key()
            c, d = rng.choice(COEFFS), rng.choice(COEFFS)
            pairs.append((cls({a: c, b: d}), cls({a: c, b: -d})))
        else:
            pairs.append(tuple(cls({key(): rng.choice(COEFFS) for _ in range(rng.randint(0, 4))})
                               for _ in range(2)))
    return pairs


@pytest.mark.parametrize("cls", [ForestPolynomial, PairPolynomial])
def test_polynomial_product_matches_the_written_out_loop(cls):
    rng = random.Random(35)
    cancelled = 0
    for x, y in sampled_pairs(cls, rng, 200):
        want = ref_mul(x, y)
        assert (x * y).terms == want, (x, y)
        cancelled += len(want) < len({ref_key_product(x, k1, k2)
                                      for k1 in x.terms for k2 in y.terms})
    assert cancelled >= 50
