"""Property tests of the Hopf layer on random trees, forests and polynomials.

A random tree is drawn as a parent array (each vertex after the root picks an
earlier parent) plus one label per vertex, so every labelled rooted tree up to
the size bound can be drawn.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import hopf, qsm
from dessins.galois import GaloisGroup
from dessins.hopf import (
    ForestPolynomial,
    PairPolynomial,
    antipode,
    antipode_identity_holds,
    coassociativity_holds,
    coproduct,
    counit_axioms_hold,
    format_tree,
    g_act,
    leaf,
    node,
    parse_tree,
    relabel_tree,
)

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
FULL_Z12 = GaloisGroup.full(12)
CLOSED_ALPHABET = (0, 1, 5, 6, 7, 11)


@st.composite
def trees(draw, labels=st.integers(0, 2), max_nodes=4):
    n = draw(st.integers(1, max_nodes))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    label = [draw(labels) for _ in range(n)]

    def build(v):
        return node(label[v], *(build(c) for c in range(1, n) if parents[c - 1] == v))

    return build(0)


coefficients = st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-2, max_value=2, max_denominator=5))


@st.composite
def polynomials(draw, max_terms=3):
    out = ForestPolynomial()
    for _ in range(draw(st.integers(0, max_terms))):
        f = draw(st.lists(trees(max_nodes=3), max_size=3))
        out = out + ForestPolynomial.from_forest(f, draw(coefficients))
    return out


@st.composite
def pair_polynomials(draw, max_terms=3):
    out = PairPolynomial()
    forests = st.lists(trees(max_nodes=3), max_size=2)
    for _ in range(draw(st.integers(0, max_terms))):
        out = out + PairPolynomial.of(draw(forests), draw(forests), draw(coefficients))
    return out


words = st.lists(st.integers(0, 2), max_size=3).map(tuple)


def act_on_pairs(gamma, p: PairPolynomial) -> PairPolynomial:
    def move(f):
        return tuple(sorted(relabel_tree(t, gamma.on_label) for t in f))

    out = PairPolynomial()
    for (a, b), c in p.terms.items():
        out = out + PairPolynomial.of(move(a), move(b), c)
    return out


@SETTINGS
@given(st.one_of(trees(max_nodes=7),
                 trees(labels=st.integers(0, 99), max_nodes=7),
                 trees(labels=st.sampled_from(["a", "b", "j", "x_1", "Q"]), max_nodes=7)))
def test_parse_format_round_trip(t):
    text = format_tree(t)
    assert parse_tree(text) == t
    assert format_tree(parse_tree(text)) == text


@SETTINGS
@given(st.lists(trees(), max_size=4), st.lists(trees(), max_size=4))
def test_forest_ids_round_trip(f, g):
    key = hopf._forest_key(f)
    assert hopf._forest_tuple(key) == tuple(sorted(f))
    assert hopf._forest_key(hopf._forest_tuple(key)) == key
    assert hopf._forest_key(reversed(f)) == key
    assert (key == 0) == (not f)            # forest 0 is the empty forest
    for t in f:                             # a tree's id is its one-tree forest's
        assert hopf._forest_key((t,)) == hopf.CACHE.trees.of(t)
    assert hopf._join(key, hopf._forest_key(g)) == hopf._forest_key(f + g)


@SETTINGS
@given(polynomials(), polynomials())
def test_coproduct_is_an_algebra_morphism(a, b):
    assert coproduct(a * b) == coproduct(a) * coproduct(b)


@SETTINGS
@given(polynomials(), polynomials())
def test_antipode_is_an_algebra_morphism(a, b):
    # the algebra is commutative, so the antipode is multiplicative
    assert antipode(a * b) == antipode(a) * antipode(b)


@SETTINGS
@given(polynomials(), st.sampled_from(FULL_Z12.elements), st.data())
def test_group_action_commutes_with_coproduct(x, a, data):
    gamma = FULL_Z12.element(a)
    x = x + ForestPolynomial.generator(
        data.draw(trees(labels=st.sampled_from(CLOSED_ALPHABET), max_nodes=5)))
    assert coproduct(g_act(gamma, x)) == act_on_pairs(gamma, coproduct(x))


@SETTINGS
@given(trees(max_nodes=8))
def test_hopf_identities_beyond_the_exhaustive_sizes(t):
    assert coassociativity_holds(t)
    assert counit_axioms_hold(t)
    assert antipode_identity_holds(t)


def test_rational_coefficients_survive_the_coproduct():
    x = ForestPolynomial.from_forest((parse_tree("j0[j1]"),), Fraction(3, 4))
    assert set(coproduct(x).terms.values()) == {Fraction(3, 4)}


# --- the arithmetic of forests and forest pairs ------------------------------

@pytest.mark.parametrize("elements", [polynomials(), pair_polynomials()], ids=["forest", "pair"])
@SETTINGS
@given(data=st.data())
def test_ring_laws(elements, data):
    x, y, z = (data.draw(elements) for _ in range(3))
    zero = type(x)()
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + x.scale(-1) == zero and x.scale(0) == zero
    assert x + zero == x


@SETTINGS
@given(polynomials(), polynomials())
def test_forest_polynomial_scalars_negation_and_hash(x, y):
    zero = ForestPolynomial()
    assert x - x == zero and 0 * x == zero and not (x - x)
    assert 3 * x == x * 3 == x.scale(3)
    assert -x == x.scale(-1) and x - y == x + (-y)
    assert bool(x) == bool(x.terms)
    # the same element built in the other order hashes alike
    same = ForestPolynomial()
    for f, c in reversed(list(x.terms.items())):
        same = same + ForestPolynomial.from_forest(reversed(f), c)
    assert same == x and hash(same) == hash(x)


@SETTINGS
@given(polynomials(), pair_polynomials())
def test_forests_and_pairs_never_mix(x, p):
    assert ForestPolynomial(p.terms) != p and p != ForestPolynomial(p.terms)
    assert PairPolynomial(x.terms) != x and x != PairPolynomial(x.terms)
    with pytest.raises(TypeError):
        (x + ForestPolynomial.one()) * p


@SETTINGS
@given(polynomials(), pair_polynomials())
def test_forests_and_pairs_neither_add_nor_multiply(x, p):
    for a, b in ((x, p), (p, x)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a * b


@SETTINGS
@given(pair_polynomials())
def test_pair_polynomial_times_a_scalar_scales(p):
    assert p * 3 == p.scale(3) and p * Fraction(1, 2) == p.scale(Fraction(1, 2))
    assert p * 0 == PairPolynomial()


@pytest.mark.parametrize("elements", [polynomials(), pair_polynomials()], ids=["forest", "pair"])
@SETTINGS
@given(data=st.data())
def test_a_scalar_scales_from_either_side(elements, data):
    x = data.draw(elements)
    assert 2 * x == x * 2 == x.scale(2)
    assert Fraction(1, 2) * x == x * Fraction(1, 2) == x.scale(Fraction(1, 2))
    assert 0 * x == type(x)()


def test_polynomial_repr():
    j0 = leaf(0)
    assert repr(ForestPolynomial({(j0, j0): 1, (j0,): -1})) == "-1*j0 + 1*j0 j0"
    assert repr(PairPolynomial.of((j0,), ())) == "1*(j0 (x) 1)"
    assert repr(ForestPolynomial()) == repr(PairPolynomial()) == "0"


# --- the chain action: alpha grafts a word above every tree, beta strips it ---

@SETTINGS
@given(words, polynomials())
def test_beta_inverts_alpha(w, x):
    assert qsm.beta(w, qsm.alpha(w, x)) == x
    assert qsm.alpha(iter(w), x) == qsm.alpha(w, x)
    assert qsm.beta(iter(w), qsm.alpha(w, x)) == x


@SETTINGS
@given(words.filter(bool), polynomials(), trees())
def test_beta_drops_terms_that_do_not_factor(w, x, t):
    # leaf(9) carries no chain, so a forest holding it does not factor
    grafted = qsm.chain_graft(w, t)
    y = (qsm.alpha(w, x) + ForestPolynomial.from_forest((grafted, leaf(9)), 2)
         + ForestPolynomial.from_forest((leaf(9),), 5))
    assert qsm.beta(w, y) == x
    assert qsm.beta_kills_nonfactoring(w, grafted)
    assert qsm.beta_kills_nonfactoring(w, leaf(9))
