"""Property tests of the Hopf layer on random trees, forests and polynomials.

A random tree is drawn as a parent array (each vertex after the root picks an
earlier parent) plus one label per vertex, so every labelled rooted tree up to
the size bound can be drawn.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import hopf
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
