"""Differential and property tests of cyclotomic arithmetic.

The reference below is a test-local copy of the implementation that stored a
cyclotomic number as a tuple of Fraction power-basis coordinates, reduced
products through a Fraction table of zeta powers and inverted by the extended
Euclidean algorithm in Q[x].  The library's results must equal it exactly on
every pair of basis elements for the small conductors and on the values
1 - q, q a Gibbs level ratio built from the fixed labels of a subgroup of
(Z/m)*; for the full group q is the rational `qsm.QsmSystem.level_ratio`.
"""

import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.galois import (
    CyclotomicNumber,
    GaloisGroup,
    cyclotomic_polynomial,
    galois_act_value,
    zeta,
)

CONDUCTORS = tuple(range(1, 31)) + (60,)
SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


# --- reference: Fraction tuples and extended Euclid ------------------------------

@functools.cache
def ref_powers(m):
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    top = tuple(Fraction(-phi[i]) for i in range(d))
    powers = []
    cur = [Fraction(0)] * d
    cur[0] = Fraction(1)
    for _ in range(m):
        powers.append(tuple(cur))
        carry = cur[d - 1]
        cur = [Fraction(0)] + cur[: d - 1]
        if carry:
            cur = [c + carry * t for c, t in zip(cur, top)]
    return tuple(powers)


def ref_reduce(m, poly):
    """Coordinates of sum(c_e zeta^e) for a coefficient list of any length."""
    powers = ref_powers(m)
    out = [Fraction(0)] * len(powers[0])
    for e, c in enumerate(poly):
        if c:
            for k, v in enumerate(powers[e % m]):
                if v:
                    out[k] += c * v
    return tuple(out)


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_mul(m, a, b):
    conv = [Fraction(0)] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return ref_reduce(m, conv)


def ref_act(m, a, x):
    poly = [Fraction(0)] * m
    for e, c in enumerate(x):
        poly[(a * e) % m] += c
    return ref_reduce(m, poly)


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num, den):
    num, den = _trim(num), _trim(den)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    r = list(num)
    while len(r) >= len(den):
        shift = len(r) - len(den)
        coeff = r[-1] / den[-1]
        q[shift] += coeff
        for j, dcoef in enumerate(den):
            r[shift + j] -= coeff * dcoef
        r = _trim(r)
    return q, r


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def ref_inverse(m, x):
    """Extended Euclid in Q[x]: s*x + t*phi = nonzero constant."""
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(m)], _trim(x)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    assert len(r1) == 1, "zero divisor"
    return ref_reduce(m, [c / r1[0] for c in s1])


def units(m):
    return [a for a in range(m) if gcd(a, m) == 1]


def library(m, coords):
    """The library's element with the given rational coordinates, built
    through the public ring operations only."""
    acc = CyclotomicNumber.zero(m)
    for e, c in enumerate(coords):
        acc = acc + zeta(m, e) * c
    return acc


# --- differential: exhaustive basis pairs ----------------------------------------

@pytest.mark.parametrize("m", CONDUCTORS)
def test_basis_pairs_match_fraction_reference(m):
    powers = ref_powers(m)
    # zeta^i + 2 zeta^j is never zero (the two terms differ in modulus); its
    # reference inverse is zeta^-i times that of 1 + 2 zeta^(j-i), which keeps
    # the slow Euclid loop to m calls per conductor
    twice = [tuple(2 * c for c in p) for p in powers]
    inv_shifted = [ref_inverse(m, ref_add(powers[0], twice[k])) for k in range(m)]
    for i in range(m):
        zi = zeta(m, i)
        assert zi.coeffs == powers[i]
        assert zi.inverse().coeffs == ref_inverse(m, powers[i])
        for a in units(m):
            assert galois_act_value(a, zi).coeffs == ref_act(m, a, powers[i])
        for j in range(m):
            zj = zeta(m, j)
            assert (zi + zj).coeffs == ref_add(powers[i], powers[j])
            assert (zi * zj).coeffs == ref_mul(m, powers[i], powers[j])
            x = zi + zj * 2
            assert x.coeffs == ref_add(powers[i], twice[j])
            assert x.inverse().coeffs == ref_mul(m, powers[-i % m], inv_shifted[(j - i) % m])


def one_minus_q(m):
    """1 - q with q = (sum of zeta^j over the fixed labels) / (D N^beta), the
    level ratio of qsm.QsmSystem for the full group, for the full, trivial and
    cyclic subgroups: pairs of the library value and its reference coordinates."""
    groups = {GaloisGroup.full(m), GaloisGroup.trivial(m)}
    groups.update(GaloisGroup.generated(m, [a]) for a in units(m))
    for group in groups:
        phase = CyclotomicNumber.zero(m)
        ref_phase = (Fraction(0),) * len(ref_powers(m)[0])
        for j in group.fixed_labels():
            phase = phase + zeta(m, j)
            ref_phase = ref_add(ref_phase, ref_powers(m)[j])
        for D in (1, 2, 3):
            for N, beta in ((2, 1), (10, 1), (10, 2), (10, 5)):
                scale = Fraction(1, D * N ** beta)
                value = CyclotomicNumber.one(m) - phase * scale
                yield value, ref_add(ref_powers(m)[0], tuple(-c * scale for c in ref_phase))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_gibbs_denominators_match_fraction_reference(m):
    for value, ref_value in one_minus_q(m):
        assert value.coeffs == ref_value
        assert value.inverse().coeffs == ref_inverse(m, ref_value)


def norm_inverse(x):
    """1/x through the norm: the product of the other Galois conjugates of x,
    divided by the rational product of all of them."""
    rest = CyclotomicNumber.one(x.m)
    for a in units(x.m)[1:]:            # units(m)[0] acts as the identity
        rest = rest * galois_act_value(a, x)
    return rest * (1 / (x * rest).coeffs[0])


@pytest.mark.parametrize("m", CONDUCTORS + (97,))
def test_rational_inverse_matches_norm_path(m):
    rng = random.Random(m)
    rationals = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                 for _ in range(20)]
    values = [CyclotomicNumber.from_rational(m, q) for q in rationals + [1, -1, 7]]
    values += [v for v, _ in one_minus_q(m) if not any(v.num[1:])]
    assert len(values) > 23                # some 1 - q values are rational
    for x in values:
        assert x.inverse() == norm_inverse(x)


# --- properties on random small-coefficient elements -------------------------------

SMALL_CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 60)
small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def elements(draw, m):
    d = len(cyclotomic_polynomial(m)) - 1
    return library(m, draw(st.lists(small_fractions, min_size=d, max_size=d)))


@st.composite
def triples(draw):
    m = draw(st.sampled_from(SMALL_CONDUCTORS))
    return m, draw(elements(m)), draw(elements(m)), draw(elements(m))


@SETTINGS
@given(triples())
def test_field_axioms(case):
    m, x, y, z = case
    zero, one = CyclotomicNumber.zero(m), CyclotomicNumber.one(m)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and (x - x).is_zero()
    if not x.is_zero():
        assert x * x.inverse() == one
        assert (y / x) * x == y


@SETTINGS
@given(triples(), st.data())
def test_galois_action_is_a_ring_automorphism(case, data):
    m, x, y, _ = case
    a, b = data.draw(st.sampled_from(units(m))), data.draw(st.sampled_from(units(m)))
    act = functools.partial(galois_act_value, a)
    assert act(x + y) == act(x) + act(y)
    assert act(x * y) == act(x) * act(y)
    assert act(CyclotomicNumber.one(m)) == CyclotomicNumber.one(m)
    assert galois_act_value(a, galois_act_value(b, x)) == galois_act_value((a * b) % m, x)


@SETTINGS
@given(triples())
def test_equal_values_by_different_routes_are_equal_and_hash_alike(case):
    m, x, y, _ = case
    routes = [(x + y) - y, x * 3 / 3, (x * Fraction(2, 3)) * Fraction(3, 2), -(-x)]
    if not y.is_zero():
        routes.append((x * y) / y)
    for other in routes:
        assert other == x and hash(other) == hash(x)
    assert (zeta(12) * 2) / 2 == zeta(12) and hash((zeta(12) * 2) / 2) == hash(zeta(12))


# --- differential: the Galois action's exact representation --------------------------
#
# The reference is a test-local copy of the action that folded dense integer
# power rows and then divided out the gcd of the result.  The library's action
# must return the same fields: `coeffs` are Fractions, so comparing them alone
# would not see a result that is not in lowest terms.

@functools.cache
def int_powers(m):
    phi = cyclotomic_polynomial(m)
    cur = [1] + [0] * (len(phi) - 2)
    powers = []
    for _ in range(m):
        powers.append(tuple(cur))
        cur = [c - cur[-1] * p for c, p in zip([0] + cur[:-1], phi)]
    return tuple(powers)


def ref_act_fields(a, z):
    m, powers = z.m, int_powers(z.m)
    out = [0] * len(powers[0])
    for e, c in enumerate(z.num):
        if c:
            for k, v in enumerate(powers[(a * e) % m]):
                if v:
                    out[k] += c * v
    g = gcd(*out, z.den)
    return m, tuple(c // g for c in out), z.den // g


def assert_act_matches_reference(a, z):
    got = galois_act_value(a, z)
    assert (got.m, got.num, got.den) == ref_act_fields(a, z)


@pytest.mark.parametrize("m", range(1, 61))
def test_galois_action_fields_match_gcd_reference(m):
    values = [zeta(m, e) for e in range(m)]
    # every pair (i, j) would take about 85 s at m <= 60; four partners per i
    # keep the sweep to a few seconds
    values += [zeta(m, i) + zeta(m, j) * 2 for i in range(m) for j in (0, 1, -1, 2 * i)]
    values += [v for v, _ in one_minus_q(m)]
    for a in units(m):
        for z in values:
            assert_act_matches_reference(a, z)


@pytest.mark.parametrize("m", (97, 401))
def test_galois_action_fields_match_gcd_reference_on_dense_values(m):
    rng = random.Random(m)
    d = len(cyclotomic_polynomial(m)) - 1
    values = [CyclotomicNumber.from_coeffs(
        m, [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 50)) for _ in range(d)])
        for _ in range(4)]
    values.append(CyclotomicNumber.from_coeffs(m, [6 * rng.randint(-9, 9) for _ in range(d)]))
    for a in rng.sample(units(m), 6) + [1, m - 1]:
        for z in values:
            assert_act_matches_reference(a, z)


@SETTINGS
@given(triples(), st.data())
def test_galois_action_keeps_lowest_terms_and_inverts(case, data):
    m, x, _, _ = case
    a = data.draw(st.sampled_from(units(m)))
    y = galois_act_value(a, x)
    assert y.den > 0 and gcd(*y.num, y.den) == 1
    back = galois_act_value(pow(a, -1, m), y)
    assert back == x and hash(back) == hash(x)
