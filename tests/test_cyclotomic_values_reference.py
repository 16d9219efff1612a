"""Differential test of the cyclotomic value type and the group elements.

The reference below is test-local: a value is a tuple of Fraction power-basis
coordinates, its fields are those coordinates over their least common
denominator with the gcd divided out, and its hash, repr and `coeffs` are
those of a plain frozen dataclass with the fields `m`, `num` and `den`.  For
every conductor m <= 60 the library's values from every constructor, every
ring operation, `inverse`, `galois_act_value` and `ExponentSumCharacter.on_tree`
must agree with it, pickle and copy round trips must give equal values, and
assigning or deleting an attribute must raise `FrozenInstanceError`.  `on_tree`
is read on every tree with at most 2 vertices over range(m), and on every tree
with 3 vertices for m <= 30 and m = 60: all 3-vertex trees for every m <= 60
are 5.0 million calls, about 12 s, and a value depends only on the label sum
modulo m and the vertex count, which the smaller sweep already covers.  Group elements from
`GaloisGroup.element` must equal freshly built ones, hash alike and act alike.
"""

import copy
import functools
import pickle
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm

import pytest

from dessins.galois import (
    CyclotomicNumber,
    ExponentSumCharacter,
    GaloisGroup,
    GroupElement,
    UnknownGroupElement,
    cyclotomic_polynomial,
    galois_act_value,
    zeta,
)

CONDUCTORS = range(1, 61)


# --- reference -------------------------------------------------------------------

# A reference value is a pair (integer coordinates, denominator), in any terms.

@dataclass(frozen=True)
class RefCyc:
    m: int
    num: tuple
    den: int = 1


@functools.cache
def ref_powers(m):
    """zeta_m^e as integer power-basis coordinates, e = 0..m-1."""
    phi = cyclotomic_polynomial(m)
    cur = [1] + [0] * (len(phi) - 2)
    out = []
    for _ in range(m):
        out.append(tuple(cur))
        carry = cur[-1]
        cur = [c - carry * p for c, p in zip([0] + cur[:-1], phi)]
    return tuple(out)


def ref_fold(m, poly):
    powers = ref_powers(m)
    out = [0] * len(powers[0])
    for e, c in enumerate(poly):
        if c:
            for k, v in enumerate(powers[e % m]):
                if v:
                    out[k] += c * v
    return tuple(out)


def ref_rational(m, q):
    q = Fraction(q)
    return (q.numerator,) + (0,) * (len(ref_powers(m)[0]) - 1), q.denominator


def ref_from_coeffs(coeffs):
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs), den


def ref_add(x, y):
    (a, da), (b, db) = x, y
    return tuple(p * db + q * da for p, q in zip(a, b)), da * db


def ref_scale(x, q):
    q = Fraction(q)
    return tuple(c * q.numerator for c in x[0]), x[1] * q.denominator


def ref_mul(m, x, y):
    (a, da), (b, db) = x, y
    conv = [0] * (2 * len(a) - 1)
    for i, p in enumerate(a):
        if p:
            for j, q in enumerate(b):
                if q:
                    conv[i + j] += p * q
    return ref_fold(m, conv), da * db


def ref_act(m, a, x):
    poly = [0] * m
    for e, c in enumerate(x[0]):
        poly[(a * e) % m] += c
    return ref_fold(m, poly), x[1]


def ref_fields(m, x):
    num, den = x
    g = gcd(*num, den) if den > 0 else -gcd(*num, den)
    return m, tuple(c // g for c in num), den // g


def ref_coeffs(x):
    return tuple(Fraction(c, x[1]) for c in x[0])


def ref_repr(m, x):
    bits = []
    for e, c in enumerate(ref_coeffs(x)):
        if c == 0:
            continue
        bits.append(str(c) if e == 0 else f"{c}*z" if e == 1 else f"{c}*z^{e}")
    return f"Cyc({m}; {' + '.join(bits) or '0'})"


def units(m):
    return [a for a in range(m) if gcd(a, m) == 1]


# --- checks ----------------------------------------------------------------------

def assert_value(got, m, x, full=True):
    """`got` is the reference value x at conductor m."""
    fields = ref_fields(m, x)
    assert type(got) is CyclotomicNumber
    assert (got.m, got.num, got.den) == fields
    if not full:
        return
    assert got.coeffs == ref_coeffs(x)
    assert repr(got) == ref_repr(m, x)
    assert hash(got) == hash(RefCyc(*fields))
    twin = CyclotomicNumber.from_coeffs(m, got.coeffs)
    assert got == twin and hash(got) == hash(twin)
    assert got != got + 1
    for back in (pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
        assert type(back) is CyclotomicNumber
        assert (back.m, back.num, back.den) == fields
        assert back == got and hash(back) == hash(got)
    for name in ("m", "num", "den", "other"):
        assert refused(setattr, got, name, 1) and refused(delattr, got, name)
    assert (got.m, got.num, got.den) == fields


def refused(change, *args):
    try:
        change(*args)
    except FrozenInstanceError:
        return True
    return False


def constructed(m):
    """(value, reference value) from every constructor."""
    d = len(ref_powers(m)[0])
    out = [(CyclotomicNumber.zero(m), ref_rational(m, 0)),
           (CyclotomicNumber.one(m), ref_rational(m, 1))]
    for q in (0, 1, -1, 7, Fraction(-3, 4), Fraction(6, 4), "5/6", 0.5):
        out.append((CyclotomicNumber.from_rational(m, q), ref_rational(m, q)))
    for k in sorted({-1, 0, 1, 2, 3, m // 3, m // 2, m - 2, m - 1, m, m + 1}):
        out.append((zeta(m, k), (ref_powers(m)[k % m], 1)))
    out.append((zeta(m), (ref_powers(m)[1 % m], 1)))
    dense = [Fraction(3 * k - 5, k % 4 + 1) for k in range(d)]
    scaled = [6 * (k + 1) for k in range(d)]
    last = [Fraction(-2 * c, 6) for c in ref_powers(m)[-1]]
    for coeffs in (dense, scaled, last):
        out.append((CyclotomicNumber.from_coeffs(m, coeffs), ref_from_coeffs(coeffs)))
    num = (1,) + (0,) * (d - 1)
    out.append((CyclotomicNumber(m, num, 3), (num, 3)))
    out.append((CyclotomicNumber(m, (0,) * d), ((0,) * d, 1)))
    return out


def operated(m, values):
    """(value, reference value) from every ring operation."""
    partners = [(v, x) for v, x in values if any(x[0])][::4][:5]
    out = []
    for v, x in values:
        out.append((-v, ref_scale(x, -1)))
        out.append((v + 2, ref_add(x, ref_rational(m, 2))))
        out.append((Fraction(1, 3) + v, ref_add(x, ref_rational(m, Fraction(1, 3)))))
        out.append((v - Fraction(1, 3), ref_add(x, ref_rational(m, Fraction(-1, 3)))))
        out.append((4 - v, ref_add(ref_scale(x, -1), ref_rational(m, 4))))
        out.append((v * Fraction(-2, 3), ref_scale(x, Fraction(-2, 3))))
        out.append((3 * v, ref_scale(x, 3)))
        out.append((v / 5, ref_scale(x, Fraction(1, 5))))
        out.append((v / Fraction(2, 7), ref_scale(x, Fraction(7, 2))))
        for w, y in partners:
            out.append((v + w, ref_add(x, y)))
            out.append((v - w, ref_add(x, ref_scale(y, -1))))
            out.append((v * w, ref_mul(m, x, y)))
    return out


def assert_inverse(m, v, x):
    got = v.inverse()
    inv = got.num, got.den
    # the inverse is unique, and so are its lowest-terms fields
    assert ref_fields(m, ref_mul(m, x, inv)) == ref_fields(m, ref_rational(m, 1))
    assert_value(got, m, inv)
    assert_value(zeta(m) / v, m, ref_mul(m, (ref_powers(m)[1 % m], 1), inv))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_values_match_reference(m):
    values = constructed(m)
    for got, x in values:
        assert_value(got, m, x)
    for i, (got, x) in enumerate(operated(m, values)):
        assert_value(got, m, x, full=i % 7 == 0)
    for v, x in values[::3]:
        if any(x[0]):
            assert_inverse(m, v, x)
    for a in units(m):
        for v, x in values[::2]:
            assert_value(galois_act_value(a, v), m, ref_act(m, a, x), full=a == units(m)[-1])


def small_trees(m, max_nodes):
    """(tree, vertex count, label sum) for every tree with <= max_nodes <= 3
    vertices over range(m)."""
    labels = range(m)
    leaves = [(r, ()) for r in labels]
    for r in labels:
        yield leaves[r], 1, r
    for r, c in product(labels, repeat=2):
        yield (r, (leaves[c],)), 2, r + c
    if max_nodes < 3:
        return
    for r, c, g in product(labels, repeat=3):
        yield (r, ((c, (leaves[g],)),)), 3, r + c + g
    for r in labels:
        for c1, c2 in combinations_with_replacement(labels, 2):
            yield (r, (leaves[c1], leaves[c2])), 3, r + c1 + c2


@pytest.mark.parametrize("m", CONDUCTORS)
def test_exponent_sum_character_on_every_small_tree(m):
    D = 2 + m % 3
    char = ExponentSumCharacter(m, D)
    # the fields of zeta^s / D^n, by n and by s read modulo m
    expected = [[ref_fields(m, (ref_powers(m)[s % m], D ** n)) for s in range(3 * m)]
                for n in range(4)]
    for t, n, s in small_trees(m, 3 if m <= 30 or m == 60 else 2):
        got = char.on_tree(t)
        assert (got.m, got.num, got.den) == expected[n][s]
    for n in (1, 2, 3):
        for s in range(m):
            got = char.on_tree((s, ()) if n == 1 else (s, ((0, ()),) * (n - 1)))
            assert_value(got, m, (ref_powers(m)[s], D ** n))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_group_elements_match_fresh_ones(m):
    values = [zeta(m), CyclotomicNumber.from_coeffs(
        m, [Fraction(k - 2, k % 3 + 1) for k in range(len(ref_powers(m)[0]))])]
    groups = [GaloisGroup.full(m), GaloisGroup.trivial(m)]
    groups += [GaloisGroup.generated(m, [g]) for g in units(m)[-2:]]
    for group in groups:
        for a, shift in product(group.elements, (0, 1, -2)):
            got = group.element(a + shift * m)
            fresh = GroupElement(group, a)
            assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
            assert got.group == group and got.a == a
            for j in range(-2 * m, 2 * m):
                assert got.on_label(j) == (a * j) % m
            if shift:
                continue
            for z in values:
                acted = got.on_value(z)
                assert acted == galois_act_value(a, z)
                assert (acted.m, acted.num, acted.den) == ref_fields(m, ref_act(m, a, (z.num, z.den)))
            for b in group.elements:
                assert got * group.element(b) == GroupElement(group, (a * b) % m)
        for a in range(m):
            if a not in group.elements:
                with pytest.raises(UnknownGroupElement,
                                   match=rf"^{a} is not in the configured group modulo {m}$"):
                    group.element(a)
        for bad, text in ((1.0, r"1\.0"), (Fraction(1), r"Fraction\(1, 1\)"), ("1", "'1'")):
            with pytest.raises(UnknownGroupElement,
                               match=rf"^{text} is not an integer residue modulo {m}$"):
                group.element(bad)
