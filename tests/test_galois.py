import cmath
from fractions import Fraction

import pytest

from dessins.galois import (
    CyclotomicNumber,
    DivisionByZero,
    ExponentSumCharacter,
    GaloisGroup,
    LabelOutOfRange,
    NotCoprime,
    TableCharacter,
    UnknownGroupElement,
    char_eval,
    character_from_json,
    character_to_json,
    complex_embed,
    cyclotomic_polynomial,
    galois_act_value,
    validate_character,
    zeta,
)
from dessins.hopf import ForestPolynomial, leaf, node, relabel_tree


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squares_to_minus_one():
    z = zeta(4)
    assert z * z == CyclotomicNumber.from_rational(4, -1)


def test_zeta3_sum_vanishes():
    one = CyclotomicNumber.one(3)
    s = one + zeta(3) + zeta(3) * zeta(3)
    assert s.is_zero()


def test_zeta12_sixth_power_is_minus_one():
    z6 = zeta(12, 6)
    assert z6 == CyclotomicNumber.from_rational(12, -1)
    z = zeta(12)
    p = z
    for _ in range(5):
        p = p * z
    assert p == CyclotomicNumber.from_rational(12, -1)


def test_ring_ops_and_division():
    a = zeta(5) + CyclotomicNumber.from_rational(5, Fraction(2, 3))
    b = zeta(5, 3) - CyclotomicNumber.one(5)
    prod = a * b
    assert prod / b == a
    assert (a - a).is_zero()
    with pytest.raises(DivisionByZero):
        CyclotomicNumber.zero(5).inverse()
    with pytest.raises(DivisionByZero):
        a / 0


def test_inverse_on_basis():
    for m in (3, 4, 5, 12):
        for k in range(m):
            z = zeta(m, k)
            assert z * z.inverse() == CyclotomicNumber.one(m)


def test_galois_action_is_automorphism():
    m = 12
    a, b = 5, 7
    x = zeta(m) + CyclotomicNumber.from_rational(m, 2)
    y = zeta(m, 7) * Fraction(1, 3)
    g = lambda v: galois_act_value(a, v)
    assert g(x * y) == g(x) * g(y)
    assert g(x + y) == g(x) + g(y)


def test_galois_action_composes():
    m = 12
    basis = [zeta(m, e) for e in range(4)] + [zeta(m) + zeta(m, 5) * Fraction(2, 7)]
    for x in basis:
        for a in (1, 5, 7, 11):
            for b in (1, 5, 7, 11):
                lhs = galois_act_value(a, galois_act_value(b, x))
                rhs = galois_act_value((a * b) % m, x)
                assert lhs == rhs


@pytest.mark.parametrize("num,den,value", [
    ((2, 0, 0, 0), 2, CyclotomicNumber.one(12)),
    ((-3, 0, 6, 0), -9, CyclotomicNumber.from_coeffs(12, (Fraction(1, 3), 0, Fraction(-2, 3), 0))),
    ([0, 5, 0, 0], 5, zeta(12)),
    ((0, 0, 0, 0), -4, CyclotomicNumber.zero(12)),
], ids=["common-factor", "negative-denominator", "list-coordinates", "zero-over-negative"])
def test_hand_built_values_are_put_in_lowest_terms(num, den, value):
    x = CyclotomicNumber(12, num, den)
    assert x == value and hash(x) == hash(value)
    assert (x.m, x.num, x.den) == (value.m, value.num, value.den)
    assert -x == -value and galois_act_value(5, x) == galois_act_value(5, value)


def test_galois_identity_and_conjugation():
    assert galois_act_value(1, zeta(4)) == zeta(4)
    assert galois_act_value(3, zeta(4)) == -zeta(4)  # complex conjugation
    q = CyclotomicNumber.from_rational(12, Fraction(5, 7))
    assert galois_act_value(5, q) == q


def test_galois_not_coprime():
    with pytest.raises(NotCoprime):
        galois_act_value(2, zeta(4))
    # the power tables are cached, and a cache stores no exception
    for _ in range(2):
        with pytest.raises(NotCoprime, match=r"^2 is not invertible modulo 12$"):
            galois_act_value(2, zeta(12))


def test_complex_embed():
    assert complex_embed(CyclotomicNumber.one(7)) == pytest.approx(1.0)
    assert complex_embed(zeta(4)) == pytest.approx(1j, abs=1e-15)
    s = CyclotomicNumber.one(3) + zeta(3) + zeta(3, 2)
    assert abs(complex_embed(s)) < 1e-14
    z = complex_embed(zeta(12))
    assert z == pytest.approx(cmath.exp(2j * cmath.pi / 12), abs=1e-14)


def test_full_group_and_fixed_labels():
    g12 = GaloisGroup.full(12)
    assert g12.elements == (1, 5, 7, 11)
    assert g12.fixed_labels() == (0, 6)
    g5 = GaloisGroup.full(5)
    assert g5.fixed_labels() == (0,)
    assert GaloisGroup.trivial(12).fixed_labels() == tuple(range(12))


def test_generated_subgroup():
    g = GaloisGroup.generated(12, [5])
    assert g.elements == (1, 5)
    assert set(g.fixed_labels()) == {0, 3, 6, 9}


@pytest.mark.parametrize("build", [GaloisGroup.full, GaloisGroup.trivial,
                                   lambda m: GaloisGroup.generated(m, [1])],
                         ids=["full", "trivial", "generated"])
def test_group_modulo_one_is_the_one_element_group(build):
    g = build(1)
    assert g.elements == (0,)
    assert g.element(1).on_label(0) == 0
    assert g.fixed_labels() == (0,)


@pytest.mark.parametrize("build", [GaloisGroup.full, GaloisGroup.trivial,
                                   lambda m: GaloisGroup.generated(m, [1])],
                         ids=["full", "trivial", "generated"])
@pytest.mark.parametrize("m", [0, -12])
def test_group_rejects_conductor_below_one(build, m):
    with pytest.raises(ValueError, match="conductor must be >= 1"):
        build(m)


def test_unknown_group_element():
    g = GaloisGroup.generated(12, [5])
    with pytest.raises(UnknownGroupElement):
        g.element(7)


def test_group_products_stay_in_one_group():
    # products across groups are refused (see test_validation_errors.py);
    # equal groups built apart are one group
    g = GaloisGroup.full(12)
    assert g.element(5) * g.element(7) is g.element(11)
    assert g.element(5) * GaloisGroup.full(12).element(5) == g.element(1)


def test_label_gset():
    assert GaloisGroup.full(12).element(5).on_label(2) == 10
    assert GaloisGroup.full(12).label_orbit(1) == (1, 5, 7, 11)
    assert GaloisGroup.full(12).label_orbit(6) == (6,)


def test_character_values():
    phi = ExponentSumCharacter(12, denominator=2)
    assert char_eval(phi, ForestPolynomial.one()) == CyclotomicNumber.one(12)
    t = leaf(3)
    assert phi.on_tree(t) == zeta(12, 3) * Fraction(1, 2)
    two = node(6, leaf(0))
    assert phi.on_tree(two) == zeta(12, 6) * Fraction(1, 4)


def test_character_multiplicative():
    phi = ExponentSumCharacter(12, denominator=2)
    a = ForestPolynomial.generator(node(1, leaf(6)))
    b = ForestPolynomial.generator(leaf(7))
    assert char_eval(phi, a * b) == char_eval(phi, a) * char_eval(phi, b)


def test_character_linear():
    phi = ExponentSumCharacter(12, denominator=2)
    a = ForestPolynomial.generator(leaf(0))
    b = ForestPolynomial.generator(leaf(6))
    x = a.scale(Fraction(1, 3)) + b.scale(2)
    assert char_eval(phi, x) == \
        char_eval(phi, a) * Fraction(1, 3) + char_eval(phi, b) * 2


def test_character_balance_identity():
    phi = ExponentSumCharacter(12, denominator=2)
    group = GaloisGroup.full(12)
    t = node(1, leaf(7))
    for a in group.elements:
        gamma = group.element(a)
        assert phi.on_tree(relabel_tree(t, gamma.on_label)) == gamma.on_value(phi.on_tree(t))


def test_character_label_out_of_range():
    phi = ExponentSumCharacter(12)
    with pytest.raises(LabelOutOfRange):
        phi.on_tree(leaf(12))
    with pytest.raises(LabelOutOfRange):
        phi.on_tree(leaf("x"))
    with pytest.raises(LabelOutOfRange, match="label 12 is not a residue modulo 12"):
        phi.on_tree(node(1, leaf(12)))


def _max_modulus(bound_check):
    return float(bound_check.detail.removeprefix("max modulus "))


def test_validate_character_exponent_sum():
    phi = ExponentSumCharacter(12, denominator=2)
    group = GaloisGroup.full(12)
    trees = [leaf(j) for j in range(12)] + [node(1, leaf(7)), node(6, leaf(0), leaf(3))]
    report = validate_character(phi, group, trees)
    assert report.ok
    balance, bound = report.checks
    assert balance.passed and bound.passed
    assert _max_modulus(bound) <= 0.5 + 1e-12


def test_validate_character_bad_table():
    group = GaloisGroup.full(12)
    # orbit of leaf(1) is the four leaves 1, 5, 7, 11; give one wrong value
    good = {j: zeta(12, j) for j in (1, 5, 7, 11)}
    good[7] = zeta(12, 1)  # inconsistent with the action
    table = TableCharacter(12, tuple((leaf(j), v) for j, v in good.items()))
    report = validate_character(table, group, [leaf(1), leaf(5), leaf(7), leaf(11)])
    balance, _ = report.checks
    assert not balance.passed
    assert balance.detail


def test_validate_character_trivial_values():
    phi = ExponentSumCharacter(12, denominator=1)
    group = GaloisGroup.full(12)
    report = validate_character(phi, group, [leaf(0), node(0, leaf(0))])
    balance, bound = report.checks
    assert balance.passed and bound.passed
    assert _max_modulus(bound) == pytest.approx(1.0)


def test_character_modulus_law():
    # |phi(X_t)| = D^(-vertex count) in every complex embedding
    phi = ExponentSumCharacter(12, denominator=2)
    group = GaloisGroup.full(12)
    from dessins.hopf import tree_nodes

    for t in (leaf(1), node(3, leaf(7)), node(0, leaf(5), node(6, leaf(11)))):
        n = tree_nodes(t)
        value = phi.on_tree(t)
        for a in group.elements:
            conj = group.element(a).on_value(value)
            assert abs(abs(complex_embed(conj)) - 0.5 ** n) < 1e-12


def test_character_json_round_trip():
    phi = ExponentSumCharacter(12, denominator=2)
    assert character_to_json(phi) == {"m": 12, "D": 2, "rule": "exp-sum"}
    assert character_from_json(character_to_json(phi)) == phi
    table = TableCharacter(12, ((leaf(1), zeta(12)),))
    round_tripped = character_from_json(character_to_json(table))
    assert round_tripped.on_tree(leaf(1)) == zeta(12)


@pytest.mark.parametrize("call,match", [
    (lambda: ExponentSumCharacter(12, 1.5), "denominator must be a positive integer"),
    (lambda: ExponentSumCharacter(12, Fraction(2)), "denominator must be a positive integer"),
    (lambda: ExponentSumCharacter(0), "conductor must be a positive integer"),
    (lambda: ExponentSumCharacter(-12, 2), "conductor must be a positive integer"),
    (lambda: ExponentSumCharacter(12.0), "conductor must be a positive integer"),
    (lambda: character_from_json([1]), "must be an object with an 'm' field"),
    (lambda: character_from_json({"table": {}}), "must be an object with an 'm' field"),
    (lambda: character_from_json({"m": 12}), "needs a 'table' object or the rule 'exp-sum'"),
    (lambda: character_from_json({"m": 12, "table": [1]}),
     "needs a 'table' object or the rule 'exp-sum'"),
    (lambda: character_from_json({"m": 0, "rule": "exp-sum"}),
     "conductor must be a positive integer"),
    (lambda: TableCharacter(0, ()), "conductor must be a positive integer"),
    (lambda: TableCharacter(-12, ()), "conductor must be a positive integer"),
    (lambda: TableCharacter(12.0, ()), "conductor must be a positive integer"),
    (lambda: character_from_json({"m": 0, "table": {}}), "conductor must be a positive integer"),
    (lambda: TableCharacter(12, ((leaf(0), zeta(60)),)),
     "table values must be cyclotomic numbers of conductor 12"),
    (lambda: TableCharacter(12, ((leaf(0), zeta(12)), (leaf(1), 1))),
     "table values must be cyclotomic numbers of conductor 12"),
    (lambda: ExponentSumCharacter(True), "conductor must be a positive integer"),
    (lambda: ExponentSumCharacter(12, True), "denominator must be a positive integer"),
    (lambda: TableCharacter(True, ()), "conductor must be a positive integer"),
    (lambda: character_from_json({"m": 12.7, "table": {}}), "conductor must be a positive integer"),
    (lambda: character_from_json({"m": True, "table": {}}), "conductor must be a positive integer"),
    (lambda: character_from_json({"m": "12", "table": {}}), "conductor must be a positive integer"),
    (lambda: character_from_json({"m": 0, "table": {"j1": ["1"]}}),
     "conductor must be a positive integer"),
    (lambda: character_from_json({"m": 12.7, "rule": "exp-sum"}),
     "conductor must be a positive integer"),
    (lambda: character_from_json({"m": True, "rule": "exp-sum"}),
     "conductor must be a positive integer"),
    (lambda: character_from_json({"m": "12", "rule": "exp-sum"}),
     "conductor must be a positive integer"),
    (lambda: character_from_json({"m": 12, "D": 2.5, "rule": "exp-sum"}),
     "denominator must be a positive integer"),
    (lambda: character_from_json({"m": 12, "D": True, "rule": "exp-sum"}),
     "denominator must be a positive integer"),
    (lambda: character_from_json({"m": 12, "D": "2", "rule": "exp-sum"}),
     "denominator must be a positive integer"),
], ids=["float-denominator", "fraction-denominator", "zero-conductor", "negative-conductor",
        "float-conductor", "json-not-an-object", "json-without-m", "json-without-table",
        "json-table-not-an-object", "json-zero-conductor", "table-zero-conductor",
        "table-negative-conductor", "table-float-conductor", "json-table-zero-conductor",
        "table-value-of-another-conductor", "table-value-not-cyclotomic",
        "bool-conductor", "bool-denominator", "table-bool-conductor",
        "json-table-fractional-conductor", "json-table-bool-conductor",
        "json-table-string-conductor", "json-table-zero-conductor-before-values",
        "json-fractional-conductor", "json-bool-conductor", "json-string-conductor",
        "json-fractional-denominator", "json-bool-denominator", "json-string-denominator"])
def test_character_inputs_are_refused_at_construction(call, match):
    with pytest.raises(ValueError, match=match) as info:
        call()
    assert info.type is ValueError
