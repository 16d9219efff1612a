"""Exact arithmetic in cyclotomic fields, the residue Galois group (Z/m)*
acting on labels and on values, and multiplicative characters on labelled
rooted trees that intertwine the two actions.

Elements of Q(zeta_m) are integer power-basis vectors over one positive
denominator; Phi_m is monic, so one integer table of the powers of zeta,
kept as the nonzero (coordinate, value) pairs of each power, serves products
and the Galois action, and inverses go through the norm.

A value is a slotted, frozen `CyclotomicNumber` whose fields are always in
lowest terms: `CyclotomicNumber(m, num, den)` checks its fields and divides
out their gcd, and the library's own results, whose fields are already in
lowest terms, are built by the one trusted builder `_cyc` with no check.

The Galois action divides out no gcd.  sigma_a is a ring automorphism of
Z[zeta_m], and 1, zeta, ..., zeta^(phi(m)-1) is a Z-basis of that ring
(Washington, Introduction to Cyclotomic Fields, Thm 2.6), so sigma_a keeps
the gcd of the integer coordinates, and a value in lowest terms stays so.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count
from math import gcd, lcm

from dessins import hopf
from dessins.hopf import ForestPolynomial, relabel_tree
from dessins.report import Check, Report, check_all


class CyclotomicError(ArithmeticError):
    pass


class DivisionByZero(CyclotomicError):
    pass


class NotCoprime(ValueError):
    pass


class UnknownGroupElement(ValueError):
    pass


class LabelOutOfRange(ValueError):
    pass


def _int_at_least(name: str, value, least: int = 1, error=ValueError):
    """`value` if it is an int, not a bool, >= least; else `error` naming it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _refusal(a, m: int, member: bool = False) -> ValueError:
    """The error refusing `a` as a unit modulo m, or as a group element (`member`)."""
    if not isinstance(a, int):
        return UnknownGroupElement(f"{a!r} is not an integer residue modulo {m}")
    if member:
        return UnknownGroupElement(f"{a} is not in the configured group modulo {m}")
    return NotCoprime(f"{a} is not invertible modulo {m}")


# --- cyclotomic polynomials --------------------------------------------------

def _poly_divmod_exact(num, den):
    """Divide integer polynomials known to divide exactly (lists, low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1] // den[-1]
        out[i] = coeff
        for j, d in enumerate(den):
            num[i + j] -= coeff * d
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


# Each table is kept for the 128 most recent conductors; a run uses a few.
# Typed, so that True and 2.0 are not read from the entries of 1 and 2.
@lru_cache(maxsize=128, typed=True)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first."""
    _int_at_least("conductor", m)
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1        # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=128)
def _powers(m: int) -> tuple[tuple[int, ...], ...]:
    """zeta_m^e in integer power-basis coordinates for e = 0..m-1."""
    phi = cyclotomic_polynomial(m)
    cur = [1] + [0] * (len(phi) - 2)
    powers = []
    for _ in range(m):
        powers.append(tuple(cur))
        # times zeta; phi is monic, so zeta^d = -(phi[0] + ... + phi[d-1] zeta^(d-1))
        cur = [c - cur[-1] * p for c, p in zip([0] + cur[:-1], phi)]
    return tuple(powers)


@lru_cache(maxsize=128)
def _sparse_powers(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_m^e as its nonzero (coordinate, value) pairs for e = 0..m-1."""
    return tuple(tuple((k, v) for k, v in enumerate(row) if v) for row in _powers(m))


def _fold(m: int, terms) -> list[int]:
    """Integer coordinates of the sum of c * zeta^e over (e, c) pairs."""
    rows = _sparse_powers(m)
    out = [0] * len(_powers(m)[0])
    for e, c in terms:
        if c:
            for k, v in rows[e % m]:
                out[k] += c * v
    return out


def _mul(m: int, a, b) -> list[int]:
    """Product of two integer coordinate vectors, reduced modulo Phi_m."""
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return _fold(m, enumerate(conv))


def _reduced(m: int, num, den: int) -> "CyclotomicNumber":
    """num/den with a positive denominator and the common gcd divided out."""
    g = gcd(*num, den) if den > 0 else -gcd(*num, den)
    return _cyc(m, tuple(c // g for c in num), den // g)


# Slots by hand, not `slots=True`: that option's frozen `__setattr__` refers to
# the class it replaces, so assigning a non-field name raised TypeError (3.11).
@dataclass(frozen=True, init=False)
class CyclotomicNumber:
    """Exact element of the m-th cyclotomic field: integer power-basis
    coordinates `num` over a positive denominator `den` in lowest terms, so
    equal values have equal fields.  `CyclotomicNumber(m, num, den)` refuses
    coordinates of the wrong number or type and a zero denominator, and puts
    the fields in lowest terms."""

    __slots__ = ("m", "num", "den")
    m: int
    num: tuple[int, ...]
    den: int

    def __new__(cls, m: int, num, den: int = 1):
        _int_at_least("conductor", m)
        num, d = tuple(num), len(_powers(m)[0])
        if len(num) != d:
            raise CyclotomicError(f"expected {d} coordinates for conductor {m}, got {len(num)}")
        if any(type(c) is not int for c in (*num, den)):
            raise CyclotomicError("coordinates and denominator must be integers")
        if not den:
            raise DivisionByZero("zero denominator")
        return _reduced(m, num, den)

    def __reduce__(self):
        return _cyc, (self.m, self.num, self.den)

    # -- constructors
    @staticmethod
    def zero(m: int) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(m, 0)

    @staticmethod
    def from_rational(m: int, q) -> "CyclotomicNumber":
        q = Fraction(q)
        d = len(_powers(m)[0])
        return _cyc(m, (q.numerator,) + (0,) * (d - 1), q.denominator)

    @staticmethod
    def from_coeffs(m: int, coeffs) -> "CyclotomicNumber":
        """The element with the given rational power-basis coordinates."""
        coeffs = [Fraction(c) for c in coeffs]
        d = len(_powers(m)[0])
        if len(coeffs) != d:
            raise CyclotomicError(f"expected {d} coefficients for conductor {m}")
        den = lcm(*(c.denominator for c in coeffs))
        return _reduced(m, [int(c * den) for c in coeffs], den)

    @staticmethod
    def one(m: int) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(m, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coordinates."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- ring operations
    def _check(self, other):
        if self.m != other.m:
            raise CyclotomicError("mixed conductors")

    def __add__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(self.m, other)
        self._check(other)
        a, b = self.den, other.den
        return _reduced(self.m, [x * b + y * a for x, y in zip(self.num, other.num)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.m, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            q = Fraction(other)
            return _reduced(self.m, [a * q.numerator for a in self.num],
                            self.den * q.denominator)
        self._check(other)
        return _reduced(self.m, _mul(self.m, self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/x = (product of the other Galois conjugates of x) / N(x), where the
        norm N(x), the product of all phi(m) conjugates, is a nonzero rational.
        A rational x is inverted as a rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m = self.m
        if not any(self.num[1:]):
            return CyclotomicNumber.from_rational(m, Fraction(self.den, self.num[0]))
        rest = _powers(m)[0]
        for a in range(2, m):
            if gcd(a, m) == 1:
                rest = _mul(m, rest, galois_act_value(a, self).num)
        # (num/den)^-1 = den * rest / N(num), and N(num) = (num * rest)[0]
        return _reduced(m, [c * self.den for c in rest], _mul(m, self.num, rest)[0])

    def __truediv__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self * other.inverse()
        q = Fraction(other)
        if not q:
            raise DivisionByZero("division by zero")
        return self * (1 / q)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __complex__(self):
        return complex_embed(self)

    def __repr__(self):
        bits = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append(f"{c}*z")
            else:
                bits.append(f"{c}*z^{e}")
        body = " + ".join(bits) or "0"
        return f"Cyc({self.m}; {body})"


# The slots' own setters bypass the frozen `__setattr__`, as in `strata._stratum`.
_set_m, _set_num, _set_den = (getattr(CyclotomicNumber, name).__set__
                              for name in CyclotomicNumber.__slots__)


def _cyc(m: int, num: tuple[int, ...], den: int = 1) -> CyclotomicNumber:
    """The value num/den from fields already in lowest terms, unchecked."""
    z = object.__new__(CyclotomicNumber)
    _set_m(z, m)
    _set_num(z, num)
    _set_den(z, den)
    return z


def zeta(m: int, k: int = 1) -> CyclotomicNumber:
    """zeta_m^k as an exact cyclotomic number."""
    return _cyc(m, _powers(m)[k % m])


def galois_act_value(a: int, z: CyclotomicNumber) -> CyclotomicNumber:
    """Field automorphism zeta -> zeta^a; requires gcd(a, m) = 1.

    The coordinates keep their gcd (see the module docstring), so the result
    is built with no gcd pass."""
    m = z.m
    try:
        if gcd(a, m) != 1:
            raise _refusal(a, m)
    except TypeError:       # a float or Fraction: no residue, as in GaloisGroup.element
        raise _refusal(a, m) from None
    return _cyc(m, tuple(_fold(m, zip(count(0, a), z.num))), z.den)


def complex_embed(z: CyclotomicNumber) -> complex:
    """Evaluate at zeta_m = exp(2 pi i / m) in double precision."""
    return sum(c / z.den * cmath.exp(2j * cmath.pi * e / z.m)
               for e, c in enumerate(z.num))


# --- the residue Galois group --------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """The residue `a` as an element of `group`; any other `a` raises
    UnknownGroupElement."""

    group: "GaloisGroup"
    a: int
    m: int = field(init=False, compare=False, repr=False)   # group.m, read per label

    def __post_init__(self):
        m = self.group.m
        if not isinstance(self.a, int) or self.a not in self.group.elements:
            raise _refusal(self.a, m, member=True)
        object.__setattr__(self, "m", m)

    def on_label(self, j: int) -> int:
        return (self.a * j) % self.m

    def on_value(self, z: CyclotomicNumber) -> CyclotomicNumber:
        return galois_act_value(self.a, z)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise UnknownGroupElement(f"{other!r} is not an element of {self.group!r}")
        return self.group.element((self.a * other.a) % self.m)


@dataclass(frozen=True)
class GaloisGroup:
    """A subgroup of (Z/m)* acting on Z/m labels and on Q(zeta_m) values.

    Elements are residues in range(m), so for m = 1 the group is (0,).
    """

    m: int
    elements: tuple[int, ...]

    @staticmethod
    def full(m: int) -> "GaloisGroup":
        _int_at_least("conductor", m)
        return GaloisGroup(m, tuple(a for a in range(m) if gcd(a, m) == 1))

    @staticmethod
    def generated(m: int, generators) -> "GaloisGroup":
        _int_at_least("conductor", m)
        for a in generators:
            if not isinstance(a, int) or gcd(a, m) != 1:
                raise _refusal(a, m)
        elems = {1 % m}
        frontier = [1 % m]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = (x * g) % m
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return GaloisGroup(m, tuple(sorted(elems)))

    @staticmethod
    def trivial(m: int) -> "GaloisGroup":
        return GaloisGroup(m, (1 % _int_at_least("conductor", m),))

    def __post_init__(self):
        if 1 % _int_at_least("conductor", self.m) not in self.elements:
            raise ValueError("group must contain 1")
        elems = set(self.elements)
        for a in elems:
            if not isinstance(a, int) or gcd(a, self.m) != 1:
                raise _refusal(a, self.m)
            for b in elems:
                if (a * b) % self.m not in elems:
                    raise ValueError("element set is not closed under multiplication")

    @cached_property
    def _element_table(self) -> dict[int, GroupElement]:
        """The group's own element for each of its residues, built without
        `GroupElement`'s membership check, which would make the table
        quadratic in the group order."""
        table = {}
        for a in self.elements:
            table[a] = g = object.__new__(GroupElement)
            for name, value in (("group", self), ("a", a), ("m", self.m)):
                object.__setattr__(g, name, value)
        return table

    def element(self, a: int) -> GroupElement:
        g = self._element_table.get(a % self.m) if isinstance(a, int) else None
        if g is None:
            raise _refusal(a, self.m, member=True)
        return g

    def fixed_labels(self) -> tuple[int, ...]:
        """Labels j in Z/m with a*j = j (mod m) for every group element."""
        return tuple(j for j in range(self.m)
                     if all((a * j) % self.m == j for a in self.elements))

    def label_orbit(self, j: int) -> tuple[int, ...]:
        return tuple(sorted({(a * j) % self.m for a in self.elements}))


# --- characters -----------------------------------------------------------------

def _label_sum_and_nodes(t, m) -> tuple[int, int]:
    """Label sum and vertex count of a tree, in one walk that checks each label."""
    label, children = t
    if not isinstance(label, int) or not (0 <= label < m):
        raise LabelOutOfRange(f"label {label!r} is not a residue modulo {m}")
    total, nodes = label, 1
    for c in children:
        s, n = _label_sum_and_nodes(c, m)
        total += s
        nodes += n
    return total, nodes


@dataclass(frozen=True)
class ExponentSumCharacter:
    """phi(X_t) = zeta_m^(sum of vertex labels) / D^(vertex count).

    Multiplicative on forests, balanced for the label action of any subgroup
    of (Z/m)*, and of modulus D^(-|t|) <= 1 in every complex embedding.
    """

    m: int
    denominator: int = 1

    def __post_init__(self):
        _int_at_least("conductor", self.m)
        _int_at_least("denominator", self.denominator)

    def on_tree(self, t) -> CyclotomicNumber:
        total, nodes = _label_sum_and_nodes(t, self.m)
        # a power of zeta is a unit, so its integer coordinates are coprime
        # and zeta^e / D^n is already in lowest terms
        return _cyc(self.m, _powers(self.m)[total % self.m], self.denominator ** nodes)


@dataclass(frozen=True)
class TableCharacter:
    """Character given by an explicit value table on canonical trees."""

    m: int
    table: tuple  # pairs (tree, CyclotomicNumber)

    def __post_init__(self):
        _int_at_least("conductor", self.m)
        if not all(isinstance(v, CyclotomicNumber) and v.m == self.m for _, v in self.table):
            raise ValueError(f"table values must be cyclotomic numbers of conductor {self.m}")

    def on_tree(self, t) -> CyclotomicNumber:
        for tree, value in self.table:
            if tree == t:
                return value
        raise LabelOutOfRange(f"character table has no entry for {hopf.format_tree(t)}")


def char_eval(char, x) -> CyclotomicNumber:
    """Evaluate a character as an algebra morphism on a tree or polynomial."""
    if isinstance(x, tuple):
        return char.on_tree(x)
    if not isinstance(x, ForestPolynomial):
        raise TypeError("char_eval expects a tree or a ForestPolynomial")
    acc = CyclotomicNumber.zero(char.m)
    for f, c in x.terms.items():
        term = CyclotomicNumber.one(char.m)
        for t in f:
            term = term * char.on_tree(t)
        acc = acc + term * Fraction(c)
    return acc


def balance_check(name: str, value_of, group: GaloisGroup, trees) -> Check:
    """value_of(gamma . t) == gamma . value_of(t), exactly, for every group
    element gamma and tree t: the balance of a character, and the
    intertwining of ground and Gibbs states."""
    def holds(case):
        t, base, gamma = case
        return value_of(relabel_tree(t, gamma.on_label)) == gamma.on_value(base)

    cases = ((t, base, group.element(a))
             for t in trees for base in [value_of(t)] for a in group.elements)
    return check_all(name, cases, holds,
                     show=lambda case: f"gamma={case[2].a} on {hopf.format_tree(case[0])}")


def validate_character(char, group: GaloisGroup, trees) -> Report:
    """Exact balance over all group elements and sample trees, plus a
    numerical modulus bound on generators."""
    trees = list(trees)
    balance = balance_check("balance phi(gamma.t) = gamma.phi(t)", char.on_tree, group, trees)
    start = time.perf_counter()
    max_mod = max((abs(complex_embed(char.on_tree(t))) for t in trees), default=0.0)
    bound = Check("modulus bound |phi(X_t)| <= 1", max_mod <= 1.0 + 1e-12, len(trees),
                  time.perf_counter() - start, f"max modulus {max_mod!r}")
    return Report((balance, bound))


def character_to_json(char) -> dict:
    if isinstance(char, ExponentSumCharacter):
        return {"m": char.m, "D": char.denominator, "rule": "exp-sum"}
    if isinstance(char, TableCharacter):
        return {
            "m": char.m,
            "table": {hopf.format_tree(t): [str(c) for c in v.coeffs]
                      for t, v in char.table},
        }
    raise TypeError(f"unknown character type {type(char)!r}")


def character_from_json(obj) -> object:
    if not isinstance(obj, dict) or "m" not in obj:
        raise ValueError("character JSON must be an object with an 'm' field")
    m = obj["m"]
    if obj.get("rule") == "exp-sum":
        return ExponentSumCharacter(m, obj.get("D", 1))
    if not isinstance(obj.get("table"), dict):
        raise ValueError("character JSON needs a 'table' object or the rule 'exp-sum'")
    _int_at_least("conductor", m)   # before the table values are read at conductor m
    table = tuple(
        (hopf.parse_tree(text), CyclotomicNumber.from_coeffs(m, coeffs))
        for text, coeffs in obj["table"].items()
    )
    return TableCharacter(m, table)
