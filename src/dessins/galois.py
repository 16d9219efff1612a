"""Exact arithmetic in cyclotomic fields, the residue Galois group (Z/m)*
acting on labels and on values, and multiplicative characters on labelled
rooted trees that intertwine the two actions.

Elements of Q(zeta_m) are coefficient vectors over the power basis
1, zeta, ..., zeta^(d-1) reduced modulo the m-th cyclotomic polynomial, with
Fraction coefficients throughout.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from dessins import hopf
from dessins.hopf import ForestPolynomial, label_sum, relabel_tree, tree_nodes


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if m == 1:
        return (-1, 1)
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1        # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_tables(m: int):
    """Power basis data: zeta^e as a coefficient vector for e = 0..m-1."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    # x^d = -(phi[0] + phi[1] x + ... + phi[d-1] x^(d-1)), phi monic
    top = tuple(Fraction(-phi[i]) for i in range(d))
    powers = []
    cur = [Fraction(0)] * d
    cur[0] = Fraction(1)
    for _ in range(m):
        powers.append(tuple(cur))
        # multiply by x
        carry = cur[d - 1]
        cur = [Fraction(0)] + cur[: d - 1]
        if carry:
            cur = [c + carry * t for c, t in zip(cur, top)]
    return d, tuple(powers)


@dataclass(frozen=True)
class CyclotomicNumber:
    """Exact element of the m-th cyclotomic field."""

    m: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        d, _ = _reduction_tables(self.m)
        if len(self.coeffs) != d:
            raise CyclotomicError(f"expected {d} coefficients for conductor {self.m}")

    # -- constructors
    @staticmethod
    def zero(m: int) -> "CyclotomicNumber":
        d, _ = _reduction_tables(m)
        return CyclotomicNumber(m, (Fraction(0),) * d)

    @staticmethod
    def from_rational(m: int, q) -> "CyclotomicNumber":
        d, _ = _reduction_tables(m)
        return CyclotomicNumber(m, (Fraction(q),) + (Fraction(0),) * (d - 1))

    @staticmethod
    def one(m: int) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(m, 1)

    # -- ring operations
    def _check(self, other):
        if self.m != other.m:
            raise CyclotomicError("mixed conductors")

    def __add__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(self.m, other)
        self._check(other)
        return CyclotomicNumber(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.from_rational(self.m, other)
        return self + (-other)

    def __rsub__(self, other):
        return CyclotomicNumber.from_rational(self.m, other) - self

    def __mul__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return CyclotomicNumber(self.m, tuple(a * Fraction(other) for a in self.coeffs))
        self._check(other)
        d, powers = _reduction_tables(self.m)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    conv[i + j] += a * b
        out = list(conv[:d])
        for e in range(d, 2 * d - 1):
            if conv[e]:
                vec = _power_vector(self.m, e)
                out = [c + conv[e] * v for c, v in zip(out, vec)]
        return CyclotomicNumber(self.m, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        a = list(self.coeffs)
        # extended Euclid in Q[x]: s*a + t*phi = gcd = nonzero rational
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _degree(r1) > 0:
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _degree(r1) < 0:
            raise DivisionByZero("element is a zero divisor (should not happen: phi irreducible)")
        const = r1[0]
        inv = [c / const for c in s1]
        d, _ = _reduction_tables(self.m)
        out = [Fraction(0)] * d
        for e, c in enumerate(inv):
            if c:
                vec = _power_vector(self.m, e)
                out = [x + c * v for x, v in zip(out, vec)]
        return CyclotomicNumber(self.m, tuple(out))

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return CyclotomicNumber(self.m, tuple(a / Fraction(other) for a in self.coeffs))
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __complex__(self):
        return complex_embed(self)

    def __repr__(self):
        d = len(self.coeffs)
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


def _power_vector(m, e):
    d, powers = _reduction_tables(m)
    if e < m:
        return powers[e]
    return powers[e % m]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _degree(p):
    p = _trim(p)
    return len(p) - 1


def _poly_divmod_frac(num, den):
    num, den = _trim(num), _trim(den)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    r = list(num)
    while _degree(r) >= _degree(den) and _degree(r) >= 0:
        shift = _degree(r) - _degree(den)
        coeff = r[_degree(r)] / den[-1]
        q[shift] += coeff
        for j, dcoef in enumerate(den):
            r[shift + j] -= coeff * dcoef
        r = _trim(r) + [Fraction(0)] * 0
        if not r:
            break
    return q, _trim(r)


def _poly_mul(a, b):
    a, b = _trim(a), _trim(b)
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


def zeta(m: int, k: int = 1) -> CyclotomicNumber:
    """zeta_m^k as an exact cyclotomic number."""
    return CyclotomicNumber(m, _power_vector(m, k % m))


def galois_act_value(a: int, z: CyclotomicNumber) -> CyclotomicNumber:
    """Field automorphism zeta -> zeta^a; requires gcd(a, m) = 1."""
    m = z.m
    if gcd(a, m) != 1:
        raise NotCoprime(f"{a} is not invertible modulo {m}")
    d, _ = _reduction_tables(m)
    out = [Fraction(0)] * d
    for e, c in enumerate(z.coeffs):
        if c:
            vec = _power_vector(m, (a * e) % m)
            out = [x + c * v for x, v in zip(out, vec)]
    return CyclotomicNumber(m, tuple(out))


def complex_embed(z: CyclotomicNumber) -> complex:
    """Evaluate at zeta_m = exp(2 pi i / m) in double precision."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * e / z.m)
               for e, c in enumerate(z.coeffs))


# --- the residue Galois group --------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    group: "GaloisGroup"
    a: int

    def on_label(self, j: int) -> int:
        return (self.a * j) % self.group.m

    def on_value(self, z: CyclotomicNumber) -> CyclotomicNumber:
        return galois_act_value(self.a, z)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.group.element((self.a * other.a) % self.group.m)


@dataclass(frozen=True)
class GaloisGroup:
    """A subgroup of (Z/m)* acting on Z/m labels and on Q(zeta_m) values.

    Elements are residues in range(m), so for m = 1 the group is (0,).
    """

    m: int
    elements: tuple[int, ...]

    @staticmethod
    def full(m: int) -> "GaloisGroup":
        return GaloisGroup(m, tuple(a for a in range(m) if gcd(a, m) == 1))

    @staticmethod
    def generated(m: int, generators) -> "GaloisGroup":
        for a in generators:
            if gcd(a, m) != 1:
                raise NotCoprime(f"{a} is not invertible modulo {m}")
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
        return GaloisGroup(m, (1 % m,))

    def __post_init__(self):
        if 1 % self.m not in self.elements:
            raise ValueError("group must contain 1")
        elems = set(self.elements)
        for a in elems:
            if gcd(a, self.m) != 1:
                raise NotCoprime(f"{a} is not invertible modulo {self.m}")
            for b in elems:
                if (a * b) % self.m not in elems:
                    raise ValueError("element set is not closed under multiplication")

    def element(self, a: int) -> GroupElement:
        if a % self.m not in self.elements:
            raise UnknownGroupElement(f"{a} is not in the configured group modulo {self.m}")
        return GroupElement(self, a % self.m)

    def fixed_labels(self) -> tuple[int, ...]:
        """Labels j in Z/m with a*j = j (mod m) for every group element."""
        return tuple(j for j in range(self.m)
                     if all((a * j) % self.m == j for a in self.elements))

    def label_orbit(self, j: int) -> tuple[int, ...]:
        return tuple(sorted({(a * j) % self.m for a in self.elements}))


@dataclass(frozen=True)
class LabelGSet:
    """The G-set Z/m with the multiplication action a . j = a*j mod m."""

    m: int

    def act(self, a: int, j: int) -> int:
        return (a * j) % self.m

    def labels(self) -> tuple[int, ...]:
        return tuple(range(self.m))


# --- characters -----------------------------------------------------------------

def _check_labels(t, m):
    for lab in hopf.tree_labels(t):
        if not isinstance(lab, int) or not (0 <= lab < m):
            raise LabelOutOfRange(f"label {lab!r} is not a residue modulo {m}")


@dataclass(frozen=True)
class ExponentSumCharacter:
    """phi(X_t) = zeta_m^(sum of vertex labels) / D^(vertex count).

    Multiplicative on forests, balanced for the label action of any subgroup
    of (Z/m)*, and of modulus D^(-|t|) <= 1 in every complex embedding.
    """

    m: int
    denominator: int = 1

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")

    def on_tree(self, t) -> CyclotomicNumber:
        _check_labels(t, self.m)
        z = zeta(self.m, label_sum(t) % self.m)
        return z * Fraction(1, self.denominator ** tree_nodes(t))


@dataclass(frozen=True)
class TableCharacter:
    """Character given by an explicit value table on canonical trees."""

    m: int
    table: tuple  # pairs (tree, CyclotomicNumber)

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


@dataclass(frozen=True)
class CharacterReport:
    balanced: bool
    bounded: bool
    max_modulus: float
    violations: tuple


def validate_character(char, group: GaloisGroup, trees) -> CharacterReport:
    """Exact balance check over all group elements and sample trees, plus a
    numerical modulus bound on generators."""
    violations = []
    max_mod = 0.0
    for t in trees:
        value = char.on_tree(t)
        max_mod = max(max_mod, abs(complex_embed(value)))
        for a in group.elements:
            gamma = group.element(a)
            left = char.on_tree(relabel_tree(t, gamma.on_label))
            right = gamma.on_value(value)
            if left != right:
                violations.append((a, t))
    balanced = not violations
    bounded = max_mod <= 1.0 + 1e-12
    return CharacterReport(balanced, bounded, max_mod, tuple(violations))


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
    if obj.get("rule") == "exp-sum":
        return ExponentSumCharacter(int(obj["m"]), int(obj.get("D", 1)))
    m = int(obj["m"])
    table = tuple(
        (hopf.parse_tree(text), CyclotomicNumber(m, tuple(Fraction(c) for c in coeffs)))
        for text, coeffs in obj["table"].items()
    )
    return TableCharacter(m, table)
