"""Exact cyclotomic arithmetic, the residue Galois group, and balanced
characters on labelled trees.

Run with:  python3 demos/galois_and_characters.py
"""

from fractions import Fraction

from dessins.galois import (
    CyclotomicNumber,
    ExponentSumCharacter,
    GaloisGroup,
    complex_embed,
    galois_act_value,
    validate_character,
    zeta,
)
from dessins.hopf import format_tree, leaf, node, relabel_tree

print("== exact arithmetic in Q(zeta_12) ==")
z = zeta(12)
print(f"zeta^6 = {z * z * z * z * z * z}  (reduced modulo the cyclotomic polynomial)")
a = z + CyclotomicNumber.from_rational(12, Fraction(2, 3))
print(f"(zeta + 2/3) * (zeta + 2/3)^-1 = {a * a.inverse()}")
print(f"complex embedding of zeta: {complex_embed(z):.6f}")

print("\n== the Galois group (Z/12)* acts on values and on labels ==")
group = GaloisGroup.full(12)
print(f"elements: {group.elements}")
print(f"gamma=7 sends zeta to {galois_act_value(7, z)}")
print(f"fixed labels (a*j = j mod 12 for all a): {group.fixed_labels()}")
print(f"orbit of the label 1: {group.label_orbit(1)}")

print("\n== a balanced bounded character ==")
phi = ExponentSumCharacter(12, denominator=2)
t = node(1, leaf(7))
print(f"phi(X_{format_tree(t)}) = {phi.on_tree(t)}   "
      f"(zeta^(label sum) over D^(vertex count))")

gamma = group.element(5)
lhs = phi.on_tree(relabel_tree(t, gamma.on_label))
rhs = gamma.on_value(phi.on_tree(t))
print(f"balance at gamma=5: phi(gamma . t) == gamma . phi(t): {lhs == rhs}")

sample = [leaf(j) for j in range(12)] + [t, node(6, leaf(0), leaf(3))]
report = validate_character(phi, group, sample)
for check in report.checks:
    print(f"validate: {check.name}: {'ok' if check.passed else 'FAIL'} "
          f"on {check.cases} cases" + (f"; {check.detail}" if check.detail else ""))
