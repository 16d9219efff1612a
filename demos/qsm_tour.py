"""The quantum statistical system over the word semigroup: shift operators on
a finite window, crossed-product relations, the Hamiltonian and partition
function, Gibbs states by three routes, and Galois-equivariant ground states.

Run with:  python3 demos/qsm_tour.py
"""

from dessins.galois import complex_embed
from dessins.hopf import ForestPolynomial, format_tree, leaf, node
from dessins.qsm import (
    QsmSystem,
    gibbs_closed_exact,
    gibbs_value,
    ground_state,
    partition_function,
    time_evolution_report,
    verify_crossed_relations,
    verify_intertwining,
    verify_system,
)

system = QsmSystem(m=12, N=10, D=2, max_length=6)
rep = system.rep
print(f"fixed labels {system.fixed_labels} (k={system.k}); "
      f"window of words up to length {system.max_length}: basis size {rep.dim}")

print("\n== crossed-product relations, exact on the window ==")
report = verify_crossed_relations(rep)
print(f"{len(report.checks) - len(report.failed())}/{len(report.checks)} checks pass")
print(f"for example {report.checks[0].name}: {report.checks[0].passed}")

print("\n== time evolution generated by the length Hamiltonian ==")
evo = time_evolution_report(rep, system.N, 1.0, group=system.group)
print(f"max entrywise deviation of the shift scaling law: "
      f"{evo.max_shift_deviation:.2e}; diagonals invariant: {evo.diag_invariant}")

print("\n== partition function ==")
for beta in (1, 2, 3):
    closed = partition_function(beta, system.k, system.N, "word", "closed")
    print(f"beta={beta}: Z = {closed.value} = {float(closed.value):.6f}")
trunc = partition_function(1, system.k, system.N, "word", "truncated", max_length=40)
print(f"truncated at 40 levels: {float(trunc.value):.15f} "
      f"(tail bound {float(trunc.tail_bound):.1e})")
paper = partition_function(1, system.k, 2 * system.k ** 2 + 1, "vertex-edge", "closed")
print(f"vertex-edge count at N=2k^2+1: Z = {paper.value} <= 2k = {2 * system.k}")

print("\n== Gibbs states by three routes ==")
t = node(6, leaf(0))
print(f"tree {format_tree(t)}:")
for beta in (1, 2, 5):
    closed = gibbs_value(system, t, beta, route="closed")
    series = gibbs_value(system, t, beta, route="series")
    trace = gibbs_value(system, t, beta, route="trace")
    print(f"  beta={beta}: closed {closed:.12f}, series {series:.12f}, "
          f"trace {trace:.12f}")
print(f"  exact value at beta=1: {gibbs_closed_exact(system, t, 1)}")
exact = next(c for c in verify_system(system).checks
             if c.name == "Gibbs three-route agreement at beta=1")
print(f"  series = trace = (1 - q^{system.max_length + 1}) * closed in Q(zeta_{system.m}) "
      f"at beta=1, exactly on {exact.cases} sample trees: {exact.passed}")
ground = complex_embed(system.char.on_tree(t))
print(f"  beta=50 approaches the ground value {ground:.6f}: "
      f"{gibbs_value(system, t, 50, route='closed'):.6f}")

print("\n== ground states are algebraic and Galois-equivariant ==")
print(f"phi_inf(X_{format_tree(t)}) = "
      f"{ground_state(system.char, ForestPolynomial.generator(t))}")
print(f"phi_inf(S_(6,)) = {ground_state(system.char, [(1, (('S', (6,)),))])}")
inter = verify_intertwining(system, [leaf(1), node(1, leaf(7)), t], betas=(1, 2))
for check in inter.checks:
    print(f"{check.name} (exact, {check.cases} cases): {check.passed}")
