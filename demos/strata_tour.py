"""Boundary strata of genus-zero moduli spaces as stable labelled trees.

Counts by codimension, the substratum partial order, projections that forget
marked points, the dual tree of a stable curve, and the black/white
re-encoding of caterpillar corners.

Run with:  python3 demos/strata_tour.py
"""

from dessins.strata import (
    CurveCombinatorics,
    NotATreeOfComponents,
    admissible_projection,
    clean_dessin,
    contract_edge,
    curve_to_dessin,
    divisorial_strata,
    enumerate_strata,
    is_substratum,
    maximal_codim_strata,
    s_corolla,
    stratum_to_dot,
    two_part_tree,
)

labels = [str(i) for i in range(1, 7)]

print("== strata of the six-label space, by codimension ==")
grouped = enumerate_strata(labels)
for codim, group in grouped.items():
    print(f"codim {codim}: {len(group)} strata (dim {group[0].dim})")
print(f"total {sum(len(g) for g in grouped.values())}")

print("\n== divisors are stable 2-partitions ==")
divs = divisorial_strata(labels)
print(f"{len(divs)} divisors; formula (2^6 - 2 - 12)/2 = {(2**6 - 2 - 12)//2}")

print("\n== dimension-zero corners are trivalent; most are caterpillars ==")
corners = maximal_codim_strata(labels)
n_cat = sum(1 for _, caterpillar in corners if caterpillar)
print(f"{len(corners)} corners = 7!! ; {n_cat} caterpillars, "
      f"{len(corners) - n_cat} three-spoke stars")

print("\n== the substratum order: contract edges to move up ==")
deep = corners[0][0]
(edge, *_) = sorted(deep.tree.graph.edges, key=sorted)
up = contract_edge(deep.tree, edge)
print(f"contracting one edge: codim {deep.codim} -> {up.codim}")
witness = is_substratum(deep, up)
print(f"witness edge set: {witness.edges}")
top = s_corolla(labels)
print(f"everything lies under the corolla: {is_substratum(deep, top).holds}")

print("\n== forgetting marked points, then stabilizing ==")
s = two_part_tree(["1", "2"], ["3", "4", "5"])
print("start: 12|345 over {1..5}")
print("forget 5      ->", sorted(admissible_projection(s, ["1", "2", "3", "4"]).tree.labels),
      "codim", admissible_projection(s, ["1", "2", "3", "4"]).codim)
out = admissible_projection(s, ["1", "2", "3"])
print("forget 4 and 5 -> corolla over {1,2,3}: codim", out.codim)

print("\n== the dual tree of a stable curve ==")
marked = {"1": "A", "2": "A", "3": "B", "4": "B", "5": "B"}
dual = curve_to_dessin(CurveCombinatorics(("A", "B"), (("A", "B"),), marked))
print(f"two components meeting once: codim {dual.codim}, "
      f"split {sorted(map(sorted, dual.label_splits()))}")
try:
    curve_to_dessin(CurveCombinatorics(("A", "B"), (("A", "B"), ("A", "B")), marked))
except NotATreeOfComponents as exc:
    print(f"meeting twice is refused: {exc}")

print("\n== a caterpillar corner re-encoded with black and white vertices ==")
cat = next(s for s, caterpillar in maximal_codim_strata(["1", "2", "3", "4", "5"])
           if caterpillar)
d = clean_dessin(cat)
print(f"black: {d.black}")
print(f"white: {d.white}")
print(f"edges: {d.edges}")

print("\n== DOT export of a dessin ==")
print(stratum_to_dot(divs[0]))
