"""Reference values and oracles that do not depend on the library's internals.

Planned refactors change `canonical_key`, the graph encoding of strata and the
coefficient storage of cyclotomic numbers, so the benchmark checks results
against closed formulas, published counts and label bipartitions ("splits")
read off the public graph of a stratum: a stable labelled tree is determined
by the set of bipartitions of its labels that its edges induce.
"""

from __future__ import annotations

from math import prod

# Strata over 8 labels by codimension; the total 39,208 is A000311(8).
STRATA_8_BY_CODIM = {0: 1, 1: 119, 2: 1918, 3: 9450, 4: 17325, 5: 10395}
STRATA_8_TOTAL = 39208
STRATA_6_TOTAL = 236
STRATA_7_BY_CODIM = {0: 1, 1: 56, 2: 490, 3: 1260, 4: 945}
STRATA_7_TOTAL = 2752
STRATA_5_TOTAL = 26

# Labelled rooted trees over three labels with <= 6 and <= 5 vertices.
HOPF_TREES_LE6 = 11220
HOPF_TREES_LE5 = 1788


def divisor_count(n: int) -> int:
    """Codimension-one strata: unordered stable 2-partitions of n labels."""
    return (2 ** n - 2 - 2 * n) // 2


def corner_count(n: int) -> int:
    """Dimension-zero strata: (2n - 5)!!."""
    return prod(range(2 * n - 5, 0, -2))


def caterpillar_corner_count(n: int) -> int:
    """Trivalent caterpillars over n >= 4 labels: n! / 8."""
    return prod(range(1, n + 1)) // 8


def catalan(n: int) -> int:
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


def rooted_tree_count(k: int, max_nodes: int) -> int:
    """Unordered rooted trees with vertices coloured by k labels, <= max_nodes
    vertices, by the Euler transform a(n+1) = k * (multisets of trees, n nodes)."""
    a = [0, k]                      # a[n]: trees with exactly n vertices
    forests = [1]                   # forests[n]: multisets of trees, n vertices
    for n in range(1, max_nodes):
        # forests via the standard multiset recurrence
        total = 0
        for j in range(1, n + 1):
            c = sum(d * a[d] for d in range(1, j + 1) if j % d == 0)
            total += c * forests[n - j]
        forests.append(total // n)
        a.append(k * forests[n])
    return sum(a[1:max_nodes + 1])


def admissible_cut_count(t) -> int:
    """Admissible cuts of a nested-tuple tree, the empty cut included."""
    return prod(1 + admissible_cut_count(c) for c in t[1])


def _labelkey(x):
    return (type(x).__name__, x)


def normalise(side, labels, anchor):
    """A bipartition of `labels` as the side that does not hold `anchor`."""
    side = frozenset(side)
    return labels - side if anchor in side else side


def edge_splits(tree) -> dict:
    """Map each edge (frozenset of two flags) of a stable labelled tree to
    the label set on the side away from the least label."""
    g = tree.graph
    labels = frozenset(tree.tail_labels.values())
    anchor = min(labels, key=_labelkey)
    nbrs = {v: [] for v in g.vertices}
    for e in g.edges:
        a, b = e
        u, w = g.boundary[a], g.boundary[b]
        nbrs[u].append((w, e))
        nbrs[w].append((u, e))
    at = {v: [] for v in g.vertices}
    root = None
    for f in g.tails:
        lab = tree.tail_labels[f]
        at[g.boundary[f]].append(lab)
        if lab == anchor:
            root = g.boundary[f]
    out = {}

    def below(v, parent):
        found = list(at[v])
        for w, e in nbrs[v]:
            if w != parent:
                side = below(w, v)
                out[e] = frozenset(side)
                found.extend(side)
        return found

    below(root, None)
    return out


def splits(tree) -> frozenset:
    return frozenset(edge_splits(tree).values())


def project_splits(split_set, target) -> frozenset:
    """Splits of the projection that forgets the labels outside `target`."""
    target = frozenset(target)
    anchor = min(target, key=_labelkey)
    out = set()
    for side in split_set:
        kept = side & target
        if 2 <= len(kept) <= len(target) - 2:
            out.add(normalise(kept, target, anchor))
    return frozenset(out)


def compose_splits(splits1, labels1, label1, splits2, labels2, label2) -> frozenset:
    """Splits of the stratum grafted from two strata at the given labels."""
    rest1, rest2 = labels1 - {label1}, labels2 - {label2}
    labels = rest1 | rest2
    anchor = min(labels, key=_labelkey)
    out = {normalise(rest2, labels, anchor)}
    for split_set, site, other in ((splits1, label1, rest2), (splits2, label2, rest1)):
        for side in split_set:
            side = (side - {site}) | other if site in side else side
            out.add(normalise(side, labels, anchor))
    return frozenset(out)
