"""The operad laws of grafting strata at tails, checked exhaustively on small
label sets: sequential and parallel associativity of `compose_strata`, its
equivariance under renaming labels, and the count of (stratum, edge) pairs,
which cutting at the edge puts in bijection with pairs of strata.

s1 o_{a,b} s2 grafts tail a of s1 to tail b of s2.  Renamed strata are read
off their flag graphs through `s_tree`, not built from splits."""

import itertools
import math

from dessins.strata import compose_strata, enumerate_strata, s_tree


def all_strata(labels):
    return [s for layer in enumerate_strata(labels).values() for s in layer]


def rename(s, sigma):
    """The stratum with every label l renamed sigma[l]."""
    t = s.tree
    return s_tree(t.graph, {f: sigma[lab] for f, lab in t.tail_labels.items()})


# 4, 5 and 3 labels (4, 26 and 1 strata), of mixed types
FOUR, FIVE, THREE = (1, 2, 3, 4), (5, 6, 7, 8, 9), ("x", "y", "z")


def test_sequential_associativity():
    # (s1 o_{a,b} s2) o_{c,d} s3 == s1 o_{a,b} (s2 o_{c,d} s3), c a label of s2 other than b
    checks = 0
    for s2, s3 in itertools.product(all_strata(FIVE), all_strata(THREE)):
        for c, d in itertools.product(FIVE, THREE):
            s23 = compose_strata(s2, c, s3, d)
            for s1, a, b in itertools.product(all_strata(FOUR), FOUR, FIVE):
                if b == c:
                    continue
                left = compose_strata(compose_strata(s1, a, s2, b), c, s3, d)
                assert left == compose_strata(s1, a, s23, b), (s1, a, s2, b, c, s3, d)
                assert left.codim == s1.codim + s2.codim + s3.codim + 2
                checks += 1
    assert checks == 26 * 1 * (5 * 3) * (4 * 4 * 4)


def test_parallel_associativity():
    # (s1 o_{a,b} s2) o_{c,d} s3 == (s1 o_{c,d} s3) o_{a,b} s2, a and c labels of s1
    checks = 0
    for s1, s2, s3 in itertools.product(all_strata(FIVE), all_strata(FOUR), all_strata(THREE)):
        for a, c in itertools.permutations(FIVE, 2):
            for b, d in itertools.product(FOUR, THREE):
                left = compose_strata(compose_strata(s1, a, s2, b), c, s3, d)
                assert left == compose_strata(compose_strata(s1, c, s3, d), a, s2, b), \
                    (s1, a, c, s2, b, s3, d)
                checks += 1
    assert checks == 26 * 4 * 1 * 20 * 4 * 3


def test_equivariance_under_renaming():
    # sigma(s1 o_{a,a} s2) == sigma(s1) o_{sigma a, sigma a} sigma(s2), where s1 and
    # s2 share only their grafting label a and one of them has 4 labels, the other
    # 3, for every bijection sigma of their six labels onto six of mixed types
    labels = (0, 1, 2, 3, 4, 5)
    images = list(itertools.permutations((7, 8, 10, "a", "b", "c")))
    checks = 0
    for n1 in (4, 3):
        for a in labels[:n1]:
            pairs = itertools.product(all_strata(labels[:n1]), all_strata((a,) + labels[n1:]))
            for s1, s2 in pairs:
                composite = compose_strata(s1, a, s2, a)
                for image in images:
                    sigma = dict(zip(labels, image))
                    want = compose_strata(rename(s1, sigma), sigma[a], rename(s2, sigma), sigma[a])
                    assert rename(composite, sigma) == want, (s1, s2, a, sigma)
                    checks += 1
    assert checks == (4 * 4 + 3 * 4) * 720


def test_codim_weighted_count_is_the_count_of_edge_decompositions():
    # each (stratum, edge) pair over n labels is one stable split A|B with a
    # stratum over A plus a graft label on one side and over B plus one on the
    # other: sum_c c N_c(n) = sum over splits A|B of T(|A| + 1) T(|B| + 1)
    counts = {n: {c: len(layer) for c, layer in enumerate_strata(range(n)).items()}
              for n in range(3, 9)}
    total = {n: sum(by_codim.values()) for n, by_codim in counts.items()}
    pairs = {}
    for n in range(4, 9):
        left = sum(c * count for c, count in counts[n].items())
        # ordered splits with both sides of size >= 2, so each split twice
        ordered = sum(math.comb(n, a) * total[a + 1] * total[n - a + 1] for a in range(2, n - 1))
        assert left * 2 == ordered, n
        pairs[n] = left
    assert pairs == {4: 3, 5: 40, 6: 550, 7: 8_596, 8: 153_580}
