import itertools
import json

import pytest

from dessins import graphs, strata
from dessins.strata import (
    CurveCombinatorics,
    LabelCollision,
    LabelSetMismatch,
    NoSuchEdge,
    NotCaterpillar,
    TargetTooSmall,
    TooSmall,
    UnstableComponent,
    admissible_projection,
    clean_dessin,
    clean_dessin_is_bipartite,
    clean_dessin_is_connected,
    compose_strata,
    contract_edge,
    curve_to_dessin,
    divisorial_strata,
    enumerate_strata,
    is_substratum,
    maximal_codim_strata,
    open_stratum_boundary,
    project_divisor_check,
    s_corolla,
    stratum,
    stratum_from_json,
    stratum_to_json,
    two_part_tree,
)


def labels(n):
    return [str(i) for i in range(1, n + 1)]


def divisor_count(n):
    # unordered 2-partitions with both parts of size >= 2
    return (2 ** n - 2 - 2 * n) // 2


def double_factorial_odd(n):
    # (2n-5)!! trivalent trees on n labelled leaves
    out = 1
    for k in range(2 * n - 5, 0, -2):
        out *= k
    return out


def test_curve_to_dessin_irreducible():
    c = CurveCombinatorics(("c0",), (), {l: "c0" for l in labels(4)})
    t = curve_to_dessin(c)
    assert len(t.graph.vertices) == 1 and t.graph.n_tails == 4
    assert stratum(t).codim == 0


def test_curve_to_dessin_two_components():
    c = CurveCombinatorics(("c0", "c1"), (("c0", "c1"),),
                           {"1": "c0", "2": "c0", "3": "c1", "4": "c1"})
    t = curve_to_dessin(c)
    assert t.graph.n_edges == 1 and t.graph.n_tails == 4
    assert t == two_part_tree(["1", "2"], ["3", "4"])


def test_curve_to_dessin_unstable():
    c = CurveCombinatorics(("c0", "c1"), (("c0", "c1"),),
                           {"1": "c0", "2": "c0", "3": "c0", "4": "c1"})
    with pytest.raises(UnstableComponent):
        curve_to_dessin(c)


def test_curve_to_dessin_cycle_rejected():
    c = CurveCombinatorics(
        ("c0", "c1", "c2"),
        (("c0", "c1"), ("c1", "c2"), ("c2", "c0")),
        {"1": "c0", "2": "c1", "3": "c2"},
    )
    with pytest.raises(strata.NotATreeOfComponents):
        curve_to_dessin(c)


def test_curve_to_dessin_walks_once_without_structure_report(monkeypatch):
    def refuse(g):
        raise AssertionError("structure_report called")

    monkeypatch.setattr(graphs, "structure_report", refuse)
    assert not hasattr(strata, "structure_report")
    walks = []
    monkeypatch.setattr(strata, "spanning_forest",
                        lambda g: walks.append(g) or graphs.spanning_forest(g))
    marked = dict(zip("123456", ["c0"] * 3 + ["c1"] * 3))
    assert curve_to_dessin(CurveCombinatorics(("c0", "c1"), (("c0", "c1"),), marked)) == \
        two_part_tree(["1", "2", "3"], ["4", "5", "6"])
    for dps in ((), (("c0", "c1"), ("c0", "c1")), (("c0", "c0"),)):
        with pytest.raises(strata.NotATreeOfComponents):
            curve_to_dessin(CurveCombinatorics(("c0", "c1"), dps, marked))
    with pytest.raises(UnstableComponent):
        curve_to_dessin(CurveCombinatorics(("c0", "c1", "c2"), (("c0", "c1"),), marked))
    assert len(walks) == 4          # one for each curve whose components are stable


def test_curve_to_dessin_reraises_the_s_tree_error():
    with pytest.raises(strata.NotATreeOfComponents,
                       match="^component graph must be a connected tree$") as info:
        curve_to_dessin(CurveCombinatorics(("A", "B"), (), dict(zip(range(6), "AAABBB"))))
    assert str(info.value.__cause__) == "tree must be connected"
    with pytest.raises(strata.NotATreeOfComponents) as info:
        curve_to_dessin(CurveCombinatorics(("A",), (("A", "A"),), {1: "A"}))
    assert "stable" in str(info.value.__cause__)
    with pytest.raises(strata.NotATreeOfComponents):
        curve_to_dessin(CurveCombinatorics((), (), {}))


def test_enumerate_strata_four_labels():
    grouped = enumerate_strata(labels(4))
    assert {k: len(v) for k, v in grouped.items()} == {0: 1, 1: 3}
    assert grouped[0][0].dim == 1
    assert all(s.dim == 0 for s in grouped[1])
    # the three divisors are the 2-partitions 12|34, 13|24, 14|23
    expected = {two_part_tree(p, [l for l in labels(4) if l not in p]).canonical_key()
                for p in (("1", "2"), ("1", "3"), ("1", "4"))}
    assert {s.canonical_key() for s in grouped[1]} == expected


def test_enumerate_strata_five_labels():
    grouped = enumerate_strata(labels(5))
    assert {k: len(v) for k, v in grouped.items()} == {0: 1, 1: 10, 2: 15}


def test_enumerate_strata_six_labels():
    grouped = enumerate_strata(labels(6))
    assert len(grouped[1]) == 25
    assert len(grouped[3]) == 105
    assert sum(len(v) for v in grouped.values()) == 1 + 25 + 105 + 105


def test_enumerate_strata_seven_labels_layers():
    grouped = enumerate_strata(labels(7))
    assert {k: len(v) for k, v in grouped.items()} == \
        {0: 1, 1: divisor_count(7), 2: 490, 3: 1260, 4: double_factorial_odd(7)}


def test_enumerate_strata_eight_labels_total():
    # totals 4, 26, 236, 2752, 39208 follow the known series of trees with
    # labelled leaves and internal vertices of degree >= 3
    grouped = enumerate_strata(labels(8))
    assert sum(len(v) for v in grouped.values()) == 39208
    assert len(grouped[1]) == divisor_count(8)
    assert len(grouped[5]) == double_factorial_odd(8)


def test_enumerate_strata_too_small():
    with pytest.raises(TooSmall):
        enumerate_strata(labels(2))


def test_divisorial_counts_match_formula():
    for n in range(4, 9):
        divs = divisorial_strata(labels(n))
        assert len(divs) == divisor_count(n)
        assert all(s.codim == 1 for s in divs)


def test_divisorial_matches_enumeration_layer():
    for n in (4, 5, 6):
        grouped = enumerate_strata(labels(n))
        keys_enum = {s.canonical_key() for s in grouped[1]}
        keys_direct = {s.canonical_key() for s in divisorial_strata(labels(n))}
        assert keys_enum == keys_direct


def test_divisorial_too_small():
    with pytest.raises(TooSmall):
        divisorial_strata(labels(3))


def test_trivalent_counts_match_double_factorial():
    for n in range(4, 8):
        triv = maximal_codim_strata(labels(n))
        assert len(triv) == double_factorial_odd(n)
        assert all(s.dim == 0 for s, _ in triv)


def test_dimension_zero_over_three_labels_is_the_corolla():
    corolla = stratum(s_corolla([1, 2, 3]))
    assert maximal_codim_strata([1, 2, 3]) == [(corolla, True)]
    assert strata.trivalent_strata([3, 2, 1]) == [corolla]
    with pytest.raises(TooSmall):
        strata.trivalent_strata([1, 2])


@pytest.mark.parametrize("build", [enumerate_strata, divisorial_strata,
                                   strata.trivalent_strata, maximal_codim_strata])
def test_duplicate_labels_are_rejected(build):
    with pytest.raises(LabelCollision):
        build([1, 1, 2, 3, 4])
    with pytest.raises(LabelCollision):
        build(lab for lab in ("a", 1, 2, "a", 3))
    # a generator is read once, so it builds what its list does
    assert build(lab for lab in (4, 3, 2, 1)) == build([1, 2, 3, 4])


def test_trivalent_matches_enumeration_layer():
    for n in (4, 5, 6):
        grouped = enumerate_strata(labels(n))
        top = max(grouped)
        keys_enum = {s.canonical_key() for s in grouped[top]}
        keys_direct = {s.canonical_key() for s, _ in maximal_codim_strata(labels(n))}
        assert keys_enum == keys_direct


def test_caterpillar_classification():
    four = maximal_codim_strata(labels(4))
    assert len(four) == 3 and all(flag for _, flag in four)
    five = maximal_codim_strata(labels(5))
    assert len(five) == 15 and all(flag for _, flag in five)
    six = maximal_codim_strata(labels(6))
    n_cat = sum(1 for _, flag in six if flag)
    assert len(six) == 105 and n_cat == 90 and 105 - n_cat == 15


def test_dimension_bookkeeping():
    for n in (4, 5, 6):
        for group in enumerate_strata(labels(n)).values():
            for s in group:
                assert s.dim + s.codim == n - 3


def test_contract_edge_one_edge_tree():
    t = two_part_tree(["1", "2"], ["3", "4"])
    (e,) = t.graph.edges
    out = contract_edge(t, e)
    assert out == s_corolla(labels(4))


def test_contract_edge_caterpillar():
    grouped = enumerate_strata(labels(5))
    cat = grouped[2][0].tree
    results = {contract_edge(cat, e).canonical_key() for e in cat.graph.edges}
    for key in results:
        assert any(key == s.canonical_key() for s in grouped[1])


def test_contract_edge_raises_dim():
    for s in divisorial_strata(labels(5)):
        (e,) = s.tree.graph.edges
        assert stratum(contract_edge(s.tree, e)).dim == s.dim + 1


def test_contract_edge_no_such_edge():
    t = s_corolla(labels(4))
    with pytest.raises(NoSuchEdge):
        contract_edge(t, frozenset(("x", "y")))


def test_substratum_top_element():
    top = stratum(s_corolla(labels(5)))
    for group in enumerate_strata(labels(5)).values():
        for s in group:
            w = is_substratum(s, top)
            assert w.holds and len(w.edges) == s.codim


def test_substratum_reflexive():
    for s in divisorial_strata(labels(4)):
        w = is_substratum(s, s)
        assert w.holds and w.edges == ()


def test_substratum_incomparable_divisors():
    divs = divisorial_strata(labels(4))
    for a, b in itertools.permutations(divs, 2):
        assert not is_substratum(a, b).holds


def test_substratum_label_mismatch():
    a = stratum(s_corolla(labels(4)))
    b = stratum(s_corolla(labels(5)))
    with pytest.raises(LabelSetMismatch):
        is_substratum(a, b)


def test_substratum_matches_cover_closure_six_labels():
    # build the poset of strata from single-edge contractions and compare the
    # reachability relation with is_substratum on random samples
    for n, n_samples in ((5, 200), (6, 150)):
        _check_cover_closure(n, n_samples)


def _check_cover_closure(n, n_samples):
    grouped = enumerate_strata(labels(n))
    all_strata = [s for g in grouped.values() for s in g]
    key_to_idx = {s.canonical_key(): i for i, s in enumerate(all_strata)}
    above = {i: set() for i in range(len(all_strata))}  # i -> directly above
    for i, s in enumerate(all_strata):
        for e in s.tree.graph.edges:
            j = key_to_idx[contract_edge(s.tree, e).canonical_key()]
            above[i].add(j)

    def reachable(i, j):
        seen, stack = set(), [i]
        while stack:
            k = stack.pop()
            if k == j:
                return True
            if k in seen:
                continue
            seen.add(k)
            stack.extend(above[k])
        return False

    import random

    rng = random.Random(7)
    for _ in range(n_samples):
        i, j = rng.randrange(len(all_strata)), rng.randrange(len(all_strata))
        assert is_substratum(all_strata[i], all_strata[j]).holds == (i == j or reachable(i, j))


def test_poset_sanity():
    # unique maximal element (the corolla); minimal elements are exactly the
    # dimension-zero strata
    for n in (4, 5):
        grouped = enumerate_strata(labels(n))
        all_strata = [s for g in grouped.values() for s in g]
        corolla_like = [s for s in all_strata if s.codim == 0]
        assert len(corolla_like) == 1
        for s in all_strata:
            assert is_substratum(s, corolla_like[0]).holds
        bottoms = [s for s in all_strata if s.dim == 0]
        assert bottoms == [s for s, _ in maximal_codim_strata(labels(n))] or \
            {s.canonical_key() for s in bottoms} == \
            {s.canonical_key() for s, _ in maximal_codim_strata(labels(n))}
        for b in bottoms:
            under = [s for s in all_strata if s != b and is_substratum(s, b).holds]
            assert under == []


def test_open_stratum_boundary_corolla_four():
    top = stratum(s_corolla(labels(4)))
    boundary = open_stratum_boundary(top)
    assert len(boundary) == 3
    assert all(s.codim == 1 for s in boundary)


def test_open_stratum_boundary_corolla_five():
    assert len(open_stratum_boundary(stratum(s_corolla(labels(5))))) == 10


def test_open_stratum_boundary_matches_poset():
    grouped = enumerate_strata(labels(5))
    for group in grouped.values():
        for s in group:
            expected = {o.canonical_key()
                        for g2 in grouped.values()
                        for o in g2
                        if o.codim == s.codim + 1 and is_substratum(o, s).holds}
            got = {o.canonical_key() for o in open_stratum_boundary(s)}
            assert got == expected


def test_open_stratum_boundary_empty_at_dim_zero():
    bottom = maximal_codim_strata(labels(4))[0][0]
    assert open_stratum_boundary(bottom) == []


def test_clean_dessin_one_edge():
    s = stratum(two_part_tree(["1", "2"], ["3", "4"]))
    d = clean_dessin(s)
    assert len(d.black) == 2 + 4 and len(d.white) == 1
    assert len(d.black) + len(d.white) == 7
    assert clean_dessin_is_bipartite(d) and clean_dessin_is_connected(d)


def test_clean_dessin_two_edges():
    cats = [s for s, flag in maximal_codim_strata(labels(5)) if flag]
    d = clean_dessin(cats[0])
    assert len(d.black) == 3 + 5 and len(d.white) == 2
    assert clean_dessin_is_bipartite(d) and clean_dessin_is_connected(d)


def test_clean_dessin_all_caterpillars():
    for n in (4, 5, 6):
        for s, flag in maximal_codim_strata(labels(n)):
            if flag:
                d = clean_dessin(s)
                assert clean_dessin_is_bipartite(d)
                assert clean_dessin_is_connected(d)


def _renamed_vertices(t, names):
    """t loaded through s_tree with its vertices renamed."""
    g = t.graph
    rename = dict(zip(g.vertices, names))
    h = graphs.validate(g.flags, rename.values(), {f: rename[v] for f, v in g.boundary.items()},
                        g.involution)
    return stratum(strata.s_tree(h, t.tail_labels))


def test_clean_dessin_names_never_collide_with_tree_vertices():
    first = next(s for s, flag in maximal_codim_strata(labels(5)) if flag)
    base = clean_dessin(first)
    for names, pre in ((["w0", "w1", "w2"], "_"), (["end_1", "x", "_w1"], "__"),
                       (["a", "b", "c"], "")):
        s = _renamed_vertices(first.tree, names)
        assert s == first
        d = clean_dessin(s)
        assert not set(d.black) & set(d.white)
        assert len(set(d.black)) == 3 + 5 and d.white == (f"{pre}w0", f"{pre}w1")
        assert clean_dessin_is_bipartite(d) and clean_dessin_is_connected(d)
        # the same dessin as before the renaming, up to the names
        rename = {**dict(zip(first.tree.graph.vertices, names)),
                  **{f"end_{i}": f"{pre}end_{i}" for i in range(1, 6)},
                  **{f"w{i}": f"{pre}w{i}" for i in range(2)}}
        assert d.black == tuple(sorted(rename[v] for v in base.black))
        assert d.edges == tuple(sorted(tuple(sorted(rename[v] for v in e)) for e in base.edges))


def test_clean_dessin_leaf_ends_of_labels_that_print_alike():
    for s, flag in maximal_codim_strata([1, "1", 2, 3, "x"]):
        if flag:
            d = clean_dessin(s)
            assert len(set(d.black)) == len(d.black) == 3 + 5
            assert sorted(v for v in d.black if v.startswith("end_")) == \
                sorted(f"end_{lab}#{i}" for i, lab in enumerate(s.tree.order))
            assert clean_dessin_is_bipartite(d) and clean_dessin_is_connected(d)


def test_clean_dessin_rejects_non_caterpillar():
    non_cat = [s for s, flag in maximal_codim_strata(labels(6)) if not flag]
    assert non_cat
    with pytest.raises(NotCaterpillar):
        clean_dessin(non_cat[0])


def test_compose_strata_corollas():
    s1 = stratum(s_corolla(["1", "2", "x"]))
    s2 = stratum(s_corolla(["3", "4", "y"]))
    out = compose_strata(s1, "x", s2, "y")
    assert out.codim == 1
    assert out.tree.labels == {"1", "2", "3", "4"}
    assert out.tree == two_part_tree(["1", "2"], ["3", "4"])


def test_compose_strata_codim_additivity():
    s1 = stratum(s_corolla(["1", "2", "3", "x"]))
    s2 = stratum(s_corolla(["4", "5", "y"]))
    out = compose_strata(s1, "x", s2, "y")
    assert out.codim == s1.codim + s2.codim + 1
    assert out.tree.labels == {"1", "2", "3", "4", "5"}


def test_compose_strata_label_collision():
    s1 = stratum(s_corolla(["1", "2", "x"]))
    s2 = stratum(s_corolla(["2", "4", "y"]))
    with pytest.raises(LabelCollision):
        compose_strata(s1, "x", s2, "y")


def test_projection_corolla():
    s = stratum(s_corolla(labels(5)))
    out = admissible_projection(s, labels(4))
    assert out.tree == s_corolla(labels(4))


def test_projection_no_contraction_needed():
    s = stratum(two_part_tree(["1", "2"], ["3", "4", "5"]))
    out = admissible_projection(s, labels(4))
    assert out.tree == two_part_tree(["1", "2"], ["3", "4"])


def test_projection_forces_stabilization():
    s = stratum(two_part_tree(["1", "2"], ["3", "4", "5"]))
    out = admissible_projection(s, ["1", "2", "3"])
    assert out.tree == s_corolla(["1", "2", "3"])
    assert out.codim == 0


def test_projection_target_too_small():
    s = stratum(s_corolla(labels(5)))
    with pytest.raises(TargetTooSmall):
        admissible_projection(s, ["1", "2"])


def test_projection_always_stable_and_functorial():
    # every stratum over 6 labels, every chain S'' > S' > S
    grouped = enumerate_strata(labels(6))
    all_strata = [s for g in grouped.values() for s in g]
    base = labels(6)
    chains = [(["1", "2", "3", "4", "5"], ["1", "2", "3", "4"]),
              (["1", "2", "3", "4", "5"], ["2", "3", "4", "5"]),
              (["2", "3", "4", "5", "6"], ["3", "4", "5", "6"]),
              (["1", "2", "4", "5", "6"], ["1", "2", "4", "5"])]
    for s in all_strata:
        for mid, small in chains:
            via = admissible_projection(admissible_projection(s, mid), small)
            direct = admissible_projection(s, small)
            assert via == direct


def test_projection_order_independent():
    # forgetting labels one at a time, in every order, lands on the same
    # stratum as one direct projection, regardless of contraction sequence
    grouped = enumerate_strata(labels(6))
    sample = [grouped[3][0], grouped[3][7], grouped[2][0], grouped[1][4]]
    drop = ["4", "5", "6"]
    keep3 = ["1", "2", "3"]
    for s in sample:
        direct = admissible_projection(s, keep3)
        for order in itertools.permutations(drop):
            cur = s
            remaining = set(labels(6))
            for lab in order:
                remaining.discard(lab)
                cur = admissible_projection(cur, sorted(remaining))
            assert cur == direct


def test_caterpillar_count_formula():
    # caterpillars on n labels: choose unordered pairs for the two ends and
    # order the middles, divided by the path reversal
    def caterpillar_count(n):
        from math import comb, factorial
        return comb(n, 2) * comb(n - 2, 2) * factorial(n - 4) // 2

    for n in (5, 6, 7):
        got = sum(1 for _, flag in maximal_codim_strata(labels(n)) if flag)
        assert got == caterpillar_count(n)


def test_project_divisor_check():
    assert project_divisor_check((("1", "2"), ("3", "4", "5")),
                                 (("1", "2"), ("3", "4")))
    assert not project_divisor_check((("1", "5"), ("2", "3", "4")),
                                     (("1", "2"), ("3", "4")))
    assert project_divisor_check((("1", "2"), ("3", "4")),
                                 (("1", "2"), ("3", "4")))


def test_stratum_json_round_trip():
    for s in divisorial_strata(labels(5))[:3]:
        s2 = stratum_from_json(stratum_to_json(s))
        assert s2 == s and s2.codim == s.codim


def test_stratum_json_round_trip_integer_labels():
    flat = [s for group in enumerate_strata([1, 2, 3, 4, 5]).values() for s in group]
    assert len(flat) == 26
    for s in flat:
        obj = json.loads(json.dumps(stratum_to_json(s)))
        assert obj["labels"] == [1, 2, 3, 4, 5]
        assert sorted(obj["tail_labels"].values()) == [1, 2, 3, 4, 5]
        s2 = stratum_from_json(obj)
        assert s2 == s and s2.codim == s.codim
