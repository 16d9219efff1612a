from fractions import Fraction

import pytest

from dessins import hopf
from dessins.hopf import (
    EMPTY_FOREST,
    ForestPolynomial,
    PairPolynomial,
    TooLarge,
    TreeSyntaxError,
    admissible_cuts,
    antipode,
    antipode_identity_holds,
    balanced_cuts,
    coassociativity_holds,
    coproduct,
    counit,
    counit_axioms_hold,
    enumerate_trees,
    forest,
    forest_leq,
    format_tree,
    g_act,
    graft_at,
    graft_equivariance_check,
    leaf,
    node,
    parse_tree,
    polynomial_from_json,
    polynomial_to_json,
    relabel_tree,
    trees_with_n_nodes,
    vertex_paths,
)
from dessins.galois import GaloisGroup


def chain(*labels):
    t = leaf(labels[-1])
    for lab in reversed(labels[:-1]):
        t = node(lab, t)
    return t


def test_parse_and_format():
    t = parse_tree("j3[j1, j2[j0]]")
    assert t == node(3, leaf(1), node(2, leaf(0)))
    assert parse_tree(format_tree(t)) == t
    assert parse_tree("j0") == leaf(0)
    with pytest.raises(TreeSyntaxError):
        parse_tree("j1[j2")
    with pytest.raises(TreeSyntaxError):
        parse_tree("[j1]")


def test_canonical_children_order():
    assert node(0, leaf(2), leaf(1)) == node(0, leaf(1), leaf(2))


def test_cuts_single_vertex():
    assert len(admissible_cuts(leaf(5))) == 1
    edges, trunk, pruned = admissible_cuts(leaf(5))[0]
    assert edges == frozenset() and trunk == leaf(5) and pruned == ()


def test_cuts_two_chain():
    cuts = admissible_cuts(chain(0, 1))
    assert len(cuts) == 2
    pairs = {(trunk, pruned) for _, trunk, pruned in cuts}
    assert (chain(0, 1), ()) in pairs
    assert (leaf(0), (leaf(1),)) in pairs


def test_cuts_three_chain():
    # both edges lie on the single root-to-leaf path, so never together
    cuts = admissible_cuts(chain(0, 1, 2))
    assert len(cuts) == 3
    pairs = {(trunk, pruned) for _, trunk, pruned in cuts}
    assert pairs == {
        (chain(0, 1, 2), ()),
        (chain(0, 1), (leaf(2),)),
        (leaf(0), (chain(1, 2),)),
    }


def test_cut_count_of_chains():
    for n in range(1, 9):
        assert len(admissible_cuts(chain(*range(n)))) == n


def test_cuts_path_condition():
    # cherry: two children, the two edges are on different paths
    t = node(0, leaf(1), leaf(2))
    assert len(admissible_cuts(t)) == 4


def test_coproduct_unit():
    assert coproduct(ForestPolynomial.one()) == PairPolynomial.of(EMPTY_FOREST, EMPTY_FOREST)


def test_coproduct_single_vertex():
    x = ForestPolynomial.generator(leaf(0))
    expected = PairPolynomial.of((leaf(0),), EMPTY_FOREST) + \
        PairPolynomial.of(EMPTY_FOREST, (leaf(0),))
    assert coproduct(x) == expected


def test_coproduct_two_chain():
    t = chain(0, 1)
    x = ForestPolynomial.generator(t)
    expected = (PairPolynomial.of((t,), EMPTY_FOREST)
                + PairPolynomial.of(EMPTY_FOREST, (t,))
                + PairPolynomial.of((leaf(0),), (leaf(1),)))
    assert coproduct(x) == expected


def test_counit():
    assert counit(ForestPolynomial.one()) == 1
    assert counit(ForestPolynomial.generator(leaf(3))) == 0
    x = ForestPolynomial.one().scale(3) + ForestPolynomial.generator(leaf(0)).scale(2)
    assert counit(x) == 3


def test_antipode_unit_and_vertex():
    assert antipode(ForestPolynomial.one()) == ForestPolynomial.one()
    assert antipode(ForestPolynomial.generator(leaf(0))) == \
        ForestPolynomial.generator(leaf(0)).scale(-1)


def test_antipode_two_chain():
    t = chain(0, 1)
    got = antipode(ForestPolynomial.generator(t))
    expected = ForestPolynomial({(t,): -1, forest(leaf(0), leaf(1)): 1})
    assert got == expected


def test_coproduct_is_algebra_morphism():
    a = ForestPolynomial.generator(chain(0, 1))
    b = ForestPolynomial.generator(node(1, leaf(2), leaf(0)))
    assert coproduct(a * b) == coproduct(a) * coproduct(b)


def test_pair_polynomials_hash_negate_and_subtract_as_forest_polynomials_do():
    t, u = chain(0, 1), leaf(2)
    p = PairPolynomial.of((t,), (u,), 2) + PairPolynomial.of((), (t, u), Fraction(-1, 3))
    q = PairPolynomial.of((u,), (), 5) + PairPolynomial.of((t,), (u,), 1)
    same = PairPolynomial(dict(p.terms))
    assert hash(same) == hash(p) and len({p, same, q}) == 2
    assert not PairPolynomial() and p
    assert -p == p.scale(-1)
    assert p - q == p + q.scale(-1)
    assert not p - same


def test_hopf_identities_small_trees():
    for t in enumerate_trees((0, 1, 2), 4):
        assert coassociativity_holds(t)
        assert counit_axioms_hold(t)
        assert antipode_identity_holds(t)


def test_antipode_with_rational_scalars():
    x = ForestPolynomial.generator(chain(0, 1)).scale(Fraction(2, 3))
    y = antipode(x)
    assert y.terms[(chain(0, 1),)] == Fraction(-2, 3)


def test_tree_enumeration_counts():
    # one and two vertex labelled trees over a 3-letter alphabet
    assert len(trees_with_n_nodes((0, 1, 2), 1)) == 3
    assert len(trees_with_n_nodes((0, 1, 2), 2)) == 9
    # 3 vertices: chains (27) + cherries with unordered equal children (3 * 6)
    assert len(trees_with_n_nodes((0, 1, 2), 3)) == 45


@pytest.mark.parametrize("labels", [(0,), (0, 1), (0, 1, 2)])
def test_tree_counts_follow_the_rooted_tree_recurrence(labels):
    # a(1) = k, a(n+1) = (1/n) sum_{i=1..n} (sum_{d|i} d a(d)) a(n-i+1):
    # A000081 at k = 1
    a = {1: len(labels)}
    for n in range(1, 6):
        total = sum(sum(d * a[d] for d in range(1, i + 1) if i % d == 0) * a[n - i + 1]
                    for i in range(1, n + 1))
        assert total % n == 0
        a[n + 1] = total // n
    assert [len(trees_with_n_nodes(labels, n)) for n in range(1, 7)] == [a[n] for n in range(1, 7)]
    if len(labels) == 1:
        assert list(a.values()) == [1, 1, 2, 4, 9, 20]
    if len(labels) == 3:
        assert list(a.values()) == [3, 9, 45, 246, 1_485, 9_432]


def test_forest_leq_reflexive():
    f = forest(chain(0, 1))
    assert forest_leq(f, f)


def test_forest_leq_grafting():
    assert forest_leq(forest(leaf(0), leaf(1)), forest(chain(0, 1)))
    assert forest_leq(forest(leaf(0), leaf(1)), forest(chain(1, 0)))
    assert not forest_leq(forest(chain(0, 1)), forest(leaf(0)))


def test_forest_leq_subforest():
    # extra components may be dropped before grafting
    assert forest_leq(forest(leaf(0), leaf(1), leaf(5)), forest(chain(0, 1)))


def test_forest_leq_budget():
    big = forest(*[leaf(0)] * 9)
    with pytest.raises(TooLarge):
        forest_leq(big, big)


def test_g_act_identity_and_relabel():
    group = GaloisGroup.full(12)
    e = group.element(1)
    x = ForestPolynomial.generator(chain(1, 7))
    assert g_act(e, x) == x
    g5 = group.element(5)
    assert g_act(g5, ForestPolynomial.generator(leaf(1))) == \
        ForestPolynomial.generator(leaf(5))


def test_g_act_multiplicative():
    group = GaloisGroup.full(12)
    g5 = group.element(5)
    a = ForestPolynomial.generator(chain(1, 2))
    b = ForestPolynomial.generator(leaf(7))
    assert g_act(g5, a * b) == g_act(g5, a) * g_act(g5, b)


def test_g_act_commutes_with_structure_maps():
    # exhaustive on trees with <= 5 vertices over the full Z/3 alphabet
    group = GaloisGroup.full(3)
    for t in enumerate_trees((0, 1, 2), 5):
        x = ForestPolynomial.generator(t)
        for a in group.elements:
            gamma = group.element(a)
            gx = g_act(gamma, x)
            assert counit(gx) == counit(x)
            assert antipode(gx) == g_act(gamma, antipode(x))
            left = coproduct(gx)
            right = PairPolynomial({
                (tuple(sorted(relabel_tree(u, gamma.on_label) for u in fa)),
                 tuple(sorted(relabel_tree(u, gamma.on_label) for u in fb))): c
                for (fa, fb), c in coproduct(x).terms.items()
            })
            assert left == right


def test_balanced_cuts_trivial_group():
    group = GaloisGroup.trivial(12)
    for t in enumerate_trees((0, 5), 3):
        assert len(balanced_cuts(t, group)) == len(admissible_cuts(t))


def test_balanced_cuts_label_action_equals_all_cuts():
    group = GaloisGroup.full(12)
    for t in enumerate_trees((0, 1, 6, 7), 4):
        got = {(trunk, pruned) for _, trunk, pruned in balanced_cuts(t, group)}
        want = {(trunk, pruned) for _, trunk, pruned in admissible_cuts(t)}
        assert got == want


def test_balanced_cuts_single_vertex():
    group = GaloisGroup.full(12)
    assert len(balanced_cuts(leaf(7), group)) == 1


def test_graft_equivariance_label_action():
    group = GaloisGroup.full(12)
    t1 = node(1, leaf(6))
    t2 = node(7, leaf(0))
    for a in group.elements:
        gamma = group.element(a)
        for path in vertex_paths(t1):
            assert graft_equivariance_check(gamma, t1, path, t2)


def test_graft_equivariance_plain_label_map_agrees_with_the_group_element():
    group = GaloisGroup.full(12)
    t1 = node(1, leaf(6))
    t2 = node(7, leaf(0))
    for a in group.elements:
        gamma = group.element(a)
        for path in vertex_paths(t1):
            assert graft_equivariance_check(lambda j: a * j % 12, t1, path, t2) \
                == graft_equivariance_check(gamma, t1, path, t2)


def test_graft_equivariance_fixture_can_fail():
    # a shape-changing tree map that is not induced by labels: swaps a chain
    # with a cherry, keeping sites fixed
    a_chain = chain(0, 0, 0)
    a_cherry = node(0, leaf(0), leaf(0))

    class Swap:
        def on_tree(self, t):
            if t == a_chain:
                return a_cherry
            if t == a_cherry:
                return a_chain
            return t

        def on_site(self, t, path):
            return path

    assert not graft_equivariance_check(Swap(), chain(0, 0), (0,), leaf(0))


def test_graft_at_paths():
    t = node(0, leaf(1))
    grown = graft_at(t, (0,), leaf(2))
    assert grown == node(0, node(1, leaf(2)))
    grown_root = graft_at(t, (), leaf(2))
    assert grown_root == node(0, leaf(1), leaf(2))


def test_polynomial_json_round_trip():
    x = ForestPolynomial.generator(chain(0, 1)).scale(Fraction(3, 7)) - \
        ForestPolynomial.one().scale(2)
    y = polynomial_from_json(polynomial_to_json(x))
    assert x == y


@pytest.mark.parametrize("label", ["12", "j3", -1, "a b"])
def test_polynomial_json_refuses_a_label_that_does_not_read_back(label):
    # "12" and "j3" would read back as the ints 12 and 3; "j-1" and "a b" not at all
    x = ForestPolynomial.generator(node(0, leaf(label)))
    with pytest.raises(TreeSyntaxError, match=repr(label)):
        polynomial_to_json(x)
    with pytest.raises(TreeSyntaxError, match=repr(label)):
        polynomial_to_json(ForestPolynomial.generator(node(label, leaf("j3"))))


@pytest.mark.parametrize("text,fault", [
    ('[{"forest": ["j1"], "coeff": "1/0"}]', "coefficient '1/0'"),
    ('[{"forest": ["j1"]}]', "with 'coeff' and a 'forest' list"),
    ('[["j1"]]', "with 'coeff' and a 'forest' list"),
    ('[{"forest": "j1", "coeff": "1"}]', "with 'coeff' and a 'forest' list"),
    ('[{"forest": [5], "coeff": "1"}]', "with 'coeff' and a 'forest' list"),
    ('{"forest": ["j1"], "coeff": "1"}', "is a dict, not a list"),
])
def test_polynomial_from_json_names_the_fault(text, fault):
    with pytest.raises(TreeSyntaxError, match=fault):
        polynomial_from_json(text)


def test_one_bounded_cache_and_no_module_dicts():
    assert not [name for name, v in vars(hopf).items()
                if isinstance(v, (dict, list, set)) and not name.startswith("__")]
    assert isinstance(hopf.CACHE, hopf.HopfCache) and hopf.CACHE.max_entries > 0


def test_cache_reports_size_hits_and_misses():
    hopf.clear_caches()
    assert hopf.CACHE.stats() == {"size": 0, "max_entries": hopf.CACHE.max_entries,
                                  "hits": 0, "misses": 0, "trims": 0}
    x = ForestPolynomial.generator(chain(0, 1, 2))
    first = coproduct(x)
    stats = hopf.CACHE.stats()
    assert stats["size"] > 0 and stats["misses"] > 0
    assert coproduct(x) == first
    assert hopf.CACHE.stats()["hits"] > stats["hits"]
    assert hopf.CACHE.stats()["misses"] == stats["misses"]


PUBLIC_MEMO_CALLS = {
    "admissible_cuts": lambda t: admissible_cuts(t),
    "balanced_cuts": lambda t: balanced_cuts(t, GaloisGroup.full(12)),
    "coproduct": lambda t: coproduct(ForestPolynomial.generator(t)),
    "antipode": lambda t: antipode(ForestPolynomial.generator(t)),
    "coassociativity_holds": coassociativity_holds,
    "counit_axioms_hold": counit_axioms_hold,
    "antipode_identity_holds": antipode_identity_holds,
    "enumerate_trees": lambda t: enumerate_trees((0, 1), 3),
    "trees_with_n_nodes": lambda t: trees_with_n_nodes((0, 1), 3),
}


@pytest.mark.parametrize("name", PUBLIC_MEMO_CALLS)
def test_cache_counts_one_hit_or_miss_per_public_call(name):
    call = PUBLIC_MEMO_CALLS[name]
    t = node(0, chain(1, 5), leaf(7))
    hopf.clear_caches()
    call(t)
    assert (hopf.CACHE.hits, hopf.CACHE.misses) == (0, 1)
    call(t)
    assert (hopf.CACHE.hits, hopf.CACHE.misses) == (1, 1)


def test_enumeration_memoises_tree_lists_only():
    hopf.clear_caches()
    enumerate_trees((0, 1, 2), 6)
    assert sorted(hopf.CACHE.enumeration) == [("trees", (0, 1, 2), n) for n in range(1, 7)]


def test_cache_bound_drops_entries_between_calls(monkeypatch):
    hopf.clear_caches()
    monkeypatch.setattr(hopf.CACHE, "max_entries", 40)
    trees = enumerate_trees((0, 1), 4)
    for t in trees:
        assert coassociativity_holds(t) and antipode_identity_holds(t)
        assert hopf.CACHE.size <= 40 + 60      # one call adds fewer than 60 here
    assert hopf.CACHE.stats()["trims"] > 0
    monkeypatch.undo()
    hopf.clear_caches()
    for t in trees:
        assert coassociativity_holds(t) and antipode_identity_holds(t)
    assert hopf.CACHE.stats()["trims"] == 0


# the HopfCache memo tables whose entries count toward its bound
COUNTED_MEMOS = ("cuts", "edges", "coproduct", "antipode", "joins", "enumeration", "relabel")
# dict attributes of HopfCache that hold no memo entries (none today)
UNCOUNTED_DICTS = frozenset()


def _recount(c) -> int:
    """The cache size recounted from its tables: every memo entry, each
    group's relabelling memos included, plus the nonempty forests, one-tree
    forests (the trees) among them."""
    memos = [getattr(c, name) for name in COUNTED_MEMOS]
    relabelled = sum(len(memo) for pairs in c.relabel.values() for _, memo in pairs)
    return sum(map(len, memos)) + relabelled + len(c.trees.forests) - 1


def test_every_memo_table_of_the_cache_is_recounted():
    # a dict table that a new memo adds to HopfCache._drop must either count
    # toward max_entries (and be recounted here) or be named as uncounted
    c = hopf.HopfCache(max_entries=10)      # its constructor calls _drop
    tables = {name for name, value in vars(c).items() if isinstance(value, dict)}
    assert tables == set(COUNTED_MEMOS) | UNCOUNTED_DICTS


def test_forest_joins_count_toward_the_bound_and_go_with_a_trim(monkeypatch):
    hopf.clear_caches()
    c = hopf.CACHE
    for t in enumerate_trees((0, 1), 4):
        assert antipode_identity_holds(t)
    assert c.joins and c.size == _recount(c)
    monkeypatch.setattr(c, "max_entries", c.size - 1)
    admissible_cuts(leaf(0))                    # trims on entry
    assert c.trims == 1 and not c.joins and c.size == _recount(c)
    monkeypatch.undo()
    assert antipode_identity_holds(node(0, leaf(1), leaf(1))) and c.joins
    hopf.clear_caches()
    assert not c.joins and c.size == 0


def _coproduct_held(t) -> bool:
    tid = hopf.CACHE.trees.by_tuple.get(t)
    return tid is not None and tid in hopf.CACHE.coproduct


def test_identity_checks_keep_no_coproduct_of_the_tree_under_check():
    hopf.clear_caches()
    trees = enumerate_trees((0, 1, 2), 6)
    for t in trees:                     # as the hopf-identities workload checks them
        assert coassociativity_holds(t)
        assert counit_axioms_hold(t)
    top = [t for t in trees if hopf.tree_nodes(t) == 6]
    assert len(top) == 9_432
    # only the last checked tree's coproduct may stay; no larger tree reads the others
    assert sum(map(_coproduct_held, top)) <= 1
    assert hopf.CACHE.size == _recount(hopf.CACHE)
    assert hopf.CACHE.trims == 0


def test_a_trim_between_two_checks_clears_the_checked_tree(monkeypatch):
    hopf.clear_caches()
    c = hopf.CACHE
    monkeypatch.setattr(c, "max_entries", 40)
    between = 0
    for t in enumerate_trees((0, 1), 4):
        for check in (coassociativity_holds, counit_axioms_hold):
            assert check(t)
            assert c.size == _recount(c)
            if c.size > c.max_entries:
                assert c.checked is not None
                trims = c.trims
                admissible_cuts(leaf(0))        # trims on entry, between two checks
                assert c.trims == trims + 1 and c.checked is None
                assert c.size == _recount(c)
                between += 1
    assert between > 0


@pytest.fixture
def corrupt_delta(monkeypatch):
    """install(change) replaces hopf._delta by change(f, copy of the true
    coproduct of forest id f) on cleared caches; they are cleared again after."""
    real = hopf._delta

    def install(change):
        monkeypatch.setattr(hopf, "_delta", lambda f: change(f, dict(real(f))))
        hopf.clear_caches()

    yield install
    monkeypatch.undo()
    hopf.clear_caches()


def test_identity_checks_fail_on_a_changed_proper_cut(corrupt_delta):
    def bump_one_proper_cut(f, delta):
        for key in delta:
            if key[0] and key[1]:          # neither side is the empty forest
                delta[key] += 1
                break
        return delta

    corrupt_delta(bump_one_proper_cut)
    trees = enumerate_trees((0, 1), 4)
    assert any(not coassociativity_holds(t) and not antipode_identity_holds(t) for t in trees)


def test_counit_check_fails_without_the_full_cut(corrupt_delta):
    corrupt_delta(lambda f, delta: {k: c for k, c in delta.items() if k != (0, f)})
    assert not any(counit_axioms_hold(t) for t in enumerate_trees((0, 1), 4))


def _two_dict_counit(t) -> bool:
    """The counit check as two dicts over every term of Delta(X_t)."""
    f = hopf.CACHE.trees.of(t)
    delta = hopf._delta(f)
    left = {b: c for (a, b), c in delta.items() if not a}
    right = {a: c for (a, b), c in delta.items() if not b}
    return left == right == {f: 1}


def _extra_empty_left(f, delta):
    # 1 (x) b for the right factor b of a proper cut, so b != f
    proper = [b for a, b in delta if a and b]
    if proper:
        delta[(0, proper[0])] = 1
    return delta


def _extra_empty_pair(f, delta):
    delta[(0, 0)] = 1
    return delta


def _doubled_unit_left(f, delta):
    delta[(0, f)] = 2
    return delta


def _dropped_unit_right(f, delta):
    delta.pop((f, 0), None)
    return delta


@pytest.mark.parametrize("change", [None, _extra_empty_left, _extra_empty_pair,
                                    _doubled_unit_left, _dropped_unit_right])
def test_counit_check_matches_the_two_dict_check(corrupt_delta, change):
    if change:
        corrupt_delta(change)
    trees = enumerate_trees((0, 1, 2), 4)
    verdicts = [counit_axioms_hold(t) for t in trees]
    assert verdicts == [_two_dict_counit(t) for t in trees]
    if change is None:
        assert all(verdicts)
    elif change is _extra_empty_left:      # a leaf has no proper cut
        assert verdicts == [len(hopf.vertex_paths(t)) == 1 for t in trees]
    else:
        assert not any(verdicts)


def test_cache_size_counts_forests_and_edge_sets():
    hopf.clear_caches()
    admissible_cuts(chain(0, 1, 2))
    c = hopf.CACHE
    assert len(c.trees.forests) > 1 and c.edges
    # a tree is its one-tree forest; forest 0, the empty forest, is not an entry
    assert c.size == len(c.trees.forests) - 1 + len(c.cuts) + len(c.edges)
    hopf.clear_caches()
    assert c.size == 0 and not c.edges


def test_unsortable_children_raise_every_time():
    # an int and a str label among siblings cannot be put in canonical order;
    # the failed attempt must not leave a half-made entry behind
    bad = ForestPolynomial({((0, ((1, ()), ("b", ()))),): 1})
    for _ in range(2):
        with pytest.raises(TypeError):
            coproduct(bad)
    assert coproduct(ForestPolynomial.generator(chain(0, 1))) == (
        PairPolynomial.of((chain(0, 1),), EMPTY_FOREST)
        + PairPolynomial.of(EMPTY_FOREST, (chain(0, 1),))
        + PairPolynomial.of((leaf(0),), (leaf(1),)))


def test_verify_identities_passes():
    report = hopf.verify_identities(4)
    assert report.ok, report.failed()
    assert len(report.checks) == 4
    assert all(c.cases >= 1 and c.seconds >= 0 for c in report.checks)
    assert report.checks[0].cases == len(hopf.enumerate_trees(tuple(range(3)), 4))


def test_verify_identities_checks_counit_in_the_coassociativity_pass():
    # counit right after coassociativity on each tree is one memo hit, so no
    # 6-vertex coproduct is built twice
    hopf.clear_caches()
    report = hopf.verify_identities(6)
    assert report.ok, report.failed()
    assert [(c.name, c.cases) for c in report.checks] == [
        ("coassociativity on trees <= 6 vertices", 11_220),
        ("antipode convolution on trees <= 5 vertices", 1_788),
        ("counit axioms", 11_220),
        ("coproduct is an algebra morphism on sampled products", 3)]
    assert all(c.seconds > 0 for c in report.checks)
    assert (hopf.CACHE.hits, hopf.CACHE.misses) == (11_227, 13_012)


def test_verify_identities_names_failing_counit_trees(monkeypatch):
    monkeypatch.setattr(hopf, "counit_axioms_hold", lambda t: t != hopf.leaf(2))
    report = hopf.verify_identities(2)
    (failed,) = report.failed()
    assert failed.name == "counit axioms"
    assert failed.detail == "1 failing, e.g. j2"


def test_verify_identities_names_failing_trees(monkeypatch):
    monkeypatch.setattr(hopf, "coassociativity_holds", lambda t: t != hopf.leaf(1))
    report = hopf.verify_identities(2)
    (failed,) = report.failed()
    assert failed.name.startswith("coassociativity")
    assert failed.detail == "1 failing, e.g. j1"
