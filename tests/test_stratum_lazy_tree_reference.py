"""Differential test: strata from every constructor against strata that wrap
a tree built from the same label order and splits.

For each constructor the strata are made twice.  The reference of each is
`Stratum(StableSTree(order, splits))`, read from the first copy's tree; the
second copy is compared with it before its own tree is read, so equality,
hashing, set and dict membership, codimension, dimension, canonical keys and
`repr` are checked both before and after the tree is built.  Label sets mix
types and hold labels of equal value and another type (1, 1.0 and True),
whose strata compare equal while keeping their own labels.
"""

import contextlib
import copy
import io
import itertools
import json
import pickle
from dataclasses import FrozenInstanceError

import pytest

from dessins.cli import main
from dessins.strata import (
    LabelSetMismatch,
    Stratum,
    StableSTree,
    admissible_projection,
    compose_strata,
    contract_edge,
    divisorial_strata,
    enumerate_strata,
    is_substratum,
    maximal_codim_strata,
    open_stratum_boundary,
    s_tree,
    stratum_from_json,
    stratum_to_json,
    trivalent_strata,
)

LABEL_SETS = [
    (1, 2, 3, 4, 5, 6),
    (1.0, 2, 3, 4, 5, 6),
    (True, 2, 3, 4, 5, 6),
    (False, True, 2.5, "a", "b", 7),
    (0.0, 1.0, 2, "x", (1, 2), 3),
]


def flat(grouped):
    return [s for group in grouped.values() for s in group]


def reference(s):
    return Stratum(StableSTree(s.tree.order, s.tree.splits))


def types(labels):
    return [type(lab) for lab in labels]


def assert_matches(s, ref):
    """s against its reference; s.tree is read only after the split checks."""
    order, splits = ref.tree.order, ref.tree.splits
    assert s == ref and ref == s and not s != ref and not ref != s
    assert hash(s) == hash(ref) == hash((order, splits))
    assert s in {ref} and ref in {s} and {s: 1}[ref] == 1 and {ref: 1}[s] == 1
    assert (s.codim, s.dim) == (ref.codim, ref.dim) == (len(splits), len(order) - 3 - len(splits))
    key = s.canonical_key()
    assert key == ref.canonical_key() == (order, splits)
    assert types(key[0]) == types(order)
    assert repr(s) == repr(ref)
    t = s.tree
    assert t is s.tree and t == ref.tree and types(t.order) == types(order)
    assert Stratum(t).tree is t and t.tree is t and Stratum(t) == s
    with pytest.raises(AttributeError):
        s.tree = t
    with pytest.raises(AttributeError):
        del s.tree
    assert s.tree is t
    for back in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert back == s and hash(back) == hash(s) and repr(back) == repr(s)


def assert_constructor_matches(make):
    """make() twice: references from the first result, checks on the second."""
    refs = [reference(s) for s in make()]
    got = list(make())
    assert len(got) == len(refs) > 0
    for s, ref in zip(got, refs):
        assert_matches(s, ref)
    return got


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_enumerated_strata_match_wrapped_trees(labels):
    for n in range(3, 7):
        assert_constructor_matches(lambda: flat(enumerate_strata(labels[:n])))


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_divisorial_trivalent_and_maximal_strata_match_wrapped_trees(labels):
    for n in range(4, 7):
        assert_constructor_matches(lambda: divisorial_strata(labels[:n]))
    for n in range(3, 7):
        assert_constructor_matches(lambda: trivalent_strata(labels[:n]))
        assert_constructor_matches(lambda: [s for s, _ in maximal_codim_strata(labels[:n])])


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_boundaries_and_projections_match_wrapped_trees(labels):
    strata = flat(enumerate_strata(labels))
    assert_constructor_matches(lambda: [b for s in strata for b in open_stratum_boundary(s)])
    targets = [t for k in range(3, 7) for t in itertools.combinations(labels, k)]
    for s in strata[::7]:
        assert_constructor_matches(lambda: [admissible_projection(s, t) for t in targets])


@pytest.mark.parametrize("left, right", [
    ((1, 2, 3, 4, 5), ("a", "b", "c", "d", "e")),
    ((1.0, 2, "z", 4, "w"), (True, 5, 6.5, "y", 7)),
    ((False, "p", 3, 4.5, "r"), (0.0, 1.0, "q", 9, "s")),
], ids=["ints-strings", "float-bool", "bool-floats"])
def test_compositions_match_wrapped_trees(left, right):
    # the grafting labels may repeat a value on the other side (1.0 and True)
    pairs = [(s1, l1, s2, l2)
             for s1 in flat(enumerate_strata(left)) for s2 in flat(enumerate_strata(right))
             for l1 in left[:2] for l2 in right[:2]
             if not (set(left) - {l1}) & (set(right) - {l2})]
    assert len(pairs) > 1000
    assert_constructor_matches(lambda: [compose_strata(*p) for p in pairs])


@pytest.mark.parametrize("labels", LABEL_SETS, ids=repr)
def test_strata_read_from_json_and_graphs_match_wrapped_trees(labels):
    native = [lab for lab in labels if not isinstance(lab, tuple)][:5]     # JSON has no tuples
    texts = [json.dumps(stratum_to_json(s)) for s in flat(enumerate_strata(native))]
    assert_constructor_matches(lambda: [stratum_from_json(json.loads(t)) for t in texts])
    trees = [s.tree for s in flat(enumerate_strata(labels[:5]))]
    assert_constructor_matches(lambda: [Stratum(s_tree(t.graph, t.tail_labels)) for t in trees])
    assert_constructor_matches(lambda: [Stratum(contract_edge(t, e))
                                        for t in trees for e in sorted(t.graph.edges, key=sorted)])


def test_strata_over_equal_labels_of_other_types_are_equal_and_keep_their_labels():
    ints, floats, bools = (flat(enumerate_strata(labels)) for labels in LABEL_SETS[:3])
    assert len(ints) == len(floats) == len(bools) == 236
    for a, b, c in zip(ints, floats, bools):
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert {a: 1}[b] == {b: 1}[c] == 1
        assert reference(a) == reference(b) == reference(c)
        assert (types(a.tree.order)[0], types(b.tree.order)[0], types(c.tree.order)[0]) == \
            (int, float, bool)
        assert [repr(a), repr(b), repr(c)] == [repr(reference(x)) for x in (a, b, c)]
    assert len(set(ints) | set(floats) | set(bools)) == 236


# --- a flag view is built only when it is read ------------------------------------

@pytest.fixture
def tree_builds(monkeypatch):
    """The number of flag views built since the fixture was made: from a
    stratum's splits, or by blowing down an edge of another view."""
    from dessins import strata

    built = [0]
    for name in ("_flags_from_splits", "_contracted"):
        def counting(*args, _build=getattr(strata, name)):
            built[0] += 1
            return _build(*args)

        monkeypatch.setattr(strata, name, counting)
    return built


def test_constructors_and_split_reads_build_no_tree(tree_builds):
    labels = (1, 2.5, "a", "b", "c", 6)
    made = flat(enumerate_strata(labels)) + divisorial_strata(labels) + trivalent_strata(labels)
    made += [s for s, _ in maximal_codim_strata(labels)]
    made += [b for s in made[:20] for b in open_stratum_boundary(s)]
    made += [admissible_projection(s, target) for s in made[:60]
             for target in (labels[:3], labels[1:5], labels)]
    made += [compose_strata(s1, 1, s2, "x") for s1 in made[:20]
             for s2 in flat(enumerate_strata(("x", "y", "z", 9)))]
    assert len(made) > 900
    assert tree_builds[0] == 0
    assert len(set(made)) < len(made) and all(s == s for s in made)
    assert {s.canonical_key() for s in made} and sum(s.codim + s.dim for s in made)
    assert all(len(s.tree.label_splits()) == s.codim and repr(s) for s in made)
    corolla, divisor = made[0], made[1]
    assert not is_substratum(corolla, divisor)
    with pytest.raises(LabelSetMismatch):
        is_substratum(corolla, made[-1])
    assert tree_builds[0] == 0
    g = divisor.tree.graph
    assert tree_builds[0] == 1
    assert divisor.tree.graph is g and divisor.tree.tail_labels and tree_builds[0] == 1
    assert is_substratum(divisor, corolla) and tree_builds[0] == 1
    contracted = contract_edge(divisor.tree, next(iter(g.edges)))
    assert contracted.splits == corolla.splits == () and tree_builds[0] == 1
    assert contracted.graph is contracted.graph and tree_builds[0] == 2


def test_strata_cli_counts_and_poset_build_no_tree(tree_builds, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["strata", "--n", "6", "--counts", "--csv", str(tmp_path / "c.csv"),
                     "--poset", str(tmp_path / "poset.txt")]) == 0
    assert tree_builds[0] == 0


@pytest.mark.parametrize("name", ["tree", "order", "splits", "_tree", "other"])
def test_a_stratum_refuses_to_set_or_delete_any_attribute(name):
    s = divisorial_strata((1, 2, 3, 4))[0]
    with pytest.raises(FrozenInstanceError):
        setattr(s, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(s, name)
    assert s == Stratum(StableSTree((1, 2, 3, 4), (0b0110,)))
