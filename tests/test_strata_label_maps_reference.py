"""Differential test: projections and flag views of strata against the code
that built a fresh bit table for every projection and a fresh flag graph for
every view.

The reference below restricts each split through a bit table built on each
call, and builds each tree's flag graph, tail labels and edge splits from its
split system with names made on each call.  Results are compared by value
and by the types of their labels, since labels that compare equal (1, 1.0
and True) must not stand in for one another; failures are compared by
exception type and message.  The CLI outputs are compared with digests of
the outputs of the fresh-build code.
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from dessins import strata
from dessins.cli import main
from dessins.graphs import CombinatorialGraph, validate
from dessins.strata import (
    LabelSetMismatch,
    Stratum,
    StableSTree,
    TargetTooSmall,
    admissible_projection,
    enumerate_strata,
    s_corolla,
    two_part_tree,
)


def flat(labels):
    return [s for group in enumerate_strata(labels).values() for s in group]


def labels(n):
    return [str(i) for i in range(1, n + 1)]


# --- reference: a fresh bit table per projection, a fresh graph per view --------

def ref_remap(mask, bits):
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low.bit_length() - 1]
        mask ^= low
    return out


def ref_project(s, target_labels):
    t = s.tree
    target = set(target_labels)
    if len(target) < 3:
        raise TargetTooSmall("target label set needs at least 3 labels")
    if not target.issubset(t.order):
        raise LabelSetMismatch("target labels must be a subset of the stratum labels")
    order = tuple(lab for lab in t.order if lab in target)
    new = {lab: 1 << i for i, lab in enumerate(order)}
    bits = [new.get(lab, 0) for lab in t.order]
    full = (1 << len(order)) - 1
    kept = set()
    for m in t.splits:
        m = ref_remap(m, bits)
        if m & 1:
            m ^= full
        if 2 <= m.bit_count() <= len(order) - 2:
            kept.add(m)
    return Stratum(StableSTree(order, tuple(sorted(kept))))


def ref_tree(n, masks):
    by_size = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())

    def above(x):
        for i in by_size:
            if masks[i] != x and masks[i] & x == x:
                return i + 1
        return 0

    return [above(m) for m in masks], [0] + [above(1 << i) for i in range(1, n)]


def ref_flags_from_splits(order, splits):
    tails = tuple(f"t{i}" for i in range(len(order)))
    vertices = tuple(f"v{i}" for i in range(len(splits) + 1))
    ends = tuple((f"e{i}.a", f"e{i}.b") for i in range(len(splits)))
    keys = tuple(frozenset(ab) for ab in ends)
    flags = tuple(sorted(tails + tuple(f for ab in ends for f in ab)))
    up, at = ref_tree(len(order), splits)
    boundary = {f: vertices[v] for f, v in zip(tails, at)}
    involution = {f: f for f in tails}
    for i, (v, (a, b)) in enumerate(zip(up, ends)):
        boundary[a], boundary[b] = vertices[v], vertices[i + 1]
        involution[a], involution[b] = b, a
    g = CombinatorialGraph(flags, tuple(sorted(vertices)), boundary, involution,
                           frozenset(keys), tuple(sorted(tails)))
    return g, dict(zip(tails, order)), dict(zip(keys, splits))


def same_projection(got, want):
    return (got == want and got.tree.order == want.tree.order
            and list(map(type, got.tree.order)) == list(map(type, want.tree.order)))


# --- projections ------------------------------------------------------------------

def test_projection_matches_fresh_tables_on_every_target_at_six_labels():
    base = labels(6)
    cases = 0
    for s in flat(base):
        for k in range(3, 7):
            for target in itertools.combinations(base, k):
                assert same_projection(admissible_projection(s, target), ref_project(s, target))
                cases += 1
    assert cases == 236 * (20 + 15 + 6 + 1)


def test_projection_chains_six_five_four_match_fresh_tables():
    base = labels(6)
    cases = 0
    for s in flat(base):
        for mid in itertools.combinations(base, 5):
            for small in itertools.combinations(mid, 4):
                via = admissible_projection(admissible_projection(s, mid), small)
                direct = admissible_projection(s, small)
                want = ref_project(s, small)
                assert same_projection(via, want) and same_projection(direct, want)
                assert same_projection(admissible_projection(s, mid), ref_project(s, mid))
                cases += 1
    assert cases == 7080


def test_projection_matches_fresh_tables_over_thousands_of_label_orders():
    # 924 label orders of six labels out of twelve, each projected onto three
    # targets: 2,772 distinct (order, target) pairs, twice over, so that a
    # bounded table of projections is filled, evicted and refilled
    pairs = []
    for picked in itertools.combinations(range(12), 6):
        s = two_part_tree(picked[:3], picked[3:])
        pairs += [(s, picked[1:]), (s, picked[:4]), (s, picked[::2])]
    assert len({(s.tree.order, frozenset(target)) for s, target in pairs}) == 2772
    assert 2772 > strata._projector.cache_info().maxsize
    for _ in range(2):
        for s, target in pairs:
            assert same_projection(admissible_projection(s, target), ref_project(s, target))


@pytest.mark.parametrize("first, second, target", [
    ((1.0, 2, 3, 4, 5), (1, 2, 3, 4, 5), {1, 2, 3, 4}),
    ((1, 2, 3, 4, 5), (1.0, 2, 3, 4, 5), {1, 2, 3, 4}),
    ((True, 2, 3, 4, 5), (1, 2, 3, 4, 5), {1, 2, 3, 4}),
    ((1, 2, 3, 4, 5), (True, 2, 3, 4, 5), {1, 2, 3, 4}),
    ((0.0, 1.0, 2, 3, 4), (False, True, 2, 3, 4), {0, 1, 2, 3}),
], ids=["float-then-int", "int-then-float", "bool-then-int", "int-then-bool",
        "floats-then-bools"])
def test_equal_labels_of_other_types_keep_their_own_type(first, second, target):
    for order in (first, second, first):
        for s in (s_corolla(order), two_part_tree(order[:2], order[2:])):
            got = admissible_projection(s, target)
            assert same_projection(got, ref_project(s, target))
            assert [type(lab) for lab in got.tree.order] == \
                [type(lab) for lab in order if lab in target]
            assert type(got.tree.tail_labels[got.tree.graph.tails[0]]) is type(got.tree.order[0])


@pytest.mark.parametrize("target", [
    [1, 2], [1, 2, 2], [1, 9], [1, 2, 9], [1, 2, 3, 4, 5, 6], ["1", "2", "3"], [[1], 2, 3],
], ids=["two", "two-repeated", "two-outside", "three-outside", "superset", "strings",
        "unhashable"])
def test_refused_targets_raise_alike_on_every_call(target):
    s = two_part_tree([1, 2], [3, 4, 5])
    with pytest.raises(Exception) as want:
        ref_project(s, target)
    assert want.type in (TargetTooSmall, LabelSetMismatch, TypeError)
    for _ in range(2):
        with pytest.raises(Exception) as got:
            admissible_projection(s, target)
        assert (got.type, str(got.value)) == (want.type, str(want.value))


# --- flag views -----------------------------------------------------------------

def assert_fresh_view(t):
    g, tail_labels, edge_split = ref_flags_from_splits(t.order, t.splits)
    assert t.graph == g and t.graph.edges == g.edges and t.graph.tails == g.tails
    assert t.tail_labels == tail_labels
    assert [type(lab) for lab in t.tail_labels.values()] == [type(lab) for lab in t.order]
    assert t._view()[2] == edge_split
    assert validate(t.graph.flags, t.graph.vertices, t.graph.boundary,
                    t.graph.involution) == t.graph


def test_flag_views_match_fresh_builds_for_every_stratum_and_projection():
    views = 0
    for n in range(3, 7):
        base = labels(n)
        for s in flat(base):
            assert_fresh_view(s.tree)
            views += 1
            for k in range(3, n):
                for target in itertools.combinations(base, k):
                    assert_fresh_view(admissible_projection(s, target).tree)
                    views += 1
    assert views == 1 + 4 * 5 + 26 * 16 + 236 * 42


def test_flag_views_of_equal_split_systems_over_other_labels_match_fresh_builds():
    trees = [StableSTree(order, (0b0110,)) for order in
             ((1, 2, 3, 4, 5), ("a", "b", "c", "d", "e"), (1.0, 2, 3, 4, 5),
              (True, 2, 3, 4, 5), (1, 2, 3, 4, 5))]
    for t in trees + trees:
        assert_fresh_view(t)


def test_equal_split_systems_share_one_graph_and_keep_their_own_labels():
    first, second = (StableSTree(order, (0b0110, 0b11000)) for order in
                     ((1, 2, 3, 4, 5), ("a", "b", "c", "d", "e")))
    assert first.graph is second.graph
    assert first.tail_labels is not second.tail_labels
    assert list(first.tail_labels.values()) == [1, 2, 3, 4, 5]
    assert list(second.tail_labels.values()) == ["a", "b", "c", "d", "e"]
    first.tail_labels["t0"] = 9         # a caller's edit stays on its own tree
    assert second.tail_labels["t0"] == "a"
    assert StableSTree((1.0, 2, 3, 4, 5), first.splits).tail_labels["t0"] == 1.0


# --- CLI outputs ------------------------------------------------------------------

def cli_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("flag, digest", [
    ("--json", "37a77609e282176b00d5b24600fc2fa837825cf5d689c2ad69cb9fae746ff464"),
    ("--csv", "906c910b614b2a14229dbeec453bf22b075cf86bb8b699402d2d5effb943abc3"),
    ("--poset", "0168703ca8bf3b30035c3ae0efa5d8918ba294dfeceaf844faa9b53f1a07de73"),
])
def test_strata_outputs_at_seven_labels_are_unchanged(flag, digest):
    text = cli_output("strata", "--n", "7", flag, "-")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("flag, files, digest", [
    ("--dot", 236, "85d73094a4e5775e34f60022703bbb4c5c8a6c19f99fc5d4d9d94196091b56aa"),
    ("--clean", 90, "b07fbd4117b79a285969b09fedd47cdcde9a67378073d703b4dc943ac17b661e"),
])
def test_strata_dot_files_at_six_labels_are_unchanged(tmp_path, flag, files, digest):
    cli_output("strata", "--n", "6", flag, str(tmp_path))
    written = sorted(tmp_path.iterdir())
    h = hashlib.sha256()
    for p in written:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    assert (len(written), h.hexdigest()) == (files, digest)
