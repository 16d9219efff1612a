"""Property tests of strata on random strata with integer, string, float or
bool-and-integer labels.  Equal labels of other types (1, 1.0, True) come up
in different examples, so a result that takes another example's labels shows
up as a label of the wrong type.

A random stratum starts at the corolla over a random label set and adds a
random number of compatible splits, one `open_stratum_boundary` step at a
time, so every stratum over up to eight labels can be drawn.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.strata import (
    admissible_projection,
    contract_edge,
    is_substratum,
    open_stratum_boundary,
    s_corolla,
    s_tree,
    stratum_from_json,
    stratum_to_json,
)

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@st.composite
def label_sets(draw, min_size=3):
    kind = draw(st.sampled_from([int, str, float, "bool"]))
    picked = draw(st.lists(st.integers(0, 11), min_size=min_size, max_size=8, unique=True))
    if kind == "bool":                  # False and True stand for 0 and 1
        return [{0: False, 1: True}.get(i, i) for i in picked]
    return [kind(i) for i in picked]


def random_stratum(draw, labels):
    s = s_corolla(labels)
    for _ in range(draw(st.integers(0, len(labels) - 3))):
        s = draw(st.sampled_from(open_stratum_boundary(s)))
    return s


def split_of(t, e):
    """The labels on the side of edge e without the least label, read off
    the flag graph by a search that does not cross e."""
    g = t.graph
    nbrs = {v: set() for v in g.vertices}
    for other in g.edges - {e}:
        u, w = (g.boundary[f] for f in other)
        nbrs[u].add(w)
        nbrs[w].add(u)
    seen, stack = set(), [g.boundary[min(e)]]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(nbrs[v])
    side = frozenset(t.tail_labels[f] for f in g.tails if g.boundary[f] in seen)
    return t.labels - side if t.order[0] in side else side


@st.composite
def strata(draw, min_labels=3):
    return random_stratum(draw, draw(label_sets(min_labels)))


@given(st.data())
@SETTINGS
def test_projection_is_functorial_on_nested_targets(data):
    s = data.draw(strata())
    order = data.draw(st.permutations(sorted(s.tree.order, key=str)))
    k1 = data.draw(st.integers(3, len(order)))
    k2 = data.draw(st.integers(3, k1))
    via = admissible_projection(admissible_projection(s, order[:k1]), order[:k2])
    direct = admissible_projection(s, order[:k2])
    assert via == direct
    types = [type(x) for x in s.tree.order if x in order[:k2]]
    assert [type(x) for x in via.tree.order] == [type(x) for x in direct.tree.order] == types
    assert admissible_projection(s, order) == s


@given(strata())
@SETTINGS
def test_json_round_trip_keeps_labels_and_their_types(s):
    back = stratum_from_json(json.loads(json.dumps(stratum_to_json(s))))
    assert back == s and back.codim == s.codim
    assert [type(x) for x in back.tree.order] == [type(x) for x in s.tree.order]


@given(st.data())
@SETTINGS
def test_contract_edge_drops_exactly_that_edges_split(data):
    s = data.draw(strata(min_labels=4).filter(lambda s: s.codim > 0))
    t = s.tree
    e = data.draw(st.sampled_from(sorted(t.graph.edges, key=sorted)))
    cut = contract_edge(t, e)
    assert cut.order == t.order
    assert cut.label_splits() == t.label_splits() - {split_of(t, e)}
    assert cut.canonical_key() == s_tree(cut.graph, cut.tail_labels).canonical_key()


@given(st.data())
@SETTINGS
def test_is_substratum_is_split_inclusion(data):
    labels = data.draw(label_sets())
    inner = random_stratum(data.draw, labels)
    if data.draw(st.booleans()):
        outer = inner                   # a contraction of inner: always below
        for _ in range(data.draw(st.integers(0, inner.codim))):
            e = data.draw(st.sampled_from(sorted(outer.tree.graph.edges, key=sorted)))
            outer = contract_edge(outer.tree, e)
    else:
        outer = random_stratum(data.draw, labels)
    witness = is_substratum(inner, outer)
    assert witness.holds == (outer.tree.label_splits() <= inner.tree.label_splits())
    if witness.holds:
        assert len(witness.edges) == inner.codim - outer.codim
