"""DOT graph names and the pairing of tail labels that compare equal.

A graph name is written as it is when it is a plain DOT ID and not a
keyword, and double-quoted and escaped otherwise, in every DOT writer.
`find_isomorphism` pairs tail labels by equality, as `is_valid_iso` checks
them, not by their printed text and type.
"""

import pytest

from dessins import graphs, strata
from dessins.graphs import GraphIso, corolla, find_isomorphism, is_valid_iso, to_dot

ABC = corolla("v", "abc")
CORNER = strata.maximal_codim_strata(["1", "2", "3"])[0][0]


def _dots(name):
    """The first line of each DOT writer's text for this graph name."""
    return {to_dot(ABC, name=name).split("\n")[0],
            strata.stratum_to_dot(CORNER, name=name).split("\n")[0],
            strata.clean_dessin_to_dot(strata.clean_dessin(CORNER), name).split("\n")[0]}


@pytest.mark.parametrize("name, head", [
    ("my graph", 'graph "my graph" {'),
    ('a"b', 'graph "a\\"b" {'),
    ("graph", 'graph "graph" {'),
    ("Node", 'graph "Node" {'),
    ("back\\slash", 'graph "back\\\\slash" {'),
    ("7up", 'graph "7up" {'),
    ("", 'graph "" {'),
])
def test_names_that_are_not_plain_ids_are_quoted(name, head):
    assert _dots(name) == {head}


@pytest.mark.parametrize("name", ["g", "s1", "stratum", "clean_0000", "_x", "12", "-1.5"])
def test_plain_names_are_written_as_they_are(name):
    assert _dots(name) == {f"graph {name} {{"}


def test_default_names_are_unchanged():
    assert to_dot(ABC).startswith("graph g {\n")
    assert strata.stratum_to_dot(CORNER).startswith("graph stratum {\n")


IDENTITY = GraphIso({"v": "v"}, {f: f for f in "abc"})


def test_equal_labels_of_different_types_pair():
    labels1 = {"a": 1, "b": 2, "c": 3}
    labels2 = {"a": 1.0, "b": 2, "c": 3}
    assert is_valid_iso(ABC, ABC, IDENTITY, labels1, labels2)
    assert find_isomorphism(ABC, ABC, labels1, labels2) == IDENTITY
    assert find_isomorphism(ABC, ABC, labels2, labels1) == IDENTITY
    swapped = {"a": 2.0, "b": True, "c": 3}
    witness = find_isomorphism(ABC, ABC, labels1, swapped)
    assert witness == GraphIso({"v": "v"}, {"a": "b", "b": "a", "c": "c"})
    assert is_valid_iso(ABC, ABC, witness, labels1, swapped)


def test_equal_labels_pair_across_vertices_of_a_larger_graph():
    g = graphs.validate(["a", "b", "h", "k", "c", "d"], ["u", "w"],
                        {"a": "u", "b": "u", "h": "u", "k": "w", "c": "w", "d": "w"},
                        {"a": "a", "b": "b", "h": "k", "k": "h", "c": "c", "d": "d"})
    labels1 = {"a": 1, "b": 2, "c": 3, "d": 4}
    labels2 = {"a": 3.0, "b": 4, "c": 1.0, "d": 2}
    witness = find_isomorphism(g, g, labels1, labels2)
    assert witness is not None and witness.vertex_map == {"u": "w", "w": "u"}
    assert is_valid_iso(g, g, witness, labels1, labels2)


def test_labels_that_only_print_alike_stay_apart():
    assert find_isomorphism(ABC, ABC, {"a": 1, "b": 2, "c": 3},
                            {"a": "1", "b": 2, "c": 3}) is None


def test_equal_labels_at_one_vertex_have_no_witness():
    labels = {"a": 1, "b": 1.0, "c": 2}
    assert find_isomorphism(ABC, ABC, labels, labels) is None
    assert find_isomorphism(ABC, ABC, labels, {"a": 1.0, "b": 1, "c": 2}) is None


@pytest.mark.parametrize("second", [None, float("nan")])
def test_nan_labels_are_refused(second):
    nan = float("nan")
    labels1 = {"a": nan, "b": 1, "c": 2}
    labels2 = labels1 if second is None else {"a": second, "b": 1, "c": 2}
    assert not is_valid_iso(ABC, ABC, IDENTITY, labels1, labels2)
    assert find_isomorphism(ABC, ABC, labels1, labels2) is None
