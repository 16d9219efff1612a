"""Each validation error of the strata, graphs, operads, galois and qsm
constructors, raised on the malformed input it names, with its exact exception
type and message."""

from fractions import Fraction

import pytest

from dessins import galois, graphs, operads, qsm, strata
from dessins.galois import CyclotomicNumber, ExponentSumCharacter, GaloisGroup, zeta
from dessins.graphs import corolla, disjoint_union, validate
from dessins.strata import CurveCombinatorics, s_corolla, stratum


def raises_exactly(exc_type, match, call):
    with pytest.raises(exc_type, match=match) as info:
        call()
    assert info.type is exc_type


ABC = corolla("v", "abc")
CONNECTED = r"^tree must be connected$"
STABLE = r"^tree must be stable \(every vertex bounds >= 3 flags\)$"


def _graph(boundary, involution):
    return validate(boundary, set(boundary.values()), boundary, involution)


def _tail_labels(g):
    return {t: i for i, t in enumerate(g.tails)}


# Stable at every vertex, but not trees: a triangle, a self-loop and two
# parallel edges; then the empty graph and a forest of two stable trees.
TRIANGLE = _graph({"a": "u", "b": "u", "c": "v", "d": "v", "e": "w", "f": "w",
                   "s": "u", "t": "v", "r": "w"},
                  {"a": "d", "d": "a", "c": "f", "f": "c", "e": "b", "b": "e",
                   "s": "s", "t": "t", "r": "r"})
SELF_LOOP = _graph({"a": "v", "b": "v", "t": "v"}, {"a": "b", "b": "a", "t": "t"})
PARALLEL = _graph({"a": "u", "c": "u", "s": "u", "b": "v", "d": "v", "t": "v"},
                  {"a": "b", "b": "a", "c": "d", "d": "c", "s": "s", "t": "t"})
TWO_TREES = disjoint_union(ABC, graphs.validate(
    ["a", "b", "h", "k", "c", "d"], ["u", "w"],
    {"a": "u", "b": "u", "h": "u", "k": "w", "c": "w", "d": "w"},
    {"a": "a", "b": "b", "h": "k", "k": "h", "c": "c", "d": "d"}))


@pytest.mark.parametrize("exc_type,match,call", [
    (strata.StrataError, "connected",
     lambda: strata.s_tree(disjoint_union(ABC, corolla("w", "def")),
                           dict(zip("abcdef", range(6))))),
    (strata.StrataError, "stable",
     lambda: strata.s_tree(corolla("v", "ab"), {"a": 1, "b": 2})),
    (strata.StrataError, "exactly on the tails",
     lambda: strata.s_tree(ABC, {"a": 1, "b": 2})),
    (strata.StrataError, "exactly on the tails",
     lambda: strata.s_tree(ABC, {"a": 1, "b": 2, "d": 3})),
    (strata.StrataError, "pairwise distinct",
     lambda: strata.s_tree(ABC, {"a": 1, "b": 1, "c": 2})),
    (strata.TooSmall, ">= 2 labels", lambda: strata.two_part_tree({1}, {2, 3, 4})),
    (strata.LabelCollision, "overlap", lambda: strata.two_part_tree({1, 2}, {2, 3})),
    (strata.StrataError, "double point on unknown component",
     lambda: strata.curve_to_dessin(CurveCombinatorics(("A", "B"), (("A", "C"),),
                                                       {1: "A", 2: "A", 3: "B", 4: "B"}))),
    (strata.StrataError, "marked point 3 on unknown component",
     lambda: strata.curve_to_dessin(CurveCombinatorics(("A",), (), {1: "A", 2: "A", 3: "Z"}))),
    (strata.DuplicateComponent, r"^components 'A' and 'A' share the name 'A'$",
     lambda: strata.curve_to_dessin(CurveCombinatorics(("A", "A"), (),
                                                       {1: "A", 2: "A", 3: "A"}))),
    (strata.DuplicateComponent, r"^components 1 and '1' share the name '1'$",
     lambda: strata.curve_to_dessin(CurveCombinatorics((1, "1"), ((1, "1"),),
                                                       {1: 1, 2: 1, 3: "1", 4: "1"}))),
    (strata.StrataError, "label not present",
     lambda: strata.compose_strata(stratum(s_corolla([1, 2, 3])), 9,
                                   stratum(s_corolla([4, 5, 6])), 4)),
    (strata.LabelSetMismatch, "subset",
     lambda: strata.admissible_projection(stratum(s_corolla([1, 2, 3, 4])), [1, 2, 9])),
    (strata.StrataError, STABLE, lambda: strata.s_tree(TRIANGLE, _tail_labels(TRIANGLE))),
    (strata.StrataError, STABLE, lambda: strata.s_tree(SELF_LOOP, _tail_labels(SELF_LOOP))),
    (strata.StrataError, STABLE, lambda: strata.s_tree(PARALLEL, _tail_labels(PARALLEL))),
    (strata.StrataError, CONNECTED, lambda: strata.s_tree(graphs.empty_graph(), {})),
    (strata.StrataError, CONNECTED, lambda: strata.s_tree(TWO_TREES, _tail_labels(TWO_TREES))),
    # the connectivity check comes before stability, and stability before labels
    (strata.StrataError, CONNECTED,
     lambda: strata.s_tree(disjoint_union(SELF_LOOP, ABC), {})),
    (strata.StrataError, STABLE, lambda: strata.s_tree(SELF_LOOP, {})),
], ids=["disconnected", "unstable", "tails-unlabelled", "labels-off-tails", "labels-repeat",
        "one-label-part", "overlapping-parts", "double-point-off-curve",
        "marked-point-off-curve", "components-share-a-name",
        "components-print-alike", "absent-grafting-label", "projection-off-stratum",
        "cyclic", "self-loop", "parallel-edges", "empty", "two-stable-trees",
        "disconnected-before-unstable", "unstable-before-unlabelled"])
def test_strata_validation_errors(exc_type, match, call):
    raises_exactly(exc_type, match, call)


@pytest.mark.parametrize("exc_type,match,args", [
    (graphs.GraphError, "duplicate flag", (["a", "a"], ["v"], {"a": "v"}, {"a": "a"})),
    (graphs.GraphError, "duplicate vertex", (["a"], ["v", "v"], {"a": "v"}, {"a": "a"})),
    (graphs.DanglingFlagReference, "involution of 'a' is unknown flag",
     (["a"], ["v"], {"a": "v"}, {"a": "b"})),
    (graphs.DanglingFlagReference, "involution defined on unknown flag",
     (["a"], ["v"], {"a": "v"}, {"a": "a", "b": "a"})),
], ids=["duplicate-flags", "duplicate-vertices", "involution-to-unknown-flag",
        "involution-on-unknown-flag"])
def test_graph_validation_errors(exc_type, match, args):
    raises_exactly(exc_type, match, lambda: validate(*args))


ONE_SIDED = r"^tail labels must be given for both graphs or for neither$"
ABC_LABELS = {"a": 1, "b": 2, "c": 3}
ABC_IDENTITY = graphs.GraphIso({"v": "v"}, {f: f for f in "abc"})


@pytest.mark.parametrize("call", [
    lambda: graphs.find_isomorphism(ABC, ABC, ABC_LABELS, None),
    lambda: graphs.find_isomorphism(ABC, ABC, None, ABC_LABELS),
    lambda: graphs.find_isomorphism(ABC, corolla("v", "ab"), ABC_LABELS),
    lambda: graphs.is_valid_iso(ABC, ABC, ABC_IDENTITY, ABC_LABELS, None),
    lambda: graphs.is_valid_iso(ABC, ABC, ABC_IDENTITY, None, ABC_LABELS),
], ids=["find-first-only", "find-second-only", "find-before-size-check",
        "valid-first-only", "valid-second-only"])
def test_one_sided_tail_labels_are_refused(call):
    raises_exactly(graphs.GraphError, ONE_SIDED, call)


# two parts that share their tail names, so a wrong part index can still
# name a tail of some part
SHARED_TAILS = [corolla("v", ["s0", "t0", "x"]), corolla("w", ["s0", "t0", "y"])]


@pytest.mark.parametrize("plan,match", [
    ([(-1, "s0", 0, "t0")], r"^unknown tail in instruction \(-1, 's0', 0, 't0'\)$"),
    ([(0, "s0", 2, "t0")], r"^unknown tail in instruction \(0, 's0', 2, 't0'\)$"),
], ids=["negative-part", "part-past-the-end"])
def test_iterate_grafts_refuses_a_part_index_outside_the_parts(plan, match):
    raises_exactly(operads.NotATail, match, lambda: operads.iterate_grafts(SHARED_TAILS, plan))


def _payload(**changes):
    obj = strata.stratum_to_json(stratum(strata.two_part_tree([1, 2], [3, 4, 5])))
    return {**obj, **changes}


@pytest.mark.parametrize("match,obj", [
    (r"^codim 0 disagrees with the tree's codim 1$", _payload(codim=0)),
    (r"^codim 2 disagrees with the tree's codim 1$", _payload(codim=2)),
    (r"^labels \['9'\] disagree with the tree's tail labels \[1, 2, 3, 4, 5\]$",
     _payload(labels=["9"])),
    (r"^labels \[1, 2, 3, 4\] disagree with the tree's tail labels \[1, 2, 3, 4, 5\]$",
     _payload(labels=[1, 2, 3, 4])),
    (r"^labels \['1', '2', '3', '4', '5'\] disagree with the tree's tail labels "
     r"\[1, 2, 3, 4, 5\]$", _payload(labels=["1", "2", "3", "4", "5"])),
    # labels are checked before codim
    (r"^labels \['9'\] disagree", _payload(codim=0, labels=["9"])),
], ids=["codim-low", "codim-high", "labels-foreign", "labels-short", "labels-as-text",
        "labels-first"])
def test_stratum_from_json_checks_labels_and_codim(match, obj):
    raises_exactly(strata.StrataError, match, lambda: strata.stratum_from_json(obj))


@pytest.mark.parametrize("match,obj", [
    (r"^stratum JSON key 'labels' must be a list, not str$", _payload(labels="12345")),
    (r"^stratum JSON key 'labels' must be a list, not tuple$", _payload(labels=(1, 2, 3, 4, 5))),
    (r"^stratum JSON key 'labels' must be a list, not dict$",
     _payload(labels=dict.fromkeys([1, 2, 3, 4, 5]))),
    (r"^stratum JSON key 'codim' must be an integer, not bool$", _payload(codim=True)),
    (r"^stratum JSON key 'codim' must be an integer, not float$", _payload(codim=1.0)),
    (r"^stratum JSON key 'codim' must be an integer, not str$", _payload(codim="1")),
    # labels are checked before codim
    (r"^stratum JSON key 'labels' must be a list", _payload(labels="12345", codim=True)),
], ids=["labels-string", "labels-tuple", "labels-dict", "codim-bool", "codim-float",
        "codim-string", "labels-type-first"])
def test_stratum_from_json_checks_the_types_of_labels_and_codim(match, obj):
    raises_exactly(strata.StrataError, match, lambda: strata.stratum_from_json(obj))


def test_stratum_from_json_takes_labels_in_any_order():
    s = stratum(strata.two_part_tree([1, 2], [3, 4, 5]))
    assert strata.stratum_from_json(_payload(labels=[5, 3, 1, 4, 2])) == s


@pytest.mark.parametrize("exc_type,match,call", [
    (ValueError, "contain 1", lambda: GaloisGroup(12, (5, 7, 11))),
    (galois.NotCoprime, "2 is not invertible", lambda: GaloisGroup(12, (1, 2))),
    (ValueError, "not closed", lambda: GaloisGroup(12, (1, 5, 7))),
    (galois.NotCoprime, "2 is not invertible", lambda: GaloisGroup.generated(12, [5, 2])),
    (galois.CyclotomicError, "mixed conductors", lambda: zeta(12) + zeta(5)),
    (galois.CyclotomicError, "mixed conductors", lambda: zeta(12) * zeta(5)),
    (galois.CyclotomicError, "expected 4 coefficients",
     lambda: CyclotomicNumber.from_coeffs(12, (1, 2, 3))),
    (ValueError, "positive integer", lambda: ExponentSumCharacter(12, 0)),
    (galois.UnknownGroupElement, r"^5\.0 is not an integer residue modulo 12$",
     lambda: GaloisGroup(12, (1, 5)).element(5.0)),
    (galois.UnknownGroupElement, r"^Fraction\(5, 1\) is not an integer residue modulo 12$",
     lambda: GaloisGroup(12, (1, 5)).element(Fraction(5))),
    (galois.UnknownGroupElement, r"^5\.0 is not an integer residue modulo 12$",
     lambda: galois.galois_act_value(5.0, zeta(12))),
    (galois.UnknownGroupElement, r"^Fraction\(5, 1\) is not an integer residue modulo 12$",
     lambda: galois.galois_act_value(Fraction(5), zeta(12))),
], ids=["group-without-one", "group-with-non-unit", "group-not-closed",
        "non-unit-generator", "mixed-conductors-add", "mixed-conductors-mul",
        "wrong-coefficient-count", "zero-denominator", "float-group-element",
        "fraction-group-element", "float-action-exponent", "fraction-action-exponent"])
def test_galois_validation_errors(exc_type, match, call):
    raises_exactly(exc_type, match, call)


@pytest.mark.parametrize("exc_type,match,field", [
    (qsm.QsmError, r"^m must be an integer >= 1$", "m"),
    (qsm.QsmError, r"^D must be an integer >= 1$", "D"),
    (qsm.WindowTooSmall, r"^max_length must be an integer >= 1$", "max_length"),
])
@pytest.mark.parametrize("value", [True, False])
def test_qsm_system_refuses_bool_fields(exc_type, match, field, value):
    raises_exactly(exc_type, match, lambda: qsm.QsmSystem(**{field: value}))


@pytest.mark.parametrize("match,args", [
    (r"^boundary keys 1 and '1' share the name '1'$",
     (["1"], ["v", "w"], {1: "v", "1": "w"}, {"1": "1"})),
    (r"^involution keys '1' and 1 share the name '1'$",
     (["1"], ["v"], {"1": "v"}, {"1": "1", 1: "1"})),
    # keys that print alike are refused before any dangling reference
    (r"^boundary keys 1 and '1' share the name '1'$",
     (["1"], ["v"], {1: "v", "1": "v", "x": "v"}, {"1": "1"})),
], ids=["boundary-keys", "involution-keys", "before-dangling"])
def test_validate_refuses_map_keys_that_print_alike(match, args):
    raises_exactly(graphs.GraphError, match, lambda: validate(*args))


@pytest.mark.parametrize("match,obj", [
    (r"^graph JSON is missing the key 'vertices'$", {"flags": []}),
    (r"^graph JSON is missing the key 'flags'$", {}),
    (r"^graph JSON is missing the key 'involution'$",
     {"flags": [], "vertices": [], "boundary": {}}),
], ids=["no-vertices", "no-flags", "no-involution"])
def test_graph_from_json_names_a_missing_key(match, obj):
    raises_exactly(graphs.GraphError, match, lambda: graphs.graph_from_json(obj))


@pytest.mark.parametrize("key", ["tree", "tail_labels", "labels", "codim"])
def test_stratum_from_json_names_a_missing_key(key):
    obj = {k: v for k, v in _payload().items() if k != key}
    raises_exactly(strata.StrataError, rf"^stratum JSON is missing the key '{key}'$",
                   lambda: strata.stratum_from_json(obj))


NO_TAIL_C = r"^no tail label for tail 'c'$"


@pytest.mark.parametrize("call", [
    lambda: graphs.find_isomorphism(ABC, ABC, {"a": 1, "b": 2}, ABC_LABELS),
    lambda: graphs.find_isomorphism(ABC, ABC, ABC_LABELS, {"a": 1, "b": 2}),
    lambda: graphs.is_valid_iso(ABC, ABC, ABC_IDENTITY, {"a": 1, "b": 2}, ABC_LABELS),
    lambda: graphs.is_valid_iso(ABC, ABC, ABC_IDENTITY, ABC_LABELS, {"a": 1, "b": 2}),
], ids=["find-first", "find-second", "valid-first", "valid-second"])
def test_a_label_map_that_misses_a_tail_is_refused(call):
    raises_exactly(graphs.GraphError, NO_TAIL_C, call)
