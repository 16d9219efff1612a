"""Each validation error of the strata, graphs, operads, galois and qsm
constructors, raised on the malformed input it names, with its exact exception
type and message."""

from fractions import Fraction

import pytest

from dessins import galois, graphs, operads, qsm, strata
from dessins.galois import CyclotomicNumber, ExponentSumCharacter, GaloisGroup, zeta
from dessins.graphs import corolla, disjoint_union, validate
from dessins.strata import CurveCombinatorics, s_corolla


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
    (strata.StrataError, r"^tail label \[1\] is unhashable$",
     lambda: strata.s_tree(ABC, {"a": [1], "b": 2, "c": 3})),
    (strata.StrataError, r"^tail label \(\[2\],\) is unhashable$",
     lambda: strata.s_tree(ABC, {"a": 1, "b": ([2],), "c": 3})),
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
     lambda: strata.compose_strata(s_corolla([1, 2, 3]), 9,
                                   s_corolla([4, 5, 6]), 4)),
    (strata.StrataError, "label not present",
     lambda: strata.compose_strata(s_corolla([1, 2, 3]), 9,
                                   s_corolla([3, 4, 5]), 4)),
    (strata.LabelSetMismatch, "subset",
     lambda: strata.admissible_projection(s_corolla([1, 2, 3, 4]), [1, 2, 9])),
    (strata.StrataError, STABLE, lambda: strata.s_tree(TRIANGLE, _tail_labels(TRIANGLE))),
    (strata.StrataError, STABLE, lambda: strata.s_tree(SELF_LOOP, _tail_labels(SELF_LOOP))),
    (strata.StrataError, STABLE, lambda: strata.s_tree(PARALLEL, _tail_labels(PARALLEL))),
    (strata.StrataError, CONNECTED, lambda: strata.s_tree(graphs.empty_graph(), {})),
    (strata.StrataError, CONNECTED, lambda: strata.s_tree(TWO_TREES, _tail_labels(TWO_TREES))),
    # the connectivity check comes before stability, and stability before labels
    (strata.StrataError, CONNECTED,
     lambda: strata.s_tree(disjoint_union(SELF_LOOP, ABC), {})),
    (strata.StrataError, STABLE, lambda: strata.s_tree(SELF_LOOP, {})),
    (strata.StrataError, r"^\(1, 2, 3\) is not a stratum$", lambda: strata.Stratum((1, 2, 3))),
    (strata.StrataError, r"^'abc' is not a stratum$", lambda: strata.Stratum("abc")),
], ids=["disconnected", "unstable", "tails-unlabelled", "labels-off-tails", "labels-repeat",
        "label-unhashable", "label-holds-unhashable", "one-label-part", "overlapping-parts", "double-point-off-curve",
        "marked-point-off-curve", "components-share-a-name",
        "components-print-alike", "absent-grafting-label",
        "absent-grafting-label-before-collision", "projection-off-stratum",
        "cyclic", "self-loop", "parallel-edges", "empty", "two-stable-trees",
        "disconnected-before-unstable", "unstable-before-unlabelled",
        "stratum-of-a-tuple", "stratum-of-a-string-tree"])
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
    obj = strata.stratum_to_json(strata.two_part_tree([1, 2], [3, 4, 5]))
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


def _tree_payload(**changes):
    return _payload(tree={**_payload()["tree"], **changes})


@pytest.mark.parametrize("exc_type,match,obj", [
    (strata.StrataError, r"^stratum JSON must be a dict, not list$", [_payload()]),
    (strata.StrataError, r"^stratum JSON key 'tail_labels' must be a dict, not list$",
     _payload(tail_labels=list(_payload()["tail_labels"].items()))),
    (strata.StrataError, r"^stratum JSON key 'tail_labels' must hold hashable labels "
     r"\(unhashable type: 'list'\)$",
     _payload(tail_labels={**_payload()["tail_labels"], "t0": [1]})),
    (strata.StrataError, r"^labels \[\{'a': 1\}, \{'b': 2\}, 3, 4, 5\] disagree with the "
     r"tree's tail labels \[1, 2, 3, 4, 5\]$", _payload(labels=[{"a": 1}, {"b": 2}, 3, 4, 5])),
    (graphs.GraphError, r"^graph JSON key 'flags' must be a list, not int$",
     _tree_payload(flags=3)),
    (graphs.GraphError, r"^graph JSON key 'boundary' must be a dict, not list$",
     _tree_payload(boundary=[])),
    (graphs.GraphError, r"^graph JSON text does not parse: Expecting value: line 1 column 1 "
     r"\(char 0\)$", _payload(tree="not JSON")),
    # the types of the stratum's own keys are checked before the tree is read
    (strata.StrataError, r"^stratum JSON key 'tail_labels' must be a dict, not list$",
     _payload(tail_labels=[], tree="not JSON")),
    (strata.StrataError, r"^stratum JSON key 'codim' must be an integer, not str$",
     _payload(codim="1", tree="not JSON")),
], ids=["object-list", "tail-labels-list", "label-unhashable", "labels-unorderable",
        "tree-flags-int", "tree-boundary-list", "tree-not-json", "tail-labels-before-tree",
        "codim-before-tree"])
def test_malformed_stratum_json_raises_a_named_error(exc_type, match, obj):
    raises_exactly(exc_type, match, lambda: strata.stratum_from_json(obj))


def test_stratum_from_json_takes_labels_in_any_order():
    s = strata.two_part_tree([1, 2], [3, 4, 5])
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
    (ValueError, r"^denominator must be an integer >= 1, got 0$",
     lambda: ExponentSumCharacter(12, 0)),
    (galois.UnknownGroupElement, r"^5\.0 is not an integer residue modulo 12$",
     lambda: GaloisGroup(12, (1, 5)).element(5.0)),
    (galois.UnknownGroupElement, r"^Fraction\(5, 1\) is not an integer residue modulo 12$",
     lambda: GaloisGroup(12, (1, 5)).element(Fraction(5))),
    (galois.UnknownGroupElement, r"^5\.0 is not an integer residue modulo 12$",
     lambda: galois.galois_act_value(5.0, zeta(12))),
    (galois.UnknownGroupElement, r"^Fraction\(5, 1\) is not an integer residue modulo 12$",
     lambda: galois.galois_act_value(Fraction(5), zeta(12))),
    (galois.UnknownGroupElement,
     r"^GroupElement\(group=GaloisGroup\(m=8, elements=\(1, 3, 5, 7\)\), a=5\) is not an "
     r"element of GaloisGroup\(m=12, elements=\(1, 5, 7, 11\)\)$",
     lambda: GaloisGroup.full(12).element(5) * GaloisGroup.full(8).element(5)),
    (galois.UnknownGroupElement, r"^GroupElement\(group=GaloisGroup\(m=12, elements=\(1, 5\)\), "
     r"a=5\) is not an element of GaloisGroup\(m=12, elements=\(1, 5, 7, 11\)\)$",
     lambda: GaloisGroup.full(12).element(5) * GaloisGroup(12, (1, 5)).element(5)),
    (galois.UnknownGroupElement, r"^5 is not an element of ",
     lambda: GaloisGroup.full(12).element(5) * 5),
    (galois.UnknownGroupElement, r"^2 is not in the configured group modulo 12$",
     lambda: galois.GroupElement(GaloisGroup.full(12), 2)),
    (galois.UnknownGroupElement, r"^14 is not in the configured group modulo 12$",
     lambda: galois.GroupElement(GaloisGroup.full(12), 14)),
    (galois.UnknownGroupElement, r"^5\.0 is not an integer residue modulo 12$",
     lambda: galois.GroupElement(GaloisGroup.full(12), 5.0)),
    (galois.CyclotomicError, r"^expected 4 coordinates for conductor 12, got 3$",
     lambda: CyclotomicNumber(12, (1, 0, 0))),
    (galois.CyclotomicError, r"^expected 4 coordinates for conductor 12, got 5$",
     lambda: CyclotomicNumber(12, (1, 0, 0, 0, 0))),
    (galois.CyclotomicError, r"^coordinates and denominator must be integers$",
     lambda: CyclotomicNumber(12, (1.0, 0, 0, 0))),
    (galois.CyclotomicError, r"^coordinates and denominator must be integers$",
     lambda: CyclotomicNumber(12, (Fraction(1, 2), 0, 0, 0))),
    (galois.CyclotomicError, r"^coordinates and denominator must be integers$",
     lambda: CyclotomicNumber(12, (True, 0, 0, 0))),
    (galois.CyclotomicError, r"^coordinates and denominator must be integers$",
     lambda: CyclotomicNumber(12, (1, 0, 0, 0), 2.0)),
    (galois.DivisionByZero, r"^zero denominator$", lambda: CyclotomicNumber(12, (1, 0, 0, 0), 0)),
    (ValueError, r"^conductor must be an integer >= 1, got 0$",
     lambda: CyclotomicNumber(0, ())),
    (ValueError, r"^conductor must be an integer >= 1, got True$", lambda: GaloisGroup.full(True)),
    (ValueError, r"^conductor must be an integer >= 1, got 2\.0$", lambda: GaloisGroup.full(2.0)),
    (ValueError, r"^conductor must be an integer >= 1, got True$",
     lambda: GaloisGroup(True, (0,))),
    (ValueError, r"^conductor must be an integer >= 1, got 2\.0$",
     lambda: GaloisGroup.trivial(2.0)),
    (ValueError, r"^conductor must be an integer >= 1, got 5\.0$",
     lambda: GaloisGroup.generated(5.0, [1])),
    (ValueError, r"^conductor must be an integer >= 1, got True$",
     lambda: galois.cyclotomic_polynomial(True)),
    (ValueError, r"^conductor must be an integer >= 1, got 2\.0$",
     lambda: galois.cyclotomic_polynomial(2.0)),
], ids=["group-without-one", "group-with-non-unit", "group-not-closed",
        "non-unit-generator", "mixed-conductors-add", "mixed-conductors-mul",
        "wrong-coefficient-count", "zero-denominator", "float-group-element",
        "fraction-group-element", "float-action-exponent", "fraction-action-exponent",
        "product-across-conductors", "product-across-subgroups", "product-with-an-int",
        "element-outside-group", "element-unreduced", "element-float",
        "too-few-coordinates", "too-many-coordinates", "float-coordinate",
        "fraction-coordinate", "bool-coordinate", "float-value-denominator",
        "zero-value-denominator", "zero-value-conductor", "full-group-bool-conductor",
        "full-group-float-conductor", "group-bool-conductor", "trivial-group-float-conductor",
        "generated-group-float-conductor", "cyclotomic-polynomial-bool",
        "cyclotomic-polynomial-float"])
def test_galois_validation_errors(exc_type, match, call):
    raises_exactly(exc_type, match, call)


@pytest.mark.parametrize("exc_type,match,field", [
    (qsm.QsmError, r"^m must be an integer >= 1$", "m"),
    (qsm.QsmError, r"^D must be an integer >= 1$", "D"),
    (qsm.WindowTooSmall, r"^max_length must be an integer >= 1$", "max_length"),
])
@pytest.mark.parametrize("value", [True, False])
def test_qsm_system_refuses_bool_fields(exc_type, match, field, value):
    # the whole message: the pinned text, then the value it names
    raises_exactly(exc_type, match.rstrip("$") + f", got {value}$",
                   lambda: qsm.QsmSystem(**{field: value}))


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


@pytest.mark.parametrize("match,obj", [
    (r"^graph JSON must be a dict, not list$", [1, 2]),
    (r"^graph JSON must be a dict, not list$", "[1, 2]"),
    (r"^graph JSON must be a dict, not NoneType$", "null"),
    (r"^graph JSON text does not parse: Expecting value: line 1 column 1 \(char 0\)$", "flags"),
    (r"^graph JSON key 'vertices' must be a list, not str$",
     {"flags": [], "vertices": "uv", "boundary": {}, "involution": {}}),
    (r"^graph JSON key 'involution' must be a dict, not list$",
     {"flags": [], "vertices": [], "boundary": {}, "involution": []}),
], ids=["list", "list-text", "null-text", "not-json", "vertices-string", "involution-list"])
def test_graph_from_json_refuses_values_of_another_type(match, obj):
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


# Every input refusal of the conductor, integer-residue, count and window
# checks that galois and qsm share: the exception type each caller raises and
# the whole message, which names the refused value.
CONDUCTOR = "conductor must be an integer >= 1, got "
REFUSALS = {
    "full-zero": (ValueError, CONDUCTOR + "0", lambda: GaloisGroup.full(0)),
    "full-float": (ValueError, CONDUCTOR + "2.0", lambda: GaloisGroup.full(2.0)),
    "trivial-bool": (ValueError, CONDUCTOR + "True", lambda: GaloisGroup.trivial(True)),
    "generated-negative": (ValueError, CONDUCTOR + "-12",
                           lambda: GaloisGroup.generated(-12, [1])),
    "group-float": (ValueError, CONDUCTOR + "12.0", lambda: GaloisGroup(12.0, (1,))),
    "polynomial-zero": (ValueError, CONDUCTOR + "0", lambda: galois.cyclotomic_polynomial(0)),
    "value-zero-conductor": (ValueError, CONDUCTOR + "0", lambda: CyclotomicNumber(0, ())),
    "value-float-conductor": (ValueError, CONDUCTOR + "2.0",
                              lambda: CyclotomicNumber(2.0, (1,))),
    "exp-sum-zero-conductor": (ValueError, CONDUCTOR + "0", lambda: ExponentSumCharacter(0)),
    "exp-sum-fraction-denominator": (ValueError,
                                     "denominator must be an integer >= 1, got Fraction(2, 1)",
                                     lambda: ExponentSumCharacter(12, Fraction(2))),
    "exp-sum-bool-denominator": (ValueError, "denominator must be an integer >= 1, got True",
                                 lambda: ExponentSumCharacter(12, True)),
    "table-float-conductor": (ValueError, CONDUCTOR + "12.0",
                              lambda: galois.TableCharacter(12.0, ())),
    "json-string-conductor": (ValueError, CONDUCTOR + "'12'",
                              lambda: galois.character_from_json({"m": "12", "table": {}})),
    "json-rule-zero-conductor": (ValueError, CONDUCTOR + "0", lambda: galois.character_from_json(
        {"m": 0, "rule": "exp-sum"})),
    "json-string-denominator": (ValueError, "denominator must be an integer >= 1, got '2'",
                                lambda: galois.character_from_json(
                                    {"m": 12, "D": "2", "rule": "exp-sum"})),
    "element-float": (galois.UnknownGroupElement, "5.0 is not an integer residue modulo 12",
                      lambda: GaloisGroup.full(12).element(5.0)),
    "element-outside": (galois.UnknownGroupElement, "7 is not in the configured group modulo 12",
                        lambda: GaloisGroup(12, (1, 5)).element(7)),
    "group-element-fraction": (galois.UnknownGroupElement,
                               "Fraction(5, 1) is not an integer residue modulo 12",
                               lambda: galois.GroupElement(GaloisGroup.full(12), Fraction(5))),
    "group-element-unreduced": (galois.UnknownGroupElement,
                                "17 is not in the configured group modulo 12",
                                lambda: galois.GroupElement(GaloisGroup.full(12), 17)),
    "act-float": (galois.UnknownGroupElement, "5.0 is not an integer residue modulo 12",
                  lambda: galois.galois_act_value(5.0, zeta(12))),
    "act-non-unit": (galois.NotCoprime, "3 is not invertible modulo 12",
                     lambda: galois.galois_act_value(3, zeta(12))),
    "generated-float": (galois.UnknownGroupElement, "5.0 is not an integer residue modulo 12",
                        lambda: GaloisGroup.generated(12, [5.0])),
    "generated-non-unit": (galois.NotCoprime, "3 is not invertible modulo 12",
                           lambda: GaloisGroup.generated(12, [5, 3])),
    "group-non-unit": (galois.NotCoprime, "3 is not invertible modulo 12",
                       lambda: GaloisGroup(12, (1, 3))),
    "group-float-element": (galois.UnknownGroupElement, "5.0 is not an integer residue modulo 12",
                            lambda: GaloisGroup(12, (1, 5.0))),
    "system-m-zero": (qsm.QsmError, "m must be an integer >= 1, got 0",
                      lambda: qsm.QsmSystem(m=0)),
    "system-m-string": (qsm.QsmError, "m must be an integer >= 1, got '12'",
                        lambda: qsm.QsmSystem(m="12")),
    "system-n-one": (qsm.QsmError, "N must be an integer >= 2, got 1", lambda: qsm.QsmSystem(N=1)),
    "system-n-float": (qsm.QsmError, "N must be an integer >= 2, got 10.0",
                       lambda: qsm.QsmSystem(N=10.0)),
    "system-d-zero": (qsm.QsmError, "D must be an integer >= 1, got 0",
                      lambda: qsm.QsmSystem(D=0)),
    "system-window-zero": (qsm.WindowTooSmall, "max_length must be an integer >= 1, got 0",
                           lambda: qsm.QsmSystem(max_length=0)),
    "hamiltonian-n-one": (qsm.QsmError, "N must be an integer >= 2, got 1",
                          lambda: qsm.hamiltonian(qsm.QsmSystem().rep, 1)),
    "partition-n-bool": (qsm.QsmError, "N must be an integer >= 2, got True",
                         lambda: qsm.partition_function(1, 2, True)),
    "partition-k-negative": (qsm.QsmError, "k must be an integer >= 0, got -1",
                             lambda: qsm.partition_function(1, -1, 10)),
    "partition-k-fraction": (qsm.QsmError, "k must be an integer >= 0, got Fraction(2, 1)",
                             lambda: qsm.partition_function(1, Fraction(2), 10)),
    "partition-k-bool": (qsm.QsmError, "k must be an integer >= 0, got True",
                         lambda: qsm.partition_function(1, True, 10)),
    "partition-truncated-negative": (qsm.QsmError, "max_length must be an integer >= 0, got -1",
                                     lambda: qsm.partition_function(
                                         1, 2, 10, mode="truncated", max_length=-1)),
    "partition-truncated-float": (qsm.QsmError, "max_length must be an integer >= 0, got 2.0",
                                  lambda: qsm.partition_function(
                                      1, 2, 10, mode="truncated", max_length=2.0)),
    "window-zero": (qsm.WindowTooSmall, "max_length must be an integer >= 1, got 0",
                    lambda: qsm.build_rep(ExponentSumCharacter(12, 2), 0, (0,))),
    "window-float": (qsm.WindowTooSmall, "max_length must be an integer >= 1, got 2.5",
                     lambda: qsm.build_rep(ExponentSumCharacter(12, 2), 2.5, (0,))),
}


@pytest.mark.parametrize("exc_type,message,call", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_input_refusal_has_its_callers_type(exc_type, message, call):
    with pytest.raises(exc_type) as info:
        call()
    assert info.type is exc_type and str(info.value) == message
