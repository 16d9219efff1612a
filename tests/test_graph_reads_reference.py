"""Differential tests for reading flag graphs: `graphs.validate`,
`graphs.find_isomorphism`, `strata.stratum_from_json` and the DOT writers.

Test-local copies of `validate`, `stratum_from_json` and the three DOT
writers, as they were before each read became one pass, are compared by
outcome (every field of the result, or the exception type and message) with
the library over exhaustive small families and corrupted variants of them.
`find_isomorphism` is checked by a property against `is_valid_iso` and the
reference search of `test_graphs`.
"""

import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphs import _involutions, reference_find_isomorphism

from dessins import graphs, strata
from dessins.graphs import (
    BoundaryNotTotal,
    DanglingFlagReference,
    GraphError,
    InvolutionNotInvolutive,
    find_isomorphism,
    is_valid_iso,
    validate,
)


# --- the code as it was, copied as the reference -----------------------------

def ref_validate(flags, vertices, boundary, involution):
    flag_list = tuple(sorted(str(f) for f in flags))
    vertex_list = tuple(sorted(str(v) for v in vertices))
    flag_set, vertex_set = set(flag_list), set(vertex_list)
    if len(flag_set) != len(flag_list):
        raise GraphError("duplicate flag identifiers")
    if len(vertex_set) != len(vertex_list):
        raise GraphError("duplicate vertex identifiers")

    bdry = {str(k): str(v) for k, v in dict(boundary).items()}
    invl = {str(k): str(v) for k, v in dict(involution).items()}

    for f in bdry:
        if f not in flag_set:
            raise DanglingFlagReference(f"boundary defined on unknown flag {f!r}")
    for f, v in bdry.items():
        if v not in vertex_set:
            raise DanglingFlagReference(f"boundary of {f!r} is unknown vertex {v!r}")
    for f, g in invl.items():
        if f not in flag_set:
            raise DanglingFlagReference(f"involution defined on unknown flag {f!r}")
        if g not in flag_set:
            raise DanglingFlagReference(f"involution of {f!r} is unknown flag {g!r}")

    missing = flag_set - set(bdry)
    if missing:
        raise BoundaryNotTotal(f"flags without boundary vertex: {sorted(missing)}")
    missing = flag_set - set(invl)
    if missing:
        raise BoundaryNotTotal(f"involution not total, missing: {sorted(missing)}")
    for f in flag_list:
        if invl[invl[f]] != f:
            raise InvolutionNotInvolutive(f"involution squared moves {f!r}")

    edges = frozenset(frozenset((f, invl[f])) for f in flag_list if invl[f] != f)
    tails = tuple(f for f in flag_list if invl[f] == f)
    return graphs.CombinatorialGraph(flag_list, vertex_list, bdry, invl, edges, tails)


def ref_stratum_from_json(obj):
    s = strata.Stratum(strata.s_tree(ref_validate(obj["tree"]["flags"], obj["tree"]["vertices"],
                                                  obj["tree"]["boundary"],
                                                  obj["tree"]["involution"]),
                                     obj["tail_labels"]))
    if sorted(obj["labels"], key=strata._labelkey) != list(s.tree.order):
        raise strata.StrataError(f"labels {obj['labels']!r} disagree with the tree's "
                                 f"tail labels {list(s.tree.order)!r}")
    if obj["codim"] != s.codim:
        raise strata.StrataError(f"codim {obj['codim']!r} disagrees with the tree's "
                                 f"codim {s.codim}")
    return s


def ref_to_dot(g, tail_labels=None, name="g"):
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in sorted(g.edges, key=sorted):
        u, w = (g.boundary[f] for f in sorted(e))
        lines.append(f'  "{u}" -- "{w}";')
    for t in g.tails:
        stub = f"__tail_{t}"
        lines.append(f'  "{stub}" [shape=point, label=""];')
        label = "" if tail_labels is None else f' [label="{tail_labels[t]}"]'
        lines.append(f'  "{g.boundary[t]}" -- "{stub}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_clean_dessin_to_dot(d, name):
    lines = [f"graph {name} {{"]
    lines.extend(f'  "{v}" [color=black, style=filled];' for v in d.black)
    lines.extend(f'  "{v}" [color=white, shape=circle];' for v in d.white)
    lines.extend(f'  "{a}" -- "{b}";' for a, b in d.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- comparisons --------------------------------------------------------------

def graph_fields(g):
    """Every field of a graph, with the maps' iteration order."""
    return (g.flags, g.vertices, list(g.boundary.items()), list(g.involution.items()),
            g.edges, g.tails)


def outcome(fn, *args):
    try:
        g = fn(*args)
    except Exception as exc:            # noqa: BLE001 - the outcome is the exception
        return type(exc), str(exc)
    return graph_fields(g)


def raw_small_graphs(max_flags, n_vertices):
    """The raw data of `test_graphs._all_small_graphs`, in the same order."""
    flag_names = [f"f{i}" for i in range(max_flags)]
    vertex_names = [f"v{i}" for i in range(n_vertices)]
    for nf in range(max_flags + 1):
        fl = flag_names[:nf]
        for bdry in itertools.product(vertex_names, repeat=nf):
            for invl in _involutions(fl):
                yield fl, vertex_names, dict(zip(fl, bdry)), invl


def raw_family():
    return [*raw_small_graphs(4, 2), *raw_small_graphs(3, 3),
            *(raw for raw in raw_small_graphs(6, 2) if len(raw[0]) > 4)]


def other_forms(raw):
    """The same data handed over as other iterables and mappings."""
    flags, vertices, boundary, involution = raw
    return (iter(flags), set(vertices), list(boundary.items()),
            list(reversed(involution.items())))


def test_validate_matches_reference_on_every_small_graph():
    family = raw_family()
    assert len(family) == 6029
    for raw in family:
        want = outcome(ref_validate, *raw)
        assert outcome(validate, *raw) == want, raw
        got = outcome(validate, *other_forms(raw))
        assert got == outcome(ref_validate, *other_forms(raw))
        assert got[:2] == want[:2] and set(got[2]) == set(want[2])


# Each corruption reaches one error of `validate`; together they reach every
# error behind every other one.  They need at least two flags.
def dup_flag(fl, vs, b, i):
    fl.append(fl[0])


def dup_vertex(fl, vs, b, i):
    vs.append(vs[0])


def boundary_on_unknown_flag(fl, vs, b, i):
    b["zz"] = vs[0]


def boundary_to_unknown_vertex(fl, vs, b, i):
    b[fl[-1]] = "nowhere"


def involution_on_unknown_flag(fl, vs, b, i):
    i["zy"] = fl[0]


def involution_to_unknown_flag(fl, vs, b, i):
    i[fl[1]] = "nothing"


def boundary_not_total(fl, vs, b, i):
    b.pop(fl[1], None)


def involution_not_total(fl, vs, b, i):
    i.pop(fl[0], None)


def not_involutive(fl, vs, b, i):
    i[fl[0]], i[fl[-1]] = fl[-1], fl[-1]


CORRUPTIONS = [dup_flag, dup_vertex, boundary_on_unknown_flag, boundary_to_unknown_vertex,
               involution_on_unknown_flag, involution_to_unknown_flag, boundary_not_total,
               involution_not_total, not_involutive]


def corrupted(raw, chosen):
    fl, vs, b, i = list(raw[0]), list(raw[1]), dict(raw[2]), dict(raw[3])
    for corrupt in chosen:
        corrupt(fl, vs, b, i)
    return fl, vs, b, i


def test_validate_matches_reference_on_every_mix_of_corruptions():
    bases = [raw for raw in raw_family() if len(raw[0]) >= 2][::97]
    assert len(bases) == 63
    seen = set()
    for raw in bases:
        for k in range(1, len(CORRUPTIONS) + 1):
            for chosen in itertools.combinations(CORRUPTIONS, k):
                args = corrupted(raw, chosen)
                want = outcome(ref_validate, *args)
                assert outcome(validate, *args) == want, (raw, chosen)
                seen.add(want[1].split(" '")[0].split(":")[0])
    assert seen == {"duplicate flag identifiers", "duplicate vertex identifiers",
                    "boundary defined on unknown flag", "boundary of",
                    "involution defined on unknown flag", "involution of",
                    "flags without boundary vertex", "involution not total, missing",
                    "involution squared moves"}


# --- find_isomorphism against a renaming ------------------------------------------

LABELS = [0, 1, 2, "1", "2", "x", (1,)]


@st.composite
def labelled_multigraphs(draw):
    """A small multigraph with loops, parallel edges and tails, its tail
    labels (which may repeat or print alike), and a shuffled renaming of it."""
    n = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=6))
    tails = draw(st.lists(st.integers(0, n - 1), max_size=6))
    boundary, involution = {}, {}
    for i, (u, w) in enumerate(pairs):
        boundary[f"e{i}a"], boundary[f"e{i}b"] = f"v{u}", f"v{w}"
        involution[f"e{i}a"], involution[f"e{i}b"] = f"e{i}b", f"e{i}a"
    for i, u in enumerate(tails):
        boundary[f"t{i}"], involution[f"t{i}"] = f"v{u}", f"t{i}"
    vertices = [f"v{i}" for i in range(n)]
    g = validate(boundary, vertices, boundary, involution)
    labels = {t: draw(st.sampled_from(LABELS)) for t in g.tails}
    fnames = draw(st.permutations(range(len(g.flags))))
    vnames = draw(st.permutations(range(n)))
    fmap = {f: f"x{j}" for f, j in zip(g.flags, fnames)}
    vmap = {v: f"u{j}" for v, j in zip(g.vertices, vnames)}
    h = validate(fmap.values(), vmap.values(),
                 {fmap[f]: vmap[b] for f, b in boundary.items()},
                 {fmap[f]: fmap[x] for f, x in involution.items()})
    return g, labels, h, {fmap[t]: lab for t, lab in labels.items()}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(labelled_multigraphs())
def test_find_isomorphism_witness_against_a_renaming_is_valid(case):
    g, labels, h, h_labels = case
    distinct = len({str(x) for x in labels.values()}) == len({repr(x) for x in labels.values()})
    for args in ((g, h), (g, h, labels, h_labels), (h, g, h_labels, labels)):
        witness = find_isomorphism(*args)
        if witness is not None:
            assert is_valid_iso(*args[:2], witness, *args[2:])
        if len(args) == 2 or distinct:
            assert witness == reference_find_isomorphism(*args)
    assert find_isomorphism(g, h) is not None


# --- stratum_from_json against the reference ----------------------------------

def stratum_outcome(fn, obj):
    try:
        s = fn(obj)
    except Exception as exc:            # noqa: BLE001 - the outcome is the exception
        return type(exc), str(exc)
    g, tail_labels, edge_split = s.tree._view()
    return s.tree.order, s.tree.splits, graph_fields(g), list(tail_labels.items()), edge_split


def json_variants(obj, rng):
    """The payload of a stratum, and copies with one part changed."""
    tree, tail_labels = obj["tree"], obj["tail_labels"]
    tails = list(tail_labels)
    yield obj
    yield {**obj, "labels": list(reversed(obj["labels"]))}
    yield {**obj, "codim": obj["codim"] + 1}
    yield {**obj, "tail_labels": {**tail_labels, tails[0]: tail_labels[tails[1]]}}
    yield {**obj, "tail_labels": {t: lab for t, lab in tail_labels.items() if t != tails[-1]}}
    yield {**obj, "tail_labels": {**tail_labels, "nowhere": 99}}
    yield {**obj, "tail_labels": {**tail_labels, tails[0]: int(tail_labels[tails[0]])}}
    edge_flags = [f for f in tree["flags"] if tree["involution"][f] != f]
    if edge_flags:
        # an edge cut open into two tails: disconnected, or unstable
        a = rng.choice(edge_flags)
        b = tree["involution"][a]
        involution = {**tree["involution"], a: a, b: b}
        yield {**obj, "tree": {**tree, "involution": involution},
               "tail_labels": {**tail_labels, a: "a", b: "b"}}
        # a flag moved to another vertex
        others = [v for v in tree["vertices"] if v != tree["boundary"][a]]
        boundary = {**tree["boundary"], a: rng.choice(others)}
        yield {**obj, "tree": {**tree, "boundary": boundary}}
    # a tail moved onto a new vertex of its own
    yield {**obj, "tree": {**tree, "vertices": [*tree["vertices"], "z"],
                           "boundary": {**tree["boundary"], tails[0]: "z"}}}
    yield {**obj, "tree": {**tree, "involution": {**tree["involution"], tails[0]: tails[1]}}}


def test_stratum_from_json_matches_reference_on_every_small_stratum():
    rng = random.Random(19)
    seen = set()
    for n in (3, 4, 5, 6):
        for group in strata.enumerate_strata([str(i) for i in range(1, n + 1)]).values():
            for s in group:
                obj = json.loads(json.dumps(strata.stratum_to_json(s)))
                for variant in json_variants(obj, rng):
                    want = stratum_outcome(ref_stratum_from_json, variant)
                    assert stratum_outcome(strata.stratum_from_json, variant) == want, variant
                    seen.add(want[0] if isinstance(want[0], type) else "stratum")
    assert seen == {"stratum", strata.StrataError, InvolutionNotInvolutive}


# --- DOT text ------------------------------------------------------------------

def test_dot_writers_match_reference_on_plain_names():
    for n in (3, 4, 5, 6):
        for group in strata.enumerate_strata(list(range(1, n + 1))).values():
            for s in group:
                assert strata.stratum_to_dot(s, name="s") == ref_to_dot(
                    s.tree.graph, tail_labels=s.tree.tail_labels, name="s")
                assert graphs.to_dot(s.tree.graph) == ref_to_dot(s.tree.graph)
    for s, caterpillar in strata.maximal_codim_strata(["a", "b", 3, 4, 5, 6]):
        if caterpillar:
            d = strata.clean_dessin(strata.Stratum(s.tree))
            assert strata.clean_dessin_to_dot(d, "c") == ref_clean_dessin_to_dot(d, "c")


# --- behaviour the one-pass reads changed on purpose -------------------------------

ABC = graphs.corolla("v", "abc")


@given(labelled_multigraphs())
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_renaming_has_a_witness_unless_labels_repeat_at_a_vertex(case):
    g, labels, h, h_labels = case
    keys = [(g.boundary[t], type(lab), str(lab)) for t, lab in labels.items()]
    witness = find_isomorphism(g, h, labels, h_labels)
    assert (witness is not None) == (len(set(keys)) == len(keys))


def test_tails_labelled_alike_in_print_pair_by_type():
    labels = {"a": 1, "b": "1", "c": 2}
    swapped = {"a": "1", "b": 1, "c": 2}
    witness = find_isomorphism(ABC, ABC, labels, labels)
    assert witness == graphs.GraphIso({"v": "v"}, {f: f for f in "abc"})
    witness = find_isomorphism(ABC, ABC, labels, swapped)
    assert witness == graphs.GraphIso({"v": "v"}, {"a": "b", "b": "a", "c": "c"})
    assert is_valid_iso(ABC, ABC, witness, labels, swapped)
    # equal labels at one vertex still have no witness
    assert find_isomorphism(ABC, ABC, {"a": 1, "b": 1, "c": 2}, {"a": 1, "b": 1, "c": 2}) is None


def test_dot_escapes_quotes_and_backslashes():
    g = validate(['t"1', "t\\2", "t3", "h", "k"], ['a"b', "c\\"],
                 {'t"1': 'a"b', "t\\2": 'a"b', "t3": "c\\", "h": 'a"b', "k": "c\\"},
                 {'t"1': 't"1', "t\\2": "t\\2", "t3": "t3", "h": "k", "k": "h"})
    assert graphs.to_dot(g, {'t"1': 'say "x"', "t\\2": "back\\", "t3": 3}) == (
        'graph g {\n'
        '  "a\\"b";\n'
        '  "c\\\\";\n'
        '  "a\\"b" -- "c\\\\";\n'
        '  "__tail_t\\"1" [shape=point, label=""];\n'
        '  "a\\"b" -- "__tail_t\\"1" [label="say \\"x\\""];\n'
        '  "__tail_t3" [shape=point, label=""];\n'
        '  "c\\\\" -- "__tail_t3" [label="3"];\n'
        '  "__tail_t\\\\2" [shape=point, label=""];\n'
        '  "a\\"b" -- "__tail_t\\\\2" [label="back\\\\"];\n'
        '}\n')
    d = strata.CleanDessin(('a"b',), ("w\\",), (('a"b', "w\\"),))
    assert strata.clean_dessin_to_dot(d, "c") == (
        'graph c {\n'
        '  "a\\"b" [color=black, style=filled];\n'
        '  "w\\\\" [color=white, shape=circle];\n'
        '  "a\\"b" -- "w\\\\";\n'
        '}\n')


def test_the_witness_keeps_labels_by_equality_not_by_text():
    # "nan" pairs with "nan" by type and text, but nan != nan, so the check
    # made before a witness is returned refuses it, as is_valid_iso does
    labels = {"a": float("nan"), "b": 1, "c": 2}
    identity = graphs.GraphIso({"v": "v"}, {f: f for f in "abc"})
    assert not is_valid_iso(ABC, ABC, identity, labels, labels)
    assert find_isomorphism(ABC, ABC, labels, labels) is None
