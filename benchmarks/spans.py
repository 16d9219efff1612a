"""Per-layer tracing by wrappers installed around the library's public functions.

`Tracer.install()` replaces every public function of the six library modules,
and the methods listed in `METHODS`, by a wrapper that records one span: its
metric group, parent span, case id, start and end in thread CPU time (the
clock of the timed phase, see workloads.py).  Spans live in compact
arrays until the run ends; `Tracer.summary()` then derives call counts and
self times (span duration minus the time covered by child spans).  No library
file changes, and a process that never calls `install()` runs untraced.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("graphs", "operads", "strata", "hopf", "galois", "qsm")

# Metric group of each public module-level function; unnamed ones go to
# "<layer>.other".
FUNCTIONS = {
    "graphs": {
        "validate": "validate",
        "structure_report": "structure_report",
        "find_isomorphism": "find_isomorphism",
    },
    "operads": {
        **dict.fromkeys(("graft", "graft_within", "graft_with_maps", "iterate_grafts"),
                        "graft"),
        **dict.fromkeys(("enumerate_magma_words", "word_arity", "word_letters",
                         "word_to_text", "parse_word", "degenerate_magma_tree",
                         "word_to_tree", "tree_to_word", "enumerate_magma_trees",
                         "validate_magma_tree", "graft_magma"), "magma"),
    },
    "strata": {
        **dict.fromkeys(("enumerate_strata", "divisorial_strata", "trivalent_strata",
                         "maximal_codim_strata"), "enumerate"),
        "admissible_projection": "project",
        "is_substratum": "substratum",
        "contract_edge": "contract",
        "compose_strata": "compose",
        **dict.fromkeys(("stratum_to_json", "stratum_from_json", "stratum_to_dot",
                         "clean_dessin", "clean_dessin_is_bipartite",
                         "clean_dessin_is_connected"), "export"),
    },
    "hopf": {
        "admissible_cuts": "cuts",
        "coassociativity_holds": "coassociativity",
        "counit_axioms_hold": "counit",
        "antipode_identity_holds": "antipode_identity",
        "coproduct": "coproduct",
        "antipode": "antipode",
        **dict.fromkeys(("relabel_tree", "relabel", "g_act", "relabel_tracked"), "relabel"),
        "balanced_cuts": "balanced_cuts",
    },
    "galois": {
        "galois_act_value": "act",
        "complex_embed": "embed",
        **dict.fromkeys(("char_eval", "validate_character"), "char"),
    },
    "qsm": {
        "build_rep": "window",
        "verify_crossed_relations": "relations",
        **dict.fromkeys(("time_evolution_report", "evolution_fixes_diagonal_exactly"),
                        "evolution"),
        **dict.fromkeys(("partition_function", "partition_trace"), "partition"),
        "gibbs_closed_exact": "gibbs.closed",
        "gibbs_value": "gibbs",            # split by route, see _route_group
        "ground_state": "ground_state",
        "verify_intertwining": "intertwining",
    },
}

# Small recursive helpers stay untraced, so that their time counts towards
# the caller instead of being swamped by the cost of a span per tree node.
UNTRACED = {
    "hopf": {"node", "leaf", "tree_nodes", "tree_edges", "label_sum", "tree_labels",
             "canonicalize", "forest", "forest_nodes"},
    "operads": {"word_arity", "word_letters", "word_to_text"},
    "qsm": {"check_word", "compose_words", "chain_graft", "chain_strip"},
}

# Traced methods: (layer, class) -> {method: group}.  Small accessors stay
# untraced so that their time counts towards the caller.
METHODS = {
    ("strata", "StableSTree"): {"__post_init__": "stree", "canonical_key": "canonical_key"},
    ("hopf", "ForestPolynomial"): dict.fromkeys(
        ("__add__", "__neg__", "__sub__", "scale", "__mul__", "__eq__"), "polynomial"),
    ("hopf", "PairPolynomial"): dict.fromkeys(
        ("__add__", "__mul__", "scale", "__eq__"), "polynomial"),
    ("galois", "CyclotomicNumber"): {
        **dict.fromkeys(("__add__", "__neg__", "__sub__", "__rsub__"), "add"),
        **dict.fromkeys(("__mul__", "__truediv__"), "mul"),
        "inverse": "inverse",
        "__complex__": "embed",
    },
    ("galois", "GroupElement"): dict.fromkeys(("on_label", "on_value"), "act"),
    ("galois", "ExponentSumCharacter"): {"on_tree": "char"},
    ("galois", "TableCharacter"): {"on_tree": "char"},
    ("qsm", "TruncatedRep"): dict.fromkeys(
        ("identity", "shift", "shift_adjoint", "diag", "range_columns"), "window"),
    ("qsm", "LinearOp"): {"compose": "compose",
                          **dict.fromkeys(("equal_on", "safe_columns", "to_dense"), "window")},
}

# Counts of calls made while another group's span is open: the trees built
# by enumeration, the contractions tried by is_substratum, and the cut sets
# rebuilt by balanced_cuts.
INSIDE = {
    "strata.stree": "strata.enumerate",
    "strata.contract": "strata.substratum",
    "hopf.cuts": "hopf.balanced_cuts",
}


def _route_group(args, kwargs):
    route = kwargs.get("route", args[3] if len(args) > 3 else "closed")
    return f"qsm.gibbs.{route}"


class Tracer:
    """Span store and wrapper factory; one per process."""

    def __init__(self):
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.case = -1
        self.errors = Counter()
        self.inside = Counter()
        self.items = Counter()
        self._stack = [-1]
        self._active: list[int] = []

    def gid(self, name: str) -> int:
        if name not in self._gid:
            self._gid[name] = len(self.groups)
            self.groups.append(name)
            self._active.append(0)
        return self._gid[name]

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, group: str, route=None):
        layer = group.split(".", 1)[0]
        gid = self.gid(group)
        outer = self.gid(INSIDE[group]) if group in INSIDE else None
        stack, active, perf = self._stack, self._active, time.thread_time
        groups, parents, cases = self.span_group, self.span_parent, self.span_case
        starts, ends = self.span_start, self.span_end
        counted = {"strata.enumerate": _strata_count, "qsm.relations": _check_count}.get(group)
        route_gids = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            g = gid
            if route is not None:
                name = route(args, kwargs)
                g = route_gids.get(name)
                if g is None:
                    g = route_gids[name] = self.gid(name)
            i = len(starts)
            parent = stack[-1]
            groups.append(g)
            parents.append(parent)
            cases.append(self.case)
            if outer is not None and active[outer]:
                self.inside[group] += 1
            active[g] += 1
            stack.append(i)
            ends.append(0.0)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or not self.groups[groups[parent]].startswith(layer + "."):
                    self.errors[layer] += 1
                raise
            finally:
                ends[i] = perf()
                stack.pop()
                active[g] -= 1
            if counted is not None and not active[g]:
                self.items[group] += counted(result)
            return result

        return traced

    def install(self):
        """Wrap the public functions in every module that refers to them."""
        import dessins

        modules = [getattr(dessins, name) for name in LAYERS]
        replace = {}
        for layer in LAYERS:
            mod = getattr(dessins, layer)
            named = FUNCTIONS[layer]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or name in UNTRACED.get(layer, ())
                        or not inspect.isfunction(inspect.unwrap(fn))
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                group = f"{layer}.{named.get(name, 'other')}"
                route = _route_group if name == "gibbs_value" else None
                replace[id(fn)] = self.wrap(fn, group, route)
            for (cls_layer, cls_name), methods in METHODS.items():
                if cls_layer != layer:
                    continue
                cls = getattr(mod, cls_name)
                done = {}
                for attr, value in list(vars(cls).items()):
                    name = value.__name__ if inspect.isfunction(value) else None
                    if name in methods:
                        if id(value) not in done:
                            done[id(value)] = self.wrap(value, f"{layer}.{methods[name]}")
                        setattr(cls, attr, done[id(value)])
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, name, replace[id(value)])
        return self

    # -- results --------------------------------------------------------------

    def self_times(self, outside=()) -> dict[str, float]:
        """Self time per group.  `outside` lists (start, duration) stretches
        of harness work that ran inside library spans (speed probes); each
        is taken off the innermost span that holds it."""
        acc = [0.0] * len(self.groups)
        group, parent = self.span_group, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i, (start, end) in enumerate(zip(starts, ends)):
            dur = end - start
            acc[group[i]] += dur
            p = parent[i]
            if p >= 0:
                acc[group[p]] -= dur
        for start, dur in outside:
            i = bisect.bisect_right(starts, start) - 1
            while i >= 0 and ends[i] < start + dur:
                i = parent[i]
            if i >= 0:
                acc[group[i]] -= dur
        return dict(zip(self.groups, acc))

    def calls(self) -> dict[str, int]:
        counts = Counter(self.span_group)
        return {name: counts.get(i, 0) for i, name in enumerate(self.groups)}

    def summary(self, outside=()) -> dict:
        """Raw counters for the controller: calls, self times, errors, items."""
        return {
            "calls": self.calls(),
            "self_s": self.self_times(outside),
            "errors": {layer: self.errors.get(layer, 0) for layer in LAYERS},
            "inside": dict(self.inside),
            "items": dict(self.items),
            "spans": len(self.span_start),
        }


def _strata_count(result) -> int:
    if isinstance(result, dict):
        return sum(len(v) for v in result.values())
    return len(result)


def _check_count(report) -> int:
    return len(report.checks)
