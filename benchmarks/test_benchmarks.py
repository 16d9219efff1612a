"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest benchmarks/test_benchmarks.py

The traced-run tests start three worker processes per workload and take a
few minutes in all.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_reference_counts_match_closed_formulas():
    assert refs.rooted_tree_count(3, 6) == refs.HOPF_TREES_LE6
    assert refs.rooted_tree_count(3, 5) == refs.HOPF_TREES_LE5
    assert refs.STRATA_8_BY_CODIM[1] == refs.divisor_count(8)
    assert refs.STRATA_8_BY_CODIM[5] == refs.corner_count(8)
    assert sum(refs.STRATA_8_BY_CODIM.values()) == refs.STRATA_8_TOTAL
    assert refs.STRATA_7_BY_CODIM[1] == refs.divisor_count(7)
    assert refs.STRATA_7_BY_CODIM[4] == refs.corner_count(7)
    assert sum(refs.STRATA_7_BY_CODIM.values()) == refs.STRATA_7_TOTAL
    assert [refs.catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_raising_case_is_counted_failed_not_fatal():
    runner = workloads.Runner(log=io.StringIO())

    def check(x):
        if x == 2:
            raise ValueError("boom")
        return x != 4

    runner.cases("mixed", [1, 2, 3, 4], check, expected=4)
    assert runner.bulk("raises", lambda: 1 / 0) is None
    runner.cases("never built", None, check, expected=7)
    runner.cases("probe", [1], lambda x: False, expected=1, known_defect=True)
    assert [(s["attempted"], s["failed"]) for s in runner.stages] == \
        [(4, 2), (1, 1), (7, 7), (1, 1)]
    assert len(runner.latency) == 5
    assert run.tally([{"stages": runner.stages}]) == (13, 10, 1)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    notes = json.loads((HERE / "workloads.json").read_text())["workloads"]
    assert sorted(notes) == sorted(run.WORKLOAD_NAMES)
    assert all(set(n["bypass"]) <= set(run.LAYERS) for n in notes.values())


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "qsm-galois", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _samples(name, seed):
    inputs = workloads.WORKLOADS[name][0](random.Random(seed))
    key = {"strata-census": "pairs", "hopf-identities": "equivariance",
           "qsm-galois": "m60", "flags-export": "plans"}[name]
    return repr(inputs[key])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_changes_sampled_inputs(name):
    assert _samples(name, 1) == _samples(name, 1)
    assert _samples(name, 1) != _samples(name, 2)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced(request):
    name = request.param
    return name, [run.spawn(name, seed, trace=True) for seed in (1, 1, 2)]


def _exact_counts(result):
    t = result["trace"]
    return t["calls"], t["items"], t["inside"], t["errors"]


def test_traced_counts_repeat_for_the_same_seed(traced):
    _, (first, again, _) = traced
    assert _exact_counts(first) == _exact_counts(again)
    assert first["stages"] == again["stages"]


def test_new_seed_keeps_family_sizes(traced):
    _, (first, _, other) = traced
    sizes = [(s["name"], s["attempted"]) for s in first["stages"]]
    assert sizes == [(s["name"], s["attempted"]) for s in other["stages"]]
    assert run.tally([first]) == run.tally([other])
    assert _exact_counts(first) != _exact_counts(other)      # the samples reached the library


def test_traced_pass_is_correct_and_bypasses_predicted_layers(traced):
    name, (first, _, _) = traced
    assert run.tally([first])[1] == 0
    bypass = json.loads((HERE / "workloads.json").read_text())["workloads"][name]["bypass"]
    for layer in bypass:
        assert not any(n for g, n in first["trace"]["calls"].items()
                       if g.startswith(layer + "."))
