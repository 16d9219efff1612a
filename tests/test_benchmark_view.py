"""The library names the benchmark harness reads, checked without running it.

`benchmarks/spans.py` wraps the classes named in `METHODS` (its `install()`
looks each one up in its layer module), and `benchmarks/workloads.py` and
`benchmarks/refs.py` call the library through `<layer>.<name>`.  A name
deleted from the library breaks a benchmark run that the tier-1 suite never
makes, so each name is resolved here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from dessins import qsm, strata

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", BENCHMARKS / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_attributes(path: Path) -> set:
    """(layer, name) for every `<layer>.<name>` read in the file, where
    `<layer>` is a module imported by `from dessins import ...`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    layers = {alias.asname or alias.name: alias.name
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "dessins"
              for alias in node.names}
    return {(layers[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in layers}


def test_every_traced_class_exists_in_its_layer():
    spans = _load_spans()
    assert spans.METHODS
    for layer, cls_name in spans.METHODS:
        module = importlib.import_module(f"dessins.{layer}")
        assert isinstance(getattr(module, cls_name, None), type), f"{layer}.{cls_name}"


def test_every_library_name_the_workloads_read_resolves():
    names = _layer_attributes(BENCHMARKS / "workloads.py") | _layer_attributes(
        BENCHMARKS / "refs.py")
    assert len(names) > 20          # the scan finds the workloads' calls
    missing = [f"{layer}.{name}" for layer, name in sorted(names)
               if not hasattr(importlib.import_module(f"dessins.{layer}"), name)]
    assert missing == []


# The harness also uses these without a `<layer>.<name>` read that the scan
# above sees: `workloads.py` wraps strata as `strata.Stratum(s)` and reads
# `s.tree`, `spans.py` names `StableSTree` in `METHODS`, and `workloads.py`
# reads three fields of the time evolution report.  ROADMAP item 1 moves the
# harness off them, so that they can be retired.
def test_the_stratum_names_the_harness_reads_still_reach_the_stratum():
    s = strata.two_part_tree([1, 2], [3, 4, 5])
    assert strata.Stratum(s) is s and s.tree is s
    assert strata.StableSTree is strata.Stratum


def test_the_time_evolution_report_has_the_fields_the_harness_reads():
    system = qsm.QsmSystem(max_length=2)
    report = qsm.time_evolution_report(system.rep, system.N, 0.5, group=system.group)
    assert report.max_shift_deviation <= 1e-10
    assert report.diag_invariant is True and report.galois_commutes is True
