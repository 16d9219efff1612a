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
