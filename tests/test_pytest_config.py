"""The repository's pytest configuration reports a failing `hypothesis` test
with its falsifying example, and still turns other warnings into errors.

Under `filterwarnings = ["error"]` alone, a DeprecationWarning raised by a
third-party import inside hypothesis's failure reporting
(`mypy_extensions.TypedDict is deprecated`) became an INTERNALERROR that hid
the example.  Each check runs pytest in a subprocess on deliberately failing
tests in a temporary directory, under the repository's `pyproject.toml`.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_small(x):
    assert x < 10


def test_a_deprecation_warning_is_an_error():
    warnings.warn("this call is deprecated", DeprecationWarning)
'''


def test_a_failing_given_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_every_integer_is_small(" in out, out
    assert "DeprecationWarning: this call is deprecated" in out, out
    assert "2 failed" in out, out
