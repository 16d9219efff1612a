"""Smoke test: every script in demos/ runs to completion on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# lines that a demo's output must hold
EXPECTED = {"strata_tour": "two components meeting once: codim 1, split [['3', '4', '5']]\n"
                           "meeting twice is refused: component graph must be a connected tree\n",
            "qsm_tour": "series = trace = (1 - q^7) * closed in Q(zeta_12) at beta=1, "
                        "exactly on 4 sample trees: True\n"}


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert EXPECTED.get(demo.stem, "") in proc.stdout
    assert proc.stderr == ""
