"""Each demo script runs to completion against the checkout's sources.

``06_greedy_benchmark.py`` is left out: it takes about 7 s, several times
the rest of this file, and the greedy heuristics it times are covered by
``test_heuristic.py`` and the acceptance suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_matching_basics.py",
    "02_exact_solver.py",
    "03_multi_query.py",
    "04_query_indexes.py",
    "05_reductions.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
