"""Importing the package is cheap: numpy and the process pool load only in
the calls that use them, so every CLI command but a simulated revenue
starts without either."""

import os
import subprocess
import sys

import posmine

SRC = os.path.dirname(os.path.dirname(posmine.__file__))

COLD = """
import sys
import posmine
from posmine import analysis, blocktree, cli, reductions, strategies, structure
print(sorted(m for m in ("numpy", "concurrent.futures") if m in sys.modules))
"""

FIRST_USE = """
import sys
from posmine import analysis
report = analysis.growth_rate_check("frontier", 0.3, rounds=200, seed=1)
import numpy as np
assert isinstance(report.series, np.ndarray) and report.series.shape == (200,)
ex, ey, etau = analysis.mc_walk_stats(0.3, walks=500, seed=1)
assert 0 < ex < etau
assert 0 <= analysis.mc_ruin_probability(0.3, 2, walks=500, seed=1) <= 1
pt = analysis.mc_revenue_liminf("frontier", 0.3, rounds=200, games=4, seed=1)
assert pt.games == 4 and pt.stderr is not None
print("concurrent.futures" in sys.modules)
"""


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_importing_the_package_and_the_cli_loads_neither_numpy_nor_the_pool():
    assert _run(COLD) == "[]"


def test_the_numpy_calls_work_from_a_cold_import():
    # a 4 x 200-round liminf job plays in-process, so the pool stays unloaded
    assert _run(FIRST_USE) == "False"
