"""The narrative demos run to completion as scripts.

Each demo runs in its own interpreter, as a reader would start it, with the
package source on ``PYTHONPATH``.  ``deviation_scaling.py`` takes about 15 s
and is left to the acceptance-scale runs; the other five take about 3 s
together.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAST_DEMOS = [
    "fluctuation_traces.py",
    "mean_relaxation.py",
    "pressure_cell_bounds.py",
    "reversal_and_recurrence.py",
    "ring_equilibration.py",
]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_exits_cleanly(tmp_path, demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
