"""The narrative demos and the README's Python blocks run to completion.

Each demo and each fenced ``python`` block of ``README.md`` runs in its own
interpreter, as a reader would start it, with the package source on
``PYTHONPATH``.  ``deviation_scaling.py`` takes about 15 s at its default
size, so it is loaded by path and run in process at 200 histories instead;
the other five take about 3 s together.
"""
from __future__ import annotations

import importlib.util
import os
import re
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


def _run_python(args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_exits_cleanly(tmp_path, demo):
    proc = _run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_python_blocks_run(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        proc = _run_python(["-c", block], tmp_path)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"
        assert proc.stdout.strip()


def test_deviation_scaling_demo_prints_every_row_within_the_bound(capsys):
    path = ROOT / "demos" / "deviation_scaling.py"
    spec = importlib.util.spec_from_file_location("deviation_scaling", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.scaling_experiment(histories=200)
    rows = re.findall(r"^ *(\d+) +(\d+) +\d+ +\S+ +\S+ +(\S+)$",
                      capsys.readouterr().out, flags=re.M)
    assert [(int(n), int(k)) for n, k, _ in rows] == [
        (n, k) for n in (250, 500, 1000, 2000) for k in (1, 5, 25)
    ]
    assert {flag for _, _, flag in rows} == {"yes"}
