"""SHA-256 pins of gas and ring CSVs written through the command line.

The gas digests were recorded before the gas streaming kernel was rebuilt,
the ring digests before the ring ensemble moved onto the rotating-frame
kernel; neither may move when a kernel, the sampling path or the process
pool changes: any such change that alters a single byte of a result is a
behaviour change, not a refactor.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from equilab.cli import main

CONFIGS = {
    "scaling-1d": (
        "gas-scaling", "gas_scaling.csv",
        "n_values = 60,200,600\nk_values = 1,2,5,10,20\nhistories = 600\n"
        "epsilon = 0.05\ndt = 0.7\nregion = 0,0.5\nseed = 11\n",
    ),
    "scaling-2d": (
        "gas-scaling", "gas_scaling.csv",
        "n_values = 50,200\nk_values = 1,4,12\nhistories = 300\nepsilon = 0.06\n"
        "dt = 0.9\nregion = 0,0.5;0.25,0.75\nposition_region = 0,0.5;0,1\nseed = 5\n",
    ),
    "trace": (
        "gas-trace", "gas_trace.csv",
        "n = 2000\nregion = 0,0.5\ndt = 0.05\nk_count = 200\nseed = 3\n",
    ),
    "reverse": (
        "gas-reverse", "gas_reverse.csv",
        "n = 2000\nregion = 0,0.5\nreverse_time = 5.0\ndt = 0.1\nseed = 4\n",
    ),
    # One ring followed through a full period 2N.
    "kac-trace": (
        "kac-trace", "kac_trace.csv",
        "n = 257\nmu = 0.3\nt_max = 514\nseed = 7\n",
    ),
    # t_max = 2N, so Delta wraps past one revolution; 1100 histories make
    # two full chunks and one partial one; alpha adds the bound window.
    "kac-ensemble": (
        "kac-ensemble", "kac_ensemble.csv",
        "n = 64\nmu = 0.3\nhistories = 1100\nt_max = 128\nepsilon = 0.2\n"
        "alpha = 0.9\nseed = 9\n",
    ),
}

DIGESTS = {
    "scaling-1d": "c270e0cc598fdbc84cca6c7565aab0d762d0050afdfd3ba581693e24f1e1b360",
    "scaling-2d": "457ca519eae23a2abd1e21208cd41bf32e05aa3cddc55b5ad7b37ae1feafbcd4",
    "trace": "f0e2262b8c25a5347b8d20e618be7ba03d6af4bec761bab8ad7bbd6a89816975",
    "reverse": "a9ba0de6e57fd6c61f252eaaa94e5c12ab95f3a68895412cec46e7b72cbdbde7",
    "kac-trace": "01dcca612b133a8e01f4041890b4cf064b4efa8a9a4877c28e1b48109bec8bca",
    "kac-ensemble": "9f27a6505c6c98da2442d18f765cf5e6b2e77b8406e1cf38445f4f76111b68e6",
}

# Histories of the kac-ensemble config that exceed epsilon somewhere in the
# bound window; the count reaches only the summary JSON, not the CSV.
KAC_WINDOW_EXCEED = 917


def _digest(tmp_path, name, workers):
    command, csv_name, body = CONFIGS[name]
    out = tmp_path / f"{name}-w{workers}"
    ini = tmp_path / f"{name}.ini"
    ini.write_text(f"[{command}]\n{body}out = {out}\n", encoding="utf-8")
    assert main([command, "--config", str(ini), "--workers", str(workers)]) == 0
    return hashlib.sha256((out / csv_name).read_bytes()).hexdigest()


def _summary(tmp_path, name, workers):
    command = CONFIGS[name][0]
    path = tmp_path / f"{name}-w{workers}" / (command.replace("-", "_") + "_summary.json")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["scaling-1d", "scaling-2d"])
@pytest.mark.parametrize("workers", [1, 2])
def test_scaling_csv_digest(tmp_path, name, workers):
    assert _digest(tmp_path, name, workers) == DIGESTS[name]


@pytest.mark.parametrize("name", ["trace", "reverse", "kac-trace"])
def test_single_history_csv_digest(tmp_path, name):
    assert _digest(tmp_path, name, 1) == DIGESTS[name]


@pytest.mark.parametrize("workers", [1, 2])
def test_kac_ensemble_csv_digest(tmp_path, workers):
    assert _digest(tmp_path, "kac-ensemble", workers) == DIGESTS["kac-ensemble"]
    results = _summary(tmp_path, "kac-ensemble", workers)["results"]
    assert results["window_exceed_fraction"] == KAC_WINDOW_EXCEED / 1100
