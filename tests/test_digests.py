"""SHA-256 pins of gas CSVs written through the command line.

The digests were recorded before the gas streaming kernel was rebuilt and
must not move when the kernel, the sampling path or the process pool
changes: any such change that alters a single byte of a result is a
behaviour change, not a refactor.
"""
from __future__ import annotations

import hashlib

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
}

DIGESTS = {
    "scaling-1d": "c270e0cc598fdbc84cca6c7565aab0d762d0050afdfd3ba581693e24f1e1b360",
    "scaling-2d": "457ca519eae23a2abd1e21208cd41bf32e05aa3cddc55b5ad7b37ae1feafbcd4",
    "trace": "f0e2262b8c25a5347b8d20e618be7ba03d6af4bec761bab8ad7bbd6a89816975",
    "reverse": "a9ba0de6e57fd6c61f252eaaa94e5c12ab95f3a68895412cec46e7b72cbdbde7",
}


def _digest(tmp_path, name, workers):
    command, csv_name, body = CONFIGS[name]
    out = tmp_path / f"{name}-w{workers}"
    ini = tmp_path / f"{name}.ini"
    ini.write_text(f"[{command}]\n{body}out = {out}\n", encoding="utf-8")
    assert main([command, "--config", str(ini), "--workers", str(workers)]) == 0
    return hashlib.sha256((out / csv_name).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["scaling-1d", "scaling-2d"])
@pytest.mark.parametrize("workers", [1, 2])
def test_scaling_csv_digest(tmp_path, name, workers):
    assert _digest(tmp_path, name, workers) == DIGESTS[name]


@pytest.mark.parametrize("name", ["trace", "reverse"])
def test_single_history_csv_digest(tmp_path, name):
    assert _digest(tmp_path, name, 1) == DIGESTS[name]
