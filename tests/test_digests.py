"""SHA-256 pins of the CSVs written through the command line.

The gas digests were recorded before the gas streaming kernel was rebuilt,
the ring digests before the ring ensemble moved onto the rotating-frame
kernel, the gas-mean, kac-brute, bounds and macro digests before every CSV
went through one writer, and the Gaussian and 2-D gas-mean digests before
the Fourier series got one stopping rule for every momentum law, and the
N = 1001 ring digest before the ring chunk moved to cache-sized tiles and
re-keyed streams, the scaling-drops digest before the gas chunk dropped
exceeded histories by swap-fill, the two ``position = point`` digests
before the point law took over the command line's point check, and the two
tabulated-momentum samples before the tabulated law built its inverse-CDF
tables once.  None may move when a kernel, the sampling
path, the process pool, the writer or the series evaluation changes: any
such change that alters a single byte of a result is a behaviour change, not
a refactor.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from equilab.cli import main

_TIMES = ",".join(f"{0.1 * i:.1f}" for i in range(101))

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
    # Histories exceed on almost every one of the 25 steps: at N = 20, 196
    # are dead by K = 1 and 699 by K = 25; 700 histories make two full
    # chunks and one partial one.
    "scaling-drops": (
        "gas-scaling", "gas_scaling.csv",
        f"n_values = 20,60\nk_values = {','.join(map(str, range(1, 26)))}\n"
        "histories = 700\nepsilon = 0.15\ndt = 0.3\nregion = 0,0.5\nseed = 13\n",
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
    # N = 1001 is not a multiple of 8, so each ring row ends in padding;
    # 700 histories make one full chunk and one partial one, and the bound
    # window [5, 31.57] ends between two integer times.
    "kac-ensemble-odd": (
        "kac-ensemble", "kac_ensemble.csv",
        "n = 1001\nmu = 0.3\nhistories = 700\nt_max = 40\nepsilon = 0.08\n"
        "alpha = 0.6\nseed = 19\n",
    ),
    # A tabulated momentum law with the decay fit; t = 0 writes the mean 1.
    "gas-mean": (
        "gas-mean", "gas_mean.csv",
        "region = 0.1,0.6\nt_values = 0,0.25,0.5,1,2,3.5,7\nmomentum = tabulated\n"
        "momentum_grid = -2,-1,0,0.5,2\nmomentum_density = 0,1,3,1,0.2\nfit = true\n",
    ),
    # The Gaussian law on 101 times with the decay fit, and a 2-D box.
    "gas-mean-gaussian": (
        "gas-mean", "gas_mean.csv",
        f"region = 0,0.5\nt_values = {_TIMES}\nfit = true\n",
    ),
    "gas-mean-box2d": (
        "gas-mean", "gas_mean.csv",
        f"region = 0,0.5;0.25,0.75\nt_values = {_TIMES}\n",
    ),
    # All particles start at one point: a 2-D trace and a tabulated mean.
    "trace-point": (
        "gas-trace", "gas_trace.csv",
        "n = 500\nregion = 0,0.5;0.25,0.75\ndt = 0.05\nk_count = 100\n"
        "position = point\nposition_point = 0.25,0.5\nseed = 3\n",
    ),
    "gas-mean-point": (
        "gas-mean", "gas_mean.csv",
        "region = 0.1,0.6\nt_values = 0,0.25,0.5,1,2,3.5,7\nposition = point\n"
        "position_point = 0.3\nmomentum = tabulated\n"
        "momentum_grid = -2,-1,0,0.5,2\nmomentum_density = 0,1,3,1,0.2\n",
    ),
    # Tabulated momenta sampled by inverse CDF: a trace and a scaling run.
    "trace-tabulated": (
        "gas-trace", "gas_trace.csv",
        "n = 1000\nregion = 0,0.5\ndt = 0.05\nk_count = 100\nmomentum = tabulated\n"
        "momentum_grid = -2,-1,0,0.5,2\nmomentum_density = 0,1,3,1,0.2\nseed = 3\n",
    ),
    "scaling-tabulated": (
        "gas-scaling", "gas_scaling.csv",
        "n_values = 50,200\nk_values = 1,4,10\nhistories = 300\nepsilon = 0.06\n"
        "dt = 0.7\nregion = 0,0.5\nmomentum = tabulated\nmomentum_grid = -3,-1,0,1,3\n"
        "momentum_density = 0,0.5,1,0.5,0\nseed = 7\n",
    ),
    "kac-brute": (
        "kac-brute", "kac_brute.csv",
        "n = 13\nmu = 0.3\nt = 9\n",
    ),
    # The Hoeffding and scenario rows write the literal "underflow".
    "bounds": (
        "bounds", "bounds.csv",
        "epsilon = 0.04\nn = 1000000\nk_count = 1e6\neta = 0.3\nl_count = 100\n"
        "c_mu = 0.5\nr = 1.0\n",
    ),
    "macro": (
        "macro", "macro_bounds.csv",
        "n0 = 3e19\ncell_volume = 1.0\nsub_volume = 1e-3\ndelta_pi = 5e-6\n"
        "k_count = 1e9\n",
    ),
}

DIGESTS = {
    "scaling-1d": "c270e0cc598fdbc84cca6c7565aab0d762d0050afdfd3ba581693e24f1e1b360",
    "scaling-2d": "457ca519eae23a2abd1e21208cd41bf32e05aa3cddc55b5ad7b37ae1feafbcd4",
    "scaling-drops": "a912b974488525a64b2f49df939b6c2c3304da2edff6a1fea8cc8b64948e29be",
    "trace": "f0e2262b8c25a5347b8d20e618be7ba03d6af4bec761bab8ad7bbd6a89816975",
    "reverse": "a9ba0de6e57fd6c61f252eaaa94e5c12ab95f3a68895412cec46e7b72cbdbde7",
    "kac-trace": "01dcca612b133a8e01f4041890b4cf064b4efa8a9a4877c28e1b48109bec8bca",
    "kac-ensemble": "692644fa44ddd510847ed485819ba149c9cfdb8f6288edbe2c8c711730e7744b",
    "kac-ensemble-odd": "b3593bf8ebef6e72fbb48dc92688671b7567a74f61e488be386e467241251523",
    "gas-mean": "9cdbff04d6e6a8637225f3224e734671457cdef5c8020c00875248ed8887f90b",
    "gas-mean-gaussian": "8ba389d2dc7b7c2d5b316eb3bbed8e1745b1df1b7900f0f826402c3201c048c8",
    "gas-mean-box2d": "56f71be4f9ba43d940ae1f5c062e406ad292a51f3f1e8044d09d8ec0b3f27ba0",
    "trace-point": "5de4d90938b74281df5f887131b326605918767874cb8679c0c5d99c20b6af1a",
    "gas-mean-point": "cd8b35e28bd58e2b014faebbc95af24032ada3c292b276639f2586ccd537484f",
    "trace-tabulated": "9062c8a685faaab85be4956e4339a3eb7dd12651e7078abc202f624d9aa0f0bc",
    "scaling-tabulated": "c44a88b648188c8135eb9db0b2dc35e1a4e79c44537fe10d5149bdde1e4c22f7",
    "kac-brute": "71d13f0048009cfed73b77c73520596fcdc119cb98da70d717ddecd30f298853",
    "bounds": "707253d2348df399a82cb2fd3ec557e2797cb49ea409d468410c9172f4c8118a",
    "macro": "889ae58a9399ae10ea71e897d62f16c7c7c1f75b9e8f0af7efa4154d976ad1b0",
}

# Histories of each kac-ensemble config that exceed epsilon somewhere in the
# bound window, out of all its histories; the count reaches only the summary
# JSON, not the CSV.
KAC_WINDOW_EXCEED = {"kac-ensemble": (917, 1100), "kac-ensemble-odd": (343, 700)}

# The decay fit of the gas-mean-gaussian config, which reaches only the
# summary JSON.
GAUSSIAN_DECAY = {"decay_c_mu": 1.8210955608981406e-07, "decay_r": 5.268244760733553}


def _digest(tmp_path, name, workers):
    command, csv_name, body = CONFIGS[name]
    out = tmp_path / f"{name}-w{workers}"
    ini = tmp_path / f"{name}.ini"
    ini.write_text(f"[{command}]\n{body}out = {out}\n", encoding="utf-8")
    # Only the pooled commands take a worker count.
    flags = ["--workers", str(workers)] if command in ("gas-scaling", "kac-ensemble") else []
    assert main([command, "--config", str(ini), *flags]) == 0
    return hashlib.sha256((out / csv_name).read_bytes()).hexdigest()


def _summary(tmp_path, name, workers):
    command = CONFIGS[name][0]
    path = tmp_path / f"{name}-w{workers}" / (command.replace("-", "_") + "_summary.json")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name", ["scaling-1d", "scaling-2d", "scaling-drops", "scaling-tabulated"]
)
@pytest.mark.parametrize("workers", [1, 2])
def test_scaling_csv_digest(tmp_path, name, workers):
    assert _digest(tmp_path, name, workers) == DIGESTS[name]


@pytest.mark.parametrize(
    "name", ["trace", "reverse", "kac-trace", "trace-point", "trace-tabulated"]
)
def test_single_history_csv_digest(tmp_path, name):
    assert _digest(tmp_path, name, 1) == DIGESTS[name]


@pytest.mark.parametrize(
    "name",
    ["gas-mean", "gas-mean-gaussian", "gas-mean-box2d", "gas-mean-point", "kac-brute",
     "bounds", "macro"],
)
def test_analytic_csv_digest(tmp_path, name):
    assert _digest(tmp_path, name, 1) == DIGESTS[name]


def test_gaussian_decay_fit_is_exact(tmp_path):
    _digest(tmp_path, "gas-mean-gaussian", 1)
    results = _summary(tmp_path, "gas-mean-gaussian", 1)["results"]
    assert {k: results[k] for k in GAUSSIAN_DECAY} == GAUSSIAN_DECAY


def _check_kac_ensemble(tmp_path, name, workers):
    assert _digest(tmp_path, name, workers) == DIGESTS[name]
    results = _summary(tmp_path, name, workers)["results"]
    hits, histories = KAC_WINDOW_EXCEED[name]
    assert results["window_exceed_fraction"] == hits / histories


@pytest.mark.parametrize("workers", [1, 2])
def test_kac_ensemble_csv_digest(tmp_path, workers):
    _check_kac_ensemble(tmp_path, "kac-ensemble", workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_kac_ensemble_odd_width_csv_digest(tmp_path, workers):
    _check_kac_ensemble(tmp_path, "kac-ensemble-odd", workers)
