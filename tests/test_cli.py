"""Config parsing, exit codes, and end-to-end runs of the command line."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from equilab import (
    DecayEstimate, GaussianMomenta, InitialMeasureSpec, KacConfiguration, RngStream,
    ScalingExperimentSpec, TimeGrid, TorusRegion, UniformPositions,
    analytic, brute_force_expectation, cli, delta_closed_form, equilibration_time,
    expected_delta_bar, expected_fraction, fit_decay, hoeffding_tail, log_sequence_capacity,
    macro_estimator, markov_bound, partition_scenario_bound, ring_bound_schedule, ring_trace,
    reversal_round_trip, run_fluctuation_trace, run_gas_scaling, run_kac_ensemble,
    sample_markers, sample_microstate, scenario_bound, thermal_momenta,
)
from equilab.cli import COMMANDS, ConfigError, main, parse_config

GAS_TRACE_INI = """
[gas-trace]
n = 100
region = 0,0.5
dt = 0.5
k_count = 10
"""

SCALING_INI = """
[gas-scaling]
n_values = 50,100
k_values = 1,3
histories = 200
epsilon = 0.04
dt = 5.0
region = 0,0.5
position_region = 0,1
"""


def _errors(file_text, command, overrides=None):
    with pytest.raises(ConfigError) as info:
        parse_config(file_text, command, overrides)
    return info.value.errors


# ---------------------------------------------------------------------------
# Parsing and validation


def test_minimal_gas_trace_config_fills_defaults():
    cfg = parse_config(GAS_TRACE_INI, "gas-trace")
    assert cfg.command == "gas-trace"
    assert cfg.master_seed == 0
    assert cfg.worker_count == 1
    assert cfg.output_path == "."
    p = cfg.parameters
    assert p["n"] == 100
    assert p["t0"] == 0.0
    assert p["position"] == "uniform"
    assert p["position_region"] == p["region"]  # defaults to the observed region
    assert p["momentum"] == "gaussian"
    assert p["mean_speed"] == 1.0
    assert p["sigma"] is None
    assert "seed" not in p  # run controls are split out of the parameter block


def test_flag_overrides_beat_config_values():
    text = GAS_TRACE_INI + "seed = 3\n"
    assert parse_config(text, "gas-trace").master_seed == 3
    cfg = parse_config(text, "gas-trace", {"seed": "7", "k_count": "4"})
    assert cfg.master_seed == 7
    assert cfg.parameters["k_count"] == 4


def test_sections_for_other_commands_are_ignored():
    text = GAS_TRACE_INI + "\n[kac-trace]\nn = 64\nmu = 0.25\nt_max = 10\n"
    cfg = parse_config(text, "gas-trace")
    assert cfg.parameters["n"] == 100
    kac = parse_config(text, "kac-trace")
    assert kac.parameters == {"n": 64, "mu": 0.25, "t_max": 10}


def test_integer_keys_accept_scientific_notation():
    cfg = parse_config(SCALING_INI, "gas-scaling", {"histories": "1e5"})
    assert cfg.parameters["histories"] == 100000
    errs = _errors(SCALING_INI, "gas-scaling", {"histories": "1.5e0"})
    assert any(e.startswith("histories:") for e in errs)


def test_epsilon_out_of_range_is_itemized(tmp_path, capsys):
    # Parsing takes any finite epsilon; the library's refusal is one line.
    assert parse_config(SCALING_INI, "gas-scaling", {"epsilon": "1.5"}).parameters["epsilon"] == 1.5
    assert _run(tmp_path, "gas-scaling", SCALING_INI, "--epsilon", "1.5") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: epsilon:")


def test_unknown_key_is_rejected():
    errs = _errors(GAS_TRACE_INI + "banana = 3\n", "gas-trace")
    assert errs == ["banana: unknown key for gas-trace"]


def test_missing_required_keys_all_reported():
    errs = _errors("[gas-trace]\nn = 10\n", "gas-trace")
    missing = {e.split(":")[0] for e in errs}
    assert missing == {"region", "dt", "k_count"}


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        parse_config("", "gas-warp")


def test_region_converter_handles_boxes():
    cfg = parse_config(
        "[gas-mean]\nregion = 0,0.5;0.25,0.75\nt_values = 1.0\n", "gas-mean"
    )
    assert cfg.parameters["region"] == ((0.0, 0.25), (0.5, 0.75))
    errs = _errors("[gas-mean]\nregion = 0,0.5,1\nt_values = 1.0\n", "gas-mean")
    assert errs[0].startswith("region:")


@pytest.mark.parametrize(
    "section, key",
    [
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nsigma=1\nmean_speed=1\n", "sigma"),
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nposition=point\n", "position_point"),
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nposition=point\nposition_point=0.1,0.2\n", "position_point"),
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nposition_region=0,0.5;0,1\n", "position_region"),
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nposition_region=0.2,0.2\n", "position_region"),
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nmomentum=tabulated\n", "momentum_grid"),
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nmomentum=tabulated\nmomentum_grid=0,1\nmomentum_density=-1,1\n", "momentum_grid"),
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1\nk_count=2\nmomentum_grid=0,1\n", "momentum_grid"),
        ("[gas-reverse]\nn=10\nregion=0,0.5\nreverse_time=1.0\ndt=0.3\n", "reverse_time"),
        ("[kac-trace]\nn=16\nmu=0.25\nt_max=33\n", "t_max"),
        ("[kac-trace]\nn=16\nmu=0\nt_max=8\n", "mu"),
        ("[kac-ensemble]\nn=64\nmu=1.0\nhistories=10\nt_max=8\nepsilon=0.2\nalpha=0.5\n", "mu"),
        ("[kac-brute]\nn=8\nmu=0.25\nt=17\n", "t"),
        ("[bounds]\nepsilon=0.04\nn=1000\nc_mu=0.5\n", "c_mu"),
        ("[macro]\nn0=1e19\ncell_volume=1e-3\nsub_volume=1.0\ndelta_pi=5e-6\n", "sub_volume"),
        (SCALING_INI.lstrip().replace("n_values = 50,100", "n_values = 0,100"), "n_values"),
        (SCALING_INI.lstrip().replace("k_values = 1,3", "k_values = -1,3"), "k_values"),
        # Grids whose last instant overflows, or whose instants collapse onto
        # t0 = 1e20: once exit 3 after a warning, exit 3, and a silent exit 0.
        ("[gas-trace]\nn=10\nregion=0,0.5\ndt=1e308\nk_count=10\n", "dt"),
        ("[gas-trace]\nn=10\nregion=0,0.5\nt0=1e20\ndt=1\nk_count=3\n", "dt"),
        (SCALING_INI.lstrip().replace("dt = 5.0", "t0 = 1e20\ndt = 1"), "dt"),
    ],
)
def test_cross_field_checks(tmp_path, capsys, section, key):
    # Key combinations are refused while parsing, values by the library when
    # the command runs; both exit 2 with a line under the key.
    command = section[1:section.index("]")]
    out = tmp_path / "out"
    assert _run(tmp_path, command, section, "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith(f"config error: {key}:") for line in lines), lines
    assert not out.exists()


_TRACE_KEYS = "[gas-trace]\nn=10\ndt=1\nk_count=2\n"


@pytest.mark.parametrize(
    "section, line",
    [
        (_TRACE_KEYS + "region=0,0.5\nposition=point\nposition_point=0.1,0.2\n",
         "position_point: position law dimension 2 does not match region dimension 1"),
        (_TRACE_KEYS + "region=0,0.5\nposition_region=0,0.5;0,1\n",
         "position_region: position law dimension 2 does not match region dimension 1"),
        (_TRACE_KEYS + "region=0,0.5\nposition_region=0.2,0.2\n",
         "position_region: uniform position law needs a region of positive measure"),
        (_TRACE_KEYS + "region=0,0.5;0,0.5;0,0.5;0,0.5\n",
         "mean_speed: mean-speed calibration is defined for dim in {1, 2, 3}"),
        (_TRACE_KEYS + "region=0,0.5\nmomentum=tabulated\nmomentum_grid=0,1\n"
         "momentum_density=-1,1\n", "momentum_grid: density values must be >= 0"),
        (_TRACE_KEYS + "region=0,0.5\nposition=banana\n",
         "position: must be one of uniform, point; got 'banana'"),
        (SCALING_INI.replace("k_values = 1,3", "k_values = 3,1"),
         "k_values: must be nonempty and strictly increasing, got (3, 1)"),
        ("[gas-mean]\nregion=0,0.5\nt_values=1\nfit=maybe\n",
         "fit: expected a boolean, got 'maybe'"),
    ],
    ids=["point_dim", "region_dim", "region_width", "mean_speed_dim", "tabulated", "choice",
         "increasing", "bool"],
)
def test_config_error_lines(tmp_path, capsys, section, line):
    command = section[section.index("[") + 1:section.index("]")]
    assert _run(tmp_path, command, section, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]


def test_malformed_config_file_is_one_config_error():
    errs = _errors("region = 0,0.5\n", "gas-trace")
    assert len(errs) == 1 and errs[0].startswith("config: File contains no section headers")


@pytest.mark.parametrize("value", ["0", "false", "No", " off "])
def test_bool_keys_accept_false_spellings(value):
    cfg = parse_config(f"[gas-mean]\nregion=0,0.5\nt_values=1\nfit={value}\n", "gas-mean")
    assert cfg.parameters["fit"] is False


def test_multiple_errors_collected_together():
    errs = _errors(
        SCALING_INI, "gas-scaling",
        {"epsilon": "abc", "histories": "1.5", "dt": "inf", "seed": "-1", "banana": "3"},
    )
    keys = {e.split(":")[0] for e in errs}
    assert keys == {"epsilon", "histories", "dt", "seed", "banana"}


def test_library_refusal_is_one_line_the_first(tmp_path, capsys):
    # Values pass parsing; the library stops at the first it refuses.
    values = {"epsilon": "2", "histories": "0", "dt": "-1"}
    assert parse_config(SCALING_INI, "gas-scaling", values).parameters["dt"] == -1.0
    flags = [text for key, value in values.items() for text in ("--" + key, value)]
    out = tmp_path / "out"
    assert _run(tmp_path, "gas-scaling", SCALING_INI, *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: dt: must be finite and > 0, got -1.0"]
    assert not out.exists()


def test_all_commands_have_schemas():
    assert set(COMMANDS) == {
        "gas-trace", "gas-mean", "gas-scaling", "gas-reverse",
        "kac-trace", "kac-ensemble", "kac-brute", "bounds", "macro",
    }


# ---------------------------------------------------------------------------
# End-to-end runs through main()


def _run(tmp_path, command, ini_text, *flags):
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text)
    return main([command, "--config", str(ini), *flags])


def _summary(out_dir, command):
    path = out_dir / (command.replace("-", "_") + "_summary.json")
    return json.loads(path.read_text())


# A tiny config per command and the one CSV its run writes.
TINY_RUNS = {
    "gas-trace": ("gas_trace.csv", GAS_TRACE_INI),
    "gas-mean": ("gas_mean.csv", "[gas-mean]\nregion = 0,0.5\nt_values = 0,1\n"),
    "gas-scaling": ("gas_scaling.csv", SCALING_INI),
    "gas-reverse": (
        "gas_reverse.csv",
        "[gas-reverse]\nn = 50\nregion = 0,0.5\nreverse_time = 1\ndt = 0.5\n",
    ),
    "kac-trace": ("kac_trace.csv", "[kac-trace]\nn = 16\nmu = 0.3\nt_max = 32\n"),
    "kac-ensemble": (
        "kac_ensemble.csv",
        "[kac-ensemble]\nn = 16\nmu = 0.3\nhistories = 20\nt_max = 8\nepsilon = 0.2\n",
    ),
    "kac-brute": ("kac_brute.csv", "[kac-brute]\nn = 6\nmu = 0.3\nt = 3\n"),
    "bounds": ("bounds.csv", "[bounds]\nepsilon = 0.1\nn = 100\n"),
    "macro": (
        "macro_bounds.csv",
        "[macro]\nn0 = 1e19\ncell_volume = 1\nsub_volume = 1e-3\ndelta_pi = 5e-6\n",
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_writes_one_csv_and_its_summary(tmp_path, command):
    csv_name, ini = TINY_RUNS[command]
    out = tmp_path / "out"
    assert _run(tmp_path, command, ini, "--out", str(out)) == 0
    assert _summary(out, command)["outputs"] == [csv_name]
    summary_name = command.replace("-", "_") + "_summary.json"
    assert sorted(p.name for p in out.iterdir()) == sorted([csv_name, summary_name])


def test_gas_trace_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    code = _run(tmp_path, "gas-trace", GAS_TRACE_INI, "--out", str(out), "--seed", "5")
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    lines = (out / "gas_trace.csv").read_text().splitlines()
    assert lines[0] == "t,f"
    assert len(lines) == 11  # header + k_count rows
    summary = _summary(out, "gas-trace")
    assert summary["command"] == "gas-trace"
    assert summary["master_seed"] == 5
    assert summary["parameters"]["n"] == 100
    assert summary["outputs"] == ["gas_trace.csv"]
    assert summary["wall_time_s"] >= 0.0
    assert summary["results"]["rows"] == 10


def test_gas_trace_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run(tmp_path, "gas-trace", GAS_TRACE_INI, "--out", str(out)) == 0
        outs.append((out / "gas_trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_gas_trace_seed_changes_output(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _run(tmp_path, "gas-trace", GAS_TRACE_INI, "--out", str(out_a), "--seed", "1")
    _run(tmp_path, "gas-trace", GAS_TRACE_INI, "--out", str(out_b), "--seed", "2")
    assert (out_a / "gas_trace.csv").read_bytes() != (out_b / "gas_trace.csv").read_bytes()


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in COMMANDS)


def test_command_help_lists_its_keys_only(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gas-mean", "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: equilab gas-mean")
    for flag in ("--config", "--t-values", "--tail-tol", "--fit-epsilon", "--seed", "--out"):
        assert flag in text
    assert "--histories" not in text and "--mu" not in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gas-warp"], "invalid choice: 'gas-warp'"),
        (["gas-mean", "--histories", "3"], "unrecognized arguments: --histories 3"),
        ([], "required: command"),
    ],
    ids=["unknown_command", "unknown_flag", "no_arguments"],
)
def test_argument_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_flag_after_the_command_overrides_the_config(tmp_path):
    out = tmp_path / "out"
    ini = "[kac-brute]\nn = 6\nmu = 0.3\nt = 3\nseed = 1\n"
    assert _run(tmp_path, "kac-brute", ini, "--out", str(out), "--t", "4", "--seed", "9") == 0
    summary = _summary(out, "kac-brute")
    assert summary["parameters"]["t"] == 4
    assert summary["master_seed"] == 9


def test_config_error_exit_code_and_stderr(tmp_path, capsys):
    code = _run(tmp_path, "gas-scaling", SCALING_INI, "--epsilon", "1.5")
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: epsilon: must lie in (0, 1), got 1.5"]


@pytest.mark.parametrize(
    "body,key",
    [
        ("t_values = 1\nmomentum = tabulated\nmomentum_grid = -1,nan,1\n"
         "momentum_density = 0,1,0\n", "momentum_grid"),
        ("t_values = 1\nmomentum = tabulated\nmomentum_grid = -1,0,inf\n"
         "momentum_density = 0,1,0\n", "momentum_grid"),
        ("t_values = 1\nmomentum = tabulated\nmomentum_grid = -1,0,1\n"
         "momentum_density = 0,inf,0\n", "momentum_density"),
        ("t_values = -1\n", "t_values"),
        ("t_values = 0,nan,1\n", "t_values"),
    ],
)
def test_float_list_rejects_non_finite_and_negative_times(tmp_path, capsys, body, key):
    out = tmp_path / "out"
    code = _run(tmp_path, "gas-mean", f"[gas-mean]\nregion = 0,0.5\n{body}", "--out", str(out))
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {key}: ")
    assert not out.exists()


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["gas-trace", "--config", "/nonexistent/run.ini"]) == 2
    assert "cannot read" in capsys.readouterr().err
    # A file that is not valid UTF-8 is unreadable too: one line, exit 2.
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"\xff\xfe[kac-brute]\nn=8\n")
    assert main(["kac-brute", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config: cannot read {bad}:") and err.count("\n") == 1


def test_kac_brute_site_limit_is_config_error(tmp_path, capsys):
    code = _run(tmp_path, "kac-brute", "[kac-brute]\nn=25\nmu=0.25\nt=5\n")
    assert code == 2
    assert "n:" in capsys.readouterr().err


def test_runtime_failure_exit_code(tmp_path, capsys):
    # An output path that is a file passes validation, but the run cannot
    # make it a directory.
    out = tmp_path / "out"
    out.write_text("")
    code = _run(tmp_path, "kac-brute", TINY_RUNS["kac-brute"][1], "--out", str(out))
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_kac_ensemble_window_at_mu_one_is_a_config_error(tmp_path, capsys):
    # The mean never decays at mu = 1, so alpha's window can never exist;
    # without alpha the same ring runs.
    ini = "[kac-ensemble]\nn=64\nmu=1.0\nhistories=10\nt_max=8\nepsilon=0.2\n"
    out = tmp_path / "out"
    assert _run(tmp_path, "kac-ensemble", ini + "alpha=0.5\n", "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: mu: ")
    assert not out.exists()
    assert _run(tmp_path, "kac-ensemble", ini, "--out", str(out)) == 0


@pytest.mark.parametrize(
    "point, message",
    [
        ("1.0", "point coordinates must lie in [0, 1)"),
        ("-0.25", "point coordinates must lie in [0, 1)"),
        ("nan", "must be finite, got 'nan'"),
        ("", "list must not be empty"),
        (" , ", "list must not be empty"),
    ],
)
def test_point_position_errors_exit_2(tmp_path, capsys, point, message):
    ini = f"{GAS_TRACE_INI}position = point\nposition_point = {point}\n"
    out = tmp_path / "out"
    assert _run(tmp_path, "gas-trace", ini, "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: position_point: {message}"]
    assert not out.exists()


def test_kac_ensemble_workers_do_not_change_bytes(tmp_path):
    ini = "[kac-ensemble]\nn=64\nmu=0.25\nhistories=600\nt_max=16\nepsilon=0.2\n"
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert _run(tmp_path, "kac-ensemble", ini, "--out", str(out),
                    "--workers", workers) == 0
        blobs.append((out / "kac_ensemble.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_kac_trace_recurrence_in_summary(tmp_path):
    out = tmp_path / "out"
    ini = "[kac-trace]\nn=40\nmu=0.3\nt_max=80\nseed=9\n"
    assert _run(tmp_path, "kac-trace", ini, "--out", str(out)) == 0
    summary = _summary(out, "kac-trace")
    res = summary["results"]
    assert res["closed_form_final_matches"] is True
    # One full period returns every color, so delta recurs exactly.
    assert res["delta_final"] == res["delta_initial"]
    lines = (out / "kac_trace.csv").read_text().splitlines()
    assert lines[0] == "t,delta,delta_bar"
    assert len(lines) == 82


def test_kac_brute_matches_product_formula(tmp_path):
    out = tmp_path / "out"
    ini = "[kac-brute]\nn=10\nmu=0.25\nt=6\n"
    assert _run(tmp_path, "kac-brute", ini, "--out", str(out)) == 0
    res = _summary(out, "kac-brute")["results"]
    assert res["product_formula_mean"] == pytest.approx(0.5**6, rel=1e-12)
    assert res["product_formula_gap"] < 1e-12
    lines = (out / "kac_brute.csv").read_text().splitlines()
    assert lines[0] == "t,mean,variance"


def test_bounds_command_known_values(tmp_path):
    out = tmp_path / "out"
    ini = "[bounds]\nepsilon = 0.04\nn = 1000000\nk_count = 1\n"
    assert _run(tmp_path, "bounds", ini, "--out", str(out)) == 0
    res = _summary(out, "bounds")["results"]
    assert res["log_sequence_capacity"] == pytest.approx(400.0 - math.log(2.0), rel=1e-12)
    rows = {line.split(",")[0]: line.split(",")
            for line in (out / "bounds.csv").read_text().splitlines()[1:]}
    assert set(rows) == {
        "hoeffding_single_time", "scenario_sequence",
        "partition_sequence", "markov_single_time",
    }
    assert float(rows["markov_single_time"][2]) == pytest.approx(2.5e-3, rel=1e-12)


def test_bounds_with_decay_reports_equilibration_time(tmp_path):
    out = tmp_path / "out"
    ini = "[bounds]\nepsilon = 0.04\nn = 1000\nc_mu = 0.5\nr = 1.0\n"
    assert _run(tmp_path, "bounds", ini, "--out", str(out)) == 0
    res = _summary(out, "bounds")["results"]
    # t0 = (c / (eta * eps))^(1 / (2 r)) with the default eta = 1/2.
    assert res["equilibration_time"] == pytest.approx(math.sqrt(0.5 / 0.02), rel=1e-12)


def test_equilibration_time_past_float_range_is_inf(tmp_path, capsys, monkeypatch):
    # 2000^100 once raised OverflowError, and the command exited 3.
    out = tmp_path / "out"
    assert main(["bounds", "--epsilon", "0.001", "--n", "100", "--c-mu", "1", "--r", "0.005",
                 "--out", str(out)]) == 0
    assert _summary(out, "bounds")["results"]["equilibration_time"] == math.inf
    # gas-mean's fit feeds the same formula; a small fitted r gives the same inf.
    monkeypatch.setattr(cli, "fit_decay", lambda ts, devs: DecayEstimate(1.0, 0.005))
    ini = "[gas-mean]\nregion = 0,0.5\nt_values = 1,2\nfit = true\nfit_epsilon = 0.001\n"
    assert _run(tmp_path, "gas-mean", ini, "--out", str(out)) == 0
    assert _summary(out, "gas-mean")["results"]["equilibration_time"] == math.inf
    assert capsys.readouterr().err == ""


def test_macro_summary_reports_exponent(tmp_path):
    out = tmp_path / "out"
    ini = "[macro]\nn0 = 3e19\ncell_volume = 1.0\nsub_volume = 1e-3\ndelta_pi = 5e-6\n"
    assert _run(tmp_path, "macro", ini, "--out", str(out)) == 0
    res = _summary(out, "macro")["results"]
    assert res["single_time_exponent"] == pytest.approx(-1500.0, rel=1e-12)
    assert res["single_time_underflows"] is True
    lines = (out / "macro_bounds.csv").read_text().splitlines()
    assert lines[0] == "quantity,log_value,linear_value_or_underflow"
    row = lines[1].split(",")
    assert row[0] == "macro_single_time"
    assert row[2] == "underflow"


def test_gas_mean_with_fit(tmp_path):
    out = tmp_path / "out"
    ini = (
        "[gas-mean]\nregion = 0,0.5\nt_values = 0.5,1.0,1.5,2.0\n"
        "sigma = 0.25\nfit = true\n"
    )
    assert _run(tmp_path, "gas-mean", ini, "--out", str(out)) == 0
    res = _summary(out, "gas-mean")["results"]
    assert res["decay_c_mu"] > 0
    assert res["decay_r"] > 0
    assert res["equilibration_time"] > 0
    lines = (out / "gas_mean.csv").read_text().splitlines()
    assert lines[0] == "t,mean"
    assert len(lines) == 5


def test_gas_mean_failing_fit_writes_no_csv(tmp_path, capsys):
    # One positive time is too few to fit; the run must fail before its CSV
    # replaces an earlier run's, and must not create a missing directory.
    out = tmp_path / "out"
    ini = "[gas-mean]\nregion = 0,0.5\nt_values = {}\nfit = true\n"
    assert _run(tmp_path, "gas-mean", ini.format("0.3,0.7,1.3"), "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert _run(tmp_path, "gas-mean", ini.format("1.0"), "--out", str(out)) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    fresh = tmp_path / "fresh"
    assert _run(tmp_path, "gas-mean", ini.format("1.0"), "--out", str(fresh)) == 3
    assert not fresh.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_gas_mean_fit_reuses_the_computed_means(tmp_path, monkeypatch):
    # 101 times, t = 0 among them: one call carries every time, and nothing
    # is recomputed for the decay fit.  test_digests pins the fit itself to
    # the last bit.
    calls = []
    original = analytic.expected_fraction

    def counted(*args, **kwargs):
        calls.append(list(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "expected_fraction", counted)
    monkeypatch.setattr(analytic, "expected_fraction", counted)
    times = [0.1 * i for i in range(101)]
    out = tmp_path / "out"
    ini = f"[gas-mean]\nregion = 0,0.5\nt_values = {','.join(map(str, times))}\nfit = true\n"
    assert _run(tmp_path, "gas-mean", ini, "--out", str(out)) == 0
    assert calls == [times]
    assert _summary(out, "gas-mean")["results"]["decay_r"] > 0


def test_gas_reverse_restores_positions(tmp_path):
    out = tmp_path / "out"
    ini = "[gas-reverse]\nn = 500\nregion = 0,0.5\nreverse_time = 10.0\ndt = 2.0\n"
    assert _run(tmp_path, "gas-reverse", ini, "--out", str(out)) == 0
    res = _summary(out, "gas-reverse")["results"]
    assert res["max_position_error"] < 1e-9
    assert res["fraction_restored"] is True
    lines = (out / "gas_reverse.csv").read_text().splitlines()
    assert lines[0] == "t,f"
    assert len(lines) == 12  # 1 + (1 + 5 forward + 5 reversed)


def test_gas_scaling_run_reports_bound_comparisons(tmp_path):
    out = tmp_path / "out"
    assert _run(tmp_path, "gas-scaling", SCALING_INI, "--out", str(out),
                "--histories", "400") == 0
    res = _summary(out, "gas-scaling")["results"]
    assert len(res["bound_comparisons"]) == 4
    for entry in res["bound_comparisons"]:
        assert entry["within_bound"] is (entry["p_hat_over_k"] <= entry["bound"])
    lines = (out / "gas_scaling.csv").read_text().splitlines()
    assert lines[0] == "N,K,deviations,M,p_hat,p_hat_over_K,stderr"
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# One owner per value rule: for every numeric key of every command, main()
# refuses a value (exit 2, one line under the key) exactly when the library
# calls that consume it refuse it, and with the library's own words.

_HALF = TorusRegion.interval(0.0, 0.5)


def _gas_trace_library(p):
    initial = InitialMeasureSpec(UniformPositions(_HALF), GaussianMomenta(p["sigma"]))
    grid = TimeGrid(p["t0"], p["dt"], p["k_count"])
    run_fluctuation_trace(p["n"], initial, _HALF, grid, 0)


def _gas_mean_library(p):
    initial = InitialMeasureSpec(UniformPositions(_HALF), GaussianMomenta(0.25))
    ts = sorted(set(p["t_values"]))
    devs = np.abs(expected_fraction(initial, _HALF, ts, p["tail_tol"]) - 0.5)
    decay = fit_decay([t for t in ts if t > 0], [d for t, d in zip(ts, devs) if t > 0])
    equilibration_time(decay, p["fit_epsilon"], p["fit_eta"])


def _gas_scaling_library(p):
    initial = InitialMeasureSpec(UniformPositions(TorusRegion.interval(0.0, 1.0)),
                                 thermal_momenta(1.0, 1))
    grid = TimeGrid(p["t0"], p["dt"], max(p["k_values"]))
    run_gas_scaling(ScalingExperimentSpec(p["n_values"], p["k_values"], p["histories"],
                                          p["epsilon"], grid, _HALF, initial, 0))


def _gas_reverse_library(p):
    initial = InitialMeasureSpec(UniformPositions(_HALF), thermal_momenta(1.0, 1))
    state = sample_microstate(initial, p["n"], 1, RngStream(0, 0))
    reversal_round_trip(state, _HALF, p["reverse_time"], p["dt"])


def _kac_trace_library(p):
    markers = sample_markers(p["n"], p["mu"], RngStream(0, 0))
    delta_closed_form(markers, p["t_max"])
    ring_trace(KacConfiguration.all_white(markers), p["t_max"])


def _kac_ensemble_library(p):
    window = None
    if p.get("alpha") is not None:
        window = ring_bound_schedule(p["epsilon"], p["alpha"], p["mu"]).window(p["n"])
    run_kac_ensemble(p["n"], p["mu"], p["histories"], p["t_max"], p["epsilon"], 0,
                     window=window)


def _kac_brute_library(p):
    brute_force_expectation(p["n"], p["mu"], p["t"])
    expected_delta_bar(p["mu"], p["t"], p["n"])


def _bounds_library(p):
    scenario_bound(p["epsilon"], p["n"], p["k_count"], p["eta"])
    hoeffding_tail(p["epsilon"], p["n"])
    partition_scenario_bound(p["epsilon"], p["n"], p["l_count"])
    markov_bound(p["epsilon"], p["n"])
    log_sequence_capacity(p["epsilon"], p["n"])
    if "c_mu" in p:
        equilibration_time(DecayEstimate(p["c_mu"], p["r"]), p["epsilon"], p["eta"])


def _macro_library(p):
    macro_estimator(p["n0"], p["cell_volume"], p["sub_volume"], p["delta_pi"], p["k_count"])


# command: (fixed INI lines, base values, the library calls the command makes,
# {key: [value, or (value, other keys' values)]})
_PARITY = {
    "gas-trace": (
        "region = 0,0.5\n", {"n": 20, "t0": 0.0, "dt": 0.5, "k_count": 3, "sigma": 1.0},
        _gas_trace_library,
        # k_count = 1e300 is past the grid's 2^53 limit; the CLI parses it as an int.
        # dt = 1e308 overflows the last instant, and dt = 1 at t0 = 1e20 adds
        # nothing to t0, so the instants would collapse onto one.
        {"n": [1, 0, -3], "t0": [2.5, -0.5],
         "dt": [1e-3, 0.0, -1.0, 1e308, (1.0, {"t0": 1e20})],
         "k_count": [1, 0, int(1e300)], "sigma": [1e-3, 0.0, -1.0]},
    ),
    "gas-mean": (
        "region = 0,0.5\nsigma = 0.25\nfit = true\n",
        {"t_values": (0.5, 1.0, 1.5, 2.0), "tail_tol": 1e-12, "fit_epsilon": 0.04,
         "fit_eta": 0.5},
        _gas_mean_library,
        {"t_values": [(0.0, 1.0, 2.0), (1.0, -1.0)], "tail_tol": [1e-6, 0.0, -1e-12],
         "fit_epsilon": [2.0, 0.0, -0.1], "fit_eta": [0.99, 1.0, 0.0, 1.5]},
    ),
    "gas-scaling": (
        "region = 0,0.5\nposition_region = 0,1\n",
        {"n_values": (20, 40), "k_values": (1, 2), "histories": 20, "epsilon": 0.1,
         "t0": 0.0, "dt": 5.0},
        _gas_scaling_library,
        {"n_values": [(20,), (0, 40), (40, 20), (20, 20)],
         "k_values": [(1,), (0,), (-1, 2), (2, 1), (int(1e300),)], "histories": [1, 0],
         "epsilon": [0.999, 1.0, 1.5, 0.0, -0.1], "t0": [1.0, -1.0],
         "dt": [1.0, 0.0, -5.0, (1.0, {"t0": 1e20})]},
    ),
    "gas-reverse": (
        "region = 0,0.5\n", {"n": 20, "reverse_time": 1.0, "dt": 0.5}, _gas_reverse_library,
        # T / dt = 1 / 0.3 is refused under reverse_time, the value that is no multiple,
        # and so is T / dt = 1 / 5e-324, which overflows to inf.
        {"n": [1, 0, -3],
         "reverse_time": [1.0, -1.0, 1.05, 0.0, (1.0, {"dt": 0.3}), (1.0, {"dt": 5e-324})],
         "dt": [0.5, 0.0, -0.5, (-0.5, {"reverse_time": -1.0})]},
    ),
    "kac-trace": (
        "", {"n": 16, "mu": 0.3, "t_max": 32}, _kac_trace_library,
        {"n": [100, 0, -1], "mu": [1.0, 0.0, 1.5, -0.1], "t_max": [0, 33, -1]},
    ),
    "kac-ensemble": (
        "", {"n": 16, "mu": 0.3, "histories": 20, "t_max": 8, "epsilon": 0.2},
        _kac_ensemble_library,
        {"n": [100, 4, 0], "mu": [1.0, 0.0, 1.5],
         "histories": [1, 0, (10**12, {"n": 4096})], "t_max": [32, 33, -1],
         "epsilon": [0.999, 1.0, 1.5, 0.0],
         "alpha": [(0.5, {"n": 4096}), (0.5, {"n": 16}), (0.0, {"n": 4096}),
                   (1.0, {"n": 4096})]},
    ),
    "kac-brute": (
        "", {"n": 6, "mu": 0.3, "t": 3}, _kac_brute_library,
        {"n": [20, 21, 0], "mu": [0.0, 1.0, 1.5, -0.5], "t": [7, 12, 13, -1]},
    ),
    "bounds": (
        "", {"epsilon": 0.1, "n": 100, "k_count": 1.0, "eta": 0.5, "l_count": 1},
        _bounds_library,
        {"epsilon": [0.999, 1.0, 0.0], "n": [1, 0], "k_count": [2.5, 0.5],
         "eta": [0.9, 1.0, 0.0], "l_count": [5, 0],
         "c_mu": [(0.5, {"r": 1.0}), (0.0, {"r": 1.0})],
         "r": [(2.0, {"c_mu": 0.5}), (-1.0, {"c_mu": 0.5})]},
    ),
    "macro": (
        "", {"n0": 1e19, "cell_volume": 1.0, "sub_volume": 1e-3, "delta_pi": 5e-6,
             "k_count": 1.0},
        _macro_library,
        {"n0": [1.0, 0.0, (1e300, {"cell_volume": 1e300, "sub_volume": 1.0, "delta_pi": 0.5})],
         "cell_volume": [10.0, 0.0, -1.0], "sub_volume": [1.0, 2.0, 0.0],
         "delta_pi": [0.5, 1.0, 0.0], "k_count": [2.0, 0.5]},
    ),
}


def _text(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def _with_others(case) -> tuple:
    """A case as (value, other keys' values)."""
    return case if isinstance(case, tuple) and isinstance(case[-1], dict) else (case, {})


_PARITY_CASES = [
    pytest.param(command, key, *_with_others(case), id=f"{command}-{key}={case!r}")
    for command, (_, _, _, keys) in _PARITY.items()
    for key, cases in keys.items()
    for case in cases
]


@pytest.mark.parametrize("command, key, value, others", _PARITY_CASES)
def test_cli_refuses_a_value_iff_the_library_does(tmp_path, capsys, command, key, value, others):
    fixed, base, library, _ = _PARITY[command]
    values = {**base, **others, key: value}
    try:
        library(dict(values))
        refusal = None
    except ValueError as exc:
        refusal = exc
    ini = f"[{command}]\n{fixed}" + "".join(f"{k} = {_text(v)}\n" for k, v in values.items())
    out = tmp_path / "out"
    code = _run(tmp_path, command, ini, "--out", str(out))
    lines = capsys.readouterr().err.splitlines()
    if refusal is None:
        assert code == 0, lines
    else:
        assert code == 2, (str(refusal), lines)
        assert lines == [f"config error: {key}: {refusal.rule}"]
        assert not out.exists()


def test_gas_mean_fit_keys_are_unused_without_fit(tmp_path):
    # fit_epsilon and fit_eta feed only the fit, so without it nothing refuses them.
    ini = "[gas-mean]\nregion = 0,0.5\nt_values = 1\nfit_epsilon = -1\nfit_eta = 2\n"
    assert _run(tmp_path, "gas-mean", ini, "--out", str(tmp_path / "out")) == 0


@pytest.mark.parametrize(
    "body, line",
    [
        ("reverse_time = 1\ndt = 0\n", "dt: must be finite and > 0, got 0.0"),
        ("reverse_time = 1\ndt = -0.5\n", "dt: must be finite and > 0, got -0.5"),
        ("reverse_time = -1\ndt = -0.5\n", "dt: must be finite and > 0, got -0.5"),
        ("reverse_time = -1\ndt = 0.5\n", "reverse_time: must be finite and > 0, got -1.0"),
    ],
    ids=["dt_zero", "dt_negative", "both_negative", "time_negative"],
)
def test_gas_reverse_needs_positive_steps(tmp_path, capsys, body, line):
    # dt = 0 once raised ZeroDivisionError out of parse_config.
    out = tmp_path / "out"
    ini = f"[gas-reverse]\nn = 50\nregion = 0,0.5\n{body}"
    assert _run(tmp_path, "gas-reverse", ini, "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]
    assert not out.exists()


def test_refusal_naming_no_key_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    def run(cfg):
        raise cli.ParameterError("zeta", "must be > 0, got 0")

    spec = cli._COMMANDS["kac-brute"]
    monkeypatch.setitem(cli._COMMANDS, "kac-brute", dataclasses.replace(spec, run=run))
    out = tmp_path / "out"
    assert _run(tmp_path, "kac-brute", TINY_RUNS["kac-brute"][1], "--out", str(out)) == 3
    assert capsys.readouterr().err.splitlines() == ["error: zeta must be > 0, got 0"]
    assert not out.exists()


# What each key's text may be turned into; no parser checks a range.
_PLAIN_PARSERS = {
    "_conv_int", "_conv_float", "_conv_list.<locals>.conv", "_conv_region", "_conv_bool",
    "_conv_choice.<locals>.conv", "str",
}


def test_keys_are_read_by_plain_parsers_only():
    for command, spec in cli._COMMANDS.items():
        for key, param in {**spec.keys, **cli._COMMON}.items():
            name = param.convert.__qualname__
            assert name in _PLAIN_PARSERS, (command, key, name)
            if name.startswith("_conv_list"):
                inner = param.convert.__closure__[0].cell_contents
                assert inner in (cli._conv_int, cli._conv_float), (command, key)
