"""Command-line front end for batch experiments.

Configuration lives in a flat INI file with one section per command
(``[gas-scaling]`` holds ``key = value`` lines); command-line flags mirror
the config keys and override them.  Every run writes one plot-ready CSV plus
a JSON summary carrying the full parameter echo, master seed, package
versions, and wall time, so any published number can be regenerated from
its summary alone.  Both files are written atomically, so a failed run
leaves no half-written output.

Exit codes: 0 success, 2 configuration error (each problem reported on its
own stderr line, prefixed by the offending key), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time as _time
from dataclasses import dataclass

import numpy as np

from .analytic import (
    ScenarioParameters,
    DecayEstimate,
    equilibration_time,
    expected_fraction,
    fit_decay,
    hoeffding_tail,
    log_sequence_capacity,
    macro_estimator,
    markov_bound,
    partition_scenario_bound,
    scenario_bound,
)
from .core import RngStream, TimeGrid, TorusRegion, write_csv
from .ensemble import (
    ScalingExperimentSpec,
    run_gas_scaling,
    run_kac_ensemble,
    run_fluctuation_trace,
    run_metadata,
    write_summary_json,
)
from .gas import ObservableSeries, fraction_in, positions_at, reverse_at, trace
from .kac import (
    KacConfiguration,
    brute_force_expectation,
    delta_closed_form,
    expected_delta_bar,
    ring_bound_schedule,
    ring_trace,
    sample_markers,
)
from .sampler import (
    GaussianMomenta,
    InitialMeasureSpec,
    PointPositions,
    TabulatedMomenta,
    UniformPositions,
    check_dim,
    sample_microstate,
    thermal_momenta,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "execute", "main"]


class ConfigError(Exception):
    """Invalid configuration; ``errors`` lists one message per problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    master_seed: int
    worker_count: int
    output_path: str


# ---------------------------------------------------------------------------
# Value converters (string -> typed value, raising ValueError with a reason)


def _conv_int(minimum=None, maximum=None):
    def conv(s: str):
        try:
            v = int(s)
        except ValueError:
            f = float(s)  # accept 1e5-style counts
            if not f.is_integer():
                raise ValueError(f"expected an integer, got {s!r}")
            v = int(f)
        if minimum is not None and v < minimum:
            raise ValueError(f"must be >= {minimum}, got {v}")
        if maximum is not None and v > maximum:
            raise ValueError(f"must be <= {maximum}, got {v}")
        return v

    return conv


def _conv_float(minimum=None, maximum=None, exclusive=False):
    def conv(s: str):
        v = float(s)
        if not math.isfinite(v):
            raise ValueError(f"must be finite, got {s!r}")
        if minimum is not None and (v <= minimum if exclusive else v < minimum):
            op = ">" if exclusive else ">="
            raise ValueError(f"must be {op} {minimum}, got {v}")
        if maximum is not None and (v >= maximum if exclusive else v > maximum):
            op = "<" if exclusive else "<="
            raise ValueError(f"must be {op} {maximum}, got {v}")
        return v

    return conv


def _conv_choice(*options):
    def conv(s: str):
        v = s.strip().lower()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {s!r}")
        return v

    return conv


def _conv_list(inner, increasing=False):
    def conv(s: str):
        vals = tuple(inner(part) for part in s.split(",") if part.strip())
        if not vals:
            raise ValueError("list must not be empty")
        if increasing and any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"values must be strictly increasing, got {s!r}")
        return vals

    return conv


def _conv_region(s: str):
    """Box syntax: comma pair per axis, axes joined by semicolons: 0,0.5;0.2,0.8."""
    lows, ups = [], []
    for axis_spec in s.split(";"):
        parts = [p for p in axis_spec.split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"each axis needs 'low,high', got {axis_spec!r}")
        lows.append(float(parts[0]))
        ups.append(float(parts[1]))
    region = TorusRegion(tuple(lows), tuple(ups))  # runs the range checks
    return (region.lower, region.upper)


def _conv_bool(s: str):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _conv_str(s: str):
    return s


@dataclass(frozen=True)
class _Param:
    convert: object
    required: bool = False
    default: object = None


_COMMON = {
    "seed": _Param(_conv_int(minimum=0), default=0),
    "workers": _Param(_conv_int(minimum=1), default=1),
    "out": _Param(_conv_str, default="."),
}

_POSITION_BLOCK = {
    "position": _Param(_conv_choice("uniform", "point"), default="uniform"),
    "position_region": _Param(_conv_region),
    "position_point": _Param(_conv_list(_conv_float())),
}

_MOMENTUM_BLOCK = {
    "momentum": _Param(_conv_choice("gaussian", "tabulated"), default="gaussian"),
    "sigma": _Param(_conv_float(minimum=0.0, exclusive=True)),
    "mean_speed": _Param(_conv_float(minimum=0.0, exclusive=True)),
    "momentum_grid": _Param(_conv_list(_conv_float())),
    "momentum_density": _Param(_conv_list(_conv_float())),
}


def _region_from(params, key="region") -> TorusRegion:
    lo, up = params[key]
    return TorusRegion(lo, up)


def _position_law(params):
    if params["position"] == "point":
        law = PointPositions(params["position_point"])
    else:
        law = UniformPositions(_region_from(params, "position_region"))
    check_dim(law, len(params["region"][0]))
    return law


def _momentum_law(params):
    if params["momentum"] == "tabulated":
        return TabulatedMomenta(params["momentum_grid"], params["momentum_density"])
    if params.get("sigma") is not None:
        return GaussianMomenta(params["sigma"])
    return thermal_momenta(params["mean_speed"], len(params["region"][0]))


def _check_measure(params) -> list:
    """Key rules of the position/momentum law block, then the laws' own checks.

    Fills in the defaults (position region = observed region, mean speed 1)
    as a side effect.  Once the keys are consistent, both laws are built
    once, and a law's error is reported under the key that feeds it.
    """
    errors = []
    if params["position"] == "point":
        if params.get("position_point") is None:
            errors.append("position_point: required when position = point")
    elif params.get("position_region") is None:
        params["position_region"] = params["region"]
    if params["momentum"] == "gaussian":
        if params.get("sigma") is not None and params.get("mean_speed") is not None:
            errors.append("sigma: give either sigma or mean_speed, not both")
        if params.get("sigma") is None and params.get("mean_speed") is None:
            params["mean_speed"] = 1.0
        if params.get("momentum_grid") is not None or params.get("momentum_density") is not None:
            errors.append("momentum_grid: only valid with momentum = tabulated")
    else:
        for key in ("momentum_grid", "momentum_density"):
            if params.get(key) is None:
                errors.append(f"{key}: required when momentum = tabulated")
    if errors:
        return errors
    position_key = "position_point" if params["position"] == "point" else "position_region"
    momentum_key = ("momentum_grid" if params["momentum"] == "tabulated"
                    else "sigma" if params.get("sigma") is not None else "mean_speed")
    for key, build in ((position_key, _position_law), (momentum_key, _momentum_law)):
        try:
            build(params)
        except ValueError as exc:
            errors.append(f"{key}: {exc}")
    return errors


def _build_initial(params) -> InitialMeasureSpec:
    return InitialMeasureSpec(_position_law(params), _momentum_law(params))


def _check_reverse(params) -> list:
    steps = params["reverse_time"] / params["dt"]
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        return ["dt: reverse_time must be a positive integer multiple of dt"]
    return []


def _check_kac_window(params) -> list:
    errors = []
    if params["t_max"] > 2 * params["n"]:
        errors.append(f"t_max: must be <= 2N = {2 * params['n']}")
    if params["mu"] <= 0.0:
        errors.append("mu: sampled rings need mu > 0; use kac-brute for mu = 0")
    if params.get("alpha") is not None and params["mu"] == 1.0:
        errors.append("mu: the mean never decays at mu = 1, so alpha has no window")
    return errors


def _check_brute(params) -> list:
    if params["t"] > 2 * params["n"]:
        return [f"t: must be <= 2N = {2 * params['n']}"]
    return []


def _check_bounds(params) -> list:
    has_c = params.get("c_mu") is not None
    has_r = params.get("r") is not None
    if has_c != has_r:
        return ["c_mu: give both c_mu and r, or neither"]
    return []


_SCHEMAS = {
    "gas-trace": (
        {
            "n": _Param(_conv_int(minimum=1), required=True),
            "region": _Param(_conv_region, required=True),
            "t0": _Param(_conv_float(minimum=0.0), default=0.0),
            "dt": _Param(_conv_float(minimum=0.0, exclusive=True), required=True),
            "k_count": _Param(_conv_int(minimum=1), required=True),
            **_POSITION_BLOCK,
            **_MOMENTUM_BLOCK,
        },
        [_check_measure],
    ),
    "gas-mean": (
        {
            "region": _Param(_conv_region, required=True),
            "t_values": _Param(_conv_list(_conv_float(minimum=0.0)), required=True),
            "tail_tol": _Param(_conv_float(minimum=0.0, exclusive=True), default=1e-12),
            "fit": _Param(_conv_bool, default=False),
            "fit_epsilon": _Param(_conv_float(minimum=0.0, exclusive=True), default=0.04),
            "fit_eta": _Param(_conv_float(0.0, 1.0, exclusive=True), default=0.5),
            **_POSITION_BLOCK,
            **_MOMENTUM_BLOCK,
        },
        [_check_measure],
    ),
    "gas-scaling": (
        {
            "n_values": _Param(_conv_list(_conv_int(minimum=1), increasing=True), required=True),
            "k_values": _Param(_conv_list(_conv_int(minimum=1), increasing=True), required=True),
            "histories": _Param(_conv_int(minimum=1), required=True),
            "epsilon": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=True), required=True),
            "t0": _Param(_conv_float(minimum=0.0), default=0.0),
            "dt": _Param(_conv_float(minimum=0.0, exclusive=True), required=True),
            "region": _Param(_conv_region, required=True),
            **_POSITION_BLOCK,
            **_MOMENTUM_BLOCK,
        },
        [_check_measure],
    ),
    "gas-reverse": (
        {
            "n": _Param(_conv_int(minimum=1), required=True),
            "region": _Param(_conv_region, required=True),
            "reverse_time": _Param(_conv_float(minimum=0.0, exclusive=True), required=True),
            "dt": _Param(_conv_float(minimum=0.0, exclusive=True), required=True),
            **_POSITION_BLOCK,
            **_MOMENTUM_BLOCK,
        },
        [_check_measure, _check_reverse],
    ),
    "kac-trace": (
        {
            "n": _Param(_conv_int(minimum=1), required=True),
            "mu": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=False), required=True),
            "t_max": _Param(_conv_int(minimum=0), required=True),
        },
        [_check_kac_window],
    ),
    "kac-ensemble": (
        {
            "n": _Param(_conv_int(minimum=1), required=True),
            "mu": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=False), required=True),
            "histories": _Param(_conv_int(minimum=1), required=True),
            "t_max": _Param(_conv_int(minimum=0), required=True),
            "epsilon": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=True), required=True),
            "alpha": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=True)),
        },
        [_check_kac_window],
    ),
    "kac-brute": (
        {
            "n": _Param(_conv_int(minimum=1, maximum=20), required=True),
            "mu": _Param(_conv_float(minimum=0.0, maximum=1.0), required=True),
            "t": _Param(_conv_int(minimum=0), required=True),
        },
        [_check_brute],
    ),
    "bounds": (
        {
            "epsilon": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=True), required=True),
            "n": _Param(_conv_int(minimum=1), required=True),
            "k_count": _Param(_conv_float(minimum=1.0), default=1.0),
            "eta": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=True), default=0.5),
            "l_count": _Param(_conv_int(minimum=1), default=1),
            "c_mu": _Param(_conv_float(minimum=0.0, exclusive=True)),
            "r": _Param(_conv_float(minimum=0.0, exclusive=True)),
        },
        [_check_bounds],
    ),
    "macro": (
        {
            "n0": _Param(_conv_float(minimum=0.0, exclusive=True), required=True),
            "cell_volume": _Param(_conv_float(minimum=0.0, exclusive=True), required=True),
            "sub_volume": _Param(_conv_float(minimum=0.0, exclusive=True), required=True),
            "delta_pi": _Param(_conv_float(minimum=0.0, maximum=1.0, exclusive=True), required=True),
            "k_count": _Param(_conv_float(minimum=1.0), default=1.0),
        },
        [lambda p: ["sub_volume: must be smaller than cell_volume"]
         if p["sub_volume"] >= p["cell_volume"] else []],
    ),
}

COMMANDS = tuple(_SCHEMAS)


def parse_config(file_text, command, overrides=None) -> RunConfig:
    """Merge the command's config section with flag overrides and validate.

    Raises :class:`ConfigError` carrying every problem found (unknown keys,
    conversion failures, missing required keys, cross-field conflicts); on
    success returns the fully typed :class:`RunConfig`.
    """
    if command not in _SCHEMAS:
        raise ConfigError([f"command: unknown command {command!r}"])
    schema, cross_checks = _SCHEMAS[command]
    full_schema = {**schema, **_COMMON}

    raw = {}
    if file_text:
        ini = configparser.ConfigParser(interpolation=None)
        try:
            ini.read_string(file_text)
        except configparser.Error as exc:
            raise ConfigError([f"config: {exc}"]) from exc
        if ini.has_section(command):
            raw.update(dict(ini.items(command)))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    errors = []
    params = {}
    for key, value in raw.items():
        if key not in full_schema:
            errors.append(f"{key}: unknown key for {command}")
    for key, spec in full_schema.items():
        if key in raw:
            try:
                params[key] = spec.convert(raw[key])
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
        elif spec.required:
            errors.append(f"{key}: required key missing")
        else:
            params[key] = spec.default
    if not errors:
        for check in cross_checks:
            errors.extend(check(params))
    if errors:
        raise ConfigError(errors)

    seed = params.pop("seed")
    workers = params.pop("workers")
    out = params.pop("out")
    return RunConfig(
        command=command,
        parameters=params,
        master_seed=seed,
        worker_count=workers,
        output_path=out,
    )


# ---------------------------------------------------------------------------
# Command executors: each writes its CSV to ``path`` and returns the
# summary's results block


def _exec_gas_trace(cfg: RunConfig, path):
    p = cfg.parameters
    region = _region_from(p)
    grid = TimeGrid(p["t0"], p["dt"], p["k_count"])
    series = run_fluctuation_trace(p["n"], _build_initial(p), region, grid, cfg.master_seed)
    series.to_csv(path)
    return {
        "rows": len(series),
        "region_measure": region.measure(),
        "grid_mean": float(series.values.mean()),
        "grid_std": float(series.values.std(ddof=1)) if len(series) > 1 else 0.0,
    }


def _exec_gas_mean(cfg: RunConfig, path):
    p = cfg.parameters
    region = _region_from(p)
    initial = _build_initial(p)
    ts = sorted(set(p["t_values"]))
    values = expected_fraction(initial, region, ts, p["tail_tol"]).tolist()
    devs = [abs(v - region.measure()) for v in values]
    results = {
        "region_measure": region.measure(),
        "max_abs_deviation": max(devs),
    }
    if p["fit"]:
        decay = fit_decay(
            [t for t in ts if t > 0], [d for t, d in zip(ts, devs) if t > 0]
        )
        results["decay_c_mu"] = decay.c_mu
        results["decay_r"] = decay.r
        results["equilibration_time"] = equilibration_time(
            decay, p["fit_epsilon"], p["fit_eta"]
        )
    # Written last, so a failing fit leaves no CSV without its summary.
    write_csv(path, ("t", "mean"), zip(ts, values))
    return results


def _exec_gas_scaling(cfg: RunConfig, path):
    p = cfg.parameters
    region = _region_from(p)
    spec = ScalingExperimentSpec(
        n_values=p["n_values"],
        k_values=p["k_values"],
        histories=p["histories"],
        epsilon=p["epsilon"],
        grid=TimeGrid(p["t0"], p["dt"], max(p["k_values"])),
        region=region,
        initial=_build_initial(p),
        master_seed=cfg.master_seed,
    )
    res = run_gas_scaling(spec, cfg.worker_count)
    res.to_csv(path)
    comparisons = []
    all_within = True
    for i, n in enumerate(res.n_values):
        bound = scenario_bound(ScenarioParameters(p["epsilon"], n, 1, 0.5))
        for j, k in enumerate(res.k_values):
            within = res.p_hat_over_k[i, j] <= bound.linear
            all_within = all_within and within
            comparisons.append(
                {
                    "n": n,
                    "k": k,
                    "p_hat_over_k": float(res.p_hat_over_k[i, j]),
                    "bound": bound.linear,
                    "within_bound": bool(within),
                }
            )
    return {
        "fit": None if res.fit is None else {"a": res.fit.a, "b": res.fit.b},
        "bound_comparisons": comparisons,
        "all_within_bound": bool(all_within),
    }


def _exec_gas_reverse(cfg: RunConfig, path):
    p = cfg.parameters
    region = _region_from(p)
    t_rev = p["reverse_time"]
    dt = p["dt"]
    k = int(round(t_rev / dt))
    state = sample_microstate(
        _build_initial(p), p["n"], region.dim, RngStream(cfg.master_seed, 0)
    )
    forward = TimeGrid(0.0, dt, k)
    flipped = reverse_at(state, t_rev)
    there = trace(state, region, forward)
    back = trace(flipped, region, forward)
    times = np.concatenate([[0.0], there.times, t_rev + back.times])
    values = np.concatenate([[fraction_in(state, 0.0, region)], there.values, back.values])
    ObservableSeries(times, values).to_csv(path)
    final_positions = positions_at(flipped, t_rev)
    err = np.abs(final_positions - state.positions)
    err = np.minimum(err, 1.0 - err)  # distance on the circle
    return {
        "reverse_time": t_rev,
        "max_position_error": float(err.max()),
        "f_initial": values[0],
        "f_final": values[-1],
        "fraction_restored": bool(values[-1] == values[0]),
    }


def _exec_kac_trace(cfg: RunConfig, path):
    p = cfg.parameters
    markers = sample_markers(p["n"], p["mu"], RngStream(cfg.master_seed, 0))
    config = KacConfiguration.all_white(markers)
    deltas = ring_trace(config, p["t_max"])
    write_csv(
        path, ("t", "delta", "delta_bar"),
        ((t, d, d / p["n"]) for t, d in enumerate(deltas.tolist())),
    )
    return {
        "marker_count": config.marker_count,
        "delta_initial": int(deltas[0]),
        "delta_final": int(deltas[-1]),
        "closed_form_final_matches": bool(
            delta_closed_form(markers, p["t_max"]) == int(deltas[-1])
        ),
    }


def _exec_kac_ensemble(cfg: RunConfig, path):
    p = cfg.parameters
    window = None
    schedule_block = None
    if p.get("alpha") is not None:
        sched = ring_bound_schedule(p["epsilon"], p["alpha"], p["mu"])
        window = (sched.t_start, sched.window_end(p["n"]))
        seq = sched.sequence_bound(p["n"])
        per = sched.per_time_bound(p["n"])
        schedule_block = {
            "min_sites": sched.min_sites,
            "t_start": sched.t_start,
            "t_start_exact": sched.t_start_exact,
            "window_end": sched.window_end(p["n"]),
            "per_time_bound_log": per.log_value,
            "per_time_bound_vacuous": per.vacuous,
            "sequence_bound_log": seq.log_value,
            "sequence_bound_linear": seq.linear,
            "sequence_bound_vacuous": seq.vacuous,
        }
    res = run_kac_ensemble(
        p["n"], p["mu"], p["histories"], p["t_max"], p["epsilon"],
        cfg.master_seed, cfg.worker_count, window,
    )
    res.to_csv(path)
    results = {
        "mean_final": float(res.mean[-1]),
        "max_p_dev": float(res.p_dev.max()),
    }
    if schedule_block is not None:
        results["schedule"] = schedule_block
        results["window_exceed_fraction"] = res.window_exceed_fraction
        results["within_sequence_bound"] = bool(res.window_exceed_fraction <= seq.linear)
    return results


def _exec_kac_brute(cfg: RunConfig, path):
    p = cfg.parameters
    moments = brute_force_expectation(p["n"], p["mu"], p["t"])
    write_csv(path, ("t", "mean", "variance"), [(p["t"], moments.mean, moments.variance)])
    results = {"mean": moments.mean, "variance": moments.variance}
    if p["t"] <= p["n"]:
        expected = expected_delta_bar(p["mu"], p["t"], p["n"])
        results["product_formula_mean"] = expected
        results["product_formula_gap"] = abs(moments.mean - expected)
    return results


# Linear values below 1e-300 are written as the literal "underflow".
_BOUNDS_HEADER = ("quantity", "log_value", "linear_value_or_underflow")


def _exec_bounds(cfg: RunConfig, path):
    p = cfg.parameters
    params = ScenarioParameters(p["epsilon"], p["n"], p["k_count"], p["eta"])
    entries = [
        ("hoeffding_single_time", hoeffding_tail(p["epsilon"], p["n"])),
        ("scenario_sequence", scenario_bound(params)),
        ("partition_sequence", partition_scenario_bound(params, p["l_count"])),
        ("markov_single_time", markov_bound(p["epsilon"], p["n"], t_large=True)),
    ]
    write_csv(path, _BOUNDS_HEADER, [(name, *prob.csv_fields()) for name, prob in entries])
    results = {
        "log_sequence_capacity": log_sequence_capacity(p["epsilon"], p["n"]),
        "bounds": {
            name: {"log_value": b.log_value, "vacuous": b.vacuous} for name, b in entries
        },
    }
    if p.get("c_mu") is not None:
        decay = DecayEstimate(p["c_mu"], p["r"])
        results["equilibration_time"] = equilibration_time(decay, p["epsilon"], p["eta"])
    return results


def _exec_macro(cfg: RunConfig, path):
    p = cfg.parameters
    est = macro_estimator(
        p["n0"], p["cell_volume"], p["sub_volume"], p["delta_pi"], p["k_count"]
    )
    entries = [
        ("macro_single_time", est.single_time_bound),
        ("macro_sequence", est.sequence_bound),
    ]
    write_csv(path, _BOUNDS_HEADER, [(name, *prob.csv_fields()) for name, prob in entries])
    return {
        "epsilon": est.epsilon,
        "n": est.n,
        "k_count": est.k_count,
        "single_time_exponent": est.single_time_exponent,
        "single_time_log": est.single_time_bound.log_value,
        "single_time_underflows": est.single_time_bound.underflows,
        "sequence_log": est.sequence_bound.log_value,
        "sequence_linear_or_zero": est.sequence_bound.linear,
    }


# command -> (CSV file name, executor)
_EXECUTORS = {
    "gas-trace": ("gas_trace.csv", _exec_gas_trace),
    "gas-mean": ("gas_mean.csv", _exec_gas_mean),
    "gas-scaling": ("gas_scaling.csv", _exec_gas_scaling),
    "gas-reverse": ("gas_reverse.csv", _exec_gas_reverse),
    "kac-trace": ("kac_trace.csv", _exec_kac_trace),
    "kac-ensemble": ("kac_ensemble.csv", _exec_kac_ensemble),
    "kac-brute": ("kac_brute.csv", _exec_kac_brute),
    "bounds": ("bounds.csv", _exec_bounds),
    "macro": ("macro_bounds.csv", _exec_macro),
}


def execute(config: RunConfig) -> int:
    """Run a validated config; returns the process exit status."""
    started = _time.perf_counter()
    out = config.output_path
    csv_name, executor = _EXECUTORS[config.command]
    summary_name = config.command.replace("-", "_") + "_summary.json"
    try:
        os.makedirs(out, exist_ok=True)
        results = executor(config, os.path.join(out, csv_name))
        summary = {
            "command": config.command,
            "parameters": config.parameters,
            "master_seed": config.master_seed,
            "worker_count": config.worker_count,
            "outputs": [csv_name],
            "results": results,
            **run_metadata(started),
        }
        write_summary_json(os.path.join(out, summary_name), summary)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {csv_name} and {summary_name}")
    return 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="equilab",
        description="Desk-scale equilibration experiments: free gas on the torus and the marked-ring model.",
    )
    top.add_argument("command", choices=COMMANDS)
    top.add_argument("flags", nargs=argparse.REMAINDER, help="the command's flags (see equilab COMMAND --help)")
    first = top.parse_args(argv)
    # Only the requested command's parser is built.
    schema, _ = _SCHEMAS[first.command]
    keys = list(schema) + list(_COMMON)
    parser = argparse.ArgumentParser(prog=f"equilab {first.command}")
    parser.add_argument("--config", default=None, help="INI file with a [%s] section" % first.command)
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    args = parser.parse_args(first.flags)

    file_text = None
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
            return 2
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    try:
        config = parse_config(file_text, first.command, overrides)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    return execute(config)


if __name__ == "__main__":
    sys.exit(main())
