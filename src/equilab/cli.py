"""Command-line front end for batch experiments.

Configuration lives in a flat INI file with one section per command
(``[gas-scaling]`` holds ``key = value`` lines); command-line flags mirror
the config keys and override them.  Every run writes one plot-ready CSV plus
a JSON summary carrying the full parameter echo, master seed, package
versions, and wall time, so any published number can be regenerated from
its summary alone.  Both files are written atomically, so a failed run
leaves no half-written output.

The command line checks syntax and key combinations only; every rule on a
value belongs to the library.  Parsing turns each key's text into an int,
float, list, region, bool, choice or string, and applies the rules about
keys alone: unknown, missing and unparsable keys, keys that go together or
exclude each other, and ``seed`` >= 0 and ``workers`` >= 1, one line each.
The run then passes the values to the library, which owns every domain and
every rule between values (epsilon in (0, 1), t <= 2N, reverse_time a
positive multiple of dt, a ring window not ending before t_start, ...); its
first :class:`~equilab.core.ParameterError` is reported under the key that
fed it.  A command computes all of its results before it creates ``--out``,
so neither a configuration error nor a failed computation touches that
directory.

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
from dataclasses import dataclass, field

from .analytic import (
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
from .core import ParameterError, RngStream, TimeGrid, TorusRegion, as_int, write_csv
from .ensemble import (
    ScalingExperimentSpec,
    run_gas_scaling,
    run_kac_ensemble,
    run_fluctuation_trace,
    run_metadata,
    write_summary_json,
)
from .gas import reversal_round_trip
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
# Value parsers (string -> typed value, raising ValueError with a reason).
# They check syntax only; every range belongs to the library.


def _conv_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        f = float(s)  # accept 1e5-style counts
        if not f.is_integer():
            raise ValueError(f"expected an integer, got {s!r}") from None
        return int(f)


def _conv_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s!r}")
    return v


def _conv_choice(*options):
    def conv(s: str):
        v = s.strip().lower()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {s!r}")
        return v

    return conv


def _conv_list(inner):
    def conv(s: str):
        vals = tuple(inner(part) for part in s.split(",") if part.strip())
        if not vals:
            raise ValueError("list must not be empty")
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


@dataclass(frozen=True)
class _Param:
    convert: object
    required: bool = False
    default: object = None


_COMMON = {
    "seed": _Param(_conv_int, default=0),
    "workers": _Param(_conv_int, default=1),
    "out": _Param(str, default="."),
}

_POSITION_BLOCK = {
    "position": _Param(_conv_choice("uniform", "point"), default="uniform"),
    "position_region": _Param(_conv_region),
    "position_point": _Param(_conv_list(_conv_float)),
}

_MOMENTUM_BLOCK = {
    "momentum": _Param(_conv_choice("gaussian", "tabulated"), default="gaussian"),
    "sigma": _Param(_conv_float),
    "mean_speed": _Param(_conv_float),
    "momentum_grid": _Param(_conv_list(_conv_float)),
    "momentum_density": _Param(_conv_list(_conv_float)),
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
            errors.append(f"{key}: {exc.rule if isinstance(exc, ParameterError) else exc}")
    return errors


def _build_initial(params) -> InitialMeasureSpec:
    return InitialMeasureSpec(_position_law(params), _momentum_law(params))


def _check_bounds(params) -> list:
    if (params.get("c_mu") is None) != (params.get("r") is None):
        return ["c_mu: give both c_mu and r, or neither"]
    return []


# ---------------------------------------------------------------------------
# Command runs: each computes everything first and returns the summary's
# results block and a function that writes the CSV to a path


def _exec_gas_trace(cfg: RunConfig):
    p = cfg.parameters
    region = _region_from(p)
    grid = TimeGrid(p["t0"], p["dt"], p["k_count"])
    series = run_fluctuation_trace(p["n"], _build_initial(p), region, grid, cfg.master_seed)
    return {
        "rows": len(series),
        "region_measure": region.measure(),
        "grid_mean": float(series.values.mean()),
        "grid_std": float(series.values.std(ddof=1)) if len(series) > 1 else 0.0,
    }, series.to_csv


def _exec_gas_mean(cfg: RunConfig):
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
    return results, lambda path: write_csv(path, ("t", "mean"), zip(ts, values))


def _exec_gas_scaling(cfg: RunConfig):
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
    comparisons = []
    for i, n in enumerate(res.n_values):
        bound = scenario_bound(p["epsilon"], n).linear
        for j, k in enumerate(res.k_values):
            rate = float(res.p_hat_over_k[i, j])
            comparisons.append({"n": n, "k": k, "p_hat_over_k": rate, "bound": bound,
                                "within_bound": rate <= bound})
    return {"bound_comparisons": comparisons,
            "all_within_bound": all(c["within_bound"] for c in comparisons)}, res.to_csv


def _exec_gas_reverse(cfg: RunConfig):
    p = cfg.parameters
    region = _region_from(p)
    state = sample_microstate(_build_initial(p), p["n"], region.dim, RngStream(cfg.master_seed, 0))
    series, err = reversal_round_trip(state, region, p["reverse_time"], p["dt"])
    values = series.values
    return {
        "reverse_time": p["reverse_time"],
        "max_position_error": err,
        "f_initial": values[0],
        "f_final": values[-1],
        "fraction_restored": bool(values[-1] == values[0]),
    }, series.to_csv


def _exec_kac_trace(cfg: RunConfig):
    p = cfg.parameters
    markers = sample_markers(p["n"], p["mu"], RngStream(cfg.master_seed, 0))
    # First, so that t_max > 2N is refused before the ring is stepped.
    closed_form_final = delta_closed_form(markers, p["t_max"])
    config = KacConfiguration.all_white(markers)
    deltas = ring_trace(config, p["t_max"])
    rows = ((t, d, d / p["n"]) for t, d in enumerate(deltas.tolist()))
    return {
        "marker_count": config.marker_count,
        "delta_initial": int(deltas[0]),
        "delta_final": int(deltas[-1]),
        "closed_form_final_matches": bool(closed_form_final == int(deltas[-1])),
    }, lambda path: write_csv(path, ("t", "delta", "delta_bar"), rows)


def _exec_kac_ensemble(cfg: RunConfig):
    p = cfg.parameters
    window = schedule_block = None
    if p.get("alpha") is not None:
        sched = ring_bound_schedule(p["epsilon"], p["alpha"], p["mu"])
        window = sched.window(p["n"])
        seq = sched.sequence_bound(p["n"])
        per = sched.per_time_bound(p["n"])
        schedule_block = {
            "min_sites": sched.min_sites,
            "t_start": sched.t_start,
            "t_start_exact": sched.t_start_exact,
            "window_end": window[1],
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
    results = {
        "mean_final": float(res.mean[-1]),
        "max_p_dev": float(res.p_dev.max()),
    }
    if schedule_block is not None:
        results["schedule"] = schedule_block
        results["window_exceed_fraction"] = res.window_exceed_fraction
        results["within_sequence_bound"] = bool(res.window_exceed_fraction <= seq.linear)
    return results, res.to_csv


def _exec_kac_brute(cfg: RunConfig):
    p = cfg.parameters
    moments = brute_force_expectation(p["n"], p["mu"], p["t"])
    expected = expected_delta_bar(p["mu"], p["t"], p["n"])
    return {
        "mean": moments.mean,
        "variance": moments.variance,
        "product_formula_mean": expected,
        "product_formula_gap": abs(moments.mean - expected),
    }, lambda path: write_csv(
        path, ("t", "mean", "variance"), [(p["t"], moments.mean, moments.variance)]
    )


# Linear values below 1e-300 are written as the literal "underflow".
_BOUNDS_HEADER = ("quantity", "log_value", "linear_value_or_underflow")


def _bounds_writer(entries):
    rows = [(name, *prob.csv_fields()) for name, prob in entries]
    return lambda path: write_csv(path, _BOUNDS_HEADER, rows)


def _exec_bounds(cfg: RunConfig):
    p = cfg.parameters
    # First: it has the strictest epsilon rule, and checks k_count and eta before l_count.
    scenario = scenario_bound(p["epsilon"], p["n"], p["k_count"], p["eta"])
    entries = [
        ("hoeffding_single_time", hoeffding_tail(p["epsilon"], p["n"])),
        ("scenario_sequence", scenario),
        ("partition_sequence", partition_scenario_bound(p["epsilon"], p["n"], p["l_count"])),
        ("markov_single_time", markov_bound(p["epsilon"], p["n"])),
    ]
    results = {
        "log_sequence_capacity": log_sequence_capacity(p["epsilon"], p["n"]),
        "bounds": {
            name: {"log_value": b.log_value, "vacuous": b.vacuous} for name, b in entries
        },
    }
    if p.get("c_mu") is not None:
        decay = DecayEstimate(p["c_mu"], p["r"])
        results["equilibration_time"] = equilibration_time(decay, p["epsilon"], p["eta"])
    return results, _bounds_writer(entries)


def _exec_macro(cfg: RunConfig):
    p = cfg.parameters
    est = macro_estimator(
        p["n0"], p["cell_volume"], p["sub_volume"], p["delta_pi"], p["k_count"]
    )
    return {
        "epsilon": est.epsilon,
        "n": est.n,
        "k_count": est.k_count,
        "single_time_exponent": est.single_time_exponent,
        "single_time_log": est.single_time_bound.log_value,
        "single_time_underflows": est.single_time_bound.underflows,
        "sequence_log": est.sequence_bound.log_value,
        "sequence_linear_or_zero": est.sequence_bound.linear,
    }, _bounds_writer([
        ("macro_single_time", est.single_time_bound),
        ("macro_sequence", est.sequence_bound),
    ])


# ---------------------------------------------------------------------------
# The command table


@dataclass(frozen=True)
class _Command:
    """One subcommand: its CSV, its run, its keys and its key-combination checks.

    ``names`` maps each library parameter name that differs from the key
    feeding it, so a library refusal is reported under the user's key.
    """

    csv_name: str
    run: object
    keys: dict
    checks: tuple = ()
    names: dict = field(default_factory=dict)


_COMMANDS = {
    "gas-trace": _Command("gas_trace.csv", _exec_gas_trace, {
        "n": _Param(_conv_int, required=True),
        "region": _Param(_conv_region, required=True),
        "t0": _Param(_conv_float, default=0.0),
        "dt": _Param(_conv_float, required=True),
        "k_count": _Param(_conv_int, required=True),
        **_POSITION_BLOCK,
        **_MOMENTUM_BLOCK,
    }, (_check_measure,)),
    "gas-mean": _Command("gas_mean.csv", _exec_gas_mean, {
        "region": _Param(_conv_region, required=True),
        "t_values": _Param(_conv_list(_conv_float), required=True),
        "tail_tol": _Param(_conv_float, default=1e-12),
        "fit": _Param(_conv_bool, default=False),
        "fit_epsilon": _Param(_conv_float, default=0.04),
        "fit_eta": _Param(_conv_float, default=0.5),
        **_POSITION_BLOCK,
        **_MOMENTUM_BLOCK,
    }, (_check_measure,), {"t": "t_values", "epsilon": "fit_epsilon", "eta": "fit_eta"}),
    "gas-scaling": _Command("gas_scaling.csv", _exec_gas_scaling, {
        "n_values": _Param(_conv_list(_conv_int), required=True),
        "k_values": _Param(_conv_list(_conv_int), required=True),
        "histories": _Param(_conv_int, required=True),
        "epsilon": _Param(_conv_float, required=True),
        "t0": _Param(_conv_float, default=0.0),
        "dt": _Param(_conv_float, required=True),
        "region": _Param(_conv_region, required=True),
        **_POSITION_BLOCK,
        **_MOMENTUM_BLOCK,
    }, (_check_measure,), {"k_count": "k_values"}),  # the grid runs to the largest K
    "gas-reverse": _Command("gas_reverse.csv", _exec_gas_reverse, {
        "n": _Param(_conv_int, required=True),
        "region": _Param(_conv_region, required=True),
        "reverse_time": _Param(_conv_float, required=True),
        "dt": _Param(_conv_float, required=True),
        **_POSITION_BLOCK,
        **_MOMENTUM_BLOCK,
    }, (_check_measure,)),
    "kac-trace": _Command("kac_trace.csv", _exec_kac_trace, {
        "n": _Param(_conv_int, required=True),
        "mu": _Param(_conv_float, required=True),
        "t_max": _Param(_conv_int, required=True),
    }, names={"t": "t_max"}),
    "kac-ensemble": _Command("kac_ensemble.csv", _exec_kac_ensemble, {
        "n": _Param(_conv_int, required=True),
        "mu": _Param(_conv_float, required=True),
        "histories": _Param(_conv_int, required=True),
        "t_max": _Param(_conv_int, required=True),
        "epsilon": _Param(_conv_float, required=True),
        "alpha": _Param(_conv_float),
    }, names={"n_sites": "n"}),
    "kac-brute": _Command("kac_brute.csv", _exec_kac_brute, {
        "n": _Param(_conv_int, required=True),
        "mu": _Param(_conv_float, required=True),
        "t": _Param(_conv_int, required=True),
    }),
    "bounds": _Command("bounds.csv", _exec_bounds, {
        "epsilon": _Param(_conv_float, required=True),
        "n": _Param(_conv_int, required=True),
        "k_count": _Param(_conv_float, default=1.0),
        "eta": _Param(_conv_float, default=0.5),
        "l_count": _Param(_conv_int, default=1),
        "c_mu": _Param(_conv_float),
        "r": _Param(_conv_float),
    }, (_check_bounds,)),
    "macro": _Command("macro_bounds.csv", _exec_macro, {
        "n0": _Param(_conv_float, required=True),
        "cell_volume": _Param(_conv_float, required=True),
        "sub_volume": _Param(_conv_float, required=True),
        "delta_pi": _Param(_conv_float, required=True),
        "k_count": _Param(_conv_float, default=1.0),
    }),
}

COMMANDS = tuple(_COMMANDS)


def parse_config(file_text, command, overrides=None) -> RunConfig:
    """Merge the command's config section with flag overrides and parse it.

    Raises :class:`ConfigError` carrying every problem found (unknown keys,
    unparsable values, missing required keys, key-combination conflicts,
    out-of-range run controls); on success returns the fully typed
    :class:`RunConfig`.  Parameter values are not range-checked here: the
    library does that when the config is executed.
    """
    if command not in _COMMANDS:
        raise ConfigError([f"command: unknown command {command!r}"])
    spec = _COMMANDS[command]
    full_schema = {**spec.keys, **_COMMON}

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
    for key, param in full_schema.items():
        if key in raw:
            try:
                params[key] = param.convert(raw[key])
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
        elif param.required:
            errors.append(f"{key}: required key missing")
        else:
            params[key] = param.default
    # seed and workers are the run's own fields, not library parameters.
    for key, lo in (("seed", 0), ("workers", 1)):
        if key in params:
            try:
                as_int(params[key], key, lo)
            except ParameterError as exc:
                errors.append(f"{key}: {exc.rule}")
    if not errors:
        for check in spec.checks:
            errors.extend(check(params))
    if errors:
        raise ConfigError(errors)

    seed, workers, out = (params.pop(key) for key in ("seed", "workers", "out"))
    return RunConfig(command, params, seed, workers, out)


def execute(config: RunConfig) -> int:
    """Run a parsed config; returns the process exit status.

    The command computes all of its results first.  A
    :class:`~equilab.core.ParameterError` naming one of the command's keys
    is a configuration error: it is printed as ``config error: <key>:
    <rule>`` and gives exit 2.  Any other failure gives exit 3.  The output
    directory is created, and the CSV and summary written, only after the
    computation has returned.
    """
    started = _time.perf_counter()
    spec = _COMMANDS[config.command]
    out = config.output_path
    summary_name = config.command.replace("-", "_") + "_summary.json"
    try:
        try:
            results, write = spec.run(config)
        except ParameterError as exc:
            key = spec.names.get(exc.name, exc.name)
            if key not in spec.keys:
                raise
            print(f"config error: {key}: {exc.rule}", file=sys.stderr)
            return 2
        os.makedirs(out, exist_ok=True)
        write(os.path.join(out, spec.csv_name))
        summary = {
            "command": config.command,
            "parameters": config.parameters,
            "master_seed": config.master_seed,
            "worker_count": config.worker_count,
            "outputs": [spec.csv_name],
            "results": results,
            **run_metadata(started),
        }
        write_summary_json(os.path.join(out, summary_name), summary)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {spec.csv_name} and {summary_name}")
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
    keys = list(_COMMANDS[first.command].keys) + list(_COMMON)
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
