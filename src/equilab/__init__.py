"""Equilibration laboratory: exactly solvable many-body models at desk scale.

Two model systems, one question: how do reversible microscopic dynamics
produce irreversible-looking macroscopic behaviour, and how sharply can the
exceptions be bounded?

* a free (non-interacting) gas on the d-dimensional unit torus, where
  occupation fractions of fixed regions relax toward the region measure and
  the relaxation curve has a closed Fourier form;
* the marked ring (Kac) model, a discrete caricature with an exact
  recurrence at 2N steps and an exactly computable colour-difference curve.

Alongside the simulators sit the concentration bounds (Hoeffding, union
over observation schedules, Markov / Chebyshev) evaluated in log space so
that astronomically small probabilities survive, plus deterministic
Monte Carlo drivers whose CSV outputs are byte-identical for any worker
count.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    GasMicrostate,
    LogProbability,
    ParameterError,
    RngStream,
    TimeGrid,
    TorusRegion,
    format_float,
    fractional_part,
    write_csv,
)
from .sampler import (
    GaussianMomenta,
    InitialMeasureSpec,
    PointPositions,
    TabulatedMomenta,
    UniformPositions,
    sample_microstate,
    sigma_for_mean_speed,
    thermal_momenta,
)
from .gas import (
    ObservableSeries,
    fraction_in,
    positions_at,
    reverse_at,
    reversal_round_trip,
    trace,
    zermelo_state,
)
from .analytic import (
    DecayEstimate,
    MacroEstimate,
    decay_bound_check,
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
from .kac import (
    BruteForceMoments,
    KacConfiguration,
    RingBoundSchedule,
    brute_force_expectation,
    delta_closed_form,
    expected_delta_bar,
    expected_delta_sq,
    inverse_step,
    ring_bound_schedule,
    ring_trace,
    sample_markers,
    step,
)
from .ensemble import (
    KacEnsembleResult,
    ScalingExperimentSpec,
    ScalingResult,
    run_fluctuation_trace,
    run_gas_scaling,
    run_kac_ensemble,
    run_metadata,
    write_summary_json,
)

__all__ = [
    "__version__",
    # core
    "GasMicrostate",
    "LogProbability",
    "ParameterError",
    "RngStream",
    "TimeGrid",
    "TorusRegion",
    "format_float",
    "fractional_part",
    "write_csv",
    # sampler
    "GaussianMomenta",
    "InitialMeasureSpec",
    "PointPositions",
    "TabulatedMomenta",
    "UniformPositions",
    "sample_microstate",
    "sigma_for_mean_speed",
    "thermal_momenta",
    # gas
    "ObservableSeries",
    "fraction_in",
    "positions_at",
    "reverse_at",
    "reversal_round_trip",
    "trace",
    "zermelo_state",
    # analytic
    "DecayEstimate",
    "MacroEstimate",
    "decay_bound_check",
    "equilibration_time",
    "expected_fraction",
    "fit_decay",
    "hoeffding_tail",
    "log_sequence_capacity",
    "macro_estimator",
    "markov_bound",
    "partition_scenario_bound",
    "scenario_bound",
    # kac
    "BruteForceMoments",
    "KacConfiguration",
    "RingBoundSchedule",
    "brute_force_expectation",
    "delta_closed_form",
    "expected_delta_bar",
    "expected_delta_sq",
    "inverse_step",
    "ring_bound_schedule",
    "ring_trace",
    "sample_markers",
    "step",
    # ensemble
    "KacEnsembleResult",
    "ScalingExperimentSpec",
    "ScalingResult",
    "run_fluctuation_trace",
    "run_gas_scaling",
    "run_kac_ensemble",
    "run_metadata",
    "write_summary_json",
]
