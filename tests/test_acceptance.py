"""Acceptance gate: nine pinned criteria, each with stated tolerance and budget.

Every test prints one ``[criterion k] PASS`` line (visible under ``pytest -s``)
after its assertions hold, and enforces a wall-clock budget so performance
regressions fail loudly.  The two expensive ensemble runs are shared across
criteria 5, 8, and 9 through module-scoped fixtures.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from equilab.analytic import expected_fraction, macro_estimator
from equilab.core import RngStream, TimeGrid, TorusRegion
from equilab.ensemble import (
    ScalingExperimentSpec,
    run_fluctuation_trace,
    run_gas_scaling,
    run_kac_ensemble,
)
from equilab.gas import fraction_in, positions_at, reverse_at
from equilab.kac import (
    KacConfiguration,
    brute_force_expectation,
    delta_closed_form,
    ring_bound_schedule,
    ring_trace,
    sample_markers,
)
from equilab.sampler import (
    InitialMeasureSpec,
    UniformPositions,
    sample_microstate,
    thermal_momenta,
)

SEED = 20260514

REGION = TorusRegion.interval(0.0, 0.5)
# Half-filled box with unit mean speed: the reference nonequilibrium measure
# used by the trace, scaling, and reversal criteria alike.
NONEQ = InitialMeasureSpec(UniformPositions(REGION), thermal_momenta(1.0, 1))


@pytest.fixture(scope="module")
def scaling_runs(tmp_path_factory):
    """Deviation-rate experiment at M = 1e5, run at 1 and 8 workers."""
    spec = ScalingExperimentSpec(
        n_values=(500, 1000, 2000, 3000),
        k_values=(1, 5, 25),
        histories=10**5,
        epsilon=0.04,
        grid=TimeGrid(0.0, 10.0, 25),
        region=REGION,
        initial=NONEQ,
        master_seed=SEED,
    )
    base = tmp_path_factory.mktemp("scaling")
    runs = {}
    for workers in (1, 8):
        started = time.perf_counter()
        result = run_gas_scaling(spec, workers=workers)
        elapsed = time.perf_counter() - started
        path = base / f"gas_scaling_w{workers}.csv"
        result.to_csv(path)
        runs[workers] = (result, path.read_bytes(), elapsed)
    return runs


@pytest.fixture(scope="module")
def ring_runs(tmp_path_factory):
    """Ring ensemble at N = 4096, M = 1e4, run at 1 and 8 workers."""
    window = ring_bound_schedule(0.15, 0.5, 0.3).window(4096)
    base = tmp_path_factory.mktemp("ring")
    runs = {}
    for workers in (1, 8):
        started = time.perf_counter()
        result = run_kac_ensemble(
            4096, 0.3, 10**4, t_max=32, epsilon=0.15, seed=SEED,
            workers=workers, window=window,
        )
        elapsed = time.perf_counter() - started
        path = base / f"kac_ensemble_w{workers}.csv"
        result.to_csv(path)
        runs[workers] = (result, path.read_bytes(), elapsed)
    return runs


def test_criterion_1_brute_force_mean_matches_product_formula():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        for mu in (0.1, 0.25, 0.5):
            for t in range(0, n + 1):
                moments = brute_force_expectation(n, mu, t)
                gap = abs(moments.mean - (1.0 - 2.0 * mu) ** t)
                worst = max(worst, gap)
                assert gap <= 1e-12, f"N={n} mu={mu} t={t}: gap {gap:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"brute-force sweep took {elapsed:.1f}s (budget 10s)"
    print(
        f"\n[criterion 1] PASS: exhaustive mean equals (1-2mu)^t for all N <= 12, "
        f"worst gap {worst:.2e} <= 1e-12, {elapsed:.1f}s < 10s"
    )


def test_criterion_2_closed_form_matches_iteration_and_recurrence():
    started = time.perf_counter()
    for n in (8, 64, 1024):
        for rep in range(200):
            markers = sample_markers(n, 0.5, RngStream(7000 + n, rep))
            m = int(np.count_nonzero(markers == -1))
            deltas = ring_trace(KacConfiguration.all_white(markers), 2 * n)
            closed = np.array(
                [delta_closed_form(markers, t) for t in range(2 * n + 1)]
            )
            assert np.array_equal(deltas, closed), f"N={n} rep={rep}"
            sign = -1 if m % 2 else 1
            assert deltas[n] == sign * deltas[0]
            assert deltas[2 * n] == deltas[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"ring sweep took {elapsed:.1f}s (budget 30s)"
    print(
        f"\n[criterion 2] PASS: 600 random rings match the closed form at every "
        f"t <= 2N with exact recurrence, {elapsed:.1f}s < 30s"
    )


def test_criterion_3_mean_curve_matches_direct_monte_carlo():
    started = time.perf_counter()
    m = 10**7
    state = sample_microstate(NONEQ, m, 1, RngStream(SEED, 0))
    worst_z = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, 5.0):
        want = expected_fraction(NONEQ, REGION, t)
        got = fraction_in(state, t, REGION)
        se = math.sqrt(want * (1.0 - want) / m)
        z = abs(got - want) / se
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"t={t}: |MC - series| = {z:.2f} standard errors"
    gap = abs(expected_fraction(NONEQ, REGION, 5.0) - REGION.measure())
    assert gap <= 1e-6, f"t=5 mean sits {gap:.2e} from the equilibrium value"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"mean-curve check took {elapsed:.1f}s (budget 120s)"
    print(
        f"\n[criterion 3] PASS: series mean within 3 SE of 1e7-sample Monte Carlo "
        f"at 5 times (worst {worst_z:.2f} SE), |E - 1/2| = {gap:.1e} <= 1e-6 at "
        f"t=5, {elapsed:.1f}s < 120s"
    )


def test_criterion_4_trace_spread_matches_equilibrium_prediction():
    started = time.perf_counter()
    grid = TimeGrid(19.5, 0.5, 201)  # t = 20.0, 20.5, ..., 120.0
    ratios = {}
    for n in (100, 10**4):
        series = run_fluctuation_trace(n, NONEQ, REGION, grid, seed=SEED + n)
        ratio = float(series.values.std(ddof=1)) / math.sqrt(0.25 / n)
        ratios[n] = ratio
        assert 0.7 <= ratio <= 1.3, f"N={n}: std ratio {ratio:.3f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"trace spread check took {elapsed:.1f}s (budget 60s)"
    print(
        f"\n[criterion 4] PASS: single-trace std over t in [20, 120] within "
        f"[0.7, 1.3] of sqrt(N/4)/N (ratios "
        f"{ratios[100]:.3f} at N=1e2, {ratios[10**4]:.3f} at N=1e4), "
        f"{elapsed:.1f}s < 60s"
    )


def test_criterion_5_deviation_rates_below_scenario_bound(scaling_runs):
    result, _, _ = scaling_runs[8]
    eps = result.epsilon
    worst_ratio = 0.0
    for i, n in enumerate(result.n_values):
        cap = 2.0 * math.exp(-0.5 * eps * eps * n)
        for j, k in enumerate(result.k_values):
            ratio = result.p_hat_over_k[i, j] / cap
            worst_ratio = max(worst_ratio, ratio)
            assert result.p_hat_over_k[i, j] <= cap, (
                f"N={n} K={k}: p_hat/K = {result.p_hat_over_k[i, j]:.3e} "
                f"exceeds 2 exp(-eps^2 N / 2) = {cap:.3e}"
            )
    assert result.fit is not None, "exponential fit missing"
    assert 1.8 <= result.fit.b <= 3.0, f"fitted decay rate b = {result.fit.b:.3f}"
    slowest = max(run[2] for run in scaling_runs.values())
    assert slowest < 1800.0, f"scaling run took {slowest:.0f}s (budget 1800s)"
    print(
        f"\n[criterion 5] PASS: all 12 deviation rates below 2 exp(-eps^2 N / 2) "
        f"at M=1e5 (worst ratio {worst_ratio:.3f}), fitted b = {result.fit.b:.2f} "
        f"in [1.8, 3.0], slowest run {slowest:.0f}s < 1800s"
    )


def test_criterion_6_velocity_reversal_returns_initial_state():
    started = time.perf_counter()
    n, big_t = 10**4, 50.0
    state = sample_microstate(NONEQ, n, 1, RngStream(SEED, 3))
    f_initial = fraction_in(state, 0.0, REGION)
    flipped = reverse_at(state, big_t)
    final = positions_at(flipped, big_t)
    err = np.abs(final - state.positions)
    err = np.minimum(err, 1.0 - err)  # distance on the circle
    assert err.max() <= 1e-9, f"worst coordinate error {err.max():.2e}"
    assert fraction_in(flipped, big_t, REGION) == f_initial
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"reversal check took {elapsed:.2f}s (budget 1s)"
    print(
        f"\n[criterion 6] PASS: reversal at T=50 returns N=1e4 positions to "
        f"{err.max():.1e} <= 1e-9 and restores f exactly, {elapsed:.2f}s < 1s"
    )


def test_criterion_7_macro_bound_arithmetic():
    ln10 = math.log(10.0)
    dense = macro_estimator(3e19, 1.0, 1e-3, 5e-6)
    assert dense.single_time_exponent == pytest.approx(-1500.0, rel=1e-12)
    assert dense.single_time_bound.log_value < -650.0 * ln10  # < 1e-650

    sequenced = macro_estimator(3e19, 1.0, 1e-3, 5e-6, k_count=1e32)
    # 2e-618 is below the double-precision floor; compare logs.
    assert sequenced.sequence_bound.log_value <= math.log(2.0) - 618.0 * ln10

    vacuum = macro_estimator(2e13, 1.0, 1e-3, 5e-4, k_count=3600.0)
    assert vacuum.single_time_exponent == pytest.approx(-10.0, rel=1e-12)
    assert vacuum.single_time_bound.linear < 4.54e-5
    assert vacuum.sequence_bound.linear == pytest.approx(
        2.0 * 3600.0 * math.exp(-10.0), rel=1e-12
    )
    assert vacuum.sequence_bound.linear <= 0.33
    print(
        "\n[criterion 7] PASS: exponents -1500 and -10 to 1e-12 relative, "
        "single-time bound < 1e-650, 1e32-step sequence bound <= 2e-618, "
        f"hourly sequence bound {vacuum.sequence_bound.linear:.4f} <= 0.33"
    )


def test_criterion_8_window_violation_rate_below_sequence_bound(ring_runs):
    result, _, _ = ring_runs[8]
    sched = ring_bound_schedule(0.15, 0.5, 0.3)
    assert sched.t_start == 4.0
    assert sched.window_end(4096) == 32.0
    cap = sched.sequence_bound(4096).linear  # clamped to 1 when vacuous
    fraction = result.window_exceed_fraction
    assert fraction is not None
    assert fraction <= cap, f"violation rate {fraction:.4e} exceeds bound {cap:.4e}"
    slowest = max(run[2] for run in ring_runs.values())
    assert slowest < 300.0, f"ring run took {slowest:.0f}s (budget 300s)"
    print(
        f"\n[criterion 8] PASS: fraction with |mean spin| > 0.15 anywhere in "
        f"[4, 32] is {fraction:.2e} <= sequence bound {cap:.3g} at N=4096, "
        f"M=1e4, slowest run {slowest:.0f}s < 300s"
    )


def test_criterion_9_worker_count_leaves_output_bytes_unchanged(
    scaling_runs, ring_runs
):
    assert scaling_runs[1][1] == scaling_runs[8][1], "scaling CSVs differ"
    assert ring_runs[1][1] == ring_runs[8][1], "ring ensemble CSVs differ"
    print(
        "\n[criterion 9] PASS: scaling and ring ensemble CSVs are byte-identical "
        "at 1 and 8 workers"
    )
