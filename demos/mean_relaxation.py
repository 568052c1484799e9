#!/usr/bin/env python3
"""Exact mean curve of the occupied fraction and its equilibration time.

The ensemble mean E f(t) is a Fourier series over the initial measure; for
Gaussian momenta every mode decays like exp(-sigma^2 (2 pi l t)^2 / 2), so
the deviation from the equilibrium value |I| beats any power law.  Fitting a
power envelope C t^(-2r) to the early decay gives a time t0 after which the
fitted envelope lies within eta * epsilon of equilibrium.  The envelope is
fitted, not certified: the demo checks it against the exact mean only at
t0, 2 t0 and 4 t0.
"""

from __future__ import annotations

import numpy as np

from equilab import (
    InitialMeasureSpec,
    TorusRegion,
    UniformPositions,
    decay_bound_check,
    equilibration_time,
    expected_fraction,
    fit_decay,
    thermal_momenta,
)

REGION = TorusRegion.interval(0.0, 0.5)
HALF_FULL = InitialMeasureSpec(UniformPositions(REGION), thermal_momenta(1.0, 1))


def mean_curve():
    print("Mean occupied fraction of [0, 1/2) from the half-filled start:")
    print(f"{'t':>6} {'E f(t)':>12} {'|E f - 1/2|':>12}")
    times = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0]
    for t, mean in zip(times, expected_fraction(HALF_FULL, REGION, times)):
        print(f"{t:6.2f} {mean:12.8f} {abs(mean - 0.5):12.3e}")


def fitted_equilibration(epsilon: float = 0.04, eta: float = 0.5):
    fit_times = list(np.linspace(0.2, 1.2, 11))
    deviations = np.abs(expected_fraction(HALF_FULL, REGION, fit_times) - REGION.measure())
    decay = fit_decay(fit_times, deviations)
    t0 = equilibration_time(decay, epsilon, eta)
    print(f"\nPower envelope fitted on t in [{fit_times[0]}, {fit_times[-1]}]:")
    print(f"  |E f(t) - 1/2| <= {decay.c_mu:.4g} * t^(-{2 * decay.r:.2f})")
    print(f"  equilibration time for epsilon={epsilon}, eta={eta}: t0 = {t0:.3f}")
    check_times = [t0, 2 * t0, 4 * t0]
    ok = decay_bound_check(HALF_FULL, REGION, decay, check_times)
    print(f"  envelope verified at t in {[f'{t:.2f}' for t in check_times]}: {ok}")


if __name__ == "__main__":
    mean_curve()
    fitted_equilibration()
