#!/usr/bin/env python3
"""Measure how quickly large deviations of f die with the particle number.

For each gas size N we evolve M fresh histories from the half-filled box and
count those whose occupied fraction strays more than epsilon from 1/2 at any
of the first K sample times.  The union-style estimate p_hat / K must stay
under the scenario bound 2 exp(-eps^2 N / 2), capped at 1.
"""

from __future__ import annotations

import time

from equilab import (
    InitialMeasureSpec,
    ScalingExperimentSpec,
    TimeGrid,
    TorusRegion,
    UniformPositions,
    run_gas_scaling,
    scenario_bound,
    thermal_momenta,
)

REGION = TorusRegion.interval(0.0, 0.5)
HALF_FULL = InitialMeasureSpec(UniformPositions(REGION), thermal_momenta(1.0, 1))


def scaling_experiment(histories: int = 20_000, epsilon: float = 0.04):
    spec = ScalingExperimentSpec(
        n_values=(250, 500, 1000, 2000),
        k_values=(1, 5, 25),
        histories=histories,
        epsilon=epsilon,
        grid=TimeGrid(0.0, 10.0, 25),
        region=REGION,
        initial=HALF_FULL,
        master_seed=71,
    )
    started = time.perf_counter()
    result = run_gas_scaling(spec)
    elapsed = time.perf_counter() - started

    print(f"M = {histories} histories per N, epsilon = {epsilon}, "
          f"sample times t_k = 10k ({elapsed:.1f}s)")
    print(f"{'N':>6} {'K':>4} {'count':>7} {'p_hat/K':>11} {'bound':>11} {'ok':>4}")
    for i, n in enumerate(spec.n_values):
        cap = scenario_bound(epsilon, n).linear
        for j, k in enumerate(spec.k_values):
            rate = result.p_hat_over_k[i, j]
            flag = "yes" if rate <= cap else "NO"
            print(f"{n:6d} {k:4d} {int(result.deviations[i, j]):7d} "
                  f"{rate:11.3e} {cap:11.3e} {flag:>4}")


if __name__ == "__main__":
    scaling_experiment()
