#!/usr/bin/env python3
"""Concentration bounds at laboratory scale, kept in log space.

A cubic centimeter of gas at ambient conditions holds about 3e19 molecules.
Asking a 1 mm^3 probe volume to misreport its share of them by five parts
per million is already an event with log-probability around -1500: smaller
than anything a float can hold, which is why every bound here carries its
exponent explicitly.  Even polling the probe every microsecond for the age
of the universe (~1e32 reads) leaves nothing observable.  A near-vacuum cell
with 2e13 molecules is the honest counterpoint: its hourly sequence bound is
0.33, i.e. not small, and the formalism says so instead of overclaiming.
"""

from __future__ import annotations

import math

from equilab import (
    hoeffding_tail,
    macro_estimator,
    markov_bound,
    scenario_bound,
)


def dense_cell():
    est = macro_estimator(n0=3e19, cell_volume=1.0, sub_volume=1e-3, delta_pi=5e-6)
    print("1 cm^3 at ambient density, 1 mm^3 probe, 5e-6 relative tolerance:")
    print(f"  effective epsilon = {est.epsilon:.2e}, N = {est.n:.2e}")
    print(f"  single-time exponent: {est.single_time_exponent:.1f}")
    print(f"  single-time bound: exp({est.single_time_bound.log_value:.1f})"
          f" -> underflows: {est.single_time_bound.underflows}")

    eon = macro_estimator(3e19, 1.0, 1e-3, 5e-6, k_count=1e32)
    print(f"  1e32-observation sequence bound: exp({eon.sequence_bound.log_value:.1f})"
          f"  (log10 = {eon.sequence_bound.log_value / math.log(10.0):.1f})")


def vacuum_cell():
    est = macro_estimator(n0=2e13, cell_volume=1.0, sub_volume=1e-3,
                          delta_pi=5e-4, k_count=3600.0)
    print("\nNear-vacuum cell (2e13 molecules), coarser 5e-4 tolerance:")
    print(f"  single-time exponent: {est.single_time_exponent:.1f}, "
          f"bound {est.single_time_bound.linear:.3e}")
    print(f"  hourly sequence bound: {est.sequence_bound.linear:.4f}  "
          f"(weak on purpose: the cell is small)")


def generic_bounds(epsilon: float = 0.04, n: int = 10**6):
    single = hoeffding_tail(epsilon, n)
    hour = scenario_bound(epsilon, n, k_count=3600.0)
    markov = markov_bound(epsilon, n)
    print(f"\nGeneric N = {n}, epsilon = {epsilon}:")
    print(f"  single-time tail:   exp({single.log_value:.1f})")
    print(f"  hourly sequence:    exp({hour.log_value:.1f})")
    print(f"  second-moment tail: {markov.linear:.2e} "
          f"(polynomial, much weaker than the exponential)")


if __name__ == "__main__":
    dense_cell()
    vacuum_cell()
    generic_bounds()
