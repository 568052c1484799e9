#!/usr/bin/env python3
"""Two classical objections, reproduced on demand.

Velocity reversal: evolve the gas for T, flip every momentum, evolve for T
again, and the microstate retraces itself to rounding error, carrying the
observable back with it.  Recurrence: a cloud sharing one rational momentum
is exactly periodic, and the marked ring returns every color after 2N steps
no matter where the markers sit.  Neither effect contradicts the statistics:
both live on specially prepared or waited-for microstates.
"""

from __future__ import annotations

import numpy as np

from equilab import (
    InitialMeasureSpec,
    KacConfiguration,
    RngStream,
    TimeGrid,
    TorusRegion,
    UniformPositions,
    reversal_round_trip,
    ring_trace,
    sample_markers,
    sample_microstate,
    thermal_momenta,
    trace,
    zermelo_state,
)

REGION = TorusRegion.interval(0.0, 0.5)
HALF_FULL = InitialMeasureSpec(UniformPositions(REGION), thermal_momenta(1.0, 1))


def velocity_reversal(n: int = 10_000, big_t: float = 50.0):
    state = sample_microstate(HALF_FULL, n, 1, RngStream(2024, 0))
    series, err = reversal_round_trip(state, REGION, big_t, big_t)
    f0, fT, f2T = series.values  # at t = 0, T and 2T
    print(f"Velocity reversal, N = {n}, T = {big_t}:")
    print(f"  f(0) = {f0:.4f} -> f(T) = {fT:.4f} -> reversed f(2T) = {f2T:.4f}")
    print(f"  worst position error after the round trip: {err:.2e}")


def exact_gas_recurrence():
    state = zermelo_state(1000, x0=0.1, p0=0.25)  # period 1/0.25 = 4
    series = trace(state, REGION, TimeGrid(0.0, 1.0, 12))
    print("\nSingle-momentum cloud, p = 1/4 (period 4):")
    print("  f at t = 1..12:", " ".join(f"{v:.0f}" for v in series.values))


def ring_recurrence(n: int = 24, mu: float = 0.3):
    markers = sample_markers(n, mu, RngStream(99, 0))
    m = int(np.count_nonzero(markers == -1))
    deltas = ring_trace(KacConfiguration.all_white(markers), 2 * n)
    sign = -1 if m % 2 else 1
    print(f"\nMarked ring, N = {n}, {m} markers:")
    print(f"  delta(0)  = {deltas[0]:4d}")
    print(f"  delta(N)  = {deltas[n]:4d}   expected (-1)^m delta(0) = {sign * deltas[0]}")
    print(f"  delta(2N) = {deltas[2 * n]:4d}   full period restores every color")


if __name__ == "__main__":
    velocity_reversal()
    exact_gas_recurrence()
    ring_recurrence()
