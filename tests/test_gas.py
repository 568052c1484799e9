"""Free-streaming flow, coarse observables, and reversal identities."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from equilab.core import (
    GasMicrostate,
    ParameterError,
    RngStream,
    TimeGrid,
    TorusRegion,
    fractional_part,
)
from equilab.gas import (
    BoxCounter,
    ObservableSeries,
    fraction_in,
    positions_at,
    reverse_at,
    reversal_round_trip,
    trace,
    zermelo_state,
)
from equilab.sampler import (
    GaussianMomenta,
    InitialMeasureSpec,
    UniformPositions,
    sample_microstate,
    thermal_momenta,
)


def _random_state(seed: int, n: int = 200, dim: int = 1) -> GasMicrostate:
    spec = InitialMeasureSpec(
        UniformPositions(TorusRegion(tuple([0.0] * dim), tuple([1.0] * dim))),
        GaussianMomenta(1.0),
    )
    return sample_microstate(spec, n, dim, RngStream(seed, 0))


# ---------------------------------------------------------------------------
# Flow


def test_positions_at_zero_is_identity():
    state = _random_state(0)
    assert np.array_equal(positions_at(state, 0.0), state.positions)


def test_positions_at_hand_values():
    state = GasMicrostate(np.array([0.1, 0.6]), np.array([0.5, 0.5]))
    out = positions_at(state, 1.0)[:, 0]
    assert out[0] == pytest.approx(0.6, abs=1e-15)
    assert out[1] == pytest.approx(0.1, abs=1e-15)  # wraps around


@pytest.mark.parametrize("seed,t,s", [(1, 3.0, 4.0), (2, 100.0, -40.0), (3, 1e4, 1e4)])
def test_flow_additivity(seed: int, t: float, s: float):
    state = _random_state(seed, n=300, dim=2)
    direct = positions_at(state, t + s)
    stepped = fractional_part(positions_at(state, t) + state.momenta * s)
    diff = np.abs(direct - stepped)
    diff = np.minimum(diff, 1.0 - diff)  # compare on the circle
    assert diff.max() < 1e-9


def test_positions_at_does_not_mutate_state():
    state = _random_state(4)
    before = state.positions.copy()
    positions_at(state, 7.7)
    assert np.array_equal(state.positions, before)


# ---------------------------------------------------------------------------
# fraction_in and partitions


def test_fraction_in_hand_case():
    state = GasMicrostate(np.array([0.1, 0.6]), np.array([0.5, 0.5]))
    assert fraction_in(state, 1.0, TorusRegion.interval(0.5, 1.0)) == 0.5


def test_fraction_in_full_torus_is_one():
    state = _random_state(5)
    for t in (0.0, 0.7, 13.0):
        assert fraction_in(state, t, TorusRegion.interval(0.0, 1.0)) == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_fraction_is_multiple_of_one_over_n(seed: int):
    state = _random_state(seed, n=97)
    f = fraction_in(state, 2.5, TorusRegion.interval(0.2, 0.6))
    assert (f * 97) == pytest.approx(round(f * 97), abs=1e-12)


def test_box_counter_matches_contains_on_a_batch():
    # 2-D box with a zero lower face on the first axis only; 70 histories of
    # 500 particles span several scratch tiles.
    rng = np.random.default_rng(8)
    xs = rng.random((70, 500, 2))
    ps = rng.standard_normal((70, 500, 2))
    region = TorusRegion((0.0, 0.3), (0.6, 0.9))
    counter = BoxCounter(region, xs, ps)
    for t in (0.0, 0.3, -2.5, 17.0):
        expected = [
            np.count_nonzero(region.contains(fractional_part(xs[i] + ps[i] * t)))
            for i in range(70)
        ]
        assert counter.counts(t).tolist() == expected
        assert counter.counts(t, 33).tolist() == expected[:33]


@pytest.mark.parametrize(
    "lower, upper, count",
    [(0.0, 0.9, 1), (0.0, 1.0, 1), (0.5, 1.0, 0), (0.0, 0.0, 0)],
)
def test_box_counter_folds_a_wrap_onto_one_to_zero(lower, upper, count):
    # x + p t = -1e-17, whose fractional part rounds to exactly 1.0: the
    # point 0.0 of the torus, inside a box only if its lower face is 0.
    xs = np.full((1, 1, 1), 1e-17)
    ps = np.full((1, 1, 1), -2e-17)
    region = TorusRegion.interval(lower, upper)
    assert fractional_part(xs[0] + ps[0])[0, 0] == 0.0
    assert BoxCounter(region, xs, ps).counts(1.0)[0] == count


def test_box_counter_rejects_non_finite_coordinates():
    state = GasMicrostate(np.array([0.1, 0.6]), np.array([1e300, -1.0]))
    counter = BoxCounter(TorusRegion.interval(0.0, 0.5), state.positions[None], state.momenta[None])
    assert counter.counts(1.0)[0] in (0, 1, 2)
    for t in (1e10, math.inf, math.nan):
        with pytest.raises(ValueError):
            counter.counts(t)
    with pytest.raises(ValueError):
        fraction_in(state, 1e10, TorusRegion.interval(0.0, 0.5))
    with pytest.raises(ValueError):
        BoxCounter(TorusRegion.interval(0.0, 0.5), np.ones((1, 2, 1)), np.zeros((1, 2, 1)))
    with pytest.raises(ValueError):
        BoxCounter(TorusRegion.interval(0.0, 0.5), np.zeros((1, 2, 1)), np.full((1, 2, 1), math.nan))


@pytest.mark.parametrize("seed,t", [(0, 0.0), (1, 0.3), (2, 5.0), (3, 123.0)])
def test_partition_fractions_sum_to_one_exactly(seed: int, t: float):
    # The fractions in the eight cells of a regular grid on [0, 1) add up to
    # one: each particle is counted in exactly one cell at every time.
    state = _random_state(seed, n=157)
    edges = np.linspace(0.0, 1.0, 9)
    cells = [TorusRegion.interval(a, b) for a, b in zip(edges[:-1], edges[1:])]
    fractions = [fraction_in(state, t, cell) for cell in cells]
    assert sum(round(f * state.n) for f in fractions) == 157
    assert sum(fractions) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 2.0])
@pytest.mark.parametrize("count,dim", [(1, 1), (3, 1), (8, 1), (10, 1), (3, 2), (5, 2)])
def test_grid_cells_count_every_particle_exactly_once(count: int, dim: int, t: float):
    # Cells of a count-per-axis grid share their faces.  Half-open membership
    # must put each particle in exactly one cell, also particles sitting on
    # an interior edge or at 0.0 (held there by zero momentum, or carried back
    # to 0.0 by an integer shift).
    edges = np.linspace(0.0, 1.0, count + 1)
    sides = list(zip(edges[:-1], edges[1:]))
    cells = [
        TorusRegion(tuple(a for a, _ in combo), tuple(b for _, b in combo))
        for combo in itertools.product(sides, repeat=dim)
    ]
    rng = np.random.default_rng(count * 10 + dim)
    on_edges = np.array(list(itertools.product(edges[:-1], repeat=dim)))
    x = np.vstack([rng.random((150, dim)), on_edges, np.zeros((2, dim))])
    p = np.vstack([
        rng.normal(size=(150, dim)),
        np.zeros_like(on_edges),
        np.full((1, dim), 1.0),
        np.full((1, dim), -3.0),
    ])
    state = GasMicrostate(x, p)
    counts = [round(fraction_in(state, t, cell) * state.n) for cell in cells]
    assert sum(counts) == state.n
    pts = positions_at(state, t)
    assert counts == [int(np.count_nonzero(cell.contains(pts))) for cell in cells]


# ---------------------------------------------------------------------------
# Reversal and recurrence


def test_reverse_at_zero_only_flips_momenta():
    state = _random_state(9)
    rev = reverse_at(state, 0.0)
    assert np.array_equal(rev.positions, state.positions)
    assert np.array_equal(rev.momenta, -state.momenta)


def test_reverse_at_hand_value():
    state = GasMicrostate(np.array([0.1]), np.array([0.5]))
    rev = reverse_at(state, 1.0)
    assert rev.positions[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert rev.momenta[0, 0] == -0.5
    back = positions_at(rev, 1.0)
    assert back[0, 0] == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("seed,t_rev", [(10, 5.0), (11, 50.0), (12, 500.0)])
def test_loschmidt_reversal_restores_positions(seed: int, t_rev: float):
    state = _random_state(seed, n=500, dim=2)
    rev = reverse_at(state, t_rev)
    back = positions_at(rev, t_rev)
    diff = np.abs(back - state.positions)
    diff = np.minimum(diff, 1.0 - diff)
    assert diff.max() < 1e-9
    # Double reversal restores the momenta exactly.
    assert np.array_equal(reverse_at(rev, 0.0).momenta, state.momenta)


@pytest.mark.parametrize("seed", range(3))
def test_loschmidt_fraction_returns_exactly(seed: int):
    state = _random_state(seed, n=400)
    region = TorusRegion.interval(0.0, 0.5)
    f0 = fraction_in(state, 0.0, region)
    rev = reverse_at(state, 30.0)
    assert fraction_in(rev, 30.0, region) == f0


@pytest.mark.parametrize("dim, t_rev, dt", [(1, 10.0, 2.0), (2, 3.0, 0.1), (1, 50.0, 50.0)])
def test_reversal_round_trip_is_the_hand_assembly(dim: int, t_rev: float, dt: float):
    # The assembly the command line made before the round trip was a library call.
    state = _random_state(20 + dim, n=300, dim=dim)
    region = TorusRegion(tuple([0.0] * dim), tuple([0.5] * dim))
    series, err = reversal_round_trip(state, region, t_rev, dt)
    forward = TimeGrid(0.0, dt, int(round(t_rev / dt)))
    flipped = reverse_at(state, t_rev)
    there = trace(state, region, forward)
    back = trace(flipped, region, forward)
    times = np.concatenate([[0.0], there.times, t_rev + back.times])
    values = np.concatenate([[fraction_in(state, 0.0, region)], there.values, back.values])
    want = np.abs(positions_at(flipped, t_rev) - state.positions)
    assert np.array_equal(series.times, times)
    assert np.array_equal(series.values, values)
    assert err == float(np.minimum(want, 1.0 - want).max()) < 1e-9
    assert len(series) == 2 * forward.k_count + 1
    assert series.values[-1] == series.values[0]


@pytest.mark.parametrize(
    "t_rev, dt, name, rule",
    [
        (1.0, 0.0, "dt", "must be finite and > 0, got 0.0"),
        (1.0, -0.5, "dt", "must be finite and > 0, got -0.5"),
        (-1.0, -0.5, "dt", "must be finite and > 0, got -0.5"),
        (1.0, math.inf, "dt", "must be finite and > 0, got inf"),
        (1.0, math.nan, "dt", "must be finite and > 0, got nan"),
        (-1.0, 0.5, "reverse_time", "must be finite and > 0, got -1.0"),
        (0.0, 0.5, "reverse_time", "must be finite and > 0, got 0.0"),
        (math.inf, 0.5, "reverse_time", "must be finite and > 0, got inf"),
        (1.05, 0.5, "reverse_time", "must be a positive multiple of dt = 0.5, got 1.05"),
        (1.0, 0.3, "reverse_time", "must be a positive multiple of dt = 0.3, got 1.0"),
        (0.2, 0.5, "reverse_time", "must be a positive multiple of dt = 0.5, got 0.2"),
        # T / dt overflows to inf, or is finite but past the grid's 2^53 steps.
        (1.0, 5e-324, "reverse_time",
         "must be a positive multiple of dt = 5e-324 of at most 2^53 steps, got 1.0"),
        (2.0**54, 1.0, "reverse_time",
         "must be a positive multiple of dt = 1.0 of at most 2^53 steps, got 1.8014398509481984e+16"),
    ],
)
def test_reversal_round_trip_refusals(t_rev, dt, name, rule):
    with pytest.raises(ParameterError) as info:
        reversal_round_trip(_random_state(0, n=10), TorusRegion.interval(0.0, 0.5), t_rev, dt)
    assert (info.value.name, info.value.rule) == (name, rule)


def test_reversal_round_trip_takes_real_numbers_only():
    with pytest.raises(TypeError, match="^dt must be a real number, got True$"):
        reversal_round_trip(_random_state(0, n=10), TorusRegion.interval(0.0, 0.5), 1.0, True)
    # Within 1e-9 of a whole number of steps is a whole number of steps.
    series, _ = reversal_round_trip(
        _random_state(0, n=10), TorusRegion.interval(0.0, 0.5), 0.3, 0.1
    )
    assert len(series) == 7


def test_zermelo_state_is_periodic_and_binary():
    state = zermelo_state(100, 0.25, 1.0)
    region = TorusRegion.interval(0.5, 1.0)
    # Integer times return to the start (period 1 at |p| = 1).
    for t in (0.0, 1.0, 2.0, 5.0):
        assert fraction_in(state, t, region) == 0.0
    assert fraction_in(state, 0.5, region) == 1.0  # all particles at 0.75
    grid = TimeGrid(0.0, 0.1, 30)
    series = trace(state, region, grid)
    assert set(np.unique(series.values)) <= {0.0, 1.0}


@pytest.mark.parametrize("n", [2.5, 10.0, True, "10"])
def test_zermelo_state_n_must_be_an_integer(n):
    with pytest.raises(TypeError, match="^n must be an integer, got "):
        zermelo_state(n, 0.25, 1.0)
    assert zermelo_state(np.int64(3), 0.25, 1.0).n == 3


def test_zermelo_state_validation():
    with pytest.raises(ValueError):
        zermelo_state(10, 0.25, 0.0)
    with pytest.raises(ValueError):
        zermelo_state(0, 0.25, 1.0)


# ---------------------------------------------------------------------------
# trace and ObservableSeries


def test_trace_matches_pointwise_fraction():
    state = _random_state(13, n=64)
    region = TorusRegion.interval(0.1, 0.4)
    grid = TimeGrid(1.0, 0.25, 12)
    series = trace(state, region, grid)
    assert len(series) == 12
    assert np.array_equal(series.times, grid.times)
    for t, v in zip(series.times, series.values):
        assert fraction_in(state, float(t), region) == v


def test_trace_constant_for_frozen_momenta():
    state = GasMicrostate(np.linspace(0.0, 0.9, 10), np.zeros(10))
    series = trace(state, TorusRegion.interval(0.0, 0.45), TimeGrid(0.0, 1.0, 5))
    assert np.all(series.values == series.values[0])


def test_observable_series_validation():
    with pytest.raises(ValueError):
        ObservableSeries(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ObservableSeries(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        ObservableSeries(np.array([]), np.array([]))


def test_observable_series_csv_format(tmp_path):
    series = ObservableSeries(np.array([0.5, 1.0]), np.array([1.0, 0.25]))
    path = tmp_path / "series.csv"
    series.to_csv(path)
    assert path.read_text() == "t,f\n0.5,1\n1,0.25\n"


def test_equilibrium_trace_starts_high_and_settles():
    # Half-filled start: f(0+) near 1, late values near 0.5.
    region = TorusRegion.interval(0.0, 0.5)
    spec = InitialMeasureSpec(UniformPositions(region), thermal_momenta(1.0, 1))
    state = sample_microstate(spec, 10**4, 1, RngStream(21, 0))
    early = fraction_in(state, 0.01, region)
    assert early > 0.95
    late = trace(state, region, TimeGrid(20.0, 0.5, 100)).values
    assert abs(late.mean() - 0.5) < 0.02
