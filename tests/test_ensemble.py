"""Ensemble drivers: statistics and scheduling-independent output."""
from __future__ import annotations

import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from equilab import ensemble, gas
from equilab.core import ParameterError, RngStream, TimeGrid, TorusRegion, fractional_part
from equilab.ensemble import (
    ScalingExperimentSpec,
    run_fluctuation_trace,
    run_gas_scaling,
    run_kac_ensemble,
    run_metadata,
    write_summary_json,
)
from equilab.gas import fraction_in, trace
from equilab.kac import (
    KacConfiguration,
    brute_force_expectation,
    expected_delta_bar,
    expected_delta_sq,
    ring_steps,
    ring_trace,
    sample_markers,
)
from equilab.sampler import (
    GaussianMomenta,
    InitialMeasureSpec,
    PointPositions,
    TabulatedMomenta,
    UniformPositions,
    sample_microstate,
    thermal_momenta,
)

_REGION = TorusRegion.interval(0.0, 0.5)
_EQUILIBRIUM = InitialMeasureSpec(
    UniformPositions(TorusRegion.interval(0.0, 1.0)), GaussianMomenta(1.0)
)


class _ConstantLaw:
    """Duck-typed position or momentum law: every coordinate equals ``value``."""

    def __init__(self, value: float):
        self.value = value

    def sample(self, n, dim, gen):
        return np.full((n, dim), self.value)


def _small_spec(epsilon: float, histories: int = 2000, seed: int = 99):
    return ScalingExperimentSpec(
        n_values=(50, 100),
        k_values=(1, 3),
        histories=histories,
        epsilon=epsilon,
        grid=TimeGrid(0.0, 5.0, 3),
        region=_REGION,
        initial=_EQUILIBRIUM,
        master_seed=seed,
    )


# ---------------------------------------------------------------------------
# Gas scaling


def test_scaling_spec_validation():
    with pytest.raises(ValueError):
        ScalingExperimentSpec(
            (100, 50), (1,), 10, 0.1, TimeGrid(0.0, 1.0, 1), _REGION, _EQUILIBRIUM, 0
        )
    with pytest.raises(ValueError):
        ScalingExperimentSpec(
            (50,), (1, 5), 10, 0.1, TimeGrid(0.0, 1.0, 3), _REGION, _EQUILIBRIUM, 0
        )
    # NaN <= 0 is False too: a NaN epsilon would count no deviation at all.
    for epsilon in (0.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            dataclasses.replace(_small_spec(0.04), epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [1.0, 1.5])
def test_scaling_spec_refuses_epsilon_of_one_and_more(epsilon):
    # |f - |I|| <= 1, so such an epsilon once ran and counted no deviation.
    with pytest.raises(ParameterError, match="^epsilon must lie in \\(0, 1\\), got ") as info:
        dataclasses.replace(_small_spec(0.04), epsilon=epsilon)
    assert (info.value.name, info.value.rule) == ("epsilon", f"must lie in (0, 1), got {epsilon}")


@pytest.mark.parametrize("name", ["n_values", "k_values"])
def test_scaling_spec_order_refusal_names_its_list(name):
    with pytest.raises(ParameterError) as info:
        dataclasses.replace(_small_spec(0.04), **{name: (3, 1)})
    assert info.value.name == name
    assert str(info.value) == f"{name} must be nonempty and strictly increasing, got (3, 1)"


def test_scaling_spec_refuses_a_largest_k_beyond_the_grid():
    with pytest.raises(ParameterError) as info:
        dataclasses.replace(_small_spec(0.04), k_values=(1, 4))  # the grid has 3 times
    assert (info.value.name, info.value.rule) == (
        "k_values", "must not exceed the grid's k_count = 3, got (1, 4)"
    )
    assert dataclasses.replace(_small_spec(0.04), k_values=(1, 3)).k_values == (1, 3)


@pytest.mark.parametrize("workers", [0, -3, True, 1.0, "2"])
def test_ensembles_refuse_bad_worker_counts(monkeypatch, workers):
    # workers = 0, -3 and True once ran serially with no error.
    monkeypatch.setattr(ensemble, "_map_chunks", lambda *a: pytest.fail("chunks ran"))
    error = ParameterError if type(workers) is int else TypeError
    with pytest.raises(error, match="^workers must "):
        run_gas_scaling(_small_spec(0.04, histories=10), workers)
    with pytest.raises(error, match="^workers must "):
        run_kac_ensemble(16, 0.3, 10, 4, 0.1, 0, workers)


@pytest.mark.parametrize("histories", [10.5, 200.0, True, "200"])
def test_scaling_spec_histories_must_be_an_integer(histories):
    with pytest.raises(TypeError, match="^histories must be an integer, got "):
        _small_spec(0.04, histories=histories)
    spec = _small_spec(0.04, histories=np.int64(200))
    assert type(spec.histories) is int and spec.histories == 200


@pytest.mark.parametrize(
    "name, value",
    [
        # Once truncated to N = 100 and 200.
        ("n_values", (100.7, 200.2)),
        ("n_values", (50, 2.5)),
        ("n_values", (True, 100)),
        ("n_values", ("3", 100)),
        ("k_values", (1.9,)),
        ("k_values", (True,)),
        ("k_values", ("3",)),
        ("master_seed", 1.5),
        ("master_seed", True),
        ("master_seed", "3"),
    ],
)
def test_scaling_spec_counts_and_seed_must_be_integers(name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        dataclasses.replace(_small_spec(0.04), **{name: value})


def test_scaling_spec_stores_numpy_integers_as_ints():
    spec = dataclasses.replace(
        _small_spec(0.04),
        n_values=np.array([50, 100]),
        k_values=(np.int64(1), np.int32(3)),
        master_seed=np.int64(99),
    )
    assert spec.n_values == (50, 100) and spec.k_values == (1, 3)
    assert spec.master_seed == 99
    for v in (*spec.n_values, *spec.k_values, spec.master_seed):
        assert type(v) is int
    with pytest.raises(ValueError, match="^n_values must lie in \\[1, inf\\], got 0$"):
        dataclasses.replace(spec, n_values=(0, 50))


def test_scaling_epsilon_above_range_gives_zero_deviations():
    # |f - 0.5| can never exceed 0.6, so the counter must stay at zero.
    res = run_gas_scaling(_small_spec(0.6, histories=300))
    assert np.all(res.deviations == 0)


def test_scaling_counts_are_monotone_in_k():
    res = run_gas_scaling(_small_spec(0.04))
    assert np.all(np.diff(res.deviations, axis=1) >= 0)
    assert np.all(res.p_hat <= 1.0) and np.all(res.p_hat >= 0.0)
    assert np.allclose(res.stderr, np.sqrt(res.p_hat * (1 - res.p_hat) / res.histories))


def test_scaling_deviations_decrease_with_n():
    res = run_gas_scaling(_small_spec(0.04))
    # Larger N concentrates harder; at these sizes the gap is wide.
    assert res.deviations[1, 0] < res.deviations[0, 0]


def test_scaling_csv_deterministic_across_workers(tmp_path):
    spec = _small_spec(0.04, histories=1500)
    paths = []
    for workers in (1, 2):
        res = run_gas_scaling(spec, workers=workers)
        path = tmp_path / f"scaling_w{workers}.csv"
        res.to_csv(path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    header = paths[0].decode().splitlines()[0]
    assert header == "N,K,deviations,M,p_hat,p_hat_over_K,stderr"


def _first_exceedances(initial, region, grid, n, epsilon, seed, base, count):
    """Oracle: each history sampled and traced on its own; its first grid
    index outside the epsilon band, or 0 if it never leaves."""
    first = np.zeros(count, dtype=np.int64)
    for h in range(count):
        state = sample_microstate(initial, n, region.dim, RngStream(seed, base + h))
        values = trace(state, region, grid).values
        over = np.flatnonzero(np.abs(values - region.measure()) > epsilon)
        first[h] = over[0] + 1 if over.size else 0
    return first


@pytest.mark.parametrize(
    "region, initial",
    [
        (_REGION, InitialMeasureSpec(UniformPositions(_REGION), GaussianMomenta(1.0))),
        (
            TorusRegion((0.0, 0.25), (0.5, 0.75)),
            InitialMeasureSpec(
                UniformPositions(TorusRegion((0.0, 0.0), (0.5, 1.0))), GaussianMomenta(0.8)
            ),
        ),
    ],
    ids=["1d", "2d"],
)
def test_scaling_first_exceedances_match_single_history_traces(region, initial):
    # Oracle: sample every history on its own, trace f along the grid and
    # take the first grid index outside the epsilon band.  With every K
    # requested, the deviation table is the cumulative histogram of those
    # first exceedances, which 300 histories (two chunks, so the live rows
    # are refilled on several steps) must reproduce exactly.
    grid = TimeGrid(0.0, 0.7, 12)
    spec = ScalingExperimentSpec(
        n_values=(40, 120),
        k_values=tuple(range(1, 13)),
        histories=300,
        epsilon=0.06,
        grid=grid,
        region=region,
        initial=initial,
        master_seed=17,
    )
    res = run_gas_scaling(spec)
    for i, n in enumerate(spec.n_values):
        first = _first_exceedances(
            initial, region, grid, n, spec.epsilon, 17, i * spec.histories, spec.histories
        )
        hist = np.bincount(first, minlength=grid.k_count + 1)
        assert np.array_equal(res.deviations[i], np.cumsum(hist[1:]))
        assert 0 < res.deviations[i, -1] < spec.histories


def test_scaling_chunk_swap_fill_matches_single_history_traces(monkeypatch):
    # Three rows per counting tile, and particle counts small enough that
    # histories die on many different steps.  The recording counter keeps
    # every step's counts in row order, which shows that the cases run
    # include a step where only trailing live rows exceed (nothing moves),
    # a step where every remaining history exceeds, and histories that
    # never exceed; each chunk must still equal the per-history oracle.
    steps = []

    class _RecordingCounter(gas.BoxCounter):
        def counts(self, t, rows=None):
            counts = super().counts(t, rows)
            steps.append(counts.copy())
            return counts

    monkeypatch.setattr(ensemble, "BoxCounter", _RecordingCounter)
    grid = TimeGrid(0.0, 0.3, 25)
    times = tuple(float(t) for t in grid.times)
    seed, base, count = 23, 5, 40
    no_movers = all_exceed = never = 0
    death_steps = set()
    for n, epsilon in [(8, 0.2), (12, 0.2), (9, 0.25), (16, 0.2)]:
        monkeypatch.setattr(ensemble, "_GAS_TILE", 3 * n)
        steps.clear()
        got = ensemble._gas_scaling_chunk(
            (n, 1, _EQUILIBRIUM, _REGION, times, epsilon, seed, base, count)
        )
        first = _first_exceedances(_EQUILIBRIUM, _REGION, grid, n, epsilon, seed, base, count)
        want = np.bincount(first, minlength=grid.k_count + 1)
        assert got.tolist() == want.tolist()
        for counts in steps:
            exceeded = np.abs(counts / n - _REGION.measure()) > epsilon
            live = counts.size - np.count_nonzero(exceeded)
            no_movers += bool(0 < live < counts.size and not exceeded[:live].any())
            all_exceed += bool(exceeded.all())
        never += int(want[0])
        death_steps.update(np.flatnonzero(want[1:]).tolist())
    assert no_movers > 0 and all_exceed > 0 and never > 0
    assert len(death_steps) >= 15


def test_scaling_counts_no_grid_time_past_the_largest_k(monkeypatch):
    # A 100-time grid with K at most 5: only the first 5 times can reach a
    # result, so they are the only times any chunk counts.
    asked = set()

    class _RecordingCounter(gas.BoxCounter):
        def counts(self, t, rows=None):
            asked.add(t)
            return super().counts(t, rows)

    def run(k_count):
        grid = TimeGrid(0.0, 0.7, k_count)
        return run_gas_scaling(ScalingExperimentSpec(
            (20, 40), (1, 5), 300, 0.2, grid, _REGION, _EQUILIBRIUM, 13))

    monkeypatch.setattr(ensemble, "BoxCounter", _RecordingCounter)
    long = run(100)
    assert sorted(asked) == TimeGrid(0.0, 0.7, 100).times[:5].tolist()
    cut = run(5)
    for field in ("deviations", "p_hat", "p_hat_over_k", "stderr"):
        assert getattr(long, field).tolist() == getattr(cut, field).tolist()


class _FoldingMomenta:
    """Duck-typed momentum law: ``law``'s draws, but -1e-17 on the first axis.

    From the point 1e-17 that coordinate lies in [-3.5e-17, -1.1e-17] for
    2.1 <= t <= 4.5, where its fractional part rounds to exactly 1.0: the
    torus point 0.0, inside a box whose lower face is 0.
    """

    def __init__(self, law):
        self.law = law

    def sample(self, n, dim, gen):
        p = self.law.sample(n, dim, gen)
        p[:, 0] = -1e-17
        return p


_TABULATED = TabulatedMomenta((-2.0, -1.0, 0.0, 0.5, 2.0), (0.0, 1.0, 3.0, 1.0, 0.2))
_TILE_CASES = {
    "1d": (_EQUILIBRIUM, _REGION, TimeGrid(0.0, 0.3, 25), 12, 0.2),
    "2d-box-tabulated": (
        InitialMeasureSpec(UniformPositions(TorusRegion((0.0, 0.0), (1.0, 1.0))), _TABULATED),
        TorusRegion((0.0, 0.25), (0.5, 0.75)), TimeGrid(0.0, 0.4, 25), 16, 0.2,
    ),
    # The first axis spans the whole torus, so only the fold keeps a
    # particle there inside: 1.0 < 1.0 is false.
    "2d-point-fold": (
        InitialMeasureSpec(PointPositions((1e-17, 0.3)), _FoldingMomenta(_TABULATED)),
        TorusRegion((0.0, 0.25), (1.0, 0.75)), TimeGrid(2.0, 0.1, 25), 10, 0.2,
    ),
}


@pytest.mark.parametrize("case", sorted(_TILE_CASES))
def test_scaling_chunk_is_the_same_at_every_tile_size(monkeypatch, case):
    # Tiles of 1, 3 and 7 histories and tiles at least as large as the
    # chunk: a 40-history chunk in 40, 14 (the last of 1 row), 6 (the last
    # of 5) or 1 tile.  Every tiling must equal the per-history oracle.
    initial, region, grid, n, epsilon = _TILE_CASES[case]
    times = tuple(float(t) for t in grid.times)
    seed, base, count = 31, 7, 40
    first = _first_exceedances(initial, region, grid, n, epsilon, seed, base, count)
    want = np.bincount(first, minlength=grid.k_count + 1)
    if case == "2d-point-fold":
        # Every grid time folds the first axis onto 0.0, and only the fold
        # keeps any history alive past the first step.
        assert (fractional_part(1e-17 - 1e-17 * np.asarray(times)) == 0.0).all()
        assert want[1] < count
    for rows in (1, 3, 7, count, 2 * count):
        monkeypatch.setattr(ensemble, "_GAS_TILE", rows * n * region.dim)
        got = ensemble._gas_scaling_chunk(
            (n, region.dim, initial, region, times, epsilon, seed, base, count)
        )
        assert got.tolist() == want.tolist(), rows
        tiles = set((np.flatnonzero(first) // rows).tolist())
        if rows < count:
            assert len(tiles) >= 2
        if count % rows > 1:
            # Deaths in the last, partial tile of several histories.
            assert (count - 1) // rows in tiles
    assert 0 < want[0] < count and len(np.flatnonzero(want[1:])) >= 5


@pytest.mark.parametrize("case", sorted(_TILE_CASES))
def test_scaling_csv_bytes_do_not_depend_on_the_tile_size(monkeypatch, tmp_path, case):
    initial, region, grid, n, epsilon = _TILE_CASES[case]
    spec = ScalingExperimentSpec(
        n_values=(n, 2 * n),
        k_values=(1, 5, 25),
        histories=300,
        epsilon=epsilon,
        grid=grid,
        region=region,
        initial=initial,
        master_seed=41,
    )
    csvs = set()
    for tile in (1, 3 * n, 7 * 2 * n, ensemble._GAS_TILE, 1 << 30):
        monkeypatch.setattr(ensemble, "_GAS_TILE", tile * region.dim)
        path = tmp_path / f"tile{tile}.csv"
        run_gas_scaling(spec).to_csv(path)
        csvs.add(path.read_bytes())
    assert len(csvs) == 1


def test_scaling_chunk_samples_and_counts_one_tile_at_a_time(monkeypatch):
    # A 256-history chunk at N = 3000 is 12 MiB of positions and momenta.
    # Sampled and counted one cache-sized tile at a time, in buffers and one
    # counter that live for the whole chunk, it peaks near 1 MiB.
    built = []

    class _RecordingCounter(gas.BoxCounter):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ensemble, "BoxCounter", _RecordingCounter)
    times = tuple(float(t) for t in TimeGrid(0.0, 10.0, 25).times)
    payload = (3000, 1, _EQUILIBRIUM, _REGION, times, 0.04, 3, 0, 256)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hist = ensemble._gas_scaling_chunk(payload)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert hist.sum() == 256
    assert peak <= 2 << 20, f"peak {peak / 2**20:.2f} MiB"
    assert len(built) == 1


class _SpoiledLaw:
    """Duck-typed law: ``law``'s draws, with one coordinate set to ``value``
    in the draw of call number ``spoiled`` (0-based), one call per history."""

    def __init__(self, law, spoiled, value):
        self.law, self.spoiled, self.value, self.calls = law, spoiled, value, 0

    def sample(self, n, dim, gen):
        out = self.law.sample(n, dim, gen)
        if self.calls == self.spoiled:
            out[n // 2, 0] = self.value
        self.calls += 1
        return out


@pytest.mark.parametrize(
    "which, value, message",
    [
        ("positions", 1.0, "positions must lie in [0, 1) coordinatewise"),
        ("momenta", math.inf, "positions and momenta must be finite"),
    ],
)
def test_scaling_chunk_validates_every_tile(monkeypatch, which, value, message):
    # Tiles of 3 histories; only history 4, in the second tile, is invalid.
    # The refilled tile must fail with the constructor's own error, before
    # any of its rows is counted.
    n, count = 8, 8
    laws = {"positions": _EQUILIBRIUM.positions, "momenta": _EQUILIBRIUM.momenta}
    spoiled = _SpoiledLaw(laws[which], 4, value)
    laws[which] = spoiled
    initial = InitialMeasureSpec(laws["positions"], laws["momenta"])
    xs, ps = np.full((1, n, 1), 0.5), np.zeros((1, n, 1))
    {"positions": xs, "momenta": ps}[which][0, n // 2, 0] = value
    with pytest.raises(ValueError) as direct:
        gas.BoxCounter(_REGION, xs, ps)
    assert str(direct.value) == message
    counted = []

    class _RecordingCounter(gas.BoxCounter):
        def counts(self, t, rows=None):
            counted.append(t)
            return super().counts(t, rows)

    monkeypatch.setattr(ensemble, "BoxCounter", _RecordingCounter)
    monkeypatch.setattr(ensemble, "_GAS_TILE", 3 * n)
    # |f - 1/2| <= 1/2 < 0.9: the first tile lives through every time.
    times = tuple(float(t) for t in TimeGrid(0.0, 0.3, 5).times)
    with pytest.raises(ValueError) as chunk:
        ensemble._gas_scaling_chunk((n, 1, initial, _REGION, times, 0.9, 0, 0, count))
    assert str(chunk.value) == message
    assert spoiled.calls == 6 and len(counted) == len(times)


def test_scaling_folds_a_wrap_onto_one_back_to_zero():
    # x = 1e-17, p = -2e-17, t = 1: y = -1e-17 and y - floor(y) rounds to
    # exactly 1.0, which is the point 0.0 of the torus and so inside [0, 0.9).
    spec = ScalingExperimentSpec(
        n_values=(1,),
        k_values=(1,),
        histories=1,
        epsilon=0.5,
        grid=TimeGrid(0.0, 1.0, 1),
        region=TorusRegion.interval(0.0, 0.9),
        initial=InitialMeasureSpec(PointPositions((1e-17,)), _ConstantLaw(-2e-17)),
        master_seed=0,
    )
    state = sample_microstate(spec.initial, 1, 1, RngStream(0, 0))
    assert fraction_in(state, 1.0, spec.region) == 1.0
    res = run_gas_scaling(spec)
    assert res.deviations[0, 0] == 0


@pytest.mark.parametrize(
    "initial, message",
    [
        (InitialMeasureSpec(_ConstantLaw(1.0), GaussianMomenta(1.0)), r"\[0, 1\)"),
        (InitialMeasureSpec(_ConstantLaw(0.5), _ConstantLaw(math.nan)), "finite"),
        (InitialMeasureSpec(_ConstantLaw(math.inf), GaussianMomenta(1.0)), "finite"),
    ],
    ids=["position-on-upper-face", "nan-momentum", "infinite-position"],
)
def test_scaling_rejects_invalid_sampled_states(initial, message):
    spec = dataclasses.replace(_small_spec(0.04, histories=300), initial=initial)
    with pytest.raises(ValueError, match=message):
        run_gas_scaling(spec)


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, payloads):
        return map(func, payloads)


def test_one_pool_per_run_never_larger_than_the_chunk_count(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", _RecordingPool)
    # One 512-history ring chunk runs in process, whatever the worker count.
    single = run_kac_ensemble(64, 0.3, 512, 8, 0.2, seed=1, workers=8)
    assert _RecordingPool.sizes == []
    assert np.array_equal(single.mean, run_kac_ensemble(64, 0.3, 512, 8, 0.2, seed=1).mean)
    # Three ring chunks: three processes, not eight.
    run_kac_ensemble(64, 0.3, 1100, 8, 0.2, seed=1, workers=8)
    assert _RecordingPool.sizes == [3]
    # Two n values of two gas chunks each share one pool of four.
    run_gas_scaling(_small_spec(0.04, histories=300), workers=8)
    assert _RecordingPool.sizes == [3, 4]


# ---------------------------------------------------------------------------
# Fluctuation traces


def test_fluctuation_trace_constant_when_momenta_vanish():
    # Positions strictly inside the region and momenta confined to 1e-9, so
    # no particle can cross a boundary on this grid.
    frozen = InitialMeasureSpec(
        UniformPositions(TorusRegion.interval(0.3, 0.6)),
        TabulatedMomenta((-1e-9, 0.0, 1e-9), (0.0, 1.0, 0.0)),
    )
    series = run_fluctuation_trace(
        200, frozen, TorusRegion.interval(0.2, 0.7), TimeGrid(0.0, 1.0, 10), seed=5
    )
    assert np.all(series.values == 1.0)


def test_fluctuation_trace_seed_dependence():
    grid = TimeGrid(10.0, 1.0, 10)
    a = run_fluctuation_trace(500, _EQUILIBRIUM, _REGION, grid, seed=1)
    b = run_fluctuation_trace(500, _EQUILIBRIUM, _REGION, grid, seed=1)
    c = run_fluctuation_trace(500, _EQUILIBRIUM, _REGION, grid, seed=2)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_fluctuation_spread_shrinks_with_n():
    grid = TimeGrid(20.0, 0.5, 120)
    spreads = {}
    for n in (100, 10**4):
        series = run_fluctuation_trace(n, _EQUILIBRIUM, _REGION, grid, seed=37)
        spreads[n] = series.values.std(ddof=1)
    ratio = spreads[100] / spreads[10**4]
    # Equilibrium spread scales like 1/sqrt(N): ratio should sit near 10.
    assert 5.0 < ratio < 20.0


# ---------------------------------------------------------------------------
# Ring ensembles


def test_kac_ensemble_matches_product_formula():
    n, mu, m = 256, 0.3, 4000
    res = run_kac_ensemble(n, mu, m, t_max=12, epsilon=0.5, seed=11)
    for t in (1, 3, 5, 10):
        se = math.sqrt(max(res.variance[t], 1e-12) / m)
        want = expected_delta_bar(mu, t, n)
        assert abs(res.mean[t] - want) < 4.0 * se
    assert res.mean[0] == 1.0
    assert res.variance[0] == 0.0


def test_kac_ensemble_symmetric_rate_has_zero_mean():
    res = run_kac_ensemble(128, 0.5, 3000, t_max=6, epsilon=0.5, seed=13)
    for t in range(1, 7):
        se = math.sqrt(max(res.variance[t], 1e-12) / 3000)
        assert abs(res.mean[t]) < 4.0 * se


def test_kac_ensemble_variance_scales_inversely_with_size():
    n, mu, m = 512, 0.3, 3000
    res = run_kac_ensemble(n, mu, m, t_max=40, epsilon=0.5, seed=17)
    lam = 1.0 - 2.0 * mu
    cap = 3.0 * (1.0 + lam * lam) / (1.0 - lam * lam)
    scaled = n * res.variance[1:]  # t = 0 is deterministic
    assert np.all(scaled < cap)


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.5])
def test_exact_delta_sq_matches_brute_force(mu: float):
    # Every t <= 2N up to N = 16, then N = 20 (16 chunks of codes) on both
    # sides of t = N/2, N and 2N.
    cases = [(n, t) for n in (*range(1, 13), 16) for t in range(2 * n + 1)]
    cases += [(20, t) for t in (1, 3, 7, 10, 11, 19, 20, 21, 30, 33, 39, 40)]
    for n, t in cases:
        exact = brute_force_expectation(n, mu, t)
        want = exact.variance + exact.mean**2
        assert abs(expected_delta_sq(mu, t, n) / n**2 - want) < 1e-12, (n, t)


def test_kac_ensemble_variance_matches_exact_oracle():
    # The sample variance of M near-Gaussian values has relative standard
    # error sqrt(2 / (M - 1)); each t is checked at six of them.
    n, mu, m, t_max = 4096, 0.3, 2048, 32
    res = run_kac_ensemble(n, mu, m, t_max=t_max, epsilon=0.5, seed=43)
    assert res.variance[0] == 0.0
    tol = 6.0 * math.sqrt(2.0 / (m - 1))
    for t in range(1, t_max + 1):
        exact = expected_delta_sq(mu, t, n) / n**2 - expected_delta_bar(mu, t, n) ** 2
        assert abs(res.variance[t] / exact - 1.0) < tol, t


def test_kac_ensemble_window_counter():
    res = run_kac_ensemble(
        64, 0.5, 500, t_max=20, epsilon=0.05, seed=23, window=(5.0, 15.0)
    )
    assert res.window_exceed_count is not None
    assert 0 <= res.window_exceed_count <= 500
    assert res.window_exceed_fraction == res.window_exceed_count / 500
    # The window counter can never exceed the union of per-time counts.
    union_cap = res.p_dev[5:16].sum() * 500
    assert res.window_exceed_count <= union_cap + 1e-9
    peak = res.p_dev[5:16].max() * 500
    assert res.window_exceed_count >= peak - 1e-9


def _ring_trace_sums(n, mu, t_max, epsilon, seed, base, count, window):
    """The chunk's four results, from one ring_trace per history."""
    traces = np.array([
        ring_trace(
            KacConfiguration.all_white(sample_markers(n, mu, RngStream(seed, base + i))),
            t_max,
        )
        for i in range(count)
    ])
    over = np.abs(traces) > epsilon * n
    in_window = [window[0] <= t <= window[1] for t in range(t_max + 1)]
    return (
        traces.sum(axis=0).tolist(),
        (traces * traces).sum(axis=0).tolist(),
        over.sum(axis=0).tolist(),
        int(over[:, in_window].any(axis=1).sum()),
    )


def _chunk_sums(*payload):
    sum_d, sum_d2, exceed, window_count = ensemble._kac_ensemble_chunk(payload)
    return sum_d.tolist(), sum_d2.tolist(), exceed.tolist(), window_count


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("mu", [0.3, 1.0])
def test_kac_chunk_equals_sums_over_single_ring_traces(n: int, mu: float):
    # Every accumulator is an integer, so the batched chunk must equal the
    # per-history sums exactly; t_max = 2N carries the frame past one period.
    payload = (n, mu, 2 * n, 0.5, 31, 5, 40, (2.0, float(n // 2)))
    assert _chunk_sums(*payload) == _ring_trace_sums(*payload)


@pytest.mark.parametrize("n", [1, 7, 9, 64])
@pytest.mark.parametrize("short", [0, 1], ids=["2N", "2N-1"])
def test_kac_chunk_spans_many_tiles(monkeypatch, n: int, short: int):
    # Three rings per tile, so 23 histories make seven full tiles and a
    # partial one.  At t = 2N every ring is all white again, so t = 2N - 1
    # is also run: there a tile that started from the last tile's colors
    # would change the sums.
    width = -(-n // 8) * 8
    monkeypatch.setattr(ensemble, "_RING_TILE", 3 * width)
    payload = (n, 0.3, 2 * n - short, 0.3, 37, 2, 23, (1.5, n + 0.5))
    assert _chunk_sums(*payload) == _ring_trace_sums(*payload)


@pytest.mark.parametrize(
    "window",
    [(2.5, 7.5), (-3.0, 4.0), (-math.inf, 0.0), (6.0, math.inf), (-math.inf, math.inf),
     (16.5, math.inf), (-7.5, -0.5), (3.0, 3.0), (16.0, 16.0)],
)
def test_kac_ensemble_window_ends_compare_as_reals(window):
    # Fractional, negative, past-t_max and infinite ends select the integer
    # times t with lo <= t <= hi, as a Python comparison does.
    n, mu, m, t_max, epsilon, seed = 21, 0.3, 30, 16, 0.5, 41
    res = run_kac_ensemble(n, mu, m, t_max, epsilon, seed, window=window)
    want = _ring_trace_sums(n, mu, t_max, epsilon, seed, 0, m, window)[3]
    assert res.window_exceed_count == want
    assert res.window == window


@pytest.mark.parametrize("window", [(math.nan, 10.0), (0.0, math.nan), (math.nan, math.nan)])
def test_kac_ensemble_rejects_nan_window_ends(window):
    with pytest.raises(ValueError, match="got nan$"):
        run_kac_ensemble(16, 0.3, 10, t_max=4, epsilon=0.1, seed=0, window=window)


@pytest.mark.parametrize(
    "window, message",
    [((True, 5.0), "t_lo must be a real number, got True"),
     (("1", 5.0), "t_lo must be a real number, got '1'"),
     ((0.0, False), "t_hi must be a real number, got False")],
)
def test_kac_ensemble_window_ends_must_be_real_numbers(window, message):
    # float() used to run (True, "5") as the window (1.0, 5.0).
    with pytest.raises(TypeError, match=f"^{message}$"):
        run_kac_ensemble(16, 0.3, 10, t_max=4, epsilon=0.1, seed=0, window=window)


def test_kac_ensemble_csv_deterministic_across_workers(tmp_path):
    blobs = []
    for workers in (1, 2):
        res = run_kac_ensemble(128, 0.25, 1200, t_max=16, epsilon=0.2, seed=29,
                               workers=workers)
        path = tmp_path / f"kac_w{workers}.csv"
        res.to_csv(path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode().splitlines()
    assert lines[0] == "t,mean,variance,p_dev,M"
    assert len(lines) == 18  # header + t = 0..16


def test_kac_ensemble_validation():
    with pytest.raises(ValueError):
        run_kac_ensemble(16, 0.3, 10, t_max=33, epsilon=0.1, seed=0)
    # |delta_bar| <= 1: epsilon = 1.5 once ran and reported p_dev = 0.
    for epsilon in (0.0, math.nan, 1.0, 1.5, math.inf):
        with pytest.raises(ValueError, match="^epsilon must lie in \\(0, 1\\), got "):
            run_kac_ensemble(16, 0.3, 10, t_max=4, epsilon=epsilon, seed=0)
    with pytest.raises(ValueError):
        run_kac_ensemble(16, 0.3, 10, t_max=4, epsilon=0.1, seed=0, window=(9.0, 3.0))
    for mu in (0.0, 1.5):
        with pytest.raises(ValueError, match="mu must lie in"):
            run_kac_ensemble(16, mu, 10, t_max=4, epsilon=0.1, seed=0)
    with pytest.raises(ValueError, match="^n_sites must lie in \\[1, inf\\], got 0$"):
        run_kac_ensemble(0, 0.3, 10, t_max=0, epsilon=0.1, seed=0)


@pytest.mark.parametrize("t_max", [2.5, 2.0, "3", None])
def test_kac_ensemble_t_max_must_be_an_integer(monkeypatch, t_max):
    monkeypatch.setattr(ensemble, "_map_chunks", lambda *a: pytest.fail("chunks ran"))
    with pytest.raises(TypeError, match="^t_max must be an integer, got "):
        run_kac_ensemble(16, 0.3, 10, t_max=t_max, epsilon=0.1, seed=0)


# seed = 1.5 once ran as seed 1, bit for bit.
@pytest.mark.parametrize("name", ["n_sites", "histories", "t_max", "seed"])
@pytest.mark.parametrize("value", [16.0, 10.5, True, "16", None, 1.5])
def test_kac_ensemble_counts_must_be_integers(monkeypatch, name, value):
    monkeypatch.setattr(ensemble, "_map_chunks", lambda *a: pytest.fail("chunks ran"))
    args = {"n_sites": 16, "mu": 0.3, "histories": 10, "t_max": 4, "epsilon": 0.1, "seed": 0}
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        run_kac_ensemble(**{**args, name: value})


@pytest.mark.parametrize("name", ["mu", "epsilon"])
@pytest.mark.parametrize("value", [True, "0.3", None])
def test_kac_ensemble_rates_must_be_real_numbers(monkeypatch, name, value):
    monkeypatch.setattr(ensemble, "_map_chunks", lambda *a: pytest.fail("chunks ran"))
    args = {"n_sites": 16, "mu": 0.3, "histories": 10, "t_max": 4, "epsilon": 0.1, "seed": 0}
    with pytest.raises(TypeError, match=f"^{name} must be a real number, got "):
        run_kac_ensemble(**{**args, name: value})


def test_kac_ensemble_accepts_numpy_integer_counts():
    want = run_kac_ensemble(16, 0.3, 10, t_max=4, epsilon=0.1, seed=1)
    got = run_kac_ensemble(
        np.int32(16), 0.3, np.int64(10), t_max=np.int64(4), epsilon=0.1, seed=np.int64(1)
    )
    assert type(got.n_sites) is int and type(got.histories) is int
    for field in ("mean", "variance", "p_dev"):
        assert np.array_equal(getattr(got, field), getattr(want, field))



def test_kac_ensemble_t_max_range_messages():
    with pytest.raises(ParameterError, match="^t_max must lie in \\[0, 32\\], got 33$"):
        run_kac_ensemble(16, 0.3, 10, t_max=33, epsilon=0.1, seed=0)
    with pytest.raises(ValueError, match="^t_max must lie in"):
        run_kac_ensemble(16, 0.3, 10, t_max=-1, epsilon=0.1, seed=0)
    res = run_kac_ensemble(16, 0.3, 10, t_max=np.int64(32), epsilon=0.1, seed=0)
    assert res.times.tolist() == list(range(33))


_EDGE_MUS = [2.0**-53, 3 * 2.0**-54, 0.1, 0.3, 0.5, 1 - 2.0**-53, 1.0]


@pytest.mark.parametrize("mu", _EDGE_MUS)
def test_kac_chunk_markers_equal_sample_markers(monkeypatch, mu: float):
    # The chunk's markers against sample_markers', row by row and stream by
    # stream over two tiles of 3 rings at N = 13.
    n, seed, base, count = 13, 53, 4, 6
    seen = []

    def recording(marked, black, t_max):
        seen.extend(marked.tolist())
        return ring_steps(marked, black, t_max)

    monkeypatch.setattr(ensemble, "ring_steps", recording)
    monkeypatch.setattr(ensemble, "_RING_TILE", 3 * 16)
    ensemble._kac_ensemble_chunk((n, mu, 4, 0.5, seed, base, count, None))
    want = [(sample_markers(n, mu, RngStream(seed, base + i)) < 0).tolist()
            for i in range(count)]
    assert seen == want


def test_kac_ensemble_rejects_int64_overflow_at_once(monkeypatch):
    # Sums of Delta^2 reach M * N^2 = 1e19 > 2^63 here; no chunk may run.
    monkeypatch.setattr(ensemble, "_map_chunks", lambda *a: pytest.fail("chunks ran"))
    with pytest.raises(ValueError, match="2\\^63"):
        run_kac_ensemble(10**6, 0.3, 10**7, t_max=0, epsilon=0.1, seed=0)
    with pytest.raises(ValueError, match="2\\^63"):
        run_kac_ensemble(2**31, 0.3, 2, t_max=0, epsilon=0.1, seed=0)


def test_kac_ensemble_variance_is_exact_for_crafted_sums(monkeypatch):
    # Three histories at N = 2^20 with Delta = N, N, N - 2: the exact sample
    # variance of delta_bar is 8 / (6 N^2), which subtracting the float
    # (sum Delta)^2 / m from sum Delta^2 misses by 6 parts in 10^5.
    n, m = 1 << 20, 3
    sums = (np.array([3 * n - 2]), np.array([3 * n * n - 4 * n + 4]), np.array([0]), 0)
    monkeypatch.setattr(ensemble, "_map_chunks", lambda *a: [sums])
    res = run_kac_ensemble(n, 0.3, m, t_max=0, epsilon=0.1, seed=0)
    assert res.variance.tolist() == [8 / (6 * n * n)]
    assert res.mean.tolist() == [(3 * n - 2) / (3 * n)]


def test_wall_time_scales_linearly_in_histories():
    # Performance regression guard: 4x the histories should cost about 4x
    # the time (factor-2 tolerance, min of two repetitions each).
    def measure(histories: int) -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            run_kac_ensemble(512, 0.3, histories, t_max=64, epsilon=0.5, seed=41)
            best = min(best, time.perf_counter() - t0)
        return best

    small = measure(2048)
    big = measure(8192)
    per_unit_ratio = big / (4.0 * small)
    assert 0.5 <= per_unit_ratio <= 2.0, f"scaling ratio {per_unit_ratio:.2f}"


# ---------------------------------------------------------------------------
# Summaries


def test_write_summary_json_is_stable_and_json_safe(tmp_path):
    payload = {
        "counts": np.array([1, 2, 3]),
        "value": np.float64(0.5),
        "n": np.int64(7),
        "nested": {"k": (1, 2)},
        "flag": np.bool_(True),
    }
    path = tmp_path / "summary.json"
    write_summary_json(path, payload)
    text = path.read_text()
    assert text.endswith("\n")
    body = json.loads(text)
    assert body["counts"] == [1, 2, 3]
    assert body["nested"]["k"] == [1, 2]
    assert body["flag"] is True and body["n"] == 7 and body["value"] == 0.5
    # Keys emerge sorted, so identical payloads serialize identically.
    assert list(body) == sorted(body)


def test_write_summary_json_failure_keeps_old_file(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text("{}\n")
    with pytest.raises(TypeError):
        write_summary_json(path, {"a": 1, "z": object()})  # fails mid-dump
    assert path.read_text() == "{}\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_run_metadata_fields():
    t0 = time.perf_counter()
    meta = run_metadata(t0)
    assert set(meta) == {"package_version", "python_version", "numpy_version", "wall_time_s"}
    assert meta["wall_time_s"] >= 0.0
