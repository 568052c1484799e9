"""Statistical marginals and determinism of the initial-condition sampler."""
from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from scipy import stats

from equilab import sampler
from equilab.core import RngStream, TorusRegion
from equilab.sampler import (
    GaussianMomenta,
    InitialMeasureSpec,
    PointPositions,
    TabulatedMomenta,
    UniformPositions,
    sample_microstate,
    sigma_for_mean_speed,
    thermal_momenta,
)


def test_sampling_is_deterministic_per_stream():
    spec = InitialMeasureSpec(
        UniformPositions(TorusRegion.interval(0.0, 0.5)), GaussianMomenta(1.0)
    )
    s1 = sample_microstate(spec, 500, 1, RngStream(42, 3))
    s2 = sample_microstate(spec, 500, 1, RngStream(42, 3))
    s3 = sample_microstate(spec, 500, 1, RngStream(42, 4))
    assert np.array_equal(s1.positions, s2.positions)
    assert np.array_equal(s1.momenta, s2.momenta)
    assert not np.array_equal(s1.positions, s3.positions)


@pytest.mark.parametrize("seed", range(3))
def test_uniform_positions_stay_in_region(seed: int):
    region = TorusRegion((0.2, 0.5), (0.7, 0.9))
    spec = InitialMeasureSpec(UniformPositions(region), GaussianMomenta(1.0))
    state = sample_microstate(spec, 2000, 2, RngStream(seed, 0))
    assert np.all(region.contains(state.positions))


def test_uniform_positions_mean_matches_law():
    # Uniform on [0, 0.5): mean 0.25, sd 0.5/sqrt(12).
    region = TorusRegion.interval(0.0, 0.5)
    spec = InitialMeasureSpec(UniformPositions(region), GaussianMomenta(1.0))
    n = 10**5
    state = sample_microstate(spec, n, 1, RngStream(7, 0))
    tol = 3.0 * (0.5 / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(state.positions.mean() - 0.25) < tol


def test_uniform_positions_ks_test():
    region = TorusRegion.interval(0.25, 0.75)
    gen = RngStream(19, 0).generator()
    x = UniformPositions(region).sample(10**5, 1, gen)[:, 0]
    res = stats.kstest(x, stats.uniform(loc=0.25, scale=0.5).cdf)
    assert res.pvalue > 0.01


@pytest.mark.parametrize("lower, upper", [((0.3,), (0.3,)), ((0.0, 0.4), (0.5, 0.4))])
def test_uniform_positions_reject_zero_width_region_when_built(lower, upper):
    with pytest.raises(ValueError, match="positive measure"):
        UniformPositions(TorusRegion(lower, upper))


def test_point_positions_are_exact():
    spec = InitialMeasureSpec(PointPositions((0.2, 0.8)), GaussianMomenta(2.0))
    state = sample_microstate(spec, 50, 2, RngStream(0, 0))
    assert np.all(state.positions == np.array([0.2, 0.8]))


def test_gaussian_momenta_moments():
    gen = RngStream(5, 0).generator()
    p = GaussianMomenta(1.7).sample(2 * 10**5, 1, gen)[:, 0]
    n = p.size
    assert abs(p.mean()) < 4.0 * 1.7 / math.sqrt(n)
    assert abs(p.std() - 1.7) < 4.0 * 1.7 / math.sqrt(2 * n)


def test_gaussian_momenta_half_normal_mean():
    # In one dimension E|p| = sigma * sqrt(2/pi).
    sigma = 1.3
    gen = RngStream(6, 0).generator()
    p = GaussianMomenta(sigma).sample(10**5, 1, gen)[:, 0]
    expect = sigma * math.sqrt(2.0 / math.pi)
    sd = sigma * math.sqrt(1.0 - 2.0 / math.pi)
    assert abs(np.abs(p).mean() - expect) < 3.0 * sd / math.sqrt(p.size)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GaussianMomenta(math.inf), ValueError, "sigma must be finite and > 0, got inf"),
        (lambda: GaussianMomenta(True), TypeError, "sigma must be a real number, got True"),
        (lambda: sigma_for_mean_speed(math.nan, 1), ValueError,
         "mean_speed must be finite and > 0, got nan"),
    ],
    ids=["sigma_inf", "sigma_bool", "mean_speed_nan"],
)
def test_momentum_scales_are_real_numbers(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("dim", [True, 2.0])
def test_mean_speed_dimension_must_be_an_integer(dim):
    # `dim not in (1, 2, 3)` let True run as dimension 1 and 2.0 as 2.
    with pytest.raises(TypeError, match=f"^dim must be an integer, got {dim!r}$"):
        sigma_for_mean_speed(1.0, dim)


@pytest.mark.parametrize("dim", [-1, 0, 4])
def test_mean_speed_dimension_out_of_range(dim):
    with pytest.raises(ValueError, match="^mean-speed calibration is defined for dim in"):
        sigma_for_mean_speed(1.0, dim)


def test_tabulated_momenta_ks_against_cdf():
    # Triangular density on [-1, 1]; its CDF is available in closed form.
    law = TabulatedMomenta((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    gen = RngStream(8, 0).generator()
    p = law.sample(10**5, 1, gen)[:, 0]
    res = stats.kstest(p, stats.triang(c=0.5, loc=-1.0, scale=2.0).cdf)
    assert res.pvalue > 0.01


def test_tabulated_momenta_validation():
    with pytest.raises(ValueError):
        TabulatedMomenta((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))  # grid not increasing
    with pytest.raises(ValueError):
        TabulatedMomenta((0.0, 1.0), (-1.0, 1.0))  # negative density
    with pytest.raises(ValueError):
        TabulatedMomenta((0.0, 1.0), (0.0, 0.0))  # vanishing density


@pytest.mark.parametrize(
    "grid,density",
    [
        ((-1.0, math.nan, 1.0), (0.0, 1.0, 0.0)),  # NaN slips past b <= a
        ((-1.0, 0.0, math.inf), (0.0, 1.0, 0.0)),
        ((-1.0, 0.0, 1.0), (0.0, math.inf, 0.0)),
        ((-1.0, 0.0, 1.0), (0.0, math.nan, 0.0)),
    ],
)
def test_tabulated_momenta_rejects_non_finite_nodes(grid, density):
    with pytest.raises(ValueError, match="finite"):
        TabulatedMomenta(grid, density)


@pytest.mark.parametrize(
    "mean_speed,dim,expected",
    [
        (1.0, 1, math.sqrt(math.pi / 2.0)),
        (2.0, 1, 2.0 * math.sqrt(math.pi / 2.0)),
        (1.0, 2, math.sqrt(2.0 / math.pi)),
    ],
)
def test_sigma_for_mean_speed_known_values(mean_speed, dim, expected):
    assert sigma_for_mean_speed(mean_speed, dim) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sigma_for_mean_speed_calibrates_sampled_speed(dim: int):
    law = thermal_momenta(1.0, dim)
    gen = RngStream(9, 0).generator()
    p = law.sample(10**5, dim, gen)
    speeds = np.linalg.norm(p, axis=1)
    # Speed sd is at most sigma * sqrt(d); use 4 standard errors of the mean.
    tol = 4.0 * law.sigma * math.sqrt(dim) / math.sqrt(p.shape[0])
    assert abs(speeds.mean() - 1.0) < tol


def test_sigma_for_mean_speed_rejects_high_dim():
    with pytest.raises(ValueError):
        sigma_for_mean_speed(1.0, 4)


def test_sample_microstate_validates_counts():
    spec = InitialMeasureSpec(PointPositions((0.5,)), GaussianMomenta(1.0))
    with pytest.raises(ValueError):
        sample_microstate(spec, 0, 1, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_microstate(spec, 5, 0, RngStream(0, 0))


@pytest.mark.parametrize("name", ["n", "dim"])
@pytest.mark.parametrize("value", [2.5, 1.0, True, "3"])
def test_sample_microstate_counts_must_be_integers(name, value):
    spec = InitialMeasureSpec(PointPositions((0.5,)), GaussianMomenta(1.0))
    args = {"n": 5, "dim": 1, name: value}
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        sample_microstate(spec, args["n"], args["dim"], RngStream(0, 0))


def test_sample_microstate_accepts_numpy_integer_counts():
    spec = InitialMeasureSpec(PointPositions((0.5,)), GaussianMomenta(1.0))
    want = sample_microstate(spec, 5, 1, RngStream(3, 0))
    got = sample_microstate(spec, np.int64(5), np.int32(1), RngStream(3, 0))
    assert np.array_equal(got.momenta, want.momenta) and got.n == 5


@pytest.mark.parametrize(
    "law, message",
    [
        (UniformPositions(TorusRegion((0.0, 0.0), (0.5, 1.0))),
         "position law dimension 2 does not match region dimension 1"),
        (PointPositions((0.25, 0.5)),
         "position law dimension 2 does not match region dimension 1"),
    ],
    ids=["uniform", "point"],
)
def test_position_laws_refuse_another_dimension(law, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        law.sample(4, 1, RngStream(0, 0).generator())


@pytest.mark.parametrize("point", [(1.0,), (-0.25,), (0.5, math.nan)])
def test_point_laws_refuse_points_off_the_torus(point):
    with pytest.raises(ValueError, match="point coordinates must lie in \\[0, 1\\)"):
        PointPositions(point)


@pytest.mark.parametrize(
    "build",
    [lambda: PointPositions(())],
    ids=["point"],
)
def test_point_laws_refuse_an_empty_point_when_built(build):
    with pytest.raises(ValueError, match="^point must not be empty$"):
        build()


def test_position_laws_carry_their_dimension():
    assert UniformPositions(TorusRegion((0.0, 0.0), (0.5, 1.0))).dim == 2
    assert PointPositions((0.25, 0.5, 0.75)).dim == 3


def test_position_laws_list_their_intervals():
    # Per-axis (lo, hi) pairs; a point a is the pair (a, a).
    box = UniformPositions(TorusRegion((0.2, 0.5), (0.7, 0.9)))
    assert box.intervals == ((0.2, 0.7), (0.5, 0.9))
    assert PointPositions((0.25, 0.5)).intervals == ((0.25, 0.25), (0.5, 0.5))


def test_momentum_characteristics_are_one_at_zero_and_vanish_far_out():
    u = np.array([0.0, 1e6, np.inf])
    gauss = GaussianMomenta(0.5).characteristic(u)
    assert gauss.tolist() == [1.0, 0.0, 0.0]
    tab = TabulatedMomenta((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0)).characteristic(u[:2])
    assert tab[0] == pytest.approx(1.0, abs=1e-15)
    # The triangle's transform is (2 - 2 cos u) / u^2, about 2e-12 at u = 1e6.
    assert abs(tab[1]) < 1e-11


_GAUSS_NODES = np.linspace(-4.0, 4.0, 81)
_MOMENTUM_EXAMPLES = {
    "GaussianMomenta": [GaussianMomenta(1.0), GaussianMomenta(1e-3), GaussianMomenta(30.0)],
    "TabulatedMomenta": [
        TabulatedMomenta((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        TabulatedMomenta((-3.0, -1.0, 0.0, 1.0, 3.0), (0.0, 0.5, 1.0, 0.5, 0.0)),
        TabulatedMomenta((0.0, 0.3, 2.0), (1.0, 0.2, 0.7)),
        TabulatedMomenta(tuple(_GAUSS_NODES), tuple(np.exp(-0.5 * _GAUSS_NODES**2))),
    ],
}


def test_every_momentum_characteristic_stays_within_one():
    # The mean-curve series stops on its run-of-three rule alone because
    # |phi| <= 1 as a float: then |chi_l| |nu_l| |phi| <= |chi_l| |nu_l|.
    # A new momentum law in sampler must add examples here.
    laws = {
        name for name in sampler.__all__
        if inspect.isclass(obj := getattr(sampler, name)) and hasattr(obj, "characteristic")
    }
    assert laws == set(_MOMENTUM_EXAMPLES)
    ramp = np.logspace(-300, 3, 1000)
    dense = np.concatenate([np.linspace(-1e3, 1e3, 20001), [0.0, 1e-300], ramp, -ramp])
    for law in (law for examples in _MOMENTUM_EXAMPLES.values() for law in examples):
        u = dense
        if isinstance(law, TabulatedMomenta):
            # Both sides of the series switch |u h| = 0.25 of every segment width.
            switch = sampler._TAYLOR_SWITCH / np.unique(np.diff(law.grid))
            u = np.concatenate([dense, np.outer(switch, 1.0 + np.arange(-4, 5) * 2.0**-52).ravel()])
        assert np.abs(law.characteristic(u)).max() <= 1.0, law
