"""Fourier-mean oracles and log-space bound arithmetic.

The series evaluator is checked against two independent oracles: a wrapped
Gaussian CDF sum (positions of a single particle at time t are exactly
Gaussian before wrapping) and seeded Monte Carlo sampling.  Neither oracle
shares any code with the series implementation.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from equilab import analytic
from equilab.core import LogProbability, ParameterError, RngStream, TorusRegion
from equilab.analytic import (
    DecayEstimate,
    _tabulated_char,
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
from equilab.sampler import (
    GaussianMomenta,
    InitialMeasureSpec,
    PointMixturePositions,
    PointPositions,
    TabulatedMomenta,
    UniformPositions,
    sample_microstate,
    sigma_for_mean_speed,
    thermal_momenta,
)


# ---------------------------------------------------------------------------
# Independent oracles


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _wrapped_gaussian_prob(center: float, scale: float, a: float, b: float) -> float:
    """P(center + scale * Z mod 1 in [a, b)) for standard normal Z."""
    if scale == 0.0:
        return 1.0 if a <= center % 1.0 < b else 0.0
    k_max = int(math.ceil(8.0 * scale)) + 2
    total = 0.0
    for k in range(-k_max, k_max + 1):
        total += _phi((b + k - center) / scale) - _phi((a + k - center) / scale)
    return total


def _oracle_fraction(position_law, sigma: float, region: TorusRegion, t: float) -> float:
    """Wrapped-Gaussian oracle for E f(t), one dimension, Gaussian momenta."""
    a, b = region.lower[0], region.upper[0]
    scale = sigma * t
    if isinstance(position_law, PointPositions):
        return _wrapped_gaussian_prob(position_law.point[0], scale, a, b)
    if isinstance(position_law, PointMixturePositions):
        return sum(
            w * _wrapped_gaussian_prob(p[0], scale, a, b)
            for p, w in zip(position_law.points, position_law.weights)
        )
    lo, hi = position_law.region.lower[0], position_law.region.upper[0]
    nodes, weights = np.polynomial.legendre.leggauss(500)
    xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = np.array([_wrapped_gaussian_prob(x, scale, a, b) for x in xs])
    # Gauss-Legendre integral divided by the interval length = uniform average.
    return float(np.dot(weights, vals)) * 0.5


# ---------------------------------------------------------------------------
# Box coefficients chi_l, computed only by analytic._interval_transform


def _chi(a: float, b: float, ells) -> np.ndarray:
    return analytic._interval_transform(a, b, np.asarray(ells, dtype=float))


def test_box_coeff_zero_mode_is_measure():
    # The series starts from |I| = b - a, the l -> 0 limit of the transform.
    for a, b in ((0.0, 0.5), (0.2, 0.9)):
        chi0 = _chi(a, b, [1e-12])[0]
        assert chi0.real == pytest.approx(b - a, rel=1e-9)
        assert abs(chi0.imag) < 1e-9


def test_box_coeff_half_interval_magnitudes():
    mags = np.abs(_chi(0.0, 0.5, np.arange(1, 41)))
    odd = np.arange(1, 41, 2)
    assert mags[odd - 1] == pytest.approx(1.0 / (math.pi * odd), rel=1e-12)
    # Even modes vanish for the half interval; a stopping rule on the raw
    # terms would truncate the series at l = 2.
    assert np.all(mags[1::2] < 1e-15)


def test_box_coeff_full_circle_vanishes():
    assert np.all(np.abs(_chi(0.0, 1.0, [1, 2, 7, 100, 4097])) < 1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_box_coeff_envelope(seed: int):
    # _series_1d stops on chi_env = min(b - a, 1/(pi l)) in place of |chi_l|.
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 0.5)
    b = rng.uniform(a, 1.0)
    ells = np.arange(1.0, 4097.0)
    chi = _chi(a, b, ells)
    assert np.all(np.abs(chi) <= np.minimum(b - a, 1.0 / (math.pi * ells)) + 1e-15)
    # The same values as (e^{2 pi i l b} - e^{2 pi i l a}) / (2 pi i l).
    u = 2.0 * math.pi * ells[:40]
    naive = (np.exp(1j * u * b) - np.exp(1j * u * a)) / (1j * u)
    assert np.allclose(chi[:40], naive, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# expected_fraction vs the wrapped-Gaussian oracle


@pytest.mark.parametrize(
    "law",
    [
        PointPositions((0.2,)),
        PointPositions((0.0,)),
        UniformPositions(TorusRegion.interval(0.0, 0.5)),
        UniformPositions(TorusRegion.interval(0.3, 0.9)),
        PointMixturePositions(((0.1,), (0.6,)), (0.3, 0.7)),
    ],
)
@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 5.0])
def test_expected_fraction_matches_wrapped_gaussian(law, t: float):
    sigma = 1.0
    region = TorusRegion.interval(0.25, 0.65)
    spec = InitialMeasureSpec(law, GaussianMomenta(sigma))
    got = expected_fraction(spec, region, t)
    want = _oracle_fraction(law, sigma, region, t)
    assert got == pytest.approx(want, abs=5e-9)


@pytest.mark.parametrize("sigma", [0.25, 1.2533141373155003])
@pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
def test_expected_fraction_half_interval_case(sigma: float, t: float):
    # The half-open half interval exercises the vanishing even coefficients.
    region = TorusRegion.interval(0.0, 0.5)
    law = UniformPositions(region)
    spec = InitialMeasureSpec(law, GaussianMomenta(sigma))
    got = expected_fraction(spec, region, t)
    want = _oracle_fraction(law, sigma, region, t)
    assert got == pytest.approx(want, abs=5e-9)


def test_expected_fraction_t_zero_is_overlap():
    momenta = GaussianMomenta(1.0)
    region = TorusRegion.interval(0.2, 0.7)
    cases = [
        (PointPositions((0.3,)), 1.0),
        (PointPositions((0.7,)), 0.0),  # half-open: the upper face is out
        (PointPositions((0.2,)), 1.0),
        (UniformPositions(TorusRegion.interval(0.0, 0.5)), 0.6),
        (PointMixturePositions(((0.3,), (0.9,)), (0.25, 0.75)), 0.25),
    ]
    for law, want in cases:
        got = expected_fraction(InitialMeasureSpec(law, momenta), region, 0.0)
        assert got == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 10.0])
def test_uniform_position_on_full_torus_gives_measure(t: float):
    # Uniform positions kill every nonzero mode, so E f(t) = |I| for all t.
    spec = InitialMeasureSpec(
        UniformPositions(TorusRegion.interval(0.0, 1.0)), GaussianMomenta(0.8)
    )
    region = TorusRegion.interval(0.15, 0.55)
    assert expected_fraction(spec, region, t) == pytest.approx(0.4, abs=1e-12)


def test_expected_fraction_large_time_reaches_measure():
    spec = InitialMeasureSpec(PointPositions((0.2,)), GaussianMomenta(1.0))
    region = TorusRegion.interval(0.0, 0.5)
    assert abs(expected_fraction(spec, region, 5.0) - 0.5) < 1e-10


def test_expected_fraction_at_a_huge_time_is_the_measure_without_warning():
    # (sigma u)^2 overflows to inf at t = 1e300, and exp(-inf) = 0 is the exact term.
    region = TorusRegion.interval(0.0, 0.5)
    spec = InitialMeasureSpec(UniformPositions(region), GaussianMomenta(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expected_fraction(spec, region, 1e300) == 0.5


def test_expected_fraction_monte_carlo_oracle():
    sigma = sigma_for_mean_speed(1.0, 1)
    law = PointPositions((0.2,))
    spec = InitialMeasureSpec(law, GaussianMomenta(sigma))
    region = TorusRegion.interval(0.0, 0.5)
    n = 10**6
    state = sample_microstate(spec, n, 1, RngStream(101, 0))
    for t in (0.1, 0.3, 1.0):
        y = state.positions[:, 0] + state.momenta[:, 0] * t
        y -= np.floor(y)
        p_hat = np.count_nonzero((y >= 0.0) & (y < 0.5)) / n
        want = expected_fraction(spec, region, t)
        se = math.sqrt(max(want * (1.0 - want), 1e-12) / n)
        assert abs(p_hat - want) < 4.0 * se


def test_expected_fraction_2d_factorizes():
    law_2d = UniformPositions(TorusRegion((0.0, 0.2), (0.5, 0.8)))
    spec_2d = InitialMeasureSpec(law_2d, GaussianMomenta(0.9))
    region_2d = TorusRegion((0.1, 0.25), (0.6, 0.75))
    t = 0.37
    got = expected_fraction(spec_2d, region_2d, t)
    per_axis = []
    for k in range(2):
        law_1d = UniformPositions(
            TorusRegion.interval(law_2d.region.lower[k], law_2d.region.upper[k])
        )
        spec_1d = InitialMeasureSpec(law_1d, GaussianMomenta(0.9))
        region_1d = TorusRegion.interval(region_2d.lower[k], region_2d.upper[k])
        per_axis.append(expected_fraction(spec_1d, region_1d, t))
    assert got == pytest.approx(per_axis[0] * per_axis[1], rel=1e-10)


def test_expected_fraction_mixture_linearity():
    momenta = GaussianMomenta(1.1)
    region = TorusRegion.interval(0.3, 0.8)
    t = 0.6
    pts = ((0.05,), (0.45,), (0.95,))
    wts = (0.5, 0.2, 0.3)
    mixture = expected_fraction(
        InitialMeasureSpec(PointMixturePositions(pts, wts), momenta), region, t
    )
    parts = sum(
        w * expected_fraction(InitialMeasureSpec(PointPositions(p), momenta), region, t)
        for p, w in zip(pts, wts)
    )
    assert mixture == pytest.approx(parts, rel=1e-12)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_expected_fraction_tail_tolerance_tightens(tol: float):
    spec = InitialMeasureSpec(PointPositions((0.37,)), GaussianMomenta(0.5))
    region = TorusRegion.interval(0.0, 0.5)
    coarse = expected_fraction(spec, region, 0.21, tail_tol=tol)
    fine = expected_fraction(spec, region, 0.21, tail_tol=tol / 2.0)
    assert abs(coarse - fine) < tol


def _two_p_series(u: float) -> complex:
    # phi(u) = sum_k 2 (iu)^k / (k! (k + 2)) for f(p) = 2p on [0, 1], summed
    # in exact rationals and rounded once.
    x = Fraction(u)
    re = im = Fraction(0)
    for k in range(40):
        term = 2 * x**k / (math.factorial(k) * (k + 2))
        sign = -1 if k % 4 >= 2 else 1
        if k % 2:
            im += sign * term
        else:
            re += sign * term
    return complex(float(re), float(im))


def test_tabulated_char_matches_power_series():
    # f(p) = 2p on [0, 1], tabulated on two segments (h = 0.5).  The sweep of
    # |u h| from 1e-7 to 1 crosses the switch between the power series and
    # the closed forms of A and B; both must hold to 1e-15 absolute.
    law = TabulatedMomenta((0.0, 0.5, 1.0), (0.0, 1.0, 2.0))
    sweep = 2.0 * np.logspace(-7, 0, 57)
    sweep[1::2] *= -1.0
    u = np.concatenate([[0.0, 1e-300, 1e-7, -9e-6, 1.9e-5, 0.3, -1.7, 3.0], sweep])
    want = np.array([_two_p_series(x) for x in u])
    got = _tabulated_char(law, u)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert _tabulated_char(law, 0.3) == got[5]


def test_expected_fraction_tabulated_momenta_against_monte_carlo():
    law = TabulatedMomenta((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    spec = InitialMeasureSpec(PointPositions((0.1,)), law)
    region = TorusRegion.interval(0.0, 0.5)
    n = 10**6
    state = sample_microstate(spec, n, 1, RngStream(55, 0))
    for t in (0.4, 1.3):
        y = state.positions[:, 0] + state.momenta[:, 0] * t
        y -= np.floor(y)
        p_hat = np.count_nonzero((y >= 0.0) & (y < 0.5)) / n
        want = expected_fraction(spec, region, t)
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(p_hat - want) < 4.0 * se


_EDGE_LAW = TabulatedMomenta((-2.0, -1.0, 0.0, 0.5, 2.0), (0.0, 1.0, 3.0, 1.0, 0.2))


def test_expected_fraction_cuts_a_run_that_crosses_a_block_edge():
    # Positions uniform on the region itself, so each term is
    # 2 |chi_l|^2 / w Re phi_l with |chi_l| = |sin(pi l w)| / (pi l).
    region = TorusRegion.interval(0.1, 0.6)
    spec = InitialMeasureSpec(UniformPositions(region), _EDGE_LAW)
    t, w, tol = 0.02021484375, 0.5, 1e-12
    ells = np.arange(1, 5001, dtype=float)
    phi = _tabulated_char(_EDGE_LAW, 2.0 * math.pi * ells * t)
    chi_env = np.minimum(w, 1.0 / (math.pi * ells))
    nu_env = np.minimum(1.0, 1.0 / (math.pi * ells * w))
    small = chi_env * nu_env * np.abs(phi) < tol
    runs = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
    assert ells[runs[0]] == 4095  # the run straddles l = 4096
    terms = 2.0 * np.sin(math.pi * ells * w) ** 2 / ((math.pi * ells) ** 2 * w) * phi.real
    want = w + math.fsum(terms[:4094])
    got = expected_fraction(spec, region, t, tail_tol=tol)
    assert got == pytest.approx(want, rel=0.0, abs=1e-14)


def test_expected_fraction_gives_up_past_the_term_limit(monkeypatch):
    monkeypatch.setattr(analytic, "_MAX_TERMS", 5000)
    spec = InitialMeasureSpec(PointPositions((0.2,)), _EDGE_LAW)
    with pytest.raises(RuntimeError, match="tail_tol"):
        expected_fraction(spec, TorusRegion.interval(0.0, 0.5), 0.001)


_BOX_2D = TorusRegion((0.0, 0.25), (0.5, 0.75))
_BATCH_CASES = {
    # Unsorted, with duplicates and t = 0; 101 times span two phi groups.
    "unsorted": (
        InitialMeasureSpec(UniformPositions(TorusRegion.interval(0.0, 0.25)), thermal_momenta(1.0, 1)),
        TorusRegion.interval(0.0, 0.5),
        [0.7, 0.0, 0.1, 2.5, 0.1, 0.03, 0.0, 5.0, 0.35] + [0.1 * i for i in range(101)],
    ),
    "block_edge": (
        InitialMeasureSpec(UniformPositions(TorusRegion.interval(0.1, 0.6)), _EDGE_LAW),
        TorusRegion.interval(0.1, 0.6),
        [0.5, 0.02021484375, 0.004, 0.02021484375, 1.0],
    ),
    "gaussian_point": (
        InitialMeasureSpec(PointPositions((0.2,)), GaussianMomenta(0.3)),
        TorusRegion.interval(0.0, 0.5),
        [3.0, 0.05, 0.0, 0.4, 1.7],
    ),
    "tabulated": (
        InitialMeasureSpec(
            UniformPositions(TorusRegion.interval(0.0, 0.5)),
            TabulatedMomenta((-3.0, -1.0, 0.0, 1.0, 3.0), (0.0, 0.5, 1.0, 0.5, 0.0)),
        ),
        TorusRegion.interval(0.0, 0.5),
        [0.1, 0.0, 2.0, 0.01, 0.1],
    ),
    "box_2d": (
        InitialMeasureSpec(UniformPositions(_BOX_2D), GaussianMomenta(0.4)),
        _BOX_2D,
        [0.0, 0.2, 1.0, 0.05, 4.0],
    ),
    "point_mixture": (
        InitialMeasureSpec(
            PointMixturePositions(((0.2,), (0.7,)), (0.3, 0.7)), _EDGE_LAW
        ),
        TorusRegion.interval(0.1, 0.4),
        [0.0, 0.3, 0.02, 2.0, 0.3],
    ),
}


@pytest.mark.parametrize("case", list(_BATCH_CASES))
def test_expected_fraction_sequence_equals_scalar_calls(case):
    spec, region, times = _BATCH_CASES[case]
    got = expected_fraction(spec, region, times)
    assert isinstance(got, np.ndarray) and got.shape == (len(times),)
    want = [expected_fraction(spec, region, t) for t in times]
    assert all(type(w) is float for w in want)
    assert got.tolist() == want  # bit for bit
    assert expected_fraction(spec, region, np.array(times[:1])).tolist() == want[:1]
    assert expected_fraction(spec, region, []).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_expected_fraction_sequence_refuses_a_bad_time(bad):
    spec, region, _ = _BATCH_CASES["gaussian_point"]
    with pytest.raises(ValueError, match="finite and >= 0"):
        expected_fraction(spec, region, [0.1, 1.0, bad, 2.0])
    # A bool among real times would otherwise run as the time 1.0.
    for shape_or_type in (
        [[0.1, 0.2]], ["0.1"], True, [True, False], [0.5, True], (np.bool_(False), 1.0),
    ):
        with pytest.raises(ValueError, match="^t must be a time or a 1-d sequence of times$"):
            expected_fraction(spec, region, shape_or_type)


def test_expected_fraction_batch_gives_up_past_the_term_limit(monkeypatch):
    monkeypatch.setattr(analytic, "_MAX_TERMS", 5000)
    spec = InitialMeasureSpec(PointPositions((0.2,)), _EDGE_LAW)
    with pytest.raises(RuntimeError, match="tail_tol"):
        expected_fraction(spec, TorusRegion.interval(0.0, 0.5), [1.0, 0.001, 0.5])


def test_expected_fraction_batch_caps_each_phi_call(monkeypatch):
    sizes = []
    original = analytic._momentum_char

    def recorded(law, u):
        sizes.append(np.size(u))
        return original(law, u)

    spec, region, _ = _BATCH_CASES["block_edge"]
    times = list(np.linspace(0.003, 2.0, 101))
    want = expected_fraction(spec, region, times)
    monkeypatch.setattr(analytic, "_momentum_char", recorded)
    assert expected_fraction(spec, region, times).tolist() == want.tolist()
    assert max(sizes) <= analytic._BLOCK + 2
    assert max(sizes) > analytic._PREFIXES[0] + 2  # several times share a call


def test_expected_fraction_stays_in_unit_interval():
    spec = InitialMeasureSpec(PointPositions((0.25,)), GaussianMomenta(0.05))
    for t in (0.0, 0.1, 1.0, 25.0):
        v = expected_fraction(spec, TorusRegion.interval(0.2, 0.3), t)
        assert 0.0 <= v <= 1.0


def test_expected_fraction_rejects_bad_inputs():
    spec = InitialMeasureSpec(PointPositions((0.2,)), GaussianMomenta(1.0))
    region = TorusRegion.interval(0.0, 0.5)
    with pytest.raises(ValueError):
        expected_fraction(spec, region, -1.0)
    with pytest.raises(ValueError):
        expected_fraction(spec, region, 1.0, tail_tol=0.0)
    # An infinite tolerance would stop before the first term and return the
    # bare measure (0.5 here, where the mean is about 0.80).
    uniform = InitialMeasureSpec(
        UniformPositions(TorusRegion.interval(0.0, 0.25)), thermal_momenta(1.0, 1)
    )
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            expected_fraction(uniform, region, 0.1, tail_tol=tol)

    class Oddball:
        pass

    with pytest.raises(ValueError):
        expected_fraction(InitialMeasureSpec(PointPositions((0.2,)), Oddball()), region, 1.0)


# ---------------------------------------------------------------------------
# Decay envelopes


def test_decay_estimate_bound_decreases():
    decay = DecayEstimate(2.0, 1.5)
    ts = np.linspace(0.5, 10.0, 40)
    vals = [decay.bound(t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        decay.bound(0.0)


def test_gaussian_decay_beats_any_power():
    spec = InitialMeasureSpec(PointPositions((0.2,)), GaussianMomenta(1.0))
    region = TorusRegion.interval(0.0, 0.5)
    decay = DecayEstimate(c_mu=1.0, r=3.0)
    assert decay_bound_check(spec, region, decay, [1.0, 2.0, 4.0, 8.0])


def test_tiny_envelope_constant_fails():
    spec = InitialMeasureSpec(PointPositions((0.2,)), GaussianMomenta(0.25))
    region = TorusRegion.interval(0.0, 0.5)
    decay = DecayEstimate(c_mu=1e-12, r=1.0)
    assert not decay_bound_check(spec, region, decay, [0.3, 0.5])


def _mean_deviations(spec, region, ts):
    return np.abs(expected_fraction(spec, region, ts) - region.measure())


def test_fit_decay_produces_valid_envelope_and_extrapolates():
    spec = InitialMeasureSpec(PointPositions((0.2,)), GaussianMomenta(0.25))
    region = TorusRegion.interval(0.0, 0.5)
    fit_ts = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    decay = fit_decay(fit_ts, _mean_deviations(spec, region, fit_ts))
    assert decay.r > 0.0
    assert decay_bound_check(spec, region, decay, fit_ts)
    # Gaussian decay accelerates, so the fitted power law keeps holding later.
    assert decay_bound_check(spec, region, decay, [4.0, 5.0])


def test_fit_decay_needs_two_usable_points():
    spec = InitialMeasureSpec(
        UniformPositions(TorusRegion.interval(0.0, 1.0)), GaussianMomenta(1.0)
    )
    region = TorusRegion.interval(0.0, 0.5)
    # Uniform positions give zero deviation at every time.
    with pytest.raises(ValueError):
        fit_decay([1.0, 2.0, 3.0], _mean_deviations(spec, region, [1.0, 2.0, 3.0]))


def test_equilibration_time_identities():
    decay = DecayEstimate(c_mu=3.0, r=1.25)
    eps, eta = 0.04, 0.5
    t0 = equilibration_time(decay, eps, eta)
    # By construction the envelope equals eta * eps at t0.
    assert decay.bound(t0) == pytest.approx(eta * eps, rel=1e-12)
    # At eta = 1/2 the time is (2 c_mu)^(1/2r) * eps^(-1/2r).
    want = (2.0 * decay.c_mu) ** (1.0 / (2.0 * decay.r)) * eps ** (-1.0 / (2.0 * decay.r))
    assert t0 == pytest.approx(want, rel=1e-12)
    assert decay_bound_check(
        InitialMeasureSpec(PointPositions((0.2,)), GaussianMomenta(1.0)),
        TorusRegion.interval(0.0, 0.5),
        decay,
        [t0, 2.0 * t0],
    )


@pytest.mark.parametrize("c_mu, r", [(1.0, 0.005), (1e300, 0.25), (1.0, 1e-300)])
def test_equilibration_time_past_float_range_is_inf(c_mu, r):
    # (1 / (0.5 * 1e-3))^(1 / 0.01) = 2000^100 once raised OverflowError.
    assert equilibration_time(DecayEstimate(c_mu, r), 1e-3) == math.inf
    assert equilibration_time(DecayEstimate(1.0, 0.01), 1e-3) == pytest.approx(2000.0**50)


def test_equilibration_time_rejects_nan_epsilon():
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        equilibration_time(DecayEstimate(1.0, 1.0), math.nan)


# ---------------------------------------------------------------------------
# Concentration bounds: worked values


def test_hoeffding_tail_known_exponents():
    p = hoeffding_tail(5e-9, int(3e19))
    assert p.log_value - math.log(2.0) == pytest.approx(-1500.0, rel=1e-12)
    assert p.underflows
    q = hoeffding_tail(5e-7, int(2e13))
    assert q.log_value - math.log(2.0) == pytest.approx(-10.0, rel=1e-12)
    # The exponential factor alone is below 4.54e-5.
    assert math.exp(q.log_value - math.log(2.0)) < 4.54e-5
    # Doubling n doubles the exponent.
    r2 = hoeffding_tail(5e-7, int(4e13))
    assert r2.log_value - math.log(2.0) == pytest.approx(-20.0, rel=1e-12)


def test_hoeffding_zero_epsilon_is_flagged_vacuous():
    p = hoeffding_tail(0.0, 100)
    assert p.vacuous
    assert p.log_value == 0.0
    assert p.raw_log == pytest.approx(math.log(2.0), rel=1e-15)


def test_hoeffding_tail_is_empirically_valid():
    gen = RngStream(2024, 0).generator()
    m, n = 10**4, 10**3
    means = gen.binomial(n, 0.5, size=m) / n
    for eps in (0.02, 0.05, 0.1):
        freq = np.count_nonzero(np.abs(means - 0.5) > eps) / m
        assert freq <= hoeffding_tail(eps, n).linear


def test_scenario_bound_known_values():
    p = scenario_bound(0.04, 8000, k_count=1, eta=0.5)
    assert p.log_value == pytest.approx(math.log(2.0) - 6.4, rel=1e-12)
    # eta close to 0 recovers nearly the full Hoeffding exponent 2 eps^2 n.
    q = scenario_bound(0.04, 8000, k_count=1, eta=1e-2)
    coeff = 2.0 * (1.0 - 1e-2) ** 2
    assert coeff == pytest.approx(1.96, abs=2e-3)
    assert q.log_value == pytest.approx(math.log(2.0) - coeff * 0.04**2 * 8000, rel=1e-12)


def test_scenario_bound_at_capacity_collapses():
    # With log K = eps^2 n / 4 - log 2 the bound reduces to exp(-eps^2 n / 4).
    eps, n = 0.1, 10**4
    log_k = log_sequence_capacity(eps, n)
    log_bound = math.log(2.0) + log_k - 0.5 * eps**2 * n
    assert log_bound == pytest.approx(-0.25 * eps**2 * n, rel=1e-12)
    assert log_sequence_capacity(eps, n) == pytest.approx(25.0 - math.log(2.0), rel=1e-12)


def test_log_sequence_capacity_rejects_nan_epsilon():
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        log_sequence_capacity(math.nan, 100)


def test_partition_bound_known_value():
    p = partition_scenario_bound(0.1, 10**4, l_count=2)
    assert p.log_value == pytest.approx(math.log(2.0) - 25.0, rel=1e-12)
    one = partition_scenario_bound(0.1, 10**4, l_count=1)
    ten = partition_scenario_bound(0.1, 10**4, l_count=10)
    assert ten.log_value - one.log_value == pytest.approx(math.log(10.0), rel=1e-12)


def test_markov_bound_known_value_and_flag():
    p = markov_bound(0.04, 10**6)
    assert p.linear == pytest.approx(2.5e-3, rel=1e-12)
    quarter = markov_bound(0.04, 4 * 10**6)
    assert quarter.linear == pytest.approx(2.5e-3 / 4.0, rel=1e-12)
    # Below eps^2 n = 4 the bound is vacuous: clamped to 1, its raw log kept.
    loose = markov_bound(0.1, 100)
    assert loose.vacuous and loose.log_value == 0.0
    assert loose.raw_log == pytest.approx(math.log(4.0), rel=1e-12)


@pytest.mark.parametrize("u", [5.0, 10.0, 100.0])
def test_hoeffding_beats_markov_once_exponent_is_large(u: float):
    # At eps^2 n = u >= 5: 2 exp(-2u) <= 4/u.
    n = 10**6
    eps = math.sqrt(u / n)
    assert hoeffding_tail(eps, n).log_value <= markov_bound(eps, n).log_value


def test_bounds_are_monotone():
    base = scenario_bound(0.05, 4000, k_count=10).log_value
    assert scenario_bound(0.05, 8000, k_count=10).log_value < base
    assert scenario_bound(0.1, 4000, k_count=10).log_value < base
    assert base < scenario_bound(0.05, 4000, k_count=20).log_value
    assert hoeffding_tail(0.1, 2000).log_value < hoeffding_tail(0.1, 1000).log_value
    assert markov_bound(0.1, 2000).log_value < markov_bound(0.1, 1000).log_value


# ---------------------------------------------------------------------------
# Macroscopic pressure-cell estimate


def test_macro_estimator_dense_cell():
    est = macro_estimator(3e19, 1.0, 1e-3, 5e-6)
    assert est.epsilon == pytest.approx(5e-9, rel=1e-12)
    assert est.n == pytest.approx(3e19, rel=1e-12)
    assert est.single_time_exponent == pytest.approx(-1500.0, rel=1e-12)
    assert est.single_time_bound.log_value < -650.0 * math.log(10.0)
    assert est.single_time_bound.underflows


def test_macro_estimator_long_sequence():
    est = macro_estimator(3e19, 1.0, 1e-3, 5e-6, k_count=1e32)
    # 2e-618 is not representable in double precision; compare in log space.
    assert est.sequence_bound.log_value <= math.log(2.0) - 618.0 * math.log(10.0)
    assert est.sequence_bound.log_value == pytest.approx(
        math.log(2.0) + 32.0 * math.log(10.0) - 1500.0, rel=1e-12
    )


def test_macro_estimator_vacuum_cell():
    est = macro_estimator(2e13, 1.0, 1e-3, 5e-4, k_count=3600.0)
    assert est.single_time_exponent == pytest.approx(-10.0, rel=1e-12)
    assert est.single_time_bound.linear < 4.54e-5
    assert est.sequence_bound.linear == pytest.approx(
        2.0 * 3600.0 * math.exp(-10.0), rel=1e-12
    )
    assert est.sequence_bound.linear <= 0.33


def test_macro_estimator_validation():
    with pytest.raises(ValueError):
        macro_estimator(1e19, 1e-3, 1.0, 5e-6)  # sub volume exceeds cell
    with pytest.raises(ValueError):
        macro_estimator(1e19, 1.0, 1e-3, 1.5)


@pytest.mark.parametrize("n0, cell_volume", [(1e300, 1e300), (math.inf, 2.0), (1.0, math.inf)])
def test_macro_estimator_refuses_a_particle_count_past_float_range(n0, cell_volume):
    # n * eps^2 was inf * 0 here, and the bounds came out NaN.
    with pytest.raises(ParameterError) as info:
        macro_estimator(n0, cell_volume, 1.0, 0.5)
    assert (info.value.name, info.value.rule) == (
        "n0", f"must keep n0 * cell_volume finite, got {n0} * {cell_volume}"
    )
    assert macro_estimator(1e300, 1e3, 1.0, 0.5).n == 1e303


@pytest.mark.parametrize(
    "law",
    [
        UniformPositions(TorusRegion((0.0, 0.0), (0.5, 1.0))),
        PointPositions((0.25, 0.5)),
        PointMixturePositions(((0.25, 0.5), (0.5, 0.75)), (0.5, 0.5)),
    ],
    ids=["uniform", "point", "mixture"],
)
def test_position_law_dimension_must_match_the_region(law):
    initial = InitialMeasureSpec(law, GaussianMomenta(1.0))
    with pytest.raises(
        ValueError, match="^position law dimension 2 does not match region dimension 1$"
    ):
        expected_fraction(initial, TorusRegion.interval(0.0, 0.5), 1.0)


# ---------------------------------------------------------------------------
# Input rules


def test_partition_cell_count_must_be_an_integer():
    with pytest.raises(TypeError, match="^l_count must be an integer, got 2.5$"):
        partition_scenario_bound(0.1, 100, 2.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: log_sequence_capacity(0.1, math.nan), "n must be >= 1, got nan"),
        (lambda: DecayEstimate(0.5, 1.0).bound(math.nan), "t must be > 0, got nan"),
        (lambda: scenario_bound(0.1, math.nan), "n must be >= 1, got nan"),
    ],
    ids=["log_sequence_capacity", "decay_bound", "scenario_parameters"],
)
def test_nan_inputs_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DecayEstimate(0.0, 1.0), "c_mu must be finite and > 0, got 0.0"),
        (lambda: DecayEstimate(1.0, math.inf), "r must be finite and > 0, got inf"),
        (lambda: DecayEstimate(1.0, 1.0).bound(-1.0), "t must be > 0, got -1.0"),
        (lambda: scenario_bound(1.0, 100), "epsilon must lie in \\(0, 1\\), got 1.0"),
        (lambda: scenario_bound(0.1, 0.5), "n must be >= 1, got 0.5"),
        (lambda: scenario_bound(0.1, 100, 0.5), "k_count must be >= 1, got 0.5"),
        (lambda: scenario_bound(0.1, 100, 1, 0.0), "eta must lie in \\(0, 1\\), got 0.0"),
        (lambda: hoeffding_tail(-0.1, 100), "epsilon must be >= 0, got -0.1"),
        (lambda: hoeffding_tail(0.1, 0), "n must be >= 1, got 0"),
        (lambda: log_sequence_capacity(0.0, 100), "epsilon must be > 0, got 0.0"),
        (lambda: equilibration_time(DecayEstimate(1.0, 1.0), 0.1, 1.0),
         "eta must lie in \\(0, 1\\), got 1.0"),
        (lambda: partition_scenario_bound(0.1, 100, 0),
         "l_count must lie in \\[1, inf\\], got 0"),
        (lambda: markov_bound(0.0, 100), "epsilon must be > 0, got 0.0"),
        (lambda: markov_bound(0.1, math.nan), "n must be >= 1, got nan"),
        (lambda: macro_estimator(0.0, 1.0, 0.5, 0.1), "n0 must be > 0, got 0.0"),
        (lambda: macro_estimator(1e19, -1.0, 0.5, 0.1), "cell_volume must be > 0, got -1.0"),
        (lambda: macro_estimator(1e19, 1.0, math.nan, 0.1), "sub_volume must be > 0, got nan"),
        (lambda: macro_estimator(1e19, 1.0, 0.5, 0.1, 0.0), "k_count must be >= 1, got 0.0"),
    ],
)
def test_bound_inputs_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_fit_decay_refuses_times_that_are_not_positive():
    with pytest.raises(ValueError, match="^fit times must be > 0$"):
        fit_decay([0.0, 1.0], [0.1, 0.05])


def test_fit_decay_refuses_growing_deviations():
    with pytest.raises(ValueError, match="^no decay detected"):
        fit_decay([1.0, 2.0, 4.0], [0.01, 0.02, 0.04])


@pytest.mark.parametrize("ts, devs", [([1.0, 2.0], [0.1]), ([[1.0, 2.0]], [[0.1, 0.05]])])
def test_fit_decay_refuses_mismatched_times_and_deviations(ts, devs):
    with pytest.raises(ValueError, match="^t_values and deviations must be 1-d"):
        fit_decay(ts, devs)


def test_expected_fraction_refuses_an_unsupported_position_law():
    class Oddball:
        pass

    spec = InitialMeasureSpec(Oddball(), GaussianMomenta(1.0))
    with pytest.raises(ValueError, match="^unsupported position law Oddball$"):
        expected_fraction(spec, TorusRegion.interval(0.0, 0.5), 1.0)


@pytest.mark.parametrize("t", [0.0, 0.5, [0.0, 0.5, 3.0]])
def test_expected_fraction_of_a_zero_width_region_is_zero(t):
    law = UniformPositions(TorusRegion.interval(0.2, 0.6))
    spec = InitialMeasureSpec(law, GaussianMomenta(1.0))
    assert np.all(expected_fraction(spec, TorusRegion.interval(0.3, 0.3), t) == 0.0)

