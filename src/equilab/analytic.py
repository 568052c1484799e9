"""Closed-form expectations and probability bounds, evaluated in log space.

The expected occupied fraction of a box under free streaming has a Fourier
representation: with chi_l the coefficients of the box indicator, nu the
position law and phi the momentum characteristic function,

    E f(t) = |I| + sum_{l >= 1} 2 Re( conj(chi_l) nu_l phi(2 pi l t) ),

evaluated per axis (product laws and product regions factorize).  Each law
owns its transform in :mod:`equilab.sampler` (phi is the momentum law's
``characteristic``, nu_l comes from the position law's ``intervals``), so
this module never asks a law's type.  Each term has the envelope
|chi_l| |nu_l| |phi| with the monotone bounds |chi_l| <= min(|I|, 1/(pi l))
and, for an interval of width w > 0, |nu_l| <= min(1, 1/(pi l w)).  The
series has one stopping rule: it stops before the first run of three
envelopes below ``tail_tol``.  The envelope form matters: individual
coefficients can vanish (every even one does for [0, 0.5)), so stopping on
a raw small term would truncate too early.  This is a per-term
rule, not a certified bound on the tail: phi of a tabulated law need not
decrease, and a later term may rise above ``tail_tol`` again.

:func:`expected_fraction` takes one time or a sequence of them.  A sequence
is summed in one pass: the t-free factors of each block of l are built once
and phi is evaluated for all running times together, at most ``_BLOCK + 2``
(time, term) pairs per call, so memory does not grow with the number of
times.  Every time keeps its own stop and sums its own terms in the same
order, so neither the batching nor the prefix sizes change a result: each
mean is the same float as a call with that time alone.

Concentration bounds (Hoeffding tail, K-instant scenario bounds, partition
union bounds, the Chebyshev-type 1/N control, and the macroscopic pressure
estimate) take plain numbers, check each one themselves, and return a
clamped :class:`~equilab.core.LogProbability` so that values like
exp(-1500) survive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import LogProbability, ParameterError, TorusRegion, as_int, as_real, square
from .sampler import InitialMeasureSpec, check_dim, expi_minus_one

__all__ = [
    "DecayEstimate",
    "MacroEstimate",
    "expected_fraction",
    "decay_bound_check",
    "fit_decay",
    "hoeffding_tail",
    "scenario_bound",
    "log_sequence_capacity",
    "equilibration_time",
    "partition_scenario_bound",
    "markov_bound",
    "macro_estimator",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Fourier machinery


def _interval_transform(a: float, b: float, ells: np.ndarray) -> np.ndarray:
    """Vector of integral_a^b exp(2 pi i l y) dy for the given nonzero l."""
    u = _TWO_PI * ells
    return np.exp(1j * u * a) * expi_minus_one(u * (b - a)) / (1j * u)


def _position_transform(lo: float, hi: float, ells: np.ndarray):
    """(nu_l, envelope) at the given l >= 1 for one axis interval, a point if lo == hi."""
    if lo == hi:
        return np.exp(1j * _TWO_PI * ells * lo), np.ones_like(ells)
    width = hi - lo
    nu = _interval_transform(lo, hi, ells) / width
    return nu, np.minimum(1.0, 1.0 / (math.pi * ells * width))


def _overlap_1d(lo: float, hi: float, a: float, b: float) -> float:
    """P(x in [a, b)) under one axis interval of the position law, exact (used at t=0)."""
    if lo == hi:
        return 1.0 if a <= lo < b else 0.0
    return max(0.0, min(b, hi) - max(a, lo)) / (hi - lo)


#: Terms per block.  The first block is tried on the growing prefixes in
#: ``_PREFIXES``, since most series stop within a few dozen terms.
_BLOCK = 4096
_PREFIXES = (64, 256, 1024, _BLOCK)
#: A series with no stop in the blocks that cover this many terms raises.
_MAX_TERMS = 10_000_000


def _series_1d(interval, a, b, momentum, ts: np.ndarray, tail_tol) -> np.ndarray:
    """One-axis expected indicator at each time t > 0 of ``ts``, stopped as the module says.

    The one rule is enough because every momentum law has |phi| <= 1 and
    the phi-free envelope |chi_l| |nu_l| never increases in l: once it is
    below ``tail_tol`` at some l, so are the full envelopes at l, l+1 and
    l+2, and the run of three stops there.  A zero-width box has coef = 0
    and envelope 0, so it stops at once with the value 0.

    Each block reads two terms past its end, so a run that starts in it is
    seen whole.  Only a whole block, or the part before the stop, is ever
    summed, so the prefix sizes never change a result.  The times still
    running share each block's t-free factors; phi is evaluated for groups
    of them, at most ``_BLOCK + 2`` (time, term) pairs per call, and every
    time keeps its own stop and its own sums, so the grouping never changes
    a result either.
    """
    length = b - a
    totals = np.full(ts.size, length)
    running = np.arange(ts.size)
    sizes = itertools.chain(_PREFIXES, itertools.repeat(_BLOCK))
    start = 1
    while running.size:
        if start > _MAX_TERMS:
            raise RuntimeError(
                f"indicator series did not reach tail_tol={tail_tol} within {_MAX_TERMS} terms"
            )
        size = next(sizes)
        ells = np.arange(start, start + size + 2, dtype=float)
        u = _TWO_PI * ells
        nu, nu_env = _position_transform(*interval, ells)
        coef = np.conj(_interval_transform(a, b, ells)) * nu
        hard = np.minimum(length, 1.0 / (math.pi * ells)) * nu_env
        group, going = (_BLOCK + 2) // ells.size, []
        for i in range(0, running.size, group):
            rows = running[i : i + group]
            # Past float range u t is inf, where phi is 0: its limit for every
            # momentum law here, each absolutely continuous (Riemann-Lebesgue).
            with np.errstate(over="ignore"):
                ut = (u * ts[rows, None]).ravel()
            far = ~np.isfinite(ut)
            ut[far] = 0.0
            phi = momentum.characteristic(ut)
            phi[far] = 0.0
            phi = phi.reshape(rows.size, -1)
            terms = 2.0 * np.real(coef * phi)
            small = hard * np.abs(phi) < tail_tol
            stops = small[:, :-2] & small[:, 1:-1] & small[:, 2:]
            for row, row_terms, row_stops in zip(rows, terms, stops):
                stop = row_stops.argmax()
                if row_stops[stop]:
                    totals[row] += float(row_terms[:stop].sum())
                    continue
                if size == _BLOCK:
                    totals[row] += float(row_terms[:_BLOCK].sum())
                going.append(row)
        running = np.array(going, dtype=int)
        if size == _BLOCK:
            start += _BLOCK
    return totals


def expected_fraction(
    initial: InitialMeasureSpec,
    region: TorusRegion,
    t,
    tail_tol: float = 1e-12,
) -> float | np.ndarray:
    """Expected occupied fraction E f(t) of a box region under free streaming.

    ``t`` is one time, giving a float, or a 1-d sequence of times, giving an
    array with one mean per time; each mean is the same float either way.
    Sums the Fourier series per axis up to the stop named in the module
    docstring; t = 0 is evaluated exactly as an overlap so the degenerate
    (slowly converging) series never runs.  The result is clamped to [0, 1].
    ``tail_tol`` must be finite and > 0; a series with no stop within
    ``_MAX_TERMS`` terms raises RuntimeError.
    """
    times = np.asarray(t)
    # asarray makes 1.0 of a bool among real times, so a sequence is checked
    # element by element; an array's dtype already tells.
    if times.ndim > 1 or times.dtype.kind not in "iuf" or (
        times.ndim and not isinstance(t, np.ndarray)
        and any(isinstance(v, (bool, np.bool_)) for v in t)
    ):
        raise ValueError("t must be a time or a 1-d sequence of times")
    ts = np.atleast_1d(times).astype(float)
    if not np.all((ts >= 0.0) & np.isfinite(ts)):
        raise ParameterError("t", "must be finite and >= 0")
    as_real(tail_tol, "tail_tol", 0, open_lo=True, finite=True)
    momentum, positions = initial.momenta, initial.positions
    if not hasattr(momentum, "characteristic"):
        raise ValueError(f"unsupported momentum law {type(momentum).__name__}")
    if not hasattr(positions, "intervals"):
        raise ValueError(f"unsupported position law {type(positions).__name__}")
    check_dim(positions, region.dim)
    value = np.ones(ts.size)
    for interval, a, b in zip(positions.intervals, region.lower, region.upper):
        # A time whose product is already 0 skips the remaining axes.
        live = np.flatnonzero(value != 0.0)
        moving = live[ts[live] > 0.0]
        value[live[ts[live] == 0.0]] *= _overlap_1d(*interval, a, b)
        value[moving] *= _series_1d(interval, a, b, momentum, ts[moving], tail_tol)
    # np.maximum(0.0, -0.0) keeps -0.0, which is written "-0"; adding the
    # product onto +0.0 turns a -0.0 into +0.0 first.
    means = np.minimum(1.0, np.maximum(0.0, 0.0 + value))
    return float(means[0]) if times.ndim == 0 else means


# ---------------------------------------------------------------------------
# Mean decay estimates


@dataclass(frozen=True)
class DecayEstimate:
    """Power-law envelope |E f(t) - |I|| <= c_mu * t^(-2r)."""

    c_mu: float
    r: float

    def __post_init__(self):
        as_real(self.c_mu, "c_mu", 0, open_lo=True, finite=True)
        as_real(self.r, "r", 0, open_lo=True, finite=True)

    def bound(self, t: float) -> float:
        as_real(t, "t", 0, open_lo=True)
        return self.c_mu * t ** (-2.0 * self.r)


def decay_bound_check(
    initial: InitialMeasureSpec,
    region: TorusRegion,
    decay: DecayEstimate,
    t_values,
    tail_tol: float = 1e-12,
) -> bool:
    """True iff |E f(t) - |I|| <= c_mu t^(-2r) on every listed time."""
    ts = np.asarray(t_values, dtype=float)
    devs = np.abs(expected_fraction(initial, region, ts, tail_tol) - region.measure())
    for t, dev in zip(ts.tolist(), devs.tolist()):
        if dev > decay.bound(t) * (1.0 + 1e-12) + 1e-15:
            return False
    return True


def fit_decay(t_values, deviations) -> DecayEstimate:
    """Fit (c_mu, r) to mean deviations |E f(t) - |I|| on a time grid.

    The deviations are those of :func:`expected_fraction` at ``t_values``.
    The exponent comes from a least-squares line in log-log space; the
    constant is then raised to the envelope max_i dev_i * t_i^(2r), so the
    fitted bound holds at every fitted point, not just on average.  Points
    whose deviation is below 1e-290 (log-unsafe) are dropped.
    """
    ts = np.asarray(t_values, dtype=float)
    devs = np.asarray(deviations, dtype=float)
    if ts.ndim != 1 or ts.shape != devs.shape:
        raise ValueError("t_values and deviations must be 1-d and of equal length")
    if np.any(ts <= 0.0):
        raise ValueError("fit times must be > 0")
    keep = devs > 1e-290
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least 2 times with nonzero mean deviation to fit")
    log_t = np.log(ts[keep])
    log_d = np.log(devs[keep])
    slope = np.polyfit(log_t, log_d, 1)[0]
    r = -0.5 * slope
    if r <= 0.0:
        raise ValueError("no decay detected: fitted exponent is not positive")
    c_mu = float(np.max(devs[keep] * ts[keep] ** (2.0 * r))) * (1.0 + 1e-12)
    return DecayEstimate(c_mu, r)


# ---------------------------------------------------------------------------
# Concentration bounds


def hoeffding_tail(epsilon: float, n: int) -> LogProbability:
    """Two-sided Hoeffding tail 2 exp(-2 eps^2 n) for a mean of n in [0,1] draws.

    epsilon = 0 is allowed and yields the vacuous bound 2 (flagged, with the
    raw log preserved).
    """
    as_real(epsilon, "epsilon", 0)
    as_real(n, "n", 1)
    return LogProbability.from_log(math.log(2.0) - 2.0 * square(epsilon) * n)


def scenario_bound(epsilon: float, n: int, k_count: float = 1,
                   eta: float = 0.5) -> LogProbability:
    """Probability bound 2K exp(-2 (1-eta)^2 eps^2 n) for a K-instant failure.

    epsilon is the deviation threshold, n the particle count, k_count = K the
    number of observation instants, and eta the fraction of epsilon granted
    to the mean term.  At eta = 1/2 this is 2K exp(-eps^2 n / 2).  Bounds at
    or above 1 come back clamped with the vacuous flag set.
    """
    as_real(epsilon, "epsilon", 0, 1, open_lo=True, open_hi=True)
    as_real(n, "n", 1)
    as_real(k_count, "k_count", 1)
    as_real(eta, "eta", 0, 1, open_lo=True, open_hi=True)
    log_bound = math.log(2.0) + math.log(k_count) - 2.0 * (1.0 - eta) ** 2 * epsilon**2 * n
    return LogProbability.from_log(log_bound)


def log_sequence_capacity(epsilon: float, n: int) -> float:
    """log K_n for the self-balancing instant budget K_n = exp(eps^2 n / 4) / 2.

    With K = K_n the eta = 1/2 scenario bound collapses to exp(-eps^2 n / 4).
    Returned as a log because K_n overflows floats already at eps^2 n ~ 2800.
    """
    as_real(epsilon, "epsilon", 0, open_lo=True)
    as_real(n, "n", 1)
    return 0.25 * square(epsilon) * n - math.log(2.0)


def equilibration_time(decay: DecayEstimate, epsilon: float, eta: float = 0.5) -> float:
    """Smallest t with c_mu t^(-2r) <= eta eps, (c_mu/(eta eps))^(1/2r), or inf past floats."""
    as_real(epsilon, "epsilon", 0, open_lo=True)
    as_real(eta, "eta", 0, 1, open_lo=True, open_hi=True)
    scale = eta * epsilon
    try:
        if scale == 0.0:  # eta eps underflows; its log does not
            log_t = math.log(decay.c_mu) - math.log(eta) - math.log(epsilon)
            return math.exp(log_t / (2.0 * decay.r))
        return (decay.c_mu / scale) ** (1.0 / (2.0 * decay.r))
    except OverflowError:
        return math.inf


def partition_scenario_bound(epsilon: float, n: int, l_count: int) -> LogProbability:
    """Union bound L exp(-eps^2 n / 4) over the L cells of a partition.

    Uses the self-balancing instant budget (K = K_n at eta = 1/2) per cell,
    so only epsilon and n enter besides L; they obey the rules of
    :func:`scenario_bound`.
    """
    as_real(epsilon, "epsilon", 0, 1, open_lo=True, open_hi=True)
    as_real(n, "n", 1)
    l_count = as_int(l_count, "l_count", 1)
    log_bound = math.log(l_count) - 0.25 * epsilon**2 * n
    return LogProbability.from_log(log_bound)


def markov_bound(epsilon: float, n: int) -> LogProbability:
    """Chebyshev-type tail 4/(eps^2 n), valid once the mean term is <= eps/2.

    That time regime is the caller's to establish; the bound has no time
    dependence of its own.
    """
    as_real(epsilon, "epsilon", 0, open_lo=True)
    as_real(n, "n", 1)
    scale = square(epsilon) * n
    if scale == 0.0:  # eps^2 n underflows; its log does not
        return LogProbability.from_log(math.log(4.0) - 2.0 * math.log(epsilon) - math.log(n))
    return LogProbability.from_log(math.log(4.0) - math.log(scale))


# ---------------------------------------------------------------------------
# Macroscopic pressure-cell estimate


@dataclass(frozen=True)
class MacroEstimate:
    """Concentration estimate for a macroscopic observation cell.

    single_time_exponent is -2 eps^2 n; the single-time bound is its bare
    exponential (no prefactor), while the k_count-instant sequence bound
    carries the union-bound prefactor 2K.
    """

    epsilon: float
    n: float
    k_count: float
    single_time_exponent: float
    single_time_bound: LogProbability
    sequence_bound: LogProbability


def macro_estimator(
    n0: float,
    cell_volume: float,
    sub_volume: float,
    delta_pi: float,
    k_count: float = 1.0,
) -> MacroEstimate:
    """Deviation bounds for pressure read off a sub-volume of a gas cell.

    n0 is the number density (1/cm^3) and the volumes are in cm^3, so the
    cell holds n = n0 * cell_volume particles.  A relative pressure accuracy
    delta_pi on a sub-volume fraction pi = sub_volume / cell_volume tolerates
    fraction deviations up to eps = pi * delta_pi, and Hoeffding gives
    exp(-2 eps^2 n) per observation instant, 2 K exp(-2 eps^2 n) for K
    instants.  Everything stays in log space: realistic numbers produce
    exponents in the hundreds to thousands.
    """
    for name, value in (("n0", n0), ("cell_volume", cell_volume), ("sub_volume", sub_volume)):
        as_real(value, name, 0, open_lo=True)
    if sub_volume >= cell_volume:
        raise ParameterError(
            "sub_volume", f"must be smaller than cell_volume = {cell_volume}, got {sub_volume}"
        )
    as_real(delta_pi, "delta_pi", 0, 1, open_lo=True, open_hi=True)
    as_real(k_count, "k_count", 1)
    n = n0 * cell_volume
    if not math.isfinite(n):
        raise ParameterError("n0", f"must keep n0 * cell_volume finite, got {n0} * {cell_volume}")
    epsilon = (sub_volume / cell_volume) * delta_pi
    exponent = -2.0 * epsilon**2 * n
    single = LogProbability.from_log(exponent)
    sequence = LogProbability.from_log(math.log(2.0) + math.log(k_count) + exponent)
    return MacroEstimate(
        epsilon=epsilon,
        n=n,
        k_count=float(k_count),
        single_time_exponent=exponent,
        single_time_bound=single,
        sequence_bound=sequence,
    )
