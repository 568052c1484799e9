"""Monte Carlo ensembles: deviation scaling, fluctuation traces, ring sweeps.

Histories are independent and each one owns a counter-based RNG stream
(stream_id = global history index), so scheduling cannot change any draw.
A chunk reaches its streams through :func:`~equilab.core.stream_generators`,
one Philox generator re-keyed per history, which draws exactly what a fresh
``RngStream(seed, id).generator()`` would.  Work is split into fixed-size
chunks of histories regardless of the worker count, and every per-chunk
statistic is an integer (deviation counts, color sums, squared color sums);
chunk results are merged by integer addition, which is exact and
order-independent.  Identical spec and master seed therefore produce
byte-identical result files at any worker count, the property the
determinism checks pin down.  A gas chunk samples and counts one
cache-sized tile of about ``_GAS_TILE`` coordinates at a time.  A ring
chunk draws its markers by the draw rule that :mod:`equilab.kac` owns (raw
Philox words at most ``kac.marker_limit(mu)``, the verdicts of
``random() < mu``) straight into the rows of one ``kac.RingStepper`` and
steps them bit-packed in cache-sized tiles of about ``_RING_TILE`` sites.
Both chunks allocate their tile buffers once and refill them tile by tile.
Neither tile size changes any byte.
"""

from __future__ import annotations

import json
import math
import sys
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    ParameterError, RngStream, TimeGrid, TorusRegion, as_int, as_real, atomic_text,
    stream_generators, write_csv,
)
from .gas import BoxCounter, ObservableSeries, trace
from .kac import RingStepper, marker_limit
from .sampler import InitialMeasureSpec, check_dim, sample_microstate

__all__ = [
    "ScalingExperimentSpec",
    "ScalingResult",
    "run_gas_scaling",
    "run_fluctuation_trace",
    "KacEnsembleResult",
    "run_kac_ensemble",
    "write_summary_json",
    "run_metadata",
]

_GAS_CHUNK = 256
_KAC_CHUNK = 512
#: Coordinates per gas-chunk tile.  A tile's positions and momenta and the
#: scratch of its counter (about 1 MiB in all) stay in a core's L2 cache
#: while the tile is counted at every grid time; a whole 256-history chunk
#: at N = 3000 is 12 MiB and would stream through memory once per time.
#: The chunk allocates these buffers once and refills them tile by tile:
#: allocated per tile, they would be freed and faulted back in every time.
_GAS_TILE = 1 << 15
#: Sites per ring-chunk tile.  Its doubled bool markers, their 8 bit-shifted
#: packed copies and a block of packed states step inside a core's L2 cache;
#: a whole 512-ring chunk at N = 4096 would stream through memory.
_RING_TILE = 1 << 18


def _map_chunks(func, payloads, workers: int):
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [func(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, payloads))


# ---------------------------------------------------------------------------
# Gas deviation scaling


@dataclass(frozen=True)
class ScalingExperimentSpec:
    """Deviation-frequency experiment over particle counts and grid prefixes.

    For each n in ``n_values``, ``histories`` microstates are sampled from
    ``initial`` and checked for |f(t_k) - |I|| > epsilon along the grid; the
    deviation probability is then reported for every prefix length K in
    ``k_values``.
    """

    n_values: tuple
    k_values: tuple
    histories: int
    epsilon: float
    grid: TimeGrid
    region: TorusRegion
    initial: InitialMeasureSpec
    master_seed: int

    def __post_init__(self):
        for name in ("n_values", "k_values"):
            vals = tuple(as_int(v, name, 1) for v in getattr(self, name))
            if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
                raise ParameterError(name, f"must be nonempty and strictly increasing, got {vals}")
            object.__setattr__(self, name, vals)
        if self.k_values[-1] > self.grid.k_count:
            raise ParameterError("k_values", f"must not exceed the grid's k_count = "
                                 f"{self.grid.k_count}, got {self.k_values}")
        object.__setattr__(self, "histories", as_int(self.histories, "histories", 1))
        object.__setattr__(self, "master_seed", as_int(self.master_seed, "master_seed", -math.inf))
        # |f - |I|| <= 1, so epsilon >= 1 would count no deviation at all.
        as_real(self.epsilon, "epsilon", 0, 1, open_lo=True, open_hi=True)
        check_dim(self.initial.positions, self.region.dim)


@dataclass(frozen=True)
class ScalingResult:
    """Per-(n, K) deviation counts with their derived rates."""

    n_values: tuple
    k_values: tuple
    histories: int
    epsilon: float
    deviations: np.ndarray
    p_hat: np.ndarray
    p_hat_over_k: np.ndarray
    stderr: np.ndarray

    def to_csv(self, path) -> None:
        """Rows ``N,K,deviations,M,p_hat,p_hat_over_K,stderr`` per (n, K)."""
        write_csv(
            path, ("N", "K", "deviations", "M", "p_hat", "p_hat_over_K", "stderr"),
            ((n, k, self.deviations[i, j], self.histories, self.p_hat[i, j],
              self.p_hat_over_k[i, j], self.stderr[i, j])
             for i, n in enumerate(self.n_values) for j, k in enumerate(self.k_values)),
        )


def _gas_scaling_chunk(payload):
    """First-exceedance histogram for one chunk of histories.

    Returns an int64 array h of length K+1: h[0] counts histories that never
    exceed epsilon on the grid, h[k] those whose first exceedance is at the
    k-th grid time.  Prefix sums of h[1:] then give the deviation count for
    every K at once.

    The chunk works one tile of about ``_GAS_TILE`` coordinates at a time:
    it samples the tile's histories, then counts them at every grid time
    while they are still in cache.  The tile's position and momentum
    buffers and the one :class:`~equilab.gas.BoxCounter` over them are
    allocated once per chunk and refilled in place, since a counter built
    per tile would free its scratch and fault it back in on every tile.
    Each history draws its positions, then its momenta, from its own stream
    straight into its row, exactly the draws of
    :func:`~equilab.sampler.sample_microstate`, and
    :meth:`~equilab.gas.BoxCounter.reload` validates the refilled rows.

    Within a tile, live histories are kept in the leading ``live`` rows,
    with their ids in the chunk in ``alive``.  On a step where some
    histories exceed, each exceeded row among the first ``live`` is a hole,
    and the surviving rows at or past ``live`` fill the holes (positions,
    momenta and id together).  A step thus copies at most one row per
    history that dies.  Row order changes, but every count is a per-row
    reduction and ``first`` is indexed by history id, so neither the row
    order nor the tile size changes any result.
    """
    (n, dim, initial, region, times, epsilon, master_seed, stream_base, count) = payload
    # The exceedance verdict of every possible count c, by the float test
    # |c/n - |I|| > epsilon itself, so a step looks its verdicts up.
    exceeds = np.abs(np.arange(n + 1) / n - region.measure()) > epsilon
    rows = max(1, min(count, _GAS_TILE // (n * dim)))
    # Zeros are a valid state, so the counter is built before the first draw.
    xs = np.zeros((rows, n, dim))
    ps = np.zeros((rows, n, dim))
    counter = BoxCounter(region, xs, ps)
    first = np.zeros(count, dtype=np.int64)
    streams = stream_generators(master_seed, stream_base, count)
    for start in range(0, count, rows):
        h = min(rows, count - start)
        for i, gen in zip(range(h), streams):
            xs[i] = initial.positions.sample(n, dim, gen)
            ps[i] = initial.momenta.sample(n, dim, gen)
        counter.reload(h)
        alive = np.arange(start, start + h)
        for k, t in enumerate(times, start=1):
            exceeded = exceeds[counter.counts(t, alive.size)]
            dead = np.count_nonzero(exceeded)
            if dead == 0:
                continue
            first[alive[exceeded]] = k
            live = alive.size - dead
            if live == 0:
                break
            holes = np.flatnonzero(exceeded[:live])
            movers = live + np.flatnonzero(~exceeded[live:])
            xs[holes] = xs[movers]
            ps[holes] = ps[movers]
            alive[holes] = alive[movers]
            alive = alive[:live]
    return np.bincount(first, minlength=len(times) + 1)


def run_gas_scaling(spec: ScalingExperimentSpec, workers: int = 1) -> ScalingResult:
    """Measure deviation frequencies for every (n, K) requested by ``spec``.

    Each history samples one microstate and walks the grid until the first
    time |f - |I|| exceeds epsilon (histories are independent across n via
    disjoint stream ids).  The chunks of every n go through one worker pool.
    """
    workers = as_int(workers, "workers", 1)
    # Grid times past the largest K can reach no result, so they are never
    # built: each instant is t0 + k dt on its own, the same float either way.
    grid = spec.grid
    times = tuple(TimeGrid(grid.t0, grid.dt, spec.k_values[-1]).times.tolist())
    dim = spec.region.dim
    m = spec.histories
    payloads, owners = [], []
    for ni, n in enumerate(spec.n_values):
        base = ni * m
        for start in range(0, m, _GAS_CHUNK):
            cnt = min(_GAS_CHUNK, m - start)
            payloads.append(
                (n, dim, spec.initial, spec.region, times, spec.epsilon,
                 spec.master_seed, base + start, cnt)
            )
            owners.append(ni)
    hist = np.zeros((len(spec.n_values), len(times) + 1), dtype=np.int64)
    for ni, part in zip(owners, _map_chunks(_gas_scaling_chunk, payloads, workers)):
        hist[ni] += part
    by_k = np.cumsum(hist[:, 1:], axis=1)
    dev = by_k[:, np.asarray(spec.k_values) - 1]
    p_hat = dev / m
    p_over_k = p_hat / np.asarray(spec.k_values)
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / m)
    return ScalingResult(
        n_values=spec.n_values,
        k_values=spec.k_values,
        histories=m,
        epsilon=spec.epsilon,
        deviations=dev,
        p_hat=p_hat,
        p_hat_over_k=p_over_k,
        stderr=stderr,
    )


def run_fluctuation_trace(
    n: int,
    initial: InitialMeasureSpec,
    region: TorusRegion,
    grid: TimeGrid,
    seed: int,
) -> ObservableSeries:
    """Trace f(t) for one sampled history (stream_id 0 of ``seed``)."""
    state = sample_microstate(initial, n, region.dim, RngStream(seed, 0))
    return trace(state, region, grid)


# ---------------------------------------------------------------------------
# Ring ensembles


@dataclass(frozen=True)
class KacEnsembleResult:
    """Per-time moments of delta_bar over sampled marker sequences.

    ``p_dev`` is the frequency of |delta_bar(t)| > epsilon at each t.  When
    a window (t_lo, t_hi) was requested, ``window_exceed_fraction`` is the
    fraction of histories exceeding epsilon at ANY time inside the window.
    """

    n_sites: int
    mu: float
    histories: int
    epsilon: float
    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    p_dev: np.ndarray
    window: tuple | None = None
    window_exceed_count: int | None = None
    window_exceed_fraction: float | None = None

    def to_csv(self, path) -> None:
        """Rows ``t,mean,variance,p_dev,M`` for t = 0..t_max."""
        write_csv(
            path, ("t", "mean", "variance", "p_dev", "M"),
            zip(self.times.tolist(), self.mean.tolist(), self.variance.tolist(),
                self.p_dev.tolist(), [self.histories] * self.times.size),
        )


def _kac_ensemble_chunk(payload):
    """Integer accumulators for one chunk of marker histories.

    Returns (sum_delta, sum_delta_sq, exceed_count) per time plus the count
    of histories exceeding epsilon anywhere in the window (0 if no window).
    All four are exact integers, so merging across chunks is exact.

    The chunk works on tiles of about ``_RING_TILE`` sites, whose packed,
    shifted markers and block of states stay in cache while they step.  One
    :class:`~equilab.kac.RingStepper` of a tile's rows serves every tile of
    the chunk, since buffers made per tile would be freed and faulted back
    in on every tile.  Each ring of a tile draws its markers from its own
    stream by the rule of :func:`~equilab.kac.sample_markers` (raw Philox
    words at most ``kac.marker_limit(mu)``) straight into its row of the
    stepper.  The tile's rings step together, all white at t = 0, in one
    call of :meth:`~equilab.kac.RingStepper.steps`, whose black counts of
    every t are folded into the accumulators.
    """
    (n, mu, t_max, epsilon, master_seed, stream_base, count, window) = payload
    width = -(-n // 8) * 8
    stepper = RingStepper(min(count, max(1, _RING_TILE // width)), n, t_max)
    limit = marker_limit(mu)
    times = np.arange(t_max + 1)
    in_window = None if window is None else (times >= window[0]) & (times <= window[1])
    threshold = epsilon * n
    sum_d = np.zeros(t_max + 1, dtype=np.int64)
    sum_d2 = np.zeros(t_max + 1, dtype=np.int64)
    exceed = np.zeros(t_max + 1, dtype=np.int64)
    window_count = 0
    streams = stream_generators(master_seed, stream_base, count)
    for start in range(0, count, stepper.rows):
        h = min(stepper.rows, count - start)
        for row, gen in zip(stepper.marked[:h], streams):
            np.less_equal(gen.bit_generator.random_raw(n), limit, out=row)
        delta = stepper.steps(h).astype(np.int64)
        delta *= -2
        delta += n
        sum_d += delta.sum(axis=1)
        sum_d2 += (delta * delta).sum(axis=1)
        over = np.abs(delta, out=delta) > threshold
        exceed += np.count_nonzero(over, axis=1)
        if in_window is not None:
            window_count += int(np.count_nonzero(over[in_window].any(axis=0)))
    return sum_d, sum_d2, exceed, window_count


def run_kac_ensemble(
    n_sites: int,
    mu: float,
    histories: int,
    t_max: int,
    epsilon: float,
    seed: int,
    workers: int = 1,
    window: tuple | None = None,
) -> KacEnsembleResult:
    """Evolve ``histories`` independent rings and report per-time statistics.

    Every history starts all white with markers drawn at rate mu from its
    own stream.  ``window`` (t_lo, t_hi), if given, additionally counts
    histories with an epsilon exceedance at some integer t with
    t_lo <= t <= t_hi, the quantity the ring bound schedule controls.  The
    ends are real numbers and may be fractional, negative or infinite, but
    not NaN.
    """
    n_sites = as_int(n_sites, "n_sites", 1)
    as_real(mu, "mu", 0, 1, open_lo=True)
    # Beyond one full period 2N the ring only repeats itself.
    t_max = as_int(t_max, "t_max", hi=2 * n_sites)
    histories = as_int(histories, "histories", 1)
    seed = as_int(seed, "seed", -math.inf)
    workers = as_int(workers, "workers", 1)
    # |delta_bar| <= 1, so epsilon >= 1 would count no deviation at all.
    as_real(epsilon, "epsilon", 0, 1, open_lo=True, open_hi=True)
    # |Delta| <= N, so the int64 sums of Delta^2 stay exact while M * N^2 < 2^63.
    sq_bound = histories * n_sites**2
    if sq_bound >= 1 << 63:
        raise ParameterError(
            "histories", f"must keep histories * N^2 below 2^63, the limit of the "
            f"int64 sums of Delta^2; got {sq_bound}"
        )
    if window is not None:
        try:
            t_lo, t_hi = window
        except (TypeError, ValueError):
            rule = f"must be a pair (t_lo, t_hi), got {window!r}"
            raise ParameterError("window", rule) from None
        as_real(t_lo, "t_lo")
        as_real(t_hi, "t_hi")
        if t_lo > t_hi:
            raise ParameterError("window", f"must satisfy t_lo <= t_hi, got {window!r}")
        window = (float(t_lo), float(t_hi))
    payloads = []
    for start in range(0, histories, _KAC_CHUNK):
        cnt = min(_KAC_CHUNK, histories - start)
        payloads.append((n_sites, mu, t_max, epsilon, seed, start, cnt, window))
    sum_d = np.zeros(t_max + 1, dtype=np.int64)
    sum_d2 = np.zeros(t_max + 1, dtype=np.int64)
    exceed = np.zeros(t_max + 1, dtype=np.int64)
    window_count = 0
    for part_d, part_d2, part_e, part_w in _map_chunks(
        _kac_ensemble_chunk, payloads, workers
    ):
        sum_d += part_d
        sum_d2 += part_d2
        exceed += part_e
        window_count += part_w
    m = histories
    n = n_sites
    mean = sum_d / (m * n)
    if m > 1:
        # m * sum(D^2) - sum(D)^2 in Python ints, divided once: exact up to
        # the final rounding, where subtracting the float sum(D)^2 / m cancels.
        den = m * (m - 1) * n * n
        variance = np.array(
            [(m * s2 - s1 * s1) / den for s1, s2 in zip(sum_d.tolist(), sum_d2.tolist())]
        )
    else:
        variance = np.zeros(t_max + 1)
    p_dev = exceed / m
    return KacEnsembleResult(
        n_sites=n_sites,
        mu=mu,
        histories=m,
        epsilon=epsilon,
        times=np.arange(t_max + 1),
        mean=mean,
        variance=variance,
        p_dev=p_dev,
        window=window,
        window_exceed_count=window_count if window is not None else None,
        window_exceed_fraction=window_count / m if window is not None else None,
    )


# ---------------------------------------------------------------------------
# Summary serialization


def _plain(value):
    """json's ``default`` hook: numpy scalars and arrays become Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_summary_json(path, payload: dict) -> None:
    """Write a structured run summary; keys are sorted for stable output."""
    with atomic_text(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


def run_metadata(start_time: float) -> dict:
    """Version and timing block shared by every summary file."""
    from . import __version__

    return {
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "wall_time_s": _time.perf_counter() - start_time,
    }
