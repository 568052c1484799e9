"""Free-streaming dynamics of the non-interacting gas on the torus.

The flow is exactly integrable: a particle at (x, p) sits at frac(x + p t)
at time t, for positive or negative t.  Everything here is a deterministic
function of a :class:`~equilab.core.GasMicrostate`, so one sampled state can
be evolved, reversed, and probed repeatedly with no hidden mutation.

The coarse observable is the occupied fraction of a region,
f(t) = (1/n) * #{i : x_i + p_i t in I}.  Occupied counts go through one
kernel, :class:`BoxCounter`, which streams a whole batch of histories at
once; a single state is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GasMicrostate,
    ParameterError,
    TimeGrid,
    TorusRegion,
    as_int,
    as_real,
    fractional_part,
    write_csv,
)

__all__ = [
    "BoxCounter",
    "ObservableSeries",
    "positions_at",
    "fraction_in",
    "reverse_at",
    "reversal_round_trip",
    "zermelo_state",
    "trace",
]


@dataclass(frozen=True)
class ObservableSeries:
    """A scalar observable sampled on a time grid.

    ``times`` and ``values`` are matching one-dimensional float arrays;
    values are fractions, so they live in [0, 1].
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float, copy=True)
        v = np.array(self.values, dtype=float, copy=True)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if t.size == 0:
            raise ValueError("series must not be empty")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("observable values must lie in [0, 1]")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, path) -> None:
        """Write rows ``t,f`` with 17 significant digits and a header line."""
        write_csv(path, ("t", "f"), zip(self.times.tolist(), self.values.tolist()))


def positions_at(state: GasMicrostate, t: float) -> np.ndarray:
    """Particle positions frac(x + p t) at time t (t may be negative).

    The flow is evaluated in closed form, so there is no integration error.
    The only inaccuracy is the double-precision wraparound of x + p*t, about
    |p*t| * 2^-52 per coordinate; keep |p*t| below ~1e9 where that error
    stays under 1e-7.
    """
    return fractional_part(state.positions + state.momenta * float(t))


class BoxCounter:
    """Occupied counts of one box for a batch of histories, at any time t.

    ``positions`` and ``momenta`` are (h, n, d) arrays: h histories of n
    particles on the d-torus.  :meth:`counts` streams them to time t with the
    float operations of :func:`positions_at` (``p*t + x``, ``y - floor(y)``,
    the 1.0 -> 0.0 fold) and counts the half-open box membership of every
    particle.  Its scratch is allocated once, here, as large as the batch,
    so a call allocates nothing per particle, and it never writes the state
    arrays: callers may reorder their rows between calls (compacting live
    histories to the front, say) and pass how many leading rows to count.

    A caller that counts many batches keeps one counter for all of them: it
    writes each batch into the same arrays in place and calls :meth:`reload`.
    The gas-scaling chunk does this with one cache-sized tile of histories;
    a fresh counter per tile would free its scratch and fault it back in on
    every tile.

    The rows are validated with :class:`GasMicrostate`'s errors, here and on
    every :meth:`reload`.  Finiteness at a time t then needs no pass over
    the data: p*t + x is finite for every particle iff max|p| * |t| is.
    """

    def __init__(self, region: TorusRegion, positions: np.ndarray, momenta: np.ndarray):
        h, n, dim = positions.shape
        if momenta.shape != positions.shape:
            raise ValueError(
                f"positions and momenta must be matching arrays, got {positions.shape} and {momenta.shape}"
            )
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if region.dim != dim:
            raise ValueError(f"region dimension {region.dim} != state dimension {dim}")
        self._positions = positions
        self._momenta = momenta
        # On an axis whose lower face is 0 a coordinate that rounds to exactly
        # 1.0 folds to 0.0 and is inside, so that axis tests r < upper or
        # r >= 1 (upper <= 1 keeps the two apart); other axes test
        # lower <= r < upper, where the fold cannot change the answer.
        self._axes = [
            (k, lo, up, lo == 0.0 < up)
            for k, (lo, up) in enumerate(zip(region.lower, region.upper))
        ]
        self._y = np.empty((h, n, dim))
        self._floor = np.empty((h, n, dim))
        self._inside = np.empty((h, n), dtype=bool)
        self._axis_in = np.empty((h, n), dtype=bool)
        self._low = np.empty((h, n), dtype=bool)
        self._counts = np.empty(h, dtype=np.int64)
        self.reload(h)

    def reload(self, rows: int) -> None:
        """Validate the first ``rows`` histories, rewritten in place by the caller.

        Raises the constructor's errors, and refreshes the speed bound that
        :meth:`counts` checks; until the next reload, :meth:`counts` counts
        these rows by default.
        """
        xs, ps = self._positions[:rows], self._momenta[:rows]
        if not np.isfinite(xs).all() or not np.isfinite(ps).all():
            raise ValueError("positions and momenta must be finite")
        if not ((xs >= 0.0).all() and (xs < 1.0).all()):
            raise ValueError("positions must lie in [0, 1) coordinatewise")
        self._rows = rows
        self._speed = max(float(ps.max()), -float(ps.min()))

    def counts(self, t: float, rows: int | None = None) -> np.ndarray:
        """Occupied counts of the first ``rows`` histories at t.

        ``rows`` defaults to the rows of the last validation.  The returned
        int64 array is scratch: the next call overwrites it.
        """
        t = float(t)
        if not math.isfinite(self._speed * abs(t)):
            raise ValueError("coordinates at time t are not finite")
        m = self._rows if rows is None else rows
        y, fl = self._y[:m], self._floor[:m]
        inside, axis_in, low = self._inside[:m], self._axis_in[:m], self._low[:m]
        np.multiply(self._momenta[:m], t, out=y)
        np.add(y, self._positions[:m], out=y)
        np.floor(y, out=fl)
        np.subtract(y, fl, out=y)
        for k, lo, up, folds in self._axes:
            r = y[:, :, k]
            hit = inside if k == 0 else axis_in
            np.less(r, up, out=hit)
            if folds:
                np.logical_or(hit, np.greater_equal(r, 1.0, out=low), out=hit)
            else:
                np.logical_and(hit, np.greater_equal(r, lo, out=low), out=hit)
            if k > 0:
                np.logical_and(inside, axis_in, out=inside)
        # A uint32 row sum is exact (a row holds n < 2**32 flags) and runs
        # about twice as fast as count_nonzero along an axis.
        counts = self._counts[:m]
        counts[:] = np.add.reduce(inside.view(np.uint8), axis=1, dtype=np.uint32)
        return counts


def fraction_in(state: GasMicrostate, t: float, region: TorusRegion) -> float:
    """Occupied fraction of ``region`` at time t; a multiple of 1/n."""
    counter = BoxCounter(region, state.positions[None], state.momenta[None])
    return int(counter.counts(t)[0]) / state.n


def reverse_at(state: GasMicrostate, t: float) -> GasMicrostate:
    """Evolve to time t, then flip every momentum.

    Streaming the returned state for another t lands back on the initial
    positions (with momenta negated): the flow composed with momentum
    reversal is an involution up to roundoff.
    """
    return GasMicrostate(positions_at(state, t), -state.momenta)


def zermelo_state(n: int, x0, p0) -> GasMicrostate:
    """All n particles at one point with one shared momentum.

    The whole cloud then moves as a single point on the torus, so every
    coarse observable is exactly periodic: a recurrent orbit by
    construction.
    """
    n = as_int(n, "n", 1)
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    p = np.atleast_1d(np.asarray(p0, dtype=float))
    if x.shape != p.shape or x.ndim != 1:
        raise ValueError("x0 and p0 must be d-vectors of equal length")
    if np.all(p == 0.0):
        raise ValueError("p0 must be nonzero for a nontrivial orbit")
    return GasMicrostate(np.tile(x, (n, 1)), np.tile(p, (n, 1)))


def trace(state: GasMicrostate, region: TorusRegion, grid: TimeGrid) -> ObservableSeries:
    """Occupied fraction of ``region`` along the grid times."""
    counter = BoxCounter(region, state.positions[None], state.momenta[None])
    times = grid.times
    counts = np.array([counter.counts(t)[0] for t in times])
    return ObservableSeries(times, counts / state.n)


def reversal_round_trip(state: GasMicrostate, region: TorusRegion, reverse_time: float,
                        dt: float) -> tuple:
    """Stream for T = ``reverse_time``, flip every momentum, stream for T again.

    Returns f on t = 0, dt, ..., 2T and the worst per-axis distance on the
    circle from the final to the initial positions.  T / dt must be a
    positive integer of at most 2^53, the grid's limit.
    """
    as_real(dt, "dt", 0, open_lo=True, finite=True)
    as_real(reverse_time, "reverse_time", 0, open_lo=True, finite=True)
    steps = reverse_time / dt
    # The cap comes first: T / dt may overflow to inf, which round() refuses.
    if steps > 2**53 or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        cap = " of at most 2^53 steps" if steps > 2**53 else ""
        raise ParameterError("reverse_time", f"must be a positive multiple of dt = {dt}{cap}, "
                             f"got {reverse_time}")
    forward = TimeGrid(0.0, dt, int(round(steps)))
    flipped = reverse_at(state, reverse_time)
    there = trace(state, region, forward)
    back = trace(flipped, region, forward)
    times = np.concatenate([[0.0], there.times, reverse_time + back.times])
    values = np.concatenate([[fraction_in(state, 0.0, region)], there.values, back.values])
    err = np.abs(positions_at(flipped, reverse_time) - state.positions)
    err = np.minimum(err, 1.0 - err)  # distance on the circle
    return ObservableSeries(times, values), float(err.max())
