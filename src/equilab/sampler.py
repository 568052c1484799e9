"""Initial-condition sampling for the free gas.

An initial measure is a product: a position law on the torus times an i.i.d.
momentum law per particle.  Position laws are uniform on a box or a single
point; momentum laws are an isotropic Gaussian or a tabulated one-dimensional
density applied independently per component.  Each position law carries
its dimension as ``dim``, and :func:`check_dim` is the one rule that it
matches the dimension asked for.

Each law owns the Fourier data :mod:`equilab.analytic` sums: a momentum law
its ``characteristic(u)`` = E exp(i u p) per component, a position law its
``intervals``, the per-axis (lo, hi) pairs with a point a written (a, a).

Every draw goes through an :class:`~equilab.core.RngStream`, so a sampled
microstate is a pure function of (law, n, dim, master_seed, stream_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GasMicrostate, RngStream, TorusRegion, as_int, as_real

__all__ = [
    "UniformPositions",
    "PointPositions",
    "GaussianMomenta",
    "TabulatedMomenta",
    "InitialMeasureSpec",
    "sample_microstate",
    "sigma_for_mean_speed",
    "thermal_momenta",
]


def check_dim(law, dim: int) -> None:
    if law.dim != dim:
        raise ValueError(f"position law dimension {law.dim} does not match region dimension {dim}")


def expi_minus_one(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) - 1 without cancellation, via the half-angle identity."""
    half = 0.5 * theta
    return -2.0 * np.sin(half) ** 2 + 1j * np.sin(theta)


@dataclass(frozen=True)
class UniformPositions:
    """Positions uniform on a half-open box of positive measure."""

    region: TorusRegion

    def __post_init__(self):
        lo = np.asarray(self.region.lower)
        width = np.asarray(self.region.upper) - lo
        if np.any(width <= 0.0):
            raise ValueError("uniform position law needs a region of positive measure")
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_width", width)

    @property
    def dim(self) -> int:
        return self.region.dim

    @property
    def intervals(self) -> tuple:
        return tuple(zip(self.region.lower, self.region.upper))

    def sample(self, n: int, dim: int, gen: np.random.Generator) -> np.ndarray:
        check_dim(self, dim)
        # gen.random() lands in [0, 1), so samples respect the half-open box.
        return self._lo + gen.random((n, dim)) * self._width


@dataclass(frozen=True)
class PointPositions:
    """All particles start at one point (a deterministic position law)."""

    point: tuple

    def __post_init__(self):
        pt = tuple(float(v) for v in np.atleast_1d(self.point))
        if not pt:
            raise ValueError("point must not be empty")
        if any(not (0.0 <= v < 1.0) for v in pt):
            raise ValueError("point coordinates must lie in [0, 1)")
        object.__setattr__(self, "point", pt)

    @property
    def dim(self) -> int:
        return len(self.point)

    @property
    def intervals(self) -> tuple:
        return tuple((a, a) for a in self.point)

    def sample(self, n: int, dim: int, gen: np.random.Generator) -> np.ndarray:
        check_dim(self, dim)
        return np.tile(np.asarray(self.point, dtype=float), (n, 1))


@dataclass(frozen=True)
class GaussianMomenta:
    """Isotropic Gaussian momenta, standard deviation sigma per component."""

    sigma: float

    def __post_init__(self):
        as_real(self.sigma, "sigma", 0, open_lo=True, finite=True)

    def characteristic(self, u: np.ndarray) -> np.ndarray:
        """E exp(i u p) = exp(-(sigma u)^2 / 2) of one component."""
        with np.errstate(over="ignore"):  # an inf square gives exp(-inf) = 0, exact
            return np.exp(-0.5 * (self.sigma * u) ** 2)

    def sample(self, n: int, dim: int, gen: np.random.Generator) -> np.ndarray:
        return self.sigma * gen.standard_normal((n, dim))


#: Below this |u h| the closed forms of A and B in
#: :meth:`TabulatedMomenta.characteristic` lose more than 1e-15 to
#: cancellation, so they are summed as power series.  Horner over 13 terms
#: leaves a truncation error below 3e-18 at the switch.
_TAYLOR_SWITCH = 0.25
_TAYLOR_A = tuple(1.0 / math.factorial(k + 1) for k in range(13))
_TAYLOR_B = tuple(1.0 / (math.factorial(k) * (k + 2)) for k in range(13))


@dataclass(frozen=True)
class TabulatedMomenta:
    """Momenta drawn per component from a tabulated one-dimensional density.

    The density is the piecewise-linear interpolant of the table, and the
    sampler inverts its CDF exactly (the within-segment CDF is quadratic, so
    inversion solves one quadratic per draw).  :meth:`characteristic` is
    exact for the same interpolant.  Draws and transform therefore follow the
    interpolated density itself; the only model error is the caller's choice
    of grid.
    """

    grid: tuple
    density: tuple

    def __post_init__(self):
        g = tuple(float(v) for v in self.grid)
        d = tuple(float(v) for v in self.density)
        if len(g) != len(d) or len(g) < 2:
            raise ValueError("grid and density must match and contain >= 2 nodes")
        if not all(math.isfinite(v) for v in g + d):
            raise ValueError("grid and density values must be finite")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing")
        if any(v < 0 for v in d):
            raise ValueError("density values must be >= 0")
        if not any(v > 0 for v in d):
            raise ValueError("density must not vanish identically")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)
        nodes = np.asarray(g)
        f = np.asarray(d)
        h = np.diff(nodes)
        seg = 0.5 * (f[1:] + f[:-1]) * h
        # Transform tables: segment widths, raw start densities and slopes, mass.
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_raw_f0", f[:-1])
        object.__setattr__(self, "_raw_slope", np.diff(f) / h)
        object.__setattr__(self, "_mass", float(seg.sum()))
        # Inverse-CDF tables: node CDF, normalized segment start densities and slopes.
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        f = f / seg.sum()  # normalized node densities
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_cdf", cdf / cdf[-1])
        object.__setattr__(self, "_f0", f[:-1])
        object.__setattr__(self, "_slope", np.diff(f) / h)

    def sample(self, n: int, dim: int, gen: np.random.Generator) -> np.ndarray:
        u = gen.random((n, dim))
        j = np.searchsorted(self._cdf, u, side="right") - 1
        j = np.clip(j, 0, len(self._nodes) - 2)
        # Solve f0*y + slope*y^2/2 = v for the within-segment offset y, using
        # the cancellation-free root 2v / (f0 + sqrt(f0^2 + 2*slope*v)); the
        # discriminant interpolates f0^2 -> f1^2 so it never goes negative.
        v = u - self._cdf[j]
        f0 = self._f0[j]
        s = self._slope[j]
        disc = np.maximum(f0 * f0 + 2.0 * s * v, 0.0)
        denom = f0 + np.sqrt(disc)
        y = np.where(denom > 0.0, 2.0 * v / np.where(denom > 0.0, denom, 1.0), 0.0)
        return self._nodes[j] + y

    def characteristic(self, u: np.ndarray) -> np.ndarray:
        """E exp(i u p) of one component, exact for the interpolated density.

        Each segment [x0, x0+h] with linear density f0 + s*y contributes
        e^{i u x0} (f0 A + s B) where A = (e^{iuh}-1)/(iu) and
        B = (h e^{iuh} - A)/(iu).  For |u h| < ``_TAYLOR_SWITCH`` both come
        from their power series A = h sum (iuh)^k/(k+1)! and
        B = h^2 sum (iuh)^k/(k! (k+2)), so nothing cancels near u = 0.
        """
        h = self._h
        uu = np.atleast_1d(np.asarray(u, dtype=float))[:, None]
        uh = uu * h
        small = np.abs(uh) < _TAYLOR_SWITCH
        iu = 1j * np.where(np.abs(uu) < 1e-300, 1.0, uu)
        e1 = expi_minus_one(uh)
        a_int = e1 / iu
        b_int = (h * (e1 + 1.0) - a_int) / iu
        if small.any():
            iz = 1j * uh[small]
            hs = np.broadcast_to(h, uh.shape)[small]
            a_ser = b_ser = 0j
            for ca, cb in zip(reversed(_TAYLOR_A), reversed(_TAYLOR_B)):
                a_ser = a_ser * iz + ca
                b_ser = b_ser * iz + cb
            a_int[small] = a_ser * hs
            b_int[small] = b_ser * hs**2
        seg = np.exp(1j * uu * self._nodes[:-1]) * (self._raw_f0 * a_int + self._raw_slope * b_int)
        out = seg.sum(axis=1) / self._mass
        return out[0] if np.ndim(u) == 0 else out


@dataclass(frozen=True)
class InitialMeasureSpec:
    """Product initial measure: position law times i.i.d. momentum law."""

    positions: object
    momenta: object


def sample_microstate(
    spec: InitialMeasureSpec, n: int, dim: int, rng: RngStream
) -> GasMicrostate:
    """Draw a microstate of ``n`` particles in dimension ``dim``.

    Positions come first in the stream, then momenta, so enlarging n or
    swapping the momentum law changes draws in the obvious prefix fashion.
    """
    n = as_int(n, "n", 1)
    dim = as_int(dim, "dim", 1)
    gen = rng.generator()
    x = spec.positions.sample(n, dim, gen)
    p = spec.momenta.sample(n, dim, gen)
    return GasMicrostate(x, p)


def sigma_for_mean_speed(mean_speed: float, dim: int) -> float:
    """Gaussian component sigma giving a prescribed mean speed E||p||.

    For an isotropic Gaussian in d components the speed follows a chi
    distribution with mean sigma * sqrt(2) * Gamma((d+1)/2) / Gamma(d/2),
    which this inverts.  Supported for dim in {1, 2, 3}.
    """
    as_real(mean_speed, "mean_speed", 0, open_lo=True, finite=True)
    dim = as_int(dim, "dim", -math.inf)
    if dim not in (1, 2, 3):
        raise ValueError("mean-speed calibration is defined for dim in {1, 2, 3}")
    chi_mean = math.sqrt(2.0) * math.gamma((dim + 1) / 2.0) / math.gamma(dim / 2.0)
    return mean_speed / chi_mean


def thermal_momenta(mean_speed: float, dim: int) -> GaussianMomenta:
    """Isotropic Gaussian momentum law calibrated to a mean speed."""
    return GaussianMomenta(sigma_for_mean_speed(mean_speed, dim))
