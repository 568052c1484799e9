"""Initial-condition sampling for the free gas.

An initial measure is a product: a position law on the torus times an i.i.d.
momentum law per particle.  Position laws cover the cases used throughout
the package (uniform on a box, a single point, a finite mixture of points);
momentum laws are an isotropic Gaussian or a tabulated one-dimensional
density applied independently per component.  Each position law carries
its dimension as ``dim``, and :func:`check_dim` is the one rule that it
matches the dimension asked for.

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
    "PointMixturePositions",
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

    def sample(self, n: int, dim: int, gen: np.random.Generator) -> np.ndarray:
        check_dim(self, dim)
        return np.tile(np.asarray(self.point, dtype=float), (n, 1))


@dataclass(frozen=True)
class PointMixturePositions:
    """Each particle picks one of finitely many points with given weights."""

    points: tuple
    weights: tuple

    def __post_init__(self):
        pts = tuple(PointPositions(p).point for p in self.points)
        wts = tuple(float(w) for w in self.weights)
        if len(pts) != len(wts) or not pts:
            raise ValueError("points and weights must be non-empty and match in length")
        if any(w < 0 for w in wts):
            raise ValueError("mixture weights must be >= 0")
        if abs(sum(wts) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {sum(wts)}, expected 1")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("all mixture points must share one dimension")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def sample(self, n: int, dim: int, gen: np.random.Generator) -> np.ndarray:
        check_dim(self, dim)
        idx = gen.choice(len(self.points), size=n, p=np.asarray(self.weights))
        return np.asarray(self.points, dtype=float)[idx]


@dataclass(frozen=True)
class GaussianMomenta:
    """Isotropic Gaussian momenta, standard deviation sigma per component."""

    sigma: float

    def __post_init__(self):
        as_real(self.sigma, "sigma", 0, open_lo=True, finite=True)

    def sample(self, n: int, dim: int, gen: np.random.Generator) -> np.ndarray:
        return self.sigma * gen.standard_normal((n, dim))


@dataclass(frozen=True)
class TabulatedMomenta:
    """Momenta drawn per component from a tabulated one-dimensional density.

    The density is the piecewise-linear interpolant of the table, and the
    sampler inverts its CDF exactly (the within-segment CDF is quadratic, so
    inversion solves one quadratic per draw).  Draws therefore follow the
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
        # Inverse-CDF tables: node CDF, normalized segment start densities and slopes.
        nodes = np.asarray(g)
        f = np.asarray(d)
        seg = 0.5 * (f[1:] + f[:-1]) * np.diff(nodes)
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        f = f / seg.sum()  # normalized node densities
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_cdf", cdf / cdf[-1])
        object.__setattr__(self, "_f0", f[:-1])
        object.__setattr__(self, "_slope", np.diff(f) / np.diff(nodes))

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
