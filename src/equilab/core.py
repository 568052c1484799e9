"""Shared geometry, state, and probability-bookkeeping types.

Positions live on the d-dimensional unit torus, represented as plain float
arrays with every coordinate in [0, 1).  Regions are axis-aligned half-open
boxes, chosen half-open so that a partition tiles the torus with no double
counting.  Probabilities that arise from concentration bounds can be as
small as exp(-1500), far below double-precision range, so they are carried
as natural logarithms (:class:`LogProbability`).

Random number streams are counter-based (Philox) and keyed by a
``(master_seed, stream_id)`` pair, which makes every ensemble result
bit-identical regardless of how work is scheduled across processes.  Every
count, time and seed goes through :func:`as_int`, the package's one integer
rule, so a non-integer is refused, never truncated; every scalar real-valued
parameter goes through :func:`as_real`, its one real-number rule, which
refuses NaN, booleans and non-numbers.  A value outside its parameter's
domain raises :class:`ParameterError`, which names the parameter, so a
caller (the command line) can report it under its own key.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "fractional_part",
    "TorusRegion",
    "GasMicrostate",
    "TimeGrid",
    "LogProbability",
    "RngStream",
    "format_float",
    "write_csv",
]

#: Linear values below this threshold are reported as underflow instead of
#: being materialized as floats.
UNDERFLOW_LINEAR = 1e-300
_UNDERFLOW_LOG = math.log(UNDERFLOW_LINEAR)

_TWO64 = 2**64


class ParameterError(ValueError):
    """A parameter value outside its domain.

    ``name`` is the parameter, ``rule`` the domain it breaks with the value
    it got; the message is the two joined, "n must lie in [1, inf], got 0".
    """

    def __init__(self, name: str, rule: str):
        super().__init__(name, rule)  # both in args, so it pickles
        self.name = name
        self.rule = rule

    def __str__(self) -> str:
        return f"{self.name} {self.rule}"


def as_int(value, name: str, lo=0, hi=math.inf) -> int:
    try:
        if isinstance(value, bool):  # an int subclass; numpy refuses np.bool_ too
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not (lo <= value <= hi):
        if abs(value) >= 10**17:  # past 17 digits, show the leading ones and the exponent
            from decimal import Decimal  # kept off the import time of every run

            value = format(Decimal(value), ".6e")
        raise ParameterError(name, f"must lie in [{lo}, {hi}], got {value}")
    return value


def as_real(value, name: str, lo=-math.inf, hi=math.inf, *, open_lo=False, open_hi=False,
            finite=False) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    above = lo < value if open_lo else lo <= value
    below = value < hi if open_hi else value <= hi
    if above and below and not (finite and math.isinf(value)):
        return
    if hi < math.inf:
        rule = f"lie in {'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    else:
        rule = f"be {'finite and ' if finite else ''}{'>' if open_lo else '>='} {lo}"
    raise ParameterError(name, f"must {rule}, got {value}")


def format_float(x: float) -> str:
    """Locale-independent float formatting with 17 significant digits.

    :func:`write_csv`, the package's one CSV writer, renders every
    non-integer number in this format, so identical runs produce
    byte-identical files.
    """
    return format(float(x), ".17g")


@contextlib.contextmanager
def atomic_text(path):
    """Open ``<path>.tmp`` for UTF-8 text, then move it onto ``path``.

    The temp file sits in the same directory, so :func:`os.replace` is
    atomic: ``path`` holds either its old bytes or the whole new file.  On
    any exception the temp file is removed and the exception re-raised.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _cell(value) -> str:
    # Exact-type tests first: plain floats and ints are nearly every cell.
    if type(value) is float:
        return format(value, ".17g")
    if type(value) is int:
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row, atomically.

    ``header`` is a sequence of column names.  In ``rows`` a ``str`` cell is
    written as given, an ``int`` or ``np.integer`` in decimal, and every
    other value through :func:`format_float`.
    """
    with atomic_text(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def fractional_part(y) -> np.ndarray:
    """Map real coordinates onto the unit torus, componentwise ``y - floor(y)``.

    Accepts any array shape (a single d-tuple or a batch of points) and
    returns an array of the same shape with every entry in [0, 1).

    Raises
    ------
    ValueError
        If any input coordinate is not finite.
    """
    arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("fractional_part requires finite coordinates")
    out = arr - np.floor(arr)
    # Rounding can land exactly on 1.0 for tiny negative inputs; fold it back.
    if out.ndim == 0:
        return np.asarray(0.0) if out >= 1.0 else out
    out[out >= 1.0] = 0.0
    return out


@dataclass(frozen=True)
class TorusRegion:
    """Axis-aligned half-open box ``[lower_k, upper_k)`` on the torus.

    Membership is half-open in every coordinate: the lower face belongs to
    the region, the upper face does not.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        up = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if len(lo) != len(up):
            raise ValueError("lower and upper must have the same dimension")
        for a, b in zip(lo, up):
            if not (0.0 <= a <= b <= 1.0):
                raise ValueError(
                    f"region bounds must satisfy 0 <= lower <= upper <= 1, got [{a}, {b})"
                )

    @classmethod
    def interval(cls, a: float, b: float) -> "TorusRegion":
        """One-dimensional region [a, b)."""
        return cls((a,), (b,))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def measure(self) -> float:
        """Lebesgue measure, the product of side lengths."""
        m = 1.0
        for a, b in zip(self.lower, self.upper):
            m *= b - a
        return m

    def contains(self, points) -> np.ndarray:
        """Half-open membership test.

        ``points`` may be a single point of shape (d,) or a batch (n, d);
        returns a scalar bool or a boolean array of shape (n,).
        """
        pts = np.asarray(points, dtype=float)
        lo = np.asarray(self.lower)
        up = np.asarray(self.upper)
        inside = (pts >= lo) & (pts < up)
        return inside.all(axis=-1)


@dataclass(frozen=True)
class GasMicrostate:
    """Positions and momenta of n non-interacting particles on the d-torus.

    ``positions`` and ``momenta`` are (n, d) float arrays; positions must lie
    in [0, 1) coordinatewise.  Instances are immutable: the arrays are marked
    read-only, so one sampled state can be probed at many times, by many
    workers, without copies.
    """

    positions: np.ndarray
    momenta: np.ndarray

    def __post_init__(self):
        x = np.array(self.positions, dtype=float, copy=True)
        p = np.array(self.momenta, dtype=float, copy=True)
        if x.ndim == 1:
            x = x[:, None]
        if p.ndim == 1:
            p = p[:, None]
        if x.ndim != 2 or p.ndim != 2 or x.shape != p.shape:
            raise ValueError(
                f"positions and momenta must be matching (n, d) arrays, got {x.shape} and {p.shape}"
            )
        if x.shape[0] < 1:
            raise ValueError("need at least one particle")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(p)):
            raise ValueError("positions and momenta must be finite")
        if np.any(x < 0.0) or np.any(x >= 1.0):
            raise ValueError("positions must lie in [0, 1) coordinatewise")
        x.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "momenta", p)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class TimeGrid:
    """Observation instants ``t0 + k * dt`` for k = 1..k_count.

    k_count is at most 2^53: past it the float k of an instant is no longer
    exact, and neighbouring instants round onto one another.  The constructor
    checks in O(1) that the last instant is finite; a dt that rounds instants
    onto one another is refused by :attr:`times`, which alone builds the grid.
    """

    t0: float
    dt: float
    k_count: int

    def __post_init__(self):
        as_real(self.t0, "t0", 0, finite=True)
        as_real(self.dt, "dt", 0, open_lo=True, finite=True)
        object.__setattr__(self, "k_count", as_int(self.k_count, "k_count", 1, 2**53))
        if not math.isfinite(float(self.t0) + self.k_count * float(self.dt)):
            raise ParameterError("dt", f"must keep t0 + k_count * dt finite, got {self.dt}")

    @property
    def times(self) -> np.ndarray:
        k = np.arange(1, self.k_count + 1, dtype=float)
        times = self.t0 + k * self.dt
        if not (times[1:] > times[:-1]).all():
            raise ParameterError("dt", "must make t0 + k * dt strictly increasing at "
                                       f"t0 = {self.t0}, got {self.dt}")
        return times


@dataclass(frozen=True)
class LogProbability:
    """A probability carried as its natural logarithm.

    ``log_value`` is always <= 0; probability exactly zero is the
    distinguished value ``-inf``.  Upper bounds that exceed 1 are clamped to
    1 and flagged ``vacuous``; the pre-clamp value survives in ``raw_log``
    so a vacuous bound still reports how badly it missed.  A linear value
    is materialized only on request and only when it is representable
    (>= 1e-300), otherwise :attr:`linear` reports 0.0 and
    :attr:`underflows` is true.
    """

    log_value: float
    vacuous: bool = False
    raw_log: float | None = None

    def __post_init__(self):
        lv = float(self.log_value)
        if math.isnan(lv) or lv > 0.0:
            raise ValueError(f"log_value must be <= 0 or -inf, got {lv}")
        object.__setattr__(self, "log_value", lv)
        if self.raw_log is None:
            object.__setattr__(self, "raw_log", lv)
        else:
            object.__setattr__(self, "raw_log", float(self.raw_log))

    @classmethod
    def from_log(cls, log_value: float) -> "LogProbability":
        """Build from a raw log bound, clamping values above log(1) = 0."""
        lv = float(log_value)
        if math.isnan(lv):
            raise ValueError("log bound is NaN")
        if lv > 0.0:
            return cls(0.0, vacuous=True, raw_log=lv)
        return cls(lv)

    @property
    def linear(self) -> float:
        """exp(log_value) when representable, else 0.0 (see underflows)."""
        return 0.0 if self.underflows else math.exp(self.log_value)

    @property
    def underflows(self) -> bool:
        return self.log_value < _UNDERFLOW_LOG

    def csv_fields(self) -> tuple:
        """(log_value, linear_or_'underflow') pair used by bounds reports."""
        linear = "underflow" if self.underflows else format_float(self.linear)
        return format_float(self.log_value), linear


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (master_seed, stream_id).

    Streams with distinct ids are statistically independent, and a given key
    reproduces the same sequence on any machine and any worker count, because
    the underlying generator (Philox) is counter-based.  A stream is single
    owner: call :meth:`generator` to obtain a fresh generator positioned at
    the start of the stream.  The ensembles, which need thousands of
    streams, reach the same draws more cheaply through
    :func:`stream_generators`.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, -math.inf) % _TWO64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def stream_generators(master_seed: int, first_id: int, count: int):
    """Yield the generators of stream ids ``first_id .. first_id + count - 1``.

    Internal to the ensembles, which pass Python ints.  One Philox generator
    is re-keyed for each id through its public ``state`` setter: key
    (master_seed, id) mod 2^64, counter 0, an empty output buffer and no
    cached uint32, which is the state :meth:`RngStream.generator` starts
    from, so every stream draws exactly what
    ``RngStream(master_seed, id).generator()`` draws.  Building a fresh
    Philox per stream costs several times more, because its constructor also
    seeds a throw-away ``SeedSequence`` from OS entropy.  Each yielded
    generator is the same object, valid until the next yield.
    """
    key = np.array([master_seed % _TWO64, 0], dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_gen = np.random.Philox(key=key)
    gen = np.random.Generator(bit_gen)
    for stream_id in range(first_id, first_id + count):
        key[1] = stream_id % _TWO64
        bit_gen.state = state
        yield gen
