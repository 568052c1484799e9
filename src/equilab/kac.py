"""Marked-ring color dynamics: exact evolution, expectations, and oracles.

N sites sit on a circle; site n carries a fixed marker xi_n in {+1, -1}
(-1 = marked) and a ball of color eta_n in {+1, -1} (+1 = white).  Each step
every ball moves one site counterclockwise and flips color when it leaves a
marked site:

    eta_n(t) = xi_{n-1} * eta_{n-1}(t-1)        (indices mod N).

The dynamics is deterministic, invertible, and 2N-periodic.  The observable
is the white-minus-black count Delta(t) and its fraction delta_bar; from an
all-white start Delta(t) is a sum of marker-window products, which this
module evaluates both by iterating the map and in closed form, as one
popcount of the doubled ring's prefix parities held in one Python int for
the last ring seen, and, for small rings, by exact enumeration over all 2^N
marker sequences.  The enumeration takes each sequence as an integer code;
window parity is linear over GF(2), so a code's N window parities are the
bits of one XOR of per-site window masks, read from a table built once per
call, and its odd windows one popcount.  It shares no code with the closed
form or the stepping kernel, so the three serve as mutual oracles.
:func:`expected_delta_sq` gives the exact second moment E[Delta(t)^2].

:class:`RingStepper` is the one stepping rule for evolving rings: it steps
h rings in the frame that rotates with the balls (see Gottwald & Oliver,
SIAM Rev. 51, 2009), bit-packed 8 sites per byte so that a step is one
byte-wise XOR of a window of the markers, and returns their black counts at
every t.  Narrow rows, one ring or a few small ones, are stepped by one
XOR-accumulate down a block of times, a row of a multiple of 256 bytes
padded by one word; wider rows, such as the ensemble's tiles, are XORed one
time step at a time.  A stepper allocates its marker rows, block and counts
once and steps any number of tiles of up to its row count in them: a
ring-ensemble chunk keeps one for all its tiles, and :func:`ring_trace` is
a one-row stepper.  :func:`step` and :func:`inverse_step` apply the map as
written, site by site, and stay as the independent oracle for it.

This module also owns the marker-draw rule: a site is marked when its raw
Philox word is at most :func:`marker_limit`, the verdicts of numpy's
``random() < mu``.  :func:`sample_markers` and the ring ensembles draw by it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import FLOAT_MAX, LogProbability, ParameterError, RngStream, as_int, as_real, square

__all__ = [
    "KacConfiguration",
    "step",
    "inverse_step",
    "RingStepper",
    "ring_trace",
    "delta_closed_form",
    "sample_markers",
    "expected_delta_bar",
    "expected_delta_sq",
    "BruteForceMoments",
    "brute_force_expectation",
    "RingBoundSchedule",
    "ring_bound_schedule",
]

_last_ring = None  # (dtype, bytes, N, P bits, 2^N - 1, P_N) of delta_closed_form's last ring
#: Bytes of packed states per block of :class:`RingStepper`.  With its shifted
#: markers a block steps inside a core's L2 cache, and the block is counted
#: in one pass; 2^18 bytes stepped as fast but raised the ring ensemble's
#: peak RSS by about 0.5 MiB.
_RING_BLOCK = 1 << 17
#: Widest block row, in uint64 words, that :class:`RingStepper` fills with
#: windows and XOR-accumulates; wider rows are XORed one at a time.  Set
#: from measurement: accumulating wins up to here, and loses from 384 words.
_ACCUMULATE_WORDS = 256


def _as_pm_one(values, name: str) -> np.ndarray:
    # Check the values in their own dtype: casting first would truncate 1.5 to 1.
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    # For integers |x| == 1 is one pass; abs of the most negative integer
    # stays negative.  Other dtypes keep two compares, since |1j| == 1 too.
    if arr.dtype.kind in "iu":
        ok = (np.abs(arr) == 1).all()
    else:
        ok = np.all((arr == 1) | (arr == -1))
    if not ok:
        raise ValueError(f"{name} entries must be +1 or -1")
    if arr.dtype != np.int8:
        arr = arr.astype(np.int8)
    return arr


@dataclass(frozen=True)
class KacConfiguration:
    """Immutable ring state: markers, ball colors, and a step counter.

    ``time`` counts net forward steps since preparation; it can go negative
    if a freshly prepared state is stepped backward.
    """

    markers: np.ndarray
    colors: np.ndarray
    time: int = 0

    def __post_init__(self):
        m = _as_pm_one(self.markers, "markers")
        c = _as_pm_one(self.colors, "colors")
        if m.size != c.size:
            raise ValueError("markers and colors must have equal length")
        self._own(m.copy(), c.copy(), as_int(self.time, "time", -math.inf))

    @classmethod
    def all_white(cls, markers) -> "KacConfiguration":
        m = _as_pm_one(markers, "markers")
        # Built without __init__, which would check the markers a second time.
        config = object.__new__(cls)
        config._own(m.copy(), np.ones(m.size, dtype=np.int8), 0)
        return config

    def _own(self, markers: np.ndarray, colors: np.ndarray, time: int) -> None:
        """Store checked int8 arrays that nothing else holds, read-only."""
        markers.setflags(write=False)
        colors.setflags(write=False)
        object.__setattr__(self, "markers", markers)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "time", time)

    @property
    def n_sites(self) -> int:
        return self.markers.size

    @property
    def marker_count(self) -> int:
        return int(np.count_nonzero(self.markers == -1))


def step(config: KacConfiguration) -> KacConfiguration:
    """One forward step: eta'_n = xi_{n-1} * eta_{n-1}, markers fixed."""
    new_colors = np.roll(config.markers * config.colors, 1)
    return KacConfiguration(config.markers, new_colors, config.time + 1)


def inverse_step(config: KacConfiguration) -> KacConfiguration:
    """One backward step: eta'_n = xi_n * eta_{n+1}; undoes :func:`step` exactly."""
    new_colors = config.markers * np.roll(config.colors, -1)
    return KacConfiguration(config.markers, new_colors, config.time - 1)


class RingStepper:
    """Steps up to ``rows`` rings of N sites bit-packed, reusing its buffers.

    Callers write each ring's markers, True = marked, into a row of
    :attr:`marked`, an (rows, N) bool array, and :meth:`steps` steps the
    first h rows from t = 0 to ``t_max`` and returns their black counts.
    The stepper allocates its marker rows, its block of packed states and
    its counts once, so a caller that steps many tiles of rings, as the
    ring ensemble does, keeps one stepper for all of them: buffers made per
    tile would be freed and faulted back in on every tile.  A call makes
    only the shifted marker copies, by one ``packbits``, and small arrays.

    It works in the frame that rotates with the balls: the ball that starts
    at site k sits at site k + t after t steps with color

        eta_{k+t}(t) = eta_k(0) * prod_{j=0..t-1} xi_{k+j}        (indices mod N),

    so step t flips exactly the balls with site k + t - 1 marked: the state,
    indexed by the start site k, is XORed with the length-N window of the
    doubled marked array that starts at s = (t - 1) mod N.  The marker rows
    are the doubled rows' first N columns; each call copies their wrap.

    Sites are packed 8 per byte, site k in bit k % 8 of byte k // 8, in rows
    of W bytes, ceil(N/8) rounded up to whole uint64 words.  Each doubled
    marked row is packed once per call, in 8 copies of L bytes shifted by
    0..7 bits and laid out ring by ring, so the window at s is the W whole
    bytes from byte s >> 3 of copy s & 7.  One strided view of the copies
    holds a window at every byte offset, and ``at[t] = (s & 7) * L +
    (s >> 3)``, the same for every h, is the offset of step t's window in
    it.  The states are stepped in blocks of about ``_RING_BLOCK`` bytes,
    one row per time, row 0 its window XOR the previous block's last state,
    in one of two ways chosen by the width of a row of h rings:

    - a row of up to ``_ACCUMULATE_WORDS`` uint64 words (one ring, or a few
      small ones) is filled with its window, the rest of the block by one
      gather of the windows at ``at``, and the block is XOR-accumulated down
      its rows.  A block row of a multiple of 32 words is padded by one
      word, which the popcount skips: to t = 2N one ring then steps 1.1 to
      1.4 times as fast at N = 2048 to 16384, while at other widths (N = 64
      to 1024, 1536, 3000, 3072) a pad gains nothing and costs up to 12 %.
      Such rows are a multiple of 256 bytes, so rows 16 apart sit a
      multiple of 4 KiB apart, the likely cause: a load that aliases a
      pending store's 4-KiB offset waits for it;
    - a wider row, such as a 64-ring tile of the ring ensemble, is the
      previous row XOR its window, one row at a time.  The accumulate walks
      the block column by column, which pays while a column's rows stay in
      cache: to t = 2N it is 1.3 to 1.9 times as fast for one ring of 160 to
      240 words and for 2 to 16 rings in rows of 256, and slower from 384
      words on: 2 times at 512, 2.7 times on the 4096-word ensemble tile.

    The bits a window carries past site N - 1 only reach the same bits of
    later rows, and are cleared once per block before it is counted.
    """

    def __init__(self, rows: int, n: int, t_max: int):
        self.rows = as_int(rows, "rows", 1)
        self.n = n = as_int(n, "n", 1)
        self.t_max = t_max = as_int(t_max, "t_max")
        self._words = words = -(-n // 64)
        # Windows start at s <= last and span the full row width, so each copy
        # needs ``span`` whole uint64 words, and the doubled rows 7 more bits
        # for the copies shifted past their start.  Their bits past 2N only
        # reach the cleared tail.
        last = max(min(t_max, n) - 1, 0)
        span = -(-(last >> 3) // 8) + words
        self._doubled = np.zeros((self.rows, 64 * span + 8), dtype=bool)
        #: The (rows, N) marker rows, True = marked, that callers write.
        self.marked = self._doubled[:, :n]
        # s = (t - 1) mod N for t = 0..t_max: one period, N - 1, 0, .., N - 2,
        # repeated, which costs less than an integer remainder.
        s = np.arange(-1, min(t_max, n - 1))
        s[0] = n - 1
        s = np.resize(s, t_max + 1)
        self._at = (s & 7) * (8 * span) + (s >> 3)
        # The largest block that any h <= rows asks for, padded or not.
        row = self.rows * words + 1
        self._block = np.zeros(max(row, min((t_max + 1) * row, _RING_BLOCK // 8)), np.uint64)
        self._counts = np.empty((t_max + 1) * self.rows, dtype=np.uint32)
        self._top_mask = (1 << (n % 64)) - 1 if n % 64 else None

    def steps(self, h: int, black=None) -> np.ndarray:
        """Black counts of the first h rings, as a (t_max + 1, h) uint32 array.

        ``black``, the bool start colors, broadcasts against the (h, N) rings;
        None starts them all white.  Row t holds each ring's black count
        after t steps, so Delta = N - 2 * counts.  The result is a view of
        the stepper's own buffer, which the next call overwrites.
        """
        h = as_int(h, "h", 1, self.rows)
        n, t_max, words, at = self.n, self.t_max, self._words, self._at
        width = 8 * words
        doubled = self._doubled[:h]
        length = doubled.shape[1]
        wrap = min(n, length - n)
        doubled[:, n : n + wrap] = doubled[:, :wrap]
        # Copy c packs a doubled row from bit c on: all 8h in one packbits.
        shifted = np.packbits(np.ndarray((h, 8, length - 8), bool, doubled, 0, (length, 1, 1)),
                              axis=-1, bitorder="little")
        # windows[at[t]] is the (h, W) window that step t XORs into the state.
        ring = shifted.strides[0]
        windows = np.ndarray((shifted.size - (h - 1) * ring - width + 1, h, width), np.uint8,
                             shifted, 0, (1, ring, 1))
        narrow = h * words <= _ACCUMULATE_WORDS
        # An accumulated block row of a multiple of 32 words gets one pad
        # word (see the class docstring).
        row = h * words + (narrow and h * words % 32 == 0)
        rows = max(1, min(t_max + 1, _RING_BLOCK // (8 * row)))
        flat = self._block[: rows * row].reshape(rows, row)
        as_words = flat[:, : h * words].reshape(rows, h, words)
        block = as_words.view(np.uint8)
        counts = self._counts[: (t_max + 1) * h].reshape(t_max + 1, h)
        # Bytes of row 0 past ceil(N/8) hold only sites past N - 1, which the
        # counts never see, so a start of given colors need not clear them.
        if black is None:
            block[0] = 0
        else:
            block[0, :, : -(-n // 8)] = np.packbits(black, axis=-1, bitorder="little")
        xor = np.bitwise_xor
        for t in range(0, t_max + 1, rows):
            b = min(rows, t_max + 1 - t)
            if t:
                xor(block[-1], windows[at[t]], out=block[0])
            if narrow:
                block[1:b] = windows[at[t + 1 : t + b]]
                xor.accumulate(flat[:b], axis=0, out=flat[:b])
            else:
                for r in range(1, b):
                    xor(block[r - 1], windows[at[t + r]], out=block[r])
            if self._top_mask is not None:
                as_words[:b, :, words - 1] &= self._top_mask
            np.add.reduce(np.bitwise_count(as_words[:b]), axis=-1, dtype=np.uint32,
                          out=counts[t : t + b])
        return counts


def ring_trace(config: KacConfiguration, t_max: int) -> np.ndarray:
    """Delta(t) for t = 0..t_max by iterating the map from ``config``.

    Steps the one ring with a one-row :class:`RingStepper` and takes N - 2 *
    its black counts.
    """
    stepper = RingStepper(1, config.n_sites, t_max)
    np.less(config.markers, 0, out=stepper.marked[0])
    black = stepper.steps(1, config.colors < 0)[:, 0]
    # In int64: N minus a uint32 array would stay uint32 and wrap.
    return config.n_sites - 2 * black.astype(np.int64)


def delta_closed_form(markers, t: int) -> int:
    """Delta(t) from the all-white start, via prefix parities in one integer.

    Each window product is (-1)^(marked count in the window), so with P_i
    the parity of the marked count among the first i sites of the doubled
    ring xi_0..xi_{N-1} xi_0..xi_{N-1}, Delta(t) = N - 2 * #{s < N : P_{s+t}
    != P_s} for t <= N.  Past one revolution every window also holds the
    whole ring once, so Delta(t) = (-1)^m Delta(t - N) for N < t <= 2N.

    P_0..P_2N are kept as the bits of one Python int, bit i = P_i, so the
    count is one popcount: #{s < N : P_{s+r} != P_s} is
    ``(((bits >> r) ^ bits) & (2^N - 1)).bit_count()``.  The last ring's
    bits are kept under the dtype and bytes of ``markers``, not its
    identity, so they cannot go stale: equal bytes are the same validated
    values, and a ring changed in place has new bytes.  Object arrays miss.
    Copying the bytes to compare them is the cheapest full check measured:
    per call 0.06 us at N = 64 and 64 us at N = 10^6, against 1.3 and 86 us
    for ``np.array_equal`` and 0.26 and 1757 us for a memoryview compare.
    """
    global _last_ring
    arr = np.asarray(markers)
    memo = _last_ring
    if memo is None or arr.ndim != 1 or memo[0] != arr.dtype or memo[1] != arr.tobytes():
        m = _as_pm_one(arr, "markers")
        n = m.size
        parity = np.zeros(2 * n + 1, dtype=np.uint8)
        np.bitwise_xor.accumulate((m < 0).view(np.uint8), out=parity[1 : n + 1])
        np.bitwise_xor(parity[1 : n + 1], parity[n], out=parity[n + 1 :])
        bits = int.from_bytes(np.packbits(parity, bitorder="little").tobytes(), "little")
        memo = (arr.dtype, arr.tobytes(), n, bits, (1 << n) - 1, bool(parity[n]))
        if arr.dtype != object:
            _last_ring = memo
    _, _, n, bits, mask, ring_odd = memo
    t = as_int(t, "t", hi=2 * n)
    r = t - n if t > n else t
    delta = n - 2 * (((bits >> r) ^ bits) & mask).bit_count()
    return -delta if ring_odd and t > n else delta


def marker_limit(mu: float) -> int:
    """The largest raw Philox word x with ``(x >> 11) * 2**-53 < mu``.

    The one marker-draw rule: a site is marked when its raw word is at most
    this limit.  Numpy's ``random()`` is the top 53 bits of a raw word times
    2^-53, and mu * 2^53 is exact, so for an integer k = x >> 11,
    k * 2^-53 < mu holds exactly when k < ceil(mu * 2^53), that is when
    x <= ceil(mu * 2^53) * 2^11 - 1.  The verdicts are those of
    ``random() < mu``; at mu = 1 the limit is 2^64 - 1 and every site is
    marked.
    """
    return (math.ceil(mu * 2.0**53) << 11) - 1


def sample_markers(n: int, mu: float, rng: RngStream) -> np.ndarray:
    """I.i.d. markers with P(marked) = mu, as a +-1 int8 array.

    Site i is marked when the i-th raw word of the stream is at most
    :func:`marker_limit`.
    """
    n = as_int(n, "n", 1)
    as_real(mu, "mu", 0, 1, open_lo=True)
    marked = rng.generator().bit_generator.random_raw(n) <= marker_limit(mu)
    return np.where(marked, np.int8(-1), np.int8(1))


def expected_delta_bar(mu: float, t: int, n_sites: int) -> float:
    """Ensemble mean of delta_bar(t) from all white, exact for t <= 2N.

    For t <= N each window product involves t distinct markers, so the mean
    is (1 - 2 mu)^t.  Past one revolution a window of t sites holds the
    whole ring once and t - N of its sites twice; a marker met twice
    cancels, so the product runs over the other 2N - t markers and the mean
    is (1 - 2 mu)^(2N - t), back to 1 at the recurrence t = 2N.
    """
    as_real(mu, "mu", 0, 1)
    n_sites = as_int(n_sites, "n_sites", 1)
    t = as_int(t, "t", hi=2 * n_sites)
    return (1.0 - 2.0 * mu) ** min(t, 2 * n_sites - t)


def expected_delta_sq(mu: float, t: int, n_sites: int) -> float:
    """Ensemble mean of Delta(t)^2 from all white, exact for t <= 2N.

    Delta(t) = sum_s prod_{k in W_s} xi_k over the N windows W_s of t sites
    (mod N) that the balls have crossed, and the markers are independent
    with E[xi] = lam = 1 - 2 mu and xi^2 = 1, so E[Delta^2] =
    sum_{s,r} lam^{|W_s sym W_r|}.  For t <= N two windows d sites apart
    share max(0, t - d) + max(0, t - N + d) sites, so the double sum is N
    times a sum over d, O(N) per call.  Past one revolution
    Delta(N + s) = (-1)^m Delta(s), with m the marker count, and the square
    is that of t = s.  The variance of delta_bar is
    E[Delta^2] / N^2 - (1 - 2 mu)^(2t) for t <= N.
    """
    as_real(mu, "mu", 0, 1)
    n_sites = as_int(n_sites, "n_sites", 1)
    t = as_int(t, "t", hi=2 * n_sites)
    if t > n_sites:
        t -= n_sites
    d = np.arange(n_sites)
    shared = np.maximum(0, t - d) + np.maximum(0, t - n_sites + d)
    return n_sites * float(np.sum((1.0 - 2.0 * mu) ** (2 * t - 2 * shared)))


@dataclass(frozen=True)
class BruteForceMoments:
    mean: float
    variance: float


_BRUTE_LIMIT = 20
#: Marker codes per chunk of :func:`brute_force_expectation`.  The moments
#: are summed chunk by chunk with ``np.sum``, whose pairwise order follows
#: the chunk length, so this constant fixes their last bits: it must not
#: change, or every enumerated moment may move by an ulp.
_BRUTE_CHUNK = 1 << 16
_CHUNK_BITS = _BRUTE_CHUNK.bit_length() - 1


def _xor_span(cols: list) -> np.ndarray:
    """The XOR of ``cols[b]`` over the set bits b of each index, by doubling."""
    table = np.zeros(1 << len(cols), dtype=np.uint32)
    for b, col in enumerate(cols):
        np.bitwise_xor(table[: 1 << b], col, out=table[1 << b : 2 << b])
    return table


def _window_parities(n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Window parities of every marker code, as a low and a high table.

    Bit i of a code marks site i, and bit s of its parity vector is the
    parity of its marked count in W_s, the t sites s..s+t-1 (mod N) that the
    ball starting at s crosses by time t.  Parity is linear over GF(2), so
    the vector is the XOR of ``col[b]`` over the code's marked sites b, with
    bit s of ``col[b]`` set when W_s covers site b an odd number of times:
    for t <= N, when b lies among the t' = t sites from s; past one
    revolution W_s also covers the whole ring once, so ``col[b]`` is the
    complement of that for t' = t - N.  Code c's vector is
    ``low[c % 2^16] ^ high[c >> 16]`` (``low`` has only 2^N entries below
    N = 16).
    """
    full = (1 << n) - 1
    tt = t - n if t > n else t
    run = (1 << tt) - 1
    flip = full if t > n else 0
    cols = []
    for b in range(n):
        # W_s covers b for s = b - t' + 1 .. b: the run rotated left by k.
        k = (b - tt + 1) % n
        cols.append((((run << k) | (run >> (n - k))) & full) ^ flip)
    return _xor_span(cols[:_CHUNK_BITS]), _xor_span(cols[_CHUNK_BITS:])


def _enumerated_deltas(n: int, t: int, codes: np.ndarray) -> np.ndarray:
    """Delta(t) from all white for each uint32 marker code, as int64.

    Each window product is (-1)^(marked count in the window), so Delta(t) =
    N - 2 * (number of odd windows), read off the code's parity vector from
    :func:`_window_parities`, the tables :func:`brute_force_expectation`
    sums over.  Past one revolution the vector is complemented for codes of
    odd marked count, which gives the sign (-1)^m.  Shares no code with
    :func:`delta_closed_form` or :class:`RingStepper`.
    """
    low, high = _window_parities(n, t)
    vectors = low[codes & (low.size - 1)] ^ high[codes >> _CHUNK_BITS]
    return n - 2 * np.bitwise_count(vectors).astype(np.int64)


def brute_force_expectation(n: int, mu: float, t: int) -> BruteForceMoments:
    """Exact moments of delta_bar(t) by summing all 2^N marker sequences.

    Each sequence is a uint32 code whose set bits are the marked sites, and
    its window parities are one XOR of the tables of
    :func:`_window_parities` and one popcount, so the enumeration shares no
    code with the closed form or the stepping kernel.  A sequence with m
    marked sites is weighted mu^m (1-mu)^(N-m); the result is exact up to
    float rounding, which makes it the ground-truth oracle for the closed
    form and the (1-2 mu)^t mean.  The weights and delta_bar values are
    tabulated by marked and odd-window count, and their products are summed
    in chunks of ``_BRUTE_CHUNK`` codes in code order.  Refuses N > 20 (the
    enumeration is 2^N).
    """
    n = as_int(n, "n", 1, _BRUTE_LIMIT)
    as_real(mu, "mu", 0, 1)
    t = as_int(t, "t", hi=2 * n)
    low, high = _window_parities(n, t)
    marked = np.arange(n + 1)
    # Weights via logs so mu near 0 or 1 cannot underflow intermediate powers.
    with np.errstate(divide="ignore"):
        log_w = marked * np.log(mu) if mu > 0 else np.where(marked == 0, 0.0, -np.inf)
        if mu < 1:
            log_w = log_w + (n - marked) * np.log1p(-mu)
        else:
            log_w = np.where(marked == n, log_w, -np.inf)
    w = np.exp(log_w)
    dbar = (n - 2 * marked) / n
    # A code with m marked sites and o odd windows adds w[m] * dbar[o] to
    # the mean and that times dbar[o] to the square, its own float products,
    # tabulated at m * (N + 1) + o.
    mean_terms = np.multiply.outer(w, dbar)
    sq_terms = (mean_terms * dbar).ravel()
    mean_terms = mean_terms.ravel()
    row = (n + 1) * np.bitwise_count(np.arange(low.size)).astype(np.intp)
    mean_acc = 0.0
    sq_acc = 0.0
    for k, mask in enumerate(high):
        # Chunk k holds the codes k * 2^16 + c, with k.bit_count() more marked sites.
        at = row + np.bitwise_count(low ^ mask)
        offset = (n + 1) * k.bit_count()
        mean_acc += float(np.sum(mean_terms[offset:].take(at)))
        sq_acc += float(np.sum(sq_terms[offset:].take(at)))
    return BruteForceMoments(mean=mean_acc, variance=sq_acc - mean_acc**2)


@dataclass(frozen=True)
class RingBoundSchedule:
    """Size thresholds, time window, and tail bounds for ring equilibration.

    For a deviation threshold epsilon and window exponent alpha in (0, 1):
    rings larger than ``min_sites`` = (4/eps)^(1/(1-alpha)) (inf past float
    range) equilibrate by ``t_start`` (the first integer time with
    |1-2mu|^t <= eps/4) and stay concentrated until ``window_end(N)`` =
    N^alpha / 2, with per-time tail 2 exp(eps^2/2) exp(-(eps^2/2) N^(1-alpha))
    and the window-long bound the per-time one multiplied by the window
    length.
    """

    epsilon: float
    alpha: float
    mu: float
    min_sites: float
    t_start: float
    t_start_exact: float

    def window_end(self, n_sites: int) -> float:
        return 0.5 * as_int(n_sites, "n_sites", 1, FLOAT_MAX) ** self.alpha

    def window(self, n_sites: int) -> tuple:
        """(t_start, N^alpha / 2), refused if it never opens or closes first."""
        if math.isinf(self.t_start):
            raise ParameterError("mu", f"must lie in (0, 1) for a window, got {self.mu}")
        end = self.window_end(n_sites)
        if end < self.t_start:
            raise ParameterError("alpha", f"must make N^alpha / 2 = {end} reach t_start = "
                                 f"{self.t_start}, got {self.alpha}")
        return self.t_start, end

    def _log_per_time(self, n_sites: int) -> float:
        n_sites = as_int(n_sites, "n_sites", 1, FLOAT_MAX)  # n ** float needs a float n
        half_sq = 0.5 * square(self.epsilon)
        scale = n_sites ** (1.0 - self.alpha)
        if math.isinf(half_sq):  # (eps^2/2)(1 - N^(1-alpha)) is 0 at N = 1, -inf past it
            return math.log(2.0) if scale == 1.0 else -math.inf
        return math.log(2.0) + half_sq - half_sq * scale

    def per_time_bound(self, n_sites: int) -> LogProbability:
        return LogProbability.from_log(self._log_per_time(n_sites))

    def sequence_bound(self, n_sites: int) -> LogProbability:
        log_window = math.log(self.window_end(n_sites))
        return LogProbability.from_log(log_window + self._log_per_time(n_sites))


def ring_bound_schedule(epsilon: float, alpha: float, mu: float) -> RingBoundSchedule:
    """Equilibration schedule for rings with marker fraction mu.

    ``t_start`` solves |1-2mu|^t = eps/4 and is rounded up to an integer; at
    mu = 1/2 the mean vanishes after one step, so t_start = 1, while mu in
    {0, 1} never decays (t_start = inf).
    """
    as_real(epsilon, "epsilon", 0, open_lo=True)
    as_real(alpha, "alpha", 0, 1, open_lo=True, open_hi=True)
    as_real(mu, "mu", 0, 1)
    try:
        min_sites = (4.0 / epsilon) ** (1.0 / (1.0 - alpha))
    except OverflowError:
        min_sites = math.inf
    lam = abs(1.0 - 2.0 * mu)
    if lam == 0.0:
        exact = 0.0
    elif lam == 1.0:
        exact = math.inf
    else:
        quarter = epsilon / 4.0  # below float_info.min it loses bits, or is 0; log eps does not
        exact = (math.log(quarter) if quarter >= sys.float_info.min
                 else math.log(epsilon) - math.log(4.0)) / math.log(lam)
    # Every exact time below 1, -inf (eps = inf) among them, still waits one step.
    t_start = math.inf if exact == math.inf else float(math.ceil(max(exact, 1.0)))
    return RingBoundSchedule(
        epsilon=epsilon,
        alpha=alpha,
        mu=mu,
        min_sites=min_sites,
        t_start=t_start,
        t_start_exact=exact,
    )

