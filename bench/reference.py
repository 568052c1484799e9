"""Host-speed reference loop for the equilab benchmark.

On a shared host the speed of the same code drifts by 20-30 % over tens of
seconds as other tenants come and go.  The benchmark therefore runs this
fixed loop just before and just after every pass and every set-up, and
reports ``REFERENCE_S * time / reference time``, with the loop's time
interpolated to the middle of the timed region: seconds at the reference
host speed.  The loop does the kinds of work the package does: interpreter
work, small-array numpy calls, and passes over an 8 MiB array.  It writes
in place into arrays allocated once, so nothing the package does to its
heap changes its cost.
"""

from __future__ import annotations

import time

import numpy as np

# About the loop's time on the unloaded 2-vCPU host the benchmark was tuned
# on; it only scales the reported ratios back to seconds.
REFERENCE_S = 0.055

_SMALL = np.arange(1024, dtype=np.int64)
_SMALL_OUT = np.empty_like(_SMALL)
_LARGE = np.linspace(1.0, 2.0, 1 << 20)


def lap():
    """Run the reference loop once; return (midpoint clock time, seconds)."""
    start = time.perf_counter()
    acc = 0
    for i in range(6000):
        np.multiply(_SMALL, i, out=_SMALL_OUT)
        np.add(_SMALL_OUT, _SMALL, out=_SMALL_OUT)
        for j in range(40):
            acc ^= i * j
    for _ in range(60):
        np.multiply(_LARGE, -1.0, out=_LARGE)
    seconds = time.perf_counter() - start
    return start + seconds / 2.0, seconds


def at_reference_speed(seconds, midpoint, before, after):
    """A time measured around clock time ``midpoint``, in reference seconds.

    ``before`` and ``after`` are the laps run just before and just after the
    timed region.  The loop's time at ``midpoint`` is interpolated between
    them, so a step early in a long pass leans on the lap before it.
    """
    (t0, r0), (t1, r1) = before, after
    weight = (midpoint - t0) / (t1 - t0)
    return REFERENCE_S * seconds / (r0 + weight * (r1 - r0))
