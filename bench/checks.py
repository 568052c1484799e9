"""Correctness bookkeeping shared by the workloads and the session.

Workload outputs are written as CSV text with round-trip floats; two runs
agree when the text is byte-identical, and a run agrees with the values
pinned for the default seed when the fingerprints below match.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _fmt(x):
    return str(x) if isinstance(x, (int, np.integer)) else format(float(x), ".17g")


def table(header, rows):
    """CSV text with the package's round-trip float format."""
    return header + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


class Checks:
    """Counts correctness checks; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return bool(ok)


def fingerprint(text):
    """Per-column summary of a CSV table.

    Columns of integers or text get a SHA-256 digest and must match exactly.
    Other numeric columns get their plain and index-weighted sums, each with
    the matching sum of magnitudes that scales the tolerance.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    columns = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(header)
    out = {"rows": len(lines) - 1}
    for name, cells in zip(header, columns):
        try:
            vals = np.array([float(c) for c in cells])
        except ValueError:
            vals = None
        if vals is None or all(c.lstrip("-").isdigit() for c in cells):
            out[name] = ["exact", hashlib.sha256(",".join(cells).encode()).hexdigest()]
            continue
        w = np.arange(1, vals.size + 1)
        out[name] = ["float", float(vals.sum()), float(np.abs(vals).sum()),
                     float((w * vals).sum()), float((w * np.abs(vals)).sum())]
    return out


def same_fingerprint(got, want, rel=1e-12):
    """True when two fingerprints agree: exact, or floats to ``rel``."""
    if got.keys() != want.keys():
        return False
    for key, w in want.items():
        g = got[key]
        if key == "rows" or w[0] != "float":
            if g != w:
                return False
        elif g[0] != "float" or not (
            abs(g[1] - w[1]) <= rel * max(g[2], w[2])
            and abs(g[3] - w[3]) <= rel * max(g[4], w[4])
        ):
            return False
    return True
