"""Outside-in span tracer for the equilab benchmark.

The tracer never edits the package.  It replaces public functions at the
places where their callers look them up (``equilab.ensemble.sample_microstate``
is the binding ``run_gas_scaling`` calls, ``equilab.cli.expected_fraction``
the one the CLI calls) with wrappers that record one span per call: name,
start, end and parent.  Spans stay in memory until the run ends.  A binding
that does not exist in the measured version of the package is skipped
silently, so the same benchmark measures a package from which some of these
names were removed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

_clock = time.perf_counter


def _particle_steps(args, kwargs, result):
    """Exact gas particle-steps of one ``run_gas_scaling`` call.

    The ensemble stops advancing a history at its first exceedance, so the
    histories alive at grid step k are those with no deviation at K = k - 1.
    That count is in the deviation table only when ``k_values`` is 1..K.
    """
    spec = args[0] if args else kwargs["spec"]
    k_count = spec.grid.k_count
    if tuple(spec.k_values) != tuple(range(1, k_count + 1)):
        return 0
    steps = 0
    for i, n in enumerate(spec.n_values):
        exceeded_before = [0] + [int(v) for v in result.deviations[i, :-1]]
        steps += n * sum(spec.histories - d for d in exceeded_before)
    return steps


def _ring_trace_steps(args, kwargs, result):
    return args[0].n_sites * (len(result) - 1)


# (span name, bindings "module:attr" or "module:Class.attr", work count or None)
TARGETS = (
    ("core.rng_setup", ("equilab.core:RngStream.generator",), None),
    ("core.microstate_init", ("equilab.core:GasMicrostate.__post_init__",), None),
    ("sampler.sample_microstate",
     ("equilab.ensemble:sample_microstate", "equilab.cli:sample_microstate"),
     lambda a, k, r: r.positions.size + r.momenta.size),
    ("kac.sample_markers",
     ("equilab.kac:sample_markers", "equilab.ensemble:sample_markers",
      "equilab.cli:sample_markers"), None),
    ("kac.ring_trace", ("equilab.kac:ring_trace", "equilab.cli:ring_trace"),
     _ring_trace_steps),
    ("kac.delta_closed_form",
     ("equilab.kac:delta_closed_form", "equilab.cli:delta_closed_form"), None),
    ("kac.brute_force_expectation",
     ("equilab.kac:brute_force_expectation", "equilab.cli:brute_force_expectation"),
     lambda a, k, r: 2 ** a[0]),
    ("ensemble.run_gas_scaling",
     ("equilab.ensemble:run_gas_scaling", "equilab.cli:run_gas_scaling"),
     _particle_steps),
    ("ensemble.run_kac_ensemble",
     ("equilab.ensemble:run_kac_ensemble", "equilab.cli:run_kac_ensemble"),
     lambda a, k, r: r.histories * r.n_sites * len(r.times)),
    ("ensemble.run_fluctuation_trace", ("equilab.cli:run_fluctuation_trace",), None),
    ("ensemble.write_summary_json", ("equilab.cli:write_summary_json",), None),
    ("gas.trace", ("equilab.ensemble:trace",), None),
    ("gas.fraction_in", ("equilab.gas:fraction_in", "equilab.cli:fraction_in"),
     lambda a, k, r: a[0].n),
    ("gas.streaming", ("equilab.cli:positions_at", "equilab.cli:reverse_at"), None),
    ("analytic.expected_fraction",
     ("equilab.analytic:expected_fraction", "equilab.cli:expected_fraction"), None),
    ("analytic.fit_decay", ("equilab.cli:fit_decay",), None),
    ("analytic.bounds",
     tuple(f"equilab.cli:{f}" for f in (
         "hoeffding_tail", "scenario_bound", "partition_scenario_bound",
         "markov_bound", "log_sequence_capacity", "equilibration_time",
         "macro_estimator")), None),
    ("cli.csv_write",
     ("equilab.cli:_write_rows_csv", "equilab.cli:write_trace_csv",
      "equilab.cli:write_bounds_csv", "equilab.cli:write_csv",
      "equilab.gas:ObservableSeries.to_csv", "equilab.ensemble:ScalingResult.to_csv",
      "equilab.ensemble:KacEnsembleResult.to_csv"), None),
    ("cli.main", ("equilab.cli:main",), None),
    ("cli.parse_config", ("equilab.cli:parse_config",), None),
    ("cli.execute", ("equilab.cli:execute",), None),
)


class Tracer:
    """Collects spans from wrapped bindings while installed.

    ``spans`` holds ``[name, start, end, parent_index]`` lists and ``counts``
    the work each span reported; both persist across install/uninstall, so a
    caller can trace several passes and read them out once.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counts = []
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, 0)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self.counts.append(0)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index, count):
        self.spans[index][2] = _clock()
        self.counts[index] = count
        self._stack.pop()

    def _wrap(self, name, func, count):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                self._close(index, count(args, kwargs, result) if count and result is not None else 0)

        return wrapper

    def install(self):
        for name, bindings, count in self.targets:
            for binding in bindings:
                module_name, attr_path = binding.split(":")
                try:
                    owner = importlib.import_module(module_name)
                    *outer, attr = attr_path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    continue
                setattr(owner, attr, self._wrap(name, original, count))
                self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent), count in zip(self.spans, self.counts):
                fh.write(json.dumps([name, start, end, parent, count]) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    ``spans`` is a list of ``[name, start, end, parent_index]``.  Children of
    one span are merged as intervals, so overlapping children (which the
    single-threaded traced run never produces) are not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, start), min(hi, end)
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans, counts, own):
    """Per span name: calls, total seconds, self seconds and reported work.

    ``own`` holds the self times from :func:`self_times`; all three lists may
    be matching slices of a longer trace.
    """
    table = {}
    for (name, start, end, _), work, self_s in zip(spans, counts, own):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
        row["work"] += work
    return table
