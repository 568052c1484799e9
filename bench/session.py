"""One benchmark session: set up a workload, then measure it.

Started by ``bench/run.py`` in a fresh interpreter; not meant to be run by
hand except to refresh the pinned fingerprints::

    python3 bench/session.py --workload ring_oracle --seed 0 --seconds 0 --write-pins

With ``--setup-only`` it exits after set-up and the warm-up call, which is
what ``run.py`` times for ``setup_s``.  Otherwise it repeats the workload's
pass for ``--seconds`` and prints one JSON line: the correctness counts, the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``),
the per-pass samples and the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

import reference
import tracer
from checks import Checks, fingerprint, same_fingerprint
from run import THREAD_PINS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src"
PIN_FILE = BENCH / "pinned.json"
PIN_SEED = 0
MODULES = ("core", "sampler", "gas", "analytic", "kac", "ensemble", "cli", "bench")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def per_layer_units(span_names):
    """Name and unit of every per-layer metric, in print order."""
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "core.rng_setup.us_per_call": "us",
        "sampler.draws_per_s": "1/s",
        "kac.delta_closed_form.us_per_call": "us",
        "kac.ring_trace.site_steps": "count",
        "kac.ring_trace.site_steps_per_s": "1/s",
        "kac.brute_force.codes": "count",
        "kac.brute_force.codes_per_s": "1/s",
        "ensemble.gas_particle_steps": "count",
        "ensemble.gas_particle_steps_per_s": "1/s",
        "ensemble.ring_site_steps": "count",
        "ensemble.ring_site_steps_per_s": "1/s",
        "gas.fraction_in.particles_per_s": "1/s",
        "analytic.expected_fraction.ms_per_call": "ms",
        "cli.csv_rows": "count",
        "cli.csv_rows_per_s": "1/s",
    })
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units["bench.traced_wall_s"] = "s"
    units["bench.trace_overhead_s"] = "s"
    return units


def _layer_metrics(agg, extra):
    """Per-layer values of one traced pass from its span aggregate."""
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}

    def get(name):
        return agg.get(name, zero)

    def per(work, seconds, scale=1.0):
        return scale * work / seconds if seconds > 0 else 0.0

    values = {}
    for name, row in agg.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
    rng, draws = get("core.rng_setup"), get("sampler.sample_microstate")
    closed, trace = get("kac.delta_closed_form"), get("kac.ring_trace")
    brute, mean = get("kac.brute_force_expectation"), get("analytic.expected_fraction")
    gas, ring = get("ensemble.run_gas_scaling"), get("ensemble.run_kac_ensemble")
    frac = get("gas.fraction_in")
    rows = extra.get("cli.csv_rows", 0)
    values.update({
        "core.rng_setup.us_per_call": per(rng["total_s"], rng["calls"], 1e6),
        "sampler.draws_per_s": per(draws["work"], draws["self_s"]),
        "kac.delta_closed_form.us_per_call": per(closed["total_s"], closed["calls"], 1e6),
        "kac.ring_trace.site_steps": trace["work"],
        "kac.ring_trace.site_steps_per_s": per(trace["work"], trace["self_s"]),
        "kac.brute_force.codes": brute["work"],
        "kac.brute_force.codes_per_s": per(brute["work"], brute["self_s"]),
        "ensemble.gas_particle_steps": gas["work"],
        "ensemble.gas_particle_steps_per_s": per(gas["work"], gas["self_s"]),
        "ensemble.ring_site_steps": ring["work"],
        "ensemble.ring_site_steps_per_s": per(ring["work"], ring["self_s"]),
        "gas.fraction_in.particles_per_s": per(frac["work"], frac["total_s"]),
        "analytic.expected_fraction.ms_per_call": per(mean["total_s"], mean["calls"], 1e3),
        "cli.csv_rows": rows,
        "cli.csv_rows_per_s": per(rows, get("cli.csv_write")["self_s"]),
    })
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in agg.items() if name.split(".")[0] == module
        )
    values["bench.traced_wall_s"] = get("bench")["total_s"]
    return values


def environment():
    """Host, toolchain and source identity recorded with every result."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            packed = (git / "packed-refs").read_text() if (git / "packed-refs").is_file() else ""
            loose = git / ref
            commit = loose.read_text().strip() if loose.is_file() else next(
                (line.split()[0] for line in packed.splitlines() if line.endswith(" " + ref)), None)
    digest = hashlib.sha256()
    for path in sorted((SRC / "equilab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "cpu_caches": caches,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


class Verifier:
    """Runs a workload's checks, and pin checks when the seed is pinned."""

    def __init__(self, workload, name, seed, write_pins):
        self.workload = workload
        self.name = name
        self.checks = Checks()
        self.write_pins = write_pins
        self.pinned = None
        if seed == PIN_SEED and not write_pins:
            pins = json.loads(PIN_FILE.read_text()) if PIN_FILE.is_file() else {}
            self.pinned = pins.get(name, {})

    def __call__(self, out):
        tables, extra = self.workload.check(out, self.checks)
        prints = {key: fingerprint(text) for key, text in tables.items()}
        if self.write_pins:
            pins = json.loads(PIN_FILE.read_text()) if PIN_FILE.is_file() else {}
            pins[self.name] = prints
            PIN_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            self.write_pins = False
        elif self.pinned is not None:
            self.checks(prints.keys() == self.pinned.keys(),
                        f"{self.name}: output tables differ from the pinned set")
            for key, want in self.pinned.items():
                self.checks(key in prints and same_fingerprint(prints[key], want),
                            f"{self.name}: {key} differs from the pinned values")
        return extra


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, pool) / 1024.0


def measure(workload, verify, seconds):
    """Untraced passes at every worker count: the end-to-end metrics.

    The reference loop of ``reference.py`` runs just before and just after
    every pass.  Each step of a pass (one call, the rings or the brute-force
    sweep, one command) is timed on its own and converted to seconds at the
    reference host speed.  ``wall_s`` is the median over passes of the sum
    over all steps, and ``ops_per_s`` divides the workload's operation count
    by the same median over its ``OPS_STEP`` steps.
    """
    reference.lap()  # warm-up: the first lap of a process runs cold
    refs, passes = [reference.lap()], []
    start = time.perf_counter()
    while True:
        out, steps = workload.run_pass((1, 2))
        refs.append(reference.lap())
        passes.append(steps)
        verify(out)
        if time.perf_counter() - start >= seconds:
            break
    walls, work = [], []
    for before, after, steps in zip(refs, refs[1:], passes):
        scaled = {step: reference.at_reference_speed(t, t0 + t / 2.0, before, after)
                  for step, (t0, t) in steps.items()}
        walls.append(sum(scaled.values()))
        work.append(sum(t for step, t in scaled.items() if step.startswith(workload.OPS_STEP)))
    metrics = {
        "wall_s": statistics.median(walls),
        "ops_per_s": workload.ops / statistics.median(work),
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples = {
        "passes": len(passes),
        "reference_s": [r for _, r in refs],
        "pass_wall_s": [sum(t for _, t in steps.values()) for steps in passes],
        "pass_wall_at_reference_s": walls,
        "step_median_s": {step: statistics.median(p[step][1] for p in passes) for step in passes[0]},
    }
    return metrics, samples


def measure_traced(workload, verify, seconds, span_file):
    """Alternate untraced and traced passes at workers=1: per-layer metrics."""
    spans = tracer.Tracer()
    untraced, roots, extras = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out, _ = workload.run_pass((1,))
        untraced.append(time.perf_counter() - t0)
        verify(out)
        roots.append(len(spans.spans))
        spans.install()
        try:
            with spans.span("bench"):
                out, _ = workload.run_pass((1,))
        finally:
            spans.uninstall()
        extras.append(verify(out))
        if time.perf_counter() - start >= seconds:
            break
    spans.write(span_file)
    own = tracer.self_times(spans.spans)
    bounds = roots + [len(spans.spans)]
    passes = []
    for lo, hi, extra in zip(bounds, bounds[1:], extras):
        agg = tracer.aggregate(spans.spans[lo:hi], spans.counts[lo:hi], own[lo:hi])
        values = _layer_metrics(agg, extra)
        wall = values["bench.traced_wall_s"]
        covered = sum(values[f"{m}.self_s"] for m in MODULES)
        verify.checks(abs(covered - wall) <= 1e-9 * max(1.0, wall),
                      "trace: layer self times do not add up to the traced wall time")
        passes.append(values)
    units = per_layer_units(name for name, _, _ in tracer.TARGETS)
    metrics = {
        # Counts repeat exactly from pass to pass; keep them whole numbers.
        name: (statistics.median_low if unit == "count" else statistics.median)(
            [p.get(name, 0) for p in passes])
        for name, unit in units.items() if name != "bench.trace_overhead_s"
    }
    # Each traced pass directly follows an untraced one, so the paired
    # difference cancels most of the host's slow drift in speed.
    metrics["bench.trace_overhead_s"] = statistics.median(
        p["bench.traced_wall_s"] - u for p, u in zip(passes, untraced))
    samples = {
        "passes": len(passes),
        "untraced_wall_s": untraced,
        "traced_wall_s": [p["bench.traced_wall_s"] for p in passes],
        "spans": len(spans.spans),
    }
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import equilab
    except ImportError as exc:
        print(f"bench: cannot import equilab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(equilab.__file__).resolve().parent != SRC / "equilab":
        print(f"bench: equilab imported from {equilab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup()
        if args.setup_only:
            return 0
        verify = Verifier(workload, args.workload, args.seed, args.write_pins)
        if args.trace:
            span_file = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, samples = measure_traced(workload, verify, args.seconds, span_file)
        else:
            metrics, samples = measure(workload, verify, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = verify.checks
    units = END_TO_END if not args.trace else per_layer_units(name for name, _, _ in tracer.TARGETS)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": samples,
        "messages": checks.messages,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
