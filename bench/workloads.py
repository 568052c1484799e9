"""The four benchmark workloads.

Each workload is a closed-loop batch: one lab user starts an experiment and
waits for it.  A workload builds its inputs from the master seed in its
constructor (set-up), makes one small warm-up call, and then repeats
``run_pass``, the unit of work.  ``run_pass`` times each of its steps (one
call at one worker count, the rings or the brute-force sweep, one command)
and returns their start times and durations by step name; the steps whose
names start with ``OPS_STEP`` make up the time behind ``ops_per_s``.  The
timed regions contain only calls into the package; ``check`` runs outside
them, verifies the outputs, and returns the tables whose fingerprints are
pinned for the default seed.

The package is always called through its module attributes
(``ensemble.run_gas_scaling``, not a name imported here), so the tracer's
wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import time

import numpy as np

from equilab import cli, core, ensemble, kac, sampler

from checks import table

GAS_N_VALUES = (500, 1000, 2000, 3000)
GAS_K = 25
GAS_HISTORIES = 512
RING_SITES = 4096
RING_MU = 0.3
RING_T_MAX = 32
RING_EPSILON = 0.15
RING_HISTORIES = 2048
ORACLE_RINGS = ((1024, 3), (64, 24))
ORACLE_MUS = (0.1, 0.25, 0.5)
ORACLE_LARGE = ((18, 0.25, 6), (18, 0.1, 18), (20, 0.25, 20))


class GasScaling:
    """``run_gas_scaling`` at the acceptance shape, at workers 1 and 2.

    Sampling and Philox set-up are about half of a chunk at N=500 while
    streaming and counting dominate at N=3000, and early exit removes most
    N=500 histories by K=25 but none at N=3000.  K runs over every value
    1..25 so the tracer can recover the exact particle-step count.
    """

    OPS_STEP = "w1"

    def __init__(self, seed, workdir):
        region = core.TorusRegion.interval(0.0, 0.5)
        initial = sampler.InitialMeasureSpec(
            sampler.UniformPositions(region), sampler.thermal_momenta(1.0, 1)
        )
        self.spec = ensemble.ScalingExperimentSpec(
            n_values=GAS_N_VALUES,
            k_values=tuple(range(1, GAS_K + 1)),
            histories=GAS_HISTORIES,
            epsilon=0.04,
            grid=core.TimeGrid(0.0, 10.0, GAS_K),
            region=region,
            initial=initial,
            master_seed=seed,
        )
        self.ops = len(GAS_N_VALUES) * GAS_HISTORIES

    def warmup(self):
        ensemble.run_gas_scaling(dataclasses.replace(self.spec, histories=8), 1)

    def run_pass(self, workers):
        results, clock = {}, _Clock()
        for w in workers:
            with clock(f"w{w}"):
                results[w] = ensemble.run_gas_scaling(self.spec, w)
        return results, clock.laps

    @staticmethod
    def _csv(res):
        rows = []
        for i, n in enumerate(res.n_values):
            for j, k in enumerate(res.k_values):
                rows.append((n, k, int(res.deviations[i, j]), res.histories,
                             res.p_hat[i, j], res.p_hat_over_k[i, j], res.stderr[i, j]))
        return table("N,K,deviations,M,p_hat,p_hat_over_K,stderr", rows)

    def check(self, results, ok):
        csvs = {w: self._csv(r) for w, r in results.items()}
        if 2 in csvs:
            ok(csvs[1] == csvs[2], "gas_scaling: workers=1 and workers=2 CSVs differ")
        dev = results[1].deviations
        ok(np.all(np.diff(dev, axis=1) >= 0) and dev.min() >= 0
           and dev.max() <= GAS_HISTORIES, "gas_scaling: deviation table not monotone in K")
        ok(dev[0, -1] >= dev[-1, -1], "gas_scaling: N=3000 deviates more often than N=500")
        return {"scaling": csvs[1]}, {}


class RingEnsemble:
    """``run_kac_ensemble`` at N=4096, mu=0.3, t_max=32, at workers 1 and 2.

    Ring stepping and marker sampling only, no gas code; the window comes
    from ``ring_bound_schedule(0.15, 0.5, 0.3)``.
    """

    OPS_STEP = "w1"

    def __init__(self, seed, workdir):
        sched = kac.ring_bound_schedule(RING_EPSILON, 0.5, RING_MU)
        self.window = (sched.t_start, sched.window_end(RING_SITES))
        self.seed = seed
        self.ops = RING_HISTORIES

    def _run(self, histories, workers):
        return ensemble.run_kac_ensemble(
            RING_SITES, RING_MU, histories, RING_T_MAX, RING_EPSILON,
            self.seed, workers, self.window,
        )

    def warmup(self):
        self._run(16, 1)

    def run_pass(self, workers):
        results, clock = {}, _Clock()
        for w in workers:
            with clock(f"w{w}"):
                results[w] = self._run(RING_HISTORIES, w)
        return results, clock.laps

    def check(self, results, ok):
        m, n = RING_HISTORIES, RING_SITES
        res = results[1]
        scaled = np.asarray(res.mean) * (m * n)
        sum_delta = np.rint(scaled).astype(np.int64)
        exceed = np.rint(np.asarray(res.p_dev) * m).astype(np.int64)
        ok(np.all(np.abs(scaled - sum_delta) < 1e-6), "ring_ensemble: mean * M * N is not an integer")
        ok(sum_delta[0] == m * n, "ring_ensemble: not all white at t=0")
        want = (1.0 - 2.0 * RING_MU) ** np.arange(1, RING_T_MAX + 1)
        stderr = np.sqrt(np.asarray(res.variance[1:]) / m)
        ok(np.all(np.abs(res.mean[1:] - want) <= 6.0 * stderr + 1e-12),
           "ring_ensemble: mean off (1-2mu)^t by more than 6 standard errors")
        lo, hi = self.window
        inside = (res.times >= lo) & (res.times <= hi)
        ok(exceed[inside].max() <= res.window_exceed_count <= m,
           "ring_ensemble: window exceedance count below a per-time count")
        csvs = {}
        for w, r in results.items():
            csvs[w] = table(
                "t,sum_delta,variance,exceed,window_exceed",
                [(int(t), int(np.rint(r.mean[i] * m * n)), r.variance[i],
                  int(np.rint(r.p_dev[i] * m)), r.window_exceed_count)
                 for i, t in enumerate(r.times)],
            )
        if 2 in csvs:
            ok(csvs[1] == csvs[2], "ring_ensemble: workers=1 and workers=2 CSVs differ")
        return {"ensemble": csvs[1]}, {}


class RingOracle:
    """Closed form against iteration on random rings, and brute force.

    Random rings (mu=0.5) at N=64 and N=1024 run ``ring_trace`` to 2N and
    ``delta_closed_form`` at every t <= 2N; the N=1024 rings keep the
    closed form's cost visible.  The brute-force sweep covers N <= 12,
    mu in {0.1, 0.25, 0.5}, all t <= N, plus N=18 and N=20 at a few t.
    Only the random rings count as operations.
    """

    OPS_STEP = "rings"

    def __init__(self, seed, workdir):
        self.rings = [
            kac.sample_markers(n, 0.5, core.RngStream(seed, 1000 * n + i))
            for n, count in ORACLE_RINGS
            for i in range(count)
        ]
        self.brute = [
            (n, mu, t) for n in range(1, 13) for mu in ORACLE_MUS for t in range(n + 1)
        ] + list(ORACLE_LARGE)
        self.ops = len(self.rings)

    def warmup(self):
        markers = self.rings[-1]
        kac.ring_trace(kac.KacConfiguration.all_white(markers), 2 * markers.size)
        kac.delta_closed_form(markers, markers.size)
        kac.brute_force_expectation(8, 0.25, 4)

    def run_pass(self, workers):
        clock = _Clock()
        traces = []
        with clock("rings"):
            for markers in self.rings:
                n = markers.size
                iterated = kac.ring_trace(kac.KacConfiguration.all_white(markers), 2 * n)
                closed = [kac.delta_closed_form(markers, t) for t in range(2 * n + 1)]
                traces.append((iterated, closed))
        with clock("brute"):
            moments = [kac.brute_force_expectation(n, mu, t) for n, mu, t in self.brute]
        return (traces, moments), clock.laps

    def check(self, out, ok):
        traces, moments = out
        rows = []
        for r, (markers, (iterated, closed)) in enumerate(zip(self.rings, traces)):
            n = markers.size
            sign = -1 if np.count_nonzero(markers == -1) % 2 else 1
            ok(np.array_equal(iterated, np.asarray(closed)), f"ring_oracle: ring {r} closed form != iteration")
            ok(iterated[2 * n] == n, f"ring_oracle: ring {r} does not recur at 2N")
            ok(iterated[n] == sign * n, f"ring_oracle: ring {r} breaks Delta(N) = (-1)^m N")
            rows.extend((r, t, int(d)) for t, d in enumerate(iterated))
        for (n, mu, t), mom in zip(self.brute, moments):
            ok(abs(mom.mean - (1.0 - 2.0 * mu) ** t) <= 1e-12,
               f"ring_oracle: brute force N={n} mu={mu} t={t} off (1-2mu)^t")
        brute = table("N,mu,t,mean,variance",
                      [(n, mu, t, m.mean, m.variance) for (n, mu, t), m in zip(self.brute, moments)])
        return {"rings": table("ring,t,delta", rows), "brute": brute}, {}


_TIMES = ",".join(f"{0.1 * i:.1f}" for i in range(101))

# (output directory, command, INI body); seed and out are appended per run.
CLI_COMMANDS = (
    ("gas-mean-fit", "gas-mean", f"region = 0,0.5\nt_values = {_TIMES}\nfit = true\n"),
    ("gas-mean-tabulated", "gas-mean",
     f"region = 0,0.5\nt_values = {_TIMES}\nmomentum = tabulated\n"
     "momentum_grid = -3,-1,0,1,3\nmomentum_density = 0,0.5,1,0.5,0\n"),
    ("gas-mean-box2d", "gas-mean", f"region = 0,0.5;0.25,0.75\nt_values = {_TIMES}\n"),
    ("gas-trace", "gas-trace", "n = 1e4\nregion = 0,0.5\ndt = 0.05\nk_count = 400\n"),
    ("gas-reverse", "gas-reverse", "n = 1e4\nregion = 0,0.5\nreverse_time = 10.0\ndt = 0.1\n"),
    ("gas-scaling", "gas-scaling",
     "n_values = 100,400\nk_values = 1,2,3,4,5,6,7,8,9,10\nhistories = 256\n"
     "epsilon = 0.04\ndt = 1.0\nregion = 0,0.5\n"),
    ("kac-ensemble", "kac-ensemble",
     "n = 1024\nmu = 0.3\nhistories = 512\nt_max = 32\nepsilon = 0.15\nalpha = 0.5\n"),
    ("kac-brute", "kac-brute", "n = 16\nmu = 0.25\nt = 8\n"),
    ("kac-trace", "kac-trace", "n = 4096\nmu = 0.3\nt_max = 8192\n"),
    ("bounds", "bounds",
     "epsilon = 0.04\nn = 1000000\nk_count = 1e6\nl_count = 100\nc_mu = 0.5\nr = 1.0\n"),
    ("macro", "macro",
     "n0 = 3e19\ncell_volume = 1.0\nsub_volume = 1e-3\ndelta_pi = 5e-6\nk_count = 1e9\n"),
)

# Summary flags that must be true, per output directory.
CLI_FLAGS = {
    "gas-reverse": "fraction_restored",
    "kac-trace": "closed_form_final_matches",
    "kac-ensemble": "within_sequence_bound",
}


class CliSession:
    """Passes over all nine subcommands through ``equilab.cli.main``.

    The only workload where ``analytic``, single-state ``gas``, config
    parsing and CSV/JSON writing are a large share of the time.  Commands
    read INI files written at set-up, which also keeps argparse away from
    list values that start with '-'.
    """

    OPS_STEP = ""

    def __init__(self, seed, workdir):
        self.runs = []
        for name, command, body in CLI_COMMANDS:
            out = os.path.join(workdir, name)
            ini = os.path.join(workdir, name + ".ini")
            with open(ini, "w", encoding="utf-8") as fh:
                fh.write(f"[{command}]\n{body}seed = {seed}\nout = {out}\n")
            self.runs.append((name, command, ini, out))
        self.ops = len(self.runs)

    def _main(self, command, ini):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([command, "--config", ini])

    def warmup(self):
        name, command, ini, _ = self.runs[-1]
        self._main(command, ini)

    def run_pass(self, workers):
        clock, codes = _Clock(), []
        for name, command, ini, _ in self.runs:
            with clock(name):
                codes.append(self._main(command, ini))
        return codes, clock.laps

    def check(self, codes, ok):
        tables, csv_rows = {}, 0
        for (name, command, _, out), code in zip(self.runs, codes):
            if not ok(code == 0, f"cli_session: {name} exited with {code}"):
                continue
            summary_path = os.path.join(out, command.replace("-", "_") + "_summary.json")
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
            results = summary["results"]
            if name in CLI_FLAGS:
                ok(results.get(CLI_FLAGS[name]) is True, f"cli_session: {name} {CLI_FLAGS[name]} is not true")
            if name == "kac-brute":
                ok(results["product_formula_gap"] <= 1e-12, "cli_session: kac-brute product_formula_gap > 1e-12")
            for csv_name in summary["outputs"]:
                with open(os.path.join(out, csv_name), encoding="utf-8") as fh:
                    text = fh.read()
                csv_rows += text.count("\n") - 1
                tables[f"{name}/{csv_name}"] = text
        return tables, {"cli.csv_rows": csv_rows}


class _Clock:
    """Records ``(start, seconds)`` of each ``with clock(step)`` block in ``laps``."""

    def __init__(self):
        self.laps = {}

    @contextlib.contextmanager
    def __call__(self, step):
        start = time.perf_counter()
        yield
        self.laps[step] = (start, time.perf_counter() - start)


WORKLOADS = {
    "gas_scaling": GasScaling,
    "ring_ensemble": RingEnsemble,
    "ring_oracle": RingOracle,
    "cli_session": CliSession,
}
