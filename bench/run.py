"""equilab benchmark launcher.

    python3 bench/run.py --workload gas_scaling --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and measures the package in
``src/``.  It pins the BLAS/OpenMP thread counts to 1 for every process it
starts, so ``workers=2`` means two busy cores and nothing more, and fixes
the string-hash seed so that runs differ only in ``--seed``.  With
``--trace 0`` it times set-up (a fresh interpreter that imports the package,
builds the inputs and makes one warm-up call) nine times around one measured
session, each between two laps of the reference loop in ``reference.py``,
and reports the median at the reference host speed as ``setup_s``; with
``--trace 1`` it runs one traced session.  The last line of standard output
is the result JSON; the line before it holds the per-pass samples and the
run environment.  Without ``src/equilab`` it exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parents[1]
SESSION = Path(__file__).resolve().with_name("session.py")
# Set-up is timed before and after the measured session, so that the median
# spans the whole run rather than one stretch of host load.
SETUP_SAMPLES = (5, 4)
DEADLINE_S = 170.0
THREAD_PINS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


class SessionError(Exception):
    pass


def _fix_address_layout():
    """Turn off address-space randomisation for the processes started later.

    With it on, where the interpreter, numpy and the arrays land changes from
    process to process and moves the same pass's time by several per cent.
    The flag is inherited through fork and exec; where the call is refused,
    sessions run with the usual randomised layout.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    personality.restype = ctypes.c_int
    current = personality(ctypes.c_ulong(0xFFFFFFFF))
    if current != -1:
        personality(ctypes.c_ulong(current | ADDR_NO_RANDOMIZE))


def _run_session(args, extra, env, deadline):
    """Run one session in its own process group; return (seconds, stdout)."""
    cmd = [sys.executable, str(SESSION), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SessionError(f"session {' '.join(extra) or 'run'} exceeded the time limit")
    finally:
        # Reap anything the session left behind in its group, e.g. pool workers.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SessionError(f"session exited with status {proc.returncode}")
    return elapsed, out


def main(argv=None):
    parser = argparse.ArgumentParser(description="equilab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "equilab" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'equilab'}", file=sys.stderr)
        return 2
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    _fix_address_layout()

    setup, setup_at_ref = [], []

    def time_setup(count):
        if args.trace:
            return
        reference.lap()  # warm-up: the first lap of a process runs cold
        before = reference.lap()
        for _ in range(count):
            started = time.perf_counter()
            seconds, _ = _run_session(args, ["--setup-only"], env, deadline)
            after = reference.lap()
            setup.append(seconds)
            setup_at_ref.append(reference.at_reference_speed(
                seconds, started + seconds / 2.0, before, after))
            before = after

    try:
        time_setup(SETUP_SAMPLES[0])
        _, out = _run_session(args, [], env, deadline)
        time_setup(SETUP_SAMPLES[1])
    except SessionError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    session = json.loads(out.strip().splitlines()[-1])
    metrics = session["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_at_ref), "unit": "s"}, **metrics}
    samples = {**session["samples"], "setup_s": setup, "setup_at_reference_s": setup_at_ref}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "samples": samples,
                      "messages": session["messages"], "environment": session["environment"]}))
    print(json.dumps({"correct": session["correct"], "attempted": session["attempted"],
                      "failed": session["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
