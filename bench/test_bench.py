"""Self-tests of the benchmark: tracer arithmetic and the printed metric names.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import reference
import session
import tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_explicit_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_of_a_wrapped_nested_call(monkeypatch):
    module = types.ModuleType("bench_synthetic")

    def inner():
        return None

    def outer():
        module.inner()
        module.inner()
        return None

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "bench_synthetic", module)
    ticks = iter(float(t) for t in range(100))
    monkeypatch.setattr(tracer, "_clock", lambda: next(ticks))
    t = tracer.Tracer(targets=(
        ("synthetic.outer", ("bench_synthetic:outer",), None),
        ("synthetic.inner", ("bench_synthetic:inner", "bench_synthetic:missing"), None),
    ))
    t.install()
    try:
        with t.span("bench"):
            module.outer()
    finally:
        t.uninstall()
    assert module.outer is outer and module.inner is inner
    # Clock reads: bench 0, outer 1, inner 2-3, inner 4-5, outer 6, bench 7.
    assert [s[1:] for s in t.spans] == [[0.0, 7.0, -1], [1.0, 6.0, 0], [2.0, 3.0, 1], [4.0, 5.0, 1]]
    own = tracer.self_times(t.spans)
    agg = tracer.aggregate(t.spans, t.counts, own)
    assert agg["bench"]["self_s"] == 2.0
    assert agg["synthetic.outer"]["self_s"] == 3.0
    assert agg["synthetic.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "work": 0}
    assert sum(own) == t.spans[0][2] - t.spans[0][1]


def test_reference_time_is_interpolated_to_the_middle_of_the_region():
    before, after = (0.0, 1.0), (10.0, 2.0)
    # The loop takes 1.5 s at t=5 and 1.25 s at t=2.5.
    assert reference.at_reference_speed(3.0, 5.0, before, after) == pytest.approx(
        2.0 * reference.REFERENCE_S)
    assert reference.at_reference_speed(2.5, 2.5, before, after) == pytest.approx(
        2.0 * reference.REFERENCE_S)


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_names_match_benchmark_json():
    assert session.END_TO_END == _names("end_to_end")
    assert session.per_layer_units(n for n, _, _ in tracer.TARGETS) == _names("per_layer")


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_session", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_match_benchmark_json(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _names(section)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
