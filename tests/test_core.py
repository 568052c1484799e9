"""Geometry, state, and log-probability bookkeeping invariants."""
from __future__ import annotations

import ast
import importlib
import itertools
import math
import pathlib
import pickle

import numpy as np
import pytest

import equilab
from equilab import sampler
from equilab.core import (
    FLOAT_MAX,
    GasMicrostate,
    LogProbability,
    ParameterError,
    RngStream,
    TimeGrid,
    TorusRegion,
    format_float,
    fractional_part,
    as_int,
    as_real,
    square,
    stream_generators,
    write_csv,
)
from equilab.sampler import TabulatedMomenta


# ---------------------------------------------------------------------------
# fractional_part


@pytest.mark.parametrize("seed", range(5))
def test_fractional_part_range_and_periodicity(seed: int):
    rng = np.random.default_rng(seed)
    y = rng.uniform(-50.0, 50.0, size=(200, 3))
    out = fractional_part(y)
    assert out.shape == y.shape
    assert np.all((out >= 0.0) & (out < 1.0))
    # Shifting by an exact integer must not move the image.
    shifted = fractional_part(y + 7.0)
    assert np.allclose(shifted, out, atol=1e-12)


def test_fractional_part_idempotent_on_unit_cube():
    rng = np.random.default_rng(11)
    x = rng.random((100, 2))
    assert np.array_equal(fractional_part(x), x)


def test_fractional_part_folds_rounding_to_one():
    # A tiny negative number rounds to 1.0 under y - floor(y); the result
    # must still satisfy the strict upper bound.
    out = fractional_part(-1e-20)
    assert float(out) == 0.0
    out = fractional_part(np.array([-1e-20, -1.0 - 1e-20]))
    assert np.all(out < 1.0)


def test_fractional_part_rejects_non_finite():
    with pytest.raises(ValueError):
        fractional_part(np.inf)
    with pytest.raises(ValueError):
        fractional_part([0.2, np.nan])


# ---------------------------------------------------------------------------
# TorusRegion


def test_region_half_open_membership():
    region = TorusRegion.interval(0.0, 0.5)
    assert region.contains(0.0)  # lower face included
    assert not region.contains(0.5)  # upper face excluded
    assert TorusRegion.interval(0.5, 1.0).contains(0.7)


def test_region_measure_is_product_of_sides():
    region = TorusRegion((0.1, 0.25), (0.6, 0.75))
    assert region.dim == 2
    assert region.measure() == pytest.approx(0.5 * 0.5, rel=1e-15)


def test_region_contains_batches():
    region = TorusRegion((0.0, 0.0), (0.5, 0.5))
    pts = np.array([[0.1, 0.1], [0.1, 0.6], [0.49, 0.0]])
    assert list(region.contains(pts)) == [True, False, True]


@pytest.mark.parametrize("lo,hi", [(-0.1, 0.5), (0.6, 0.4), (0.0, 1.5)])
def test_region_rejects_bad_bounds(lo: float, hi: float):
    with pytest.raises(ValueError):
        TorusRegion.interval(lo, hi)


# ---------------------------------------------------------------------------
# Regular grids of regions


def _grid_cells(count: int, dim: int) -> list[TorusRegion]:
    # count**dim cells in row-major order, sharing their faces.
    edges = np.linspace(0.0, 1.0, count + 1)
    sides = list(zip(edges[:-1], edges[1:]))
    return [
        TorusRegion(tuple(a for a, _ in combo), tuple(b for _, b in combo))
        for combo in itertools.product(sides, repeat=dim)
    ]


@pytest.mark.parametrize("count,dim", [(1, 1), (4, 1), (10, 1), (3, 2)])
def test_regular_partition_tiles_the_torus(count: int, dim: int):
    cells = _grid_cells(count, dim)
    assert len(cells) == count**dim
    assert sum(cell.measure() for cell in cells) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_partition_locates_every_point_exactly_once(seed: int):
    rng = np.random.default_rng(seed)
    cells = _grid_cells(5, 2)
    point = rng.random(2)
    row, col = (np.floor(point * 5)).astype(int)
    hits = [i for i, r in enumerate(cells) if r.contains(point)]
    assert hits == [5 * row + col]


# ---------------------------------------------------------------------------
# GasMicrostate


def test_microstate_copies_and_freezes_arrays():
    x = np.array([0.1, 0.2])
    p = np.array([1.0, -1.0])
    state = GasMicrostate(x, p)
    x[0] = 0.9  # mutating the input must not leak in
    assert state.positions[0, 0] == 0.1
    assert state.n == 2 and state.dim == 1
    with pytest.raises(ValueError):
        state.positions[0, 0] = 0.3


@pytest.mark.parametrize(
    "x,p",
    [
        ([0.1, 1.0], [0.0, 0.0]),  # position at 1.0 violates [0, 1)
        ([[0.1], [0.2]], [[0.0]]),  # shape mismatch
        ([0.1, np.nan], [0.0, 0.0]),
    ],
)
def test_microstate_rejects_invalid_input(x, p):
    with pytest.raises(ValueError):
        GasMicrostate(np.asarray(x, dtype=float), np.asarray(p, dtype=float))


# ---------------------------------------------------------------------------
# TimeGrid


def test_time_grid_excludes_t0_and_spaces_evenly():
    grid = TimeGrid(t0=2.0, dt=0.5, k_count=4)
    assert np.allclose(grid.times, [2.5, 3.0, 3.5, 4.0])
    # At the edges of the overflow and spacing refusals.
    assert TimeGrid(0.0, 1e308, 1).times.tolist() == [1e308]
    assert TimeGrid(1e20, 16384.0, 2).times.tolist() == [1e20 + 16384.0, 1e20 + 32768.0]


@pytest.mark.parametrize("t0,dt,k", [(-1.0, 1.0, 1), (0.0, 0.0, 1), (0.0, 1.0, 0)])
def test_time_grid_validation(t0: float, dt: float, k: int):
    with pytest.raises(ValueError):
        TimeGrid(t0, dt, k)


@pytest.mark.parametrize(
    "t0, dt, message",
    [(-1.0, 1.0, "t0 must be finite and >= 0, got -1.0"),
     (0.0, math.inf, "dt must be finite and > 0, got inf")],
)
def test_time_grid_messages(t0, dt, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TimeGrid(t0, dt, 1)


@pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
def test_time_grid_k_count_must_be_an_integer(k):
    # k_count = 2.5 once gave 3 instants.
    with pytest.raises(TypeError, match="^k_count must be an integer, got "):
        TimeGrid(0.0, 1.0, k)


def test_time_grid_k_count_range_and_numpy_integers():
    with pytest.raises(ValueError, match="^k_count must lie in \\[1, 9007199254740992\\], got 0$"):
        TimeGrid(0.0, 1.0, 0)
    grid = TimeGrid(0.0, 1.0, np.int64(3))
    assert type(grid.k_count) is int and grid.times.tolist() == [1.0, 2.0, 3.0]


def test_time_grid_k_count_stops_where_float_k_stops_being_exact():
    # Past 2^53 neighbouring k round to one float; 1e300 once reached np.arange.
    assert float(2**53 + 1) == float(2**53)
    assert TimeGrid(0.0, 1.0, 2**53).k_count == 2**53
    # A refused value of more than 17 digits is shown in .6e form.
    for k, shown in ((2**53 + 1, "9007199254740993"), (int(1e300), "1.000000e+300")):
        with pytest.raises(ParameterError) as info:
            TimeGrid(0.0, 1.0, k)
        assert info.value.name == "k_count"
        assert info.value.rule == f"must lie in [1, {2**53}], got {shown}"


# ---------------------------------------------------------------------------
# LogProbability


def test_log_probability_round_trip_and_underflow():
    p = LogProbability.from_log(math.log(0.25))
    assert p.linear == pytest.approx(0.25, rel=1e-15)
    tiny = LogProbability.from_log(-1500.0)
    assert tiny.underflows
    assert tiny.linear == 0.0
    log_s, lin_s = tiny.csv_fields()
    assert lin_s == "underflow"
    assert float(log_s) == -1500.0


def test_log_probability_clamps_and_flags_vacuous():
    p = LogProbability.from_log(3.0)
    assert p.log_value == 0.0
    assert p.vacuous
    assert p.raw_log == pytest.approx(3.0)
    q = LogProbability.from_log(-0.5)
    assert not q.vacuous
    assert q.raw_log == q.log_value


def test_square_is_inf_past_float_range():
    # 1e200 ** 2 raises OverflowError; the square the bounds need is inf.
    assert square(1e200) == square(10**200) == square(math.inf) == math.inf
    assert square(0.15) == 0.15**2 and square(1e-200) == 0.0


@pytest.mark.parametrize("exponent", [-1e6, -1500.0, -10.0, -1e-6])
def test_log_probability_large_exponents_stay_finite(exponent: float):
    p = LogProbability.from_log(exponent)
    assert math.isfinite(p.log_value)
    assert p.log_value == exponent and not p.vacuous


def test_log_probability_rejects_positive_log():
    with pytest.raises(ValueError):
        LogProbability(0.1)


# ---------------------------------------------------------------------------
# RngStream


def test_rng_stream_reproducible():
    a = RngStream(1234, 5).generator().random(10**6)
    b = RngStream(1234, 5).generator().random(10**6)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["master_seed", "stream_id"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
def test_rng_stream_key_must_be_integers(name, value):
    # RngStream(1.5) once drew what RngStream(1) draws.
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        RngStream(**{"master_seed": 1, "stream_id": 0, name: value})


def test_rng_stream_stores_its_key_as_ints_mod_2_64():
    stream = RngStream(np.int64(-3), np.uint64(2**64 - 1))
    assert (stream.master_seed, stream.stream_id) == (2**64 - 3, 2**64 - 1)
    assert type(stream.master_seed) is int and type(stream.stream_id) is int
    want = RngStream(2**64 - 3, -1).generator().random(4)
    assert np.array_equal(stream.generator().random(4), want)


def test_rng_stream_distinct_ids_decorrelate():
    a = RngStream(1234, 0).generator().random(1000)
    b = RngStream(1234, 1).generator().random(1000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.15


def _stream_draws(gen):
    # Ends on an odd number of uint32 draws, which leaves half a 64-bit word
    # cached (has_uint32 set) for whatever uses the bit generator next.
    law = TabulatedMomenta((-2.0, -1.0, 0.0, 0.5, 2.0), (0.0, 1.0, 3.0, 1.0, 0.2))
    return [
        gen.random(7),
        gen.standard_normal((3, 2)),
        gen.choice(5, size=9, p=[0.1, 0.2, 0.3, 0.15, 0.25]),
        law.sample(6, 2, gen),
        gen.integers(0, 2**32, size=3, dtype=np.uint32),
    ]


@pytest.mark.parametrize(
    "master_seed, first_id", [(7, 0), (-3, 11), (2**64 + 5, 2**64 - 2)]
)
def test_stream_generators_draw_what_rng_stream_draws(master_seed, first_id):
    # The last case wraps its ids past 2^64 to 0 and 1, and the negative seed
    # is taken mod 2^64, as RngStream does.
    count = 4
    got = [_stream_draws(gen) for gen in stream_generators(master_seed, first_id, count)]
    assert len(got) == count
    for i, draws in enumerate(got):
        want = _stream_draws(RngStream(master_seed, first_id + i).generator())
        for a, b in zip(draws, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert not np.array_equal(got[0][0], got[1][0])


# ---------------------------------------------------------------------------
# format_float


@pytest.mark.parametrize("seed", range(3))
def test_format_float_round_trips(seed: int):
    rng = np.random.default_rng(seed)
    for x in rng.uniform(-1e6, 1e6, size=50):
        assert float(format_float(x)) == x
    assert format_float(0.5) == "0.5"


# ---------------------------------------------------------------------------
# write_csv


def test_write_csv_renders_cells(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [
        (3, np.int64(-7), 0.5),
        (1.0, np.float64(0.1), 1e-300),
        ("underflow", 0, -2.5),
    ]
    write_csv(path, ("a", "b", "c"), rows)
    assert path.read_bytes() == (
        b"a,b,c\n3,-7,0.5\n1,0.10000000000000001,1e-300\n"
        b"underflow,0,-2.5\n"
    )


def test_write_csv_fast_path_matches_general_rendering(tmp_path):
    # Plain float/int cells skip the isinstance chain; subclasses and numpy
    # scalars must still render as the general rule says.
    path = tmp_path / "types.csv"
    write_csv(path, ("v",), [(v,) for v in (
        0.1, np.float64(0.1), 7, np.int64(7), True, np.float32(0.5), -0.0, 1e22,
    )])
    assert path.read_bytes() == (
        b"v\n0.10000000000000001\n0.10000000000000001\n7\n7\n1\n0.5\n-0\n1e+22\n"
    )


def test_write_csv_failure_leaves_no_partial_file(tmp_path):
    def rows():
        yield (1, 2.0)
        raise RuntimeError("interrupted")

    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_csv(path, ("a", "b"), rows())
    assert not path.exists()
    assert not list(tmp_path.glob("*.tmp"))

    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        write_csv(path, ("a", "b"), rows())
    assert path.read_bytes() == b"old\n"
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# ParameterError: a refused value names its parameter


@pytest.mark.parametrize(
    "call, name, rule",
    [
        (lambda: as_int(0, "n", 1), "n", "must lie in [1, inf], got 0"),
        (lambda: as_int(33, "t", hi=32), "t", "must lie in [0, 32], got 33"),
        (lambda: as_real(1.5, "epsilon", 0, 1, open_lo=True, open_hi=True),
         "epsilon", "must lie in (0, 1), got 1.5"),
        (lambda: as_real(math.inf, "dt", 0, open_lo=True, finite=True),
         "dt", "must be finite and > 0, got inf"),
        (lambda: TimeGrid(0.0, -1.0, 3), "dt", "must be finite and > 0, got -1.0"),
        # Past 17 digits a refused int is shown in .6e form.
        (lambda: as_int(10**17 - 1, "k", hi=10), "k", "must lie in [0, 10], got 99999999999999999"),
        (lambda: as_int(10**17, "k", hi=10), "k", "must lie in [0, 10], got 1.000000e+17"),
        (lambda: as_int(-(10**17), "k"), "k", "must lie in [0, inf], got -1.000000e+17"),
        (lambda: as_int(10**400, "k", hi=10), "k", "must lie in [0, 10], got 1.000000e+400"),
        # An int that float() cannot hold is refused by the float range.
        (lambda: as_real(10**400, "n", 1), "n",
         "must lie in [1, 1.7976931348623157e+308], got 1.000000e+400"),
        (lambda: as_real(-(10**400), "t_lo"), "t_lo", "must lie in "
         "[-1.7976931348623157e+308, 1.7976931348623157e+308], got -1.000000e+400"),
        (lambda: as_real(10**400, "epsilon", 0, 1, open_lo=True, open_hi=True),
         "epsilon", "must lie in (0, 1), got 1.000000e+400"),
        # 3 * 1e308 overflows; at t0 = 1e20 the float spacing is 16384, so dt = 1
        # adds nothing to t0 and the instants collapse.
        (lambda: TimeGrid(0.0, 1e308, 3), "dt", "must keep t0 + k_count * dt finite, got 1e+308"),
        (lambda: TimeGrid(1e20, 1.0, 3).times, "dt",
         "must make t0 + k * dt strictly increasing at t0 = 1e+20, got 1.0"),
    ],
)
def test_range_failures_raise_parameter_error(call, name, rule):
    with pytest.raises(ParameterError) as info:
        call()
    assert (info.value.name, info.value.rule) == (name, rule)
    assert str(info.value) == f"{name} {rule}"
    assert isinstance(info.value, ValueError)


def test_as_real_takes_every_int_a_float_holds():
    as_real(int(FLOAT_MAX), "n", 1)
    as_real(-int(FLOAT_MAX), "t_lo")
    with pytest.raises(ParameterError, match=r"^n must lie in \[1, 1.79"):
        as_real(int(FLOAT_MAX) + 1, "n", 1)


def test_parameter_error_pickles():
    # Ensemble workers hand their exceptions back by pickling them.
    exc = pickle.loads(pickle.dumps(ParameterError("mu", "must lie in (0, 1], got 0.0")))
    assert (exc.name, exc.rule, str(exc)) == ("mu", "must lie in (0, 1], got 0.0",
                                             "mu must lie in (0, 1], got 0.0")


@pytest.mark.parametrize("call", [lambda: as_int(2.0, "n"), lambda: as_real("1", "mu")])
def test_type_failures_stay_type_errors(call):
    with pytest.raises(TypeError):
        call()


# ---------------------------------------------------------------------------
# Exports


_MODULES = ("core", "sampler", "gas", "analytic", "kac", "ensemble", "cli")


@pytest.mark.parametrize("module", ["equilab"] + [f"equilab.{m}" for m in _MODULES])
def test_every_export_resolves(module: str):
    # A name deleted from a module but left in its __all__ breaks star imports.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exec(f"from {module} import *", {})


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads, lists in ``__all__`` or re-exports."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_detector():
    source = (
        "from __future__ import annotations\nimport os\nimport numpy as np\n"
        "from math import pi, tau\n__all__ = ['tau']\nnp.zeros(pi)\n"
    )
    assert _unused_imports(source) == ["os (line 2)"]


def _private_imports(source: str) -> list:
    """Private names (one leading underscore) a module imports from a sibling."""
    return sorted(
        f"{'.' * node.level}{node.module or ''} {alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_private_imports_detector():
    source = (
        "from .core import as_int, _TWO64\nfrom . import __version__, _x\n"
        "from numpy import _pytesttester\n"
    )
    assert _private_imports(source) == [". _x (line 2)", ".core _TWO64 (line 1)"]


def test_no_private_names_cross_package_modules():
    # A name one module needs from another is that module's interface: it
    # goes without the underscore (out of __all__ if internal, like as_int).
    package = pathlib.Path(equilab.__file__).parent
    private = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _private_imports(path.read_text(encoding="utf-8")))
    }
    assert private == {}


def _imported_laws(source: str) -> list:
    """Law classes (sampler classes that sample) a module imports from the sampler."""
    laws = {name for name, obj in vars(sampler).items()
            if isinstance(obj, type) and hasattr(obj, "sample")}
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("sampler")
        for alias in node.names
        if alias.name in laws or alias.name == "*"
    )


def test_imported_laws_detector():
    source = (
        "from .sampler import InitialMeasureSpec, check_dim, TabulatedMomenta\n"
        "from equilab.sampler import *\nfrom .core import TorusRegion\n"
    )
    assert _imported_laws(source) == ["* (line 2)", "TabulatedMomenta (line 1)"]


def test_analytic_imports_no_law_class():
    # Each law owns its transform (characteristic or intervals), so the
    # series code has no law type to switch on.
    source = (pathlib.Path(equilab.__file__).parent / "analytic.py").read_text(encoding="utf-8")
    assert _imported_laws(source) == []


def test_no_unused_imports_in_package():
    package = pathlib.Path(equilab.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
