"""Ring dynamics oracles: iteration vs closed form vs exact enumeration."""
from __future__ import annotations

import math

import numpy as np
import pytest

from equilab import kac
from equilab.core import FLOAT_MAX, ParameterError, RngStream
from equilab.kac import (
    KacConfiguration,
    _as_pm_one,
    _enumerated_deltas,
    brute_force_expectation,
    delta_closed_form,
    expected_delta_bar,
    expected_delta_sq,
    inverse_step,
    RingStepper,
    ring_bound_schedule,
    ring_trace,
    sample_markers,
    step,
)


def _random_markers(n: int, seed: int, mu: float = 0.4) -> np.ndarray:
    return sample_markers(n, mu, RngStream(seed, 0))


# ---------------------------------------------------------------------------
# Single-step dynamics


def test_step_hand_example():
    config = KacConfiguration.all_white(np.array([-1, 1, 1, 1], dtype=np.int8))
    after = step(config)
    assert list(after.colors) == [1, -1, 1, 1]
    assert int(after.colors.sum()) == 2
    assert after.time == 1


@pytest.mark.parametrize(
    "markers", [np.array([-1, 1, 1, -1], dtype=np.int8), np.array([-1, 1, 1, -1]), [-1, 1, 1, -1]],
    ids=["int8", "int64", "list"],
)
def test_all_white_checks_markers_once_and_owns_read_only_copies(monkeypatch, markers):
    calls = []

    def counting(values, name):
        calls.append(name)
        return _as_pm_one(values, name)

    monkeypatch.setattr(kac, "_as_pm_one", counting)
    config = KacConfiguration.all_white(markers)
    assert calls == ["markers"]
    assert config.markers.tolist() == [-1, 1, 1, -1] and config.colors.tolist() == [1] * 4
    assert config.time == 0 and type(config.time) is int
    for arr in (config.markers, config.colors):
        assert arr.dtype == np.int8 and not arr.flags.writeable
        assert not np.shares_memory(arr, np.asarray(markers))
    with pytest.raises(ValueError, match="read-only"):
        config.markers[0] = 1


def test_no_markers_stay_white():
    config = KacConfiguration.all_white(np.ones(16, dtype=np.int8))
    for _ in range(5):
        config = step(config)
        assert np.all(config.colors == 1)


def test_all_marked_alternates():
    config = KacConfiguration.all_white(-np.ones(9, dtype=np.int8))
    one = step(config)
    assert np.all(one.colors == -1)
    assert int(one.colors.sum()) == -9
    two = step(one)
    assert int(two.colors.sum()) == 9


@pytest.mark.parametrize("seed", range(10))
def test_inverse_step_undoes_step(seed: int):
    markers = _random_markers(32, seed)
    gen = RngStream(seed, 1).generator()
    colors = np.where(gen.random(32) < 0.5, np.int8(1), np.int8(-1))
    config = KacConfiguration(markers, colors)
    assert np.array_equal(inverse_step(step(config)).colors, config.colors)
    assert np.array_equal(step(inverse_step(config)).colors, config.colors)
    assert inverse_step(step(config)).time == 0


def test_inverse_step_equals_2n_minus_one_forward():
    markers = _random_markers(12, 3)
    config = KacConfiguration.all_white(markers)
    forward = config
    for _ in range(2 * 12 - 1):
        forward = step(forward)
    assert np.array_equal(forward.colors, inverse_step(config).colors)


# ---------------------------------------------------------------------------
# Closed form vs iteration


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("seed", range(20))
def test_closed_form_equals_iteration_everywhere(n: int, seed: int):
    markers = _random_markers(n, seed)
    deltas = ring_trace(KacConfiguration.all_white(markers), 2 * n)
    for t in range(2 * n + 1):
        assert delta_closed_form(markers, t) == deltas[t]


@pytest.mark.parametrize(
    "markers",
    [[1], [-1], [1, 1], [1, -1], [-1, 1], [-1, -1], [1] * 9, [-1] * 9, [-1] * 16],
)
def test_closed_form_equals_iteration_on_edge_rings(markers):
    # The inside-window slice is empty at t = N and the wrapped one at t = 0;
    # on unmarked and all-marked rings every window of a given length has
    # the same parity, and an odd all-marked ring flips every wrapped window.
    markers = np.array(markers, dtype=np.int8)
    n = markers.size
    deltas = ring_trace(KacConfiguration.all_white(markers), 2 * n)
    for t in range(2 * n + 1):
        assert delta_closed_form(markers, t) == deltas[t]


@pytest.mark.parametrize("n", [1, 2, 29, 30, 31, 32, 33, 61, 62, 63, 64, 65, 127, 128, 129])
def test_closed_form_across_digit_byte_and_word_boundaries(n: int):
    # P_0..P_2N are the bits of one Python int: N near 30 and 60 crosses
    # CPython's 30-bit digits, N near 32, 64 and 128 the bytes and uint64
    # words of the packed parities and of the stepping kernel.
    markers = _random_markers(n, 1000 + n, mu=0.5)
    state = KacConfiguration.all_white(markers)
    deltas = ring_trace(state, 2 * n)
    for t in range(2 * n + 1):
        assert delta_closed_form(markers, t) == deltas[t] == state.colors.sum(dtype=np.int64)
        state = step(state)


def test_closed_form_on_a_ring_past_two_to_the_sixteen():
    # At t = N every ball has left each site once, so every color is (-1)^m,
    # and at t = 2N the ring is white again; step and inverse_step reach the
    # times next to those from there.
    n = (1 << 16) + 1
    markers = _random_markers(n, 17, mu=0.5)
    white = KacConfiguration.all_white(markers)
    turned = KacConfiguration(markers, np.full(n, (-1) ** white.marker_count, np.int8), n)
    states = {
        0: white,
        1: step(white),
        n - 1: inverse_step(turned),
        n: turned,
        n + 1: step(turned),
        2 * n - 1: inverse_step(white),
        2 * n: white,
    }
    deltas = ring_trace(white, 2 * n)
    for t, state in states.items():
        assert delta_closed_form(markers, t) == deltas[t] == state.colors.sum(dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_ring_trace_from_random_colors_matches_step(n: int):
    # t_max = 3N takes the rotating frame's marker slice past one period.
    markers = _random_markers(n, n)
    gen = RngStream(n, 1).generator()
    colors = np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1))
    colors[0] = -1  # never all white
    config = KacConfiguration(markers, colors)
    deltas = ring_trace(config, 3 * n)
    assert deltas.size == 3 * n + 1
    state = config
    for t in range(3 * n + 1):
        assert deltas[t] == state.colors.sum(dtype=np.int64)
        state = step(state)


# _ACCUMULATE_WORDS values that send every block down one path of
# RingStepper: XOR-accumulated, then stepped one row at a time.
_BLOCK_PATHS = (1 << 30, 0)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 13, 63, 64, 65, 100, 257])
def test_ring_steps_batch_from_random_colors_matches_step(monkeypatch, n: int):
    # A tile of 32 rings with random start colors, then a shorter last tile
    # of 2 other rings through the same stepper: row t of the counts must
    # hold each ring's black sites after t applications of step.  t_max runs
    # 0, below N, 2N and 3N, past one period (t_max < 8 at N <= 2); N around
    # and between multiples of 8 and 64 covers the byte and word tails,
    # whose dirty bits the counts would pick up; and blocks of at most 7 or
    # 29 times make the rings cross many blocks, with s wrapping at N inside
    # them.  The full tile's rows are a multiple of 32 words, so the
    # accumulate pads them, and the short tile's are not.  The short tile
    # must get exactly what a fresh stepper gives it, whatever the full tile
    # left in the buffers.
    h = 32
    gen = RngStream(n, 2).generator()
    markers = np.stack([_random_markers(n, 100 * n + r) for r in range(h + 2)])
    colors = np.where(gen.random((h + 2, n)) < 0.5, np.int8(1), np.int8(-1))

    def black_by_step(start_colors):
        configs = [KacConfiguration(m, c) for m, c in zip(markers, start_colors)]
        counts = []
        for _ in range(3 * n + 1):
            counts.append([int(np.count_nonzero(c.colors < 0)) for c in configs])
            configs = [step(c) for c in configs]
        return counts

    def stepped(stepper, rings, black):
        stepper.marked[: len(rings)] = markers[rings] < 0
        counts = stepper.steps(len(rings), black)
        assert counts.shape == (stepper.t_max + 1, len(rings)) and counts.dtype == np.uint32
        return counts.tolist()

    full, short = list(range(h)), [h, h + 1]
    want = black_by_step(colors)
    want_alike = black_by_step([colors[0]] * (h + 2))  # a 1-d black starts every ring alike
    for accumulate in _BLOCK_PATHS:
        monkeypatch.setattr(kac, "_ACCUMULATE_WORDS", accumulate)
        for rows in (7, 29):
            monkeypatch.setattr(kac, "_RING_BLOCK", rows * h * 8)
            for t_max in (0, n // 2, 2 * n, 3 * n):
                cut = [row[:h] for row in want[: t_max + 1]], [row[h:] for row in want[: t_max + 1]]
                stepper = RingStepper(h, n, t_max)
                with pytest.raises(ValueError, match=r"^h must lie in \[1, 32\], got 33$"):
                    stepper.steps(h + 1)
                assert stepped(stepper, full, colors[:h] < 0) == cut[0], (accumulate, rows)
                got = stepped(stepper, short, colors[h:] < 0)
                assert got == cut[1] == stepped(RingStepper(h, n, t_max), short, colors[h:] < 0)
                alike = stepped(stepper, full, colors[0] < 0)
                assert alike == [row[:h] for row in want_alike[: t_max + 1]]


@pytest.mark.parametrize("block", [8, 24, 56, 296])
@pytest.mark.parametrize("n", [*range(1, 10), 63, 64, 65])
def test_ring_trace_blocks_split_mid_trace_and_across_the_wrap(monkeypatch, n: int, block: int):
    # Blocks of 1, 3, 7 or 37 one-word rows (fewer where a row is wider: two
    # words at N = 65, one more where the accumulate pads it) end mid-trace
    # and at every phase of the window start s, which wraps at N, and
    # t_max = 3N + 1 runs past the period 2N.  Each block path steps the
    # same ring.
    monkeypatch.setattr(kac, "_RING_BLOCK", block)
    markers = _random_markers(n, 7 * n)
    gen = RngStream(n, 3).generator()
    config = KacConfiguration(markers, np.where(gen.random(n) < 0.5, np.int8(1), np.int8(-1)))
    want = []
    state = config
    for _ in range(3 * n + 2):
        want.append(int(state.colors.sum(dtype=np.int64)))
        state = step(state)
    for accumulate in _BLOCK_PATHS:
        monkeypatch.setattr(kac, "_ACCUMULATE_WORDS", accumulate)
        for t_max in (0, 1, n, 2 * n, 3 * n + 1):
            assert ring_trace(config, t_max).tolist() == want[: t_max + 1], accumulate


def test_closed_form_hand_values():
    markers = np.array([-1, 1, 1, 1], dtype=np.int8)
    assert delta_closed_form(markers, 0) == 4
    assert delta_closed_form(markers, 1) == 2
    assert delta_closed_form(markers, 4) == -4  # one marker: sign flip at t=N
    assert delta_closed_form(markers, 8) == 4


def test_window_products_against_direct_product():
    # Slow direct evaluation of X_{n,t} = prod_{j=1..t} xi_{n-j}.
    markers = _random_markers(11, 7)
    for t in range(1, 12):
        direct = 0
        for n in range(11):
            prod = 1
            for j in range(1, t + 1):
                prod *= int(markers[(n - j) % 11])
            direct += prod
        assert delta_closed_form(markers, t) == direct


@pytest.mark.parametrize("n,seed", [(8, 0), (33, 1), (64, 2)])
def test_periodicity_and_half_period_sign(n: int, seed: int):
    markers = _random_markers(n, seed)
    config = KacConfiguration.all_white(markers)
    deltas = ring_trace(config, 2 * n)
    m = config.marker_count
    assert deltas[0] == n
    assert deltas[n] == (-1) ** m * n
    assert deltas[2 * n] == n
    # 2N steps restore every color, not just the aggregate.
    state = config
    for _ in range(2 * n):
        state = step(state)
    assert np.array_equal(state.colors, config.colors)


def _assert_reflection(deltas, marked_counts):
    """Delta(N - s) = Delta(N + s) = (-1)^m Delta(s) for 0 <= s <= N.

    ``deltas`` is (2N + 1, h), one column per ring.  A window of length
    N - s is the whole ring times the complementary window of length s, and
    one of length N + s is the whole ring times a window of length s.
    """
    n = deltas.shape[0] // 2
    s = np.arange(n + 1)
    signed = (1 - 2 * (np.asarray(marked_counts, dtype=np.int64) % 2)) * deltas[s]
    np.testing.assert_array_equal(deltas[n - s], signed)
    np.testing.assert_array_equal(deltas[n + s], signed)


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("n", [7, 64, 1000])
def test_reflection_on_ring_steps_and_closed_form(n: int, mu: float):
    # 16 rings per batch through the kernel; the closed form on 4 of them.
    marked = np.random.default_rng(n + int(10 * mu)).random((16, n)) < mu
    m = np.count_nonzero(marked, axis=1)
    assert {0, 1} <= set((m % 2).tolist())
    stepper = RingStepper(16, n, 2 * n)
    stepper.marked[:] = marked
    stepped = n - 2 * stepper.steps(16).astype(np.int64)
    _assert_reflection(stepped, m)
    closed = np.array(
        [[delta_closed_form(1 - 2 * row.astype(np.int8), t) for row in marked[:4]]
         for t in range(2 * n + 1)]
    )
    _assert_reflection(closed, m[:4])


@pytest.mark.parametrize("n", range(1, 13))
def test_reflection_on_the_enumeration(n: int):
    # Every marker sequence of the ring, so every rate mu at once.
    codes = np.arange(1 << n, dtype=np.uint32)
    deltas = np.stack([_enumerated_deltas(n, t, codes) for t in range(2 * n + 1)])
    _assert_reflection(deltas, np.bitwise_count(codes))


@pytest.mark.parametrize("seed", range(5))
def test_delta_parity_invariant(seed: int):
    n = 21
    deltas = ring_trace(KacConfiguration.all_white(_random_markers(n, seed)), 2 * n)
    assert np.all((deltas - n) % 2 == 0)
    assert np.all(np.abs(deltas) <= n)


def test_ring_trace_validation():
    config = KacConfiguration.all_white(np.ones(4, dtype=np.int8))
    with pytest.raises(ValueError):
        ring_trace(config, -1)
    with pytest.raises(ValueError):
        delta_closed_form(np.ones(4, dtype=np.int8), 9)
    with pytest.raises(ValueError):
        KacConfiguration(np.array([1, -1], dtype=np.int8), np.array([1, 2], dtype=np.int8))


def _iterated(markers) -> list:
    return ring_trace(KacConfiguration.all_white(markers), 2 * len(markers)).tolist()


def _swept(markers) -> list:
    return [delta_closed_form(markers, t) for t in range(2 * len(markers) + 1)]


def test_closed_form_sees_a_ring_changed_in_place():
    # A memo keyed by the array's identity would answer with the old ring.
    markers = _random_markers(16, 3)
    before = _iterated(markers)
    assert _swept(markers) == before
    markers[0] = -markers[0]
    after = _iterated(markers)
    assert after != before
    assert _swept(markers) == after


def test_closed_form_equal_values_in_any_dtype_agree():
    base = _random_markers(24, 4)
    want = _iterated(base)
    forms = [
        base.astype(np.int64),
        base.astype(np.float64),
        base.tolist(),
        np.repeat(base, 2)[::2],
        base,
    ]
    for form in forms:
        assert _swept(form) == want
    # Switching form at every t must not mix up the rings either.
    for t in range(2 * base.size + 1):
        assert {delta_closed_form(form, t) for form in forms} == {want[t]}


def test_closed_form_refuses_an_invalid_ring_after_a_valid_one():
    valid = np.array([1.0, -1.0, 1.0, 1.0])
    assert delta_closed_form(valid, 1) == 2
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        delta_closed_form(np.array([1.5, -1.0, 1.0, 1.0]), 1)
    assert delta_closed_form(valid, 1) == 2
    # The same bytes in another shape are not a ring.
    with pytest.raises(ValueError, match="1-d"):
        delta_closed_form(valid.reshape(2, 2), 1)
    assert delta_closed_form(np.array([1]), 0) == 1
    with pytest.raises(ValueError, match="1-d"):
        delta_closed_form(np.array(1), 0)


def test_closed_form_checks_t_on_a_cached_ring():
    markers = _random_markers(10, 5)
    assert delta_closed_form(markers, 3) == _iterated(markers)[3]
    for t in (-1, 21, 10**20):
        with pytest.raises(ValueError, match="t must lie in \\[0, 20\\]"):
            delta_closed_form(markers, t)


def test_closed_form_alternating_rings_stay_apart():
    a, b = _random_markers(20, 6), _random_markers(20, 7)
    want_a, want_b = _iterated(a), _iterated(b)
    assert want_a != want_b
    for t in range(41):
        assert delta_closed_form(a, t) == want_a[t]
        assert delta_closed_form(b, t) == want_b[t]


def test_closed_form_object_markers():
    base = _random_markers(12, 8)
    markers = base.astype(object)
    assert _swept(markers) == _iterated(base)
    markers[0] = -markers[0]
    base[0] = -base[0]
    assert _swept(markers) == _iterated(base)


_ONES = np.ones(4, dtype=np.int8)
_SCHEDULE = ring_bound_schedule(0.15, 0.5, 0.3)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda t: delta_closed_form(_ONES, t), "t"),
        (lambda t: brute_force_expectation(4, 0.3, t), "t"),
        (lambda t: ring_trace(KacConfiguration.all_white(_ONES), t), "t_max"),
        (lambda t: expected_delta_bar(0.25, t, 10), "t"),
        (lambda t: expected_delta_sq(0.25, t, 10), "t"),
        (lambda n: brute_force_expectation(n, 0.3, 2), "n"),
        (lambda n: sample_markers(n, 0.3, RngStream(0)), "n"),
        (lambda n: expected_delta_bar(0.3, 2, n), "n_sites"),
        (lambda n: expected_delta_sq(0.3, 2, n), "n_sites"),
        (lambda n: _SCHEDULE.window_end(n), "n_sites"),
        (lambda n: _SCHEDULE.sequence_bound(n), "n_sites"),
        (lambda n: _SCHEDULE.window(n), "n_sites"),
    ],
    ids=["closed_form", "brute_force", "ring_trace", "expected_delta_bar", "expected_delta_sq",
         "brute_force_n", "sample_markers", "expected_delta_bar_n", "expected_delta_sq_n",
         "window_end", "sequence_bound", "window"],
)
@pytest.mark.parametrize("value", [1.5, 2.0, "3", None, True])
def test_times_must_be_integers(call, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda mu: sample_markers(4, mu, RngStream(0)),
        lambda mu: expected_delta_bar(mu, 2, 10),
        lambda mu: expected_delta_sq(mu, 2, 10),
        lambda mu: brute_force_expectation(4, mu, 2),
        lambda mu: ring_bound_schedule(0.15, 0.5, mu),
    ],
    ids=["sample_markers", "expected_delta_bar", "expected_delta_sq", "brute_force",
         "ring_bound_schedule"],
)
@pytest.mark.parametrize("value", [True, "0.3", None])
def test_marker_rates_must_be_real_numbers(call, value):
    with pytest.raises(TypeError, match="^mu must be a real number, got "):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample_markers(4, 0.0, RngStream(0)), "mu must lie in \\(0, 1\\], got 0.0"),
        (lambda: expected_delta_bar(1.5, 2, 10), "mu must lie in \\[0, 1\\], got 1.5"),
        (lambda: expected_delta_sq(-0.5, 2, 10), "mu must lie in \\[0, 1\\], got -0.5"),
        (lambda: brute_force_expectation(4, -0.1, 2), "mu must lie in \\[0, 1\\], got -0.1"),
        (lambda: ring_bound_schedule(0.15, 0.5, math.nan), "mu must lie in \\[0, 1\\], got nan"),
        (lambda: ring_bound_schedule(0.15, 1.0, 0.3), "alpha must lie in \\(0, 1\\), got 1.0"),
    ],
    ids=["sample_markers", "expected_delta_bar", "expected_delta_sq", "brute_force",
         "schedule_mu", "schedule_alpha"],
)
def test_marker_rates_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_numpy_integer_times_accepted():
    markers = _random_markers(8, 9)
    deltas = ring_trace(KacConfiguration.all_white(markers), np.int64(16))
    assert deltas.shape == (17,)
    assert delta_closed_form(markers, np.int64(11)) == deltas[11]
    assert brute_force_expectation(4, 0.3, np.int32(2)) == brute_force_expectation(4, 0.3, 2)
    assert brute_force_expectation(np.int64(4), 0.3, 2) == brute_force_expectation(4, 0.3, 2)
    want = sample_markers(9, 0.3, RngStream(2))
    assert np.array_equal(sample_markers(np.int64(9), 0.3, RngStream(2)), want)


def test_configuration_time_must_be_an_integer():
    ones = np.ones(4, dtype=np.int8)
    with pytest.raises(TypeError, match="^time must be an integer, got 1.5$"):
        KacConfiguration(ones, ones, 1.5)
    config = KacConfiguration(ones, ones, np.int64(-2))
    assert type(config.time) is int and step(config).time == -1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: brute_force_expectation(0, 0.3, 0), "n must lie in \\[1, 20\\], got 0"),
        (lambda: brute_force_expectation(21, 0.3, 0), "n must lie in \\[1, 20\\], got 21"),
        (lambda: sample_markers(0, 0.3, RngStream(0)), "n must lie in \\[1, inf\\], got 0"),
        (lambda: expected_delta_sq(0.3, 0, 0), "n_sites must lie in \\[1, inf\\], got 0"),
        (lambda: expected_delta_sq(0.3, 21, 10), "t must lie in \\[0, 20\\], got 21"),
        (lambda: expected_delta_sq(0.3, -1, 10), "t must lie in \\[0, 20\\], got -1"),
    ],
)
def test_site_counts_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# Marker sampling and the product-mean formula


def test_sample_markers_all_marked_at_mu_one():
    out = sample_markers(64, 1.0, RngStream(0, 0))
    assert np.all(out == -1)


_EDGE_MUS = [2.0**-53, 3 * 2.0**-54, 0.1, 0.3, 0.5, 1 - 2.0**-53, 1.0]


@pytest.mark.parametrize("mu", _EDGE_MUS)
def test_marker_limit_matches_random_below_mu(mu: float):
    # Raw words whose top 53 bits sit just below and at ceil(mu * 2^53),
    # each with the lowest and highest 11 dropped bits: the integer verdict
    # must equal numpy's random() = (x >> 11) * 2^-53 compared with mu.
    limit = kac.marker_limit(mu)
    edge = math.ceil(mu * 2.0**53)
    tops = [k for k in (0, 1, edge - 2, edge - 1, edge, edge + 1) if 0 <= k < 2**53]
    words = np.array([(k << 11) | low for k in tops for low in (0, 2047)], dtype=np.uint64)
    want = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 < mu
    assert (words <= np.uint64(limit)).tolist() == want.tolist()
    if mu == 1.0:
        assert limit == 2**64 - 1 and want.all()
    else:
        assert want.tolist() != [want[0]] * want.size  # both verdicts occur


@pytest.mark.parametrize("mu", _EDGE_MUS)
def test_sample_markers_marks_where_random_is_below_mu(mu: float):
    # The independent oracle of the draw rule: numpy's own random() < mu on
    # a fresh generator of the same stream.
    for seed, stream_id in ((0, 0), (7, 3), (-1, 2**40)):
        want = RngStream(seed, stream_id).generator().random(1000) < mu
        got = sample_markers(1000, mu, RngStream(seed, stream_id))
        assert got.dtype == np.int8
        assert (got == -1).tolist() == want.tolist()
        assert (got == 1).tolist() == (~want).tolist()


def test_sample_markers_concentrates():
    n = 10**5
    out = sample_markers(n, 0.5, RngStream(1, 0))
    marked = np.count_nonzero(out == -1)
    assert abs(marked - n / 2) < 3.0 * math.sqrt(n / 4.0)


def test_sample_markers_deterministic_and_validated():
    a = sample_markers(100, 0.3, RngStream(9, 4))
    b = sample_markers(100, 0.3, RngStream(9, 4))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_markers(100, 0.0, RngStream(0, 0))


def test_expected_delta_bar_known_values():
    assert expected_delta_bar(0.5, 3, 10) == 0.0
    assert expected_delta_bar(0.0, 7, 10) == 1.0
    assert expected_delta_bar(0.25, 2, 10) == pytest.approx(0.25, rel=1e-15)
    # Past one revolution the mean climbs back: (1 - 2 mu)^(2N - t).
    assert expected_delta_bar(0.25, 11, 10) == 0.5**9
    assert expected_delta_bar(0.5, 20, 10) == 1.0
    with pytest.raises(ParameterError, match="^t must lie in \\[0, 20\\], got 21$"):
        expected_delta_bar(0.25, 21, 10)
    assert expected_delta_bar(0.25, np.int64(10), 10) == 0.5**10


@pytest.mark.parametrize("mu", [0.1, 0.3, 0.45])
def test_expected_delta_bar_matches_enumeration_over_the_whole_period(mu):
    for n in range(1, 13):
        for t in range(2 * n + 1):
            want = brute_force_expectation(n, mu, t).mean
            assert expected_delta_bar(mu, t, n) == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: delta_closed_form(np.array([1.5, -1.0, 1.0]), 1),
        lambda: KacConfiguration(np.array([1.7, -1.2]), np.array([1.0, 1.0])),
        lambda: KacConfiguration(np.array([1, -1]), np.array([1.0, 1.5])),
        lambda: KacConfiguration.all_white([1.0, -1.9]),
    ],
    ids=["closed_form", "markers", "colors", "all_white"],
)
def test_non_integral_markers_and_colors_rejected(call):
    # Casting to int8 before the check would truncate these to +-1.
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        call()


@pytest.mark.parametrize(
    "values, ok",
    [
        (np.array([1, -1, 1], dtype=np.int8), True),
        (np.array([1, -128], dtype=np.int8), False),
        (np.array([-1, 127], dtype=np.int8), False),
        (np.array([1, 0, -1], dtype=np.int8), False),
        (np.array([1, -1], dtype=np.int64), True),
        (np.array([-1, np.iinfo(np.int64).min]), False),
        (np.array([1, 1], dtype=np.uint8), True),
        (np.array([1, 255], dtype=np.uint8), False),
        (np.array([1.0, -1.0]), True),
        (np.array([1.0, 1.5]), False),
        (np.array([-1.9, -1.0]), False),
        (np.array([1.0, np.nan]), False),
        (np.array([1, 1j]), False),
        (np.array([-1, -1j]), False),
        (np.array([True, True]), True),
        (np.ones((2, 2), dtype=np.int8), False),
        (np.array([], dtype=np.int8), False),
    ],
    ids=[
        "int8", "int8_min", "int8_max", "int8_zero", "int64", "int64_min", "uint8",
        "uint8_255", "float", "float_1.5", "float_-1.9", "float_nan", "complex_j",
        "complex_-j", "bool", "2d", "empty",
    ],
)
def test_pm_one_check_verdicts(values, ok):
    # |x| == 1 is one pass for integers; abs of the most negative integer
    # stays negative, and complex +-1j (also of modulus 1) must stay out.
    if not ok:
        with pytest.raises(ValueError, match="markers"):
            _as_pm_one(values, "markers")
        return
    got = _as_pm_one(values, "markers")
    assert got.dtype == np.int8
    assert got.tolist() == values.astype(np.int8).tolist()


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle


@pytest.mark.parametrize("n", [*range(1, 9), 17, 20])
def test_enumerated_deltas_match_ring_trace_per_code(n: int):
    # Every marker code at every t <= 2N: window orientation, t = N and the
    # t > N sign are checked code by code, not only through the moments.
    # Codes past the first 2^16 take their high bits' window parities from a
    # second table: at N = 17 and 20, a seeded sample with some bit >= 16
    # set, plus the all-marked code.
    if n <= 8:
        codes = np.arange(1 << n, dtype=np.uint32)
    else:
        sample = np.random.default_rng(n).integers(1 << 16, 1 << n, size=60, dtype=np.uint32)
        codes = np.append(sample, np.uint32((1 << n) - 1))
    bits = ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.int8)
    want = np.stack(
        [ring_trace(KacConfiguration.all_white(1 - 2 * row), 2 * n) for row in bits]
    )
    for t in range(2 * n + 1):
        got = _enumerated_deltas(n, t, codes)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want[:, t], err_msg=f"t={t}")


@pytest.mark.parametrize("mu", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("n", [3, 6, 9])
def test_brute_force_mean_matches_product_formula(n: int, mu: float):
    for t in range(n + 1):
        got = brute_force_expectation(n, mu, t)
        assert got.mean == pytest.approx((1.0 - 2.0 * mu) ** t, abs=1e-12)


def test_brute_force_variance_at_zero_is_zero():
    got = brute_force_expectation(9, 0.3, 0)
    assert got.mean == pytest.approx(1.0, abs=1e-14)
    assert got.variance == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("mu", [0.2, 0.5])
@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_brute_force_variance_matches_covariance_formula(mu: float, t: int):
    # For t < N/2 the window products share |s| < t markers at circular
    # offset s, giving Var = (1/N) * sum_{|s|<t} (lam^{2|s|} - lam^{2t}).
    n = 12
    lam = 1.0 - 2.0 * mu
    want = sum(lam ** (2 * abs(s)) - lam ** (2 * t) for s in range(-(t - 1), t)) / n
    got = brute_force_expectation(n, mu, t)
    assert got.variance == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_brute_force_degenerate_rates(mu: float):
    # mu = 0: no markers, stays all white; mu = 1: deterministic alternation.
    got = brute_force_expectation(6, mu, 3)
    assert got.mean == pytest.approx(1.0 if mu == 0.0 else -1.0, abs=1e-14)
    assert got.variance == pytest.approx(0.0, abs=1e-14)


# float.hex of (mean, variance), recorded from the enumeration that summed
# N window popcounts per code.  Every case spans 2 to 16 chunks of 2^16
# codes, which the kac-brute digest (N = 13, one chunk) does not reach; the
# moments must stay bit-identical while the per-chunk order of the float
# sums is kept.
_MULTI_CHUNK_MOMENTS = {
    (17, 0.3, 5): ("0x1.4f8b588e368f4p-7", "0x1.4c70d574ecfe1p-4"),
    (18, 0.25, 6): ("0x1.fffffffffffffp-7", "0x1.7a80000000001p-4"),
    (18, 0.1, 18): ("0x1.2725dd1d2441ep-6", "0x1.ffd576f6d9a5ap-1"),
    (19, 0.7, 25): ("-0x1.c25c26849a2e0p-18", "0x1.29b97e4e3b799p-4"),
    (20, 0.25, 20): ("0x1.000000006c566p-20", "0x1.fffffffffe006p-1"),
    (20, 0.3, 33): ("0x1.ad7f29abcaf65p-10", "0x1.1acf82f292ad4p-4"),
    (20, 0.0, 21): ("0x1.0000000000000p+0", "0x0.0p+0"),
    (20, 1.0, 40): ("0x1.0000000000000p+0", "0x0.0p+0"),
}


@pytest.mark.parametrize("case", sorted(_MULTI_CHUNK_MOMENTS), ids=str)
def test_brute_force_multi_chunk_moments_are_pinned(case):
    got = brute_force_expectation(*case)
    assert (got.mean.hex(), got.variance.hex()) == _MULTI_CHUNK_MOMENTS[case]


def test_brute_force_rejects_large_rings():
    with pytest.raises(ValueError):
        brute_force_expectation(21, 0.3, 1)


def test_brute_force_past_one_revolution():
    # Signs beyond t = N depend on the parity of the marker count per
    # sequence; cross-check against direct iteration summed by weight.
    n, mu, t = 6, 0.3, 9
    got = brute_force_expectation(n, mu, t)
    total = 0.0
    for code in range(2**n):
        bits = [(code >> k) & 1 for k in range(n)]
        markers = np.array([1 - 2 * b for b in bits], dtype=np.int8)
        deltas = ring_trace(KacConfiguration.all_white(markers), t)
        m = sum(bits)
        weight = mu**m * (1.0 - mu) ** (n - m)
        total += weight * deltas[t] / n
    assert got.mean == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------------------
# Equilibration schedule


def test_ring_bound_schedule_known_values():
    sched = ring_bound_schedule(0.1, 0.5, 0.3)
    assert sched.min_sites == pytest.approx(1600.0, rel=1e-12)
    assert sched.window_end(10**4) == pytest.approx(50.0, rel=1e-12)


@pytest.mark.parametrize("epsilon, alpha", [(0.1, 0.999999), (1e-300, 0.5)])
def test_ring_bound_schedule_min_sites_past_float_range_is_inf(epsilon: float, alpha: float):
    # (4/eps)^(1/(1-alpha)) once raised OverflowError out of the schedule.
    sched = ring_bound_schedule(epsilon, alpha, 0.3)
    assert sched.min_sites == math.inf
    assert sched.t_start == float(math.ceil(math.log(epsilon / 4.0) / math.log(0.4)))


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
def test_ring_bound_schedule_rejects_bad_epsilon(epsilon: float):
    with pytest.raises(ValueError, match="epsilon"):
        ring_bound_schedule(epsilon, 0.5, 0.5)


def test_ring_bound_schedule_start_time():
    sched = ring_bound_schedule(0.4, 0.5, 0.25)
    want = math.log(0.1) / math.log(0.5)
    assert sched.t_start_exact == pytest.approx(want, rel=1e-12)  # about 3.32
    assert sched.t_start == 4.0  # rounded up to an integer step
    assert ring_bound_schedule(0.4, 0.5, 0.5).t_start == 1.0
    assert math.isinf(ring_bound_schedule(0.4, 0.5, 0.0).t_start)
    assert math.isinf(ring_bound_schedule(0.4, 0.5, 1.0).t_start)


def test_ring_bound_schedule_window():
    assert ring_bound_schedule(0.15, 0.5, 0.3).window(4096) == (4.0, 32.0)
    assert ring_bound_schedule(0.2, 0.5, 0.3).window(64) == (4.0, 4.0)  # a window of one time


@pytest.mark.parametrize(
    "mu, n, name, rule",
    [
        (1.0, 4096, "mu", "must lie in (0, 1) for a window, got 1.0"),
        (0.0, 4096, "mu", "must lie in (0, 1) for a window, got 0.0"),
        (0.3, 16, "alpha", "must make N^alpha / 2 = 2.0 reach t_start = 4.0, got 0.5"),
        (0.3, 63, "alpha", f"must make N^alpha / 2 = {0.5 * 63**0.5} reach t_start = 4.0, got 0.5"),
    ],
)
def test_ring_bound_schedule_window_refusals(mu, n, name, rule):
    # The mean never decays at mu in {0, 1}; below N = 64 the window ends before t_start = 4.
    with pytest.raises(ParameterError) as info:
        ring_bound_schedule(0.2, 0.5, mu).window(n)
    assert (info.value.name, info.value.rule) == (name, rule)


def test_ring_bound_schedule_refuses_a_ring_past_float_range():
    # N^alpha of such an int raised OverflowError, "int too large to convert to float".
    sched = ring_bound_schedule(0.1, 0.5, 0.3)
    rule = "must lie in [1, 1.7976931348623157e+308], got 1.000000e+400"
    for call in (sched.window_end, sched.window, sched.per_time_bound, sched.sequence_bound):
        with pytest.raises(ParameterError) as info:
            call(10**400)
        assert (info.value.name, info.value.rule) == ("n_sites", rule)
    assert sched.window_end(int(FLOAT_MAX)) == 0.5 * math.sqrt(FLOAT_MAX)
    half_sq = 0.5 * 0.1**2
    assert sched.per_time_bound(int(FLOAT_MAX)).log_value == pytest.approx(
        math.log(2.0) + half_sq - half_sq * math.sqrt(FLOAT_MAX), rel=1e-12)


def test_ring_bound_schedule_bound_arithmetic():
    eps, alpha, n = 0.15, 0.5, 4096
    sched = ring_bound_schedule(eps, alpha, 0.3)
    half_sq = 0.5 * eps**2
    want_per = math.log(2.0) + half_sq - half_sq * n ** (1.0 - alpha)
    per = sched.per_time_bound(n)
    assert per.log_value == pytest.approx(want_per, rel=1e-12)
    seq = sched.sequence_bound(n)
    want_seq = want_per + math.log(sched.window_end(n))
    # The sequence bound is vacuous at this desk scale; the raw log survives.
    assert seq.raw_log == pytest.approx(want_seq, rel=1e-12)
    assert seq.vacuous and seq.log_value == 0.0


@pytest.mark.parametrize("epsilon", [1e200, 10**200, math.inf])
def test_ring_bound_schedule_bounds_where_eps_squared_overflows(epsilon: float):
    # eps^2 = 1e400 once raised OverflowError, and inf - inf made a NaN log.
    sched = ring_bound_schedule(epsilon, 0.5, 0.3)
    assert sched.per_time_bound(4096).log_value == -math.inf
    assert sched.sequence_bound(4096).log_value == -math.inf
    # At N = 1 the exponent (eps^2/2)(1 - N^(1-alpha)) is 0 for every eps.
    assert sched.per_time_bound(1).raw_log == math.log(2.0)


def test_ring_bound_schedule_start_time_at_the_epsilon_extremes():
    # eps / 4 = 5e-324 / 4 is 0.0 in floats, whose log once raised "math domain error".
    tiny = ring_bound_schedule(5e-324, 0.5, 0.3)
    want = (math.log(5e-324) - math.log(4.0)) / math.log(0.4)
    assert tiny.t_start_exact == pytest.approx(want, rel=1e-15)
    assert tiny.t_start == 814.0
    # An epsilon above 4 needs no step of its own, eps = inf included.
    assert ring_bound_schedule(8.0, 0.5, 0.3).t_start == 1.0
    huge = ring_bound_schedule(math.inf, 0.5, 0.3)
    assert (huge.t_start_exact, huge.t_start) == (-math.inf, 1.0)


def test_ring_bound_schedule_tightens_with_n():
    sched = ring_bound_schedule(0.15, 0.5, 0.3)
    big = sched.per_time_bound(10**8)
    small = sched.per_time_bound(10**4)
    assert big.log_value < small.log_value


# ---------------------------------------------------------------------------
# Block decomposition: the paper's split of Delta(t), checked against the
# closed form.  The window products are taken by their definition, one
# gathered window at a time, so they share no code with the prefix parities.


def _block_sums(markers: np.ndarray, t: int) -> tuple[int, int]:
    """(block_sum, remainder) of Delta(t) for 1 <= t <= N.

    X_n = prod_{j=1..t} xi_{n-j} for sites n = 1..N (site N is site 0).
    The first k*t of them, k = N // t, form t interleaved sums of k
    independent terms (windows t apart share no marker); the N - k*t
    others are the remainder.
    """
    n = markers.size
    sites = np.arange(1, n + 1)
    windows = markers[(sites[:, None] - np.arange(1, t + 1)) % n]
    x = windows.astype(np.int64).prod(axis=1)
    kt = (n // t) * t
    return int(x[:kt].sum()), int(x[kt:].sum())


@pytest.mark.parametrize("n,t", [(7, 3), (12, 4), (64, 7), (100, 100)])
def test_block_decomposition_identity(n: int, t: int):
    markers = _random_markers(n, n + t)
    block_sum, remainder = _block_sums(markers, t)
    delta = delta_closed_form(markers, t)
    assert block_sum + remainder == delta
    assert abs(delta - block_sum) <= n % t


@pytest.mark.parametrize("seed", range(8))
def test_block_average_close_to_full_average(seed: int):
    n, t = 128, 9
    markers = _random_markers(n, seed)
    block_sum, _ = _block_sums(markers, t)
    delta = delta_closed_form(markers, t)
    kt = (n // t) * t
    assert abs(delta / n - block_sum / kt) <= 2.0 * t / n + 1e-15
