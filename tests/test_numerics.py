import math
import random

import numpy as np
import pytest

from boltzq.errors import DomainError
from boltzq.numerics import _close, bisect, geomspace, sigmoid, sigmoid_slope

from conftest import sign_change_at


def test_sigmoid_slope_has_the_bits_of_its_two_sigmoids():
    # both factors come from one exp: sigma(u)*sigma(-u), bit for bit,
    # at the edges of the floats and on seeded u of every scale
    rng = random.Random(41)
    us = [0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0, 746.0, -746.0,
          math.inf, -math.inf, math.nan]
    us += [rng.uniform(-40.0, 40.0) for _ in range(5000)]
    us += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 3.0)
           for _ in range(5000)]
    for u in us:
        assert sigmoid_slope(u).hex() == (sigmoid(u) * sigmoid(-u)).hex(), u


class TestGeomspace:
    def test_matches_numpy_within_one_ulp(self):
        # ends log-uniform on [1e-300, 1e300], ascending and descending
        rng = np.random.default_rng(20261019)
        gaps = []
        for _ in range(10_000):
            lo, hi = 10.0 ** rng.uniform(-300.0, 300.0, 2)
            n = int(rng.integers(1, 1001))
            ours = geomspace(lo, hi, n)
            ref = np.geomspace(lo, hi, n)
            assert len(ours) == n
            assert ours[0] == lo and ours[-1] == (hi if n > 1 else lo)
            inner = np.array(ours[1:-1])
            gaps.append(np.abs(inner - ref[1:-1]) / np.spacing(ref[1:-1]))
        gaps = np.concatenate(gaps)
        assert gaps.max() <= 1.0
        assert np.count_nonzero(gaps) < 0.1 * gaps.size

    def test_one_point_is_the_start(self):
        assert geomspace(3.0, 7.0, 1) == [3.0]

    @pytest.mark.parametrize("t", [0.3, 2.0, 1e-200])
    @pytest.mark.parametrize("n", [1, 2, 5, 80])
    def test_equal_ends(self, t, n):
        # interior points are 10**log10(t), as numpy's, so not always t
        grid = geomspace(t, t, n)
        assert grid[0] == grid[-1] == t
        np.testing.assert_array_max_ulp(grid, np.geomspace(t, t, n), 1)

    def test_descending_grid(self):
        grid = geomspace(5.0, 0.05, 81)
        assert grid[0] == 5.0 and grid[-1] == 0.05
        assert all(a > b for a, b in zip(grid, grid[1:]))
        np.testing.assert_array_max_ulp(grid, np.geomspace(5.0, 0.05, 81), 1)

    def test_returns_floats(self):
        assert all(type(t) is float for t in geomspace(1, 100, 3))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, float("nan"),
                                     float("inf"), float("-inf")])
    def test_bad_end_raises(self, bad):
        with pytest.raises(DomainError, match="finite and > 0"):
            geomspace(bad, 1.0, 5)
        with pytest.raises(DomainError, match="finite and > 0"):
            geomspace(1.0, bad, 5)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_points_raises(self, n):
        with pytest.raises(DomainError, match=f"n must be >= 1, got {n}$"):
            geomspace(1.0, 2.0, n)


def _counted(f):
    """f, and a list whose length is the number of calls made to it."""
    calls = []

    def wrapped(u):
        calls.append(u)
        return f(u)
    return wrapped, calls


class TestBisect:
    def test_newton_steps_keep_the_answer_and_save_calls(self):
        rng = random.Random(5)
        plain_calls = newton_calls = 0
        for _ in range(500):
            k = 10.0 ** rng.uniform(-3.0, 3.0)

            def f(u):
                return math.exp(u) - k

            plain, calls = _counted(lambda u: (f(u), None))
            u_plain = bisect(plain, -8.0, 8.0, f(-8.0), f(8.0))
            plain_calls += len(calls)
            sloped, calls = _counted(lambda u: (f(u), -f(u) / math.exp(u)))
            u_newton = bisect(sloped, -8.0, 8.0, f(-8.0), f(8.0))
            newton_calls += len(calls)
            # near u = 0, exp(u) - k is flat across floats of u, so the
            # two may stop at different sign changes, each at resolution
            for u in (u_plain, u_newton):
                assert sign_change_at(f, u), k
        assert newton_calls < 0.25 * plain_calls

    @pytest.mark.parametrize("slope", [1e-3, 1.0, 1e15])
    def test_a_wrong_slope_still_reaches_float_resolution(self, slope):
        # a staircase with steps of 2^-10 changes sign exactly at
        # k/1024; the slope it reports is no guide, so Newton crawls or
        # overshoots, and halving must close the bracket all the same
        for k in range(-40, 41, 7):
            def f(u):
                return math.floor(u * 1024.0) + 0.5 - k

            edge = k / 1024.0
            plain, calls = _counted(lambda u: (f(u), None))
            bisect(plain, -1.0, 1.0, f(-1.0), f(1.0))
            sloped, newton_calls = _counted(lambda u: (f(u), -f(u) / slope))
            u = bisect(sloped, -1.0, 1.0, f(-1.0), f(1.0))
            assert u in (edge, math.nextafter(edge, -math.inf))
            assert len(newton_calls) <= 2 * len(calls)

    def test_a_zero_probe_is_returned(self):
        assert bisect(lambda u: (u - 0.25, 0.25 - u), -1.0, 1.0, -1.25,
                      0.75) == 0.25

    def test_requires_a_sign_change(self):
        with pytest.raises(ValueError):
            bisect(lambda u: (u, -u), 1.0, 2.0, 1.0, 2.0)


def _side(edge: float, step):
    """A probe that is +1.0 below ``edge`` and -1.0 from it on, with
    ``step(u)`` as its step and u itself as the trailing result."""
    def probe(u):
        return (1.0 if u < edge else -1.0), step(u), u
    return probe


class TestClose:
    """The bracket loop behind :func:`bisect`, on probes ``(value, step,
    ...)`` whose sign alone picks the side."""

    def test_ends_high_to_low_come_back_in_that_order(self):
        probe = _side(0.3, lambda u: None)
        below = math.nextafter(0.3, 0.0)
        assert _close(probe, 1.0, probe(1.0), 0.0, probe(0.0)) == (
            0.3, probe(0.3), below, probe(below))

    def test_a_signed_side_with_a_step(self):
        # the step is the exact distance to the edge, so the first probe
        # lands on it and a creep of one ulp closes the bracket
        edge = 0.3
        probe, calls = _counted(_side(edge, lambda u: edge - u))
        t_in, _, t_out, _ = _close(probe, 0.0, probe(0.0), 1.0, probe(1.0))
        assert (t_in, t_out) == (math.nextafter(edge, 0.0), edge)
        assert calls[2:] == [edge, math.nextafter(edge, 0.0)]

    def test_a_step_that_stops_moving_creeps_by_doubling_ulps(self):
        # a step far below an ulp never moves the probe: it creeps 1, 2,
        # 4, ... ulps toward the other end instead
        edge = 0.25 + 100 * math.ulp(0.25)
        probe, calls = _counted(_side(edge, lambda u: 1e-300))
        t_in, _, t_out, _ = _close(probe, 0.25, probe(0.25), 1.0, probe(1.0))
        assert (t_in, t_out) == (math.nextafter(edge, 0.0), edge)
        ulps = [(t - 0.25) / math.ulp(0.25) for t in calls[2:9]]
        assert ulps == [1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0]
        assert len(calls) - 2 < 30

    def test_each_end_comes_back_with_its_probe_result(self):
        probe = _side(0.3, lambda u: None)
        t_lo, p_lo, t_hi, p_hi = _close(probe, 0.0, (1.0, None, "lo end"),
                                        1.0, (-1.0, None, "hi end"))
        assert (p_lo, p_hi) == (probe(t_lo), probe(t_hi))
        # an end that no probe replaced keeps the result it came with
        top = 1.0 + 2.0 * math.ulp(1.0)
        probe = _side(1.0 + 0.5 * math.ulp(1.0), lambda u: None)
        t_in, p_in, t_out, p_out = _close(probe, 1.0, (1.0, None, "given"),
                                          top, probe(top))
        assert (t_in, p_in) == (1.0, (1.0, None, "given"))
        assert p_out == probe(t_out)

    def test_a_zero_value_ends_the_search_there(self):
        found = _close(lambda u: (u - 0.5, None), 0.0, (-0.5, None),
                       1.0, (0.5, None))
        assert found == (0.5, (0.0, None), 0.5, (0.0, None))

    def test_requires_a_sign_change(self):
        with pytest.raises(ValueError):
            _close(lambda u: (1.0, None), 0.0, (1.0, None), 1.0, (2.0, None))
