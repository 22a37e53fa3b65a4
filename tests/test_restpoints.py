import cmath
import hashlib
import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import expit

import boltzq as bq
from boltzq import restpoints
from boltzq.numerics import _refine_root, bisect, sigmoid, sigmoid_slope
from boltzq.restpoints import _LOGISTIC, GFunction, _extrema

from conftest import scan_symmetric_count, sign_change_at


def coeffs(a, b, c, d):
    return bq.ReducedCoefficients.from_values(a, b, c, d)


class TestSolveSymmetric:
    def test_cusp_single_triple_degenerate_root(self):
        assert bq.solve_symmetric(4.0, -2.0) == pytest.approx([0.5], abs=1e-12)

    def test_zero_coefficients(self):
        assert bq.solve_symmetric(0.0, 0.0) == [0.5]

    def test_three_roots_symmetric_about_half(self):
        roots = bq.solve_symmetric(6.0, -3.0)
        assert len(roots) == 3
        assert roots[1] == pytest.approx(0.5, abs=1e-12)
        assert roots[0] + roots[2] == pytest.approx(1.0, abs=1e-10)
        assert scan_symmetric_count(6.0, -3.0, n=100_000) == 3

    def test_residual_below_contract(self, rng):
        # Away from saturation the x-space residual meets the 1e-12 polish
        # directly.  At saturated roots 1 ulp of x already moves
        # ln(x/(1-x)) by ~eps/(x(1-x)), so there the verifiable contract is
        # that the returned probability is the correctly rounded root: one
        # Newton step in log-odds must not move x by more than a few ulp.
        from boltzq.numerics import sigmoid_slope
        for _ in range(200):
            a = rng.uniform(-12, 12)
            b = rng.uniform(-12, 12)
            for x in bq.solve_symmetric(a, b):
                if 1e-3 < x < 1 - 1e-3:
                    assert abs(a * x + b - math.log(x / (1 - x))) < 1e-12
                else:
                    u0 = math.log(x / (1 - x))
                    dphi = 1 - a * sigmoid_slope(u0)
                    if abs(dphi) < 1e-3:
                        continue  # near-tangency: Newton step ill-posed
                    u1 = u0 - (a * sigmoid(u0) + b - u0) / dphi
                    assert abs(sigmoid(u1) - x) <= 4 * math.ulp(1.0)

    def test_root_count_matches_scan(self, rng):
        # |a| + |b| bounds the log-odds of every root; keep it inside the
        # band an x-grid of this size can resolve (logit(1/2n) ~ 13.6).
        for _ in range(150):
            a = rng.uniform(-8, 12)
            b = rng.uniform(-1, 1) * (12.5 - abs(a))
            ours = len(bq.solve_symmetric(a, b))
            oracle = scan_symmetric_count(a, b, n=400_000)
            assert ours == oracle, (a, b)


class TestCriticalOffsets:
    def test_cusp_point(self):
        assert bq.symmetric_critical_offsets(4.0) == (-2.0, -2.0)

    def test_requires_slope_at_least_four(self):
        with pytest.raises(bq.NotApplicableError):
            bq.symmetric_critical_offsets(3.999)

    def test_ordering_above_cusp(self):
        for a in (4.5, 5.0, 6.0, 8.0, 12.0, 40.0):
            b_lo, b_hi = bq.symmetric_critical_offsets(a)
            assert b_lo < b_hi

    @pytest.mark.parametrize("a", [2e154, 1e300, sys.float_info.max])
    def test_huge_slope_matches_high_precision(self, a):
        # a*(a - 4) and a + alpha overflow here; the offsets must not
        with mpmath.workdps(50):
            m = mpmath.mpf(a)
            alpha = mpmath.sqrt(m * (m - 4))
            a_plus = m + alpha
            a_minus = 4 * m / a_plus
            ratio = mpmath.log(a_minus / a_plus)
            ref = (-ratio - a_plus / 2, ratio - a_minus / 2)
            for got, want in zip(bq.symmetric_critical_offsets(a), ref):
                assert math.isfinite(got)
                assert abs((got - want) / want) <= 1e-14

    def test_offsets_flip_root_count(self):
        # crossing either offset changes the symmetric root count 1 <-> 3
        for a in (5.0, 8.0):
            b_lo, b_hi = bq.symmetric_critical_offsets(a)
            eps = 1e-4
            assert scan_symmetric_count(a, b_lo - eps, n=400_000) == 1
            assert scan_symmetric_count(a, b_lo + eps, n=400_000) == 3
            assert scan_symmetric_count(a, b_hi - eps, n=400_000) == 3
            assert scan_symmetric_count(a, b_hi + eps, n=400_000) == 1


class TestGFunction:
    def test_value_example(self):
        gf = bq.GFunction(5.0, -2.0)
        g, _, _ = gf.eval(0.0)
        assert g == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-15)

    def test_saturation_limits(self):
        gf = bq.GFunction(5.0, -2.0)
        g_hi, g1_hi, _ = gf.eval(40.0)
        g_lo, g1_lo, _ = gf.eval(-40.0)
        assert g_hi == pytest.approx(sigmoid(-2.0 + 5.0), abs=1e-12)
        assert g_lo == pytest.approx(sigmoid(-2.0), abs=1e-12)
        assert abs(g1_hi) < 1e-15 and abs(g1_lo) < 1e-15

    def test_large_argument_safe(self):
        gf = bq.GFunction(300.0, -150.0)
        for u in (-700.0, 700.0):
            g, g1, g2 = gf.eval(u)
            assert all(map(math.isfinite, (g, g1, g2)))

    def test_curve_that_overflows_raises_domain_error(self):
        # finite raw numerators whose c = raw_c/ty or d = raw_d/ty is not
        # finite are refused when the curve is built, where no search on
        # it could close
        for raw_c, raw_d, what in ((1e300, -3e300, "raw_c/ty"),
                                   (1.0, -1e300, "raw_d/ty"),
                                   (-1e300, 1.0, "raw_c/ty")):
            with pytest.raises(bq.DomainError, match=what):
                bq.GFunction(raw_c, raw_d, 1e-150)
        # right at the edge: c is the largest float, and the curve solves
        gf = bq.GFunction(sys.float_info.max * 1e-150, -0.5, 1e-150)
        assert math.isfinite(gf.c) and math.isfinite(gf.inflection())
        # GFunction.of halves an overflowing raw_c + raw_d as before
        co = bq.ReducedCoefficients.from_values(1e308, -1.0, 1.7e308, 1.7e308)
        gf = GFunction.of(co, co.ty)
        assert (gf.raw_c, gf.raw_d, gf.ty) == (
            0.5 * co.raw_c, 0.5 * co.raw_d, 0.5 * co.ty)

    def test_monotone_direction_follows_c(self):
        up = bq.GFunction(3.0, -1.0)
        down = bq.GFunction(-3.0, 1.0)
        assert up.eval(0.3)[1] > 0.0
        assert down.eval(0.3)[1] < 0.0

    def test_derivatives_match_finite_differences(self, rng):
        h = 1e-5
        for _ in range(1000):
            c, d = rng.uniform(-8, 8, 2)
            u = rng.uniform(-10, 10)
            gf = bq.GFunction(c, d)
            g, g1, g2 = gf.eval(u)
            g1_fd = (gf.value(u + h) - gf.value(u - h)) / (2 * h)
            g2_fd = (gf.eval(u + h)[1] - gf.eval(u - h)[1]) / (2 * h)
            assert g1 == pytest.approx(g1_fd, abs=1e-6)
            assert g2 == pytest.approx(g2_fd, abs=1e-6)

    def test_shape_and_bend_are_g1_and_g2_over_c(self, rng):
        for _ in range(1000):
            c, d = rng.uniform(-8, 8, 2)
            u = rng.uniform(-10, 10)
            gf = bq.GFunction(c, d)
            _, g1, g2 = gf.eval(u)
            shape, bend = gf._shape_and_bend(u)
            assert shape == gf.slope_shape(u)
            assert c * shape == pytest.approx(g1, rel=1e-12, abs=1e-300)
            assert c * bend == pytest.approx(g2, rel=1e-9, abs=1e-15)
            _, s1, s2 = _LOGISTIC.eval(u)
            assert _LOGISTIC._shape_and_bend(u) == pytest.approx(
                (s1, s2), rel=1e-12, abs=1e-300)

    def test_probes_form_the_floats_of_their_reference_forms(self, rng):
        # the one-frame probes of inflection and _extrema give the floats
        # that _at and _shape_and_bend give, bit for bit, and the root
        # kernel's defect probe the floats of eval
        us = [-700.0, -40.0, -0.0, 0.0, 1e-300, 40.0, 700.0]
        for _ in range(1000):
            c, d = rng.uniform(-8, 8, 2)
            gf = bq.GFunction(c, d, 10.0 ** rng.uniform(-3.0, 1.0))
            ac = rng.uniform(-100.0, 100.0)
            f, excess = gf._inflection_probe(), gf._excess_probe(ac)
            a, b = (float(x) for x in rng.uniform(-100.0, 100.0, 2))
            phi, phi_s = gf._defect_probe(a, b), _LOGISTIC._defect_probe(a, b)
            for u in us + [float(rng.uniform(-40, 40))]:
                g, g1, _ = gf.eval(u)
                assert phi(u) == (u - b - a * g, 1.0 - a * g1)
                s, s1, _ = _LOGISTIC.eval(u)
                assert phi_s(u) == (u - b - a * s, 1.0 - a * s1)
                s, s_neg, v = gf._at(u)
                th = math.tanh(0.5 * v)
                value = gf.c * th + 2.0 * math.sinh(u)
                assert f(u) == (value, -value / (
                    0.5 * gf.c * (gf.c * (s * s_neg)) * (1.0 - th * th)
                    + 2.0 * math.cosh(u)))
                shape, bend = gf._shape_and_bend(u)
                value = ac * shape - 1.0
                assert excess(u) == (value, -math.log(ac * shape) * shape
                                     / bend if ac * shape > 0.0 and bend
                                     else None)

    def test_eval_forms_the_floats_of_its_reference_form(self, rng):
        # the one-frame eval gives the floats of _at and numerics.sigmoid,
        # bit for bit, on both sides of u = 0 and of v = 0
        us = [-746.0, -700.0, -40.0, -0.0, 0.0, 1e-300, 40.0, 700.0, 746.0]
        curves = [bq.GFunction(2.0, -1.0), bq.GFunction(-2.0, 1.0),
                  bq.GFunction(0.0, 0.0), bq.GFunction(1.0, -0.0)]
        for _ in range(1000):
            c, d = rng.uniform(-8, 8, 2)
            curves.append(bq.GFunction(c, d, 10.0 ** rng.uniform(-3.0, 1.0)))
        for gf in curves:
            for u in us + [float(rng.uniform(-40, 40))]:
                s, s_neg, v = gf._at(u)
                g = sigmoid(v)
                sq = s * s_neg
                g1 = gf.c * (g * sigmoid(-v)) * sq
                assert gf.eval(u) == (g, g1, g1 * (gf.c * (1.0 - 2.0 * g) * sq
                                                   + (1.0 - 2.0 * s)))

    @pytest.mark.parametrize("u", [31.0, 32.5, 34.0, 40.0])
    def test_no_cancellation_next_to_ratio_minus_one(self, u):
        # d/c = -1 - 2^-52 at ty = 4.6e-15: d + c*sigma(u) would subtract
        # two terms of size 2e14 to leave a v of order 1
        raw_d, ty = -1.0 - 2.0 ** -52, 4.602890630985924e-15
        gf = bq.GFunction(1.0, raw_d, ty)
        with mpmath.workdps(60):
            v = (raw_d + 1 / (1 + mpmath.exp(-u))) / mpmath.mpf(ty)
            exact = float(1 / (1 + mpmath.exp(-v)))
        assert gf.value(u) == pytest.approx(exact, rel=1e-13)

    def test_inflection_is_unique_sign_change_of_curvature(self, rng):
        for _ in range(100):
            c, d = rng.uniform(-6, 6, 2)
            if abs(c) < 1e-3:
                continue
            gf = bq.GFunction(c, d)
            u0 = gf.inflection()
            assert abs(gf.eval(u0)[2]) < 1e-9
            probes = np.linspace(u0 - 8, u0 + 8, 41)
            signs = {math.copysign(1, gf.eval(p)[2])
                     for p in probes if abs(p - u0) > 1e-3}
            assert len(signs) == 2


class TestFindRestPoints:
    def test_matching_pennies(self):
        pts = bq.find_rest_points(coeffs(4, -2, -4, 2))
        assert len(pts) == 1
        p = pts[0]
        assert (p.x, p.y) == pytest.approx((0.5, 0.5), abs=1e-12)
        assert p.stability == "stable_spiral"
        assert p.eigenvalues[0] == pytest.approx(-1 + 1j, abs=1e-12)
        assert p.eigenvalues[1] == pytest.approx(-1 - 1j, abs=1e-12)

    def test_coordination_three_points_middle_saddle(self):
        pts = bq.find_rest_points(coeffs(5, -2, 5, -2).at_temperatures(0.5, 0.5))
        assert len(pts) == 3
        assert pts[1].stability == "saddle_unstable"
        assert pts[0].stability == "stable_node"
        assert pts[2].stability == "stable_node"

    def test_prisoners_dilemma_always_single(self):
        base = coeffs(1, -2, 1, -2)
        for t in (0.1, 0.3, 1.0, 3.0, 10.0):
            pts = bq.find_rest_points(base.at_temperatures(t, t))
            assert len(pts) == 1

    def test_zero_slope_line_solved_directly(self):
        pts = bq.find_rest_points(coeffs(0.0, 0.7, 3.0, -1.0))
        assert len(pts) == 1
        p = pts[0]
        assert p.u == 0.7
        assert p.v == pytest.approx(-1.0 + 3.0 * sigmoid(0.7), abs=1e-14)

    def test_point_missing_its_equation_raises(self):
        # the cold 1-D elimination parks v at -16384 with a logit residual
        # of 3305; the checked path refuses it, the counting path keeps it
        game = bq.Game.from_matrices(
            "cold",
            [[-1.8283927941227476, 1.3259191032788529],
             [-0.6432761814880994, -1.0402473965570178]],
            [[-0.757942939107159, -0.36391796145019306],
             [-2.588384851341074, 2.5109542365053663]])
        co = bq.reduce_payoffs(
            game, bq.Temperatures(0.000715788336105145, 6.028838869082125e-20))
        with pytest.raises(bq.NumericFailureError):
            bq.find_rest_points(co)
        assert len(bq.find_rest_points(co, fd_check=False)) == 1

    def test_residuals_within_contract(self, rng):
        for _ in range(300):
            a, b, c, d = rng.uniform(-20, 20, 4)
            for p in bq.find_rest_points(coeffs(a, b, c, d)):
                assert p.residual < 1e-10
                # bracket terms of the flow vanish at the point
                du, dv = bq.logit_velocity((p.u, p.v), coeffs(a, b, c, d))
                assert max(abs(du), abs(dv)) < 1e-10

    def test_opposed_slopes_unique_root(self, rng):
        for _ in range(2000):
            a, c = rng.uniform(0.1, 20, 2)
            b, d = rng.uniform(-20, 20, 2)
            assert bq.count_rest_points(coeffs(a, b, -c, d)) == 1
            assert bq.count_rest_points(coeffs(-a, b, c, d)) == 1

    def test_symmetric_game_root_set_is_swap_invariant(self, rng):
        for _ in range(200):
            a = rng.uniform(-15, 15)
            b = rng.uniform(-15, 15)
            pts = bq.find_rest_points(coeffs(a, b, a, b))
            mirrored = sorted((p.y, p.x) for p in pts)
            original = sorted((p.x, p.y) for p in pts)
            for (mx, my), (ox, oy) in zip(mirrored, original):
                assert mx == pytest.approx(ox, abs=1e-9)
                assert my == pytest.approx(oy, abs=1e-9)

    @pytest.mark.slow
    def test_root_completeness_against_dense_scan(self, rng):
        """Solver roots == sign-scan roots over 10^4 random coefficient
        draws with a 10^6-point oracle grid (no missed, no spurious)."""
        n_grid = 1_000_000
        w = np.linspace(0.0, 1.0, n_grid)
        with np.errstate(divide="ignore"):
            logit_w = np.log(w) - np.log1p(-w)  # +-inf at the ends is fine
        checked = three = 0
        for _ in range(10_000):
            a, b, c, d = rng.uniform(-20, 20, 4)
            if abs(a) < 1e-3:
                continue
            co = coeffs(a, b, c, d)
            pts = bq.find_rest_points(co, fd_check=False)
            if any(p.degenerate_pair for p in pts):
                continue  # genuine tangency: grid oracle can't resolve
            # scan: phi sign == sign(logit(w) - (d + c*sigma(u))) on u = b+a*w
            h = d + c * expit(b + a * w)
            sign = np.signbit(h - logit_w)
            flips = np.nonzero(sign[1:] != sign[:-1])[0]
            oracle_u = b + a * 0.5 * (w[flips] + w[flips + 1])
            assert len(pts) == len(oracle_u), (a, b, c, d)
            tol = 1.5 * abs(a) / n_grid + 1e-6
            solver_u = np.array([p.u for p in pts])
            oracle_sorted = np.sort(oracle_u)
            solver_sorted = np.sort(solver_u)
            assert np.all(np.abs(solver_sorted - oracle_sorted) <= tol), \
                (a, b, c, d)
            checked += 1
            if len(pts) == 3:
                three += 1
        assert checked > 9900
        assert three > 50  # the sampler must actually exercise 3-root games


@pytest.mark.parametrize("values", [
    (1.7e308, 0.0, 1.7e308, 0.0), (-1.7e308, 0.0, 1.7e308, 0.0),
    (1.7e308, 0.0, -1.7e308, 0.0), (-1.7e308, 0.0, -1.7e308, 0.0),
    (1.7e308, 1.7e308, 1.0, 0.0),
], ids=["a_c", "neg_a", "neg_c", "neg_a_neg_c", "bracket_overflows"])
@pytest.mark.parametrize("call", ["find", "count", "integrate"])
def test_huge_coefficients_solve_or_refuse(values, call):
    # either finite points within the residual contract, or DomainError
    co = coeffs(*values)
    try:
        if call == "count":
            assert bq.count_rest_points(co) in (1, 2, 3)
        elif call == "integrate":
            final = bq.integrate((0.3, 0.6), co).final
            assert all(0.0 < z < 1.0 for z in final)
        else:
            points = bq.find_rest_points(co)
            assert points
    except bq.DomainError:
        return
    for p in points if call == "find" else []:
        assert all(map(math.isfinite, (p.x, p.y, p.u, p.v, p.residual)))
        assert all(map(cmath.isfinite, p.eigenvalues))
        assert p.residual <= 1e-12 * max(1.0, abs(co.a))


def test_root_at_the_end_of_a_huge_bracket():
    # the bracket [b, b + a] is [0, 1e300] and the root sits at its lower
    # end, u = 0: bisection must be allowed the ~1050 halvings to get there
    (point,) = bq.find_rest_points(coeffs(1e300, 0.0, -1e6, 0.0))
    assert point.x == pytest.approx(0.5, abs=1e-12)
    assert point.residual < 1e-12


@pytest.mark.parametrize("root", [0.1, 0.25, 0.3, 2.0 / 3.0])
@pytest.mark.parametrize("small_above", [True, False])
def test_bracket_at_float_resolution_returns_its_better_end(root, small_above):
    # The sign change lies inside a rounding plateau: |f| never meets the
    # target, so the bracket closes to 8 ulps and the end with the smaller
    # |f| is returned, whichever end the last probe was.
    below, above = (-1e-9, 1e-12) if small_above else (-1e-12, 1e-9)

    def f(u):
        return (below if u < root else above), 0.0

    u = _refine_root(f, 0.0, 1.0, below, above, 1e-15)
    assert (u >= root) == small_above
    assert abs(u - root) <= 8.0 * math.ulp(1.0)


def test_cold_input_at_float_resolution_meets_its_equation():
    # a region_atlas cold-slice input (|a| ~ 2e10) whose saddle root never
    # meets the refine target: the bracket's better end meets the residual
    # bound, where the last probe missed it
    game = bq.Game.from_matrices(
        "cold",
        [[1.5968106928574066, -0.15906801061928455],
         [-2.5572314043108153, 1.5232609917742632]],
        [[2.323122497137386, 0.04965258459124211],
         [-2.3964951385201694, 0.8651166309967797]])
    co = bq.reduce_payoffs(game, bq.Temperatures(2.108000727371914e-10,
                                                 1.6910972176896195e-09))
    points = bq.find_rest_points(co)
    assert len(points) == 3
    for p in points:
        residual = abs(co.a * sigmoid(p.v) + co.b - p.u)
        assert residual <= 1e-9 * (1.0 + abs(co.a) + abs(co.b))


def test_relabelling_x_keeps_the_rest_point_count(rng):
    # x -> 1 - x (swap A's rows and B's columns) maps rest points one to one
    for _ in range(2000):
        A, B = rng.uniform(-3.0, 3.0, (2, 2, 2)).tolist()
        temps = bq.Temperatures(*(10.0 ** rng.uniform(-12.0, 1.0, 2)))
        game = bq.Game.from_matrices("g", A, B)
        relabelled = bq.Game.from_matrices("h", A[::-1],
                                           [row[::-1] for row in B])
        assert (bq.count_rest_points(bq.reduce_payoffs(game, temps))
                == bq.count_rest_points(bq.reduce_payoffs(relabelled, temps))
                ), (A, B, temps)


def test_raw_top_end_overflow_keeps_v_finite():
    # raw_c + raw_d overflows at ty = 2 while c + d = 1.5e308 does not
    co = bq.ReducedCoefficients.from_values(1.0, -0.5, 7.5e307, 7.5e307,
                                            ty=2.0)
    assert math.isinf(co.raw_c + co.raw_d)
    (point,) = bq.find_rest_points(co, fd_check=False)
    assert point.v == pytest.approx(7.5e307 * (1.0 + sigmoid(point.u)))


def test_close_pair_of_a_triple_is_not_flagged():
    # A steep response curve: at the last float of b with three rest points
    # the pair about to merge lies under 1e-7 apart, yet neither root is the
    # double root, so neither is flagged.  One float on, the pair is the
    # double root, reported once and flagged.
    def solve(b):
        return bq.find_rest_points(coeffs(20.0, b, 2000.0, -1000.0))

    lo, hi = -0.1, 0.0
    assert len(solve(lo)) == 3 and len(solve(hi)) == 1
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if len(solve(mid)) == 3 else (lo, mid)
    points = solve(lo)
    u = [p.u for p in points]
    assert len(points) == 3 and min(np.diff(u)) < 1e-7
    assert not any(p.degenerate_pair for p in points)
    assert [p.degenerate_pair for p in solve(hi)] == [True, False]


def _seeded_curves(seed, log_t, n=2000):
    """``(a, b, curve)`` of n games with payoffs U[-3, 3] and (tx, ty)
    log-uniform on 10**log_t."""
    rng = random.Random(seed)
    for _ in range(n):
        raw = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        tx, ty = (10.0 ** rng.uniform(*log_t) for _ in range(2))
        co = bq.ReducedCoefficients(*raw, tx, ty)
        yield co.a, co.b, GFunction.of(co, co.ty)


@pytest.mark.parametrize("seed, log_t", [(21, (-3.0, 1.0)),
                                         (22, (-20.0, -3.0))],
                         ids=["warm", "cold"])
def test_inflection_and_stationary_points_at_float_resolution(seed, log_t):
    # each answer is a sign change of its function, as computed, between
    # adjacent floats: neither 8 ulps nor a target on |F| would do
    stationary = 0
    for a, b, curve in _seeded_curves(seed, log_t):
        def f(u):  # F of GFunction.inflection
            return curve.c * math.tanh(0.5 * curve._at(u)[2]) + 2.0 * math.sinh(u)

        def excess(u):  # excess of _extrema
            return a * curve.c * curve.slope_shape(u) - 1.0

        assert sign_change_at(f, curve.inflection()), (a, b, curve)
        for u, *_ in _extrema(a, b, curve):
            stationary += 1
            assert sign_change_at(excess, u), (a, b, curve)
    assert stationary > 100


def test_logistic_stationary_points_at_float_resolution():
    rng = random.Random(23)
    for _ in range(2000):
        a = rng.uniform(4.01, 60.0)
        points = _extrema(a, -0.5 * a, _LOGISTIC)
        assert len(points) == 2
        for u, *_ in points:
            assert sign_change_at(lambda u: a * sigmoid_slope(u) - 1.0, u), a


def _kernel_counts():
    """``tools/kernel_counts.py``, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "kernel_counts.py"
    spec = importlib.util.spec_from_file_location("kernel_counts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_evaluation_budget():
    # curve evaluations per find_rest_points call on 4000 warm games; with
    # plain bisection for the inflection and the stationary points a
    # three-root solve made 223.0 and a one-root solve 57.4, and 95.1 and
    # 26.3 before roots at b or b + a were taken at the bracket end, and
    # 63.8 and 14.7 before the structural first probe of the inflection
    # and the log-excess steps of the stationary points; and on 4000 cold
    # games, where a three-root solve then made 154.1.  The structural
    # first probes of the stationary points and the search ends whose
    # signs are proved took them from 50.8 and 13.3 warm, and 98.7 and
    # 34.0 cold, to 39.7, 11.5, 36.6 and 26.0
    kernel_counts = _kernel_counts()
    counts = kernel_counts.count()
    assert sum(counts[3][1].values()) <= 44.0
    assert sum(counts[1][1].values()) <= 12.5
    cold = kernel_counts.count(log_t=kernel_counts.COLD)
    assert sum(cold[3][1].values()) <= 40.0
    assert sum(cold[1][1].values()) <= 28.5
    # every phase is counted: the roots' probes too
    assert counts[3][1]["roots"] > 0.0 and cold[1][1]["roots"] > 0.0


def _extreme_curves():
    """Curves with |raw_c| from 1e-300 to 1e300, ty from 1 to 1e-300 and
    d/c on both sides of 0 and -1, where c + d is finite, as the root
    kernel requires (:func:`restpoints._response_curve`); a curve whose c
    or d is not finite is refused when it is built."""
    for raw_c in (1e300, -1e300, 1.0, -1.0, 1e-300, -1e-300):
        for ratio in (-3.0, -1.0 - 2.0 ** -52, -0.5, -1e-300, 0.25):
            for ty in (1.0, 1e-150, 1e-300):
                if math.isfinite(raw_c / ty + ratio * raw_c / ty):
                    yield GFunction(raw_c, ratio * raw_c, ty)


@pytest.mark.parametrize("seed, log_t", [(28, (-3.0, 1.0)),
                                         (29, (-20.0, -3.0)), (0, None)],
                         ids=["warm", "cold", "extremes"])
def test_search_ends_have_the_signs_they_are_given(seed, log_t):
    # inflection and _extrema pass the signs of their bracket ends as
    # constants: excess(+-span) < 0 for every finite span, and F(-span)
    # < 0 < F(span) wherever the inflection's span is below _LOG_MAX
    if log_t is None:
        cases = [(ac, curve) for curve in _extreme_curves()
                 for ac in (16.5, 1e3, 1e100, 1e300, sys.float_info.max)]
    else:
        cases = [(a * curve.c, curve)
                 for a, _, curve in _seeded_curves(seed, log_t)]
    excess_ends = inflection_ends = 0
    for ac, curve in cases:
        span = math.asinh(0.5 * abs(curve.c)) + 1.0
        if span < restpoints._LOG_MAX:
            f = curve._inflection_probe()
            assert f(-span)[0] < 0.0 < f(span)[0], curve
            inflection_ends += 1
        if ac * curve.shape_peak <= 1.0:
            continue  # _extrema stops before its searches
        span = math.log(ac) + 1.0
        if span < math.inf:
            excess = curve._excess_probe(ac)
            assert excess(-span)[0] < 0.0 and excess(span)[0] < 0.0, curve
            excess_ends += 1
        # the structural first probes are floats or None, never a raise
        for first in curve._stationary_firsts(ac, curve.inflection()):
            assert first is None or math.isfinite(first), (ac, curve)
    assert excess_ends > 100 and inflection_ends > 100


def test_inflection_starts_where_y_logit_crosses_zero(monkeypatch):
    # cold curves with d/c in (-1, 0), where v crosses zero at u = ln(t/(1
    # - t)), t = -d/c: the inflection sits next to it, and the search
    # starts there; from the midpoint it took 42.1 probes on average
    # (max 79).  Each answer is still F's sign change at float resolution.
    counts = []

    def counted_bisect(f, lo, hi, f_lo, f_hi, first=None):
        calls = [0]

        def probe(t):
            calls[0] += 1
            return f(t)
        try:
            return bisect(probe, lo, hi, f_lo, f_hi, first)
        finally:
            counts.append(calls[0])

    monkeypatch.setattr(restpoints, "bisect", counted_bisect)
    curves = (curve for _, _, curve in _seeded_curves(27, (-20.0, -3.0),
                                                      n=10 ** 5)
              if -1.0 < curve.raw_d / curve.raw_c < 0.0)
    for curve in itertools.islice(curves, 2000):
        def f(u):  # F of GFunction.inflection
            return curve.c * math.tanh(0.5 * curve._at(u)[2]) + 2.0 * math.sinh(u)

        assert sign_change_at(f, curve.inflection()), curve
    assert len(counts) == 2000
    assert sum(counts) <= 8 * len(counts)
    assert max(counts) <= 70


def _kernel_target(a):
    """The root kernel's stop target on |phi| for the slope a."""
    return max(1e-15, min(5e-13, 5e-13 * abs(a)))


def _mp_phi(u, a, b, curve):
    """phi(u) = u - b - a*curve(u) in mpmath at the given floats."""
    def expit(w):
        return 1 / (1 + mpmath.exp(-w))

    u = mpmath.mpf(u)
    v = u if curve is _LOGISTIC else (
        (mpmath.mpf(curve.raw_d) + curve.raw_c * expit(u)) / curve.ty)
    return u - b - a * expit(v)


@pytest.mark.parametrize("a, b, curve, end", [
    (2.0, 0.0, GFunction(1.0, -60.0), "b"),
    (-2.0, 0.0, GFunction(1.0, -60.0), "b"),
    (2.0, 0.0, GFunction(1.0, 60.0), "b + a"),
    (-2.0, 0.0, GFunction(1.0, 60.0), "b + a"),
    (3.0, -40.0, _LOGISTIC, "b"),
    (-3.0, -40.0, _LOGISTIC, "b"),
    (3.0, 40.0, _LOGISTIC, "b + a"),
    (-3.0, 40.0, _LOGISTIC, "b + a"),
    # both ends within target: the one with the smaller |phi|
    (1e-20, 0.0, GFunction(1.0, -3.0), "b"),
    (1e-20, 0.0, GFunction(1.0, 2.0), "b + a"),
])
def test_saturated_root_is_its_bracket_end(monkeypatch, a, b, curve, end):
    # where g is within target/|a| of its tail at b or b + a, that end is
    # already a root and is returned with no refinement
    calls = []
    monkeypatch.setattr(restpoints, "_refine_root",
                        lambda *args: calls.append(args) or _refine_root(*args))
    roots, flags = restpoints._solve_u_roots(a, b, curve)
    assert roots == [b if end == "b" else b + a] and flags == [False]
    assert not calls
    with mpmath.workdps(40):
        assert abs(_mp_phi(roots[0], a, b, curve)) <= _kernel_target(a)


def test_warm_roots_are_within_target_of_the_exact_roots():
    # exact phi changes sign within the kernel's target of every root, on
    # both sides of the end rule: roots at b or b + a and refined ones
    ends = refined = 0
    with mpmath.workdps(40):
        for a, b, curve in _seeded_curves(24, (-3.0, 1.0), n=1000):
            target = _kernel_target(a)
            for u in restpoints._solve_u_roots(a, b, curve)[0]:
                if u in (b, b + a):
                    ends += 1
                else:
                    refined += 1
                below = _mp_phi(mpmath.mpf(u) - target, a, b, curve)
                above = _mp_phi(mpmath.mpf(u) + target, a, b, curve)
                assert below * above <= 0, (a, b, curve, u)
    assert ends > 100 and refined > 100


@pytest.mark.parametrize("seed, log_t, pin", [
    (25, (-3.0, 1.0), "c09c53e9ac6172f23c77cc7bfbc81d51"),
    (26, (-20.0, -3.0), "b11548f1a5f0ecbd5ce15720db45d647"),
], ids=["warm", "cold"])
def test_root_kernel_keeps_every_bit(seed, log_t, pin):
    # an md5 of the repr of each seeded game's record, its rest points (or
    # the error type of a call that raises), its count and the symmetric
    # roots at its (a, b): every root, eigenvalue and residual, exactly.
    # The residual and budget tests cannot see a rounding change in a
    # probe; this can.  The digest depends on the platform's exp and log.
    md5 = hashlib.md5()
    rng = random.Random(seed)
    for _ in range(600):
        payoffs = [[[rng.uniform(-3.0, 3.0) for _ in range(2)]
                    for _ in range(2)] for _ in range(2)]
        tx, ty = (10.0 ** rng.uniform(*log_t) for _ in range(2))
        co = bq.reduce_payoffs(bq.Game.from_matrices("g", *payoffs),
                               bq.Temperatures(tx, ty))
        results = [co, (co.a, co.b, co.c, co.d)]
        for call, args in ((bq.find_rest_points, (co,)),
                           (bq.count_rest_points, (co,)),
                           (bq.solve_symmetric, (co.a, co.b))):
            try:
                results.append(call(*args))
            except bq.BoltzqError as exc:
                results.append(type(exc).__name__)
        md5.update(repr(results).encode())
    assert md5.hexdigest() == pin


def sample_three_root_coeffs(rng):
    """Random coefficients with three rest points (rejection sampling over
    regions where triples are possible)."""
    while True:
        sign = 1.0 if rng.random() < 0.7 else -1.0
        a = sign * rng.uniform(4.2, 25.0)
        c = sign * rng.uniform(4.2, 25.0)
        if a * c < 16.5:
            continue
        if rng.random() < 0.8:  # three-equilibrium box
            b = -a * rng.uniform(0.05, 0.95)
            d = -c * rng.uniform(0.05, 0.95)
        else:  # single-equilibrium stripe
            a = abs(a) * 2.0
            c = abs(c) * 2.0
            b = a * rng.uniform(0.02, 0.4)
            d = -c * rng.uniform(0.55, 0.95)
        co = coeffs(a, b, c, d)
        if bq.count_rest_points(co) == 3:
            return co


class TestStability:
    def test_matching_pennies_formula(self):
        lam = bq.stability_eigenvalues((0.5, 0.5), coeffs(4, -2, -4, 2))
        assert lam[0] == pytest.approx(-1 + 1j, abs=1e-12)
        assert lam[1] == pytest.approx(-1 - 1j, abs=1e-12)

    def test_rejects_non_rest_point(self):
        with pytest.raises(bq.DomainError):
            bq.stability_eigenvalues((0.3, 0.3), coeffs(4, -2, -4, 2))

    def test_rejects_boundary_point(self):
        with pytest.raises(bq.DomainError):
            bq.stability_eigenvalues((0.0, 0.5), coeffs(4, -2, -4, 2))

    def test_wrong_closed_form_eigenvalues_raise(self, monkeypatch):
        from boltzq import restpoints

        exact = restpoints._eigenvalues_from_logit

        def skewed(u, v, co):
            rad = exact(u, v, co)[2] * (1.0 + 1e-3)
            root = cmath.sqrt(rad)
            return (-1.0 + root, -1.0 - root, rad)

        co = bq.reduce_payoffs(bq.fixture("stag_hunt"),
                               bq.Temperatures.equal(0.5))
        assert len(bq.find_rest_points(co)) == 3
        monkeypatch.setattr(restpoints, "_eigenvalues_from_logit", skewed)
        with pytest.raises(bq.NumericFailureError):
            bq.find_rest_points(co)

    def test_complex_step_slope_matches_closed_form(self):
        from boltzq.restpoints import _complex_step_slope

        # a few ulps while h*sigma'(w) is a normal float; below that, the
        # subnormal spacing 2^-1074 divided by the step h = 2^-26
        grain = 2.0 ** -1074 / 2.0 ** -26
        for w in np.linspace(-700.0, 700.0, 14_001):
            w = float(w)
            ref = bq.numerics.sigmoid_slope(w)
            err = abs(_complex_step_slope(w) - ref)
            assert err <= 4 * math.ulp(ref) + grain, w
        for w in (-1e300, -800.0, -746.0, 746.0, 800.0, 1e300):
            assert bq.numerics.sigmoid_slope(w) == 0.0
            assert _complex_step_slope(w) == 0.0

    def test_symmetric_stability_rule(self):
        # symmetric game: stable exactly when a*x0*(1-x0) < 1
        a, b = 6.0, -3.0
        co = coeffs(a, b, a, b)
        for p in bq.find_rest_points(co):
            stable = p.stability != "saddle_unstable"
            assert stable == (a * p.x * (1 - p.x) < 1.0)

    def test_middle_root_saddle_outer_stable(self, rng):
        for _ in range(300):
            co = sample_three_root_coeffs(rng)
            pts = bq.find_rest_points(co)
            assert len(pts) == 3
            assert pts[1].stability == "saddle_unstable"
            assert pts[0].stability in ("stable_node", "stable_spiral")
            assert pts[2].stability in ("stable_node", "stable_spiral")

    def test_perturbed_stable_point_flows_back(self):
        co = coeffs(5, -2, 5, -2).at_temperatures(0.5, 0.5)
        pts = bq.find_rest_points(co)
        for p in (pts[0], pts[2]):
            start = (min(max(p.x + 1e-3, 1e-6), 1 - 1e-6),
                     min(max(p.y - 1e-3, 1e-6), 1 - 1e-6))
            traj = bq.integrate(start, co)
            assert traj.terminal_reason == "converged"
            assert math.hypot(traj.final.x - p.x, traj.final.y - p.y) < 1e-6

    def test_simplex_corners_repel(self):
        # vertices are rest points of the zero-noise flow; with exploration
        # every interior trajectory leaves their neighborhoods
        co = coeffs(5, -2, 5, -2)  # stag hunt at T=1, attractor at (.936,.936)
        for corner in ((1e-4, 1e-4), (1e-4, 1 - 1e-4), (1 - 1e-4, 1e-4)):
            traj = bq.integrate(corner, co)
            d0 = math.hypot(traj.xs[0] - round(corner[0]),
                            traj.ys[0] - round(corner[1]))
            d1 = math.hypot(traj.final.x - round(corner[0]),
                            traj.final.y - round(corner[1]))
            assert d1 > d0 + 0.05


class TestTangencyConditions:
    def test_bound_flag(self):
        assert bq.tangency_conditions(coeffs(4, -2, 4, -2)).bound_met
        assert not bq.tangency_conditions(coeffs(3.9, -2, 4, -2)).bound_met

    def test_center_requires_product_sixteen(self):
        diag = bq.tangency_conditions(coeffs(4, -2, 4, -2))
        assert diag.strategy_residual(0.5, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_reduction(self):
        # with a = c and x = y the criticality test reduces to the
        # symmetric tangency a = 1/(x(1-x))
        a = 5.0
        x = 0.5 * (1 + math.sqrt(1 - 4 / a))
        diag = bq.tangency_conditions(coeffs(a, -2, a, -2))
        assert diag.strategy_residual(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_logit_and_strategy_forms_agree(self, rng):
        for _ in range(100):
            c, d = rng.uniform(-6, 6, 2)
            a = rng.uniform(0.5, 8)
            diag = bq.tangency_conditions(coeffs(a, -1, c, d))
            u = rng.uniform(-4, 4)
            gf = bq.GFunction(c, d)
            x = sigmoid(u)
            y = gf.value(u)
            assert diag.logit_residual(u) == pytest.approx(
                diag.strategy_residual(x, y), rel=1e-9, abs=1e-9)


class TestEqualTemperatureCriticals:
    def test_symmetric_unit_coordination_hits_cusp(self):
        game = bq.Game.from_matrices("d11", [[1, 0], [0, 1]], [[1, 0], [0, 1]])
        crit = bq.equal_temperature_criticals(game)
        assert len(crit) == 1
        t_c, u_c = crit[0]
        assert t_c == pytest.approx(0.5, abs=1e-6)
        assert abs(u_c) < 1e-3

    def test_prisoners_dilemma_has_none(self):
        assert bq.equal_temperature_criticals(bq.fixture("prisoners_dilemma")) is None

    def test_matching_pennies_has_none(self):
        assert bq.equal_temperature_criticals(bq.fixture("matching_pennies")) is None

    def test_stag_hunt_single_critical_below_bound(self):
        crit = bq.equal_temperature_criticals(bq.fixture("stag_hunt"))
        assert len(crit) == 1
        t_c = crit[0][0]
        assert 0.0 < t_c < 1.25  # slope >= 4 forces T <= 5/4

        # independent check: bisect the root-count flip over T
        base = bq.reduce_payoffs(bq.fixture("stag_hunt"), bq.Temperatures(1, 1))
        lo, hi = 0.5, 1.2
        assert bq.count_rest_points(base.at_temperatures(lo, lo)) == 3
        assert bq.count_rest_points(base.at_temperatures(hi, hi)) == 1
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if bq.count_rest_points(base.at_temperatures(mid, mid)) == 3:
                lo = mid
            else:
                hi = mid
        assert t_c == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_battle_coordination_single_critical(self):
        crit = bq.equal_temperature_criticals(bq.fixture("battle_coordination"))
        assert len(crit) == 1
        assert 0.5 < crit[0][0] < 0.75

    def test_criticals_satisfy_shared_temperature_quadratic(self):
        # Eliminating the response value from {rest point, tangency} under
        # a shared temperature leaves a quadratic in T,
        #   T^2 [4 cosh^2(u/2) + (rc/ra) u^2]
        #     - T u (rc/ra)(ra + 2 rb) + (rc/ra) rb (ra + rb) = 0,
        # an independent algebraic route to the same critical points.
        for name in ("stag_hunt", "battle_coordination", "hawk_dove"):
            game = bq.fixture(name)
            for t, u in bq.equal_temperature_criticals(game):
                co = bq.reduce_payoffs(game, bq.Temperatures(1, 1))
                ra, rb, rc = co.raw_a, co.raw_b, co.raw_c
                residual = (t * t * (4 * math.cosh(u / 2) ** 2
                                     + (rc / ra) * u * u)
                            - t * u * (rc / ra) * (ra + 2 * rb)
                            + (rc / ra) * rb * (ra + rb))
                assert abs(residual) < 1e-8, name

    def test_real_positive_quadratic_root_needs_interior_ratio(self, rng):
        # the quadratic above has a positive real root only when the
        # product of its leading and constant coefficients is negative,
        # which is exactly -1 < b/a < 0; cross-checked by brute counting
        for _ in range(300):
            ra = rng.uniform(4.5, 20.0)
            rc = rng.uniform(4.5, 20.0)
            rb = rng.uniform(-1.5, 0.5) * ra
            rd = -rc * rng.uniform(0.05, 0.95)
            inside = -1.0 < rb / ra < 0.0
            constant_sign = (rc / ra) * rb * (ra + rb)
            assert inside == (constant_sign < 0.0)
