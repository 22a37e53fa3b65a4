import math

import numpy as np
import pytest

import boltzq as bq


class TestInterceptExtrema:
    def test_shallow_coordination_ratio_unbounded_below(self):
        profile = bq.intercept_extrema(1.0, -0.8)
        assert profile.min_unbounded
        assert profile.delta_min is None
        assert profile.delta_max == 1.0

    def test_steep_ratio_capped_at_half(self):
        profile = bq.intercept_extrema(1.0, -1.5)
        assert not profile.min_unbounded
        assert profile.delta_max == 0.5
        assert profile.delta_min is not None
        assert -0.5 < profile.delta_min < 0.0

    def test_symmetric_ratio_extremal_at_origin(self):
        # d = -c/2 puts the inflection at u = 0 for every temperature
        profile = bq.intercept_extrema(1.0, -0.5)
        for ty in np.geomspace(1e-4, 1e3, 121)[::20]:
            assert abs(bq.GFunction(1.0 / ty, -0.5 / ty).inflection()) < 1e-9
        assert profile.delta_min == 0.0
        assert profile.delta_max == 1.0
        assert profile.extreme_at is None

    def test_ratio_between_minus_half_and_zero_unbounded_above(self):
        profile = bq.intercept_extrema(1.0, -0.25)
        assert profile.delta_min == 0.0
        assert profile.delta_max is None
        assert profile.max_unbounded and not profile.min_unbounded

    def test_zero_slope_not_applicable(self):
        with pytest.raises(bq.NotApplicableError):
            bq.intercept_extrema(0.0, 1.0)

    def test_mirror_relation(self):
        # relabeling maps ratio r -> -1 - r and delta -> 1 - delta
        low = bq.intercept_extrema(1.0, -1.4)
        high = bq.intercept_extrema(1.0, 0.4)
        assert high.delta_max == pytest.approx(1.0 - low.delta_min, abs=1e-6)

    def test_mirror_relation_is_exact(self):
        # an exact mirror pair in floats: 1 + -1.375 is -0.375, whereas
        # 1 + -1.4 is not -0.4, and the two tails' ty differ in the last bit
        low = bq.intercept_extrema(1.0, -1.375)
        high = bq.intercept_extrema(1.0, 0.375)
        assert high.delta_max == 1.0 - low.delta_min
        assert high.extreme_at == (low.extreme_at[0], -low.extreme_at[1])

    def test_negative_c_normalized(self):
        profile = bq.intercept_extrema(-1.0, 0.3)
        assert profile.ratio == pytest.approx(-0.7)
        assert profile.min_unbounded

    def test_negative_c_side_of_minus_half_is_the_given_ratios(self):
        # relabelled, d/c = -1/2 + 2**-54 is -1/2 - 2**-54, which rounds to
        # -1/2; the case is decided on d/c itself
        profile = bq.intercept_extrema(-1.0, 0.5 - 2.0 ** -54)
        assert profile.ratio == -0.5
        assert profile.min_unbounded and profile.delta_min is None

    def test_sampled_intercepts_are_true_tangent_intercepts(self, rng):
        for _ in range(50):
            c = rng.uniform(0.5, 20)
            d = rng.uniform(-20, 5)
            u = rng.uniform(-6, 6)
            gf = bq.GFunction(c, d)
            g, g1, _ = gf.eval(u)
            assert bq.tangent_intercept(gf, u) == pytest.approx(g - g1 * u,
                                                                abs=1e-14)


class TestClosedFormHelperInputs:
    @pytest.mark.parametrize("call", [
        lambda z: bq.symmetric_critical_offsets(z),
        lambda z: bq.corner_boundary(z),
        lambda z: bq.intercept_extrema(z, 1.0),
        lambda z: bq.intercept_extrema(1.0, z),
    ], ids=["offsets", "corner_boundary", "extrema_c", "extrema_d"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, call, bad):
        with pytest.raises(bq.DomainError):
            call(bad)


class TestZeroExplorationWindow:
    def test_reference_values(self):
        u_step, t_lo, t_hi = bq.zero_exploration_window(0.1, -0.8, 10.0)
        assert u_step == pytest.approx(math.log(4.0), abs=1e-15)
        assert t_lo == pytest.approx(0.7213475204444817, abs=1e-12)
        assert t_hi == pytest.approx(7.934822724889298, abs=1e-12)

    def test_mirror_region_maps_back(self):
        direct = bq.zero_exploration_window(0.1, -0.8, 10.0)
        mirrored = bq.zero_exploration_window(-1.1, -0.2, 10.0)
        assert mirrored == pytest.approx(direct, abs=1e-12)

    def test_boundary_ratio_rejected(self):
        with pytest.raises(bq.NotApplicableError):
            bq.zero_exploration_window(0.1, -0.5, 10.0)

    @pytest.mark.parametrize("ratio", [-1e-17, -1e-10, -1e-300])
    def test_mirror_keeps_the_tail_of_the_ratio(self, ratio):
        # the mirror is decided on d/c itself: -1 - d/c would round to
        # -1.0, or lose d/c's digits, next to d/c = 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            r = mpmath.mpf(ratio)
            u_step = mpmath.log((1 + r) / -r)
            exact = [float(v) for v in (u_step, 0.5 / u_step, 1.5 / u_step)]
        got = bq.zero_exploration_window(-1.5, ratio, 1.0)
        for value, ref in zip(got, exact):
            assert abs(value - ref) <= 1e-15 * ref

    def test_outside_region_rejected(self):
        with pytest.raises(bq.NotApplicableError):
            bq.zero_exploration_window(-0.3, -0.8, 10.0)

    def test_negative_raw_slope_rejected(self):
        with pytest.raises(bq.NotApplicableError):
            bq.zero_exploration_window(0.5, -0.7, -1.0)


class TestLocateCusp:
    def test_meeting_point(self):
        a_star, b_star = bq.locate_cusp()
        assert a_star == pytest.approx(4.0, abs=1e-3)
        assert b_star == pytest.approx(-2.0, abs=1e-3)

    def test_fold_condition_is_exact(self):
        a_star, b_star = bq.locate_cusp()
        assert (a_star, b_star) == (4.0, -2.0)
        assert bq.symmetric_critical_offsets(a_star) == (b_star, b_star)

    def test_branches_strictly_separated_above(self):
        for a in np.linspace(4.05, 30, 40):
            b_lo, b_hi = bq.symmetric_critical_offsets(float(a))
            assert b_hi > b_lo

    def test_symmetric_root_at_cusp_is_half(self):
        assert bq.solve_symmetric(4.0, -2.0) == pytest.approx([0.5], abs=1e-9)


class TestCriticalCurve:
    def test_window_matches_zero_noise_limit(self):
        game = bq.fixture("dominant_coordination")
        curve = bq.critical_curve(game, [1e-3])
        _, t_lo, t_hi = curve.samples[0]
        _, ref_lo, ref_hi = bq.zero_exploration_window(0.1, -0.8, 10.0)
        assert abs(t_lo - ref_lo) / ref_lo < 0.01
        assert abs(t_hi - ref_hi) / ref_hi < 0.01

    @pytest.mark.parametrize("ty", [1e-14, 1e-16, 1e-100, 1e-300])
    def test_window_reaches_the_zero_noise_limit(self, ty):
        # the tangencies are solved in Y's logit, so nothing cancels as the
        # opponent's temperature goes to 0
        game = bq.fixture("dominant_coordination")
        (_, t_lo, t_hi), = bq.critical_curve(game, [ty]).samples
        _, ref_lo, ref_hi = bq.zero_exploration_window(0.1, -0.8, 10.0)
        assert t_lo == pytest.approx(ref_lo, rel=1e-9)
        assert t_hi == pytest.approx(ref_hi, rel=1e-9)

    def test_window_closes_at_finite_temperature(self):
        game = bq.fixture("dominant_coordination")
        curve = bq.critical_curve(game, [0.5, 0.9, 1.1, 1.5])
        assert curve.samples[0][1] is not None
        assert curve.samples[-1][1] is None
        assert curve.closing_temperature is not None
        assert 0.9 < curve.closing_temperature < 1.1

    def test_counts_flip_across_window(self):
        game = bq.fixture("dominant_coordination")
        ty = 0.3
        curve = bq.critical_curve(game, [ty])
        _, t_lo, t_hi = curve.samples[0]
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, ty))
        mid = math.sqrt(t_lo * t_hi)
        assert bq.count_rest_points(co.at_temperatures(t_lo * 0.97, ty)) == 1
        assert bq.count_rest_points(co.at_temperatures(mid, ty)) == 3
        assert bq.count_rest_points(co.at_temperatures(t_hi * 1.03, ty)) == 1

    def test_swapped_orientation(self):
        # exchanging the players swaps which temperature carries the window
        game = bq.fixture("dominant_coordination")
        swapped = bq.Game("swapped", game.payoff_y, game.payoff_x)
        direct = bq.critical_curve(game, [0.3])
        via_orientation = bq.critical_curve(swapped, [0.3],
                                            orientation="ty_window_vs_tx")
        assert via_orientation.samples[0][1] == pytest.approx(
            direct.samples[0][1], rel=1e-9)

    def test_opposed_slopes_not_applicable(self):
        with pytest.raises(bq.NotApplicableError):
            bq.critical_curve(bq.fixture("matching_pennies"), [0.5])

    @pytest.mark.parametrize("ty", [1e-20, 1e-18])
    def test_anti_coordination_window_at_a_tiny_ratio(self, ty):
        # d/c = -1e-17 with raw_a, raw_c < 0: relabelled, Y's tail raw_c +
        # raw_d would round to -1.0 and the window would be lost; read in
        # the game's own frame, it matches a count scan on 10**(k/200)
        game = bq.Game.from_matrices("anti", [[0.0, 90.0], [10.0, 0.0]],
                                     [[1e-17, 1e-17], [1.0, 0.0]])
        samples = bq.critical_curve(game, [ty]).samples
        windows = [(lo, hi) for _, lo, hi in samples if lo is not None]
        assert windows
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, ty))
        for k in range(-2400, 201):  # tx from 1e-12 to 10
            tx = 10.0 ** (k / 200)
            if any(abs(tx - end) < 1e-9 * tx for w in windows for end in w):
                continue
            three = bq.count_rest_points(co.at_temperatures(tx, ty)) == 3
            assert three == any(lo < tx < hi for lo, hi in windows), tx

    @pytest.mark.parametrize("name", ["hawk_dove", "battle_coordination",
                                      "dominant_coordination", "stag_hunt"])
    def test_relabelling_x_keeps_the_windows(self, name):
        # x -> 1 - x flips both slopes' signs and leaves every window as
        # it was, so either frame gives the same ends to rounding
        game = bq.fixture(name)
        A, B = game.payoff_x.entries, game.payoff_y.entries
        twin = bq.Game.from_matrices("x", A[::-1], [row[::-1] for row in B])
        grid = [1e-12, 1e-3, 0.05, 0.3, 1.0]
        direct = bq.critical_curve(game, grid).samples
        relabelled = bq.critical_curve(twin, grid).samples
        assert [row[1] is None for row in direct] == [
            row[1] is None for row in relabelled]
        for row, other in zip(direct, relabelled):
            if row[1] is not None:
                assert other == pytest.approx(row, rel=1e-12)


class TestSweep:
    def test_stag_hunt_discontinuous_collapse(self):
        diagram = bq.sweep_equal_temperature(bq.fixture("stag_hunt"),
                                             0.2, 2.0, 60)
        assert diagram.pitchfork_kind == "discontinuous"
        assert len(diagram.critical_temperatures) == 1
        t_c = diagram.critical_temperatures[0]
        assert 0.7 < t_c < 0.75

    def test_saturated_rest_points_do_not_fail_the_sweep(self):
        # near T = 0.038 the high branch sits at y = 1 - 2e-15; the checked
        # eigenvalues there must not stop the sweep
        game = bq.Game.from_matrices(
            "saturated",
            [[0.02602310434056676, -2.6913866563308435],
             [-0.007104978121875938, 2.0244971626565818]],
            [[0.7760367787975255, 1.5033608257875803],
             [-1.575187639218211, 2.750485647285167]])
        diagram = bq.sweep_equal_temperature(
            game, 0.005167295497287159, 2.0669181989148635, 40)
        (t_c,) = diagram.critical_temperatures
        assert t_c == pytest.approx(0.11962516, rel=1e-7)
        assert diagram.pitchfork_kind == bq.classify_pitchfork(game)
        assert diagram.pitchfork_kind == "discontinuous"

    def test_stag_hunt_survivor_is_risk_dominant_side(self):
        diagram = bq.sweep_equal_temperature(bq.fixture("stag_hunt"),
                                             0.2, 2.0, 60)
        t_c = diagram.critical_temperatures[0]
        risk = bq.risk_dominant_profile(bq.fixture("stag_hunt"))
        co = bq.reduce_payoffs(bq.fixture("stag_hunt"), bq.Temperatures(1, 1))
        survivor = bq.find_rest_points(
            co.at_temperatures(t_c + 1e-3, t_c + 1e-3))[0]
        below = bq.find_rest_points(
            co.at_temperatures(t_c - 1e-3, t_c - 1e-3))
        stable = [p for p in below if p.stability != "saddle_unstable"]
        dist_to_risk = {math.hypot(p.x - risk.x, p.y - risk.y): p
                        for p in stable}
        closest = dist_to_risk[min(dist_to_risk)]
        assert math.hypot(survivor.x - closest.x, survivor.y - closest.y) < 0.05

    def test_battle_continuous_collapse(self):
        diagram = bq.sweep_equal_temperature(bq.fixture("battle_coordination"),
                                             0.2, 2.0, 60)
        assert diagram.pitchfork_kind == "continuous"

    def test_matching_pennies_single_flat_branch(self):
        diagram = bq.sweep_equal_temperature(bq.fixture("matching_pennies"),
                                             0.2, 2.0, 40)
        assert diagram.critical_temperatures == []
        assert diagram.pitchfork_kind is None
        assert len(diagram.branches) == 1
        for _, point in diagram.branches[0]:
            assert (point.x, point.y) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_branches_are_continuous(self):
        diagram = bq.sweep_equal_temperature(bq.fixture("stag_hunt"),
                                             0.2, 2.0, 60)
        for branch in diagram.branches:
            for (t0, p0), (t1, p1) in zip(branch, branch[1:]):
                assert t1 > t0
                assert math.hypot(p1.x - p0.x, p1.y - p0.y) < 0.05

    def test_anti_coordination_continuous(self):
        diagram = bq.sweep_equal_temperature(bq.fixture("hawk_dove"),
                                             0.2, 2.0, 60)
        assert diagram.pitchfork_kind == "continuous"

    def test_three_clean_branches_per_coordination_fixture(self):
        # two branches die at the collapse, one continues through it
        for name in ("stag_hunt", "battle_coordination", "hawk_dove"):
            diagram = bq.sweep_equal_temperature(bq.fixture(name),
                                                 0.2, 2.0, 60)
            assert len(diagram.branches) == 3, name
            t_end = sorted(branch[-1][0] for branch in diagram.branches)
            t_c = diagram.critical_temperatures[0]
            assert t_end[0] == pytest.approx(t_c, rel=1e-2)
            assert t_end[1] == pytest.approx(t_c, rel=1e-2)
            assert t_end[2] == pytest.approx(2.0, rel=1e-6)

    def test_branches_approach_equilibria_at_low_noise(self):
        # as exploration vanishes the three rest points converge to the
        # game's three equilibria (two pure, one mixed)
        co = bq.reduce_payoffs(bq.fixture("stag_hunt"), bq.Temperatures(1, 1))
        points = bq.find_rest_points(co.at_temperatures(0.02, 0.02))
        assert len(points) == 3
        assert math.hypot(points[0].x - 0.0, points[0].y - 0.0) < 1e-3
        assert math.hypot(points[2].x - 1.0, points[2].y - 1.0) < 1e-3
        assert math.hypot(points[1].x - 0.4, points[1].y - 0.4) < 0.01

    def test_prisoners_dilemma_rest_point_noise_limits(self):
        # cold limit: the Nash point (defection); hot limit: uniform play
        co = bq.reduce_payoffs(bq.fixture("prisoners_dilemma"),
                               bq.Temperatures(1, 1))
        cold, = bq.find_rest_points(co.at_temperatures(0.01, 0.01))
        hot, = bq.find_rest_points(co.at_temperatures(100.0, 100.0))
        assert cold.x < 1e-6 and cold.y < 1e-6
        assert abs(hot.x - 0.5) < 0.01 and abs(hot.y - 0.5) < 0.01


class TestClassifyPitchfork:
    def test_fixture_taxonomy(self):
        expected = {
            "stag_hunt": "discontinuous",
            "battle_coordination": "continuous",
            "hawk_dove": "continuous",
            "matching_pennies": "none",
            "prisoners_dilemma": "none",
            "dominant_coordination": "none",
        }
        for name, kind in expected.items():
            assert bq.classify_pitchfork(bq.fixture(name)) == kind, name

    def test_agrees_with_sweep_separation_criterion(self):
        for name in ("stag_hunt", "battle_coordination", "hawk_dove"):
            kind = bq.classify_pitchfork(bq.fixture(name))
            diagram = bq.sweep_equal_temperature(bq.fixture(name), 0.2, 2.0, 50)
            assert diagram.pitchfork_kind == kind, name

    @pytest.mark.parametrize("eps,kind", [(1e-14, "continuous"),
                                          (1e-12, "discontinuous"),
                                          (1e-10, "discontinuous"),
                                          (1e-9, "discontinuous"),
                                          (2e-9, "discontinuous")])
    def test_perturbed_battle_follows_the_top_fold(self, eps, kind):
        # A00 = 1 + eps breaks the cusp: the top fold is an ordinary one
        # (0.7287654052750053 at eps = 1e-10, against the cusp at
        # 0.728765477784689) unless eps is below the merge's rounding
        game = bq.Game.from_matrices("battle_eps", [[1.0 + eps, 0.0],
                                                    [0.0, 2.0]],
                                     [[2.0, 0.0], [0.0, 1.0]])
        diagram = bq.sweep_equal_temperature(game, 0.05, 5.0, 80)
        assert diagram.pitchfork_kind == kind
        assert bq.classify_pitchfork(game) == kind

    def test_pure_coordination_cusp_at_the_top_of_the_grid(self):
        # sqrt(raw_a*raw_c)/4 = 0.5 is the top of the criticals grid, and
        # the cusp sits exactly there
        game = bq.Game.from_matrices("pure", [[1.0, 0.0], [0.0, 1.0]],
                                     [[1.0, 0.0], [0.0, 1.0]])
        assert bq.equal_temperature_criticals(game) == [(0.5, 0.0)]
        assert bq.classify_pitchfork(game) == "continuous"
        assert bq.sweep_equal_temperature(
            game, 0.05, 5.0, 80).pitchfork_kind == "continuous"

    @pytest.mark.parametrize("stake", [1.0, 1.5])
    def test_cusp_on_the_top_of_the_grid_with_unequal_stakes(self, stake):
        # b/a = d/c = -1/2 puts the cusp exactly on sqrt(raw_a*raw_c)/4,
        # where rounding gives a stationary pair (stake 1) or three rest
        # points (stake 1.5); the criticals grid starts half a step above
        game = bq.Game.from_matrices("stakes", [[stake, 0.0], [0.0, stake]],
                                     [[3.0, 0.0], [0.0, 3.0]])
        (t_c, u_c), = bq.equal_temperature_criticals(game)
        assert t_c == pytest.approx(math.sqrt(2.0 * stake * 6.0) / 4.0,
                                    rel=1e-15)
        assert u_c == 0.0
        assert bq.sweep_equal_temperature(
            game, 0.05, 5.0, 80).pitchfork_kind == "continuous"
        assert bq.classify_pitchfork(game) == "continuous"

    def test_continuous_point_is_inflection(self):
        # At the symmetric collapse the tangency point is also the response
        # curve's inflection.  The (u, T) tangency system is degenerate
        # there (that degeneracy is the pitchfork), so the solved u is only
        # sqrt-accurate along the flat direction; the invariant is checked
        # by confirming that all three conditions (rest point, tangency,
        # zero curvature) co-hold at the inflection point at T_c.
        for name in ("battle_coordination", "hawk_dove"):
            game = bq.fixture(name)
            (t_c, u_c), = bq.equal_temperature_criticals(game)
            co = bq.reduce_payoffs(game, bq.Temperatures(t_c, t_c))
            gf = bq.GFunction(co.c, co.d)
            u0 = gf.inflection()
            assert abs(u0 - u_c) < 1e-3, name
            g, g1, g2 = gf.eval(u0)
            assert abs(g2) < 1e-6, name
            assert abs((t_c * u0 - co.raw_b) / co.raw_a - g) < 1e-6, name
            assert abs(co.a * g1 - 1.0) < 1e-6, name

    def test_discontinuous_point_is_not_inflection(self):
        # contrast: at a plain fold the tangency point has genuine curvature
        (t_c, u_c), = bq.equal_temperature_criticals(bq.fixture("stag_hunt"))
        co = bq.reduce_payoffs(bq.fixture("stag_hunt"),
                               bq.Temperatures(t_c, t_c))
        assert abs(bq.GFunction(co.c, co.d).eval(u_c)[2]) > 1e-3


class TestCornerBoundaryCache:
    def test_cached_and_negative(self):
        first = bq.corner_boundary(-1.3)
        second = bq.corner_boundary(-1.3)
        assert first == second
        assert -0.5 < first < 0.0

    def test_boundary_separates_triple_region(self):
        # just inside the bound triples exist somewhere; just outside they
        # never do (checked on a temperature grid)
        ratio = -1.5
        bound = bq.corner_boundary(ratio)
        inside = bq.ReducedCoefficients.from_values(
            10.0, -10.0 * bound * 0.5, 10.0, 10.0 * ratio)
        outside = bq.ReducedCoefficients.from_values(
            10.0, -10.0 * bound * 2.0, 10.0, 10.0 * ratio)
        grid = np.geomspace(0.01, 10, 36)
        n_inside = sum(bq.count_rest_points(inside.at_temperatures(tx, ty)) == 3
                       for tx in grid for ty in grid)
        n_outside = sum(bq.count_rest_points(outside.at_temperatures(tx, ty)) == 3
                        for tx in grid for ty in grid)
        assert n_inside > 0
        assert n_outside == 0


def inflection_intercept(ratio, ty):
    """The lowest tangent intercept of g at one ty (raw_c = 1)."""
    gf = bq.GFunction(1.0 / ty, ratio / ty)
    return bq.tangent_intercept(gf, gf.inflection())


def mp_intercept(ratio, c, u):
    """``g - g'*u`` at (c = 1/ty, u) for raw_c = 1, in mpmath's precision."""
    mpmath = pytest.importorskip("mpmath")
    s = 1 / (1 + mpmath.exp(-u))
    g = 1 / (1 + mpmath.exp(-c * (mpmath.mpf(ratio) + s)))
    return g - c * g * (1 - g) * s * (1 - s) * u


def mp_extreme_intercept(ratio, ty, u):
    """The stationary value of ``g - g'*u`` over (u, ln c), by mpmath's
    Newton from a float extreme (ty, u) at its working precision, with
    the Hessian as the Jacobian, until the gradient is below 1e-30."""
    mpmath = pytest.importorskip("mpmath")

    def diff(u, lc, order):
        return mpmath.diff(lambda w, x: mp_intercept(ratio, mpmath.exp(x), w),
                           (u, lc), order)

    def hessian(u, lc):
        cross = diff(u, lc, (1, 1))
        return [[diff(u, lc, (2, 0)), cross], [cross, diff(u, lc, (0, 2))]]

    u, lc = mpmath.findroot(
        lambda u, lc: [diff(u, lc, (1, 0)), diff(u, lc, (0, 1))],
        (mpmath.mpf(u), -mpmath.log(ty)), J=hessian, tol=mpmath.mpf(1e-60))
    return float(mp_intercept(ratio, mpmath.exp(lc), u))


def mp_corner_bound(ratio):
    """The lowest tangent intercept to 50 digits, from the float extreme."""
    mpmath = pytest.importorskip("mpmath")
    ty, u = bq.intercept_extrema(1.0, ratio).extreme_at
    with mpmath.workdps(50):
        return mp_extreme_intercept(ratio, ty, u)


def mp_tail_bound(tail, ty, u):
    """The lowest tangent intercept at the ratio -1 - tail, which a float
    cannot hold for tail < 2**-53, to 40 digits past the tail's, from the
    float extreme (ty, u)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + round(-math.log10(tail))):
        return mp_extreme_intercept(-1 - mpmath.mpf(tail), ty, u)


#: the log grid of ty the corner bound used to be the minimum over
SCAN_GRID = np.geomspace(1e-4, 1e3, 121)


class TestCornerBoundaryExact:
    @pytest.mark.slow
    def test_bound_is_the_infimum_of_dense_ty_scans(self):
        rng = np.random.default_rng(20261018)
        ratios = (-1.0 - rng.exponential(2.0, 200)).tolist()
        ratios += [-1.001, -1.01, -1.3, -2.0, -10.0]
        mpmath = pytest.importorskip("mpmath")
        for ratio in ratios:
            bound = bq.corner_boundary(ratio)
            ty_star, u_star = bq.intercept_extrema(1.0, ratio).extreme_at
            with mpmath.workdps(50):
                exact = float(mp_intercept(ratio, 1 / mpmath.mpf(ty_star),
                                           mpmath.mpf(u_star)))
            assert abs(bound - exact) <= 1e-13 * abs(exact), ratio
            near = ty_star * np.exp(np.linspace(-0.5, 0.5, 4001))
            scan = min(inflection_intercept(ratio, float(ty))
                       for ty in np.concatenate([SCAN_GRID, near]))
            assert bound <= scan + 1e-12 * abs(scan) + 1e-300, ratio

    @pytest.mark.parametrize("a_rows, b_rows", [
        ([[1.0211, 0.0211], [0, 0]], [[-0.3, 0], [0, 1.3]]),
        ([[1.8226, 0.8226], [0, 0]], [[-0.001, 0], [0, 1.001]]),
    ])
    def test_corner_games_below_the_grid_bound_have_triples(self, a_rows,
                                                           b_rows):
        # -b/a lies between the exact bound and the old 121-point grid's
        game = bq.Game.from_matrices("corner", a_rows, b_rows)
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        assert bq.classify_region(co).triple_possible
        ty, _ = bq.intercept_extrema(co.raw_c, co.raw_d).extreme_at
        (_, t_lo, t_hi), = bq.critical_curve(game, [ty]).samples
        mid = 0.5 * (t_lo + t_hi)
        assert bq.count_rest_points(co.at_temperatures(mid, ty)) == 3

    def test_corner_game_next_to_ratio_minus_one_has_triples(self):
        # d/c = -1 - 2^-52: the bound is -6.898..., below -b/a = -6.85
        game = bq.Game.from_matrices("corner", [[7.85, 6.85], [0, 0]],
                                     [[-2**-52, -1 - 2**-52], [0, 0]])
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        assert bq.classify_region(co).triple_possible
        ty, _ = bq.intercept_extrema(co.raw_c, co.raw_d).extreme_at
        (_, t_lo, t_hi), = bq.critical_curve(game, [ty]).samples
        assert 0.0 < t_lo < t_hi
        # the root kernel sees the same triple inside the window
        mid = bq.reduce_payoffs(game, bq.Temperatures(0.5 * (t_lo + t_hi), ty))
        assert bq.count_rest_points(mid) == 3
        assert len(bq.find_rest_points(mid)) == 3

    @pytest.mark.parametrize("ratio", [-1 - 2**-52, -1 - 1e-12, -1 - 1e-9])
    def test_bound_is_exact_next_to_ratio_minus_one(self, ratio):
        exact = mp_corner_bound(ratio)
        assert abs(bq.corner_boundary(ratio) - exact) <= 1e-14 * abs(exact)

    @pytest.mark.parametrize("tail", [3e-16, 1e-16, 2.0 ** -60, 1e-300])
    def test_mirror_is_exact_next_to_ratio_zero(self, tail):
        # the mirror of r > 0 is -1 - r, which is -1.0 in floats for
        # r < 2**-53: the bound is solved from the tail r itself
        profile = bq.intercept_extrema(1.0, tail)
        ty, u = profile.extreme_at
        exact = 1.0 - mp_tail_bound(tail, ty, -u)
        assert abs(profile.delta_max - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("tail, exact", [
        (1e-3, -0.82282365769780355), (1e-100, -49.937362830510799),
        (1e-310, -157.93145152171716), (1e-315, -160.50525207266189),
        (5e-324, -164.78108643827673)])
    def test_lowest_intercept_is_exact_down_to_subnormal_tails(self, tail,
                                                               exact):
        # references from mpmath at 420 digits; below 2**-1022 the tail
        # is subnormal and sinh(u0) overflows, so neither is formed
        profile = bq.intercept_extrema(-1.0, -tail)  # relabelled: r = tail
        assert abs(profile.delta_min - exact) <= 1e-14 * abs(exact)
        ty, u = profile.extreme_at
        assert 0.0 < ty < 1.0 and 0.0 < u < 746.0

    @pytest.mark.parametrize("raw_d", [-1e-10, -1e-17, -1e-300])
    def test_relabelled_ratio_keeps_its_tail(self, raw_d):
        # raw_c < 0 relabels d/c to -1 - d/c, whose tail -d/c is kept
        # exactly where -1 - d/c rounds to -1.0
        profile = bq.intercept_extrema(-1.0, raw_d)
        assert not profile.min_unbounded
        ty, u = profile.extreme_at
        exact = mp_tail_bound(-raw_d, ty, u)
        assert abs(profile.delta_min - exact) <= 1e-13 * abs(exact)
        mirror = bq.intercept_extrema(1.0, -raw_d)
        assert profile.delta_min == 1.0 - mirror.delta_max

    @pytest.mark.parametrize("eps", [1e-10, 1e-17, 1e-300])
    def test_anti_coordination_corner_is_exact(self, eps):
        # relabelled, d/c = -1 - eps/(1 - eps), which rounds toward -1.0
        game = bq.Game.from_matrices("corner", [[0.0, -1.0], [2.0, 0.0]],
                                     [[0.0, -eps], [1.0, 0.0]])
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        region = bq.classify_region(co)
        assert region.label is bq.GameRegionLabel.NUMERIC_BOUNDARY
        ty, u = bq.intercept_extrema(1.0, co.d_over_c).extreme_at  # mirror
        exact = mp_tail_bound(co.d_over_c, ty, -u)
        assert abs(region.boundary - exact) <= 1e-13 * abs(exact)

    def test_extreme_sits_where_the_ty_slope_vanishes(self):
        for ratio in (-1.001, -1.3, -2.0, -10.0):
            ty, _ = bq.intercept_extrema(1.0, ratio).extreme_at
            bound = bq.corner_boundary(ratio)
            for step in (1e-3, 1e-2, 0.1):
                assert inflection_intercept(ratio, ty * math.exp(step)) > bound
                assert inflection_intercept(ratio, ty * math.exp(-step)) > bound
