import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import boltzq as bq
from boltzq.numerics import sigmoid

from test_cli import run_child


def mp_coeffs(t=1.0):
    return bq.reduce_payoffs(bq.fixture("matching_pennies"),
                             bq.Temperatures(t, t))


def random_game(rng, n=2, span=5.0, name="rnd"):
    a = rng.uniform(-span, span, (n, n))
    b = rng.uniform(-span, span, (n, n))
    return bq.Game.from_matrices(name, a.tolist(), b.tolist())


class TestStrategyVelocity:
    def test_matching_pennies_center_is_still(self):
        assert bq.strategy_velocity((0.5, 0.5), mp_coeffs()) == (0.0, 0.0)

    def test_rejects_boundary(self):
        with pytest.raises(bq.DomainError):
            bq.strategy_velocity((0.0, 0.5), mp_coeffs())

    def test_vanishes_exactly_at_solved_rest_points(self, rng):
        # cross-module consistency with the rest-point solver
        for _ in range(200):
            a, b, c, d = rng.uniform(-15, 15, 4)
            co = bq.ReducedCoefficients.from_values(a, b, c, d)
            for p in bq.find_rest_points(co, fd_check=False):
                if min(p.x, 1 - p.x, p.y, 1 - p.y) <= 0.0:
                    continue  # saturated beyond float interior
                fx, fy = bq.strategy_velocity((p.x, p.y), co)
                assert max(abs(fx), abs(fy)) < 1e-10

    def test_x_component_vanishes_on_symmetric_root(self):
        # bisection oracle for 5x - 2 = ln(x/(1-x)), then the x-velocity
        # must vanish there for any y on the x-nullcline structure
        co = bq.ReducedCoefficients.from_values(5, -2, 5, -2)
        lo, hi = 0.5, 0.99
        f = lambda x: 5 * x - 2 - math.log(x / (1 - x))
        assert f(lo) > 0 > f(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        fx, _ = bq.strategy_velocity((root, root), co)
        assert abs(fx) < 1e-12

    def test_velocity_dies_like_x_log_x_near_boundary(self):
        co = mp_coeffs()
        for x in (1e-6, 1e-9, 1e-12):
            fx, _ = bq.strategy_velocity((x, 0.3), co)
            bound = x * (1 - x) * (abs(co.a) + abs(co.b)
                                   + abs(math.log(x / (1 - x))))
            assert abs(fx) <= bound + 1e-15
            assert abs(fx) < 40 * x * abs(math.log(x))

    def test_logit_and_strategy_velocities_are_chain_rule_related(self, rng):
        for _ in range(200):
            a, b, c, d = rng.uniform(-10, 10, 4)
            co = bq.ReducedCoefficients.from_values(a, b, c, d)
            x, y = rng.uniform(0.02, 0.98, 2)
            u, v = math.log(x / (1 - x)), math.log(y / (1 - y))
            fx, fy = bq.strategy_velocity((x, y), co)
            du, dv = bq.logit_velocity((u, v), co)
            assert fx == pytest.approx(x * (1 - x) * du, rel=1e-9, abs=1e-12)
            assert fy == pytest.approx(y * (1 - y) * dv, rel=1e-9, abs=1e-12)


class TestReplicatorVelocity:
    def test_outputs_sum_to_zero(self, rng):
        for _ in range(100):
            n = rng.integers(2, 6)
            game = random_game(rng, n)
            x = rng.dirichlet(np.ones(n) * 2)
            y = rng.dirichlet(np.ones(n) * 2)
            x, y = x / x.sum(), y / y.sum()
            dx, dy = bq.replicator_velocity(x, y, game,
                                            bq.Temperatures(0.7, 1.3))
            assert abs(dx.sum()) < 1e-10
            assert abs(dy.sum()) < 1e-10

    def test_uniform_all_ones_game_is_still(self):
        ones = [[1.0] * 3] * 3
        game = bq.Game.from_matrices("ones", ones, ones)
        x = np.full(3, 1 / 3)
        dx, dy = bq.replicator_velocity(x, x, game, bq.Temperatures(1, 1))
        assert np.max(np.abs(dx)) < 1e-14
        assert np.max(np.abs(dy)) < 1e-14

    def test_two_action_reduction(self, rng):
        # For n = 2 the simplex field reduces to the scaled-coefficient
        # form; the per-agent clocks differ by the own temperature factor
        # pulled into the coefficients, so components match after dividing
        # by tx (resp. ty), exactly so at unit temperatures.
        for _ in range(1000):
            game = random_game(rng)
            tx, ty = rng.uniform(0.2, 5.0, 2)
            temps = bq.Temperatures(tx, ty)
            co = bq.reduce_payoffs(game, temps)
            x, y = rng.uniform(0.05, 0.95, 2)
            dx_vec, dy_vec = bq.replicator_velocity(
                np.array([x, 1 - x]), np.array([y, 1 - y]), game, temps)
            fx, fy = bq.strategy_velocity((x, y), co)
            assert dx_vec[0] == pytest.approx(tx * fx, rel=1e-10, abs=1e-10)
            assert dy_vec[0] == pytest.approx(ty * fy, rel=1e-10, abs=1e-10)

    def test_two_action_reduction_exact_at_unit_temperature(self, rng):
        for _ in range(200):
            game = random_game(rng)
            temps = bq.Temperatures(1.0, 1.0)
            co = bq.reduce_payoffs(game, temps)
            x, y = rng.uniform(0.05, 0.95, 2)
            dx_vec, _ = bq.replicator_velocity(
                np.array([x, 1 - x]), np.array([y, 1 - y]), game, temps)
            fx, _ = bq.strategy_velocity((x, y), co)
            assert dx_vec[0] == pytest.approx(fx, rel=1e-10, abs=1e-10)

    def test_rejects_non_simplex(self):
        game = random_game(np.random.default_rng(0))
        with pytest.raises(bq.DomainError):
            bq.replicator_velocity([0.6, 0.6], [0.5, 0.5], game,
                                   bq.Temperatures(1, 1))
        with pytest.raises(bq.DomainError):
            bq.replicator_velocity([1.0, 0.0], [0.5, 0.5], game,
                                   bq.Temperatures(1, 1))


class TestQVelocity:
    def test_fixed_point_at_expected_rewards(self, rng):
        game = random_game(rng, 3)
        y = np.array([0.2, 0.5, 0.3])
        r = np.asarray(game.payoff_x.entries) @ y
        assert np.max(np.abs(bq.q_velocity(r, y, game.payoff_x, 0.3))) == 0.0

    def test_linearity_in_alpha(self, rng):
        game = random_game(rng, 3)
        q = rng.uniform(-1, 1, 3)
        y = np.array([0.1, 0.6, 0.3])
        v1 = bq.q_velocity(q, y, game.payoff_x, 0.25)
        v2 = bq.q_velocity(q, y, game.payoff_x, 0.5)
        assert np.allclose(v2, 2 * v1, rtol=1e-14)

    def test_value_trajectory_maps_onto_strategy_flow(self, rng):
        # Integrate the value estimates of both agents, push them through
        # the softmax, and compare with the simplex flow integrated
        # directly, matching clocks via t -> alpha * t / T.
        game = random_game(rng, 3, span=1.0)
        temp, alpha = 0.7, 0.35
        temps = bq.Temperatures(temp, temp)
        qx0 = rng.uniform(-0.5, 0.5, 3)
        qy0 = rng.uniform(-0.5, 0.5, 3)

        def softmax(q):
            z = q / temp
            z = z - z.max()
            e = np.exp(z)
            return e / e.sum()

        def q_rhs(t, z):
            x, y = softmax(z[:3]), softmax(z[3:])
            return np.concatenate([
                bq.q_velocity(z[:3], y, game.payoff_x, alpha),
                bq.q_velocity(z[3:], x, game.payoff_y, alpha)])

        def rep_rhs(t, z):
            x, y = z[:3], z[3:]
            dx, dy = bq.replicator_velocity(x / x.sum(), y / y.sum(),
                                            game, temps)
            return np.concatenate([dx, dy])

        horizon = 6.0
        sol_q = solve_ivp(q_rhs, (0.0, horizon * temp / alpha),
                          np.concatenate([qx0, qy0]),
                          rtol=1e-11, atol=1e-13, dense_output=True)
        sol_r = solve_ivp(rep_rhs, (0.0, horizon),
                          np.concatenate([softmax(qx0), softmax(qy0)]),
                          rtol=1e-11, atol=1e-13, dense_output=True)
        for tau in np.linspace(0.3, horizon, 9):
            zq = sol_q.sol(tau * temp / alpha)
            zr = sol_r.sol(tau)
            assert np.max(np.abs(softmax(zq[:3]) - zr[:3])) < 1e-8
            assert np.max(np.abs(softmax(zq[3:]) - zr[3:])) < 1e-8


class TestGibbsAndFreeEnergy:
    def test_gibbs_example(self):
        probs = bq.gibbs_distribution([1.0, 0.0], 1.0)
        assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert probs[1] == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_equal_rewards_uniform(self):
        assert np.allclose(bq.gibbs_distribution([2.0, 2.0, 2.0], 0.3), 1 / 3)

    def test_high_temperature_approaches_uniform(self):
        probs = bq.gibbs_distribution([1.0, 0.0], 1e6)
        assert np.max(np.abs(probs - 0.5)) < 1e-6

    def test_normalization_tight(self, rng):
        for _ in range(100):
            n = rng.integers(2, 8)
            probs = bq.gibbs_distribution(rng.uniform(-50, 50, n),
                                          rng.uniform(0.05, 10))
            assert abs(probs.sum() - 1.0) <= 1e-14

    def test_free_energy_uniform_entropy(self):
        n = 5
        value = bq.free_energy(np.full(n, 1 / n), np.zeros(n), 0.7)
        assert value == pytest.approx(-0.7 * math.log(n), abs=1e-12)

    def test_log_partition_identity(self, rng):
        for _ in range(50):
            n = rng.integers(2, 6)
            r = rng.uniform(-3, 3, n)
            t = rng.uniform(0.1, 5)
            probs = bq.gibbs_distribution(r, t)
            lhs = bq.free_energy(probs, r, t)
            rhs = -t * math.log(np.sum(np.exp(r / t)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_zero_component_needs_flag(self):
        with pytest.raises(bq.DomainError):
            bq.free_energy([0.0, 1.0], [1.0, 2.0], 1.0)
        value = bq.free_energy([0.0, 1.0], [1.0, 2.0], 1.0, allow_zero=True)
        assert value == pytest.approx(-2.0, abs=1e-12)


class TestDissipation:
    def test_rate_examples(self):
        assert bq.dissipation_rate(bq.Temperatures(0.3, 0.7), 2) == -1.0
        assert bq.dissipation_rate(bq.Temperatures(1, 1), 3) == -4.0

    def test_divergence_matches_rate_two_actions(self, rng):
        for _ in range(20):
            game = random_game(rng)
            temps = bq.Temperatures(*rng.uniform(0.2, 3.0, 2))
            point = tuple(rng.uniform(-2, 2, 2))
            div = bq.numerical_divergence(point, game, temps)
            assert div == pytest.approx(bq.dissipation_rate(temps, 2),
                                        abs=1e-6)

    def test_divergence_matches_rate_three_actions(self, rng):
        for _ in range(10):
            game = random_game(rng, 3)
            temps = bq.Temperatures(*rng.uniform(0.2, 3.0, 2))
            point = (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            div = bq.numerical_divergence(point, game, temps)
            assert div == pytest.approx(bq.dissipation_rate(temps, 3),
                                        abs=1e-6)

    def test_log_ratio_field_consistent_with_replicator(self, rng):
        # d/dt ln(x_{k+1}/x_1) computed from the simplex field must equal
        # the log-ratio field directly.
        for _ in range(50):
            n = rng.integers(2, 5)
            game = random_game(rng, n)
            temps = bq.Temperatures(*rng.uniform(0.2, 3.0, 2))
            x = rng.dirichlet(np.ones(n) * 3)
            y = rng.dirichlet(np.ones(n) * 3)
            x, y = x / x.sum(), y / y.sum()
            dx, dy = bq.replicator_velocity(x, y, game, temps)
            w_x = np.log(x[1:] / x[0])
            w_y = np.log(y[1:] / y[0])
            fw_x, fw_y = bq.log_ratio_field(game, temps, w_x, w_y)
            assert np.allclose(fw_x, dx[1:] / x[1:] - dx[0] / x[0],
                               atol=1e-9)
            assert np.allclose(fw_y, dy[1:] / y[1:] - dy[0] / y[0],
                               atol=1e-9)


class TestIntegrate:
    def test_matching_pennies_converges_to_center(self):
        traj = bq.integrate((0.9, 0.1), mp_coeffs())
        assert traj.terminal_reason == "converged"
        assert abs(traj.final.x - 0.5) < 1e-6
        assert abs(traj.final.y - 0.5) < 1e-6

    def test_start_at_rest_point_stays(self):
        traj = bq.integrate((0.5, 0.5), mp_coeffs())
        assert traj.terminal_reason == "converged"
        assert len(traj) == 1

    def test_forced_run_from_rest_point_stays_close(self):
        cfg = bq.IntegratorConfig(convergence_speed_tol=1e-14, max_time=50.0)
        traj = bq.integrate((0.5, 0.5), mp_coeffs(), cfg)
        for x, y in zip(traj.xs, traj.ys):
            assert abs(x - 0.5) < 1e-8 and abs(y - 0.5) < 1e-8

    def test_times_strictly_increasing_and_interior(self):
        traj = bq.integrate((0.9, 0.1), mp_coeffs())
        times = np.asarray(traj.times)
        assert np.all(np.diff(times) > 0)
        assert all(0 < x < 1 and 0 < y < 1
                   for x, y in zip(traj.xs, traj.ys))

    def test_prisoners_dilemma_many_starts_same_endpoint(self, rng):
        co = bq.reduce_payoffs(bq.fixture("prisoners_dilemma"),
                               bq.Temperatures(1, 1))
        starts = rng.uniform(0.02, 0.98, (30, 2))
        finals, reason = bq.integrate_batch(starts, co)
        assert reason == "converged"
        spread = np.max(finals, axis=0) - np.min(finals, axis=0)
        assert np.max(spread) < 1e-6

    def test_rejects_exterior_start(self):
        with pytest.raises(bq.DomainError):
            bq.integrate((1.2, 0.5), mp_coeffs())

    def test_all_fixtures_converge_no_cycles(self):
        # dissipation excludes limit cycles: every fixture run must end
        # with reason "converged" well before the default horizon
        starts = [(0.2, 0.8), (0.7, 0.3)]
        for name in bq.FIXTURES:
            for t in (0.01, 0.1, 1.0, 10.0):
                co = bq.reduce_payoffs(bq.fixture(name),
                                       bq.Temperatures(t, t))
                for start in starts:
                    traj = bq.integrate(start, co)
                    assert traj.terminal_reason == "converged", (name, t)
                    assert traj.times[-1] < 1e4


class TestSingleAgentFlow:
    def test_terminal_is_gibbs(self, rng):
        for _ in range(10):
            n = rng.integers(2, 5)
            r = rng.uniform(-2, 2, n)
            t = rng.uniform(0.1, 10)
            x0 = rng.dirichlet(np.ones(n) * 2)
            x0 = x0 / x0.sum()
            traj = bq.integrate_single_agent(r, t, x0)
            assert traj.terminal_reason == "converged"
            assert np.max(np.abs(traj.final - bq.gibbs_distribution(r, t))) < 1e-8

    def test_free_energy_descends(self, rng):
        for _ in range(10):
            n = rng.integers(2, 5)
            r = rng.uniform(-2, 2, n)
            t = rng.uniform(0.1, 10)
            x0 = rng.dirichlet(np.ones(n) * 2)
            x0 = x0 / x0.sum()
            traj = bq.integrate_single_agent(r, t, x0)
            values = [bq.free_energy(p, r, t) for p in traj.points]
            drops = np.diff(values)
            assert np.all(drops <= 1e-10)

    def test_closed_form_matches_solve_ivp(self, rng):
        # scipy's RK45 on the linear log-ratio flow is the independent oracle
        for _ in range(10):
            n = int(rng.integers(2, 5))
            r = rng.uniform(-2, 2, n)
            t = float(rng.uniform(0.1, 10))
            x0 = rng.dirichlet(np.ones(n) * 2)
            traj = bq.integrate_single_agent(r, t, x0)
            gaps = r[1:] - r[0]
            sol = solve_ivp(lambda _, w: gaps - t * w, (0.0, traj.times[-1]),
                            np.log(x0[1:] / x0[0]), t_eval=traj.times,
                            rtol=1e-12, atol=1e-14)
            for k, w in enumerate(sol.y.T):
                ref = np.exp(np.concatenate(([0.0], w)))
                assert np.max(np.abs(traj.points[k] - ref / ref.sum())) < 1e-9

    def test_rows_every_speed_halving(self):
        traj = bq.integrate_single_agent([1.0, 0.0, 0.5], 0.5, [0.2, 0.5, 0.3])
        steps = np.diff(traj.times)
        assert np.allclose(steps[:-1], math.log(2.0) / 0.5, rtol=1e-12)
        assert 0.0 < steps[-1] <= math.log(2.0) / 0.5 * (1 + 1e-12)

    def test_horizon_below_stop_time(self):
        cfg = bq.IntegratorConfig(max_time=1.5)
        traj = bq.integrate_single_agent([1.0, 0.0], 0.5, [0.1, 0.9], cfg)
        assert traj.terminal_reason == "max_time"
        assert traj.times[-1] == 1.5
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("temp", [5e-324, 1e-300, 1e300])
    def test_extreme_temperatures_give_finite_rows(self, temp):
        traj = bq.integrate_single_agent([1e10, 0.0], temp, [0.5, 0.5])
        assert np.all(np.isfinite(traj.points))
        assert np.array_equal(traj.points[0], [0.5, 0.5])
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rewards(self, bad):
        with pytest.raises(bq.DomainError):
            bq.integrate_single_agent([bad, 0.0], 1.0, [0.5, 0.5])

    def test_start_at_gibbs_is_one_converged_row(self):
        r, t = [0.3, -1.0, 0.8], 0.7
        gibbs = bq.gibbs_distribution(r, t)
        traj = bq.integrate_single_agent(r, t, gibbs)
        assert traj.terminal_reason == "converged"
        assert traj.times == (0.0,)
        assert np.array_equal(traj.final, gibbs)


BAD_TEMPS = [0.0, -1.0, math.nan, math.inf]


class TestTemperatureCheck:
    @pytest.mark.parametrize("temp", BAD_TEMPS)
    @pytest.mark.parametrize("call", [
        lambda t: bq.gibbs_distribution([1.0, 0.0], t),
        lambda t: bq.free_energy([0.5, 0.5], [1.0, 0.0], t),
        lambda t: bq.integrate_single_agent([1.0, 0.0], t, [0.5, 0.5]),
        lambda t: bq.AgentState((0.0, 0.0), t, 0.1),
    ], ids=["gibbs", "free_energy", "single_agent", "agent_state"])
    def test_rejects_non_positive_or_non_finite(self, call, temp):
        with pytest.raises(bq.DomainError):
            call(temp)


class TestRewardCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda r: bq.gibbs_distribution(r, 1.0),
        lambda r: bq.free_energy([0.5, 0.5], r, 1.0),
        lambda r: bq.integrate_single_agent(r, 1.0, [0.5, 0.5]),
    ], ids=["gibbs", "free_energy", "single_agent"])
    def test_rejects_non_finite_rewards(self, call, bad):
        with pytest.raises(bq.DomainError, match="rewards must be finite"):
            call([bad, 0.0])


STAG = bq.fixture("stag_hunt")
UNIT_TEMPS = bq.Temperatures(1.0, 1.0)


class TestStrategyCheck:
    @pytest.mark.parametrize("bad", [
        [math.nan, math.nan], [math.nan, 1.0], [1.0, math.nan],
        [math.inf, math.inf],
    ], ids=["nan_nan", "nan_one", "one_nan", "inf_inf"])
    @pytest.mark.parametrize("call", [
        lambda s: bq.free_energy(s, [0.0, 0.0], 1.0),
        lambda s: bq.replicator_velocity(s, [0.5, 0.5], STAG, UNIT_TEMPS),
        lambda s: bq.replicator_velocity([0.5, 0.5], s, STAG, UNIT_TEMPS),
        lambda s: bq.integrate_single_agent([0.0, 1.0], 1.0, s),
    ], ids=["free_energy", "replicator_x", "replicator_y", "single_agent"])
    def test_rejects_non_finite_strategies(self, call, bad):
        with pytest.raises(bq.DomainError):
            call(bad)


class TestIntegratorConfig:
    def test_has_only_horizon_and_speed_target(self):
        assert [f.name for f in dataclasses.fields(bq.IntegratorConfig)] == [
            "max_time", "convergence_speed_tol"]

    @pytest.mark.parametrize("kwargs", [
        {"max_time": math.nan}, {"max_time": 0.0}, {"max_time": -1.0},
        {"convergence_speed_tol": math.nan},
        {"convergence_speed_tol": math.inf},
        {"convergence_speed_tol": 0.0}, {"max_time": "x"},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(bq.DomainError):
            bq.IntegratorConfig(**kwargs)

    def test_infinite_horizon_still_converges(self):
        traj = bq.integrate((0.9, 0.1), mp_coeffs(),
                            bq.IntegratorConfig(max_time=math.inf))
        assert traj.terminal_reason == "converged"


class TestBatchStarts:
    @pytest.mark.parametrize("bad", [math.nan, 0.0, 1.0])
    def test_rejects_non_interior_start(self, bad):
        with pytest.raises(bq.DomainError):
            bq.integrate_batch([(0.3, 0.4), (bad, 0.5)], mp_coeffs())

    def test_rejects_an_empty_batch(self):
        with pytest.raises(bq.DomainError, match="n >= 1"):
            bq.integrate_batch(np.empty((0, 2)), mp_coeffs())

    def test_memory_does_not_grow_with_the_step_count(self):
        # matching pennies at T = 0.05 takes thousands of steps per start;
        # each start's samples are dropped once its endpoint is read, so
        # keeping all 500 runs' samples would add far more than 10 MB
        code, out, err = run_child("-c", """
import resource
import numpy as np
import boltzq as bq
co = bq.reduce_payoffs(bq.fixture("matching_pennies"),
                       bq.Temperatures(0.05, 0.05))
starts = np.random.default_rng(7).uniform(0.05, 0.95, (500, 2))
bq.integrate_batch(starts[:2], co)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
finals, reason = bq.integrate_batch(starts, co)
assert reason == "converged" and finals.shape == (500, 2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
""")
        assert code == 0, err
        assert int(out) < 10 * 1024  # ru_maxrss is in KiB on Linux


def rk45_oracle(start, coeffs, cfg):
    """scipy's RK45 on the logit flow at the library's tolerances, stopped
    by the same speed event: the solve that integrate used to make."""
    from scipy.special import expit
    from boltzq.dynamics import _attractor_scales, _solver_tols
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d

    def rhs(_, z):
        return (a * expit(z[1]) + b - z[0], c * expit(z[0]) + d - z[1])

    def speed(t, z):
        return float(np.max(np.abs(rhs(t, z)))) - cfg.convergence_speed_tol
    speed.terminal = True
    rtol, atol = _solver_tols(cfg, *_attractor_scales(coeffs))
    x0, y0 = start
    sol = solve_ivp(rhs, (0.0, cfg.max_time),
                    (math.log(x0 / (1 - x0)), math.log(y0 / (1 - y0))),
                    method="RK45", rtol=rtol, atol=atol, events=speed)
    reason = {1: "converged", 0: "max_time"}.get(sol.status, "step_failure")
    final = np.clip(expit(sol.y[:, -1]), 1e-12, 1 - 1e-12)
    return sol, reason, final


def final_gap(traj, final):
    return max(abs(traj.final.x - final[0]), abs(traj.final.y - final[1]))


PORTRAIT_STARTS = [(x, y) for x in (1 / 3, 2 / 3) for y in (1 / 3, 2 / 3)]


def portrait_cases():
    return [(name, t) for name in sorted(bq.FIXTURES) for t in (0.05, 0.5)]


class TestAgainstScipyRK45:
    """The in-house Dormand-Prince kernel against solve_ivp's RK45 (test-only
    oracle) on every fixture at a cold and a warm temperature, from the
    portrait's 2x2 start grid."""

    @pytest.mark.parametrize("name,temp", portrait_cases())
    def test_same_reason_endpoint_and_step_count(self, name, temp):
        co = bq.reduce_payoffs(bq.fixture(name), bq.Temperatures(temp, temp))
        cfg = bq.IntegratorConfig()
        for start in PORTRAIT_STARTS:
            traj = bq.integrate(start, co)
            sol, reason, final = rk45_oracle(start, co, cfg)
            assert traj.terminal_reason == reason == "converged"
            assert final_gap(traj, final) <= 1e-12
            steps, oracle_steps = len(traj) - 1, len(sol.t) - 1
            assert abs(steps - oracle_steps) <= 0.01 * oracle_steps
            assert abs(traj.nfev - sol.nfev) <= 0.01 * sol.nfev

    @pytest.mark.parametrize("name,temp", portrait_cases())
    @pytest.mark.parametrize("n", [4, 50])
    def test_batch_finals_match_single_runs(self, name, temp, n):
        co = bq.reduce_payoffs(bq.fixture(name), bq.Temperatures(temp, temp))
        starts = (np.array(PORTRAIT_STARTS) if n == 4 else
                  np.random.default_rng(5).uniform(0.02, 0.98, (n, 2)))
        finals, reason = bq.integrate_batch(starts, co)
        assert reason == "converged"
        for start, final in zip(starts, finals):
            single = bq.integrate(tuple(start), co).final
            assert tuple(final.tolist()) == tuple(single), (start, final)

    def test_battle_coordination_separatrix_starts_end_at_the_saddle(self):
        # (1/3, 2/3) and (2/3, 1/3) lie on the saddle's stable manifold at
        # T = 0.5, so each ends at the saddle, not at a node; at T = 0.05,
        # (2/3, 1/3) lies in the basin of (0, 0)
        game = bq.fixture("battle_coordination")
        co = bq.reduce_payoffs(game, bq.Temperatures(0.5, 0.5))
        saddle, = (p for p in bq.find_rest_points(co)
                   if p.stability.startswith("saddle"))
        finals, _ = bq.integrate_batch(PORTRAIT_STARTS, co)
        for final in finals[1:3]:
            assert np.max(np.abs(final - (saddle.x, saddle.y))) < 1e-6
        co = bq.reduce_payoffs(game, bq.Temperatures(0.05, 0.05))
        finals, _ = bq.integrate_batch(PORTRAIT_STARTS, co)
        assert np.max(finals[2]) < 1e-6

    def test_batch_reason_is_the_first_that_did_not_converge(self):
        co = mp_coeffs(0.05)
        cfg = bq.IntegratorConfig(max_time=0.75)
        assert bq.integrate((0.5, 0.5), co, cfg).terminal_reason == "converged"
        _, reason = bq.integrate_batch([(0.5, 0.5), (0.9, 0.1)], co, cfg)
        assert reason == "max_time"

    def test_batch_at_rest_returns_the_starts_clamped(self):
        # a start already at rest is its own endpoint, clamped to
        # [1e-12, 1 - 1e-12] as integrate clamps it
        co = bq.ReducedCoefficients.from_values(0.0, -40.0, 0.0, 0.0)
        start = (sigmoid(-40.0), 0.5)
        finals, reason = bq.integrate_batch([start], co)
        assert reason == "converged"
        assert finals.tolist() == [[1e-12, 0.5]]
        assert tuple(bq.integrate(start, co).final) == (1e-12, 0.5)

    def test_short_horizon_ends_at_max_time(self):
        co = mp_coeffs(0.05)
        cfg = bq.IntegratorConfig(max_time=0.75)
        for start in PORTRAIT_STARTS:
            traj = bq.integrate(start, co, cfg)
            sol, reason, final = rk45_oracle(start, co, cfg)
            assert traj.terminal_reason == reason == "max_time"
            assert traj.times[-1] == sol.t[-1] == 0.75
            assert len(traj) == len(sol.t)
            assert final_gap(traj, final) <= 1e-12
        _, reason = bq.integrate_batch(PORTRAIT_STARTS, co, cfg)
        assert reason == "max_time"

    def test_infinite_horizon_matches_oracle(self):
        co = mp_coeffs(0.5)
        cfg = bq.IntegratorConfig(max_time=math.inf)
        for start in PORTRAIT_STARTS:
            traj = bq.integrate(start, co, cfg)
            sol, reason, final = rk45_oracle(start, co, cfg)
            assert traj.terminal_reason == reason == "converged"
            assert final_gap(traj, final) <= 1e-12
        _, reason = bq.integrate_batch(PORTRAIT_STARTS, co, cfg)
        assert reason == "converged"

    def test_overflowing_first_derivative_still_integrates(self):
        # the scaled derivative overflows the initial-step rule's norm, so
        # its first step is 0 (raised to the 10 ulp minimum), as in scipy
        co = bq.ReducedCoefficients.from_values(1e300, 0.0, 1e300, 0.0)
        cfg = bq.IntegratorConfig()
        traj = bq.integrate((0.3, 0.6), co)
        with np.errstate(all="ignore"):
            _, reason, final = rk45_oracle((0.3, 0.6), co, cfg)
        assert traj.terminal_reason == reason == "max_time"
        assert tuple(traj.final) == tuple(final)


class TestTelemetry:
    def test_counts_follow_the_steps(self):
        # the initial derivative, the initial-step probe, then six
        # evaluations per attempted step, accepted or rejected
        for t in (0.05, 0.5):
            traj = bq.integrate((0.9, 0.1), mp_coeffs(t))
            assert traj.nfev == 2 + 6 * (len(traj) - 1 + traj.rejected_steps)
        assert bq.integrate((0.9, 0.1), mp_coeffs(0.05)).rejected_steps > 0

    def test_start_at_rest_costs_one_evaluation(self):
        traj = bq.integrate((0.5, 0.5), mp_coeffs())
        assert (traj.nfev, traj.rejected_steps) == (1, 0)

    def test_existing_constructor_still_works(self):
        traj = bq.Trajectory((0.0,), (0.5,), (0.5,), "converged")
        assert (traj.nfev, traj.rejected_steps) == (0, 0)


class TestSigmoidArray:
    def test_matches_scalar_sigmoid(self):
        from boltzq.dynamics import sigmoid_array
        z = np.concatenate([np.linspace(-745.0, 745.0, 20001),
                            [-0.0, 0.0, 1e-300, -1e-300, 36.7, -36.7]])
        np.testing.assert_array_max_ulp(
            sigmoid_array(z), np.array([sigmoid(v) for v in z]), maxulp=1)

    def test_deep_negative_tail_is_not_rounded_to_zero(self):
        # 0.5*(1 + tanh(z/2)) returns 0 here
        from boltzq.dynamics import sigmoid_array
        z = np.array([-40.0, -300.0, -700.0])
        assert np.all(sigmoid_array(z) > 0.0)
        np.testing.assert_allclose(sigmoid_array(z), np.exp(z), rtol=1e-15)
