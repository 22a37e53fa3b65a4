import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import boltzq as bq


def state(qvals, temp=1.0, alpha=0.1):
    return bq.AgentState(tuple(qvals), temp, alpha)


class TestPolicy:
    def test_equal_values_uniform(self):
        assert bq.boltzmann_policy(state([2.0, 2.0, 2.0])) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_matches_gibbs(self):
        probs = bq.boltzmann_policy(state([1.0, 0.0]))
        assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert probs[1] == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_cold_limit_is_greedy(self):
        probs = bq.boltzmann_policy(state([0.4, 0.1], temp=1e-6))
        assert probs[0] > 1 - 1e-6
        assert probs[1] < 1e-6

    def test_huge_values_no_overflow(self):
        probs = bq.boltzmann_policy(state([1e6, 0.0], temp=1.0))
        assert probs[0] == 1.0


class TestQUpdate:
    def test_reward_equal_to_value_is_fixed_point(self):
        s = state([0.7, -0.2])
        assert bq.q_update(s, 0, 0.7).qvals == s.qvals

    def test_full_replacement_at_alpha_one(self):
        s = state([0.7, -0.2], alpha=1.0)
        assert bq.q_update(s, 1, 3.5).qvals == (0.7, 3.5)

    def test_half_step(self):
        s = state([0.0, 0.0], alpha=0.5)
        assert bq.q_update(s, 0, 2.0).qvals == (1.0, 0.0)

    def test_only_chosen_entry_moves(self):
        s = state([1.0, 2.0, 3.0], alpha=0.3)
        out = bq.q_update(s, 1, 0.0)
        assert out.qvals[0] == 1.0 and out.qvals[2] == 3.0
        assert out.qvals[1] == pytest.approx(1.4)

    def test_bad_action_rejected(self):
        with pytest.raises(bq.DomainError):
            bq.q_update(state([0.0, 0.0]), 2, 1.0)


class TestRunTwoAgents:
    def test_identical_seeds_bitwise_identical(self):
        game = bq.fixture("matching_pennies")
        temps = bq.Temperatures(1, 1)
        cfg = bq.SimConfig(batch=30, rounds=400, seed=123, record_every=10)
        first = bq.run_two_agents(game, temps, cfg, alpha=0.05)
        second = bq.run_two_agents(game, temps, cfg, alpha=0.05)
        assert first[0].samples == second[0].samples
        assert first[1].samples == second[1].samples

    def test_different_seed_differs(self):
        game = bq.fixture("matching_pennies")
        temps = bq.Temperatures(1, 1)
        one = bq.run_two_agents(game, temps,
                                bq.SimConfig(batch=30, rounds=400, seed=1),
                                alpha=0.05)
        two = bq.run_two_agents(game, temps,
                                bq.SimConfig(batch=30, rounds=400, seed=2),
                                alpha=0.05)
        assert one[0].samples != two[0].samples

    def test_zero_learning_keeps_trace_constant(self):
        # alpha is constrained to (0, 1]; the no-learning limit is probed
        # with the smallest representable rate, which cannot move a policy
        # by more than ~alpha * reward span per round
        game = bq.fixture("matching_pennies")
        temps = bq.Temperatures(1, 1)
        cfg = bq.SimConfig(batch=1, rounds=50, seed=3, record_every=1)
        trace_x, _ = bq.run_two_agents(game, temps, cfg, alpha=1e-12)
        probs = np.array([p[0] for _, p in trace_x.samples])
        assert np.max(np.abs(probs - 0.5)) < 1e-9

    def test_metadata_records_generator(self):
        game = bq.fixture("matching_pennies")
        trace_x, trace_y = bq.run_two_agents(
            game, bq.Temperatures(1, 1),
            bq.SimConfig(batch=5, rounds=10, seed=9))
        for trace in (trace_x, trace_y):
            assert trace.metadata["generator"] == bq.GENERATOR_ID
            assert trace.metadata["seed"] == 9
            assert trace.metadata["batch"] == 5

    def test_values_stay_in_hull_of_start_and_rewards(self):
        # each update is a convex combination of the old value and an
        # average of observed rewards, so values never leave the hull of
        # {initial value} union {payoff entries}
        game = bq.fixture("stag_hunt")
        temps = bq.Temperatures(1, 1)
        cfg = bq.SimConfig(batch=7, rounds=300, seed=11, record_every=1)
        trace_x, trace_y = bq.run_two_agents(game, temps, cfg, alpha=0.2,
                                             record_q=True)
        entries = [v for row in game.payoff_x.entries for v in row]
        lo, hi = min(0.0, min(entries)), max(0.0, max(entries))
        for trace in (trace_x, trace_y):
            for qs in trace.q_samples:
                assert all(lo - 1e-12 <= q <= hi + 1e-12 for q in qs)

    def test_mismatched_init_rejected(self):
        game = bq.fixture("matching_pennies")
        init = (state([0.0, 0.0], temp=2.0), state([0.0, 0.0], temp=1.0))
        with pytest.raises(bq.DomainError):
            bq.run_two_agents(game, bq.Temperatures(1, 1),
                              bq.SimConfig(batch=1, rounds=1, seed=0),
                              init=init)

    @pytest.mark.parametrize("kwargs", [
        {"batch": 0}, {"rounds": 0}, {"record_every": 0},
        {"seed": -1}, {"seed": 2 ** 64}, {"seed": math.nan},
        {"seed": math.inf}, {"batch": "x"}, {"batch": 1.5}, {"rounds": None},
        {"rounds": 10.0}, {"record_every": "1"}, {"record_every": 2.5},
        {"seed": 1.5}, {"seed": "7"}])
    def test_bad_config_raises_domain_error(self, kwargs):
        with pytest.raises(bq.DomainError):
            bq.SimConfig(**kwargs)

    def test_final_point_near_ode_rest_point(self):
        game = bq.fixture("prisoners_dilemma")
        temps = bq.Temperatures(1, 1)
        cfg = bq.SimConfig(batch=100, rounds=10_000, seed=17, record_every=500)
        trace_x, trace_y = bq.run_two_agents(game, temps, cfg, alpha=0.01)
        rest = bq.find_rest_points(
            bq.reduce_payoffs(game, temps))[0]
        assert abs(trace_x.final_probs[0] - rest.x) < 0.05
        assert abs(trace_y.final_probs[0] - rest.y) < 0.05

    def test_traces_keep_every_bit(self):
        # an md5 of the repr of every trace's samples, q_samples and
        # metadata: each fixture at (tx, ty) = (1, 1) and (0.05, 0.3) for
        # seeds 0-2, then a 3-action game from init states with unequal
        # temperatures and rates.  The statistical tests above cannot see
        # a rounding change in a round; this can.  The digest depends on
        # the platform's exp and on numpy's PCG64 and multinomial.
        runs = [(bq.fixture(name), bq.Temperatures(tx, ty),
                 bq.SimConfig(batch=37, rounds=700, seed=seed,
                              record_every=7), None)
                for name in sorted(bq.FIXTURES)
                for tx, ty in ((1.0, 1.0), (0.05, 0.3))
                for seed in range(3)]
        game = bq.Game.from_matrices(
            "three", [[1.0, -0.5, 2.0], [0.0, 1.5, -1.0], [-2.0, 0.5, 0.75]],
            [[0.5, 1.0, -1.5], [2.0, -0.25, 0.0], [-1.0, 0.0, 1.25]])
        init = (state([0.3, -0.2, 0.9], temp=0.4, alpha=0.05),
                state([-0.6, 0.1, 0.0], temp=1.5, alpha=0.2))
        runs.append((game, bq.Temperatures(0.4, 1.5),
                     bq.SimConfig(batch=37, rounds=700, seed=5,
                                  record_every=7), init))
        md5 = hashlib.md5()
        for game, temps, cfg, init in runs:
            for trace in bq.run_two_agents(game, temps, cfg, init=init,
                                           record_q=True):
                md5.update(repr((trace.samples, trace.q_samples,
                                 trace.metadata)).encode())
        assert md5.hexdigest() == "59f677a187530329e3d54f53698e255a"


def ode_reference(game, temps, x0, y0, horizon):
    """Dense reference trajectory of the strategy flow in natural time
    (no per-player clock rescaling), for trace comparisons."""
    def rhs(t, z):
        x, y = z[:2], z[2:]
        dx, dy = bq.replicator_velocity(x / x.sum(), y / y.sum(), game, temps)
        return np.concatenate([dx, dy])

    return solve_ivp(rhs, (0.0, horizon), np.array([x0, 1 - x0, y0, 1 - y0]),
                     rtol=1e-10, atol=1e-12, dense_output=True)


class TestOdeAgreement:
    def test_traces_track_the_flow_on_every_fixture(self):
        # sup-norm distance between the recorded policy trace and the ODE
        # solution at matched times t = alpha * round stays below 0.08 for
        # at least 8 of 10 seeds (unit temperatures)
        alpha, batch, rounds = 0.01, 100, 10_000
        temps = bq.Temperatures(1, 1)
        for name, game in bq.FIXTURES.items():
            reference = ode_reference(game, temps, 0.5, 0.5, alpha * rounds)
            passes = 0
            for seed in range(10):
                cfg = bq.SimConfig(batch=batch, rounds=rounds, seed=seed,
                                   record_every=250)
                trace_x, trace_y = bq.run_two_agents(game, temps, cfg,
                                                     alpha=alpha)
                worst = 0.0
                for (rnd, px), (_, py) in zip(trace_x.samples,
                                              trace_y.samples):
                    ref = reference.sol(alpha * rnd)
                    worst = max(worst,
                                abs(px[0] - ref[0]), abs(py[0] - ref[2]))
                if worst <= 0.08:
                    passes += 1
            assert passes >= 8, (name, passes)
