"""Folds of the equal-temperature sweep, checked against independent counts.

A fold is where a stationary value of the defect ``u - b - a*g(u)`` crosses
zero and the rest-point count flips between 3 and 1.  These tests probe the
reported critical temperatures with plain rest-point counts on both sides,
and the continuous pitchforks against their closed form.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boltzq as bq
from boltzq import bifurcation
from boltzq.numerics import sigmoid

COORDINATION = ("stag_hunt", "hawk_dove", "battle_coordination")
#: a three-equilibrium game whose fold sits far below sqrt(raw_a*raw_c)/4
LOW_FOLD_GAME = bq.Game.from_matrices(
    "low_fold", [[-2.633, -0.096], [-1.529, -0.159]],
    [[0.064, 2.008], [0.159, -2.762]])


def count_at(game, temp):
    co = bq.reduce_payoffs(game, bq.Temperatures(temp, temp))
    return bq.count_rest_points(co)


def sweep_criticals(game):
    return bq.sweep_equal_temperature(game, 0.2, 2.0, 60).critical_temperatures


def tangency_criticals(game):
    return [t for t, _ in bq.equal_temperature_criticals(game)]


def closed_form_pitchfork():
    """T = 3*sigma'(u) where 3*u*sigma'(u) + 3*sigma(u) = 1, for |raw slopes| 3.

    The left side rises from -1 to 1/2 on u < 0, so bisection on
    [-10, 0] finds the unique root.
    """
    def f(u):
        s = sigmoid(u)
        return 3.0 * u * s * (1.0 - s) + 3.0 * s - 1.0

    lo, hi = -10.0, 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s = sigmoid(lo)
    return 3.0 * s * (1.0 - s)


def random_multi_games(count, seed=20261018):
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < count:
        A, B = rng.uniform(-3.0, 3.0, (2, 2, 2)).tolist()
        game = bq.Game.from_matrices(f"multi_{len(games)}", A, B)
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        if min(abs(co.raw_a), abs(co.raw_c)) < 1e-9:
            continue
        label = bq.classify_region(co).label
        if label == bq.GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE:
            games.append(game)
    return games


@pytest.mark.parametrize("criticals", [sweep_criticals, tangency_criticals])
@pytest.mark.parametrize("name", COORDINATION)
def test_counts_three_below_and_one_above_each_fold(name, criticals):
    game = bq.fixture(name)
    temps = criticals(game)
    assert len(temps) == 1
    t_c = temps[0]
    assert count_at(game, t_c * (1.0 - 1e-7)) == 3
    assert count_at(game, t_c * (1.0 + 1e-7)) == 1


@pytest.mark.parametrize("name", COORDINATION)
def test_counts_next_to_a_fold_are_one_two_or_three(name):
    game = bq.fixture(name)
    (t_c, _), = bq.equal_temperature_criticals(game)
    for temp in (t_c * (1.0 - 1e-9), t_c * (1.0 + 1e-9)):
        co = bq.reduce_payoffs(game, bq.Temperatures(temp, temp))
        points = bq.find_rest_points(co)
        assert len(points) in (1, 2, 3), (name, temp, len(points))
        if len(points) == 2:
            # the doubled root sits where the line touches the curve
            double = [p for p in points if p.degenerate_pair]
            assert double, (name, temp)
            gf = bq.GFunction(co.c, co.d)
            assert any(abs(co.a * gf.eval(p.u)[1] - 1.0) < 1e-6
                       for p in double)


def test_no_four_or_five_points_next_to_random_folds():
    for game in random_multi_games(12):
        for t_c, _ in bq.equal_temperature_criticals(game):
            for step in (-1e-9, -1e-7, 1e-7, 1e-9):
                assert count_at(game, t_c * (1.0 + step)) in (1, 2, 3), game.name


@pytest.mark.parametrize("criticals", [sweep_criticals, tangency_criticals])
@pytest.mark.parametrize("name", ("hawk_dove", "battle_coordination"))
def test_continuous_pitchfork_matches_closed_form(name, criticals):
    t_exact = closed_form_pitchfork()
    t_c, = criticals(bq.fixture(name))
    assert abs(t_c - t_exact) <= 1e-10 * t_exact


def test_fold_far_below_the_tangency_bound():
    crit = bq.equal_temperature_criticals(LOW_FOLD_GAME)
    assert len(crit) == 1
    t_c, _ = crit[0]
    assert t_c == pytest.approx(0.0115671737, rel=1e-8)
    assert count_at(LOW_FOLD_GAME, t_c * (1.0 - 1e-7)) == 3
    assert count_at(LOW_FOLD_GAME, t_c * (1.0 + 1e-7)) == 1


def test_sweep_label_matches_closed_form_on_random_games():
    for game in random_multi_games(8, seed=7):
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        t_top = math.sqrt(co.raw_a * co.raw_c) / 4.0
        t_low = min(t for t, _ in bq.equal_temperature_criticals(game))
        diagram = bq.sweep_equal_temperature(game, 0.5 * t_low, 2.0 * t_top, 40)
        assert diagram.pitchfork_kind == bq.classify_pitchfork(game), game.name


@pytest.mark.parametrize("name,survivor", [("stag_hunt", 2),
                                           ("hawk_dove", 1),
                                           ("battle_coordination", 1)])
def test_single_root_continues_the_ordinal_the_fold_leaves(name, survivor):
    # a plain fold merges the low and middle (or middle and high) roots;
    # at a cusp all three meet and the middle one continues
    diagram = bq.sweep_equal_temperature(bq.fixture(name), 0.2, 2.0, 60)
    t_c, = diagram.critical_temperatures
    ends = [branch[-1][0] for branch in diagram.branches]
    assert sorted(ends) == pytest.approx([t_c, t_c, 2.0])
    (through,) = [b for b in diagram.branches if b[-1][0] == 2.0]
    below = [(t, p) for t, p in through if t < t_c]
    co = bq.reduce_payoffs(bq.fixture(name), bq.Temperatures(1.0, 1.0))
    for t, point in below[::10]:
        points = bq.find_rest_points(co.at_temperatures(t, t))
        assert len(points) == 3
        assert points[survivor].u == point.u


#: a 2x2 payoff grid for the drift of the value estimates
IDENTITY = bq.PayoffMatrix(((1.0, 0.0), (0.0, 1.0)))


def stag_coeffs():
    return bq.reduce_payoffs(bq.fixture("stag_hunt"), bq.Temperatures(1.0, 1.0))


#: unit temperatures for the n-action fields
TEMPS = bq.Temperatures(1.0, 1.0)


def agent():
    return bq.AgentState((0.0, 0.0), 1.0, 0.1)


def run_agents(init):
    """One round of ``run_two_agents`` on the stag hunt from ``init``."""
    return bq.run_two_agents(bq.fixture("stag_hunt"), TEMPS,
                             bq.SimConfig(batch=1, rounds=1), init=init)


#: an int that float() refuses with OverflowError
HUGE = 10 ** 400


#: calls that must raise DomainError (``tools/output_digests.py`` digests
#: the error type of each)
BAD_INPUT = [
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.2, math.inf),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), math.nan, 2.0),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), -math.inf, 2.0),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 2.0, 2.0),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.0, 2.0),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.2, 2.0, -3),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.2, 2.0, 1),
    lambda: bq.critical_curve(bq.fixture("stag_hunt"), [0.5], "sideways"),
    lambda: bq.Temperatures(0.0, 1.0),
    lambda: bq.Temperatures(1.0, math.inf),
    lambda: bq.Temperatures(math.nan, 1.0),
    # non-finite or mistyped values that would reach the arithmetic
    lambda: bq.zero_exploration_window(0.5, -0.7, math.nan),
    lambda: bq.zero_exploration_window(math.inf, -0.7, 10.0),
    lambda: bq.zero_exploration_window(0.5, -0.7, math.inf),
    lambda: bq.GFunction(1.0, -0.5, -1.0),
    lambda: bq.GFunction(1.0, -0.5, math.nan),
    lambda: bq.GFunction(1.0, -0.5, math.inf),
    lambda: bq.GFunction(1.0, -0.5, 0.0),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.1, 1, 2.5),
    lambda: bq.numerics.geomspace(1.0, 2.0, 3.0),
    lambda: bq.critical_curve(bq.fixture("stag_hunt"), ["a"]),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), "x", 1.0, 5),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.1, None, 5),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.1, 1.0, "x"),
    lambda: bq.dissipation_rate(bq.Temperatures(1.0, 1.0), "x"),
    lambda: bq.AgentState((0.0, 0.0), 1.0, "x"),
    lambda: bq.GFunction(1.0, 0.5, "x"),
    lambda: bq.GFunction(math.nan, 0.5),
    lambda: bq.GFunction(math.inf, 0.5),
    lambda: bq.zero_exploration_window("x", -0.8, 1.0),
    lambda: bq.intercept_extrema("x", 1.0),
    lambda: bq.corner_boundary("x"),
    lambda: bq.solve_symmetric("x", 1.0),
    lambda: bq.symmetric_critical_offsets("x"),
    lambda: bq.critical_curve(bq.fixture("stag_hunt"), 0.1),
    lambda: bq.numerics.geomspace("x", 1.0, 3),
    lambda: bq.AgentState(("x", 0.0), 1.0, 0.1),
    lambda: bq.integrate(("a", 0.5), stag_coeffs()),
    lambda: bq.strategy_velocity(("a", 0.5), stag_coeffs()),
    lambda: bq.stability_eigenvalues(("a", 0.5), stag_coeffs()),
    lambda: bq.integrate(0.5, stag_coeffs()),
    lambda: bq.strategy_velocity((0.1, 0.2, 0.3), stag_coeffs()),
    lambda: bq.q_update(agent(), 0.5, 1.0),
    lambda: bq.q_update(agent(), "a", 1.0),
    lambda: bq.q_update(agent(), 0, "x"),
    lambda: bq.ReducedCoefficients.from_values("a", 1, 1, 1),
    lambda: bq.integrate_batch([["a", 0.5]], stag_coeffs()),
    lambda: bq.q_velocity((0.0, 0.0), (0.5, 0.25, 0.25), IDENTITY, 0.1),
    # the learning rate obeys AgentState's (0, 1] rule
    lambda: bq.q_velocity((0.0, 0.0), (0.5, 0.5), IDENTITY, math.nan),
    lambda: bq.q_velocity((0.0, 0.0), (0.5, 0.5), IDENTITY, -1.0),
    lambda: bq.q_velocity((0.0, 0.0), (0.5, 0.5), IDENTITY, 0.0),
    lambda: bq.q_velocity((0.0, 0.0), (0.5, 0.5), IDENTITY, 2.0),
    # vectors that numpy cannot convert, and a scalar for a vector
    lambda: bq.replicator_velocity(("a", 0.5), (0.5, 0.5),
                                   bq.fixture("stag_hunt"), TEMPS),
    lambda: bq.gibbs_distribution(["a", 1.0], 1.0),
    lambda: bq.free_energy((0.5, 0.5), ["a", 1.0], 1.0),
    lambda: bq.log_ratio_field(bq.fixture("stag_hunt"), TEMPS, "a", 0.0),
    lambda: bq.numerical_divergence(("a", 0.0), bq.fixture("stag_hunt"),
                                    TEMPS),
    lambda: bq.integrate_single_agent(["a", 1.0], 1.0, (0.5, 0.5)),
    lambda: bq.q_velocity(("a", 0.0), (0.5, 0.5), IDENTITY, 0.1),
    lambda: bq.AgentState(5, 1.0, 0.1),
    # an int too large for a float
    lambda: bq.Temperatures(HUGE, 1.0),
    lambda: bq.integrate((0.5, HUGE), stag_coeffs()),
    lambda: bq.ReducedCoefficients.from_values(HUGE, 1, 1, 1),
    lambda: bq.critical_curve(bq.fixture("stag_hunt"), [HUGE]),
    lambda: bq.numerics.geomspace(HUGE, 1.0, 3),
    lambda: bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.1, HUGE, 5),
    lambda: bq.strategy_velocity((0.5, HUGE), stag_coeffs()),
    lambda: bq.stability_eigenvalues((HUGE, 0.5), stag_coeffs()),
    lambda: bq.zero_exploration_window(HUGE, -0.7, 1.0),
    lambda: bq.GFunction(1.0, -0.5, HUGE),
    lambda: bq.intercept_extrema(HUGE, 1.0),
    lambda: bq.corner_boundary(HUGE),
    lambda: bq.solve_symmetric(HUGE, 1.0),
    lambda: bq.symmetric_critical_offsets(HUGE),
    lambda: bq.IntegratorConfig(max_time=HUGE),
    lambda: bq.AgentState((0.0, 0.0), 1.0, HUGE),
    lambda: bq.q_update(agent(), 0, HUGE),
    lambda: bq.q_velocity((0.0, 0.0), (0.5, 0.5), IDENTITY, HUGE),
    lambda: bq.gibbs_distribution([1.0, 0.0], HUGE),
    lambda: bq.integrate_single_agent([1.0, 0.0], HUGE, (0.5, 0.5)),
    # a point that is not a pair, or not a pair of numbers
    lambda: bq.numerical_divergence(0.5, bq.fixture("stag_hunt"), TEMPS),
    lambda: bq.numerical_divergence((0.1, 0.2, 0.3), bq.fixture("stag_hunt"),
                                    TEMPS),
    lambda: bq.logit_velocity(0.5, stag_coeffs()),
    lambda: bq.logit_velocity(("a", 0.0), stag_coeffs()),
    # vectors of the wrong shape or length, and a zero slope
    lambda: bq.replicator_velocity([[0.5, 0.5]], (0.5, 0.5),
                                   bq.fixture("stag_hunt"), TEMPS),
    lambda: bq.replicator_velocity((0.2, 0.3, 0.5), (0.5, 0.5),
                                   bq.fixture("stag_hunt"), TEMPS),
    lambda: bq.integrate_single_agent([1.0, 0.0], 1.0, (0.2, 0.3, 0.5)),
    lambda: run_agents(init=(bq.AgentState((0.0,) * 3, 1.0, 0.1),
                             bq.AgentState((0.0,) * 3, 1.0, 0.1))),
    lambda: bq.ReducedCoefficients.from_values(0.0, 1.0, 1.0, 1.0).b_over_a,
    lambda: bq.ReducedCoefficients.from_values(1.0, 1.0, 0.0, 1.0).d_over_c,
    # init that is not a pair of AgentState, and vectors that are empty,
    # not 1-d or of the wrong length
    lambda: run_agents(init=(agent(),)),
    lambda: run_agents(init=5),
    lambda: run_agents(init=(agent(), "x")),
    lambda: run_agents(init=(agent(), agent(), agent())),
    lambda: bq.gibbs_distribution([], 1.0),
    lambda: bq.gibbs_distribution([[1.0, 2.0], [3.0, 4.0]], 1.0),
    lambda: bq.integrate_single_agent([[1.0, 2.0]], 1.0, (0.5, 0.5)),
    lambda: bq.free_energy([[0.5, 0.5]], [1.0, 2.0], 1.0),
    lambda: bq.free_energy([0.5, 0.5], [1.0, 2.0, 3.0], 1.0),
    lambda: bq.AgentState((), 1.0, 0.1),
    # log-ratio coordinates of the wrong length or not 1-d, non-finite
    # vectors, and a scalar for the rewards
    lambda: bq.log_ratio_field(bq.fixture("stag_hunt"), TEMPS, [0.1, 0.2],
                               0.0),
    lambda: bq.log_ratio_field(bq.fixture("stag_hunt"), TEMPS, [[0.1]], 0.0),
    lambda: bq.numerical_divergence(([0.1, 0.2], [0.0]),
                                    bq.fixture("stag_hunt"), TEMPS),
    lambda: bq.q_velocity((math.nan, 0.0), (0.5, 0.5), IDENTITY, 0.1),
    lambda: bq.q_velocity((0.0, 0.0), (math.inf, 0.5), IDENTITY, 0.1),
    lambda: bq.q_velocity([[0.0, 0.0]], (0.5, 0.5), IDENTITY, 0.1),
    lambda: bq.log_ratio_field(bq.fixture("stag_hunt"), TEMPS, math.nan, 0.0),
    lambda: bq.AgentState((math.inf, 0.0), 1.0, 0.1),
    lambda: bq.gibbs_distribution(1.0, 1.0),
    # a bool is not a count, and a tangent point must be a finite number
    lambda: bq.SimConfig(rounds=True, batch=True, record_every=True),
    lambda: bq.numerics.geomspace(0.1, 1.0, True),
    lambda: bq.tangent_intercept(bq.GFunction(1.0, -0.5), math.inf),
    lambda: bq.tangent_intercept(bq.GFunction(1.0, -0.5), math.nan),
    lambda: bq.tangent_intercept(bq.GFunction(1.0, -0.5), "x"),
    # finite raw numerators whose curve, c = raw_c/ty or d = raw_d/ty,
    # overflows
    lambda: bq.GFunction(1e300, -3e300, 1e-150),
    lambda: bq.GFunction(1.0, -1e300, 1e-150),
]
BAD_INPUT_IDS = [
    "t_max_inf", "t_min_nan", "t_min_neg_inf", "empty_range",
    "t_min_zero", "steps_negative", "steps_one", "orientation",
    "tx_zero", "ty_inf", "tx_nan", "window_raw_nan", "window_ratio_inf",
    "window_raw_inf", "curve_ty_negative", "curve_ty_nan", "curve_ty_inf",
    "curve_ty_zero", "sweep_float_steps", "geomspace_float_n",
    "critical_curve_text_ty", "sweep_text_t_min", "sweep_none_t_max",
    "sweep_text_steps", "dissipation_text_n", "agent_text_alpha",
    "curve_text_ty", "curve_nan_c", "curve_inf_c", "window_text_ratio",
    "extrema_text_c", "corner_text_ratio", "symmetric_text_a",
    "offsets_text_a", "critical_curve_scalar_grid", "geomspace_text_end",
    "agent_text_q", "integrate_text_start", "velocity_text_point",
    "eigenvalues_text_point", "integrate_scalar_start",
    "velocity_three_coordinates", "q_update_float_action",
    "q_update_text_action", "q_update_text_reward", "from_values_text_a",
    "batch_text_start", "q_velocity_lengths", "q_velocity_nan_alpha",
    "q_velocity_negative_alpha", "q_velocity_zero_alpha",
    "q_velocity_alpha_above_one", "replicator_text_x", "gibbs_text_reward",
    "free_energy_text_reward", "log_ratio_text_w", "divergence_text_point",
    "single_agent_text_reward", "q_velocity_text_q", "agent_scalar_q",
    "temperatures_huge_tx", "integrate_huge_start", "from_values_huge_a",
    "critical_curve_huge_ty", "geomspace_huge_end", "sweep_huge_t_max",
    "velocity_huge_point", "eigenvalues_huge_point", "window_huge_ratio",
    "curve_huge_c", "extrema_huge_c", "corner_huge_ratio",
    "symmetric_huge_a", "offsets_huge_a", "config_huge_max_time",
    "agent_huge_alpha", "q_update_huge_reward", "q_velocity_huge_alpha",
    "gibbs_huge_temperature", "single_agent_huge_temperature",
    "divergence_scalar_point", "divergence_three_coordinates",
    "logit_velocity_scalar_point", "logit_velocity_text_point",
    "replicator_two_d_x", "replicator_length_mismatch",
    "single_agent_length_mismatch", "agents_init_length_mismatch",
    "b_over_a_zero_slope", "d_over_c_zero_slope", "agents_init_single",
    "agents_init_scalar", "agents_init_text_state", "agents_init_triple",
    "gibbs_empty_rewards", "gibbs_two_d_rewards",
    "single_agent_two_d_rewards", "free_energy_two_d_x",
    "free_energy_length_mismatch", "agent_empty_q",
    "log_ratio_wrong_length", "log_ratio_two_d_w",
    "divergence_wrong_length", "q_velocity_nan_q", "q_velocity_inf_opponent",
    "q_velocity_two_d_q", "log_ratio_nan_w", "agent_inf_q",
    "gibbs_scalar_reward", "sim_config_bool_counts", "geomspace_bool_n",
    "tangent_intercept_inf_u", "tangent_intercept_nan_u",
    "tangent_intercept_text_u", "curve_overflowing_c",
    "curve_overflowing_d"]


@pytest.mark.parametrize("call", BAD_INPUT, ids=BAD_INPUT_IDS)
def test_bad_input_raises_domain_error(call):
    with pytest.raises(bq.DomainError):
        call()


#: a one-equilibrium game whose diagonal meets a window of three rest points
#: between folds at T ~ 0.05874 and 0.21821
SINGLE_NE_WINDOW_GAME = bq.Game.from_matrices(
    "single_ne_window", [[0.2, 1.6], [-0.8, 1.5]],
    [[-1.0, -2.7], [-1.3, 1.2]])
#: the benchmark's critical-curve grid
CURVE_GRID = np.geomspace(1e-3, 2.0, 8).tolist()


def random_curve_games(count, seed=20261018):
    """Seeded random 2x2 games with a*c > 0 (critical curves apply)."""
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < count:
        A, B = rng.uniform(-3.0, 3.0, (2, 2, 2)).tolist()
        game = bq.Game.from_matrices(f"curve_{len(games)}", A, B)
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        if co.raw_a * co.raw_c > 0.0:
            games.append(game)
    return games


def has_window(game, ty):
    """A window bounded by two tangencies at ty (open ones do not close)."""
    return any(lo for _, lo, _ in bq.critical_curve(game, [ty]).samples)


def not_three(co):
    """Exactly one rest point: 1e-7 outside a window no stationary value of
    the defect is within rounding of zero."""
    return len(bq.find_rest_points(co, fd_check=False)) == 1


def test_critical_windows_agree_with_counts_on_random_games():
    windows = opened = 0
    for game in random_curve_games(120):
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        for ty, t_lo, t_hi in bq.critical_curve(game, CURVE_GRID).samples:
            if t_lo is None:
                continue
            windows += 1
            if t_lo == 0.0:  # open at tx -> 0
                opened += 1
                inside = [0.5 * t_hi, 1e-3 * t_hi]
            else:
                inside = [math.sqrt(t_lo * t_hi)]
                assert not_three(co.at_temperatures(t_lo * (1.0 - 1e-7), ty))
            for tx in inside:
                assert bq.count_rest_points(co.at_temperatures(tx, ty)) == 3
            assert not_three(co.at_temperatures(t_hi * (1.0 + 1e-7), ty))
    assert windows >= 20
    assert opened >= 20


def normalized_raw(game):
    """(raw_a, raw_b, raw_c, raw_d) relabelled so that raw_a > 0."""
    co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
    raw_a, raw_b, raw_c, raw_d = co.raw_a, co.raw_b, co.raw_c, co.raw_d
    if raw_a < 0.0:
        return -raw_a, -raw_b, -raw_c, raw_c + raw_d
    return raw_a, raw_b, raw_c, raw_d


def test_open_window_exactly_when_the_cold_limit_has_three_points():
    # as tx -> 0 the line flattens to -b/a, which meets g three times
    # exactly when it lies strictly between g's tails
    opened = 0
    games = random_curve_games(120) + [bq.fixture(n) for n in COORDINATION]
    for game in games:
        raw_a, raw_b, raw_c, raw_d = normalized_raw(game)
        for ty in CURVE_GRID:
            rows = bq.critical_curve(game, [ty]).samples
            level = -raw_b / raw_a
            cold_three = (sigmoid(raw_d / ty) < level
                          < sigmoid((raw_c + raw_d) / ty))
            assert any(lo == 0.0 for _, lo, _ in rows) == cold_three, (
                game.name, ty)
            opened += cold_three
    assert opened >= 20


@pytest.mark.parametrize("name", COORDINATION)
@pytest.mark.parametrize("orientation", ["tx_window_vs_ty",
                                         "ty_window_vs_tx"])
def test_coordination_fixtures_have_open_windows(name, orientation):
    grid = np.geomspace(1e-3, 2.0, 12)
    rows = bq.critical_curve(bq.fixture(name), grid, orientation).samples
    assert [fixed for fixed, lo, _ in rows if lo == 0.0] == grid.tolist()


#: a game whose tx axis at ty = 0.228 holds two windows: (0, 0.5746) and
#: (1.0512, 1.1902)
TWO_WINDOW_GAME = bq.Game.from_matrices(
    "two_windows", [[-2.4, 2.44], [-2.04, 0.61]],
    [[-0.23, 2.36], [0.59, 0.83]])


def test_two_windows_at_one_fixed_temperature():
    ty = 0.228
    (_, lo1, hi1), (_, lo2, hi2) = bq.critical_curve(TWO_WINDOW_GAME,
                                                     [ty]).samples
    assert lo1 == 0.0
    assert hi1 == pytest.approx(0.5745759474964096, rel=1e-9)
    assert (lo2, hi2) == pytest.approx((1.0511710173064324,
                                        1.1902262835544875), rel=1e-9)
    co = bq.reduce_payoffs(TWO_WINDOW_GAME, bq.Temperatures(1.0, 1.0))

    def count(tx):
        return bq.count_rest_points(co.at_temperatures(tx, ty))

    for tx in (1e-3 * hi1, 0.5 * hi1, math.sqrt(lo2 * hi2)):
        assert count(tx) == 3
    for tx in (hi1 * (1.0 + 1e-7), math.sqrt(hi1 * lo2),
               lo2 * (1.0 - 1e-7), hi2 * (1.0 + 1e-7), 2.0 * hi2):
        assert count(tx) == 1


@st.composite
def scaled_curve_case(draw):
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    a_rows = [[draw(entries), draw(entries)] for _ in range(2)]
    b_rows = [[draw(entries), draw(entries)] for _ in range(2)]
    # log-uniform over every positive float
    ty = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)),
                    draw(st.integers(-1074, 1023)))
    return a_rows, b_rows, ty, 2.0 ** draw(st.integers(-16, 16))


def _curve_or_refusal(a_rows, b_rows, ty, orientation):
    game = bq.Game.from_matrices("g", a_rows, b_rows)
    try:
        return bq.critical_curve(game, [ty], orientation).samples
    except (bq.DomainError, bq.NotApplicableError):
        return None


@settings(max_examples=300, deadline=None)
@given(scaled_curve_case(), st.sampled_from(["tx_window_vs_ty",
                                             "ty_window_vs_tx"]))
def test_critical_curve_property(case, orientation):
    # only the documented refusals may raise, and scaling every payoff and
    # the fixed temperature by a power of two scales each window exactly
    a_rows, b_rows, ty, s = case
    rows = _curve_or_refusal(a_rows, b_rows, ty, orientation)
    scaled = _curve_or_refusal([[s * x for x in r] for r in a_rows],
                               [[s * x for x in r] for r in b_rows],
                               s * ty, orientation)
    values = [abs(x) for x in (ty, s * ty, *a_rows[0], *a_rows[1],
                               *b_rows[0], *b_rows[1]) if x]
    if rows is None or scaled is None or not all(
            1e-290 < x < 1e290 for x in values):
        return
    ends = [x for _, lo, hi in rows for x in (lo, hi) if x]
    if all(1e-290 < x < 1e290 for x in ends):
        assert scaled == [(s * f, None if lo is None else s * lo,
                           None if hi is None else s * hi)
                          for f, lo, hi in rows]


def test_closing_temperature_brackets_the_flip():
    games = [bq.fixture("dominant_coordination")] + random_curve_games(80)
    closings = 0
    for game in games:
        closing = bq.critical_curve(game, CURVE_GRID).closing_temperature
        if closing is None:
            continue
        closings += 1
        assert has_window(game, closing * (1.0 - 1e-7)), game.name
        assert not has_window(game, closing * (1.0 + 1e-7)), game.name
    assert closings >= 5


@pytest.mark.parametrize("decades", [30, 100, 300])
def test_folds_and_closings_in_a_grid_cell_of_many_decades(decades):
    # the bracket loop's probe cap must not stop these short of adjacent
    # floats: the cell is mostly halved down from 10**decades
    fold = bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.5, 10.0)
    wide = bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.5,
                                      10.0 ** decades, 2)
    assert wide.critical_temperatures == fold.critical_temperatures
    game = bq.fixture("dominant_coordination")
    closing = bq.critical_curve(game, CURVE_GRID).closing_temperature
    wide = bq.critical_curve(game, [1e-3, 1e-2, 10.0 ** decades])
    assert wide.closing_temperature == closing


def test_closing_temperature_does_not_depend_on_the_grid():
    game = bq.fixture("dominant_coordination")
    coarse = bq.critical_curve(game, np.geomspace(1e-3, 2.0, 12))
    fine = bq.critical_curve(game, np.geomspace(1e-3, 5.0, 40))
    assert coarse.closing_temperature is not None
    assert coarse.closing_temperature == fine.closing_temperature


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e-320])
@pytest.mark.parametrize("orientation", ["tx_window_vs_ty",
                                         "ty_window_vs_tx"])
def test_critical_curve_rejects_bad_fixed_temperature(bad, orientation):
    with pytest.raises(bq.DomainError):
        bq.critical_curve(bq.fixture("dominant_coordination"), [bad, 0.5],
                          orientation)


def test_single_equilibrium_window_gets_no_pitchfork_label():
    game = SINGLE_NE_WINDOW_GAME
    assert count_at(game, 0.05) == 1 and count_at(game, 0.1) == 3
    diagram = bq.sweep_equal_temperature(game, 0.05, 5.0, 80)
    assert diagram.critical_temperatures == pytest.approx(
        [0.05874, 0.21821], rel=1e-4)
    assert (diagram.pitchfork_kind or "none") == bq.classify_pitchfork(game)


def test_one_rest_point_just_outside_a_window_end():
    # the defect's local min is +9.36e-10 at u = -0.0094 here: past zero by
    # far more than its rounding, so not a double root
    game = bq.Game.from_matrices(
        "window_end",
        [[-0.8431164904038608, -1.9319124696363745],
         [-1.576420755274869, 1.0566709002449706]],
        [[2.767796229656579, -0.2516370496561251],
         [0.8764097947156766, 1.5684470542491367]])
    ty = 0.02598526445218819
    (_, t_open, _), (_, t_lo, _) = bq.critical_curve(game, [ty]).samples
    assert t_open == 0.0
    assert t_lo == pytest.approx(25.67076722381188, rel=1e-12)
    co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
    assert bq.count_rest_points(co.at_temperatures(t_lo * (1.0 - 1e-7),
                                                   ty)) == 1


FIXTURE_NAMES = ("stag_hunt", "hawk_dove", "battle_coordination",
                 "matching_pennies", "prisoners_dilemma",
                 "dominant_coordination")


def fold_sweep_range(game):
    """Log range of the benchmark's sweeps: every tangency lies below
    sqrt(raw_a*raw_c)/4."""
    co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
    top = math.sqrt(abs(co.raw_a * co.raw_c)) / 4.0
    return top / 200.0, 2.0 * top


def test_stationary_solves_per_fold(monkeypatch):
    # Newton in T on the stationary value being lost: a few solves per fold
    calls = [0]
    per_fold = {}
    extrema, fold = bifurcation._extrema, bifurcation._fold

    def counted(*args):
        calls[0] += 1
        return extrema(*args)

    monkeypatch.setattr(bifurcation, "_extrema", counted)
    for game in [bq.fixture(n) for n in FIXTURE_NAMES] + random_multi_games(40):
        def timed(*args):
            before = calls[0]
            found = fold(*args)
            per_fold.setdefault(game.name, []).append(calls[0] - before)
            return found

        monkeypatch.setattr(bifurcation, "_fold", timed)
        bq.equal_temperature_criticals(game)
        bq.sweep_equal_temperature(game, *fold_sweep_range(game), 40)
    counts = [n for ns in per_fold.values() for n in ns]
    assert len(counts) >= 80
    assert np.median(counts) <= 12
    for name in ("hawk_dove", "battle_coordination"):
        assert max(per_fold[name]) <= 15, name


@pytest.mark.parametrize("call", [
    lambda g: bq.equal_temperature_criticals(g),
    lambda g: bq.sweep_equal_temperature(g, *fold_sweep_range(g), 40),
], ids=["criticals", "sweep"])
def test_no_temperature_is_solved_twice(monkeypatch, call):
    seen = []
    extrema = bifurcation._extrema

    def recorded(a, b, curve):
        seen.append((a, b, curve.c, curve.d))
        return extrema(a, b, curve)

    monkeypatch.setattr(bifurcation, "_extrema", recorded)
    for game in [bq.fixture(n) for n in COORDINATION] + random_multi_games(20):
        seen.clear()
        call(game)
        assert len(set(seen)) == len(seen), game.name


@pytest.mark.parametrize("name", ("hawk_dove", "battle_coordination"))
def test_cusp_is_the_exact_merge_of_the_stationary_pair(name):
    t_exact = closed_form_pitchfork()
    game = bq.fixture(name)
    (t_sweep,) = sweep_criticals(game)
    ((t_c, u_c),) = bq.equal_temperature_criticals(game)
    assert abs(t_sweep - t_exact) <= 1e-13 * t_exact
    assert abs(t_c - t_exact) <= 1e-13 * t_exact
    co = bq.reduce_payoffs(game, bq.Temperatures(t_c, t_c))
    assert abs(u_c - bq.GFunction(co.c, co.d).inflection()) <= 1e-12
    # all three roots are one there: the merged point ends each branch
    diagram = bq.sweep_equal_temperature(game, 0.2, 2.0, 60)
    rows = [point for branch in diagram.branches for t, point in branch
            if t == t_sweep]
    assert len(rows) == 3 and rows[0] == rows[1] == rows[2]


def test_non_cusp_folds_end_on_the_last_float_with_three_points():
    for game in random_multi_games(40):
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))

        def count(temp):
            return bq.count_rest_points(co.at_temperatures(temp, temp))

        crit = tangency_criticals(game)
        sweep = bq.sweep_equal_temperature(
            game, *fold_sweep_range(game), 40).critical_temperatures
        assert len(sweep) == len(crit), game.name
        for t_s, t_c in zip(sweep, crit):
            assert abs(t_s - t_c) <= 1e-12 * t_c, game.name
            beyond = math.inf if count(t_c * (1.0 + 1e-7)) != 3 else 0.0
            assert count(t_c) == 3, game.name
            assert count(math.nextafter(t_c, beyond)) != 3, game.name


def top_fold(game):
    """The top fold on the grid of ``equal_temperature_criticals``: in the
    cell above the first temperature with three rest points."""
    base = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
    above = None
    for t in bifurcation._descent(base):
        end = (t, bifurcation._stationary(base, t))
        if bifurcation._three(end[1]):
            return bifurcation._fold(base, end, above)
        above = end


def box_games(count, seed=34):
    """Seeded games in the open unit box (-1 < b/a, d/c < 0, a*c > 0), of
    either common sign, with all payoffs scaled by 2^k, |k| <= 900, and
    Y's by a further 2^j, |j| <= 20."""
    rng = random.Random(seed)
    for n in range(count):
        sign = rng.choice((1.0, -1.0))
        raw_a, raw_c = (sign * rng.uniform(0.5, 8.0) for _ in range(2))
        beta, delta = (-rng.random() for _ in range(2))
        k, j = rng.randint(-900, 900), rng.randint(-20, 20)
        yield bq.Game.from_matrices(
            f"box_{n}",
            [[math.ldexp(raw_a * (1.0 + beta), k),
              math.ldexp(raw_a * beta, k)], [0.0, 0.0]],
            [[math.ldexp(raw_c * (1.0 + delta), k + j),
              math.ldexp(raw_c * delta, k + j)], [0.0, 0.0]])


def floats_near(u, scale, n=4):
    """u and its n neighbours on each side, spaced by an ulp of scale (or
    of u if that is wider)."""
    step = max(math.ulp(u), math.ulp(scale))
    return [u + k * step for k in range(-n, n + 1)]


def probe_pairs(co, curve, ext):
    """Probe pairs for :func:`bifurcation._signs_prove_three` at these
    coefficients, with the stationary points ``ext``: the walk's own, the
    same reversed, two spread over the root bracket in both orders, every
    ordered pair of floats next to each root, and floats next to the max
    against floats next to the min."""
    lo, hi = sorted((co.b, co.b + co.a))
    scale = abs(co.a) + abs(co.b)
    pairs = [(lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)),
             (lo + 0.75 * (hi - lo), lo + 0.25 * (hi - lo))]
    if curve._logit_zero() is not None:
        firsts = curve._stationary_firsts(co.a * curve.c, curve._logit_zero())
        pairs += [firsts, firsts[::-1]]
    for point in bq.find_rest_points(co, fd_check=False):
        pairs += itertools.combinations(floats_near(point.u, scale), 2)
    if len(ext) == 2:
        pairs += itertools.product(floats_near(ext[0][0], scale),
                                   floats_near(ext[1][0], scale))
    return pairs


def test_witness_implies_three_rest_points():
    # The witness of the diagonal walk never claims three rest points
    # where the stationary solve finds fewer: at the first 40 points of
    # the walk's grid and at the first float past each fold, for the
    # walk's own probes and for any other pair (the proof holds for every
    # w1 < w2), on box games at payoff scales 2^-920 .. 2^920.  A fold's
    # first float past three rest points has a stationary value within
    # rounding of zero, where the rounding guard is needed.
    points = three = witnessed = checked = 0
    for game in box_games(300):
        base = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        temps = list(itertools.islice(bifurcation._descent(base), 40))
        for end3, end1 in bifurcation._diagonal_cells(base):
            t, _, lost = bifurcation._fold(base, end3, end1)
            if lost != "both":
                temps.append(math.nextafter(t, end1[0]))
        for t in temps:
            points += 1
            ext = bifurcation._stationary(base, t)
            if bifurcation._three(ext):
                three += 1
                witnessed += bifurcation._witness(base, t)
                continue
            assert not bifurcation._witness(base, t), (game.name, t)
            co = base.at_temperatures(t, t)
            curve = bq.GFunction.of(base, t)
            for w1, w2 in probe_pairs(co, curve, ext):
                checked += 1
                assert not bifurcation._signs_prove_three(
                    co, curve, w1, w2), (game.name, t, w1, w2)
    assert points >= 12000 and checked >= 100000
    # the walk's own probes prove most points that have three rest points
    assert witnessed >= 0.8 * three


def unequal_slopes_game(beta):
    """Raw slopes 3 and 5, d/c = -0.4 and b/a = beta."""
    return bq.Game.from_matrices("unequal_slopes",
                                 [[3.0 + 3.0 * beta, 3.0 * beta], [0.0, 0.0]],
                                 [[3.0, -2.0], [0.0, 0.0]])


def test_cusp_off_the_symmetric_family_is_continuous():
    # the diagonal meets a cusp on a codimension-1 set of games: here the
    # top fold loses the min at one end of the beta bracket and the max at
    # the other, and between them it is a cusp
    lo, hi = -0.63, -0.6275
    lost_lo = top_fold(unequal_slopes_game(lo))[2]
    assert (lost_lo, top_fold(unequal_slopes_game(hi))[2]) == ("min", "max")
    while True:
        beta = 0.5 * (lo + hi)
        assert lo < beta < hi
        t_c, _, lost = top_fold(unequal_slopes_game(beta))
        if lost == "both":
            break
        lo, hi = (beta, hi) if lost == lost_lo else (lo, beta)
    assert beta == pytest.approx(-0.6289630822547132, abs=1e-12)
    assert t_c == pytest.approx(0.9560515241531471, rel=1e-12)
    game = unequal_slopes_game(beta)
    assert bq.sweep_equal_temperature(
        game, 0.05, 5.0, 80).pitchfork_kind == "continuous"
    assert bq.classify_pitchfork(game) == "continuous"


#: a three-equilibrium game whose diagonal holds a window of three rest
#: points, (38.4527, 38.5358), above its main fold and narrower than a cell
#: of the criticals grid or of the benchmark's 40-step sweep
NARROW_WINDOW_GAME = bq.Game.from_matrices(
    "narrow_window", [[0.15, -65.6], [0.0, 0.0]], [[297.0, -127.0], [0.0, 0.0]])
NARROW_WINDOW_FOLDS = [28.30969201359419, 38.45274503411621,
                       38.535788345581125]


def test_narrow_diagonal_window_counts():
    game = NARROW_WINDOW_GAME
    co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
    assert (bq.classify_region(co).label
            is bq.GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE)
    for temp, count in ((38.6, 1), (38.5, 3), (38.4, 1), (30.0, 1),
                        (28.0, 3)):
        assert count_at(game, temp) == count, temp
    sweep_range = fold_sweep_range(game)
    fine = bq.sweep_equal_temperature(game, *sweep_range, 3000)
    assert fine.critical_temperatures == pytest.approx(NARROW_WINDOW_FOLDS,
                                                       rel=1e-12)
    coarse = bq.sweep_equal_temperature(game, *sweep_range, 40)
    assert coarse.critical_temperatures == pytest.approx(
        NARROW_WINDOW_FOLDS[:1], rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a window narrower than a grid cell is missed")
def test_criticals_find_the_narrow_diagonal_window():
    assert tangency_criticals(NARROW_WINDOW_GAME) == pytest.approx(
        NARROW_WINDOW_FOLDS, rel=1e-12)


def test_pitchfork_label_matches_closed_form_on_many_games():
    for game in random_multi_games(400, seed=11):
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        t_top = math.sqrt(co.raw_a * co.raw_c) / 4.0
        t_low = min(tangency_criticals(game))
        diagram = bq.sweep_equal_temperature(game, 0.5 * t_low, 2.0 * t_top, 40)
        assert (diagram.pitchfork_kind or "none") == bq.classify_pitchfork(
            game), game.name


def test_criticals_are_window_ends_of_the_critical_curve():
    # a fold on tx = ty = T_c is a tangency, so the critical curve at
    # ty = T_c has a window end at tx = T_c.  A cusp's two tangencies
    # coincide, and there the curve reports only one window end (for
    # hawk_dove only (0, 0.638)), so a continuous game's top fold is left out
    games = [bq.fixture(name) for name in sorted(bq.FIXTURES)]
    checked = 0
    for game in games + random_multi_games(200, seed=5):
        temps = sorted(t for t, _ in bq.equal_temperature_criticals(game) or [])
        if temps and bq.classify_pitchfork(game) == "continuous":
            temps.pop()
        for t_c in temps:
            ends = [end for _, lo, hi in bq.critical_curve(game, [t_c]).samples
                    for end in (lo, hi) if end]
            assert min((abs(end / t_c - 1.0) for end in ends),
                       default=math.inf) <= 1e-12, (game, t_c)
            checked += 1
    assert checked >= 200


def test_closing_temperature_work(monkeypatch):
    # the closing is one Newton solve in ty on the merge at g's inflection,
    # itself a Newton solve in v
    calls = [0]
    for name in ("_touch", "_bend"):
        def counted(*args, _f=getattr(bq.GFunction, name)):
            calls[0] += 1
            return _f(*args)

        monkeypatch.setattr(bq.GFunction, name, counted)
    curve = bq.critical_curve(bq.fixture("dominant_coordination"), CURVE_GRID)
    assert curve.closing_temperature == pytest.approx(1.0127316365710728,
                                                      rel=1e-12)
    assert calls[0] <= 1500
