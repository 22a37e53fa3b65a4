"""Folds of the equal-temperature sweep, checked against independent counts.

A fold is where a stationary value of the defect ``u - b - a*g(u)`` crosses
zero and the rest-point count flips between 3 and 1.  These tests probe the
reported critical temperatures with plain rest-point counts on both sides,
and the continuous pitchforks against their closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boltzq as bq
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


@pytest.mark.parametrize("call", [
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
], ids=["t_max_inf", "t_min_nan", "t_min_neg_inf", "empty_range",
        "t_min_zero", "steps_negative", "steps_one", "orientation",
        "tx_zero", "ty_inf", "tx_nan"])
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
