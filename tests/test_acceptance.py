"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output); a failed assertion is the corresponding fail line.
"""

import math
import time

import numpy as np
import pytest

import boltzq as bq


def _report(number, name, started, budget):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {number:2d} {name}: PASS "
          f"({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_01_matching_pennies_invariance():
    """Exploration never moves the matching-pennies rest point."""
    started = time.perf_counter()
    game = bq.fixture("matching_pennies")
    axis = np.linspace(0.1, 0.9, 5)
    starts = np.array([(x, y) for x in axis for y in axis])
    for temp in (0.05, 0.1, 0.5, 1.0, 5.0, 50.0):
        coeffs = bq.reduce_payoffs(game, bq.Temperatures(temp, temp))
        points = bq.find_rest_points(coeffs)
        assert len(points) == 1
        assert abs(points[0].x - 0.5) < 1e-9
        assert abs(points[0].y - 0.5) < 1e-9
        finals, reason = bq.integrate_batch(starts, coeffs)
        assert reason == "converged"
        assert np.max(np.abs(finals - 0.5)) < 1e-6
    _report(1, "matching-pennies invariance", started, 10.0)


def test_02_cusp_recovery():
    """The two symmetric saddle-node branches meet at (4, -2)."""
    started = time.perf_counter()
    a_star, b_star = bq.locate_cusp()
    assert abs(a_star - 4.0) < 1e-3
    assert abs(b_star + 2.0) < 1e-3
    _report(2, "cusp recovery", started, 5.0)


def test_03_symmetric_offset_consistency():
    """A million-point sign scan flips 1 <-> 3 exactly at the closed-form
    offsets b_c(a)."""
    started = time.perf_counter()
    n = 1_000_000
    x = (np.arange(n, dtype=float) + 0.5) / n
    log_odds = np.log(x) - np.log1p(-x)

    def scan_count(a, b):
        f = log_odds - a * x - b
        sign = np.signbit(f)
        return int(np.count_nonzero(sign[1:] != sign[:-1]))

    for a in (4.5, 5.0, 6.0, 8.0, 12.0):
        for side, b_ref in zip(("lower", "upper"),
                               bq.symmetric_critical_offsets(a)):
            lo, hi = b_ref - 0.01, b_ref + 0.01
            count_lo, count_hi = scan_count(a, lo), scan_count(a, hi)
            assert {count_lo, count_hi} == {1, 3}, (a, side)
            while hi - lo > 2e-7:
                mid = 0.5 * (lo + hi)
                if scan_count(a, mid) == count_lo:
                    lo = mid
                else:
                    hi = mid
            flip = 0.5 * (lo + hi)
            assert abs(flip - b_ref) < 1e-6, (a, side)
    _report(3, "symmetric offset consistency", started, 30.0)


def test_04_prisoners_dilemma_global_convergence():
    """One rest point everywhere on a 10x10 temperature grid, and every
    random start lands on it."""
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    game = bq.fixture("prisoners_dilemma")
    grid = np.geomspace(0.05, 20.0, 10)
    for tx in grid:
        for ty in grid:
            coeffs = bq.reduce_payoffs(game, bq.Temperatures(tx, ty))
            points = bq.find_rest_points(coeffs)
            assert len(points) == 1, (tx, ty)
            target = np.array([points[0].x, points[0].y])
            starts = rng.uniform(0.01, 0.99, (100, 2))
            finals, reason = bq.integrate_batch(starts, coeffs)
            assert reason == "converged", (tx, ty)
            assert np.max(np.abs(finals - target)) < 1e-6, (tx, ty)
    _report(4, "prisoners-dilemma global convergence", started, 300.0)


def test_05_single_equilibrium_window():
    """The three-rest-point exploration window of the dominant-vs-
    coordination game matches its zero-noise closed form and closes at a
    finite opponent temperature."""
    started = time.perf_counter()
    game = bq.fixture("dominant_coordination")
    ty = 1e-3
    curve = bq.critical_curve(game, [ty])
    _, t_lo, t_hi = curve.samples[0]
    u_step, ref_lo, ref_hi = bq.zero_exploration_window(0.1, -0.8, 10.0)
    assert u_step == pytest.approx(math.log(4.0), abs=1e-12)
    assert abs(t_lo - ref_lo) / ref_lo < 0.01
    assert abs(t_hi - ref_hi) / ref_hi < 0.01

    # exact count flip across the window on a 100-point sweep
    coeffs = bq.reduce_payoffs(game, bq.Temperatures(1.0, ty))
    for tx in np.geomspace(t_lo * 0.3, t_hi * 3.0, 100):
        if abs(tx - t_lo) < 1e-6 * t_lo or abs(tx - t_hi) < 1e-6 * t_hi:
            continue
        expected = 3 if t_lo < tx < t_hi else 1
        assert bq.count_rest_points(
            coeffs.at_temperatures(tx, ty)) == expected, tx

    closing = bq.critical_curve(game, [0.5, 0.9, 1.1, 1.5])
    assert closing.closing_temperature is not None
    assert 0.0 < closing.closing_temperature < 1.5
    _report(5, "single-equilibrium window", started, 120.0)


def test_06_pitchfork_taxonomy():
    """Branch-separation criteria label the stag hunt disconnected and the
    symmetric-collapse coordination game continuous."""
    started = time.perf_counter()
    stag = bq.sweep_equal_temperature(bq.fixture("stag_hunt"), 0.2, 2.0, 60)
    assert stag.pitchfork_kind == "discontinuous"
    battle = bq.sweep_equal_temperature(bq.fixture("battle_coordination"),
                                        0.2, 2.0, 60)
    assert battle.pitchfork_kind == "continuous"
    _report(6, "pitchfork taxonomy", started, 120.0)


def sample_three_root_coeffs(rng):
    while True:
        sign = 1.0 if rng.random() < 0.7 else -1.0
        a = sign * rng.uniform(4.2, 25.0)
        c = sign * rng.uniform(4.2, 25.0)
        if a * c < 16.5:
            continue
        if rng.random() < 0.8:
            b = -a * rng.uniform(0.05, 0.95)
            d = -c * rng.uniform(0.05, 0.95)
        else:
            a, c = abs(a) * 2.0, abs(c) * 2.0
            b = a * rng.uniform(0.02, 0.4)
            d = -c * rng.uniform(0.55, 0.95)
        co = bq.ReducedCoefficients.from_values(a, b, c, d)
        if bq.count_rest_points(co) == 3:
            return co


def test_07_stability_law():
    """Across 10^4 random three-root games the middle root is the saddle,
    the outer two are attractors, and the eigenvalue closed form agrees
    with complex-step Jacobians to 1e-6 (checked on every point)."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        co = sample_three_root_coeffs(rng)
        # raises if the complex-step Jacobian disagrees by more than 1e-6
        points = bq.find_rest_points(co)
        assert len(points) == 3
        assert points[1].stability == "saddle_unstable"
        for outer in (points[0], points[2]):
            assert outer.stability in ("stable_node", "stable_spiral")
            assert max(lam.real for lam in outer.eigenvalues) < 0.0
        assert max(lam.real for lam in points[1].eigenvalues) > 0.0
    _report(7, "stability law", started, 120.0)


def test_08_dissipation():
    """Numerical divergence of the log-ratio flow equals -(tx + ty)."""
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(20):
        entries = rng.uniform(-5, 5, (2, 2, 2))
        game = bq.Game.from_matrices("rnd", entries[0].tolist(),
                                     entries[1].tolist())
        temps = bq.Temperatures(*rng.uniform(0.1, 5.0, 2))
        expected = bq.dissipation_rate(temps, 2)
        for _ in range(20):
            point = tuple(rng.uniform(-3, 3, 2))
            assert bq.numerical_divergence(point, game, temps) == \
                pytest.approx(expected, abs=1e-6)
    _report(8, "dissipation", started, 10.0)


def test_09_stochastic_ode_agreement():
    """Simulated learners end within 0.05 of the flow's rest point for at
    least 8 of 10 seeds (matching pennies and prisoner's dilemma)."""
    started = time.perf_counter()
    temps = bq.Temperatures(1.0, 1.0)
    for name in ("matching_pennies", "prisoners_dilemma"):
        game = bq.fixture(name)
        rest = bq.find_rest_points(bq.reduce_payoffs(game, temps))[0]
        passes = 0
        for seed in range(10):
            cfg = bq.SimConfig(batch=100, rounds=10_000, seed=seed,
                               record_every=2000)
            trace_x, trace_y = bq.run_two_agents(game, temps, cfg, alpha=0.01)
            err = max(abs(trace_x.final_probs[0] - rest.x),
                      abs(trace_y.final_probs[0] - rest.y))
            if err < 0.05:
                passes += 1
        assert passes >= 8, name
    _report(9, "stochastic-ode agreement", started, 120.0)


def test_10_free_energy_descent():
    """Reward-entropy free energy never increases along single-agent
    trajectories and bottoms out at the Gibbs strategy."""
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        rewards = rng.uniform(-2.0, 2.0, n)
        temp = float(rng.uniform(0.1, 10.0))
        x0 = rng.dirichlet(np.ones(n) * 1.5)
        x0 = x0 / x0.sum()
        traj = bq.integrate_single_agent(rewards, temp, x0)
        assert traj.terminal_reason == "converged"
        values = [bq.free_energy(p, rewards, temp) for p in traj.points]
        assert np.all(np.diff(values) <= 1e-10)
        gibbs = bq.gibbs_distribution(rewards, temp)
        assert np.max(np.abs(traj.final - gibbs)) < 1e-8
    _report(10, "free-energy descent", started, 30.0)
