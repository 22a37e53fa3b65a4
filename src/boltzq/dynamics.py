"""Continuous-time learning flow: velocity fields, diagnostics, integration.

The two-action flow for strategies (x, y) = (P[X plays action 1],
P[Y plays action 1]) is::

    dx/dt = x(1-x) * [ (a*y + b) - ln(x/(1-x)) ]
    dy/dt = y(1-y) * [ (c*x + d) - ln(y/(1-y)) ]

with the scaled coefficients of :func:`boltzq.games.reduce_payoffs`.  The
integrator works in logit coordinates u = ln(x/(1-x)), v = ln(y/(1-y)),
where the same flow reads ``du/dt = a*sigma(v) + b - u`` (and symmetrically
for v): globally smooth, no simplex boundary, and uniformly volume
contracting, which is why no trajectory can cycle and every run ends at a
rest point.  Samples are mapped back to (x, y) on output.

Convergence is declared on the logit-space velocity norm rather than point
displacement, so slow transits near a saddle are not mistaken for arrival;
since |dx/dt| <= |du/dt|/4 this also bounds the strategy-space velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import expit

from .errors import DomainError
from .games import (Game, PayoffMatrix, ReducedCoefficients, Temperatures,
                    _require_temperature)
from .numerics import logit, sigmoid, sigmoid_slope, softmax

SIMPLEX_TOL = 1e-12
#: step-control ceilings, tightened further by :func:`_solver_tols`
_REL_TOL = 1e-9
_ABS_TOL = 1e-11
#: output strategies are clamped to [_BOUNDARY_CLAMP, 1 - _BOUNDARY_CLAMP]
_BOUNDARY_CLAMP = 1e-12


@dataclass(frozen=True)
class StrategyPoint:
    """Joint strategy: probability each player puts on their first action."""

    x: float
    y: float

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True)
class LogitPoint:
    """Log-odds coordinates (u, v) = (ln(x/(1-x)), ln(y/(1-y)))."""

    u: float
    v: float

    def __iter__(self):
        return iter((self.u, self.v))

    def to_strategy(self) -> StrategyPoint:
        return StrategyPoint(sigmoid(self.u), sigmoid(self.v))


@dataclass(frozen=True)
class IntegratorConfig:
    """Horizon (may be inf) and the logit-speed target that ends a run."""

    max_time: float = 1e4
    convergence_speed_tol: float = 1e-10

    def __post_init__(self):
        if not (self.max_time > 0.0 and self.convergence_speed_tol > 0.0
                and math.isfinite(self.convergence_speed_tol)):
            raise DomainError(
                f"need max_time > 0 and a finite convergence_speed_tol > 0, "
                f"got {self.max_time}, {self.convergence_speed_tol}")


CONVERGED = "converged"
MAX_TIME = "max_time"
STEP_FAILURE = "step_failure"


def _solver_tols(cfg: IntegratorConfig, coord_scale: float,
                 jac_scale: float) -> tuple[float, float]:
    """Step-control tolerances that can actually reach the velocity target.

    Near an attractor the accepted solution hovers at distance
    ~(rtol*|u| + atol) from it (the error-control floor), so the measured
    velocity plateaus around the Jacobian norm times that floor.  To let
    the convergence event fire, the solver runs at tolerances pushed a
    margin below ``convergence_speed_tol`` scaled by the coordinate
    magnitude and attractor stiffness, floored at what float64 step
    control supports.
    """
    jac_scale = max(1.0, jac_scale)
    goal = cfg.convergence_speed_tol / (40.0 * jac_scale)
    rtol = max(3e-14, min(_REL_TOL, goal / max(1e-6, coord_scale)))
    atol = max(1e-300, min(_ABS_TOL, goal))
    return rtol, atol


def _attractor_scales(coeffs: ReducedCoefficients) -> tuple[float, float]:
    """(rest-point coordinate magnitude, Jacobian norm) of the attractors.

    These govern the velocity floor in the convergence tail; only the rest
    points matter, since that is where the solution ends up hovering.
    """
    from .restpoints import find_rest_points
    pts = find_rest_points(coeffs, fd_check=False)
    umax = max(max(abs(p.u), abs(p.v)) for p in pts)
    jnorm = max(1.0 + max(abs(coeffs.a) * sigmoid_slope(p.v),
                          abs(coeffs.c) * sigmoid_slope(p.u)) for p in pts)
    return umax, jnorm


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration steps plus why the run stopped."""

    times: tuple[float, ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    terminal_reason: str

    def __len__(self) -> int:
        return len(self.times)

    @property
    def samples(self) -> list[tuple[float, float, float]]:
        return list(zip(self.times, self.xs, self.ys))

    @property
    def final(self) -> StrategyPoint:
        return StrategyPoint(self.xs[-1], self.ys[-1])


def _require_interior(x: float, y: float) -> None:
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError(f"point ({x}, {y}) is not interior to the unit square")


def strategy_velocity(point, coeffs: ReducedCoefficients) -> tuple[float, float]:
    """(dx/dt, dy/dt) of the two-action flow at an interior point."""
    x, y = point
    _require_interior(x, y)
    fx = x * (1.0 - x) * (coeffs.a * y + coeffs.b - math.log(x / (1.0 - x)))
    fy = y * (1.0 - y) * (coeffs.c * x + coeffs.d - math.log(y / (1.0 - y)))
    return fx, fy


def logit_velocity(point, coeffs: ReducedCoefficients) -> tuple[float, float]:
    """(du/dt, dv/dt) of the flow in log-odds coordinates."""
    u, v = point
    du = coeffs.a * sigmoid(v) + coeffs.b - u
    dv = coeffs.c * sigmoid(u) + coeffs.d - v
    return du, dv


def _check_simplex(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size < 2:
        raise DomainError(f"{name} must be a 1-d simplex vector with n >= 2")
    if np.any(vec <= 0.0):
        raise DomainError(f"{name} must be strictly positive")
    if abs(float(vec.sum()) - 1.0) > SIMPLEX_TOL:
        raise DomainError(f"{name} must sum to 1 within {SIMPLEX_TOL}")
    return vec


def replicator_velocity(x, y, game: Game,
                        temps: Temperatures) -> tuple[np.ndarray, np.ndarray]:
    """Exploration-augmented bi-matrix replicator field for n-action games.

    Component i of the first output is
    ``x_i * [ (A y)_i - x.A y + tx * sum_j x_j ln(x_j / x_i) ]`` and
    symmetrically for y with B and ty; each output sums to zero.
    """
    x = _check_simplex(x, "x")
    y = _check_simplex(y, "y")
    A = np.asarray(game.payoff_x.entries, dtype=float)
    B = np.asarray(game.payoff_y.entries, dtype=float)
    if A.shape[0] != x.size or B.shape[0] != y.size:
        raise DomainError("strategy length does not match the payoff matrices")
    ay = A @ y
    bx = B @ x
    log_x = np.log(x)
    log_y = np.log(y)
    dx = x * (ay - x @ ay + temps.tx * (x @ log_x - log_x))
    dy = y * (bx - y @ bx + temps.ty * (y @ log_y - log_y))
    return dx, dy


def q_velocity(qvals, opponent_strategy, payoff: PayoffMatrix,
               alpha: float) -> np.ndarray:
    """Drift of the value estimates: alpha * (expected reward - Q)."""
    q = np.asarray(qvals, dtype=float)
    opp = np.asarray(opponent_strategy, dtype=float)
    rewards = np.asarray(payoff.entries, dtype=float) @ opp
    return alpha * (rewards - q)


def log_ratio_field(game: Game, temps: Temperatures, w_x, w_y
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Velocity of the flow in log-ratio coordinates, for n-action games.

    Coordinates are w_k = ln(x_{k+1}/x_1), k = 1..n-1 (likewise for y).
    Each component relaxes as ``(A y)_{k+1} - (A y)_1 - tx * w_k``, so the
    field's divergence is the constant -(tx + ty)(n - 1): the flow contracts
    phase-space volume at that uniform rate.
    """
    w_x = np.atleast_1d(np.asarray(w_x, dtype=float))
    w_y = np.atleast_1d(np.asarray(w_y, dtype=float))
    A = np.asarray(game.payoff_x.entries, dtype=float)
    B = np.asarray(game.payoff_y.entries, dtype=float)
    x = softmax(np.concatenate(([0.0], w_x)))
    y = softmax(np.concatenate(([0.0], w_y)))
    ay = A @ y
    bx = B @ x
    dw_x = (ay[1:] - ay[0]) - temps.tx * w_x
    dw_y = (bx[1:] - bx[0]) - temps.ty * w_y
    return dw_x, dw_y


def dissipation_rate(temps: Temperatures, n: int) -> float:
    """Phase-space volume contraction rate, -(tx + ty)(n - 1)."""
    if n < 2:
        raise DomainError("need at least two actions")
    return -(temps.tx + temps.ty) * (n - 1)


def numerical_divergence(point, game: Game, temps: Temperatures,
                         step: float = 1e-5) -> float:
    """Divergence of the log-ratio field at a point, by central differences.

    ``point`` is a :class:`LogitPoint` (or (u, v) pair) for 2-action games,
    or a pair of length n-1 arrays of log-ratio coordinates in general.
    Up to finite-difference error this returns :func:`dissipation_rate`.
    """
    pu, pv = point
    # 2-action logit u = ln(x/(1-x)) is the negated first log-ratio coord.
    w_x = np.atleast_1d(np.asarray(pu, dtype=float))
    w_y = np.atleast_1d(np.asarray(pv, dtype=float))
    if np.isscalar(pu) or np.asarray(pu).ndim == 0:
        w_x, w_y = -w_x, -w_y
    div = 0.0
    for idx in range(w_x.size):
        shift = np.zeros_like(w_x)
        shift[idx] = step
        fp, _ = log_ratio_field(game, temps, w_x + shift, w_y)
        fm, _ = log_ratio_field(game, temps, w_x - shift, w_y)
        div += (fp[idx] - fm[idx]) / (2.0 * step)
    for idx in range(w_y.size):
        shift = np.zeros_like(w_y)
        shift[idx] = step
        _, fp = log_ratio_field(game, temps, w_x, w_y + shift)
        _, fm = log_ratio_field(game, temps, w_x, w_y - shift)
        div += (fp[idx] - fm[idx]) / (2.0 * step)
    return float(div)


def gibbs_distribution(rewards, temp: float) -> np.ndarray:
    """exp(r_i/T) / sum_k exp(r_k/T), computed with a max shift."""
    _require_temperature(temp)
    return softmax(np.asarray(rewards, dtype=float) / temp)


def free_energy(x, rewards, temp: float, allow_zero: bool = False) -> float:
    """-sum_k r_k x_k + T sum_k x_k ln x_k.

    Trades expected reward against strategy entropy; it decreases along
    every single-agent trajectory and is minimized by the Gibbs strategy.
    Zero components are a domain error unless ``allow_zero`` enables the
    0*ln(0) = 0 convention.
    """
    _require_temperature(temp)
    x = np.asarray(x, dtype=float)
    r = np.asarray(rewards, dtype=float)
    if np.any(x < 0.0) or abs(float(x.sum()) - 1.0) > 1e-9:
        raise DomainError("x must be a probability vector")
    if np.any(x == 0.0):
        if not allow_zero:
            raise DomainError("zero component; pass allow_zero=True for the "
                              "0*ln(0)=0 convention")
        entropy_part = float(np.sum(np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)))
    else:
        entropy_part = float(np.sum(x * np.log(x)))
    return float(-(r @ x) + temp * entropy_part)


def _terminal_reason(status: int) -> str:
    if status == 1:
        return CONVERGED
    if status == 0:
        return MAX_TIME
    return STEP_FAILURE


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.clip(values, _BOUNDARY_CLAMP, 1.0 - _BOUNDARY_CLAMP)


def _run_to_rest(rhs, speed, z0, coeffs: ReducedCoefficients,
                 cfg: IntegratorConfig):
    """The one ODE solve: RK45 from z0 until ``speed`` (the logit speed
    minus its target) reaches zero or the horizon.  Returns the solve_ivp
    result, or None when the start is already converged."""
    if speed(0.0, z0) <= 0.0:
        return None
    speed.terminal = True
    rtol, atol = _solver_tols(cfg, *_attractor_scales(coeffs))
    return solve_ivp(rhs, (0.0, cfg.max_time), z0, method="RK45",
                     rtol=rtol, atol=atol, events=speed)


def integrate(start, coeffs: ReducedCoefficients,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate the two-action flow from an interior start.

    Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) in logit
    coordinates; one sample per accepted step, mapped back to (x, y) and
    clamped to [1e-12, 1 - 1e-12].  Stops with reason ``converged`` when
    the logit velocity max-norm drops below ``convergence_speed_tol``,
    ``max_time`` at the horizon, or ``step_failure`` if the stepper gives
    up (never an exception).
    """
    cfg = cfg or IntegratorConfig()
    x0, y0 = start
    _require_interior(x0, y0)
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d

    def rhs(t, z):
        u, v = z
        return (a * sigmoid(v) + b - u, c * sigmoid(u) + d - v)

    def speed(t, z):
        du, dv = rhs(t, z)
        return max(abs(du), abs(dv)) - cfg.convergence_speed_tol

    sol = _run_to_rest(rhs, speed, (logit(x0), logit(y0)), coeffs, cfg)
    if sol is None:
        lo, hi = _BOUNDARY_CLAMP, 1.0 - _BOUNDARY_CLAMP
        return Trajectory((0.0,), (min(max(x0, lo), hi),),
                          (min(max(y0, lo), hi),), CONVERGED)
    xs = _clamp(expit(sol.y[0]))
    ys = _clamp(expit(sol.y[1]))
    return Trajectory(tuple(float(t) for t in sol.t),
                      tuple(float(v) for v in xs),
                      tuple(float(v) for v in ys),
                      _terminal_reason(sol.status))


def integrate_batch(starts, coeffs: ReducedCoefficients,
                    cfg: Optional[IntegratorConfig] = None
                    ) -> tuple[np.ndarray, str]:
    """Integrate many starts as one stacked system (they share step control).

    Stops when *every* trajectory's logit velocity is below tolerance.
    Returns the (n, 2) array of final (x, y) points and the shared terminal
    reason.  Meant for convergence studies where only endpoints matter.
    """
    cfg = cfg or IntegratorConfig()
    pts = np.asarray(starts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("starts must be an (n, 2) array")
    for x0, y0 in pts:
        _require_interior(x0, y0)
    n = pts.shape[0]
    z0 = np.concatenate([np.log(pts[:, 0] / (1 - pts[:, 0])),
                         np.log(pts[:, 1] / (1 - pts[:, 1]))])
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d

    def rhs(t, z):
        u, v = z[:n], z[n:]
        return np.concatenate([a * expit(v) + b - u, c * expit(u) + d - v])

    def speed(t, z):
        return float(np.max(np.abs(rhs(t, z)))) - cfg.convergence_speed_tol

    sol = _run_to_rest(rhs, speed, z0, coeffs, cfg)
    if sol is None:
        return pts.copy(), CONVERGED
    finals = np.column_stack([_clamp(expit(sol.y[:n, -1])),
                              _clamp(expit(sol.y[n:, -1]))])
    return finals, _terminal_reason(sol.status)


@dataclass(frozen=True)
class SimplexTrajectory:
    """Single-agent run: times and simplex points, one row per halving of
    the speed plus one at the stop time."""

    times: tuple[float, ...]
    points: np.ndarray  # shape (len(times), n)
    terminal_reason: str

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


def integrate_single_agent(rewards: Sequence[float], temp: float, start,
                           cfg: Optional[IntegratorConfig] = None
                           ) -> SimplexTrajectory:
    """Relax one agent's mixed strategy against a fixed reward vector.

    In log-ratio coordinates w_k = ln(x_{k+1}/x_1) the flow is linear,
    ``dw_k/dt = (r_{k+1} - r_1) - T w_k``, so it is solved exactly:
    ``w(t) = w* + (w0 - w*) e^{-Tt}`` with ``w* = (r_{k+1} - r_1)/T``, the
    Gibbs distribution of the rewards at temperature T.  The speed
    ``T max|w - w*|`` decays as e^{-Tt}, so it reaches
    ``convergence_speed_tol`` at ``ln(speed0/tol)/T``; past ``max_time``
    the run stops there instead.  Rows are taken every time the speed
    halves (every ln 2/T) plus one at the stop time.
    """
    _require_temperature(temp)
    cfg = cfg or IntegratorConfig()
    r = np.asarray(rewards, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("rewards must be finite")
    x0 = _check_simplex(start, "start")
    if x0.size != r.size:
        raise DomainError("start length must match rewards")
    w0 = np.log(x0[1:] / x0[0])
    gaps = r[1:] - r[0]
    speed0 = float(np.max(np.abs(gaps - temp * w0)))
    if speed0 <= cfg.convergence_speed_tol:
        return SimplexTrajectory((0.0,), x0[None, :].copy(), CONVERGED)
    t_stop = (math.log(speed0) - math.log(cfg.convergence_speed_tol)) / temp
    t_end = min(t_stop, cfg.max_time)
    # k ln2 / T for k = 0 .. ceil(T t_end / ln2); at subnormal T the rows
    # past k = 0 overflow to inf and are dropped
    with np.errstate(over="ignore"):
        grid = np.arange(math.ceil(temp * t_end / math.log(2.0)) + 1
                         ) * math.log(2.0) / temp
    times = np.append(grid[grid < t_end], t_end)
    # w0 e^{-Tt} + gaps (1 - e^{-Tt})/T never forms w* = gaps/T, which
    # overflows at tiny T while w(t) itself stays finite
    ws = (np.outer(np.exp(-temp * times), w0)
          - np.outer(np.expm1(-temp * times) / temp, gaps))
    points = np.stack([softmax(np.concatenate(([0.0], w))) for w in ws])
    return SimplexTrajectory(tuple(float(t) for t in times), points,
                             CONVERGED if t_stop <= cfg.max_time else MAX_TIME)
