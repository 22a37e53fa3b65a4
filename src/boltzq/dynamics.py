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

Trajectories come from one in-house Dormand-Prince 5(4) stepper
(:func:`_run_to_rest`; Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.6) with scipy's RK45 error controller.  It runs on Python floats
for one trajectory and on numpy rows sharing one step for a batch, and
stops where the velocity norm crosses its target, located by bisection on
the quartic dense output.  No scipy is imported at run time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .games import (Game, PayoffMatrix, ReducedCoefficients, Temperatures,
                    _as_float, _require_temperature)
from .numerics import bisect, logit, sigmoid, sigmoid_slope

SIMPLEX_TOL = 1e-12
#: step-control ceilings, tightened further by :func:`_solver_tols`
_REL_TOL = 1e-9
_ABS_TOL = 1e-11
#: output strategies are clamped to [_BOUNDARY_CLAMP, 1 - _BOUNDARY_CLAMP]
_BOUNDARY_CLAMP = 1e-12
#: central-difference step of :func:`numerical_divergence`
_DIVERGENCE_STEP = 1e-5


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
        max_time = _as_float(self.max_time, "max_time")
        tol = _as_float(self.convergence_speed_tol, "convergence_speed_tol")
        if not (max_time > 0.0 and tol > 0.0 and math.isfinite(tol)):
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
    """Accepted integration steps, why the run stopped, and the stepper's
    right-hand-side evaluations and rejected steps."""

    times: tuple[float, ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    terminal_reason: str
    nfev: int = 0
    rejected_steps: int = 0

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


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Elementwise :func:`~boltzq.numerics.sigmoid` by the same two-branch
    formula: the numerator ``exp(min(z, 0))`` is 1 for z >= 0 and
    ``exp(-|z|)`` below, over ``1 + exp(-|z|)``.  So it rounds like the
    scalar version, up to the ulp by which numpy's exp may differ from
    ``math.exp``, and never to 0 for finite z above -745."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def softmax(z: np.ndarray) -> np.ndarray:
    """exp(z) / sum(exp(z)), shifted by max(z) so no term overflows."""
    e = np.exp(z - z.max())
    return e / e.sum()


def _check_simplex(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size < 2:
        raise DomainError(f"{name} must be a 1-d simplex vector with n >= 2")
    if not np.all((vec > 0.0) & np.isfinite(vec)):
        raise DomainError(f"{name} must be finite and strictly positive")
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
    if not isinstance(n, numbers.Integral) or n < 2:
        raise DomainError(f"need a whole number n >= 2 of actions, got {n!r}")
    return -(temps.tx + temps.ty) * (n - 1)


def numerical_divergence(point, game: Game, temps: Temperatures) -> float:
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
    for player, w in enumerate((w_x, w_y)):
        for idx in range(w.size):
            shift = np.zeros_like(w)
            shift[idx] = _DIVERGENCE_STEP
            fp, fm = (log_ratio_field(game, temps,
                                      *((m, w_y), (w_x, m))[player])[player]
                      for m in (w + shift, w - shift))
            div += (fp[idx] - fm[idx]) / (2.0 * _DIVERGENCE_STEP)
    return float(div)


def _finite_rewards(rewards) -> np.ndarray:
    """The reward vector as floats; non-finite entries are a domain error."""
    r = np.asarray(rewards, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("rewards must be finite")
    return r


def gibbs_distribution(rewards, temp: float) -> np.ndarray:
    """exp(r_i/T) / sum_k exp(r_k/T), computed with a max shift."""
    _require_temperature(temp)
    return softmax(_finite_rewards(rewards) / temp)


def free_energy(x, rewards, temp: float, allow_zero: bool = False) -> float:
    """-sum_k r_k x_k + T sum_k x_k ln x_k.

    Trades expected reward against strategy entropy; it decreases along
    every single-agent trajectory and is minimized by the Gibbs strategy.
    Zero components are a domain error unless ``allow_zero`` enables the
    0*ln(0) = 0 convention.
    """
    _require_temperature(temp)
    x = np.asarray(x, dtype=float)
    r = _finite_rewards(rewards)
    if (not np.all((x >= 0.0) & np.isfinite(x))
            or abs(float(x.sum()) - 1.0) > 1e-9):
        raise DomainError("x must be a probability vector")
    if not allow_zero and np.any(x == 0.0):
        raise DomainError("zero component; pass allow_zero=True for the "
                          "0*ln(0)=0 convention")
    entropy_part = float(np.sum(x * np.log(np.where(x > 0.0, x, 1.0))))
    return float(-(r @ x) + temp * entropy_part)


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.clip(values, _BOUNDARY_CLAMP, 1.0 - _BOUNDARY_CLAMP)


# Dormand-Prince 5(4) for an autonomous flow: stage weights A, the
# 5th-order weights B, the error weights E (5th minus embedded 4th order,
# FSAL stage last) and the quartic dense-output matrix P with Shampine's
# optimal c_6 (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6; the
# tableau of scipy's RK45)
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0, 0, 0, 0),
      (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844),
      (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
# RK45's step controller: error exponent -1/(4+1) of the embedded order,
# safety factor and the clamp on the step factor (HNW II.4)
_EXPONENT = -1 / 5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _quartic(stages) -> list:
    """Coefficients q of the dense output y(t + x*h) = y + h*x*(q0 + q1*x
    + q2*x^2 + q3*x^3) from one coordinate's seven stage derivatives."""
    return [sum(row[j] * k for row, k in zip(_P, stages)) for j in range(4)]


class _Arith(NamedTuple):
    """What the stepper needs beyond + and *: the logistic, the elementwise
    max, and the max-norm and the sum of squares of one coordinate."""

    sig: Callable
    maximum: Callable
    peak: Callable
    sumsq: Callable


#: one trajectory on Python floats
_SCALAR = _Arith(sigmoid, max, abs, lambda e: e * e)
#: numpy rows that share one step
_ROWS = _Arith(sigmoid_array, np.maximum, lambda e: float(np.abs(e).max()),
               lambda e: float(e @ e))


@dataclass
class _Run:
    """Accepted rows (the start first) and the stepper's counts; without
    ``history`` only the start and the latest row are kept."""

    times: list
    us: list
    vs: list
    reason: str
    nfev: int
    rejected: int = 0
    history: bool = True

    def keep(self, t, u, v) -> None:
        if not self.history:
            del self.times[1:], self.us[1:], self.vs[1:]
        self.times.append(t)
        self.us.append(u)
        self.vs.append(v)


def _run_to_rest(u, v, coeffs: ReducedCoefficients, cfg: IntegratorConfig,
                 ops: _Arith, history: bool = True) -> _Run:
    """The one ODE solve: Dormand-Prince 5(4) in logit coordinates from
    (u, v) until the logit speed reaches ``convergence_speed_tol`` or t
    reaches ``max_time``.

    u and v are floats, or numpy rows stepped together.  The controller
    is scipy's RK45: RMS error norm over every coordinate, step factor
    0.9*err^(-1/5) clamped to [0.2, 10] and capped at 1 right after a
    rejection, scipy's initial-step rule (HNW II.4), and a minimum step of
    10 ulp(t) below which the run ends as ``step_failure``.  The speed is
    checked after each accepted step; once it is at or below target, its
    crossing is bisected on the quartic dense output and the last row is
    placed there.
    """
    sig, maximum, peak, sumsq = ops
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    tol, t_end = cfg.convergence_speed_tol, cfg.max_time
    root_size = math.sqrt(2 * np.size(u))

    def flow(p, q):
        return a * sig(q) + b - p, c * sig(p) + d - q

    def speed(du, dv):
        return max(peak(du), peak(dv)) - tol

    def rms(p, q):
        return math.sqrt(sumsq(p) + sumsq(q)) / root_size

    run = _Run([0.0], [u], [v], CONVERGED, nfev=1, history=history)
    fu, fv = flow(u, v)
    g = speed(fu, fv)
    if g <= 0.0:
        return run
    rtol, atol = _solver_tols(cfg, *_attractor_scales(coeffs))
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(u / su, v / sv), rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    gu, gv = flow(u + h0 * fu, v + h0 * fv)
    # h0 is 0 when d1 overflows; numpy's rule then divides to inf
    d2 = rms((gu - fu) / su, (gv - fv) / sv) / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100.0 * h0, h_abs, t_end)
    run.nfev += 1
    t = 0.0
    while True:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                run.reason = STEP_FAILURE
                return run
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            ku2, kv2 = flow(u + h * (_A21 * fu), v + h * (_A21 * fv))
            ku3, kv3 = flow(u + h * (_A31 * fu + _A32 * ku2),
                            v + h * (_A31 * fv + _A32 * kv2))
            ku4, kv4 = flow(u + h * (_A41 * fu + _A42 * ku2 + _A43 * ku3),
                            v + h * (_A41 * fv + _A42 * kv2 + _A43 * kv3))
            ku5, kv5 = flow(
                u + h * (_A51 * fu + _A52 * ku2 + _A53 * ku3 + _A54 * ku4),
                v + h * (_A51 * fv + _A52 * kv2 + _A53 * kv3 + _A54 * kv4))
            ku6, kv6 = flow(
                u + h * (_A61 * fu + _A62 * ku2 + _A63 * ku3 + _A64 * ku4
                         + _A65 * ku5),
                v + h * (_A61 * fv + _A62 * kv2 + _A63 * kv3 + _A64 * kv4
                         + _A65 * kv5))
            u_new = u + h * (_B1 * fu + _B3 * ku3 + _B4 * ku4 + _B5 * ku5
                             + _B6 * ku6)
            v_new = v + h * (_B1 * fv + _B3 * kv3 + _B4 * kv4 + _B5 * kv5
                             + _B6 * kv6)
            ku7, kv7 = flow(u_new, v_new)
            run.nfev += 6
            eu = h * (_E1 * fu + _E3 * ku3 + _E4 * ku4 + _E5 * ku5
                      + _E6 * ku6 + _E7 * ku7)
            ev = h * (_E1 * fv + _E3 * kv3 + _E4 * kv4 + _E5 * kv5
                      + _E6 * kv6 + _E7 * kv7)
            err = rms(eu / (atol + maximum(abs(u), abs(u_new)) * rtol),
                      ev / (atol + maximum(abs(v), abs(v_new)) * rtol))
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
            run.rejected += 1
        g_new = speed(ku7, kv7)
        if g_new <= 0.0:
            qu = _quartic((fu, ku2, ku3, ku4, ku5, ku6, ku7))
            qv = _quartic((fv, kv2, kv3, kv4, kv5, kv6, kv7))

            def dense(s):
                x = (s - t) / h
                return (u + h * x * (qu[0] + x * (qu[1] + x * (qu[2]
                                                            + x * qu[3]))),
                        v + h * x * (qv[0] + x * (qv[1] + x * (qv[2]
                                                            + x * qv[3]))))

            t_stop = bisect(lambda s: (speed(*flow(*dense(s))), None),
                            t, t_new, g, g_new)
            run.keep(t_stop, *dense(t_stop))
            return run
        run.keep(t_new, u_new, v_new)
        if t_new >= t_end:
            run.reason = MAX_TIME
            return run
        t, u, v, fu, fv, g = t_new, u_new, v_new, ku7, kv7, g_new


def integrate(start, coeffs: ReducedCoefficients,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate the two-action flow from an interior start.

    The in-house Dormand-Prince 5(4) stepper of :func:`_run_to_rest` on
    Python floats, in logit coordinates, with RK45's error controller; one
    sample per accepted step, mapped back to (x, y) and clamped to
    [1e-12, 1 - 1e-12].  Stops with reason ``converged`` when the logit
    velocity max-norm drops below ``convergence_speed_tol`` (the last
    sample sits at the crossing, located on the dense output),
    ``max_time`` at the horizon, or ``step_failure`` if the step falls
    below 10 ulp(t) (never an exception).  ``nfev`` counts the stepper's
    right-hand-side evaluations, as solve_ivp does (the crossing search
    is not included), and ``rejected_steps`` its rejected attempts.
    """
    cfg = cfg or IntegratorConfig()
    x0, y0 = start
    _require_interior(x0, y0)
    run = _run_to_rest(logit(x0), logit(y0), coeffs, cfg, _SCALAR)
    # the first sample is the start itself, the rest map back from logits
    xs = _clamp(np.append(x0, sigmoid_array(np.array(run.us[1:]))))
    ys = _clamp(np.append(y0, sigmoid_array(np.array(run.vs[1:]))))
    return Trajectory(tuple(run.times), tuple(xs.tolist()),
                      tuple(ys.tolist()), run.reason, run.nfev, run.rejected)


def integrate_batch(starts, coeffs: ReducedCoefficients,
                    cfg: Optional[IntegratorConfig] = None
                    ) -> tuple[np.ndarray, str]:
    """Integrate many starts as one stacked system (they share step control).

    The stepper of :func:`integrate` runs on the rows u, v of one (2, n)
    logit array: one step size for all starts, set by the RMS error over
    all 2n coordinates, and one stop, when *every* trajectory's logit
    velocity is below tolerance (located on the dense output as in
    :func:`integrate`).  Returns the (n, 2) array of final (x, y) points
    and the shared terminal reason.  Meant for convergence studies where
    only endpoints matter: only the start and the latest row are held.
    """
    cfg = cfg or IntegratorConfig()
    pts = np.asarray(starts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise DomainError("starts must be an (n, 2) array with n >= 1")
    for x0, y0 in pts:
        _require_interior(x0, y0)
    u, v = np.log(pts / (1.0 - pts)).T
    run = _run_to_rest(u, v, coeffs, cfg, _ROWS, history=False)
    if len(run.times) == 1:
        return pts.copy(), run.reason
    finals = np.column_stack([_clamp(sigmoid_array(run.us[-1])),
                              _clamp(sigmoid_array(run.vs[-1]))])
    return finals, run.reason


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
    r = _finite_rewards(rewards)
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
