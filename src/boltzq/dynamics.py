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
II.4-II.6) with scipy's RK45 error controller.  It runs on Python floats,
one trajectory at a time (a batch runs each start on its own), and stops
where the velocity norm crosses its target, located by bisection on the
quartic dense output.  No scipy is imported at run time.  Its stepping
loop calls no Python function per stage: each stage derivative is
written out with :func:`~boltzq.numerics.sigmoid`'s two branches inline,
because in CPython such a call costs about as much as the arithmetic it
wraps.  Every float operation keeps its operands and order, so the
samples are the same bits as through ``sigmoid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .games import Game, PayoffMatrix, ReducedCoefficients, Temperatures
from .numerics import (_as_count, _as_float, _as_pair, _require_interior,
                       _require_learning_rate, _require_temperature, bisect,
                       logit, sigmoid, sigmoid_slope)

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


def strategy_velocity(point, coeffs: ReducedCoefficients) -> tuple[float, float]:
    """(dx/dt, dy/dt) of the two-action flow at an interior point."""
    x, y = _require_interior(point)
    fx = x * (1.0 - x) * (coeffs.a * y + coeffs.b - math.log(x / (1.0 - x)))
    fy = y * (1.0 - y) * (coeffs.c * x + coeffs.d - math.log(y / (1.0 - y)))
    return fx, fy


def logit_velocity(point, coeffs: ReducedCoefficients) -> tuple[float, float]:
    """(du/dt, dv/dt) of the flow in log-odds coordinates."""
    u, v = _as_pair(point)
    u, v = _as_float(u, "u"), _as_float(v, "v")
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
    """exp(z) / sum(exp(z)) along the last axis, so each row of a stack is
    its own distribution, shifted by the row's max so no term overflows."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _as_array(values, name: str) -> np.ndarray:
    """The one vector rule: ``values`` as a float array, or
    :class:`DomainError` where numpy refuses to convert them."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be numbers: {exc}") from exc


def _check_simplex(vec, name: str) -> np.ndarray:
    vec = _as_array(vec, name)
    if vec.ndim != 1 or vec.size < 2:
        raise DomainError(f"{name} must be a 1-d simplex vector with n >= 2")
    if not np.all((vec > 0.0) & np.isfinite(vec)):
        raise DomainError(f"{name} must be finite and strictly positive")
    if abs(float(vec.sum()) - 1.0) > SIMPLEX_TOL:
        raise DomainError(f"{name} must sum to 1 within {SIMPLEX_TOL}")
    return vec


def _rewards(payoff: PayoffMatrix, opp: np.ndarray) -> np.ndarray:
    """The expected reward of each own action against the opponent's
    strategy: ``payoff @ opp``."""
    return np.asarray(payoff.entries, dtype=float) @ opp


def replicator_velocity(x, y, game: Game,
                        temps: Temperatures) -> tuple[np.ndarray, np.ndarray]:
    """Exploration-augmented bi-matrix replicator field for n-action games.

    Component i of the first output is
    ``x_i * [ (A y)_i - x.A y + tx * sum_j x_j ln(x_j / x_i) ]`` and
    symmetrically for y with B and ty; each output sums to zero.
    """
    x = _check_simplex(x, "x")
    y = _check_simplex(y, "y")
    if x.size != game.n or y.size != game.n:
        raise DomainError("strategy length does not match the payoff matrices")

    def half(own, payoff, opp, temp):
        rewards, log_own = _rewards(payoff, opp), np.log(own)
        return own * (rewards - own @ rewards
                      + temp * (own @ log_own - log_own))
    return (half(x, game.payoff_x, y, temps.tx),
            half(y, game.payoff_y, x, temps.ty))


def q_velocity(qvals, opponent_strategy, payoff: PayoffMatrix,
               alpha: float) -> np.ndarray:
    """Drift of the value estimates: alpha * (expected reward - Q), one
    entry per action of ``payoff``; alpha is a learning rate in (0, 1], as
    for :class:`~boltzq.simulate.AgentState`."""
    alpha = _require_learning_rate(alpha)
    q = _as_array(qvals, "q")
    opp = _as_array(opponent_strategy, "opponent strategy")
    if q.shape != (payoff.n,) or opp.shape != (payoff.n,):
        raise DomainError("q and the opponent need one entry per action")
    return alpha * (_rewards(payoff, opp) - q)


def log_ratio_field(game: Game, temps: Temperatures, w_x, w_y
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Velocity of the flow in log-ratio coordinates, for n-action games.

    Coordinates are w_k = ln(x_{k+1}/x_1), k = 1..n-1 (likewise for y).
    Each component relaxes as ``(A y)_{k+1} - (A y)_1 - tx * w_k``, so the
    field's divergence is the constant -(tx + ty)(n - 1): the flow contracts
    phase-space volume at that uniform rate.
    """
    w_x = np.atleast_1d(_as_array(w_x, "w_x"))
    w_y = np.atleast_1d(_as_array(w_y, "w_y"))
    ay = _rewards(game.payoff_x, softmax(np.concatenate(([0.0], w_y))))
    bx = _rewards(game.payoff_y, softmax(np.concatenate(([0.0], w_x))))
    dw_x = (ay[1:] - ay[0]) - temps.tx * w_x
    dw_y = (bx[1:] - bx[0]) - temps.ty * w_y
    return dw_x, dw_y


def dissipation_rate(temps: Temperatures, n: int) -> float:
    """Phase-space volume contraction rate, -(tx + ty)(n - 1)."""
    return -(temps.tx + temps.ty) * (_as_count(n, "n", 2) - 1)


def numerical_divergence(point, game: Game, temps: Temperatures) -> float:
    """Divergence of the log-ratio field at a point, by central differences.

    ``point`` is a :class:`LogitPoint` (or (u, v) pair) for 2-action games,
    or a pair of length n-1 arrays of log-ratio coordinates in general.
    Up to finite-difference error this returns :func:`dissipation_rate`.
    """
    pu, pv = _as_pair(point)
    # 2-action logit u = ln(x/(1-x)) is the negated first log-ratio coord.
    w_x, w_y = _as_array(pu, "point"), _as_array(pv, "point")
    if w_x.ndim == 0:
        w_x, w_y = -w_x, -w_y
    w_x, w_y = np.atleast_1d(w_x), np.atleast_1d(w_y)
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
    """The reward vector as floats; an empty vector, one that is not 1-d
    or non-finite entries are a domain error."""
    r = _as_array(rewards, "rewards")
    if r.ndim != 1 or r.size == 0:
        raise DomainError("rewards must be a non-empty 1-d vector")
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
    x = _as_array(x, "x")
    r = _finite_rewards(rewards)
    if x.shape != r.shape:
        raise DomainError("x must be 1-d with one entry per reward")
    if (not np.all((x >= 0.0) & np.isfinite(x))
            or abs(float(x.sum()) - 1.0) > 1e-9):
        raise DomainError("x must be a probability vector")
    if not allow_zero and np.any(x == 0.0):
        raise DomainError("zero component; pass allow_zero=True for the "
                          "0*ln(0)=0 convention")
    entropy_part = float(np.sum(x * np.log(np.where(x > 0.0, x, 1.0))))
    return float(-(r @ x) + temp * entropy_part)


# The quartic dense-output matrix P of Dormand-Prince 5(4) with Shampine's
# optimal c_6 (Hairer, Norsett & Wanner, Solving ODEs I, II.6; scipy's RK45)
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


def _run_to_rest(u: float, v: float, coeffs: ReducedCoefficients,
                 cfg: IntegratorConfig) -> tuple[list, str, int, int]:
    """The one ODE solve: Dormand-Prince 5(4) in logit coordinates from
    (u, v) until the logit speed reaches ``convergence_speed_tol`` or t
    reaches ``max_time``.  Returns the accepted points (t, u, v), the
    start first, the terminal reason, ``nfev`` and the rejected steps.

    The controller is scipy's RK45: RMS error norm over both coordinates,
    step factor 0.9*err^(-1/5) clamped to [0.2, 10] and capped at 1 right
    after a rejection, scipy's initial-step rule (HNW II.4), and a minimum
    step of 10 ulp(t) below which the run ends as ``step_failure``.  The
    speed is checked after each accepted step; once it is at or below
    target, its crossing is bisected on the quartic dense output and the
    last point is placed there.

    The loop calls no Python function per stage, since calls, not
    arithmetic, took much of each step.  It writes out the six new stage
    derivatives of each attempted step, one line per coordinate with
    ``sigmoid``'s two branches as a conditional expression; it reads the
    tableau and ``exp``, ``ulp`` and ``sqrt`` as locals, and writes the
    error norm and the step clamps as comparisons.  Each float operation
    keeps its operands and order (``max(p, q)`` becomes ``q if q > p else
    p``), so every sample, the reason, ``nfev`` and the rejected count are
    the bits that ``flow`` would give.  ``flow`` still serves the
    initial-step rule and the dense-output stop, which run once per
    trajectory.
    """
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    tol, t_end = cfg.convergence_speed_tol, cfg.max_time
    root_size = math.sqrt(2)

    def flow(p, q):
        return a * sigmoid(q) + b - p, c * sigmoid(p) + d - q

    def speed(du, dv):
        return max(abs(du), abs(dv)) - tol

    def rms(p, q):
        return math.sqrt(p * p + q * q) / root_size

    points = [(0.0, u, v)]
    fu, fv = flow(u, v)
    g = speed(fu, fv)
    if g <= 0.0:
        return points, CONVERGED, 1, 0
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
    # Dormand-Prince 5(4) for an autonomous flow (HNW II.5; scipy's RK45):
    # stage weights a, 5th-order weights b, error weights e (5th minus
    # embedded 4th order, FSAL stage last); CPython folds each quotient
    # at compile time
    exp, ulp, sqrt = math.exp, math.ulp, math.sqrt
    a21 = 1 / 5
    a31, a32 = 3 / 40, 9 / 40
    a41, a42, a43 = 44 / 45, -56 / 15, 32 / 9
    a51, a52, a53, a54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    a61, a62, a63, a64, a65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                               -5103 / 18656)
    b1, b3, b4, b5, b6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    e1, e3, e4, e5, e6, e7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                              17253 / 339200, -22 / 525, 1 / 40)
    nfev, rejected = 2, 0
    t = 0.0
    while True:
        min_step = 10.0 * ulp(t)
        h_abs = min_step if min_step > h_abs else h_abs
        cap = _MAX_FACTOR  # the step factor's ceiling, 1 after a rejection
        while True:
            if h_abs < min_step:
                return points, STEP_FAILURE, nfev, rejected
            t_new = t_end if t + h_abs > t_end else t + h_abs
            h_abs = h = t_new - t
            p, q = u + h * (a21 * fu), v + h * (a21 * fv)
            ku2 = a * (1.0 / (1.0 + exp(-q)) if q >= 0.0
                       else (e := exp(q)) / (1.0 + e)) + b - p
            kv2 = c * (1.0 / (1.0 + exp(-p)) if p >= 0.0
                       else (e := exp(p)) / (1.0 + e)) + d - q
            p = u + h * (a31 * fu + a32 * ku2)
            q = v + h * (a31 * fv + a32 * kv2)
            ku3 = a * (1.0 / (1.0 + exp(-q)) if q >= 0.0
                       else (e := exp(q)) / (1.0 + e)) + b - p
            kv3 = c * (1.0 / (1.0 + exp(-p)) if p >= 0.0
                       else (e := exp(p)) / (1.0 + e)) + d - q
            p = u + h * (a41 * fu + a42 * ku2 + a43 * ku3)
            q = v + h * (a41 * fv + a42 * kv2 + a43 * kv3)
            ku4 = a * (1.0 / (1.0 + exp(-q)) if q >= 0.0
                       else (e := exp(q)) / (1.0 + e)) + b - p
            kv4 = c * (1.0 / (1.0 + exp(-p)) if p >= 0.0
                       else (e := exp(p)) / (1.0 + e)) + d - q
            p = u + h * (a51 * fu + a52 * ku2 + a53 * ku3 + a54 * ku4)
            q = v + h * (a51 * fv + a52 * kv2 + a53 * kv3 + a54 * kv4)
            ku5 = a * (1.0 / (1.0 + exp(-q)) if q >= 0.0
                       else (e := exp(q)) / (1.0 + e)) + b - p
            kv5 = c * (1.0 / (1.0 + exp(-p)) if p >= 0.0
                       else (e := exp(p)) / (1.0 + e)) + d - q
            p = u + h * (a61 * fu + a62 * ku2 + a63 * ku3 + a64 * ku4
                         + a65 * ku5)
            q = v + h * (a61 * fv + a62 * kv2 + a63 * kv3 + a64 * kv4
                         + a65 * kv5)
            ku6 = a * (1.0 / (1.0 + exp(-q)) if q >= 0.0
                       else (e := exp(q)) / (1.0 + e)) + b - p
            kv6 = c * (1.0 / (1.0 + exp(-p)) if p >= 0.0
                       else (e := exp(p)) / (1.0 + e)) + d - q
            u_new = u + h * (b1 * fu + b3 * ku3 + b4 * ku4 + b5 * ku5
                             + b6 * ku6)
            v_new = v + h * (b1 * fv + b3 * kv3 + b4 * kv4 + b5 * kv5
                             + b6 * kv6)
            ku7 = a * (1.0 / (1.0 + exp(-v_new)) if v_new >= 0.0
                       else (e := exp(v_new)) / (1.0 + e)) + b - u_new
            kv7 = c * (1.0 / (1.0 + exp(-u_new)) if u_new >= 0.0
                       else (e := exp(u_new)) / (1.0 + e)) + d - v_new
            nfev += 6
            au, aun, av, avn = abs(u), abs(u_new), abs(v), abs(v_new)
            eu = h * (e1 * fu + e3 * ku3 + e4 * ku4 + e5 * ku5 + e6 * ku6
                      + e7 * ku7) / (atol + (aun if aun > au else au) * rtol)
            ev = h * (e1 * fv + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6
                      + e7 * kv7) / (atol + (avn if avn > av else av) * rtol)
            err = sqrt(eu * eu + ev * ev) / root_size
            if err < 1.0:
                factor = _SAFETY * err ** _EXPONENT if err > 0.0 else cap
                h_abs *= cap if factor > cap else factor
                break
            factor = _SAFETY * err ** _EXPONENT
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            cap = 1.0
            rejected += 1
        aku, akv = abs(ku7), abs(kv7)
        g_new = (akv if akv > aku else aku) - tol
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
            points.append((t_stop, *dense(t_stop)))
            return points, CONVERGED, nfev, rejected
        points.append((t_new, u_new, v_new))
        if t_new >= t_end:
            return points, MAX_TIME, nfev, rejected
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
    x0, y0 = _require_interior(start)
    points, reason, nfev, rejected = _run_to_rest(logit(x0), logit(y0),
                                                  coeffs, cfg)
    times, us, vs = zip(*points)
    # the first sample is the start itself, the rest map back from logits
    xs, ys = np.clip([np.append(x0, sigmoid_array(np.array(us[1:]))),
                      np.append(y0, sigmoid_array(np.array(vs[1:])))],
                     _BOUNDARY_CLAMP, 1.0 - _BOUNDARY_CLAMP).tolist()
    return Trajectory(times, tuple(xs), tuple(ys), reason, nfev, rejected)


def integrate_batch(starts, coeffs: ReducedCoefficients,
                    cfg: Optional[IntegratorConfig] = None
                    ) -> tuple[np.ndarray, str]:
    """Integrate each start on its own; keep only the endpoints.

    Each start runs through :func:`integrate`, so its endpoint is
    bit-equal to that run's ``final``: where this start's own logit speed
    crossed its target, or where its run stopped.  Every start is checked
    before any is run, and each run's samples are dropped once its
    endpoint is read.  Returns the (n, 2) array of final (x, y) points and
    one terminal reason: ``converged`` when every run converged, otherwise
    the first other reason in start order.
    """
    pts = _as_array(starts, "starts")
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise DomainError("starts must be an (n, 2) array with n >= 1")
    for start in pts:
        _require_interior(start)
    # a generator, so each run's samples go once its endpoint is read
    runs = (integrate(start, coeffs, cfg) for start in pts.tolist())
    finals, reasons = zip(*((tuple(run.final), run.terminal_reason)
                            for run in runs))
    return (np.array(finals),
            next((r for r in reasons if r != CONVERGED), CONVERGED))


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
