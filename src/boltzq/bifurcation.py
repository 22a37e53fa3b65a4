"""Temperature sweeps, critical curves, and saddle-node/pitchfork analysis.

Everything here leans on one geometric fact from :mod:`boltzq.restpoints`:
rest points are intersections of the line ``(u - b)/a`` with the response
curve ``g(u)``, so rest points appear or vanish exactly where the line is
*tangent* to g.  Along tx = ty = T that is a *fold*: one of the two
stationary values of the defect ``u - b - a*g(u)`` crosses zero (three
rest points exist while its local max is above zero and its local min
below), and at a *cusp* both vanish together.  Folds are bisected in T on
the sign of those two values.

At a fixed opposite temperature (the critical curve) the same fold is
written in the touching point: the tangent line touching g at u has
intercept::

    delta(u) = g(u) - g'(u) * u

and delta is stationary only at u = 0 and at g's single inflection point,
and constant once sigma saturates.  Tangency therefore reduces to the
scalar crossing problem ``delta(u) = -b/a``, bisected on the segments
between those knots; the touching point's slope then converts to a
critical temperature via ``tx = raw_a * g'(u)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NotApplicableError, NumericFailureError
from .games import (Game, GameRegionLabel, ReducedCoefficients, Temperatures,
                    _raw_coefficients, _require_temperature, classify_region,
                    reduce_payoffs)
from .numerics import bisect, sigmoid, sigmoid_slope
from .restpoints import (_LOGISTIC, GFunction, RestPoint, _extrema,
                         find_rest_points)

CONTINUOUS = "continuous"
DISCONTINUOUS = "discontinuous"
NO_PITCHFORK = "none"

#: e^-746 underflows to 0 in float64, so past |u| = 746 sigma(u) is exactly
#: 0 or 1 and g'(u) is exactly 0
_SATURATION = 746.0
#: both stationary values within this (times max(1, |a|)) of zero: a cusp
TANGENCY_DETECT_TOL = 1e-9


def tangent_intercept(gf: GFunction, u: float) -> float:
    """Intercept of the line tangent to the response curve at u."""
    g, g1, _ = gf.eval(u)
    return g - g1 * u


def _delta_crossings(gf: GFunction, target: float) -> list[float]:
    """All u with tangent_intercept(gf, u) == target.

    delta is monotone between its stationary points {0, inflection}, and
    past +-_SATURATION it equals the curve's tail value, so every crossing
    is a sign change between consecutive knots, bisected there.
    """
    def h(u: float) -> float:
        return tangent_intercept(gf, u) - target

    knots = [(u, h(u)) for u in sorted({-_SATURATION, 0.0, gf.inflection(),
                                        _SATURATION})]
    return sorted({bisect(h, ua, ub, va, vb)
                   for (ua, va), (ub, vb) in zip(knots, knots[1:])
                   if va == 0.0 or (va > 0.0) != (vb > 0.0)})


@dataclass(frozen=True)
class InterceptProfile:
    """Extreme tangent intercepts of the response curve over u and ty.

    ``delta_min``/``delta_max`` are ``None`` with the matching unbounded
    flag set when the corresponding extreme diverges (it does so in the
    opponent's zero-exploration limit for some ratio ranges); documented
    saturation limits (0, 1/2, 1) are reported exactly.
    """

    ratio: float
    extreme_at: Optional[tuple[float, float]]  # (ty, u) of a numeric extreme
    delta_min: Optional[float]
    delta_max: Optional[float]
    min_unbounded: bool = False
    max_unbounded: bool = False


def _lowest_intercept(ratio: float) -> tuple[float, float, float]:
    """``(delta, ty, u)`` at the lowest tangent intercept over u and every
    ty > 0, for raw_c = 1 and r = d/c < -1.

    With c = 1/ty, delta' = -u*g'', and g's inflection u0 is > 0 since
    F(0) = c*tanh(c*(r+1/2)/2) < 0 (F of GFunction.inflection): delta(u0)
    is the minimum at fixed ty.  As g''(u0) = 0, d delta(u0)/d ln ty =
    c*g*(1-g)*Q(u0) with the ty-free Q(u) = -(r+s) + u*(s*(1-s) +
    (r+s)*tanh(u/2)), s = sigma(u).  u0 falls from +inf to 0 as ty rises
    (dF/du > 0; dF/dc = tanh(x) + x*sech^2(x) < 0 at x = c*(r+s)/2), and
    Q(0) = -(r+1/2) > 0, Q(746) = 745*(r+1) < 0: the extreme is at Q's
    root, where c solves c*tanh(c*k) + 2*sinh(u0) = 0, k = (r+s)/2, which
    falls in c and is negative at c = 2*sinh(u0)/tanh(1) + 1/|k|.
    """
    def q(u: float) -> float:
        rs = (ratio + 1.0) - sigmoid(-u)  # r + s, cancel-free near r = -1
        return -rs + u * (sigmoid_slope(u) + rs * math.tanh(0.5 * u))

    u0 = bisect(q, 0.0, _SATURATION, q(0.0), q(_SATURATION))
    k, lift = 0.5 * ((ratio + 1.0) - sigmoid(-u0)), 2.0 * math.sinh(u0)
    c_hi = lift / math.tanh(1.0) + 1.0 / abs(k)
    ty = 1.0 / bisect(lambda c: c * math.tanh(c * k) + lift, 0.0, c_hi, lift,
                      c_hi * math.tanh(c_hi * k) + lift)
    gf = GFunction(1.0 / ty, ratio / ty)
    return tangent_intercept(gf, gf.inflection()), ty, u0


def intercept_extrema(raw_c: float, raw_d: float) -> InterceptProfile:
    """The tangent-intercept range of g over every u and ty > 0, exact
    (:func:`_lowest_intercept`); above ratio 0 by the mirror
    ``delta_max(r) = 1 - delta_min(-1-r)``, at (ty, -u).  The sign of
    ``raw_c`` is normalized away by relabeling actions (ratio -> -1-ratio),
    which leaves the intercept geometry unchanged."""
    if raw_c == 0.0:
        raise NotApplicableError("intercept profile needs c != 0")
    if raw_c < 0.0:
        raw_c, raw_d = -raw_c, raw_c + raw_d
    ratio = raw_d / raw_c

    extreme_at = None
    min_unbounded = -1.0 <= ratio < -0.5
    max_unbounded = -0.5 < ratio <= 0.0
    if ratio == -0.5:
        delta_min, delta_max = 0.0, 1.0
    elif min_unbounded:
        delta_min, delta_max = None, 1.0
    elif max_unbounded:
        delta_min, delta_max = 0.0, None
    else:  # ratio < -1, or its mirror ratio > 0
        low, ty, u = _lowest_intercept(min(ratio, -1.0 - ratio))
        delta_min, delta_max = (0.5, 1.0 - low) if ratio > 0.0 else (low, 0.5)
        extreme_at = (raw_c * ty, -u if ratio > 0.0 else u)
    return InterceptProfile(ratio=ratio, extreme_at=extreme_at,
                            delta_min=delta_min, delta_max=delta_max,
                            min_unbounded=min_unbounded,
                            max_unbounded=max_unbounded)


def corner_boundary(ratio: float) -> float:
    """Lowest reachable tangent intercept for a ratio d/c <= -1.

    This is the boundary of the triple-rest-point region in the corner
    quadrants of the ratio plane: triples exist there only while ``-b/a``
    exceeds this value, the infimum over every ty > 0.
    """
    delta_min = intercept_extrema(1.0, ratio).delta_min
    return -math.inf if delta_min is None else delta_min


@dataclass(frozen=True)
class CriticalCurve:
    """Per fixed opposite-player temperature, the window of the swept
    temperature carrying three rest points; empty entries mean no window."""

    orientation: str  # "tx_window_vs_ty" or "ty_window_vs_tx"
    samples: list[tuple[float, Optional[float], Optional[float]]]
    closing_temperature: Optional[float]
    diagnostics: list[str] = field(default_factory=list)


def _normalized_base(game: Game) -> ReducedCoefficients:
    """The game's raw coefficients (at tx = ty = 1), relabelled so raw_a > 0."""
    raw_a, raw_b, raw_c, raw_d = _raw_coefficients(game)
    if raw_a * raw_c <= 0.0:
        raise NotApplicableError(
            "critical windows require a*c > 0 (otherwise the rest point is "
            "always unique)")
    if raw_a < 0.0:
        # Relabel both players' view of X's actions: x -> 1-x flips the
        # slopes' signs and leaves every temperature window unchanged.
        raw_a, raw_b = -raw_a, -raw_b
        raw_c, raw_d = -raw_c, raw_c + raw_d
    return ReducedCoefficients.from_values(raw_a, raw_b, raw_c, raw_d)


def _window_for_ty(base: ReducedCoefficients,
                   ty: float) -> Optional[tuple[float, float]]:
    """The tx interval with three rest points at fixed ty, if any.

    Its ends are tangencies ``tx = raw_a*g'(u)`` at the crossings
    ``delta(u) = -b/a``; a cell between consecutive tangencies belongs to
    it when :func:`_pair` holds at the cell's geometric midpoint.
    """
    gf = GFunction(base.raw_c / ty, base.raw_d / ty)
    tangencies = sorted(base.raw_a * gf.eval(u)[1] for u in
                        _delta_crossings(gf, -base.raw_b / base.raw_a))
    tangencies = [t for t in tangencies if t > 0.0]
    windows = [(lo, hi) for lo, hi in zip(tangencies, tangencies[1:])
               if _pair(base, math.sqrt(lo * hi), ty) is not None]
    return (windows[0][0], windows[-1][1]) if windows else None


def _merge_gap(base: ReducedCoefficients, ty: float) -> float:
    """delta(u0) + b/a at g's inflection u0: zero where two tangencies merge."""
    gf = GFunction(base.raw_c / ty, base.raw_d / ty)
    return tangent_intercept(gf, gf.inflection()) + base.raw_b / base.raw_a


def critical_curve(game: Game, fixed_values,
                   orientation: str = "tx_window_vs_ty") -> CriticalCurve:
    """Trace the three-rest-point temperature window across a grid.

    For ``tx_window_vs_ty`` each grid value fixes ty and the window in tx
    is found by solving the tangency system {rest-point equation,
    a*g'(u) = 1}: its solutions are the crossings ``delta(u) = -b/a``, and
    each converts to a temperature ``tx = raw_a * g'(u)``.  Every fixed
    value must be a valid temperature that keeps ``raw/ty`` finite,
    else :class:`DomainError`.

    The closing temperature is where the window's two tangencies merge.
    Two tangencies never share a tx: the defect would then have two double
    roots, more than the three roots it can have, so the window's ends keep
    their order as ty moves.  A cell whose tangencies straddle u = 0 never
    holds three rest points.  So a window bounded by two tangencies can
    vanish only when its touching points merge at g's inflection u0, where
    ``delta(u0) = -b/a``.  When the grid goes from a window at ``lo`` to
    none at the next larger ``hi``, that equation is bisected in ty on
    [lo, hi] to float resolution; if its sign does not change there the
    closing temperature is ``None``.
    """
    if orientation == "ty_window_vs_tx":
        swapped = Game(game.name + "_swapped", game.payoff_y, game.payoff_x)
        inner = critical_curve(swapped, fixed_values, "tx_window_vs_ty")
        return CriticalCurve("ty_window_vs_tx", inner.samples,
                             inner.closing_temperature, inner.diagnostics)
    if orientation != "tx_window_vs_ty":
        raise DomainError(f"unknown orientation {orientation!r}")

    base = _normalized_base(game)
    samples: list[tuple[float, Optional[float], Optional[float]]] = []
    diagnostics: list[str] = []
    for ty in map(float, fixed_values):
        _require_temperature(ty)
        if not (math.isfinite(base.raw_c / ty)
                and math.isfinite(base.raw_d / ty)):
            raise DomainError(
                f"fixed temperature {ty} overflows the scaled payoffs")
        try:
            window = _window_for_ty(base, ty)
        except (NumericFailureError, OverflowError) as exc:
            diagnostics.append(f"ty={ty}: {exc}")
            window = None
        samples.append((ty, *(window or (None, None))))

    closing = None
    have = [s[0] for s in samples if s[1] is not None]
    lack = [s[0] for s in samples if s[1] is None]
    if have and lack and max(have) < max(lack):
        lo = max(have)
        hi = min(t for t in lack if t > lo)
        m_lo, m_hi = _merge_gap(base, lo), _merge_gap(base, hi)
        if (m_lo > 0.0) != (m_hi > 0.0):
            closing = bisect(lambda ty: _merge_gap(base, ty), lo, hi,
                             m_lo, m_hi)
    return CriticalCurve("tx_window_vs_ty", samples, closing, diagnostics)


def zero_exploration_window(b_over_a: float, d_over_c: float,
                            raw_a: float) -> tuple[float, float, float]:
    """Closed-form window endpoints in the opponent's zero-noise limit.

    As ty -> 0 the response curve becomes a unit step at
    ``u_step = ln(-d/(c+d))`` (from the ratio alone), and the tangency
    lines pass through the step's corners, giving::

        tx_lo = (raw_a / u_step) * (b/a)
        tx_hi = (raw_a / u_step) * (b/a + 1)

    Applicable for b/a > 0 with -1 < d/c < -1/2, or the mirrored region
    b/a < -1 with -1/2 < d/c < 0 (handled by relabeling both players'
    actions, which maps ratios r -> -1 - r and keeps raw_a).
    """
    if raw_a <= 0.0:
        raise NotApplicableError("raw slope must be positive; relabel first")
    beta, ratio = b_over_a, d_over_c
    if beta < -1.0 and -0.5 < ratio < 0.0:
        beta, ratio = -1.0 - beta, -1.0 - ratio
    if not (beta > 0.0 and -1.0 < ratio < -0.5):
        raise NotApplicableError(
            f"zero-noise window formulas need b/a > 0 and d/c in (-1, -1/2) "
            f"(or the mirror); got b/a={b_over_a}, d/c={d_over_c}")
    u_step = math.log(-ratio / (1.0 + ratio))
    return u_step, (raw_a / u_step) * beta, (raw_a / u_step) * (beta + 1.0)


def locate_cusp() -> tuple[float, float]:
    """Where the two symmetric saddle-node offset branches meet.

    The stationary points of ``u - b - a*sigma(u)`` merge at sigma's
    inflection u0, so the triple root sits at ``a* = 1/sigma'(u0)`` and
    ``b* = u0 - a* * sigma(u0)``.
    """
    u0 = _LOGISTIC.inflection()
    a_star = 1.0 / _LOGISTIC.slope_shape(u0)
    return a_star, u0 - a_star * _LOGISTIC.value(u0)


@dataclass(frozen=True)
class BifurcationDiagram:
    """Rest-point branches against a swept temperature."""

    axis: str
    fixed_value: Optional[float]
    branches: list[list[tuple[float, RestPoint]]]
    critical_temperatures: list[float]
    pitchfork_kind: Optional[str]


#: the ordinal (low 0, middle 1, high 2) the single root keeps at a fold,
#: keyed by the stationary value of the defect that reaches zero there
_SURVIVOR = {"max": 2, "min": 0, "both": 1}


def _pair(base: ReducedCoefficients, tx: float, ty: float):
    """The defect's ``(u, phi)`` at its local max and min at (tx, ty), or
    None unless three rest points exist (max above zero, min below)."""
    co = base.at_temperatures(tx, ty)
    ext = _extrema(co.a, co.b, GFunction(co.c, co.d))
    if len(ext) == 2 and ext[0][1] > 0.0 > ext[1][1]:
        return ext
    return None


def _fold(base: ReducedCoefficients, t_lo: float,
          t_hi: float) -> tuple[float, float, str]:
    """Bisect a fold to adjacent floats in a T-bracket whose ends disagree
    on :func:`_pair`; ``(t, u, lost)`` at the end with three rest points.

    ``lost`` is the stationary value that reaches zero, ``"max"`` or
    ``"min"``, or ``"both"`` at a cusp (both within the tangency scale);
    ``u`` is where the line touches the curve.
    """
    three_lo = _pair(base, t_lo, t_lo) is not None
    mid = 0.5 * (t_lo + t_hi)
    while t_lo < mid < t_hi:
        if (_pair(base, mid, mid) is not None) == three_lo:
            t_lo = mid
        else:
            t_hi = mid
        mid = 0.5 * (t_lo + t_hi)
    t = t_lo if three_lo else t_hi
    (u_max, v_max, _), (u_min, v_min, _) = _pair(base, t, t)
    lost = "max" if v_max < -v_min else "min"
    u = u_max if lost == "max" else u_min
    tang_tol = TANGENCY_DETECT_TOL * max(1.0, abs(base.raw_a) / t)
    if max(v_max, -v_min) <= tang_tol:
        lost = "both"
    return t, u, lost


def _folds(base: ReducedCoefficients, grid: list[float],
           three: list[bool]) -> list[tuple[float, float, str]]:
    """Every fold in a grid cell whose ends disagree on three rest points."""
    return [_fold(base, grid[k], grid[k + 1]) for k in range(len(grid) - 1)
            if three[k] != three[k + 1]]


def _ordinal_branches(rows: list[tuple[float, list[RestPoint]]],
                      folds: list[tuple[float, float, str]]
                      ) -> list[list[tuple[float, RestPoint]]]:
    """The sweep's rest points as low, middle and high branches.

    A single root keeps the ordinal that the nearest fold below (else
    above) leaves over.  A two-point row's double root (a grid T on a
    tangency) is the middle root merging with a neighbour.
    """
    branches: list[list[tuple[float, RestPoint]]] = [[], [], []]
    for t, points in rows:
        slots = [0, 1, 2]
        if len(points) != 3:
            near = [f for f in folds if f[0] < t][-1:] or folds[:1]
            keep = _SURVIVOR[near[0][2]] if near else 1
            slots = [1 if p.degenerate_pair and len(points) > 1 else keep
                     for p in points]
        for slot, point in zip(slots, points):
            branches[slot].append((t, point))
    return [branch for branch in branches if branch]


def sweep_equal_temperature(game: Game, t_min: float, t_max: float,
                            steps: int = 80) -> BifurcationDiagram:
    """Rest-point branches along tx = ty = T on a log-spaced grid.

    Each grid cell where the count flips between 3 and 1 holds a fold,
    bisected to float resolution; its three-point end joins the diagram.
    Branches are the low, middle and high roots.  A pitchfork is labelled
    only when the coldest row has three rest points, so that the top fold
    collapses them: continuous exactly when it is a cusp.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max)
            and 0.0 < t_min < t_max):
        raise DomainError(
            f"need finite 0 < t_min < t_max, got {t_min}, {t_max}")
    if steps < 2:
        raise DomainError(f"need steps >= 2, got {steps}")
    base = reduce_payoffs(game, Temperatures.equal(1.0))
    grid = np.geomspace(t_min, t_max, steps).tolist()

    def solve(temp: float) -> list[RestPoint]:
        return find_rest_points(base.at_temperatures(temp, temp))

    solved = {t: solve(t) for t in grid}
    three = [len(solved[t]) == 3 for t in grid]
    folds = _folds(base, grid, three)
    for t_c, _, _ in folds:
        solved[t_c] = solve(t_c)
        # Near a fold the dying pair is smooth in s = sqrt|1 - T/t_c|, not
        # in ln T.  Where |ln(T/t_c)| <= 1/2 the log grid is the coarser in
        # s, so each three-point row there gains a partner at s = |ln(T/t_c)|.
        for t in grid:
            lam = math.log(t / t_c)
            if abs(lam) <= 0.5 and len(solved[t]) == 3:
                t_s = t_c * (1.0 + math.copysign(lam * lam, lam))
                solved[t_s] = solve(t_s)

    kind = None
    if folds and three[0]:
        kind = CONTINUOUS if folds[-1][2] == "both" else DISCONTINUOUS
    return BifurcationDiagram(
        axis="equal_temperature", fixed_value=None,
        branches=_ordinal_branches(sorted(solved.items()), folds),
        critical_temperatures=[t for t, _, _ in folds],
        pitchfork_kind=kind)


def equal_temperature_criticals(game: Game) -> Optional[list[tuple[float, float]]]:
    """Critical shared temperatures of a game run at tx = ty = T.

    These are the folds of :func:`sweep_equal_temperature`, bracketed on a
    log grid from ``sqrt(raw_a*raw_c)/4`` (no tangency above it) down at
    least e^-8 and on until three rest points exist.  Returns the sorted
    (T, u) pairs, u where the line touches the response curve, or ``None``
    when the game's ratios fall outside the open unit box.
    """
    base = reduce_payoffs(game, Temperatures.equal(1.0))
    raw_a, raw_b, raw_c, raw_d = base.raw_a, base.raw_b, base.raw_c, base.raw_d
    if raw_a * raw_c <= 0.0 or not (-1.0 < raw_b / raw_a < 0.0
                                    and -1.0 < raw_d / raw_c < 0.0):
        return None
    grid = [math.sqrt(raw_a * raw_c) / 4.0 * math.exp(-0.35 * k)
            for k in range(24)]
    while _pair(base, grid[-1], grid[-1]) is None:
        if len(grid) == 200:
            raise NumericFailureError(
                f"no three rest points down to T = {grid[-1]:.3e}")
        grid.append(grid[0] * math.exp(-0.35 * len(grid)))
    grid.reverse()
    folds = _folds(base, grid, [_pair(base, t, t) is not None for t in grid])
    return [(t, u) for t, u, _ in folds]


def classify_pitchfork(game: Game) -> str:
    """Closed-form pitchfork taxonomy for the equal-temperature sweep.

    The branch collapse is continuous exactly when the two raw slopes are
    equal and the ratios satisfy the symmetric-collapse relation
    (b/a + d/c = -1 for coordination games, b/a = d/c for
    anti-coordination); other three-equilibrium games collapse
    discontinuously, and games outside the unit ratio box never bifurcate
    under a shared temperature.
    """
    coeffs = reduce_payoffs(game, Temperatures.equal(1.0))
    if classify_region(coeffs).label != GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE:
        return NO_PITCHFORK
    scale = max(1.0, abs(coeffs.raw_a), abs(coeffs.raw_c))
    if abs(coeffs.raw_a - coeffs.raw_c) > 1e-9 * scale:
        return DISCONTINUOUS
    beta, delta = coeffs.b_over_a, coeffs.d_over_c
    if coeffs.raw_a > 0.0:
        symmetric = abs(beta + delta + 1.0) <= 1e-9
    else:
        symmetric = abs(beta - delta) <= 1e-9
    return CONTINUOUS if symmetric else DISCONTINUOUS
