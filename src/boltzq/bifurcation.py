"""Temperature sweeps, critical curves, and saddle-node/pitchfork analysis.

Everything here leans on one geometric fact from :mod:`boltzq.restpoints`:
rest points are intersections of the line ``(u - b)/a`` with the response
curve ``g(u)``, so rest points appear or vanish exactly where the line is
*tangent* to g.  Along tx = ty = T that is a *fold*: one of the two
stationary values of the defect ``u - b - a*g(u)`` crosses zero (three
rest points exist while its local max is above zero and its local min
below), and at a *cusp* both vanish together.  A fold is solved by Newton
in T on the value being lost, ``G(T) = T*phi(u_s)``, whose T-derivative
is free: phi'(u_s) = 0, so by the envelope theorem dG/dT is the partial
derivative at fixed u_s.  Where the stationary pair itself disappears
inside a grid cell, its merge at g's inflection (``a*c*shape = 1``, which
crosses zero linearly, unlike the values) is solved first; a merged value
within rounding is the cusp.  That is also the one pitchfork rule: the
three branches collapse continuously exactly when the top fold is a cusp,
for the sweep and for :func:`classify_pitchfork` alike.

At a fixed ty (the critical curve) a tangency is where the intercept
``delta(u) = g(u) - g'(u)*u`` of the tangent touching g at u equals -b/a,
at ``tx = raw_a*g'(u)``; delta is stationary only at u = 0 and at g's
inflection.  It is solved in Y's logit v = (raw_d + raw_c*sigma(u))/ty,
which is monotone in u: with p = ty*v, ``raw_c*sigma(u) = p - raw_d`` and
``raw_c*sigma(-u) = raw_c + raw_d - p``, so u and ``g' = (raw_c/ty)*
sigma'(u)*sigma'(v)`` are products with no cancellation at any ty (the
v-side methods of :class:`restpoints.GFunction`, which every driver here
reads instead of forming g itself).  Each game is read in the frame it is
given, for either common sign of raw_a and raw_c: relabelling actions
would leave every window unchanged, so no driver does it.  One
rest point exists above the top tangency and each one flips the count
between 1 and 3, so the windows in tx are the tangency pairs counted down
from the top, plus (0, t_1) when the count is odd: exactly when -b/a lies
between g's tails sigma(raw_d/ty) and sigma((raw_c + raw_d)/ty), the
level the line flattens to as tx -> 0.  A bounded window
closes where its touching points merge at the inflection, solved by the
same Newton step in ty: delta' = -u*g'' vanishes there, so the slope of
the merge gap is again the partial one at fixed u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .errors import DomainError, NotApplicableError, NumericFailureError
from .games import (Game, GameRegionLabel, ReducedCoefficients, Temperatures,
                    _same_sign, classify_region, reduce_payoffs)
from .numerics import (_as_count, _as_finite, _as_float, _close,
                       _require_temperature, bisect, geomspace,
                       rounds_to_zero, sigmoid, sigmoid_slope)
from .restpoints import (_LOGISTIC, _SATURATION, GFunction, RestPoint,
                         _extrema, _is_double_root, _peak, find_rest_points)

CONTINUOUS = "continuous"
DISCONTINUOUS = "discontinuous"
NO_PITCHFORK = "none"


def tangent_intercept(gf: GFunction, u: float) -> float:
    """Intercept of the line tangent to the response curve at u."""
    u = _as_finite(u, "u")
    g, g1, _ = gf.eval(u)
    return g - g1 * u


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


def _lowest_intercept(top: float) -> tuple[float, float, float]:
    """``(delta, ty, u)`` at the lowest tangent intercept over u and every
    ty > 0, for raw_c = 1 and r = d/c < -1, given as its tail ``top = r +
    1 < 0``: a ratio formed as -1 - x rounds to -1.0 for 0 < x < 2^-53,
    while x itself is the tail.  Only u >= 0 is evaluated, where ``r + s
    = top - sigma(-u)`` adds two negative terms, so nothing cancels.

    With c = 1/ty, delta' = -u*g'', and g's inflection u0 is > 0 since
    F(0) = c*tanh(c*(r+1/2)/2) < 0 (F of GFunction.inflection): delta(u0)
    is the minimum at fixed ty.  As g''(u0) = 0, d delta(u0)/d ln ty =
    c*g*(1-g)*Q(u0) with the ty-free Q(u) = -(r+s) + u*(s*(1-s) +
    (r+s)*tanh(u/2)), s = sigma(u).  u0 falls from +inf to 0 as ty rises
    (dF/du > 0; dF/dc = tanh(x) + x*sech^2(x) < 0 at x = c*(r+s)/2), and
    Q(0) = -(r+1/2) > 0, Q(746) = 745*(r+1) < 0: the extreme is at Q's
    root, where c solves c*tanh(c*k) + 2*sinh(u0) = 0, k = (r+s)/2.  The
    intercept there is ``sigma(h) - u0*c*sigma'(h)*sigma'(u0)``, h = 2*c*k.

    At a subnormal tail, -(r+s) is subnormal near u0 (which passes 700)
    and sinh(u0) overflows, so neither is formed.  Q is divided by -(r+s)
    > 0: its root is that of ``1 + u*(s/m - tanh(u/2))``, where ``m =
    -(r+s)/sigma(-u) = 1 + |top| + |top|*e^u``, formed with e^(u/2) twice
    so that neither factor overflows first.  The unknown is w = -c*k > 0,
    which solves ``w*tanh(w) = -(r+s)*sinh(u0) = (1 - e^-u0)*m/2``; then
    h = -2*w, ``c*sigma'(u0) = 2*w*s/m`` and ``ty = |k|/w =
    tanh(w)/(2*sinh(u0))``.  Past w = 373 both terms of the intercept are
    0.0 and tanh(w) is 1.0, so the right side, which overflows as |top|
    nears the float max, is capped at 746.

    Both searches are :func:`numerics.bisect` with closed-form Newton
    steps.  With lead = s/m - tanh(u/2), the u-probe ``1 + u*lead`` has
    the slope ``lead + u*(s*(1-s)/m - s*m'/m^2 - (1 - tanh(u/2)^2)/2)``,
    m' = |top|*e^u = m - 1 + top, and ``w*tanh(w) - rhs`` has the slope
    ``tanh(w) + w*(1 - tanh(w)^2)``.  A step that is not finite (m
    overflows to inf as u nears 746) is None, a halving.  A step moves
    only where the next probe lands: each side is decided by the value's
    sign, so the answer is still a sign change at float resolution.

    The u-search's first probe is where the structure puts Q's root.  For
    u well past 1, s and tanh(u/2) are near 1, so ``1 + u*lead`` is near
    ``1 - u*(1 - 1/m)``, whose root has ``|top|*e^u`` near ``1/(u - 1)``:
    ``u = L - ln(u - 1)`` with L = -ln|top|.  One step of that from u = L,
    ``L - ln(L - 1)``, clipped below at u = 1 (and below 746 anyway, as L
    <= -ln(5e-324) < 745), lands short of the root: by less than 0.85 at
    tails from 1e303 down, and by less than 0.05 below 1e-40, where Newton
    then closes in a few probes.  That probe, too, picks its side by the
    value's sign alone.
    """
    def at(u: float) -> tuple[float, float, float, float]:  # s, 1-s, m, m'
        e, half = math.exp(-u), math.exp(0.5 * u)
        grow = -top * half * half  # m' = |top|*e^u
        return 1.0 / (1.0 + e), e / (1.0 + e), 1.0 - top + grow, grow

    def newton(value: float, slope: float) -> tuple[float, float | None]:
        step = -value / slope if slope else math.inf
        return value, step if math.isfinite(step) else None

    def q(u: float) -> tuple[float, float | None]:
        s, s_neg, m, grow = at(u)
        th = math.tanh(0.5 * u)
        lead = s / m - th
        return newton(1.0 + u * lead, lead + u * (
            s * s_neg / m - s / m * grow / m - 0.5 * (1.0 - th * th)))

    def f(w: float) -> tuple[float, float | None]:  # w*tanh(w) - rhs
        th = math.tanh(w)
        return newton(w * th - rhs, th + w * (1.0 - th * th))

    ell = -math.log(-top)  # L = -ln|top|
    u0 = bisect(q, 0.0, _SATURATION, 1.0, q(_SATURATION)[0],
                max(ell - math.log(max(ell - 1.0, 1.0)), 1.0))
    s, _, m, _ = at(u0)
    rhs = min(-0.5 * math.expm1(-u0) * m, _SATURATION)
    w_hi = rhs / math.tanh(1.0) + 1.0
    w = bisect(f, 0.0, w_hi, -rhs, w_hi * math.tanh(w_hi) - rhs)
    return (sigmoid(-2.0 * w)
            - u0 * (2.0 * w * s / m) * sigmoid_slope(2.0 * w),
            math.tanh(w) * math.exp(-u0) / -math.expm1(-2.0 * u0), u0)


def intercept_extrema(raw_c: float, raw_d: float) -> InterceptProfile:
    """The tangent-intercept range of g over every u and ty > 0, exact
    (:func:`_lowest_intercept`); above ratio 0 by the mirror
    ``delta_max(r) = 1 - delta_min(-1-r)``, at (ty, -u).  Relabelling X's
    actions (raw_c -> -raw_c, ratio -> -1 - ratio) leaves the intercept
    geometry unchanged, so the profile is stated for raw_c > 0, but every
    case is decided on the given d/c, in whose terms the relabelling only
    exchanges the ranges [-1, -1/2) and (-1/2, 0] and the sides r < -1 and
    r > 0.  The bound is solved from the tail of the side's edge, 1 + d/c
    below -1 and -d/c above 0, which -1 - d/c would round away next to 0.
    ``ratio`` reports d/c in the raw_c > 0 frame."""
    raw_c, raw_d = _as_finite(raw_c, "raw_c"), _as_float(raw_d, "raw_d")
    if raw_c == 0.0:
        raise NotApplicableError("intercept profile needs c != 0")
    ratio = _as_finite(raw_d / raw_c, "d/c")

    extreme_at = None
    inner = (-1.0 <= ratio < -0.5, -0.5 < ratio <= 0.0)
    min_unbounded, max_unbounded = inner[::-1] if raw_c < 0.0 else inner
    if ratio == -0.5:
        delta_min, delta_max = 0.0, 1.0
    elif min_unbounded:
        delta_min, delta_max = None, 1.0
    elif max_unbounded:
        delta_min, delta_max = 0.0, None
    else:  # ratio < -1 or > 0: the mirror where the side matches raw_c's
        low, ty, u = _lowest_intercept(1.0 + ratio if ratio < -1.0 else -ratio)
        mirror = (ratio > 0.0) == (raw_c > 0.0)
        delta_min, delta_max = (0.5, 1.0 - low) if mirror else (low, 0.5)
        extreme_at = (abs(raw_c) * ty, -u if mirror else u)
    return InterceptProfile(ratio=ratio if raw_c > 0.0 else -1.0 - ratio,
                            extreme_at=extreme_at,
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
    """Per fixed opposite-player temperature, one ``(fixed, lo, hi)`` row
    per window of the swept temperature with three rest points (lo = 0.0:
    open as it goes to 0), or a single ``(fixed, None, None)`` row."""

    orientation: str  # "tx_window_vs_ty" or "ty_window_vs_tx"
    samples: list[tuple[float, Optional[float], Optional[float]]]
    closing_temperature: Optional[float]


def _window_ends(base: ReducedCoefficients, curve: GFunction) -> list[float]:
    """The tangencies tx > 0 on the curve at one ty (sign changes of
    ``delta + b/a`` between its knots), after a 0.0 if odd in number:
    pairs are the windows.  delta is monotone in Y's logit v between the
    knots, and each crossing is closed by Newton steps on its v-slope
    ``-u*sigma'(v)*(g''/g')`` (:meth:`restpoints.GFunction._touch`; None
    where g' is 0) to adjacent floats (:func:`numerics.bisect`)."""
    level = base.raw_b / base.raw_a

    def h(v: float) -> tuple[float, float | None]:
        delta, _, _, slope = curve._touch(v)
        value = delta + level
        return value, -value / slope if slope else None

    knots = [(v, h(v)[0]) for v in sorted(set(curve._knots()))]
    crossings = {bisect(h, va, vb, fa, fb)
                 for (va, fa), (vb, fb) in zip(knots, knots[1:])
                 if fa == 0.0 or (fa > 0.0) != (fb > 0.0)}
    ends = sorted(t for t in (base.raw_a * curve._touch(v)[1]
                              for v in crossings) if t > 0.0)
    return [0.0] * (len(ends) % 2) + ends


def critical_curve(game: Game, fixed_values,
                   orientation: str = "tx_window_vs_ty") -> CriticalCurve:
    """Trace the three-rest-point temperature windows across a grid.

    The grid is an iterable of temperatures (else :class:`DomainError`).
    For ``tx_window_vs_ty`` each grid value fixes ty (a temperature that
    keeps ``raw/ty`` finite, else :class:`DomainError`), and the windows in
    tx follow from the tangencies by parity (module docstring).  Each
    tangency is a sign change of ``delta + b/a`` in Y's logit v, closed by
    Newton steps on delta's v-slope ``-u*sigma'(v)*(g''/g')``
    (:func:`_window_ends`).  Two
    tangencies never share a tx (the defect would have two double roots),
    so a bounded window closes only where its touching points merge at
    g's inflection u0, ``delta(u0) = -b/a``.  Between the last grid value
    with a bounded window and the next without, that equation is solved
    by Newton in ty (its slope is the one at fixed u, as delta'(u0) = 0)
    to the last float on the window's side: the closing temperature, or
    ``None`` if its sign does not change there.  The game is read in its
    own frame: a, c < 0 needs no relabelling, since tx = raw_a*g' > 0
    and the intercepts and the level -b/a are the same in either frame.
    """
    try:
        fixed_values = list(fixed_values)
    except TypeError as exc:
        raise DomainError(f"fixed temperatures must be a sequence, got "
                          f"{fixed_values!r}") from exc
    if orientation == "ty_window_vs_tx":
        swapped = Game(game.name + "_swapped", game.payoff_y, game.payoff_x)
        return replace(critical_curve(swapped, fixed_values),
                       orientation=orientation)
    if orientation != "tx_window_vs_ty":
        raise DomainError(f"unknown orientation {orientation!r}")

    base = reduce_payoffs(game, Temperatures.equal(1.0))
    if not _same_sign(base.raw_a, base.raw_c):
        raise NotApplicableError("critical windows require a*c > 0 "
                                 "(otherwise the rest point is always unique)")
    samples: list[tuple[float, Optional[float], Optional[float]]] = []
    for ty in fixed_values:
        # a float ty > 0 that keeps raw/ty finite, else DomainError
        ty = base.at_temperatures(1.0, ty).ty
        ends = _window_ends(base, GFunction.of(base, ty))
        samples += ([(ty, lo, hi) for lo, hi in zip(ends[::2], ends[1::2])]
                    or [(ty, None, None)])

    def merge_gap(ty: float):
        """``(side, step)`` of the gap ``delta(u0) + b/a`` at g's
        inflection u0: side 1.0 where the gap is > 0, else -1.0 (an
        exactly zero gap, which rounding can give on either side of the
        sign change, is not a stop), and the Newton step on it: as delta'
        = -u*g'' vanishes at u0, its ty-slope is the one at fixed u."""
        curve = GFunction.of(base, ty)
        gap, _, slope, _ = curve._touch(curve._knots()[2])
        gap += base.raw_b / base.raw_a
        return 1.0 if gap > 0.0 else -1.0, -gap / slope if slope else None

    have = [s[0] for s in samples if s[1]]
    later = [s[0] for s in samples if have and s[0] > max(have)]
    closing = None
    if later:
        lo, hi = max(have), min(later)
        m_lo, m_hi = merge_gap(lo), merge_gap(hi)
        if m_lo[0] != m_hi[0]:  # the gap's sign changes in (lo, hi)
            closing = _close(merge_gap, lo, m_lo, hi, m_hi)[0]
    return CriticalCurve(orientation, samples, closing)


def zero_exploration_window(b_over_a: float, d_over_c: float,
                            raw_a: float) -> tuple[float, float, float]:
    """Closed-form window endpoints in the opponent's zero-noise limit.

    As ty -> 0 the response curve becomes a unit step at
    ``u_step = ln(-d/(c+d))`` (from the ratio alone), and the tangency
    lines pass through the step's corners, giving::

        tx_lo = (raw_a / u_step) * (b/a)
        tx_hi = (raw_a / u_step) * (b/a + 1)

    Applicable for b/a > 0 with -1 < d/c < -1/2, or the mirrored region
    b/a < -1 with -1/2 < d/c < 0, the image of the first under relabelling
    both players' actions (ratios r -> -1 - r, raw_a kept).  The mirror is
    decided on the given ratios and read off them, ``u_step = ln((1 +
    d/c)/(-d/c))`` with the levels -1 - b/a and -b/a, so no tail of d/c is
    lost next to 0.  Non-numbers and non-finite values raise
    :class:`DomainError`.
    """
    beta, ratio, raw_a = (_as_finite(v, name) for v, name in (
        (b_over_a, "b/a"), (d_over_c, "d/c"), (raw_a, "raw slope")))
    if raw_a <= 0.0:
        raise NotApplicableError("raw slope must be positive; relabel first")
    if beta > 0.0 and -1.0 < ratio < -0.5:
        u_step, levels = math.log(-ratio / (1.0 + ratio)), (beta, beta + 1.0)
    elif beta < -1.0 and -0.5 < ratio < 0.0:
        u_step, levels = math.log((1.0 + ratio) / -ratio), (-1.0 - beta, -beta)
    else:
        raise NotApplicableError(
            f"zero-noise window formulas need b/a > 0 and d/c in (-1, -1/2) "
            f"(or the mirror); got b/a={b_over_a}, d/c={d_over_c}")
    return u_step, (raw_a / u_step) * levels[0], (raw_a / u_step) * levels[1]


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


def _stationary(base: ReducedCoefficients, t: float):
    """The defect's stationary points ``(u, phi, keeps, v)`` at tx = ty =
    t (:func:`restpoints._extrema`)."""
    co = base.at_temperatures(t, t)
    return _extrema(co.a, co.b, GFunction.of(base, t))


def _three(ext) -> bool:
    """Three rest points: both stationary values keep their pair."""
    return len(ext) == 2 and ext[0][2] and ext[1][2]


def _merge_probe(base: ReducedCoefficients, t: float):
    """``(side, step, (u0, co, curve))`` for the stationary pair's merge
    condition ``a*c*shape(u0) = 1`` at g's inflection u0, tx = ty = t:
    side 1.0 with the pair, -1.0 without, and the Newton step on the
    condition, as :func:`numerics._close` takes them.

    The pair comes from :func:`restpoints._peak`, as in ``_extrema``, so
    it holds exactly where that finds two stationary points.  As
    shape'(u0) = 0 the T-derivative is the partial one at fixed u0: with
    h = v(u0), Y's logit there, and g = sigma(h), a*c*shape scales as
    ``T^-2 * g*(1-g)``, so it moves by ``-(2 + (1 - 2g)*h)/T`` relative to
    itself.
    """
    co = base.at_temperatures(t, t)
    gf = GFunction.of(base, t)
    u0, ac_shape, paired = _peak(co.a, gf)
    h = gf._at(u0)[2]
    slope = -ac_shape * (2.0 + (1.0 - 2.0 * sigmoid(h)) * h) / t
    step = -(ac_shape - 1.0) / slope if slope != 0.0 else None
    return 1.0 if paired else -1.0, step, (u0, co, gf)


def _merge(base: ReducedCoefficients, t3: float, t1: float):
    """Where the stationary pair merges in a T-cell that has it at t3 and
    has not at t1 (:func:`_merge_probe`): ``(t_pair, t_gone, u0, cusp)``,
    the adjacent floats across the merge, with and without the pair, g's
    inflection u0 at t_gone and whether the merged value is the double
    root there (:func:`restpoints._is_double_root`), a cusp; ``None`` if
    the pair still exists at t1.

    The merge is solved by Newton steps to the adjacent floats across it
    (:func:`numerics._close`; its condition crosses zero linearly, while
    the stationary values vanish like (T_c - T)^(3/2)).  A cusp is the one
    pitchfork rule: the collapse is continuous exactly when the top fold
    is a cusp, so :func:`classify_pitchfork` reads this stage alone.
    """
    gone = _merge_probe(base, t1)
    if gone[0] > 0.0:
        return None
    t_pair, _, t_gone, (_, _, (u0, co, gf)) = _close(
        lambda t: _merge_probe(base, t), t3, (1.0, None), t1, gone)
    return t_pair, t_gone, u0, _is_double_root(u0, co.a, co.b, gf)


def _fold(base: ReducedCoefficients, end3, end1) -> tuple[float, float, str]:
    """The fold in a T-cell with three rest points at one end and not at
    the other, each end given as ``(T, _stationary(base, T))``:
    ``(t, u, lost)`` at the float on the three-point side of the flip.

    ``lost`` is the stationary value that reaches zero, ``"max"`` or
    ``"min"``; ``u`` is where the line touches the curve.  It is solved by
    Newton in T on that value, ``G(T) = T*phi(u_s) = T*u_s - raw_b -
    raw_a*sigma(v_s)``, v_s Y's logit at u_s (:func:`_stationary`), whose
    derivative is free: phi'(u_s) = 0, so by the envelope theorem
    ``dG/dT = u_s + raw_a*sigma'(v_s)*v_s/T``.

    When the one-point end has fewer than two stationary points, the pair
    may merge inside the cell (:func:`_merge`).  If the merge is a cusp,
    the fold is ``(t, u0, "both")`` at the first float without the pair,
    where all three roots are one.  Otherwise the fold lies between the
    three-point end and the merge.
    """
    (t3, e3), (t1, e1) = end3, end1
    if len(e1) != 2 and (merge := _merge(base, t3, t1)):
        t_pair, t_gone, u0, cusp = merge
        if cusp:
            return t_gone, u0, "both"
        e_pair = _stationary(base, t_pair)
        if _three(e_pair):
            (t3, e3), t1 = (t_pair, e_pair), t_gone
        else:
            t1, e1 = t_pair, e_pair
    if len(e1) == 2:  # the value that lost its pair at the one-point end
        lost = 1 if e1[0][2] else 0
    else:  # else the one nearer zero at the three-point end
        lost = 0 if e3[0][1] < -e3[1][1] else 1

    def probe(t: float, ext=None):
        ext = _stationary(base, t) if ext is None else ext
        if len(ext) != 2:
            return -1.0, None, ext
        u_s, phi_s, _, v_s = ext[lost]
        slope = u_s + base.raw_a * sigmoid_slope(v_s) * v_s / t
        return (1.0 if _three(ext) else -1.0,
                -t * phi_s / slope if slope else None, ext)

    t, (_, _, ext), _, _ = _close(probe, t3, probe(t3, e3), t1,
                                  probe(t1, e1))
    return t, ext[lost][0], ("max", "min")[lost]


def _ordinal_branches(rows: list[tuple[float, list[RestPoint]]],
                      folds: list[tuple[float, float, str]]
                      ) -> list[list[tuple[float, RestPoint]]]:
    """The sweep's rest points as low, middle and high branches.

    A single root keeps the ordinal that the nearest fold below (else
    above) leaves over.  A two-point row's double root (a grid T on a
    tangency) is the middle root merging with a neighbour, and a cusp's
    triple root is all three.
    """
    branches: list[list[tuple[float, RestPoint]]] = [[], [], []]
    cusps = {t for t, _, lost in folds if lost == "both"}
    for t, points in rows:
        if t in cusps:
            points = points * 3
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
    solved by Newton in T on the stationary value being lost (envelope
    derivative, :func:`_fold`) to the last float with three rest points,
    which joins the diagram.  A cusp is solved from the merge of the
    stationary pair instead, and its row, the first float past the merge,
    holds the single triple root that ends all three branches.  Branches
    are the low, middle and high roots.  A pitchfork is labelled only when
    the coldest row has three rest points, so that the top fold collapses
    them: continuous exactly when it is a cusp.
    """
    t_min, t_max = _require_temperature(t_min), _require_temperature(t_max)
    if not t_min < t_max:
        raise DomainError(f"need t_min < t_max, got {t_min}, {t_max}")
    steps = _as_count(steps, "steps", 2)
    grid = geomspace(t_min, t_max, steps)
    base = reduce_payoffs(game, Temperatures.equal(1.0))

    def solve(temp: float) -> list[RestPoint]:
        return find_rest_points(base.at_temperatures(temp, temp))

    solved = {t: solve(t) for t in grid}
    three = [len(solved[t]) == 3 for t in grid]
    cells = [k for k in range(steps - 1) if three[k] != three[k + 1]]
    states = {t: _stationary(base, t) for k in cells for t in grid[k:k + 2]}
    folds = []
    for k in cells:  # each holds a fold; cells can share an end
        ends = [(t, states[t]) for t in grid[k:k + 2]]
        folds.append(_fold(base, *(ends if three[k] else ends[::-1])))
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


def _descent(base: ReducedCoefficients):
    """The temperatures of the log grid ``T_k = sqrt(raw_a*raw_c)/4 *
    e^(-0.35(k - 1/2))``, top down; :class:`NumericFailureError` past 200
    points.  The grid is offset by half a step from the tangency bound
    sqrt(raw_a*raw_c)/4: at its first point a*c = 16*e^-0.35 < 16, so the
    defect has no stationary pair there (shape <= 1/16), and no point
    lands on the bound, where the cusp of every game with b/a = d/c = -1/2
    sits.  The product is formed from the mantissas and the exponents
    apart (:func:`math.frexp`), exactly as the float product wherever that
    is normal, so the grid scales with the payoffs at every scale."""
    (m_a, e_a), (m_c, e_c) = math.frexp(base.raw_a), math.frexp(base.raw_c)
    e = e_a + e_c  # sqrt(m * 2^e) = sqrt(m * 2^(e % 2)) * 2^(e // 2)
    top = math.ldexp(math.sqrt(m_a * m_c * (1 + e % 2)), e // 2 - 2)
    for k in range(200):
        t = top * math.exp(-0.35 * (k - 0.5))
        yield t
    raise NumericFailureError(f"no three rest points down to T = {t:.3e}")


def _witness(base: ReducedCoefficients, t: float) -> bool:
    """Whether the defect's signs at two probes prove three rest points at
    tx = ty = t (:func:`_signs_prove_three`), with no stationary point
    solved.  The probes are the first probes of the two stationary
    searches (``GFunction._stationary_firsts``), seeded from the u where
    Y's logit crosses zero (``GFunction._logit_zero``, the first probe of
    the inflection search) in place of the inflection."""
    co = base.at_temperatures(t, t)
    curve = GFunction.of(base, t)
    u_z = curve._logit_zero()
    return u_z is not None and _signs_prove_three(
        co, curve, *curve._stationary_firsts(co.a * curve.c, u_z))


def _signs_prove_three(co: ReducedCoefficients, curve: GFunction,
                       w1: Optional[float], w2: Optional[float]) -> bool:
    """Whether phi(u) = u - b - a*g(u) at the probes w1 and w2 proves three
    rest points at these coefficients.

    It does when w1 < w2 lie strictly inside the root bracket (lo, hi),
    b and b + a in order, phi(w1) > 0 > phi(w2) through the root kernel's
    probe (``GFunction._defect_probe``), and neither value is zero within
    the rounding of its terms (:func:`numerics.rounds_to_zero`), so each
    computed sign is phi's own.  The terms are u, b and a, and ``a*(|c| +
    |d|)/4`` for the error that Y's logit v carries into g: v is formed to
    a few ulps of |c| + |d|, and g = sigma(v) moves by at most sigma'(v)
    <= 1/4 times that.  Without it a probe next to the max of a fold's
    first float past three rest points reads phi > 0 beyond the other
    terms' rounding.  As g stays inside (0, 1), phi(lo) < 0 < phi(hi), so
    phi changes sign in each of (lo, w1), (w1, w2) and (w2, hi).  phi
    rises, falls between its stationary points and rises again, so its
    fall meets [w1, w2]: the max lies in (lo, w2) with a value >= phi(w1)
    > 0, the min in (w1, hi) with a value <= phi(w2) < 0, and both keep
    their pair (:func:`_three`).
    """
    a, b = co.a, co.b
    lo, hi = (b, b + a) if a > 0.0 else (b + a, b)
    if w1 is None or w2 is None or not lo < w1 < w2 < hi:
        return False
    phi = curve._defect_probe(a, b)
    f1, f2 = phi(w1)[0], phi(w2)[0]
    spread = 0.25 * a * (abs(curve.c) + abs(curve.d))
    return (f1 > 0.0 > f2 and not rounds_to_zero(f1, w1, b, a, spread)
            and not rounds_to_zero(f2, w2, b, a, spread))


def _diagonal_cells(base: ReducedCoefficients):
    """The cells of the :func:`_descent` grid whose ends disagree on three
    rest points, top down, each as ``(end3, end1)``, the three-point end
    first, each end ``(T, _stationary(base, T))``.  The walk covers at
    least 24 points (down to e^-7.875 times the tangency bound) and stops
    at the first point with three rest points after them.

    A point below one with three rest points is first tried by
    :func:`_witness`: two probes of the defect whose signs prove three
    rest points.  Only where they do not is the point's stationary pair
    solved (:func:`_stationary`); a witnessed point that ends a cell is
    solved then, once, so each end is the same float tuple as a solve at
    every point would give.  The witness is not tried below a point
    without three rest points, where it seldom holds, so the walk to the
    first cell (:func:`classify_pitchfork`) solves every point it passes.
    """
    def end(point):
        t, ext, _ = point
        return t, _stationary(base, t) if ext is None else ext

    above = None
    for count, t in enumerate(_descent(base), 1):
        ext = (None if above and above[2] and _witness(base, t)
               else _stationary(base, t))
        point = (t, ext, ext is None or _three(ext))
        if above and point[2] != above[2]:
            yield ((end(point), end(above)) if point[2]
                   else (end(above), end(point)))
        if count >= 24 and point[2]:
            return
        above = point


def equal_temperature_criticals(game: Game) -> Optional[list[tuple[float, float]]]:
    """Critical shared temperatures of a game run at tx = ty = T.

    These are the folds of :func:`sweep_equal_temperature`, bracketed by
    the cells of :func:`_diagonal_cells`, from half a step above the
    tangency bound down to at least e^-7.875 times it and on until three
    rest points exist, and solved as there (:func:`_fold`: Newton in T on
    the value being lost, or the exact merge at a cusp).  A window of
    three rest points narrower than a grid cell is missed.  Returns the
    sorted (T, u) pairs, u where the line touches the response curve (g's
    inflection at a cusp), or ``None`` when the game's ratios fall outside
    the open unit box.
    """
    base = reduce_payoffs(game, Temperatures.equal(1.0))
    if not _same_sign(base.raw_a, base.raw_c) or not (
            -1.0 < base.b_over_a < 0.0 and -1.0 < base.d_over_c < 0.0):
        return None
    folds = [_fold(base, *cell)[:2] for cell in _diagonal_cells(base)]
    return folds[::-1]


def classify_pitchfork(game: Game) -> str:
    """How the three rest-point branches collapse along tx = ty = T.

    Games outside ``MultiNE_TriplePossible`` have no pitchfork.  Otherwise
    the rule is the sweep's: the collapse is continuous exactly when the
    top fold is a cusp.  The top fold lies in the first cell of
    :func:`_diagonal_cells`, whose upper end is above the first
    temperature with three rest points.  If that end still has the
    stationary pair the fold is ordinary (discontinuous); else the
    collapse is continuous exactly when the merge stage of :func:`_fold`
    (:func:`_merge`) finds the cusp there.  No ordinary fold is solved.
    """
    coeffs = reduce_payoffs(game, Temperatures.equal(1.0))
    if classify_region(coeffs).label != GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE:
        return NO_PITCHFORK
    (t3, _), (t1, e1) = next(_diagonal_cells(coeffs))
    if len(e1) != 2 and (merge := _merge(coeffs, t3, t1)) and merge[3]:
        return CONTINUOUS
    return DISCONTINUOUS
