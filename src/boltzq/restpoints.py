"""Interior rest points of the two-action learning flow, with stability.

Interior rest points in logit coordinates u = ln(x/(1-x)), v = ln(y/(1-y))
satisfy the pair ``u = b + a*sigma(v)``, ``v = d + c*sigma(u)``.  Eliminating
v leaves a scalar equation: the line ``(u - b)/a`` must meet the response
curve::

    g(u) = sigma(d + c * sigma(u))

g is a sigmoid-of-sigmoid: strictly monotone (rising iff c > 0), bounded in
(0, 1), with exactly one inflection point.  Consequently the defect
``phi(u) = u - b - a*g(u)`` has at most two stationary points, so the flow
has one, two (only at a tangency) or three interior rest points, and every
root can be bracketed on a monotone segment.  That structure drives the
solver below; no dense scanning is ever needed.

Stability falls out of the same picture: at a rest point the Jacobian of
the (x, y) flow is ``[[-1, a x(1-x)], [c y(1-y), -1]]`` with eigenvalues
``-1 +- sqrt(a c x(1-x) y(1-y))``, and the radicand equals a*c times the
slope product, so a middle root (where the line crosses g from above) is
exactly the saddle.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, NotApplicableError, NumericFailureError
from .games import ReducedCoefficients
from .numerics import _refine_root, bisect, logit, sigmoid, sigmoid_slope

#: sinh(u) and e^u stay finite for |u| up to ln(max float), about 709.78
_LOG_MAX = math.log(sys.float_info.max)

#: eigenvalue formula must agree with the complex-step Jacobian to this
FD_EIGEN_TOL = 1e-6
#: a checked rest point must meet ``|a*sigma(v) + b - u| <= this*(1+|a|+|b|)``
_RESIDUAL_BOUND = 1e-9
#: both rest-point bracket terms must be below this for stability_eigenvalues
_REST_RESIDUAL_TOL = 1e-8

STABLE_NODE = "stable_node"
STABLE_SPIRAL = "stable_spiral"
SADDLE_UNSTABLE = "saddle_unstable"


@dataclass(frozen=True)
class GFunction:
    """The response curve g(u) = sigma(d + c*sigma(u)) and its derivatives."""

    c: float
    d: float

    def value(self, u: float) -> float:
        return sigmoid(self.d + self.c * sigmoid(u))

    def eval(self, u: float) -> tuple[float, float, float]:
        """(g, g', g'') at u, overflow-safe for any |u| the floats carry.

        Derivatives are assembled from bounded products g(1-g) and s(1-s)
        rather than the cosh/sinh closed forms, so nothing overflows:

            g'  = c * g(1-g) * s(1-s)
            g'' = g' * [c*(1-2g)*s*(1-s) + (1-2s)]      with s = sigma(u)
        """
        s = sigmoid(u)
        sq = s * sigmoid(-u)
        h = self.d + self.c * s
        g = sigmoid(h)
        gq = g * sigmoid(-h)
        g1 = self.c * gq * sq
        g2 = g1 * (self.c * (1.0 - 2.0 * g) * sq + (1.0 - 2.0 * s))
        return g, g1, g2

    def slope_shape(self, u: float) -> float:
        """g(1-g)*s(1-s) = g'(u)/c; the quantity whose peak bounds tangency."""
        s = sigmoid(u)
        h = self.d + self.c * s
        return sigmoid(h) * sigmoid(-h) * s * sigmoid(-u)

    def inflection(self) -> float:
        """The unique zero of g''.

        g'' vanishes with ``F(u) = c*tanh(d/2 + (c/2)*sigma(u)) + 2*sinh(u)``,
        which is strictly increasing, so plain bisection is safe.  The zero
        has |2*sinh(u)| <= |c|, so |u| <= asinh(|c|/2) <= _LOG_MAX: the span
        asinh(|c|/2) + 1, capped at _LOG_MAX so that sinh stays finite,
        brackets it.
        """
        c, d = self.c, self.d

        def f(u: float) -> float:
            return c * math.tanh(0.5 * d + 0.5 * c * sigmoid(u)) + 2.0 * math.sinh(u)

        span = min(math.asinh(0.5 * abs(c)) + 1.0, _LOG_MAX)
        return bisect(f, -span, span, f(-span), f(span))


@dataclass(frozen=True)
class RestPoint:
    """An interior fixed point of the learning flow; ``degenerate_pair``
    marks only the double root of a tangency, reported once."""

    x: float
    y: float
    u: float
    v: float
    eigenvalues: tuple[complex, complex]
    stability: str
    residual: float
    degenerate_pair: bool = False


def _classify(radicand: float) -> str:
    if radicand < 0.0:
        return STABLE_SPIRAL
    if radicand > 1.0:
        return SADDLE_UNSTABLE
    return STABLE_NODE


def _eigenvalues_from_logit(u: float, v: float,
                            coeffs: ReducedCoefficients) -> tuple[complex, complex, float]:
    xq = sigmoid_slope(u)
    yq = sigmoid_slope(v)
    rad = coeffs.a * coeffs.c * xq * yq
    if math.isnan(rad):  # a*c overflowed against a zero slope: pair them
        rad = (coeffs.a * xq) * (coeffs.c * yq)
    root = cmath.sqrt(rad)
    return (-1.0 + root, -1.0 - root, rad)


def _complex_step_slope(w: float) -> float:
    """sigma'(w) as ``Im sigma(w + ih)/h`` (complex step; Squire & Trapp
    1998), by the two-branch formula of :func:`numerics.sigmoid`.

    No difference is taken, so nothing cancels and the step needs no
    tuning: the truncation error is h^2/6 relative (|sigma^(3)/sigma'| <= 1),
    below eps for h = 2^-26.  The exponent is never positive, so no w
    overflows; the slope is exact to a few ulps while h*sigma'(w) is a
    normal float (|w| < ~690) and reads 0 where sigma'(w) underflows.
    """
    h = 2.0 ** -26
    z = complex(w, h)
    if w >= 0.0:
        s = 1.0 / (1.0 + cmath.exp(-z))
    else:
        e = cmath.exp(z)
        s = e / (1.0 + e)
    return s.imag / h


def _check_eigenvalues(u: float, v: float, coeffs: ReducedCoefficients,
                       eig_pair: tuple[complex, complex]) -> None:
    """Raise unless the closed-form pair matches the Jacobian's to 1e-6.

    In logit coordinates the field ``(a*sigma(v) + b - u, c*sigma(u) + d
    - v)`` has a complex-step Jacobian whose diagonal is exactly -1 and
    whose off-diagonal entries are ``a*sigma'(v)`` and ``c*sigma'(u)``; at
    a rest point it is diagonally similar to the strategy-space Jacobian
    (similarity diag(x(1-x), y(1-y))).  Its eigenvalues are therefore
    ``-1 +- sqrt((a*sigma'(v))*(c*sigma'(u)))``, in the closed form's order.
    """
    root = cmath.sqrt((coeffs.a * _complex_step_slope(v))
                      * (coeffs.c * _complex_step_slope(u)))
    err = max(abs(-1.0 + root - eig_pair[0]), abs(-1.0 - root - eig_pair[1]))
    if err > FD_EIGEN_TOL:
        raise NumericFailureError(
            f"eigenvalue formula disagrees with the complex-step Jacobian "
            f"by {err:.3e} at u={u}, v={v}", residuals=err)


def stability_eigenvalues(point, coeffs: ReducedCoefficients
                          ) -> tuple[complex, complex]:
    """Jacobian eigenvalues ``-1 +- sqrt(a c x(1-x) y(1-y))`` at a rest point.

    ``point`` is an (x, y) pair that must already be a rest point (both
    bracket terms below 1e-8); otherwise :class:`DomainError`.
    The closed form is cross-checked against the complex-step Jacobian
    to 1e-6 on every call.
    """
    x, y = point
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError(f"rest point must be interior, got {point}")
    u, v = logit(x), logit(y)
    bracket_x = coeffs.a * y + coeffs.b - u
    bracket_y = coeffs.c * x + coeffs.d - v
    residual = max(abs(bracket_x), abs(bracket_y))
    if residual > _REST_RESIDUAL_TOL:
        raise DomainError(
            f"point {point} is not a rest point: residual "
            f"{residual:.3e} > {_REST_RESIDUAL_TOL}")
    lam1, lam2, _ = _eigenvalues_from_logit(u, v, coeffs)
    _check_eigenvalues(u, v, coeffs, (lam1, lam2))
    return (lam1, lam2)


class _Logistic:
    """sigma itself as a response curve, with the interface of GFunction:
    on the diagonal x = y of a symmetric game at equal temperatures the
    rest-point equation is ``u = b + a*sigma(u)``."""

    c = 1.0
    value = staticmethod(sigmoid)
    slope_shape = staticmethod(sigmoid_slope)

    @staticmethod
    def eval(u: float) -> tuple[float, float, float]:
        s, s1 = sigmoid(u), sigmoid_slope(u)
        return s, s1, s1 * (1.0 - 2.0 * s)

    @staticmethod
    def inflection() -> float:
        return 0.0


_LOGISTIC = _Logistic()


def _peak(a: float, curve) -> tuple[float, float, bool]:
    """``(u0, m, m > 1)``, m = a*c*shape(u0) at the curve's inflection u0:
    phi has its pair of stationary points exactly when m > 1."""
    u0 = curve.inflection()
    margin = a * curve.c * curve.slope_shape(u0)
    return u0, margin, margin > 1.0


def _is_double_root(u_s: float, a: float, b: float, curve) -> bool:
    """phi(u_s) is zero within its terms' rounding: at a stationary point
    u_s, the double root of u - b - a*curve(u)."""
    phi_s = u_s - b - a * curve.value(u_s)
    return abs(phi_s) <= 8.0 * math.ulp(1.0) * (abs(u_s) + abs(b) + abs(a))


def _extrema(a: float, b: float, curve) -> list[tuple[float, float, bool]]:
    """Stationary points of phi(u) = u - b - a*curve(u) inside the root
    bracket, left to right, as ``(u, phi(u), keeps)``.

    ``phi' = 1 - a*c*shape(u)`` and shape is single-peaked (at the curve's
    inflection), so phi has two stationary points (:func:`_peak`) or none
    and falls between them: a max, then a min.  ``keeps`` says the value
    still separates a pair of roots: the max above zero, the min below.
    """
    ac = a * curve.c
    if ac <= 0.0:
        return []
    u_peak, _, paired = _peak(a, curve)
    if not paired:
        return []
    shape = curve.slope_shape

    def excess(u: float) -> float:
        return ac * shape(u) - 1.0

    # shape(u) <= sigma(u)*sigma(-u) < e^-|u|, so excess < 0 beyond span
    span = math.log(ac) + 1.0
    u_max = bisect(excess, -span, u_peak, excess(-span), excess(u_peak))
    u_min = bisect(excess, u_peak, span, excess(u_peak), excess(span))
    lo, hi = sorted((b, b + a))
    found = [(u, u - b - a * curve.value(u), is_max)
             for u, is_max in ((u_max, True), (u_min, False)) if lo < u < hi]
    return [(u, phi, phi > 0.0 if is_max else phi < 0.0)
            for u, phi, is_max in found]


def _solve_u_roots(a: float, b: float,
                   curve) -> tuple[list[float], list[bool]]:
    """All u-roots of phi(u) = u - b - a*curve(u), with tangency flags.

    ``curve`` is a :class:`GFunction`, or ``_LOGISTIC`` on the symmetric
    diagonal.  Roots are bracketed between the ends of [lo, hi] and the
    stationary points that still keep a pair (:func:`_extrema`).  A
    stationary value that has lost its pair is, within its own rounding
    (:func:`_is_double_root`), the double root: reported once, flagged.
    """
    if a == 0.0:
        return [b], [False]

    def phi(u: float) -> tuple[float, float]:
        g, slope, _ = curve.eval(u)
        return u - b - a * g, 1.0 - a * slope

    lo, hi = (b, b + a) if a > 0.0 else (b + a, b)
    (flo, _), (fhi, _) = phi(lo), phi(hi)
    # Analytically phi(lo) < 0 < phi(hi) always (g stays inside (0,1));
    # restore the sign when saturation rounding has destroyed it, which
    # parks the root at the endpoint to float resolution.
    if flo >= 0.0:
        flo = -5e-324
    if fhi <= 0.0:
        fhi = 5e-324
    target = max(1e-15, min(5e-13, 5e-13 * abs(a)))

    found: list[tuple[float, bool]] = []
    knots = [(lo, flo)]
    for u_s, v_s, keeps in _extrema(a, b, curve):
        if keeps:
            knots.append((u_s, v_s))
        elif _is_double_root(u_s, a, b, curve):
            found.append((u_s, True))
    knots.append((hi, fhi))
    for (ua, va), (ub, vb) in zip(knots, knots[1:]):
        if (va > 0.0) != (vb > 0.0):
            found.append((_refine_root(phi, ua, ub, va, vb, target), False))
    found.sort()
    return [u for u, _ in found], [flag for _, flag in found]


def _response_curve(coeffs: ReducedCoefficients) -> GFunction:
    """g for these coefficients, or :class:`DomainError` when an end of the
    root brackets, b + a or d + c, overflows."""
    if not (math.isfinite(coeffs.b + coeffs.a)
            and math.isfinite(coeffs.d + coeffs.c)):
        raise DomainError("coefficients too large: b + a or d + c overflows")
    return GFunction(coeffs.c, coeffs.d)


def find_rest_points(coeffs: ReducedCoefficients,
                     fd_check: bool = True) -> list[RestPoint]:
    """All interior rest points at the given coefficients, sorted by u.

    Roots are bracketed on the monotone segments of the defect function
    (delimited by the at-most-two solutions of ``a*g'(u) = 1``), refined by
    safeguarded Newton to ``|u - b - a*g(u)| < ~1e-12*|a|``, and back-
    substituted through ``v = d + c*sigma(u)``.  The count is 1 or 3, or 2
    at a fold: a stationary value that just lost its pair of roots is the
    double root, returned once with ``degenerate_pair`` set, the only
    point so flagged.  Stability
    comes from the eigenvalue closed form.  With ``fd_check`` (turn off
    only in bulk counting) each point is also checked: it must meet its
    own equation, ``|a*sigma(v) + b - u| <= 1e-9*(1 + |a| + |b|)``, and its
    eigenvalues must match the complex-step Jacobian to 1e-6; otherwise
    :class:`NumericFailureError`.  Coefficients where b + a or d + c
    overflows raise :class:`DomainError`.
    """
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    roots, flags = _solve_u_roots(a, b, _response_curve(coeffs))
    points = []
    for u, degenerate in zip(roots, flags):
        v = d + c * sigmoid(u)
        x, y = sigmoid(u), sigmoid(v)
        lam1, lam2, rad = _eigenvalues_from_logit(u, v, coeffs)
        residual = abs(a * y + b - u)
        if fd_check:
            if residual > _RESIDUAL_BOUND * (1.0 + abs(a) + abs(b)):
                raise NumericFailureError(
                    f"rest point at u={u}, v={v} misses its equation by "
                    f"{residual:.3e}", residuals=residual)
            _check_eigenvalues(u, v, coeffs, (lam1, lam2))
        points.append(RestPoint(x=x, y=y, u=u, v=v,
                                eigenvalues=(lam1, lam2),
                                stability=_classify(rad),
                                residual=residual,
                                degenerate_pair=degenerate))
    return points


def count_rest_points(coeffs: ReducedCoefficients) -> int:
    """Number of interior rest points (no stability work; for sweeps)."""
    roots, _ = _solve_u_roots(coeffs.a, coeffs.b, _response_curve(coeffs))
    return len(roots)


def solve_symmetric(a: float, b: float) -> list[float]:
    """Roots x in (0,1) of ``a*x + b = ln(x/(1-x))``, sorted ascending.

    This is the diagonal restriction (x = y, equal temperatures, symmetric
    game) of the general rest-point equation, solved by the same kernel
    with the response curve replaced by sigma itself.  At a tangency the
    double root is reported once (count 2).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("coefficients must be finite")
    roots, _ = _solve_u_roots(a, b, _LOGISTIC)
    return sorted(sigmoid(u) for u in roots)


def symmetric_critical_offsets(a: float) -> tuple[float, float]:
    """The offsets (b_minus, b_plus) bounding the three-root band at slope a.

    On the symmetric diagonal the equation ``a*x + b = ln(x/(1-x))`` has
    three solutions exactly for ``b_minus < b < b_plus``; the tangency
    points are x = (1 +- sqrt(1 - 4/a))/2, which exist only for a >= 4.
    Both offsets equal -2 at a = 4 (the cusp).  With alpha = sqrt(a(a-4))
    = a*sqrt(1 - 4/a) and a_pm = a +- alpha, ``b_plus = ln(a_minus/a_plus)
    - a_minus/2`` and ``b_minus = ln(a_plus/a_minus) - a_plus/2``; every
    term is formed so that nothing cancels or overflows for any finite a.
    """
    if not math.isfinite(a):
        raise DomainError(f"slope must be finite, got a = {a}")
    if a < 4.0:
        raise NotApplicableError(
            f"three symmetric rest points require a >= 4, got a = {a}")
    alpha = math.sqrt(a) * math.sqrt(a - 4.0)
    a_minus = 4.0 / (1.0 + alpha / a)  # = a - alpha without cancellation
    # ln(a_minus/a_plus) = -ln(1 + 2*alpha/a_minus), as a_plus - a_minus = 2*alpha
    ratio = -math.log1p(alpha * (2.0 / a_minus))
    b_plus = ratio - 0.5 * a_minus
    b_minus = -ratio - 0.5 * a - 0.5 * alpha
    return b_minus, b_plus


@dataclass(frozen=True)
class TangencyDiagnostics:
    """Criticality indicators for the line-tangent-to-response-curve test."""

    ac: float
    bound_met: bool  # interior tangency requires ac >= 16
    logit_residual: Callable[[float], float] = field(repr=False)
    strategy_residual: Callable[[float, float], float] = field(repr=False)


def tangency_conditions(coeffs: ReducedCoefficients) -> TangencyDiagnostics:
    """Diagnostics for saddle-node criticality at equal sensitivity.

    ``logit_residual(u)`` evaluates ``ac - 4cosh^2(u/2)/(g(1-g))`` (zero at
    a critical point); ``strategy_residual(x, y)`` is the same test in the
    original variables, ``ac - 1/(x(1-x)y(1-y))``.  Since the slope product
    never exceeds 1/16, criticality needs ``ac >= 16``.
    """
    ac = coeffs.a * coeffs.c
    gf = GFunction(coeffs.c, coeffs.d)

    def logit_residual(u: float) -> float:
        shape = gf.slope_shape(u)
        if shape == 0.0:
            return -math.inf
        return ac - 1.0 / shape

    def strategy_residual(x: float, y: float) -> float:
        prod = x * (1.0 - x) * y * (1.0 - y)
        if prod == 0.0:
            return -math.inf
        return ac - 1.0 / prod

    return TangencyDiagnostics(ac=ac, bound_met=bool(ac >= 16.0),
                               logit_residual=logit_residual,
                               strategy_residual=strategy_residual)
