"""Interior rest points of the two-action learning flow, with stability.

Interior rest points in logit coordinates u = ln(x/(1-x)), v = ln(y/(1-y))
satisfy the pair ``u = b + a*sigma(v)``, ``v = d + c*sigma(u)``.  Eliminating
v leaves a scalar equation: the line ``(u - b)/a`` must meet the response
curve::

    g(u) = sigma(d + c * sigma(u))

(formed without cancellation by :class:`GFunction`, the one place that
forms v from u or u from v).  g is a sigmoid-of-sigmoid: strictly
monotone (rising iff c > 0), bounded in (0, 1), with exactly one
inflection point.  Consequently the defect
``phi(u) = u - b - a*g(u)`` has at most two stationary points, so the flow
has one, two (only at a tangency) or three interior rest points, and every
root can be bracketed on a monotone segment.  That structure drives the
solver below; no dense scanning is ever needed.  The pair of stationary
points needs ``a*c*sigma'(u)*sigma'(v) > 1`` somewhere, so it is ruled
out without a search where a*c <= 16, and where Y's logit keeps one sign
and its tail nearer 0 bounds sigma'(v) low enough.

Stability falls out of the same picture: at a rest point the Jacobian of
the (x, y) flow is ``[[-1, a x(1-x)], [c y(1-y), -1]]`` with eigenvalues
``-1 +- sqrt(a c x(1-x) y(1-y))``, and the radicand equals a*c times the
slope product, so a middle root (where the line crosses g from above) is
exactly the saddle.  Each point reads x and sigma'(u) from the one exp
that forms its v, and y and sigma'(v) from one exp of v, with the bits
of :func:`numerics.sigmoid` and :func:`numerics.sigmoid_slope`; the
closed form (:func:`_eigenvalues`) takes the two slopes.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, NotApplicableError, NumericFailureError
from .games import ReducedCoefficients
from .numerics import (_as_finite, _refine_root, _require_interior,
                       _require_temperature, bisect, logit, rounds_to_zero,
                       sigmoid, sigmoid_slope)

#: sinh(u) and e^u stay finite for |u| up to ln(max float), about 709.78
_LOG_MAX = math.log(sys.float_info.max)

#: eigenvalue formula must agree with the complex-step Jacobian to this
FD_EIGEN_TOL = 1e-6
#: 1 - 2^-40: the no-pair test's bound, below 1 by more than its own
#: rounding and that of the margin it stands for (:meth:`GFunction._pairless`)
_PAIRLESS = 1.0 - 2.0 ** -40
#: a checked rest point must meet ``|a*sigma(v) + b - u| <= this*(1+|a|+|b|)``
_RESIDUAL_BOUND = 1e-9
#: both rest-point bracket terms must be below this for stability_eigenvalues
_REST_RESIDUAL_TOL = 1e-8

STABLE_NODE = "stable_node"
STABLE_SPIRAL = "stable_spiral"
SADDLE_UNSTABLE = "saddle_unstable"


#: e^-746 underflows to 0 in float64, so past |u| = 746 sigma(u) is exactly
#: 0 or 1 and sigma'(u) is exactly 0
_SATURATION = 746.0


@dataclass(frozen=True)
class GFunction:
    """The response curve g(u) = sigma(v) and its derivatives, where Y's
    logit is ``v = (raw_d + raw_c*sigma(u))/ty``.  ``GFunction(c, d)`` is
    the curve at ty = 1; ``c = raw_c/ty`` and ``d = raw_d/ty`` either way.

    This is the one place that forms v from u or u from v: :meth:`_at`,
    and the probes that form it inline in one frame with :meth:`_at`'s
    bits, :meth:`_defect_probe` (the root kernel's),
    :meth:`_inflection_probe` and :meth:`_excess_probe`.  All go
    through p = ty*v and one identity: ``p = raw_d + raw_c*sigma(u)`` and
    ``raw_c*sigma(-u) = raw_c + raw_d - p``.  For u <= 0, p is formed from
    the first, exact in the tail u -> -inf (p -> raw_d); for u > 0 from
    the second, exact in the tail u -> +inf (p -> raw_c + raw_d).  So
    nothing cancels when d/c is near -1, where ``d + c*sigma(u)`` would
    subtract two terms of size c.  The inverse is the ratio of the same
    two tails, ``e^u = (p - raw_d)/(raw_c + raw_d - p)`` (:meth:`_touch`).

    There are two inflection solvers: the Newton-stepped u-bisection of
    :meth:`inflection` for the root kernel, and the v-Newton of
    :meth:`_inflection_v` for the critical curve, since at small ty u
    cannot resolve v (v moves by raw_c/ty across sigma's range).  The
    v-side methods (:meth:`_touch`, :meth:`_bend`, :meth:`_knots`) take
    raw_c of either sign: v falls with u where raw_c < 0, and both tails
    then share raw_c's sign.  raw_c and raw_d must be finite numbers, ty
    a temperature (:func:`numerics._require_temperature`), and c and d
    finite, else :class:`DomainError`.
    """

    #: the largest slope_shape, sigma'(v)*sigma'(u) <= 1/4 * 1/4
    shape_peak = 0.0625
    raw_c: float
    raw_d: float
    ty: float = 1.0

    def __post_init__(self):
        self._store(_as_finite(self.raw_c, "raw_c"),
                    _as_finite(self.raw_d, "raw_d"),
                    _require_temperature(self.ty))
        _as_finite(self.c, "raw_c/ty")
        _as_finite(self.d, "raw_d/ty")

    def _store(self, raw_c: float, raw_d: float, ty: float) -> None:
        """Store the checked fields, with c, d and p's top end derived."""
        vars(self).update(raw_c=raw_c, raw_d=raw_d, ty=ty, c=raw_c / ty,
                          d=raw_d / ty, _top=raw_c + raw_d)

    @classmethod
    def of(cls, coeffs: ReducedCoefficients, ty: float) -> "GFunction":
        """Y's curve from these coefficients' raw_c and raw_d at ty.  Where
        raw_c + raw_d overflows (for ty > 1 while c + d is finite) all three
        are halved, which is exact and leaves every v as it was, so no v is
        formed non-finite.  A record's raw_c and raw_d are finite floats
        already, so only ty is checked (a temperature, else
        :class:`DomainError`)."""
        half = 0.5 if math.isinf(coeffs.raw_c + coeffs.raw_d) else 1.0
        curve = object.__new__(cls)
        curve._store(half * coeffs.raw_c, half * coeffs.raw_d,
                     _require_temperature(half * ty))
        return curve

    def _at(self, u: float) -> tuple[float, float, float]:
        """``(sigma(u), sigma(-u), v)`` from one exp, each sigma with the
        bits of :func:`numerics.sigmoid`, v from the tail exact at u's end."""
        e = math.exp(-u if u > 0.0 else u)
        s, t = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|u|), sigma(-|u|)
        if u > 0.0:
            return s, t, (self._top - self.raw_c * t) / self.ty
        return t, s, (self.raw_d + self.raw_c * t) / self.ty

    def value(self, u: float) -> float:
        return sigmoid(self._at(u)[2])

    def eval(self, u: float) -> tuple[float, float, float]:
        """(g, g', g'') at u, overflow-safe for any |u| the floats carry.

        Derivatives are assembled from bounded products g(1-g) and s(1-s)
        rather than the cosh/sinh closed forms, so nothing overflows:

            g'  = c * g(1-g) * s(1-s)
            g'' = g' * [c*(1-2g)*s*(1-s) + (1-2s)]      with s = sigma(u)

        In one frame: sigma(u), sigma(-u) and v as :meth:`_at` forms
        them, g = sigma(v) and 1 - g = sigma(-v) with the bits of
        :func:`numerics.sigmoid`, from one exp each.
        """
        e = math.exp(-u if u > 0.0 else u)
        s, t = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|u|), sigma(-|u|)
        if u > 0.0:
            s_neg, v = t, (self._top - self.raw_c * t) / self.ty
        else:
            s, s_neg, v = t, s, (self.raw_d + self.raw_c * t) / self.ty
        e = math.exp(-v if v >= 0.0 else v)
        big, small = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|v|), sigma(-|v|)
        g = big if v >= 0.0 else small
        gq = big * small
        sq = s * s_neg
        g1 = self.c * gq * sq
        return g, g1, g1 * (self.c * (1.0 - 2.0 * g) * sq + (1.0 - 2.0 * s))

    def _defect_probe(self, a: float, b: float):
        """``u -> (phi, phi')`` of the root kernel, phi = u - b - a*g and
        phi' = 1 - a*g', each probe in one frame with :meth:`eval`'s bits
        and without its g''."""
        raw_c, raw_d, top, ty, c = (self.raw_c, self.raw_d, self._top,
                                    self.ty, self.c)
        exp = math.exp

        def phi(u: float) -> tuple[float, float]:
            e = exp(-u if u > 0.0 else u)
            s, t = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|u|), sigma(-|u|)
            v = (top - raw_c * t) / ty if u > 0.0 else (raw_d + raw_c * t) / ty
            e = exp(-v if v >= 0.0 else v)
            big, small = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|v|), sigma(-|v|)
            return (u - b - a * (big if v >= 0.0 else small),
                    1.0 - a * (c * (big * small) * (s * t)))
        return phi

    def slope_shape(self, u: float) -> float:
        """g(1-g)*s(1-s) = g'(u)/c; the quantity whose peak bounds tangency."""
        return self._shape_and_bend(u)[0]

    def _shape_and_bend(self, u: float) -> tuple[float, float]:
        """``(g'/c, g''/c)`` at u from one :meth:`_at`: the slope shape
        ``sigma'(v)*sigma'(u)`` and its u-derivative ``shape*((1 -
        2*sigma(v))*c*sigma'(u) + (1 - 2*sigma(u)))``."""
        s, s_neg, v = self._at(u)
        e = math.exp(-v if v > 0.0 else v)
        sq = s * s_neg
        shape = e / ((1.0 + e) * (1.0 + e)) * s * s_neg  # sigma'(v) = e/(1+e)^2
        tilt = math.copysign((1.0 - e) / (1.0 + e), -v)  # 1 - 2*sigma(v)
        return shape, shape * (self.c * tilt * sq + (s_neg - s))

    def inflection(self) -> float:
        """The unique zero of g''.

        g'' vanishes with ``F(u) = c*tanh(v/2) + 2*sinh(u)``, which is
        strictly increasing, with ``F' = c^2*sigma'(u)*(1 - tanh(v/2)^2)/2
        + 2*cosh(u)`` from the same :meth:`_at`.  So the probe gives
        :func:`numerics.bisect` the Newton step -F/F' (F' >= 2): F is
        monotone on every bracket, a step is taken only where it lands
        strictly inside the shrinking bracket, and each side is decided
        by the sign of F alone, so the sign change is never lost and the
        answer is F's sign change at float resolution.  The zero has
        |2*sinh(u)| <= |c|, so |u| <= asinh(|c|/2) <= _LOG_MAX: the span
        asinh(|c|/2) + 1, capped at _LOG_MAX so that sinh stays finite,
        brackets it, with F(-span) < 0 < F(span) known and not probed
        unless the cap applies.

        The first probe is where Y's logit crosses zero (:meth:`_logit_zero`),
        ``u = ln(t/(1 - t))`` with t = -raw_d/raw_c, when 0 < t < 1 (``t/(1
        - t) = -raw_d/(raw_c + raw_d)``, the ratio of v's two tails at v = 0):
        there ``F = 2*sinh(u)`` and ``F' = c^2*sigma'(u)/2 + 2*cosh(u)``,
        so the zero lies about 4*|sinh(u)|/(c^2*sigma'(u)) away where |c|
        is large (cold curves, c = raw_c/ty), and the search starts next
        to it.  That probe too decides a side by F's sign alone, which
        leaves the guarantee above as it was.
        """
        f = self._inflection_probe()
        span = min(math.asinh(0.5 * abs(self.c)) + 1.0, _LOG_MAX)
        # at the cap 2*sinh(span) need not exceed |c|: probe the ends there
        ends = (-1.0, 1.0) if span < _LOG_MAX else (f(-span)[0], f(span)[0])
        return bisect(f, -span, span, *ends, self._logit_zero())

    def _logit_zero(self) -> float | None:
        """u where Y's logit crosses zero, ``ln(-raw_d/(raw_c + raw_d))``,
        the ratio of v's two tails at v = 0; None where that ratio is not
        a positive finite float (v keeps one sign)."""
        ratio = -self.raw_d / self._top if self._top else 0.0
        return math.log(ratio) if 0.0 < ratio < math.inf else None

    def _pairless(self, ac: float) -> bool:
        """True where Y's logit keeps one sign over its range, from
        ``raw_d/ty`` to ``(raw_c + raw_d)/ty``, and ``B = ac*sigma'(n)/4
        <= 1 - 2^-40``, n the tail nearer 0 and ac > 0: then
        :func:`_peak` would read ``m = ac*shape(u0) <= 1``, as computed,
        so the defect has no stationary pair and :func:`_extrema` need not
        solve the inflection.  sigma'(v) is ``e/((1+e)*(1+e))``, e =
        exp(-|v|), as :meth:`_shape_and_bend` forms it.

        Exactly, shape = sigma'(v)*sigma'(u) with sigma'(u) <= 1/4 and
        sigma'(v) <= sigma'(n), as |v| >= |n| on the range.  In floats,
        with eps = 2^-53, two things are rounded:

        - v itself.  Negating raw_c and raw_d negates every v exactly, so
          take both tails > 0.  v is formed from ``raw_d + raw_c*t`` for u
          <= 0 and ``top - raw_c*t`` for u > 0, t = sigma(-|u|) <= 1/2 as
          computed, top = fl(raw_c + raw_d).  Rounding is monotone, so
          neither form is nearer 0 than n, but for the second where n =
          raw_d (raw_c > 0): there ``top - raw_c*t >= raw_d + raw_c/2 -
          ulp(top)/2``, which passes raw_d only where raw_c < ulp(top) <=
          2*ulp(raw_d), and then by at most ulp(raw_d) <= 2 eps*raw_d
          (exact where both are subnormal, as sums of subnormals are).
          With the division by ty, |v| >= (1 - 6 eps)*|n| as computed;
          |d ln sigma'(v)/dv| = |tanh(v/2)| <= 1, so sigma'(v) exceeds
          sigma'(n) by a relative 6 eps*|n| at most.
        - The products.  Say m > 1 as computed.  As ac < 2^1024 every
          factor of m exceeds 2^-1024, and sigma'(v) exceeds 2^-1022, so
          |v| < 709 and |n| < 710; B's factors then exceed 2^-1024 too.
          There a rounding errs by a relative 2^-51 = 4 eps at most, and
          exp (within an ulp) by 8 eps, which e/(1+e)^2 passes on at most
          in size.  m takes 11 roundings and one exp: 1 + e twice,
          (1+e)^2, the quotient, two products for shape and one for m,
          and the two quotients of sigma(u) and sigma(-u) and the two
          places of their common 1 + e, whose product is at most 1/4 as
          computed but for those four.  B takes 6 roundings and one exp.

        So m <= B*(1 + (17*4 + 2*8 + 6*710)*eps) = B*(1 + 4344 eps) to
        first order, and m > 1 forces B > 1 - 2^-40 (2^-40 = 8192 eps
        also covers the second-order terms): where B <= 1 - 2^-40 the
        computed m is at most 1.  An ac that is inf makes B inf or nan,
        which never passes.  Where v's range reaches 0, n would be 0 and
        B = ac/16, which the shape_peak test has already decided.
        """
        raw_d, top = self.raw_d, self._top
        if not (raw_d > 0.0 < top or raw_d < 0.0 > top):
            return False
        e = math.exp(-min(abs(raw_d), abs(top)) / self.ty)
        return ac * (e / ((1.0 + e) * (1.0 + e))) * 0.25 <= _PAIRLESS

    def _inflection_probe(self):
        """``u -> (F, -F/F')`` of :meth:`inflection`, each probe in one
        frame: sigma(u), sigma(-u) and v are formed as :meth:`_at` forms
        them."""
        raw_c, raw_d, top, ty, c = (self.raw_c, self.raw_d, self._top,
                                    self.ty, self.c)
        exp, tanh, sinh, cosh = math.exp, math.tanh, math.sinh, math.cosh

        def f(u: float) -> tuple[float, float]:
            e = exp(-u if u > 0.0 else u)
            s, t = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|u|), sigma(-|u|)
            v = (top - raw_c * t) / ty if u > 0.0 else (raw_d + raw_c * t) / ty
            th = tanh(0.5 * v)
            value = c * th + 2.0 * sinh(u)
            return value, -value / (0.5 * c * (c * (s * t))
                                    * (1.0 - th * th) + 2.0 * cosh(u))
        return f

    def _excess_probe(self, ac: float):
        """``u -> (excess, step)`` of :func:`_extrema`, excess = ac*shape -
        1 and the Newton step on ln(ac*shape), ``-ln(ac*shape)*shape/bend``
        (None where ac*shape is not positive or bend is 0), each probe in
        one frame: shape and bend as :meth:`_shape_and_bend` forms them,
        from sigma(u), sigma(-u) and v as :meth:`_at` forms them."""
        raw_c, raw_d, top, ty, c = (self.raw_c, self.raw_d, self._top,
                                    self.ty, self.c)
        exp, copysign, log = math.exp, math.copysign, math.log

        def excess(u: float) -> tuple[float, float | None]:
            e = exp(-u if u > 0.0 else u)
            s, t = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|u|), sigma(-|u|)
            if u > 0.0:
                s_neg, v = t, (top - raw_c * t) / ty
            else:
                s, s_neg, v = t, s, (raw_d + raw_c * t) / ty
            e = exp(-v if v > 0.0 else v)
            shape = e / ((1.0 + e) * (1.0 + e)) * s * s_neg
            tilt = copysign((1.0 - e) / (1.0 + e), -v)
            bend = shape * (c * tilt * (s * s_neg) + (s_neg - s))
            scaled = ac * shape
            return scaled - 1.0, (-log(scaled) * shape / bend
                                  if scaled > 0.0 and bend else None)
        return excess

    def _stationary_firsts(self, ac: float, u0: float
                           ) -> list[float | None]:
        """First probes of :func:`_extrema`'s two searches, the max's then
        the min's.  With sigma'(u) held at its value at the inflection
        u0, ``ac*sigma'(v)*sigma'(u0) = 1`` at ``v = -+w``, ``w =
        2*acosh(sqrt(ac*sigma'(u0))/2)``; each v goes back to u by the
        ratio of the tails, as in :meth:`_touch`, and gives None where
        that ratio is not a positive finite float.  v rises with u where
        raw_c > 0, so the max, on the left, takes -w there and +w where
        raw_c < 0.  m > 1 (:func:`_peak`) makes ac*sigma'(u0) > 4; the
        clip at acosh's 1 absorbs rounding there."""
        w = 2.0 * math.acosh(max(0.5 * math.sqrt(ac * sigmoid_slope(u0)),
                                 1.0))
        firsts = []
        for v in ((-w, w) if self.raw_c > 0.0 else (w, -w)):
            lo, hi = self._tails(v)
            ratio = lo / hi if hi else 0.0  # e^u
            firsts.append(math.log(ratio) if 0.0 < ratio < math.inf
                          else None)
        return firsts

    def _tails(self, v: float) -> tuple[float, float]:
        """``(raw_c*sigma(u), raw_c*sigma(-u))`` at Y's logit v, as ``p -
        raw_d`` and ``raw_c + raw_d - p``, clipped at 0 past v's range
        (toward 0 on raw_c's side: ``max(s*x, 0)*s`` with s = +-1 is
        exact)."""
        p, s = self.ty * v, 1.0 if self.raw_c > 0.0 else -1.0
        return (max(s * (p - self.raw_d), 0.0) * s,
                max(s * (self._top - p), 0.0) * s)

    def _touch(self, v: float) -> tuple[float, float, float, float]:
        """``(delta, g', d delta/d ty, d delta/dv)`` where the tangent
        touches g at Y's logit v, from the tails ``lo = raw_c*sigma(u)``
        and ``hi = raw_c*sigma(-u)``; g' = 0 past the ends of v's range,
        and the v-slope is then 0.  The ty-slope is at fixed u, where v
        scales as 1/ty: ``dg/dty = -sigma'(v)*v/ty`` and ``dg'/dty =
        -g'*(1 + (1-2g)*v)/ty``.  The v-slope is ``-u*sigma'(v)*(g''/g')``,
        as delta' = -u*g'' and dv/du = g'/sigma'(v), with g''/g' as
        :meth:`_bend` forms it.
        """
        lo, hi = self._tails(v)
        e = math.exp(-abs(v))
        s = 1.0 / (1.0 + e)  # sigma(|v|)
        dsig_v = e * s * s  # sigma'(v)
        spread = lo / self.ty * (hi / self.raw_c)  # (raw_c/ty)*sigma'(u)
        slope = spread * dsig_v
        sig = s if v >= 0.0 else e * s
        dsig = -dsig_v * v / self.ty
        if slope == 0.0:
            return sig, 0.0, dsig, 0.0
        ratio = lo / hi  # e^u, exactly unchanged when the payoffs and ty scale
        u = math.log(ratio) if 0.0 < ratio < math.inf else (
            math.log(abs(lo)) - math.log(abs(hi)))
        bend = (hi - lo) / self.raw_c - math.tanh(0.5 * v) * spread
        return (sig - u * slope, slope,
                dsig + u * slope * (1.0 + (1.0 - 2.0 * sig) * v) / self.ty,
                -u * dsig_v * bend)

    def _bend(self, v: float) -> tuple[float, float]:
        """g''/g' = ``(1 - 2*sigma(u)) - tanh(v/2)*(raw_c/ty)*sigma'(u)`` at
        Y's logit v, in the terms of :meth:`_touch`, and its v-derivative
        (``d lo/dv = ty = -d hi/dv``)."""
        lo, hi = self._tails(v)
        th = math.tanh(0.5 * v)
        spread = lo / self.ty * (hi / self.raw_c)  # (raw_c/ty)*sigma'(u)
        return ((hi - lo) / self.raw_c - th * spread,
                -(2.0 * self.ty + th * (hi - lo)) / self.raw_c
                - 0.5 * (1.0 - th * th) * spread)

    def _inflection_v(self, v_lo: float, v_hi: float) -> float:
        """Y's logit at g's inflection between v_lo and v_hi, its values at
        u -> -inf and +inf: g''/g' falls through zero once as u rises, so
        the bracketed Newton of :func:`numerics._refine_root` finds it on
        the bracket in v's order; an end already past the sign change is
        where the clipped zero sits.  Both terms of g''/g' are at most 1 in
        size at the zero, so it is solved to a few ulps of 1."""
        (b_lo, _), (b_hi, _) = self._bend(v_lo), self._bend(v_hi)
        if b_lo <= 0.0 or b_hi >= 0.0:
            return v_lo if b_lo <= 0.0 else v_hi
        (v0, b0), (v1, b1) = sorted(((v_lo, b_lo), (v_hi, b_hi)))
        return _refine_root(self._bend, v0, v1, b0, b1, 4.0 * math.ulp(1.0))

    def _knots(self) -> list[float]:
        """Y's logit at the ends of its range, at u = 0 and at g's
        inflection, clipped to +-_SATURATION."""
        v_lo, v_zero, v_hi = (min(max(v / self.ty, -_SATURATION), _SATURATION)
                              for v in (self.raw_d, self.raw_d + 0.5 * self.raw_c,
                                        self._top))
        return [v_lo, v_zero, self._inflection_v(v_lo, v_hi), v_hi]


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


def _eigenvalues(a: float, c: float, x_slope: float, y_slope: float
                 ) -> tuple[complex, complex, float]:
    """The closed form ``(-1 + r, -1 - r, rad)``, r = sqrt(rad), on the two
    slopes sigma'(u) and sigma'(v): rad = a*c*sigma'(u)*sigma'(v)."""
    rad = a * c * x_slope * y_slope
    if math.isnan(rad):  # a*c overflowed against a zero slope: pair them
        rad = (a * x_slope) * (c * y_slope)
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
    x, y = _require_interior(point)
    u, v = logit(x), logit(y)
    residual = max(abs(coeffs.a * y + coeffs.b - u),
                   abs(GFunction.of(coeffs, coeffs.ty)._at(u)[2] - v))
    if residual > _REST_RESIDUAL_TOL:
        raise DomainError(
            f"point {point} is not a rest point: residual "
            f"{residual:.3e} > {_REST_RESIDUAL_TOL}")
    lam1, lam2, _ = _eigenvalues(coeffs.a, coeffs.c, sigmoid_slope(u),
                                 sigmoid_slope(v))
    _check_eigenvalues(u, v, coeffs, (lam1, lam2))
    return (lam1, lam2)


class _Logistic:
    """sigma itself as a response curve, with the interface of GFunction
    (v = u): on the diagonal x = y of a symmetric game at equal
    temperatures the rest-point equation is ``u = b + a*sigma(u)``."""

    c, shape_peak = 1.0, 0.25
    value = staticmethod(sigmoid)
    slope_shape = staticmethod(sigmoid_slope)
    _at = staticmethod(lambda u: (sigmoid(u), sigmoid(-u), u))
    inflection = staticmethod(lambda: 0.0)
    #: v = u crosses 0, so the no-pair test of GFunction never applies
    _pairless = staticmethod(lambda ac: False)

    @staticmethod
    def _shape_and_bend(u: float) -> tuple[float, float]:
        """``(sigma'(u), sigma''(u))``, the first as :func:`sigmoid_slope`."""
        s, s_neg = sigmoid(u), sigmoid(-u)
        shape = s * s_neg
        return shape, shape * (s_neg - s)

    @classmethod
    def _excess_probe(cls, ac: float):
        """``u -> (excess, step)`` of :func:`_extrema`, as
        :meth:`GFunction._excess_probe`, from :meth:`_shape_and_bend`."""
        def excess(u: float) -> tuple[float, float | None]:
            shape, bend = cls._shape_and_bend(u)
            scaled = ac * shape
            return scaled - 1.0, (-math.log(scaled) * shape / bend
                                  if scaled > 0.0 and bend else None)
        return excess

    @staticmethod
    def eval(u: float) -> tuple[float, float, float]:
        s, s1 = sigmoid(u), sigmoid_slope(u)
        return s, s1, s1 * (1.0 - 2.0 * s)

    @staticmethod
    def _stationary_firsts(ac: float, u0: float) -> tuple[None, None]:
        """No first probes, so the symmetric roots keep their bits.  The
        stationary points are ``u = -+2*acosh(sqrt(ac)/2)`` in closed
        form, but a search started there ends elsewhere on excess's
        rounding plateau, an ulp or two away, and moves roots' last
        bits."""
        return None, None

    @staticmethod
    def _defect_probe(a: float, b: float):
        """``u -> (phi, phi')`` as :meth:`GFunction._defect_probe`."""
        def phi(u: float) -> tuple[float, float]:
            return u - b - a * sigmoid(u), 1.0 - a * sigmoid_slope(u)
        return phi


_LOGISTIC = _Logistic()


def _peak(a: float, curve) -> tuple[float, float, bool]:
    """``(u0, m, m > 1)``, m = a*c*shape(u0) at the curve's inflection u0:
    phi has its pair of stationary points exactly when m > 1."""
    u0 = curve.inflection()
    margin = a * curve.c * curve.slope_shape(u0)
    return u0, margin, margin > 1.0


def _is_double_root(u_s: float, a: float, b: float, curve) -> bool:
    """phi(u_s) is zero within its terms' rounding: at a stationary point
    u_s, the double root of u - b - a*curve(u)
    (:func:`numerics.rounds_to_zero`)."""
    return rounds_to_zero(u_s - b - a * curve.value(u_s), u_s, b, a)


def _extrema(a: float, b: float, curve) -> list[tuple[float, float, bool, float]]:
    """Stationary points of phi(u) = u - b - a*curve(u) inside the root
    bracket, left to right, as ``(u, phi(u), keeps, v)``, v Y's logit there.

    ``phi' = 1 - a*c*shape(u)`` and shape is single-peaked (at the curve's
    inflection), so phi has two stationary points (:func:`_peak`) or none
    and falls between them: a max, then a min.  Shape never exceeds the
    curve's ``shape_peak``, so with ``a*c*shape_peak <= 1`` there are none
    and the inflection is not solved; nor is it where Y's logit keeps one
    sign and the tail nearer 0 bounds shape below 1/(a*c) by more than
    the rounding of either (the curve's ``_pairless``), where
    :func:`_peak` would read no pair.  ``keeps`` says the value
    still separates a pair of roots: the max above zero, the min below.

    Each point is the sign change of ``excess = a*c*shape - 1`` on one
    side of the peak, found by :func:`numerics.bisect` with the Newton
    step on ln(a*c*shape), ``-ln(a*c*shape)*shape/bend`` (the curve's
    ``_excess_probe``, from the same curve evaluation; None where shape
    or bend is 0).  ln(a*c*shape) has the same zero and sign as excess,
    but falls only linearly in the tails, where shape falls like
    e^-|u| and excess lies flat at -1, so its Newton step stays the
    right length there.  excess is monotone on each bracket (rising up
    to the peak, falling after it), a step is taken only where it lands
    strictly inside the shrinking bracket, and each side is decided by
    the sign of excess alone, never by the step's, so the sign change is
    never lost and each point is excess's sign change at float
    resolution.  Each search starts from the curve's
    ``_stationary_firsts``, a probe like any other.
    """
    ac = a * curve.c
    if ac * curve.shape_peak <= 1.0 or curve._pairless(ac):
        return []
    u_peak, margin, paired = _peak(a, curve)
    if not paired:
        return []
    excess = curve._excess_probe(ac)
    # shape(u) <= sigma(u)*sigma(-u) < e^-|u|, so excess < 0 beyond span;
    # the ends are probed only where a*c overflowed and span is infinite
    span = math.log(ac) + 1.0
    left, right = ((-1.0, -1.0) if span < math.inf else
                   (excess(-span)[0], excess(span)[0]))
    top = margin - 1.0  # = excess(u_peak), the same float
    first_max, first_min = curve._stationary_firsts(ac, u_peak)
    u_max = bisect(excess, -span, u_peak, left, top, first_max)
    u_min = bisect(excess, u_peak, span, top, right, first_min)
    lo, hi = sorted((b, b + a))
    found = []
    for u, is_max in ((u_max, True), (u_min, False)):
        if lo < u < hi:
            v = curve._at(u)[2]
            phi = u - b - a * sigmoid(v)
            found.append((u, phi, phi > 0.0 if is_max else phi < 0.0, v))
    return found


def _solve_u_roots(a: float, b: float,
                   curve) -> tuple[list[float], list[bool]]:
    """All u-roots of phi(u) = u - b - a*curve(u), with tangency flags.

    ``curve`` is a :class:`GFunction`, or ``_LOGISTIC`` on the symmetric
    diagonal.  Roots are bracketed between the ends of [lo, hi] and the
    stationary points that still keep a pair (:func:`_extrema`).  A
    stationary value that has lost its pair is, within its own rounding
    (:func:`_is_double_root`), the double root: reported once, flagged.

    Each bracket is refined by :func:`numerics._refine_root` to ``|phi|
    <= target``, except where an end of [lo, hi] already meets that
    target: ``phi(b) = -a*g(b)`` and ``phi(b + a) = a*(1 - g(b + a))``
    are g's distance to its tails, so where the curve is saturated the
    end is the root, returned with no probe (of both ends, the one with
    the smaller |phi|, lo on a tie).  Stationary points are never taken
    so: a kept value within target bounds two brackets, which would both
    return it.
    """
    if a == 0.0:
        return [b], [False]

    phi = curve._defect_probe(a, b)
    lo, hi = (b, b + a) if a > 0.0 else (b + a, b)
    (flo, _), (fhi, _) = phi(lo), phi(hi)
    target = max(1e-15, min(5e-13, 5e-13 * abs(a)))
    d_lo, d_hi = abs(flo), abs(fhi)
    # Analytically phi(lo) < 0 < phi(hi) always (g stays inside (0,1));
    # restore the sign when saturation rounding has destroyed it, which
    # parks the root at the endpoint to float resolution.
    flo, fhi = min(flo, -5e-324), max(fhi, 5e-324)

    found: list[tuple[float, bool]] = []
    knots = [(lo, flo)]
    for u_s, phi_s, keeps, _ in _extrema(a, b, curve):
        if keeps:
            knots.append((u_s, phi_s))
        elif _is_double_root(u_s, a, b, curve):
            found.append((u_s, True))
    knots.append((hi, fhi))
    for (ua, va), (ub, vb) in zip(knots, knots[1:]):
        if (va > 0.0) != (vb > 0.0):
            # lo starts only the first bracket and hi ends only the last
            at_hi = ub == hi and d_hi <= target
            if ua == lo and d_lo <= target and not (at_hi and d_hi < d_lo):
                found.append((ua, False))
            else:
                found.append((ub if at_hi else
                              _refine_root(phi, ua, ub, va, vb, target), False))
    found.sort()
    return [u for u, _ in found], [flag for _, flag in found]


def _response_curve(coeffs: ReducedCoefficients) -> GFunction:
    """g for these coefficients, or :class:`DomainError` when an end of the
    root brackets, b + a or d + c, overflows."""
    if not (math.isfinite(coeffs.b + coeffs.a)
            and math.isfinite(coeffs.d + coeffs.c)):
        raise DomainError("coefficients too large: b + a or d + c overflows")
    return GFunction.of(coeffs, coeffs.ty)


def find_rest_points(coeffs: ReducedCoefficients,
                     fd_check: bool = True) -> list[RestPoint]:
    """All interior rest points at the given coefficients, sorted by u.

    Roots are bracketed on the monotone segments of the defect function
    (delimited by the at-most-two solutions of ``a*g'(u) = 1``), refined by
    safeguarded Newton to ``|u - b - a*g(u)| < ~1e-12*|a|``, and back-
    substituted through Y's logit v(u) of :class:`GFunction`.  A root at
    b or b + a, where g is saturated within that target, is the bracket's
    end itself, taken with no refinement (:func:`_solve_u_roots`; never a
    stationary point, which bounds two brackets).  The count is 1 or 3, or 2
    at a fold: a stationary value that just lost its pair of roots is the
    double root, returned once with ``degenerate_pair`` set, the only
    point so flagged.  Stability
    comes from the eigenvalue closed form on the two slopes, which each
    point reads, with x and y, from two exps.  With ``fd_check`` (turn off
    only in bulk counting) each point is also checked: it must meet its
    own equation, ``|a*sigma(v) + b - u| <= 1e-9*(1 + |a| + |b|)``, and its
    eigenvalues must match the complex-step Jacobian to 1e-6; otherwise
    :class:`NumericFailureError`.  Coefficients where b + a or d + c
    overflows raise :class:`DomainError`.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    curve = _response_curve(coeffs)
    roots, flags = _solve_u_roots(a, b, curve)
    bound = _RESIDUAL_BOUND * (1.0 + abs(a) + abs(b))
    points = []
    for u, degenerate in zip(roots, flags):
        x, x_neg, v = curve._at(u)
        e = math.exp(-v if v >= 0.0 else v)
        big, small = 1.0 / (1.0 + e), e / (1.0 + e)  # sigma(|v|), sigma(-|v|)
        y = big if v >= 0.0 else small
        lam1, lam2, rad = _eigenvalues(a, c, x * x_neg, big * small)
        residual = abs(a * y + b - u)
        if fd_check:
            if residual > bound:
                raise NumericFailureError(
                    f"rest point at u={u}, v={v} misses its equation by "
                    f"{residual:.3e}", residuals=residual)
            _check_eigenvalues(u, v, coeffs, (lam1, lam2))
        point = object.__new__(RestPoint)  # the fields, with no __init__
        vars(point).update(x=x, y=y, u=u, v=v, eigenvalues=(lam1, lam2),
                           stability=_classify(rad), residual=residual,
                           degenerate_pair=degenerate)
        points.append(point)
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
    a, b = _as_finite(a, "a"), _as_finite(b, "b")
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
    a = _as_finite(a, "slope a")
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
    gf = GFunction.of(coeffs, coeffs.ty)

    def logit_residual(u: float) -> float:
        shape = gf.slope_shape(u)
        return ac - 1.0 / shape if shape != 0.0 else -math.inf

    def strategy_residual(x: float, y: float) -> float:
        prod = x * (1.0 - x) * y * (1.0 - y)
        return ac - 1.0 / prod if prod != 0.0 else -math.inf

    return TangencyDiagnostics(ac=ac, bound_met=bool(ac >= 16.0),
                               logit_residual=logit_residual,
                               strategy_residual=strategy_residual)
