"""Small scalar numerics shared by the solvers.

Everything here is scalar and pure Python, so importing it loads no
numpy: the root finders call these functions millions of times on
scalars, where numpy dispatch overhead dominates the arithmetic, and the
rest-point, region and bifurcation layers never need an array.
:func:`geomspace` builds the log-spaced temperature grids of the sweeps.

Two bracketed solvers find a sign change, each stopping by its own rule:

- :func:`bisect` runs one loop, :func:`_close`, on ``probe(t) = (value,
  step, ...)``: it takes the Newton ``step`` where that lands inside the
  bracket and shrinks fast enough, and halves otherwise, creeping by ulps
  where the value is at its rounding; the sign of the value alone picks
  the side, and it stops at adjacent floats.  It serves g's inflection,
  the defect's stationary points, the dense-output stop of the
  integrator, and the folds, merges and closing temperatures of the
  bifurcation drivers, whose probes carry a +-1.0 side;
- :func:`_refine_root` takes Newton steps that land inside the bracket,
  with no guard, and halves otherwise, stopping at ``|f| <= target`` or
  once the bracket is 8 ulps of ``max(|lo|, |hi|, 1)`` wide.

Whether a computed sum is zero is decided once, by :func:`rounds_to_zero`:
within its terms' rounding, with no absolute threshold.

The scalar argument rules live here, each written once and raising
:class:`DomainError`, and every entry point checks through them:
:func:`_as_float` (a number), :func:`_as_finite`,
:func:`_require_temperature` (finite and > 0), :func:`_as_count` (a
whole number of at least 0, 1 or 2), :func:`_as_pair` (a point of two
coordinates), :func:`_require_interior` (a pair inside the unit square)
and :func:`_require_learning_rate` (in (0, 1]).
The vector rule, ``_as_vector`` (a non-empty 1-d vector of finite
floats, of a given length), and the simplex check stay in
:mod:`boltzq.dynamics`, since this module loads no numpy.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError


def _as_float(value, what: str) -> float:
    """``float(value)``, so that numpy scalars become Python floats, or
    :class:`DomainError` where ``float`` refuses the value, or where it
    is an integer too large for a float."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be a number, got {value!r}") from exc


def _as_finite(value, what: str) -> float:
    """:func:`_as_float` of a value that must also be finite."""
    value = _as_float(value, what)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value}")
    return value


def _require_temperature(temp) -> float:
    """The one exploration-rate check: a number, finite and strictly
    positive; returns it as a Python float."""
    temp = _as_float(temp, "temperature")
    if not (temp > 0.0 and math.isfinite(temp)):
        raise DomainError(f"temperature must be finite and > 0, got {temp}")
    return temp


def _require_learning_rate(alpha) -> float:
    """The one learning-rate check: a number in (0, 1]; returns it as a
    Python float."""
    alpha = _as_float(alpha, "alpha")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    return alpha


def _as_count(value, what: str, least: int = 1) -> int:
    """A whole number (any ``numbers.Integral`` but a ``bool``, so numpy
    integers too) of at least ``least``, as an int."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{what} must be a whole number, got {value!r}")
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {value!r}")
    return int(value)


def _as_pair(point, name: str = "a point") -> tuple:
    """The two items of a pair (a point's coordinates), unconverted, or
    :class:`DomainError` where ``point`` does not unpack into two."""
    try:
        first, second = point
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} is a pair, got {point!r}") from exc
    return first, second


def _require_interior(point) -> tuple[float, float]:
    """``(x, y)`` of a point strictly inside the unit square, as floats."""
    x, y = _as_pair(point)
    x, y = _as_float(x, "x"), _as_float(y, "y")
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError(f"point ({x}, {y}) is not interior to the unit square")
    return x, y


def sigmoid(z: float) -> float:
    """Logistic function 1/(1+e^-z), overflow-safe for any finite z."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def logit(p: float) -> float:
    """Inverse of :func:`sigmoid`; requires 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires p in (0,1), got {p}")
    return math.log(p / (1.0 - p))


def sigmoid_slope(u: float) -> float:
    """sigma(u)*(1-sigma(u)), computed as sigma(u)*sigma(-u) to avoid the
    catastrophic cancellation of ``1 - sigma(u)`` for large u."""
    return sigmoid(u) * sigmoid(-u)


#: 8 ulp(1) = 2^-49: a few roundings of each term of a sum
_ROUNDING = 8.0 * math.ulp(1.0)


def rounds_to_zero(total: float, *terms: float) -> bool:
    """A sum is zero within its terms' rounding: ``|total| <= 8 ulp(1) *
    sum(|term|)``.  Scaling every term by a power of two scales both sides
    exactly, so the answer holds at every scale.  Each term is scaled
    before the sum, the same float as scaling the sum wherever the scaled
    terms are normal, so the bound never overflows: an infinite total is
    never zero."""
    bound = 0.0
    for term in terms:
        bound += _ROUNDING * abs(term)
    return abs(total) <= bound


def _log10(x: float) -> float:
    """log10 rounded correctly, as numpy's nearly always is; ``math.log10``
    is an ulp off for about one x in seven between 0.1 and 10.  Only
    :func:`geomspace` needs it, so ``decimal`` loads with it."""
    from decimal import Context, Decimal
    # 40 digits, so that rounding a decimal log10 to float is correct but
    # for ties nearer than 1e-40
    return float(Context(prec=40).log10(Decimal(x)))


def geomspace(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi evenly spaced in log10, by numpy.geomspace's
    formula: the ends exactly, ``10.0 ** (k*step + log10(lo))`` between,
    ``[lo]`` for n = 1; hi < lo gives a descending grid.  Interior points
    may differ from numpy's by an ulp, where numpy's vector ``power``
    rounds otherwise than ``math.pow``.  The grids are temperature grids,
    so an end that is not a temperature (:func:`_require_temperature`)
    raises :class:`DomainError`, as does an n that is not a whole number
    >= 1 (:func:`_as_count`)."""
    lo, hi = _require_temperature(lo), _require_temperature(hi)
    n = _as_count(n, "n")
    if n == 1:
        return [lo]
    start = _log10(lo)
    step = (_log10(hi) - start) / (n - 1)
    return [lo] + [10.0 ** (k * step + start) for k in range(1, n - 1)] + [hi]


#: the most probes one bracket search makes (:func:`_close`)
_BISECT_STEPS = 2200


def bisect(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A sign change of ``f(u) = (value, step, ...)`` on [lo, hi], given
    the values at the ends, to float resolution (:func:`_close`): the
    midpoint of the final bracket, or a point where the value is 0."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    lo, _, hi, _ = _close(f, lo, (f_lo, None), hi, (f_hi, None))
    return 0.5 * (lo + hi)


def _close(probe, a, p_a, b, p_b):
    """The adjacent floats ``t_a, p_a, t_b, p_b`` across which the sign
    of ``probe(t) = (value, step, ...)`` changes, each with its probe
    result, from one bracket end ``a, p_a = probe(a)`` on each side, given
    in either order and returned in that order; ``u, p, u, p`` if a probe
    p at u has value 0.  A zero end value counts as negative; ends of one
    sign raise ValueError.

    ``step`` is a Newton step toward a zero of the value, or None.  The
    first probe is the step from the end with the shorter one (the
    midpoint if neither has one), each later one the step from the latest
    probe where it lands strictly inside the bracket, else the midpoint.
    Two guards keep the steps from crawling where the slope is no guide:

    - a step longer than half the probe's move before last is dropped for
      the midpoint, so a run of steps at least halves its moves every
      other probe;
    - a step that no longer moves the probe means the sign change is an
      ulp or two away or the value is at its rounding, which can hold over
      several floats: it probes 1, 2, 4, ... ulps toward the other end
      instead.

    A side is decided by the sign of the value alone and the loop stops
    only where the midpoint equals an end or at a zero, so the answer is a
    sign change at float resolution whatever the steps.  The cap of 2200 probes is a
    backstop, not a stop rule: halving alone closes any bracket of finite
    floats in 2099 probes (2^1025 wide down to an ulp of 2^-1074), and a
    run of steps ends, by a halving, a creep or the stop, within twice
    the halvings from its first move down to an ulp.  Brackets that span
    few binades close in tens of probes (the root kernel's, a grid
    cell's); a grid cell spanning 10^300 takes about a thousand, mostly
    halvings.
    """
    lo, p_lo, hi, p_hi = (a, p_a, b, p_b) if a < b else (b, p_b, a, p_a)
    rising = p_hi[0] > 0.0
    if (p_lo[0] > 0.0) == rising:
        raise ValueError("a bracket needs a sign change")
    u, step = a, p_a[1]
    if p_b[1] is not None and (step is None or abs(p_b[1]) < abs(step)):
        u, step = b, p_b[1]
    elif step is None:
        u = None  # the first probe is the midpoint, with no probe before
    moved = before = hi - lo  # the probe's last move and the one before
    creep = 0.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * lo + 0.5 * hi  # = 0.5*(lo + hi), without overflowing
        if mid <= lo or mid >= hi:
            break
        if step is None:
            creep, new = 0.0, mid
        else:
            new = u + step
            if new == u:
                creep = 2.0 * creep or 1.0
                new = u + math.copysign(creep * math.ulp(u),
                                        (hi if u == lo else lo) - u)
            else:
                creep = 0.0
                if abs(step) > 0.5 * before:
                    new = mid
            if not lo < new < hi:
                new = mid
        if u is not None:
            before, moved = moved, abs(new - u)
        u = new
        p = probe(u)
        value = p[0]
        if value == 0.0:
            return u, p, u, p
        if (value > 0.0) == rising:
            hi, p_hi = u, p
        else:
            lo, p_lo = u, p
        step = p[1]
    return (lo, p_lo, hi, p_hi) if a < b else (hi, p_hi, lo, p_lo)


def _refine_root(f, lo: float, hi: float, flo: float, fhi: float,
                 target: float) -> float:
    """Bracketed Newton with bisection fallback on ``f(u) = (value,
    slope)``; converges to |value| <= target or to the bracket's float
    resolution, which 2100 halvings reach from any finite bracket
    (2^1024 / 2^-1074).  At float resolution, where rounding noise can
    keep |value| above target, it returns the end with the smaller
    |value|."""
    u = 0.5 * lo + 0.5 * hi  # = 0.5*(lo + hi), without overflowing
    fu, slope = f(u)
    for _ in range(2100):
        if abs(fu) <= target:
            return u
        if (fu > 0.0) == (fhi > 0.0):
            hi, fhi = u, fu
        else:
            lo, flo = u, fu
        if hi - lo <= 8.0 * math.ulp(max(abs(lo), abs(hi), 1.0)):
            return lo if abs(flo) <= abs(fhi) else hi
        t = u - fu / slope if slope != 0.0 else lo  # Newton, where inside
        u = t if lo < t < hi else 0.5 * lo + 0.5 * hi
        fu, slope = f(u)
    return u
