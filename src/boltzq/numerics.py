"""Small scalar numerics shared by the solvers.

Everything here is scalar and pure Python, so importing it loads no
numpy: the root finders call these functions millions of times on
scalars, where numpy dispatch overhead dominates the arithmetic, and the
rest-point, region and bifurcation layers never need an array.
:func:`geomspace` builds the log-spaced temperature grids of the sweeps.

Three bracketed solvers find a sign change, each stopping by its own rule:

- :func:`bisect` closes the bracket until the midpoint equals an end
  (float resolution; at most 200 probes) and returns the final midpoint.
  Given a slope it takes the Newton steps of the other two where they
  land inside the bracket and shrink fast enough, and halves otherwise;
  its stop rule and its sides, decided by the sign of the value alone,
  stay those of plain halving;
- :func:`_refine_root` takes Newton steps that land inside the bracket and
  halves otherwise, stopping at ``|f| <= target`` or once the bracket is 8
  ulps of ``max(|lo|, |hi|, 1)`` wide;
- :func:`_flip` takes the same steps on a side test and stops at adjacent
  floats, creeping by ulps where the stepped function is at its rounding.

Whether a computed sum is zero is decided once, by :func:`rounds_to_zero`:
within its terms' rounding, with no absolute threshold.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal

from .errors import DomainError


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


#: 40 digits, so that rounding a decimal log10 to float is correct but
#: for ties nearer than 1e-40
_LOG10_CONTEXT = Context(prec=40)


def _log10(x: float) -> float:
    """log10 rounded correctly, as numpy's nearly always is; ``math.log10``
    is an ulp off for about one x in seven between 0.1 and 10."""
    return float(_LOG10_CONTEXT.log10(Decimal(x)))


def geomspace(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi evenly spaced in log10, by numpy.geomspace's
    formula: the ends exactly, ``10.0 ** (k*step + log10(lo))`` between,
    ``[lo]`` for n = 1; hi < lo gives a descending grid.  Interior points
    may differ from numpy's by an ulp, where numpy's vector ``power``
    rounds otherwise than ``math.pow``.  The grids are temperature grids,
    so an end that is not finite and > 0 raises :class:`DomainError`."""
    for end in (lo, hi):
        if not (end > 0.0 and math.isfinite(end)):
            raise DomainError(
                f"temperature must be finite and > 0, got {end} as a grid end")
    if n < 1:
        raise DomainError(f"a grid needs n >= 1 points, got {n}")
    if n == 1:
        return [float(lo)]
    start = _log10(lo)
    step = (_log10(hi) - start) / (n - 1)
    return ([float(lo)] + [10.0 ** (k * step + start) for k in range(1, n - 1)]
            + [float(hi)])


#: the most halvings one bisection makes
_BISECT_STEPS = 200


def bisect(f, lo: float, hi: float, f_lo: float, f_hi: float, *,
           newton: bool = False) -> float:
    """Bisection on a bracketed sign change, down to float resolution;
    returns the midpoint of the final bracket, or a probe where f is 0.

    With ``newton``, ``f(u)`` returns ``(value, slope)`` (``f_lo`` and
    ``f_hi`` are still values), the first probe is the midpoint and each
    later one is the Newton step from the latest probe where that lands
    strictly inside the bracket, else the midpoint (:func:`_newton_or_halve`).
    Two guards keep the steps from crawling where the slope is no guide:

    - a step longer than half the probe's move before last is dropped for
      the midpoint, so the bracket at least halves every other probe;
    - a step that no longer moves the probe means the sign change is an
      ulp or two away or f is at its rounding: it probes 1, 2, 4, ... ulps
      toward the other end instead, as :func:`_flip` does.

    A side is decided by the sign of the value alone and the loop stops
    only where the midpoint equals an end, as without ``newton``, so the
    answer is still a sign change of f at float resolution; only the
    probes that reach it are fewer.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("bisect requires a sign change on [lo, hi]")
    rising = f_hi > 0.0
    u = step = None
    moved = before = hi - lo  # the probe's last move and the one before
    creep = 0.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if step is not None and u + step == u:
            creep = 2.0 * creep or 1.0
            step = math.copysign(creep * math.ulp(u),
                                 (hi if u == lo else lo) - u)
        else:
            creep = 0.0
            if step is not None and abs(step) > 0.5 * before:
                step = None
        new = mid if step is None else _newton_or_halve(u, step, lo, hi)
        if u is not None:
            before, moved = moved, abs(new - u)
        u = new
        if newton:
            f_u, slope = f(u)
            step = -f_u / slope if slope != 0.0 else None
        else:
            f_u = f(u)
        if f_u == 0.0:
            return u
        if (f_u > 0.0) == rising:
            hi = u
        else:
            lo = u
    return 0.5 * (lo + hi)


def _newton_or_halve(u: float, step, lo: float, hi: float) -> float:
    """The step of :func:`_refine_root` and :func:`_flip`: ``u + step``
    when that lands strictly inside (lo, hi), else the midpoint (also when
    step is None)."""
    if step is not None and lo < u + step < hi:
        return u + step
    return 0.5 * lo + 0.5 * hi  # = 0.5*(lo + hi), without overflowing


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
        u = _newton_or_halve(u, -fu / slope if slope != 0.0 else None, lo, hi)
        fu, slope = f(u)
    return u


def _flip(probe, end_in, end_out):
    """The adjacent floats ``(t_in, info), (t_out, info)`` across which
    ``probe(t) = (inside, step, info)`` turns from inside to outside, from
    one bracket end ``(t, probe(t))`` on each side.

    ``step`` is the Newton step of a smooth function whose sign marks the
    side, or None.  It is taken from the latest probe by the rule of
    :func:`_refine_root` (halve unless it lands inside the bracket).  A
    step below an ulp means that function is at its rounding, which can
    hold over several floats: it probes 1, 2, 4, ... ulps toward the other
    end instead, doubling while the side stays the same.
    """
    (t_in, p_in), (t_out, p_out) = end_in, end_out
    steps = [(abs(p[1]), t, p[1]) for t, p in (end_in, end_out)
             if p[1] is not None]
    _, t, step = min(steps) if steps else (0.0, t_in, None)
    creep = 0.0
    while math.nextafter(t_in, t_out) != t_out:
        lo, hi = sorted((t_in, t_out))
        was_in = t == t_in
        if step is not None and t + step == t:
            creep = 2.0 * creep or 1.0
            step = math.copysign(creep * math.ulp(t),
                                 (t_out if was_in else t_in) - t)
        else:
            creep = 0.0
        t = _newton_or_halve(t, step, lo, hi)
        found = probe(t)
        if found[0]:
            t_in, p_in = t, found
        else:
            t_out, p_out = t, found
        if found[0] != was_in:
            creep = 0.0
        step = found[1]
    return (t_in, p_in[2]), (t_out, p_out[2])
