"""Small scalar numerics shared by the solvers.

The scalar functions are written against ``math`` rather than numpy: the
root finders call them millions of times on scalars, where numpy dispatch
overhead dominates the actual arithmetic.  :func:`sigmoid_array` and
:func:`softmax` are the vector helpers.

Three bracketed solvers find a sign change, each stopping by its own rule:

- :func:`bisect` halves until the midpoint equals an end (float
  resolution; at most 200 halvings) and returns the final midpoint;
- :func:`_refine_root` takes Newton steps that land inside the bracket and
  halves otherwise, stopping at ``|f| <= target`` or once the bracket is 8
  ulps of ``max(|lo|, |hi|, 1)`` wide;
- :func:`_flip` takes the same steps on a side test and stops at adjacent
  floats, creeping by ulps where the stepped function is at its rounding.
"""

from __future__ import annotations

import math

import numpy as np


def sigmoid(z: float) -> float:
    """Logistic function 1/(1+e^-z), overflow-safe for any finite z."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Elementwise :func:`sigmoid` by the same two-branch formula: the
    numerator ``exp(min(z, 0))`` is 1 for z >= 0 and ``exp(-|z|)`` below,
    over ``1 + exp(-|z|)``.  So it rounds like the scalar version, up to
    the ulp by which numpy's exp may differ from ``math.exp``, and never
    to 0 for finite z above -745."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def logit(p: float) -> float:
    """Inverse of :func:`sigmoid`; requires 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires p in (0,1), got {p}")
    return math.log(p / (1.0 - p))


def sigmoid_slope(u: float) -> float:
    """sigma(u)*(1-sigma(u)), computed as sigma(u)*sigma(-u) to avoid the
    catastrophic cancellation of ``1 - sigma(u)`` for large u."""
    return sigmoid(u) * sigmoid(-u)


def softmax(z: np.ndarray) -> np.ndarray:
    """exp(z) / sum(exp(z)), shifted by max(z) so no term overflows."""
    e = np.exp(z - z.max())
    return e / e.sum()


#: the most halvings one bisection makes
_BISECT_STEPS = 200


def bisect(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Plain bisection on a bracketed sign change, down to float
    resolution; returns the midpoint of the final bracket."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("bisect requires a sign change on [lo, hi]")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
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
