"""Small scalar numerics shared by the solvers.

The scalar functions are written against ``math`` rather than numpy: the
root finders call them millions of times on scalars, where numpy dispatch
overhead dominates the actual arithmetic.  :func:`softmax` is the one
vector helper.
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
