"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own solvers: root counting is done
by dense sign-change scans, so solver results are checked against an
independent path.
"""

import math

import numpy as np
import pytest
from scipy.special import expit


def scan_u_roots(a, b, c, d, n=200_000):
    """Bracketing intervals for all roots of u - b - a*g(u), by sign scan.

    Returns an array of bracket midpoints.  The roots all lie where the
    line (u-b)/a takes values in (0, 1), i.e. u between b and b+a.
    """
    lo, hi = sorted((b, b + a))
    u = np.linspace(lo, hi, n)
    g = expit(d + c * expit(u))
    phi = u - b - a * g
    sign = np.signbit(phi)
    flips = np.nonzero(sign[1:] != sign[:-1])[0]
    return 0.5 * (u[flips] + u[flips + 1])


def scan_symmetric_count(a, b, n=1_000_000):
    """Number of roots of a*x + b = ln(x/(1-x)) on (0,1), by sign scan.

    Scanned as ln(x/(1-x)) - a*x - b, whose log-odds term diverges at the
    ends, so roots exponentially close to a boundary still flip the sign
    within the grid.
    """
    x = (np.arange(n, dtype=float) + 0.5) / n
    f = np.log(x) - np.log1p(-x) - a * x - b
    sign = np.signbit(f)
    return int(np.count_nonzero(sign[1:] != sign[:-1]))


def sign_change_at(f, u):
    """f is 0 at u, or changes sign between u and a float neighbour: u is
    a sign change of f, as computed, at float resolution."""
    fu = f(u)
    return fu == 0.0 or any(
        (fn > 0.0 > fu) or (fn < 0.0 < fu)
        for fn in map(f, (math.nextafter(u, -math.inf),
                          math.nextafter(u, math.inf))))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
