"""Output checks that do not reuse the code being timed.

Each check returns a list of failure reasons; an empty list accepts the
output.  Checks never raise on a bad answer, so one failed op is counted
and the run goes on.  The arithmetic here is the benchmark's own (math and
numpy); where a check needs the library, as the fold check does, it uses a
different public entry point from the one under test.
"""

from __future__ import annotations

import math

import numpy as np

#: rest-point residual |u - b - a*sigma(v)|, relative to 1 + |a| + |b|.  The
#: solver refines to ~5e-13 relative; 1e-9 leaves room for rounding only.
RESIDUAL_TOL = 1e-9
#: grid points of the dense sign scan along u = b + a*w, w in (0, 1)
SCAN_POINTS = 20_001
#: an integrate endpoint must lie this close (max-norm in x, y) to a rest point
ENDPOINT_TOL = 1e-6
#: relative offset on each side of a critical temperature for the fold check
FOLD_OFFSET = 1e-7
#: accuracy that the sweep's docstring promises for critical temperatures
TC_REL_TOL = 1e-8
#: largest accepted gap between the simulated final policy and the ODE endpoint
SIM_GAP_TOL = 0.05


def sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def raw_coefficients(A, B) -> tuple[float, float, float, float]:
    """Temperature-free (a, b, c, d) of a 2x2 game, row = own action."""
    return (-(A[1][0] + A[0][1] - A[0][0] - A[1][1]), A[0][1] - A[1][1],
            -(B[1][0] + B[0][1] - B[0][0] - B[1][1]), B[0][1] - B[1][1])


def region_label(A, B) -> str:
    """The rest-point region of a game from its ratios (b/a, d/c).

    Written from the region definitions (opposite slopes, open unit box,
    four stripes, two corner quadrants), not from the library's code.
    """
    raw_a, raw_b, raw_c, raw_d = raw_coefficients(A, B)
    if raw_a * raw_c < 0.0:
        return "SingleRestPointOnly"
    beta, delta = raw_b / raw_a, raw_d / raw_c
    if raw_a < 0.0:
        delta = -1.0 - delta
    if -1.0 < beta < 0.0 and -1.0 < delta < 0.0:
        return "MultiNE_TriplePossible"
    if ((beta >= 0.0 and -1.0 < delta < -0.5)
            or (beta <= -1.0 and -0.5 < delta < 0.0)
            or (delta >= 0.0 and -1.0 < beta < -0.5)
            or (delta <= -1.0 and -0.5 < beta < 0.0)):
        return "SingleNE_TriplePossible"
    if (beta >= 0.0 and delta <= -1.0) or (beta <= -1.0 and delta >= 0.0):
        return "NumericBoundary"
    return "SingleRestPointOnly"


def _np_sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # no overflow for any finite z


def scan_brackets(a: float, b: float, c: float, d: float) -> list[tuple[float, float]]:
    """Sign changes of h(w) = w - sigma(d + c*sigma(b + a*w)) on a dense w grid.

    A rest point has u = b + a*w with w = sigma(v) in (0, 1), so every
    bracket holds at least one rest point.  Roots closer than one cell can
    share a bracket or cancel, so the scan gives a lower bound only.
    """
    w = (np.arange(SCAN_POINTS, dtype=float) + 0.5) / SCAN_POINTS
    h = w - _np_sigmoid(d + c * _np_sigmoid(b + a * w))
    neg = np.signbit(h)
    idx = np.flatnonzero(neg[1:] != neg[:-1])
    return [(float(w[i]), float(w[i + 1])) for i in idx]


def restpoint_failures(coeffs, points, scan: bool) -> list[str]:
    """Count rule, logit residual and (optionally) the dense-scan check."""
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    failures = []
    n = len(points)
    if not (n in (1, 3) or (n == 2 and any(p.degenerate_pair for p in points))):
        failures.append(f"count:{n}")
    for p in points:
        r_u = abs(p.u - b - a * sigmoid(p.v)) / (1.0 + abs(a) + abs(b))
        r_v = abs(p.v - d - c * sigmoid(p.u)) / (1.0 + abs(c) + abs(d))
        if not max(r_u, r_v) <= RESIDUAL_TOL:
            failures.append("residual")
            break
    if scan:
        ws = [sigmoid(p.v) for p in points]
        brackets = scan_brackets(a, b, c, d)
        if len(brackets) > n:
            failures.append(f"scan_count:{len(brackets)}>{n}")
        cell = 1.0 / SCAN_POINTS
        for lo, hi in brackets:
            if not any(lo - cell <= w <= hi + cell for w in ws):
                failures.append("scan_missed_root")
                break
    return failures


def endpoint_failures(final, reason: str, rest_points, diagonal: bool) -> list[str]:
    """An integrate endpoint: converged, on a rest point, and for a diagonal
    start in a symmetric game on the diagonal rest point it must reach."""
    failures = []
    if reason != "converged":
        failures.append(f"terminal:{reason}")
    x, y = final
    near = [p for p in rest_points
            if max(abs(x - p.x), abs(y - p.y)) <= ENDPOINT_TOL]
    if not near:
        failures.append("endpoint_off_rest_point")
    if diagonal and not (abs(x - y) <= 1e-9
                         and any(abs(p.x - p.y) <= 1e-9 for p in near)):
        failures.append("diagonal_left")
    return failures


def fold_failures(temps, count_at) -> list[str]:
    """At each critical temperature T the count is 3 on one side, 1 on the other.

    In three-equilibrium games the side below T has the three; games with
    one equilibrium and unequal raw slopes can also meet a window of three
    on the diagonal, entering it from below.  ``count_at(T)`` returns the
    number of rest points at tx = ty = T; a raise counts as a failure.
    """
    failures = []
    for t_c in temps:
        try:
            below = count_at(t_c * (1.0 - FOLD_OFFSET))
            above = count_at(t_c * (1.0 + FOLD_OFFSET))
        except Exception as exc:  # any raise on valid input is a failure
            failures.append(f"fold_raised:{type(exc).__name__}")
            continue
        if {below, above} != {1, 3}:
            failures.append(f"fold:{below}/{above}")
    return failures


def pitchfork_temperature() -> float:
    """Closed-form continuous pitchfork of hawk_dove and battle_coordination.

    With |raw slope| 3 on both players, the symmetric rest point loses
    stability where T = 3*sigma'(u) and 3*u*sigma'(u) + 3*sigma(u) = 1; the
    left side rises from -1 to 1/2 on u < 0, so bisection finds its root.
    """
    def f(u: float) -> float:
        s = sigmoid(u)
        return 3.0 * u * s * (1.0 - s) + 3.0 * s - 1.0

    lo, hi = -10.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s = sigmoid(0.5 * (lo + hi))
    return 3.0 * s * (1.0 - s)


def tc_failures(temps, t_exact: float) -> list[str]:
    if not temps:
        return ["tc_missing"]
    err = abs(max(temps) - t_exact) / t_exact
    return [] if err <= TC_REL_TOL else [f"tc_rel_err:{err:.1e}"]


def sim_gap(final_x: float, final_y: float, endpoint) -> float:
    return max(abs(final_x - endpoint[0]), abs(final_y - endpoint[1]))
