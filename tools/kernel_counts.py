"""Print the root kernel's curve evaluations per ``find_rest_points`` call.

A curve evaluation is one call of ``GFunction._at``, the one place that
forms Y's logit from X's.  There are two batches of 4000 games, each with
payoffs U[-3, 3] drawn from ``random.Random(3)``: warm, with (tx, ty)
log-uniform on [1e-3, 10], and cold, log-uniform on [1e-20, 1e-3].  The
points are not checked (``fd_check=False``), which evaluates no curve, so
no cold call raises.  The means are split by the number of rest points
found and by phase:

- inflection: inside ``GFunction.inflection``;
- stationary points: the rest of ``restpoints._extrema`` (the two
  stationary-point solves, the peak margin and Y's logit at each point);
- roots: inside ``numerics._refine_root``;
- other: the bracket ends and the back-substitution of each root.

The counts do not depend on the machine or its load, so they measure the
kernel's work exactly; run it as::

    PYTHONPATH=src python tools/kernel_counts.py
"""

from __future__ import annotations

import random
import sys
from collections import defaultdict

from boltzq import Game, Temperatures, find_rest_points, reduce_payoffs
from boltzq import restpoints

PHASES = ("inflection", "stationary points", "roots", "other")
GAMES = 4000
SEED = 3
#: log10 of the ends of the (tx, ty) range of each batch
WARM, COLD = (-3.0, 1.0), (-20.0, -3.0)


def batch(rng: random.Random, games: int = GAMES,
          log_t: tuple[float, float] = WARM):
    """The coefficients of the batch's games, in draw order."""
    for _ in range(games):
        payoffs = [[[rng.uniform(-3.0, 3.0) for _ in range(2)]
                    for _ in range(2)] for _ in range(2)]
        tx, ty = (10.0 ** rng.uniform(*log_t) for _ in range(2))
        yield reduce_payoffs(Game.from_matrices("g", *payoffs),
                             Temperatures(tx, ty))


def count(games: int = GAMES, seed: int = SEED,
          log_t: tuple[float, float] = WARM
          ) -> dict[int, tuple[int, dict[str, float]]]:
    """``{roots: (solves, {phase: mean evaluations per solve})}``.

    Each phase is the innermost of inflection, stationary points and roots
    that is running when ``_at`` is called; the kernel's functions are
    wrapped for the count and restored afterwards.
    """
    stack = ["other"]
    tally: dict[str, int] = defaultdict(int)

    def phase(name, fn):
        def wrapped(*args, **kwargs):
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapped

    at = restpoints.GFunction._at

    def counted_at(self, u):
        tally[stack[-1]] += 1
        return at(self, u)

    patches = [(restpoints.GFunction, "_at", counted_at),
               (restpoints.GFunction, "inflection",
                phase("inflection", restpoints.GFunction.inflection)),
               (restpoints, "_extrema",
                phase("stationary points", restpoints._extrema)),
               (restpoints, "_refine_root",
                phase("roots", restpoints._refine_root))]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    totals: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    solves: dict[int, int] = defaultdict(int)
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        for coeffs in batch(random.Random(seed), games, log_t):
            tally.clear()
            roots = len(find_rest_points(coeffs, fd_check=False))
            solves[roots] += 1
            for name, calls in tally.items():
                totals[roots][name] += calls
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
    return {roots: (n, {p: totals[roots][p] / n for p in PHASES})
            for roots, n in sorted(solves.items())}


def main() -> int:
    for name, log_t in (("warm", WARM), ("cold", COLD)):
        lo, hi = (10.0 ** t for t in log_t)
        print(f"{name}: tx, ty log-uniform on [{lo:g}, {hi:g}]\n")
        print(f"| solve | solves | {' | '.join(PHASES)} | total |")
        print("| --- " * (len(PHASES) + 3) + "|")
        for roots, (n, means) in count(log_t=log_t).items():
            cells = " | ".join(f"{means[p]:.1f}" for p in PHASES)
            print(f"| {roots}-root | {n} | {cells} | "
                  f"{sum(means.values()):.1f} |")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
