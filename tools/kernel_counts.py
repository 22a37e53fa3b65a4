"""Print the root kernel's curve evaluations per ``find_rest_points`` call,
and the bifurcation drivers' probes per bracket search.

A curve evaluation is one call of ``GFunction._at``, the one place that
forms Y's logit from X's, or one call of a probe that forms it inline in
its own frame (``GFunction._defect_probe``, the defect's probe,
``GFunction.eval``, ``GFunction._inflection_probe`` and
``GFunction._excess_probe``).  There are two batches of 4000 games, each
with payoffs U[-3, 3] drawn from ``random.Random(3)``: warm, with (tx, ty)
log-uniform on [1e-3, 10], and cold, log-uniform on [1e-20, 1e-3].  The
points are not checked (``fd_check=False``), which evaluates no curve, so
no cold call raises.  The means are split by the number of rest points
found and by phase:

- inflection: inside ``GFunction.inflection``;
- stationary points: the rest of ``restpoints._extrema`` (the two
  stationary-point solves, the peak margin and Y's logit at each point);
- roots: inside ``numerics._refine_root``;
- other: the bracket ends and the back-substitution of each root.

A second table counts the calls of ``math.exp`` and ``cmath.exp`` per
``find_rest_points`` call on the same two batches, with ``fd_check`` off
and on, split by the number of rest points found (with it off; a checked
call that raises is counted up to its raise, and the raises are listed).
Each point reads x, sigma'(u), y and sigma'(v) from two exps, and its
complex-step check adds two ``cmath.exp``.

The bifurcation table counts the probes that each bracket search makes
(each call of ``numerics.bisect``, or of the loop ``numerics._close``
outside it), after the ends it is given, on the
fixtures and 40 seeded games with three rest points possible (payoffs
U[-3, 3] from ``random.Random(3)``): ``sweep_equal_temperature`` (40
steps on [s/200, 2s], s = sqrt|raw_a*raw_c|/4),
``equal_temperature_criticals``, ``classify_pitchfork`` and
``critical_curve`` (8 values of ty on [1e-3, 2]), as the benchmark's
bifurcation scan runs them, and of ``classify_region`` on 300 seeded
games in its ``NumericBoundary`` corners (payoffs U[-3, 3] from
``random.Random(3)``).  A search is named by the function that starts
it: g's inflection, a stationary point of the defect, a window end of
the critical curve, a fold, a merge of the stationary pair or a closing
temperature, or the corner bound.

The diagonal-walk row counts the grid points that
``equal_temperature_criticals`` and ``classify_pitchfork`` walk on the
same games (``bifurcation._diagonal_cells``), the share of them whose
three rest points the two-probe witness proved (``bifurcation._witness``)
with no stationary point solved, and the curve evaluations per point of
the walk itself: each point's witness or stationary solve, and the solve
of each cell end (the folds solved from the cells are not counted).

The integrator table counts the work of ``integrate`` over the 48
portrait cases (every fixture at T = 0.05 and 0.5, from the four starts
with x, y in {1/3, 2/3}): samples, right-hand-side evaluations
(``nfev``) and rejected steps per trajectory, and the garbage
collections that each run starts at gc's default thresholds, counted by
a ``gc.callbacks`` hook after a ``gc.collect()``.

The counts do not depend on the machine or its load, so they measure the
kernel's work exactly; run it as::

    PYTHONPATH=src python tools/kernel_counts.py
"""

from __future__ import annotations

import cmath
import gc
import math
import random
import sys
from collections import defaultdict
from contextlib import contextmanager

from boltzq import (BoltzqError, Game, GameRegionLabel, Temperatures,
                    classify_pitchfork, classify_region, critical_curve,
                    equal_temperature_criticals, find_rest_points,
                    fixture, integrate, reduce_payoffs,
                    sweep_equal_temperature)
from boltzq import bifurcation, numerics, restpoints
from boltzq.fixtures import FIXTURES

PHASES = ("inflection", "stationary points", "roots", "other")
#: the exp table's columns: each exp, with fd_check off and on
EXP_COLUMNS = ("math off", "cmath off", "math on", "cmath on")
GAMES = 4000
SEED = 3
#: log10 of the ends of the (tx, ty) range of each batch
WARM, COLD = (-3.0, 1.0), (-20.0, -3.0)
#: the bracket searches of the bifurcation table, keyed by the function
#: that starts each one (through ``numerics.bisect`` or ``_close``,
#: directly or from a helper)
SEARCHES = {"inflection": "inflection", "_extrema": "stationary point",
            "_window_ends": "window end", "_fold": "fold",
            "_merge": "merge/closing", "critical_curve": "merge/closing",
            "_lowest_intercept": "corner bound"}
BIFURCATION_GAMES = 40
CORNER_GAMES = 300
#: the functions of the diagonal walk that decide a grid point
WALK = ("_descent", "_diagonal_cells", "end")
#: the temperatures and starts of the integrator table's portrait cases
PORTRAIT_TEMPS = (0.05, 0.5)
PORTRAIT_STARTS = tuple((x, y) for x in (1 / 3, 2 / 3) for y in (1 / 3, 2 / 3))


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

    def evaluated() -> None:
        tally[stack[-1]] += 1

    patches = [*evaluation_patches(evaluated),
               (restpoints.GFunction, "inflection",
                phase("inflection", restpoints.GFunction.inflection)),
               (restpoints, "_extrema",
                phase("stationary points", restpoints._extrema)),
               (restpoints, "_refine_root",
                phase("roots", restpoints._refine_root))]
    totals: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    solves: dict[int, int] = defaultdict(int)
    with patched(patches):
        for coeffs in batch(random.Random(seed), games, log_t):
            tally.clear()
            roots = len(find_rest_points(coeffs, fd_check=False))
            solves[roots] += 1
            for name, calls in tally.items():
                totals[roots][name] += calls
    return {roots: (n, {p: totals[roots][p] / n for p in PHASES})
            for roots, n in sorted(solves.items())}


def exp_counts(games: int = GAMES, seed: int = SEED,
               log_t: tuple[float, float] = WARM
               ) -> dict[int, tuple[int, int, dict[str, float]]]:
    """``{roots: (solves, raised, {column: mean calls per call})}``: the
    calls of ``math.exp`` and ``cmath.exp`` in ``find_rest_points`` with
    ``fd_check`` off and on (columns ``"math off"``, ``"cmath off"``,
    ``"math on"`` and ``"cmath on"``), keyed by the roots found with it
    off, and the checked calls that raised.  Both functions are wrapped
    in their modules for the count, after the batch is drawn, and
    restored afterwards."""
    calls: dict[str, int] = defaultdict(int)

    def counted(name, fn):
        def wrapped(z):
            calls[name] += 1
            return fn(z)
        return wrapped

    def tally(side: str) -> None:
        for name in ("math", "cmath"):
            totals[roots][f"{name} {side}"] += calls[name]
        calls.clear()

    totals: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    solves: dict[int, int] = defaultdict(int)
    raised: dict[int, int] = defaultdict(int)
    inputs = list(batch(random.Random(seed), games, log_t))
    with patched([(math, "exp", counted("math", math.exp)),
                  (cmath, "exp", counted("cmath", cmath.exp))]):
        for coeffs in inputs:
            roots = len(find_rest_points(coeffs, fd_check=False))
            solves[roots] += 1
            tally("off")
            try:
                find_rest_points(coeffs, fd_check=True)
            except BoltzqError:
                raised[roots] += 1
            tally("on")
    return {roots: (n, raised[roots], {c: totals[roots][c] / n
                                       for c in EXP_COLUMNS})
            for roots, n in sorted(solves.items())}


def evaluation_patches(evaluated) -> list:
    """``(owner, name, value)`` patches that call ``evaluated()`` at each
    curve evaluation (``GFunction._at`` and ``eval``, and each call of a
    probe built by ``_defect_probe``, ``_inflection_probe`` or
    ``_excess_probe``)."""
    def counted_method(method):
        def counted(self, u):
            evaluated()
            return method(self, u)
        return counted

    def counted_probe(build):
        def built(*args):
            probe = build(*args)

            def counted(u):
                evaluated()
                return probe(u)
            return counted
        return built

    gf = restpoints.GFunction
    return [(gf, "_at", counted_method(gf._at)),
            (gf, "eval", counted_method(gf.eval)),
            (gf, "_defect_probe", counted_probe(gf._defect_probe)),
            (gf, "_inflection_probe", counted_probe(gf._inflection_probe)),
            (gf, "_excess_probe", counted_probe(gf._excess_probe))]


@contextmanager
def patched(patches: list):
    """Set each ``(owner, name, value)`` for the block, then restore."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def diagonal_games(games: int = BIFURCATION_GAMES, seed: int = SEED):
    """The fixtures, then seeded games whose region has three rest points
    possible, with one or with three equilibria."""
    rng = random.Random(seed)
    found = [fixture(name) for name in sorted(FIXTURES)]
    possible = (GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE,
                GameRegionLabel.SINGLE_NE_TRIPLE_POSSIBLE)
    while len(found) < len(FIXTURES) + games:
        payoffs = [[[rng.uniform(-3.0, 3.0) for _ in range(2)]
                    for _ in range(2)] for _ in range(2)]
        game = Game.from_matrices(f"g{len(found)}", *payoffs)
        if classify_region(reduce_payoffs(
                game, Temperatures(1.0, 1.0))).label in possible:
            found.append(game)
    return found


def classify_corners(games: int = CORNER_GAMES, seed: int = SEED) -> None:
    """Classify seeded games until ``games`` of them are
    ``NumericBoundary``: only those solve the corner bound."""
    rng = random.Random(seed)
    while games:
        payoffs = [[[rng.uniform(-3.0, 3.0) for _ in range(2)]
                    for _ in range(2)] for _ in range(2)]
        region = classify_region(reduce_payoffs(
            Game.from_matrices("g", *payoffs), Temperatures(1.0, 1.0)))
        games -= region.label is GameRegionLabel.NUMERIC_BOUNDARY


def search_counts(games: int = BIFURCATION_GAMES, seed: int = SEED
                  ) -> dict[str, list[int]]:
    """``{search: [probes of each search]}`` over the drivers' calls on
    :func:`diagonal_games` and over :func:`classify_corners`.
    ``numerics.bisect`` and ``numerics._close`` are wrapped where the
    kernel's modules call them (not inside ``numerics``, so that a
    ``bisect`` is one search), and each probe they are given is counted,
    a first probe inside ``bisect`` too.  A search is named by the
    innermost function on the stack that :data:`SEARCHES` names, so one
    started from a helper or a comprehension inside such a function is
    counted as that function's.
    """
    probes: dict[str, list[int]] = defaultdict(list)

    def counted_search(search):
        def counted_call(probe, *args):
            caller = sys._getframe(1)
            while caller and caller.f_code.co_name not in SEARCHES:
                caller = caller.f_back
            name = SEARCHES[caller.f_code.co_name] if caller else "other"
            calls = [0]

            def counted(t):
                calls[0] += 1
                return probe(t)
            try:
                return search(counted, *args)
            finally:
                probes[name].append(calls[0])
        return counted_call

    grid = numerics.geomspace(1e-3, 2.0, 8)
    batch = diagonal_games(games, seed)
    with patched([(owner, name, counted_search(getattr(owner, name)))
                  for owner in (restpoints, bifurcation)
                  for name in ("bisect", "_close") if hasattr(owner, name)]):
        for game in batch:
            co = reduce_payoffs(game, Temperatures(1.0, 1.0))
            top = math.sqrt(abs(co.raw_a * co.raw_c)) / 4.0
            sweep_equal_temperature(game, top / 200.0, 2.0 * top, 40)
            equal_temperature_criticals(game)
            classify_pitchfork(game)
            if co.raw_a * co.raw_c > 0.0:
                critical_curve(game, grid)
        classify_corners(seed=seed)
    return dict(probes)


def walk_counts(games: int = BIFURCATION_GAMES, seed: int = SEED
                ) -> tuple[int, int, int]:
    """``(points, witnessed, evaluations)`` of the diagonal walk
    (``bifurcation._diagonal_cells`` over ``_descent``'s grid) in
    ``equal_temperature_criticals`` and ``classify_pitchfork`` on
    :func:`diagonal_games`: the grid points walked, those whose three rest
    points ``bifurcation._witness`` proved, and the curve evaluations of
    the walk's own decisions, each point's stationary solve or witness and
    the solve of each cell end (not the folds solved from the cells)."""
    found = {"points": 0, "witnessed": 0, "evaluations": 0}
    inside = [0]

    def evaluated() -> None:
        found["evaluations"] += inside[0] > 0

    def walked(decide, name):
        def counted(base, t, *args):
            # the walk's callers: the grid generator, the cell walk and
            # its cell-end helper
            walking = sys._getframe(1).f_code.co_name in WALK
            inside[0] += walking
            try:
                result = decide(base, t, *args)
            finally:
                inside[0] -= walking
            if name and walking:
                found[name] += bool(result)
            return result
        return counted

    def descent(base):
        for point in grid(base):
            found["points"] += 1
            yield point

    grid = bifurcation._descent
    patches = [*evaluation_patches(evaluated),
               (bifurcation, "_descent", descent),
               (bifurcation, "_stationary",
                walked(bifurcation._stationary, None))]
    if hasattr(bifurcation, "_witness"):
        patches.append((bifurcation, "_witness",
                        walked(bifurcation._witness, "witnessed")))
    with patched(patches):
        for game in diagonal_games(games, seed):
            equal_temperature_criticals(game)
            classify_pitchfork(game)
    return found["points"], found["witnessed"], found["evaluations"]


def integrator_counts() -> dict[str, list[int]]:
    """``{count: [its value in each run]}`` of ``integrate`` over the
    portrait cases: samples, ``nfev``, rejected steps and the garbage
    collections that the run started, with gc's thresholds left as they
    are and its counts cleared by ``gc.collect()`` before each run."""
    found: dict[str, list[int]] = defaultdict(list)
    collections = [0]

    def counted(phase, info) -> None:
        collections[0] += phase == "start"

    gc.callbacks.append(counted)
    try:
        for name in sorted(FIXTURES):
            for temp in PORTRAIT_TEMPS:
                coeffs = reduce_payoffs(fixture(name),
                                        Temperatures(temp, temp))
                for start in PORTRAIT_STARTS:
                    gc.collect()
                    collections[0] = 0
                    run = integrate(start, coeffs)
                    found["gc collections"].append(collections[0])
                    found["samples"].append(len(run))
                    found["nfev"].append(run.nfev)
                    found["rejected steps"].append(run.rejected_steps)
    finally:
        gc.callbacks.remove(counted)
    return found


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
    print("math.exp and cmath.exp calls per find_rest_points call, with "
          "fd_check off and on\n")
    print("| inputs | solve | solves | math.exp off | cmath.exp off | "
          "math.exp on | cmath.exp on | raised |")
    print("| --- " * 8 + "|")
    for name, log_t in (("warm", WARM), ("cold", COLD)):
        for roots, (n, raised, means) in exp_counts(log_t=log_t).items():
            cells = " | ".join(f"{means[c]:.1f}" for c in EXP_COLUMNS)
            print(f"| {name} | {roots}-root | {n} | {cells} | {raised} |")
    print()
    print(f"bifurcation: the fixtures and {BIFURCATION_GAMES} seeded games, "
          f"and {CORNER_GAMES} corner games, probes per bracket search\n")
    print("| search | searches | mean | max |")
    print("| --- | --- | --- | --- |")
    found = search_counts()
    for name in (*dict.fromkeys(SEARCHES.values()), "other"):
        if found.get(name):
            runs = found[name]
            print(f"| {name} | {len(runs)} | {sum(runs) / len(runs):.1f} | "
                  f"{max(runs)} |")
    points, witnessed, evaluations = walk_counts()
    print(f"\ndiagonal walk: equal_temperature_criticals and "
          f"classify_pitchfork on the fixtures and {BIFURCATION_GAMES} seeded "
          f"games\n")
    print("| walk | points | witnessed | evaluations per point |")
    print("| --- | --- | --- | --- |")
    print(f"| diagonal | {points} | {witnessed / points:.1%} | "
          f"{evaluations / points:.1f} |")
    found = integrator_counts()
    runs = len(found["samples"])
    print(f"\nintegrator: integrate on every fixture at T "
          f"{' and '.join(map(str, PORTRAIT_TEMPS))} from the "
          f"{len(PORTRAIT_STARTS)} portrait starts ({runs} runs), per run, "
          f"gc thresholds {gc.get_threshold()}\n")
    print("| count | mean | max |")
    print("| --- | --- | --- |")
    for name in ("samples", "nfev", "rejected steps", "gc collections"):
        print(f"| {name} | {sum(found[name]) / runs:.1f} | "
              f"{max(found[name])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
