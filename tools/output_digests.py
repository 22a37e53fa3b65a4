"""Print an md5 digest of every CLI output on the built-in fixtures, and
of the payoff decisions, the rest-point kernel, the diagonal
bifurcation drivers, the critical curve, the stochastic simulator and
the n-action fields on seeded random inputs and on fixed families next
to the edges of the ratio plane, of ``integrate`` on cold and long runs,
and the error type of every call that the tests list as bad input.

Each CLI line is ``md5  argv`` for one in-process run of
``boltzq.cli.main``; the digest covers the exit code, the captured stdout
and stderr, and the file written by ``--csv``.  The ``--help`` runs, at
the top level and for each command, pin the parser itself; every run
sees ``COLUMNS=80``, so help text wraps the same on any terminal.  Each
library line is ``md5  raised=N  name`` for one seeded batch of calls
(:func:`batches`); the digest covers every returned field, exactly
(``repr`` of each float), or the error type of a call that raised.  Two checkouts whose outputs are
bit-identical print identical lines, so a refactor that must not change
any output is checked by diffing this script's output on both::

    PYTHONPATH=<checkout>/src python tools/output_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

from boltzq import (AgentState, BoltzqError, Game, IntegratorConfig,
                    SimConfig, Temperatures, classify_pitchfork,
                    classify_region, critical_curve, dissipation_rate,
                    equal_temperature_criticals, find_rest_points,
                    fixture, free_energy, gibbs_distribution, integrate,
                    integrate_single_agent, intercept_extrema,
                    log_ratio_field, nash_equilibria, numerical_divergence,
                    q_velocity, reduce_payoffs, replicator_velocity,
                    risk_dominant_profile, run_two_agents, solve_symmetric,
                    zero_exploration_window)
from boltzq.cli import main
from boltzq.fixtures import FIXTURES
from boltzq.numerics import geomspace

#: stands for the temporary directory in printed argv, so lines do not
#: depend on where the files were written
_TMP = "<tmp>"


def runs(fixture: str) -> list[list[str]]:
    """The argv of every run on one fixture."""
    game = ["--fixture", fixture]
    return [
        *(["restpoints", *game, "--tx", t, "--ty", t]
          for t in ("0.05", "0.5", "1")),
        ["classify", *game],
        ["sweep", *game],
        ["sweep", *game, "--steps", "40", "--t-min", "0.01", "--t-max", "3"],
        ["critical", *game, "--orientation", "tx"],
        ["critical", *game, "--orientation", "ty"],
        ["portrait", *game, "--grid", "3", "--csv", f"{_TMP}/portrait.csv"],
        ["simulate", *game],
        ["simulate", *game, "--starts", "50"],
        ["simulate", *game, "--tx", "0.05", "--ty", "0.05"],
        ["portrait", *game, "--tx", "0.05", "--ty", "0.05", "--grid", "2",
         "--csv", f"{_TMP}/portrait.csv"],
        ["agents", *game, "--rounds", "2000"],
        *(["agents", *game, "--seed", str(seed), "--rounds", "500"]
          for seed in range(10)),
    ]


#: the command names, for the ``--help`` runs
_COMMANDS = ("classify", "simulate", "agents", "restpoints", "sweep",
             "critical", "portrait")


def digest(argv: list[str], tmp: str) -> str:
    """md5 of one run's exit code, stdout, stderr and written files."""
    argv = [arg.replace(_TMP, tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    md5 = hashlib.md5(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
    for name in sorted(os.listdir(tmp)):
        path = os.path.join(tmp, name)
        with open(path, "rb") as fh:
            md5.update(b"\0" + name.encode() + b"\0" + fh.read())
        os.remove(path)
    return md5.hexdigest()


def _game(rng: random.Random) -> Game:
    """A game with payoffs U[-3, 3]."""
    payoffs = [[[rng.uniform(-3.0, 3.0) for _ in range(2)] for _ in range(2)]
               for _ in range(2)]
    return Game.from_matrices("g", *payoffs)


def _rest_points(rng: random.Random, log_t: tuple[float, float]):
    """One ``find_rest_points`` call: payoffs U[-3, 3], (tx, ty)
    log-uniform on 10**log_t."""
    game = _game(rng)
    tx, ty = (10.0 ** rng.uniform(*log_t) for _ in range(2))
    coeffs = reduce_payoffs(game, Temperatures(tx, ty))
    return [(p.x, p.y, p.u, p.v, p.eigenvalues, p.residual, p.stability,
             p.degenerate_pair) for p in find_rest_points(coeffs)]


def _payoff_answers(rng: random.Random):
    """``nash_equilibria``, ``classify_region`` and
    ``risk_dominant_profile`` of one game with payoffs U[-3, 3], times
    2**-100, 1 and 2**100 (exact scalings), each raise as its error type."""
    game = _game(rng)
    answers = []
    for scale in (2.0 ** -100, 1.0, 2.0 ** 100):
        scaled = Game.from_matrices(
            "g", *([[v * scale for v in row] for row in m.entries]
                   for m in (game.payoff_x, game.payoff_y)))
        coeffs = reduce_payoffs(scaled, Temperatures(1.0, 1.0))
        for call, arg in ((nash_equilibria, scaled), (classify_region, coeffs),
                          (risk_dominant_profile, scaled)):
            try:
                answers.append(call(arg))
            except BoltzqError as exc:
                answers.append(type(exc).__name__)
    return answers


def _symmetric(rng: random.Random):
    """One ``solve_symmetric`` call with a and b uniform on [-30, 30]."""
    return solve_symmetric(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0))


def _critical_curve(rng: random.Random):
    """One ``critical_curve`` call on a game with payoffs U[-3, 3], at ty
    on ``geomspace(1e-3, 2, 8)``."""
    return critical_curve(_game(rng), geomspace(1e-3, 2.0, 8))


def _scaled_fixture_calls():
    """One call at a time: ``equal_temperature_criticals``,
    ``classify_pitchfork`` and ``critical_curve`` (ty on
    ``geomspace(1e-3, 2, 8)`` times the scale) on each fixture with every
    payoff times 2**-540 and 2**520, where raw_a*raw_c leaves the float
    range."""
    calls = iter([(driver, scale, FIXTURES[name])
                  for scale in (2.0 ** -540, 2.0 ** 520)
                  for name in sorted(FIXTURES)
                  for driver in (equal_temperature_criticals,
                                 classify_pitchfork, critical_curve)])

    def call(rng: random.Random):
        driver, scale, game = next(calls)
        game = Game.from_matrices(
            "g", *([[v * scale for v in row] for row in m.entries]
                   for m in (game.payoff_x, game.payoff_y)))
        if driver is critical_curve:
            return critical_curve(game, [scale * t for t in
                                         geomspace(1e-3, 2.0, 8)])
        return driver(game)
    return call


#: the tails of the near-edge ratio families, from well inside the float
#: resolution of 1 down to far below it
_EDGE_TAILS = (1e-5, 1e-10, 1e-15, 3e-16, 1e-16, 2.0 ** -53, 2.0 ** -54,
               2.0 ** -60, 1e-17, 1e-20, 1e-100, 1e-300)


def _edge_ratio_calls():
    """One call at a time, for each tail e: ``classify_region``,
    ``equal_temperature_criticals`` and ``classify_pitchfork`` on the
    anti-coordination game A = [[0, 1], [2, 0]], B = [[0, e], [1, 0]]
    (d/c = -e/(1 + e)), ``classify_region`` on the corner game
    A = [[0, -1], [2, 0]], B = [[0, -e], [1, 0]] (relabelled d/c = -1 -
    e/(1 - e)), and ``intercept_extrema(1.0, e)``, the mirror of the
    ratio -1 - e."""
    def region(game):
        return classify_region(reduce_payoffs(game, Temperatures(1.0, 1.0)))

    calls = []
    for e in _EDGE_TAILS:
        anti = Game.from_matrices("anti", [[0.0, 1.0], [2.0, 0.0]],
                                  [[0.0, e], [1.0, 0.0]])
        corner = Game.from_matrices("corner", [[0.0, -1.0], [2.0, 0.0]],
                                    [[0.0, -e], [1.0, 0.0]])
        calls += [(region, anti), (equal_temperature_criticals, anti),
                  (classify_pitchfork, anti), (region, corner),
                  (lambda e: intercept_extrema(1.0, e), e)]
    calls = iter(calls)

    def call(rng: random.Random):
        driver, arg = next(calls)
        return driver(arg)
    return call


#: the tails of the anti-coordination families, 1e-10 down to 1e-300
_ANTI_TAILS = _EDGE_TAILS[1:]


def _anti_games() -> list[Game]:
    """For each tail e, the anti-coordination games (raw_a, raw_c < 0)
    with X's payoffs [[0, 90], [10, 0]], [[0, -10], [110, 0]] or
    [[0, 150], [-50, 0]] (b/a = -0.9, 0.1 or -1.5) against Y's [[e, e],
    [1, 0]], [[-e, -e], [1, 0]] or [[0, 1 - e], [e, 0]] (d/c = -e, e or
    -1 + e), and each of them with the players swapped, so that b/a
    takes those values instead."""
    xs = ([[0.0, 90.0], [10.0, 0.0]], [[0.0, -10.0], [110.0, 0.0]],
          [[0.0, 150.0], [-50.0, 0.0]])
    games = []
    for e in _ANTI_TAILS:
        for a in xs:
            for b in ([[e, e], [1.0, 0.0]], [[-e, -e], [1.0, 0.0]],
                      [[0.0, 1.0 - e], [e, 0.0]]):
                games += [Game.from_matrices("anti", a, b),
                          Game.from_matrices("anti", b, a)]
    return games


def _anti_calls(driver):
    """One ``driver`` call at a time on each of :func:`_anti_games`."""
    games = iter(_anti_games())
    return lambda rng: driver(next(games))


def _anti_windows():
    """One ``zero_exploration_window(b/a, d/c, 1.0)`` call at a time, for
    each tail e: d/c = -1 + e with b/a = 0.1, d/c = -e with b/a = -1.5,
    b/a = e with d/c = -0.8, and b/a = -1 - e with d/c = -0.2."""
    calls = iter([(beta, ratio) for e in _ANTI_TAILS
                  for beta, ratio in ((0.1, -1.0 + e), (-1.5, -e),
                                      (e, -0.8), (-1.0 - e, -0.2))])

    def call(rng: random.Random):
        return zero_exploration_window(*next(calls), 1.0)
    return call


def _agents(rng: random.Random):
    """One ``run_two_agents`` call with ``record_q=True`` on a 3-action
    game with payoffs U[-3, 3], from ``init`` q-values U[-1, 1], with each
    learner's temperature log-uniform on [0.05, 2] and rate U[0.01, 0.5]:
    batch 20, 200 rounds, a record every 7."""
    payoffs = [[[rng.uniform(-3.0, 3.0) for _ in range(3)] for _ in range(3)]
               for _ in range(2)]
    init = tuple(AgentState(tuple(rng.uniform(-1.0, 1.0) for _ in range(3)),
                            10.0 ** rng.uniform(-1.3, 0.3),
                            rng.uniform(0.01, 0.5)) for _ in range(2))
    cfg = SimConfig(batch=20, rounds=200, seed=rng.randrange(2 ** 32),
                    record_every=7)
    return run_two_agents(Game.from_matrices("g", *payoffs),
                          Temperatures(init[0].temp, init[1].temp), cfg,
                          init=init, record_q=True)


def _n_action(rng: random.Random):
    """One call of each n-action field on a game of 2, 3 or 4 actions
    with payoffs U[-3, 3] and temperatures log-uniform on [0.05, 2]:
    ``replicator_velocity``, ``q_velocity`` (q U[-1, 1], rate U[0.01,
    1]), ``log_ratio_field`` and ``numerical_divergence`` at log-ratio
    coordinates U[-2, 2] (and at the scalar coordinates of a 2-action
    game), ``gibbs_distribution``, ``free_energy`` (and, with one
    component zeroed, ``allow_zero=True``), ``integrate_single_agent``
    and ``dissipation_rate``.  Strategies are normalised U[0.05, 1]
    weights; arrays are digested as lists of floats."""
    n = rng.choice((2, 3, 4))
    game = Game.from_matrices(
        "g", *([[rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(n)]
               for _ in range(2)))
    temps = Temperatures(*(10.0 ** rng.uniform(-1.3, 0.3) for _ in range(2)))

    def simplex():
        weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
        return [w / sum(weights) for w in weights]

    def uniform(size, bound):
        return [rng.uniform(-bound, bound) for _ in range(size)]

    x, y, rewards = simplex(), simplex(), uniform(n, 3.0)
    w_x, w_y = uniform(n - 1, 2.0), uniform(n - 1, 2.0)
    zeroed = x[:]
    zeroed[rng.randrange(n)] = 0.0
    zeroed = [v / sum(zeroed) for v in zeroed]
    results = [
        replicator_velocity(x, y, game, temps),
        q_velocity(uniform(n, 1.0), y, game.payoff_x, rng.uniform(0.01, 1.0)),
        log_ratio_field(game, temps, w_x, w_y),
        numerical_divergence((w_x, w_y), game, temps),
        gibbs_distribution(rewards, temps.tx),
        free_energy(x, rewards, temps.tx),
        free_energy(zeroed, rewards, temps.ty, allow_zero=True),
        dissipation_rate(temps, n)]
    if n == 2:
        results += [log_ratio_field(game, temps, w_x[0], w_y[0]),
                    numerical_divergence((w_x[0], w_y[0]), game, temps)]
    run = integrate_single_agent(rewards, temps.ty, y)
    results.append((run.times, run.points, run.terminal_reason))

    def plain(value):
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        return value.tolist() if hasattr(value, "tolist") else value
    return plain(results)


def _trajectories() -> list:
    """``integrate`` on runs that neither the portrait pin nor the CLI
    lines reach: every fixture at T = 0.01 from the four portrait starts
    (1/3 or 2/3 each), then matching_pennies from (0.9, 0.2) at
    T = 0.005 with ``max_time`` 200, a spiral that ends at the horizon."""
    def run(name, temp, start, cfg=None):
        coeffs = reduce_payoffs(fixture(name), Temperatures(temp, temp))
        return lambda: integrate(start, coeffs, cfg)
    return [*(run(name, 0.01, (x, y)) for name in sorted(FIXTURES)
              for x in (1 / 3, 2 / 3) for y in (1 / 3, 2 / 3)),
            run("matching_pennies", 0.005, (0.9, 0.2),
                IntegratorConfig(max_time=200.0))]


#: the tests that list the bad-input calls and the malformed game files
_TESTS = Path(__file__).resolve().parent.parent / "tests"


def _bad_inputs() -> list:
    """Every call of ``test_bad_input_raises_domain_error``, then
    ``Game.from_dict`` on each malformed game file of ``test_cli.py``."""
    sys.path.insert(0, str(_TESTS))
    from test_cli import MALFORMED_PAYOFFS
    from test_folds import BAD_INPUT
    return [*BAD_INPUT, *(lambda data=data: Game.from_dict(data)
                          for data in MALFORMED_PAYOFFS)]


def _one_at_a_time(calls: list):
    """The calls in order, one per batch call."""
    calls = iter(calls)
    return lambda rng: next(calls)()


def batches():
    """``(name, seed, calls, call)`` of every library batch."""
    bad, trajectories = _bad_inputs(), _trajectories()
    return [
        ("find_rest_points warm tx,ty in [1e-3, 10]", 1, 20000,
         lambda rng: _rest_points(rng, (-3.0, 1.0))),
        ("find_rest_points cold tx,ty in [1e-20, 1e-3]", 2, 2000,
         lambda rng: _rest_points(rng, (-20.0, -3.0))),
        ("solve_symmetric a,b in [-30, 30]", 3, 20000, _symmetric),
        ("equal_temperature_criticals payoffs in [-3, 3]", 4, 400,
         lambda rng: equal_temperature_criticals(_game(rng))),
        ("classify_pitchfork payoffs in [-3, 3]", 4, 400,
         lambda rng: classify_pitchfork(_game(rng))),
        ("payoff decisions payoffs in [-3, 3] times 2**-100, 1, 2**100", 5,
         400, _payoff_answers),
        ("critical_curve payoffs in [-3, 3], ty on geomspace(1e-3, 2, 8)", 6,
         4000, _critical_curve),
        ("bifurcation drivers on the fixtures times 2**-540, 2**520", 0, 36,
         _scaled_fixture_calls()),
        ("region, criticals, pitchfork and intercept extrema at ratios "
         "within 1e-5 .. 1e-300 of 0 and -1", 0, 5 * len(_EDGE_TAILS),
         _edge_ratio_calls()),
        ("critical_curve on anti-coordination games with d/c or b/a within "
         "1e-10 .. 1e-300 of 0 or -1, ty on geomspace(1e-20, 1, 11)", 0,
         len(_anti_games()),
         _anti_calls(lambda g: critical_curve(g, geomspace(1e-20, 1.0, 11)))),
        ("classify_region on anti-coordination games with d/c or b/a within "
         "1e-10 .. 1e-300 of 0 or -1", 0, len(_anti_games()),
         _anti_calls(lambda g: classify_region(
             reduce_payoffs(g, Temperatures(1.0, 1.0))))),
        ("zero_exploration_window at ratios within 1e-10 .. 1e-300 of 0 "
         "and -1", 0, 4 * len(_ANTI_TAILS), _anti_windows()),
        ("run_two_agents 3-action games from init, unequal temperatures "
         "and rates, record_q", 7, 40, _agents),
        ("n-action fields on 2-, 3- and 4-action games, scalar and vector "
         "log-ratio coordinates", 8, 300, _n_action),
        ("integrate every fixture at T = 0.01 from the portrait starts, "
         "and matching_pennies from (0.9, 0.2) at T = 0.005 to max_time 200",
         0, len(trajectories), _one_at_a_time(trajectories)),
        ("bad input: the calls of test_bad_input_raises_domain_error and "
         "the malformed game files through Game.from_dict", 0, len(bad),
         _one_at_a_time(bad)),
    ]


def library_digest(seed: int, calls: int, call) -> tuple[str, int]:
    """md5 of ``calls`` seeded results (or error types), and the raises."""
    rng = random.Random(seed)
    md5 = hashlib.md5()
    failed = 0
    for _ in range(calls):
        try:
            result = repr(call(rng))
        except Exception as exc:  # a raise is part of the output
            result = type(exc).__name__
            failed += 1
        md5.update(result.encode() + b"\0")
    return md5.hexdigest(), failed


def main_digests() -> int:
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for argv in [["--help"], *([name, "--help"] for name in _COMMANDS)]:
            print(f"{digest(argv, tmp)}  {' '.join(argv)}", flush=True)
        for fixture in sorted(FIXTURES):
            for argv in runs(fixture):
                print(f"{digest(argv, tmp)}  {' '.join(argv)}", flush=True)
    for name, seed, calls, call in batches():
        md5, failed = library_digest(seed, calls, call)
        print(f"{md5}  raised={failed}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
