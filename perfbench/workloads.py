"""The four benchmark workloads.

A workload turns (seed, repetition) into inputs, runs one op per input
through the library's public API (the timed part), checks the op's output
with :mod:`oracles` (untimed), and reduces the records of a traced slice to
the metrics of the layer it loads.  Every call into the library goes
through a :class:`spans.Tracer`, so the same code runs traced and untraced.

Repetition ``-1`` is the warm-up stream; timed repetitions start at 0, and
each one draws fresh random inputs, so no cache inside the library ever
sees an input twice across repetitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Any, Optional

import numpy as np

import boltzq as bq
from boltzq import fileio, svg

import oracles

FIXTURE_NAMES = sorted(bq.FIXTURES)
#: random games draw all eight payoffs uniformly from [-PAYOFF, PAYOFF]
PAYOFF = 3.0
MULTI = "MultiNE_TriplePossible"
SINGLE_NE = "SingleNE_TriplePossible"
CORNER = "NumericBoundary"


@dataclass
class Record:
    """One op: input and output (kept only when asked), latency, verdict.

    ``latency`` is in reference seconds (see :mod:`calib`), ``wall`` in
    seconds as measured."""

    op_id: int
    item: Any
    result: Any
    latency: float
    wall: float
    failures: list
    counts: Optional[tuple]


def rng_for(seed: int, workload_index: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_index, rep + 1])


def random_game(rng, name: str, accept) -> tuple[bq.Game, str]:
    """Draw payoffs until the game's region label satisfies ``accept``."""
    while True:
        A = rng.uniform(-PAYOFF, PAYOFF, (2, 2)).tolist()
        B = rng.uniform(-PAYOFF, PAYOFF, (2, 2)).tolist()
        raw_a, _, raw_c, _ = oracles.raw_coefficients(A, B)
        if min(abs(raw_a), abs(raw_c)) < 1e-9:
            continue  # degenerate games are invalid input
        label = oracles.region_label(A, B)
        if accept(label):
            return bq.Game.from_matrices(name, A, B), label


def raised(exc: BaseException, where: str = "") -> str:
    return f"raised:{type(exc).__name__}{'@' + where if where else ''}"


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def count_at(game: bq.Game):
    """Rest-point count at tx = ty = T, for the fold check."""
    def count(temp: float) -> int:
        coeffs = bq.reduce_payoffs(game, bq.Temperatures(temp, temp))
        return len(bq.find_rest_points(coeffs, fd_check=False))
    return count


class Workload:
    """Common shape; subclasses define inputs, the op, checks and metrics."""

    name = ""
    index = 0
    #: percentile reported as op_tail_ms: inside the slowest op class
    tail_pct = 95.0
    #: repetitions per second of ``--seconds``, so that a run's loop (ops,
    #: calibration and checks) takes about ``--seconds`` on the reference host
    reps_per_s = 1.0
    #: repetitions in the traced slice that yields the layer metrics
    slice_reps = 2
    #: ops of the warm-up stream run before timing
    warmup_ops = 3
    #: run in a fresh interpreter right after ``import boltzq as bq``
    setup_code = ""
    #: CLI counterpart: (argv after ``python -m boltzq.cli``, output check)
    cli: list = []

    def __init__(self, seed: int):
        self.seed = seed

    def items(self, rep: int) -> list:
        raise NotImplementedError

    def op(self, tr, item):
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        raise NotImplementedError

    def counts(self, item, result) -> tuple:
        raise NotImplementedError

    def emit(self, tr, record: Record) -> None:
        """Serialise the op's output into memory with the public writers."""

    def slice_extras(self, tr, records: list[Record]) -> list[list[str]]:
        """Further traced calls of the slice; returns one verdict per call."""
        return []

    def layer_metrics(self, tr, records: list[Record]) -> dict:
        raise NotImplementedError


class RegionAtlas(Workload):
    """The region-map task: many unrelated games, each classified and solved.

    Each repetition holds GAMES games, exactly CORNERS of them in the corner
    quadrants (the natural share of uniform payoffs is about 6%), so every
    repetition has the same mix of the cheap closed-form path and the
    numeric corner path.  One (tx, ty) pair in COLD_EVERY is drawn from the
    cold range, where known solver defects live.
    """

    name = "region_atlas"
    index = 0
    reps_per_s = 2.4
    tail_pct = 99.0  # the top 1% lies well inside the 6.25% corner games
    slice_reps = 3
    warmup_ops = 20
    GAMES = 160
    CORNERS = 10
    PAIRS = 4
    COLD_EVERY = 20
    SCAN_EVERY = 8
    setup_code = ("g = bq.fixture('stag_hunt'); "
                  "c = bq.reduce_payoffs(g, bq.Temperatures(0.5, 0.5)); "
                  "bq.classify_region(c); bq.find_rest_points(c)")
    cli = [
        (["restpoints", "--fixture", "stag_hunt", "--tx", "0.5", "--ty", "0.5"],
         lambda out: [] if out.count('"stability"') == 3 else ["cli_restpoints"]),
        (["classify", "--fixture", "dominant_coordination"],
         lambda out: [] if SINGLE_NE in out else ["cli_classify"]),
    ]

    def items(self, rep):
        rng = rng_for(self.seed, self.index, rep)
        corner_slots = set(rng.choice(self.GAMES, self.CORNERS, replace=False).tolist())
        n_pairs = self.GAMES * self.PAIRS
        cold_slots = set(rng.choice(n_pairs, n_pairs // self.COLD_EVERY,
                                    replace=False).tolist())
        items = []
        for i in range(self.GAMES):
            want_corner = i in corner_slots
            game, label = random_game(rng, f"atlas_{rep}_{i}",
                                      lambda lab: (lab == CORNER) == want_corner)
            pairs = []
            for k in range(self.PAIRS):
                cold = i * self.PAIRS + k in cold_slots
                lo, hi = (-20.0, -3.0) if cold else (-3.0, 1.0)
                tx, ty = 10.0 ** rng.uniform(lo, hi, 2)
                scan = not cold and rng.random() < 1.0 / self.SCAN_EVERY
                pairs.append((float(tx), float(ty), cold, scan))
            items.append((game, label, pairs))
        return items

    def op(self, tr, item):
        game, _, pairs = item
        unit = tr.call("games.reduce_payoffs", bq.reduce_payoffs, game,
                       bq.Temperatures(1.0, 1.0))
        region = tr.call("games.classify_region", bq.classify_region, unit)
        solves = []
        for tx, ty, _, _ in pairs:
            coeffs = tr.call("games.reduce_payoffs", bq.reduce_payoffs, game,
                             bq.Temperatures(tx, ty))
            try:
                points = tr.call("restpoints.find_rest_points",
                                 bq.find_rest_points, coeffs)
            except Exception as exc:  # a raise on valid input fails the op
                points = exc
            solves.append((coeffs, points))
        return region, solves

    def check(self, item, result):
        _, label, pairs = item
        region, solves = result
        failures = []
        if region.label.value != label:
            failures.append(f"region:{region.label.value}")
        for (_, _, _, scan), (coeffs, points) in zip(pairs, solves):
            if isinstance(points, Exception):
                failures.append(raised(points, "find_rest_points"))
            else:
                failures += oracles.restpoint_failures(coeffs, points, scan)
        return failures

    def counts(self, item, result):
        region, solves = result
        ok = [p for _, p in solves if not isinstance(p, Exception)]
        return (sum(len(p) for p in ok), sum(len(p) == 3 for p in ok),
                len(solves) - len(ok), int(region.label.value == CORNER),
                sum(_saturated(q) for p in ok for q in p))

    def emit(self, tr, record):
        for _, points in record.result[1]:
            if not isinstance(points, Exception):
                tr.call("fileio.rest_points_json", fileio.rest_points_json, points)

    def layer_metrics(self, tr, records):
        corner_ops = {r.op_id for r in records if r.result[0].label.value == CORNER}
        classify = tr.seconds_by_op("games.classify_region")
        closed = [s[0] for op, s in classify.items() if op not in corner_ops]
        corner = [s[0] for op, s in classify.items() if op in corner_ops]
        finds = tr.seconds_by_op("restpoints.find_rest_points")
        solve_times, three_times, solves = [], [], []
        for r in records:
            for secs, (coeffs, points) in zip(finds.get(r.op_id, []), r.result[1]):
                solve_times.append(secs)
                solves.append((coeffs, points))
                if not isinstance(points, Exception) and len(points) == 3:
                    three_times.append(secs)
        ok = [(c, p) for c, p in solves if not isinstance(p, Exception)]
        points = [(c, q) for c, p in ok for q in p]
        return {
            "games.reduce_us_p50": (1e6 * median(tr.seconds("games.reduce_payoffs")), "us"),
            "games.classify_closed_us_p50": (1e6 * median(closed), "us"),
            "games.classify_corner_ms_p50": (1e3 * median(corner), "ms"),
            "games.corner_share": (len(corner_ops) / len(records), "share"),
            "restpoints.find_us_p50": (1e6 * median(solve_times), "us"),
            "restpoints.find_us_p99": (1e6 * pct(solve_times, 99.0), "us"),
            "restpoints.find_three_us_p50": (1e6 * median(three_times), "us"),
            "restpoints.three_root_share": (len(three_times) / len(solves), "share"),
            "restpoints.roots_per_solve": (len(points) / len(ok), "count"),
            "restpoints.raised_share": ((len(solves) - len(ok)) / len(solves), "share"),
            "restpoints.saturated_share": (sum(_saturated(q) for _, q in points) / len(points), "share"),
            "restpoints.max_residual": (max(_residual(c, q) for c, q in points), "rel"),
        }


def _saturated(point) -> bool:
    return point.x in (0.0, 1.0) or point.y in (0.0, 1.0)


def _residual(coeffs, point) -> float:
    return abs(point.u - coeffs.b - coeffs.a * oracles.sigmoid(point.v)) / (
        1.0 + abs(coeffs.a) + abs(coeffs.b))


class PhasePortrait(Workload):
    """Trajectories of every fixture at a cold and a warm temperature.

    A repetition integrates one start per (fixture, T) case.  Starts come
    from the 2x2 grid of the portrait CLI command; each repetition deals
    every grid point to three cases, at random, so all repetitions hold the
    same starts.  The slice adds integrate_batch on each case's full grid.
    """

    name = "phase_portrait"
    index = 1
    reps_per_s = 1.7
    tail_pct = 95.0  # matching_pennies at T=0.05, 1/12 of ops, is the tail
    slice_reps = 4
    warmup_ops = 3
    TEMPS = (0.05, 0.5)
    AXIS = (1.0 / 3.0, 2.0 / 3.0)  # the CLI's grid of 2: margin 1/(grid+1)
    setup_code = ("g = bq.fixture('prisoners_dilemma'); "
                  "c = bq.reduce_payoffs(g, bq.Temperatures(0.5, 0.5)); "
                  "bq.integrate((0.3, 0.6), c); "
                  "bq.integrate_batch([(0.3, 0.6), (0.6, 0.3)], c)")
    cli = [
        (["portrait", "--fixture", "stag_hunt", "--tx", "0.5", "--ty", "0.5",
          "--grid", "2"],
         lambda out: [] if out.count("<polyline") == 4 else ["cli_portrait"]),
        (["simulate", "--fixture", "stag_hunt", "--tx", "0.5", "--ty", "0.5",
          "--starts", "50"],
         lambda out: [] if len(out.splitlines()) == 51 else ["cli_simulate"]),
    ]

    def __init__(self, seed):
        super().__init__(seed)
        self.cases = [(name, t) for name in FIXTURE_NAMES for t in self.TEMPS]
        self.grid = [(x, y) for x in self.AXIS for y in self.AXIS]
        self._coeffs = {}
        self._rest = {}

    def coeffs(self, case):
        if case not in self._coeffs:
            name, t = case
            self._coeffs[case] = bq.reduce_payoffs(bq.fixture(name),
                                                   bq.Temperatures(t, t))
        return self._coeffs[case]

    def rest_points(self, case):
        if case not in self._rest:
            self._rest[case] = bq.find_rest_points(self.coeffs(case))
        return self._rest[case]

    def items(self, rep):
        rng = rng_for(self.seed, self.index, rep)
        deal = rng.permutation(np.arange(len(self.cases)) % len(self.grid))
        order = rng.permutation(len(self.cases))
        return [(self.cases[c], self.grid[deal[c]]) for c in order]

    def op(self, tr, item):
        (name, t), start = item
        coeffs = tr.call("games.reduce_payoffs", bq.reduce_payoffs,
                         bq.fixture(name), bq.Temperatures(t, t))
        return tr.call("dynamics.integrate", bq.integrate, start, coeffs)

    def _diagonal(self, case, start) -> bool:
        game = bq.fixture(case[0])
        return game.payoff_x == game.payoff_y and start[0] == start[1]

    def check(self, item, traj):
        case, start = item
        return oracles.endpoint_failures(traj.final, traj.terminal_reason,
                                         self.rest_points(case),
                                         self._diagonal(case, start))

    def counts(self, item, traj):
        return (len(traj),)

    def emit(self, tr, record):
        tr.call("fileio.trajectory_csv", fileio.trajectory_csv, record.result)

    def slice_extras(self, tr, records):
        verdicts = []
        for case in self.cases:
            coeffs = self.coeffs(case)
            try:
                finals, reason = tr.call("dynamics.integrate_batch",
                                         bq.integrate_batch, self.grid, coeffs)
            except Exception as exc:
                verdicts.append([raised(exc, "integrate_batch")])
                continue
            failures = []
            for start, final in zip(self.grid, finals):
                failures += oracles.endpoint_failures(
                    final, reason, self.rest_points(case),
                    self._diagonal(case, start))
            verdicts.append(failures)
            tr.call("fileio.terminal_points_csv", fileio.terminal_points_csv,
                    self.grid, finals)
            trajs = [r.result for r in records if r.item[0] == case]
            tr.call("svg.phase_portrait_svg", svg.phase_portrait_svg, trajs,
                    self.rest_points(case), f"{case[0]} (T={case[1]:g})")
        return verdicts

    def layer_metrics(self, tr, records):
        times = tr.seconds("dynamics.integrate")
        steps = [len(r.result) for r in records]
        batch = tr.seconds("dynamics.integrate_batch")
        return {
            "dynamics.integrate_ms_p50": (1e3 * median(times), "ms"),
            "dynamics.integrate_ms_p90": (1e3 * pct(times, 90.0), "ms"),
            "dynamics.steps_per_traj_p50": (median(steps), "count"),
            "dynamics.steps_total": (sum(steps), "count"),
            "dynamics.us_per_step": (1e6 * sum(times) / sum(steps), "us"),
            "dynamics.batch_ms_p50": (1e3 * median(batch), "ms"),
            "dynamics.batch_us_per_start": (1e6 * sum(batch) / (len(batch) * len(self.grid)), "us"),
            "dynamics.converged_share": (sum(r.result.terminal_reason == "converged" for r in records) / len(records), "share"),
            "svg.portrait_ms": (1e3 * median(tr.seconds("svg.phase_portrait_svg")), "ms"),
        }


class BifurcationScan(Workload):
    """Equal-temperature sweeps, tangency criticals, pitchfork labels and
    critical curves for the fixtures plus fresh three-rest-point games.

    Seven three-equilibrium games and one single-equilibrium game join the
    six fixtures.  The four cheapest ops of a repetition (matching_pennies,
    prisoners_dilemma, dominant_coordination, the single-equilibrium game)
    sit below the seven three-equilibrium sweeps and stag_hunt, so the
    median op lies mid-cluster; the tail lies among the hawk_dove ops, the
    second slowest fixture after battle_coordination (each 1/14 of ops).
    """

    name = "bifurcation_scan"
    index = 2
    reps_per_s = 0.8
    tail_pct = 90.0  # inside the hawk_dove ops, next below battle_coordination
    slice_reps = 2
    warmup_ops = 3
    MULTI_GAMES = 7
    SINGLE_GAMES = 1
    SWEEP_STEPS = 40
    CURVE_GRID = tuple(np.geomspace(1e-3, 2.0, 8).tolist())
    CLOSED_FORM = ("hawk_dove", "battle_coordination")
    setup_code = ("g = bq.fixture('stag_hunt'); "
                  "bq.sweep_equal_temperature(g, 0.5, 1.0, 3); "
                  "bq.equal_temperature_criticals(g); bq.classify_pitchfork(g); "
                  "bq.critical_curve(bq.fixture('dominant_coordination'), [0.5])")
    cli = [
        (["sweep", "--fixture", "stag_hunt", "--steps", "40"],
         lambda out: [] if out.startswith("T,x,y,stability,branch_id") else ["cli_sweep"]),
        (["critical", "--fixture", "dominant_coordination", "--fixed-steps", "8"],
         lambda out: [] if len(out.splitlines()) == 9 else ["cli_critical"]),
    ]

    def __init__(self, seed):
        super().__init__(seed)
        self.t_exact = oracles.pitchfork_temperature()
        self._labels = {name: oracles.region_label(
            bq.fixture(name).payoff_x.entries, bq.fixture(name).payoff_y.entries)
            for name in FIXTURE_NAMES}

    def items(self, rep):
        rng = rng_for(self.seed, self.index, rep)
        games = [(bq.fixture(n), self._labels[n]) for n in FIXTURE_NAMES]
        games += [random_game(rng, f"multi_{rep}_{i}", lambda lab: lab == MULTI)
                  for i in range(self.MULTI_GAMES)]
        games += [random_game(rng, f"single_{rep}_{i}", lambda lab: lab == SINGLE_NE)
                  for i in range(self.SINGLE_GAMES)]
        return [games[i] for i in rng.permutation(len(games))]

    @staticmethod
    def sweep_range(game) -> tuple[float, float]:
        """Brackets every tangency: T_c <= sqrt(|raw_a*raw_c|)/4 =: s."""
        raw_a, _, raw_c, _ = oracles.raw_coefficients(game.payoff_x.entries,
                                                      game.payoff_y.entries)
        s = math.sqrt(abs(raw_a * raw_c)) / 4.0
        return s / 200.0, 2.0 * s

    def op(self, tr, item):
        game, label = item
        t_min, t_max = self.sweep_range(game)
        calls = [("sweep", "bifurcation.sweep_equal_temperature",
                  bq.sweep_equal_temperature, (game, t_min, t_max, self.SWEEP_STEPS)),
                 ("criticals", "restpoints.equal_temperature_criticals",
                  bq.equal_temperature_criticals, (game,)),
                 ("kind", "bifurcation.classify_pitchfork",
                  bq.classify_pitchfork, (game,))]
        if label in (MULTI, SINGLE_NE):
            calls.append(("curve", "bifurcation.critical_curve",
                          bq.critical_curve, (game, self.CURVE_GRID)))
        out = {}
        for key, span, fn, args in calls:
            try:
                out[key] = tr.call(span, fn, *args)
            except Exception as exc:  # a raise on valid input fails the op
                out[key] = exc
        return out

    def check(self, item, out):
        game, _ = item
        failures = [raised(v, k) for k, v in out.items() if isinstance(v, Exception)]
        if failures:
            return failures
        count = count_at(game)
        sweep_tc = out["sweep"].critical_temperatures
        crit_tc = [t for t, _ in out["criticals"] or []]
        failures += oracles.fold_failures(sweep_tc, count)
        failures += oracles.fold_failures(crit_tc, count)
        kind = out["sweep"].pitchfork_kind or "none"
        if kind != out["kind"]:
            failures.append(f"pitchfork:{kind}!={out['kind']}")
        if game.name in self.CLOSED_FORM:
            failures += oracles.tc_failures(sweep_tc, self.t_exact)
            failures += oracles.tc_failures(crit_tc, self.t_exact)
        return failures

    def counts(self, item, out):
        sweep = out["sweep"]
        points = 0 if isinstance(sweep, Exception) else _sweep_points(sweep)
        crit = out["criticals"]
        n_crit = -1 if isinstance(crit, Exception) else len(crit or [])
        return (points, n_crit)

    def emit(self, tr, record):
        out = record.result
        if not isinstance(out["sweep"], Exception):
            tr.call("fileio.sweep_csv", fileio.sweep_csv, out["sweep"])
        if "curve" in out and not isinstance(out["curve"], Exception):
            tr.call("fileio.critical_csv", fileio.critical_csv, out["curve"])

    def layer_metrics(self, tr, records):
        ran_tangency = {r.op_id for r in records
                        if isinstance(r.result["criticals"], list)}
        crit = [s[0] for op, s in
                tr.seconds_by_op("restpoints.equal_temperature_criticals").items()
                if op in ran_tangency]
        errs = [abs(max(r.result["sweep"].critical_temperatures) - self.t_exact)
                / self.t_exact for r in records
                if r.item[0].name in self.CLOSED_FORM
                and isinstance(r.result["sweep"], bq.BifurcationDiagram)]
        return {
            "bifurcation.sweep_ms_p50": (1e3 * median(tr.seconds("bifurcation.sweep_equal_temperature")), "ms"),
            "bifurcation.sweep_points": (sum(r.counts[0] for r in records), "count"),
            "bifurcation.criticals_ms_p50": (1e3 * median(crit), "ms"),
            "bifurcation.critical_curve_ms_p50": (1e3 * median(tr.seconds("bifurcation.critical_curve")), "ms"),
            "bifurcation.tc_max_rel_err": (max(errs), "rel"),
        }


def _sweep_points(diagram) -> int:
    return len({t for branch in diagram.branches for t, _ in branch})


class StochasticCrosscheck(Workload):
    """The discrete learners against the ODE endpoint, every fixture at
    unit temperatures, with a fresh simulator seed per op."""

    name = "stochastic_crosscheck"
    index = 3
    reps_per_s = 2.3
    tail_pct = 90.0  # every op simulates the same number of rounds
    slice_reps = 3
    warmup_ops = 3
    ROUNDS = 1000
    BATCH = 100
    ALPHA = 0.01
    setup_code = ("bq.run_two_agents(bq.fixture('stag_hunt'), "
                  "bq.Temperatures(1.0, 1.0), bq.SimConfig(rounds=10, record_every=5))")
    cli = [
        (["agents", "--fixture", "stag_hunt", "--rounds", "1000"],
         lambda out: [] if len(out.splitlines()) == 12 else ["cli_agents"]),
    ]

    def __init__(self, seed):
        super().__init__(seed)
        self._endpoint = {}

    def endpoint(self, name):
        """ODE endpoint from the simulator's uniform start (0.5, 0.5)."""
        if name not in self._endpoint:
            coeffs = bq.reduce_payoffs(bq.fixture(name), bq.Temperatures(1.0, 1.0))
            self._endpoint[name] = tuple(bq.integrate((0.5, 0.5), coeffs).final)
        return self._endpoint[name]

    def items(self, rep):
        rng = rng_for(self.seed, self.index, rep)
        seeds = rng.integers(0, 2 ** 63, len(FIXTURE_NAMES)).tolist()
        return [(FIXTURE_NAMES[i], seeds[i])
                for i in rng.permutation(len(FIXTURE_NAMES))]

    def op(self, tr, item):
        name, sim_seed = item
        cfg = bq.SimConfig(batch=self.BATCH, rounds=self.ROUNDS, seed=sim_seed,
                           record_every=100)
        return tr.call("simulate.run_two_agents", bq.run_two_agents,
                       bq.fixture(name), bq.Temperatures(1.0, 1.0), cfg,
                       alpha=self.ALPHA)

    def gap(self, item, traces) -> float:
        trace_x, trace_y = traces
        return oracles.sim_gap(trace_x.final_probs[0], trace_y.final_probs[0],
                               self.endpoint(item[0]))

    def check(self, item, traces):
        failures = []
        if traces[0].samples[-1][0] != self.ROUNDS:
            failures.append("rounds")
        if not self.gap(item, traces) <= oracles.SIM_GAP_TOL:
            failures.append("sim_gap")
        return failures

    def counts(self, item, traces):
        return (traces[0].samples[-1][0], len(traces[0].samples))

    def emit(self, tr, record):
        tr.call("fileio.trace_csv", fileio.trace_csv, *record.result)

    def layer_metrics(self, tr, records):
        runs = tr.seconds("simulate.run_two_agents")
        rounds = sum(r.result[0].samples[-1][0] for r in records)
        return {
            "simulate.us_per_round": (1e6 * sum(runs) / rounds, "us"),
            "simulate.run_ms_p50": (1e3 * median(runs), "ms"),
            "simulate.max_final_gap": (max(self.gap(r.item, r.result) for r in records), "prob"),
        }


WORKLOADS = {w.name: w for w in (RegionAtlas, PhasePortrait, BifurcationScan,
                                 StochasticCrosscheck)}


def self_check() -> dict[str, bool]:
    """Each oracle accepts a known-good answer and rejects a planted bad one."""
    game = bq.fixture("stag_hunt")
    coeffs = bq.reduce_payoffs(game, bq.Temperatures(0.5, 0.5))
    points = bq.find_rest_points(coeffs)
    (t_c, _), = bq.equal_temperature_criticals(game)
    count = count_at(game)
    traj = bq.integrate((1.0 / 3.0, 2.0 / 3.0), coeffs)
    final = (traj.final.x, traj.final.y)
    fake = (final[0] + 1e-3, final[1])
    t_exact = oracles.pitchfork_temperature()

    return {
        "restpoints_accepts_good": not oracles.restpoint_failures(coeffs, points, True),
        "restpoints_rejects_dropped_root": bool(oracles.restpoint_failures(coeffs, points[::2], True)),
        "fold_accepts_good": not oracles.fold_failures([t_c], count),
        "fold_rejects_shifted_tc": bool(oracles.fold_failures([t_c * (1.0 + 1e-6)], count)),
        "tc_accepts_exact": not oracles.tc_failures([t_exact], t_exact),
        "tc_rejects_shifted": bool(oracles.tc_failures([t_exact * (1.0 + 1e-6)], t_exact)),
        "endpoint_accepts_good": not oracles.endpoint_failures(final, traj.terminal_reason, points, False),
        "endpoint_rejects_fake": bool(oracles.endpoint_failures(fake, "converged", points, False)),
        "sim_gap_rejects_fake": oracles.sim_gap(final[0] + 0.1, final[1], final) > oracles.SIM_GAP_TOL,
    }
