"""Command-line surface: classify | simulate | agents | restpoints | sweep
| critical | portrait.

Each command imports the modules it calls, so a process loads only its
command's code.  Every command loads ``fixtures``, ``games``, ``numerics``
and ``fileio``.  ``restpoints`` adds ``restpoints``; ``sweep`` and
``critical`` add ``bifurcation`` and ``restpoints``; ``simulate`` adds
``dynamics`` and ``restpoints``, and ``portrait`` those and ``svg``;
``agents`` adds ``dynamics`` and ``simulate``.  Only those last three
import numpy.  ``classify`` adds ``bifurcation`` only for a game in a
corner quadrant, whose region needs the tangent-intercept bound.

Games come from ``--game game.json`` (object with "name", "A", "B"; row =
own action) or ``--fixture NAME``.  Each ``cmd_*`` returns its main
output text, which :func:`main` writes once to ``--out`` (stdout by
default); side outputs (``agents``' ``.meta.json``, ``portrait``'s
``--csv``, the stderr summaries of ``sweep`` and ``critical``) stay in
their command.  Exit codes: 0 success, 2 malformed input or inapplicable
request, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import fileio
from .errors import BoltzqError, NotApplicableError, NumericFailureError
from .fixtures import FIXTURES, fixture
from .games import (Game, ReducedCoefficients, Temperatures, classify_region,
                    load_game, nash_equilibria, reduce_payoffs,
                    risk_dominant_profile)
from .numerics import _as_count, geomspace

if TYPE_CHECKING:
    from .dynamics import IntegratorConfig


def _command(sub, name: str, func, help_text: str,
             temperatures: bool = True) -> argparse.ArgumentParser:
    """The subcommand ``name`` with --game, --fixture and --out, and --tx
    and --ty unless it picks its own temperatures; ``func(args)`` returns
    the text that :func:`main` writes to --out."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("--game", help="path to a game JSON file")
    parser.add_argument("--fixture", choices=sorted(FIXTURES),
                        help="name of a built-in game")
    parser.add_argument("--out", help="output path (default: stdout)")
    if temperatures:
        parser.add_argument("--tx", type=float, default=1.0,
                            help="exploration rate of player X (default 1)")
        parser.add_argument("--ty", type=float, default=1.0,
                            help="exploration rate of player Y (default 1)")
    parser.set_defaults(func=func)
    return parser


def _resolve_game(args) -> Game:
    if args.game and args.fixture:
        raise BoltzqError("pass either --game or --fixture, not both")
    if args.game:
        return load_game(args.game)
    if args.fixture:
        return fixture(args.fixture)
    raise BoltzqError("a game is required: pass --game PATH or --fixture NAME")


def _resolve_coefficients(args) -> tuple[Game, ReducedCoefficients]:
    """The game and its coefficients at --tx and --ty."""
    game = _resolve_game(args)
    return game, reduce_payoffs(game, Temperatures(args.tx, args.ty))


def _integrator_config(args) -> IntegratorConfig:
    from .dynamics import IntegratorConfig
    return (IntegratorConfig() if args.t_max is None
            else IntegratorConfig(max_time=args.t_max))


def cmd_classify(args) -> str:
    game, coeffs = _resolve_coefficients(args)
    region = classify_region(coeffs)
    try:
        risk = risk_dominant_profile(game)
        risk_payload = ({"x": risk.x, "y": risk.y} if risk is not None else None)
    except NotApplicableError:
        risk_payload = "not_applicable"
    payload = {
        "game": game.name,
        "coefficients": {"a": coeffs.a, "b": coeffs.b,
                         "c": coeffs.c, "d": coeffs.d,
                         "tx": coeffs.tx, "ty": coeffs.ty},
        "region": {
            "label": region.label.value,
            "detail": region.detail,
            "boundary": region.boundary,
            "triple_possible": region.triple_possible,
        },
        "nash_equilibria": [{"x": ne.x, "y": ne.y, "kind": ne.kind.value}
                            for ne in nash_equilibria(game)],
        "risk_dominant": risk_payload,
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_simulate(args) -> str:
    import numpy as np

    from .dynamics import integrate, integrate_batch
    _game, coeffs = _resolve_coefficients(args)
    cfg = _integrator_config(args)
    if args.starts is not None:
        rng = np.random.default_rng(_as_count(args.seed, "--seed", 0))
        count = _as_count(args.starts, "--starts")
        starts = rng.uniform(0.02, 0.98, size=(count, 2))
        finals, _reason = integrate_batch(starts, coeffs, cfg)
        return fileio.terminal_points_csv(starts, finals)
    return fileio.trajectory_csv(integrate((args.x0, args.y0), coeffs, cfg))


def cmd_agents(args) -> str:
    from .simulate import SimConfig, run_two_agents
    game = _resolve_game(args)
    temps = Temperatures(args.tx, args.ty)
    cfg = SimConfig(batch=args.batch, rounds=args.rounds, seed=args.seed,
                    record_every=args.record_every)
    trace_x, trace_y = run_two_agents(game, temps, cfg, alpha=args.alpha)
    if args.out is not None:
        fileio.write_text(args.out + ".meta.json",
                          fileio.trace_metadata_json(trace_x))
    return fileio.trace_csv(trace_x, trace_y)


def cmd_restpoints(args) -> str:
    from .restpoints import find_rest_points
    _game, coeffs = _resolve_coefficients(args)
    return fileio.rest_points_json(find_rest_points(coeffs))


def cmd_sweep(args) -> str:
    from .bifurcation import sweep_equal_temperature
    game = _resolve_game(args)
    diagram = sweep_equal_temperature(game, args.t_min, args.t_max,
                                      args.steps)
    summary = {"critical_temperatures": diagram.critical_temperatures,
               "pitchfork_kind": diagram.pitchfork_kind}
    print(json.dumps(summary), file=sys.stderr)
    return fileio.sweep_csv(diagram)


def cmd_critical(args) -> str:
    from .bifurcation import critical_curve
    game = _resolve_game(args)
    orientation = ("tx_window_vs_ty" if args.orientation == "tx"
                   else "ty_window_vs_tx")
    grid = geomspace(args.fixed_min, args.fixed_max,
                     _as_count(args.fixed_steps, "--fixed-steps"))
    curve = critical_curve(game, grid, orientation)
    summary = {"closing_temperature": curve.closing_temperature}
    print(json.dumps(summary), file=sys.stderr)
    return fileio.critical_csv(curve)


def cmd_portrait(args) -> str:
    import numpy as np

    from .dynamics import integrate
    from .restpoints import find_rest_points
    from .svg import phase_portrait_svg
    game, coeffs = _resolve_coefficients(args)
    cfg = _integrator_config(args)
    count = _as_count(args.grid, "--grid")
    margin = 1.0 / (count + 1.0)
    axis = np.linspace(margin, 1.0 - margin, count)
    trajectories = [integrate((float(x0), float(y0)), coeffs, cfg)
                    for x0 in axis for y0 in axis]
    points = find_rest_points(coeffs)
    title = f"{game.name}  (tx={coeffs.tx:g}, ty={coeffs.ty:g})"
    if args.csv is not None:
        fileio.write_text(args.csv, fileio.portrait_csv(trajectories))
    return phase_portrait_svg(trajectories, points, title)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boltzq",
        description="Softmax learning dynamics in two-action games: rest "
                    "points, trajectories, bifurcations.")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "classify", cmd_classify,
             "region, equilibria, risk dominance")
    p = _command(sub, "simulate", cmd_simulate, "integrate the learning flow")
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--starts", type=int, default=None,
                   help="integrate this many random starts; emit terminals")
    p.add_argument("--seed", type=int, default=0)
    p = _command(sub, "agents", cmd_agents, "stochastic two-agent learning run")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--rounds", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record-every", type=int, default=100)
    _command(sub, "restpoints", cmd_restpoints,
             "all interior rest points as JSON")
    p = _command(sub, "sweep", cmd_sweep,
                 "equal-temperature bifurcation diagram", temperatures=False)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=80)
    p = _command(sub, "critical", cmd_critical,
                 "three-rest-point temperature windows", temperatures=False)
    p.add_argument("--orientation", choices=("tx", "ty"), default="tx",
                   help="which temperature the window is measured in")
    p.add_argument("--fixed-min", type=float, default=1e-3)
    p.add_argument("--fixed-max", type=float, default=2.0)
    p.add_argument("--fixed-steps", type=int, default=12)
    p = _command(sub, "portrait", cmd_portrait,
                 "phase portrait SVG from a start grid")
    p.add_argument("--grid", type=int, default=7)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--csv", help="also write trajectories as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fileio.write_text(args.out, args.func(args))
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (BoltzqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
