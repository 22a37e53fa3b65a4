"""Command-line surface: classify | simulate | agents | restpoints | sweep
| critical | portrait.

Only ``simulate``, ``portrait`` and ``agents`` import numpy (through the
trajectory and simulator modules); the other commands are scalar work.

Games come from ``--game game.json`` (object with "name", "A", "B"; row =
own action) or ``--fixture NAME``.  Exit codes: 0 success, 2 malformed
input or inapplicable request, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import bifurcation, fileio, svg
from .errors import (BoltzqError, DomainError, NotApplicableError,
                     NumericFailureError)
from .fixtures import FIXTURES, fixture
from .games import (Game, ReducedCoefficients, Temperatures, classify_region,
                    load_game, nash_equilibria, reduce_payoffs,
                    risk_dominant_profile)
from .numerics import geomspace
from .restpoints import find_rest_points

if TYPE_CHECKING:
    from .dynamics import IntegratorConfig, Trajectory


def _add_game_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--game", help="path to a game JSON file")
    parser.add_argument("--fixture", choices=sorted(FIXTURES),
                        help="name of a built-in game")
    parser.add_argument("--out", help="output path (default: stdout)")


def _add_temperature_args(parser: argparse.ArgumentParser) -> None:
    """--tx and --ty, for the commands that run at fixed temperatures."""
    parser.add_argument("--tx", type=float, default=1.0,
                        help="exploration rate of player X (default 1)")
    parser.add_argument("--ty", type=float, default=1.0,
                        help="exploration rate of player Y (default 1)")


def _require_count(value: int, flag: str) -> int:
    """A count option must be at least 1, else :class:`DomainError`."""
    if value < 1:
        raise DomainError(f"{flag} must be >= 1, got {value}")
    return value


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
    kwargs = {}
    if getattr(args, "t_max", None) is not None:
        kwargs["max_time"] = args.t_max
    return IntegratorConfig(**kwargs)


def cmd_classify(args) -> int:
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
    fileio.write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    from .dynamics import integrate, integrate_batch
    _game, coeffs = _resolve_coefficients(args)
    cfg = _integrator_config(args)
    if args.starts is not None:
        rng = np.random.default_rng(args.seed)
        count = _require_count(args.starts, "--starts")
        starts = rng.uniform(0.02, 0.98, size=(count, 2))
        finals, _reason = integrate_batch(starts, coeffs, cfg)
        fileio.write_text(args.out, fileio.terminal_points_csv(starts, finals))
    else:
        traj = integrate((args.x0, args.y0), coeffs, cfg)
        fileio.write_text(args.out, fileio.trajectory_csv(traj))
    return 0


def cmd_agents(args) -> int:
    from .simulate import SimConfig, run_two_agents
    game = _resolve_game(args)
    temps = Temperatures(args.tx, args.ty)
    cfg = SimConfig(batch=args.batch, rounds=args.rounds, seed=args.seed,
                    record_every=args.record_every)
    trace_x, trace_y = run_two_agents(game, temps, cfg, alpha=args.alpha)
    fileio.write_text(args.out, fileio.trace_csv(trace_x, trace_y))
    if args.out is not None:
        fileio.write_text(args.out + ".meta.json",
                          fileio.trace_metadata_json(trace_x))
    return 0


def cmd_restpoints(args) -> int:
    _game, coeffs = _resolve_coefficients(args)
    points = find_rest_points(coeffs)
    fileio.write_text(args.out, fileio.rest_points_json(points))
    return 0


def cmd_sweep(args) -> int:
    game = _resolve_game(args)
    diagram = bifurcation.sweep_equal_temperature(
        game, args.t_min, args.t_max, args.steps)
    fileio.write_text(args.out, fileio.sweep_csv(diagram))
    summary = {"critical_temperatures": diagram.critical_temperatures,
               "pitchfork_kind": diagram.pitchfork_kind}
    print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_critical(args) -> int:
    game = _resolve_game(args)
    orientation = ("tx_window_vs_ty" if args.orientation == "tx"
                   else "ty_window_vs_tx")
    grid = geomspace(args.fixed_min, args.fixed_max,
                     _require_count(args.fixed_steps, "--fixed-steps"))
    curve = bifurcation.critical_curve(game, grid, orientation)
    fileio.write_text(args.out, fileio.critical_csv(curve))
    summary = {"closing_temperature": curve.closing_temperature}
    print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_portrait(args) -> int:
    import numpy as np

    from .dynamics import integrate
    game, coeffs = _resolve_coefficients(args)
    cfg = _integrator_config(args)
    count = _require_count(args.grid, "--grid")
    margin = 1.0 / (count + 1.0)
    axis = np.linspace(margin, 1.0 - margin, count)
    trajectories: list[Trajectory] = []
    for x0 in axis:
        for y0 in axis:
            trajectories.append(integrate((float(x0), float(y0)), coeffs, cfg))
    points = find_rest_points(coeffs)
    title = f"{game.name}  (tx={coeffs.tx:g}, ty={coeffs.ty:g})"
    fileio.write_text(args.out, svg.phase_portrait_svg(trajectories, points,
                                                       title))
    if args.csv is not None:
        fileio.write_text(args.csv, fileio.portrait_csv(trajectories))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boltzq",
        description="Softmax learning dynamics in two-action games: rest "
                    "points, trajectories, bifurcations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="region, equilibria, risk dominance")
    _add_game_args(p)
    _add_temperature_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="integrate the learning flow")
    _add_game_args(p)
    _add_temperature_args(p)
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--starts", type=int, default=None,
                   help="integrate this many random starts; emit terminals")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("agents", help="stochastic two-agent learning run")
    _add_game_args(p)
    _add_temperature_args(p)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--rounds", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--record-every", type=int, default=100)
    p.set_defaults(func=cmd_agents)

    p = sub.add_parser("restpoints", help="all interior rest points as JSON")
    _add_game_args(p)
    _add_temperature_args(p)
    p.set_defaults(func=cmd_restpoints)

    p = sub.add_parser("sweep", help="equal-temperature bifurcation diagram")
    _add_game_args(p)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=80)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical", help="three-rest-point temperature windows")
    _add_game_args(p)
    p.add_argument("--orientation", choices=("tx", "ty"), default="tx",
                   help="which temperature the window is measured in")
    p.add_argument("--fixed-min", type=float, default=1e-3)
    p.add_argument("--fixed-max", type=float, default=2.0)
    p.add_argument("--fixed-steps", type=int, default=12)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("portrait", help="phase portrait SVG from a start grid")
    _add_game_args(p)
    _add_temperature_args(p)
    p.add_argument("--grid", type=int, default=7)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--csv", help="also write trajectories as CSV")
    p.set_defaults(func=cmd_portrait)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (BoltzqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
