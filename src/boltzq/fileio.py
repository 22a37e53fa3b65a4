"""CSV/JSON emission for trajectories, traces, sweeps and rest points.

All numeric fields are written with ``%.17g``: 17 significant digits are
enough for a float64 round trip, so re-parsing an emitted file reproduces
the values bit for bit, independent of locale.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from .errors import DomainError

if TYPE_CHECKING:  # annotations only, so each command loads just its own
    from .bifurcation import BifurcationDiagram, CriticalCurve
    from .dynamics import Trajectory
    from .restpoints import RestPoint
    from .simulate import EmpiricalTrace


def fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv(header: str, rows) -> str:
    """The one CSV format: the header line, then one line per row of
    comma-separated fields, each float through :func:`fmt`, None as an
    empty field and anything else through ``str``; every line ends in LF."""
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float)
                              else "" if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    return _csv("t,x,y", traj.samples)


def parse_trajectory_csv(text: str) -> list[tuple[float, float, float]]:
    """The (t, x, y) rows of :func:`trajectory_csv`'s output; a missing
    header, or a row that is not three floats, is a :class:`DomainError`
    that names its line."""
    rows = text.strip().splitlines()
    if not rows or rows[0] != "t,x,y":
        raise DomainError("not a trajectory CSV: line 1 is not 't,x,y'")
    parsed = []
    for number, line in enumerate(rows[1:], start=2):
        try:
            t, x, y = (float(v) for v in line.split(","))
        except ValueError:
            raise DomainError(f"line {number} is not three floats: "
                              f"{line!r}") from None
        parsed.append((t, x, y))
    return parsed


def terminal_points_csv(starts, finals) -> str:
    return _csv("start_x,start_y,x,y",
                ((sx, sy, x, y) for (sx, sy), (x, y) in zip(starts, finals)))


def trace_csv(trace_x: EmpiricalTrace, trace_y: EmpiricalTrace) -> str:
    return _csv("round,x,y", ((rnd, px[0], py[0]) for (rnd, px), (_, py)
                              in zip(trace_x.samples, trace_y.samples)))


def trace_metadata_json(trace: EmpiricalTrace) -> str:
    meta = dict(trace.metadata)
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"


def rest_points_json(points: list[RestPoint]) -> str:
    payload = [
        {
            "x": p.x, "y": p.y, "u": p.u, "v": p.v,
            "eig": [[lam.real, lam.imag] for lam in p.eigenvalues],
            "stability": p.stability,
            "residual": p.residual,
        }
        for p in points
    ]
    return json.dumps(payload, indent=2) + "\n"


def sweep_csv(diagram: BifurcationDiagram) -> str:
    return _csv("T,x,y,stability,branch_id",
                ((temp, point.x, point.y, point.stability, branch_id)
                 for branch_id, branch in enumerate(diagram.branches)
                 for temp, point in branch))


def critical_csv(curve: CriticalCurve) -> str:
    return _csv("T_fixed,Tc_minus,Tc_plus", curve.samples)


def portrait_csv(trajectories: list[Trajectory]) -> str:
    return _csv("traj,t,x,y", ((idx, *sample)
                               for idx, traj in enumerate(trajectories)
                               for sample in traj.samples))


def write_text(path: Optional[str], text: str) -> None:
    if path is None:
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
