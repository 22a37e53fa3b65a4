"""Hand-rolled SVG 1.1 emission for phase portraits; no plotting deps."""

from __future__ import annotations

SIZE = 640
MARGIN = 60

_STABILITY_COLORS = {
    "stable_node": "#1a7f37",
    "stable_spiral": "#1f6feb",
    "saddle_unstable": "#cf222e",
}


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data, as
    ``xml.sax.saxutils.escape`` does (whose import pulls in urllib)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _px(x: float) -> float:
    return MARGIN + x * (SIZE - 2 * MARGIN)


def _py(y: float) -> float:
    return SIZE - MARGIN - y * (SIZE - 2 * MARGIN)


def phase_portrait_svg(trajectories, rest_points, title: str) -> str:
    """Unit-square phase portrait: trajectory polylines plus rest points."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SIZE - 2 * MARGIN}" '
        f'height="{SIZE - 2 * MARGIN}" fill="none" stroke="black"/>',
        f'<text x="{SIZE / 2}" y="{MARGIN / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _px(tick)
        y = _py(tick)
        parts.append(f'<line x1="{x}" y1="{SIZE - MARGIN}" x2="{x}" '
                     f'y2="{SIZE - MARGIN + 6}" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{SIZE - MARGIN + 22}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{tick:g}</text>')
        parts.append(f'<line x1="{MARGIN - 6}" y1="{y}" x2="{MARGIN}" '
                     f'y2="{y}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 10}" y="{y + 4}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="12">{tick:g}</text>')
    parts.append(f'<text x="{SIZE / 2}" y="{SIZE - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">x</text>')
    parts.append(f'<text x="16" y="{SIZE / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 16 {SIZE / 2})">y</text>')

    for traj in trajectories:
        coords = " ".join(f"{_px(x):.2f},{_py(y):.2f}"
                          for _, x, y in traj.samples)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="#57606a" stroke-width="1"/>')
        x0, y0 = traj.xs[0], traj.ys[0]
        parts.append(f'<circle cx="{_px(x0):.2f}" cy="{_py(y0):.2f}" r="2" '
                     f'fill="#57606a"/>')

    for point in rest_points:
        color = _STABILITY_COLORS.get(point.stability, "black")
        parts.append(f'<circle cx="{_px(point.x):.2f}" cy="{_py(point.y):.2f}"'
                     f' r="6" fill="{color}" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
