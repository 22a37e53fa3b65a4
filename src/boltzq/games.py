"""Bimatrix games, exploration-scaled coefficients, equilibria and regions.

Payoff convention
-----------------
For BOTH matrices the row index is the owner's own action and the column
index is the opponent's action: ``A[i][j]`` is player X's reward when X
plays i and Y plays j, and ``B[i][j]`` is player Y's reward when Y plays i
and X plays j.  In particular a symmetric game has ``B == A`` (B is *not*
the transpose of A).  This is unusual for bimatrix notation, so it is worth
stating loudly.

The analysis of a 2x2 game at exploration rates (tx, ty) runs entirely
through four scaled coefficients::

    a = -(A21 + A12 - A11 - A22) / tx      b = (A12 - A22) / tx
    c = -(B21 + B12 - B11 - B22) / ty      d = (B12 - B22) / ty

(1-based indices).  ``a*y + b`` is X's advantage of action 1 over action 2
against a mixed opponent y, in units of X's temperature; likewise c, d for
Y.  The ratios b/a and d/c are temperature-free and determine the game's
qualitative class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .errors import (
    DegenerateGameError,
    DomainError,
    GameFormatError,
    NotApplicableError,
    NumericFailureError,
    UnsupportedDimensionError,
)

#: |a| or |c| below this (in temperature-free units) counts as degenerate.
DEGENERACY_EPS = 1e-12


def _as_float_grid(entries) -> tuple[tuple[float, ...], ...]:
    try:
        rows = tuple(tuple(float(v) for v in row) for row in entries)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"payoff entries are not numeric: {exc}") from exc
    return rows


@dataclass(frozen=True)
class PayoffMatrix:
    """Square grid of rewards; row = own action, column = opponent action."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = _as_float_grid(self.entries)
        n = len(rows)
        if n < 2 or any(len(r) != n for r in rows):
            raise GameFormatError("payoff matrix must be square with n >= 2")
        if any(not math.isfinite(v) for r in rows for v in r):
            raise GameFormatError("payoff entries must be finite")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def at(self, i: int, j: int) -> float:
        return self.entries[i][j]

    def as_lists(self) -> list[list[float]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class Game:
    """A two-player game: X's payoffs, Y's payoffs, and a display name."""

    name: str
    payoff_x: PayoffMatrix
    payoff_y: PayoffMatrix

    def __post_init__(self):
        if self.payoff_x.n != self.payoff_y.n:
            raise GameFormatError("payoff matrices must share one dimension")

    @property
    def n(self) -> int:
        return self.payoff_x.n

    @classmethod
    def from_matrices(cls, name, a_entries, b_entries) -> "Game":
        return cls(name, PayoffMatrix(tuple(map(tuple, a_entries))),
                   PayoffMatrix(tuple(map(tuple, b_entries))))

    @classmethod
    def from_dict(cls, data: dict) -> "Game":
        if not isinstance(data, dict):
            raise GameFormatError("game description must be a JSON object")
        missing = {"name", "A", "B"} - set(data)
        if missing:
            raise GameFormatError(f"game description missing keys: {sorted(missing)}")
        return cls.from_matrices(str(data["name"]), data["A"], data["B"])

    def to_dict(self) -> dict:
        return {"name": self.name, "A": self.payoff_x.as_lists(),
                "B": self.payoff_y.as_lists()}


def load_game(path) -> Game:
    """Read a game from a JSON file ``{"name":..., "A":..., "B":...}``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"cannot read game file {path}: {exc}") from exc
    return Game.from_dict(data)


def _require_temperature(temp: float) -> None:
    """The one exploration-rate check: finite and strictly positive."""
    if not (temp > 0.0 and math.isfinite(temp)):
        raise DomainError(f"temperature must be finite and > 0, got {temp}")


@dataclass(frozen=True)
class Temperatures:
    """Strictly positive exploration rates for the two players."""

    tx: float
    ty: float

    def __post_init__(self):
        _require_temperature(self.tx)
        _require_temperature(self.ty)

    @classmethod
    def equal(cls, t: float) -> "Temperatures":
        return cls(t, t)


@dataclass(frozen=True)
class ReducedCoefficients:
    """Temperature-scaled advantage coefficients of a 2x2 game.

    ``raw_*`` are the temperature-free numerators (raw_a = a*tx, ...), kept
    so that sweeps can re-scale exactly instead of re-deriving from payoffs.
    """

    a: float
    b: float
    c: float
    d: float
    raw_a: float
    raw_b: float
    raw_c: float
    raw_d: float
    tx: float
    ty: float

    def __post_init__(self):
        values = (self.a, self.b, self.c, self.d,
                  self.raw_a, self.raw_b, self.raw_c, self.raw_d)
        if not all(map(math.isfinite, values)):
            raise DomainError("scaled coefficients must be finite (payoffs "
                              "overflow at these temperatures)")

    @property
    def b_over_a(self) -> float:
        if abs(self.raw_a) < DEGENERACY_EPS:
            raise DegenerateGameError("b/a undefined: a vanishes")
        return self.raw_b / self.raw_a

    @property
    def d_over_c(self) -> float:
        if abs(self.raw_c) < DEGENERACY_EPS:
            raise DegenerateGameError("d/c undefined: c vanishes")
        return self.raw_d / self.raw_c

    def at_temperatures(self, tx: float, ty: float) -> "ReducedCoefficients":
        """Same game, different exploration rates."""
        temps = Temperatures(tx, ty)
        return replace(self,
                       a=self.raw_a / temps.tx, b=self.raw_b / temps.tx,
                       c=self.raw_c / temps.ty, d=self.raw_d / temps.ty,
                       tx=temps.tx, ty=temps.ty)

    @classmethod
    def from_values(cls, a, b, c, d, tx=1.0, ty=1.0) -> "ReducedCoefficients":
        """Build directly from scaled values (raw_* = value * temperature)."""
        return cls(a, b, c, d, a * tx, b * tx, c * ty, d * ty, tx, ty)


def _raw_coefficients(game: Game) -> tuple[float, float, float, float]:
    if game.n != 2:
        raise UnsupportedDimensionError(
            f"analytic operations need a 2x2 game, got {game.n}x{game.n}")
    A = game.payoff_x.entries
    B = game.payoff_y.entries
    raw_a = -(A[1][0] + A[0][1] - A[0][0] - A[1][1])
    raw_b = A[0][1] - A[1][1]
    raw_c = -(B[1][0] + B[0][1] - B[0][0] - B[1][1])
    raw_d = B[0][1] - B[1][1]
    return raw_a, raw_b, raw_c, raw_d


def reduce_payoffs(game: Game, temps: Temperatures) -> ReducedCoefficients:
    """Scaled coefficients (a, b, c, d) of a 2x2 game at given temperatures."""
    raw_a, raw_b, raw_c, raw_d = _raw_coefficients(game)
    return ReducedCoefficients(
        a=raw_a / temps.tx, b=raw_b / temps.tx,
        c=raw_c / temps.ty, d=raw_d / temps.ty,
        raw_a=raw_a, raw_b=raw_b, raw_c=raw_c, raw_d=raw_d,
        tx=temps.tx, ty=temps.ty)


class EquilibriumKind(str, Enum):
    PURE = "pure"
    MIXED = "mixed"


@dataclass(frozen=True)
class NashEquilibrium:
    """Joint strategy (x, y) = probabilities of each player's first action."""

    x: float
    y: float
    kind: EquilibriumKind


def _expected_x(game: Game, x: float, y: float) -> float:
    A = game.payoff_x.entries
    return (x * (y * A[0][0] + (1 - y) * A[0][1])
            + (1 - x) * (y * A[1][0] + (1 - y) * A[1][1]))


def _expected_y(game: Game, x: float, y: float) -> float:
    B = game.payoff_y.entries
    return (y * (x * B[0][0] + (1 - x) * B[0][1])
            + (1 - y) * (x * B[1][0] + (1 - x) * B[1][1]))


def _is_equilibrium(game: Game, x: float, y: float, tol: float = 1e-12) -> bool:
    """No pure unilateral deviation gains more than tol.

    Checking the two pure deviations per player suffices: expected reward is
    linear in each player's own mixture.
    """
    base_x = _expected_x(game, x, y)
    base_y = _expected_y(game, x, y)
    return (base_x >= _expected_x(game, 1.0, y) - tol
            and base_x >= _expected_x(game, 0.0, y) - tol
            and base_y >= _expected_y(game, x, 1.0) - tol
            and base_y >= _expected_y(game, x, 0.0) - tol)


def nash_equilibria(game: Game) -> list[NashEquilibrium]:
    """All Nash equilibria of a 2x2 game: pure ones by best-response
    enumeration plus the interior mixed one when it exists.

    The interior equilibrium sits where each player's indifference pins the
    *other* player's mixture: X is indifferent at y* = -b/a, Y at x* = -d/c.

    Raises :class:`DegenerateGameError` (with ``continuum=True``) when a
    player is indifferent against every opponent strategy, in which case
    equilibria form a continuum rather than a finite list.
    """
    raw_a, raw_b, raw_c, raw_d = _raw_coefficients(game)
    if ((abs(raw_a) < DEGENERACY_EPS and abs(raw_b) < DEGENERACY_EPS)
            or (abs(raw_c) < DEGENERACY_EPS and abs(raw_d) < DEGENERACY_EPS)):
        raise DegenerateGameError(
            "a player is indifferent for every opponent strategy; "
            "equilibria form a continuum", continuum=True)

    found: list[NashEquilibrium] = []
    A = game.payoff_x.entries
    B = game.payoff_y.entries
    for i in (0, 1):
        for j in (0, 1):
            if (A[i][j] >= A[1 - i][j] - 1e-12
                    and B[j][i] >= B[1 - j][i] - 1e-12):
                found.append(NashEquilibrium(
                    x=1.0 if i == 0 else 0.0,
                    y=1.0 if j == 0 else 0.0,
                    kind=EquilibriumKind.PURE))

    if abs(raw_a) >= DEGENERACY_EPS and abs(raw_c) >= DEGENERACY_EPS:
        y_star = -raw_b / raw_a
        x_star = -raw_d / raw_c
        if 0.0 < x_star < 1.0 and 0.0 < y_star < 1.0:
            found.append(NashEquilibrium(x_star, y_star, EquilibriumKind.MIXED))

    for ne in found:
        if not _is_equilibrium(game, ne.x, ne.y):  # pragma: no cover
            raise NumericFailureError(f"candidate equilibrium {ne} failed "
                                      "its own deviation check")
    return found


def risk_dominant_profile(game: Game) -> Optional[NashEquilibrium]:
    """The risk-dominant pure equilibrium of a coordination-type game.

    Applicable to 2x2 games with exactly two pure equilibria in opposite
    cells (for anti-coordination games Y's actions are relabeled first to
    bring them onto the diagonal).  With equilibria at (1,1) and (2,2),
    profile (1,1) is risk dominant when its product of unilateral deviation
    losses is strictly larger::

        (A11 - A21)(B11 - B21)  >  (A22 - A12)(B22 - B12)

    Equivalently, in a symmetric game the risk-dominant action earns more
    against a uniformly mixing opponent.  Returns ``None`` on ties.
    """
    pure = [ne for ne in nash_equilibria(game) if ne.kind is EquilibriumKind.PURE]
    if len(pure) != 2:
        raise NotApplicableError(
            "risk dominance needs exactly two pure equilibria, "
            f"got {len(pure)}")
    (p, q) = pure
    if not (p.x != q.x and p.y != q.y):
        raise NotApplicableError("pure equilibria are not in opposite cells")

    A = game.payoff_x.entries
    B = game.payoff_y.entries
    diag = {(p.x, p.y), (q.x, q.y)}
    if diag == {(1.0, 1.0), (0.0, 0.0)}:
        flip_y = False
    else:
        # Anti-coordination: relabel Y's actions (swap B's rows, A's columns).
        A = tuple((row[1], row[0]) for row in A)
        B = (B[1], B[0])
        flip_y = True

    loss_11 = (A[0][0] - A[1][0]) * (B[0][0] - B[1][0])
    loss_22 = (A[1][1] - A[0][1]) * (B[1][1] - B[0][1])
    if loss_11 > loss_22:
        x, y = 1.0, 1.0
    elif loss_22 > loss_11:
        x, y = 0.0, 0.0
    else:
        return None
    if flip_y:
        y = 1.0 - y
    return NashEquilibrium(x, y, EquilibriumKind.PURE)


class GameRegionLabel(str, Enum):
    SINGLE_REST_POINT_ONLY = "SingleRestPointOnly"
    MULTI_NE_TRIPLE_POSSIBLE = "MultiNE_TriplePossible"
    SINGLE_NE_TRIPLE_POSSIBLE = "SingleNE_TriplePossible"
    NUMERIC_BOUNDARY = "NumericBoundary"


@dataclass(frozen=True)
class GameRegion:
    """Qualitative rest-point region of a game in the (b/a, d/c) plane."""

    label: GameRegionLabel
    detail: str
    boundary: Optional[float] = None
    triple_possible: Optional[bool] = None


def classify_region(coeffs: ReducedCoefficients) -> GameRegion:
    """Classify how many interior rest points a game can exhibit across all
    positive exploration-rate pairs.

    The map lives on the temperature-free ratios (beta, delta) =
    (b/a, d/c).  With opposite advantage slopes (ac < 0) the rest point is
    always unique.  Otherwise the game is first normalized to an a, c > 0
    frame by relabeling both players' X-side actions, which keeps beta and
    sends delta to -1 - delta; in that frame:

    * both ratios in (-1, 0): three Nash equilibria, triple rest points
      possible (coordination, and anti-coordination before normalization);
    * the four stripes ``beta >= 0, delta in (-1,-1/2)``,
      ``beta <= -1, delta in (-1/2,0)``, ``delta >= 0, beta in (-1,-1/2)``,
      ``delta <= -1, beta in (-1/2,0)``: single NE but triples occur for a
      window of temperatures;
    * the corner quadrants ``beta >= 0, delta <= -1`` (and mirrored): the
      triple region's edge has no closed form; the boundary value of -b/a
      is the lowest tangent intercept of the rest-point curve over every
      ty > 0, found exactly by two bisections
      (:func:`boltzq.bifurcation.corner_boundary`), and attached to the
      result;
    * everywhere else: a single rest point for all temperatures.

    Ratio values exactly on stripe edges are classified with the adjacent
    single-rest-point case, matching the strict inequalities above.
    """
    if abs(coeffs.raw_a) < DEGENERACY_EPS or abs(coeffs.raw_c) < DEGENERACY_EPS:
        raise DegenerateGameError("region undefined: a or c vanishes")
    if coeffs.raw_a * coeffs.raw_c < 0.0:
        return GameRegion(
            GameRegionLabel.SINGLE_REST_POINT_ONLY,
            "a and c have opposite signs: one advantage curve rises while "
            "the other falls, so exactly one interior rest point exists")

    beta = coeffs.b_over_a
    delta = coeffs.d_over_c
    anti = coeffs.raw_a < 0.0
    if anti:
        delta = -1.0 - delta  # relabel to the a, c > 0 frame
    frame = " (anti-coordination sign frame)" if anti else ""

    if -1.0 < beta < 0.0 and -1.0 < delta < 0.0:
        return GameRegion(
            GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE,
            "both ratios inside the open unit box: three Nash equilibria; "
            "up to three rest points at low exploration" + frame)

    in_stripe = ((beta >= 0.0 and -1.0 < delta < -0.5)
                 or (beta <= -1.0 and -0.5 < delta < 0.0)
                 or (delta >= 0.0 and -1.0 < beta < -0.5)
                 or (delta <= -1.0 and -0.5 < beta < 0.0))
    if in_stripe:
        return GameRegion(
            GameRegionLabel.SINGLE_NE_TRIPLE_POSSIBLE,
            "single Nash equilibrium, but a temperature window with three "
            "rest points exists" + frame)

    if beta >= 0.0 and delta <= -1.0:
        from .bifurcation import corner_boundary
        bound = corner_boundary(delta)  # the lowest reachable tangent intercept
        return GameRegion(
            GameRegionLabel.NUMERIC_BOUNDARY,
            "corner quadrant: triple rest points need both exploration "
            "rates strictly positive and occur only while -b/a stays above "
            "the numeric tangent-intercept bound" + frame,
            boundary=bound, triple_possible=bool(bound < -beta))
    if beta <= -1.0 and delta >= 0.0:
        from .bifurcation import corner_boundary
        bound = corner_boundary(beta)  # players exchange roles
        return GameRegion(
            GameRegionLabel.NUMERIC_BOUNDARY,
            "mirrored corner quadrant (players exchange roles): numeric "
            "tangent-intercept bound applies to -d/c" + frame,
            boundary=bound, triple_possible=bool(bound < -delta))

    return GameRegion(
        GameRegionLabel.SINGLE_REST_POINT_ONLY,
        "ratios outside every multi-rest-point region: the advantage line "
        "can never become tangent to the response curve" + frame)
