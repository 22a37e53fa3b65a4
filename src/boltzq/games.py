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

Every payoff decision is made once, from its own terms, with no absolute
threshold: a payoff is compared with its deviation exactly, and a sum of
payoffs is zero only within their rounding
(:func:`boltzq.numerics.rounds_to_zero`).  So multiplying every payoff by
a power of two, which is exact, changes no equilibrium and no region.
"""

from __future__ import annotations

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
from .numerics import _as_float, _require_temperature, rounds_to_zero


@dataclass(frozen=True)
class PayoffMatrix:
    """Square grid of rewards; row = own action, column = opponent action."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(tuple(float(v) for v in row) for row in self.entries)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GameFormatError(
                f"payoff entries are not numeric: {exc}") from exc
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
        return cls(name, PayoffMatrix(a_entries), PayoffMatrix(b_entries))

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
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GameFormatError(f"cannot read game file {path}: {exc}") from exc
    return Game.from_dict(data)


@dataclass(frozen=True)
class Temperatures:
    """Strictly positive exploration rates for the two players, stored as
    Python floats."""

    tx: float
    ty: float

    def __post_init__(self):
        object.__setattr__(self, "tx", _require_temperature(self.tx))
        object.__setattr__(self, "ty", _require_temperature(self.ty))

    @classmethod
    def equal(cls, t: float) -> "Temperatures":
        return cls(t, t)


@dataclass(frozen=True)
class ReducedCoefficients:
    """Temperature-scaled advantage coefficients of a 2x2 game.

    The record holds the temperature-free numerators ``raw_*`` and the
    exploration rates, so that sweeps re-scale exactly instead of
    re-deriving from payoffs.  All six are stored as Python floats (a
    value that ``float`` refuses raises :class:`DomainError`), so numpy
    scalars never reach the scalar kernel.  The scaled coefficients ``a =
    raw_a/tx``, ``b = raw_b/tx``, ``c = raw_c/ty`` and ``d = raw_d/ty``
    are derived once, after the temperatures pass
    :func:`~boltzq.numerics._require_temperature`; they are plain
    attributes, not fields, so no record can disagree with them.
    """

    raw_a: float
    raw_b: float
    raw_c: float
    raw_d: float
    tx: float
    ty: float

    def __post_init__(self):
        for name in ("raw_a", "raw_b", "raw_c", "raw_d"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
        object.__setattr__(self, "tx", _require_temperature(self.tx))
        object.__setattr__(self, "ty", _require_temperature(self.ty))
        object.__setattr__(self, "a", self.raw_a / self.tx)
        object.__setattr__(self, "b", self.raw_b / self.tx)
        object.__setattr__(self, "c", self.raw_c / self.ty)
        object.__setattr__(self, "d", self.raw_d / self.ty)
        # raw/t is finite exactly when raw is and the division does not
        # overflow, so the scaled values alone decide
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise DomainError("scaled coefficients must be finite (payoffs "
                              "overflow at these temperatures)")

    @property
    def b_over_a(self) -> float:
        if self.raw_a == 0.0:
            raise DegenerateGameError("b/a undefined: a vanishes")
        return self.raw_b / self.raw_a

    @property
    def d_over_c(self) -> float:
        if self.raw_c == 0.0:
            raise DegenerateGameError("d/c undefined: c vanishes")
        return self.raw_d / self.raw_c

    def at_temperatures(self, tx: float, ty: float) -> "ReducedCoefficients":
        """Same game, different exploration rates."""
        return replace(self, tx=tx, ty=ty)

    @classmethod
    def from_values(cls, a, b, c, d, tx=1.0, ty=1.0) -> "ReducedCoefficients":
        """Build from scaled values: raw_a = a*tx, ..., and a = raw_a/tx."""
        a, b, c, d, tx, ty = map(_as_float, (a, b, c, d, tx, ty),
                                 ("a", "b", "c", "d", "tx", "ty"))
        return cls(a * tx, b * tx, c * ty, d * ty, tx, ty)


def _raw_coefficients(game: Game) -> tuple[float, float, float, float]:
    """``(raw_a, raw_b, raw_c, raw_d)`` from the payoffs.  raw_a and raw_c
    are three additions, so they can be pure rounding: within the rounding
    of their four payoffs they are exactly 0.0 (degenerate).  raw_b and
    raw_d are single differences, exact when small, and are kept."""
    if game.n != 2:
        raise UnsupportedDimensionError(
            f"analytic operations need a 2x2 game, got {game.n}x{game.n}")
    A = game.payoff_x.entries
    B = game.payoff_y.entries
    raw_a = -(A[1][0] + A[0][1] - A[0][0] - A[1][1])
    raw_c = -(B[1][0] + B[0][1] - B[0][0] - B[1][1])
    if rounds_to_zero(raw_a, *A[0], *A[1]):
        raw_a = 0.0
    if rounds_to_zero(raw_c, *B[0], *B[1]):
        raw_c = 0.0
    return raw_a, A[0][1] - A[1][1], raw_c, B[0][1] - B[1][1]


def _same_sign(raw_a: float, raw_c: float) -> bool:
    """raw_a*raw_c > 0, decided from the two signs: the product itself
    underflows to 0 or overflows once the payoffs are scaled past about
    2^-537 or 2^512."""
    return (raw_a > 0.0 and raw_c > 0.0) or (raw_a < 0.0 and raw_c < 0.0)


def reduce_payoffs(game: Game, temps: Temperatures) -> ReducedCoefficients:
    """Scaled coefficients (a, b, c, d) of a 2x2 game at given temperatures."""
    return ReducedCoefficients(*_raw_coefficients(game), temps.tx, temps.ty)


class EquilibriumKind(str, Enum):
    PURE = "pure"
    MIXED = "mixed"


@dataclass(frozen=True)
class NashEquilibrium:
    """Joint strategy (x, y) = probabilities of each player's first action."""

    x: float
    y: float
    kind: EquilibriumKind


def _expected(M, own: float, opp: float) -> float:
    """The owner's expected reward from payoff grid M (row = own action)."""
    return (own * (opp * M[0][0] + (1 - opp) * M[0][1])
            + (1 - own) * (opp * M[1][0] + (1 - opp) * M[1][1]))


def _is_equilibrium(game: Game, x: float, y: float) -> bool:
    """No pure unilateral deviation gains more than the rounding of that
    player's four payoffs (:func:`numerics.rounds_to_zero`).

    Checking the two pure deviations per player suffices: expected reward is
    linear in each player's own mixture.
    """
    A, B = game.payoff_x.entries, game.payoff_y.entries
    for M, own, opp in ((A, x, y), (B, y, x)):
        for dev in (1.0, 0.0):
            gain = _expected(M, dev, opp) - _expected(M, own, opp)
            if gain > 0.0 and not rounds_to_zero(gain, *M[0], *M[1]):
                return False
    return True


def nash_equilibria(game: Game) -> list[NashEquilibrium]:
    """All Nash equilibria of a 2x2 game: pure ones by best-response
    enumeration plus the interior mixed one when it exists.

    A pure profile is an equilibrium when each payoff is at least its
    deviation's, compared exactly, so a tie is a weak equilibrium.  The
    interior equilibrium sits where each player's indifference pins the
    *other* player's mixture: X is indifferent at y* = -b/a, Y at x* = -d/c.
    It needs raw_a and raw_c nonzero, which :func:`_raw_coefficients`
    decides from the rounding of the payoffs; so no answer depends on the
    payoffs' scale.

    Raises :class:`DegenerateGameError` (with ``continuum=True``) when a
    player is indifferent against every opponent strategy (raw_a = raw_b =
    0, or raw_c = raw_d = 0), in which case equilibria form a continuum
    rather than a finite list.
    """
    raw_a, raw_b, raw_c, raw_d = _raw_coefficients(game)
    if (raw_a == 0.0 and raw_b == 0.0) or (raw_c == 0.0 and raw_d == 0.0):
        raise DegenerateGameError(
            "a player is indifferent for every opponent strategy; "
            "equilibria form a continuum", continuum=True)

    found: list[NashEquilibrium] = []
    A = game.payoff_x.entries
    B = game.payoff_y.entries
    for i in (0, 1):
        for j in (0, 1):
            if A[i][j] >= A[1 - i][j] and B[j][i] >= B[1 - j][i]:
                found.append(NashEquilibrium(
                    x=1.0 if i == 0 else 0.0,
                    y=1.0 if j == 0 else 0.0,
                    kind=EquilibriumKind.PURE))

    if raw_a != 0.0 and raw_c != 0.0:
        y_star = -raw_b / raw_a
        x_star = -raw_d / raw_c
        if 0.0 < x_star < 1.0 and 0.0 < y_star < 1.0:
            found.append(NashEquilibrium(x_star, y_star, EquilibriumKind.MIXED))

    for ne in found:
        if not _is_equilibrium(game, ne.x, ne.y):  # pragma: no cover
            raise NumericFailureError(f"candidate equilibrium {ne} failed "
                                      "its own deviation check")
    return found


def _product_order(x: float, y: float) -> tuple[int, int, float]:
    """A key that orders x*y as the product does, without forming it: the
    sign, then the binary exponent (negated below zero), then the mantissa
    (:func:`math.frexp`).  Wherever x*y is a normal float its mantissa is
    the same rounding, so keys order as the products do; elsewhere they
    cannot overflow or underflow, so scaling every payoff by a power of two
    keeps the order."""
    (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
    m, e = math.frexp(mx * my)
    sign = (m > 0.0) - (m < 0.0)
    return sign, sign * (e + ex + ey), m


def risk_dominant_profile(game: Game) -> Optional[NashEquilibrium]:
    """The risk-dominant pure equilibrium of a coordination-type game.

    Applicable to 2x2 games with exactly two pure equilibria in opposite
    cells (for anti-coordination games Y's actions are relabeled first to
    bring them onto the diagonal).  With equilibria at (1,1) and (2,2),
    profile (1,1) is risk dominant when its product of unilateral deviation
    losses is strictly larger::

        (A11 - A21)(B11 - B21)  >  (A22 - A12)(B22 - B12)

    Equivalently, in a symmetric game the risk-dominant action earns more
    against a uniformly mixing opponent.  Returns ``None`` on ties.  The
    products are compared without being formed (:func:`_product_order`),
    so the answer is the same at every payoff scale.
    """
    pure = [ne for ne in nash_equilibria(game) if ne.kind is EquilibriumKind.PURE]
    if len(pure) != 2:
        raise NotApplicableError(
            "risk dominance needs exactly two pure equilibria, "
            f"got {len(pure)}")
    (p, q) = pure
    if not (p.x != q.x and p.y != q.y):
        raise NotApplicableError("pure equilibria are not in opposite cells")

    A, B = game.payoff_x.entries, game.payoff_y.entries
    flip_y = {(p.x, p.y), (q.x, q.y)} != {(1.0, 1.0), (0.0, 0.0)}
    if flip_y:
        # Anti-coordination: relabel Y's actions (swap B's rows, A's columns).
        A = tuple((row[1], row[0]) for row in A)
        B = (B[1], B[0])

    loss_11 = _product_order(A[0][0] - A[1][0], B[0][0] - B[1][0])
    loss_22 = _product_order(A[1][1] - A[0][1], B[1][1] - B[0][1])
    if loss_11 == loss_22:
        return None
    x = 1.0 if loss_11 > loss_22 else 0.0
    return NashEquilibrium(x, 1.0 - x if flip_y else x, EquilibriumKind.PURE)


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


def _band(ratio: float) -> int:
    """The band of the region map that holds a ratio: 0 for ratio >= 0,
    1 for (-1/2, 0), 2 for -1/2, 3 for (-1, -1/2) and 4 for ratio <= -1.
    Relabelling a player's actions, ratio -> -1 - ratio, reverses the
    bands (4 - band), so it is decided without forming -1 - ratio."""
    return (ratio < 0.0) + (ratio <= -0.5) + (ratio < -0.5) + (ratio <= -1.0)


def classify_region(coeffs: ReducedCoefficients) -> GameRegion:
    """Classify how many interior rest points a game can exhibit across all
    positive exploration-rate pairs.

    The map lives on the temperature-free ratios (beta, delta) =
    (b/a, d/c), read by their bands (:func:`_band`).  With opposite
    advantage slopes (ac < 0) the rest point is always unique.  The map
    is stated for a, c > 0; with a, c < 0, relabelling X's actions keeps
    beta and sends delta to -1 - delta, which reverses delta's band.  In
    the a, c > 0 bands:

    * both ratios in (-1, 0): three Nash equilibria, triple rest points
      possible (coordination, and anti-coordination before relabelling);
    * the four stripes ``beta >= 0, delta in (-1,-1/2)``,
      ``beta <= -1, delta in (-1/2,0)``, ``delta >= 0, beta in (-1,-1/2)``,
      ``delta <= -1, beta in (-1/2,0)``: single NE but triples occur for a
      window of temperatures;
    * the corner quadrants ``beta >= 0, delta <= -1`` (and the mirror,
      where the players and so the ratios exchange roles): the triple
      region's edge has no closed form; the boundary value of -b/a is the
      lowest tangent intercept of the response curve over every ty > 0,
      read off the second of two bisections
      (:func:`boltzq.bifurcation.intercept_extrema`, exact in either sign
      of raw_c) and attached;
    * everywhere else: a single rest point for all temperatures.

    Ratio values exactly on stripe edges are classified with the adjacent
    single-rest-point case, matching the strict inequalities above.  The
    game is degenerate when raw_a or raw_c is 0.0: from payoffs, when it is
    within their rounding (:func:`_raw_coefficients`), so the region is the
    same at every payoff scale; from :meth:`ReducedCoefficients.from_values`,
    only when it is exactly zero.
    """
    if coeffs.raw_a == 0.0 or coeffs.raw_c == 0.0:
        raise DegenerateGameError("region undefined: a or c vanishes")
    if not _same_sign(coeffs.raw_a, coeffs.raw_c):
        return GameRegion(
            GameRegionLabel.SINGLE_REST_POINT_ONLY,
            "a and c have opposite signs: one advantage curve rises while "
            "the other falls, so exactly one interior rest point exists")

    anti = coeffs.raw_a < 0.0
    beta, ratio = coeffs.b_over_a, coeffs.d_over_c
    p = _band(beta)
    q = 4 - _band(ratio) if anti else _band(ratio)  # relabel X if a, c < 0
    frame = " (anti-coordination sign frame)" if anti else ""

    if 0 < p < 4 and 0 < q < 4:
        return GameRegion(
            GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE,
            "both ratios inside the open unit box: three Nash equilibria; "
            "up to three rest points at low exploration" + frame)

    if (p, q) in ((0, 3), (4, 1), (3, 0), (1, 4)):
        return GameRegion(
            GameRegionLabel.SINGLE_NE_TRIPLE_POSSIBLE,
            "single Nash equilibrium, but a temperature window with three "
            "rest points exists" + frame)

    if {p, q} == {0, 4}:
        from .bifurcation import intercept_extrema
        if p == 0:  # Y's curve against X's level -b/a
            low, level = intercept_extrema(coeffs.raw_c, coeffs.raw_d), -beta
        else:  # players exchange roles: X's curve, b/a in either frame,
            # against Y's level, -d/c relabelled if need be
            low = intercept_extrema(1.0, beta)
            level = 1.0 + ratio if anti else -ratio
        bound = -math.inf if low.delta_min is None else low.delta_min
        return GameRegion(
            GameRegionLabel.NUMERIC_BOUNDARY,
            ("mirrored corner quadrant (players exchange roles): numeric "
             "tangent-intercept bound applies to -d/c" if p == 4 else
             "corner quadrant: triple rest points need both exploration "
             "rates strictly positive and occur only while -b/a stays above "
             "the numeric tangent-intercept bound") + frame,
            boundary=bound, triple_possible=bool(bound < level))

    return GameRegion(
        GameRegionLabel.SINGLE_REST_POINT_ONLY,
        "ratios outside every multi-rest-point region: the advantage line "
        "can never become tangent to the response curve" + frame)
