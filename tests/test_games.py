import dataclasses
import json
import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import boltzq as bq
from boltzq.games import _raw_coefficients


def mk(a_rows, b_rows, name="g"):
    return bq.Game.from_matrices(name, a_rows, b_rows)


class TestReduce:
    def test_matching_pennies_values(self):
        co = bq.reduce_payoffs(bq.fixture("matching_pennies"),
                               bq.Temperatures(1, 1))
        assert (co.a, co.b, co.c, co.d) == (4.0, -2.0, -4.0, 2.0)

    def test_coordination_ratio_matches_mixed_point(self):
        co = bq.reduce_payoffs(bq.fixture("stag_hunt"), bq.Temperatures(1, 1))
        assert (co.a, co.b, co.c, co.d) == (5.0, -2.0, 5.0, -2.0)
        assert co.b_over_a == pytest.approx(-2.0 / 5.0, abs=1e-15)

    def test_doubling_tx_halves_a_and_b(self):
        game = bq.fixture("stag_hunt")
        c1 = bq.reduce_payoffs(game, bq.Temperatures(1, 1))
        c2 = bq.reduce_payoffs(game, bq.Temperatures(2, 1))
        assert c2.a == pytest.approx(c1.a / 2, rel=1e-15)
        assert c2.b == pytest.approx(c1.b / 2, rel=1e-15)
        assert c2.b_over_a == pytest.approx(c1.b_over_a, rel=1e-15)
        assert (c2.c, c2.d) == (c1.c, c1.d)

    def test_reconstruction_exact(self, rng):
        for _ in range(200):
            entries = rng.uniform(-10, 10, (2, 2, 2))
            game = mk(entries[0].tolist(), entries[1].tolist())
            tx, ty = rng.uniform(0.05, 20, 2)
            co = bq.reduce_payoffs(game, bq.Temperatures(tx, ty))
            raw_a, raw_b, raw_c, raw_d = _raw_coefficients(game)
            assert co.a * tx == pytest.approx(raw_a, abs=1e-12)
            assert co.b * tx == pytest.approx(raw_b, abs=1e-12)
            assert co.c * ty == pytest.approx(raw_c, abs=1e-12)
            assert co.d * ty == pytest.approx(raw_d, abs=1e-12)

    def test_ratio_temperature_invariance(self, rng):
        for _ in range(200):
            entries = rng.uniform(-5, 5, (2, 2, 2))
            game = mk(entries[0].tolist(), entries[1].tolist())
            base = bq.reduce_payoffs(game, bq.Temperatures(1, 1))
            if abs(base.raw_a) < 1e-6 or abs(base.raw_c) < 1e-6:
                continue
            tx, ty = rng.uniform(0.01, 50, 2)
            co = bq.reduce_payoffs(game, bq.Temperatures(tx, ty))
            assert co.b_over_a == pytest.approx(base.b_over_a, abs=1e-12)
            assert co.d_over_c == pytest.approx(base.d_over_c, abs=1e-12)

    def test_overflowing_payoffs_raise_domain_error(self):
        game = mk([[1e308, -1e308], [-1e308, 1e308]],
                  [[1e308, -1e308], [-1e308, 1e308]])
        with pytest.raises(bq.DomainError):
            bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        with pytest.raises(bq.DomainError):
            bq.sweep_equal_temperature(game, 0.1, 1.0, 5)

    def test_overflowing_temperature_scaling_raises_domain_error(self):
        game = bq.fixture("stag_hunt")
        with pytest.raises(bq.DomainError):
            bq.reduce_payoffs(game, bq.Temperatures(1e-320, 1e-320))
        co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        with pytest.raises(bq.DomainError):
            co.at_temperatures(1e-320, 1e-320)
        with pytest.raises(bq.DomainError):
            bq.ReducedCoefficients.from_values(1e300, 0.0, 1.0, 0.0,
                                               tx=1e10)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_from_values_rejects_non_finite(self, bad):
        with pytest.raises(bq.DomainError):
            bq.ReducedCoefficients.from_values(1.0, bad, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf])
    def test_invalid_temperature_raises_domain_error(self, bad):
        co = bq.ReducedCoefficients.from_values(1.0, -0.5, 2.0, -1.0)
        for tx, ty in ((bad, 1.0), (1.0, bad)):
            routes = (
                lambda: bq.ReducedCoefficients.from_values(1.0, -0.5, 2.0,
                                                           -1.0, tx, ty),
                lambda: bq.ReducedCoefficients(1.0, -0.5, 2.0, -1.0, tx, ty),
                lambda: co.at_temperatures(tx, ty),
                lambda: dataclasses.replace(co, tx=tx, ty=ty),
                lambda: bq.Temperatures(tx, ty),
                lambda: dataclasses.replace(bq.Temperatures(1.0, 1.0),
                                            tx=tx, ty=ty),
            )
            for route in routes:
                with pytest.raises(bq.DomainError, match=(
                        r"^temperature must be finite and > 0, got "
                        + re.escape(repr(float(bad))) + "$")):
                    route()

    def test_numpy_scalars_are_stored_as_python_floats(self):
        co = bq.ReducedCoefficients.from_values(
            *map(np.float64, (3.0, -1.2, 0.3, -0.17)), tx=np.float64(0.1),
            ty=np.float32(0.1))
        temps = bq.Temperatures(np.float64(0.5), np.int64(2))
        for value in (*dataclasses.astuple(co), co.a, co.b, co.c, co.d,
                      *dataclasses.astuple(temps)):
            assert type(value) is float
        for point in bq.find_rest_points(co):
            assert all(type(v) is float for v in (point.x, point.y, point.u,
                                                  point.v, point.residual))
        # raw/t overflows as a Python float: DomainError, no numpy warning
        with pytest.raises(bq.DomainError):
            bq.ReducedCoefficients(np.float64(1e300), 0.0, 1.0, 0.0,
                                   np.float64(1e-10), 1.0)

    @pytest.mark.parametrize("bad", ["x", None, [1.0], 1j, object()])
    def test_non_numeric_input_raises_domain_error(self, bad):
        fields = [1.0, -0.5, 2.0, -1.0, 1.0, 1.0]
        for k in range(6):
            with pytest.raises(bq.DomainError):
                bq.ReducedCoefficients(*fields[:k], bad, *fields[k + 1:])
        for temps in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(bq.DomainError):
                bq.Temperatures(*temps)

    def test_scaled_values_are_derived_from_raw_values(self, rng):
        def exact(co):
            scaled = (co.raw_a / co.tx, co.raw_b / co.tx,
                      co.raw_c / co.ty, co.raw_d / co.ty)
            return ([v.hex() for v in (co.a, co.b, co.c, co.d)]
                    == [v.hex() for v in scaled])

        for _ in range(200):
            entries = rng.uniform(-10, 10, (2, 2, 2))
            game = mk(entries[0].tolist(), entries[1].tolist())
            tx, ty, tx2, ty2 = map(float, 10.0 ** rng.uniform(-6, 3, 4))
            co = bq.reduce_payoffs(game, bq.Temperatures(tx, ty))
            assert exact(co)
            assert exact(co.at_temperatures(tx2, ty2))
            assert exact(dataclasses.replace(co, ty=ty2))
        with pytest.raises(TypeError):
            bq.ReducedCoefficients(1.0, -0.5, 2.0, -1.0, 1.0, 1.0, a=99.0)
        with pytest.raises(TypeError):
            dataclasses.replace(co, a=99.0)

    def test_rejects_wrong_dimension(self):
        # on every call: a game that is not 2x2 caches no numerators
        g3 = mk(np.eye(3).tolist(), np.eye(3).tolist())
        for _ in range(3):
            with pytest.raises(bq.UnsupportedDimensionError):
                bq.reduce_payoffs(g3, bq.Temperatures(1, 1))
            with pytest.raises(bq.UnsupportedDimensionError):
                bq.nash_equilibria(g3)


def _same_record(built, reference):
    """``built`` is the dataclass-built ``reference`` in ==, hash, repr,
    dataclasses.replace and a pickle round trip."""
    for twin in (built, dataclasses.replace(built),
                 pickle.loads(pickle.dumps(built))):
        assert twin == reference and reference == twin
        assert hash(twin) == hash(reference)
        assert repr(twin) == repr(reference)
        assert vars(twin) == vars(reference)


class TestDirectRecords:
    # reduce_payoffs, at_temperatures, Temperatures and find_rest_points
    # build their records without the dataclass __init__; each must be the
    # record that __init__ builds

    def test_reduced_coefficients(self, rng):
        for _ in range(100):
            entries = rng.uniform(-3, 3, (2, 2, 2))
            game = mk(entries[0].tolist(), entries[1].tolist())
            tx, ty, tx2, ty2 = map(float, 10.0 ** rng.uniform(-6, 3, 4))
            co = bq.reduce_payoffs(game, bq.Temperatures(tx, ty))
            _same_record(co, bq.ReducedCoefficients(*_raw_coefficients(game),
                                                    tx, ty))
            _same_record(co.at_temperatures(tx2, ty2),
                         bq.ReducedCoefficients(co.raw_a, co.raw_b, co.raw_c,
                                                co.raw_d, tx2, ty2))

    def test_temperatures(self):
        temps = bq.Temperatures(np.float64(0.5), np.int64(2))
        assert repr(temps) == "Temperatures(tx=0.5, ty=2.0)"
        assert hash(temps) == hash((0.5, 2.0))
        assert dataclasses.astuple(temps) == (0.5, 2.0)
        _same_record(temps, bq.Temperatures(ty=2.0, tx=0.5))
        assert dataclasses.replace(temps, ty=3) == bq.Temperatures(0.5, 3.0)
        assert bq.Temperatures.equal(0.5) == bq.Temperatures(0.5, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            temps.tx = 1.0
        with pytest.raises(TypeError):
            bq.Temperatures(1.0)

    def test_rest_points(self):
        for name in sorted(bq.FIXTURES):
            for t in (0.05, 0.5):
                co = bq.reduce_payoffs(bq.fixture(name), bq.Temperatures(t, t))
                for point in bq.find_rest_points(co):
                    _same_record(point, bq.RestPoint(
                        **{f.name: getattr(point, f.name)
                           for f in dataclasses.fields(point)}))

    def test_cached_game_is_the_game(self):
        # the cached numerators are not a field: a game that has been
        # reduced is its unreduced twin in every way a caller sees
        A, B = [[4.0, 1.0], [3.0, 2.0]], [[4.0, 1.0], [3.0, 2.0]]
        game, twin = mk(A, B), mk(A, B)
        first = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
        assert bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0)) == first
        for copy in (game, pickle.loads(pickle.dumps(game)),
                     dataclasses.replace(game)):
            assert copy == twin and hash(copy) == hash(twin)
            assert repr(copy) == repr(twin)
            assert copy.to_dict() == twin.to_dict()
            assert bq.reduce_payoffs(copy, bq.Temperatures(2.0, 0.5)) == \
                bq.reduce_payoffs(twin, bq.Temperatures(2.0, 0.5))


def brute_force_equilibrium(game, x, y, grid=1001, tol=1e-9):
    """No deviation on a 1001-point own-strategy grid may gain > tol."""
    A = np.asarray(game.payoff_x.entries)
    B = np.asarray(game.payoff_y.entries)
    yvec = np.array([y, 1 - y])
    xvec = np.array([x, 1 - x])
    base_x = np.array([x, 1 - x]) @ A @ yvec
    base_y = np.array([y, 1 - y]) @ B @ xvec
    probes = np.linspace(0.0, 1.0, grid)
    dev_x = probes * (A @ yvec)[0] + (1 - probes) * (A @ yvec)[1]
    dev_y = probes * (B @ xvec)[0] + (1 - probes) * (B @ xvec)[1]
    return dev_x.max() <= base_x + tol and dev_y.max() <= base_y + tol


class TestNash:
    def test_matching_pennies_single_mixed(self):
        result = bq.nash_equilibria(bq.fixture("matching_pennies"))
        assert len(result) == 1
        ne = result[0]
        assert ne.kind.value == "mixed"
        assert (ne.x, ne.y) == (0.5, 0.5)

    def test_stag_hunt_three(self):
        result = bq.nash_equilibria(bq.fixture("stag_hunt"))
        profiles = {(ne.x, ne.y, ne.kind.value) for ne in result}
        assert profiles == {(1.0, 1.0, "pure"), (0.0, 0.0, "pure"),
                            (0.4, 0.4, "mixed")}

    def test_hawk_dove(self):
        result = bq.nash_equilibria(bq.fixture("hawk_dove"))
        profiles = {(ne.x, ne.y) for ne in result}
        assert (1.0, 0.0) in profiles and (0.0, 1.0) in profiles
        mixed = [ne for ne in result if ne.kind.value == "mixed"]
        assert len(mixed) == 1
        assert mixed[0].x == pytest.approx(1 / 3, abs=1e-12)
        assert mixed[0].y == pytest.approx(1 / 3, abs=1e-12)

    def test_battle_coordination_mixed_point(self):
        mixed = [ne for ne in bq.nash_equilibria(bq.fixture("battle_coordination"))
                 if ne.kind.value == "mixed"]
        assert mixed[0].x == pytest.approx(1 / 3, abs=1e-12)
        assert mixed[0].y == pytest.approx(2 / 3, abs=1e-12)

    def test_every_equilibrium_survives_grid_check(self, rng):
        checked = 0
        for _ in range(300):
            entries = rng.integers(-4, 5, (2, 2, 2)).astype(float)
            game = mk(entries[0].tolist(), entries[1].tolist())
            try:
                result = bq.nash_equilibria(game)
            except bq.DegenerateGameError:
                continue
            for ne in result:
                assert brute_force_equilibrium(game, ne.x, ne.y)
                checked += 1
        assert checked > 300

    def test_continuum_degeneracy_flag(self):
        flat = mk([[1.0, 1.0], [1.0, 1.0]], [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(bq.DegenerateGameError) as err:
            bq.nash_equilibria(flat)
        assert err.value.continuum


class TestRiskDominance:
    def test_stag_hunt_picks_payoff_dominant_corner(self):
        # Product of deviation losses: 3*3 = 9 for (stag,stag) beats 2*2 = 4.
        ne = bq.risk_dominant_profile(bq.fixture("stag_hunt"))
        assert (ne.x, ne.y) == (1.0, 1.0)

    def test_uniform_mix_criterion_agrees(self):
        # In a symmetric game the risk-dominant action earns more against a
        # uniform opponent; cross-check the product rule against that.
        game = bq.fixture("stag_hunt")
        A = np.asarray(game.payoff_x.entries)
        against_uniform = A @ np.array([0.5, 0.5])
        assert against_uniform[0] > against_uniform[1]

    def test_symmetric_tie_returns_none(self):
        game = mk([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert bq.risk_dominant_profile(game) is None

    def test_battle_tie_returns_none(self):
        assert bq.risk_dominant_profile(bq.fixture("battle_coordination")) is None

    def test_hawk_dove_tie_via_relabel(self):
        assert bq.risk_dominant_profile(bq.fixture("hawk_dove")) is None

    def test_asymmetric_coordination(self):
        game = mk([[5.0, 0.0], [0.0, 1.0]], [[5.0, 0.0], [0.0, 1.0]])
        ne = bq.risk_dominant_profile(game)
        assert (ne.x, ne.y) == (1.0, 1.0)

    def test_not_applicable_for_dominance_solvable(self):
        with pytest.raises(bq.NotApplicableError):
            bq.risk_dominant_profile(bq.fixture("prisoners_dilemma"))


class TestClassifyRegion:
    def test_matching_pennies(self):
        co = bq.reduce_payoffs(bq.fixture("matching_pennies"),
                               bq.Temperatures(1, 1))
        assert bq.classify_region(co).label is bq.GameRegionLabel.SINGLE_REST_POINT_ONLY

    def test_coordination_box(self):
        co = bq.ReducedCoefficients.from_values(5, -2, 5, -2)
        assert bq.classify_region(co).label is bq.GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE

    def test_anti_coordination_box(self):
        co = bq.reduce_payoffs(bq.fixture("hawk_dove"), bq.Temperatures(1, 1))
        assert bq.classify_region(co).label is bq.GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE

    def test_single_ne_stripe(self):
        co = bq.ReducedCoefficients.from_values(10.0, 1.0, 10.0, -8.0)
        assert bq.classify_region(co).label is bq.GameRegionLabel.SINGLE_NE_TRIPLE_POSSIBLE

    def test_prisoners_dilemma_dark_region(self):
        co = bq.reduce_payoffs(bq.fixture("prisoners_dilemma"),
                               bq.Temperatures(1, 1))
        assert bq.classify_region(co).label is bq.GameRegionLabel.SINGLE_REST_POINT_ONLY

    def test_corner_carries_numeric_boundary(self):
        co = bq.ReducedCoefficients.from_values(10, 3, 10, -15)
        region = bq.classify_region(co)
        assert region.label is bq.GameRegionLabel.NUMERIC_BOUNDARY
        assert region.boundary is not None and region.boundary < 0
        assert region.triple_possible is False
        # a thin sliver hugging b/a = 0 does admit triples
        thin = bq.ReducedCoefficients.from_values(10, 0.03, 10, -15)
        assert bq.classify_region(thin).triple_possible is True

    def test_mirrored_corner(self):
        co = bq.ReducedCoefficients.from_values(10, -15, 10, 3)
        region = bq.classify_region(co)
        assert region.label is bq.GameRegionLabel.NUMERIC_BOUNDARY

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="_raw_coefficients forms raw_a as "
                              "-(A10 + A01 - A00 - A11), which rounds "
                              "b/a = -1 to -1 + 2**-52 after relabelling")
    def test_relabelling_x_keeps_the_label_at_ratio_minus_one(self):
        # b/a is exactly -1 here, on the edge of the unit ratio box;
        # relabelling X's actions maps b/a -> -1 - b/a, which is -1 again
        original = mk([[0.1, 0.1], [0.1, 0.2]], [[2.0, 0.0], [0.0, 1.0]])
        relabelled = mk([[0.1, 0.2], [0.1, 0.1]], [[0.0, 2.0], [1.0, 0.0]])
        labels = [bq.classify_region(
            bq.reduce_payoffs(game, bq.Temperatures(1, 1))).label
            for game in (original, relabelled)]
        assert labels[0] is bq.GameRegionLabel.SINGLE_NE_TRIPLE_POSSIBLE
        assert labels[1] is labels[0]

    def test_tiny_ratio_in_the_anti_frame_is_a_stripe(self):
        # relabelled, d/c = -1e-17 is -1 + 1e-17, inside (-1, -1/2) next to
        # b/a = 0.1: a stripe, although -1 - d/c rounds to -1.0
        co = bq.ReducedCoefficients(-100, -10, -1, 1e-17, 1, 1)
        assert (bq.classify_region(co).label
                is bq.GameRegionLabel.SINGLE_NE_TRIPLE_POSSIBLE)

    def test_degenerate_raises(self):
        co = bq.ReducedCoefficients.from_values(0.0, 1.0, 2.0, -1.0)
        with pytest.raises(bq.DegenerateGameError):
            bq.classify_region(co)

    def test_opposed_slopes_never_multi(self, rng):
        for _ in range(10_000):
            a, c = rng.uniform(0.1, 20, 2)
            b, d = rng.uniform(-20, 20, 2)
            co = bq.ReducedCoefficients.from_values(a, b, -c, d)
            label = bq.classify_region(co).label
            assert label is bq.GameRegionLabel.SINGLE_REST_POINT_ONLY


def dyadic_games(count, seed):
    """Payoffs k/4 for k in [-8, 8], with A01 or B01 nudged by 0,
    +-2**-30 or +-2**-60: ratios exactly on the band edges of the region
    map, or next to them by tails that a float near 1 cannot hold."""
    rng = random.Random(seed)
    nudges = (0.0, 2.0 ** -30, -2.0 ** -30, 2.0 ** -60, -2.0 ** -60)
    for _ in range(count):
        A, B = ([[rng.randint(-8, 8) / 4 for _ in range(2)] for _ in range(2)]
                for _ in range(2))
        (A if rng.random() < 0.5 else B)[0][1] += rng.choice(nudges)
        yield A, B


def twins(A, B):
    """The game with the players swapped, and with X's or Y's actions
    relabelled: each has the same region."""
    return {"swap": (B, A),
            "x": (A[::-1], [row[::-1] for row in B]),
            "y": ([row[::-1] for row in A], B[::-1])}


def region_of(A, B):
    return bq.classify_region(bq.reduce_payoffs(mk(A, B),
                                                 bq.Temperatures(1, 1)))


def raw_is_exact(A, B):
    """The float raw coefficients equal the payoffs' exact differences."""
    (a00, a01), (a10, a11) = ([Fraction(v) for v in row] for row in A)
    (b00, b01), (b10, b11) = ([Fraction(v) for v in row] for row in B)
    exact = (a00 + a11 - a10 - a01, a01 - a11, b00 + b11 - b10 - b01,
             b01 - b11)
    return tuple(map(Fraction, _raw_coefficients(mk(A, B)))) == exact


class TestRegionInvariance:
    """Swapping the players and relabelling either player's actions keep
    the region: the label and, in a corner, ``triple_possible``."""

    def test_swap_and_relabelled_twins_agree(self):
        checked, unexplained = 0, []
        for A, B in dyadic_games(20_000, seed=5):
            try:
                region = region_of(A, B)
            except bq.DegenerateGameError:
                continue
            for name, (A2, B2) in twins(A, B).items():
                twin = region_of(A2, B2)
                checked += 1
                if (twin.label, twin.triple_possible) == (
                        region.label, region.triple_possible):
                    continue
                # two known faults, each pinned below as a strict xfail:
                # payoff-level rounding in _raw_coefficients, and a corner
                # bound that underflows to 0.0 against a level of 0.0
                if not (raw_is_exact(A, B) and raw_is_exact(A2, B2)):
                    continue
                if 0.0 in (region.boundary, twin.boundary):
                    continue
                unexplained.append((name, A, B, region, twin))
        assert checked > 50_000
        assert unexplained == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="_raw_coefficients forms raw_c from rounded "
                              "payoff sums, which drop B01's 2**-60")
    def test_relabelling_x_keeps_the_label_with_a_tiny_payoff(self):
        A = [[0.5, 1.5 - 2.0 ** -30], [1.0, 0.25]]
        B = [[1.25, 2.0 ** -60], [1.5, 0.0]]
        label = region_of(A, B).label
        assert label is bq.GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE
        assert region_of(*twins(A, B)["x"]).label is label

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the corner bound at d/c = 2.68e9 underflows "
                              "to 0.0 against the level -b/a = 0.0")
    def test_swapping_the_players_keeps_triple_possible_in_a_corner(self):
        A = [[0.75, 0.25], [1.25, 0.25]]
        B = [[-2.0, -0.75 + 2.0 ** -30], [0.5, 1.75]]
        swapped = region_of(*twins(A, B)["swap"])
        assert swapped.label is bq.GameRegionLabel.NUMERIC_BOUNDARY
        assert swapped.triple_possible is True
        assert region_of(A, B).triple_possible is True


#: exponents k of the exact payoff scale 2**k
SCALES = (-200, -100, -45, -40, -30, -1, 1, 10, 14, 20, 40, 100, 200)


def scaled(game, k):
    """The game with every payoff times 2**k, which is exact."""
    factor = 2.0 ** k
    return mk(*([[v * factor for v in row] for row in m.entries]
                for m in (game.payoff_x, game.payoff_y)))


def outcome(call, *args):
    """What a call returns, or the type of the library error it raises."""
    try:
        return call(*args)
    except bq.BoltzqError as exc:
        return type(exc)


def payoff_answers(game):
    co = bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0))
    return (outcome(bq.nash_equilibria, game), outcome(bq.classify_region, co),
            outcome(bq.risk_dominant_profile, game))


def cancelling_tenths(rng):
    """Payoffs in tenths with A11 = A01 + A10 - A00 in decimal, so that
    raw_a is zero exactly and often rounding noise in floats."""
    k = rng.integers(-20, 21, (2, 2, 2))
    k[0, 1, 1] = k[0, 0, 1] + k[0, 1, 0] - k[0, 0, 0]
    return mk(*(k / 10.0).tolist())


def seeded_games(rng, count):
    """Payoffs U[-3, 3]; integers in [-2, 2] (ties and continua); and
    :func:`cancelling_tenths`."""
    return ([mk(*rng.uniform(-3.0, 3.0, (2, 2, 2)).tolist())
             for _ in range(count)]
            + [mk(*rng.integers(-2, 3, (2, 2, 2)).astype(float).tolist())
               for _ in range(count)]
            + [cancelling_tenths(rng) for _ in range(count)])


class TestPayoffScale:
    """Equilibria and regions depend on the payoffs only through b/a and
    d/c, and the dynamics on payoff over temperature, so scaling every
    payoff by a power of two changes no answer."""

    def test_equilibria_regions_and_risk_dominance(self, rng):
        games = seeded_games(rng, 150)
        noise = [-(a10 + a01 - a00 - a11) for (a00, a01), (a10, a11)
                 in (g.payoff_x.entries for g in games[300:])]
        assert sum(total != 0.0 for total in noise) >= 30
        assert all(_raw_coefficients(g)[0] == 0.0 for g in games[300:])
        for game in games:
            unit = payoff_answers(game)
            for k in SCALES:
                assert payoff_answers(scaled(game, k)) == unit, (game, k)

    def test_pitchfork_and_criticals(self, rng):
        games = []
        while len(games) < 40:
            game = mk(*rng.uniform(-3.0, 3.0, (2, 2, 2)).tolist())
            if len(bq.nash_equilibria(game)) == 3:
                games.append(game)
        for game in games:
            kind = bq.classify_pitchfork(game)
            folds = bq.equal_temperature_criticals(game)
            for k in (-200, -100, -40, 40, 100, 200):
                game_k = scaled(game, k)
                assert bq.classify_pitchfork(game_k) == kind, (game, k)
                assert bq.equal_temperature_criticals(game_k) == [
                    (2.0 ** k * t, u) for t, u in folds], (game, k)

    @pytest.mark.parametrize("k", [-600, -540, 520, 600])
    def test_drivers_past_the_range_of_the_slope_product(self, k):
        # raw_a*raw_c underflows to 0 past 2**-537 and overflows past
        # 2**512, so only the two signs can decide the slope test
        factor = 2.0 ** k
        grid = bq.numerics.geomspace(1e-3, 2.0, 8)
        games = [bq.fixture(name) for name in sorted(bq.FIXTURES)] + [
            mk([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
            mk([[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -0.5]])]
        for game in games:
            game_k = scaled(game, k)
            assert (payoff_answers(game_k)[1]
                    == payoff_answers(game)[1]), (game, k)
            assert (bq.classify_pitchfork(game_k)
                    == bq.classify_pitchfork(game)), (game, k)
            folds = bq.equal_temperature_criticals(game)
            assert bq.equal_temperature_criticals(game_k) == (
                folds and [(factor * t, u) for t, u in folds]), (game, k)
            curve = outcome(bq.critical_curve, game, grid)
            curve_k = outcome(bq.critical_curve, game_k,
                              [factor * t for t in grid])
            if isinstance(curve, bq.CriticalCurve):
                curve = dataclasses.replace(
                    curve, samples=[tuple(None if t is None else factor * t
                                          for t in row)
                                    for row in curve.samples],
                    closing_temperature=curve.closing_temperature
                    and factor * curve.closing_temperature)
            assert curve_k == curve, (game, k)

    @pytest.mark.parametrize("k", [-50, 15])
    def test_fixtures(self, k):
        # at 2**-50 the slopes were below an absolute 1e-12; at 2**15
        # hawk_dove's mixed deviation gains round at about 1e-11
        for name in sorted(bq.FIXTURES):
            game = bq.fixture(name)
            assert payoff_answers(scaled(game, k)) == payoff_answers(game)

    @pytest.mark.parametrize("k", [900, -1000])
    def test_risk_dominance_past_the_range_of_the_products(self, k):
        # the deviation-loss products overflow to inf at 2**900 and
        # underflow to 0 at 2**-1000, which read as a tie
        game = scaled(bq.fixture("stag_hunt"), k)
        assert bq.risk_dominant_profile(game) == bq.NashEquilibrium(
            1.0, 1.0, bq.games.EquilibriumKind.PURE)

    def test_risk_dominance_at_every_scale(self, rng):
        for name in sorted(bq.FIXTURES):
            game = bq.fixture(name)
            unit = outcome(bq.risk_dominant_profile, game)
            for k in range(-1000, 1001, 50):
                assert outcome(bq.risk_dominant_profile,
                               scaled(game, k)) == unit, (name, k)
        for _ in range(1000):
            game = mk(*rng.uniform(-3.0, 3.0, (2, 2, 2)).tolist())
            unit = outcome(bq.risk_dominant_profile, game)
            for k in (-900, -500, 500, 900):
                assert outcome(bq.risk_dominant_profile,
                               scaled(game, k)) == unit, (game, k)

    def test_rounding_noise_is_degenerate(self):
        # raw_a = -(0.2 + 0.1 - 0.0 - 0.3) is -5.6e-17 in floats, not 0
        game = mk([[0.0, 0.1], [0.2, 0.3]], [[1.0, 0.0], [0.0, 1.0]])
        assert _raw_coefficients(game)[0] == 0.0
        with pytest.raises(bq.DegenerateGameError):
            bq.classify_region(bq.reduce_payoffs(game, bq.Temperatures(1, 1)))
        assert [(ne.x, ne.y) for ne in bq.nash_equilibria(game)] == [(0.0, 0.0)]

    def test_small_exact_slope_is_not_degenerate(self):
        # below the old absolute 1e-12 but far above its payoffs' rounding
        game = mk([[1e-13, 0.0], [0.0, 1e-13]], [[1.0, 0.0], [0.0, 1.0]])
        co = bq.reduce_payoffs(game, bq.Temperatures(1, 1))
        assert co.raw_a == 2e-13
        assert (bq.classify_region(co).label
                is bq.GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE)
        assert bq.ReducedCoefficients.from_values(1e-300, 0.0, 1.0,
                                                  0.0).b_over_a == 0.0

    def test_near_tie_is_not_a_weak_equilibrium(self):
        # X's first action beats the second by 1e-13 against either column
        game = mk([[1.0, 0.0], [1.0 - 1e-13, -1e-13]],
                  [[1.0, 0.0], [0.0, 1.0]])
        assert [(ne.x, ne.y) for ne in bq.nash_equilibria(game)] == [(1.0, 1.0)]


class TestThreeEquilibria:
    """Three Nash equilibria, the unit-box label, criticals and a pitchfork
    answer one question: whether the ratios lie in the open unit box."""

    def test_four_answers_agree(self, rng):
        units = [mk(*rng.uniform(-3.0, 3.0, (2, 2, 2)).tolist())
                 for _ in range(80)]
        games = [scaled(game, k) for k in (-600, 0, 520) for game in units]
        # anti-coordination, b/a = -1/3 and d/c = -eps/(1 + eps): in the
        # a, c > 0 frame -1 - d/c rounds to -1.0 for eps < 2**-53
        games += [mk([[0.0, 1.0], [2.0, 0.0]], [[0.0, eps], [1.0, 0.0]])
                  for eps in (1e-5, 1e-17, 1e-20, 1e-100, 1e-300)]
        multi = 0
        for game in games:
            try:
                three = len(bq.nash_equilibria(game)) == 3
                region = bq.classify_region(
                    bq.reduce_payoffs(game, bq.Temperatures(1.0, 1.0)))
            except bq.DegenerateGameError:
                continue
            answers = (three,
                       region.label is bq.GameRegionLabel.MULTI_NE_TRIPLE_POSSIBLE,
                       bq.equal_temperature_criticals(game) is not None,
                       bq.classify_pitchfork(game) != "none")
            assert answers in ((True,) * 4, (False,) * 4), (game, answers)
            multi += three
        assert multi >= 30


class TestGameIO:
    def test_json_round_trip(self, tmp_path):
        game = bq.fixture("stag_hunt")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(game.to_dict()))
        loaded = bq.load_game(path)
        assert loaded == game

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(bq.GameFormatError):
            bq.load_game(path)

    def test_non_square_rejected(self):
        with pytest.raises(bq.GameFormatError):
            mk([[1.0, 2.0]], [[1.0], [2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(bq.GameFormatError):
            mk([[1.0, math.inf], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("call", [
        lambda: mk([[1, 2], [3, 4]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        lambda: bq.Game.from_dict([[1, 2], [3, 4]]),
        lambda: bq.Game.from_dict({"name": "g", "A": [[1, 2], [3, 4]]}),
        lambda: bq.fixture("nope"),
    ], ids=["mismatched_dimensions", "not_a_dict", "missing_keys",
            "unknown_fixture"])
    def test_bad_description_rejected(self, call):
        with pytest.raises(bq.GameFormatError):
            call()
