import numpy as np
import pytest

from boltzq.errors import DomainError
from boltzq.numerics import geomspace


class TestGeomspace:
    def test_matches_numpy_within_one_ulp(self):
        # ends log-uniform on [1e-300, 1e300], ascending and descending
        rng = np.random.default_rng(20261019)
        gaps = []
        for _ in range(10_000):
            lo, hi = 10.0 ** rng.uniform(-300.0, 300.0, 2)
            n = int(rng.integers(1, 1001))
            ours = geomspace(lo, hi, n)
            ref = np.geomspace(lo, hi, n)
            assert len(ours) == n
            assert ours[0] == lo and ours[-1] == (hi if n > 1 else lo)
            inner = np.array(ours[1:-1])
            gaps.append(np.abs(inner - ref[1:-1]) / np.spacing(ref[1:-1]))
        gaps = np.concatenate(gaps)
        assert gaps.max() <= 1.0
        assert np.count_nonzero(gaps) < 0.1 * gaps.size

    def test_one_point_is_the_start(self):
        assert geomspace(3.0, 7.0, 1) == [3.0]

    @pytest.mark.parametrize("t", [0.3, 2.0, 1e-200])
    @pytest.mark.parametrize("n", [1, 2, 5, 80])
    def test_equal_ends(self, t, n):
        # interior points are 10**log10(t), as numpy's, so not always t
        grid = geomspace(t, t, n)
        assert grid[0] == grid[-1] == t
        np.testing.assert_array_max_ulp(grid, np.geomspace(t, t, n), 1)

    def test_descending_grid(self):
        grid = geomspace(5.0, 0.05, 81)
        assert grid[0] == 5.0 and grid[-1] == 0.05
        assert all(a > b for a, b in zip(grid, grid[1:]))
        np.testing.assert_array_max_ulp(grid, np.geomspace(5.0, 0.05, 81), 1)

    def test_returns_floats(self):
        assert all(type(t) is float for t in geomspace(1, 100, 3))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, float("nan"),
                                     float("inf"), float("-inf")])
    def test_bad_end_raises(self, bad):
        with pytest.raises(DomainError, match="finite and > 0"):
            geomspace(bad, 1.0, 5)
        with pytest.raises(DomainError, match="finite and > 0"):
            geomspace(1.0, bad, 5)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_points_raises(self, n):
        with pytest.raises(DomainError, match="n >= 1"):
            geomspace(1.0, 2.0, n)
