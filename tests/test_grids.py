import math

import numpy as np
import pytest

from susypep import ChannelConstants, DomainError, RadialGrid, default_grid, integrate
from susypep.grids import MAX_GRID_POINTS


def test_points_follow_k_times_step():
    grid = RadialGrid(step=0.02, n_points=250)
    assert grid.r_min == pytest.approx(0.02)
    assert grid.r_max == pytest.approx(5.0)
    assert np.allclose(grid.r, 0.02 * np.arange(1, 251))


def test_from_extent_matches_defaults():
    grid = default_grid()
    assert grid.step == 0.01
    assert grid.n_points == 3500
    assert grid.r_max == pytest.approx(35.0)


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(step=-0.01, n_points=200)
    with pytest.raises(DomainError):
        RadialGrid(step=0.01, n_points=50)


@pytest.mark.parametrize("r_max", [math.nan, math.inf, -math.inf])
def test_non_finite_extent_is_a_domain_error(r_max):
    with pytest.raises(DomainError, match="finite"):
        RadialGrid.from_extent(0.01, r_max)


@pytest.mark.parametrize("make", [
    lambda: RadialGrid.from_extent(1e-300, 1e300),
    lambda: RadialGrid.from_extent(1e-6, 1e6),
    lambda: RadialGrid(0.01, 10**12),
], ids=["extent-overflow", "extent-1e12", "points-1e12"])
def test_grids_over_a_million_points_are_domain_errors(make):
    with pytest.raises(DomainError, match="1,000,000"):
        make()


def test_grid_limit_is_inclusive():
    assert RadialGrid(0.01, MAX_GRID_POINTS).n_points == MAX_GRID_POINTS
    assert RadialGrid.from_extent(0.0001, 100.0).n_points == MAX_GRID_POINTS


def test_points_are_immutable():
    grid = RadialGrid(step=0.01, n_points=100)
    with pytest.raises(ValueError):
        grid.r[0] = 99.0


def test_index_of():
    grid = RadialGrid(step=0.01, n_points=1000)
    assert grid.index_of(5.0) == 499
    assert grid.r[grid.index_of(5.0)] == pytest.approx(5.0)
    with pytest.raises(DomainError):
        grid.index_of(11.0)


def test_channel_constants_validation():
    ch = ChannelConstants(41.47, "n-p")
    assert ch.hbar2_over_2mu == 41.47
    with pytest.raises(DomainError):
        ChannelConstants(-1.0)


def test_integrate_includes_origin_sliver():
    # integral of 2r over [0, r_max] is r_max^2, and the trapezoid with an
    # implicit zero at the origin is exact for a linear integrand
    grid = RadialGrid(step=0.01, n_points=500)
    assert integrate(2.0 * grid.r, grid) == pytest.approx(grid.r_max**2, rel=1e-14)


def test_integrate_shape_mismatch():
    grid = RadialGrid(step=0.01, n_points=500)
    with pytest.raises(DomainError):
        integrate(np.ones(10), grid)
