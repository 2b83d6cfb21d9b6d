import math
import warnings

import numpy as np
import pytest

from susypep import (
    BoundState,
    ChannelConstants,
    DomainError,
    NoSuchStateError,
    RadialGrid,
    SechSquared,
    Tabulated,
    analytic_depth,
    analytic_levels,
    analytic_pt_state,
    charge_radius,
    level_count,
    matter_radius,
)

CH_D = ChannelConstants(41.47, "n-p")
CH_A = ChannelConstants(10.375, "alpha-alpha")


# --- evaluate ---------------------------------------------------------------

def test_sech_squared_origin_limit_is_minus_depth():
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    v0 = analytic_depth(3.146, 1.587, CH_D)
    assert pot.evaluate(1e-9) == pytest.approx(-v0, rel=1e-12)
    assert pot.depth == pytest.approx(v0, rel=1e-15)


def test_all_families_decay_at_large_r():
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    assert abs(pot.evaluate(1e4)) < 1e-12


def test_evaluate_rejects_nonpositive_r():
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    with pytest.raises(DomainError):
        pot.evaluate(0.0)
    with pytest.raises(DomainError):
        pot.evaluate(-1.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, [1.0, math.nan]],
                         ids=["nan", "inf", "array"])
def test_evaluate_rejects_non_finite_r(r):
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            pot.evaluate(r)


def test_sech_squared_parameter_validation():
    with pytest.raises(DomainError):
        SechSquared(0.9, 1.0, 41.47)   # no bound odd state
    with pytest.raises(DomainError):
        SechSquared(3.0, -1.0, 41.47)


@pytest.mark.parametrize("levels", [(1.0,), (-1.0, -2.0), (-1.0, -1.0), (-math.inf,), (math.nan,)])
def test_tabulated_levels_must_be_bound_energies_lowest_first(levels):
    grid = RadialGrid(step=0.01, n_points=200)
    assert Tabulated(grid, np.zeros(200), 0.0, 41.47, levels=(-2.0, -1.0)).levels == (-2.0, -1.0)
    with pytest.raises(DomainError, match="levels"):
        Tabulated(grid, np.zeros(200), 0.0, 41.47, levels=levels)


_GRID = RadialGrid(step=0.01, n_points=200)


@pytest.mark.parametrize("make", [
    lambda: RadialGrid(math.inf, 100),
    lambda: RadialGrid(0.01, 1000.5),
    lambda: Tabulated(_GRID, np.zeros(200), math.nan, 41.47),
    lambda: Tabulated(_GRID, np.zeros(200), math.inf, 41.47),
    lambda: Tabulated(_GRID, np.zeros(200), 0.0, math.nan),
    lambda: Tabulated(_GRID, np.zeros(200), 0.0, math.inf),
    lambda: Tabulated(_GRID, np.zeros(200), 0.0, 0.0),
    lambda: BoundState(math.nan, 0, np.ones(200), 1.0, _GRID),
    lambda: BoundState(-math.inf, 0, np.ones(200), 1.0, _GRID),
    lambda: Tabulated(_GRID, np.zeros(199), 0.0, 41.47),
    lambda: Tabulated(_GRID, np.where(_GRID.r < 1.0, 0.0, math.inf), 0.0, 41.47),
], ids=["step-inf", "n_points-fractional", "singular-nan", "singular-inf", "hbar2-nan",
        "hbar2-inf", "hbar2-zero", "energy-nan", "energy-minus-inf", "values-shape",
        "values-inf"])
def test_value_types_reject_non_finite_fields(make):
    assert RadialGrid(0.01, np.int64(200)) == _GRID    # numpy integers count as integral
    with pytest.raises(DomainError):
        make()


# --- closed-form spectrum -----------------------------------------------------

def test_deuteron_levels_match_reference_values():
    assert analytic_levels(3.146, 1.587, CH_D, 1) == pytest.approx(-2.226, abs=2e-3)
    assert analytic_levels(3.146, 1.587, CH_D, 0) == pytest.approx(-481.0, abs=1.0)


def test_threshold_level_goes_to_zero():
    eps = 1e-6
    e = analytic_levels(1.0 + eps, 2.0, CH_D, 0)
    assert e == pytest.approx(-CH_D.hbar2_over_2mu * eps**2 * 4.0, rel=1e-9)


def test_no_such_state_error():
    with pytest.raises(NoSuchStateError):
        analytic_levels(3.146, 1.587, CH_D, 2)
    with pytest.raises(DomainError, match="state index"):
        analytic_levels(3.146, 1.587, CH_D, -1)


def test_levels_increase_with_n():
    levels = [analytic_levels(5.945, 0.535, CH_A, n) for n in range(level_count(5.945))]
    assert levels == sorted(levels)
    assert len(levels) == 3


def test_alpha_depth_matches_reference_value():
    depth = analytic_depth(5.945, 0.535, CH_A)
    assert depth == pytest.approx(122.694, rel=5e-3)


def test_depth_edge_cases():
    assert analytic_depth(0.0, 1.0, CH_D) == 0.0
    assert analytic_depth(3.146, 1.587, CH_D) == pytest.approx(1362.0, rel=1e-3)


def test_level_count_examples():
    assert level_count(3.146) == 2
    assert level_count(5.945) == 3
    assert level_count(1.0) == 0
    assert level_count(3.0) == 1


@pytest.mark.parametrize("call", [
    lambda: analytic_levels(math.inf, 1.0, CH_D, 0),
    lambda: analytic_levels(math.nan, 1.0, CH_D, 0),
    lambda: analytic_levels(3.0, math.inf, CH_D, 0),
    lambda: analytic_levels(3.0, math.nan, CH_D, 0),
    lambda: analytic_depth(3.0, math.inf, CH_D),
    lambda: analytic_depth(math.nan, 1.0, CH_D),
    lambda: level_count(math.nan),
    lambda: level_count(math.inf),
    lambda: analytic_pt_state(3.146, math.nan, CH_D, 0),
    lambda: analytic_pt_state(math.inf, 1.587, CH_D, 0),
    lambda: analytic_pt_state(1e150, 0.5, CH_D, 1),    # C_3 overflows against sech^s = 0
    lambda: analytic_pt_state(1e9, 0.5, CH_D, 0),      # sech^s underflows to 0 everywhere
    lambda: charge_radius(0.88, math.nan),
    lambda: charge_radius(math.inf, 2.0),
    lambda: matter_radius(10, 2.3, math.inf),
    lambda: matter_radius(10, math.nan, 6.7),
], ids=["levels-a-inf", "levels-a-nan", "levels-beta-inf", "levels-beta-nan", "depth-beta-inf",
        "depth-a-nan", "count-nan", "count-inf", "pt-beta-nan", "pt-a-inf", "pt-state-nan",
        "pt-state-zero", "charge-rms-nan",
        "charge-proton-inf", "matter-rms-inf", "matter-core-nan"])
def test_closed_form_and_radius_helpers_reject_non_finite_input(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()
