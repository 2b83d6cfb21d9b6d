import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susypep import (
    ChannelConstants,
    DomainError,
    NoSuchStateError,
    RadialGrid,
    SechSquared,
    SuperpotentialPair,
    Tabulated,
    a_from_depth,
    analytic_depth,
    analytic_levels,
    depth_from_a,
    level_count,
    shape_invariance_residual,
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


# --- superpotential algebra ---------------------------------------------------

def test_depth_round_trip_deuteron():
    v0 = analytic_depth(3.146, 1.587, CH_D)
    a = a_from_depth(v0, 1.587, CH_D)
    assert depth_from_a(a, 1.587, CH_D) == pytest.approx(v0, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    v0=st.floats(min_value=1e-3, max_value=1e5),
    beta=st.floats(min_value=1e-2, max_value=10.0),
)
def test_depth_round_trip_property(v0, beta):
    a = a_from_depth(v0, beta, CH_D)
    assert depth_from_a(a, beta, CH_D) == pytest.approx(v0, rel=1e-12)


def test_shape_invariance_residual_vanishes_for_deuteron():
    a = 3.146 * 1.587 * math.sqrt(CH_D.hbar2_over_2mu)
    v0 = analytic_depth(3.146, 1.587, CH_D)
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert abs(shape_invariance_residual(a, 1.587, CH_D, r)) < 1e-10 * v0


def test_shape_invariance_residual_alpha_at_1fm():
    a = 5.945 * 0.535 * math.sqrt(CH_A.hbar2_over_2mu)
    v0 = analytic_depth(5.945, 0.535, CH_A)
    assert abs(shape_invariance_residual(a, 0.535, CH_A, 1.0)) < 1e-10 * v0


@settings(max_examples=60, deadline=None)
@given(
    a_tilde=st.floats(min_value=1.5, max_value=12.0),
    beta=st.floats(min_value=0.1, max_value=3.0),
    r=st.floats(min_value=1e-3, max_value=20.0),
)
def test_shape_invariance_residual_r_independent_property(a_tilde, beta, r):
    a = a_tilde * beta * math.sqrt(CH_D.hbar2_over_2mu)
    v0 = analytic_depth(a_tilde, beta, CH_D)
    assert abs(shape_invariance_residual(a, beta, CH_D, r)) < 1e-10 * max(v0, 1.0)


def test_shape_invariance_requires_a_above_step():
    b = 1.587 * math.sqrt(CH_D.hbar2_over_2mu)
    with pytest.raises(DomainError):
        shape_invariance_residual(0.5 * b, 1.587, CH_D, 1.0)


def test_superpotential_pair_partner_difference():
    pair = SuperpotentialPair(30.0, 1.0, CH_D.hbar2_over_2mu)
    r = np.linspace(0.1, 5.0, 50)
    # V1 - V2 = -2 A b sech^2(beta r), a pure sech^2 well
    diff = pair.v1(r) - pair.v2(r)
    expected = -2.0 * 30.0 * pair.b_step / np.cosh(r) ** 2
    assert np.allclose(diff, expected, rtol=1e-12)
