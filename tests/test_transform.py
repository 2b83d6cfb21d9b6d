import numpy as np
import pytest

from susypep import (
    ChannelConstants,
    DomainError,
    SechSquared,
    analytic_levels,
    build_partners,
    build_pep_via_intermediate,
    count_bound_states,
    iterate_removals,
    level_count,
    remove_lowest,
    solve_bound_state,
)
from susypep import transform
from susypep.solver import log_derivative

CH_D = ChannelConstants(41.47, "n-p")
CH_A = ChannelConstants(10.375, "alpha-alpha")


def exact_intermediate(a_tilde, beta, channel, grid):
    """Closed-form V2 for a sech^2 source: V1 - 2c (ln u0)'' evaluated exactly."""
    c = channel.hbar2_over_2mu
    x = beta * grid.r
    v1 = SechSquared(a_tilde, beta, c).evaluate(grid.r)
    curvature = (
        -4.0 * beta**2 * np.cosh(2.0 * x) / np.sinh(2.0 * x) ** 2
        - (a_tilde - 1.0) * beta**2 / np.cosh(x) ** 2
    )
    return v1 - 2.0 * c * curvature


# --- V2 ---------------------------------------------------------------------------

def test_intermediate_matches_closed_form(deuteron_chain):
    grid = deuteron_chain.grid
    exact = exact_intermediate(3.146, 1.587, CH_D, grid)
    values = np.asarray(deuteron_chain.rec2.result.values)
    window = (grid.r >= 0.1) & (grid.r <= 10.0)
    assert np.max(np.abs(values[window] - exact[window])) < 5e-3
    inner = (grid.r >= 0.3) & (grid.r <= 10.0)
    assert np.max(np.abs(values[inner] - exact[inner])) < 1e-3


def test_intermediate_lowest_state_is_first_excited(deuteron_chain):
    assert deuteron_chain.v2_state.energy == pytest.approx(
        deuteron_chain.physical.energy, abs=1e-3
    )
    assert deuteron_chain.v2_state.nodes == 0


def test_intermediate_origin_singularity(deuteron_chain):
    # V2 - V1 -> 2 c / r^2 for r -> 0: the ratio approaches 1 from the
    # innermost mesh points, where the smooth remainder is negligible
    grid = deuteron_chain.grid
    c = CH_D.hbar2_over_2mu
    v1 = deuteron_chain.potential.evaluate(grid.r)
    diff = np.asarray(deuteron_chain.rec2.result.values) - v1
    ratios = diff[:3] * grid.r[:3] ** 2 / (2.0 * c)
    assert ratios[0] == pytest.approx(1.0, rel=2e-3)
    assert np.all(np.abs(ratios - 1.0) < 1e-2)
    assert deuteron_chain.rec2.result.singular_coefficient == pytest.approx(2.0)


def test_intermediate_rejects_noded_state(deuteron_chain):
    with pytest.raises(DomainError, match="nodeless"):
        build_partners(deuteron_chain.potential, deuteron_chain.physical, CH_D)


# --- V3 ---------------------------------------------------------------------------

def test_pep_spectrum_is_source_minus_ground(deuteron_chain):
    assert deuteron_chain.v3_state.energy == pytest.approx(
        deuteron_chain.physical.energy, abs=1e-3
    )
    assert deuteron_chain.v3_state.nodes == 0
    assert count_bound_states(deuteron_chain.rec3.result, CH_D) == 1


def test_pep_origin_singularity(deuteron_chain):
    # V3 - V1 -> 6 c / r^2 for r -> 0
    grid = deuteron_chain.grid
    c = CH_D.hbar2_over_2mu
    v1 = deuteron_chain.potential.evaluate(grid.r)
    diff = np.asarray(deuteron_chain.rec3.result.values) - v1
    ratios = diff[:3] * grid.r[:3] ** 2 / (6.0 * c)
    assert ratios[0] == pytest.approx(1.0, rel=2e-3)
    assert np.all(np.abs(ratios - 1.0) < 1e-2)
    assert deuteron_chain.rec3.result.singular_coefficient == pytest.approx(6.0)


def test_pep_equals_source_outside_core(deuteron_chain):
    grid = deuteron_chain.grid
    v1 = deuteron_chain.potential.evaluate(grid.r)
    v3 = np.asarray(deuteron_chain.rec3.result.values)
    outside = grid.r > 5.0 / 1.587
    assert np.max(np.abs(v3[outside] - v1[outside])) < 0.01


def test_intermediate_tail_follows_closed_form(deuteron_chain):
    # |V2 - V1| decays with the potential range (2 beta), not the removed
    # state's kappa; it drops below 0.01 MeV only beyond ~6.4/beta for this
    # system, which the closed form confirms, so the tail contract is tested
    # against the exact curve and the 0.01 MeV bound further out.
    grid = deuteron_chain.grid
    v1 = deuteron_chain.potential.evaluate(grid.r)
    v2 = np.asarray(deuteron_chain.rec2.result.values)
    exact = exact_intermediate(3.146, 1.587, CH_D, grid)
    outside = grid.r > 5.0 / 1.587
    assert np.max(np.abs(v2[outside] - exact[outside])) < 1e-3
    far = grid.r > 8.0 / 1.587
    assert np.max(np.abs(v2[far] - v1[far])) < 0.01


def test_node_removal(deuteron_chain):
    assert deuteron_chain.v3_state.nodes == deuteron_chain.physical.nodes - 1 == 0


def test_tail_coincidence_of_wave_functions(deuteron_chain):
    mask = deuteron_chain.grid.r > 3.0
    diff = np.abs(deuteron_chain.v3_state.u[mask] - deuteron_chain.physical.u[mask])
    assert np.max(diff) < 1e-3


def test_log_integral_curvature_against_finite_differences(deuteron_chain):
    # (ln I)'' from the analytic identity vs central differences of ln I
    ground = deuteron_chain.ground
    grid = ground.grid
    h = grid.step
    c = CH_D.hbar2_over_2mu
    f = (deuteron_chain.potential.evaluate(grid.r) - ground.energy) / c
    du = log_derivative(ground.u, f, 1.0, grid, -ground.kappa) * ground.u
    dens = ground.u**2
    dens_prime = 2.0 * ground.u * du
    core = np.concatenate([[0.0], np.cumsum(0.5 * h * (dens[1:] + dens[:-1]))])
    # Euler-Maclaurin-corrected antiderivative of u^2 (the production I(r));
    # a plain cumulative trapezoid deviates from an antiderivative at O(h^2),
    # which would dominate the comparison
    cum = dens[0] * grid.r[0] / 3.0 + core - (h * h / 12.0) * (dens_prime - dens_prime[0])
    identity = 2.0 * ground.u * du / cum - (dens / cum) ** 2

    # O(h^4) five-point second difference of ln I; the plain central stencil's
    # own truncation error (~h^2 (2 kappa)^2 / 12) would mask the comparison
    ln_cum = np.log(cum)
    fd = (
        -ln_cum[4:] + 16.0 * ln_cum[3:-1] - 30.0 * ln_cum[2:-2]
        + 16.0 * ln_cum[1:-3] - ln_cum[:-4]
    ) / (12.0 * h**2)
    centers = slice(2, -2)
    mid = (grid.r[centers] > 0.3) & (grid.r[centers] < 1.2)
    rel = np.abs(fd - identity[centers])[mid] / np.abs(identity[centers])[mid]
    assert np.max(rel) < 1e-5


# --- remove_lowest / iterate_removals ------------------------------------------------

def test_remove_lowest_records(deuteron_chain):
    rec2, rec3 = deuteron_chain.rec2, deuteron_chain.rec3
    assert rec2.ground.energy == pytest.approx(-481.0, abs=1.0)
    assert rec2.ground.energy == rec3.ground.energy
    assert rec2.result.singular_coefficient == pytest.approx(2.0)


def test_remove_lowest_on_be11_removes_analytic_ground(be11_chain):
    expected = analytic_levels(be11_chain.a_tilde, be11_chain.beta, be11_chain.channel, 0)
    assert be11_chain.rec2.ground.energy == pytest.approx(expected, rel=1e-6)


def test_single_state_potential_empties(deuteron_chain):
    # the deuteron V3 has exactly one state; removing it leaves none
    rec2, rec3 = remove_lowest(deuteron_chain.rec3.result, CH_D)
    assert count_bound_states(rec3.result, CH_D) == 0
    assert rec2.result.singular_coefficient == pytest.approx(12.0)   # l_eff 2 -> 3
    assert rec3.result.singular_coefficient == pytest.approx(20.0)   # l_eff 2 -> 4


def test_iterate_zero_is_identity(deuteron_chain):
    assert iterate_removals(deuteron_chain.potential, CH_D, 0) == []


def test_iterate_negative_removals_rejected(deuteron_chain):
    with pytest.raises(DomainError, match="number of removals"):
        iterate_removals(deuteron_chain.potential, CH_D, -1)


def test_iterate_one_equals_remove_lowest(deuteron_chain):
    records = iterate_removals(deuteron_chain.potential, CH_D, 1, grid=deuteron_chain.grid)
    assert len(records) == 2
    assert records[0].ground.energy == pytest.approx(
        deuteron_chain.rec2.ground.energy, abs=1e-9
    )
    np.testing.assert_allclose(
        records[1].result.values, deuteron_chain.rec3.result.values, rtol=0, atol=1e-9
    )


def test_iterate_too_many_removals_names_count(deuteron_chain):
    with pytest.raises(DomainError, match="2 bound state"):
        iterate_removals(deuteron_chain.potential, CH_D, 3)


def test_alpha_double_removal_preserves_remaining_level(alpha_chain):
    records = iterate_removals(alpha_chain.potential, CH_A, 2, grid=alpha_chain.grid)
    assert len(records) == 4
    final = records[-1].result
    assert final.singular_coefficient == pytest.approx(20.0)   # l_eff 0 -> 2 -> 4
    assert final.levels == alpha_chain.potential.levels[2:]
    remaining = solve_bound_state(final, CH_A, target_nodes=0, grid=alpha_chain.grid)
    expected = analytic_levels(5.945, 0.535, CH_A, 2)
    assert remaining.energy == pytest.approx(expected, abs=1e-3)
    assert count_bound_states(final, CH_A) == 1


@pytest.mark.parametrize("chain_name", ["deuteron_chain", "be11_chain", "alpha_chain"])
def test_partners_know_the_source_spectrum_minus_the_removed_level(chain_name, request):
    chain = request.getfixturevalue(chain_name)
    deep = chain.potential
    assert deep.levels == tuple(
        analytic_levels(chain.a_tilde, chain.beta, chain.channel, n)
        for n in range(level_count(chain.a_tilde))
    )
    for rec in chain.records:
        assert rec.result.levels == chain.potential.levels[1:]
    via_v2 = build_pep_via_intermediate(deep, chain.ground, chain.channel, chain.rec2.result)
    assert via_v2.levels == deep.levels[1:]


@pytest.mark.parametrize("chain_name", ["deuteron_chain", "be11_chain", "alpha_chain"])
def test_build_partners_returns_the_records_of_remove_lowest(chain_name, request):
    chain = request.getfixturevalue(chain_name)
    partners = build_partners(chain.potential, chain.ground, chain.channel)
    for built, rec in zip(partners, (chain.rec2, chain.rec3)):
        assert np.array_equal(built.values, rec.result.values)
        assert built.singular_coefficient == rec.result.singular_coefficient
        assert built.levels == rec.result.levels


def test_remove_lowest_resolves_its_source_once(deuteron_chain, monkeypatch):
    calls, real = [], transform.resolve
    monkeypatch.setattr(transform, "resolve", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    remove_lowest(deuteron_chain.potential, CH_D, grid=deuteron_chain.grid)
    assert len(calls) == 1


def test_singular_coefficient_ladder(alpha_chain):
    records = iterate_removals(alpha_chain.potential, CH_A, 2, grid=alpha_chain.grid)
    coefficients = [rec.result.singular_coefficient for rec in records]
    assert coefficients == pytest.approx([2.0, 6.0, 12.0, 20.0])
