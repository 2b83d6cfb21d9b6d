import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susypep import (
    BoundState,
    ChannelConstants,
    DomainError,
    PhaseShiftCurve,
    RadialGrid,
    SechSquared,
    Tabulated,
    TransferStrength,
    charge_radius,
    count_bound_states,
    cross_section_ratio,
    default_grid,
    integrate,
    matter_radius,
    mod_pi_distance,
    phase_shift,
    phase_shift_curve,
    remove_lowest,
    rms_radius,
    solve_at_energy,
    zero_range_strength,
)
from susypep import _kernels

CH_D = ChannelConstants(41.47, "n-p")


# --- radii -----------------------------------------------------------------------

def _toy_state(grid, u, energy=-1.0):
    u = u / math.sqrt(integrate(u * u, grid))
    kappa = math.sqrt(-energy / CH_D.hbar2_over_2mu)
    return BoundState(energy=energy, nodes=0, u=u, kappa=kappa, grid=grid)


def test_rms_toy_sine_closed_form():
    # u = sqrt(2) sin(pi r) on [0, 1]: <r^2> = 1/3 - 1/(2 pi^2)
    grid = RadialGrid(step=1.0 / 2000.0, n_points=2000)
    state = _toy_state(grid, np.sqrt(2.0) * np.sin(np.pi * grid.r))
    expected = math.sqrt(1.0 / 3.0 - 1.0 / (2.0 * math.pi**2))
    assert rms_radius(state, "unit") == pytest.approx(expected, rel=1e-6)


def test_rms_quarter_factor_is_half_the_unit_value(deuteron_chain):
    state = deuteron_chain.physical
    assert rms_radius(state, "quarter") == pytest.approx(
        0.5 * rms_radius(state, "unit"), rel=1e-12
    )


def test_deuteron_rms_reference_values(deuteron_chain):
    assert rms_radius(deuteron_chain.physical, "quarter") == pytest.approx(1.953, abs=5e-3)
    assert rms_radius(deuteron_chain.v3_state, "quarter") == pytest.approx(1.955, abs=5e-3)


def test_rms_rejects_unknown_factor(deuteron_chain):
    with pytest.raises(DomainError):
        rms_radius(deuteron_chain.physical, "half")


def test_rms_tail_truncation_warns(caplog):
    # a state with an artificially long tail on a short grid
    grid = RadialGrid(step=0.01, n_points=600)
    u = np.exp(-0.3 * grid.r)
    with caplog.at_level(logging.WARNING):
        rms_radius(_toy_state(grid, u), "unit")
    assert any("grid may be too short" in rec.message for rec in caplog.records)


def test_converged_deuteron_states_log_no_tail_warning(deuteron_chain, caplog):
    # the closed-form tail beyond 35 fm holds about 1.4e-5 of their r^2 u^2 integral
    with caplog.at_level(logging.WARNING, logger="susypep.observables"):
        rms_radius(deuteron_chain.physical, "quarter")
        rms_radius(deuteron_chain.v3_state, "quarter")
    assert not caplog.records


def test_charge_radius_formula():
    assert charge_radius(0.0, 2.0) == pytest.approx(1.0)
    assert charge_radius(1.4, 0.0) == pytest.approx(1.4 / math.sqrt(2.0))
    assert charge_radius(0.88, 1.953) == pytest.approx(1.158, abs=1e-3)
    with pytest.raises(DomainError):
        charge_radius(-1.0, 1.0)


def test_matter_radius_formula():
    # large core: matter radius approaches the core radius
    assert matter_radius(10**9, 2.3, 6.7) == pytest.approx(2.3, rel=1e-4)
    assert matter_radius(10, 2.3, 0.0) == pytest.approx(2.3 * math.sqrt(10.0 / 11.0), rel=1e-12)
    expected = math.sqrt(10.0 / 11.0 * 2.3**2 + 10.0 / 121.0 * 6.70**2)
    assert matter_radius(10, 2.3, 6.70) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        matter_radius(0, 2.3, 6.7)


# --- phase shifts -------------------------------------------------------------------

def test_zero_potential_gives_zero_phase():
    grid = RadialGrid(step=0.01, n_points=3000)
    flat = Tabulated(grid, np.zeros(grid.n_points), 0.0, CH_D.hbar2_over_2mu)
    for energy in (0.5, 5.0, 18.0):
        assert abs(phase_shift(flat, CH_D, energy, grid=grid)) < 1e-9


def test_square_well_phase_against_closed_form():
    # delta = atan(k tan(K b) / K) - k b (mod pi) for a well of depth V0, radius b
    v0, b = 30.0, 2.0
    grid = RadialGrid(step=0.0025, n_points=6000)
    values = np.where(grid.r < b, -v0, 0.0)
    values[grid.index_of(b)] = -v0 / 2.0          # midpoint value at the jump
    well = Tabulated(grid, values, 0.0, CH_D.hbar2_over_2mu)
    for energy in (1.0, 5.0, 15.0):
        k = math.sqrt(energy / CH_D.hbar2_over_2mu)
        kk = math.sqrt((energy + v0) / CH_D.hbar2_over_2mu)
        exact = math.atan(k * math.tan(kk * b) / kk) - k * b
        exact = exact % math.pi
        if exact > math.pi / 2.0:
            exact -= math.pi
        numeric = phase_shift(well, CH_D, energy, r_match=10.0, grid=grid)
        assert mod_pi_distance(numeric, exact) < 1e-6


def test_phase_equivalence_at_5_mev(deuteron_chain):
    d1 = phase_shift(deuteron_chain.potential, CH_D, 5.0, grid=deuteron_chain.grid)
    d3 = phase_shift(deuteron_chain.rec3.result, CH_D, 5.0, grid=deuteron_chain.grid)
    assert mod_pi_distance(d1, d3) < 0.01


def test_intermediate_breaks_phase_equivalence(deuteron_chain):
    worst = 0.0
    for energy in np.arange(1.0, 20.5, 1.0):
        d1 = phase_shift(deuteron_chain.potential, CH_D, energy, grid=deuteron_chain.grid)
        d2 = phase_shift(deuteron_chain.rec2.result, CH_D, energy, grid=deuteron_chain.grid)
        worst = max(worst, mod_pi_distance(d1, d2))
    assert worst > math.radians(5.0)


def test_phase_shift_requires_positive_energy(deuteron_chain):
    with pytest.raises(DomainError):
        phase_shift(deuteron_chain.potential, CH_D, -1.0)


_WELL = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)


@pytest.mark.parametrize("call", [
    lambda: phase_shift(_WELL, CH_D, math.nan),
    lambda: phase_shift(_WELL, CH_D, math.inf),
    lambda: phase_shift(_WELL, CH_D, 1.0, r_match=math.nan),
    lambda: phase_shift(_WELL, CH_D, 1.0, r_match=math.inf),
    lambda: phase_shift_curve(_WELL, CH_D, [1.0, math.nan]),
    lambda: phase_shift_curve(_WELL, CH_D, [1.0, math.inf]),
    lambda: solve_at_energy(_WELL, CH_D, math.nan),
    lambda: solve_at_energy(_WELL, CH_D, -math.inf),
    lambda: default_grid().index_of(math.nan),
    lambda: default_grid().index_of(math.inf),
    lambda: phase_shift(_WELL, CH_D, 1.0, r_match=1e308),      # r_match / step overflows
    lambda: RadialGrid.from_extent(0.01, 1000.0).index_of(1e308),
    lambda: RadialGrid.from_extent(0.01, 1000.0).index_of(-1e308),
    lambda: phase_shift(_WELL, CH_D, 1.0, r_match=2.0),        # |V| ~ 10 MeV at 2 fm
    lambda: phase_shift_curve(_WELL, CH_D, []),
    lambda: PhaseShiftCurve(np.array([1.0, 2.0]), np.array([0.0])),
], ids=["phase-nan", "phase-inf", "r_match-nan", "r_match-inf", "curve-nan", "curve-inf",
        "energy-nan", "energy-minus-inf", "index-nan", "index-inf", "r_match-huge", "index-huge",
        "index-minus-huge", "r_match-inside-well", "curve-empty", "curve-shapes"])
def test_non_finite_inputs_raise_domain_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


def test_phase_shift_match_radius_not_reachable():
    grid = RadialGrid(step=0.01, n_points=500)    # r_max = 5 fm
    values = -20.0 * np.exp(-0.1 * grid.r)        # still sizable at 5 fm
    slow = Tabulated(grid, values, 0.0, CH_D.hbar2_over_2mu)
    with pytest.raises(DomainError, match="increase r_max"):
        phase_shift(slow, CH_D, 5.0, grid=grid)


def test_curve_is_continuous_and_anchored(deuteron_chain):
    energies = np.arange(0.1, 20.05, 0.1)
    curve = phase_shift_curve(
        deuteron_chain.potential, CH_D, energies, grid=deuteron_chain.grid
    )
    # two bound states: threshold anchor at 2 pi (Levinson)
    assert abs(curve.deltas[0] - 2.0 * math.pi) < 0.5
    assert np.max(np.abs(np.diff(curve.deltas))) < math.pi / 2.0
    # trendwise decay toward high energy
    assert curve.deltas[-1] < curve.deltas[0]


def test_curve_rejects_unsorted_energies(deuteron_chain):
    with pytest.raises(DomainError):
        phase_shift_curve(deuteron_chain.potential, CH_D, [5.0, 1.0], grid=deuteron_chain.grid)


def test_curve_with_a_jump_over_half_pi_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="susypep.observables"):
        PhaseShiftCurve(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.1, 1.8]))
    assert any("1.700 rad jump" in rec.message for rec in caplog.records)


def _scalar_curve(potential, channel, energies, grid):
    """Reference curve: one scalar phase_shift per energy, unwrapped sample by sample."""
    branch = count_bound_states(potential, channel, grid=grid) * math.pi
    deltas = []
    for energy in energies:
        raw = phase_shift(potential, channel, float(energy), grid=grid)
        branch = raw + math.pi * round((branch - raw) / math.pi)
        deltas.append(branch)
    return np.array(deltas)


def _assert_curve_is_scalar_curve(potential, channel, energies, grid):
    curve = phase_shift_curve(potential, channel, energies, grid=grid)
    # bit for bit, not approximately: the batch repeats the scalar arithmetic
    assert np.array_equal(curve.deltas, _scalar_curve(potential, channel, energies, grid))


@pytest.mark.parametrize("chain_name", ["deuteron_chain", "be11_chain", "alpha_chain"])
def test_batched_curve_equals_scalar_phases_on_default_grid(chain_name, request):
    chain = request.getfixturevalue(chain_name)
    energies = 0.1 + 0.1 * np.arange(200)
    for potential in (chain.potential, chain.rec2.result, chain.rec3.result):
        _assert_curve_is_scalar_curve(potential, chain.channel, energies, chain.grid)


@pytest.mark.parametrize("chain_name", ["deuteron_chain", "be11_chain", "alpha_chain"])
def test_batched_curve_equals_scalar_phases_on_fine_long_grid(chain_name, request):
    chain = request.getfixturevalue(chain_name)
    grid = RadialGrid.from_extent(0.005, 100.0)
    rec2, rec3 = remove_lowest(chain.potential, chain.channel, grid=grid)
    energies = np.linspace(0.5, 20.5, 21)
    for potential in (chain.potential, rec2.result, rec3.result):
        _assert_curve_is_scalar_curve(potential, chain.channel, energies, grid)


def test_batched_curve_through_an_overflow_rescale(monkeypatch):
    # a 1e5 MeV barrier over 1-14 fm grows u past GUARD once before the match
    grid = RadialGrid.from_extent(0.01, 35.0)
    values = np.where((grid.r >= 1.0) & (grid.r <= 14.0), 1e5, 0.0)
    barrier = Tabulated(grid, values, 0.0, CH_D.hbar2_over_2mu)
    scales = []
    batch = _kernels.sweep_outward_batch

    def spy(*args, **kwargs):
        rows, log_scale = batch(*args, **kwargs)
        scales.append(log_scale)
        return rows, log_scale

    energies = np.linspace(0.5, 10.0, 20)
    monkeypatch.setattr(_kernels, "sweep_outward_batch", spy)
    curve = phase_shift_curve(barrier, CH_D, energies, grid=grid)
    monkeypatch.undo()
    assert np.array_equal(curve.deltas, _scalar_curve(barrier, CH_D, energies, grid))
    assert len(scales) == 1
    assert np.all(scales[0] == -math.log(1e-250))     # 575.6: exactly one rescale


@pytest.mark.parametrize("energies", [[0.0, 1.0, 2.0], [-1.0, 1.0, 2.0], [1.0, 2.0, -3.0]])
def test_curve_rejects_non_positive_energy_before_sweeping(deuteron_chain, monkeypatch, energies):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before the energies were validated")

    monkeypatch.setattr(_kernels, "sweep_outward", no_sweep)
    monkeypatch.setattr(_kernels, "sweep_outward_batch", no_sweep)
    with pytest.raises(DomainError, match="must be > 0"):
        phase_shift_curve(deuteron_chain.potential, CH_D, energies, grid=deuteron_chain.grid)


def test_batched_curve_memory_stays_bounded(deuteron_chain):
    # a full coefficient array over the 2000 points up to the match radius
    # alone would take 400 x 2000 x 8 B = 6.4 MB
    energies = 0.05 + 0.05 * np.arange(400)
    tracemalloc.start()
    try:
        phase_shift_curve(deuteron_chain.potential, CH_D, energies, grid=deuteron_chain.grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_mod_pi_distance_on_arrays_matches_scalars():
    a = np.array([0.1, 3.0, -2.0, 7.0, 1.5707963])
    b = np.array([0.1 + math.pi, 0.2, 1.0, -7.0, -1.5707963])
    distances = mod_pi_distance(a, b)
    assert distances.shape == a.shape
    assert np.array_equal(distances, [mod_pi_distance(x, y) for x, y in zip(a, b)])
    for x, y in zip(a.tolist(), b.tolist()):
        # the plain-float formula the scalar results must keep
        d = abs(x - y) % math.pi
        assert mod_pi_distance(x, y) == min(d, math.pi - d)


# --- transfer strength ----------------------------------------------------------------

def test_zero_potential_gives_zero_strength(deuteron_chain):
    grid = deuteron_chain.grid
    flat = Tabulated(grid, np.zeros(grid.n_points), 0.0, CH_D.hbar2_over_2mu)
    ts = zero_range_strength(flat, deuteron_chain.physical)
    assert ts.d0 == pytest.approx(0.0, abs=1e-12)


def test_strength_warns_when_the_integrand_survives_at_the_grid_edge(deuteron_chain, caplog):
    # a potential that never dies off: r V u0 is still ~1e-2 at 35 fm
    grid = deuteron_chain.grid
    flat = Tabulated(grid, np.full(grid.n_points, -1.0), 0.0, CH_D.hbar2_over_2mu)
    with caplog.at_level(logging.WARNING, logger="susypep.observables"):
        zero_range_strength(flat, deuteron_chain.physical)
    assert any("at the grid edge" in rec.message for rec in caplog.records)


def test_deuteron_strengths_reference_values(deuteron_chain):
    deep = zero_range_strength(deuteron_chain.potential, deuteron_chain.physical)
    pep = zero_range_strength(deuteron_chain.rec3.result, deuteron_chain.v3_state)
    assert deep.d0_squared == pytest.approx(15792.0, rel=0.02)
    assert pep.d0_squared == pytest.approx(15980.0, rel=0.02)
    assert cross_section_ratio(deep, pep) == pytest.approx(0.988, abs=5e-3)


def test_strength_integral_identity(deuteron_chain):
    # integration by parts of the radial equation: int r V u dr = E int r u dr
    for potential, state in (
        (deuteron_chain.potential, deuteron_chain.physical),
        (deuteron_chain.rec3.result, deuteron_chain.v3_state),
    ):
        ts = zero_range_strength(potential, state)
        grid = state.grid
        alt = math.sqrt(4.0 * math.pi) * state.energy * integrate(grid.r * state.u, grid)
        assert ts.d0 == pytest.approx(alt, rel=5e-3)


def test_strength_quadrature_convergence():
    from susypep import analyze, get_preset

    preset = get_preset("deuteron")
    values = {}
    for step in (0.01, 0.005):
        chain = analyze(preset, RadialGrid.from_extent(step, 35.0))
        values[step] = zero_range_strength(chain.potential, chain.physical).d0
    assert values[0.01] == pytest.approx(values[0.005], rel=1e-3)


def test_ratio_sign_flip_invariance(deuteron_chain):
    deep = zero_range_strength(deuteron_chain.potential, deuteron_chain.physical)
    pep = zero_range_strength(deuteron_chain.rec3.result, deuteron_chain.v3_state)
    flipped = cross_section_ratio(
        TransferStrength(-deep.d0), TransferStrength(-pep.d0)
    )
    assert flipped == pytest.approx(cross_section_ratio(deep, pep), rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(d0=st.floats(min_value=1e-6, max_value=1e4))
def test_equal_strengths_give_unit_ratio(d0):
    ts = TransferStrength(d0)
    assert cross_section_ratio(ts, TransferStrength(d0)) == pytest.approx(1.0)
    assert cross_section_ratio(ts, TransferStrength(-d0)) == pytest.approx(1.0)


def test_zero_pep_strength_rejected():
    with pytest.raises(DomainError):
        cross_section_ratio(TransferStrength(1.0), TransferStrength(0.0))


def test_d0_squared_is_square():
    ts = TransferStrength(-125.7)
    assert ts.d0_squared == ts.d0 * ts.d0


def test_ratio_of_quoted_strengths():
    deep = TransferStrength(math.sqrt(15792.0))
    pep = TransferStrength(math.sqrt(15980.0))
    assert cross_section_ratio(deep, pep) == pytest.approx(0.988, abs=5e-4)
