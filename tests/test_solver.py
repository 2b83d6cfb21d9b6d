import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest

from susypep import (
    BracketError,
    ChannelConstants,
    DomainError,
    NoSuchStateError,
    RadialGrid,
    SechSquared,
    Tabulated,
    analytic_levels,
    analytic_pt_state,
    build_partners,
    build_pep_via_intermediate,
    count_bound_states,
    count_nodes,
    default_grid,
    integrate,
    level_count,
    node_positions,
    phase_shift,
    phase_shift_curve,
    solve_at_energy,
    solve_bound_state,
)
from susypep import analyze, get_preset, solver
from susypep.potentials import values_on_grid
from susypep.solver import log_derivative, origin_power, outward_node_count, resolve

CH_D = ChannelConstants(41.47, "n-p")
CH_A = ChannelConstants(10.375, "alpha-alpha")


# --- count_nodes / node_positions ---------------------------------------------

def test_free_sine_node_count():
    grid = default_grid()
    for k in (0.5, 1.0, 2.3):
        u = np.sin(k * grid.r)
        assert count_nodes(u) == math.floor(35.0 * k / math.pi)


def test_node_count_survives_overflow_and_underflow_of_neighbour_products():
    # the neighbour products overflow to -inf and underflow to -0.0 here
    u = np.array([1e200, -1e200, 1e-300, -1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(node_positions(u, default_grid())) == count_nodes(u) == 3


def test_node_count_skips_exact_zeros():
    assert count_nodes([0.0, 1.0, 0.0, -0.0, -2.0, 0.0, 3.0]) == 2
    assert count_nodes([0.0, -1.0]) == 0
    assert count_nodes([]) == 0


def test_ground_states_are_nodeless(deuteron_chain):
    assert count_nodes(deuteron_chain.ground.u) == 0


def test_deep_deuteron_node_position(deuteron_chain):
    positions = node_positions(deuteron_chain.physical.u, deuteron_chain.grid)
    assert len(positions) == 1
    # derived from the closed-form n=1 eigenstate: the node sits where
    # (2 At - 1) tanh^2(beta r) = 3
    a_tilde, beta = 3.146, 1.587
    expected = math.atanh(math.sqrt(3.0 / (2.0 * a_tilde - 1.0))) / beta
    assert positions[0] == pytest.approx(expected, abs=1e-3)


# --- bound-state solving --------------------------------------------------------

def test_deuteron_levels_against_reference(deuteron_chain):
    assert deuteron_chain.physical.energy == pytest.approx(-2.226, abs=1e-3)
    assert deuteron_chain.ground.energy == pytest.approx(-481.0, abs=1.0)


@pytest.mark.parametrize(
    "a_tilde,beta,channel",
    [
        (3.146, 1.587, CH_D),
        (5.945, 0.535, CH_A),
    ],
)
def test_numerical_levels_match_closed_form(a_tilde, beta, channel):
    pot = SechSquared(a_tilde, beta, channel.hbar2_over_2mu)
    grid = default_grid()
    for n in range(level_count(a_tilde)):
        exact = analytic_levels(a_tilde, beta, channel, n)
        state = solve_bound_state(pot, channel, target_nodes=n, grid=grid)
        assert state.energy == pytest.approx(exact, rel=1e-4)
        assert state.nodes == n


def test_level_count_matches_numerical_bound_count():
    for a_tilde, beta, channel in ((3.146, 1.587, CH_D), (5.945, 0.535, CH_A)):
        pot = SechSquared(a_tilde, beta, channel.hbar2_over_2mu)
        assert count_bound_states(pot, channel) == level_count(a_tilde)


def test_normalization_and_kappa_invariants(deuteron_chain):
    for state in (deuteron_chain.ground, deuteron_chain.physical):
        grid = state.grid
        assert abs(integrate(state.u**2, grid) - 1.0) < 1e-8
        # log-derivative at r_max/2 agrees with kappa
        mid = grid.index_of(grid.r_max / 2.0)
        h = grid.step
        du = (state.u[mid + 1] - state.u[mid - 1]) / (2.0 * h)
        assert -du / state.u[mid] == pytest.approx(state.kappa, rel=1e-3)


def test_grid_halving_changes_eigenvalue_below_1e6():
    base = RadialGrid.from_extent(0.005, 35.0)
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    for n in (0, 1):
        e_base = solve_bound_state(pot, CH_D, n, grid=base).energy
        e_half = solve_bound_state(pot, CH_D, n, grid=RadialGrid(0.0025, 14000)).energy
        assert abs(e_base - e_half) < 1e-6


def test_bracket_error_reports_node_counts():
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    with pytest.raises(BracketError, match="node counts"):
        solve_bound_state(pot, CH_D, target_nodes=5)


CHAINS = ("deuteron_chain", "be11_chain", "alpha_chain")


def _chain_problems(chain):
    """(potential, target nodes) of every chain state: each V1 level, then V2 and V3."""
    levels = [(chain.potential, n) for n in range(chain.preset.physical_node_count + 1)]
    return levels + [(chain.rec2.result, 0), (chain.rec3.result, 0)]


def _assert_lands_on_count_step(chain):
    g, ch = chain.grid, chain.channel
    for pot, n in _chain_problems(chain):
        energy = solve_bound_state(pot, ch, n, grid=g).energy
        v, p, c = values_on_grid(pot, g), origin_power(pot), ch.hbar2_over_2mu
        assert outward_node_count((v - (energy - 1e-8)) / c, p, g) == n
        assert outward_node_count((v - (energy + 1e-8)) / c, p, g) == n + 1


@pytest.mark.parametrize("chain_name", CHAINS)
def test_solve_lands_on_the_node_count_step(chain_name, request):
    # the corrections must find the root that node-count bisection brackets
    _assert_lands_on_count_step(request.getfixturevalue(chain_name))


def test_solve_lands_on_the_node_count_step_for_be11_on_a_long_grid():
    _assert_lands_on_count_step(analyze(get_preset("be11"), RadialGrid.from_extent(0.01, 60.0)))


@pytest.mark.parametrize("chain_name", CHAINS)
def test_solve_sweeps_at_most_six_grid_lengths(chain_name, request, monkeypatch):
    # every chain level is known (closed form, or the source's minus the removed
    # one), so a solve is two end probes, two corrections and the assembly
    chain = request.getfixturevalue(chain_name)
    steps = [0]

    def counted(sweep):
        def run(*args):
            u, log_scale = sweep(*args)
            steps[0] += len(u) - 2
            return u, log_scale
        return run

    for name in ("sweep_outward", "sweep_inward"):
        monkeypatch.setattr(solver._kernels, name, counted(getattr(solver._kernels, name)))
    for pot, n in _chain_problems(chain):
        steps[0] = 0
        solve_bound_state(pot, chain.channel, n, grid=chain.grid)
        assert steps[0] <= 6 * chain.grid.n_points, (pot, n)


@pytest.mark.parametrize("chain_name", CHAINS)
def test_known_level_start_agrees_with_the_default_bracket(chain_name, request, monkeypatch):
    # the same levels once more, each searched from the bracket from the sampled depth
    chain = request.getfixturevalue(chain_name)
    g, ch = chain.grid, chain.channel
    problems = _chain_problems(chain)
    assert all(pot.levels for pot, _ in problems)
    known = [solve_bound_state(pot, ch, n, grid=g).energy for pot, n in problems]
    monkeypatch.setattr(solver, "_known_level_bracket", lambda *args: None)
    wide = [solve_bound_state(pot, ch, n, grid=g).energy for pot, n in problems]
    assert known == pytest.approx(wide, abs=1e-10)


@pytest.mark.parametrize("chain_name", CHAINS)
def test_wrong_known_levels_widen_to_the_default_bracket(chain_name, request, monkeypatch):
    # each partner level moved down onto its neighbour, the source level below it
    chain = request.getfixturevalue(chain_name)
    probes = [0]

    def counted(*args):
        probes[0] += 1
        return outward_node_count(*args)

    monkeypatch.setattr(solver, "outward_node_count", counted)
    for rec, state in ((chain.rec2, chain.v2_state), (chain.rec3, chain.v3_state)):
        good = rec.result
        wrong = dataclasses.replace(good, levels=chain.potential.levels[:len(good.levels)])
        assert wrong.levels != good.levels
        probes[0] = 0
        solve_bound_state(good, chain.channel, 0, grid=chain.grid)
        assert probes[0] == 2                 # the two ends of the known-level bracket
        probes[0] = 0
        got = solve_bound_state(wrong, chain.channel, 0, grid=chain.grid)
        assert probes[0] >= 4                 # ... and of the bracket from the sampled depth
        assert got.energy == pytest.approx(state.energy, abs=1e-8)
        assert np.max(np.abs(got.u - state.u)) < 1e-6


@pytest.mark.parametrize("rejected", [0.0, math.nan])
def test_rejected_corrections_fall_back_to_bisection(deuteron_chain, rejected, monkeypatch):
    # 0 MeV lies above every bracket, nan stands for a vanishing amplitude at the match
    chain = deuteron_chain
    cases = [(chain.potential, 1, chain.physical), (chain.rec3.result, 0, chain.v3_state)]
    monkeypatch.setattr(solver, "_cooley_energy", lambda *args: rejected)
    for pot, nodes, state in cases:
        got = solve_bound_state(pot, chain.channel, nodes, grid=chain.grid)
        assert got.energy == pytest.approx(state.energy, abs=1e-8)


def test_tabulated_potential_off_its_own_grid_is_rejected(deuteron_chain):
    # linear interpolation onto another mesh would be O(h^2) inside an O(h^4) solver
    v3 = deuteron_chain.rec3.result
    finer = RadialGrid.from_extent(0.005, 35.0)
    with pytest.raises(DomainError, match="own grid"):
        solve_bound_state(v3, CH_D, target_nodes=0, grid=finer)
    assert solve_bound_state(v3, CH_D, target_nodes=0, grid=v3.grid).nodes == 0


def test_negative_target_nodes_rejected():
    with pytest.raises(DomainError, match="target_nodes"):
        solve_bound_state(SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu), CH_D, target_nodes=-1)


def test_channel_mismatch_rejected():
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    with pytest.raises(DomainError):
        solve_bound_state(pot, CH_A, target_nodes=0)


MISMATCHED_CALLS = {
    "solve_bound_state": lambda pot, ground, ch: solve_bound_state(pot, ch, 0),
    "phase_shift": lambda pot, ground, ch: phase_shift(pot, ch, 5.0),
    "phase_shift_curve": lambda pot, ground, ch: phase_shift_curve(pot, ch, [1.0, 5.0]),
    "solve_at_energy": lambda pot, ground, ch: solve_at_energy(pot, ch, -1.0),
    "count_bound_states": lambda pot, ground, ch: count_bound_states(pot, ch),
    # build_partners builds both: V2 (the intermediate) and V3 (the pep)
    "build_intermediate": lambda pot, ground, ch: build_partners(pot, ground, ch)[0],
    "build_pep": lambda pot, ground, ch: build_partners(pot, ground, ch)[1],
    "build_pep_via_intermediate": lambda pot, ground, ch: build_pep_via_intermediate(
        pot, ground, ch, build_partners(pot, ground, CH_D)[0]),   # V2 in its own channel
}


@pytest.mark.parametrize("name", MISMATCHED_CALLS)
def test_channel_mismatch_raises_before_any_sweep(name, monkeypatch):
    # the deuteron well in the n-Be10 channel: at 5 MeV the phase shift would
    # read -0.329 rad, not the deuteron's -1.362 rad
    pot = SechSquared(3.146, 1.587, CH_D.hbar2_over_2mu)
    ground = solve_bound_state(pot, CH_D, target_nodes=0)
    for sweep in ("sweep_outward", "sweep_inward", "sweep_outward_batch"):
        monkeypatch.setattr(solver._kernels, sweep,
                            lambda *args: pytest.fail("swept before the channel check"))
    with pytest.raises(DomainError, match="hbar2_over_2mu"):
        MISMATCHED_CALLS[name](pot, ground, ChannelConstants(22.81, "n-Be10"))


def test_resolve_samples_on_the_given_or_own_grid(deuteron_chain):
    v3 = deuteron_chain.rec3.result
    v, c, p, g = resolve(v3, CH_D)
    assert g == v3.grid and c == CH_D.hbar2_over_2mu and p == 3.0
    assert np.array_equal(v, v3.values)
    v, _, p, g = resolve(deuteron_chain.potential, CH_D)
    assert g == default_grid() and p == 1.0
    assert np.array_equal(v, deuteron_chain.potential.evaluate(g.r))
    finer = RadialGrid.from_extent(0.005, 35.0)
    assert resolve(deuteron_chain.potential, CH_D, finer)[3] == finer


def _riccati_residual(potential, ground, channel) -> float:
    """max |y' + y^2 - (V1 - E0)/c| / max |(V1 - E0)/c| on 1-10 fm, y = u0'/u0.

    y' comes from central differences of y, so the residual falls as h^2.
    """
    grid = ground.grid
    f = (potential.evaluate(grid.r) - ground.energy) / channel.hbar2_over_2mu
    y = log_derivative(ground.u, f, 1.0, grid, -ground.kappa)
    residual = (y[2:] - y[:-2]) / (2.0 * grid.step) + y[1:-1] ** 2 - f[1:-1]
    keep = (grid.r[1:-1] >= 1.0) & (grid.r[1:-1] <= 10.0)
    return np.max(np.abs(residual[keep])) / np.max(np.abs(f[1:-1][keep]))


@pytest.mark.parametrize("chain_name", ["deuteron_chain", "be11_chain", "alpha_chain"])
def test_ground_state_satisfies_the_riccati_equation(chain_name, request):
    # the factorization V1 = E0 + c (y^2 + y') that every SUSY partner is built on
    chain = request.getfixturevalue(chain_name)
    coarse = _riccati_residual(chain.potential, chain.ground, chain.channel)
    finer = RadialGrid(chain.grid.step / 2.0, 2 * chain.grid.n_points)
    fine_ground = solve_bound_state(chain.potential, chain.channel, 0, grid=finer)
    fine = _riccati_residual(chain.potential, fine_ground, chain.channel)
    assert coarse < 1e-4
    assert fine < coarse / 3.0


# --- solve_at_energy ------------------------------------------------------------

def test_free_particle_regular_solution_is_sine():
    grid = RadialGrid(step=0.01, n_points=1000)
    # emulate V=0 via a tabulated zero potential
    flat = Tabulated(grid, np.zeros(grid.n_points), 0.0, CH_D.hbar2_over_2mu)
    energy = 5.0
    k = math.sqrt(energy / CH_D.hbar2_over_2mu)
    u = solve_at_energy(flat, CH_D, energy, grid=grid)
    reference = np.sin(k * grid.r) / np.sin(k * grid.r[0]) * u[0]
    assert np.max(np.abs(u - reference)) < 1e-8 * np.max(np.abs(reference))


def test_regular_solution_at_eigenvalue_tracks_bound_state(deuteron_chain):
    state = deuteron_chain.physical
    u = solve_at_energy(deuteron_chain.potential, CH_D, state.energy, grid=state.grid)
    interior = state.grid.r < 3.0
    scale = state.u[100] / u[100]
    assert np.max(np.abs(scale * u[interior] - state.u[interior])) < 1e-4


def test_regular_solution_amplitude_convention(deuteron_chain):
    v2 = deuteron_chain.rec2.result
    u = solve_at_energy(v2, CH_D, deuteron_chain.ground.energy)
    assert origin_power(v2) == pytest.approx(2.0)
    assert u.shape == (v2.grid.n_points,) and not u.flags.writeable
    assert u[0] == pytest.approx(v2.grid.r_min**2, rel=1e-12)
    assert u[0] > 0.0
    assert count_nodes(u) == 0              # nodeless, exponentially growing


def test_solve_at_energy_zero_energy_rejected(deuteron_chain):
    with pytest.raises(DomainError):
        solve_at_energy(deuteron_chain.potential, CH_D, 0.0)


def test_solve_at_energy_rescales_instead_of_overflowing(caplog):
    # a strongly repulsive plateau makes the regular solution grow like
    # exp(30 r) over 35 fm; the sweep must rescale and carry on
    grid = default_grid()
    wall = Tabulated(grid, np.full(grid.n_points, 38000.0), 0.0, CH_D.hbar2_over_2mu)
    with caplog.at_level(logging.WARNING):
        u = solve_at_energy(wall, CH_D, -1.0, grid=grid)
    assert np.all(np.isfinite(u))
    assert any("rescaled" in rec.message for rec in caplog.records)


UNDERFLOWING_START_CALLS = {
    "solve_at_energy": lambda pot: solve_at_energy(pot, CH_D, 1.0),
    "phase_shift": lambda pot: phase_shift(pot, CH_D, 1.0),
    "count_bound_states": lambda pot: count_bound_states(pot, CH_D),
}


@pytest.mark.parametrize("name", UNDERFLOWING_START_CALLS)
def test_an_origin_series_that_underflows_is_rejected(name):
    # c = 1e6 gives p ~ 1000.5, and r_1^p underflows to 0: the sweep would be all zeros
    grid = default_grid()
    pot = Tabulated(grid, np.zeros(grid.n_points), 1e6, CH_D.hbar2_over_2mu)
    with pytest.raises(DomainError, match="origin series"):
        UNDERFLOWING_START_CALLS[name](pot)


# --- analytic sech^2 states ------------------------------------------------------

def _gegenbauer_sum(k, lam, x):
    """C_k^lam(x) from its explicit power sum, independent of the recurrence."""
    if k < 0:
        return np.zeros_like(x)
    return sum(
        (-1) ** m * math.gamma(k - m + lam) / (math.gamma(lam) * math.factorial(m)
                                               * math.factorial(k - 2 * m))
        * (2.0 * x) ** (k - 2 * m)
        for m in range(k // 2 + 1)
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_analytic_state_satisfies_radial_equation(n):
    # independent oracle: substitute the closed form into the radial equation
    # with its exact second derivative.  For u = sech^m(x) Q(tanh x),
    #   u'' = b^2 sech^m [m^2 t^2 Q - m s^2 Q - 2(m+1) t s^2 Q' + s^4 Q''],
    # with s = sech x, t = tanh x.  Here Q = C_nu^lam with nu = 2n + 1,
    # m = a_tilde - nu and lam = m + 1/2, and dC_k^lam/dx = 2 lam C_{k-1}^(lam+1).
    a_tilde, beta = 9.5, 0.5
    grid = default_grid()
    state = analytic_pt_state(a_tilde, beta, CH_D, n, grid=grid)
    c = CH_D.hbar2_over_2mu
    v = SechSquared(a_tilde, beta, c).evaluate(grid.r)

    x = beta * grid.r
    t = np.tanh(x)
    s = 1.0 / np.cosh(x)
    nu = 2 * n + 1
    m = a_tilde - nu
    lam = m + 0.5
    q = _gegenbauer_sum(nu, lam, t)
    qp = 2.0 * lam * _gegenbauer_sum(nu - 1, lam + 1.0, t)
    qpp = 4.0 * lam * (lam + 1.0) * _gegenbauer_sum(nu - 2, lam + 2.0, t)
    raw = s**m * q
    peak = int(np.argmax(np.abs(raw)))
    scale = state.u[peak] / raw[peak]        # match the normalized state
    upp = (
        beta**2
        * s**m
        * (m**2 * t**2 * q - m * s**2 * q - 2.0 * (m + 1.0) * t * s**2 * qp + s**4 * qpp)
        * scale
    )
    residual = -c * upp + (v - state.energy) * raw * scale
    assert np.max(np.abs(residual)) < 1e-10 * abs(state.energy)
    assert np.max(np.abs(state.u - raw * scale)) < 1e-12
    assert state.nodes == n


@pytest.mark.parametrize("n", [0, 1, 2])
def test_analytic_state_matches_numerov_state_for_every_alpha_level(n):
    a_tilde, beta = 5.945, 0.535
    grid = default_grid()
    exact = analytic_pt_state(a_tilde, beta, CH_A, n, grid=grid)
    numeric = solve_bound_state(SechSquared(a_tilde, beta, CH_A.hbar2_over_2mu), CH_A,
                                target_nodes=n, grid=grid)
    assert np.max(np.abs(exact.u - numeric.u)) <= 1e-7
    assert exact.nodes == numeric.nodes == n


def test_analytic_state_energy_is_closed_form():
    state = analytic_pt_state(3.146, 1.587, CH_D, 1)
    assert state.energy == pytest.approx(analytic_levels(3.146, 1.587, CH_D, 1), rel=1e-15)


def test_analytic_numerical_overlap(deuteron_chain):
    grid = deuteron_chain.grid
    exact = analytic_pt_state(3.146, 1.587, CH_D, 0, grid=grid)
    ovl = integrate(exact.u * deuteron_chain.ground.u, grid)
    assert ovl == pytest.approx(1.0, abs=1e-6)


def test_analytic_state_rejects_level_the_well_does_not_hold():
    assert level_count(9.5) == 5
    with pytest.raises(NoSuchStateError):
        analytic_pt_state(9.5, 0.5, CH_D, 5)


def test_analytic_state_rejects_missing_state():
    with pytest.raises(NoSuchStateError):
        analytic_pt_state(2.5, 1.0, CH_D, 1)   # needs a_tilde > 3
