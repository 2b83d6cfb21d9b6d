import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susypep import (
    BracketError,
    ChannelConstants,
    ConfigError,
    SechSquared,
    SystemPreset,
    a_tilde_from_energy,
    analytic_levels,
    default_grid,
    fit_parameters,
    get_preset,
    load_preset_config,
    rms_radius,
    analytic_pt_state,
    solve_bound_state,
)
from susypep import _kernels, fitting, solver
from susypep.errors import ConvergenceError, DomainError

CH_D = ChannelConstants(41.47, "n-p")


# --- a_tilde_from_energy -----------------------------------------------------------

def test_deuteron_inversion_matches_reference_pair():
    a = a_tilde_from_energy(-2.226, 1.587, CH_D, 1)
    assert a == pytest.approx(3.146, abs=1e-3)


def test_threshold_limit():
    assert a_tilde_from_energy(-1e-30, 2.0, CH_D, 1) == pytest.approx(3.0)
    assert a_tilde_from_energy(-1e-30, 2.0, CH_D, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("energy, beta, match", [(-math.inf, 1.587, "finite"),
                                                 (math.nan, 1.587, "finite"),
                                                 (-2.226, math.inf, "finite"),
                                                 (-2.226, math.nan, "finite"),
                                                 (-1e300, 1e-300, "overflows")],
                         ids=["energy-inf", "energy-nan", "beta-inf", "beta-nan", "result-overflow"])
def test_inversion_rejects_non_finite_input(energy, beta, match):
    with pytest.raises(DomainError, match=match):
        a_tilde_from_energy(energy, beta, CH_D, 1)


@settings(max_examples=80, deadline=None)
@given(
    energy=st.floats(min_value=-500.0, max_value=-1e-3),
    beta=st.floats(min_value=0.05, max_value=5.0),
    n=st.integers(min_value=0, max_value=3),
)
def test_inversion_round_trip_is_exact(energy, beta, n):
    a_tilde = a_tilde_from_energy(energy, beta, CH_D, n)
    assert analytic_levels(a_tilde, beta, CH_D, n) == pytest.approx(energy, rel=1e-12)


def test_inversion_rejects_positive_energy():
    with pytest.raises(DomainError):
        a_tilde_from_energy(1.0, 1.0, CH_D, 0)


def test_inversion_rejects_a_negative_state_index():
    with pytest.raises(DomainError, match="state index"):
        a_tilde_from_energy(-2.226, 1.587, CH_D, -1)


# --- fit_parameters ------------------------------------------------------------------

def test_deuteron_fit_recovers_reference_pair():
    result = fit_parameters(get_preset("deuteron"), grid=default_grid())
    assert result.a_tilde == pytest.approx(3.146, rel=5e-3)
    assert result.beta == pytest.approx(1.587, rel=5e-3)
    assert abs(result.energy_residual) < 1e-6
    assert abs(result.rms_residual) < 1e-4


def test_be11_fit_checks_only_the_fitted_state_for_a_truncated_tail(caplog):
    with caplog.at_level(logging.WARNING, logger="susypep.observables"):
        fit_parameters(get_preset("be11"), grid=default_grid())
    assert sum("tail truncation" in rec.getMessage() for rec in caplog.records) == 1


def test_be11_fit_satisfies_both_constraints(be11_chain):
    preset, fit = be11_chain.preset, be11_chain.fit
    assert fit.achieved_energy == pytest.approx(preset.target_energy, abs=1e-6)
    assert fit.achieved_rms == pytest.approx(preset.target_rms, abs=1e-4)
    # the quoted pair is inconsistent with the level formula; the refit keeps
    # beta and corrects the strength
    assert fit.beta == pytest.approx(0.694, abs=5e-3)
    implied = analytic_levels(3.124, 0.694, preset.channel, 1)
    assert implied == pytest.approx(-0.17, abs=0.02)
    assert abs(implied - preset.target_energy) > 0.3


def test_synthetic_round_trip_recovers_parameters():
    grid = default_grid()
    a_true, beta_true = 3.6, 1.1
    channel = CH_D
    state = analytic_pt_state(a_true, beta_true, channel, 1, grid=grid)
    preset = SystemPreset(
        name="synthetic",
        channel=channel,
        target_energy=analytic_levels(a_true, beta_true, channel, 1),
        target_rms=rms_radius(state, "quarter"),
        physical_node_count=1,
        coordinate_factor="quarter",
    )
    result = fit_parameters(preset, grid=grid)
    assert result.beta == pytest.approx(beta_true, rel=1e-6)
    assert result.a_tilde == pytest.approx(a_true, rel=1e-6)


CH_A = ChannelConstants(10.375, "alpha-alpha")


def _two_node_preset(energy, rms):
    """A custom 2-node fit like the ones the bound-chain benchmark runs."""
    return SystemPreset(
        name="two-node",
        channel=CH_A,
        target_energy=energy,
        target_rms=rms,
        physical_node_count=2,
        coordinate_factor="unit",
    )


def test_two_node_fit_runs_no_numerov_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a fit ran a Numerov sweep")

    monkeypatch.setattr(solver, "solve_bound_state", no_sweep)
    monkeypatch.setattr(fitting, "solve_bound_state", no_sweep)
    monkeypatch.setattr(_kernels, "sweep_outward", no_sweep)
    monkeypatch.setattr(_kernels, "sweep_inward", no_sweep)
    for energy, rms in ((-3.5, 3.8), (-2.4, 4.2), (-1.5, 4.6)):
        result = fit_parameters(_two_node_preset(energy, rms), grid=default_grid())
        assert abs(result.rms_residual) < 1e-4
        assert result.iterations <= 15


@pytest.mark.parametrize("name", ["deuteron", "be11"])
def test_preset_fit_takes_at_most_fifteen_rms_evaluations(name):
    assert fit_parameters(get_preset(name), grid=default_grid()).iterations <= 15


def test_two_node_round_trip_recovers_numerov_parameters():
    grid = default_grid()
    a_true, beta_true = 6.1, 0.55
    potential = SechSquared(a_true, beta_true, CH_A.hbar2_over_2mu)
    state = solve_bound_state(potential, CH_A, target_nodes=2, grid=grid)
    preset = _two_node_preset(analytic_levels(a_true, beta_true, CH_A, 2),
                              rms_radius(state, "unit"))
    result = fit_parameters(preset, grid=grid)
    assert result.beta == pytest.approx(beta_true, rel=1e-6)
    assert result.a_tilde == pytest.approx(a_true, rel=1e-6)


def test_fit_stops_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_FIT_ITERATIONS", 5)
    with pytest.raises(ConvergenceError, match="exceeded 5 iterations"):
        fit_parameters(get_preset("deuteron"), grid=default_grid())


def test_fit_logs_monotonicity_probe(caplog):
    with caplog.at_level(logging.INFO, logger="susypep.fitting"):
        fit_parameters(get_preset("deuteron"), grid=default_grid())
    assert any("monotonicity probe" in rec.message for rec in caplog.records)


def test_fit_rejects_fixed_preset():
    with pytest.raises(ConfigError, match="fixed parameters"):
        fit_parameters(get_preset("alpha"))


def test_fit_bracket_error_reports_endpoint_rms():
    preset = SystemPreset(
        name="unreachable",
        channel=CH_D,
        target_energy=-2.226,
        target_rms=50.0,          # far outside what the bracket can reach
        physical_node_count=1,
        coordinate_factor="quarter",
    )
    with pytest.raises(BracketError, match="rms"):
        fit_parameters(preset, grid=default_grid())


# --- preset plumbing -------------------------------------------------------------------

def test_presets_expose_expected_channels():
    assert get_preset("deuteron").channel.hbar2_over_2mu == 41.47
    assert get_preset("be11").channel.hbar2_over_2mu == 22.81
    assert get_preset("alpha").channel.hbar2_over_2mu == 10.375
    assert get_preset("alpha").target_rms is None


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        get_preset("carbon")


def test_preset_validation():
    with pytest.raises(DomainError):
        SystemPreset(
            name="bad",
            channel=CH_D,
            target_energy=1.0,
            target_rms=2.0,
            physical_node_count=1,
            coordinate_factor="quarter",
        )
    with pytest.raises(DomainError, match="coordinate_factor"):
        _preset(coordinate_factor="half")
    with pytest.raises(DomainError, match="whole number"):
        _preset(physical_node_count=1.5)


def _preset(**changes):
    fields = {"name": "x", "channel": CH_D, "target_energy": -2.226, "target_rms": 1.95,
              "physical_node_count": 1, "coordinate_factor": "quarter", **changes}
    return SystemPreset(**fields)


@pytest.mark.parametrize("make", [
    lambda: ChannelConstants(math.inf),
    lambda: SechSquared(math.inf, 1.587, 41.47),
    lambda: SechSquared(3.146, math.inf, 41.47),
    lambda: SechSquared(3.146, 1.587, math.inf),
    lambda: _preset(target_energy=-math.inf),
    lambda: _preset(target_rms=math.inf),
], ids=["channel", "a_tilde", "beta", "hbar2_over_2mu", "target_energy", "target_rms"])
def test_constructors_reject_infinities(make):
    with pytest.raises(DomainError, match="finite"):
        make()


def test_preset_rejects_a_negative_node_count(tmp_path):
    with pytest.raises(DomainError, match="node count"):
        SystemPreset(name="bad", channel=CH_D, target_energy=-2.226, target_rms=1.95,
                     physical_node_count=-1, coordinate_factor="quarter")
    path = tmp_path / "negative.cfg"
    path.write_text("name = x\nhbar2_over_2mu = 41.47\ntarget_energy = -2.226\n"
                    "target_rms = 1.95\nnodes = -1\ncoordinate_factor = quarter\n")
    with pytest.raises(ConfigError, match="node count"):
        load_preset_config(path)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(
        "# synthetic system\n"
        "name = custom\n"
        "hbar2_over_2mu = 41.47\n"
        "target_energy = -2.226  # MeV\n"
        "target_rms = 1.95\n"
        "nodes = 1\n"
        "coordinate_factor = quarter\n"
    )
    preset = load_preset_config(path)
    assert preset.name == "custom"
    assert preset.channel.hbar2_over_2mu == 41.47
    assert preset.coordinate_factor == "quarter"
    result = fit_parameters(preset, grid=default_grid())
    assert result.a_tilde == pytest.approx(3.146, rel=5e-3)


def test_config_file_missing_key(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("name = x\nhbar2_over_2mu = 10\n")
    with pytest.raises(ConfigError, match="missing keys"):
        load_preset_config(path)


def test_config_file_bad_value(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text(
        "name = x\nhbar2_over_2mu = ten\ntarget_energy = -1\n"
        "target_rms = 2\nnodes = 1\ncoordinate_factor = quarter\n"
    )
    with pytest.raises(ConfigError):
        load_preset_config(path)


_NAME_MESSAGE = "name must be non-empty and hold no '/' or '\\' (it names output files), got "


@pytest.mark.parametrize("name, extra, message", [
    ("custom", "canonical_beta = 1.5\n", "7: unknown key 'canonical_beta'"),
    ("custom", "target_rms = 2.5\n", "7: key 'target_rms' given twice"),
    ("custom", "target_rms\n", "7: expected key=value, got 'target_rms'"),
    ("", "", "1: " + _NAME_MESSAGE + "''"),
    ("a/b", "", "1: " + _NAME_MESSAGE + "'a/b'"),
    ("../escaped", "", "1: " + _NAME_MESSAGE + "'../escaped'"),
    ("a\\b", "", "1: " + _NAME_MESSAGE + "'a\\\\b'"),
], ids=["unknown", "repeated", "no-equals", "empty-name", "slash-name", "parent-name",
        "backslash-name"])
def test_config_file_rejects_unknown_and_repeated_keys(name, extra, message, tmp_path):
    # the name becomes part of output file names, e.g. fit_<name>.json
    path = tmp_path / "system.cfg"
    path.write_text(f"name = {name}\nhbar2_over_2mu = 41.47\ntarget_energy = -2.226\n"
                    "target_rms = 1.95\nnodes = 1\ncoordinate_factor = quarter\n" + extra)
    with pytest.raises(ConfigError) as exc:
        load_preset_config(path)
    assert str(exc.value) == f"{path}:{message}"


def test_config_file_not_found():
    with pytest.raises(ConfigError):
        load_preset_config("/nonexistent/system.cfg")
