import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susypep import (
    BracketError,
    ChannelConstants,
    ConfigError,
    SystemPreset,
    a_tilde_from_energy,
    analytic_levels,
    default_grid,
    fit_parameters,
    get_preset,
    load_preset_config,
    rms_radius,
    analytic_pt_state,
)
from susypep.errors import DomainError

CH_D = ChannelConstants(41.47, "n-p")


# --- a_tilde_from_energy -----------------------------------------------------------

def test_deuteron_inversion_matches_reference_pair():
    a = a_tilde_from_energy(-2.226, 1.587, CH_D, 1)
    assert a == pytest.approx(3.146, abs=1e-3)


def test_threshold_limit():
    assert a_tilde_from_energy(-1e-30, 2.0, CH_D, 1) == pytest.approx(3.0)
    assert a_tilde_from_energy(-1e-30, 2.0, CH_D, 0) == pytest.approx(1.0)


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
    assert get_preset("alpha").fixed


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


def test_config_file_not_found():
    with pytest.raises(ConfigError):
        load_preset_config("/nonexistent/system.cfg")
