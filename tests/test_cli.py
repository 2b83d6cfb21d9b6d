import hashlib
import importlib.util
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from susypep import cli, fitting, grids
from susypep.cli import main


def run(args):
    return main(args)


def read_json(path):
    return json.loads(Path(path).read_text())


def config_of(argv):
    return cli.RunConfig.from_args(cli._PARSER.parse_args(argv))


# fast grid for CLI round trips; accuracy is covered by the physics tests
FAST = ["--step", "0.01", "--rmax", "25"]


def test_fit_deuteron_json(tmp_path, capsys):
    code = run(["fit", "--preset", "deuteron", "--out", str(tmp_path)] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "fit deuteron:" in out and "a_tilde=" in out
    payload = read_json(tmp_path / "fit_deuteron.json")
    assert payload["a_tilde"] == pytest.approx(3.146, rel=5e-3)
    assert payload["beta_per_fm"] == pytest.approx(1.587, rel=5e-3)
    assert (tmp_path / "manifest.json").exists()


def test_fit_alpha_is_config_error(capsys):
    code = run(["fit", "--preset", "alpha"])
    assert code == 3
    assert "fixed parameters" in capsys.readouterr().err


def test_fit_custom_config_round_trip(tmp_path):
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        "name = custom\nhbar2_over_2mu = 41.47\ntarget_energy = -2.226\n"
        "target_rms = 1.95\nnodes = 1\ncoordinate_factor = quarter\n"
    )
    out_dir = tmp_path / "out"
    code = run(["fit", "--config", str(cfg), "--out", str(out_dir)] + FAST)
    assert code == 0
    payload = read_json(out_dir / "fit_custom.json")
    assert payload["achieved_rms_fm"] == pytest.approx(1.95, abs=1e-4)


def test_spectrum_alpha(tmp_path, capsys):
    code = run(["spectrum", "--preset", "alpha", "--out", str(tmp_path)] + FAST)
    assert code == 0
    payload = read_json(tmp_path / "spectrum_alpha.json")
    assert payload["depth_MeV"] == pytest.approx(122.694, rel=5e-3)
    levels = {entry["n"]: entry for entry in payload["levels"]}
    assert len(levels) == 3
    assert levels[0]["numerical_MeV"] == pytest.approx(levels[0]["analytic_MeV"], rel=1e-4)


def test_partner_writes_three_potentials_and_records(tmp_path):
    code = run(["partner", "--preset", "deuteron", "--out", str(tmp_path)] + FAST)
    assert code == 0
    for name in ("V1.csv", "V2.csv", "V3.csv", "records.json", "manifest.json"):
        assert (tmp_path / name).exists()
    header = (tmp_path / "V1.csv").read_text().splitlines()[0]
    assert header == "r_fm,V_MeV"
    records = read_json(tmp_path / "records.json")["records"]
    assert [rec["step_kind"] for rec in records] == ["intermediate", "phase_equivalent"]
    assert records[0]["removed_energy_MeV"] == pytest.approx(-481.0, abs=1.0)
    assert records[1]["singular_coefficient"] == pytest.approx(6.0)
    manifest = read_json(tmp_path / "manifest.json")["files"]
    listed = {entry["path"] for entry in manifest}
    assert {"V1.csv", "V2.csv", "V3.csv", "records.json"} <= listed
    for entry in manifest:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def _csv_columns(path):
    lines = Path(path).read_text().splitlines()[1:]
    cols = list(zip(*(line.split(",") for line in lines)))
    return [list(map(float, col)) for col in cols]


def test_partner_deuteron_pep_shape(tmp_path):
    # repulsive core at small r, shallow attraction beyond
    run(["partner", "--preset", "deuteron", "--out", str(tmp_path)] + FAST)
    r, v3 = _csv_columns(tmp_path / "V3.csv")
    r = list(r)
    assert v3[0] > 0.0
    assert min(v3) < 0.0
    first_negative = r[next(i for i, v in enumerate(v3) if v < 0.0)]
    assert 0.1 < first_negative < 1.5


def test_partner_be11_repulsive_core_extent(tmp_path):
    run(["partner", "--preset", "be11", "--out", str(tmp_path), "--step", "0.01",
         "--rmax", "35"])
    r, v3 = _csv_columns(tmp_path / "V3.csv")
    first_negative = r[next(i for i, v in enumerate(v3) if v < 0.0)]
    assert first_negative == pytest.approx(1.5, abs=0.3)


def test_report_alpha_smoke(tmp_path):
    code = run(["report", "--preset", "alpha", "--out", str(tmp_path)] + FAST)
    assert code == 0
    payload = read_json(tmp_path / "report_alpha.json")
    assert payload["rms_fm"]["deep"] > 0
    assert "transfer" not in payload


def test_partner_iterated_chain_files(tmp_path):
    code = run(
        ["partner", "--preset", "alpha", "--removals", "2", "--out", str(tmp_path)] + FAST
    )
    assert code == 0
    for name in ("V1.csv", "V2.csv", "V3.csv", "V2_removal2.csv", "V3_removal2.csv"):
        assert (tmp_path / name).exists()
    records = read_json(tmp_path / "records.json")["records"]
    assert len(records) == 4


def key_paths(payload, prefix=""):
    """Every key of a JSON payload as a dotted path; list items share their list's path."""
    if isinstance(payload, list):
        return set().union(*(key_paths(item, prefix) for item in payload))
    if not isinstance(payload, dict):
        return set()
    return set().union(*({prefix + key} | key_paths(value, f"{prefix}{key}.")
                         for key, value in payload.items()))


def _under(prefix, keys):
    return {prefix} | {f"{prefix}.{key}" for key in keys}


_FIT_KEYS = {"a_tilde", "beta_per_fm", "achieved_energy_MeV", "achieved_rms_fm",
             "energy_residual_MeV", "rms_residual_fm", "iterations"}
_SPECTRUM_KEYS = {"system", "a_tilde", "beta_per_fm", "depth_MeV"} | _under(
    "levels", {"n", "analytic_MeV", "numerical_MeV", "nodes", "kappa_per_fm"})
_REPORT_KEYS = ({"system", "a_tilde", "beta_per_fm", "states"}
                | _under("rms_fm", {"deep", "intermediate", "pep"})
                | set().union(*(_under(f"states.{label}", {"energy_MeV", "nodes", "kappa_per_fm",
                                                          "norm_residual"})
                                for label in ("deep", "intermediate", "pep"))))
_TRANSFER_KEYS = {"transfer"} | set().union(*(
    _under(f"transfer.{label}", {"d0_MeV_fm32", "d0_squared_MeV2_fm3"})
    for label in ("deep", "pep")))

# command -> key set of each JSON file it writes besides manifest.json
_LAYOUTS = {
    "fit --preset deuteron": {"fit_deuteron.json": {"system"} | _FIT_KEYS},
    "fit --preset be11": {"fit_be11.json": {"system", "notes"} | _FIT_KEYS},
    "spectrum --preset deuteron": {"spectrum_deuteron.json": _SPECTRUM_KEYS},
    "spectrum --preset be11": {"spectrum_be11.json": _SPECTRUM_KEYS | _under("fit", _FIT_KEYS)},
    "report --preset deuteron": {"report_deuteron.json": _REPORT_KEYS | _TRANSFER_KEYS
                                 | {"charge_radius_fm", "cross_section_ratio"}},
    "report --preset be11": {"report_be11.json": _REPORT_KEYS | _under("fit", _FIT_KEYS)
                             | {"matter_radius_fm", "notes"}},
    "partner --preset alpha --removals 2": {"records.json": {"system"} | _under(
        "records", {"file", "removed_energy_MeV", "step_kind", "singular_coefficient"})},
    "transfer-ratio --preset deuteron": {"transfer_ratio.json": {
        "system", "d0_squared_deep_MeV2_fm3", "d0_squared_pep_MeV2_fm3", "cross_section_ratio"}},
}


@pytest.mark.parametrize("command", _LAYOUTS)
def test_json_layout_of_every_command(tmp_path, command):
    assert run(command.split() + ["--out", str(tmp_path)] + FAST) == 0
    layouts = {**_LAYOUTS[command], "manifest.json": _under("files", {"path", "sha256"})}
    assert {path.name for path in tmp_path.glob("*.json")} == set(layouts)
    for name, keys in layouts.items():
        assert key_paths(read_json(tmp_path / name)) == keys, name
    if "records.json" in layouts:
        records = read_json(tmp_path / "records.json")["records"]
        assert [(rec["file"], rec["step_kind"]) for rec in records] == [
            ("V2.csv", "intermediate"), ("V3.csv", "phase_equivalent"),
            ("V2_removal2.csv", "intermediate"), ("V3_removal2.csv", "phase_equivalent")]


def test_partner_too_many_removals_exits_2(tmp_path, capsys):
    code = run(
        ["partner", "--preset", "deuteron", "--removals", "5", "--out", str(tmp_path)] + FAST
    )
    assert code == 2
    assert "bound state" in capsys.readouterr().err


def test_report_deuteron_fields(tmp_path):
    code = run(["report", "--preset", "deuteron", "--out", str(tmp_path)] + FAST)
    assert code == 0
    payload = read_json(tmp_path / "report_deuteron.json")
    assert payload["rms_fm"]["deep"] == pytest.approx(1.953, abs=5e-3)
    assert payload["rms_fm"]["pep"] == pytest.approx(1.955, abs=5e-3)
    assert payload["cross_section_ratio"] == pytest.approx(0.988, abs=5e-3)
    assert payload["charge_radius_fm"] == pytest.approx(1.158, abs=2e-3)
    assert payload["transfer"]["deep"]["d0_squared_MeV2_fm3"] == pytest.approx(
        15792.0, rel=0.02
    )
    for name in ("u_deep.csv", "u_intermediate.csv", "u_pep.csv"):
        assert (tmp_path / name).exists()
    assert set(payload["states"]["deep"]) == {
        "energy_MeV", "nodes", "kappa_per_fm", "norm_residual",
    }
    # no sweep flags: no phase-shift files
    assert not list(tmp_path.glob("phase_*.csv"))


def test_report_be11_pattern(tmp_path):
    code = run(["report", "--preset", "be11", "--out", str(tmp_path), "--step", "0.01",
                "--rmax", "35"])
    assert code == 0
    payload = read_json(tmp_path / "report_be11.json")
    rms = payload["rms_fm"]
    assert abs(rms["pep"] - rms["deep"]) / rms["deep"] < 0.02
    assert abs(rms["intermediate"] - rms["deep"]) / rms["deep"] > 0.05
    assert payload["matter_radius_fm"] > 0
    assert "notes" in payload and "re-fitted" in payload["notes"][0]
    assert "transfer" not in payload


def test_report_with_sweep_emits_phase_curves(tmp_path):
    code = run(
        ["report", "--preset", "deuteron", "--out", str(tmp_path),
         "--emin", "1", "--emax", "5", "--estep", "1"] + FAST
    )
    assert code == 0
    for name in ("phase_V1.csv", "phase_V2.csv", "phase_V3.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "E_MeV,delta_rad,delta_deg"
        assert len(lines) == 6
    manifest = read_json(tmp_path / "manifest.json")["files"]
    assert {"phase_V1.csv", "phase_V2.csv", "phase_V3.csv"} <= {
        entry["path"] for entry in manifest
    }


def test_partial_sweep_flags_are_config_error(capsys):
    code = run(["report", "--preset", "deuteron", "--emin", "1"])
    assert code == 3
    assert "together" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["phase", "--rmax", "nan"],
    ["phase", "--rmax", "inf"],
    ["spectrum", "--step", "nan"],
    ["report", "--emin", "1", "--emax", "inf", "--estep", "0.5"],
    ["phase", "--emin", "1", "--emax", "3", "--estep", "nan"],
    ["report", "--emin=-inf", "--emax", "3", "--estep", "0.5"],
])
def test_non_finite_numbers_are_config_errors(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "analyze", lambda *a, **kw: pytest.fail("solved before validating"))
    assert run(argv + ["--preset", "deuteron"]) == 3
    assert "must be finite" in capsys.readouterr().err


def test_sweep_without_a_finite_energy_count_is_config_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "analyze", lambda *a, **kw: pytest.fail("solved before validating"))
    argv = ["phase", "--preset", "deuteron", "--emin", "0.1", "--emax", "1e300",
            "--estep", "1e-300"]
    assert run(argv) == 3
    assert "no finite number of energies" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["phase", "--emin", "0.1", "--emax", "1e10", "--estep", "1e-6"], "100,000 energies"),
    (["report", "--emin", "1", "--emax", "100001", "--estep", "1"], "100,000 energies"),
    (["spectrum", "--rmax", "1e12"], "1,000,000 grid points"),
    (["partner", "--step", "0.0001", "--rmax", "100.0001"], "1,000,000 grid points"),
    (["fit", "--step", "1e-300", "--rmax", "1e300"], "1,000,000 grid points"),
], ids=["sweep-1e16", "sweep-100001", "grid-1e14", "grid-1000001", "grid-inf"])
def test_oversized_sweep_or_grid_is_config_error(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(cli, "analyze", lambda *a, **kw: pytest.fail("solved before validating"))
    assert run(argv + ["--preset", "deuteron"]) == 3
    assert message in capsys.readouterr().err


def test_sweep_stops_at_emax_and_the_size_limits_are_inclusive():
    def sweep(emin, emax, estep):
        return config_of(["phase", "--preset", "deuteron", "--emin", emin, "--emax", emax,
                          "--estep", estep]).sweep

    assert np.array_equal(sweep("1", "4.5", "1"), [1.0, 2.0, 3.0, 4.0])   # 3.5 steps: no 5 MeV
    assert np.array_equal(sweep("1", "4", "1"), [1.0, 2.0, 3.0, 4.0])
    assert len(sweep("0.1", "0.3", "0.1")) == 3   # 1.9999999999999998 steps
    assert len(sweep("1", "100000", "1")) == cli.MAX_SWEEP_ENERGIES
    argv = ["spectrum", "--preset", "deuteron", "--step", "0.0001", "--rmax", "100"]
    assert config_of(argv).grid.n_points == grids.MAX_GRID_POINTS


def test_benchmark_jobs_pass_validation_and_get_the_benchmark_sweeps(tmp_path, monkeypatch):
    # the benchmark's own job generator and sweep rule, imported read-only
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    jobs = importlib.import_module("perfbench.jobs")
    checks = importlib.import_module("perfbench.checks")
    config = tmp_path / "custom.cfg"
    largest_sweep = largest_grid = 0
    for workload in jobs.WORKLOADS:
        for seed in range(4):
            cycles = jobs.cycles(workload, seed)
            for job in [jobs.warmup_job(workload)] + [j for _ in range(8) for j in next(cycles)]:
                if job["config"] is not None:
                    config.write_text(jobs.config_text(job["config"]), encoding="utf-8")
                cfg = config_of([str(config) if a == "{config}" else a for a in job["argv"]])
                largest_grid = max(largest_grid, cfg.grid.n_points)
                if job["sweep"] is not None:
                    assert np.array_equal(cfg.sweep, checks.sweep_energies(job["sweep"])), job
                    largest_sweep = max(largest_sweep, len(cfg.sweep))
    # the limits leave the benchmark's largest runs a wide margin
    assert 10 * largest_sweep <= cli.MAX_SWEEP_ENERGIES
    assert 10 * largest_grid <= grids.MAX_GRID_POINTS


@pytest.mark.parametrize("line", ["hbar2_over_2mu = inf", "target_energy = -inf",
                                  "target_rms = inf"])
def test_infinite_value_in_a_config_file_is_config_error(line, tmp_path, capsys):
    values = {"name": "custom", "hbar2_over_2mu": "41.47", "target_energy": "-2.226",
              "target_rms": "1.95", "nodes": "1", "coordinate_factor": "quarter"}
    key, value = (part.strip() for part in line.split("="))
    values[key] = value
    cfg = tmp_path / "infinite.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["spectrum", "--config", str(cfg)]) == 3
    assert "finite" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"name = caf\xff\n")
    assert run(["fit", "--config", str(cfg)]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_fit_whose_closed_form_states_overflow_is_convergence_error(tmp_path, capsys):
    # a_tilde ~ 1e150 here: the trial states are not finite and the fit must say so
    cfg = tmp_path / "light.cfg"
    cfg.write_text("name = light\nhbar2_over_2mu = 1e-300\ntarget_energy = -2.226\n"
                   "target_rms = 1.95\nnodes = 1\ncoordinate_factor = quarter\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "state disappeared" in capsys.readouterr().err


def test_every_registered_preset_can_be_selected(monkeypatch):
    monkeypatch.setitem(fitting.PRESETS, "deuteron2", fitting.PRESETS["deuteron"])
    assert cli._PARSER.parse_args(["fit", "--preset", "deuteron2"]).preset == "deuteron2"
    with pytest.raises(SystemExit):
        cli._PARSER.parse_args(["fit", "--preset", "carbon"])


@pytest.mark.parametrize("command", ["fit", "spectrum", "partner", "report", "phase",
                                     "transfer-ratio"])
def test_negative_node_count_in_a_config_file_is_config_error(command, tmp_path, capsys):
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("name = custom\nhbar2_over_2mu = 41.47\ntarget_energy = -2.226\n"
                   "target_rms = 1.95\nnodes = -1\ncoordinate_factor = quarter\n")
    assert run([command, "--config", str(cfg)]) == 3
    assert "node count must be a whole number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "spectrum", "partner", "transfer-ratio"])
def test_sweep_flags_belong_to_report_and_phase_only(command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--preset", "deuteron", "--emin", "1", "--emax", "2", "--estep", "0.5"])
    assert exc.value.code == 3


def test_grid_too_short_is_config_error(capsys):
    code = run(["partner", "--preset", "deuteron", "--rmax", "0.5"])
    assert code == 3
    assert "need at least 100 grid points" in capsys.readouterr().err


def test_negative_removals_is_config_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "analyze", lambda *a, **kw: pytest.fail("solved before validating"))
    code = run(["partner", "--preset", "deuteron", "--removals", "-1"])
    assert code == 3
    assert "--removals" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--config", "system.cfg"], "not both"),
    (["--emin", "0", "--emax", "2", "--estep", "1"], "positive and ordered"),
    (["--emin", "2", "--emax", "2", "--estep", "1"], "positive and ordered"),
    (["--emin", "1", "--emax", "2", "--estep", "0"], "positive and ordered"),
], ids=["preset-and-config", "emin-zero", "emax-not-above-emin", "estep-zero"])
def test_conflicting_or_disordered_flags_are_config_errors(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(cli, "analyze", lambda *a, **kw: pytest.fail("solved before validating"))
    assert run(["phase", "--preset", "deuteron"] + argv) == 3
    assert message in capsys.readouterr().err


def test_unwritable_out_is_reported_not_raised(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    code = run(["transfer-ratio", "--preset", "deuteron", "--out", str(taken)] + FAST)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: cannot write under --out: ")
    assert taken.read_text() == "a file, not a directory\n"


def test_phase_defaults(tmp_path, capsys):
    code = run(
        ["phase", "--preset", "deuteron", "--out", str(tmp_path),
         "--emin", "1", "--emax", "3", "--estep", "0.5"] + FAST
    )
    assert code == 0
    assert "max |delta_V3 - delta_V1|" in capsys.readouterr().out
    assert (tmp_path / "phase_V1.csv").exists()


def test_transfer_ratio_deuteron(tmp_path, capsys):
    code = run(["transfer-ratio", "--preset", "deuteron", "--out", str(tmp_path)] + FAST)
    assert code == 0
    payload = read_json(tmp_path / "transfer_ratio.json")
    assert payload["cross_section_ratio"] == pytest.approx(0.988, abs=5e-3)


def test_transfer_ratio_other_preset_rejected(capsys):
    code = run(["transfer-ratio", "--preset", "alpha"])
    assert code == 3


def test_missing_preset_is_config_error(capsys):
    code = run(["spectrum"])
    assert code == 3
    assert "--preset" in capsys.readouterr().err


def test_unknown_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--preset", "deuteron", "--bogus"])
    assert exc.value.code == 3


def test_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["report", "--preset", "deuteron", "--out", str(out)] + FAST) == 0
    for path1 in sorted(out1.iterdir()):
        path2 = out2 / path1.name
        assert path1.read_bytes() == path2.read_bytes()


SWEEP = ["--emin", "1", "--emax", "3", "--estep", "1"]
PHASE_FILES = {"phase_V1.csv", "phase_V2.csv", "phase_V3.csv"}
# command -> (extra argv, csv files, json files) for the deuteron
WRITTEN = {
    "fit": ([], set(), {"fit_deuteron.json"}),
    "spectrum": ([], set(), {"spectrum_deuteron.json"}),
    "partner": ([], {"V1.csv", "V2.csv", "V3.csv"}, {"records.json"}),
    "report": (SWEEP, PHASE_FILES | {"u_deep.csv", "u_intermediate.csv", "u_pep.csv"},
               {"report_deuteron.json"}),
    "phase": (SWEEP, PHASE_FILES, set()),
    "transfer-ratio": ([], set(), {"transfer_ratio.json"}),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("command", WRITTEN)
def test_format_selects_the_files_of_every_command(command, fmt, tmp_path):
    extra, csv_files, json_files = WRITTEN[command]
    argv = [command, "--preset", "deuteron", "--format", fmt, "--out", str(tmp_path)]
    assert run(argv + extra + FAST) == 0
    expected = (csv_files if fmt != "json" else set()) | (json_files if fmt != "csv" else set())
    assert {p.name for p in tmp_path.iterdir()} == expected | {"manifest.json"}
    assert {entry["path"] for entry in read_json(tmp_path / "manifest.json")["files"]} == expected


def test_parser_built_at_import_is_reused_without_state(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser built per call"))
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["partner", "--preset", "alpha"] + FAST
    assert run(argv + ["--removals", "2", "--format", "json", "--out", str(first)]) == 0
    for flags, code in ((["--version"], 0), (["fit", "--preset", "deuteron", "--bogus"], 3)):
        with pytest.raises(SystemExit) as exc:
            run(flags)
        assert exc.value.code == code
    assert run(argv + ["--out", str(second)]) == 0
    assert "partner alpha: 1 removal(s)" in capsys.readouterr().out
    assert {p.name for p in first.iterdir()} == {"records.json", "manifest.json"}
    assert len(read_json(first / "records.json")["records"]) == 4
    assert {p.name for p in second.iterdir()} == {"V1.csv", "V2.csv", "V3.csv", "records.json",
                                                  "manifest.json"}
    assert len(read_json(second / "records.json")["records"]) == 2


def test_verbose_flag_sets_the_root_level_on_every_call():
    root = logging.getLogger()
    level, kept = root.level, logging.NullHandler()
    root.addHandler(kept)
    try:
        for flags, expected in (([], logging.WARNING), (["-v"], logging.DEBUG),
                                ([], logging.WARNING)):
            assert run(["fit", "--preset", "alpha"] + flags) == 3
            assert root.level == expected
            assert kept in root.handlers
    finally:
        root.removeHandler(kept)
        root.setLevel(level)


def test_cli_digests_tool_lists_its_cases_and_repeats_its_lines():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len(tool.CASES) == 54
    for argv, code in ((["transfer-ratio", "--preset", "alpha"], 3),
                       (["fit", "--preset", "deuteron"], 0)):
        line = tool.digest(argv)
        assert f"exit={code}" in line
        assert tool.digest(argv) == line


def import_tool(name, monkeypatch):
    """A script of tools/ as a module; cli_numdiff imports cli_digests by name."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    return importlib.import_module(name)


def test_cli_digests_run_resolves_a_relative_tree_from_another_cwd(tmp_path, monkeypatch):
    tool = import_tool("cli_digests", monkeypatch)
    monkeypatch.chdir(tmp_path)
    tree = Path(os.path.relpath(tool.ROOT, tmp_path))
    code, outputs = tool.run(tree, ["fit", "--preset", "deuteron"])
    assert code == 0, outputs["stderr"].decode()
    assert outputs["fit_deuteron.json"]


def test_cli_tools_fail_on_a_case_python_could_not_run(tmp_path, monkeypatch):
    # a tree whose CLI cannot even import: every case exits 1 on both "backends"
    package = tmp_path / "src" / "susypep"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("BACKEND = 'python'\n")
    (package / "cli.py").write_text("raise RuntimeError('cli broke')\n")
    (tmp_path / "tools").mkdir()
    tools = Path(__file__).resolve().parents[1] / "tools"
    (tmp_path / "tools" / "cli_digests.py").write_bytes((tools / "cli_digests.py").read_bytes())
    proc = subprocess.run([sys.executable, str(tmp_path / "tools" / "cli_digests.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == "backend python\n"
    assert "exit 1" in proc.stderr and "RuntimeError: cli broke" in proc.stderr
    numdiff = import_tool("cli_numdiff", monkeypatch)
    with pytest.raises(SystemExit, match="cli broke"):
        numdiff.main(str(tmp_path), str(tmp_path))


def test_cli_numdiff_refuses_a_tree_without_the_package_before_running(tmp_path, monkeypatch,
                                                                         capsys):
    numdiff = import_tool("cli_numdiff", monkeypatch)
    monkeypatch.setattr(subprocess, "run", lambda *a, **kw: pytest.fail("started a child"))
    assert numdiff.main(str(tmp_path), ".") == 1
    assert str(tmp_path) in capsys.readouterr().out
