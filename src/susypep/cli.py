"""Command-line workflows: fit -> transform -> observe for the presets.

Subcommands: fit, spectrum, partner, report, phase, transfer-ratio.
Exit codes: 0 success, 2 numerical/bracket failure, 3 configuration error or unwritable --out.

Each subcommand is one row of ``_COMMANDS``: its handler, its help text and
the options it adds to the common ones; the parser is built from that table
once, at import. A handler prints its summary and returns the files it
produces as ``{name: content}``, a JSON payload for ``*.json`` and
``(header, columns)`` for ``*.csv``; every JSON key is spelled here and
nowhere else. ``main`` alone writes the files: under ``--out`` it keeps
the ones whose type ``--format`` selects and records them in ``manifest.json``.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, SusypepError
from .fitting import PRESETS, SystemPreset, fit_parameters, get_preset, load_preset_config
from .grids import DEFAULT_R_MAX, DEFAULT_STEP, RadialGrid, check_index
from .io import OutputWriter
from .observables import charge_radius, matter_radius, mod_pi_distance, rms_radius
from .pipeline import analyze
from .potentials import analytic_depth, analytic_levels, values_on_grid
from .solver import solve_bound_state

MAX_SWEEP_ENERGIES = 100_000   # largest sweep accepted, checked before anything is allocated


@dataclass(frozen=True)
class RunConfig:
    """Resolved, validated run parameters shared by every subcommand."""

    preset: SystemPreset
    grid: RadialGrid
    formats: tuple[str, ...]     # file types to write, "csv" and/or "json"; () without --out
    sweep: np.ndarray | None
    removals: int = 1

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        if args.config and args.preset:
            raise ConfigError("give either --preset or --config, not both")
        if args.config:
            preset = load_preset_config(args.config)
        elif args.preset:
            preset = get_preset(args.preset)
        else:
            raise ConfigError("one of --preset or --config is required")

        removals = getattr(args, "removals", 1)
        try:
            grid = RadialGrid.from_extent(args.step, args.rmax)
            check_index(removals, "--removals")
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        bounds = [getattr(args, name, None) for name in ("emin", "emax", "estep")]
        for flag, value in zip(("--emin", "--emax", "--estep"), bounds):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")

        sweep = None
        if any(x is not None for x in bounds):
            if None in bounds:
                raise ConfigError("--emin, --emax and --estep must be given together")
            emin, emax, estep = bounds
            if emin <= 0 or emax <= emin or estep <= 0:
                raise ConfigError("sweep bounds must be positive and ordered")
            count = (emax - emin) / estep
            if not math.isfinite(count):
                raise ConfigError(f"sweep from {emin} to {emax} MeV in steps of {estep} MeV "
                                  "holds no finite number of energies")
            n = math.floor(count + 1e-9)   # the last energy does not exceed emax
            if n >= MAX_SWEEP_ENERGIES:
                raise ConfigError(f"sweep from {emin} to {emax} MeV in steps of {estep} MeV "
                                  f"holds more than {MAX_SWEEP_ENERGIES:,} energies")
            sweep = emin + estep * np.arange(0, n + 1)

        formats = ("csv", "json") if args.format == "both" else (args.format,)
        return cls(preset=preset, grid=grid, formats=formats if args.out else (), sweep=sweep,
                   removals=removals)


def _reference_pair_notes(preset: SystemPreset) -> list[str]:
    if preset.reference_pair is None:
        return []
    a_ref, b_ref = preset.reference_pair
    implied = analytic_levels(a_ref, b_ref, preset.channel, preset.physical_node_count)
    return [
        (
            f"commonly quoted pair (a_tilde={a_ref}, beta={b_ref} /fm) implies "
            f"E={implied:.4g} MeV for the n={preset.physical_node_count} state, not the "
            f"target {preset.target_energy} MeV; parameters were re-fitted from the "
            "energy and rms constraints instead"
        )
    ]


def _fit_entry(fit) -> dict:
    return {"a_tilde": fit.a_tilde, "beta_per_fm": fit.beta,
            "achieved_energy_MeV": fit.achieved_energy, "achieved_rms_fm": fit.achieved_rms,
            "energy_residual_MeV": fit.energy_residual, "rms_residual_fm": fit.rms_residual,
            "iterations": fit.iterations}


def cmd_fit(cfg: RunConfig) -> dict:
    preset = cfg.preset
    result = fit_parameters(preset, grid=cfg.grid)
    payload = {**_fit_entry(result), "system": preset.name}
    notes = _reference_pair_notes(preset)
    if notes:
        payload["notes"] = notes
    print(f"fit {preset.name}: a_tilde={result.a_tilde:.6f} beta={result.beta:.6f} /fm")
    print(
        f"  achieved E={result.achieved_energy:.6f} MeV (residual {result.energy_residual:.2e}),"
        f" rms={result.achieved_rms:.6f} fm (residual {result.rms_residual:.2e})"
    )
    for note in notes:
        print(f"  note: {note}")
    return {f"fit_{preset.name}.json": payload}


def cmd_spectrum(cfg: RunConfig) -> dict:
    preset = cfg.preset
    chain = analyze(preset, cfg.grid, removals=0)
    a_tilde, beta, channel = chain.a_tilde, chain.beta, chain.channel
    depth = analytic_depth(a_tilde, beta, channel)
    print(f"spectrum {preset.name}: a_tilde={a_tilde:.6f} beta={beta:.6f} /fm depth={depth:.3f} MeV")
    levels = []
    for n, e_analytic in enumerate(chain.potential.levels):
        state = solve_bound_state(chain.potential, channel, target_nodes=n, grid=cfg.grid)
        levels.append({"n": n, "analytic_MeV": e_analytic, "numerical_MeV": state.energy,
                       "nodes": state.nodes, "kappa_per_fm": state.kappa})
        print(
            f"  n={n}: analytic {e_analytic: .6f} MeV, numerical {state.energy: .6f} MeV,"
            f" nodes={state.nodes}"
        )
    payload = {"system": preset.name, "a_tilde": a_tilde, "beta_per_fm": beta,
               "depth_MeV": depth, "levels": levels}
    if chain.fit is not None:
        payload["fit"] = _fit_entry(chain.fit)
    return {f"spectrum_{preset.name}.json": payload}


def cmd_partner(cfg: RunConfig) -> dict:
    chain = analyze(cfg.preset, cfg.grid, removals=cfg.removals)
    print(
        f"partner {cfg.preset.name}: {cfg.removals} removal(s),"
        f" removed energies {[f'{rec.ground.energy:.4f}' for rec in chain.records[::2]]} MeV"
    )
    header, r = ["r_fm", "V_MeV"], cfg.grid.r
    files = {"V1.csv": (header, [r, values_on_grid(chain.potential, cfg.grid)])}
    entries = []
    for i, rec in enumerate(chain.records):   # (V2, V3) per removal
        suffix = f"_removal{i // 2 + 1}" if i >= 2 else ""
        name = f"V{2 + i % 2}{suffix}.csv"
        files[name] = (header, [r, rec.result.values])
        entries.append({"file": name, "removed_energy_MeV": rec.ground.energy,
                        "step_kind": ("intermediate", "phase_equivalent")[i % 2],
                        "singular_coefficient": rec.result.singular_coefficient})
    files["records.json"] = {"system": cfg.preset.name, "records": entries}
    return files


def _curve_files(curves) -> dict:
    return {
        f"phase_{label}.csv": (["E_MeV", "delta_rad", "delta_deg"],
                               [curve.energies, curve.deltas, np.degrees(curve.deltas)])
        for label, curve in curves.items()
    }


def cmd_report(cfg: RunConfig) -> dict:
    preset = cfg.preset
    chain = analyze(preset, cfg.grid)
    states = {"deep": chain.physical, "intermediate": chain.v2_state, "pep": chain.v3_state}
    rms = {label: rms_radius(state, preset.coordinate_factor) for label, state in states.items()}
    payload = {"system": preset.name, "rms_fm": rms, "a_tilde": chain.a_tilde,
               "beta_per_fm": chain.beta,
               "states": {label: {"energy_MeV": s.energy, "nodes": s.nodes,
                                  "kappa_per_fm": s.kappa, "norm_residual": s.norm_residual}
                          for label, s in states.items()}}
    if chain.fit is not None:
        payload["fit"] = _fit_entry(chain.fit)
    if preset.r_proton is not None:
        payload["charge_radius_fm"] = charge_radius(preset.r_proton, rms["deep"])
    if preset.core_mass_number is not None and preset.r_core is not None:
        payload["matter_radius_fm"] = matter_radius(preset.core_mass_number, preset.r_core,
                                                    rms["deep"])
    ratio = None
    if preset.name == "deuteron":
        deep_ts, pep_ts, ratio = chain.strengths
        payload["cross_section_ratio"] = ratio
        payload["transfer"] = {
            label: {"d0_MeV_fm32": ts.d0, "d0_squared_MeV2_fm3": ts.d0_squared}
            for label, ts in (("deep", deep_ts), ("pep", pep_ts))
        }
    notes = _reference_pair_notes(preset)
    if notes:
        payload["notes"] = notes

    print(f"report {preset.name}: rms deep {rms['deep']:.4f} fm, intermediate "
          f"{rms['intermediate']:.4f} fm, pep {rms['pep']:.4f} fm")
    if ratio is not None:
        print(f"  D0^2 deep/pep = {ratio:.4f}")
    for note in notes:
        print(f"  note: {note}")

    files = {f"report_{preset.name}.json": payload}
    for label, state in states.items():
        files[f"u_{label}.csv"] = (["r_fm", "u"], [cfg.grid.r, state.u])
    if cfg.sweep is not None and "csv" in cfg.formats:
        files.update(_curve_files(chain.curves(cfg.sweep)))
    return files


def cmd_phase(cfg: RunConfig) -> dict:
    energies = cfg.sweep if cfg.sweep is not None else 0.1 + 0.1 * np.arange(0, 200)
    curves = analyze(cfg.preset, cfg.grid).curves(energies)
    worst = float(np.max(mod_pi_distance(curves["V3"].deltas, curves["V1"].deltas)))
    print(f"phase {cfg.preset.name}: {len(energies)} energies, "
          f"max |delta_V3 - delta_V1| mod pi = {worst:.2e} rad")
    return _curve_files(curves)


def cmd_transfer_ratio(cfg: RunConfig) -> dict:
    if cfg.preset.name != "deuteron":
        raise ConfigError("transfer-ratio is defined for the deuteron preset only")
    deep_ts, pep_ts, ratio = analyze(cfg.preset, cfg.grid).strengths
    print(f"D0^2(deep) = {deep_ts.d0_squared:.1f} MeV^2 fm^3")
    print(f"D0^2(pep)  = {pep_ts.d0_squared:.1f} MeV^2 fm^3")
    print(f"ratio      = {ratio:.4f}")
    return {"transfer_ratio.json": {
        "system": cfg.preset.name,
        "d0_squared_deep_MeV2_fm3": deep_ts.d0_squared,
        "d0_squared_pep_MeV2_fm3": pep_ts.d0_squared,
        "cross_section_ratio": ratio,
    }}


# (space-separated flags, add_argument keywords) of the options every command takes
_COMMON = (
    ("--preset", {"choices": PRESETS}),   # read at parse time: every registered preset
    ("--config", {"metavar": "PATH", "help": "key=value preset file"}),
    ("--step", {"type": float, "default": DEFAULT_STEP, "metavar": "FM"}),
    ("--rmax", {"type": float, "default": DEFAULT_R_MAX, "metavar": "FM"}),
    ("--out", {"metavar": "DIR", "help": "output directory"}),
    ("--format", {"choices": ["csv", "json", "both"], "default": "both",
                  "help": "file types written under --out"}),
    ("-v --verbose", {"action": "store_true"}),
)
_SWEEP = tuple((flag, {"type": float, "metavar": "MEV"})
               for flag in ("--emin", "--emax", "--estep"))

# command -> (handler, help text, options beyond _COMMON)
_COMMANDS = {
    "fit": (cmd_fit, "determine (a_tilde, beta) from the preset's targets", ()),
    "spectrum": (cmd_spectrum, "analytic and numerical bound levels of the deep potential", ()),
    "partner": (cmd_partner, "build the intermediate and phase-equivalent partners",
                (("--removals", {"type": int, "default": 1, "metavar": "K"}),)),
    "report": (cmd_report, "radii, transfer strengths and optional phase curves", _SWEEP),
    "phase": (cmd_phase, "phase-shift curves for the deep potential and its partners", _SWEEP),
    "transfer-ratio": (cmd_transfer_ratio, "zero-range strengths and the cross-section ratio",
                       ()),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="susypep", description=__doc__.partition("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"susypep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in _COMMON + options:
            p.add_argument(*flags.split(), **kwargs)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    logging.basicConfig()   # a stderr handler, unless the root logger already has one
    logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    try:
        cfg = RunConfig.from_args(args)
        files = _COMMANDS[args.command][0](cfg)
    except SusypepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConfigError) else 2
    if cfg.formats:
        try:
            writer = OutputWriter(args.out)
            for name, content in files.items():
                if name.endswith(".csv") and "csv" in cfg.formats:
                    writer.write_csv(name, *content)
                elif name.endswith(".json") and "json" in cfg.formats:
                    writer.write_json(name, content)
            writer.finalize_manifest()
        except OSError as exc:
            print(f"error: cannot write under --out: {exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
