"""Command-line workflows: fit -> transform -> observe for the presets.

Subcommands: fit, spectrum, partner, report, phase, transfer-ratio.
Exit codes: 0 success, 2 numerical/bracket failure, 3 configuration error.
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
from .fitting import SystemPreset, fit_parameters, get_preset, load_preset_config
from .grids import DEFAULT_R_MAX, DEFAULT_STEP, RadialGrid
from .io import OutputWriter
from .observables import (
    ObservableReport,
    charge_radius,
    matter_radius,
    mod_pi_distance,
    rms_radius,
)
from .pipeline import analyze
from .potentials import analytic_depth, analytic_levels, values_on_grid
from .solver import solve_bound_state


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="susypep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"susypep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", choices=["deuteron", "be11", "alpha"])
        p.add_argument("--config", metavar="PATH", help="key=value preset file")
        p.add_argument("--step", type=float, default=DEFAULT_STEP, metavar="FM")
        p.add_argument("--rmax", type=float, default=DEFAULT_R_MAX, metavar="FM")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--format", choices=["csv", "json", "both"], default="both")
        p.add_argument("-v", "--verbose", action="store_true")

    for name, help_text in [
        ("fit", "determine (a_tilde, beta) from the preset's targets"),
        ("spectrum", "analytic and numerical bound levels of the deep potential"),
        ("partner", "build the intermediate and phase-equivalent partners"),
        ("report", "radii, transfer strengths and optional phase curves"),
        ("phase", "phase-shift curves for the deep potential and its partners"),
        ("transfer-ratio", "zero-range strengths and the cross-section ratio"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "partner":
            p.add_argument("--removals", type=int, default=1, metavar="K")
        if name in ("report", "phase"):
            for flag in ("--emin", "--emax", "--estep"):
                p.add_argument(flag, type=float, metavar="MEV")

    return parser


@dataclass(frozen=True)
class RunConfig:
    """Resolved, validated run parameters shared by every subcommand."""

    preset: SystemPreset
    grid: RadialGrid
    out_dir: str | None
    csv: bool
    json: bool
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

        bounds = [getattr(args, name, None) for name in ("emin", "emax", "estep")]
        for flag, value in zip(("--step", "--rmax", "--emin", "--emax", "--estep"),
                               [args.step, args.rmax] + bounds):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
        if args.step <= 0 or args.rmax <= 0:
            raise ConfigError("--step and --rmax must be positive")
        try:
            grid = RadialGrid.from_extent(args.step, args.rmax)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        removals = getattr(args, "removals", 1)
        if removals < 0:
            raise ConfigError(f"--removals must be >= 0, got {removals}")

        sweep = None
        if any(x is not None for x in bounds):
            if None in bounds:
                raise ConfigError("--emin, --emax and --estep must be given together")
            emin, emax, estep = bounds
            if emin <= 0 or emax <= emin or estep <= 0:
                raise ConfigError("sweep bounds must be positive and ordered")
            n = int(round((emax - emin) / estep))
            sweep = emin + estep * np.arange(0, n + 1)

        return cls(
            preset=preset,
            grid=grid,
            out_dir=args.out,
            csv=args.format in ("csv", "both"),
            json=args.format in ("json", "both"),
            sweep=sweep,
            removals=removals,
        )

    def writer(self) -> OutputWriter | None:
        return OutputWriter(self.out_dir) if self.out_dir else None


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


def cmd_fit(cfg: RunConfig) -> int:
    preset = cfg.preset
    if preset.fixed:
        raise ConfigError(
            f"preset {preset.name!r} has fixed parameters; use 'spectrum' instead"
        )
    result = fit_parameters(preset, grid=cfg.grid)
    payload = result.to_dict()
    payload["system"] = preset.name
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
    writer = cfg.writer()
    if writer:
        writer.write_json(f"fit_{preset.name}.json", payload)
        writer.finalize_manifest()
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
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
    writer = cfg.writer()
    if writer:
        payload = {
            "system": preset.name,
            "a_tilde": a_tilde,
            "beta_per_fm": beta,
            "depth_MeV": depth,
            "levels": levels,
        }
        if chain.fit is not None:
            payload["fit"] = chain.fit.to_dict()
        writer.write_json(f"spectrum_{preset.name}.json", payload)
        writer.finalize_manifest()
    return 0


def cmd_partner(cfg: RunConfig) -> int:
    chain = analyze(cfg.preset, cfg.grid, removals=cfg.removals)
    print(
        f"partner {cfg.preset.name}: {cfg.removals} removal(s),"
        f" removed energies {[f'{rec.removed_energy:.4f}' for rec in chain.records[::2]]} MeV"
    )
    writer = cfg.writer()
    if writer:
        if cfg.csv:
            writer.write_csv(
                "V1.csv", ["r_fm", "V_MeV"], [cfg.grid.r, values_on_grid(chain.potential, cfg.grid)]
            )
        sidecars = []
        for i, rec in enumerate(chain.records):
            suffix = f"_removal{i // 2 + 1}" if i >= 2 else ""
            name = f"V{2 + i % 2}{suffix}.csv"
            if cfg.csv:
                writer.write_csv(name, ["r_fm", "V_MeV"], [cfg.grid.r, rec.result.values])
            sidecars.append({**rec.sidecar(), "file": name})
        if cfg.json:
            writer.write_json("records.json", {"system": cfg.preset.name, "records": sidecars})
        writer.finalize_manifest()
    return 0


def _write_curves(writer: OutputWriter, curves) -> None:
    for label, curve in curves.items():
        writer.write_csv(
            f"phase_{label}.csv",
            ["E_MeV", "delta_rad", "delta_deg"],
            [curve.energies, curve.deltas, np.degrees(curve.deltas)],
        )


def cmd_report(cfg: RunConfig) -> int:
    preset = cfg.preset
    chain = analyze(preset, cfg.grid)
    states = {"deep": chain.physical, "intermediate": chain.v2_state, "pep": chain.v3_state}
    rms = {label: rms_radius(state, preset.coordinate_factor) for label, state in states.items()}
    charge = matter = transfer = ratio = None
    if preset.r_proton is not None:
        charge = charge_radius(preset.r_proton, rms["deep"])
    if preset.core_mass_number is not None and preset.r_core is not None:
        matter = matter_radius(preset.core_mass_number, preset.r_core, rms["deep"])
    if preset.name == "deuteron":
        deep_ts, pep_ts, ratio = chain.strengths
        transfer = {
            label: {"d0_MeV_fm32": ts.d0, "d0_squared_MeV2_fm3": ts.d0_squared}
            for label, ts in (("deep", deep_ts), ("pep", pep_ts))
        }

    notes = _reference_pair_notes(preset)
    report = ObservableReport(
        system=preset.name,
        rms_fm=rms,
        charge_radius_fm=charge,
        matter_radius_fm=matter,
        transfer=transfer,
        cross_section_ratio=ratio,
        notes=tuple(notes),
    )

    print(f"report {preset.name}: rms deep {rms['deep']:.4f} fm, intermediate "
          f"{rms['intermediate']:.4f} fm, pep {rms['pep']:.4f} fm")
    if ratio is not None:
        print(f"  D0^2 deep/pep = {ratio:.4f}")
    for note in notes:
        print(f"  note: {note}")

    writer = cfg.writer()
    if writer:
        if cfg.csv:
            if cfg.sweep is not None:
                _write_curves(writer, chain.curves(cfg.sweep))
            for label, state in states.items():
                writer.write_csv(f"u_{label}.csv", ["r_fm", "u"], [cfg.grid.r, state.u])
        if cfg.json:
            payload = report.to_dict()
            payload["a_tilde"] = chain.a_tilde
            payload["beta_per_fm"] = chain.beta
            payload["states"] = {label: state.summary() for label, state in states.items()}
            if chain.fit is not None:
                payload["fit"] = chain.fit.to_dict()
            writer.write_json(f"report_{preset.name}.json", payload)
        writer.finalize_manifest()
    return 0


def cmd_phase(cfg: RunConfig) -> int:
    energies = cfg.sweep if cfg.sweep is not None else 0.1 + 0.1 * np.arange(0, 200)
    curves = analyze(cfg.preset, cfg.grid).curves(energies)
    worst = float(np.max(mod_pi_distance(curves["V3"].deltas, curves["V1"].deltas)))
    print(f"phase {cfg.preset.name}: {len(energies)} energies, "
          f"max |delta_V3 - delta_V1| mod pi = {worst:.2e} rad")
    writer = cfg.writer()
    if writer:
        _write_curves(writer, curves)
        writer.finalize_manifest()
    return 0


def cmd_transfer_ratio(cfg: RunConfig) -> int:
    if cfg.preset.name != "deuteron":
        raise ConfigError("transfer-ratio is defined for the deuteron preset only")
    deep_ts, pep_ts, ratio = analyze(cfg.preset, cfg.grid).strengths
    print(f"D0^2(deep) = {deep_ts.d0_squared:.1f} MeV^2 fm^3")
    print(f"D0^2(pep)  = {pep_ts.d0_squared:.1f} MeV^2 fm^3")
    print(f"ratio      = {ratio:.4f}")
    writer = cfg.writer()
    if writer:
        writer.write_json(
            "transfer_ratio.json",
            {
                "system": cfg.preset.name,
                "d0_squared_deep_MeV2_fm3": deep_ts.d0_squared,
                "d0_squared_pep_MeV2_fm3": pep_ts.d0_squared,
                "cross_section_ratio": ratio,
            },
        )
        writer.finalize_manifest()
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "spectrum": cmd_spectrum,
    "partner": cmd_partner,
    "report": cmd_report,
    "phase": cmd_phase,
    "transfer-ratio": cmd_transfer_ratio,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return _COMMANDS[args.command](RunConfig.from_args(args))
    except SusypepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
