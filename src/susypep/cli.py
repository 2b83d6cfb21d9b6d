"""Command-line workflows: fit -> transform -> observe for the presets.

Subcommands: fit, spectrum, partner, report, phase, transfer-ratio.
Exit codes: 0 success, 2 numerical/bracket failure, 3 configuration error.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ConfigError, SusypepError
from .fitting import (
    FitResult,
    SystemPreset,
    fit_parameters,
    get_preset,
    load_preset_config,
)
from .grids import DEFAULT_R_MAX, DEFAULT_STEP, RadialGrid
from .io import OutputWriter
from .observables import (
    ObservableReport,
    charge_radius,
    cross_section_ratio,
    matter_radius,
    mod_pi_distance,
    phase_shift_curve,
    rms_radius,
    zero_range_strength,
)
from .potentials import SechSquared, analytic_depth, analytic_levels, level_count, values_on_grid
from .solver import solve_bound_state
from .transform import iterate_removals

log = logging.getLogger(__name__)


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
        p.add_argument("--emin", type=float, metavar="MEV")
        p.add_argument("--emax", type=float, metavar="MEV")
        p.add_argument("--estep", type=float, metavar="MEV")
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

        if args.step <= 0 or args.rmax <= 0:
            raise ConfigError("--step and --rmax must be positive")
        grid = RadialGrid.from_extent(args.step, args.rmax)

        given = [x is not None for x in (args.emin, args.emax, args.estep)]
        sweep = None
        if any(given):
            if not all(given):
                raise ConfigError("--emin, --emax and --estep must be given together")
            if args.emin <= 0 or args.emax <= args.emin or args.estep <= 0:
                raise ConfigError("sweep bounds must be positive and ordered")
            n = int(round((args.emax - args.emin) / args.estep))
            sweep = args.emin + args.estep * np.arange(0, n + 1)

        return cls(
            preset=preset,
            grid=grid,
            out_dir=args.out,
            csv=args.format in ("csv", "both"),
            json=args.format in ("json", "both"),
            sweep=sweep,
            removals=getattr(args, "removals", 1),
        )

    def writer(self) -> OutputWriter | None:
        return OutputWriter(self.out_dir) if self.out_dir else None


def _parameters(cfg: RunConfig) -> tuple[float, float, FitResult | None]:
    """Canonical parameter pair, fitting first when the preset has none."""
    preset = cfg.preset
    if preset.canonical_a_tilde is not None and preset.canonical_beta is not None:
        return preset.canonical_a_tilde, preset.canonical_beta, None
    result = fit_parameters(preset, grid=cfg.grid)
    return result.a_tilde, result.beta, result


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


def _chain(cfg: RunConfig, a_tilde: float, beta: float, removals: int = 1):
    potential = SechSquared(a_tilde, beta, cfg.preset.channel.hbar2_over_2mu)
    records = iterate_removals(potential, cfg.preset.channel, removals, grid=cfg.grid)
    return potential, records


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
    a_tilde, beta, fit = _parameters(cfg)
    channel = preset.channel
    potential = SechSquared(a_tilde, beta, channel.hbar2_over_2mu)
    depth = analytic_depth(a_tilde, beta, channel)
    rows = []
    print(f"spectrum {preset.name}: a_tilde={a_tilde:.6f} beta={beta:.6f} /fm depth={depth:.3f} MeV")
    for n in range(level_count(a_tilde)):
        e_analytic = analytic_levels(a_tilde, beta, channel, n)
        state = solve_bound_state(potential, channel, target_nodes=n, grid=cfg.grid)
        rows.append((n, e_analytic, state.energy, state.nodes, state.kappa))
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
            "levels": [
                {
                    "n": n,
                    "analytic_MeV": ea,
                    "numerical_MeV": en,
                    "nodes": nodes,
                    "kappa_per_fm": kappa,
                }
                for n, ea, en, nodes, kappa in rows
            ],
        }
        if fit is not None:
            payload["fit"] = fit.to_dict()
        writer.write_json(f"spectrum_{preset.name}.json", payload)
        writer.finalize_manifest()
    return 0


def _record_names(index: int) -> tuple[str, str]:
    if index == 0:
        return "V2", "V3"
    return f"V2_removal{index + 1}", f"V3_removal{index + 1}"


def cmd_partner(cfg: RunConfig) -> int:
    preset = cfg.preset
    a_tilde, beta, _ = _parameters(cfg)
    potential, records = _chain(cfg, a_tilde, beta, removals=cfg.removals)
    writer = cfg.writer()
    sidecars = []
    print(
        f"partner {preset.name}: {cfg.removals} removal(s),"
        f" removed energies {[f'{rec.removed_energy:.4f}' for rec in records[::2]]} MeV"
    )
    if writer:
        if cfg.csv:
            writer.write_csv(
                "V1.csv", ["r_fm", "V_MeV"], [cfg.grid.r, values_on_grid(potential, cfg.grid)]
            )
        for i in range(0, len(records), 2):
            name2, name3 = _record_names(i // 2)
            for name, rec in ((name2, records[i]), (name3, records[i + 1])):
                if cfg.csv:
                    writer.write_csv(
                        f"{name}.csv", ["r_fm", "V_MeV"], [cfg.grid.r, rec.result.values]
                    )
                entry = rec.sidecar()
                entry["file"] = f"{name}.csv"
                sidecars.append(entry)
        if cfg.json:
            writer.write_json("records.json", {"system": preset.name, "records": sidecars})
        writer.finalize_manifest()
    return 0


def cmd_report(cfg: RunConfig) -> int:
    preset = cfg.preset
    a_tilde, beta, fit = _parameters(cfg)
    channel = preset.channel
    potential, records = _chain(cfg, a_tilde, beta)
    v2, v3 = records[0].result, records[1].result

    deep_state = solve_bound_state(
        potential, channel, target_nodes=preset.physical_node_count, grid=cfg.grid
    )
    v2_state = solve_bound_state(v2, channel, target_nodes=0, grid=cfg.grid)
    pep_state = solve_bound_state(v3, channel, target_nodes=0, grid=cfg.grid)

    factor = preset.coordinate_factor
    rms = {
        "deep": rms_radius(deep_state, factor),
        "intermediate": rms_radius(v2_state, factor),
        "pep": rms_radius(pep_state, factor),
    }
    charge = matter = transfer = ratio = None
    if preset.r_proton is not None:
        charge = charge_radius(preset.r_proton, rms["deep"])
    if preset.core_mass_number is not None and preset.r_core is not None:
        matter = matter_radius(preset.core_mass_number, preset.r_core, rms["deep"])
    if preset.name == "deuteron":
        deep_ts = zero_range_strength(potential, deep_state, provenance="deep")
        pep_ts = zero_range_strength(v3, pep_state, provenance="pep")
        transfer = {
            "deep": {"d0_MeV_fm32": deep_ts.d0, "d0_squared_MeV2_fm3": deep_ts.d0_squared},
            "pep": {"d0_MeV_fm32": pep_ts.d0, "d0_squared_MeV2_fm3": pep_ts.d0_squared},
        }
        ratio = cross_section_ratio(deep_ts, pep_ts)

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
        if cfg.sweep is not None:
            for label, pot in (("V1", potential), ("V2", v2), ("V3", v3)):
                curve = phase_shift_curve(pot, channel, cfg.sweep, grid=cfg.grid,
                                          provenance=label)
                if cfg.csv:
                    writer.write_csv(
                        f"phase_{label}.csv",
                        ["E_MeV", "delta_rad", "delta_deg"],
                        [curve.energies, curve.deltas, np.degrees(curve.deltas)],
                    )
        if cfg.csv:
            for label, state in (
                ("deep", deep_state),
                ("intermediate", v2_state),
                ("pep", pep_state),
            ):
                writer.write_csv(f"u_{label}.csv", ["r_fm", "u"], [cfg.grid.r, state.u])
        if cfg.json:
            payload = report.to_dict()
            payload["a_tilde"] = a_tilde
            payload["beta_per_fm"] = beta
            payload["states"] = {
                "deep": deep_state.summary(),
                "intermediate": v2_state.summary(),
                "pep": pep_state.summary(),
            }
            if fit is not None:
                payload["fit"] = fit.to_dict()
            writer.write_json(f"report_{preset.name}.json", payload)
        writer.finalize_manifest()
    return 0


def cmd_phase(cfg: RunConfig) -> int:
    preset = cfg.preset
    a_tilde, beta, _ = _parameters(cfg)
    energies = cfg.sweep if cfg.sweep is not None else 0.1 + 0.1 * np.arange(0, 200)
    potential, records = _chain(cfg, a_tilde, beta)
    writer = cfg.writer()
    curves = {}
    for label, pot in (("V1", potential), ("V2", records[0].result), ("V3", records[1].result)):
        curves[label] = phase_shift_curve(pot, preset.channel, energies, grid=cfg.grid,
                                          provenance=label)
    worst = float(np.max(mod_pi_distance(curves["V3"].deltas, curves["V1"].deltas)))
    print(f"phase {preset.name}: {len(energies)} energies, "
          f"max |delta_V3 - delta_V1| mod pi = {worst:.2e} rad")
    if writer:
        for label, curve in curves.items():
            writer.write_csv(
                f"phase_{label}.csv",
                ["E_MeV", "delta_rad", "delta_deg"],
                [curve.energies, curve.deltas, np.degrees(curve.deltas)],
            )
        writer.finalize_manifest()
    return 0


def cmd_transfer_ratio(cfg: RunConfig) -> int:
    preset = cfg.preset
    if preset.name != "deuteron":
        raise ConfigError("transfer-ratio is defined for the deuteron preset only")
    a_tilde, beta, _ = _parameters(cfg)
    potential, records = _chain(cfg, a_tilde, beta)
    deep_state = solve_bound_state(
        potential, preset.channel, target_nodes=preset.physical_node_count, grid=cfg.grid
    )
    pep_state = solve_bound_state(records[1].result, preset.channel, target_nodes=0,
                                  grid=cfg.grid)
    deep_ts = zero_range_strength(potential, deep_state, provenance="deep")
    pep_ts = zero_range_strength(records[1].result, pep_state, provenance="pep")
    ratio = cross_section_ratio(deep_ts, pep_ts)
    print(f"D0^2(deep) = {deep_ts.d0_squared:.1f} MeV^2 fm^3")
    print(f"D0^2(pep)  = {pep_ts.d0_squared:.1f} MeV^2 fm^3")
    print(f"ratio      = {ratio:.4f}")
    writer = cfg.writer()
    if writer:
        writer.write_json(
            "transfer_ratio.json",
            {
                "system": preset.name,
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SusypepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
