"""Output checks for benchmark jobs, from closed forms and physics invariants.

Nothing here compares against digits recorded from an earlier run, so a
correct numerical change (fewer sweeps, a converged halo tail) passes while
a wrong eigenvalue or a broken phase equivalence fails. The closed forms
are re-derived here rather than imported from ``susypep``, so a defect in
the program cannot also excuse itself.

Every tolerance is fixed below with the reason for its size.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Numerical eigenvalue vs the closed-form sech^2 level, relative: acceptance
# criterion 09a's 1e-4 for the O(h^4) Numerov error, plus the shift a hard
# wall at r_max puts on a state decaying as C exp(-kappa r): about
# 2 kappa C^2 c exp(-2 kappa r_max) = 4 |E| exp(-2 kappa r_max) for the
# zero-range C^2 = 2 kappa. The factor 16 admits C^2 up to four times that.
# It matters only for the be11 halo at 35 fm (about 5e-4 there).
LEVEL_REL_TOL = 1e-4
TRUNCATION_FACTOR = 16.0
# The closed-form fit inverts the level formula exactly: rounding only.
FIT_ENERGY_REL_TOL = 1e-9
# fit_parameters refuses results with |rms residual| above 1e-4 fm.
FIT_RMS_TOL = 1e-4
# |delta_V3 - delta_V1| mod pi, rad. About 4e-8 is measured on every benchmark
# grid; 1e-4 leaves room for a different but correct discretisation of the
# transform and is still 100 times tighter than acceptance criterion 04.
PHASE_EQUIV_TOL = 1e-4
# The phase-equivalent partner keeps the physical state's rms (about 0.009 fm
# apart for be11, 0.001 fm for the deuteron, on every benchmark grid), fm.
PEP_RMS_TOL = 0.01
# D0^2(deep)/D0^2(pep) for the deuteron: the paper quotes a ratio just below
# one (about 0.99); the band admits grid convergence, not a sign or factor error.
D0_RATIO_BAND = (0.97, 1.0)
# Values copied between a CSV (17 significant digits) and a JSON record.
COPY_REL_TOL = 1e-12
# Norm of an exported wave function with the program's own trapezoid rule.
NORM_TOL = 1e-9

PHASE_HEADER = "E_MeV,delta_rad,delta_deg"
WAVE_HEADER = "r_fm,u"


def _const(c, nodes, factor, a=None, b=None, target_e=None):
    return {"c": c, "nodes": nodes, "factor": factor, "a": a, "b": b, "target_e": target_e}


# Preset constants as the paper defines them. The deuteron and alpha pairs are
# prescribed; be11 is fitted to (E, rms), so its pair is read from the output.
PRESETS = {
    "deuteron": _const(41.47, 1, 0.25, a=3.146, b=1.587),
    "be11": _const(22.81, 1, 1.0, target_e=-0.503),
    "alpha": _const(10.375, 2, 1.0, a=5.945, b=0.535),
}
# be11's fitted beta depends on r_max through the truncated halo tail
# (0.6937 /fm at 35 fm, 0.6962 at 60 and 100 fm); partner output does not
# report it, so its removed energy is checked against this band of betas.
BE11_BETA_BAND = (0.69, 0.70)


def level(a, b, c, n):
    """Closed-form half-line sech^2 level E_n = -c (a - 2n - 1)^2 b^2."""
    return -c * (a - 2 * n - 1) ** 2 * b * b


def level_count(a):
    """Number of n with a - 2n - 1 > 0."""
    return max(0, math.ceil((a - 1.0) / 2.0))


def mod_pi_gap(x, y):
    d = np.abs(np.asarray(x) - np.asarray(y)) % math.pi
    return np.minimum(d, math.pi - d)


def sweep_energies(sweep):
    """The energies the CLI builds from --emin/--emax/--estep."""
    emin, emax, estep = sweep
    n = int(round((emax - emin) / estep))
    return emin + estep * np.arange(0, n + 1)


def trapezoid(values, step):
    """The program's quadrature: trapezoid on [r_1, r_max] plus the origin sliver."""
    v = np.asarray(values, dtype=float)
    return step * (0.5 * (v[0] + v[-1]) + v[1:-1].sum()) + 0.5 * step * v[0]


def sign_changes(u):
    nz = u[u != 0.0]
    return int(np.count_nonzero(nz[1:] * nz[:-1] < 0.0))


class Outcome:
    """Failure reasons of one job plus the largest deviation seen per check."""

    def __init__(self):
        self.reasons: list[str] = []
        self.worst: dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return not self.reasons

    def expect(self, ok, reason):
        if not ok:
            self.reasons.append(reason)
        return ok

    def within(self, name, deviation, tol, what):
        deviation = float(deviation)
        self.worst[name] = max(self.worst.get(name, 0.0), deviation)
        return self.expect(deviation <= tol, f"{what}: deviation {deviation:.3g} > {tol:g}")


def rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


def level_tol(exact, c, rmax):
    """Relative tolerance of a numerical level on a grid ending at rmax."""
    kappa = math.sqrt(-exact / c)
    return LEVEL_REL_TOL + TRUNCATION_FACTOR * math.exp(-2.0 * kappa * rmax)


def read_csv(path: Path, header: str) -> np.ndarray:
    """Columns of a one-header CSV as a (columns, rows) float array."""
    text = path.read_text(encoding="utf-8")
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    rows = body.split()
    width = header.count(",") + 1
    values = np.array(",".join(rows).split(","), dtype=float)
    return values.reshape(len(rows), width).T


def _check_manifest(out: Outcome, out_dir: Path, expected: set[str]):
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = {entry["path"]: entry["sha256"] for entry in manifest["files"]}
    out.expect(set(listed) == expected,
               f"manifest lists {sorted(listed)}, expected {sorted(expected)}")
    present = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    out.expect(present == expected, f"directory holds {sorted(present)}, expected {sorted(expected)}")
    for name, digest in listed.items():
        path = out_dir / name
        if path.exists():
            out.expect(hashlib.sha256(path.read_bytes()).hexdigest() == digest,
                       f"{name}: sha256 differs from manifest")


def _parameters(out: Outcome, preset: str, a, b, fit):
    """Check the reported (a_tilde, beta) against the preset's definition."""
    k = PRESETS[preset]
    if k["a"] is not None:
        out.expect(a == k["a"] and b == k["b"],
                   f"{preset}: parameters ({a}, {b}) are not the prescribed ({k['a']}, {k['b']})")
        return
    out.within("fit_energy_rel", rel(level(a, b, k["c"], k["nodes"]), k["target_e"]),
               FIT_ENERGY_REL_TOL, f"{preset}: closed-form level of the fitted pair vs target")
    out.expect(fit is not None, f"{preset}: fitted pair reported without its fit record")
    if fit is not None:
        out.within("fit_rms_residual", abs(fit["rms_residual_fm"]), FIT_RMS_TOL,
                   f"{preset}: fit rms residual")


def _check_phase_set(out: Outcome, out_dir: Path, sweep, n_bound):
    """V1/V2/V3 curves: energies, Levinson anchor, V3 == V1 mod pi."""
    energies = sweep_energies(sweep)
    deltas = {}
    for label, bound in (("V1", n_bound), ("V2", n_bound - 1), ("V3", n_bound - 1)):
        e, d, deg = read_csv(out_dir / f"phase_{label}.csv", PHASE_HEADER)
        if not out.expect(e.shape == energies.shape,
                          f"phase_{label}: {e.size} energies, expected {energies.size}"):
            return
        out.within("energy_grid", np.max(np.abs(e - energies)), 1e-9,
                   f"phase_{label}: energies vs the requested sweep")
        out.within("degrees_copy", np.max(np.abs(deg - np.degrees(d))) / 360.0,
                   COPY_REL_TOL, f"phase_{label}: delta_deg vs delta_rad")
        out.within("levinson_anchor", abs(d[0] - bound * math.pi) / (0.5 * math.pi), 1.0,
                   f"phase_{label}: branch at {e[0]} MeV vs Levinson anchor {bound} pi, in pi/2")
        deltas[label] = d
    out.within("phase_equivalence", np.max(mod_pi_gap(deltas["V3"], deltas["V1"])),
               PHASE_EQUIV_TOL, "max |delta_V3 - delta_V1| mod pi (rad)")


def check_phase(job, out_dir: Path) -> Outcome:
    out = Outcome()
    _check_manifest(out, out_dir, {f"phase_{v}.csv" for v in ("V1", "V2", "V3")})
    _check_phase_set(out, out_dir, job["sweep"], _bound_count(job["preset"]))
    return out


def _bound_count(preset):
    k = PRESETS[preset]
    if k["a"] is not None:
        return level_count(k["a"])
    # a fitted one-node state has 3 < a_tilde < 5 for any beta in the fit bracket
    return 2


def check_spectrum(job, out_dir: Path) -> Outcome:
    out = Outcome()
    preset = job["preset"]
    name = f"spectrum_{preset}.json"
    _check_manifest(out, out_dir, {name})
    data = json.loads((out_dir / name).read_text(encoding="utf-8"))
    a, b, c = data["a_tilde"], data["beta_per_fm"], PRESETS[preset]["c"]
    _parameters(out, preset, a, b, data.get("fit"))
    out.within("copy", rel(data["depth_MeV"], c * a * (a + 1) * b * b), COPY_REL_TOL,
               f"{preset}: depth vs c a (a+1) beta^2")
    levels = data["levels"]
    out.expect(len(levels) == level_count(a),
               f"{preset}: {len(levels)} levels, closed form has {level_count(a)}")
    for entry in levels:
        n = entry["n"]
        exact = level(a, b, c, n)
        out.within("copy", rel(entry["analytic_MeV"], exact), COPY_REL_TOL,
                   f"{preset} n={n}: analytic level vs closed form")
        out.within("level_rel", rel(entry["numerical_MeV"], exact),
                   level_tol(exact, c, job["rmax"]), f"{preset} n={n}: eigenvalue vs closed form")
        out.expect(entry["nodes"] == n, f"{preset} n={n}: state has {entry['nodes']} nodes")
        out.within("copy", rel(entry["kappa_per_fm"], math.sqrt(-entry["numerical_MeV"] / c)),
                   COPY_REL_TOL, f"{preset} n={n}: kappa vs sqrt(-E/c)")
    return out


def check_partner(job, out_dir: Path) -> Outcome:
    out = Outcome()
    preset, k = job["preset"], job["removals"]
    _check_manifest(out, out_dir, {"records.json"})
    records = json.loads((out_dir / "records.json").read_text(encoding="utf-8"))["records"]
    if not out.expect(len(records) == 2 * k, f"{len(records)} records for {k} removals"):
        return out
    const = PRESETS[preset]
    for j in range(k):
        rec2, rec3 = records[2 * j], records[2 * j + 1]
        suffix = "" if j == 0 else f"_removal{j + 1}"
        out.expect(
            (rec2["step_kind"], rec3["step_kind"], rec2["file"], rec3["file"])
            == ("intermediate", "phase_equivalent", f"V2{suffix}.csv", f"V3{suffix}.csv"),
            f"removal {j + 1}: record kinds/files out of order",
        )
        # each removal raises l_eff of the source by 2: V2 has l+1, V3 has l+2
        ell = 2 * j
        out.expect(
            (rec2["singular_coefficient"], rec3["singular_coefficient"])
            == ((ell + 1) * (ell + 2), (ell + 2) * (ell + 3)),
            f"removal {j + 1}: singular coefficients {rec2['singular_coefficient']}, "
            f"{rec3['singular_coefficient']}",
        )
        removed = rec2["removed_energy_MeV"]
        out.expect(rec3["removed_energy_MeV"] == removed,
                   f"removal {j + 1}: V2 and V3 records disagree on the removed energy")
        # SUSY removal keeps the rest of the spectrum: removal j takes E_j.
        if const["a"] is not None:
            exact = level(const["a"], const["b"], const["c"], j)
            out.within("level_rel", rel(removed, exact), level_tol(exact, const["c"], job["rmax"]),
                       f"{preset} removal {j + 1}: removed energy vs E_{j}")
        else:
            kappa = math.sqrt(-const["target_e"] / const["c"])
            band = sorted(-const["c"] * (2 * beta + kappa) ** 2 for beta in BE11_BETA_BAND)
            out.expect(band[0] <= removed <= band[1],
                       f"{preset} removal {j + 1}: removed energy {removed} outside the "
                       f"closed-form band {band} of the fitted family")
    return out


def check_transfer_ratio(job, out_dir: Path) -> Outcome:
    out = Outcome()
    _check_manifest(out, out_dir, {"transfer_ratio.json"})
    data = json.loads((out_dir / "transfer_ratio.json").read_text(encoding="utf-8"))
    _check_ratio(out, data["d0_squared_deep_MeV2_fm3"], data["d0_squared_pep_MeV2_fm3"],
                 data["cross_section_ratio"])
    return out


def _check_ratio(out: Outcome, deep, pep, ratio):
    out.expect(deep > 0.0 and pep > 0.0, f"D0^2 must be positive: deep {deep}, pep {pep}")
    if pep > 0.0:
        out.within("copy", rel(ratio, deep / pep), COPY_REL_TOL, "ratio vs D0^2 deep / pep")
    lo, hi = D0_RATIO_BAND
    out.expect(lo <= ratio <= hi, f"D0^2 ratio {ratio:.6f} outside [{lo}, {hi}]")


def check_fit(job, out_dir: Path) -> Outcome:
    out = Outcome()
    cfg = job["config"]
    name = f"fit_{cfg['name']}.json"
    _check_manifest(out, out_dir, {name})
    data = json.loads((out_dir / name).read_text(encoding="utf-8"))
    a, b = data["a_tilde"], data["beta_per_fm"]
    out.within("fit_energy_rel",
               rel(level(a, b, cfg["hbar2_over_2mu"], cfg["nodes"]), cfg["target_energy"]),
               FIT_ENERGY_REL_TOL, "closed-form level of the fitted pair vs target")
    out.within("fit_rms_residual", abs(data["achieved_rms_fm"] - cfg["target_rms"]),
               FIT_RMS_TOL, "fitted rms vs target (fm)")
    out.within("copy", abs(data["rms_residual_fm"] - (data["achieved_rms_fm"] - cfg["target_rms"])),
               1e-12, "rms residual vs achieved - target")
    return out


def _check_wave(out: Outcome, path: Path, step, n_points, nodes, factor, rms):
    r, u = read_csv(path, WAVE_HEADER)
    if not out.expect(r.size == n_points, f"{path.name}: {r.size} points, grid has {n_points}"):
        return
    out.within("grid_r", np.max(np.abs(r - step * np.arange(1, n_points + 1))) / r[-1],
               COPY_REL_TOL, f"{path.name}: radii vs k * step")
    out.within("norm", abs(trapezoid(u * u, step) - 1.0), NORM_TOL, f"{path.name}: norm")
    out.expect(sign_changes(u) == nodes, f"{path.name}: {sign_changes(u)} nodes, expected {nodes}")
    big = np.nonzero(np.abs(u) > 1e-3 * np.max(np.abs(u)))[0][-1]
    out.expect(u[big] > 0.0, f"{path.name}: tail is negative")
    out.within("copy", rel(math.sqrt(factor * trapezoid(r * r * u * u, step)), rms),
               1e-9, f"{path.name}: rms from the exported u vs the report")


def check_report(job, out_dir: Path) -> Outcome:
    out = Outcome()
    preset = job["preset"]
    name = f"report_{preset}.json"
    expected = {name} | {f"u_{s}.csv" for s in ("deep", "intermediate", "pep")}
    if job["sweep"] is not None:
        expected |= {f"phase_{v}.csv" for v in ("V1", "V2", "V3")}
    _check_manifest(out, out_dir, expected)
    data = json.loads((out_dir / name).read_text(encoding="utf-8"))
    const = PRESETS[preset]
    a, b, c = data["a_tilde"], data["beta_per_fm"], const["c"]
    _parameters(out, preset, a, b, data.get("fit"))

    # V2 and V3 lose only the ground state, so their lowest level is E_1.
    targets = {"deep": (const["nodes"], const["nodes"]), "intermediate": (1, 0), "pep": (1, 0)}
    n_points = int(round(job["rmax"] / job["step"]))
    for state, (level_index, nodes) in targets.items():
        summary = data["states"][state]
        exact = level(a, b, c, level_index)
        out.within("level_rel", rel(summary["energy_MeV"], exact), level_tol(exact, c, job["rmax"]),
                   f"{preset} {state}: eigenvalue vs closed-form E_{level_index}")
        out.expect(summary["nodes"] == nodes, f"{preset} {state}: {summary['nodes']} nodes")
        _check_wave(out, out_dir / f"u_{state}.csv", job["step"], n_points, nodes,
                    const["factor"], data["rms_fm"][state])

    rms = data["rms_fm"]
    if preset in ("deuteron", "be11"):
        out.within("pep_rms", abs(rms["pep"] - rms["deep"]), PEP_RMS_TOL,
                   f"{preset}: pep rms vs deep rms (fm)")
    if preset == "deuteron":
        transfer = data["transfer"]
        _check_ratio(out, transfer["deep"]["d0_squared_MeV2_fm3"],
                     transfer["pep"]["d0_squared_MeV2_fm3"], data["cross_section_ratio"])
        out.within("copy", rel(data["charge_radius_fm"],
                               math.sqrt(0.5 * 0.88**2 + 0.25 * rms["deep"] ** 2)),
                   COPY_REL_TOL, "charge radius vs its closed form")
    if preset == "be11":
        w = 10.0
        out.within("copy", rel(data["matter_radius_fm"], math.sqrt(
            w / (w + 1) * 2.3**2 + w / (w + 1) ** 2 * rms["deep"] ** 2)),
            COPY_REL_TOL, "matter radius vs its closed form")
    if job["sweep"] is not None:
        _check_phase_set(out, out_dir, job["sweep"], level_count(a))
    return out


CHECKS = {
    "phase": check_phase,
    "spectrum": check_spectrum,
    "partner": check_partner,
    "transfer-ratio": check_transfer_ratio,
    "fit": check_fit,
    "report": check_report,
}


def check_job(job, out_dir) -> Outcome:
    """Check one finished job's output directory; never raises."""
    try:
        return CHECKS[job["command"]](job, Path(out_dir))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        out = Outcome()
        out.expect(False, f"unreadable output: {type(exc).__name__}: {exc}")
        return out
