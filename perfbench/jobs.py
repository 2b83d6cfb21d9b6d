"""Seeded job generator for the three benchmark workloads.

A job is a plain dict: the ``susypep`` argv (without ``--out``), the grid,
the energy sweep and, for custom fits, the config file contents. The
program sees only the argv and the config file.

Each workload is an endless sequence of *cycles*. A cycle has a fixed cost
structure (which commands, which grids, how many energies per slot); the
seed only chooses the inputs inside it (energy windows, custom fit targets,
which preset fills which slot, job order). Runs stop at cycle boundaries,
so every run measures the same mix and its medians and tail do not depend
on where the clock ran out.
"""
from __future__ import annotations

import random

WORKLOADS = ("phase-scan", "bound-chain", "halo-report")
PRESETS = ("deuteron", "be11", "alpha")

DEFAULT_STEP = 0.01     # fm, the CLI default grid
DEFAULT_RMAX = 35.0     # fm

# phase-scan: six slots per cycle, two per preset; base energy counts.
PHASE_COUNTS = (50, 80, 110, 140, 170, 200)
PHASE_EMAX = 30.0       # MeV, top of the scanned window
PHASE_MAX_ESTEP = 0.15  # MeV; keeps successive samples well under pi/2 apart

# halo-report: the grids ROADMAP item 4a needs for halo convergence.
HALO_GRIDS = tuple((step, rmax) for step in (0.01, 0.005) for rmax in (35.0, 60.0, 100.0))
HALO_ENERGIES = 20

# bound-chain custom fit: two-node states that fit on the default grid.
FIT_HBAR2_2MU = 10.375
FIT_ENERGY = (-3.5, -1.5)   # MeV
FIT_RMS = (3.8, 4.6)        # fm
# Fit cost depends on the targets, so each run of six cycles or more draws
# them from every one of FIT_STRATA equal bins of both ranges.
FIT_STRATA = 6


def _job(command, preset=None, step=DEFAULT_STEP, rmax=DEFAULT_RMAX, sweep=None,
         removals=None, config=None, fmt=None):
    argv = [command]
    argv += ["--config", "{config}"] if config is not None else ["--preset", preset]
    if (step, rmax) != (DEFAULT_STEP, DEFAULT_RMAX):
        argv += ["--step", repr(step), "--rmax", repr(rmax)]
    if sweep is not None:
        argv += ["--emin", repr(sweep[0]), "--emax", repr(sweep[1]), "--estep", repr(sweep[2])]
    if removals is not None:
        argv += ["--removals", str(removals)]
    if fmt is not None:
        argv += ["--format", fmt]
    return {
        "command": command,
        "preset": preset,
        "config": config,
        "step": step,
        "rmax": rmax,
        "sweep": sweep,
        "removals": removals,
        "argv": argv,
    }


def _sweep(rng, count, emin_range, max_estep):
    emin = round(rng.uniform(*emin_range), 3)
    estep = round(rng.uniform(0.05, max_estep), 4)
    return (emin, round(emin + count * estep, 4), estep)


def _phase_cycle(rng, index):
    presets = list(PRESETS * 2)
    rng.shuffle(presets)
    jobs = []
    for preset, base in zip(presets, PHASE_COUNTS):
        count = base + rng.randint(0, 4)
        max_estep = min(PHASE_MAX_ESTEP, (PHASE_EMAX - 0.2) / count)
        jobs.append(_job("phase", preset, sweep=_sweep(rng, count, (0.05, 0.2), max_estep)))
    return jobs


def _stratified(rng, stratum, bounds):
    lo, hi = bounds
    return round(lo + (stratum + rng.random()) * (hi - lo) / FIT_STRATA, 4)


def _bound_cycle(rng, index, strata):
    energy_bin, rms_bin = strata[index % FIT_STRATA]
    energy = _stratified(rng, energy_bin, FIT_ENERGY)
    rms = _stratified(rng, rms_bin, FIT_RMS)
    config = {
        "name": f"custom{index}",
        "hbar2_over_2mu": FIT_HBAR2_2MU,
        "target_energy": energy,
        "target_rms": rms,
        "nodes": 2,
        "coordinate_factor": "unit",
    }
    jobs = [_job("spectrum", p, fmt="json") for p in PRESETS]
    jobs += [_job("partner", "alpha", removals=k, fmt="json") for k in (1, 2, 3)]
    jobs += [_job("partner", p, removals=1, fmt="json") for p in ("deuteron", "be11")]
    jobs += [_job("transfer-ratio", "deuteron", fmt="json")]
    jobs += [_job("fit", config=config, fmt="json")]
    return jobs


def _halo_cycle(rng, index, offset):
    jobs = []
    for slot, (step, rmax) in enumerate(HALO_GRIDS):
        preset = PRESETS[(slot + index + offset) % len(PRESETS)]
        sweep = _sweep(rng, HALO_ENERGIES, (0.1, 0.5), 0.6)
        jobs.append(_job("report", preset, step=step, rmax=rmax, sweep=sweep))
    return jobs


def cycles(workload: str, seed: int):
    """Endless iterator over the workload's cycles; equal seeds, equal jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    offset = rng.randrange(len(PRESETS))
    index = 0
    while True:
        if workload == "phase-scan":
            jobs = _phase_cycle(rng, index)
        elif workload == "bound-chain":
            if index % FIT_STRATA == 0:
                bins = range(FIT_STRATA)
                strata = list(zip(rng.sample(bins, FIT_STRATA), rng.sample(bins, FIT_STRATA)))
            jobs = _bound_cycle(rng, index, strata)
        else:
            jobs = _halo_cycle(rng, index, offset)
        rng.shuffle(jobs)
        for pos, job in enumerate(jobs):
            job["id"] = f"c{index}j{pos}"
        yield jobs
        index += 1


def warmup_job(workload: str) -> dict:
    """Fixed small job of the workload's own kind, used to time set-up."""
    if workload == "phase-scan":
        return _job("phase", "deuteron", sweep=(0.1, 2.0, 0.1))
    if workload == "bound-chain":
        return _job("spectrum", "deuteron", fmt="json")
    return _job("report", "deuteron", sweep=(0.5, 2.5, 0.5))


def config_text(config: dict) -> str:
    """The key=value file ``susypep --config`` reads."""
    return "".join(f"{key} = {value}\n" for key, value in config.items())
