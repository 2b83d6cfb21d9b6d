#!/usr/bin/env python3
"""Benchmark the compiled Numerov kernel against the pure-Python fallback.

Two views:
  * kernel microbenchmark -- raw outward sweeps on a deuteron-sized mesh,
    both implementations imported side by side;
  * end-to-end -- two bound-state solves plus a 200-point phase-shift
    curve (``phase_shift_curve``, as the CLI computes it), run in
    subprocesses so the import-time backend selection is exercised
    (SUSYPEP_PURE_PYTHON=1 forces the fallback). The solves also report
    their Numerov steps per solve in grid lengths. The fallback sweeps the
    curve's energies together in numpy; the compiled backend sweeps them
    one by one.

Usage: python benchmarks/bench_numerov.py [--quick]
"""
import argparse
import os
import subprocess
import sys
import timeit

import numpy as np

from susypep._kernels import _numerov_py

try:
    from susypep._kernels import _numerov_cy
except ImportError:
    _numerov_cy = None

N_POINTS = 3500
STEP = 0.01

_END_TO_END = r"""
import time
import numpy as np
from susypep import (ChannelConstants, SechSquared, default_grid, phase_shift_curve,
                     solve_bound_state)
from susypep import solver
from susypep._kernels import BACKEND

channel = ChannelConstants(41.47, "n-p")
potential = SechSquared(3.146, 1.587, channel.hbar2_over_2mu)
grid = default_grid()

steps = 0
def counted(sweep):
    def run(*args):
        global steps
        u, log_scale = sweep(*args)
        steps += len(u) - 2
        return u, log_scale
    return run

# the solver's sweeps only; the curve below uses the batched sweep
solver._kernels.sweep_outward = counted(solver._kernels.sweep_outward)
solver._kernels.sweep_inward = counted(solver._kernels.sweep_inward)

start = time.perf_counter()
solve_bound_state(potential, channel, target_nodes=0, grid=grid)
solve_bound_state(potential, channel, target_nodes=1, grid=grid)
t_solve = time.perf_counter() - start
lengths = steps / grid.n_points / 2.0

start = time.perf_counter()
phase_shift_curve(potential, channel, 0.1 + 0.1 * np.arange(200), grid=grid)
t_phase = time.perf_counter() - start

print(f"{BACKEND} {t_solve:.4f} {lengths:.2f} {t_phase:.4f}")
"""


def deuteron_f(energy=5.0):
    r = STEP * np.arange(1, N_POINTS + 1)
    c = 41.47
    v0 = c * 3.146 * 4.146 * 1.587**2
    v = -v0 / np.cosh(1.587 * r) ** 2
    return (v - energy) / c


def bench_kernel(module, f, repeats):
    run = lambda: module.sweep_outward(f, STEP, 0.01, 0.02, N_POINTS - 1)
    run()   # warm up
    total = timeit.timeit(run, number=repeats)
    return repeats * (N_POINTS - 1) / total / 1e6   # million recurrence steps / s


def bench_end_to_end(pure_python):
    env = dict(os.environ)
    if pure_python:
        env["SUSYPEP_PURE_PYTHON"] = "1"
    else:
        env.pop("SUSYPEP_PURE_PYTHON", None)
    out = subprocess.run(
        [sys.executable, "-c", _END_TO_END], env=env, capture_output=True, text=True,
        check=True,
    )
    backend, t_solve, lengths, t_phase = out.stdout.split()
    return backend, float(t_solve), float(lengths), float(t_phase)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer repeats")
    args = parser.parse_args()
    repeats = 30 if args.quick else 200

    f = deuteron_f()
    print(f"kernel microbenchmark: {repeats} outward sweeps of {N_POINTS} points")
    rows = [("python", bench_kernel(_numerov_py, f, max(repeats // 10, 3)))]
    if _numerov_cy is not None:
        rows.append(("cython", bench_kernel(_numerov_cy, f, repeats)))
    for name, msteps in rows:
        print(f"  {name:7s} {msteps:10.1f} Msteps/s")
    if len(rows) == 2:
        print(f"  speedup {rows[1][1] / rows[0][1]:10.1f} x")

    print("\nend-to-end (subprocess per backend): two bound solves + 200-point phase curve")
    for pure in (False, True):
        try:
            backend, t_solve, lengths, t_phase = bench_end_to_end(pure)
        except subprocess.CalledProcessError as exc:
            print(f"  run failed: {exc.stderr.strip()}")
            continue
        print(f"  {backend:7s} solves {t_solve * 1e3:8.1f} ms ({lengths:.1f} grid lengths of "
              f"Numerov steps per solve)   phase curve {t_phase * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
