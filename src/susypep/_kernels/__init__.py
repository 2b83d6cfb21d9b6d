"""Numerov sweep kernels: compiled extension with a pure-Python fallback.

The compiled module is preferred when importable; set SUSYPEP_PURE_PYTHON=1
to force the fallback in a tree or install that has the kernel built.
``BACKEND`` names the implementation actually in use. Both backends give
bit-identical results. ``susypep.solver`` is the only caller of these
sweeps; every other module gets its solutions from there.

Each backend holds one recurrence, ``sweep_outward``. ``sweep_inward`` runs
it on the reversed mesh: reversing the index gives the same arithmetic in
the same order, and the rescaled prefix of the reversed sweep is the
rescaled suffix of the inward one. The reversed mesh is a view of f with a
negative stride. The compiled sweep reads f through its byte stride, so it
sweeps that view in place; a contiguous copy would add about 5% to a
compiled sweep.

``sweep_outward_batch`` sweeps many energies at once. The fallback runs
them together in numpy, row by row, at a cost per curve of about seven
to eight scalar sweeps whatever the number of energies; shorter curves
loop over the scalar sweep instead. The compiled backend always loops
over its own scalar sweep, because one compiled sweep to the match
radius takes tens of microseconds while the numpy rows take milliseconds
per curve (28-92 us per energy against 9-23 ms per 5-200-energy curve on
0.01 fm x 35 fm and 0.005 fm x 100 fm deuteron grids, 2-vCPU Xeon VM), so
the loop is the faster of the two up to a few hundred energies per curve.
"""
import os

import numpy as np

from . import _numerov_py

if os.environ.get("SUSYPEP_PURE_PYTHON") == "1":
    _impl = _numerov_py
    BACKEND = "python"
else:
    try:
        from . import _numerov_cy as _impl
        BACKEND = "cython"
    except ImportError:
        _impl = _numerov_py
        BACKEND = "python"


sweep_outward = _impl.sweep_outward


def _reversed(outward):
    """The inward sweep as ``outward`` run on the reversed mesh.

    ``outward`` is bound here once, so an inward sweep is one kernel call
    even where a tracer wraps each backend's ``sweep_outward``.
    """
    def sweep_inward(f, h, u_last, u_second_last, stop):
        """Integrate u'' = f u from the last index down to ``stop`` inclusive.

        Returns (u, log_scale) with u[j] holding grid index stop + j.
        """
        u, log_scale = outward(f[stop:][::-1], h, u_last, u_second_last, len(f) - 1 - stop)
        return u[::-1], log_scale
    return sweep_inward


sweep_inward = _reversed(_impl.sweep_outward)

# Fewest energies for which the fallback's numpy rows beat a scalar loop:
# the two cross at 7-8 energies on 0.01 fm x 35 fm and 0.005 fm x 100 fm
# deuteron V3 grids (rows 7.5-8.0 and 15-16 ms per curve, loop 1.1 and
# 2.1 ms per energy; best of 21, 2-vCPU Xeon VM).
_MIN_BATCH = 8


def sweep_outward_batch(v, energies, c, h, u0, u1, mid):
    """Outward sweeps of u'' = (v - E) / c u for every E, stopping at mid + 1.

    Returns (rows, log_scale): rows[k] holds u[mid - 1 + k] for k = 0, 1, 2
    with shape (3, len(energies)); log_scale is per energy. Each energy's
    values are bit-identical to its own ``sweep_outward``.
    """
    if _impl is _numerov_py and len(energies) >= _MIN_BATCH:
        return _numerov_py.sweep_outward_batch(v, energies, c, h, u0, u1, mid)
    v = np.asarray(v, dtype=float)
    rows = np.empty((3, len(energies)))
    log_scale = np.empty(len(energies))
    for j, energy in enumerate(energies):
        u, log_scale[j] = _impl.sweep_outward((v - energy) / c, h, u0[j], u1[j], mid + 1)
        rows[:, j] = u[mid - 1:mid + 2]
    return rows, log_scale


__all__ = ["BACKEND", "sweep_outward", "sweep_inward", "sweep_outward_batch"]
