"""Pure-Python Numerov sweep; mirror of the compiled kernel.

Kept algorithmically identical to ``_numerov_cy`` so either backend may
serve the solver. The one recurrence solves u'' = f(r) u on a uniform mesh:

    u[i+1] = (2 u[i] (1 + 5 T_i) - u[i-1] (1 - T_{i-1})) / (1 - T_{i+1}),
    T_i = h^2 f_i / 12.

The sweep rescales the computed prefix whenever |u| exceeds ``GUARD`` and
reports the accumulated log-scale (true_u = returned_u * exp(log_scale)),
so deeply classically-forbidden integrations never overflow. Inward sweeps
are this sweep on the reversed mesh (``_kernels.sweep_inward``).

``sweep_outward_batch`` runs the outward recurrence for many energies at
once with numpy, one radial row at a time across all energies: a few ufunc
calls per row whatever the number of energies, which is what a
phase-shift curve needs from the interpreted backend.
"""
import math

import numpy as np

GUARD = 1e250
_SHRINK = 1e-250
_BLOCK = 64   # radial rows per coefficient block in sweep_outward_batch


def sweep_outward(f, h, u0, u1, stop):
    """Integrate u'' = f u from index 0 up to ``stop`` inclusive, 1 <= stop < len(f).

    Returns (u, log_scale) with u of length stop + 1.
    """
    fa = np.asarray(f, dtype=float)
    if not 1 <= stop < len(fa):
        raise ValueError(f"stop {stop} out of range for {len(fa)} points")
    t = h * h / 12.0
    a = (1.0 - t * fa[:stop + 1]).tolist()      # (1 - T_i)
    b = (2.0 + 10.0 * t * fa[:stop]).tolist()   # 2 (1 + 5 T_i)
    u = [u0, u1]
    append = u.append
    prev, cur = u0, u1
    log_scale = 0.0
    guard, neg_guard = GUARD, -GUARD    # locals: no global lookup per step
    # step i: a_prev = a[i - 1], b_cur = b[i], a_next = a[i + 1], for i = 1 .. stop - 1
    for a_prev, b_cur, a_next in zip(a, b[1:], a[2:]):
        nxt = (b_cur * cur - a_prev * prev) / a_next
        if nxt > guard or nxt < neg_guard:   # never true for nan
            u[:] = [x * _SHRINK for x in u]
            prev, cur, nxt = prev * _SHRINK, cur * _SHRINK, nxt * _SHRINK
            log_scale += -math.log(_SHRINK)
        append(nxt)
        prev, cur = cur, nxt
    return np.array(u), log_scale


def sweep_outward_batch(v, energies, c, h, u0, u1, mid):
    """Outward sweeps of u'' = f u, f = (v - E) / c, for every E in ``energies``.

    Each column performs exactly the arithmetic of ``sweep_outward`` on
    f = (v - E) / c with stop = mid + 1 (mid >= 1), so its values are
    bit-identical to a scalar sweep. The coefficients are built ``_BLOCK``
    radial points at a time and only the current block of u is held, so
    memory stays O(_BLOCK * len(energies)) whatever the grid length.

    Returns (rows, log_scale): rows[k] holds u[mid - 1 + k] for k = 0, 1, 2
    with shape (3, len(energies)); log_scale is per energy.
    """
    v = np.asarray(v, dtype=float)
    e = np.asarray(energies, dtype=float)
    t = h * h / 12.0
    log_scale = np.zeros(e.shape)
    u = np.empty((_BLOCK + 2, e.size))   # u[k] holds grid index lo - 1 + k
    u[0], u[1] = u0, u1
    n = 0
    for lo in range(1, mid + 1, _BLOCK):
        u[:2] = u[n:n + 2]              # carry the last two rows over
        n = min(_BLOCK, mid + 1 - lo)    # rows lo + 1 .. lo + n are computed
        f = (v[lo - 1:lo + n + 1, None] - e) / c
        a = 1.0 - t * f
        b = 2.0 + 10.0 * t * f
        start = u[:2].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            _recur(u, a, b, n, None)
        if not np.abs(u[:n + 2]).max() <= GUARD:
            # some |u| passed GUARD (or is not finite): redo this block
            # checking every row, as the scalar sweep does
            u[:2] = start
            _recur(u, a, b, n, log_scale)
    return u[n - 1:n + 2].copy(), log_scale


def _recur(u, a, b, n, log_scale):
    """u[k + 2] = (b[k + 1] u[k + 1] - a[k] u[k]) / a[k + 2] for k < n.

    With ``log_scale`` given, columns whose new value passes GUARD are
    rescaled by _SHRINK together with their earlier rows.
    """
    rows, a, b = list(u), list(a), list(b)   # row views, indexed cheaply
    tmp = np.empty(u.shape[1])
    for k in range(n):
        nxt = rows[k + 2]
        np.multiply(b[k + 1], rows[k + 1], out=nxt)
        np.multiply(a[k], rows[k], out=tmp)
        np.subtract(nxt, tmp, out=nxt)
        np.divide(nxt, a[k + 2], out=nxt)
        if log_scale is not None:
            big = (nxt > GUARD) | (nxt < -GUARD)
            if big.any():
                u[:k + 3, big] *= _SHRINK
                log_scale[big] += -math.log(_SHRINK)
