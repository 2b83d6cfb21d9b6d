"""Radial bound-state eigensolver and fixed-energy regular solutions.

Only integration and the eigenvalue search live here: ``BoundState`` and its
finishing step are in ``grids``, the sech^2 closed forms in ``potentials``.

The radial equation is integrated as u'' = f(r) u with
f = (V - E) / (hbar^2/2mu) using Numerov sweeps (``_kernels``, called from here alone).
Eigenvalues are found in two stages. The search starts from a bracket that
holds only the requested state. Where the potential knows that level
(``levels``: closed form for sech^2, the source's spectrum minus the
removed level for a SUSY partner) the bracket is centred on it, and two
node-count probes at its ends confirm it; otherwise, or when they do not,
bisection on the interior node count of the outward sweep narrows the
bracket from the sampled depth until it isolates the state. Cooley's energy
correction, from an outward sweep and a Dirichlet inward sweep matched at
the outermost classical turning point, then converges quadratically to
that eigenvalue of the r_max-truncated problem, from the known level in
two corrections. A correction that leaves the bracket is replaced by one
more bisection step. The final state is assembled from the same matched
pair, with the inward sweep seeded by the exp(-kappa r) tail.

Near the origin every sweep is started from the Frobenius series
u = r^p (1 + a2 r^2 + a4 r^4), p = 1 + l_eff, which keeps the start error
below the integrator's own O(h^4); this is what makes the singular
transformed potentials (p = 2, 3, ...) solvable without special cases.
"""
from __future__ import annotations

import logging
import math

import numpy as np

from . import _kernels
from .errors import BracketError, ConvergenceError, DomainError
from .grids import (BoundState, ChannelConstants, RadialGrid, check_index, count_nodes,
                    default_grid, frozen)
from .potentials import PotentialModel, Tabulated, values_on_grid

log = logging.getLogger(__name__)

ENERGY_TOL = 1e-8           # MeV, last correction or bracket width at termination
MAX_BISECTIONS = 300        # bisection and correction steps together


def origin_power(potential: PotentialModel) -> float:
    """Exponent p of the regular solution, p = 1 + l_eff."""
    return 1.0 + 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * potential.singular_coefficient))


def resolve(
    potential: PotentialModel, channel: ChannelConstants, grid: RadialGrid | None = None
) -> tuple[np.ndarray, float, float, RadialGrid]:
    """(v, c, p, grid): the potential sampled on its grid, in its channel.

    The one place a potential meets a channel and a mesh. Raises
    DomainError when the potential's own hbar2_over_2mu is not the
    channel's. The grid is the given one, else a ``Tabulated``'s own, else
    :func:`default_grid`; a ``Tabulated`` off its own grid is rejected by
    ``values_on_grid``. c is hbar^2/2mu and p the origin power.
    """
    c = channel.hbar2_over_2mu
    if not math.isclose(potential.hbar2_over_2mu, c, rel_tol=1e-12):
        raise DomainError(
            f"potential carries hbar2_over_2mu={potential.hbar2_over_2mu} but channel has {c}"
        )
    if grid is None:
        grid = potential.grid if isinstance(potential, Tabulated) else default_grid()
    return values_on_grid(potential, grid), c, origin_power(potential), grid


def _series_coefficients(f: np.ndarray, p: float, grid: RadialGrid):
    """Frobenius coefficients (a2, a4) from the smooth part of f near r=0."""
    r1, r2 = grid.r[0], grid.r[1]
    ell = p - 1.0
    cent = ell * (ell + 1.0)
    fs1 = f[0] - cent / r1**2
    fs2 = f[1] - cent / r2**2
    f2 = (fs2 - fs1) / (r2**2 - r1**2)
    f0 = fs1 - f2 * r1**2
    a2 = f0 / (4.0 * p + 2.0)
    a4 = (f2 + f0 * a2) / (8.0 * p + 12.0)
    return a2, a4


def _series_start(f: np.ndarray, p: float, grid: RadialGrid):
    """(u_1, u_2) of the origin series; DomainError when either is zero or not finite."""
    a2, a4 = _series_coefficients(f, p, grid)
    r1, r2 = grid.r[0], grid.r[1]
    u1 = r1**p * (1.0 + a2 * r1**2 + a4 * r1**4)
    u2 = r2**p * (1.0 + a2 * r2**2 + a4 * r2**4)
    starts = np.abs([u1, u2])
    if not np.all((starts > 0.0) & (starts < math.inf)):   # r^p underflows for large p
        raise DomainError(f"the origin series r^{p:.6g} (1 + a2 r^2 + a4 r^4) is zero or not "
                          f"finite on the first points of a {grid.step} fm mesh")
    return u1, u2


def _numerov_derivative(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """u' at the interior points of a Numerov solution of u'' = f u, to O(h^4).

    u'_i = [u_{i+1}(1 - 2T_{i+1}) - u_{i-1}(1 - 2T_{i-1})] / (2h) with
    T = h^2 f / 12, along the first axis of ``u`` and ``f``.
    """
    w = u * (1.0 - 2.0 * (h * h / 12.0) * f)
    return (w[2:] - w[:-2]) / (2.0 * h)


def log_derivative(
    u: np.ndarray, f: np.ndarray, p: float, grid: RadialGrid, y_right: float
) -> np.ndarray:
    """u'/u of a Numerov solution u of u'' = f u, to O(h^4).

    Interior points use :func:`_numerov_derivative`. The first point takes
    the log-derivative of the origin series r^p (1 + a2 r^2 + a4 r^4), the
    last one ``y_right`` (the asymptotic -kappa for a bound state).
    """
    du = np.empty_like(u)
    du[1:-1] = _numerov_derivative(u, f, grid.step)
    a2, a4 = _series_coefficients(f, p, grid)
    r1 = grid.r[0]
    y_left = (p + (p + 2.0) * a2 * r1**2 + (p + 4.0) * a4 * r1**4) / (
        r1 * (1.0 + a2 * r1**2 + a4 * r1**4))
    du[0] = y_left * u[0]
    du[-1] = y_right * u[-1]
    return du / u


def _known_level_bracket(potential: PotentialModel, n: int) -> tuple[float, float] | None:
    """(E_n - w, E_n + w) around the known level n, or None when it is not known.

    w is half the distance to the nearest neighbouring level, or to
    threshold for the top level, so the bracket holds level n alone and its
    midpoint is the known level.
    """
    levels = potential.levels
    if n >= len(levels):
        return None
    above = levels[n + 1] if n + 1 < len(levels) else 0.0
    below = levels[n - 1] if n > 0 else -math.inf
    half = 0.5 * min(above - levels[n], levels[n] - below)
    return (levels[n] - half, levels[n] + half)


def outward_node_count(f: np.ndarray, p: float, grid: RadialGrid) -> int:
    """Interior nodes of the regular solution of u'' = f u, swept over the whole grid."""
    u1, u2 = _series_start(f, p, grid)
    u, _ = _kernels.sweep_outward(f, grid.step, u1, u2, grid.n_points - 1)
    return count_nodes(u)


def regular_values_at(v: np.ndarray, energies: np.ndarray, c: float, p: float,
                      grid: RadialGrid, index: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, u') of the regular solutions of u'' = (v - E) / c u at mesh ``index``, per E.

    u' is :func:`_numerov_derivative`. The energies share one batched sweep,
    bit-identical per energy to the scalar sweep.
    """
    u0, u1 = _series_start((v[:2, None] - energies) / c, p, grid)
    rows, _ = _kernels.sweep_outward_batch(v, energies, c, grid.step, u0, u1, index)
    f = (v[index - 1:index + 2, None] - energies) / c
    return rows[1], _numerov_derivative(rows, f, grid.step)[0]


def _matched_pieces(f: np.ndarray, p: float, grid: RadialGrid, u_last: float,
                    u_second_last: float):
    """Outward and inward sweeps that meet at the outermost classical turning point m.

    The outward sweep starts from the origin series and runs to m + 1; the
    inward one starts from (u_last, u_second_last) at r_max and runs down
    to m - 1. Returns (m, uo, ui) with uo[i] = u_i for i <= m + 1 and
    ui[j] = u_{m-1+j}, each at its own sweep's scale, or None when either
    sweep vanishes at m.
    """
    n = grid.n_points
    allowed = np.nonzero(f < 0.0)[0]
    m = int(allowed[-1]) if allowed.size else n // 2
    m = min(max(m, 2), n - 3)
    u1, u2 = _series_start(f, p, grid)
    uo, _ = _kernels.sweep_outward(f, grid.step, u1, u2, m + 1)
    ui, _ = _kernels.sweep_inward(f, grid.step, u_last, u_second_last, m - 1)
    if ui[1] == 0.0 or uo[m] == 0.0:
        return None
    return m, uo, ui


def _cooley_energy(v: np.ndarray, energy: float, c: float, p: float, grid: RadialGrid) -> float:
    """``energy`` after one Cooley correction (Math. Comp. 15, 363 (1961)).

    The pieces come from :func:`_matched_pieces` with the Dirichlet seed
    u(r_max) = 0, so the correction converges to the eigenvalue of the
    r_max-truncated problem, the energy where the outward node count steps.
    With Y = (1 - h^2 f / 12) u and u_m = 1 the Numerov mismatch at m is
    D = (Y_{m-1} - 2 Y_m + Y_{m+1}) / h^2 - f_m, and Cooley's Newton step
    is dE = -c D / sum(u^2). It is applied to kappa = sqrt(-E / c), as
    dkappa = D / (2 kappa sum(u^2)): E is far from linear in the mismatch
    near threshold, and the step taken in E from a wide bracket's midpoint
    overshoots into the continuum. Returns nan when a piece vanishes at m
    (or is so small there that sum(u^2) overflows), or when the step
    would make kappa negative.
    """
    f = (v - energy) / c
    pieces = _matched_pieces(f, p, grid, 0.0, 1.0)
    if pieces is None:
        return math.nan
    m, uo, ui = pieces
    uo, ui = uo / uo[m], ui / ui[1]
    h = grid.step
    y = (1.0 - h * h / 12.0 * f[m - 1:m + 2]) * np.array([uo[m - 1], 1.0, ui[2]])
    mismatch = (y[0] - 2.0 * y[1] + y[2]) / (h * h) - f[m]
    norm = np.dot(uo[:m + 1], uo[:m + 1]) + np.dot(ui[2:], ui[2:])
    if not norm < math.inf:
        return math.nan
    kappa = math.sqrt(-energy / c)
    kappa_new = kappa + mismatch / (2.0 * kappa * norm)
    return -c * kappa_new**2 if kappa_new > 0.0 else math.nan


def solve_bound_state(
    potential: PotentialModel,
    channel: ChannelConstants,
    target_nodes: int,
    grid: RadialGrid | None = None,
) -> BoundState:
    """Find the bound state with the requested interior node count.

    The interior node count of the outward sweep steps by one exactly at
    each eigenvalue of the r_max-truncated problem. A level the potential
    knows (``potential.levels``) is bracketed symmetrically, out to half the
    distance to its nearest neighbouring level (or to threshold for the top
    level). When the level is not known, or the node counts at the ends are
    not target and target + 1, the search starts from the bracket from the
    sampled depth, (-1.05 max(0, -min V), -1e-6) MeV. Bisection on that count
    runs only until the bracket holds the requested state alone (counts
    target and target + 1 at its ends). Cooley corrections from the bracket
    midpoint, the known level if there is one, then converge to the
    eigenvalue; one that leaves the bracket is replaced by a bisection step.
    The search stops when a correction moves the energy by less than
    ENERGY_TOL or the bracket is narrower than that, and raises
    ConvergenceError after MAX_BISECTIONS steps. The returned state is
    assembled from matched outward/inward sweeps and normalized.
    """
    check_index(target_nodes, "target_nodes")
    v, c, p, g = resolve(potential, channel, grid)
    h = g.step

    def end_counts(bracket):
        return tuple(outward_node_count((v - e) / c, p, g) for e in bracket)

    bracket = _known_level_bracket(potential, target_nodes)
    if bracket is not None:
        counts = end_counts(bracket)
        if counts != (target_nodes, target_nodes + 1):
            bracket = None    # the level is not where it was said to be: widen
    if bracket is None:
        bracket = (-1.05 * max(0.0, -float(np.min(v))), -1e-6)
        counts = end_counts(bracket)
    (elo, ehi), (count_lo, count_hi) = bracket, counts
    if not (count_lo <= target_nodes < count_hi):
        raise BracketError(
            f"bracket ({elo:.6g}, {ehi:.6g}) MeV does not straddle the n={target_nodes} "
            f"state: node counts at ends are {count_lo} and {count_hi}"
        )

    energy = None   # latest accepted Cooley iterate
    for _ in range(MAX_BISECTIONS):
        em = 0.5 * (elo + ehi)
        if em == elo or em == ehi or (ehi - elo) < ENERGY_TOL:
            energy = em
            break
        if count_lo == target_nodes and count_hi == target_nodes + 1:
            start = em if energy is None else energy
            corrected = _cooley_energy(v, start, c, p, g)
            if elo < corrected < ehi:
                energy = corrected
                if abs(corrected - start) < ENERGY_TOL:
                    break
                continue
        count = outward_node_count((v - em) / c, p, g)
        if count > target_nodes:
            ehi, count_hi = em, count
        else:
            elo, count_lo = em, count
        energy = None
    else:
        raise ConvergenceError(
            f"eigenvalue search did not reach {ENERGY_TOL} MeV within {MAX_BISECTIONS} steps"
        )

    f = (v - energy) / c
    kappa = math.sqrt(-energy / c)
    pieces = _matched_pieces(f, p, g, 1.0, math.exp(kappa * h))
    if pieces is None:
        raise ConvergenceError("vanishing amplitude at the matching point")
    m, uo, ui = pieces
    u = np.concatenate([uo[:m], ui[1:] * (uo[m] / ui[1])])
    state = BoundState.from_profile(u, energy, c, g)
    if state.nodes != target_nodes:
        raise ConvergenceError(
            f"matched solution has {state.nodes} nodes, expected {target_nodes} "
            f"(E={energy:.6g} MeV); refine the grid or bracket"
        )
    return state


def solve_at_energy(
    potential: PotentialModel,
    channel: ChannelConstants,
    energy: float,
    grid: RadialGrid | None = None,
) -> np.ndarray:
    """Read-only regular solution u ~ r^origin_power at a fixed energy, swept outward.

    The amplitude is fixed by u(r_1) = r_1^p unless the sweep had to rescale
    against overflow, in which case the rescaled profile is returned as-is
    (shape and log-derivatives remain valid).
    """
    if energy == 0.0 or not math.isfinite(energy):
        raise DomainError(
            f"energy must be finite and nonzero, got {energy}; "
            "use count_bound_states for the E=0 probe"
        )
    v, c, p, g = resolve(potential, channel, grid)
    f = (v - energy) / c
    u1, u2 = _series_start(f, p, g)
    u, log_scale = _kernels.sweep_outward(f, g.step, u1, u2, g.n_points - 1)
    if log_scale == 0.0:
        u = u * (g.r_min**p / u[0])
    else:
        log.warning(
            "outward sweep rescaled by exp(%.1f) to avoid overflow; "
            "returning the rescaled profile", log_scale
        )
    return frozen(u)


def count_bound_states(
    potential: PotentialModel, channel: ChannelConstants, grid: RadialGrid | None = None
) -> int:
    """Number of bound states = interior nodes of the zero-energy regular solution."""
    v, c, p, g = resolve(potential, channel, grid)
    return outward_node_count(v / c, p, g)
