"""Two-step supersymmetric removal of the lowest bound state.

Step one builds the intermediate potential

    V2 = V1 - 2 c (d^2/dr^2) ln u0 = -V1 + 2 E0 + 2 c (u0'/u0)^2,

which drops the ground state at E0 but changes the phase shifts. Step two
builds the phase-equivalent partner from the integral form

    V3 = V1 - 2 c (d^2/dr^2) ln I,    I(r) = int_0^r u0^2 dr',

using the analytic identity (ln I)'' = 2 u0 u0'/I - (u0^2/I)^2 so that no
second numerical derivative is ever taken. ``build_partners`` builds V2
and V3 together from one sampling of V1 and one u0'/u0. The equivalent
route through the regular solution of V2 at E0
(``build_pep_via_intermediate``) is kept as an independent cross-check of
the production path.

Near the origin the transformed potentials follow an exact c_sing/r^2 law
(l_eff grows by 1 for V2 and by 2 for V3); the first three mesh points are
represented as that law plus a quadratically extrapolated smooth
remainder, which avoids the cancellation-dominated region where I ~ r^3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import BoundState, ChannelConstants, RadialGrid
from .potentials import PotentialModel, Tabulated
from .solver import (
    count_bound_states,
    log_derivative,
    origin_power,
    resolve,
    solve_at_energy,
    solve_bound_state,
)

_N_REPLACED = 3       # leading mesh points represented by the singular law
_N_FIT = 3            # points of the parabola for the smooth remainder


@dataclass(frozen=True)
class SusyTransformRecord:
    """One transformed potential and the state its source lost."""

    ground: BoundState            # the removed lowest state of the source
    result: Tabulated


def _with_origin_law(v: np.ndarray, c_sing: float, c: float, grid: RadialGrid) -> np.ndarray:
    """Replace the first mesh points by the exact singular law + smooth remainder."""
    r = grid.r
    k0, k1 = _N_REPLACED, _N_REPLACED + _N_FIT
    smooth = v[k0:k1] - c_sing * c / r[k0:k1] ** 2
    coeffs = np.polyfit(r[k0:k1], smooth, 2)
    out = v.copy()
    out[:k0] = c_sing * c / r[:k0] ** 2 + np.polyval(coeffs, r[:k0])
    return out


def _resolve_source(source: PotentialModel, ground: BoundState, channel: ChannelConstants):
    """(v1, c, p, y): the source on the ground state's grid and y = u0'/u0 there.

    The ground state must be the nodeless lowest state: the log-derivative
    construction divides by it. Once the source potential has decayed to
    numerical irrelevance, y is pinned to its exact asymptote -kappa; the
    O(h^4) truncation of the discrete derivative would otherwise leave a
    constant noise floor ~h^4 kappa^5 in the transformed potentials' tails.
    """
    if ground.nodes != 0:
        raise DomainError(
            f"state to remove has {ground.nodes} interior nodes; the log-derivative "
            "construction needs the nodeless lowest state"
        )
    v1, c, p, _ = resolve(source, channel, ground.grid)
    y = log_derivative(ground.u, (v1 - ground.energy) / c, p, ground.grid, -ground.kappa)
    threshold = 1e-12 * max(1.0, float(np.max(np.abs(v1))))
    alive = np.nonzero(np.abs(v1) >= threshold)[0]
    if alive.size and alive[-1] + 1 < y.size:
        y[alive[-1] + 1:] = -ground.kappa
    return v1, c, p, y


def _partner(source: PotentialModel, values: np.ndarray, p: float, shift: float, c: float,
             grid: RadialGrid) -> Tabulated:
    """``values`` as the partner of ``source``: the source's levels minus the lowest.

    Its l_eff is the source's plus ``shift``, so its origin law is
    c_sing c / r^2 with c_sing = l_eff (l_eff + 1).
    """
    ell = p - 1.0
    c_sing = (ell + shift) * (ell + (shift + 1.0))
    return Tabulated(grid=grid, values=_with_origin_law(values, c_sing, c, grid),
                     singular_coefficient=c_sing, hbar2_over_2mu=c, levels=source.levels[1:])


def _cumulative_norm(dens: np.ndarray, y: np.ndarray, p_source: float,
                     grid: RadialGrid) -> np.ndarray:
    """I(r) = int_0^r u0^2, Euler-Maclaurin-corrected cumulative trapezoid of ``dens``."""
    h = grid.step
    dens_prime = 2.0 * dens * y
    core = np.concatenate([[0.0], np.cumsum(0.5 * h * (dens[1:] + dens[:-1]))])
    sliver = dens[0] * grid.r[0] / (2.0 * p_source + 1.0)   # u ~ r^p below r_1
    return sliver + core - (h * h / 12.0) * (dens_prime - dens_prime[0])


def build_partners(
    source: PotentialModel, ground: BoundState, channel: ChannelConstants
) -> tuple[Tabulated, Tabulated]:
    """(V2, V3): the source's spectrum minus its nodeless ground state ``ground``.

    V2 is the one-step partner; V3 is the phase-equivalent partner from the
    integral form (the production path).
    """
    v1, c, p, y = _resolve_source(source, ground, channel)
    g = ground.grid
    dens = ground.u * ground.u
    cum = _cumulative_norm(dens, y, p, g)
    ratio = dens / cum
    # (ln I)'' = 2 u u'/I - (u^2/I)^2, with u' = y u
    ln_cum_dd = 2.0 * dens * y / cum - ratio * ratio
    return (_partner(source, -v1 + 2.0 * ground.energy + 2.0 * c * y * y, p, 1.0, c, g),
            _partner(source, v1 - 2.0 * c * ln_cum_dd, p, 2.0, c, g))


def build_pep_via_intermediate(
    source: PotentialModel,
    ground: BoundState,
    channel: ChannelConstants,
    intermediate: Tabulated,
) -> Tabulated:
    """Phase-equivalent partner through the regular solution of V2 at E0.

    ``intermediate`` is V2 from :func:`build_partners`. Independent of that
    function's integral route to V3; the two must agree pointwise, which the
    test suite enforces as a cross-check oracle.
    Uses V3 = V1 + 2 c (y2^2 - y1^2) with y_i the log-derivatives of the
    source ground state and of the V2 regular solution at the removed energy.
    """
    v1, c, p, y1 = _resolve_source(source, ground, channel)
    g = ground.grid
    psi2 = solve_at_energy(intermediate, channel, ground.energy, grid=g)
    y2 = log_derivative(psi2, (intermediate.values - ground.energy) / c,
                        origin_power(intermediate), g, ground.kappa)
    return _partner(source, v1 + 2.0 * c * (y2 * y2 - y1 * y1), p, 2.0, c, g)


def remove_lowest(
    source: PotentialModel,
    channel: ChannelConstants,
    grid: RadialGrid | None = None,
) -> tuple[SusyTransformRecord, SusyTransformRecord]:
    """Solve the lowest state of ``source`` and build its (V2, V3) partner records."""
    ground = solve_bound_state(source, channel, target_nodes=0, grid=grid)
    v2, v3 = build_partners(source, ground, channel)
    return SusyTransformRecord(ground, v2), SusyTransformRecord(ground, v3)


def iterate_removals(
    source: PotentialModel,
    channel: ChannelConstants,
    k: int,
    grid: RadialGrid | None = None,
) -> list[SusyTransformRecord]:
    """Remove the k lowest states, two records (V2, V3) per removal."""
    if k < 0:
        raise DomainError(f"number of removals must be >= 0, got {k}")
    if k == 0:
        return []
    available = count_bound_states(source, channel, grid=grid)
    if k > available:
        raise DomainError(
            f"cannot remove {k} states: potential has only {available} bound state(s)"
        )
    records: list[SusyTransformRecord] = []
    current: PotentialModel = source
    for _ in range(k):
        rec2, rec3 = remove_lowest(current, channel, grid=grid)
        records.extend([rec2, rec3])
        current = rec3.result
    return records
