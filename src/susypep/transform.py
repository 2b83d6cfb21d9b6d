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

The same two steps map states as well as potentials (``partner_states``):
a bound state psi of the source at energy E goes to the V2 state
phi2 = psi' - y0 psi and the V3 state phi3 = psi - u0 J / I, with
y0 = u0'/u0 and J(r) = int_0^r u0 psi, both at E. I and J come from one
Euler-Maclaurin-corrected cumulative trapezoid.

Near the origin the transformed potentials follow an exact c_sing/r^2 law
(l_eff grows by 1 for V2 and by 2 for V3); the first three mesh points are
represented as that law plus a quadratically extrapolated smooth
remainder, which avoids the cancellation-dominated region where I ~ r^3.
The partner states' first points follow r^(p+1) and r^(p+2) times a
smooth factor in the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import BoundState, ChannelConstants, RadialGrid, check_index
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


def _smooth_start(smooth: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The first mesh points of ``smooth``, from the parabola through the next ones."""
    k0, k1 = _N_REPLACED, _N_REPLACED + _N_FIT
    return np.polyval(np.polyfit(r[k0:k1], smooth[k0:k1], 2), r[:k0])


def _with_origin_law(v: np.ndarray, c_sing: float, c: float, grid: RadialGrid) -> np.ndarray:
    """Replace the first mesh points by the exact singular law + smooth remainder."""
    r = grid.r[:_N_REPLACED + _N_FIT]
    law = c_sing * c / r ** 2
    out = v.copy()
    out[:_N_REPLACED] = law[:_N_REPLACED] + _smooth_start(v[:r.size] - law, r)
    return out


def _with_origin_power(u: np.ndarray, q: float, grid: RadialGrid) -> np.ndarray:
    """Replace the first mesh points of a state by r^q times a smooth factor."""
    r = grid.r[:_N_REPLACED + _N_FIT]
    law = r ** q
    out = u.copy()
    out[:_N_REPLACED] = law[:_N_REPLACED] * _smooth_start(u[:r.size] / law, r)
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


def _cumulative_integral(g: np.ndarray, g_prime: np.ndarray, p_source: float,
                         grid: RadialGrid) -> np.ndarray:
    """int_0^r g, Euler-Maclaurin-corrected cumulative trapezoid of g = u v with g' given.

    u and v are states of the source, so g ~ r^(2p) below r_1.
    """
    h = grid.step
    core = np.concatenate([[0.0], np.cumsum(0.5 * h * (g[1:] + g[:-1]))])
    sliver = g[0] * grid.r[0] / (2.0 * p_source + 1.0)
    return sliver + core - (h * h / 12.0) * (g_prime - g_prime[0])


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
    cum = _cumulative_integral(dens, 2.0 * dens * y, p, g)
    ratio = dens / cum
    # (ln I)'' = 2 u u'/I - (u^2/I)^2, with u' = y u
    ln_cum_dd = 2.0 * dens * y / cum - ratio * ratio
    return (_partner(source, -v1 + 2.0 * ground.energy + 2.0 * c * y * y, p, 1.0, c, g),
            _partner(source, v1 - 2.0 * c * ln_cum_dd, p, 2.0, c, g))


def partner_states(
    source: PotentialModel, ground: BoundState, state: BoundState, channel: ChannelConstants
) -> tuple[BoundState, BoundState]:
    """(V2, V3) states at ``state``'s energy, intertwined from a bound state of the source.

    ``ground`` is the removed nodeless state u0 (y0 = u0'/u0, I as in
    :func:`build_partners`) and ``state`` a higher bound state psi of the
    source on the same grid. V2's state is phi2 = psi' - y0 psi, V3's is
    phi3 = psi - u0 J / I with J(r) = int_0^r u0 psi; phi3 keeps psi's norm
    and tail. No eigenvalue search runs. phi2 ~ r^(p+1) and phi3 ~ r^(p+2)
    are differences of O(r^p) terms near the origin, so their first mesh
    points follow those laws, as the partner potentials' do.
    """
    if state.grid != ground.grid or not state.energy > ground.energy:
        raise DomainError("the state to map must lie above the removed ground state, "
                          "on the same grid")
    v1, c, p, y0 = _resolve_source(source, ground, channel)
    g = ground.grid
    psi, u0 = state.u, ground.u
    y = log_derivative(psi, (v1 - state.energy) / c, p, g, -state.kappa)
    dens, cross = u0 * u0, u0 * psi
    cum = _cumulative_integral(dens, 2.0 * dens * y0, p, g)
    overlap = _cumulative_integral(cross, cross * (y0 + y), p, g)
    phi2 = _with_origin_power(psi * (y - y0), p + 1.0, g)
    phi3 = _with_origin_power(psi - u0 * (overlap / cum), p + 2.0, g)
    return (BoundState.from_profile(phi2, state.energy, c, g),
            BoundState.from_profile(phi3, state.energy, c, g))


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
    check_index(k, "number of removals")
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
