"""Radii, s-wave phase shifts and the zero-range transfer strength.

Phase shifts come from matching the log-derivative of the regular solution
to the free s-wave form at a radius where the potential has died off;
curves are unwrapped into a continuous branch anchored at n_bound * pi at
threshold. The transfer strength is

    D0 = sqrt(4 pi) * int_0^inf r V(r) u0(r) dr,

finite also for the singular phase-equivalent potential because u0 ~ r^3
beats the r^-2 core.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import BoundState, ChannelConstants, RadialGrid, frozen, integrate
from .potentials import PotentialModel, values_on_grid
from .solver import outward_node_count, regular_values_at, resolve

log = logging.getLogger(__name__)

DEFAULT_R_MATCH = 20.0        # fm
POTENTIAL_DEAD = 1e-6         # MeV, |V| below which the free form applies

_COORDINATE_FACTORS = {"quarter": 0.25, "unit": 1.0}


def _coordinate_factor(name: str) -> float:
    """The factor f named ``name``; DomainError unless _COORDINATE_FACTORS holds it."""
    try:
        return _COORDINATE_FACTORS[name]
    except KeyError:
        raise DomainError(
            f"coordinate_factor must be one of {sorted(_COORDINATE_FACTORS)}"
        ) from None


def _radius(state: BoundState, coordinate_factor: str) -> float:
    """:func:`rms_radius` without its grid-edge tail check."""
    g = state.grid
    return math.sqrt(_coordinate_factor(coordinate_factor) * integrate(g.r**2 * state.u**2, g))


def rms_radius(state: BoundState, coordinate_factor: str = "unit") -> float:
    """R = sqrt(f * int r^2 u^2 dr) with f = 1/4 or 1.

    The quarter factor converts the relative n-p coordinate to the
    center-of-mass frame of the two-cluster system. Logs a warning when
    the closed-form tail u(r_max) exp(-kappa (r - r_max)) beyond the grid
    would add more than 1e-4 of the r^2 u^2 integral on it.
    """
    radius = _radius(state, coordinate_factor)
    g, k = state.grid, state.kappa
    tail = state.u[-1] ** 2 * (g.r_max**2 / (2.0 * k) + g.r_max / (2.0 * k**2) + 1.0 / (4.0 * k**3))
    share = tail / integrate(g.r**2 * state.u**2, g)
    if share > 1e-4:
        log.warning(
            "rms tail truncation: the exponential tail beyond r_max would add %.3g "
            "of the r^2 u^2 integral (over 1e-4); the grid may be too short for "
            "this halo state", share
        )
    return radius


def charge_radius(r_proton: float, r_rms: float) -> float:
    """R_charge = sqrt(R_p^2 / 2 + R_rms^2 / 4)."""
    if not all(0.0 <= x < math.inf for x in (r_proton, r_rms)):
        raise DomainError(f"radii must be finite and >= 0, got {r_proton}, {r_rms}")
    return math.sqrt(0.5 * r_proton**2 + 0.25 * r_rms**2)


def matter_radius(core_mass_number: int, r_core: float, r_rms: float) -> float:
    """R_matter from the core radius and the valence-nucleon rms distance.

    R_m^2 = W/(W+1) R_core^2 + W/(W+1)^2 R_rms^2 with W the core mass number.
    """
    if core_mass_number < 1:
        raise DomainError(f"core mass number must be >= 1, got {core_mass_number}")
    if not all(0.0 <= x < math.inf for x in (r_core, r_rms)):
        raise DomainError(f"radii must be finite and >= 0, got {r_core}, {r_rms}")
    w = float(core_mass_number)
    return math.sqrt(w / (w + 1.0) * r_core**2 + w / (w + 1.0) ** 2 * r_rms**2)


def _match_index(v: np.ndarray, grid: RadialGrid, r_match: float | None) -> int:
    """Grid index where the free-wave matching is performed."""
    alive = np.nonzero(np.abs(v) >= POTENTIAL_DEAD)[0]
    first_dead = int(alive[-1]) + 1 if alive.size else 0
    if r_match is not None:
        idx = grid.index_of(r_match)
        if idx < first_dead:
            raise DomainError(
                f"|V| >= {POTENTIAL_DEAD} MeV at requested r_match={r_match} fm; "
                f"potential dies out only at {grid.r[min(first_dead, grid.n_points - 1)]:.2f} fm"
            )
    else:
        idx = max(grid.index_of(min(DEFAULT_R_MATCH, grid.r_max)), first_dead)
    if idx > grid.n_points - 2:
        raise DomainError(
            "no matching radius with a vanished potential inside the grid; "
            "increase r_max"
        )
    return idx


def _scattering_energies(energies) -> np.ndarray:
    """The energies as a float array; DomainError unless there are some, each
    finite and > 0, in strictly ascending order."""
    e = np.asarray(energies, dtype=float)
    if e.size == 0:
        raise DomainError("energy sweep is empty")
    bad = e[~((e > 0.0) & (e < math.inf))]
    if bad.size:
        raise DomainError(f"scattering energies must be > 0 and finite, got {bad[0]}")
    if np.any(np.diff(e) <= 0.0):
        raise DomainError("energies must be strictly ascending")
    return e


def _free_wave_phases(v, energies, c, p, grid, mi) -> np.ndarray:
    """Principal-branch phases of the regular solutions, matched to the free s-wave at ``mi``."""
    u, du = regular_values_at(v, energies, c, p, grid, mi)
    deltas = np.empty(energies.size)
    for j, (energy, u_mid, du_mid) in enumerate(zip(energies, u, du)):
        k = math.sqrt(energy / c)
        delta = (math.atan2(k * u_mid, du_mid) - k * grid.r[mi]) % math.pi
        deltas[j] = delta - math.pi if delta > math.pi / 2.0 else delta
    return deltas


def phase_shift(
    potential: PotentialModel,
    channel: ChannelConstants,
    energy: float,
    r_match: float | None = None,
    grid: RadialGrid | None = None,
) -> float:
    """s-wave phase shift in radians, principal branch (-pi/2, pi/2].

    For the singular transformed potentials the regular solution starts as
    r^(1+l_eff), but the matching is always against the physical s-wave
    free forms; branch bookkeeping across energies is done by
    :func:`phase_shift_curve`.
    """
    e = _scattering_energies([energy])
    v, c, p, g = resolve(potential, channel, grid)
    return _free_wave_phases(v, e, c, p, g, _match_index(v, g, r_match))[0]


@dataclass(frozen=True)
class PhaseShiftCurve:
    """Continuous-branch phase shifts over an ascending energy sweep."""

    energies: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        e, d = frozen(_scattering_energies(self.energies)), frozen(self.deltas)
        if e.shape != d.shape:
            raise DomainError("energies and deltas must have matching shapes")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "deltas", d)


def phase_shift_curve(
    potential: PotentialModel,
    channel: ChannelConstants,
    energies,
    grid: RadialGrid | None = None,
) -> PhaseShiftCurve:
    """Sweep phase shifts and unwrap them onto the Levinson branch.

    The absolute branch is anchored at threshold where the continuous
    s-wave phase shift equals (number of bound states) * pi; successive
    samples are continued to the nearest branch. The match radius is the
    default one of :func:`phase_shift`.
    """
    e = _scattering_energies(list(energies))
    v, c, p, g = resolve(potential, channel, grid)
    raw = _free_wave_phases(v, e, c, p, g, _match_index(v, g, None))
    deltas = np.empty_like(raw)
    anchor = outward_node_count(v / c, p, g) * math.pi   # bound states at threshold
    deltas[0] = raw[0] + math.pi * round((anchor - raw[0]) / math.pi)
    for j in range(1, raw.size):
        deltas[j] = raw[j] + math.pi * round((deltas[j - 1] - raw[j]) / math.pi)
    return PhaseShiftCurve(energies=e, deltas=deltas)


def mod_pi_distance(a, b):
    """Distance between two phases on the circle of circumference pi.

    Works elementwise on arrays as well as on scalars.
    """
    d = np.abs(np.subtract(a, b)) % math.pi
    return np.minimum(d, math.pi - d)


@dataclass(frozen=True)
class TransferStrength:
    """Zero-range strength D0 (MeV fm^(3/2)) and its square."""

    d0: float
    d0_squared: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "d0_squared", self.d0 * self.d0)


def zero_range_strength(potential_np: PotentialModel, u0: BoundState) -> TransferStrength:
    """D0 = sqrt(4 pi) int r V(r) u0(r) dr on u0's grid."""
    g = u0.grid
    v = values_on_grid(potential_np, g)
    integrand = g.r * v * u0.u
    tail = np.max(np.abs(integrand[-10:]))
    if tail > 1e-8:
        log.warning(
            "zero-range integrand still %.3g at the grid edge; "
            "D0 may not be converged, increase r_max", float(tail)
        )
    return TransferStrength(d0=math.sqrt(4.0 * math.pi) * integrate(integrand, g))


def cross_section_ratio(deep: TransferStrength, pep: TransferStrength) -> float:
    """dsigma(deep)/dsigma(pep) ~= D0^2(deep)/D0^2(pep).

    Valid because the remaining amplitude factor is insensitive to the
    interior node structure (the wave functions coincide outside the core).
    """
    if pep.d0_squared == 0.0:
        raise DomainError("pep transfer strength vanishes; ratio undefined")
    return deep.d0_squared / pep.d0_squared

